//! Runs `bench_e2e --smoke`: every workload's configuration with its
//! cheapest app, one target, a tiny scale and one pass, through the
//! real binary and its child processes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use pimeval::trace::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_bench_e2e");
const WORKLOADS: [&str; 4] = [
    "paper-figures",
    "cmd-storm",
    "bulk-sweep",
    "observed-stream",
];

/// Disjoint interval buckets of the wall-stamp sink.
const BUCKETS: [&str; 9] = [
    "device.cmd_s",
    "device.copy_s.h2d",
    "device.copy_s.d2h",
    "device.copy_s.d2d",
    "device.alloc_s",
    "device.free_s",
    "device.host_phase_s",
    "system.interconnect_s",
    "stream.marker_s",
];

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create test scratch dir");
    dir
}

/// One finished invocation: its stdout, the parsed last line, and the
/// parsed results file.
struct Run {
    stdout: String,
    last: Json,
    results: Json,
}

fn bench(name: &str, args: &[&str]) -> Run {
    let out = scratch(name).join("results.json");
    let o = Command::new(BIN)
        .args(["--smoke", "--out"])
        .arg(&out)
        .args(args)
        .output()
        .expect("run bench_e2e");
    let stdout = String::from_utf8(o.stdout).expect("utf-8 stdout");
    assert!(
        o.status.success(),
        "bench_e2e {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&o.stderr)
    );
    let last = Json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON");
    let results =
        Json::parse(&std::fs::read_to_string(out).expect("results file")).expect("results JSON");
    Run {
        stdout,
        last,
        results,
    }
}

/// The smoke run of every workload with the traced pass, shared by the
/// tests that only read it.
fn traced_all() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| bench("all", &["--workload", "all", "--trace", "1"]))
}

fn workload<'a>(run: &'a Run, name: &str) -> &'a Json {
    run.results
        .get("workloads")
        .and_then(|w| w.get(name))
        .unwrap_or_else(|| panic!("{name} missing from results"))
}

fn layer(run: &Run, w: &str, name: &str) -> f64 {
    workload(run, w)
        .get("layers")
        .and_then(|l| l.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{w}: layer {name} missing"))
}

/// `(name, unit)` of every metric in one list of BENCHMARK.json.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let field = |m: &Json, f: &str| {
        m.get(f)
            .and_then(Json::as_str)
            .expect("name and unit")
            .to_string()
    };
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// The `{name: unit}` metrics of a last line.
fn last_line_metrics(run: &Run) -> BTreeMap<String, String> {
    let metrics = run
        .last
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object");
    metrics
        .iter()
        .map(|(k, m)| {
            (
                k.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let run = traced_all();
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        let printed = run
            .stdout
            .lines()
            .filter(|l| {
                let t: Vec<&str> = l.split_whitespace().collect();
                t.len() >= 3 && t[0] == name && t[2] == unit
            })
            .count();
        assert_eq!(
            printed,
            WORKLOADS.len(),
            "{name} [{unit}] printed {printed} times"
        );
    }
    for w in WORKLOADS {
        let section = workload(run, w);
        for (name, unit) in &end_to_end {
            let m = section
                .get("metrics")
                .and_then(|m| m.get(name))
                .expect("end-to-end metric");
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{w} {name}"
            );
        }
        for (name, unit) in &per_layer {
            let m = section
                .get("layers")
                .and_then(|m| m.get(name))
                .expect("per-layer metric");
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{w} {name}"
            );
        }
    }
    // With --trace 1 the last line carries every per-layer metric of
    // every workload; with --trace 0 exactly the end-to-end metrics.
    let want: BTreeMap<String, String> = WORKLOADS
        .iter()
        .flat_map(|w| {
            per_layer
                .iter()
                .map(move |(n, u)| (format!("{w}.{n}"), u.clone()))
        })
        .collect();
    assert_eq!(last_line_metrics(run), want);
    let untraced = bench("one", &["--workload", "cmd-storm", "--trace", "0"]);
    assert_eq!(
        last_line_metrics(&untraced),
        end_to_end.into_iter().collect()
    );
    let keys: Vec<&String> = untraced.last.as_object().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
}

#[test]
fn no_run_fails_and_every_run_is_checked_against_the_reference() {
    let run = traced_all();
    assert_eq!(run.last.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(run.last.get("failed").and_then(Json::as_f64), Some(0.0));
    for w in WORKLOADS {
        let section = workload(run, w);
        let frac = section
            .get("metrics")
            .and_then(|m| m.get("fail_frac"))
            .and_then(|m| m.get("median"))
            .and_then(Json::as_f64);
        assert_eq!(frac, Some(0.0), "{w}");
        let note = section
            .get("reference")
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(note.starts_with("checked against smoke/"), "{w}: {note}");
    }
}

#[test]
fn traced_pass_models_exactly_what_the_untraced_pass_modeled() {
    let run = traced_all();
    for w in WORKLOADS {
        let same = workload(run, w).get("traced_matches_untraced");
        assert_eq!(same, Some(&Json::Bool(true)), "{w}");
    }
}

#[test]
fn layer_intervals_fit_inside_the_app_runs() {
    let run = traced_all();
    for w in WORKLOADS {
        let run_s = layer(run, w, "pimbench.run_s");
        assert!(run_s > 0.0, "{w}");
        let covered: f64 = BUCKETS.iter().map(|b| layer(run, w, b)).sum();
        let host = layer(run, w, "pimbench.host_s");
        // The intervals chain from the start of each run to its last
        // event; the rest of the run is host time.
        assert!(
            covered + host <= run_s * (1.0 + 1e-9) + 1e-9,
            "{w}: {covered} + {host} > {run_s}"
        );
        assert!(
            (covered - layer(run, w, "trace.covered_s")).abs() <= 1e-9 * run_s.max(1.0),
            "{w}"
        );
        assert!(layer(run, w, "stream.flush_s") <= run_s, "{w}");
    }
}

#[test]
fn a_corrupted_reference_entry_fails_its_run() {
    let dir = scratch("corrupt");
    let reference = dir.join("reference.json");
    let _ = std::fs::remove_file(&reference);
    let r = reference.to_str().expect("utf-8 path");
    let blessed = Command::new(BIN)
        .args([
            "--bless",
            "--smoke",
            "--workload",
            "cmd-storm",
            "--reference",
            r,
        ])
        .output()
        .expect("bless");
    assert!(
        blessed.status.success(),
        "{}",
        String::from_utf8_lossy(&blessed.stdout)
    );
    let args = ["--workload", "cmd-storm", "--trace", "0", "--reference", r];
    let clean = bench("corrupt", &args);
    assert_eq!(clean.last.get("failed").and_then(Json::as_f64), Some(0.0));

    // Bump the first entry's command count by one.
    let text = std::fs::read_to_string(&reference).expect("blessed reference");
    let at = text.find("[true, ").expect("an entry") + "[true, ".len();
    let end = at + text[at..].find(',').expect("cmds field");
    let cmds: u64 = text[at..end].parse().expect("cmds");
    let corrupted = format!("{}{}{}", &text[..at], cmds + 1, &text[end..]);
    std::fs::write(&reference, corrupted).expect("write corrupted reference");

    let bad = bench("corrupt", &args);
    assert_eq!(bad.last.get("correct"), Some(&Json::Bool(false)));
    assert!(bad.last.get("failed").and_then(Json::as_f64) > Some(0.0));
    let frac = workload(&bad, "cmd-storm")
        .get("metrics")
        .and_then(|m| m.get("fail_frac"))
        .and_then(|m| m.get("median"))
        .and_then(Json::as_f64);
    assert!(frac > Some(0.0));
}

#[test]
fn comparing_results_with_themselves_is_within_bounds() {
    traced_all();
    let path = scratch("all").join("results.json");
    let o = Command::new(BIN)
        .arg("--compare")
        .args([&path, &path])
        .output()
        .expect("compare");
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(o.status.success(), "{stdout}");
    let rows = stdout.lines().filter(|l| l.ends_with("within")).count();
    // Five bounded end-to-end metrics plus modeled_ms and fail_frac.
    assert_eq!(rows, WORKLOADS.len() * 7, "{stdout}");
}
