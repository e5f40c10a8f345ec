//! `schema_check --bench` and `bench_regress` over small hand-written
//! `BENCH_parallel.json` documents: the `host_cores` field, speedups
//! bounded by it, wall rows compared only between equal core counts,
//! and the modeled `fidelity` rows hard-gated. Also `schema_check`'s
//! metrics-version gate.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use pimeval::metrics::METRICS_SCHEMA_VERSION;
use pimeval::trace::json::STATS_SCHEMA_VERSION;

/// Writes `json` to a file in Cargo's per-package test scratch directory.
fn doc(name: &str, json: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bench-tools-{name}.json"));
    std::fs::write(&path, json).unwrap();
    path
}

/// A minimal export: one `add` run at 1 and 2 threads, one modeled
/// rank-scaling row, and the given top-level extras.
fn bench_json(extra: &str, add_min_ns: u64, kernel_ms: f64) -> String {
    bench_json_with_fidelity(extra, add_min_ns, kernel_ms, "")
}

/// [`bench_json`] with the given `fidelity` rows.
fn bench_json_with_fidelity(
    extra: &str,
    add_min_ns: u64,
    kernel_ms: f64,
    fidelity: &str,
) -> String {
    format!(
        "{{\"schema_version\":1,\"threads_default\":2,{extra}\"runs\":[\
         {{\"name\":\"add\",\"threads\":1,\"mean_ns\":{add_min_ns},\"min_ns\":{add_min_ns}}},\
         {{\"name\":\"add\",\"threads\":2,\"mean_ns\":500,\"min_ns\":500}}],\
         \"speedups\":[{{\"name\":\"add\",\"threads\":2,\"speedup\":2}}],\
         \"rank_scaling\":[{{\"name\":\"add\",\"ranks\":1,\"kernel_ms\":{kernel_ms},\
         \"interconnect_ms\":0,\"interconnect_bytes\":0}}],\"fidelity\":[{fidelity}]}}"
    )
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

fn regress(base: &Path, cur: &Path) -> (Option<i32>, String) {
    let out = run(
        env!("CARGO_BIN_EXE_bench_regress"),
        &[
            "--baseline",
            base.to_str().unwrap(),
            "--current",
            cur.to_str().unwrap(),
        ],
    );
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn schema_check_accepts_host_cores_and_bounds_speedups_by_it() {
    let check = |p: &Path| {
        run(
            env!("CARGO_BIN_EXE_schema_check"),
            &["--bench", p.to_str().unwrap()],
        )
        .status
        .code()
    };
    let with = doc("cores2", &bench_json("\"host_cores\":2,", 1000, 1.0));
    let without = doc("nocores", &bench_json("", 1000, 1.0));
    let oversub = doc("cores1", &bench_json("\"host_cores\":1,", 1000, 1.0));
    assert_eq!(check(&with), Some(0));
    assert_eq!(check(&without), Some(0));
    assert_eq!(check(&oversub), Some(1));
}

#[test]
fn wall_rows_gate_only_between_equal_host_core_counts() {
    // The current side's 1-thread `add` is 3x slower; the modeled row
    // is unchanged.
    let base = doc("base", &bench_json("\"host_cores\":2,", 1000, 1.0));
    let same_host = doc("same", &bench_json("\"host_cores\":2,", 3000, 1.0));
    let (code, stdout) = regress(&base, &same_host);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[REGRESS] run add/1"), "{stdout}");

    for (name, extra) in [("other", "\"host_cores\":4,"), ("missing", "")] {
        let cur = doc(name, &bench_json(extra, 3000, 1.0));
        let (code, stdout) = regress(&base, &cur);
        assert_eq!(code, Some(0), "{stdout}");
        assert!(stdout.contains("not comparable"), "{stdout}");
        assert!(!stdout.contains("REGRESS"), "{stdout}");
    }

    // Modeled rows stay hard-gated across hosts.
    let dearer = doc("dearer", &bench_json("\"host_cores\":4,", 1000, 1.5));
    let (code, stdout) = regress(&base, &dearer);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[REGRESS] rank_scaling add/1"), "{stdout}");
}

#[test]
fn fsm_priced_fidelity_rows_are_hard_gated() {
    let fidelity = |fsm_ms: f64| {
        format!(
            "{{\"name\":\"add\",\"target\":\"Fulcrum\",\"elems\":1024,\
             \"analytical_ms\":1,\"fsm_ms\":{fsm_ms},\"fsm_thrash_ms\":2,\
             \"delta_pct\":0,\"thrash_slowdown\":2,\"row_hits\":0,\"row_misses\":4,\
             \"row_hit_rate\":0}}"
        )
    };
    let doc_with = |name: &str, fsm_ms: f64| {
        doc(
            name,
            &bench_json_with_fidelity("\"host_cores\":2,", 1000, 1.0, &fidelity(fsm_ms)),
        )
    };
    let base = doc_with("fid-base", 1.0);
    let (code, stdout) = regress(&base, &doc_with("fid-same", 1.0));
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("[     ok] fidelity fsm_ms add/Fulcrum"),
        "{stdout}"
    );
    assert!(
        stdout.contains("[     ok] fidelity fsm_thrash_ms add/Fulcrum"),
        "{stdout}"
    );

    let (code, stdout) = regress(&base, &doc_with("fid-dearer", 1.5));
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("[REGRESS] fidelity fsm_ms add/Fulcrum"),
        "{stdout}"
    );
}

#[test]
fn schema_check_rejects_a_newer_metrics_version() {
    let check = |kind: &str, name: &str, json: String| {
        let p = doc(name, &json);
        let out = run(
            env!("CARGO_BIN_EXE_schema_check"),
            &[kind, p.to_str().unwrap()],
        );
        out.status.code()
    };
    let snap = |v: u32| {
        format!(
            r#"{{"schema_version":{v},"clock_ms":1,"per_shard":[],
            "aggregate":{{"counters":{{}},"gauges":{{}},"histograms":{{}}}}}}"#
        )
    };
    let metrics = |doc_v: u32, run_v: u32| {
        let run = format!(
            r#"{{"benchmark":"b","target":"t","metrics":{}}}"#,
            snap(run_v)
        );
        format!(r#"{{"schema_version":{doc_v},"runs":[{run}]}}"#)
    };
    let stats = |v: u32| {
        let stats = format!(
            r#"{{"schema_version":{STATS_SCHEMA_VERSION},"target":"t",
            "totals":{{"kernel_time_ms":0}},"metrics":{}}}"#,
            snap(v)
        );
        format!(r#"{{"runs":[{{"benchmark":"b","stats":{stats}}}]}}"#)
    };
    let (v, newer) = (METRICS_SCHEMA_VERSION, METRICS_SCHEMA_VERSION + 1);
    assert_eq!(check("--metrics", "m-ok", metrics(v, v)), Some(0));
    assert_eq!(check("--metrics", "m-doc", metrics(newer, v)), Some(1));
    assert_eq!(check("--metrics", "m-run", metrics(v, newer)), Some(1));
    assert_eq!(check("--stats", "s-ok", stats(v)), Some(0));
    assert_eq!(check("--stats", "s-new", stats(newer)), Some(1));
}
