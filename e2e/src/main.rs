//! `bench_e2e`: the end-to-end host-time benchmark of the PIMeval
//! simulator, with per-layer numbers measured from outside it.
//!
//! ```text
//! cargo run --release --manifest-path e2e/Cargo.toml --bin bench_e2e -- \
//!     [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1] [--smoke] \
//!     [--out PATH] [--reference PATH]
//! bench_e2e --bless [--workload NAME|all] [--seed S] [--smoke]
//! bench_e2e --compare A.json B.json
//! ```
//!
//! Each workload runs in child processes of this binary, one at a time:
//! with `--trace 0`, two that only run the cold first pass (set-up
//! samples); then one that runs the cold pass, timed passes for
//! `--seconds`, and with `--trace 1` the traced pass and its
//! ablations. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and the metrics `BENCHMARK.json` lists: its `end_to_end`
//! metrics with `--trace 0`, its `per_layer` metrics with `--trace 1`.
//! See README.md for the workloads, metrics and caveats.

mod child;
mod probe;
mod reference;
mod report;
mod workload;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use pimeval::trace::json::{num, Json};

use crate::child::ChildArgs;
use crate::reference::{set_name, Entry, Reference, Set};
use crate::report::{declared_metrics, median, obj, quartiles, ratio, render, render_pretty};
use crate::workload::{Spec, Workload};

/// The benchmark's own directory, where it finds its files.
const HOME: &str = env!("CARGO_MANIFEST_DIR");
/// Fresh processes per workload that only run the cold pass; with the
/// main child they give three set-up samples.
const COLD_ONLY_CHILDREN: usize = 2;
/// Environment variables that would silently change a workload.
const CLEARED_ENV: [&str; 5] = [
    "PIM_TIMING",
    "PIM_OPT",
    "PIM_TEST_RANKS",
    "PIM_LOG",
    "PIM_THREADS",
];

const USAGE: &str =
    "usage: bench_e2e [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1] \
[--smoke] [--out PATH] [--reference PATH]
       bench_e2e --bless [--workload NAME|all] [--seed S] [--smoke] [--reference PATH]
       bench_e2e --compare A.json B.json";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Bless,
    Child { cold_only: bool },
}

#[derive(Debug)]
struct Opts {
    mode: Mode,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    reference: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

/// Set-up is an end-to-end metric, so the extra cold processes only run
/// when end-to-end metrics are what the run reports (`--trace 0`); a
/// traced run spends that time on its traced and ablation passes.
fn cold_only_children(opts: &Opts) -> usize {
    if opts.smoke || opts.trace {
        0
    } else {
        COLD_ONLY_CHILDREN
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let home = Path::new(HOME);
    let mut o = Opts {
        mode: Mode::Run,
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        seconds: 25,
        trace: true,
        smoke: false,
        out: home.join("out/results.json"),
        reference: home.join("reference.json"),
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workloads =
                    match v.as_str() {
                        "all" => Workload::ALL.to_vec(),
                        name => vec![Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?],
                    };
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--reference" => o.reference = PathBuf::from(value()?),
            "--smoke" => o.smoke = true,
            "--bless" => o.mode = Mode::Bless,
            "--child" => o.mode = Mode::Child { cold_only: false },
            "--cold-only" => o.mode = Mode::Child { cold_only: true },
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                o.compare = Some((a, b));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if matches!(o.mode, Mode::Child { .. }) && o.workloads.len() != 1 {
        return Err("a child runs exactly one workload".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("bench_e2e: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&opts.compare, opts.mode) {
        (Some((a, b)), _) => {
            report::compare(a, b, &Path::new(HOME).join("../BENCHMARK.json")).map(|worse| {
                if worse == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            })
        }
        (None, Mode::Child { cold_only }) => child::run(&ChildArgs {
            workload: opts.workloads[0],
            seed: opts.seed,
            seconds: opts.seconds,
            trace: opts.trace,
            smoke: opts.smoke,
            cold_only,
            reference: opts.reference.clone(),
        })
        .map(|()| ExitCode::SUCCESS),
        (None, Mode::Bless) => bless(&opts),
        (None, Mode::Run) => run(&opts),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bench_e2e: {e}");
        ExitCode::FAILURE
    })
}

/// What a child reported.
struct ChildOutput {
    /// Seconds from spawning the child to the end of its cold pass.
    cold_s: f64,
    result: Json,
}

/// Runs one child to completion and collects its output.
fn spawn_child(opts: &Opts, workload: Workload, cold_only: bool) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating bench_e2e: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(if cold_only { "--cold-only" } else { "--child" })
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--reference")
        .arg(&opts.reference)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    for var in CLEARED_ENV {
        cmd.env_remove(var);
    }
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawning {} child: {e}", workload.name()))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (mut cold_s, mut result) = (None, None);
    let mut read_error = None;
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(l) if l == "COLD" => cold_s = Some(t0.elapsed().as_secs_f64()),
            Ok(l) => match l.strip_prefix("RESULT ") {
                Some(json) => result = Some(Json::parse(json)),
                None => eprintln!("{l}"),
            },
            Err(e) => {
                read_error = Some(e.to_string());
                break;
            }
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    let who = format!("{} child", workload.name());
    if let Some(e) = read_error {
        return Err(format!("{who}: reading output: {e}"));
    }
    if !status.success() {
        return Err(format!("{who} exited with {status}"));
    }
    let result = result
        .ok_or_else(|| format!("{who} printed no result"))?
        .map_err(|e| format!("{who}: bad result: {e}"))?;
    Ok(ChildOutput {
        cold_s: cold_s.ok_or_else(|| format!("{who} never finished its cold pass"))?,
        result,
    })
}

/// The number `key` of `doc`, or 0.
fn number(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The numbers of the array `key` of `doc`.
fn numbers(doc: &Json, key: &str) -> Vec<f64> {
    let items = doc.get(key).and_then(Json::as_array).unwrap_or_default();
    items.iter().filter_map(Json::as_f64).collect()
}

/// Set-up time of the fastest cold start over `children`: the quickest
/// process start (spawn to the start of the cold pass) plus every run of
/// the cold pass at its fastest. With one child it is that child's
/// set-up time.
fn fastest_setup(children: &[&ChildOutput]) -> f64 {
    let start = children
        .iter()
        .map(|c| c.cold_s - number(&c.result, "cold_pass_s"))
        .fold(f64::INFINITY, f64::min);
    let runs: Vec<Vec<f64>> = children
        .iter()
        .map(|c| numbers(&c.result, "cold_run_s"))
        .collect();
    let n = runs.iter().map(Vec::len).min().unwrap_or(0);
    let fastest_runs: f64 = (0..n)
        .map(|i| runs.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum();
    start + fastest_runs
}

/// One metric: its reported value and the samples it spreads over.
struct Summary {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Summary {
    /// A metric whose value is the median of its samples.
    fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Summary {
        Summary {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }

    fn to_json(&self) -> Json {
        let (q1, q3) = quartiles(&self.samples);
        obj([
            ("unit", Json::Str(self.unit.into())),
            ("value", Json::Num(self.value)),
            ("median", Json::Num(median(&self.samples))),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Num(self.samples.len() as f64)),
            (
                "samples",
                Json::Arr(self.samples.iter().copied().map(Json::Num).collect()),
            ),
        ])
    }
}

/// Everything measured for one workload.
struct WorkloadReport {
    workload: Workload,
    result: Json,
    metrics: Vec<Summary>,
    attempted: u64,
    failed: u64,
}

impl WorkloadReport {
    /// Summarizes the main child and the cold-only children of one
    /// workload.
    fn new(workload: Workload, main: ChildOutput, cold_only: &[ChildOutput]) -> WorkloadReport {
        let r = &main.result;
        let num = |k: &str| number(r, k);
        let wall = numbers(r, "wall_s");
        let fastest_wall = num("fastest_wall_s");
        let children: Vec<&ChildOutput> = cold_only.iter().chain([&main]).collect();
        let setup = children.iter().map(|c| c.cold_s).collect();
        let cmds = num("cmds_per_pass");
        let (attempted, failed) = (num("attempted") as u64, num("failed") as u64);
        // Host and CPU time are the sums of every run's fastest timed
        // repetition; their samples are whole timed passes.
        let metrics = vec![
            Summary {
                name: "wall_s",
                unit: "s",
                value: fastest_wall,
                samples: wall.clone(),
            },
            Summary {
                name: "cpu_s",
                unit: "s",
                value: num("fastest_cpu_s"),
                samples: numbers(r, "cpu_s"),
            },
            Summary {
                name: "sim_cmds_per_s",
                unit: "1/s",
                value: ratio(cmds, fastest_wall),
                samples: wall.iter().map(|w| ratio(cmds, *w)).collect(),
            },
            Summary {
                name: "setup_s",
                unit: "s",
                value: fastest_setup(&children),
                samples: setup,
            },
            Summary::median_of("peak_rss_mb", "MB", vec![num("peak_rss_mb")]),
            Summary::median_of("modeled_ms", "ms", vec![num("modeled_ms")]),
            Summary::median_of(
                "fail_frac",
                "ratio",
                vec![ratio(failed as f64, attempted as f64)],
            ),
        ];
        WorkloadReport {
            workload,
            result: main.result,
            metrics,
            attempted,
            failed,
        }
    }

    /// A metric's reported value and unit: the summary's value for
    /// end-to-end metrics, the traced pass's value for per-layer ones.
    fn value(&self, name: &str) -> Option<(f64, String)> {
        if let Some(s) = self.metrics.iter().find(|s| s.name == name) {
            return Some((s.value, s.unit.to_string()));
        }
        let layer = self.result.get("layers")?.get(name)?;
        Some((
            layer.get("value")?.as_f64()?,
            layer.get("unit")?.as_str()?.to_string(),
        ))
    }

    /// Samples behind the end-to-end metric `name`.
    fn sample_count(&self, name: &str) -> usize {
        let summary = self.metrics.iter().find(|s| s.name == name);
        summary.map_or(0, |s| s.samples.len())
    }

    fn print(&self) {
        let r = &self.result;
        let field = |k: &str| {
            r.get(k)
                .map_or_else(String::new, |v| render(v).trim_matches('"').to_string())
        };
        println!(
            "== {}: {} runs per pass, {} timed passes, {} set-up samples; reference {}",
            self.workload.name(),
            field("runs_per_pass"),
            self.sample_count("wall_s"),
            self.sample_count("setup_s"),
            field("reference"),
        );
        println!("  end to end: name, value, unit, samples [q1, median, q3] n");
        for s in &self.metrics {
            let (q1, q3) = quartiles(&s.samples);
            println!(
                "  {:<36} {:<22} {:<6} [{q1:.6}, {:.6}, {q3:.6}] n={}",
                s.name,
                num(s.value),
                s.unit,
                median(&s.samples),
                s.samples.len()
            );
        }
        println!(
            "  runs: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for f in r
            .get("failures")
            .and_then(Json::as_array)
            .unwrap_or_default()
        {
            println!("  FAILED {}", f.as_str().unwrap_or_default());
        }
        let Some(layers) = r.get("layers").and_then(Json::as_object) else {
            return;
        };
        println!(
            "  per layer (traced pass; modeled stats equal to the untraced pass: {}):",
            field("traced_matches_untraced")
        );
        for (name, m) in layers {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            println!("  {name:<36} {:<22} {unit}", num(value));
        }
    }

    fn to_json(&self) -> Json {
        let r = &self.result;
        let mut out: BTreeMap<String, Json> = [
            "runs_per_pass",
            "cmds_per_pass",
            "reference",
            "failures",
            "traced_matches_untraced",
            "layers",
        ]
        .into_iter()
        .filter_map(|k| r.get(k).map(|v| (k.to_string(), v.clone())))
        .collect();
        for (key, metric) in [("timed_passes", "wall_s"), ("setup_samples", "setup_s")] {
            out.insert(key.into(), Json::Num(self.sample_count(metric) as f64));
        }
        out.insert("attempted".into(), Json::Num(self.attempted as f64));
        out.insert("failed".into(), Json::Num(self.failed as f64));
        out.insert(
            "metrics".into(),
            obj(self.metrics.iter().map(|s| (s.name, s.to_json()))),
        );
        Json::Obj(out)
    }
}

/// Environment facts every results file and report starts with.
fn header(opts: &Opts) -> Json {
    let run = |program: &str, args: &[&str]| {
        let out = Command::new(program)
            .args(args)
            // Never take the commit of a repository enclosing this one.
            .env("GIT_CEILING_DIRECTORIES", Path::new(HOME).join("../.."))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())?;
        let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
        (!text.is_empty()).then_some(Json::Str(text))
    };
    let root = Path::new(HOME).join("..");
    let root = root.to_string_lossy();
    let (cores, threads) = (child::host_cores(), child::threads());
    obj([
        ("host_cores", Json::Num(cores as f64)),
        ("threads", Json::Num(threads as f64)),
        // Threads never exceed cores here, so no run is reported as
        // thread scaling on an oversubscribed host.
        ("oversubscribed", Json::Bool(threads > cores)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds as f64)),
        ("trace", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.smoke)),
        (
            "cold_only_children",
            Json::Num(cold_only_children(opts) as f64),
        ),
        ("rustc", run("rustc", &["-V"]).unwrap_or(Json::Null)),
        (
            "commit",
            run(
                "git",
                &[
                    "-C",
                    &root,
                    "describe",
                    "--always",
                    "--dirty",
                    "--abbrev=12",
                ],
            )
            .unwrap_or(Json::Null),
        ),
    ])
}

/// Runs every requested workload and reports.
fn run(opts: &Opts) -> Result<ExitCode, String> {
    let (end_to_end, per_layer) = declared_metrics(&Path::new(HOME).join("../BENCHMARK.json"))?;
    let header = header(opts);
    println!("bench_e2e {}", render(&header));
    let mut reports = Vec::new();
    for &w in &opts.workloads {
        let cold_only = (0..cold_only_children(opts))
            .map(|_| spawn_child(opts, w, true))
            .collect::<Result<Vec<_>, _>>()?;
        let main = spawn_child(opts, w, false)?;
        let report = WorkloadReport::new(w, main, &cold_only);
        report.print();
        reports.push(report);
    }

    let doc = obj([
        ("schema", Json::Num(1.0)),
        ("header", header),
        (
            "workloads",
            obj(reports.iter().map(|r| (r.workload.name(), r.to_json()))),
        ),
    ]);
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, render_pretty(&doc, 4))
        .map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!("results written to {}", opts.out.display());

    let declared = if opts.trace { &per_layer } else { &end_to_end };
    let mut metrics = BTreeMap::new();
    for r in &reports {
        for d in declared {
            let (value, unit) = r.value(&d.name).ok_or_else(|| {
                format!("{}: metric {} was not measured", r.workload.name(), d.name)
            })?;
            if unit != d.unit {
                return Err(format!(
                    "{}: unit {unit}, but BENCHMARK.json says {}",
                    d.name, d.unit
                ));
            }
            let name = if reports.len() == 1 {
                d.name.clone()
            } else {
                format!("{}.{}", r.workload.name(), d.name)
            };
            metrics.insert(
                name,
                obj([("value", Json::Num(value)), ("unit", Json::Str(unit))]),
            );
        }
    }
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let last = obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", render(&last));
    Ok(ExitCode::SUCCESS)
}

/// Records what every run of the requested workloads models for this
/// seed and mode into the reference file.
fn bless(opts: &Opts) -> Result<ExitCode, String> {
    let mut reference = Reference::load(&opts.reference)?;
    let mut complete = true;
    for &w in &opts.workloads {
        let child = spawn_child(opts, w, true)?;
        let records = child.result.get("records").and_then(Json::as_object);
        let set: Set = records
            .into_iter()
            .flatten()
            .filter_map(|(k, v)| Some((k.clone(), Entry::from_json(v)?)))
            .filter(|(_, e)| e.verified())
            .collect();
        let name = set_name(opts.smoke, w.name(), opts.seed);
        let runs = Spec::new(w, opts.seed, opts.smoke).runs();
        if set.len() == runs {
            println!("blessed {name}: {runs} runs");
            reference.bless(name, set);
        } else {
            println!(
                "not blessed {name}: only {} of {runs} runs verified",
                set.len()
            );
            complete = false;
        }
    }
    reference
        .save()
        .map_err(|e| format!("{}: {e}", opts.reference.display()))?;
    Ok(if complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_is_the_quickest_start_plus_every_cold_run_at_its_fastest() {
        let child = |cold_s: f64, pass_s: f64, runs: &[f64]| ChildOutput {
            cold_s,
            result: obj([
                ("cold_pass_s", Json::Num(pass_s)),
                (
                    "cold_run_s",
                    Json::Arr(runs.iter().copied().map(Json::Num).collect()),
                ),
            ]),
        };
        let (a, b) = (
            child(3.0, 2.5, &[1.0, 1.5]),
            child(2.75, 2.5, &[1.25, 1.25]),
        );
        // Start 0.25 s (b), runs 1.0 s (a) and 1.25 s (b).
        assert_eq!(fastest_setup(&[&a, &b]), 2.5);
        assert_eq!(fastest_setup(&[&a]), 3.0);
    }
}
