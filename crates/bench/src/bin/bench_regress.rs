//! Performance regression gate over two `BENCH_parallel.json` snapshots.
//!
//! ```text
//! bench_regress --baseline <file> --current <file>
//!               [--max-slowdown PCT] [--max-cost-increase PCT]
//!               [--wall-advisory]
//! ```
//!
//! Compares a current `bench_parallel` export against a committed
//! baseline and exits non-zero when a configured threshold is crossed:
//!
//! * **Wall-clock** (`runs`, matched by `(name, threads)`): best
//!   iteration time (`min_ns`) may grow by at most `--max-slowdown`
//!   percent (default 25 — host timing is noisy, especially in CI).
//!   With `--wall-advisory`, wall-clock regressions are still printed
//!   (as `ADVISE`) but never fail the gate — the mode CI uses, where
//!   shared runners make wall time untrustworthy while the modeled-cost
//!   columns below stay deterministic and hard-fail. Wall time is only
//!   compared between files recording the same `host_cores`: when the
//!   counts differ or either file lacks one, the rows are printed as
//!   `not comparable` and never gated.
//! * **Modeled cost** (`rank_scaling`, matched by `(name, ranks)`;
//!   `stream_vs_eager`, matched by `(name, threads)`; `fidelity`,
//!   matched by `(name, target)`): simulated `kernel_ms` /
//!   `stream_modeled_ms` / the bank-FSM-priced `fsm_ms` and
//!   `fsm_thrash_ms` may grow by at most `--max-cost-increase` percent
//!   (default 1 — the cost model is deterministic, so any growth is a
//!   real model change).
//!
//! The diff is additive-tolerant by design: unknown fields are ignored,
//! runs present on only one side are reported but never fail the gate,
//! and a missing `schema_version` (pre-versioning baselines) is treated
//! as compatible. Exit codes: 0 no regression, 1 regression, 2 usage or
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use pimeval::trace::json::Json;

struct Cli {
    baseline: PathBuf,
    current: PathBuf,
    /// Allowed wall-clock growth, fraction (0.25 = +25%).
    max_slowdown: f64,
    /// Allowed modeled-cost growth, fraction.
    max_cost_increase: f64,
    /// Report wall-clock regressions without failing the gate.
    wall_advisory: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut baseline = None;
    let mut current = None;
    let mut max_slowdown = 0.25;
    let mut max_cost_increase = 0.01;
    let mut wall_advisory = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--baseline" => {
                baseline = Some(PathBuf::from(need(i)?));
                i += 1;
            }
            "--current" => {
                current = Some(PathBuf::from(need(i)?));
                i += 1;
            }
            "--max-slowdown" => {
                let pct: f64 = need(i)?
                    .parse()
                    .map_err(|e| format!("--max-slowdown: {e}"))?;
                max_slowdown = pct / 100.0;
                i += 1;
            }
            "--max-cost-increase" => {
                let pct: f64 = need(i)?
                    .parse()
                    .map_err(|e| format!("--max-cost-increase: {e}"))?;
                max_cost_increase = pct / 100.0;
                i += 1;
            }
            "--wall-advisory" => wall_advisory = true,
            "--help" | "-h" => {
                println!(
                    "bench_regress --baseline <file> --current <file> \
                     [--max-slowdown PCT] [--max-cost-increase PCT] \
                     [--wall-advisory]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(Cli {
        baseline: baseline.ok_or("--baseline is required")?,
        current: current.ok_or("--current is required")?,
        max_slowdown,
        max_cost_increase,
        wall_advisory,
    })
}

fn load(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// A `(section, key fields, metric)` extraction: pulls every entry of
/// `section` as `(identity, value)` where identity is the joined key
/// fields and value the metric field. Entries missing any field are
/// skipped (additive tolerance works both ways).
fn extract(doc: &Json, section: &str, keys: &[&str], metric: &str) -> Vec<(String, f64)> {
    let Some(entries) = doc.get(section).and_then(Json::as_array) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for e in entries {
        let mut id = Vec::new();
        for k in keys {
            match e.get(k) {
                Some(v) => id.push(match v.as_str() {
                    Some(s) => s.to_string(),
                    None => match v.as_f64() {
                        Some(n) => format!("{n}"),
                        None => return Vec::new(),
                    },
                }),
                None => continue,
            }
        }
        if id.len() != keys.len() {
            continue;
        }
        if let Some(v) = e.get(metric).and_then(Json::as_f64) {
            out.push((id.join("/"), v));
        }
    }
    out
}

/// How a compared section's exceedances count.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Growth beyond the threshold is a regression.
    Hard,
    /// Growth beyond the threshold is printed as `ADVISE`, not counted.
    Advisory,
    /// The two sides were measured on different hosts: rows are printed
    /// without a verdict.
    NotComparable,
}

/// Compares one metric between the two documents; returns the number of
/// regressions (relative growth beyond `threshold` under [`Gate::Hard`])
/// after printing one line per matched pair.
fn compare(
    label: &str,
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    threshold: f64,
    gate: Gate,
) -> usize {
    let mut regressions = 0;
    for (id, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(cid, _)| cid == id) else {
            println!("  [gone]  {label} {id} (baseline only — ignored)");
            continue;
        };
        if *base <= 0.0 {
            continue;
        }
        let growth = cur / base - 1.0;
        if gate == Gate::NotComparable {
            println!(
                "  [not comparable] {label} {id}: {base:.6} -> {cur:.6} ({:+.2}%)",
                growth * 100.0
            );
            continue;
        }
        let status = if growth <= threshold {
            "ok"
        } else if gate == Gate::Advisory {
            "ADVISE"
        } else {
            regressions += 1;
            "REGRESS"
        };
        println!(
            "  [{status:>7}] {label} {id}: {base:.6} -> {cur:.6} ({:+.2}%, limit +{:.2}%)",
            growth * 100.0,
            threshold * 100.0
        );
    }
    for (id, _) in current {
        if !baseline.iter().any(|(bid, _)| bid == id) {
            println!("  [new]   {label} {id} (current only — ignored)");
        }
    }
    regressions
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (base, cur) = match (load(&cli.baseline), load(&cli.current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Pre-versioning baselines carry no schema_version; only a declared
    // *newer* major version than ours is rejected.
    for (doc, which) in [(&base, "baseline"), (&cur, "current")] {
        if let Some(v) = doc.get("schema_version").and_then(Json::as_f64) {
            if v as u32 > pim_bench_harness::export::BENCH_SCHEMA_VERSION {
                eprintln!(
                    "error: {which} declares schema_version {} but this tool knows {}",
                    v as u32,
                    pim_bench_harness::export::BENCH_SCHEMA_VERSION
                );
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "bench_regress: {} vs {}",
        cli.baseline.display(),
        cli.current.display()
    );
    let mut regressions = 0;
    let host_cores = |doc: &Json| doc.get("host_cores").and_then(Json::as_f64);
    let wall_gate = match (host_cores(&base), host_cores(&cur)) {
        (Some(b), Some(c)) if b == c => {
            println!(
                "wall-clock (min_ns, limit +{:.0}%{}):",
                cli.max_slowdown * 100.0,
                if cli.wall_advisory { ", advisory" } else { "" }
            );
            if cli.wall_advisory {
                Gate::Advisory
            } else {
                Gate::Hard
            }
        }
        (b, c) => {
            let show = |n: Option<f64>| n.map_or_else(|| "missing".to_string(), |n| n.to_string());
            println!(
                "wall-clock (min_ns): not comparable, host_cores {} vs {}; not gated:",
                show(b),
                show(c)
            );
            Gate::NotComparable
        }
    };
    regressions += compare(
        "run",
        &extract(&base, "runs", &["name", "threads"], "min_ns"),
        &extract(&cur, "runs", &["name", "threads"], "min_ns"),
        cli.max_slowdown,
        wall_gate,
    );
    println!(
        "modeled cost (limit +{:.2}%):",
        cli.max_cost_increase * 100.0
    );
    regressions += compare(
        "rank_scaling",
        &extract(&base, "rank_scaling", &["name", "ranks"], "kernel_ms"),
        &extract(&cur, "rank_scaling", &["name", "ranks"], "kernel_ms"),
        cli.max_cost_increase,
        Gate::Hard,
    );
    regressions += compare(
        "stream_vs_eager",
        &extract(
            &base,
            "stream_vs_eager",
            &["name", "threads"],
            "stream_modeled_ms",
        ),
        &extract(
            &cur,
            "stream_vs_eager",
            &["name", "threads"],
            "stream_modeled_ms",
        ),
        cli.max_cost_increase,
        Gate::Hard,
    );
    for metric in ["fsm_ms", "fsm_thrash_ms"] {
        regressions += compare(
            &format!("fidelity {metric}"),
            &extract(&base, "fidelity", &["name", "target"], metric),
            &extract(&cur, "fidelity", &["name", "target"], metric),
            cli.max_cost_increase,
            Gate::Hard,
        );
    }
    if regressions > 0 {
        eprintln!("{regressions} regression(s) beyond threshold");
        ExitCode::FAILURE
    } else {
        println!("no regressions");
        ExitCode::SUCCESS
    }
}
