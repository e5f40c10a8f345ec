//! Std-only structural validator for the JSON documents this workspace
//! exports, used by CI before artifacts are uploaded.
//!
//! ```text
//! schema_check [--stats <file>] [--metrics <file>]
//!              [--bench <file>] [--trace <file>]
//! ```
//!
//! Each flag names a document kind and checks the keys and types that
//! downstream consumers (plot scripts, `bench_regress`, Perfetto) rely
//! on. Unknown fields are always permitted — schemas grow additively —
//! but a missing required key, a wrong type, or an undeclared-newer
//! `schema_version` fails the check. Exit codes: 0 all valid, 1 at
//! least one violation, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use pimeval::metrics::METRICS_SCHEMA_VERSION;
use pimeval::trace::json::{Json, STATS_SCHEMA_VERSION};

/// Accumulates violations with a document-relative path for each.
struct Checker {
    doc: String,
    errors: Vec<String>,
}

impl Checker {
    fn new(doc: &str) -> Self {
        Checker {
            doc: doc.to_string(),
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, path: &str, what: &str) {
        self.errors.push(format!("{}: {path}: {what}", self.doc));
    }

    fn require_num(&mut self, v: &Json, path: &str, key: &str) -> Option<f64> {
        match v.get(key).and_then(Json::as_f64) {
            Some(n) => Some(n),
            None => {
                self.fail(path, &format!("missing or non-numeric \"{key}\""));
                None
            }
        }
    }

    /// Requires a numeric `schema_version` no newer than `newest`.
    fn require_version(&mut self, v: &Json, path: &str, newest: u32) {
        if let Some(n) = self.require_num(v, path, "schema_version") {
            if n > f64::from(newest) {
                self.fail(path, &format!("schema_version {n} is newer than {newest}"));
            }
        }
    }

    fn require_str(&mut self, v: &Json, path: &str, key: &str) {
        if v.get(key).and_then(Json::as_str).is_none() {
            self.fail(path, &format!("missing or non-string \"{key}\""));
        }
    }

    fn require_array<'a>(&mut self, v: &'a Json, path: &str, key: &str) -> Option<&'a [Json]> {
        match v.get(key).and_then(Json::as_array) {
            Some(a) => Some(a),
            None => {
                self.fail(path, &format!("missing or non-array \"{key}\""));
                None
            }
        }
    }

    fn require_object<'a>(&mut self, v: &'a Json, path: &str, key: &str) -> Option<&'a Json> {
        match v.get(key) {
            Some(o) if o.as_object().is_some() => Some(o),
            _ => {
                self.fail(path, &format!("missing or non-object \"{key}\""));
                None
            }
        }
    }
}

/// One histogram snapshot: count plus the quantile summary.
fn check_histogram(c: &mut Checker, h: &Json, path: &str) {
    for key in ["count", "sum", "min", "max", "p50", "p90", "p99"] {
        c.require_num(h, path, key);
    }
}

/// One `InstrumentsSnapshot`: counters/gauges numeric maps, histogram
/// map of quantile summaries.
fn check_instruments(c: &mut Checker, v: &Json, path: &str) {
    for section in ["counters", "gauges"] {
        if let Some(obj) = c.require_object(v, path, section) {
            for (k, val) in obj.as_object().expect("checked above") {
                if val.as_f64().is_none() {
                    c.fail(&format!("{path}.{section}.{k}"), "non-numeric value");
                }
            }
        }
    }
    if let Some(hists) = c.require_object(v, path, "histograms") {
        for (k, h) in hists.as_object().expect("checked above") {
            check_histogram(c, h, &format!("{path}.histograms.{k}"));
        }
    }
}

/// One `MetricsSnapshot` object as produced by `MetricsSnapshot::to_json`.
fn check_metrics_snapshot(c: &mut Checker, m: &Json, path: &str) {
    c.require_version(m, path, METRICS_SCHEMA_VERSION);
    c.require_num(m, path, "clock_ms");
    if let Some(agg) = c.require_object(m, path, "aggregate") {
        check_instruments(c, agg, &format!("{path}.aggregate"));
    }
    if let Some(shards) = c.require_array(m, path, "per_shard") {
        for (i, s) in shards.iter().enumerate() {
            check_instruments(c, s, &format!("{path}.per_shard[{i}]"));
        }
    }
    // profile is optional (present only under --profile).
    if let Some(p) = m.get("profile") {
        let ppath = format!("{path}.profile");
        c.require_num(p, &ppath, "bin_ms");
        let bins = c.require_num(p, &ppath, "bins").map(|b| b as usize);
        if let Some(rows) = c.require_array(p, &ppath, "shard_busy") {
            for (i, row) in rows.iter().enumerate() {
                match row.as_array() {
                    Some(r) if Some(r.len()) == bins || bins.is_none() => {}
                    Some(r) => c.fail(
                        &format!("{ppath}.shard_busy[{i}]"),
                        &format!("{} bins, expected {}", r.len(), bins.unwrap_or(0)),
                    ),
                    None => c.fail(&format!("{ppath}.shard_busy[{i}]"), "not an array"),
                }
            }
        }
        c.require_array(p, &ppath, "interconnect_bytes");
    }
}

/// `pimbench --stats-json` document: per-run Listing-3 statistics.
fn check_stats(c: &mut Checker, doc: &Json) {
    let Some(runs) = c.require_array(doc, "$", "runs") else {
        return;
    };
    for (i, run) in runs.iter().enumerate() {
        let path = format!("runs[{i}]");
        c.require_str(run, &path, "benchmark");
        let Some(stats) = c.require_object(run, &path, "stats") else {
            continue;
        };
        let spath = format!("{path}.stats");
        c.require_version(stats, &spath, STATS_SCHEMA_VERSION);
        c.require_str(stats, &spath, "target");
        if let Some(totals) = c.require_object(stats, &spath, "totals") {
            c.require_num(totals, &format!("{spath}.totals"), "kernel_time_ms");
        }
        if let Some(m) = stats.get("metrics") {
            check_metrics_snapshot(c, m, &format!("{spath}.metrics"));
        }
        // dram_protocol is optional (present only under the bank-FSM
        // timing backend), but when present it must carry the counters.
        if let Some(dp) = stats.get("dram_protocol") {
            let dpath = format!("{spath}.dram_protocol");
            for key in [
                "activations",
                "precharges",
                "reads",
                "writes",
                "row_hits",
                "row_misses",
                "row_hit_rate",
            ] {
                c.require_num(dp, &dpath, key);
            }
        }
        // optimizer is optional (present only when a stream flush found
        // a common subexpression), but when present it must carry the
        // counter.
        if let Some(opt) = stats.get("optimizer") {
            c.require_num(opt, &format!("{spath}.optimizer"), "cse_hits");
        }
    }
}

/// `pimbench --metrics-json` document: one snapshot per run plus the
/// optional wall-clock pool section.
fn check_metrics(c: &mut Checker, doc: &Json) {
    c.require_version(doc, "$", METRICS_SCHEMA_VERSION);
    let Some(runs) = c.require_array(doc, "$", "runs") else {
        return;
    };
    for (i, run) in runs.iter().enumerate() {
        let path = format!("runs[{i}]");
        c.require_str(run, &path, "benchmark");
        c.require_str(run, &path, "target");
        if let Some(m) = c.require_object(run, &path, "metrics") {
            check_metrics_snapshot(c, m, &format!("{path}.metrics"));
        }
    }
    if let Some(pool) = doc.get("pool") {
        for key in ["fanouts", "sequential_runs", "caller_wait_ns"] {
            c.require_num(pool, "pool", key);
        }
        c.require_array(pool, "pool", "workers");
    }
}

/// `bench_parallel` export (`BENCH_parallel.json`).
fn check_bench(c: &mut Checker, doc: &Json) {
    c.require_num(doc, "$", "threads_default");
    // host_cores is optional (older exports lack it); when present it
    // is a positive count and bounds every speedup's thread count.
    if doc.get("host_cores").is_some() {
        if let Some(cores) = c.require_num(doc, "$", "host_cores") {
            if cores < 1.0 {
                c.fail("$", "\"host_cores\" must be at least 1");
            }
            let speedups = doc.get("speedups").and_then(Json::as_array).unwrap_or(&[]);
            for (i, e) in speedups.iter().enumerate() {
                let path = format!("speedups[{i}]");
                if c.require_num(e, &path, "threads")
                    .is_some_and(|t| t > cores)
                {
                    c.fail(&path, "thread count exceeds \"host_cores\"");
                }
            }
        }
    }
    if let Some(runs) = c.require_array(doc, "$", "runs") {
        for (i, run) in runs.iter().enumerate() {
            let path = format!("runs[{i}]");
            c.require_str(run, &path, "name");
            for key in ["threads", "mean_ns", "min_ns"] {
                c.require_num(run, &path, key);
            }
        }
    }
    if let Some(entries) = c.require_array(doc, "$", "rank_scaling") {
        for (i, e) in entries.iter().enumerate() {
            let path = format!("rank_scaling[{i}]");
            c.require_str(e, &path, "name");
            for key in [
                "ranks",
                "kernel_ms",
                "interconnect_ms",
                "interconnect_bytes",
            ] {
                c.require_num(e, &path, key);
            }
        }
    }
    if let Some(entries) = c.require_array(doc, "$", "fidelity") {
        for (i, e) in entries.iter().enumerate() {
            let path = format!("fidelity[{i}]");
            c.require_str(e, &path, "name");
            c.require_str(e, &path, "target");
            for key in [
                "analytical_ms",
                "fsm_ms",
                "fsm_thrash_ms",
                "delta_pct",
                "thrash_slowdown",
                "row_hits",
                "row_misses",
                "row_hit_rate",
            ] {
                c.require_num(e, &path, key);
            }
        }
    }
}

/// Chrome-trace-event JSON: every entry needs a phase, and only the
/// phases the exporter emits are accepted.
fn check_trace(c: &mut Checker, doc: &Json) {
    let Some(events) = c.require_array(doc, "$", "traceEvents") else {
        return;
    };
    for (i, e) in events.iter().enumerate() {
        match e.get("ph").and_then(Json::as_str) {
            Some("X") | Some("i") | Some("M") | Some("C") => {}
            Some(other) => c.fail(
                &format!("traceEvents[{i}]"),
                &format!("unexpected phase {other:?}"),
            ),
            None => c.fail(&format!("traceEvents[{i}]"), "missing \"ph\""),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        println!(
            "schema_check [--stats <file>] [--metrics <file>] \
             [--bench <file>] [--trace <file>]"
        );
        return if args.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let mut checks: Vec<(String, PathBuf)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            kind @ ("--stats" | "--metrics" | "--bench" | "--trace") => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("error: {kind} needs a file");
                    return ExitCode::from(2);
                };
                checks.push((
                    kind.trim_start_matches('-').to_string(),
                    PathBuf::from(path),
                ));
                i += 2;
            }
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }
    let mut errors = Vec::new();
    for (kind, path) in &checks {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                errors.push(format!("{}: not valid JSON: {e}", path.display()));
                continue;
            }
        };
        let mut c = Checker::new(&path.display().to_string());
        match kind.as_str() {
            "stats" => check_stats(&mut c, &doc),
            "metrics" => check_metrics(&mut c, &doc),
            "bench" => check_bench(&mut c, &doc),
            "trace" => check_trace(&mut c, &doc),
            _ => unreachable!("kinds are filtered during parsing"),
        }
        if c.errors.is_empty() {
            println!("{} ({kind}): ok", path.display());
        }
        errors.extend(c.errors);
    }
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("schema violation: {e}");
        }
        eprintln!("{} violation(s)", errors.len());
        ExitCode::FAILURE
    }
}
