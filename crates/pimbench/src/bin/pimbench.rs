//! PIMbench command-line runner — the Rust equivalent of the artifact's
//! per-benchmark executables and `build_run.sh`.
//!
//! ```text
//! pimbench [--bench <name>|all|extensions] [--target <t>|all]
//!          [--ranks N] [--shards N] [--timing analytical|fsm]
//!          [--scale F] [--seed S] [--threads N]
//!          [--stream] [--report] [--trace <file>] [--stats-json <file>]
//!          [--metrics-json <file>] [--profile]
//! ```
//!
//! Targets: `bitserial`, `fulcrum`, `bank`, `analog`, `upmem`, `all`
//! (the paper's three). Prints one verification/timing line per run and,
//! with `--report`, the full Listing-3 statistics block.
//!
//! `--trace <file>` writes a Chrome-trace-event JSON timeline (load it
//! at <https://ui.perfetto.dev>) with one process per (target,
//! benchmark) run; `--stats-json <file>` writes the machine-readable
//! statistics of every run. Set `PIM_LOG=info|debug|trace` for leveled
//! diagnostics on stderr.
//!
//! `--metrics-json <file>` turns on the metrics registry and writes
//! one deterministic snapshot per run (counters, gauges, latency
//! histograms with p50/p90/p99, per-shard breakdowns). `--profile`
//! additionally records the time-binned utilization profile — emitted
//! as Perfetto counter tracks when combined with `--trace`, and as a
//! `"profile"` section in the metrics JSON — plus a wall-clock
//! execution-pool `"pool"` section (the one part of the output that is
//! *not* run-to-run deterministic).
//!
//! `--threads N` pins the functional execution engine to N worker
//! threads (results are bit-identical at any count); it overrides the
//! `PIM_THREADS` environment variable, which in turn overrides the
//! host's available parallelism.
//!
//! `--timing <backend>` selects the DRAM timing model: `analytical`
//! (closed-form, the default) or `fsm` (stateful per-bank protocol
//! replay that also populates the `dram_protocol` statistics section).
//! The `PIM_TIMING` environment variable, when set, wins over the flag.
//!
//! `--stream` issues through the deferred command stream, whose flush
//! runs the dataflow optimizer (graph fusion, CSE, dead-write
//! elimination) before executing. Results are bit-identical to eager
//! issue; the optimizer's counters appear in the statistics.

use pimbench::{all_benchmarks, extension_benchmarks, Benchmark, Params};
use pimeval::metrics::METRICS_SCHEMA_VERSION;
use pimeval::trace::chrome::ChromeTraceBuilder;
use pimeval::trace::json::stats_to_json_full;
use pimeval::{pim_info, Device, DeviceConfig, PimTarget, TimingBackend};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    bench: String,
    targets: Vec<PimTarget>,
    ranks: usize,
    shards: Option<usize>,
    timing: TimingBackend,
    params: Params,
    report: bool,
    trace: Option<PathBuf>,
    stats_json: Option<PathBuf>,
    metrics_json: Option<PathBuf>,
    profile: bool,
}

fn parse_target(s: &str) -> Option<Vec<PimTarget>> {
    match s.to_ascii_lowercase().as_str() {
        "bitserial" | "bit-serial" => Some(vec![PimTarget::BitSerial]),
        "fulcrum" => Some(vec![PimTarget::Fulcrum]),
        "bank" | "bank-level" => Some(vec![PimTarget::BankLevel]),
        "analog" => Some(vec![PimTarget::AnalogBitSerial]),
        "upmem" => Some(vec![PimTarget::UpmemLike]),
        "all" => Some(PimTarget::ALL.to_vec()),
        "extended" => Some(PimTarget::EXTENDED.to_vec()),
        _ => None,
    }
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        bench: "all".into(),
        targets: PimTarget::ALL.to_vec(),
        ranks: 4,
        shards: None,
        timing: TimingBackend::default(),
        params: Params::default(),
        report: false,
        trace: None,
        stats_json: None,
        metrics_json: None,
        profile: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--bench" => {
                cli.bench = need(i)?.clone();
                i += 1;
            }
            "--target" => {
                cli.targets = parse_target(need(i)?)
                    .ok_or_else(|| format!("unknown target {}", args[i + 1]))?;
                i += 1;
            }
            "--ranks" => {
                cli.ranks = need(i)?.parse().map_err(|e| format!("--ranks: {e}"))?;
                i += 1;
            }
            "--shards" => {
                let n: usize = need(i)?.parse().map_err(|e| format!("--shards: {e}"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".into());
                }
                cli.shards = Some(n);
                i += 1;
            }
            "--timing" => {
                cli.timing = TimingBackend::parse(need(i)?)
                    .ok_or_else(|| format!("unknown timing backend {}", args[i + 1]))?;
                i += 1;
            }
            "--scale" => {
                cli.params.scale = need(i)?.parse().map_err(|e| format!("--scale: {e}"))?;
                i += 1;
            }
            "--seed" => {
                cli.params.seed = need(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--threads" => {
                let n: usize = need(i)?.parse().map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                pimeval::exec::set_thread_count(Some(n));
                i += 1;
            }
            "--stream" => cli.params.stream = true,
            "--report" => cli.report = true,
            "--trace" => {
                cli.trace = Some(PathBuf::from(need(i)?));
                i += 1;
            }
            "--stats-json" => {
                cli.stats_json = Some(PathBuf::from(need(i)?));
                i += 1;
            }
            "--metrics-json" => {
                cli.metrics_json = Some(PathBuf::from(need(i)?));
                i += 1;
            }
            "--profile" => cli.profile = true,
            "--help" | "-h" => {
                println!(
                    "pimbench --bench <name>|all|extensions --target \
                     bitserial|fulcrum|bank|analog|upmem|all|extended \
                     [--ranks N] [--shards N] [--timing analytical|fsm] \
                     [--scale F] [--seed S] [--threads N] \
                     [--stream] [--report] [--trace <file>] \
                     [--stats-json <file>] [--metrics-json <file>] \
                     [--profile]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn selected(bench: &str) -> Result<Vec<Box<dyn Benchmark>>, String> {
    match bench.to_ascii_lowercase().as_str() {
        "all" => Ok(all_benchmarks()),
        "extensions" => Ok(extension_benchmarks()),
        name => pimbench::benchmark_by_name(name)
            .map(|b| vec![b])
            .ok_or_else(|| format!("unknown benchmark '{name}' (try --bench all)")),
    }
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let benches = match selected(&cli.bench) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let want_metrics = cli.metrics_json.is_some() || cli.profile;
    if cli.profile {
        pimeval::exec::pool::enable();
    }
    let mut failures = 0usize;
    let mut chrome = ChromeTraceBuilder::new();
    let mut stats_runs: Vec<String> = Vec::new();
    let mut metrics_runs: Vec<String> = Vec::new();
    for target in &cli.targets {
        for bench in &benches {
            let mut config = DeviceConfig::new(*target, cli.ranks).with_timing_backend(cli.timing);
            if let Some(shards) = cli.shards {
                config = config.with_shards(shards);
            }
            let mut dev = match Device::new(config) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: cannot create device: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if cli.trace.is_some() {
                dev.enable_tracing();
            }
            if want_metrics {
                dev.enable_metrics(cli.profile);
            }
            match bench.run(&mut dev, &cli.params) {
                Ok(out) => {
                    let s = &out.stats;
                    println!(
                        "[{}] {:<22} VERIFIED  kernel {:>12.6} ms  copy {:>12.6} ms  host {:>12.6} ms  energy {:>12.6} mJ",
                        target,
                        bench.spec().name,
                        s.kernel_time_ms(),
                        s.copy.time_ms,
                        s.host_time_ms,
                        s.kernel_energy_mj(),
                    );
                    if cli.report {
                        println!("{}", dev.report());
                    }
                    let label = format!("{} / {}", target, bench.spec().name);
                    let snap = dev.metrics_snapshot();
                    if cli.trace.is_some() {
                        chrome.add_run(&label, &dev.take_trace());
                        if let Some(snap) = &snap {
                            chrome.add_counter_tracks(&label, snap);
                        }
                    }
                    if cli.stats_json.is_some() {
                        stats_runs.push(format!(
                            "{{\"benchmark\":{},\"stats\":{}}}",
                            pimeval::trace::json::string(bench.spec().name),
                            stats_to_json_full(s, dev.config(), snap.as_ref(), dev.trace_dropped())
                        ));
                    }
                    if cli.metrics_json.is_some() {
                        if let Some(snap) = &snap {
                            metrics_runs.push(format!(
                                "{{\"benchmark\":{},\"target\":{},\"metrics\":{}}}",
                                pimeval::trace::json::string(bench.spec().name),
                                pimeval::trace::json::string(&target.to_string()),
                                snap.to_json()
                            ));
                        }
                    }
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("[{}] {:<22} FAILED: {e}", target, bench.spec().name);
                }
            }
        }
    }
    if let Some(path) = &cli.trace {
        if let Err(e) = chrome.write_to(path) {
            eprintln!("error: cannot write trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        pim_info!("wrote Chrome trace to {}", path.display());
    }
    if let Some(path) = &cli.stats_json {
        let doc = format!("{{\"runs\":[\n{}\n]}}\n", stats_runs.join(",\n"));
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write stats {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        pim_info!("wrote stats JSON to {}", path.display());
    }
    if let Some(path) = &cli.metrics_json {
        // The wall-clock pool section is appended only under --profile
        // and is the single non-deterministic part of the document.
        let pool = if cli.profile {
            format!(",\"pool\":{}", pimeval::exec::pool::snapshot().to_json())
        } else {
            String::new()
        };
        let doc = format!(
            "{{\"schema_version\":{},\"runs\":[\n{}\n]{}}}\n",
            METRICS_SCHEMA_VERSION,
            metrics_runs.join(",\n"),
            pool
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write metrics {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        pim_info!("wrote metrics JSON to {}", path.display());
    }
    if failures > 0 {
        eprintln!("{failures} run(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
