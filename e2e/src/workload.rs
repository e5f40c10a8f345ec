//! The four workloads and one pass over each.
//!
//! A *pass* runs every (target, app) pair of a workload once, each on a
//! fresh device. Timed passes go through the same public entry points a
//! user's figure script calls; the traced and ablation passes repeat
//! those steps by hand so that they can install probes or flip one
//! setting, and the child process checks that the traced pass models
//! exactly what the timed passes modeled.

use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use pim_baseline::ComputeModel;
use pimbench::{benchmark_by_name, BenchError, Benchmark, Params};
use pimeval::trace::chrome::ChromeTraceBuilder;
use pimeval::trace::json::{stats_to_json, stats_to_json_full};
use pimeval::{Device, DeviceConfig, PimTarget, SimStats, TimingBackend};

use crate::probe::Probe;

/// Problem-size multiplier of `--smoke` runs.
const SMOKE_SCALE: f64 = 0.01;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The whole PIMbench suite through the harness's paper-scale path
    /// (`run_suite`, one app at a time): the path behind Figs. 9–11.
    PaperFigures,
    /// Command-heavy apps on tiny objects: host time goes to
    /// `Device::issue`, alloc and free, and the pool never fans out.
    CmdStorm,
    /// Element-wise apps on a rank-sharded device: host time goes to
    /// functional execution on the pool and to copies.
    BulkSweep,
    /// Deferred issue through `CommandStream`, bank-FSM timing, tracing,
    /// metrics, and a stats-JSON plus Chrome-trace export per run.
    ObservedStream,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFigures,
        Workload::CmdStorm,
        Workload::BulkSweep,
        Workload::ObservedStream,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper-figures",
            Workload::CmdStorm => "cmd-storm",
            Workload::BulkSweep => "bulk-sweep",
            Workload::ObservedStream => "observed-stream",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn targets(self) -> &'static [PimTarget] {
        match self {
            Workload::ObservedStream => &[PimTarget::Fulcrum, PimTarget::BitSerial],
            _ => &PimTarget::ALL,
        }
    }

    /// The apps of one pass, in run order. The first entry is the
    /// cheapest, which is the one `--smoke` runs.
    fn apps(self) -> Vec<&'static str> {
        match self {
            // Table I order, which is also `run_suite`'s; Vector
            // Addition leads it.
            Workload::PaperFigures => pimbench::all_benchmarks()
                .iter()
                .map(|b| b.spec().name)
                .collect(),
            Workload::CmdStorm => vec![
                "Triangle Count",
                "GEMM",
                "VGG-13",
                "AES-Encryption",
                "AES-Decryption",
            ],
            Workload::BulkSweep => vec![
                "Vector Addition",
                "AXPY",
                "Brightness",
                "Linear Regression",
                "Filter-By-Key",
                "Histogram",
                "Radix Sort",
            ],
            Workload::ObservedStream => vec!["AXPY", "K-means", "GEMV", "VGG-13", "AES-Encryption"],
        }
    }

    fn scale(self) -> f64 {
        match self {
            Workload::PaperFigures => 0.05,
            Workload::CmdStorm => 0.25,
            // Short runs with a working set of a few megabytes: many
            // timed repetitions per run, little exposure to other
            // tenants' memory traffic.
            Workload::BulkSweep => 0.25,
            Workload::ObservedStream => 0.25,
        }
    }

    /// True when the workload itself traces, records metrics, and
    /// exports after every run.
    pub fn observed(self) -> bool {
        self == Workload::ObservedStream
    }

    /// True when the workload prices through the bank-FSM timing
    /// backend rather than the analytical one.
    pub fn uses_fsm(self) -> bool {
        self == Workload::ObservedStream
    }

    /// The device configuration before any paper decimation.
    fn config(self, target: PimTarget) -> DeviceConfig {
        let config = match self {
            Workload::PaperFigures => DeviceConfig::new(target, 32),
            Workload::CmdStorm => DeviceConfig::new(target, 4),
            Workload::BulkSweep | Workload::ObservedStream => {
                DeviceConfig::new(target, 4).sharded_per_rank()
            }
        };
        if self.uses_fsm() {
            config.with_timing_backend(TimingBackend::BankFsm)
        } else {
            config
        }
    }
}

/// A workload resolved for one seed and mode.
#[derive(Debug)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Run parameters handed to every app.
    pub params: Params,
    targets: Vec<PimTarget>,
    apps: Vec<&'static str>,
}

impl Spec {
    /// The full workload, or with `smoke` its cheapest app on its first
    /// target at a tiny scale.
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Spec {
        let mut targets = workload.targets().to_vec();
        let mut apps = workload.apps();
        if smoke {
            targets.truncate(1);
            apps.truncate(1);
        }
        Spec {
            workload,
            params: Params {
                scale: if smoke { SMOKE_SCALE } else { workload.scale() },
                seed,
                stream: workload == Workload::ObservedStream,
            },
            targets,
            apps,
        }
    }

    /// Runs per pass.
    pub fn runs(&self) -> usize {
        self.targets.len() * self.apps.len()
    }
}

/// One setting flipped against the workload's own configuration, for
/// the one-pass ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flip {
    /// Tracing into the built-in recorder.
    pub trace: bool,
    /// The metrics registry (with its utilization profile).
    pub metrics: bool,
    /// Analytical versus bank-FSM timing.
    pub fsm: bool,
}

/// What the simulator modeled for one run.
#[derive(Debug)]
pub struct Modeled {
    /// The app's own verification against its host reference.
    pub verified: bool,
    /// PIM commands issued (sum of `SimStats::cmds[*].count`).
    pub cmds: u64,
    /// `SimStats::total_time_ms()`.
    pub time_ms: f64,
    /// `SimStats::total_energy_mj()`.
    pub energy_mj: f64,
    /// The run's statistics.
    pub stats: SimStats,
    /// The stats JSON of the run, compared exactly between passes.
    pub stats_json: String,
}

impl Modeled {
    fn new(stats: SimStats, config: &DeviceConfig, verified: bool) -> Modeled {
        Modeled {
            verified,
            cmds: stats.cmds.values().map(|c| c.count).sum(),
            time_ms: stats.total_time_ms(),
            energy_mj: stats.total_energy_mj(config),
            stats_json: stats_to_json(&stats, config),
            stats,
        }
    }

    /// True when two runs modeled bit-identical results.
    pub fn same_as(&self, other: &Modeled) -> bool {
        self.verified == other.verified && self.stats_json == other.stats_json
    }
}

/// One (target, app) run of a pass.
#[derive(Debug)]
pub struct RunRecord {
    /// `<target>/<app>`.
    pub key: String,
    /// The modeled result, or the error or panic that ended the run.
    pub outcome: Result<Modeled, String>,
    /// Host seconds of the run, without probe-only work.
    pub wall_s: f64,
    /// CPU seconds of the whole process during the run.
    pub cpu_s: f64,
}

/// One pass over a workload.
#[derive(Debug)]
pub struct Pass {
    /// True when every run of the workload ran.
    pub complete: bool,
    /// Host seconds, without probe-only work.
    pub wall_s: f64,
    /// User plus system CPU seconds of the whole process.
    pub cpu_s: f64,
    /// Every run, targets outermost, in app order.
    pub records: Vec<RunRecord>,
}

/// Runs one pass, timing every run. Timed passes (`flip` none, probe
/// off) take the public entry points; any other pass runs each app by
/// hand. Once `until` has passed no further run starts, which leaves
/// the pass incomplete.
pub fn run_pass(spec: &Spec, flip: Flip, probe: &mut Probe, until: Option<Instant>) -> Pass {
    let pass_cpu0 = cpu_seconds();
    let pass_excluded0 = probe.excluded_s();
    let pass_t0 = Instant::now();
    let mut records = Vec::with_capacity(spec.runs());
    let plain_paper =
        spec.workload == Workload::PaperFigures && flip == Flip::default() && !probe.is_on();
    'runs: for &target in &spec.targets {
        for app in &spec.apps {
            if until.is_some_and(|t| Instant::now() >= t) {
                break 'runs;
            }
            let (cpu0, excluded0, t0) = (cpu_seconds(), probe.excluded_s(), Instant::now());
            let outcome = if plain_paper {
                catch(|| paper_via_harness(spec, target, app))
            } else {
                catch(|| run_app(spec, target, app, flip, probe))
            };
            records.push(RunRecord {
                key: format!("{target}/{app}"),
                outcome,
                wall_s: t0.elapsed().as_secs_f64() - (probe.excluded_s() - excluded0),
                cpu_s: cpu_seconds() - cpu0,
            });
        }
    }
    Pass {
        complete: records.len() == spec.runs(),
        wall_s: pass_t0.elapsed().as_secs_f64() - (probe.excluded_s() - pass_excluded0),
        cpu_s: cpu_seconds() - pass_cpu0,
        records,
    }
}

/// One `paper-figures` run as the figure binaries run it:
/// `pim_bench_harness::run_one`, the per-app step of `run_suite`, which
/// decimates the device, runs, and scales the stats back to paper size.
fn paper_via_harness(spec: &Spec, target: PimTarget, app: &str) -> Result<Modeled, String> {
    let config = spec.workload.config(target);
    let r = pim_bench_harness::run_one(app, &config, &spec.params);
    Ok(Modeled::new(r.stats, &r.config, true))
}

/// One app on a fresh device. For `paper-figures` this repeats the
/// harness's public steps (`paper_factor`, `serial_factor`,
/// `with_decimation`, `Device::new`, `run`, rescaling, baselines).
fn run_app(
    spec: &Spec,
    target: PimTarget,
    app: &str,
    flip: Flip,
    probe: &mut Probe,
) -> Result<Modeled, String> {
    let bench = benchmark_by_name(app).ok_or_else(|| format!("unknown app {app}"))?;
    let bench = bench.as_ref();
    let params = &spec.params;
    let workload = spec.workload;
    let mut config = workload.config(target);
    if flip.fsm {
        let backend = config.timing_backend;
        config = config.with_timing_backend(match backend {
            TimingBackend::Analytical => TimingBackend::BankFsm,
            TimingBackend::BankFsm => TimingBackend::Analytical,
        });
    }
    let paper = (workload == Workload::PaperFigures).then(|| {
        let factor = bench.paper_factor(params).max(1.0);
        let serial = bench.serial_factor(params).clamp(1.0, factor);
        (factor, serial)
    });
    if let Some((factor, serial)) = paper {
        config = config.with_decimation((factor / serial).max(1.0).round() as u64);
    }
    let observed = workload.observed();
    let mut dev = probe
        .span("setup.device_new_s", || Device::new(config))
        .map_err(|e| e.to_string())?;
    let traced = observed != flip.trace;
    probe.attach(&mut dev, traced, params.stream);
    if observed != flip.metrics {
        dev.enable_metrics(true);
    }
    let outcome = probe.run(|| bench.run(&mut dev, params));
    let outcome = outcome.map_err(|e: BenchError| e.to_string())?;
    let mut stats = outcome.stats;
    if let Some((factor, serial)) = paper {
        stats.scale_kernel_and_copies(serial);
        stats.host_time_ms *= factor;
        probe.span("baseline.profile_s", || baselines(bench, params, factor));
    } else if probe.is_on() {
        // Not part of the workload: what the roofline baseline of the
        // same app would cost.
        probe.excluded("baseline.profile_s", || baselines(bench, params, 1.0));
    }
    if observed || probe.is_on() {
        export(&mut dev, probe, app, !observed);
    }
    Ok(Modeled::new(stats, dev.config(), outcome.verified))
}

/// The CPU and GPU roofline baselines of the app, scaled to paper size.
fn baselines(bench: &dyn Benchmark, params: &Params, factor: f64) {
    let (cpu, gpu) = (ComputeModel::epyc_9124(), ComputeModel::a100());
    let (cp, gp) = (bench.cpu_profile(params), bench.gpu_profile(params));
    black_box([
        cpu.runtime_ms(&cp) * factor,
        gpu.runtime_ms(&gp) * factor,
        cpu.energy_mj(&cp) * factor,
        gpu.energy_mj(&gp) * factor,
    ]);
}

/// Renders the stats JSON of the run in memory, plus its metrics
/// snapshot and Chrome trace where metrics and tracing are on.
/// `probe_only` marks work the workload itself does not do, whose time
/// the pass excludes.
fn export(dev: &mut Device, probe: &mut Probe, label: &str, probe_only: bool) {
    let snapshot = if dev.metrics_enabled() {
        probe.timed(probe_only, "export.metrics_snapshot_s", || {
            dev.metrics_snapshot()
        })
    } else {
        None
    };
    let stats_json = probe.timed(probe_only, "export.stats_json_s", || {
        stats_to_json_full(
            dev.stats(),
            dev.config(),
            snapshot.as_ref(),
            dev.trace_dropped(),
        )
    });
    let events = probe.take_events(dev);
    if events.is_empty() {
        black_box(stats_json.len());
        return;
    }
    let chrome = probe.timed(probe_only, "export.chrome_s", || {
        let mut b = ChromeTraceBuilder::new();
        b.add_run(label, &events);
        if let Some(s) = &snapshot {
            b.add_counter_tracks(label, s);
        }
        b.finish()
    });
    black_box((stats_json.len(), chrome.len()));
}

/// Runs `f`, turning a panic into an error message.
fn catch<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(format!("panic: {msg}"))
    })
}

/// User plus system CPU seconds of this process so far, all threads
/// together, from `CLOCK_PROCESS_CPUTIME_ID` (nanosecond resolution, so
/// single runs of a few milliseconds can be timed); 0 where unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_seconds() -> f64 {
    /// `struct timespec` on 64-bit Linux: `time_t` and `long` are both
    /// 64 bits wide.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which std already
    // links; it only writes one `struct timespec` through `tp`, which
    // points to a live local whose layout matches that struct on this
    // target (see `Timespec`).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// No process CPU clock is read on other targets.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_seconds() -> f64 {
    0.0
}

/// Peak resident set size of this process (`VmHWM`) in MiB; 0 where
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
