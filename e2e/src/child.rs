//! One workload in its own process: the cold pass, the timed passes,
//! and the traced pass with its ablations.
//!
//! The child prints `COLD` once its first pass ends (the parent stamps
//! set-up time on that line) and `RESULT <json>` last.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pimeval::exec;
use pimeval::pim_microcode::MicroProgram;
use pimeval::trace::json::Json;
use pimeval::{OpCategory, SimStats};

use crate::probe::Probe;
use crate::reference::{set_name, Entry, Reference, Set};
use crate::report::{median, obj, ratio, render};
use crate::workload::{peak_rss_mb, run_pass, Flip, Modeled, Pass, Spec, Workload};

/// What the parent asks a child to do.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: u64,
    /// Run the traced pass and the ablations.
    pub trace: bool,
    /// `--smoke` configuration, one pass.
    pub smoke: bool,
    /// Stop after the cold pass (set-up samples and `--bless`).
    pub cold_only: bool,
    /// The reference file.
    pub reference: PathBuf,
}

/// Fan-out width of every child: at most two threads, never more than
/// the host has cores.
pub fn threads() -> usize {
    host_cores().min(2)
}

/// Cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-layer metrics as `(name, value, unit)`.
type Layers = Vec<(String, f64, &'static str)>;

/// Runs the child and prints its result.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let threads = threads();
    exec::set_thread_count(Some(threads));
    let spec = Spec::new(args.workload, args.seed, args.smoke);
    let generated0 = MicroProgram::generated_count();
    let cold = run_pass(&spec, Flip::default(), &mut Probe::off(), None);
    let generated_cold = MicroProgram::generated_count() - generated0;
    let mut out = std::io::stdout().lock();
    let io = |e: std::io::Error| e.to_string();
    writeln!(out, "COLD")
        .and_then(|()| out.flush())
        .map_err(io)?;
    let nums = |xs: &[f64]| Json::Arr(xs.iter().copied().map(Json::Num).collect());
    // The cold pass's seconds and those of each of its runs, from which
    // the parent composes set-up time.
    let cold_runs: Vec<f64> = cold.records.iter().map(|r| r.wall_s).collect();
    let cold_timing = [
        ("cold_pass_s".to_string(), Json::Num(cold.wall_s)),
        ("cold_run_s".to_string(), nums(&cold_runs)),
    ];

    if args.cold_only {
        // What `--bless` records.
        let entries = cold.records.iter().filter_map(|r| {
            r.outcome
                .as_ref()
                .ok()
                .map(|m| (r.key.clone(), Entry::of(m).to_json()))
        });
        let mut result = BTreeMap::from([("records".to_string(), obj(entries))]);
        result.extend(cold_timing);
        return writeln!(out, "RESULT {}", render(&Json::Obj(result))).map_err(io);
    }

    let reference = Reference::load(&args.reference)?;
    let set_key = set_name(args.smoke, args.workload.name(), args.seed);
    let blessed = reference.set(&set_key);
    let mut checks = Checks::default();
    checks.check("cold", &cold, None, blessed);

    // The smoke run's one timed pass is its cold pass.
    let mut timed = Timed::default();
    let generated1 = MicroProgram::generated_count();
    if args.smoke {
        timed.add(&cold);
    } else {
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        loop {
            // The first timed pass always completes, so every run has a
            // time; later ones stop at the deadline.
            let until = (!timed.fastest.is_empty()).then_some(deadline);
            let pass = run_pass(&spec, Flip::default(), &mut Probe::off(), until);
            checks.check("timed", &pass, Some(&cold), None);
            timed.add(&pass);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    let generated_timed = MicroProgram::generated_count() - generated1;
    let peak_rss = peak_rss_mb();

    let modeled = || cold.records.iter().filter_map(|r| r.outcome.as_ref().ok());
    let wall: Vec<f64> = timed.passes.iter().map(|t| t.0).collect();
    let cpu: Vec<f64> = timed.passes.iter().map(|t| t.1).collect();
    let fastest_wall: f64 = timed.fastest.iter().map(|t| t.0).sum();
    let fastest_cpu: f64 = timed.fastest.iter().map(|t| t.1).sum();
    let reference_note = match blessed {
        Some(_) => format!("checked against {set_key}"),
        None => format!("no set {set_key}: checked app verification and repeatability only"),
    };
    let mut result = BTreeMap::from([
        ("runs_per_pass".to_string(), Json::Num(spec.runs() as f64)),
        (
            "cmds_per_pass".into(),
            Json::Num(modeled().map(|m| m.cmds as f64).sum()),
        ),
        (
            "modeled_ms".into(),
            Json::Num(modeled().map(|m| m.time_ms).sum()),
        ),
        ("reference".into(), Json::Str(reference_note)),
        ("wall_s".into(), nums(&wall)),
        ("cpu_s".into(), nums(&cpu)),
        ("fastest_wall_s".into(), Json::Num(fastest_wall)),
        ("fastest_cpu_s".into(), Json::Num(fastest_cpu)),
        ("peak_rss_mb".into(), Json::Num(peak_rss)),
    ]);
    result.extend(cold_timing);

    if args.trace {
        let (mut layers, traced_matches) =
            traced_layers(&spec, &cold, &mut checks, median(&wall), threads);
        layers.push((
            "microcode.programs_generated.cold".into(),
            generated_cold as f64,
            "count",
        ));
        layers.push((
            "microcode.programs_generated.timed".into(),
            generated_timed as f64,
            "count",
        ));
        result.insert("traced_matches_untraced".into(), Json::Bool(traced_matches));
        let layers = layers.into_iter().map(|(name, value, unit)| {
            let metric = obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]);
            (name, metric)
        });
        result.insert("layers".into(), obj(layers));
    }
    result.extend([
        ("attempted".to_string(), Json::Num(checks.attempted as f64)),
        ("failed".into(), Json::Num(checks.failed as f64)),
        (
            "failures".into(),
            Json::Arr(checks.failures.into_iter().map(Json::Str).collect()),
        ),
    ]);
    writeln!(out, "RESULT {}", render(&Json::Obj(result))).map_err(io)
}

/// Host and CPU time of the timed passes.
#[derive(Debug, Default)]
struct Timed {
    /// `(wall, cpu)` seconds of each pass.
    passes: Vec<(f64, f64)>,
    /// The fastest `(wall, cpu)` seconds of each run over the passes.
    fastest: Vec<(f64, f64)>,
}

impl Timed {
    fn add(&mut self, pass: &Pass) {
        if pass.complete {
            self.passes.push((pass.wall_s, pass.cpu_s));
        }
        if self.fastest.is_empty() {
            self.fastest = vec![(f64::INFINITY, f64::INFINITY); pass.records.len()];
        }
        for (fastest, run) in self.fastest.iter_mut().zip(&pass.records) {
            fastest.0 = fastest.0.min(run.wall_s);
            fastest.1 = fastest.1.min(run.cpu_s);
        }
    }
}

/// Failure accounting over every checked run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// The first few failure messages.
    failures: Vec<String>,
}

impl Checks {
    /// Counts every run of `pass`. A run fails on an error or panic, a
    /// failed app verification, a result that differs from the same run
    /// of `expect`, or a mismatch with the blessed `reference` set.
    /// Returns true when no run failed.
    fn check(
        &mut self,
        label: &str,
        pass: &Pass,
        expect: Option<&Pass>,
        reference: Option<&Set>,
    ) -> bool {
        let before = self.failed;
        for (i, run) in pass.records.iter().enumerate() {
            self.attempted += 1;
            let why = match &run.outcome {
                Err(e) => Some(e.clone()),
                Ok(m) if !m.verified => Some("not verified".into()),
                Ok(m) => {
                    let differs = expect.and_then(|p| p.records.get(i)).and_then(|e| {
                        let same =
                            e.key == run.key && e.outcome.as_ref().is_ok_and(|em| em.same_as(m));
                        (!same).then(|| "modeled stats differ from the cold pass".to_string())
                    });
                    let mismatch = reference.and_then(|set| match set.get(&run.key) {
                        None => Some("no reference entry".to_string()),
                        Some(want) => Entry::of(m).mismatch(want),
                    });
                    differs.or(mismatch)
                }
            };
            if let Some(why) = why {
                self.failed += 1;
                if self.failures.len() < 20 {
                    self.failures
                        .push(format!("{label} pass, {}: {why}", run.key));
                }
            }
        }
        self.failed == before
    }
}

/// The traced pass, then one ablation pass per flipped setting, reduced
/// to per-layer metrics; also whether every traced run modeled exactly
/// what the cold pass modeled.
fn traced_layers(
    spec: &Spec,
    cold: &Pass,
    checks: &mut Checks,
    untraced: f64,
    threads: usize,
) -> (Layers, bool) {
    let mut probe = Probe::traced();
    exec::pool::reset();
    exec::pool::enable();
    let traced = run_pass(spec, Flip::default(), &mut probe, None);
    exec::pool::disable();
    let pool = exec::pool::snapshot();
    let traced_matches = checks.check("traced", &traced, Some(cold), None);

    let mut ablate = |flip: Flip, label: &str| {
        let mut p = Probe::spans();
        let pass = run_pass(spec, flip, &mut p, None);
        checks.check(label, &pass, None, None);
        (pass.wall_s, p)
    };
    let (trace_wall, trace_probe) = ablate(
        Flip {
            trace: true,
            ..Flip::default()
        },
        "trace-ablation",
    );
    let (metrics_wall, metrics_probe) = ablate(
        Flip {
            metrics: true,
            ..Flip::default()
        },
        "metrics-ablation",
    );
    let (fsm_wall, _) = ablate(
        Flip {
            fsm: true,
            ..Flip::default()
        },
        "fsm-ablation",
    );
    let observed = spec.workload.observed();
    // Each ablation is "with the setting" minus "without it"; the timed
    // passes ran the workload's own setting.
    let with_minus_without = |flipped: f64, on_in_workload: bool| {
        if on_in_workload {
            untraced - flipped
        } else {
            flipped - untraced
        }
    };
    // Exports are measured where the workload has them on: in the
    // traced pass for `observed-stream`, else in the ablation pass that
    // turns tracing or metrics on.
    let (chrome_probe, snapshot_probe) = if observed {
        (&probe, &probe)
    } else {
        (&trace_probe, &metrics_probe)
    };
    let sum = |f: fn(&SimStats) -> u64| -> f64 {
        let modeled = traced
            .records
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok());
        modeled.map(|m: &Modeled| f(&m.stats)).sum::<u64>() as f64
    };
    let run_s = probe.span_s("pimbench.run_s");
    let busy_s = pool.workers.iter().map(|w| w.busy_ns).sum::<u128>() as f64 * 1e-9;
    let wait_s = pool.caller_wait_ns as f64 * 1e-9;
    let (hits, misses) = (
        sum(|s| s.dram_protocol.row_hits),
        sum(|s| s.dram_protocol.row_misses),
    );

    let mut layers = Layers::new();
    let mut m =
        |name: &str, value: f64, unit: &'static str| layers.push((name.into(), value, unit));
    m("pimbench.run_s", run_s, "s");
    m("pimbench.host_s", probe.span_s("pimbench.host_s"), "s");
    m(
        "setup.device_new_s",
        probe.span_s("setup.device_new_s"),
        "s",
    );
    m(
        "baseline.profile_s",
        probe.span_s("baseline.profile_s"),
        "s",
    );
    probe.with_stamps(|st| {
        m("device.cmd_s", st.cmd.s, "s");
        m("device.cmds", st.cmd.n as f64, "count");
        m(
            "device.us_per_cmd",
            ratio(st.cmd.s * 1e6, st.cmd.n as f64),
            "us",
        );
        for cat in OpCategory::ALL {
            let b = st
                .cmd_by_category
                .get(cat.label())
                .copied()
                .unwrap_or_default();
            m(&format!("device.cmd_s.{}", cat.label()), b.s, "s");
        }
        for (i, dir) in ["h2d", "d2h", "d2d"].into_iter().enumerate() {
            m(&format!("device.copy_s.{dir}"), st.copy[i].s, "s");
            if i < 2 {
                let gbps = ratio(st.copy_bytes[i] as f64 * 1e-9, st.copy[i].s);
                m(&format!("device.copy_gbps.{dir}"), gbps, "GB/s");
            }
        }
        m("device.alloc_s", st.alloc.s, "s");
        m("device.allocs", st.alloc.n as f64, "count");
        m("device.free_s", st.free.s, "s");
        m("device.frees", st.free.n as f64, "count");
        m("device.host_phase_s", st.host_phase.s, "s");
        m("system.interconnect_s", st.interconnect.s, "s");
        m("stream.marker_s", st.flush_marker.s, "s");
        m("stream.flush_s", st.flush_s, "s");
        m("stream.flush_share", ratio(st.flush_s, run_s), "ratio");
        m("trace.events", st.events as f64, "count");
        m("trace.dropped", st.dropped as f64, "count");
        m("trace.covered_s", st.covered_s(), "s");
    });
    m(
        "stream.recorded",
        sum(|s| s.fusion.recorded_commands),
        "count",
    );
    m(
        "stream.executed",
        sum(|s| s.fusion.executed_commands),
        "count",
    );
    m(
        "stream.fused",
        sum(|s| s.fusion.fused_scaled_add + s.fusion.fused_cmp_select),
        "count",
    );
    m("stream.cse_hits", sum(|s| s.optimizer.cse_hits), "count");
    m(
        "stream.batched_sweeps",
        sum(|s| s.fusion.batched_sweeps),
        "count",
    );
    m("exec.busy_s", busy_s, "s");
    m("exec.caller_wait_s", wait_s, "s");
    m("exec.fanouts", pool.fanouts as f64, "count");
    m("exec.sequential_runs", pool.sequential_runs as f64, "count");
    m(
        "exec.chunks",
        pool.workers.iter().map(|w| w.chunks).sum::<u64>() as f64,
        "count",
    );
    m(
        "exec.utilization",
        ratio(busy_s, traced.wall_s * threads as f64),
        "ratio",
    );
    m("exec.wait_share", ratio(wait_s, traced.wall_s), "ratio");
    m(
        "system.interconnect_bytes",
        sum(|s| s.interconnect.total_bytes()),
        "bytes",
    );
    m(
        "system.interconnect_transfers",
        sum(|s| s.interconnect.transfers),
        "count",
    );
    m("dram.row_hits", hits, "count");
    m("dram.row_misses", misses, "count");
    m("dram.row_hit_rate", ratio(hits, hits + misses), "ratio");
    m(
        "export.stats_json_s",
        probe.span_s("export.stats_json_s"),
        "s",
    );
    m(
        "export.chrome_s",
        chrome_probe.span_s("export.chrome_s"),
        "s",
    );
    m(
        "export.metrics_snapshot_s",
        snapshot_probe.span_s("export.metrics_snapshot_s"),
        "s",
    );
    m(
        "trace.probe_overhead",
        ratio(traced.wall_s, untraced),
        "ratio",
    );
    m(
        "ablate.trace_s",
        with_minus_without(trace_wall, observed),
        "s",
    );
    m(
        "ablate.metrics_s",
        with_minus_without(metrics_wall, observed),
        "s",
    );
    m(
        "ablate.fsm_s",
        with_minus_without(fsm_wall, spec.workload.uses_fsm()),
        "s",
    );
    (layers, traced_matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RunRecord;

    /// A pass whose runs took `(wall, cpu)` seconds.
    fn pass(times: &[(f64, f64)], complete: bool) -> Pass {
        let records = times
            .iter()
            .enumerate()
            .map(|(i, &(wall_s, cpu_s))| RunRecord {
                key: format!("run {i}"),
                outcome: Err("not run".into()),
                wall_s,
                cpu_s,
            });
        Pass {
            complete,
            wall_s: times.iter().map(|t| t.0).sum(),
            cpu_s: times.iter().map(|t| t.1).sum(),
            records: records.collect(),
        }
    }

    #[test]
    fn timed_keeps_every_runs_fastest_repetition_and_only_whole_passes() {
        let mut timed = Timed::default();
        timed.add(&pass(&[(2.0, 2.5), (1.0, 1.0)], true));
        // The deadline cut this pass short after its first run.
        timed.add(&pass(&[(1.5, 3.0)], false));
        timed.add(&pass(&[(3.0, 2.0), (0.5, 1.5)], true));
        assert_eq!(timed.fastest, [(1.5, 2.0), (0.5, 1.0)]);
        assert_eq!(timed.passes, [(3.0, 3.5), (3.5, 3.5)]);
    }
}
