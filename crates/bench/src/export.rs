//! Machine-readable export of figure data: serializes [`SuiteRecord`]s
//! as JSON so the tables the `src/bin/*` binaries print can also feed
//! plotting scripts. Opt in with `--stats-json <file>` on any figure
//! binary that calls [`maybe_export`].

use std::path::PathBuf;

use pimeval::trace::json::{stats_fields, JsonWriter};
use pimeval::TimingCounters;

use crate::SuiteRecord;

/// Version of the `BENCH_parallel.json` document layout written by
/// [`parallel_runs_to_json`]. Bumped only on breaking changes; additive
/// fields keep the same version, and consumers (`bench_regress`, the
/// golden-results CI diff) must tolerate fields they do not know.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Recorded in every `BENCH_parallel.json` as `"schema_note"`: rows
/// older documents carry that current ones no longer write. Consumers
/// already treat a row present on one side only as unmatched, so the
/// removal does not bump [`BENCH_SCHEMA_VERSION`].
pub const BENCH_SCHEMA_NOTE: &str = "removed: the optimizer section (stream levels 0/2 \
     are gone; kmeans-dist-reuse is a stream_vs_eager row), the vm_add32, vm_mul32 \
     and vm_red_sum32 runs (the compiled VM kernels are gone), and the imbalance and \
     fanout_overhead sections (pool-only microbenchmarks whose baselines, the \
     chunks-per-worker knob and a scoped-spawn replica, are gone)";

/// Renders a whole figure's records as `{"runs": [...]}` at depth 4:
/// each record embeds the full Listing-3 statistics plus the baseline
/// comparisons the figures plot.
pub fn records_to_json(records: &[SuiteRecord]) -> String {
    let mut w = JsonWriter::new(4);
    w.arr("runs");
    for r in records {
        w.item_obj()
            .field("benchmark", &r.name)
            .field("target", r.target.name())
            .field("pim_total_ms", r.pim_total_ms())
            .field("pim_kernel_ms", r.pim_kernel_ms())
            .field("cpu_ms", r.cpu_ms)
            .field("gpu_ms", r.gpu_ms)
            .field("cpu_energy_mj", r.cpu_energy_mj)
            .field("gpu_energy_mj", r.gpu_energy_mj)
            .field("speedup_cpu_total", r.speedup_cpu_total())
            .field("speedup_cpu_kernel", r.speedup_cpu_kernel())
            .field("speedup_gpu", r.speedup_gpu())
            .field("energy_reduction_cpu", r.energy_reduction_cpu())
            .field("energy_reduction_gpu", r.energy_reduction_gpu());
        stats_fields(w.obj("stats"), &r.stats, &r.config, None, 0);
        w.end().end();
    }
    w.end();
    w.finish() + "\n"
}

/// The `--stats-json <file>` argument, if present on the command line.
pub fn stats_json_arg() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--stats-json")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

/// Writes `records` to the `--stats-json` path when the flag is present;
/// a no-op otherwise. Exits with an error message if the file cannot be
/// written (a figure run that silently loses its export is worse than a
/// failed one).
pub fn maybe_export(records: &[SuiteRecord]) {
    let Some(path) = stats_json_arg() else { return };
    match std::fs::write(&path, records_to_json(records)) {
        Ok(()) => eprintln!("wrote {} run(s) to {}", records.len(), path.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// One throughput measurement from the `bench_parallel` binary: an op
/// class timed at a fixed worker count on the host machine.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// Operation label (`add`, `mul`, `lt`, `red_sum`, `vgg13-e2e`, …).
    pub name: String,
    /// Worker threads the execution engine was pinned to.
    pub threads: usize,
    /// Elements processed per iteration (0 for end-to-end runs where
    /// throughput-per-element is not meaningful).
    pub elems: u64,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: u128,
    /// Best observed wall time per iteration, nanoseconds.
    pub min_ns: u128,
}

impl ParallelRun {
    /// Element throughput in Melem/s from the best iteration, or 0 for
    /// end-to-end runs.
    pub fn melem_per_s(&self) -> f64 {
        if self.elems == 0 || self.min_ns == 0 {
            return 0.0;
        }
        self.elems as f64 / (self.min_ns as f64 / 1e9) / 1e6
    }

    /// Writes the row's members and closes its object.
    fn json_fields(&self, w: &mut JsonWriter) {
        w.field("name", &self.name)
            .field("threads", self.threads)
            .field("elems", self.elems)
            .field("mean_ns", self.mean_ns)
            .field("min_ns", self.min_ns)
            .field("melem_per_s", self.melem_per_s());
    }
}

/// One command pipeline measured twice by `bench_parallel`: issued
/// eagerly (one [`pimeval::Device::issue`] per call) and recorded
/// through a [`pimeval::CommandStream`] whose flush runs the optimization
/// passes. Captures both host wall-clock and the modeled device cost so
/// the export shows what fusion buys on each axis.
#[derive(Debug, Clone)]
pub struct StreamVsEager {
    /// Pipeline label (`axpy-pair`, `lt-select`, …).
    pub name: String,
    /// Worker threads the execution engine was pinned to.
    pub threads: usize,
    /// Elements processed per iteration.
    pub elems: u64,
    /// Mean wall time per eager iteration, nanoseconds.
    pub eager_mean_ns: u128,
    /// Best wall time per eager iteration, nanoseconds.
    pub eager_min_ns: u128,
    /// Mean wall time per streamed iteration, nanoseconds.
    pub stream_mean_ns: u128,
    /// Best wall time per streamed iteration, nanoseconds.
    pub stream_min_ns: u128,
    /// Modeled device kernel time for one eager pass, milliseconds.
    pub eager_modeled_ms: f64,
    /// Modeled device kernel time for one streamed (fused) pass,
    /// milliseconds.
    pub stream_modeled_ms: f64,
}

impl StreamVsEager {
    /// Host wall-clock speedup of the streamed path (best-time ratio),
    /// or 0 when the streamed time was unmeasurably small.
    pub fn wall_speedup(&self) -> f64 {
        if self.stream_min_ns == 0 {
            return 0.0;
        }
        self.eager_min_ns as f64 / self.stream_min_ns as f64
    }

    /// Modeled-cost ratio streamed/eager — ≤ 1.0 whenever the fusion
    /// passes fire (the fused program never costs more than its pair).
    pub fn modeled_cost_ratio(&self) -> f64 {
        if self.eager_modeled_ms == 0.0 {
            return 0.0;
        }
        self.stream_modeled_ms / self.eager_modeled_ms
    }

    /// Writes the row's members and closes its object.
    fn json_fields(&self, w: &mut JsonWriter) {
        w.field("name", &self.name)
            .field("threads", self.threads)
            .field("elems", self.elems)
            .field("eager_mean_ns", self.eager_mean_ns)
            .field("eager_min_ns", self.eager_min_ns)
            .field("stream_mean_ns", self.stream_mean_ns)
            .field("stream_min_ns", self.stream_min_ns)
            .field("wall_speedup", self.wall_speedup())
            .field("eager_modeled_ms", self.eager_modeled_ms)
            .field("stream_modeled_ms", self.stream_modeled_ms)
            .field("modeled_cost_ratio", self.modeled_cost_ratio());
    }
}

/// One point of the `--ranks` sweep from `bench_parallel`: an op class
/// run on a device sharded per rank, capturing both host wall time and
/// the modeled device-side split between compute and cross-rank
/// interconnect traffic.
#[derive(Debug, Clone)]
pub struct RankScalingRun {
    /// Operation label (`add`, `red_sum`, `copy_to_device`, …).
    pub name: String,
    /// DRAM ranks = execution shards the device was built with.
    pub ranks: usize,
    /// Elements processed per iteration.
    pub elems: u64,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: u128,
    /// Best observed wall time per iteration, nanoseconds.
    pub min_ns: u128,
    /// Modeled aggregate kernel time for one pass, milliseconds.
    pub kernel_ms: f64,
    /// Modeled cross-rank interconnect time for one pass, milliseconds
    /// (reported separately from kernel time, never folded into it).
    pub interconnect_ms: f64,
    /// Bytes moved across the rank interconnect in one pass.
    pub interconnect_bytes: u64,
}

impl RankScalingRun {
    /// Element throughput in Melem/s from the best iteration.
    pub fn melem_per_s(&self) -> f64 {
        if self.elems == 0 || self.min_ns == 0 {
            return 0.0;
        }
        self.elems as f64 / (self.min_ns as f64 / 1e9) / 1e6
    }

    /// Writes the row's members and closes its object.
    fn json_fields(&self, w: &mut JsonWriter) {
        w.field("name", &self.name)
            .field("ranks", self.ranks)
            .field("elems", self.elems)
            .field("mean_ns", self.mean_ns)
            .field("min_ns", self.min_ns)
            .field("melem_per_s", self.melem_per_s())
            .field("kernel_ms", self.kernel_ms)
            .field("interconnect_ms", self.interconnect_ms)
            .field("interconnect_bytes", self.interconnect_bytes);
    }
}

/// One timing-fidelity measurement from `bench_parallel`: the same
/// modeled op priced by the closed-form `Analytical` backend and by the
/// stateful `BankFsm` backend under both row patterns, plus the FSM's
/// row-buffer accounting. At zero contention (streaming round-robin)
/// the two backends agree bit-for-bit, so `delta_pct` is the fidelity
/// *check* (≈ 0) and `thrash_slowdown` is the fidelity *signal*: how
/// much protocol-level serialization the closed form cannot see.
#[derive(Debug, Clone)]
pub struct FidelityRun {
    /// Operation label (`add`, `mul`, `red_sum`, `copy_to_device`, …).
    pub name: String,
    /// Simulation target the op was priced on.
    pub target: String,
    /// Elements processed per pass.
    pub elems: u64,
    /// Modeled kernel time under the analytical backend, milliseconds.
    pub analytical_ms: f64,
    /// Modeled kernel time under the bank-FSM backend with the
    /// streaming (round-robin) row pattern, milliseconds.
    pub fsm_ms: f64,
    /// Modeled kernel time under the bank-FSM backend with the
    /// single-bank thrashing row pattern, milliseconds.
    pub fsm_thrash_ms: f64,
    /// DRAM commands counted by the streaming FSM pass.
    pub dram: TimingCounters,
}

impl FidelityRun {
    /// Streaming FSM deviation from the closed form, percent (≈ 0 by
    /// construction at zero contention).
    pub fn delta_pct(&self) -> f64 {
        if self.analytical_ms == 0.0 {
            return 0.0;
        }
        (self.fsm_ms - self.analytical_ms) / self.analytical_ms * 100.0
    }

    /// Thrashing-FSM slowdown over the closed form (> 1 whenever the op
    /// charges row cycles).
    pub fn thrash_slowdown(&self) -> f64 {
        if self.analytical_ms == 0.0 {
            return 0.0;
        }
        self.fsm_thrash_ms / self.analytical_ms
    }

    /// Writes the row's members and closes its object.
    fn json_fields(&self, w: &mut JsonWriter) {
        w.field("name", &self.name)
            .field("target", &self.target)
            .field("elems", self.elems)
            .field("analytical_ms", self.analytical_ms)
            .field("fsm_ms", self.fsm_ms)
            .field("fsm_thrash_ms", self.fsm_thrash_ms)
            .field("delta_pct", self.delta_pct())
            .field("thrash_slowdown", self.thrash_slowdown())
            .field("row_hits", self.dram.row_hits)
            .field("row_misses", self.dram.row_misses)
            .field("row_hit_rate", self.dram.hit_rate());
    }
}

/// Renders the `bench_parallel` report: host parallelism (the default
/// worker count and the host's core count), every measurement, per-op
/// speedups of the widest measured thread count that fits in
/// `host_cores` over the single-threaded run (best-time ratio, paired by
/// op name; a count above the core count measures oversubscription, not
/// scaling, so it gets no speedup entry),
/// the stream-vs-eager comparisons, the `--ranks` sharding sweep and the
/// timing-fidelity sweep. All post-v1 sections are additive: consumers
/// that predate them must ignore unknown keys.
pub fn parallel_runs_to_json(
    default_threads: usize,
    host_cores: usize,
    runs: &[ParallelRun],
    stream: &[StreamVsEager],
    rank_scaling: &[RankScalingRun],
    fidelity: &[FidelityRun],
) -> String {
    // Pair each single-thread baseline with the widest measured count
    // the host's cores can run for the same op; `--threads 1,2,4` sweeps
    // therefore report the 4-thread speedup on a 4-core host even when
    // the default worker count is 1.
    let top = runs
        .iter()
        .map(|r| r.threads)
        .filter(|&t| t > 1 && t <= host_cores)
        .max();
    let speedups = runs.iter().filter(|r| r.threads == 1).filter_map(|base| {
        let par = runs
            .iter()
            .find(|r| Some(r.threads) == top && r.name == base.name)?;
        (par.min_ns > 0).then_some((base, par))
    });
    let mut w = JsonWriter::new(2);
    w.field("schema_version", BENCH_SCHEMA_VERSION)
        .field("schema_note", BENCH_SCHEMA_NOTE)
        .field("threads_default", default_threads)
        .field("host_cores", host_cores)
        .arr("runs");
    for r in runs {
        r.json_fields(w.item_obj());
        w.end();
    }
    w.end().arr("speedups");
    for (base, par) in speedups {
        w.item_obj()
            .field("name", &base.name)
            .field("threads", par.threads)
            .field("speedup", base.min_ns as f64 / par.min_ns as f64)
            .end();
    }
    w.end().arr("stream_vs_eager");
    for r in stream {
        r.json_fields(w.item_obj());
        w.end();
    }
    w.end().arr("rank_scaling");
    for r in rank_scaling {
        r.json_fields(w.item_obj());
        w.end();
    }
    w.end().arr("fidelity");
    for r in fidelity {
        r.json_fields(w.item_obj());
        w.end();
    }
    w.end();
    w.finish() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimbench::Params;
    use pimeval::{DeviceConfig, PimTarget};

    #[test]
    fn records_round_trip_through_the_parser() {
        let cfg = DeviceConfig::new(PimTarget::Fulcrum, 2);
        let r = crate::run_one(
            "AXPY",
            &cfg,
            &Params {
                scale: 0.01,
                seed: 1,
                ..Params::default()
            },
        );
        let json = records_to_json(std::slice::from_ref(&r));
        let doc = pimeval::trace::json::Json::parse(&json).unwrap();
        let runs = doc.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.get("benchmark").unwrap().as_str(), Some("AXPY"));
        let total = run
            .get("stats")
            .unwrap()
            .get("totals")
            .unwrap()
            .get("kernel_time_ms")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((total - r.stats.kernel_time_ms()).abs() < 1e-9);
    }

    #[test]
    fn parallel_runs_export_pairs_speedups_by_name() {
        let runs = vec![
            ParallelRun {
                name: "add".into(),
                threads: 1,
                elems: 1000,
                mean_ns: 4000,
                min_ns: 4000,
            },
            ParallelRun {
                name: "add".into(),
                threads: 8,
                elems: 1000,
                mean_ns: 1100,
                min_ns: 1000,
            },
        ];
        let json = parallel_runs_to_json(8, 8, &runs, &[], &[], &[]);
        let doc = pimeval::trace::json::Json::parse(&json).unwrap();
        assert_eq!(
            doc.get("schema_version").unwrap().as_f64().unwrap() as u32,
            BENCH_SCHEMA_VERSION
        );
        assert_eq!(
            doc.get("schema_note").unwrap().as_str(),
            Some(BENCH_SCHEMA_NOTE)
        );
        assert_eq!(
            doc.get("threads_default").unwrap().as_f64().unwrap() as usize,
            8
        );
        assert_eq!(doc.get("host_cores").unwrap().as_f64(), Some(8.0));
        assert_eq!(doc.get("runs").unwrap().as_array().unwrap().len(), 2);
        let speedups = doc.get("speedups").unwrap().as_array().unwrap();
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].get("threads").unwrap().as_f64(), Some(8.0));
        let s = speedups[0].get("speedup").unwrap().as_f64().unwrap();
        assert!((s - 4.0).abs() < 1e-9);
        assert!(doc
            .get("stream_vs_eager")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn speedups_pair_against_the_widest_measured_thread_count() {
        // A `--threads 1,2,4` sweep on a 4-core host whose default
        // worker count is 1: speedups must still populate from the
        // 4-thread rows.
        let mk = |threads: usize, min_ns: u128| ParallelRun {
            name: "mul".into(),
            threads,
            elems: 1000,
            mean_ns: min_ns,
            min_ns,
        };
        let runs = vec![mk(1, 6000), mk(2, 3500), mk(4, 2000)];
        let json = parallel_runs_to_json(1, 4, &runs, &[], &[], &[]);
        let doc = pimeval::trace::json::Json::parse(&json).unwrap();
        let speedups = doc.get("speedups").unwrap().as_array().unwrap();
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].get("threads").unwrap().as_f64(), Some(4.0));
        let s = speedups[0].get("speedup").unwrap().as_f64().unwrap();
        assert!((s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn speedups_skip_thread_counts_beyond_host_cores() {
        let mk = |threads: usize, min_ns: u128| ParallelRun {
            name: "mul".into(),
            threads,
            elems: 1000,
            mean_ns: min_ns,
            min_ns,
        };
        let runs = vec![mk(1, 7000), mk(2, 3500), mk(4, 2000)];
        let speedups = |host_cores: usize| {
            let json = parallel_runs_to_json(2, host_cores, &runs, &[], &[], &[]);
            let doc = pimeval::trace::json::Json::parse(&json).unwrap();
            doc.get("speedups")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|e| {
                    let threads = e.get("threads").unwrap().as_f64().unwrap();
                    (threads, e.get("speedup").unwrap().as_f64().unwrap())
                })
                .collect::<Vec<_>>()
        };
        // On 2 cores the 4-thread rows oversubscribe: pair against 2.
        assert_eq!(speedups(2), vec![(2.0, 2.0)]);
        // On 1 core no parallel count fits, so there is no entry.
        assert!(speedups(1).is_empty());
    }

    #[test]
    fn rank_scaling_export_keeps_interconnect_separate_from_kernel() {
        let point = RankScalingRun {
            name: "add".into(),
            ranks: 4,
            elems: 1000,
            mean_ns: 2000,
            min_ns: 1000,
            kernel_ms: 2.5,
            interconnect_ms: 0.25,
            interconnect_bytes: 4096,
        };
        assert!((point.melem_per_s() - 1000.0).abs() < 1e-9);
        let json = parallel_runs_to_json(1, 1, &[], &[], std::slice::from_ref(&point), &[]);
        let doc = pimeval::trace::json::Json::parse(&json).unwrap();
        let entries = doc.get("rank_scaling").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.get("name").unwrap().as_str(), Some("add"));
        assert_eq!(e.get("ranks").unwrap().as_f64(), Some(4.0));
        assert!((e.get("kernel_ms").unwrap().as_f64().unwrap() - 2.5).abs() < 1e-9);
        assert!((e.get("interconnect_ms").unwrap().as_f64().unwrap() - 0.25).abs() < 1e-9);
        assert_eq!(e.get("interconnect_bytes").unwrap().as_f64(), Some(4096.0));
    }

    #[test]
    fn fidelity_export_carries_deltas_and_hit_rates() {
        let f = FidelityRun {
            name: "add".into(),
            target: "Fulcrum".into(),
            elems: 1 << 20,
            analytical_ms: 2.0,
            fsm_ms: 2.0,
            fsm_thrash_ms: 5.0,
            dram: TimingCounters {
                row_hits: 300,
                row_misses: 100,
                ..TimingCounters::default()
            },
        };
        assert_eq!(f.delta_pct(), 0.0);
        assert!((f.thrash_slowdown() - 2.5).abs() < 1e-12);
        assert!((f.dram.hit_rate() - 0.75).abs() < 1e-12);
        let json = parallel_runs_to_json(1, 1, &[], &[], &[], std::slice::from_ref(&f));
        let doc = pimeval::trace::json::Json::parse(&json).unwrap();
        let entries = doc.get("fidelity").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.get("name").unwrap().as_str(), Some("add"));
        assert_eq!(e.get("target").unwrap().as_str(), Some("Fulcrum"));
        assert_eq!(e.get("delta_pct").unwrap().as_f64(), Some(0.0));
        assert!((e.get("thrash_slowdown").unwrap().as_f64().unwrap() - 2.5).abs() < 1e-9);
        assert!((e.get("row_hit_rate").unwrap().as_f64().unwrap() - 0.75).abs() < 1e-9);
        // An empty fidelity section still parses (schema presence check).
        let empty = parallel_runs_to_json(1, 1, &[], &[], &[], &[]);
        let doc = pimeval::trace::json::Json::parse(&empty).unwrap();
        assert!(doc.get("fidelity").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn stream_vs_eager_export_carries_both_cost_axes() {
        let cmp = StreamVsEager {
            name: "axpy-pair".into(),
            threads: 1,
            elems: 1000,
            eager_mean_ns: 2200,
            eager_min_ns: 2000,
            stream_mean_ns: 1200,
            stream_min_ns: 1000,
            eager_modeled_ms: 4.0,
            stream_modeled_ms: 3.0,
        };
        assert!((cmp.wall_speedup() - 2.0).abs() < 1e-9);
        assert!((cmp.modeled_cost_ratio() - 0.75).abs() < 1e-9);
        let json = parallel_runs_to_json(1, 1, &[], std::slice::from_ref(&cmp), &[], &[]);
        let doc = pimeval::trace::json::Json::parse(&json).unwrap();
        let entries = doc.get("stream_vs_eager").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.get("name").unwrap().as_str(), Some("axpy-pair"));
        assert!((e.get("wall_speedup").unwrap().as_f64().unwrap() - 2.0).abs() < 1e-9);
        assert!((e.get("modeled_cost_ratio").unwrap().as_f64().unwrap() - 0.75).abs() < 1e-9);
        assert!((e.get("eager_modeled_ms").unwrap().as_f64().unwrap() - 4.0).abs() < 1e-9);
        assert!((e.get("stream_modeled_ms").unwrap().as_f64().unwrap() - 3.0).abs() < 1e-9);
    }
}
