//! Simulation statistics and report rendering (the artifact's Listing 3
//! output format).

use std::collections::BTreeMap;

use pim_dram::TimingCounters;

use crate::config::DeviceConfig;
use crate::model::OpCost;
use crate::ops::OpCategory;
use crate::trace::CopyDirection;

/// Aggregate statistics for one PIM command name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CmdStat {
    /// Number of invocations.
    pub count: u64,
    /// Total estimated runtime (ms).
    pub time_ms: f64,
    /// Total estimated energy (mJ).
    pub energy_mj: f64,
}

/// Host↔device and device↔device copy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CopyStats {
    /// Bytes copied host → device.
    pub host_to_device_bytes: u64,
    /// Bytes copied device → host.
    pub device_to_host_bytes: u64,
    /// Bytes copied device → device.
    pub device_to_device_bytes: u64,
    /// Total copy time (ms).
    pub time_ms: f64,
    /// Total copy energy (mJ).
    pub energy_mj: f64,
}

impl CopyStats {
    /// Total bytes moved in any direction.
    pub fn total_bytes(&self) -> u64 {
        self.host_to_device_bytes + self.device_to_host_bytes + self.device_to_device_bytes
    }
}

/// Counters for the [`crate::stream::CommandStream`] optimization passes,
/// accumulated across every flush on the device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Flushes executed.
    pub flushes: u64,
    /// Commands recorded into streams.
    pub recorded_commands: u64,
    /// Commands actually executed after the passes ran.
    pub executed_commands: u64,
    /// mul_scalar + add pairs rewritten to `scaled_add`.
    pub fused_scaled_add: u64,
    /// cmp + select pairs rewritten to a fused compare-select.
    pub fused_cmp_select: u64,
    /// Commands dropped because their destination was overwritten before
    /// being read.
    pub dead_writes_eliminated: u64,
    /// Retired: always 0. Streams no longer batch commands into one
    /// sweep; the field and its stats-JSON key stay for readers of the
    /// current schema.
    pub batched_sweeps: u64,
    /// Retired: always 0 (see `batched_sweeps`).
    pub batched_commands: u64,
}

impl FusionStats {
    /// Commands removed by the stream passes (each fusion replaces two
    /// commands with one; each dead write removes one).
    pub fn commands_eliminated(&self) -> u64 {
        self.fused_scaled_add + self.fused_cmp_select + self.dead_writes_eliminated
    }

    /// True when no stream was ever flushed on this device.
    pub fn is_empty(&self) -> bool {
        *self == FusionStats::default()
    }
}

/// Counters for the stream's dataflow optimizer beyond the fusion
/// counters, accumulated across every flush on the device. All zero
/// for eager-only runs, so the stats report and JSON omit the section
/// in that case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Value-numbering CSE hits: recomputes deleted outright or
    /// rewritten to copies of an object already holding the value.
    pub cse_hits: u64,
}

impl OptimizerStats {
    /// True when no flush found a common subexpression.
    pub fn is_empty(&self) -> bool {
        *self == OptimizerStats::default()
    }
}

/// Cross-shard data-movement accounting, charged by the
/// [`crate::InterconnectModel`] only when the device runs with more
/// than one shard. Interconnect time is reported separately from
/// kernel and copy time (it never enters [`SimStats::total_time_ms`]),
/// so sharded and unsharded runs stay cost-comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InterconnectStats {
    /// Host→shard scatter traffic (bytes, all shards).
    pub scatter_bytes: u64,
    /// Shard→host gather traffic (bytes, all shards).
    pub gather_bytes: u64,
    /// Inter-shard realignment traffic for misaligned operands (bytes).
    pub realign_bytes: u64,
    /// Reduction partial-combine traffic (bytes).
    pub combine_bytes: u64,
    /// Number of modeled interconnect transfers.
    pub transfers: u64,
    /// Modeled interconnect time (ms), critical-path per transfer.
    pub time_ms: f64,
    /// Modeled interconnect energy (mJ).
    pub energy_mj: f64,
}

impl InterconnectStats {
    /// Total bytes moved across the interconnect.
    pub fn total_bytes(&self) -> u64 {
        self.scatter_bytes + self.gather_bytes + self.realign_bytes + self.combine_bytes
    }

    /// True when no interconnect traffic was ever charged (always the
    /// case for single-shard devices).
    pub fn is_empty(&self) -> bool {
        *self == InterconnectStats::default()
    }
}

/// Row-capacity usage of one shard's resource manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardResourceStats {
    /// Row-core units currently in use on this shard.
    pub rows_in_use: u64,
    /// High-water mark of row-core usage on this shard.
    pub peak_rows: u64,
    /// Row-core units this shard can hold.
    pub rows_capacity: u64,
    /// Live objects resident on this shard.
    pub live_objects: u64,
}

/// Aggregate + per-shard resource-manager usage, re-snapshotted after
/// every allocation and free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Row-core units currently in use (aggregate).
    pub rows_in_use: u64,
    /// High-water mark of row-core usage (aggregate).
    pub peak_rows: u64,
    /// Total row-core units the device can hold.
    pub rows_capacity: u64,
    /// Live objects.
    pub live_objects: u64,
    /// Number of shards the device runs with.
    pub shards: u64,
    /// Per-shard breakdown; empty for single-shard devices.
    pub per_shard: Vec<ShardResourceStats>,
}

/// Full statistics for a simulation run.
///
/// Three time components mirror the paper's Fig. 7 breakdown: data
/// movement ([`CopyStats::time_ms`]), host execution ([`SimStats::host_time_ms`])
/// and PIM kernel time ([`SimStats::kernel_time_ms`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Copy statistics.
    pub copy: CopyStats,
    /// Per-command statistics, keyed by names like `add.int32`.
    pub cmds: BTreeMap<String, CmdStat>,
    /// Operation counts per Fig. 8 category.
    pub categories: BTreeMap<OpCategory, u64>,
    /// Modeled host-side execution time (ms).
    pub host_time_ms: f64,
    /// Most cores kept busy by any single command (for background energy).
    pub max_cores_used: usize,
    /// Command-stream pass counters (all zero for eager-only runs).
    pub fusion: FusionStats,
    /// Dataflow-optimizer counters (all zero for eager-only runs).
    pub optimizer: OptimizerStats,
    /// Cross-shard interconnect accounting (empty for single-shard runs).
    pub interconnect: InterconnectStats,
    /// Resource-manager usage snapshot (aggregate + per-shard).
    pub resources: ResourceStats,
    /// DRAM commands the timing models issued while pricing this
    /// ledger's commands and copies. Only the bank FSM issues any, so
    /// the counters can never disagree with the charged time (both come
    /// from the same command stream); empty under the default
    /// `Analytical` backend, whose per-copy trace replays are advisory.
    pub dram_protocol: TimingCounters,
}

impl SimStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        SimStats::default()
    }

    /// Records one PIM command invocation. The name is copied into the
    /// map only the first time it is seen.
    pub fn record_cmd(
        &mut self,
        name: &str,
        category: OpCategory,
        cost: OpCost,
        cores_used: usize,
    ) {
        let add = |e: &mut CmdStat| {
            e.count += 1;
            e.time_ms += cost.time_ms;
            e.energy_mj += cost.energy_mj;
        };
        match self.cmds.get_mut(name) {
            Some(e) => add(e),
            None => add(self.cmds.entry(name.to_owned()).or_default()),
        }
        *self.categories.entry(category).or_default() += 1;
        self.max_cores_used = self.max_cores_used.max(cores_used);
    }

    /// Records a data copy in `direction`.
    pub fn record_copy(
        &mut self,
        bytes: u64,
        direction: CopyDirection,
        time_ms: f64,
        energy_mj: f64,
    ) {
        *match direction {
            CopyDirection::HostToDevice => &mut self.copy.host_to_device_bytes,
            CopyDirection::DeviceToHost => &mut self.copy.device_to_host_bytes,
            CopyDirection::DeviceToDevice => &mut self.copy.device_to_device_bytes,
        } += bytes;
        self.copy.time_ms += time_ms;
        self.copy.energy_mj += energy_mj;
    }

    /// Adds modeled host execution time.
    pub fn record_host_ms(&mut self, ms: f64) {
        self.host_time_ms += ms;
    }

    /// Scales every kernel command's time/energy and the copy
    /// time/energy by `factor`. Used by the paper-scale harness for
    /// benchmarks whose *serial* operation count (not just data-parallel
    /// width) was scaled down — e.g. GEMV runs fewer column sweeps, so
    /// its kernel time is multiplied back up by the column ratio.
    /// Byte counters and host time are left untouched.
    pub fn scale_kernel_and_copies(&mut self, factor: f64) {
        for c in self.cmds.values_mut() {
            c.time_ms *= factor;
            c.energy_mj *= factor;
        }
        self.copy.time_ms *= factor;
        self.copy.energy_mj *= factor;
    }

    /// Total PIM kernel time across all commands (ms). Folds from
    /// `+0.0`: `f64`'s `Sum` starts at `-0.0`, which a report with no
    /// commands would print as `-0.000000`.
    pub fn kernel_time_ms(&self) -> f64 {
        self.cmds.values().fold(0.0, |acc, c| acc + c.time_ms)
    }

    /// Total PIM kernel energy across all commands (mJ), excluding
    /// background energy. Folds from `+0.0`, as [`Self::kernel_time_ms`].
    pub fn kernel_energy_mj(&self) -> f64 {
        self.cmds.values().fold(0.0, |acc, c| acc + c.energy_mj)
    }

    /// Total op invocations.
    pub fn total_ops(&self) -> u64 {
        self.cmds.values().map(|c| c.count).sum()
    }

    /// Background energy (§V-D iii): per-subarray standby delta × active
    /// subarrays × kernel time.
    pub fn background_energy_mj(&self, config: &DeviceConfig) -> f64 {
        let subarrays = config.active_subarrays(self.max_cores_used);
        config
            .power
            .background_energy_mj(subarrays, self.kernel_time_ms())
    }

    /// CPU idle energy while waiting on PIM (10 W default): W × ms = mJ.
    pub fn host_idle_energy_mj(&self, config: &DeviceConfig) -> f64 {
        config.pe.host_idle_w * self.kernel_time_ms()
    }

    /// End-to-end time: copies + host + kernel (ms). This is the
    /// "Kernel + Data Movement" series of Fig. 9.
    pub fn total_time_ms(&self) -> f64 {
        self.copy.time_ms + self.host_time_ms + self.kernel_time_ms()
    }

    /// Total PIM-side energy: kernel + copies + background (mJ).
    pub fn total_energy_mj(&self, config: &DeviceConfig) -> f64 {
        self.kernel_energy_mj() + self.copy.energy_mj + self.background_energy_mj(config)
    }

    /// Fractional time breakdown `(data movement, host, kernel)`, the
    /// rows of Fig. 7. Returns zeros for an empty run.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let total = self.total_time_ms();
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.copy.time_ms / total,
            self.host_time_ms / total,
            self.kernel_time_ms() / total,
        )
    }

    /// Renders the artifact-style statistics report (Listing 3).
    pub fn report(&self, config: &DeviceConfig) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let g = &config.geometry;
        let _ = writeln!(out, "----------------------------------------");
        let _ = writeln!(out, "PIM Params:");
        let _ = writeln!(out, "  Simulation Target             : {}", config.target);
        let _ = writeln!(
            out,
            "  Rank, Bank, Subarray, Row, Col: {}, {}, {}, {}, {}",
            g.ranks, g.banks_per_rank, g.subarrays_per_bank, g.rows_per_subarray, g.cols_per_row
        );
        let _ = writeln!(
            out,
            "  Number of PIM Cores           : {}",
            config.core_count()
        );
        let _ = writeln!(
            out,
            "  Number of Rows per Core       : {}",
            config.rows_per_core()
        );
        let _ = writeln!(
            out,
            "  Number of Cols per Core       : {}",
            config.cols_per_core()
        );
        let _ = writeln!(
            out,
            "  Typical Rank BW               : {:.6} GB/s",
            config.timing.rank_bandwidth_gbs
        );
        let _ = writeln!(
            out,
            "  Row Read (ns)                 : {:.6}",
            config.timing.row_read_ns
        );
        let _ = writeln!(
            out,
            "  Row Write (ns)                : {:.6}",
            config.timing.row_write_ns
        );
        let _ = writeln!(
            out,
            "  tCCD (ns)                     : {:.6}",
            config.timing.t_ccd_ns
        );
        let _ = writeln!(out, "Data Copy Stats:");
        let _ = writeln!(
            out,
            "  Host to Device   : {} bytes",
            self.copy.host_to_device_bytes
        );
        let _ = writeln!(
            out,
            "  Device to Host   : {} bytes",
            self.copy.device_to_host_bytes
        );
        let _ = writeln!(
            out,
            "  Device to Device : {} bytes",
            self.copy.device_to_device_bytes
        );
        let _ = writeln!(
            out,
            "  TOTAL ---------- : {} bytes {:.6}ms Runtime {:.6}mJ Energy",
            self.copy.total_bytes(),
            self.copy.time_ms,
            self.copy.energy_mj
        );
        let _ = writeln!(out, "PIM Command Stats:");
        let _ = writeln!(
            out,
            "  {:<22}: {:>8} {:>22} {:>30}",
            "PIM-CMD", "CNT", "EstimatedRuntime(ms)", "EstimatedEnergyConsumption(mJ)"
        );
        for (name, c) in &self.cmds {
            let _ = writeln!(
                out,
                "  {:<22}: {:>8} {:>22.6} {:>30.6}",
                name, c.count, c.time_ms, c.energy_mj
            );
        }
        let _ = writeln!(
            out,
            "  {:<22}: {:>8} {:>22.6} {:>30.6}",
            "TOTAL -----",
            self.total_ops(),
            self.kernel_time_ms(),
            self.kernel_energy_mj()
        );
        if self.host_time_ms > 0.0 {
            let _ = writeln!(out, "Host elapsed (modeled): {:.6} ms", self.host_time_ms);
        }
        if !self.fusion.is_empty() {
            let f = &self.fusion;
            let _ = writeln!(out, "Command Stream Stats:");
            let _ = writeln!(
                out,
                "  Flushes          : {} ({} recorded -> {} executed)",
                f.flushes, f.recorded_commands, f.executed_commands
            );
            let _ = writeln!(
                out,
                "  Fused            : {} scaled_add, {} cmp_select",
                f.fused_scaled_add, f.fused_cmp_select
            );
            let _ = writeln!(out, "  Dead writes      : {}", f.dead_writes_eliminated);
        }
        if !self.optimizer.is_empty() {
            let o = &self.optimizer;
            let _ = writeln!(out, "Dataflow Optimizer Stats:");
            let _ = writeln!(out, "  CSE hits         : {}", o.cse_hits);
        }
        let r = &self.resources;
        let _ = writeln!(out, "Resource Stats:");
        let _ = writeln!(
            out,
            "  Rows in use      : {} / {} row-core units (peak {})",
            r.rows_in_use, r.rows_capacity, r.peak_rows
        );
        let _ = writeln!(out, "  Live objects     : {}", r.live_objects);
        if r.shards > 1 {
            let _ = writeln!(out, "  Shards           : {}", r.shards);
            for (i, s) in r.per_shard.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  Shard {:<10} : {} / {} rows (peak {}), {} object(s)",
                    i, s.rows_in_use, s.rows_capacity, s.peak_rows, s.live_objects
                );
            }
        }
        if !self.interconnect.is_empty() {
            let ic = &self.interconnect;
            let _ = writeln!(out, "Interconnect Stats:");
            let _ = writeln!(
                out,
                "  Scatter / Gather : {} / {} bytes",
                ic.scatter_bytes, ic.gather_bytes
            );
            let _ = writeln!(
                out,
                "  Realign / Combine: {} / {} bytes",
                ic.realign_bytes, ic.combine_bytes
            );
            let _ = writeln!(
                out,
                "  Modeled          : {} transfer(s), {:.6} ms, {:.6} mJ (reported separately)",
                ic.transfers, ic.time_ms, ic.energy_mj
            );
        }
        if !self.dram_protocol.is_empty() {
            let p = &self.dram_protocol;
            let _ = writeln!(out, "DRAM Protocol Stats:");
            let _ = writeln!(
                out,
                "  ACT / PRE        : {} / {}",
                p.activations, p.precharges
            );
            let _ = writeln!(out, "  RD / WR          : {} / {}", p.reads, p.writes);
            let _ = writeln!(
                out,
                "  Row hits / misses: {} / {} ({:.2}% hit rate)",
                p.row_hits,
                p.row_misses,
                p.hit_rate() * 100.0
            );
        }
        let _ = writeln!(out, "----------------------------------------");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, PimTarget};

    #[test]
    fn breakdown_sums_to_one() {
        let mut s = SimStats::new();
        s.record_copy(1024, CopyDirection::HostToDevice, 0.5, 0.1);
        s.record_host_ms(0.25);
        s.record_cmd(
            "add.int32",
            OpCategory::Add,
            OpCost {
                time_ms: 0.25,
                energy_mj: 0.2,
            },
            7,
        );
        let (dm, host, kernel) = s.breakdown();
        assert!((dm + host + kernel - 1.0).abs() < 1e-12);
        assert!((dm - 0.5).abs() < 1e-12);
        assert_eq!(s.max_cores_used, 7);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        assert_eq!(SimStats::new().breakdown(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn cmd_aggregation_accumulates() {
        let mut s = SimStats::new();
        for _ in 0..3 {
            s.record_cmd(
                "mul.int32",
                OpCategory::Mul,
                OpCost {
                    time_ms: 1.0,
                    energy_mj: 2.0,
                },
                1,
            );
        }
        let c = s.cmds["mul.int32"];
        assert_eq!(c.count, 3);
        assert!((c.time_ms - 3.0).abs() < 1e-12);
        assert_eq!(s.categories[&OpCategory::Mul], 3);
        assert_eq!(s.total_ops(), 3);
    }

    #[test]
    fn report_contains_key_sections() {
        let cfg = DeviceConfig::new(PimTarget::Fulcrum, 4);
        let mut s = SimStats::new();
        s.record_cmd(
            "add.int32",
            OpCategory::Add,
            OpCost {
                time_ms: 0.00166,
                energy_mj: 0.0042,
            },
            8192,
        );
        let r = s.report(&cfg);
        assert!(r.contains("PIM Params:"));
        assert!(r.contains("Data Copy Stats:"));
        assert!(r.contains("add.int32"));
        assert!(r.contains("TOTAL"));
    }

    #[test]
    fn fusion_section_renders_only_when_streams_ran() {
        let cfg = DeviceConfig::new(PimTarget::Fulcrum, 4);
        let mut s = SimStats::new();
        assert!(!s.report(&cfg).contains("Command Stream Stats:"));
        s.fusion.flushes = 1;
        s.fusion.recorded_commands = 4;
        s.fusion.executed_commands = 3;
        s.fusion.fused_scaled_add = 1;
        let r = s.report(&cfg);
        assert!(r.contains("Command Stream Stats:"));
        assert!(r.contains("1 scaled_add"));
        assert_eq!(s.fusion.commands_eliminated(), 1);
    }

    #[test]
    fn idle_energy_is_watts_times_ms() {
        let cfg = DeviceConfig::new(PimTarget::BitSerial, 1);
        let mut s = SimStats::new();
        s.record_cmd(
            "add.int32",
            OpCategory::Add,
            OpCost {
                time_ms: 100.0,
                energy_mj: 1.0,
            },
            1,
        );
        assert!((s.host_idle_energy_mj(&cfg) - 1000.0).abs() < 1e-9);
    }
}
