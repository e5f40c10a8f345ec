//! Device configuration: simulation target, DRAM parameters, and the
//! per-target processing-element parameters from Table II.

use pim_dram::{DramGeometry, DramPower, DramTiming, RowPattern, TimingBackend};

/// Which PIM architecture the device models (§IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimTarget {
    /// DRAM-AP: digital subarray-level bit-serial, one core per subarray,
    /// vertical data layout, row-wide bit-slice operations.
    BitSerial,
    /// Fulcrum: subarray-level bit-parallel — one 32-bit 167 MHz scalar
    /// ALU + three row-wide walkers shared by every two subarrays;
    /// horizontal data layout.
    Fulcrum,
    /// Bank-level PIM: one 64-bit Fulcrum-style ALPU + three walkers per
    /// bank, fed through a 128-bit GDL; horizontal data layout.
    BankLevel,
    /// Analog bit-serial PIM (Ambit/SIMDRAM style): triple-row-activation
    /// MAJority + DCC NOT, vertical layout. The paper's §IX extension
    /// target; not part of the three-way evaluation but available for
    /// the digital-vs-analog ablation.
    AnalogBitSerial,
    /// UPMEM-like toy model (§V-E builds one for validation): a scalar
    /// in-order DPU per bank, 350 MHz, no SIMD, feeding from MRAM over a
    /// per-DPU DMA bottleneck instead of walkers.
    UpmemLike,
}

impl PimTarget {
    /// The paper's three evaluated targets, in presentation order.
    pub const ALL: [PimTarget; 3] = [
        PimTarget::BitSerial,
        PimTarget::Fulcrum,
        PimTarget::BankLevel,
    ];

    /// All modeled targets, including the analog and UPMEM extensions.
    pub const EXTENDED: [PimTarget; 5] = [
        PimTarget::BitSerial,
        PimTarget::Fulcrum,
        PimTarget::BankLevel,
        PimTarget::AnalogBitSerial,
        PimTarget::UpmemLike,
    ];

    /// Display name used in reports and figures.
    pub fn name(&self) -> &'static str {
        match self {
            PimTarget::BitSerial => "Bit-Serial",
            PimTarget::Fulcrum => "Fulcrum",
            PimTarget::BankLevel => "Bank-Level",
            PimTarget::AnalogBitSerial => "Analog-Bit-Serial",
            PimTarget::UpmemLike => "UPMEM-like",
        }
    }

    /// True for the horizontal-layout (bit-parallel / word-oriented)
    /// targets.
    pub fn is_horizontal(&self) -> bool {
        matches!(
            self,
            PimTarget::Fulcrum | PimTarget::BankLevel | PimTarget::UpmemLike
        )
    }
}

impl std::fmt::Display for PimTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether operations execute functionally or only through the models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Compute real results host-side (default; enables verification).
    #[default]
    Functional,
    /// Skip data entirely: allocations carry no backing storage and
    /// reductions return 0. Used for paper-scale latency/energy sweeps
    /// (Fig. 6) where materializing the data would need >100 GB.
    ModelOnly,
}

/// Processing-element parameters shared by the performance and energy
/// models. Defaults follow Table II and DESIGN.md substitution #4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeParams {
    /// ALU/ALPU clock frequency (MHz); 167 MHz in the paper.
    pub alu_freq_mhz: f64,
    /// ALPU datapath width for bank-level PIM (bits); 64 in Table II.
    pub bank_alu_width_bits: u32,
    /// ALU cycles for one SWAR popcount on Fulcrum.
    pub fulcrum_popcount_cycles: u32,
    /// Latency of one bit-serial logic micro-op (ns).
    pub bitserial_logic_ns: f64,
    /// Extra latency of a row-wide popcount beyond the row read (ns).
    pub bitserial_popcount_extra_ns: f64,
    /// Energy of one bit-serial gate evaluation per bitline (pJ).
    pub bitserial_gate_pj: f64,
    /// Energy of one row-wide popcount reduction per bitline (pJ).
    pub bitserial_popcount_pj_per_bit: f64,
    /// Energy of one 32-bit scalar ALU operation (pJ), RTL-derived in the
    /// paper (Fulcrum authors' numbers); representative value here.
    pub alu_op_pj: f64,
    /// Energy of moving one bit across the GDL (pJ), scaled from LISA.
    pub gdl_pj_per_bit: f64,
    /// Energy of latching one bit into a walker (pJ).
    pub walker_pj_per_bit: f64,
    /// Host CPU idle power while waiting on PIM (W); 10 W in §V-D.
    pub host_idle_w: f64,
    /// Whether walkers overlap operand fetch with compute (§V-C notes
    /// AXPY's second operand fetch "can be pipelined with the scaling").
    /// Disable for the ablation study.
    pub walker_pipelining: bool,
    /// Whether the bit-serial periphery has row-wide popcount hardware
    /// for integer reduction sums (§V-C assumes it). Without it the
    /// reduction falls back to shipping the object to the host.
    pub bitserial_row_popcount: bool,
    /// UPMEM-like DPU clock (MHz).
    pub dpu_freq_mhz: f64,
    /// UPMEM-like effective instructions per DPU cycle with full
    /// tasklet occupancy (the 11-stage pipeline retires ~1 IPC when 11
    /// tasklets are resident; PIMeval's toy model under-filled them,
    /// which §V-E cites for its 23–35 % slowdown vs real hardware).
    pub dpu_ipc: f64,
    /// UPMEM-like per-DPU MRAM DMA bandwidth (GB/s).
    pub dpu_mram_gbs: f64,
    /// Scalar instructions a DPU spends per element of a simple
    /// element-wise op (load, op, store plus loop overhead).
    pub dpu_insns_per_elem: f64,
}

impl Default for PeParams {
    fn default() -> Self {
        PeParams {
            alu_freq_mhz: 167.0,
            bank_alu_width_bits: 64,
            fulcrum_popcount_cycles: 12,
            bitserial_logic_ns: 1.0,
            bitserial_popcount_extra_ns: 2.0,
            bitserial_gate_pj: 0.002,
            bitserial_popcount_pj_per_bit: 0.01,
            alu_op_pj: 0.8,
            gdl_pj_per_bit: 0.015,
            walker_pj_per_bit: 0.001,
            host_idle_w: 10.0,
            walker_pipelining: true,
            bitserial_row_popcount: true,
            dpu_freq_mhz: 350.0,
            dpu_ipc: 0.75,
            dpu_mram_gbs: 0.7,
            dpu_insns_per_elem: 6.0,
        }
    }
}

/// Full device configuration.
///
/// # Example
///
/// ```
/// use pimeval::{DeviceConfig, PimTarget};
///
/// let cfg = DeviceConfig::new(PimTarget::Fulcrum, 32);
/// // Fulcrum shares one ALU between two subarrays.
/// assert_eq!(cfg.core_count(), 32 * 128 * 32 / 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// The modeled PIM architecture.
    pub target: PimTarget,
    /// DRAM organization.
    pub geometry: DramGeometry,
    /// DDR timing parameters.
    pub timing: DramTiming,
    /// Micron power-model parameters.
    pub power: DramPower,
    /// Processing-element parameters.
    pub pe: PeParams,
    /// Functional vs. model-only simulation.
    pub mode: SimMode,
    /// Parallelism decimation: each modeled core stands for this many
    /// physical cores. Used by the figure harness to run paper-scale
    /// experiments with scaled-down functional inputs: dividing the core
    /// count by the same factor as the problem size conserves per-core
    /// work, so measured kernel latency equals the paper-scale estimate.
    /// Copy time and all energies are scaled back up by this factor so
    /// they too report paper-scale values. `1` (the default) disables
    /// the mechanism entirely.
    pub decimation: u64,
    /// Number of execution shards the [`crate::PimSystem`] splits the
    /// device into (typically one per rank). `1` (the default) keeps the
    /// monolithic single-shard behavior; results are bit-identical at
    /// any shard count, only the interconnect accounting changes.
    pub shards: usize,
    /// The backend each shard's [`pim_dram::TimingModel`] prices row
    /// and burst traffic with: the closed-form `Analytical` math (the default,
    /// bit-identical to the paper's model) or the stateful `BankFsm`.
    /// The `PIM_TIMING` environment variable overrides this at
    /// [`crate::Device::new`] time.
    pub timing_backend: TimingBackend,
    /// The bank-access pattern the timing backend models for row
    /// traffic: `Streaming` (the default; fresh rows round-robin across
    /// banks) or `Thrashing` (every access re-opens a row in one bank —
    /// only meaningful under the `BankFsm` backend).
    pub row_pattern: RowPattern,
}

impl DeviceConfig {
    /// Creates the paper's configuration for `target` with `ranks` ranks.
    pub fn new(target: PimTarget, ranks: usize) -> Self {
        DeviceConfig {
            target,
            geometry: DramGeometry::paper_default(ranks),
            timing: DramTiming::ddr4_default(),
            power: DramPower::ddr4_default(),
            pe: PeParams::default(),
            mode: SimMode::Functional,
            decimation: 1,
            shards: 1,
            timing_backend: TimingBackend::Analytical,
            row_pattern: RowPattern::Streaming,
        }
    }

    /// Selects the timing backend (overridable by `PIM_TIMING`).
    #[must_use]
    pub fn with_timing_backend(mut self, backend: TimingBackend) -> Self {
        self.timing_backend = backend;
        self
    }

    /// Sets the modeled bank-access pattern for row traffic.
    #[must_use]
    pub fn with_row_pattern(mut self, pattern: RowPattern) -> Self {
        self.row_pattern = pattern;
        self
    }

    /// Switches to model-only simulation (no backing data).
    #[must_use]
    pub fn model_only(mut self) -> Self {
        self.mode = SimMode::ModelOnly;
        self
    }

    /// Sets the parallelism decimation factor (clamped to ≥ 1).
    #[must_use]
    pub fn with_decimation(mut self, decimation: u64) -> Self {
        self.decimation = decimation.max(1);
        self
    }

    /// Replaces the DRAM geometry (rank/bank/column sweeps).
    #[must_use]
    pub fn with_geometry(mut self, geometry: DramGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Sets the shard count (clamped to ≥ 1). The [`crate::PimSystem`]
    /// additionally clamps it to the modeled core count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Shards the device one-per-rank — the paper's Table II multi-rank
    /// configurations map each DDR rank to one shard with its own DDR
    /// channel bandwidth.
    #[must_use]
    pub fn sharded_per_rank(self) -> Self {
        let ranks = self.geometry.ranks;
        self.with_shards(ranks)
    }

    /// Number of *modeled* PIM cores for the configured target:
    /// one per subarray (bit-serial), one per two subarrays (Fulcrum), or
    /// one per bank (bank-level), divided by the decimation factor.
    pub fn core_count(&self) -> usize {
        let raw = self.physical_core_count();
        (raw as u64 / self.decimation.max(1)).max(1) as usize
    }

    /// Number of physical PIM cores, ignoring decimation. Capacity
    /// checks use this: decimation rescales the performance model, not
    /// the machine's real storage.
    pub fn physical_core_count(&self) -> usize {
        match self.target {
            PimTarget::BitSerial | PimTarget::AnalogBitSerial => self.geometry.total_subarrays(),
            PimTarget::Fulcrum => (self.geometry.total_subarrays() / 2).max(1),
            PimTarget::BankLevel | PimTarget::UpmemLike => self.geometry.total_banks(),
        }
    }

    /// DRAM rows addressable by one core.
    pub fn rows_per_core(&self) -> u64 {
        let r = self.geometry.rows_per_subarray as u64;
        match self.target {
            PimTarget::BitSerial | PimTarget::AnalogBitSerial => r,
            PimTarget::Fulcrum => 2 * r,
            PimTarget::BankLevel | PimTarget::UpmemLike => {
                r * self.geometry.subarrays_per_bank as u64
            }
        }
    }

    /// Columns (bits) in one core's row buffer.
    pub fn cols_per_core(&self) -> usize {
        self.geometry.cols_per_row
    }

    /// ALU period in ns.
    pub fn alu_period_ns(&self) -> f64 {
        1e3 / self.pe.alu_freq_mhz
    }

    /// The number of *physical* cores `cores` modeled cores stand for:
    /// `cores × decimation`, clamped to the device's physical core count
    /// (a scaled-down functional input may under-fill even the decimated
    /// device, and the paper-scale machine cannot activate more cores
    /// than it has).
    pub fn physical_cores_represented(&self, cores: usize) -> usize {
        (cores * self.decimation.max(1) as usize).min(self.physical_core_count())
    }

    /// *Physical* subarrays kept active by a kernel that uses `cores`
    /// modeled cores (for background-energy accounting).
    pub fn active_subarrays(&self, cores: usize) -> usize {
        let per_core = match self.target {
            PimTarget::BitSerial | PimTarget::AnalogBitSerial => 1,
            PimTarget::Fulcrum => 2,
            PimTarget::BankLevel | PimTarget::UpmemLike => self.geometry.subarrays_per_bank,
        };
        self.physical_cores_represented(cores) * per_core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_counts_match_paper() {
        // The artifact prints "8192 cores" for 4-rank Fulcrum.
        assert_eq!(DeviceConfig::new(PimTarget::Fulcrum, 4).core_count(), 8192);
        assert_eq!(
            DeviceConfig::new(PimTarget::BitSerial, 4).core_count(),
            16384
        );
        assert_eq!(DeviceConfig::new(PimTarget::BankLevel, 4).core_count(), 512);
    }

    #[test]
    fn rows_per_core_by_target() {
        assert_eq!(
            DeviceConfig::new(PimTarget::BitSerial, 1).rows_per_core(),
            1024
        );
        assert_eq!(
            DeviceConfig::new(PimTarget::Fulcrum, 1).rows_per_core(),
            2048
        );
        assert_eq!(
            DeviceConfig::new(PimTarget::BankLevel, 1).rows_per_core(),
            32768
        );
    }

    #[test]
    fn alu_period_is_six_ns() {
        let cfg = DeviceConfig::new(PimTarget::Fulcrum, 1);
        assert!((cfg.alu_period_ns() - 5.988).abs() < 0.01);
    }

    #[test]
    fn active_subarrays_counts_whole_banks() {
        let cfg = DeviceConfig::new(PimTarget::BankLevel, 1);
        assert_eq!(cfg.active_subarrays(3), 96);
    }
}
