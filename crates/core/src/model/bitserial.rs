//! Bit-serial (DRAM-AP) performance and energy model.
//!
//! Costs are derived from the *actual* microprograms in `pim-microcode`:
//! the model generates the program a real DRAM-AP controller would
//! broadcast and charges its exact row-read/row-write/logic/popcount
//! counts. Every subarray executes the broadcast in lockstep, so
//! wall-clock time is the per-core time × the number of element stripes
//! the busiest core holds.

use pim_dram::{RowPattern, TimingModel};
use pim_microcode::gen;
use pim_microcode::Cost;

use crate::config::DeviceConfig;
use crate::dtype::DataType;
use crate::object::ObjectLayout;
use crate::ops::OpKind;

use super::{reduction_merge, CostMemo, OpCost};

/// Generates the microprogram for `kind` and returns its per-stripe cost.
///
/// Memoized per `(OpKind, DataType)` pair: the generators run at most
/// once per pair per process, not on every charged command.
///
/// Comparison results logically occupy a full element (0/1), so the
/// `bits − 1` upper result rows are zero-filled — that write traffic is
/// charged here even though the generator emits only the live row.
pub(crate) fn program_cost(kind: OpKind, dtype: DataType) -> Cost {
    static MEMO: CostMemo = CostMemo::new();
    MEMO.get_or_generate((kind, dtype), || program_cost_uncached(kind, dtype))
}

fn program_cost_uncached(kind: OpKind, dtype: DataType) -> Cost {
    let bits = dtype.bits();
    let signed = dtype.is_signed();
    match kind {
        OpKind::Binary(b) => gen::binary(b, bits).cost(),
        OpKind::BinaryScalar(b, k) => gen::binary_scalar(b, bits, k as u64).cost(),
        OpKind::Cmp(c) => {
            let mut cost = gen::cmp(c, bits, signed).cost();
            cost.row_writes += (bits - 1) as u64;
            cost
        }
        OpKind::CmpScalar(c, k) => {
            let mut cost = gen::cmp_scalar(c, bits, signed, k as u64).cost();
            cost.row_writes += (bits - 1) as u64;
            cost
        }
        OpKind::Min => gen::min_max(false, bits, signed).cost(),
        OpKind::Max => gen::min_max(true, bits, signed).cost(),
        // Scalar min/max: compare against a broadcast constant, then
        // conditionally select; the constant side needs no row reads, so
        // charge the comparison-with-scalar plus the select sweep.
        OpKind::MinScalar(k) | OpKind::MaxScalar(k) => {
            let cmp = gen::cmp_scalar(gen::CmpOp::Lt, bits, signed, k as u64).cost();
            // Select sweep: one read of A plus one write per bit (the
            // scalar alternative is Set, not a row read).
            let sweep = Cost {
                row_reads: bits as u64,
                row_writes: bits as u64,
                logic_ops: 2 * bits as u64,
                ..Cost::default()
            };
            // cmp keeps its result in R0, so its write-back is dropped.
            Cost {
                row_writes: 0,
                ..cmp
            } + sweep
        }
        // Fused multiply-scalar + add: one broadcast seeds the
        // destination from the addend and accumulates the partial
        // products on top — the eager pair's temporary write sweep and
        // read-back sweep never happen.
        OpKind::ScaledAdd(k) => gen::scaled_add(bits, k as u64).cost(),
        // Fused compare + select: the 0/1 verdict stays in R0 between
        // the two phases, so the comparison's write-back, the eager
        // `bits − 1` zero-fill, and the select's condition read all
        // vanish.
        OpKind::FusedCmpSelect(c) => gen::cmp_select(c, bits, signed).cost(),
        OpKind::Not => gen::not(bits).cost(),
        OpKind::Abs => gen::abs(bits, signed).cost(),
        OpKind::Popcount => gen::popcount(bits).cost(),
        OpKind::ShiftL(k) => gen::shift_left(bits, k).cost(),
        OpKind::ShiftR(k) => gen::shift_right(bits, k, signed).cost(),
        OpKind::Select => gen::select(bits).cost(),
        OpKind::Broadcast(v) => gen::broadcast(bits, v as u64).cost(),
        OpKind::RedSum => gen::red_sum(bits, signed).cost(),
        // Associative min/max search: one MSB-to-LSB sweep narrowing the
        // candidate mask — per bit, one row read, a mask update, and a
        // row-wide popcount telling the controller whether any candidate
        // survives (the conditional match-update pattern of DRAM-AP).
        OpKind::RedMin | OpKind::RedMax => Cost {
            row_reads: bits as u64,
            logic_ops: 3 * bits as u64,
            popcount_reads: bits as u64,
            ..Cost::default()
        },
        OpKind::Copy => gen::copy(bits).cost(),
    }
}

/// Per-stripe execution time in nanoseconds, charged through the timing
/// backend (one representative lockstep sweep; the caller scales by
/// stripes × overflow).
fn stripe_time_ns(
    config: &DeviceConfig,
    tm: &mut TimingModel,
    cost: &Cost,
    pattern: RowPattern,
) -> f64 {
    let pe = &config.pe;
    tm.charge_rows(cost.row_reads, cost.row_writes, pattern)
        + cost.logic_ops as f64 * pe.bitserial_logic_ns
        + tm.charge_rows_extra(cost.popcount_reads, pe.bitserial_popcount_extra_ns, pattern)
}

/// Per-stripe, per-core energy in millijoules.
fn stripe_energy_mj(config: &DeviceConfig, cost: &Cost) -> f64 {
    let pe = &config.pe;
    let cols = config.cols_per_core() as f64;
    let ap_nj = config.power.activate_precharge_energy_nj(&config.timing);
    let row_ops = (cost.row_reads + cost.row_writes + cost.popcount_reads) as f64;
    let ap_mj = row_ops * ap_nj * 1e-6;
    let gate_mj = cost.logic_ops as f64 * pe.bitserial_gate_pj * cols * 1e-9;
    let pop_mj = cost.popcount_reads as f64 * pe.bitserial_popcount_pj_per_bit * cols * 1e-9;
    ap_mj + gate_mj + pop_mj
}

/// Latency and energy of `kind` on the bit-serial target.
pub(crate) fn cost(
    config: &DeviceConfig,
    tm: &mut TimingModel,
    kind: OpKind,
    dtype: DataType,
    layout: &ObjectLayout,
) -> OpCost {
    if matches!(kind, OpKind::RedSum) && !config.pe.bitserial_row_popcount {
        // Ablation: without row-wide popcount hardware, the reduction
        // ships the whole object to the host over the rank interface.
        let elems =
            layout.elems_per_core * config.physical_cores_represented(layout.cores_used) as u64;
        let bytes = elems * dtype.bits() as u64 / 8;
        let time_ms = tm.charge_host_copy(bytes.max(1), config.geometry.ranks);
        let energy_mj = config.power.transfer_energy_mj(time_ms, true);
        return OpCost { time_ms, energy_mj };
    }
    let per_stripe = program_cost(kind, dtype);
    let stripes = layout.units_per_core.max(1) as f64;
    // When the decimation factor exceeds the physical core count, the
    // paper-scale machine would hold `overflow`× more stripes per core
    // than the scaled functional run does; restore that serialization.
    let overflow = (layout.cores_used as f64 * config.decimation.max(1) as f64
        / config.physical_core_count() as f64)
        .max(1.0);
    // One representative lockstep sweep through the backend; every core
    // broadcasts the same program, so stripes × overflow repetitions of
    // the same sweep scale it (the backend has already priced the
    // steady-state access pattern, stalls included).
    let time_ms =
        stripe_time_ns(config, tm, &per_stripe, config.row_pattern) * stripes * overflow * 1e-6;
    // Energy counts physical cores (×decimation, clamped to the device)
    // and the same per-core serialization overflow.
    let energy_mj = stripe_energy_mj(config, &per_stripe)
        * stripes
        * overflow
        * config.physical_cores_represented(layout.cores_used) as f64;
    let mut out = OpCost { time_ms, energy_mj };
    if matches!(kind, OpKind::RedSum | OpKind::RedMin | OpKind::RedMax) {
        out = out.plus(reduction_merge(config, tm, layout.cores_used));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimTarget;
    use pim_microcode::gen::BinaryOp;

    fn cfg() -> DeviceConfig {
        DeviceConfig::new(PimTarget::BitSerial, 4)
    }

    fn cost(config: &DeviceConfig, kind: OpKind, dtype: DataType, layout: &ObjectLayout) -> OpCost {
        let mut tm = super::super::timing_model(config, pim_dram::TimingBackend::Analytical);
        super::cost(config, &mut tm, kind, dtype, layout)
    }

    fn reduction_merge(config: &DeviceConfig, cores_used: usize) -> OpCost {
        let mut tm = super::super::timing_model(config, pim_dram::TimingBackend::Analytical);
        super::reduction_merge(config, &mut tm, cores_used)
    }

    #[test]
    fn add_time_matches_hand_formula() {
        let config = cfg();
        let layout = ObjectLayout::compute(&config, 8192, DataType::Int32, None).unwrap();
        assert_eq!(layout.units_per_core, 1);
        let c = program_cost(OpKind::Binary(BinaryOp::Add), DataType::Int32);
        let expected_ns =
            c.row_reads as f64 * 28.5 + c.row_writes as f64 * 43.5 + c.logic_ops as f64;
        let got = cost(
            &config,
            OpKind::Binary(BinaryOp::Add),
            DataType::Int32,
            &layout,
        );
        assert!((got.time_ms - expected_ns * 1e-6).abs() < 1e-12);
    }

    #[test]
    fn stripes_scale_latency_linearly() {
        let config = cfg();
        let cores = config.core_count() as u64;
        let cols = config.cols_per_core() as u64;
        let one = ObjectLayout::compute(&config, cores * cols, DataType::Int32, None).unwrap();
        let four = ObjectLayout::compute(&config, 4 * cores * cols, DataType::Int32, None).unwrap();
        assert_eq!(one.units_per_core, 1);
        assert_eq!(four.units_per_core, 4);
        let t1 = cost(
            &config,
            OpKind::Binary(BinaryOp::Add),
            DataType::Int32,
            &one,
        )
        .time_ms;
        let t4 = cost(
            &config,
            OpKind::Binary(BinaryOp::Add),
            DataType::Int32,
            &four,
        )
        .time_ms;
        assert!((t4 / t1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cmp_zero_fill_is_charged() {
        let raw = pim_microcode::gen::cmp(pim_microcode::gen::CmpOp::Lt, 32, true).cost();
        let modeled = program_cost(OpKind::Cmp(pim_microcode::gen::CmpOp::Lt), DataType::Int32);
        assert_eq!(modeled.row_writes, raw.row_writes + 31);
    }

    #[test]
    fn fused_costs_undercut_their_eager_pairs() {
        use pim_microcode::gen::CmpOp;
        let config = cfg();
        let layout = ObjectLayout::compute(&config, 8192, DataType::Int32, None).unwrap();
        let t = |kind| cost(&config, kind, DataType::Int32, &layout).time_ms;
        let eager_sa = t(OpKind::BinaryScalar(BinaryOp::Mul, 7)) + t(OpKind::Binary(BinaryOp::Add));
        assert!(t(OpKind::ScaledAdd(7)) < eager_sa);
        let eager_cs = t(OpKind::Cmp(CmpOp::Lt)) + t(OpKind::Select);
        assert!(t(OpKind::FusedCmpSelect(CmpOp::Lt)) < eager_cs);
    }

    #[test]
    fn redsum_includes_merge() {
        let config = cfg();
        let layout = ObjectLayout::compute(&config, 1 << 24, DataType::Int32, None).unwrap();
        let red = cost(&config, OpKind::RedSum, DataType::Int32, &layout);
        let merge = reduction_merge(&config, layout.cores_used);
        assert!(red.time_ms > merge.time_ms);
        assert!(merge.time_ms > 0.0);
    }
}
