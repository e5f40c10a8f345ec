//! Analog bit-serial (Ambit/SIMDRAM-style TRA) performance and energy
//! model — the §IX extension target.
//!
//! Costs derive from the analog microprograms in
//! [`pim_microcode::analog`]: every AAP is a double row activation
//! (tRAS + tRP twice over the command sequence, modeled as one full
//! activate–precharge pair per activation), every TRA one (wider)
//! activate–precharge. Compare with the digital model in
//! `bitserial.rs`, whose per-gate cost is a ~1 ns sense-amp logic step:
//! this difference is the paper's §IV argument for digital PIM, made
//! quantitative by the `ablation_analog` harness binary.

use pim_dram::{RowPattern, TimingModel};
use pim_microcode::{analog, gen, Cost};

use crate::config::DeviceConfig;
use crate::dtype::DataType;
use crate::object::ObjectLayout;
use crate::ops::OpKind;

use super::{reduction_merge, CostMemo, OpCost};

/// Per-stripe cost of `kind` on the analog target, memoized per
/// `(OpKind, DataType)` pair like the digital model. Scalar variants are
/// lowered as a broadcast of the constant into scratch rows followed by
/// the vector program; shift-right and abs reuse the structurally
/// identical left-shift / sub+select row counts.
pub(crate) fn program_cost(kind: OpKind, dtype: DataType) -> Cost {
    static MEMO: CostMemo = CostMemo::new();
    MEMO.get_or_generate((kind, dtype), || program_cost_uncached(kind, dtype))
}

fn program_cost_uncached(kind: OpKind, dtype: DataType) -> Cost {
    let bits = dtype.bits();
    let signed = dtype.is_signed();
    let scalar_setup = |c: Cost| gen::broadcast(bits, 0).cost() + c;
    match kind {
        OpKind::Binary(b) => analog::binary(b, bits).cost(),
        OpKind::BinaryScalar(b, _) => scalar_setup(analog::binary(b, bits).cost()),
        OpKind::Cmp(c) => {
            let mut cost = analog::cmp(c, bits, signed).cost();
            cost.aap_ops += (bits - 1) as u64; // zero-fill upper result rows
            cost
        }
        OpKind::CmpScalar(c, _) => {
            let mut cost = scalar_setup(analog::cmp(c, bits, signed).cost());
            cost.aap_ops += (bits - 1) as u64;
            cost
        }
        OpKind::Min => analog::min_max(false, bits, signed).cost(),
        OpKind::Max => analog::min_max(true, bits, signed).cost(),
        OpKind::MinScalar(_) => scalar_setup(analog::min_max(false, bits, signed).cost()),
        OpKind::MaxScalar(_) => scalar_setup(analog::min_max(true, bits, signed).cost()),
        // Fused multiply-scalar + add: the eager pair AAP-copies the
        // product into a temporary row group and back; fused, the adder
        // consumes the product rows in place, eliding one AAP per bit.
        OpKind::ScaledAdd(_) => {
            let fused = scalar_setup(analog::binary(gen::BinaryOp::Mul, bits).cost())
                + analog::binary(gen::BinaryOp::Add, bits).cost();
            Cost {
                aap_ops: fused.aap_ops.saturating_sub(bits as u64),
                ..fused
            }
        }
        // Fused compare + select: no zero-fill of the mask's upper rows
        // (the eager Cmp surcharge) and the mask's final AAP write-back
        // is consumed directly by the select.
        OpKind::FusedCmpSelect(c) => {
            let fused = analog::cmp(c, bits, signed).cost() + analog::select(bits).cost();
            Cost {
                aap_ops: fused.aap_ops.saturating_sub(1),
                ..fused
            }
        }
        OpKind::Not => analog::not(bits).cost(),
        // abs = conditional negate: subtract-from-zero + masked select.
        OpKind::Abs => {
            analog::binary(gen::BinaryOp::Sub, bits).cost() + analog::select(bits).cost()
        }
        OpKind::Popcount => analog::popcount(bits).cost(),
        OpKind::ShiftL(k) => analog::shift_left(bits, k).cost(),
        // Right shift is the same AAP row remapping in the other
        // direction (plus one DCC pass for the arithmetic fill).
        OpKind::ShiftR(k) => analog::shift_left(bits, k).cost(),
        OpKind::Select => analog::select(bits).cost(),
        OpKind::Broadcast(v) => analog::broadcast(bits, v as u64).cost(),
        OpKind::RedSum => analog::red_sum(bits, signed).cost(),
        // Associative min/max: the candidate-mask narrowing needs an AND
        // per bit plus the popcount survival test.
        OpKind::RedMin | OpKind::RedMax => {
            analog::binary(gen::BinaryOp::And, bits).cost()
                + Cost {
                    popcount_reads: bits as u64,
                    ..Cost::default()
                }
        }
        OpKind::Copy => analog::copy(bits).cost(),
    }
}

fn stripe_time_ns(
    config: &DeviceConfig,
    tm: &mut TimingModel,
    cost: &Cost,
    pattern: RowPattern,
) -> f64 {
    let pe = &config.pe;
    // AAP = two activate–precharge pairs, TRA = one; both are pure
    // ACT/PRE cycles on the backend (no column access).
    tm.charge_rows(cost.row_reads, cost.row_writes, pattern)
        + cost.logic_ops as f64 * pe.bitserial_logic_ns
        + tm.charge_rows_extra(cost.popcount_reads, pe.bitserial_popcount_extra_ns, pattern)
        + tm.charge_activate_precharge(2 * cost.aap_ops)
        + tm.charge_activate_precharge(cost.tra_ops)
}

fn stripe_energy_mj(config: &DeviceConfig, cost: &Cost) -> f64 {
    let ap_nj = config.power.activate_precharge_energy_nj(&config.timing);
    // AAP = two activations; TRA = one triple activation drawing roughly
    // double current (three wordlines, shared charge).
    let row_equiv = (cost.row_reads + cost.row_writes + cost.popcount_reads) as f64
        + cost.aap_ops as f64 * 2.0
        + cost.tra_ops as f64 * 2.0;
    let gate_mj =
        cost.logic_ops as f64 * config.pe.bitserial_gate_pj * config.cols_per_core() as f64 * 1e-9;
    let pop_mj = cost.popcount_reads as f64
        * config.pe.bitserial_popcount_pj_per_bit
        * config.cols_per_core() as f64
        * 1e-9;
    row_equiv * ap_nj * 1e-6 + gate_mj + pop_mj
}

/// Latency and energy of `kind` on the analog bit-serial target.
pub(crate) fn cost(
    config: &DeviceConfig,
    tm: &mut TimingModel,
    kind: OpKind,
    dtype: DataType,
    layout: &ObjectLayout,
) -> OpCost {
    let per_stripe = program_cost(kind, dtype);
    let stripes = layout.units_per_core.max(1) as f64;
    let overflow = (layout.cores_used as f64 * config.decimation.max(1) as f64
        / config.physical_core_count() as f64)
        .max(1.0);
    let time_ms =
        stripe_time_ns(config, tm, &per_stripe, config.row_pattern) * stripes * overflow * 1e-6;
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

    fn layouts(n: u64) -> (DeviceConfig, DeviceConfig, ObjectLayout) {
        let digital = DeviceConfig::new(PimTarget::BitSerial, 4);
        let analog = DeviceConfig::new(PimTarget::AnalogBitSerial, 4);
        let layout = ObjectLayout::compute(&analog, n, DataType::Int32, None).unwrap();
        (digital, analog, layout)
    }

    #[test]
    fn analog_slower_than_digital_for_every_core_op() {
        let (digital, analog_cfg, layout) = layouts(1 << 20);
        for (kind, min_ratio) in [
            (OpKind::Binary(BinaryOp::Add), 2.0),
            (OpKind::Binary(BinaryOp::Mul), 2.0),
            (OpKind::Binary(BinaryOp::Xor), 2.0),
            (OpKind::Not, 1.0), // one DCC pass per bit is nearly as cheap
            (OpKind::Select, 2.0),
            (OpKind::Popcount, 2.0),
        ] {
            let td = crate::model::op_cost(&digital, kind, DataType::Int32, &layout).time_ms;
            let ta = crate::model::op_cost(&analog_cfg, kind, DataType::Int32, &layout).time_ms;
            assert!(ta > min_ratio * td, "{kind:?}: analog {ta} vs digital {td}");
        }
    }

    #[test]
    fn analog_energy_exceeds_digital() {
        let (digital, analog_cfg, layout) = layouts(1 << 20);
        let kind = OpKind::Binary(BinaryOp::Add);
        let ed = crate::model::op_cost(&digital, kind, DataType::Int32, &layout).energy_mj;
        let ea = crate::model::op_cost(&analog_cfg, kind, DataType::Int32, &layout).energy_mj;
        assert!(ea > ed, "analog {ea} vs digital {ed}");
    }

    #[test]
    fn analog_layout_is_vertical_like_digital() {
        let cfg = DeviceConfig::new(PimTarget::AnalogBitSerial, 1);
        let layout = ObjectLayout::compute(&cfg, 10_000, DataType::Int32, None).unwrap();
        assert_eq!(layout.layout, crate::object::DataLayout::Vertical);
        assert_eq!(cfg.core_count(), cfg.geometry.total_subarrays());
    }
}
