//! Bit-parallel performance and energy models: Fulcrum (subarray-level)
//! and bank-level PIM.
//!
//! Both architectures stream rows through walkers and process elements on
//! a scalar ALU/ALPU. The three walkers let operand fetch overlap with
//! compute (the paper notes AXPY's second operand fetch "can be pipelined
//! with the scaling"), so per-core time is
//! `max(row traffic, compute) + one startup row read`. Bank-level PIM
//! additionally pays the narrow-GDL crossing for every row moved between
//! a subarray row buffer and the bank-level walkers, which is exactly why
//! it loses to Fulcrum in the paper despite an identical ALPU.

use pim_dram::TimingModel;

use crate::config::DeviceConfig;
use crate::dtype::DataType;
use crate::object::ObjectLayout;
use crate::ops::OpKind;

use super::{reduction_merge, OpCost};

struct Traffic {
    rows_in: f64,
    rows_out: f64,
    /// ALU cycles on the busiest core.
    cycles: f64,
    elems: f64,
}

fn traffic(
    kind: OpKind,
    dtype: DataType,
    layout: &ObjectLayout,
    alu_width: u32,
    popcount_cycles: u32,
) -> Traffic {
    let units = layout.units_per_core.max(1) as f64;
    let elems = layout.elems_per_core.max(1) as f64;
    let rows_in = kind.input_operands() as f64 * units;
    let rows_out = if kind.writes_output() { units } else { 0.0 };
    // SIMD lanes for narrow types; extra cycles for types wider than the
    // datapath (a 32-bit ALU takes two cycles per 64-bit element).
    let bits = dtype.bits() as f64;
    let width = alu_width as f64;
    // Types wider than the datapath take ceil(bits/width) cycles per op;
    // narrower types pack width/bits SIMD lanes into one cycle.
    let width_factor = if bits >= width {
        (bits / width).ceil()
    } else {
        bits / width
    };
    let per_elem = kind.alu_cycles(popcount_cycles) as f64 * width_factor;
    // Broadcast/copy move rows without per-element ALU work; charge one
    // register cycle per row for the walker fill.
    let cycles = match kind {
        OpKind::Copy | OpKind::Broadcast(_) => units,
        _ => elems * per_elem,
    };
    Traffic {
        rows_in,
        rows_out,
        cycles,
        elems,
    }
}

fn combine(
    config: &DeviceConfig,
    tm: &mut TimingModel,
    t: &Traffic,
    layout: &ObjectLayout,
    gdl: bool,
    kind: OpKind,
) -> OpCost {
    let timing = &config.timing;
    let pe = &config.pe;
    let cols = config.cols_per_core() as f64;
    let gdl_ns = if gdl {
        timing.gdl_row_transfer_ns(config.cols_per_core())
    } else {
        0.0
    };

    // When the decimation factor exceeds the physical core count, the
    // paper-scale machine holds `overflow`× more rows/elements per core
    // than the scaled functional run; restore that serialization.
    let overflow = (layout.cores_used as f64 * config.decimation.max(1) as f64
        / config.physical_core_count() as f64)
        .max(1.0);
    // Walker row traffic goes through the timing model: each row pays
    // its GDL crossing on top of the row cycle, and stateful backends
    // add any bank interlock stalls.
    let row_ns = tm.charge_walker_rows(t.rows_in, t.rows_out, gdl_ns, config.row_pattern);
    let compute_ns = t.cycles * config.alu_period_ns();
    let startup_ns = tm.charge_walker_rows(1.0, 0.0, gdl_ns, config.row_pattern);
    // With the three walkers, fetch overlaps compute (max); without
    // pipelining they serialize (sum) — the ablation knob.
    let busy_ns = if pe.walker_pipelining {
        row_ns.max(compute_ns)
    } else {
        row_ns + compute_ns
    };
    let time_ms = (busy_ns * overflow + startup_ns) * 1e-6;

    // Energy: activations for every row touched, walker latching, GDL
    // crossings (bank-level only), and ALU ops. The ALPU is assumed to
    // draw Fulcrum-ALU-like power (§V-D), scaled by datapath width.
    let ap_nj = config.power.activate_precharge_energy_nj(timing);
    let rows = t.rows_in + t.rows_out;
    let ap_mj = rows * ap_nj * 1e-6;
    let walker_mj = rows * cols * pe.walker_pj_per_bit * 1e-9;
    let gdl_mj = if gdl {
        rows * cols * pe.gdl_pj_per_bit * 1e-9
    } else {
        0.0
    };
    let width_scale = if gdl {
        config.pe.bank_alu_width_bits as f64 / 32.0
    } else {
        1.0
    };
    let alu_mj = match kind {
        OpKind::Copy | OpKind::Broadcast(_) => 0.0,
        _ => t.cycles * pe.alu_op_pj * width_scale * 1e-9,
    };
    let _ = t.elems;
    // Energy counts physical cores (×decimation, clamped to the device)
    // and the same per-core serialization overflow.
    let energy_mj = (ap_mj + walker_mj + gdl_mj + alu_mj)
        * overflow
        * config.physical_cores_represented(layout.cores_used) as f64;
    OpCost { time_ms, energy_mj }
}

/// Fulcrum: 32-bit scalar ALU, no GDL crossing (walkers sit at the local
/// row buffer), 12-cycle SWAR popcount.
pub(crate) fn cost_fulcrum(
    config: &DeviceConfig,
    tm: &mut TimingModel,
    kind: OpKind,
    dtype: DataType,
    layout: &ObjectLayout,
) -> OpCost {
    let t = traffic(kind, dtype, layout, 32, config.pe.fulcrum_popcount_cycles);
    let mut out = combine(config, tm, &t, layout, false, kind);
    if matches!(kind, OpKind::RedSum | OpKind::RedMin | OpKind::RedMax) {
        out = out.plus(reduction_merge(config, tm, layout.cores_used));
    }
    out
}

/// Bank-level PIM: 64-bit ALPU behind a 128-bit GDL, single-cycle
/// popcount.
pub(crate) fn cost_bank(
    config: &DeviceConfig,
    tm: &mut TimingModel,
    kind: OpKind,
    dtype: DataType,
    layout: &ObjectLayout,
) -> OpCost {
    let t = traffic(kind, dtype, layout, config.pe.bank_alu_width_bits, 1);
    let mut out = combine(config, tm, &t, layout, true, kind);
    if matches!(kind, OpKind::RedSum | OpKind::RedMin | OpKind::RedMax) {
        out = out.plus(reduction_merge(config, tm, layout.cores_used));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimTarget;
    use crate::object::ObjectLayout;
    use pim_microcode::gen::BinaryOp;

    fn cost_fulcrum(
        config: &DeviceConfig,
        kind: OpKind,
        dtype: DataType,
        layout: &ObjectLayout,
    ) -> OpCost {
        let mut tm = super::super::timing_model(config, pim_dram::TimingBackend::Analytical);
        super::cost_fulcrum(config, &mut tm, kind, dtype, layout)
    }

    fn cost_bank(
        config: &DeviceConfig,
        kind: OpKind,
        dtype: DataType,
        layout: &ObjectLayout,
    ) -> OpCost {
        let mut tm = super::super::timing_model(config, pim_dram::TimingBackend::Analytical);
        super::cost_bank(config, &mut tm, kind, dtype, layout)
    }

    #[test]
    fn bank_pays_gdl_fulcrum_does_not() {
        let f = DeviceConfig::new(PimTarget::Fulcrum, 4);
        let b = DeviceConfig::new(PimTarget::BankLevel, 4);
        // Same element count per core to isolate the GDL penalty.
        let n = 1u64 << 20;
        let lf = ObjectLayout::compute(&f, n, DataType::Int32, None).unwrap();
        let lb = ObjectLayout::compute(&b, n, DataType::Int32, None).unwrap();
        let tf = cost_fulcrum(&f, OpKind::Binary(BinaryOp::Add), DataType::Int32, &lf).time_ms;
        let tb = cost_bank(&b, OpKind::Binary(BinaryOp::Add), DataType::Int32, &lb).time_ms;
        assert!(tb > tf, "bank-level ({tb} ms) must trail Fulcrum ({tf} ms)");
    }

    #[test]
    fn popcount_cheaper_on_bank_alu() {
        let b = DeviceConfig::new(PimTarget::BankLevel, 4);
        let lb = ObjectLayout::compute(&b, 1u64 << 26, DataType::Int32, None).unwrap();
        let pop = cost_bank(&b, OpKind::Popcount, DataType::Int32, &lb).time_ms;
        let f = DeviceConfig::new(PimTarget::Fulcrum, 4);
        let lf = ObjectLayout::compute(&f, 1u64 << 26, DataType::Int32, None).unwrap();
        let popf = cost_fulcrum(&f, OpKind::Popcount, DataType::Int32, &lf).time_ms;
        let addf = cost_fulcrum(&f, OpKind::Binary(BinaryOp::Add), DataType::Int32, &lf).time_ms;
        // Fulcrum's 12-cycle SWAR popcount must cost more than its add.
        assert!(popf > addf);
        let _ = pop;
    }

    #[test]
    fn simd_lanes_speed_up_narrow_types() {
        let f = DeviceConfig::new(PimTarget::Fulcrum, 1);
        let n = 1u64 << 26; // large enough to be compute-bound
        let l8 = ObjectLayout::compute(&f, n, DataType::Int8, None).unwrap();
        let l32 = ObjectLayout::compute(&f, n, DataType::Int32, None).unwrap();
        let t8 = cost_fulcrum(&f, OpKind::Binary(BinaryOp::Add), DataType::Int8, &l8).time_ms;
        let t32 = cost_fulcrum(&f, OpKind::Binary(BinaryOp::Add), DataType::Int32, &l32).time_ms;
        assert!(t8 < t32, "4 SIMD lanes for int8: {t8} vs {t32}");
    }

    #[test]
    fn wide_types_cost_extra_cycles() {
        let f = DeviceConfig::new(PimTarget::Fulcrum, 1);
        let n = 1u64 << 26;
        let l64 = ObjectLayout::compute(&f, n, DataType::Int64, None).unwrap();
        let l32 = ObjectLayout::compute(&f, n, DataType::Int32, None).unwrap();
        let t64 = cost_fulcrum(&f, OpKind::Binary(BinaryOp::Add), DataType::Int64, &l64).time_ms;
        let t32 = cost_fulcrum(&f, OpKind::Binary(BinaryOp::Add), DataType::Int32, &l32).time_ms;
        assert!(t64 > t32);
    }

    #[test]
    fn copy_has_no_alu_energy() {
        let f = DeviceConfig::new(PimTarget::Fulcrum, 1);
        let l = ObjectLayout::compute(&f, 1u64 << 20, DataType::Int32, None).unwrap();
        let copy = cost_fulcrum(&f, OpKind::Copy, DataType::Int32, &l);
        let add = cost_fulcrum(&f, OpKind::Binary(BinaryOp::Add), DataType::Int32, &l);
        assert!(copy.energy_mj < add.energy_mj);
    }
}
