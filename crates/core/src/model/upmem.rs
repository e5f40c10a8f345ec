//! UPMEM-like toy model (§V-E): one scalar in-order DPU per bank.
//!
//! The paper validates PIMeval against real UPMEM hardware with a "toy
//! UPMEM model" and reports it 23–35 % *slower* than the hardware,
//! attributed to not modeling tasklets. This reproduction's version
//! makes the same simplification explicit with a `dpu_ipc < 1`
//! effective-issue factor ([`crate::PeParams::dpu_ipc`]): DPUs only
//! reach ~1 IPC with 11 resident tasklets, and a naïve port runs
//! under-threaded.
//!
//! Per-op time per DPU is a DMA/compute roofline:
//! `max(bytes_touched / mram_bw, insns / (freq × ipc))`.

use pim_dram::TimingModel;

use crate::config::DeviceConfig;
use crate::dtype::DataType;
use crate::object::ObjectLayout;
use crate::ops::OpKind;

use super::{reduction_merge, OpCost};

/// Scalar instructions per element for `kind` on a DPU without native
/// SIMD, multiply, or popcount shortcuts.
fn insns_per_elem(kind: OpKind, base: f64) -> f64 {
    match kind {
        // 32×32 multiply is a multi-instruction sequence on the DPU ISA.
        OpKind::Binary(pim_microcode::gen::BinaryOp::Mul)
        | OpKind::BinaryScalar(pim_microcode::gen::BinaryOp::Mul, _) => base + 24.0,
        // SWAR popcount, as on Fulcrum.
        OpKind::Popcount => base + 12.0,
        // Reductions keep the accumulator in a register: no store.
        OpKind::RedSum | OpKind::RedMin | OpKind::RedMax => base - 1.0,
        // Fused pairs: the intermediate stays in a register, so the
        // second op costs one extra ALU instruction instead of a full
        // load/compute/store round per element.
        OpKind::ScaledAdd(_) => base + 25.0,
        OpKind::FusedCmpSelect(_) => base + 1.0,
        // Pure data movement.
        OpKind::Copy | OpKind::Broadcast(_) => 0.0,
        _ => base,
    }
}

/// Latency and energy of `kind` on the UPMEM-like target.
pub(crate) fn cost(
    config: &DeviceConfig,
    tm: &mut TimingModel,
    kind: OpKind,
    dtype: DataType,
    layout: &ObjectLayout,
) -> OpCost {
    let pe = &config.pe;
    let elems = layout.elems_per_core.max(1) as f64;
    let bytes_per_elem = (dtype.bits() as f64 / 8.0).max(1.0);
    let streams = kind.input_operands() as f64 + f64::from(kind.writes_output());
    let overflow = (layout.cores_used as f64 * config.decimation.max(1) as f64
        / config.physical_core_count() as f64)
        .max(1.0);

    // MRAM DMA is bandwidth-bound in both backends (B / (GB/s) = ns);
    // the FSM backend replays a bounded window for row-buffer counters.
    let dma_ns = tm.charge_burst(elems * bytes_per_elem * streams, pe.dpu_mram_gbs);
    let insns = elems * insns_per_elem(kind, pe.dpu_insns_per_elem);
    let compute_ns = insns / (pe.dpu_freq_mhz * pe.dpu_ipc) * 1e3;
    let time_ms = dma_ns.max(compute_ns) * overflow * 1e-6;

    // Energy: MRAM row activations for the streamed data plus DPU core
    // energy (~twice a Fulcrum ALU op per instruction: fetch + execute).
    let ap_nj = config.power.activate_precharge_energy_nj(&config.timing);
    let rows = elems * bytes_per_elem * streams * 8.0 / config.cols_per_core() as f64;
    let energy_mj = (rows * ap_nj * 1e-6 + insns * 2.0 * pe.alu_op_pj * 1e-9)
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

    #[test]
    fn upmem_trails_bank_level_on_streaming_add() {
        // A 350 MHz scalar DPU behind a 0.7 GB/s DMA cannot keep up with
        // the 64-bit ALPU fed by walkers.
        let n = 1u64 << 26;
        let up = DeviceConfig::new(PimTarget::UpmemLike, 4);
        let bank = DeviceConfig::new(PimTarget::BankLevel, 4);
        let lu = ObjectLayout::compute(&up, n, DataType::Int32, None).unwrap();
        let lb = ObjectLayout::compute(&bank, n, DataType::Int32, None).unwrap();
        let tu = crate::model::op_cost(&up, OpKind::Binary(BinaryOp::Add), DataType::Int32, &lu);
        let tb = crate::model::op_cost(&bank, OpKind::Binary(BinaryOp::Add), DataType::Int32, &lb);
        assert!(tu.time_ms > tb.time_ms, "upmem {tu:?} vs bank {tb:?}");
    }

    #[test]
    fn per_dpu_throughput_bounded_by_dma() {
        let cfg = DeviceConfig::new(PimTarget::UpmemLike, 1);
        let n = 1u64 << 24;
        let layout = ObjectLayout::compute(&cfg, n, DataType::Int32, None).unwrap();
        let t = crate::model::op_cost(
            &cfg,
            OpKind::Binary(BinaryOp::Add),
            DataType::Int32,
            &layout,
        );
        // Per-DPU bytes (3 streams) over the modeled time must not
        // exceed the MRAM DMA bandwidth.
        let bytes_per_dpu = layout.elems_per_core as f64 * 4.0 * 3.0;
        let gbs = bytes_per_dpu / (t.time_ms * 1e6);
        assert!(gbs <= cfg.pe.dpu_mram_gbs * 1.001, "per-DPU {gbs} GB/s");
    }

    #[test]
    fn mul_costs_more_than_add() {
        let cfg = DeviceConfig::new(PimTarget::UpmemLike, 1);
        let layout = ObjectLayout::compute(&cfg, 1 << 24, DataType::Int32, None).unwrap();
        let add = crate::model::op_cost(
            &cfg,
            OpKind::Binary(BinaryOp::Add),
            DataType::Int32,
            &layout,
        );
        let mul = crate::model::op_cost(
            &cfg,
            OpKind::Binary(BinaryOp::Mul),
            DataType::Int32,
            &layout,
        );
        assert!(mul.time_ms > add.time_ms);
    }
}
