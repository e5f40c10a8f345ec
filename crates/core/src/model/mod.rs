//! Performance and energy models for the PIM targets (§V-C, §V-D).
//!
//! Each question a command asks of its target is one exhaustive `match`
//! on [`PimTarget`]: [`validate`] checks the layout, [`op_cost_with`]
//! prices it and [`micro_cost`] annotates its statistics and trace
//! events. Adding a target is one arm in each. Functional semantics are
//! not part of the model: [`crate::cmd`] computes them once for every
//! target — every target computes the same values at different cost.
//! The bit-serial family derives its counts from the same microprograms
//! the functional VM executes; the bit-parallel models use closed-form
//! row-traffic + ALU formulas with walker pipelining.

mod analog;
mod bitserial;
mod parallel;
mod upmem;

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Mutex, OnceLock};

use pim_dram::{TimingBackend, TimingModel};
use pim_microcode::Cost;

use crate::config::{DeviceConfig, PimTarget};
use crate::dtype::DataType;
use crate::error::{PimError, Result};
use crate::object::{DataLayout, IdHasher, ObjectLayout};
use crate::ops::OpKind;

/// Process-wide memo for per-stripe microprogram costs.
///
/// `program_cost` used to regenerate the full microprogram on *every*
/// charged command; with the memo each distinct `(OpKind, DataType)`
/// pair invokes the generators at most once per process (verified by
/// `tests/cost_cache.rs` against `MicroProgram::generated_count`). The
/// map is bounded: scalar immediates are part of `OpKind`'s identity, so
/// a workload sweeping many distinct constants would otherwise grow it
/// without limit — past [`CostMemo::CAP`] entries it is cleared
/// wholesale, which only costs a regeneration. Every charged command
/// looks its key up here, so the key is hashed with the in-tree
/// [`IdHasher`] rather than SipHash.
pub(crate) struct CostMemo {
    map: OnceLock<Mutex<MemoMap>>,
}

type MemoMap = HashMap<(OpKind, DataType), Cost, BuildHasherDefault<IdHasher>>;

impl CostMemo {
    const CAP: usize = 4096;

    pub(crate) const fn new() -> Self {
        CostMemo {
            map: OnceLock::new(),
        }
    }

    /// Returns the memoized cost for `key`, computing it with `generate`
    /// (outside the lock) on first use.
    pub(crate) fn get_or_generate(
        &self,
        key: (OpKind, DataType),
        generate: impl FnOnce() -> Cost,
    ) -> Cost {
        let map = self.map.get_or_init(|| Mutex::new(MemoMap::default()));
        if let Some(c) = map.lock().unwrap().get(&key) {
            return *c;
        }
        let cost = generate();
        let mut guard = map.lock().unwrap();
        if guard.len() >= Self::CAP {
            guard.clear();
        }
        guard.insert(key, cost);
        cost
    }
}

/// Modeled cost of one PIM API call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCost {
    /// Kernel time in milliseconds.
    pub time_ms: f64,
    /// Kernel energy in millijoules (excludes background energy, which is
    /// accounted per-run from total kernel time).
    pub energy_mj: f64,
}

impl OpCost {
    /// Sums two costs (sequential composition).
    #[must_use]
    pub fn plus(self, other: OpCost) -> OpCost {
        OpCost {
            time_ms: self.time_ms + other.time_ms,
            energy_mj: self.energy_mj + other.energy_mj,
        }
    }
}

/// Checks target-specific requirements for one command — today the
/// data-layout orientation the target's row walkers expect.
///
/// # Errors
///
/// [`PimError::NotSupported`] when the object layout does not match the
/// target's orientation.
pub fn validate(
    target: PimTarget,
    kind: OpKind,
    dtype: DataType,
    layout: &ObjectLayout,
) -> Result<()> {
    let expected = if target.is_horizontal() {
        DataLayout::Horizontal
    } else {
        DataLayout::Vertical
    };
    if layout.layout != expected {
        return Err(PimError::NotSupported(format!(
            "{} on {target} requires a {expected:?} layout, got {:?}",
            kind.stat_name(dtype),
            layout.layout
        )));
    }
    Ok(())
}

/// The `backend` timing model of a `config` device: one rank's worth of
/// banks (ranks run a command in lockstep, so one rank's bank state
/// stands for every rank's) and the geometry's row width.
pub(crate) fn timing_model(config: &DeviceConfig, backend: TimingBackend) -> TimingModel {
    let row_bytes = (config.geometry.cols_per_row as u64 / 8).max(64);
    TimingModel::new(
        backend,
        &config.timing,
        config.geometry.banks_per_rank,
        row_bytes,
    )
}

/// Models the latency and energy of `kind` applied to an object with
/// `layout` holding elements of `dtype` under the stateless closed-form
/// timing math: [`op_cost_with`] on a fresh analytical timing model.
/// Device charge paths call [`op_cost_with`] directly so the bank FSM
/// sees every access.
pub fn op_cost(
    config: &DeviceConfig,
    kind: OpKind,
    dtype: DataType,
    layout: &ObjectLayout,
) -> OpCost {
    op_cost_with(
        config,
        &mut timing_model(config, TimingBackend::Analytical),
        kind,
        dtype,
        layout,
    )
}

/// Models the latency and energy of `kind` applied to an object with
/// `layout` holding elements of `dtype`, charging all DRAM time through
/// the timing model `tm` (execute-once-and-stall: under the bank FSM,
/// pricing advances the bank state and leaves the issued commands
/// pending in `tm`).
pub fn op_cost_with(
    config: &DeviceConfig,
    tm: &mut TimingModel,
    kind: OpKind,
    dtype: DataType,
    layout: &ObjectLayout,
) -> OpCost {
    match config.target {
        PimTarget::BitSerial => bitserial::cost(config, tm, kind, dtype, layout),
        PimTarget::Fulcrum => parallel::cost_fulcrum(config, tm, kind, dtype, layout),
        PimTarget::BankLevel => parallel::cost_bank(config, tm, kind, dtype, layout),
        PimTarget::AnalogBitSerial => analog::cost(config, tm, kind, dtype, layout),
        PimTarget::UpmemLike => upmem::cost(config, tm, kind, dtype, layout),
    }
}

/// Row-level microprogram counters for `kind` on one core: the per-stripe
/// program cost scaled by the stripes the core processes. `None` for the
/// word-parallel targets, which run no microprograms.
pub fn micro_cost(
    config: &DeviceConfig,
    kind: OpKind,
    dtype: DataType,
    layout: &ObjectLayout,
) -> Option<Cost> {
    let stripe = match config.target {
        PimTarget::BitSerial => bitserial::program_cost(kind, dtype),
        PimTarget::AnalogBitSerial => analog::program_cost(kind, dtype),
        PimTarget::Fulcrum | PimTarget::BankLevel | PimTarget::UpmemLike => return None,
    };
    Some(stripe.scaled(layout.units_per_core.max(1)))
}

/// Cross-core merge cost for reductions: every used core ships an 8-byte
/// partial sum to the controller over the rank interface.
pub(crate) fn reduction_merge(
    config: &DeviceConfig,
    tm: &mut TimingModel,
    cores_used: usize,
) -> OpCost {
    // Physical cores each ship one partial sum (decimation-aware,
    // clamped to the machine's real core count).
    let bytes = config.physical_cores_represented(cores_used) as u64 * 8;
    let time_ms = tm.charge_host_copy(bytes, config.geometry.ranks);
    let energy_mj = config.power.transfer_energy_mj(time_ms, true);
    OpCost { time_ms, energy_mj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_microcode::gen::BinaryOp;

    fn layout_for(config: &DeviceConfig, n: u64) -> ObjectLayout {
        ObjectLayout::compute(config, n, DataType::Int32, None).unwrap()
    }

    #[test]
    fn bitserial_wins_add_fulcrum_wins_mul() {
        // The paper's headline sensitivity result (§VII, Fig. 6).
        let n = 1u64 << 28; // 256M, the Fig. 6 input size
        let mut add = Vec::new();
        let mut mul = Vec::new();
        for target in PimTarget::ALL {
            let cfg = DeviceConfig::new(target, 32);
            let layout = layout_for(&cfg, n);
            add.push(
                op_cost(
                    &cfg,
                    OpKind::Binary(BinaryOp::Add),
                    DataType::Int32,
                    &layout,
                )
                .time_ms,
            );
            mul.push(
                op_cost(
                    &cfg,
                    OpKind::Binary(BinaryOp::Mul),
                    DataType::Int32,
                    &layout,
                )
                .time_ms,
            );
        }
        // add: bit-serial fastest.
        assert!(add[0] < add[1] && add[0] < add[2], "add latencies {add:?}");
        // mul: Fulcrum fastest; bit-serial still beats bank-level.
        assert!(mul[1] < mul[0] && mul[1] < mul[2], "mul latencies {mul:?}");
        assert!(
            mul[0] < mul[2],
            "bit-serial should beat bank-level on mul: {mul:?}"
        );
    }

    #[test]
    fn popcount_bank_and_bitserial_beat_fulcrum() {
        let n = 1u64 << 28; // 256M, the Fig. 6 input size
        let mut pop = Vec::new();
        for target in PimTarget::ALL {
            let cfg = DeviceConfig::new(target, 32);
            let layout = layout_for(&cfg, n);
            pop.push(op_cost(&cfg, OpKind::Popcount, DataType::Int32, &layout).time_ms);
        }
        assert!(
            pop[2] < pop[1],
            "bank-level popcount beats Fulcrum: {pop:?}"
        );
        assert!(
            pop[0] < pop[1],
            "bit-serial popcount beats Fulcrum: {pop:?}"
        );
    }

    #[test]
    fn reduction_bitserial_fastest() {
        let n = 1u64 << 28; // 256M, the Fig. 6 input size
        let mut red = Vec::new();
        for target in PimTarget::ALL {
            let cfg = DeviceConfig::new(target, 32);
            let layout = layout_for(&cfg, n);
            red.push(op_cost(&cfg, OpKind::RedSum, DataType::Int32, &layout).time_ms);
        }
        assert!(
            red[0] < red[1] && red[0] < red[2],
            "reduction latencies {red:?}"
        );
    }

    #[test]
    fn more_ranks_never_slower() {
        let n = 1 << 26;
        for target in PimTarget::ALL {
            let mut prev = f64::INFINITY;
            for ranks in [1, 2, 4, 8, 16, 32] {
                let cfg = DeviceConfig::new(target, ranks);
                let layout = layout_for(&cfg, n);
                let t = op_cost(
                    &cfg,
                    OpKind::Binary(BinaryOp::Add),
                    DataType::Int32,
                    &layout,
                )
                .time_ms;
                assert!(
                    t <= prev * 1.0001,
                    "{target}: ranks={ranks} t={t} prev={prev}"
                );
                prev = t;
            }
        }
    }

    #[test]
    fn bitserial_mul_quadratic_in_width() {
        let cfg = DeviceConfig::new(PimTarget::BitSerial, 4);
        let n = 1 << 20;
        let l8 = ObjectLayout::compute(&cfg, n, DataType::Int8, None).unwrap();
        let l32 = ObjectLayout::compute(&cfg, n, DataType::Int32, None).unwrap();
        let t8 = op_cost(&cfg, OpKind::Binary(BinaryOp::Mul), DataType::Int8, &l8).time_ms;
        let t32 = op_cost(&cfg, OpKind::Binary(BinaryOp::Mul), DataType::Int32, &l32).time_ms;
        assert!(t32 / t8 > 8.0, "quadratic width scaling, got {}", t32 / t8);
    }

    #[test]
    fn fulcrum_mul_width_independent_within_word() {
        let cfg = DeviceConfig::new(PimTarget::Fulcrum, 4);
        let n = 1 << 20;
        let l32 = ObjectLayout::compute(&cfg, n, DataType::Int32, None).unwrap();
        let t_add = op_cost(&cfg, OpKind::Binary(BinaryOp::Add), DataType::Int32, &l32).time_ms;
        let t_mul = op_cost(&cfg, OpKind::Binary(BinaryOp::Mul), DataType::Int32, &l32).time_ms;
        assert!(
            (t_mul / t_add - 1.0).abs() < 1e-9,
            "1 cycle each on the scalar ALU"
        );
    }

    #[test]
    fn validate_rejects_the_other_orientation_and_names_the_target() {
        let add = OpKind::Binary(BinaryOp::Add);
        for target in PimTarget::EXTENDED {
            let own = layout_for(&DeviceConfig::new(target, 1), 1 << 12);
            assert!(validate(target, add, DataType::Int32, &own).is_ok());
            let other = if target.is_horizontal() {
                PimTarget::BitSerial
            } else {
                PimTarget::Fulcrum
            };
            let foreign = layout_for(&DeviceConfig::new(other, 1), 1 << 12);
            match validate(target, add, DataType::Int32, &foreign) {
                Err(PimError::NotSupported(msg)) => {
                    assert!(
                        msg.starts_with(&format!("add.int32 on {target} requires")),
                        "{msg}"
                    );
                }
                r => panic!("{target}: expected NotSupported, got {r:?}"),
            }
        }
    }

    #[test]
    fn energy_is_positive_and_additive() {
        let cfg = DeviceConfig::new(PimTarget::Fulcrum, 4);
        let layout = layout_for(&cfg, 1 << 20);
        let a = op_cost(
            &cfg,
            OpKind::Binary(BinaryOp::Add),
            DataType::Int32,
            &layout,
        );
        assert!(a.energy_mj > 0.0 && a.time_ms > 0.0);
        let sum = a.plus(a);
        assert!((sum.energy_mj - 2.0 * a.energy_mj).abs() < 1e-12);
    }
}
