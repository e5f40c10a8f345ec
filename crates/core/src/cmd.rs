//! The typed command IR: [`PimCommand`], its shared functional
//! semantics ([`eval`]), and the batched execution plan.
//!
//! Every device operation is an instance of [`PimCommand`]: an
//! [`OpKind`], the input objects it reads, and the object it writes.
//! [`crate::Device::issue`] is the single choke point that validates,
//! executes, and charges one command; the eager `Device::add`/`mul`/…
//! methods are thin wrappers that build a command and issue it.
//!
//! The deferred recorder and its optimizer live in [`crate::stream`].

use std::collections::HashMap;

use pim_microcode::gen::{BinaryOp, CmpOp};

use crate::dtype::DataType;
use crate::object::ObjId;
use crate::ops::OpKind;

// ---------------------------------------------------------------------
// Command IR
// ---------------------------------------------------------------------

/// One device operation in IR form: what to do, what it reads, and what
/// it writes.
///
/// Invariants (checked by [`crate::Device::issue`], not the
/// constructors): `inputs.len()` matches [`OpKind::input_operands`] and
/// `dst` is `Some` exactly when [`OpKind::writes_output`] is true.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PimCommand {
    /// The operation.
    pub kind: OpKind,
    /// Objects read, in operand order.
    pub inputs: Vec<ObjId>,
    /// Object written, if the operation produces one.
    pub dst: Option<ObjId>,
}

impl PimCommand {
    /// A unary element-wise command `dst = kind(a)`.
    pub fn elementwise1(kind: OpKind, a: ObjId, dst: ObjId) -> PimCommand {
        PimCommand {
            kind,
            inputs: vec![a],
            dst: Some(dst),
        }
    }

    /// A binary element-wise command `dst = kind(a, b)`.
    pub fn elementwise2(kind: OpKind, a: ObjId, b: ObjId, dst: ObjId) -> PimCommand {
        PimCommand {
            kind,
            inputs: vec![a, b],
            dst: Some(dst),
        }
    }

    /// `dst = cond ? a : b`.
    pub fn select(cond: ObjId, a: ObjId, b: ObjId, dst: ObjId) -> PimCommand {
        PimCommand {
            kind: OpKind::Select,
            inputs: vec![cond, a, b],
            dst: Some(dst),
        }
    }

    /// `dst = (a OP b) ? x : y` in one pass.
    pub fn fused_cmp_select(
        op: CmpOp,
        a: ObjId,
        b: ObjId,
        x: ObjId,
        y: ObjId,
        dst: ObjId,
    ) -> PimCommand {
        PimCommand {
            kind: OpKind::FusedCmpSelect(op),
            inputs: vec![a, b, x, y],
            dst: Some(dst),
        }
    }

    /// `dst = a * k + b` in one pass.
    pub fn scaled_add(a: ObjId, b: ObjId, dst: ObjId, k: i64) -> PimCommand {
        PimCommand {
            kind: OpKind::ScaledAdd(k),
            inputs: vec![a, b],
            dst: Some(dst),
        }
    }

    /// Fills `dst` with `value`.
    pub fn broadcast(dst: ObjId, value: i64) -> PimCommand {
        PimCommand {
            kind: OpKind::Broadcast(value),
            inputs: vec![],
            dst: Some(dst),
        }
    }

    /// Device-to-device copy.
    pub fn copy(src: ObjId, dst: ObjId) -> PimCommand {
        PimCommand {
            kind: OpKind::Copy,
            inputs: vec![src],
            dst: Some(dst),
        }
    }

    /// A full-object reduction (no destination object).
    pub fn reduce(kind: OpKind, a: ObjId) -> PimCommand {
        PimCommand {
            kind,
            inputs: vec![a],
            dst: None,
        }
    }
}

/// The value produced by issuing one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdValue {
    /// Element-wise commands write their result into `dst`.
    Unit,
    /// `RedMin` / `RedMax` return one element.
    Int(i64),
    /// `RedSum` returns a widening sum.
    Wide(i128),
}

// ---------------------------------------------------------------------
// Functional semantics
// ---------------------------------------------------------------------

/// Per-element functional semantics of an element-wise `kind`, shared by
/// every target (the paper's targets differ in *cost*, never in result).
///
/// `inputs` holds the canonical stored values in operand order; the
/// returned value is truncated to `dtype`'s canonical form. Fused kinds
/// truncate their intermediate exactly as the eager pair would, so a
/// fused command is bit-identical to the sequence it replaced.
///
/// # Panics
///
/// On reduction kinds (`RedSum`/`RedMin`/`RedMax`), which fold across
/// elements and are handled by [`crate::Device::issue`] directly.
pub fn eval(kind: OpKind, dtype: DataType, inputs: &[i64]) -> i64 {
    let d = dtype;
    let v = match kind {
        OpKind::Binary(b) => binary(b, inputs[0], inputs[1]),
        OpKind::BinaryScalar(b, k) => binary(b, inputs[0], k),
        OpKind::Cmp(c) => cmp_mask(c, d, inputs[0], inputs[1]),
        OpKind::CmpScalar(c, k) => cmp_mask(c, d, inputs[0], d.truncate(k)),
        OpKind::Min => pick(
            d.compare(inputs[0], inputs[1]).is_lt(),
            inputs[0],
            inputs[1],
        ),
        OpKind::Max => pick(
            d.compare(inputs[0], inputs[1]).is_gt(),
            inputs[0],
            inputs[1],
        ),
        OpKind::MinScalar(k) => {
            let k = d.truncate(k);
            pick(d.compare(inputs[0], k).is_lt(), inputs[0], k)
        }
        OpKind::MaxScalar(k) => {
            let k = d.truncate(k);
            pick(d.compare(inputs[0], k).is_gt(), inputs[0], k)
        }
        OpKind::Not => !inputs[0],
        OpKind::Abs => {
            if d.is_signed() {
                inputs[0].wrapping_abs()
            } else {
                inputs[0]
            }
        }
        OpKind::Popcount => {
            let u = (inputs[0] as u64) & pim_microcode::encode::mask(d.bits());
            u.count_ones() as i64
        }
        OpKind::ShiftL(k) => {
            if k >= d.bits().min(64) {
                0
            } else {
                ((inputs[0] as u64) << k) as i64
            }
        }
        OpKind::ShiftR(k) => {
            if d.is_signed() {
                // Canonical signed values are sign-extended i64s.
                inputs[0] >> k.min(63)
            } else {
                let u = (inputs[0] as u64) & pim_microcode::encode::mask(d.bits());
                if k >= 64 {
                    0
                } else {
                    (u >> k) as i64
                }
            }
        }
        OpKind::Select => pick(inputs[0] != 0, inputs[1], inputs[2]),
        OpKind::ScaledAdd(k) => {
            // Truncate the product exactly as the eager mul_scalar would
            // have stored it before the add reads it back.
            let t = d.truncate(inputs[0].wrapping_mul(k));
            t.wrapping_add(inputs[1])
        }
        OpKind::FusedCmpSelect(c) => pick(
            cmp_mask(c, d, inputs[0], inputs[1]) != 0,
            inputs[2],
            inputs[3],
        ),
        OpKind::Broadcast(v) => v,
        OpKind::Copy => inputs[0],
        OpKind::RedSum | OpKind::RedMin | OpKind::RedMax => {
            unreachable!("reductions fold across elements; eval is per-element")
        }
    };
    d.truncate(v)
}

fn binary(b: BinaryOp, x: i64, y: i64) -> i64 {
    match b {
        BinaryOp::Add => x.wrapping_add(y),
        BinaryOp::Sub => x.wrapping_sub(y),
        BinaryOp::Mul => x.wrapping_mul(y),
        BinaryOp::And => x & y,
        BinaryOp::Or => x | y,
        BinaryOp::Xor => x ^ y,
        BinaryOp::Xnor => !(x ^ y),
    }
}

fn cmp_mask(c: CmpOp, d: DataType, x: i64, y: i64) -> i64 {
    i64::from(match c {
        CmpOp::Lt => d.compare(x, y).is_lt(),
        CmpOp::Gt => d.compare(x, y).is_gt(),
        CmpOp::Eq => x == y,
    })
}

fn pick(cond: bool, x: i64, y: i64) -> i64 {
    if cond {
        x
    } else {
        y
    }
}

// ---------------------------------------------------------------------
// Batched execution plan (used by Device::exec_batch)
// ---------------------------------------------------------------------

/// One command lowered onto the batch's slot table. Each input carries
/// a `from_local` flag: true when an earlier step in the batch writes
/// that slot, so per-element execution must read the chunk-local
/// intermediate instead of the object's pre-batch buffer. The step
/// sequence is identical for every element, so the flag is static.
pub(crate) struct BatchStep {
    pub kind: OpKind,
    pub dtype: DataType,
    pub ins: Vec<(usize, bool)>,
    pub dst: usize,
}

/// Assigns every object touched by `cmds` a dense slot index and lowers
/// each command to slot references. Returns the slot→object table and
/// the step list. Caller guarantees every command writes a destination.
pub(crate) fn batch_plan(
    cmds: &[PimCommand],
    dtype_of: impl Fn(ObjId) -> DataType,
) -> (Vec<ObjId>, Vec<BatchStep>) {
    let mut slot_of: HashMap<ObjId, usize> = HashMap::new();
    let mut slots: Vec<ObjId> = Vec::new();
    let slot = |id: ObjId, slots: &mut Vec<ObjId>, slot_of: &mut HashMap<ObjId, usize>| {
        *slot_of.entry(id).or_insert_with(|| {
            slots.push(id);
            slots.len() - 1
        })
    };
    let mut written: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let steps = cmds
        .iter()
        .map(|cmd| {
            let dst = cmd.dst.expect("batched commands write a destination");
            let step = BatchStep {
                kind: cmd.kind,
                dtype: dtype_of(dst),
                ins: cmd
                    .inputs
                    .iter()
                    .map(|&id| {
                        let s = slot(id, &mut slots, &mut slot_of);
                        (s, written.contains(&s))
                    })
                    .collect(),
                dst: slot(dst, &mut slots, &mut slot_of),
            };
            written.insert(step.dst);
            step
        })
        .collect();
    (slots, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjId {
        ObjId(n)
    }

    #[test]
    fn eval_matches_eager_scalar_semantics() {
        let d = DataType::Int8;
        // Product truncates before the add, exactly like the eager pair.
        let fused = eval(OpKind::ScaledAdd(3), d, &[50, 1]);
        let t = d.truncate(50i64.wrapping_mul(3));
        assert_eq!(fused, d.truncate(t.wrapping_add(1)));
        // Unsigned comparison respects u64 order.
        assert_eq!(eval(OpKind::Cmp(CmpOp::Lt), DataType::UInt8, &[255, 1]), 0);
        assert_eq!(
            eval(
                OpKind::FusedCmpSelect(CmpOp::Gt),
                DataType::Int32,
                &[5, 3, 7, 9]
            ),
            7
        );
        assert_eq!(eval(OpKind::MinScalar(300), DataType::UInt8, &[10]), 10);
    }

    #[test]
    fn batch_plan_assigns_dense_slots() {
        let (a, b, t, d) = (id(1), id(2), id(3), id(4));
        let cmds = vec![
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), a, b, t),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Mul), t, b, d),
        ];
        let (slots, steps) = batch_plan(&cmds, |_| DataType::Int32);
        assert_eq!(slots, vec![a, b, t, d]);
        assert_eq!(steps[0].ins, vec![(0, false), (1, false)]);
        assert_eq!(steps[0].dst, 2);
        // t was written by step 0, so step 1 reads the local value.
        assert_eq!(steps[1].ins, vec![(2, true), (1, false)]);
        assert_eq!(steps[1].dst, 3);
    }
}
