//! The typed command IR: [`PimCommand`], its shared functional
//! semantics ([`exec_into`] per command, [`eval`] per element).
//!
//! Every device operation is an instance of [`PimCommand`]: an
//! [`OpKind`], the input objects it reads, and the object it writes.
//! [`crate::Device::issue`] is the single choke point that validates,
//! executes, and charges one command; the eager `Device::add`/`mul`/…
//! methods are thin wrappers that build a command and issue it.
//!
//! The deferred recorder and its optimizer live in [`crate::stream`].

use std::fmt;
use std::ops::{Deref, DerefMut};

use pim_dram::exec;
use pim_microcode::gen::{BinaryOp, CmpOp};

use crate::dtype::{DataType, Elem};
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
    pub inputs: Inputs,
    /// Object written, if the operation produces one.
    pub dst: Option<ObjId>,
}

impl PimCommand {
    /// A unary element-wise command `dst = kind(a)`.
    pub fn elementwise1(kind: OpKind, a: ObjId, dst: ObjId) -> PimCommand {
        PimCommand {
            kind,
            inputs: Inputs::from(&[a][..]),
            dst: Some(dst),
        }
    }

    /// A binary element-wise command `dst = kind(a, b)`.
    pub fn elementwise2(kind: OpKind, a: ObjId, b: ObjId, dst: ObjId) -> PimCommand {
        PimCommand {
            kind,
            inputs: Inputs::from(&[a, b][..]),
            dst: Some(dst),
        }
    }

    /// `dst = cond ? a : b`.
    pub fn select(cond: ObjId, a: ObjId, b: ObjId, dst: ObjId) -> PimCommand {
        PimCommand {
            kind: OpKind::Select,
            inputs: Inputs::from(&[cond, a, b][..]),
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
            inputs: Inputs::from(&[a, b, x, y][..]),
            dst: Some(dst),
        }
    }

    /// `dst = a * k + b` in one pass.
    pub fn scaled_add(a: ObjId, b: ObjId, dst: ObjId, k: i64) -> PimCommand {
        PimCommand {
            kind: OpKind::ScaledAdd(k),
            inputs: Inputs::from(&[a, b][..]),
            dst: Some(dst),
        }
    }

    /// Fills `dst` with `value`.
    pub fn broadcast(dst: ObjId, value: i64) -> PimCommand {
        PimCommand {
            kind: OpKind::Broadcast(value),
            inputs: Inputs::from(&[][..]),
            dst: Some(dst),
        }
    }

    /// Device-to-device copy.
    pub fn copy(src: ObjId, dst: ObjId) -> PimCommand {
        PimCommand {
            kind: OpKind::Copy,
            inputs: Inputs::from(&[src][..]),
            dst: Some(dst),
        }
    }

    /// A full-object reduction (no destination object).
    pub fn reduce(kind: OpKind, a: ObjId) -> PimCommand {
        PimCommand {
            kind,
            inputs: Inputs::from(&[a][..]),
            dst: None,
        }
    }
}

/// A command's input objects, held inline: no command reads more than
/// [`Inputs::CAP`] objects, so building a command allocates nothing.
/// Dereferences to the slice of ids in operand order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inputs {
    /// The ids; slots past `len` stay `ObjId(0)`, so the derived
    /// comparisons see only the operands.
    ids: [ObjId; Inputs::CAP],
    len: u8,
}

impl Inputs {
    /// The most inputs any [`OpKind`] reads (`FusedCmpSelect`).
    pub const CAP: usize = 4;
}

impl From<&[ObjId]> for Inputs {
    /// # Panics
    ///
    /// If `ids` holds more than [`Inputs::CAP`] objects.
    fn from(ids: &[ObjId]) -> Inputs {
        assert!(
            ids.len() <= Inputs::CAP,
            "a command reads at most {} objects, got {}",
            Inputs::CAP,
            ids.len()
        );
        let mut inputs = Inputs {
            ids: [ObjId(0); Inputs::CAP],
            len: ids.len() as u8,
        };
        inputs.ids[..ids.len()].copy_from_slice(ids);
        inputs
    }
}

impl Deref for Inputs {
    type Target = [ObjId];

    fn deref(&self) -> &[ObjId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl DerefMut for Inputs {
    fn deref_mut(&mut self) -> &mut [ObjId] {
        &mut self.ids[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a Inputs {
    type Item = &'a ObjId;
    type IntoIter = std::slice::Iter<'a, ObjId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Inputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
/// This is the one-element form of [`exec_into`]: both run the same
/// dispatch, so the semantics are written once. It never touches the
/// [`exec`] pool or its profile counters.
///
/// # Panics
///
/// On reduction kinds (`RedSum`/`RedMin`/`RedMax`), which fold across
/// elements and are handled by [`crate::Device::issue`] directly.
pub fn eval(kind: OpKind, dtype: DataType, inputs: &[i64]) -> i64 {
    let mut out = 0;
    dispatch(
        kind,
        dtype,
        One {
            args: inputs,
            out: &mut out,
        },
    );
    out
}

/// Runs an element-wise `kind` over whole operand slices:
/// `out[i] = eval(kind, dtype, [ins[0][i], ins[1][i], …])`. An input
/// given as `None` is the destination itself: it reads `out[i]` before
/// `out[i]` is written, so a command like `add(a, acc, acc)` updates
/// `acc` in place.
///
/// `kind` and `dtype` are resolved once per call, so each command runs
/// as one monomorphized loop through [`exec::par_map_into`] (or
/// [`exec::par_map_in_place`] when an input is `None`), which fans out
/// across the pool above `2 × MIN_CHUNK` elements.
///
/// # Panics
///
/// On reduction kinds, and if `ins` does not hold one entry per input
/// operand, each slice as long as `out`.
pub fn exec_into(kind: OpKind, dtype: DataType, ins: &[Option<&[i64]>], out: &mut [i64]) {
    debug_assert_eq!(ins.len(), kind.input_operands() as usize);
    dispatch(kind, dtype, Slices { ins, out });
}

/// Where a dispatch arm's element function runs: over whole slices
/// through the pool ([`Slices`]) or on one element ([`One`]). `map`
/// takes the arm's own closure, so every arm monomorphizes.
trait Lanes {
    fn map<const N: usize>(self, f: impl Fn([i64; N]) -> i64 + Sync);
}

struct Slices<'a> {
    ins: &'a [Option<&'a [i64]>],
    out: &'a mut [i64],
}

impl Lanes for Slices<'_> {
    fn map<const N: usize>(self, f: impl Fn([i64; N]) -> i64 + Sync) {
        let ins: [Option<&[i64]>; N] = std::array::from_fn(|k| self.ins[k]);
        if ins.iter().all(Option::is_some) {
            exec::par_map_into(ins.map(Option::unwrap_or_default), self.out, f);
        } else {
            exec::par_map_in_place(ins, self.out, f);
        }
    }
}

struct One<'a> {
    args: &'a [i64],
    out: &'a mut i64,
}

impl Lanes for One<'_> {
    fn map<const N: usize>(self, f: impl Fn([i64; N]) -> i64 + Sync) {
        *self.out = f(std::array::from_fn(|k| self.args[k]));
    }
}

/// Expands `$body` once per [`BinaryOp`] with `$f` bound to that op's
/// wrapping `i64` function, so each op gets its own closure type.
macro_rules! each_binary {
    ($op:expr, |$f:ident| $body:expr) => {
        match $op {
            BinaryOp::Add => {
                let $f = i64::wrapping_add;
                $body
            }
            BinaryOp::Sub => {
                let $f = i64::wrapping_sub;
                $body
            }
            BinaryOp::Mul => {
                let $f = i64::wrapping_mul;
                $body
            }
            BinaryOp::And => {
                let $f = |x: i64, y: i64| x & y;
                $body
            }
            BinaryOp::Or => {
                let $f = |x: i64, y: i64| x | y;
                $body
            }
            BinaryOp::Xor => {
                let $f = |x: i64, y: i64| x ^ y;
                $body
            }
            BinaryOp::Xnor => {
                let $f = |x: i64, y: i64| !(x ^ y);
                $body
            }
        }
    };
}

/// Expands `$body` once per [`CmpOp`] with `$p` bound to that
/// comparison under `$e`'s signedness.
macro_rules! each_cmp {
    ($op:expr, $e:expr, |$p:ident| $body:expr) => {{
        let e: Elem = $e;
        match $op {
            CmpOp::Lt => {
                let $p = move |x: i64, y: i64| e.lt(x, y);
                $body
            }
            CmpOp::Gt => {
                let $p = move |x: i64, y: i64| e.lt(y, x);
                $body
            }
            CmpOp::Eq => {
                let $p = |x: i64, y: i64| x == y;
                $body
            }
        }
    }};
}

/// The one match on `kind`: resolves the element semantics of
/// `(kind, dtype)` and hands the resulting element function to `lanes`.
fn dispatch(kind: OpKind, dtype: DataType, lanes: impl Lanes) {
    let e = Elem::of(dtype);
    let pick = move |c: bool, x: i64, y: i64| e.trunc(if c { x } else { y });
    // A 0/1 mask is canonical at every width, so compares skip `trunc`.
    match kind {
        OpKind::Binary(b) => each_binary!(b, |f| lanes.map(move |[x, y]| e.trunc(f(x, y)))),
        OpKind::BinaryScalar(b, k) => each_binary!(b, |f| lanes.map(move |[x]| e.trunc(f(x, k)))),
        OpKind::Cmp(c) => each_cmp!(c, e, |p| lanes.map(move |[x, y]| i64::from(p(x, y)))),
        OpKind::CmpScalar(c, k) => {
            let k = e.trunc(k);
            each_cmp!(c, e, |p| lanes.map(move |[x]| i64::from(p(x, k))))
        }
        OpKind::Min => lanes.map(move |[x, y]| pick(e.lt(x, y), x, y)),
        OpKind::Max => lanes.map(move |[x, y]| pick(e.lt(y, x), x, y)),
        OpKind::MinScalar(k) => {
            let k = e.trunc(k);
            lanes.map(move |[x]| pick(e.lt(x, k), x, k))
        }
        OpKind::MaxScalar(k) => {
            let k = e.trunc(k);
            lanes.map(move |[x]| pick(e.lt(k, x), x, k))
        }
        OpKind::Not => lanes.map(move |[x]| e.trunc(!x)),
        OpKind::Abs if dtype.is_signed() => lanes.map(move |[x]| e.trunc(x.wrapping_abs())),
        OpKind::Abs | OpKind::Copy => lanes.map(move |[x]| e.trunc(x)),
        OpKind::Popcount => lanes.map(move |[x]| e.trunc(i64::from((x & e.mask).count_ones()))),
        OpKind::ShiftL(k) if k >= dtype.bits() => lanes.map(|[_]| 0),
        OpKind::ShiftL(k) => lanes.map(move |[x]| e.trunc(x << k)),
        // Canonical signed values are sign-extended, so `>>` is the
        // arithmetic shift; unsigned ones shift their low bits in zeros.
        OpKind::ShiftR(k) if dtype.is_signed() => lanes.map(move |[x]| e.trunc(x >> k.min(63))),
        OpKind::ShiftR(k) if k >= 64 => lanes.map(|[_]| 0),
        OpKind::ShiftR(k) => lanes.map(move |[x]| e.trunc(((x & e.mask) as u64 >> k) as i64)),
        OpKind::Select => lanes.map(move |[c, x, y]| pick(c != 0, x, y)),
        OpKind::ScaledAdd(k) => {
            // Truncate the product exactly as the eager mul_scalar would
            // have stored it before the add reads it back.
            lanes.map(move |[x, y]| e.trunc(e.trunc(x.wrapping_mul(k)).wrapping_add(y)))
        }
        OpKind::FusedCmpSelect(c) => {
            each_cmp!(c, e, |p| lanes.map(move |[a, b, x, y]| pick(p(a, b), x, y)))
        }
        OpKind::Broadcast(v) => {
            let v = e.trunc(v);
            lanes.map(move |[]| v)
        }
        OpKind::RedSum | OpKind::RedMin | OpKind::RedMax => {
            unreachable!("reductions fold across elements; eval is per-element")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
