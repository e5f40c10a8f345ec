//! Microprogram generators: lowering of high-level PIM operations to
//! DRAM-AP micro-op sequences.
//!
//! Operand binding slot conventions (see [`crate::vm::Vm::bind`]):
//!
//! | program kind | slot 0 | slot 1 | slot 2 | slot 3 |
//! |---|---|---|---|---|
//! | [`binary`] / [`binary_scalar`] | A | B (unused for scalar) | Dst | — |
//! | [`cmp`] / [`cmp_scalar`] | A | B (unused for scalar) | Dst (1 row) | — |
//! | [`min_max`] | A | B | Dst | — |
//! | [`scaled_add`] | A | B | Dst | — |
//! | [`select`] | Cond (1 row) | A | B | Dst |
//! | [`cmp_select`] | A | B | X | Y (slot 4 = Dst) |
//! | unary ([`not`], [`abs`], [`popcount`], shifts, [`copy`]) | A | Dst | — | — |
//! | [`broadcast`] | Dst | — | — | — |
//! | [`red_sum`] | A | — | — | — |
//!
//! All arithmetic is two's-complement and wraps at the element width, the
//! same semantics the functional simulator uses, so the microprograms can
//! be property-tested against it bit-for-bit.
//!
//! **Aliasing:** multiplication and popcount accumulate into their
//! destination; their destination region must not overlap an input region.
//! Other programs read each input row before writing the matching output
//! row and are safe to run in place.

use crate::isa::{Loc, MicroOp, RowRef};
use crate::program::MicroProgram;

/// Two-input element-wise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low half).
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise XNOR.
    Xnor,
}

impl BinaryOp {
    /// Lower-case mnemonic used in program names and stats.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BinaryOp::Add => "add",
            BinaryOp::Sub => "sub",
            BinaryOp::Mul => "mul",
            BinaryOp::And => "and",
            BinaryOp::Or => "or",
            BinaryOp::Xor => "xor",
            BinaryOp::Xnor => "xnor",
        }
    }
}

/// Comparison operations producing a 1-bit result row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Less-than.
    Lt,
    /// Greater-than.
    Gt,
    /// Equality.
    Eq,
}

impl CmpOp {
    /// Lower-case mnemonic used in program names and stats.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CmpOp::Lt => "lt",
            CmpOp::Gt => "gt",
            CmpOp::Eq => "eq",
        }
    }
}

/// Small assembler: collects micro-ops and tracks scratch usage.
struct Asm {
    ops: Vec<MicroOp>,
    temp_rows: u32,
}

impl Asm {
    fn new() -> Self {
        Asm {
            ops: Vec::new(),
            temp_rows: 0,
        }
    }

    fn need_temp(&mut self, rows: u32) {
        self.temp_rows = self.temp_rows.max(rows);
    }

    fn read(&mut self, r: RowRef) {
        self.ops.push(MicroOp::Read(r));
    }

    fn write(&mut self, r: RowRef) {
        self.ops.push(MicroOp::Write(r));
    }

    fn set(&mut self, dst: Loc, value: bool) {
        self.ops.push(MicroOp::Set { dst, value });
    }

    fn mv(&mut self, src: Loc, dst: Loc) {
        self.ops.push(MicroOp::Move { src, dst });
    }

    fn and(&mut self, a: Loc, b: Loc, dst: Loc) {
        self.ops.push(MicroOp::And { a, b, dst });
    }

    fn xnor(&mut self, a: Loc, b: Loc, dst: Loc) {
        self.ops.push(MicroOp::Xnor { a, b, dst });
    }

    fn sel(&mut self, cond: Loc, if_true: Loc, if_false: Loc, dst: Loc) {
        self.ops.push(MicroOp::Sel {
            cond,
            if_true,
            if_false,
            dst,
        });
    }

    fn popcount(&mut self, row: RowRef, shift: u32, negate: bool) {
        self.ops.push(MicroOp::Popcount { row, shift, negate });
    }

    /// Full-adder step. Inputs: `x` in `R1`, second addend in `SA`, carry
    /// in `R0`. Outputs: sum in `SA`, new carry in `R0`. Clobbers `R3`.
    ///
    /// Uses the identity `sum = XNOR(XNOR(x, d), c)` and
    /// `carry' = (x == d) ? x : c` (majority function via SEL).
    fn full_adder(&mut self) {
        self.xnor(Loc::R1, Loc::Sa, Loc::R3); // t = ~(x ^ d)
        self.xnor(Loc::R3, Loc::R0, Loc::Sa); // sum = x ^ d ^ c
        self.sel(Loc::R3, Loc::R1, Loc::R0, Loc::R0); // carry'
    }

    fn finish(self, name: impl Into<String>, operands: u8) -> MicroProgram {
        MicroProgram::new(name, self.ops, operands, self.temp_rows)
    }
}

const A: u8 = 0;
const B: u8 = 1;
const DST: u8 = 2;

/// How the per-bit right-hand operand is produced.
enum Rhs {
    /// Read bit `i` of operand slot `B`.
    Operand,
    /// Set `SA` to bit `i` of a compile-time constant.
    Scalar(u64),
}

impl Rhs {
    /// Emit code leaving the RHS bit `i` in `SA`.
    fn load(&self, asm: &mut Asm, bit: u32) {
        match self {
            Rhs::Operand => asm.read(RowRef::op(B, bit)),
            Rhs::Scalar(v) => asm.set(Loc::Sa, (v >> bit.min(63)) & 1 == 1),
        }
    }
}

fn binary_impl(op: BinaryOp, bits: u32, rhs: Rhs, name: String) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    if let BinaryOp::Mul = op {
        return mul_impl(bits, rhs, name);
    }
    let mut asm = Asm::new();
    // Loop-invariant register setup.
    match op {
        BinaryOp::Add => asm.set(Loc::R0, false),
        BinaryOp::Sub => {
            asm.set(Loc::R0, true); // +1 of two's complement
            asm.set(Loc::R2, false); // constant 0 for NOT
        }
        BinaryOp::Or => asm.set(Loc::R2, true),
        BinaryOp::Xor => asm.set(Loc::R2, false),
        _ => {}
    }
    for i in 0..bits {
        asm.read(RowRef::op(A, i));
        asm.mv(Loc::Sa, Loc::R1);
        rhs.load(&mut asm, i);
        match op {
            BinaryOp::Add => asm.full_adder(),
            BinaryOp::Sub => {
                asm.xnor(Loc::Sa, Loc::R2, Loc::Sa); // SA = ~b
                asm.full_adder();
            }
            BinaryOp::And => asm.and(Loc::R1, Loc::Sa, Loc::Sa),
            BinaryOp::Or => asm.sel(Loc::R1, Loc::R2, Loc::Sa, Loc::Sa),
            BinaryOp::Xor => {
                asm.xnor(Loc::R1, Loc::Sa, Loc::Sa);
                asm.xnor(Loc::Sa, Loc::R2, Loc::Sa);
            }
            BinaryOp::Xnor => asm.xnor(Loc::R1, Loc::Sa, Loc::Sa),
            BinaryOp::Mul => unreachable!("handled above"),
        }
        asm.write(RowRef::op(DST, i));
    }
    asm.finish(name, 3)
}

fn mul_impl(bits: u32, rhs: Rhs, name: String) -> MicroProgram {
    let mut asm = Asm::new();
    // Zero the accumulator (the destination).
    asm.set(Loc::Sa, false);
    for i in 0..bits {
        asm.write(RowRef::op(DST, i));
    }
    for j in 0..bits {
        let gated = match rhs {
            Rhs::Operand => {
                // cond = multiplier bit j, held in R2 through the inner loop.
                asm.read(RowRef::op(B, j));
                asm.mv(Loc::Sa, Loc::R2);
                true
            }
            Rhs::Scalar(v) => {
                // Skip partial products for zero constant bits entirely.
                if (v >> j.min(63)) & 1 == 0 {
                    continue;
                }
                false
            }
        };
        asm.set(Loc::R0, false); // carry for this partial product
        for i in 0..(bits - j) {
            asm.read(RowRef::op(A, i));
            asm.mv(Loc::Sa, Loc::R1);
            if gated {
                asm.and(Loc::R1, Loc::R2, Loc::R1); // x = a_i & b_j
            }
            asm.read(RowRef::op(DST, i + j));
            asm.full_adder();
            asm.write(RowRef::op(DST, i + j));
        }
    }
    asm.finish(name, 3)
}

/// Element-wise binary operation `dst = a OP b`.
pub fn binary(op: BinaryOp, bits: u32) -> MicroProgram {
    binary_impl(op, bits, Rhs::Operand, format!("{}.i{bits}", op.mnemonic()))
}

/// Element-wise binary operation against a broadcast scalar,
/// `dst = a OP k`. Cheaper than [`binary`]: constant bits are `Set`
/// rather than read from DRAM (and zero partial products are skipped for
/// multiplication).
pub fn binary_scalar(op: BinaryOp, bits: u32, scalar: u64) -> MicroProgram {
    binary_impl(
        op,
        bits,
        Rhs::Scalar(scalar),
        format!("{}_scalar.i{bits}", op.mnemonic()),
    )
}

fn cmp_impl(op: CmpOp, bits: u32, signed: bool, rhs: Rhs, name: String) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    let mut asm = Asm::new();
    asm.set(Loc::R0, matches!(op, CmpOp::Eq)); // acc: eq starts true, lt/gt false
    for i in 0..bits {
        asm.read(RowRef::op(A, i));
        asm.mv(Loc::Sa, Loc::R1);
        rhs.load(&mut asm, i);
        asm.xnor(Loc::R1, Loc::Sa, Loc::R2); // eq bit
        match op {
            CmpOp::Eq => asm.and(Loc::R0, Loc::R2, Loc::R0),
            CmpOp::Lt | CmpOp::Gt => {
                let sign_bit = signed && i == bits - 1;
                if sign_bit {
                    // Signs differ: a < b iff a is negative; a > b iff b is.
                    match op {
                        CmpOp::Lt => asm.mv(Loc::R1, Loc::R3),
                        CmpOp::Gt => asm.mv(Loc::Sa, Loc::R3),
                        CmpOp::Eq => unreachable!(),
                    }
                } else {
                    asm.set(Loc::R3, false);
                    match op {
                        CmpOp::Lt => {
                            asm.xnor(Loc::R1, Loc::R3, Loc::R3); // ~a
                            asm.and(Loc::R3, Loc::Sa, Loc::R3); // ~a & b
                        }
                        CmpOp::Gt => {
                            asm.xnor(Loc::Sa, Loc::R3, Loc::R3); // ~b
                            asm.and(Loc::R3, Loc::R1, Loc::R3); // a & ~b
                        }
                        CmpOp::Eq => unreachable!(),
                    }
                }
                asm.sel(Loc::R2, Loc::R0, Loc::R3, Loc::R0);
            }
        }
    }
    asm.mv(Loc::R0, Loc::Sa);
    asm.write(RowRef::op(DST, 0));
    asm.finish(name, 3)
}

/// Comparison `dst[0] = a OP b` (1-bit result row).
pub fn cmp(op: CmpOp, bits: u32, signed: bool) -> MicroProgram {
    let s = if signed { "s" } else { "u" };
    cmp_impl(
        op,
        bits,
        signed,
        Rhs::Operand,
        format!("{}.{s}{bits}", op.mnemonic()),
    )
}

/// Comparison against a broadcast scalar, `dst[0] = a OP k`.
pub fn cmp_scalar(op: CmpOp, bits: u32, signed: bool, scalar: u64) -> MicroProgram {
    let s = if signed { "s" } else { "u" };
    cmp_impl(
        op,
        bits,
        signed,
        Rhs::Scalar(scalar),
        format!("{}_scalar.{s}{bits}", op.mnemonic()),
    )
}

/// Element-wise min (`is_max == false`) or max of two vectors.
///
/// Two phases: a less-than sweep leaving the condition in `R0`, then a
/// conditional-select copy — the associative "conditional write" pattern.
pub fn min_max(is_max: bool, bits: u32, signed: bool) -> MicroProgram {
    let lt = cmp_impl(CmpOp::Lt, bits, signed, Rhs::Operand, String::new());
    let mut asm = Asm::new();
    // Reuse the comparison body but stop before it writes its result row.
    let body_len = lt.ops().len() - 2; // trailing Move + Write
    asm.ops.extend_from_slice(&lt.ops()[..body_len]);
    for i in 0..bits {
        asm.read(RowRef::op(A, i));
        asm.mv(Loc::Sa, Loc::R1);
        asm.read(RowRef::op(B, i));
        if is_max {
            asm.sel(Loc::R0, Loc::Sa, Loc::R1, Loc::Sa); // a<b ? b : a
        } else {
            asm.sel(Loc::R0, Loc::R1, Loc::Sa, Loc::Sa); // a<b ? a : b
        }
        asm.write(RowRef::op(DST, i));
    }
    let name = if is_max { "max" } else { "min" };
    let s = if signed { "s" } else { "u" };
    asm.finish(format!("{name}.{s}{bits}"), 3)
}

/// Fused multiply-by-constant + add: `dst = a·k + b` in one broadcast.
///
/// Slots: 0 = A, 1 = B, 2 = Dst. Seeds the accumulator rows from `B`
/// instead of zeroing them, then runs the scalar-multiply partial-product
/// accumulation directly on top — the eager pair's temporary write sweep
/// and read-back sweep never happen. `dst` may alias `B` (the AXPY
/// `y = a·x + y` pattern) but must not alias `A`.
pub fn scaled_add(bits: u32, k: u64) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    let mut asm = Asm::new();
    // Seed the accumulator (the destination) with the addend.
    for i in 0..bits {
        asm.read(RowRef::op(B, i));
        asm.write(RowRef::op(DST, i));
    }
    // Accumulate a·k on top, skipping zero constant bits entirely.
    for j in 0..bits {
        if (k >> j.min(63)) & 1 == 0 {
            continue;
        }
        asm.set(Loc::R0, false); // carry for this partial product
        for i in 0..(bits - j) {
            asm.read(RowRef::op(A, i));
            asm.mv(Loc::Sa, Loc::R1);
            asm.read(RowRef::op(DST, i + j));
            asm.full_adder();
            asm.write(RowRef::op(DST, i + j));
        }
    }
    asm.finish(format!("scaled_add.i{bits}"), 3)
}

/// Fused compare + select: `dst = (a OP b) ? x : y` in one broadcast.
///
/// Slots: 0 = A, 1 = B, 2 = X, 3 = Y, 4 = Dst. The comparison body runs
/// first and leaves its verdict in `R0` — its write-back row, the eager
/// mask object, and the select's condition read all disappear. Every
/// destination write happens after the comparison reads, so the program
/// is safe to run with `dst` aliasing any input.
pub fn cmp_select(op: CmpOp, bits: u32, signed: bool) -> MicroProgram {
    let cmp = cmp_impl(op, bits, signed, Rhs::Operand, String::new());
    let mut asm = Asm::new();
    // Reuse the comparison body but stop before it writes its result row.
    let body_len = cmp.ops().len() - 2; // trailing Move + Write
    asm.ops.extend_from_slice(&cmp.ops()[..body_len]);
    for i in 0..bits {
        asm.read(RowRef::op(2, i));
        asm.mv(Loc::Sa, Loc::R1);
        asm.read(RowRef::op(3, i));
        asm.sel(Loc::R0, Loc::R1, Loc::Sa, Loc::Sa);
        asm.write(RowRef::op(4, i));
    }
    let s = if signed { "s" } else { "u" };
    asm.finish(format!("{}_select.{s}{bits}", op.mnemonic()), 5)
}

/// Conditional select `dst = cond ? a : b`.
///
/// Slots: 0 = condition (1-bit rows), 1 = A, 2 = B, 3 = Dst.
pub fn select(bits: u32) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    let mut asm = Asm::new();
    asm.read(RowRef::op(0, 0));
    asm.mv(Loc::Sa, Loc::R0);
    for i in 0..bits {
        asm.read(RowRef::op(1, i));
        asm.mv(Loc::Sa, Loc::R1);
        asm.read(RowRef::op(2, i));
        asm.sel(Loc::R0, Loc::R1, Loc::Sa, Loc::Sa);
        asm.write(RowRef::op(3, i));
    }
    asm.finish(format!("select.i{bits}"), 4)
}

/// Bitwise NOT. Slots: 0 = A, 1 = Dst.
pub fn not(bits: u32) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    let mut asm = Asm::new();
    asm.set(Loc::R2, false);
    for i in 0..bits {
        asm.read(RowRef::op(0, i));
        asm.xnor(Loc::Sa, Loc::R2, Loc::Sa);
        asm.write(RowRef::op(1, i));
    }
    asm.finish(format!("not.i{bits}"), 2)
}

/// Row-by-row copy. Slots: 0 = A, 1 = Dst.
pub fn copy(bits: u32) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    let mut asm = Asm::new();
    for i in 0..bits {
        asm.read(RowRef::op(0, i));
        asm.write(RowRef::op(1, i));
    }
    asm.finish(format!("copy.i{bits}"), 2)
}

/// Logical shift left by `k`. Slots: 0 = A, 1 = Dst. Safe in place.
pub fn shift_left(bits: u32, k: u32) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    let k = k.min(bits);
    let mut asm = Asm::new();
    for i in (k..bits).rev() {
        asm.read(RowRef::op(0, i - k));
        asm.write(RowRef::op(1, i));
    }
    if k > 0 {
        asm.set(Loc::Sa, false);
        for i in 0..k {
            asm.write(RowRef::op(1, i));
        }
    }
    asm.finish(format!("shl{k}.i{bits}"), 2)
}

/// Shift right by `k`, logical or arithmetic. Slots: 0 = A, 1 = Dst.
/// Safe in place.
pub fn shift_right(bits: u32, k: u32, arithmetic: bool) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    let k = k.min(bits);
    let mut asm = Asm::new();
    if arithmetic && k > 0 {
        // Latch the sign before any in-place overwrite.
        asm.read(RowRef::op(0, bits - 1));
        asm.mv(Loc::Sa, Loc::R1);
    }
    for i in 0..(bits - k) {
        asm.read(RowRef::op(0, i + k));
        asm.write(RowRef::op(1, i));
    }
    if k > 0 {
        if arithmetic {
            asm.mv(Loc::R1, Loc::Sa);
        } else {
            asm.set(Loc::Sa, false);
        }
        for i in (bits - k)..bits {
            asm.write(RowRef::op(1, i));
        }
    }
    let kind = if arithmetic { "sra" } else { "srl" };
    asm.finish(format!("{kind}{k}.i{bits}"), 2)
}

/// Absolute value. Slots: 0 = A, 1 = Dst. Signed elements use `bits`
/// scratch rows for the negated value; an unsigned element is its own
/// absolute value, so that program is [`copy`]. Safe in place.
pub fn abs(bits: u32, signed: bool) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    if !signed {
        return copy(bits);
    }
    let mut asm = Asm::new();
    asm.need_temp(bits);
    // Phase 1: temp = -a (two's complement: ~a + 1).
    asm.set(Loc::R0, true); // carry in = 1
    asm.set(Loc::R2, false); // constant 0
    for i in 0..bits {
        asm.read(RowRef::op(0, i));
        asm.xnor(Loc::Sa, Loc::R2, Loc::R1); // ~a
        asm.xnor(Loc::R1, Loc::R0, Loc::R3); // ~(~a ^ c)
        asm.xnor(Loc::R3, Loc::R2, Loc::Sa); // sum = ~a ^ c
        asm.and(Loc::R1, Loc::R0, Loc::R0); // carry' = ~a & c
        asm.write(RowRef::temp(i));
    }
    // Phase 2: dst = sign ? -a : a.
    asm.read(RowRef::op(0, bits - 1));
    asm.mv(Loc::Sa, Loc::R0);
    for i in 0..bits {
        asm.read(RowRef::temp(i));
        asm.mv(Loc::Sa, Loc::R1);
        asm.read(RowRef::op(0, i));
        asm.sel(Loc::R0, Loc::R1, Loc::Sa, Loc::Sa);
        asm.write(RowRef::op(1, i));
    }
    asm.finish(format!("abs.i{bits}"), 2)
}

/// Per-element population count. Slots: 0 = A, 1 = Dst. Uses
/// `ceil(log2(bits + 1))` scratch rows; destination must not alias the
/// input. Cost is log-linear in the element width, as the paper notes.
pub fn popcount(bits: u32) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    let acc_bits = 64 - (bits as u64).leading_zeros(); // ceil(log2(bits+1))
    let mut asm = Asm::new();
    asm.need_temp(acc_bits);
    // Zero the accumulator.
    asm.set(Loc::Sa, false);
    for j in 0..acc_bits {
        asm.write(RowRef::temp(j));
    }
    asm.set(Loc::R2, false); // constant 0
    for i in 0..bits {
        // carry-in = input bit; ripple it up the accumulator.
        asm.read(RowRef::op(0, i));
        asm.mv(Loc::Sa, Loc::R0);
        for j in 0..acc_bits {
            asm.read(RowRef::temp(j));
            asm.xnor(Loc::Sa, Loc::R0, Loc::R3); // ~(acc ^ c)
            asm.and(Loc::Sa, Loc::R0, Loc::R1); // carry'
            asm.xnor(Loc::R3, Loc::R2, Loc::Sa); // sum
            asm.mv(Loc::R1, Loc::R0);
            asm.write(RowRef::temp(j));
        }
    }
    // Zero-fill the high destination rows, then copy the accumulator in.
    asm.set(Loc::Sa, false);
    for j in acc_bits..bits {
        asm.write(RowRef::op(1, j));
    }
    for j in 0..acc_bits.min(bits) {
        asm.read(RowRef::temp(j));
        asm.write(RowRef::op(1, j));
    }
    asm.finish(format!("popcount.i{bits}"), 2)
}

/// Reduction sum over all elements, using row-wide popcount hardware:
/// one weighted popcount per bit row (§V-C). Slot: 0 = A. The result is
/// produced in the controller accumulator ([`crate::vm::Vm::accumulator`]).
pub fn red_sum(bits: u32, signed: bool) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    let mut asm = Asm::new();
    for i in 0..bits {
        let negate = signed && i == bits - 1; // two's-complement MSB weight
        asm.popcount(RowRef::op(0, i), i, negate);
    }
    let s = if signed { "s" } else { "u" };
    asm.finish(format!("redsum.{s}{bits}"), 1)
}

/// Broadcast a constant to every element. Slot: 0 = Dst.
pub fn broadcast(bits: u32, value: u64) -> MicroProgram {
    assert!(
        (1..=64).contains(&bits),
        "element width must be 1..=64 bits"
    );
    let mut asm = Asm::new();
    for i in 0..bits {
        asm.set(Loc::Sa, (value >> i.min(63)) & 1 == 1);
        asm.write(RowRef::op(0, i));
    }
    asm.finish(format!("broadcast.i{bits}"), 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_3n_rows() {
        for bits in [8, 16, 32, 64] {
            let c = binary(BinaryOp::Add, bits).cost();
            assert_eq!(c.row_reads, 2 * bits as u64, "bits={bits}");
            assert_eq!(c.row_writes, bits as u64);
        }
    }

    #[test]
    fn mul_is_quadratic() {
        let c8 = binary(BinaryOp::Mul, 8).cost().row_accesses();
        let c16 = binary(BinaryOp::Mul, 16).cost().row_accesses();
        let c32 = binary(BinaryOp::Mul, 32).cost().row_accesses();
        // Quadratic growth: doubling width should ~4x the row accesses.
        assert!(c16 as f64 / c8 as f64 > 3.0);
        assert!(c32 as f64 / c16 as f64 > 3.0);
        // And mul must dwarf add at the same width.
        let add32 = binary(BinaryOp::Add, 32).cost().row_accesses();
        assert!(c32 > 10 * add32);
    }

    #[test]
    fn scalar_mul_skips_zero_bits() {
        let by_3 = binary_scalar(BinaryOp::Mul, 32, 3).cost().row_accesses();
        let by_umax = binary_scalar(BinaryOp::Mul, 32, u64::MAX)
            .cost()
            .row_accesses();
        assert!(by_3 < by_umax / 4);
    }

    #[test]
    fn cmp_writes_single_row() {
        for op in [CmpOp::Lt, CmpOp::Gt, CmpOp::Eq] {
            let c = cmp(op, 32, true).cost();
            assert_eq!(c.row_writes, 1, "{op:?}");
            assert_eq!(c.row_reads, 64);
        }
    }

    #[test]
    fn red_sum_is_one_popcount_per_bit() {
        let c = red_sum(32, true).cost();
        assert_eq!(c.popcount_reads, 32);
        assert_eq!(c.row_reads, 0);
        assert_eq!(c.row_writes, 0);
    }

    #[test]
    fn broadcast_is_n_writes() {
        let c = broadcast(16, 0xABCD).cost();
        assert_eq!(c.row_writes, 16);
        assert_eq!(c.row_reads, 0);
    }

    #[test]
    fn popcount_is_log_linear() {
        let c32 = popcount(32).cost().row_accesses() as f64;
        let c64 = popcount(64).cost().row_accesses() as f64;
        // n log n growth: 64·7 / 32·6 ≈ 2.33; allow generous bounds.
        assert!(c64 / c32 > 1.8 && c64 / c32 < 3.0, "ratio {}", c64 / c32);
    }

    #[test]
    fn shift_by_zero_is_pure_copy() {
        let c = shift_left(32, 0).cost();
        assert_eq!(c.row_reads, 32);
        assert_eq!(c.row_writes, 32);
        assert_eq!(c.logic_ops, 0);
    }

    #[test]
    fn shift_by_width_clears_everything() {
        let c = shift_left(16, 16).cost();
        assert_eq!(c.row_reads, 0);
        assert_eq!(c.row_writes, 16);
    }

    #[test]
    fn abs_reserves_temp_rows() {
        let p = abs(32, true);
        assert_eq!(p.temp_rows(), 32);
        // Unsigned elements are their own absolute value.
        assert_eq!(abs(32, false), copy(32));
    }

    #[test]
    fn program_names_carry_width() {
        assert_eq!(binary(BinaryOp::Add, 32).name(), "add.i32");
        assert_eq!(cmp(CmpOp::Lt, 16, false).name(), "lt.u16");
        assert_eq!(min_max(true, 8, true).name(), "max.s8");
        assert_eq!(scaled_add(32, 7).name(), "scaled_add.i32");
        assert_eq!(cmp_select(CmpOp::Gt, 16, true).name(), "gt_select.s16");
    }

    #[test]
    fn scaled_add_undercuts_the_eager_pair() {
        for k in [0u64, 1, 7, 0xFFFF_FFFF] {
            let fused = scaled_add(32, k).cost();
            let pair =
                binary_scalar(BinaryOp::Mul, 32, k).cost() + binary(BinaryOp::Add, 32).cost();
            assert!(
                fused.row_accesses() < pair.row_accesses(),
                "k={k}: fused {} vs pair {}",
                fused.row_accesses(),
                pair.row_accesses()
            );
            assert!(fused.logic_ops < pair.logic_ops, "k={k}");
        }
    }

    #[test]
    fn cmp_select_undercuts_the_eager_pair() {
        for op in [CmpOp::Lt, CmpOp::Gt, CmpOp::Eq] {
            let fused = cmp_select(op, 32, true).cost();
            let pair = cmp(op, 32, true).cost() + select(32).cost();
            assert!(fused.row_reads < pair.row_reads, "{op:?}");
            assert!(fused.row_writes < pair.row_writes, "{op:?}");
        }
    }

    #[test]
    #[should_panic(expected = "element width")]
    fn zero_width_rejected() {
        let _ = binary(BinaryOp::Add, 0);
    }
}
