//! PIM operation descriptors: the vocabulary shared by the functional
//! executor, the performance/energy models, and the statistics engine.

use std::fmt::{self, Write as _};
use std::ops::Deref;

use pim_microcode::gen::{BinaryOp, CmpOp};

use crate::dtype::DataType;

/// The operation categories of the paper's Fig. 8 ("PIM operation
/// frequency distribution").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpCategory {
    /// Additions (incl. scalar variants).
    Add,
    /// Subtractions.
    Sub,
    /// Multiplications.
    Mul,
    /// Other bit manipulation (not/xnor/select/copy).
    Bit,
    /// Shifts.
    Shift,
    /// Element-wise max.
    Max,
    /// Element-wise min.
    Min,
    /// Bitwise OR.
    Or,
    /// Bitwise AND.
    And,
    /// Bitwise XOR.
    Xor,
    /// Less/greater comparisons.
    Less,
    /// Equality comparisons.
    Eq,
    /// Reduction sums.
    Reduction,
    /// Broadcasts.
    Broadcast,
    /// Population counts.
    Popcount,
    /// Absolute value.
    Abs,
}

impl OpCategory {
    /// All categories in the Fig. 8 legend order.
    pub const ALL: [OpCategory; 16] = [
        OpCategory::Add,
        OpCategory::Sub,
        OpCategory::Mul,
        OpCategory::Bit,
        OpCategory::Shift,
        OpCategory::Max,
        OpCategory::Min,
        OpCategory::Or,
        OpCategory::And,
        OpCategory::Xor,
        OpCategory::Less,
        OpCategory::Eq,
        OpCategory::Reduction,
        OpCategory::Broadcast,
        OpCategory::Popcount,
        OpCategory::Abs,
    ];

    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            OpCategory::Add => "add",
            OpCategory::Sub => "sub",
            OpCategory::Mul => "mul",
            OpCategory::Bit => "bit",
            OpCategory::Shift => "shift",
            OpCategory::Max => "max",
            OpCategory::Min => "min",
            OpCategory::Or => "or",
            OpCategory::And => "and",
            OpCategory::Xor => "xor",
            OpCategory::Less => "less",
            OpCategory::Eq => "eq",
            OpCategory::Reduction => "reduction",
            OpCategory::Broadcast => "broadcast",
            OpCategory::Popcount => "popcount",
            OpCategory::Abs => "abs",
        }
    }
}

/// One PIM API operation, as seen by the models.
///
/// `Eq + Hash` because the per-stripe cost memo in [`crate::model`] is
/// keyed by `(OpKind, DataType)` — scalar immediates are part of the
/// identity since generators specialize on them (e.g. zero partial
/// products are skipped for scalar multiplies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Element-wise binary op `dst = a OP b`.
    Binary(BinaryOp),
    /// Element-wise binary op against a scalar, `dst = a OP k`.
    BinaryScalar(BinaryOp, i64),
    /// Comparison producing 0/1, `dst = a OP b`.
    Cmp(CmpOp),
    /// Comparison against a scalar.
    CmpScalar(CmpOp, i64),
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum against a scalar.
    MinScalar(i64),
    /// Element-wise maximum against a scalar.
    MaxScalar(i64),
    /// Bitwise NOT.
    Not,
    /// Absolute value (signed).
    Abs,
    /// Per-element population count.
    Popcount,
    /// Logical shift left by a constant.
    ShiftL(u32),
    /// Shift right by a constant (arithmetic iff the dtype is signed).
    ShiftR(u32),
    /// `dst = cond ? a : b`.
    Select,
    /// Fused multiply-by-constant + add, `dst = a * k + b`. Produced by
    /// the [`crate::stream::CommandStream`] fusion that rewrites a
    /// scalar multiply into a temporary read only by an addition;
    /// targets charge less than the eager pair because the
    /// product never round-trips through an operand.
    ScaledAdd(i64),
    /// Fused compare + select, `dst = (a OP b) ? x : y`. Produced by the
    /// stream's cmp+select fusion; the 0/1 mask stays in a register instead of
    /// being materialized as an operand.
    FusedCmpSelect(CmpOp),
    /// Fill with a constant.
    Broadcast(i64),
    /// Reduction sum across all elements.
    RedSum,
    /// Reduction minimum across all elements.
    RedMin,
    /// Reduction maximum across all elements.
    RedMax,
    /// Device-to-device copy.
    Copy,
}

impl OpKind {
    /// Number of PIM object inputs read (excluding the destination).
    pub fn input_operands(&self) -> u32 {
        match self {
            OpKind::Binary(_) | OpKind::Cmp(_) | OpKind::Min | OpKind::Max => 2,
            OpKind::ScaledAdd(_) => 2,
            OpKind::Select => 3,
            OpKind::FusedCmpSelect(_) => 4,
            OpKind::Broadcast(_) => 0,
            _ => 1,
        }
    }

    /// True if the op writes an output object (reductions do not).
    pub fn writes_output(&self) -> bool {
        !matches!(self, OpKind::RedSum | OpKind::RedMin | OpKind::RedMax)
    }

    /// Fig. 8 category.
    pub fn category(&self) -> OpCategory {
        match self {
            OpKind::Binary(b) | OpKind::BinaryScalar(b, _) => match b {
                BinaryOp::Add => OpCategory::Add,
                BinaryOp::Sub => OpCategory::Sub,
                BinaryOp::Mul => OpCategory::Mul,
                BinaryOp::And => OpCategory::And,
                BinaryOp::Or => OpCategory::Or,
                BinaryOp::Xor => OpCategory::Xor,
                BinaryOp::Xnor => OpCategory::Bit,
            },
            OpKind::Cmp(c) | OpKind::CmpScalar(c, _) => match c {
                CmpOp::Lt | CmpOp::Gt => OpCategory::Less,
                CmpOp::Eq => OpCategory::Eq,
            },
            OpKind::Min | OpKind::MinScalar(_) => OpCategory::Min,
            OpKind::Max | OpKind::MaxScalar(_) => OpCategory::Max,
            // Fused ops count once under their dominant arithmetic class.
            OpKind::ScaledAdd(_) => OpCategory::Mul,
            OpKind::FusedCmpSelect(c) => match c {
                CmpOp::Lt | CmpOp::Gt => OpCategory::Less,
                CmpOp::Eq => OpCategory::Eq,
            },
            OpKind::Not | OpKind::Select | OpKind::Copy => OpCategory::Bit,
            OpKind::Abs => OpCategory::Abs,
            OpKind::Popcount => OpCategory::Popcount,
            OpKind::ShiftL(_) | OpKind::ShiftR(_) => OpCategory::Shift,
            OpKind::Broadcast(_) => OpCategory::Broadcast,
            OpKind::RedSum | OpKind::RedMin | OpKind::RedMax => OpCategory::Reduction,
        }
    }

    /// Statistics key in the artifact's style, e.g. `add.int32`.
    /// Scalar immediates are not part of the name (shift amounts are).
    /// Built by copying static pieces; only a shift amount goes through
    /// `core::fmt`.
    pub fn stat_name(&self, dtype: DataType) -> StatName {
        let mut name = StatName {
            buf: [0; StatName::CAP],
            len: 0,
        };
        let (head, tail) = match self {
            OpKind::Binary(b) => (b.mnemonic(), ""),
            OpKind::BinaryScalar(b, _) => (b.mnemonic(), "_scalar"),
            OpKind::Cmp(c) => (c.mnemonic(), ""),
            OpKind::CmpScalar(c, _) => (c.mnemonic(), "_scalar"),
            OpKind::Min => ("min", ""),
            OpKind::Max => ("max", ""),
            OpKind::MinScalar(_) => ("min_scalar", ""),
            OpKind::MaxScalar(_) => ("max_scalar", ""),
            OpKind::Not => ("not", ""),
            OpKind::Abs => ("abs", ""),
            OpKind::Popcount => ("popcount", ""),
            OpKind::ShiftL(_) => ("shl", ""),
            OpKind::ShiftR(_) => ("shr", ""),
            OpKind::Select => ("select", ""),
            OpKind::ScaledAdd(_) => ("scaled_add", ""),
            OpKind::FusedCmpSelect(c) => (c.mnemonic(), "_select"),
            OpKind::Broadcast(_) => ("broadcast", ""),
            OpKind::RedSum => ("redsum", ""),
            OpKind::RedMin => ("redmin", ""),
            OpKind::RedMax => ("redmax", ""),
            OpKind::Copy => ("copy", ""),
        };
        name.push(head);
        name.push(tail);
        if let OpKind::ShiftL(k) | OpKind::ShiftR(k) = self {
            write!(name, "{k}").expect("statistics names fit StatName::CAP");
        }
        name.push(".");
        name.push(dtype.short_name());
        name
    }

    /// ALU cycles per element on a bit-parallel target whose popcount
    /// takes `popcount_cycles` (12 for Fulcrum's SWAR, 1 for the
    /// bank-level CPOP-capable ALPU). `Copy` and `Broadcast` are pure row
    /// movement with one register cycle per row, handled by the model.
    pub fn alu_cycles(&self, popcount_cycles: u32) -> u32 {
        match self {
            OpKind::Popcount => popcount_cycles,
            OpKind::Copy | OpKind::Broadcast(_) => 0,
            // Fused pairs keep both ALU steps; the saving is in row
            // traffic (fewer operand streams), not compute.
            OpKind::ScaledAdd(_) | OpKind::FusedCmpSelect(_) => 2,
            _ => 1,
        }
    }
}

/// A statistics key such as `add.int32` ([`OpKind::stat_name`]),
/// formatted into an inline buffer so charging a command allocates
/// nothing. Dereferences to `str`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct StatName {
    buf: [u8; StatName::CAP],
    len: u8,
}

impl StatName {
    /// Room for the longest name, `shl4294967295.uint64` (20 bytes),
    /// sized so a `StatName` takes the 24 bytes of the `String` it
    /// replaced in [`crate::TraceEvent::Cmd`], keeping that event 128
    /// bytes.
    const CAP: usize = 23;

    /// Appends `s`.
    ///
    /// # Panics
    ///
    /// If the name would outgrow [`StatName::CAP`] bytes.
    fn push(&mut self, s: &str) {
        self.write_str(s)
            .expect("statistics names fit StatName::CAP");
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..usize::from(self.len)]).expect("written from str pieces")
    }
}

impl fmt::Write for StatName {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let start = usize::from(self.len);
        let end = start + s.len();
        self.buf
            .get_mut(start..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end as u8;
        Ok(())
    }
}

impl Deref for StatName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for StatName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for StatName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<str> for StatName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for StatName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_cover_fig8_legend() {
        assert_eq!(OpCategory::ALL.len(), 16);
        assert_eq!(OpCategory::ALL[0].label(), "add");
        assert_eq!(OpCategory::ALL[15].label(), "abs");
    }

    #[test]
    fn stat_names_match_artifact_style() {
        assert_eq!(
            OpKind::Binary(BinaryOp::Add).stat_name(DataType::Int32),
            "add.int32"
        );
        assert_eq!(
            OpKind::CmpScalar(CmpOp::Lt, 3).stat_name(DataType::UInt8),
            "lt_scalar.uint8"
        );
        assert_eq!(OpKind::ShiftR(2).stat_name(DataType::Int32), "shr2.int32");
        assert_eq!(
            OpKind::ShiftL(u32::MAX).stat_name(DataType::UInt64),
            "shl4294967295.uint64"
        );
        assert_eq!(
            OpKind::BinaryScalar(BinaryOp::Xnor, -1).stat_name(DataType::UInt64),
            "xnor_scalar.uint64"
        );
    }

    #[test]
    fn operand_counts() {
        assert_eq!(OpKind::Select.input_operands(), 3);
        assert_eq!(OpKind::Broadcast(1).input_operands(), 0);
        assert_eq!(OpKind::Binary(BinaryOp::Mul).input_operands(), 2);
        assert!(!OpKind::RedSum.writes_output());
    }

    #[test]
    fn fused_ops_describe_their_collapsed_operands() {
        assert_eq!(OpKind::ScaledAdd(7).input_operands(), 2);
        assert_eq!(OpKind::FusedCmpSelect(CmpOp::Lt).input_operands(), 4);
        assert!(OpKind::ScaledAdd(7).writes_output());
        assert_eq!(
            OpKind::ScaledAdd(7).stat_name(DataType::Int32),
            "scaled_add.int32"
        );
        assert_eq!(
            OpKind::FusedCmpSelect(CmpOp::Lt).stat_name(DataType::Int32),
            "lt_select.int32"
        );
        assert_eq!(OpKind::ScaledAdd(7).category(), OpCategory::Mul);
        assert_eq!(OpKind::FusedCmpSelect(CmpOp::Eq).category(), OpCategory::Eq);
        assert_eq!(OpKind::ScaledAdd(7).alu_cycles(12), 2);
    }

    #[test]
    fn popcount_cycles_differ_by_target() {
        assert_eq!(OpKind::Popcount.alu_cycles(12), 12);
        assert_eq!(OpKind::Popcount.alu_cycles(1), 1);
        assert_eq!(OpKind::Binary(BinaryOp::Mul).alu_cycles(12), 1);
    }
}
