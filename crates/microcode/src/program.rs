//! Microprogram container and cost accounting.

use crate::isa::MicroOp;
use std::fmt;
use std::ops::{Add, AddAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`MicroProgram`] constructions (every `gen::*`
/// and `analog::*` generator builds its result through
/// [`MicroProgram::new`]). The cost-memoization tests read this to prove
/// that charged commands stop regenerating microprograms.
static GENERATED: AtomicU64 = AtomicU64::new(0);

/// Exact operation counts of a microprogram.
///
/// The bit-serial performance model charges `row_reads × tRowRead +
/// row_writes × tRowWrite + popcount_reads × (tRowRead + tPop) +
/// logic_ops × tLogic`, so these counts *are* the latency model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Row activations that latch data into the sense amps.
    pub row_reads: u64,
    /// Row write-backs.
    pub row_writes: u64,
    /// Register/sense-amp logic steps (set/move/and/xnor/sel).
    pub logic_ops: u64,
    /// Controller-assisted row popcounts.
    pub popcount_reads: u64,
    /// Analog AAP row copies (RowClone double activation), including
    /// inverting copies through DCC rows.
    pub aap_ops: u64,
    /// Analog triple-row activations (charge-sharing MAJority).
    pub tra_ops: u64,
}

impl Cost {
    /// Total row-level accesses (reads + writes + popcount reads + both
    /// activations of each AAP + each TRA).
    pub fn row_accesses(&self) -> u64 {
        self.row_reads + self.row_writes + self.popcount_reads + 2 * self.aap_ops + self.tra_ops
    }

    /// The per-field difference `self - earlier` (saturating), for
    /// isolating one run's counters from a cumulative snapshot.
    #[must_use]
    pub fn delta_since(&self, earlier: &Cost) -> Cost {
        Cost {
            row_reads: self.row_reads.saturating_sub(earlier.row_reads),
            row_writes: self.row_writes.saturating_sub(earlier.row_writes),
            logic_ops: self.logic_ops.saturating_sub(earlier.logic_ops),
            popcount_reads: self.popcount_reads.saturating_sub(earlier.popcount_reads),
            aap_ops: self.aap_ops.saturating_sub(earlier.aap_ops),
            tra_ops: self.tra_ops.saturating_sub(earlier.tra_ops),
        }
    }

    /// Scales every counter by `n` (e.g. a program run once per element
    /// group).
    #[must_use]
    pub fn scaled(&self, n: u64) -> Cost {
        Cost {
            row_reads: self.row_reads * n,
            row_writes: self.row_writes * n,
            logic_ops: self.logic_ops * n,
            popcount_reads: self.popcount_reads * n,
            aap_ops: self.aap_ops * n,
            tra_ops: self.tra_ops * n,
        }
    }
}

impl Add for Cost {
    type Output = Cost;

    fn add(self, rhs: Cost) -> Cost {
        Cost {
            row_reads: self.row_reads + rhs.row_reads,
            row_writes: self.row_writes + rhs.row_writes,
            logic_ops: self.logic_ops + rhs.logic_ops,
            popcount_reads: self.popcount_reads + rhs.popcount_reads,
            aap_ops: self.aap_ops + rhs.aap_ops,
            tra_ops: self.tra_ops + rhs.tra_ops,
        }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}R/{}W/{}L/{}P/{}A/{}T",
            self.row_reads,
            self.row_writes,
            self.logic_ops,
            self.popcount_reads,
            self.aap_ops,
            self.tra_ops
        )
    }
}

/// A generated bit-serial microprogram.
///
/// Programs are symbolic: row references name operand binding slots and a
/// scratch region, resolved by the VM at execution time. The same program
/// therefore runs against any allocation and any element count.
///
/// # Example
///
/// ```
/// use pim_microcode::gen::{self, BinaryOp};
///
/// let add32 = gen::binary(BinaryOp::Add, 32);
/// let c = add32.cost();
/// // 2 reads + 1 write per bit: the "3n rows" the paper quotes for
/// // two-input/one-output n-bit ops.
/// assert_eq!(c.row_reads, 64);
/// assert_eq!(c.row_writes, 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicroProgram {
    name: String,
    ops: Vec<MicroOp>,
    operands: u8,
    temp_rows: u32,
}

impl MicroProgram {
    /// Creates a program from parts. `operands` is the number of binding
    /// slots the program references; `temp_rows` the scratch rows needed.
    pub fn new(name: impl Into<String>, ops: Vec<MicroOp>, operands: u8, temp_rows: u32) -> Self {
        GENERATED.fetch_add(1, Ordering::Relaxed);
        MicroProgram {
            name: name.into(),
            ops,
            operands,
            temp_rows,
        }
    }

    /// Total microprograms generated so far in this process, across all
    /// threads. Monotonically increasing; take a snapshot before and
    /// after a workload to count generator invocations it caused.
    pub fn generated_count() -> u64 {
        GENERATED.load(Ordering::Relaxed)
    }

    /// Human-readable program name, e.g. `"add.i32"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The micro-op sequence.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of operand binding slots the program expects.
    pub fn operand_slots(&self) -> u8 {
        self.operands
    }

    /// Scratch rows the executor must provide.
    pub fn temp_rows(&self) -> u32 {
        self.temp_rows
    }

    /// Counts the program's row and logic operations.
    pub fn cost(&self) -> Cost {
        let mut c = Cost::default();
        for op in &self.ops {
            match op {
                MicroOp::Read(_) => c.row_reads += 1,
                MicroOp::Write(_) => c.row_writes += 1,
                MicroOp::Popcount { .. } => c.popcount_reads += 1,
                MicroOp::Aap { .. } | MicroOp::AapNot { .. } => c.aap_ops += 1,
                MicroOp::Tra { .. } => c.tra_ops += 1,
                _ => c.logic_ops += 1,
            }
        }
        c
    }

    /// Renders the program as an assembly-like listing (for debugging and
    /// the `microcode` example).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; {} ({} ops, {})",
            self.name,
            self.ops.len(),
            self.cost()
        );
        for (i, op) in self.ops.iter().enumerate() {
            let _ = writeln!(out, "{i:5}: {op}");
        }
        out
    }
}

impl fmt::Display for MicroProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} ops, cost {})",
            self.name,
            self.ops.len(),
            self.cost()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Loc, RowRef};

    fn sample() -> MicroProgram {
        MicroProgram::new(
            "sample",
            vec![
                MicroOp::Read(RowRef::op(0, 0)),
                MicroOp::Move {
                    src: Loc::Sa,
                    dst: Loc::R1,
                },
                MicroOp::Popcount {
                    row: RowRef::op(0, 1),
                    shift: 0,
                    negate: false,
                },
                MicroOp::Write(RowRef::op(1, 0)),
            ],
            2,
            0,
        )
    }

    #[test]
    fn cost_counts_each_category() {
        let c = sample().cost();
        let expected = Cost {
            row_reads: 1,
            row_writes: 1,
            logic_ops: 1,
            popcount_reads: 1,
            ..Cost::default()
        };
        assert_eq!(c, expected);
        assert_eq!(c.row_accesses(), 3);
    }

    #[test]
    fn cost_add_and_scale() {
        let c = sample().cost();
        let doubled = c + c;
        assert_eq!(doubled, c.scaled(2));
        let mut acc = Cost::default();
        acc += c;
        assert_eq!(acc, c);
    }

    #[test]
    fn disassembly_lists_every_op() {
        let p = sample();
        let d = p.disassemble();
        assert_eq!(d.lines().count(), p.ops().len() + 1);
        assert!(d.contains("popcnt"));
    }
}
