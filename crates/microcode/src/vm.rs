//! Row-wide executor for bit-serial microprograms.
//!
//! One [`Vm`] models the per-bitline logic of a whole subarray: every logic
//! micro-op applies to all active columns at once (64 bitlines per `u64`
//! word). Rows live in a [`BitMatrix`]; operand regions are bound to the
//! program's symbolic slots before running.

use std::error::Error;
use std::fmt;

use pim_dram::{exec, BitMatrix};

use crate::isa::{Loc, MicroOp, RowRef};
use crate::program::{Cost, MicroProgram};

/// A contiguous band of rows inside the VM's bit matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First row of the region.
    pub base_row: usize,
    /// Number of rows (the element bit-width for operand regions).
    pub rows: u32,
}

impl Region {
    /// Creates a region starting at `base_row` spanning `rows` rows.
    pub fn new(base_row: usize, rows: u32) -> Self {
        Region { base_row, rows }
    }
}

/// Errors raised while executing a microprogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The program referenced an operand slot that was never bound.
    UnboundSlot(u8),
    /// The program used a `RowRef::Temp` reference but no scratch
    /// region was bound (see [`Vm::bind_temp`]).
    UnboundTemp,
    /// A row reference fell outside its bound region.
    RowOutOfRegion {
        /// The offending reference.
        reference: String,
        /// Rows available in the region.
        rows: u32,
    },
    /// A `Tra` micro-op resolved two (or three) of its row references
    /// to the same physical row; charge-sharing majority is undefined
    /// unless all three rows are distinct.
    TraRowsNotDistinct {
        /// Resolved absolute row of the first reference.
        a: usize,
        /// Resolved absolute row of the second reference.
        b: usize,
        /// Resolved absolute row of the third reference.
        c: usize,
    },
    /// The program needs more scratch rows than were bound.
    TempTooSmall {
        /// Scratch rows the program requires.
        needed: u32,
        /// Scratch rows bound.
        bound: u32,
    },
    /// A resolved row index exceeded the matrix.
    RowOutOfMatrix {
        /// The absolute row index.
        row: usize,
        /// Rows in the matrix.
        rows: usize,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UnboundSlot(s) => write!(f, "operand slot {s} is not bound"),
            VmError::UnboundTemp => {
                write!(
                    f,
                    "program references scratch rows but no temp region is bound"
                )
            }
            VmError::RowOutOfRegion { reference, rows } => {
                write!(
                    f,
                    "row reference {reference} outside its region of {rows} rows"
                )
            }
            VmError::TraRowsNotDistinct { a, b, c } => {
                write!(f, "TRA rows must be distinct, resolved to {a}/{b}/{c}")
            }
            VmError::TempTooSmall { needed, bound } => {
                write!(
                    f,
                    "program needs {needed} scratch rows but only {bound} are bound"
                )
            }
            VmError::RowOutOfMatrix { row, rows } => {
                write!(f, "absolute row {row} exceeds matrix of {rows} rows")
            }
        }
    }
}

impl Error for VmError {}

/// The bit-slice virtual machine: SA latch + four bit registers per
/// bitline, a controller reduction accumulator, and access statistics.
///
/// See the crate-level example for typical usage.
#[derive(Debug)]
pub struct Vm<'a> {
    mat: &'a mut BitMatrix,
    slots: Vec<Option<Region>>,
    temp: Option<Region>,
    sa: Vec<u64>,
    regs: [Vec<u64>; 4],
    tail_mask: u64,
    acc: i128,
    stats: Cost,
    last_run_cost: Cost,
    row_sweeps: u64,
    words_swept: u64,
    /// Reusable row-width buffer for interpreter logic ops — the
    /// steady-state interpreter allocates nothing per micro-op.
    scratch: Vec<u64>,
}

impl<'a> Vm<'a> {
    /// Creates a VM over `mat` with `slots` operand binding slots. All
    /// columns of the matrix are active bitlines.
    pub fn new(mat: &'a mut BitMatrix, slots: usize) -> Self {
        let words = mat.words_per_row();
        let extra = mat.cols() % 64;
        let tail_mask = if extra == 0 {
            u64::MAX
        } else {
            (1u64 << extra) - 1
        };
        Vm {
            mat,
            slots: vec![None; slots],
            temp: None,
            sa: vec![0; words],
            regs: [
                vec![0; words],
                vec![0; words],
                vec![0; words],
                vec![0; words],
            ],
            tail_mask,
            acc: 0,
            stats: Cost::default(),
            last_run_cost: Cost::default(),
            row_sweeps: 0,
            words_swept: 0,
            scratch: vec![0; words],
        }
    }

    /// Binds operand slot `slot` to `region`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the VM's slot count.
    pub fn bind(&mut self, slot: usize, region: Region) {
        self.slots[slot] = Some(region);
    }

    /// Binds the scratch region used by `RowRef::Temp` references.
    pub fn bind_temp(&mut self, region: Region) {
        self.temp = Some(region);
    }

    /// The backing matrix (for decoding results).
    pub fn matrix(&self) -> &BitMatrix {
        self.mat
    }

    /// The controller reduction accumulator (written by `Popcount` ops).
    pub fn accumulator(&self) -> i128 {
        self.acc
    }

    /// Clears the controller accumulator.
    pub fn reset_accumulator(&mut self) {
        self.acc = 0;
    }

    /// Accumulated execution statistics across all `run` calls.
    pub fn stats(&self) -> &Cost {
        &self.stats
    }

    /// Counters attributable to the most recent [`Vm::run`] call alone
    /// (the delta the run added to [`Vm::stats`]). Zero before any run.
    pub fn last_run_cost(&self) -> Cost {
        self.last_run_cost
    }

    /// Total full-row activations swept across all `run` calls: one per
    /// row a micro-op drives through the sense amplifiers (`Read`,
    /// `Write`, and `Popcount` touch one row; `Aap`/`AapNot` two; `Tra`
    /// three). Feeds the `metrics` row-sweep counters without being
    /// part of [`Cost`], which stays the modeled-cost ledger.
    pub fn row_sweeps(&self) -> u64 {
        self.row_sweeps
    }

    /// Total 64-bit words moved by those row sweeps
    /// (`row_sweeps × words_per_row`).
    pub fn words_swept(&self) -> u64 {
        self.words_swept
    }

    fn note_sweeps(&mut self, rows: u64) {
        self.row_sweeps += rows;
        self.words_swept += rows * self.sa.len() as u64;
    }

    fn resolve(&self, r: RowRef) -> Result<usize, VmError> {
        let (region, bit) = match r {
            RowRef::Operand { operand, bit } => {
                let region = self
                    .slots
                    .get(operand as usize)
                    .copied()
                    .flatten()
                    .ok_or(VmError::UnboundSlot(operand))?;
                (region, bit)
            }
            RowRef::Temp { index } => {
                let region = self.temp.ok_or(VmError::UnboundTemp)?;
                (region, index)
            }
        };
        if bit >= region.rows {
            return Err(VmError::RowOutOfRegion {
                reference: r.to_string(),
                rows: region.rows,
            });
        }
        let row = region.base_row + bit as usize;
        if row >= self.mat.rows() {
            return Err(VmError::RowOutOfMatrix {
                row,
                rows: self.mat.rows(),
            });
        }
        Ok(row)
    }

    fn loc(&self, loc: Loc) -> &[u64] {
        match loc {
            Loc::Sa => &self.sa,
            Loc::R0 => &self.regs[0],
            Loc::R1 => &self.regs[1],
            Loc::R2 => &self.regs[2],
            Loc::R3 => &self.regs[3],
        }
    }

    fn loc_mut(&mut self, loc: Loc) -> &mut Vec<u64> {
        match loc {
            Loc::Sa => &mut self.sa,
            Loc::R0 => &mut self.regs[0],
            Loc::R1 => &mut self.regs[1],
            Loc::R2 => &mut self.regs[2],
            Loc::R3 => &mut self.regs[3],
        }
    }

    /// Swaps `buf` (a fully computed row-width value, last word already
    /// masked) into register `dst`, leaving the old register buffer in
    /// `self.scratch` for reuse — the zero-allocation register store.
    fn store_swap(&mut self, dst: Loc, mut buf: Vec<u64>) {
        if let Some(last) = buf.last_mut() {
            *last &= self.tail_mask;
        }
        std::mem::swap(self.loc_mut(dst), &mut buf);
        self.scratch = buf;
    }

    /// Executes `program` against the bound regions, op by op.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if a referenced slot is unbound, a row falls
    /// outside its region or the matrix, the scratch region is too
    /// small, or TRA rows alias. The matrix may be partially modified on
    /// error.
    pub fn run(&mut self, program: &MicroProgram) -> Result<(), VmError> {
        let temp_bound = self.temp.map_or(0, |r| r.rows);
        if program.temp_rows() > temp_bound {
            return Err(VmError::TempTooSmall {
                needed: program.temp_rows(),
                bound: temp_bound,
            });
        }
        let before = self.stats;
        let result = program.ops().iter().try_for_each(|op| self.step(*op));
        self.last_run_cost = self.stats.delta_since(&before);
        result
    }

    fn step(&mut self, op: MicroOp) -> Result<(), VmError> {
        match op {
            MicroOp::Read(r) => {
                let row = self.resolve(r)?;
                self.sa.copy_from_slice(self.mat.row(row));
                if let Some(last) = self.sa.last_mut() {
                    *last &= self.tail_mask;
                }
                self.stats.row_reads += 1;
                self.note_sweeps(1);
            }
            MicroOp::Write(r) => {
                let row = self.resolve(r)?;
                self.mat.row_mut(row).copy_from_slice(&self.sa);
                self.stats.row_writes += 1;
                self.note_sweeps(1);
            }
            MicroOp::Set { dst, value } => {
                let fill = if value { u64::MAX } else { 0 };
                let tail_mask = self.tail_mask;
                let dst = self.loc_mut(dst);
                dst.fill(fill);
                if let Some(last) = dst.last_mut() {
                    *last &= tail_mask;
                }
                self.stats.logic_ops += 1;
            }
            MicroOp::Move { src, dst } => {
                let mut buf = std::mem::take(&mut self.scratch);
                buf.copy_from_slice(self.loc(src));
                self.store_swap(dst, buf);
                self.stats.logic_ops += 1;
            }
            MicroOp::And { a, b, dst } => {
                let mut buf = std::mem::take(&mut self.scratch);
                exec::par_map_into([self.loc(a), self.loc(b)], &mut buf, |[x, y]| x & y);
                self.store_swap(dst, buf);
                self.stats.logic_ops += 1;
            }
            MicroOp::Xnor { a, b, dst } => {
                let mut buf = std::mem::take(&mut self.scratch);
                exec::par_map_into([self.loc(a), self.loc(b)], &mut buf, |[x, y]| !(x ^ y));
                self.store_swap(dst, buf);
                self.stats.logic_ops += 1;
            }
            MicroOp::Sel {
                cond,
                if_true,
                if_false,
                dst,
            } => {
                let mut buf = std::mem::take(&mut self.scratch);
                exec::par_map_into(
                    [self.loc(cond), self.loc(if_true), self.loc(if_false)],
                    &mut buf,
                    |[c, t, f]| (c & t) | (!c & f),
                );
                self.store_swap(dst, buf);
                self.stats.logic_ops += 1;
            }
            MicroOp::Aap { src, dst } => {
                let (s, d) = (self.resolve(src)?, self.resolve(dst)?);
                if s != d {
                    let mut buf = std::mem::take(&mut self.scratch);
                    buf.copy_from_slice(self.mat.row(s));
                    self.mat.row_mut(d).copy_from_slice(&buf);
                    self.scratch = buf;
                }
                self.stats.aap_ops += 1;
                self.note_sweeps(2);
            }
            MicroOp::AapNot { src, dst } => {
                let (s, d) = (self.resolve(src)?, self.resolve(dst)?);
                let mut buf = std::mem::take(&mut self.scratch);
                exec::par_map_into([self.mat.row(s)], &mut buf, |[w]| !w);
                if let Some(last) = buf.last_mut() {
                    *last &= self.tail_mask;
                }
                self.mat.row_mut(d).copy_from_slice(&buf);
                self.scratch = buf;
                self.stats.aap_ops += 1;
                self.note_sweeps(2);
            }
            MicroOp::Tra { a, b, c } => {
                let (ra, rb, rc) = (self.resolve(a)?, self.resolve(b)?, self.resolve(c)?);
                if ra == rb || rb == rc || ra == rc {
                    return Err(VmError::TraRowsNotDistinct {
                        a: ra,
                        b: rb,
                        c: rc,
                    });
                }
                let mut maj = std::mem::take(&mut self.scratch);
                exec::par_map_into(
                    [self.mat.row(ra), self.mat.row(rb), self.mat.row(rc)],
                    &mut maj,
                    |[x, y, z]| (x & y) | (y & z) | (x & z),
                );
                // Charge sharing leaves the majority in all three rows.
                self.mat.row_mut(ra).copy_from_slice(&maj);
                self.mat.row_mut(rb).copy_from_slice(&maj);
                self.mat.row_mut(rc).copy_from_slice(&maj);
                self.scratch = maj;
                self.stats.tra_ops += 1;
                self.note_sweeps(3);
            }
            MicroOp::Popcount { row, shift, negate } => {
                let abs_row = self.resolve(row)?;
                let words = self.mat.row(abs_row);
                let tail_mask = self.tail_mask;
                // Per-chunk partial counts fold in ascending chunk order,
                // keeping `acc` bit-identical at every thread count.
                let count = exec::par_fold(
                    words.len(),
                    |r| {
                        let mut partial = 0u64;
                        for i in r {
                            let w = if i + 1 == words.len() {
                                words[i] & tail_mask
                            } else {
                                words[i]
                            };
                            partial += w.count_ones() as u64;
                        }
                        partial
                    },
                    |a, b| a + b,
                )
                .unwrap_or(0);
                let term = (count as i128) << shift;
                if negate {
                    self.acc -= term;
                } else {
                    self.acc += term;
                }
                self.stats.popcount_reads += 1;
                self.note_sweeps(1);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, BinaryOp};
    use crate::isa::{Loc, MicroOp, RowRef};
    use crate::program::MicroProgram;

    #[test]
    fn unbound_slot_is_reported() {
        let mut mat = BitMatrix::new(8, 64);
        let prog = MicroProgram::new("t", vec![MicroOp::Read(RowRef::op(1, 0))], 2, 0);
        let mut vm = Vm::new(&mut mat, 2);
        vm.bind(0, Region::new(0, 4));
        assert_eq!(vm.run(&prog), Err(VmError::UnboundSlot(1)));
    }

    #[test]
    fn temp_too_small_is_reported() {
        let mut mat = BitMatrix::new(64, 64);
        let prog = gen::abs(8, true); // needs 8 temp rows
        let mut vm = Vm::new(&mut mat, 2);
        vm.bind(0, Region::new(0, 8));
        vm.bind(1, Region::new(8, 8));
        vm.bind_temp(Region::new(16, 4));
        assert_eq!(
            vm.run(&prog),
            Err(VmError::TempTooSmall {
                needed: 8,
                bound: 4
            })
        );
    }

    #[test]
    fn unbound_temp_is_reported() {
        let mut mat = BitMatrix::new(8, 64);
        // Declares zero temp rows (so the up-front TempTooSmall check
        // passes) yet references the scratch region: the old code
        // surfaced this as the bogus `UnboundSlot(255)`.
        let prog = MicroProgram::new("t", vec![MicroOp::Read(RowRef::temp(0))], 1, 0);
        let mut vm = Vm::new(&mut mat, 1);
        vm.bind(0, Region::new(0, 4));
        assert_eq!(vm.run(&prog), Err(VmError::UnboundTemp));
        let msg = VmError::UnboundTemp.to_string();
        assert!(msg.contains("temp region"), "got: {msg}");
    }

    #[test]
    fn tra_rows_not_distinct_is_reported() {
        let mut mat = BitMatrix::new(8, 64);
        let prog = MicroProgram::new(
            "t",
            vec![MicroOp::Tra {
                a: RowRef::op(0, 0),
                b: RowRef::op(0, 1),
                c: RowRef::op(0, 0),
            }],
            1,
            0,
        );
        let mut vm = Vm::new(&mut mat, 1);
        vm.bind(0, Region::new(2, 4));
        // Formerly mis-reported as `RowOutOfRegion { rows: 0 }` with
        // prose in the reference string; now a dedicated variant naming
        // the resolved rows.
        assert_eq!(
            vm.run(&prog),
            Err(VmError::TraRowsNotDistinct { a: 2, b: 3, c: 2 })
        );
    }

    #[test]
    fn tra_alias_across_regions_is_detected_per_binding() {
        // The same symbolic refs are fine or erroneous depending on the
        // bindings — distinctness is a run-time property, checked per
        // run.
        let mut mat = BitMatrix::new(8, 64);
        let prog = MicroProgram::new(
            "t",
            vec![MicroOp::Tra {
                a: RowRef::op(0, 0),
                b: RowRef::op(1, 0),
                c: RowRef::op(0, 1),
            }],
            2,
            0,
        );
        {
            let mut vm = Vm::new(&mut mat, 2);
            vm.bind(0, Region::new(0, 2));
            vm.bind(1, Region::new(0, 2)); // slot 1 aliases slot 0
            assert_eq!(
                vm.run(&prog),
                Err(VmError::TraRowsNotDistinct { a: 0, b: 0, c: 1 })
            );
        }
        let mut vm = Vm::new(&mut mat, 2);
        vm.bind(0, Region::new(0, 2));
        vm.bind(1, Region::new(4, 2));
        vm.run(&prog).unwrap();
    }

    #[test]
    fn row_out_of_region_is_reported() {
        let mut mat = BitMatrix::new(8, 64);
        let prog = MicroProgram::new("t", vec![MicroOp::Read(RowRef::op(0, 5))], 1, 0);
        let mut vm = Vm::new(&mut mat, 1);
        vm.bind(0, Region::new(0, 4));
        assert!(matches!(vm.run(&prog), Err(VmError::RowOutOfRegion { .. })));
    }

    #[test]
    fn stats_match_program_cost() {
        let mut mat = BitMatrix::new(96, 128);
        let prog = gen::binary(BinaryOp::Add, 32);
        let mut vm = Vm::new(&mut mat, 3);
        vm.bind(0, Region::new(0, 32));
        vm.bind(1, Region::new(32, 32));
        vm.bind(2, Region::new(64, 32));
        vm.run(&prog).unwrap();
        assert_eq!(*vm.stats(), prog.cost());
    }

    #[test]
    fn row_sweeps_count_rows_touched() {
        let mut mat = BitMatrix::new(16, 128); // 2 words per row
        let prog = MicroProgram::new(
            "s",
            vec![
                MicroOp::Read(RowRef::op(0, 0)),  // 1 sweep
                MicroOp::Write(RowRef::op(0, 1)), // 1
                MicroOp::Aap {
                    src: RowRef::op(0, 0),
                    dst: RowRef::op(0, 2),
                }, // 2
                MicroOp::Tra {
                    a: RowRef::op(0, 0),
                    b: RowRef::op(0, 1),
                    c: RowRef::op(0, 2),
                }, // 3
                MicroOp::Popcount {
                    row: RowRef::op(0, 0),
                    shift: 0,
                    negate: false,
                }, // 1
            ],
            1,
            0,
        );
        let mut vm = Vm::new(&mut mat, 1);
        vm.bind(0, Region::new(0, 8));
        assert_eq!(vm.row_sweeps(), 0);
        vm.run(&prog).unwrap();
        assert_eq!(vm.row_sweeps(), 8);
        assert_eq!(vm.words_swept(), 8 * 2);
    }

    #[test]
    fn popcount_masks_padding_columns() {
        let mut mat = BitMatrix::new(1, 10); // 10 active columns
        mat.row_mut(0)[0] = u64::MAX; // garbage beyond column 9
        let prog = MicroProgram::new(
            "p",
            vec![MicroOp::Popcount {
                row: RowRef::op(0, 0),
                shift: 2,
                negate: false,
            }],
            1,
            0,
        );
        let mut vm = Vm::new(&mut mat, 1);
        vm.bind(0, Region::new(0, 1));
        vm.run(&prog).unwrap();
        assert_eq!(vm.accumulator(), 10 << 2);
        vm.reset_accumulator();
        assert_eq!(vm.accumulator(), 0);
    }

    #[test]
    fn set_respects_active_column_mask() {
        let mut mat = BitMatrix::new(2, 10);
        let prog = MicroProgram::new(
            "b",
            vec![
                MicroOp::Set {
                    dst: Loc::Sa,
                    value: true,
                },
                MicroOp::Write(RowRef::op(0, 0)),
            ],
            1,
            0,
        );
        let mut vm = Vm::new(&mut mat, 1);
        vm.bind(0, Region::new(0, 2));
        vm.run(&prog).unwrap();
        assert_eq!(mat.row_popcount(0), 10, "only active bitlines are driven");
    }
}
