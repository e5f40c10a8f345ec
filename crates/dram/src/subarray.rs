//! Functional model of a DRAM subarray as a 2-D bit array.
//!
//! Bit-serial PIM (§IV of the paper) operates on whole rows at once: every
//! sense amplifier latches one bit of the open row, and a small logic block
//! per bitline combines it with per-bitline registers. [`BitMatrix`] stores
//! the cell array (row-major, one `u64` word per 64 bitlines) and
//! [`Subarray`] adds open-row semantics plus access statistics
//! ([`RowStats`]) so the microcode VM can be checked against the closed-form
//! cost model.

use crate::error::DramError;

/// A dense 2-D bit array, row-major, 64 bitlines per word.
///
/// Rows are DRAM wordlines; columns are bitlines. Used both as the cell
/// array of a [`Subarray`] and as the vertical-layout staging buffer of the
/// bit-serial VM.
///
/// # Example
///
/// ```
/// use pim_dram::BitMatrix;
///
/// let mut m = BitMatrix::new(4, 128);
/// m.set(2, 70, true);
/// assert!(m.get(2, 70));
/// assert_eq!(m.row(2).iter().map(|w| w.count_ones()).sum::<u32>(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero matrix of `rows` × `cols` bits.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "BitMatrix dimensions must be non-zero"
        );
        let words_per_row = cols.div_ceil(64);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bitlines).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of 64-bit words backing one row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "bit index out of range");
        let w = self.bits[row * self.words_per_row + col / 64];
        (w >> (col % 64)) & 1 == 1
    }

    /// Writes one bit.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows && col < self.cols, "bit index out of range");
        let w = &mut self.bits[row * self.words_per_row + col / 64];
        if value {
            *w |= 1 << (col % 64);
        } else {
            *w &= !(1 << (col % 64));
        }
    }

    /// Borrows one row as words. Bits past `cols` in the last word are zero.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[u64] {
        assert!(row < self.rows, "row index out of range");
        &self.bits[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Mutably borrows one row as words.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_mut(&mut self, row: usize) -> &mut [u64] {
        assert!(row < self.rows, "row index out of range");
        &mut self.bits[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Mutable access to the whole backing store as one flat word
    /// slice, row-major (`rows × words_per_row`); row `r` starts at
    /// `r * words_per_row`.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.bits
    }

    /// Copies `src` row into `dst` row.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn copy_row(&mut self, src: usize, dst: usize) {
        assert!(src < self.rows && dst < self.rows, "row index out of range");
        if src == dst {
            return;
        }
        let (a, b) = (src.min(dst), src.max(dst));
        let (lo, hi) = self.bits.split_at_mut(b * self.words_per_row);
        let lo_row = &lo[a * self.words_per_row..(a + 1) * self.words_per_row];
        let hi_row = &mut hi[..self.words_per_row];
        if src < dst {
            hi_row.copy_from_slice(lo_row);
        } else {
            // dst < src: copy from hi into lo — need the reverse split.
            let tmp: Vec<u64> = hi_row.to_vec();
            lo[a * self.words_per_row..(a + 1) * self.words_per_row].copy_from_slice(&tmp);
        }
    }

    /// Clears trailing padding bits beyond `cols` in every row. Internal
    /// helpers may write whole words; this restores the invariant.
    pub fn mask_padding(&mut self) {
        let extra = self.cols % 64;
        if extra == 0 {
            return;
        }
        let mask = (1u64 << extra) - 1;
        for r in 0..self.rows {
            let idx = r * self.words_per_row + self.words_per_row - 1;
            self.bits[idx] &= mask;
        }
    }

    /// Population count of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_popcount(&self, row: usize) -> u64 {
        self.row(row).iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// Row-level access statistics for a [`Subarray`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowStats {
    /// Number of row activations (destructive reads into the row buffer).
    pub activations: u64,
    /// Number of row write-backs.
    pub write_backs: u64,
    /// Number of precharges.
    pub precharges: u64,
}

/// A functional DRAM subarray: cell array + open-row buffer + statistics.
///
/// Activation is destructive (the row's cells are cleared until the buffer is
/// written back or the row is precharged, which restores it), matching real
/// DRAM semantics described in §III.
///
/// # Example
///
/// ```
/// use pim_dram::Subarray;
///
/// let mut sa = Subarray::new(8, 64);
/// sa.activate(3).unwrap();
/// sa.row_buffer_mut().unwrap()[0] = 0xFF;
/// sa.precharge().unwrap(); // restores (writes back) the buffer
/// assert_eq!(sa.cells().row(3)[0], 0xFF);
/// assert_eq!(sa.stats().activations, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Subarray {
    cells: BitMatrix,
    row_buffer: Vec<u64>,
    open_row: Option<usize>,
    stats: RowStats,
}

impl Subarray {
    /// Creates a zeroed subarray of `rows` × `cols`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        let cells = BitMatrix::new(rows, cols);
        let words = cells.words_per_row();
        Subarray {
            cells,
            row_buffer: vec![0; words],
            open_row: None,
            stats: RowStats::default(),
        }
    }

    /// The backing cell array.
    pub fn cells(&self) -> &BitMatrix {
        &self.cells
    }

    /// Mutable access to the backing cell array (for loading test vectors).
    pub fn cells_mut(&mut self) -> &mut BitMatrix {
        &mut self.cells
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<usize> {
        self.open_row
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &RowStats {
        &self.stats
    }

    /// Activates `row`: latches it into the row buffer (destructive read).
    ///
    /// # Errors
    ///
    /// [`DramError::RowAlreadyActive`] if another row is open;
    /// [`DramError::RowOutOfRange`] if `row` is invalid.
    pub fn activate(&mut self, row: usize) -> Result<(), DramError> {
        if let Some(open) = self.open_row {
            return Err(DramError::RowAlreadyActive { open_row: open });
        }
        if row >= self.cells.rows() {
            return Err(DramError::RowOutOfRange {
                row,
                rows: self.cells.rows(),
            });
        }
        self.row_buffer.copy_from_slice(self.cells.row(row));
        // Destructive read: cells lose their charge until restore.
        self.cells.row_mut(row).fill(0);
        self.open_row = Some(row);
        self.stats.activations += 1;
        Ok(())
    }

    /// Precharges: restores the row buffer into the open row and closes it.
    ///
    /// # Errors
    ///
    /// [`DramError::RowNotActive`] if no row is open.
    pub fn precharge(&mut self) -> Result<(), DramError> {
        let row = self.open_row.ok_or(DramError::RowNotActive)?;
        self.cells.row_mut(row).copy_from_slice(&self.row_buffer);
        self.open_row = None;
        self.stats.precharges += 1;
        Ok(())
    }

    /// Borrows the open row buffer.
    ///
    /// # Errors
    ///
    /// [`DramError::RowNotActive`] if no row is open.
    pub fn row_buffer(&self) -> Result<&[u64], DramError> {
        if self.open_row.is_none() {
            return Err(DramError::RowNotActive);
        }
        Ok(&self.row_buffer)
    }

    /// Mutably borrows the open row buffer (sense-amp level logic writes).
    ///
    /// # Errors
    ///
    /// [`DramError::RowNotActive`] if no row is open.
    pub fn row_buffer_mut(&mut self) -> Result<&mut [u64], DramError> {
        if self.open_row.is_none() {
            return Err(DramError::RowNotActive);
        }
        self.stats.write_backs += 1;
        Ok(&mut self.row_buffer)
    }

    /// Convenience: activate `row`, apply `f` to the row buffer, precharge.
    ///
    /// # Errors
    ///
    /// Propagates activation errors.
    pub fn with_row<R>(
        &mut self,
        row: usize,
        f: impl FnOnce(&mut [u64]) -> R,
    ) -> Result<R, DramError> {
        self.activate(row)?;
        let out = f(&mut self.row_buffer);
        self.stats.write_backs += 1;
        self.precharge()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmatrix_set_get_roundtrip() {
        let mut m = BitMatrix::new(3, 100);
        for (r, c) in [(0, 0), (1, 63), (1, 64), (2, 99)] {
            m.set(r, c, true);
            assert!(m.get(r, c), "({r},{c})");
        }
        m.set(1, 64, false);
        assert!(!m.get(1, 64));
    }

    #[test]
    fn bitmatrix_copy_row_both_directions() {
        let mut m = BitMatrix::new(4, 65);
        m.set(0, 64, true);
        m.copy_row(0, 3);
        assert!(m.get(3, 64));
        m.set(3, 1, true);
        m.copy_row(3, 0);
        assert!(m.get(0, 1) && m.get(0, 64));
    }

    #[test]
    fn bitmatrix_mask_padding_clears_extra_bits() {
        let mut m = BitMatrix::new(1, 10);
        m.row_mut(0)[0] = u64::MAX;
        m.mask_padding();
        assert_eq!(m.row_popcount(0), 10);
    }

    #[test]
    fn activation_is_destructive_until_precharge() {
        let mut sa = Subarray::new(4, 64);
        sa.cells_mut().set(1, 5, true);
        sa.activate(1).unwrap();
        assert!(!sa.cells().get(1, 5), "cells drained by activation");
        sa.precharge().unwrap();
        assert!(sa.cells().get(1, 5), "precharge restores");
    }

    #[test]
    fn double_activate_rejected() {
        let mut sa = Subarray::new(4, 64);
        sa.activate(0).unwrap();
        assert_eq!(
            sa.activate(1),
            Err(DramError::RowAlreadyActive { open_row: 0 })
        );
    }

    #[test]
    fn activate_out_of_range_rejected() {
        let mut sa = Subarray::new(4, 64);
        assert_eq!(
            sa.activate(4),
            Err(DramError::RowOutOfRange { row: 4, rows: 4 })
        );
    }

    #[test]
    fn row_buffer_requires_open_row() {
        let sa = Subarray::new(2, 64);
        assert_eq!(sa.row_buffer().unwrap_err(), DramError::RowNotActive);
    }

    #[test]
    fn with_row_modifies_and_counts() {
        let mut sa = Subarray::new(2, 64);
        sa.with_row(0, |buf| buf[0] = 0b1010).unwrap();
        assert_eq!(sa.cells().row(0)[0], 0b1010);
        assert_eq!(sa.stats().activations, 1);
        assert_eq!(sa.stats().precharges, 1);
        assert!(sa.stats().write_backs >= 1);
    }
}
