//! Functional model of a DRAM subarray as a 2-D bit array.
//!
//! Bit-serial PIM (§IV of the paper) operates on whole rows at once: every
//! sense amplifier latches one bit of the open row, and a small logic block
//! per bitline combines it with per-bitline registers. [`BitMatrix`] stores
//! the cell array (row-major, one `u64` word per 64 bitlines); the
//! bit-serial microcode VM runs its row operations on it.

/// A dense 2-D bit array, row-major, 64 bitlines per word.
///
/// Rows are DRAM wordlines; columns are bitlines. The bit-serial VM
/// holds its vertical-layout operands in one.
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
}
