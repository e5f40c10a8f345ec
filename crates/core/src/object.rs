//! PIM data objects and their physical layouts.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::config::DeviceConfig;
use crate::dtype::DataType;
use crate::error::{PimError, Result};

/// Opaque handle to a PIM data object (the `PimObjId` of the C API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub(crate) u64);

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// The table keyed by [`ObjId`] that resolves an id to its object's
/// slot in [`crate::PimSystem`]. Every command resolves each operand
/// here once, so lookups must be cheap, and its memory must follow the
/// *live* object count.
///
/// Two invariants make a hash table sound here:
///
/// * **Nothing iterates it.** Hash order is unspecified, so any output
///   built by walking the table would depend on it. Only point lookups,
///   inserts, removals and `len` are allowed; code that needs an order
///   must keep its own.
/// * **Ids are never reused.** The allocator hands out monotone ids, so
///   a freed id stays absent forever and a lookup through it reports
///   [`PimError::UnknownObject`] instead of reaching a newer object.
///   This is also why the table is not a `Vec` indexed by id: such a
///   slab would grow with every object ever allocated, not with the
///   live ones. (The slots it maps to are reused, so they do follow
///   the live count.)
pub(crate) type IdMap<V> = HashMap<ObjId, V, BuildHasherDefault<IdHasher>>;

/// Hasher for [`IdMap`] and the process-wide cost memo: each word is
/// folded in with a rotate, an xor and one Fibonacci multiply. A lone
/// id hashes to `id × K`, so consecutive ids land in distinct buckets
/// (the multiplier is odd, so the low bits are a bijection) and the
/// high bits the table uses as tags are well mixed; a composite key
/// such as `(OpKind, DataType)` mixes every field. Not
/// collision-resistant, which is fine for keys the simulator builds
/// itself.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// How an object's elements are arranged in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLayout {
    /// One element per column, `bits` consecutive rows per element group
    /// (bit-serial PIM).
    Vertical,
    /// Elements packed along rows, `cols / bits` per row (bit-parallel
    /// PIM).
    Horizontal,
}

/// The physical placement of one object, computed at allocation time.
///
/// The performance models consume this: the per-core element count sets
/// how much serial work each core performs, and `cores_used` sets the
/// parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectLayout {
    /// Vertical or horizontal.
    pub layout: DataLayout,
    /// Cores this object is spread across.
    pub cores_used: usize,
    /// Elements resident on the busiest core.
    pub elems_per_core: u64,
    /// DRAM rows the object occupies on the busiest core.
    pub rows_per_core: u64,
    /// Elements that fit in one row (horizontal) or one stripe
    /// (vertical = one element per column).
    pub elems_per_unit: u64,
    /// Row groups per core: data rows for horizontal, stripes
    /// (of `bits` rows each) for vertical.
    pub units_per_core: u64,
}

impl ObjectLayout {
    /// Computes the auto-placement (`PIM_ALLOC_AUTO`) for `count` elements
    /// of `dtype` on `config`'s device, optionally constrained to the same
    /// number of cores as an associated object.
    ///
    /// Elements are spread across as many cores as possible, one
    /// unit (row or stripe) at a time, to maximize parallelism.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] for zero-sized allocations or when the
    /// row arithmetic overflows `u64`, [`PimError::OutOfMemory`] if the
    /// busiest core would need more rows than one core has (capacity
    /// across objects is enforced by the resource manager).
    pub fn compute(
        config: &DeviceConfig,
        count: u64,
        dtype: DataType,
        cores_cap: Option<usize>,
    ) -> Result<ObjectLayout> {
        if count == 0 {
            return Err(PimError::InvalidArg("cannot allocate zero elements".into()));
        }
        let bits = dtype.bits() as u64;
        let cols = config.cols_per_core() as u64;
        let total_cores = cores_cap.unwrap_or_else(|| config.core_count()).max(1);
        let (layout, elems_per_unit, rows_per_unit) = if config.target.is_horizontal() {
            (DataLayout::Horizontal, (cols / bits).max(1), 1u64)
        } else {
            (DataLayout::Vertical, cols, bits)
        };
        let units_total = count.div_ceil(elems_per_unit);
        let cores_used = units_total.min(total_cores as u64) as usize;
        let units_per_core = units_total.div_ceil(cores_used as u64);
        let rows_per_core = units_per_core.checked_mul(rows_per_unit).ok_or_else(|| {
            PimError::InvalidArg("object layout overflows u64 row arithmetic".into())
        })?;
        if rows_per_core > config.rows_per_core() {
            return Err(PimError::OutOfMemory {
                rows_needed: rows_per_core,
                rows_available: config.rows_per_core(),
            });
        }
        // The busiest core holds at most `count` elements, so a u64
        // overflow in the padded product can only mean "everything".
        let elems_per_core = units_per_core
            .checked_mul(elems_per_unit)
            .map_or(count, |padded| padded.min(count));
        Ok(ObjectLayout {
            layout,
            cores_used,
            elems_per_core,
            rows_per_core,
            elems_per_unit,
            units_per_core,
        })
    }

    /// Row-core units the object occupies: `rows_per_core × cores_used`.
    pub(crate) fn row_units(&self) -> u64 {
        self.rows_per_core * self.cores_used as u64
    }

    /// Fraction of the device's cores this object keeps busy.
    pub fn core_utilization(&self, config: &DeviceConfig) -> f64 {
        self.cores_used as f64 / config.core_count() as f64
    }
}

/// A live PIM data object as the cost model sees it: its handle, type,
/// size and global placement. Functional data lives in the
/// [`crate::PimSystem`] object table, split across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimObject {
    /// The object's handle.
    pub id: ObjId,
    /// Element type.
    pub dtype: DataType,
    /// Element count.
    pub count: u64,
    /// Physical placement.
    pub layout: ObjectLayout,
}

impl PimObject {
    /// Size of the object in bytes (logical, not padded).
    pub fn bytes(&self) -> u64 {
        self.count * self.dtype.bits() as u64 / 8
    }
}
