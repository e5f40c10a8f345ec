//! PIM resource manager: object allocation, association, and capacity
//! tracking (§V-A "PIM Resource Mgr").

use crate::config::{DeviceConfig, SimMode};
use crate::dtype::DataType;
use crate::error::{PimError, Result};
use crate::object::{IdMap, ObjId, ObjectLayout, PimObject};

/// Tracks live objects and device row capacity.
///
/// Capacity accounting is aggregate: each object consumes
/// `rows_per_core × cores_used` row-core units out of the device total
/// (`rows_per_core × core_count`), and no single object may need more
/// rows on one core than a core has. Narrow objects are assumed to pack
/// round-robin across cores, which matches PIMeval's simple allocator
/// (§V-E notes its allocation strategy is approximate).
#[derive(Debug)]
pub struct ResourceManager {
    /// Live objects. Never iterated, and ids are never reused: see
    /// [`IdMap`].
    objects: IdMap<PimObject>,
    next_id: u64,
    /// Row-core units in use (Σ rows_per_core × cores_used).
    rows_in_use: u64,
    /// Rows one core can hold.
    rows_per_core: u64,
    /// Total row-core units in the device.
    rows_capacity: u64,
    peak_rows: u64,
}

impl ResourceManager {
    /// Creates a manager for a device with `rows_per_core` rows per core
    /// and `core_count` cores.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] when `rows_per_core × core_count`
    /// overflows `u64` (a nonsensical geometry, but one a config sweep
    /// can construct).
    pub fn new(rows_per_core: u64, core_count: u64) -> Result<Self> {
        let rows_capacity = rows_per_core.checked_mul(core_count).ok_or_else(|| {
            PimError::InvalidArg(format!(
                "device row capacity overflows u64: {rows_per_core} rows/core × {core_count} cores"
            ))
        })?;
        Ok(ResourceManager {
            objects: IdMap::default(),
            next_id: 0,
            rows_in_use: 0,
            rows_per_core,
            rows_capacity,
            peak_rows: 0,
        })
    }

    /// Allocates `count` elements of `dtype`.
    ///
    /// # Errors
    ///
    /// [`PimError::OutOfMemory`] when the per-core row budget is exceeded,
    /// [`PimError::InvalidArg`] for zero-element requests.
    pub fn alloc(
        &mut self,
        config: &DeviceConfig,
        count: u64,
        dtype: DataType,
        cores_cap: Option<usize>,
    ) -> Result<ObjId> {
        let layout = ObjectLayout::compute(config, count, dtype, cores_cap)?;
        if layout.rows_per_core > self.rows_per_core {
            return Err(PimError::OutOfMemory {
                rows_needed: layout.rows_per_core,
                rows_available: self.rows_per_core,
            });
        }
        let units = layout.rows_per_core * layout.cores_used as u64;
        if self.rows_in_use + units > self.rows_capacity {
            return Err(PimError::OutOfMemory {
                rows_needed: self.rows_in_use + units,
                rows_available: self.rows_capacity,
            });
        }
        let id = ObjId(self.next_id);
        self.next_id += 1;
        self.rows_in_use += units;
        self.peak_rows = self.peak_rows.max(self.rows_in_use);
        let data = match config.mode {
            SimMode::Functional => Some(vec![0i64; count as usize]),
            SimMode::ModelOnly => None,
        };
        self.objects.insert(
            id,
            PimObject {
                id,
                dtype,
                count,
                layout,
                data,
            },
        );
        Ok(id)
    }

    /// Allocates an object associated with `reference`: same element
    /// count, placed over the same cores so element *i* of both objects
    /// is resident on the same core (required for element-wise ops).
    ///
    /// # Errors
    ///
    /// Same as [`ResourceManager::alloc`], plus
    /// [`PimError::UnknownObject`] for a dead reference.
    pub fn alloc_associated(
        &mut self,
        config: &DeviceConfig,
        reference: ObjId,
        dtype: DataType,
    ) -> Result<ObjId> {
        let (count, cores) = {
            let obj = self.get(reference)?;
            (obj.count, obj.layout.cores_used)
        };
        self.alloc(config, count, dtype, Some(cores))
    }

    /// Frees an object.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] if the ID is not live.
    pub fn free(&mut self, id: ObjId) -> Result<()> {
        let obj = self
            .objects
            .remove(&id)
            .ok_or(PimError::UnknownObject(id))?;
        self.rows_in_use -= obj.layout.rows_per_core * obj.layout.cores_used as u64;
        Ok(())
    }

    /// Borrows an object.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] if the ID is not live.
    pub fn get(&self, id: ObjId) -> Result<&PimObject> {
        self.objects.get(&id).ok_or(PimError::UnknownObject(id))
    }

    /// Mutably borrows an object.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] if the ID is not live.
    pub fn get_mut(&mut self, id: ObjId) -> Result<&mut PimObject> {
        self.objects.get_mut(&id).ok_or(PimError::UnknownObject(id))
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> usize {
        self.objects.len()
    }

    /// Row-core units currently in use.
    pub fn rows_in_use(&self) -> u64 {
        self.rows_in_use
    }

    /// High-water mark of row-core usage.
    pub fn peak_rows(&self) -> u64 {
        self.peak_rows
    }

    /// Total row-core units the device can hold.
    pub fn rows_capacity(&self) -> u64 {
        self.rows_capacity
    }

    /// Rows one core can hold.
    pub fn rows_per_core(&self) -> u64 {
        self.rows_per_core
    }

    /// The ID the next allocation will receive (without claiming it).
    /// The sharded allocator uses this to assign one global ID across
    /// the metadata catalog and every shard-local manager.
    pub(crate) fn peek_next_id(&self) -> u64 {
        self.next_id
    }

    /// Installs a pre-validated object under an externally chosen ID.
    ///
    /// This is the commit half of the sharded allocator's two-phase
    /// alloc: the caller has already run every capacity check (for the
    /// catalog and for each shard), so `install` only updates the
    /// accounting and inserts the object. `materialize` controls whether
    /// a zeroed functional buffer is attached.
    pub(crate) fn install(
        &mut self,
        id: ObjId,
        dtype: DataType,
        count: u64,
        layout: ObjectLayout,
        materialize: bool,
    ) {
        debug_assert!(!self.objects.contains_key(&id), "install over live id");
        self.next_id = self.next_id.max(id.0 + 1);
        self.rows_in_use += layout.rows_per_core * layout.cores_used as u64;
        self.peak_rows = self.peak_rows.max(self.rows_in_use);
        let data = materialize.then(|| vec![0i64; count as usize]);
        self.objects.insert(
            id,
            PimObject {
                id,
                dtype,
                count,
                layout,
                data,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimTarget;

    fn cfg() -> DeviceConfig {
        DeviceConfig::new(PimTarget::Fulcrum, 1)
    }

    #[test]
    fn alloc_free_reclaims_rows() {
        let config = cfg();
        let mut rm =
            ResourceManager::new(config.rows_per_core(), config.core_count() as u64).unwrap();
        let a = rm.alloc(&config, 1 << 20, DataType::Int32, None).unwrap();
        let used = rm.rows_in_use();
        assert!(used > 0);
        rm.free(a).unwrap();
        assert_eq!(rm.rows_in_use(), 0);
        assert_eq!(rm.peak_rows(), used);
    }

    #[test]
    fn double_free_is_an_error() {
        let config = cfg();
        let mut rm =
            ResourceManager::new(config.rows_per_core(), config.core_count() as u64).unwrap();
        let a = rm.alloc(&config, 100, DataType::Int32, None).unwrap();
        rm.free(a).unwrap();
        assert!(matches!(rm.free(a), Err(PimError::UnknownObject(_))));
    }

    #[test]
    fn capacity_is_enforced() {
        let config = cfg();
        let mut rm =
            ResourceManager::new(config.rows_per_core(), config.core_count() as u64).unwrap();
        // One core stores rows_per_core × (cols/32) int32 elements; the
        // device stores that × core_count. Ask for more than fits.
        let per_core = config.rows_per_core() * (config.cols_per_core() as u64 / 32);
        let total = per_core * config.core_count() as u64;
        let a = rm.alloc(&config, total / 2, DataType::Int32, None);
        assert!(a.is_ok());
        let b = rm.alloc(&config, total, DataType::Int32, None);
        assert!(matches!(b, Err(PimError::OutOfMemory { .. })));
    }

    #[test]
    fn associated_objects_share_core_mapping() {
        let config = cfg();
        let mut rm =
            ResourceManager::new(config.rows_per_core(), config.core_count() as u64).unwrap();
        let a = rm.alloc(&config, 12345, DataType::Int32, None).unwrap();
        let b = rm.alloc_associated(&config, a, DataType::Int32).unwrap();
        let (la, lb) = (rm.get(a).unwrap().layout, rm.get(b).unwrap().layout);
        assert_eq!(la.cores_used, lb.cores_used);
        assert_eq!(la.elems_per_core, lb.elems_per_core);
    }

    #[test]
    fn associated_with_dead_reference_fails() {
        let config = cfg();
        let mut rm =
            ResourceManager::new(config.rows_per_core(), config.core_count() as u64).unwrap();
        let a = rm.alloc(&config, 10, DataType::Int32, None).unwrap();
        rm.free(a).unwrap();
        assert!(matches!(
            rm.alloc_associated(&config, a, DataType::Int32),
            Err(PimError::UnknownObject(_))
        ));
    }

    #[test]
    fn capacity_overflow_is_rejected_at_construction() {
        assert!(matches!(
            ResourceManager::new(u64::MAX, 2),
            Err(PimError::InvalidArg(_))
        ));
        // The exact edge still constructs.
        assert!(ResourceManager::new(u64::MAX, 1).is_ok());
    }

    /// Deterministic SplitMix64 stream for the churn schedule.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    fn units_of(rm: &ResourceManager, id: ObjId) -> u64 {
        let l = rm.get(id).unwrap().layout;
        l.rows_per_core * l.cores_used as u64
    }

    #[test]
    fn interleaved_churn_keeps_accounting_exact_and_peak_monotone() {
        let config = cfg();
        let mut rm =
            ResourceManager::new(config.rows_per_core(), config.core_count() as u64).unwrap();
        let mut rng = Rng(0xC0FFEE);
        let mut live: Vec<(ObjId, u64)> = Vec::new();
        let mut expected_in_use = 0u64;
        let mut last_peak = 0u64;
        for step in 0..200 {
            match rng.next() % 3 {
                // Fresh allocation of a pseudo-random size.
                0 => {
                    let count = 1 + rng.next() % 100_000;
                    let id = rm.alloc(&config, count, DataType::Int32, None).unwrap();
                    let units = units_of(&rm, id);
                    live.push((id, units));
                    expected_in_use += units;
                }
                // Associated allocation against a random live reference.
                1 if !live.is_empty() => {
                    let (reference, _) = live[(rng.next() % live.len() as u64) as usize];
                    let id = rm
                        .alloc_associated(&config, reference, DataType::Int8)
                        .unwrap();
                    let units = units_of(&rm, id);
                    live.push((id, units));
                    expected_in_use += units;
                }
                // Free a random live object.
                2 if !live.is_empty() => {
                    let (id, units) = live.swap_remove((rng.next() % live.len() as u64) as usize);
                    rm.free(id).unwrap();
                    expected_in_use -= units;
                }
                _ => {}
            }
            assert_eq!(rm.rows_in_use(), expected_in_use, "step {step}");
            assert_eq!(rm.live_objects(), live.len(), "step {step}");
            assert!(rm.peak_rows() >= last_peak, "peak regressed at step {step}");
            assert!(rm.peak_rows() >= rm.rows_in_use(), "step {step}");
            last_peak = rm.peak_rows();
        }
        for (id, _) in live {
            rm.free(id).unwrap();
        }
        assert_eq!(rm.rows_in_use(), 0);
        assert_eq!(rm.live_objects(), 0);
        assert_eq!(rm.peak_rows(), last_peak);
    }

    #[test]
    fn zero_element_alloc_fails_without_perturbing_accounting() {
        let config = cfg();
        let mut rm =
            ResourceManager::new(config.rows_per_core(), config.core_count() as u64).unwrap();
        let a = rm.alloc(&config, 77, DataType::Int32, None).unwrap();
        let in_use = rm.rows_in_use();
        assert!(matches!(
            rm.alloc(&config, 0, DataType::Int32, None),
            Err(PimError::InvalidArg(_))
        ));
        assert_eq!(rm.rows_in_use(), in_use);
        assert_eq!(rm.peak_rows(), in_use);
        assert_eq!(rm.live_objects(), 1);
        rm.free(a).unwrap();
    }

    #[test]
    fn capacity_edge_failure_leaves_state_usable() {
        let config = cfg();
        let mut rm =
            ResourceManager::new(config.rows_per_core(), config.core_count() as u64).unwrap();
        let per_core = config.rows_per_core() * (config.cols_per_core() as u64 / 32);
        let total = per_core * config.core_count() as u64;
        // Fill most of the device, then push it over the edge.
        let big = rm
            .alloc(&config, total - total / 8, DataType::Int32, None)
            .unwrap();
        let in_use = rm.rows_in_use();
        assert!(matches!(
            rm.alloc(&config, total / 4, DataType::Int32, None),
            Err(PimError::OutOfMemory { .. })
        ));
        assert_eq!(rm.rows_in_use(), in_use, "failed alloc must not leak");
        // After freeing, the same request succeeds and accounting rewinds.
        rm.free(big).unwrap();
        assert_eq!(rm.rows_in_use(), 0);
        let again = rm.alloc(&config, total / 4, DataType::Int32, None).unwrap();
        rm.free(again).unwrap();
        assert_eq!(rm.rows_in_use(), 0);
        assert!(rm.peak_rows() >= in_use);
    }
}
