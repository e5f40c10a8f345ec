//! PIM resource manager: device row capacity tracking (§V-A "PIM
//! Resource Mgr").
//!
//! Objects themselves live in the [`crate::PimSystem`] object table;
//! a manager only counts the rows they occupy. The system keeps one
//! for the whole device (the catalog) and one per shard.

use crate::error::{PimError, Result};
use crate::object::ObjectLayout;

/// Tracks device row capacity and the number of objects holding it.
///
/// Capacity accounting is aggregate: each object consumes
/// `rows_per_core × cores_used` row-core units out of the device total
/// (`rows_per_core × core_count`), and no single object may need more
/// rows on one core than a core has. Narrow objects are assumed to pack
/// round-robin across cores, which matches PIMeval's simple allocator
/// (§V-E notes its allocation strategy is approximate).
#[derive(Debug)]
pub struct ResourceManager {
    /// Objects currently holding rows here.
    live: usize,
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
            live: 0,
            rows_in_use: 0,
            rows_per_core,
            rows_capacity,
            peak_rows: 0,
        })
    }

    /// Checks that an object placed as `layout` fits next to what is
    /// already claimed, without claiming anything.
    ///
    /// # Errors
    ///
    /// [`PimError::OutOfMemory`] when the object needs more rows on one
    /// core than a core has, or more row-core units than are free.
    pub(crate) fn check(&self, layout: &ObjectLayout) -> Result<()> {
        if layout.rows_per_core > self.rows_per_core {
            return Err(PimError::OutOfMemory {
                rows_needed: layout.rows_per_core,
                rows_available: self.rows_per_core,
            });
        }
        let units = layout.row_units();
        if self.rows_in_use + units > self.rows_capacity {
            return Err(PimError::OutOfMemory {
                rows_needed: self.rows_in_use + units,
                rows_available: self.rows_capacity,
            });
        }
        Ok(())
    }

    /// Claims the rows of an object [`ResourceManager::check`] accepted.
    pub(crate) fn claim(&mut self, layout: &ObjectLayout) {
        self.live += 1;
        self.rows_in_use += layout.row_units();
        self.peak_rows = self.peak_rows.max(self.rows_in_use);
    }

    /// Returns the rows of a freed object claimed as `layout`.
    pub(crate) fn release(&mut self, layout: &ObjectLayout) {
        self.live -= 1;
        self.rows_in_use -= layout.row_units();
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> usize {
        self.live
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, PimTarget};
    use crate::dtype::DataType;
    use crate::object::ObjId;
    use crate::stats::ResourceStats;
    use crate::system::PimSystem;

    /// A one-shard system: allocation goes through the object table and
    /// these checks read the catalog's row accounting back.
    struct Rm {
        config: DeviceConfig,
        sys: PimSystem,
    }

    impl Rm {
        fn new() -> Rm {
            let config = DeviceConfig::new(PimTarget::Fulcrum, 1);
            let sys = PimSystem::new(&config).unwrap();
            Rm { config, sys }
        }

        fn alloc(&mut self, count: u64, dtype: DataType) -> Result<ObjId> {
            Ok(self.sys.alloc(&self.config, count, dtype, None)?.id)
        }

        fn alloc_associated(&mut self, reference: ObjId, dtype: DataType) -> Result<ObjId> {
            Ok(self
                .sys
                .alloc_associated(&self.config, reference, dtype)?
                .id)
        }

        fn free(&mut self, id: ObjId) -> Result<()> {
            self.sys.free(id)
        }

        fn layout(&self, id: ObjId) -> ObjectLayout {
            self.sys.object(id).unwrap().layout
        }

        fn stats(&self) -> ResourceStats {
            let mut stats = ResourceStats::default();
            self.sys.resource_stats_into(&mut stats);
            stats
        }

        fn rows_in_use(&self) -> u64 {
            self.stats().rows_in_use
        }

        fn peak_rows(&self) -> u64 {
            self.stats().peak_rows
        }

        fn live_objects(&self) -> usize {
            self.stats().live_objects as usize
        }

        /// Int32 elements the whole device holds.
        fn int32_capacity(&self) -> u64 {
            let per_core = self.config.rows_per_core() * (self.config.cols_per_core() as u64 / 32);
            per_core * self.config.core_count() as u64
        }
    }

    #[test]
    fn alloc_free_reclaims_rows() {
        let mut rm = Rm::new();
        let a = rm.alloc(1 << 20, DataType::Int32).unwrap();
        let used = rm.rows_in_use();
        assert!(used > 0);
        rm.free(a).unwrap();
        assert_eq!(rm.rows_in_use(), 0);
        assert_eq!(rm.peak_rows(), used);
    }

    #[test]
    fn double_free_is_an_error() {
        let mut rm = Rm::new();
        let a = rm.alloc(100, DataType::Int32).unwrap();
        rm.free(a).unwrap();
        assert!(matches!(rm.free(a), Err(PimError::UnknownObject(_))));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut rm = Rm::new();
        // One core stores rows_per_core × (cols/32) int32 elements; the
        // device stores that × core_count. Ask for more than fits.
        let total = rm.int32_capacity();
        let a = rm.alloc(total / 2, DataType::Int32);
        assert!(a.is_ok());
        let b = rm.alloc(total, DataType::Int32);
        assert!(matches!(b, Err(PimError::OutOfMemory { .. })));
    }

    #[test]
    fn associated_objects_share_core_mapping() {
        let mut rm = Rm::new();
        let a = rm.alloc(12345, DataType::Int32).unwrap();
        let b = rm.alloc_associated(a, DataType::Int32).unwrap();
        let (la, lb) = (rm.layout(a), rm.layout(b));
        assert_eq!(la.cores_used, lb.cores_used);
        assert_eq!(la.elems_per_core, lb.elems_per_core);
    }

    #[test]
    fn associated_with_dead_reference_fails() {
        let mut rm = Rm::new();
        let a = rm.alloc(10, DataType::Int32).unwrap();
        rm.free(a).unwrap();
        assert!(matches!(
            rm.alloc_associated(a, DataType::Int32),
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

    #[test]
    fn interleaved_churn_keeps_accounting_exact_and_peak_monotone() {
        let mut rm = Rm::new();
        let mut rng = crate::SplitMix64(0xC0FFEE);
        let mut live: Vec<(ObjId, u64)> = Vec::new();
        let mut expected_in_use = 0u64;
        let mut last_peak = 0u64;
        for step in 0..200 {
            match rng.next() % 3 {
                // Fresh allocation of a pseudo-random size.
                0 => {
                    let count = 1 + rng.next() % 100_000;
                    let id = rm.alloc(count, DataType::Int32).unwrap();
                    let units = rm.layout(id).row_units();
                    live.push((id, units));
                    expected_in_use += units;
                }
                // Associated allocation against a random live reference.
                1 if !live.is_empty() => {
                    let (reference, _) = live[(rng.next() % live.len() as u64) as usize];
                    let id = rm.alloc_associated(reference, DataType::Int8).unwrap();
                    let units = rm.layout(id).row_units();
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
        let mut rm = Rm::new();
        let a = rm.alloc(77, DataType::Int32).unwrap();
        let in_use = rm.rows_in_use();
        assert!(matches!(
            rm.alloc(0, DataType::Int32),
            Err(PimError::InvalidArg(_))
        ));
        assert_eq!(rm.rows_in_use(), in_use);
        assert_eq!(rm.peak_rows(), in_use);
        assert_eq!(rm.live_objects(), 1);
        rm.free(a).unwrap();
    }

    #[test]
    fn capacity_edge_failure_leaves_state_usable() {
        let mut rm = Rm::new();
        let total = rm.int32_capacity();
        // Fill most of the device, then push it over the edge.
        let big = rm.alloc(total - total / 8, DataType::Int32).unwrap();
        let in_use = rm.rows_in_use();
        assert!(matches!(
            rm.alloc(total / 4, DataType::Int32),
            Err(PimError::OutOfMemory { .. })
        ));
        assert_eq!(rm.rows_in_use(), in_use, "failed alloc must not leak");
        // After freeing, the same request succeeds and accounting rewinds.
        rm.free(big).unwrap();
        assert_eq!(rm.rows_in_use(), 0);
        let again = rm.alloc(total / 4, DataType::Int32).unwrap();
        rm.free(again).unwrap();
        assert_eq!(rm.rows_in_use(), 0);
        assert!(rm.peak_rows() >= in_use);
    }
}
