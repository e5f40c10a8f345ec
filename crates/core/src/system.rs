//! Sharded PIM system: one object table behind the device API, each
//! object's elements split into per-rank spans.
//!
//! A [`PimSystem`] owns the object table, holding every object's global
//! layout, functional buffer and [`ShardMap`], the device's one row
//! ledger ([`ResourceManager`]) and the [`InterconnectModel`]. The
//! device keeps the one statistics ledger ([`crate::SimStats`]) and the
//! one timing model every command and copy is priced on, once.
//!
//! A shard is a span. An object's [`ShardMap`] gives every shard (one
//! per rank by default, see [`crate::DeviceConfig::sharded_per_rank`])
//! one contiguous, unit-aligned span of its elements, in shard order, and
//! a shard's piece of the data is that span's slice of the object's
//! buffer. A shard owns no buffer, no rows and no timing state. Every
//! command runs its functional semantics once over the whole buffer (the
//! `exec` pool splits that loop by element, not by shard). The spans
//! drive only two views: the per-shard busy shares the metrics registry
//! records, and cross-shard data movement (host⇄rank scatter/gather, the
//! realignment of a `select` condition whose dtype packs rows
//! differently from the operands', and reduction combines), charged
//! through an [`InterconnectModel`] with per-rank DDR channel bandwidth
//! from [`pim_dram::DramTiming`].
//!
//! # Correctness contract
//!
//! Results are bit-identical between `shards = 1` and `shards = N` for
//! every target and dtype: the functional data is one buffer in global
//! element order at every shard count, and every loop over it is the
//! same. So is every statistic but the interconnect ledger and the shard
//! count itself: kernel time, copy time and the DRAM protocol counters
//! come from the one timing model, whatever the shard count.
//!
//! The per-shard busy shares sum to the aggregate kernel time, while
//! interconnect time/energy is accounted *separately* and never folded
//! into kernel time.

use pim_dram::exec;

use crate::config::{DeviceConfig, SimMode};
use crate::dtype::{DataType, Elem, PimScalar};
use crate::error::{PimError, Result};
use crate::object::{IdMap, ObjId, ObjectLayout, PimObject};
use crate::resource::ResourceManager;
use crate::stats::ResourceStats;

/// How one object's elements are divided across shards.
///
/// Shard *s* holds the one contiguous span of `counts()[s]` elements
/// that starts where shard *s − 1*'s ends, so each shard's piece is a
/// slice of the object's buffer, and two maps with equal
/// counts place every element on the same shard at the same offset.
/// Spans split only on *unit* boundaries (rows for horizontal layouts,
/// stripes for vertical ones) so no DRAM row ever straddles two shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardMap {
    counts: Few<u64>,
}

impl ShardMap {
    /// Computes the element → shard assignment for `count` elements
    /// packed `elems_per_unit` to a row/stripe, split across
    /// `weights.len()` shards proportionally to `weights` (the modeled
    /// core count of each shard): shard *s* gets the unit range
    /// `[⌊U·W_{<s}/W⌋, ⌊U·W_{≤s}/W⌋)`.
    pub fn compute(count: u64, elems_per_unit: u64, weights: &[u64]) -> ShardMap {
        let epu = elems_per_unit.max(1);
        let units_total = count.div_ceil(epu);
        let w_total: u128 = weights.iter().map(|&w| w as u128).sum::<u128>().max(1);
        let mut cum: u128 = 0;
        let mut start = 0u64;
        let mut counts = Few::default();
        for &w in weights {
            cum += w as u128;
            let b = ((units_total as u128 * cum) / w_total) as u64;
            let end = b.saturating_mul(epu).min(count);
            counts.push(end - start);
            start = end;
        }
        ShardMap { counts }
    }

    /// The non-empty spans as `(shard, start, len)`: shard, first global
    /// element, element count. Ascending in shard and element order.
    pub fn spans(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let mut start = 0;
        self.counts.iter().enumerate().filter_map(move |(s, &c)| {
            let span = (s, start, c as usize);
            start += c as usize;
            (c > 0).then_some(span)
        })
    }

    /// Per-shard element counts (index = shard).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Elements resident on shard `s`.
    pub fn count_on(&self, s: usize) -> u64 {
        self.counts.get(s).copied().unwrap_or(0)
    }
}

/// Cost model for cross-shard data movement over the per-rank DDR
/// channels.
///
/// Time is charged on the *critical path* — the busiest channel's bytes
/// at [`pim_dram::DramTiming::channel_bandwidth_gbs`] — because ranks
/// transfer concurrently; energy is charged on *total* bytes moved.
/// Interconnect cost is reported separately from kernel time (see
/// [`crate::stats::InterconnectStats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectModel {
    channel_gbs: f64,
    pj_per_bit: f64,
}

impl InterconnectModel {
    /// Builds the model from a device configuration: per-rank channel
    /// bandwidth from the DRAM timing, per-bit wire energy from the
    /// GDL parameter of the PE model.
    pub fn from_config(config: &DeviceConfig) -> InterconnectModel {
        InterconnectModel {
            channel_gbs: config.timing.channel_bandwidth_gbs(),
            pj_per_bit: config.pe.gdl_pj_per_bit,
        }
    }

    /// Sustained bandwidth of one rank's channel (GB/s).
    pub fn channel_gbs(&self) -> f64 {
        self.channel_gbs
    }

    /// Critical-path transfer time for `critical_bytes` on the busiest
    /// channel, in ms.
    pub fn transfer_ms(&self, critical_bytes: u64) -> f64 {
        critical_bytes as f64 / self.channel_gbs / 1e6
    }

    /// Wire energy for `total_bytes` moved across all channels, in mJ.
    pub fn energy_mj(&self, total_bytes: u64) -> f64 {
        total_bytes as f64 * 8.0 * self.pj_per_bit * 1e-9
    }
}

/// A short list kept inline while it holds at most one element and on
/// the heap from the second, growing by doubling: the shape of a shard
/// map's counts, so a one-shard object's map costs no allocation.
/// Compares and dereferences as a slice.
#[derive(Debug, Clone)]
enum Few<T> {
    One([T; 1]),
    Many(Vec<T>),
}

impl<T> Default for Few<T> {
    fn default() -> Self {
        Few::Many(Vec::new())
    }
}

impl<T> Few<T> {
    fn push(&mut self, v: T) {
        match self {
            Few::Many(vs) if !vs.is_empty() => vs.push(v),
            Few::Many(_) => *self = Few::One([v]),
            Few::One(_) => {
                let Few::One([first]) = std::mem::take(self) else {
                    unreachable!("matched above")
                };
                *self = Few::Many(vec![first, v]);
            }
        }
    }
}

impl<T> std::ops::Deref for Few<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Few::One(one) => one,
            Few::Many(many) => many,
        }
    }
}

impl<T: PartialEq> PartialEq for Few<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for Few<T> {}

/// One object-table entry: everything the system knows about a live
/// object.
#[derive(Debug)]
struct Object {
    /// The global view the cost model charges against.
    obj: PimObject,
    map: ShardMap,
    /// The canonical values in global element order: shard *s*'s piece
    /// is the slice of its span. Empty in model-only mode.
    data: Vec<i64>,
}

/// A live object's position in the object table, resolved from its id
/// once per command. Valid until the next alloc or free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(usize);

/// A validated command's operands, each resolved once: the inputs in
/// operand order, then the destination. Valid until the next alloc or
/// free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Operands {
    ins: [Slot; 4],
    len: u8,
    /// The written object, if the command writes one.
    pub(crate) dst: Option<Slot>,
}

impl Operands {
    /// The first `len` of `ins`, and `dst`, must be resolved.
    pub(crate) fn new(ins: [Option<Slot>; 4], len: usize, dst: Option<Slot>) -> Operands {
        Operands {
            ins: std::array::from_fn(|k| match ins[k] {
                Some(slot) => slot,
                None if k >= len => Slot(0),
                None => unreachable!("input {k} of a validated command is unresolved"),
            }),
            len: len as u8,
            dst,
        }
    }

    /// The input slots, in operand order.
    pub(crate) fn inputs(&self) -> &[Slot] {
        &self.ins[..usize::from(self.len)]
    }

    /// The object the command is priced on: the destination, or the
    /// first input of a reduction.
    pub(crate) fn costed(&self) -> Slot {
        self.dst.unwrap_or(self.ins[0])
    }
}

/// `total` split as evenly as possible into `n` parts; part `i` gets the
/// remainder first so Σ parts = total.
fn split_even(total: usize, n: usize, i: usize) -> usize {
    total / n + usize::from(i < total % n)
}

/// Chunked parallel exact sum of canonical `dtype` values; per-chunk
/// partials fold in chunk order (`i128` addition is associative, so this
/// is bit-identical to the sequential sum at every thread count and
/// every shard split).
pub(crate) fn par_sum(data: &[i64], dtype: DataType) -> i128 {
    exec::par_fold(
        data.len(),
        |r| chunk_sum(&data[r], dtype, SUM_BLOCK),
        |x, y| x + y,
    )
    .unwrap_or(0)
}

/// Elements per `i64` block of a narrow sum. Canonical values of at
/// most 32 bits lie in `[-2³¹, 2³² - 1]`, so a block of 2³¹ of them sums
/// to less than 2³¹ · (2³² − 1) < 2⁶³ in magnitude: exact in `i64`.
const SUM_BLOCK: usize = 1 << 31;

/// The exact sum of canonical `dtype` values, with the dtype resolved
/// once: types of 32 bits or fewer sum in `i64` lanes, `block` elements
/// at a time, each block sum widened to `i128` and folded in order;
/// 64-bit types widen every element.
fn chunk_sum(data: &[i64], dtype: DataType, block: usize) -> i128 {
    if dtype.bits() <= 32 {
        data.chunks(block)
            .map(|b| i128::from(b.iter().sum::<i64>()))
            .sum()
    } else if dtype.is_signed() {
        data.iter().map(|&v| i128::from(v)).sum()
    } else {
        data.iter().map(|&v| i128::from(v as u64)).sum()
    }
}

/// The sharded execution substrate behind [`crate::Device`].
///
/// Owns the object table, the device's row ledger, every object's shard
/// map and the [`InterconnectModel`]. With `shards = 1` every map is one
/// span and the interconnect is never charged.
#[derive(Debug)]
pub struct PimSystem {
    /// Id → slot in `objects`. Never iterated, and ids are never
    /// reused: see [`IdMap`].
    index: IdMap<Slot>,
    /// The object table's entries. Slots of freed objects hold no
    /// buffers and are reused (`vacant`), so the table follows the live
    /// object count.
    objects: Vec<Object>,
    vacant: Vec<Slot>,
    next_id: u64,
    rm: ResourceManager,
    /// The shards' modeled core counts, one per shard: every object's
    /// map weights.
    weights: Vec<u64>,
    interconnect: InterconnectModel,
    functional: bool,
}

impl PimSystem {
    /// Builds the system for `config`: `config.shards` shards (clamped
    /// to the modeled core count), each weighted by an even split of the
    /// modeled cores.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] if the device's row capacity overflows
    /// `u64`.
    pub(crate) fn new(config: &DeviceConfig) -> Result<PimSystem> {
        let modeled = config.core_count().max(1);
        let physical = config.physical_core_count().max(1);
        let n = config.shards.max(1).min(modeled);
        Ok(PimSystem {
            index: IdMap::default(),
            objects: Vec::new(),
            vacant: Vec::new(),
            next_id: 0,
            rm: ResourceManager::new(config.rows_per_core(), physical as u64)?,
            weights: (0..n).map(|i| split_even(modeled, n, i) as u64).collect(),
            interconnect: InterconnectModel::from_config(config),
            functional: matches!(config.mode, SimMode::Functional),
        })
    }

    /// Number of shards: the spans every object's map splits it into.
    pub fn shard_count(&self) -> usize {
        self.weights.len()
    }

    /// The cross-shard interconnect cost model.
    pub fn interconnect(&self) -> &InterconnectModel {
        &self.interconnect
    }

    /// The shard map of a live object, if any.
    pub fn shard_map(&self, id: ObjId) -> Option<&ShardMap> {
        self.slot(id).map(|slot| &self.objects[slot.0].map)
    }

    /// A live object's global view.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] if the id is not live.
    pub fn object(&self, id: ObjId) -> Result<&PimObject> {
        let slot = self.slot(id).ok_or(PimError::UnknownObject(id))?;
        Ok(self.get(slot))
    }

    /// Resolves a live id to its slot (one table probe).
    pub(crate) fn slot(&self, id: ObjId) -> Option<Slot> {
        self.index.get(&id).copied()
    }

    /// The global view of the object at `slot`.
    pub(crate) fn get(&self, slot: Slot) -> &PimObject {
        &self.objects[slot.0].obj
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Two-phase allocation: computes the global layout, checks it
    /// against the row ledger, and only then allocates and commits the
    /// object under the next id. Besides the table's own slots, the only
    /// heap allocations are the zeroed functional buffer and, with
    /// several shards, the map's list.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] for zero-element or overflowing
    /// requests, [`PimError::OutOfMemory`] when the device runs out of
    /// rows. Failure commits nothing.
    pub(crate) fn alloc(
        &mut self,
        config: &DeviceConfig,
        count: u64,
        dtype: DataType,
        cores_cap: Option<usize>,
    ) -> Result<PimObject> {
        let layout = ObjectLayout::compute(config, count, dtype, cores_cap)?;
        self.rm.check(&layout)?;
        // The buffer comes before the map's list, and the list grows one
        // shard at a time rather than being sized once. Either way round
        // (the list first, or a list sized once, which reuses the one a
        // free just released), nothing new lands on the heap above the
        // buffer, and in a process that builds and drops many 4-shard
        // devices (`bench_e2e`'s `bulk-sweep`) glibc then gives each
        // run's buffers back to the OS and faults them in again, with
        // tens of times the minor faults.
        let data = if self.functional {
            vec![0; count as usize]
        } else {
            Vec::new()
        };
        // Map weights are ALWAYS the shards' modeled-core split — never
        // cores_cap — so every object of the same count and dtype gets
        // the identical map and element-wise operands stay aligned.
        let map = ShardMap::compute(count, layout.elems_per_unit, &self.weights);
        let obj = PimObject {
            id: ObjId(self.next_id),
            dtype,
            count,
            layout,
        };
        self.next_id += 1;
        self.rm.claim(&layout);
        let entry = Object { obj, map, data };
        let slot = match self.vacant.pop() {
            Some(slot) => {
                self.objects[slot.0] = entry;
                slot
            }
            None => {
                self.objects.push(entry);
                Slot(self.objects.len() - 1)
            }
        };
        self.index.insert(obj.id, slot);
        Ok(obj)
    }

    /// Allocates an object associated with `reference`: same element
    /// count, placed over the same number of cores, and — since maps
    /// depend only on count and dtype — the same shard map.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] for a dead reference, then as
    /// [`PimSystem::alloc`].
    pub(crate) fn alloc_associated(
        &mut self,
        config: &DeviceConfig,
        reference: ObjId,
        dtype: DataType,
    ) -> Result<PimObject> {
        let r = *self.object(reference)?;
        self.alloc(config, r.count, dtype, Some(r.layout.cores_used))
    }

    /// Frees an object: returns its rows to the ledger and drops its
    /// buffer and map.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] if the id is not live.
    pub(crate) fn free(&mut self, id: ObjId) -> Result<()> {
        let slot = self.index.remove(&id).ok_or(PimError::UnknownObject(id))?;
        let entry = &mut self.objects[slot.0];
        self.rm.release(&entry.obj.layout);
        entry.data = Vec::new();
        entry.map = ShardMap::default();
        self.vacant.push(slot);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Functional execution
    // ------------------------------------------------------------------

    /// Converts an object's contents into a host buffer
    /// (`pimCopyDeviceToHost`).
    ///
    /// # Errors
    ///
    /// [`PimError::NotSupported`] in model-only mode.
    pub(crate) fn gather_to_host<T: PimScalar>(&self, slot: Slot, out: &mut [T]) -> Result<()> {
        if !self.functional {
            return Err(PimError::NotSupported(
                "copy_to_host in model-only mode".into(),
            ));
        }
        let data = self.objects[slot.0].data.as_slice();
        exec::par_map_into([data], out, |[v]| T::from_device(v));
        Ok(())
    }

    /// Packs a host buffer into an object's canonical buffer
    /// (`pimCopyHostToDevice`), in place. No-op in model-only mode.
    pub(crate) fn scatter_to_device<T: PimScalar>(
        &mut self,
        data: &[T],
        slot: Slot,
        dtype: DataType,
    ) {
        if !self.functional {
            return;
        }
        let e = Elem::of(dtype);
        exec::par_map_into([data], &mut self.objects[slot.0].data, |[v]| {
            e.trunc(v.to_device())
        });
    }

    /// Element-wise execution, copies and broadcasts: one
    /// [`crate::cmd::exec_into`] over the destination's whole buffer,
    /// which an input that is the destination itself reads in place.
    /// Every operand pair but a `select` condition has equal count and
    /// dtype, and so the destination's map. A condition of a dtype that
    /// packs rows differently (on horizontal targets) may be mapped
    /// differently: its shards must ship it to the destination's, so its
    /// bytes count as interconnect realignment traffic, but its buffer is
    /// already in global element order and is read in place. Returns the
    /// realigned byte total.
    pub(crate) fn exec_elementwise(
        &mut self,
        kind: crate::ops::OpKind,
        dtype: DataType,
        inputs: &[Slot],
        dst: Slot,
    ) -> u64 {
        let dst_map = &self.objects[dst.0].map;
        debug_assert!(inputs
            .iter()
            .skip(1)
            .all(|slot| self.objects[slot.0].map == *dst_map));
        let realign_bytes = inputs
            .first()
            .map(|slot| &self.objects[slot.0])
            .filter(|cond| cond.map != *dst_map)
            .map_or(0, |cond| cond.obj.bytes());
        if !self.functional {
            return realign_bytes;
        }
        let mut out = std::mem::take(&mut self.objects[dst.0].data);
        let mut ins: [Option<&[i64]>; 4] = [None; 4];
        for (j, &slot) in inputs.iter().enumerate() {
            ins[j] = (slot != dst).then(|| self.objects[slot.0].data.as_slice());
        }
        crate::cmd::exec_into(kind, dtype, &ins[..inputs.len()], &mut out);
        self.objects[dst.0].data = out;
        realign_bytes
    }

    /// Exact reduction sum (0 in model-only mode).
    pub(crate) fn red_sum(&self, slot: Slot, dtype: DataType) -> i128 {
        let count = self.get(slot).count;
        self.red_sum_range(slot, dtype, 0, count)
    }

    /// Reduction extreme (`min` when `want_min`, else `max`), 0 in
    /// model-only mode: a native signed `max` over each element's order
    /// key, flipped back at the end. Flipping every key bit as well turns
    /// the `max` into the type's `min` (`!` reverses the signed order).
    /// Canonical values that tie are bit-equal, so the result is a
    /// sequential scan's keep-first pick at any chunk split.
    pub(crate) fn red_extreme(&self, slot: Slot, dtype: DataType, want_min: bool) -> i64 {
        if !self.functional {
            return 0;
        }
        let flip = Elem::of(dtype).flip ^ if want_min { !0 } else { 0 };
        let data = &self.objects[slot.0].data;
        exec::par_fold(
            data.len(),
            |r| data[r].iter().fold(i64::MIN, |m, &v| m.max(v ^ flip)),
            i64::max,
        )
        .map_or(0, |k| k ^ flip)
    }

    /// Ranged reduction sum over global elements `[start, end)` (bounds
    /// already validated). 0 in model-only mode.
    pub(crate) fn red_sum_range(&self, slot: Slot, dtype: DataType, start: u64, end: u64) -> i128 {
        if !self.functional {
            return 0;
        }
        par_sum(
            &self.objects[slot.0].data[start as usize..end as usize],
            dtype,
        )
    }

    // ------------------------------------------------------------------
    // Per-shard time distribution
    // ------------------------------------------------------------------

    /// Splits `time_ms` charged on the object at `slot` over the shards
    /// holding it, proportionally to each shard's element count, as
    /// `f(shard, share)` in ascending shard order. The last holder
    /// absorbs the rounding remainder, so the shares sum back to
    /// `time_ms` up to float re-association. Single-shard devices put
    /// the whole time on shard 0.
    pub(crate) fn split_time(&self, slot: Slot, time_ms: f64, mut f: impl FnMut(usize, f64)) {
        if self.shard_count() <= 1 {
            return f(0, time_ms);
        }
        let counts = &self.objects[slot.0].map.counts;
        let total: u64 = counts.iter().sum();
        let last = counts.iter().rposition(|&c| c > 0);
        let mut acc = 0.0f64;
        for (s, &c) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
            let share = if Some(s) == last {
                (time_ms - acc).max(0.0)
            } else {
                time_ms * (c as f64 / total as f64)
            };
            acc += share;
            f(s, share);
        }
    }

    /// Critical-path and total byte loads of scattering/gathering the
    /// object at `slot`: `(busiest shard's bytes, all bytes)`.
    pub(crate) fn shard_byte_split(&self, slot: Slot) -> (u64, u64) {
        let entry = &self.objects[slot.0];
        let bpe = (entry.obj.dtype.bits() as u64 / 8).max(1);
        let max_c = entry.map.counts.iter().copied().max().unwrap_or(0);
        (max_c * bpe, entry.obj.count * bpe)
    }

    /// Writes the device's row usage and the shard count into `stats`.
    pub(crate) fn resource_stats_into(&self, stats: &mut ResourceStats) {
        stats.rows_in_use = self.rm.rows_in_use();
        stats.peak_rows = self.rm.peak_rows();
        stats.rows_capacity = self.rm.rows_capacity();
        stats.live_objects = self.rm.live_objects() as u64;
        stats.shards = self.shard_count() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `i64`-lane sum equals an `i128` scalar fold at every block
    /// length, on both sides of each block boundary, with every element
    /// at the extreme that grows a block sum fastest.
    #[test]
    fn narrow_block_sums_match_a_widening_fold() {
        let mut rng = crate::SplitMix64(0xB10C);
        for dtype in [
            DataType::Bool,
            DataType::Int8,
            DataType::Int32,
            DataType::UInt16,
            DataType::UInt32,
            DataType::Int64,
            DataType::UInt64,
        ] {
            let wide = |v: i64| {
                if dtype.is_signed() {
                    i128::from(v)
                } else {
                    i128::from(v as u64)
                }
            };
            let top = 1i64 << (dtype.bits() - 1);
            let (min, max) = if dtype.is_signed() {
                (dtype.truncate(top), dtype.truncate(!top))
            } else {
                (0, dtype.truncate(-1))
            };
            for fill in [Some(min), Some(max), None] {
                let data: Vec<i64> = (0..40)
                    .map(|_| fill.unwrap_or_else(|| dtype.truncate(rng.next() as i64)))
                    .collect();
                for block in [1, 2, 3, 7, 8, 9, 39, 40, 41] {
                    for len in [0, 1, block - 1, block, block + 1, 2 * block, data.len()] {
                        let d = &data[..len.min(data.len())];
                        let want: i128 = d.iter().map(|&v| wide(v)).sum();
                        assert_eq!(chunk_sum(d, dtype, block), want, "{dtype} block {block}");
                    }
                }
            }
        }
    }

    fn assert_partition(map: &ShardMap, count: u64) {
        let mut next = 0;
        for (s, start, len) in map.spans() {
            assert_eq!(start, next, "spans must tile [0, count) in shard order");
            assert!(len > 0);
            assert_eq!(len as u64, map.count_on(s));
            next += len;
        }
        assert_eq!(next as u64, count);
    }

    #[test]
    fn contiguous_map_partitions_on_unit_boundaries() {
        let map = ShardMap::compute(1000, 32, &[4, 4, 4, 4]);
        assert_partition(&map, 1000);
        let spans: Vec<_> = map.spans().collect();
        for &(_, start, len) in &spans[..spans.len() - 1] {
            assert_eq!(start % 32, 0, "splits must land on unit boundaries");
            assert_eq!((start + len) % 32, 0, "splits must land on unit boundaries");
        }
    }

    #[test]
    fn contiguous_map_respects_weights() {
        let map = ShardMap::compute(64, 1, &[3, 1]);
        assert_partition(&map, 64);
        assert_eq!(map.count_on(0), 48);
        assert_eq!(map.count_on(1), 16);
    }

    #[test]
    fn seven_shards_split_units_unevenly_and_leave_some_empty() {
        // 10 units of 10 elements over 7 equal shards: boundaries at
        // ⌊10·k/7⌋ = 1, 2, 4, 5, 7, 8, 10 units, so shards get 1 or 2
        // units each; 3 units over 7 shards leave four shards empty.
        let map = ShardMap::compute(95, 10, &[1; 7]);
        assert_partition(&map, 95);
        assert_eq!(map.counts(), &[10, 10, 20, 10, 20, 10, 15]);
        let map = ShardMap::compute(25, 10, &[1; 7]);
        assert_partition(&map, 25);
        assert_eq!(map.counts(), &[0, 0, 10, 0, 10, 0, 5]);
        let spans: Vec<_> = map.spans().collect();
        assert_eq!(spans, [(2, 0, 10), (4, 10, 10), (6, 20, 5)]);
        // One shard holds everything in one span.
        let map = ShardMap::compute(12345, 64, &[8]);
        assert_eq!(map.spans().collect::<Vec<_>>(), [(0, 0, 12345)]);
    }

    #[test]
    fn tiny_objects_leave_trailing_shards_empty() {
        let map = ShardMap::compute(5, 32, &[2, 2, 2, 2]);
        assert_partition(&map, 5);
        assert_eq!(map.spans().count(), 1, "one unit cannot split");
    }

    #[test]
    fn partial_final_unit_is_clamped_to_count() {
        let map = ShardMap::compute(65, 32, &[1, 1]);
        assert_partition(&map, 65);
        // 3 units; shard 0 gets ⌊3·1/2⌋ = 1 unit, shard 1 the rest.
        assert_eq!(map.count_on(0), 32);
        assert_eq!(map.count_on(1), 33);
    }

    #[test]
    fn interconnect_model_charges_critical_path_time_and_total_energy() {
        let config = DeviceConfig::new(crate::config::PimTarget::Fulcrum, 2);
        let ic = InterconnectModel::from_config(&config);
        let ms = ic.transfer_ms(25_600_000);
        assert!((ms - 1.0).abs() < 1e-9, "25.6 MB at 25.6 GB/s is 1 ms");
        let mj = ic.energy_mj(1_000_000);
        assert!((mj - 1_000_000.0 * 8.0 * 0.015 * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn split_even_sums_to_total() {
        for total in [0usize, 1, 7, 8, 8192] {
            for n in 1..=5 {
                let sum: usize = (0..n).map(|i| split_even(total, n, i)).sum();
                assert_eq!(sum, total);
            }
        }
    }
}
