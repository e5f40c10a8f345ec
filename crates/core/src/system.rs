//! Sharded PIM system: per-rank execution shards behind one device API.
//!
//! A [`PimSystem`] owns `N` shards — one per rank by default (see
//! [`crate::DeviceConfig::sharded_per_rank`]) — each with its own
//! [`ResourceManager`], functional state, and timing model. The
//! device keeps the one statistics ledger ([`crate::SimStats`]).
//! Every object carries a [`ShardMap`] describing which contiguous
//! element ranges live on which shard; every command entering
//! [`crate::Device::issue`] is split by that map, executed per shard
//! (shards are the *outer* parallelism unit; the `exec` worker pool is
//! divided among them), and re-aggregated. Cross-shard data movement —
//! host⇄rank scatter/gather and inter-shard realignment for misaligned
//! operands — is charged through an [`InterconnectModel`] with per-rank
//! DDR channel bandwidth from [`pim_dram::DramTiming`].
//!
//! # Correctness contract
//!
//! Results are bit-identical between `shards = 1` and `shards = N` for
//! every target and dtype:
//!
//! * element-wise ops are positionwise, so splitting by element range
//!   cannot change any output element;
//! * the widening `i128` reduction sum is associative and commutative;
//! * min/max reductions fold per-range partials in ascending global
//!   element order with the same keep-first tie-breaking as a
//!   sequential scan (all buffer values are canonical via
//!   `DataType::truncate`, so ties are bit-equal anyway);
//! * `shards = 1` runs the exact same code path as the unsharded
//!   device did — the single shard's layout reproduces the global
//!   [`ObjectLayout`] bit for bit.
//!
//! Compute cost stays additive across shards (the per-shard busy shares
//! the metrics registry records sum to the aggregate kernel time) while
//! interconnect time/energy is accounted *separately* and never folded
//! into kernel time.

use pim_dram::exec;
use pim_dram::{CopyReplay, TimingCounters, TimingModel};

use crate::config::{DeviceConfig, ShardPolicy, SimMode};
use crate::dtype::{DataType, PimScalar};
use crate::error::{PimError, Result};
use crate::model::{self, OpCost};
use crate::object::{IdMap, ObjId, ObjectLayout};
use crate::resource::ResourceManager;
use crate::stats::{ResourceStats, ShardResourceStats};

/// One contiguous run of global element indices resident on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First global element index covered (inclusive).
    pub start: u64,
    /// One past the last global element index covered.
    pub end: u64,
    /// Index of the shard holding this range.
    pub shard: usize,
    /// Offset of `start` inside the shard-local buffer.
    pub local_start: u64,
}

/// How one object's elements are divided across shards.
///
/// Ranges are stored in ascending global-element order and partition
/// `[0, count)` exactly; each shard's local buffer is the concatenation
/// of its ranges in that same order. Splits happen only on *unit*
/// boundaries (rows for horizontal layouts, stripes for vertical ones)
/// so no DRAM row ever straddles two shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    ranges: Vec<ShardRange>,
    counts: Vec<u64>,
}

impl ShardMap {
    /// Computes the element → shard assignment for `count` elements
    /// packed `elems_per_unit` to a row/stripe, split across
    /// `weights.len()` shards proportionally to `weights` (the modeled
    /// core count of each shard).
    ///
    /// [`ShardPolicy::Contiguous`] hands shard *s* the unit range
    /// `[⌊U·W_{<s}/W⌋, ⌊U·W_{≤s}/W⌋)`; [`ShardPolicy::RoundRobin`]
    /// deals units out cyclically (adjacent same-shard units coalesce,
    /// so with one shard both policies produce the identical map).
    pub fn compute(
        count: u64,
        elems_per_unit: u64,
        weights: &[u64],
        policy: ShardPolicy,
    ) -> ShardMap {
        let n = weights.len().max(1);
        let epu = elems_per_unit.max(1);
        let units_total = count.div_ceil(epu);
        let mut counts = vec![0u64; n];
        let mut ranges = Vec::new();
        match policy {
            ShardPolicy::Contiguous => {
                let w_total: u128 = weights.iter().map(|&w| w as u128).sum::<u128>().max(1);
                let mut cum: u128 = 0;
                let mut prev_b = 0u64;
                for (s, &w) in weights.iter().enumerate() {
                    cum += w as u128;
                    let b = ((units_total as u128 * cum) / w_total) as u64;
                    let start = prev_b.saturating_mul(epu).min(count);
                    let end = b.saturating_mul(epu).min(count);
                    prev_b = b;
                    if start >= end {
                        continue;
                    }
                    counts[s] = end - start;
                    ranges.push(ShardRange {
                        start,
                        end,
                        shard: s,
                        local_start: 0,
                    });
                }
            }
            ShardPolicy::RoundRobin => {
                for j in 0..units_total {
                    let s = (j % n as u64) as usize;
                    let start = j * epu;
                    let end = ((j + 1) * epu).min(count);
                    if start >= end {
                        continue;
                    }
                    let len = end - start;
                    if let Some(last) = ranges.last_mut() {
                        let last: &mut ShardRange = last;
                        if last.shard == s && last.end == start {
                            last.end = end;
                            counts[s] += len;
                            continue;
                        }
                    }
                    ranges.push(ShardRange {
                        start,
                        end,
                        shard: s,
                        local_start: counts[s],
                    });
                    counts[s] += len;
                }
            }
        }
        ShardMap { ranges, counts }
    }

    /// The ranges, in ascending global-element order.
    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }

    /// Per-shard element counts (index = shard).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Elements resident on shard `s`.
    pub fn count_on(&self, s: usize) -> u64 {
        self.counts.get(s).copied().unwrap_or(0)
    }

    /// Number of shards this map was computed for (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.counts.len()
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

/// One execution shard: a rank's worth of cores with its own resource
/// manager, functional state, and timing model.
#[derive(Debug)]
struct Shard {
    rm: ResourceManager,
    /// Modeled cores assigned to this shard (decimation-adjusted).
    cores: usize,
    /// This shard's timing model. Each shard owns its rank's banks, so
    /// FSM state never crosses shards and re-aggregation (ascending
    /// shard order) stays deterministic at every shard count.
    timing: TimingModel,
}

/// `total` split as evenly as possible into `n` parts; part `i` gets the
/// remainder first so Σ parts = total.
fn split_even(total: usize, n: usize, i: usize) -> usize {
    total / n + usize::from(i < total % n)
}

/// Chunked parallel widening sum; per-chunk partials fold in chunk
/// order (`i128` addition is associative, so this is bit-identical to
/// the sequential sum at every thread count and every shard split).
pub(crate) fn par_sum(data: &[i64], dtype: DataType) -> i128 {
    let signed = dtype.is_signed();
    let mask = pim_microcode::encode::mask(dtype.bits());
    exec::par_fold(
        data.len(),
        |r| {
            data[r]
                .iter()
                .map(|&v| {
                    if signed {
                        v as i128
                    } else {
                        ((v as u64) & mask) as i128
                    }
                })
                .sum::<i128>()
        },
        |x, y| x + y,
    )
    .unwrap_or(0)
}

/// Shards holding at least one element of `costed`, ascending; shard 0
/// alone when the device has one shard or the object is unmapped
/// (whole-device attribution).
fn holders(
    maps: &IdMap<ShardMap>,
    shards: usize,
    costed: ObjId,
) -> impl Iterator<Item = usize> + '_ {
    let counts: &[u64] = match maps.get(&costed) {
        Some(map) if shards > 1 && map.counts.iter().any(|&c| c > 0) => &map.counts,
        _ => &[1],
    };
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(s, _)| s)
}

/// The sharded execution substrate behind [`crate::Device`].
///
/// Owns a metadata catalog (the authoritative global [`ObjectLayout`]s
/// the cost model charges against), the per-shard state, the per-object
/// [`ShardMap`]s, and the [`InterconnectModel`]. With `shards = 1` the
/// system is an exact pass-through to the legacy single-manager device.
#[derive(Debug)]
pub struct PimSystem {
    meta: ResourceManager,
    shards: Vec<Shard>,
    /// Per-object shard maps. Never iterated, and ids are never
    /// reused: see [`IdMap`].
    maps: IdMap<ShardMap>,
    policy: ShardPolicy,
    interconnect: InterconnectModel,
    functional: bool,
}

impl PimSystem {
    /// Builds the shard set for `config`: `config.shards` shards
    /// (clamped to the modeled core count), each receiving an even
    /// split of the modeled and physical cores.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] if any shard's row capacity overflows
    /// `u64`.
    pub(crate) fn new(config: &DeviceConfig) -> Result<PimSystem> {
        let modeled = config.core_count().max(1);
        let physical = config.physical_core_count().max(1);
        let n = config.shards.max(1).min(modeled);
        let meta = ResourceManager::new(config.rows_per_core(), physical as u64)?;
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            shards.push(Shard {
                rm: ResourceManager::new(
                    config.rows_per_core(),
                    split_even(physical, n, i) as u64,
                )?,
                cores: split_even(modeled, n, i),
                timing: model::timing_model(config, config.timing_backend),
            });
        }
        Ok(PimSystem {
            meta,
            shards,
            maps: IdMap::default(),
            policy: config.shard_policy,
            interconnect: InterconnectModel::from_config(config),
            functional: matches!(config.mode, SimMode::Functional),
        })
    }

    /// The metadata catalog holding every object's global layout.
    pub fn meta(&self) -> &ResourceManager {
        &self.meta
    }

    /// Number of execution shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The cross-shard interconnect cost model.
    pub fn interconnect(&self) -> &InterconnectModel {
        &self.interconnect
    }

    /// The shard map of a live object, if any.
    pub fn shard_map(&self, id: ObjId) -> Option<&ShardMap> {
        self.maps.get(&id)
    }

    // ------------------------------------------------------------------
    // Sharded allocation
    // ------------------------------------------------------------------

    /// Two-phase sharded allocation: computes the global layout, runs
    /// every capacity check (catalog first, then each shard) in the
    /// legacy error order, and only then commits the object everywhere
    /// under one global id. The catalog entry never materializes data;
    /// functional buffers live in the per-shard objects.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] for zero-element or overflowing
    /// requests, [`PimError::OutOfMemory`] when the catalog or any
    /// shard runs out of rows. Failure commits nothing.
    pub(crate) fn alloc(
        &mut self,
        config: &DeviceConfig,
        count: u64,
        dtype: DataType,
        cores_cap: Option<usize>,
    ) -> Result<ObjId> {
        let layout = ObjectLayout::compute(config, count, dtype, cores_cap)?;
        if layout.rows_per_core > self.meta.rows_per_core() {
            return Err(PimError::OutOfMemory {
                rows_needed: layout.rows_per_core,
                rows_available: self.meta.rows_per_core(),
            });
        }
        let units = layout.rows_per_core * layout.cores_used as u64;
        if self.meta.rows_in_use() + units > self.meta.rows_capacity() {
            return Err(PimError::OutOfMemory {
                rows_needed: self.meta.rows_in_use() + units,
                rows_available: self.meta.rows_capacity(),
            });
        }
        let n = self.shards.len();
        // Map weights are ALWAYS the shards' modeled-core split — never
        // cores_cap — so every object of the same count and dtype gets
        // the identical map and element-wise operands stay aligned.
        let weights: Vec<u64> = self.shards.iter().map(|s| s.cores as u64).collect();
        let map = ShardMap::compute(count, layout.elems_per_unit, &weights, self.policy);
        // rows_per_core = units_per_core × rows_per_unit, exactly.
        let rows_per_unit = layout.rows_per_core / layout.units_per_core.max(1);
        let budget_total = cores_cap.unwrap_or_else(|| config.core_count()).max(1);
        let mut locals: Vec<Option<ObjectLayout>> = vec![None; n];
        for (s, local) in locals.iter_mut().enumerate() {
            let c = map.count_on(s);
            if c == 0 {
                continue;
            }
            let local_units = c.div_ceil(layout.elems_per_unit.max(1));
            let budget = split_even(budget_total, n, s).max(1) as u64;
            let lcores = local_units.min(budget).max(1) as usize;
            let lupc = local_units.div_ceil(lcores as u64);
            let lrows = lupc.checked_mul(rows_per_unit).ok_or_else(|| {
                PimError::InvalidArg("object layout overflows u64 row arithmetic".into())
            })?;
            let shard_rm = &self.shards[s].rm;
            if lrows > shard_rm.rows_per_core() {
                return Err(PimError::OutOfMemory {
                    rows_needed: lrows,
                    rows_available: shard_rm.rows_per_core(),
                });
            }
            let lunits = lrows * lcores as u64;
            if shard_rm.rows_in_use() + lunits > shard_rm.rows_capacity() {
                return Err(PimError::OutOfMemory {
                    rows_needed: shard_rm.rows_in_use() + lunits,
                    rows_available: shard_rm.rows_capacity(),
                });
            }
            let lelems = lupc
                .checked_mul(layout.elems_per_unit)
                .map_or(c, |padded| padded.min(c));
            *local = Some(ObjectLayout {
                layout: layout.layout,
                cores_used: lcores,
                elems_per_core: lelems,
                rows_per_core: lrows,
                elems_per_unit: layout.elems_per_unit,
                units_per_core: lupc,
            });
        }
        let id = ObjId(self.meta.peek_next_id());
        self.meta.install(id, dtype, count, layout, false);
        for (s, local) in locals.into_iter().enumerate() {
            if let Some(l) = local {
                self.shards[s]
                    .rm
                    .install(id, dtype, map.count_on(s), l, self.functional);
            }
        }
        self.maps.insert(id, map);
        Ok(id)
    }

    /// Frees an object from the catalog and every shard holding a range.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] if the id is not live.
    pub(crate) fn free(&mut self, id: ObjId) -> Result<()> {
        self.meta.free(id)?;
        for shard in &mut self.shards {
            // Shards with no range of this object never installed it.
            let _ = shard.rm.free(id);
        }
        self.maps.remove(&id);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Per-shard execution
    // ------------------------------------------------------------------

    /// Runs `f` once per shard and returns the first shard error (in
    /// shard order); every shard runs even after one fails.
    ///
    /// `work` is the number of elements the call touches (the
    /// destination's element count). Below `2 × exec::MIN_CHUNK` (the
    /// floor `exec` applies to every element loop) or with one shard, the
    /// shards run inline on the calling thread, in shard order, and a
    /// multi-shard call counts one sequential run in the pool profile.
    /// Otherwise they go through the persistent pool at item granularity
    /// ([`exec::par_each_mut`]): shards are claimed one chunk at a time
    /// from the fan-out's shared counter, so a worker that finishes a
    /// light shard takes the next one, and element-level fan-outs
    /// *inside* a shard are ordinary nested pool jobs that idle workers
    /// can help with.
    fn on_shards<F>(shards: &mut [Shard], work: usize, f: F) -> Result<()>
    where
        F: Fn(usize, &mut Shard) -> Result<()> + Sync,
    {
        if shards.len() > 1 {
            if work >= 2 * exec::MIN_CHUNK {
                return exec::par_each_mut(shards, |i, shard| f(i, shard))
                    .into_iter()
                    .collect();
            }
            exec::pool::note_sequential();
        }
        let mut first = Ok(());
        for (i, shard) in shards.iter_mut().enumerate() {
            let result = f(i, shard);
            if first.is_ok() {
                first = result;
            }
        }
        first
    }

    /// Reassembles an object's full canonical buffer in global element
    /// order from its per-shard pieces.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`]; [`PimError::NotSupported`] in
    /// model-only mode.
    pub(crate) fn gather_full(&self, id: ObjId) -> Result<Vec<i64>> {
        let count = self.meta.get(id)?.count as usize;
        let map = self.maps.get(&id).ok_or(PimError::UnknownObject(id))?;
        let mut out = vec![0i64; count];
        for r in &map.ranges {
            let obj = self.shards[r.shard].rm.get(id)?;
            let data = obj
                .data
                .as_deref()
                .ok_or_else(|| PimError::NotSupported("copy_to_host in model-only mode".into()))?;
            let ls = r.local_start as usize;
            let len = (r.end - r.start) as usize;
            out[r.start as usize..r.end as usize].copy_from_slice(&data[ls..ls + len]);
        }
        Ok(out)
    }

    /// Converts an object's sharded contents into a host buffer
    /// (`pimCopyDeviceToHost` under sharding).
    ///
    /// # Errors
    ///
    /// As [`PimSystem::gather_full`].
    pub(crate) fn gather_to_host<T: PimScalar>(&self, id: ObjId, out: &mut [T]) -> Result<()> {
        let map = self.maps.get(&id).ok_or(PimError::UnknownObject(id))?;
        for r in &map.ranges {
            let obj = self.shards[r.shard].rm.get(id)?;
            let data = obj
                .data
                .as_deref()
                .ok_or_else(|| PimError::NotSupported("copy_to_host in model-only mode".into()))?;
            let ls = r.local_start as usize;
            let len = (r.end - r.start) as usize;
            exec::par_map_into(
                [&data[ls..ls + len]],
                &mut out[r.start as usize..r.end as usize],
                |[v]| T::from_device(v),
            );
        }
        Ok(())
    }

    /// Packs a host buffer into per-shard canonical buffers
    /// (`pimCopyHostToDevice` under sharding). No-op in model-only mode.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub(crate) fn scatter_to_device<T: PimScalar>(
        &mut self,
        data: &[T],
        id: ObjId,
        dtype: DataType,
    ) -> Result<()> {
        if !self.functional {
            return Ok(());
        }
        let map = self.maps.get(&id).ok_or(PimError::UnknownObject(id))?;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let c = map.count_on(s) as usize;
            if c == 0 {
                continue;
            }
            // Reuse the shard's existing buffer when present (repeated
            // uploads into the same object allocate nothing).
            let mut buf = shard.rm.get_mut(id)?.data.take().unwrap_or_default();
            buf.resize(c, 0);
            for r in map.ranges.iter().filter(|r| r.shard == s) {
                let ls = r.local_start as usize;
                let len = (r.end - r.start) as usize;
                exec::par_map_into(
                    [&data[r.start as usize..r.end as usize]],
                    &mut buf[ls..ls + len],
                    |[v]| dtype.truncate(v.to_device()),
                );
            }
            shard.rm.get_mut(id)?.data = Some(buf);
        }
        Ok(())
    }

    /// Element-wise execution across shards. Operands whose shard map
    /// differs from the destination's (e.g. a `select` condition of a
    /// narrower dtype on a horizontal target) are realigned first:
    /// their bytes are counted as interconnect realignment traffic and,
    /// in functional mode, their values are re-dealt by the
    /// destination's map. Returns the realigned byte total.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] for dead operands.
    pub(crate) fn exec_elementwise(
        &mut self,
        kind: crate::ops::OpKind,
        dtype: DataType,
        inputs: &[ObjId],
        dst: ObjId,
    ) -> Result<u64> {
        let dst_map = self.maps.get(&dst).ok_or(PimError::UnknownObject(dst))?;
        let mut realign_bytes = 0u64;
        // `(input index, per-shard pieces)` for every input re-dealt by
        // the destination's map. Stays empty, and so allocates nothing,
        // when every operand is aligned with the destination.
        let mut realigned: Vec<(usize, Vec<Vec<i64>>)> = Vec::new();
        for (j, &id) in inputs.iter().enumerate() {
            let map = self.maps.get(&id).ok_or(PimError::UnknownObject(id))?;
            if map == dst_map {
                continue;
            }
            realign_bytes += self.meta.get(id)?.bytes();
            if self.functional {
                let full = self.gather_full(id)?;
                let mut per_shard: Vec<Vec<i64>> = vec![Vec::new(); self.shards.len()];
                for r in &dst_map.ranges {
                    per_shard[r.shard].extend_from_slice(&full[r.start as usize..r.end as usize]);
                }
                realigned.push((j, per_shard));
            }
        }
        if !self.functional {
            return Ok(realign_bytes);
        }
        let aliased = inputs.contains(&dst);
        let work = self.meta.get(dst)?.count as usize;
        Self::on_shards(&mut self.shards, work, |s, shard| {
            let n = dst_map.count_on(s) as usize;
            if n == 0 {
                return Ok(());
            }
            // Steady-state ops write into the destination's existing
            // buffer instead of allocating a fresh output per op. When
            // an input aliases the destination the buffer cannot be
            // taken out from under the reads, so that (rare) shape
            // computes into a new buffer.
            let mut out = if aliased {
                vec![0; n]
            } else {
                let mut buf = shard.rm.get_mut(dst)?.data.take().unwrap_or_default();
                buf.resize(n, 0);
                buf
            };
            {
                let mut ins: [&[i64]; 4] = [&[]; 4];
                for (j, &id) in inputs.iter().enumerate() {
                    ins[j] = match realigned.iter().find(|(k, _)| *k == j) {
                        Some((_, per)) => &per[s],
                        None => shard
                            .rm
                            .get(id)?
                            .data
                            .as_deref()
                            .expect("functional object has data"),
                    };
                }
                crate::cmd::exec_into(kind, dtype, &ins[..inputs.len()], &mut out);
            }
            shard.rm.get_mut(dst)?.data = Some(out);
            Ok(())
        })?;
        Ok(realign_bytes)
    }

    /// Device-to-device copy. Aligned maps clone shard-locally; a
    /// misaligned pair (possible only through dtype-chained
    /// associations) gathers and re-deals, returning the object's bytes
    /// as interconnect realignment traffic.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`] for dead operands.
    pub(crate) fn copy_data(&mut self, src: ObjId, dst: ObjId) -> Result<u64> {
        let src_map = self.maps.get(&src).ok_or(PimError::UnknownObject(src))?;
        let dst_map = self.maps.get(&dst).ok_or(PimError::UnknownObject(dst))?;
        if src_map == dst_map {
            if self.functional && src != dst {
                let work = self.meta.get(dst)?.count as usize;
                Self::on_shards(&mut self.shards, work, |_s, shard| {
                    // Reuse the destination's existing buffer: repeated
                    // copies into the same object allocate nothing.
                    let Ok(dst_obj) = shard.rm.get_mut(dst) else {
                        return Ok(());
                    };
                    let mut buf = dst_obj.data.take().unwrap_or_default();
                    let copied = match shard.rm.get(src) {
                        Ok(obj) => match obj.data.as_deref() {
                            Some(d) => {
                                buf.resize(d.len(), 0);
                                buf.copy_from_slice(d);
                                true
                            }
                            None => false,
                        },
                        Err(_) => {
                            // Source absent on this shard: restore the
                            // destination untouched (pre-reuse semantics).
                            shard.rm.get_mut(dst)?.data = Some(buf);
                            return Ok(());
                        }
                    };
                    shard.rm.get_mut(dst)?.data = copied.then_some(buf);
                    Ok(())
                })?;
            }
            return Ok(0);
        }
        let bytes = self.meta.get(src)?.bytes();
        if self.functional {
            let full = self.gather_full(src)?;
            for (s, shard) in self.shards.iter_mut().enumerate() {
                let c = dst_map.count_on(s) as usize;
                if c == 0 {
                    continue;
                }
                let mut buf = vec![0i64; c];
                for r in dst_map.ranges.iter().filter(|r| r.shard == s) {
                    let ls = r.local_start as usize;
                    let len = (r.end - r.start) as usize;
                    buf[ls..ls + len].copy_from_slice(&full[r.start as usize..r.end as usize]);
                }
                if let Ok(obj) = shard.rm.get_mut(dst) {
                    obj.data = Some(buf);
                }
            }
        }
        Ok(bytes)
    }

    /// Fills every shard-local piece of `dst` with `value` truncated to
    /// `dtype`. No-op in model-only mode.
    ///
    /// # Errors
    ///
    /// Never fails today (missing shard pieces are skipped); kept
    /// fallible for symmetry with the other execution paths.
    pub(crate) fn broadcast_value(
        &mut self,
        dst: ObjId,
        value: i64,
        dtype: DataType,
    ) -> Result<()> {
        if !self.functional {
            return Ok(());
        }
        let work = self.meta.get(dst).map_or(0, |o| o.count as usize);
        Self::on_shards(&mut self.shards, work, |_s, shard| {
            if let Ok(obj) = shard.rm.get_mut(dst) {
                let count = obj.count as usize;
                // Fill in place when a buffer already exists.
                let mut buf = obj.data.take().unwrap_or_default();
                buf.resize(count, 0);
                buf.fill(dtype.truncate(value));
                obj.data = Some(buf);
            }
            Ok(())
        })
    }

    /// Widening reduction sum across all shards (0 in model-only mode).
    /// Per-range partials accumulate in ascending global order; `i128`
    /// addition is associative so the result is bit-identical to the
    /// unsharded sum.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub(crate) fn red_sum(&self, a: ObjId, dtype: DataType) -> Result<i128> {
        let map = self.maps.get(&a).ok_or(PimError::UnknownObject(a))?;
        let mut total = 0i128;
        for r in &map.ranges {
            let obj = self.shards[r.shard].rm.get(a)?;
            let Some(data) = obj.data.as_deref() else {
                return Ok(0);
            };
            let ls = r.local_start as usize;
            let len = (r.end - r.start) as usize;
            total += par_sum(&data[ls..ls + len], dtype);
        }
        Ok(total)
    }

    /// Reduction extreme (`min` when `want_min`, else `max`) across all
    /// shards, 0 in model-only mode. Per-range partials fold in
    /// ascending global order with keep-first tie-breaking — exactly a
    /// sequential scan's semantics, so sharding cannot change the
    /// result.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub(crate) fn red_extreme(&self, a: ObjId, dtype: DataType, want_min: bool) -> Result<i64> {
        let map = self.maps.get(&a).ok_or(PimError::UnknownObject(a))?;
        let keep_first = |x: i64, y: i64| {
            let ord = dtype.compare(x, y);
            if if want_min { ord.is_le() } else { ord.is_ge() } {
                x
            } else {
                y
            }
        };
        let mut best: Option<i64> = None;
        for r in &map.ranges {
            let obj = self.shards[r.shard].rm.get(a)?;
            let Some(data) = obj.data.as_deref() else {
                return Ok(0);
            };
            let ls = r.local_start as usize;
            let len = (r.end - r.start) as usize;
            let seg = &data[ls..ls + len];
            let part = exec::par_fold(
                seg.len(),
                |rr| {
                    seg[rr]
                        .iter()
                        .copied()
                        .reduce(keep_first)
                        .expect("chunks are non-empty")
                },
                keep_first,
            );
            best = match (best, part) {
                (Some(x), Some(y)) => Some(keep_first(x, y)),
                (None, p) => p,
                (b, None) => b,
            };
        }
        Ok(best.unwrap_or(0))
    }

    /// Ranged reduction sum over global elements `[start, end)`
    /// (bounds already validated), intersected with each shard range.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub(crate) fn red_sum_range(
        &self,
        a: ObjId,
        dtype: DataType,
        start: u64,
        end: u64,
    ) -> Result<i128> {
        let map = self.maps.get(&a).ok_or(PimError::UnknownObject(a))?;
        let mut total = 0i128;
        for r in &map.ranges {
            let s = start.max(r.start);
            let e = end.min(r.end);
            if s >= e {
                continue;
            }
            let obj = self.shards[r.shard].rm.get(a)?;
            let Some(data) = obj.data.as_deref() else {
                return Ok(0);
            };
            let ls = (r.local_start + (s - r.start)) as usize;
            total += par_sum(&data[ls..ls + (e - s) as usize], dtype);
        }
        Ok(total)
    }

    // ------------------------------------------------------------------
    // Timing models
    // ------------------------------------------------------------------

    /// Prices one command through the timing models of every shard
    /// holding `costed`, in ascending shard order (deterministic at any
    /// thread count). Shards execute the broadcast in lockstep, so each
    /// holder charges the full per-core demand and the aggregate is the
    /// slowest holder — which keeps the aggregate shard-count-invariant.
    /// The DRAM commands each holder issued are drained, merged and
    /// returned for the device ledger.
    pub(crate) fn price_with_backends<F>(
        &mut self,
        costed: ObjId,
        mut price: F,
    ) -> (OpCost, TimingCounters)
    where
        F: FnMut(&mut TimingModel) -> OpCost,
    {
        let mut agg: Option<OpCost> = None;
        let mut dram = TimingCounters::default();
        for s in holders(&self.maps, self.shards.len(), costed) {
            let timing = &mut self.shards[s].timing;
            let cost = price(timing);
            dram.merge(&timing.take_counters());
            agg = Some(match agg {
                None => cost,
                Some(prev) if cost.time_ms > prev.time_ms => cost,
                Some(prev) => prev,
            });
        }
        (agg.unwrap_or_default(), dram)
    }

    /// Charges one host↔device copy of `represented_bytes` through the
    /// holders' timing models (bandwidth-bound in both backends; the
    /// critical path is the same on every holder) and replays the
    /// protocol stream. Returns the copy time in ms, the first holder's
    /// replay for the trace (the bank FSM replays on every holder; the
    /// closed form replays once, and only when `want_replay`), and the
    /// drained DRAM commands for the device ledger (the closed form's
    /// advisory replay never reaches it).
    pub(crate) fn charge_copy_with_backends(
        &mut self,
        obj: ObjId,
        represented_bytes: u64,
        functional_bytes: u64,
        ranks: usize,
        want_replay: bool,
    ) -> (f64, Option<CopyReplay>, TimingCounters) {
        let mut time_ms: Option<f64> = None;
        let mut replay: Option<CopyReplay> = None;
        let mut dram = TimingCounters::default();
        for s in holders(&self.maps, self.shards.len(), obj) {
            let timing = &mut self.shards[s].timing;
            let t = timing.charge_host_copy(represented_bytes, ranks);
            time_ms = Some(time_ms.map_or(t, |prev| prev.max(t)));
            let r = timing.copy_replay(functional_bytes, want_replay && replay.is_none());
            dram.merge(&timing.take_counters());
            replay = replay.or(r);
        }
        (time_ms.unwrap_or(0.0), replay, dram)
    }

    // ------------------------------------------------------------------
    // Per-shard time distribution
    // ------------------------------------------------------------------

    /// Splits `time_ms` charged on `obj` over the shards holding it,
    /// proportionally to each shard's element count, as `f(shard, share)`
    /// in ascending shard order. The last holder absorbs the rounding
    /// remainder, so the shares sum back to `time_ms` up to float
    /// re-association. Single-shard devices and unmapped objects put the
    /// whole time on shard 0.
    pub(crate) fn split_time(&self, obj: ObjId, time_ms: f64, mut f: impl FnMut(usize, f64)) {
        let Some(map) = self.maps.get(&obj).filter(|_| self.shards.len() > 1) else {
            return f(0, time_ms);
        };
        let total: u64 = map.counts.iter().sum();
        let last = map.counts.iter().rposition(|&c| c > 0);
        let mut acc = 0.0f64;
        for (s, &c) in map.counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
            let share = if Some(s) == last {
                (time_ms - acc).max(0.0)
            } else {
                time_ms * (c as f64 / total as f64)
            };
            acc += share;
            f(s, share);
        }
    }

    /// Critical-path and total byte loads of scattering/gathering `id`:
    /// `(busiest shard's bytes, all bytes)`.
    pub(crate) fn shard_byte_split(&self, id: ObjId) -> (u64, u64) {
        let Ok(obj) = self.meta.get(id) else {
            return (0, 0);
        };
        let bpe = (obj.dtype.bits() as u64 / 8).max(1);
        match self.maps.get(&id) {
            Some(map) => {
                let max_c = map.counts.iter().copied().max().unwrap_or(0);
                (max_c * bpe, obj.count * bpe)
            }
            None => (obj.count * bpe, obj.count * bpe),
        }
    }

    /// Snapshot of catalog-level and per-shard resource usage
    /// (per-shard rows are populated only when more than one shard
    /// exists).
    pub(crate) fn resource_stats(&self) -> ResourceStats {
        let per_shard = if self.shards.len() > 1 {
            self.shards
                .iter()
                .map(|s| ShardResourceStats {
                    rows_in_use: s.rm.rows_in_use(),
                    peak_rows: s.rm.peak_rows(),
                    rows_capacity: s.rm.rows_capacity(),
                    live_objects: s.rm.live_objects() as u64,
                })
                .collect()
        } else {
            Vec::new()
        };
        ResourceStats {
            rows_in_use: self.meta.rows_in_use(),
            peak_rows: self.meta.peak_rows(),
            rows_capacity: self.meta.rows_capacity(),
            live_objects: self.meta.live_objects() as u64,
            shards: self.shards.len() as u64,
            per_shard,
        }
    }

    /// Resets every shard's timing model to a fresh (all-banks-closed)
    /// state.
    pub(crate) fn reset_timing(&mut self) {
        for shard in &mut self.shards {
            shard.timing.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(map: &ShardMap, count: u64) {
        let mut next = 0u64;
        let mut local_next = vec![0u64; map.shard_count()];
        for r in map.ranges() {
            assert_eq!(r.start, next, "ranges must tile [0, count) in order");
            assert!(r.end > r.start);
            assert_eq!(r.local_start, local_next[r.shard]);
            local_next[r.shard] += r.end - r.start;
            next = r.end;
        }
        assert_eq!(next, count);
        for (s, &c) in map.counts().iter().enumerate() {
            assert_eq!(c, local_next[s], "counts must match range coverage");
        }
        assert_eq!(map.counts().iter().sum::<u64>(), count);
    }

    #[test]
    fn contiguous_map_partitions_on_unit_boundaries() {
        let map = ShardMap::compute(1000, 32, &[4, 4, 4, 4], ShardPolicy::Contiguous);
        assert_partition(&map, 1000);
        for r in &map.ranges()[..map.ranges().len() - 1] {
            assert_eq!(r.start % 32, 0, "splits must land on unit boundaries");
            assert_eq!(r.end % 32, 0, "splits must land on unit boundaries");
        }
    }

    #[test]
    fn contiguous_map_respects_weights() {
        let map = ShardMap::compute(64, 1, &[3, 1], ShardPolicy::Contiguous);
        assert_partition(&map, 64);
        assert_eq!(map.count_on(0), 48);
        assert_eq!(map.count_on(1), 16);
    }

    #[test]
    fn round_robin_deals_units_cyclically() {
        let map = ShardMap::compute(100, 10, &[1, 1, 1], ShardPolicy::RoundRobin);
        assert_partition(&map, 100);
        // 10 units of 10 elements: shards get 4, 3, 3 units.
        assert_eq!(map.count_on(0), 40);
        assert_eq!(map.count_on(1), 30);
        assert_eq!(map.count_on(2), 30);
    }

    #[test]
    fn both_policies_coincide_for_one_shard() {
        let contiguous = ShardMap::compute(12345, 64, &[8], ShardPolicy::Contiguous);
        let rr = ShardMap::compute(12345, 64, &[8], ShardPolicy::RoundRobin);
        assert_eq!(contiguous, rr);
        assert_eq!(contiguous.ranges().len(), 1);
        assert_eq!(contiguous.count_on(0), 12345);
    }

    #[test]
    fn tiny_objects_leave_trailing_shards_empty() {
        let map = ShardMap::compute(5, 32, &[2, 2, 2, 2], ShardPolicy::Contiguous);
        assert_partition(&map, 5);
        assert_eq!(map.ranges().len(), 1, "one unit cannot split");
        let nonempty = map.counts().iter().filter(|&&c| c > 0).count();
        assert_eq!(nonempty, 1);
    }

    #[test]
    fn partial_final_unit_is_clamped_to_count() {
        let map = ShardMap::compute(65, 32, &[1, 1], ShardPolicy::Contiguous);
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
