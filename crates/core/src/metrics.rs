//! Std-only metrics registry and utilization profiler.
//!
//! The trace subsystem records a *timeline* of discrete events and
//! [`crate::SimStats`] keeps the run's counts and sums; this module
//! records what neither holds — the *distributions* the
//! capacity-planning questions need ("what is p99 op latency?", "how
//! busy is shard 3 over time?", "how many bytes crossed the
//! interconnect in each window?"). A count or a total lives in one
//! place: the stats ledger, or a histogram's `count` and `sum`.
//!
//! # Histograms
//!
//! Log-bucketed distributions with `p50`/`p90`/`p99` and exact
//! `min`/`max`/`sum`/`count`. Values are bucketed by the bit position
//! of the value scaled by 2²⁰, so latencies down to microseconds and
//! sizes up to terabytes land in distinct buckets. The registry keeps
//! op latency (overall and per command name), copy sizes and latencies,
//! interconnect transfer sizes, and one `busy_ms` histogram per
//! execution shard.
//!
//! # Deterministic merge
//!
//! Each recording site writes plain (non-atomic) storage owned by the
//! device. [`MetricsRegistry::snapshot`] merges the per-shard `busy_ms`
//! histograms into the aggregate **in ascending shard order**, which —
//! together with the fact that every recorded quantity derives from the
//! *modeled* simulated clock, never wall time — makes snapshots
//! bit-identical at any `PIM_THREADS` worker count.
//!
//! # Utilization profiler
//!
//! With profiling enabled the registry also keeps raw per-shard busy
//! spans and interconnect byte samples on the simulated clock, and
//! [`MetricsRegistry::snapshot`] bins them into fixed-width occupancy
//! series ([`ProfileSnapshot`]): per-shard busy fraction per bin and
//! interconnect bytes per bin. The Chrome exporter renders these as
//! Perfetto counter tracks (`ph: "C"`); the stats JSON carries them in
//! the `"metrics"` section.

use std::collections::BTreeMap;

use crate::trace::json::JsonWriter;

/// Fixed-point scale for histogram bucketing: values are multiplied by
/// `2^20` before taking the bit position, so sub-millisecond latencies
/// (in ms units) still spread across buckets.
const BUCKET_SCALE_SHIFT: u32 = 20;

/// Number of histogram buckets (one per bit position of the scaled
/// value, plus bucket 0 for zero).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Number of time bins a profile snapshot divides the run into.
pub const DEFAULT_PROFILE_BINS: usize = 32;

/// Version stamp of the metrics snapshot JSON layout.
///
/// Version 2 removed the per-shard `kernel_busy_fraction` gauge: it
/// equals `per_shard[i].histograms.busy_ms.sum / (clock_ms -
/// window_start_ms)`, all of which the snapshot carries. Version 3
/// removed every counter and gauge (the `"counters"` and `"gauges"`
/// objects): each repeated a histogram's `count` or `sum` or a
/// [`crate::SimStats`] field. The `window_start_ms` key is additive and
/// did not bump the version.
pub const METRICS_SCHEMA_VERSION: u32 = 3;

/// A log-bucketed distribution with quantile estimation.
///
/// Recording is O(1): the value selects one of [`HISTOGRAM_BUCKETS`]
/// power-of-two buckets. Quantiles interpolate linearly inside the
/// selected bucket, clamped to the exact observed `min`/`max`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

fn bucket_index(value: f64) -> usize {
    let scaled = (value.max(0.0) * (1u64 << BUCKET_SCALE_SHIFT) as f64) as u64;
    (64 - scaled.leading_zeros()) as usize
}

fn bucket_upper_bound(index: usize) -> f64 {
    (1u128 << index) as f64 / (1u64 << BUCKET_SCALE_SHIFT) as f64
}

impl Histogram {
    /// Records one observation (negative values clamp to zero).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) by linear interpolation
    /// inside the bucket holding the rank, clamped to the observed
    /// `min`/`max`. Returns 0 with no observations.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lower = if i == 0 {
                    0.0
                } else {
                    bucket_upper_bound(i - 1)
                };
                let upper = bucket_upper_bound(i);
                let frac = (rank - seen) as f64 / n as f64;
                let est = lower + (upper - lower) * frac;
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Folds another histogram in (bucket-wise sums, min/max widening).
    pub fn merge_from(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Freezes the distribution into an exported summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Exported summary of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistogramSnapshot {
    fn json_fields(&self, w: &mut JsonWriter) {
        w.field("count", self.count)
            .field("sum", self.sum)
            .field("min", self.min)
            .field("max", self.max)
            .field("p50", self.p50)
            .field("p90", self.p90)
            .field("p99", self.p99);
    }
}

/// Exported histograms of one scope (the device aggregate or one
/// shard), by name. Names sort deterministically in every export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstrumentsSnapshot {
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl InstrumentsSnapshot {
    /// Adds `h` under `name` if it recorded anything: an instrument
    /// appears in an export only once it has an observation.
    fn put(&mut self, name: &str, h: &Histogram) {
        if h.count > 0 {
            self.histograms.insert(name.to_owned(), h.snapshot());
        }
    }

    fn json_fields(&self, w: &mut JsonWriter) {
        w.obj("histograms");
        for (name, h) in &self.histograms {
            h.json_fields(w.obj(name));
            w.end();
        }
        w.end();
    }
}

/// One per-shard busy span on the simulated clock: during the command
/// window `[start_ms, start_ms + dur_ms)` the shard was busy for
/// `busy_ms` of modeled time (its proportional share of the command).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShardSpan {
    shard: usize,
    start_ms: f64,
    dur_ms: f64,
    busy_ms: f64,
}

/// One interconnect transfer sample on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ByteSample {
    at_ms: f64,
    bytes: u64,
}

/// Raw profiler input: spans and samples kept until snapshot time.
#[derive(Debug, Clone, Default, PartialEq)]
struct ProfileRecorder {
    spans: Vec<ShardSpan>,
    interconnect: Vec<ByteSample>,
}

/// Time-binned occupancy series produced by the profiler.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    /// Width of one bin in simulated milliseconds.
    pub bin_ms: f64,
    /// Number of bins (`0` when the run had no simulated time).
    pub bins: usize,
    /// Per-shard busy fraction per bin (`shard_busy[shard][bin]`,
    /// `0.0..=1.0` up to float rounding).
    pub shard_busy: Vec<Vec<f64>>,
    /// Interconnect bytes charged in each bin.
    pub interconnect_bytes: Vec<u64>,
}

impl ProfileSnapshot {
    fn json_fields(&self, w: &mut JsonWriter) {
        w.field("bin_ms", self.bin_ms)
            .field("bins", self.bins)
            .arr("shard_busy");
        for bins in &self.shard_busy {
            w.item_arr();
            for &v in bins {
                w.item(v);
            }
            w.end();
        }
        w.end().arr("interconnect_bytes");
        for &bytes in &self.interconnect_bytes {
            w.item(bytes);
        }
        w.end();
    }
}

/// The metrics registry a [`crate::Device`] records into.
///
/// See the module docs for what it keeps and the determinism contract.
/// All quantities are modeled (simulated-clock) values; the registry
/// never reads wall time. It keeps no clock of its own: the device owns
/// the only simulated clock and passes its position in (the registry's
/// start, span starts, sample stamps, and the snapshot's end).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    /// The device clock when the registry started recording.
    start_ms: f64,
    op_latency_ms: Histogram,
    /// One latency histogram per command name (`add.int32`, ...).
    op_latency_by_name: BTreeMap<String, Histogram>,
    copy_bytes: Histogram,
    copy_latency_ms: Histogram,
    interconnect_bytes: Histogram,
    /// Each shard's busy share per command (index = shard).
    busy_ms: Vec<Histogram>,
    profile: Option<ProfileRecorder>,
}

impl MetricsRegistry {
    /// A registry for `shards` execution shards that starts recording at
    /// `start_ms` on the device clock; `profile` additionally keeps the
    /// raw occupancy spans for [`ProfileSnapshot`] binning.
    pub fn new(shards: usize, profile: bool, start_ms: f64) -> Self {
        MetricsRegistry {
            start_ms,
            op_latency_ms: Histogram::default(),
            op_latency_by_name: BTreeMap::new(),
            copy_bytes: Histogram::default(),
            copy_latency_ms: Histogram::default(),
            interconnect_bytes: Histogram::default(),
            busy_ms: vec![Histogram::default(); shards.max(1)],
            profile: profile.then(ProfileRecorder::default),
        }
    }

    /// True when the profiler is retaining occupancy spans.
    pub fn profiling(&self) -> bool {
        self.profile.is_some()
    }

    /// Records one PIM command's modeled latency, overall and under its
    /// statistics name. Each shard's part follows through
    /// [`MetricsRegistry::record_shard_busy`].
    pub fn record_cmd(&mut self, name: &str, time_ms: f64) {
        self.op_latency_ms.record(time_ms);
        match self.op_latency_by_name.get_mut(name) {
            Some(h) => h.record(time_ms),
            None => {
                let mut h = Histogram::default();
                h.record(time_ms);
                self.op_latency_by_name.insert(name.to_owned(), h);
            }
        }
    }

    /// Records one shard's part of a command: during the command window
    /// `[start_ms, start_ms + dur_ms)` on the device clock the shard was
    /// busy for `busy_ms`. Out-of-range shards are ignored.
    pub fn record_shard_busy(&mut self, shard: usize, start_ms: f64, dur_ms: f64, busy_ms: f64) {
        let Some(h) = self.busy_ms.get_mut(shard) else {
            return;
        };
        h.record(busy_ms);
        if let Some(p) = &mut self.profile {
            p.spans.push(ShardSpan {
                shard,
                start_ms,
                dur_ms,
                busy_ms,
            });
        }
    }

    /// Records one host↔device (or device↔device) copy's size and
    /// modeled latency.
    pub fn record_copy(&mut self, bytes: u64, time_ms: f64) {
        self.copy_bytes.record(bytes as f64);
        self.copy_latency_ms.record(time_ms);
    }

    /// Records one cross-shard interconnect transfer of `bytes` at
    /// `at_ms` on the device clock.
    pub fn record_interconnect(&mut self, at_ms: f64, bytes: u64) {
        self.interconnect_bytes.record(bytes as f64);
        if let Some(p) = &mut self.profile {
            p.interconnect.push(ByteSample { at_ms, bytes });
        }
    }

    /// Freezes the registry at `clock_ms` on the device clock: the
    /// per-shard `busy_ms` histograms are merged into the aggregate **in
    /// ascending shard order** (the deterministic-merge contract), and
    /// raw profile spans are binned into occupancy series over the
    /// registry's window, `[start, clock_ms)`.
    pub fn snapshot(&self, clock_ms: f64) -> MetricsSnapshot {
        let mut busy = Histogram::default();
        for h in &self.busy_ms {
            busy.merge_from(h);
        }
        let mut aggregate = InstrumentsSnapshot::default();
        aggregate.put("busy_ms", &busy);
        aggregate.put("copy_bytes", &self.copy_bytes);
        aggregate.put("copy_latency_ms", &self.copy_latency_ms);
        aggregate.put("interconnect_bytes_hist", &self.interconnect_bytes);
        aggregate.put("op_latency_ms", &self.op_latency_ms);
        for (name, h) in &self.op_latency_by_name {
            aggregate.put(&format!("op_latency_ms.{name}"), h);
        }
        let per_shard = self
            .busy_ms
            .iter()
            .map(|h| {
                let mut shard = InstrumentsSnapshot::default();
                shard.put("busy_ms", h);
                shard
            })
            .collect();
        MetricsSnapshot {
            schema_version: METRICS_SCHEMA_VERSION,
            clock_ms,
            window_start_ms: self.start_ms,
            aggregate,
            per_shard,
            profile: self.profile.as_ref().map(|p| self.bin_profile(p, clock_ms)),
        }
    }

    fn bin_profile(&self, p: &ProfileRecorder, clock_ms: f64) -> ProfileSnapshot {
        let window_ms = clock_ms - self.start_ms;
        if window_ms <= 0.0 {
            return ProfileSnapshot {
                bin_ms: 0.0,
                bins: 0,
                shard_busy: vec![Vec::new(); self.busy_ms.len()],
                interconnect_bytes: Vec::new(),
            };
        }
        let bins = DEFAULT_PROFILE_BINS;
        let bin_ms = window_ms / bins as f64;
        let mut shard_busy = vec![vec![0.0f64; bins]; self.busy_ms.len()];
        for span in &p.spans {
            if span.shard >= shard_busy.len() {
                continue;
            }
            let start = span.start_ms - self.start_ms;
            let (dur, busy) = (span.dur_ms.max(0.0), span.busy_ms.max(0.0));
            if dur <= 0.0 {
                let bin = ((start / bin_ms) as usize).min(bins - 1);
                shard_busy[span.shard][bin] += busy / bin_ms;
                continue;
            }
            let end = start + dur;
            let first = ((start / bin_ms) as usize).min(bins - 1);
            let last = ((end / bin_ms) as usize).min(bins - 1);
            let row = &mut shard_busy[span.shard];
            for (bin, slot) in row.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = (bin as f64 * bin_ms).max(start);
                let hi = ((bin + 1) as f64 * bin_ms).min(end);
                let overlap = (hi - lo).max(0.0);
                *slot += busy * (overlap / dur) / bin_ms;
            }
        }
        let mut interconnect_bytes = vec![0u64; bins];
        for s in &p.interconnect {
            let bin = (((s.at_ms - self.start_ms) / bin_ms) as usize).min(bins - 1);
            interconnect_bytes[bin] += s.bytes;
        }
        ProfileSnapshot {
            bin_ms,
            bins,
            shard_busy,
            interconnect_bytes,
        }
    }
}

/// A frozen, exportable view of a [`MetricsRegistry`].
///
/// Every field is derived from modeled quantities, so two snapshots of
/// the same workload are bit-identical at any worker-thread count
/// (compare with `==` or via [`MetricsSnapshot::json_fields`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Layout version of the JSON rendering.
    pub schema_version: u32,
    /// The device's simulated clock at snapshot time (ms since device
    /// creation, also when metrics were enabled later).
    pub clock_ms: f64,
    /// The device clock when the registry started: at
    /// [`crate::Device::enable_metrics`] or the last
    /// [`crate::Device::reset_stats`]. Histograms and the profile cover
    /// `[window_start_ms, clock_ms)`.
    pub window_start_ms: f64,
    /// Device-level histograms, plus `busy_ms` merged over every shard
    /// in ascending shard order.
    pub aggregate: InstrumentsSnapshot,
    /// Each shard's own `busy_ms` histogram (index = shard id).
    pub per_shard: Vec<InstrumentsSnapshot>,
    /// Binned occupancy series (present only with profiling enabled).
    pub profile: Option<ProfileSnapshot>,
}

impl MetricsSnapshot {
    /// Writes the snapshot's members into the open object of `w`. Key
    /// order and float formatting are deterministic, so equal snapshots
    /// render to equal text.
    pub fn json_fields(&self, w: &mut JsonWriter) {
        w.field("schema_version", self.schema_version)
            .field("clock_ms", self.clock_ms)
            .field("window_start_ms", self.window_start_ms);
        self.aggregate.json_fields(w.obj("aggregate"));
        w.end().arr("per_shard");
        for shard in &self.per_shard {
            shard.json_fields(w.item_obj());
            w.end();
        }
        w.end();
        if let Some(p) = &self.profile {
            p.json_fields(w.obj("profile"));
            w.end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::json::Json;

    /// Records a command as `Device::charge` does.
    fn cmd(r: &mut MetricsRegistry, name: &str, start: f64, time: f64, shares: &[(usize, f64)]) {
        r.record_cmd(name, time);
        for &(shard, busy_ms) in shares {
            r.record_shard_busy(shard, start, time, busy_ms);
        }
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 100.0);
        assert!(snap.p50 >= 1.0 && snap.p50 <= 100.0);
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99);
        assert!(snap.p99 <= snap.max);
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99, 0.0);
        let mut h = Histogram::default();
        h.record(0.0);
        assert_eq!(h.snapshot().p50, 0.0);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut combined = Histogram::default();
        for i in 0..50 {
            let v = (i * 7 % 23) as f64 * 0.125;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn registry_merges_shards_in_ascending_order() {
        let mut r = MetricsRegistry::new(2, false, 0.0);
        cmd(&mut r, "add.int32", 0.0, 2.0, &[(0, 1.5), (1, 0.5)]);
        cmd(&mut r, "mul.int32", 2.0, 1.0, &[(1, 1.0)]);
        let snap = r.snapshot(3.0);
        let count = |i: &InstrumentsSnapshot, name: &str| i.histograms[name].count;
        assert_eq!(count(&snap.aggregate, "op_latency_ms"), 2); // true command count
        assert_eq!(count(&snap.aggregate, "busy_ms"), 3); // shard occurrences
        assert_eq!(count(&snap.per_shard[0], "busy_ms"), 1);
        assert_eq!(count(&snap.per_shard[1], "busy_ms"), 2);
        let mut merged = Histogram::default();
        merged.merge_from(&r.busy_ms[0]);
        merged.merge_from(&r.busy_ms[1]);
        assert_eq!(snap.aggregate.histograms["busy_ms"], merged.snapshot());
        let busy = &snap.aggregate.histograms["busy_ms"];
        assert_eq!(busy.count, 3);
        assert!((busy.sum - 3.0).abs() < 1e-12);
        assert!((snap.clock_ms - 3.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_json_is_parseable_and_stable() {
        let mut r = MetricsRegistry::new(1, true, 0.0);
        cmd(&mut r, "add.int32", 0.0, 1.0, &[(0, 1.0)]);
        r.record_copy(4096, 0.5);
        r.record_interconnect(1.5, 1024);
        let s1 = r.snapshot(1.75);
        let s2 = r.snapshot(1.75);
        assert_eq!(s1, s2);
        let render = |s: &MetricsSnapshot| {
            let mut w = JsonWriter::new(1);
            s.json_fields(&mut w);
            w.finish()
        };
        assert_eq!(render(&s1), render(&s2));
        let doc = Json::parse(&render(&s1)).expect("metrics JSON parses");
        assert_eq!(
            doc.get("schema_version").unwrap().as_f64().unwrap() as u32,
            METRICS_SCHEMA_VERSION
        );
        let agg = doc.get("aggregate").unwrap();
        assert!(agg.get("counters").is_none() && agg.get("gauges").is_none());
        let hists = agg.get("histograms").unwrap();
        for name in [
            "busy_ms",
            "copy_bytes",
            "copy_latency_ms",
            "interconnect_bytes_hist",
            "op_latency_ms",
            "op_latency_ms.add.int32",
        ] {
            assert!(hists.get(name).unwrap().get("p99").is_some(), "{name}");
        }
        let profile = doc.get("profile").unwrap();
        assert_eq!(
            profile.get("bins").unwrap().as_f64().unwrap() as usize,
            DEFAULT_PROFILE_BINS
        );
    }

    #[test]
    fn profile_bins_conserve_busy_time() {
        let mut r = MetricsRegistry::new(2, true, 0.0);
        // Two commands, each 4 ms long, split unevenly across 2 shards.
        cmd(&mut r, "add.int32", 0.0, 4.0, &[(0, 3.0), (1, 1.0)]);
        cmd(&mut r, "mul.int32", 4.0, 4.0, &[(0, 2.0), (1, 2.0)]);
        let p = r.snapshot(8.0).profile.unwrap();
        assert_eq!(p.bins, DEFAULT_PROFILE_BINS);
        let busy0: f64 = p.shard_busy[0].iter().sum::<f64>() * p.bin_ms;
        let busy1: f64 = p.shard_busy[1].iter().sum::<f64>() * p.bin_ms;
        assert!((busy0 - 5.0).abs() < 1e-9, "shard0 busy {busy0}");
        assert!((busy1 - 3.0).abs() < 1e-9, "shard1 busy {busy1}");
        for bins in &p.shard_busy {
            for &b in bins {
                assert!(b <= 1.0 + 1e-9, "busy fraction {b} > 1");
            }
        }
    }

    #[test]
    fn interconnect_samples_land_in_bins() {
        let mut r = MetricsRegistry::new(2, true, 0.0);
        cmd(&mut r, "add.int32", 0.0, 2.0, &[(0, 1.0), (1, 1.0)]);
        r.record_interconnect(2.0, 512);
        let p = r.snapshot(2.0).profile.unwrap();
        let total: u64 = p.interconnect_bytes.iter().sum();
        assert_eq!(total, 512);
    }
}
