//! Tracing and metrics under sharded execution.
//!
//! Sharding splits every object across per-rank shards, but the
//! observability layer must stay coherent: the trace timeline stays
//! monotone on the simulated clock, interconnect markers appear only on
//! multi-shard devices, per-shard metrics cover every shard that did
//! work, and — because every metric derives from *modeled* quantities —
//! snapshots are bit-identical at any worker-thread count, while the
//! kernel-side aggregates are invariant across shard counts. Shard
//! counts exercised default to `{1, 4}` and can be overridden with the
//! `PIM_TEST_RANKS` env var (comma list).

use pimeval::exec;
use pimeval::trace::json::JsonWriter;
use pimeval::{
    DataType, Device, DeviceConfig, InstrumentsSnapshot, MetricsSnapshot, PimTarget, TraceEvent,
};

/// Shard counts under test: `PIM_TEST_RANKS=1,4` style override, else `{1, 4}`.
fn shard_counts() -> Vec<usize> {
    match std::env::var("PIM_TEST_RANKS") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .filter(|&n| n >= 1)
            .collect(),
        Err(_) => vec![1, 4],
    }
}

/// Runs a mixed-op program (elementwise, select, copies, reduction) on a
/// fresh traced + metered device and returns it for inspection.
fn run_traced(shards: usize, profile: bool) -> Device {
    let cfg = DeviceConfig::new(PimTarget::Fulcrum, 1).with_shards(shards);
    let mut dev = Device::new(cfg).unwrap();
    dev.enable_tracing();
    dev.enable_metrics(profile);
    let xs: Vec<i32> = (0..600).map(|i| i * 3 - 900).collect();
    let ys: Vec<i32> = (0..600).map(|i| 7 - i).collect();
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    let m = dev.alloc_associated(x, DataType::Int32).unwrap();
    dev.mul_scalar(x, 5, t).unwrap();
    dev.add(t, y, t).unwrap();
    dev.lt(x, t, m).unwrap();
    dev.select(m, x, t, t).unwrap();
    dev.copy_object(t, m).unwrap();
    let _ = dev.red_sum(m).unwrap();
    let _ = dev.to_vec::<i32>(t).unwrap();
    dev
}

fn snapshot(dev: &Device) -> MetricsSnapshot {
    dev.metrics_snapshot().expect("metrics were enabled")
}

/// Commands a shard's `busy_ms` histogram recorded (0 if it never
/// worked).
fn busy_count(shard: &InstrumentsSnapshot) -> u64 {
    shard.histograms.get("busy_ms").map_or(0, |h| h.count)
}

#[test]
fn trace_clock_is_monotone_under_sharding() {
    for shards in shard_counts() {
        let mut dev = run_traced(shards, false);
        let events = dev.take_trace();
        assert!(!events.is_empty(), "shards={shards}: empty trace");
        let stamps: Vec<f64> = events.iter().map(TraceEvent::timestamp_ms).collect();
        for w in stamps.windows(2) {
            assert!(
                w[0] <= w[1],
                "shards={shards}: simulated clock went backwards ({} > {})",
                w[0],
                w[1]
            );
        }
        assert!(
            events.iter().any(|e| matches!(e, TraceEvent::Cmd { .. })),
            "shards={shards}: no command spans"
        );
    }
}

#[test]
fn interconnect_events_only_on_multi_shard_devices() {
    for shards in shard_counts() {
        let mut dev = run_traced(shards, false);
        let events = dev.take_trace();
        let interconnect: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Interconnect {
                    shards: s, bytes, ..
                } => Some((*s, *bytes)),
                _ => None,
            })
            .collect();
        if shards == 1 {
            assert!(
                interconnect.is_empty(),
                "single-shard device emitted interconnect events"
            );
        } else {
            assert!(
                !interconnect.is_empty(),
                "shards={shards}: no interconnect events"
            );
            for (s, bytes) in interconnect {
                assert_eq!(s, shards, "marker carries the device shard count");
                assert!(bytes > 0, "empty interconnect transfer traced");
            }
        }
    }
}

#[test]
fn per_shard_metrics_cover_every_shard_that_worked() {
    let dev = run_traced(4, true);
    let snap = snapshot(&dev);
    assert_eq!(snap.per_shard.len(), 4);
    let active = snap.per_shard.iter().filter(|s| busy_count(s) > 0).count();
    assert!(
        active >= 2,
        "a 600-element object split over 4 shards must occupy several \
         shards, got {active} active"
    );
    // Each command is counted once per shard it ran on, so the shard
    // occurrences are at least the device-level command count (every
    // command reached at least one shard) and their merged total is the
    // aggregate `busy_ms` count.
    let shard_cmds: u64 = snap.per_shard.iter().map(busy_count).sum();
    assert_eq!(snap.aggregate.histograms["busy_ms"].count, shard_cmds);
    assert!(
        shard_cmds >= snap.aggregate.histograms["op_latency_ms"].count,
        "commands lost in shard accounting"
    );
    // The profile series covers all shards over the full window.
    let profile = snap.profile.expect("profiling was enabled");
    assert_eq!(profile.shard_busy.len(), 4);
    assert!(profile.bins > 0);
    assert!(
        profile
            .shard_busy
            .iter()
            .any(|series| series.iter().any(|&b| b > 0.0)),
        "profiler recorded no busy time"
    );
}

#[test]
fn metrics_snapshots_are_bit_identical_across_thread_counts() {
    let run = |threads: usize| {
        exec::with_thread_count(threads, || {
            let dev = run_traced(4, true);
            let snap = snapshot(&dev);
            let mut w = JsonWriter::new(1);
            snap.json_fields(&mut w);
            (snap, w.finish())
        })
    };
    let (snap1, json1) = run(1);
    let (snap4, json4) = run(4);
    assert_eq!(snap1, snap4, "snapshot drifted with worker threads");
    assert_eq!(json1, json4, "rendered JSON drifted with worker threads");
}

#[test]
fn kernel_aggregates_are_invariant_across_shard_counts() {
    // Compute is charged once from the global layout, so the kernel-side
    // aggregates (command counts, op-latency histograms, copy traffic)
    // must not move with the shard count. Interconnect traffic and the
    // per-shard breakdown legitimately differ and are excluded.
    let mut base: Option<MetricsSnapshot> = None;
    for shards in shard_counts() {
        let dev = run_traced(shards, false);
        let snap = snapshot(&dev);
        let Some(b) = &base else {
            base = Some(snap);
            continue;
        };
        let hist = |s: &MetricsSnapshot, name: &str| s.aggregate.histograms.get(name).cloned();
        assert_eq!(
            hist(b, "op_latency_ms").map(|h| h.count),
            hist(&snap, "op_latency_ms").map(|h| h.count),
            "shards={shards}: command count moved"
        );
        assert_eq!(
            b.aggregate.histograms.get("op_latency_ms"),
            snap.aggregate.histograms.get("op_latency_ms"),
            "shards={shards}: op latency histogram moved"
        );
        assert_eq!(
            hist(b, "copy_bytes").map(|h| h.sum),
            hist(&snap, "copy_bytes").map(|h| h.sum),
            "shards={shards}: copy traffic moved"
        );
        assert!(
            (b.clock_ms - snap.clock_ms).abs() <= 1e-12 * b.clock_ms.abs().max(1.0),
            "shards={shards}: metrics clock moved"
        );
    }
}

#[test]
fn metrics_and_stats_share_the_reset_window() {
    // `reset_stats` opens one window for both ledgers: afterwards the
    // histograms count exactly the commands and copies the statistics
    // do, and the shards' busy time partitions the kernel time.
    for shards in shard_counts() {
        for streamed in [false, true] {
            let ctx = format!("shards={shards} streamed={streamed}");
            let mut dev = run_traced(shards, true);
            dev.reset_stats();
            let xs: Vec<i32> = (0..600).map(|i| 5 - i).collect();
            let x = dev.alloc_vec(&xs).unwrap();
            let t = dev.alloc_associated(x, DataType::Int32).unwrap();
            let m = dev.alloc_associated(x, DataType::Int32).unwrap();
            if streamed {
                let mut s = dev.stream();
                s.mul_scalar(x, 3, t).add(t, x, t).copy_object(t, m);
                s.flush().unwrap();
            } else {
                dev.mul_scalar(x, 3, t).unwrap();
                dev.add(t, x, t).unwrap();
                dev.copy_object(t, m).unwrap();
            }
            let _ = dev.red_sum(m).unwrap();
            let out = dev.to_vec::<i32>(m).unwrap();
            assert_eq!(out[1], 4 * 4, "{ctx}");
            // The upload, the device-to-device copy and the download.
            let copies = 3;

            let snap = snapshot(&dev);
            let stats = dev.stats();
            let hist = |name: &str| snap.aggregate.histograms[name].clone();
            assert_eq!(hist("op_latency_ms").count, stats.total_ops(), "{ctx}");
            assert_eq!(hist("copy_bytes").count, copies, "{ctx}");
            let c = &stats.copy;
            let bytes = c.host_to_device_bytes + c.device_to_host_bytes + c.device_to_device_bytes;
            assert_eq!(hist("copy_bytes").sum, bytes as f64, "{ctx}");
            let busy_ms: f64 = snap
                .per_shard
                .iter()
                .map(|s| s.histograms.get("busy_ms").map_or(0.0, |h| h.sum))
                .sum();
            let kernel_ms = stats.kernel_time_ms();
            assert!(
                (busy_ms - kernel_ms).abs() <= 1e-9 * busy_ms.abs().max(kernel_ms.abs()),
                "{ctx}: per-shard busy sum {busy_ms} != kernel {kernel_ms} ms"
            );
            assert!(snap.profile.is_some(), "{ctx}: reset kept the profile flag");
        }
    }
}

#[test]
fn profile_bins_cover_the_window_after_a_reset() {
    // The profile and the busy share cover the registry's window, which
    // `reset_stats` restarts at the current device clock: a device busy
    // through the whole window reads busy in every bin.
    let cfg = DeviceConfig::new(PimTarget::Fulcrum, 1).with_shards(2);
    let mut dev = Device::new(cfg).unwrap();
    dev.enable_metrics(true);
    let xs: Vec<i32> = (0..1 << 16).map(|i| i % 97 - 48).collect();
    let x = dev.alloc_vec(&xs).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    for _ in 0..20 {
        dev.mul(x, x, t).unwrap();
    }
    dev.reset_stats();
    for _ in 0..20 {
        dev.mul(x, x, t).unwrap();
    }
    let snap = snapshot(&dev);
    let window_ms = snap.clock_ms - snap.window_start_ms;
    assert!(snap.window_start_ms > 0.0 && window_ms > 0.0);
    let profile = snap.profile.as_ref().expect("profiling was enabled");
    assert_eq!(profile.shard_busy.len(), 2);
    for (shard, bins) in profile.shard_busy.iter().enumerate() {
        for (bin, &busy) in bins.iter().enumerate() {
            assert!(busy > 0.0, "shard {shard} bin {bin} reads no busy time");
        }
        let busy_ms = snap.per_shard[shard].histograms["busy_ms"].sum;
        assert!(
            busy_ms / window_ms <= 1.0 + 1e-12,
            "shard {shard} busy share {} > 1",
            busy_ms / window_ms
        );
    }
}
