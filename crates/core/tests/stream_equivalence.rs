//! Stream-vs-eager equivalence suite.
//!
//! The deferred [`pimeval::CommandStream`] may fuse and eliminate
//! commands, but it must never change what the program computes: for
//! every target and dtype, the streamed (fused) run must produce
//! bit-identical buffers to the eager run, and its modeled kernel time
//! must never exceed the eager pair's. Dead-write elimination gets its
//! own positive and negative cases, and the flush must leave fusion
//! counters in [`pimeval::SimStats`] and a `StreamFlush` trace event.

use pimeval::{
    DataType, Device, DeviceConfig, OpKind, PimCommand, PimScalar, PimTarget, TraceEvent,
};

const TARGETS: [PimTarget; 5] = [
    PimTarget::BitSerial,
    PimTarget::Fulcrum,
    PimTarget::BankLevel,
    PimTarget::AnalogBitSerial,
    PimTarget::UpmemLike,
];

fn device(target: PimTarget) -> Device {
    Device::new(DeviceConfig::new(target, 1)).unwrap()
}

/// Deterministic SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// Two deterministic pseudo-random vectors cast to `T`.
fn data<T: PimScalar>(n: usize, seed: u64) -> (Vec<T>, Vec<T>) {
    let mut rng = Rng(seed);
    let mut gen = |_| T::from_device(rng.next_u64() as i64);
    let a: Vec<T> = (0..n).map(&mut gen).collect();
    let b: Vec<T> = (0..n).map(&mut gen).collect();
    (a, b)
}

/// Runs `y = a·x + y` then `out = (x < y) ? x : y` both eagerly and
/// through a stream on fresh devices; checks buffers match bit-for-bit
/// and the fused modeled cost does not exceed the eager one.
fn check_fused_equivalence<T: PimScalar + PartialEq + std::fmt::Debug>(
    target: PimTarget,
    seed: u64,
) {
    const K: i64 = 7;
    let n = 257; // odd, multi-word, exercises partial chunks
    let (xs, ys) = data::<T>(n, seed);

    // Eager reference: explicit temporary for the product and the mask.
    let mut eager = device(target);
    let x = eager.alloc_vec(&xs).unwrap();
    let y = eager.alloc_vec(&ys).unwrap();
    let t = eager.alloc_associated(x, T::DTYPE).unwrap();
    let mask = eager.alloc_associated(x, T::DTYPE).unwrap();
    let out = eager.alloc_associated(x, T::DTYPE).unwrap();
    eager.mul_scalar(x, K, t).unwrap();
    eager.add(t, y, y).unwrap();
    eager.lt(x, y, mask).unwrap();
    eager.select(mask, x, y, out).unwrap();
    let eager_y: Vec<T> = eager.to_vec(y).unwrap();
    let eager_out: Vec<T> = eager.to_vec(out).unwrap();
    let eager_ms = eager.stats().kernel_time_ms();

    // Streamed run: identical program, recorded then flushed.
    let mut dev = device(target);
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let t = dev.alloc_associated(x, T::DTYPE).unwrap();
    let mask = dev.alloc_associated(x, T::DTYPE).unwrap();
    let out = dev.alloc_associated(x, T::DTYPE).unwrap();
    let mut stream = dev.stream();
    stream.mul_scalar(x, K, t).add(t, y, y);
    stream.lt(x, y, mask).select(mask, x, y, out);
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.recorded, 4, "{target:?}");
    assert_eq!(summary.fused_scaled_add, 1, "{target:?}");
    assert_eq!(summary.fused_cmp_select, 1, "{target:?}");
    assert_eq!(summary.executed, 2, "{target:?}");

    let streamed_y: Vec<T> = dev.to_vec(y).unwrap();
    let streamed_out: Vec<T> = dev.to_vec(out).unwrap();
    assert_eq!(streamed_y, eager_y, "{target:?} {:?}", T::DTYPE);
    assert_eq!(streamed_out, eager_out, "{target:?} {:?}", T::DTYPE);

    let fused_ms = dev.stats().kernel_time_ms();
    assert!(
        fused_ms <= eager_ms * (1.0 + 1e-12),
        "{target:?} {:?}: fused {fused_ms} ms > eager {eager_ms} ms",
        T::DTYPE
    );
}

#[test]
fn fused_streams_match_eager_on_every_target_and_dtype() {
    for (i, target) in TARGETS.into_iter().enumerate() {
        let seed = 0xA11CE + i as u64;
        check_fused_equivalence::<i8>(target, seed);
        check_fused_equivalence::<i32>(target, seed);
        check_fused_equivalence::<i64>(target, seed);
        check_fused_equivalence::<u16>(target, seed);
    }
}

#[test]
fn dead_write_elimination_drops_only_overwritten_results() {
    let mut dev = device(PimTarget::Fulcrum);
    let x = dev.alloc_vec(&[1i32, 2, 3, 4]).unwrap();
    let y = dev.alloc_vec(&[10i32, 20, 30, 40]).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    let out = dev.alloc_associated(x, DataType::Int32).unwrap();

    // The first add's result is overwritten without ever being read:
    // it must be eliminated and the final buffers must be unaffected.
    let mut stream = dev.stream();
    stream.add(x, y, t).sub(x, y, t).mul(t, x, out);
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.dead_writes_eliminated, 1);
    assert_eq!(summary.executed, 2);
    assert_eq!(dev.to_vec::<i32>(t).unwrap(), vec![-9, -18, -27, -36]);
    assert_eq!(dev.to_vec::<i32>(out).unwrap(), vec![-9, -36, -81, -144]);

    // Negative case: a read between the two writes keeps the first one.
    let mut stream = dev.stream();
    stream.add(x, y, t).mul(t, x, out).sub(x, y, t);
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.dead_writes_eliminated, 0);
    assert_eq!(summary.executed, 3);
    assert_eq!(dev.to_vec::<i32>(out).unwrap(), vec![11, 44, 99, 176]);
    assert_eq!(dev.to_vec::<i32>(t).unwrap(), vec![-9, -18, -27, -36]);
}

#[test]
fn fusion_counters_accumulate_in_sim_stats() {
    let mut dev = device(PimTarget::BitSerial);
    let x = dev.alloc_vec(&[1i32, 2, 3]).unwrap();
    let y = dev.alloc_vec(&[4i32, 5, 6]).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    for _ in 0..2 {
        let mut stream = dev.stream();
        stream.mul_scalar(x, 3, t).add(t, y, y);
        stream.flush().unwrap();
    }
    let f = &dev.stats().fusion;
    assert_eq!(f.flushes, 2);
    assert_eq!(f.recorded_commands, 4);
    assert_eq!(f.executed_commands, 2);
    assert_eq!(f.fused_scaled_add, 2);
    // The Listing-3 report and the JSON export both carry the section.
    assert!(dev.report().contains("Command Stream Stats"));
    assert!(
        pimeval::trace::json::stats_to_json(dev.stats(), dev.config()).contains("fused_scaled_add")
    );
}

#[test]
fn flush_emits_stream_flush_trace_event() {
    let mut dev = device(PimTarget::Fulcrum);
    dev.enable_tracing();
    let x = dev.alloc_vec(&[1i32, 2, 3]).unwrap();
    let y = dev.alloc_vec(&[4i32, 5, 6]).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    let mut stream = dev.stream();
    stream.mul_scalar(x, 3, t).add(t, y, y);
    stream.flush().unwrap();
    drop(stream);
    let events = dev.take_trace();
    let flush = events
        .iter()
        .find(|e| matches!(e, TraceEvent::StreamFlush { .. }))
        .expect("flush event recorded");
    match flush {
        TraceEvent::StreamFlush {
            recorded,
            executed,
            fused_scaled_add,
            ..
        } => {
            assert_eq!(*recorded, 2);
            assert_eq!(*executed, 1);
            assert_eq!(*fused_scaled_add, 1);
        }
        _ => unreachable!(),
    }
    let chrome = pimeval::trace::chrome::chrome_trace_json(&events);
    assert!(chrome.contains("stream flush"));
}

/// Runs a chain of same-shape element-wise commands with no fusion
/// opportunity over `n` elements, eagerly and through a stream, with
/// the pool pinned to `threads`; asserts every command executes singly
/// and both runs agree on every buffer and the modeled kernel time.
fn check_unfused_run_matches_eager(n: usize, threads: usize) {
    let (xs, ys) = data::<i32>(n, 0xBA7C4);
    let run = |streamed: bool| {
        let mut dev = device(PimTarget::BankLevel);
        let x = dev.alloc_vec(&xs).unwrap();
        let y = dev.alloc_vec(&ys).unwrap();
        let t = dev.alloc_associated(x, DataType::Int32).unwrap();
        let u = dev.alloc_associated(x, DataType::Int32).unwrap();
        pimeval::exec::with_thread_count(threads, || {
            if streamed {
                let mut stream = dev.stream();
                stream.add(x, y, t).xor(t, x, u).sub(u, y, t).max(t, x, u);
                let summary = stream.flush().unwrap();
                assert_eq!((summary.recorded, summary.executed), (4, 4));
            } else {
                dev.add(x, y, t).unwrap();
                dev.xor(t, x, u).unwrap();
                dev.sub(u, y, t).unwrap();
                dev.max(t, x, u).unwrap();
            }
        });
        let bufs: Vec<Vec<i32>> = [t, u].iter().map(|&o| dev.to_vec(o).unwrap()).collect();
        (bufs, dev.stats().kernel_time_ms())
    };
    let (eager, eager_ms) = run(false);
    let (streamed, streamed_ms) = run(true);
    assert_eq!(streamed, eager, "n = {n}, threads = {threads}");
    assert_eq!(streamed_ms, eager_ms, "n = {n}, threads = {threads}");
}

#[test]
fn unfused_stream_runs_match_eager_at_every_pool_thread_count() {
    // Chained intermediates (t and u are each written twice) on both
    // sides of the 2 × MIN_CHUNK fan-out floor.
    let floor = 2 * pimeval::exec::MIN_CHUNK;
    for n in [1000, floor - 1, floor + 257] {
        for threads in [1, 2, 4] {
            check_unfused_run_matches_eager(n, threads);
        }
    }
}

/// Runs the fused-equivalence program through the stream; checks
/// bit-identity with the eager reference and that the modeled cost
/// never exceeds it.
fn check_stream_equivalence<T: PimScalar + PartialEq + std::fmt::Debug>(
    target: PimTarget,
    seed: u64,
) {
    const K: i64 = 7;
    let n = 257;
    let (xs, ys) = data::<T>(n, seed);

    let mut eager = device(target);
    let x = eager.alloc_vec(&xs).unwrap();
    let y = eager.alloc_vec(&ys).unwrap();
    let t = eager.alloc_associated(x, T::DTYPE).unwrap();
    let mask = eager.alloc_associated(x, T::DTYPE).unwrap();
    let out = eager.alloc_associated(x, T::DTYPE).unwrap();
    eager.mul_scalar(x, K, t).unwrap();
    eager.add(t, y, y).unwrap();
    eager.lt(x, y, mask).unwrap();
    eager.select(mask, x, y, out).unwrap();
    let eager_y: Vec<T> = eager.to_vec(y).unwrap();
    let eager_out: Vec<T> = eager.to_vec(out).unwrap();
    let eager_ms = eager.stats().kernel_time_ms();

    let mut dev = device(target);
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let t = dev.alloc_associated(x, T::DTYPE).unwrap();
    let mask = dev.alloc_associated(x, T::DTYPE).unwrap();
    let out = dev.alloc_associated(x, T::DTYPE).unwrap();
    let mut stream = dev.stream();
    stream.mul_scalar(x, K, t).add(t, y, y);
    stream.lt(x, y, mask).select(mask, x, y, out);
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.fused_scaled_add, 1, "{target:?}");
    assert_eq!(summary.fused_cmp_select, 1, "{target:?}");
    assert_eq!(summary.executed, 2, "{target:?}");

    let streamed_y: Vec<T> = dev.to_vec(y).unwrap();
    let streamed_out: Vec<T> = dev.to_vec(out).unwrap();
    assert_eq!(streamed_y, eager_y, "{target:?} {:?}", T::DTYPE);
    assert_eq!(streamed_out, eager_out, "{target:?} {:?}", T::DTYPE);
    let stream_ms = dev.stats().kernel_time_ms();
    assert!(
        stream_ms <= eager_ms * (1.0 + 1e-12),
        "{target:?} {:?}: {stream_ms} ms > eager {eager_ms} ms",
        T::DTYPE
    );
}

#[test]
fn the_stream_pipeline_matches_eager_on_every_target_and_dtype() {
    for (i, target) in TARGETS.into_iter().enumerate() {
        let seed = 0x0127 + i as u64;
        check_stream_equivalence::<i8>(target, seed);
        check_stream_equivalence::<i32>(target, seed);
        check_stream_equivalence::<i64>(target, seed);
        check_stream_equivalence::<u16>(target, seed);
    }
}

#[test]
fn cse_rewrites_repeated_subexpressions_to_copies() {
    // The same subexpression computed twice into different objects: the
    // optimizer must rewrite the recomputes into copies, with
    // bit-identical buffers and strictly less modeled kernel time than
    // eager issue.
    let (xs, ys) = data::<i32>(512, 0xC5E);
    let alloc = |dev: &mut Device| {
        let x = dev.alloc_vec(&xs).unwrap();
        let y = dev.alloc_vec(&ys).unwrap();
        let [d1, a1, d2, a2] = [(); 4].map(|_| dev.alloc_associated(x, DataType::Int32).unwrap());
        (x, y, [d1, a1, d2, a2])
    };

    let mut base = device(PimTarget::Fulcrum);
    let (x, y, objs0) = alloc(&mut base);
    let [d1, a1, d2, a2] = objs0;
    base.sub(x, y, d1).unwrap();
    base.abs(d1, a1).unwrap();
    base.sub(x, y, d2).unwrap();
    base.abs(d2, a2).unwrap();
    let base_bufs: Vec<Vec<i32>> = objs0.iter().map(|&o| base.to_vec(o).unwrap()).collect();
    let base_ms = base.stats().kernel_time_ms();

    let mut dev = device(PimTarget::Fulcrum);
    let (x, y, objs1) = alloc(&mut dev);
    let [d1, a1, d2, a2] = objs1;
    let mut stream = dev.stream();
    stream.sub(x, y, d1).abs(d1, a1);
    stream.sub(x, y, d2).abs(d2, a2);
    let s1 = stream.flush().unwrap();
    drop(stream);
    assert_eq!(s1.cse_hits, 2, "both recomputes become copies");
    assert_eq!(s1.executed, 4);
    let opt_bufs: Vec<Vec<i32>> = objs1.iter().map(|&o| dev.to_vec(o).unwrap()).collect();
    assert_eq!(opt_bufs, base_bufs);
    let opt_ms = dev.stats().kernel_time_ms();
    assert!(
        opt_ms < base_ms,
        "CSE must strictly beat eager issue: {opt_ms} ms vs {base_ms} ms"
    );
    // The optimizer section reaches the report and the stats JSON.
    assert!(dev.report().contains("Dataflow Optimizer Stats"));
    let json = pimeval::trace::json::stats_to_json(dev.stats(), dev.config());
    assert!(json.contains("\"optimizer\""));
    assert!(json.contains("\"cse_hits\": 2"));
    // ... and stays out of both when the optimizer never fired.
    assert!(!base.report().contains("Dataflow Optimizer Stats"));
    let base_json = pimeval::trace::json::stats_to_json(base.stats(), base.config());
    assert!(!base_json.contains("\"optimizer\""));
}

#[test]
fn host_visible_reads_are_cse_barriers() {
    // A recorded reduction makes the stream's effects host-visible:
    // value numbering must not reuse a computation from before the
    // barrier for one after it.
    let (xs, ys) = data::<i32>(256, 0xBA & 0xFFFF);
    let run = |barrier: bool| {
        let mut dev = device(PimTarget::Fulcrum);
        let x = dev.alloc_vec(&xs).unwrap();
        let y = dev.alloc_vec(&ys).unwrap();
        let d1 = dev.alloc_associated(x, DataType::Int32).unwrap();
        let d2 = dev.alloc_associated(x, DataType::Int32).unwrap();
        let mut stream = dev.stream();
        stream.add(x, y, d1);
        if barrier {
            stream.record(PimCommand::reduce(OpKind::RedSum, d1));
        }
        stream.add(x, y, d2);
        let summary = stream.flush().unwrap();
        drop(stream);
        let b1: Vec<i32> = dev.to_vec(d1).unwrap();
        let b2: Vec<i32> = dev.to_vec(d2).unwrap();
        (summary, b1, b2)
    };
    let (with_barrier, b1, b2) = run(true);
    assert_eq!(with_barrier.cse_hits, 0, "barrier blocks CSE");
    assert_eq!(with_barrier.executed, 3);
    let (without, c1, c2) = run(false);
    assert_eq!(without.cse_hits, 1, "no barrier: recompute becomes a copy");
    assert_eq!((b1, b2), (c1, c2), "same values either way");
}

#[test]
fn ten_thousand_command_stream_flushes_linearly() {
    // Regression for the old O(n²) `never_read_later` tail rescan: a
    // 10k-command stream must flush in linear time. The program reuses
    // one temporary across 5 000 mul+add pairs — the temp is re-read
    // every iteration, yet the SSA graph proves each product has
    // exactly one consumer and fuses all of them.
    let n = 64usize;
    let (xs, ys) = data::<i32>(n, 0x10_000);

    // Eager reference.
    let mut eager = device(PimTarget::Fulcrum);
    let x = eager.alloc_vec(&xs).unwrap();
    let t = eager.alloc_associated(x, DataType::Int32).unwrap();
    let out = eager.alloc_vec(&ys).unwrap();
    for i in 0..5_000 {
        let k = (i % 7) + 1;
        eager.mul_scalar(x, k, t).unwrap();
        eager.add(t, out, out).unwrap();
    }
    let eager_out: Vec<i32> = eager.to_vec(out).unwrap();
    let eager_ms = eager.stats().kernel_time_ms();

    let mut dev = device(PimTarget::Fulcrum);
    let x = dev.alloc_vec(&xs).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    let out = dev.alloc_vec(&ys).unwrap();
    let mut stream = dev.stream();
    for i in 0..5_000 {
        let k = (i % 7) + 1;
        stream.mul_scalar(x, k, t).add(t, out, out);
    }
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.recorded, 10_000);
    assert_eq!(
        summary.fused_scaled_add, 5_000,
        "SSA liveness fuses every pair"
    );
    assert_eq!(summary.executed, 5_000);
    assert_eq!(dev.to_vec::<i32>(out).unwrap(), eager_out);
    let stream_ms = dev.stats().kernel_time_ms();
    assert!(
        stream_ms < eager_ms,
        "graph fusion must strictly beat eager issue: {stream_ms} ms vs {eager_ms} ms"
    );
}

#[test]
fn convenience_constructors_honor_thread_count_overrides() {
    // Regression: `Device::bit_serial` & friends must resolve the same
    // thread plumbing as `Device::new` — results identical at every
    // thread count, including the `PIM_THREADS`-style override path.
    let (xs, ys) = data::<i32>(4096, 0x7EAD);
    let run = |mk: fn(usize) -> pimeval::Result<Device>, threads: usize| {
        pimeval::exec::with_thread_count(threads, || {
            let mut dev = mk(1).unwrap();
            let x = dev.alloc_vec(&xs).unwrap();
            let y = dev.alloc_vec(&ys).unwrap();
            let out = dev.alloc_associated(x, DataType::Int32).unwrap();
            dev.mul(x, y, out).unwrap();
            dev.add(out, y, out).unwrap();
            let sum = dev.red_sum(out).unwrap();
            (dev.to_vec::<i32>(out).unwrap(), sum)
        })
    };
    for mk in [
        Device::bit_serial as fn(usize) -> pimeval::Result<Device>,
        Device::fulcrum,
        Device::bank_level,
        Device::analog_bit_serial,
    ] {
        let baseline = run(mk, 1);
        for threads in [2, 3, 8] {
            assert_eq!(run(mk, threads), baseline, "threads={threads}");
        }
    }
}
