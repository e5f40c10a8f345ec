//! Sharded-vs-unsharded equivalence suite.
//!
//! [`pimeval::PimSystem`] splits every object into N per-rank spans, but
//! sharding only adds an interconnect view, never a semantics or cost
//! change: for every target and dtype the sharded run must produce
//! bit-identical buffers and reduction values to the single-shard run,
//! the aggregate modeled kernel time must be identical (and under both
//! timing backends, so must the whole stats document but for the
//! interconnect ledger and the shard count), the per-shard busy shares
//! the metrics registry records must sum back to the aggregate kernel
//! time, and all cross-shard traffic must be charged to the separate
//! [`pimeval::InterconnectStats`] ledger without ever entering
//! `total_time_ms`. The shard counts exercised default to `{2, 4, 7}`
//! (at 7 the contiguous spans are unequal and some are empty) and can be
//! overridden with the `PIM_TEST_RANKS` env var (comma list).

use pimeval::trace::json::{stats_to_json, Json};
use pimeval::{DataType, Device, DeviceConfig, PimScalar, PimTarget, TimingBackend};

const TARGETS: [PimTarget; 5] = [
    PimTarget::BitSerial,
    PimTarget::Fulcrum,
    PimTarget::BankLevel,
    PimTarget::AnalogBitSerial,
    PimTarget::UpmemLike,
];

/// Shard counts under test: `PIM_TEST_RANKS=1,4` style override, else `{2,4,7}`.
fn shard_counts() -> Vec<usize> {
    match std::env::var("PIM_TEST_RANKS") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .filter(|&n| n >= 1)
            .collect(),
        Err(_) => vec![2, 4, 7],
    }
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

/// Everything one run of the reference program observes: final buffers,
/// reduction values, and the aggregate modeled clocks.
#[derive(Debug, PartialEq)]
struct RunResult<T> {
    out: Vec<T>,
    acc: Vec<T>,
    sum: i128,
    min: i64,
    max: i64,
    part: i128,
}

/// Runs the mixed-op reference program (elementwise, comparison/select,
/// broadcast, copy, and all three reductions plus a ranged sum) on a
/// fresh device built from `config`.
fn run_program<T: PimScalar>(config: DeviceConfig, xs: &[T], ys: &[T]) -> (RunResult<T>, Device) {
    run_on(Device::new(config).unwrap(), xs, ys)
}

fn run_on<T: PimScalar>(mut dev: Device, xs: &[T], ys: &[T]) -> (RunResult<T>, Device) {
    let n = xs.len() as u64;
    let x = dev.alloc_vec(xs).unwrap();
    let y = dev.alloc_vec(ys).unwrap();
    let t = dev.alloc_associated(x, T::DTYPE).unwrap();
    let mask = dev.alloc_associated(x, T::DTYPE).unwrap();
    let out = dev.alloc_associated(x, T::DTYPE).unwrap();
    let acc = dev.alloc_associated(x, T::DTYPE).unwrap();

    dev.mul_scalar(x, 7, t).unwrap();
    dev.add(t, y, t).unwrap();
    dev.lt(x, t, mask).unwrap();
    dev.select(mask, x, t, out).unwrap();
    dev.broadcast(acc, 5).unwrap();
    dev.xor(out, acc, acc).unwrap();
    dev.copy_object(acc, t).unwrap();
    dev.sub(t, y, acc).unwrap();

    let sum = dev.red_sum(acc).unwrap();
    let min = dev.red_min(out).unwrap();
    let max = dev.red_max(out).unwrap();
    let part = dev.red_sum_range(acc, n / 3, 2 * n / 3).unwrap();

    let result = RunResult {
        out: dev.to_vec(out).unwrap(),
        acc: dev.to_vec(acc).unwrap(),
        sum,
        min,
        max,
        part,
    };
    (result, dev)
}

/// Relative floating-point agreement for summed shares.
fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1e-12)
}

/// One target × dtype × shard-count check over `n` elements:
/// bit-identical observations, identical aggregate clocks, per-shard
/// busy shares that sum to kernel time, separate interconnect accounting.
fn check_shard_equivalence<T: PimScalar + PartialEq + std::fmt::Debug>(
    target: PimTarget,
    shards: usize,
    n: usize,
    seed: u64,
) {
    let (xs, ys) = data::<T>(n, seed);
    let ctx = format!("{target:?} {:?} shards={shards} n={n}", T::DTYPE);

    let (base, base_dev) = run_program(DeviceConfig::new(target, 1), &xs, &ys);
    let mut sharded_dev = Device::new(DeviceConfig::new(target, 1).with_shards(shards)).unwrap();
    sharded_dev.enable_metrics(false);
    let (sharded, dev) = run_on(sharded_dev, &xs, &ys);

    // Bit-identical functional contract.
    assert_eq!(sharded, base, "{ctx}");

    // The aggregate modeled cost is shard-count invariant: compute is
    // charged once from the global layout, and interconnect lives in its
    // own ledger.
    let base_ms = base_dev.stats().kernel_time_ms();
    let ms = dev.stats().kernel_time_ms();
    assert!(
        close(ms, base_ms, 1e-12),
        "{ctx}: kernel {ms} ms != unsharded {base_ms} ms"
    );
    assert!(
        close(
            base_dev.stats().total_time_ms(),
            dev.stats().total_time_ms(),
            1e-12
        ),
        "{ctx}: total time drifted with shard count"
    );

    // The per-shard busy shares are a partition of the aggregate kernel
    // time.
    let sharded_count = dev.system().shard_count();
    assert_eq!(sharded_count, shards, "{ctx}");
    let snapshot = dev.metrics_snapshot().expect("metrics enabled");
    assert_eq!(snapshot.per_shard.len(), shards, "{ctx}");
    let shard_ms: f64 = snapshot
        .per_shard
        .iter()
        .map(|s| s.histograms.get("busy_ms").map_or(0.0, |h| h.sum))
        .sum();
    assert!(
        close(shard_ms, ms, 1e-9),
        "{ctx}: per-shard busy sum {shard_ms} != aggregate {ms}"
    );

    // Cross-shard traffic: single-shard devices never touch the
    // interconnect; multi-shard devices charge the host scatter/gather
    // plus the reduction combine there — and only there.
    assert!(base_dev.stats().interconnect.is_empty(), "{ctx}");
    let ic = &dev.stats().interconnect;
    if sharded_count > 1 {
        assert!(
            ic.transfers > 0,
            "{ctx}: no interconnect transfers recorded"
        );
        assert!(ic.scatter_bytes > 0 && ic.gather_bytes > 0, "{ctx}");
        assert!(ic.combine_bytes > 0, "{ctx}: reduction combine not charged");
        assert!(ic.time_ms > 0.0 && ic.energy_mj > 0.0, "{ctx}");
    }
}

/// Odd, multi-word, leaves a partial trailing unit.
const N: usize = 257;

#[test]
fn sharded_runs_match_unsharded_on_every_target_and_dtype() {
    for shards in shard_counts() {
        for (i, target) in TARGETS.into_iter().enumerate() {
            let seed = 0x5AAD + i as u64;
            check_shard_equivalence::<i8>(target, shards, N, seed);
            check_shard_equivalence::<i32>(target, shards, N, seed);
            check_shard_equivalence::<i64>(target, shards, N, seed);
            check_shard_equivalence::<u16>(target, shards, N, seed);
        }
    }
}

/// The stats keys a shard count may change, as paths into the stats
/// document: the interconnect ledger (one shard never charges it) and
/// the shard count itself.
const SHARD_DEPENDENT_KEYS: [&[&str]; 2] = [&["interconnect"], &["resources", "shards"]];

/// A run's whole stats document without [`SHARD_DEPENDENT_KEYS`].
fn shard_invariant_stats(dev: &Device) -> Json {
    let mut doc = Json::parse(&stats_to_json(dev.stats(), dev.config())).unwrap();
    for path in SHARD_DEPENDENT_KEYS {
        let (last, parents) = path.split_last().unwrap();
        let mut node = &mut doc;
        for key in parents {
            let Json::Obj(fields) = node else {
                panic!("{key}'s parent is not an object")
            };
            node = fields.get_mut(*key).expect("stats document key");
        }
        let Json::Obj(fields) = node else {
            panic!("{last}'s parent is not an object")
        };
        fields.remove(*last).expect("stats document key");
    }
    doc
}

#[test]
fn shard_equivalence_holds_under_both_timing_backends() {
    // One timing model prices every command and copy once, whatever the
    // shard count, so the whole stats document, DRAM protocol counters
    // included, matches the single-shard run's under both backends, but
    // for the keys named in SHARD_DEPENDENT_KEYS.
    for backend in [TimingBackend::Analytical, TimingBackend::BankFsm] {
        for target in [PimTarget::Fulcrum, PimTarget::BitSerial] {
            let (xs, ys) = data::<i32>(N, 0xBAC0);
            let base_cfg = DeviceConfig::new(target, 1).with_timing_backend(backend);
            let (base, base_dev) = run_program(base_cfg.clone(), &xs, &ys);
            let want = shard_invariant_stats(&base_dev);
            if base_dev.timing_backend() == TimingBackend::BankFsm {
                assert!(
                    !base_dev.stats().dram_protocol.is_empty(),
                    "{target:?}: FSM recorded no protocol traffic"
                );
            }
            for shards in shard_counts() {
                let ctx = format!("{target:?} {backend} shards={shards}");
                let (sharded, dev) = run_program(base_cfg.clone().with_shards(shards), &xs, &ys);
                assert_eq!(sharded, base, "{ctx}");
                assert_eq!(shard_invariant_stats(&dev), want, "{ctx}");
            }
        }
    }
}

#[test]
fn shard_equivalence_holds_at_every_pool_thread_count() {
    // Commands touching fewer than `2 * MIN_CHUNK` elements run on the
    // calling thread; larger ones ride the pool, where which worker
    // claims a chunk must never leak into results. The
    // sizes straddle that gate so both paths meet the unsharded device.
    // One representative target/dtype keeps this fast.
    let floor = 2 * pimeval::exec::MIN_CHUNK;
    for n in [floor - 1, floor, floor + N] {
        for threads in [1usize, 2, 4, 7] {
            pimeval::exec::with_thread_count(threads, || {
                let seed = 0x7EAD + threads as u64;
                check_shard_equivalence::<i32>(PimTarget::Fulcrum, 4, n, seed);
            });
        }
    }
}

#[test]
fn stream_fusion_composes_with_sharding() {
    // Peephole passes run before the shard split, so a fused stream on a
    // sharded device must match the eager unsharded run bit-for-bit and
    // report the same fusion counters as the single-shard stream.
    let (xs, ys) = data::<i32>(300, 0xF05E);
    let mut eager = Device::new(DeviceConfig::new(PimTarget::Fulcrum, 1)).unwrap();
    let x = eager.alloc_vec(&xs).unwrap();
    let y = eager.alloc_vec(&ys).unwrap();
    let t = eager.alloc_associated(x, DataType::Int32).unwrap();
    eager.mul_scalar(x, 3, t).unwrap();
    eager.add(t, y, y).unwrap();
    let want: Vec<i32> = eager.to_vec(y).unwrap();

    let cfg = DeviceConfig::new(PimTarget::Fulcrum, 1).with_shards(4);
    let mut dev = Device::new(cfg).unwrap();
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    let mut stream = dev.stream();
    stream.mul_scalar(x, 3, t).add(t, y, y);
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!(summary.fused_scaled_add, 1);
    assert_eq!(dev.to_vec::<i32>(y).unwrap(), want);
}

#[test]
fn unfused_stream_runs_survive_the_shard_split() {
    // A same-shape command chain with no fusion opportunity runs command
    // by command; the sharded stream must agree with the eager
    // unsharded chain.
    let (xs, ys) = data::<i32>(1000, 0xBA7C4);
    let mut eager = Device::new(DeviceConfig::new(PimTarget::BankLevel, 1)).unwrap();
    let x = eager.alloc_vec(&xs).unwrap();
    let y = eager.alloc_vec(&ys).unwrap();
    let t = eager.alloc_associated(x, DataType::Int32).unwrap();
    let u = eager.alloc_associated(x, DataType::Int32).unwrap();
    eager.add(x, y, t).unwrap();
    eager.xor(t, x, u).unwrap();
    eager.sub(u, y, t).unwrap();
    eager.max(t, x, u).unwrap();
    let want_t: Vec<i32> = eager.to_vec(t).unwrap();
    let want_u: Vec<i32> = eager.to_vec(u).unwrap();

    let cfg = DeviceConfig::new(PimTarget::BankLevel, 1).with_shards(3);
    let mut dev = Device::new(cfg).unwrap();
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let t = dev.alloc_associated(x, DataType::Int32).unwrap();
    let u = dev.alloc_associated(x, DataType::Int32).unwrap();
    let mut stream = dev.stream();
    stream.add(x, y, t).xor(t, x, u).sub(u, y, t).max(t, x, u);
    let summary = stream.flush().unwrap();
    drop(stream);
    assert_eq!((summary.recorded, summary.executed), (4, 4));
    assert_eq!(dev.to_vec::<i32>(t).unwrap(), want_t);
    assert_eq!(dev.to_vec::<i32>(u).unwrap(), want_u);
}

#[test]
fn misaligned_select_condition_is_realigned_across_shards() {
    // An `Int8` condition packs four times as many elements per row as
    // the `Int32` operands on a horizontal target, so at this count its
    // shard map differs from theirs at every shard count under test.
    // The select must realign the condition by the destination's map,
    // eager and streamed alike, and charge exactly its bytes to the
    // interconnect ledger. The second count is above the pool's floor,
    // so the select fans out over element chunks at 2 threads; writing
    // into `x` also makes the write aliased.
    for n in [3000usize, 2 * pimeval::exec::MIN_CHUNK + 257] {
        pimeval::exec::with_thread_count(2, || check_misaligned_select(n));
    }
}

fn check_misaligned_select(n: usize) {
    let (xs, ys) = data::<i32>(n, 0x5E1EC7);
    let mut rng = Rng(0xC0DE);
    let cond: Vec<i8> = (0..n).map(|_| (rng.next_u64() & 1) as i8).collect();
    let want: Vec<i32> = cond
        .iter()
        .zip(xs.iter().zip(ys.iter()))
        .map(|(&c, (&a, &b))| if c != 0 { a } else { b })
        .collect();

    // The horizontal targets: their elements per row depend on the dtype.
    for target in [
        PimTarget::Fulcrum,
        PimTarget::BankLevel,
        PimTarget::UpmemLike,
    ] {
        for shards in [2usize, 4, 7] {
            for streamed in [false, true] {
                for into_x in [false, true] {
                    let ctx = format!(
                        "{target:?} n={n} shards={shards} streamed={streamed} into_x={into_x}"
                    );
                    let cfg = DeviceConfig::new(target, 1).with_shards(shards);
                    let mut dev = Device::new(cfg).unwrap();
                    assert_eq!(dev.system().shard_count(), shards, "{ctx}");
                    let x = dev.alloc_vec(&xs).unwrap();
                    let y = dev.alloc_vec(&ys).unwrap();
                    let c = dev.alloc_vec(&cond).unwrap();
                    let out = if into_x {
                        x
                    } else {
                        dev.alloc_associated(x, DataType::Int32).unwrap()
                    };
                    assert_ne!(
                        dev.system().shard_map(c),
                        dev.system().shard_map(out),
                        "{ctx}: the condition must be misaligned"
                    );
                    if streamed {
                        let mut stream = dev.stream();
                        stream.select(c, x, y, out);
                        stream.flush().unwrap();
                    } else {
                        dev.select(c, x, y, out).unwrap();
                    }
                    assert_eq!(dev.to_vec::<i32>(out).unwrap(), want, "{ctx}");
                    assert_eq!(
                        dev.stats().interconnect.realign_bytes,
                        n as u64,
                        "{ctx}: realign traffic must be the condition's bytes"
                    );
                }
            }
        }
    }
}

#[test]
fn dtype_chained_associations_share_the_shard_map() {
    // `y` is associated with an `Int8` object placed over fewer cores
    // than `x`, yet a map depends only on count and dtype: `y` lands
    // exactly where `x` does, and a copy between them moves nothing
    // across shards.
    let n = 3000usize;
    let (xs, _) = data::<i32>(n, 0xC4A1);
    for target in TARGETS {
        for shards in [2usize, 4, 7] {
            let ctx = format!("{target:?} shards={shards}");
            let cfg = DeviceConfig::new(target, 1).with_shards(shards);
            let mut dev = Device::new(cfg).unwrap();
            let x = dev.alloc_vec(&xs).unwrap();
            let c = dev.alloc_associated(x, DataType::Int8).unwrap();
            let y = dev.alloc_associated(c, DataType::Int32).unwrap();
            assert_eq!(
                dev.system().shard_map(y),
                dev.system().shard_map(x),
                "{ctx}"
            );
            let before = dev.stats().interconnect.realign_bytes;
            dev.copy_object(x, y).unwrap();
            assert_eq!(dev.stats().interconnect.realign_bytes, before, "{ctx}");
            assert_eq!(dev.to_vec::<i32>(y).unwrap(), xs, "{ctx}");
        }
    }
}

#[test]
fn model_only_mode_runs_sharded_with_identical_cost() {
    // ModelOnly devices carry no functional state; the sharded cost
    // model must still agree with the unsharded one.
    let run = |shards: usize| {
        let cfg = DeviceConfig::new(PimTarget::BitSerial, 1)
            .model_only()
            .with_shards(shards);
        let mut dev = Device::new(cfg).unwrap();
        let x = dev.alloc(4096, DataType::Int32).unwrap();
        let y = dev.alloc_associated(x, DataType::Int32).unwrap();
        dev.add(x, y, y).unwrap();
        dev.mul(x, y, y).unwrap();
        let _ = dev.red_sum(y).unwrap();
        (dev.stats().kernel_time_ms(), dev.stats().total_ops())
    };
    let (base_ms, base_ops) = run(1);
    let (ms, ops) = run(4);
    assert_eq!(ops, base_ops);
    assert!(close(ms, base_ms, 1e-12), "model-only {ms} != {base_ms}");
}

#[test]
fn per_rank_sharding_tracks_rank_count_in_resource_stats() {
    let cfg = DeviceConfig::new(PimTarget::Fulcrum, 4).sharded_per_rank();
    let mut dev = Device::new(cfg).unwrap();
    let shards = dev.system().shard_count() as u64;
    assert!((1..=4).contains(&shards));
    let x = dev.alloc_vec(&[1i64, 2, 3, 4, 5, 6, 7, 8]).unwrap();
    let r = &dev.stats().resources;
    assert_eq!(r.shards, shards);
    assert_eq!(dev.to_vec::<i64>(x).unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    // The Listing-3 report carries the interconnect + shard section.
    assert!(dev.report().contains("Resource"));
}
