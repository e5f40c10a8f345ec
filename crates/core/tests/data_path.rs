//! Data-path oracle: host uploads, downloads and reductions against
//! scalar folds.
//!
//! For all nine dtypes, buffers holding SplitMix64 values, runs of MAX
//! and MIN, and 0, ±1 and each width's MIN and MAX are uploaded at lengths on
//! both sides of the `2 × MIN_CHUNK` fan-out floor, on 1, 2, 4 and 7
//! shards (plus any count in `PIM_TEST_RANKS`), at 1 and 3 pool threads
//! and at the ambient count (`PIM_THREADS`). Each device checks that
//!
//! - upload + `to_vec` round-trips to [`DataType::truncate`]'s values,
//!   both from raw `i64`s the upload has to truncate and from the
//!   dtype's native host type;
//! - `red_sum` and `red_sum_range` equal an `i128` scalar fold;
//! - `red_min` and `red_max` equal a keep-first [`DataType::compare`]
//!   fold.

use std::marker::PhantomData;

use pimeval::exec;
use pimeval::{DataType, Device, DeviceConfig, ObjId, PimScalar, PimTarget};

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

/// A host element of `T`'s dtype carrying any raw `i64`, canonical or
/// not: the upload alone truncates it.
#[derive(Debug, Clone, Copy)]
struct Raw<T>(i64, PhantomData<T>);

impl<T: PimScalar> PimScalar for Raw<T> {
    const DTYPE: DataType = T::DTYPE;

    fn to_device(self) -> i64 {
        self.0
    }

    fn from_device(v: i64) -> Self {
        Raw(v, PhantomData)
    }
}

/// Shard counts under test: {1, 2, 4, 7} and any `PIM_TEST_RANKS` count.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 7];
    if let Ok(s) = std::env::var("PIM_TEST_RANKS") {
        counts.extend(s.split(',').filter_map(|t| t.trim().parse::<usize>().ok()));
    }
    counts.retain(|&n| n >= 1);
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Raw buffers of length `n` for `d`: one of random words, then a run
/// of MAX, a run of MIN and the special values, all in the second half
/// so that the extremes sit past the first shard's range; one of MAX
/// alone (the largest sum, and ties everywhere).
fn buffers(d: DataType, n: usize, seed: u64) -> [Vec<i64>; 2] {
    let top = 1i64 << (d.bits() - 1);
    let (min, max) = if d.is_signed() {
        (d.truncate(top), d.truncate(!top))
    } else {
        (0, d.truncate(-1))
    };
    let specials = [
        0,
        1,
        -1,
        min,
        max,
        min.wrapping_sub(1),
        max.wrapping_add(1),
        i64::MIN,
        i64::MAX,
    ];
    let run = (exec::MIN_CHUNK + 3).min(n / 4);
    let min_run = n - specials.len() - run;
    let max_run = min_run - run;
    let mut rng = Rng(seed ^ (u64::from(d.bits()) << 8) ^ u64::from(d.is_signed()));
    let mixed = (0..n)
        .map(|i| match i {
            _ if i >= n - specials.len() => specials[i + specials.len() - n],
            _ if i >= min_run => min,
            _ if i >= max_run => max,
            _ => rng.next_u64() as i64,
        })
        .collect();
    [mixed, vec![max; n]]
}

/// The exact sum of canonical values.
fn sum(d: DataType, vals: &[i64]) -> i128 {
    vals.iter()
        .map(|&v| {
            if d.is_signed() {
                i128::from(v)
            } else {
                i128::from(v as u64)
            }
        })
        .sum()
}

/// A sequential scan's extreme: keeps the first of tied values.
fn extreme(d: DataType, vals: &[i64], want_min: bool) -> i64 {
    vals.iter()
        .copied()
        .reduce(|x, y| {
            let ord = d.compare(x, y);
            if (want_min && ord.is_le()) || (!want_min && ord.is_ge()) {
                x
            } else {
                y
            }
        })
        .unwrap()
}

fn as_i64<T: PimScalar>(vals: Vec<T>) -> Vec<i64> {
    vals.into_iter().map(T::to_device).collect()
}

/// Checks one raw buffer on one device: round trips, sums over the
/// whole object and over ranges crossing chunk and shard boundaries,
/// and both extremes.
fn check_buffer<T: PimScalar>(dev: &mut Device, raw: &[i64], ctx: &str) {
    let d = T::DTYPE;
    let n = raw.len();
    let canon: Vec<i64> = raw.iter().map(|&v| d.truncate(v)).collect();

    let host: Vec<Raw<T>> = raw.iter().map(|&v| Raw::from_device(v)).collect();
    let id: ObjId = dev.alloc_vec(&host).unwrap();
    assert_eq!(
        as_i64(dev.to_vec::<Raw<T>>(id).unwrap()),
        canon,
        "{ctx}: raw upload"
    );
    let native: Vec<T> = canon.iter().map(|&v| T::from_device(v)).collect();
    let nid = dev.alloc_vec(&native).unwrap();
    assert_eq!(
        as_i64(dev.to_vec::<T>(nid).unwrap()),
        canon,
        "{ctx}: native upload"
    );
    dev.free(nid).unwrap();

    assert_eq!(dev.red_sum(id).unwrap(), sum(d, &canon), "{ctx}: red_sum");
    let c = exec::MIN_CHUNK;
    for (s, e) in [
        (0, n),
        (1, n - 1),
        (c - 1, 2 * c + 1),
        (n / 7, n / 7 + 1),
        (n / 3, n - n / 5),
        (n - 1, n),
    ] {
        let e = e.min(n);
        assert_eq!(
            dev.red_sum_range(id, s as u64, e as u64).unwrap(),
            sum(d, &canon[s..e]),
            "{ctx}: red_sum_range [{s}, {e})"
        );
    }
    assert_eq!(
        dev.red_min(id).unwrap(),
        extreme(d, &canon, true),
        "{ctx}: red_min"
    );
    assert_eq!(
        dev.red_max(id).unwrap(),
        extreme(d, &canon, false),
        "{ctx}: red_max"
    );
    dev.free(id).unwrap();
}

fn check<T: PimScalar>() {
    let d = T::DTYPE;
    let c = exec::MIN_CHUNK;
    for (li, n) in [2 * c - 1, 2 * c + 257, 7 * c + 13].into_iter().enumerate() {
        let bufs = buffers(d, n, 0xDA7A + li as u64);
        for shards in shard_counts() {
            let config = DeviceConfig::new(PimTarget::Fulcrum, 1).with_shards(shards);
            let mut dev = Device::new(config).unwrap();
            for threads in [Some(1), Some(3), None] {
                for (b, raw) in bufs.iter().enumerate() {
                    let ctx = format!("{d} n={n} shards={shards} threads={threads:?} buffer {b}");
                    match threads {
                        Some(t) => {
                            exec::with_thread_count(t, || check_buffer::<T>(&mut dev, raw, &ctx))
                        }
                        None => check_buffer::<T>(&mut dev, raw, &ctx),
                    }
                }
            }
        }
    }
}

#[test]
fn bool_data_path() {
    check::<bool>();
}

#[test]
fn int8_data_path() {
    check::<i8>();
}

#[test]
fn int16_data_path() {
    check::<i16>();
}

#[test]
fn int32_data_path() {
    check::<i32>();
}

#[test]
fn int64_data_path() {
    check::<i64>();
}

#[test]
fn uint8_data_path() {
    check::<u8>();
}

#[test]
fn uint16_data_path() {
    check::<u16>();
}

#[test]
fn uint32_data_path() {
    check::<u32>();
}

#[test]
fn uint64_data_path() {
    check::<u64>();
}
