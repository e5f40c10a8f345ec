//! Minimal std-only micro-benchmark timing loop for `bench_parallel`,
//! so no registry dependency is needed. Each measurement warms up,
//! picks a batch size targeting ~10 ms per batch, then reports the mean
//! and best per-iteration time over a ~200 ms sampling window.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sampling budget per measurement.
const SAMPLE_BUDGET: Duration = Duration::from_millis(200);
/// Target wall time per batch.
const BATCH_TARGET: Duration = Duration::from_millis(10);

/// One completed measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Mean time per iteration.
    pub mean: Duration,
    /// Fastest observed per-iteration time (batch minimum).
    pub min: Duration,
    /// Total iterations executed during sampling.
    pub iters: u64,
}

/// Times `f`, prints one aligned result line, and returns the measurement.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Measurement {
    let m = measure(&mut f);
    println!(
        "{:<44} mean {:>12}  min {:>12}  ({} iters)",
        name,
        fmt(m.mean),
        fmt(m.min),
        m.iters
    );
    m
}

/// Like [`bench()`], but also reports element throughput from the best time.
pub fn bench_throughput<R>(name: &str, elems: u64, mut f: impl FnMut() -> R) -> Measurement {
    let m = measure(&mut f);
    let rate = elems as f64 / m.min.as_secs_f64();
    println!(
        "{:<44} mean {:>12}  min {:>12}  {:>10.1} Melem/s",
        name,
        fmt(m.mean),
        fmt(m.min),
        rate / 1e6
    );
    m
}

/// Prints a section header for a group of related measurements.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

fn measure<R>(f: &mut impl FnMut() -> R) -> Measurement {
    // Warmup and cost estimate for batch sizing.
    let start = Instant::now();
    black_box(f());
    let rough = start.elapsed().max(Duration::from_nanos(1));
    let batch = (BATCH_TARGET.as_nanos() / rough.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut total = Duration::ZERO;
    let mut iters = 0u64;
    let mut best = Duration::MAX;
    while total < SAMPLE_BUDGET {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let elapsed = start.elapsed();
        best = best.min(elapsed / batch as u32);
        total += elapsed;
        iters += batch;
    }
    Measurement {
        mean: total / iters as u32,
        min: best,
        iters,
    }
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_iterations_and_orders_min_mean() {
        let mut x = 0u64;
        let m = measure(&mut || {
            x = x.wrapping_add(1);
            x
        });
        assert!(m.iters > 0);
        assert!(m.min <= m.mean);
    }
}
