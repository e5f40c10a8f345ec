//! K-means clustering (Table I; modeled after Phoenix).
//!
//! The assignment phase's random access pattern is avoided with the
//! paper's bitmask trick (§VIII): per-centroid Manhattan distances are
//! computed on PIM, a running minimum + select keeps the best centroid
//! index, and per-centroid bitmasks (equality on the index vector) gate
//! masked reductions that produce the new centroid sums.

use pim_baseline::WorkloadProfile;
use pimeval::{DataType, Device};

use crate::common::{
    charge_host, finish, BenchError, BenchSpec, Benchmark, Domain, ExecType, Params, RunOutcome,
    SplitMix64,
};

/// K-means with k = 20 (paper's k) and a fixed iteration count.
#[derive(Debug, Default, Clone, Copy)]
pub struct KMeans;

impl KMeans {
    const BASE_N: u64 = 1 << 14;
    const K: usize = 20;
    const ITERS: usize = 4;
}

/// One host-side reference iteration with the same integer semantics as
/// the PIM mapping (strict-< keeps the lower centroid index on ties).
fn reference_assign(xs: &[i32], ys: &[i32], cx: &[i32], cy: &[i32]) -> Vec<usize> {
    xs.iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let mut best = 0usize;
            let mut best_d = i32::MAX;
            for j in 0..cx.len() {
                let d = (x - cx[j]).abs() + (y - cy[j]).abs();
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            best
        })
        .collect()
}

impl Benchmark for KMeans {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "K-means",
            domain: Domain::UnsupervisedLearning,
            sequential: true,
            random: true,
            exec: ExecType::Pim,
            paper_input: "67,108,864 2D data, k = 20",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let n = params.scaled(Self::BASE_N) as usize;
        let mut rng = SplitMix64::new(params.seed);
        let xs = rng.i32_vec(n, -10_000, 10_000);
        let ys = rng.i32_vec(n, -10_000, 10_000);
        let mut cx: Vec<i32> = (0..Self::K).map(|j| xs[j * n / Self::K]).collect();
        let mut cy: Vec<i32> = (0..Self::K).map(|j| ys[j * n / Self::K]).collect();
        let mut rcx = cx.clone();
        let mut rcy = cy.clone();

        let ox = dev.alloc_vec(&xs)?;
        let oy = dev.alloc_vec(&ys)?;
        let dist = dev.alloc_associated(ox, DataType::Int32)?;
        let tmp = dev.alloc_associated(ox, DataType::Int32)?;
        let best_d = dev.alloc_associated(ox, DataType::Int32)?;
        let best_i = dev.alloc_associated(ox, DataType::Int32)?;
        let mask = dev.alloc_associated(ox, DataType::Int32)?;
        let jvec = dev.alloc_associated(ox, DataType::Int32)?;
        let zero = dev.alloc_associated(ox, DataType::Int32)?;
        dev.broadcast(zero, 0)?;

        let mut ok = true;
        for _iter in 0..Self::ITERS {
            // Assignment phase.
            dev.broadcast(best_d, i32::MAX as i64)?;
            dev.broadcast(best_i, 0)?;
            for j in 0..Self::K {
                if params.stream {
                    // Same command sequence, recorded and flushed as one
                    // stream. `mask` is read by both selects, so the
                    // lt+select pair must NOT fuse — the stream's
                    // lifetime analysis keeps the mask materialized.
                    let mut stream = dev.stream();
                    stream.sub_scalar(ox, cx[j] as i64, dist).abs(dist, dist);
                    stream.sub_scalar(oy, cy[j] as i64, tmp).abs(tmp, tmp);
                    stream.add(dist, tmp, dist).lt(dist, best_d, mask);
                    stream.select(mask, dist, best_d, best_d);
                    stream.broadcast(jvec, j as i64);
                    stream.select(mask, jvec, best_i, best_i);
                    stream.flush()?;
                } else {
                    dev.sub_scalar(ox, cx[j] as i64, dist)?;
                    dev.abs(dist, dist)?;
                    dev.sub_scalar(oy, cy[j] as i64, tmp)?;
                    dev.abs(tmp, tmp)?;
                    dev.add(dist, tmp, dist)?;
                    dev.lt(dist, best_d, mask)?;
                    dev.select(mask, dist, best_d, best_d)?;
                    dev.broadcast(jvec, j as i64)?;
                    dev.select(mask, jvec, best_i, best_i)?;
                }
            }
            // Update phase: masked sums per centroid.
            let mut new_cx = vec![0i32; Self::K];
            let mut new_cy = vec![0i32; Self::K];
            for j in 0..Self::K {
                dev.eq_scalar(best_i, j as i64, mask)?;
                let count = dev.red_sum(mask)?;
                dev.select(mask, ox, zero, tmp)?;
                let sx = dev.red_sum(tmp)?;
                dev.select(mask, oy, zero, tmp)?;
                let sy = dev.red_sum(tmp)?;
                if count > 0 {
                    new_cx[j] = (sx / count) as i32;
                    new_cy[j] = (sy / count) as i32;
                } else {
                    new_cx[j] = cx[j];
                    new_cy[j] = cy[j];
                }
            }
            cx = new_cx;
            cy = new_cy;
            // Host: centroid division (tiny, still charged).
            charge_host(dev, &WorkloadProfile::new(Self::K as f64 * 4.0, 256.0))?;

            // Reference iteration.
            let assign = reference_assign(&xs, &ys, &rcx, &rcy);
            let mut sums = vec![(0i64, 0i64, 0i64); Self::K];
            for (i, &a) in assign.iter().enumerate() {
                sums[a].0 += xs[i] as i64;
                sums[a].1 += ys[i] as i64;
                sums[a].2 += 1;
            }
            for j in 0..Self::K {
                if sums[j].2 > 0 {
                    rcx[j] = (sums[j].0 / sums[j].2) as i32;
                    rcy[j] = (sums[j].1 / sums[j].2) as i32;
                }
            }
            ok &= cx == rcx && cy == rcy;
        }

        for o in [ox, oy, dist, tmp, best_d, best_i, mask, jvec, zero] {
            dev.free(o)?;
        }
        finish(dev, ok, "k-means centroids")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let work = params.scaled(Self::BASE_N) as f64 * (Self::K * Self::ITERS) as f64;
        WorkloadProfile::new(6.0 * work, 8.0 * work / Self::K as f64).with_efficiency(0.7)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let work = params.scaled(Self::BASE_N) as f64 * (Self::K * Self::ITERS) as f64;
        WorkloadProfile::new(6.0 * work, 8.0 * work / Self::K as f64).with_efficiency(0.8)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        67_108_864.0 / params.scaled(Self::BASE_N) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimeval::PimTarget;

    #[test]
    fn kmeans_matches_reference_on_all_targets() {
        for t in PimTarget::ALL {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 1)).unwrap();
            let out = KMeans
                .run(
                    &mut dev,
                    &Params {
                        scale: 1.0 / 64.0,
                        seed: 6,
                        ..Params::default()
                    },
                )
                .unwrap();
            assert!(out.verified, "{t}");
            // Simple-op mix: sub/add/eq/min-like ops, no multiplies.
            assert!(!out.stats.categories.contains_key(&pimeval::OpCategory::Mul));
            assert!(out.stats.categories[&pimeval::OpCategory::Reduction] > 0);
        }
    }

    #[test]
    fn kmeans_stream_mode_batches_without_bad_fusion() {
        let mut dev = Device::bit_serial(1).unwrap();
        let out = KMeans
            .run(
                &mut dev,
                &Params {
                    scale: 1.0 / 64.0,
                    seed: 6,
                    stream: true,
                },
            )
            .unwrap();
        assert!(out.verified);
        let f = &out.stats.fusion;
        assert_eq!(f.flushes, (KMeans::ITERS * KMeans::K) as u64);
        // The mask feeds two selects, so lt+select must never fuse.
        assert_eq!(f.fused_cmp_select, 0);
        assert_eq!(f.fused_scaled_add, 0);
        // Nothing fuses, so all nine commands of every flush execute.
        assert_eq!(f.executed_commands, 9 * f.flushes);
    }

    #[test]
    fn reference_assign_breaks_ties_low_index() {
        let assign = reference_assign(&[0], &[0], &[1, -1], &[0, 0]);
        assert_eq!(assign, vec![0], "equal distances pick the lower index");
    }
}
