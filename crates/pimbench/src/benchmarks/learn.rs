//! Supervised-learning benchmarks: K-nearest neighbors and 2-D linear
//! regression.

use pim_baseline::WorkloadProfile;
use pimeval::{DataType, Device};

use crate::common::{
    charge_host, finish, BenchError, BenchSpec, Benchmark, Domain, ExecType, Params, RunOutcome,
    SplitMix64,
};

/// KNN batched inference (Table I): Manhattan distances on PIM, sort +
/// classify on the host (PIM lacks shuffle support, §VIII).
#[derive(Debug, Default, Clone, Copy)]
pub struct Knn;

impl Knn {
    const BASE_REF: u64 = 1 << 14;
    const QUERIES: usize = 16;
    const K: usize = 5;
    const CLASSES: i64 = 4;
}

impl Benchmark for Knn {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "KNN",
            domain: Domain::SupervisedLearning,
            sequential: true,
            random: true,
            exec: ExecType::PimHost,
            paper_input: "6,710,886 2D data points",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let n = params.scaled(Self::BASE_REF) as usize;
        let mut rng = SplitMix64::new(params.seed);
        let xs = rng.i32_vec(n, -10_000, 10_000);
        let ys = rng.i32_vec(n, -10_000, 10_000);
        let labels: Vec<i64> = (0..n)
            .map(|_| rng.below(Self::CLASSES as u64) as i64)
            .collect();
        let queries: Vec<(i32, i32)> = (0..Self::QUERIES)
            .map(|_| {
                let mut r = || (rng.below(20_000) as i64 - 10_000) as i32;
                (r(), r())
            })
            .collect();

        let ox = dev.alloc_vec(&xs)?;
        let oy = dev.alloc_vec(&ys)?;
        let dx = dev.alloc_associated(ox, DataType::Int32)?;
        let dy = dev.alloc_associated(ox, DataType::Int32)?;

        let mut ok = true;
        for &(qx, qy) in &queries {
            // PIM: Manhattan distance |x-qx| + |y-qy|.
            dev.sub_scalar(ox, qx as i64, dx)?;
            dev.abs(dx, dx)?;
            dev.sub_scalar(oy, qy as i64, dy)?;
            dev.abs(dy, dy)?;
            dev.add(dx, dy, dx)?;
            let dist = dev.to_vec::<i32>(dx)?;

            // Host: partial sort for the top-k and majority vote.
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by_key(|&i| (dist[i], i));
            let vote = |ids: &[usize]| -> i64 {
                let mut counts = [0usize; 8];
                for &i in ids {
                    counts[labels[i] as usize] += 1;
                }
                counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, c)| **c)
                    .unwrap()
                    .0 as i64
            };
            let got = vote(&idx[..Self::K]);

            // Reference: full recomputation on the host.
            let mut ridx: Vec<usize> = (0..n).collect();
            ridx.sort_by_key(|&i| ((xs[i] - qx).abs() + (ys[i] - qy).abs(), i));
            ok &= got == vote(&ridx[..Self::K]);
        }
        // Host sorting/classification phase (dominates, Fig. 7).
        let total = (Self::QUERIES * n) as f64;
        charge_host(
            dev,
            &WorkloadProfile::new(total * 8.0, total * 8.0).with_efficiency(0.4),
        )?;

        dev.free(dx)?;
        dev.free(dy)?;
        dev.free(ox)?;
        dev.free(oy)?;
        finish(dev, ok, "knn classification")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_REF) as f64 * Self::QUERIES as f64;
        WorkloadProfile::new(15.0 * n, 12.0 * n).with_efficiency(0.5)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_REF) as f64 * Self::QUERIES as f64;
        WorkloadProfile::new(15.0 * n, 12.0 * n).with_efficiency(0.6)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        6_710_886.0 / params.scaled(Self::BASE_REF) as f64
    }
}

/// 2-D linear regression by least squares (Table I; modeled after
/// Phoenix): PIM computes Σx, Σy, Σxy, Σx²; the host solves the 2×2
/// system.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinearRegression;

impl LinearRegression {
    const BASE_N: u64 = 1 << 20;
}

impl Benchmark for LinearRegression {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "Linear Regression",
            domain: Domain::SupervisedLearning,
            sequential: true,
            random: false,
            exec: ExecType::Pim,
            paper_input: "1,500,000,000 2D points",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let n = params.scaled(Self::BASE_N) as usize;
        let mut rng = SplitMix64::new(params.seed);
        // y ≈ 3x + 17 with noise; keep magnitudes small so x·y and x²
        // stay within i32.
        let xs = rng.i32_vec(n, -1000, 1000);
        let ys: Vec<i32> = xs
            .iter()
            .map(|&x| 3 * x + 17 + rng.i32_vec(1, -50, 50)[0])
            .collect();

        let ox = dev.alloc_vec(&xs)?;
        let oy = dev.alloc_vec(&ys)?;
        let tmp = dev.alloc_associated(ox, DataType::Int32)?;

        let sum_x = dev.red_sum(ox)?;
        let sum_y = dev.red_sum(oy)?;
        dev.mul(ox, oy, tmp)?;
        let sum_xy = dev.red_sum(tmp)?;
        dev.mul(ox, ox, tmp)?;
        let sum_xx = dev.red_sum(tmp)?;

        dev.free(tmp)?;
        dev.free(ox)?;
        dev.free(oy)?;

        // Host: closed-form slope/intercept (negligible, but charged).
        charge_host(dev, &WorkloadProfile::new(10.0, 64.0))?;
        let nn = n as i128;
        let denom = nn * sum_xx - sum_x * sum_x;
        let slope_num = nn * sum_xy - sum_x * sum_y;
        let slope = slope_num as f64 / denom as f64;

        // Reference sums.
        let r_sx: i128 = xs.iter().map(|&v| v as i128).sum();
        let r_sy: i128 = ys.iter().map(|&v| v as i128).sum();
        let r_sxy: i128 = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| (x as i128) * (y as i128))
            .sum();
        let r_sxx: i128 = xs.iter().map(|&x| (x as i128) * (x as i128)).sum();
        let sums_ok = sum_x == r_sx && sum_y == r_sy && sum_xy == r_sxy && sum_xx == r_sxx;
        let slope_ok = (slope - 3.0).abs() < 0.1;
        finish(dev, sums_ok && slope_ok, "regression sums / slope")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        WorkloadProfile::new(6.0 * n, 8.0 * n)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        WorkloadProfile::new(6.0 * n, 8.0 * n)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        1_500_000_000.0 / params.scaled(Self::BASE_N) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimeval::PimTarget;

    #[test]
    fn knn_verifies_on_all_targets() {
        for t in PimTarget::ALL {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 1)).unwrap();
            let out = Knn
                .run(
                    &mut dev,
                    &Params {
                        scale: 1.0 / 16.0,
                        seed: 2,
                        ..Params::default()
                    },
                )
                .unwrap();
            assert!(out.verified, "{t}");
            assert!(out.stats.cmds.contains_key("abs.int32"));
            assert!(out.stats.host_time_ms > 0.0);
        }
    }

    #[test]
    fn linreg_recovers_slope() {
        for t in PimTarget::ALL {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 1)).unwrap();
            let out = LinearRegression
                .run(
                    &mut dev,
                    &Params {
                        scale: 1.0 / 32.0,
                        seed: 4,
                        ..Params::default()
                    },
                )
                .unwrap();
            assert!(out.verified, "{t}");
            // Reduction-heavy mix (Fig. 8).
            assert_eq!(out.stats.categories[&pimeval::OpCategory::Reduction], 4);
            assert_eq!(out.stats.categories[&pimeval::OpCategory::Mul], 2);
        }
    }
}
