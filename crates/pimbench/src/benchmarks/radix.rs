//! Radix sort (Table I; from follow-on work to InSituBench).
//!
//! Digit-by-digit counting sort: the counting phase (digit extraction +
//! per-bucket equality and reduction) runs on PIM; the data-reshuffling
//! scatter phase is not supported by these PIM architectures and runs on
//! the host (§VIII), making the benchmark host-latency bound.

use pim_baseline::WorkloadProfile;
use pimeval::{DataType, Device};

use crate::common::{
    charge_host, finish, BenchError, BenchSpec, Benchmark, Domain, ExecType, Params, RunOutcome,
    SplitMix64,
};

/// LSD radix sort of non-negative 32-bit integers, 8-bit digits.
#[derive(Debug, Default, Clone, Copy)]
pub struct RadixSort;

impl RadixSort {
    const BASE_N: u64 = 1 << 15;
    const DIGIT_BITS: u32 = 8;
    const BUCKETS: usize = 1 << Self::DIGIT_BITS as usize;
    const PASSES: u32 = 32 / Self::DIGIT_BITS;
}

impl Benchmark for RadixSort {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "Radix Sort",
            domain: Domain::Sort,
            sequential: true,
            random: true,
            exec: ExecType::PimHost,
            paper_input: "67,108,864 32-bit INT",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let n = params.scaled(Self::BASE_N) as usize;
        let mut rng = SplitMix64::new(params.seed);
        let input = rng.i32_vec(n, 0, i32::MAX);
        let mut data = input.clone();

        for pass in 0..Self::PASSES {
            // PIM counting phase: extract the digit, then count each
            // bucket with an equality sweep + reduction.
            let o = dev.alloc_vec(&data)?;
            let digit = dev.alloc_associated(o, DataType::Int32)?;
            let mask = dev.alloc_associated(o, DataType::Int32)?;
            dev.shift_right(o, pass * Self::DIGIT_BITS, digit)?;
            dev.and_scalar(digit, (Self::BUCKETS - 1) as i64, digit)?;
            let mut counts = vec![0usize; Self::BUCKETS];
            for (b, count) in counts.iter_mut().enumerate() {
                dev.eq_scalar(digit, b as i64, mask)?;
                *count = dev.red_sum(mask)? as usize;
            }
            dev.free(mask)?;
            dev.free(digit)?;
            dev.free(o)?;

            // Host scatter phase (stable), charged at random-access
            // efficiency.
            let mut offsets = vec![0usize; Self::BUCKETS];
            let mut acc = 0;
            for (b, offset) in offsets.iter_mut().enumerate() {
                *offset = acc;
                acc += counts[b];
            }
            if acc != n {
                return finish(dev, false, "radix counting phase");
            }
            let mut next = vec![0i32; n];
            for &v in &data {
                let b = ((v >> (pass * Self::DIGIT_BITS)) as usize) & (Self::BUCKETS - 1);
                next[offsets[b]] = v;
                offsets[b] += 1;
            }
            data = next;
            charge_host(
                dev,
                &WorkloadProfile::new(2.0 * n as f64, 12.0 * n as f64).with_efficiency(0.3),
            )?;
        }

        let mut expected = input;
        expected.sort_unstable();
        finish(dev, data == expected, "sorted output")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64 * Self::PASSES as f64;
        WorkloadProfile::new(4.0 * n, 16.0 * n).with_efficiency(0.35)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64 * Self::PASSES as f64;
        // CUB radix sort is close to bandwidth-bound.
        WorkloadProfile::new(4.0 * n, 16.0 * n).with_efficiency(0.85)
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
    fn radix_sorts_on_all_targets() {
        for t in PimTarget::ALL {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 1)).unwrap();
            let out = RadixSort
                .run(
                    &mut dev,
                    &Params {
                        scale: 1.0 / 64.0,
                        seed: 8,
                        ..Params::default()
                    },
                )
                .unwrap();
            assert!(out.verified, "{t}");
            // Counting phase signature: eq + reduction dominate (Fig. 8).
            assert!(out.stats.categories[&pimeval::OpCategory::Eq] > 0);
            assert!(out.stats.categories[&pimeval::OpCategory::Reduction] > 0);
            assert!(out.stats.host_time_ms > 0.0, "host scatter must be charged");
        }
    }
}
