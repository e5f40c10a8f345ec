//! Filter-By-Key (Table I, Database): scan a column for records matching
//! a predicate. The PIM side produces a match bitmap at high speed; the
//! host must then fetch the bitmap and gather the selected records —
//! the gather dominates (99 % of PIM-side runtime in the paper, Fig. 7).

use pim_baseline::WorkloadProfile;
use pimeval::{DataType, Device};

use crate::common::{
    charge_host, finish, BenchError, BenchSpec, Benchmark, Domain, ExecType, Params, RunOutcome,
    SplitMix64,
};

/// Filter-by-key with ~1 % selectivity, as in the paper.
#[derive(Debug, Default, Clone, Copy)]
pub struct FilterByKey;

impl FilterByKey {
    const BASE_N: u64 = 1 << 20;
    /// Keys are uniform in [0, 10_000); threshold 100 gives ~1 %.
    const KEY_SPACE: i32 = 10_000;
    const THRESHOLD: i64 = 100;
}

impl Benchmark for FilterByKey {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "Filter-By-Key",
            domain: Domain::Database,
            sequential: true,
            random: false,
            exec: ExecType::PimHost,
            paper_input: "1,073,741,824 key-value pairs",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let n = params.scaled(Self::BASE_N) as usize;
        let mut rng = SplitMix64::new(params.seed);
        let keys = rng.i32_vec(n, 0, Self::KEY_SPACE);

        // PIM phase: predicate scan producing the match bitmap.
        let ok_keys = dev.alloc_vec(&keys)?;
        let bitmap = dev.alloc_associated(ok_keys, DataType::Int32)?;
        dev.lt_scalar(ok_keys, Self::THRESHOLD, bitmap)?;
        let bits = dev.to_vec::<i32>(bitmap)?;
        dev.free(bitmap)?;
        dev.free(ok_keys)?;

        // Host phase: iterate the bitmap and gather matching records.
        // Random gathers achieve a small fraction of streaming bandwidth.
        let matches: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == 1).then_some(i))
            .collect();
        let gather_bytes = (n + matches.len() * 8) as f64 * 4.0;
        // The gather is the same random-access loop the CPU baseline
        // runs for its own gather portion (31 % of its runtime, SVIII).
        charge_host(
            dev,
            &WorkloadProfile::new(n as f64, gather_bytes).with_efficiency(0.5),
        )?;

        let expected = keys
            .iter()
            .filter(|&&k| (k as i64) < Self::THRESHOLD)
            .count();
        let ok = matches.len() == expected
            && matches.iter().all(|&i| (keys[i] as i64) < Self::THRESHOLD);
        finish(dev, ok, "filter match set")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        // Scan + branchy gather: the paper reports the gather is 31 % of
        // the CPU runtime.
        WorkloadProfile::new(2.0 * n, 8.0 * n).with_efficiency(0.55)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        // Stream-compaction (CUB select) is bandwidth-efficient.
        WorkloadProfile::new(3.0 * n, 8.0 * n).with_efficiency(0.85)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        1_073_741_824.0 / params.scaled(Self::BASE_N) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimeval::PimTarget;

    #[test]
    fn filter_verifies_and_is_host_bound() {
        for t in PimTarget::ALL {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 4)).unwrap();
            let out = FilterByKey
                .run(
                    &mut dev,
                    &Params {
                        scale: 0.05,
                        seed: 9,
                        ..Params::default()
                    },
                )
                .unwrap();
            assert!(out.verified, "{t}");
            let (_dm, host, _kernel) = out.stats.breakdown();
            assert!(host > 0.0, "{t}: gather phase must be charged to the host");
        }
    }

    #[test]
    fn selectivity_is_about_one_percent() {
        let mut rng = SplitMix64::new(1);
        let keys = rng.i32_vec(100_000, 0, FilterByKey::KEY_SPACE);
        let hits = keys
            .iter()
            .filter(|&&k| (k as i64) < FilterByKey::THRESHOLD)
            .count();
        let frac = hits as f64 / keys.len() as f64;
        assert!(frac > 0.005 && frac < 0.02, "selectivity {frac}");
    }
}
