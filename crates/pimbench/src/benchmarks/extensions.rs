//! Extension kernels beyond Table I.
//!
//! §II and §IX of the paper list the kernels PIMbench "is continuing to
//! extend" toward: prefix sum (scan, from PrIM/InSituBench), transitive
//! closure (from the IRAM suite), and string match (from Phoenix).
//! These three are implemented here against the same portable PIM API
//! and verified like the core suite; they are registered separately via
//! [`crate::extension_benchmarks`] so the Table I figures keep the
//! paper's 18 applications.

use pim_baseline::WorkloadProfile;
use pimeval::{DataType, Device};

use crate::common::{
    charge_host, finish, BenchError, BenchSpec, Benchmark, Domain, ExecType, Params, RunOutcome,
    SplitMix64,
};

/// Inclusive prefix sum (scan) via Hillis–Steele: log₂(n) PIM addition
/// passes over host-rotated copies, a masked select keeping the prefix
/// intact — the "data re-layout between each kernel execution" pattern
/// the paper's intro calls out.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrefixSum;

impl PrefixSum {
    const BASE_N: u64 = 1 << 16;
}

impl Benchmark for PrefixSum {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "Prefix Sum",
            domain: Domain::LinearAlgebra,
            sequential: true,
            random: false,
            exec: ExecType::PimHost,
            paper_input: "extension kernel (PrIM/InSituBench scan)",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let n = params.scaled(Self::BASE_N) as usize;
        let mut rng = SplitMix64::new(params.seed);
        let input = rng.i32_vec(n, -1000, 1000);

        let acc = dev.alloc_vec(&input)?;
        let shifted = dev.alloc_associated(acc, DataType::Int32)?;
        let mask = dev.alloc_associated(acc, DataType::Int32)?;
        let summed = dev.alloc_associated(acc, DataType::Int32)?;

        let mut host_view = input.clone();
        let mut d = 1usize;
        while d < n {
            // Host re-layout: rotate the running prefix by d (charged as
            // data movement via the upload) and build the keep-mask.
            let mut rot = vec![0i32; n];
            rot[d..].copy_from_slice(&host_view[..n - d]);
            dev.copy_to_device(&rot, shifted)?;
            let m: Vec<i32> = (0..n).map(|i| i32::from(i >= d)).collect();
            dev.copy_to_device(&m, mask)?;
            charge_host(dev, &WorkloadProfile::new(n as f64, 8.0 * n as f64))?;

            // PIM: acc = (i >= d) ? acc + shifted : acc.
            dev.add(acc, shifted, summed)?;
            dev.select(mask, summed, acc, acc)?;
            host_view = dev.to_vec::<i32>(acc)?;
            d *= 2;
        }
        let got = host_view;
        dev.free(summed)?;
        dev.free(mask)?;
        dev.free(shifted)?;
        dev.free(acc)?;

        let mut expected = input;
        for i in 1..n {
            expected[i] = expected[i].wrapping_add(expected[i - 1]);
        }
        finish(dev, got == expected, "prefix sums")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        WorkloadProfile::new(n, 8.0 * n)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        // Decoupled-lookback scan is near bandwidth-bound.
        WorkloadProfile::new(2.0 * n, 8.0 * n).with_efficiency(0.9)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        // No Table I size; use the PrIM-style 2^27-element scan.
        (1u64 << 27) as f64 / params.scaled(Self::BASE_N) as f64
    }

    fn serial_factor(&self, params: &Params) -> f64 {
        // log2(n) serial passes.
        let n = params.scaled(Self::BASE_N) as f64;
        (27.0 / n.log2()).max(1.0)
    }
}

/// Exact string match (Phoenix): counts occurrences of an `M`-byte
/// pattern by ANDing `M` per-offset equality bitmaps — the associative
/// (conditional match) pattern DRAM-CAM accelerates.
#[derive(Debug, Default, Clone, Copy)]
pub struct StringMatch;

impl StringMatch {
    const BASE_N: u64 = 1 << 16;
    const M: usize = 8;
}

impl Benchmark for StringMatch {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "String Match",
            domain: Domain::Database,
            sequential: true,
            random: false,
            exec: ExecType::Pim,
            paper_input: "extension kernel (Phoenix string match)",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let n = params.scaled(Self::BASE_N) as usize;
        let mut rng = SplitMix64::new(params.seed);
        // Small alphabet so matches actually occur.
        let text: Vec<i32> = (0..n).map(|_| rng.below(4) as i32).collect();
        let pattern: Vec<i32> = (0..Self::M).map(|_| rng.below(4) as i32).collect();

        // One shifted copy of the text per pattern offset (vertical
        // layouts cannot shift elements across bitlines; the host
        // prepares the alignment, as with the paper's re-layouts).
        let positions = n - Self::M + 1;
        let matches_obj = dev.alloc(positions as u64, DataType::Int32)?;
        dev.broadcast(matches_obj, 1)?;
        let window = dev.alloc_associated(matches_obj, DataType::Int32)?;
        let hit = dev.alloc_associated(matches_obj, DataType::Int32)?;
        for (j, &pj) in pattern.iter().enumerate() {
            let slice: Vec<i32> = text[j..j + positions].to_vec();
            dev.copy_to_device(&slice, window)?;
            dev.eq_scalar(window, pj as i64, hit)?;
            dev.and(matches_obj, hit, matches_obj)?;
        }
        let count = dev.red_sum(matches_obj)?;
        dev.free(hit)?;
        dev.free(window)?;
        dev.free(matches_obj)?;

        let expected = text
            .windows(Self::M)
            .filter(|w| w.iter().zip(&pattern).all(|(a, b)| a == b))
            .count();
        finish(dev, count == expected as i128, "match count")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        // memmem-style scanning is bandwidth-bound with a small constant.
        WorkloadProfile::new(2.0 * n, 2.0 * n).with_efficiency(0.8)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        WorkloadProfile::new(2.0 * n, 2.0 * n).with_efficiency(0.9)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        // Phoenix's large keyword-search corpus: ~500 MB of text.
        5e8 / params.scaled(Self::BASE_N) as f64
    }
}

/// Transitive closure of a directed graph (IRAM suite): Floyd–Warshall
/// over adjacency bitmap rows, with the pivot test on the host and the
/// row-wide OR on PIM.
#[derive(Debug, Default, Clone, Copy)]
pub struct TransitiveClosure;

impl TransitiveClosure {
    const BASE_NODES: u64 = 48;
}

impl Benchmark for TransitiveClosure {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "Transitive Closure",
            domain: Domain::Graph,
            sequential: true,
            random: true,
            exec: ExecType::PimHost,
            paper_input: "extension kernel (IRAM transitive closure)",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let nodes = params.scaled(Self::BASE_NODES) as usize;
        let words = nodes.div_ceil(32);
        let mut rng = SplitMix64::new(params.seed);
        let mut adj = vec![vec![0u32; words]; nodes];
        for (i, row) in adj.iter_mut().enumerate() {
            row[i / 32] |= 1 << (i % 32); // reflexive
            for j in 0..nodes {
                if rng.below(12) == 0 {
                    row[j / 32] |= 1 << (j % 32);
                }
            }
        }

        // Reference closure.
        let mut expected = adj.clone();
        for k in 0..nodes {
            for i in 0..nodes {
                if (expected[i][k / 32] >> (k % 32)) & 1 == 1 {
                    let rk = expected[k].clone();
                    for (w, r) in expected[i].iter_mut().zip(&rk) {
                        *w |= r;
                    }
                }
            }
        }

        // PIM: rows live on device; the host inspects the pivot column
        // (kept as a mirror) and issues row-wide ORs.
        let rows: Vec<_> = adj
            .iter()
            .map(|r| dev.alloc_vec(r))
            .collect::<Result<Vec<_>, _>>()?;
        let mut mirror = adj;
        for k in 0..nodes {
            for i in 0..nodes {
                if i != k && (mirror[i][k / 32] >> (k % 32)) & 1 == 1 {
                    dev.or(rows[i], rows[k], rows[i])?;
                    let rk = mirror[k].clone();
                    for (w, r) in mirror[i].iter_mut().zip(&rk) {
                        *w |= r;
                    }
                }
            }
            // Host pivot-column scan for this k.
            charge_host(dev, &WorkloadProfile::new(nodes as f64, 8.0 * nodes as f64))?;
        }
        let mut ok = true;
        for (i, row) in rows.iter().enumerate() {
            ok &= dev.to_vec::<u32>(*row)? == expected[i];
        }
        for r in rows {
            dev.free(r)?;
        }
        finish(dev, ok, "closure rows")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_NODES) as f64;
        let words = (n / 32.0).ceil();
        WorkloadProfile::new(n * n * words, 8.0 * n * n * words).with_efficiency(0.6)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_NODES) as f64;
        let words = (n / 32.0).ceil();
        WorkloadProfile::new(n * n * words, 8.0 * n * n * words).with_efficiency(0.7)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        // IRAM-era graph sizes: ~4096 nodes.
        let n = params.scaled(Self::BASE_NODES) as f64;
        let paper_n = 4096.0f64;
        (paper_n * paper_n * (paper_n / 32.0)) / (n * n * (n / 32.0).ceil())
    }

    fn serial_factor(&self, params: &Params) -> f64 {
        // The k (pivot) × i loops are serial OR issues; the bitmap
        // width is data-parallel.
        let n = params.scaled(Self::BASE_NODES) as f64;
        (4096.0 * 4096.0) / (n * n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimeval::PimTarget;

    #[test]
    fn prefix_sum_verifies_on_all_targets() {
        for t in PimTarget::EXTENDED {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 1)).unwrap();
            let out = PrefixSum
                .run(
                    &mut dev,
                    &Params {
                        scale: 1.0 / 64.0,
                        seed: 3,
                        ..Params::default()
                    },
                )
                .unwrap();
            assert!(out.verified, "{t}");
            assert!(out.stats.host_time_ms > 0.0);
        }
    }

    #[test]
    fn string_match_verifies_on_all_targets() {
        for t in PimTarget::EXTENDED {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 1)).unwrap();
            let out = StringMatch
                .run(
                    &mut dev,
                    &Params {
                        scale: 1.0 / 8.0,
                        seed: 5,
                        ..Params::default()
                    },
                )
                .unwrap();
            assert!(out.verified, "{t}");
            assert!(out.stats.categories[&pimeval::OpCategory::Eq] > 0);
            assert!(out.stats.categories[&pimeval::OpCategory::And] > 0);
        }
    }

    #[test]
    fn transitive_closure_verifies_on_all_targets() {
        for t in PimTarget::EXTENDED {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 1)).unwrap();
            let out = TransitiveClosure
                .run(
                    &mut dev,
                    &Params {
                        scale: 0.5,
                        seed: 7,
                        ..Params::default()
                    },
                )
                .unwrap();
            assert!(out.verified, "{t}");
            assert!(out.stats.categories[&pimeval::OpCategory::Or] > 0);
        }
    }
}
