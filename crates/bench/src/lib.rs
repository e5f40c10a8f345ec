//! Shared harness code for regenerating every table and figure of the
//! IISWC 2024 PIMeval/PIMbench paper. Each `src/bin/*.rs` binary prints
//! one table/figure; see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured comparisons.
//!
//! All binaries accept `--scale <f64>` (problem-size multiplier,
//! default varies per figure) and `--seed <u64>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod microbench;

use pim_baseline::{geometric_mean, ComputeModel};
use pimbench::{all_benchmarks, Params};
use pimeval::{Device, DeviceConfig, PimTarget, SimStats};

/// One benchmark run on one target.
#[derive(Debug, Clone)]
pub struct SuiteRecord {
    /// Benchmark display name.
    pub name: String,
    /// Target it ran on.
    pub target: PimTarget,
    /// Statistics snapshot.
    pub stats: SimStats,
    /// Device configuration used (for energy accounting).
    pub config: DeviceConfig,
    /// Modeled CPU baseline runtime (ms) for the same problem size.
    pub cpu_ms: f64,
    /// Modeled GPU baseline runtime (ms).
    pub gpu_ms: f64,
    /// Modeled CPU baseline energy (mJ).
    pub cpu_energy_mj: f64,
    /// Modeled GPU baseline energy (mJ).
    pub gpu_energy_mj: f64,
}

impl SuiteRecord {
    /// End-to-end PIM time: kernel + host + data movement (ms).
    pub fn pim_total_ms(&self) -> f64 {
        self.stats.total_time_ms()
    }

    /// PIM time excluding host↔device copies (the "Kernel" series of
    /// Fig. 9 and the Fig. 10a comparison basis): kernel + host phases.
    pub fn pim_kernel_ms(&self) -> f64 {
        self.stats.kernel_time_ms() + self.stats.host_time_ms
    }

    /// Speedup over the CPU including data movement (Fig. 9, solid).
    pub fn speedup_cpu_total(&self) -> f64 {
        self.cpu_ms / self.pim_total_ms()
    }

    /// Speedup over the CPU, kernel only (Fig. 9, hollow).
    pub fn speedup_cpu_kernel(&self) -> f64 {
        self.cpu_ms / self.pim_kernel_ms()
    }

    /// Speedup over the GPU (Fig. 10a): copies factored out on both
    /// sides (PIM and GPU share the PCIe/CXL link, §VI).
    pub fn speedup_gpu(&self) -> f64 {
        self.gpu_ms / self.pim_kernel_ms()
    }

    /// Total PIM-side energy versus the CPU (Fig. 11): kernel + copies +
    /// background + host execution (at CPU TDP) + CPU idle while PIM
    /// runs.
    pub fn pim_energy_vs_cpu_mj(&self) -> f64 {
        let host_exec = self.stats.host_time_ms * ComputeModel::epyc_9124().tdp_w;
        self.stats.total_energy_mj(&self.config)
            + host_exec
            + self.stats.host_idle_energy_mj(&self.config)
    }

    /// PIM energy versus the GPU (Fig. 10b): copies and CPU idle energy
    /// factored out (§VI), host phases still charged.
    pub fn pim_energy_vs_gpu_mj(&self) -> f64 {
        let host_exec = self.stats.host_time_ms * ComputeModel::epyc_9124().tdp_w;
        self.stats.kernel_energy_mj() + self.stats.background_energy_mj(&self.config) + host_exec
    }

    /// Energy reduction vs CPU (Fig. 11).
    pub fn energy_reduction_cpu(&self) -> f64 {
        self.cpu_energy_mj / self.pim_energy_vs_cpu_mj()
    }

    /// Energy reduction vs GPU (Fig. 10b).
    pub fn energy_reduction_gpu(&self) -> f64 {
        self.gpu_energy_mj / self.pim_energy_vs_gpu_mj()
    }
}

/// Runs one benchmark at paper-equivalent scale.
///
/// The device's core count is decimated by the benchmark's
/// [`Benchmark::paper_factor`] so that per-core work — and therefore the
/// measured kernel latency — matches the paper-scale experiment, then
/// the host phases and CPU/GPU baselines are scaled up by the same
/// factor. See DESIGN.md substitution #3.
///
/// # Panics
///
/// Panics if the benchmark fails to run or verify.
fn run_paper_scale(
    bench: &dyn pimbench::Benchmark,
    config: &DeviceConfig,
    params: &Params,
) -> SuiteRecord {
    let cpu = ComputeModel::epyc_9124();
    let gpu = ComputeModel::a100();
    let factor = bench.paper_factor(params).max(1.0);
    let serial = bench.serial_factor(params).clamp(1.0, factor);
    let parallel = (factor / serial).max(1.0);
    let cfg = config.clone().with_decimation(parallel.round() as u64);
    let mut dev = Device::new(cfg.clone()).expect("valid device config");
    let outcome = bench
        .run(&mut dev, params)
        .unwrap_or_else(|e| panic!("{} failed: {e}", bench.spec().name));
    assert!(outcome.verified, "{} did not verify", bench.spec().name);
    let mut stats = outcome.stats;
    stats.scale_kernel_and_copies(serial); // restore serial op count
    stats.host_time_ms *= factor; // host work scales linearly with size
    let (cp, gp) = (bench.cpu_profile(params), bench.gpu_profile(params));
    SuiteRecord {
        name: bench.spec().name.to_string(),
        target: config.target,
        stats,
        config: cfg,
        cpu_ms: cpu.runtime_ms(&cp) * factor,
        gpu_ms: gpu.runtime_ms(&gp) * factor,
        cpu_energy_mj: cpu.energy_mj(&cp) * factor,
        gpu_energy_mj: gpu.energy_mj(&gp) * factor,
    }
}

/// Runs the full suite on `config` at paper-equivalent scale, returning
/// one record per benchmark.
///
/// # Panics
///
/// Panics if a benchmark fails to run or verify — a failed verification
/// would invalidate the figure being generated.
pub fn run_suite(config: &DeviceConfig, params: &Params) -> Vec<SuiteRecord> {
    all_benchmarks()
        .iter()
        .map(|bench| run_paper_scale(bench.as_ref(), config, params))
        .collect()
}

/// Runs the suite on all three targets with the paper's 32-rank device.
pub fn run_all_targets(ranks: usize, params: &Params) -> Vec<SuiteRecord> {
    PimTarget::ALL
        .iter()
        .flat_map(|&t| run_suite(&DeviceConfig::new(t, ranks), params))
        .collect()
}

/// Parses `--scale` / `--seed` / `--stream` from argv, with a
/// figure-specific default scale.
pub fn cli_params(default_scale: f64) -> Params {
    let args: Vec<String> = std::env::args().collect();
    let mut params = Params {
        scale: default_scale,
        seed: 42,
        ..Params::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    params.scale = v;
                    i += 1;
                }
            }
            "--seed" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    params.seed = v;
                    i += 1;
                }
            }
            "--stream" => params.stream = true,
            _ => {}
        }
        i += 1;
    }
    params
}

/// Formats a ratio column, with the paper's log-scale plots in mind.
pub fn fmt_ratio(x: f64) -> String {
    if !x.is_finite() {
        return "inf".into();
    }
    if x >= 100.0 {
        format!("{x:9.1}")
    } else if x >= 1.0 {
        format!("{x:9.2}")
    } else {
        format!("{x:9.4}")
    }
}

/// Geometric mean helper that tolerates empty input.
pub fn gmean_or_nan(values: &[f64]) -> f64 {
    geometric_mean(values).unwrap_or(f64::NAN)
}

/// The non-scalar positive part of a slice (for Gmean over ratios).
pub fn positives(values: &[f64]) -> Vec<f64> {
    values
        .iter()
        .copied()
        .filter(|v| *v > 0.0 && v.is_finite())
        .collect()
}

/// Benchmark names in Table I / figure order.
pub fn suite_names() -> Vec<&'static str> {
    all_benchmarks()
        .iter()
        .map(|b| b.spec().name)
        .collect::<Vec<_>>()
}

/// Convenience: run one benchmark by name on one target.
///
/// # Panics
///
/// Panics on unknown benchmark name or failed verification.
pub fn run_one(name: &str, config: &DeviceConfig, params: &Params) -> SuiteRecord {
    let bench = pimbench::benchmark_by_name(name).expect("known benchmark");
    run_paper_scale(bench.as_ref(), config, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_produces_consistent_record() {
        let cfg = DeviceConfig::new(PimTarget::Fulcrum, 4);
        let r = run_one(
            "AXPY",
            &cfg,
            &Params {
                scale: 0.01,
                seed: 1,
                ..Params::default()
            },
        );
        assert!(r.pim_total_ms() > r.pim_kernel_ms());
        assert!(r.speedup_cpu_kernel() >= r.speedup_cpu_total());
        assert!(r.pim_energy_vs_cpu_mj() > r.pim_energy_vs_gpu_mj());
    }

    #[test]
    fn fmt_ratio_widths() {
        assert!(fmt_ratio(1234.5).contains("1234.5"));
        assert!(fmt_ratio(3.25159).contains("3.25"));
        assert!(fmt_ratio(0.01234).contains("0.0123"));
        assert_eq!(fmt_ratio(f64::INFINITY), "inf");
    }
}
