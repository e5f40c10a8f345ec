//! Shared benchmark infrastructure: the [`Benchmark`] trait, run
//! parameters, outcomes, and host-phase charging.

use pim_baseline::{ComputeModel, WorkloadProfile};
use pimeval::{Device, PimError, SimStats};
use std::fmt;

/// Application domain, as in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Vector/matrix kernels.
    LinearAlgebra,
    /// Sorting.
    Sort,
    /// Cryptography.
    Cryptography,
    /// Graph analytics.
    Graph,
    /// Database analytics.
    Database,
    /// Image processing.
    ImageProcessing,
    /// Supervised learning.
    SupervisedLearning,
    /// Unsupervised learning.
    UnsupervisedLearning,
    /// Neural networks.
    NeuralNetwork,
}

impl Domain {
    /// Table I column text.
    pub fn label(&self) -> &'static str {
        match self {
            Domain::LinearAlgebra => "Linear Algebra",
            Domain::Sort => "Sort",
            Domain::Cryptography => "Cryptography",
            Domain::Graph => "Graph",
            Domain::Database => "Database",
            Domain::ImageProcessing => "Image Processing",
            Domain::SupervisedLearning => "Supervised Learning",
            Domain::UnsupervisedLearning => "Unsupervised Learning",
            Domain::NeuralNetwork => "Neural Network",
        }
    }
}

/// Where the benchmark executes, as in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecType {
    /// Entirely on PIM.
    Pim,
    /// PIM kernels plus host phases (random access or inter-bank work).
    PimHost,
}

impl fmt::Display for ExecType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecType::Pim => write!(f, "PIM"),
            ExecType::PimHost => write!(f, "PIM + Host"),
        }
    }
}

/// Static description of one benchmark (one Table I row).
#[derive(Debug, Clone, Copy)]
pub struct BenchSpec {
    /// Benchmark name as it appears in the paper's figures.
    pub name: &'static str,
    /// Application domain.
    pub domain: Domain,
    /// Sequential memory access pattern present.
    pub sequential: bool,
    /// Random memory access pattern present.
    pub random: bool,
    /// Execution type.
    pub exec: ExecType,
    /// The paper's input description (Table I "Input" column).
    pub paper_input: &'static str,
}

/// Run parameters. `scale` multiplies the scaled-down default problem
/// size (1.0 ≈ completes in well under a second per target); `seed`
/// drives all synthetic data generation; `stream` routes
/// stream-capable kernels through the deferred
/// [`pimeval::CommandStream`] (fusion, CSE and dead-write elimination) instead of
/// eager per-op issue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Problem size multiplier.
    pub scale: f64,
    /// RNG seed for workload generation.
    pub seed: u64,
    /// Record kernels through a command stream where supported.
    pub stream: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            scale: 1.0,
            seed: 42,
            stream: false,
        }
    }
}

impl Params {
    /// Scales a base element count, with a floor to keep kernels
    /// non-degenerate.
    pub fn scaled(&self, base: u64) -> u64 {
        ((base as f64 * self.scale) as u64).max(16)
    }
}

/// Errors produced by a benchmark run.
#[derive(Debug)]
pub enum BenchError {
    /// A PIM API call failed.
    Pim(PimError),
    /// The PIM result diverged from the host reference.
    VerificationFailed {
        /// Which check diverged.
        what: String,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Pim(e) => write!(f, "PIM error: {e}"),
            BenchError::VerificationFailed { what } => write!(f, "verification failed: {what}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<PimError> for BenchError {
    fn from(e: PimError) -> Self {
        BenchError::Pim(e)
    }
}

/// The result of one verified benchmark run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// True when every output matched the host reference.
    pub verified: bool,
    /// Statistics snapshot (the device's stats are reset before the run).
    pub stats: SimStats,
}

/// A PIMbench benchmark: portable across all three PIM targets via the
/// device-independent PIM API.
pub trait Benchmark {
    /// Static metadata (Table I row).
    fn spec(&self) -> BenchSpec;

    /// Runs the benchmark on `dev`, verifying against a host reference.
    ///
    /// The device's statistics are reset at entry so the outcome's
    /// snapshot covers exactly one run.
    ///
    /// # Errors
    ///
    /// [`BenchError::Pim`] on API failures,
    /// [`BenchError::VerificationFailed`] when outputs diverge.
    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError>;

    /// Roofline profile of the whole application on the CPU baseline
    /// **at the scaled (functional) problem size** — the harness
    /// multiplies by [`Benchmark::paper_factor`] for paper-scale figures.
    fn cpu_profile(&self, params: &Params) -> WorkloadProfile;

    /// Roofline profile of the whole application on the GPU baseline at
    /// the scaled problem size.
    fn gpu_profile(&self, params: &Params) -> WorkloadProfile;

    /// Ratio of the paper's Table I problem size (total element-work) to
    /// the scaled functional size this run uses. The figure harness
    /// decimates the device's core count by this factor — conserving
    /// per-core work, so measured kernel latency equals the paper-scale
    /// estimate — and scales host/baseline times back up by it.
    fn paper_factor(&self, params: &Params) -> f64 {
        let _ = params;
        1.0
    }

    /// The part of [`Benchmark::paper_factor`] that scales the *serial*
    /// PIM operation count rather than data-parallel width (e.g. GEMV
    /// column sweeps, histogram bins, triangle-count edges). The harness
    /// decimates the device only by `paper_factor / serial_factor` and
    /// multiplies the measured kernel time by `serial_factor` instead —
    /// each op's latency is width-faithful, and the op count is restored
    /// multiplicatively.
    fn serial_factor(&self, params: &Params) -> f64 {
        let _ = params;
        1.0
    }
}

/// Charges a host-side phase to the CPU model and records it on the
/// device (PIM + Host benchmarks), returning the charged milliseconds.
pub fn charge_host(dev: &mut Device, profile: &WorkloadProfile) -> f64 {
    let ms = ComputeModel::epyc_9124().runtime_ms(profile);
    dev.record_host_ms(ms);
    ms
}

/// Finishes a run: snapshots stats and packages the verification flag.
pub fn finish(dev: &Device, verified: bool, what: &str) -> Result<RunOutcome, BenchError> {
    if !verified {
        return Err(BenchError::VerificationFailed {
            what: what.to_string(),
        });
    }
    Ok(RunOutcome {
        verified,
        stats: dev.stats().clone(),
    })
}

/// A tiny deterministic PRNG (SplitMix64) so benchmark inputs do not
/// depend on `rand`'s version-to-version stream stability.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }

    /// Uniform `i32`.
    pub fn next_i32(&mut self) -> i32 {
        self.next_u64() as i32
    }

    /// A vector of uniform `i32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn i32_vec(&mut self, n: usize, lo: i32, hi: i32) -> Vec<i32> {
        assert!(lo < hi, "empty range");
        let span = (hi as i64 - lo as i64) as u64;
        (0..n)
            .map(|_| (lo as i64 + self.below(span) as i64) as i32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_ranged() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let v = a.i32_vec(1000, -5, 5);
        assert!(v.iter().all(|x| (-5..5).contains(x)));
        assert!(v.iter().any(|x| *x < 0) && v.iter().any(|x| *x >= 0));
    }

    #[test]
    fn params_scaling_has_floor() {
        let p = Params {
            scale: 1e-9,
            seed: 0,
            ..Params::default()
        };
        assert_eq!(p.scaled(1_000_000), 16);
        let d = Params::default();
        assert_eq!(d.scaled(1024), 1024);
    }

    #[test]
    fn exec_type_display() {
        assert_eq!(ExecType::Pim.to_string(), "PIM");
        assert_eq!(ExecType::PimHost.to_string(), "PIM + Host");
    }
}
