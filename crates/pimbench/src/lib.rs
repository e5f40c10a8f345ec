//! PIMbench: the 18-application PIM benchmark suite of the IISWC 2024
//! PIMeval/PIMbench paper, written against the portable PIM API of
//! [`pimeval`] — every benchmark runs unmodified on all three modeled
//! PIM architectures.
//!
//! The suite (Table I): vector addition, AXPY, GEMV, GEMM, radix sort,
//! AES-256 encryption/decryption, triangle counting, filter-by-key,
//! histogram, brightness, image downsampling, KNN, linear regression,
//! K-means, and VGG-13/16/19.
//!
//! Every benchmark:
//!
//! * generates a deterministic synthetic workload (scaled-down defaults;
//!   see DESIGN.md substitution #3),
//! * runs its PIM kernels through the simulator, charging host-side
//!   phases (sorts, scatters, softmax, ...) to the deterministic CPU
//!   model of [`pim_baseline`],
//! * verifies every output against a host reference implementation, and
//! * exposes roofline [`pim_baseline::WorkloadProfile`]s for the CPU/GPU
//!   baseline comparisons of Figs. 9–11.
//!
//! # Example
//!
//! ```
//! use pimbench::{all_benchmarks, Params};
//! use pimeval::Device;
//!
//! let mut dev = Device::fulcrum(2).unwrap();
//! let suite = all_benchmarks();
//! assert_eq!(suite.len(), 18);
//! let axpy = &suite[1];
//! let out = axpy.run(&mut dev, &Params { scale: 0.01, seed: 1, ..Params::default() }).unwrap();
//! assert!(out.verified);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod common;

pub use common::{
    charge_host, finish, BenchError, BenchSpec, Benchmark, Domain, ExecType, Params, RunOutcome,
    SplitMix64,
};

use benchmarks::*;

/// The full PIMbench suite in Table I order.
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(VectorAdd),
        Box::new(Axpy),
        Box::new(Gemv),
        Box::new(Gemm),
        Box::new(RadixSort),
        Box::new(Aes { decrypt: false }),
        Box::new(Aes { decrypt: true }),
        Box::new(TriangleCount),
        Box::new(FilterByKey),
        Box::new(Histogram),
        Box::new(Brightness),
        Box::new(ImageDownsample),
        Box::new(Knn),
        Box::new(LinearRegression),
        Box::new(KMeans),
        Box::new(Vgg {
            variant: VggVariant::Vgg13,
        }),
        Box::new(Vgg {
            variant: VggVariant::Vgg16,
        }),
        Box::new(Vgg {
            variant: VggVariant::Vgg19,
        }),
    ]
}

/// The extension kernels the paper lists as in-progress additions
/// (§II/§IX): prefix sum, string match, and transitive closure. Kept
/// out of [`all_benchmarks`] so Table I figures retain the paper's 18
/// applications.
pub fn extension_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(PrefixSum),
        Box::new(StringMatch),
        Box::new(TransitiveClosure),
    ]
}

/// Short command-line aliases for benchmarks whose figure labels contain
/// spaces or punctuation (`vecadd` for "Vector Addition", ...).
pub const BENCH_ALIASES: &[(&str, &str)] = &[
    ("vecadd", "Vector Addition"),
    ("va", "Vector Addition"),
    ("sort", "Radix Sort"),
    ("radixsort", "Radix Sort"),
    ("triangle", "Triangle Count"),
    ("tc", "Triangle Count"),
    ("filter", "Filter-By-Key"),
    ("hist", "Histogram"),
    ("downsample", "Image Downsampling"),
    ("linreg", "Linear Regression"),
    ("lr", "Linear Regression"),
    ("kmeans", "K-means"),
    ("prefixsum", "Prefix Sum"),
    ("stringmatch", "String Match"),
];

/// Looks a benchmark up by its figure label or a [`BENCH_ALIASES`] short
/// name (both case-insensitive).
pub fn benchmark_by_name(name: &str) -> Option<Box<dyn Benchmark>> {
    let resolved = BENCH_ALIASES
        .iter()
        .find(|(alias, _)| alias.eq_ignore_ascii_case(name))
        .map_or(name, |(_, full)| full);
    all_benchmarks()
        .into_iter()
        .chain(extension_benchmarks())
        .find(|b| b.spec().name.eq_ignore_ascii_case(resolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eighteen_unique_benchmarks() {
        let suite = all_benchmarks();
        assert_eq!(suite.len(), 18);
        let names: std::collections::BTreeSet<_> = suite.iter().map(|b| b.spec().name).collect();
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark_by_name("GEMV").is_some());
        assert!(benchmark_by_name("gemv").is_some());
        assert!(benchmark_by_name("VGG-19").is_some());
        assert!(benchmark_by_name("nope").is_none());
    }

    #[test]
    fn table1_domains_match_paper() {
        let suite = all_benchmarks();
        assert_eq!(suite[0].spec().domain.label(), "Linear Algebra");
        assert_eq!(suite[4].spec().domain.label(), "Sort");
        assert_eq!(suite[8].spec().domain.label(), "Database");
        assert_eq!(suite[17].spec().domain.label(), "Neural Network");
    }

    #[test]
    fn exec_types_match_table1() {
        use crate::common::ExecType;
        let suite = all_benchmarks();
        let pim_host: Vec<&str> = suite
            .iter()
            .filter(|b| b.spec().exec == ExecType::PimHost)
            .map(|b| b.spec().name)
            .collect();
        assert!(pim_host.contains(&"Radix Sort"));
        assert!(pim_host.contains(&"Filter-By-Key"));
        assert!(pim_host.contains(&"KNN"));
        assert!(pim_host.contains(&"VGG-16"));
    }
}
