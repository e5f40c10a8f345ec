//! Statistical analysis used for the PIMbench diversity study (Fig. 1):
//! feature standardization, principal component analysis, and
//! agglomerative hierarchical clustering with an ASCII dendrogram.
//!
//! The paper refines per-benchmark features (instruction mix, memory
//! access pattern, execution type, arithmetic intensity) "using a
//! combination of PCA and hierarchical clustering" to produce its
//! dendrogram. This crate implements that pipeline from scratch:
//!
//! 1. [`standardize`] — z-score each feature column.
//! 2. [`pca::Pca`] — covariance + cyclic Jacobi eigensolver, projection
//!    onto the leading components.
//! 3. [`cluster::linkage`] — average-linkage agglomerative clustering
//!    over Euclidean distances, producing a SciPy-style merge table.
//! 4. [`cluster::Dendrogram::render`] — a text dendrogram with
//!    log-scale linkage distances.
//!
//! # Example
//!
//! ```
//! use pim_analysis::{cluster, pca::Pca, standardize};
//!
//! // Three tight groups in 2-D.
//! let data = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.0],
//!     vec![5.0, 5.0], vec![5.1, 5.0],
//!     vec![0.0, 9.0],
//! ];
//! let z = standardize(&data);
//! let pca = Pca::fit(&z, 2);
//! let projected = pca.transform(&z);
//! let dendro = cluster::linkage(&projected);
//! // The first merges join the near-identical pairs.
//! assert!(dendro.merges()[0].distance < dendro.merges().last().unwrap().distance);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod pca;

pub use cluster::{Dendrogram, Linkage, Merge};

/// Z-score standardization per column. Constant columns become zeros.
///
/// # Panics
///
/// Panics if rows have inconsistent lengths or the input is empty.
pub fn standardize(data: &[Vec<f64>]) -> Vec<Vec<f64>> {
    assert!(!data.is_empty(), "cannot standardize an empty matrix");
    let cols = data[0].len();
    assert!(
        data.iter().all(|r| r.len() == cols),
        "ragged feature matrix"
    );
    let n = data.len() as f64;
    let mut out = data.to_vec();
    for c in 0..cols {
        let mean = data.iter().map(|r| r[c]).sum::<f64>() / n;
        let var = data.iter().map(|r| (r[c] - mean).powi(2)).sum::<f64>() / n;
        let sd = var.sqrt();
        for (r, row) in out.iter_mut().enumerate() {
            row[c] = if sd > 1e-12 {
                (data[r][c] - mean) / sd
            } else {
                0.0
            };
        }
    }
    out
}

/// Euclidean distance between two feature vectors.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardize_gives_zero_mean_unit_variance() {
        let data = vec![
            vec![1.0, 10.0],
            vec![2.0, 10.0],
            vec![3.0, 10.0],
            vec![6.0, 10.0],
        ];
        let z = standardize(&data);
        let n = z.len() as f64;
        let mean: f64 = z.iter().map(|r| r[0]).sum::<f64>() / n;
        let var: f64 = z.iter().map(|r| r[0] * r[0]).sum::<f64>() / n;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
        // Constant column becomes zeros, not NaN.
        assert!(z.iter().all(|r| r[1] == 0.0));
    }

    #[test]
    fn euclidean_basics() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_input_rejected() {
        let _ = standardize(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
