//! Analytical CPU/GPU baseline models for PIMbench comparisons.
//!
//! The paper measures its baselines on an AMD EPYC 9124 and an NVIDIA
//! A100 (Table II). We do not have that hardware, so baselines are
//! modeled with a roofline: `time = max(compute, memory traffic) /
//! efficiency` (see DESIGN.md substitution #1). Host-side phases of
//! PIM + Host benchmarks are charged to the *same* CPU model, which makes
//! every figure deterministic and reproducible.
//!
//! # Example
//!
//! ```
//! use pim_baseline::{ComputeModel, WorkloadProfile};
//!
//! // 16M-element vector add: 16M int ops, 3 × 64 MB of traffic.
//! let p = WorkloadProfile::new(16e6, 3.0 * 64e6);
//! let cpu = ComputeModel::epyc_9124();
//! let gpu = ComputeModel::a100();
//! // Vector add is memory-bound everywhere; the GPU's 4.2× bandwidth
//! // advantage shows directly.
//! assert!(cpu.runtime_ms(&p) > gpu.runtime_ms(&p) * 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A workload's resource demands, as seen by a roofline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Scalar (32-bit) arithmetic/logic operations.
    pub ops: f64,
    /// Bytes moved to/from memory (reads + writes, cold-cache).
    pub bytes: f64,
    /// Achieved fraction of the roofline (1.0 = perfect streaming;
    /// lower for random access, branchy code, or host serialization).
    pub efficiency: f64,
}

impl WorkloadProfile {
    /// A streaming workload at full roofline efficiency.
    pub fn new(ops: f64, bytes: f64) -> Self {
        WorkloadProfile {
            ops,
            bytes,
            efficiency: 1.0,
        }
    }

    /// Derates the roofline (e.g. 0.2 for random-access phases).
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]`.
    #[must_use]
    pub fn with_efficiency(mut self, efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        self.efficiency = efficiency;
        self
    }

    /// Arithmetic intensity in ops/byte (∞-safe: 0 bytes gives
    /// `f64::INFINITY`). One of the Fig. 1 clustering features.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes == 0.0 {
            f64::INFINITY
        } else {
            self.ops / self.bytes
        }
    }
}

/// A roofline compute model: peak throughput, memory bandwidth, TDP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Display name.
    pub name: &'static str,
    /// Peak sustained 32-bit ops per second.
    pub peak_ops_per_sec: f64,
    /// Memory bandwidth in bytes per second.
    pub mem_bw_bytes_per_sec: f64,
    /// Thermal design power in watts (the paper's pessimistic energy
    /// proxy, §V-D ii).
    pub tdp_w: f64,
}

impl ComputeModel {
    /// AMD EPYC 9124 (Table II): 16 cores @ 3.71 GHz, 200 W TDP,
    /// 460.8 GB/s peak memory bandwidth. Peak ops assume AVX-512 with
    /// 16 int32 lanes per core-cycle.
    pub fn epyc_9124() -> Self {
        // Sustained throughput: ~80 % of nominal compute and ~75 % of
        // the 460.8 GB/s peak bandwidth (STREAM-like achievable rates).
        ComputeModel {
            name: "AMD EPYC 9124",
            peak_ops_per_sec: 16.0 * 3.71e9 * 16.0 * 0.8,
            mem_bw_bytes_per_sec: 460.8e9 * 0.75,
            tdp_w: 200.0,
        }
    }

    /// NVIDIA A100 (Table II): 19.5 TFLOP/s FP32 peak, 1935 GB/s HBM
    /// bandwidth, 300 W TDP.
    pub fn a100() -> Self {
        // Sustained: ~90 % of peak compute, ~85 % of HBM bandwidth.
        ComputeModel {
            name: "NVIDIA A100",
            peak_ops_per_sec: 19.5e12 * 0.9,
            mem_bw_bytes_per_sec: 1935.0e9 * 0.85,
            tdp_w: 300.0,
        }
    }

    /// Roofline runtime in milliseconds.
    pub fn runtime_ms(&self, p: &WorkloadProfile) -> f64 {
        let compute_s = p.ops / self.peak_ops_per_sec;
        let memory_s = p.bytes / self.mem_bw_bytes_per_sec;
        compute_s.max(memory_s) / p.efficiency * 1e3
    }

    /// Energy in millijoules: runtime × TDP (W × ms = mJ).
    pub fn energy_mj(&self, p: &WorkloadProfile) -> f64 {
        self.runtime_ms(p) * self.tdp_w
    }
}

/// Geometric mean of strictly positive values; `None` for an empty or
/// non-positive input (used for every figure's Gmean column).
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_picks_the_binding_constraint() {
        let m = ComputeModel {
            name: "t",
            peak_ops_per_sec: 1e9,
            mem_bw_bytes_per_sec: 1e9,
            tdp_w: 100.0,
        };
        // Compute-bound: 10x more ops than bytes.
        let c = WorkloadProfile::new(10e9, 1e9);
        assert!((m.runtime_ms(&c) - 10_000.0).abs() < 1e-6);
        // Memory-bound: 10x more bytes than ops.
        let b = WorkloadProfile::new(1e9, 10e9);
        assert!((m.runtime_ms(&b) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn efficiency_derates_linearly() {
        let m = ComputeModel::epyc_9124();
        let p = WorkloadProfile::new(1e9, 1e9);
        let slow = p.with_efficiency(0.25);
        assert!((m.runtime_ms(&slow) / m.runtime_ms(&p) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn zero_efficiency_rejected() {
        let _ = WorkloadProfile::new(1.0, 1.0).with_efficiency(0.0);
    }

    #[test]
    fn energy_is_tdp_times_time() {
        let m = ComputeModel::a100();
        let p = WorkloadProfile::new(1e12, 1e9);
        assert!((m.energy_mj(&p) - m.runtime_ms(&p) * 300.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_beats_cpu_on_bandwidth_and_compute() {
        let (cpu, gpu) = (ComputeModel::epyc_9124(), ComputeModel::a100());
        assert!(gpu.mem_bw_bytes_per_sec > 4.0 * cpu.mem_bw_bytes_per_sec);
        assert!(gpu.peak_ops_per_sec > 10.0 * cpu.peak_ops_per_sec);
    }

    #[test]
    fn gmean_matches_hand_computation() {
        assert!((geometric_mean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!(geometric_mean(&[1.0, -2.0]).is_none());
    }

    #[test]
    fn arithmetic_intensity() {
        let p = WorkloadProfile::new(8.0, 4.0);
        assert!((p.arithmetic_intensity() - 2.0).abs() < 1e-12);
        assert!(WorkloadProfile::new(1.0, 0.0)
            .arithmetic_intensity()
            .is_infinite());
    }
}
