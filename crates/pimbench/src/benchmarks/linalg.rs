//! Linear-algebra benchmarks: vector addition, AXPY, GEMV, GEMM.
//!
//! GEMV follows the paper's column-broadcast mapping: for each column
//! `j`, the PIM multiplies column `A[:,j]` by the scalar `x[j]` and
//! accumulates into `y`. GEMM is "implemented using batched GEMV"
//! (§VIII), one GEMV per column of the right-hand matrix.

use pim_baseline::WorkloadProfile;
use pimeval::{DataType, Device};

use crate::common::{
    finish, BenchError, BenchSpec, Benchmark, Domain, ExecType, Params, RunOutcome, SplitMix64,
};

/// Element-wise vector addition (Table I row 1).
#[derive(Debug, Default, Clone, Copy)]
pub struct VectorAdd;

impl VectorAdd {
    const BASE_N: u64 = 1 << 20;
}

impl Benchmark for VectorAdd {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "Vector Addition",
            domain: Domain::LinearAlgebra,
            sequential: true,
            random: false,
            exec: ExecType::Pim,
            paper_input: "2,035,544,320 32-bit INT",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let n = params.scaled(Self::BASE_N) as usize;
        let mut rng = SplitMix64::new(params.seed);
        let a = rng.i32_vec(n, -1_000_000, 1_000_000);
        let b = rng.i32_vec(n, -1_000_000, 1_000_000);

        let oa = dev.alloc_vec(&a)?;
        let ob = dev.alloc_vec(&b)?;
        let oc = dev.alloc_associated(oa, DataType::Int32)?;
        dev.add(oa, ob, oc)?;
        let got = dev.to_vec::<i32>(oc)?;
        dev.free(oa)?;
        dev.free(ob)?;
        dev.free(oc)?;

        let ok = got
            .iter()
            .zip(a.iter().zip(&b))
            .all(|(g, (x, y))| *g == x.wrapping_add(*y));
        finish(dev, ok, "vector add output")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        WorkloadProfile::new(n, 12.0 * n)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        WorkloadProfile::new(n, 12.0 * n)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        2_035_544_320.0 / params.scaled(Self::BASE_N) as f64
    }
}

/// AXPY: `y = a·x + y` (Table I row 2; the paper's Listing 1).
#[derive(Debug, Default, Clone, Copy)]
pub struct Axpy;

impl Axpy {
    const BASE_N: u64 = 1 << 20;
    const A: i64 = 7;
}

impl Benchmark for Axpy {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "AXPY",
            domain: Domain::LinearAlgebra,
            sequential: true,
            random: false,
            exec: ExecType::Pim,
            paper_input: "16,777,216 32-bit INT",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let n = params.scaled(Self::BASE_N) as usize;
        let mut rng = SplitMix64::new(params.seed);
        let x = rng.i32_vec(n, -100_000, 100_000);
        let y = rng.i32_vec(n, -100_000, 100_000);

        let ox = dev.alloc_vec(&x)?;
        let oy = dev.alloc_vec(&y)?;
        if params.stream {
            // Record the eager pair; the flush's fusion pass fuses it
            // into one `scaled_add` command (the temporary dies unread).
            let t = dev.alloc_associated(ox, DataType::Int32)?;
            let mut stream = dev.stream();
            stream.mul_scalar(ox, Self::A, t).add(t, oy, oy);
            stream.flush()?;
            drop(stream);
            dev.free(t)?;
        } else {
            dev.scaled_add(ox, oy, oy, Self::A)?;
        }
        let got = dev.to_vec::<i32>(oy)?;
        dev.free(ox)?;
        dev.free(oy)?;

        let ok = got
            .iter()
            .zip(x.iter().zip(&y))
            .all(|(g, (xv, yv))| *g == xv.wrapping_mul(Self::A as i32).wrapping_add(*yv));
        finish(dev, ok, "axpy output")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        WorkloadProfile::new(2.0 * n, 12.0 * n)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let n = params.scaled(Self::BASE_N) as f64;
        WorkloadProfile::new(2.0 * n, 12.0 * n)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        16_777_216.0 / params.scaled(Self::BASE_N) as f64
    }
}

/// Shared GEMV kernel: `y += A · x` with `A` stored as per-column PIM
/// objects and `x[j]` broadcast as scalars. Returns the PIM result.
fn pim_gemv(
    dev: &mut Device,
    a_cols: &[pimeval::ObjId],
    x: &[i32],
    m: usize,
) -> Result<Vec<i32>, BenchError> {
    let y = dev.alloc(m as u64, DataType::Int32)?;
    dev.broadcast(y, 0)?;
    let tmp = dev.alloc_associated(y, DataType::Int32)?;
    for (j, &col) in a_cols.iter().enumerate() {
        dev.mul_scalar(col, x[j] as i64, tmp)?;
        dev.add(tmp, y, y)?;
    }
    let out = dev.to_vec::<i32>(y)?;
    dev.free(tmp)?;
    dev.free(y)?;
    Ok(out)
}

fn host_gemv(a: &[Vec<i32>], x: &[i32]) -> Vec<i32> {
    let m = a[0].len();
    let mut y = vec![0i32; m];
    for (j, col) in a.iter().enumerate() {
        for i in 0..m {
            y[i] = y[i].wrapping_add(col[i].wrapping_mul(x[j]));
        }
    }
    y
}

/// Matrix–vector multiplication (Table I row 3).
#[derive(Debug, Default, Clone, Copy)]
pub struct Gemv;

impl Gemv {
    const BASE_M: u64 = 2048;
    const BASE_K: u64 = 256;

    fn dims(params: &Params) -> (usize, usize) {
        (
            params.scaled(Self::BASE_M) as usize,
            params.scaled(Self::BASE_K) as usize,
        )
    }
}

impl Benchmark for Gemv {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "GEMV",
            domain: Domain::LinearAlgebra,
            sequential: true,
            random: false,
            exec: ExecType::Pim,
            paper_input: "2,352,160 x 8,192 32-bit INT",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let (m, k) = Self::dims(params);
        let mut rng = SplitMix64::new(params.seed);
        let a: Vec<Vec<i32>> = (0..k).map(|_| rng.i32_vec(m, -100, 100)).collect();
        let x = rng.i32_vec(k, -10, 10);

        let cols: Vec<_> = a
            .iter()
            .map(|col| dev.alloc_vec(col))
            .collect::<Result<Vec<_>, _>>()?;
        let got = pim_gemv(dev, &cols, &x, m)?;
        for c in cols {
            dev.free(c)?;
        }
        let ok = got == host_gemv(&a, &x);
        finish(dev, ok, "gemv output")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let (m, k) = Self::dims(params);
        let (m, k) = (m as f64, k as f64);
        WorkloadProfile::new(2.0 * m * k, 4.0 * (m * k + m + k))
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let (m, k) = Self::dims(params);
        let (m, k) = (m as f64, k as f64);
        WorkloadProfile::new(2.0 * m * k, 4.0 * (m * k + m + k))
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        let (m, k) = Self::dims(params);
        2_352_160.0 * 8_192.0 / (m as f64 * k as f64)
    }

    fn serial_factor(&self, params: &Params) -> f64 {
        // The K column sweeps are serial PIM ops; M is data-parallel.
        let (_, k) = Self::dims(params);
        8_192.0 / k as f64
    }
}

/// Matrix–matrix multiplication via batched GEMV (Table I row 4).
#[derive(Debug, Default, Clone, Copy)]
pub struct Gemm;

impl Gemm {
    const BASE_M: u64 = 256;
    const BASE_K: u64 = 128;
    const BASE_N: u64 = 32;

    fn dims(params: &Params) -> (usize, usize, usize) {
        (
            params.scaled(Self::BASE_M) as usize,
            params.scaled(Self::BASE_K) as usize,
            params.scaled(Self::BASE_N) as usize,
        )
    }
}

impl Benchmark for Gemm {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: "GEMM",
            domain: Domain::LinearAlgebra,
            sequential: true,
            random: false,
            exec: ExecType::Pim,
            paper_input: "23,521 x 4,096 and 4,096 x 512 32-bit INT",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let (m, k, n) = Self::dims(params);
        let mut rng = SplitMix64::new(params.seed);
        let a: Vec<Vec<i32>> = (0..k).map(|_| rng.i32_vec(m, -50, 50)).collect();
        let b: Vec<Vec<i32>> = (0..n).map(|_| rng.i32_vec(k, -10, 10)).collect();

        let cols: Vec<_> = a
            .iter()
            .map(|col| dev.alloc_vec(col))
            .collect::<Result<Vec<_>, _>>()?;
        let mut ok = true;
        for bn in &b {
            let got = pim_gemv(dev, &cols, bn, m)?;
            if got != host_gemv(&a, bn) {
                ok = false;
                break;
            }
        }
        for c in cols {
            dev.free(c)?;
        }
        finish(dev, ok, "gemm output column")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let (m, k, n) = Self::dims(params);
        let (m, k, n) = (m as f64, k as f64, n as f64);
        // Cache-blocked GEMM is compute-bound; OpenBLAS reaches a large
        // fraction of peak.
        WorkloadProfile::new(2.0 * m * k * n, 4.0 * (m * k + k * n + m * n)).with_efficiency(0.8)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let (m, k, n) = Self::dims(params);
        let (m, k, n) = (m as f64, k as f64, n as f64);
        WorkloadProfile::new(2.0 * m * k * n, 4.0 * (m * k + k * n + m * n)).with_efficiency(0.9)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        let (m, k, n) = Self::dims(params);
        23_521.0 * 4_096.0 * 512.0 / (m as f64 * k as f64 * n as f64)
    }

    fn serial_factor(&self, params: &Params) -> f64 {
        // The K inner sweeps of each GEMV are serial; the N batched
        // GEMVs run on disjoint core sets (batched GEMV, SVIII) and M is
        // data-parallel, so both scale with the device.
        let (_, k, _) = Self::dims(params);
        4_096.0 / k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimeval::PimTarget;

    fn small() -> Params {
        Params {
            scale: 1.0 / 64.0,
            seed: 3,
            ..Params::default()
        }
    }

    #[test]
    fn vecadd_verifies_on_all_targets() {
        for t in PimTarget::ALL {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 1)).unwrap();
            let out = VectorAdd.run(&mut dev, &small()).unwrap();
            assert!(out.verified);
            assert!(out.stats.cmds.contains_key("add.int32"));
            assert!(out.stats.copy.host_to_device_bytes > 0);
        }
    }

    #[test]
    fn axpy_records_mul_and_add() {
        let mut dev = Device::fulcrum(1).unwrap();
        let out = Axpy.run(&mut dev, &small()).unwrap();
        assert!(out.verified);
        assert!(out.stats.cmds.contains_key("mul_scalar.int32"));
        assert!(out.stats.cmds.contains_key("add.int32"));
    }

    #[test]
    fn axpy_stream_mode_fuses_and_verifies() {
        for t in PimTarget::ALL {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 1)).unwrap();
            let out = Axpy
                .run(
                    &mut dev,
                    &Params {
                        stream: true,
                        ..small()
                    },
                )
                .unwrap();
            assert!(out.verified, "{t}");
            // The recorded mul_scalar + add pair fused into one command.
            assert_eq!(out.stats.fusion.fused_scaled_add, 1, "{t}");
            assert!(out.stats.cmds.contains_key("scaled_add.int32"), "{t}");
            assert!(!out.stats.cmds.contains_key("add.int32"), "{t}");
        }
    }

    #[test]
    fn axpy_stream_cost_does_not_exceed_eager() {
        let mut eager_dev = Device::fulcrum(1).unwrap();
        let eager = Axpy.run(&mut eager_dev, &small()).unwrap();
        let mut stream_dev = Device::fulcrum(1).unwrap();
        let streamed = Axpy
            .run(
                &mut stream_dev,
                &Params {
                    stream: true,
                    ..small()
                },
            )
            .unwrap();
        assert!(streamed.stats.kernel_time_ms() <= eager.stats.kernel_time_ms() * (1.0 + 1e-12));
    }

    #[test]
    fn gemv_verifies_on_all_targets() {
        for t in PimTarget::ALL {
            let mut dev = Device::new(pimeval::DeviceConfig::new(t, 1)).unwrap();
            let out = Gemv.run(&mut dev, &small()).unwrap();
            assert!(out.verified, "{t}");
        }
    }

    #[test]
    fn gemm_verifies_on_fulcrum() {
        let mut dev = Device::fulcrum(1).unwrap();
        let out = Gemm
            .run(
                &mut dev,
                &Params {
                    scale: 1.0 / 16.0,
                    seed: 5,
                    ..Params::default()
                },
            )
            .unwrap();
        assert!(out.verified);
        // GEMM is mul-heavy (Fig. 8).
        let muls = out.stats.categories[&pimeval::OpCategory::Mul];
        assert!(muls > 0);
    }

    #[test]
    fn host_gemv_reference_sanity() {
        // [1 2; 3 4] · [5, 6]^T = [17, 39] with column-major storage.
        let a = vec![vec![1, 3], vec![2, 4]];
        assert_eq!(host_gemv(&a, &[5, 6]), vec![17, 39]);
    }
}
