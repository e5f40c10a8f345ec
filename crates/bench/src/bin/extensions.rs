//! Runs the extension kernels (prefix sum, string match, transitive
//! closure — the additions §II/§IX of the paper announce) on every
//! target of `PimTarget::EXTENDED`, including the analog bit-serial and
//! UPMEM-like extensions, and prints CPU-relative speedups in the
//! Fig. 9 style.

use pim_baseline::ComputeModel;
use pim_bench_harness::{cli_params, fmt_ratio};
use pimbench::extension_benchmarks;
use pimeval::{Device, DeviceConfig, PimTarget};

/// Width of one target column, including its leading space.
const COLUMN: usize = 15;

fn main() {
    let params = cli_params(0.25);
    let cpu = ComputeModel::epyc_9124();
    println!(
        "Extension kernels — speedup over baseline CPU (32 ranks, scale {})\n",
        params.scale
    );
    // One column per target, each name right-aligned to its column's
    // end (a name wider than the column starts one space after the
    // previous one).
    let mut header = format!("{:<20}", "Kernel");
    for (i, target) in PimTarget::EXTENDED.into_iter().enumerate() {
        let end = 20 + COLUMN * (i + 1);
        let pad = end.saturating_sub(header.len() + target.name().len());
        header.push_str(&" ".repeat(pad.max(1)));
        header.push_str(target.name());
    }
    println!("{header}");
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for bench in extension_benchmarks() {
        let mut speedups = Vec::new();
        for target in PimTarget::EXTENDED {
            let factor = bench.paper_factor(&params).max(1.0);
            let serial = bench.serial_factor(&params).clamp(1.0, factor);
            let parallel = (factor / serial).max(1.0);
            let cfg = DeviceConfig::new(target, 32).with_decimation(parallel.round() as u64);
            let mut dev = Device::new(cfg).expect("device");
            let outcome = bench.run(&mut dev, &params).expect("extension kernel runs");
            assert!(outcome.verified, "{} on {target}", bench.spec().name);
            let mut stats = outcome.stats;
            stats.scale_kernel_and_copies(serial);
            stats.host_time_ms *= factor;
            let cpu_ms = cpu.runtime_ms(&bench.cpu_profile(&params)) * factor;
            speedups.push(cpu_ms / stats.total_time_ms());
        }
        rows.push((bench.spec().name.to_string(), speedups));
    }
    for (name, speedups) in rows {
        print!("{name:<20}");
        for s in speedups {
            print!(" {:>w$}", fmt_ratio(s), w = COLUMN - 1);
        }
        println!();
    }
}
