//! Functional-mode throughput of the parallel execution engine:
//! element-wise ops and reductions on a multi-million-element device,
//! plus one end-to-end VGG-13 inference, each measured across a
//! `--threads` sweep (default `1,2,4`) so the export's `speedups`
//! section is populated even when the default worker count is 1.
//! A stream section times fusible command pipelines both eagerly and
//! through a [`pimeval::CommandStream`], reporting host wall-clock and
//! modeled device cost side by side.
//!
//! Writes the measurements, per-op speedups, stream-vs-eager
//! comparisons, a `--ranks` sharding sweep (default `1,2,4`; each
//! point runs the op mix on a device sharded per DRAM rank) and the
//! timing-fidelity sweep to `BENCH_parallel.json` (override with
//! `--out <path>`).
//! The export records the host's core count, and `speedups` pairs the
//! single-thread rows only with the widest thread count that fits in
//! it: more threads than cores measure oversubscription, not scaling,
//! so on a single-core host the section is empty.

use pim_bench_harness::export::{
    parallel_runs_to_json, FidelityRun, ParallelRun, RankScalingRun, StreamVsEager,
};
use pim_bench_harness::microbench::{bench, bench_throughput, group};
use pim_bench_harness::run_one;
use pimbench::Params;
use pimeval::{exec, DataType, Device, DeviceConfig, PimTarget, RowPattern, TimingBackend};

/// Elements per device object: large enough that every op fans out
/// across many `exec::MIN_CHUNK` chunks.
const N: u64 = 4 * 1024 * 1024;

fn engine_runs(threads: usize, out: &mut Vec<ParallelRun>) {
    exec::with_thread_count(threads, || {
        let mut dev = Device::new(DeviceConfig::new(PimTarget::Fulcrum, 2)).unwrap();
        let host: Vec<i32> = (0..N as i32)
            .map(|i| i.wrapping_mul(2654435761u32 as i32))
            .collect();
        let a = dev.alloc(N, DataType::Int32).unwrap();
        let b = dev.alloc_associated(a, DataType::Int32).unwrap();
        let dst = dev.alloc_associated(a, DataType::Int32).unwrap();
        dev.copy_to_device(&host, a).unwrap();
        dev.copy_to_device(&host, b).unwrap();

        group(&format!("functional ops, {N} × int32, {threads} thread(s)"));
        let mut record = |name: &str, m: pim_bench_harness::microbench::Measurement| {
            out.push(ParallelRun {
                name: name.into(),
                threads,
                elems: N,
                mean_ns: m.mean.as_nanos(),
                min_ns: m.min.as_nanos(),
            });
        };
        record(
            "add",
            bench_throughput("add", N, || dev.add(a, b, dst).unwrap()),
        );
        record(
            "mul",
            bench_throughput("mul", N, || dev.mul(a, b, dst).unwrap()),
        );
        record(
            "lt",
            bench_throughput("lt", N, || dev.lt(a, b, dst).unwrap()),
        );
        record(
            "red_sum",
            bench_throughput("red_sum", N, || dev.red_sum(a).unwrap()),
        );
        record(
            "red_max",
            bench_throughput("red_max", N, || dev.red_max(a).unwrap()),
        );
        record(
            "copy_to_device",
            bench_throughput("copy_to_device", N, || {
                dev.copy_to_device(&host, dst).unwrap()
            }),
        );
        let mut back = vec![0i32; N as usize];
        record(
            "copy_to_host",
            bench_throughput("copy_to_host", N, || {
                dev.copy_to_host(a, &mut back).unwrap()
            }),
        );

        // End-to-end: a full (scaled-down) VGG-13 inference through the
        // benchmark harness — dominated by functional GEMM/conv work.
        let cfg = DeviceConfig::new(PimTarget::Fulcrum, 2);
        let params = Params {
            scale: 0.01,
            seed: 42,
            ..Params::default()
        };
        let m = bench("vgg13-e2e", || run_one("VGG-13", &cfg, &params));
        out.push(ParallelRun {
            name: "vgg13-e2e".into(),
            threads,
            elems: 0,
            mean_ns: m.mean.as_nanos(),
            min_ns: m.min.as_nanos(),
        });
    });
}

/// Times the fusible pipelines eagerly and streamed. Wall-clock comes
/// from the microbench loop; modeled cost from one instrumented pass of
/// each variant (`reset_stats` between them so the kernel-time delta is
/// exactly the pipeline's).
fn stream_vs_eager_runs(threads: usize, out: &mut Vec<StreamVsEager>) {
    exec::with_thread_count(threads, || {
        let mut dev = Device::new(DeviceConfig::new(PimTarget::Fulcrum, 2)).unwrap();
        let host: Vec<i32> = (0..N as i32)
            .map(|i| i.wrapping_mul(2654435761u32 as i32))
            .collect();
        let a = dev.alloc(N, DataType::Int32).unwrap();
        let b = dev.alloc_associated(a, DataType::Int32).unwrap();
        let t = dev.alloc_associated(a, DataType::Int32).unwrap();
        let dst = dev.alloc_associated(a, DataType::Int32).unwrap();
        dev.copy_to_device(&host, a).unwrap();
        dev.copy_to_device(&host, b).unwrap();

        group(&format!(
            "stream vs eager, {N} × int32, {threads} thread(s)"
        ));
        let mut record = |name: &str,
                          dev: &mut Device,
                          eager: &mut dyn FnMut(&mut Device),
                          stream: &mut dyn FnMut(&mut Device)| {
            let me = bench_throughput(&format!("{name} (eager)"), N, || eager(&mut *dev));
            let ms = bench_throughput(&format!("{name} (stream)"), N, || stream(&mut *dev));
            dev.reset_stats();
            eager(dev);
            let eager_modeled_ms = dev.stats().kernel_time_ms();
            dev.reset_stats();
            stream(dev);
            let stream_modeled_ms = dev.stats().kernel_time_ms();
            out.push(StreamVsEager {
                name: name.into(),
                threads,
                elems: N,
                eager_mean_ns: me.mean.as_nanos(),
                eager_min_ns: me.min.as_nanos(),
                stream_mean_ns: ms.mean.as_nanos(),
                stream_min_ns: ms.min.as_nanos(),
                eager_modeled_ms,
                stream_modeled_ms,
            });
        };

        // mul_scalar + add → one scaled_add command after the flush.
        record(
            "axpy-pair",
            &mut dev,
            &mut |d| {
                d.mul_scalar(a, 7, t).unwrap();
                d.add(t, b, dst).unwrap();
            },
            &mut |d| {
                let mut s = d.stream();
                s.mul_scalar(a, 7, t).add(t, b, dst);
                s.flush().unwrap();
            },
        );
        // lt + select → one fused compare-select (the mask dies unread).
        record(
            "lt-select",
            &mut dev,
            &mut |d| {
                d.lt(a, b, t).unwrap();
                d.select(t, a, b, dst).unwrap();
            },
            &mut |d| {
                let mut s = d.stream();
                s.lt(a, b, t).select(t, a, b, dst);
                s.flush().unwrap();
            },
        );
        // A K-means-style distance chain whose weighted sum is consumed
        // non-adjacently (an unrelated mask sits between the scalar
        // multiply and the add) and whose distance is recomputed
        // verbatim later: the flush fuses across the gap and rewrites
        // the recompute into copies, so its modeled cost is strictly
        // below eager issue's.
        let [c, d1, a1, sc, msk, o, d2, a2] =
            [(); 8].map(|_| dev.alloc_associated(a, DataType::Int32).unwrap());
        dev.copy_to_device(&host, c).unwrap();
        let eager = |d: &mut Device| {
            d.sub(a, c, d1).unwrap();
            d.abs(d1, a1).unwrap();
            d.mul_scalar(a1, 3, sc).unwrap();
            d.lt(a, c, msk).unwrap();
            d.add(sc, b, o).unwrap();
            d.sub(a, c, d2).unwrap();
            d.abs(d2, a2).unwrap();
        };
        let stream = |d: &mut Device| {
            let mut st = d.stream();
            st.sub(a, c, d1).abs(d1, a1);
            st.mul_scalar(a1, 3, sc); // producer …
            st.lt(a, c, msk); // … separated from its consumer
            st.add(sc, b, o); // → scaled-add fusion across the gap
            st.sub(a, c, d2).abs(d2, a2); // verbatim recompute → CSE
            st.flush().unwrap()
        };
        record("kmeans-dist-reuse", &mut dev, &mut |d| eager(d), &mut |d| {
            stream(d);
        });
        let outputs = |d: &mut Device| -> Vec<Vec<i32>> {
            [o, d2, a2]
                .iter()
                .map(|&id| d.to_vec(id).unwrap())
                .collect()
        };
        eager(&mut dev);
        let eager_out = outputs(&mut dev);
        let summary = stream(&mut dev);
        assert_eq!(eager_out, outputs(&mut dev), "stream must be bit-identical");
        assert!(summary.cse_hits >= 2, "recompute must CSE into copies");
        let row = out.last().unwrap();
        assert!(
            row.stream_modeled_ms < row.eager_modeled_ms,
            "the stream must strictly beat eager issue: {} ms vs {} ms",
            row.stream_modeled_ms,
            row.eager_modeled_ms
        );
    });
}

/// Sweeps the same op mix over rank-sharded devices: `ranks` DRAM
/// ranks, one shard per rank. Each op is timed on the host
/// and then run once instrumented so the export records the modeled
/// kernel time alongside the (separately ledgered) cross-rank
/// interconnect traffic.
fn rank_scaling_runs(ranks_list: &[usize], out: &mut Vec<RankScalingRun>) {
    let host: Vec<i32> = (0..N as i32)
        .map(|i| i.wrapping_mul(2654435761u32 as i32))
        .collect();
    for &ranks in ranks_list {
        let cfg = DeviceConfig::new(PimTarget::Fulcrum, ranks.max(1)).sharded_per_rank();
        let mut dev = Device::new(cfg).unwrap();
        let a = dev.alloc(N, DataType::Int32).unwrap();
        let b = dev.alloc_associated(a, DataType::Int32).unwrap();
        let dst = dev.alloc_associated(a, DataType::Int32).unwrap();
        dev.copy_to_device(&host, a).unwrap();
        dev.copy_to_device(&host, b).unwrap();

        group(&format!("rank scaling, {N} × int32, {ranks} rank-shard(s)"));
        let mut record = |name: &str, dev: &mut Device, op: &mut dyn FnMut(&mut Device)| {
            let m = bench_throughput(name, N, || op(&mut *dev));
            dev.reset_stats();
            op(dev);
            out.push(RankScalingRun {
                name: name.into(),
                ranks,
                elems: N,
                mean_ns: m.mean.as_nanos(),
                min_ns: m.min.as_nanos(),
                kernel_ms: dev.stats().kernel_time_ms(),
                interconnect_ms: dev.stats().interconnect.time_ms,
                interconnect_bytes: dev.stats().interconnect.total_bytes(),
            });
        };
        record("add", &mut dev, &mut |d| d.add(a, b, dst).unwrap());
        record("red_sum", &mut dev, &mut |d| {
            d.red_sum(a).unwrap();
        });
        record("copy_to_device", &mut dev, &mut |d| {
            d.copy_to_device(&host, dst).unwrap()
        });
    }
}

/// Timing-model fidelity sweep: each modeled op priced three ways —
/// analytical, bank-FSM streaming (must agree bit-for-bit at zero
/// contention), and bank-FSM thrashing (the protocol-serialization
/// upper bound the closed form cannot see) — on model-only devices so
/// the numbers are pure cost-model output. Row-buffer hit/miss counts
/// come from the streaming FSM pass.
fn fidelity_runs(out: &mut Vec<FidelityRun>) {
    const FN: u64 = 1 << 20;
    let host: Vec<i32> = vec![0; FN as usize];
    for target in [PimTarget::Fulcrum, PimTarget::BitSerial] {
        group(&format!("timing fidelity, {FN} × int32, {target:?}"));
        let mk = |backend, pattern| {
            let cfg = DeviceConfig::new(target, 2)
                .model_only()
                .with_timing_backend(backend)
                .with_row_pattern(pattern);
            let mut dev = Device::new(cfg).unwrap();
            let a = dev.alloc(FN, DataType::Int32).unwrap();
            let b = dev.alloc_associated(a, DataType::Int32).unwrap();
            let dst = dev.alloc_associated(a, DataType::Int32).unwrap();
            (dev, a, b, dst)
        };
        let mut analytical = mk(TimingBackend::Analytical, RowPattern::Streaming);
        let mut fsm = mk(TimingBackend::BankFsm, RowPattern::Streaming);
        let mut thrash = mk(TimingBackend::BankFsm, RowPattern::Thrashing);

        let mut record = |name: &str,
                          op: &mut dyn FnMut(
            &mut Device,
            pimeval::ObjId,
            pimeval::ObjId,
            pimeval::ObjId,
        )| {
            // Each variant measures one pass from a quiescent rank
            // (reset_stats also resets the FSM bank state).
            let mut pass = |v: &mut (Device, pimeval::ObjId, pimeval::ObjId, pimeval::ObjId)| {
                v.0.reset_stats();
                op(&mut v.0, v.1, v.2, v.3);
                v.0.stats().total_time_ms()
            };
            let analytical_ms = pass(&mut analytical);
            let fsm_ms = pass(&mut fsm);
            let fsm_thrash_ms = pass(&mut thrash);
            let run = FidelityRun {
                name: name.into(),
                target: format!("{target:?}"),
                elems: FN,
                analytical_ms,
                fsm_ms,
                fsm_thrash_ms,
                dram: fsm.0.stats().dram_protocol,
            };
            println!(
                "{name:<16} analytical {analytical_ms:>12.6} ms  fsm {fsm_ms:>12.6} ms \
                 (Δ {:+.4}%)  thrash {fsm_thrash_ms:>12.6} ms ({:.2}x)  hit rate {:.2}%",
                run.delta_pct(),
                run.thrash_slowdown(),
                run.dram.hit_rate() * 100.0
            );
            out.push(run);
        };
        record("add", &mut |d, a, b, dst| d.add(a, b, dst).unwrap());
        record("mul", &mut |d, a, b, dst| d.mul(a, b, dst).unwrap());
        record("red_sum", &mut |d, a, _, _| {
            d.red_sum(a).unwrap();
        });
        record("copy_to_device", &mut |d, _, _, dst| {
            d.copy_to_device(&host, dst).unwrap()
        });
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_parallel.json".into());
    let list_arg = |flag: &str, default: &[usize]| -> Vec<usize> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|s| {
                s.split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .filter(|&r| r >= 1)
                    .collect()
            })
            .unwrap_or_else(|| default.to_vec())
    };
    let ranks_list = list_arg("--ranks", &[1, 2, 4]);
    let mut threads_list = list_arg("--threads", &[1, 2, 4]);
    threads_list.sort_unstable();
    threads_list.dedup();
    if !threads_list.contains(&1) {
        threads_list.insert(0, 1);
    }

    let default_threads = exec::thread_count();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parallel execution engine benchmark — default {default_threads} worker(s) on \
         {host_cores} host core(s), sweeping {threads_list:?}"
    );

    let mut runs = Vec::new();
    for &threads in &threads_list {
        engine_runs(threads, &mut runs);
    }

    // One thread on every host: the rows are keyed by `(name, threads)`,
    // so a fixed count keeps `bench_regress`'s hard-fail modeled-cost
    // gate matching them against the committed baseline.
    let mut stream_runs = Vec::new();
    stream_vs_eager_runs(1, &mut stream_runs);

    let mut rank_runs = Vec::new();
    rank_scaling_runs(&ranks_list, &mut rank_runs);

    let mut fidelity = Vec::new();
    fidelity_runs(&mut fidelity);

    let json = parallel_runs_to_json(
        default_threads,
        host_cores,
        &runs,
        &stream_runs,
        &rank_runs,
        &fidelity,
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {} measurement(s) to {out_path}", runs.len()),
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    let top = threads_list
        .iter()
        .copied()
        .filter(|&t| t > 1 && t <= host_cores)
        .max();
    if let Some(top) = top {
        group(&format!("speedup (min-time ratio, 1 thread / {top})"));
        for base in runs.iter().filter(|r| r.threads == 1) {
            if let Some(par) = runs
                .iter()
                .find(|r| r.threads == top && r.name == base.name)
            {
                println!(
                    "{:<44} {:>8.2}x",
                    base.name,
                    base.min_ns as f64 / par.min_ns as f64
                );
            }
        }
    }

    group("stream vs eager (fused pipelines)");
    println!(
        "{:<20} {:>14} {:>16} {:>18} {:>12}",
        "pipeline", "wall speedup", "modeled eager ms", "modeled stream ms", "cost ratio"
    );
    for s in &stream_runs {
        println!(
            "{:<20} {:>13.2}x {:>16.6} {:>18.6} {:>12.4}",
            s.name,
            s.wall_speedup(),
            s.eager_modeled_ms,
            s.stream_modeled_ms,
            s.modeled_cost_ratio()
        );
    }

    group("rank scaling (sharded per rank)");
    println!(
        "{:<18} {:>6} {:>12} {:>14} {:>18} {:>18}",
        "op", "ranks", "Melem/s", "kernel ms", "interconnect ms", "interconnect B"
    );
    for r in &rank_runs {
        println!(
            "{:<18} {:>6} {:>12.1} {:>14.6} {:>18.6} {:>18}",
            r.name,
            r.ranks,
            r.melem_per_s(),
            r.kernel_ms,
            r.interconnect_ms,
            r.interconnect_bytes
        );
    }
}
