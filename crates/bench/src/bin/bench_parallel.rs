//! Functional-mode throughput of the parallel execution engine:
//! element-wise ops and reductions on a multi-million-element device,
//! plus one end-to-end VGG-13 inference, each measured across a
//! `--threads` sweep (default `1,2,4`) so the export's `speedups`
//! section is populated even when the default worker count is 1.
//! A stream section times fusible command pipelines both eagerly and
//! through a [`pimeval::CommandStream`], reporting host wall-clock and
//! modeled device cost side by side.
//!
//! Two pool-specific sections exercise the persistent work-stealing
//! executor directly: a dispatch-latency microbenchmark (a tiny
//! `par_map_into` through the pool vs. an inline replica of the old
//! scoped-spawn engine) and a deliberately skewed RoundRobin shard map
//! with mixed bit-widths, timed with stealing on (oversubscribed
//! chunks) and off (one chunk per lane — the even split).
//!
//! Writes the measurements, per-op speedups, stream-vs-eager
//! comparisons, a `--ranks` sharding sweep (default `1,2,4`; each
//! point runs the op mix on a device sharded per DRAM rank), the
//! imbalance section, and the fan-out overhead section to
//! `BENCH_parallel.json` (override with `--out <path>`).
//! The export records the host's core count, and `speedups` pairs the
//! single-thread rows only with the widest thread count that fits in
//! it: more threads than cores measure oversubscription, not scaling,
//! so on a single-core host the section is empty.

use pim_bench_harness::export::{
    parallel_runs_to_json, FanoutOverhead, FidelityRun, ImbalanceRun, ParallelRun, RankScalingRun,
    StreamVsEager,
};
use pim_bench_harness::microbench::{bench, bench_throughput, group};
use pim_bench_harness::run_one;
use pimbench::Params;
use pimeval::pim_dram::DramGeometry;
use pimeval::{
    exec, DataType, Device, DeviceConfig, PimTarget, RowPattern, ShardPolicy, TimingBackend,
};

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
            "copy_to_device",
            bench_throughput("copy_to_device", N, || {
                dev.copy_to_device(&host, dst).unwrap()
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
/// ranks, one execution shard per rank. Each op is timed on the host
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

/// Dispatch-latency microbenchmark: one tiny `par_map_into` fan-out —
/// work small enough that scheduling overhead dominates — through the
/// persistent pool, and through an inline replica of the engine this PR
/// replaced (fresh scoped OS threads on every call).
fn fanout_overhead_run(threads: usize) -> FanoutOverhead {
    // Four MIN_CHUNK-sized lanes: the smallest input that still fans
    // out across `threads = 4` workers.
    let len = threads * exec::MIN_CHUNK;
    let src: Vec<i64> = (0..len as i64).collect();
    let mut out = vec![0i64; len];
    let step = |x: &i64| x.wrapping_mul(31) ^ 0x5a;

    group(&format!(
        "fan-out dispatch overhead, {len} × int64, {threads} thread(s)"
    ));
    let pool = exec::with_thread_count(threads, || {
        bench("pool par_map_into", || {
            exec::par_map_into(&src, &mut out, step)
        })
    });
    let expect = out.clone();

    // The pre-pool engine, verbatim in miniature: split evenly, spawn a
    // scoped OS thread per non-caller lane, join at scope exit.
    let spawn = bench("scoped-spawn baseline", || {
        let chunk = len.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut rest = out.as_mut_slice();
            let mut start = 0usize;
            let mut lanes = Vec::new();
            while !rest.is_empty() {
                let take = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                let src = &src[start..start + take];
                lanes.push(scope.spawn(move || {
                    for (o, s) in head.iter_mut().zip(src) {
                        *o = step(s);
                    }
                }));
                rest = tail;
                start += take;
            }
            for lane in lanes {
                lane.join().unwrap();
            }
        });
    });
    assert_eq!(out, expect, "both dispatch paths must agree");

    FanoutOverhead {
        threads,
        elems: len as u64,
        pool_mean_ns: pool.mean.as_nanos(),
        pool_min_ns: pool.min.as_nanos(),
        spawn_mean_ns: spawn.mean.as_nanos(),
        spawn_min_ns: spawn.min.as_nanos(),
    }
}

/// Skewed-shard workload: a RoundRobin map over 7 shards dealing a
/// handful of huge allocation units (wide-column geometry makes each
/// unit hundreds of thousands of elements), so some shards own up to
/// 2× the elements of others — exactly the imbalance the paper's
/// heterogeneous-bit-width batches produce. Timed once with stealing
/// disabled (one chunk per lane: the old even split) and once with the
/// pool's oversubscribed default.
fn imbalance_run(threads: usize) -> ImbalanceRun {
    // 8 Fulcrum cores (16 subarrays / 2) with 2^21-column rows: unit
    // sizes are cols/bits elements, so object sizes a few units long
    // leave the RoundRobin deal visibly lopsided across 7 shards.
    let geometry = DramGeometry {
        ranks: 1,
        banks_per_rank: 2,
        subarrays_per_bank: 8,
        rows_per_subarray: 4096,
        cols_per_row: 1 << 21,
    };
    let shards = 7usize;
    let cfg = DeviceConfig::new(PimTarget::Fulcrum, 1)
        .with_geometry(geometry)
        .with_shards(shards)
        .with_shard_policy(ShardPolicy::RoundRobin);
    let mut dev = Device::new(cfg).unwrap();

    // Mixed bit-widths: unit sizes differ 8× between Int8 and Int64, so
    // per-shard element counts differ even further (3-vs-2 units of
    // Int32, 2-vs-1 of Int8, 4-vs-3 of Int64).
    let n32 = 15 * ((1u64 << 21) / 32); // 983_040
    let n8 = 8 * ((1u64 << 21) / 8); // 2_097_152
    let n64 = 22 * ((1u64 << 21) / 64); // 720_896
    let mut ids = Vec::new();
    let mut alloc3 = |dev: &mut Device, n: u64, dt: DataType| {
        let a = dev.alloc(n, dt).unwrap();
        let b = dev.alloc_associated(a, dt).unwrap();
        let dst = dev.alloc_associated(a, dt).unwrap();
        ids.push((a, b, dst));
    };
    alloc3(&mut dev, n32, DataType::Int32);
    alloc3(&mut dev, n8, DataType::Int8);
    alloc3(&mut dev, n64, DataType::Int64);
    let h32: Vec<i32> = (0..n32 as i32)
        .map(|i| i.wrapping_mul(0x9E3779B1u32 as i32))
        .collect();
    let h8: Vec<i8> = (0..n8).map(|i| (i as i8).wrapping_mul(37)).collect();
    let h64: Vec<i64> = (0..n64 as i64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    dev.copy_to_device(&h32, ids[0].0).unwrap();
    dev.copy_to_device(&h32, ids[0].1).unwrap();
    dev.copy_to_device(&h8, ids[1].0).unwrap();
    dev.copy_to_device(&h8, ids[1].1).unwrap();
    dev.copy_to_device(&h64, ids[2].0).unwrap();
    dev.copy_to_device(&h64, ids[2].1).unwrap();

    let batch = |dev: &mut Device| {
        for &(a, b, dst) in &ids {
            dev.add(a, b, dst).unwrap();
            dev.mul(a, b, dst).unwrap();
        }
    };

    group(&format!(
        "shard imbalance, RoundRobin over {shards} skewed shards, {threads} thread(s)"
    ));
    let (even, steal) = exec::with_thread_count(threads, || {
        // One chunk per lane: shards are pre-assigned to workers up
        // front and a finished worker has nothing to take over.
        let even = exec::with_chunks_per_worker(1, || {
            bench("even split (no stealing)", || batch(&mut dev))
        });
        let steal = bench("oversubscribed (stealing)", || batch(&mut dev));
        (even, steal)
    });

    ImbalanceRun {
        name: "rr-skew-mixed-width".into(),
        threads,
        shards,
        elems: n32 + n8 + n64,
        even_mean_ns: even.mean.as_nanos(),
        even_min_ns: even.min.as_nanos(),
        steal_mean_ns: steal.mean.as_nanos(),
        steal_min_ns: steal.min.as_nanos(),
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
            let dp = &fsm.0.stats().dram_protocol;
            let run = FidelityRun {
                name: name.into(),
                target: format!("{target:?}"),
                elems: FN,
                analytical_ms,
                fsm_ms,
                fsm_thrash_ms,
                row_hits: dp.row_hits,
                row_misses: dp.row_misses,
            };
            println!(
                "{name:<16} analytical {analytical_ms:>12.6} ms  fsm {fsm_ms:>12.6} ms \
                 (Δ {:+.4}%)  thrash {fsm_thrash_ms:>12.6} ms ({:.2}x)  hit rate {:.2}%",
                run.delta_pct(),
                run.thrash_slowdown(),
                run.hit_rate() * 100.0
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

    let pool_threads = threads_list.iter().copied().max().unwrap_or(1).max(4);
    let overhead = fanout_overhead_run(pool_threads);
    let imbalance = imbalance_run(pool_threads);

    let mut fidelity = Vec::new();
    fidelity_runs(&mut fidelity);

    let json = parallel_runs_to_json(
        default_threads,
        host_cores,
        &runs,
        &stream_runs,
        &rank_runs,
        std::slice::from_ref(&imbalance),
        Some(&overhead),
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

    group("pool sections (dispatch overhead, shard imbalance)");
    println!(
        "fan-out dispatch: pool {:>10} ns vs spawn {:>10} ns  →  {:>6.1}x cheaper",
        overhead.pool_min_ns,
        overhead.spawn_min_ns,
        overhead.dispatch_speedup()
    );
    println!(
        "skewed shards:    steal {:>9} ns vs even  {:>9} ns  →  {:>6.2}x win",
        imbalance.steal_min_ns,
        imbalance.even_min_ns,
        imbalance.steal_speedup()
    );

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
