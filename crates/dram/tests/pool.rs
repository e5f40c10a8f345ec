//! Lifecycle and safety tests for the persistent executor behind
//! `pim_dram::exec`: worker reuse, nesting, panics, and fan-outs racing
//! a looping shutdown.
//!
//! The spawn-counter, live-worker, and shutdown assertions read
//! process-global pool state, and the libtest harness runs `#[test]`s
//! concurrently — a second test fanning out mid-shutdown would make
//! the counters racy. Every test in this binary therefore takes
//! [`pool_lock`] first.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use pim_dram::exec::{self, pool, MIN_CHUNK};

/// Serializes the tests in this binary (they share the process-global
/// pool). `into_inner` on poison: a failed test must not cascade.
fn pool_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn map_once(threads: usize, len: usize) -> Vec<i64> {
    let src: Vec<i64> = (0..len as i64).collect();
    exec::with_thread_count(threads, || par_sq(&src))
}

fn par_sq(src: &[i64]) -> Vec<i64> {
    let mut out = vec![0; src.len()];
    exec::par_map_into([src], &mut out, |[x]| x.wrapping_mul(x) ^ 0x5a);
    out
}

/// Steady state spawns nothing; shutdown joins every worker and the
/// pool restarts lazily afterwards.
#[test]
fn pool_lifecycle_spawns_once_then_reuses_workers() {
    let _serial = pool_lock();
    let len = 8 * MIN_CHUNK;
    let seq = exec::with_thread_count(1, || par_sq(&(0..len as i64).collect::<Vec<_>>()));

    // Warm the pool at the highest thread count this test uses.
    assert_eq!(map_once(4, len), seq);
    let spawned_warm = pool::spawned_workers_total();
    assert!(
        spawned_warm >= 1,
        "a 4-lane fan-out must have spawned workers"
    );

    // Steady state: many more fan-outs, zero new OS threads.
    for _ in 0..32 {
        assert_eq!(map_once(4, len), seq);
    }
    assert_eq!(
        pool::spawned_workers_total(),
        spawned_warm,
        "steady-state fan-outs must not spawn OS threads"
    );

    // Shutdown drains and joins every worker (no leak at process exit).
    pool::shutdown();
    assert_eq!(pool::live_workers(), 0, "shutdown must join all workers");

    // Repeated shutdown is a no-op, not a hang.
    pool::shutdown();
    assert_eq!(pool::live_workers(), 0);

    // The pool restarts lazily: fan-outs after shutdown still work and
    // spawn fresh workers exactly once.
    assert_eq!(map_once(4, len), seq);
    let spawned_restart = pool::spawned_workers_total();
    assert!(spawned_restart > spawned_warm, "restart spawns new workers");
    for _ in 0..8 {
        assert_eq!(map_once(4, len), seq);
    }
    assert_eq!(pool::spawned_workers_total(), spawned_restart);
}

/// Nested fan-outs (a chunk body that itself fans out) complete and
/// stay bit-identical to sequential — the caller of the inner job can
/// always drain it itself, so reentrancy cannot deadlock.
#[test]
fn nested_fanouts_are_reentrant_and_deterministic() {
    let _serial = pool_lock();
    let rows = 6usize;
    let cols = 4 * MIN_CHUNK;
    let expect: Vec<i64> = (0..rows as i64)
        .map(|r| (0..cols as i64).map(|c| (r * 31) ^ c).sum::<i64>())
        .collect();
    for threads in [1, 2, 4] {
        let got = exec::with_thread_count(threads, || {
            exec::par_chunks(rows, |rr| {
                rr.map(|r| {
                    // Inner fan-out from inside an outer chunk body.
                    exec::par_fold(
                        cols,
                        |cc| cc.map(|c| ((r as i64) * 31) ^ (c as i64)).sum::<i64>(),
                        |a, b| a + b,
                    )
                    .unwrap_or(0)
                })
                .collect::<Vec<i64>>()
            })
            .into_iter()
            .flatten()
            .collect::<Vec<i64>>()
        });
        assert_eq!(got, expect, "threads={threads}");
    }
}

/// The effective thread count can change between fan-outs (the serving
/// layer will do exactly this): the pool grows on demand and results
/// never change.
#[test]
fn thread_count_changes_between_calls_keep_results_identical() {
    let _serial = pool_lock();
    let len = 6 * MIN_CHUNK;
    let seq = map_once(1, len);
    for threads in [2, 7, 1, 4, 2, 7] {
        assert_eq!(map_once(threads, len), seq, "threads={threads}");
    }
    // Same through the process-wide override (pimbench --threads N).
    exec::set_thread_count(Some(3));
    let got = par_sq(&(0..len as i64).collect::<Vec<_>>());
    exec::set_thread_count(None);
    assert_eq!(got, seq);
}

/// A panic in a chunk body propagates to the caller and leaves the pool
/// usable for later fan-outs.
#[test]
fn chunk_panics_propagate_and_pool_survives() {
    let _serial = pool_lock();
    let len = 4 * MIN_CHUNK;
    let caught = std::panic::catch_unwind(|| {
        exec::with_thread_count(4, || {
            exec::par_chunks(len, |r| {
                assert!(r.start < len, "worker chunk misplanned");
                if r.start == 0 {
                    panic!("chunk zero exploded");
                }
                r.len()
            })
        })
    });
    let payload = caught.expect_err("chunk panic must reach the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("chunk zero exploded"), "payload: {msg}");
    // The pool still works after a panicked job.
    let seq = map_once(1, len);
    assert_eq!(map_once(4, len), seq);
}

/// An outer `par_fold` whose chunk bodies each run an inner `par_chunks`
/// fan-out; the total does not depend on how the outer loop is chunked.
fn nested_fold(threads: usize, len: usize) -> i64 {
    exec::with_thread_count(threads, || {
        exec::par_fold(
            len,
            |r| {
                let inner: i64 = exec::par_chunks(2 * MIN_CHUNK, |cc| {
                    cc.map(|c| (c as i64) * 3 - 1).sum::<i64>()
                })
                .into_iter()
                .sum();
                let own: i64 = r.clone().map(|i| i as i64).sum();
                (r.len() as i64).wrapping_mul(inner).wrapping_add(own)
            },
            i64::wrapping_add,
        )
        .unwrap_or(0)
    })
}

/// Four caller threads fan out while a fifth shuts the pool down in a
/// loop, so jobs keep meeting draining, exiting and respawning workers.
/// Every chunk index must run exactly once and every result must equal
/// the one-thread run: this drives the chunk-claim counter and the
/// join/leave protocol under worker churn.
#[test]
fn fanouts_stay_exact_while_the_pool_shuts_down_in_a_loop() {
    let _serial = pool_lock();
    let lens = [2 * MIN_CHUNK - 1, 2 * MIN_CHUNK, 9 * MIN_CHUNK + 7];
    let maps: Vec<Vec<i64>> = lens.iter().map(|&len| map_once(1, len)).collect();
    let folds: Vec<i64> = lens.iter().map(|&len| nested_fold(1, len)).collect();
    let stop = AtomicBool::new(false);
    // All five threads start together, so the churn overlaps the fan-outs.
    let start = Barrier::new(5);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                pool::shutdown();
                std::thread::yield_now();
            }
        });
        let callers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..8 {
                        for threads in [2, 3, 8] {
                            for (i, &len) in lens.iter().enumerate() {
                                let runs: Vec<AtomicUsize> =
                                    (0..len).map(|_| AtomicUsize::new(0)).collect();
                                let covered = exec::with_thread_count(threads, || {
                                    exec::par_chunks(len, |r| {
                                        for j in r.clone() {
                                            runs[j].fetch_add(1, Ordering::Relaxed);
                                        }
                                        r.len()
                                    })
                                });
                                assert_eq!(covered.iter().sum::<usize>(), len);
                                assert!(
                                    runs.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                                    "threads={threads} len={len}: an index ran other than once"
                                );
                                assert_eq!(map_once(threads, len), maps[i]);
                                assert_eq!(nested_fold(threads, len), folds[i]);
                            }
                        }
                    }
                })
            })
            .collect();
        let joined: Vec<_> = callers.into_iter().map(|c| c.join()).collect();
        stop.store(true, Ordering::Relaxed);
        for result in joined {
            if let Err(payload) = result {
                std::panic::resume_unwind(payload);
            }
        }
    });
    // The pool still serves fan-outs once the churn stops.
    assert_eq!(map_once(4, lens[2]), maps[2]);
}
