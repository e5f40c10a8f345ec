//! Std-only parallel execution engine for the simulator's hot paths.
//!
//! The functional simulator spends nearly all of its time in three loop
//! shapes: element-wise maps over `i64` buffers (`pimeval::cmd`'s
//! per-command loops), host↔device conversion packing, and word-wide
//! column sweeps in the bit-serial VM. This module gives all of them one
//! chunked fan-out primitive running on a lazily-initialized
//! **persistent pool** ([`pool`]) — no third-party crates — sized by the
//! `PIM_THREADS` environment variable (default:
//! [`std::thread::available_parallelism`]).
//!
//! # Scheduling
//!
//! Workers are spawned once (on the first fan-out that needs them) and
//! then parked on a condvar between jobs; steady-state fan-outs spawn
//! zero OS threads, and [`par_map_into`] and [`par_map_in_place`]
//! allocate nothing. Each fan-out splits its index space into up to
//! [`CHUNKS_PER_WORKER`] chunks per
//! worker, and every participant claims the next chunk id from one
//! shared counter until none are left, so a participant whose chunks
//! ran fast takes more of them instead of idling. The caller always
//! participates in its own job (and can drain it entirely by itself),
//! which is what makes nested fan-outs from inside a chunk body
//! deadlock-free.
//!
//! # Determinism
//!
//! Results are bit-identical to sequential execution for every thread
//! count: the counter decides which *worker* runs a chunk, never where
//! its output goes. Chunk `i` of a fan-out always covers the same index
//! range, writes the same disjoint output sub-slice, and reductions fold
//! per-chunk partials in ascending chunk order on the calling thread.
//! The determinism suite in
//! `crates/core/tests/determinism.rs` asserts this across every target
//! and op class.
//!
//! # Unsafe boundaries
//!
//! Two narrow `unsafe` regions, both contained here: the pool erases
//! the borrow lifetime of a fan-out's closure and reaches registered
//! jobs through raw pointers (sound because the caller's stack frame
//! outlives every participant, enforced by the participant-count
//! protocol in [`pool`]), and `SharedSlice` hands disjoint output
//! indices to concurrent chunks (sound because chunk ranges partition
//! `0..len` and each chunk id is claimed once). Everything above those
//! two primitives is safe code.
//!
//! # Sizing
//!
//! Fan-out only happens when every worker gets at least [`MIN_CHUNK`]
//! elements, so small operations (including almost all bit-slice VM row
//! sweeps at paper-default subarray widths) stay on the calling thread
//! and pay zero overhead. The thread count is resolved lazily, in
//! priority order:
//!
//! 1. a thread-local override installed by [`with_thread_count`]
//!    (used by the determinism tests and the `bench_parallel` harness),
//! 2. a process-wide override from [`set_thread_count`]
//!    (used by `pimbench --threads N`),
//! 3. the `PIM_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod pool {
    //! The persistent executor plus its wall-clock occupancy hooks.
    //!
    //! # Lifecycle
    //!
    //! The executor is a process global, created on first use. Workers
    //! (`pim-pool-N` threads) spawn lazily the first time a fan-out
    //! wants them and then live forever, parked on a condvar; the spawn
    //! counter ([`spawned_workers_total`]) lets tests assert that
    //! steady-state fan-outs spawn nothing. [`shutdown`] drains and
    //! joins every worker (the pool restarts lazily afterwards), for
    //! leak-checking and clean process exit.
    //!
    //! # A fan-out (one `Job`)
    //!
    //! The caller splits `0..len` into `chunks` contiguous ranges; every
    //! participant, the caller included, claims chunk ids from the job's
    //! one `next` counter with `fetch_add` until they run out. The job —
    //! including the borrowed, lifetime-erased task closure — lives on
    //! the caller's stack; a participant count pins it: workers join a
    //! job only under the registry lock (where the caller also
    //! deregisters), and the caller returns only once every participant
    //! has left and every chunk has completed, so no reference can
    //! dangle. Panics in chunk bodies are caught per chunk, the first
    //! one is rethrown on the caller after the job drains.
    //!
    //! # Profiling
    //!
    //! With profiling disabled (the default) every fan-out pays exactly
    //! one relaxed atomic load; no clocks are read and no locks taken.
    //! With [`enable`]d profiling, each worker slot accumulates the
    //! wall time it spent in chunk bodies, and the caller accumulates
    //! the time it waited joining workers once no chunk was left to
    //! claim (idle/imbalance time). Worker slots are stable across jobs: slot
    //! 0 is whichever thread called the fan-out, slot `n ≥ 1` is the
    //! persistent worker `pim-pool-n`. Two attribution caveats follow
    //! from that mapping: every non-pool caller thread shares slot 0,
    //! and a chunk run from inside another timed chunk body (a nested
    //! fan-out) is *not* recorded separately — the outer chunk's wall
    //! time already covers it, so `busy_ns`/`chunks` count only
    //! outermost chunk executions per thread.
    //!
    //! These are **wall-clock** quantities: unlike everything in
    //! `pimeval::metrics` they vary run to run and across machines, so
    //! exporters keep them in a separate, explicitly non-deterministic
    //! section (`pimbench --profile` writes them under `"pool"`),
    //! excluded from bit-identical snapshot comparisons.

    use std::cell::Cell;
    use std::ops::Range;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    /// Hard cap on lanes (participants, and therefore pool workers)
    /// per job.
    pub const MAX_LANES: usize = 64;

    /// One worker slot's accumulated activity (slot 0 is the calling
    /// thread; slots 1+ are persistent pool workers).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WorkerSample {
        /// Wall time spent executing chunk bodies (ns).
        pub busy_ns: u128,
        /// Chunks executed.
        pub chunks: u64,
    }

    /// A copy of the pool's accumulated occupancy counters.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct PoolSnapshot {
        /// Fan-outs that went through the worker pool.
        pub fanouts: u64,
        /// Loops that stayed on the calling thread (short input or one
        /// worker configured).
        pub sequential_runs: u64,
        /// Wall time the caller spent waiting on other participants'
        /// chunks once no chunk was left to claim (ns) — the pool's
        /// imbalance signal.
        pub caller_wait_ns: u128,
        /// Per-slot activity, indexed by worker slot.
        pub workers: Vec<WorkerSample>,
    }

    impl PoolSnapshot {
        /// Renders the snapshot as a JSON object (std-only writer).
        pub fn to_json(&self) -> String {
            let workers: Vec<String> = self
                .workers
                .iter()
                .map(|w| format!("{{\"busy_ns\":{},\"chunks\":{}}}", w.busy_ns, w.chunks))
                .collect();
            format!(
                "{{\"fanouts\":{},\"sequential_runs\":{},\"caller_wait_ns\":{},\
                 \"workers\":[{}]}}",
                self.fanouts,
                self.sequential_runs,
                self.caller_wait_ns,
                workers.join(",")
            )
        }
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);

    fn state() -> MutexGuard<'static, PoolSnapshot> {
        static STATE: OnceLock<Mutex<PoolSnapshot>> = OnceLock::new();
        STATE
            .get_or_init(|| Mutex::new(PoolSnapshot::default()))
            .lock()
            .expect("pool profiling state poisoned")
    }

    /// Starts accumulating occupancy (process-wide).
    pub fn enable() {
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Stops accumulating; counters keep their values until [`reset`].
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// True while profiling is accumulating.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Clears every counter.
    pub fn reset() {
        *state() = PoolSnapshot::default();
    }

    /// A copy of the current counters.
    pub fn snapshot() -> PoolSnapshot {
        state().clone()
    }

    /// Counts one loop that stayed on the calling thread (a no-op
    /// unless profiling is [`enable`]d).
    pub(crate) fn note_sequential() {
        if enabled() {
            state().sequential_runs += 1;
        }
    }

    fn note_fanout(workers: usize) {
        let mut s = state();
        s.fanouts += 1;
        if s.workers.len() < workers {
            s.workers.resize(workers, WorkerSample::default());
        }
    }

    fn record_worker(slot: usize, busy_ns: u128) {
        // A fan-out can still be in flight when profiling is turned off
        // and the counters reset; its chunks captured `profiling` at
        // dispatch time, so without this gate their late records would
        // resurrect stale samples into the freshly reset snapshot.
        if !enabled() {
            return;
        }
        let mut s = state();
        if s.workers.len() <= slot {
            s.workers.resize(slot + 1, WorkerSample::default());
        }
        s.workers[slot].busy_ns += busy_ns;
        s.workers[slot].chunks += 1;
    }

    pub(super) fn record_caller_wait(ns: u128) {
        // Same disable()+reset() race as record_worker.
        if !enabled() {
            return;
        }
        state().caller_wait_ns += ns;
    }

    thread_local! {
        /// True while this thread is inside a timed chunk body; nested
        /// fan-outs from within it skip recording (see [`timed`]).
        static IN_TIMED: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f`, charging its wall time to worker `slot` when
    /// `profiling` — callers hoist the enabled check out of the loop so
    /// disabled runs never read a clock.
    ///
    /// A chunk executed from inside another timed chunk body (a nested
    /// fan-out the current thread participates in) records nothing: the
    /// outer chunk's wall time already covers it, so recording both
    /// would double-count `busy_ns` for the slot.
    pub(super) fn timed<R>(profiling: bool, slot: usize, f: impl FnOnce() -> R) -> R {
        if !profiling || IN_TIMED.with(Cell::get) {
            return f();
        }
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                IN_TIMED.with(|c| c.set(false));
            }
        }
        IN_TIMED.with(|c| c.set(true));
        let _reset = Reset;
        let t0 = Instant::now();
        let out = f();
        record_worker(slot, t0.elapsed().as_nanos());
        out
    }

    // ------------------------------------------------------------------
    // The executor
    // ------------------------------------------------------------------

    type Task<'a> = &'a (dyn Fn(usize, Range<usize>) + Sync);

    /// One fan-out, allocated on the caller's stack. See the module
    /// docs for the ownership protocol that keeps the erased `task`
    /// reference alive for every participant.
    struct Job {
        /// The chunk body, lifetime-erased (see [`run`]).
        task: Task<'static>,
        len: usize,
        chunks: usize,
        /// The caller's effective thread count, re-installed on every
        /// participating worker so nested fan-outs see the caller's
        /// budget, not the worker's default.
        tc: usize,
        profiling: bool,
        /// The next unclaimed chunk id. Claims only need `fetch_add`'s
        /// atomicity: the registry lock publishes the job to workers,
        /// and `completed` publishes the chunks' writes to the caller.
        next: AtomicUsize,
        /// Chunks fully executed.
        completed: AtomicUsize,
        /// Threads currently holding a reference to this job (the
        /// caller counts from construction to final wait).
        participants: AtomicUsize,
        /// First panic payload from any chunk body.
        panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
        /// Caller parks here until `completed == chunks` and
        /// `participants == 0`.
        gate: Mutex<()>,
        cv: Condvar,
    }

    impl Job {
        /// True while a chunk is left to claim. A stale read is harmless:
        /// a worker then joins a drained job and leaves, or skips a job
        /// whose caller drains it alone.
        fn has_work(&self) -> bool {
            self.next.load(Ordering::Relaxed) < self.chunks
        }

        /// Executes chunk `i`, capturing a panic instead of unwinding
        /// through the pool.
        fn run_chunk(&self, i: usize, slot: usize) {
            let range = super::chunk_bounds(self.len, self.chunks, i);
            let task = self.task;
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                timed(self.profiling, slot, || task(i, range))
            }));
            if let Err(payload) = result {
                let mut first = self.panic.lock().expect("pool job panic slot poisoned");
                first.get_or_insert(payload);
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.chunks {
                // Notify while holding the gate so the wakeup cannot
                // fall between the caller's predicate check and wait.
                let _gate = self.gate.lock().expect("pool job gate poisoned");
                self.cv.notify_all();
            }
        }

        /// Drains the job from one participant: claim the next chunk id
        /// and run it until every id is claimed.
        fn work_on(&self, slot: usize) {
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.chunks {
                    return;
                }
                self.run_chunk(i, slot);
            }
        }

        /// Drops one participant reference, waking the caller if it was
        /// the last.
        fn leave(&self) {
            // The decrement must happen under the gate: the caller only
            // re-reads the exit predicate while holding it, so taking
            // the lock first makes this thread's final touches of the
            // job atomic with respect to the caller's exit. Decrementing
            // first would let the caller observe `participants == 0`,
            // return from `run`, and pop the stack-allocated job while
            // this thread still needs its mutex and condvar.
            let _gate = self.gate.lock().expect("pool job gate poisoned");
            self.participants.fetch_sub(1, Ordering::AcqRel);
            self.cv.notify_all();
        }
    }

    /// Registered jobs are addressed by raw pointer; the registry lock
    /// plus the participant protocol guarantee the pointee is alive for
    /// as long as the pointer is reachable.
    #[derive(Clone, Copy)]
    struct JobPtr(*const Job);
    // SAFETY: a `Job` is only ever accessed by shared reference, every
    // field is Sync, and the registry/participant protocol (see module
    // docs) keeps the pointee alive while the pointer is reachable.
    unsafe impl Send for JobPtr {}
    unsafe impl Sync for JobPtr {}

    struct PoolState {
        jobs: Vec<JobPtr>,
        live_workers: usize,
        draining: bool,
        handles: Vec<std::thread::JoinHandle<()>>,
    }

    struct Executor {
        state: Mutex<PoolState>,
        work_cv: Condvar,
    }

    fn executor() -> &'static Executor {
        static EXEC: OnceLock<Executor> = OnceLock::new();
        EXEC.get_or_init(|| Executor {
            state: Mutex::new(PoolState {
                jobs: Vec::new(),
                live_workers: 0,
                draining: false,
                handles: Vec::new(),
            }),
            work_cv: Condvar::new(),
        })
    }

    /// Total OS threads this pool has ever spawned (monotonic). The
    /// steady-state test asserts this stays flat across fan-outs once
    /// the pool is warm.
    static SPAWNED: AtomicU64 = AtomicU64::new(0);

    /// OS threads the pool has spawned over the process lifetime.
    pub fn spawned_workers_total() -> u64 {
        SPAWNED.load(Ordering::Relaxed)
    }

    /// Workers currently alive (parked or busy).
    pub fn live_workers() -> usize {
        executor()
            .state
            .lock()
            .expect("pool state poisoned")
            .live_workers
    }

    thread_local! {
        /// This thread's stable profiling slot: 0 for non-pool threads
        /// (fan-out callers), `n` for worker `pim-pool-n`.
        static WORKER_SLOT: Cell<usize> = const { Cell::new(0) };
    }

    fn ensure_workers(ex: &'static Executor, st: &mut PoolState, wanted: usize) {
        while st.live_workers < wanted.min(MAX_LANES) {
            st.live_workers += 1;
            let slot = st.live_workers;
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            let handle = std::thread::Builder::new()
                .name(format!("pim-pool-{slot}"))
                .spawn(move || worker_loop(ex, slot))
                .expect("failed to spawn PIM pool worker");
            st.handles.push(handle);
        }
    }

    fn worker_loop(ex: &'static Executor, slot: usize) {
        WORKER_SLOT.with(|c| c.set(slot));
        let mut st = ex.state.lock().expect("pool state poisoned");
        loop {
            if st.draining {
                st.live_workers -= 1;
                return;
            }
            let found = st.jobs.iter().copied().find(|p| {
                // SAFETY: pointers in the registry are valid (see JobPtr).
                unsafe { (*p.0).has_work() }
            });
            match found {
                Some(ptr) => {
                    // SAFETY: as above; the participant increment below
                    // happens under the registry lock, before the caller
                    // can deregister and observe participants == 0.
                    let job = unsafe { &*ptr.0 };
                    job.participants.fetch_add(1, Ordering::AcqRel);
                    drop(st);
                    super::with_thread_count(job.tc, || job.work_on(slot));
                    job.leave();
                    st = ex.state.lock().expect("pool state poisoned");
                }
                None => {
                    st = ex.work_cv.wait(st).expect("pool state poisoned");
                }
            }
        }
    }

    /// Drains and joins every pool worker, then lets the pool restart
    /// lazily on the next fan-out. Fan-outs racing a shutdown run their
    /// chunks inline on the caller. Intended for leak checks and
    /// orderly process teardown; never required for correctness.
    pub fn shutdown() {
        static SHUTDOWN: Mutex<()> = Mutex::new(());
        let _one_at_a_time = SHUTDOWN.lock().expect("pool shutdown lock poisoned");
        let ex = executor();
        let handles = {
            let mut st = ex.state.lock().expect("pool state poisoned");
            st.draining = true;
            ex.work_cv.notify_all();
            std::mem::take(&mut st.handles)
        };
        for h in handles {
            let _ = h.join();
        }
        let mut st = ex.state.lock().expect("pool state poisoned");
        debug_assert_eq!(st.live_workers, 0, "worker exited without deregistering");
        st.live_workers = 0;
        st.draining = false;
    }

    /// Runs one fan-out through the pool: `body(i, range)` once per
    /// chunk, `lanes ≥ 2` of them eligible to run concurrently. Blocks
    /// until every chunk has completed; rethrows the first chunk panic.
    pub(super) fn run(len: usize, lanes: usize, chunks: usize, body: Task<'_>) {
        debug_assert!((2..=MAX_LANES).contains(&lanes));
        debug_assert!(chunks >= lanes);
        let profiling = enabled();
        if profiling {
            note_fanout(lanes);
        }
        // SAFETY: this erases the borrow lifetime of `body`. The job
        // below never escapes this stack frame: it is deregistered
        // before the final wait, and the wait only returns once every
        // chunk has completed and every participant has left, so no
        // dereference of `task` can outlive `body`.
        let task: Task<'static> = unsafe { std::mem::transmute(body) };
        let job = Job {
            task,
            len,
            chunks,
            tc: super::thread_count(),
            profiling,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            participants: AtomicUsize::new(1),
            panic: Mutex::new(None),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        };
        let ex = executor();
        let registered = {
            let mut st = ex.state.lock().expect("pool state poisoned");
            if st.draining {
                false
            } else {
                ensure_workers(ex, &mut st, lanes - 1);
                st.jobs.push(JobPtr(&job));
                ex.work_cv.notify_all();
                true
            }
        };
        // The caller always claims chunks too; when a shutdown kept the
        // job unregistered, it drains every chunk itself.
        job.work_on(WORKER_SLOT.with(Cell::get));
        if registered {
            {
                let mut st = ex.state.lock().expect("pool state poisoned");
                if let Some(pos) = st.jobs.iter().position(|p| std::ptr::eq(p.0, &job)) {
                    st.jobs.swap_remove(pos);
                }
            }
            let wait0 = profiling.then(Instant::now);
            job.participants.fetch_sub(1, Ordering::AcqRel);
            {
                let mut gate = job.gate.lock().expect("pool job gate poisoned");
                while job.completed.load(Ordering::Acquire) < chunks
                    || job.participants.load(Ordering::Acquire) > 0
                {
                    gate = job.cv.wait(gate).expect("pool job gate poisoned");
                }
            }
            if let Some(t0) = wait0 {
                record_caller_wait(t0.elapsed().as_nanos());
            }
        }
        let payload = job
            .panic
            .lock()
            .expect("pool job panic slot poisoned")
            .take();
        if let Some(p) = payload {
            panic::resume_unwind(p);
        }
    }
}

/// Minimum elements per worker before a loop fans out. Below
/// `2 × MIN_CHUNK` total elements everything runs on the calling thread.
pub const MIN_CHUNK: usize = 8 * 1024;

/// Chunks per lane (the oversubscription factor): with more chunks than
/// workers, a participant whose chunks ran fast claims the next ones
/// instead of idling while a slow chunk finishes.
pub const CHUNKS_PER_WORKER: usize = 4;

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PIM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Process-wide override; 0 means "not set".
static GLOBAL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override; 0 means "not set".
    static LOCAL_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Overrides the worker count for the whole process (`None` restores the
/// `PIM_THREADS`/auto default). Exposed to CLIs as `--threads N`.
pub fn set_thread_count(n: Option<usize>) {
    GLOBAL_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count the next fan-out on this thread will use.
pub fn thread_count() -> usize {
    let local = LOCAL_OVERRIDE.with(Cell::get);
    if local > 0 {
        return local;
    }
    let global = GLOBAL_OVERRIDE.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    env_threads()
}

/// Runs `f` with the worker count pinned to `n` on the current thread
/// (restored on exit, including on panic). This is the race-free way for
/// tests and benchmarks to compare thread counts inside one process.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Reset(usize);
    impl Drop for Reset {
        fn drop(&mut self) {
            LOCAL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_OVERRIDE.with(|c| {
        let p = c.get();
        c.set(n.max(1));
        p
    });
    let _reset = Reset(prev);
    f()
}

/// Start of chunk `i` of `len` split `parts` ways: the first
/// `len % parts` chunks are one element longer.
fn chunk_start(len: usize, parts: usize, i: usize) -> usize {
    let base = len / parts;
    let extra = len % parts;
    i * base + i.min(extra)
}

/// Chunk `i` of `0..len` split into `parts` contiguous ranges covering
/// every index exactly once.
fn chunk_bounds(len: usize, parts: usize, i: usize) -> Range<usize> {
    chunk_start(len, parts, i)..chunk_start(len, parts, i + 1)
}

/// Lanes (`workers`) and chunk count for a fan-out over `len` items,
/// each chunk at least [`MIN_CHUNK`] long. Returns `(1, 1)` when the
/// loop should stay on the calling thread.
fn plan(len: usize) -> (usize, usize) {
    if len < 2 * MIN_CHUNK {
        return (1, 1);
    }
    let lanes = thread_count()
        .min(len / MIN_CHUNK)
        .clamp(1, pool::MAX_LANES);
    if lanes <= 1 {
        return (1, 1);
    }
    (lanes, (lanes * CHUNKS_PER_WORKER).min(len / MIN_CHUNK))
}

/// A raw view of a mutable slice that concurrent chunks index
/// disjointly. This is the pool's only aliasing primitive: the fan-out
/// planner partitions `0..len`, each chunk touches only its own
/// indices, and the borrow the view was created from outlives the
/// fan-out (the caller blocks until every chunk completes).
pub(crate) struct SharedSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: SharedSlice hands out access to `T`s across threads; that is
// exactly as safe as sending `&mut T` to those threads, hence `T: Send`.
unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Captures `slice` for disjoint concurrent access.
    pub fn new(slice: &mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// A mutable reference to element `i`. Bounds-checked.
    ///
    /// # Safety
    ///
    /// No other thread may hold a reference to element `i` while the
    /// returned borrow is live.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn index_mut(&self, i: usize) -> &mut T {
        assert!(i < self.len, "SharedSlice::index_mut out of bounds");
        unsafe { &mut *self.ptr.add(i) }
    }

    /// The sub-slice `r`. Bounds-checked.
    ///
    /// # Safety
    ///
    /// No other thread may access any element of `r` while the returned
    /// borrow is live — chunks must use disjoint ranges.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, r: Range<usize>) -> &mut [T] {
        assert!(
            r.start <= r.end && r.end <= self.len,
            "SharedSlice::slice_mut out of bounds"
        );
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.len()) }
    }
}

/// The fan-out primitive: applies `work` to contiguous chunks of
/// `0..len` and returns the per-chunk results **in ascending chunk
/// order** regardless of which worker ran each chunk. With one worker
/// (or a short input) this is exactly `vec![work(0..len)]`.
pub fn par_chunks<R: Send>(len: usize, work: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    if len == 0 {
        return Vec::new();
    }
    let (lanes, chunks) = plan(len);
    if lanes <= 1 {
        pool::note_sequential();
        return vec![work(0..len)];
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(chunks);
    slots.resize_with(chunks, || None);
    let out = SharedSlice::new(&mut slots);
    pool::run(len, lanes, chunks, &|i, r| {
        let v = work(r);
        // SAFETY: each chunk id is claimed by exactly one participant,
        // so slot `i` is written once, with no concurrent access.
        unsafe { *out.index_mut(i) = Some(v) };
    });
    slots
        .into_iter()
        .map(|s| s.expect("every chunk ran"))
        .collect()
}

/// Chunk-ordered parallel reduction: maps each chunk of `0..len` with
/// `map`, then folds the partials left-to-right in chunk order on the
/// calling thread, so the result is bit-identical to a sequential fold.
/// A loop that stays on the calling thread maps `0..len` as one chunk
/// and allocates nothing.
pub fn par_fold<R: Send>(
    len: usize,
    map: impl Fn(Range<usize>) -> R + Sync,
    fold: impl FnMut(R, R) -> R,
) -> Option<R> {
    if len == 0 {
        return None;
    }
    if plan(len).0 <= 1 {
        pool::note_sequential();
        return Some(map(0..len));
    }
    par_chunks(len, map).into_iter().reduce(fold)
}

/// `out[i] = f([ins[0][i], …, ins[N - 1][i]])` in parallel over disjoint
/// chunks: the one element-wise map, for every input arity.
///
/// # Panics
///
/// Panics if an input's length differs from `out`'s.
pub fn par_map_into<S: Copy + Sync, T: Send, const N: usize>(
    ins: [&[S]; N],
    out: &mut [T],
    f: impl Fn([S; N]) -> T + Sync,
) {
    let len = out.len();
    assert!(
        ins.iter().all(|s| s.len() == len),
        "par_map_into length mismatch"
    );
    for_chunks_mut(out, |r, oc| map_chunk(ins.map(|s| &s[r.clone()]), oc, &f));
}

/// [`par_map_into`] for a map whose output is also one of its inputs:
/// each `None` in `ins` reads `out[i]` itself, before `out[i]` is
/// written. The map is positionwise, so updating in place needs no
/// second buffer, only a stack copy of each block of 64 old values for
/// the vectorized loop to read.
///
/// # Panics
///
/// Panics if an input's length differs from `out`'s.
pub fn par_map_in_place<S: Copy + Default + Send + Sync, const N: usize>(
    ins: [Option<&[S]>; N],
    out: &mut [S],
    f: impl Fn([S; N]) -> S + Sync,
) {
    let len = out.len();
    assert!(
        ins.iter().flatten().all(|s| s.len() == len),
        "par_map_in_place length mismatch"
    );
    for_chunks_mut(out, |r, oc| {
        let mut old = [S::default(); IN_PLACE_BLOCK];
        for (b, block) in oc.chunks_mut(IN_PLACE_BLOCK).enumerate() {
            let (start, n) = (r.start + b * IN_PLACE_BLOCK, block.len());
            old[..n].copy_from_slice(block);
            let ins = ins.map(|s| s.map_or(&old[..n], |s| &s[start..start + n]));
            map_chunk(ins, block, &f);
        }
    });
}

/// Elements per stack copy in [`par_map_in_place`] (512 bytes of `i64`).
const IN_PLACE_BLOCK: usize = 64;

/// Runs `body(r, &mut out[r])` over chunks `r` that partition
/// `0..out.len()`: as one chunk on the calling thread below the fan-out
/// floor, through the pool above it.
fn for_chunks_mut<T: Send>(out: &mut [T], body: impl Fn(Range<usize>, &mut [T]) + Sync) {
    let len = out.len();
    let (lanes, chunks) = plan(len);
    if lanes <= 1 {
        pool::note_sequential();
        return body(0..len, out);
    }
    let dst = SharedSlice::new(out);
    pool::run(len, lanes, chunks, &|_, r| {
        // SAFETY: chunk ranges partition 0..len; each output index is
        // written by exactly one participant.
        let oc = unsafe { dst.slice_mut(r.clone()) };
        body(r, oc);
    });
}

/// The loop of [`par_map_into`] over one chunk. Every slice is cut to
/// the same length `n` and indexed by one counter below `n`, so the
/// compiler drops the per-element bounds checks and the loop vectorizes
/// like a plain zip.
#[inline(always)]
fn map_chunk<S: Copy, T, const N: usize>(ins: [&[S]; N], out: &mut [T], f: &impl Fn([S; N]) -> T) {
    let n = out.len();
    let ins = ins.map(|s| &s[..n]);
    for i in 0..n {
        out[i] = f(std::array::from_fn(|k| ins[k][i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_every_index_once() {
        for len in [0usize, 1, 7, 100, 8191, 8192, 100_001] {
            for parts in 1..=9 {
                let mut next = 0;
                for i in 0..parts {
                    let r = chunk_bounds(len, parts, i);
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn plan_oversubscribes_long_inputs() {
        with_thread_count(4, || {
            // Long input: 4 lanes, 4 chunks per lane.
            let (lanes, chunks) = plan(64 * MIN_CHUNK);
            assert_eq!(lanes, 4);
            assert_eq!(chunks, 16);
            // Short input: stays sequential.
            assert_eq!(plan(MIN_CHUNK), (1, 1));
            // Medium input: chunk count capped by the per-chunk floor.
            let (lanes, chunks) = plan(4 * MIN_CHUNK);
            assert_eq!(lanes, 4);
            assert_eq!(chunks, 4);
        });
    }

    #[test]
    fn thread_count_overrides_nest_and_restore() {
        let outer = thread_count();
        let inner = with_thread_count(3, || {
            assert_eq!(thread_count(), 3);
            with_thread_count(5, thread_count)
        });
        assert_eq!(inner, 5);
        assert_eq!(thread_count(), outer);
    }

    #[test]
    fn par_map_matches_sequential_at_any_thread_count() {
        let src: Vec<i64> = (0..100_000).map(|i| i * 7 - 50_000).collect();
        let seq: Vec<i64> = src.iter().map(|&x| x.wrapping_mul(3) ^ 1).collect();
        for threads in [1, 2, 8] {
            let mut par = vec![0; src.len()];
            with_thread_count(threads, || {
                par_map_into([&src], &mut par, |[x]| x.wrapping_mul(3) ^ 1)
            });
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_zip_maps_match_sequential() {
        let a: Vec<i64> = (0..70_000).collect();
        let b: Vec<i64> = (0..70_000).map(|i| i * 3).collect();
        let c: Vec<i64> = (0..70_000).map(|i| i % 2).collect();
        let seq2: Vec<i64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        let seq3: Vec<i64> = a
            .iter()
            .zip(b.iter().zip(&c))
            .map(|(x, (y, z))| if *z != 0 { *x } else { *y })
            .collect();
        let (mut par2, mut par3) = (vec![0; a.len()], vec![0; a.len()]);
        with_thread_count(4, || {
            par_map_into([&a, &b], &mut par2, |[x, y]| x - y);
            par_map_into(
                [&c, &a, &b],
                &mut par3,
                |[z, x, y]| if z != 0 { x } else { y },
            );
        });
        assert_eq!(par2, seq2);
        assert_eq!(par3, seq3);
    }

    /// In-place maps read each old value before overwriting it, across
    /// stack-block and chunk boundaries, with the output in any operand
    /// position and in several at once.
    #[test]
    fn par_map_in_place_reads_old_values() {
        let block = IN_PLACE_BLOCK;
        for len in [0, 1, block - 1, block, block + 1, 2 * MIN_CHUNK + 300] {
            let a: Vec<i64> = (0..len as i64).map(|i| i * 7 - 3).collect();
            let b: Vec<i64> = (0..len as i64).map(|i| i % 5).collect();
            for threads in [1, 3] {
                let mut out = a.clone();
                with_thread_count(threads, || {
                    par_map_in_place([Some(&b[..]), None], &mut out, |[y, x]| x * 10 + y);
                    par_map_in_place([None, Some(&b[..]), None], &mut out, |[x, y, z]| x - y + z);
                });
                let want: Vec<i64> = a.iter().zip(&b).map(|(x, y)| 20 * x + y).collect();
                assert_eq!(out, want, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn par_fold_is_chunk_ordered() {
        let len = 60_000;
        let seq: usize = (0..len).sum();
        let folded = with_thread_count(7, || {
            par_fold(len, |r| r.sum::<usize>(), |a, b| a + b).unwrap()
        });
        assert_eq!(folded, seq);
        let order = with_thread_count(7, || par_chunks(len, |r| r.start));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "chunks returned in ascending order");
    }

    #[test]
    fn short_inputs_stay_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = with_thread_count(8, || par_chunks(100, |_| std::thread::current().id()));
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn pool_profiling_records_fanouts_and_workers() {
        // Single test for all pool assertions: the enabled flag is
        // process-global, so splitting these across tests would race
        // under the parallel test harness. Other exec tests may run
        // concurrently while profiling is on, so counts are asserted
        // as lower bounds.
        pool::reset();
        pool::enable();
        let len = 4 * MIN_CHUNK;
        let parts = with_thread_count(4, || par_chunks(len, |r| r.len()));
        assert_eq!(parts.iter().sum::<usize>(), len);
        with_thread_count(1, || par_chunks(len, |r| r.len()));
        let snap = pool::snapshot();
        pool::disable();
        assert!(snap.fanouts >= 1);
        assert!(snap.sequential_runs >= 1);
        assert!(snap.workers.len() >= 4);
        // Any one participant (often the caller alone on a single-core
        // host) may claim every chunk — assert the total, not per-slot
        // distribution.
        assert!(snap.workers.iter().map(|w| w.chunks).sum::<u64>() >= 4);
        let json = snap.to_json();
        assert!(json.starts_with("{\"fanouts\":"));
        assert!(json.contains("\"sequential_runs\":"));
        assert!(json.contains("\"workers\":[{\"busy_ns\":"));

        // Disabled runs record nothing, including the sequential path.
        pool::reset();
        with_thread_count(4, || par_chunks(len, |r| r.len()));
        with_thread_count(1, || par_chunks(len, |r| r.len()));
        assert_eq!(pool::snapshot(), pool::PoolSnapshot::default());

        // Reset race: a fan-out captures `profiling` when it starts, so
        // its workers and the caller-wait record can land *after* a
        // disable()+reset(). Simulate such straggler records and assert
        // they cannot resurrect counters into the fresh snapshot.
        pool::reset();
        pool::timed(true, 2, || std::hint::black_box(1 + 1));
        pool::record_caller_wait(1_000_000);
        assert_eq!(
            pool::snapshot(),
            pool::PoolSnapshot::default(),
            "records from a pre-disable fan-out must be dropped once profiling is off"
        );
    }
}
