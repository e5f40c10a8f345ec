//! The timing model behind every cost path (§V-C).
//!
//! The paper's simulator charges closed-form latencies per row access;
//! its §V-C limitation ("integration with DRAMsim3 has been left as
//! future work") is exactly the gap between that closed form and a
//! stateful bank FSM. One [`TimingModel`] per device shard prices every
//! DRAM access, and [`TimingBackend`] selects how:
//!
//! * [`TimingBackend::Analytical`] — the original closed-form math,
//!   bit-identical to the paper's model and still the default;
//! * [`TimingBackend::BankFsm`] — closed-page row cycles issued against
//!   a [`RankSim`]: per-bank open-row tracking, ACT/PRE/RD/WR with
//!   tRCD/tRP/tRAS/tCCD interlocks, and row-buffer hit/miss accounting.
//!
//! The FSM follows the execute-once-and-stall rule: every charge issues
//! its commands against the live bank state exactly once, and the time
//! it returns *includes* any interlock stalls — there is no
//! side-effect-free latency query that could disagree with the state it
//! mutated. The commands a charge issues stay pending until the caller
//! drains them with [`TimingModel::take_counters`].
//!
//! Each row access takes the closed form's own per-access latency `a`
//! (`row_read_ns` = tRCD + CL or `row_write_ns` = tRCD + tWR, plus any
//! overlapping periphery time) once its bank is ready, and leaves the
//! bank recovering until `max(a, tRAS) + tRP` after it started. A
//! [`RowPattern::Streaming`] charge of `n` accesses (fresh rows
//! round-robin across banks) cannot stall when every bank of its first
//! lap is closed and ready by the time its access starts, and, if `n`
//! exceeds the bank count, one lap of accesses covers a bank's
//! recovery. Such a charge is priced in closed form: it returns `n · a`,
//! bit-identical to [`TimingBackend::Analytical`] under any finite
//! timing, counts its commands in one step and writes only the last
//! lap's bank state. Every other charge — [`RowPattern::Thrashing`]
//! (every access re-opens a row in one bank, so the tRAS + tRP recovery
//! lands on the critical path), or a streaming charge whose first lap
//! meets a recovering bank — is replayed access by access. Long replays
//! stop after `ROW_REPLAY_CAP` accesses and extrapolate the
//! steady-state tail, advancing the FSM clock past it so later charges
//! observe it; the closed form leaves the clock, the round-robin cursor
//! and every bank where that replay would, whenever the clock
//! arithmetic is exact (timings in multiples of a power of two, as both
//! presets are). Activate–precharge pairs follow the same two paths.
//! Copies and UPMEM bursts always replay a bounded window of commands.

use crate::protocol::{ProtocolTiming, RankSim, TimingCounters};
use crate::timing::DramTiming;

/// Environment variable overriding the configured timing backend
/// (`analytical` or `fsm`).
pub const PIM_TIMING_ENV: &str = "PIM_TIMING";

/// Row cap for one bounded burst replay (copies, DMA streams), matching
/// the historical per-copy protocol replay bound.
pub const COPY_REPLAY_MAX_ROWS: usize = 32;

/// Row-access cap for one bounded FSM charge; the tail beyond it is
/// extrapolated at the steady-state per-access time.
const ROW_REPLAY_CAP: u64 = 4096;

/// Which timing backend a device charges through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TimingBackend {
    /// Closed-form latencies (the paper's model); the default.
    #[default]
    Analytical,
    /// Stateful bank-FSM replay on [`RankSim`].
    BankFsm,
}

impl TimingBackend {
    /// Parses a backend name as accepted by `PIM_TIMING` and the
    /// `--timing` CLI flag. Case-insensitive; returns `None` for an
    /// unknown name.
    pub fn parse(s: &str) -> Option<TimingBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "analytical" | "closed" | "closed-form" => Some(TimingBackend::Analytical),
            "fsm" | "bankfsm" | "bank-fsm" => Some(TimingBackend::BankFsm),
            _ => None,
        }
    }

    /// Applies the `PIM_TIMING` environment override, if set to a valid
    /// backend name; otherwise returns `self` unchanged.
    pub fn env_override(self) -> TimingBackend {
        match std::env::var(PIM_TIMING_ENV) {
            Ok(v) if !v.is_empty() => TimingBackend::parse(&v).unwrap_or(self),
            _ => self,
        }
    }
}

impl std::fmt::Display for TimingBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingBackend::Analytical => write!(f, "analytical"),
            TimingBackend::BankFsm => write!(f, "fsm"),
        }
    }
}

/// The bank-access pattern a charge models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RowPattern {
    /// Fresh rows round-robin across banks — bank recovery hides under
    /// the other banks' accesses (zero contention with ≥ 2 banks).
    #[default]
    Streaming,
    /// Every access re-opens a row in one bank — the tRAS + tRP
    /// recovery is on the critical path of every access.
    Thrashing,
}

/// Counters and achieved bandwidth from one bounded replay of a
/// host↔device copy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CopyReplay {
    /// Protocol commands the copy issued (under the bank FSM,
    /// extrapolated past the replay bound).
    pub counters: TimingCounters,
    /// Achieved streaming bandwidth over the replayed window (GB/s).
    pub achieved_gbs: f64,
}

/// One shard's timing model: the closed-form latencies, plus bank state
/// machines when the backend is [`TimingBackend::BankFsm`].
///
/// All `charge_*` methods return nanoseconds (except
/// [`TimingModel::charge_host_copy`], which returns milliseconds to
/// match [`DramTiming::host_copy_ms`]). Under the bank FSM they follow
/// execute-once-and-stall semantics: a charge mutates the bank state,
/// the time it returns includes any stalls that state implies, and the
/// commands it issued stay pending until [`TimingModel::take_counters`].
/// Without the FSM the returned times are the paper's closed forms and
/// nothing is ever pending.
#[derive(Debug)]
pub struct TimingModel {
    timing: DramTiming,
    banks: usize,
    row_bytes: u64,
    /// Bank state; present exactly under [`TimingBackend::BankFsm`].
    /// Boxed so the closed-form model stays small: with the state
    /// inline, a 4-shard device's shard table outgrew glibc's
    /// thread-cache size classes and the `bulk-sweep` benchmark
    /// page-faulted 4.5× as often.
    fsm: Option<Box<BankFsm>>,
}

/// The live bank state of the FSM backend.
#[derive(Debug)]
struct BankFsm {
    sim: RankSim,
    /// Next bank of the streaming round-robin.
    cursor: usize,
}

impl TimingModel {
    /// The `backend` timing model over `timing` for a rank with `banks`
    /// banks and `row_bytes`-byte rows (the latter two shape the bank
    /// FSM and every copy replay).
    pub fn new(backend: TimingBackend, timing: &DramTiming, banks: usize, row_bytes: u64) -> Self {
        let banks = banks.max(1);
        TimingModel {
            timing: *timing,
            banks,
            row_bytes,
            fsm: (backend == TimingBackend::BankFsm).then(|| Box::new(BankFsm::new(timing, banks))),
        }
    }

    /// Charges one lockstep sweep of `reads` full-row reads and
    /// `writes` full-row write-backs.
    pub fn charge_rows(&mut self, reads: u64, writes: u64, pattern: RowPattern) -> f64 {
        match &mut self.fsm {
            None => {
                reads as f64 * self.timing.row_read_ns + writes as f64 * self.timing.row_write_ns
            }
            Some(f) => {
                f.run_accesses(reads, false, self.timing.row_read_ns, pattern)
                    + f.run_accesses(writes, true, self.timing.row_write_ns, pattern)
            }
        }
    }

    /// Charges `reads` full-row reads, each extended by `extra_ns` of
    /// periphery work that overlaps the row cycle (row-wide popcount).
    pub fn charge_rows_extra(&mut self, reads: u64, extra_ns: f64, pattern: RowPattern) -> f64 {
        match &mut self.fsm {
            None => reads as f64 * (self.timing.row_read_ns + extra_ns),
            Some(f) => f.run_accesses(reads, false, self.timing.row_read_ns + extra_ns, pattern),
        }
    }

    /// Charges `pairs` activate–precharge pairs with no column access
    /// (the analog AAP/TRA primitive).
    pub fn charge_activate_precharge(&mut self, pairs: u64) -> f64 {
        match &mut self.fsm {
            None => pairs as f64 * (self.timing.t_ras_ns + self.timing.t_rp_ns),
            Some(f) => f.run_activate_precharge(pairs),
        }
    }

    /// Charges walker row traffic for the bit-parallel targets:
    /// `rows_in` row reads and `rows_out` row write-backs, each paying a
    /// `gdl_ns` global-data-line crossing on top of the row cycle. The
    /// row counts are integral (they arrive as `f64` from the traffic
    /// model).
    pub fn charge_walker_rows(
        &mut self,
        rows_in: f64,
        rows_out: f64,
        gdl_ns: f64,
        pattern: RowPattern,
    ) -> f64 {
        match &mut self.fsm {
            None => {
                rows_in * (self.timing.row_read_ns + gdl_ns)
                    + rows_out * (gdl_ns + self.timing.row_write_ns)
            }
            Some(f) => {
                let t = &self.timing;
                f.run_accesses(rows_in as u64, false, t.row_read_ns + gdl_ns, pattern)
                    + f.run_accesses(rows_out as u64, true, gdl_ns + t.row_write_ns, pattern)
            }
        }
    }

    /// Charges a bandwidth-bound burst stream of `bytes` at `gbs` GB/s
    /// (the UPMEM MRAM DMA path). Burst streams are bandwidth-limited in
    /// both backends; the FSM additionally replays a bounded window for
    /// its row-buffer counters.
    pub fn charge_burst(&mut self, bytes: f64, gbs: f64) -> f64 {
        if let Some(f) = &mut self.fsm {
            if bytes > 0.0 {
                f.run_burst(bytes.max(1.0) as u64, self.row_bytes);
            }
        }
        bytes / gbs
    }

    /// Charges one host↔device copy of `bytes` over `ranks` rank
    /// channels, in milliseconds (matches [`DramTiming::host_copy_ms`]).
    pub fn charge_host_copy(&self, bytes: u64, ranks: usize) -> f64 {
        self.timing.host_copy_ms(bytes, ranks)
    }

    /// Replays one host↔device copy of `bytes` through bank state
    /// machines (bounded to [`COPY_REPLAY_MAX_ROWS`] rows).
    ///
    /// Under the bank FSM the copy always replays against the live
    /// state, extrapolated to its full length, and its counters stay
    /// pending like every charge's. Without the FSM the replay is
    /// advisory: it runs on a fresh rank only when `trace` asks for it,
    /// and leaves nothing pending.
    pub fn copy_replay(&mut self, bytes: u64, trace: bool) -> Option<CopyReplay> {
        match &mut self.fsm {
            None => trace.then(|| {
                let mut sim = RankSim::new(ProtocolTiming::from_coarse(&self.timing), self.banks);
                let (achieved_gbs, _tail) = replay_copy_window(&mut sim, bytes, self.row_bytes);
                CopyReplay {
                    counters: sim.take_counters(),
                    achieved_gbs,
                }
            }),
            Some(f) => {
                // Callers drain after every charge, so what is pending
                // after the burst is exactly this copy's commands.
                debug_assert!(
                    f.sim.counters().is_empty(),
                    "undrained charge before a copy"
                );
                let achieved_gbs = f.run_burst(bytes, self.row_bytes);
                Some(CopyReplay {
                    counters: *f.sim.counters(),
                    achieved_gbs,
                })
            }
        }
    }

    /// Drains the commands issued since the last drain (always empty
    /// without the bank FSM).
    pub fn take_counters(&mut self) -> TimingCounters {
        self.fsm
            .as_mut()
            .map(|f| f.sim.take_counters())
            .unwrap_or_default()
    }

    /// Resets the bank state and counters to a fresh rank.
    pub fn reset(&mut self) {
        if let Some(f) = &mut self.fsm {
            **f = BankFsm::new(&self.timing, self.banks);
        }
    }
}

/// Replays one streaming copy of `bytes` on `sim` (bounded), counting
/// its commands into `sim`, and returns the achieved bandwidth over the
/// window and the number of unreplayed tail rows.
fn replay_copy_window(sim: &mut RankSim, bytes: u64, row_bytes: u64) -> (f64, u64) {
    let bursts = (row_bytes / 64).max(1) as usize;
    let full_rows = bytes.div_ceil(row_bytes).max(1);
    let rows = full_rows.min(COPY_REPLAY_MAX_ROWS as u64) as usize;
    let t0 = sim.now_ns();
    let _ = sim.stream_read_bandwidth(rows, bursts, 64);
    let window_ns = sim.now_ns() - t0;
    let window_bytes = (rows * bursts * 64) as f64;
    let gbs = if window_ns > 0.0 {
        window_bytes / window_ns
    } else {
        0.0
    };
    (gbs, full_rows - rows as u64)
}

impl BankFsm {
    fn new(timing: &DramTiming, banks: usize) -> Self {
        BankFsm {
            sim: RankSim::new(ProtocolTiming::from_coarse(timing), banks),
            cursor: 0,
        }
    }

    fn pick_bank(&mut self, pattern: RowPattern) -> usize {
        match pattern {
            RowPattern::Streaming => {
                let b = self.cursor;
                self.cursor = (self.cursor + 1) % self.sim.banks();
                b
            }
            RowPattern::Thrashing => 0,
        }
    }

    /// Issues `n` closed-page row accesses of `access_ns` each and
    /// returns the elapsed time: in closed form, `n · access_ns`, when
    /// no access can stall, otherwise by [`BankFsm::replay_accesses`].
    fn run_accesses(&mut self, n: u64, write: bool, access_ns: f64, pattern: RowPattern) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let t = self.sim.timing;
        let recovery_ns = access_ns.max(t.t_ras_ns) + t.t_rp_ns;
        if pattern == RowPattern::Streaming && self.stream(n, access_ns, recovery_ns) {
            self.count_accesses(n, write);
            return n as f64 * access_ns;
        }
        self.replay_accesses(n, write, access_ns, pattern)
    }

    /// Issues `pairs` activate–precharge pairs round-robin and returns
    /// the elapsed time: in closed form when no pair can stall, otherwise
    /// by [`BankFsm::replay_activate_precharge`].
    fn run_activate_precharge(&mut self, pairs: u64) -> f64 {
        if pairs == 0 {
            return 0.0;
        }
        let t = self.sim.timing;
        let cycle_ns = t.t_ras_ns + t.t_rp_ns;
        if self.stream(pairs, cycle_ns, cycle_ns) {
            self.sim.counters.activations += pairs;
            self.sim.counters.precharges += pairs;
            return pairs as f64 * cycle_ns;
        }
        self.replay_activate_precharge(pairs)
    }

    /// The closed form of a streaming charge of `n` cycles: the bank
    /// state and clock the bounded replay of its first
    /// `min(n, ROW_REPLAY_CAP)` cycles leaves, then the extrapolated
    /// tail. Returns `false`, changing nothing, when a cycle could stall.
    fn stream(&mut self, n: u64, access_ns: f64, recovery_ns: f64) -> bool {
        let replay = n.min(ROW_REPLAY_CAP) as usize;
        if !self
            .sim
            .try_stream_cycles(self.cursor, replay, access_ns, recovery_ns)
        {
            return false;
        }
        let next = self.cursor + replay;
        let banks = self.sim.banks();
        self.cursor = if next < banks { next } else { next % banks };
        self.sim.advance((n - replay as u64) as f64 * access_ns);
        true
    }

    /// Counts `n` closed-page row accesses: one ACT, one PRE and one
    /// row-missing column command each.
    fn count_accesses(&mut self, n: u64, write: bool) {
        let c = &mut self.sim.counters;
        c.activations += n;
        c.precharges += n;
        c.row_misses += n;
        if write {
            c.writes += n;
        } else {
            c.reads += n;
        }
    }

    /// Replays `n` closed-page row accesses one by one (bounded replay +
    /// extrapolated steady-state tail) and returns the elapsed time,
    /// stalls included.
    fn replay_accesses(&mut self, n: u64, write: bool, access_ns: f64, pattern: RowPattern) -> f64 {
        let replay = n.min(ROW_REPLAY_CAP);
        let mut elapsed = 0.0;
        let mut last = 0.0;
        for _ in 0..replay {
            let bank = self.pick_bank(pattern);
            last = self
                .sim
                .row_cycle(bank, write, access_ns)
                .expect("bank cursor stays in range");
            elapsed += last;
        }
        let tail = n - replay;
        if tail > 0 {
            // Steady state: every further access repeats the last one.
            let tail_ns = tail as f64 * last;
            self.sim.advance(tail_ns);
            elapsed += tail_ns;
            self.count_accesses(tail, write);
        }
        elapsed
    }

    /// Replays `pairs` activate–precharge pairs round-robin one by one
    /// (bounded replay + extrapolated tail) and returns the elapsed time.
    fn replay_activate_precharge(&mut self, pairs: u64) -> f64 {
        let replay = pairs.min(ROW_REPLAY_CAP);
        let mut elapsed = 0.0;
        let mut last = 0.0;
        for _ in 0..replay {
            let bank = self.pick_bank(RowPattern::Streaming);
            last = self
                .sim
                .activate_precharge_cycle(bank)
                .expect("bank cursor stays in range");
            elapsed += last;
        }
        let tail = pairs - replay;
        if tail > 0 {
            let tail_ns = tail as f64 * last;
            self.sim.advance(tail_ns);
            elapsed += tail_ns;
            self.sim.counters.activations += tail;
            self.sim.counters.precharges += tail;
        }
        elapsed
    }

    /// Runs one bounded burst replay against the live state, extends
    /// its counters by the unreplayed steady-state rows (1 ACT + 1 PRE +
    /// one read per 64-byte burst each, the first read a miss), and
    /// leaves the rank quiescent. Returns the achieved bandwidth over
    /// the replayed window.
    fn run_burst(&mut self, bytes: u64, row_bytes: u64) -> f64 {
        let (gbs, tail_rows) = replay_copy_window(&mut self.sim, bytes, row_bytes);
        let bursts = (row_bytes / 64).max(1);
        let c = &mut self.sim.counters;
        c.activations += tail_rows;
        c.precharges += tail_rows;
        c.reads += tail_rows * bursts;
        c.row_misses += tail_rows;
        c.row_hits += tail_rows * (bursts - 1);
        // The real transfer lasts far longer than the replayed window;
        // by the time it completes every bank has recovered. Close the
        // replay's open rows and settle past all recoveries so the next
        // row charge starts from a quiescent rank.
        self.sim.drain_open_rows();
        let settle = self.sim.latest_ready_ns() - self.sim.now_ns();
        self.sim.advance(settle);
        gbs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TimingModel, TimingModel) {
        let t = DramTiming::ddr4_default();
        (
            TimingModel::new(TimingBackend::Analytical, &t, 16, 1024),
            TimingModel::new(TimingBackend::BankFsm, &t, 16, 1024),
        )
    }

    #[test]
    fn streaming_rows_agree_bit_for_bit() {
        let (mut a, mut f) = pair();
        for (r, w) in [(1u64, 0u64), (7, 3), (64, 64), (501, 13)] {
            let ta = a.charge_rows(r, w, RowPattern::Streaming);
            let tf = f.charge_rows(r, w, RowPattern::Streaming);
            assert_eq!(ta, tf, "reads={r} writes={w}");
        }
    }

    #[test]
    fn streaming_extra_and_walker_and_ap_agree() {
        let (mut a, mut f) = pair();
        let gdl = 192.0;
        assert_eq!(
            a.charge_rows_extra(33, 2.0, RowPattern::Streaming),
            f.charge_rows_extra(33, 2.0, RowPattern::Streaming)
        );
        assert_eq!(
            a.charge_walker_rows(128.0, 64.0, gdl, RowPattern::Streaming),
            f.charge_walker_rows(128.0, 64.0, gdl, RowPattern::Streaming)
        );
        assert_eq!(
            a.charge_activate_precharge(97),
            f.charge_activate_precharge(97)
        );
        assert_eq!(a.charge_burst(4096.0, 25.6), f.charge_burst(4096.0, 25.6));
        assert_eq!(
            a.charge_host_copy(1 << 20, 4),
            f.charge_host_copy(1 << 20, 4)
        );
    }

    #[test]
    fn extrapolated_tail_matches_the_closed_form() {
        // Far past the replay cap: the steady-state extrapolation must
        // still land exactly on n × row_read_ns.
        let (mut a, mut f) = pair();
        let n = 10 * ROW_REPLAY_CAP + 17;
        assert_eq!(
            a.charge_rows(n, 0, RowPattern::Streaming),
            f.charge_rows(n, 0, RowPattern::Streaming)
        );
    }

    #[test]
    fn thrashing_is_strictly_slower() {
        let (mut a, mut f) = pair();
        let analytical = a.charge_rows(64, 64, RowPattern::Thrashing);
        let fsm = f.charge_rows(64, 64, RowPattern::Thrashing);
        assert!(
            fsm > analytical,
            "row thrashing must stall the FSM: {fsm} vs {analytical}"
        );
    }

    #[test]
    fn fsm_counts_rows_and_copies() {
        let (_, mut f) = pair();
        f.charge_rows(10, 5, RowPattern::Streaming);
        let rows = f.take_counters();
        assert_eq!((rows.reads, rows.writes, rows.row_misses), (10, 5, 15));
        let replay = f
            .copy_replay(64 * 1024, false)
            .expect("the FSM replays every copy");
        assert!(replay.counters.row_hits > 0, "burst reads hit open rows");
        assert!(replay.achieved_gbs > 0.0);
        assert_eq!(f.take_counters(), replay.counters);
        // 64 KiB in 1 KiB rows = 64 rows, extrapolated past the 32-row
        // replay window.
        assert_eq!(replay.counters.activations, 64);
    }

    #[test]
    fn copies_leave_the_rank_quiescent_for_row_charges() {
        // A row charge right after a copy must not inherit stalls from
        // the replay window (the real transfer outlasts every recovery).
        let (mut a, mut f) = pair();
        f.copy_replay(1 << 20, false);
        f.take_counters();
        assert_eq!(
            a.charge_rows(4, 0, RowPattern::Streaming),
            f.charge_rows(4, 0, RowPattern::Streaming)
        );
    }

    #[test]
    fn analytical_keeps_no_state() {
        let (mut a, _) = pair();
        let replay = a.copy_replay(1 << 20, true).expect("traced copies replay");
        assert!(replay.counters.activations > 0);
        assert!(a.take_counters().is_empty());
        assert_eq!(a.copy_replay(1 << 20, false), None);
    }

    #[test]
    fn reset_restores_a_fresh_fsm() {
        let (_, mut f) = pair();
        f.charge_rows(100, 100, RowPattern::Thrashing);
        f.reset();
        assert!(f.take_counters().is_empty());
        let t = DramTiming::ddr4_default();
        assert_eq!(
            f.charge_rows(8, 8, RowPattern::Thrashing),
            TimingModel::new(TimingBackend::BankFsm, &t, 16, 1024).charge_rows(
                8,
                8,
                RowPattern::Thrashing
            )
        );
    }

    #[test]
    fn one_drain_equals_the_sum_of_per_charge_drains() {
        // A copy first (it expects nothing pending), then one charge of
        // every other kind, on a thrashed and a streamed bank pattern.
        let charges: [&dyn Fn(&mut TimingModel); 6] = [
            &|m| {
                m.copy_replay(100 * 1024, false);
            },
            &|m| {
                m.charge_rows(5000, 300, RowPattern::Thrashing);
            },
            &|m| {
                m.charge_rows_extra(70, 2.0, RowPattern::Streaming);
            },
            &|m| {
                m.charge_activate_precharge(5000);
            },
            &|m| {
                m.charge_walker_rows(9.0, 4.0, 192.0, RowPattern::Thrashing);
            },
            &|m| {
                m.charge_burst(80_000.0, 25.6);
            },
        ];
        let (_, mut each) = pair();
        let (_, mut once) = pair();
        let mut sum = TimingCounters::default();
        for charge in charges {
            charge(&mut each);
            let drained = each.take_counters();
            assert!(!drained.is_empty());
            sum.merge(&drained);
            charge(&mut once);
        }
        assert_eq!(once.take_counters(), sum);
        assert!(once.take_counters().is_empty(), "a second drain is empty");
    }

    /// Deterministic SplitMix64 stream.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A multiple of 0.25 ns in `[lo, hi)`.
        fn quarters(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.below(((hi - lo) * 4.0) as u64) as f64 * 0.25
        }

        /// A value in `[lo, hi)` using the whole mantissa, so that sums
        /// of it round.
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        }

        fn pattern(&mut self) -> RowPattern {
            if self.below(4) == 0 {
                RowPattern::Thrashing
            } else {
                RowPattern::Streaming
            }
        }

        /// An access count: mostly short, sometimes past the replay cap.
        fn count(&mut self) -> u64 {
            match self.below(8) {
                0 => ROW_REPLAY_CAP - 2 + self.below(ROW_REPLAY_CAP + 4),
                1 => self.below(4),
                _ => self.below(300),
            }
        }
    }

    const ROW_BYTES: u64 = 1024;
    const BURST_GBS: f64 = 25.6;

    /// One charge of every kind a shard makes.
    #[derive(Debug, Clone, Copy)]
    enum Charge {
        Rows(u64, u64, RowPattern),
        RowsExtra(u64, f64, RowPattern),
        Walker(u64, u64, f64, RowPattern),
        ActivatePrecharge(u64),
        Burst(u64),
        Copy(u64),
    }

    impl Charge {
        fn random(rng: &mut SplitMix64, extra_ns: impl Fn(&mut SplitMix64) -> f64) -> Charge {
            match rng.below(6) {
                0 => Charge::Rows(rng.count(), rng.count(), rng.pattern()),
                1 => Charge::RowsExtra(rng.count(), extra_ns(rng), rng.pattern()),
                2 => Charge::Walker(rng.count(), rng.count(), extra_ns(rng), rng.pattern()),
                3 => Charge::ActivatePrecharge(rng.count()),
                4 => Charge::Burst(rng.below(200 * ROW_BYTES)),
                _ => Charge::Copy(rng.below(200 * ROW_BYTES)),
            }
        }

        fn streaming(self) -> Charge {
            use RowPattern::Streaming as S;
            match self {
                Charge::Rows(r, w, _) => Charge::Rows(r, w, S),
                Charge::RowsExtra(r, x, _) => Charge::RowsExtra(r, x, S),
                Charge::Walker(i, o, g, _) => Charge::Walker(i, o, g, S),
                other => other,
            }
        }

        /// Charges `m`; a copy returns its achieved bandwidth.
        fn on(self, m: &mut TimingModel) -> f64 {
            match self {
                Charge::Rows(r, w, p) => m.charge_rows(r, w, p),
                Charge::RowsExtra(r, x, p) => m.charge_rows_extra(r, x, p),
                Charge::Walker(i, o, g, p) => m.charge_walker_rows(i as f64, o as f64, g, p),
                Charge::ActivatePrecharge(n) => m.charge_activate_precharge(n),
                Charge::Burst(b) => m.charge_burst(b as f64, BURST_GBS),
                Charge::Copy(b) => m.copy_replay(b, false).map_or(-1.0, |c| c.achieved_gbs),
            }
        }

        /// The same charge with every row access replayed one by one.
        fn replayed(self, f: &mut BankFsm, t: &DramTiming) -> f64 {
            match self {
                Charge::Rows(r, w, p) => {
                    f.replay_accesses(r, false, t.row_read_ns, p)
                        + f.replay_accesses(w, true, t.row_write_ns, p)
                }
                Charge::RowsExtra(r, x, p) => f.replay_accesses(r, false, t.row_read_ns + x, p),
                Charge::Walker(i, o, g, p) => {
                    f.replay_accesses(i, false, t.row_read_ns + g, p)
                        + f.replay_accesses(o, true, g + t.row_write_ns, p)
                }
                Charge::ActivatePrecharge(n) => f.replay_activate_precharge(n),
                Charge::Burst(b) => {
                    if b > 0 {
                        f.run_burst(b, ROW_BYTES);
                    }
                    b as f64 / BURST_GBS
                }
                Charge::Copy(b) => f.run_burst(b, ROW_BYTES),
            }
        }
    }

    /// DDR4, HBM2, and random timings in multiples of 0.25 ns, under
    /// which the clock arithmetic is exact.
    fn dyadic_timings(rng: &mut SplitMix64) -> Vec<DramTiming> {
        let mut all = vec![DramTiming::ddr4_default(), DramTiming::hbm2_default()];
        for _ in 0..4 {
            // Even quarters, so that tRCD = row_read_ns / 2 is one too.
            let row_read_ns = 2.0 * rng.quarters(2.0, 32.0);
            all.push(DramTiming {
                row_read_ns,
                row_write_ns: rng.quarters(row_read_ns / 2.0 + 0.25, 96.0),
                t_ccd_ns: rng.quarters(0.25, 8.0),
                t_ras_ns: rng.quarters(row_read_ns / 2.0, 96.0),
                t_rp_ns: rng.quarters(0.25, 40.0),
                ..DramTiming::ddr4_default()
            });
        }
        all
    }

    #[test]
    fn closed_form_charges_match_a_full_replay_bit_for_bit() {
        let mut rng = SplitMix64(0x5eed_f5a1);
        for timing in dyadic_timings(&mut rng) {
            ProtocolTiming::from_coarse_checked(&timing).expect("valid timing");
            for banks in [1, 2, 3, 16, 128] {
                let mut model = TimingModel::new(TimingBackend::BankFsm, &timing, banks, ROW_BYTES);
                let mut replay = BankFsm::new(&timing, banks);
                for step in 0..120 {
                    let charge = Charge::random(&mut rng, |r| r.quarters(0.0, 16.0));
                    let ns = charge.on(&mut model);
                    let want = charge.replayed(&mut replay, &timing);
                    let f = model.fsm.as_ref().expect("bank FSM");
                    let ctx = format!("{timing:?} banks={banks} step={step} {charge:?}");
                    assert_eq!(ns.to_bits(), want.to_bits(), "ns: {ctx}");
                    assert_eq!(
                        f.sim.now_ns().to_bits(),
                        replay.sim.now_ns().to_bits(),
                        "now: {ctx}"
                    );
                    assert_eq!(
                        f.sim.latest_ready_ns().to_bits(),
                        replay.sim.latest_ready_ns().to_bits(),
                        "ready: {ctx}"
                    );
                    assert_eq!(f.cursor, replay.cursor, "cursor: {ctx}");
                    assert_eq!(model.take_counters(), replay.sim.take_counters(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn streaming_fsm_matches_the_closed_form_under_any_timing() {
        let mut rng = SplitMix64(0x0dd_71de);
        // Summing per-access clock deltas rounds on the first set; in
        // the second, tRCD + tWR rounds away from `row_write_ns`.
        let mut timings = vec![
            DramTiming {
                row_read_ns: 28.3,
                row_write_ns: 43.7,
                t_rp_ns: 13.1,
                t_ras_ns: 32.2,
                ..DramTiming::ddr4_default()
            },
            DramTiming {
                row_read_ns: 10.1,
                row_write_ns: 13.1,
                t_rp_ns: 13.1,
                t_ras_ns: 32.2,
                ..DramTiming::ddr4_default()
            },
        ];
        for _ in 0..8 {
            let row_read_ns = rng.uniform(5.0, 64.0);
            timings.push(DramTiming {
                row_read_ns,
                row_write_ns: rng.uniform(row_read_ns / 2.0 + 0.1, 96.0),
                t_ccd_ns: rng.uniform(0.1, 8.0),
                t_ras_ns: rng.uniform(row_read_ns / 2.0, 96.0),
                t_rp_ns: rng.uniform(0.1, 40.0),
                ..DramTiming::ddr4_default()
            });
        }
        for timing in timings {
            ProtocolTiming::from_coarse_checked(&timing).expect("valid timing");
            let mut closed = TimingModel::new(TimingBackend::Analytical, &timing, 128, ROW_BYTES);
            let mut fsm = TimingModel::new(TimingBackend::BankFsm, &timing, 128, ROW_BYTES);
            for step in 0..350 {
                let charge = Charge::random(&mut rng, |r| r.uniform(0.0, 16.0)).streaming();
                let fsm_ns = charge.on(&mut fsm);
                fsm.take_counters();
                if matches!(charge, Charge::Copy(_)) {
                    continue;
                }
                let closed_ns = charge.on(&mut closed);
                assert_eq!(
                    fsm_ns.to_bits(),
                    closed_ns.to_bits(),
                    "{timing:?} step={step} {charge:?}: {fsm_ns} vs {closed_ns}"
                );
            }
        }
    }

    #[test]
    fn backend_parsing_and_env_names() {
        assert_eq!(TimingBackend::parse("fsm"), Some(TimingBackend::BankFsm));
        assert_eq!(
            TimingBackend::parse("Analytical"),
            Some(TimingBackend::Analytical)
        );
        assert_eq!(TimingBackend::parse("nope"), None);
        assert_eq!(TimingBackend::BankFsm.to_string(), "fsm");
    }
}
