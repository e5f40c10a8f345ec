//! Pluggable timing backends behind every cost path (§V-C).
//!
//! The paper's simulator charges closed-form latencies per row access;
//! its §V-C limitation ("integration with DRAMsim3 has been left as
//! future work") is exactly the gap between that closed form and a
//! stateful bank FSM. This module makes the choice explicit: a
//! [`TimingModel`] trait with two implementations selected per device —
//!
//! * [`Analytical`] — the original closed-form math, bit-identical to
//!   the pre-trait simulator and still the default;
//! * [`BankFsm`] — a stateful backend built on the promoted
//!   [`RankSim`]: per-bank open-row tracking, ACT/PRE/RD/WR with
//!   tRCD/tRP/tRAS/tCCD interlocks, and row-buffer hit/miss accounting.
//!
//! The FSM follows the execute-once-and-stall rule: every charge issues
//! its commands against the live bank state exactly once, and the time
//! it returns *includes* any interlock stalls — there is no
//! side-effect-free latency query that could disagree with the state it
//! mutated. Long charges replay a bounded command prefix and
//! extrapolate the steady-state tail deterministically, advancing the
//! FSM clock past the tail so later charges observe it.
//!
//! With at least two banks and the default DDR4 parameters, a
//! [`RowPattern::Streaming`] access pattern (fresh rows round-robin
//! across banks) never stalls: each closed-page read costs exactly
//! tRCD + CL = `row_read_ns` and each write tRCD + tWR = `row_write_ns`,
//! so `BankFsm` agrees with `Analytical` to the last bit at zero
//! contention. Under [`RowPattern::Thrashing`] (every access re-opens a
//! row in one bank) the tRAS + tRP recovery lands on the critical path
//! and the FSM is strictly slower — the fidelity gap the backend exists
//! to expose.

use crate::protocol::{ProtocolStats, ProtocolTiming, RankSim};
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

/// Cumulative protocol counters a timing backend has issued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingCounters {
    /// ACT commands issued.
    pub activations: u64,
    /// PRE commands issued.
    pub precharges: u64,
    /// Column reads issued.
    pub reads: u64,
    /// Column writes issued.
    pub writes: u64,
    /// Column commands that hit an already-open row.
    pub row_hits: u64,
    /// Column commands that paid a fresh activation.
    pub row_misses: u64,
}

impl TimingCounters {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &TimingCounters) {
        self.activations += other.activations;
        self.precharges += other.precharges;
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
    }

    /// Counters accumulated since `earlier` (a previous snapshot of the
    /// same backend).
    #[must_use]
    pub fn delta_since(&self, earlier: &TimingCounters) -> TimingCounters {
        TimingCounters {
            activations: self.activations.saturating_sub(earlier.activations),
            precharges: self.precharges.saturating_sub(earlier.precharges),
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            row_hits: self.row_hits.saturating_sub(earlier.row_hits),
            row_misses: self.row_misses.saturating_sub(earlier.row_misses),
        }
    }

    /// True when no commands have been counted.
    pub fn is_empty(&self) -> bool {
        *self == TimingCounters::default()
    }
}

impl From<ProtocolStats> for TimingCounters {
    fn from(s: ProtocolStats) -> Self {
        TimingCounters {
            activations: s.activations,
            precharges: s.precharges,
            reads: s.reads,
            writes: s.writes,
            row_hits: s.row_hits,
            row_misses: s.row_misses,
        }
    }
}

/// Counters and achieved bandwidth from one bounded replay of a
/// host↔device copy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CopyReplay {
    /// Protocol commands the copy issued (extrapolated past the replay
    /// bound).
    pub counters: TimingCounters,
    /// Achieved streaming bandwidth over the replayed window (GB/s).
    pub achieved_gbs: f64,
}

/// One pluggable timing backend: every model-layer time charge flows
/// through exactly one of these per device shard.
///
/// All `charge_*` methods return nanoseconds (except
/// [`TimingModel::charge_host_copy`], which returns milliseconds to
/// match [`DramTiming::host_copy_ms`]) and follow execute-once-and-stall
/// semantics: calling them mutates backend state, and the returned time
/// includes any stalls that state implies. The [`Analytical`] backend is
/// stateless, so for it the returned times are the paper's closed forms.
pub trait TimingModel: std::fmt::Debug + Send {
    /// Which backend this is (used for conditional accounting).
    fn backend(&self) -> TimingBackend;

    /// Charges one lockstep sweep of `reads` full-row reads and
    /// `writes` full-row write-backs.
    fn charge_rows(&mut self, reads: u64, writes: u64, pattern: RowPattern) -> f64;

    /// Charges `reads` full-row reads, each extended by `extra_ns` of
    /// periphery work that overlaps the row cycle (row-wide popcount).
    fn charge_rows_extra(&mut self, reads: u64, extra_ns: f64, pattern: RowPattern) -> f64;

    /// Charges `pairs` activate–precharge pairs with no column access
    /// (the analog AAP/TRA primitive).
    fn charge_activate_precharge(&mut self, pairs: u64) -> f64;

    /// Charges walker row traffic for the bit-parallel targets:
    /// `rows_in` row reads and `rows_out` row write-backs, each paying a
    /// `gdl_ns` global-data-line crossing on top of the row cycle. The
    /// row counts are integral (they arrive as `f64` from the traffic
    /// model).
    fn charge_walker_rows(
        &mut self,
        rows_in: f64,
        rows_out: f64,
        gdl_ns: f64,
        pattern: RowPattern,
    ) -> f64;

    /// Charges a bandwidth-bound burst stream of `bytes` at `gbs` GB/s
    /// (the UPMEM MRAM DMA path). Burst streams are bandwidth-limited in
    /// both backends; the FSM additionally replays a bounded window for
    /// its row-buffer counters.
    fn charge_burst(&mut self, bytes: f64, gbs: f64) -> f64;

    /// Charges one host↔device copy of `bytes` over `ranks` rank
    /// channels, in milliseconds (matches [`DramTiming::host_copy_ms`]).
    fn charge_host_copy(&mut self, bytes: u64, ranks: usize) -> f64;

    /// Replays one host↔device copy of `bytes` through the bank state
    /// machines (bounded to [`COPY_REPLAY_MAX_ROWS`] rows) and returns
    /// its protocol counters. Stateless for [`Analytical`] (a fresh
    /// rank per call, preserving the historical per-copy trace
    /// counters); executed against the live state for [`BankFsm`].
    fn copy_replay(&mut self, bytes: u64) -> CopyReplay;

    /// Epoch boundary: closes every open row and returns the drain time
    /// in nanoseconds (0 for the stateless backend).
    fn drain(&mut self) -> f64;

    /// Cumulative protocol counters this backend has issued (all-zero
    /// for [`Analytical`], whose per-copy replays are advisory and
    /// transient).
    fn counters(&self) -> TimingCounters;

    /// Resets all backend state and counters (epoch/statistics reset).
    fn reset(&mut self);
}

/// Constructs the backend selected by `backend` for a rank with `banks`
/// banks and `row_bytes`-byte rows.
pub fn make_timing_model(
    backend: TimingBackend,
    timing: &DramTiming,
    banks: usize,
    row_bytes: u64,
) -> Box<dyn TimingModel> {
    match backend {
        TimingBackend::Analytical => Box::new(Analytical::new(timing, banks, row_bytes)),
        TimingBackend::BankFsm => Box::new(BankFsm::new(timing, banks, row_bytes)),
    }
}

/// Replays one streaming copy of `bytes` on `sim` (bounded) and returns
/// the issued-window stats delta, the achieved bandwidth over the
/// window, and the number of unreplayed tail rows.
fn replay_copy_window(sim: &mut RankSim, bytes: u64, row_bytes: u64) -> (ProtocolStats, f64, u64) {
    let bursts = (row_bytes / 64).max(1) as usize;
    let full_rows = bytes.div_ceil(row_bytes).max(1);
    let rows = full_rows.min(COPY_REPLAY_MAX_ROWS as u64) as usize;
    let before = sim.stats();
    let t0 = sim.now_ns();
    let _ = sim.stream_read_bandwidth(rows, bursts, 64);
    let after = sim.stats();
    let window_ns = sim.now_ns() - t0;
    let window_bytes = (rows * bursts * 64) as f64;
    let gbs = if window_ns > 0.0 {
        window_bytes / window_ns
    } else {
        0.0
    };
    let delta = ProtocolStats {
        activations: after.activations - before.activations,
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        precharges: after.precharges - before.precharges,
        row_hits: after.row_hits - before.row_hits,
        row_misses: after.row_misses - before.row_misses,
        elapsed_ns: window_ns,
    };
    (delta, gbs, full_rows - rows as u64)
}

/// Extends a replayed copy window's counters by `tail_rows` unreplayed
/// steady-state rows (1 ACT + 1 PRE + `bursts` reads per row, first
/// read a miss).
fn extrapolate_copy_counters(c: &mut TimingCounters, tail_rows: u64, row_bytes: u64) {
    if tail_rows == 0 {
        return;
    }
    let bursts = (row_bytes / 64).max(1);
    c.activations += tail_rows;
    c.precharges += tail_rows;
    c.reads += tail_rows * bursts;
    c.row_misses += tail_rows;
    c.row_hits += tail_rows * (bursts - 1);
}

/// The paper's closed-form timing math, bit-identical to the
/// pre-[`TimingModel`] simulator. Stateless: charges never interact, so
/// streaming and thrashing patterns price the same and
/// [`TimingModel::counters`] stays zero.
#[derive(Debug, Clone)]
pub struct Analytical {
    timing: DramTiming,
    banks: usize,
    row_bytes: u64,
}

impl Analytical {
    /// Closed-form backend over `timing` for a rank with `banks` banks
    /// and `row_bytes`-byte rows (the latter two only feed the advisory
    /// per-copy replay).
    pub fn new(timing: &DramTiming, banks: usize, row_bytes: u64) -> Self {
        Analytical {
            timing: *timing,
            banks,
            row_bytes,
        }
    }
}

impl TimingModel for Analytical {
    fn backend(&self) -> TimingBackend {
        TimingBackend::Analytical
    }

    fn charge_rows(&mut self, reads: u64, writes: u64, _pattern: RowPattern) -> f64 {
        reads as f64 * self.timing.row_read_ns + writes as f64 * self.timing.row_write_ns
    }

    fn charge_rows_extra(&mut self, reads: u64, extra_ns: f64, _pattern: RowPattern) -> f64 {
        reads as f64 * (self.timing.row_read_ns + extra_ns)
    }

    fn charge_activate_precharge(&mut self, pairs: u64) -> f64 {
        pairs as f64 * (self.timing.t_ras_ns + self.timing.t_rp_ns)
    }

    fn charge_walker_rows(
        &mut self,
        rows_in: f64,
        rows_out: f64,
        gdl_ns: f64,
        _pattern: RowPattern,
    ) -> f64 {
        rows_in * (self.timing.row_read_ns + gdl_ns)
            + rows_out * (gdl_ns + self.timing.row_write_ns)
    }

    fn charge_burst(&mut self, bytes: f64, gbs: f64) -> f64 {
        bytes / gbs
    }

    fn charge_host_copy(&mut self, bytes: u64, ranks: usize) -> f64 {
        self.timing.host_copy_ms(bytes, ranks)
    }

    fn copy_replay(&mut self, bytes: u64) -> CopyReplay {
        // Advisory and transient: a fresh rank per copy, exactly the
        // historical bounded replay, leaving no state behind.
        let mut sim = RankSim::new(ProtocolTiming::from_coarse(&self.timing), self.banks);
        let (delta, gbs, _tail) = replay_copy_window(&mut sim, bytes, self.row_bytes);
        CopyReplay {
            counters: delta.into(),
            achieved_gbs: gbs,
        }
    }

    fn drain(&mut self) -> f64 {
        0.0
    }

    fn counters(&self) -> TimingCounters {
        TimingCounters::default()
    }

    fn reset(&mut self) {}
}

/// The stateful bank-FSM backend: every charge issues closed-page row
/// cycles (or bounded burst replays) against one [`RankSim`] and prices
/// the stalls its interlocks impose.
#[derive(Debug)]
pub struct BankFsm {
    sim: RankSim,
    timing: DramTiming,
    banks: usize,
    row_bytes: u64,
    cursor: usize,
    counters: TimingCounters,
}

impl BankFsm {
    /// Stateful backend over `timing` for a rank with `banks` banks and
    /// `row_bytes`-byte rows.
    pub fn new(timing: &DramTiming, banks: usize, row_bytes: u64) -> Self {
        BankFsm {
            sim: RankSim::new(ProtocolTiming::from_coarse(timing), banks.max(1)),
            timing: *timing,
            banks: banks.max(1),
            row_bytes,
            cursor: 0,
            counters: TimingCounters::default(),
        }
    }

    fn pick_bank(&mut self, pattern: RowPattern) -> usize {
        match pattern {
            RowPattern::Streaming => {
                let b = self.cursor;
                self.cursor = (self.cursor + 1) % self.banks;
                b
            }
            RowPattern::Thrashing => 0,
        }
    }

    /// Issues `n` closed-page row accesses (bounded replay +
    /// extrapolated steady-state tail) and returns the elapsed time.
    fn run_accesses(&mut self, n: u64, write: bool, extra_ns: f64, pattern: RowPattern) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let replay = n.min(ROW_REPLAY_CAP);
        let before = self.sim.stats();
        let mut elapsed = 0.0;
        let mut last = 0.0;
        for _ in 0..replay {
            let bank = self.pick_bank(pattern);
            last = self
                .sim
                .row_cycle(bank, write, extra_ns)
                .expect("bank cursor stays in range");
            elapsed += last;
        }
        let mut delta: TimingCounters =
            TimingCounters::from(self.sim.stats()).delta_since(&TimingCounters::from(before));
        let tail = n - replay;
        if tail > 0 {
            // Steady state: every further access repeats the last delta.
            let tail_ns = tail as f64 * last;
            self.sim.advance(tail_ns);
            elapsed += tail_ns;
            delta.activations += tail;
            delta.precharges += tail;
            delta.row_misses += tail;
            if write {
                delta.writes += tail;
            } else {
                delta.reads += tail;
            }
        }
        self.counters.merge(&delta);
        elapsed
    }

    /// Runs one bounded burst replay against the live state and
    /// accounts its (extrapolated) counters. Returns the achieved
    /// bandwidth over the replayed window.
    fn account_burst(&mut self, bytes: u64) -> CopyReplay {
        let (delta, gbs, tail_rows) = replay_copy_window(&mut self.sim, bytes, self.row_bytes);
        let mut counters = TimingCounters::from(delta);
        extrapolate_copy_counters(&mut counters, tail_rows, self.row_bytes);
        self.counters.merge(&counters);
        // The real transfer lasts far longer than the replayed window;
        // by the time it completes every bank has recovered. Close the
        // replay's open rows and settle past all recoveries so the next
        // row charge starts from a quiescent rank.
        self.sim.drain_open_rows();
        let settle = self
            .sim
            .bank_snapshots()
            .iter()
            .map(|b| b.ready_at_ns)
            .fold(0.0f64, f64::max)
            - self.sim.now_ns();
        self.sim.advance(settle);
        CopyReplay {
            counters,
            achieved_gbs: gbs,
        }
    }
}

impl TimingModel for BankFsm {
    fn backend(&self) -> TimingBackend {
        TimingBackend::BankFsm
    }

    fn charge_rows(&mut self, reads: u64, writes: u64, pattern: RowPattern) -> f64 {
        self.run_accesses(reads, false, 0.0, pattern)
            + self.run_accesses(writes, true, 0.0, pattern)
    }

    fn charge_rows_extra(&mut self, reads: u64, extra_ns: f64, pattern: RowPattern) -> f64 {
        self.run_accesses(reads, false, extra_ns, pattern)
    }

    fn charge_activate_precharge(&mut self, pairs: u64) -> f64 {
        if pairs == 0 {
            return 0.0;
        }
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
        }
        self.counters.activations += pairs;
        self.counters.precharges += pairs;
        elapsed
    }

    fn charge_walker_rows(
        &mut self,
        rows_in: f64,
        rows_out: f64,
        gdl_ns: f64,
        pattern: RowPattern,
    ) -> f64 {
        self.run_accesses(rows_in as u64, false, gdl_ns, pattern)
            + self.run_accesses(rows_out as u64, true, gdl_ns, pattern)
    }

    fn charge_burst(&mut self, bytes: f64, gbs: f64) -> f64 {
        if bytes > 0.0 {
            self.account_burst(bytes.max(1.0) as u64);
        }
        // Burst DMA is bandwidth-bound in both backends; the replay
        // above only feeds the row-buffer counters.
        bytes / gbs
    }

    fn charge_host_copy(&mut self, bytes: u64, ranks: usize) -> f64 {
        self.timing.host_copy_ms(bytes, ranks)
    }

    fn copy_replay(&mut self, bytes: u64) -> CopyReplay {
        self.account_burst(bytes)
    }

    fn drain(&mut self) -> f64 {
        self.sim.drain_open_rows()
    }

    fn counters(&self) -> TimingCounters {
        self.counters
    }

    fn reset(&mut self) {
        self.sim = RankSim::new(ProtocolTiming::from_coarse(&self.timing), self.banks);
        self.cursor = 0;
        self.counters = TimingCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Analytical, BankFsm) {
        let t = DramTiming::ddr4_default();
        (Analytical::new(&t, 16, 1024), BankFsm::new(&t, 16, 1024))
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
        let replay = f.copy_replay(64 * 1024);
        assert!(replay.counters.row_hits > 0, "burst reads hit open rows");
        assert!(replay.achieved_gbs > 0.0);
        let c = f.counters();
        assert_eq!(c.reads, 10 + replay.counters.reads);
        assert_eq!(c.writes, 5);
        assert_eq!(c.row_misses, 15 + replay.counters.row_misses);
        // 64 KiB in 1 KiB rows = 64 rows, extrapolated past the 32-row
        // replay window.
        assert_eq!(replay.counters.activations, 64);
    }

    #[test]
    fn copies_leave_the_rank_quiescent_for_row_charges() {
        // A row charge right after a copy must not inherit stalls from
        // the replay window (the real transfer outlasts every recovery).
        let (mut a, mut f) = pair();
        f.copy_replay(1 << 20);
        assert_eq!(
            a.charge_rows(4, 0, RowPattern::Streaming),
            f.charge_rows(4, 0, RowPattern::Streaming)
        );
    }

    #[test]
    fn analytical_keeps_no_state() {
        let (mut a, _) = pair();
        let replay = a.copy_replay(1 << 20);
        assert!(replay.counters.activations > 0);
        assert!(a.counters().is_empty());
        assert_eq!(a.drain(), 0.0);
    }

    #[test]
    fn reset_restores_a_fresh_fsm() {
        let (_, mut f) = pair();
        f.charge_rows(100, 100, RowPattern::Thrashing);
        assert!(!f.counters().is_empty());
        f.reset();
        assert!(f.counters().is_empty());
        let t = DramTiming::ddr4_default();
        assert_eq!(
            f.charge_rows(8, 8, RowPattern::Streaming),
            8.0 * t.row_read_ns + 8.0 * t.row_write_ns
        );
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
