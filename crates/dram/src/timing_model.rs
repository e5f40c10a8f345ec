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
//! mutated. Long charges replay a bounded command prefix and
//! extrapolate the steady-state tail deterministically, advancing the
//! FSM clock past the tail so later charges observe it. The commands a
//! charge issues stay pending until the caller drains them with
//! [`TimingModel::take_counters`].
//!
//! With at least two banks and the default DDR4 parameters, a
//! [`RowPattern::Streaming`] access pattern (fresh rows round-robin
//! across banks) never stalls: each closed-page read costs exactly
//! tRCD + CL = `row_read_ns` and each write tRCD + tWR = `row_write_ns`,
//! so the FSM agrees with the closed form to the last bit at zero
//! contention. Under [`RowPattern::Thrashing`] (every access re-opens a
//! row in one bank) the tRAS + tRP recovery lands on the critical path
//! and the FSM is strictly slower — the fidelity gap the backend exists
//! to expose.

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
                f.run_accesses(reads, false, 0.0, pattern)
                    + f.run_accesses(writes, true, 0.0, pattern)
            }
        }
    }

    /// Charges `reads` full-row reads, each extended by `extra_ns` of
    /// periphery work that overlaps the row cycle (row-wide popcount).
    pub fn charge_rows_extra(&mut self, reads: u64, extra_ns: f64, pattern: RowPattern) -> f64 {
        match &mut self.fsm {
            None => reads as f64 * (self.timing.row_read_ns + extra_ns),
            Some(f) => f.run_accesses(reads, false, extra_ns, pattern),
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
                f.run_accesses(rows_in as u64, false, gdl_ns, pattern)
                    + f.run_accesses(rows_out as u64, true, gdl_ns, pattern)
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

    /// Issues `n` closed-page row accesses (bounded replay +
    /// extrapolated steady-state tail) and returns the elapsed time.
    fn run_accesses(&mut self, n: u64, write: bool, extra_ns: f64, pattern: RowPattern) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let replay = n.min(ROW_REPLAY_CAP);
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
        let tail = n - replay;
        if tail > 0 {
            // Steady state: every further access repeats the last one.
            let tail_ns = tail as f64 * last;
            self.sim.advance(tail_ns);
            elapsed += tail_ns;
            let c = &mut self.sim.counters;
            c.activations += tail;
            c.precharges += tail;
            c.row_misses += tail;
            if write {
                c.writes += tail;
            } else {
                c.reads += tail;
            }
        }
        elapsed
    }

    /// Issues `pairs` activate–precharge pairs round-robin (bounded
    /// replay + extrapolated tail) and returns the elapsed time.
    fn run_activate_precharge(&mut self, pairs: u64) -> f64 {
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
