//! Command-level DRAM protocol timing (a DRAMsim3-lite).
//!
//! §V-C: "For more precise modeling, integration with DRAMsim3 has been
//! left as future work. PIMeval currently does not differentiate between
//! channels and ranks". This module is a self-contained step in that
//! direction: a bank-state machine that times an ACT/RD/WR/PRE command
//! stream with row-buffer hit/miss accounting, usable to sanity-check
//! the closed-form copy model against a protocol-level replay.
//!
//! Modeled constraints (per bank): tRCD between ACT and column command,
//! tRAS minimum row-open time, tRP after PRE, CL read latency, and tCCD
//! between column commands on the same rank. Banks interleave freely, as
//! §III describes ("one bank can be precharging while another is
//! providing data").

use std::ops::Range;

use crate::error::DramError;
use crate::timing::DramTiming;

/// Protocol-level timing parameters derived from [`DramTiming`] plus the
/// column-access latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolTiming {
    /// ACT → column command (ns).
    pub t_rcd_ns: f64,
    /// Minimum ACT → PRE (ns).
    pub t_ras_ns: f64,
    /// PRE → next ACT (ns).
    pub t_rp_ns: f64,
    /// Column command → data (CAS latency, ns).
    pub cl_ns: f64,
    /// Column write → write-back complete (ns); derived so a full
    /// closed-bank row write costs exactly the coarse `row_write_ns`.
    pub t_wr_ns: f64,
    /// Column command → column command, same rank (ns).
    pub t_ccd_ns: f64,
}

impl ProtocolTiming {
    /// Derives protocol parameters from the coarse [`DramTiming`]: the
    /// coarse `row_read_ns` is interpreted as tRCD + CL (split evenly),
    /// and `row_write_ns` as tRCD + tWR. No consistency checks are
    /// performed — use [`ProtocolTiming::from_coarse_checked`] to reject
    /// parameter sets where the interlocks are unsatisfiable (e.g.
    /// tRAS < tRCD).
    pub fn from_coarse(t: &DramTiming) -> Self {
        let t_rcd = t.row_read_ns / 2.0;
        ProtocolTiming {
            t_rcd_ns: t_rcd,
            t_ras_ns: t.t_ras_ns,
            t_rp_ns: t.t_rp_ns,
            cl_ns: t.row_read_ns - t_rcd,
            t_wr_ns: t.row_write_ns - t_rcd,
            t_ccd_ns: t.t_ccd_ns,
        }
    }

    /// Checked variant of [`ProtocolTiming::from_coarse`].
    ///
    /// # Errors
    ///
    /// [`DramError::InvalidTiming`] when the derived parameter set is
    /// inconsistent; see [`ProtocolTiming::validate`].
    pub fn from_coarse_checked(t: &DramTiming) -> Result<Self, DramError> {
        let p = ProtocolTiming::from_coarse(t);
        p.validate()?;
        Ok(p)
    }

    /// Validates the parameter set against the interlocks the bank FSM
    /// enforces: every parameter must be finite and positive, a row must
    /// stay open at least until its column command can issue
    /// (tRAS ≥ tRCD), and the coarse write latency must exceed tRCD so
    /// the derived tWR is positive.
    ///
    /// # Errors
    ///
    /// [`DramError::InvalidTiming`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), DramError> {
        let fields = [
            ("t_rcd_ns", self.t_rcd_ns),
            ("t_ras_ns", self.t_ras_ns),
            ("t_rp_ns", self.t_rp_ns),
            ("cl_ns", self.cl_ns),
            ("t_wr_ns", self.t_wr_ns),
            ("t_ccd_ns", self.t_ccd_ns),
        ];
        for (name, v) in fields {
            if !v.is_finite() || v <= 0.0 {
                return Err(DramError::InvalidTiming(format!(
                    "{name} must be finite and positive, got {v}"
                )));
            }
        }
        if self.t_ras_ns < self.t_rcd_ns {
            return Err(DramError::InvalidTiming(format!(
                "tRAS ({}) must be at least tRCD ({}): a row cannot close \
                 before its column command can issue",
                self.t_ras_ns, self.t_rcd_ns
            )));
        }
        Ok(())
    }
}

/// One DRAM command addressed to a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Activate `row` in `bank`.
    Activate {
        /// Target bank.
        bank: usize,
        /// Row to open.
        row: usize,
    },
    /// Column read from `bank` (open row required).
    Read {
        /// Target bank.
        bank: usize,
    },
    /// Column write to `bank` (open row required).
    Write {
        /// Target bank.
        bank: usize,
    },
    /// Precharge `bank`.
    Precharge {
        /// Target bank.
        bank: usize,
    },
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<usize>,
    ready_at: f64,  // earliest time the bank accepts its next command
    opened_at: f64, // ACT issue time (for tRAS)
    fresh: bool,    // no column command since the last ACT
}

/// DRAM commands a rank has issued: the one command counter of this
/// crate. [`RankSim`] counts into it, and the timing model hands it to
/// its callers by draining it.
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
    /// Column commands that hit an already-open row (a prior column
    /// command already touched the open row).
    pub row_hits: u64,
    /// Column commands that paid a fresh activation (the first column
    /// command after each ACT).
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

    /// True when no commands have been counted.
    pub fn is_empty(&self) -> bool {
        *self == TimingCounters::default()
    }

    /// Row-buffer hit rate over all column commands, in `[0, 1]`
    /// (0 when no column command was issued).
    pub fn hit_rate(&self) -> f64 {
        let cols = self.row_hits + self.row_misses;
        if cols == 0 {
            0.0
        } else {
            self.row_hits as f64 / cols as f64
        }
    }
}

/// An in-order, per-rank command scheduler over `banks` bank state
/// machines.
///
/// # Example
///
/// ```
/// use pim_dram::protocol::{Command, ProtocolTiming, RankSim};
/// use pim_dram::DramTiming;
///
/// let mut sim = RankSim::new(ProtocolTiming::from_coarse(&DramTiming::ddr4_default()), 4);
/// sim.issue(Command::Activate { bank: 0, row: 7 }).unwrap();
/// sim.issue(Command::Read { bank: 0 }).unwrap(); // row-buffer miss (fresh ACT)
/// sim.issue(Command::Read { bank: 0 }).unwrap(); // row-buffer hit
/// assert_eq!(sim.counters().row_misses, 1);
/// assert_eq!(sim.counters().row_hits, 1);
/// ```
#[derive(Debug)]
pub struct RankSim {
    pub(crate) timing: ProtocolTiming,
    banks: Vec<BankState>,
    /// Earliest time the shared command/data bus accepts a column command.
    bus_free_at: f64,
    now: f64,
    /// Commands issued since the last [`RankSim::take_counters`].
    pub(crate) counters: TimingCounters,
}

/// Protocol violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Command addressed a bank the rank does not have.
    NoSuchBank(usize),
    /// Column command to a bank with no open row.
    RowNotOpen(usize),
    /// ACT to a bank that already has an open row.
    RowAlreadyOpen(usize),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::NoSuchBank(b) => write!(f, "no such bank {b}"),
            ProtocolError::RowNotOpen(b) => write!(f, "bank {b} has no open row"),
            ProtocolError::RowAlreadyOpen(b) => write!(f, "bank {b} already has an open row"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl RankSim {
    /// Creates a rank with `banks` banks at time 0.
    pub fn new(timing: ProtocolTiming, banks: usize) -> Self {
        RankSim {
            timing,
            banks: vec![BankState::default(); banks],
            bus_free_at: 0.0,
            now: 0.0,
            counters: TimingCounters::default(),
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Commands issued since the last [`RankSim::take_counters`].
    pub fn counters(&self) -> &TimingCounters {
        &self.counters
    }

    /// Drains the command counters: returns them and starts counting
    /// from zero.
    pub fn take_counters(&mut self) -> TimingCounters {
        std::mem::take(&mut self.counters)
    }

    /// Issues one command at the earliest legal time.
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] if the command is illegal in the current bank
    /// state; timing constraints never error — they stall.
    pub fn issue(&mut self, cmd: Command) -> Result<(), ProtocolError> {
        let t = self.timing;
        let bank_idx = match cmd {
            Command::Activate { bank, .. }
            | Command::Read { bank }
            | Command::Write { bank }
            | Command::Precharge { bank } => bank,
        };
        let bank = self
            .banks
            .get_mut(bank_idx)
            .ok_or(ProtocolError::NoSuchBank(bank_idx))?;
        match cmd {
            Command::Activate { row, .. } => {
                if bank.open_row.is_some() {
                    return Err(ProtocolError::RowAlreadyOpen(bank_idx));
                }
                let start = self.now.max(bank.ready_at);
                bank.open_row = Some(row);
                bank.opened_at = start;
                bank.ready_at = start + t.t_rcd_ns;
                bank.fresh = true;
                self.now = start; // command bus occupancy is negligible here
                self.counters.activations += 1;
            }
            Command::Read { .. } | Command::Write { .. } => {
                if bank.open_row.is_none() {
                    return Err(ProtocolError::RowNotOpen(bank_idx));
                }
                let start = self.now.max(bank.ready_at).max(self.bus_free_at);
                self.bus_free_at = start + t.t_ccd_ns;
                bank.ready_at = start + t.t_ccd_ns;
                self.now = start;
                if matches!(cmd, Command::Read { .. }) {
                    self.counters.reads += 1;
                } else {
                    self.counters.writes += 1;
                }
                if bank.fresh {
                    bank.fresh = false;
                    self.counters.row_misses += 1;
                } else {
                    self.counters.row_hits += 1;
                }
            }
            Command::Precharge { .. } => {
                if bank.open_row.is_none() {
                    return Err(ProtocolError::RowNotOpen(bank_idx));
                }
                let start = self.now.max(bank.ready_at).max(bank.opened_at + t.t_ras_ns);
                bank.open_row = None;
                bank.ready_at = start + t.t_rp_ns;
                self.now = start;
                self.counters.precharges += 1;
            }
        }
        Ok(())
    }

    /// The simulated clock (ns): the later of the last command's issue
    /// time (for an access-level operation, its completion time) and the
    /// end of the last column command's tCCD slot on the data bus.
    /// [`RankSim::issue`] charges no CAS latency (CL) or write recovery
    /// (tWR), so neither is included.
    pub fn now_ns(&self) -> f64 {
        self.now.max(self.bus_free_at)
    }

    /// Advances the clock by `ns` without issuing commands — used by
    /// the timing model to account an extrapolated steady-state tail
    /// after a bounded replay (execute-once-and-stall: later charges
    /// observe the advanced clock).
    pub fn advance(&mut self, ns: f64) {
        if ns > 0.0 {
            self.now += ns;
        }
    }

    /// One closed-page full-row access: precharge any stale open row,
    /// activate, issue the column command, and schedule the bank's
    /// auto-precharge (earliest tRAS + tRP after the ACT). Returns the
    /// clock advance (completion − previous completion), which exceeds
    /// `access_ns` exactly when bank interlocks stall the access.
    ///
    /// `access_ns` is the access latency once the bank is ready: tRCD +
    /// CL (the coarse `row_read_ns`) for a read and tRCD + tWR (the
    /// coarse `row_write_ns`) for a write, plus any periphery work that
    /// overlaps the row cycle (row-wide popcount, GDL crossings); `write`
    /// picks the column command counted.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NoSuchBank`] for an out-of-range bank.
    pub fn row_cycle(
        &mut self,
        bank_idx: usize,
        write: bool,
        access_ns: f64,
    ) -> Result<f64, ProtocolError> {
        let t = self.timing;
        let bank = self
            .banks
            .get_mut(bank_idx)
            .ok_or(ProtocolError::NoSuchBank(bank_idx))?;
        if bank.open_row.is_some() {
            // Close a row left open by a burst replay before re-activating.
            let pre = self.now.max(bank.ready_at).max(bank.opened_at + t.t_ras_ns);
            bank.open_row = None;
            bank.fresh = false;
            bank.ready_at = pre + t.t_rp_ns;
            self.counters.precharges += 1;
        }
        let start = self.now.max(bank.ready_at);
        let done = start + access_ns;
        // Auto-precharge as soon as tRAS allows; the bank re-opens tRP later.
        bank.opened_at = start;
        bank.open_row = None;
        bank.fresh = false;
        bank.ready_at = start + access_ns.max(t.t_ras_ns) + t.t_rp_ns;
        self.counters.activations += 1;
        self.counters.precharges += 1;
        if write {
            self.counters.writes += 1;
        } else {
            self.counters.reads += 1;
        }
        self.counters.row_misses += 1;
        let delta = done - self.now;
        self.now = done;
        Ok(delta)
    }

    /// `count` back-to-back closed-page cycles round-robin from
    /// `first_bank`, priced in closed form when none of them can stall.
    /// Each cycle takes `access_ns` once its bank is ready and leaves the
    /// bank busy for `recovery_ns` from its start: max(`access_ns`,
    /// tRAS) + tRP for a row access, tRAS + tRP for an
    /// activate–precharge pair. No cycle stalls when
    ///
    /// * the i-th bank of the first lap is closed and ready by
    ///   `now + i · access_ns`, and
    /// * a bank touched again one lap later has recovered by then:
    ///   `banks · access_ns ≥ recovery_ns` whenever `count > banks`.
    ///
    /// Then the clock advances by `count · access_ns`, and only the last
    /// lap's banks are written (every earlier write is overwritten a lap
    /// later) — the state a one-by-one [`RankSim::row_cycle`] /
    /// [`RankSim::activate_precharge_cycle`] replay leaves whenever the
    /// clock arithmetic is exact (times in multiples of a power of two,
    /// as both timing presets are). Counts no commands: the caller knows
    /// which it issued. Returns `false`, changing nothing, when a cycle
    /// could stall; the caller then replays.
    pub(crate) fn try_stream_cycles(
        &mut self,
        first_bank: usize,
        count: usize,
        access_ns: f64,
        recovery_ns: f64,
    ) -> bool {
        let nbanks = self.banks.len();
        if first_bank >= nbanks || (count > nbanks && (nbanks as f64) * access_ns < recovery_ns) {
            return false;
        }
        let now = self.now;
        let lap = count.min(nbanks);
        let ready = |banks: &[BankState], first: usize| {
            banks
                .iter()
                .zip(first..)
                .all(|(b, i)| b.open_row.is_none() && b.ready_at <= now + i as f64 * access_ns)
        };
        let (to_end, wrapped) = ring(first_bank, lap, nbanks);
        let split = to_end.len();
        if !(ready(&self.banks[to_end], 0) && ready(&self.banks[wrapped], split)) {
            return false;
        }
        let skip = count - lap;
        let last_lap = if skip == 0 {
            first_bank
        } else {
            (first_bank + skip) % nbanks
        };
        let (to_end, wrapped) = ring(last_lap, lap, nbanks);
        let split = to_end.len();
        for (banks, first) in [(to_end, skip), (wrapped, skip + split)] {
            for (b, i) in self.banks[banks].iter_mut().zip(first..) {
                let start = now + i as f64 * access_ns;
                b.opened_at = start;
                b.open_row = None;
                b.fresh = false;
                b.ready_at = start + recovery_ns;
            }
        }
        self.now = now + count as f64 * access_ns;
        true
    }

    /// One activate–precharge pair with no column access (the analog
    /// AAP/TRA primitive): completes tRAS + tRP after it starts, which
    /// is also when the bank accepts its next command. Returns the clock
    /// advance.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NoSuchBank`] for an out-of-range bank.
    pub fn activate_precharge_cycle(&mut self, bank_idx: usize) -> Result<f64, ProtocolError> {
        let t = self.timing;
        let bank = self
            .banks
            .get_mut(bank_idx)
            .ok_or(ProtocolError::NoSuchBank(bank_idx))?;
        let start = self.now.max(bank.ready_at);
        let done = start + (t.t_ras_ns + t.t_rp_ns);
        bank.opened_at = start;
        bank.open_row = None;
        bank.fresh = false;
        bank.ready_at = done;
        self.counters.activations += 1;
        self.counters.precharges += 1;
        let delta = done - self.now;
        self.now = done;
        Ok(delta)
    }

    /// Epoch boundary: precharges every open row and advances the clock
    /// past all precharge completions. Returns the elapsed drain time
    /// (ns), zero when no rows were open.
    pub fn drain_open_rows(&mut self) -> f64 {
        let t = self.timing;
        let before = self.now_ns();
        let mut latest = self.now;
        for bank in &mut self.banks {
            if bank.open_row.is_some() {
                let pre = self.now.max(bank.ready_at).max(bank.opened_at + t.t_ras_ns);
                bank.open_row = None;
                bank.fresh = false;
                bank.ready_at = pre + t.t_rp_ns;
                self.counters.precharges += 1;
                latest = latest.max(bank.ready_at);
            }
        }
        self.now = self.now.max(latest);
        self.now_ns() - before
    }

    /// The latest time (ns) any bank is ready for its next command.
    pub fn latest_ready_ns(&self) -> f64 {
        self.banks.iter().map(|b| b.ready_at).fold(0.0f64, f64::max)
    }

    /// Replays a streaming read of `bursts` column reads per row across
    /// `rows` rows, round-robin over all banks with the next row's
    /// activation issued ahead of time (the §III interleaving that lets
    /// "one bank ... be precharging while another is providing data").
    /// Returns achieved bandwidth in GB/s for `bytes_per_burst` bytes per
    /// column command.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (none occur for valid parameters).
    pub fn stream_read_bandwidth(
        &mut self,
        rows: usize,
        bursts: usize,
        bytes_per_burst: usize,
    ) -> Result<f64, ProtocolError> {
        let nbanks = self.banks.len();
        if rows > 0 {
            self.issue(Command::Activate { bank: 0, row: 0 })?;
        }
        for r in 0..rows {
            let bank = r % nbanks;
            // Pre-activate the next row's bank so its tRCD (and the
            // previous cycle's tRP on that bank) hide under this row's
            // column reads.
            if r + 1 < rows && nbanks > 1 {
                self.issue(Command::Activate {
                    bank: (r + 1) % nbanks,
                    row: r + 1,
                })?;
            }
            for _ in 0..bursts {
                self.issue(Command::Read { bank })?;
            }
            self.issue(Command::Precharge { bank })?;
            if r + 1 < rows && nbanks == 1 {
                self.issue(Command::Activate {
                    bank: 0,
                    row: r + 1,
                })?;
            }
        }
        let total_bytes = (rows * bursts * bytes_per_burst) as f64;
        Ok(total_bytes / self.now_ns())
    }
}

/// The `len ≤ n` banks of a round-robin over `n` banks from `first < n`,
/// as the run up to the last bank and the run wrapped around to bank 0.
fn ring(first: usize, len: usize, n: usize) -> (Range<usize>, Range<usize>) {
    let end = first + len;
    if end <= n {
        (first..end, 0..0)
    } else {
        (first..n, 0..end - n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> ProtocolTiming {
        ProtocolTiming::from_coarse(&DramTiming::ddr4_default())
    }

    #[test]
    fn column_before_activate_is_rejected() {
        let mut sim = RankSim::new(timing(), 2);
        assert_eq!(
            sim.issue(Command::Read { bank: 0 }),
            Err(ProtocolError::RowNotOpen(0))
        );
        assert_eq!(
            sim.issue(Command::Precharge { bank: 1 }),
            Err(ProtocolError::RowNotOpen(1))
        );
        assert_eq!(
            sim.issue(Command::Read { bank: 9 }),
            Err(ProtocolError::NoSuchBank(9))
        );
    }

    #[test]
    fn double_activate_is_rejected() {
        let mut sim = RankSim::new(timing(), 1);
        sim.issue(Command::Activate { bank: 0, row: 0 }).unwrap();
        assert_eq!(
            sim.issue(Command::Activate { bank: 0, row: 1 }),
            Err(ProtocolError::RowAlreadyOpen(0))
        );
    }

    #[test]
    fn row_hits_avoid_activation_latency() {
        // 64 reads from one open row must take ~64×tCCD, far below
        // 64×(tRCD + tRP + ...) with a miss per access.
        let t = timing();
        let mut sim = RankSim::new(t, 1);
        sim.issue(Command::Activate { bank: 0, row: 0 }).unwrap();
        for _ in 0..64 {
            sim.issue(Command::Read { bank: 0 }).unwrap();
        }
        let hit_time = sim.now_ns();
        assert!(
            hit_time <= t.t_rcd_ns + 64.0 * t.t_ccd_ns + 1e-9,
            "{hit_time}"
        );

        // The same 64 reads with an ACT/PRE per access are much slower.
        let mut churn = RankSim::new(t, 1);
        for r in 0..64 {
            churn.issue(Command::Activate { bank: 0, row: r }).unwrap();
            churn.issue(Command::Read { bank: 0 }).unwrap();
            churn.issue(Command::Precharge { bank: 0 }).unwrap();
        }
        assert!(churn.now_ns() > 5.0 * hit_time);
    }

    #[test]
    fn bank_interleaving_hides_precharge() {
        // Alternate reads across two banks while each precharges —
        // elapsed time stays near the tCCD-limited floor.
        let t = timing();
        let mut sim = RankSim::new(t, 2);
        sim.issue(Command::Activate { bank: 0, row: 0 }).unwrap();
        sim.issue(Command::Activate { bank: 1, row: 0 }).unwrap();
        for _ in 0..32 {
            sim.issue(Command::Read { bank: 0 }).unwrap();
            sim.issue(Command::Read { bank: 1 }).unwrap();
        }
        let elapsed = sim.now_ns();
        let floor = 64.0 * t.t_ccd_ns;
        assert!(
            elapsed <= floor + t.t_rcd_ns + 1e-9,
            "{elapsed} vs floor {floor}"
        );
    }

    #[test]
    fn streaming_bandwidth_approaches_the_coarse_model() {
        // A long streaming read should land within ~25 % of the coarse
        // model's rank bandwidth — the cross-check the paper defers to
        // DRAMsim3.
        let coarse = DramTiming::ddr4_default();
        let mut sim = RankSim::new(ProtocolTiming::from_coarse(&coarse), 16);
        // DDR4 BL8 on a 64-bit bus: 64 bytes per column command; a
        // 1024-byte row page is 16 bursts.
        let gbs = sim.stream_read_bandwidth(512, 16, 64).unwrap();
        let ratio = gbs / coarse.rank_bandwidth_gbs;
        assert!(
            (0.75..=1.35).contains(&ratio),
            "protocol replay {gbs:.1} GB/s vs coarse {} GB/s",
            coarse.rank_bandwidth_gbs
        );
    }

    #[test]
    fn checked_construction_accepts_the_defaults() {
        assert!(ProtocolTiming::from_coarse_checked(&DramTiming::ddr4_default()).is_ok());
        assert!(ProtocolTiming::from_coarse_checked(&DramTiming::hbm2_default()).is_ok());
    }

    #[test]
    fn checked_construction_rejects_tras_below_trcd() {
        // row_read_ns = 80 → tRCD = 40 > tRAS = 32.
        let bad = DramTiming {
            row_read_ns: 80.0,
            row_write_ns: 95.0,
            ..DramTiming::ddr4_default()
        };
        let err = ProtocolTiming::from_coarse_checked(&bad).unwrap_err();
        assert!(matches!(err, crate::DramError::InvalidTiming(_)), "{err}");
    }

    #[test]
    fn checked_construction_rejects_nonpositive_parameters() {
        for mutate in [
            |t: &mut DramTiming| t.row_read_ns = 0.0,
            |t: &mut DramTiming| t.t_rp_ns = -1.0,
            |t: &mut DramTiming| t.t_ccd_ns = f64::NAN,
            // row_write_ns ≤ tRCD makes the derived tWR non-positive.
            |t: &mut DramTiming| t.row_write_ns = 10.0,
        ] {
            let mut t = DramTiming::ddr4_default();
            mutate(&mut t);
            assert!(ProtocolTiming::from_coarse_checked(&t).is_err(), "{t:?}");
        }
    }

    #[test]
    fn first_column_after_act_is_a_miss_then_hits() {
        let mut sim = RankSim::new(timing(), 1);
        sim.issue(Command::Activate { bank: 0, row: 3 }).unwrap();
        for _ in 0..4 {
            sim.issue(Command::Read { bank: 0 }).unwrap();
        }
        let s = *sim.counters();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 3);
    }

    #[test]
    fn fresh_row_cycle_costs_exactly_the_coarse_latencies() {
        let coarse = DramTiming::ddr4_default();
        let mut sim = RankSim::new(ProtocolTiming::from_coarse(&coarse), 2);
        let rd = sim.row_cycle(0, false, coarse.row_read_ns).unwrap();
        assert_eq!(rd, coarse.row_read_ns);
        let wr = sim.row_cycle(1, true, coarse.row_write_ns).unwrap();
        assert_eq!(wr, coarse.row_write_ns);
        let s = *sim.counters();
        assert_eq!((s.activations, s.precharges), (2, 2));
        assert_eq!((s.reads, s.writes, s.row_misses), (1, 1, 2));
    }

    #[test]
    fn same_bank_row_cycles_stall_on_the_recovery_interlock() {
        let t = timing();
        let coarse = DramTiming::ddr4_default();
        let mut sim = RankSim::new(t, 2);
        let rd = coarse.row_read_ns;
        sim.row_cycle(0, false, rd).unwrap();
        // Re-activating the same bank waits for its tRAS + tRP recovery.
        let second = sim.row_cycle(0, false, rd).unwrap();
        assert!(
            second >= t.t_ras_ns + t.t_rp_ns - 1e-9,
            "stalled access took {second}"
        );
        assert!(second > coarse.row_read_ns);
        // A different bank is fully recovered and pays no stall.
        let other = sim.row_cycle(1, false, rd).unwrap();
        assert_eq!(other, coarse.row_read_ns);
    }

    #[test]
    fn closed_form_stream_leaves_the_replayed_state() {
        let t = timing();
        let rd = DramTiming::ddr4_default().row_read_ns;
        let recovery = rd.max(t.t_ras_ns) + t.t_rp_ns;
        let (mut replay, mut closed) = (RankSim::new(t, 3), RankSim::new(t, 3));
        for bank in (2..10).map(|i| i % 3) {
            replay.row_cycle(bank, false, rd).unwrap();
        }
        replay.counters = TimingCounters::default();
        assert!(closed.try_stream_cycles(2, 8, rd, recovery));
        assert_eq!(closed.now, replay.now);
        for (c, r) in closed.banks.iter().zip(&replay.banks) {
            assert_eq!((c.ready_at, c.opened_at), (r.ready_at, r.opened_at));
            assert!(c.open_row.is_none() && !c.fresh);
        }
        assert!(closed.counters.is_empty(), "the caller counts");
    }

    #[test]
    fn closed_form_stream_refuses_cycles_that_can_stall() {
        let t = timing();
        let rd = DramTiming::ddr4_default().row_read_ns;
        let recovery = rd.max(t.t_ras_ns) + t.t_rp_ns;
        // An open row must be precharged first.
        let mut open = RankSim::new(t, 4);
        open.issue(Command::Activate { bank: 2, row: 0 }).unwrap();
        assert!(!open.try_stream_cycles(0, 4, rd, recovery));
        // A bank still recovering from the previous access.
        let mut busy = RankSim::new(t, 4);
        busy.row_cycle(0, false, rd).unwrap();
        assert!(!busy.try_stream_cycles(0, 1, rd, recovery));
        assert!(busy.try_stream_cycles(1, 3, rd, recovery));
        // One bank cannot hide its own recovery.
        let mut one = RankSim::new(t, 1);
        assert!(one.try_stream_cycles(0, 1, rd, recovery));
        assert!(!one.try_stream_cycles(0, 2, rd, recovery));
        // A refusal changes nothing.
        assert_eq!(one.now, rd);
    }

    #[test]
    fn activate_precharge_cycle_costs_tras_plus_trp() {
        let t = timing();
        let mut sim = RankSim::new(t, 1);
        let d = sim.activate_precharge_cycle(0).unwrap();
        assert_eq!(d, t.t_ras_ns + t.t_rp_ns);
        // Back-to-back AP cycles on one bank chain without extra stall:
        // the bank is ready exactly when the previous cycle completes.
        let d2 = sim.activate_precharge_cycle(0).unwrap();
        assert_eq!(d2, t.t_ras_ns + t.t_rp_ns);
    }

    #[test]
    fn drain_closes_open_rows_and_is_idempotent() {
        let mut sim = RankSim::new(timing(), 2);
        sim.issue(Command::Activate { bank: 0, row: 0 }).unwrap();
        sim.issue(Command::Read { bank: 0 }).unwrap();
        assert!(sim.banks[0].open_row.is_some());
        let drained = sim.drain_open_rows();
        assert!(drained > 0.0);
        assert!(sim.banks.iter().all(|b| b.open_row.is_none()));
        assert_eq!(sim.drain_open_rows(), 0.0);
    }

    #[test]
    fn tras_delays_early_precharge() {
        let t = timing();
        let mut sim = RankSim::new(t, 1);
        sim.issue(Command::Activate { bank: 0, row: 0 }).unwrap();
        sim.issue(Command::Precharge { bank: 0 }).unwrap();
        // PRE cannot complete before tRAS + tRP after the ACT.
        assert!(sim.counters().precharges == 1);
        sim.issue(Command::Activate { bank: 0, row: 1 }).unwrap();
        let elapsed = sim.now_ns();
        assert!(elapsed >= t.t_ras_ns + t.t_rp_ns - 1e-9, "{elapsed}");
    }
}
