//! DRAM organization, DDR timing, and power modeling substrate for PIMeval-rs.
//!
//! This crate implements the pieces of the DRAM hierarchy that the PIM
//! simulator (`pimeval`) builds on, following §III of the IISWC 2024
//! PIMeval/PIMbench paper:
//!
//! * [`DramGeometry`] — the rank/bank/subarray/row/column organization,
//!   capacity math, and per-level parallelism counts.
//! * [`DramTiming`] — DDR timing parameters (row read/write latencies, tCCD,
//!   tRAS/tRP, rank bandwidth) used by the performance models.
//! * [`power::DramPower`] — the Micron power model (TN-40-07 style) used to
//!   derive per-operation energies (Eq. 1 and Eq. 2 of the paper), plus
//!   background power for many-subarray activation.
//! * [`exec`] — the std-only chunked fan-out engine (`PIM_THREADS`) the
//!   functional simulator and the bit-serial VM run their element/word
//!   loops on; deterministic for every thread count.
//! * [`BitMatrix`] — a DRAM subarray's cells as a 2-D bit array; the
//!   bit-serial micro-op VM in `pim-microcode` executes its row
//!   operations on it.
//! * [`protocol::RankSim`] — a per-rank bank state machine (ACT/RD/WR/PRE
//!   with tRCD/tRAS/tRP/tCCD interlocks) counting its commands in
//!   [`TimingCounters`].
//! * [`TimingModel`] — the device's one timing model: closed-form row
//!   latencies, plus a [`protocol::RankSim`] under
//!   [`TimingBackend::BankFsm`].
//!
//! The default values mirror the configuration used throughout the paper's
//! evaluation (Table II and the artifact's example output): per rank,
//! 128 banks × 32 subarrays × 1024 rows × 8192 columns, 25.6 GB/s rank
//! bandwidth, 28.5 ns row reads, 43.5 ns row writes and 3 ns tCCD.
//!
//! # Example
//!
//! ```
//! use pim_dram::{DramGeometry, DramTiming};
//!
//! let geom = DramGeometry::paper_default(32); // 32 ranks
//! assert_eq!(geom.total_subarrays(), 32 * 128 * 32);
//! let timing = DramTiming::ddr4_default();
//! assert!(timing.row_write_ns > timing.row_read_ns);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod exec;
pub mod geometry;
pub mod power;
pub mod protocol;
pub mod subarray;
pub mod timing;
pub mod timing_model;

pub use error::DramError;
pub use geometry::DramGeometry;
pub use power::DramPower;
pub use protocol::TimingCounters;
pub use subarray::BitMatrix;
pub use timing::DramTiming;
pub use timing_model::{CopyReplay, RowPattern, TimingBackend, TimingModel, PIM_TIMING_ENV};
