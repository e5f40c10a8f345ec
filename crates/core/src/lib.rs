//! PIMeval-rs: a functional, performance, and energy simulator for
//! digital DRAM processing-in-memory architectures.
//!
//! This is a from-scratch Rust reproduction of the PIMeval framework from
//! *"Architectural Modeling and Benchmarking for Digital DRAM PIM"*
//! (IISWC 2024). It models three PIM architectures over the same
//! high-level PIM API, so one benchmark implementation runs unmodified on
//! all of them (§V):
//!
//! * **Bit-serial (DRAM-AP)** — digital bit-serial logic at every sense
//!   amplifier, vertical data layout, row-wide bit-slice operations.
//!   Latency/energy derive from real microprograms (`pim-microcode`).
//! * **Fulcrum** — a 32-bit 167 MHz scalar ALU + three row-wide walkers
//!   per two subarrays, horizontal layout.
//! * **Bank-level** — a 64-bit ALPU per bank behind a narrow 128-bit GDL.
//!
//! # Quick start
//!
//! AXPY (`y = a·x + y`), the paper's Listing 1, in Rust:
//!
//! ```
//! use pimeval::{DataType, Device, PimTarget};
//!
//! # fn main() -> Result<(), pimeval::PimError> {
//! let x = vec![1i32, 2, 3, 4, 5];
//! let mut y = vec![10i32, 20, 30, 40, 50];
//! let a = 3;
//!
//! let mut dev = Device::fulcrum(4)?; // pimCreateDevice
//! let obj_x = dev.alloc(x.len() as u64, DataType::Int32)?; // pimAlloc
//! let obj_y = dev.alloc_associated(obj_x, DataType::Int32)?; // pimAllocAssociated
//! dev.copy_to_device(&x, obj_x)?; // pimCopyHostToDevice
//! dev.copy_to_device(&y, obj_y)?;
//! dev.scaled_add(obj_x, obj_y, obj_y, a as i64)?; // pimScaledAdd
//! dev.copy_to_host(obj_y, &mut y)?; // pimCopyDeviceToHost
//! dev.free(obj_x)?; // pimFree
//! dev.free(obj_y)?;
//!
//! assert_eq!(y, vec![13, 26, 39, 52, 65]);
//! println!("{}", dev.report()); // pimShowStats: Listing-3-style statistics
//! # Ok(())
//! # }
//! ```
//!
//! # Architecture
//!
//! * [`Device`] — the API surface: allocation, copies, ~35 PIM ops.
//! * [`DeviceConfig`] / [`PimTarget`] — Table II configurations.
//! * [`model`] — per-target performance/energy models (§V-C, §V-D).
//! * [`SimStats`] — Fig. 7/8 breakdowns and Listing-3 reports.
//! * Substrates: [`pim_dram`] (geometry/timing/Micron power model) and
//!   [`pim_microcode`] (the DRAM-AP bit-serial VM).

#![warn(missing_docs)]

pub mod cmd;
pub mod config;
pub mod device;
pub mod dtype;
pub mod error;
pub mod metrics;
pub mod model;
pub mod object;
pub mod ops;
pub mod resource;
pub mod stats;
pub mod stream;
pub mod system;
pub mod trace;

pub use cmd::{CmdValue, PimCommand};
pub use config::{DeviceConfig, PeParams, PimTarget, SimMode};
pub use device::Device;
pub use dtype::{DataType, PimScalar};
pub use error::{PimError, Result};
pub use metrics::{
    Histogram, HistogramSnapshot, InstrumentsSnapshot, MetricsRegistry, MetricsSnapshot,
    ProfileSnapshot,
};
pub use model::OpCost;
pub use object::{DataLayout, ObjId, ObjectLayout, PimObject};
pub use ops::{OpCategory, OpKind, StatName};
pub use pim_dram::{RowPattern, TimingBackend, TimingCounters};
pub use stats::{
    CmdStat, CopyStats, FusionStats, InterconnectStats, OptimizerStats, ResourceStats, SimStats,
};
pub use stream::{CommandStream, FlushSummary};
pub use system::{InterconnectModel, PimSystem, ShardMap};
pub use trace::{CopyDirection, InterconnectKind, Recorder, TraceEvent, TraceSink, Tracer};

/// Std-only parallel execution engine the functional hot paths run on
/// (`PIM_THREADS`, deterministic chunked fan-out) — re-exported from
/// [`pim_dram::exec`], the bottom of the crate DAG, so the bit-serial VM
/// shares the same worker primitives.
pub use pim_dram::exec;

// Re-export substrate crates for downstream users.
pub use pim_dram;
pub use pim_microcode;

/// Deterministic SplitMix64 stream for the unit tests' generated cases.
#[cfg(test)]
pub(crate) struct SplitMix64(pub u64);

#[cfg(test)]
impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}
