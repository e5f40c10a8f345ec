//! The deferred command stream and its dataflow optimizer.
//!
//! [`CommandStream`] defers issue: commands are *recorded* and only run
//! at [`CommandStream::flush`], which first optimizes the recorded
//! program and then issues each surviving command exactly as
//! [`Device::issue`] would. The optimizer builds the SSA-style
//! dataflow graph (`graph`) and runs the rewrites in `passes`:
//! dead-write elimination, mul+add → [`OpKind::ScaledAdd`](crate::OpKind)
//! and cmp+select → [`OpKind::FusedCmpSelect`](crate::OpKind) fusion
//! across non-adjacent commands, and value-numbering CSE.
//!
//! Functional results are bit-identical to eager issue (fusion
//! preserves per-element semantics including intermediate truncation;
//! CSE only replaces values that are provably already materialized),
//! and the charged cost is never higher than eager issue's, because
//! rewrites only remove commands or substitute a copy the cost model
//! prices no higher.
//!
//! One documented deviation: a temporary that only carried a fused-away
//! intermediate (the product of a `mul_scalar` or a comparison bitmap)
//! is never written, so its buffer contents after a flush are
//! unspecified. The rewrites only fire when no recorded command reads
//! that temporary afterward.
//!
//! Sharding composes transparently with the stream: the optimizer runs
//! *before* the shard split, on whole commands over whole objects.
//! Only when a (possibly fused) command reaches
//! [`crate::Device::issue`] does [`crate::PimSystem`] cut it along each
//! object's [`crate::ShardMap`] and fan the pieces out — so optimizer
//! decisions never depend on the shard count, and an optimized program
//! on a sharded device is bit-identical to the eager single-shard run
//! (enforced by the `shard_equivalence` suite).

pub(crate) mod graph;
pub(crate) mod passes;

use pim_microcode::gen::{BinaryOp, CmpOp};

use crate::cmd::PimCommand;
use crate::device::Device;
use crate::error::Result;
use crate::object::ObjId;
use crate::ops::OpKind;
use crate::pim_debug;

/// What one [`CommandStream::flush`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushSummary {
    /// Commands recorded since the previous flush.
    pub recorded: u64,
    /// Commands executed after the optimization passes.
    pub executed: u64,
    /// mul+add pairs rewritten to [`OpKind::ScaledAdd`].
    pub fused_scaled_add: u64,
    /// cmp+select pairs rewritten to [`OpKind::FusedCmpSelect`].
    pub fused_cmp_select: u64,
    /// Commands removed because their output was overwritten unread.
    pub dead_writes_eliminated: u64,
    /// Value-numbering CSE hits: recomputes deleted or rewritten to
    /// copies.
    pub cse_hits: u64,
}

/// A deferred command recorder bound to one device.
///
/// Obtained from [`Device::stream`]; record operations with the same
/// argument order as the eager `Device` methods, then call
/// [`CommandStream::flush`] to optimize and run them. Dropping a stream
/// with unflushed commands discards them (with a debug log) — flushing
/// is always explicit.
///
/// # Example
///
/// ```
/// use pimeval::{DataType, Device};
///
/// # fn main() -> Result<(), pimeval::PimError> {
/// let mut dev = Device::fulcrum(1)?;
/// let x = dev.alloc_vec(&[1i32, 2, 3, 4])?;
/// let y = dev.alloc_vec(&[10i32, 20, 30, 40])?;
/// let t = dev.alloc_associated(x, DataType::Int32)?;
/// let out = dev.alloc_associated(x, DataType::Int32)?;
///
/// let mut stream = dev.stream();
/// stream.mul_scalar(x, 7, t).add(t, y, out);
/// let summary = stream.flush()?;
/// drop(stream);
/// assert_eq!(summary.fused_scaled_add, 1);
/// assert_eq!(dev.to_vec::<i32>(out)?, vec![17, 34, 51, 68]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CommandStream<'d> {
    dev: &'d mut Device,
    pending: Vec<PimCommand>,
}

macro_rules! record2 {
    ($($(#[$doc:meta])* $name:ident => $kind:expr;)*) => {
        $($(#[$doc])*
        pub fn $name(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> &mut Self {
            self.record(PimCommand::elementwise2($kind, a, b, dst))
        })*
    };
}

macro_rules! record_scalar {
    ($($(#[$doc:meta])* $name:ident => $kind:expr;)*) => {
        $($(#[$doc])*
        pub fn $name(&mut self, a: ObjId, k: i64, dst: ObjId) -> &mut Self {
            self.record(PimCommand::elementwise1($kind(k), a, dst))
        })*
    };
}

impl<'d> CommandStream<'d> {
    pub(crate) fn new(dev: &'d mut Device) -> CommandStream<'d> {
        CommandStream {
            dev,
            pending: Vec::new(),
        }
    }

    /// Appends an arbitrary command.
    pub fn record(&mut self, cmd: PimCommand) -> &mut Self {
        self.pending.push(cmd);
        self
    }

    /// The commands recorded so far (cleared by [`CommandStream::flush`]).
    pub fn pending(&self) -> &[PimCommand] {
        &self.pending
    }

    record2! {
        /// Records `dst = a + b`.
        add => OpKind::Binary(BinaryOp::Add);
        /// Records `dst = a - b`.
        sub => OpKind::Binary(BinaryOp::Sub);
        /// Records `dst = a * b`.
        mul => OpKind::Binary(BinaryOp::Mul);
        /// Records `dst = a & b`.
        and => OpKind::Binary(BinaryOp::And);
        /// Records `dst = a | b`.
        or => OpKind::Binary(BinaryOp::Or);
        /// Records `dst = a ^ b`.
        xor => OpKind::Binary(BinaryOp::Xor);
        /// Records `dst = min(a, b)`.
        min => OpKind::Min;
        /// Records `dst = max(a, b)`.
        max => OpKind::Max;
        /// Records `dst = (a < b) ? 1 : 0`.
        lt => OpKind::Cmp(CmpOp::Lt);
        /// Records `dst = (a > b) ? 1 : 0`.
        gt => OpKind::Cmp(CmpOp::Gt);
        /// Records `dst = (a == b) ? 1 : 0`.
        eq => OpKind::Cmp(CmpOp::Eq);
    }

    record_scalar! {
        /// Records `dst = a + k`.
        add_scalar => |k| OpKind::BinaryScalar(BinaryOp::Add, k);
        /// Records `dst = a - k`.
        sub_scalar => |k| OpKind::BinaryScalar(BinaryOp::Sub, k);
        /// Records `dst = a * k`.
        mul_scalar => |k| OpKind::BinaryScalar(BinaryOp::Mul, k);
        /// Records `dst = min(a, k)`.
        min_scalar => OpKind::MinScalar;
        /// Records `dst = max(a, k)`.
        max_scalar => OpKind::MaxScalar;
    }

    /// Records `dst = !a`.
    pub fn not(&mut self, a: ObjId, dst: ObjId) -> &mut Self {
        self.record(PimCommand::elementwise1(OpKind::Not, a, dst))
    }

    /// Records `dst = |a|`.
    pub fn abs(&mut self, a: ObjId, dst: ObjId) -> &mut Self {
        self.record(PimCommand::elementwise1(OpKind::Abs, a, dst))
    }

    /// Records a per-element popcount.
    pub fn popcount(&mut self, a: ObjId, dst: ObjId) -> &mut Self {
        self.record(PimCommand::elementwise1(OpKind::Popcount, a, dst))
    }

    /// Records `dst = a << k`.
    pub fn shift_left(&mut self, a: ObjId, k: u32, dst: ObjId) -> &mut Self {
        self.record(PimCommand::elementwise1(OpKind::ShiftL(k), a, dst))
    }

    /// Records `dst = a >> k`.
    pub fn shift_right(&mut self, a: ObjId, k: u32, dst: ObjId) -> &mut Self {
        self.record(PimCommand::elementwise1(OpKind::ShiftR(k), a, dst))
    }

    /// Records `dst = cond ? a : b`.
    pub fn select(&mut self, cond: ObjId, a: ObjId, b: ObjId, dst: ObjId) -> &mut Self {
        self.record(PimCommand::select(cond, a, b, dst))
    }

    /// Records `dst = a * k + b` as an already-fused command.
    pub fn scaled_add(&mut self, a: ObjId, b: ObjId, dst: ObjId, k: i64) -> &mut Self {
        self.record(PimCommand::scaled_add(a, b, dst, k))
    }

    /// Records a fill of `dst` with `value`.
    pub fn broadcast(&mut self, dst: ObjId, value: i64) -> &mut Self {
        self.record(PimCommand::broadcast(dst, value))
    }

    /// Records a device-to-device copy.
    pub fn copy_object(&mut self, src: ObjId, dst: ObjId) -> &mut Self {
        self.record(PimCommand::copy(src, dst))
    }

    /// Flushes pending commands, then runs an eager reduction sum.
    ///
    /// # Errors
    ///
    /// Flush or reduction errors.
    pub fn red_sum(&mut self, a: ObjId) -> Result<i128> {
        self.flush()?;
        self.dev.red_sum(a)
    }

    /// Flushes pending commands, then runs an eager reduction minimum.
    ///
    /// # Errors
    ///
    /// Flush or reduction errors.
    pub fn red_min(&mut self, a: ObjId) -> Result<i64> {
        self.flush()?;
        self.dev.red_min(a)
    }

    /// Flushes pending commands, then runs an eager reduction maximum.
    ///
    /// # Errors
    ///
    /// Flush or reduction errors.
    pub fn red_max(&mut self, a: ObjId) -> Result<i64> {
        self.flush()?;
        self.dev.red_max(a)
    }

    /// Optimizes and executes everything recorded since the last flush.
    ///
    /// Pass order: the optimization pipeline (see the module docs), then
    /// validation of every surviving command, then execution: each
    /// command runs and is charged to the cost model exactly as an eager
    /// issue would be.
    ///
    /// # Errors
    ///
    /// Validation errors from any surviving command; nothing executes
    /// when validation fails.
    pub fn flush(&mut self) -> Result<FlushSummary> {
        let mut cmds = std::mem::take(&mut self.pending);
        let recorded = cmds.len() as u64;
        let outcome = passes::run_graph(self.dev, &mut cmds);
        let operands = cmds
            .iter()
            .map(|cmd| self.dev.validate_cmd(cmd))
            .collect::<Result<Vec<_>>>()?;
        for (cmd, ops) in cmds.iter().zip(&operands) {
            self.dev.exec_cmd(cmd, ops);
            self.dev.charge_cmd(cmd, ops);
        }
        let summary = FlushSummary {
            recorded,
            executed: cmds.len() as u64,
            fused_scaled_add: outcome.fused_scaled_add,
            fused_cmp_select: outcome.fused_cmp_select,
            dead_writes_eliminated: outcome.dead_writes_eliminated,
            cse_hits: outcome.cse_hits,
        };
        self.dev.finish_flush(&summary);
        Ok(summary)
    }
}

impl Drop for CommandStream<'_> {
    fn drop(&mut self) {
        if !self.pending.is_empty() {
            pim_debug!(
                "command stream dropped with {} unflushed command(s)",
                self.pending.len()
            );
        }
    }
}
