//! The PIM device: the simulator's public API surface (§V-B).
//!
//! A [`Device`] owns the statistics engine, the one timing model every
//! command and copy is priced on, and a [`PimSystem`] — the object table
//! holding the row ledger and the functional state of every allocated
//! object. Every API call validates its operands, executes functionally
//! (unless the device is in model-only mode), charges the target's
//! performance/energy model, and updates the per-command statistics.
//! With more than one shard configured (see
//! [`DeviceConfig::sharded_per_rank`]) each object's elements are split
//! into per-rank spans; the cross-shard traffic they imply is charged to
//! the interconnect ledger separately from kernel time, and nothing else
//! depends on the shard count.
//!
//! Every modeled cost is built once as a `Charge` and folded by one
//! fan-out into the statistics ledger, metrics, trace and log. That
//! fan-out alone writes the ledger and advances the device's simulated
//! clock, the only one.

use pim_dram::{CopyReplay, TimingCounters, TimingModel};
use pim_microcode::gen::{BinaryOp, CmpOp};

use crate::cmd::{CmdValue, PimCommand};
use crate::config::{DeviceConfig, PimTarget};
use crate::dtype::{DataType, PimScalar};
use crate::error::{PimError, Result};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::model::{self, OpCost};
use crate::object::{ObjId, ObjectLayout, PimObject};
use crate::ops::OpKind;
use crate::stats::SimStats;
use crate::stream::{CommandStream, FlushSummary};
use crate::system::{Operands, PimSystem, Slot};
use crate::trace::{
    CopyDirection, InterconnectKind, TraceEvent, TraceSink, Tracer, DEFAULT_RECORDER_CAPACITY,
};
use crate::{pim_debug, pim_info, pim_trace};

/// A simulated PIM device.
///
/// # Example
///
/// ```
/// use pimeval::{Device, PimTarget};
///
/// # fn main() -> Result<(), pimeval::PimError> {
/// let mut dev = Device::fulcrum(4)?;
/// let x = dev.alloc_vec(&[1i32, 2, 3, 4])?;
/// let y = dev.alloc_vec(&[10i32, 20, 30, 40])?;
/// let out = dev.alloc_associated(x, pimeval::DataType::Int32)?;
/// dev.add(x, y, out)?;
/// assert_eq!(dev.to_vec::<i32>(out)?, vec![11, 22, 33, 44]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    system: PimSystem,
    /// The one timing model every command and copy is priced on. Its
    /// bank FSM, if any, holds the state of the device's banks.
    timing: TimingModel,
    stats: SimStats,
    tracer: Tracer,
    metrics: Option<Box<MetricsRegistry>>,
    /// The simulated clock (ms since creation): the critical-path time
    /// of every charge so far. Only [`Device::charge`] advances it.
    clock_ms: f64,
}

impl Device {
    /// Creates a device from a full configuration.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] if the DRAM geometry is degenerate, its
    /// row capacity overflows `u64`, or so does the decimation times the
    /// modeled capacity in bits.
    pub fn new(mut config: DeviceConfig) -> Result<Device> {
        config
            .geometry
            .validate()
            .map_err(|e| PimError::InvalidArg(e.to_string()))?;
        // `PIM_TIMING=analytical|fsm` overrides the configured timing
        // backend at device creation (unknown values are ignored).
        config.timing_backend = config.timing_backend.env_override();
        let system = PimSystem::new(&config)?;
        // Copies and interconnect transfers charge their byte counts
        // times the decimation. No count exceeds the modeled device's
        // capacity in bits: an object fits on `core_count` cores of
        // `rows_per_core` rows, each row holding at least one element
        // (of at most 64 bits), and a `Bool` element moves one byte per
        // one-bit cell. So this bound keeps every such product in `u64`.
        let decimation = config.decimation.max(1);
        let represented_bits = config
            .rows_per_core()
            .checked_mul(config.core_count() as u64)
            .and_then(|rows| rows.checked_mul(config.cols_per_core().max(64) as u64))
            .and_then(|bits| bits.checked_mul(decimation));
        if represented_bits.is_none() {
            return Err(PimError::InvalidArg(format!(
                "decimation {decimation} times the modeled capacity in bits overflows u64"
            )));
        }
        let timing = model::timing_model(&config, config.timing_backend);
        pim_info!(
            "device created: target={} cores={} ranks={} shards={}",
            config.target,
            config.core_count(),
            config.geometry.ranks,
            system.shard_count()
        );
        let mut dev = Device {
            config,
            system,
            timing,
            stats: SimStats::new(),
            tracer: Tracer::default(),
            metrics: None,
            clock_ms: 0.0,
        };
        dev.sync_resources();
        Ok(dev)
    }

    /// Bit-serial (DRAM-AP) device with the paper's geometry.
    ///
    /// # Errors
    ///
    /// See [`Device::new`].
    pub fn bit_serial(ranks: usize) -> Result<Device> {
        Device::new(DeviceConfig::new(PimTarget::BitSerial, ranks))
    }

    /// Fulcrum device with the paper's geometry.
    ///
    /// # Errors
    ///
    /// See [`Device::new`].
    pub fn fulcrum(ranks: usize) -> Result<Device> {
        Device::new(DeviceConfig::new(PimTarget::Fulcrum, ranks))
    }

    /// Bank-level device with the paper's geometry.
    ///
    /// # Errors
    ///
    /// See [`Device::new`].
    pub fn bank_level(ranks: usize) -> Result<Device> {
        Device::new(DeviceConfig::new(PimTarget::BankLevel, ranks))
    }

    /// Analog bit-serial (Ambit/SIMDRAM-style TRA) device — the §IX
    /// extension target used by the digital-vs-analog ablation.
    ///
    /// # Errors
    ///
    /// See [`Device::new`].
    pub fn analog_bit_serial(ranks: usize) -> Result<Device> {
        Device::new(DeviceConfig::new(PimTarget::AnalogBitSerial, ranks))
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The sharded execution substrate: the object table (with every
    /// object's shard map), the row accounting, and the interconnect
    /// model.
    pub fn system(&self) -> &PimSystem {
        &self.system
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Clears all statistics and resets the timing model (objects stay
    /// allocated; the resource snapshot is refreshed). An
    /// enabled metrics registry starts afresh with the same `profile`
    /// setting, so statistics and metrics always cover one window. The
    /// simulated clock and the trace keep running.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::new();
        self.timing.reset();
        self.sync_resources();
        if let Some(m) = &mut self.metrics {
            **m = MetricsRegistry::new(self.system.shard_count(), m.profiling(), self.clock_ms);
        }
    }

    /// The timing backend actually in effect (after any `PIM_TIMING`
    /// environment override applied at construction).
    pub fn timing_backend(&self) -> pim_dram::TimingBackend {
        self.config.timing_backend
    }

    /// Refreshes the resource snapshot in [`SimStats`] from the system.
    fn sync_resources(&mut self) {
        self.system.resource_stats_into(&mut self.stats.resources);
    }

    /// Renders the artifact-style statistics report.
    pub fn report(&self) -> String {
        self.stats.report(&self.config)
    }

    /// The "PIM-Info" banner the artifact prints at device creation
    /// (Listing 3 of the paper).
    pub fn info_banner(&self) -> String {
        let g = &self.config.geometry;
        format!(
            "PIM-Info: Simulation Target = {}
             PIM-Info: Config: #ranks = {}, #bankPerRank = {}, #subarrayPerBank = {},              #rowsPerSubarray = {}, #colsPerRow = {}
             PIM-Info: Created PIM device with {} cores of {} rows and {} columns.",
            self.config.target,
            g.ranks,
            g.banks_per_rank,
            g.subarrays_per_bank,
            g.rows_per_subarray,
            g.cols_per_row,
            self.config.core_count(),
            self.config.rows_per_core(),
            self.config.cols_per_core(),
        )
    }

    /// Adds modeled host-side execution time (PIM + Host benchmarks).
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] for a negative or non-finite time, which
    /// would poison the ledger's host time for the rest of the window.
    pub fn record_host_ms(&mut self, ms: f64) -> Result<()> {
        if !(ms.is_finite() && ms >= 0.0) {
            return Err(PimError::InvalidArg(format!(
                "host time must be finite and non-negative, got {ms} ms"
            )));
        }
        self.charge(Charge::Host { time_ms: ms });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Enables timeline tracing into the built-in ring-buffer recorder
    /// (capacity [`DEFAULT_RECORDER_CAPACITY`] events). Collect the
    /// events with [`Device::take_trace`]. Tracing only *adds* events —
    /// statistics and functional results are unchanged.
    pub fn enable_tracing(&mut self) {
        self.enable_tracing_with_capacity(DEFAULT_RECORDER_CAPACITY);
    }

    /// Enables tracing with an explicit recorder capacity; once the ring
    /// fills, the oldest events are overwritten.
    pub fn enable_tracing_with_capacity(&mut self, capacity: usize) {
        self.tracer.install_recorder(capacity);
        self.emit_device_created();
    }

    /// Routes trace events into a custom [`TraceSink`] instead of the
    /// built-in recorder ([`Device::take_trace`] then returns nothing).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer.install_sink(sink);
        self.emit_device_created();
    }

    /// Disables tracing; subsequent events are discarded. The device's
    /// simulated clock keeps running, so a re-enabled trace resumes at
    /// the true simulated time.
    pub fn disable_tracing(&mut self) {
        self.tracer.disable();
    }

    /// True if a trace sink is installed.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Drains the recorded trace, oldest event first. Empty when tracing
    /// is disabled or routed to a custom sink.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.take_events()
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Enables the metrics registry: latency and size histograms and
    /// each shard's busy share, recorded on every charge (a device starts
    /// without one, so the hot path is instrument-free). Counts and
    /// totals stay in [`SimStats`]. With `profile` the registry
    /// additionally retains occupancy spans for the time-binned
    /// utilization series. Replaces any existing registry, so histograms
    /// restart from zero, as they do at [`Device::reset_stats`]; the
    /// clock they are stamped with is the device's, which keeps counting
    /// from creation, and the registry's window starts at its current
    /// position.
    pub fn enable_metrics(&mut self, profile: bool) {
        self.metrics = Some(Box::new(MetricsRegistry::new(
            self.system.shard_count(),
            profile,
            self.clock_ms,
        )));
    }

    /// True when a metrics registry is recording.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Freezes the metrics registry into a [`MetricsSnapshot`] (see
    /// [`MetricsRegistry::snapshot`] for the deterministic-merge
    /// contract). `None` when metrics are disabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        Some(self.metrics.as_ref()?.snapshot(self.clock_ms))
    }

    /// Events the ring-buffer trace recorder has overwritten so far (0
    /// when tracing is off or routed to a custom sink).
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    fn emit_device_created(&mut self) {
        self.tracer.emit(TraceEvent::DeviceCreated {
            at_ms: self.clock_ms,
            target: self.config.target,
            cores: self.config.core_count(),
            ranks: self.config.geometry.ranks,
        });
    }

    // ------------------------------------------------------------------
    // Resource management
    // ------------------------------------------------------------------

    /// Allocates `count` elements of `dtype` (`pimAlloc` with
    /// `PIM_ALLOC_AUTO`).
    ///
    /// # Errors
    ///
    /// [`PimError::OutOfMemory`] or [`PimError::InvalidArg`].
    pub fn alloc(&mut self, count: u64, dtype: DataType) -> Result<ObjId> {
        let obj = self.system.alloc(&self.config, count, dtype, None)?;
        self.allocated(&obj);
        Ok(obj.id)
    }

    /// Allocates an object associated with `reference`
    /// (`pimAllocAssociated`): same element count, same core placement —
    /// and, under sharding, the same shard map.
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`], [`PimError::OutOfMemory`].
    pub fn alloc_associated(&mut self, reference: ObjId, dtype: DataType) -> Result<ObjId> {
        let obj = self
            .system
            .alloc_associated(&self.config, reference, dtype)?;
        self.allocated(&obj);
        Ok(obj.id)
    }

    /// Logs and traces a fresh allocation and refreshes the resource
    /// snapshot.
    fn allocated(&mut self, obj: &PimObject) {
        pim_debug!(
            "alloc {}: {} x {} on {} cores",
            obj.id,
            obj.count,
            obj.dtype,
            obj.layout.cores_used
        );
        if self.tracer.enabled() {
            let event = TraceEvent::Alloc {
                at_ms: self.clock_ms,
                id: obj.id.0,
                count: obj.count,
                dtype: obj.dtype,
                cores_used: obj.layout.cores_used,
                rows_per_core: obj.layout.rows_per_core,
            };
            self.tracer.emit(event);
        }
        self.sync_resources();
    }

    /// Allocates and initializes from a host slice in one call.
    ///
    /// # Errors
    ///
    /// As [`Device::alloc`] plus copy errors.
    pub fn alloc_vec<T: PimScalar>(&mut self, data: &[T]) -> Result<ObjId> {
        let id = self.alloc(data.len() as u64, T::DTYPE)?;
        self.copy_to_device(data, id)?;
        Ok(id)
    }

    /// Frees an object (`pimFree`).
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub fn free(&mut self, id: ObjId) -> Result<()> {
        self.system.free(id)?;
        self.sync_resources();
        pim_debug!("free {id}");
        let at_ms = self.clock_ms;
        self.tracer.emit(TraceEvent::Free { at_ms, id: id.0 });
        Ok(())
    }

    /// Introspects a live object (layout, dtype, count).
    ///
    /// # Errors
    ///
    /// [`PimError::UnknownObject`].
    pub fn object(&self, id: ObjId) -> Result<&PimObject> {
        self.system.object(id)
    }

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /// Prices one host↔device copy on the timing model (bandwidth-bound
    /// in both backends) and charges it with its protocol replay, then
    /// the interconnect scatter or gather it implies. The closed form
    /// replays only for the trace, and its advisory replay never reaches
    /// the ledger's DRAM counters.
    fn charge_copy(&mut self, obj: Slot, bytes: u64, direction: CopyDirection) {
        // Under decimation the functional buffer stands for `decimation`
        // times as much paper-scale data; charge transfer time/energy for
        // the represented bytes (recorded byte counts stay functional).
        let represented = bytes * self.config.decimation.max(1);
        let time_ms = self
            .timing
            .charge_host_copy(represented, self.config.geometry.ranks);
        let replay = self.timing.copy_replay(bytes, self.tracer.enabled());
        let dram = self.timing.take_counters();
        let is_read = direction == CopyDirection::DeviceToHost;
        let energy_mj = self.config.power.transfer_energy_mj(time_ms, is_read);
        self.charge(Charge::Copy {
            direction,
            bytes,
            cost: OpCost { time_ms, energy_mj },
            replay,
            dram,
        });
        let (max_b, tot_b) = self.system.shard_byte_split(obj);
        let kind = if is_read {
            InterconnectKind::Gather
        } else {
            InterconnectKind::Scatter
        };
        self.charge_interconnect(kind, max_b, tot_b);
    }

    /// Charges cross-shard interconnect traffic: time for the critical
    /// path (busiest channel), energy for the total bytes. A no-op with
    /// one shard or zero bytes, so single-shard runs are bit-identical
    /// to the pre-sharding device.
    fn charge_interconnect(&mut self, kind: InterconnectKind, max_bytes: u64, total_bytes: u64) {
        if self.system.shard_count() <= 1 || total_bytes == 0 {
            return;
        }
        // As with copies, decimated runs charge the represented bytes.
        let decim = self.config.decimation.max(1);
        let ic = self.system.interconnect();
        let cost = OpCost {
            time_ms: ic.transfer_ms(max_bytes * decim),
            energy_mj: ic.energy_mj(total_bytes * decim),
        };
        let bytes = total_bytes * decim;
        self.charge(Charge::Interconnect { kind, bytes, cost });
    }

    /// Copies host data into an object (`pimCopyHostToDevice`).
    ///
    /// # Errors
    ///
    /// [`PimError::CountMismatch`] if the slice length differs from the
    /// object's element count; [`PimError::DTypeMismatch`] if `T` does not
    /// match the object's dtype.
    pub fn copy_to_device<T: PimScalar>(&mut self, data: &[T], id: ObjId) -> Result<()> {
        let (slot, bytes) = self.check_host_buffer::<T>(id, data.len())?;
        self.system.scatter_to_device(data, slot, T::DTYPE);
        self.charge_copy(slot, bytes, CopyDirection::HostToDevice);
        Ok(())
    }

    /// Copies an object back to a host buffer (`pimCopyDeviceToHost`).
    ///
    /// # Errors
    ///
    /// As [`Device::copy_to_device`]; additionally
    /// [`PimError::NotSupported`] in model-only mode.
    pub fn copy_to_host<T: PimScalar>(&mut self, id: ObjId, out: &mut [T]) -> Result<()> {
        let (slot, bytes) = self.check_host_buffer::<T>(id, out.len())?;
        self.system.gather_to_host(slot, out)?;
        self.charge_copy(slot, bytes, CopyDirection::DeviceToHost);
        Ok(())
    }

    /// Checks a host buffer of `len` elements of `T` against object `id`
    /// and returns the object's slot and size in bytes.
    fn check_host_buffer<T: PimScalar>(&self, id: ObjId, len: usize) -> Result<(Slot, u64)> {
        let slot = self.system.slot(id).ok_or(PimError::UnknownObject(id))?;
        let obj = self.system.get(slot);
        if len as u64 != obj.count {
            return Err(PimError::CountMismatch {
                expected: obj.count,
                actual: len as u64,
            });
        }
        if obj.dtype != T::DTYPE {
            return Err(PimError::DTypeMismatch {
                expected: obj.dtype,
                actual: T::DTYPE,
            });
        }
        Ok((slot, obj.bytes()))
    }

    /// Convenience: copies an object out into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// See [`Device::copy_to_host`].
    pub fn to_vec<T: PimScalar>(&mut self, id: ObjId) -> Result<Vec<T>> {
        let count = self.object(id)?.count as usize;
        let mut out = vec![T::from_device(0); count];
        self.copy_to_host(id, &mut out)?;
        Ok(out)
    }

    /// Device-to-device copy (`pimCopyDeviceToDevice`).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches as usual.
    pub fn copy_object(&mut self, src: ObjId, dst: ObjId) -> Result<()> {
        self.issue(PimCommand::copy(src, dst))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internal plumbing
    // ------------------------------------------------------------------

    /// Prices `kind` on the object at `costed` once, on the timing
    /// model, and charges it with the DRAM commands that issued.
    /// `covered` scales the cost to the fraction of elements a ranged
    /// reduction spans; such a charge carries no microcode counters.
    // Inlined into its callers: called out of line, `bench_e2e`'s
    // `paper-figures` pass took about 19% longer in `wall_s` (6 of 6
    // alternating pairs, 2-core x86-64 host).
    #[inline]
    fn charge_op(&mut self, kind: OpKind, costed: Slot, covered: Option<f64>) {
        let PimObject { dtype, layout, .. } = *self.system.get(costed);
        let full = model::op_cost_with(&self.config, &mut self.timing, kind, dtype, &layout);
        let dram = self.timing.take_counters();
        let cost = match covered {
            None => full,
            Some(frac) => OpCost {
                time_ms: full.time_ms * frac,
                energy_mj: full.energy_mj * frac,
            },
        };
        self.charge(Charge::Cmd {
            kind,
            costed,
            dtype,
            layout,
            cost,
            micro: covered.is_none(),
            dram,
        });
    }

    // ------------------------------------------------------------------
    // The command choke point
    // ------------------------------------------------------------------

    /// Validates, executes, and charges one [`PimCommand`] — the single
    /// path every device operation funnels through. The eager `add`/
    /// `mul`/… methods are thin wrappers over this.
    ///
    /// # Example
    ///
    /// ```
    /// use pimeval::{cmd::PimCommand, Device};
    /// use pimeval::pim_microcode::gen::BinaryOp;
    ///
    /// # fn main() -> Result<(), pimeval::PimError> {
    /// let mut dev = Device::fulcrum(1)?;
    /// let a = dev.alloc_vec(&[1i32, 2, 3])?;
    /// let b = dev.alloc_vec(&[4i32, 5, 6])?;
    /// let out = dev.alloc_associated(a, pimeval::DataType::Int32)?;
    /// dev.issue(PimCommand::elementwise2(
    ///     pimeval::OpKind::Binary(BinaryOp::Add),
    ///     a,
    ///     b,
    ///     out,
    /// ))?;
    /// assert_eq!(dev.to_vec::<i32>(out)?, vec![5, 7, 9]);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Validation errors (arity, unknown objects, count/dtype mismatches,
    /// layout requirements) before anything executes.
    pub fn issue(&mut self, command: PimCommand) -> Result<CmdValue> {
        let ops = self.validate_cmd(&command)?;
        let value = self.exec_cmd(&command, &ops);
        self.charge_cmd(&command, &ops);
        Ok(value)
    }

    /// Opens a deferred [`CommandStream`] on this device. Recorded
    /// commands run at [`CommandStream::flush`], after the stream's
    /// optimization pipeline (fusion, dead-write elimination, CSE).
    pub fn stream(&mut self) -> CommandStream<'_> {
        CommandStream::new(self)
    }

    /// Checks a command's shape against its [`OpKind`] contract and its
    /// operands against each other, in the same order the eager methods
    /// historically reported errors; finally asks the target model to
    /// validate layout requirements on the costed object. Every operand
    /// is resolved against the object table once, here; execution and
    /// charging use the returned slots.
    pub(crate) fn validate_cmd(&self, command: &PimCommand) -> Result<Operands> {
        let kind = command.kind;
        if command.inputs.len() != kind.input_operands() as usize {
            return Err(PimError::InvalidArg(format!(
                "{kind:?} takes {} input(s), got {}",
                kind.input_operands(),
                command.inputs.len()
            )));
        }
        if command.dst.is_some() != kind.writes_output() {
            return Err(PimError::InvalidArg(format!(
                "{kind:?} {} a destination",
                if kind.writes_output() {
                    "requires"
                } else {
                    "does not take"
                }
            )));
        }
        let sys = &self.system;
        let slots: [Option<Slot>; 4] =
            std::array::from_fn(|k| command.inputs.get(k).and_then(|&id| sys.slot(id)));
        let dst_slot = command.dst.and_then(|id| sys.slot(id));
        // An unknown operand errors where the checks below first read it.
        let live = |id: ObjId, slot: Option<Slot>| {
            slot.map(|s| sys.get(s)).ok_or(PimError::UnknownObject(id))
        };
        let input = |k: usize| live(command.inputs[k], slots[k]);
        let dst = || live(command.dst.expect("checked above"), dst_slot);
        let pair = |a: &PimObject, b: &PimObject| {
            if a.count != b.count {
                return Err(PimError::CountMismatch {
                    expected: a.count,
                    actual: b.count,
                });
            }
            if a.dtype != b.dtype {
                return Err(PimError::DTypeMismatch {
                    expected: a.dtype,
                    actual: b.dtype,
                });
            }
            Ok(())
        };
        let costed = match kind {
            OpKind::Select => {
                let a = input(1)?;
                pair(a, input(2)?)?;
                let d = dst()?;
                pair(a, d)?;
                let c_count = input(0)?.count;
                if c_count != a.count {
                    return Err(PimError::CountMismatch {
                        expected: a.count,
                        actual: c_count,
                    });
                }
                d
            }
            OpKind::FusedCmpSelect(_) => {
                let (a, x) = (input(0)?, input(1)?);
                pair(a, x)?;
                let x = input(2)?;
                pair(x, input(3)?)?;
                let d = dst()?;
                pair(x, d)?;
                pair(a, x)?;
                d
            }
            OpKind::Broadcast(_) => dst()?,
            OpKind::RedSum | OpKind::RedMin | OpKind::RedMax => input(0)?,
            _ => {
                let a = input(0)?;
                if command.inputs.len() == 2 {
                    pair(a, input(1)?)?;
                }
                let d = dst()?;
                pair(a, d)?;
                d
            }
        };
        model::validate(self.config.target, kind, costed.dtype, &costed.layout)?;
        // Every arm above read every operand, so all of them are live.
        Ok(Operands::new(slots, command.inputs.len(), dst_slot))
    }

    /// Runs a validated command's functional semantics (a no-op for
    /// element-wise data in model-only mode) over the objects' whole
    /// buffers. A `select` condition whose map differs from the
    /// destination's is charged as interconnect realignment traffic.
    pub(crate) fn exec_cmd(&mut self, command: &PimCommand, ops: &Operands) -> CmdValue {
        let sys = &mut self.system;
        match command.kind {
            OpKind::RedSum => {
                let a = ops.inputs()[0];
                CmdValue::Wide(sys.red_sum(a, sys.get(a).dtype))
            }
            OpKind::RedMin | OpKind::RedMax => {
                let a = ops.inputs()[0];
                let want_min = command.kind == OpKind::RedMin;
                CmdValue::Int(sys.red_extreme(a, sys.get(a).dtype, want_min))
            }
            kind => {
                let dst = ops.dst.expect("element-wise commands write");
                let dtype = sys.get(dst).dtype;
                let realigned = sys.exec_elementwise(kind, dtype, ops.inputs(), dst);
                self.charge_interconnect(InterconnectKind::Realign, realigned, realigned);
                CmdValue::Unit
            }
        }
    }

    /// Charges a validated command to the cost model, the statistics
    /// engine, and the trace.
    pub(crate) fn charge_cmd(&mut self, command: &PimCommand, ops: &Operands) {
        self.charge_op(command.kind, ops.costed(), None);
        if command.kind == OpKind::Copy {
            // The copy's time is the command's; the copy ledger counts
            // its bytes.
            let bytes = self.system.get(ops.inputs()[0]).bytes();
            self.charge(Charge::Copy {
                direction: CopyDirection::DeviceToDevice,
                bytes,
                cost: OpCost::default(),
                replay: None,
                dram: TimingCounters::default(),
            });
        }
        if matches!(
            command.kind,
            OpKind::RedSum | OpKind::RedMin | OpKind::RedMax
        ) && self.system.shard_count() > 1
        {
            // Each shard ships one reduction partial to the host for
            // the final combine.
            let dtype = self.system.get(ops.inputs()[0]).dtype;
            let per = (dtype.bits() as u64 / 8).max(1);
            let total = self.system.shard_count() as u64 * per;
            self.charge_interconnect(InterconnectKind::Combine, per, total);
        }
    }

    /// Charges one stream flush's optimizer counters.
    pub(crate) fn finish_flush(&mut self, summary: &FlushSummary) {
        self.charge(Charge::Flush(*summary));
    }

    /// The one charge fan-out: advances the simulated clock by the
    /// charge's critical-path time and folds the charge into every
    /// enabled view: the trace (one event stamped at the span start),
    /// [`SimStats`], the metrics (with each shard's busy share), and the
    /// log.
    fn charge(&mut self, charge: Charge) {
        let start_ms = self.clock_ms;
        self.clock_ms += match &charge {
            Charge::Cmd { cost, .. } | Charge::Copy { cost, .. } => cost.time_ms.max(0.0),
            Charge::Host { time_ms } => *time_ms,
            Charge::Interconnect { .. } | Charge::Flush(_) => 0.0,
        };
        let metrics = self.metrics.as_deref_mut();
        match charge {
            Charge::Cmd {
                kind,
                costed,
                dtype,
                layout,
                cost,
                micro,
                dram,
            } => {
                let (name, category) = (kind.stat_name(dtype), kind.category());
                self.tracer.emit_with(|| TraceEvent::Cmd {
                    name,
                    category: category.label(),
                    start_ms,
                    time_ms: cost.time_ms,
                    energy_mj: cost.energy_mj,
                    cores_used: layout.cores_used,
                    micro: micro
                        .then(|| model::micro_cost(&self.config, kind, dtype, &layout))
                        .flatten(),
                });
                // One UTF-8 check per charge: every view below takes the `&str`.
                let name = name.as_str();
                pim_trace!(
                    "cmd {name}: {:.6} ms on {} cores",
                    cost.time_ms,
                    layout.cores_used
                );
                self.stats.dram_protocol.merge(&dram);
                self.stats
                    .record_cmd(name, category, cost, layout.cores_used);
                if let Some(m) = metrics {
                    m.record_cmd(name, cost.time_ms);
                    self.system.split_time(costed, cost.time_ms, |s, busy| {
                        m.record_shard_busy(s, start_ms, cost.time_ms, busy);
                    });
                }
            }
            Charge::Copy {
                direction,
                bytes,
                cost,
                replay,
                dram,
            } => {
                let OpCost { time_ms, energy_mj } = cost;
                self.tracer.emit_with(|| TraceEvent::Copy {
                    direction,
                    bytes,
                    start_ms,
                    time_ms,
                    energy_mj,
                    protocol: replay,
                });
                pim_debug!(
                    "copy {}: {bytes} bytes in {time_ms:.6} ms",
                    direction.label()
                );
                self.stats.dram_protocol.merge(&dram);
                self.stats.record_copy(bytes, direction, time_ms, energy_mj);
                if let Some(m) = metrics {
                    m.record_copy(bytes, time_ms);
                }
            }
            Charge::Interconnect { kind, bytes, cost } => {
                let OpCost { time_ms, energy_mj } = cost;
                self.tracer.emit_with(|| TraceEvent::Interconnect {
                    kind,
                    bytes,
                    shards: self.system.shard_count(),
                    at_ms: start_ms,
                    time_ms,
                    energy_mj,
                });
                let ic = &mut self.stats.interconnect;
                *match kind {
                    InterconnectKind::Scatter => &mut ic.scatter_bytes,
                    InterconnectKind::Gather => &mut ic.gather_bytes,
                    InterconnectKind::Realign => &mut ic.realign_bytes,
                    InterconnectKind::Combine => &mut ic.combine_bytes,
                } += bytes;
                ic.transfers += 1;
                ic.time_ms += time_ms;
                ic.energy_mj += energy_mj;
                if let Some(m) = metrics {
                    m.record_interconnect(start_ms, bytes);
                }
            }
            Charge::Host { time_ms } => {
                self.tracer
                    .emit_with(|| TraceEvent::HostPhase { start_ms, time_ms });
                self.stats.record_host_ms(time_ms);
            }
            Charge::Flush(summary) => {
                self.tracer.emit_with(|| TraceEvent::StreamFlush {
                    at_ms: start_ms,
                    recorded: summary.recorded,
                    executed: summary.executed,
                    fused_scaled_add: summary.fused_scaled_add,
                    fused_cmp_select: summary.fused_cmp_select,
                    dead_writes_eliminated: summary.dead_writes_eliminated,
                });
                pim_debug!(
                    "stream flush: {} recorded -> {} executed ({} fused, {} dead)",
                    summary.recorded,
                    summary.executed,
                    summary.fused_scaled_add + summary.fused_cmp_select,
                    summary.dead_writes_eliminated
                );
                let f = &mut self.stats.fusion;
                f.flushes += 1;
                f.recorded_commands += summary.recorded;
                f.executed_commands += summary.executed;
                f.fused_scaled_add += summary.fused_scaled_add;
                f.fused_cmp_select += summary.fused_cmp_select;
                f.dead_writes_eliminated += summary.dead_writes_eliminated;
                self.stats.optimizer.cse_hits += summary.cse_hits;
            }
        }
    }

    // ------------------------------------------------------------------
    // Element-wise arithmetic and logic (thin wrappers over `issue`)
    // ------------------------------------------------------------------

    /// `dst = a + b` (wrapping).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn add(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Add), a, b, dst)
    }

    /// `dst = a - b` (wrapping).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn sub(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Sub), a, b, dst)
    }

    /// `dst = a * b` (wrapping, low half).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn mul(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Mul), a, b, dst)
    }

    /// `dst = a & b`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn and(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::And), a, b, dst)
    }

    /// `dst = a | b`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn or(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Or), a, b, dst)
    }

    /// `dst = a ^ b`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn xor(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Xor), a, b, dst)
    }

    /// `dst = !(a ^ b)`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn xnor(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Binary(BinaryOp::Xnor), a, b, dst)
    }

    /// `dst = !a`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn not(&mut self, a: ObjId, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::Not, a, dst)
    }

    /// `dst = |a|` (signed; wraps on the minimum value).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn abs(&mut self, a: ObjId, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::Abs, a, dst)
    }

    /// `dst = min(a, b)` respecting signedness.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn min(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Min, a, b, dst)
    }

    /// `dst = max(a, b)` respecting signedness.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn max(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Max, a, b, dst)
    }

    fn issue1(&mut self, kind: OpKind, a: ObjId, dst: ObjId) -> Result<()> {
        self.issue(PimCommand::elementwise1(kind, a, dst))?;
        Ok(())
    }

    fn issue2(&mut self, kind: OpKind, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue(PimCommand::elementwise2(kind, a, b, dst))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scalar variants
    // ------------------------------------------------------------------

    /// `dst = a + k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn add_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::Add, k), a, dst)
    }

    /// `dst = a - k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn sub_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::Sub, k), a, dst)
    }

    /// `dst = a * k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn mul_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::Mul, k), a, dst)
    }

    /// `dst = a & k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn and_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::And, k), a, dst)
    }

    /// `dst = a | k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn or_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::Or, k), a, dst)
    }

    /// `dst = a ^ k`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn xor_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::BinaryScalar(BinaryOp::Xor, k), a, dst)
    }

    /// `dst = min(a, k)`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn min_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::MinScalar(k), a, dst)
    }

    /// `dst = max(a, k)`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn max_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::MaxScalar(k), a, dst)
    }

    /// `dst = a * k + b` (`pimScaledAdd`): lowered to a scalar multiply
    /// into an internal temporary followed by an addition, exactly as a
    /// runtime without a fused op would execute it.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects; out-of-memory for the
    /// temporary.
    pub fn scaled_add(&mut self, a: ObjId, b: ObjId, dst: ObjId, k: i64) -> Result<()> {
        let dtype = self.object(a)?.dtype;
        let tmp = self.alloc_associated(a, dtype)?;
        let result = self
            .mul_scalar(a, k, tmp)
            .and_then(|()| self.add(tmp, b, dst));
        self.free(tmp)?;
        result
    }

    // ------------------------------------------------------------------
    // Comparisons and selection
    // ------------------------------------------------------------------

    /// `dst = (a < b) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn lt(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Cmp(CmpOp::Lt), a, b, dst)
    }

    /// `dst = (a > b) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn gt(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Cmp(CmpOp::Gt), a, b, dst)
    }

    /// `dst = (a == b) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn eq(&mut self, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue2(OpKind::Cmp(CmpOp::Eq), a, b, dst)
    }

    /// `dst = (a < k) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn lt_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::CmpScalar(CmpOp::Lt, k), a, dst)
    }

    /// `dst = (a > k) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn gt_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::CmpScalar(CmpOp::Gt, k), a, dst)
    }

    /// `dst = (a == k) ? 1 : 0`.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn eq_scalar(&mut self, a: ObjId, k: i64, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::CmpScalar(CmpOp::Eq, k), a, dst)
    }

    /// `dst = cond ? a : b` element-wise (non-zero condition selects `a`).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches between `a`, `b`, `dst`; count mismatch for
    /// `cond`; unknown objects.
    pub fn select(&mut self, cond: ObjId, a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
        self.issue(PimCommand::select(cond, a, b, dst))?;
        Ok(())
    }

    /// `dst = (a OP b) ? x : y` in one fused pass — the explicit form of
    /// what the [`CommandStream`] cmp+select fusion produces.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches (including between the compared and the
    /// selected operands); unknown objects.
    pub fn cmp_select(
        &mut self,
        op: CmpOp,
        a: ObjId,
        b: ObjId,
        x: ObjId,
        y: ObjId,
        dst: ObjId,
    ) -> Result<()> {
        self.issue(PimCommand::fused_cmp_select(op, a, b, x, y, dst))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Shifts, popcount, broadcast, reductions
    // ------------------------------------------------------------------

    /// `dst = a << k` (logical).
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn shift_left(&mut self, a: ObjId, k: u32, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::ShiftL(k), a, dst)
    }

    /// `dst = a >> k` — arithmetic for signed dtypes, logical otherwise.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn shift_right(&mut self, a: ObjId, k: u32, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::ShiftR(k), a, dst)
    }

    /// Per-element population count of the low `bits` of each element.
    ///
    /// # Errors
    ///
    /// Count/dtype mismatches; unknown objects.
    pub fn popcount(&mut self, a: ObjId, dst: ObjId) -> Result<()> {
        self.issue1(OpKind::Popcount, a, dst)
    }

    /// Fills every element of `dst` with `value` (`pimBroadcast`).
    ///
    /// # Errors
    ///
    /// Unknown object.
    pub fn broadcast(&mut self, dst: ObjId, value: i64) -> Result<()> {
        self.issue(PimCommand::broadcast(dst, value))?;
        Ok(())
    }

    /// Reduction sum of all elements (`pimRedSum`). Unsigned dtypes sum
    /// their unsigned values. Returns 0 in model-only mode (documented
    /// limitation; the cost is still charged).
    ///
    /// # Errors
    ///
    /// Unknown object.
    pub fn red_sum(&mut self, a: ObjId) -> Result<i128> {
        match self.issue(PimCommand::reduce(OpKind::RedSum, a))? {
            CmdValue::Wide(sum) => Ok(sum),
            _ => unreachable!("red_sum produces a widening sum"),
        }
    }

    /// Reduction minimum across all elements (`pimRedMin`), respecting
    /// signedness. Returns 0 in model-only mode.
    ///
    /// # Errors
    ///
    /// Unknown object.
    pub fn red_min(&mut self, a: ObjId) -> Result<i64> {
        match self.issue(PimCommand::reduce(OpKind::RedMin, a))? {
            CmdValue::Int(v) => Ok(v),
            _ => unreachable!("red_min produces one element"),
        }
    }

    /// Reduction maximum across all elements (`pimRedMax`), respecting
    /// signedness. Returns 0 in model-only mode.
    ///
    /// # Errors
    ///
    /// Unknown object.
    pub fn red_max(&mut self, a: ObjId) -> Result<i64> {
        match self.issue(PimCommand::reduce(OpKind::RedMax, a))? {
            CmdValue::Int(v) => Ok(v),
            _ => unreachable!("red_max produces one element"),
        }
    }

    /// Reduction sum over the element range `[start, end)`
    /// (`pimRedSumRanged`). Cost is the full reduction scaled by the
    /// fraction of elements covered (the sub-range still spans
    /// proportionally fewer stripes/rows).
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidArg`] for an out-of-bounds or empty range.
    pub fn red_sum_range(&mut self, a: ObjId, start: u64, end: u64) -> Result<i128> {
        let slot = self.system.slot(a).ok_or(PimError::UnknownObject(a))?;
        let PimObject { count, dtype, .. } = *self.system.get(slot);
        if start >= end || end > count {
            return Err(PimError::InvalidArg(format!(
                "red_sum_range [{start}, {end}) out of bounds for {count} elements"
            )));
        }
        let sum = self.system.red_sum_range(slot, dtype, start, end);
        self.charge_op(
            OpKind::RedSum,
            slot,
            Some((end - start) as f64 / count as f64),
        );
        Ok(sum)
    }
}

/// One modeled charge, built once by a pricing site and folded into
/// every enabled view by [`Device::charge`]. Never retained.
enum Charge {
    /// One PIM command, costed on the object at `costed`.
    Cmd {
        kind: OpKind,
        costed: Slot,
        dtype: DataType,
        layout: ObjectLayout,
        cost: OpCost,
        /// Whether the trace event carries microcode counters (ranged
        /// reductions do not).
        micro: bool,
        /// DRAM commands the timing model issued.
        dram: TimingCounters,
    },
    /// One data movement.
    Copy {
        direction: CopyDirection,
        bytes: u64,
        cost: OpCost,
        /// The protocol replay for the trace, when one ran.
        replay: Option<CopyReplay>,
        dram: TimingCounters,
    },
    /// One cross-shard transfer, off the critical path: ledgered apart
    /// from kernel and copy time, it does not advance the clock.
    Interconnect {
        kind: InterconnectKind,
        bytes: u64,
        cost: OpCost,
    },
    /// One modeled host-execution phase.
    Host { time_ms: f64 },
    /// One command-stream flush's optimizer counters (no modeled time).
    Flush(FlushSummary),
}
