//! Simulation observability: typed trace events, pluggable sinks, and
//! machine-readable exporters.
//!
//! The simulator reports aggregates through [`SimStats`](crate::SimStats);
//! this module adds the *timeline* view — one event per device-lifecycle
//! step, PIM command, host↔device copy, and host phase, each stamped on
//! the device's simulated clock. Tracing is strictly opt-in: a device
//! starts with the no-op sink and skips all event construction, so
//! untraced runs are bit-identical to pre-trace behavior.
//!
//! # Example
//!
//! ```
//! use pimeval::{Device, DataType};
//!
//! # fn main() -> Result<(), pimeval::PimError> {
//! let mut dev = Device::fulcrum(2)?;
//! dev.enable_tracing();
//! let a = dev.alloc_vec(&[1i32, 2, 3])?;
//! let b = dev.alloc_associated(a, DataType::Int32)?;
//! dev.add(a, a, b)?;
//! let events = dev.take_trace();
//! let chrome_json = pimeval::trace::chrome::chrome_trace_json(&events);
//! assert!(chrome_json.contains("add.int32"));
//! # Ok(())
//! # }
//! ```
//!
//! Submodules: [`chrome`] (Chrome-trace-event/Perfetto exporter),
//! [`json`] (stats JSON renderer + minimal parser), [`log`] (the
//! `PIM_LOG` leveled logger).

pub mod chrome;
pub mod json;
pub mod log;

use pim_dram::CopyReplay;
use pim_microcode::Cost;

use crate::config::PimTarget;
use crate::dtype::DataType;
use crate::ops::StatName;

/// Direction of a data movement event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDirection {
    /// Host → device.
    HostToDevice,
    /// Device → host.
    DeviceToHost,
    /// Device → device.
    DeviceToDevice,
}

impl CopyDirection {
    /// Stable label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            CopyDirection::HostToDevice => "host_to_device",
            CopyDirection::DeviceToHost => "device_to_host",
            CopyDirection::DeviceToDevice => "device_to_device",
        }
    }
}

/// Kind of a cross-shard interconnect transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterconnectKind {
    /// Host → shard scatter of a copy to the device.
    Scatter,
    /// Shard → host gather of a copy from the device.
    Gather,
    /// Inter-shard realignment of a misaligned operand.
    Realign,
    /// Reduction partials shipped to the host for the final combine.
    Combine,
}

impl InterconnectKind {
    /// Stable label used in exports and metrics keys.
    pub fn label(&self) -> &'static str {
        match self {
            InterconnectKind::Scatter => "scatter",
            InterconnectKind::Gather => "gather",
            InterconnectKind::Realign => "realign",
            InterconnectKind::Combine => "combine",
        }
    }
}

/// One timeline event. Timestamps (`at_ms`, `start_ms`) are simulated
/// milliseconds since device creation; durations are the modeled cost of
/// the step. Events are plain `Copy` records: the ring [`Recorder`]
/// stores and drains them by copying.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A device came up.
    DeviceCreated {
        /// Simulated timestamp (always 0 for a fresh device).
        at_ms: f64,
        /// The modeled architecture.
        target: PimTarget,
        /// PIM core count.
        cores: usize,
        /// DRAM rank count.
        ranks: usize,
    },
    /// An object was allocated.
    Alloc {
        /// Simulated timestamp.
        at_ms: f64,
        /// Object id.
        id: u64,
        /// Element count.
        count: u64,
        /// Element type.
        dtype: DataType,
        /// Cores the layout spans.
        cores_used: usize,
        /// Rows occupied on the busiest core.
        rows_per_core: u64,
    },
    /// An object was freed.
    Free {
        /// Simulated timestamp.
        at_ms: f64,
        /// Object id.
        id: u64,
    },
    /// One PIM command span.
    Cmd {
        /// Statistics key, e.g. `add.int32`.
        name: StatName,
        /// Fig. 8 category label.
        category: &'static str,
        /// Span start on the simulated clock (ms).
        start_ms: f64,
        /// Modeled kernel time (ms).
        time_ms: f64,
        /// Modeled kernel energy (mJ).
        energy_mj: f64,
        /// Cores the command occupied.
        cores_used: usize,
        /// Microcode counters, summed over every stripe the busiest core
        /// executes (bit-serial targets).
        micro: Option<Cost>,
    },
    /// One data movement span.
    Copy {
        /// Transfer direction.
        direction: CopyDirection,
        /// Bytes moved.
        bytes: u64,
        /// Span start on the simulated clock (ms).
        start_ms: f64,
        /// Modeled transfer time (ms).
        time_ms: f64,
        /// Modeled transfer energy (mJ).
        energy_mj: f64,
        /// The bounded bank-FSM replay of a host↔device transfer: up to
        /// [`COPY_REPLAY_MAX_ROWS`](pim_dram::timing_model::COPY_REPLAY_MAX_ROWS)
        /// rows streamed through one rank's bank state machines.
        protocol: Option<CopyReplay>,
    },
    /// A modeled host-execution span.
    HostPhase {
        /// Span start on the simulated clock (ms).
        start_ms: f64,
        /// Modeled host time (ms).
        time_ms: f64,
    },
    /// A [`crate::stream::CommandStream`] flush: instantaneous marker with
    /// the optimization-pass counters for this flush (the executed commands
    /// emit their own [`TraceEvent::Cmd`] spans).
    StreamFlush {
        /// Simulated timestamp.
        at_ms: f64,
        /// Commands recorded since the previous flush.
        recorded: u64,
        /// Commands executed after the passes ran.
        executed: u64,
        /// mul_scalar + add pairs fused to `scaled_add`.
        fused_scaled_add: u64,
        /// cmp + select pairs fused.
        fused_cmp_select: u64,
        /// Dead writes eliminated.
        dead_writes_eliminated: u64,
    },
    /// A modeled cross-shard interconnect transfer (scatter, gather,
    /// realign, or reduction combine). Instantaneous marker: the
    /// interconnect ledger is reported separately from kernel and copy
    /// time, so it never advances the simulated clock. Only emitted by
    /// devices with more than one shard.
    Interconnect {
        /// Transfer kind.
        kind: InterconnectKind,
        /// Total bytes moved across all shards.
        bytes: u64,
        /// Shard count of the device.
        shards: usize,
        /// Simulated timestamp.
        at_ms: f64,
        /// Modeled transfer time (ms), critical-path (busiest channel).
        time_ms: f64,
        /// Modeled transfer energy (mJ).
        energy_mj: f64,
    },
    /// Synthesized marker: the ring-buffer [`Recorder`] overwrote old
    /// events after filling up. Prepended once per drain when the drop
    /// count grew, at the timestamp of the oldest *retained* event, so
    /// exports make the truncation visible instead of silently starting
    /// mid-run.
    Dropped {
        /// Timestamp of the oldest event still held (ms).
        at_ms: f64,
        /// Events overwritten since recording started.
        dropped: u64,
        /// The recorder's ring capacity.
        capacity: usize,
    },
}

// Every ring slot holds one event: a new field must not silently widen
// them all.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 128);

impl TraceEvent {
    /// The span duration, or 0 for instantaneous events.
    pub fn duration_ms(&self) -> f64 {
        match self {
            TraceEvent::Cmd { time_ms, .. }
            | TraceEvent::Copy { time_ms, .. }
            | TraceEvent::HostPhase { time_ms, .. } => *time_ms,
            _ => 0.0,
        }
    }

    /// The event's position on the simulated clock (ms).
    pub fn timestamp_ms(&self) -> f64 {
        match self {
            TraceEvent::DeviceCreated { at_ms, .. }
            | TraceEvent::Alloc { at_ms, .. }
            | TraceEvent::Free { at_ms, .. }
            | TraceEvent::StreamFlush { at_ms, .. }
            | TraceEvent::Interconnect { at_ms, .. }
            | TraceEvent::Dropped { at_ms, .. } => *at_ms,
            TraceEvent::Cmd { start_ms, .. }
            | TraceEvent::Copy { start_ms, .. }
            | TraceEvent::HostPhase { start_ms, .. } => *start_ms,
        }
    }
}

/// Receives every event a traced device emits. Implementations must be
/// cheap: the sink runs inline with the simulation.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Called once per event, in simulation order.
    fn record(&mut self, event: &TraceEvent);
}

/// A bounded in-memory recorder: keeps the most recent `capacity`
/// events (ring-buffer overwrite) and counts what it dropped.
#[derive(Debug)]
pub struct Recorder {
    events: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
    dropped_reported: u64,
}

/// Default event capacity for [`Recorder::new`].
pub const DEFAULT_RECORDER_CAPACITY: usize = 1 << 20;

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder holding up to [`DEFAULT_RECORDER_CAPACITY`] events.
    pub fn new() -> Self {
        Recorder::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// A recorder holding up to `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            events: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
            dropped_reported: 0,
        }
    }

    /// Stores `event`, overwriting the oldest one when the ring is full.
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events dropped after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains the recorder, returning events oldest-first. If the ring
    /// overwrote events since the last drain, a synthesized
    /// [`TraceEvent::Dropped`] marker leads the result, stamped with the
    /// oldest retained event's time.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        let (newer, older) = self.events.split_at(self.head);
        let marker = (self.dropped > self.dropped_reported).then(|| TraceEvent::Dropped {
            // A wrapped ring is full, so its older half is never empty.
            at_ms: older.first().map_or(0.0, TraceEvent::timestamp_ms),
            dropped: self.dropped,
            capacity: self.capacity,
        });
        let mut out = Vec::with_capacity(usize::from(marker.is_some()) + self.events.len());
        out.extend(marker);
        out.extend_from_slice(older);
        out.extend_from_slice(newer);
        self.events.clear();
        self.head = 0;
        self.dropped_reported = self.dropped;
        out
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, event: &TraceEvent) {
        self.push(*event);
    }
}

/// The device's tracing state: an optional sink. It keeps no clock;
/// events arrive already stamped from the device's simulated clock, the
/// only one. With no sink installed every instrumentation site reduces
/// to one branch, so untraced runs pay nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    slot: SinkSlot,
}

#[derive(Debug, Default)]
enum SinkSlot {
    /// Tracing disabled (the default).
    #[default]
    Noop,
    /// The built-in ring-buffer recorder.
    Recorder(Recorder),
    /// A user-supplied sink.
    Custom(Box<dyn TraceSink>),
}

impl Tracer {
    /// True if a sink is installed.
    pub fn enabled(&self) -> bool {
        !matches!(self.slot, SinkSlot::Noop)
    }

    /// Installs the built-in recorder (replacing any sink).
    pub fn install_recorder(&mut self, capacity: usize) {
        self.slot = SinkSlot::Recorder(Recorder::with_capacity(capacity));
    }

    /// Installs a custom sink (replacing any sink).
    pub fn install_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.slot = SinkSlot::Custom(sink);
    }

    /// Removes the sink; subsequent events are discarded. The device's
    /// clock keeps running, so a re-enabled trace resumes at the true
    /// simulated time and stays monotonic.
    pub fn disable(&mut self) {
        self.slot = SinkSlot::Noop;
    }

    /// Drains the built-in recorder (empty for no-op/custom sinks).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        match &mut self.slot {
            SinkSlot::Recorder(r) => r.take(),
            _ => Vec::new(),
        }
    }

    /// Events the built-in recorder has overwritten (0 for no-op or
    /// custom sinks).
    pub fn dropped(&self) -> u64 {
        match &self.slot {
            SinkSlot::Recorder(r) => r.dropped(),
            _ => 0,
        }
    }

    /// Hands one event to the installed sink (discarded when none). The
    /// built-in recorder keeps the event itself; custom sinks borrow it.
    pub fn emit(&mut self, event: TraceEvent) {
        match &mut self.slot {
            SinkSlot::Noop => {}
            SinkSlot::Recorder(r) => r.push(event),
            SinkSlot::Custom(s) => s.record(&event),
        }
    }

    /// Builds an event with `event` and hands it to the installed sink;
    /// `event` does not run when none is installed.
    pub fn emit_with(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.enabled() {
            self.emit(event());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(i: u64) -> TraceEvent {
        TraceEvent::Free {
            at_ms: i as f64,
            id: i,
        }
    }

    #[test]
    fn recorder_keeps_most_recent_events() {
        let mut r = Recorder::with_capacity(4);
        for i in 0..10 {
            r.record(&cmd(i));
        }
        assert_eq!(r.dropped(), 6);
        let events = r.take();
        match &events[0] {
            TraceEvent::Dropped {
                at_ms,
                dropped,
                capacity,
            } => {
                assert_eq!(*dropped, 6);
                assert_eq!(*capacity, 4);
                assert_eq!(*at_ms, 6.0);
            }
            other => panic!("expected drop marker first, got {other:?}"),
        }
        let ids: Vec<u64> = events[1..]
            .iter()
            .map(|e| match e {
                TraceEvent::Free { id, .. } => *id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn drop_marker_emitted_once_per_drain() {
        let mut r = Recorder::with_capacity(2);
        for i in 0..5 {
            r.record(&cmd(i));
        }
        assert!(matches!(
            r.take()[0],
            TraceEvent::Dropped { dropped: 3, .. }
        ));
        // No new drops: the next drain has no marker.
        r.record(&cmd(9));
        assert!(matches!(r.take()[0], TraceEvent::Free { .. }));
    }

    #[test]
    fn recorder_matches_a_deque_model() {
        // Generated push/take sequences against the obvious model: a
        // deque that drops its front when full, and a marker leading each
        // drain that follows new drops, stamped at the oldest kept event.
        let mut rng = crate::SplitMix64(0x217);
        for capacity in 1..=5 {
            for _ in 0..100 {
                let mut r = Recorder::with_capacity(capacity);
                let mut model = std::collections::VecDeque::new();
                let (mut dropped, mut reported, mut next) = (0u64, 0u64, 0u64);
                for _ in 0..30 {
                    if rng.next().is_multiple_of(4) {
                        let mut want = Vec::new();
                        if dropped > reported {
                            want.push(TraceEvent::Dropped {
                                at_ms: model.front().map_or(0.0, TraceEvent::timestamp_ms),
                                dropped,
                                capacity,
                            });
                            reported = dropped;
                        }
                        want.extend(model.drain(..));
                        assert_eq!(r.take(), want);
                    } else {
                        r.record(&cmd(next));
                        if model.len() == capacity {
                            model.pop_front();
                            dropped += 1;
                        }
                        model.push_back(cmd(next));
                        next += 1;
                    }
                    assert_eq!((r.len(), r.dropped()), (model.len(), dropped));
                }
            }
        }
    }

    #[test]
    fn recorder_without_drops_has_no_marker() {
        let mut r = Recorder::with_capacity(8);
        r.record(&cmd(1));
        assert_eq!(r.take().len(), 1);
    }

    #[test]
    fn tracer_noop_discards_and_clock_advances() {
        // The tracer keeps no clock: a span keeps the start its caller
        // stamped, also after a stretch with no sink installed.
        let mut t = Tracer::default();
        assert!(!t.enabled());
        t.emit(cmd(1));
        assert!(t.take_events().is_empty());
        t.install_recorder(4);
        t.emit(TraceEvent::HostPhase {
            start_ms: 2.5,
            time_ms: 1.0,
        });
        let e = &t.take_events()[0];
        assert_eq!(e.timestamp_ms(), 2.5);
        assert!((e.timestamp_ms() + e.duration_ms() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_recorder_roundtrip() {
        let mut t = Tracer::default();
        t.install_recorder(16);
        assert!(t.enabled());
        t.emit(cmd(7));
        assert_eq!(t.take_events().len(), 1);
        assert!(t.take_events().is_empty());
    }
}
