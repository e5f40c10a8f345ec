//! Outside-in host-time probes.
//!
//! Everything here is measured from the benchmark's side of the public
//! API: `Instant` spans around the calls the benchmark makes, and a
//! [`TraceSink`] that stamps the wall clock on every event a device
//! emits. The sink charges the interval since the previous event to the
//! kind of event that closes it. Those intervals are upper bounds: they
//! also hold whatever app code ran between two device calls.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use pimeval::{CopyDirection, Device, Recorder, TraceEvent, TraceSink};

/// Interval seconds and event count of one event kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bucket {
    /// Seconds of the intervals closed by this kind.
    pub s: f64,
    /// Events of this kind.
    pub n: u64,
}

impl Bucket {
    fn add(&mut self, s: f64) {
        self.s += s;
        self.n += 1;
    }
}

/// Ring capacity of every trace recorder the benchmark turns on: a
/// bounded recorder, as a long-running traced program would use. Every
/// event is still recorded (the ring overwrites the oldest), so the
/// per-event sink cost is paid in full while the trace buffers and the
/// exported trace stay a few megabytes instead of hundreds.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// Longest run of command intervals kept for stream-flush attribution.
const FLUSH_WINDOW: usize = 1 << 16;

/// What the wall-stamp sink accumulates.
#[derive(Debug, Default)]
pub struct Stamps {
    last: Option<Instant>,
    /// Events seen.
    pub events: u64,
    /// Intervals closed by `Cmd` events.
    pub cmd: Bucket,
    /// The same, by Fig. 8 operation category.
    pub cmd_by_category: BTreeMap<&'static str, Bucket>,
    /// Intervals closed by `Copy` events, by direction code
    /// (host→device, device→host, device→device).
    pub copy: [Bucket; 3],
    /// Bytes moved, by direction code.
    pub copy_bytes: [u64; 3],
    /// Intervals closed by `Alloc` events.
    pub alloc: Bucket,
    /// Intervals closed by `Free` events.
    pub free: Bucket,
    /// Intervals closed by modeled host phases.
    pub host_phase: Bucket,
    /// Intervals closed by interconnect transfers.
    pub interconnect: Bucket,
    /// Intervals closed by stream-flush markers.
    pub flush_marker: Bucket,
    /// Whole flushes: each marker's interval plus those of the commands
    /// it executed. Overlaps `cmd`.
    pub flush_s: f64,
    /// Events the forwarding recorders overwrote.
    pub dropped: u64,
    /// Command (true) and interconnect (false) intervals since the last
    /// other event, newest last; only kept when streams are in use.
    window: Vec<(bool, f64)>,
    track_flush: bool,
    recorder: Option<Recorder>,
}

impl Stamps {
    /// Sum of the disjoint interval buckets.
    pub fn covered_s(&self) -> f64 {
        let copies: f64 = self.copy.iter().map(|b| b.s).sum();
        self.cmd.s
            + copies
            + self.alloc.s
            + self.free.s
            + self.host_phase.s
            + self.interconnect.s
            + self.flush_marker.s
    }

    fn stamp(&mut self, event: &TraceEvent, now: Instant) {
        self.events += 1;
        let dt = self.last.map_or(0.0, |t| (now - t).as_secs_f64());
        self.last = Some(now);
        match event {
            TraceEvent::Cmd { category, .. } => {
                self.cmd.add(dt);
                self.cmd_by_category.entry(category).or_default().add(dt);
                self.push_window(true, dt);
                return;
            }
            TraceEvent::Interconnect { .. } => {
                self.interconnect.add(dt);
                self.push_window(false, dt);
                return;
            }
            TraceEvent::StreamFlush { executed, .. } => {
                self.flush_marker.add(dt);
                // The flush emits its marker after the Cmd events of the
                // commands it executed.
                let mut left = *executed;
                let mut flush = dt;
                for &(is_cmd, s) in self.window.iter().rev() {
                    if left == 0 {
                        break;
                    }
                    flush += s;
                    left -= u64::from(is_cmd);
                }
                self.flush_s += flush;
            }
            TraceEvent::Copy {
                direction, bytes, ..
            } => {
                let i = match direction {
                    CopyDirection::HostToDevice => 0,
                    CopyDirection::DeviceToHost => 1,
                    CopyDirection::DeviceToDevice => 2,
                };
                self.copy[i].add(dt);
                self.copy_bytes[i] += bytes;
            }
            TraceEvent::Alloc { .. } => self.alloc.add(dt),
            TraceEvent::Free { .. } => self.free.add(dt),
            TraceEvent::HostPhase { .. } => self.host_phase.add(dt),
            // Emitted when the sink is installed, before the run's clock
            // starts (dt is 0), and by recorders only.
            TraceEvent::DeviceCreated { .. } | TraceEvent::Dropped { .. } => {}
        }
        self.window.clear();
    }

    fn push_window(&mut self, is_cmd: bool, s: f64) {
        if !self.track_flush {
            return;
        }
        if self.window.len() == FLUSH_WINDOW {
            self.window.drain(..FLUSH_WINDOW / 2);
        }
        self.window.push((is_cmd, s));
    }
}

/// The benchmark-owned sink: stamps the wall clock on every event and,
/// when the workload traces, forwards the event to a recorder so the
/// exported trace is the one the workload would produce.
#[derive(Debug, Clone)]
struct WallStampSink(Arc<Mutex<Stamps>>);

impl TraceSink for WallStampSink {
    fn record(&mut self, event: &TraceEvent) {
        let now = Instant::now();
        let mut stamps = lock(&self.0);
        stamps.stamp(event, now);
        if let Some(r) = &mut stamps.recorder {
            r.record(event);
        }
    }
}

fn lock(stamps: &Mutex<Stamps>) -> MutexGuard<'_, Stamps> {
    stamps
        .lock()
        .expect("wall-stamp state poisoned by a panicking run")
}

/// Probe state of one pass.
///
/// Off, it only runs the closures it is handed. With spans on it also
/// times the benchmark's calls; traced, it installs the wall-stamp sink on
/// every device as well.
#[derive(Debug, Default)]
pub struct Probe {
    on: bool,
    stamps: Option<Arc<Mutex<Stamps>>>,
    spans: BTreeMap<&'static str, f64>,
    excluded_s: f64,
}

impl Probe {
    /// No probes (the timed passes).
    pub fn off() -> Probe {
        Probe::default()
    }

    /// Call spans only (the ablation passes).
    pub fn spans() -> Probe {
        Probe {
            on: true,
            ..Probe::default()
        }
    }

    /// Call spans plus the wall-stamp sink (the traced pass).
    pub fn traced() -> Probe {
        Probe {
            on: true,
            stamps: Some(Arc::default()),
            ..Probe::default()
        }
    }

    /// True unless this is [`Probe::off`].
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Seconds spent in probe-only work (see [`Probe::excluded`]).
    pub fn excluded_s(&self) -> f64 {
        self.excluded_s
    }

    /// Accumulated seconds of the span `name` (0 if it never ran).
    pub fn span_s(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f` and, with spans on, charges its wall time to `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        *self.spans.entry(name).or_default() += t0.elapsed().as_secs_f64();
        out
    }

    /// [`Probe::span`] for work the workload itself does not do: its
    /// time is also excluded from the pass's wall time.
    pub fn excluded<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let before = self.span_s(name);
        let out = self.span(name, f);
        self.excluded_s += self.span_s(name) - before;
        out
    }

    /// [`Probe::excluded`] if `probe_only`, else [`Probe::span`].
    pub fn timed<R>(&mut self, probe_only: bool, name: &'static str, f: impl FnOnce() -> R) -> R {
        if probe_only {
            self.excluded(name, f)
        } else {
            self.span(name, f)
        }
    }

    /// Prepares a fresh device: installs the wall-stamp sink when traced
    /// (forwarding to a recorder if `record`), else enables the built-in
    /// recorder if `record`. `streams` keeps the command window that
    /// attributes whole stream flushes.
    pub fn attach(&mut self, dev: &mut Device, record: bool, streams: bool) {
        match &self.stamps {
            Some(stamps) => {
                {
                    let mut s = lock(stamps);
                    s.recorder = record.then(|| Recorder::with_capacity(TRACE_CAPACITY));
                    s.track_flush = streams;
                    s.window.clear();
                    s.last = None;
                }
                dev.set_trace_sink(Box::new(WallStampSink(Arc::clone(stamps))));
            }
            None if record => dev.enable_tracing_with_capacity(TRACE_CAPACITY),
            None => {}
        }
    }

    /// Runs the app body `f` as span `pimbench.run_s`. With the sink
    /// installed, the first interval starts here and the time after the
    /// last event is charged to `pimbench.host_s`.
    pub fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        if let Some(stamps) = &self.stamps {
            lock(stamps).last = Some(t0);
        }
        let out = f();
        let end = Instant::now();
        *self.spans.entry("pimbench.run_s").or_default() += (end - t0).as_secs_f64();
        if let Some(stamps) = &self.stamps {
            let mut s = lock(stamps);
            let tail = s.last.map_or(0.0, |t| (end - t).as_secs_f64());
            s.last = None;
            drop(s);
            *self.spans.entry("pimbench.host_s").or_default() += tail;
        }
        out
    }

    /// Drains the run's recorded events: from the sink's recorder when
    /// traced, else from the device's built-in recorder.
    pub fn take_events(&mut self, dev: &mut Device) -> Vec<TraceEvent> {
        let Some(stamps) = &self.stamps else {
            return dev.take_trace();
        };
        let mut s = lock(stamps);
        let Some(mut recorder) = s.recorder.take() else {
            return Vec::new();
        };
        s.dropped += recorder.dropped();
        recorder.take()
    }

    /// Runs `f` on the accumulated stamps (empty when not traced).
    pub fn with_stamps<R>(&self, f: impl FnOnce(&Stamps) -> R) -> R {
        match &self.stamps {
            Some(stamps) => f(&lock(stamps)),
            None => f(&Stamps::default()),
        }
    }
}
