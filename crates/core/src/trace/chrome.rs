//! Chrome-trace-event exporter: renders [`TraceEvent`]s as the JSON
//! object format understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`.
//!
//! Layout: each traced run becomes one *process* (pid); inside it,
//! commands, data movement, and host phases render on three named
//! *threads* so the lanes stay visually separate. Command and copy spans
//! are complete events (`ph: "X"`) with microsecond `ts`/`dur` on the
//! simulated clock; lifecycle events are instants (`ph: "i"`).
//!
//! Rendering: one writer appends every entry straight into the document
//! buffer. Static JSON pieces are copied in; integers go through a
//! digit writer; strings that need no escape are copied between quotes,
//! the rest go through `Quoted`. Floats go through a small memo keyed
//! by their bit pattern: a miss formats the value with `Num`, the
//! `Display` behind [`json::num`](super::json::num), and keeps those
//! bytes; a hit copies them again. A run repeats few durations and
//! energies, so most numbers are hits, and every number reads exactly as
//! `json::num` renders it. The buffer starts with the document head, and
//! [`ChromeTraceBuilder::finish`] appends the tail and returns the
//! buffer without copying it.

use std::io::Write as _;
use std::path::Path;

use super::json::{Num, Quoted};
use super::TraceEvent;
use crate::metrics::MetricsSnapshot;

/// Thread id used for PIM command spans.
const TID_CMDS: u32 = 1;
/// Thread id used for copy spans.
const TID_COPY: u32 = 2;
/// Thread id used for host phases.
const TID_HOST: u32 = 3;

/// Opens the trace document; entries follow, separated by `",\n"`.
const HEAD: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
/// Closes the trace document.
const TAIL: &str = "\n]}\n";

/// Buffer bytes reserved per event of a run: a command span with its
/// arguments renders to about 185 bytes.
const BYTES_PER_EVENT: usize = 192;

/// Accumulates events from one or more runs into a single trace file.
/// Every entry is rendered straight into one buffer as it is added.
#[derive(Debug)]
pub struct ChromeTraceBuilder {
    /// The document so far: the head, then the entries.
    out: Out,
    entries: usize,
    next_pid: u32,
}

impl Default for ChromeTraceBuilder {
    fn default() -> Self {
        ChromeTraceBuilder::new()
    }
}

impl ChromeTraceBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        let mut out = Out::new();
        out.raw(HEAD);
        ChromeTraceBuilder {
            out,
            entries: 0,
            next_pid: 0,
        }
    }

    /// Starts one entry after the separator and returns the writer.
    fn entry(&mut self) -> &mut Out {
        if self.entries > 0 {
            self.out.raw(",\n");
        }
        self.entries += 1;
        &mut self.out
    }

    /// A metadata entry (`"process_name"` or `"thread_name"`) naming
    /// lane `pid`/`tid`.
    fn name_entry(&mut self, kind: &str, pid: u32, tid: u32, name: &str) {
        self.entry()
            .raw("{\"name\":\"")
            .raw(kind)
            .raw("\",\"ph\":\"M\"")
            .lane(pid, tid)
            .raw("\"name\":")
            .string(name)
            .raw("}}");
    }

    /// Starts a new process named `label` and returns its pid.
    fn process(&mut self, label: &str) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.name_entry("process_name", pid, 0, label);
        pid
    }

    /// Adds one run's events as a new process named `label`.
    pub fn add_run(&mut self, label: &str, events: &[TraceEvent]) {
        self.out.text.reserve(events.len() * BYTES_PER_EVENT);
        let pid = self.process(label);
        for (tid, name) in [
            (TID_CMDS, "pim commands"),
            (TID_COPY, "data movement"),
            (TID_HOST, "host"),
        ] {
            self.name_entry("thread_name", pid, tid, name);
        }
        for event in events {
            self.entry().event(pid, event);
        }
    }

    /// Adds a metrics snapshot's profiler series as Perfetto *counter
    /// tracks* (`ph: "C"`) in a new process named `label`: one
    /// "shard busy" counter with one series per shard (busy fraction
    /// per time bin) and one "interconnect bytes" counter. A no-op when
    /// the snapshot carries no profile (profiling disabled or an empty
    /// run).
    pub fn add_counter_tracks(&mut self, label: &str, snapshot: &MetricsSnapshot) {
        let Some(profile) = &snapshot.profile else {
            return;
        };
        if profile.bins == 0 {
            return;
        }
        let pid = self.process(label);
        for bin in 0..profile.bins {
            let ts_ms = bin as f64 * profile.bin_ms;
            let o = self
                .entry()
                .raw("{\"name\":\"shard busy\",\"ph\":\"C\",")
                .ts(ts_ms)
                .lane(pid, 0);
            for (shard, bins) in profile.shard_busy.iter().enumerate() {
                o.raw(if shard > 0 { ",\"shard" } else { "\"shard" })
                    .uint(shard as u64)
                    .raw("\":")
                    .num(bins[bin]);
            }
            o.raw("}}");
            self.entry()
                .raw("{\"name\":\"interconnect bytes\",\"ph\":\"C\",")
                .ts(ts_ms)
                .lane(pid, 0)
                .raw("\"bytes\":")
                .uint(profile.interconnect_bytes[bin])
                .raw("}}");
        }
    }

    /// Number of trace entries accumulated so far (incl. metadata).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if no runs were added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The complete trace document: the buffer itself, closed.
    pub fn finish(mut self) -> String {
        self.out.raw(TAIL);
        String::from_utf8(self.out.text).expect("the trace is written from str pieces")
    }

    /// Writes the trace document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.out.text)?;
        f.write_all(TAIL.as_bytes())
    }
}

/// Renders a single run as a complete Chrome trace document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut b = ChromeTraceBuilder::new();
    b.add_run("pim simulation", events);
    b.finish()
}

/// Number-memo slots (a power of two): 24 KiB of memo.
const MEMO_BITS: u32 = 9;
const MEMO_SLOTS: usize = 1 << MEMO_BITS;
/// Longest number text a memo slot keeps. Longer texts (magnitudes far
/// from 1) are formatted every time.
const MEMO_TEXT: usize = 38;

/// One memoized number: the bits of the value and its rendered text.
/// An empty slot has `len == 0`; no number renders to nothing.
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    bits: u64,
    len: u8,
    text: [u8; MEMO_TEXT],
}

impl MemoSlot {
    const EMPTY: MemoSlot = MemoSlot {
        bits: 0,
        len: 0,
        text: [0; MEMO_TEXT],
    };
}

/// The slot of a value's bit pattern (Fibonacci hashing: round values
/// have all-zero low bits, so the high bits of the product pick).
fn memo_slot(bits: u64) -> usize {
    (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize
}

/// The document buffer and the writers every entry is rendered with.
/// Each writer returns the buffer so an entry reads as one chain.
#[derive(Debug)]
struct Out {
    /// UTF-8 by construction: every byte comes from a `str`.
    text: Vec<u8>,
    memo: Box<[MemoSlot; MEMO_SLOTS]>,
}

impl Out {
    fn new() -> Self {
        Out {
            text: Vec::new(),
            memo: Box::new([MemoSlot::EMPTY; MEMO_SLOTS]),
        }
    }

    /// A static piece of JSON.
    fn raw(&mut self, piece: &str) -> &mut Self {
        self.text.extend_from_slice(piece.as_bytes());
        self
    }

    /// An unsigned integer in decimal.
    fn uint(&mut self, mut v: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.text.extend_from_slice(&digits[start..]);
        self
    }

    /// Integer fields, each key piece with its punctuation.
    fn uints<const N: usize>(&mut self, fields: [(&str, u64); N]) -> &mut Self {
        for (key, v) in fields {
            self.raw(key).uint(v);
        }
        self
    }

    /// A quoted JSON string, byte-identical to [`Quoted`].
    fn string(&mut self, s: &str) -> &mut Self {
        if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
            self.text.push(b'"');
            self.text.extend_from_slice(s.as_bytes());
            self.text.push(b'"');
        } else {
            write!(self.text, "{}", Quoted(s)).expect("writing to a Vec cannot fail");
        }
        self
    }

    /// A JSON number, byte-identical to [`Num`].
    fn num(&mut self, v: f64) -> &mut Self {
        let bits = v.to_bits();
        let slot = &mut self.memo[memo_slot(bits)];
        if slot.len > 0 && slot.bits == bits {
            self.text
                .extend_from_slice(&slot.text[..usize::from(slot.len)]);
        } else {
            let start = self.text.len();
            write!(self.text, "{}", Num(v)).expect("writing to a Vec cannot fail");
            let text = &self.text[start..];
            if text.len() <= MEMO_TEXT {
                slot.bits = bits;
                slot.len = text.len() as u8;
                slot.text[..text.len()].copy_from_slice(text);
            }
        }
        self
    }

    /// `"ts":` and a simulated-clock time in trace microseconds.
    fn ts(&mut self, ms: f64) -> &mut Self {
        self.raw("\"ts\":").num(ms * 1000.0)
    }

    /// `,"dur":` and a span length in trace microseconds.
    fn dur(&mut self, ms: f64) -> &mut Self {
        self.raw(",\"dur\":").num(ms * 1000.0)
    }

    /// The lane fields, opening the `args` object.
    fn lane(&mut self, pid: u32, tid: u32) -> &mut Self {
        self.raw(",\"pid\":")
            .uint(pid.into())
            .raw(",\"tid\":")
            .uint(tid.into())
            .raw(",\"args\":{")
    }

    /// One event of process `pid`.
    fn event(&mut self, pid: u32, event: &TraceEvent) {
        match *event {
            TraceEvent::DeviceCreated {
                at_ms,
                target,
                cores,
                ranks,
            } => self
                .raw("{\"name\":\"device created\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"p\",")
                .ts(at_ms)
                .lane(pid, TID_CMDS)
                .raw("\"target\":")
                .string(target.name())
                .raw(",\"cores\":")
                .uint(cores as u64)
                .raw(",\"ranks\":")
                .uint(ranks as u64),
            TraceEvent::Alloc {
                at_ms,
                id,
                count,
                dtype,
                cores_used,
                rows_per_core,
            } => self
                .raw("{\"name\":\"alloc #")
                .uint(id)
                .raw("\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",")
                .ts(at_ms)
                .lane(pid, TID_CMDS)
                .raw("\"count\":")
                .uint(count)
                .raw(",\"dtype\":")
                .string(dtype.short_name())
                .raw(",\"cores_used\":")
                .uint(cores_used as u64)
                .raw(",\"rows_per_core\":")
                .uint(rows_per_core),
            TraceEvent::Free { at_ms, id } => self
                .raw("{\"name\":\"free #")
                .uint(id)
                .raw("\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",")
                .ts(at_ms)
                .lane(pid, TID_CMDS),
            TraceEvent::Cmd {
                ref name,
                category,
                start_ms,
                time_ms,
                energy_mj,
                cores_used,
                micro,
            } => {
                self.raw("{\"name\":")
                    .string(name)
                    .raw(",\"cat\":")
                    .string(category)
                    .raw(",\"ph\":\"X\",")
                    .ts(start_ms)
                    .dur(time_ms)
                    .lane(pid, TID_CMDS)
                    .raw("\"energy_mj\":")
                    .num(energy_mj)
                    .raw(",\"cores_used\":")
                    .uint(cores_used as u64);
                if let Some(m) = micro {
                    self.uints([
                        (",\"row_reads\":", m.row_reads),
                        (",\"row_writes\":", m.row_writes),
                        (",\"logic_ops\":", m.logic_ops),
                        (",\"popcount_reads\":", m.popcount_reads),
                        (",\"aap_ops\":", m.aap_ops),
                        (",\"tra_ops\":", m.tra_ops),
                    ]);
                }
                self
            }
            TraceEvent::Copy {
                direction,
                bytes,
                start_ms,
                time_ms,
                energy_mj,
                protocol,
            } => {
                self.raw("{\"name\":")
                    .string(direction.label())
                    .raw(",\"cat\":\"copy\",\"ph\":\"X\",")
                    .ts(start_ms)
                    .dur(time_ms)
                    .lane(pid, TID_COPY)
                    .raw("\"bytes\":")
                    .uint(bytes)
                    .raw(",\"energy_mj\":")
                    .num(energy_mj);
                if let Some(p) = protocol {
                    let c = &p.counters;
                    self.uints([
                        (",\"activations\":", c.activations),
                        (",\"reads\":", c.reads),
                        (",\"writes\":", c.writes),
                        (",\"precharges\":", c.precharges),
                        (",\"row_hits\":", c.row_hits),
                        (",\"row_misses\":", c.row_misses),
                    ])
                    .raw(",\"achieved_gbs\":")
                        .num(p.achieved_gbs);
                }
                self
            }
            TraceEvent::HostPhase { start_ms, time_ms } => self
                .raw("{\"name\":\"host phase\",\"cat\":\"host\",\"ph\":\"X\",")
                .ts(start_ms)
                .dur(time_ms)
                .lane(pid, TID_HOST),
            TraceEvent::StreamFlush {
                at_ms,
                recorded,
                executed,
                fused_scaled_add,
                fused_cmp_select,
                dead_writes_eliminated,
            } => self
                .raw("{\"name\":\"stream flush\",\"cat\":\"stream\",\"ph\":\"i\",\"s\":\"t\",")
                .ts(at_ms)
                .lane(pid, TID_CMDS)
                .uints([
                    ("\"recorded\":", recorded),
                    (",\"executed\":", executed),
                    (",\"fused_scaled_add\":", fused_scaled_add),
                    (",\"fused_cmp_select\":", fused_cmp_select),
                    (",\"dead_writes_eliminated\":", dead_writes_eliminated),
                ]),
            TraceEvent::Interconnect {
                kind,
                bytes,
                shards,
                at_ms,
                time_ms,
                energy_mj,
            } => self
                .raw("{\"name\":\"interconnect ")
                .raw(kind.label())
                .raw("\",\"cat\":\"interconnect\",\"ph\":\"i\",\"s\":\"t\",")
                .ts(at_ms)
                .lane(pid, TID_COPY)
                .raw("\"bytes\":")
                .uint(bytes)
                .raw(",\"shards\":")
                .uint(shards as u64)
                .raw(",\"time_ms\":")
                .num(time_ms)
                .raw(",\"energy_mj\":")
                .num(energy_mj),
            TraceEvent::Dropped {
                at_ms,
                dropped,
                capacity,
            } => self
                .raw("{\"name\":\"trace events dropped\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"p\",")
                .ts(at_ms)
                .lane(pid, TID_CMDS)
                .raw("\"dropped\":")
                .uint(dropped)
                .raw(",\"capacity\":")
                .uint(capacity as u64),
        }
        .raw("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::super::json::{self, Json};
    use super::super::{CopyDirection, InterconnectKind};
    use super::*;
    use crate::config::PimTarget;
    use crate::dtype::DataType;
    use crate::ops::OpKind;
    use pim_microcode::gen::BinaryOp;

    fn name(op: BinaryOp, dtype: DataType) -> crate::ops::StatName {
        OpKind::Binary(op).stat_name(dtype)
    }

    #[test]
    fn trace_document_parses_and_has_required_fields() {
        let events = vec![
            TraceEvent::DeviceCreated {
                at_ms: 0.0,
                target: PimTarget::Fulcrum,
                cores: 8,
                ranks: 2,
            },
            TraceEvent::Cmd {
                name: name(BinaryOp::Add, DataType::Int32),
                category: "add",
                start_ms: 0.5,
                time_ms: 1.25,
                energy_mj: 0.125,
                cores_used: 8,
                micro: None,
            },
            TraceEvent::Copy {
                direction: CopyDirection::HostToDevice,
                bytes: 4096,
                start_ms: 1.75,
                time_ms: 0.5,
                energy_mj: 0.01,
                protocol: None,
            },
        ];
        let doc = Json::parse(&chrome_trace_json(&events)).unwrap();
        let entries = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process_name + 3 thread_name + 3 events.
        assert_eq!(entries.len(), 7);
        let cmd = entries
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("add.int32"))
            .unwrap();
        assert_eq!(cmd.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(cmd.get("ts").unwrap().as_f64(), Some(500.0));
        assert_eq!(cmd.get("dur").unwrap().as_f64(), Some(1250.0));
    }

    /// Every event variant, both shapes of the optional argument
    /// blocks and the number edge cases (zero, negative zero, NaN, a
    /// non-integer). The run label below is the one that needs escaping.
    fn every_variant() -> Vec<TraceEvent> {
        use pim_dram::{CopyReplay, TimingCounters};
        use pim_microcode::Cost;
        vec![
            TraceEvent::DeviceCreated {
                at_ms: 0.0,
                target: PimTarget::Fulcrum,
                cores: 8,
                ranks: 2,
            },
            TraceEvent::Alloc {
                at_ms: -0.0,
                id: 3,
                count: 257,
                dtype: DataType::Int32,
                cores_used: 4,
                rows_per_core: 32,
            },
            TraceEvent::Cmd {
                name: name(BinaryOp::Add, DataType::Int32),
                category: "add",
                start_ms: 0.1,
                time_ms: 1.25,
                energy_mj: f64::NAN,
                cores_used: 8,
                micro: None,
            },
            TraceEvent::Cmd {
                name: name(BinaryOp::Mul, DataType::Int8),
                category: "mul",
                start_ms: 1.35,
                time_ms: 0.0003,
                energy_mj: 0.125,
                cores_used: 2,
                micro: Some(Cost {
                    row_reads: 1,
                    row_writes: 2,
                    logic_ops: 3,
                    popcount_reads: 4,
                    aap_ops: 5,
                    tra_ops: 6,
                }),
            },
            TraceEvent::Copy {
                direction: CopyDirection::HostToDevice,
                bytes: 4096,
                start_ms: 1.5,
                time_ms: 0.5,
                energy_mj: -0.0,
                protocol: None,
            },
            TraceEvent::Copy {
                direction: CopyDirection::DeviceToHost,
                bytes: 64,
                start_ms: 2.0,
                time_ms: 1.0 / 3.0,
                energy_mj: 0.01,
                protocol: Some(CopyReplay {
                    counters: TimingCounters {
                        activations: 7,
                        reads: 8,
                        writes: 9,
                        precharges: 10,
                        row_hits: 11,
                        row_misses: 12,
                    },
                    achieved_gbs: 25.6,
                }),
            },
            TraceEvent::HostPhase {
                start_ms: 2.5,
                time_ms: f64::INFINITY,
            },
            TraceEvent::StreamFlush {
                at_ms: 3.0,
                recorded: 10,
                executed: 7,
                fused_scaled_add: 1,
                fused_cmp_select: 2,
                dead_writes_eliminated: 3,
            },
            TraceEvent::Interconnect {
                kind: InterconnectKind::Scatter,
                bytes: 1024,
                shards: 4,
                at_ms: 3.0,
                time_ms: 0.0625,
                energy_mj: 1e-7,
            },
            TraceEvent::Free { at_ms: 3.5, id: 3 },
            TraceEvent::Dropped {
                at_ms: 0.0,
                dropped: 5,
                capacity: 16,
            },
        ]
    }

    #[test]
    fn rendering_is_pinned_byte_for_byte() {
        use crate::metrics::{MetricsSnapshot, ProfileSnapshot};
        let snapshot = MetricsSnapshot {
            schema_version: 1,
            clock_ms: 1.0,
            aggregate: Default::default(),
            per_shard: Vec::new(),
            profile: Some(ProfileSnapshot {
                bin_ms: 0.5,
                bins: 2,
                shard_busy: vec![vec![0.0, 0.75], vec![-0.0, f64::NAN]],
                interconnect_bytes: vec![0, 4096],
            }),
        };
        let mut b = ChromeTraceBuilder::new();
        b.add_run("run \"a\"\\b\n\t\u{1}", &every_variant());
        b.add_run("second", &every_variant()[..2]);
        b.add_counter_tracks("metrics", &snapshot);
        assert_eq!(b.len(), 4 + 11 + 4 + 2 + 1 + 2 * 2);
        assert_eq!(b.finish(), EXPECTED);
        assert_eq!(
            ChromeTraceBuilder::new().finish(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n"
        );
    }

    const EXPECTED: &str = r##"{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"run \"a\"\\b\n\t\u0001"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"pim commands"}},
{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"data movement"}},
{"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"host"}},
{"name":"device created","cat":"lifecycle","ph":"i","s":"p","ts":0,"pid":0,"tid":1,"args":{"target":"Fulcrum","cores":8,"ranks":2}},
{"name":"alloc #3","cat":"lifecycle","ph":"i","s":"t","ts":0,"pid":0,"tid":1,"args":{"count":257,"dtype":"int32","cores_used":4,"rows_per_core":32}},
{"name":"add.int32","cat":"add","ph":"X","ts":100,"dur":1250,"pid":0,"tid":1,"args":{"energy_mj":null,"cores_used":8}},
{"name":"mul.int8","cat":"mul","ph":"X","ts":1350,"dur":0.3,"pid":0,"tid":1,"args":{"energy_mj":0.125,"cores_used":2,"row_reads":1,"row_writes":2,"logic_ops":3,"popcount_reads":4,"aap_ops":5,"tra_ops":6}},
{"name":"host_to_device","cat":"copy","ph":"X","ts":1500,"dur":500,"pid":0,"tid":2,"args":{"bytes":4096,"energy_mj":0}},
{"name":"device_to_host","cat":"copy","ph":"X","ts":2000,"dur":333.3333333333333,"pid":0,"tid":2,"args":{"bytes":64,"energy_mj":0.01,"activations":7,"reads":8,"writes":9,"precharges":10,"row_hits":11,"row_misses":12,"achieved_gbs":25.6}},
{"name":"host phase","cat":"host","ph":"X","ts":2500,"dur":null,"pid":0,"tid":3,"args":{}},
{"name":"stream flush","cat":"stream","ph":"i","s":"t","ts":3000,"pid":0,"tid":1,"args":{"recorded":10,"executed":7,"fused_scaled_add":1,"fused_cmp_select":2,"dead_writes_eliminated":3}},
{"name":"interconnect scatter","cat":"interconnect","ph":"i","s":"t","ts":3000,"pid":0,"tid":2,"args":{"bytes":1024,"shards":4,"time_ms":0.0625,"energy_mj":0.0000001}},
{"name":"free #3","cat":"lifecycle","ph":"i","s":"t","ts":3500,"pid":0,"tid":1,"args":{}},
{"name":"trace events dropped","cat":"lifecycle","ph":"i","s":"p","ts":0,"pid":0,"tid":1,"args":{"dropped":5,"capacity":16}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"second"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"pim commands"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"data movement"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"host"}},
{"name":"device created","cat":"lifecycle","ph":"i","s":"p","ts":0,"pid":1,"tid":1,"args":{"target":"Fulcrum","cores":8,"ranks":2}},
{"name":"alloc #3","cat":"lifecycle","ph":"i","s":"t","ts":0,"pid":1,"tid":1,"args":{"count":257,"dtype":"int32","cores_used":4,"rows_per_core":32}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"metrics"}},
{"name":"shard busy","ph":"C","ts":0,"pid":2,"tid":0,"args":{"shard0":0,"shard1":0}},
{"name":"interconnect bytes","ph":"C","ts":0,"pid":2,"tid":0,"args":{"bytes":0}},
{"name":"shard busy","ph":"C","ts":500,"pid":2,"tid":0,"args":{"shard0":0.75,"shard1":null}},
{"name":"interconnect bytes","ph":"C","ts":500,"pid":2,"tid":0,"args":{"bytes":4096}}
]}
"##;

    /// The bytes `write` appends to `out`'s buffer.
    fn piece(out: &mut Out, write: impl FnOnce(&mut Out)) -> String {
        let start = out.text.len();
        write(out);
        String::from_utf8(out.text[start..].to_vec()).unwrap()
    }

    /// A generated `f64`: any bit pattern, a subnormal, an integer, a
    /// trace-like microsecond value, or one of the edge cases.
    fn generated_f64(rng: &mut crate::SplitMix64) -> f64 {
        const EDGES: [f64; 14] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1e-7,
            1e16,
            1.5e17,
            -9007199254740993.0,
            1.0 / 3.0,
            0.1 + 0.2,
        ];
        let sign = if rng.next() & 1 == 0 { 1.0 } else { -1.0 };
        match rng.next() % 6 {
            0 => f64::from_bits(rng.next()),
            1 => sign * f64::from_bits(rng.next() & ((1 << 52) - 1)),
            2 => sign * (rng.next() >> (rng.next() % 64)) as f64,
            3 => (rng.next() % 100_000_000) as f64 * 1e-6 * 1000.0,
            4 => sign * (rng.next() % 1000) as f64 * 10f64.powi((rng.next() % 40) as i32 - 20),
            _ => EDGES[(rng.next() % EDGES.len() as u64) as usize],
        }
    }

    #[test]
    fn memoized_numbers_match_json_num() {
        let mut rng = crate::SplitMix64(0x5EED);
        let mut out = Out::new();
        let mut seen = Vec::new();
        for _ in 0..50_000 {
            // Replay an earlier value half the time, so hits are common.
            let v = if !seen.is_empty() && rng.next() & 1 == 0 {
                seen[(rng.next() % seen.len() as u64) as usize]
            } else {
                generated_f64(&mut rng)
            };
            seen.push(v);
            assert_eq!(piece(&mut out, |o| _ = o.num(v)), json::num(v), "{v:?}");
        }
    }

    #[test]
    fn memo_slot_collisions_replace_and_replay_exactly() {
        // Values sharing one slot evict each other; each must still read
        // as its own text, whether it is a hit or a miss. One rival
        // differs from `v` only in its lowest mantissa bits.
        let mut rng = crate::SplitMix64(0xC011);
        let mut out = Out::new();
        for _ in 0..200 {
            let v = generated_f64(&mut rng);
            let slot = memo_slot(v.to_bits());
            let near = (1..)
                .map(|k| f64::from_bits(v.to_bits() ^ k))
                .find(|w| memo_slot(w.to_bits()) == slot)
                .unwrap();
            let mut rivals = vec![v, near];
            while rivals.len() < 4 {
                let w = generated_f64(&mut rng);
                if memo_slot(w.to_bits()) == slot && w.to_bits() != v.to_bits() {
                    rivals.push(w);
                }
            }
            for _ in 0..3 {
                for &x in &rivals {
                    for _ in 0..2 {
                        assert_eq!(piece(&mut out, |o| _ = o.num(x)), json::num(x), "{x:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn strings_match_the_quoted_escaper() {
        const ALPHABET: [char; 16] = [
            'a', 'Z', '7', ' ', '#', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
            '€', '😀',
        ];
        let mut rng = crate::SplitMix64(0x57A7);
        let mut out = Out::new();
        for _ in 0..20_000 {
            let len = rng.next() % 12;
            // Half the strings draw from the plain letters only, so the
            // no-escape path runs as often as the fallback.
            let pool = if rng.next() & 1 == 0 {
                5
            } else {
                ALPHABET.len()
            };
            let s: String = (0..len)
                .map(|_| ALPHABET[(rng.next() % pool as u64) as usize])
                .collect();
            assert_eq!(
                piece(&mut out, |o| _ = o.string(&s)),
                json::string(&s),
                "{s:?}"
            );
        }
    }

    #[test]
    fn integers_match_display() {
        let mut rng = crate::SplitMix64(0x1);
        let mut out = Out::new();
        for v in [0, 1, 9, 10, 99, 100, u64::MAX, u64::MAX / 10]
            .into_iter()
            .chain((0..10_000).map(|_| rng.next() >> (rng.next() % 64)))
        {
            assert_eq!(piece(&mut out, |o| _ = o.uint(v)), v.to_string());
        }
    }

    #[test]
    fn counter_tracks_render_per_bin_series() {
        use crate::metrics::{MetricsRegistry, DEFAULT_PROFILE_BINS};
        let mut r = MetricsRegistry::new(2, true);
        r.record_cmd("add.int32", "add", 4.0, 0.1);
        r.record_shard_busy(0, 0.0, 4.0, 3.0);
        r.record_shard_busy(1, 0.0, 4.0, 1.0);
        r.record_interconnect(InterconnectKind::Scatter, 4.0, 256, 0.05, 0.001);
        let snap = r.snapshot(4.0);
        let mut b = ChromeTraceBuilder::new();
        b.add_counter_tracks("metrics", &snap);
        let doc = Json::parse(&b.finish()).unwrap();
        let entries = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process_name + 2 counters per bin.
        assert_eq!(entries.len(), 1 + 2 * DEFAULT_PROFILE_BINS);
        let busy = entries
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("shard busy"))
            .unwrap();
        assert_eq!(busy.get("ph").unwrap().as_str(), Some("C"));
        assert!(busy.get("args").unwrap().get("shard0").is_some());
        assert!(busy.get("args").unwrap().get("shard1").is_some());
    }
}
