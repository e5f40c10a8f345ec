//! Chrome-trace-event exporter: renders [`TraceEvent`]s as the JSON
//! object format understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`.
//!
//! Layout: each traced run becomes one *process* (pid); inside it,
//! commands, data movement, and host phases render on three named
//! *threads* so the lanes stay visually separate. Command and copy spans
//! are complete events (`ph: "X"`) with microsecond `ts`/`dur` on the
//! simulated clock; lifecycle events are instants (`ph: "i"`).

use std::fmt::{self, Write as _};
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

/// Accumulates events from one or more runs into a single trace file.
/// Every entry is rendered straight into one buffer as it is added.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    /// The rendered entries, separated by `",\n"`.
    out: String,
    entries: usize,
    next_pid: u32,
}

impl ChromeTraceBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ChromeTraceBuilder::default()
    }

    /// Appends one entry, rendered by `write`, after the separator.
    fn entry(&mut self, write: impl FnOnce(&mut String) -> fmt::Result) {
        if self.entries > 0 {
            self.out.push_str(",\n");
        }
        self.entries += 1;
        write(&mut self.out).expect("writing to a String cannot fail");
    }

    /// Starts a new process named `label` and returns its pid.
    fn process(&mut self, label: &str) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.entry(|o| {
            write!(
                o,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                Quoted(label)
            )
        });
        pid
    }

    /// Adds one run's events as a new process named `label`.
    pub fn add_run(&mut self, label: &str, events: &[TraceEvent]) {
        let pid = self.process(label);
        for (tid, name) in [
            (TID_CMDS, "pim commands"),
            (TID_COPY, "data movement"),
            (TID_HOST, "host"),
        ] {
            self.entry(|o| {
                write!(
                    o,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":{}}}}}",
                    Quoted(name)
                )
            });
        }
        for event in events {
            self.entry(|o| render(o, pid, event));
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
            let ts = us(bin as f64 * profile.bin_ms);
            self.entry(|o| {
                write!(
                    o,
                    "{{\"name\":\"shard busy\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\
                     \"args\":{{"
                )?;
                for (shard, bins) in profile.shard_busy.iter().enumerate() {
                    let sep = if shard > 0 { "," } else { "" };
                    write!(o, "{sep}\"shard{shard}\":{}", Num(bins[bin]))?;
                }
                o.write_str("}}")
            });
            self.entry(|o| {
                write!(
                    o,
                    "{{\"name\":\"interconnect bytes\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\
                     \"tid\":0,\"args\":{{\"bytes\":{}}}}}",
                    profile.interconnect_bytes[bin]
                )
            });
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

    /// Renders the complete trace document.
    pub fn finish(&self) -> String {
        let mut doc = String::with_capacity(HEAD.len() + self.out.len() + TAIL.len());
        doc.push_str(HEAD);
        doc.push_str(&self.out);
        doc.push_str(TAIL);
        doc
    }

    /// Writes the trace document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(HEAD.as_bytes())?;
        f.write_all(self.out.as_bytes())?;
        f.write_all(TAIL.as_bytes())
    }
}

/// Renders a single run as a complete Chrome trace document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut b = ChromeTraceBuilder::new();
    b.add_run("pim simulation", events);
    b.finish()
}

/// Simulated-clock milliseconds → trace microseconds.
fn us(ms: f64) -> Num {
    Num(ms * 1000.0)
}

fn render(o: &mut String, pid: u32, event: &TraceEvent) -> fmt::Result {
    match event {
        TraceEvent::DeviceCreated {
            at_ms,
            target,
            cores,
            ranks,
        } => write!(
            o,
            "{{\"name\":\"device created\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"p\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{TID_CMDS},\
             \"args\":{{\"target\":{},\"cores\":{cores},\"ranks\":{ranks}}}}}",
            us(*at_ms),
            Quoted(target.name())
        ),
        TraceEvent::Alloc {
            at_ms,
            id,
            count,
            dtype,
            cores_used,
            rows_per_core,
        } => write!(
            o,
            "{{\"name\":\"alloc #{id}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{TID_CMDS},\
             \"args\":{{\"count\":{count},\"dtype\":{},\"cores_used\":{cores_used},\
             \"rows_per_core\":{rows_per_core}}}}}",
            us(*at_ms),
            Quoted(dtype.short_name())
        ),
        TraceEvent::Free { at_ms, id } => write!(
            o,
            "{{\"name\":\"free #{id}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{TID_CMDS},\"args\":{{}}}}",
            us(*at_ms)
        ),
        TraceEvent::Cmd {
            name,
            category,
            start_ms,
            time_ms,
            energy_mj,
            cores_used,
            micro,
        } => {
            write!(
                o,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{TID_CMDS},\
                 \"args\":{{\"energy_mj\":{},\"cores_used\":{cores_used}",
                Quoted(name),
                Quoted(category),
                us(*start_ms),
                us(*time_ms),
                Num(*energy_mj)
            )?;
            if let Some(m) = micro {
                write!(
                    o,
                    ",\"row_reads\":{},\"row_writes\":{},\"logic_ops\":{},\
                     \"popcount_reads\":{},\"aap_ops\":{},\"tra_ops\":{}",
                    m.row_reads, m.row_writes, m.logic_ops, m.popcount_reads, m.aap_ops, m.tra_ops
                )?;
            }
            o.write_str("}}")
        }
        TraceEvent::Copy {
            direction,
            bytes,
            start_ms,
            time_ms,
            energy_mj,
            protocol,
        } => {
            write!(
                o,
                "{{\"name\":{},\"cat\":\"copy\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{TID_COPY},\
                 \"args\":{{\"bytes\":{bytes},\"energy_mj\":{}",
                Quoted(direction.label()),
                us(*start_ms),
                us(*time_ms),
                Num(*energy_mj)
            )?;
            if let Some(p) = protocol {
                let c = &p.counters;
                write!(
                    o,
                    ",\"activations\":{},\"reads\":{},\"writes\":{},\"precharges\":{},\
                     \"row_hits\":{},\"row_misses\":{},\"achieved_gbs\":{}",
                    c.activations,
                    c.reads,
                    c.writes,
                    c.precharges,
                    c.row_hits,
                    c.row_misses,
                    Num(p.achieved_gbs)
                )?;
            }
            o.write_str("}}")
        }
        TraceEvent::HostPhase { start_ms, time_ms } => write!(
            o,
            "{{\"name\":\"host phase\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{pid},\"tid\":{TID_HOST},\"args\":{{}}}}",
            us(*start_ms),
            us(*time_ms)
        ),
        TraceEvent::StreamFlush {
            at_ms,
            recorded,
            executed,
            fused_scaled_add,
            fused_cmp_select,
            dead_writes_eliminated,
        } => write!(
            o,
            "{{\"name\":\"stream flush\",\"cat\":\"stream\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{TID_CMDS},\
             \"args\":{{\"recorded\":{recorded},\"executed\":{executed},\
             \"fused_scaled_add\":{fused_scaled_add},\"fused_cmp_select\":{fused_cmp_select},\
             \"dead_writes_eliminated\":{dead_writes_eliminated}}}}}",
            us(*at_ms)
        ),
        TraceEvent::Interconnect {
            kind,
            bytes,
            shards,
            at_ms,
            time_ms,
            energy_mj,
        } => write!(
            o,
            "{{\"name\":\"interconnect {}\",\"cat\":\"interconnect\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{TID_COPY},\
             \"args\":{{\"bytes\":{bytes},\"shards\":{shards},\"time_ms\":{},\"energy_mj\":{}}}}}",
            kind.label(),
            us(*at_ms),
            Num(*time_ms),
            Num(*energy_mj)
        ),
        TraceEvent::Dropped {
            at_ms,
            dropped,
            capacity,
        } => write!(
            o,
            "{{\"name\":\"trace events dropped\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"p\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{TID_CMDS},\
             \"args\":{{\"dropped\":{dropped},\"capacity\":{capacity}}}}}",
            us(*at_ms)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::super::json::Json;
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
