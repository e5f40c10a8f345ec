//! Chrome-trace-event exporter: renders [`TraceEvent`]s as the JSON
//! object format understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`.
//!
//! Layout: each traced run becomes one *process* (pid); inside it,
//! commands, data movement, and host phases render on three named
//! *threads* so the lanes stay visually separate. Command and copy spans
//! are complete events (`ph: "X"`) with microsecond `ts`/`dur` on the
//! simulated clock; lifecycle events are instants (`ph: "i"`).

use std::io::Write as _;
use std::path::Path;

use super::json::{num, string};
use super::TraceEvent;
use crate::metrics::MetricsSnapshot;

/// Thread id used for PIM command spans.
const TID_CMDS: u32 = 1;
/// Thread id used for copy spans.
const TID_COPY: u32 = 2;
/// Thread id used for host phases.
const TID_HOST: u32 = 3;

/// Accumulates events from one or more runs into a single trace file.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    entries: Vec<String>,
    next_pid: u32,
}

impl ChromeTraceBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ChromeTraceBuilder::default()
    }

    /// Adds one run's events as a new process named `label`.
    pub fn add_run(&mut self, label: &str, events: &[TraceEvent]) {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.entries.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            string(label)
        ));
        for (tid, name) in [
            (TID_CMDS, "pim commands"),
            (TID_COPY, "data movement"),
            (TID_HOST, "host"),
        ] {
            self.entries.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                string(name)
            ));
        }
        for event in events {
            self.entries.push(render(pid, event));
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
        let pid = self.next_pid;
        self.next_pid += 1;
        self.entries.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            string(label)
        ));
        for bin in 0..profile.bins {
            let ts = us(bin as f64 * profile.bin_ms);
            let series: Vec<String> = profile
                .shard_busy
                .iter()
                .enumerate()
                .map(|(shard, bins)| format!("\"shard{shard}\":{}", num(bins[bin])))
                .collect();
            self.entries.push(format!(
                "{{\"name\":\"shard busy\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\
                 \"args\":{{{}}}}}",
                series.join(",")
            ));
            self.entries.push(format!(
                "{{\"name\":\"interconnect bytes\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\
                 \"tid\":0,\"args\":{{\"bytes\":{}}}}}",
                profile.interconnect_bytes[bin]
            ));
        }
    }

    /// Number of trace entries accumulated so far (incl. metadata).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no runs were added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the complete trace document.
    pub fn finish(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&self.entries.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// Writes the trace document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.finish().as_bytes())
    }
}

/// Renders a single run as a complete Chrome trace document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut b = ChromeTraceBuilder::new();
    b.add_run("pim simulation", events);
    b.finish()
}

/// Simulated-clock milliseconds → trace microseconds.
fn us(ms: f64) -> String {
    num(ms * 1000.0)
}

fn render(pid: u32, event: &TraceEvent) -> String {
    match event {
        TraceEvent::DeviceCreated {
            at_ms,
            target,
            cores,
            ranks,
        } => format!(
            "{{\"name\":\"device created\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"p\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{TID_CMDS},\
             \"args\":{{\"target\":{},\"cores\":{cores},\"ranks\":{ranks}}}}}",
            us(*at_ms),
            string(target)
        ),
        TraceEvent::Alloc {
            at_ms,
            id,
            count,
            dtype,
            cores_used,
            rows_per_core,
        } => format!(
            "{{\"name\":\"alloc #{id}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{TID_CMDS},\
             \"args\":{{\"count\":{count},\"dtype\":{},\"cores_used\":{cores_used},\
             \"rows_per_core\":{rows_per_core}}}}}",
            us(*at_ms),
            string(dtype)
        ),
        TraceEvent::Free { at_ms, id } => format!(
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
            let mut args = format!(
                "\"energy_mj\":{},\"cores_used\":{cores_used}",
                num(*energy_mj)
            );
            if let Some(m) = micro {
                args.push_str(&format!(
                    ",\"row_reads\":{},\"row_writes\":{},\"logic_ops\":{},\
                     \"popcount_reads\":{},\"aap_ops\":{},\"tra_ops\":{}",
                    m.row_reads, m.row_writes, m.logic_ops, m.popcount_reads, m.aap_ops, m.tra_ops
                ));
            }
            format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{TID_CMDS},\"args\":{{{args}}}}}",
                string(name),
                string(category),
                us(*start_ms),
                us(*time_ms)
            )
        }
        TraceEvent::Copy {
            direction,
            bytes,
            start_ms,
            time_ms,
            energy_mj,
            protocol,
        } => {
            let mut args = format!("\"bytes\":{bytes},\"energy_mj\":{}", num(*energy_mj));
            if let Some(p) = protocol {
                args.push_str(&format!(
                    ",\"activations\":{},\"reads\":{},\"writes\":{},\"precharges\":{},\
                     \"row_hits\":{},\"row_misses\":{},\"achieved_gbs\":{}",
                    p.activations,
                    p.reads,
                    p.writes,
                    p.precharges,
                    p.row_hits,
                    p.row_misses,
                    num(p.achieved_gbs)
                ));
            }
            format!(
                "{{\"name\":{},\"cat\":\"copy\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{TID_COPY},\"args\":{{{args}}}}}",
                string(direction.label()),
                us(*start_ms),
                us(*time_ms)
            )
        }
        TraceEvent::HostPhase { start_ms, time_ms } => format!(
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
            batched_sweeps,
        } => format!(
            "{{\"name\":\"stream flush\",\"cat\":\"stream\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{TID_CMDS},\
             \"args\":{{\"recorded\":{recorded},\"executed\":{executed},\
             \"fused_scaled_add\":{fused_scaled_add},\"fused_cmp_select\":{fused_cmp_select},\
             \"dead_writes_eliminated\":{dead_writes_eliminated},\
             \"batched_sweeps\":{batched_sweeps}}}}}",
            us(*at_ms)
        ),
        TraceEvent::Interconnect {
            kind,
            bytes,
            shards,
            at_ms,
            time_ms,
            energy_mj,
        } => format!(
            "{{\"name\":\"interconnect {kind}\",\"cat\":\"interconnect\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{TID_COPY},\
             \"args\":{{\"bytes\":{bytes},\"shards\":{shards},\"time_ms\":{},\"energy_mj\":{}}}}}",
            us(*at_ms),
            num(*time_ms),
            num(*energy_mj)
        ),
        TraceEvent::Dropped {
            at_ms,
            dropped,
            capacity,
        } => format!(
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
    use super::super::CopyDirection;
    use super::*;

    #[test]
    fn trace_document_parses_and_has_required_fields() {
        let events = vec![
            TraceEvent::DeviceCreated {
                at_ms: 0.0,
                target: "Fulcrum".into(),
                cores: 8,
                ranks: 2,
            },
            TraceEvent::Cmd {
                name: "add.int32".into(),
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

    #[test]
    fn counter_tracks_render_per_bin_series() {
        use crate::metrics::{MetricsRegistry, DEFAULT_PROFILE_BINS};
        let mut r = MetricsRegistry::new(2, true);
        r.record_cmd("add.int32", "add", 4.0, 0.1);
        r.record_shard_busy(0, 0.0, 4.0, 3.0);
        r.record_shard_busy(1, 0.0, 4.0, 1.0);
        r.record_interconnect("scatter", 4.0, 256, 0.05, 0.001);
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
