//! Hand-rolled JSON support: a writer for machine-readable stats export
//! and a small recursive-descent parser used by the golden tests (and by
//! anyone post-processing exported files without external crates).
//!
//! The writer emits numbers via Rust's shortest-round-trip `Display`
//! for `f64`, which is always valid JSON (no exponent form, exact
//! parse-back); non-finite values degrade to `null`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::config::DeviceConfig;
use crate::metrics::MetricsSnapshot;
use crate::stats::SimStats;

/// Version stamp of the stats-JSON layout. Bumped on any
/// field-removing or field-renaming change; purely additive fields do
/// not bump it (consumers must tolerate unknown keys).
pub const STATS_SCHEMA_VERSION: u32 = 3;

// ---------------------------------------------------------------------
// Writer helpers
// ---------------------------------------------------------------------

/// Renders a quoted JSON string.
pub fn string(s: &str) -> String {
    Quoted(s).to_string()
}

/// Renders an `f64` as a JSON number (`null` for NaN/infinity).
/// Negative zero collapses to `0`: `-0` is valid JSON but diff-based
/// consumers treat it as a spurious change from `0`.
pub fn num(v: f64) -> String {
    Num(v).to_string()
}

/// [`string`] as a `Display` value, for writing into a buffer.
pub(crate) struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// [`num`] as a `Display` value, for writing into a buffer.
pub(crate) struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v == 0.0 {
            f.write_str("0")
        } else if v.is_finite() {
            write!(f, "{v}")
        } else {
            f.write_str("null")
        }
    }
}

// ---------------------------------------------------------------------
// Stats rendering
// ---------------------------------------------------------------------

/// Renders a [`SimStats`] as a JSON object mirroring the Listing-3 text
/// report: device parameters, copy statistics, the per-command table,
/// category counts, and the derived totals.
pub fn stats_to_json(stats: &SimStats, config: &DeviceConfig) -> String {
    stats_to_json_full(stats, config, None, 0)
}

/// [`stats_to_json`] plus the observability extensions: a `"metrics"`
/// section (when a [`MetricsSnapshot`] is supplied) and a `"trace"`
/// section carrying the ring-buffer recorder's dropped-event count
/// (when non-zero). Both sections are additive — consumers of the base
/// schema keep parsing unchanged.
pub fn stats_to_json_full(
    stats: &SimStats,
    config: &DeviceConfig,
    metrics: Option<&MetricsSnapshot>,
    trace_dropped: u64,
) -> String {
    use std::fmt::Write as _;
    let g = &config.geometry;
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {STATS_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"target\": {},", string(&config.target.to_string()));
    let _ = writeln!(
        out,
        "  \"geometry\": {{\"ranks\": {}, \"banks_per_rank\": {}, \"subarrays_per_bank\": {}, \
         \"rows_per_subarray\": {}, \"cols_per_row\": {}}},",
        g.ranks, g.banks_per_rank, g.subarrays_per_bank, g.rows_per_subarray, g.cols_per_row
    );
    let _ = writeln!(
        out,
        "  \"cores\": {{\"count\": {}, \"rows_per_core\": {}, \"cols_per_core\": {}}},",
        config.core_count(),
        config.rows_per_core(),
        config.cols_per_core()
    );
    let _ = writeln!(
        out,
        "  \"copy\": {{\"host_to_device_bytes\": {}, \"device_to_host_bytes\": {}, \
         \"device_to_device_bytes\": {}, \"time_ms\": {}, \"energy_mj\": {}}},",
        stats.copy.host_to_device_bytes,
        stats.copy.device_to_host_bytes,
        stats.copy.device_to_device_bytes,
        num(stats.copy.time_ms),
        num(stats.copy.energy_mj)
    );
    out.push_str("  \"cmds\": {");
    for (i, (name, c)) in stats.cmds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"time_ms\": {}, \"energy_mj\": {}}}",
            string(name),
            c.count,
            num(c.time_ms),
            num(c.energy_mj)
        );
    }
    out.push_str(if stats.cmds.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"categories\": {");
    for (i, (cat, n)) in stats.categories.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", string(cat.label()), n);
    }
    out.push_str("},\n");
    let _ = writeln!(out, "  \"host_time_ms\": {},", num(stats.host_time_ms));
    let _ = writeln!(out, "  \"max_cores_used\": {},", stats.max_cores_used);
    let f = &stats.fusion;
    let _ = writeln!(
        out,
        "  \"fusion\": {{\"flushes\": {}, \"recorded_commands\": {}, \
         \"executed_commands\": {}, \"fused_scaled_add\": {}, \"fused_cmp_select\": {}, \
         \"dead_writes_eliminated\": {}, \"batched_sweeps\": {}, \"batched_commands\": {}}},",
        f.flushes,
        f.recorded_commands,
        f.executed_commands,
        f.fused_scaled_add,
        f.fused_cmp_select,
        f.dead_writes_eliminated,
        f.batched_sweeps,
        f.batched_commands
    );
    // Only streams populate the optimizer counters; the section is
    // omitted when they are all zero so eager-only goldens stay
    // byte-identical.
    let opt = &stats.optimizer;
    if !opt.is_empty() {
        let _ = writeln!(out, "  \"optimizer\": {{\"cse_hits\": {}}},", opt.cse_hits);
    }
    let r = &stats.resources;
    out.push_str("  \"resources\": {");
    let _ = write!(
        out,
        "\"rows_in_use\": {}, \"peak_rows\": {}, \"rows_capacity\": {}, \
         \"live_objects\": {}, \"shards\": {}, \"per_shard\": [",
        r.rows_in_use, r.peak_rows, r.rows_capacity, r.live_objects, r.shards
    );
    for (i, s) in r.per_shard.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"rows_in_use\": {}, \"peak_rows\": {}, \"rows_capacity\": {}, \
             \"live_objects\": {}}}",
            s.rows_in_use, s.peak_rows, s.rows_capacity, s.live_objects
        );
    }
    out.push_str("]},\n");
    let ic = &stats.interconnect;
    let _ = writeln!(
        out,
        "  \"interconnect\": {{\"scatter_bytes\": {}, \"gather_bytes\": {}, \
         \"realign_bytes\": {}, \"combine_bytes\": {}, \"transfers\": {}, \
         \"time_ms\": {}, \"energy_mj\": {}}},",
        ic.scatter_bytes,
        ic.gather_bytes,
        ic.realign_bytes,
        ic.combine_bytes,
        ic.transfers,
        num(ic.time_ms),
        num(ic.energy_mj)
    );
    // DRAM protocol counters are populated only by the stateful bank-FSM
    // timing backend; the section is omitted entirely under the default
    // analytical backend so existing goldens stay byte-identical.
    let dp = &stats.dram_protocol;
    if !dp.is_empty() {
        let _ = writeln!(
            out,
            "  \"dram_protocol\": {{\"activations\": {}, \"precharges\": {}, \
             \"reads\": {}, \"writes\": {}, \"row_hits\": {}, \"row_misses\": {}, \
             \"row_hit_rate\": {}}},",
            dp.activations,
            dp.precharges,
            dp.reads,
            dp.writes,
            dp.row_hits,
            dp.row_misses,
            num(dp.hit_rate())
        );
    }
    if trace_dropped > 0 {
        let _ = writeln!(out, "  \"trace\": {{\"dropped_events\": {trace_dropped}}},");
    }
    if let Some(m) = metrics {
        let _ = writeln!(out, "  \"metrics\": {},", m.to_json());
    }
    let _ = writeln!(
        out,
        "  \"totals\": {{\"total_ops\": {}, \"kernel_time_ms\": {}, \"kernel_energy_mj\": {}, \
         \"total_time_ms\": {}, \"total_energy_mj\": {}}}",
        stats.total_ops(),
        num(stats.kernel_time_ms()),
        num(stats.kernel_energy_mj()),
        num(stats.total_time_ms()),
        num(stats.total_energy_mj(config))
    );
    out.push('}');
    out
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (kept as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order not preserved).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (rejects trailing garbage).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            out.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, which never occurs inside a multi-byte
                    // UTF-8 sequence, so the run of the input `&str` is
                    // itself valid UTF-8.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_collapses_negative_zero_and_nonfinite() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(-0.0), "0");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(-2.0), "-2");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".into())
        );
        // Multi-byte scalars next to escapes and at both ends.
        let text = "µs → \"Bit-Serial\"\t✓";
        assert_eq!(Json::parse(&string(text)).unwrap(), Json::Str(text.into()));
        assert_eq!(Json::parse("\"é\"").unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}, null], "c": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert!(v.get("c").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn writer_escapes_and_numbers() {
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\n\"");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        // Shortest-round-trip display parses back exactly.
        let x = 0.1 + 0.2;
        assert_eq!(Json::parse(&num(x)).unwrap().as_f64(), Some(x));
    }
}
