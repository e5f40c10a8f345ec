//! Hand-rolled JSON support: one streaming writer for every exported
//! document except Chrome traces (`trace::chrome` keeps its own) and a
//! small recursive-descent parser used by the golden tests (and by
//! anyone post-processing exported files without external crates).
//!
//! [`JsonWriter`] appends a document to one buffer in the order its
//! members are written. Each member is one call that names its key next
//! to its value; numbers and strings go straight into the buffer through
//! the `Num` and `Quoted` forms. Numbers use Rust's shortest-round-trip
//! `Display` for `f64`, which is always valid JSON (no exponent form,
//! exact parse-back); non-finite values degrade to `null`.
//!
//! One layout rule covers every document: for the outer `depth` levels
//! each member goes on its own line, indented two spaces per level;
//! below that depth members go inline, separated by `", "`, with `": "`
//! after each key. Empty containers print as `{}` and `[]`. Each
//! document root passes its own `depth`.
//!
//! [`string`] and [`num`] render one value to a `String`; they remain
//! for the `e2e/` benchmark package, which renders its own reports.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::config::DeviceConfig;
use crate::metrics::MetricsSnapshot;
use crate::stats::SimStats;

/// Version stamp of the stats-JSON layout. Bumped on any
/// field-removing or field-renaming change; purely additive fields do
/// not bump it (consumers must tolerate unknown keys).
pub const STATS_SCHEMA_VERSION: u32 = 4;

// ---------------------------------------------------------------------
// Writer
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

/// A value [`JsonWriter`] writes as one token: an integer, an `f64` (as
/// [`num`] renders it), or a string (as [`string`] renders it).
pub trait Scalar {
    /// Appends the token to `out`.
    fn write_to(self, out: &mut String);
}

macro_rules! integer_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integer_scalar!(u32, u64, u128, usize);

impl Scalar for f64 {
    fn write_to(self, out: &mut String) {
        let _ = write!(out, "{}", Num(self));
    }
}

impl<S: AsRef<str> + ?Sized> Scalar for &S {
    fn write_to(self, out: &mut String) {
        let _ = write!(out, "{}", Quoted(self.as_ref()));
    }
}

/// Streams one JSON document into a buffer, members in the order they
/// are written, laid out by the module's one rule at the `depth` its
/// root passes to [`JsonWriter::new`]. [`JsonWriter::obj`] and its
/// siblings open a container; [`JsonWriter::end`] closes the innermost.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    depth: usize,
    /// The closing bracket of each open container, innermost last.
    closers: String,
    /// True until the innermost open container has a member.
    first: bool,
}

impl JsonWriter {
    /// Starts a document by opening its root object.
    pub fn new(depth: usize) -> Self {
        let mut w = JsonWriter {
            out: String::with_capacity(1024),
            depth,
            closers: String::new(),
            first: true,
        };
        w.begin('{', '}');
        w
    }

    /// Closes the root object and returns the document, without a
    /// trailing newline.
    pub fn finish(mut self) -> String {
        self.end();
        assert!(self.closers.is_empty(), "a JSON container was left open");
        self.out
    }

    /// A member whose value is one token.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.key(key);
        value.write_to(&mut self.out);
        self
    }

    /// Opens an object as member `key`.
    pub fn obj(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.begin('{', '}')
    }

    /// Opens an array as member `key`.
    pub fn arr(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.begin('[', ']')
    }

    /// An array element that is one token.
    pub fn item(&mut self, value: impl Scalar) -> &mut Self {
        self.member();
        value.write_to(&mut self.out);
        self
    }

    /// Opens an object as the next array element.
    pub fn item_obj(&mut self) -> &mut Self {
        self.member();
        self.begin('{', '}')
    }

    /// Opens an array as the next array element.
    pub fn item_arr(&mut self) -> &mut Self {
        self.member();
        self.begin('[', ']')
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        let close = self.closers.pop().expect("no JSON container is open");
        if !self.first && self.closers.len() < self.depth {
            self.line(self.closers.len());
        }
        self.first = false;
        self.out.push(close);
        self
    }

    fn key(&mut self, key: &str) {
        self.member();
        key.write_to(&mut self.out);
        self.out.push_str(": ");
    }

    /// The separator before a member of the innermost open container:
    /// a new line while that container is one of the outer `depth`
    /// levels, `", "` below them.
    fn member(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        if self.closers.len() <= self.depth {
            self.line(self.closers.len());
        } else if !self.first {
            self.out.push(' ');
        }
        self.first = false;
    }

    fn begin(&mut self, open: char, close: char) -> &mut Self {
        self.out.push(open);
        self.closers.push(close);
        self.first = true;
        self
    }

    fn line(&mut self, indent: usize) {
        self.out.push('\n');
        for _ in 0..indent {
            self.out.push_str("  ");
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
/// schema keep parsing unchanged. The document's depth is 1: one line
/// per section.
pub fn stats_to_json_full(
    stats: &SimStats,
    config: &DeviceConfig,
    metrics: Option<&MetricsSnapshot>,
    trace_dropped: u64,
) -> String {
    let mut w = JsonWriter::new(1);
    stats_fields(&mut w, stats, config, metrics, trace_dropped);
    w.finish()
}

/// Writes the members of [`stats_to_json_full`]'s object into the open
/// object of `w`, for documents that embed a run's statistics.
pub fn stats_fields(
    w: &mut JsonWriter,
    stats: &SimStats,
    config: &DeviceConfig,
    metrics: Option<&MetricsSnapshot>,
    trace_dropped: u64,
) {
    let g = &config.geometry;
    w.field("schema_version", STATS_SCHEMA_VERSION)
        .field("target", config.target.name());
    w.obj("geometry")
        .field("ranks", g.ranks)
        .field("banks_per_rank", g.banks_per_rank)
        .field("subarrays_per_bank", g.subarrays_per_bank)
        .field("rows_per_subarray", g.rows_per_subarray)
        .field("cols_per_row", g.cols_per_row)
        .end();
    w.obj("cores")
        .field("count", config.core_count())
        .field("rows_per_core", config.rows_per_core())
        .field("cols_per_core", config.cols_per_core())
        .end();
    let c = &stats.copy;
    w.obj("copy")
        .field("host_to_device_bytes", c.host_to_device_bytes)
        .field("device_to_host_bytes", c.device_to_host_bytes)
        .field("device_to_device_bytes", c.device_to_device_bytes)
        .field("time_ms", c.time_ms)
        .field("energy_mj", c.energy_mj)
        .end();
    w.obj("cmds");
    for (name, c) in &stats.cmds {
        w.obj(name)
            .field("count", c.count)
            .field("time_ms", c.time_ms)
            .field("energy_mj", c.energy_mj)
            .end();
    }
    w.end().obj("categories");
    for (cat, &n) in &stats.categories {
        w.field(cat.label(), n);
    }
    w.end()
        .field("host_time_ms", stats.host_time_ms)
        .field("max_cores_used", stats.max_cores_used);
    let f = &stats.fusion;
    w.obj("fusion")
        .field("flushes", f.flushes)
        .field("recorded_commands", f.recorded_commands)
        .field("executed_commands", f.executed_commands)
        .field("fused_scaled_add", f.fused_scaled_add)
        .field("fused_cmp_select", f.fused_cmp_select)
        .field("dead_writes_eliminated", f.dead_writes_eliminated)
        .field("batched_sweeps", f.batched_sweeps)
        .field("batched_commands", f.batched_commands)
        .end();
    // Only streams populate the optimizer counters; the section is
    // omitted when they are all zero so eager-only goldens stay
    // byte-identical.
    if !stats.optimizer.is_empty() {
        w.obj("optimizer")
            .field("cse_hits", stats.optimizer.cse_hits)
            .end();
    }
    let r = &stats.resources;
    w.obj("resources")
        .field("rows_in_use", r.rows_in_use)
        .field("peak_rows", r.peak_rows)
        .field("rows_capacity", r.rows_capacity)
        .field("live_objects", r.live_objects)
        .field("shards", r.shards)
        .end();
    let ic = &stats.interconnect;
    w.obj("interconnect")
        .field("scatter_bytes", ic.scatter_bytes)
        .field("gather_bytes", ic.gather_bytes)
        .field("realign_bytes", ic.realign_bytes)
        .field("combine_bytes", ic.combine_bytes)
        .field("transfers", ic.transfers)
        .field("time_ms", ic.time_ms)
        .field("energy_mj", ic.energy_mj)
        .end();
    // DRAM protocol counters are populated only by the stateful bank-FSM
    // timing backend; the section is omitted entirely under the default
    // analytical backend so existing goldens stay byte-identical.
    let dp = &stats.dram_protocol;
    if !dp.is_empty() {
        w.obj("dram_protocol")
            .field("activations", dp.activations)
            .field("precharges", dp.precharges)
            .field("reads", dp.reads)
            .field("writes", dp.writes)
            .field("row_hits", dp.row_hits)
            .field("row_misses", dp.row_misses)
            .field("row_hit_rate", dp.hit_rate())
            .end();
    }
    if trace_dropped > 0 {
        w.obj("trace").field("dropped_events", trace_dropped).end();
    }
    if let Some(m) = metrics {
        m.json_fields(w.obj("metrics"));
        w.end();
    }
    w.obj("totals")
        .field("total_ops", stats.total_ops())
        .field("kernel_time_ms", stats.kernel_time_ms())
        .field("kernel_energy_mj", stats.kernel_energy_mj())
        .field("total_time_ms", stats.total_time_ms())
        .field("total_energy_mj", stats.total_energy_mj(config))
        .end();
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

    /// Every kind of member and token the writer has, nested three deep,
    /// as a document of the given depth.
    fn sample(depth: usize) -> String {
        let mut w = JsonWriter::new(depth);
        w.field("text", "q\"b\\s\u{1}\n\tµ→✓")
            .field("neg_zero", -0.0)
            .field("nan", f64::NAN)
            .field("inf", f64::INFINITY)
            .field("u64_max", u64::MAX)
            .field("u128", u128::MAX)
            .obj("nested")
            .field("x", 1.5)
            .obj("empty")
            .end()
            .arr("list")
            .item(1u32)
            .item_arr()
            .end()
            .item_obj()
            .field("ok", "yes")
            .end()
            .end()
            .end()
            .arr("empty_list")
            .end();
        w.finish()
    }

    #[test]
    fn writer_bytes_are_pinned_at_each_depth() {
        const SCALARS: &str = "\"text\": \"q\\\"b\\\\s\\u0001\\n\\tµ→✓\"|\"neg_zero\": 0|\
            \"nan\": null|\"inf\": null|\"u64_max\": 18446744073709551615|\
            \"u128\": 340282366920938463463374607431768211455";
        const LIST: &str = "\"list\": [1, [], {\"ok\": \"yes\"}]";
        let inline = SCALARS.replace('|', ", ");
        let lines = SCALARS.replace('|', ",\n  ");
        assert_eq!(
            sample(0),
            format!(
                "{{{inline}, \"nested\": {{\"x\": 1.5, \"empty\": {{}}, {LIST}}}, \
                 \"empty_list\": []}}"
            )
        );
        assert_eq!(
            sample(1),
            format!(
                "{{\n  {lines},\n  \"nested\": {{\"x\": 1.5, \"empty\": {{}}, {LIST}}},\n  \
                 \"empty_list\": []\n}}"
            )
        );
        assert_eq!(
            sample(2),
            format!(
                "{{\n  {lines},\n  \"nested\": {{\n    \"x\": 1.5,\n    \"empty\": {{}},\n    \
                 {LIST}\n  }},\n  \"empty_list\": []\n}}"
            )
        );
        assert_eq!(JsonWriter::new(3).finish(), "{}");
    }

    /// A generated value: nested up to `levels` containers deep.
    fn generated(rng: &mut crate::SplitMix64, levels: u32) -> Json {
        const ALPHABET: [char; 10] = ['a', 'Z', ' ', '"', '\\', '\n', '\u{1}', 'é', '€', '😀'];
        let text = |rng: &mut crate::SplitMix64| -> String {
            (0..rng.next() % 6)
                .map(|_| ALPHABET[(rng.next() % 10) as usize])
                .collect()
        };
        match rng.next() % if levels == 0 { 3 } else { 5 } {
            0 => Json::Null,
            1 => {
                let x = f64::from_bits(rng.next());
                Json::Num(if x.is_finite() {
                    x
                } else {
                    (rng.next() % 1000) as f64
                })
            }
            2 => Json::Str(text(rng)),
            3 => Json::Arr(
                (0..rng.next() % 4)
                    .map(|_| generated(rng, levels - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.next() % 4)
                    .map(|_| (text(rng), generated(rng, levels - 1)))
                    .collect(),
            ),
        }
    }

    /// A generated scalar [`Json`] as one writer token (`null` through
    /// NaN).
    struct Token<'a>(&'a Json);

    impl Scalar for Token<'_> {
        fn write_to(self, out: &mut String) {
            match self.0 {
                Json::Null => f64::NAN.write_to(out),
                Json::Num(x) => x.write_to(out),
                Json::Str(s) => s.write_to(out),
                _ => unreachable!("the generator makes no other tokens"),
            }
        }
    }

    /// Writes `v` as member `key` of the open object, or as an element
    /// of the open array when `key` is `None`.
    fn put(w: &mut JsonWriter, key: Option<&str>, v: &Json) {
        match (v, key) {
            (Json::Obj(m), Some(k)) => members(w.obj(k), m),
            (Json::Obj(m), None) => members(w.item_obj(), m),
            (Json::Arr(a), Some(k)) => items(w.arr(k), a),
            (Json::Arr(a), None) => items(w.item_arr(), a),
            (_, Some(k)) => _ = w.field(k, Token(v)),
            (_, None) => _ = w.item(Token(v)),
        }
    }

    fn members(w: &mut JsonWriter, m: &BTreeMap<String, Json>) {
        for (k, v) in m {
            put(w, Some(k), v);
        }
        w.end();
    }

    fn items(w: &mut JsonWriter, a: &[Json]) {
        for v in a {
            put(w, None, v);
        }
        w.end();
    }

    #[test]
    fn generated_documents_parse_back_at_any_depth() {
        let mut rng = crate::SplitMix64(0x15_0B1E);
        for _ in 0..2_000 {
            let doc: BTreeMap<String, Json> = (0..rng.next() % 5)
                .map(|i| (format!("k{i}"), generated(&mut rng, 4)))
                .collect();
            let depth = (rng.next() % 6) as usize;
            let mut w = JsonWriter::new(depth);
            for (k, v) in &doc {
                put(&mut w, Some(k), v);
            }
            let text = w.finish();
            assert_eq!(
                Json::parse(&text),
                Ok(Json::Obj(doc.clone())),
                "depth {depth}: {text}"
            );
        }
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
