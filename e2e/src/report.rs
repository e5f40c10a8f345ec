//! Summaries, JSON rendering, the `BENCHMARK.json` metric list, and
//! `--compare`.

use std::path::Path;

use pimeval::trace::json::{num, string, Json};

/// Median of `xs` (0 for an empty slice), as Python's
/// `statistics.median` computes it.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles of `xs`, as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) computes them.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n <= 1 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Renders `v` on one line.
pub fn render(v: &Json) -> String {
    render_nested(v, 0, 0)
}

/// Renders `v` with one member per line for the outer `depth` levels of
/// nesting and everything below inline, so committed files diff by
/// entry.
pub fn render_pretty(v: &Json, depth: usize) -> String {
    render_nested(v, depth, 0) + "\n"
}

fn render_nested(v: &Json, depth: usize, indent: usize) -> String {
    let (open, sep, close) = if depth == 0 {
        (String::new(), ", ".to_string(), String::new())
    } else {
        let pad = "  ".repeat(indent + 1);
        (
            format!("\n{pad}"),
            format!(",\n{pad}"),
            format!("\n{}", "  ".repeat(indent)),
        )
    };
    let inner = |v| render_nested(v, depth.saturating_sub(1), indent + 1);
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(x) => num(*x),
        Json::Str(s) => string(s),
        Json::Arr(items) if items.is_empty() => "[]".into(),
        Json::Obj(m) if m.is_empty() => "{}".into(),
        Json::Arr(items) => {
            let parts: Vec<String> = items.iter().map(inner).collect();
            format!("[{open}{}{close}]", parts.join(&sep))
        }
        Json::Obj(m) => {
            let parts: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}: {}", string(k), inner(v)))
                .collect();
            format!("{{{open}{}{close}}}", parts.join(&sep))
        }
    }
}

/// Reads and parses a JSON file.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when higher is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The `end_to_end` and `per_layer` lists of `BENCHMARK.json`.
pub fn declared_metrics(path: &Path) -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let doc = read_json(path)?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        let items = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{}: no {key} list", path.display()))?;
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{}: {key} entry without {f}", path.display()))
                };
                Ok(Declared {
                    name: field("name")?.to_string(),
                    unit: field("unit")?.to_string(),
                    higher_is_better: field("better")? == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// How a metric compares between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// B beats A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    Within,
    /// A side's quartile spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric from one results file: its value and the spread of its
/// samples.
#[derive(Debug, Clone)]
struct Side {
    value: f64,
    median: f64,
    q1: f64,
    q3: f64,
    samples: Vec<f64>,
}

impl Side {
    fn from_json(m: &Json) -> Option<Side> {
        let samples: Vec<f64> = m
            .get("samples")?
            .as_array()?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        Some(Side {
            value: m.get("value")?.as_f64()?,
            median: m.get("median")?.as_f64()?,
            q1: m.get("q1")?.as_f64()?,
            q3: m.get("q3")?.as_f64()?,
            samples,
        })
    }

    fn spread(&self) -> f64 {
        ratio(self.q3 - self.q1, self.median.abs())
    }
}

/// Judges B's value against A's for a metric with relative `bound`. A
/// metric is unresolved when either side's sample quartile spread
/// exceeds the bound, unless every sample of B beats every sample of A.
fn judge(a: &Side, b: &Side, bound: f64, higher_is_better: bool) -> Verdict {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    if a.spread() > bound || b.spread() > bound {
        let all_better = b
            .samples
            .iter()
            .all(|&y| a.samples.iter().all(|&x| better(y, x)));
        return if all_better && !a.samples.is_empty() {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let change = ratio(b.value - a.value, a.value.abs());
    let gain = if higher_is_better { change } else { -change };
    if gain.abs() <= bound {
        Verdict::Within
    } else if gain > 0.0 {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

/// `--compare A B`: one row per (workload, end-to-end metric). Returns
/// the number of rows judged worse.
pub fn compare(a_path: &Path, b_path: &Path, benchmark: &Path) -> Result<usize, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let (end_to_end, _) = declared_metrics(benchmark)?;
    for (label, doc, path) in [("A", &a, a_path), ("B", &b, b_path)] {
        let h = doc.get("header");
        let field = |k: &str| {
            h.and_then(|h| h.get(k))
                .map_or_else(|| "?".into(), |v| render(v).trim_matches('"').to_string())
        };
        println!(
            "{label}: {}  host_cores={} threads={} seed={} commit={}",
            path.display(),
            field("host_cores"),
            field("threads"),
            field("seed"),
            field("commit"),
        );
    }
    let cores = |d: &Json| d.get("header").and_then(|h| h.get("host_cores")).cloned();
    if cores(&a) != cores(&b) {
        println!("warning: A and B ran on hosts with different core counts; wall-clock rows compare different machines");
    }
    println!(
        "{:<16} {:<15} {:>34} {:>34} {:>7}  verdict",
        "workload", "metric", "A value [q1, q3]", "B value [q1, q3]", "bound"
    );
    let workloads = |d: &Json| {
        d.get("workloads")
            .and_then(Json::as_object)
            .cloned()
            .unwrap_or_default()
    };
    let (wa, wb) = (workloads(&a), workloads(&b));
    let mut worse = 0;
    for (name, ma) in &wa {
        let Some(mb) = wb.get(name) else {
            println!("{name:<16} missing from B");
            continue;
        };
        for d in &end_to_end {
            let side = |m: &Json| {
                m.get("metrics")
                    .and_then(|x| x.get(&d.name))
                    .and_then(Side::from_json)
            };
            let (Some(sa), Some(sb)) = (side(ma), side(mb)) else {
                println!("{name:<16} {:<15} missing", d.name);
                continue;
            };
            let bound = d.bound.unwrap_or(0.0);
            let verdict = judge(&sa, &sb, bound, d.higher_is_better);
            worse += usize::from(verdict == Verdict::Worse);
            let cell = |s: &Side| format!("{:.6} [{:.6}, {:.6}]", s.value, s.q1, s.q3);
            println!(
                "{name:<16} {:<15} {:>34} {:>34} {:>6.1}%  {}",
                d.name,
                cell(&sa),
                cell(&sb),
                bound * 100.0,
                verdict.label()
            );
        }
        for exact in ["modeled_ms", "fail_frac"] {
            let value = |m: &Json| {
                m.get("metrics")
                    .and_then(|x| x.get(exact))
                    .and_then(|x| x.get("value"))
                    .and_then(Json::as_f64)
            };
            let (va, vb) = (value(ma), value(mb));
            // The simulated result must repeat bit for bit; failures may
            // only go down.
            let ok = match exact {
                "modeled_ms" => va.map(f64::to_bits) == vb.map(f64::to_bits),
                _ => vb <= va,
            };
            worse += usize::from(!ok);
            let show = |v: Option<f64>| v.map_or("missing".to_string(), num);
            println!(
                "{name:<16} {exact:<15} {:>34} {:>34} {:>7}  {}",
                show(va),
                show(vb),
                if exact == "modeled_ms" {
                    "exact"
                } else {
                    "0 abs"
                },
                if ok { "within" } else { "worse" }
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn verdicts() {
        let side = |xs: &[f64]| {
            let (q1, q3) = quartiles(xs);
            Side {
                value: median(xs),
                median: median(xs),
                q1,
                q3,
                samples: xs.to_vec(),
            }
        };
        let a = side(&[1.00, 1.01, 0.99, 1.00]);
        let slower = side(&[1.20, 1.21, 1.19, 1.20]);
        let same = side(&[1.02, 1.01, 1.00, 1.01]);
        let noisy = side(&[0.5, 1.5, 1.0, 2.0]);
        assert_eq!(judge(&a, &slower, 0.1, false), Verdict::Worse);
        assert_eq!(judge(&slower, &a, 0.1, false), Verdict::Better);
        assert_eq!(judge(&a, &same, 0.1, false), Verdict::Within);
        assert_eq!(judge(&a, &noisy, 0.1, false), Verdict::Unresolved);
        assert_eq!(judge(&a, &slower, 0.1, true), Verdict::Better);
    }

    #[test]
    fn pretty_rendering_parses_back() {
        let doc = obj([
            ("a", Json::Num(1.5)),
            (
                "b",
                obj([("c", Json::Arr(vec![Json::Bool(true), Json::Null]))]),
            ),
        ]);
        for depth in 0..3 {
            assert_eq!(Json::parse(&render_pretty(&doc, depth)).unwrap(), doc);
        }
    }
}
