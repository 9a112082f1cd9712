//! Exporters: Chrome `trace_event` JSON, collapsed flamegraph stacks,
//! and human-readable text renderings — plus a dependency-free JSON
//! parser used by tests and CI to prove the Chrome output is valid.
//!
//! All exporters consume a [`TraceSnapshot`] (see
//! [`Tracer::snapshot`](crate::Tracer::snapshot)); none of them needs
//! the tracer to stop, so a long run can be snapshotted mid-flight.
//!
//! Span nesting is *reconstructed*, not stored: each record carries
//! `(tid, seq, depth)` where `seq` orders span-opens per thread and
//! `depth` is the open-span nesting level at open time. Sorting a
//! thread's records by `seq` and popping a stack while the top's depth
//! is `>=` the incoming record's depth rebuilds the exact call tree.

use crate::AttrValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Static span name, e.g. `"dl.sat"`.
    pub name: &'static str,
    /// Trace-local thread id (lane in the Chrome export).
    pub tid: u32,
    /// Per-thread span-open sequence number.
    pub seq: u64,
    /// Open-span nesting depth at open time (0 = top level).
    pub depth: u32,
    /// Open timestamp, nanoseconds since the tracer's epoch.
    pub t0_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Structured attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Summary of one latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// Everything a tracer recorded, frozen at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Completed spans (unordered; exporters sort by `(tid, seq)`).
    pub spans: Vec<SpanRecord>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// Spans discarded after the retention cap was hit.
    pub dropped: u64,
}

// ---------------------------------------------------------------------
// Tree reconstruction (shared by collapsed stacks and the text tree)
// ---------------------------------------------------------------------

/// Indices into `spans`, sorted by `(tid, seq)` — per-thread open
/// order, which is the order a depth-stack walk requires.
fn ordered_indices(spans: &[SpanRecord]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..spans.len()).collect();
    idx.sort_by_key(|&i| (spans[i].tid, spans[i].seq));
    idx
}

/// For every span, the sum of its direct children's durations —
/// subtracting gives self time.
fn children_ns(spans: &[SpanRecord], order: &[usize]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut cur_tid = None;
    for &i in order {
        let rec = &spans[i];
        if cur_tid != Some(rec.tid) {
            stack.clear();
            cur_tid = Some(rec.tid);
        }
        while let Some(&top) = stack.last() {
            if spans[top].depth >= rec.depth {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            children[parent] = children[parent].saturating_add(rec.dur_ns);
        }
        stack.push(i);
    }
    children
}

/// Walk the reconstructed tree, handing each span its full name path.
fn walk_paths(spans: &[SpanRecord], mut visit: impl FnMut(&[&'static str], usize)) {
    let order = ordered_indices(spans);
    let mut stack: Vec<usize> = Vec::new();
    let mut path: Vec<&'static str> = Vec::new();
    let mut cur_tid = None;
    for &i in &order {
        let rec = &spans[i];
        if cur_tid != Some(rec.tid) {
            stack.clear();
            path.clear();
            cur_tid = Some(rec.tid);
        }
        while let Some(&top) = stack.last() {
            if spans[top].depth >= rec.depth {
                stack.pop();
                path.pop();
            } else {
                break;
            }
        }
        stack.push(i);
        path.push(rec.name);
        visit(&path, i);
    }
}

// ---------------------------------------------------------------------
// JSON building blocks
// ---------------------------------------------------------------------

/// Escape `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn attr_json(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(n) => n.to_string(),
        AttrValue::I64(n) => n.to_string(),
        AttrValue::F64(f) if f.is_finite() => {
            // JSON has no NaN/Inf; finite floats print exactly.
            format!("{f}")
        }
        AttrValue::F64(_) => "null".to_string(),
        AttrValue::Bool(b) => b.to_string(),
        AttrValue::Str(s) => format!("\"{}\"", json_escape(s)),
    }
}

/// Microseconds with nanosecond precision, as Chrome's `ts`/`dur`
/// fields expect.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

impl TraceSnapshot {
    /// Chrome `trace_event` JSON (object form), loadable in
    /// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
    /// Each trace-local thread becomes a named lane (`"M"` metadata
    /// events), each span a `"X"` complete event with its attributes
    /// under `args`, and each counter one `"C"` event carrying its
    /// final total.
    pub fn chrome_trace(&self) -> String {
        let order = ordered_indices(&self.spans);
        let mut events: Vec<String> = Vec::with_capacity(self.spans.len() + 8);

        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in &tids {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"summa-thread-{tid}\"}}}}"
            ));
        }

        let mut end_ns = 0u64;
        for &i in &order {
            let s = &self.spans[i];
            end_ns = end_ns.max(s.t0_ns.saturating_add(s.dur_ns));
            let mut args = String::new();
            for (k, v) in &s.attrs {
                if !args.is_empty() {
                    args.push(',');
                }
                let _ = write!(args, "\"{}\":{}", json_escape(k), attr_json(v));
            }
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{{args}}}}}",
                json_escape(s.name),
                s.tid,
                us(s.t0_ns),
                us(s.dur_ns),
            ));
        }

        for (name, value) in &self.counters {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\
                 \"args\":{{\"value\":{value}}}}}",
                json_escape(name),
                us(end_ns),
            ));
        }

        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n],\"otherData\":{\"generator\":\"summa-obs\",\"droppedSpans\":");
        let _ = write!(out, "{}", self.dropped);
        out.push_str("}}\n");
        out
    }

    /// Collapsed-stack lines (`a;b;c <self-ns>`), the input format of
    /// `inferno-flamegraph` / `flamegraph.pl`. Values are **self
    /// time** in nanoseconds, aggregated over all occurrences of each
    /// stack, so frame widths in the rendered flamegraph are exact.
    pub fn collapsed_stacks(&self) -> String {
        let order = ordered_indices(&self.spans);
        let children = children_ns(&self.spans, &order);
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        walk_paths(&self.spans, |path, i| {
            let self_ns = self.spans[i].dur_ns.saturating_sub(children[i]);
            *agg.entry(path.join(";")).or_default() += self_ns;
        });
        let mut out = String::new();
        for (stack, ns) in agg {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }

    /// Human-readable aggregated call tree: every distinct span path
    /// with call count, total and self time, indented by depth.
    pub fn text_tree(&self) -> String {
        #[derive(Default)]
        struct Node {
            calls: u64,
            total_ns: u64,
            self_ns: u64,
        }
        let order = ordered_indices(&self.spans);
        let children = children_ns(&self.spans, &order);
        // BTreeMap on the path vector groups a node directly under its
        // prefix, which is exactly pre-order over the aggregated tree.
        let mut agg: BTreeMap<Vec<&'static str>, Node> = BTreeMap::new();
        walk_paths(&self.spans, |path, i| {
            let n = agg.entry(path.to_vec()).or_default();
            n.calls += 1;
            n.total_ns += self.spans[i].dur_ns;
            n.self_ns += self.spans[i].dur_ns.saturating_sub(children[i]);
        });
        let mut out = String::new();
        if agg.is_empty() {
            out.push_str("(no spans recorded)\n");
            return out;
        }
        for (path, node) in &agg {
            let indent = "  ".repeat(path.len() - 1);
            let name = path.last().expect("paths are non-empty");
            let _ = writeln!(
                out,
                "{indent}{name}  [{} call{}]  total {}  self {}",
                node.calls,
                if node.calls == 1 { "" } else { "s" },
                fmt_dur(node.total_ns),
                fmt_dur(node.self_ns),
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} spans dropped past retention cap)", self.dropped);
        }
        out
    }

    /// Counters and histogram quantiles as an aligned text table.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str("latency (log-scale histograms):\n");
            let width = self
                .histograms
                .iter()
                .map(|h| h.name.len())
                .max()
                .unwrap_or(0);
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<width$}  n={:<7} p50 {:>9}  p95 {:>9}  p99 {:>9}  max {:>9}",
                    h.name,
                    h.count,
                    fmt_dur(h.p50_ns),
                    fmt_dur(h.p95_ns),
                    fmt_dur(h.p99_ns),
                    fmt_dur(h.max_ns),
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

/// Render nanoseconds with a human-scaled unit.
pub fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---------------------------------------------------------------------
// Minimal JSON parser — used by tests/CI to prove the Chrome export
// is well-formed without external dependencies.
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array elements ([] for non-arrays).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// String content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Errors carry the byte offset.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        bytes: s.as_bytes(),
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

/// Validate a Chrome `trace_event` document: parses as JSON, has a
/// `traceEvents` array, and that array is non-empty. Returns the
/// event count.
pub fn validate_chrome_trace(s: &str) -> Result<usize, String> {
    let doc = parse_json(s)?;
    let events = doc
        .get("traceEvents")
        .ok_or_else(|| "missing traceEvents key".to_string())?;
    let n = events.items().len();
    if !matches!(events, Json::Arr(_)) {
        return Err("traceEvents is not an array".to_string());
    }
    if n == 0 {
        return Err("traceEvents is empty".to_string());
    }
    Ok(n)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
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
                            // Surrogates map to the replacement char —
                            // our own exporter never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so
                    // boundaries are trustworthy).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn sample_snapshot() -> TraceSnapshot {
        let t = Tracer::enabled();
        {
            let _outer = t.span("outer").with("k", "v\"q");
            {
                let _a = t.span("child");
            }
            {
                let _b = t.span("child");
            }
        }
        t.add("hits", 3);
        t.snapshot()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_events() {
        let snap = sample_snapshot();
        let json = snap.chrome_trace();
        // 1 thread_name metadata + 3 spans + 1 counter.
        assert_eq!(validate_chrome_trace(&json).unwrap(), 5);
        let doc = parse_json(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 3);
        let counter = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .unwrap();
        assert_eq!(counter.get("name").and_then(Json::as_str), Some("hits"));
        assert_eq!(
            counter
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_num),
            Some(3.0)
        );
        // The escaped attribute survives a parse round-trip.
        let outer = xs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("outer"))
            .unwrap();
        assert_eq!(
            outer
                .get("args")
                .and_then(|a| a.get("k"))
                .and_then(Json::as_str),
            Some("v\"q")
        );
    }

    #[test]
    fn collapsed_stacks_aggregate_self_time() {
        let snap = sample_snapshot();
        let collapsed = snap.collapsed_stacks();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(
            lines.len(),
            2,
            "outer + outer;child, aggregated: {collapsed}"
        );
        assert!(lines.iter().any(|l| l.starts_with("outer ")));
        assert!(lines.iter().any(|l| l.starts_with("outer;child ")));
        // Self time of outer excludes the children: outer's line value
        // plus the children line value must not exceed outer's total.
        let value = |prefix: &str| -> u64 {
            lines
                .iter()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        let outer_total = snap
            .spans
            .iter()
            .find(|s| s.name == "outer")
            .map(|s| s.dur_ns)
            .unwrap();
        assert!(value("outer ") + value("outer;child ") <= outer_total);
    }

    #[test]
    fn text_tree_indents_children() {
        let snap = sample_snapshot();
        let tree = snap.text_tree();
        assert!(tree.contains("outer  [1 call]"));
        assert!(tree.contains("  child  [2 calls]"));
    }

    #[test]
    fn metrics_text_lists_counters_and_histograms() {
        let snap = sample_snapshot();
        let text = snap.metrics_text();
        assert!(text.contains("hits"));
        assert!(text.contains("outer"), "span auto-histogram present");
        assert!(text.contains("p95"));
    }

    #[test]
    fn empty_snapshot_renders_gracefully() {
        let snap = TraceSnapshot::default();
        assert!(snap.text_tree().contains("no spans"));
        assert!(snap.metrics_text().contains("no metrics"));
        assert_eq!(snap.collapsed_stacks(), "");
        // Chrome export of an empty snapshot still parses, but the
        // validator flags it as empty — CI relies on that distinction.
        let json = snap.chrome_trace();
        assert!(parse_json(&json).is_ok());
        assert!(validate_chrome_trace(&json).is_err());
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        let doc =
            parse_json(r#"{"a":[1,2.5,-3e2],"b":{"nested":true},"s":"xA\n","n":null}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().items()[2], Json::Num(-300.0));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("xA\n"));
        assert_eq!(doc.get("n"), Some(&Json::Null));
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn fmt_dur_picks_units() {
        assert_eq!(fmt_dur(5), "5ns");
        assert_eq!(fmt_dur(1_500), "1.50us");
        assert_eq!(fmt_dur(2_000_000), "2.00ms");
        assert_eq!(fmt_dur(3_000_000_000), "3.00s");
    }
}
