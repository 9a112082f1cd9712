//! Dependency-free Prometheus-style text exposition: a writer that
//! renders counters/gauges/histograms/summaries in the classic
//! `text/plain; version=0.0.4` format, and a linter that validates a
//! scraped payload against the same grammar.
//!
//! The format, in the subset we emit (one metric family per block):
//!
//! ```text
//! exposition := block*
//! block      := "# HELP " name " " help "\n"
//!               "# TYPE " name " " kind "\n"
//!               sample+
//! kind       := "counter" | "gauge" | "histogram" | "summary"
//! sample     := name labels? " " value "\n"
//! labels     := "{" label ("," label)* "}"
//! label      := lname "=\"" escaped "\""
//! name,lname := [a-zA-Z_:][a-zA-Z0-9_:]*   (lname: no ':')
//! value      := integer | float | "+Inf"
//! ```
//!
//! Histograms additionally carry the Prometheus contract the linter
//! enforces: `_bucket` samples have an `le` label, cumulative counts
//! are non-decreasing in `le` order, the final bucket is `le="+Inf"`,
//! and its count equals the family's `_count` sample. Summaries carry
//! `quantile`-labelled samples plus `_sum`/`_count`.
//!
//! Everything here is deterministic: same instrument state in, same
//! bytes out (instrument iteration order is the caller's contract —
//! [`Registry`](crate::metrics::Registry) exports name-sorted).

use crate::metrics::Histogram;

/// Kinds a metric family can declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
    Summary,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Summary => "summary",
        }
    }
}

/// True when `name` is a valid metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn metric_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Coerce an arbitrary string (op names with dots, tenant ids) into a
/// valid metric-name fragment: invalid characters become `_`, and a
/// leading digit gets a `_` prefix. Deterministic and idempotent.
pub fn sanitize_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 1);
    for (i, c) in raw.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn labels_with<'a>(
    labels: &[(&'a str, &'a str)],
    extra_key: &'a str,
    extra_val: &'a str,
) -> Vec<(&'a str, &'a str)> {
    let mut all = labels.to_vec();
    all.push((extra_key, extra_val));
    all
}

/// Incremental exposition writer. Families must be appended fully
/// formed (header + all samples per call); the caller controls family
/// order, which the serve telemetry plane keeps name-sorted.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    pub fn new() -> Self {
        Exposition::default()
    }

    fn header(&mut self, name: &str, kind: Kind, help: &str) {
        debug_assert!(metric_name_ok(name), "invalid metric name {name:?}");
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        // HELP text runs to end of line; strip newlines defensively.
        self.out.push_str(&help.replace('\n', " "));
        self.out.push('\n');
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind.as_str());
        self.out.push('\n');
    }

    fn sample(&mut self, name: &str, suffix: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(name);
        self.out.push_str(suffix);
        self.out.push_str(&render_labels(labels));
        self.out.push(' ');
        self.out.push_str(value);
        self.out.push('\n');
    }

    /// One counter family with a single (possibly labelled) sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.header(name, Kind::Counter, help);
        self.sample(name, "", labels, &value.to_string());
    }

    /// One counter family with several labelled samples (e.g. a
    /// per-op request counter). `series` pairs label sets with values.
    pub fn counter_series(&mut self, name: &str, help: &str, series: &[(Vec<(&str, &str)>, u64)]) {
        self.header(name, Kind::Counter, help);
        for (labels, value) in series {
            self.sample(name, "", labels, &value.to_string());
        }
    }

    /// One gauge family with a single sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: i64) {
        self.header(name, Kind::Gauge, help);
        self.sample(name, "", labels, &value.to_string());
    }

    /// One histogram family from a live [`Histogram`]: cumulative
    /// `le` buckets (empty log₂ buckets elided — cumulative counts
    /// are unaffected), a final `+Inf` bucket, `_sum`, and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.header(name, Kind::Histogram, help);
        let counts = h.bucket_counts();
        let mut cumulative = 0u64;
        for (i, n) in counts.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            cumulative += n;
            let le = Histogram::bucket_le(i);
            if le == u64::MAX {
                // Top bucket is the +Inf bucket below.
                continue;
            }
            let le_s = le.to_string();
            self.sample(
                name,
                "_bucket",
                &labels_with(labels, "le", &le_s),
                &cumulative.to_string(),
            );
        }
        self.sample(
            name,
            "_bucket",
            &labels_with(labels, "le", "+Inf"),
            &h.count().to_string(),
        );
        self.sample(name, "_sum", labels, &h.sum_ns().to_string());
        self.sample(name, "_count", labels, &h.count().to_string());
    }

    /// One summary family: pre-computed quantiles plus `_sum` and
    /// `_count`. Used for per-tenant latency where a full bucket table
    /// per tenant would bloat the payload.
    pub fn summary(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        quantiles: &[(f64, u64)],
        sum: u64,
        count: u64,
    ) {
        self.header(name, Kind::Summary, help);
        for (q, v) in quantiles {
            let q_s = format!("{q}");
            self.sample(
                name,
                "",
                &labels_with(labels, "quantile", &q_s),
                &v.to_string(),
            );
        }
        self.sample(name, "_sum", labels, &sum.to_string());
        self.sample(name, "_count", labels, &count.to_string());
    }

    /// Like [`summary`](Self::summary) but for many label sets under
    /// one header (one family per metric name — required by the
    /// format when several tenants share a metric).
    #[allow(clippy::type_complexity)]
    pub fn summary_series(
        &mut self,
        name: &str,
        help: &str,
        series: &[(Vec<(&str, &str)>, Vec<(f64, u64)>, u64, u64)],
    ) {
        self.header(name, Kind::Summary, help);
        for (labels, quantiles, sum, count) in series {
            for (q, v) in quantiles {
                let q_s = format!("{q}");
                self.sample(
                    name,
                    "",
                    &labels_with(labels, "quantile", &q_s),
                    &v.to_string(),
                );
            }
            self.sample(name, "_sum", labels, &sum.to_string());
            self.sample(name, "_count", labels, &count.to_string());
        }
    }

    /// Like [`histogram`](Self::histogram) but for many label sets
    /// under one header.
    #[allow(clippy::type_complexity)]
    pub fn histogram_series(
        &mut self,
        name: &str,
        help: &str,
        series: &[(Vec<(&str, &str)>, &Histogram)],
    ) {
        self.header(name, Kind::Histogram, help);
        for (labels, h) in series {
            let counts = h.bucket_counts();
            let mut cumulative = 0u64;
            for (i, n) in counts.iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                cumulative += n;
                let le = Histogram::bucket_le(i);
                if le == u64::MAX {
                    continue;
                }
                let le_s = le.to_string();
                self.sample(
                    name,
                    "_bucket",
                    &labels_with(labels, "le", &le_s),
                    &cumulative.to_string(),
                );
            }
            self.sample(
                name,
                "_bucket",
                &labels_with(labels, "le", "+Inf"),
                &h.count().to_string(),
            );
            self.sample(name, "_sum", labels, &h.sum_ns().to_string());
            self.sample(name, "_count", labels, &h.count().to_string());
        }
    }

    pub fn finish(self) -> String {
        self.out
    }
}

// ---------------------------------------------------------------------------
// Linter
// ---------------------------------------------------------------------------

/// One parsed sample line.
struct Sample {
    base: String,
    suffix: String, // "", "_bucket", "_sum", "_count"
    labels: Vec<(String, String)>,
    value: String,
    line_no: usize,
}

fn label_value_of<'a>(labels: &'a [(String, String)], key: &str) -> Option<&'a str> {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn parse_value_f64(v: &str) -> Option<f64> {
    if v == "+Inf" {
        return Some(f64::INFINITY);
    }
    if v == "-Inf" {
        return Some(f64::NEG_INFINITY);
    }
    v.parse::<f64>().ok()
}

/// Parse `name{label="v",...} value` — returns (name, labels, value).
#[allow(clippy::type_complexity)]
fn parse_sample(
    line: &str,
    line_no: usize,
) -> Result<(String, Vec<(String, String)>, String), String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            i += 1;
        } else {
            break;
        }
    }
    if i == 0 {
        return Err(format!(
            "line {line_no}: sample does not start with a metric name"
        ));
    }
    let name = &line[..i];
    if !metric_name_ok(name) {
        return Err(format!("line {line_no}: invalid metric name {name:?}"));
    }
    let mut labels = Vec::new();
    let rest = &line[i..];
    let rest = if let Some(stripped) = rest.strip_prefix('{') {
        // Parse label list until the matching '}'.
        let mut chars = stripped.char_indices().peekable();
        // Initialized for definite assignment; every label-list path
        // either overwrites it or returns an error.
        #[allow(unused_assignments)]
        let mut consumed = 0usize;
        'labels: loop {
            // label name
            let mut lname = String::new();
            for (j, c) in chars.by_ref() {
                consumed = j + c.len_utf8();
                if c == '}' && lname.is_empty() && labels.is_empty() {
                    break 'labels; // empty label set "{}"
                }
                if c == '=' {
                    break;
                }
                lname.push(c);
            }
            if lname.is_empty() || !metric_name_ok(&lname) || lname.contains(':') {
                return Err(format!("line {line_no}: invalid label name {lname:?}"));
            }
            match chars.next() {
                Some((_, '"')) => {}
                _ => {
                    return Err(format!(
                        "line {line_no}: label {lname} missing opening quote"
                    ))
                }
            }
            let mut lval = String::new();
            let mut escaped = false;
            let mut closed = false;
            for (_, c) in chars.by_ref() {
                if escaped {
                    match c {
                        '\\' => lval.push('\\'),
                        '"' => lval.push('"'),
                        'n' => lval.push('\n'),
                        other => {
                            return Err(format!(
                                "line {line_no}: bad escape '\\{other}' in label {lname}"
                            ))
                        }
                    }
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    closed = true;
                    break;
                } else {
                    lval.push(c);
                }
            }
            if !closed {
                return Err(format!(
                    "line {line_no}: label {lname} missing closing quote"
                ));
            }
            labels.push((lname, lval));
            match chars.next() {
                Some((_, ',')) => continue,
                Some((j, '}')) => {
                    consumed = j + 1;
                    break;
                }
                _ => return Err(format!("line {line_no}: expected ',' or '}}' after label")),
            }
        }
        &stripped[consumed..]
    } else {
        rest
    };
    let value = rest.trim();
    if value.is_empty() {
        return Err(format!("line {line_no}: sample has no value"));
    }
    let mut parts = value.split_whitespace();
    let value = parts.next().unwrap_or_default().to_string();
    if parts.next().is_some() {
        // A trailing field would be a timestamp; we never emit one.
        return Err(format!(
            "line {line_no}: unexpected trailing field after value"
        ));
    }
    if parse_value_f64(&value).is_none() {
        return Err(format!("line {line_no}: unparseable value {value:?}"));
    }
    Ok((name.to_string(), labels, value))
}

fn split_suffix(name: &str) -> (String, String) {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if !base.is_empty() {
                return (base.to_string(), suffix.to_string());
            }
        }
    }
    (name.to_string(), String::new())
}

/// Validate a text exposition against the grammar above. Returns the
/// number of metric families on success, or the first error found.
///
/// Checks: HELP/TYPE header shape and ordering, metric/label name
/// validity, label quoting/escaping, parseable values, every sample
/// preceded by a TYPE for its family, histogram bucket monotonicity
/// with a final `+Inf` bucket matching `_count`, and summary
/// `quantile` labels in `[0, 1]`.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    use std::collections::BTreeMap;
    let mut kinds: BTreeMap<String, Kind> = BTreeMap::new();
    let mut helped: BTreeMap<String, bool> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();

    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default();
            if !metric_name_ok(name) {
                return Err(format!("line {line_no}: HELP for invalid name {name:?}"));
            }
            if helped.insert(name.to_string(), true).is_some() {
                return Err(format!("line {line_no}: duplicate HELP for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default();
            let kind_s = parts.next().unwrap_or_default();
            if !metric_name_ok(name) {
                return Err(format!("line {line_no}: TYPE for invalid name {name:?}"));
            }
            let kind = match kind_s {
                "counter" => Kind::Counter,
                "gauge" => Kind::Gauge,
                "histogram" => Kind::Histogram,
                "summary" => Kind::Summary,
                other => return Err(format!("line {line_no}: unknown TYPE {other:?}")),
            };
            if kinds.insert(name.to_string(), kind).is_some() {
                return Err(format!("line {line_no}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        let (name, labels, value) = parse_sample(line, line_no)?;
        let (base, suffix) = {
            // `_bucket`/`_sum`/`_count` only split against a declared
            // histogram/summary family; a counter legitimately named
            // e.g. `slow_log_dropped_count` keeps its full name.
            let (b, s) = split_suffix(&name);
            if !s.is_empty() && matches!(kinds.get(&b), Some(Kind::Histogram) | Some(Kind::Summary))
            {
                (b, s)
            } else {
                (name.clone(), String::new())
            }
        };
        if !kinds.contains_key(&base) {
            return Err(format!(
                "line {line_no}: sample {name} before any TYPE for {base}"
            ));
        }
        samples.push(Sample {
            base,
            suffix,
            labels,
            value,
            line_no,
        });
    }

    // Per-family structural checks.
    for (family, kind) in &kinds {
        let fam_samples: Vec<&Sample> = samples.iter().filter(|s| &s.base == family).collect();
        if fam_samples.is_empty() {
            return Err(format!("family {family}: TYPE declared but no samples"));
        }
        match kind {
            Kind::Counter | Kind::Gauge => {
                for s in &fam_samples {
                    if !s.suffix.is_empty() {
                        return Err(format!(
                            "line {}: {}{} sample under {} family {family}",
                            s.line_no,
                            s.base,
                            s.suffix,
                            kind.as_str()
                        ));
                    }
                }
            }
            Kind::Summary => {
                let mut has_count = false;
                let mut has_sum = false;
                for s in &fam_samples {
                    match s.suffix.as_str() {
                        "_count" => has_count = true,
                        "_sum" => has_sum = true,
                        "" => {
                            let q = label_value_of(&s.labels, "quantile").ok_or_else(|| {
                                format!("line {}: summary sample missing quantile label", s.line_no)
                            })?;
                            let q: f64 = q.parse().map_err(|_| {
                                format!("line {}: unparseable quantile {q:?}", s.line_no)
                            })?;
                            if !(0.0..=1.0).contains(&q) {
                                return Err(format!(
                                    "line {}: quantile {q} outside [0, 1]",
                                    s.line_no
                                ));
                            }
                        }
                        other => {
                            return Err(format!(
                                "line {}: unexpected suffix {other} in summary {family}",
                                s.line_no
                            ))
                        }
                    }
                }
                if !has_count || !has_sum {
                    return Err(format!("family {family}: summary missing _sum or _count"));
                }
            }
            Kind::Histogram => {
                // Group by the label set minus `le`; check each group.
                let mut groups: BTreeMap<String, Vec<&Sample>> = BTreeMap::new();
                for s in &fam_samples {
                    let mut key_labels: Vec<String> = s
                        .labels
                        .iter()
                        .filter(|(k, _)| k != "le")
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect();
                    key_labels.sort();
                    groups.entry(key_labels.join(",")).or_default().push(s);
                }
                for (key, group) in groups {
                    let mut last_le = f64::NEG_INFINITY;
                    let mut last_cum = 0f64;
                    let mut inf_count: Option<f64> = None;
                    let mut count_val: Option<f64> = None;
                    let mut has_sum = false;
                    for s in group {
                        match s.suffix.as_str() {
                            "_bucket" => {
                                let le = label_value_of(&s.labels, "le").ok_or_else(|| {
                                    format!("line {}: _bucket missing le label", s.line_no)
                                })?;
                                let le = parse_value_f64(le).ok_or_else(|| {
                                    format!("line {}: unparseable le {le:?}", s.line_no)
                                })?;
                                if le <= last_le {
                                    return Err(format!(
                                        "line {}: le buckets out of order in {family}{{{key}}}",
                                        s.line_no
                                    ));
                                }
                                let cum = parse_value_f64(&s.value).unwrap_or(-1.0);
                                if cum < last_cum {
                                    return Err(format!(
                                        "line {}: cumulative bucket count decreased in {family}{{{key}}}",
                                        s.line_no
                                    ));
                                }
                                if le.is_infinite() {
                                    inf_count = Some(cum);
                                }
                                last_le = le;
                                last_cum = cum;
                            }
                            "_sum" => has_sum = true,
                            "_count" => count_val = parse_value_f64(&s.value),
                            other => {
                                return Err(format!(
                                    "line {}: unexpected suffix {other:?} in histogram {family}",
                                    s.line_no
                                ))
                            }
                        }
                    }
                    let inf = inf_count.ok_or_else(|| {
                        format!("family {family}{{{key}}}: histogram missing le=\"+Inf\" bucket")
                    })?;
                    if !has_sum {
                        return Err(format!("family {family}{{{key}}}: histogram missing _sum"));
                    }
                    let count = count_val.ok_or_else(|| {
                        format!("family {family}{{{key}}}: histogram missing _count")
                    })?;
                    if (inf - count).abs() > 0.0 {
                        return Err(format!(
                            "family {family}{{{key}}}: +Inf bucket ({inf}) != _count ({count})"
                        ));
                    }
                }
            }
        }
    }
    Ok(kinds.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_sanitize_and_validate() {
        assert!(metric_name_ok("serve_queue_depth"));
        assert!(metric_name_ok("a:b_c1"));
        assert!(!metric_name_ok("1abc"));
        assert!(!metric_name_ok("a-b"));
        assert!(!metric_name_ok(""));
        assert_eq!(sanitize_name("dl.sat"), "dl_sat");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("tenant-α"), "tenant__");
        assert_eq!(sanitize_name(""), "_");
        // Idempotent.
        assert_eq!(sanitize_name(&sanitize_name("dl.sat")), "dl_sat");
    }

    #[test]
    fn label_values_escape() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn writer_output_lints_clean() {
        let mut e = Exposition::new();
        e.counter("serve_accepted_total", "Accepted requests.", &[], 42);
        e.gauge("serve_queue_depth", "Queue depth now.", &[], 3);
        let h = Histogram::default();
        for v in [900u64, 1_100, 40_000] {
            h.record(v);
        }
        e.histogram(
            "serve_execute_ns",
            "Execute phase.",
            &[("op", "subsumes")],
            &h,
        );
        e.summary(
            "serve_tenant_latency_ns",
            "Per-tenant latency.",
            &[("tenant", "acme \"prod\"")],
            &[(0.5, 1_000), (0.99, 40_000)],
            42_000,
            3,
        );
        let text = e.finish();
        let families = validate_exposition(&text).expect("lints clean");
        assert_eq!(families, 4);
        // Histogram buckets are cumulative and end at +Inf == _count.
        assert!(text.contains("serve_execute_ns_bucket{op=\"subsumes\",le=\"+Inf\"} 3"));
        assert!(text.contains("serve_execute_ns_count{op=\"subsumes\"} 3"));
    }

    #[test]
    fn writer_is_deterministic() {
        let render = || {
            let mut e = Exposition::new();
            e.counter("c_total", "C.", &[], 7);
            let h = Histogram::default();
            h.record(123);
            e.histogram("h_ns", "H.", &[], &h);
            e.finish()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn linter_rejects_structural_violations() {
        // Sample before TYPE.
        assert!(validate_exposition("x_total 1\n").is_err());
        // Unknown TYPE kind.
        assert!(validate_exposition("# TYPE x nonsense\nx 1\n").is_err());
        // Bad value.
        assert!(validate_exposition("# HELP x X.\n# TYPE x counter\nx banana\n").is_err());
        // Unclosed label quote.
        assert!(validate_exposition("# HELP x X.\n# TYPE x counter\nx{a=\"b} 1\n").is_err());
        // Histogram with decreasing cumulative buckets.
        let bad = "# HELP h H.\n# TYPE h histogram\n\
                   h_bucket{le=\"10\"} 5\nh_bucket{le=\"20\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(bad).is_err());
        // Histogram whose +Inf bucket disagrees with _count.
        let bad = "# HELP h H.\n# TYPE h histogram\n\
                   h_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(bad).is_err());
        // Histogram missing +Inf entirely.
        let bad = "# HELP h H.\n# TYPE h histogram\n\
                   h_bucket{le=\"10\"} 4\nh_sum 1\nh_count 4\n";
        assert!(validate_exposition(bad).is_err());
        // Summary quantile outside [0, 1].
        let bad = "# HELP s S.\n# TYPE s summary\n\
                   s{quantile=\"1.5\"} 10\ns_sum 10\ns_count 1\n";
        assert!(validate_exposition(bad).is_err());
        // TYPE with no samples.
        assert!(validate_exposition("# HELP x X.\n# TYPE x counter\n").is_err());
    }

    #[test]
    fn linter_accepts_counter_named_like_a_suffix() {
        // A counter whose own name ends in _count must not be folded
        // into a histogram family.
        let ok = "# HELP slow_log_dropped_count D.\n\
                  # TYPE slow_log_dropped_count counter\n\
                  slow_log_dropped_count 2\n";
        assert_eq!(validate_exposition(ok), Ok(1));
    }

    #[test]
    fn empty_histogram_still_exposes_inf_bucket() {
        let mut e = Exposition::new();
        let h = Histogram::default();
        e.histogram("h_ns", "H.", &[], &h);
        let text = e.finish();
        assert_eq!(validate_exposition(&text), Ok(1));
        assert!(text.contains("h_ns_bucket{le=\"+Inf\"} 0"));
    }
}
