//! A named-metric registry with labels and a Prometheus text encoder.
//!
//! The registry is the one coherent observability surface the servers
//! expose: counters, gauges, and histograms are registered once (at
//! server start) under Prometheus-style names with label pairs, and the
//! whole registry renders as text exposition format (version 0.0.4) for
//! `GET /metrics`. There is deliberately no dependency: the encoder and
//! the [`validate_exposition`] checker are hand-rolled.
//!
//! Metric names must match `[a-z_]+(_total|_seconds|_bytes)?` — lower
//! case and underscores only, with the conventional unit/total suffixes.
//! Registration panics on an invalid name (a programmer error), and
//! `cargo xtask lint` enforces the same rule statically on call sites.
//!
//! # Examples
//!
//! ```
//! use staged_metrics::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("cache_hits_total", &[("tier", "stale")]);
//! hits.increment();
//! registry.gauge_fn("queue_depth", &[("stage", "render")], || 3.0);
//!
//! let text = registry.encode_prometheus();
//! assert!(text.contains("cache_hits_total{tier=\"stale\"} 1"));
//! assert!(text.contains("queue_depth{stage=\"render\"} 3"));
//! staged_metrics::validate_exposition(&text).unwrap();
//! ```

use crate::counter::Counter;
use crate::histogram::Histogram;
use crate::snapshot::fmt_value;
use staged_sync::{OrderedMutex, Rank};
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Rank of the registry's entry list (DESIGN.md §10): within the
/// metrics band (400–420) and *below* the histogram rank, so encoding
/// never takes a metric's own lock while holding the registry lock —
/// entries are cloned out (they are `Arc`s) and evaluated lock-free.
const REGISTRY_RANK: Rank = Rank::new(402);

/// A shareable "read the current gauge value" closure.
pub type GaugeRead = Arc<dyn Fn() -> f64 + Send + Sync>;

/// A shareable "read the current counter value" closure.
pub type CounterRead = Arc<dyn Fn() -> u64 + Send + Sync>;

/// A closure producing `(label value, sample)` pairs for a metric whose
/// label set is only known at scrape time (e.g. per-page averages).
pub type Collect = Arc<dyn Fn() -> Vec<(String, f64)> + Send + Sync>;

enum Value {
    Counter(Arc<Counter>),
    CounterFn(CounterRead),
    GaugeFn(GaugeRead),
    Histogram(Arc<Histogram>),
    Collector {
        label: &'static str,
        collect: Collect,
    },
}

impl Value {
    fn type_label(&self) -> &'static str {
        match self {
            Value::Counter(_) | Value::CounterFn(_) => "counter",
            Value::GaugeFn(_) | Value::Collector { .. } => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
    value: Value,
}

/// A registry of named metrics with labels; see the `registry` module
/// docs for the naming rules and an example.
///
/// Cheap to share behind an `Arc`; registration normally happens once at
/// server start, scrapes clone the (small) entry list and read every
/// metric without holding the registry lock.
pub struct Registry {
    entries: OrderedMutex<Vec<Arc<Entry>>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            entries: OrderedMutex::new(REGISTRY_RANK, "metrics.registry", Vec::new()),
        }
    }
}

/// Whether `name` matches `[a-z_]+(_total|_seconds|_bytes)?` — since
/// the suffix group is itself `[a-z_]+`, this is exactly "non-empty,
/// lowercase letters and underscores only".
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b == b'_' || b.is_ascii_lowercase())
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(&self, name: &'static str, labels: &[(&'static str, &str)], value: Value) {
        assert!(
            valid_metric_name(name),
            "metric name {name:?} must match [a-z_]+(_total|_seconds|_bytes)?"
        );
        let entry = Arc::new(Entry {
            name,
            labels: labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect(),
            value,
        });
        self.entries.lock().push(entry);
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<Arc<Entry>> {
        self.entries
            .lock()
            .iter()
            .find(|e| e.name == name && labels_match(&e.labels, labels))
            .map(Arc::clone)
    }

    /// Registers (or retrieves) an owned counter under `name` + `labels`.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Counter> {
        if let Some(entry) = self.find(name, labels) {
            if let Value::Counter(c) = &entry.value {
                return Arc::clone(c);
            }
        }
        let c = Arc::new(Counter::new());
        self.insert(name, labels, Value::Counter(Arc::clone(&c)));
        c
    }

    /// Registers a counter whose value is read through a closure — how
    /// pre-existing `Counter`s (pool stats, cache counters) join the
    /// registry without being moved.
    pub fn counter_fn(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.insert(name, labels, Value::CounterFn(Arc::new(read)));
    }

    /// Registers a gauge whose value is read through a closure (queue
    /// depths, `t_spare`/`t_reserve`, busy workers).
    pub fn gauge_fn(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        read: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.insert(name, labels, Value::GaugeFn(Arc::new(read)));
    }

    /// Registers (or retrieves) an owned histogram under `name` +
    /// `labels`.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Histogram> {
        if let Some(entry) = self.find(name, labels) {
            if let Value::Histogram(h) = &entry.value {
                return Arc::clone(h);
            }
        }
        let h = Arc::new(Histogram::new());
        self.insert(name, labels, Value::Histogram(Arc::clone(&h)));
        h
    }

    /// Registers an externally owned histogram (e.g. a queue's wait
    /// histogram or a pool's service histogram).
    pub fn register_histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        histogram: Arc<Histogram>,
    ) {
        self.insert(name, labels, Value::Histogram(histogram));
    }

    /// Registers a gauge family whose label values are only known at
    /// scrape time: `collect` returns `(value of `label`, sample)`
    /// pairs — e.g. per-page service-time averages.
    pub fn gauge_collector(
        &self,
        name: &'static str,
        label: &'static str,
        collect: impl Fn() -> Vec<(String, f64)> + Send + Sync + 'static,
    ) {
        self.insert(
            name,
            &[],
            Value::Collector {
                label,
                collect: Arc::new(collect),
            },
        );
    }

    /// A clone of the entry list, so metric reads happen without the
    /// registry lock (gauge closures may take subsystem locks of any
    /// rank).
    fn cloned_entries(&self) -> Vec<Arc<Entry>> {
        self.entries.lock().iter().map(Arc::clone).collect()
    }

    /// Current value of the metric registered under `name` + `labels`:
    /// a counter's count, a gauge's reading, or a histogram's sample
    /// count. `None` when nothing matches.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let entry = self.find(name, labels)?;
        Some(match &entry.value {
            Value::Counter(c) => c.value() as f64,
            Value::CounterFn(read) => read() as f64,
            Value::GaugeFn(read) => read(),
            Value::Histogram(h) => h.count() as f64,
            Value::Collector { .. } => return None,
        })
    }

    /// The reader closure of a registered gauge, shareable and
    /// evaluated lock-free — the deprecated `ServerHandle::gauge_fn`
    /// path and the bench samplers use this.
    pub fn gauge_read(&self, name: &str, labels: &[(&str, &str)]) -> Option<GaugeRead> {
        let entry = self.find(name, labels)?;
        match &entry.value {
            Value::GaugeFn(read) => Some(Arc::clone(read)),
            _ => None,
        }
    }

    /// Distinct values of label `key` across entries named `name`, in
    /// registration order — e.g. the pool names under
    /// `pool_completed_total`.
    pub fn label_values(&self, name: &str, key: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for entry in self.entries.lock().iter() {
            if entry.name != name {
                continue;
            }
            if let Some((_, v)) = entry.labels.iter().find(|(k, _)| *k == key) {
                if !out.iter().any(|seen| seen == v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// Evaluated samples of every entry named `name`:
    /// `(label pairs, value)` in registration order. Collector entries
    /// expand to one sample per collected label value; histograms
    /// report their sample count.
    pub fn samples(&self, name: &str) -> Vec<(Vec<(&'static str, String)>, f64)> {
        let mut out = Vec::new();
        for entry in self.cloned_entries() {
            if entry.name != name {
                continue;
            }
            match &entry.value {
                Value::Counter(c) => out.push((entry.labels.clone(), c.value() as f64)),
                Value::CounterFn(read) => out.push((entry.labels.clone(), read() as f64)),
                Value::GaugeFn(read) => out.push((entry.labels.clone(), read())),
                Value::Histogram(h) => out.push((entry.labels.clone(), h.count() as f64)),
                Value::Collector { label, collect } => {
                    for (value, sample) in collect() {
                        out.push((vec![(*label, value)], sample));
                    }
                }
            }
        }
        out
    }

    /// Sums every sample of family `name`, counting negative readings
    /// as zero — e.g. completions across all classes.
    pub fn family_sum(&self, name: &str) -> f64 {
        self.samples(name).iter().map(|(_, v)| v.max(0.0)).sum()
    }

    /// Renders the whole registry in Prometheus text exposition format
    /// (version 0.0.4): a `# TYPE` line per family, then its samples;
    /// histograms expand to cumulative `_bucket{le=…}` series plus
    /// `_sum`/`_count`. Durations are in seconds.
    pub fn encode_prometheus(&self) -> String {
        let entries = self.cloned_entries();
        let mut out = String::with_capacity(entries.len() * 64);
        let mut done: Vec<&'static str> = Vec::new();
        for entry in &entries {
            if done.contains(&entry.name) {
                continue;
            }
            done.push(entry.name);
            let family: Vec<&Arc<Entry>> =
                entries.iter().filter(|e| e.name == entry.name).collect();
            let _ = writeln!(out, "# TYPE {} {}", entry.name, entry.value.type_label());
            for e in family {
                encode_entry(&mut out, e);
            }
        }
        out
    }
}

fn labels_match(entry: &[(&'static str, String)], wanted: &[(&str, &str)]) -> bool {
    entry.len() == wanted.len()
        && wanted
            .iter()
            .all(|(k, v)| entry.iter().any(|(ek, ev)| ek == k && ev == v))
}

/// Writes `{k="v",…}`; when `extra` is set it is appended as one more
/// pair (the histogram encoder's `le`).
fn write_label_set(
    out: &mut String,
    labels: &[(&'static str, String)],
    extra: Option<(&str, &str)>,
) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn encode_entry(out: &mut String, entry: &Entry) {
    match &entry.value {
        Value::Counter(c) => encode_sample(out, entry.name, &entry.labels, None, c.value() as f64),
        Value::CounterFn(read) => {
            encode_sample(out, entry.name, &entry.labels, None, read() as f64)
        }
        Value::GaugeFn(read) => encode_sample(out, entry.name, &entry.labels, None, read()),
        Value::Collector { label, collect } => {
            for (value, sample) in collect() {
                let labels = vec![(*label, value)];
                encode_sample(out, entry.name, &labels, None, sample);
            }
        }
        Value::Histogram(h) => {
            let buckets = h.cumulative();
            for (upper_micros, cumulative) in &buckets.cumulative {
                let le = format!("{}", *upper_micros as f64 / 1e6);
                let _ = write!(out, "{}_bucket", entry.name);
                write_label_set(out, &entry.labels, Some(("le", &le)));
                let _ = writeln!(out, " {cumulative}");
            }
            let _ = write!(out, "{}_bucket", entry.name);
            write_label_set(out, &entry.labels, Some(("le", "+Inf")));
            let _ = writeln!(out, " {}", buckets.count);
            let _ = write!(out, "{}_sum", entry.name);
            write_label_set(out, &entry.labels, None);
            let _ = writeln!(out, " {}", buckets.sum_micros as f64 / 1e6);
            let _ = write!(out, "{}_count", entry.name);
            write_label_set(out, &entry.labels, None);
            let _ = writeln!(out, " {}", buckets.count);
        }
    }
}

fn encode_sample(
    out: &mut String,
    name: &str,
    labels: &[(&'static str, String)],
    extra: Option<(&str, &str)>,
    value: f64,
) {
    out.push_str(name);
    write_label_set(out, labels, extra);
    let _ = writeln!(out, " {}", fmt_value(value));
}

/// A hand-rolled exposition-format checker: verifies every line is a
/// well-formed comment or sample, every sample's family has a `# TYPE`
/// declared before it, label braces balance, and values parse. Returns
/// the number of sample lines.
///
/// Used by the CI scrape check (boot server → `GET /metrics` → parse),
/// deliberately without a Prometheus client dependency.
///
/// # Errors
///
/// Returns `Err` with a `line N: …` message on the first malformed line.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut typed: Vec<(String, String)> = Vec::new();
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.trim_start().splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            match keyword {
                "TYPE" => {
                    let name = parts.next().ok_or(format!("line {n}: TYPE without name"))?;
                    let kind = parts.next().ok_or(format!("line {n}: TYPE without kind"))?;
                    if !valid_sample_name(name) {
                        return Err(format!("line {n}: bad metric name {name:?}"));
                    }
                    if !["counter", "gauge", "histogram", "summary", "untyped"]
                        .contains(&kind.trim())
                    {
                        return Err(format!("line {n}: bad TYPE kind {kind:?}"));
                    }
                    typed.push((name.to_string(), kind.trim().to_string()));
                }
                "HELP" => {}
                other => return Err(format!("line {n}: unknown comment keyword {other:?}")),
            }
            continue;
        }
        let (name, value) = parse_sample(line).ok_or(format!("line {n}: malformed sample"))?;
        if !valid_sample_name(&name) {
            return Err(format!("line {n}: bad sample name {name:?}"));
        }
        let family_ok = typed.iter().any(|(t, kind)| {
            t == &name
                || (kind == "histogram"
                    && [
                        format!("{t}_bucket"),
                        format!("{t}_sum"),
                        format!("{t}_count"),
                    ]
                    .contains(&name))
        });
        if !family_ok {
            return Err(format!("line {n}: sample {name:?} has no # TYPE"));
        }
        if value != "+Inf" && value != "-Inf" && value != "NaN" && value.parse::<f64>().is_err() {
            return Err(format!("line {n}: bad value {value:?}"));
        }
        samples += 1;
    }
    Ok(samples)
}

/// Sample names may additionally contain the `_bucket`/`_sum`/`_count`
/// machinery, still `[a-z_]` plus digits are forbidden by our rule.
fn valid_sample_name(name: &str) -> bool {
    valid_metric_name(name)
}

/// Splits a sample line into `(name-with-family, value)`, checking the
/// label block (if any) is `{k="v",…}` with balanced quotes.
fn parse_sample(line: &str) -> Option<(String, String)> {
    let (head, value) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}')?;
            if close < brace {
                return None;
            }
            let labels = &line[brace + 1..close];
            if !labels.is_empty() {
                for pair in split_label_pairs(labels) {
                    let eq = pair.find('=')?;
                    let (k, v) = pair.split_at(eq);
                    let v = v.strip_prefix('=')?;
                    if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return None;
                    }
                }
            }
            (&line[..brace], line[close + 1..].trim())
        }
        None => {
            let space = line.find(' ')?;
            (&line[..space], line[space + 1..].trim())
        }
    };
    if head.is_empty() || value.is_empty() || value.contains(' ') {
        return None;
    }
    Some((head.trim().to_string(), value.to_string()))
}

/// Splits `k="v",k2="v2"` on commas outside quotes.
fn split_label_pairs(labels: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in labels.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&labels[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    out.push(&labels[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn names_are_validated() {
        assert!(valid_metric_name("pool_completed_total"));
        assert!(valid_metric_name("queue_depth"));
        assert!(!valid_metric_name("queue-depth"));
        assert!(!valid_metric_name("Queue_depth"));
        assert!(!valid_metric_name("queue0"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn invalid_name_panics_at_registration() {
        Registry::new().counter_fn("has-dash", &[], || 0);
    }

    #[test]
    fn counter_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("requests_total", &[("class", "static")]);
        let b = r.counter("requests_total", &[("class", "static")]);
        a.increment();
        assert_eq!(b.value(), 1);
        let other = r.counter("requests_total", &[("class", "dynamic")]);
        assert_eq!(other.value(), 0);
    }

    #[test]
    fn value_reads_every_kind() {
        let r = Registry::new();
        r.counter("hits_total", &[]).add(7);
        r.counter_fn("reads_total", &[("kind", "fn")], || 9);
        r.gauge_fn("depth", &[], || 2.5);
        let h = r.histogram("wait_seconds", &[]);
        h.record(Duration::from_millis(1));
        assert_eq!(r.value("hits_total", &[]), Some(7.0));
        assert_eq!(r.value("reads_total", &[("kind", "fn")]), Some(9.0));
        assert_eq!(r.value("depth", &[]), Some(2.5));
        assert_eq!(r.value("wait_seconds", &[]), Some(1.0));
        assert_eq!(r.value("missing", &[]), None);
        assert_eq!(r.value("hits_total", &[("k", "v")]), None);
    }

    #[test]
    fn label_values_preserve_registration_order() {
        let r = Registry::new();
        for pool in ["header", "static", "general"] {
            r.counter_fn("pool_completed_total", &[("pool", pool)], || 0);
        }
        assert_eq!(
            r.label_values("pool_completed_total", "pool"),
            vec!["header", "static", "general"]
        );
    }

    #[test]
    fn gauge_read_is_shareable() {
        let r = Registry::new();
        r.gauge_fn("depth", &[("stage", "render")], || 4.0);
        let read = r.gauge_read("depth", &[("stage", "render")]).unwrap();
        assert_eq!(read(), 4.0);
        assert!(r.gauge_read("depth", &[]).is_none());
    }

    #[test]
    fn collector_expands_at_scrape_time() {
        let r = Registry::new();
        r.gauge_collector("page_service_seconds", "page", || {
            vec![("home".to_string(), 0.25), ("search".to_string(), 1.5)]
        });
        let text = r.encode_prometheus();
        assert!(
            text.contains("page_service_seconds{page=\"home\"} 0.25"),
            "{text}"
        );
        assert!(
            text.contains("page_service_seconds{page=\"search\"} 1.5"),
            "{text}"
        );
        let samples = r.samples("page_service_seconds");
        assert_eq!(samples.len(), 2);
    }

    #[test]
    fn exposition_is_valid_and_typed() {
        let r = Registry::new();
        r.counter("requests_total", &[("class", "static")]).add(3);
        r.gauge_fn("queue_depth", &[("stage", "header")], || 1.0);
        let h = r.histogram("wait_seconds", &[("stage", "header")]);
        h.record(Duration::from_micros(30));
        h.record(Duration::from_millis(2));
        let text = r.encode_prometheus();
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("# TYPE wait_seconds histogram"), "{text}");
        assert!(
            text.contains("wait_seconds_bucket{stage=\"header\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("wait_seconds_count{stage=\"header\"} 2"),
            "{text}"
        );
        let samples = validate_exposition(&text).expect("valid exposition");
        assert!(samples >= 4, "got {samples} samples:\n{text}");
    }

    #[test]
    fn families_group_even_when_interleaved() {
        let r = Registry::new();
        r.counter_fn("alpha_total", &[("a", "1")], || 1);
        r.gauge_fn("beta", &[], || 2.0);
        r.counter_fn("alpha_total", &[("a", "2")], || 3);
        let text = r.encode_prometheus();
        let type_lines = text.matches("# TYPE alpha_total").count();
        assert_eq!(type_lines, 1, "{text}");
        // Both alpha samples appear under the one TYPE header.
        let type_pos = text.find("# TYPE alpha_total").unwrap();
        let beta_type = text.find("# TYPE beta").unwrap();
        let a1 = text.find("alpha_total{a=\"1\"}").unwrap();
        let a2 = text.find("alpha_total{a=\"2\"}").unwrap();
        assert!(type_pos < a1 && a1 < a2, "{text}");
        assert!(a2 < beta_type || beta_type < type_pos, "{text}");
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn checker_rejects_malformed_lines() {
        assert!(validate_exposition("no_type_line 1").is_err());
        assert!(validate_exposition("# TYPE x counter\nx{unclosed 1").is_err());
        assert!(validate_exposition("# TYPE x counter\nx notanumber").is_err());
        assert!(validate_exposition("# TYPE Bad counter\n").is_err());
        assert!(validate_exposition("# TYPE x flavour\n").is_err());
        assert_eq!(
            validate_exposition("# TYPE x counter\nx 1\nx{l=\"v\"} 2"),
            Ok(2)
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.gauge_fn("depth", &[("stage", "with\"quote")], || 1.0);
        let text = r.encode_prometheus();
        assert!(text.contains("stage=\"with\\\"quote\""), "{text}");
        validate_exposition(&text).unwrap();
    }
}
