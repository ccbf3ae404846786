//! A process-wide metrics registry: named monotonic counters and
//! log₂-bucket histograms, rendered as Prometheus text or JSON.
//!
//! The [`Runtime`](crate::runtime::Runtime) reports evaluator work into
//! the [`global`] registry after every GMDJ evaluation
//! (`gmdj_detail_scanned_total`, `completion_fallbacks_total`,
//! `network_messages_total`, …) and the engine's strategy layer reports
//! query-level aggregates (`queries_total`, the `query_latency_us`
//! histogram). Cross-query dashboards — "how much detail did this
//! process scan, how did latency distribute" — read the registry; a
//! single query's breakdown comes from [`crate::trace`] instead.
//!
//! Metric keys are plain strings; Prometheus-style labels are part of
//! the key (e.g. `queries_total{strategy="gmdj-opt"}`), which keeps the
//! registry dependency-free while rendering correctly. Build labeled
//! keys with [`labeled`] — it escapes label values per the exposition
//! format (`\\`, `\"`, `\n`) — and the renderer splices histogram
//! suffixes *inside* the label set (`name_bucket{site="0",le="3"}`), so
//! per-site series like `site_frame_us{frame="hello",site="0"}` scrape
//! as proper label dimensions rather than opaque family names.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Number of log₂ buckets: bucket `i` counts observations `v` with
/// `floor(log2(v)) + 1 == i` (zero lands in bucket 0), i.e. upper bound
/// `2^i − 1`. 64 buckets cover the full `u64` range.
const BUCKETS: usize = 65;

/// A log₂-bucket histogram: counts, total, and per-bucket tallies.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// Index of the log₂ bucket for a value.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i` (`2^i − 1`).
fn bucket_upper(i: usize) -> u128 {
    (1u128 << i) - 1
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u128, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }

    /// Estimated quantile (`0.0 ..= 1.0`) from the log₂ buckets: walk the
    /// cumulative distribution to the bucket holding the q-th
    /// observation, then interpolate linearly inside the bucket's
    /// `[lower, upper]` value range. Exact for values that land alone in
    /// a bucket; otherwise within a factor of 2 (the bucket width).
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = if i == 0 {
                    0u128
                } else {
                    bucket_upper(i - 1) + 1
                };
                let upper = bucket_upper(i);
                // Position of the target rank inside this bucket.
                let frac = (rank - seen) as f64 / c as f64;
                let width = (upper - lower) as f64;
                return (lower as f64 + width * frac).round() as u64;
            }
            seen += c;
        }
        bucket_upper(BUCKETS - 1).min(u64::MAX as u128) as u64
    }

    /// The standard dashboard quantiles `(p50, p95, p99)`.
    pub fn quantiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A registry of named counters and histograms. Usually accessed through
/// [`global`], but independently constructible for tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to the named monotonic counter (created at zero).
    pub fn inc(&self, name: &str, by: u64) {
        if by == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("metrics poisoned");
        *inner.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Set the named gauge to an absolute value (created on first use).
    /// Unlike counters, gauges move both ways — they model levels
    /// (`queries_active`, ring-buffer loss) rather than totals.
    pub fn gauge_set(&self, name: &str, value: i64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge (zero if never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.inner
            .lock()
            .expect("metrics poisoned")
            .gauges
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Record one observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .expect("metrics poisoned")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .lock()
            .expect("metrics poisoned")
            .histograms
            .get(name)
            .cloned()
    }

    /// Reset everything to empty (tests; the registry is process-global).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
    }

    /// Prometheus text exposition: counters as `name value`, histograms
    /// as cumulative `_bucket{le="…"}` series plus quantile gauges and
    /// `_sum` / `_count`. Output order is fully deterministic — metric
    /// families sorted by name (`BTreeMap` iteration), one `# TYPE` line
    /// per family even when labeled variants share the base name — so
    /// two renders of the same registry state are byte-identical.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics poisoned");
        let mut out = String::new();
        let mut last_family: Option<String> = None;
        for (name, v) in &inner.counters {
            let family = base_name(name);
            if last_family.as_deref() != Some(family) {
                out.push_str(&format!("# TYPE {family} counter\n"));
                last_family = Some(family.to_string());
            }
            out.push_str(&format!("{name} {v}\n"));
        }
        last_family = None;
        for (name, v) in &inner.gauges {
            let family = base_name(name);
            if last_family.as_deref() != Some(family) {
                out.push_str(&format!("# TYPE {family} gauge\n"));
                last_family = Some(family.to_string());
            }
            out.push_str(&format!("{name} {v}\n"));
        }
        last_family = None;
        for (name, h) in &inner.histograms {
            let (family, labels) = split_key(name);
            if last_family.as_deref() != Some(family) {
                out.push_str(&format!("# TYPE {family} histogram\n"));
                last_family = Some(family.to_string());
            }
            // Histogram suffix series splice their extra label (`le`,
            // `quantile`) inside the key's own label set; `_sum` /
            // `_count` keep the key's labels verbatim.
            let with = |extra: &str| {
                if labels.is_empty() {
                    format!("{{{extra}}}")
                } else {
                    format!("{{{labels},{extra}}}")
                }
            };
            let plain = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            };
            let mut cumulative = 0u64;
            for (le, c) in h.nonzero_buckets() {
                cumulative += c;
                out.push_str(&format!(
                    "{family}_bucket{} {cumulative}\n",
                    with(&format!("le=\"{le}\""))
                ));
            }
            out.push_str(&format!(
                "{family}_bucket{} {}\n",
                with("le=\"+Inf\""),
                h.count()
            ));
            let (p50, p95, p99) = h.quantiles();
            out.push_str(&format!("{family}{} {p50}\n", with("quantile=\"0.5\"")));
            out.push_str(&format!("{family}{} {p95}\n", with("quantile=\"0.95\"")));
            out.push_str(&format!("{family}{} {p99}\n", with("quantile=\"0.99\"")));
            out.push_str(&format!(
                "{family}_sum{plain} {}\n{family}_count{plain} {}\n",
                h.sum(),
                h.count()
            ));
        }
        out
    }

    /// JSON rendering:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock().expect("metrics poisoned");
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in inner.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", crate::trace::json_escape(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in inner.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", crate::trace::json_escape(name)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in inner.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (p50, p95, p99) = h.quantiles();
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"buckets\":[",
                crate::trace::json_escape(name),
                h.count(),
                h.sum()
            ));
            for (j, (le, c)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"le\":{le},\"count\":{c}}}"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Strip a trailing `{labels}` suffix for the `# TYPE` line.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Split a metric key into `(family, labels)`, where `labels` is the
/// brace body (`k="v",…`) without braces — empty for unlabeled keys.
fn split_key(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline become `\\`, `\"`, `\n`.
pub fn escape_label_value(v: &str) -> String {
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

/// Build a registry key `name{k="v",…}` with properly escaped label
/// values. Label order is preserved as given — callers keep it stable so
/// the same series maps to the same key every time.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// The process-wide registry every component reports into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = MetricsRegistry::new();
        m.inc("gmdj_detail_scanned_total", 10);
        m.inc("gmdj_detail_scanned_total", 5);
        m.inc("queries_total{strategy=\"gmdj-opt\"}", 1);
        assert_eq!(m.counter("gmdj_detail_scanned_total"), 15);
        assert_eq!(m.counter("missing"), 0);
        let text = m.render_prometheus();
        assert!(text.contains("gmdj_detail_scanned_total 15"));
        assert!(text.contains("# TYPE queries_total counter"));
        assert!(text.contains("queries_total{strategy=\"gmdj-opt\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        let buckets = h.nonzero_buckets();
        // 0 → le 0; 1 → le 1; 2,3 → le 3; 1000 → le 1023.
        assert_eq!(buckets, vec![(0, 1), (1, 1), (3, 2), (1023, 1)]);
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let m = MetricsRegistry::new();
        m.observe("query_latency_us", 1);
        m.observe("query_latency_us", 3);
        m.observe("query_latency_us", 3);
        let text = m.render_prometheus();
        assert!(text.contains("query_latency_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("query_latency_us_bucket{le=\"3\"} 3"));
        assert!(text.contains("query_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("query_latency_us_sum 7"));
        assert!(text.contains("query_latency_us_count 3"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=100u64 {
            h.observe(v);
        }
        let (p50, p95, p99) = h.quantiles();
        // Log₂ buckets bound the error by the bucket width (a factor of 2).
        assert!((32..=64).contains(&p50), "p50 = {p50}");
        assert!((64..=127).contains(&p95), "p95 = {p95}");
        assert!((64..=127).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p95 && p95 <= p99);
        // A lone observation in its bucket is reported near-exactly.
        let mut lone = Histogram::default();
        lone.observe(1);
        assert_eq!(lone.quantile(0.5), 1);
        assert_eq!(lone.quantile(0.99), 1);
    }

    #[test]
    fn renders_include_quantiles() {
        let m = MetricsRegistry::new();
        m.observe("query_latency_us", 8);
        let text = m.render_prometheus();
        assert!(
            text.contains("query_latency_us{quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(
            text.contains("query_latency_us{quantile=\"0.99\"}"),
            "{text}"
        );
        let json = m.render_json();
        assert!(json.contains("\"p50\":"), "{json}");
        assert!(json.contains("\"p95\":"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
    }

    #[test]
    fn prometheus_type_lines_dedupe_per_family() {
        let m = MetricsRegistry::new();
        m.inc("queries_total", 1);
        m.inc("queries_total{strategy=\"gmdj\"}", 1);
        m.inc("queries_total{strategy=\"native\"}", 1);
        let text = m.render_prometheus();
        assert_eq!(text.matches("# TYPE queries_total counter").count(), 1);
        // Two identical renders are byte-identical.
        assert_eq!(text, m.render_prometheus());
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let m = MetricsRegistry::new();
        m.inc("a_total", 2);
        m.observe("h", 4);
        let json = m.render_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"a_total\":2"));
        assert!(json.contains("\"h\":{\"count\":1,\"sum\":4"));
    }

    #[test]
    fn gauges_move_both_ways_and_render() {
        let m = MetricsRegistry::new();
        m.gauge_set("queries_active", 3);
        m.gauge_set("queries_active", -2);
        assert_eq!(m.gauge("queries_active"), -2);
        m.gauge_set("queries_active", 1);
        assert_eq!(m.gauge("queries_active"), 1);
        assert_eq!(m.gauge("missing"), 0);
        m.gauge_set("flight_recorder_dropped_events", 7);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE queries_active gauge"), "{text}");
        assert!(text.contains("queries_active 1"), "{text}");
        assert!(text.contains("flight_recorder_dropped_events 7"), "{text}");
        // Gauges render after counters, key-sorted, byte-stable.
        assert_eq!(text, m.render_prometheus());
        let json = m.render_json();
        assert!(
            json.contains("\"gauges\":{\"flight_recorder_dropped_events\":7,\"queries_active\":1}"),
            "{json}"
        );
    }

    #[test]
    fn gauge_type_lines_dedupe_per_family() {
        let m = MetricsRegistry::new();
        m.gauge_set("pool_size", 1);
        m.gauge_set("pool_size{kind=\"a\"}", 2);
        let text = m.render_prometheus();
        assert_eq!(text.matches("# TYPE pool_size gauge").count(), 1);
    }

    #[test]
    fn json_shape_keeps_counters_first() {
        let m = MetricsRegistry::new();
        m.inc("a_total", 1);
        m.gauge_set("g", -4);
        let json = m.render_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("},\"gauges\":{\"g\":-4},\"histograms\":{"));
    }

    #[test]
    fn reset_clears_everything() {
        let m = MetricsRegistry::new();
        m.inc("x", 1);
        m.gauge_set("g", 2);
        m.observe("y", 1);
        m.reset();
        assert_eq!(m.counter("x"), 0);
        assert_eq!(m.gauge("g"), 0);
        assert!(m.histogram("y").is_none());
        assert_eq!(m.render_json(), MetricsRegistry::new().render_json());
    }

    #[test]
    fn labeled_histograms_render_prometheus_labels() {
        let m = MetricsRegistry::new();
        m.observe(
            &labeled("site_frame_us", &[("frame", "hello"), ("site", "0")]),
            3,
        );
        m.observe("site_frame_us", 5);
        let text = m.render_prometheus();
        // One family, two series: the labeled key's histogram suffixes
        // splice their extra label inside the label set.
        assert_eq!(text.matches("# TYPE site_frame_us histogram").count(), 1);
        assert!(
            text.contains("site_frame_us_bucket{frame=\"hello\",site=\"0\",le=\"3\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("site_frame_us_bucket{frame=\"hello\",site=\"0\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("site_frame_us{frame=\"hello\",site=\"0\",quantile=\"0.5\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("site_frame_us_sum{frame=\"hello\",site=\"0\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("site_frame_us_count{frame=\"hello\",site=\"0\"} 1"),
            "{text}"
        );
        // The unlabeled twin keeps its bare-family rendering.
        assert!(text.contains("site_frame_us_sum 5"), "{text}");
        assert!(
            text.contains("site_frame_us_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert_eq!(text, m.render_prometheus());
    }

    #[test]
    fn label_values_escape_and_round_trip() {
        // Unescape per the exposition format — the inverse of
        // `escape_label_value`, used here to prove the round trip.
        fn unescape(v: &str) -> String {
            let mut out = String::new();
            let mut chars = v.chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                match chars.next() {
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('n') => out.push('\n'),
                    Some(other) => out.push(other),
                    None => {}
                }
            }
            out
        }
        let nasty = "we\"ird\\st\nrat";
        assert_eq!(unescape(&escape_label_value(nasty)), nasty);
        let key = labeled("queries_total", &[("strategy", nasty)]);
        assert_eq!(key, "queries_total{strategy=\"we\\\"ird\\\\st\\nrat\"}");
        let m = MetricsRegistry::new();
        m.inc(&key, 2);
        let text = m.render_prometheus();
        // The rendered line carries the escaped value on a single line
        // (the raw newline never leaks into the exposition).
        assert!(text.contains(&format!("{key} 2")), "{text}");
        assert!(text.contains("# TYPE queries_total counter"), "{text}");
        let rendered_value = text
            .lines()
            .find(|l| l.starts_with("queries_total{"))
            .and_then(|l| l.split("strategy=\"").nth(1))
            .and_then(|rest| rest.split("\"}").next())
            .unwrap();
        assert_eq!(unescape(rendered_value), nasty);
        assert!(labeled("plain", &[]) == "plain");
    }

    #[test]
    fn global_registry_is_shared() {
        global().inc("metrics_test_probe_total", 1);
        assert!(global().counter("metrics_test_probe_total") >= 1);
    }
}
