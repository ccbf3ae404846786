//! Lightweight structured tracing for the execution pipeline.
//!
//! The engine instruments itself without an external `tracing`
//! dependency: a [`TraceSink`] receives [`TraceEvent`]s — completed spans
//! carrying a monotonic start offset, a duration, and the counter deltas
//! relevant to the span — and decides what to do with them. Three sinks
//! cover the use cases:
//!
//! * [`NullSink`] — the default; spans still measure time (callers may
//!   use the returned [`Duration`]) but nothing is recorded.
//! * [`CollectingSink`] — an in-memory buffer for tests and the
//!   `\timing` / `\analyze` breakdowns of the SQL shell.
//! * [`JsonLinesSink`] — one JSON object per line, append-only, for
//!   offline analysis of bench runs.
//!
//! Span names emitted by the runtime (see [`crate::runtime`] and
//! [`crate::exec`]):
//!
//! | name | emitted per | fields |
//! |---|---|---|
//! | `gmdj.eval` | GMDJ evaluation (any mode) | full [`EvalStats`] + network deltas, `shared_queries` when a shared pass served it |
//! | `gmdj.partition` | base partition scan (not in a shared pass) | per-partition stats delta |
//! | `gmdj.shared_scan` | shared-scan pass | `queries` served, `evaluations` scanned (one per distinct GMDJ), `detail_rows` |
//! | `gmdj.worker` | morsel-pass worker: the one worker of a sequential scan, each of a parallel scan's, each of a shared pass's | scan-counter delta summed over the pass's evaluations, `chunk_rows`, `morsels`, `evaluations` when more than one |
//! | `site.roundtrip` | distributed site round-trip | per-site scan + network delta (incl. wire bytes under real sites; detail names the site, `siteN@addr` over sockets) |
//! | `site.eval` | site-local evaluation (one per round-trip) | site-side [`EvalStats`] delta, `site`, `attempt`, `fragment_rows` |
//! | `plan.node` | plan-operator execution | `rows_out`, `scanned_rows` |
//! | `query.plan` | translation + optimization | — |
//! | `query.execute` | plan execution | — |
//!
//! Start offsets are nanoseconds since a process-wide epoch (the first
//! time any span is opened), so events from different threads and
//! queries order on one timeline. Events never cross a process boundary
//! with their offsets intact: site executors ship span *deltas* (names,
//! details, durations, counter fields) over the wire, and the
//! coordinator re-anchors them onto its own epoch when stitching (see
//! [`crate::wire`]) — monotonic clocks are per-process, so only
//! durations are comparable across sites.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::distributed::NetworkStats;
use crate::eval::{EvalStats, KernelStats};

/// Process-wide monotonic epoch: all span start offsets are relative to
/// this instant.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A completed span: what happened, when, for how long, and the counter
/// deltas it carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name, e.g. `"gmdj.partition"` (see the module table).
    pub name: &'static str,
    /// Free-form qualifier, e.g. the plan-node label or strategy name.
    pub detail: String,
    /// Nanoseconds since the process trace epoch at span open.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Counter deltas attributed to this span, in emission order.
    pub fields: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// The value of a named counter field, if the span carried it.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Render as a single JSON object (the `JsonLinesSink` line format).
    ///
    /// Field keys are emitted in sorted order (not emission order), so
    /// two traces of the same execution produce byte-identical lines and
    /// trace diffs / test snapshots are reproducible regardless of the
    /// order instrumentation sites attach their counters.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"name\":\"");
        out.push_str(&json_escape(self.name));
        out.push('"');
        if !self.detail.is_empty() {
            out.push_str(",\"detail\":\"");
            out.push_str(&json_escape(&self.detail));
            out.push('"');
        }
        out.push_str(&format!(
            ",\"start_ns\":{},\"dur_ns\":{}",
            self.start_ns, self.dur_ns
        ));
        if !self.fields.is_empty() {
            let mut sorted = self.fields.clone();
            sorted.sort_by_key(|(k, _)| *k);
            out.push_str(",\"fields\":");
            out.push_str(&json_object(sorted));
        }
        out.push('}');
        out
    }
}

/// Every span name and span-specific field key that may cross the
/// process boundary; the counter-field keys are the field tables of the
/// counter sets ([`crate::counters`]). [`TraceEvent`] stores both as
/// `&'static str`, so the wire decoder ([`crate::wire`]) re-interns
/// incoming strings against these tables — a frame carrying an unknown
/// name is a decode error (strict, like the rest of the protocol), never
/// a silent allocation leak into the static lifetime.
pub const WIRE_INTERN_TABLE: &[&str] = &[
    // Span names (module table above).
    "gmdj.eval",
    "gmdj.partition",
    "gmdj.worker",
    "gmdj.kernel",
    "site.roundtrip",
    "site.eval",
    "plan.node",
    "query.plan",
    "query.execute",
    "query.parse",
    // Span-specific fields.
    "chunk_rows",
    "rows_out",
    "scanned_rows",
    "site",
    "attempt",
    "fragment_rows",
    "wall_ns",
    // Cross-process trace context (carried in wire frames).
    "query_id",
    "parent_span",
];

/// Re-intern a wire string against [`WIRE_INTERN_TABLE`] and the counter
/// field tables. `None` means the name is not one this build emits — the
/// decoder rejects the frame.
pub fn intern_static(s: &str) -> Option<&'static str> {
    WIRE_INTERN_TABLE
        .iter()
        .chain(&EvalStats::FIELDS)
        .chain(&KernelStats::FIELDS)
        .chain(&NetworkStats::FIELDS)
        .find(|&&k| k == s)
        .copied()
}

/// Nanoseconds since the process trace epoch — the scale every span
/// start offset uses, and the coordinator's anchor when re-basing
/// shipped site events onto its own timeline.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Fresh process-unique trace id (nonzero, monotonically increasing).
/// Used for the cross-process trace context: the coordinator stamps each
/// runtime evaluation with one id (`query_id`) and each `site.roundtrip`
/// span with another (`parent_span`), and both ride the wire so site-side
/// flight-recorder events name the coordinator span they belong to.
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render `(key, value)` rows as one JSON object, in the given order.
pub fn json_object<'a>(rows: impl IntoIterator<Item = (&'a str, u64)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in rows.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json_escape(k), v));
    }
    out.push('}');
    out
}

/// Receiver of completed spans. Implementations must be shareable across
/// worker threads.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Record one completed span.
    fn record(&self, event: TraceEvent);

    /// Whether recording does anything — spans skip field collection for
    /// disabled sinks (time is still measured).
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The default sink: drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: TraceEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// An in-memory sink for tests and interactive breakdowns.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl CollectingSink {
    /// Fresh empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of every recorded event, in completion order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink poisoned").clone()
    }

    /// Drain the buffer, returning the events recorded so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace sink poisoned"))
    }

    /// All events with the given span name.
    pub fn by_name(&self, name: &str) -> Vec<TraceEvent> {
        self.events()
            .into_iter()
            .filter(|e| e.name == name)
            .collect()
    }

    /// Sum of a counter field over every span with the given name.
    pub fn sum_field(&self, name: &str, key: &str) -> u64 {
        self.by_name(name).iter().filter_map(|e| e.field(key)).sum()
    }

    /// Total duration of the first span with the given name, if any.
    pub fn duration_of(&self, name: &str) -> Option<Duration> {
        self.by_name(name)
            .first()
            .map(|e| Duration::from_nanos(e.dur_ns))
    }
}

impl TraceSink for CollectingSink {
    fn record(&self, event: TraceEvent) {
        self.events.lock().expect("trace sink poisoned").push(event);
    }
}

/// A sink writing one JSON object per line to a file (the classic
/// "structured log" format every tracing UI can ingest).
#[derive(Debug)]
pub struct JsonLinesSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonLinesSink {
    /// Create (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonLinesSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    /// Flush buffered lines to disk.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("trace sink poisoned").flush()
    }
}

impl TraceSink for JsonLinesSink {
    fn record(&self, event: TraceEvent) {
        let mut out = self.out.lock().expect("trace sink poisoned");
        let _ = writeln!(out, "{}", event.to_json());
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// Default ring capacity of the process-wide [`flight`] recorder.
pub const FLIGHT_CAPACITY: usize = 4096;

/// How many trailing events an automatic failure dump writes to stderr
/// (the full ring stays available via `\flight` / `--flight-dump`).
const FAILURE_DUMP_TAIL: usize = 64;

#[derive(Debug, Default)]
struct FlightRing {
    buf: Vec<TraceEvent>,
    /// Next write position once the ring is full.
    next: usize,
}

/// An always-on, fixed-capacity ring buffer of the most recent spans —
/// the engine's flight recorder. Recording is lock-light (one short
/// mutex hold per completed span; spans are per-morsel / per-partition,
/// never per-row) and never allocates once the ring is warm, so it stays
/// on for every query. When the ring wraps, the overwrite counter makes
/// the loss visible instead of silent: [`FlightRecorder::dropped`] and
/// the `flight_recorder_dropped_events` gauge report how many events
/// fell off the front.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<FlightRing>,
    capacity: usize,
    enabled: AtomicBool,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(FlightRing::default()),
            capacity: capacity.max(1),
            enabled: AtomicBool::new(true),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity (maximum retained events).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Turn recording on/off (off makes `record` a no-op; the retained
    /// events stay readable). Used by the overhead ablation in `repro
    /// bench --no-flight`.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Events overwritten since process start (0 while under capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Retained events oldest-first, plus the overwrite count at the
    /// time of the snapshot.
    pub fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let ring = self.ring.lock().expect("flight recorder poisoned");
        let mut events = Vec::with_capacity(ring.buf.len());
        if ring.buf.len() == self.capacity {
            events.extend_from_slice(&ring.buf[ring.next..]);
            events.extend_from_slice(&ring.buf[..ring.next]);
        } else {
            events.extend_from_slice(&ring.buf);
        }
        drop(ring);
        (events, self.dropped())
    }

    /// Dump the ring as one JSON document:
    /// `{"capacity":…,"dropped":…,"events":[…]}` (events oldest-first).
    pub fn dump_json(&self) -> String {
        let (events, dropped) = self.snapshot();
        let mut out = String::with_capacity(events.len() * 96 + 64);
        out.push_str(&format!(
            "{{\"capacity\":{},\"dropped\":{dropped},\"events\":[",
            self.capacity
        ));
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
        out
    }
}

impl TraceSink for FlightRecorder {
    fn record(&self, event: TraceEvent) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = self.ring.lock().expect("flight recorder poisoned");
        if ring.buf.len() < self.capacity {
            ring.buf.push(event);
        } else {
            let next = ring.next;
            ring.buf[next] = event;
            ring.next = (next + 1) % self.capacity;
            drop(ring);
            let dropped = self.dropped.fetch_add(1, Ordering::Relaxed) + 1;
            if std::ptr::eq(self, Arc::as_ptr(flight())) {
                crate::metrics::global()
                    .gauge_set("flight_recorder_dropped_events", dropped as i64);
            }
        }
    }

    fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// The process-wide flight recorder. Query entry points tee their trace
/// sink into this ring (see [`tee_flight`]), so the last
/// [`FLIGHT_CAPACITY`] spans are always available for postmortems even
/// when the caller traces into [`NullSink`].
pub fn flight() -> &'static Arc<FlightRecorder> {
    static FLIGHT: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
    FLIGHT.get_or_init(|| Arc::new(FlightRecorder::with_capacity(FLIGHT_CAPACITY)))
}

/// Wrap a sink so every event also lands in the process [`flight`]
/// recorder. Apply once at the query entry point — wrapping an
/// already-teed sink would double-record into the ring.
pub fn tee_flight(sink: Arc<dyn TraceSink>) -> Arc<dyn TraceSink> {
    Arc::new(TeeSink::new(sink, flight().clone()))
}

/// Dump the flight recorder's tail to stderr, once per process (repeated
/// failures — e.g. a fuzz batch that compares deliberate errors — don't
/// spam). The full ring remains available via `--flight-dump`.
pub fn flight_dump_on_failure(reason: &str) {
    static DUMPED: AtomicBool = AtomicBool::new(false);
    if DUMPED.swap(true, Ordering::Relaxed) {
        return;
    }
    let (events, dropped) = flight().snapshot();
    let tail_start = events.len().saturating_sub(FAILURE_DUMP_TAIL);
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"reason\":\"{}\",\"dropped\":{dropped},\"omitted\":{},\"events\":[",
        json_escape(reason),
        tail_start
    ));
    for (i, e) in events[tail_start..].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e.to_json());
    }
    out.push_str("]}");
    eprintln!("gmdj flight recorder ({reason}): {out}");
}

/// Dump a *remote* flight-recorder tail — shipped over the wire by a
/// failing site — to stderr, once per process. The remote twin of
/// [`flight_dump_on_failure`], gated separately so one distributed
/// failure produces both the coordinator's tail and the failing
/// site's, side by side.
pub fn flight_dump_remote(reason: &str, dropped: u64, events: &[TraceEvent]) {
    static DUMPED: AtomicBool = AtomicBool::new(false);
    if DUMPED.swap(true, Ordering::Relaxed) {
        return;
    }
    let tail_start = events.len().saturating_sub(FAILURE_DUMP_TAIL);
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"reason\":\"{}\",\"dropped\":{dropped},\"omitted\":{},\"events\":[",
        json_escape(reason),
        tail_start
    ));
    for (i, e) in events[tail_start..].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e.to_json());
    }
    out.push_str("]}");
    eprintln!("gmdj site flight recorder ({reason}): {out}");
}

/// A sink forwarding every event to two sinks (trace fan-out). Used to
/// keep the user's sink and the [`flight`] ring fed from one span
/// stream.
#[derive(Debug, Clone)]
pub struct TeeSink {
    primary: Arc<dyn TraceSink>,
    secondary: Arc<dyn TraceSink>,
}

impl TeeSink {
    /// Tee into `primary` and `secondary`.
    pub fn new(primary: Arc<dyn TraceSink>, secondary: Arc<dyn TraceSink>) -> Self {
        TeeSink { primary, secondary }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, event: TraceEvent) {
        if self.secondary.is_enabled() {
            self.secondary.record(event.clone());
        }
        if self.primary.is_enabled() {
            self.primary.record(event);
        }
    }

    fn is_enabled(&self) -> bool {
        self.primary.is_enabled() || self.secondary.is_enabled()
    }
}

/// An open span. Construct with [`Span::begin`], attach counter deltas
/// with [`Span::field`], and close with [`Span::finish`] — which records
/// the event (when the sink is enabled) and returns the measured
/// duration either way, so callers can use one code path for timing and
/// tracing.
pub struct Span<'a> {
    sink: &'a dyn TraceSink,
    name: &'static str,
    detail: String,
    start: Instant,
    start_ns: u64,
    id: u64,
    fields: Vec<(&'static str, u64)>,
}

impl<'a> Span<'a> {
    /// Open a span now.
    pub fn begin(sink: &'a dyn TraceSink, name: &'static str) -> Self {
        let epoch = epoch();
        let start = Instant::now();
        Span {
            sink,
            name,
            detail: String::new(),
            start,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            id: next_trace_id(),
            fields: Vec::new(),
        }
    }

    /// Nanoseconds since the process trace epoch at span open — the
    /// anchor for re-basing shipped site events inside this span's
    /// window when stitching a cross-process trace.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Process-unique id of this span ([`next_trace_id`]) — the
    /// `parent_span` value a coordinator puts on the wire so site-side
    /// events can name the `site.roundtrip` they belong to.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a free-form qualifier (plan-node label, strategy name …).
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        if self.sink.is_enabled() {
            self.detail = detail.into();
        }
        self
    }

    /// Attach one counter delta. No-op when the sink is disabled.
    pub fn field(&mut self, key: &'static str, value: u64) {
        if self.sink.is_enabled() {
            self.fields.push((key, value));
        }
    }

    /// Attach several counter deltas at once.
    pub fn fields(&mut self, fields: impl IntoIterator<Item = (&'static str, u64)>) {
        if self.sink.is_enabled() {
            self.fields.extend(fields);
        }
    }

    /// Close the span: record it (enabled sinks) and return its duration.
    pub fn finish(self) -> Duration {
        let dur = self.start.elapsed();
        if self.sink.is_enabled() {
            self.sink.record(TraceEvent {
                name: self.name,
                detail: self.detail,
                start_ns: self.start_ns,
                dur_ns: dur.as_nanos() as u64,
                fields: self.fields,
            });
        }
        dur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_collecting_sink() {
        let sink = CollectingSink::new();
        let mut span = Span::begin(&sink, "gmdj.partition").with_detail("p0");
        span.field("detail_scanned", 42);
        span.fields([("theta_evals", 7), ("agg_updates", 3)]);
        let dur = span.finish();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.name, "gmdj.partition");
        assert_eq!(e.detail, "p0");
        assert_eq!(e.field("detail_scanned"), Some(42));
        assert_eq!(e.field("theta_evals"), Some(7));
        assert_eq!(e.field("missing"), None);
        assert_eq!(e.dur_ns, dur.as_nanos() as u64);
        assert_eq!(sink.sum_field("gmdj.partition", "agg_updates"), 3);
    }

    #[test]
    fn null_sink_measures_but_records_nothing() {
        let sink = NullSink;
        let mut span = Span::begin(&sink, "x");
        span.field("k", 1);
        let dur = span.finish();
        assert!(dur.as_nanos() > 0 || dur.is_zero());
        assert!(!sink.is_enabled());
    }

    #[test]
    fn events_order_on_one_timeline() {
        let sink = CollectingSink::new();
        Span::begin(&sink, "a").finish();
        Span::begin(&sink, "b").finish();
        let events = sink.events();
        assert!(events[0].start_ns <= events[1].start_ns);
    }

    #[test]
    fn json_line_format() {
        let e = TraceEvent {
            name: "plan.node",
            detail: "Table(\"x\")".into(),
            start_ns: 5,
            dur_ns: 10,
            fields: vec![("rows_out", 2)],
        };
        assert_eq!(
            e.to_json(),
            "{\"name\":\"plan.node\",\"detail\":\"Table(\\\"x\\\")\",\
             \"start_ns\":5,\"dur_ns\":10,\"fields\":{\"rows_out\":2}}"
        );
        let bare = TraceEvent {
            name: "q",
            detail: String::new(),
            start_ns: 0,
            dur_ns: 1,
            fields: vec![],
        };
        assert_eq!(
            bare.to_json(),
            "{\"name\":\"q\",\"start_ns\":0,\"dur_ns\":1}"
        );
    }

    #[test]
    fn json_fields_are_key_sorted_regardless_of_emission_order() {
        let forward = TraceEvent {
            name: "gmdj.eval",
            detail: String::new(),
            start_ns: 0,
            dur_ns: 1,
            fields: vec![("agg_updates", 3), ("theta_evals", 7)],
        };
        let reversed = TraceEvent {
            fields: vec![("theta_evals", 7), ("agg_updates", 3)],
            ..forward.clone()
        };
        assert_eq!(forward.to_json(), reversed.to_json());
        assert!(forward
            .to_json()
            .contains("{\"agg_updates\":3,\"theta_evals\":7}"));
        // Lookup still honors emission order (first match wins).
        assert_eq!(reversed.field("theta_evals"), Some(7));
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let path = std::env::temp_dir().join("gmdj_trace_test.jsonl");
        {
            let sink = JsonLinesSink::create(&path).unwrap();
            Span::begin(&sink, "a").finish();
            Span::begin(&sink, "b").finish();
            sink.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"a\""));
        assert!(lines[1].contains("\"name\":\"b\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn escaping_covers_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    fn event(name: &'static str, start_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            detail: String::new(),
            start_ns,
            dur_ns: 1,
            fields: vec![],
        }
    }

    #[test]
    fn flight_recorder_retains_a_suffix_with_visible_loss() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            fr.record(event("e", i));
        }
        let (events, dropped) = fr.snapshot();
        assert_eq!(dropped, 2);
        assert_eq!(
            events.iter().map(|e| e.start_ns).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "ring keeps the newest events oldest-first"
        );
        let json = fr.dump_json();
        assert!(json.starts_with("{\"capacity\":3,\"dropped\":2,\"events\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn flight_recorder_below_capacity_is_lossless() {
        let fr = FlightRecorder::with_capacity(8);
        for i in 0..5u64 {
            fr.record(event("e", i));
        }
        let (events, dropped) = fr.snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn flight_recorder_can_be_disabled() {
        let fr = FlightRecorder::with_capacity(4);
        fr.set_enabled(false);
        assert!(!fr.is_enabled());
        fr.record(event("e", 0));
        assert_eq!(fr.snapshot().0.len(), 0);
        fr.set_enabled(true);
        fr.record(event("e", 1));
        assert_eq!(fr.snapshot().0.len(), 1);
    }

    #[test]
    fn tee_sink_feeds_both_sinks() {
        let a = Arc::new(CollectingSink::new());
        let b = Arc::new(FlightRecorder::with_capacity(8));
        let tee = TeeSink::new(a.clone(), b.clone());
        assert!(tee.is_enabled());
        Span::begin(&tee, "x").finish();
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.snapshot().0.len(), 1);
        // A disabled leg is skipped without disabling the tee.
        b.set_enabled(false);
        Span::begin(&tee, "y").finish();
        assert_eq!(a.events().len(), 2);
        assert_eq!(b.snapshot().0.len(), 1);
    }

    #[test]
    fn global_flight_recorder_is_always_on() {
        assert!(flight().is_enabled());
        assert_eq!(flight().capacity(), FLIGHT_CAPACITY);
    }

    #[test]
    fn intern_table_covers_every_emitted_name_and_rejects_strangers() {
        // Every span name in the module table round-trips to the same
        // static, as do the counter families that ride on them.
        for name in [
            "site.eval",
            "gmdj.kernel",
            "detail_scanned",
            "morsels",
            "wall_ns",
        ] {
            let interned = intern_static(name).expect(name);
            assert_eq!(interned, name);
        }
        assert_eq!(intern_static("no.such.span"), None);
        assert_eq!(intern_static(""), None);
        // No duplicates: interning must be unambiguous.
        let mut all = WIRE_INTERN_TABLE.to_vec();
        all.extend(EvalStats::FIELDS);
        all.extend(KernelStats::FIELDS);
        all.extend(NetworkStats::FIELDS);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }
}
