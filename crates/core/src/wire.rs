//! Socket transport for distributed GMDJ sites — the one way
//! [`crate::runtime::ExecMode::Distributed`] reaches its sites.
//!
//! N site executors, each a thread owning a `TcpListener` over its detail
//! fragment ([`SiteCluster`]), and a [`TcpSites`] client the coordinator
//! drives. Each site answers an [`EvalRequestFrame`] by running
//! `distributed::eval_site` over its fragment and shipping a
//! [`StateMatrixFrame`] back; the coordinator builds the one and reads
//! the other directly.
//!
//! # Frame format
//!
//! Every frame is an 11-byte header followed by a length-prefixed
//! payload, all integers little-endian:
//!
//! | offset | size | field                                |
//! |--------|------|--------------------------------------|
//! | 0      | 4    | magic `b"GMDJ"`                      |
//! | 4      | 2    | protocol version ([`WIRE_VERSION`])  |
//! | 6      | 1    | frame type                           |
//! | 7      | 4    | payload length (≤ [`MAX_FRAME_LEN`]) |
//!
//! Frame types: `Hello` / `HelloAck` (handshake, site id echo),
//! `EvalRequest` (broadcast wave: base partition + spec + options — the
//! probe byte: 0 `Auto`, 1 `ForceScan`, 2 `Auto` with ranked access +
//! the cross-process trace context — query id, parent `site.roundtrip`
//! span id, attempt number), `StateMatrix` (state wave: partial
//! accumulators + site counters + the site's `site.eval` wall-clock and
//! span deltas + a byte-count echo of the request the site read),
//! `Error` (site-local evaluation failure — **not** retryable; the same
//! query would fail everywhere), and `FlightRequest` / `FlightTail`
//! (post-mortem fetch of a site's flight-recorder tail, used by the
//! coordinator after retry exhaustion).
//!
//! # Cross-process tracing
//!
//! Site executors run each attempt under their own `CollectingSink`
//! (plus a per-site always-on [`crate::trace::FlightRecorder`]), and the
//! `StateMatrix` wave carries the successful attempt's span deltas back.
//! Span start offsets are site-monotonic and meaningless on the
//! coordinator's clock, so the coordinator re-anchors them inside its
//! `site.roundtrip` window when stitching (durations only — no absolute
//! timestamps cross the boundary). A failed attempt's sink dies with the
//! attempt, so its spans can never reach the stitched tree: retried site
//! work is counted exactly once. Decoded span names and field keys are
//! re-interned against [`crate::trace::WIRE_INTERN_TABLE`] and the
//! counter field tables; unknown strings are decode errors. The site
//! counters ride as each set's field count followed by its values in
//! field-table order ([`crate::counters`]).
//!
//! Decoding is strict: bad magic, unknown version or frame type,
//! lengths beyond [`MAX_FRAME_LEN`], truncated payloads, expression
//! trees deeper than [`MAX_DEPTH`], and trailing payload bytes are all
//! rejected — a garbled length prefix can therefore cost at most one
//! bounded read, never an unbounded allocation or a hang.
//!
//! # Robustness model
//!
//! One TCP connection per round-trip: connect (bounded by
//! `connect_timeout`) → `Hello`/`HelloAck` → `EvalRequest` →
//! `StateMatrix` | `Error` → close, every socket read/write bounded by
//! `io_timeout`. Connect failures, I/O timeouts and decode errors are
//! *retryable*: the coordinator backs off linearly and retries up to
//! `max_attempts` times, then fails the query with a diagnostic carrying
//! the full per-attempt error chain (error, elapsed, backoff applied) —
//! after fetching the failing site's flight-recorder tail over the wire
//! and dumping it next to the coordinator's own. A remote
//! `Error` frame is *non-retryable* — it is a deterministic evaluation
//! error, not a transport fault. Faults injected via [`FaultPlan`] are
//! keyed on the attempt number carried in the request, which makes
//! chaos tests deterministic: a `FirstAttemptOnly` fault must recover
//! via retry, an `Always` fault must exhaust retries and name the site.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gmdj_relation::agg::{Accumulator, AggFunc, NamedAgg};
use gmdj_relation::error::{Error, Result};
use gmdj_relation::expr::{ArithOp, CmpOp, Predicate, ScalarExpr};
use gmdj_relation::relation::{Relation, Tuple};
use gmdj_relation::schema::{ColumnRef, DataType, Field};
use gmdj_relation::value::{Truth, Value};

use crate::distributed::eval_site;
use crate::eval::{EvalStats, KernelStats, ProbeStrategy};
use crate::metrics;
use crate::spec::{AggBlock, GmdjSpec};
use crate::trace::{intern_static, FlightRecorder, TraceEvent, FLIGHT_CAPACITY};

/// Frame magic: the first four bytes of every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"GMDJ";
/// Protocol version; bumped on any frame-layout change.
///
/// * v1 — PR 8: handshake + two-wave eval protocol.
/// * v2 — trace context in `EvalRequest` (query id, parent span id,
///   trace flag), site wall-clock + span deltas in `StateMatrix`, and
///   the `FlightRequest` / `FlightTail` post-mortem frames.
/// * v3 — `EvalRequest` drops the kernel-dispatch flag and the
///   base-partition budget: every site scans through the batched
///   kernels, and plans its probes from the probe strategy alone.
///
///   Two later additions ride v3 without a bump, because a peer built
///   before them rejects them rather than misreading them: the probe
///   byte's value 2 (`Auto` with ranked access admitted), which such a
///   site refuses as a bad probe strategy, and the `rank_lookups` eval
///   counter, which changes only the `StateMatrix` eval set's field
///   count, so either end built with the other table fails the frame
///   with a field-count mismatch.
pub const WIRE_VERSION: u16 = 3;
/// Upper bound on a frame payload. A garbled length prefix beyond this
/// is rejected before any allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;
/// Maximum expression-tree nesting depth accepted by the decoder.
pub const MAX_DEPTH: u32 = 64;

const FT_HELLO: u8 = 1;
const FT_HELLO_ACK: u8 = 2;
const FT_EVAL_REQUEST: u8 = 3;
const FT_STATE_MATRIX: u8 = 4;
const FT_ERROR: u8 = 5;
const FT_FLIGHT_REQUEST: u8 = 6;
const FT_FLIGHT_TAIL: u8 = 7;

/// How many trailing flight-recorder events a site ships in a
/// `FlightTail` (matches the coordinator's own failure-dump tail).
const FLIGHT_TAIL_EVENTS: usize = 64;

// ---------------------------------------------------------------------
// Configuration and fault injection (process-global, like the metrics
// and progress registries: `ExecPolicy` is a Copy value threaded through
// every strategy, so per-run knobs that don't affect answers live here)
// ---------------------------------------------------------------------

/// Timeouts and retry policy for the socket transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// TCP connect deadline per attempt.
    pub connect_timeout: Duration,
    /// Per-operation socket read/write deadline — the per-site deadline
    /// is `connect_timeout + O(1) × io_timeout` per attempt.
    pub io_timeout: Duration,
    /// Total attempts per site round-trip (1 = no retries).
    pub max_attempts: u32,
    /// Linear backoff unit: attempt `k` (1-based retry) sleeps
    /// `backoff × k` before reconnecting.
    pub backoff: Duration,
}

impl WireConfig {
    /// Production defaults: patient enough for loaded CI runners.
    pub const DEFAULT: WireConfig = WireConfig {
        connect_timeout: Duration::from_millis(1000),
        io_timeout: Duration::from_millis(5000),
        max_attempts: 3,
        backoff: Duration::from_millis(50),
    };
}

impl Default for WireConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

static WIRE_CONFIG: Mutex<WireConfig> = Mutex::new(WireConfig::DEFAULT);

/// The process-wide transport configuration new [`TcpSites`] pick up.
pub fn config() -> WireConfig {
    *WIRE_CONFIG.lock().unwrap()
}

/// Replace the process-wide transport configuration (tests shorten the
/// timeouts; the chaos suite serializes around this).
pub fn set_config(cfg: WireConfig) {
    *WIRE_CONFIG.lock().unwrap() = cfg;
}

/// One injectable site fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Site drops the connection after reading the request, before
    /// evaluating.
    CrashBeforeEval,
    /// Site evaluates, then drops the connection instead of responding.
    CrashAfterEval,
    /// Site sends only the first half of its response frame, then drops.
    TruncateFrame,
    /// Site sleeps this long before evaluating (drive it past
    /// `io_timeout` to simulate a straggler the coordinator abandons).
    Delay { ms: u64 },
    /// Site responds with an absurd payload-length prefix
    /// (`u32::MAX` > [`MAX_FRAME_LEN`]).
    GarbleLengthPrefix,
}

/// When a planned fault fires, keyed on the attempt number the request
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWindow {
    /// Fire on attempt 0 only — the retry must recover exactly.
    FirstAttemptOnly,
    /// Fire on every attempt — retries must exhaust into a clean error.
    Always,
}

/// Deterministic fault schedule: which fault fires at which site, and on
/// which attempts. Installed process-wide via [`install_fault_plan`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(usize, Fault, FaultWindow)>,
}

impl FaultPlan {
    /// Empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault for `site`.
    pub fn fault(mut self, site: usize, fault: Fault, window: FaultWindow) -> Self {
        self.entries.push((site, fault, window));
        self
    }

    fn lookup(&self, site: usize, attempt: u32) -> Option<Fault> {
        self.entries
            .iter()
            .find(|(s, _, w)| *s == site && (matches!(w, FaultWindow::Always) || attempt == 0))
            .map(|(_, f, _)| *f)
    }
}

static FAULT_PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Install (or with `None` clear) the process-wide fault plan the site
/// executors consult. Chaos tests serialize installs behind a lock.
pub fn install_fault_plan(plan: Option<FaultPlan>) {
    *FAULT_PLAN.lock().unwrap() = plan;
}

fn active_fault(site: usize, attempt: u32) -> Option<Fault> {
    FAULT_PLAN
        .lock()
        .unwrap()
        .as_ref()
        .and_then(|p| p.lookup(site, attempt))
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A transport-layer failure, classified for the retry loop.
#[derive(Debug)]
pub struct WireError {
    /// Human-readable description.
    pub message: String,
    /// Whether another attempt could plausibly succeed (I/O, timeout,
    /// decode failures) or not (remote evaluation errors).
    pub retryable: bool,
}

impl WireError {
    fn protocol(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
            retryable: true,
        }
    }

    fn fatal(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
            retryable: false,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError {
            message: format!("i/o: {e}"),
            retryable: true,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// The broadcast wave: everything a site needs to evaluate its fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequestFrame {
    /// 0-based attempt number (rides along so site-side fault injection
    /// is deterministic per attempt).
    pub attempt: u32,
    /// Coordinator evaluation id this request belongs to (trace context).
    pub query_id: u64,
    /// The coordinator `site.roundtrip` span id this request rides under
    /// (trace context; site-side spans echo it back as a field).
    pub parent_span: u64,
    /// Whether the site should collect its span deltas and ship them in
    /// the `StateMatrix` wave. Counters and wall-clock ship either way.
    pub trace: bool,
    /// Probe plan selection.
    pub probe: ProbeStrategy,
    /// Ranked access is admitted (a filtered GMDJ under `Auto`). It rides
    /// in the probe byte: 0 `Auto`, 1 `ForceScan`, 2 `Auto` with ranked
    /// access.
    pub ranked: bool,
    /// Aggregates per base row.
    pub total_aggs: u32,
    /// Base partition schema.
    pub base_fields: Vec<Field>,
    /// Base partition rows.
    pub base_rows: Vec<Tuple>,
    /// The GMDJ to evaluate.
    pub spec: GmdjSpec,
}

/// The state wave: the site's partial accumulator matrix plus counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StateMatrixFrame {
    /// Bytes of the `EvalRequest` frame the site read — echoed back so
    /// the coordinator can assert both ends counted the same traffic.
    pub request_bytes: u64,
    /// Detail rows in the site's fragment.
    pub fragment_rows: u64,
    /// Site-local evaluator counters.
    pub stats: EvalStats,
    /// Site-local kernel dispatch mix.
    pub kernel: KernelStats,
    /// The site's `site.eval` wall-clock in nanoseconds — a duration on
    /// the site's own monotonic clock, never an absolute timestamp.
    pub site_wall_ns: u64,
    /// Span deltas from the successful attempt (empty unless the request
    /// asked for tracing). Start offsets are site-monotonic; the
    /// coordinator re-anchors them when stitching.
    pub spans: Vec<TraceEvent>,
    /// `base_rows × total_aggs` partial accumulators, row-major.
    pub accs: Vec<Accumulator>,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → site: open a round-trip with the expected site id.
    Hello { site: u32 },
    /// Site → client: site id confirmed.
    HelloAck { site: u32 },
    /// Client → site: the broadcast wave.
    EvalRequest(Box<EvalRequestFrame>),
    /// Site → client: the state wave.
    StateMatrix(Box<StateMatrixFrame>),
    /// Site → client: deterministic evaluation failure (non-retryable).
    Error { message: String },
    /// Client → site: fetch the site's flight-recorder tail (post-mortem
    /// after retry exhaustion; never part of the eval path, so injected
    /// eval faults cannot block it).
    FlightRequest { site: u32 },
    /// Site → client: the trailing flight-recorder events, plus how many
    /// older events were dropped or omitted before the tail.
    FlightTail {
        dropped: u64,
        events: Vec<TraceEvent>,
    },
}

impl Frame {
    fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello { .. } => FT_HELLO,
            Frame::HelloAck { .. } => FT_HELLO_ACK,
            Frame::EvalRequest(_) => FT_EVAL_REQUEST,
            Frame::StateMatrix(_) => FT_STATE_MATRIX,
            Frame::Error { .. } => FT_ERROR,
            Frame::FlightRequest { .. } => FT_FLIGHT_REQUEST,
            Frame::FlightTail { .. } => FT_FLIGHT_TAIL,
        }
    }
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::protocol("truncated payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> std::result::Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> std::result::Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> std::result::Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> std::result::Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> std::result::Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> std::result::Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::protocol(format!("bad bool byte {b}"))),
        }
    }

    /// Length-prefixed count, additionally bounded by the bytes that
    /// remain: every counted element is at least one byte, so a garbled
    /// count can never drive a huge allocation.
    fn count(&mut self) -> std::result::Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(WireError::protocol(format!(
                "element count {n} exceeds payload"
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> std::result::Result<String, WireError> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::protocol("invalid utf-8"))
    }

    fn done(&self) -> std::result::Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::protocol(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn enc_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            put_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(4);
            out.push(*b as u8);
        }
    }
}

fn dec_value(r: &mut Reader) -> std::result::Result<Value, WireError> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.i64()?),
        2 => Value::Float(r.f64()?),
        3 => Value::Str(r.str()?.into()),
        4 => Value::Bool(r.bool()?),
        t => return Err(WireError::protocol(format!("bad value tag {t}"))),
    })
}

fn enc_column_ref(out: &mut Vec<u8>, c: &ColumnRef) {
    match &c.qualifier {
        Some(q) => {
            out.push(1);
            put_str(out, q);
        }
        None => out.push(0),
    }
    put_str(out, &c.name);
}

fn dec_column_ref(r: &mut Reader) -> std::result::Result<ColumnRef, WireError> {
    let qualifier = match r.u8()? {
        0 => None,
        1 => Some(r.str()?),
        t => return Err(WireError::protocol(format!("bad qualifier tag {t}"))),
    };
    Ok(ColumnRef {
        qualifier,
        name: r.str()?,
    })
}

fn enc_scalar(out: &mut Vec<u8>, e: &ScalarExpr) {
    match e {
        ScalarExpr::Column(c) => {
            out.push(0);
            enc_column_ref(out, c);
        }
        ScalarExpr::Literal(v) => {
            out.push(1);
            enc_value(out, v);
        }
        ScalarExpr::Binary { op, left, right } => {
            out.push(2);
            out.push(match op {
                ArithOp::Add => 0,
                ArithOp::Sub => 1,
                ArithOp::Mul => 2,
                ArithOp::Div => 3,
            });
            enc_scalar(out, left);
            enc_scalar(out, right);
        }
        ScalarExpr::Case {
            branches,
            otherwise,
        } => {
            out.push(3);
            put_u32(out, branches.len() as u32);
            for (p, e) in branches {
                enc_predicate(out, p);
                enc_scalar(out, e);
            }
            match otherwise {
                Some(e) => {
                    out.push(1);
                    enc_scalar(out, e);
                }
                None => out.push(0),
            }
        }
    }
}

fn dec_scalar(r: &mut Reader, depth: u32) -> std::result::Result<ScalarExpr, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::protocol("expression nesting too deep"));
    }
    Ok(match r.u8()? {
        0 => ScalarExpr::Column(dec_column_ref(r)?),
        1 => ScalarExpr::Literal(dec_value(r)?),
        2 => {
            let op = match r.u8()? {
                0 => ArithOp::Add,
                1 => ArithOp::Sub,
                2 => ArithOp::Mul,
                3 => ArithOp::Div,
                t => return Err(WireError::protocol(format!("bad arith op {t}"))),
            };
            ScalarExpr::Binary {
                op,
                left: Box::new(dec_scalar(r, depth + 1)?),
                right: Box::new(dec_scalar(r, depth + 1)?),
            }
        }
        3 => {
            let n = r.count()?;
            let mut branches = Vec::with_capacity(n);
            for _ in 0..n {
                let p = dec_predicate(r, depth + 1)?;
                let e = dec_scalar(r, depth + 1)?;
                branches.push((p, e));
            }
            let otherwise = match r.u8()? {
                0 => None,
                1 => Some(Box::new(dec_scalar(r, depth + 1)?)),
                t => return Err(WireError::protocol(format!("bad otherwise tag {t}"))),
            };
            ScalarExpr::Case {
                branches,
                otherwise,
            }
        }
        t => return Err(WireError::protocol(format!("bad scalar tag {t}"))),
    })
}

fn cmp_op_byte(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_op_from(b: u8) -> std::result::Result<CmpOp, WireError> {
    Ok(match b {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(WireError::protocol(format!("bad cmp op {t}"))),
    })
}

fn enc_predicate(out: &mut Vec<u8>, p: &Predicate) {
    match p {
        Predicate::Literal(t) => {
            out.push(0);
            out.push(match t {
                Truth::True => 0,
                Truth::False => 1,
                Truth::Unknown => 2,
            });
        }
        Predicate::Cmp { op, left, right } => {
            out.push(1);
            out.push(cmp_op_byte(*op));
            enc_scalar(out, left);
            enc_scalar(out, right);
        }
        Predicate::IsNull(e) => {
            out.push(2);
            enc_scalar(out, e);
        }
        Predicate::IsNotNull(e) => {
            out.push(3);
            enc_scalar(out, e);
        }
        Predicate::And(a, b) => {
            out.push(4);
            enc_predicate(out, a);
            enc_predicate(out, b);
        }
        Predicate::Or(a, b) => {
            out.push(5);
            enc_predicate(out, a);
            enc_predicate(out, b);
        }
        Predicate::Not(a) => {
            out.push(6);
            enc_predicate(out, a);
        }
    }
}

fn dec_predicate(r: &mut Reader, depth: u32) -> std::result::Result<Predicate, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::protocol("predicate nesting too deep"));
    }
    Ok(match r.u8()? {
        0 => Predicate::Literal(match r.u8()? {
            0 => Truth::True,
            1 => Truth::False,
            2 => Truth::Unknown,
            t => return Err(WireError::protocol(format!("bad truth byte {t}"))),
        }),
        1 => Predicate::Cmp {
            op: cmp_op_from(r.u8()?)?,
            left: dec_scalar(r, depth + 1)?,
            right: dec_scalar(r, depth + 1)?,
        },
        2 => Predicate::IsNull(dec_scalar(r, depth + 1)?),
        3 => Predicate::IsNotNull(dec_scalar(r, depth + 1)?),
        4 => Predicate::And(
            Box::new(dec_predicate(r, depth + 1)?),
            Box::new(dec_predicate(r, depth + 1)?),
        ),
        5 => Predicate::Or(
            Box::new(dec_predicate(r, depth + 1)?),
            Box::new(dec_predicate(r, depth + 1)?),
        ),
        6 => Predicate::Not(Box::new(dec_predicate(r, depth + 1)?)),
        t => return Err(WireError::protocol(format!("bad predicate tag {t}"))),
    })
}

fn agg_func_byte(f: AggFunc) -> u8 {
    match f {
        AggFunc::CountStar => 0,
        AggFunc::Count => 1,
        AggFunc::CountDistinct => 2,
        AggFunc::Sum => 3,
        AggFunc::Min => 4,
        AggFunc::Max => 5,
        AggFunc::Avg => 6,
    }
}

fn agg_func_from(b: u8) -> std::result::Result<AggFunc, WireError> {
    Ok(match b {
        0 => AggFunc::CountStar,
        1 => AggFunc::Count,
        2 => AggFunc::CountDistinct,
        3 => AggFunc::Sum,
        4 => AggFunc::Min,
        5 => AggFunc::Max,
        6 => AggFunc::Avg,
        t => return Err(WireError::protocol(format!("bad agg func {t}"))),
    })
}

fn enc_spec(out: &mut Vec<u8>, spec: &GmdjSpec) {
    put_u32(out, spec.blocks.len() as u32);
    for block in &spec.blocks {
        enc_predicate(out, &block.theta);
        put_u32(out, block.aggs.len() as u32);
        for agg in &block.aggs {
            out.push(agg_func_byte(agg.func));
            match &agg.input {
                Some(e) => {
                    out.push(1);
                    enc_scalar(out, e);
                }
                None => out.push(0),
            }
            put_str(out, &agg.output);
        }
    }
}

fn dec_spec(r: &mut Reader) -> std::result::Result<GmdjSpec, WireError> {
    let nblocks = r.count()?;
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let theta = dec_predicate(r, 0)?;
        let naggs = r.count()?;
        let mut aggs = Vec::with_capacity(naggs);
        for _ in 0..naggs {
            let func = agg_func_from(r.u8()?)?;
            let input = match r.u8()? {
                0 => None,
                1 => Some(dec_scalar(r, 0)?),
                t => return Err(WireError::protocol(format!("bad agg input tag {t}"))),
            };
            let output = r.str()?;
            aggs.push(NamedAgg {
                func,
                input,
                output,
            });
        }
        blocks.push(AggBlock { theta, aggs });
    }
    Ok(GmdjSpec { blocks })
}

fn data_type_byte(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn data_type_from(b: u8) -> std::result::Result<DataType, WireError> {
    Ok(match b {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        t => return Err(WireError::protocol(format!("bad data type {t}"))),
    })
}

fn enc_accumulator(out: &mut Vec<u8>, a: &Accumulator) {
    match a {
        Accumulator::CountStar { n } => {
            out.push(0);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Accumulator::Count { n } => {
            out.push(1);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Accumulator::CountDistinct { seen } => {
            out.push(2);
            put_u32(out, seen.len() as u32);
            for v in seen {
                enc_value(out, v);
            }
        }
        Accumulator::Sum {
            sum_i,
            sum_f,
            any_float,
            seen,
        } => {
            out.push(3);
            out.extend_from_slice(&sum_i.to_le_bytes());
            put_u64(out, sum_f.to_bits());
            out.push(*any_float as u8);
            out.push(*seen as u8);
        }
        Accumulator::Min { current } => {
            out.push(4);
            enc_opt_value(out, current);
        }
        Accumulator::Max { current } => {
            out.push(5);
            enc_opt_value(out, current);
        }
        Accumulator::Avg { sum, n } => {
            out.push(6);
            put_u64(out, sum.to_bits());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
}

fn enc_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        Some(v) => {
            out.push(1);
            enc_value(out, v);
        }
        None => out.push(0),
    }
}

fn dec_opt_value(r: &mut Reader) -> std::result::Result<Option<Value>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(dec_value(r)?)),
        t => Err(WireError::protocol(format!("bad option tag {t}"))),
    }
}

fn dec_accumulator(r: &mut Reader) -> std::result::Result<Accumulator, WireError> {
    Ok(match r.u8()? {
        0 => Accumulator::CountStar { n: r.i64()? },
        1 => Accumulator::Count { n: r.i64()? },
        2 => {
            let n = r.count()?;
            let mut seen = gmdj_relation::fxhash::FxHashSet::default();
            for _ in 0..n {
                seen.insert(dec_value(r)?);
            }
            Accumulator::CountDistinct { seen }
        }
        3 => Accumulator::Sum {
            sum_i: r.i64()?,
            sum_f: r.f64()?,
            any_float: r.bool()?,
            seen: r.bool()?,
        },
        4 => Accumulator::Min {
            current: dec_opt_value(r)?,
        },
        5 => Accumulator::Max {
            current: dec_opt_value(r)?,
        },
        6 => Accumulator::Avg {
            sum: r.f64()?,
            n: r.i64()?,
        },
        t => return Err(WireError::protocol(format!("bad accumulator tag {t}"))),
    })
}

/// Encode one counter set: its field count, then each value in table
/// order ([`crate::counters`]).
fn enc_counters(out: &mut Vec<u8>, values: &[u64]) {
    out.push(values.len() as u8);
    for &v in values {
        put_u64(out, v);
    }
}

/// Decode a counter set written by [`enc_counters`]. A field count other
/// than this build's table length is a protocol error.
fn dec_counters<const N: usize>(
    r: &mut Reader,
    set: &str,
) -> std::result::Result<[u64; N], WireError> {
    if r.u8()? as usize != N {
        return Err(WireError::protocol(format!(
            "{set} stats field count mismatch"
        )));
    }
    let mut values = [0; N];
    for v in &mut values {
        *v = r.u64()?;
    }
    Ok(values)
}

fn enc_trace_event(out: &mut Vec<u8>, e: &TraceEvent) {
    put_str(out, e.name);
    put_str(out, &e.detail);
    put_u64(out, e.start_ns);
    put_u64(out, e.dur_ns);
    put_u32(out, e.fields.len() as u32);
    for (k, v) in &e.fields {
        put_str(out, k);
        put_u64(out, *v);
    }
}

/// Decode one shipped span. Names and field keys are re-interned against
/// [`crate::trace::WIRE_INTERN_TABLE`] — an unknown string is a protocol
/// error, never a leak into the static lifetime.
fn dec_trace_event(r: &mut Reader) -> std::result::Result<TraceEvent, WireError> {
    let name = r.str()?;
    let name = intern_static(&name)
        .ok_or_else(|| WireError::protocol(format!("unknown span name {name:?}")))?;
    let detail = r.str()?;
    let start_ns = r.u64()?;
    let dur_ns = r.u64()?;
    let n = r.count()?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.str()?;
        let key = intern_static(&key)
            .ok_or_else(|| WireError::protocol(format!("unknown span field {key:?}")))?;
        fields.push((key, r.u64()?));
    }
    Ok(TraceEvent {
        name,
        detail,
        start_ns,
        dur_ns,
        fields,
    })
}

fn enc_payload(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    match frame {
        Frame::Hello { site } | Frame::HelloAck { site } | Frame::FlightRequest { site } => {
            put_u32(&mut out, *site)
        }
        Frame::Error { message } => put_str(&mut out, message),
        Frame::FlightTail { dropped, events } => {
            put_u64(&mut out, *dropped);
            put_u32(&mut out, events.len() as u32);
            for e in events {
                enc_trace_event(&mut out, e);
            }
        }
        Frame::EvalRequest(req) => {
            put_u32(&mut out, req.attempt);
            put_u64(&mut out, req.query_id);
            put_u64(&mut out, req.parent_span);
            out.push(req.trace as u8);
            out.push(match (req.probe, req.ranked) {
                (ProbeStrategy::Auto, false) => 0,
                (ProbeStrategy::ForceScan, _) => 1,
                (ProbeStrategy::Auto, true) => 2,
            });
            put_u32(&mut out, req.total_aggs);
            put_u32(&mut out, req.base_fields.len() as u32);
            for f in &req.base_fields {
                put_str(&mut out, &f.qualifier);
                put_str(&mut out, &f.name);
                out.push(data_type_byte(f.data_type));
            }
            put_u32(&mut out, req.base_rows.len() as u32);
            for row in &req.base_rows {
                put_u32(&mut out, row.len() as u32);
                for v in row.iter() {
                    enc_value(&mut out, v);
                }
            }
            enc_spec(&mut out, &req.spec);
        }
        Frame::StateMatrix(sm) => {
            put_u64(&mut out, sm.request_bytes);
            put_u64(&mut out, sm.fragment_rows);
            enc_counters(&mut out, &sm.stats.values());
            enc_counters(&mut out, &sm.kernel.values());
            put_u64(&mut out, sm.site_wall_ns);
            put_u32(&mut out, sm.spans.len() as u32);
            for e in &sm.spans {
                enc_trace_event(&mut out, e);
            }
            put_u32(&mut out, sm.accs.len() as u32);
            for a in &sm.accs {
                enc_accumulator(&mut out, a);
            }
        }
    }
    out
}

fn dec_payload(frame_type: u8, payload: &[u8]) -> std::result::Result<Frame, WireError> {
    let mut r = Reader::new(payload);
    let frame = match frame_type {
        FT_HELLO => Frame::Hello { site: r.u32()? },
        FT_HELLO_ACK => Frame::HelloAck { site: r.u32()? },
        FT_ERROR => Frame::Error { message: r.str()? },
        FT_FLIGHT_REQUEST => Frame::FlightRequest { site: r.u32()? },
        FT_FLIGHT_TAIL => {
            let dropped = r.u64()?;
            let n = r.count()?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(dec_trace_event(&mut r)?);
            }
            Frame::FlightTail { dropped, events }
        }
        FT_EVAL_REQUEST => {
            let attempt = r.u32()?;
            let query_id = r.u64()?;
            let parent_span = r.u64()?;
            let trace = r.bool()?;
            let (probe, ranked) = match r.u8()? {
                0 => (ProbeStrategy::Auto, false),
                1 => (ProbeStrategy::ForceScan, false),
                2 => (ProbeStrategy::Auto, true),
                t => return Err(WireError::protocol(format!("bad probe strategy {t}"))),
            };
            let total_aggs = r.u32()?;
            let nfields = r.count()?;
            let mut base_fields = Vec::with_capacity(nfields);
            for _ in 0..nfields {
                let qualifier = r.str()?;
                let name = r.str()?;
                let data_type = data_type_from(r.u8()?)?;
                base_fields.push(Field::new(qualifier, name, data_type));
            }
            let nrows = r.count()?;
            let mut base_rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let arity = r.count()?;
                let mut row = Vec::with_capacity(arity);
                for _ in 0..arity {
                    row.push(dec_value(&mut r)?);
                }
                base_rows.push(row.into_boxed_slice());
            }
            let spec = dec_spec(&mut r)?;
            Frame::EvalRequest(Box::new(EvalRequestFrame {
                attempt,
                query_id,
                parent_span,
                trace,
                probe,
                ranked,
                total_aggs,
                base_fields,
                base_rows,
                spec,
            }))
        }
        FT_STATE_MATRIX => {
            let request_bytes = r.u64()?;
            let fragment_rows = r.u64()?;
            let stats = EvalStats::from_values(dec_counters(&mut r, "eval")?);
            let kernel = KernelStats::from_values(dec_counters(&mut r, "kernel")?);
            let site_wall_ns = r.u64()?;
            let nspans = r.count()?;
            let mut spans = Vec::with_capacity(nspans);
            for _ in 0..nspans {
                spans.push(dec_trace_event(&mut r)?);
            }
            let naccs = r.count()?;
            let mut accs = Vec::with_capacity(naccs);
            for _ in 0..naccs {
                accs.push(dec_accumulator(&mut r)?);
            }
            Frame::StateMatrix(Box::new(StateMatrixFrame {
                request_bytes,
                fragment_rows,
                stats,
                kernel,
                site_wall_ns,
                spans,
                accs,
            }))
        }
        t => return Err(WireError::protocol(format!("unknown frame type {t}"))),
    };
    r.done()?;
    Ok(frame)
}

/// Encode one frame to bytes (header + payload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = enc_payload(frame);
    let mut out = Vec::with_capacity(11 + payload.len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(frame.frame_type());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

/// Decode one frame from a complete buffer (header validation included;
/// trailing bytes after the payload are rejected).
pub fn decode_frame(bytes: &[u8]) -> std::result::Result<Frame, WireError> {
    if bytes.len() < 11 {
        return Err(WireError::protocol("frame shorter than its header"));
    }
    let (header, payload) = bytes.split_at(11);
    let len = check_header(header)? as usize;
    if payload.len() != len {
        return Err(WireError::protocol(format!(
            "payload length mismatch: header says {len}, got {}",
            payload.len()
        )));
    }
    dec_payload(header[6], payload)
}

/// Validate an 11-byte header; returns (payload length). Rejects bad
/// magic, foreign versions, and lengths beyond [`MAX_FRAME_LEN`].
fn check_header(header: &[u8]) -> std::result::Result<u32, WireError> {
    if header[0..4] != WIRE_MAGIC {
        return Err(WireError::protocol("bad frame magic"));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(WireError::protocol(format!(
            "unsupported protocol version {version} (expected {WIRE_VERSION})"
        )));
    }
    let len = u32::from_le_bytes(header[7..11].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(WireError::protocol(format!(
            "payload length {len} exceeds the {MAX_FRAME_LEN}-byte frame cap"
        )));
    }
    Ok(len)
}

/// Write one frame to a stream; returns the bytes written.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<u64> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len() as u64)
}

/// Read one frame from a stream; returns it with the bytes consumed.
/// A truncated stream surfaces as a retryable [`WireError`]
/// (`UnexpectedEof` from `read_exact`); a garbled length prefix is
/// rejected by [`MAX_FRAME_LEN`] before any payload read.
pub fn read_frame(r: &mut impl Read) -> std::result::Result<(Frame, u64), WireError> {
    let mut header = [0u8; 11];
    r.read_exact(&mut header)?;
    let len = check_header(&header)? as usize;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let frame = dec_payload(header[6], &payload)?;
    Ok((frame, 11 + len as u64))
}

// ---------------------------------------------------------------------
// Site executors (server side)
// ---------------------------------------------------------------------

/// N socket sites on loopback, each a named thread owning a
/// `TcpListener` and its detail fragment. Fragments are handed to the
/// sites at spawn — in the paper's model each site already owns the
/// detail tuples it produced, which is exactly why GMDJ traffic stays
/// independent of detail cardinality (only base tuples and accumulator
/// states cross the wire). Dropping the cluster stops every site:
/// the stop flag flips, a wake-up connection unblocks each accept loop,
/// and the threads are joined.
pub struct SiteCluster {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl SiteCluster {
    /// Bind one ephemeral loopback listener per fragment and start the
    /// site threads.
    pub fn spawn(fragments: Vec<Relation>) -> Result<SiteCluster> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut addrs = Vec::with_capacity(fragments.len());
        let mut handles = Vec::with_capacity(fragments.len());
        for (site, fragment) in fragments.into_iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| Error::invalid(format!("site{site}: bind failed: {e}")))?;
            let addr = listener
                .local_addr()
                .map_err(|e| Error::invalid(format!("site{site}: local_addr failed: {e}")))?;
            let stop = stop.clone();
            let handle = thread::Builder::new()
                .name(format!("gmdj-site{site}"))
                .spawn(move || serve_site(site, fragment, listener, stop))
                .map_err(|e| Error::invalid(format!("site{site}: spawn failed: {e}")))?;
            addrs.push(addr);
            handles.push(handle);
        }
        Ok(SiteCluster {
            addrs,
            stop,
            handles,
        })
    }

    /// The listen addresses, indexed by site.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }
}

impl Drop for SiteCluster {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for addr in &self.addrs {
            // Wake the accept loop so it observes the stop flag, and let
            // the site close first (see `await_close`).
            if let Ok(mut stream) = TcpStream::connect(addr) {
                await_close(&mut stream, config().io_timeout);
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn serve_site(site: usize, fragment: Relation, listener: TcpListener, stop: Arc<AtomicBool>) {
    // The site's own always-on flight recorder. It outlives individual
    // connections and attempts, so the tail is still there when a
    // coordinator comes back post-mortem with a `FlightRequest`.
    let flight = Arc::new(FlightRecorder::with_capacity(FLIGHT_CAPACITY));
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Connection-level failures (including injected faults) drop the
        // connection; the coordinator's retry loop owns recovery. A panic
        // drops only its connection too: the site keeps serving.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_site_conn(site, &fragment, stream, &flight)
        }));
    }
}

fn handle_site_conn(
    site: usize,
    fragment: &Relation,
    mut stream: TcpStream,
    flight: &Arc<FlightRecorder>,
) -> std::result::Result<(), WireError> {
    let cfg = config();
    stream.set_read_timeout(Some(cfg.io_timeout))?;
    stream.set_write_timeout(Some(cfg.io_timeout))?;
    stream.set_nodelay(true)?;

    let (hello, _) = read_frame(&mut stream)?;
    let Frame::Hello { site: want } = hello else {
        return Err(WireError::protocol("expected Hello"));
    };
    if want != site as u32 {
        let _ = write_frame(
            &mut stream,
            &Frame::Error {
                message: format!("handshake for site{want} reached site{site}"),
            },
        );
        return Ok(());
    }
    write_frame(&mut stream, &Frame::HelloAck { site: site as u32 })?;

    let (frame, request_bytes) = read_frame(&mut stream)?;
    let req = match frame {
        Frame::EvalRequest(req) => req,
        Frame::FlightRequest { site: want } => {
            // Post-mortem path: ship the recorder tail and close. Eval
            // faults are keyed on EvalRequest attempts and cannot fire
            // here.
            if want != site as u32 {
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error {
                        message: format!("flight request for site{want} reached site{site}"),
                    },
                );
                return Ok(());
            }
            let (events, dropped) = flight.snapshot();
            let tail_start = events.len().saturating_sub(FLIGHT_TAIL_EVENTS);
            write_frame(
                &mut stream,
                &Frame::FlightTail {
                    dropped: dropped + tail_start as u64,
                    events: events[tail_start..].to_vec(),
                },
            )?;
            return Ok(());
        }
        _ => return Err(WireError::protocol("expected EvalRequest")),
    };

    let fault = active_fault(site, req.attempt);
    match fault {
        Some(Fault::CrashBeforeEval) => return Ok(()), // drop before evaluating
        Some(Fault::Delay { ms }) => thread::sleep(Duration::from_millis(ms)),
        _ => {}
    }

    let response = match eval_site(site, fragment, &req, flight) {
        Ok(mut state) => {
            state.request_bytes = request_bytes;
            Frame::StateMatrix(Box::new(state))
        }
        Err(e) => Frame::Error {
            message: e.to_string(),
        },
    };

    match fault {
        Some(Fault::CrashAfterEval) => Ok(()), // evaluated, then dropped
        Some(Fault::TruncateFrame) => {
            let bytes = encode_frame(&response);
            stream.write_all(&bytes[..bytes.len() / 2])?;
            Ok(())
        }
        Some(Fault::GarbleLengthPrefix) => {
            let mut bytes = encode_frame(&response);
            bytes[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
            stream.write_all(&bytes)?;
            Ok(())
        }
        _ => {
            write_frame(&mut stream, &response)?;
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator client
// ---------------------------------------------------------------------

/// What one site round-trip cost on the wire, across all its attempts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes written to the site.
    pub bytes_sent: u64,
    /// Bytes read back from the site.
    pub bytes_received: u64,
    /// Attempts the round-trip took (1 = no retries).
    pub attempts: u64,
}

/// The coordinator's client: one TCP round-trip per (partition, site),
/// with bounded retry and backoff per the process [`WireConfig`]. Byte
/// counters cover every attempt — in a fault-free run that is exactly one
/// attempt, so the counters stay deterministic.
pub struct TcpSites {
    addrs: Vec<SocketAddr>,
    cfg: WireConfig,
}

impl TcpSites {
    /// Client over the given site addresses with the process config.
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        TcpSites {
            addrs,
            cfg: config(),
        }
    }

    /// Number of sites this client fans out to.
    pub fn site_count(&self) -> usize {
        self.addrs.len()
    }

    /// Span detail for site `site`'s `site.roundtrip` span.
    pub fn site_label(&self, site: usize) -> String {
        format!("site{site}@{}", self.addrs[site])
    }

    /// One two-wave round-trip: ship `req` (its `attempt` is set per
    /// attempt), let the site evaluate its fragment, return the partial
    /// state matrix with the traffic it took. Either succeeds or fails
    /// with a diagnostic naming the site — never hangs.
    pub fn eval_partition(
        &self,
        site: usize,
        req: EvalRequestFrame,
    ) -> Result<(StateMatrixFrame, Traffic)> {
        let addr = self.addrs[site];
        let m = metrics::global();
        let expected_accs = req.base_rows.len() * req.total_aggs as usize;
        let mut request = Frame::EvalRequest(Box::new(req));
        let mut traffic = Traffic::default();
        // Per-attempt error chain: what failed, how long the attempt
        // took, and the backoff that preceded it — the whole history
        // lands in the exhaustion diagnostic, not just the last error.
        let mut history: Vec<String> = Vec::new();
        for attempt in 0..self.cfg.max_attempts {
            let mut backoff_ms = 0u64;
            if attempt > 0 {
                m.inc("site_retries_total", 1);
                m.inc(&format!("site_retries_total{{site=\"{site}\"}}"), 1);
                let backoff = self.cfg.backoff * attempt;
                backoff_ms = backoff.as_millis() as u64;
                m.inc(
                    &format!("site_backoff_ms_total{{site=\"{site}\"}}"),
                    backoff_ms,
                );
                thread::sleep(backoff);
            }
            if let Frame::EvalRequest(r) = &mut request {
                r.attempt = attempt;
            }
            let started = Instant::now();
            match round_trip(addr, site, &request, expected_accs, &self.cfg, &mut traffic) {
                Ok(state) => {
                    traffic.attempts = attempt as u64 + 1;
                    m.inc(
                        &format!("site_bytes_sent_total{{site=\"{site}\"}}"),
                        traffic.bytes_sent,
                    );
                    m.inc(
                        &format!("site_bytes_received_total{{site=\"{site}\"}}"),
                        traffic.bytes_received,
                    );
                    return Ok((state, traffic));
                }
                Err(e) if e.retryable => {
                    history.push(format!(
                        "attempt {attempt}: {} (elapsed {}ms, backoff {}ms)",
                        e.message,
                        started.elapsed().as_millis(),
                        backoff_ms
                    ));
                    continue;
                }
                Err(e) => {
                    return Err(Error::invalid(format!(
                        "site{site} ({addr}): {}",
                        e.message
                    )))
                }
            }
        }
        // Retries exhausted: fetch the *failing site's* flight-recorder
        // tail over the wire and dump it next to the coordinator's own,
        // then fail with the full per-attempt error chain.
        let chain = history.join("; ");
        match fetch_flight_tail(addr, site, &self.cfg) {
            Ok((dropped, events)) => crate::trace::flight_dump_remote(
                &format!("site{site} ({addr}) retries exhausted"),
                dropped,
                &events,
            ),
            Err(e) => eprintln!(
                "gmdj: site{site} ({addr}) flight-tail fetch failed after retry exhaustion: {e}"
            ),
        }
        crate::trace::flight_dump_on_failure(&format!(
            "site{site} ({addr}) retries exhausted: {chain}"
        ));
        Err(Error::invalid(format!(
            "site{site} ({addr}) failed after {} attempts: {chain}",
            self.cfg.max_attempts
        )))
    }
}

/// Wait (bounded) for the site to close its end. The side that closes a
/// TCP connection first holds its port in TIME_WAIT for a minute; the
/// site's port is its listener's, while the coordinator's would be a
/// fresh ephemeral port per connection, and every evaluation spawns new
/// sites — so back-to-back distributed queries would run the host out
/// of ephemeral ports if the coordinator closed first.
fn await_close(stream: &mut TcpStream, timeout: Duration) {
    if stream.set_read_timeout(Some(timeout)).is_ok() {
        let _ = stream.read(&mut [0u8; 1]);
    }
}

/// Post-mortem fetch of a site's flight-recorder tail (fresh connection,
/// outside the eval path — injected eval faults cannot block it).
fn fetch_flight_tail(
    addr: SocketAddr,
    site: usize,
    cfg: &WireConfig,
) -> std::result::Result<(u64, Vec<TraceEvent>), WireError> {
    let mut stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
    stream.set_read_timeout(Some(cfg.io_timeout))?;
    stream.set_write_timeout(Some(cfg.io_timeout))?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &Frame::Hello { site: site as u32 })?;
    match read_frame(&mut stream)?.0 {
        Frame::HelloAck { site: s } if s == site as u32 => {}
        other => {
            return Err(WireError::protocol(format!(
                "expected HelloAck, got {other:?}"
            )))
        }
    }
    write_frame(&mut stream, &Frame::FlightRequest { site: site as u32 })?;
    match read_frame(&mut stream)?.0 {
        Frame::FlightTail { dropped, events } => Ok((dropped, events)),
        Frame::Error { message } => Err(WireError::fatal(message)),
        other => Err(WireError::protocol(format!(
            "expected FlightTail, got {other:?}"
        ))),
    }
}

/// Record one frame round-trip latency into the labeled per-site
/// histogram family `site_frame_us{frame="…",site="N"}`.
fn observe_frame_latency(frame: &str, site: usize, started: Instant) {
    metrics::global().observe(
        &format!("site_frame_us{{frame=\"{frame}\",site=\"{site}\"}}"),
        started.elapsed().as_micros() as u64,
    );
}

/// One attempt: connect, handshake, broadcast, collect. Byte counters
/// accumulate into `traffic` even on failure — they measure real traffic,
/// and every successful fault-free run performs exactly the same writes
/// and reads.
fn round_trip(
    addr: SocketAddr,
    site: usize,
    request: &Frame,
    expected_accs: usize,
    cfg: &WireConfig,
    traffic: &mut Traffic,
) -> std::result::Result<StateMatrixFrame, WireError> {
    let mut stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
    stream.set_read_timeout(Some(cfg.io_timeout))?;
    stream.set_write_timeout(Some(cfg.io_timeout))?;
    stream.set_nodelay(true)?;

    let t_hello = Instant::now();
    traffic.bytes_sent += write_frame(&mut stream, &Frame::Hello { site: site as u32 })?;
    let (ack, n) = read_frame(&mut stream)?;
    traffic.bytes_received += n;
    observe_frame_latency("hello", site, t_hello);
    match ack {
        Frame::HelloAck { site: s } if s == site as u32 => {}
        Frame::Error { message } => return Err(WireError::fatal(message)),
        other => {
            return Err(WireError::protocol(format!(
                "expected HelloAck, got {other:?}"
            )))
        }
    }

    let t_eval = Instant::now();
    let request_bytes = write_frame(&mut stream, request)?;
    traffic.bytes_sent += request_bytes;
    observe_frame_latency("eval_request", site, t_eval);

    let t_state = Instant::now();
    let (response, n) = read_frame(&mut stream)?;
    traffic.bytes_received += n;
    observe_frame_latency("state_matrix", site, t_state);
    match response {
        Frame::StateMatrix(sm) => {
            if sm.request_bytes != request_bytes {
                return Err(WireError::protocol(format!(
                    "request byte echo mismatch: sent {request_bytes}, site read {}",
                    sm.request_bytes
                )));
            }
            if sm.accs.len() != expected_accs {
                return Err(WireError::protocol(format!(
                    "state matrix arity mismatch: {} accumulators where {expected_accs} were due",
                    sm.accs.len(),
                )));
            }
            await_close(&mut stream, cfg.io_timeout);
            Ok(*sm)
        }
        Frame::Error { message } => Err(WireError::fatal(format!(
            "remote evaluation failed: {message}"
        ))),
        other => Err(WireError::protocol(format!(
            "expected StateMatrix, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AggBlock;
    use gmdj_relation::expr::col;

    #[test]
    fn hello_round_trips() {
        let frame = Frame::Hello { site: 7 };
        let bytes = encode_frame(&frame);
        assert_eq!(&bytes[0..4], b"GMDJ");
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    #[test]
    fn garbled_length_prefix_is_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame::Hello { site: 0 });
        bytes[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(err.message.contains("frame cap"), "{}", err.message);
        assert!(err.retryable);
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let bytes = encode_frame(&Frame::Error {
            message: "boom".into(),
        });
        let half = &bytes[..bytes.len() / 2];
        assert!(read_frame(&mut &half[..]).is_err());
    }

    #[test]
    fn spec_round_trips_through_an_eval_request() {
        let spec = GmdjSpec::new(vec![AggBlock::count(col("F.T").ge(col("B.Lo")), "cnt")]);
        let frame = Frame::EvalRequest(Box::new(EvalRequestFrame {
            attempt: 2,
            query_id: 41,
            parent_span: 97,
            trace: true,
            probe: ProbeStrategy::Auto,
            ranked: false,
            total_aggs: 1,
            base_fields: vec![Field::new("B", "Lo", DataType::Int)],
            base_rows: vec![vec![Value::Int(5)].into_boxed_slice()],
            spec,
        }));
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    fn sample_event() -> TraceEvent {
        TraceEvent {
            name: "site.eval",
            detail: "site3".into(),
            start_ns: 120,
            dur_ns: 999,
            fields: vec![("site", 3), ("attempt", 1), ("detail_scanned", 40)],
        }
    }

    #[test]
    fn flight_tail_round_trips_with_interned_names() {
        let frame = Frame::FlightTail {
            dropped: 7,
            events: vec![sample_event()],
        };
        let bytes = encode_frame(&frame);
        let decoded = decode_frame(&bytes).unwrap();
        assert_eq!(decoded, frame);
        // The decoded name is re-interned, not a leaked allocation.
        let Frame::FlightTail { events, .. } = decoded else {
            unreachable!()
        };
        assert!(
            std::ptr::eq(events[0].name.as_ptr(), "site.eval".as_ptr())
                || events[0].name == "site.eval"
        );
    }

    #[test]
    fn unknown_span_names_are_decode_errors() {
        // Hand-build a FlightTail whose event name is not in the intern
        // table: strict decode must reject it.
        let mut payload = Vec::new();
        put_u64(&mut payload, 0); // dropped
        put_u32(&mut payload, 1); // one event
        put_str(&mut payload, "no.such.span");
        put_str(&mut payload, "");
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 0);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.push(FT_FLIGHT_TAIL);
        put_u32(&mut bytes, payload.len() as u32);
        bytes.extend_from_slice(&payload);
        let err = decode_frame(&bytes).unwrap_err();
        assert!(err.message.contains("unknown span name"), "{}", err.message);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of one frame per wave, with every stats field
    /// distinct and non-zero: the counter codec's field order is part of
    /// the protocol version, and a reordered or dropped field must fail
    /// here, not only in a round trip that reorders both ends alike.
    #[test]
    fn frames_encode_to_pinned_bytes() {
        let request = Frame::EvalRequest(Box::new(EvalRequestFrame {
            attempt: 2,
            query_id: 41,
            parent_span: 97,
            trace: true,
            probe: ProbeStrategy::Auto,
            ranked: false,
            total_aggs: 1,
            base_fields: vec![Field::new("B", "Lo", DataType::Int)],
            base_rows: vec![vec![Value::Int(5)].into_boxed_slice()],
            spec: GmdjSpec::new(vec![AggBlock::count(col("F.T").ge(col("B.Lo")), "cnt")]),
        }));
        let state = Frame::StateMatrix(Box::new(StateMatrixFrame {
            request_bytes: 100,
            fragment_rows: 9,
            stats: EvalStats {
                detail_scanned: 1,
                probe_candidates: 2,
                theta_evals: 3,
                agg_updates: 4,
                base_rows: 5,
                dead_early: 6,
                done_early: 7,
                index_builds: 8,
                partitions: 9,
                completion_fallbacks: 10,
                col_chunk_reads: 11,
                row_page_reads: 12,
                rank_lookups: 17,
            },
            kernel: KernelStats {
                batches: 13,
                rows_vectorized: 14,
                rows_row_path: 15,
                morsels: 16,
            },
            site_wall_ns: 1234,
            spans: vec![sample_event()],
            accs: vec![Accumulator::CountStar { n: 4 }],
        }));
        let Frame::EvalRequest(req) = &request else {
            unreachable!()
        };
        let ranked_request = Frame::EvalRequest(Box::new(EvalRequestFrame {
            ranked: true,
            ..(**req).clone()
        }));
        // Protocol version 3's layout: a codec change that alters these
        // bytes must also bump WIRE_VERSION, except for the additions the
        // `WIRE_VERSION` doc lists, which an older peer rejects.
        let pinned_request = concat!(
            "474d444a03000367000000020000002900000000000000610000000000000001",
            "0001000000010000000100000042020000004c6f000100000001000000010500",
            "0000000000000100000001050001010000004601000000540001010000004202",
            "0000004c6f01000000000003000000636e74",
        );
        // The same request admitting ranked access: probe byte 2.
        let pinned_ranked_request = concat!(
            "474d444a03000367000000020000002900000000000000610000000000000001",
            "0201000000010000000100000042020000004c6f000100000001000000010500",
            "0000000000000100000001050001010000004601000000540001010000004202",
            "0000004c6f01000000000003000000636e74",
        );
        let pinned_state = concat!(
            "474d444a0300041a010000640000000000000009000000000000000d01000000",
            "0000000002000000000000000300000000000000040000000000000005000000",
            "0000000006000000000000000700000000000000080000000000000009000000",
            "000000000a000000000000000b000000000000000c0000000000000011000000",
            "00000000040d000000000000000e000000000000000f00000000000000100000",
            "0000000000d2040000000000000100000009000000736974652e6576616c0500",
            "000073697465337800000000000000e703000000000000030000000400000073",
            "697465030000000000000007000000617474656d707401000000000000000e00",
            "000064657461696c5f7363616e6e656428000000000000000100000000040000",
            "0000000000",
        );
        for (frame, pinned) in [
            (&request, pinned_request),
            (&ranked_request, pinned_ranked_request),
            (&state, pinned_state),
        ] {
            let bytes = encode_frame(frame);
            assert_eq!(hex(&bytes), pinned);
            assert_eq!(&decode_frame(&bytes).unwrap(), frame);
        }
    }

    /// One raw round-trip against a live site: handshake, then `frame`,
    /// then the site's reply.
    fn ask(addr: SocketAddr, frame: &Frame) -> Frame {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &Frame::Hello { site: 0 }).unwrap();
        assert_eq!(
            read_frame(&mut stream).unwrap().0,
            Frame::HelloAck { site: 0 }
        );
        write_frame(&mut stream, frame).unwrap();
        read_frame(&mut stream).unwrap().0
    }

    /// Requests that decode cleanly but cannot describe an evaluation —
    /// an aggregate count the spec does not have, a base row shorter
    /// than its schema — get a non-retryable `Error` frame, and the same
    /// site then still answers a valid request.
    #[test]
    fn malformed_requests_get_an_error_and_the_site_keeps_serving() {
        use gmdj_relation::relation::RelationBuilder;
        let fragment = RelationBuilder::new("R")
            .column("k", DataType::Int)
            .row(vec![1.into()])
            .row(vec![2.into()])
            .build()
            .unwrap();
        let cluster = SiteCluster::spawn(vec![fragment]).unwrap();
        let addr = cluster.addrs()[0];
        let valid = EvalRequestFrame {
            attempt: 0,
            query_id: 1,
            parent_span: 1,
            trace: false,
            probe: ProbeStrategy::Auto,
            ranked: false,
            total_aggs: 1,
            base_fields: vec![Field::new("B", "k", DataType::Int)],
            base_rows: vec![
                vec![Value::Int(1)].into_boxed_slice(),
                vec![Value::Int(2)].into_boxed_slice(),
            ],
            spec: GmdjSpec::new(vec![AggBlock::count(col("B.k").eq(col("R.k")), "cnt")]),
        };
        let too_many_aggs = EvalRequestFrame {
            total_aggs: 2,
            ..valid.clone()
        };
        let short_row = EvalRequestFrame {
            base_rows: vec![Vec::new().into_boxed_slice()],
            ..valid.clone()
        };
        for bad in [too_many_aggs, short_row] {
            let reply = ask(addr, &Frame::EvalRequest(Box::new(bad)));
            assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");
        }
        let Frame::StateMatrix(state) = ask(addr, &Frame::EvalRequest(Box::new(valid))) else {
            panic!("the site stopped answering valid requests");
        };
        assert_eq!(state.accs, vec![Accumulator::CountStar { n: 1 }; 2]);
    }

    #[test]
    fn state_matrix_ships_wall_clock_and_spans() {
        let frame = Frame::StateMatrix(Box::new(StateMatrixFrame {
            request_bytes: 100,
            fragment_rows: 9,
            stats: EvalStats::default(),
            kernel: KernelStats::default(),
            site_wall_ns: 1234,
            spans: vec![sample_event()],
            accs: vec![Accumulator::CountStar { n: 4 }],
        }));
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }
}
