//! Live query-progress tracking: a process-wide registry of the queries
//! currently executing, fed cheaply from the execution hot loops.
//!
//! Every query run through the engine's strategy layer registers a
//! [`QueryProgress`] handle (via [`ProgressRegistry::register`]) carrying
//! its SQL, strategy and policy labels. The runtime then feeds it with
//! relaxed atomic adds from exactly the places that already count work:
//!
//! * the morsel pass in [`crate::shared`] (`morsel_pass`), which every
//!   local policy runs: each worker ticks the scheduled morsels its ranges
//!   account for and adds the rows it scanned (a pooled query is ticked
//!   once its shared pass returns), and
//! * the distributed coordinator in [`crate::runtime`]: one tick per
//!   site fragment.
//!
//! `morsels_total` is known up front (PR 6's morsel-driven execution
//! made the schedule closed-form — see [`crate::runtime`]), so progress
//! is a true fraction, not a heuristic: the invariant `morsels_done ≤
//! morsels_total` holds throughout and `morsels_done == morsels_total`
//! at successful completion (asserted in `tests/observability.rs`).
//!
//! The ETA comes from observed morsel throughput
//! (`elapsed · remaining / done`). As a cross-check against the cost
//! model, each entry also carries the optimizer's predicted cost
//! ([`crate::cost::estimate`], the same units [`crate::cost::observed_cost`]
//! folds runtime counters back into) and an alternative
//! `eta_cost_ms` extrapolated from predicted-vs-scanned tuples; when the
//! two ETAs disagree wildly the cost model is mispredicting, which is
//! itself a useful live signal.
//!
//! Snapshots render as the `queries` JSON consumed by the SQL shell's
//! `\queries`, the `/queries` HTTP endpoint ([`crate::serve`]) and the
//! profile's `progress` section — validated against
//! `schemas/queries.schema.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::trace::json_escape;

/// Schema version of the queries/progress JSON render.
/// v2: every entry carries a `state` field (`queued` → `coalescing` →
/// `running`) so submitted-but-not-started queries are visible.
pub const QUERIES_VERSION: u64 = 2;

/// Identifier of one registered query, unique within the process.
pub type QueryId = u64;

/// Live progress state of one executing query. Shared between the
/// registering thread and the workers feeding it; every counter is a
/// relaxed atomic so hot-loop updates cost one uncontended RMW.
#[derive(Debug)]
pub struct QueryProgress {
    id: QueryId,
    sql: String,
    strategy: String,
    policy: String,
    started: Instant,
    rows_done: AtomicU64,
    morsels_done: AtomicU64,
    morsels_total: AtomicU64,
    /// Optimizer-predicted total cost in `cost::Cost::total()` units
    /// (rounded; 0 = no prediction available).
    predicted_cost: AtomicU64,
    /// Optimizer-predicted detail/scan tuples (`cost.io`), the live
    /// cross-check denominator for `eta_cost_ms`.
    predicted_io: AtomicU64,
    phase: Mutex<String>,
    /// Submission lifecycle: `queued` (registered, not yet executing),
    /// `coalescing` (waiting in a shared-scan batch window — see
    /// [`crate::shared`]), `running` (plan walking / scanning).
    state: Mutex<String>,
}

impl QueryProgress {
    /// Query id (process-unique, monotonically assigned).
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Add scanned detail rows (relaxed; hot path).
    pub fn add_rows(&self, n: u64) {
        if n > 0 {
            self.rows_done.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Mark `n` morsels completed (relaxed; hot path).
    pub fn add_morsels_done(&self, n: u64) {
        if n > 0 {
            self.morsels_done.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Announce `n` more scheduled morsels. Called once per GMDJ
    /// evaluation with the closed-form schedule size, *before* any
    /// worker starts, so `morsels_done ≤ morsels_total` holds at every
    /// instant.
    pub fn add_morsels_total(&self, n: u64) {
        if n > 0 {
            self.morsels_total.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record the optimizer's prediction for this query (cost-model
    /// units + scan tuples), once known at plan time.
    pub fn set_prediction(&self, cost_total: f64, cost_io: f64) {
        self.predicted_cost
            .store(cost_total.max(0.0).round() as u64, Ordering::Relaxed);
        self.predicted_io
            .store(cost_io.max(0.0).round() as u64, Ordering::Relaxed);
    }

    /// Set the current phase label (plan-node description).
    pub fn set_phase(&self, phase: &str) {
        if let Ok(mut p) = self.phase.lock() {
            p.clear();
            p.push_str(phase);
        }
    }

    /// Set the submission lifecycle state (`queued` / `coalescing` /
    /// `running`).
    pub fn set_state(&self, state: &str) {
        if let Ok(mut s) = self.state.lock() {
            s.clear();
            s.push_str(state);
        }
    }

    /// Current submission lifecycle state.
    pub fn state(&self) -> String {
        self.state.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Rows scanned so far.
    pub fn rows_done(&self) -> u64 {
        self.rows_done.load(Ordering::Relaxed)
    }

    /// Morsels completed so far.
    pub fn morsels_done(&self) -> u64 {
        self.morsels_done.load(Ordering::Relaxed)
    }

    /// Morsels scheduled in total (so far announced).
    pub fn morsels_total(&self) -> u64 {
        self.morsels_total.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot for rendering.
    pub fn snapshot(&self) -> QuerySnapshot {
        let elapsed_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let done = self.morsels_done();
        let total = self.morsels_total();
        // ETA from observed morsel throughput: elapsed · remaining/done.
        let eta_ms = if done > 0 && total > done {
            (elapsed_ms * (total - done) as f64 / done as f64).round() as u64
        } else {
            0
        };
        // Cost-model cross-check: extrapolate from predicted scan
        // tuples instead of morsels. Diverging ETAs expose optimizer
        // misprediction live.
        let rows = self.rows_done();
        let predicted_io = self.predicted_io.load(Ordering::Relaxed);
        let eta_cost_ms = if rows > 0 && predicted_io > rows {
            (elapsed_ms * (predicted_io - rows) as f64 / rows as f64).round() as u64
        } else {
            0
        };
        QuerySnapshot {
            id: self.id,
            sql: self.sql.clone(),
            strategy: self.strategy.clone(),
            policy: self.policy.clone(),
            state: self.state(),
            phase: self.phase.lock().map(|p| p.clone()).unwrap_or_default(),
            elapsed_ms: elapsed_ms.round() as u64,
            rows_done: rows,
            morsels_done: done,
            morsels_total: total,
            eta_ms,
            predicted_cost: self.predicted_cost.load(Ordering::Relaxed),
            eta_cost_ms,
        }
    }
}

/// A rendered point-in-time view of one query's progress. `eta_ms` /
/// `eta_cost_ms` are 0 when unknown (no morsel finished yet, or the
/// query is at/over its predicted work).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySnapshot {
    pub id: QueryId,
    pub sql: String,
    pub strategy: String,
    pub policy: String,
    pub state: String,
    pub phase: String,
    pub elapsed_ms: u64,
    pub rows_done: u64,
    pub morsels_done: u64,
    pub morsels_total: u64,
    pub eta_ms: u64,
    pub predicted_cost: u64,
    pub eta_cost_ms: u64,
}

impl QuerySnapshot {
    /// One JSON object (key order fixed, matching
    /// `schemas/queries.schema.json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"sql\":\"{}\",\"strategy\":\"{}\",\"policy\":\"{}\",\
             \"state\":\"{}\",\"phase\":\"{}\",\"elapsed_ms\":{},\"rows_done\":{},\
             \"morsels_done\":{},\"morsels_total\":{},\"eta_ms\":{},\
             \"predicted_cost\":{},\"eta_cost_ms\":{}}}",
            self.id,
            json_escape(&self.sql),
            json_escape(&self.strategy),
            json_escape(&self.policy),
            json_escape(&self.state),
            json_escape(&self.phase),
            self.elapsed_ms,
            self.rows_done,
            self.morsels_done,
            self.morsels_total,
            self.eta_ms,
            self.predicted_cost,
            self.eta_cost_ms
        )
    }
}

/// Cumulative totals over every query this registry has seen (finished
/// queries fold their final counts in on deregistration; active queries
/// are counted live in [`ProgressRegistry::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressTotals {
    pub queries_started: u64,
    pub queries_finished: u64,
    pub rows_done: u64,
    pub morsels_done: u64,
    pub morsels_total: u64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    next_id: QueryId,
    active: Vec<Arc<QueryProgress>>,
    finished: ProgressTotals,
}

/// Registry of active queries. Usually accessed through [`global`];
/// independently constructible for tests.
#[derive(Debug, Default)]
pub struct ProgressRegistry {
    inner: Mutex<RegistryInner>,
}

impl ProgressRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a query that is starting now. The returned ticket keeps
    /// the query listed; dropping it (normally or on unwind) folds the
    /// final counts into the cumulative totals and delists the query.
    pub fn register(
        &'static self,
        sql: impl Into<String>,
        strategy: impl Into<String>,
        policy: impl Into<String>,
    ) -> ProgressTicket {
        let mut inner = self.inner.lock().expect("progress registry poisoned");
        inner.next_id += 1;
        let progress = Arc::new(QueryProgress {
            id: inner.next_id,
            sql: sql.into(),
            strategy: strategy.into(),
            policy: policy.into(),
            started: Instant::now(),
            rows_done: AtomicU64::new(0),
            morsels_done: AtomicU64::new(0),
            morsels_total: AtomicU64::new(0),
            predicted_cost: AtomicU64::new(0),
            predicted_io: AtomicU64::new(0),
            phase: Mutex::new(String::new()),
            state: Mutex::new("queued".to_string()),
        });
        inner.active.push(progress.clone());
        inner.finished.queries_started += 1;
        let active = inner.active.len();
        drop(inner);
        self.sync_active_gauge(active);
        ProgressTicket {
            registry: self,
            progress,
        }
    }

    fn deregister(&self, id: QueryId) {
        let mut inner = self.inner.lock().expect("progress registry poisoned");
        if let Some(pos) = inner.active.iter().position(|p| p.id == id) {
            let p = inner.active.swap_remove(pos);
            inner.finished.queries_finished += 1;
            inner.finished.rows_done += p.rows_done();
            inner.finished.morsels_done += p.morsels_done();
            inner.finished.morsels_total += p.morsels_total();
        }
        let active = inner.active.len();
        drop(inner);
        self.sync_active_gauge(active);
    }

    /// Keep the `queries_active` gauge in step — but only for the
    /// process-global registry, so test-local registries don't fight
    /// over the global gauge.
    fn sync_active_gauge(&self, active: usize) {
        if std::ptr::eq(self, global()) {
            crate::metrics::global().gauge_set("queries_active", active as i64);
        }
    }

    /// Snapshots of every active query (registration order) plus
    /// cumulative totals including the active queries' current counts.
    pub fn snapshot(&self) -> (Vec<QuerySnapshot>, ProgressTotals) {
        let inner = self.inner.lock().expect("progress registry poisoned");
        let mut active: Vec<QuerySnapshot> = inner.active.iter().map(|p| p.snapshot()).collect();
        active.sort_by_key(|s| s.id);
        let mut totals = inner.finished;
        drop(inner);
        for s in &active {
            totals.rows_done += s.rows_done;
            totals.morsels_done += s.morsels_done;
            totals.morsels_total += s.morsels_total;
        }
        (active, totals)
    }

    /// The `queries` JSON document:
    /// `{"version":…,"active":[…],"totals":{…}}`.
    pub fn render_json(&self) -> String {
        let (active, totals) = self.snapshot();
        let mut out = String::with_capacity(128 + active.len() * 160);
        out.push_str(&format!("{{\"version\":{QUERIES_VERSION},\"active\":["));
        for (i, s) in active.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str(&format!(
            "],\"totals\":{{\"queries_started\":{},\"queries_finished\":{},\
             \"rows_done\":{},\"morsels_done\":{},\"morsels_total\":{}}}}}",
            totals.queries_started,
            totals.queries_finished,
            totals.rows_done,
            totals.morsels_done,
            totals.morsels_total
        ));
        out
    }
}

/// RAII registration: keeps the query listed while alive, folds its
/// final counts into the registry totals on drop (including unwinds, so
/// a panicking query doesn't stay listed forever).
#[derive(Debug)]
pub struct ProgressTicket {
    registry: &'static ProgressRegistry,
    progress: Arc<QueryProgress>,
}

impl ProgressTicket {
    /// The shared progress handle to thread into the runtime.
    pub fn progress(&self) -> Arc<QueryProgress> {
        self.progress.clone()
    }
}

impl Drop for ProgressTicket {
    fn drop(&mut self) {
        self.registry.deregister(self.progress.id);
    }
}

/// The process-wide registry the engine's query entry points report
/// into; the shell, the profile render and the HTTP `/queries` endpoint
/// all read it.
pub fn global() -> &'static ProgressRegistry {
    static GLOBAL: OnceLock<ProgressRegistry> = OnceLock::new();
    GLOBAL.get_or_init(ProgressRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak(r: ProgressRegistry) -> &'static ProgressRegistry {
        Box::leak(Box::new(r))
    }

    #[test]
    fn register_feeds_snapshot_and_totals() {
        let reg = leak(ProgressRegistry::new());
        let t = reg.register("SELECT 1", "gmdj-opt", "parallel(4)");
        let p = t.progress();
        p.add_morsels_total(10);
        p.add_morsels_done(4);
        p.add_rows(4096);
        p.set_phase("Gmdj");
        let (active, totals) = reg.snapshot();
        assert_eq!(active.len(), 1);
        let s = &active[0];
        assert_eq!(s.sql, "SELECT 1");
        assert_eq!(s.strategy, "gmdj-opt");
        assert_eq!(s.policy, "parallel(4)");
        assert_eq!(s.phase, "Gmdj");
        assert_eq!(
            (s.morsels_done, s.morsels_total, s.rows_done),
            (4, 10, 4096)
        );
        assert_eq!(totals.queries_started, 1);
        assert_eq!(totals.queries_finished, 0);
        assert_eq!(totals.morsels_done, 4);
        drop(t);
        let (active, totals) = reg.snapshot();
        assert!(active.is_empty());
        assert_eq!(totals.queries_finished, 1);
        assert_eq!(totals.morsels_done, 4);
        assert_eq!(totals.morsels_total, 10);
        assert_eq!(totals.rows_done, 4096);
    }

    #[test]
    fn state_starts_queued_and_tracks_lifecycle() {
        let reg = leak(ProgressRegistry::new());
        let t = reg.register("q", "s", "p");
        let p = t.progress();
        assert_eq!(p.state(), "queued");
        assert_eq!(p.snapshot().state, "queued");
        p.set_state("coalescing");
        assert_eq!(p.snapshot().state, "coalescing");
        p.set_state("running");
        let json = reg.render_json();
        assert!(json.contains("\"state\":\"running\""), "{json}");
    }

    #[test]
    fn eta_comes_from_morsel_throughput() {
        let reg = leak(ProgressRegistry::new());
        let t = reg.register("q", "s", "p");
        let p = t.progress();
        p.add_morsels_total(100);
        std::thread::sleep(std::time::Duration::from_millis(20));
        p.add_morsels_done(50);
        let s = p.snapshot();
        // 50/100 done: remaining ≈ elapsed.
        assert!(s.eta_ms > 0, "{s:?}");
        assert!(s.eta_ms <= s.elapsed_ms.max(1) * 2, "{s:?}");
        p.add_morsels_done(50);
        assert_eq!(p.snapshot().eta_ms, 0, "complete ⇒ no ETA");
    }

    #[test]
    fn cost_cross_check_uses_predicted_io() {
        let reg = leak(ProgressRegistry::new());
        let t = reg.register("q", "s", "p");
        let p = t.progress();
        p.set_prediction(1234.5, 2000.0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        p.add_rows(1000);
        let s = p.snapshot();
        assert_eq!(s.predicted_cost, 1235);
        assert!(s.eta_cost_ms > 0, "{s:?}");
    }

    #[test]
    fn json_render_is_schema_shaped() {
        let reg = leak(ProgressRegistry::new());
        let t = reg.register("SELECT \"x\"", "native", "sequential");
        t.progress().add_morsels_total(2);
        let json = reg.render_json();
        assert!(json.starts_with(&format!(
            "{{\"version\":{QUERIES_VERSION},\"active\":[{{\"id\":"
        )));
        assert!(json.contains("\"sql\":\"SELECT \\\"x\\\"\""), "{json}");
        assert!(json.contains("\"totals\":{\"queries_started\":1"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
    }

    #[test]
    fn drop_on_unwind_delists() {
        let reg = leak(ProgressRegistry::new());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _t = reg.register("q", "s", "p");
            panic!("boom");
        }));
        assert!(res.is_err());
        let (active, totals) = reg.snapshot();
        assert!(active.is_empty());
        assert_eq!(totals.queries_finished, 1);
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let reg = leak(ProgressRegistry::new());
        let a = reg.register("a", "s", "p");
        let b = reg.register("b", "s", "p");
        assert!(a.progress().id() < b.progress().id());
        let (active, _) = reg.snapshot();
        assert_eq!(active.len(), 2);
        assert!(active[0].id < active[1].id);
    }
}
