//! The unified execution pipeline: one way to run a GMDJ, whatever the
//! physical execution mode.
//!
//! A [`Runtime`] owns an [`ExecPolicy`] — local on one or more workers
//! or distributed, optionally partitioned — constructed once per query
//! and threaded through plan walking ([`crate::exec::execute`]), GMDJ
//! evaluation, and the relational operators. Call sites never pick an
//! evaluator function themselves; they hand the (filtered) GMDJ to
//! [`Runtime::eval`], the one evaluation entry point. It splits the base by the memory budget
//! (`partition_rows`) and scans the detail once per base partition, so
//! [`EvalStats::partitions`] and [`EvalStats::detail_scanned`] mean the
//! same thing under every mode. The mode decides only how one partition's
//! detail pass is divided:
//!
//! * **Parallel { threads }** — a morsel pass (`shared::morsel_pass`)
//!   with `threads` workers: the detail is dealt out as morsels from a
//!   shared atomic cursor, each worker folds into a private accumulator
//!   matrix, and the workers are merged exactly
//!   ([`Accumulator::merge`](gmdj_relation::agg::Accumulator::merge)), so
//!   results are bit-identical to sequential for every aggregate. One
//!   thread is the sequential policy (`seq`): its single morsel is the
//!   whole detail, run on the calling thread. More threads get fixed-size
//!   morsels (`shared::morsel_rows`), so a detail of one morsel or less
//!   also runs on the calling thread, whatever the thread count.
//! * **Distributed { sites }** — the detail relation is horizontally
//!   fragmented round-robin across loopback socket sites
//!   ([`crate::wire`]); the coordinator broadcasts each base partition,
//!   sites evaluate locally and ship accumulator *state* back, and the
//!   coordinator merges. Shipping state
//!   rather than finalized partial values makes every aggregate —
//!   including AVG and COUNT DISTINCT — distribute exactly, and keeps
//!   network traffic independent of the detail cardinality.
//!
//! With a shared-scan pool attached, local (not distributed)
//! unpartitioned evaluations join a pass shared with concurrently
//! submitted queries instead.
//!
//! # Completion
//!
//! Base-tuple completion (Theorems 4.1/4.2) retires a base tuple once the
//! detail has proven the selection's outcome for it: a dead rule fires,
//! or every block a finish-early plan needs has matched. Statuses only
//! move one way, Active → Dead or Done, so a retirement seen late is
//! still correct; it only prunes less. Every local policy runs every
//! [`CompletionPlan`] inside the morsel pass (`shared::morsel_pass`):
//!
//! * in **waves** when the plan retires tuples only through hash- or
//!   interval-probed blocks: each wave reads the statuses as of the end
//!   of the previous one, so statuses and every [`EvalStats`] counter are
//!   a function of the plan, the data and the wave schedule
//!   (`eval::wave_rows`) — byte-identical for any thread count (one
//!   worker included), any morsel size and the shared pool;
//! * as one worker's **row-ordered item** when a retiring block is
//!   Scan-probed (`eval::completion_prunes_pairs`: a division shape, or
//!   an ALL shape under forced Scan, where per-row pruning saves
//!   quadratic pairs).
//!
//! Either way a GMDJ whose base tuples are all retired stops scanning:
//! the rest of the detail cannot change its answer, and
//! [`EvalStats::detail_scanned`] counts only the rows read. `Distributed`
//! sites scan fragments in no single order, so there every plan falls
//! back to the plain filtered form — completion never changes the
//! *answer*, only the work — recorded once per evaluation in
//! [`EvalStats::completion_fallbacks`].
//!
//! A block counted by ranked access (a COUNT block of a filtered GMDJ
//! whose only correlations are one `<>` and one one-sided inequality)
//! visits no pair, so its dead rule is dropped when the GMDJ is bound:
//! the ALL shape's plan is then empty and it runs as a plain job,
//! distributed included. Ranked access is not taken where the plan
//! settles a block early (`CompletionPlan::settles`: NOT EXISTS and
//! EXISTS), since completion can stop such a scan within its first
//! rows; only a site, which runs no completion, ranks those blocks.

use std::sync::Arc;
use std::time::Instant;

use gmdj_relation::agg::Accumulator;
use gmdj_relation::error::{Error, Result};
use gmdj_relation::expr::Predicate;
use gmdj_relation::ops::OpStats;
use gmdj_relation::relation::{Relation, Tuple};

use crate::completion::CompletionPlan;
use crate::distributed::NetworkStats;
use crate::eval::{EvalStats, Keep, KernelStats, ProbeStrategy};
use crate::metrics;
use crate::progress::QueryProgress;
use crate::shared::{morsel_pass, morsel_rows, BoundGmdj, BoundOutput};
use crate::spec::GmdjSpec;
use crate::trace::{NullSink, Span, TraceSink};
use crate::wire::{EvalRequestFrame, SiteCluster, TcpSites};

/// Physical execution mode for GMDJ evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Deal the detail scan out in morsels to `threads` workers. One
    /// thread is the sequential policy: one whole-detail morsel on the
    /// calling thread.
    Parallel {
        /// Worker thread count (must be ≥ 1).
        threads: usize,
    },
    /// Simulate `sites` warehouse sites holding round-robin fragments of
    /// the detail relation; merge accumulator state at the coordinator.
    Distributed {
        /// Site count (must be ≥ 1).
        sites: usize,
    },
}

impl Default for ExecMode {
    /// One worker: the sequential policy.
    fn default() -> Self {
        ExecMode::Parallel { threads: 1 }
    }
}

/// How a plan executes: the one policy object threaded through plan
/// walking, GMDJ evaluation, and the relational operators. How the
/// detail is cut into morsels is not part of it: the pass derives that
/// from the detail size and the worker count (`shared::morsel_rows`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Physical execution mode.
    pub mode: ExecMode,
    /// Probe plan selection for GMDJ blocks.
    pub probe: ProbeStrategy,
    /// Maximum number of base tuples resident per detail scan (the memory
    /// budget of Section 4's partitioned evaluation). `None` keeps the
    /// whole base-values relation in memory.
    pub partition_rows: Option<usize>,
}

impl ExecPolicy {
    /// The default policy: one worker, auto probe, unpartitioned — the
    /// same policy as `parallel(1)`.
    pub fn sequential() -> Self {
        Self::default()
    }

    /// Parallel policy with `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        Self {
            mode: ExecMode::Parallel { threads },
            ..Self::default()
        }
    }

    /// Distributed policy with `sites` loopback socket sites.
    pub fn distributed(sites: usize) -> Self {
        Self {
            mode: ExecMode::Distributed { sites },
            ..Self::default()
        }
    }

    /// Override the probe strategy.
    pub fn with_probe(mut self, probe: ProbeStrategy) -> Self {
        self.probe = probe;
        self
    }

    /// Override the base-partition memory budget.
    pub fn with_partition_rows(mut self, rows: Option<usize>) -> Self {
        self.partition_rows = rows;
        self
    }

    /// Stable, filename-safe label: `seq` (one worker), `par4`, `dist2`,
    /// with a `+partN` suffix for the memory budget. Used by bench
    /// artifact names, the progress registry and EXPLAIN ANALYZE.
    pub fn label(&self) -> String {
        let mut label = match self.mode {
            ExecMode::Parallel { threads: 1 } => "seq".to_string(),
            ExecMode::Parallel { threads } => format!("par{threads}"),
            ExecMode::Distributed { sites } => format!("dist{sites}"),
        };
        if let Some(rows) = self.partition_rows {
            label.push_str(&format!("+part{rows}"));
        }
        label
    }

    /// Reject degenerate modes (`threads == 0`, `sites == 0`).
    pub fn validate(&self) -> Result<()> {
        match self.mode {
            ExecMode::Parallel { threads: 0 } => Err(Error::invalid(
                "ExecMode::Parallel requires at least one thread",
            )),
            ExecMode::Distributed { sites: 0 } => Err(Error::invalid(
                "ExecMode::Distributed requires at least one site",
            )),
            _ => Ok(()),
        }
    }

    /// Workers one evaluation's detail pass runs on: `threads` under
    /// `Parallel`, one per site under `Distributed`.
    pub(crate) fn workers(&self) -> usize {
        match self.mode {
            ExecMode::Parallel { threads } => threads,
            ExecMode::Distributed { sites } => sites,
        }
    }
}

/// Per-plan-node statistics: one node per operator in the executed plan,
/// mirroring its shape. Leaf table scans record `scanned_rows`; relational
/// operators record row flow in `ops`; GMDJ nodes record evaluator work in
/// `eval` and (under `ExecMode::Distributed`) site traffic in
/// `network`. [`crate::cost::observed_cost`] reads the tree back into the
/// cost model's units.
#[derive(Debug, Clone, Default)]
pub struct PlanNodeStats {
    /// Operator label, e.g. `"GMDJ"`, `"Select"`, `"Table(orders)"`.
    pub label: String,
    /// Output cardinality of this node.
    pub rows_out: u64,
    /// Rows read from a stored table at this node (table-scan leaves).
    pub scanned_rows: u64,
    /// Row flow through the plain relational operators at this node.
    pub ops: OpStats,
    /// GMDJ evaluator work at this node.
    pub eval: EvalStats,
    /// Vectorized-kernel dispatch mix at this node: how much of the
    /// detail scan ran through the batch kernels vs the row fallback.
    /// Kept apart from [`EvalStats`] deliberately — the semantic
    /// counters are identical across execution modes and morsel sizes,
    /// while the kernel mix is a property of the physical path taken.
    pub kernel: KernelStats,
    /// Network traffic at this node (distributed mode): closed-form
    /// value counts plus measured wire bytes.
    pub network: NetworkStats,
    /// Wall-clock time executing this node, children included.
    pub elapsed_ns: u64,
    /// Number of times this node was executed.
    pub invocations: u64,
    /// Critical-path worker time: the slowest worker (or site) per
    /// partition, summed over partitions. Under `Parallel{threads}` the
    /// ratio `worker_wall_sum_ns / worker_wall_max_ns` is the achieved
    /// scan speedup.
    pub worker_wall_max_ns: u64,
    /// Total worker (or site) time across every chunk — the total work
    /// the scan represents, independent of how it was divided.
    pub worker_wall_sum_ns: u64,
    /// Per-site breakdown under `ExecMode::Distributed` (indexed by site,
    /// aggregated over base partitions); empty for the other modes.
    pub sites: Vec<SiteBreakdown>,
    /// Child operators, in plan order.
    pub children: Vec<PlanNodeStats>,
}

/// Per-site observed breakdown for one GMDJ node under
/// `ExecMode::Distributed`: the coordinator-side decomposition of each
/// site's round-trips into site compute, wire time, and coordinator merge
/// time, aggregated over base partitions. Durations only — the site
/// wall-clock is measured on the site's own monotonic clock and shipped
/// back as a duration, so no absolute timestamps are ever compared across
/// processes; wire time is derived as `roundtrip − site_wall`
/// (saturating, [`SiteBreakdown::wire_ns`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteBreakdown {
    /// Site index in the coordinator's fan-out order.
    pub site: u64,
    /// Site label with its socket address, e.g. `site0@127.0.0.1:40123`.
    pub label: String,
    /// Round-trips to this site (one per base partition).
    pub roundtrips: u64,
    /// Attempts across those round-trips (`> roundtrips` means retries).
    pub attempts: u64,
    /// Coordinator wall-clock across the round-trips (request written →
    /// state matrix read), site compute and wire time included.
    pub roundtrip_ns: u64,
    /// Site-local evaluation wall-clock: the shipped `site.eval` span
    /// duration, on the site's own clock.
    pub site_wall_ns: u64,
    /// Coordinator time merging this site's accumulator states.
    pub merge_ns: u64,
    /// Detail rows the site scanned — its share of the gated
    /// `detail_scanned` counter, which the shares sum to exactly.
    pub rows_scanned: u64,
    /// Detail rows in the site's fragment.
    pub fragment_rows: u64,
    /// Wire bytes written to this site (all attempts).
    pub bytes_sent: u64,
    /// Wire bytes read back from this site.
    pub bytes_received: u64,
}

impl SiteBreakdown {
    /// Round-trip time not spent in site compute: wire transfer plus
    /// framing/handshake overhead. Saturating — the two durations come
    /// from different processes' clocks.
    pub fn wire_ns(&self) -> u64 {
        self.roundtrip_ns.saturating_sub(self.site_wall_ns)
    }

    /// Fold another breakdown (typically one round-trip's observation)
    /// into this one: the counts, durations and bytes sum; `site`,
    /// `label` and `fragment_rows` take the latest value — each query
    /// spawns its own sites, so a site index reports its latest address.
    pub fn add(&mut self, obs: &SiteBreakdown) {
        self.site = obs.site;
        self.label.clone_from(&obs.label);
        self.roundtrips += obs.roundtrips;
        self.attempts += obs.attempts;
        self.roundtrip_ns += obs.roundtrip_ns;
        self.site_wall_ns += obs.site_wall_ns;
        self.merge_ns += obs.merge_ns;
        self.rows_scanned += obs.rows_scanned;
        self.fragment_rows = obs.fragment_rows;
        self.bytes_sent += obs.bytes_sent;
        self.bytes_received += obs.bytes_received;
    }

    /// The breakdown as one JSON object with a fixed key order — an
    /// entry of both the plan node's `sites` array and `GET /sites`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"site\":{},\"label\":\"{}\",\"roundtrips\":{},\
             \"attempts\":{},\"roundtrip_ns\":{},\"site_wall_ns\":{},\
             \"merge_ns\":{},\"rows_scanned\":{},\"fragment_rows\":{},\
             \"bytes_sent\":{},\"bytes_received\":{}}}",
            self.site,
            crate::trace::json_escape(&self.label),
            self.roundtrips,
            self.attempts,
            self.roundtrip_ns,
            self.site_wall_ns,
            self.merge_ns,
            self.rows_scanned,
            self.fragment_rows,
            self.bytes_sent,
            self.bytes_received,
        )
    }
}

impl PlanNodeStats {
    /// A fresh node with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        PlanNodeStats {
            label: label.into(),
            ..PlanNodeStats::default()
        }
    }

    /// Evaluator work rolled up over this node and its subtree.
    pub fn total_eval(&self) -> EvalStats {
        let mut total = self.eval;
        for c in &self.children {
            total.merge(&c.total_eval());
        }
        total
    }

    /// Kernel dispatch mix rolled up over this node and its subtree.
    pub fn total_kernel(&self) -> KernelStats {
        let mut total = self.kernel;
        for c in &self.children {
            total.merge(&c.total_kernel());
        }
        total
    }

    /// Network traffic rolled up over this node and its subtree.
    pub fn total_network(&self) -> NetworkStats {
        let mut total = self.network;
        for c in &self.children {
            total.merge(&c.total_network());
        }
        total
    }

    /// Table rows scanned over this node and its subtree.
    pub fn total_scanned(&self) -> u64 {
        self.scanned_rows
            + self
                .children
                .iter()
                .map(PlanNodeStats::total_scanned)
                .sum::<u64>()
    }

    /// Operator row flow rolled up over this node and its subtree.
    pub fn total_ops(&self) -> OpStats {
        let mut total = self.ops;
        for c in &self.children {
            total.merge(&c.total_ops());
        }
        total
    }

    /// Indented one-line-per-node rendering of the tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.label);
        out.push_str(&format!(" [rows_out={}", self.rows_out));
        if self.scanned_rows > 0 {
            out.push_str(&format!(" scanned={}", self.scanned_rows));
        }
        if self.eval != EvalStats::default() {
            out.push_str(&format!(" eval_work={}", self.eval.work()));
        }
        if self.network != NetworkStats::default() {
            out.push_str(&format!(" net={}", self.network.total()));
        }
        out.push(']');
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }

    /// Time spent in this node excluding its children (saturating: a
    /// parent measured around cheap children can round below their sum).
    pub fn self_time_ns(&self) -> u64 {
        let child: u64 = self.children.iter().map(|c| c.elapsed_ns).sum();
        self.elapsed_ns.saturating_sub(child)
    }

    /// EXPLAIN ANALYZE rendering: the plan tree annotated with wall-clock
    /// time (total and self), percentage of the root's time, a
    /// `predicted` column — the cost model's figure for the work each
    /// node recorded ([`crate::cost::observed_cost`], inclusive of
    /// children) and its share of the root's predicted cost, so a node
    /// whose predicted share diverges from its observed time share
    /// exposes cost-model error in place — row counts, and the per-node
    /// work counters.
    pub fn render_analyze(&self) -> String {
        let total = self.elapsed_ns.max(1);
        let total_cost = crate::cost::observed_cost(self)
            .total()
            .max(f64::MIN_POSITIVE);
        let mut out = String::new();
        self.render_analyze_into(0, total, total_cost, &mut out);
        out
    }

    fn render_analyze_into(&self, depth: usize, total_ns: u64, total_cost: f64, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let ms = self.elapsed_ns as f64 / 1e6;
        let pct = 100.0 * self.elapsed_ns as f64 / total_ns as f64;
        let cost = crate::cost::observed_cost(self).total();
        out.push_str(&format!(
            "{} [time={:.3}ms ({:.1}%) self={:.3}ms predicted={:.0} ({:.1}%) rows={}",
            self.label,
            ms,
            pct,
            self.self_time_ns() as f64 / 1e6,
            cost,
            100.0 * cost / total_cost,
            self.rows_out
        ));
        if self.scanned_rows > 0 {
            out.push_str(&format!(" scanned={}", self.scanned_rows));
        }
        let e = &self.eval;
        if *e != EvalStats::default() {
            out.push_str(&format!(
                " detail={} theta={} agg={} early={}",
                e.detail_scanned,
                e.theta_evals,
                e.agg_updates,
                e.dead_early + e.done_early
            ));
            if e.partitions > 1 {
                out.push_str(&format!(" partitions={}", e.partitions));
            }
            if e.completion_fallbacks > 0 {
                out.push_str(&format!(" fallbacks={}", e.completion_fallbacks));
            }
        }
        if self.kernel != KernelStats::default() {
            let fields: Vec<String> = (self.kernel.trace_fields().iter())
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!(" kernel[{}]", fields.join(" ")));
        }
        if self.network != NetworkStats::default() {
            out.push_str(&format!(
                " net={} msgs={} bytes[sent={} recv={}]",
                self.network.total(),
                self.network.messages,
                self.network.bytes_sent,
                self.network.bytes_received
            ));
        }
        if self.worker_wall_sum_ns > 0 {
            out.push_str(&format!(
                " workers[crit={:.3}ms total={:.3}ms]",
                self.worker_wall_max_ns as f64 / 1e6,
                self.worker_wall_sum_ns as f64 / 1e6
            ));
        }
        out.push_str("]\n");
        // Distributed nodes: one indented line per site decomposing each
        // round-trip into site compute, wire time, and coordinator merge.
        for s in &self.sites {
            for _ in 0..depth + 1 {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{} [rt={:.3}ms site={:.3}ms wire={:.3}ms merge={:.3}ms \
                 rows={} frag={} attempts={}",
                s.label,
                s.roundtrip_ns as f64 / 1e6,
                s.site_wall_ns as f64 / 1e6,
                s.wire_ns() as f64 / 1e6,
                s.merge_ns as f64 / 1e6,
                s.rows_scanned,
                s.fragment_rows,
                s.attempts
            ));
            if s.bytes_sent + s.bytes_received > 0 {
                out.push_str(&format!(
                    " bytes[sent={} recv={}]",
                    s.bytes_sent, s.bytes_received
                ));
            }
            out.push_str("]\n");
        }
        for c in &self.children {
            c.render_analyze_into(depth + 1, total_ns, total_cost, out);
        }
    }

    /// Machine-readable rendering of the annotated tree as one nested
    /// JSON object (the per-node stats persisted by `repro
    /// --profile-json`).
    pub fn to_json(&self) -> String {
        use crate::trace::json_object;
        let mut out = format!(
            "{{\"label\":\"{}\",\"rows_out\":{},\"scanned_rows\":{},\
             \"elapsed_ns\":{},\"self_ns\":{},\"invocations\":{},\
             \"worker_wall_max_ns\":{},\"worker_wall_sum_ns\":{},\
             \"ops\":{{\"rows_in\":{},\"rows_out\":{}}},\
             \"eval\":{},\"kernel\":{},\"network\":{}",
            crate::trace::json_escape(&self.label),
            self.rows_out,
            self.scanned_rows,
            self.elapsed_ns,
            self.self_time_ns(),
            self.invocations,
            self.worker_wall_max_ns,
            self.worker_wall_sum_ns,
            self.ops.rows_in,
            self.ops.rows_out,
            json_object(self.eval.trace_fields()),
            json_object(self.kernel.trace_fields()),
            json_object(self.network.trace_fields()),
        );
        // Per-site breakdown: present exactly when the node ran
        // distributed (mirrors the render; absent otherwise so
        // non-distributed profiles are unchanged).
        if !self.sites.is_empty() {
            let sites: Vec<String> = self.sites.iter().map(SiteBreakdown::to_json).collect();
            out.push_str(&format!(",\"sites\":[{}]", sites.join(",")));
        }
        out.push_str(",\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// The execution engine: an [`ExecPolicy`] plus the dispatch that makes
/// it the single entry point for (filtered) GMDJ evaluation. The runtime
/// carries a [`TraceSink`]; every evaluation emits a `gmdj.eval` span
/// whose counter fields are the exact delta recorded into the node, with
/// `gmdj.partition` spans beneath it and, per partition, `gmdj.worker`
/// spans (morsel pass) or `site.roundtrip` spans (distributed).
#[derive(Debug, Clone)]
pub struct Runtime {
    policy: ExecPolicy,
    sink: Arc<dyn TraceSink>,
    progress: Option<Arc<QueryProgress>>,
    shared: Option<Arc<crate::shared::SharedScanPool>>,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime {
            policy: ExecPolicy::default(),
            sink: Arc::new(NullSink),
            progress: None,
            shared: None,
        }
    }
}

impl Runtime {
    /// A runtime executing under `policy`, tracing to nowhere.
    pub fn new(policy: ExecPolicy) -> Self {
        Runtime {
            policy,
            sink: Arc::new(NullSink),
            progress: None,
            shared: None,
        }
    }

    /// A runtime executing under `policy`, emitting spans into `sink`.
    pub fn with_sink(policy: ExecPolicy, sink: Arc<dyn TraceSink>) -> Self {
        Runtime {
            policy,
            sink,
            progress: None,
            shared: None,
        }
    }

    /// Attach a live progress handle: every evaluation announces its
    /// closed-form morsel schedule up front and the scan loops tick
    /// completed morsels/rows into it (relaxed atomics; see
    /// [`crate::progress`]).
    pub fn with_progress(mut self, progress: Arc<QueryProgress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Attach a cross-query shared-scan pool: [`Runtime::eval`] routes
    /// shareable evaluations through it so concurrently submitted GMDJs
    /// over the same detail table coalesce into one morsel pass (see
    /// [`crate::shared`]).
    pub fn with_shared_pool(mut self, pool: Arc<crate::shared::SharedScanPool>) -> Self {
        self.shared = Some(pool);
        self
    }

    /// The default sequential runtime.
    pub fn sequential() -> Self {
        Runtime::default()
    }

    /// The policy this runtime executes under.
    pub fn policy(&self) -> &ExecPolicy {
        &self.policy
    }

    /// The trace sink this runtime emits spans into.
    pub fn sink(&self) -> &Arc<dyn TraceSink> {
        &self.sink
    }

    /// The progress handle evaluations feed, if one is attached.
    pub fn progress(&self) -> Option<&Arc<QueryProgress>> {
        self.progress.as_ref()
    }

    /// Closed-form number of scheduling morsels one evaluation will
    /// complete — known before any worker starts, which is what makes
    /// progress a true fraction. Per base partition: the local morsel
    /// pass deals `ceil(detail / morsel)` morsels (one whole-detail
    /// morsel on one worker; zero for an empty detail, as the workers
    /// break before pulling), and the distributed coordinator
    /// round-trips every site once.
    fn scheduled_morsels(&self, base_len: usize, detail_len: usize) -> u64 {
        let partition = self.policy.partition_rows.unwrap_or(usize::MAX).max(1);
        let partitions = if base_len == 0 {
            1
        } else {
            base_len.div_ceil(partition)
        } as u64;
        let per_partition = match self.policy.mode {
            ExecMode::Distributed { sites } => sites.max(1) as u64,
            ExecMode::Parallel { threads } => {
                detail_len.div_ceil(morsel_rows(detail_len, threads)) as u64
            }
        };
        partitions * per_partition
    }

    /// Filtered GMDJ: `π[keep](σ[selection](MD(base, detail, spec)))`
    /// under the policy — the one GMDJ evaluation entry point. A plain
    /// GMDJ passes no selection, [`Keep::All`] and no completion plan; a
    /// completion plan requires a selection. Every evaluation runs the
    /// same partition loop: the mode only decides how each partition's
    /// detail pass is divided (one worker, `threads` workers, or one
    /// round-trip per site), and every mode returns bit-identical
    /// results.
    ///
    /// With a shared-scan pool attached ([`Runtime::with_shared_pool`])
    /// and a shareable policy (local, unpartitioned), the evaluation
    /// goes through the pool, where concurrently submitted GMDJs over the
    /// same detail table coalesce — per the extended Prop. 4.1 — into
    /// one shared morsel pass (see [`crate::shared`]), and queries that
    /// differ only in their selection share one evaluation of their
    /// GMDJ. The pass prepares the GMDJ exactly as its standalone
    /// evaluation would, so the counters recorded into `node` are the
    /// standalone counters; the physical amortization shows only in the
    /// pool's `shared_scan_*` metrics and the `gmdj.shared_scan` span.
    ///
    /// Counters accumulate into `node` ([`PlanNodeStats::eval`] /
    /// [`PlanNodeStats::network`] plus the worker wall-clock fields), a
    /// `gmdj.eval` span carrying the same deltas goes to the sink, and
    /// the global [`metrics`] registry receives the cross-query totals.
    #[allow(clippy::too_many_arguments)]
    pub fn eval(
        &self,
        base: &Relation,
        detail: &Relation,
        spec: &GmdjSpec,
        selection: Option<&Predicate>,
        keep: Keep,
        completion: Option<&CompletionPlan>,
        node: &mut PlanNodeStats,
    ) -> Result<Relation> {
        self.policy.validate()?;
        if completion.is_some() && selection.is_none() {
            return Err(Error::invalid("completion plan requires a selection"));
        }
        let pool = self.shared.as_ref().filter(|_| {
            !matches!(self.policy.mode, ExecMode::Distributed { .. })
                && self.policy.partition_rows.is_none()
        });
        let sched = match pool {
            Some(pool) => pool.scheduled_morsels(detail.len()),
            None => self.scheduled_morsels(base.len(), detail.len()),
        };
        if let Some(p) = &self.progress {
            p.add_morsels_total(sched);
        }
        let eval_before = node.eval;
        let net_before = node.network;
        let mut span = Span::begin(self.sink.as_ref(), "gmdj.eval");
        let result = if let Some(pool) = pool {
            if let Some(p) = &self.progress {
                p.set_state("coalescing");
            }
            let out = pool.submit(
                base,
                detail,
                spec,
                selection,
                keep,
                completion,
                self.policy.probe,
                self.sink.as_ref(),
            );
            if let Some(p) = &self.progress {
                p.set_state("running");
            }
            let out = out?;
            if let Some(p) = &self.progress {
                p.add_morsels_done(sched);
                p.add_rows(out.eval.detail_scanned);
            }
            node.eval.merge(&out.eval);
            node.kernel.merge(&out.kernel);
            node.worker_wall_max_ns += out.worker_max_ns;
            node.worker_wall_sum_ns += out.worker_sum_ns;
            span.field("shared_queries", out.pass_queries);
            out.relation
        } else {
            let output = BoundOutput::bind(base, spec, selection, keep)?;
            let query = BoundGmdj::bind(
                base,
                detail,
                spec,
                completion,
                self.policy.probe,
                selection.is_some(),
            )?;
            match self.policy.mode {
                ExecMode::Distributed { sites } => {
                    // Each fragment is owned by a loopback site executor
                    // from the start (the paper's model: detail tuples
                    // live at the site that produced them; only base
                    // tuples and accumulator states cross the wire).
                    let cluster = SiteCluster::spawn(round_robin_fragments(detail, sites))?;
                    let sites = TcpSites::new(cluster.addrs().to_vec());
                    self.eval_partitions(&query, &output, base, detail, Some(&sites), node)?
                }
                _ => self.eval_partitions(&query, &output, base, detail, None, node)?,
            }
        };
        let eval_delta = node.eval.minus(&eval_before);
        let net_delta = node.network.minus(&net_before);
        span.fields(eval_delta.trace_fields());
        span.fields(net_delta.trace_fields());
        let dur = span.finish();
        node.invocations += 1;
        node.elapsed_ns += dur.as_nanos() as u64;

        let m = metrics::global();
        m.inc("gmdj_evals_total", 1);
        m.inc("gmdj_detail_scanned_total", eval_delta.detail_scanned);
        m.inc("gmdj_probe_candidates_total", eval_delta.probe_candidates);
        m.inc("gmdj_theta_evals_total", eval_delta.theta_evals);
        m.inc("gmdj_agg_updates_total", eval_delta.agg_updates);
        m.inc(
            "completion_fallbacks_total",
            eval_delta.completion_fallbacks,
        );
        m.inc("network_broadcast_values_total", net_delta.broadcast_values);
        m.inc("network_collected_states_total", net_delta.collected_states);
        m.inc("network_messages_total", net_delta.messages);
        m.inc("network_bytes_sent_total", net_delta.bytes_sent);
        m.inc("network_bytes_received_total", net_delta.bytes_received);
        m.observe("gmdj_eval_latency_us", dur.as_micros() as u64);
        Ok(result)
    }

    /// The one base-partition loop. Per partition of the memory budget:
    /// charge its bookkeeping, scan the detail — a morsel pass of the
    /// prepared query on the policy's workers, or one round-trip per
    /// site — and materialize through the selection and projection. Each
    /// partition is emitted as a `gmdj.partition` span with its exact
    /// counter delta; worker/site wall-clock lands in the node's
    /// `worker_wall_max_ns` (critical path) and `worker_wall_sum_ns`
    /// (total work).
    fn eval_partitions(
        &self,
        query: &BoundGmdj<'_>,
        output: &BoundOutput,
        base: &Relation,
        detail: &Relation,
        sites: Option<&TcpSites>,
        node: &mut PlanNodeStats,
    ) -> Result<Relation> {
        let partition = self.policy.partition_rows.unwrap_or(usize::MAX).max(1);
        // One trace context per evaluation: rides the wire to the sites
        // and comes back echoed on their shipped `site.eval` spans, so a
        // stitched tree is attributable even across concurrent queries.
        let query_id = crate::trace::next_trace_id();
        let mut fell_back = false;
        let mut out_rows: Vec<Tuple> = Vec::new();
        let mut start = 0usize;
        while start < base.len() || (base.is_empty() && start == 0) {
            let end = (start + partition).min(base.len());
            let base_rows = &base.rows()[start..end];
            let before = node.eval;
            let mut pspan = Span::begin(self.sink.as_ref(), "gmdj.partition");
            let (accs, status) = match sites {
                Some(sites) => {
                    // Sites scan their fragments in no single order:
                    // completion always falls back here.
                    fell_back |= query.completion.is_some();
                    query.charge_partition(base_rows.len(), &mut node.eval);
                    let accs = self.scan_sites(query, base_rows, query_id, sites, node)?;
                    (accs, None)
                }
                None => {
                    let job = query.prepare(base_rows, &mut node.eval)?;
                    let pass = morsel_pass(
                        detail.cols(),
                        std::slice::from_ref(&job),
                        self.policy.workers(),
                        morsel_rows(detail.len(), self.policy.workers()),
                        self.sink.as_ref(),
                        self.progress.as_deref(),
                    );
                    node.worker_wall_max_ns += pass.worker_max_ns;
                    node.worker_wall_sum_ns += pass.worker_sum_ns;
                    let scan = pass.jobs.into_iter().next().expect("one job, one result")?;
                    node.eval.merge(&scan.eval);
                    node.kernel.merge(&scan.kernel);
                    (scan.accs, scan.status)
                }
            };
            output.materialize(base_rows, &accs, status.as_deref(), &mut out_rows)?;
            pspan.fields(node.eval.minus(&before).trace_fields());
            pspan.finish();
            start = end;
            if base.is_empty() {
                break;
            }
        }
        if fell_back {
            // Once per evaluation, however many partitions fell back.
            node.eval.completion_fallbacks += 1;
        }
        Ok(Relation::from_parts(output.result_schema.clone(), out_rows))
    }

    /// Two-wave coordinator protocol over the site client: broadcast the
    /// base partition (plus the GMDJ spec and options), let each site
    /// scan its fragment locally, ship accumulator *state* back, merge
    /// exactly at the coordinator. Each site round-trip is one
    /// `site.roundtrip` span carrying the site's evaluator and network
    /// deltas. Each site builds its own probe indexes over the broadcast
    /// base partition, so `index_builds` counts per (partition, site)
    /// here where sequential counts per partition.
    fn scan_sites(
        &self,
        query: &BoundGmdj<'_>,
        base: &[Tuple],
        query_id: u64,
        sites: &TcpSites,
        node: &mut PlanNodeStats,
    ) -> Result<Vec<Accumulator>> {
        let sink = self.sink.as_ref();
        let mut merged: Option<Vec<Accumulator>> = None;
        let mut worker_max_ns = 0u64;
        for site in 0..sites.site_count() {
            let eval_before = node.eval;
            let net_before = node.network;
            let label = sites.site_label(site);
            let mut sspan = Span::begin(sink, "site.roundtrip").with_detail(label.clone());
            // The trace context rides the broadcast wave: the site echoes
            // `query_id` / `parent_span` on its shipped `site.eval` span,
            // tying the remote events to this exact round-trip.
            let req = EvalRequestFrame {
                attempt: 0,
                query_id,
                parent_span: sspan.id(),
                trace: sink.is_enabled(),
                probe: query.probe,
                ranked: query.ranked,
                total_aggs: query.total_aggs as u32,
                base_fields: query.base_schema.fields().to_vec(),
                base_rows: base.to_vec(),
                spec: query.spec.clone(),
            };
            let start = Instant::now();
            // Wave 1: base values (and the spec) to this site.
            node.network.messages += 1;
            node.network.broadcast_values += (base.len() * query.base_schema.len()) as u64;
            let (resp, traffic) = sites.eval_partition(site, req)?;
            node.eval.merge(&resp.stats);
            node.kernel.merge(&resp.kernel);
            // Wave 2: accumulator states back to the coordinator. State
            // shipping is what lets AVG / COUNT DISTINCT distribute.
            node.network.messages += 1;
            node.network.collected_states += (base.len() * query.total_aggs) as u64;
            node.network.bytes_sent += traffic.bytes_sent;
            node.network.bytes_received += traffic.bytes_received;
            let wall_ns = start.elapsed().as_nanos() as u64;
            worker_max_ns = worker_max_ns.max(wall_ns);
            node.worker_wall_sum_ns += wall_ns;
            // Stitch the site's shipped spans into the coordinator trace,
            // re-anchored inside this round-trip's window: durations are
            // site-measured and kept verbatim, while start offsets are
            // re-based so the earliest site event opens at the round-trip
            // start (the two processes' clocks are never compared).
            if sink.is_enabled() && !resp.spans.is_empty() {
                let min_start = resp.spans.iter().map(|e| e.start_ns).min().unwrap_or(0);
                let anchor = sspan.start_ns();
                for e in &resp.spans {
                    let mut e = e.clone();
                    e.start_ns = anchor + (e.start_ns - min_start);
                    sink.record(e);
                }
            }
            sspan.field("site", site as u64);
            sspan.field("attempt", traffic.attempts);
            sspan.field("wall_ns", resp.site_wall_ns);
            sspan.fields(node.eval.minus(&eval_before).trace_fields());
            sspan.fields(node.network.minus(&net_before).trace_fields());
            sspan.finish();
            if let Some(p) = &self.progress {
                // One progress morsel per site round-trip.
                p.add_morsels_done(1);
                p.add_rows(resp.fragment_rows);
            }
            let merge_start = Instant::now();
            match &mut merged {
                None => merged = Some(resp.accs),
                Some(m) => {
                    for (m, a) in m.iter_mut().zip(&resp.accs) {
                        m.merge(a);
                    }
                }
            }
            let merge_ns = merge_start.elapsed().as_nanos() as u64;
            let obs = SiteBreakdown {
                site: site as u64,
                label,
                roundtrips: 1,
                attempts: traffic.attempts,
                roundtrip_ns: wall_ns,
                site_wall_ns: resp.site_wall_ns,
                merge_ns,
                rows_scanned: resp.stats.detail_scanned,
                fragment_rows: resp.fragment_rows,
                bytes_sent: traffic.bytes_sent,
                bytes_received: traffic.bytes_received,
            };
            if node.sites.len() <= site {
                node.sites.resize_with(site + 1, SiteBreakdown::default);
            }
            node.sites[site].add(&obs);
            crate::distributed::record_site(obs);
        }
        node.worker_wall_max_ns += worker_max_ns;
        merged.ok_or_else(|| Error::invalid("ExecMode::Distributed requires at least one site"))
    }
}

/// Round-robin horizontal fragmentation of the detail relation — in a
/// real warehouse each site already holds its fragment; round-robin keeps
/// the assignment deterministic. Fragments are gathered column-wise into
/// full columnar relations (sharing each string column's dictionary with
/// the parent), so every site scans its fragment through the same
/// vectorized kernels as local execution.
fn round_robin_fragments(detail: &Relation, sites: usize) -> Vec<Relation> {
    let sites = sites.max(1);
    let mut picks: Vec<Vec<usize>> = vec![Vec::new(); sites];
    for i in 0..detail.len() {
        picks[i % sites].push(i);
    }
    picks
        .into_iter()
        .map(|idx| {
            Relation::from_columns(
                detail.schema().clone(),
                Arc::new(detail.cols().gather(&idx)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completion::derive_completion;
    use crate::spec::AggBlock;
    use gmdj_relation::agg::{AggFunc, NamedAgg};
    use gmdj_relation::expr::{col, lit};
    use gmdj_relation::relation::RelationBuilder;
    use gmdj_relation::schema::DataType;
    use gmdj_relation::value::Value;

    /// Sequential evaluation: the reference the other modes are checked
    /// against.
    fn sequential(
        base: &Relation,
        detail: &Relation,
        spec: &GmdjSpec,
        selection: Option<&Predicate>,
        keep: Keep,
        completion: Option<&CompletionPlan>,
    ) -> (Relation, EvalStats) {
        let mut node = PlanNodeStats::new("GMDJ");
        let out = Runtime::sequential()
            .eval(base, detail, spec, selection, keep, completion, &mut node)
            .unwrap();
        (out, node.eval)
    }

    fn hours() -> Relation {
        RelationBuilder::new("H")
            .column("HourDsc", DataType::Int)
            .column("StartInterval", DataType::Int)
            .column("EndInterval", DataType::Int)
            .row(vec![1.into(), 0.into(), 60.into()])
            .row(vec![2.into(), 61.into(), 120.into()])
            .row(vec![3.into(), 121.into(), 180.into()])
            .build()
            .unwrap()
    }

    fn flows() -> Relation {
        RelationBuilder::new("F")
            .column("StartTime", DataType::Int)
            .column("Protocol", DataType::Str)
            .column("NumBytes", DataType::Int)
            .row(vec![43.into(), "HTTP".into(), 12.into()])
            .row(vec![86.into(), "HTTP".into(), 36.into()])
            .row(vec![99.into(), "FTP".into(), 48.into()])
            .row(vec![132.into(), "HTTP".into(), 24.into()])
            .row(vec![156.into(), "HTTP".into(), 24.into()])
            .row(vec![161.into(), "FTP".into(), 48.into()])
            .build()
            .unwrap()
    }

    fn example_2_1_spec() -> GmdjSpec {
        let in_hour = col("F.StartTime")
            .ge(col("H.StartInterval"))
            .and(col("F.StartTime").lt(col("H.EndInterval")));
        GmdjSpec::new(vec![
            AggBlock::new(
                in_hour.clone().and(col("F.Protocol").eq(lit("HTTP"))),
                vec![NamedAgg::sum(col("F.NumBytes"), "sum1")],
            ),
            AggBlock::new(in_hour, vec![NamedAgg::sum(col("F.NumBytes"), "sum2")]),
        ])
    }

    /// [`flows`] repeated `copies` times: a detail big enough for the
    /// derived morsel size to cut it into several morsels.
    fn flows_tiled(copies: usize) -> Relation {
        let flows = flows();
        let rows = flows.rows().iter().cycle().take(copies * flows.len());
        Relation::from_parts(flows.schema().clone(), rows.cloned().collect())
    }

    /// Example 2.1's plain GMDJ under `rt`, with its node.
    fn figure_1(rt: &Runtime) -> (Relation, PlanNodeStats) {
        example_2_1(rt, &flows())
    }

    /// Example 2.1's plain GMDJ over `detail` under `rt`, with its node.
    fn example_2_1(rt: &Runtime, detail: &Relation) -> (Relation, PlanNodeStats) {
        let mut node = PlanNodeStats::new("GMDJ");
        let out = rt
            .eval(
                &hours(),
                detail,
                &example_2_1_spec(),
                None,
                Keep::All,
                None,
                &mut node,
            )
            .unwrap();
        (out, node)
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let (expected, _) = figure_1(&Runtime::sequential());
        for threads in [1usize, 2, 3, 5] {
            let rt = Runtime::new(ExecPolicy::parallel(threads));
            let (out, node) = figure_1(&rt);
            assert!(out.multiset_eq(&expected), "threads={threads}");
            // One logical scan of the detail relation, whatever the
            // thread count.
            assert_eq!(node.eval.detail_scanned, 6, "threads={threads}");
            assert_eq!(node.network, NetworkStats::default());
            assert_eq!(node.invocations, 1);
            assert!(node.worker_wall_sum_ns >= node.worker_wall_max_ns);
        }
    }

    #[test]
    fn parallel_stats_match_sequential_without_completion() {
        // With no completion plan every mode does exactly the same probe
        // and aggregate work — the counters agree, not just the answers.
        let (_, seq) = figure_1(&Runtime::sequential());
        let (_, par) = figure_1(&Runtime::new(ExecPolicy::parallel(3)));
        assert_eq!(seq.eval, par.eval);
    }

    #[test]
    fn parallel_honors_partition_rows() {
        let (expected, _) = figure_1(&Runtime::sequential());
        let rt = Runtime::new(ExecPolicy::parallel(2).with_partition_rows(Some(2)));
        let (out, node) = figure_1(&rt);
        assert!(out.multiset_eq(&expected));
        // 3 base rows at 2 per partition → 2 partitions → 2 detail scans.
        assert_eq!(node.eval.partitions, 2);
        assert_eq!(node.eval.detail_scanned, 12);
        assert_eq!(node.eval.base_rows, 3);
    }

    #[test]
    fn morsel_queue_adapts_workers_and_reconciles_spans() {
        use crate::trace::CollectingSink;
        // One worker is a pass over one whole-detail morsel.
        let sink = Arc::new(CollectingSink::new());
        let (expected, seq) = figure_1(&Runtime::with_sink(ExecPolicy::sequential(), sink.clone()));
        assert_eq!(sink.by_name("gmdj.worker").len(), 1);
        assert_eq!(sink.sum_field("gmdj.worker", "chunk_rows"), 6);
        assert_eq!(seq.kernel.morsels, 1);

        // 6 detail rows fit in one derived morsel, so 8 requested workers
        // still run one worker on the calling thread, spawning none.
        let sink = Arc::new(CollectingSink::new());
        let (out, node) = figure_1(&Runtime::with_sink(ExecPolicy::parallel(8), sink.clone()));
        assert!(out.multiset_eq(&expected));
        assert_eq!(node.eval, seq.eval);
        assert_eq!(sink.by_name("gmdj.worker").len(), 1);
        assert_eq!(node.kernel.morsels, 1);

        // 8,196 detail rows are 3 morsels (4,096 + 4,096 + 4), so only 3
        // of 8 requested workers are spawned, and 2 workers share them;
        // together they scan every row exactly once, each morsel is
        // pulled exactly once however the workers race, and the gated
        // counters match sequential in full.
        let detail = flows_tiled(1366);
        let (expected, seq) = example_2_1(&Runtime::sequential(), &detail);
        for (threads, workers) in [(8usize, 3usize), (2, 2)] {
            let sink = Arc::new(CollectingSink::new());
            let rt = Runtime::with_sink(ExecPolicy::parallel(threads), sink.clone());
            let (out, node) = example_2_1(&rt, &detail);
            assert!(out.multiset_eq(&expected), "threads={threads}");
            assert_eq!(node.eval, seq.eval, "threads={threads}");
            assert_eq!(sink.by_name("gmdj.worker").len(), workers);
            assert_eq!(sink.sum_field("gmdj.worker", "chunk_rows"), 8196);
            assert_eq!(sink.sum_field("gmdj.worker", "morsels"), 3);
            assert_eq!(node.kernel.morsels, 3);
        }
    }

    /// One unpartitioned local evaluation as [`Runtime::eval`] runs it,
    /// but dealt in explicit `morsel`-row morsels on `threads` workers:
    /// how these tests drive the dealer in many morsels over details far
    /// smaller than the derived morsel. Returns the answer, the gated
    /// counters and the morsels pulled.
    fn dealt(
        (base, detail, spec): (&Relation, &Relation, &GmdjSpec),
        (selection, keep, completion): (Option<&Predicate>, Keep, Option<&CompletionPlan>),
        threads: usize,
        morsel: usize,
    ) -> (Relation, EvalStats, u64) {
        let output = BoundOutput::bind(base, spec, selection, keep).unwrap();
        let probe = ExecPolicy::sequential().probe;
        let query =
            BoundGmdj::bind(base, detail, spec, completion, probe, selection.is_some()).unwrap();
        let mut eval = EvalStats::default();
        let job = query.prepare(base.rows(), &mut eval).unwrap();
        let jobs = std::slice::from_ref(&job);
        let pass = morsel_pass(detail.cols(), jobs, threads, morsel, &NullSink, None);
        let scan = pass.jobs.into_iter().next().unwrap().unwrap();
        eval.merge(&scan.eval);
        let mut rows = Vec::new();
        output
            .materialize(base.rows(), &scan.accs, scan.status.as_deref(), &mut rows)
            .unwrap();
        let out = Relation::from_parts(output.result_schema.clone(), rows);
        (out, eval, scan.kernel.morsels)
    }

    /// Morsel size is pure scheduling: dealt in single rows, pairs, a
    /// prime or the whole detail, on one to eight workers, a pass gives
    /// the sequential answer and every gated counter — for a plain GMDJ,
    /// a waved completion plan and a row-ordered one — and a plain pass
    /// pulls each of its `ceil(detail / morsel)` morsels exactly once.
    #[test]
    fn small_morsels_never_change_a_pass() {
        let (exists, exists_sel, exists_plan) = band_exists();
        let (all, all_sel, all_plan) = all_shape();
        let (parts_base, parts_detail) = (parts(40), parts(40).renamed("Q"));
        let cases = [
            (
                (&hours(), &flows(), &example_2_1_spec()),
                (None, Keep::All, None),
            ),
            (
                (&hours(), &flows(), &exists),
                (Some(&exists_sel), Keep::BaseOnly, Some(&exists_plan)),
            ),
            (
                (&parts_base, &parts_detail, &all),
                (Some(&all_sel), Keep::BaseOnly, Some(&all_plan)),
            ),
        ];
        for (inputs, (selection, keep, completion)) in cases {
            let (base, detail, spec) = inputs;
            let (seq, s1) = sequential(base, detail, spec, selection, keep, completion);
            for threads in [1usize, 2, 3, 8] {
                for morsel in [1usize, 2, 7, usize::MAX] {
                    let (par, stats, morsels) =
                        dealt(inputs, (selection, keep, completion), threads, morsel);
                    let at = format!("threads={threads} morsel={morsel}");
                    assert!(par.multiset_eq(&seq), "{at}");
                    assert_eq!(stats, s1, "{at}");
                    if completion.is_none() {
                        let expected = detail.len().div_ceil(morsel.min(detail.len()));
                        assert_eq!(morsels, expected as u64, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_runtime_matches_sequential_including_avg() {
        // AVG and COUNT DISTINCT distribute because sites ship
        // accumulator state, not finalized values.
        let in_hour = col("F.StartTime")
            .ge(col("H.StartInterval"))
            .and(col("F.StartTime").lt(col("H.EndInterval")));
        let spec = GmdjSpec::new(vec![AggBlock::new(
            in_hour,
            vec![
                NamedAgg::new(AggFunc::Avg, col("F.NumBytes"), "avg_bytes"),
                NamedAgg::new(AggFunc::CountDistinct, col("F.Protocol"), "protos"),
            ],
        )]);
        let (expected, _) = sequential(&hours(), &flows(), &spec, None, Keep::All, None);
        for sites in [1usize, 2, 4] {
            let rt = Runtime::new(ExecPolicy::distributed(sites));
            let mut node = PlanNodeStats::new("GMDJ");
            let out = rt
                .eval(&hours(), &flows(), &spec, None, Keep::All, None, &mut node)
                .unwrap();
            assert!(out.multiset_eq(&expected), "sites={sites}");
            // Two message waves; traffic independent of detail size.
            assert_eq!(node.network.messages, 2 * sites as u64);
            assert_eq!(node.network.broadcast_values, (sites * 3 * 3) as u64);
            assert_eq!(node.network.collected_states, (sites * 3 * 2) as u64);
            // The fragments partition the detail: one logical scan total.
            assert_eq!(node.eval.detail_scanned, 6);
        }
    }

    /// Parts `(k, price)` with pseudo-random prices, for the ALL shape.
    fn parts(n: i64) -> Relation {
        let mut b = RelationBuilder::new("P")
            .column("k", DataType::Int)
            .column("price", DataType::Int);
        for k in 0..n {
            b = b.row(vec![k.into(), ((k * 7919 + 13) % 101).into()]);
        }
        b.build().unwrap()
    }

    /// Figure 4's ALL shape, `P.price >= ALL (SELECT Q.price FROM Q
    /// WHERE P.k <> Q.k)`: two Scan-probed blocks, `c1 = c2`, and the
    /// `PairEq` dead rule that reproduces the smart nested loop.
    fn all_shape() -> (GmdjSpec, Predicate, CompletionPlan) {
        let neq = col("P.k").ne(col("Q.k"));
        let spec = GmdjSpec::new(vec![
            AggBlock::count(neq.clone().and(col("P.price").ge(col("Q.price"))), "c1"),
            AggBlock::count(neq, "c2"),
        ]);
        let selection = col("c1").eq(col("c2"));
        let plan = derive_completion(&selection, &spec, true).expect("ALL shape has a plan");
        assert_eq!(plan.dead_rules.len(), 1);
        assert_eq!(plan.dead_rules[0].unless_also, Some(0));
        (spec, selection, plan)
    }

    /// The ALL shape through `policy`: the answer and the node's stats.
    fn all_under(
        policy: ExecPolicy,
        base: &Relation,
        detail: &Relation,
    ) -> (Relation, PlanNodeStats) {
        let (spec, selection, plan) = all_shape();
        let mut node = PlanNodeStats::new("GMDJ");
        let out = Runtime::new(policy)
            .eval(
                base,
                detail,
                &spec,
                Some(&selection),
                Keep::BaseOnly,
                Some(&plan),
                &mut node,
            )
            .unwrap();
        (out, node)
    }

    /// Scan-probed under `Parallel`, the ALL shape's completion plan runs
    /// as one work item of the morsel pass: no fallback, and every
    /// counter — `dead_early` and the pruned θ evaluations included —
    /// equals the sequential evaluator's for every thread count.
    /// `Distributed` still falls back, once per evaluation.
    #[test]
    fn all_shape_completion_runs_under_parallel_with_sequential_counters() {
        let scan = |p: ExecPolicy| p.with_probe(ProbeStrategy::ForceScan);
        let (base, detail) = (parts(150), parts(150).renamed("Q"));
        let (seq, s1) = all_under(scan(ExecPolicy::sequential()), &base, &detail);
        assert!(s1.eval.dead_early > 0, "the dead rule must prune");
        for threads in [1usize, 2, 8, 16] {
            let (par, node) = all_under(scan(ExecPolicy::parallel(threads)), &base, &detail);
            assert!(par.multiset_eq(&seq), "threads={threads}");
            assert_eq!(node.eval.completion_fallbacks, 0);
            assert_eq!(node.eval, s1.eval, "threads={threads}");
        }
        let dist = scan(ExecPolicy::distributed(2).with_partition_rows(Some(40)));
        let (out, node) = all_under(dist, &base, &detail);
        assert!(out.multiset_eq(&seq));
        assert_eq!(node.eval.partitions, 4);
        assert_eq!(node.eval.completion_fallbacks, 1);
    }

    /// Under `Auto` both ALL blocks are ranked: the completion plan has
    /// nothing left to do, so every policy — `Distributed` included —
    /// runs a plain job with no fallback, and the counters are the same
    /// for every thread count and site count (sites build their own
    /// indexes, so `index_builds` is per site there).
    #[test]
    fn all_shape_takes_ranked_access_under_every_policy() {
        let (base, detail) = (parts(150), parts(150).renamed("Q"));
        let (scan, _) = all_under(
            ExecPolicy::sequential().with_probe(ProbeStrategy::ForceScan),
            &base,
            &detail,
        );
        let (seq, s1) = all_under(ExecPolicy::sequential(), &base, &detail);
        assert!(seq.multiset_eq(&scan));
        assert_eq!(s1.eval.dead_early, 0);
        assert_eq!(s1.eval.rank_lookups, 2 * 150);
        assert_eq!(s1.eval.probe_candidates, 2 * 150);
        assert_eq!(s1.kernel.rows_row_path, 0);
        for policy in [ExecPolicy::parallel(2), ExecPolicy::parallel(8)] {
            let (out, node) = all_under(policy, &base, &detail);
            assert!(out.multiset_eq(&seq), "{policy:?}");
            assert_eq!(node.eval, s1.eval, "{policy:?}");
        }
        let (out, node) = all_under(ExecPolicy::distributed(2), &base, &detail);
        assert!(out.multiset_eq(&seq));
        assert_eq!(node.eval.completion_fallbacks, 0);
        assert_eq!(
            EvalStats {
                index_builds: s1.eval.index_builds,
                ..node.eval
            },
            s1.eval
        );
    }

    /// A completion item announces and ticks the parallel schedule,
    /// `ceil(detail / morsel)` morsels (9,000 rows on 2 workers: 3), so
    /// live progress still ends at `morsels_done == morsels_total`.
    #[test]
    fn completion_item_keeps_progress_exact() {
        use crate::progress::ProgressRegistry;
        let (spec, selection, plan) = all_shape();
        let (base, detail) = (parts(20), parts(9000).renamed("Q"));
        let reg: &'static ProgressRegistry = Box::leak(Box::new(ProgressRegistry::new()));
        let ticket = reg.register("q", "s", "p");
        let progress = ticket.progress();
        let policy = ExecPolicy::parallel(2).with_probe(ProbeStrategy::ForceScan);
        let rt = Runtime::new(policy).with_progress(progress.clone());
        let mut node = PlanNodeStats::new("GMDJ");
        rt.eval(
            &base,
            &detail,
            &spec,
            Some(&selection),
            Keep::BaseOnly,
            Some(&plan),
            &mut node,
        )
        .unwrap();
        assert_eq!(node.eval.completion_fallbacks, 0);
        assert_eq!(progress.morsels_total(), 3);
        assert_eq!(progress.morsels_done(), progress.morsels_total());
        assert_eq!(progress.rows_done(), node.eval.detail_scanned);
    }

    /// EXISTS shape: count per hour, keep hours with ≥ 1 HTTP flow.
    fn band_exists() -> (GmdjSpec, Predicate, CompletionPlan) {
        let in_hour = col("F.StartTime")
            .ge(col("H.StartInterval"))
            .and(col("F.StartTime").lt(col("H.EndInterval")));
        let spec = GmdjSpec::new(vec![AggBlock::count(
            in_hour.and(col("F.Protocol").eq(lit("HTTP"))),
            "cnt",
        )]);
        let selection = col("cnt").gt(lit(0));
        let plan = derive_completion(&selection, &spec, true)
            .expect("EXISTS shape should derive a completion plan");
        (spec, selection, plan)
    }

    /// A band-probed EXISTS retires tuples only through its interval
    /// block, so its completion plan runs in waves under every policy: no
    /// fallback, and every counter equals sequential's for any thread
    /// count. Same answer everywhere.
    #[test]
    fn band_exists_completion_runs_in_waves_under_every_policy() {
        let (spec, selection, plan) = band_exists();
        let run = |policy: ExecPolicy| {
            let mut node = PlanNodeStats::new("GMDJ");
            let out = Runtime::new(policy)
                .eval(
                    &hours(),
                    &flows(),
                    &spec,
                    Some(&selection),
                    Keep::BaseOnly,
                    Some(&plan),
                    &mut node,
                )
                .unwrap();
            (out, node.eval)
        };

        let (seq, s1) = run(ExecPolicy::sequential());
        assert_eq!(s1.completion_fallbacks, 0);
        assert_eq!(s1.done_early, 3);
        for threads in [1usize, 2, 3, 8] {
            let (par, stats) = run(ExecPolicy::parallel(threads));
            assert!(par.multiset_eq(&seq), "threads={threads}");
            assert_eq!(stats, s1, "threads={threads}");
        }
    }

    /// The one "completion plan requires a selection" check guards every
    /// route through [`Runtime::eval`]: sequential, parallel, distributed
    /// and pooled.
    #[test]
    fn completion_plan_without_selection_is_rejected_under_every_policy() {
        use crate::shared::{SharedScanConfig, SharedScanPool};
        let (spec, _, plan) = all_shape();
        let (base, detail) = (parts(8), parts(8).renamed("Q"));
        let pool = Arc::new(SharedScanPool::new(SharedScanConfig::default()));
        for rt in [
            Runtime::new(ExecPolicy::sequential()),
            Runtime::new(ExecPolicy::parallel(2)),
            Runtime::new(ExecPolicy::distributed(2)),
            Runtime::new(ExecPolicy::parallel(2)).with_shared_pool(pool),
        ] {
            let mut node = PlanNodeStats::new("GMDJ");
            let err = rt
                .eval(
                    &base,
                    &detail,
                    &spec,
                    None,
                    Keep::BaseOnly,
                    Some(&plan),
                    &mut node,
                )
                .unwrap_err();
            let policy = rt.policy();
            assert!(
                err.to_string().contains("requires a selection"),
                "{policy:?}: {err}"
            );
            assert_eq!(node.invocations, 0, "{policy:?}");
        }
    }

    #[test]
    fn empty_base_and_empty_detail_are_fine() {
        let empty_base = Relation::from_parts(hours().schema().clone(), vec![]);
        let empty_detail = Relation::from_parts(flows().schema().clone(), vec![]);
        for policy in [
            ExecPolicy::sequential(),
            ExecPolicy::parallel(4),
            ExecPolicy::distributed(3),
        ] {
            let rt = Runtime::new(policy);
            let mut node = PlanNodeStats::new("GMDJ");
            let out = rt
                .eval(
                    &empty_base,
                    &flows(),
                    &example_2_1_spec(),
                    None,
                    Keep::All,
                    None,
                    &mut node,
                )
                .unwrap();
            assert!(out.is_empty(), "{policy:?}");
            let mut node = PlanNodeStats::new("GMDJ");
            let out = rt
                .eval(
                    &hours(),
                    &empty_detail,
                    &example_2_1_spec(),
                    None,
                    Keep::All,
                    None,
                    &mut node,
                )
                .unwrap();
            // No detail → every aggregate finishes on its empty state.
            assert_eq!(out.len(), 3, "{policy:?}");
            for row in out.rows() {
                assert_eq!(row[3], Value::Null, "{policy:?}");
                assert_eq!(row[4], Value::Null, "{policy:?}");
            }
        }
    }

    /// Every policy, pooled submission included, scans the stored
    /// columns: no evaluation builds the detail's row view.
    #[test]
    fn no_policy_builds_the_detail_row_view() {
        use crate::shared::{SharedScanConfig, SharedScanPool};
        let pool = Arc::new(SharedScanPool::new(SharedScanConfig {
            window: std::time::Duration::from_millis(1),
            target_batch: 1,
            threads: 2,
        }));
        for rt in [
            Runtime::new(ExecPolicy::sequential()),
            Runtime::new(ExecPolicy::parallel(2)),
            Runtime::new(ExecPolicy::distributed(2)),
            Runtime::new(ExecPolicy::parallel(2)).with_shared_pool(pool),
        ] {
            let detail = flows();
            assert!(!detail.has_row_view());
            let mut node = PlanNodeStats::new("GMDJ");
            rt.eval(
                &hours(),
                &detail,
                &example_2_1_spec(),
                None,
                Keep::All,
                None,
                &mut node,
            )
            .unwrap();
            assert_eq!(node.eval.detail_scanned, 6, "{:?}", rt.policy());
            assert!(!detail.has_row_view(), "{:?}", rt.policy());
        }
    }

    #[test]
    fn degenerate_policies_are_rejected() {
        let rt = Runtime::new(ExecPolicy::parallel(0));
        let mut node = PlanNodeStats::new("GMDJ");
        let err = rt
            .eval(
                &hours(),
                &flows(),
                &example_2_1_spec(),
                None,
                Keep::All,
                None,
                &mut node,
            )
            .unwrap_err();
        assert!(err.to_string().contains("at least one thread"), "{err}");
        let rt = Runtime::new(ExecPolicy::distributed(0));
        let err = rt
            .eval(
                &hours(),
                &flows(),
                &example_2_1_spec(),
                None,
                Keep::All,
                None,
                &mut node,
            )
            .unwrap_err();
        assert!(err.to_string().contains("at least one site"), "{err}");
    }

    #[test]
    fn progress_schedule_reconciles_under_every_mode() {
        use crate::progress::ProgressRegistry;
        let reg: &'static ProgressRegistry = Box::leak(Box::new(ProgressRegistry::new()));
        for policy in [
            ExecPolicy::sequential(),
            ExecPolicy::sequential().with_partition_rows(Some(2)),
            ExecPolicy::parallel(3),
            ExecPolicy::parallel(2).with_partition_rows(Some(1)),
            ExecPolicy::distributed(2),
            ExecPolicy::distributed(3).with_partition_rows(Some(2)),
        ] {
            let ticket = reg.register("q", "s", "p");
            let progress = ticket.progress();
            let (_, node) = figure_1(&Runtime::new(policy).with_progress(progress.clone()));
            // Announced schedule fully consumed, never exceeded; rows
            // reconcile exactly with the gated scan counter.
            assert!(progress.morsels_total() > 0, "{policy:?}");
            assert_eq!(
                progress.morsels_done(),
                progress.morsels_total(),
                "{policy:?}"
            );
            assert_eq!(progress.rows_done(), node.eval.detail_scanned, "{policy:?}");
        }
        // A detail of several derived morsels: 8,196 rows on 3 workers
        // announce and tick 3 morsels.
        let ticket = reg.register("q", "s", "p");
        let progress = ticket.progress();
        let rt = Runtime::new(ExecPolicy::parallel(3)).with_progress(progress.clone());
        let (_, node) = example_2_1(&rt, &flows_tiled(1366));
        assert_eq!(progress.morsels_total(), 3);
        assert_eq!(progress.morsels_done(), 3);
        assert_eq!(progress.rows_done(), node.eval.detail_scanned);
        // Empty detail under the morsel queue: zero morsels scheduled,
        // zero pulled — the invariant holds degenerately.
        let empty_detail = Relation::from_parts(flows().schema().clone(), vec![]);
        let ticket = reg.register("q", "s", "p");
        let progress = ticket.progress();
        let rt = Runtime::new(ExecPolicy::parallel(4)).with_progress(progress.clone());
        let mut node = PlanNodeStats::new("GMDJ");
        rt.eval(
            &hours(),
            &empty_detail,
            &example_2_1_spec(),
            None,
            Keep::All,
            None,
            &mut node,
        )
        .unwrap();
        assert_eq!(progress.morsels_total(), 0);
        assert_eq!(progress.morsels_done(), 0);
    }

    #[test]
    fn plan_node_stats_roll_up() {
        let mut leaf = PlanNodeStats::new("Table(orders)");
        leaf.scanned_rows = 100;
        leaf.rows_out = 100;
        let mut gmdj = PlanNodeStats::new("GMDJ");
        gmdj.eval.detail_scanned = 100;
        gmdj.rows_out = 10;
        gmdj.children.push(leaf);
        let mut root = PlanNodeStats::new("Select");
        root.ops.record(10, 4);
        root.rows_out = 4;
        root.children.push(gmdj);

        assert_eq!(root.total_scanned(), 100);
        assert_eq!(root.total_eval().detail_scanned, 100);
        assert_eq!(root.total_ops().rows_in, 10);
        let text = root.render();
        assert!(text.contains("Select"), "{text}");
        assert!(text.contains("  GMDJ"), "{text}");
        assert!(text.contains("    Table(orders)"), "{text}");
    }
}
