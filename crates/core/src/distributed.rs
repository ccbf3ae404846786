//! Distributed GMDJ evaluation — a coordinator/site simulation of the
//! strategy Section 6 points at ("the GMDJ operator is well-suited to
//! evaluation in a parallel or distributed DBMS environment \[3\]",
//! following Akinde, Böhlen, Johnson, Lakshmanan & Srivastava,
//! EDBT 2002).
//!
//! The detail relation lives horizontally fragmented across N sites (in a
//! distributed data warehouse each site already holds the detail tuples
//! it produced — e.g. flows observed by the local router). The
//! coordinator:
//!
//! 1. **broadcasts** the base-values relation (and the GMDJ spec) to every
//!    site;
//! 2. each site evaluates the GMDJ **locally** over its fragment,
//!    producing one partial accumulator per (base tuple, aggregate);
//! 3. sites ship their partial-aggregate matrices back;
//! 4. the coordinator **merges** them (exact for every supported
//!    aggregate, [`Accumulator::merge`]) and finalizes.
//!
//! The crucial property — the reason the GMDJ distributes so well — is
//! that network traffic is `O(sites × (|B| + |B|·aggs))`, *independent of
//! the detail cardinality*, where a join-based plan would ship detail
//! tuples. [`NetworkStats`] counts simulated traffic so tests and benches
//! can verify that claim.
//!
//! The coordinator is [`crate::runtime::Runtime`] under
//! [`crate::runtime::ExecMode::Distributed`]: it fragments the detail
//! round-robin and runs the two waves per base partition. Sites ship
//! accumulator *state*, not finalized values, so the merge is exact for
//! every aggregate, AVG and COUNT DISTINCT included. This module holds
//! the site side: the request/response shapes, the [`SiteTransport`]
//! trait with its in-process implementation, the site-local evaluation
//! both transports share, and the process-wide per-site observations
//! behind `/sites`.

use gmdj_relation::agg::Accumulator;
use gmdj_relation::error::Result;
use gmdj_relation::relation::{Relation, Tuple};

use crate::counters::counter_set;
use crate::eval::{
    new_accumulators, plan_blocks, scan_detail_vectorized, EvalStats, KernelStats, ProbeStrategy,
};
use crate::runtime::SiteBreakdown;
use crate::spec::GmdjSpec;
use crate::trace::TraceEvent;

counter_set! {
    /// Network accounting. The closed-form counters (`broadcast_values`,
    /// `collected_states`, `messages`) are transport-independent: they
    /// count logical units ([`Value`](gmdj_relation::value::Value)s,
    /// accumulator states, protocol frames) and are byte-identical
    /// between the in-process simulation and real socket sites. The
    /// `bytes_*` counters are physical: actual bytes moved over the wire,
    /// zero under the in-process transport.
    pub struct NetworkStats {
        /// Values broadcast from the coordinator to the sites (base tuples ×
        /// sites).
        pub broadcast_values: u64,
        /// Partial-aggregate states shipped back from the sites.
        pub collected_states: u64,
        /// Data-bearing protocol frames, **two per site round-trip**: the
        /// broadcast wave out (base partition + spec) and the state wave
        /// back (partial accumulator matrix). The socket transport counts
        /// exactly these two frames per successful round-trip; its
        /// handshake frames are transport overhead and land only in the
        /// byte counters.
        pub messages: u64,
        /// Bytes written to the sites by the socket transport (handshake,
        /// broadcast frames, across all attempts). Zero in-process.
        #[gated = false]
        pub bytes_sent: u64,
        /// Bytes read back from the sites by the socket transport. Zero
        /// in-process.
        #[gated = false]
        pub bytes_received: u64,
    }
}

impl NetworkStats {
    /// Total shipped logical units (values + states; bytes excluded —
    /// they measure the same traffic in a different unit).
    pub fn total(&self) -> u64 {
        self.broadcast_values + self.collected_states
    }
}

// ---------------------------------------------------------------------
// Site transports: how the unified runtime reaches its sites
// ---------------------------------------------------------------------

/// One coordinator→site evaluation request: the broadcast wave. The base
/// partition and the spec travel to the site; the detail fragment does
/// not — the site already owns it (in a distributed warehouse each site
/// holds the detail tuples it produced), which is precisely why GMDJ
/// traffic is independent of detail cardinality.
#[derive(Debug)]
pub struct SiteEvalRequest<'a> {
    /// Base partition rows (at most `ExecPolicy::partition_rows`).
    pub base: &'a [Tuple],
    /// Schema of the base partition.
    pub base_schema: &'a gmdj_relation::schema::Schema,
    /// The GMDJ to evaluate locally.
    pub spec: &'a GmdjSpec,
    /// Probe plan selection.
    pub probe: ProbeStrategy,
    /// Aggregates per base row, `spec.agg_count()`.
    pub total_aggs: usize,
    /// Cross-process trace context: the coordinator evaluation this
    /// request belongs to ([`crate::trace::next_trace_id`]).
    pub query_id: u64,
    /// The coordinator `site.roundtrip` span id this request rides under.
    pub parent_span: u64,
    /// Whether the site should collect and ship its span deltas back
    /// (the coordinator's sink is enabled). Wall-clock and counters ship
    /// either way.
    pub trace: bool,
}

/// One site→coordinator reply: the state wave. Partial accumulator state
/// (not finalized values), which is what makes the coordinator merge
/// exact for every aggregate including AVG and COUNT DISTINCT.
#[derive(Debug)]
pub struct SiteEvalResponse {
    /// `base.len() × total_aggs` partial accumulators, row-major.
    pub accs: Vec<Accumulator>,
    /// The site's local evaluator counters (probe index builds
    /// included), merged into the coordinator's running totals.
    pub stats: EvalStats,
    /// The site's kernel dispatch mix.
    pub kernel: KernelStats,
    /// Detail rows in the site's fragment (progress accounting).
    pub fragment_rows: u64,
    /// Bytes the transport wrote for this round-trip (all attempts).
    /// Zero for the in-process transport.
    pub bytes_sent: u64,
    /// Bytes the transport read back. Zero in-process.
    pub bytes_received: u64,
    /// Attempts the round-trip took (1 = no retries).
    pub attempts: u64,
    /// Site-local evaluation wall-clock (the `site.eval` span), on the
    /// site's own monotonic clock — a duration, never an absolute time.
    pub site_wall_ns: u64,
    /// The site executor's span deltas for the *successful* attempt,
    /// shipped back alongside the state matrix and stitched under the
    /// coordinator's `site.roundtrip` span. Empty when the request did
    /// not ask for tracing. Failed attempts never contribute spans —
    /// their sink dies with the attempt — so stitched trees count site
    /// work exactly once.
    pub spans: Vec<TraceEvent>,
}

/// How the distributed runtime reaches site `0..site_count()`. The
/// in-process implementation calls `eval_site_fragment` directly; the
/// socket implementation ([`crate::wire::TcpSites`]) speaks the
/// length-prefixed frame protocol to a listener that calls the same
/// function — which is what keeps every gated counter byte-identical
/// between the two transports.
pub trait SiteTransport {
    /// Number of sites this transport fans out to.
    fn site_count(&self) -> usize;
    /// Span detail for site `site`'s `site.roundtrip` span.
    fn site_label(&self, site: usize) -> String;
    /// One two-wave round-trip: ship the request, evaluate at the site,
    /// return the partial state matrix. Must either succeed, or fail
    /// with a diagnostic naming the site — never hang.
    fn eval_partition(
        &mut self,
        site: usize,
        req: &SiteEvalRequest<'_>,
    ) -> Result<SiteEvalResponse>;
}

/// The site-local evaluation both transports share: plan probe blocks
/// over the broadcast base partition, scan the owned fragment, return
/// partial accumulator state. Counter semantics are identical to the
/// sequential evaluator's inner loop; `stats.index_builds` counts per
/// (partition, site) because every site builds its own probe indexes
/// over the broadcast partition.
pub(crate) fn eval_site_fragment(
    base: &[Tuple],
    base_schema: &gmdj_relation::schema::Schema,
    fragment: &Relation,
    spec: &GmdjSpec,
    probe: ProbeStrategy,
    total_aggs: usize,
    sink: &dyn crate::trace::TraceSink,
) -> Result<(Vec<Accumulator>, EvalStats, KernelStats)> {
    let mut stats = EvalStats::default();
    let mut kernel = KernelStats::default();
    let plans = plan_blocks(
        base,
        base_schema,
        fragment.schema(),
        spec,
        probe,
        &mut stats,
    )?;
    let mut accs = new_accumulators(&plans, base.len(), total_aggs);
    scan_detail_vectorized(
        fragment.cols(),
        0..fragment.len(),
        &plans,
        None,
        base,
        total_aggs,
        &mut accs,
        &mut stats,
        &mut kernel,
        sink,
    )?;
    Ok((accs, stats, kernel))
}

/// Everything one traced site evaluation produces: the state matrix,
/// the counters, the measured site wall-clock and the span deltas to
/// ship. Both transports produce this via [`eval_site_fragment_traced`],
/// so the coordinator stitches one shape regardless of the wire.
pub(crate) struct TracedSiteEval {
    pub accs: Vec<Accumulator>,
    pub stats: EvalStats,
    pub kernel: KernelStats,
    /// `site.eval` span duration on the site's monotonic clock.
    pub wall_ns: u64,
    /// Spans recorded during this evaluation (empty unless `collect`),
    /// `site.eval` last.
    pub spans: Vec<TraceEvent>,
}

/// [`eval_site_fragment`] wrapped in a per-attempt `site.eval` span.
/// The span sink lives and dies with the attempt: a faulted attempt's
/// spans are dropped with it and can never reach the coordinator, which
/// is what makes stitched trees exactly-once under retries. `flight` is
/// the site's own always-on recorder (socket sites; `None` in-process —
/// the coordinator's ring sees the stitched copy instead).
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_site_fragment_traced(
    base: &[Tuple],
    base_schema: &gmdj_relation::schema::Schema,
    fragment: &Relation,
    spec: &GmdjSpec,
    probe: ProbeStrategy,
    total_aggs: usize,
    site: usize,
    attempt: u32,
    query_id: u64,
    parent_span: u64,
    collect: bool,
    flight: Option<&std::sync::Arc<crate::trace::FlightRecorder>>,
) -> Result<TracedSiteEval> {
    use crate::trace::{CollectingSink, NullSink, Span, TeeSink, TraceSink};
    use std::sync::Arc;

    let collecting = Arc::new(CollectingSink::new());
    let primary: Arc<dyn TraceSink> = if collect {
        collecting.clone()
    } else {
        Arc::new(NullSink)
    };
    let sink: Arc<dyn TraceSink> = match flight {
        Some(f) => Arc::new(TeeSink::new(primary, f.clone())),
        None => primary,
    };
    let mut sspan = Span::begin(sink.as_ref(), "site.eval").with_detail(format!("site{site}"));
    let (accs, stats, kernel) = eval_site_fragment(
        base,
        base_schema,
        fragment,
        spec,
        probe,
        total_aggs,
        sink.as_ref(),
    )?;
    sspan.field("site", site as u64);
    sspan.field("attempt", attempt as u64);
    sspan.field("fragment_rows", fragment.len() as u64);
    sspan.field("query_id", query_id);
    sspan.field("parent_span", parent_span);
    sspan.fields(stats.trace_fields());
    let wall_ns = sspan.finish().as_nanos() as u64;
    Ok(TracedSiteEval {
        accs,
        stats,
        kernel,
        wall_ns,
        spans: collecting.take(),
    })
}

// ---------------------------------------------------------------------
// Process-global per-site observations: the `/sites` surface
// ---------------------------------------------------------------------

fn site_store() -> &'static std::sync::Mutex<std::collections::BTreeMap<usize, SiteBreakdown>> {
    static STORE: std::sync::OnceLock<
        std::sync::Mutex<std::collections::BTreeMap<usize, SiteBreakdown>>,
    > = std::sync::OnceLock::new();
    STORE.get_or_init(|| std::sync::Mutex::new(std::collections::BTreeMap::new()))
}

/// Fold one completed round-trip's observation (durations only: the
/// coordinator's wall-clock around the round-trip, the site's shipped
/// wall-clock, the coordinator's merge time) into the process-global
/// per-site totals, across every query this process has coordinated.
/// Both transports; called by the coordinator's scan loop.
pub fn record_site(obs: SiteBreakdown) {
    let mut store = site_store().lock().expect("site stats poisoned");
    store.entry(obs.site as usize).or_default().add(&obs);
}

/// The per-site totals as one deterministic JSON object (sites in index
/// order, [`SiteBreakdown::to_json`] entries) — the body of the `/sites`
/// endpoint and the shell's `\sites json`.
pub fn sites_json() -> String {
    let store = site_store().lock().expect("site stats poisoned");
    let sites: Vec<String> = store.values().map(SiteBreakdown::to_json).collect();
    format!("{{\"sites\":[{}]}}", sites.join(","))
}

/// Human-readable rendering of the per-site totals, one line per site
/// (the shell's `\sites`).
pub fn sites_text() -> String {
    let store = site_store().lock().expect("site stats poisoned");
    if store.is_empty() {
        return "no site round-trips recorded\n".to_string();
    }
    let mut out = String::new();
    for t in store.values() {
        out.push_str(&format!(
            "site{} ({}) roundtrips={} attempts={} rt={:.3}ms site={:.3}ms \
             wire={:.3}ms merge={:.3}ms rows={} frag={} bytes[sent={} recv={}]\n",
            t.site,
            t.label,
            t.roundtrips,
            t.attempts,
            t.roundtrip_ns as f64 / 1e6,
            t.site_wall_ns as f64 / 1e6,
            t.wire_ns() as f64 / 1e6,
            t.merge_ns as f64 / 1e6,
            t.rows_scanned,
            t.fragment_rows,
            t.bytes_sent,
            t.bytes_received,
        ));
    }
    out
}

/// The in-process transport: sites are plain function calls over
/// fragments held by the coordinator. This is the default for
/// `ExecMode::Distributed` — a deterministic simulation with the exact
/// counter semantics of the real protocol and zero byte traffic.
pub struct InProcessSites {
    fragments: Vec<Relation>,
    sink: std::sync::Arc<dyn crate::trace::TraceSink>,
}

impl InProcessSites {
    /// One site per fragment, tracing kernel spans into `sink`.
    pub fn new(
        fragments: Vec<Relation>,
        sink: std::sync::Arc<dyn crate::trace::TraceSink>,
    ) -> Self {
        InProcessSites { fragments, sink }
    }
}

impl SiteTransport for InProcessSites {
    fn site_count(&self) -> usize {
        self.fragments.len()
    }

    fn site_label(&self, site: usize) -> String {
        format!("site{site}")
    }

    fn eval_partition(
        &mut self,
        site: usize,
        req: &SiteEvalRequest<'_>,
    ) -> Result<SiteEvalResponse> {
        let frag = &self.fragments[site];
        // Collect-and-ship exactly like the socket transport: the site's
        // spans come back in the response and the coordinator stitches
        // them, so the trace tree has one shape for both transports and
        // site work is never double-recorded.
        let traced = eval_site_fragment_traced(
            req.base,
            req.base_schema,
            frag,
            req.spec,
            req.probe,
            req.total_aggs,
            site,
            0,
            req.query_id,
            req.parent_span,
            req.trace || self.sink.is_enabled(),
            None,
        )?;
        Ok(SiteEvalResponse {
            accs: traced.accs,
            stats: traced.stats,
            kernel: traced.kernel,
            fragment_rows: frag.len() as u64,
            bytes_sent: 0,
            bytes_received: 0,
            attempts: 1,
            site_wall_ns: traced.wall_ns,
            spans: traced.spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::eval::Keep;
    use crate::runtime::{ExecPolicy, PlanNodeStats, Runtime};
    use crate::spec::{AggBlock, GmdjSpec};
    use gmdj_relation::agg::{AggFunc, NamedAgg};
    use gmdj_relation::expr::{col, lit};
    use gmdj_relation::relation::{Relation, RelationBuilder};
    use gmdj_relation::schema::DataType;

    fn base() -> Relation {
        RelationBuilder::new("B")
            .column("k", DataType::Int)
            .row(vec![1.into()])
            .row(vec![2.into()])
            .row(vec![3.into()])
            .build()
            .unwrap()
    }

    fn detail(n: usize) -> Relation {
        let mut b = RelationBuilder::new("R")
            .column("k", DataType::Int)
            .column("v", DataType::Int);
        for i in 0..n {
            b = b.row(vec![((i % 4) as i64).into(), (i as i64).into()]);
        }
        b.build().unwrap()
    }

    fn spec() -> GmdjSpec {
        GmdjSpec::new(vec![
            AggBlock::count(col("B.k").eq(col("R.k")), "cnt"),
            AggBlock::new(
                col("B.k").eq(col("R.k")).and(col("R.v").ge(lit(10))),
                vec![
                    NamedAgg::sum(col("R.v"), "s"),
                    NamedAgg::new(AggFunc::Max, col("R.v"), "m"),
                ],
            ),
        ])
    }

    /// Distributed evaluation of `detail` over `sites` sites.
    fn distributed(detail: &Relation, sites: usize) -> (Relation, PlanNodeStats) {
        let mut node = PlanNodeStats::new("GMDJ");
        let out = Runtime::new(ExecPolicy::distributed(sites))
            .eval(&base(), detail, &spec(), None, Keep::All, None, &mut node)
            .unwrap();
        (out, node)
    }

    fn centralized(detail: &Relation) -> Relation {
        let mut node = PlanNodeStats::new("GMDJ");
        Runtime::sequential()
            .eval(&base(), detail, &spec(), None, Keep::All, None, &mut node)
            .unwrap()
    }

    #[test]
    fn distributed_equals_centralized_for_any_site_count() {
        let d = detail(97);
        for sites in [1usize, 2, 3, 7] {
            let (dist, node) = distributed(&d, sites);
            assert!(dist.multiset_eq(&centralized(&d)), "{sites} sites");
            // Two message waves per site; the fragments partition the
            // detail, so it is scanned once in total.
            assert_eq!(node.network.messages, 2 * sites as u64);
            assert_eq!(node.sites.len(), sites);
            assert_eq!(node.eval.detail_scanned, 97);
        }
    }

    #[test]
    fn network_traffic_is_independent_of_detail_size() {
        let (_, small) = distributed(&detail(40), 4);
        let (_, large) = distributed(&detail(4000), 4);
        // 100× more detail tuples, identical traffic: the GMDJ ships base
        // tuples out and aggregate states back, never detail tuples.
        assert_eq!(small.network.total(), large.network.total());
        assert!(large.network.total() > 0);
    }

    #[test]
    fn empty_fragments_are_fine() {
        // More sites than tuples: some fragments are empty.
        let d = detail(3);
        let (dist, node) = distributed(&d, 8);
        assert!(dist.multiset_eq(&centralized(&d)));
        assert_eq!(
            node.sites.iter().filter(|s| s.fragment_rows == 0).count(),
            5
        );
    }
}
