//! Distributed GMDJ evaluation — the coordinator/site strategy Section 6
//! points at ("the GMDJ operator is well-suited to evaluation in a
//! parallel or distributed DBMS environment \[3\]", following Akinde,
//! Böhlen, Johnson, Lakshmanan & Srivastava, EDBT 2002).
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
//!    aggregate,
//!    [`Accumulator::merge`](gmdj_relation::agg::Accumulator::merge)) and
//!    finalizes.
//!
//! The crucial property — the reason the GMDJ distributes so well — is
//! that network traffic is `O(sites × (|B| + |B|·aggs))`, *independent of
//! the detail cardinality*, where a join-based plan would ship detail
//! tuples. [`NetworkStats`] counts that traffic so tests and benches can
//! verify the claim.
//!
//! The coordinator is [`crate::runtime::Runtime`] under
//! [`crate::runtime::ExecMode::Distributed`]: it hands round-robin
//! fragments to a loopback [`crate::wire::SiteCluster`] and runs the two
//! waves per base partition over [`crate::wire::TcpSites`]. There is one
//! site transport, the frame protocol. Sites ship accumulator *state*,
//! not finalized values, so the merge is exact for every aggregate, AVG
//! and COUNT DISTINCT included. This module holds the network counters,
//! the site-local evaluation a site executor runs per request, and the
//! process-wide per-site observations behind `/sites`.

use std::sync::Arc;

use gmdj_relation::error::{Error, Result};
use gmdj_relation::relation::Relation;
use gmdj_relation::schema::Schema;

use crate::counters::counter_set;
use crate::eval::{
    new_accumulators, plan_blocks, scan_detail_vectorized, EvalStats, KernelStats, RankTally,
};
use crate::runtime::SiteBreakdown;
use crate::trace::{CollectingSink, FlightRecorder, NullSink, Span, TeeSink, TraceSink};
use crate::wire::{EvalRequestFrame, StateMatrixFrame};

counter_set! {
    /// Network accounting. The closed-form counters (`broadcast_values`,
    /// `collected_states`, `messages`) count logical units
    /// ([`Value`](gmdj_relation::value::Value)s, accumulator states,
    /// protocol frames) and are gated. The `bytes_*` counters are
    /// physical: actual bytes moved over the wire, retries included.
    pub struct NetworkStats {
        /// Values broadcast from the coordinator to the sites (base tuples ×
        /// sites).
        pub broadcast_values: u64,
        /// Partial-aggregate states shipped back from the sites.
        pub collected_states: u64,
        /// Data-bearing protocol frames, **two per site round-trip**: the
        /// broadcast wave out (base partition + spec) and the state wave
        /// back (partial accumulator matrix). Handshake frames are
        /// transport overhead and land only in the byte counters.
        pub messages: u64,
        /// Bytes written to the sites (handshake and broadcast frames,
        /// across all attempts).
        #[gated = false]
        pub bytes_sent: u64,
        /// Bytes read back from the sites.
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
// The site side: one request in, one state matrix out
// ---------------------------------------------------------------------

/// Evaluate one broadcast wave at a site: check the request against
/// itself, plan probe blocks over the broadcast base partition, scan the
/// owned fragment through the batched kernels, and return the partial
/// accumulator state. Counter semantics are those of the sequential
/// evaluator's inner loop; `stats.index_builds` counts per (partition,
/// site) because every site builds its own probe indexes over the
/// broadcast partition.
///
/// The work runs under a per-attempt `site.eval` span whose sink lives
/// and dies with the attempt: a faulted attempt's spans are dropped with
/// it and never reach the coordinator, which keeps stitched trees
/// exactly-once under retries. `flight` is the site's own always-on
/// recorder. The returned frame's `request_bytes` is left for the
/// caller, which read the request.
pub(crate) fn eval_site(
    site: usize,
    fragment: &Relation,
    req: &EvalRequestFrame,
    flight: &Arc<FlightRecorder>,
) -> Result<StateMatrixFrame> {
    // A request can decode cleanly and still not describe an evaluation:
    // reject it here rather than index past its rows or accumulators.
    let total_aggs = req.total_aggs as usize;
    if total_aggs != req.spec.agg_count() {
        return Err(Error::invalid(format!(
            "request declares {total_aggs} aggregates, its spec has {}",
            req.spec.agg_count()
        )));
    }
    if let Some(row) = req
        .base_rows
        .iter()
        .find(|r| r.len() != req.base_fields.len())
    {
        return Err(Error::invalid(format!(
            "base row of arity {} under a {}-field base schema",
            row.len(),
            req.base_fields.len()
        )));
    }
    let collecting = Arc::new(CollectingSink::new());
    let primary: Arc<dyn TraceSink> = if req.trace {
        collecting.clone()
    } else {
        Arc::new(NullSink)
    };
    let sink = TeeSink::new(primary, flight.clone());
    let mut sspan = Span::begin(&sink, "site.eval").with_detail(format!("site{site}"));
    let base_schema = Schema::new(req.base_fields.clone());
    let mut stats = EvalStats::default();
    let mut kernel = KernelStats::default();
    // A site runs no completion (a `Distributed` plan falls back to the
    // plain filtered form), so no block settles early: every block of a
    // request that admits ranked access may take it.
    let plans = plan_blocks(
        &req.base_rows,
        &base_schema,
        fragment.schema(),
        &req.spec,
        req.probe,
        &vec![req.ranked; req.spec.blocks.len()],
        &mut stats,
    )?;
    let mut accs = new_accumulators(&plans, req.base_rows.len(), total_aggs);
    let mut tally = RankTally::new(&plans);
    scan_detail_vectorized(
        fragment.cols(),
        0..fragment.len(),
        &plans,
        None,
        &req.base_rows,
        total_aggs,
        &mut accs,
        &mut tally,
        &mut stats,
        &mut kernel,
        &sink,
    )?;
    // Ranked counts ship as plain COUNT states.
    tally.fold(&plans, &req.base_rows, total_aggs, &mut accs);
    sspan.field("site", site as u64);
    sspan.field("attempt", req.attempt as u64);
    sspan.field("fragment_rows", fragment.len() as u64);
    sspan.field("query_id", req.query_id);
    sspan.field("parent_span", req.parent_span);
    sspan.fields(stats.trace_fields());
    let site_wall_ns = sspan.finish().as_nanos() as u64;
    Ok(StateMatrixFrame {
        request_bytes: 0,
        fragment_rows: fragment.len() as u64,
        stats,
        kernel,
        site_wall_ns,
        spans: collecting.take(),
        accs,
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
/// Called by the coordinator's scan loop.
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
