//! One entry point over the evaluation strategies of Section 5.

use std::sync::Arc;
use std::time::Duration;

use gmdj_algebra::ast::QueryExpr;
use gmdj_core::eval::{EvalStats, ProbeStrategy};
use gmdj_core::exec::{execute, ExecContext, TableProvider};
use gmdj_core::metrics;
use gmdj_core::optimize::{optimize_with, OptFlags};
use gmdj_core::progress::{self, QueryProgress};
use gmdj_core::runtime::{ExecPolicy, PlanNodeStats};
use gmdj_core::shared::SharedScanPool;
use gmdj_core::trace::{self, NullSink, Span, TraceSink};
use gmdj_core::translate::subquery_to_gmdj;
use gmdj_relation::error::Result;
use gmdj_relation::relation::Relation;

use crate::reference::{self, RefOptions, RefStats};
use crate::unnest::{self, UnnestOptions, UnnestStats};

/// The strategies the benchmark harness compares. The first five are the
/// paper's Section 5 contenders; the remainder are ablations of the GMDJ
/// design choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Pure tuple-iteration semantics (naive nested loop, no index) — the
    /// worst case the paper's "native" engine degrades to.
    NaiveNestedLoop,
    /// The paper's "native" engine: smart nested loop (early-exit
    /// EXISTS/ALL) with indexes on correlation attributes.
    NativeSmart,
    /// Native without indexes (Figure 5's unindexed condition).
    NativeSmartNoIndex,
    /// Join/outer-join unnesting with hash joins (indexed).
    JoinUnnest,
    /// Join unnesting forced onto block-nested-loop joins (unindexed).
    JoinUnnestNoIndex,
    /// Algorithm SubqueryToGMDJ, executed as-is (no Section 4
    /// optimizations).
    GmdjBasic,
    /// SubqueryToGMDJ + coalescing + base-tuple completion.
    GmdjOptimized,
    /// Ablation: optimized plan but probe indexes disabled (GMDJ without
    /// its intrinsic indexing).
    GmdjOptimizedNoProbeIndex,
    /// Ablation: basic plan with probe indexes disabled.
    GmdjBasicNoProbeIndex,
    /// SubqueryToGMDJ + the Section 6 cost-based rewrite selection
    /// ([`gmdj_core::cost::cost_based_optimize`]): every flag combination
    /// is costed against catalog cardinalities and the cheapest plan runs.
    GmdjCostBased,
}

impl Strategy {
    /// All Section 5 contenders (no ablations).
    pub fn paper_lineup() -> [Strategy; 6] {
        [
            Strategy::NaiveNestedLoop,
            Strategy::NativeSmart,
            Strategy::NativeSmartNoIndex,
            Strategy::JoinUnnest,
            Strategy::JoinUnnestNoIndex,
            Strategy::GmdjOptimized,
        ]
    }

    /// Short label for tables and charts.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::NaiveNestedLoop => "naive-nl",
            Strategy::NativeSmart => "native",
            Strategy::NativeSmartNoIndex => "native-noidx",
            Strategy::JoinUnnest => "unnest",
            Strategy::JoinUnnestNoIndex => "unnest-noidx",
            Strategy::GmdjBasic => "gmdj",
            Strategy::GmdjOptimized => "gmdj-opt",
            Strategy::GmdjOptimizedNoProbeIndex => "gmdj-opt-noidx",
            Strategy::GmdjBasicNoProbeIndex => "gmdj-noidx",
            Strategy::GmdjCostBased => "gmdj-cost",
        }
    }

    /// How this strategy runs through the GMDJ runtime — how it plans
    /// the translated query and which probe strategy it sets on the
    /// execution policy — or `None` for the reference and unnest
    /// engines, which build no GMDJ plan and ignore the policy.
    pub fn gmdj(&self) -> Option<(GmdjPlanning, ProbeStrategy)> {
        match self.engine() {
            Engine::Gmdj(planning, probe) => Some((planning, probe)),
            Engine::Reference(_) | Engine::Unnest(_) => None,
        }
    }

    /// The engine this strategy runs on, with its settings.
    fn engine(&self) -> Engine {
        use GmdjPlanning::{Basic, CostBased, Optimized};
        use ProbeStrategy::{Auto, ForceScan};
        let reference = |smart, indexed| Engine::Reference(RefOptions { smart, indexed });
        match self {
            Strategy::NaiveNestedLoop => reference(false, false),
            Strategy::NativeSmart => reference(true, true),
            Strategy::NativeSmartNoIndex => reference(true, false),
            Strategy::JoinUnnest => Engine::Unnest(UnnestOptions { indexed: true }),
            Strategy::JoinUnnestNoIndex => Engine::Unnest(UnnestOptions { indexed: false }),
            Strategy::GmdjBasic => Engine::Gmdj(Basic, Auto),
            Strategy::GmdjOptimized => Engine::Gmdj(Optimized, Auto),
            Strategy::GmdjOptimizedNoProbeIndex => Engine::Gmdj(Optimized, ForceScan),
            Strategy::GmdjBasicNoProbeIndex => Engine::Gmdj(Basic, ForceScan),
            Strategy::GmdjCostBased => Engine::Gmdj(CostBased, Auto),
        }
    }
}

/// The three engines behind the strategies.
enum Engine {
    /// Tuple-iteration semantics ([`reference`]).
    Reference(RefOptions),
    /// Join/outer-join unnesting ([`unnest`]).
    Unnest(UnnestOptions),
    /// Algorithm SubqueryToGMDJ on the GMDJ runtime.
    Gmdj(GmdjPlanning, ProbeStrategy),
}

/// How a GMDJ strategy turns Algorithm SubqueryToGMDJ's plan into the
/// plan it executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GmdjPlanning {
    /// The translated plan as-is.
    Basic,
    /// The Section 4 optimizations ([`optimize_with`] at its default
    /// flags): coalescing and base-tuple completion.
    Optimized,
    /// The Section 6 cost-based rewrite selection
    /// ([`gmdj_core::cost::cost_based_optimize`]).
    CostBased,
}

/// Strategy-specific work counters.
#[derive(Debug, Clone, Copy)]
pub enum StrategyStats {
    Reference(RefStats),
    Unnest(UnnestStats),
    Gmdj(EvalStats),
}

impl StrategyStats {
    /// A single machine-independent work figure for shape comparisons.
    pub fn work(&self) -> u64 {
        match self {
            StrategyStats::Reference(s) => s.work(),
            StrategyStats::Unnest(s) => s.join_input_tuples + s.joins + s.aggregations,
            StrategyStats::Gmdj(s) => s.work(),
        }
    }
}

/// Result of running a query under one strategy.
#[derive(Debug)]
pub struct RunResult {
    /// The query answer.
    pub relation: Relation,
    /// Wall-clock time of query evaluation (excluding
    /// translation/compilation for the GMDJ strategies, matching the
    /// paper's reporting of query evaluation time). Measured by the
    /// `query.execute` span.
    pub wall: Duration,
    /// Wall-clock time of translation + plan optimization (GMDJ
    /// strategies; zero for the reference/unnest engines, which
    /// interpret the query directly). Measured by the `query.plan` span.
    pub plan_wall: Duration,
    /// Work counters.
    pub stats: StrategyStats,
    /// Per-plan-node statistics tree (GMDJ strategies only; the reference
    /// and unnest engines do not build GMDJ plans).
    pub plan_stats: Option<PlanNodeStats>,
}

/// Run a nested query expression under a strategy, sequentially.
pub fn run(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    strategy: Strategy,
) -> Result<RunResult> {
    run_with_policy(query, catalog, strategy, ExecPolicy::sequential())
}

/// [`run_with_policy_traced`] with tracing disabled.
pub fn run_with_policy(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    strategy: Strategy,
    policy: ExecPolicy,
) -> Result<RunResult> {
    run_with_policy_traced(query, catalog, strategy, policy, Arc::new(NullSink))
}

/// [`run_with_policy`] routed through a cross-query shared-scan pool:
/// (filtered) GMDJ nodes are submitted to `pool`, so runs of this
/// function issued concurrently from several threads coalesce their
/// detail scans when they hit the same detail table (see
/// [`gmdj_core::shared`]). Results and per-query counters are identical
/// to [`run_with_policy`] — only physical scan sharing differs. The
/// reference and unnest strategies have no GMDJ and ignore the pool.
pub fn run_with_policy_pooled(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    strategy: Strategy,
    policy: ExecPolicy,
    pool: Arc<SharedScanPool>,
) -> Result<RunResult> {
    run_traced_inner(
        query,
        catalog,
        strategy,
        policy,
        Arc::new(NullSink),
        Some(pool),
    )
}

/// Run a nested query expression under a strategy and an execution
/// policy. The policy's mode and memory budget apply to every GMDJ
/// strategy; the probe choice stays with the strategy (it is the ablation
/// axis). The reference and unnest engines are the paper's competitors —
/// they have no GMDJ to parallelize and ignore the policy.
///
/// Every run emits `query.plan` / `query.execute` spans into `sink`
/// (plus the `plan.node` / `gmdj.*` spans beneath them for GMDJ
/// strategies) and reports `queries_total` and the `query_latency_us`
/// histogram into the global [`metrics`] registry.
pub fn run_with_policy_traced(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    strategy: Strategy,
    policy: ExecPolicy,
    sink: Arc<dyn TraceSink>,
) -> Result<RunResult> {
    run_traced_inner(query, catalog, strategy, policy, sink, None)
}

fn run_traced_inner(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    strategy: Strategy,
    policy: ExecPolicy,
    sink: Arc<dyn TraceSink>,
    pool: Option<Arc<SharedScanPool>>,
) -> Result<RunResult> {
    // Every query's spans also land in the always-on flight recorder
    // (teed exactly once, here at the entry point), and every query is
    // visible in the progress registry for its lifetime — the ticket
    // deregisters on drop, including the error paths below. The ticket
    // starts in state `queued`; execution flips it to `running` here
    // (and the runtime to `coalescing` while parked in a shared-scan
    // batch window).
    let sink = trace::tee_flight(sink);
    let ticket = progress::global().register(query.to_string(), strategy.label(), policy.label());
    let progress = ticket.progress();
    progress.set_state("running");
    let pool = pool.as_ref();
    let result = match strategy.engine() {
        Engine::Reference(opts) => run_reference(query, catalog, opts, &sink),
        Engine::Unnest(opts) => run_unnest(query, catalog, opts, &sink),
        Engine::Gmdj(planning, probe) => run_gmdj(
            query,
            catalog,
            planning,
            policy.with_probe(probe),
            &sink,
            &progress,
            pool,
        ),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            // Preserve the trace tail for post-mortem before the error
            // propagates (first failure in the process wins).
            trace::flight_dump_on_failure("query error");
            return Err(e);
        }
    };
    let m = metrics::global();
    m.inc("queries_total", 1);
    m.inc(
        &format!("queries_total{{strategy=\"{}\"}}", strategy.label()),
        1,
    );
    m.observe("query_latency_us", result.wall.as_micros() as u64);
    Ok(result)
}

/// Run a compiled plan through the executor inside a `query.execute`
/// span, packaging the result.
fn execute_planned(
    plan: &gmdj_core::plan::GmdjExpr,
    catalog: &dyn TableProvider,
    policy: ExecPolicy,
    plan_wall: Duration,
    sink: &Arc<dyn TraceSink>,
    progress: &Arc<QueryProgress>,
    pool: Option<&Arc<SharedScanPool>>,
) -> Result<RunResult> {
    let mut ctx = ExecContext::with_policy(policy)
        .with_sink(sink.clone())
        .with_progress(progress.clone());
    if let Some(pool) = pool {
        ctx = ctx.with_shared(pool.clone());
    }
    let span = Span::begin(sink.as_ref(), "query.execute");
    let relation = execute(plan, catalog, &mut ctx)?;
    let mut span = span;
    span.field("rows_out", relation.len() as u64);
    let wall = span.finish();
    Ok(RunResult {
        relation,
        wall,
        plan_wall,
        stats: StrategyStats::Gmdj(ctx.stats),
        plan_stats: ctx.plan_stats,
    })
}

fn run_reference(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    opts: RefOptions,
    sink: &Arc<dyn TraceSink>,
) -> Result<RunResult> {
    let span = Span::begin(sink.as_ref(), "query.execute");
    let (relation, stats) = reference::eval(query, catalog, &opts)?;
    let mut span = span;
    span.field("rows_out", relation.len() as u64);
    let wall = span.finish();
    Ok(RunResult {
        relation,
        wall,
        plan_wall: Duration::ZERO,
        stats: StrategyStats::Reference(stats),
        plan_stats: None,
    })
}

fn run_unnest(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    opts: UnnestOptions,
    sink: &Arc<dyn TraceSink>,
) -> Result<RunResult> {
    let span = Span::begin(sink.as_ref(), "query.execute");
    let (relation, stats) = unnest::eval(query, catalog, &opts)?;
    let mut span = span;
    span.field("rows_out", relation.len() as u64);
    let wall = span.finish();
    Ok(RunResult {
        relation,
        wall,
        plan_wall: Duration::ZERO,
        stats: StrategyStats::Unnest(stats),
        plan_stats: None,
    })
}

fn run_gmdj(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    planning: GmdjPlanning,
    policy: ExecPolicy,
    sink: &Arc<dyn TraceSink>,
    progress: &Arc<QueryProgress>,
    pool: Option<&Arc<SharedScanPool>>,
) -> Result<RunResult> {
    let plan_span = Span::begin(sink.as_ref(), "query.plan");
    let plan = crate::plan_cache::cached_translate(query, catalog)?;
    let (plan, estimate) = match planning {
        GmdjPlanning::CostBased => {
            let (best, estimate) = gmdj_core::cost::cost_based_optimize(&plan, catalog)?;
            (best, Some(estimate))
        }
        GmdjPlanning::Basic | GmdjPlanning::Optimized => {
            let plan = if planning == GmdjPlanning::Optimized {
                optimize_with(&plan, &OptFlags::default())
            } else {
                plan
            };
            let estimate = gmdj_core::cost::estimate(&plan, catalog).ok();
            (plan, estimate)
        }
    };
    // The ETA cross-check in progress snapshots compares morsel
    // throughput against the cost model's io prediction for this plan.
    if let Some(est) = estimate {
        progress.set_prediction(est.cost.total(), est.cost.io);
    }
    let plan_wall = plan_span.finish();
    execute_planned(&plan, catalog, policy, plan_wall, sink, progress, pool)
}

/// Translate + optimize and return the plan text — EXPLAIN for the GMDJ
/// strategies.
pub fn explain_gmdj(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    optimized: bool,
) -> Result<String> {
    let plan = subquery_to_gmdj(query, catalog)?;
    let plan = if optimized {
        gmdj_core::optimize::optimize(&plan)
    } else {
        plan
    };
    Ok(plan.explain())
}

/// Run all given strategies and assert they produce the same multiset.
/// Returns the per-strategy results. Panics on divergence — used by the
/// integration and property tests.
pub fn run_all_agree(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    strategies: &[Strategy],
) -> Result<Vec<(Strategy, RunResult)>> {
    let mut out: Vec<(Strategy, RunResult)> = Vec::new();
    for &s in strategies {
        let r = run(query, catalog, s)?;
        if let Some((s0, r0)) = out.first() {
            assert!(
                r0.relation.multiset_eq(&r.relation),
                "strategy {:?} disagrees with {:?} on {query}\n{} rows vs {} rows\nfirst:\n{}\nsecond:\n{}",
                s,
                s0,
                r.relation.len(),
                r0.relation.len(),
                r0.relation,
                r.relation,
            );
        }
        out.push((s, r));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdj_algebra::ast::{exists, not_exists};
    use gmdj_core::exec::MemoryCatalog;
    use gmdj_relation::expr::{col, lit};
    use gmdj_relation::relation::RelationBuilder;
    use gmdj_relation::schema::DataType;
    use gmdj_relation::value::Value;

    fn catalog() -> MemoryCatalog {
        let customers = RelationBuilder::new("C")
            .column("id", DataType::Int)
            .column("score", DataType::Int)
            .row(vec![1.into(), 10.into()])
            .row(vec![2.into(), 20.into()])
            .row(vec![3.into(), 30.into()])
            .row(vec![4.into(), Value::Null])
            .build()
            .unwrap();
        let orders = RelationBuilder::new("O")
            .column("cust", DataType::Int)
            .column("total", DataType::Int)
            .row(vec![1.into(), 100.into()])
            .row(vec![1.into(), 50.into()])
            .row(vec![3.into(), 75.into()])
            .row(vec![Value::Null, 10.into()])
            .build()
            .unwrap();
        MemoryCatalog::new()
            .with("Customers", customers)
            .with("Orders", orders)
    }

    fn all_strategies() -> Vec<Strategy> {
        vec![
            Strategy::NaiveNestedLoop,
            Strategy::NativeSmart,
            Strategy::NativeSmartNoIndex,
            Strategy::JoinUnnest,
            Strategy::JoinUnnestNoIndex,
            Strategy::GmdjBasic,
            Strategy::GmdjOptimized,
            Strategy::GmdjOptimizedNoProbeIndex,
            Strategy::GmdjBasicNoProbeIndex,
        ]
    }

    #[test]
    fn all_strategies_agree_on_exists() {
        let sub = QueryExpr::table("Orders", "O").select_flat(col("O.cust").eq(col("C.id")));
        let q = QueryExpr::table("Customers", "C").select(exists(sub));
        let results = run_all_agree(&q, &catalog(), &all_strategies()).unwrap();
        assert_eq!(results[0].1.relation.len(), 2);
    }

    #[test]
    fn all_strategies_agree_on_mixed_conjunction() {
        let has = QueryExpr::table("Orders", "O1").select_flat(col("O1.cust").eq(col("C.id")));
        let none_big = QueryExpr::table("Orders", "O2").select_flat(
            col("O2.cust")
                .eq(col("C.id"))
                .and(col("O2.total").gt(lit(80))),
        );
        let q =
            QueryExpr::table("Customers", "C").select(exists(has).and(not_exists(none_big)).and(
                gmdj_algebra::ast::NestedPredicate::Atom(col("C.id").gt(lit(0))),
            ));
        run_all_agree(&q, &catalog(), &all_strategies()).unwrap();
    }

    #[test]
    fn cost_based_strategy_agrees_and_coalesces() {
        let a = QueryExpr::table("Orders", "O1").select_flat(col("O1.cust").eq(col("C.id")));
        let b = QueryExpr::table("Orders", "O2").select_flat(
            col("O2.cust")
                .eq(col("C.id"))
                .and(col("O2.total").gt(lit(80))),
        );
        let q = QueryExpr::table("Customers", "C").select(exists(a).and(exists(b)));
        let results = run_all_agree(
            &q,
            &catalog(),
            &[
                Strategy::NaiveNestedLoop,
                Strategy::GmdjCostBased,
                Strategy::GmdjOptimized,
            ],
        )
        .unwrap();
        assert!(!results[0].1.relation.is_empty());
    }

    #[test]
    fn every_strategy_is_identical_under_parallel_policy() {
        // Mixed conjunction: the optimized GMDJ plan is a FilteredGMDJ
        // with a completion plan, which the parallel path runs in waves
        // and the distributed path still falls back from.
        let has = QueryExpr::table("Orders", "O1").select_flat(col("O1.cust").eq(col("C.id")));
        let none_big = QueryExpr::table("Orders", "O2").select_flat(
            col("O2.cust")
                .eq(col("C.id"))
                .and(col("O2.total").gt(lit(80))),
        );
        let q = QueryExpr::table("Customers", "C").select(exists(has).and(not_exists(none_big)));

        let mut strategies = all_strategies();
        strategies.push(Strategy::GmdjCostBased);
        for &s in &strategies {
            let seq = run(&q, &catalog(), s).unwrap();
            for policy in [
                ExecPolicy::parallel(3),
                ExecPolicy::parallel(3).with_partition_rows(Some(2)),
                ExecPolicy::distributed(2),
            ] {
                let r = run_with_policy(&q, &catalog(), s, policy).unwrap();
                assert!(
                    r.relation.multiset_eq(&seq.relation),
                    "{s:?} under {policy:?} diverged"
                );
            }
        }

        // The GMDJ stats tree is recorded: the parallel run completed
        // tuples with the sequential counters, the distributed run shows
        // the fallback.
        let eval = |policy| {
            run_with_policy(&q, &catalog(), Strategy::GmdjOptimized, policy)
                .unwrap()
                .plan_stats
                .expect("GMDJ strategies record a plan stats tree")
                .total_eval()
        };
        let (seq, par) = (
            eval(ExecPolicy::sequential()),
            eval(ExecPolicy::parallel(3)),
        );
        assert_eq!(par, seq);
        assert_eq!(par.completion_fallbacks, 0);
        assert!(par.dead_early + par.done_early > 0);
        assert!(eval(ExecPolicy::distributed(2)).completion_fallbacks > 0);
    }

    #[test]
    fn explain_shows_optimization() {
        let a = QueryExpr::table("Orders", "O1").select_flat(col("O1.cust").eq(col("C.id")));
        let b = QueryExpr::table("Orders", "O2").select_flat(
            col("O2.cust")
                .eq(col("C.id"))
                .and(col("O2.total").gt(lit(80))),
        );
        let q = QueryExpr::table("Customers", "C").select(exists(a).and(not_exists(b)));
        let basic = explain_gmdj(&q, &catalog(), false).unwrap();
        let optimized = explain_gmdj(&q, &catalog(), true).unwrap();
        assert!(basic.matches("GMDJ").count() >= 2);
        assert!(optimized.contains("FilteredGMDJ"));
        assert!(
            optimized.matches("blocks").count() < basic.matches("blocks").count()
                || optimized.contains("(2 blocks)")
        );
    }
}
