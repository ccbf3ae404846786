//! Property tests: cross-query shared detail scans are observationally
//! invisible. Whatever the query shape, N concurrent clones coalesced
//! through a [`SharedScanPool`] — which merges them into shared passes
//! and evaluates each distinct GMDJ once — mixes of *distinct* queries
//! over one detail table, and queries that share one GMDJ but not its
//! selection must each produce the multiset (and the gated counters, and
//! the error) of a standalone run. The fuzz driver runs the same twin
//! check per generated case (`gmdj_fuzz::driver`); this suite sweeps it
//! explicitly across clone counts and the policy-consuming strategies.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use gmdj_algebra::ast::{exists, NestedPredicate, QueryExpr, SubqueryPred};
use gmdj_core::exec::MemoryCatalog;
use gmdj_core::runtime::ExecPolicy;
use gmdj_core::shared::{SharedScanConfig, SharedScanPool};
use gmdj_engine::strategy::{
    run_with_policy, run_with_policy_pooled, RunResult, Strategy as EvalStrategy,
};
use gmdj_fuzz::driver::{default_strategies, uses_policy};
use gmdj_fuzz::gen::{generate_case, GenConfig};
use gmdj_relation::agg::{AggFunc, NamedAgg};
use gmdj_relation::error::Result;
use gmdj_relation::expr::{col, lit, CmpOp, ScalarExpr};
use gmdj_relation::relation::Relation;
use gmdj_relation::schema::{ColumnRef, DataType, Schema};
use gmdj_relation::value::Value;

/// A pool tuned so every test wave coalesces: the window is generous and
/// released as soon as `target` queries are queued. Its two workers
/// share a detail of more than one 4,096-row morsel.
fn pool(target: usize) -> Arc<SharedScanPool> {
    Arc::new(SharedScanPool::new(SharedScanConfig {
        window: Duration::from_millis(500),
        target_batch: target,
        threads: 2,
    }))
}

/// Submit `queries[i]` from its own thread through one shared pool and
/// hand back the per-client outcomes in submission order.
fn pooled_wave(
    queries: &[&QueryExpr],
    catalog: &MemoryCatalog,
    strategy: EvalStrategy,
    policy: ExecPolicy,
) -> Vec<Result<RunResult>> {
    let p = pool(queries.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|query| {
                let (p, query) = (p.clone(), *query);
                scope.spawn(move || run_with_policy_pooled(query, catalog, strategy, policy, p))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pooled submitter panicked"))
            .collect()
    })
}

/// One client's pooled outcome must be indistinguishable from the
/// standalone outcome: same multiset, same gated counters, same error.
fn assert_matches_standalone(
    standalone: &Result<RunResult>,
    pooled: &Result<RunResult>,
    context: &str,
) -> std::result::Result<(), TestCaseError> {
    match (standalone, pooled) {
        (Ok(a), Ok(b)) => {
            prop_assert!(
                a.relation.multiset_eq(&b.relation),
                "{context}: multiset drift\nstandalone ({} rows):\n{}\npooled ({} rows):\n{}",
                a.relation.len(),
                a.relation,
                b.relation.len(),
                b.relation
            );
            if let (Some(sa), Some(sb)) = (&a.plan_stats, &b.plan_stats) {
                prop_assert_eq!(
                    sa.total_eval(),
                    sb.total_eval(),
                    "{}: gated counters drift",
                    context
                );
            }
        }
        (Ok(_), Err(e)) => {
            return Err(TestCaseError::fail(format!(
                "{context}: pooled errored while standalone succeeded: {e}"
            )))
        }
        (Err(e), Ok(_)) => {
            return Err(TestCaseError::fail(format!(
                "{context}: standalone errored while pooled succeeded: {e}"
            )))
        }
        (Err(a), Err(b)) => {
            prop_assert_eq!(a.to_string(), b.to_string(), "{}: error drift", context);
        }
    }
    Ok(())
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => (0i64..5).prop_map(Value::Int),
        1 => Just(Value::Null),
    ]
}

/// A per-client outer constant: mostly a small integer, sometimes a
/// string the selection cannot multiply.
fn constant() -> impl Strategy<Value = Value> {
    prop_oneof![
        6 => (-2i64..4).prop_map(Value::Int),
        1 => Just(Value::Str("x".into())),
    ]
}

fn relation(qualifier: &'static str, max_rows: usize) -> impl Strategy<Value = Relation> {
    let schema = Schema::qualified(qualifier, &[("k", DataType::Int), ("v", DataType::Int)]);
    proptest::collection::vec((value(), value()), 1..max_rows).prop_map(move |rows| {
        Relation::from_parts(
            schema.clone(),
            rows.into_iter()
                .map(|(k, v)| vec![k, v].into_boxed_slice())
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// N ∈ 2..=4 identical clones of a generated subquery, submitted
    /// concurrently through a coalescing pool, for every strategy that
    /// routes through the GMDJ runtime.
    #[test]
    fn concurrent_clones_match_standalone(seed in any::<u64>(), n in 2usize..=4) {
        let case = generate_case(seed, &GenConfig::default());
        let query = gmdj_sql::parse_query(&case.sql)
            .map_err(|e| TestCaseError::fail(format!("generated SQL failed to parse: {e}")))?;
        let catalog = case.catalog();
        let policy = ExecPolicy::parallel(2);
        for strategy in default_strategies().into_iter().filter(|&s| uses_policy(s)) {
            let standalone = run_with_policy(&query, &catalog, strategy, policy);
            let clones: Vec<&QueryExpr> = vec![&query; n];
            for (client, pooled) in pooled_wave(&clones, &catalog, strategy, policy)
                .iter()
                .enumerate()
            {
                assert_matches_standalone(
                    &standalone,
                    pooled,
                    &format!("{} clone {client}/{n} (seed {seed})", strategy.label()),
                )?;
            }
        }
    }

    /// Distinct queries over the same detail table coalesce into one
    /// pass yet demultiplex each client's own answer.
    #[test]
    fn distinct_queries_demultiplex_standalone_answers(
        b in relation("B", 8),
        r in relation("R", 12),
        n in 2usize..=4,
        threshold in 0i64..5,
    ) {
        let catalog = MemoryCatalog::new().with("B", b).with("R", r);
        // Query i: EXISTS over the shared detail table R with a
        // per-client comparison operator, so every client's GMDJ spec is
        // structurally distinct — no dedup, pure multi-query sharing.
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Gt, CmpOp::Ne];
        let queries: Vec<QueryExpr> = (0..n)
            .map(|i| {
                let sub = QueryExpr::table("R", "RS").select_flat(
                    ScalarExpr::Column(ColumnRef::qualified("RS", "k"))
                        .cmp_with(ops[i], col("B.k"))
                        .and(col("RS.v").ge(lit(threshold))),
                );
                QueryExpr::table("B", "B").select(exists(sub))
            })
            .collect();
        let policy = ExecPolicy::parallel(2);
        for strategy in [EvalStrategy::GmdjBasic, EvalStrategy::GmdjOptimized] {
            let standalone: Vec<Result<RunResult>> = queries
                .iter()
                .map(|q| run_with_policy(q, &catalog, strategy, policy))
                .collect();
            let refs: Vec<&QueryExpr> = queries.iter().collect();
            for (client, pooled) in pooled_wave(&refs, &catalog, strategy, policy)
                .iter()
                .enumerate()
            {
                assert_matches_standalone(
                    &standalone[client],
                    pooled,
                    &format!("{} distinct client {client}/{n}", strategy.label()),
                )?;
            }
        }
    }

    /// N clients send one correlated aggregate comparison, each with its
    /// own outer constant: `B.v * c_i < (SELECT avg(RS.v) FROM R RS WHERE
    /// RS.k = B.k)`. Their GMDJs are identical and only the selection
    /// differs, so the pool evaluates the GMDJ once and materializes each
    /// client through its own selection. A string constant makes that
    /// client's selection fail when it is evaluated; the others must not
    /// notice.
    #[test]
    fn per_client_selections_over_one_gmdj_match_standalone(
        b in relation("B", 8),
        r in relation("R", 12),
        constants in proptest::collection::vec(constant(), 2..=4),
    ) {
        let catalog = MemoryCatalog::new().with("B", b).with("R", r);
        let queries: Vec<QueryExpr> = constants
            .iter()
            .map(|c| {
                let avg = QueryExpr::table("R", "RS")
                    .select_flat(col("RS.k").eq(col("B.k")))
                    .agg_project(NamedAgg::new(AggFunc::Avg, col("RS.v"), "a"));
                QueryExpr::table("B", "B").select(NestedPredicate::Subquery(SubqueryPred::Cmp {
                    left: col("B.v").mul(lit(c.clone())),
                    op: CmpOp::Lt,
                    query: Box::new(avg),
                }))
            })
            .collect();
        let policy = ExecPolicy::parallel(2);
        for strategy in [EvalStrategy::GmdjBasic, EvalStrategy::GmdjOptimized] {
            let standalone: Vec<Result<RunResult>> = queries
                .iter()
                .map(|q| run_with_policy(q, &catalog, strategy, policy))
                .collect();
            let refs: Vec<&QueryExpr> = queries.iter().collect();
            for (client, pooled) in pooled_wave(&refs, &catalog, strategy, policy)
                .iter()
                .enumerate()
            {
                assert_matches_standalone(
                    &standalone[client],
                    pooled,
                    &format!(
                        "{} client {client} of {:?}",
                        strategy.label(),
                        constants
                    ),
                )?;
            }
        }
    }
}
