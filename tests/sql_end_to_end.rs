//! SQL text → parser → nested algebra → all strategies, over generated
//! TPC-R-style data.

use gmdj_core::exec::MemoryCatalog;
use gmdj_datagen::tpcr::{TpcrConfig, TpcrData};
use gmdj_engine::strategy::{run, run_all_agree, Strategy};
use gmdj_sql::parse_query;

fn catalog() -> MemoryCatalog {
    TpcrData::generate(&TpcrConfig {
        customers: 40,
        orders: 150,
        lineitems: 300,
        parts: 25,
        suppliers: 12,
        seed: 99,
    })
    .into_catalog()
}

fn lineup() -> Vec<Strategy> {
    vec![
        Strategy::NaiveNestedLoop,
        Strategy::NativeSmart,
        Strategy::NativeSmartNoIndex,
        Strategy::JoinUnnest,
        Strategy::JoinUnnestNoIndex,
        Strategy::GmdjBasic,
        Strategy::GmdjOptimized,
        Strategy::GmdjOptimizedNoProbeIndex,
    ]
}

fn check(sql: &str) -> usize {
    let q = parse_query(sql).unwrap_or_else(|e| panic!("parse failed for {sql}: {e}"));
    let results = run_all_agree(&q, &catalog(), &lineup())
        .unwrap_or_else(|e| panic!("execution failed for {sql}: {e}"));
    results[0].1.relation.len()
}

#[test]
fn exists_subquery() {
    let n = check(
        "SELECT c.custkey FROM customer c WHERE EXISTS \
         (SELECT * FROM orders o WHERE o.custkey = c.custkey AND o.totalprice > 100000)",
    );
    assert!(n > 0 && n < 40, "{n}");
}

#[test]
fn not_exists_subquery() {
    let n = check(
        "SELECT c.custkey FROM customer c WHERE NOT EXISTS \
         (SELECT * FROM orders o WHERE o.custkey = c.custkey)",
    );
    assert!(n > 0, "some customer must lack orders at this density");
}

#[test]
fn in_and_not_in() {
    let a = check(
        "SELECT c.custkey FROM customer c WHERE c.custkey IN \
         (SELECT o.custkey FROM orders o WHERE o.totalprice > 200000)",
    );
    let b = check(
        "SELECT c.custkey FROM customer c WHERE c.custkey NOT IN \
         (SELECT o.custkey FROM orders o WHERE o.totalprice > 200000)",
    );
    assert_eq!(
        a + b,
        40,
        "IN and NOT IN partition the customers (no NULL keys)"
    );
}

#[test]
fn quantified_any_and_all() {
    let any = check(
        "SELECT p.partkey FROM part p WHERE p.retailprice > ANY \
         (SELECT p2.retailprice FROM part p2 WHERE p2.partkey <> p.partkey)",
    );
    let all = check(
        "SELECT p.partkey FROM part p WHERE p.retailprice >= ALL \
         (SELECT p2.retailprice FROM part p2 WHERE p2.partkey <> p.partkey)",
    );
    assert!(
        any >= 24,
        "everything but the cheapest beats something: {any}"
    );
    assert!(
        (1..=3).contains(&all),
        "only the most expensive beats everything: {all}"
    );
}

#[test]
fn scalar_aggregate_comparison() {
    let n = check(
        "SELECT l.orderkey FROM lineitem l WHERE l.quantity > \
         (SELECT AVG(l2.quantity) FROM lineitem l2 WHERE l2.partkey = l.partkey)",
    );
    assert!(n > 0 && n < 300, "{n}");
}

#[test]
fn nested_two_levels() {
    // Customers with an urgent order whose clerk also booked a low order.
    let n = check(
        "SELECT c.custkey FROM customer c WHERE EXISTS \
         (SELECT * FROM orders o WHERE o.custkey = c.custkey AND EXISTS \
            (SELECT * FROM orders o2 WHERE o2.clerk = o.clerk AND o2.orderkey <> o.orderkey))",
    );
    assert!(n <= 40);
}

#[test]
fn disjunction_of_subqueries() {
    let n = check(
        "SELECT c.custkey FROM customer c WHERE EXISTS \
         (SELECT * FROM orders o WHERE o.custkey = c.custkey AND o.totalprice > 400000) \
         OR c.acctbal > 9000",
    );
    assert!(n > 0);
}

#[test]
fn mixed_conjunction_with_flat_predicates() {
    let n = check(
        "SELECT c.custkey FROM customer c \
         WHERE c.acctbal > 0 \
           AND c.custkey IN (SELECT o.custkey FROM orders o) \
           AND NOT EXISTS (SELECT * FROM orders o2 \
                           WHERE o2.custkey = c.custkey AND o2.totalprice > 450000)",
    );
    assert!(n < 40);
}

#[test]
fn not_over_subquery_normalizes() {
    // NOT (x IN S) must behave exactly like x NOT IN S.
    let a = check(
        "SELECT c.custkey FROM customer c WHERE NOT (c.custkey IN \
         (SELECT o.custkey FROM orders o))",
    );
    let b = check(
        "SELECT c.custkey FROM customer c WHERE c.custkey NOT IN \
         (SELECT o.custkey FROM orders o)",
    );
    assert_eq!(a, b);
}

#[test]
fn uncorrelated_subqueries() {
    let n = check(
        "SELECT s.suppkey FROM supplier s WHERE s.acctbal > \
         (SELECT AVG(s2.acctbal) FROM supplier s2)",
    );
    assert!(n > 0 && n < 12);
}

#[test]
fn explain_of_sql_query_via_gmdj() {
    let q = parse_query(
        "SELECT c.custkey FROM customer c WHERE EXISTS \
         (SELECT * FROM orders o WHERE o.custkey = c.custkey)",
    )
    .unwrap();
    let plan = gmdj_engine::strategy::explain_gmdj(&q, &catalog(), true).unwrap();
    assert!(plan.contains("FilteredGMDJ"), "{plan}");
    assert!(plan.contains("keep=base-only"), "{plan}");
    // The GMDJ run agrees with the reference.
    let r1 = run(&q, &catalog(), Strategy::NaiveNestedLoop).unwrap();
    let r2 = run(&q, &catalog(), Strategy::GmdjOptimized).unwrap();
    assert!(r1.relation.multiset_eq(&r2.relation));
}

/// The `all_neq` shape of the perfbench mix (its SQL text, copied) over a
/// 200-part table. Under `GmdjOptimized` both ALL blocks are counted by
/// ranked access: the `gmdj.kernel` spans name it, no tuple is retired
/// (the completion plan lost its one dead rule to the ranked blocks), and
/// no pair is interpreted row by row, as the row-ordered completion item
/// would. Under `GmdjOptimizedNoProbeIndex` the blocks are Scan-probed,
/// so the same query still runs that row-ordered item
/// (`eval::scan_detail_completion`, which interprets each Scan pair on
/// the row path where a waved or plain scan would use the compiled mask)
/// and prunes pairs, with the same answer.
#[test]
fn perfbench_all_neq_is_ranked_and_forced_scan_keeps_the_row_ordered_item() {
    use gmdj_core::runtime::ExecPolicy;
    use gmdj_core::trace::CollectingSink;
    use gmdj_engine::strategy::run_with_policy_traced;
    use std::sync::Arc;

    let catalog = TpcrData::generate(&TpcrConfig {
        customers: 1,
        orders: 1,
        lineitems: 1,
        parts: 200,
        suppliers: 1,
        seed: 4,
    })
    .into_catalog();
    let sql = "SELECT p1.partkey FROM part p1 WHERE p1.retailprice >= ALL \
               (SELECT p2.retailprice FROM part p2 WHERE p1.partkey <> p2.partkey)";
    let query = parse_query(sql).unwrap();
    let traced = |strategy| {
        let sink = Arc::new(CollectingSink::new());
        let result = run_with_policy_traced(
            &query,
            &catalog,
            strategy,
            ExecPolicy::parallel(2),
            sink.clone(),
        )
        .unwrap();
        let plan = result.plan_stats.as_ref().unwrap();
        let (eval, kernel) = (plan.total_eval(), plan.total_kernel());
        let kernels: Vec<String> = sink
            .by_name("gmdj.kernel")
            .iter()
            .map(|e| e.detail.clone())
            .collect();
        (result.relation, eval, kernel, kernels)
    };

    let (ranked, eval, kernel, kernels) = traced(Strategy::GmdjOptimized);
    assert!(
        !kernels.is_empty() && kernels.iter().all(|k| k == "ranked,ranked"),
        "{kernels:?}"
    );
    assert_eq!(eval.dead_early, 0);
    assert_eq!(kernel.rows_row_path, 0, "no pair on the row path");
    assert_eq!(eval.rank_lookups, 2 * 200);
    // The cost-based strategy picks the same fused plan.
    let (_, _, _, kernels) = traced(Strategy::GmdjCostBased);
    assert!(
        !kernels.is_empty() && kernels.iter().all(|k| k == "ranked,ranked"),
        "{kernels:?}"
    );

    let (scanned, eval, kernel, kernels) = traced(Strategy::GmdjOptimizedNoProbeIndex);
    assert!(
        !kernels.is_empty() && kernels.iter().all(|k| k == "scan-mask,scan-mask"),
        "{kernels:?}"
    );
    assert!(eval.dead_early > 0, "the row-ordered item prunes pairs");
    assert!(
        kernel.rows_row_path > 0,
        "the row-ordered item interprets pairs"
    );
    assert!(scanned.multiset_eq(&ranked));
    let oracle = run(&query, &catalog, Strategy::NaiveNestedLoop)
        .unwrap()
        .relation;
    assert!(ranked.multiset_eq(&oracle));
}

/// Shapes that completion settles within the first rows keep pair
/// evaluation with completion, although their θ has the ranked shape:
/// a NOT EXISTS over `<>` kills every customer at its first order of
/// another customer, and an EXISTS over a one-sided inequality that
/// almost every order satisfies finishes every customer at once. Both
/// scans stop long before the end of the 20,000 orders, which ranked
/// access would read whole.
#[test]
fn settling_exists_shapes_keep_completion_and_stop_early() {
    let catalog = TpcrData::generate(&TpcrConfig {
        customers: 50,
        orders: 20_000,
        lineitems: 1,
        parts: 1,
        suppliers: 1,
        seed: 4,
    })
    .into_catalog();
    for (sql, dead) in [
        (
            "SELECT c.custkey FROM customer c WHERE NOT EXISTS \
             (SELECT * FROM orders o WHERE c.custkey <> o.custkey)",
            true,
        ),
        (
            "SELECT c.custkey FROM customer c WHERE EXISTS \
             (SELECT * FROM orders o WHERE c.acctbal < o.totalprice)",
            false,
        ),
    ] {
        let query = parse_query(sql).unwrap();
        let result = run(&query, &catalog, Strategy::GmdjOptimized).unwrap();
        let eval = result.plan_stats.as_ref().unwrap().total_eval();
        assert_eq!(eval.rank_lookups, 0, "{sql}");
        let retired = if dead {
            eval.dead_early
        } else {
            eval.done_early
        };
        assert_eq!(retired, 50, "{sql}");
        assert!(eval.detail_scanned < 20_000 / 4, "{sql}: {eval:?}");
        let oracle = run(&query, &catalog, Strategy::NaiveNestedLoop)
            .unwrap()
            .relation;
        assert!(result.relation.multiset_eq(&oracle), "{sql}");
    }
}
