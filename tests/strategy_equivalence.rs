//! Property test: every evaluation strategy computes the same answer as
//! tuple-iteration semantics, for randomized data (including NULLs and
//! duplicates) and randomized subquery shapes.
//!
//! This is the main correctness argument for the whole pipeline: the
//! SubqueryToGMDJ translation (Theorem 3.5), the Section 4 optimizations,
//! and the join-unnesting baseline must all be observationally equivalent
//! to the naive semantics.

use proptest::prelude::*;

use gmdj_algebra::ast::{NestedPredicate, Quantifier, QueryExpr, SubqueryPred};
use gmdj_core::exec::MemoryCatalog;
use gmdj_core::runtime::ExecPolicy;
use gmdj_engine::strategy::{run, run_with_policy, Strategy as EvalStrategy};
use gmdj_relation::agg::{AggFunc, NamedAgg};
use gmdj_relation::expr::{col, lit, CmpOp, Predicate, ScalarExpr};
use gmdj_relation::relation::Relation;
use gmdj_relation::schema::{ColumnRef, DataType, Schema};
use gmdj_relation::value::Value;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Small integer domain with NULLs: collisions and empty correlated
/// ranges are common, which is where the bugs live.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0i64..5).prop_map(Value::Int),
        1 => Just(Value::Null),
    ]
}

fn table(qualifier: &'static str, max_rows: usize) -> impl Strategy<Value = Relation> {
    let schema = Schema::qualified(qualifier, &[("a", DataType::Int), ("b", DataType::Int)]);
    proptest::collection::vec((value(), value()), 0..max_rows).prop_map(move |rows| {
        Relation::from_parts(
            schema.clone(),
            rows.into_iter()
                .map(|(a, b)| vec![a, b].into_boxed_slice())
                .collect(),
        )
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// Correlation condition between the outer block (qualifier `B`) and an
/// inner table under `q`.
fn correlation(q: &'static str) -> impl Strategy<Value = Predicate> {
    prop_oneof![
        3 => (cmp_op()).prop_map(move |op| {
            ScalarExpr::Column(ColumnRef::qualified(q, "a"))
                .cmp_with(op, col("B.a"))
        }),
        1 => Just(Predicate::true_()),
        2 => (cmp_op(), 0i64..5).prop_map(move |(op, k)| {
            ScalarExpr::Column(ColumnRef::qualified(q, "b")).cmp_with(op, lit(k))
        }),
    ]
}

/// Conjunction of 1–2 correlation/local conjuncts.
fn theta(q: &'static str) -> impl Strategy<Value = Predicate> {
    proptest::collection::vec(correlation(q), 1..3).prop_map(Predicate::conjoin)
}

fn agg_func() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::CountStar),
        Just(AggFunc::Count),
        Just(AggFunc::Sum),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
        Just(AggFunc::Avg),
    ]
}

/// One subquery predicate over table `R` (qualifier `R1`).
fn subquery_pred() -> impl Strategy<Value = NestedPredicate> {
    let exists = theta("R1").prop_map(|t| {
        NestedPredicate::Subquery(SubqueryPred::Exists {
            query: Box::new(QueryExpr::table("R", "R1").select_flat(t)),
            negated: false,
        })
    });
    let not_exists = theta("R1").prop_map(|t| {
        NestedPredicate::Subquery(SubqueryPred::Exists {
            query: Box::new(QueryExpr::table("R", "R1").select_flat(t)),
            negated: true,
        })
    });
    let quantified = (theta("R1"), cmp_op(), proptest::bool::ANY).prop_map(|(t, op, all)| {
        NestedPredicate::Subquery(SubqueryPred::Quantified {
            left: col("B.a"),
            op,
            quantifier: if all {
                Quantifier::All
            } else {
                Quantifier::Some
            },
            query: Box::new(
                QueryExpr::table("R", "R1")
                    .select_flat(t)
                    .project(vec![ColumnRef::parse("R1.b")]),
            ),
        })
    });
    let in_pred = (theta("R1"), proptest::bool::ANY).prop_map(|(t, negated)| {
        NestedPredicate::Subquery(SubqueryPred::In {
            left: col("B.b"),
            query: Box::new(
                QueryExpr::table("R", "R1")
                    .select_flat(t)
                    .project(vec![ColumnRef::parse("R1.a")]),
            ),
            negated,
        })
    });
    let agg_cmp = (theta("R1"), cmp_op(), agg_func()).prop_map(|(t, op, f)| {
        NestedPredicate::Subquery(SubqueryPred::Cmp {
            left: col("B.a"),
            op,
            query: Box::new(
                QueryExpr::table("R", "R1")
                    .select_flat(t)
                    .agg_project(NamedAgg::new(f, col("R1.b"), "f")),
            ),
        })
    });
    prop_oneof![exists, not_exists, quantified, in_pred, agg_cmp]
}

/// A flat atom over the outer block.
fn outer_atom() -> impl Strategy<Value = NestedPredicate> {
    (cmp_op(), 0i64..5).prop_map(|(op, k)| NestedPredicate::Atom(col("B.a").cmp_with(op, lit(k))))
}

/// A full predicate: conjunctions/disjunctions/negations over subqueries
/// and atoms.
fn predicate() -> impl Strategy<Value = NestedPredicate> {
    let leaf = prop_oneof![3 => subquery_pred(), 1 => outer_atom()];
    leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

fn strategies() -> Vec<EvalStrategy> {
    vec![
        EvalStrategy::NaiveNestedLoop, // the oracle
        EvalStrategy::NativeSmart,
        EvalStrategy::NativeSmartNoIndex,
        EvalStrategy::JoinUnnest,
        EvalStrategy::JoinUnnestNoIndex,
        EvalStrategy::GmdjBasic,
        EvalStrategy::GmdjOptimized,
        EvalStrategy::GmdjOptimizedNoProbeIndex,
        EvalStrategy::GmdjBasicNoProbeIndex,
        EvalStrategy::GmdjCostBased,
    ]
}

/// Non-sequential policies every policy-sensitive strategy must also
/// agree under: answers are policy-invariant, only scheduling changes.
fn extra_policies() -> Vec<ExecPolicy> {
    vec![ExecPolicy::parallel(3), ExecPolicy::distributed(2)]
}

fn assert_all_agree(query: &QueryExpr, catalog: &MemoryCatalog) {
    let oracle = run(query, catalog, EvalStrategy::NaiveNestedLoop)
        .expect("oracle evaluation must succeed")
        .relation;
    for strat in strategies().into_iter().skip(1) {
        let got = run(query, catalog, strat)
            .unwrap_or_else(|e| panic!("{strat:?} failed on {query}: {e}"))
            .relation;
        assert!(
            oracle.multiset_eq(&got),
            "{strat:?} disagrees with tuple-iteration semantics on\n{query}\noracle \
             ({} rows):\n{oracle}\ngot ({} rows):\n{got}",
            oracle.len(),
            got.len(),
        );
        // The GMDJ strategies consume the execution policy; re-check them
        // under parallel and distributed runtimes.
        if matches!(
            strat,
            EvalStrategy::GmdjBasic
                | EvalStrategy::GmdjOptimized
                | EvalStrategy::GmdjBasicNoProbeIndex
                | EvalStrategy::GmdjOptimizedNoProbeIndex
                | EvalStrategy::GmdjCostBased
        ) {
            for policy in extra_policies() {
                let got = run_with_policy(query, catalog, strat, policy)
                    .unwrap_or_else(|e| panic!("{strat:?} under {policy:?} failed on {query}: {e}"))
                    .relation;
                assert!(
                    oracle.multiset_eq(&got),
                    "{strat:?} under {policy:?} disagrees with tuple-iteration semantics \
                     on\n{query}\noracle ({} rows):\n{oracle}\ngot ({} rows):\n{got}",
                    oracle.len(),
                    got.len(),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Single-level subqueries of every kind, under random boolean
    /// structure.
    #[test]
    fn all_strategies_agree_single_level(
        b in table("B", 10),
        r in table("R", 10),
        pred in predicate(),
    ) {
        let catalog = MemoryCatalog::new().with("B", b).with("R", r);
        let query = QueryExpr::table("B", "B").select(pred);
        assert_all_agree(&query, &catalog);
    }

    /// Linearly nested subqueries: the inner block correlates to the
    /// middle block (Theorem 3.2's shape).
    #[test]
    fn all_strategies_agree_linear_nesting(
        b in table("B", 8),
        r in table("R", 8),
        s in table("S", 8),
        mid_theta in theta("R1"),
        inner_op in cmp_op(),
        inner_negated in proptest::bool::ANY,
    ) {
        let catalog = MemoryCatalog::new().with("B", b).with("R", r).with("S", s);
        let inner = QueryExpr::table("S", "S1").select_flat(
            ScalarExpr::Column(ColumnRef::qualified("S1", "a"))
                .cmp_with(inner_op, ScalarExpr::Column(ColumnRef::qualified("R1", "b"))),
        );
        let mid = QueryExpr::table("R", "R1").select(
            NestedPredicate::Atom(mid_theta).and(NestedPredicate::Subquery(
                SubqueryPred::Exists { query: Box::new(inner), negated: inner_negated },
            )),
        );
        let query = QueryExpr::table("B", "B").select(NestedPredicate::Subquery(
            SubqueryPred::Exists { query: Box::new(mid), negated: false },
        ));
        assert_all_agree(&query, &catalog);
    }

    /// Non-neighboring correlation (Theorem 3.3/3.4 push-down): the
    /// innermost block references the outermost table.
    #[test]
    fn all_strategies_agree_non_neighboring(
        b in table("B", 6),
        r in table("R", 6),
        s in table("S", 6),
        deep_op in cmp_op(),
        mid_negated in proptest::bool::ANY,
    ) {
        let catalog = MemoryCatalog::new().with("B", b).with("R", r).with("S", s);
        let inner = QueryExpr::table("S", "S1").select_flat(
            ScalarExpr::Column(ColumnRef::qualified("S1", "a"))
                .cmp_with(deep_op, col("B.a")) // two levels up!
                .and(col("S1.b").eq(col("R1.b"))),
        );
        let mid = QueryExpr::table("R", "R1").select(NestedPredicate::Subquery(
            SubqueryPred::Exists { query: Box::new(inner), negated: mid_negated },
        ));
        let query = QueryExpr::table("B", "B").select(NestedPredicate::Subquery(
            SubqueryPred::Exists { query: Box::new(mid), negated: true },
        ));
        assert_all_agree(&query, &catalog);
    }

    /// Two subqueries over the same detail table — the coalescing path
    /// (Proposition 4.1) must not change results.
    #[test]
    fn all_strategies_agree_coalescable(
        b in table("B", 8),
        r in table("R", 10),
        t1 in theta("R1"),
        t2 in theta("R2"),
        neg1 in proptest::bool::ANY,
        neg2 in proptest::bool::ANY,
    ) {
        let catalog = MemoryCatalog::new().with("B", b).with("R", r);
        let s1 = NestedPredicate::Subquery(SubqueryPred::Exists {
            query: Box::new(QueryExpr::table("R", "R1").select_flat(t1)),
            negated: neg1,
        });
        // Rename R2's references: theta("R2") already produces them.
        let s2 = NestedPredicate::Subquery(SubqueryPred::Exists {
            query: Box::new(QueryExpr::table("R", "R2").select_flat(t2)),
            negated: neg2,
        });
        let query = QueryExpr::table("B", "B").select(s1.and(s2));
        assert_all_agree(&query, &catalog);
    }
}
