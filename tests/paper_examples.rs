//! End-to-end checks of every worked example in the paper, executed under
//! all evaluation strategies.

use gmdj_algebra::ast::{exists, not_exists, NestedPredicate, QueryExpr, SubqueryPred};
use gmdj_core::exec::MemoryCatalog;
use gmdj_core::spec::{AggBlock, GmdjSpec};
use gmdj_engine::olap::{Aggregation, OlapQuery};
use gmdj_engine::strategy::{explain_gmdj, run_all_agree, Strategy};
use gmdj_relation::agg::NamedAgg;
use gmdj_relation::expr::{col, lit, CmpOp};
use gmdj_relation::ops;
use gmdj_relation::relation::{Relation, RelationBuilder};
use gmdj_relation::schema::{ColumnRef, DataType};
use gmdj_relation::value::Value;

fn figure_1_catalog() -> MemoryCatalog {
    let hours = RelationBuilder::new("Hours")
        .column("HourDsc", DataType::Int)
        .column("StartInterval", DataType::Int)
        .column("EndInterval", DataType::Int)
        .row(vec![1.into(), 0.into(), 60.into()])
        .row(vec![2.into(), 61.into(), 120.into()])
        .row(vec![3.into(), 121.into(), 180.into()])
        .build()
        .unwrap();
    let flow = RelationBuilder::new("Flow")
        .column("SourceIP", DataType::Str)
        .column("DestIP", DataType::Str)
        .column("StartTime", DataType::Int)
        .column("Protocol", DataType::Str)
        .column("NumBytes", DataType::Int)
        .row(vec![
            "10.0.0.1".into(),
            "167.167.167.0".into(),
            43.into(),
            "HTTP".into(),
            12.into(),
        ])
        .row(vec![
            "10.0.0.2".into(),
            "10.0.0.9".into(),
            86.into(),
            "HTTP".into(),
            36.into(),
        ])
        .row(vec![
            "10.0.0.1".into(),
            "10.0.0.8".into(),
            99.into(),
            "FTP".into(),
            48.into(),
        ])
        .row(vec![
            "10.0.0.3".into(),
            "168.168.168.0".into(),
            132.into(),
            "HTTP".into(),
            24.into(),
        ])
        .row(vec![
            "10.0.0.2".into(),
            "10.0.0.7".into(),
            156.into(),
            "HTTP".into(),
            24.into(),
        ])
        .row(vec![
            "10.0.0.3".into(),
            "10.0.0.9".into(),
            161.into(),
            "FTP".into(),
            48.into(),
        ])
        .build()
        .unwrap();
    MemoryCatalog::new().with("Hours", hours).with("Flow", flow)
}

fn full_lineup() -> Vec<Strategy> {
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

/// Figure 1 — exact sums from Example 2.1's GMDJ.
#[test]
fn figure_1_golden_output() {
    use gmdj_core::eval::Keep;
    use gmdj_core::exec::TableProvider;
    use gmdj_core::runtime::{PlanNodeStats, Runtime};
    let catalog = figure_1_catalog();
    let in_hour = col("F.StartTime")
        .ge(col("H.StartInterval"))
        .and(col("F.StartTime").lt(col("H.EndInterval")));
    let spec = GmdjSpec::new(vec![
        AggBlock::new(
            in_hour.clone().and(col("F.Protocol").eq(lit("HTTP"))),
            vec![NamedAgg::sum(col("F.NumBytes"), "sum1")],
        ),
        AggBlock::new(in_hour, vec![NamedAgg::sum(col("F.NumBytes"), "sum2")]),
    ]);
    let mut node = PlanNodeStats::new("GMDJ");
    let out = Runtime::sequential()
        .eval(
            &catalog.table("Hours").unwrap().renamed("H"),
            &catalog.table("Flow").unwrap().renamed("F"),
            &spec,
            None,
            Keep::All,
            None,
            &mut node,
        )
        .unwrap();
    let rows = out.sorted_rows();
    // Figure 1: (1, 12/12), (2, 36/84), (3, 48/96).
    let expected = [(1, 12, 12), (2, 36, 84), (3, 48, 96)];
    for ((hour, s1, s2), row) in expected.iter().zip(&rows) {
        assert_eq!(row[0], Value::Int(*hour));
        assert_eq!(row[3], Value::Int(*s1));
        assert_eq!(row[4], Value::Int(*s2));
    }
    // "a single scan of the detail table".
    assert_eq!(node.eval.detail_scanned, 6);
    assert_eq!(node.eval.partitions, 1);
}

/// Example 2.2 — EXISTS-filtered base table, full OLAP query, all
/// strategies agree; only the hour with traffic to the watched IP
/// qualifies.
#[test]
fn example_2_2_end_to_end() {
    let catalog = figure_1_catalog();
    let inner = QueryExpr::table("Flow", "FI").select_flat(
        col("FI.DestIP")
            .eq(lit("167.167.167.0"))
            .and(col("FI.StartTime").ge(col("H.StartInterval")))
            .and(col("FI.StartTime").lt(col("H.EndInterval"))),
    );
    let base = QueryExpr::table("Hours", "H").select(exists(inner));
    let results = run_all_agree(&base, &catalog, &full_lineup()).unwrap();
    assert_eq!(results[0].1.relation.len(), 1);
    assert_eq!(results[0].1.relation.rows()[0][0], Value::Int(1));

    // The full OLAP query with the web-fraction aggregation.
    let in_hour = col("FO.StartTime")
        .ge(col("H.StartInterval"))
        .and(col("FO.StartTime").lt(col("H.EndInterval")));
    let q = OlapQuery {
        base,
        aggregation: Some(Aggregation {
            detail: QueryExpr::table("Flow", "FO"),
            spec: GmdjSpec::new(vec![
                AggBlock::new(
                    in_hour.clone().and(col("FO.Protocol").eq(lit("HTTP"))),
                    vec![NamedAgg::sum(col("FO.NumBytes"), "sum1")],
                ),
                AggBlock::new(in_hour, vec![NamedAgg::sum(col("FO.NumBytes"), "sum2")]),
            ]),
            having: None,
        }),
        projection: vec![
            (col("H.HourDsc"), None),
            (col("sum1").div(col("sum2")), Some("frac".into())),
        ],
    };
    let mut previous: Option<Relation> = None;
    for strat in [
        Strategy::NativeSmart,
        Strategy::JoinUnnest,
        Strategy::GmdjBasic,
        Strategy::GmdjOptimized,
    ] {
        let (rel, _) = q.run(&catalog, strat).unwrap();
        assert_eq!(rel.len(), 1, "{strat:?}");
        assert_eq!(rel.rows()[0][1], Value::Float(1.0), "hour 1 is all HTTP");
        if let Some(p) = &previous {
            assert!(p.multiset_eq(&rel));
        }
        previous = Some(rel);
    }
}

/// Example 2.3 — three subqueries over Flow; all strategies agree and the
/// optimizer coalesces everything into one GMDJ (Example 4.1).
#[test]
fn example_2_3_and_4_1_end_to_end() {
    let catalog = figure_1_catalog();
    let flow_to = |q: &str, ip: &str| {
        QueryExpr::table("Flow", q).select_flat(
            col("F0.SourceIP")
                .eq(col(&format!("{q}.SourceIP")))
                .and(col(&format!("{q}.DestIP")).eq(lit(ip))),
        )
    };
    let base = QueryExpr::table("Flow", "F0")
        .project_distinct(vec![ColumnRef::parse("F0.SourceIP")])
        .select(
            not_exists(flow_to("F1", "167.167.167.0"))
                .and(exists(flow_to("F2", "168.168.168.0")))
                .and(not_exists(flow_to("F3", "169.169.169.0"))),
        );
    let results = run_all_agree(&base, &catalog, &full_lineup()).unwrap();
    // Only source 10.0.0.3 sends to 168… and not to 167…/169… .
    assert_eq!(results[0].1.relation.len(), 1);
    assert_eq!(results[0].1.relation.rows()[0][0], Value::str("10.0.0.3"));

    // Example 4.1: optimized plan has a single (coalesced) GMDJ.
    let basic = explain_gmdj(&base, &catalog, false).unwrap();
    let optimized = explain_gmdj(&base, &catalog, true).unwrap();
    assert_eq!(basic.matches("GMDJ").count(), 3);
    assert!(optimized.contains("FilteredGMDJ (3 blocks)"), "{optimized}");
}

/// Example 3.3/3.4 — non-neighboring predicate: one supplementary join,
/// same answers everywhere.
#[test]
fn example_3_3_end_to_end() {
    let users = RelationBuilder::new("User")
        .column("Name", DataType::Str)
        .column("IPAddress", DataType::Str)
        .row(vec!["alice".into(), "10.0.0.1".into()])
        .row(vec!["bob".into(), "10.0.0.2".into()])
        .row(vec!["carol".into(), "10.0.0.3".into()])
        .build()
        .unwrap();
    let catalog = figure_1_catalog().with("User", users);
    let theta_f = col("F.StartTime")
        .ge(col("H.StartInterval"))
        .and(col("F.StartTime").lt(col("H.EndInterval")))
        .and(col("F.SourceIP").eq(col("U.IPAddress")));
    let inner_flow = QueryExpr::table("Flow", "F").select_flat(theta_f);
    let theta_h = col("H.StartInterval").ge(lit(0));
    let hours = QueryExpr::table("Hours", "H")
        .select(NestedPredicate::Atom(theta_h).and(not_exists(inner_flow)));
    let query = QueryExpr::table("User", "U").select(not_exists(hours));

    // Tuple-iteration oracle vs GMDJ translations (the unnest strategies
    // fall back to tuple iteration for non-neighboring references, which
    // still must agree).
    let results = run_all_agree(&query, &catalog, &full_lineup()).unwrap();
    // alice sends in hours 1,2 but not 3 → inactive; bob hours 2,3 not 1;
    // carol hours 3 only. Nobody is active in every hour.
    assert_eq!(results[0].1.relation.len(), 0);

    // Exactly one supplementary join (Example 3.4).
    let plan = explain_gmdj(&query, &catalog, false).unwrap();
    assert_eq!(plan.matches("Join").count(), 1, "{plan}");
}

/// Footnote 2 — `B.x >all R.y` is NOT equivalent to `B.x > max(R.y)` when
/// the correlated range is empty: ALL is true, the aggregate comparison is
/// unknown.
#[test]
fn footnote_2_all_vs_max() {
    let b = RelationBuilder::new("B")
        .column("x", DataType::Int)
        .column("k", DataType::Int)
        .row(vec![5.into(), 1.into()])
        .build()
        .unwrap();
    let r = RelationBuilder::new("R")
        .column("y", DataType::Int)
        .column("k", DataType::Int)
        // No rows with k = 1: the correlated range is empty.
        .row(vec![100.into(), 2.into()])
        .build()
        .unwrap();
    let catalog = MemoryCatalog::new().with("B", b).with("R", r);

    let all_query =
        QueryExpr::table("B", "B").select(NestedPredicate::Subquery(SubqueryPred::Quantified {
            left: col("B.x"),
            op: CmpOp::Gt,
            quantifier: gmdj_algebra::ast::Quantifier::All,
            query: Box::new(
                QueryExpr::table("R", "R")
                    .select_flat(col("R.k").eq(col("B.k")))
                    .project(vec![ColumnRef::parse("R.y")]),
            ),
        }));
    let max_query =
        QueryExpr::table("B", "B").select(NestedPredicate::Subquery(SubqueryPred::Cmp {
            left: col("B.x"),
            op: CmpOp::Gt,
            query: Box::new(
                QueryExpr::table("R", "R")
                    .select_flat(col("R.k").eq(col("B.k")))
                    .agg_project(NamedAgg::new(
                        gmdj_relation::agg::AggFunc::Max,
                        col("R.y"),
                        "m",
                    )),
            ),
        }));
    for strat in full_lineup() {
        let all = gmdj_engine::strategy::run(&all_query, &catalog, strat).unwrap();
        let max = gmdj_engine::strategy::run(&max_query, &catalog, strat).unwrap();
        assert_eq!(
            all.relation.len(),
            1,
            "{strat:?}: ALL over empty range is true"
        );
        assert_eq!(max.relation.len(), 0, "{strat:?}: > max(∅) is unknown");
    }
}

/// The documented divergence of Table 1's scalar-comparison rule: SQL
/// raises a cardinality error when the scalar subquery returns more than
/// one row, while the count-based translation (σ[cnt = 1]) silently drops
/// the tuple — the paper notes "handling such run-time exceptions is
/// beyond the scope of this paper".
#[test]
fn scalar_cardinality_violation_divergence_is_as_documented() {
    let b = RelationBuilder::new("B")
        .column("x", DataType::Int)
        .row(vec![0.into()])
        .build()
        .unwrap();
    let r = RelationBuilder::new("R")
        .column("y", DataType::Int)
        .row(vec![1.into()])
        .row(vec![2.into()])
        .build()
        .unwrap();
    let catalog = MemoryCatalog::new().with("B", b).with("R", r);
    let q = QueryExpr::table("B", "B").select(NestedPredicate::Subquery(SubqueryPred::Cmp {
        left: col("B.x"),
        op: CmpOp::Lt,
        query: Box::new(QueryExpr::table("R", "R").project(vec![ColumnRef::parse("R.y")])),
    }));
    // SQL semantics (reference engine): run-time cardinality error.
    let err = gmdj_engine::strategy::run(&q, &catalog, Strategy::NaiveNestedLoop).unwrap_err();
    assert!(matches!(
        err,
        gmdj_relation::error::Error::CardinalityViolation { .. }
    ));
    // Count-based translation: σ[cnt = 1] quietly rejects the tuple
    // (cnt = 2 matching rows).
    let gmdj = gmdj_engine::strategy::run(&q, &catalog, Strategy::GmdjOptimized).unwrap();
    assert_eq!(gmdj.relation.len(), 0);
    // When the subquery is single-row, all strategies agree.
    let r1 = RelationBuilder::new("R")
        .column("y", DataType::Int)
        .row(vec![1.into()])
        .build()
        .unwrap();
    let catalog1 = MemoryCatalog::new()
        .with(
            "B",
            RelationBuilder::new("B")
                .column("x", DataType::Int)
                .row(vec![0.into()])
                .build()
                .unwrap(),
        )
        .with("R", r1);
    let results = run_all_agree(&q, &catalog1, &full_lineup()).unwrap();
    assert_eq!(results[0].1.relation.len(), 1); // 0 < 1
}

/// The where-clause-truncation behaviour: a subquery predicate evaluating
/// to unknown discards the tuple in every strategy.
#[test]
fn null_poisoned_not_in_all_strategies() {
    let b = RelationBuilder::new("B")
        .column("x", DataType::Int)
        .row(vec![7.into()])
        .build()
        .unwrap();
    let r = RelationBuilder::new("R")
        .column("y", DataType::Int)
        .row(vec![1.into()])
        .row(vec![Value::Null])
        .build()
        .unwrap();
    let catalog = MemoryCatalog::new().with("B", b).with("R", r);
    let q = QueryExpr::table("B", "B").select(NestedPredicate::Subquery(SubqueryPred::In {
        left: col("B.x"),
        query: Box::new(QueryExpr::table("R", "R").project(vec![ColumnRef::parse("R.y")])),
        negated: true,
    }));
    let results = run_all_agree(&q, &catalog, &full_lineup()).unwrap();
    assert_eq!(results[0].1.relation.len(), 0);
}

/// Multiset semantics: duplicate outer tuples survive subquery selections
/// in duplicate.
#[test]
fn duplicates_preserved_through_subqueries() {
    let b = RelationBuilder::new("B")
        .column("x", DataType::Int)
        .row(vec![1.into()])
        .row(vec![1.into()])
        .row(vec![2.into()])
        .build()
        .unwrap();
    let r = RelationBuilder::new("R")
        .column("y", DataType::Int)
        .row(vec![1.into()])
        .build()
        .unwrap();
    let catalog = MemoryCatalog::new().with("B", b).with("R", r);
    let sub = QueryExpr::table("R", "R").select_flat(col("R.y").eq(col("B.x")));
    let q = QueryExpr::table("B", "B").select(exists(sub));
    let results = run_all_agree(&q, &catalog, &full_lineup()).unwrap();
    assert_eq!(results[0].1.relation.len(), 2);
}

/// π[HourDescription, sum1/sum2]σ[cnt1 = cnt2] — the `having` selection
/// form of Example 2.1's header (cnt1 = cnt2 filters on count equality).
#[test]
fn having_selection_over_gmdj_output() {
    use gmdj_core::eval::Keep;
    use gmdj_core::exec::TableProvider;
    use gmdj_core::runtime::{PlanNodeStats, Runtime};
    let catalog = figure_1_catalog();
    let in_hour = col("F.StartTime")
        .ge(col("H.StartInterval"))
        .and(col("F.StartTime").lt(col("H.EndInterval")));
    let spec = GmdjSpec::new(vec![
        AggBlock::count(
            in_hour.clone().and(col("F.Protocol").eq(lit("HTTP"))),
            "cnt1",
        ),
        AggBlock::count(in_hour, "cnt2"),
    ]);
    let out = Runtime::sequential()
        .eval(
            &catalog.table("Hours").unwrap().renamed("H"),
            &catalog.table("Flow").unwrap().renamed("F"),
            &spec,
            None,
            Keep::All,
            None,
            &mut PlanNodeStats::new("GMDJ"),
        )
        .unwrap();
    let only_http_hours = ops::select(&out, &col("cnt1").eq(col("cnt2"))).unwrap();
    // Hour 1 is all-HTTP in Figure 1's data.
    assert_eq!(only_http_hours.len(), 1);
    assert_eq!(only_http_hours.rows()[0][0], Value::Int(1));
}
