//! Complex OLAP queries: a subquery-defined base-values table combined
//! with a GMDJ aggregation — the query form of Examples 2.1–2.3.
//!
//! The paper's motivating queries are GMDJ aggregations whose base-values
//! table is itself defined by (possibly nested) subquery expressions. An
//! [`OlapQuery`] captures that shape; [`OlapQuery::run`] evaluates the
//! base table under any subquery strategy and the aggregation with the
//! GMDJ evaluator. Under [`Strategy::GmdjOptimized`] the whole query is
//! compiled into a single GMDJ expression first, letting the coalescing
//! rewrite merge the base-table subquery blocks with the aggregation
//! blocks — Example 4.1's "a single scan of the Flow table suffices to
//! compute all the aggregates required".

use gmdj_algebra::ast::QueryExpr;
use gmdj_core::eval::{EvalStats, Keep};
use gmdj_core::exec::{execute, ExecContext, TableProvider};
use gmdj_core::optimize::optimize;
use gmdj_core::plan::GmdjExpr;
use gmdj_core::runtime::{ExecPolicy, Runtime};
use gmdj_core::spec::GmdjSpec;
use gmdj_core::translate::subquery_to_gmdj;
use gmdj_relation::error::Result;
use gmdj_relation::expr::{Predicate, ScalarExpr};
use gmdj_relation::ops;
use gmdj_relation::relation::Relation;

use crate::strategy::{self, GmdjPlanning, Strategy};

/// The GMDJ aggregation part of an OLAP query:
/// `MD(B, detail, spec)` with an optional final selection.
#[derive(Debug, Clone)]
pub struct Aggregation {
    /// The detail relation (usually a base table).
    pub detail: QueryExpr,
    /// The aggregate blocks (lᵢ, θᵢ).
    pub spec: GmdjSpec,
    /// Selection over the GMDJ output (e.g. `cnt1 = cnt2` in
    /// Example 2.1).
    pub having: Option<Predicate>,
}

/// A complex OLAP query: base-values table + aggregation + projection.
#[derive(Debug, Clone)]
pub struct OlapQuery {
    /// The base-values table definition (may contain subqueries).
    pub base: QueryExpr,
    /// The aggregation; `None` evaluates just the base query.
    pub aggregation: Option<Aggregation>,
    /// Final projection items (expression, output name); empty keeps all
    /// columns.
    pub projection: Vec<(ScalarExpr, Option<String>)>,
}

impl OlapQuery {
    /// Query returning the base table as-is.
    pub fn base_only(base: QueryExpr) -> Self {
        OlapQuery {
            base,
            aggregation: None,
            projection: Vec::new(),
        }
    }

    /// Evaluate under a subquery strategy, sequentially. Returns the
    /// result and the GMDJ evaluator's work counters (zero for strategies
    /// that never reach a GMDJ).
    pub fn run(
        &self,
        catalog: &dyn TableProvider,
        strat: Strategy,
    ) -> Result<(Relation, EvalStats)> {
        self.run_with_policy(catalog, strat, ExecPolicy::sequential())
    }

    /// Evaluate under a subquery strategy and an execution policy; every
    /// GMDJ evaluation — including the aggregation step of the non-GMDJ
    /// strategies — goes through the policy's [`Runtime`].
    pub fn run_with_policy(
        &self,
        catalog: &dyn TableProvider,
        strat: Strategy,
        policy: ExecPolicy,
    ) -> Result<(Relation, EvalStats)> {
        let mut gmdj_stats = EvalStats::default();
        let combined = match strat.gmdj() {
            Some((planning, probe)) if planning != GmdjPlanning::CostBased => {
                // Compile the whole query into one GMDJ expression.
                let base_plan = subquery_to_gmdj(&self.base, catalog)?;
                let plan = match &self.aggregation {
                    Some(agg) => {
                        let detail_plan = subquery_to_gmdj(&agg.detail, catalog)?;
                        let g = base_plan.gmdj(detail_plan, agg.spec.clone());
                        match &agg.having {
                            Some(h) => g.select(h.clone()),
                            None => g,
                        }
                    }
                    None => base_plan,
                };
                let plan = if planning == GmdjPlanning::Optimized {
                    optimize(&plan)
                } else {
                    plan
                };
                let mut ctx = ExecContext::with_policy(policy.with_probe(probe));
                let rel = execute(&plan, catalog, &mut ctx)?;
                gmdj_stats = ctx.stats;
                rel
            }
            _ => {
                // Evaluate the base under the chosen strategy (the
                // cost-based one plans the base query alone), then the
                // aggregation through the policy's runtime (the
                // aggregation is the query form itself, not a subquery).
                let base_rel =
                    strategy::run_with_policy(&self.base, catalog, strat, policy)?.relation;
                match &self.aggregation {
                    Some(agg) => {
                        let detail_rel =
                            strategy::run_with_policy(&agg.detail, catalog, strat, policy)?
                                .relation;
                        let mut node = gmdj_core::PlanNodeStats::new("GMDJ");
                        let out = Runtime::new(policy).eval(
                            &base_rel,
                            &detail_rel,
                            &agg.spec,
                            None,
                            Keep::All,
                            None,
                            &mut node,
                        )?;
                        gmdj_stats.merge(&node.eval);
                        match &agg.having {
                            Some(h) => ops::select(&out, h)?,
                            None => out,
                        }
                    }
                    None => base_rel,
                }
            }
        };
        let projected = if self.projection.is_empty() {
            combined
        } else {
            ops::project(&combined, &self.projection)?
        };
        Ok((projected, gmdj_stats))
    }

    /// The fully compiled (and optionally optimized) GMDJ plan, for
    /// EXPLAIN output.
    pub fn plan(&self, catalog: &dyn TableProvider, optimized: bool) -> Result<GmdjExpr> {
        let base_plan = subquery_to_gmdj(&self.base, catalog)?;
        let plan = match &self.aggregation {
            Some(agg) => {
                let detail_plan = subquery_to_gmdj(&agg.detail, catalog)?;
                let g = base_plan.gmdj(detail_plan, agg.spec.clone());
                match &agg.having {
                    Some(h) => g.select(h.clone()),
                    None => g,
                }
            }
            None => base_plan,
        };
        Ok(if optimized { optimize(&plan) } else { plan })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdj_algebra::ast::exists;
    use gmdj_core::exec::MemoryCatalog;
    use gmdj_core::spec::AggBlock;
    use gmdj_relation::agg::NamedAgg;
    use gmdj_relation::expr::{col, lit};
    use gmdj_relation::relation::RelationBuilder;
    use gmdj_relation::schema::DataType;
    use gmdj_relation::value::Value;

    fn catalog() -> MemoryCatalog {
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
            .column("StartTime", DataType::Int)
            .column("Protocol", DataType::Str)
            .column("NumBytes", DataType::Int)
            .column("DestIP", DataType::Str)
            .row(vec![43.into(), "HTTP".into(), 12.into(), "10.0.0.1".into()])
            .row(vec![
                86.into(),
                "HTTP".into(),
                36.into(),
                "167.167.167.0".into(),
            ])
            .row(vec![99.into(), "FTP".into(), 48.into(), "10.0.0.2".into()])
            .row(vec![
                132.into(),
                "HTTP".into(),
                24.into(),
                "10.0.0.1".into(),
            ])
            .row(vec![
                156.into(),
                "HTTP".into(),
                24.into(),
                "10.0.0.3".into(),
            ])
            .row(vec![161.into(), "FTP".into(), 48.into(), "10.0.0.1".into()])
            .build()
            .unwrap();
        MemoryCatalog::new().with("Hours", hours).with("Flow", flow)
    }

    /// Example 2.1: hourly web-traffic fraction.
    fn example_2_1() -> OlapQuery {
        let in_hour = col("F.StartTime")
            .ge(col("H.StartInterval"))
            .and(col("F.StartTime").lt(col("H.EndInterval")));
        OlapQuery {
            base: QueryExpr::table("Hours", "H"),
            aggregation: Some(Aggregation {
                detail: QueryExpr::table("Flow", "F"),
                spec: GmdjSpec::new(vec![
                    AggBlock::new(
                        in_hour.clone().and(col("F.Protocol").eq(lit("HTTP"))),
                        vec![NamedAgg::sum(col("F.NumBytes"), "sum1")],
                    ),
                    AggBlock::new(in_hour, vec![NamedAgg::sum(col("F.NumBytes"), "sum2")]),
                ]),
                having: None,
            }),
            projection: vec![
                (col("H.HourDsc"), None),
                (col("sum1").div(col("sum2")), Some("fraction".into())),
            ],
        }
    }

    #[test]
    fn example_2_1_fractions() {
        let (rel, _) = example_2_1()
            .run(&catalog(), Strategy::GmdjOptimized)
            .unwrap();
        let rows = rel.sorted_rows();
        assert_eq!(rows[0][1], Value::Float(1.0)); // 12/12
        assert_eq!(rows[1][1], Value::Float(36.0 / 84.0));
        assert_eq!(rows[2][1], Value::Float(0.5)); // 48/96
    }

    /// Example 2.2: base table filtered by an EXISTS subquery; all
    /// strategies must agree.
    #[test]
    fn example_2_2_all_strategies_agree() {
        let inner = QueryExpr::table("Flow", "FI").select_flat(
            col("FI.DestIP")
                .eq(lit("167.167.167.0"))
                .and(col("FI.StartTime").ge(col("H.StartInterval")))
                .and(col("FI.StartTime").lt(col("H.EndInterval"))),
        );
        let mut q = example_2_1();
        q.base = QueryExpr::table("Hours", "H").select(exists(inner));
        let mut previous: Option<Relation> = None;
        for strat in [
            Strategy::NaiveNestedLoop,
            Strategy::NativeSmart,
            Strategy::JoinUnnest,
            Strategy::GmdjBasic,
            Strategy::GmdjOptimized,
        ] {
            let (rel, _) = q.run(&catalog(), strat).unwrap();
            // Only hour 2 contains traffic to the marked destination.
            assert_eq!(rel.len(), 1, "{strat:?}");
            if let Some(p) = &previous {
                assert!(p.multiset_eq(&rel), "{strat:?}");
            }
            previous = Some(rel);
        }
    }

    #[test]
    fn example_2_1_identical_under_every_policy() {
        let q = example_2_1();
        let (seq, _) = q.run(&catalog(), Strategy::GmdjOptimized).unwrap();
        for strat in [
            Strategy::NativeSmart,
            Strategy::GmdjBasic,
            Strategy::GmdjOptimized,
        ] {
            for policy in [ExecPolicy::parallel(4), ExecPolicy::distributed(3)] {
                let (rel, _) = q.run_with_policy(&catalog(), strat, policy).unwrap();
                assert!(rel.multiset_eq(&seq), "{strat:?} under {policy:?}");
            }
        }
    }

    #[test]
    fn optimized_plan_coalesces_base_and_aggregation() {
        // Base subquery over Flow + aggregation over Flow should coalesce
        // into fewer GMDJs under the optimizer when the detail matches.
        let inner = QueryExpr::table("Flow", "FI").select_flat(
            col("FI.DestIP")
                .eq(lit("167.167.167.0"))
                .and(col("FI.StartTime").ge(col("H.StartInterval")))
                .and(col("FI.StartTime").lt(col("H.EndInterval"))),
        );
        let mut q = example_2_1();
        q.base = QueryExpr::table("Hours", "H").select(exists(inner));
        let basic = q.plan(&catalog(), false).unwrap();
        let optimized = q.plan(&catalog(), true).unwrap();
        assert_eq!(basic.gmdj_count(), 2);
        // Coalescing folds the EXISTS block into the aggregation GMDJ.
        assert_eq!(optimized.gmdj_count(), 1, "{optimized}");
    }
}
