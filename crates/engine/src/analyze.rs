//! EXPLAIN ANALYZE: run a query and render the timed, counter-annotated
//! plan tree.
//!
//! [`explain_analyze`] executes the query under the requested strategy
//! and [`ExecPolicy`] with tracing enabled, then packages the
//! [`PlanNodeStats`] tree together with query-level wall-clock into an
//! [`AnalyzeReport`] renderable as text (the shell's `\analyze`) or JSON
//! (`\analyze json`, `repro --profile-json`).

use std::sync::Arc;
use std::time::Duration;

use gmdj_algebra::ast::QueryExpr;
use gmdj_core::exec::TableProvider;
use gmdj_core::runtime::{ExecPolicy, PlanNodeStats};
use gmdj_core::trace::{json_escape, TraceSink};
use gmdj_relation::error::Result;

use crate::strategy::{run_with_policy_traced, Strategy};

/// The product of an EXPLAIN ANALYZE run: query-level timing plus the
/// per-plan-node statistics tree (GMDJ strategies; the reference and
/// unnest engines report query totals only).
#[derive(Debug)]
pub struct AnalyzeReport {
    /// Strategy label (`gmdj-opt`, `native`, …).
    pub strategy: &'static str,
    /// The execution policy the query ran under.
    pub policy: ExecPolicy,
    /// Evaluation wall-clock (the `query.execute` span).
    pub wall: Duration,
    /// Translation + optimization wall-clock (the `query.plan` span;
    /// zero for plan-free engines).
    pub plan_wall: Duration,
    /// Result cardinality.
    pub rows: usize,
    /// The timed plan tree, when the strategy builds a GMDJ plan.
    pub tree: Option<PlanNodeStats>,
    /// Total machine-independent work (strategy-specific counters).
    pub work: u64,
}

impl AnalyzeReport {
    /// Human-readable report: header lines plus the annotated tree.
    pub fn render(&self) -> String {
        let mut out = format!(
            "strategy: {}  policy: {}\nplan: {:.3}ms  execute: {:.3}ms  rows: {}  work: {}\n",
            self.strategy,
            self.policy.label(),
            self.plan_wall.as_secs_f64() * 1e3,
            self.wall.as_secs_f64() * 1e3,
            self.rows,
            self.work,
        );
        match &self.tree {
            Some(tree) => {
                // Percentages are of the executor's inclusive root time,
                // falling back to the query wall when the tree is empty.
                out.push_str(&tree.render_analyze());
            }
            None => out.push_str("(no plan tree: strategy interprets the query directly)\n"),
        }
        out
    }

    /// The cost model's figure for the work the plan tree recorded
    /// ([`gmdj_core::cost::observed_cost`]), if the strategy built one.
    /// Comparing it against `wall` calibrates the model's cost units.
    pub fn predicted_cost(&self) -> Option<f64> {
        self.tree
            .as_ref()
            .map(|t| gmdj_core::cost::observed_cost(t).total())
    }

    /// Machine-readable report (hand-rolled JSON; no serde in-tree).
    pub fn to_json(&self) -> String {
        let tree = match &self.tree {
            Some(t) => t.to_json(),
            None => "null".to_string(),
        };
        let predicted = match self.predicted_cost() {
            Some(c) => format!("{c:.1}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"strategy\":\"{}\",\"policy\":\"{}\",\"plan_us\":{},\"execute_us\":{},\"rows\":{},\"work\":{},\"predicted_cost\":{predicted},\"plan\":{}}}",
            json_escape(self.strategy),
            json_escape(&self.policy.label()),
            self.plan_wall.as_micros(),
            self.wall.as_micros(),
            self.rows,
            self.work,
            tree,
        )
    }
}

/// Run `query` under `strategy` and `policy` with tracing into `sink`,
/// returning the timed report. Use [`gmdj_core::trace::NullSink`] when
/// only the report (not the raw spans) is wanted.
pub fn explain_analyze(
    query: &QueryExpr,
    catalog: &dyn TableProvider,
    strategy: Strategy,
    policy: ExecPolicy,
    sink: Arc<dyn TraceSink>,
) -> Result<AnalyzeReport> {
    let result = run_with_policy_traced(query, catalog, strategy, policy, sink)?;
    let work = result.stats.work();
    Ok(AnalyzeReport {
        strategy: strategy.label(),
        policy,
        wall: result.wall,
        plan_wall: result.plan_wall,
        rows: result.relation.len(),
        tree: result.plan_stats,
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdj_algebra::ast::exists;
    use gmdj_core::exec::MemoryCatalog;
    use gmdj_core::trace::NullSink;
    use gmdj_relation::expr::col;
    use gmdj_relation::relation::RelationBuilder;
    use gmdj_relation::schema::DataType;

    fn catalog() -> MemoryCatalog {
        let customers = RelationBuilder::new("C")
            .column("id", DataType::Int)
            .row(vec![1.into()])
            .row(vec![2.into()])
            .build()
            .unwrap();
        let orders = RelationBuilder::new("O")
            .column("cust", DataType::Int)
            .row(vec![1.into()])
            .build()
            .unwrap();
        MemoryCatalog::new()
            .with("Customers", customers)
            .with("Orders", orders)
    }

    fn query() -> QueryExpr {
        let sub = QueryExpr::table("Orders", "O").select_flat(col("O.cust").eq(col("C.id")));
        QueryExpr::table("Customers", "C").select(exists(sub))
    }

    #[test]
    fn analyze_renders_timed_tree_under_every_policy() {
        for policy in [
            ExecPolicy::sequential(),
            ExecPolicy::parallel(2),
            ExecPolicy::distributed(2),
        ] {
            let report = explain_analyze(
                &query(),
                &catalog(),
                Strategy::GmdjOptimized,
                policy,
                Arc::new(NullSink),
            )
            .unwrap();
            let text = report.render();
            assert!(text.contains("strategy: gmdj-opt"), "{text}");
            assert!(text.contains("time="), "{text}");
            assert!(text.contains("predicted="), "{text}");
            assert!(text.contains("GMDJ"), "{text}");
            let tree = report.tree.as_ref().unwrap();
            assert!(tree.elapsed_ns > 0);
            let predicted = report.predicted_cost().unwrap();
            assert!(predicted > 0.0 && predicted.is_finite());
            let json = report.to_json();
            assert!(json.contains("\"plan\":{"), "{json}");
            assert!(json.contains("\"predicted_cost\":"), "{json}");
        }
    }

    #[test]
    fn analyze_renders_per_site_breakdown_under_distributed_runs() {
        let report = explain_analyze(
            &query(),
            &catalog(),
            Strategy::GmdjOptimized,
            ExecPolicy::distributed(2),
            Arc::new(NullSink),
        )
        .unwrap();
        let text = report.render();
        // One breakdown line per site: round-trip wall, site-local wall,
        // derived wire time, coordinator merge time, measured wire bytes.
        for needle in [
            "site0",
            "site1",
            "rt=",
            "site=",
            "wire=",
            "merge=",
            "bytes[sent=",
        ] {
            assert!(text.contains(needle), "missing `{needle}`\n{text}");
        }
        let json = report.to_json();
        assert!(json.contains("\"sites\":["), "{json}");
        assert!(json.contains("\"site_wall_ns\":"), "{json}");
    }

    #[test]
    fn analyze_without_plan_tree_reports_totals() {
        let report = explain_analyze(
            &query(),
            &catalog(),
            Strategy::NativeSmart,
            ExecPolicy::sequential(),
            Arc::new(NullSink),
        )
        .unwrap();
        assert!(report.tree.is_none());
        assert!(report.predicted_cost().is_none());
        assert!(report.render().contains("no plan tree"));
        assert!(report.to_json().contains("\"plan\":null"));
        assert!(report.to_json().contains("\"predicted_cost\":null"));
    }
}
