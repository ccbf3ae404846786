//! Executor for GMDJ expressions against a table catalog.
//!
//! [`execute`] walks a [`GmdjExpr`] bottom-up, running relational
//! operators directly and handing every (filtered) GMDJ to the
//! [`Runtime`] the context's [`ExecPolicy`] implies — so one policy
//! object decides sequential, partitioned, parallel, or distributed
//! evaluation for the whole plan. Alongside the result, the executor
//! records a [`PlanNodeStats`] tree mirroring the plan shape; the
//! roll-ups land in [`ExecContext::stats`] / [`ExecContext::network`]
//! and the tree itself in [`ExecContext::plan_stats`], where
//! [`crate::cost::observed_cost`] can read it back.

use std::sync::Arc;
use std::time::Instant;

use gmdj_relation::error::{Error, Result};
use gmdj_relation::ops;
use gmdj_relation::relation::Relation;

use crate::distributed::NetworkStats;
use crate::eval::{EvalStats, Keep};
use crate::plan::GmdjExpr;
use crate::progress::QueryProgress;
use crate::runtime::{ExecPolicy, PlanNodeStats, Runtime};
use crate::trace::{NullSink, Span, TraceSink};
use crate::translate::SchemaInfo;

/// Source of base tables. The engine crate implements this for its
/// catalog; tests implement it over ad-hoc maps.
pub trait TableProvider {
    /// The named base relation.
    fn table(&self, name: &str) -> Result<&Relation>;

    /// A stable identity for plan caching: two calls returning the same
    /// `Some(key)` promise the provider's table set (names, schemas,
    /// contents) is unchanged between them, so a plan translated against
    /// the first call is valid against the second. `None` (the default)
    /// opts the provider out of plan caching entirely.
    fn plan_cache_key(&self) -> Option<u64> {
        None
    }
}

/// Every [`TableProvider`] can answer the translation's schema questions.
impl<T: TableProvider + ?Sized> SchemaInfo for T {
    fn table_columns(&self, table: &str) -> Result<Vec<String>> {
        Ok(self
            .table(table)?
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect())
    }
}

/// Execution context: the execution policy plus accumulated statistics
/// and the trace sink every plan node and GMDJ evaluation reports into.
#[derive(Debug)]
pub struct ExecContext {
    /// The policy every GMDJ in the plan executes under.
    pub policy: ExecPolicy,
    /// Evaluator work counters rolled up across the plan.
    pub stats: EvalStats,
    /// Network traffic rolled up across the plan (distributed mode; zero
    /// otherwise). Value counts are closed-form; byte counts are
    /// measured on the wire.
    pub network: NetworkStats,
    /// Per-plan-node statistics tree of the most recent [`execute`] call.
    pub plan_stats: Option<PlanNodeStats>,
    /// Span sink: `plan.node` spans plus everything the [`Runtime`]
    /// emits beneath them. Defaults to [`NullSink`].
    pub sink: Arc<dyn TraceSink>,
    /// Live progress handle fed by the runtime's scan loops and phased
    /// by plan-node labels as the executor walks the tree. `None` when
    /// the query is not registered with [`crate::progress`].
    pub progress: Option<Arc<QueryProgress>>,
    /// Cross-query shared-scan pool: when attached, (filtered) GMDJ
    /// nodes are submitted through it so concurrent plans over the same
    /// detail table coalesce into one shared morsel pass (see
    /// [`crate::shared`]). `None` keeps standalone evaluation.
    pub shared: Option<Arc<crate::shared::SharedScanPool>>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            policy: ExecPolicy::default(),
            stats: EvalStats::default(),
            network: NetworkStats::default(),
            plan_stats: None,
            sink: Arc::new(NullSink),
            progress: None,
            shared: None,
        }
    }
}

impl ExecContext {
    /// Fresh context with the default (sequential) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh context executing under `policy`.
    pub fn with_policy(policy: ExecPolicy) -> Self {
        ExecContext {
            policy,
            ..ExecContext::default()
        }
    }

    /// Builder-style: trace into `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Builder-style: feed live progress into `progress`.
    pub fn with_progress(mut self, progress: Arc<QueryProgress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Builder-style: submit GMDJ nodes through a shared-scan pool.
    pub fn with_shared(mut self, pool: Arc<crate::shared::SharedScanPool>) -> Self {
        self.shared = Some(pool);
        self
    }
}

/// Evaluate a GMDJ expression under the context's policy, recording a
/// per-plan-node statistics tree in [`ExecContext::plan_stats`].
pub fn execute(
    expr: &GmdjExpr,
    tables: &dyn TableProvider,
    ctx: &mut ExecContext,
) -> Result<Relation> {
    ctx.policy.validate()?;
    let mut runtime = Runtime::with_sink(ctx.policy, ctx.sink.clone());
    if let Some(p) = &ctx.progress {
        runtime = runtime.with_progress(p.clone());
    }
    if let Some(pool) = &ctx.shared {
        runtime = runtime.with_shared_pool(pool.clone());
    }
    let (rel, tree) = execute_node(expr, tables, &runtime)?;
    ctx.stats.merge(&tree.total_eval());
    ctx.network.merge(&tree.total_network());
    ctx.plan_stats = Some(tree);
    Ok(rel)
}

/// A unary-operator node: row flow recorded, child attached.
fn unary_node(label: &str, rows_in: usize, out: &Relation, child: PlanNodeStats) -> PlanNodeStats {
    let mut node = PlanNodeStats::new(label);
    node.ops.record(rows_in, out.len());
    node.rows_out = out.len() as u64;
    node.children.push(child);
    node
}

/// Run one plan node, recording inclusive wall-clock (children included;
/// [`PlanNodeStats::self_time_ns`] recovers self-time) and emitting a
/// `plan.node` span per node.
/// The plan-node phase label progress reports while a node (or its
/// subtree) is executing — cheap static names, set pre-order so the
/// live phase is the node most recently entered.
fn phase_label(expr: &GmdjExpr) -> &'static str {
    match expr {
        GmdjExpr::Table { .. } => "Table",
        GmdjExpr::Select { .. } => "Select",
        GmdjExpr::Project { .. } => "Project",
        GmdjExpr::AggProject { .. } => "AggProject",
        GmdjExpr::Join { .. } => "Join",
        GmdjExpr::DropComputed { .. } => "DropComputed",
        GmdjExpr::GroupBy { .. } => "GroupBy",
        GmdjExpr::OrderBy { .. } => "OrderBy",
        GmdjExpr::Limit { .. } => "Limit",
        GmdjExpr::Gmdj { .. } => "GMDJ",
        GmdjExpr::FilteredGmdj { .. } => "FilteredGMDJ",
    }
}

fn execute_node(
    expr: &GmdjExpr,
    tables: &dyn TableProvider,
    runtime: &Runtime,
) -> Result<(Relation, PlanNodeStats)> {
    if let Some(p) = runtime.progress() {
        p.set_phase(phase_label(expr));
    }
    let span = Span::begin(runtime.sink().as_ref(), "plan.node");
    let start = Instant::now();
    let (rel, mut node) = run_node(expr, tables, runtime)?;
    node.elapsed_ns = start.elapsed().as_nanos() as u64;
    node.invocations = 1;
    let mut span = span.with_detail(node.label.clone());
    span.field("rows_out", node.rows_out);
    span.field("scanned_rows", node.scanned_rows);
    span.finish();
    Ok((rel, node))
}

fn run_node(
    expr: &GmdjExpr,
    tables: &dyn TableProvider,
    runtime: &Runtime,
) -> Result<(Relation, PlanNodeStats)> {
    match expr {
        GmdjExpr::Table { name, qualifier } => {
            let rel = tables.table(name)?.renamed(qualifier);
            let mut node = PlanNodeStats::new(format!("Table({name})"));
            node.scanned_rows = rel.len() as u64;
            node.rows_out = rel.len() as u64;
            Ok((rel, node))
        }
        GmdjExpr::Select { input, predicate } => {
            let (rel, child) = execute_node(input, tables, runtime)?;
            let out = ops::select(&rel, predicate)?;
            let node = unary_node("Select", rel.len(), &out, child);
            Ok((out, node))
        }
        GmdjExpr::Project {
            input,
            columns,
            distinct,
        } => {
            let (rel, child) = execute_node(input, tables, runtime)?;
            let projected = ops::project_columns(&rel, columns)?;
            let out = if *distinct {
                ops::distinct(&projected)
            } else {
                projected
            };
            let node = unary_node("Project", rel.len(), &out, child);
            Ok((out, node))
        }
        GmdjExpr::AggProject { input, agg } => {
            let (rel, child) = execute_node(input, tables, runtime)?;
            let out = ops::group_by(&rel, &[], std::slice::from_ref(agg))?;
            let node = unary_node("AggProject", rel.len(), &out, child);
            Ok((out, node))
        }
        GmdjExpr::Join { left, right, on } => {
            let (l, l_node) = execute_node(left, tables, runtime)?;
            let (r, r_node) = execute_node(right, tables, runtime)?;
            let out = ops::theta_join(&l, &r, on)?;
            let mut node = PlanNodeStats::new("Join");
            node.ops.record(l.len() + r.len(), out.len());
            node.rows_out = out.len() as u64;
            node.children.push(l_node);
            node.children.push(r_node);
            Ok((out, node))
        }
        GmdjExpr::DropComputed { input, names } => {
            let (rel, child) = execute_node(input, tables, runtime)?;
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let out = ops::drop_columns(&rel, &refs)?;
            let node = unary_node("DropComputed", rel.len(), &out, child);
            Ok((out, node))
        }
        GmdjExpr::GroupBy { input, keys, aggs } => {
            let (rel, child) = execute_node(input, tables, runtime)?;
            let out = ops::group_by(&rel, keys, aggs)?;
            let node = unary_node("GroupBy", rel.len(), &out, child);
            Ok((out, node))
        }
        GmdjExpr::OrderBy { input, keys } => {
            let (rel, child) = execute_node(input, tables, runtime)?;
            let out = ops::sort_by(&rel, keys)?;
            let node = unary_node("OrderBy", rel.len(), &out, child);
            Ok((out, node))
        }
        GmdjExpr::Limit { input, n } => {
            let (rel, child) = execute_node(input, tables, runtime)?;
            let out = ops::limit(&rel, *n);
            let node = unary_node("Limit", rel.len(), &out, child);
            Ok((out, node))
        }
        GmdjExpr::Gmdj { base, detail, spec } => {
            let (b, b_node) = execute_node(base, tables, runtime)?;
            let (d, d_node) = execute_node(detail, tables, runtime)?;
            let mut node = PlanNodeStats::new("GMDJ");
            // The scan is the node's own work, after its children — put
            // the phase back on this node for the duration.
            if let Some(p) = runtime.progress() {
                p.set_phase("GMDJ");
            }
            let out = runtime.eval(&b, &d, spec, None, Keep::All, None, &mut node)?;
            node.rows_out = out.len() as u64;
            node.children.push(b_node);
            node.children.push(d_node);
            Ok((out, node))
        }
        GmdjExpr::FilteredGmdj {
            base,
            detail,
            spec,
            selection,
            keep,
            completion,
        } => {
            let (b, b_node) = execute_node(base, tables, runtime)?;
            let (d, d_node) = execute_node(detail, tables, runtime)?;
            let mut node = PlanNodeStats::new("FilteredGMDJ");
            if let Some(p) = runtime.progress() {
                p.set_phase("FilteredGMDJ");
            }
            let out = runtime.eval(
                &b,
                &d,
                spec,
                Some(selection),
                *keep,
                completion.as_ref(),
                &mut node,
            )?;
            node.rows_out = out.len() as u64;
            node.children.push(b_node);
            node.children.push(d_node);
            Ok((out, node))
        }
    }
}

/// A trivial catalog over owned relations, for tests and examples.
#[derive(Debug)]
pub struct MemoryCatalog {
    tables: Vec<(String, Relation)>,
    /// Process-unique content epoch: re-drawn on every mutation, so a
    /// given value pins one exact (catalog, contents) state for plan
    /// caching. Never reused across catalogs.
    epoch: u64,
}

/// Each distinct catalog state gets a fresh epoch — a plan cached
/// against one epoch can never be served for a different catalog or a
/// mutated one.
fn next_catalog_epoch() -> u64 {
    static EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl Default for MemoryCatalog {
    fn default() -> Self {
        MemoryCatalog {
            tables: Vec::new(),
            epoch: next_catalog_epoch(),
        }
    }
}

impl MemoryCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table.
    pub fn register(&mut self, name: impl Into<String>, relation: Relation) {
        let name = name.into();
        if let Some(slot) = self.tables.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = relation;
        } else {
            self.tables.push((name, relation));
        }
        self.epoch = next_catalog_epoch();
    }

    /// Builder-style registration.
    pub fn with(mut self, name: impl Into<String>, relation: Relation) -> Self {
        self.register(name, relation);
        self
    }

    /// Names of registered tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|(n, _)| n.as_str()).collect()
    }
}

impl TableProvider for MemoryCatalog {
    fn table(&self, name: &str) -> Result<&Relation> {
        self.tables
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r)
            .ok_or_else(|| Error::UnknownTable {
                name: name.to_string(),
            })
    }

    fn plan_cache_key(&self) -> Option<u64> {
        Some(self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AggBlock, GmdjSpec};
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
            .build()
            .unwrap();
        let flow = RelationBuilder::new("Flow")
            .column("StartTime", DataType::Int)
            .column("NumBytes", DataType::Int)
            .row(vec![43.into(), 12.into()])
            .row(vec![86.into(), 36.into()])
            .build()
            .unwrap();
        MemoryCatalog::new().with("Hours", hours).with("Flow", flow)
    }

    #[test]
    fn executes_full_pipeline() {
        let expr = GmdjExpr::table("Hours", "H")
            .gmdj(
                GmdjExpr::table("Flow", "F"),
                GmdjSpec::new(vec![AggBlock::count(
                    col("F.StartTime")
                        .ge(col("H.StartInterval"))
                        .and(col("F.StartTime").lt(col("H.EndInterval"))),
                    "cnt",
                )]),
            )
            .select(col("cnt").gt(lit(0)));
        let mut ctx = ExecContext::new();
        let out = execute(&expr, &catalog(), &mut ctx).unwrap();
        assert_eq!(out.len(), 2);
        assert!(ctx.stats.detail_scanned > 0);
        // DropComputed strips the count.
        let dropped = execute(
            &GmdjExpr::DropComputed {
                input: Box::new(expr),
                names: vec!["cnt".into()],
            },
            &catalog(),
            &mut ctx,
        )
        .unwrap();
        assert_eq!(dropped.schema().len(), 3);
    }

    #[test]
    fn parallel_policy_matches_sequential_and_records_plan_stats() {
        let expr = GmdjExpr::table("Hours", "H")
            .gmdj(
                GmdjExpr::table("Flow", "F"),
                GmdjSpec::new(vec![AggBlock::count(
                    col("F.StartTime")
                        .ge(col("H.StartInterval"))
                        .and(col("F.StartTime").lt(col("H.EndInterval"))),
                    "cnt",
                )]),
            )
            .select(col("cnt").gt(lit(0)));
        let mut seq = ExecContext::new();
        let a = execute(&expr, &catalog(), &mut seq).unwrap();
        let mut par = ExecContext::with_policy(ExecPolicy::parallel(3));
        let b = execute(&expr, &catalog(), &mut par).unwrap();
        assert!(a.multiset_eq(&b));
        // Without completion the parallel scan does the same work.
        assert_eq!(seq.stats, par.stats);

        let tree = par.plan_stats.as_ref().unwrap();
        assert_eq!(tree.label, "Select");
        assert_eq!(tree.children[0].label, "GMDJ");
        assert_eq!(tree.total_scanned(), 4); // 2 Hours rows + 2 Flow rows
        assert_eq!(tree.total_eval(), par.stats);
        assert_eq!(tree.rows_out, b.len() as u64);
    }

    #[test]
    fn distributed_policy_rolls_network_into_context() {
        let expr = GmdjExpr::table("Hours", "H").gmdj(
            GmdjExpr::table("Flow", "F"),
            GmdjSpec::new(vec![AggBlock::count(
                col("F.StartTime")
                    .ge(col("H.StartInterval"))
                    .and(col("F.StartTime").lt(col("H.EndInterval"))),
                "cnt",
            )]),
        );
        let mut seq = ExecContext::new();
        let a = execute(&expr, &catalog(), &mut seq).unwrap();
        let mut dist = ExecContext::with_policy(ExecPolicy::distributed(2));
        let b = execute(&expr, &catalog(), &mut dist).unwrap();
        assert!(a.multiset_eq(&b));
        assert_eq!(dist.network.messages, 4); // two waves × two sites
        assert!(dist.network.total() > 0);
        assert_eq!(seq.network, crate::distributed::NetworkStats::default());
    }

    #[test]
    fn table_rename_applies_qualifier() {
        let mut ctx = ExecContext::new();
        let out = execute(&GmdjExpr::table("Flow", "FX"), &catalog(), &mut ctx).unwrap();
        assert_eq!(out.schema().field(0).qualifier, "FX");
    }

    #[test]
    fn missing_table_is_reported() {
        let mut ctx = ExecContext::new();
        let err = execute(&GmdjExpr::table("Nope", "N"), &catalog(), &mut ctx).unwrap_err();
        assert!(matches!(err, Error::UnknownTable { .. }));
    }

    #[test]
    fn agg_project_returns_single_row() {
        let expr = GmdjExpr::AggProject {
            input: Box::new(GmdjExpr::table("Flow", "F")),
            agg: gmdj_relation::agg::NamedAgg::new(
                gmdj_relation::agg::AggFunc::Max,
                col("F.NumBytes"),
                "m",
            ),
        };
        let mut ctx = ExecContext::new();
        let out = execute(&expr, &catalog(), &mut ctx).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(36));
    }

    #[test]
    fn schema_info_via_table_provider() {
        use crate::translate::SchemaInfo;
        let cat = catalog();
        let cols = cat.table_columns("Hours").unwrap();
        assert_eq!(cols, vec!["HourDsc", "StartInterval", "EndInterval"]);
    }
}
