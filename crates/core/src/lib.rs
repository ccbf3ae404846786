//! # gmdj-core
//!
//! The primary contribution of *Efficient Computation of Subqueries in
//! Complex OLAP* (Akinde & Böhlen, ICDE 2003):
//!
//! * [`spec`] — the **GMDJ operator**
//!   `MD(B, R, (l₁,…,lₘ), (θ₁,…,θₘ))` (Definition 2.1): the base-values
//!   relation `B` extended with, for each condition θᵢ, the aggregates lᵢ
//!   computed over `RNG(b, R, θᵢ)`.
//! * [`eval`] — GMDJ evaluation in a **single scan of the detail
//!   relation**, with per-condition probe plans (hash index on equality
//!   correlation keys, interval index on band conditions, or a scan of the
//!   active base tuples), optional memory-partitioned evaluation, and
//!   machine-independent work counters.
//! * [`completion`] — **base-tuple completion** (Theorems 4.1/4.2):
//!   deriving, from the count-selection that consumes a GMDJ, rules that
//!   let the evaluator discard or finish base tuples mid-scan.
//! * [`plan`] — the flat GMDJ expression language the translation targets
//!   (GMDJs composed with selections, projections and joins — regular
//!   algebraic expressions, *not* nested query expressions).
//! * [`translate`] — **Algorithm SubqueryToGMDJ** (Theorems 3.1–3.5,
//!   Table 1): negation normalization, the count-based mapping of every
//!   SQL subquery construct onto GMDJs, linear nesting, and the push-down
//!   of base tables for non-neighboring correlation predicates.
//! * [`optimize`](mod@optimize) — **coalescing of GMDJs** (Proposition 4.1), selection
//!   push-up, and annotation of GMDJ nodes with completion plans.
//! * [`exec`] — an executor for GMDJ expressions against any
//!   [`TableProvider`], returning results plus evaluation statistics.
//! * [`runtime`] — the **unified execution pipeline**: a [`Runtime`]
//!   owning an [`ExecPolicy`] (sequential, partitioned, parallel, or
//!   distributed) is the single entry point for GMDJ evaluation, and the
//!   executor records a per-plan-node [`PlanNodeStats`] tree the cost
//!   model can read back.
//! * [`shared`] — **cross-query shared detail scans**: concurrently
//!   submitted GMDJs over the same detail table coalesce (extended
//!   Prop. 4.1) into one morsel-driven pass that feeds every query's
//!   private accumulators, paying detail chunk reads once per pass.
//!
//! # Example: a subquery, translated and evaluated
//!
//! ```
//! use gmdj_algebra::ast::{exists, QueryExpr};
//! use gmdj_core::exec::{execute, ExecContext, MemoryCatalog};
//! use gmdj_core::optimize::optimize;
//! use gmdj_core::translate::subquery_to_gmdj;
//! use gmdj_relation::expr::{col, lit};
//! use gmdj_relation::relation::RelationBuilder;
//! use gmdj_relation::schema::DataType;
//!
//! // Customers with at least one large order.
//! let customers = RelationBuilder::new("c")
//!     .column("id", DataType::Int)
//!     .row(vec![1.into()])
//!     .row(vec![2.into()])
//!     .build()
//!     .unwrap();
//! let orders = RelationBuilder::new("o")
//!     .column("cust", DataType::Int)
//!     .column("total", DataType::Int)
//!     .row(vec![1.into(), 500.into()])
//!     .row(vec![2.into(), 10.into()])
//!     .build()
//!     .unwrap();
//! let catalog = MemoryCatalog::new()
//!     .with("customer", customers)
//!     .with("orders", orders);
//!
//! let sub = QueryExpr::table("orders", "o")
//!     .select_flat(col("o.cust").eq(col("c.id")).and(col("o.total").gt(lit(100))));
//! let query = QueryExpr::table("customer", "c").select(exists(sub));
//!
//! // SubqueryToGMDJ + Section 4 optimizations, then a single-scan run.
//! let plan = optimize(&subquery_to_gmdj(&query, &catalog).unwrap());
//! let mut ctx = ExecContext::new();
//! let result = execute(&plan, &catalog, &mut ctx).unwrap();
//! assert_eq!(result.len(), 1);
//! assert_eq!(ctx.stats.partitions, 1); // one scan of the detail table
//! ```

pub mod completion;
pub mod cost;
pub mod counters;
pub mod distributed;
pub mod eval;
pub mod exec;
pub mod metrics;
pub mod optimize;
pub mod plan;
pub mod progress;
pub mod runtime;
pub mod serve;
pub mod shared;
pub mod spec;
pub mod trace;
pub mod translate;
pub mod wire;

pub use completion::{derive_completion, CompletionPlan, DeadRule};
pub use cost::{cost_based_optimize, estimate, observed_cost, Cost, Estimate, StatsProvider};
pub use distributed::NetworkStats;
pub use eval::{EvalStats, Keep, ProbeStrategy};
pub use exec::{execute, ExecContext, TableProvider};
pub use metrics::{Histogram, MetricsRegistry};
pub use optimize::optimize;
pub use plan::GmdjExpr;
pub use progress::{ProgressRegistry, ProgressTicket, QueryProgress, QuerySnapshot};
pub use runtime::{ExecMode, ExecPolicy, PlanNodeStats, Runtime};
pub use serve::StatsServer;
pub use shared::{SharedScanConfig, SharedScanPool};
pub use spec::{AggBlock, GmdjSpec};
pub use trace::{
    CollectingSink, FlightRecorder, JsonLinesSink, NullSink, Span, TeeSink, TraceEvent, TraceSink,
};
pub use translate::subquery_to_gmdj;
