//! # gmdj-relation
//!
//! In-memory relational substrate for the GMDJ subquery engine.
//!
//! This crate implements everything a small analytical query processor needs
//! below the level of the GMDJ operator itself:
//!
//! * [`Value`] — dynamically typed SQL values with a first-class `NULL`, and
//!   [`Truth`] — SQL three-valued logic (3VL).
//! * [`Schema`] / [`Field`] — qualified attribute names (`F.StartTime`) with
//!   resolution rules matching an SQL scope.
//! * [`Relation`] — a multiset of tuples over a schema. Relations are
//!   multisets throughout, matching SQL bag semantics; `distinct` is an
//!   explicit operator.
//! * [`expr`] — scalar expressions and predicates. Logical expressions are
//!   *bound* against one or more schemas before evaluation, producing
//!   [`expr::BoundPredicate`] / [`expr::BoundScalar`] that evaluate against
//!   tuple slices without any name lookups on the hot path.
//! * [`agg`] — SQL aggregate functions (`COUNT`, `COUNT(*)`, `SUM`, `MIN`,
//!   `MAX`, `AVG`) with SQL NULL semantics via the [`agg::Accumulator`]
//!   state machine.
//! * [`ops`] — physical operators: selection, projection, distinct, rename,
//!   union all, multiset difference, cross product, θ-joins (hash and
//!   block-nested-loop), left outer / semi / anti joins, and hash group-by.
//! * [`index`] — hash equi-key indexes and sorted interval indexes used by
//!   joins and by the GMDJ evaluator in `gmdj-core`.
//! * [`columnar`] — the native storage format: typed column vectors with
//!   validity bitmaps and dictionary-encoded strings, shared by `Arc`
//!   across clones and renames.
//! * [`batch`] — vectorized comparison kernels over borrowed windows of
//!   the stored columns, dispatched by the GMDJ detail scan whenever a
//!   probe shape can be specialized.
//! * [`csv`] — RFC-4180-style import/export (schema-checked and
//!   schema-inferring).
//!
//! The substrate is natively columnar: the paper's experiments are
//! dominated by scan, probe, and predicate-evaluation costs, and the
//! vectorized kernels read storage directly with zero per-query decode.
//! Row-at-a-time tuples remain available as a late-materialization view
//! ([`Relation::rows`]) for the oracle paths, completion plans, and CSV
//! ingest.

pub mod agg;
pub mod batch;
pub mod columnar;
pub mod csv;
pub mod error;
pub mod expr;
pub mod fxhash;
pub mod index;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod value;

pub use error::{Error, Result};
pub use relation::{Relation, RelationBuilder, Tuple};
pub use schema::{ColumnRef, DataType, Field, Schema};
pub use value::{Truth, Value};
