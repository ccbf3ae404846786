//! # gmdj-engine
//!
//! A query engine exposing the evaluation strategies compared in Section 5
//! of the paper:
//!
//! * [`reference`](mod@reference) — **tuple-iteration semantics** ("native"): the nested
//!   query expression evaluated by nested loops, optionally with the
//!   *smart* early-exit behaviour the paper observed in its target DBMS
//!   (specialized EXISTS handling, discard-on-violation for ALL) and with
//!   hash indexes on correlation attributes (the "important attributes
//!   were indexed" condition).
//! * [`unnest`] — **join/outer-join unnesting**: the best-of-literature
//!   rewrites (Kim; Dayal; Ganski & Wong; Muralikrishna): EXISTS →
//!   semi-join, NOT EXISTS → anti-join, quantified comparisons →
//!   semi-/anti-joins over (non-)violations, aggregate comparisons →
//!   group-by + left outer join with the COUNT-bug fix. Hash joins model
//!   the indexed condition; forced block-nested-loop joins model its
//!   absence.
//! * GMDJ translation (basic and optimized) via [`gmdj_core`].
//!
//! [`strategy`] wraps all of them behind one [`strategy::Strategy`] enum
//! returning results plus machine-independent work counters, and
//! [`olap`] composes a subquery-defined base-values table with a GMDJ
//! aggregation (the complex-OLAP query form of Examples 2.1–2.3).
//!
//! ```
//! use gmdj_algebra::ast::{exists, QueryExpr};
//! use gmdj_engine::{run, Catalog, Strategy};
//! use gmdj_relation::expr::col;
//! use gmdj_relation::relation::RelationBuilder;
//! use gmdj_relation::schema::DataType;
//!
//! let users = RelationBuilder::new("u")
//!     .column("id", DataType::Int)
//!     .row(vec![1.into()])
//!     .row(vec![2.into()])
//!     .build()
//!     .unwrap();
//! let logins = RelationBuilder::new("l")
//!     .column("user_id", DataType::Int)
//!     .row(vec![2.into()])
//!     .build()
//!     .unwrap();
//! let catalog = Catalog::new().with("users", users).with("logins", logins);
//!
//! let sub = QueryExpr::table("logins", "l")
//!     .select_flat(col("l.user_id").eq(col("u.id")));
//! let query = QueryExpr::table("users", "u").select(exists(sub));
//!
//! // The same query under tuple-iteration semantics and the optimized
//! // GMDJ translation — identical answers, different work profiles.
//! let reference = run(&query, &catalog, Strategy::NaiveNestedLoop).unwrap();
//! let gmdj = run(&query, &catalog, Strategy::GmdjOptimized).unwrap();
//! assert!(reference.relation.multiset_eq(&gmdj.relation));
//! assert_eq!(gmdj.relation.len(), 1);
//! ```

pub mod analyze;
pub mod olap;
pub mod plan_cache;
pub mod reference;
pub mod strategy;
pub mod unnest;

pub use analyze::{explain_analyze, AnalyzeReport};
pub use gmdj_core::exec::MemoryCatalog as Catalog;
pub use olap::{Aggregation, OlapQuery};
pub use reference::{RefOptions, RefStats};
pub use strategy::{run, run_with_policy_pooled, run_with_policy_traced, RunResult, Strategy};
pub use unnest::UnnestOptions;
