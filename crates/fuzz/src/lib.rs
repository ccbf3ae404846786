//! # gmdj-fuzz
//!
//! Grammar-based differential fuzzing for the whole subquery pipeline,
//! in the style of RAGS (Slutz, VLDB 1998) and SQLancer (Rigger & Su,
//! OSDI 2020): generate random nested SQL queries over random NULL-heavy
//! catalogs, run each through `gmdj_sql` parse → lower → **every**
//! evaluation strategy × **every** execution policy, and diff multiset
//! results against tuple-iteration semantics (the naive reference
//! oracle — the semantics Theorem 3.5's correctness claim is stated
//! against).
//!
//! The pieces:
//!
//! * [`rng`] — hand-rolled SplitMix64; seeds are platform-stable forever.
//! * [`spec`] — structured cases (tables + query spec) rendering to SQL.
//! * [`gen`] — seed-driven generation covering every Section 2.1
//!   construct: scalar aggregate comparison, SOME/ALL, EXISTS/NOT
//!   EXISTS, IN/NOT IN, nesting to depth 3, non-neighboring correlation,
//!   NULL literals.
//! * [`driver`] — the differential check and per-divergence span traces.
//! * [`shrink`](mod@shrink) — greedy delta debugging to a minimal failing case.
//! * [`corpus`] — self-contained repro files (SQL + CSV + seed).
//! * [`cli`] — the `repro fuzz` subcommand.

pub mod cli;
pub mod corpus;
pub mod driver;
pub mod gen;
pub mod rng;
pub mod shrink;
pub mod spec;

pub use corpus::{parse_case, render_case};
pub use driver::{check_case, CheckOptions, CheckReport, Divergence};
pub use gen::{generate_case, GenConfig};
pub use rng::{case_seed, SplitMix64};
pub use shrink::shrink;
pub use spec::{FuzzCase, QuerySpec, TableSpec};
