//! Property test: ranked access answers what pair-by-pair evaluation
//! answers. Random COUNT-shaped subqueries — EXISTS, NOT EXISTS, a
//! `COUNT(*)` and a `COUNT(col)` comparison, and ALL — correlated by at
//! most one `B.k <> R.k` and at most one one-sided `B.x op R.y`, with and
//! without extra base-only and detail-only conjuncts, run over Int, Float
//! and Str columns drawn from small pools: `-0.0` and `0.0`, ±inf, NaN,
//! Ints at ±2^53±1 and at the i64 extremes, NULL in every correlated
//! column, and duplicate keys and tied values. Every run under the
//! sequential policy, two and three workers, a shared-scan pool and two
//! sites must return the `NaiveNestedLoop` answer and the forced-scan
//! answer, and the local runs must record the same counters. EXISTS and
//! NOT EXISTS settle early under completion, so locally they keep pair
//! evaluation with completion and take no ranked access; the other
//! shapes are ranked, retire no tuple and do not fall back when
//! distributed. Sites run no completion, so there every shape is ranked.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use gmdj_core::eval::EvalStats;
use gmdj_core::exec::MemoryCatalog;
use gmdj_core::runtime::ExecPolicy;
use gmdj_core::shared::{SharedScanConfig, SharedScanPool};
use gmdj_engine::strategy::{
    run, run_with_policy, run_with_policy_pooled, RunResult, Strategy as EvalStrategy,
};
use gmdj_relation::error::Error;
use gmdj_relation::relation::Relation;
use gmdj_relation::schema::{DataType, Schema};
use gmdj_relation::value::Value;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

const TWO_53: i64 = 1 << 53;

/// A value of `ty` from the boundary pools, NULL one time in eight.
fn draw(ty: DataType, key: bool, s: &mut u64) -> Value {
    if lcg(s).is_multiple_of(8) {
        return Value::Null;
    }
    let r = lcg(s) as usize;
    match (ty, key) {
        (DataType::Int, true) => {
            let pool = [0, 1, 2, 3, TWO_53, TWO_53 + 1];
            Value::Int(pool[r % pool.len()])
        }
        (DataType::Float, true) => {
            let pool = [0.0, -0.0, 1.0, 2.0, f64::NAN, TWO_53 as f64];
            Value::Float(pool[r % pool.len()])
        }
        (DataType::Int, false) => {
            let pool = [
                0,
                1,
                -1,
                7,
                TWO_53 - 1,
                TWO_53,
                TWO_53 + 1,
                -TWO_53 - 1,
                i64::MAX,
                i64::MIN,
            ];
            Value::Int(pool[r % pool.len()])
        }
        (DataType::Float, false) => {
            let pool = [
                0.0,
                -0.0,
                1.0,
                -1.0,
                7.0,
                0.5,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                TWO_53 as f64,
                (TWO_53 + 2) as f64,
                -(TWO_53 as f64),
            ];
            Value::Float(pool[r % pool.len()])
        }
        (DataType::Str, _) => {
            let pool = ["", "a", "b", "ab"];
            Value::str(pool[r % pool.len()])
        }
        (other, _) => unreachable!("no {other:?} column here"),
    }
}

/// `rows` tuples of `qualifier(k, x, f)`: key, ranked value and a small
/// Int for the one-side conjuncts.
fn table(qualifier: &str, rows: usize, k: DataType, x: DataType, seed: u64) -> Relation {
    let mut s = seed;
    let schema = Schema::qualified(qualifier, &[("k", k), ("x", x), ("f", DataType::Int)]);
    let rows = (0..rows)
        .map(|_| {
            let f = if lcg(&mut s).is_multiple_of(8) {
                Value::Null
            } else {
                Value::Int((lcg(&mut s) % 10) as i64)
            };
            vec![draw(k, true, &mut s), draw(x, false, &mut s), f].into_boxed_slice()
        })
        .collect();
    Relation::from_parts(schema, rows)
}

/// One generated case's correlation and extra conjuncts.
#[derive(Debug, Clone, Copy)]
struct Theta {
    neq: bool,
    /// `B.x op R.y` (`None`: no inequality).
    op: Option<&'static str>,
    /// Write the inequality detail-first (`R.x op' B.x`).
    flipped: bool,
    base_only: bool,
    detail_only: bool,
}

impl Theta {
    fn sql(self) -> String {
        let mut conj = Vec::new();
        if self.neq {
            conj.push("B.k <> R.k".to_string());
        }
        if let Some(op) = self.op {
            conj.push(if self.flipped {
                format!("R.x {} B.x", flip(op))
            } else {
                format!("B.x {op} R.x")
            });
        }
        self.extras(&mut conj);
        conj.join(" AND ")
    }

    fn extras(self, conj: &mut Vec<String>) {
        if self.base_only {
            conj.push("B.f > 2".to_string());
        }
        if self.detail_only {
            conj.push("R.f < 7".to_string());
        }
    }
}

fn flip(op: &str) -> &'static str {
    match op {
        "<" => ">",
        "<=" => ">=",
        ">" => "<",
        ">=" => "<=",
        _ => unreachable!(),
    }
}

/// The five COUNT shapes over `theta`, by name.
fn shapes(theta: Theta) -> Vec<(&'static str, String)> {
    let outer = "SELECT B.k, B.x, B.f FROM B WHERE";
    let t = theta.sql();
    let mut out = vec![
        (
            "exists",
            format!("{outer} EXISTS (SELECT * FROM R WHERE {t})"),
        ),
        (
            "not_exists",
            format!("{outer} NOT EXISTS (SELECT * FROM R WHERE {t})"),
        ),
        (
            "count_star",
            format!("{outer} B.f <= (SELECT COUNT(*) FROM R WHERE {t})"),
        ),
        (
            "count_col",
            format!("{outer} B.f < (SELECT COUNT(R.f) FROM R WHERE {t})"),
        ),
    ];
    if let Some(op) = theta.op {
        let mut conj = Vec::new();
        if theta.neq {
            conj.push("B.k <> R.k".to_string());
        }
        theta.extras(&mut conj);
        let filter = if conj.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", conj.join(" AND "))
        };
        out.push((
            "all",
            format!("{outer} B.x {op} ALL (SELECT R.x FROM R{filter})"),
        ));
    }
    out
}

fn total_eval(result: &RunResult) -> EvalStats {
    result
        .plan_stats
        .as_ref()
        .expect("GMDJ strategies record a plan stats tree")
        .total_eval()
}

fn types() -> impl Strategy<Value = (DataType, DataType, DataType, DataType)> {
    let num = || prop_oneof![Just(DataType::Int), Just(DataType::Float)];
    let keys = prop_oneof![(num(), num()), Just((DataType::Str, DataType::Str)),];
    (keys, num(), num()).prop_map(|((bk, rk), bx, rx)| (bk, rk, bx, rx))
}

fn theta() -> impl Strategy<Value = Theta> {
    let op = prop_oneof![
        Just(None),
        Just(Some("<")),
        Just(Some("<=")),
        Just(Some(">")),
        Just(Some(">=")),
    ];
    (
        any::<bool>(),
        op,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(neq, op, flipped, base_only, detail_only)| Theta {
            // At least one correlation.
            neq: neq || op.is_none(),
            op,
            flipped,
            base_only,
            detail_only,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ranked_access_matches_pair_evaluation(
        seed in any::<u64>(),
        tys in types(),
        theta in theta(),
        n_base in 0usize..14,
        n_detail in prop_oneof![0usize..48, 4_000usize..9_000],
    ) {
        let (bk, rk, bx, rx) = tys;
        let catalog = MemoryCatalog::new()
            .with("B", table("B", n_base, bk, bx, seed))
            .with("R", table("R", n_detail, rk, rx, seed ^ 0x5eed));
        let pool = Arc::new(SharedScanPool::new(SharedScanConfig {
            window: Duration::from_millis(1),
            target_batch: 1,
            threads: 2,
        }));
        for (name, sql) in shapes(theta) {
            let query = gmdj_sql::parse_query(&sql).unwrap();
            let oracle = run(&query, &catalog, EvalStrategy::NaiveNestedLoop).unwrap().relation;
            let scan = run(&query, &catalog, EvalStrategy::GmdjOptimizedNoProbeIndex).unwrap();
            prop_assert!(scan.relation.multiset_eq(&oracle), "{}: forced scan, {}", name, sql);
            let seq = run(&query, &catalog, EvalStrategy::GmdjOptimized).unwrap();
            prop_assert!(seq.relation.multiset_eq(&oracle), "{}: seq, {}", name, sql);
            let want = total_eval(&seq);
            let settles = name.contains("exists");
            if settles {
                prop_assert_eq!(want.rank_lookups, 0, "{}: {}", name, sql);
            } else {
                prop_assert_eq!(want.dead_early + want.done_early, 0, "{}: {}", name, sql);
            }
            let runs = [2, 3]
                .map(|t| (format!("par{t}"), run_with_policy(
                    &query, &catalog, EvalStrategy::GmdjOptimized, ExecPolicy::parallel(t),
                ).unwrap()))
                .into_iter()
                .chain(std::iter::once(("pooled".to_string(), run_with_policy_pooled(
                    &query, &catalog, EvalStrategy::GmdjOptimized, ExecPolicy::parallel(2), pool.clone(),
                ).unwrap())));
            for (label, r) in runs {
                prop_assert!(r.relation.multiset_eq(&oracle), "{}: {} answer, {}", name, label, sql);
                prop_assert_eq!(total_eval(&r), want, "{}: {} counters, {}", name, label, sql);
            }
            let dist = run_with_policy(
                &query, &catalog, EvalStrategy::GmdjOptimized, ExecPolicy::distributed(2),
            ).unwrap();
            prop_assert!(dist.relation.multiset_eq(&oracle), "{}: dist2 answer, {}", name, sql);
            let got = total_eval(&dist);
            prop_assert_eq!(got.completion_fallbacks, u64::from(settles), "{}: {}", name, sql);
            if !settles {
                prop_assert_eq!(got.rank_lookups, want.rank_lookups, "{}: {}", name, sql);
            }
        }
    }
}

/// The COUNT and ALL shapes above take ranked access: on a detail whose
/// rows all pass, they look each row up once per ranked block. EXISTS
/// and NOT EXISTS keep completion, which settles them: every tuple
/// retires, none is looked up.
#[test]
fn count_and_all_shapes_are_ranked_and_exists_shapes_settle() {
    let rows = |q: &str, n: i64| {
        let schema = Schema::qualified(
            q,
            &[
                ("k", DataType::Int),
                ("x", DataType::Int),
                ("f", DataType::Int),
            ],
        );
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5), Value::Int(1)].into_boxed_slice())
            .collect();
        Relation::from_parts(schema, rows)
    };
    let catalog = MemoryCatalog::new()
        .with("B", rows("B", 6))
        .with("R", rows("R", 40));
    let theta = Theta {
        neq: true,
        op: Some(">="),
        flipped: false,
        base_only: false,
        detail_only: true,
    };
    for (name, sql) in shapes(theta) {
        let query = gmdj_sql::parse_query(&sql).unwrap();
        let eval = total_eval(&run(&query, &catalog, EvalStrategy::GmdjOptimized).unwrap());
        if name.contains("exists") {
            assert_eq!(eval.rank_lookups, 0, "{name}: {sql}");
            assert_eq!(eval.dead_early + eval.done_early, 6, "{name}: {sql}");
        } else {
            let blocks = if name == "all" { 2 } else { 1 };
            assert_eq!(eval.rank_lookups, 40 * blocks, "{name}: {sql}");
        }
    }
}

/// A Str/Int `<>` key is a type error under pair-by-pair evaluation, so
/// it never takes ranked access: `Auto` raises the `TypeMismatch` that
/// the forced scan raises.
#[test]
fn str_int_neq_key_is_a_type_mismatch_under_every_access_path() {
    let catalog = MemoryCatalog::new()
        .with("B", table("B", 4, DataType::Str, DataType::Int, 7))
        .with("R", table("R", 30, DataType::Int, DataType::Int, 8));
    let sql = "SELECT B.k FROM B WHERE B.x >= ALL (SELECT R.x FROM R WHERE B.k <> R.k)";
    let query = gmdj_sql::parse_query(sql).unwrap();
    for strategy in [
        EvalStrategy::GmdjOptimized,
        EvalStrategy::GmdjOptimizedNoProbeIndex,
    ] {
        let err = run(&query, &catalog, strategy)
            .err()
            .unwrap_or_else(|| panic!("{strategy:?} accepted a Str/Int key"));
        assert!(
            matches!(err, Error::TypeMismatch { .. }),
            "{strategy:?}: {err}"
        );
    }
}
