//! Property test: base-tuple completion is a function of the data, not
//! of the schedule. Random EXISTS, NOT EXISTS, two-EXISTS and band-θ
//! EXISTS queries over a detail table of up to three 4,096-row morsels
//! (up to five waves) run under the sequential policy, on 2 to 16 workers
//! and through a shared-scan pool. Every run
//! must return the `NaiveNestedLoop` answer, record no completion
//! fallback, and report exactly the sequential run's `EvalStats`. A
//! detail whose first rows retire every base tuple must settle: the scan
//! stops before the end of the detail.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use gmdj_algebra::ast::{exists, not_exists, QueryExpr};
use gmdj_core::eval::EvalStats;
use gmdj_core::exec::MemoryCatalog;
use gmdj_core::runtime::ExecPolicy;
use gmdj_core::shared::{SharedScanConfig, SharedScanPool};
use gmdj_engine::strategy::{run, run_with_policy, run_with_policy_pooled, Strategy};
use gmdj_relation::batch::BATCH_ROWS;
use gmdj_relation::expr::{col, lit};
use gmdj_relation::relation::Relation;
use gmdj_relation::schema::{DataType, Schema};
use gmdj_relation::value::Value;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// `n` base tuples `B(k, lo, hi)` with distinct keys `0..n` and a band
/// `[lo, hi)` each.
fn base(n: usize, seed: u64) -> Relation {
    let mut s = seed;
    let schema = Schema::qualified(
        "B",
        &[
            ("k", DataType::Int),
            ("lo", DataType::Int),
            ("hi", DataType::Int),
        ],
    );
    let rows = (0..n as i64)
        .map(|k| {
            let lo = (lcg(&mut s) % 560) as i64;
            let hi = lo + 1 + (lcg(&mut s) % 40) as i64;
            vec![Value::Int(k), Value::Int(lo), Value::Int(hi)].into_boxed_slice()
        })
        .collect();
    Relation::from_parts(schema, rows)
}

/// `rows` detail tuples `R(k, p, t)`: keys over `0..n + 4` (some with no
/// base tuple) with NULLs, a price in `0..100` and a time in `0..600`.
/// With `dense`, row `i < n` carries key `i` and the top price, so every
/// base tuple matches within the first wave.
fn detail(rows: usize, n: usize, dense: bool, seed: u64) -> Relation {
    let mut s = seed ^ 0x9e37_79b9;
    let schema = Schema::qualified(
        "R",
        &[
            ("k", DataType::Int),
            ("p", DataType::Int),
            ("t", DataType::Int),
        ],
    );
    let rows = (0..rows)
        .map(|i| {
            let (k, p) = if dense && i < n {
                (Value::Int(i as i64), 99)
            } else if i % 37 == 5 {
                (Value::Null, (lcg(&mut s) % 100) as i64)
            } else {
                let k = (lcg(&mut s) % (n as u64 + 4)) as i64;
                (Value::Int(k), (lcg(&mut s) % 100) as i64)
            };
            let t = (lcg(&mut s) % 600) as i64;
            vec![k, Value::Int(p), Value::Int(t)].into_boxed_slice()
        })
        .collect();
    Relation::from_parts(schema, rows)
}

/// The four completion shapes, by name, for price threshold `c`.
fn shapes(c: i64) -> Vec<(&'static str, QueryExpr)> {
    let priced = |alias: &str| {
        QueryExpr::table("R", alias).select_flat(
            col(&format!("{alias}.k"))
                .eq(col("B.k"))
                .and(col(&format!("{alias}.p")).gt(lit(c))),
        )
    };
    let early = QueryExpr::table("R", "R2")
        .select_flat(col("R2.k").eq(col("B.k")).and(col("R2.t").lt(lit(c * 6))));
    let band = QueryExpr::table("R", "R1").select_flat(
        col("R1.t")
            .ge(col("B.lo"))
            .and(col("R1.t").lt(col("B.hi")))
            .and(col("R1.p").gt(lit(c))),
    );
    let outer = || QueryExpr::table("B", "B");
    vec![
        ("exists", outer().select(exists(priced("R1")))),
        ("not_exists", outer().select(not_exists(priced("R1")))),
        (
            "two_exists",
            outer().select(exists(priced("R1")).and(exists(early))),
        ),
        ("band_exists", outer().select(exists(band))),
    ]
}

/// Every local policy the completion counters must not depend on. More
/// than one worker deals 4,096-row morsels, so a detail past 4,096 rows
/// is scanned by several workers at once.
fn policies() -> Vec<ExecPolicy> {
    [2, 3, 8, 16].map(ExecPolicy::parallel).to_vec()
}

fn total_eval(result: &gmdj_engine::strategy::RunResult) -> EvalStats {
    result
        .plan_stats
        .as_ref()
        .expect("GMDJ strategies record a plan stats tree")
        .total_eval()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn completion_counters_are_schedule_free(
        seed in any::<u64>(),
        n_base in 1usize..32,
        n_detail in 1usize..(12 * BATCH_ROWS),
        dense in any::<bool>(),
        c in 0i64..99,
    ) {
        let catalog = MemoryCatalog::new()
            .with("B", base(n_base, seed))
            .with("R", detail(n_detail, n_base, dense, seed));
        let pool = Arc::new(SharedScanPool::new(SharedScanConfig {
            window: Duration::from_millis(1),
            target_batch: 1,
            threads: 2,
        }));
        for (name, query) in shapes(c) {
            let oracle = run(&query, &catalog, Strategy::NaiveNestedLoop).unwrap().relation;
            let seq = run_with_policy(&query, &catalog, Strategy::GmdjOptimized, ExecPolicy::sequential())
                .unwrap();
            prop_assert!(seq.relation.multiset_eq(&oracle), "{name}: seq answer");
            let want = total_eval(&seq);
            prop_assert_eq!(want.completion_fallbacks, 0, "{}", name);
            prop_assert!(want.dead_early + want.done_early <= want.base_rows, "{}", name);
            if dense && n_detail > BATCH_ROWS && matches!(name, "exists" | "not_exists") {
                // Every base tuple retires in the first wave.
                prop_assert!(
                    (want.detail_scanned as usize) < n_detail,
                    "{}: settled scan read {} of {} rows",
                    name,
                    want.detail_scanned,
                    n_detail
                );
            }
            let pooled = run_with_policy_pooled(
                &query,
                &catalog,
                Strategy::GmdjOptimized,
                ExecPolicy::parallel(2),
                pool.clone(),
            )
            .unwrap();
            let runs = policies()
                .into_iter()
                .map(|p| {
                    let r = run_with_policy(&query, &catalog, Strategy::GmdjOptimized, p).unwrap();
                    (format!("{p:?}"), r)
                })
                .chain(std::iter::once(("pooled par2".to_string(), pooled)));
            for (label, r) in runs {
                prop_assert!(r.relation.multiset_eq(&oracle), "{}: {} answer", name, label);
                prop_assert_eq!(total_eval(&r), want, "{}: {} counters", name, label);
            }
        }
    }
}
