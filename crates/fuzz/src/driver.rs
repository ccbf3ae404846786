//! The differential driver: run one case through the full pipeline
//! (`gmdj_sql` parse → lower → every strategy × every execution policy)
//! and diff multiset results against tuple-iteration semantics.
//!
//! The oracle is [`Strategy::NaiveNestedLoop`] under the sequential
//! policy — `gmdj_engine::reference` with no smartness and no indexes,
//! i.e. the literal nested-loop semantics of Section 2 that Theorem 3.5's
//! correctness claim is stated against.
//!
//! Every policy-consuming strategy additionally runs twin checks, each
//! diffed against its standalone run by one helper (`twin_diff`) on the
//! result multiset, the gated [`EvalStats`] counters, the closed-form
//! network value counts and error behavior:
//!
//! * each multi-worker policy is diffed against the sequential run: the
//!   thread count, and with it the derived morsel size, is pure
//!   scheduling, so any visible difference — result rows or gated
//!   counters, page accounting included — is a bug;
//! * the same query, under the sequential and the `parallel(2)` policy,
//!   is submitted from two concurrent clients through a coalescing
//!   [`SharedScanPool`]: cross-query scan sharing (and its
//!   identical-query dedup) must be invisible to each client.
//!
//! [`EvalStats`]: gmdj_core::eval::EvalStats

use std::sync::Arc;
use std::time::Duration;

use gmdj_core::runtime::{ExecMode, ExecPolicy, PlanNodeStats};
use gmdj_core::shared::{SharedScanConfig, SharedScanPool};
use gmdj_core::trace::CollectingSink;
use gmdj_engine::strategy::{
    run_with_policy, run_with_policy_pooled, run_with_policy_traced, RunResult, Strategy,
};
use gmdj_relation::error::Result;
use gmdj_relation::relation::Relation;

use crate::spec::FuzzCase;

/// A hook that lets tests corrupt one strategy's result before the diff —
/// the standing proof that the harness actually catches and shrinks
/// semantic divergences (the "inject a NULL-handling bug" drill of the
/// acceptance criteria, without keeping a buggy engine around).
pub type ResultMutator = fn(Strategy, ExecPolicy, &Relation) -> Option<Relation>;

/// What to run a case against.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    pub strategies: Vec<Strategy>,
    pub policies: Vec<ExecPolicy>,
    /// Test-only result corruption hook; `None` in production.
    pub mutate: Option<ResultMutator>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            strategies: default_strategies(),
            policies: default_policies().to_vec(),
            mutate: None,
        }
    }
}

/// The Section 5 lineup plus the GMDJ ablative strategies that exercise
/// the basic translation and the cost-based rewrite selection.
pub fn default_strategies() -> Vec<Strategy> {
    let mut v = Strategy::paper_lineup().to_vec();
    v.push(Strategy::GmdjBasic);
    v.push(Strategy::GmdjCostBased);
    v
}

/// The execution policies under differential test.
pub fn default_policies() -> [ExecPolicy; 4] {
    [
        ExecPolicy::sequential(),
        ExecPolicy::parallel(2),
        ExecPolicy::parallel(8),
        ExecPolicy::distributed(3),
    ]
}

/// True when the strategy routes through the GMDJ runtime and therefore
/// actually consumes the execution policy ([`Strategy::gmdj`]). The
/// reference and unnest engines ignore it, so re-running them per policy
/// is skipped.
pub fn uses_policy(s: Strategy) -> bool {
    s.gmdj().is_some()
}

/// One observed disagreement with the oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub strategy: Strategy,
    pub policy: ExecPolicy,
    pub oracle_rows: usize,
    /// `None` when the strategy returned an error instead of a relation.
    pub actual_rows: Option<usize>,
    /// Human-readable detail: the two relations, or the error text.
    pub detail: String,
}

/// Everything wrong with one case. `pipeline_error` is set when the case
/// never reached the diff (SQL failed to parse/lower, or the oracle
/// itself failed) — for generated cases that is a harness bug and is
/// treated as a failure in its own right.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    pub pipeline_error: Option<String>,
    pub divergences: Vec<Divergence>,
}

impl CheckReport {
    pub fn passed(&self) -> bool {
        self.pipeline_error.is_none() && self.divergences.is_empty()
    }
}

/// Run the full differential check for one case.
pub fn check_case(case: &FuzzCase, opts: &CheckOptions) -> CheckReport {
    let mut report = CheckReport::default();
    let query = match gmdj_sql::parse_query(&case.sql) {
        Ok(q) => q,
        Err(e) => {
            report.pipeline_error = Some(format!("parse/lower failed: {e}\nsql: {}", case.sql));
            return report;
        }
    };
    let catalog = case.catalog();
    let oracle = match run_with_policy(
        &query,
        &catalog,
        Strategy::NaiveNestedLoop,
        ExecPolicy::sequential(),
    ) {
        Ok(r) => r.relation,
        Err(e) => {
            report.pipeline_error = Some(format!("oracle failed: {e}\nsql: {}", case.sql));
            return report;
        }
    };

    for &strategy in &opts.strategies {
        // The strategy's own `seq` run: the thread-count twin of its
        // multi-worker runs.
        let mut seq_run: Option<Result<RunResult>> = None;
        for &policy in &opts.policies {
            if !uses_policy(strategy) && policy != ExecPolicy::sequential() {
                continue;
            }
            if strategy == Strategy::NaiveNestedLoop && policy == ExecPolicy::sequential() {
                continue; // the oracle itself
            }
            let result = run_with_policy(&query, &catalog, strategy, policy);
            if uses_policy(strategy) {
                let mut twin_check = |twin: &Result<RunResult>, name: String, what: &str| {
                    if let Some(detail) = twin_diff(&result, twin, &name) {
                        report.divergences.push(Divergence {
                            strategy,
                            policy,
                            oracle_rows: oracle.len(),
                            actual_rows: result.as_ref().ok().map(|r| r.relation.len()),
                            detail: format!(
                                "{} under {}: {what}\n{detail}",
                                strategy.label(),
                                policy.label()
                            ),
                        });
                    }
                };
                // Thread-count twin: scheduling must never leak into
                // anything gated; sites scan their fragments whole.
                if matches!(policy.mode, ExecMode::Parallel { threads } if threads > 1) {
                    let seq = seq_run.get_or_insert_with(|| {
                        run_with_policy(&query, &catalog, strategy, ExecPolicy::sequential())
                    });
                    twin_check(
                        seq,
                        "seq".to_string(),
                        "the thread count changed observable results",
                    );
                }
                // Shared-pool twin: the same query submitted by two
                // concurrent clients through a coalescing pool, which
                // merges them into one shared pass and deduplicates the
                // identical pair. The pool engages for any
                // non-distributed, unpartitioned policy, and every local
                // policy runs every completion plan, so the sequential
                // and the two-worker policy cover one worker and many.
                //
                // The window is short: `target_batch: 2` releases a
                // stored-table pair as soon as the twin arrives, while a
                // GMDJ whose detail is an inner GMDJ's output gets fresh
                // storage per client, so its two requests never share a
                // queue and each leader waits the window out alone.
                if policy == ExecPolicy::sequential() || policy == ExecPolicy::parallel(2) {
                    let pool = Arc::new(SharedScanPool::new(SharedScanConfig {
                        window: Duration::from_millis(5),
                        target_batch: 2,
                        threads: 2,
                    }));
                    let pooled: Vec<_> = std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..2)
                            .map(|_| {
                                let (query, catalog, pool) = (&query, &catalog, pool.clone());
                                scope.spawn(move || {
                                    run_with_policy_pooled(query, catalog, strategy, policy, pool)
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("pooled submitter panicked"))
                            .collect()
                    });
                    for (client, p) in pooled.iter().enumerate() {
                        twin_check(
                            p,
                            format!("shared pool client {client}"),
                            "the shared-scan pool disagrees with standalone execution",
                        );
                    }
                }
            }
            match &result {
                Ok(r) => {
                    let mutated = opts.mutate.and_then(|m| m(strategy, policy, &r.relation));
                    let relation = mutated.as_ref().unwrap_or(&r.relation);
                    if !oracle.multiset_eq(relation) {
                        report.divergences.push(Divergence {
                            strategy,
                            policy,
                            oracle_rows: oracle.len(),
                            actual_rows: Some(relation.len()),
                            detail: format!(
                                "oracle ({} rows):\n{oracle}\n{} under {} ({} rows):\n{relation}",
                                oracle.len(),
                                strategy.label(),
                                policy.label(),
                                relation.len()
                            ),
                        });
                    }
                }
                Err(e) => report.divergences.push(Divergence {
                    strategy,
                    policy,
                    oracle_rows: oracle.len(),
                    actual_rows: None,
                    detail: format!(
                        "{} under {} errored while the oracle succeeded: {e}",
                        strategy.label(),
                        policy.label()
                    ),
                }),
            }
            if policy == ExecPolicy::sequential() && seq_run.is_none() {
                seq_run = Some(result);
            }
        }
    }
    report
}

/// Diff a twin run against the standalone run of the same strategy and
/// policy: the result multiset, then the gated [`EvalStats`] counters,
/// then the closed-form network value counts (the gated fields of
/// `NetworkStats`), and errors by their text. Returns what differs first,
/// naming the twin `twin`, or `None` when the runs agree.
///
/// [`EvalStats`]: gmdj_core::eval::EvalStats
fn twin_diff(
    standalone: &Result<RunResult>,
    twin_run: &Result<RunResult>,
    twin: &str,
) -> Option<String> {
    match (standalone, twin_run) {
        (Ok(a), Ok(b)) if !a.relation.multiset_eq(&b.relation) => Some(format!(
            "standalone ({} rows):\n{}\n{twin} ({} rows):\n{}",
            a.relation.len(),
            a.relation,
            b.relation.len(),
            b.relation
        )),
        (Ok(a), Ok(b)) => {
            let (a, b) = (a.plan_stats.as_ref()?, b.plan_stats.as_ref()?);
            let network =
                |t: &PlanNodeStats| -> Vec<_> { t.total_network().gated_fields().collect() };
            if a.total_eval() != b.total_eval() {
                Some(format!(
                    "gated counters drifted: standalone {:?} vs {twin} {:?}",
                    a.total_eval(),
                    b.total_eval()
                ))
            } else {
                let (a, b) = (network(a), network(b));
                (a != b).then(|| {
                    format!("network value counts drifted: standalone {a:?} vs {twin} {b:?}")
                })
            }
        }
        (Ok(_), Err(e)) => Some(format!("{twin} errored while standalone succeeded: {e}")),
        (Err(e), Ok(_)) => Some(format!("standalone errored while {twin} succeeded: {e}")),
        (Err(a), Err(b)) => {
            let (a, b) = (a.to_string(), b.to_string());
            (a != b).then(|| format!("errors differ: standalone {a:?} vs {twin} {b:?}"))
        }
    }
}

/// Re-run the first diverging (strategy, policy) with a collecting trace
/// sink and return the span events as JSON lines — the per-case profile
/// that ships inside a written repro (PR 2's observability layer).
pub fn trace_divergence(case: &FuzzCase, d: &Divergence) -> Vec<String> {
    let Ok(query) = gmdj_sql::parse_query(&case.sql) else {
        return Vec::new();
    };
    let catalog = case.catalog();
    let sink = Arc::new(CollectingSink::new());
    let _ = run_with_policy_traced(&query, &catalog, d.strategy, d.policy, sink.clone());
    sink.events().iter().map(|e| e.to_json()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TableSpec;

    fn tiny_case(sql: &str) -> FuzzCase {
        FuzzCase {
            seed: 0,
            tables: vec![
                TableSpec {
                    name: "B".into(),
                    columns: vec!["a".into(), "b".into()],
                    rows: vec![vec![Some(1), Some(2)], vec![None, Some(0)]],
                },
                TableSpec {
                    name: "R".into(),
                    columns: vec!["a".into(), "b".into()],
                    rows: vec![vec![Some(1), None]],
                },
            ],
            sql: sql.into(),
            spec: None,
        }
    }

    #[test]
    fn clean_case_passes() {
        let case =
            tiny_case("SELECT * FROM B B0 WHERE EXISTS (SELECT * FROM R R1 WHERE R1.a = B0.a)");
        let report = check_case(&case, &CheckOptions::default());
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn parse_errors_are_pipeline_errors() {
        let case = tiny_case("SELECT FROM WHERE");
        let report = check_case(&case, &CheckOptions::default());
        assert!(report.pipeline_error.is_some());
    }

    /// Every twin check runs clean on a case whose probe shape reaches
    /// the kernels (an equality key, NULLs in both scopes, a residual
    /// comparison).
    #[test]
    fn twin_checks_pass_on_kernel_shapes() {
        let case = tiny_case(
            "SELECT * FROM B B0 WHERE EXISTS \
             (SELECT * FROM R R1 WHERE R1.a = B0.a AND R1.b < B0.b)",
        );
        let report = check_case(&case, &CheckOptions::default());
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn mutator_induces_divergence() {
        fn drop_all(s: Strategy, _p: ExecPolicy, r: &Relation) -> Option<Relation> {
            (s == Strategy::GmdjOptimized).then(|| Relation::empty(r.schema().clone()))
        }
        let case =
            tiny_case("SELECT * FROM B B0 WHERE EXISTS (SELECT * FROM R R1 WHERE R1.a = B0.a)");
        let opts = CheckOptions {
            mutate: Some(drop_all),
            ..CheckOptions::default()
        };
        let report = check_case(&case, &opts);
        assert!(!report.divergences.is_empty());
        assert!(report
            .divergences
            .iter()
            .all(|d| d.strategy == Strategy::GmdjOptimized));
    }
}
