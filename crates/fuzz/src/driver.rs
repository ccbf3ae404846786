//! The differential driver: run one case through the full pipeline
//! (`gmdj_sql` parse → lower → every strategy × every execution policy)
//! and diff multiset results against tuple-iteration semantics.
//!
//! The oracle is [`Strategy::NaiveNestedLoop`] under the sequential
//! policy — `gmdj_engine::reference` with no smartness and no indexes,
//! i.e. the literal nested-loop semantics of Section 2 that Theorem 3.5's
//! correctness claim is stated against.
//!
//! Every policy-consuming strategy additionally runs twice per policy —
//! vectorized batch kernels on and off — and the two runs must agree on
//! the result multiset, the gated [`EvalStats`] counters, and error
//! behavior (see `gmdj_relation::batch` for the kernels' exactness
//! contract). A second sweep re-runs each policy under morsel sizes
//! {1, 7, 64, whole-relation}: morsel size is pure scheduling, so any
//! visible difference — result rows or gated counters, page accounting
//! included — is a bug. Distributed policies additionally run a third
//! twin over real socket-backed loopback sites (`gmdj_core::wire`): the
//! transport must not change the multiset, the gated counters, or the
//! closed-form network value counts. A fourth twin submits the same
//! query, under the sequential and the `parallel(2)` policy, from two
//! concurrent clients through a coalescing [`SharedScanPool`]: cross-query scan sharing (and its identical-query
//! dedup) must be invisible — each client's multiset, gated counters,
//! and error text must match the standalone run exactly.
//!
//! [`EvalStats`]: gmdj_core::eval::EvalStats

use std::sync::Arc;
use std::time::Duration;

use gmdj_core::runtime::{ExecPolicy, PlanNodeStats};
use gmdj_core::shared::{SharedScanConfig, SharedScanPool};
use gmdj_core::trace::CollectingSink;
use gmdj_engine::strategy::{
    run_with_policy, run_with_policy_pooled, run_with_policy_traced, Strategy,
};
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
/// actually consumes the execution policy. The reference and unnest
/// engines ignore it, so re-running them per policy is skipped.
pub fn uses_policy(s: Strategy) -> bool {
    matches!(
        s,
        Strategy::GmdjBasic
            | Strategy::GmdjOptimized
            | Strategy::GmdjBasicNoProbeIndex
            | Strategy::GmdjOptimizedNoProbeIndex
            | Strategy::GmdjCostBased
    )
}

/// Compact label for a policy (repro files, CI logs).
pub fn policy_label(p: ExecPolicy) -> String {
    use gmdj_core::runtime::ExecMode;
    match p.mode {
        ExecMode::Sequential => "seq".to_string(),
        ExecMode::Parallel { threads } => format!("par{threads}"),
        ExecMode::Distributed { sites } => format!("dist{sites}"),
    }
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
        for &policy in &opts.policies {
            if !uses_policy(strategy) && policy != ExecPolicy::sequential() {
                continue;
            }
            if strategy == Strategy::NaiveNestedLoop && policy == ExecPolicy::sequential() {
                continue; // the oracle itself
            }
            let result = run_with_policy(&query, &catalog, strategy, policy);
            // Vectorized/row-path twin check: the same strategy and policy
            // with the batch kernels disabled must produce the identical
            // multiset AND identical gated counters (the kernels claim
            // bit-exact semantics, not just equal answers). Errors must
            // match too — a kernel is only allowed to run where the row
            // path could not have errored.
            if uses_policy(strategy) {
                let row =
                    run_with_policy(&query, &catalog, strategy, policy.with_vectorized(false));
                let twin_detail = match (&result, &row) {
                    (Ok(v), Ok(r)) => {
                        if !v.relation.multiset_eq(&r.relation) {
                            Some(format!(
                                "vectorized ({} rows):\n{}\nrow path ({} rows):\n{}",
                                v.relation.len(),
                                v.relation,
                                r.relation.len(),
                                r.relation
                            ))
                        } else {
                            match (&v.plan_stats, &r.plan_stats) {
                                (Some(vs), Some(rs)) if vs.total_eval() != rs.total_eval() => {
                                    Some(format!(
                                        "gated counters drifted: vectorized {:?} vs row path {:?}",
                                        vs.total_eval(),
                                        rs.total_eval()
                                    ))
                                }
                                _ => None,
                            }
                        }
                    }
                    (Ok(_), Err(e)) => {
                        Some(format!("row path errored while vectorized succeeded: {e}"))
                    }
                    (Err(e), Ok(_)) => {
                        Some(format!("vectorized errored while row path succeeded: {e}"))
                    }
                    (Err(a), Err(b)) => {
                        let (a, b) = (a.to_string(), b.to_string());
                        (a != b)
                            .then(|| format!("errors differ: vectorized {a:?} vs row path {b:?}"))
                    }
                };
                if let Some(detail) = twin_detail {
                    report.divergences.push(Divergence {
                        strategy,
                        policy,
                        oracle_rows: oracle.len(),
                        actual_rows: result.as_ref().ok().map(|r| r.relation.len()),
                        detail: format!(
                            "{} under {}: vectorized and row-path scans disagree\n{detail}",
                            strategy.label(),
                            policy_label(policy)
                        ),
                    });
                }
                // Morsel-size sweep: scheduling granularity must never
                // leak into anything gated. Each size diffs against the
                // default-morsel run above on multiset, gated counters,
                // and error behavior.
                for morsel in [1usize, 7, 64, usize::MAX] {
                    let swept = run_with_policy(
                        &query,
                        &catalog,
                        strategy,
                        policy.with_morsel_size(Some(morsel)),
                    );
                    let sweep_detail = match (&result, &swept) {
                        (Ok(v), Ok(m)) => {
                            if !v.relation.multiset_eq(&m.relation) {
                                Some(format!(
                                    "default morsel ({} rows):\n{}\nmorsel={morsel} ({} rows):\n{}",
                                    v.relation.len(),
                                    v.relation,
                                    m.relation.len(),
                                    m.relation
                                ))
                            } else {
                                match (&v.plan_stats, &m.plan_stats) {
                                    (Some(vs), Some(ms))
                                        if vs.total_eval() != ms.total_eval() =>
                                    {
                                        Some(format!(
                                            "gated counters drifted: default {:?} vs morsel={morsel} {:?}",
                                            vs.total_eval(),
                                            ms.total_eval()
                                        ))
                                    }
                                    _ => None,
                                }
                            }
                        }
                        (Ok(_), Err(e)) => Some(format!(
                            "morsel={morsel} errored while default succeeded: {e}"
                        )),
                        (Err(e), Ok(_)) => Some(format!(
                            "default errored while morsel={morsel} succeeded: {e}"
                        )),
                        (Err(a), Err(b)) => {
                            let (a, b) = (a.to_string(), b.to_string());
                            (a != b).then(|| {
                                format!("errors differ: default {a:?} vs morsel={morsel} {b:?}")
                            })
                        }
                    };
                    if let Some(detail) = sweep_detail {
                        report.divergences.push(Divergence {
                            strategy,
                            policy,
                            oracle_rows: oracle.len(),
                            actual_rows: result.as_ref().ok().map(|r| r.relation.len()),
                            detail: format!(
                                "{} under {}: morsel size changed observable results\n{detail}",
                                strategy.label(),
                                policy_label(policy)
                            ),
                        });
                    }
                }
                // Real-sites twin check: distributed policies re-run over
                // socket-backed loopback sites. Both transports drive the
                // identical per-fragment evaluation, so the result multiset,
                // the gated counters, AND the closed-form network value
                // counts (the gated fields of NetworkStats's table)
                // must match exactly — only the byte counters are allowed
                // to differ (zero in-process, measured on the wire).
                if matches!(
                    policy.mode,
                    gmdj_core::runtime::ExecMode::Distributed { .. }
                ) {
                    let real =
                        run_with_policy(&query, &catalog, strategy, policy.with_real_sites(true));
                    let real_detail = match (&result, &real) {
                        (Ok(v), Ok(r)) => {
                            if !v.relation.multiset_eq(&r.relation) {
                                Some(format!(
                                    "in-process ({} rows):\n{}\nreal sites ({} rows):\n{}",
                                    v.relation.len(),
                                    v.relation,
                                    r.relation.len(),
                                    r.relation
                                ))
                            } else {
                                match (&v.plan_stats, &r.plan_stats) {
                                    (Some(vs), Some(rs)) if vs.total_eval() != rs.total_eval() => {
                                        Some(format!(
                                            "gated counters drifted: in-process {:?} vs real sites {:?}",
                                            vs.total_eval(),
                                            rs.total_eval()
                                        ))
                                    }
                                    (Some(vs), Some(rs)) => {
                                        let closed_form = |t: &PlanNodeStats| -> Vec<_> {
                                            t.total_network().gated_fields().collect()
                                        };
                                        let (a, b) = (closed_form(vs), closed_form(rs));
                                        (a != b).then(|| {
                                            format!(
                                                "network value counts drifted: \
                                                 in-process {a:?} vs real sites {b:?}"
                                            )
                                        })
                                    }
                                    _ => None,
                                }
                            }
                        }
                        (Ok(_), Err(e)) => Some(format!(
                            "real sites errored while in-process succeeded: {e}"
                        )),
                        (Err(e), Ok(_)) => Some(format!(
                            "in-process errored while real sites succeeded: {e}"
                        )),
                        (Err(a), Err(b)) => {
                            let (a, b) = (a.to_string(), b.to_string());
                            (a != b).then(|| {
                                format!("errors differ: in-process {a:?} vs real sites {b:?}")
                            })
                        }
                    };
                    if let Some(detail) = real_detail {
                        report.divergences.push(Divergence {
                            strategy,
                            policy,
                            oracle_rows: oracle.len(),
                            actual_rows: result.as_ref().ok().map(|r| r.relation.len()),
                            detail: format!(
                                "{} under {}: in-process and socket transports disagree\n{detail}",
                                strategy.label(),
                                policy_label(policy)
                            ),
                        });
                    }
                }
                // Shared-pool twin check: the same query submitted by two
                // concurrent clients through a coalescing pool (which will
                // merge them into one shared pass and deduplicate the
                // identical pair). Each client's multiset, gated counters,
                // and error text must match the standalone run — sharing
                // is an execution detail, never an observable one. The
                // pool engages for any non-distributed, unpartitioned
                // policy, but each request keeps its policy's worker
                // count, which decides completion admission: a
                // one-worker request admits every plan, a multi-worker
                // one only the pair-pruning plans. Both kinds run.
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
                        morsel_rows: 7,
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
                        let pool_detail = match (&result, p) {
                            (Ok(v), Ok(s)) => {
                                if !v.relation.multiset_eq(&s.relation) {
                                    Some(format!(
                                        "standalone ({} rows):\n{}\nshared pool ({} rows):\n{}",
                                        v.relation.len(),
                                        v.relation,
                                        s.relation.len(),
                                        s.relation
                                    ))
                                } else {
                                    match (&v.plan_stats, &s.plan_stats) {
                                        (Some(vs), Some(ss))
                                            if vs.total_eval() != ss.total_eval() =>
                                        {
                                            Some(format!(
                                                "gated counters drifted: standalone {:?} \
                                                 vs shared pool {:?}",
                                                vs.total_eval(),
                                                ss.total_eval()
                                            ))
                                        }
                                        _ => None,
                                    }
                                }
                            }
                            (Ok(_), Err(e)) => Some(format!(
                                "shared pool errored while standalone succeeded: {e}"
                            )),
                            (Err(e), Ok(_)) => Some(format!(
                                "standalone errored while shared pool succeeded: {e}"
                            )),
                            (Err(a), Err(b)) => {
                                let (a, b) = (a.to_string(), b.to_string());
                                (a != b).then(|| {
                                    format!("errors differ: standalone {a:?} vs shared pool {b:?}")
                                })
                            }
                        };
                        if let Some(detail) = pool_detail {
                            report.divergences.push(Divergence {
                                strategy,
                                policy,
                                oracle_rows: oracle.len(),
                                actual_rows: result.as_ref().ok().map(|r| r.relation.len()),
                                detail: format!(
                                    "{} under {}: shared-scan pool client {client} disagrees \
                                     with standalone execution\n{detail}",
                                    strategy.label(),
                                    policy_label(policy)
                                ),
                            });
                        }
                    }
                }
            }
            match result {
                Ok(r) => {
                    let relation = match opts.mutate {
                        Some(m) => m(strategy, policy, &r.relation).unwrap_or(r.relation),
                        None => r.relation,
                    };
                    if !oracle.multiset_eq(&relation) {
                        report.divergences.push(Divergence {
                            strategy,
                            policy,
                            oracle_rows: oracle.len(),
                            actual_rows: Some(relation.len()),
                            detail: format!(
                                "oracle ({} rows):\n{oracle}\n{} under {} ({} rows):\n{relation}",
                                oracle.len(),
                                strategy.label(),
                                policy_label(policy),
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
                        policy_label(policy)
                    ),
                }),
            }
        }
    }
    report
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

    /// The vectorized/row-path twin check runs clean on a case whose
    /// probe shape actually reaches the kernels (string equality key,
    /// NULLs in both scopes, a residual comparison).
    #[test]
    fn vectorized_twin_check_passes_on_kernel_shapes() {
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
