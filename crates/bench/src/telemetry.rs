//! Benchmark telemetry: the recorded counter trajectory and its
//! regression gate.
//!
//! `repro bench` executes the Figure 2–5 workloads plus an ablation grid
//! at fixed seeds and scales under the execution policies, and records
//! per (workload, size, strategy, policy) cell the quantities the
//! evaluator already counts exactly ([`EvalStats`] work, [`NetworkStats`]
//! traffic, table rows scanned, relational-operator row flow, per-plan-node
//! invocations). Same seed ⇒ same bytes, so any drift against
//! `bench/baseline.json` is a real plan-quality change and **fails** the
//! gate. Every cell runs twice and the runner asserts both runs agree, so
//! a nondeterministic counter can never be recorded in the first place.
//! Nothing here is timed: wall-clock claims go through `repro --figure`
//! at the paper's sizes and through perfbench.
//!
//! The report is one `BENCH_<run>.json` document. Its only definition
//! is the checked-in `schemas/bench.schema.json`: [`validate_bench`] runs
//! that file through the profile subsystem's schema interpreter
//! ([`crate::profile::Schema`], over [`crate::profile::parse_json`]) and
//! adds the `concurrent` section's cross-field invariants.
//! [`compare_reports`] implements the gate and, for a drifted entry,
//! diffs the recorded plan-node counter trees pairwise — naming the
//! regressed node and its cost-model figure
//! ([`gmdj_core::cost::observed_cost`]) before and after.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use gmdj_core::cost;
use gmdj_core::distributed::NetworkStats;
use gmdj_core::eval::EvalStats;
use gmdj_core::metrics;
use gmdj_core::runtime::{ExecPolicy, PlanNodeStats};
use gmdj_core::shared::{SharedScanConfig, SharedScanPool};
use gmdj_engine::strategy::{run_with_policy, run_with_policy_pooled, RunResult, Strategy};
use gmdj_relation::error::{Error, Result};

use crate::profile::Json;
use crate::{lineup, pair_cap, size_label, sizes, workload, FigureId};
use gmdj_datagen::workloads::Workload;

/// Schema version written to and required from bench documents.
/// Version 2 added the page-accounting counters (`col_chunk_reads`,
/// `row_page_reads`) to the gated counter set and a morsel-size
/// component to policy labels. Version 3 dropped every timing field.
/// Version 4 dropped the per-entry `gated` flag (every entry is gated)
/// and the morsel-size cells and label component (morsels are derived).
/// Version 5 added `rank_lookups` (ranked access) to the gated counters.
pub const BENCH_VERSION: u64 = 5;

/// The deterministic counter set recorded per bench entry or plan node:
/// `(key, value)` rows sorted by key — a few row-flow extras plus the
/// evaluator table and the gated network fields
/// ([`gmdj_core::counters`]). Every value is an exact count read back
/// from the run (no wall-clock anywhere), so two runs at the same seed,
/// scale, strategy and policy produce identical rows and the baseline
/// gate tolerates zero drift. The measured network byte counters are
/// not gated: they differ between transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    fn new(
        extras: impl IntoIterator<Item = (&'static str, u64)>,
        eval: &EvalStats,
        network: &NetworkStats,
    ) -> Counters {
        let mut rows: Vec<(&'static str, u64)> = extras
            .into_iter()
            .chain(eval.trace_fields())
            .chain(network.gated_fields())
            .collect();
        rows.sort_unstable_by_key(|&(k, _)| k);
        Counters(rows)
    }

    /// The entry counter set: result rows, strategy work and, rolled up
    /// over the plan tree when there is one, its node count, invocations,
    /// scanned rows, operator row flow, evaluator and network counters.
    fn entry(rows: u64, work: u64, tree: Option<&PlanNodeStats>) -> Counters {
        let total = |f: fn(&PlanNodeStats) -> u64| tree.map_or(0, f);
        let ops = tree.map(PlanNodeStats::total_ops).unwrap_or_default();
        Counters::new(
            [
                ("invocations", total(sum_invocations)),
                ("ops_rows_in", ops.rows_in),
                ("ops_rows_out", ops.rows_out),
                ("plan_nodes", total(count_nodes)),
                ("rows", rows),
                ("scanned_rows", total(PlanNodeStats::total_scanned)),
                ("work", work),
            ],
            &tree.map(PlanNodeStats::total_eval).unwrap_or_default(),
            &tree.map(PlanNodeStats::total_network).unwrap_or_default(),
        )
    }

    /// The counter set of one plan node (no timing fields, no rollup).
    fn node(t: &PlanNodeStats) -> Counters {
        Counters::new(
            [
                ("invocations", t.invocations),
                ("ops_rows_in", t.ops.rows_in),
                ("ops_rows_out", t.ops.rows_out),
                ("rows_out", t.rows_out),
                ("scanned_rows", t.scanned_rows),
            ],
            &t.eval,
            &t.network,
        )
    }

    /// Extract the entry counter set from a strategy run.
    pub fn from_run(result: &RunResult) -> Counters {
        Counters::entry(
            result.relation.len() as u64,
            result.stats.work(),
            result.plan_stats.as_ref(),
        )
    }

    fn keys(&self) -> Vec<&'static str> {
        self.0.iter().map(|&(k, _)| k).collect()
    }

    fn to_json(&self) -> String {
        gmdj_core::trace::json_object(self.0.iter().copied())
    }
}

/// The entry counter keys, sorted — the order they are emitted in JSON
/// and required by the schema.
pub fn counter_keys() -> Vec<&'static str> {
    Counters::entry(0, 0, None).keys()
}

/// The per-node counter keys of the recorded plan tree, sorted.
pub fn node_counter_keys() -> Vec<&'static str> {
    Counters::node(&PlanNodeStats::default()).keys()
}

fn count_nodes(t: &PlanNodeStats) -> u64 {
    1 + t.children.iter().map(count_nodes).sum::<u64>()
}

fn sum_invocations(t: &PlanNodeStats) -> u64 {
    t.invocations + t.children.iter().map(sum_invocations).sum::<u64>()
}

/// Render the *deterministic projection* of a plan-stats tree: labels and
/// counters only, every timing field excluded, keys sorted — the plan
/// section of a bench entry, byte-reproducible at a fixed seed.
pub fn counter_tree_json(t: &PlanNodeStats) -> String {
    let children: Vec<String> = t.children.iter().map(counter_tree_json).collect();
    format!(
        "{{\"label\":\"{}\",\"counters\":{},\"children\":[{}]}}",
        gmdj_core::trace::json_escape(&t.label),
        Counters::node(t).to_json(),
        children.join(",")
    )
}

/// Read the `N` fields of one counter table from `num`; fields the table
/// does not gate are not recorded and read back as zero.
fn read_fields<const N: usize>(
    fields: [&str; N],
    gated: [bool; N],
    num: impl Fn(&str) -> std::result::Result<u64, String>,
) -> std::result::Result<[u64; N], String> {
    let mut values = [0; N];
    for ((value, key), gated) in values.iter_mut().zip(fields).zip(gated) {
        if gated {
            *value = num(key)?;
        }
    }
    Ok(values)
}

/// Reconstruct a (timing-free) [`PlanNodeStats`] from a counter tree, so
/// [`gmdj_core::cost::observed_cost`] can price recorded plans without
/// re-running them.
pub fn plan_from_counter_tree(node: &Json) -> std::result::Result<PlanNodeStats, String> {
    let counters = node.get("counters").ok_or("node missing `counters`")?;
    let num = |key: &str| -> std::result::Result<u64, String> {
        counters
            .get(key)
            .and_then(Json::as_num)
            .map(|n| n as u64)
            .ok_or_else(|| format!("node counters missing `{key}`"))
    };
    let mut out = PlanNodeStats::new(
        node.get("label")
            .and_then(Json::as_str)
            .ok_or("node missing `label`")?,
    );
    out.rows_out = num("rows_out")?;
    out.scanned_rows = num("scanned_rows")?;
    out.invocations = num("invocations")?;
    out.ops.rows_in = num("ops_rows_in")?;
    out.ops.rows_out = num("ops_rows_out")?;
    out.eval = EvalStats::from_values(read_fields(EvalStats::FIELDS, EvalStats::GATED, num)?);
    out.network =
        NetworkStats::from_values(read_fields(NetworkStats::FIELDS, NetworkStats::GATED, num)?);
    for c in node
        .get("children")
        .and_then(Json::as_arr)
        .ok_or("node missing `children`")?
    {
        out.children.push(plan_from_counter_tree(c)?);
    }
    Ok(out)
}

/// One measured cell of the bench grid.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Workload group: `fig2`..`fig5` or `ablation/<name>`.
    pub group: String,
    /// Size-point or variant label within the group.
    pub label: String,
    pub strategy: &'static str,
    /// Stable policy label (`seq`, `par2`, `dist2`, `seq+part4`).
    pub policy: String,
    pub counters: Counters,
    /// Deterministic plan-tree projection (GMDJ strategies only).
    pub plan: Option<PlanNodeStats>,
    /// The cost model's figure for the recorded work
    /// ([`gmdj_core::cost::observed_cost`]); derived from the counters,
    /// hence equally deterministic.
    pub predicted_cost: Option<f64>,
}

impl BenchEntry {
    /// The identity of this cell in baseline comparisons.
    pub fn key(&self) -> String {
        format!(
            "{} {} {} {}",
            self.group, self.label, self.strategy, self.policy
        )
    }

    fn to_json(&self) -> String {
        let plan = match &self.plan {
            Some(t) => counter_tree_json(t),
            None => "null".into(),
        };
        let predicted = match self.predicted_cost {
            Some(c) => format!("{c:.1}"),
            None => "null".into(),
        };
        format!(
            "{{\"group\":\"{}\",\"label\":\"{}\",\"strategy\":\"{}\",\"policy\":\"{}\",\
             \"counters\":{},\"predicted_cost\":{},\"plan\":{}}}",
            gmdj_core::trace::json_escape(&self.group),
            gmdj_core::trace::json_escape(&self.label),
            self.strategy,
            self.policy,
            self.counters.to_json(),
            predicted,
            plan,
        )
    }
}

/// Configuration of one bench run. [`BenchConfig::quick`] is the CI /
/// baseline configuration; [`BenchConfig::full`] takes longer and sweeps
/// larger sizes for local trajectory recording.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    pub figures: Vec<FigureId>,
    /// Multiplier on the paper's row counts (see [`sizes`]).
    pub scale: f64,
    pub seed: u64,
    /// Include the ablation grid.
    pub ablations: bool,
    /// Run the figure grid's first size point also under the parallel and
    /// distributed policies (GMDJ strategies only).
    pub cross_policy: bool,
    /// Mode tag written to the report (`quick` or `full`).
    pub quick: bool,
    /// `Some(n)`: additionally run the concurrent-load group — `n`
    /// identical GMDJ queries submitted serially (standalone) and then
    /// concurrently through a [`SharedScanPool`], recording the per-query
    /// counters and the shared-scan pass counters. The grid entries are
    /// untouched (sharing engages only on the pooled leg).
    pub concurrent: Option<usize>,
}

impl BenchConfig {
    /// The CI configuration: every figure at a tiny scale. This is the
    /// configuration `bench/baseline.json` is recorded with.
    pub fn quick(seed: u64) -> Self {
        BenchConfig {
            figures: FigureId::all().to_vec(),
            scale: 0.004,
            seed,
            ablations: true,
            cross_policy: true,
            quick: true,
            concurrent: None,
        }
    }

    /// The local trajectory-recording configuration.
    pub fn full(seed: u64) -> Self {
        BenchConfig {
            scale: 0.05,
            quick: false,
            ..Self::quick(seed)
        }
    }

    /// Deterministic run identifier: `BENCH_<run_id>.json`. Concurrent
    /// runs get distinct ids so that leg never overwrites the canonical
    /// recording.
    pub fn run_id(&self) -> String {
        format!(
            "{}_seed{}{}",
            if self.quick {
                "quick".into()
            } else {
                format!("s{}", self.scale)
            },
            self.seed,
            match self.concurrent {
                Some(n) => format!("_conc{n}"),
                None => String::new(),
            }
        )
    }
}

/// A completed bench run.
#[derive(Debug)]
pub struct BenchReport {
    pub config: BenchConfig,
    pub entries: Vec<BenchEntry>,
    /// The concurrent-load group ([`BenchConfig::concurrent`]).
    pub concurrent: Option<ConcurrentReport>,
}

impl BenchReport {
    /// Render the full document (`BENCH_<run>.json`).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"version\":{},\"run\":\"{}\",\"mode\":\"{}\",\"scale\":{},\"seed\":{},\
             \"entries\":[",
            BENCH_VERSION,
            self.config.run_id(),
            if self.config.quick { "quick" } else { "full" },
            self.config.scale,
            self.config.seed,
        );
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push(']');
        if let Some(conc) = &self.concurrent {
            out.push_str(",\"concurrent\":");
            out.push_str(&conc.to_json());
        }
        out.push('}');
        out
    }
}

/// The concurrent-load group: `queries` identical GMDJs over one detail
/// table, run submitted serially (standalone runs, back to back) and then
/// concurrently through a [`SharedScanPool`] where they coalesce into
/// shared passes. The per-query work counters are identical between the
/// legs (logical accounting — that is the correctness claim) and
/// deterministic, so they gate; the pass counters prove the physical
/// amortization (detail chunks paid once per pass, not once per query).
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Queries per wave (`--concurrent`'s N).
    pub queries: usize,
    /// Pooled waves.
    pub reps: u32,
    pub group: String,
    pub label: String,
    pub strategy: &'static str,
    pub policy: String,
    /// Per-query gated counters — asserted identical across every query
    /// of both legs before being recorded.
    pub counters: Counters,
    /// `shared_scan_passes_total` delta over the pooled waves
    /// (deterministic: one pass per plan GMDJ node per wave).
    pub shared_scan_passes: u64,
    /// `shared_scan_queries_served_total` delta — `queries ×` the pass
    /// count; the `passes < served` gap IS the shared work.
    pub shared_scan_queries_served: u64,
}

impl ConcurrentReport {
    /// Render the `"concurrent"` report section.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queries\":{},\"reps\":{},\"group\":\"{}\",\"label\":\"{}\",\
             \"strategy\":\"{}\",\"policy\":\"{}\",\"counters\":{},\
             \"shared_scan_passes\":{},\"shared_scan_queries_served\":{}}}",
            self.queries,
            self.reps,
            gmdj_core::trace::json_escape(&self.group),
            gmdj_core::trace::json_escape(&self.label),
            self.strategy,
            self.policy,
            self.counters.to_json(),
            self.shared_scan_passes,
            self.shared_scan_queries_served,
        )
    }
}

/// Record one cell: run it twice and require both runs' counters to
/// agree exactly — a mismatch means a counter is nondeterministic and
/// must not be recorded, so it is an error.
fn measure(
    w: &Workload,
    strategy: Strategy,
    policy: ExecPolicy,
    group: &str,
    label: &str,
) -> Result<BenchEntry> {
    let result = run_with_policy(&w.query, &w.catalog, strategy, policy)?;
    let counters = Counters::from_run(&result);
    let again = Counters::from_run(&run_with_policy(&w.query, &w.catalog, strategy, policy)?);
    if again != counters {
        return Err(Error::invalid(format!(
            "nondeterministic counters for {group} {label} {} {}: {counters:?} vs {again:?}",
            strategy.label(),
            policy.label(),
        )));
    }
    let plan = result.plan_stats;
    let predicted_cost = plan.as_ref().map(|t| cost::observed_cost(t).total());
    Ok(BenchEntry {
        group: group.to_string(),
        label: label.to_string(),
        strategy: strategy.label(),
        policy: policy.label(),
        counters,
        plan,
        predicted_cost,
    })
}

fn figure_group(fig: FigureId) -> &'static str {
    match fig {
        FigureId::Fig2 => "fig2",
        FigureId::Fig3 => "fig3",
        FigureId::Fig4 => "fig4",
        FigureId::Fig5 => "fig5",
    }
}

/// Execute the configured bench grid. Deterministic counter sections:
/// every entry is gated — the runner has already proven run-to-run
/// counter equality, and no counter depends on how the morsel pass
/// schedules its workers.
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport> {
    let mut entries: Vec<BenchEntry> = Vec::new();
    for &fig in &cfg.figures {
        let group = figure_group(fig);
        for (pi, (outer, inner)) in sizes(fig, cfg.scale).into_iter().enumerate() {
            let w = workload(fig, outer, inner, cfg.seed);
            let label = size_label(fig, outer, inner);
            for strategy in lineup(fig) {
                if let Some(cap) = pair_cap(fig, strategy) {
                    if (outer as u64) * (inner as u64) > cap {
                        continue;
                    }
                }
                entries.push(measure(
                    &w,
                    strategy,
                    ExecPolicy::sequential(),
                    group,
                    &label,
                )?);
                // Cross-policy coverage on the first size point: the
                // policies only affect strategies that execute GMDJ plans.
                let has_plan = entries.last().map(|e| e.plan.is_some()).unwrap_or(false);
                if cfg.cross_policy && pi == 0 && has_plan {
                    for policy in [ExecPolicy::parallel(2), ExecPolicy::distributed(2)] {
                        entries.push(measure(&w, strategy, policy, group, &label)?);
                    }
                }
            }
        }
    }
    if cfg.ablations {
        entries.extend(run_ablations(cfg)?);
    }
    let concurrent = match cfg.concurrent {
        Some(n) => Some(run_concurrent(cfg, n)?),
        None => None,
    };
    Ok(BenchReport {
        config: cfg.clone(),
        entries,
        concurrent,
    })
}

/// Counter-equality check across every query of both concurrent legs:
/// the shared pass must do exactly the standalone per-query work.
fn check_concurrent_counters(
    recorded: &mut Option<Counters>,
    counters: Counters,
    leg: &str,
) -> Result<()> {
    match recorded {
        None => {
            *recorded = Some(counters);
            Ok(())
        }
        Some(prev) if *prev != counters => Err(Error::invalid(format!(
            "concurrent group: {leg} per-query counters diverge \
             (shared execution must be counter-identical to standalone): \
             {prev:?} vs {counters:?}"
        ))),
        Some(_) => Ok(()),
    }
}

/// Barrier-released waves the concurrent group's pooled leg submits.
const POOLED_WAVES: u32 = 2;

/// The concurrent-load group: `n` identical GMDJ queries over one detail
/// table, run (a) once serially as standalone runs and (b) in
/// [`POOLED_WAVES`] waves submitted concurrently through a
/// [`SharedScanPool`] sized to coalesce each wave into shared passes.
/// Hard-errors if any query's gated counters differ between legs, if the
/// waves did not fully coalesce (`served != passes × n`), or if sharing
/// paid no passes at all.
fn run_concurrent(cfg: &BenchConfig, n: usize) -> Result<ConcurrentReport> {
    let n = n.max(1);
    // The largest Fig3 point at a boosted scale: the aggregate
    // comparison, a single-detail-table GMDJ that reads every detail row
    // (no completion plan settles it early), so the detail scan dominates
    // — the workload the sharing claim is about.
    let conc_scale = (cfg.scale * 25.0).min(1.0);
    let (outer, inner) = *sizes(FigureId::Fig3, conc_scale)
        .last()
        .expect("fig3 has size points");
    let w = workload(FigureId::Fig3, outer, inner, cfg.seed);
    let label = size_label(FigureId::Fig3, outer, inner);
    let strategy = Strategy::GmdjOptimized;
    let policy = ExecPolicy::parallel(2);
    // A generous window plus target_batch = n: the barrier-released wave
    // coalesces completely, so pass counts are closed-form.
    let pool = Arc::new(SharedScanPool::new(SharedScanConfig {
        window: Duration::from_millis(500),
        target_batch: n,
        threads: 4,
    }));
    let mut recorded: Option<Counters> = None;

    // Serial leg: the same n queries, standalone, back to back.
    for _ in 0..n {
        let r = run_with_policy(&w.query, &w.catalog, strategy, policy)?;
        check_concurrent_counters(&mut recorded, Counters::from_run(&r), "serial")?;
    }

    // Pooled leg: waves of n barrier-released submitter threads, all
    // coalescing through the pool.
    let m = metrics::global();
    let passes_before = m.counter("shared_scan_passes_total");
    let served_before = m.counter("shared_scan_queries_served_total");
    for _ in 0..POOLED_WAVES {
        let barrier = Barrier::new(n);
        let runs: Vec<Result<RunResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let (w, pool, barrier) = (&w, pool.clone(), &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        run_with_policy_pooled(&w.query, &w.catalog, strategy, policy, pool)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(Error::invalid("concurrent submitter panicked")))
                })
                .collect()
        });
        for run in runs {
            check_concurrent_counters(&mut recorded, Counters::from_run(&run?), "shared")?;
        }
    }
    let shared_scan_passes = m.counter("shared_scan_passes_total") - passes_before;
    let shared_scan_queries_served = m.counter("shared_scan_queries_served_total") - served_before;
    if shared_scan_passes == 0 {
        return Err(Error::invalid(
            "concurrent group: pooled leg paid no shared-scan passes",
        ));
    }
    if shared_scan_queries_served != shared_scan_passes * n as u64 {
        return Err(Error::invalid(format!(
            "concurrent group: waves did not fully coalesce: \
             {shared_scan_passes} passes served {shared_scan_queries_served} queries \
             (expected passes × {n})"
        )));
    }
    if n > 1 && shared_scan_passes >= shared_scan_queries_served {
        return Err(Error::invalid(
            "concurrent group: shared_scan_passes must stay below queries served",
        ));
    }
    Ok(ConcurrentReport {
        queries: n,
        reps: POOLED_WAVES,
        group: "concurrent/fig3".to_string(),
        label,
        strategy: strategy.label(),
        policy: policy.label(),
        counters: recorded.expect("at least one measured query"),
        shared_scan_passes,
        shared_scan_queries_served,
    })
}

/// The ablation grid: the DESIGN.md design choices recorded in isolation
/// (mirroring `benches/ablations.rs`, but deterministic).
fn run_ablations(cfg: &BenchConfig) -> Result<Vec<BenchEntry>> {
    let mut entries = Vec::new();
    let (outer2, inner2) = sizes(FigureId::Fig2, cfg.scale)[0];
    let fig2 = workload(FigureId::Fig2, outer2, inner2, cfg.seed);
    // Intrinsic probe indexing vs scanning the active base set.
    for (label, strategy) in [
        ("hash-probe", Strategy::GmdjBasic),
        ("active-scan", Strategy::GmdjBasicNoProbeIndex),
    ] {
        let policy = ExecPolicy::sequential();
        entries.push(measure(&fig2, strategy, policy, "ablation/probe", label)?);
    }
    // Memory-partitioned evaluation: 2 and 4 base partitions.
    for parts in [2usize, 4] {
        let rows = outer2.div_ceil(parts);
        entries.push(measure(
            &fig2,
            Strategy::GmdjOptimized,
            ExecPolicy::sequential().with_partition_rows(Some(rows)),
            "ablation/partitions",
            &format!("partitions-{parts}"),
        )?);
    }
    // Thread scaling of the detail scan (one thread is `seq`).
    for threads in [1usize, 2, 4] {
        entries.push(measure(
            &fig2,
            Strategy::GmdjOptimized,
            ExecPolicy::parallel(threads),
            "ablation/threads",
            &format!("threads-{threads}"),
        )?);
    }
    // Base-tuple completion on the Figure 4 ALL query, pair by pair
    // both ways: the basic plan scans (θ has no key), and the optimized
    // plan is forced to scan, since under `Auto` it counts both ALL
    // blocks by ranked access and visits no pair (the `fig4 * gmdj-opt`
    // cells). So this cell gates the row-ordered completion item.
    let (outer4, inner4) = sizes(FigureId::Fig4, cfg.scale)[0];
    let fig4 = workload(FigureId::Fig4, outer4, inner4, cfg.seed);
    for (label, strategy) in [
        ("without-completion", Strategy::GmdjBasic),
        ("with-completion", Strategy::GmdjOptimizedNoProbeIndex),
    ] {
        let policy = ExecPolicy::sequential();
        entries.push(measure(
            &fig4,
            strategy,
            policy,
            "ablation/completion",
            label,
        )?);
    }
    Ok(entries)
}

// ---------------------------------------------------------------------
// Validation (schemas/bench.schema.json) and baseline comparison.
// ---------------------------------------------------------------------

fn require_num(obj: &Json, key: &str, at: &str) -> std::result::Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{at}: missing numeric `{key}`"))
}

fn require_str<'j>(obj: &'j Json, key: &str, at: &str) -> std::result::Result<&'j str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{at}: missing string `{key}`"))
}

/// Validate a parsed bench document: `schemas/bench.schema.json`, plus
/// the closed-form sharing invariants of the optional `concurrent`
/// section that a schema cannot state — queries served equal passes ×
/// queries, and with more than one query per wave, passes are strictly
/// fewer than queries served (chunk reads are paid once per pass, not
/// once per query). Returns the first violation.
pub fn validate_bench(doc: &Json) -> std::result::Result<(), String> {
    crate::profile::bench_schema().validate(doc, "bench")?;
    let Some(c) = doc.get("concurrent") else {
        return Ok(());
    };
    let at = "bench.concurrent";
    let queries = require_num(c, "queries", at)? as u64;
    let passes = require_num(c, "shared_scan_passes", at)? as u64;
    let served = require_num(c, "shared_scan_queries_served", at)? as u64;
    if served != passes * queries {
        return Err(format!(
            "{at}: queries served ({served}) must equal passes ({passes}) × queries ({queries})"
        ));
    }
    if queries > 1 && passes >= served {
        return Err(format!(
            "{at}: shared_scan_passes ({passes}) must be strictly below \
             queries served ({served}) — detail chunks are paid once per pass"
        ));
    }
    Ok(())
}

fn entry_key(e: &Json) -> std::result::Result<String, String> {
    Ok(format!(
        "{} {} {} {}",
        require_str(e, "group", "entry")?,
        require_str(e, "label", "entry")?,
        require_str(e, "strategy", "entry")?,
        require_str(e, "policy", "entry")?,
    ))
}

/// Canonical rendering of the gated counter data of a bench document: one
/// block per entry (key line, sorted counters, plan counter tree).
/// Two runs at the same configuration must render byte-identically — this
/// is the string the determinism test and the baseline gate compare.
pub fn counter_section(doc: &Json) -> std::result::Result<String, String> {
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing `entries` array")?;
    let mut out = String::new();
    for e in entries {
        out.push_str(&entry_key(e)?);
        out.push('\n');
        let counters = e.get("counters").ok_or("entry missing `counters`")?;
        if let Json::Obj(members) = counters {
            let mut sorted: Vec<&(String, Json)> = members.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            for (k, v) in sorted {
                let n = v
                    .as_num()
                    .ok_or_else(|| format!("counter `{k}` not numeric"))?;
                out.push_str(&format!("  {k}={}\n", n as u64));
            }
        } else {
            return Err("`counters` is not an object".into());
        }
        if let Some(plan @ Json::Obj(_)) = e.get("plan") {
            counter_section_plan(plan, 1, &mut out)?;
        }
    }
    Ok(out)
}

fn counter_section_plan(
    node: &Json,
    depth: usize,
    out: &mut String,
) -> std::result::Result<(), String> {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str("plan ");
    out.push_str(require_str(node, "label", "plan node")?);
    if let Some(Json::Obj(members)) = node.get("counters") {
        let mut sorted: Vec<&(String, Json)> = members.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, v) in sorted {
            let n = v
                .as_num()
                .ok_or_else(|| format!("counter `{k}` not numeric"))?;
            out.push_str(&format!(" {k}={}", n as u64));
        }
    }
    out.push('\n');
    if let Some(children) = node.get("children").and_then(Json::as_arr) {
        for c in children {
            counter_section_plan(c, depth + 1, out)?;
        }
    }
    Ok(())
}

/// Outcome of a baseline comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Hard failures: configuration mismatches, entries missing from the
    /// current run, and counter drifts (with plan-node diffs).
    pub drifts: Vec<String>,
    /// Entries present in the current run but absent from the baseline
    /// (e.g. a grown grid) — informational; re-bless to record them.
    pub new_entries: Vec<String>,
}

impl Comparison {
    /// Whether the counter gate failed.
    pub fn gate_failed(&self) -> bool {
        !self.drifts.is_empty()
    }

    /// Human-readable summary of the comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.drifts {
            out.push_str(&format!("DRIFT  {d}\n"));
        }
        for n in &self.new_entries {
            out.push_str(&format!(
                "NEW    {n} (not in baseline; re-bless to record)\n"
            ));
        }
        if out.is_empty() {
            out.push_str("baseline check: no counter drift\n");
        }
        out
    }
}

/// `"key before -> after"` for each of `keys` whose value differs between
/// the `counters` objects of two recorded entries or plan nodes (`?` for
/// a missing value).
fn changed_counters(keys: &[&str], baseline: &Json, current: &Json) -> Vec<String> {
    let value = |doc: &Json, key: &str| {
        doc.get("counters")
            .and_then(|c| c.get(key))
            .and_then(Json::as_num)
    };
    let show = |v: Option<f64>| v.map_or_else(|| "?".into(), |v| (v as u64).to_string());
    keys.iter()
        .filter_map(|&key| {
            let (b, c) = (value(baseline, key), value(current, key));
            (b != c).then(|| format!("{key} {} -> {}", show(b), show(c)))
        })
        .collect()
}

/// Diff two recorded plan counter trees, appending one line per
/// mismatched node with the drifted counters and the cost model's figure
/// for the node before (baseline = predicted) and after (current =
/// observed) — the "which plan node regressed" report.
fn diff_plan_nodes(
    baseline: &Json,
    current: &Json,
    path: &str,
    out: &mut Vec<String>,
) -> std::result::Result<(), String> {
    let b_label = require_str(baseline, "label", "plan node")?;
    let c_label = require_str(current, "label", "plan node")?;
    let path = if path.is_empty() {
        b_label.to_string()
    } else {
        format!("{path} > {b_label}")
    };
    if b_label != c_label {
        out.push(format!(
            "    plan node {path}: operator changed {b_label} -> {c_label}"
        ));
        return Ok(());
    }
    let changed = changed_counters(&node_counter_keys(), baseline, current);
    if !changed.is_empty() {
        let predicted = plan_from_counter_tree(baseline)
            .map(|t| cost::observed_cost(&t).total())
            .unwrap_or(f64::NAN);
        let observed = plan_from_counter_tree(current)
            .map(|t| cost::observed_cost(&t).total())
            .unwrap_or(f64::NAN);
        out.push(format!(
            "    plan node {path}: {} [cost predicted={predicted:.1} observed={observed:.1}]",
            changed.join(", "),
        ));
    }
    let b_children = baseline
        .get("children")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    let c_children = current
        .get("children")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if b_children.len() != c_children.len() {
        out.push(format!(
            "    plan node {path}: child count changed {} -> {}",
            b_children.len(),
            c_children.len()
        ));
    }
    for (b, c) in b_children.iter().zip(c_children.iter()) {
        diff_plan_nodes(b, c, &path, out)?;
    }
    Ok(())
}

/// The baseline gate. `current` and `baseline` are parsed bench documents
/// (validate them first). Counter drift on any entry — including an
/// entry disappearing, or the recording configuration changing — fails
/// the gate ([`Comparison::gate_failed`]).
pub fn compare_reports(current: &Json, baseline: &Json) -> std::result::Result<Comparison, String> {
    let mut cmp = Comparison::default();
    for key in ["version", "scale", "seed"] {
        let b = require_num(baseline, key, "baseline")?;
        let c = require_num(current, key, "current")?;
        if b != c {
            cmp.drifts.push(format!(
                "configuration mismatch: `{key}` baseline={b} current={c} \
                 (compare runs recorded with the same config, or re-bless)"
            ));
        }
    }
    let b_mode = require_str(baseline, "mode", "baseline")?;
    let c_mode = require_str(current, "mode", "current")?;
    if b_mode != c_mode {
        cmp.drifts.push(format!(
            "configuration mismatch: `mode` baseline={b_mode} current={c_mode}"
        ));
    }
    if !cmp.drifts.is_empty() {
        return Ok(cmp);
    }
    let b_entries = baseline
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline: missing `entries`")?;
    let c_entries = current
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("current: missing `entries`")?;
    let mut current_by_key: Vec<(String, &Json)> = Vec::with_capacity(c_entries.len());
    for e in c_entries {
        current_by_key.push((entry_key(e)?, e));
    }
    let find = |key: &str| {
        current_by_key
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, e)| *e)
    };

    let mut baseline_keys: Vec<String> = Vec::with_capacity(b_entries.len());
    for b in b_entries {
        let key = entry_key(b)?;
        baseline_keys.push(key.clone());
        let Some(c) = find(&key) else {
            cmp.drifts
                .push(format!("{key}: entry missing from current run"));
            continue;
        };
        let changed = changed_counters(&counter_keys(), b, c);
        // Diff the recorded plan trees regardless of the entry-level
        // rollups: counters redistributed among nodes (same totals,
        // different plan) are still a plan-quality change.
        let mut plan_lines: Vec<String> = Vec::new();
        match (b.get("plan"), c.get("plan")) {
            (Some(bp @ Json::Obj(_)), Some(cp @ Json::Obj(_))) => {
                diff_plan_nodes(bp, cp, "", &mut plan_lines)?;
            }
            (Some(Json::Obj(_)), _) => {
                plan_lines.push("    plan tree disappeared from current run".into());
            }
            _ => {}
        }
        if !changed.is_empty() || !plan_lines.is_empty() {
            let what = if changed.is_empty() {
                "plan-node counter drift".to_string()
            } else {
                format!("counter drift: {}", changed.join(", "))
            };
            let mut lines = vec![format!("{key}: {what}")];
            lines.extend(plan_lines);
            cmp.drifts.push(lines.join("\n"));
        }
    }
    for (key, _) in &current_by_key {
        if !baseline_keys.contains(key) {
            cmp.new_entries.push(key.clone());
        }
    }

    // The concurrent section gates only when the current run recorded
    // one (`--concurrent`): runs without the flag still compare cleanly
    // against a baseline that has the section.
    match (current.get("concurrent"), baseline.get("concurrent")) {
        (Some(c @ Json::Obj(_)), Some(b @ Json::Obj(_))) => {
            let key = "concurrent section";
            for field in ["group", "label", "strategy", "policy"] {
                let bv = require_str(b, field, "baseline.concurrent")?;
                let cv = require_str(c, field, "current.concurrent")?;
                if bv != cv {
                    cmp.drifts
                        .push(format!("{key}: `{field}` baseline={bv} current={cv}"));
                }
            }
            for field in [
                "queries",
                "reps",
                "shared_scan_passes",
                "shared_scan_queries_served",
            ] {
                let bv = require_num(b, field, "baseline.concurrent")? as u64;
                let cv = require_num(c, field, "current.concurrent")? as u64;
                if bv != cv {
                    cmp.drifts
                        .push(format!("{key}: `{field}` drifted {bv} -> {cv}"));
                }
            }
            let changed = changed_counters(&counter_keys(), b, c);
            if !changed.is_empty() {
                cmp.drifts
                    .push(format!("{key}: counter drift: {}", changed.join(", ")));
            }
        }
        (Some(Json::Obj(_)), None) => {
            cmp.new_entries.push("concurrent section".into());
        }
        (None, _) => {}
        _ => return Err("`concurrent` must be an object when present".into()),
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::parse_json;

    fn micro_config() -> BenchConfig {
        BenchConfig {
            figures: vec![FigureId::Fig2],
            scale: 0.002,
            seed: 7,
            ablations: false,
            cross_policy: false,
            quick: true,
            concurrent: None,
        }
    }

    /// The labels bench keys and artifact names are built from; one
    /// worker is the sequential policy and keeps its `seq` label.
    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(ExecPolicy::sequential(), ExecPolicy::parallel(1));
        assert_eq!(ExecPolicy::sequential().label(), "seq");
        assert_eq!(ExecPolicy::parallel(1).label(), "seq");
        assert_eq!(ExecPolicy::parallel(4).label(), "par4");
        assert_eq!(ExecPolicy::distributed(2).label(), "dist2");
        assert_eq!(
            ExecPolicy::sequential()
                .with_partition_rows(Some(8))
                .label(),
            "seq+part8"
        );
        assert_eq!(
            ExecPolicy::parallel(4).with_partition_rows(Some(8)).label(),
            "par4+part8"
        );
    }

    /// The `required` list at `path` (member names from the root) of a
    /// checked-in schema.
    fn schema_required(text: &str, path: &[&str]) -> Vec<String> {
        let mut node = parse_json(text).unwrap();
        for key in path {
            node = node.get(key).unwrap_or_else(|| panic!("{path:?}")).clone();
        }
        let required = node.get("required").and_then(Json::as_arr).unwrap();
        required
            .iter()
            .map(|k| k.as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn counter_keys_are_sorted_and_complete() {
        // The schemas' counter lists are the Rust tables: the bench rows
        // key-sorted, the profile's sets in field-table order.
        let bench = include_str!("../../../schemas/bench.schema.json");
        let profile = include_str!("../../../schemas/profile.schema.json");
        let entry = counter_keys();
        let mut sorted = entry.clone();
        sorted.sort_unstable();
        assert_eq!((entry.len(), &sorted), (23, &entry));
        for path in [
            &["properties", "entries", "items", "properties", "counters"][..],
            &["properties", "concurrent", "properties", "counters"],
        ] {
            assert_eq!(schema_required(bench, path), entry, "{path:?}");
        }
        let node = node_counter_keys();
        assert_eq!(node.len(), 21);
        let path = ["definitions", "counterNode", "properties", "counters"];
        assert_eq!(schema_required(bench, &path), node);
        for (set, fields) in [
            ("eval", &EvalStats::FIELDS[..]),
            ("kernel", &gmdj_core::eval::KernelStats::FIELDS),
            ("network", &NetworkStats::FIELDS),
        ] {
            let path = ["definitions", "planNode", "properties", set];
            assert_eq!(schema_required(profile, &path), fields, "{set}");
        }
    }

    #[test]
    fn micro_bench_renders_and_validates() {
        let report = run_bench(&micro_config()).unwrap();
        assert!(!report.entries.is_empty());
        let doc = parse_json(&report.to_json()).unwrap();
        validate_bench(&doc).unwrap();
        let section = counter_section(&doc).unwrap();
        assert!(section.contains("fig2"), "{section}");
        assert!(section.contains("theta_evals="), "{section}");
    }

    #[test]
    fn counter_tree_round_trips_through_cost() {
        let report = run_bench(&micro_config()).unwrap();
        let entry = report
            .entries
            .iter()
            .find(|e| e.plan.is_some())
            .expect("a GMDJ entry");
        let tree = entry.plan.as_ref().unwrap();
        let parsed = parse_json(&counter_tree_json(tree)).unwrap();
        let back = plan_from_counter_tree(&parsed).unwrap();
        let direct = cost::observed_cost(tree).total();
        let via_json = cost::observed_cost(&back).total();
        assert!((direct - via_json).abs() < 1e-9, "{direct} vs {via_json}");
        assert_eq!(entry.predicted_cost.unwrap(), direct);
    }
}
