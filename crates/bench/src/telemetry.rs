//! Benchmark telemetry: recorded perf trajectories with noise-free
//! regression gates.
//!
//! `repro bench` executes the Figure 2–5 workloads plus an ablation grid
//! at fixed seeds and scales under the execution policies, and records
//! two kinds of signal per (workload, size, strategy, policy) cell:
//!
//! * **wall-clock** — warmup runs followed by repeated measurements,
//!   summarized as a trimmed mean (min and max dropped). Machine-bound,
//!   noisy, therefore only *warn*-gated against the baseline;
//! * **deterministic counters** — the quantities the evaluator already
//!   counts exactly ([`EvalStats`] work,
//!   [`NetworkStats`] traffic,
//!   table rows scanned, relational-operator row flow, per-plan-node
//!   invocations). Same seed ⇒ same bytes, so any drift against
//!   `bench/baseline.json` is a real plan-quality change and **hard-fails**
//!   the gate. The runner additionally asserts the counters are identical
//!   across its own repetitions, so a nondeterministic counter can never
//!   be recorded in the first place.
//!
//! The report is one `BENCH_<run>.json` document. Its only definition
//! is the checked-in `schemas/bench.schema.json`: [`validate_bench`] runs
//! that file through the profile subsystem's schema interpreter
//! ([`crate::profile::Schema`], over [`crate::profile::parse_json`]) and
//! adds the `concurrent` section's cross-field invariants.
//! [`compare_reports`] implements the two-tier gate and, for a drifted
//! entry, diffs the recorded plan-node counter trees pairwise — naming
//! the regressed node and its cost-model figure
//! ([`gmdj_core::cost::observed_cost`]) before and after.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gmdj_core::cost;
use gmdj_core::distributed::NetworkStats;
use gmdj_core::eval::{EvalStats, ProbeStrategy};
use gmdj_core::metrics::{self, Histogram};
use gmdj_core::runtime::{ExecPolicy, PlanNodeStats};
use gmdj_core::shared::{SharedScanConfig, SharedScanPool};
use gmdj_engine::strategy::{run_with_policy, run_with_policy_pooled, RunResult, Strategy};
use gmdj_relation::error::{Error, Result};

use crate::profile::Json;
use crate::{lineup, pair_cap, size_label, sizes, workload, FigureId};
use gmdj_datagen::workloads::Workload;

/// Schema version written to and required from bench documents.
/// Version 2 added the page-accounting counters (`col_chunk_reads`,
/// `row_page_reads`) to the gated counter set — entry rollups and
/// per-plan-node trees both — and the `+m<N>` morsel-size component to
/// policy labels.
pub const BENCH_VERSION: u64 = 2;

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

/// Wall-clock summary of one entry's repetitions.
#[derive(Debug, Clone, Copy)]
pub struct WallStats {
    /// Number of measured repetitions (warmups excluded).
    pub reps: u64,
    /// Mean of the repetitions with min and max dropped (plain mean when
    /// fewer than three repetitions), microseconds.
    pub trimmed_mean_us: u64,
    pub min_us: u64,
    pub max_us: u64,
}

fn wall_stats(mut samples: Vec<u64>) -> WallStats {
    samples.sort_unstable();
    let reps = samples.len() as u64;
    let (min_us, max_us) = (samples[0], samples[samples.len() - 1]);
    let trimmed: &[u64] = if samples.len() >= 3 {
        &samples[1..samples.len() - 1]
    } else {
        &samples
    };
    WallStats {
        reps,
        trimmed_mean_us: trimmed.iter().sum::<u64>() / trimmed.len() as u64,
        min_us,
        max_us,
    }
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
    /// Whether the counter section of this entry is hard-gated against
    /// the baseline.
    pub gated: bool,
    pub wall: WallStats,
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
             \"gated\":{},\"wall\":{{\"max_us\":{},\"min_us\":{},\"reps\":{},\"trimmed_mean_us\":{}}},\
             \"counters\":{},\"predicted_cost\":{},\"plan\":{}}}",
            gmdj_core::trace::json_escape(&self.group),
            gmdj_core::trace::json_escape(&self.label),
            self.strategy,
            self.policy,
            self.gated,
            self.wall.max_us,
            self.wall.min_us,
            self.wall.reps,
            self.wall.trimmed_mean_us,
            self.counters.to_json(),
            predicted,
            plan,
        )
    }
}

/// Stable, filename-safe label for an execution policy (delegates to
/// [`ExecPolicy::label`], which the progress registry also uses).
pub fn policy_label(policy: &ExecPolicy) -> String {
    policy.label()
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
    /// Unmeasured warmup runs per cell.
    pub warmup: u32,
    /// Measured repetitions per cell.
    pub reps: u32,
    /// Include the ablation grid.
    pub ablations: bool,
    /// Run the figure grid's first size point also under the parallel and
    /// distributed policies (GMDJ strategies only).
    pub cross_policy: bool,
    /// Mode tag written to the report (`quick` or `full`).
    pub quick: bool,
    /// Run the grid through the vectorized detail-scan kernels (default)
    /// or force the row path everywhere. The kernels are counter-exact,
    /// so both settings must pass the same baseline — the flag is
    /// recorded in the report header informationally and never enters an
    /// entry's identity key.
    pub vectorized: bool,
    /// Override the parallel detail scan's morsel size (rows per queue
    /// pull) on the figure-grid policies. Pure scheduling: every gated
    /// counter — page accounting included — is identical for any setting.
    /// Unlike `vectorized` the label IS part of the entry key (`+mN`), so
    /// an override records a new trajectory rather than gating against
    /// the default baseline. The morsel-size ablation group pins its own
    /// values and ignores this.
    pub morsel_size: Option<usize>,
    /// Run the distributed-policy cells over real socket-backed loopback
    /// sites instead of the in-process transport. Like `vectorized`,
    /// this is a physical-path choice that must not move any gated
    /// counter (the sites run the identical evaluation; only the
    /// ungated byte counters and wall-clock change), so it is recorded
    /// in the header and the run id but never enters an entry's key —
    /// a real-sites run gates against the same baseline.
    pub real_sites: bool,
    /// `Some(n)`: additionally run the concurrent-load group — `n`
    /// identical GMDJ queries submitted serially (standalone) and then
    /// concurrently through a [`SharedScanPool`], recording per-query
    /// latency quantiles, queries/sec, the speedup, and the shared-scan
    /// pass counters. The grid entries are untouched (sharing engages
    /// only on the pooled leg), so the existing baseline entries stay
    /// byte-identical; the section gets its own blessed record.
    pub concurrent: Option<usize>,
}

impl BenchConfig {
    /// The CI configuration: every figure, tiny scale, short repetitions.
    /// This is the configuration `bench/baseline.json` is recorded with.
    pub fn quick(seed: u64) -> Self {
        BenchConfig {
            figures: FigureId::all().to_vec(),
            scale: 0.004,
            seed,
            warmup: 1,
            reps: 3,
            ablations: true,
            cross_policy: true,
            quick: true,
            vectorized: true,
            morsel_size: None,
            real_sites: false,
            concurrent: None,
        }
    }

    /// The local trajectory-recording configuration.
    pub fn full(seed: u64) -> Self {
        BenchConfig {
            scale: 0.05,
            warmup: 1,
            reps: 5,
            quick: false,
            ..Self::quick(seed)
        }
    }

    /// Deterministic run identifier: `BENCH_<run_id>.json`. Row-path and
    /// real-sites runs get distinct ids so those legs never overwrite
    /// the canonical recording.
    pub fn run_id(&self) -> String {
        format!(
            "{}_seed{}{}{}{}",
            if self.quick {
                "quick".into()
            } else {
                format!("s{}", self.scale)
            },
            self.seed,
            if self.vectorized { "" } else { "_rowpath" },
            if self.real_sites { "_realsites" } else { "" },
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
    /// Process-level `query_latency_us` quantiles from the global
    /// [`metrics`] registry `(count, p50, p95, p99)` — wall-bound, not
    /// gated.
    pub latency: Option<(u64, u64, u64, u64)>,
    /// The concurrent-load group ([`BenchConfig::concurrent`]).
    pub concurrent: Option<ConcurrentReport>,
}

impl BenchReport {
    /// Render the full document (`BENCH_<run>.json`).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"version\":{},\"run\":\"{}\",\"mode\":\"{}\",\"scale\":{},\"seed\":{},\
             \"warmup\":{},\"reps\":{},\"vectorized\":{},\"real_sites\":{},\"entries\":[",
            BENCH_VERSION,
            self.config.run_id(),
            if self.config.quick { "quick" } else { "full" },
            self.config.scale,
            self.config.seed,
            self.config.warmup,
            self.config.reps,
            self.config.vectorized,
            self.config.real_sites,
        );
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("],\"latency\":");
        match self.latency {
            Some((count, p50, p95, p99)) => out.push_str(&format!(
                "{{\"count\":{count},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}"
            )),
            None => out.push_str("null"),
        }
        if let Some(conc) = &self.concurrent {
            out.push_str(",\"concurrent\":");
            out.push_str(&conc.to_json());
        }
        out.push('}');
        out
    }
}

/// The concurrent-load group: `queries` identical GMDJs over one detail
/// table, measured submitted serially (standalone runs, back to back) and
/// then concurrently through a [`SharedScanPool`] where they coalesce
/// into shared passes. The per-query work counters are identical between
/// the legs (logical accounting — that is the correctness claim) and
/// deterministic, so they gate; the pass counters prove the physical
/// amortization (detail chunks paid once per pass, not once per query);
/// wall-clock, latency quantiles, queries/sec and the speedup are
/// machine-bound and informational.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Queries per wave (`--concurrent`'s N).
    pub queries: usize,
    /// Measured waves.
    pub reps: u32,
    pub group: String,
    pub label: String,
    pub strategy: &'static str,
    pub policy: String,
    /// Per-query gated counters — asserted identical across every query
    /// of both legs and every rep before being recorded.
    pub counters: Counters,
    /// `shared_scan_passes_total` delta over the measured waves
    /// (deterministic: one pass per plan GMDJ node per wave).
    pub shared_scan_passes: u64,
    /// `shared_scan_queries_served_total` delta — `queries ×` the pass
    /// count; the `passes < served` gap IS the shared work.
    pub shared_scan_queries_served: u64,
    /// Whole-wave wall-clock, serial leg (N standalone runs back to
    /// back).
    pub serial_wall: WallStats,
    /// Whole-wave wall-clock, pooled leg (N concurrent submissions).
    pub shared_wall: WallStats,
    /// Per-query latency `(p50, p95, p99)` µs, serial leg.
    pub serial_latency_us: (u64, u64, u64),
    /// Per-query latency `(p50, p95, p99)` µs, pooled leg.
    pub shared_latency_us: (u64, u64, u64),
    /// Queries per second from the trimmed-mean wave wall-clock.
    pub serial_qps: f64,
    /// Queries per second from the trimmed-mean wave wall-clock.
    pub shared_qps: f64,
    /// `shared_qps / serial_qps`.
    pub speedup: f64,
}

impl ConcurrentReport {
    /// Render the `"concurrent"` report section.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queries\":{},\"reps\":{},\"group\":\"{}\",\"label\":\"{}\",\
             \"strategy\":\"{}\",\"policy\":\"{}\",\"counters\":{},\
             \"shared_scan_passes\":{},\"shared_scan_queries_served\":{},\
             \"serial_wall\":{{\"max_us\":{},\"min_us\":{},\"reps\":{},\"trimmed_mean_us\":{}}},\
             \"shared_wall\":{{\"max_us\":{},\"min_us\":{},\"reps\":{},\"trimmed_mean_us\":{}}},\
             \"serial_latency\":{{\"p50\":{},\"p95\":{},\"p99\":{}}},\
             \"shared_latency\":{{\"p50\":{},\"p95\":{},\"p99\":{}}},\
             \"serial_qps\":{:.1},\"shared_qps\":{:.1},\"speedup\":{:.3}}}",
            self.queries,
            self.reps,
            gmdj_core::trace::json_escape(&self.group),
            gmdj_core::trace::json_escape(&self.label),
            self.strategy,
            self.policy,
            self.counters.to_json(),
            self.shared_scan_passes,
            self.shared_scan_queries_served,
            self.serial_wall.max_us,
            self.serial_wall.min_us,
            self.serial_wall.reps,
            self.serial_wall.trimmed_mean_us,
            self.shared_wall.max_us,
            self.shared_wall.min_us,
            self.shared_wall.reps,
            self.shared_wall.trimmed_mean_us,
            self.serial_latency_us.0,
            self.serial_latency_us.1,
            self.serial_latency_us.2,
            self.shared_latency_us.0,
            self.shared_latency_us.1,
            self.shared_latency_us.2,
            self.serial_qps,
            self.shared_qps,
            self.speedup,
        )
    }
}

/// Measure one cell: warmups, then `reps` measured runs. The counters of
/// every repetition must agree exactly — a mismatch means a counter is
/// nondeterministic and must not be recorded, so it is an error.
fn measure(
    w: &Workload,
    strategy: Strategy,
    policy: ExecPolicy,
    cfg: &BenchConfig,
    group: &str,
    label: &str,
    gated: bool,
) -> Result<BenchEntry> {
    for _ in 0..cfg.warmup {
        run_with_policy(&w.query, &w.catalog, strategy, policy)?;
    }
    let mut walls: Vec<u64> = Vec::with_capacity(cfg.reps as usize);
    let mut recorded: Option<(Counters, Option<PlanNodeStats>)> = None;
    for _ in 0..cfg.reps.max(1) {
        let result = run_with_policy(&w.query, &w.catalog, strategy, policy)?;
        walls.push(result.wall.as_micros() as u64);
        let counters = Counters::from_run(&result);
        match &recorded {
            None => recorded = Some((counters, result.plan_stats)),
            Some((prev, _)) if *prev != counters => {
                return Err(Error::invalid(format!(
                    "nondeterministic counters for {group} {label} {} {}: {prev:?} vs {counters:?}",
                    strategy.label(),
                    policy_label(&policy),
                )));
            }
            Some(_) => {}
        }
    }
    let (counters, plan) = recorded.expect("at least one rep");
    let predicted_cost = plan.as_ref().map(|t| cost::observed_cost(t).total());
    Ok(BenchEntry {
        group: group.to_string(),
        label: label.to_string(),
        strategy: strategy.label(),
        policy: policy_label(&policy),
        gated,
        wall: wall_stats(walls),
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
/// every entry is gated — the runner has already proven rep-to-rep
/// counter equality, and chunked parallel scans split by fixed ranges, so
/// counters do not depend on scheduling.
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport> {
    // Every grid policy inherits the run's vectorization setting and
    // morsel-size override; the dedicated ablation groups below pin
    // their own values per entry.
    let vec_policy = |p: ExecPolicy| {
        let p = p
            .with_vectorized(cfg.vectorized)
            .with_real_sites(cfg.real_sites);
        match cfg.morsel_size {
            Some(m) => p.with_morsel_size(Some(m)),
            None => p,
        }
    };
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
                    vec_policy(ExecPolicy::sequential()),
                    cfg,
                    group,
                    &label,
                    true,
                )?);
                // Cross-policy coverage on the first size point: the
                // policies only affect strategies that execute GMDJ plans.
                let has_plan = entries.last().map(|e| e.plan.is_some()).unwrap_or(false);
                if cfg.cross_policy && pi == 0 && has_plan {
                    for policy in [ExecPolicy::parallel(2), ExecPolicy::distributed(2)] {
                        entries.push(measure(
                            &w,
                            strategy,
                            vec_policy(policy),
                            cfg,
                            group,
                            &label,
                            true,
                        )?);
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
    let latency = metrics::global().histogram("query_latency_us").map(|h| {
        let (p50, p95, p99) = h.quantiles();
        (h.count(), p50, p95, p99)
    });
    Ok(BenchReport {
        config: cfg.clone(),
        entries,
        latency,
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

/// The concurrent-load group: `n` identical GMDJ queries over one detail
/// table, measured (a) submitted serially as standalone runs and (b)
/// submitted concurrently through a [`SharedScanPool`] sized to coalesce
/// the whole wave into shared passes. Hard-errors if any query's gated
/// counters differ between legs, if the waves did not fully coalesce
/// (`served != passes × n`), or if sharing paid no passes at all.
fn run_concurrent(cfg: &BenchConfig, n: usize) -> Result<ConcurrentReport> {
    let n = n.max(1);
    // The largest Fig2 point at a boosted scale: a single-detail-table
    // GMDJ plan where the detail scan dominates — the workload the
    // sharing claim is about. The grid's quick tier keeps relations tiny
    // so 94 entries stay fast; here one workload is reused across every
    // wave, so it can afford to be large enough that per-wave fixed costs
    // (thread spawns, per-query prepare) do not swamp the shared scan.
    let conc_scale = (cfg.scale * 25.0).min(1.0);
    let (outer, inner) = *sizes(FigureId::Fig2, conc_scale)
        .last()
        .expect("fig2 has size points");
    let w = workload(FigureId::Fig2, outer, inner, cfg.seed);
    let label = size_label(FigureId::Fig2, outer, inner);
    let strategy = Strategy::GmdjOptimized;
    let policy = {
        let p = ExecPolicy::parallel(2).with_vectorized(cfg.vectorized);
        match cfg.morsel_size {
            Some(m) => p.with_morsel_size(Some(m)),
            None => p,
        }
    };
    // A generous window plus target_batch = n: the barrier-released wave
    // coalesces completely, so pass counts are closed-form.
    let pool = Arc::new(SharedScanPool::new(SharedScanConfig {
        window: Duration::from_millis(500),
        target_batch: n,
        threads: 4,
        morsel_rows: gmdj_core::runtime::DEFAULT_MORSEL_ROWS,
    }));
    let reps = cfg.reps.max(1);
    let mut recorded: Option<Counters> = None;

    // Serial leg: the same n queries, standalone, back to back.
    for _ in 0..cfg.warmup {
        run_with_policy(&w.query, &w.catalog, strategy, policy)?;
    }
    let mut serial_hist = Histogram::default();
    let mut serial_walls: Vec<u64> = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..n {
            let r = run_with_policy(&w.query, &w.catalog, strategy, policy)?;
            serial_hist.observe(r.wall.as_micros() as u64);
            check_concurrent_counters(&mut recorded, Counters::from_run(&r), "serial")?;
        }
        serial_walls.push(t0.elapsed().as_micros() as u64);
    }

    // Pooled leg: one barrier-released wave of n submitter threads per
    // rep, all coalescing through the pool.
    let pooled_wave = |hist: Option<&mut Histogram>,
                       recorded: &mut Option<Counters>|
     -> Result<u64> {
        let barrier = Barrier::new(n);
        let t0 = Instant::now();
        let runs: Vec<Result<(RunResult, Duration)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let (w, pool, barrier, policy) = (&w, pool.clone(), &barrier, policy);
                    scope.spawn(move || -> Result<(RunResult, Duration)> {
                        barrier.wait();
                        let t = Instant::now();
                        let r =
                            run_with_policy_pooled(&w.query, &w.catalog, strategy, policy, pool)?;
                        Ok((r, t.elapsed()))
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
        let wave_us = t0.elapsed().as_micros() as u64;
        let mut hist = hist;
        for run in runs {
            let (r, latency) = run?;
            if let Some(h) = hist.as_deref_mut() {
                h.observe(latency.as_micros() as u64);
            }
            check_concurrent_counters(recorded, Counters::from_run(&r), "shared")?;
        }
        Ok(wave_us)
    };
    for _ in 0..cfg.warmup {
        pooled_wave(None, &mut recorded)?;
    }
    let m = metrics::global();
    let passes_before = m.counter("shared_scan_passes_total");
    let served_before = m.counter("shared_scan_queries_served_total");
    let mut shared_hist = Histogram::default();
    let mut shared_walls: Vec<u64> = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        shared_walls.push(pooled_wave(Some(&mut shared_hist), &mut recorded)?);
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

    let serial_wall = wall_stats(serial_walls);
    let shared_wall = wall_stats(shared_walls);
    let qps = |wall: &WallStats| {
        if wall.trimmed_mean_us == 0 {
            0.0
        } else {
            n as f64 * 1e6 / wall.trimmed_mean_us as f64
        }
    };
    let serial_qps = qps(&serial_wall);
    let shared_qps = qps(&shared_wall);
    Ok(ConcurrentReport {
        queries: n,
        reps,
        group: "concurrent/fig2".to_string(),
        label,
        strategy: strategy.label(),
        policy: policy_label(&policy),
        counters: recorded.expect("at least one measured query"),
        shared_scan_passes,
        shared_scan_queries_served,
        serial_latency_us: serial_hist.quantiles(),
        shared_latency_us: shared_hist.quantiles(),
        serial_wall,
        shared_wall,
        serial_qps,
        shared_qps,
        speedup: if serial_qps > 0.0 && shared_qps > 0.0 {
            shared_qps / serial_qps
        } else {
            0.0
        },
    })
}

/// The ablation grid: the DESIGN.md design choices measured in isolation
/// (mirroring `benches/ablations.rs`, but deterministic and recorded).
fn run_ablations(cfg: &BenchConfig) -> Result<Vec<BenchEntry>> {
    let vec_policy = |p: ExecPolicy| {
        p.with_vectorized(cfg.vectorized)
            .with_real_sites(cfg.real_sites)
    };
    let mut entries = Vec::new();
    let (outer2, inner2) = sizes(FigureId::Fig2, cfg.scale)[0];
    let fig2 = workload(FigureId::Fig2, outer2, inner2, cfg.seed);
    // Intrinsic probe indexing vs scanning the active base set.
    for (label, strategy) in [
        ("hash-probe", Strategy::GmdjBasic),
        ("active-scan", Strategy::GmdjBasicNoProbeIndex),
    ] {
        entries.push(measure(
            &fig2,
            strategy,
            vec_policy(ExecPolicy::sequential()),
            cfg,
            "ablation/probe",
            label,
            true,
        )?);
    }
    // Memory-partitioned evaluation: 2 and 4 base partitions.
    for parts in [2usize, 4] {
        let rows = outer2.div_ceil(parts);
        entries.push(measure(
            &fig2,
            Strategy::GmdjOptimized,
            vec_policy(ExecPolicy::sequential().with_partition_rows(Some(rows))),
            cfg,
            "ablation/partitions",
            &format!("partitions-{parts}"),
            true,
        )?);
    }
    // Thread scaling of the detail scan.
    for threads in [1usize, 2, 4] {
        let policy = if threads == 1 {
            ExecPolicy::sequential()
        } else {
            ExecPolicy::parallel(threads)
        };
        entries.push(measure(
            &fig2,
            Strategy::GmdjOptimized,
            vec_policy(policy),
            cfg,
            "ablation/threads",
            &format!("threads-{threads}"),
            true,
        )?);
    }
    // Morsel-size sweep of the parallel work queue. Morsel size is pure
    // scheduling, so every gated counter — page accounting included — is
    // identical down the sweep; the wall-clock columns (and the balanced
    // per-worker `gmdj.worker` spans behind them) are the ablation
    // signal. Small morsels rebalance skew, the whole-relation morsel
    // degenerates to one worker doing everything.
    for morsel in [64usize, 1024, 4096] {
        entries.push(measure(
            &fig2,
            Strategy::GmdjOptimized,
            vec_policy(ExecPolicy::parallel(2).with_morsel_size(Some(morsel))),
            cfg,
            "ablation/morsel_size",
            &format!("morsel-{morsel}"),
            true,
        )?);
    }
    // Vectorized detail-scan kernels vs the row path, per probe shape and
    // thread count. Unlike the rest of the grid (which inherits the run's
    // vectorization setting), these entries pin it per label so one report
    // carries the on/off contrast; the counters are identical by
    // construction — the wall-clock columns are the ablation signal.
    // GmdjBasic, not GmdjOptimized: a completion plan pins the sequential
    // scan to the row loop, which would blank the axis being measured.
    for (label, policy) in [
        ("seq-vec", ExecPolicy::sequential().with_vectorized(true)),
        ("seq-row", ExecPolicy::sequential().with_vectorized(false)),
        (
            "scan-vec",
            ExecPolicy::sequential()
                .with_probe(ProbeStrategy::ForceScan)
                .with_vectorized(true),
        ),
        (
            "scan-row",
            ExecPolicy::sequential()
                .with_probe(ProbeStrategy::ForceScan)
                .with_vectorized(false),
        ),
        ("par2-vec", ExecPolicy::parallel(2).with_vectorized(true)),
        ("par2-row", ExecPolicy::parallel(2).with_vectorized(false)),
    ] {
        entries.push(measure(
            &fig2,
            Strategy::GmdjBasic,
            policy,
            cfg,
            "ablation/vectorized",
            label,
            true,
        )?);
    }
    // Base-tuple completion on the Figure 4 ALL query.
    let (outer4, inner4) = sizes(FigureId::Fig4, cfg.scale)[0];
    let fig4 = workload(FigureId::Fig4, outer4, inner4, cfg.seed);
    for (label, strategy) in [
        ("without-completion", Strategy::GmdjBasic),
        ("with-completion", Strategy::GmdjOptimized),
    ] {
        entries.push(measure(
            &fig4,
            strategy,
            vec_policy(ExecPolicy::sequential()),
            cfg,
            "ablation/completion",
            label,
            true,
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
/// block per gated entry (key line, sorted counters, plan counter tree).
/// Two runs at the same configuration must render byte-identically — this
/// is the string the determinism test and the baseline gate compare.
pub fn counter_section(doc: &Json) -> std::result::Result<String, String> {
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing `entries` array")?;
    let mut out = String::new();
    for e in entries {
        if e.get("gated") != Some(&Json::Bool(true)) {
            continue;
        }
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
    /// Hard failures: configuration mismatches, gated entries missing
    /// from the current run, and counter drifts (with plan-node diffs).
    pub drifts: Vec<String>,
    /// Wall-clock regressions beyond the tolerance — advisory only.
    pub wall_warnings: Vec<String>,
    /// Entries present in the current run but absent from the baseline
    /// (e.g. a grown grid) — informational; re-bless to record them.
    pub new_entries: Vec<String>,
}

impl Comparison {
    /// Whether the hard (counter) gate failed.
    pub fn gate_failed(&self) -> bool {
        !self.drifts.is_empty()
    }

    /// Human-readable summary of the comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.drifts {
            out.push_str(&format!("DRIFT  {d}\n"));
        }
        for w in &self.wall_warnings {
            out.push_str(&format!("WARN   {w}\n"));
        }
        for n in &self.new_entries {
            out.push_str(&format!(
                "NEW    {n} (not in baseline; re-bless to record)\n"
            ));
        }
        if out.is_empty() {
            out.push_str("baseline check: no counter drift, no wall-clock warnings\n");
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

/// The two-tier baseline gate. `current` and `baseline` are parsed bench
/// documents (validate them first). Counter drift on any gated entry —
/// including a gated entry disappearing, or the recording configuration
/// changing — is a hard failure ([`Comparison::gate_failed`]); wall-clock
/// regressions beyond `wall_tolerance` (fractional, e.g. 0.25 = +25%)
/// only warn.
pub fn compare_reports(
    current: &Json,
    baseline: &Json,
    wall_tolerance: f64,
) -> std::result::Result<Comparison, String> {
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
        let gated = b.get("gated") == Some(&Json::Bool(true));
        let Some(c) = find(&key) else {
            if gated {
                cmp.drifts
                    .push(format!("{key}: gated entry missing from current run"));
            }
            continue;
        };
        if gated {
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
        // Wall-clock: advisory warn-gate on the trimmed mean.
        let b_wall = b
            .get("wall")
            .and_then(|w| w.get("trimmed_mean_us"))
            .and_then(Json::as_num);
        let c_wall = c
            .get("wall")
            .and_then(|w| w.get("trimmed_mean_us"))
            .and_then(Json::as_num);
        if let (Some(bw), Some(cw)) = (b_wall, c_wall) {
            if bw > 0.0 && cw > bw * (1.0 + wall_tolerance) {
                cmp.wall_warnings.push(format!(
                    "{key}: wall-clock {:.0}us -> {:.0}us (+{:.0}%, tolerance {:.0}%)",
                    bw,
                    cw,
                    100.0 * (cw - bw) / bw,
                    100.0 * wall_tolerance,
                ));
            }
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

/// Splice a freshly measured `concurrent` section into an existing
/// baseline document, leaving every other byte of the baseline —
/// including its wall-clock numbers — untouched. This is how
/// `repro bench --concurrent --bless` records the concurrent group
/// without re-blessing (and thus re-noising) the existing entries.
/// Returns `None` if the baseline does not end in a JSON object.
pub fn splice_concurrent(baseline_text: &str, section_json: &str) -> Option<String> {
    let trimmed = baseline_text.trim_end();
    let body = trimmed.strip_suffix('}')?;
    // Replace an already-present section (it is always the last member,
    // emitted after `latency`).
    let body = match body.rfind(",\"concurrent\":") {
        Some(i) => &body[..i],
        None => body,
    };
    Some(format!("{body},\"concurrent\":{section_json}}}"))
}

/// Per-entry wall-clock comparison of two bench documents (`repro bench
/// --compare A.json B.json`). Pairs entries by identity key and reports
/// the trimmed-mean delta of B relative to A, plus a geometric-mean
/// speedup over the paired entries — the report backing a measured
/// "vectorized vs row path" claim. Counter drift between the documents is
/// listed first: a wall-clock comparison across different plans is
/// answering a different question, and should say so.
pub fn compare_wall_clock(a: &Json, b: &Json) -> std::result::Result<String, String> {
    let entries_of = |doc: &'_ Json, which: &str| -> std::result::Result<Vec<Json>, String> {
        Ok(doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{which}: missing `entries` array"))?
            .to_vec())
    };
    let a_entries = entries_of(a, "A")?;
    let b_entries = entries_of(b, "B")?;
    let wall_of = |e: &Json| -> Option<f64> {
        e.get("wall")
            .and_then(|w| w.get("trimmed_mean_us"))
            .and_then(Json::as_num)
    };
    let mut out = String::new();
    let a_vec = a.get("vectorized").cloned();
    let b_vec = b.get("vectorized").cloned();
    if let (Some(Json::Bool(av)), Some(Json::Bool(bv))) = (&a_vec, &b_vec) {
        out.push_str(&format!("A vectorized={av}  B vectorized={bv}\n"));
    }
    let mut drift = 0usize;
    let mut ratios: Vec<f64> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    for ae in &a_entries {
        let key = entry_key(ae)?;
        let Some(be) = b_entries
            .iter()
            .find(|e| entry_key(e).as_deref() == Ok(key.as_str()))
        else {
            lines.push(format!("{key}: only in A"));
            continue;
        };
        if !changed_counters(&counter_keys(), ae, be).is_empty() {
            drift += 1;
        }
        let (Some(aw), Some(bw)) = (wall_of(ae), wall_of(be)) else {
            continue;
        };
        if aw > 0.0 && bw > 0.0 {
            ratios.push(aw / bw);
        }
        let delta = if aw > 0.0 {
            format!("{:+.1}%", 100.0 * (bw - aw) / aw)
        } else {
            "n/a".into()
        };
        lines.push(format!("{key}: A={aw:.0}us B={bw:.0}us ({delta})"));
    }
    if drift > 0 {
        out.push_str(&format!(
            "note: {drift} paired entr{} differ in gated counters — \
             the runs executed different plans\n",
            if drift == 1 { "y" } else { "ies" }
        ));
    }
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    if !ratios.is_empty() {
        let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        out.push_str(&format!(
            "geomean speedup A/B over {} paired entries: {geomean:.2}x \
             (>1 means B is faster)\n",
            ratios.len()
        ));
    }
    Ok(out)
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
            warmup: 0,
            reps: 1,
            ablations: false,
            cross_policy: false,
            quick: true,
            vectorized: true,
            morsel_size: None,
            real_sites: false,
            concurrent: None,
        }
    }

    #[test]
    fn wall_stats_trim_min_and_max() {
        let w = wall_stats(vec![100, 5, 9000]);
        assert_eq!(w.reps, 3);
        assert_eq!(w.min_us, 5);
        assert_eq!(w.max_us, 9000);
        assert_eq!(w.trimmed_mean_us, 100);
        let two = wall_stats(vec![10, 20]);
        assert_eq!(two.trimmed_mean_us, 15);
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(policy_label(&ExecPolicy::sequential()), "seq");
        assert_eq!(policy_label(&ExecPolicy::parallel(4)), "par4");
        assert_eq!(policy_label(&ExecPolicy::distributed(2)), "dist2");
        assert_eq!(
            policy_label(&ExecPolicy::sequential().with_partition_rows(Some(8))),
            "seq+part8"
        );
        assert_eq!(
            policy_label(&ExecPolicy::parallel(2).with_morsel_size(Some(64))),
            "par2+m64"
        );
        assert_eq!(
            policy_label(
                &ExecPolicy::parallel(4)
                    .with_partition_rows(Some(8))
                    .with_morsel_size(Some(1024))
            ),
            "par4+part8+m1024"
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
        assert_eq!((entry.len(), &sorted), (22, &entry));
        for path in [
            &["properties", "entries", "items", "properties", "counters"][..],
            &["properties", "concurrent", "properties", "counters"],
        ] {
            assert_eq!(schema_required(bench, path), entry, "{path:?}");
        }
        let node = node_counter_keys();
        assert_eq!(node.len(), 20);
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
