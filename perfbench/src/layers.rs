//! The traced run: the `GmdjOptimized` path rebuilt from the layers'
//! public calls, each timed on its own, read together with the spans and
//! counters the engine records.
//!
//! Per query it runs `parse_query`, `plan_cache::cached_translate`,
//! `optimize_with`, `cost::estimate` and `exec::execute`, each timed, with
//! tracing off; then `exec::execute` again under a `CollectingSink` for the
//! spans and counters; then the normal entry point on the same query. The
//! entry point's wall-clock minus the separately timed layers is the
//! unattributed residual: what the strategy entry adds (progress ticket,
//! flight-recorder tee, metrics).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gmdj_core::cost;
use gmdj_core::eval::{EvalStats, ProbeStrategy};
use gmdj_core::exec::{execute, ExecContext, MemoryCatalog};
use gmdj_core::optimize::{optimize_with, OptFlags};
use gmdj_core::runtime::{ExecMode, PlanNodeStats};
use gmdj_core::shared::SharedScanPool;
use gmdj_core::trace::{CollectingSink, TraceEvent};
use gmdj_core::translate::subquery_to_gmdj;
use gmdj_engine::plan_cache;
use gmdj_engine::strategy::StrategyStats;
use gmdj_relation::error::{Error, Result};

use crate::check::References;
use crate::load::{drive, peak_memory, Length};
use crate::mix::{Client, Query, Shape, Workload};
use crate::report::{mean, median, Metric};

/// How far the separately timed layers may differ from the entry point's
/// wall-clock, as a share of it, before the traced run fails. The two are
/// separate runs of each query, so at paper size they differ by the
/// host's noise; a layer the trace misses or counts twice moves the share
/// further.
const COVERAGE_TOLERANCE: f64 = 0.15;

/// A detail pass as its span recorded it.
#[derive(Debug, Clone, Copy)]
struct Pass {
    start: u64,
    end: u64,
    queries: u64,
    detail_rows: u64,
}

/// Everything measured for one traced query. Times are nanoseconds.
#[derive(Debug)]
struct Record {
    shape: Shape,
    parse: u64,
    /// The `cached_translate` call as the query met the cache.
    plan: u64,
    hit: bool,
    /// A `cached_translate` that hits.
    lookup: u64,
    /// A fresh translation: what a miss adds.
    translate: u64,
    optimize: u64,
    estimate: u64,
    /// `execute` with tracing off.
    execute: u64,
    /// `execute` under a `CollectingSink`.
    traced_execute: u64,
    /// The normal entry point, untraced, on the same query.
    entry: u64,
    /// Summed `gmdj.eval` spans.
    eval: u64,
    stats: EvalStats,
    morsels: u64,
    worker_crit: u64,
    worker_sum: u64,
    /// `gmdj.eval` span bounds, for matching the shared pass that served it.
    eval_span: (u64, u64),
    /// Standalone: this query's own pass (`gmdj.partition` spans) and the
    /// time from `gmdj.eval` start to the pass start.
    own_pass: Option<(u64, u64)>,
    /// Pooled: the `gmdj.shared_scan` spans this query's thread led.
    led: Vec<Pass>,
}

impl Record {
    /// The layers the entry point runs, timed separately with tracing off.
    fn layers(&self) -> u64 {
        self.parse + self.lookup + self.optimize + self.estimate + self.execute
    }

    fn unattributed(&self) -> f64 {
        self.entry as f64 - self.layers() as f64
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, ns(t.elapsed()))
}

fn sum_workers(node: &PlanNodeStats) -> (u64, u64) {
    node.children.iter().map(sum_workers).fold(
        (node.worker_wall_max_ns, node.worker_wall_sum_ns),
        |a, b| (a.0 + b.0, a.1 + b.1),
    )
}

fn pass_of(e: &TraceEvent) -> Pass {
    Pass {
        start: e.start_ns,
        end: e.start_ns + e.dur_ns,
        queries: e.field("queries").unwrap_or(1),
        detail_rows: e.field("detail_rows").unwrap_or(0),
    }
}

fn traced_query(
    q: &Query,
    catalog: &MemoryCatalog,
    w: &Workload,
    pool: Option<&Arc<SharedScanPool>>,
    refs: &References,
    cache_lock: &Mutex<()>,
) -> Result<Record> {
    let policy = w.policy.with_probe(ProbeStrategy::Auto);
    let context = |ctx: ExecContext| match pool {
        Some(pool) => ctx.with_shared(pool.clone()),
        None => ctx,
    };

    // The query as it meets the plan cache, then one untimed run so that
    // every timed run below starts equally warm. Misses are told apart by
    // the cache's own counter; the lock keeps the other client's lookups
    // here out of the difference.
    let query = gmdj_sql::parse_query(&q.sql)?;
    let ((plan, hit), plan_ns) = {
        let _guard = cache_lock.lock().expect("cache lock poisoned");
        timed(|| {
            let misses = plan_cache::stats().misses;
            let plan = plan_cache::cached_translate(&query, catalog);
            (plan, plan_cache::stats().misses == misses)
        })
    };
    let warm = optimize_with(&plan?, &OptFlags::default());
    execute(
        &warm,
        catalog,
        &mut context(ExecContext::with_policy(policy)),
    )?;
    let (_, translate) = timed(|| subquery_to_gmdj(&query, catalog));

    // The layers, each timed, with tracing off.
    let (query, parse) = timed(|| gmdj_sql::parse_query(&q.sql));
    let query = query?;
    let (plan, lookup) = timed(|| plan_cache::cached_translate(&query, catalog));
    let plan = plan?;
    let (plan, optimize) = timed(|| optimize_with(&plan, &OptFlags::default()));
    // The entry point ignores estimation errors; so does the trace.
    let (_, estimate) = timed(|| cost::estimate(&plan, catalog));
    let mut ctx = context(ExecContext::with_policy(policy));
    let (rel, execute_ns) = timed(|| execute(&plan, catalog, &mut ctx));
    let rel = rel?;
    if !refs.matches(&q.sql, &rel) {
        return Err(Error::invalid("answer differs from the reference"));
    }
    let untraced_stats = ctx.stats;

    // The same plan again, traced.
    let sink = Arc::new(CollectingSink::new());
    let mut ctx = context(ExecContext::with_policy(policy).with_sink(sink.clone()));
    let (rel, traced_execute) = timed(|| execute(&plan, catalog, &mut ctx));
    if !refs.matches(&q.sql, &rel?) {
        return Err(Error::invalid("traced answer differs from the reference"));
    }

    let (entry, entry_ns) = timed(|| crate::run_entry(&q.sql, catalog, w, pool));
    let entry = entry?;
    if !refs.matches(&q.sql, &entry.relation) {
        return Err(Error::invalid(
            "entry-point answer differs from the reference",
        ));
    }
    // Self-check: tracing and the entry point change no work counter.
    if ctx.stats != untraced_stats
        || !matches!(entry.stats, StrategyStats::Gmdj(s) if s == ctx.stats)
    {
        return Err(Error::invalid(format!(
            "counters differ: traced {:?}, untraced {untraced_stats:?}, entry {:?}",
            ctx.stats, entry.stats
        )));
    }

    let events = sink.take();
    let evals: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "gmdj.eval").collect();
    let eval: u64 = evals.iter().map(|e| e.dur_ns).sum();
    // Self-check: the engine's spans nest inside the timed `execute` call.
    if eval > traced_execute {
        return Err(Error::invalid("gmdj.eval spans exceed the execute call"));
    }
    let eval_span = (
        evals.iter().map(|e| e.start_ns).min().unwrap_or(0),
        evals
            .iter()
            .map(|e| e.start_ns + e.dur_ns)
            .max()
            .unwrap_or(0),
    );
    let partitions: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name == "gmdj.partition")
        .collect();
    let own_pass = partitions.first().map(|first| {
        (
            partitions.iter().map(|e| e.dur_ns).sum(),
            first.start_ns.saturating_sub(eval_span.0),
        )
    });
    let led = events
        .iter()
        .filter(|e| e.name == "gmdj.shared_scan")
        .map(pass_of)
        .collect();

    let tree = ctx
        .plan_stats
        .as_ref()
        .expect("execute records a plan tree");
    let (mut worker_crit, mut worker_sum) = sum_workers(tree);
    if worker_sum == 0 {
        // The sequential evaluator scans on the calling thread: its
        // partition passes are the one worker.
        worker_crit = own_pass.map_or(0, |p| p.0);
        worker_sum = worker_crit;
    }
    Ok(Record {
        shape: q.shape,
        parse,
        plan: plan_ns,
        hit,
        lookup,
        translate,
        optimize,
        estimate,
        execute: execute_ns,
        traced_execute,
        entry: entry_ns,
        eval,
        stats: ctx.stats,
        morsels: tree.total_kernel().morsels,
        worker_crit,
        worker_sum,
        eval_span,
        own_pass,
        led,
    })
}

/// Set-up measurements the traced run reports, medians over set-ups.
pub struct SetupLayers {
    pub datagen_s: f64,
    pub row_view_ms: f64,
    pub row_view_mb: f64,
}

/// Run the traced mix for `seconds` and report the per-layer metrics.
/// Returns the metrics plus attempted and failed counts.
pub fn run(
    w: &Workload,
    clients: &[Client],
    catalog: &MemoryCatalog,
    pool: Option<&Arc<SharedScanPool>>,
    refs: &References,
    seconds: f64,
    setup: &SetupLayers,
) -> (Vec<Metric>, u64, u64) {
    let cache_lock = Mutex::new(());
    let (samples, _) = drive(
        clients,
        Length::Seconds(seconds),
        || {},
        |q| match traced_query(q, catalog, w, pool, refs, &cache_lock) {
            Ok(r) => (true, Some(r)),
            Err(e) => {
                eprintln!("traced query failed: {e}: {}", q.sql);
                (false, None)
            }
        },
    );
    let traced_queries = samples.len();
    let records: Vec<Record> = samples.into_iter().filter_map(|(_, r)| r).collect();
    // Peak memory of one more cycle, on the normal entry point.
    let (peak_mb, memory_pass) = peak_memory(clients, |q: &Query| {
        let ok = crate::run_entry(&q.sql, catalog, w, pool)
            .is_ok_and(|r| refs.matches(&q.sql, &r.relation));
        (ok, ())
    });
    let attempted = (traced_queries + memory_pass.len()) as u64;
    let failed = (traced_queries - records.len()) as u64
        + memory_pass.iter().filter(|(s, _)| !s.ok).count() as u64;

    let us = |f: &dyn Fn(&Record) -> f64| mean(&records.iter().map(f).collect::<Vec<_>>()) / 1e3;
    let all_passes: Vec<Pass> = records.iter().flat_map(|r| r.led.iter().copied()).collect();
    let (queries_per_pass, pass_ms, wait_ms) = if pool.is_some() {
        // Each query waited from its `gmdj.eval` start until the start of
        // the pass that served it: the latest pass over its detail table
        // that ran inside its `gmdj.eval` span.
        let waits: Vec<f64> = records
            .iter()
            .filter_map(|r| {
                let rows = r.shape.detail_rows(w) as u64;
                all_passes
                    .iter()
                    .filter(|p| {
                        p.detail_rows == rows && p.start >= r.eval_span.0 && p.end <= r.eval_span.1
                    })
                    .max_by_key(|p| p.end)
                    .map(|p| (p.start - r.eval_span.0) as f64)
            })
            .collect();
        let passes = all_passes.len().max(1) as f64;
        (
            all_passes.iter().map(|p| p.queries).sum::<u64>() as f64 / passes,
            all_passes.iter().map(|p| p.end - p.start).sum::<u64>() as f64 / passes / 1e6,
            mean(&waits) / 1e6,
        )
    } else {
        // Standalone evaluation is a pass with a batch of one.
        let own: Vec<(u64, u64)> = records.iter().filter_map(|r| r.own_pass).collect();
        (
            1.0,
            mean(&own.iter().map(|p| p.0 as f64).collect::<Vec<_>>()) / 1e6,
            mean(&own.iter().map(|p| p.1 as f64).collect::<Vec<_>>()) / 1e6,
        )
    };
    // Self-check: the layers timed one by one account for the normal
    // entry point, run separately on the same queries: neither missing a
    // large part of it nor adding up to more than it. Summed over the run,
    // so that one slow run of a long query does not decide it.
    let entries: u64 = records.iter().map(|r| r.entry).sum();
    let coverage = records.iter().map(Record::layers).sum::<u64>() as f64 / entries.max(1) as f64;
    println!("timed layers cover {coverage:.4} of the entry point's wall-clock");
    let failed = if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        eprintln!(
            "timed layers cover {coverage:.4} of the entry point, outside 1 ± {COVERAGE_TOLERANCE}"
        );
        attempted
    } else {
        failed
    };
    let hits = records.iter().filter(|r| r.hit).count();
    let untraced: u64 = records.iter().map(Record::layers).sum();
    let traced: u64 = records
        .iter()
        .map(|r| r.layers() - r.execute + r.traced_execute)
        .sum();
    // At paper size the residual is the difference of two runs of a long
    // query; the median keeps one slow run from deciding it.
    let unattributed_us =
        median(&records.iter().map(Record::unattributed).collect::<Vec<_>>()) / 1e3;

    let mut metrics = vec![
        Metric::new("sql.parse_us", us(&|r| r.parse as f64), "us"),
        Metric::new(
            "plan_cache.hit_ratio",
            hits as f64 / records.len().max(1) as f64,
            "ratio",
        ),
        Metric::new("plan_cache.lookup_us", us(&|r| r.lookup as f64), "us"),
        Metric::new("translate.us", us(&|r| r.translate as f64), "us"),
        Metric::new("optimize.us", us(&|r| r.optimize as f64), "us"),
        Metric::new("cost.estimate_us", us(&|r| r.estimate as f64), "us"),
        Metric::new("query.unattributed_us", unattributed_us, "us"),
        Metric::new(
            "exec.ops_ms",
            us(&|r| r.traced_execute as f64 - r.eval as f64) / 1e3,
            "ms",
        ),
        Metric::new("shared.queries_per_pass", queries_per_pass, "count"),
        Metric::new("shared.pass_ms", pass_ms, "ms"),
        Metric::new("shared.wait_ms", wait_ms, "ms"),
        Metric::new("relation.row_view_ms", setup.row_view_ms, "ms"),
        Metric::new("relation.row_view_mb", setup.row_view_mb, "MB"),
        Metric::new("datagen.s", setup.datagen_s, "s"),
        Metric::new("process.peak_rss_mb", peak_mb, "MB"),
        Metric::new(
            "trace.overhead_ratio",
            traced as f64 / untraced.max(1) as f64,
            "ratio",
        ),
    ];

    let threads = match w.policy.mode {
        ExecMode::Parallel { threads } => threads as f64,
        _ => 1.0,
    };
    for shape in Shape::ALL {
        let rs: Vec<&Record> = records.iter().filter(|r| r.shape == shape).collect();
        let total = |f: &dyn Fn(&Record) -> u64| rs.iter().map(|r| f(r)).sum::<u64>() as f64;
        let per_query = |f: &dyn Fn(&Record) -> u64| total(f) / rs.len().max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let name = |m: &str| format!("{}.{m}", shape.name());
        metrics.extend([
            Metric::new(
                name("eval.ns_per_detail_row"),
                ratio(total(&|r| r.eval), total(&|r| r.stats.detail_scanned)),
                "ns",
            ),
            Metric::new(
                name("eval.detail_scanned"),
                per_query(&|r| r.stats.detail_scanned),
                "count",
            ),
            Metric::new(
                name("eval.row_page_reads"),
                per_query(&|r| r.stats.row_page_reads),
                "count",
            ),
            Metric::new(
                name("eval.col_chunk_reads"),
                per_query(&|r| r.stats.col_chunk_reads),
                "count",
            ),
            Metric::new(
                name("eval.probe_candidates"),
                per_query(&|r| r.stats.probe_candidates),
                "count",
            ),
            Metric::new(
                name("eval.theta_evals"),
                per_query(&|r| r.stats.theta_evals),
                "count",
            ),
            Metric::new(
                name("eval.agg_updates"),
                per_query(&|r| r.stats.agg_updates),
                "count",
            ),
            Metric::new(
                name("eval.useful_ratio"),
                ratio(
                    total(&|r| r.stats.agg_updates),
                    total(&|r| r.stats.probe_candidates),
                ),
                "ratio",
            ),
            Metric::new(
                name("completion.dead_early"),
                per_query(&|r| r.stats.dead_early),
                "count",
            ),
            Metric::new(
                name("completion.fallbacks"),
                per_query(&|r| r.stats.completion_fallbacks),
                "count",
            ),
            Metric::new(
                name("runtime.worker_crit_ms"),
                per_query(&|r| r.worker_crit) / 1e6,
                "ms",
            ),
            Metric::new(
                name("runtime.worker_sum_ms"),
                per_query(&|r| r.worker_sum) / 1e6,
                "ms",
            ),
            Metric::new(
                name("runtime.par_efficiency"),
                ratio(total(&|r| r.worker_sum), threads * total(&|r| r.eval)),
                "ratio",
            ),
            Metric::new(
                name("runtime.serial_ms"),
                (total(&|r| r.eval) - total(&|r| r.worker_crit)) / rs.len().max(1) as f64 / 1e6,
                "ms",
            ),
            Metric::new(name("kernel.morsels"), per_query(&|r| r.morsels), "count"),
        ]);
    }

    let front_end = us(&|r| (r.parse + r.plan + r.optimize + r.estimate) as f64) + unattributed_us;
    let entry_us = us(&|r| r.entry as f64);
    println!(
        "front-end share {:.4} ({front_end:.1} us of {entry_us:.1} us per query)",
        front_end / entry_us.max(f64::MIN_POSITIVE)
    );
    (metrics, attempted, failed)
}
