//! End-to-end and per-layer benchmark of the GMDJ engine.
//!
//! ```text
//! gmdj-perfbench --workload <paper_seq|paper_par2|pooled2|small_seq>
//!                --seed <n> --seconds <s> --trace <0|1> [--tiny] [--rev <git rev>]
//! ```
//!
//! Generates TPC-R-style data from the seed, sends the paper's four
//! subquery shapes as SQL text through the engine's public entry points,
//! checks every answer against a reference from another strategy, and
//! prints the metrics followed by a one-line JSON result. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` times each layer's public
//! calls instead and reports the per-layer metrics. `--tiny` shrinks the
//! data for tests. See README.md for the workloads and metrics.

mod calib;
mod check;
mod layers;
mod load;
mod mix;
mod report;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gmdj_core::exec::{MemoryCatalog, TableProvider};
use gmdj_core::shared::SharedScanPool;
use gmdj_engine::plan_cache::CACHE_CAP;
use gmdj_engine::strategy::{run_with_policy, run_with_policy_pooled, RunResult, Strategy};
use gmdj_relation::error::Result;

use crate::calib::{Calibrator, Kind};
use crate::check::References;
use crate::mix::{Client, Shape, Workload};
use crate::report::{median, ms, proc_status_mb, Metric};

/// Set-ups per run: at least [`MIN_SETUPS`], more (up to [`MAX_SETUPS`])
/// while their total stays under [`SETUP_BUDGET`]. `setup_s` and the
/// set-up layer metrics are medians over them.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Calibration runs before each set-up. Data generation and the catalog
/// build are scaled by their median compute-kernel time (their speed
/// followed that kernel, not the memory one); each warm-up query by the
/// kernel of its shape's kind, as in the timed loop.
const SETUP_CALIBRATIONS: usize = 5;

/// The strategy every workload times: the SQL shell's default.
pub const TIMED: Strategy = Strategy::GmdjOptimized;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    rev: String,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds must be a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--rev" => rev = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::named(&name, tiny).ok_or(format!(
        "unknown workload {name} (expected one of {})",
        mix::NAMES.join(", ")
    ))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        rev,
    })
}

/// Parse the SQL text and run it through the engine's public entry point,
/// exactly as a user of the library would.
pub fn run_entry(
    sql: &str,
    catalog: &dyn TableProvider,
    w: &Workload,
    pool: Option<&Arc<SharedScanPool>>,
) -> Result<RunResult> {
    let query = gmdj_sql::parse_query(sql)?;
    match pool {
        Some(pool) => run_with_policy_pooled(&query, catalog, TIMED, w.policy, pool.clone()),
        None => run_with_policy(&query, catalog, TIMED, w.policy),
    }
}

/// One set-up: data generation, catalog build, and an untimed warm-up
/// pass of the mix that fills the plan cache.
pub struct Setup {
    pub catalog: MemoryCatalog,
    pub total: Duration,
    pub datagen: Duration,
    /// Time and resident memory of the first `Relation::rows()` on
    /// `orders`, when asked for; excluded from `total`.
    pub row_view: Option<(Duration, f64)>,
    /// Time spent computing reference answers; excluded from `total`.
    pub refs: Duration,
    /// Each warm-up query's shape and time; included in `total`.
    pub warm: Vec<(Shape, Duration)>,
}

fn set_up(
    w: &Workload,
    seed: u64,
    clients: &[Client],
    pool: Option<&Arc<SharedScanPool>>,
    measure_row_view: bool,
    refs: Option<&mut References>,
) -> Result<Setup> {
    let start = Instant::now();
    let data = w.generate(seed);
    let datagen = start.elapsed();
    let catalog = data.into_catalog();
    let row_view = if measure_row_view {
        report::release_free_memory();
        let rss = proc_status_mb("VmRSS:");
        let t = Instant::now();
        std::hint::black_box(catalog.table("orders")?.rows().len());
        Some((t.elapsed(), proc_status_mb("VmRSS:") - rss))
    } else {
        None
    };
    // References are computed before the warm-up, so the timed loop
    // starts right after a warm-up of the timed strategy.
    let refs_time = match refs {
        Some(refs) => {
            let t = Instant::now();
            let all: Vec<_> = clients.iter().flat_map(Client::all_queries).collect();
            refs.extend(&all, &catalog)?;
            t.elapsed()
        }
        None => Duration::ZERO,
    };
    // The small workload warms until the plan cache holds a full
    // capacity of its texts; the paper-size ones run one cycle.
    let warm = if w.pool_per_shape.is_some() && !w.pooled {
        CACHE_CAP
    } else {
        Shape::ALL.len()
    };
    let mut client = clients[0].clone();
    let warm = (0..warm)
        .map(|_| {
            let (q, _) = client.next_query();
            let t = Instant::now();
            run_entry(&q.sql, &catalog, w, pool)?;
            Ok((q.shape, t.elapsed()))
        })
        .collect::<Result<Vec<_>>>()?;
    let total = start.elapsed() - refs_time - row_view.map_or(Duration::ZERO, |(d, _)| d);
    Ok(Setup {
        catalog,
        total,
        datagen,
        row_view,
        refs: refs_time,
        warm,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gmdj-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gmdj-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<()> {
    let w = &args.workload;
    let clients = w.clients(args.seed);
    let pool = w.scan_pool();

    let (mut totals, mut scaled, mut datagens, mut view_ms, mut view_mb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut refs = References::default();
    let mut catalog = None;
    let mut spent = Duration::ZERO;
    // Stop once another set-up of average length would exceed the budget.
    while totals.len() < MIN_SETUPS
        || (totals.len() < MAX_SETUPS && spent + spent / totals.len() as u32 <= SETUP_BUDGET)
    {
        // Drop the previous data first, so peak memory is one data set's.
        drop(catalog.take());
        let first = totals.is_empty().then_some(&mut refs);
        let mut burst = Calibrator::new(w.threads());
        for _ in 0..SETUP_CALIBRATIONS {
            burst.sample();
        }
        let scale = |kind| burst.scale(kind);
        let s = set_up(w, args.seed, &clients, pool.as_ref(), args.trace, first)?;
        if !s.refs.is_zero() {
            println!(
                "references   {} texts in {:.3} s",
                refs.len(),
                s.refs.as_secs_f64()
            );
        }
        totals.push(s.total.as_secs_f64());
        let warm: Duration = s.warm.iter().map(|(_, d)| *d).sum();
        scaled.push(
            (s.total - warm).as_secs_f64() * scale(Kind::Compute)
                + s.warm
                    .iter()
                    .map(|(shape, d)| d.as_secs_f64() * scale(shape.kind(w)))
                    .sum::<f64>(),
        );
        datagens.push(s.datagen.as_secs_f64());
        if let Some((d, mb)) = s.row_view {
            view_ms.push(ms(d));
            view_mb.push(mb);
        }
        catalog = Some(s.catalog);
        spent += s.total;
    }
    let catalog = catalog.expect("at least one set-up");
    print_header(&catalog, args)?;
    println!("setups       {totals:.3?} s (raw)");
    println!("             {scaled:.3?} s (scaled)");

    let (metrics, attempted, failed) = if args.trace {
        let setup = layers::SetupLayers {
            datagen_s: median(&datagens),
            row_view_ms: median(&view_ms),
            row_view_mb: median(&view_mb),
        };
        layers::run(
            w,
            &clients,
            &catalog,
            pool.as_ref(),
            &refs,
            args.seconds,
            &setup,
        )
    } else {
        // The timed loop starts from a trimmed heap, whatever the set-ups
        // left behind. The calibration table is allocated first.
        let calib = Calibrator::new(w.threads());
        report::release_free_memory();
        println!(
            "rss          {:.1} MB before the timed loop",
            proc_status_mb("VmRSS:")
        );
        let (mut metrics, attempted, failed) = load::run(
            w,
            &clients,
            &catalog,
            pool.as_ref(),
            &refs,
            args.seconds,
            calib,
        );
        metrics.insert(0, Metric::new("setup_s", median(&scaled), "s"));
        (metrics, attempted, failed)
    };
    report::print_result(failed == 0, attempted, failed, &metrics);
    Ok(())
}

/// Print the report header: host, build, workload, and table sizes.
fn print_header(catalog: &MemoryCatalog, args: &Args) -> Result<()> {
    let w = &args.workload;
    let mut rows = Vec::new();
    for table in [
        "customer", "orders", "part", "lineitem", "supplier", "nation",
    ] {
        rows.push(format!("{table} {}", catalog.table(table)?.len()));
    }
    report::print_header(&[
        ("rev", args.rev.clone()),
        ("workload", w.name.to_string()),
        ("policy", w.policy_label()),
        ("clients", w.clients.to_string()),
        (
            "strategy",
            format!("{} (reference {})", TIMED.label(), check::REFERENCE.label()),
        ),
        ("seed", args.seed.to_string()),
        ("rows", rows.join(", ")),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("tiny", args.tiny.to_string()),
    ]);
    Ok(())
}
