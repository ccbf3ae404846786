//! The untraced, timed run: closed-loop clients and the end-to-end
//! metrics.

use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use gmdj_core::exec::MemoryCatalog;
use gmdj_core::shared::SharedScanPool;

use crate::calib::Calibrator;
use crate::check::References;
use crate::mix::{Client, Query, Shape, Workload};
use crate::report::{
    median, ms, proc_status_mb, quantile, release_free_memory, reset_peak_rss, Metric,
};

/// Slices of the timed run that `queries_per_s` takes its median over.
const SLICES: usize = 5;

/// The calibration kernel runs between rounds once this much time has
/// passed since its last run.
const CALIBRATE_EVERY: Duration = Duration::from_millis(50);

/// One timed query.
pub struct Sample {
    pub shape: Shape,
    /// The client's query count before this one: queries of one round
    /// share it.
    pub round: usize,
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
}

impl Sample {
    pub fn ms(&self) -> f64 {
        ms(self.end - self.start)
    }
}

/// Completed queries per second of query time, scaled to the reference
/// host: the median over [`SLICES`] consecutive slices of whole mix
/// cycles, so that a stall of the host in one slice does not move the
/// figure. A round's time runs from its first query's start to its last
/// query's end, so calibration between rounds is not counted, and is
/// scaled as its first query is.
fn queries_per_s(samples: &[&Sample], scale: &dyn Fn(&Sample) -> f64) -> f64 {
    let rounds = samples.iter().map(|s| s.round + 1).max().unwrap_or(0);
    let cycles = rounds / Shape::ALL.len();
    let rates: Vec<(f64, f64)> = (0..SLICES)
        .filter_map(|k| {
            let first = k * cycles / SLICES * Shape::ALL.len();
            let end = (k + 1) * cycles / SLICES * Shape::ALL.len();
            let (mut raw, mut scaled) = (0.0, 0.0);
            for round in first..end {
                let members = samples.iter().filter(|s| s.round == round);
                let start = members.clone().map(|s| s.start).min()?;
                let stop = members.clone().map(|s| s.end).max()?;
                let first_query = members.clone().next()?;
                raw += (stop - start).as_secs_f64();
                scaled += (stop - start).as_secs_f64() * scale(first_query);
            }
            let done = samples
                .iter()
                .filter(|s| s.ok && (first..end).contains(&s.round))
                .count() as f64;
            (done > 0.0).then(|| (done / raw, done / scaled))
        })
        .collect();
    let raw: Vec<f64> = rates.iter().map(|r| r.0).collect();
    println!("slice rates  {raw:.2?} queries/s (raw)");
    median(&rates.iter().map(|r| r.1).collect::<Vec<_>>())
}

/// How long [`drive`] runs.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Until this many seconds have passed, then to the end of the cycle.
    Seconds(f64),
    /// This many whole cycles of the mix.
    Cycles(usize),
}

/// Run every client in its own thread for `length`, always ending at the
/// end of a cycle of the mix, so every shape is sampled equally often.
/// Clients send in rounds: all of them start their next query together,
/// so several clients form a multi-query batch of one shape with distinct
/// constants. Before each round, and once after the last, one client runs
/// `between` while no query runs. `each` runs and checks one query and
/// returns whether it succeeded. Returns the samples and the wall-clock.
pub fn drive<T: Send>(
    clients: &[Client],
    length: Length,
    between: impl FnMut() + Send,
    each: impl Fn(&Query) -> (bool, T) + Sync,
) -> (Vec<(Sample, T)>, Duration) {
    let start = Instant::now();
    let over = |rounds: usize| match length {
        Length::Seconds(s) => start.elapsed().as_secs_f64() >= s,
        Length::Cycles(c) => rounds >= c * Shape::ALL.len(),
    };
    let round = Barrier::new(clients.len());
    let stop = AtomicBool::new(false);
    let between = Mutex::new(between);
    let (each, over, round, stop, between) = (&each, &over, &round, &stop, &between);
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|client| {
                let mut client = client.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut cycle_start = true;
                    for n in 0.. {
                        // One client decides for all whether the run is
                        // over; the second wait publishes the decision.
                        if round.wait().is_leader() {
                            stop.store(cycle_start && over(n), SeqCst);
                            (*between.lock().expect("lock poisoned"))();
                        }
                        round.wait();
                        if stop.load(SeqCst) {
                            break;
                        }
                        let (q, cycle_end) = client.next_query();
                        let start = Instant::now();
                        let (ok, extra) = each(&q);
                        let sample = Sample {
                            shape: q.shape,
                            round: n,
                            start,
                            end: Instant::now(),
                            ok,
                        };
                        out.push((sample, extra));
                        cycle_start = cycle_end;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed())
}

/// The peak resident memory of the heaviest round in one cycle of the mix.
/// Each round starts from a trimmed heap and a reset high-water mark, so
/// the figure is what the data and that round need, not what the allocator
/// kept from earlier rounds. Trimming makes the next allocations fault
/// their pages in again, which is why no timed loop does it.
pub fn peak_memory(
    clients: &[Client],
    check: impl Fn(&Query) -> (bool, ()) + Sync,
) -> (f64, Vec<(Sample, ())>) {
    let mut peaks = Vec::new();
    let mut first = true;
    let between = || {
        if !first {
            peaks.push(proc_status_mb("VmHWM:"));
        }
        first = false;
        release_free_memory();
        reset_peak_rss();
    };
    let (samples, _) = drive(clients, Length::Cycles(1), between, check);
    println!("round peaks  {peaks:.1?} MB");
    (peaks.iter().copied().fold(0.0, f64::max), samples)
}

/// Time the mix and report the end-to-end metrics (except `setup_s`,
/// which the caller adds), scaled to the reference host. Returns the
/// metrics plus attempted and failed counts.
pub fn run(
    w: &Workload,
    clients: &[Client],
    catalog: &MemoryCatalog,
    pool: Option<&Arc<SharedScanPool>>,
    refs: &References,
    seconds: f64,
    mut calib: Calibrator,
) -> (Vec<Metric>, u64, u64) {
    let check = |q: &Query| {
        let ok = match crate::run_entry(&q.sql, catalog, w, pool) {
            Ok(r) => refs.matches(&q.sql, &r.relation),
            Err(e) => {
                eprintln!("query failed: {e}: {}", q.sql);
                false
            }
        };
        (ok, ())
    };
    let mut last_calibration: Option<Instant> = None;
    let calibrate = || {
        if last_calibration.is_none_or(|t| t.elapsed() >= CALIBRATE_EVERY) {
            calib.sample();
            last_calibration = Some(Instant::now());
        }
    };
    let (samples, wall) = drive(clients, Length::Seconds(seconds), calibrate, check);
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|(s, _)| !s.ok).count() as u64;
    println!("calibration  {}", calib.describe());
    let scale = |s: &Sample| calib.scale_at(s.shape.kind(w), s.start);
    let timed: Vec<&Sample> = samples.iter().map(|(s, _)| s).collect();
    let mut metrics = vec![Metric::new(
        "queries_per_s",
        queries_per_s(&timed, &scale),
        "1/s",
    )];
    for shape in Shape::ALL {
        let ok: Vec<&Sample> = timed
            .iter()
            .copied()
            .filter(|s| s.shape == shape && s.ok)
            .collect();
        let raw: Vec<f64> = ok.iter().map(|s| s.ms()).collect();
        let scaled: Vec<f64> = ok.iter().map(|s| s.ms() * scale(s)).collect();
        println!(
            "{:<12} p50 {:>10.3} ms   p90 {:>10.3} ms   n {}   (raw; scaled by {} kernel)",
            shape.name(),
            median(&raw),
            quantile(&raw, 0.9),
            raw.len(),
            shape.kind(w).name()
        );
        metrics.push(Metric::new(
            format!("{}_ms_p50", shape.name()),
            median(&scaled),
            "ms",
        ));
    }
    println!(
        "timed wall   {:.3} s, {} queries, {:.3} queries/s overall",
        wall.as_secs_f64(),
        samples.len(),
        samples.len() as f64 / wall.as_secs_f64()
    );
    (metrics, attempted, failed)
}
