//! Regenerate the paper's figures, or fuzz the pipeline differentially.
//!
//! ```text
//! repro [--figure 2|3|4|5] [--scale F] [--seed N] [--threads N] [--full]
//!       [--sites N] [--profile-json PATH]
//!       [--check-profile PATH] [--stats-addr HOST:PORT]
//!       [--flight-dump PATH] [--no-flight]
//! repro fuzz --seed S --cases N [--replay FILE|DIR] [--corpus-dir DIR]
//! repro bench [--quick] [--scale F] [--seed N] [--out DIR]
//!             [--baseline PATH] [--check-baseline] [--bless]
//!             [--no-ablations] [--concurrent[=N]]
//! ```
//!
//! The `fuzz` subcommand (see `gmdj_fuzz::cli`) runs seeded random nested
//! queries through every strategy × every execution policy and diffs the
//! answers against tuple-iteration semantics, shrinking and writing a
//! self-contained repro for any divergence.
//!
//! The `bench` subcommand (see `gmdj_bench::telemetry`) records the
//! exact evaluator/network/scan counters per (workload, size, strategy,
//! policy) cell to `BENCH_<run>.json`, and `--check-baseline` gates them
//! against `bench/baseline.json`: counter drift fails with a
//! per-plan-node diff. It times nothing; the figure tables below and
//! perfbench are where wall-clock is measured.
//!
//! Prints, per figure, the measurement table (one row per size point, one
//! column per strategy — milliseconds and work units) followed by the
//! shape checks encoding Section 5's claims. `--scale 1.0` (or `--full`)
//! uses the paper's exact row counts; the default 0.05 finishes in a few
//! minutes on a laptop while preserving every shape. `--threads N` runs
//! the GMDJ strategies under `ExecPolicy::Parallel` — answers are
//! bit-identical, only wall-clock changes.
//!
//! `--profile-json PATH` additionally writes a machine-readable profile
//! (wall-clock, work counters, and the timed per-node plan trees) in the
//! format of `schemas/profile.schema.json`; `--check-profile PATH`
//! parses an existing profile, checks it against that schema file (which
//! is compiled in and is the whole check — see `gmdj_bench::profile`),
//! and exits, for CI.
//!
//! Observability: `--stats-addr HOST:PORT` serves the live HTTP stats
//! endpoint (`/metrics`, `/queries`, `/flight`, `/sites`, `/healthz` — see
//! `gmdj_core::serve`) for the duration of the run; `--flight-dump PATH`
//! writes the flight recorder's retained trace tail as JSON on exit;
//! `--no-flight` disables the always-on flight recorder (the overhead
//! ablation of EXPERIMENTS.md).

use std::process::ExitCode;

use gmdj_bench::{profile, render_table, run_figure_with, shape, FigureId};
use gmdj_core::runtime::ExecPolicy;
use gmdj_core::serve::StatsServer;
use gmdj_core::trace;

struct Args {
    figures: Vec<FigureId>,
    scale: f64,
    seed: u64,
    threads: usize,
    sites: usize,
    csv_dir: Option<String>,
    profile_json: Option<String>,
    check_profile: Option<String>,
    stats_addr: Option<String>,
    flight_dump: Option<String>,
    no_flight: bool,
}

impl Args {
    fn policy(&self) -> ExecPolicy {
        if self.sites > 0 {
            ExecPolicy::distributed(self.sites)
        } else {
            ExecPolicy::parallel(self.threads)
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut figures: Vec<FigureId> = Vec::new();
    let mut scale = 0.05;
    let mut seed = 42;
    let mut threads = 1;
    let mut sites = 0usize;
    let mut csv_dir: Option<String> = None;
    let mut profile_json: Option<String> = None;
    let mut check_profile: Option<String> = None;
    let mut stats_addr: Option<String> = None;
    let mut flight_dump: Option<String> = None;
    let mut no_flight = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--figure" | "-f" => {
                let v = argv.next().ok_or("--figure needs a value (2..5)")?;
                figures.push(FigureId::parse(&v).ok_or(format!("unknown figure `{v}`"))?);
            }
            "--scale" | "-s" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                scale = v.parse().map_err(|_| format!("bad scale `{v}`"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--threads" | "-t" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--sites" => {
                let v = argv.next().ok_or("--sites needs a site count")?;
                sites = v.parse().map_err(|_| format!("bad site count `{v}`"))?;
                if sites == 0 {
                    return Err("--sites must be at least 1".into());
                }
            }
            "--full" => scale = 1.0,
            "--csv" => {
                csv_dir = Some(argv.next().ok_or("--csv needs a directory")?);
            }
            "--profile-json" => {
                profile_json = Some(argv.next().ok_or("--profile-json needs a path")?);
            }
            "--check-profile" => {
                check_profile = Some(argv.next().ok_or("--check-profile needs a path")?);
            }
            "--stats-addr" => {
                stats_addr = Some(argv.next().ok_or("--stats-addr needs HOST:PORT")?);
            }
            "--flight-dump" => {
                flight_dump = Some(argv.next().ok_or("--flight-dump needs a path")?);
            }
            "--no-flight" => no_flight = true,
            "--help" | "-h" => {
                println!(
                    "repro — regenerate the figures of 'Efficient Computation of \
                     Subqueries in Complex OLAP' (ICDE 2003)\n\n\
                     options:\n  \
                     --figure N   regenerate only figure N (2..5; repeatable)\n  \
                     --scale F    multiply the paper's row counts by F (default 0.05)\n  \
                     --full       shorthand for --scale 1.0 (the paper's sizes)\n  \
                     --seed N     data generation seed (default 42)\n  \
                     --threads N  evaluate GMDJ strategies with N worker threads\n  \
                     --sites N    evaluate GMDJ strategies distributed over N\n               \
                     loopback socket sites\n  \
                     --csv DIR    also write the measurement grid as DIR/figN.csv\n  \
                     --profile-json PATH   write a machine-readable profile (timed\n                        \
                     plan trees + counters; see schemas/profile.schema.json)\n  \
                     --check-profile PATH  validate an existing profile and exit\n  \
                     --stats-addr H:P      serve live /metrics /queries /flight /sites /healthz\n                        \
                     over HTTP for the duration of the run\n  \
                     --flight-dump PATH    write the flight recorder's trace tail on exit\n  \
                     --no-flight           disable the always-on flight recorder\n\n\
                     subcommands:\n  \
                     fuzz         differential fuzzing of the subquery pipeline\n               \
                     (repro fuzz --help for its options)\n  \
                     bench        record a deterministic perf trajectory and gate it\n               \
                     against bench/baseline.json (repro bench --help)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if figures.is_empty() {
        figures = FigureId::all().to_vec();
    }
    Ok(Args {
        figures,
        scale,
        seed,
        threads,
        sites,
        csv_dir,
        profile_json,
        check_profile,
        stats_addr,
        flight_dump,
        no_flight,
    })
}

/// `--check-profile`: parse + validate a profile document, exit code only.
fn check_profile_file(path: &str) -> ExitCode {
    let checked = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| {
            profile::parse_json(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
        })
        .and_then(|doc| {
            profile::validate_profile(&doc)
                .map_err(|e| format!("{path} violates the profile schema: {e}"))
        });
    match checked {
        Ok(()) => {
            let version = profile::PROFILE_VERSION;
            println!("{path}: valid profile (version {version})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Write one figure's measurements as CSV (for external plotting).
fn write_csv(dir: &str, fig: FigureId, figure: &gmdj_bench::Figure) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let n = match fig {
        FigureId::Fig2 => 2,
        FigureId::Fig3 => 3,
        FigureId::Fig4 => 4,
        FigureId::Fig5 => 5,
    };
    let path = format!("{dir}/fig{n}.csv");
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "size,outer,inner,strategy,wall_ms,work,rows")?;
    for p in &figure.points {
        for m in &p.measurements {
            writeln!(
                f,
                "{},{},{},{},{:.3},{},{}",
                p.label,
                p.outer,
                p.inner,
                m.strategy.label(),
                m.wall.as_secs_f64() * 1e3,
                m.work,
                m.rows
            )?;
        }
    }
    eprintln!("wrote {path}");
    Ok(())
}

/// `repro bench`: record the deterministic counter trajectory, optionally
/// blessing it as the baseline or gating it against the recorded one.
fn bench_cmd(argv: &[String]) -> ExitCode {
    let mut cfg = gmdj_bench::telemetry::BenchConfig::full(42);
    let mut out_dir = String::from(".");
    let mut baseline_path = String::from("bench/baseline.json");
    let mut check_baseline = false;
    let mut bless = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut next = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{what} needs a value"))
        };
        let parsed = (|| -> Result<(), String> {
            match arg.as_str() {
                "--quick" => {
                    cfg = gmdj_bench::telemetry::BenchConfig::quick(cfg.seed);
                }
                "--scale" => {
                    cfg.scale = next("--scale")?.parse().map_err(|_| "bad --scale")?;
                }
                "--seed" => cfg.seed = next("--seed")?.parse().map_err(|_| "bad --seed")?,
                "--out" => out_dir = next("--out")?,
                "--baseline" => baseline_path = next("--baseline")?,
                "--check-baseline" => check_baseline = true,
                "--bless" => bless = true,
                "--no-ablations" => cfg.ablations = false,
                "--concurrent" => cfg.concurrent = Some(8),
                other if other.starts_with("--concurrent=") => {
                    let n: usize = other["--concurrent=".len()..]
                        .parse()
                        .map_err(|_| "bad --concurrent=N")?;
                    if n == 0 {
                        return Err("--concurrent=N needs at least 1 query".into());
                    }
                    cfg.concurrent = Some(n);
                }
                "--help" | "-h" => {
                    println!(
                        "repro bench — deterministic benchmark telemetry\n\n\
                         Runs the Figure 2-5 workloads and the ablation grid at a fixed\n\
                         seed/scale under the execution policies, recording exact\n\
                         counters to BENCH_<run>.json (schemas/bench.schema.json).\n\
                         Nothing is timed: use repro --figure or perfbench for that.\n\n\
                         options:\n  \
                         --quick              CI configuration (small scale) — the\n                       \
                         configuration bench/baseline.json is recorded with\n  \
                         --scale F            override the size multiplier\n  \
                         --seed N             data generation seed (default 42)\n  \
                         --out DIR            where to write BENCH_<run>.json (default .)\n  \
                         --baseline PATH      baseline document (default bench/baseline.json)\n  \
                         --check-baseline     gate this run against the baseline: counter\n                       \
                         drift fails (exit 1)\n  \
                         --bless              overwrite the baseline with this run\n  \
                         --no-ablations       skip the ablation grid\n  \
                         --concurrent[=N]     additionally run the concurrent-load group:\n                       \
                         N (default 8) identical GMDJs submitted serially\n                       \
                         vs concurrently through a shared-scan pool,\n                       \
                         recording per-query and shared-scan pass counters"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument `{other}` (try --help)")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    let report = match gmdj_bench::telemetry::run_bench(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: bench run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = report.to_json();
    // Self-check before writing: the emitted document must satisfy its
    // own schema, so CI failures point at the generator.
    let doc = match profile::parse_json(&json)
        .and_then(|d| gmdj_bench::telemetry::validate_bench(&d).map(|()| d))
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("internal error: generated bench report is invalid: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out_path = format!("{out_dir}/BENCH_{}.json", report.config.run_id());
    if let Err(e) =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&out_path, &json))
    {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_path} ({} entries)", report.entries.len());

    if bless {
        if let Some(parent) = std::path::Path::new(&baseline_path).parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(&baseline_path, &json) {
            eprintln!("error: cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("blessed {baseline_path}");
    }

    if check_baseline {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match profile::parse_json(&text)
            .and_then(|d| gmdj_bench::telemetry::validate_bench(&d).map(|()| d))
        {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: baseline {baseline_path} is invalid: {e}");
                return ExitCode::FAILURE;
            }
        };
        match gmdj_bench::telemetry::compare_reports(&doc, &baseline) {
            Ok(cmp) => {
                print!("{}", cmp.render());
                if cmp.gate_failed() {
                    eprintln!("baseline gate FAILED: deterministic counters drifted");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("error: baseline comparison failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("fuzz") {
        return gmdj_fuzz::cli::run(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("bench") {
        return bench_cmd(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.check_profile {
        return check_profile_file(path);
    }
    if args.no_flight {
        trace::flight().set_enabled(false);
    }
    // Held for the duration of the run; dropped (and joined) on exit.
    let _stats = match &args.stats_addr {
        Some(addr) => match StatsServer::start(addr) {
            Ok(server) => {
                eprintln!(
                    "stats endpoint: http://{}/metrics /queries /flight /sites /healthz",
                    server.local_addr()
                );
                Some(server)
            }
            Err(e) => {
                eprintln!("error: cannot bind stats endpoint on `{addr}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    if args.sites > 0 {
        println!(
            "Reproducing Akinde & Böhlen (ICDE 2003), scale {} of the paper's sizes, seed {}, {} socket site(s)\n",
            args.scale, args.seed, args.sites
        );
    } else {
        println!(
            "Reproducing Akinde & Böhlen (ICDE 2003), scale {} of the paper's sizes, seed {}, {} thread(s)\n",
            args.scale, args.seed, args.threads
        );
    }
    let policy = args.policy();
    let mut all_passed = true;
    let mut figures = Vec::new();
    for fig in &args.figures {
        let figure = match run_figure_with(*fig, args.scale, args.seed, policy) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error while running {fig:?}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", render_table(&figure));
        if let Some(dir) = &args.csv_dir {
            if let Err(e) = write_csv(dir, *fig, &figure) {
                eprintln!("csv write failed: {e}");
            }
        }
        let checks = shape::check(*fig, &figure);
        println!("{}", shape::render(&checks));
        all_passed &= checks.iter().all(|c| c.passed);
        figures.push(figure);
    }
    if let Some(path) = &args.profile_json {
        let doc = profile::render_profile(&figures, &policy, args.scale, args.seed);
        // Self-check before writing: the emitted document must satisfy
        // its own schema, so CI failures point at the generator.
        if let Err(e) = profile::parse_json(&doc).and_then(|d| profile::validate_profile(&d)) {
            eprintln!("internal error: generated profile is invalid: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("profile write failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = &args.flight_dump {
        if let Err(e) = std::fs::write(path, trace::flight().dump_json()) {
            eprintln!("flight dump failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if all_passed {
        println!("All shape checks passed.");
        ExitCode::SUCCESS
    } else {
        println!("Some shape checks FAILED — see above.");
        ExitCode::FAILURE
    }
}
