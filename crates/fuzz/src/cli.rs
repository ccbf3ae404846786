//! `repro fuzz` — the command-line entry point of the harness.
//!
//! ```text
//! repro fuzz --seed S --cases N [--replay FILE|DIR] [--corpus-dir DIR]
//!            [--max-shrink-checks N]
//! ```
//!
//! Generation mode runs `N` seeded cases through the differential driver;
//! every failing case is shrunk and written to the corpus directory as a
//! self-contained repro (SQL + CSV + seed + divergence + trace). Replay
//! mode re-checks existing corpus files (a single file or every `*.case`
//! in a directory). Exit status is non-zero iff any case failed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::corpus::{parse_case, render_case};
use crate::driver::{check_case, trace_divergence, CheckOptions};
use crate::gen::{generate_case, GenConfig};
use crate::rng::case_seed;
use crate::shrink::shrink;

struct FuzzArgs {
    seed: u64,
    cases: usize,
    replay: Option<String>,
    corpus_dir: String,
    max_shrink_checks: usize,
}

const HELP: &str = "repro fuzz — differential fuzzing of the subquery pipeline

Runs seeded random nested queries through gmdj_sql parse -> lower ->
every evaluation strategy x every execution policy and diffs multiset
results against tuple-iteration semantics (the naive oracle). Failing
cases are shrunk and written as self-contained repros.

options:
  --seed N              run seed (default 42); case i uses a seed derived
                        from (seed, i), so any case replays independently
  --cases N             number of generated cases (default 500)
  --replay PATH         replay a repro file, or every *.case in a
                        directory, instead of generating
  --corpus-dir DIR      where failing repros are written
                        (default fuzz/corpus)
  --max-shrink-checks N differential checks the shrinker may spend per
                        failing case (default 2000)";

fn parse_args(args: &[String]) -> Result<FuzzArgs, String> {
    let mut out = FuzzArgs {
        seed: 42,
        cases: 500,
        replay: None,
        corpus_dir: "fuzz/corpus".into(),
        max_shrink_checks: 2000,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                out.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--cases" => {
                let v = it.next().ok_or("--cases needs a value")?;
                out.cases = v.parse().map_err(|_| format!("bad case count `{v}`"))?;
            }
            "--replay" => {
                out.replay = Some(it.next().ok_or("--replay needs a path")?.clone());
            }
            "--corpus-dir" => {
                out.corpus_dir = it.next().ok_or("--corpus-dir needs a path")?.clone();
            }
            "--max-shrink-checks" => {
                let v = it.next().ok_or("--max-shrink-checks needs a value")?;
                out.max_shrink_checks = v.parse().map_err(|_| format!("bad count `{v}`"))?;
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown fuzz argument `{other}` (try --help)")),
        }
    }
    Ok(out)
}

/// Entry point, called by the `repro` binary for the `fuzz` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &args.replay {
        Some(path) => replay(path),
        None => generate_and_check(&args),
    }
}

fn generate_and_check(args: &FuzzArgs) -> ExitCode {
    let cfg = GenConfig::default();
    let opts = CheckOptions::default();
    println!(
        "fuzz: {} cases from seed {} — {} strategies x {} policies vs the naive oracle",
        args.cases,
        args.seed,
        opts.strategies.len(),
        opts.policies.len()
    );
    let mut failures = 0usize;
    for i in 0..args.cases {
        let seed = case_seed(args.seed, i as u64);
        let case = generate_case(seed, &cfg);
        let report = check_case(&case, &opts);
        if report.passed() {
            if (i + 1) % 100 == 0 {
                println!("  {}/{} cases clean", i + 1, args.cases);
            }
            continue;
        }
        failures += 1;
        if let Some(err) = &report.pipeline_error {
            eprintln!("case {i} (seed {seed}): PIPELINE ERROR\n  {err}");
            write_repro(&args.corpus_dir, &case, None, &[], seed);
            continue;
        }
        let d = &report.divergences[0];
        eprintln!(
            "case {i} (seed {seed}): DIVERGENCE — {} under {} ({} vs oracle {} rows); shrinking…",
            d.strategy.label(),
            d.policy.label(),
            d.actual_rows
                .map(|n| n.to_string())
                .unwrap_or_else(|| "error".into()),
            d.oracle_rows
        );
        let (small, spent) = shrink(&case, &opts, args.max_shrink_checks);
        let small_report = check_case(&small, &opts);
        let sd = small_report.divergences.first().unwrap_or(d);
        let trace = trace_divergence(&small, sd);
        eprintln!(
            "  shrunk to {} referenced rows in {spent} checks: {}",
            small.referenced_rows(),
            small.sql
        );
        write_repro(&args.corpus_dir, &small, Some(sd), &trace, seed);
    }
    if failures == 0 {
        println!(
            "fuzz: all {} cases agree across every strategy and policy",
            args.cases
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fuzz: {failures} failing case(s) — repros in {}",
            args.corpus_dir
        );
        ExitCode::FAILURE
    }
}

fn write_repro(
    dir: &str,
    case: &crate::spec::FuzzCase,
    divergence: Option<&crate::driver::Divergence>,
    trace: &[String],
    seed: u64,
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("  cannot create corpus dir {dir}: {e}");
        return;
    }
    let path = Path::new(dir).join(format!("failing-{seed:016x}.case"));
    let text = render_case(case, divergence, trace);
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("  wrote {}", path.display()),
        Err(e) => eprintln!("  cannot write {}: {e}", path.display()),
    }
}

fn replay(path: &str) -> ExitCode {
    let files: Vec<PathBuf> = if Path::new(path).is_dir() {
        let mut v: Vec<PathBuf> = match std::fs::read_dir(path) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "case"))
                .collect(),
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        v.sort();
        v
    } else {
        vec![PathBuf::from(path)]
    };
    if files.is_empty() {
        println!("replay: no *.case files under {path}");
        return ExitCode::SUCCESS;
    }
    let opts = CheckOptions::default();
    let mut failures = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: read error: {e}", file.display());
                failures += 1;
                continue;
            }
        };
        let case = match parse_case(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{}: malformed case: {e}", file.display());
                failures += 1;
                continue;
            }
        };
        let report = check_case(&case, &opts);
        if report.passed() {
            println!("{}: ok", file.display());
        } else {
            failures += 1;
            if let Some(err) = &report.pipeline_error {
                eprintln!("{}: PIPELINE ERROR — {err}", file.display());
            }
            for d in &report.divergences {
                eprintln!(
                    "{}: DIVERGENCE — {} under {}\n{}",
                    file.display(),
                    d.strategy.label(),
                    d.policy.label(),
                    d.detail
                );
            }
        }
    }
    if failures == 0 {
        println!("replay: {} case(s) clean", files.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("replay: {failures} of {} case(s) failed", files.len());
        ExitCode::FAILURE
    }
}
