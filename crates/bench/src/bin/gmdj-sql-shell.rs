//! An SQL shell over the GMDJ engine.
//!
//! ```text
//! gmdj-sql-shell [--csv name=path ...] [--tpcr SF] [--netflow N]
//!                [--strategy S] [--threads N] [--sites N] [-e "SQL"]
//! ```
//!
//! Loads tables from CSV files (schema inferred) and/or generated
//! datasets, then evaluates SQL queries — interactively from stdin or
//! one-shot with `-e`. `SET threads = N;` / `SET sites = N;` switch the
//! execution policy mid-session (N = 1 thread returns to sequential);
//! distributed sites are loopback socket sites
//! ([`gmdj_core::wire`]); answers never depend on the policy.
//! `SET stats_addr = HOST:PORT;` starts the HTTP stats endpoint
//! ([`gmdj_core::serve`]) for the session (`off` stops it). Meta
//! commands:
//!
//! ```text
//! \tables                 list tables and row counts
//! \strategy [name]        show / set the evaluation strategy
//! \explain SQL            show the (optimized) GMDJ plan
//! \analyze [json] SQL     run and show the timed, counter-annotated plan
//! \dot SQL                emit the optimized plan as Graphviz dot
//! \compare SQL            run under every strategy and compare
//! \metrics [json]         dump the process metrics registry — key-sorted
//!                         Prometheus text, or JSON with p50/p95/p99
//!                         plus a `queries` progress section
//! \queries [json]         active queries + cumulative progress totals
//! \cache [clear]          plan-cache occupancy and hit/miss totals
//! \flight                 dump the flight recorder's retained trace tail
//! \sites [json]           per-site round-trip totals (distributed runs)
//! \timing on|off          toggle the parse/plan/execute breakdown
//! \q                      quit
//! ```

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

use gmdj_core::exec::{MemoryCatalog, TableProvider};
use gmdj_core::metrics;
use gmdj_core::progress;
use gmdj_core::runtime::{ExecMode, ExecPolicy};
use gmdj_core::serve::StatsServer;
use gmdj_core::trace::{self, CollectingSink, Span};
use gmdj_datagen::netflow::{NetflowConfig, NetflowData};
use gmdj_datagen::tpcr::{TpcrConfig, TpcrData};
use gmdj_engine::analyze::explain_analyze;
use gmdj_engine::strategy::{explain_gmdj, run_with_policy, run_with_policy_traced, Strategy};
use gmdj_sql::parse_query;

const STRATEGIES: [Strategy; 10] = [
    Strategy::NaiveNestedLoop,
    Strategy::NativeSmart,
    Strategy::NativeSmartNoIndex,
    Strategy::JoinUnnest,
    Strategy::JoinUnnestNoIndex,
    Strategy::GmdjBasic,
    Strategy::GmdjOptimized,
    Strategy::GmdjOptimizedNoProbeIndex,
    Strategy::GmdjBasicNoProbeIndex,
    Strategy::GmdjCostBased,
];

fn strategy_by_label(label: &str) -> Option<Strategy> {
    STRATEGIES.into_iter().find(|s| s.label() == label)
}

struct Shell {
    catalog: MemoryCatalog,
    strategy: Strategy,
    policy: ExecPolicy,
    timing: bool,
    /// The HTTP stats endpoint, when `SET stats_addr` started one.
    /// Dropping it (shell exit or `SET stats_addr = off`) stops it.
    stats: Option<StatsServer>,
}

/// The shell's session variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetVar {
    Threads,
    Sites,
}

/// Recognize `SET threads = N` / `SET sites = N` (case-insensitive; `=`
/// optional). Returns the variable and the requested count; any other
/// variable is an error.
fn parse_set(sql: &str) -> Option<Result<(SetVar, usize), String>> {
    let mut words = sql.split_whitespace();
    if !words.next()?.eq_ignore_ascii_case("set") {
        return None;
    }
    let var = words.next()?;
    let var = if var.eq_ignore_ascii_case("threads") {
        SetVar::Threads
    } else if var.eq_ignore_ascii_case("sites") {
        SetVar::Sites
    } else {
        return Some(Err(format!(
            "unknown variable `{var}` (SET threads, sites or stats_addr)"
        )));
    };
    let name = match var {
        SetVar::Threads => "threads",
        SetVar::Sites => "sites",
    };
    let rest: Vec<&str> = words.collect();
    let value = match rest.as_slice() {
        ["=", v] => v,
        [v] => v.strip_prefix('=').unwrap_or(v),
        _ => return Some(Err(format!("usage: SET {name} = N"))),
    };
    Some(match value.parse::<usize>() {
        Ok(0) => Err(format!("{name} must be at least 1")),
        Ok(n) => Ok((var, n)),
        Err(_) => Err(format!("bad {name} count `{value}`")),
    })
}

/// Recognize `SET stats_addr = HOST:PORT` / `SET stats_addr = off`.
/// Handled apart from [`parse_set`]'s numeric session variables because
/// its value is an address, and setting it has a side effect (starting
/// or stopping the HTTP stats endpoint).
fn parse_set_stats_addr(sql: &str) -> Option<Result<String, String>> {
    let mut words = sql.split_whitespace();
    if !words.next()?.eq_ignore_ascii_case("set") {
        return None;
    }
    if !words.next()?.eq_ignore_ascii_case("stats_addr") {
        return None;
    }
    let rest: Vec<&str> = words.collect();
    match rest.as_slice() {
        ["=", v] => Some(Ok(v.to_string())),
        [v] => Some(Ok(v.strip_prefix('=').unwrap_or(v).to_string())),
        _ => Some(Err("usage: SET stats_addr = HOST:PORT (or off)".to_string())),
    }
}

impl Shell {
    fn set_stats_addr(&mut self, value: &str) {
        if value.eq_ignore_ascii_case("off") {
            match self.stats.take() {
                Some(server) => {
                    let addr = server.local_addr();
                    server.shutdown();
                    println!("  stats endpoint on {addr} stopped");
                }
                None => println!("  stats endpoint not running"),
            }
            return;
        }
        // Bind before replacing, so a bad address keeps any running
        // endpoint alive.
        match StatsServer::start(value) {
            Ok(server) => {
                println!(
                    "  stats endpoint: http://{}/metrics /queries /flight /sites /healthz",
                    server.local_addr()
                );
                self.stats = Some(server);
            }
            Err(e) => eprintln!("cannot bind stats endpoint on `{value}`: {e}"),
        }
    }

    fn run_sql(&mut self, sql: &str) {
        if let Some(parsed) = parse_set_stats_addr(sql) {
            match parsed {
                Ok(value) => self.set_stats_addr(&value),
                Err(e) => eprintln!("{e}"),
            }
            return;
        }
        if let Some(parsed) = parse_set(sql) {
            match parsed {
                Ok((SetVar::Threads, 1)) => {
                    self.policy = ExecPolicy::sequential();
                    println!("  threads = 1 (sequential)");
                }
                Ok((SetVar::Threads, n)) => {
                    self.policy = ExecPolicy::parallel(n);
                    println!("  threads = {n}");
                }
                Ok((SetVar::Sites, n)) => {
                    self.policy = ExecPolicy::distributed(n);
                    println!("  sites = {n} (distributed over loopback sockets)");
                }
                Err(e) => eprintln!("{e}"),
            }
            return;
        }
        // The collecting sink feeds the `\timing` breakdown; the engine
        // emits `query.plan` / `query.execute` spans, the shell adds
        // `query.parse`.
        let sink = Arc::new(CollectingSink::new());
        let parse_span = Span::begin(sink.as_ref(), "query.parse");
        let query = match parse_query(sql) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("parse error: {e}");
                return;
            }
        };
        let parse_wall = parse_span.finish();
        match run_with_policy_traced(
            &query,
            &self.catalog,
            self.strategy,
            self.policy,
            sink.clone(),
        ) {
            Ok(result) => {
                const DISPLAY_CAP: usize = 50;
                if result.relation.len() > DISPLAY_CAP {
                    print!(
                        "{}",
                        gmdj_relation::ops::limit(&result.relation, DISPLAY_CAP)
                    );
                    println!(
                        "… {} more rows not shown (add LIMIT to the query)",
                        result.relation.len() - DISPLAY_CAP
                    );
                } else {
                    print!("{}", result.relation);
                }
                if self.timing {
                    let mode = match self.policy.mode {
                        ExecMode::Parallel { threads: 1 } => String::new(),
                        ExecMode::Parallel { threads } => format!(", {threads} threads"),
                        ExecMode::Distributed { sites } => format!(", {sites} sites"),
                    };
                    println!(
                        "(parse {:.2} ms, plan {:.2} ms, execute {:.2} ms, {} work units, strategy {}{mode})",
                        parse_wall.as_secs_f64() * 1e3,
                        result.plan_wall.as_secs_f64() * 1e3,
                        result.wall.as_secs_f64() * 1e3,
                        result.stats.work(),
                        self.strategy.label()
                    );
                }
            }
            Err(e) => eprintln!("execution error: {e}"),
        }
    }

    /// `\analyze [json] SQL`: run the query and print the timed,
    /// counter-annotated plan tree (or its JSON form).
    fn analyze(&self, rest: &str) {
        // Meta lines arrive verbatim; tolerate a statement-style `;`.
        let rest = rest.trim_end_matches(';').trim();
        let (json, sql) = match rest.strip_prefix("json ") {
            Some(sql) => (true, sql.trim()),
            None => (false, rest),
        };
        let query = match parse_query(sql) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("parse error: {e}");
                return;
            }
        };
        match explain_analyze(
            &query,
            &self.catalog,
            self.strategy,
            self.policy,
            Arc::new(gmdj_core::trace::NullSink),
        ) {
            Ok(report) => {
                if json {
                    println!("{}", report.to_json());
                } else {
                    print!("{}", report.render());
                }
            }
            Err(e) => eprintln!("execution error: {e}"),
        }
    }

    fn explain(&self, sql: &str) {
        match parse_query(sql) {
            Ok(q) => {
                println!("nested algebra:\n  {q}\n");
                match explain_gmdj(&q, &self.catalog, true) {
                    Ok(plan) => println!("optimized GMDJ plan:\n{plan}"),
                    Err(e) => eprintln!("translation error: {e}"),
                }
            }
            Err(e) => eprintln!("parse error: {e}"),
        }
    }

    fn compare(&self, sql: &str) {
        let query = match parse_query(sql) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("parse error: {e}");
                return;
            }
        };
        let mut baseline = None;
        for strategy in STRATEGIES {
            match run_with_policy(&query, &self.catalog, strategy, self.policy) {
                Ok(result) => {
                    let agree = match &baseline {
                        None => {
                            baseline = Some(result.relation.clone());
                            "  "
                        }
                        Some(b) if b.multiset_eq(&result.relation) => "  ",
                        Some(_) => "✗ DISAGREES",
                    };
                    println!(
                        "  {:<16} {:>10.2} ms {:>14} work units {:>8} rows {agree}",
                        strategy.label(),
                        result.wall.as_secs_f64() * 1e3,
                        result.stats.work(),
                        result.relation.len()
                    );
                }
                Err(e) => println!("  {:<16} error: {e}", strategy.label()),
            }
        }
    }

    fn meta(&mut self, line: &str) -> bool {
        let mut parts = line.splitn(2, ' ');
        let cmd = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("").trim();
        match cmd {
            "\\q" | "\\quit" => return false,
            "\\tables" => {
                for name in self.catalog.table_names() {
                    let rows = self.catalog.table(name).map(|r| r.len()).unwrap_or(0);
                    println!("  {name:<16} {rows} rows");
                }
            }
            "\\strategy" => {
                if rest.is_empty() {
                    println!("  current: {}", self.strategy.label());
                    println!(
                        "  available: {}",
                        STRATEGIES.map(|s| s.label()).join(", ")
                    );
                } else {
                    match strategy_by_label(rest) {
                        Some(s) => {
                            self.strategy = s;
                            println!("  strategy set to {}", s.label());
                        }
                        None => eprintln!("unknown strategy `{rest}`"),
                    }
                }
            }
            "\\explain" => self.explain(rest),
            "\\analyze" => self.analyze(rest),
            // Both renderings iterate the registry's BTreeMaps and emit
            // one `# TYPE` line per family, so the output is key-sorted
            // and byte-stable for a given registry state — diffable
            // across runs and snapshot-testable.
            "\\metrics" => match rest {
                "json" => {
                    // The registry document plus a `queries` section
                    // from the progress registry: splice before the
                    // closing brace so the render stays one object.
                    let m = metrics::global().render_json();
                    let body = m.strip_suffix('}').unwrap_or(&m);
                    println!("{body},\"queries\":{}}}", progress::global().render_json());
                }
                _ => print!("{}", metrics::global().render_prometheus()),
            },
            "\\queries" => {
                if rest == "json" {
                    println!("{}", progress::global().render_json());
                } else {
                    let (active, totals) = progress::global().snapshot();
                    if active.is_empty() {
                        println!("  no active queries");
                    }
                    for q in &active {
                        let eta = if q.eta_ms > 0 {
                            format!(", eta {} ms", q.eta_ms)
                        } else {
                            String::new()
                        };
                        println!(
                            "  #{} [{} {} {} {}] {}/{} morsels, {} rows, {} ms{eta}  {}",
                            q.id,
                            q.strategy,
                            q.policy,
                            q.state,
                            q.phase,
                            q.morsels_done,
                            q.morsels_total,
                            q.rows_done,
                            q.elapsed_ms,
                            q.sql
                        );
                    }
                    println!(
                        "  totals: {} started, {} finished, {} morsels, {} rows",
                        totals.queries_started,
                        totals.queries_finished,
                        totals.morsels_done,
                        totals.rows_done
                    );
                }
            }
            "\\cache" => {
                if rest == "clear" {
                    gmdj_engine::plan_cache::clear();
                    println!("  plan cache cleared");
                } else {
                    let s = gmdj_engine::plan_cache::stats();
                    let total = s.hits + s.misses;
                    let rate = if total > 0 {
                        format!("{:.1}%", 100.0 * s.hits as f64 / total as f64)
                    } else {
                        "n/a".to_string()
                    };
                    println!(
                        "  plan cache: {}/{} plans, {} hits, {} misses (hit rate {rate})",
                        s.len, s.cap, s.hits, s.misses
                    );
                }
            }
            "\\flight" => println!("{}", trace::flight().dump_json()),
            "\\sites" => {
                if rest == "json" {
                    println!("{}", gmdj_core::distributed::sites_json());
                } else {
                    print!("{}", gmdj_core::distributed::sites_text());
                }
            }
            "\\dot" => match gmdj_sql::parse_query(rest) {
                Ok(q) => {
                    match gmdj_core::translate::subquery_to_gmdj(&q, &self.catalog) {
                        Ok(plan) => {
                            let optimized = gmdj_core::optimize::optimize(&plan);
                            println!("{}", optimized.to_dot());
                        }
                        Err(e) => eprintln!("translation error: {e}"),
                    }
                }
                Err(e) => eprintln!("parse error: {e}"),
            },
            "\\compare" => self.compare(rest),
            "\\timing" => {
                self.timing = rest != "off";
                println!("  timing {}", if self.timing { "on" } else { "off" });
            }
            other => eprintln!("unknown meta command `{other}` (try \\tables, \\strategy, \\explain, \\analyze, \\compare, \\metrics, \\queries, \\cache, \\flight, \\sites, \\timing, \\q)"),
        }
        true
    }
}

fn main() -> ExitCode {
    let mut catalog = MemoryCatalog::new();
    let mut strategy = Strategy::GmdjOptimized;
    let mut policy = ExecPolicy::sequential();
    let mut one_shot: Vec<String> = Vec::new();

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--csv" => {
                let Some(spec) = argv.next() else {
                    eprintln!("--csv needs name=path");
                    return ExitCode::FAILURE;
                };
                let Some((name, path)) = spec.split_once('=') else {
                    eprintln!("--csv needs name=path, got `{spec}`");
                    return ExitCode::FAILURE;
                };
                let file = match std::fs::File::open(path) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("cannot open {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let mut reader = std::io::BufReader::new(file);
                match gmdj_relation::csv::read_csv_infer(&mut reader, name) {
                    Ok(rel) => {
                        println!("loaded {name}: {} rows", rel.len());
                        catalog.register(name.to_string(), rel);
                    }
                    Err(e) => {
                        eprintln!("cannot parse {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--tpcr" => {
                let sf: f64 = argv.next().and_then(|v| v.parse().ok()).unwrap_or(0.01);
                let data = TpcrData::generate(&TpcrConfig::scale(sf, 42));
                for (name, rel) in [
                    ("customer", data.customer),
                    ("orders", data.orders),
                    ("lineitem", data.lineitem),
                    ("part", data.part),
                    ("supplier", data.supplier),
                    ("nation", data.nation),
                ] {
                    println!("generated {name}: {} rows", rel.len());
                    catalog.register(name, rel);
                }
            }
            "--netflow" => {
                let flows: usize = argv.next().and_then(|v| v.parse().ok()).unwrap_or(10_000);
                let data = NetflowData::generate(&NetflowConfig {
                    hours: 24,
                    flows,
                    users: 50,
                    source_ips: 64,
                    seed: 42,
                });
                for (name, rel) in [
                    ("Flow", data.flow),
                    ("Hours", data.hours),
                    ("User", data.user),
                ] {
                    println!("generated {name}: {} rows", rel.len());
                    catalog.register(name, rel);
                }
            }
            "--strategy" => {
                let Some(label) = argv.next() else {
                    eprintln!("--strategy needs a name");
                    return ExitCode::FAILURE;
                };
                match strategy_by_label(&label) {
                    Some(s) => strategy = s,
                    None => {
                        eprintln!("unknown strategy `{label}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--threads" => {
                let Some(v) = argv.next() else {
                    eprintln!("--threads needs a value");
                    return ExitCode::FAILURE;
                };
                match v.parse::<usize>() {
                    Ok(0) => {
                        eprintln!("--threads must be at least 1");
                        return ExitCode::FAILURE;
                    }
                    Ok(1) => policy = ExecPolicy::sequential(),
                    Ok(n) => policy = ExecPolicy::parallel(n),
                    Err(_) => {
                        eprintln!("bad thread count `{v}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--sites" => {
                let Some(v) = argv.next() else {
                    eprintln!("--sites needs a value");
                    return ExitCode::FAILURE;
                };
                match v.parse::<usize>() {
                    Ok(0) => {
                        eprintln!("--sites must be at least 1");
                        return ExitCode::FAILURE;
                    }
                    Ok(n) => policy = ExecPolicy::distributed(n),
                    Err(_) => {
                        eprintln!("bad site count `{v}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "-e" => {
                let Some(sql) = argv.next() else {
                    eprintln!("-e needs an SQL string");
                    return ExitCode::FAILURE;
                };
                one_shot.push(sql);
            }
            "--help" | "-h" => {
                println!(
                    "gmdj-sql-shell — SQL over the GMDJ subquery engine\n\n\
                     --csv name=path   load a CSV file as table `name`\n\
                     --tpcr SF         generate TPC-R-style tables at scale factor SF\n\
                     --netflow N       generate the IP-flow warehouse with N flows\n\
                     --strategy S      evaluation strategy (default gmdj-opt)\n\
                     --threads N       evaluate GMDJs with N worker threads\n\
                     --sites N         evaluate GMDJs distributed across N loopback sites\n\
                     -e SQL            run one query and exit (repeatable)\n\n\
                     `SET threads = N;` / `SET sites = N;` change the policy\n\
                     mid-session;\n\
                     `SET stats_addr = HOST:PORT;` starts the HTTP stats endpoint\n\
                     (`off` stops it)."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut shell = Shell {
        catalog,
        strategy,
        policy,
        timing: true,
        stats: None,
    };
    if !one_shot.is_empty() {
        for sql in one_shot {
            shell.run_sql(&sql);
        }
        return ExitCode::SUCCESS;
    }

    println!("gmdj-sql-shell — \\q to quit, \\tables, \\strategy, \\explain, \\analyze, \\dot, \\compare, \\metrics, \\queries, \\cache, \\flight, \\sites");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("gmdj> ");
        } else {
            print!("   -> ");
        }
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !shell.meta(trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(trimmed);
        buffer.push(' ');
        // Statements end with `;`.
        if trimmed.ends_with(';') {
            let sql = buffer.trim_end().trim_end_matches(';').to_string();
            buffer.clear();
            shell.run_sql(&sql);
        }
    }
    ExitCode::SUCCESS
}
