//! HTTP stats-endpoint integration test: a [`StatsServer`] on an
//! ephemeral port, probed over a plain [`std::net::TcpStream`] while
//! GMDJ queries run concurrently through the engine — no HTTP client
//! dependency, the responder is simple enough to speak to by hand.
//!
//! * `GET /metrics` parses as Prometheus text exposition (every line a
//!   `# HELP`/`# TYPE` comment or `name value`).
//! * `GET /queries` parses as JSON and validates against
//!   `schemas/queries.schema.json` (via `profile::validate_queries`),
//!   including the `morsels_done ≤ morsels_total` invariant on entries
//!   snapshotted mid-flight.
//! * `GET /sites` entries each validate against the profile schema's
//!   `#/definitions/site` — the same definition a plan node's `sites`
//!   array uses.
//! * `GET /flight` is a well-formed flight-recorder dump.
//! * `GET /healthz` answers 200.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gmdj_algebra::ast::{exists, QueryExpr};
use gmdj_bench::profile;
use gmdj_core::exec::MemoryCatalog;
use gmdj_core::runtime::ExecPolicy;
use gmdj_core::serve::StatsServer;
use gmdj_engine::strategy::{run_with_policy, Strategy};
use gmdj_relation::expr::col;
use gmdj_relation::relation::RelationBuilder;
use gmdj_relation::schema::DataType;

fn catalog() -> MemoryCatalog {
    let mut customers = RelationBuilder::new("C").column("id", DataType::Int);
    for id in 0..200 {
        customers = customers.row(vec![id.into()]);
    }
    let mut orders = RelationBuilder::new("O")
        .column("cust", DataType::Int)
        .column("total", DataType::Int);
    for i in 0..2000 {
        orders = orders.row(vec![(i % 200).into(), (i % 97).into()]);
    }
    MemoryCatalog::new()
        .with("Customers", customers.build().unwrap())
        .with("Orders", orders.build().unwrap())
}

fn query() -> QueryExpr {
    let sub = QueryExpr::table("Orders", "O").select_flat(col("O.cust").eq(col("C.id")));
    QueryExpr::table("Customers", "C").select(exists(sub))
}

/// Minimal HTTP GET over a raw socket; returns (status line, body).
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to stats endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response carries a head/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Prometheus text-exposition check: every non-empty line is a comment
/// or `name[{labels}] value` with a parseable numeric value.
fn assert_prometheus(body: &str) {
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable metrics line: {line}"));
        assert!(!name.is_empty(), "{line}");
        assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
    }
}

#[test]
fn endpoint_serves_valid_documents_while_queries_run() {
    let server = StatsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();

    // One completed query up front so the metric families exist before
    // the first probe (the background worker races the probes).
    run_with_policy(
        &query(),
        &catalog(),
        Strategy::GmdjOptimized,
        ExecPolicy::sequential(),
    )
    .expect("warm-up query succeeds");

    // Keep the engine busy in the background so the probes observe a
    // live system (and, with luck, queries mid-flight).
    let stop = Arc::new(AtomicBool::new(false));
    let worker_stop = stop.clone();
    let worker = std::thread::spawn(move || {
        let catalog = catalog();
        let q = query();
        let mut runs = 0u32;
        while !worker_stop.load(Ordering::Relaxed) {
            run_with_policy(
                &q,
                &catalog,
                Strategy::GmdjOptimized,
                ExecPolicy::parallel(2),
            )
            .expect("background query succeeds");
            runs += 1;
        }
        runs
    });

    // /healthz
    let (status, body) = get(addr, "/healthz");
    assert!(status.starts_with("HTTP/1.0 200"), "{status}");
    assert_eq!(body, "ok\n");

    // /metrics — valid Prometheus exposition, engine families present.
    let (status, body) = get(addr, "/metrics");
    assert!(status.starts_with("HTTP/1.0 200"), "{status}");
    assert_prometheus(&body);
    assert!(body.contains("queries_total"), "{body}");
    assert!(body.contains("# TYPE queries_active gauge"), "{body}");

    // /queries — probe repeatedly while the worker runs: every snapshot
    // must satisfy the schema and the morsel invariant, live.
    for _ in 0..20 {
        let (status, body) = get(addr, "/queries");
        assert!(status.starts_with("HTTP/1.0 200"), "{status}");
        let doc = profile::parse_json(&body).expect("queries body is JSON");
        profile::validate_queries(&doc).expect("queries body matches its schema");
    }

    // /sites — after a distributed run, the per-site totals document
    // carries an entry per site whose numbers are live and well-formed.
    run_with_policy(
        &query(),
        &catalog(),
        Strategy::GmdjOptimized,
        ExecPolicy::distributed(2),
    )
    .expect("distributed warm-up query succeeds");
    let (status, body) = get(addr, "/sites");
    assert!(status.starts_with("HTTP/1.0 200"), "{status}");
    let doc = profile::parse_json(&body).expect("sites body is JSON");
    let entries = doc
        .get("sites")
        .and_then(profile::Json::as_arr)
        .expect("sites array present");
    assert!(entries.len() >= 2, "distributed(2) feeds two sites: {body}");
    for entry in entries {
        profile::profile_schema()
            .validate_ref("#/definitions/site", entry, "sites[]")
            .unwrap_or_else(|e| panic!("{e} in {body}"));
        assert!(
            entry
                .get("roundtrips")
                .and_then(profile::Json::as_num)
                .unwrap()
                >= 1.0,
            "{body}"
        );
    }

    // /flight — a well-formed ring dump with the documented keys.
    let (status, body) = get(addr, "/flight");
    assert!(status.starts_with("HTTP/1.0 200"), "{status}");
    let doc = profile::parse_json(&body).expect("flight body is JSON");
    for key in ["capacity", "dropped"] {
        assert!(
            doc.get(key).and_then(profile::Json::as_num).is_some(),
            "missing `{key}` in {body}"
        );
    }
    assert!(doc.get("events").and_then(profile::Json::as_arr).is_some());

    // 404 for anything else; the server keeps serving afterwards.
    let (status, _) = get(addr, "/nope");
    assert!(status.starts_with("HTTP/1.0 404"), "{status}");
    let (status, _) = get(addr, "/healthz");
    assert!(status.starts_with("HTTP/1.0 200"), "{status}");

    stop.store(true, Ordering::Relaxed);
    let runs = worker.join().expect("worker thread exits cleanly");
    assert!(runs > 0, "the background engine actually ran queries");

    // After the worker stopped, the cumulative totals reflect its runs
    // and the final morsel reconciliation holds in the totals too.
    let (_, body) = get(addr, "/queries");
    let doc = profile::parse_json(&body).unwrap();
    let totals = doc.get("totals").expect("totals present");
    let started = totals
        .get("queries_started")
        .and_then(profile::Json::as_num)
        .unwrap();
    assert!(started >= runs as f64);

    server.shutdown();
    // Once shut down, the port stops answering.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT accept may still connect; a request must fail.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").ok();
            let mut out = String::new();
            s.read_to_string(&mut out).is_err() || out.is_empty()
        }
    );
}
