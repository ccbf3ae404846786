//! Chaos suite for the socket-backed distributed transport
//! (`gmdj_core::wire`): every injectable site fault, in both fault
//! windows, across every evaluation strategy.
//!
//! The contract under test is the robustness model of the wire module:
//! a faulted site round-trip either **recovers exactly** (the retried
//! run is multiset-identical to the sequential answer — never an
//! approximation) or **fails cleanly** (an `Error` naming the site and
//! its address, within the configured deadlines — never a hang, never a
//! wrong answer). Every case runs under a watchdog so a regression that
//! deadlocks the coordinator fails the test instead of wedging CI.
//!
//! The fault plan and transport config are process-global (see
//! `gmdj_core::wire::install_fault_plan`), so every case serializes
//! behind one mutex and restores both on exit — panic included — via a
//! drop guard. Timeouts are shortened from the production defaults to
//! keep the whole matrix in CI-friendly time; the `Delay` fault is
//! sized past `io_timeout` so the coordinator provably abandons the
//! straggler rather than waiting it out.

use std::sync::mpsc;
use std::sync::Arc;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use gmdj_algebra::ast::{NestedPredicate, QueryExpr, SubqueryPred};
use gmdj_core::eval::Keep;
use gmdj_core::exec::MemoryCatalog;
use gmdj_core::runtime::{ExecPolicy, PlanNodeStats, Runtime};
use gmdj_core::spec::{AggBlock, GmdjSpec};
use gmdj_core::trace::CollectingSink;
use gmdj_core::wire::{self, Fault, FaultPlan, FaultWindow, WireConfig};
use gmdj_engine::strategy::{run_with_policy, Strategy};
use gmdj_relation::agg::NamedAgg;
use gmdj_relation::expr::col;
use gmdj_relation::relation::{Relation, RelationBuilder};
use gmdj_relation::schema::{DataType, Schema};
use gmdj_relation::value::Value;

/// Serializes every chaos case: the fault plan and wire config are
/// process-global, and `cargo test` runs test functions concurrently.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Short-deadline transport config for the matrix. `Delay` below is
/// sized against these numbers: longer than `io_timeout` (so the first
/// attempt provably times out) but short enough that the site thread is
/// free again before the retry's handshake deadline expires.
const CHAOS_CONFIG: WireConfig = WireConfig {
    connect_timeout: Duration::from_millis(1000),
    io_timeout: Duration::from_millis(250),
    max_attempts: 3,
    backoff: Duration::from_millis(20),
};

const DELAY_MS: u64 = 350;

/// Restores the process-global transport state when a case ends,
/// whether it returns or panics.
struct ChaosGuard;

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        wire::install_fault_plan(None);
        wire::set_config(WireConfig::DEFAULT);
    }
}

fn chaos_setup(plan: FaultPlan) -> ChaosGuard {
    wire::set_config(CHAOS_CONFIG);
    wire::install_fault_plan(Some(plan));
    ChaosGuard
}

/// Deterministic workload: enough rows that both of the two sites own a
/// non-empty fragment, NULLs included, and a query whose GMDJ
/// translation carries more than one aggregate block.
fn catalog() -> MemoryCatalog {
    let b_schema = Schema::qualified("B", &[("a", DataType::Int), ("b", DataType::Int)]);
    let b_rows = (0..12)
        .map(|i| {
            let a = if i % 5 == 4 {
                Value::Null
            } else {
                Value::Int(i % 4)
            };
            vec![a, Value::Int(i % 3)].into_boxed_slice()
        })
        .collect();
    let r_schema = Schema::qualified("R", &[("a", DataType::Int), ("b", DataType::Int)]);
    let r_rows = (0..30)
        .map(|i| {
            let b = if i % 7 == 6 {
                Value::Null
            } else {
                Value::Int(i % 5)
            };
            vec![Value::Int(i % 6), b].into_boxed_slice()
        })
        .collect();
    MemoryCatalog::new()
        .with("B", Relation::from_parts(b_schema, b_rows))
        .with("R", Relation::from_parts(r_schema, r_rows))
}

fn query() -> QueryExpr {
    // EXISTS plus NOT IN over the same detail table: two subqueries, so
    // the translated GMDJ ships multiple aggregate columns per base row.
    let exists = NestedPredicate::Subquery(SubqueryPred::Exists {
        query: Box::new(QueryExpr::table("R", "R1").select_flat(col("R1.a").eq(col("B.a")))),
        negated: false,
    });
    let not_in = NestedPredicate::Subquery(SubqueryPred::In {
        left: col("B.b"),
        query: Box::new(
            QueryExpr::table("R", "R2")
                .select_flat(col("R2.a").ge(col("B.a")))
                .project(vec![gmdj_relation::schema::ColumnRef::parse("R2.b")]),
        ),
        negated: true,
    });
    QueryExpr::table("B", "B").select(exists.and(not_in))
}

/// The five strategies that route through the GMDJ runtime and hence
/// the socket transport under a distributed policy.
const GMDJ_STRATEGIES: [Strategy; 5] = [
    Strategy::GmdjBasic,
    Strategy::GmdjOptimized,
    Strategy::GmdjBasicNoProbeIndex,
    Strategy::GmdjOptimizedNoProbeIndex,
    Strategy::GmdjCostBased,
];

/// The rest of the lineup: they ignore the execution policy, never open
/// a socket, and must be oblivious to any installed fault plan.
const POLICY_FREE_STRATEGIES: [Strategy; 5] = [
    Strategy::NaiveNestedLoop,
    Strategy::NativeSmart,
    Strategy::NativeSmartNoIndex,
    Strategy::JoinUnnest,
    Strategy::JoinUnnestNoIndex,
];

/// Run `f` on a worker thread with a hang watchdog. A faulted transport
/// must resolve within its deadline arithmetic — attempts × (connect +
/// a few io_timeouts + backoff) — which under [`CHAOS_CONFIG`] is a few
/// seconds; 30 s of silence means the coordinator is wedged.
fn with_watchdog(name: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name(format!("chaos-{name}"))
        .spawn(move || {
            f();
            let _ = tx.send(());
        })
        .expect("spawn chaos worker");
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => handle.join().expect("chaos worker panicked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            handle.join().expect("chaos worker panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: watchdog expired — distributed run hung past every deadline")
        }
    }
}

/// One cell of the matrix: install `fault` at site 1 in `window`, run
/// every strategy under `distributed(2)` over real sockets, and assert
/// the contract for that window.
fn run_matrix_cell(fault: Fault, window: FaultWindow) {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = chaos_setup(FaultPlan::new().fault(1, fault, window));
    let catalog = catalog();
    let query = query();
    let policy = ExecPolicy::distributed(2);

    for strat in GMDJ_STRATEGIES {
        let oracle = run_with_policy(&query, &catalog, strat, ExecPolicy::sequential())
            .unwrap_or_else(|e| panic!("{strat:?}: sequential run failed: {e}"))
            .relation;
        let result = run_with_policy(&query, &catalog, strat, policy);
        match window {
            FaultWindow::FirstAttemptOnly => {
                // The retry must recover *exactly*: bit-identical result
                // multiset, not a lossy answer missing the faulted
                // site's contribution.
                let got = result.unwrap_or_else(|e| {
                    panic!("{strat:?} under {fault:?}/retry did not recover: {e}")
                });
                assert!(
                    oracle.multiset_eq(&got.relation),
                    "{strat:?} under {fault:?}: retry recovered a WRONG answer\n\
                     sequential ({} rows):\n{oracle}\nrecovered ({} rows):\n{}",
                    oracle.len(),
                    got.relation.len(),
                    got.relation,
                );
            }
            FaultWindow::Always => {
                // Retries must exhaust into a clean diagnostic naming
                // the faulted site — never a wrong answer, never a hang.
                let err = match result {
                    Err(e) => e.to_string(),
                    Ok(got) => panic!(
                        "{strat:?} under {fault:?}/always: returned {} rows instead of \
                         failing (a permanently faulted site must not be silently dropped)",
                        got.relation.len()
                    ),
                };
                assert!(
                    err.contains("site1"),
                    "{strat:?} under {fault:?}: error does not name the faulted site: {err}"
                );
                assert!(
                    err.contains("attempts"),
                    "{strat:?} under {fault:?}: error does not mention retry exhaustion: {err}"
                );
            }
        }
    }

    // The policy-free strategies never touch the transport: the fault
    // plan must be invisible to them in both windows.
    for strat in POLICY_FREE_STRATEGIES {
        let got = run_with_policy(&query, &catalog, strat, ExecPolicy::sequential())
            .unwrap_or_else(|e| panic!("{strat:?} failed with a fault plan installed: {e}"));
        assert!(!got.relation.schema().fields().is_empty());
    }
}

macro_rules! chaos_case {
    ($name:ident, $fault:expr, $window:expr) => {
        #[test]
        fn $name() {
            with_watchdog(stringify!($name), || run_matrix_cell($fault, $window));
        }
    };
}

chaos_case!(
    crash_before_eval_recovers,
    Fault::CrashBeforeEval,
    FaultWindow::FirstAttemptOnly
);
chaos_case!(
    crash_before_eval_exhausts,
    Fault::CrashBeforeEval,
    FaultWindow::Always
);
chaos_case!(
    crash_after_eval_recovers,
    Fault::CrashAfterEval,
    FaultWindow::FirstAttemptOnly
);
chaos_case!(
    crash_after_eval_exhausts,
    Fault::CrashAfterEval,
    FaultWindow::Always
);
chaos_case!(
    truncated_frame_recovers,
    Fault::TruncateFrame,
    FaultWindow::FirstAttemptOnly
);
chaos_case!(
    truncated_frame_exhausts,
    Fault::TruncateFrame,
    FaultWindow::Always
);
chaos_case!(
    delayed_site_recovers,
    Fault::Delay { ms: DELAY_MS },
    FaultWindow::FirstAttemptOnly
);
chaos_case!(
    delayed_site_exhausts,
    Fault::Delay { ms: DELAY_MS },
    FaultWindow::Always
);
chaos_case!(
    garbled_length_recovers,
    Fault::GarbleLengthPrefix,
    FaultWindow::FirstAttemptOnly
);
chaos_case!(
    garbled_length_exhausts,
    Fault::GarbleLengthPrefix,
    FaultWindow::Always
);

/// A recovered run is observable: the retry increments the
/// `site_retries_total` metric, and the byte counters cover every
/// attempt (so a faulted round-trip reports *more* traffic than a clean
/// one, never less).
#[test]
fn recovery_is_visible_in_metrics_and_byte_counters() {
    with_watchdog("recovery_observability", || {
        let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let catalog = catalog();
        let query = query();
        let policy = ExecPolicy::distributed(2);

        // Clean baseline first (no faults): capture per-run wire bytes.
        wire::set_config(CHAOS_CONFIG);
        let clean = run_with_policy(&query, &catalog, Strategy::GmdjOptimized, policy)
            .expect("clean distributed run");
        let clean_net = clean
            .plan_stats
            .as_ref()
            .expect("gmdj runs record plan stats")
            .total_network();
        assert!(clean_net.bytes_sent > 0 && clean_net.bytes_received > 0);

        let _guard = chaos_setup(FaultPlan::new().fault(
            1,
            Fault::CrashAfterEval,
            FaultWindow::FirstAttemptOnly,
        ));
        let retries_before = gmdj_core::metrics::global().counter("site_retries_total");
        let recovered = run_with_policy(&query, &catalog, Strategy::GmdjOptimized, policy)
            .expect("faulted run must recover via retry");
        let retries_after = gmdj_core::metrics::global().counter("site_retries_total");
        assert!(
            retries_after > retries_before,
            "recovery did not increment site_retries_total \
             ({retries_before} -> {retries_after})"
        );
        assert!(clean.relation.multiset_eq(&recovered.relation));

        let net = recovered.plan_stats.as_ref().unwrap().total_network();
        assert!(
            net.bytes_sent > clean_net.bytes_sent,
            "retried run must count the faulted attempt's request bytes too \
             (clean {} vs faulted {})",
            clean_net.bytes_sent,
            net.bytes_sent,
        );
        // The value-count counters are closed forms of |B| and the spec:
        // identical whether or not a retry happened.
        assert_eq!(clean_net.broadcast_values, net.broadcast_values);
        assert_eq!(clean_net.collected_states, net.collected_states);
        assert_eq!(clean_net.messages, net.messages);
    });
}

/// Core-level workload for the stitched-trace cases: driving the
/// runtime directly (no engine wrapper) lets each case install its own
/// `CollectingSink` and inspect the coordinator's stitched span tree.
fn trace_workload() -> (Relation, Relation, GmdjSpec) {
    let mut b = RelationBuilder::new("B").column("Lo", DataType::Int);
    for lo in [0, 10, 20, 30] {
        b = b.row(vec![lo.into()]);
    }
    let mut d = RelationBuilder::new("F")
        .column("T", DataType::Int)
        .column("V", DataType::Int);
    for t in 0..24 {
        d = d.row(vec![(t * 2).into(), (t % 5).into()]);
    }
    let spec = GmdjSpec::new(vec![AggBlock::new(
        col("F.T").ge(col("B.Lo")),
        vec![NamedAgg::sum(col("F.V"), "s")],
    )]);
    (b.build().unwrap(), d.build().unwrap(), spec)
}

/// The stitched trace under every fault: a failed attempt's site-side
/// spans die with that attempt's sink, so the coordinator tree carries
/// spans from the successful attempt only — exactly once per round-trip
/// — and a retry-exhausted site contributes no stitched spans at all.
#[test]
fn failed_attempts_never_reach_the_stitched_trace() {
    with_watchdog("stitched_trace", || {
        let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (base, detail, spec) = trace_workload();
        let policy = ExecPolicy::distributed(2);
        let faults = [
            Fault::CrashBeforeEval,
            Fault::CrashAfterEval,
            Fault::TruncateFrame,
            Fault::Delay { ms: DELAY_MS },
            Fault::GarbleLengthPrefix,
        ];
        for fault in faults {
            // Recovery window: site 1 fails attempt 0, succeeds on 1.
            {
                let _guard =
                    chaos_setup(FaultPlan::new().fault(1, fault, FaultWindow::FirstAttemptOnly));
                let sink = Arc::new(CollectingSink::new());
                let mut node = PlanNodeStats::new("GMDJ");
                Runtime::with_sink(policy, sink.clone())
                    .eval(&base, &detail, &spec, None, Keep::All, None, &mut node)
                    .unwrap_or_else(|e| panic!("{fault:?}/retry did not recover: {e}"));

                let evals = sink.by_name("site.eval");
                let roundtrips = sink.by_name("site.roundtrip");
                assert_eq!(
                    evals.len(),
                    roundtrips.len(),
                    "{fault:?}: expected exactly one stitched site.eval per round-trip"
                );
                // Each stitched span names a distinct coordinator
                // round-trip — a double stitch would repeat a parent id.
                let mut parents: Vec<u64> = evals
                    .iter()
                    .map(|e| {
                        e.field("parent_span")
                            .expect("stitched span carries parent")
                    })
                    .collect();
                parents.sort_unstable();
                parents.dedup();
                assert_eq!(parents.len(), evals.len(), "{fault:?}: duplicated stitch");
                for ev in &evals {
                    let site = ev.field("site").unwrap();
                    let attempt = ev.field("attempt").unwrap();
                    if site == 1 {
                        assert_eq!(
                            attempt, 1,
                            "{fault:?}: the faulted site's stitched span must come from \
                             the retry, never the failed attempt"
                        );
                    } else {
                        assert_eq!(attempt, 0, "{fault:?}: clean site retried unexpectedly");
                    }
                }
            }
            // Exhaustion window: the faulted site never ships spans.
            {
                let _guard = chaos_setup(FaultPlan::new().fault(1, fault, FaultWindow::Always));
                let sink = Arc::new(CollectingSink::new());
                let mut node = PlanNodeStats::new("GMDJ");
                let err = Runtime::with_sink(policy, sink.clone())
                    .eval(&base, &detail, &spec, None, Keep::All, None, &mut node)
                    .err()
                    .unwrap_or_else(|| panic!("{fault:?}/always must exhaust into an error"));
                let msg = err.to_string();
                assert!(msg.contains("site1"), "{fault:?}: {msg}");
                assert!(msg.contains("attempts"), "{fault:?}: {msg}");
                for ev in sink.by_name("site.eval") {
                    assert_ne!(
                        ev.field("site"),
                        Some(1),
                        "{fault:?}: a retry-exhausted site must not contribute stitched spans"
                    );
                }
            }
        }
    });
}

/// Faults at every site at once: retries recover each independently.
#[test]
fn all_sites_faulted_still_recovers() {
    with_watchdog("all_sites_faulted", || {
        let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _guard = chaos_setup(
            FaultPlan::new()
                .fault(0, Fault::TruncateFrame, FaultWindow::FirstAttemptOnly)
                .fault(1, Fault::CrashBeforeEval, FaultWindow::FirstAttemptOnly),
        );
        let catalog = catalog();
        let query = query();
        let oracle = run_with_policy(
            &query,
            &catalog,
            Strategy::GmdjOptimized,
            ExecPolicy::sequential(),
        )
        .unwrap()
        .relation;
        let got = run_with_policy(
            &query,
            &catalog,
            Strategy::GmdjOptimized,
            ExecPolicy::distributed(2),
        )
        .expect("both faulted sites must recover")
        .relation;
        assert!(oracle.multiset_eq(&got), "oracle:\n{oracle}\ngot:\n{got}");
    });
}
