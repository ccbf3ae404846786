//! Observability acceptance tests.
//!
//! * The `gmdj.eval` span's counter deltas reconcile **exactly** with the
//!   rolled-up [`PlanNodeStats`] under every [`ExecPolicy`] — the profiler
//!   never shows numbers the runtime didn't count.
//! * Distributed runs report the closed-form network costs of Section 6
//!   (`broadcast_values = base_rows × sites`, `messages = 2 × sites` for a
//!   single-column base relation) and render them in EXPLAIN ANALYZE.
//! * The Runtime feeds the process-wide metrics registry.
//! * `repro --profile-json` output parses and validates against the
//!   checked-in schema, and the plan trees survive a JSON round-trip.
//! * Query progress reconciles exactly: `morsels_done == morsels_total`
//!   at completion under Sequential, Parallel and Distributed, matched
//!   against the `gmdj.partition` / `gmdj.worker` / `site.roundtrip`
//!   span stream.
//! * The flight recorder retains an exact suffix of what a
//!   [`CollectingSink`] sees for the same run — lossless below capacity,
//!   overwrite-counted above it.

use std::sync::Arc;

use gmdj_bench::{profile, run_figure_with, FigureId};
use gmdj_core::eval::Keep;
use gmdj_core::metrics;
use gmdj_core::progress::ProgressRegistry;
use gmdj_core::runtime::{ExecMode, ExecPolicy, PlanNodeStats, Runtime};
use gmdj_core::spec::{AggBlock, GmdjSpec};
use gmdj_core::trace::{CollectingSink, FlightRecorder, TeeSink, TraceEvent, TraceSink};
use gmdj_relation::agg::NamedAgg;
use gmdj_relation::expr::col;
use gmdj_relation::relation::{Relation, RelationBuilder};
use gmdj_relation::schema::DataType;

/// Single-column base relation so network values == network rows.
fn base() -> Relation {
    let mut b = RelationBuilder::new("B").column("Lo", DataType::Int);
    for lo in [0, 25, 50, 75, 100] {
        b = b.row(vec![lo.into()]);
    }
    b.build().unwrap()
}

fn detail() -> Relation {
    let mut d = RelationBuilder::new("F")
        .column("T", DataType::Int)
        .column("V", DataType::Int);
    for t in 0..40 {
        d = d.row(vec![(t * 3).into(), (t % 7).into()]);
    }
    d.build().unwrap()
}

fn spec() -> GmdjSpec {
    GmdjSpec::new(vec![AggBlock::new(
        col("F.T").ge(col("B.Lo")),
        vec![NamedAgg::sum(col("F.V"), "s")],
    )])
}

#[test]
fn gmdj_eval_span_reconciles_exactly_with_node_counters() {
    for policy in [
        ExecPolicy::sequential(),
        ExecPolicy::parallel(3),
        ExecPolicy::parallel(2).with_partition_rows(Some(2)),
        ExecPolicy::distributed(2),
    ] {
        let sink = Arc::new(CollectingSink::new());
        let mut node = PlanNodeStats::new("GMDJ");
        let out = Runtime::with_sink(policy, sink.clone())
            .eval(
                &base(),
                &detail(),
                &spec(),
                None,
                Keep::All,
                None,
                &mut node,
            )
            .unwrap();
        assert_eq!(out.len(), base().len(), "{policy:?}");

        let evals = sink.by_name("gmdj.eval");
        assert_eq!(evals.len(), 1, "{policy:?}");
        let ev = &evals[0];
        for (key, want) in node
            .eval
            .trace_fields()
            .into_iter()
            .chain(node.network.trace_fields())
        {
            assert_eq!(
                ev.field(key),
                Some(want),
                "field `{key}` diverged under {policy:?}"
            );
        }
        assert!(ev.dur_ns > 0, "{policy:?}");
        assert_eq!(node.invocations, 1);
        assert!(node.elapsed_ns >= ev.dur_ns, "{policy:?}");

        // Partition spans cover the whole base exactly once.
        assert_eq!(
            sink.sum_field("gmdj.partition", "base_rows"),
            node.eval.base_rows,
            "{policy:?}"
        );
        assert_eq!(
            sink.by_name("gmdj.partition").len() as u64,
            node.eval.partitions,
            "{policy:?}"
        );
    }
}

#[test]
fn distributed_network_accounting_matches_closed_form() {
    let base_rows = base().len() as u64;
    for sites in [2usize, 3, 5] {
        let sink = Arc::new(CollectingSink::new());
        let mut node = PlanNodeStats::new("GMDJ");
        Runtime::with_sink(ExecPolicy::distributed(sites), sink.clone())
            .eval(
                &base(),
                &detail(),
                &spec(),
                None,
                Keep::All,
                None,
                &mut node,
            )
            .unwrap();

        // One broadcast wave (the base fits one partition) + one collect
        // wave: values = base_rows × sites (1-column base), 2 messages
        // per site.
        assert_eq!(node.network.broadcast_values, base_rows * sites as u64);
        assert_eq!(node.network.messages, 2 * sites as u64);
        assert_eq!(
            node.network.collected_states,
            base_rows * sites as u64,
            "one aggregate state per base row per site"
        );

        // Per-site round-trip spans carry the same totals.
        assert_eq!(sink.by_name("site.roundtrip").len(), sites);
        assert_eq!(
            sink.sum_field("site.roundtrip", "messages"),
            2 * sites as u64
        );
        assert_eq!(
            sink.sum_field("site.roundtrip", "broadcast_values"),
            base_rows * sites as u64
        );

        // EXPLAIN ANALYZE renders the network column.
        let text = node.render_analyze();
        assert!(text.contains("net="), "{text}");
        assert!(text.contains(&format!("msgs={}", 2 * sites)), "{text}");
    }
}

/// The cross-process trace contract, both transports: the span deltas a
/// site ships back reconcile **exactly** with what the coordinator rolls
/// up — same counters on the stitched `site.eval` spans, on the
/// `site.roundtrip` deltas, in the per-site breakdown, and in the node
/// totals. No transport-dependent drift, no double counting.
#[test]
fn shipped_site_spans_reconcile_exactly_with_coordinator_rollups() {
    let eval_keys = [
        "detail_scanned",
        "probe_candidates",
        "theta_evals",
        "agg_updates",
        "dead_early",
        "done_early",
        "index_builds",
        "completion_fallbacks",
    ];
    for policy in [
        ExecPolicy::distributed(2),
        ExecPolicy::distributed(3).with_partition_rows(Some(2)),
        ExecPolicy::distributed(2).with_real_sites(true),
        ExecPolicy::distributed(3)
            .with_partition_rows(Some(2))
            .with_real_sites(true),
    ] {
        let sites = match policy.mode {
            ExecMode::Distributed { sites } => sites,
            _ => unreachable!(),
        };
        let sink = Arc::new(CollectingSink::new());
        let mut node = PlanNodeStats::new("GMDJ");
        Runtime::with_sink(policy, sink.clone())
            .eval(
                &base(),
                &detail(),
                &spec(),
                None,
                Keep::All,
                None,
                &mut node,
            )
            .unwrap();

        // Exactly one stitched site.eval per coordinator round-trip.
        let evals = sink.by_name("site.eval");
        let roundtrips = sink.by_name("site.roundtrip");
        assert_eq!(evals.len(), roundtrips.len(), "{policy:?}");
        assert!(!evals.is_empty(), "{policy:?}");

        // One query id spans the whole evaluation; every stitched span
        // names a distinct round-trip parent.
        let qid = evals[0].field("query_id").unwrap();
        let mut parents: Vec<u64> = evals
            .iter()
            .map(|e| {
                assert_eq!(e.field("query_id"), Some(qid), "{policy:?}");
                e.field("parent_span").unwrap()
            })
            .collect();
        parents.sort_unstable();
        parents.dedup();
        assert_eq!(parents.len(), evals.len(), "{policy:?}: duplicated stitch");

        // Shipped deltas == coordinator-merged deltas == node totals,
        // key by key. (partitions / base_rows / chunk reads are
        // coordinator-side closed forms; sites never count them.)
        for key in eval_keys {
            let shipped = sink.sum_field("site.eval", key);
            let merged = sink.sum_field("site.roundtrip", key);
            assert_eq!(shipped, merged, "{policy:?}: `{key}` drifted in transit");
            assert_eq!(
                merged,
                node.eval
                    .trace_fields()
                    .iter()
                    .find(|(k, _)| *k == key)
                    .unwrap()
                    .1,
                "{policy:?}: `{key}` rollup diverged"
            );
        }
        for (key, want) in node.network.trace_fields() {
            assert_eq!(
                sink.sum_field("site.roundtrip", key),
                want,
                "{policy:?}: network `{key}` diverged"
            );
        }

        // The per-site breakdown agrees with all of the above.
        assert_eq!(node.sites.len(), sites, "{policy:?}");
        let rt_total: u64 = node.sites.iter().map(|s| s.roundtrips).sum();
        assert_eq!(rt_total as usize, roundtrips.len(), "{policy:?}");
        let scanned: u64 = node.sites.iter().map(|s| s.rows_scanned).sum();
        assert_eq!(scanned, node.eval.detail_scanned, "{policy:?}");
        let sent: u64 = node.sites.iter().map(|s| s.bytes_sent).sum();
        let recv: u64 = node.sites.iter().map(|s| s.bytes_received).sum();
        assert_eq!(sent, node.network.bytes_sent, "{policy:?}");
        assert_eq!(recv, node.network.bytes_received, "{policy:?}");
        let wall: u64 = node.sites.iter().map(|s| s.site_wall_ns).sum();
        assert_eq!(
            wall,
            sink.sum_field("site.roundtrip", "wall_ns"),
            "{policy:?}"
        );
        assert_eq!(
            wall,
            evals.iter().map(|e| e.dur_ns).sum::<u64>(),
            "{policy:?}: shipped site.eval durations are the site wall-clock"
        );
        for s in &node.sites {
            assert_eq!(s.attempts, s.roundtrips, "{policy:?}: clean run retried");
            assert!(s.roundtrip_ns >= s.site_wall_ns + s.wire_ns(), "{policy:?}");
        }
        // The socket transport measures real bytes; in-process ships none.
        if policy.real_sites {
            assert!(sent > 0 && recv > 0, "{policy:?}");
        } else {
            assert_eq!(sent, 0, "{policy:?}");
            assert_eq!(recv, 0, "{policy:?}");
        }

        // EXPLAIN ANALYZE renders one breakdown line per site.
        let text = node.render_analyze();
        for s in &node.sites {
            assert!(text.contains(&s.label), "{policy:?}: {text}");
        }
        assert!(text.contains("rt="), "{text}");
        assert!(text.contains("wire="), "{text}");
        assert!(text.contains("merge="), "{text}");
    }
}

/// Same reconciliation one layer up: every GMDJ strategy the engine can
/// route through the distributed runtime reports a per-site breakdown in
/// its plan stats whose totals match the rolled-up counters — over real
/// sockets and in-process alike.
#[test]
fn every_strategy_reports_a_reconciled_site_breakdown() {
    use gmdj_algebra::ast::{NestedPredicate, QueryExpr, SubqueryPred};
    use gmdj_core::exec::MemoryCatalog;
    use gmdj_engine::strategy::{run_with_policy, Strategy};
    use gmdj_relation::expr::col;
    use gmdj_relation::schema::Schema;
    use gmdj_relation::value::Value;

    fn collect_site_nodes(root: &PlanNodeStats) -> Vec<&PlanNodeStats> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if !n.sites.is_empty() {
                out.push(n);
            }
            stack.extend(n.children.iter());
        }
        out
    }

    let b_schema = Schema::qualified("B", &[("a", DataType::Int), ("b", DataType::Int)]);
    let b_rows = (0..10)
        .map(|i| vec![Value::Int(i % 4), Value::Int(i % 3)].into_boxed_slice())
        .collect();
    let r_schema = Schema::qualified("R", &[("a", DataType::Int), ("b", DataType::Int)]);
    let r_rows = (0..30)
        .map(|i| vec![Value::Int(i % 6), Value::Int(i % 5)].into_boxed_slice())
        .collect();
    let catalog = MemoryCatalog::new()
        .with("B", Relation::from_parts(b_schema, b_rows))
        .with("R", Relation::from_parts(r_schema, r_rows));
    let query =
        QueryExpr::table("B", "B").select(NestedPredicate::Subquery(SubqueryPred::Exists {
            query: Box::new(QueryExpr::table("R", "R1").select_flat(col("R1.a").eq(col("B.a")))),
            negated: false,
        }));

    let strategies = [
        Strategy::GmdjBasic,
        Strategy::GmdjOptimized,
        Strategy::GmdjBasicNoProbeIndex,
        Strategy::GmdjOptimizedNoProbeIndex,
        Strategy::GmdjCostBased,
    ];
    for real in [false, true] {
        let policy = ExecPolicy::distributed(2).with_real_sites(real);
        for strat in strategies {
            let run = run_with_policy(&query, &catalog, strat, policy)
                .unwrap_or_else(|e| panic!("{strat:?} (real={real}): {e}"));
            let stats = run
                .plan_stats
                .as_ref()
                .expect("gmdj strategies record plan stats");
            let nodes = collect_site_nodes(stats);
            assert!(
                !nodes.is_empty(),
                "{strat:?} (real={real}): no node carries a site breakdown"
            );
            for node in nodes {
                assert_eq!(node.sites.len(), 2, "{strat:?}");
                let scanned: u64 = node.sites.iter().map(|s| s.rows_scanned).sum();
                assert_eq!(scanned, node.eval.detail_scanned, "{strat:?} (real={real})");
                let sent: u64 = node.sites.iter().map(|s| s.bytes_sent).sum();
                let recv: u64 = node.sites.iter().map(|s| s.bytes_received).sum();
                assert_eq!(sent, node.network.bytes_sent, "{strat:?} (real={real})");
                assert_eq!(recv, node.network.bytes_received, "{strat:?} (real={real})");
                if real {
                    assert!(sent > 0 && recv > 0, "{strat:?}");
                }
                let frag: u64 = node.sites.iter().map(|s| s.fragment_rows).sum();
                assert_eq!(frag, 30, "{strat:?}: fragments must cover the detail");
                let text = node.render_analyze();
                assert!(text.contains("rt=") && text.contains("wire="), "{text}");
            }
        }
    }
}

#[test]
fn runtime_reports_into_the_global_metrics_registry() {
    let m = metrics::global();
    let evals_before = m.counter("gmdj_evals_total");
    let scanned_before = m.counter("gmdj_detail_scanned_total");

    let mut node = PlanNodeStats::new("GMDJ");
    Runtime::sequential()
        .eval(
            &base(),
            &detail(),
            &spec(),
            None,
            Keep::All,
            None,
            &mut node,
        )
        .unwrap();

    // Other tests in this binary may run concurrently, so assert growth
    // by at least this evaluation's contribution, not exact equality.
    assert!(m.counter("gmdj_evals_total") > evals_before);
    assert!(m.counter("gmdj_detail_scanned_total") >= scanned_before + node.eval.detail_scanned);
    let prom = m.render_prometheus();
    assert!(prom.contains("gmdj_evals_total"), "{prom}");
    assert!(
        prom.contains("# TYPE gmdj_eval_latency_us histogram"),
        "{prom}"
    );
}

#[test]
fn progress_reconciles_with_the_span_stream_under_every_mode() {
    let registry: &'static ProgressRegistry = Box::leak(Box::new(ProgressRegistry::new()));
    let policies = [
        ExecPolicy::sequential(),
        ExecPolicy::sequential().with_partition_rows(Some(2)),
        ExecPolicy::parallel(3).with_morsel_size(Some(8)),
        ExecPolicy::parallel(2)
            .with_partition_rows(Some(2))
            .with_morsel_size(Some(16)),
        ExecPolicy::distributed(2),
        ExecPolicy::distributed(3).with_partition_rows(Some(3)),
    ];
    for policy in policies {
        let sink = Arc::new(CollectingSink::new());
        let ticket = registry.register("MD(B, F, sum)", "runtime", policy.label());
        let progress = ticket.progress();
        let mut node = PlanNodeStats::new("GMDJ");
        Runtime::with_sink(policy, sink.clone())
            .with_progress(progress.clone())
            .eval(
                &base(),
                &detail(),
                &spec(),
                None,
                Keep::All,
                None,
                &mut node,
            )
            .unwrap();

        // End state: the announced closed-form schedule was met exactly
        // and the row ticks equal the evaluator's own scan counter.
        let snap = progress.snapshot();
        assert!(snap.morsels_total > 0, "{policy:?}");
        assert_eq!(snap.morsels_done, snap.morsels_total, "{policy:?}");
        assert_eq!(snap.rows_done, node.eval.detail_scanned, "{policy:?}");

        // The ticks reconcile with the mode's span stream: partitions
        // (Sequential), pulled morsels summed over `gmdj.worker` spans
        // (Parallel), site round-trips (Distributed).
        let spans = match policy.mode {
            ExecMode::Sequential => sink.by_name("gmdj.partition").len() as u64,
            ExecMode::Parallel { .. } => sink.sum_field("gmdj.worker", "morsels"),
            ExecMode::Distributed { .. } => sink.by_name("site.roundtrip").len() as u64,
        };
        assert_eq!(snap.morsels_done, spans, "{policy:?}");
    }
    // Every ticket dropped: nothing left active, finals folded in.
    let (active, totals) = registry.snapshot();
    assert!(active.is_empty());
    assert_eq!(totals.queries_started, policies.len() as u64);
    assert_eq!(totals.queries_finished, policies.len() as u64);
    assert_eq!(totals.morsels_done, totals.morsels_total);
}

#[test]
fn flight_recorder_retains_exact_suffix_of_the_span_stream() {
    // Single-threaded policy: the tee feeds both sinks in one record
    // call, so the ring's order matches the collecting sink's exactly.
    let policy = ExecPolicy::sequential().with_partition_rows(Some(1));
    let run = |flight: Arc<FlightRecorder>| -> (Vec<TraceEvent>, Vec<TraceEvent>, u64) {
        let collecting = Arc::new(CollectingSink::new());
        let tee: Arc<dyn TraceSink> = Arc::new(TeeSink::new(collecting.clone(), flight.clone()));
        let mut node = PlanNodeStats::new("GMDJ");
        Runtime::with_sink(policy, tee)
            .eval(
                &base(),
                &detail(),
                &spec(),
                None,
                Keep::All,
                None,
                &mut node,
            )
            .unwrap();
        let (retained, dropped) = flight.snapshot();
        (collecting.events(), retained, dropped)
    };

    // Below capacity: lossless — the ring holds the entire stream.
    let (all, retained, dropped) = run(Arc::new(FlightRecorder::with_capacity(4096)));
    assert!(all.len() > 4, "the partition-per-row run emits many spans");
    assert_eq!(dropped, 0);
    assert_eq!(retained, all);

    // Above capacity: exactly the stream's suffix survives, and the
    // overwrite counter accounts for every event that fell off.
    let (all, retained, dropped) = run(Arc::new(FlightRecorder::with_capacity(4)));
    assert_eq!(retained.len(), 4);
    assert_eq!(dropped as usize, all.len() - 4);
    assert_eq!(retained.as_slice(), &all[all.len() - 4..]);
}

/// Measurement harness for EXPERIMENTS.md § "Span-shipping overhead":
/// the same distributed real-sites evaluation with span shipping on
/// (live `CollectingSink`, `trace=true` on the wire) vs off
/// (`NullSink`, sites ship counters and wall-clock only). Ignored by
/// default — run with
/// `cargo test --release --test observability overhead -- --ignored --nocapture`.
#[test]
#[ignore]
fn measure_span_shipping_overhead() {
    use gmdj_core::trace::NullSink;
    use std::time::Instant;

    let mut b = RelationBuilder::new("B").column("Lo", DataType::Int);
    for lo in 0..200 {
        b = b.row(vec![(lo * 40).into()]);
    }
    let base = b.build().unwrap();
    let mut d = RelationBuilder::new("F")
        .column("T", DataType::Int)
        .column("V", DataType::Int);
    for t in 0..20_000 {
        d = d.row(vec![(t % 8000).into(), (t % 13).into()]);
    }
    let detail = d.build().unwrap();
    let policy = ExecPolicy::distributed(4).with_real_sites(true);

    let run = |traced: bool| -> u64 {
        let mut node = PlanNodeStats::new("GMDJ");
        let rt = if traced {
            Runtime::with_sink(policy, Arc::new(CollectingSink::new()))
        } else {
            Runtime::with_sink(policy, Arc::new(NullSink))
        };
        let start = Instant::now();
        rt.eval(&base, &detail, &spec(), None, Keep::All, None, &mut node)
            .unwrap();
        start.elapsed().as_nanos() as u64
    };

    // Warm-up, then interleave the arms so drift hits both equally.
    for _ in 0..3 {
        run(true);
        run(false);
    }
    const N: usize = 40;
    let mut on = Vec::with_capacity(N);
    let mut off = Vec::with_capacity(N);
    for _ in 0..N {
        on.push(run(true));
        off.push(run(false));
    }
    on.sort_unstable();
    off.sort_unstable();
    // Trimmed mean over the middle half, like the bench harness.
    let trimmed = |v: &[u64]| -> f64 {
        let q = v.len() / 4;
        let mid = &v[q..v.len() - q];
        mid.iter().sum::<u64>() as f64 / mid.len() as f64
    };
    let (t_on, t_off) = (trimmed(&on), trimmed(&off));
    println!(
        "span shipping on:  {:.3} ms (median {:.3} ms)\n\
         span shipping off: {:.3} ms (median {:.3} ms)\n\
         ratio on/off: {:.3}",
        t_on / 1e6,
        on[N / 2] as f64 / 1e6,
        t_off / 1e6,
        off[N / 2] as f64 / 1e6,
        t_on / t_off,
    );
}

#[test]
fn profile_json_validates_and_round_trips_plan_trees() {
    let policy = ExecPolicy::parallel(2);
    let figs = [run_figure_with(FigureId::Fig2, 0.002, 7, policy).unwrap()];
    let doc = profile::render_profile(&figs, &policy, 0.002, 7);

    let parsed = profile::parse_json(&doc).expect("profile emits valid JSON");
    profile::validate_profile(&parsed).expect("profile matches its schema");

    // Every GMDJ measurement carries a timed plan tree, and the profile
    // holds exactly its JSON rendering.
    let mut trees = 0;
    let figures = parsed.get("figures").unwrap().as_arr().unwrap();
    for (fig_json, fig) in figures.iter().zip(&figs) {
        let points = fig_json.get("points").unwrap().as_arr().unwrap();
        for (point_json, point) in points.iter().zip(&fig.points) {
            let ms = point_json.get("measurements").unwrap().as_arr().unwrap();
            for (m, measured) in ms.iter().zip(&point.measurements) {
                let strategy = m.get("strategy").unwrap().as_str().unwrap();
                assert_eq!(strategy, measured.strategy.label());
                if strategy.starts_with("gmdj") {
                    let tree = measured.plan.as_ref().expect(strategy);
                    assert!(tree.elapsed_ns > 0, "{strategy}");
                    assert_eq!(
                        profile::parse_json(&tree.to_json()).unwrap(),
                        *m.get("plan").unwrap(),
                        "{strategy}: the profile must hold the tree's rendering"
                    );
                    trees += 1;
                }
            }
        }
    }
    assert!(trees > 0, "Figure 2 runs GMDJ strategies");
}
