//! Property tests for the GMDJ evaluator and optimizer: every evaluation
//! strategy variant (probe plans, partitioning, coalescing, completion)
//! computes the same relation.

use proptest::prelude::*;

use gmdj_core::completion::derive_completion;
use gmdj_core::completion::CompletionPlan;
use gmdj_core::distributed::NetworkStats;
use gmdj_core::eval::{EvalStats, Keep, ProbeStrategy};
use gmdj_core::exec::{execute, ExecContext, MemoryCatalog};
use gmdj_core::optimize::{optimize_with, OptFlags};
use gmdj_core::plan::GmdjExpr;
use gmdj_core::runtime::{ExecPolicy, PlanNodeStats, Runtime};
use gmdj_core::spec::{AggBlock, GmdjSpec};
use gmdj_core::trace::CollectingSink;
use gmdj_relation::agg::{AggFunc, NamedAgg};
use gmdj_relation::expr::{col, lit, CmpOp, Predicate, ScalarExpr};
use gmdj_relation::relation::Relation;
use gmdj_relation::schema::{ColumnRef, DataType, Schema};
use gmdj_relation::value::Value;
use std::sync::Arc;

/// The filtered GMDJ through `Runtime::eval` under `policy`, with the
/// counters it recorded.
fn filtered(
    policy: ExecPolicy,
    b: &Relation,
    r: &Relation,
    s: &GmdjSpec,
    sel: Option<&Predicate>,
    keep: Keep,
    plan: Option<&CompletionPlan>,
) -> (Relation, EvalStats) {
    let mut node = PlanNodeStats::new("GMDJ");
    let out = Runtime::new(policy)
        .eval(b, r, s, sel, keep, plan, &mut node)
        .unwrap();
    (out, node.eval)
}

/// The plain GMDJ `MD(b, r, s)` through `Runtime::eval` under `policy`.
fn plain(policy: ExecPolicy, b: &Relation, r: &Relation, s: &GmdjSpec) -> (Relation, EvalStats) {
    filtered(policy, b, r, s, None, Keep::All, None)
}

/// Definition 2.1 verbatim: for every base tuple, every detail tuple and
/// every block, evaluate θ and fold the pair into that block's
/// aggregates. No probe plan, no kernel, no partitioning — the reference
/// every policy is judged against.
fn nested_loop_gmdj(b: &Relation, r: &Relation, s: &GmdjSpec) -> Relation {
    let scopes = [b.schema().as_ref(), r.schema().as_ref()];
    let blocks: Vec<_> = s
        .blocks
        .iter()
        .map(|block| {
            let theta = block.theta.bind(&scopes).unwrap();
            let aggs: Vec<_> = block
                .aggs
                .iter()
                .map(|a| a.bind(&scopes).unwrap())
                .collect();
            (theta, aggs)
        })
        .collect();
    let mut out = Vec::with_capacity(b.len());
    for b_row in b.rows() {
        let mut accs: Vec<Vec<_>> = blocks
            .iter()
            .map(|(_, aggs)| aggs.iter().map(|a| a.accumulator()).collect())
            .collect();
        for r_row in r.rows() {
            let pair: [&[Value]; 2] = [b_row, r_row];
            for ((theta, aggs), block_accs) in blocks.iter().zip(&mut accs) {
                if theta.eval(&pair).unwrap().passes() {
                    for (agg, acc) in aggs.iter().zip(block_accs.iter_mut()) {
                        agg.update(acc, &pair).unwrap();
                    }
                }
            }
        }
        let mut row = b_row.to_vec();
        row.extend(accs.iter().flatten().map(|acc| acc.finish()));
        out.push(row.into_boxed_slice());
    }
    Relation::from_parts(s.output_schema(b.schema()), out)
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => (0i64..5).prop_map(Value::Int),
        1 => Just(Value::Null),
    ]
}

fn relation(qualifier: &'static str, max_rows: usize) -> impl Strategy<Value = Relation> {
    let schema = Schema::qualified(qualifier, &[("k", DataType::Int), ("v", DataType::Int)]);
    proptest::collection::vec((value(), value()), 0..max_rows).prop_map(move |rows| {
        Relation::from_parts(
            schema.clone(),
            rows.into_iter()
                .map(|(k, v)| vec![k, v].into_boxed_slice())
                .collect(),
        )
    })
}

/// Keys over a wide, negative domain: `0..5` stretched by 1,000,003 and
/// shifted down, so every hash probe goes through the sparse CSR layout.
fn wide_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => (0i64..5).prop_map(|k| Value::Int((k - 2) * 1_000_003)),
        1 => Just(Value::Null),
    ]
}

/// Finite float cells, `-0.0` included. With `exact`, every value and
/// every sum of up to 16 of them is a binary fraction that `f64` holds
/// exactly, so partial sums merged in any order give one result; without
/// it, sums round and depend on the fold order.
fn float_value(exact: bool) -> impl Strategy<Value = Value> {
    const EXACT: [f64; 7] = [-0.0, 0.0, 0.5, -1.25, 2.75, 1024.0, -3.5];
    const ROUNDING: [f64; 7] = [-0.0, 0.1, 1e16, -1e16, 3.3, 2.0, -7.7];
    let domain = if exact { EXACT } else { ROUNDING };
    prop_oneof![
        4 => (0..domain.len()).prop_map(move |i| Value::Float(domain[i])),
        1 => Just(Value::Null),
    ]
}

/// A relation with wide Int keys `k` and a Float column `v`.
fn float_relation(
    qualifier: &'static str,
    max_rows: usize,
    exact: bool,
) -> impl Strategy<Value = Relation> {
    let schema = Schema::qualified(qualifier, &[("k", DataType::Int), ("v", DataType::Float)]);
    proptest::collection::vec((wide_key(), float_value(exact)), 0..max_rows).prop_map(move |rows| {
        Relation::from_parts(
            schema.clone(),
            rows.into_iter()
                .map(|(k, v)| vec![k, v].into_boxed_slice())
                .collect(),
        )
    })
}

/// The filtered reference: Definition 2.1's relation, the selection,
/// then the `keep` projection.
fn filtered_reference(
    b: &Relation,
    r: &Relation,
    s: &GmdjSpec,
    sel: &Predicate,
    keep: Keep,
) -> Relation {
    let full = nested_loop_gmdj(b, r, s);
    let bound = sel.bind(&[full.schema().as_ref()]).unwrap();
    let rows = full
        .rows()
        .iter()
        .filter(|row| bound.eval(&[row]).unwrap().passes())
        .map(|row| match keep {
            Keep::All => row.clone(),
            Keep::BaseOnly => row[..b.schema().len()].to_vec().into_boxed_slice(),
        })
        .collect();
    let schema = match keep {
        Keep::All => full.schema().clone(),
        Keep::BaseOnly => b.schema().clone(),
    };
    Relation::from_parts(schema, rows)
}

/// Rows as sorted `Debug` text: unlike `multiset_eq`, it tells `Int(1)`
/// from `Float(1.0)` and `-0.0` from `0.0`, and prints every float in
/// full, so two relations with equal text are bit-identical.
fn exact_rows(rel: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.rows().iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Two blocks sharing θ₁'s correlation, the second folding `f` over the
/// detail's `v`, and a count selection of the translation's shapes.
fn filtered_case(
    t1: Predicate,
    t2: Predicate,
    f: AggFunc,
    sel_kind: usize,
) -> (GmdjSpec, Predicate) {
    let extra = if f == AggFunc::CountStar {
        NamedAgg::count_star("x")
    } else {
        NamedAgg::new(f, col("R.v"), "x")
    };
    let s = GmdjSpec::new(vec![
        AggBlock::count(t1.clone(), "c1"),
        AggBlock::new(t1.and(t2), vec![NamedAgg::count_star("c2"), extra]),
    ]);
    let sel = match sel_kind {
        0 => col("c1").gt(lit(0)),
        1 => col("c1").eq(lit(0)),
        2 => col("c1").gt(lit(0)).and(col("c2").eq(lit(0))),
        _ => col("c2").eq(col("c1")),
    };
    (s, sel)
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// θ conditions of the shapes the translation produces: correlation
/// equality, inequality correlation, band-ish comparisons, local filters.
fn theta() -> impl Strategy<Value = Predicate> {
    let conjunct = prop_oneof![
        2 => Just(col("B.k").eq(col("R.k"))),
        1 => (cmp_op()).prop_map(|op| {
            ScalarExpr::Column(ColumnRef::qualified("B", "k")).cmp_with(op, col("R.k"))
        }),
        1 => (cmp_op(), 0i64..5).prop_map(|(op, c)| {
            ScalarExpr::Column(ColumnRef::qualified("R", "v")).cmp_with(op, lit(c))
        }),
        1 => Just(col("R.v").ge(col("B.k")).and(col("R.v").lt(col("B.v")))),
        1 => Just(Predicate::true_()),
    ];
    proptest::collection::vec(conjunct, 1..3).prop_map(Predicate::conjoin)
}

fn agg_func() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::CountStar),
        Just(AggFunc::Count),
        Just(AggFunc::CountDistinct),
        Just(AggFunc::Sum),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
        Just(AggFunc::Avg),
    ]
}

fn spec() -> impl Strategy<Value = GmdjSpec> {
    proptest::collection::vec((theta(), agg_func()), 1..4).prop_map(|blocks| {
        GmdjSpec::new(
            blocks
                .into_iter()
                .enumerate()
                .map(|(i, (t, f))| {
                    let agg = if f == AggFunc::CountStar {
                        NamedAgg::count_star(format!("a{i}"))
                    } else {
                        NamedAgg::new(f, col("R.v"), format!("a{i}"))
                    };
                    AggBlock::new(t, vec![agg])
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Probe plans are an optimization, never a semantics change: Auto
    /// (hash/interval/scan) equals ForceScan.
    #[test]
    fn probe_plans_are_semantics_preserving(
        b in relation("B", 10),
        r in relation("R", 14),
        s in spec(),
    ) {
        let (auto, _) = plain(ExecPolicy::sequential(), &b, &r, &s);
        let scan_policy = ExecPolicy::sequential().with_probe(ProbeStrategy::ForceScan);
        let (scan, _) = plain(scan_policy, &b, &r, &s);
        prop_assert!(auto.multiset_eq(&scan));
    }

    /// Memory-partitioned evaluation (k base tuples per detail scan)
    /// equals the single-scan evaluation for every partition size.
    #[test]
    fn partitioning_is_semantics_preserving(
        b in relation("B", 12),
        r in relation("R", 12),
        s in spec(),
        partition in 1usize..6,
    ) {
        let (single, _) = plain(ExecPolicy::sequential(), &b, &r, &s);
        let part_policy = ExecPolicy::sequential().with_partition_rows(Some(partition));
        let (parts, st2) = plain(part_policy, &b, &r, &s);
        prop_assert!(single.multiset_eq(&parts));
        // The partitioned run scans the detail once per partition.
        let expected_partitions = if b.is_empty() { 1 } else { b.len().div_ceil(partition) };
        prop_assert_eq!(st2.partitions as usize, expected_partitions);
        prop_assert_eq!(st2.detail_scanned as usize, expected_partitions * r.len());
    }

    /// Section 6: range-partitioned parallel evaluation over the detail
    /// relation equals the sequential single scan for any worker count.
    #[test]
    fn parallel_is_semantics_preserving(
        b in relation("B", 10),
        r in relation("R", 16),
        s in spec(),
        threads in 1usize..5,
    ) {
        let mut node = PlanNodeStats::new("GMDJ");
        let (sequential, _) = plain(ExecPolicy::sequential(), &b, &r, &s);
        let parallel = Runtime::new(ExecPolicy::parallel(threads))
            .eval(&b, &r, &s, None, Keep::All, None, &mut node)
            .unwrap();
        prop_assert!(sequential.multiset_eq(&parallel));
        prop_assert_eq!(node.eval.detail_scanned, r.len() as u64);
        prop_assert_eq!(node.network, NetworkStats::default());
    }

    /// The tentpole identity: the *filtered* GMDJ — selection, keep
    /// projection, optional completion plan, NULL-bearing aggregates,
    /// empty relations — is bit-identical under sequential and parallel
    /// execution for every thread count, with and without base
    /// partitioning.
    #[test]
    fn filtered_parallel_matches_sequential(
        b in relation("B", 10),
        r in relation("R", 16),
        t1 in theta(),
        t2 in theta(),
        f in agg_func(),
        sel_kind in 0usize..4,
        keep_base in proptest::bool::ANY,
        partition in proptest::option::of(1usize..5),
    ) {
        let (s, sel) = filtered_case(t1, t2, f, sel_kind);
        let keep = if keep_base { Keep::BaseOnly } else { Keep::All };
        let plan = if keep_base { derive_completion(&sel, &s, true) } else { None };
        let seq_policy = ExecPolicy::sequential().with_partition_rows(partition);
        let (sequential, st1) =
            filtered(seq_policy, &b, &r, &s, Some(&sel), keep, plan.as_ref());
        for threads in [1usize, 2, 3, 8] {
            let policy = ExecPolicy::parallel(threads).with_partition_rows(partition);
            let sink = Arc::new(CollectingSink::new());
            let mut node = PlanNodeStats::new("GMDJ");
            let parallel = Runtime::with_sink(policy, sink.clone())
                .eval(&b, &r, &s, Some(&sel), keep, plan.as_ref(), &mut node)
                .unwrap();
            prop_assert!(sequential.multiset_eq(&parallel), "threads={threads}");
            let st2 = node.eval;
            // Every local policy runs a completion plan — in waves, or as
            // one row-ordered item — so every counter, the pruning ones
            // included, equals sequential's, and nothing falls back. Each
            // partition scans the whole detail unless its completion
            // settles first.
            prop_assert_eq!(st2, st1, "threads={}", threads);
            prop_assert_eq!(st2.completion_fallbacks, 0);
            let full_scans = st2.partitions as usize * r.len();
            if plan.is_some() {
                prop_assert!(st2.detail_scanned as usize <= full_scans);
            } else {
                prop_assert_eq!(st2.detail_scanned as usize, full_scans);
            }
            // Observability invariant: the per-worker counter deltas in
            // the `gmdj.worker` trace spans sum exactly to the rolled-up
            // node counters — the scan work all happens in workers.
            for (field, total) in [
                ("detail_scanned", st2.detail_scanned),
                ("probe_candidates", st2.probe_candidates),
                ("theta_evals", st2.theta_evals),
                ("agg_updates", st2.agg_updates),
            ] {
                prop_assert_eq!(
                    sink.sum_field("gmdj.worker", field),
                    total,
                    "threads={} field={}",
                    threads,
                    field
                );
            }
            // Every partition emitted a span, and partition deltas also
            // reconcile with the roll-up.
            let partitions = sink.by_name("gmdj.partition");
            prop_assert_eq!(partitions.len() as u64, st2.partitions);
            prop_assert_eq!(
                sink.sum_field("gmdj.partition", "base_rows"),
                st2.base_rows
            );
        }
    }

    /// The distributed runtime (accumulator-state shipping) equals
    /// sequential for every aggregate — including AVG and COUNT DISTINCT,
    /// whose finalized values could not be merged.
    #[test]
    fn distributed_runtime_is_semantics_preserving(
        b in relation("B", 10),
        r in relation("R", 16),
        s in spec(),
        sites in 1usize..5,
    ) {
        let mut node = PlanNodeStats::new("GMDJ");
        let (sequential, _) = plain(ExecPolicy::sequential(), &b, &r, &s);
        let distributed = Runtime::new(ExecPolicy::distributed(sites))
            .eval(&b, &r, &s, None, Keep::All, None, &mut node)
            .unwrap();
        prop_assert!(sequential.multiset_eq(&distributed));
        // Two message waves; traffic independent of the detail size.
        prop_assert_eq!(node.network.messages, 2 * sites as u64);
        prop_assert_eq!(
            node.network.total() as usize,
            sites * b.len() * 2 + sites * b.len() * s.agg_count()
        );
        prop_assert_eq!(node.eval.detail_scanned, r.len() as u64);
    }

    /// Every execution policy — sequential, parallel and distributed,
    /// under probe plans and forced Scan, with and without base
    /// partitioning — computes the Definition 2.1 relation, and forced
    /// Scan evaluates θ exactly once per (base, detail, block) triple.
    #[test]
    fn every_policy_matches_the_definition_2_1_reference(
        b in relation("B", 10),
        r in relation("R", 16),
        s in spec(),
        partition in proptest::option::of(1usize..5),
    ) {
        let reference = nested_loop_gmdj(&b, &r, &s);
        let pairs = (b.len() * r.len() * s.blocks.len()) as u64;
        for probe in [ProbeStrategy::Auto, ProbeStrategy::ForceScan] {
            for policy in [
                ExecPolicy::sequential(),
                ExecPolicy::parallel(3),
                ExecPolicy::distributed(2),
            ] {
                let policy = policy.with_probe(probe).with_partition_rows(partition);
                let mut node = PlanNodeStats::new("GMDJ");
                let got = Runtime::new(policy)
                    .eval(&b, &r, &s, None, Keep::All, None, &mut node)
                    .unwrap();
                prop_assert!(reference.multiset_eq(&got), "policy={policy:?}");
                if probe == ProbeStrategy::ForceScan {
                    prop_assert_eq!(node.eval.probe_candidates, pairs, "policy={:?}", policy);
                    prop_assert_eq!(node.eval.theta_evals, pairs, "policy={:?}", policy);
                }
                // Every non-empty detail chunk goes through the kernels.
                if !r.is_empty() {
                    prop_assert!(node.kernel.batches > 0, "policy={policy:?}");
                }
            }
        }
    }

    /// Typed Float aggregate inputs under every `AggFunc` and Int keys
    /// spread over a wide, negative domain (the sparse CSR layout) give
    /// the Definition 2.1 relation bit for bit under every policy and
    /// probe strategy, with and without base partitioning — the plain
    /// GMDJ, and the filtered one with its completion plan, which every
    /// local policy runs in waves (or as one row-ordered item). The float
    /// cells are exact binary fractions, so the partial accumulators of
    /// parallel and distributed runs merge to the same bits.
    #[test]
    fn typed_float_inputs_and_sparse_keys_match_the_reference(
        b in float_relation("B", 10, true),
        r in float_relation("R", 16, true),
        s in spec(),
        t1 in theta(),
        t2 in theta(),
        f in agg_func(),
        sel_kind in 0usize..4,
        keep_base in proptest::bool::ANY,
        partition in proptest::option::of(1usize..5),
    ) {
        let reference = exact_rows(&nested_loop_gmdj(&b, &r, &s));
        let (fs, sel) = filtered_case(t1, t2, f, sel_kind);
        let keep = if keep_base { Keep::BaseOnly } else { Keep::All };
        let plan = derive_completion(&sel, &fs, keep_base);
        let filtered_ref = exact_rows(&filtered_reference(&b, &r, &fs, &sel, keep));
        for probe in [ProbeStrategy::Auto, ProbeStrategy::ForceScan] {
            for policy in [
                ExecPolicy::sequential(),
                ExecPolicy::parallel(3),
                ExecPolicy::distributed(2),
            ] {
                let policy = policy.with_probe(probe).with_partition_rows(partition);
                let (got, _) = plain(policy, &b, &r, &s);
                prop_assert_eq!(&exact_rows(&got), &reference, "policy={:?}", policy);
                let (got, _) = filtered(policy, &b, &r, &fs, Some(&sel), keep, plan.as_ref());
                prop_assert_eq!(&exact_rows(&got), &filtered_ref, "filtered, policy={:?}", policy);
            }
        }
    }

    /// Without exact fractions float sums round, so only a fold in
    /// detail-row order reproduces the reference's bits: every
    /// sequential evaluation folds each accumulator in that order, under
    /// either probe strategy, any partitioning and waved completion.
    #[test]
    fn sequential_float_folds_keep_detail_row_order(
        b in float_relation("B", 10, false),
        r in float_relation("R", 16, false),
        s in spec(),
        t1 in theta(),
        t2 in theta(),
        f in agg_func(),
        sel_kind in 0usize..4,
        partition in proptest::option::of(1usize..5),
    ) {
        let reference = exact_rows(&nested_loop_gmdj(&b, &r, &s));
        let (fs, sel) = filtered_case(t1, t2, f, sel_kind);
        let plan = derive_completion(&sel, &fs, false);
        let filtered_ref = exact_rows(&filtered_reference(&b, &r, &fs, &sel, Keep::All));
        for probe in [ProbeStrategy::Auto, ProbeStrategy::ForceScan] {
            let policy = ExecPolicy::sequential().with_probe(probe).with_partition_rows(partition);
            let (got, _) = plain(policy, &b, &r, &s);
            prop_assert_eq!(&exact_rows(&got), &reference, "probe={:?}", probe);
            let (got, _) = filtered(policy, &b, &r, &fs, Some(&sel), Keep::All, plan.as_ref());
            prop_assert_eq!(&exact_rows(&got), &filtered_ref, "filtered, probe={:?}", probe);
        }
    }

    /// Morsel size is pure scheduling: for any size — one row, a prime,
    /// a fraction of a column chunk, the whole relation at once — the
    /// parallel scan produces the identical result multiset and identical
    /// gated EvalStats, page accounting included. Only the (ungated)
    /// kernel telemetry may differ, and even that deterministically:
    /// every morsel is pulled exactly once.
    #[test]
    fn morsel_size_never_changes_gated_counters(
        b in relation("B", 10),
        r in relation("R", 16),
        s in spec(),
        partition in proptest::option::of(1usize..5),
    ) {
        let base_policy = ExecPolicy::parallel(3).with_partition_rows(partition);
        let mut ref_node = PlanNodeStats::new("GMDJ");
        let reference = Runtime::new(base_policy)
            .eval(&b, &r, &s, None, Keep::All, None, &mut ref_node)
            .unwrap();
        for morsel in [1usize, 7, 64, usize::MAX] {
            let mut node = PlanNodeStats::new("GMDJ");
            let got = Runtime::new(base_policy.with_morsel_size(Some(morsel)))
                .eval(&b, &r, &s, None, Keep::All, None, &mut node)
                .unwrap();
            prop_assert!(reference.multiset_eq(&got), "morsel={morsel}");
            prop_assert_eq!(node.eval, ref_node.eval, "morsel={}", morsel);
            // Physical telemetry is still run-to-run deterministic: the
            // queue hands out each morsel exactly once, so single-row
            // morsels mean one morsel per scanned detail row.
            if morsel == 1 && !r.is_empty() {
                prop_assert_eq!(
                    node.kernel.morsels,
                    node.eval.partitions * r.len() as u64
                );
            }
        }
    }

    /// Proposition 4.1: a chain of GMDJs over the same detail table equals
    /// the single coalesced GMDJ.
    #[test]
    fn coalescing_is_semantics_preserving(
        b in relation("B", 10),
        r in relation("R", 12),
        s1 in spec(),
        s2 in spec(),
    ) {
        // Rename the outputs of s2 to avoid collisions.
        let s2 = GmdjSpec::new(
            s2.blocks
                .iter()
                .enumerate()
                .map(|(i, blk)| AggBlock::new(
                    blk.theta.clone(),
                    blk.aggs
                        .iter()
                        .map(|a| NamedAgg { func: a.func, input: a.input.clone(), output: format!("z{i}") })
                        .collect(),
                ))
                .collect(),
        );
        let seq = ExecPolicy::sequential();
        // Chained.
        let (step1, _) = plain(seq, &b, &r, &s1);
        let (chained, _) = plain(seq, &step1, &r, &s2);
        // Coalesced.
        let merged = s1.extended_with(&s2);
        let (coalesced, _) = plain(seq, &b, &r, &merged);
        prop_assert!(chained.multiset_eq(&coalesced));
    }

    /// Base-tuple completion never changes the answer of a filtered GMDJ
    /// — for the count-selection shapes the translation produces.
    #[test]
    fn completion_is_semantics_preserving(
        b in relation("B", 10),
        r in relation("R", 14),
        t1 in theta(),
        t2 in theta(),
        sel_kind in 0usize..4,
    ) {
        let s = GmdjSpec::new(vec![
            AggBlock::count(t1.clone(), "c1"),
            AggBlock::count(t1.and(t2), "c2"),
        ]);
        // Count-selection shapes: exists / not-exists / conjunction / ALL
        // pair (c2's range ⊆ c1's range by construction).
        let sel = match sel_kind {
            0 => col("c1").gt(lit(0)),
            1 => col("c1").eq(lit(0)),
            2 => col("c1").gt(lit(0)).and(col("c2").eq(lit(0))),
            _ => col("c2").eq(col("c1")),
        };
        let plan = derive_completion(&sel, &s, true);
        let seq = ExecPolicy::sequential();
        let run = |policy, plan| filtered(policy, &b, &r, &s, Some(&sel), Keep::BaseOnly, plan).0;
        let with = run(seq, plan.as_ref());
        let without = run(seq, None);
        prop_assert!(with.multiset_eq(&without));
        // And under ForceScan, where completion actually prunes the scan.
        let scanned = run(seq.with_probe(ProbeStrategy::ForceScan), plan.as_ref());
        prop_assert!(scanned.multiset_eq(&without));
        // And combined with memory partitioning (completion state is
        // per-partition).
        let partitioned = run(seq.with_partition_rows(Some(3)), plan.as_ref());
        prop_assert!(partitioned.multiset_eq(&without));
    }

    /// The whole optimizer is semantics-preserving on random GMDJ
    /// expressions of the translation's shape.
    #[test]
    fn optimizer_is_semantics_preserving(
        b in relation("B", 8),
        r in relation("R", 12),
        t1 in theta(),
        t2 in theta(),
        zero1 in proptest::bool::ANY,
        zero2 in proptest::bool::ANY,
    ) {
        let catalog = MemoryCatalog::new().with("B", b).with("R", r);
        let mk_sel = |name: &str, zero: bool| {
            if zero { col(name).eq(lit(0)) } else { col(name).gt(lit(0)) }
        };
        let expr = GmdjExpr::DropComputed {
            input: Box::new(
                GmdjExpr::table("B", "B")
                    .gmdj(
                        GmdjExpr::table("R", "R"),
                        GmdjSpec::new(vec![AggBlock::count(t1, "c1")]),
                    )
                    .gmdj(
                        GmdjExpr::table("R", "R"),
                        GmdjSpec::new(vec![AggBlock::count(t2, "c2")]),
                    )
                    .select(mk_sel("c1", zero1).and(mk_sel("c2", zero2))),
            ),
            names: vec!["c1".into(), "c2".into()],
        };
        let mut ctx1 = ExecContext::new();
        let baseline = execute(&expr, &catalog, &mut ctx1).unwrap();
        for flags in [
            OptFlags { hoist: true, coalesce: false, completion: false },
            OptFlags { hoist: true, coalesce: true, completion: false },
            OptFlags { hoist: true, coalesce: true, completion: true },
            OptFlags { hoist: false, coalesce: false, completion: true },
        ] {
            let optimized = optimize_with(&expr, &flags);
            let mut ctx2 = ExecContext::new();
            let got = execute(&optimized, &catalog, &mut ctx2).unwrap();
            prop_assert!(
                baseline.multiset_eq(&got),
                "flags {flags:?} changed semantics:\n{expr}\n→\n{optimized}"
            );
        }
    }

    /// Keep::All vs Keep::BaseOnly: the base-only output is the base
    /// projection of the full output.
    #[test]
    fn keep_base_only_is_projection(
        b in relation("B", 10),
        r in relation("R", 12),
        t in theta(),
    ) {
        let s = GmdjSpec::new(vec![AggBlock::count(t, "c1")]);
        let sel = col("c1").gt(lit(0));
        let seq = ExecPolicy::sequential();
        let (all, _) = filtered(seq, &b, &r, &s, Some(&sel), Keep::All, None);
        let (base_only, _) = filtered(seq, &b, &r, &s, Some(&sel), Keep::BaseOnly, None);
        let projected = gmdj_relation::ops::drop_columns(&all, &["c1"]).unwrap();
        prop_assert!(projected.multiset_eq(&base_only));
    }
}
