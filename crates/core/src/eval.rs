//! GMDJ evaluation (Definition 2.1), in a single scan of the detail
//! relation.
//!
//! The evaluator keeps the base-values relation (plus one accumulator per
//! base tuple per aggregate) in memory and streams the detail relation past
//! it. Per condition θᵢ it builds a *probe plan*:
//!
//! * equality conjuncts `B.x = R.y` → a [`HashIndex`] on the base rows —
//!   the "indexing mechanism intrinsic to GMDJ evaluation";
//! * band conjuncts `R.t ≥ B.lo ∧ R.t < B.hi` → an [`IntervalIndex`]
//!   (the Hours dimension of the motivating example);
//! * anything else → a scan of the *active* base tuples, which for
//!   conditions like the `<>` correlation of Figure 4 "essentially mimics
//!   tuple-iteration semantics" — unless base-tuple completion
//!   ([`crate::completion`]) keeps shrinking the active set.
//!
//! This module holds the probe planning and the detail-scan kernels; the
//! one evaluation entry point is [`crate::runtime::Runtime::eval`], which
//! drives them through the morsel driver (`shared::morsel_pass`).
//! When the base-values relation does not fit the memory budget, it
//! partitions it and performs one detail scan per partition ("simple
//! memory management techniques … compute the GMDJ at a well-defined
//! cost"). Machine-independent work counters ([`EvalStats`]) make the
//! benchmark shapes reproducible across hardware.

use std::ops::Range;

use gmdj_relation::agg::{Accumulator, BoundAgg};
use gmdj_relation::batch::{BatchPredicate, BatchView, ColData, ColView, BATCH_ROWS};
use gmdj_relation::columnar::ColumnSet;
use gmdj_relation::error::Result;
use gmdj_relation::expr::{BoundPredicate, BoundScalar, CmpOp, Predicate, ScalarExpr};
use gmdj_relation::index::{HashIndex, IntervalIndex, TypedKeyIndex};
use gmdj_relation::relation::Tuple;
use gmdj_relation::schema::Schema;
use gmdj_relation::value::Value;

use crate::completion::CompletionPlan;
use crate::counters::counter_set;
use crate::spec::GmdjSpec;
use crate::trace::{NullSink, TraceSink};

/// How probe plans may be chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeStrategy {
    /// Hash / interval indexes when the condition allows, scan otherwise.
    #[default]
    Auto,
    /// Always scan the active base tuples (an ablation: GMDJ without its
    /// intrinsic indexing).
    ForceScan,
}

/// Which columns the (possibly filtered) GMDJ returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// **B**'s attributes followed by all aggregate outputs.
    All,
    /// Only **B**'s attributes — the π\[A\] of Table 1's ∄ row and the
    /// precondition of Theorem 4.1.
    BaseOnly,
}

/// Evaluation options.
#[derive(Debug, Clone, PartialEq)]
pub struct GmdjOptions {
    /// Probe plan selection.
    pub probe: ProbeStrategy,
    /// Maximum number of base tuples resident per detail scan. `None`
    /// keeps the whole base-values relation in memory (single scan).
    pub partition_rows: Option<usize>,
    /// Dispatch the detail scan to batched columnar kernels where a probe
    /// shape can be specialized (default on). Off, every scan runs the
    /// row-ordered column loop with sidecars and kernels off: the
    /// interpreted reference the kernels are checked against. Counter-
    /// exact either way: every [`EvalStats`] field matches bit for bit.
    pub vectorized: bool,
}

impl Default for GmdjOptions {
    fn default() -> Self {
        GmdjOptions {
            probe: ProbeStrategy::default(),
            partition_rows: None,
            vectorized: true,
        }
    }
}

counter_set! {
    /// Machine-independent work counters, accumulated across an evaluation.
    pub struct EvalStats {
        /// Detail tuples consumed (per partition scan).
        pub detail_scanned: u64,
        /// Candidate (base tuple, block) pairs produced by probe plans.
        pub probe_candidates: u64,
        /// Residual / full θ evaluations.
        pub theta_evals: u64,
        /// Aggregate accumulator updates.
        pub agg_updates: u64,
        /// Base tuples processed.
        pub base_rows: u64,
        /// Base tuples completed as rejected mid-scan (Theorem 4.2).
        pub dead_early: u64,
        /// Base tuples completed as accepted mid-scan (Theorem 4.1).
        pub done_early: u64,
        /// Probe indexes built.
        pub index_builds: u64,
        /// Detail scans performed (= number of base partitions).
        pub partitions: u64,
        /// Evaluations where a completion plan was present but skipped: a
        /// multi-worker morsel pass declined it
        /// (`eval::completion_prunes_pairs`) or the mode is distributed.
        /// One-worker passes never skip a plan. The scan then runs the
        /// plain filtered form; the answer is unchanged. Counted once per
        /// evaluation.
        pub completion_fallbacks: u64,
        /// Column-chunk pages read per detail scan: the paper's `k·P`
        /// arithmetic with `P` counted per *referenced* detail column
        /// (`ceil(|R| / chunk) × referenced_cols × partitions`). A closed
        /// form of the spec and detail length, identical across execution
        /// policies, vectorization settings, and morsel sizes — and
        /// strictly below `row_page_reads` whenever the plan references
        /// fewer columns than the detail schema holds.
        pub col_chunk_reads: u64,
        /// What the same detail scans would have cost under the old row
        /// layout, where every page holds full-width rows
        /// (`ceil(|R| / chunk) × schema_cols × partitions`).
        pub row_page_reads: u64,
    }
}

impl EvalStats {
    /// A single scalar "work" figure: the dominant per-tuple costs. The
    /// page-read counters are deliberately excluded: they restate
    /// `detail_scanned` in page units, not additional work.
    pub fn work(&self) -> u64 {
        self.detail_scanned + self.probe_candidates + self.theta_evals + self.agg_updates
    }
}

counter_set! {
    /// Kernel-dispatch statistics for the batched detail scan — deliberately
    /// *adjacent to* [`EvalStats`] rather than inside it: the semantic
    /// counters must stay identical across execution modes and vectorization
    /// settings, while these describe which physical path ran.
    ///
    /// Units are (detail row × dispatching block) work units: a batch of 1024
    /// rows scanned by two blocks contributes 2048, split between
    /// `rows_vectorized` and `rows_row_path` according to whether each
    /// block-batch pair ran a kernel or fell back to row-at-a-time
    /// evaluation. For `Scan` access the granularity is per probing base
    /// tuple (the kernel decision can differ per base row's value types).
    pub struct KernelStats {
        /// Columnar windows viewed from the detail relation's stored columns.
        pub batches: u64,
        /// Work units processed through batched kernels.
        pub rows_vectorized: u64,
        /// Work units that fell back to row-at-a-time evaluation.
        pub rows_row_path: u64,
        /// Scheduling work units: one per detail scan call. Sequential scans
        /// count one morsel per partition (the whole relation is one morsel);
        /// the parallel morsel queue counts one per pulled morsel.
        pub morsels: u64,
    }
}

/// The number of distinct detail columns a spec's detail scan reads: every
/// scope-1 column in each block's θ plus each aggregate input. This is
/// independent of the chosen access path — an index-enforced conjunct's
/// columns plus the residual's columns are exactly θ's columns — so the
/// page accounting derived from it matches across probe strategies,
/// execution policies, and morsel sizes.
pub(crate) fn referenced_detail_cols(
    spec: &GmdjSpec,
    base_schema: &Schema,
    detail_schema: &Schema,
) -> Result<usize> {
    fn mark_scalar(e: &BoundScalar, needed: &mut [bool]) {
        match e {
            BoundScalar::Column { scope: 1, index } => needed[*index] = true,
            BoundScalar::Column { .. } | BoundScalar::Literal(_) => {}
            BoundScalar::Binary { left, right, .. } => {
                mark_scalar(left, needed);
                mark_scalar(right, needed);
            }
            BoundScalar::Case {
                branches,
                otherwise,
            } => {
                for (p, v) in branches {
                    mark_pred(p, needed);
                    mark_scalar(v, needed);
                }
                if let Some(o) = otherwise {
                    mark_scalar(o, needed);
                }
            }
        }
    }
    fn mark_pred(p: &BoundPredicate, needed: &mut [bool]) {
        match p {
            BoundPredicate::Literal(_) => {}
            BoundPredicate::Cmp { left, right, .. } => {
                mark_scalar(left, needed);
                mark_scalar(right, needed);
            }
            BoundPredicate::IsNull(e) | BoundPredicate::IsNotNull(e) => mark_scalar(e, needed),
            BoundPredicate::And(a, b) | BoundPredicate::Or(a, b) => {
                mark_pred(a, needed);
                mark_pred(b, needed);
            }
            BoundPredicate::Not(a) => mark_pred(a, needed),
        }
    }
    let mut needed = vec![false; detail_schema.len()];
    for block in &spec.blocks {
        let theta = block.theta.bind(&[base_schema, detail_schema])?;
        mark_pred(&theta, &mut needed);
        for agg in &block.aggs {
            let bound = agg.bind(&[base_schema, detail_schema])?;
            if let Some(input) = &bound.input {
                mark_scalar(input, &mut needed);
            }
        }
    }
    Ok(needed.iter().filter(|&&n| n).count())
}

/// Fresh accumulators for `n` base tuples under `plans` (row-major: all of
/// one base tuple's accumulators are contiguous).
pub(crate) fn new_accumulators(
    plans: &[BlockPlan],
    n: usize,
    total_aggs: usize,
) -> Vec<Accumulator> {
    let mut accs: Vec<Accumulator> = Vec::with_capacity(n * total_aggs);
    for _ in 0..n {
        for plan in plans {
            for a in &plan.aggs {
                accs.push(a.accumulator());
            }
        }
    }
    accs
}

/// Finalize accumulators into output rows in base order — the one
/// materialization of the local and shared scans. With
/// the statuses of a completion scan, `Dead` tuples are dropped and
/// `Done` ones emitted as they are (finish-early implies
/// [`Keep::BaseOnly`]); `Active` tuples, and every tuple when `status`
/// is `None`, go through the selection and the `keep` projection.
pub(crate) fn materialize_filtered(
    base_rows: &[Tuple],
    accs: &[Accumulator],
    status: Option<&[Status]>,
    total_aggs: usize,
    bound_selection: Option<&BoundPredicate>,
    keep: Keep,
    out_rows: &mut Vec<Tuple>,
) -> Result<()> {
    for (b_idx, b_row) in base_rows.iter().enumerate() {
        match status.map_or(Status::Active, |s| s[b_idx]) {
            Status::Dead => continue,
            Status::Done => {
                debug_assert!(matches!(keep, Keep::BaseOnly));
                out_rows.push(b_row.clone());
                continue;
            }
            Status::Active => {}
        }
        let mut full: Vec<Value> = Vec::with_capacity(b_row.len() + total_aggs);
        full.extend(b_row.iter().cloned());
        let acc_base = b_idx * total_aggs;
        for acc in &accs[acc_base..acc_base + total_aggs] {
            full.push(acc.finish());
        }
        if let Some(sel) = bound_selection {
            if !sel.eval(&[&full])?.passes() {
                continue;
            }
        }
        match keep {
            Keep::All => out_rows.push(full.into_boxed_slice()),
            Keep::BaseOnly => out_rows.push(b_row.clone()),
        }
    }
    Ok(())
}

/// Whether a completion plan saves enough work to run as the morsel
/// driver's one-worker item rather than fall back: some block the plan
/// can retire tuples from — a dead rule's `on_block`, or a finish-early
/// `need_match` block — probes by [`Access::Scan`]. There every detail
/// row visits every active base tuple, so each completed tuple removes a
/// θ evaluation per remaining detail row (the ALL shape's quadratic
/// pairs). Hash- and interval-probed blocks only visit matching tuples;
/// their batched kernels beat the row-ordered completion loop.
pub(crate) fn completion_prunes_pairs(plan: &CompletionPlan, plans: &[BlockPlan]) -> bool {
    let scans = |b: usize| matches!(plans[b].access, Access::Scan);
    plan.dead_rules.iter().any(|r| scans(r.on_block))
        || (plan.finish_early && plan.need_match.iter().any(|&b| scans(b)))
}

/// The one detail-scan entry point: fold detail rows `range` into one
/// query's accumulators, keeping its counters exactly as a standalone
/// sequential scan would. The morsel driver ([`crate::shared::morsel_pass`])
/// calls it once per (query, pulled morsel) — once per base partition
/// under the sequential policy's whole-detail morsel — and every site once
/// over its fragment.
///
/// It is the only scan-time reader of `vectorized`:
///
/// * on, without a completion plan — the batched column kernels
///   ([`scan_detail_vectorized`]);
/// * otherwise the row-ordered loop ([`scan_detail_completion`]), which
///   completion needs for its scan order and which the `vectorized =
///   false` twin runs with kernels off. The twin reports like a
///   row-at-a-time scan: one scheduling morsel per call, no batches and
///   no `gmdj.kernel` span.
///
/// Returns each base tuple's final status when the row-ordered loop ran,
/// `None` after the kernels (every tuple stays active).
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_detail_window(
    cols: &ColumnSet,
    range: Range<usize>,
    vectorized: bool,
    completion: Option<&CompletionPlan>,
    plans: &[BlockPlan],
    base_rows: &[Tuple],
    total_aggs: usize,
    accs: &mut [Accumulator],
    stats: &mut EvalStats,
    kernel: &mut KernelStats,
    sink: &dyn TraceSink,
) -> Result<Option<Vec<Status>>> {
    if vectorized && completion.is_none() {
        scan_detail_vectorized(
            cols, range, plans, base_rows, total_aggs, accs, stats, kernel, sink,
        )?;
        return Ok(None);
    }
    let mut row_twin = KernelStats::default();
    let (kernel, sink): (&mut KernelStats, &dyn TraceSink) = if vectorized {
        (kernel, sink)
    } else {
        kernel.morsels += 1;
        (&mut row_twin, &NullSink)
    };
    scan_detail_completion(
        cols, range, plans, base_rows, total_aggs, completion, accs, stats, kernel, sink,
    )
    .map(Some)
}

/// Status of a base tuple during the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Active,
    /// Completed as rejected (Theorem 4.2) — excluded from output.
    Dead,
    /// Completed as accepted (Theorem 4.1) — emitted, no more updates.
    Done,
}

/// Per-condition probe plan.
pub(crate) struct BlockPlan {
    /// Full θᵢ bound against `[base, detail]` (used by dead-rule
    /// `unless_also` checks).
    full_theta: BoundPredicate,
    /// Residual after removing the conjuncts the access path enforces;
    /// `None` means the access path is exact.
    residual: Option<BoundPredicate>,
    access: Access,
    aggs: Vec<BoundAgg>,
    /// Offset of this block's accumulators within a base tuple's flat
    /// accumulator array.
    agg_offset: usize,
    /// `residual` compiled to a batch kernel; `None` when its shape or
    /// operand types cannot be specialized (the batched scan then
    /// evaluates the residual row by row, reproducing exact semantics).
    residual_kernel: Option<BatchPredicate>,
    /// True when `residual_kernel` reads only detail columns, so one mask
    /// per batch serves every probing base tuple.
    residual_detail_only: bool,
    /// Static label of the planned kernel for the `gmdj.kernel` trace
    /// detail and EXPLAIN ANALYZE.
    kernel_label: &'static str,
    /// The first block whose probe yields this block's candidate lists:
    /// itself, or an earlier hash block on the same base and detail key
    /// columns, whose per-window lists this block reuses instead of
    /// probing again (each block still computes its own residual mask).
    probe_source: usize,
}

enum Access {
    /// Iterate all active base tuples.
    Scan,
    /// Hash probe: key extracted from the detail row.
    Hash {
        index: HashIndex,
        /// Key columns on the base side (the index's key) and the
        /// detail side (the probe's key), in pair order.
        base_cols: Vec<usize>,
        detail_cols: Vec<usize>,
        /// Typed single-column sidecar (built only under `vectorized`):
        /// probes from a matching typed batch column skip `Value`
        /// construction and, for strings, reuse the batch's cached hash
        /// codes.
        typed: Option<TypedKeyIndex>,
    },
    /// Interval stab: point extracted from the detail row.
    Interval {
        index: IntervalIndex,
        detail_col: usize,
    },
}

/// Comma-joined per-block kernel labels, e.g. `"hash-int,band"` — the
/// `gmdj.kernel` span detail.
pub(crate) fn kernel_summary(plans: &[BlockPlan]) -> String {
    plans
        .iter()
        .map(|p| p.kernel_label)
        .collect::<Vec<_>>()
        .join(",")
}

/// The probe loop without completion, vectorized: view the stored detail
/// columns in windows of [`BATCH_ROWS`] rows over `range` and dispatch
/// each block's planned kernel, falling back to row-at-a-time evaluation
/// for any block × window whose types cannot guarantee identical
/// semantics (including identical errors). There is no per-query decode:
/// kernels borrow column slices straight from storage, and full rows are
/// late-materialized into a scratch buffer only where row semantics are
/// required — at most once per detail position. Every [`EvalStats`]
/// counter is maintained exactly as the row-ordered
/// [`scan_detail_completion`] loop maintains it without a plan.
///
/// One call is one scheduling morsel: the sequential path calls this once
/// per partition, the parallel morsel queue once per pulled morsel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_detail_vectorized(
    cols: &ColumnSet,
    range: Range<usize>,
    plans: &[BlockPlan],
    base_rows: &[Tuple],
    total_aggs: usize,
    accs: &mut [Accumulator],
    stats: &mut EvalStats,
    kernel: &mut KernelStats,
    sink: &dyn TraceSink,
) -> Result<()> {
    let before = *kernel;
    let span = crate::trace::Span::begin(sink, "gmdj.kernel").with_detail(kernel_summary(plans));
    kernel.morsels += 1;
    let mut mask: Vec<bool> = Vec::new();
    let mut stab_scratch: Vec<u32> = Vec::new();
    let mut key_scratch: Vec<Value> = Vec::new();
    let mut sel_scratch: Vec<u32> = Vec::new();
    let mut int_scratch: Vec<i64> = Vec::new();
    let mut float_scratch: Vec<f64> = Vec::new();
    // Lazily materialized row for the row-semantics fallbacks, keyed by
    // the global detail row index it currently holds.
    let mut row_scratch: Vec<Value> = Vec::new();
    let mut scratch_at: usize = usize::MAX;
    let mut probe = WindowProbe::default();
    let mut win_start = range.start;
    while win_start < range.end {
        let win_len = (range.end - win_start).min(BATCH_ROWS);
        let view = BatchView::new(cols, win_start, win_len);
        kernel.batches += 1;
        stats.detail_scanned += win_len as u64;
        // The block whose candidate lists `probe` holds for this window.
        let mut probed: Option<usize> = None;
        for plan in plans {
            match &plan.access {
                Access::Hash { .. } | Access::Interval { .. } => {
                    // Pass 1: probe every row, so mask profitability is
                    // known before pass 2 walks the candidate lists. A
                    // block keyed like the one just probed reuses its
                    // lists and computes only its own mask.
                    if probed == Some(plan.probe_source) {
                        probe.fill_mask(plan, &view, probe.flat.len(), win_len, kernel);
                    } else {
                        probe.fill(
                            plan,
                            &view,
                            cols,
                            win_start,
                            win_len,
                            &mut key_scratch,
                            &mut stab_scratch,
                            kernel,
                        );
                        probed = Some(plan.probe_source);
                    }
                    // Pass 2: counters and residual handling mirror the
                    // row path; `theta_evals` counts per (base, detail)
                    // pair even when a detail-only mask was computed once
                    // per row. The lists are hoisted into locals so the
                    // walk keeps them in registers across the accumulator
                    // calls (about 10 % on hash probes, measured).
                    let (flat, offsets, mask) =
                        (&probe.flat[..], &probe.offsets[..], &probe.mask[..]);
                    let have_mask = probe.have_mask;
                    for i in 0..win_len {
                        let row = win_start + i;
                        for &b_idx in &flat[offsets[i] as usize..offsets[i + 1] as usize] {
                            let b_idx = b_idx as usize;
                            stats.probe_candidates += 1;
                            let b_row: &[Value] = &base_rows[b_idx];
                            let passes = match &plan.residual {
                                None => true,
                                Some(res) => {
                                    stats.theta_evals += 1;
                                    if have_mask {
                                        mask[i]
                                    } else {
                                        let r = scratch_row(
                                            cols,
                                            row,
                                            &mut row_scratch,
                                            &mut scratch_at,
                                        );
                                        res.eval(&[b_row, r])?.passes()
                                    }
                                }
                            };
                            if passes {
                                update_aggs_at(
                                    plan,
                                    b_idx,
                                    total_aggs,
                                    accs,
                                    b_row,
                                    cols,
                                    row,
                                    &mut row_scratch,
                                    &mut scratch_at,
                                    stats,
                                )?;
                            }
                        }
                    }
                }
                Access::Scan => {
                    let res = plan
                        .residual
                        .as_ref()
                        .expect("scan access always has residual");
                    // Base-outer within the window: per-accumulator update
                    // order stays detail-row order, so float sums are
                    // bit-identical to the row path.
                    for (b_idx, b_row) in base_rows.iter().enumerate() {
                        let b_row: &[Value] = b_row;
                        let masked = match &plan.residual_kernel {
                            Some(k) => k.eval_mask(&view, Some(b_row), &mut mask),
                            None => false,
                        };
                        stats.probe_candidates += win_len as u64;
                        stats.theta_evals += win_len as u64;
                        if masked {
                            kernel.rows_vectorized += win_len as u64;
                            sel_scratch.clear();
                            sel_scratch.extend(
                                mask.iter()
                                    .enumerate()
                                    .filter(|(_, &m)| m)
                                    .map(|(i, _)| i as u32),
                            );
                            if !sel_scratch.is_empty() {
                                update_aggs_batched(
                                    plan,
                                    b_idx,
                                    total_aggs,
                                    accs,
                                    b_row,
                                    &view,
                                    cols,
                                    win_start,
                                    &sel_scratch,
                                    stats,
                                    &mut int_scratch,
                                    &mut float_scratch,
                                    &mut row_scratch,
                                    &mut scratch_at,
                                )?;
                            }
                        } else {
                            kernel.rows_row_path += win_len as u64;
                            for i in 0..win_len {
                                let row = win_start + i;
                                let passes = {
                                    let r =
                                        scratch_row(cols, row, &mut row_scratch, &mut scratch_at);
                                    res.eval(&[b_row, r])?.passes()
                                };
                                if passes {
                                    update_aggs_at(
                                        plan,
                                        b_idx,
                                        total_aggs,
                                        accs,
                                        b_row,
                                        cols,
                                        row,
                                        &mut row_scratch,
                                        &mut scratch_at,
                                        stats,
                                    )?;
                                }
                            }
                        }
                    }
                }
            }
        }
        win_start += win_len;
    }
    let mut span = span;
    span.fields(kernel.minus(&before).trace_fields());
    span.finish();
    Ok(())
}

/// Late-materialize the detail row at global index `row` into `scratch`
/// (reusing the previous fill when the index has not moved — a row is
/// rebuilt at most once however many candidates touch it).
#[inline]
fn scratch_row<'a>(
    cols: &ColumnSet,
    row: usize,
    scratch: &'a mut Vec<Value>,
    at: &mut usize,
) -> &'a [Value] {
    if *at != row {
        cols.fill_row(row, scratch);
        *at = row;
    }
    scratch
}

/// Fold one detail row into one base tuple's accumulators, reading
/// aggregate inputs straight from the stored columns: column inputs skip
/// expression evaluation entirely, and only computed expressions
/// late-materialize the full row. Mirrors [`BoundAgg::update`] exactly
/// (`COUNT(*)` folds a non-NULL marker; column inputs fold the cell
/// value, NULL where masked).
#[allow(clippy::too_many_arguments)]
fn update_aggs_at(
    plan: &BlockPlan,
    b_idx: usize,
    total_aggs: usize,
    accs: &mut [Accumulator],
    b_row: &[Value],
    cols: &ColumnSet,
    row: usize,
    row_scratch: &mut Vec<Value>,
    scratch_at: &mut usize,
    stats: &mut EvalStats,
) -> Result<()> {
    let base = b_idx * total_aggs + plan.agg_offset;
    for (k, agg) in plan.aggs.iter().enumerate() {
        let acc = &mut accs[base + k];
        match &agg.input {
            None => acc.update(&Value::Int(1)),
            Some(BoundScalar::Column { scope: 1, index }) => {
                acc.update(&cols.value_at(row, *index));
            }
            Some(BoundScalar::Column { scope: 0, index }) => acc.update(&b_row[*index]),
            Some(BoundScalar::Literal(v)) => acc.update(v),
            Some(e) => {
                let r = scratch_row(cols, row, row_scratch, scratch_at);
                let v = e.eval(&[b_row, r])?;
                acc.update(&v);
            }
        }
        stats.agg_updates += 1;
    }
    Ok(())
}

/// Decide whether a Hash/Interval block's detail-only residual mask is
/// worth computing for this batch, and compute it if so. The mask costs
/// one kernel pass over every window row; skipping it costs one
/// interpreted residual eval per candidate — so it only pays off when the
/// probe produced enough candidates to share it. The 25% density
/// threshold is deliberately conservative: an interpreted eval is several
/// times a kernel row op, so dense equality joins (≈1 candidate/row)
/// always mask while selective probes keep the cheap row path. Either
/// branch passes/rejects identical pairs and counts identical
/// [`EvalStats`]; only [`KernelStats`] and wall-clock move.
fn shared_mask(
    plan: &BlockPlan,
    view: &BatchView<'_>,
    candidates: usize,
    window_rows: usize,
    mask: &mut Vec<bool>,
) -> bool {
    match &plan.residual_kernel {
        Some(k) if plan.residual_detail_only && candidates * 4 >= window_rows => {
            k.eval_mask(view, None, mask)
        }
        _ => false,
    }
}

/// One Hash/Interval block's probe results for one detail window:
/// flattened per-row candidate lists (`offsets[i]..offsets[i + 1]`
/// indexes row `i`'s candidates in `flat`) and, when profitable, the
/// block's detail-only residual mask. None of it depends on base-tuple
/// status, so the completion loop builds it for every block up front and
/// only then walks the window rows in order.
#[derive(Default)]
struct WindowProbe {
    flat: Vec<u32>,
    offsets: Vec<u32>,
    mask: Vec<bool>,
    have_mask: bool,
}

impl WindowProbe {
    /// Probe every window row through `plan`'s index (the typed sidecar or
    /// `stab_f64` where the stored column allows), then decide on the
    /// shared residual mask and count the block × window in `kernel`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn fill(
        &mut self,
        plan: &BlockPlan,
        view: &BatchView<'_>,
        cols: &ColumnSet,
        win_start: usize,
        win_len: usize,
        key_scratch: &mut Vec<Value>,
        stab_scratch: &mut Vec<u32>,
        kernel: &mut KernelStats,
    ) {
        self.flat.clear();
        self.offsets.clear();
        self.offsets.push(0);
        match &plan.access {
            Access::Hash {
                index,
                detail_cols,
                typed,
                ..
            } => {
                let keycol = typed.as_ref().map(|_| view.col(detail_cols[0]));
                for i in 0..win_len {
                    let cands = probe_hash(
                        index,
                        typed,
                        keycol.as_ref(),
                        detail_cols,
                        cols,
                        i,
                        win_start + i,
                        key_scratch,
                    );
                    self.flat.extend_from_slice(cands);
                    self.offsets.push(self.flat.len() as u32);
                }
            }
            Access::Interval { index, detail_col } => {
                let col = view.col(*detail_col);
                for i in 0..win_len {
                    if col.nulls[i] {
                        stab_scratch.clear();
                    } else {
                        match &col.data {
                            ColData::Int(vals) => index.stab_f64(vals[i] as f64, stab_scratch),
                            ColData::Float(vals) => index.stab_f64(vals[i], stab_scratch),
                            _ => {
                                index.stab(&cols.value_at(win_start + i, *detail_col), stab_scratch)
                            }
                        }
                    }
                    self.flat.extend_from_slice(stab_scratch);
                    self.offsets.push(self.flat.len() as u32);
                }
            }
            Access::Scan => unreachable!("scan access has no per-row candidate lists"),
        }
        self.fill_mask(plan, view, self.flat.len(), win_len, kernel);
    }

    /// Decide on `plan`'s shared residual mask for a window whose probe
    /// produced `candidates` pairs, and count the block × window in
    /// `kernel`. Blocks sharing one probe each call this for their own
    /// residual.
    #[inline]
    fn fill_mask(
        &mut self,
        plan: &BlockPlan,
        view: &BatchView<'_>,
        candidates: usize,
        win_len: usize,
        kernel: &mut KernelStats,
    ) {
        self.have_mask = shared_mask(plan, view, candidates, win_len, &mut self.mask);
        if plan.residual.is_none() || self.have_mask {
            kernel.rows_vectorized += win_len as u64;
        } else {
            kernel.rows_row_path += win_len as u64;
        }
    }

    /// Window row `i`'s candidate base tuples.
    #[inline]
    fn candidates(&self, i: usize) -> &[u32] {
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Hash-probe one detail row, preferring the typed sidecar when the
/// stored column's type matches it; otherwise the generic slice probe
/// through a reused scratch key. String probes never rehash: the
/// dictionary's cached per-distinct-value hash is forwarded to the
/// sidecar, so a probe costs a code lookup plus (on hash hit) one bytes
/// compare. Cross-type numeric equality (`Int(1) = Float(1.0)`) only
/// ever reaches the generic path: the sidecar is not built over float
/// keys and is not consulted for non-matching column types.
#[allow(clippy::too_many_arguments)]
fn probe_hash<'a>(
    index: &'a HashIndex,
    typed: &'a Option<TypedKeyIndex>,
    keycol: Option<&ColView<'_>>,
    detail_cols: &[usize],
    cols: &ColumnSet,
    i: usize,
    row: usize,
    key_scratch: &mut Vec<Value>,
) -> &'a [u32] {
    if let (Some(t), Some(col)) = (typed.as_ref(), keycol) {
        if col.is_null(i) {
            return &[];
        }
        match (&col.data, t) {
            (ColData::Int(vals), TypedKeyIndex::Int(_)) => return t.probe_int(vals[i]),
            (
                ColData::Str {
                    codes,
                    dict,
                    dict_hashes,
                },
                TypedKeyIndex::Str(_),
            ) => {
                let d = codes[i] as usize;
                return t.probe_str(dict_hashes[d], &dict[d]);
            }
            _ => {}
        }
    }
    key_scratch.clear();
    key_scratch.extend(detail_cols.iter().map(|&c| cols.value_at(row, c)));
    index.probe(key_scratch)
}

/// Fold the selected window rows into one base tuple's accumulators.
/// Typed columns use the batched [`Accumulator`] updates; base-constant
/// and literal inputs skip expression evaluation; other stored columns
/// fold the cell value row by row; only computed expressions
/// late-materialize full rows through the shared scratch. `agg_updates`
/// counts one per aggregate per selected row, exactly like the row path.
#[allow(clippy::too_many_arguments)]
fn update_aggs_batched(
    plan: &BlockPlan,
    b_idx: usize,
    total_aggs: usize,
    accs: &mut [Accumulator],
    b_row: &[Value],
    view: &BatchView<'_>,
    cols: &ColumnSet,
    win_start: usize,
    sel: &[u32],
    stats: &mut EvalStats,
    int_scratch: &mut Vec<i64>,
    float_scratch: &mut Vec<f64>,
    row_scratch: &mut Vec<Value>,
    scratch_at: &mut usize,
) -> Result<()> {
    let base = b_idx * total_aggs + plan.agg_offset;
    for (k, agg) in plan.aggs.iter().enumerate() {
        let acc = &mut accs[base + k];
        match &agg.input {
            None => acc.add_count_star(sel.len() as i64),
            Some(BoundScalar::Column { scope: 1, index }) => {
                let col = view.col(*index);
                match &col.data {
                    ColData::Int(vals) => {
                        int_scratch.clear();
                        int_scratch.extend(
                            sel.iter()
                                .filter(|&&i| !col.is_null(i as usize))
                                .map(|&i| vals[i as usize]),
                        );
                        acc.update_ints(int_scratch);
                    }
                    ColData::Float(vals) => {
                        float_scratch.clear();
                        float_scratch.extend(
                            sel.iter()
                                .filter(|&&i| !col.is_null(i as usize))
                                .map(|&i| vals[i as usize]),
                        );
                        acc.update_floats(float_scratch);
                    }
                    _ => {
                        for &i in sel {
                            acc.update(&cols.value_at(win_start + i as usize, *index));
                        }
                    }
                }
            }
            Some(BoundScalar::Column { scope: 0, index }) => {
                let v = &b_row[*index];
                for _ in sel {
                    acc.update(v);
                }
            }
            Some(BoundScalar::Literal(v)) => {
                for _ in sel {
                    acc.update(v);
                }
            }
            Some(e) => {
                for &i in sel {
                    let row = win_start + i as usize;
                    let r = scratch_row(cols, row, row_scratch, scratch_at);
                    let v = e.eval(&[b_row, r])?;
                    acc.update(&v);
                }
            }
        }
        stats.agg_updates += sel.len() as u64;
    }
    Ok(())
}

/// The probe loop with base-tuple completion (Theorems 4.1 / 4.2), over
/// the stored detail columns in windows of [`BATCH_ROWS`] rows. Dead rules
/// and finish-early are scan-order-dependent, so the order is exactly
/// detail row, then block, then candidate — the order of tuple-at-a-time
/// evaluation. What does not depend on base-tuple status is hoisted out
/// per window: each Hash/Interval block's candidate lists and its
/// detail-only residual mask ([`WindowProbe`]). The row walk then applies
/// the Dead/Done bookkeeping; full rows are late-materialized only for an
/// interpreted residual, an `unless_also` θ, or a computed aggregate
/// input. Every [`EvalStats`] counter matches that tuple-at-a-time loop.
///
/// Without a plan every tuple stays `Active`: the row-ordered probe loop
/// the `vectorized = false` twin runs over any `range`. With a plan the
/// range is the whole detail. One call is one scheduling morsel.
/// Returns each base tuple's final status; `accs` holds the aggregates of
/// those still `Active`.
#[allow(clippy::too_many_arguments)]
fn scan_detail_completion(
    cols: &ColumnSet,
    range: Range<usize>,
    blocks: &[BlockPlan],
    base_rows: &[Tuple],
    total_aggs: usize,
    completion: Option<&CompletionPlan>,
    accs: &mut [Accumulator],
    stats: &mut EvalStats,
    kernel: &mut KernelStats,
    sink: &dyn TraceSink,
) -> Result<Vec<Status>> {
    let before = *kernel;
    let span = crate::trace::Span::begin(sink, "gmdj.kernel").with_detail(kernel_summary(blocks));
    kernel.morsels += 1;

    let mut dead_rule_of_block: Vec<Option<Option<usize>>> = vec![None; blocks.len()];
    let mut need_mask: u64 = 0;
    let mut finish_early = false;
    if let Some(plan) = completion {
        for rule in &plan.dead_rules {
            dead_rule_of_block[rule.on_block] = Some(rule.unless_also);
        }
        if plan.finish_early && blocks.len() <= 64 {
            finish_early = true;
            for &b in &plan.need_match {
                need_mask |= 1u64 << b;
            }
        }
    }

    let n = base_rows.len();
    let mut status: Vec<Status> = vec![Status::Active; n];
    let mut matched: Vec<u64> = vec![0; if finish_early { n } else { 0 }];
    // Active list for Scan access; compacted lazily after completions.
    let has_scan_block = blocks.iter().any(|b| matches!(b.access, Access::Scan));
    let mut scan_list: Vec<u32> = if has_scan_block {
        (0..n as u32).collect()
    } else {
        Vec::new()
    };
    let mut inactive_since_compact = 0usize;
    let mut probes: Vec<WindowProbe> = blocks.iter().map(|_| WindowProbe::default()).collect();
    let mut stab_scratch: Vec<u32> = Vec::new();
    let mut key_scratch: Vec<Value> = Vec::new();
    let mut row_scratch: Vec<Value> = Vec::new();
    let mut scratch_at: usize = usize::MAX;

    let mut win_start = range.start;
    while win_start < range.end {
        let win_len = (range.end - win_start).min(BATCH_ROWS);
        let view = BatchView::new(cols, win_start, win_len);
        kernel.batches += 1;
        stats.detail_scanned += win_len as u64;
        for (bi, block) in blocks.iter().enumerate() {
            if matches!(block.access, Access::Scan) {
                continue;
            }
            // A block keyed like an earlier one reads that block's
            // candidate lists and computes only its own mask.
            if block.probe_source == bi {
                probes[bi].fill(
                    block,
                    &view,
                    cols,
                    win_start,
                    win_len,
                    &mut key_scratch,
                    &mut stab_scratch,
                    kernel,
                );
            } else {
                let candidates = probes[block.probe_source].flat.len();
                probes[bi].fill_mask(block, &view, candidates, win_len, kernel);
            }
        }
        for i in 0..win_len {
            let row = win_start + i;
            for (bi, (block, probe)) in blocks.iter().zip(&probes).enumerate() {
                macro_rules! process {
                    ($b_idx:expr) => {{
                        let b_idx = $b_idx as usize;
                        if status[b_idx] == Status::Active {
                            stats.probe_candidates += 1;
                            let b_row: &[Value] = &base_rows[b_idx];
                            let passes = match &block.residual {
                                Some(res) => {
                                    stats.theta_evals += 1;
                                    if probe.have_mask {
                                        probe.mask[i]
                                    } else {
                                        let r = scratch_row(
                                            cols,
                                            row,
                                            &mut row_scratch,
                                            &mut scratch_at,
                                        );
                                        res.eval(&[b_row, r])?.passes()
                                    }
                                }
                                None => true,
                            };
                            if passes {
                                let survives = match dead_rule_of_block[bi] {
                                    None => true,
                                    Some(None) => false,
                                    Some(Some(sub)) => {
                                        stats.theta_evals += 1;
                                        let r = scratch_row(
                                            cols,
                                            row,
                                            &mut row_scratch,
                                            &mut scratch_at,
                                        );
                                        blocks[sub].full_theta.eval(&[b_row, r])?.passes()
                                    }
                                };
                                if survives {
                                    update_aggs_at(
                                        block,
                                        b_idx,
                                        total_aggs,
                                        accs,
                                        b_row,
                                        cols,
                                        row,
                                        &mut row_scratch,
                                        &mut scratch_at,
                                        stats,
                                    )?;
                                    if finish_early && dead_rule_of_block[bi].is_none() {
                                        matched[b_idx] |= 1u64 << bi;
                                        if matched[b_idx] & need_mask == need_mask {
                                            status[b_idx] = Status::Done;
                                            stats.done_early += 1;
                                            inactive_since_compact += 1;
                                        }
                                    }
                                } else {
                                    status[b_idx] = Status::Dead;
                                    stats.dead_early += 1;
                                    inactive_since_compact += 1;
                                }
                            }
                        }
                    }};
                }

                if matches!(block.access, Access::Scan) {
                    // Scan residuals read the base tuple, so they are
                    // interpreted per pair: one row-path unit each.
                    let evaluated = stats.probe_candidates;
                    let list = std::mem::take(&mut scan_list);
                    for &b_idx in &list {
                        process!(b_idx);
                    }
                    scan_list = list;
                    kernel.rows_row_path += stats.probe_candidates - evaluated;
                } else {
                    for &b_idx in probes[block.probe_source].candidates(i) {
                        process!(b_idx);
                    }
                }
            }
            // Lazily compact the scan list once enough tuples completed.
            if has_scan_block
                && inactive_since_compact > 0
                && inactive_since_compact * 8 >= scan_list.len().max(8)
            {
                scan_list.retain(|&b| status[b as usize] == Status::Active);
                inactive_since_compact = 0;
            }
        }
        win_start += win_len;
    }
    let mut span = span;
    span.fields(kernel.minus(&before).trace_fields());
    span.finish();
    Ok(status)
}

/// Build one probe plan per (lᵢ, θᵢ) block.
pub(crate) fn plan_blocks(
    base_rows: &[Tuple],
    base_schema: &Schema,
    detail_schema: &Schema,
    spec: &GmdjSpec,
    opts: &GmdjOptions,
    stats: &mut EvalStats,
) -> Result<Vec<BlockPlan>> {
    let mut plans = Vec::with_capacity(spec.blocks.len());
    let mut agg_offset = 0usize;
    for block in &spec.blocks {
        let full_theta = block.theta.bind(&[base_schema, detail_schema])?;
        let aggs: Vec<BoundAgg> = block
            .aggs
            .iter()
            .map(|a| a.bind(&[base_schema, detail_schema]))
            .collect::<Result<Vec<_>>>()?;

        let (access, residual) = if opts.probe == ProbeStrategy::ForceScan {
            (Access::Scan, Some(block.theta.clone()))
        } else {
            choose_access(
                base_rows,
                base_schema,
                detail_schema,
                &block.theta,
                opts,
                stats,
            )?
        };
        let residual = match residual {
            Some(p) => Some(p.bind(&[base_schema, detail_schema])?),
            None => None,
        };
        let residual_kernel = if opts.vectorized {
            residual.as_ref().and_then(BatchPredicate::compile)
        } else {
            None
        };
        let residual_detail_only = residual_kernel
            .as_ref()
            .map(BatchPredicate::detail_only)
            .unwrap_or(false);
        let probe_source = match &access {
            Access::Hash {
                base_cols,
                detail_cols,
                ..
            } => plans.iter().position(|p: &BlockPlan| {
                matches!(&p.access, Access::Hash { base_cols: b, detail_cols: d, .. }
                    if b == base_cols && d == detail_cols)
            }),
            _ => None,
        }
        .unwrap_or(plans.len());
        let kernel_label = match &access {
            Access::Hash {
                typed: Some(TypedKeyIndex::Int(_)),
                ..
            } => "hash-int",
            Access::Hash {
                typed: Some(TypedKeyIndex::Str(_)),
                ..
            } => "hash-str",
            Access::Hash { .. } => "hash",
            Access::Interval { .. } => "band",
            Access::Scan if residual_kernel.is_some() => "scan-mask",
            Access::Scan => "scan-rows",
        };
        plans.push(BlockPlan {
            full_theta,
            residual,
            access,
            aggs,
            agg_offset,
            residual_kernel,
            residual_detail_only,
            kernel_label,
            probe_source,
        });
        agg_offset += block.aggs.len();
    }
    Ok(plans)
}

/// Pick the best access path for θ and return it with the residual
/// predicate the path does not enforce.
fn choose_access(
    base_rows: &[Tuple],
    base_schema: &Schema,
    detail_schema: &Schema,
    theta: &Predicate,
    opts: &GmdjOptions,
    stats: &mut EvalStats,
) -> Result<(Access, Option<Predicate>)> {
    let conjuncts = theta.split_conjuncts();

    // 1. Equality pairs B.x = R.y.
    let mut base_cols = Vec::new();
    let mut detail_cols = Vec::new();
    let mut used = vec![false; conjuncts.len()];
    for (i, c) in conjuncts.iter().enumerate() {
        if let Predicate::Cmp {
            op: CmpOp::Eq,
            left,
            right,
        } = c
        {
            if let Some((bc, dc)) = split_sides(left, right, base_schema, detail_schema)? {
                base_cols.push(bc);
                detail_cols.push(dc);
                used[i] = true;
            }
        }
    }
    if !base_cols.is_empty() {
        let index = HashIndex::build_rows(base_rows.iter().map(|r| r.as_ref()), &base_cols);
        stats.index_builds += 1;
        // Typed sidecar for the common single-column key. Does not count
        // as an index build: it is a physical detail of the same probe
        // plan, and `index_builds` is a gated semantic counter.
        let typed = if opts.vectorized && base_cols.len() == 1 {
            TypedKeyIndex::build_rows(base_rows.iter().map(|r| r.as_ref()), base_cols[0])
        } else {
            None
        };
        let residual = residual_of(&conjuncts, &used);
        return Ok((
            Access::Hash {
                index,
                base_cols,
                detail_cols,
                typed,
            },
            residual,
        ));
    }

    // 2. Band pair: R.t >= B.lo ∧ R.t (< | <=) B.hi.
    if let Some((lo_i, hi_i, detail_col, lo_col, hi_col, hi_inclusive)) =
        find_band(&conjuncts, base_schema, detail_schema)?
    {
        let index = IntervalIndex::build(
            base_rows
                .iter()
                .map(|r| (r[lo_col].clone(), r[hi_col].clone())),
            hi_inclusive,
        );
        stats.index_builds += 1;
        used[lo_i] = true;
        used[hi_i] = true;
        let residual = residual_of(&conjuncts, &used);
        return Ok((Access::Interval { index, detail_col }, residual));
    }

    // 3. Fall back to scanning active base tuples.
    Ok((Access::Scan, Some(theta.clone())))
}

/// If `left`/`right` are single columns on opposite sides of the
/// (base, detail) divide, return `(base_col, detail_col)` positions.
fn split_sides(
    left: &ScalarExpr,
    right: &ScalarExpr,
    base: &Schema,
    detail: &Schema,
) -> Result<Option<(usize, usize)>> {
    let (ScalarExpr::Column(l), ScalarExpr::Column(r)) = (left, right) else {
        return Ok(None);
    };
    let l_base = l.resolve_in(base).ok();
    let l_detail = l.resolve_in(detail).ok();
    let r_base = r.resolve_in(base).ok();
    let r_detail = r.resolve_in(detail).ok();
    match (l_base, l_detail, r_base, r_detail) {
        (Some(b), None, None, Some(d)) => Ok(Some((b, d))),
        (None, Some(d), Some(b), None) => Ok(Some((b, d))),
        _ => Ok(None),
    }
}

type Band = (usize, usize, usize, usize, usize, bool);

/// Find a pair of conjuncts forming `R.t ≥ B.lo ∧ R.t < B.hi` (or `≤`).
/// Returns (lo conjunct idx, hi conjunct idx, detail col t, base col lo,
/// base col hi, hi_inclusive).
fn find_band(conjuncts: &[&Predicate], base: &Schema, detail: &Schema) -> Result<Option<Band>> {
    // Normalized single-sided comparisons: (conjunct idx, detail col,
    // base col, op with detail on the left).
    let mut lowers: Vec<(usize, usize, usize)> = Vec::new(); // R.t >= B.lo
    let mut uppers: Vec<(usize, usize, usize, bool)> = Vec::new(); // R.t < B.hi (incl?)
    for (i, c) in conjuncts.iter().enumerate() {
        let Predicate::Cmp { op, left, right } = c else {
            continue;
        };
        let (ScalarExpr::Column(l), ScalarExpr::Column(r)) = (left, right) else {
            continue;
        };
        // Orient so the detail column is on the left.
        let (detail_col, base_col, op) =
            if let (Ok(d), Ok(b)) = (l.resolve_in(detail), r.resolve_in(base)) {
                if l.resolve_in(base).is_ok() || r.resolve_in(detail).is_ok() {
                    continue; // ambiguous sides
                }
                (d, b, *op)
            } else if let (Ok(d), Ok(b)) = (r.resolve_in(detail), l.resolve_in(base)) {
                if r.resolve_in(base).is_ok() || l.resolve_in(detail).is_ok() {
                    continue;
                }
                (d, b, op.flip())
            } else {
                continue;
            };
        match op {
            CmpOp::Ge => lowers.push((i, detail_col, base_col)),
            CmpOp::Lt => uppers.push((i, detail_col, base_col, false)),
            CmpOp::Le => uppers.push((i, detail_col, base_col, true)),
            _ => {}
        }
    }
    for &(li, lt, lb) in &lowers {
        for &(ui, ut, ub, inclusive) in &uppers {
            if lt == ut {
                return Ok(Some((li, ui, lt, lb, ub, inclusive)));
            }
        }
    }
    Ok(None)
}

fn residual_of(conjuncts: &[&Predicate], used: &[bool]) -> Option<Predicate> {
    let rest: Vec<Predicate> = conjuncts
        .iter()
        .zip(used)
        .filter(|(_, &u)| !u)
        .map(|(c, _)| (*c).clone())
        .collect();
    if rest.is_empty() {
        None
    } else {
        Some(Predicate::conjoin(rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{ExecPolicy, PlanNodeStats, Runtime};
    use crate::spec::AggBlock;
    use gmdj_relation::agg::NamedAgg;
    use gmdj_relation::expr::{col, lit};
    use gmdj_relation::relation::{Relation, RelationBuilder};
    use gmdj_relation::schema::DataType;

    fn hours() -> Relation {
        RelationBuilder::new("H")
            .column("HourDsc", DataType::Int)
            .column("StartInterval", DataType::Int)
            .column("EndInterval", DataType::Int)
            .row(vec![1.into(), 0.into(), 60.into()])
            .row(vec![2.into(), 61.into(), 120.into()])
            .row(vec![3.into(), 121.into(), 180.into()])
            .build()
            .unwrap()
    }

    fn flows() -> Relation {
        RelationBuilder::new("F")
            .column("StartTime", DataType::Int)
            .column("Protocol", DataType::Str)
            .column("NumBytes", DataType::Int)
            .row(vec![43.into(), "HTTP".into(), 12.into()])
            .row(vec![86.into(), "HTTP".into(), 36.into()])
            .row(vec![99.into(), "FTP".into(), 48.into()])
            .row(vec![132.into(), "HTTP".into(), 24.into()])
            .row(vec![156.into(), "HTTP".into(), 24.into()])
            .row(vec![161.into(), "FTP".into(), 48.into()])
            .build()
            .unwrap()
    }

    /// Example 2.1 / Figure 1: the GMDJ with two sum blocks.
    fn example_2_1_spec() -> GmdjSpec {
        let in_hour = col("F.StartTime")
            .ge(col("H.StartInterval"))
            .and(col("F.StartTime").lt(col("H.EndInterval")));
        GmdjSpec::new(vec![
            AggBlock::new(
                in_hour.clone().and(col("F.Protocol").eq(lit("HTTP"))),
                vec![NamedAgg::sum(col("F.NumBytes"), "sum1")],
            ),
            AggBlock::new(in_hour, vec![NamedAgg::sum(col("F.NumBytes"), "sum2")]),
        ])
    }

    /// The filtered GMDJ through [`Runtime::eval`] under `policy`, with
    /// the counters it recorded.
    fn filtered(
        policy: ExecPolicy,
        base: &Relation,
        detail: &Relation,
        spec: &GmdjSpec,
        selection: Option<&Predicate>,
        keep: Keep,
        completion: Option<&CompletionPlan>,
    ) -> Result<(Relation, EvalStats)> {
        let mut node = PlanNodeStats::new("GMDJ");
        let out = Runtime::new(policy)
            .eval(base, detail, spec, selection, keep, completion, &mut node)?;
        Ok((out, node.eval))
    }

    /// The plain GMDJ `MD(base, detail, spec)` through [`Runtime::eval`].
    fn gmdj(
        policy: ExecPolicy,
        base: &Relation,
        detail: &Relation,
        spec: &GmdjSpec,
    ) -> Result<(Relation, EvalStats)> {
        filtered(policy, base, detail, spec, None, Keep::All, None)
    }

    fn seq() -> ExecPolicy {
        ExecPolicy::sequential()
    }

    fn force_scan() -> ExecPolicy {
        seq().with_probe(ProbeStrategy::ForceScan)
    }

    #[test]
    fn figure_1_output() {
        let (out, stats) = gmdj(seq(), &hours(), &flows(), &example_2_1_spec()).unwrap();
        assert_eq!(
            out.schema().qualified_names(),
            vec![
                "H.HourDsc",
                "H.StartInterval",
                "H.EndInterval",
                "sum1",
                "sum2"
            ]
        );
        let rows = out.sorted_rows();
        // Figure 1: 12/12, 36/84, 48/96.
        assert_eq!(rows[0][3], Value::Int(12));
        assert_eq!(rows[0][4], Value::Int(12));
        assert_eq!(rows[1][3], Value::Int(36));
        assert_eq!(rows[1][4], Value::Int(84));
        assert_eq!(rows[2][3], Value::Int(48));
        assert_eq!(rows[2][4], Value::Int(96));
        // Single scan of the detail table per partition.
        assert_eq!(stats.partitions, 1);
        assert_eq!(stats.detail_scanned, 6);
        // Interval index was used for both blocks.
        assert_eq!(stats.index_builds, 2);
    }

    #[test]
    fn inclusive_band_uses_interval_index_and_matches_scan() {
        // R.t >= B.lo ∧ R.t <= B.hi (BETWEEN-style, inclusive upper).
        let spec = GmdjSpec::new(vec![AggBlock::count(
            col("F.StartTime")
                .ge(col("H.StartInterval"))
                .and(col("F.StartTime").le(col("H.EndInterval"))),
            "cnt",
        )]);
        let (indexed, s1) = gmdj(seq(), &hours(), &flows(), &spec).unwrap();
        let (scanned, _) = gmdj(force_scan(), &hours(), &flows(), &spec).unwrap();
        assert!(indexed.multiset_eq(&scanned));
        assert_eq!(
            s1.index_builds, 1,
            "band condition should build an interval index"
        );
        // A boundary point: StartTime 120 would fall in hour 1's closed
        // interval [61, 120] — check the inclusive edge via hour 2's
        // upper bound.
        let rows = indexed.sorted_rows();
        assert_eq!(rows[1][3], Value::Int(2)); // 86 and 99 in [61,120]
    }

    #[test]
    fn force_scan_matches_indexed_result() {
        let (indexed, s1) = gmdj(seq(), &hours(), &flows(), &example_2_1_spec()).unwrap();
        let (scanned, s2) = gmdj(force_scan(), &hours(), &flows(), &example_2_1_spec()).unwrap();
        assert!(indexed.multiset_eq(&scanned));
        assert!(s2.probe_candidates > s1.probe_candidates);
    }

    #[test]
    fn partitioned_evaluation_matches_single_scan() {
        let (single, _) = gmdj(seq(), &hours(), &flows(), &example_2_1_spec()).unwrap();
        let policy = seq().with_partition_rows(Some(1));
        let (parts, s2) = gmdj(policy, &hours(), &flows(), &example_2_1_spec()).unwrap();
        assert!(single.multiset_eq(&parts));
        assert_eq!(s2.partitions, 3);
        assert_eq!(s2.detail_scanned, 18); // one detail scan per partition
    }

    #[test]
    fn empty_detail_yields_zero_counts_and_null_sums() {
        let empty = RelationBuilder::new("F")
            .column("StartTime", DataType::Int)
            .column("Protocol", DataType::Str)
            .column("NumBytes", DataType::Int)
            .build()
            .unwrap();
        let spec = GmdjSpec::new(vec![AggBlock::new(
            Predicate::true_(),
            vec![
                NamedAgg::count_star("cnt"),
                NamedAgg::sum(col("F.NumBytes"), "s"),
            ],
        )]);
        let (out, _) = gmdj(seq(), &hours(), &empty, &spec).unwrap();
        assert_eq!(out.len(), 3);
        for row in out.rows() {
            assert_eq!(row[3], Value::Int(0));
            assert!(row[4].is_null());
        }
    }

    #[test]
    fn empty_base_yields_empty_output() {
        let empty_base = RelationBuilder::new("H")
            .column("HourDsc", DataType::Int)
            .column("StartInterval", DataType::Int)
            .column("EndInterval", DataType::Int)
            .build()
            .unwrap();
        let (out, _) = gmdj(seq(), &empty_base, &flows(), &example_2_1_spec()).unwrap();
        assert!(out.is_empty());
    }

    fn exists_spec() -> GmdjSpec {
        GmdjSpec::new(vec![AggBlock::count(
            col("F.StartTime")
                .ge(col("H.StartInterval"))
                .and(col("F.StartTime").lt(col("H.EndInterval")))
                .and(col("F.Protocol").eq(lit("FTP"))),
            "cnt",
        )])
    }

    #[test]
    fn filtered_exists_with_finish_early() {
        let spec = exists_spec();
        let sel = col("cnt").gt(lit(0));
        let plan = crate::completion::derive_completion(&sel, &spec, true).unwrap();
        assert!(plan.finish_early);
        let (out, stats) = filtered(
            seq(),
            &hours(),
            &flows(),
            &spec,
            Some(&sel),
            Keep::BaseOnly,
            Some(&plan),
        )
        .unwrap();
        // Hours 2 and 3 contain FTP flows.
        let rows = out.sorted_rows();
        assert_eq!(out.len(), 2);
        assert_eq!(rows[0][0], Value::Int(2));
        assert_eq!(rows[1][0], Value::Int(3));
        assert_eq!(out.schema().len(), 3); // base attributes only
        assert_eq!(stats.done_early, 2);
    }

    #[test]
    fn filtered_not_exists_with_dead_rule() {
        let spec = exists_spec();
        let sel = col("cnt").eq(lit(0));
        let plan = crate::completion::derive_completion(&sel, &spec, true).unwrap();
        let (out, stats) = filtered(
            seq(),
            &hours(),
            &flows(),
            &spec,
            Some(&sel),
            Keep::BaseOnly,
            Some(&plan),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(1));
        assert_eq!(stats.dead_early, 2);
        // Same result without completion.
        let (out2, stats2) = filtered(
            seq(),
            &hours(),
            &flows(),
            &spec,
            Some(&sel),
            Keep::BaseOnly,
            None,
        )
        .unwrap();
        assert!(out.multiset_eq(&out2));
        assert_eq!(stats2.dead_early, 0);
    }

    #[test]
    fn pair_dead_rule_mimics_smart_nested_loop() {
        // ALL-style: cnt1 counts θ ∧ B.v > F.NumBytes, cnt2 counts θ, with
        // θ a non-indexable <>; selection cnt1 = cnt2.
        let base = RelationBuilder::new("B")
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .row(vec![1.into(), 1000.into()]) // > all bytes from other keys
            .row(vec![2.into(), 0.into()]) // fails immediately
            .build()
            .unwrap();
        let theta = col("B.k").ne(col("F.k"));
        let detail = RelationBuilder::new("F")
            .column("k", DataType::Int)
            .column("NumBytes", DataType::Int)
            .row(vec![1.into(), 12.into()])
            .row(vec![2.into(), 36.into()])
            .row(vec![3.into(), 48.into()])
            .build()
            .unwrap();
        let spec = GmdjSpec::new(vec![
            AggBlock::count(theta.clone().and(col("B.v").gt(col("F.NumBytes"))), "cnt1"),
            AggBlock::count(theta, "cnt2"),
        ]);
        let sel = col("cnt1").eq(col("cnt2"));
        let plan = crate::completion::derive_completion(&sel, &spec, true).unwrap();
        let (out, stats) = filtered(
            seq(),
            &base,
            &detail,
            &spec,
            Some(&sel),
            Keep::BaseOnly,
            Some(&plan),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(1));
        assert_eq!(stats.dead_early, 1);
    }

    #[test]
    fn null_correlation_keys_never_match() {
        let base = RelationBuilder::new("B")
            .column("k", DataType::Int)
            .row(vec![Value::Null])
            .row(vec![1.into()])
            .build()
            .unwrap();
        let detail = RelationBuilder::new("R")
            .column("k", DataType::Int)
            .row(vec![Value::Null])
            .row(vec![1.into()])
            .build()
            .unwrap();
        let spec = GmdjSpec::new(vec![AggBlock::count(col("B.k").eq(col("R.k")), "cnt")]);
        let (out, _) = gmdj(seq(), &base, &detail, &spec).unwrap();
        let rows = out.sorted_rows();
        // NULL base row: count 0 (NULL = anything is unknown).
        assert!(rows[0][0].is_null());
        assert_eq!(rows[0][1], Value::Int(0));
        assert_eq!(rows[1][1], Value::Int(1));
        // Scan path agrees (3VL handled by predicate evaluation).
        let (scanned, _) = gmdj(force_scan(), &base, &detail, &spec).unwrap();
        assert!(out.multiset_eq(&scanned));
    }

    #[test]
    fn duplicate_base_tuples_each_get_results() {
        let base = RelationBuilder::new("B")
            .column("k", DataType::Int)
            .row(vec![1.into()])
            .row(vec![1.into()])
            .build()
            .unwrap();
        let detail = RelationBuilder::new("R")
            .column("k", DataType::Int)
            .row(vec![1.into()])
            .row(vec![1.into()])
            .row(vec![2.into()])
            .build()
            .unwrap();
        let spec = GmdjSpec::new(vec![AggBlock::count(col("B.k").eq(col("R.k")), "cnt")]);
        let (out, _) = gmdj(seq(), &base, &detail, &spec).unwrap();
        assert_eq!(out.len(), 2);
        for row in out.rows() {
            assert_eq!(row[1], Value::Int(2));
        }
    }

    /// Run one (base, detail, spec) with `vectorized` on and off and
    /// require identical output multisets AND bit-identical counters.
    fn assert_vectorized_exact(
        base: &Relation,
        detail: &Relation,
        spec: &GmdjSpec,
        probe: ProbeStrategy,
        ctx: &str,
    ) {
        for partition_rows in [None, Some(2)] {
            let policy = seq().with_probe(probe).with_partition_rows(partition_rows);
            let (on, on_stats) = gmdj(policy, base, detail, spec).unwrap();
            let policy = policy.with_vectorized(false);
            let (off, off_stats) = gmdj(policy, base, detail, spec).unwrap();
            assert!(
                on.multiset_eq(&off),
                "{ctx}: vectorized output diverged (partition_rows {partition_rows:?})"
            );
            assert_eq!(
                on_stats, off_stats,
                "{ctx}: vectorized counters diverged (partition_rows {partition_rows:?})"
            );
        }
    }

    #[test]
    fn vectorized_is_counter_exact_on_figure_1() {
        for probe in [ProbeStrategy::Auto, ProbeStrategy::ForceScan] {
            assert_vectorized_exact(&hours(), &flows(), &example_2_1_spec(), probe, "figure 1");
        }
    }

    #[test]
    fn vectorized_is_counter_exact_on_string_hash_keys() {
        // Equality on a Str key exercises the prehashed string sidecar;
        // the residual band keeps a detail+base mixed residual per row.
        let spec = GmdjSpec::new(vec![AggBlock::new(
            col("F.Protocol")
                .eq(col("B.proto"))
                .and(col("F.NumBytes").gt(col("B.floor"))),
            vec![
                NamedAgg::sum(col("F.NumBytes"), "s"),
                NamedAgg::count_star("c"),
            ],
        )]);
        let base = RelationBuilder::new("B")
            .column("proto", DataType::Str)
            .column("floor", DataType::Int)
            .row(vec!["HTTP".into(), 20.into()])
            .row(vec!["FTP".into(), 0.into()])
            .row(vec![Value::Null, 0.into()])
            .build()
            .unwrap();
        for probe in [ProbeStrategy::Auto, ProbeStrategy::ForceScan] {
            assert_vectorized_exact(&base, &flows(), &spec, probe, "string keys");
        }
    }

    #[test]
    fn vectorized_is_counter_exact_on_mixed_typed_columns() {
        // A detail key column mixing Int and Float defeats the typed
        // sidecar and the kernels; the fallback must stay exact,
        // including Int(1) = Float(1.0) cross-type equality.
        let base = RelationBuilder::new("B")
            .column("k", DataType::Int)
            .row(vec![1.into()])
            .row(vec![2.into()])
            .build()
            .unwrap();
        let detail = RelationBuilder::new("R")
            .column("k", DataType::Float)
            .column("v", DataType::Float)
            .row(vec![Value::Float(1.0), Value::Float(0.5)])
            .row(vec![Value::Int(2), Value::Int(3)])
            .row(vec![Value::Null, Value::Float(9.0)])
            .build()
            .unwrap();
        let spec = GmdjSpec::new(vec![AggBlock::new(
            col("B.k").eq(col("R.k")),
            vec![NamedAgg::sum(col("R.v"), "s"), NamedAgg::count_star("c")],
        )]);
        for probe in [ProbeStrategy::Auto, ProbeStrategy::ForceScan] {
            assert_vectorized_exact(&base, &detail, &spec, probe, "mixed columns");
        }
    }

    /// Hash blocks on one key (`B.k = R.k`, either way round) read the
    /// candidate lists of the first such block, while a block on another
    /// key probes its own; each still applies its own residual. Answers
    /// equal the probe-free scan, with and without kernels and under a
    /// completion plan.
    #[test]
    fn same_key_blocks_share_one_probe() {
        let mut base = RelationBuilder::new("B")
            .column("k", DataType::Int)
            .column("j", DataType::Int);
        for i in 0..9i64 {
            base = base.row(vec![(i % 5).into(), (i % 3).into()]);
        }
        let base = base.build().unwrap();
        let mut detail = RelationBuilder::new("R")
            .column("k", DataType::Int)
            .column("v", DataType::Int);
        for i in 0..40i64 {
            detail = detail.row(vec![((i * 7) % 6).into(), (i % 4).into()]);
        }
        let detail = detail.build().unwrap();
        let spec = GmdjSpec::new(vec![
            AggBlock::count(col("B.k").eq(col("R.k")).and(col("R.v").eq(lit(1))), "c0"),
            AggBlock::count(col("B.j").eq(col("R.k")), "c1"),
            AggBlock::new(
                col("R.k").eq(col("B.k")).and(col("R.v").gt(lit(1))),
                vec![NamedAgg::sum(col("R.v"), "s2")],
            ),
            AggBlock::count(
                col("B.k").eq(col("R.k")).and(col("R.v").lt(col("B.j"))),
                "c3",
            ),
        ]);
        let plans = plan_blocks(
            base.rows(),
            base.schema(),
            detail.schema(),
            &spec,
            &GmdjOptions::default(),
            &mut EvalStats::default(),
        )
        .unwrap();
        let sources: Vec<usize> = plans.iter().map(|p| p.probe_source).collect();
        assert_eq!(sources, vec![0, 1, 0, 0]);

        let (scanned, _) = gmdj(force_scan(), &base, &detail, &spec).unwrap();
        let (probed, _) = gmdj(seq(), &base, &detail, &spec).unwrap();
        assert!(probed.multiset_eq(&scanned));
        assert_vectorized_exact(&base, &detail, &spec, ProbeStrategy::Auto, "shared probe");

        let selection = col("c0").gt(lit(0)).and(col("c3").gt(lit(0)));
        let plan = crate::completion::derive_completion(&selection, &spec, true).unwrap();
        let run = |policy| {
            filtered(
                policy,
                &base,
                &detail,
                &spec,
                Some(&selection),
                Keep::BaseOnly,
                Some(&plan),
            )
            .unwrap()
        };
        let (completed, stats) = run(seq());
        assert!(stats.done_early > 0);
        assert!(!completed.is_empty());
        assert!(completed.multiset_eq(&run(force_scan()).0));
    }

    #[test]
    fn vectorized_spans_multiple_batches() {
        // More than BATCH_ROWS detail rows: exercises the per-window
        // decode loop and batch-boundary accumulator ordering.
        let mut detail = RelationBuilder::new("R")
            .column("k", DataType::Int)
            .column("v", DataType::Float);
        for i in 0..(super::BATCH_ROWS as i64 + 700) {
            detail = detail.row(vec![(i % 7).into(), Value::Float(i as f64 * 0.25)]);
        }
        let detail = detail.build().unwrap();
        let base = RelationBuilder::new("B")
            .column("k", DataType::Int)
            .row(vec![3.into()])
            .row(vec![5.into()])
            .build()
            .unwrap();
        let spec = GmdjSpec::new(vec![AggBlock::new(
            col("B.k").eq(col("R.k")),
            vec![NamedAgg::sum(col("R.v"), "s"), NamedAgg::count_star("c")],
        )]);
        for probe in [ProbeStrategy::Auto, ProbeStrategy::ForceScan] {
            assert_vectorized_exact(&base, &detail, &spec, probe, "multi batch");
        }
    }

    #[test]
    fn vectorized_errors_match_row_path() {
        // Comparing Str to Int raises TypeMismatch on the row path; the
        // kernel layer must refuse to specialize and surface the same
        // error rather than silently masking it.
        let base = RelationBuilder::new("B")
            .column("k", DataType::Int)
            .row(vec![1.into()])
            .build()
            .unwrap();
        let detail = RelationBuilder::new("R")
            .column("k", DataType::Str)
            .row(vec!["x".into()])
            .build()
            .unwrap();
        let spec = GmdjSpec::new(vec![AggBlock::count(col("B.k").lt(col("R.k")), "c")]);
        for vectorized in [true, false] {
            let err = gmdj(seq().with_vectorized(vectorized), &base, &detail, &spec);
            assert!(err.is_err(), "vectorized={vectorized} must error");
        }
    }

    #[test]
    fn selection_without_completion_keeps_aggregates() {
        let spec = exists_spec();
        let sel = col("cnt").gt(lit(0));
        let (out, _) = filtered(
            seq(),
            &hours(),
            &flows(),
            &spec,
            Some(&sel),
            Keep::All,
            None,
        )
        .unwrap();
        assert_eq!(out.schema().len(), 4);
        assert_eq!(out.len(), 2);
    }

    /// Deterministic pseudo-random stream for the completion fixtures.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// A detail relation of `2 × BATCH_ROWS + 333` rows, so every
    /// completion scan crosses two window boundaries: an Int key and a
    /// dictionary-string key (both with NULLs), a time column for band
    /// conditions, an Int value and a Float value.
    fn completion_detail() -> Relation {
        let mut seed = 7u64;
        let mut b = RelationBuilder::new("F")
            .column("k", DataType::Int)
            .column("s", DataType::Str)
            .column("t", DataType::Int)
            .column("v", DataType::Int)
            .column("f", DataType::Float);
        for i in 0..(2 * BATCH_ROWS + 333) {
            let k = if i % 17 == 5 {
                Value::Null
            } else {
                Value::Int((lcg(&mut seed) % 40) as i64)
            };
            let s = if i % 23 == 7 {
                Value::Null
            } else {
                Value::from(format!("x{}", lcg(&mut seed) % 13))
            };
            let t = Value::Int((lcg(&mut seed) % 600) as i64);
            let v = Value::Int((lcg(&mut seed) % 1000) as i64);
            let f = Value::Float((lcg(&mut seed) % 1000) as f64 * 0.5);
            b = b.row(vec![k, s, t, v, f]);
        }
        b.build().unwrap()
    }

    /// Base tuples: Int and string keys (one NULL each), a band per
    /// tuple, and a threshold value.
    fn completion_base() -> Relation {
        let mut seed = 11u64;
        let mut b = RelationBuilder::new("B")
            .column("k", DataType::Int)
            .column("s", DataType::Str)
            .column("lo", DataType::Int)
            .column("hi", DataType::Int)
            .column("v", DataType::Int);
        for i in 0..48i64 {
            let k = if i == 9 { Value::Null } else { Value::Int(i) };
            let s = if i == 4 {
                Value::Null
            } else {
                Value::from(format!("x{}", i % 15))
            };
            let lo = (lcg(&mut seed) % 560) as i64;
            let width = 1 + (lcg(&mut seed) % 40) as i64;
            // A few large thresholds keep some ALL tuples alive to the end.
            let v = if i % 11 == 0 {
                1000
            } else {
                (lcg(&mut seed) % 1000) as i64
            };
            b = b.row(vec![
                k,
                s,
                Value::Int(lo),
                Value::Int(lo + width),
                Value::Int(v),
            ]);
        }
        b.build().unwrap()
    }

    /// Completion-carrying fixtures: (name, spec, selection, keep).
    fn completion_fixtures() -> Vec<(&'static str, GmdjSpec, Predicate, Keep)> {
        let eq_k = || col("B.k").eq(col("F.k"));
        let in_band = || col("F.t").ge(col("B.lo")).and(col("F.t").lt(col("B.hi")));
        vec![
            // EXISTS, Int hash key, detail-only residual (maskable).
            (
                "exists_int",
                GmdjSpec::new(vec![AggBlock::count(
                    eq_k().and(col("F.v").gt(lit(500))),
                    "cnt",
                )]),
                col("cnt").gt(lit(0)),
                Keep::BaseOnly,
            ),
            // NOT EXISTS, dictionary-string hash key, mixed residual.
            (
                "not_exists_str",
                GmdjSpec::new(vec![AggBlock::count(
                    col("B.s").eq(col("F.s")).and(col("F.v").lt(col("B.v"))),
                    "cnt",
                )]),
                col("cnt").eq(lit(0)),
                Keep::BaseOnly,
            ),
            // Interval block with a dead rule, keeping a computed sum.
            (
                "band_dead_keep_all",
                GmdjSpec::new(vec![AggBlock::new(
                    in_band().and(col("F.v").gt(lit(990))),
                    vec![
                        NamedAgg::count_star("cnt"),
                        NamedAgg::sum(col("F.f").mul(lit(2.0)), "s"),
                    ],
                )]),
                col("cnt").eq(lit(0)),
                Keep::All,
            ),
            // ALL with `<>`: a Scan-access pair dead rule.
            (
                "all_neq_scan",
                GmdjSpec::new(vec![
                    AggBlock::count(
                        col("B.k").ne(col("F.k")).and(col("B.v").gt(col("F.v"))),
                        "cnt1",
                    ),
                    AggBlock::count(col("B.k").ne(col("F.k")), "cnt2"),
                ]),
                col("cnt1").eq(col("cnt2")),
                Keep::BaseOnly,
            ),
            // ALL with `=`: a Hash-access `unless_also` rule.
            (
                "unless_also_hash",
                GmdjSpec::new(vec![
                    AggBlock::count(eq_k().and(col("F.v").le(col("B.v"))), "cnt1"),
                    AggBlock::count(eq_k(), "cnt2"),
                ]),
                col("cnt1").eq(col("cnt2")),
                Keep::BaseOnly,
            ),
            // Tree EXISTS: two finish-early blocks.
            (
                "tree_exists",
                GmdjSpec::new(vec![
                    AggBlock::count(eq_k().and(col("F.s").eq(lit("x3"))), "cnt1"),
                    AggBlock::count(in_band().and(col("F.v").gt(lit(900))), "cnt2"),
                ]),
                col("cnt1").gt(lit(0)).and(col("cnt2").gt(lit(0))),
                Keep::BaseOnly,
            ),
        ]
    }

    /// Run every completion fixture under `probe` × `partition_rows` ×
    /// `vectorized`, check each answer against the same evaluation without
    /// completion, and return the counters in fixture order.
    fn completion_fixture_stats() -> Vec<(String, [u64; 12])> {
        let base = completion_base();
        let detail = completion_detail();
        let mut out = Vec::new();
        for (name, spec, sel, keep) in completion_fixtures() {
            let plan = crate::completion::derive_completion(&sel, &spec, keep == Keep::BaseOnly)
                .unwrap_or_else(|| panic!("{name}: no completion plan"));
            for probe in [ProbeStrategy::Auto, ProbeStrategy::ForceScan] {
                for partition_rows in [None, Some(7)] {
                    let mut per_mode = Vec::new();
                    for vectorized in [true, false] {
                        let policy = seq()
                            .with_probe(probe)
                            .with_partition_rows(partition_rows)
                            .with_vectorized(vectorized);
                        let run = |plan| {
                            filtered(policy, &base, &detail, &spec, Some(&sel), keep, plan).unwrap()
                        };
                        let (got, stats) = run(Some(&plan));
                        let (plain, _) = run(None);
                        assert!(
                            got.multiset_eq(&plain),
                            "{name} {probe:?} {partition_rows:?} vectorized={vectorized}: \
                             completion changed the answer"
                        );
                        per_mode.push(stats.trace_fields().map(|(_, v)| v));
                    }
                    assert_eq!(
                        per_mode[0], per_mode[1],
                        "{name} {probe:?} {partition_rows:?}: vectorized on/off counters differ"
                    );
                    out.push((format!("{name} {probe:?} {partition_rows:?}"), per_mode[0]));
                }
            }
        }
        out
    }

    /// Counter identity for the windowed completion loop. The expected
    /// counters were recorded from the tuple-at-a-time completion loop it
    /// replaced (`trace_fields` order: detail_scanned, probe_candidates,
    /// theta_evals, agg_updates, base_rows, dead_early, done_early,
    /// index_builds, partitions, completion_fallbacks, col_chunk_reads,
    /// row_page_reads), and must hold with `vectorized` on and off.
    #[test]
    fn completion_counters_match_tuple_at_a_time_across_windows() {
        #[rustfmt::skip]
        let expected: [(&str, [u64; 12]); 24] = [
            ("exists_int Auto None", [2381, 74, 74, 39, 48, 0, 39, 1, 1, 0, 6, 15]),
            ("exists_int Auto Some(7)", [16667, 74, 74, 39, 48, 0, 39, 7, 7, 0, 42, 105]),
            ("exists_int ForceScan None", [2381, 24263, 24263, 39, 48, 0, 39, 0, 1, 0, 6, 15]),
            ("exists_int ForceScan Some(7)", [16667, 24263, 24263, 39, 48, 0, 39, 0, 7, 0, 42, 105]),
            ("not_exists_str Auto None", [2381, 365, 365, 0, 48, 41, 0, 1, 1, 0, 6, 15]),
            ("not_exists_str Auto Some(7)", [16667, 365, 365, 0, 48, 41, 0, 7, 7, 0, 42, 105]),
            ("not_exists_str ForceScan None", [2381, 21729, 21729, 0, 48, 41, 0, 0, 1, 0, 6, 15]),
            ("not_exists_str ForceScan Some(7)", [16667, 21729, 21729, 0, 48, 41, 0, 0, 7, 0, 42, 105]),
            ("band_dead_keep_all Auto None", [2381, 2490, 2490, 0, 48, 22, 0, 1, 1, 0, 9, 15]),
            ("band_dead_keep_all Auto Some(7)", [16667, 2490, 2490, 0, 48, 22, 0, 7, 7, 0, 63, 105]),
            ("band_dead_keep_all ForceScan None", [2381, 76077, 76077, 0, 48, 22, 0, 0, 1, 0, 9, 15]),
            ("band_dead_keep_all ForceScan Some(7)", [16667, 76077, 76077, 0, 48, 22, 0, 0, 7, 0, 63, 105]),
            ("all_neq_scan Auto None", [2381, 28942, 40117, 22266, 48, 42, 0, 0, 1, 0, 6, 15]),
            ("all_neq_scan Auto Some(7)", [16667, 28942, 40117, 22266, 48, 42, 0, 0, 7, 0, 42, 105]),
            ("all_neq_scan ForceScan None", [2381, 28942, 40117, 22266, 48, 42, 0, 0, 1, 0, 6, 15]),
            ("all_neq_scan ForceScan Some(7)", [16667, 28942, 40117, 22266, 48, 42, 0, 0, 7, 0, 42, 105]),
            ("unless_also_hash Auto None", [2381, 676, 676, 608, 48, 34, 0, 2, 1, 0, 6, 15]),
            ("unless_also_hash Auto Some(7)", [16667, 676, 676, 608, 48, 34, 0, 14, 7, 0, 42, 105]),
            ("unless_also_hash ForceScan None", [2381, 73530, 73868, 608, 48, 34, 0, 0, 1, 0, 6, 15]),
            ("unless_also_hash ForceScan Some(7)", [16667, 73530, 73868, 608, 48, 34, 0, 0, 7, 0, 42, 105]),
            ("tree_exists Auto None", [2381, 2325, 2325, 232, 48, 0, 37, 2, 1, 0, 12, 15]),
            ("tree_exists Auto Some(7)", [16667, 2325, 2325, 232, 48, 0, 37, 14, 7, 0, 84, 105]),
            ("tree_exists ForceScan None", [2381, 100819, 100819, 232, 48, 0, 37, 0, 1, 0, 12, 15]),
            ("tree_exists ForceScan Some(7)", [16667, 100819, 100819, 232, 48, 0, 37, 0, 7, 0, 84, 105]),
        ];
        let got = completion_fixture_stats();
        assert_eq!(got.len(), expected.len());
        for ((label, stats), (want_label, want)) in got.iter().zip(expected) {
            assert_eq!(label, want_label);
            assert_eq!(*stats, want, "{label}");
        }
    }

    /// A sequential EXISTS / NOT EXISTS with completion reads the detail's
    /// columns only: the cached row view is never built.
    #[test]
    fn completion_scan_never_builds_the_row_view() {
        let base = completion_base();
        let detail = completion_detail();
        for (name, spec, sel, keep) in completion_fixtures() {
            if !matches!(name, "exists_int" | "not_exists_str") {
                continue;
            }
            let plan = crate::completion::derive_completion(&sel, &spec, true).unwrap();
            for vectorized in [true, false] {
                let sink = std::sync::Arc::new(crate::trace::CollectingSink::new());
                let mut node = PlanNodeStats::new("GMDJ");
                Runtime::with_sink(seq().with_vectorized(vectorized), sink.clone())
                    .eval(
                        &base,
                        &detail,
                        &spec,
                        Some(&sel),
                        keep,
                        Some(&plan),
                        &mut node,
                    )
                    .unwrap();
                let (stats, kernel) = (node.eval, node.kernel);
                assert!(stats.dead_early + stats.done_early > 0, "{name}");
                assert!(!detail.has_row_view(), "{name} vectorized={vectorized}");
                // The completion scan reports its kernel like any other
                // sequential scan: one morsel, and with `vectorized` on one
                // span covering every window; the row twin counts the
                // morsel only.
                assert_eq!(kernel.morsels, 1, "{name}");
                let windows = detail.len().div_ceil(BATCH_ROWS) as u64;
                let spans = sink.by_name("gmdj.kernel").len();
                if vectorized {
                    assert_eq!((kernel.batches, spans), (windows, 1), "{name}");
                    // One Hash block: each window row is one work unit.
                    assert_eq!(
                        kernel.rows_vectorized + kernel.rows_row_path,
                        detail.len() as u64,
                        "{name}"
                    );
                } else {
                    assert_eq!(
                        kernel,
                        KernelStats {
                            morsels: 1,
                            ..KernelStats::default()
                        }
                    );
                    assert_eq!(spans, 0, "{name}");
                }
            }
        }
    }
}
