//! GMDJ evaluation (Definition 2.1), in a single scan of the detail
//! relation.
//!
//! The evaluator keeps the base-values relation (plus one accumulator per
//! base tuple per aggregate) in memory and streams the detail relation past
//! it. Per condition θᵢ it builds a *probe plan*:
//!
//! * equality conjuncts `B.x = R.y` → a hash index on the base rows —
//!   the "indexing mechanism intrinsic to GMDJ evaluation": a CSR
//!   [`IntKeyIndex`] for a one-column Int key, a [`HashIndex`] where no
//!   typed index applies;
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use gmdj_relation::agg::{Accumulator, BoundAgg};
use gmdj_relation::batch::{BatchPredicate, BatchView, ColData, ColView, BATCH_ROWS};
use gmdj_relation::columnar::ColumnSet;
use gmdj_relation::error::Result;
use gmdj_relation::expr::{BoundPredicate, BoundScalar, CmpOp, Predicate, ScalarExpr};
use gmdj_relation::index::{HashIndex, IntKeyIndex, IntervalIndex, TypedKeyIndex};
use gmdj_relation::relation::Tuple;
use gmdj_relation::schema::Schema;
use gmdj_relation::value::Value;

use crate::completion::CompletionPlan;
use crate::counters::counter_set;
use crate::spec::GmdjSpec;
use crate::trace::TraceSink;

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

counter_set! {
    /// Machine-independent work counters, accumulated across an evaluation.
    pub struct EvalStats {
        /// Detail tuples consumed (per partition scan). A completion scan
        /// that settles — no base tuple left Active — stops early, so
        /// this counts the rows actually read.
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
        /// Evaluations where a completion plan was present but skipped:
        /// only the distributed mode skips one (its sites scan fragments
        /// in no single order); every local pass runs it. The scan then
        /// runs the plain filtered form; the answer is unchanged. Counted
        /// once per evaluation.
        pub completion_fallbacks: u64,
        /// Column-chunk pages read per detail scan: the paper's `k·P`
        /// arithmetic with `P` counted per *referenced* detail column
        /// (`ceil(|R| / chunk) × referenced_cols × partitions`). A closed
        /// form of the spec and detail length, identical across execution
        /// policies and morsel sizes — and
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
    /// counters must stay identical across execution modes and morsel
    /// sizes, while these describe which physical path ran.
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

/// Whether a completion plan must run row-ordered, as one worker's item
/// of the morsel pass, rather than in waves: some block the plan can
/// retire tuples from — a dead rule's `on_block`, or a finish-early
/// `need_match` block — probes by [`Access::Scan`]. There every detail
/// row visits every active base tuple, so each tuple retired mid-wave
/// would save a θ evaluation per remaining row of the wave (the ALL
/// shape's quadratic pairs): such a plan needs per-row pruning. Hash-
/// and interval-probed blocks only visit matching tuples, so a tuple
/// probed to the end of its wave costs a few candidates, and the batched
/// kernels over parallel morsels beat the row-ordered loop by far more.
pub(crate) fn completion_prunes_pairs(plan: &CompletionPlan, plans: &[BlockPlan]) -> bool {
    let scans = |b: usize| matches!(plans[b].access, Access::Scan);
    plan.dead_rules.iter().any(|r| scans(r.on_block))
        || (plan.finish_early && plan.need_match.iter().any(|&b| scans(b)))
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

/// The base-tuple statuses of one completion job, shared by every worker
/// of its morsel pass. Statuses only move one way, Active → Dead or Done,
/// so a scan that sees a retirement late stays correct; it only prunes
/// less.
///
/// * **Row-ordered** (one worker's item, [`completion_prunes_pairs`]): a
///   tuple retires the moment a dead rule fires or its last needed block
///   matches, exactly as tuple-at-a-time evaluation would.
/// * **Waved**: the detail is cut into waves ([`wave_rows`]) and every
///   range of a wave reads the statuses as they were when the wave
///   began. Workers only *record* a fired dead rule or a matched block,
///   by OR-ing flags, which is order-free; [`Statuses::end_wave`] applies
///   them once the wave's last range is in. So the statuses, and every
///   [`EvalStats`] counter, depend on the plan, the data and the wave
///   schedule alone — never on the worker count or the morsel size.
///
/// The flags are relaxed atomics: workers write them during a wave, and
/// the dealer's lock orders every wave's writes before the boundary that
/// reads them and that boundary's retirements before the next wave.
///
/// Aligned to its own cache lines: the jobs of a shared pass keep their
/// statuses side by side, and one job's retirements must not evict the
/// fields another job's worker reads in its hot loop.
#[repr(align(128))]
pub(crate) struct Statuses {
    /// Per block: the dead rule its matches trigger — `Some(None)` for a
    /// `cnt = 0` rule, `Some(Some(sub))` for an `unless_also` pair rule.
    rule_of_block: Vec<Option<Option<usize>>>,
    /// Blocks that must all match before a tuple is Done.
    need_mask: u64,
    /// Theorem 4.1 applies (at most 64 blocks, so `need_mask` fits).
    finish_early: bool,
    waved: bool,
    /// The tuple is Active — for a waved job, as of the wave's start.
    active: Vec<AtomicBool>,
    /// A dead rule fired for the tuple.
    dead: Vec<AtomicBool>,
    /// One bit per block the tuple has matched (finish-early plans).
    matched: Vec<AtomicU64>,
    /// How many tuples are Active.
    live: AtomicUsize,
}

impl Statuses {
    /// Every one of `n` base tuples Active under `plan` over `blocks`
    /// probe plans.
    pub(crate) fn new(plan: &CompletionPlan, blocks: usize, n: usize, waved: bool) -> Self {
        let mut rule_of_block = vec![None; blocks];
        for rule in &plan.dead_rules {
            rule_of_block[rule.on_block] = Some(rule.unless_also);
        }
        let finish_early = plan.finish_early && blocks <= 64;
        let need_mask = if finish_early {
            plan.need_match.iter().fold(0u64, |m, &b| m | 1 << b)
        } else {
            0
        };
        Statuses {
            rule_of_block,
            need_mask,
            finish_early,
            waved,
            active: (0..n).map(|_| AtomicBool::new(true)).collect(),
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            matched: (0..if finish_early { n } else { 0 })
                .map(|_| AtomicU64::new(0))
                .collect(),
            live: AtomicUsize::new(n),
        }
    }

    /// Whether retirements wait for the wave's end.
    pub(crate) fn waved(&self) -> bool {
        self.waved
    }

    /// No tuple is Active: the rest of the detail cannot change the
    /// answer, so the scan may stop.
    pub(crate) fn settled(&self) -> bool {
        self.live.load(Ordering::Relaxed) == 0
    }

    #[inline]
    fn is_active(&self, b: usize) -> bool {
        self.active[b].load(Ordering::Relaxed)
    }

    /// The Active flags, for hot loops to hold as a local slice: a
    /// `&Statuses` is interior-mutable, so the compiler would reload its
    /// fields after every store the loop makes.
    fn active_flags(&self) -> &[AtomicBool] {
        &self.active
    }

    /// Retire an Active tuple. Only ever one thread at a time retires
    /// (the item's worker, or the worker closing a wave under the
    /// dealer's lock), so `live` needs no read-modify-write.
    fn retire(&self, b: usize, dead: bool, stats: &mut EvalStats) {
        self.active[b].store(false, Ordering::Relaxed);
        let live = self.live.load(Ordering::Relaxed);
        self.live.store(live - 1, Ordering::Relaxed);
        if dead {
            stats.dead_early += 1;
        } else {
            stats.done_early += 1;
        }
    }

    /// Whether a pair passing block `bi`'s θ needs [`Statuses::admits`]:
    /// the block has a dead rule, or finish-early counts its matches.
    fn watches(&self, bi: usize) -> bool {
        self.finish_early || self.rule_of_block[bi].is_some()
    }

    /// Decide whether a pair that passed block `bi`'s θ folds its row:
    /// apply the block's dead rule — a pair rule costs one more θ
    /// evaluation, of the subset block over the full detail row — and,
    /// when the tuple survives it, record the block as matched for
    /// finish-early (blocks with a dead rule never count as matched).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn admits(
        &self,
        bi: usize,
        b_idx: usize,
        b_row: &[Value],
        blocks: &[BlockPlan],
        cols: &ColumnSet,
        row: usize,
        scratch: &mut RowScratch,
        stats: &mut EvalStats,
    ) -> Result<bool> {
        let survives = match self.rule_of_block[bi] {
            None => true,
            Some(None) => false,
            Some(Some(sub)) => {
                stats.theta_evals += 1;
                let r = scratch.get(cols, row);
                blocks[sub].full_theta.eval(&[b_row, r])?.passes()
            }
        };
        if !survives {
            self.dead[b_idx].store(true, Ordering::Relaxed);
            if !self.waved {
                self.retire(b_idx, true, stats);
            }
        } else if self.finish_early && self.rule_of_block[bi].is_none() {
            let bit = 1u64 << bi;
            let m = &self.matched[b_idx];
            let seen = m.load(Ordering::Relaxed);
            if seen & bit == 0 {
                if self.waved {
                    m.fetch_or(bit, Ordering::Relaxed);
                } else {
                    m.store(seen | bit, Ordering::Relaxed);
                    if (seen | bit) & self.need_mask == self.need_mask {
                        self.retire(b_idx, false, stats);
                    }
                }
            }
        }
        Ok(survives)
    }

    /// Close a wave of a waved job: retire every Active tuple whose dead
    /// rule fired (Dead) or whose needed blocks have all matched (Done),
    /// counting each into `stats`. Runs once per wave, after its last
    /// range and before the next wave is dealt.
    pub(crate) fn end_wave(&self, stats: &mut EvalStats) {
        for b in 0..self.active.len() {
            if !self.is_active(b) {
                continue;
            }
            if self.dead[b].load(Ordering::Relaxed) {
                self.retire(b, true, stats);
            } else if self.finish_early
                && self.matched[b].load(Ordering::Relaxed) & self.need_mask == self.need_mask
            {
                self.retire(b, false, stats);
            }
        }
    }

    /// Each tuple's final status.
    pub(crate) fn status(&self) -> Vec<Status> {
        (0..self.active.len())
            .map(|b| {
                if self.is_active(b) {
                    Status::Active
                } else if self.dead[b].load(Ordering::Relaxed) {
                    Status::Dead
                } else {
                    Status::Done
                }
            })
            .collect()
    }
}

/// Rows in wave `k` of a waved completion scan over `detail_len` rows:
/// whole [`BATCH_ROWS`] batches, doubling from one batch per wave up to
/// a quarter of the detail. Early waves are small because most
/// retirements come early (an EXISTS tuple usually finds its first match
/// within a few batches), so a settled scan stops soon; later waves are
/// large, so a scan that never settles closes few waves (a dozen over
/// 1.2M rows), and every wave boundary makes the workers wait for each
/// other. The schedule reads nothing but `k` and `detail_len` — not the
/// worker count, not the morsel size.
pub(crate) fn wave_rows(k: u32, detail_len: usize) -> usize {
    let cap = detail_len.div_ceil(4 * BATCH_ROWS).max(1);
    (1usize << k.min(20)).min(cap) * BATCH_ROWS
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
    /// The first block whose probe yields this block's candidates:
    /// itself, or an earlier hash block on the same base and detail key
    /// columns, whose probe this block reuses instead of probing again
    /// (each block still computes its own residual mask).
    probe_source: usize,
    /// On a Hash or Interval block that is its own `probe_source`: every
    /// block reading its probe, itself first, ascending. Empty otherwise.
    probe_group: Vec<usize>,
}

enum Access {
    /// Iterate all active base tuples.
    Scan,
    /// Hash probe: key extracted from the detail row.
    Hash(HashAccess),
    /// Interval stab: point extracted from the detail row.
    Interval {
        index: IntervalIndex,
        detail_col: usize,
    },
}

struct HashAccess {
    /// Key columns on the base side (the index's key) and the detail side
    /// (the probe's key), in pair order.
    base_cols: Vec<usize>,
    detail_cols: Vec<usize>,
    /// Typed index, built for every single-column key whose base values
    /// it can hold: probes from a matching typed batch column skip
    /// `Value` construction and, for strings, reuse the batch's cached
    /// hash codes.
    typed: Option<TypedKeyIndex>,
    /// The generic index over boxed `Value` keys, built on the first
    /// probe the typed index cannot serve: a multi-column key, base keys
    /// of no single primitive type, or a detail key column of another
    /// type (the cross-type `Int = Float` path). The plan counts it in
    /// `index_builds` either way.
    generic: OnceLock<HashIndex>,
}

impl HashAccess {
    fn generic(&self, base_rows: &[Tuple]) -> &HashIndex {
        self.generic.get_or_init(|| {
            HashIndex::build_rows(base_rows.iter().map(|r| r.as_ref()), &self.base_cols)
        })
    }
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

/// The detail row at one global index, late-materialized from the stored
/// columns for the row-semantics fallbacks. It is rebuilt only when the
/// index moves, so at most once per detail position however many
/// candidates touch it.
struct RowScratch {
    row: Vec<Value>,
    at: usize,
}

impl Default for RowScratch {
    fn default() -> Self {
        RowScratch {
            row: Vec::new(),
            at: usize::MAX,
        }
    }
}

impl RowScratch {
    #[inline]
    fn get(&mut self, cols: &ColumnSet, row: usize) -> &[Value] {
        if self.at != row {
            cols.fill_row(row, &mut self.row);
            self.at = row;
        }
        &self.row
    }
}

/// The buffers one scan call reuses across windows.
#[derive(Default)]
struct Scratch {
    /// A Scan block's residual mask for one base tuple.
    mask: Vec<bool>,
    /// A probe group's union of masks ([`group_union`]).
    union: Vec<bool>,
    /// A band probe's stab result.
    stab: Vec<u32>,
    /// A generic hash probe's key.
    key: Vec<Value>,
    /// The window rows a Scan block's mask selected, and their typed
    /// aggregate inputs.
    sel: Vec<u32>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    row: RowScratch,
}

/// One aggregate's input over one detail window, resolved once per window
/// from the stored column types, so a pair's update is a typed
/// [`Accumulator`] call. Only `Computed` late-materializes the row.
#[derive(Clone, Copy)]
enum AggInput<'a> {
    /// `COUNT(*)`: a non-NULL marker per tuple.
    Star,
    /// A typed detail column's window and its NULL mask.
    Int(&'a [i64], &'a [bool]),
    Float(&'a [f64], &'a [bool]),
    /// A detail column of another stored type, rebuilt as a `Value`.
    Cell(usize),
    /// A column of the probing base tuple.
    Base(usize),
    Literal(&'a Value),
    Computed(&'a BoundScalar),
}

impl<'a> AggInput<'a> {
    fn resolve(agg: &'a BoundAgg, view: &BatchView<'a>) -> Self {
        match &agg.input {
            None => AggInput::Star,
            Some(BoundScalar::Column { scope: 1, index }) => {
                let col = view.col(*index);
                match col.data {
                    ColData::Int(vals) => AggInput::Int(vals, col.nulls),
                    ColData::Float(vals) => AggInput::Float(vals, col.nulls),
                    _ => AggInput::Cell(*index),
                }
            }
            Some(BoundScalar::Column { scope: 0, index }) => AggInput::Base(*index),
            Some(BoundScalar::Literal(v)) => AggInput::Literal(v),
            Some(e) => AggInput::Computed(e),
        }
    }

    /// Fold window row `i` (global `row`) into `acc`, exactly as
    /// [`BoundAgg::update`] would.
    #[inline]
    fn fold(
        self,
        acc: &mut Accumulator,
        b_row: &[Value],
        cols: &ColumnSet,
        i: usize,
        row: usize,
        scratch: &mut RowScratch,
    ) -> Result<()> {
        if let AggInput::Computed(e) = self {
            let v = e.eval(&[b_row, scratch.get(cols, row)])?;
            acc.update(&v);
        } else {
            self.fold_plain(acc, b_row, cols, i, row);
        }
        Ok(())
    }

    /// [`fold`](Self::fold) for every input but `Computed`: it cannot
    /// fail and reads no materialized row.
    #[inline(always)]
    fn fold_plain(
        self,
        acc: &mut Accumulator,
        b_row: &[Value],
        cols: &ColumnSet,
        i: usize,
        row: usize,
    ) {
        match self {
            AggInput::Star => acc.update_int(1),
            AggInput::Int(vals, nulls) if !nulls[i] => acc.update_int(vals[i]),
            AggInput::Float(vals, nulls) if !nulls[i] => acc.update_float(vals[i]),
            AggInput::Int(..) | AggInput::Float(..) => acc.update(&Value::Null),
            AggInput::Cell(c) => acc.update(&cols.value_at(row, c)),
            AggInput::Base(c) => acc.update(&b_row[c]),
            AggInput::Literal(v) => acc.update(v),
            AggInput::Computed(_) => unreachable!("a computed input folds through `fold`"),
        }
    }
}

/// One block's state for one detail window: its resolved aggregate
/// inputs and, for a Hash or Interval block whose residual compiles to a
/// detail-only kernel, the residual mask — computed before any candidate
/// is walked, since it does not depend on the base tuple.
#[derive(Default)]
struct BlockWindow<'a> {
    inputs: Vec<AggInput<'a>>,
    mask: Vec<bool>,
    masked: bool,
    /// Every pair the walk visits passes θ and folds, with no status to
    /// consult and no input that can fail: no statuses, no residual left
    /// to interpret, no computed input. A group of one such block folds
    /// its window in one tight loop ([`ScanCtx::plain_window`]).
    plain: bool,
}

impl<'a> BlockWindow<'a> {
    /// Resolve `plan`'s inputs over `view` and, for a Hash or Interval
    /// block, compute its mask, decide whether its pairs are `plain`
    /// under `statuses`, and count the block × window in `kernel`.
    /// A Scan block's residual reads the base tuple, so the scan masks it
    /// per base tuple and counts it there.
    fn fill(
        &mut self,
        plan: &'a BlockPlan,
        view: &BatchView<'a>,
        statuses: Option<&Statuses>,
        kernel: &mut KernelStats,
    ) {
        self.inputs.clear();
        self.inputs
            .extend(plan.aggs.iter().map(|a| AggInput::resolve(a, view)));
        if matches!(plan.access, Access::Scan) {
            return;
        }
        self.masked = match &plan.residual_kernel {
            Some(k) if plan.residual_detail_only => k.eval_mask(view, None, &mut self.mask),
            _ => false,
        };
        self.plain = statuses.is_none()
            && (plan.residual.is_none() || self.masked)
            && !self
                .inputs
                .iter()
                .any(|i| matches!(i, AggInput::Computed(_)));
        if plan.residual.is_none() || self.masked {
            kernel.rows_vectorized += view.len() as u64;
        } else {
            kernel.rows_row_path += view.len() as u64;
        }
    }

    /// False where the mask proves no pair of window row `i` passes θ.
    #[inline]
    fn may_pass(&self, i: usize) -> bool {
        !self.masked || self.mask[i]
    }
}

/// A Hash or Interval block's probe over one detail window, resolved once
/// per window from the stored key column's type.
enum RowProbe<'a> {
    /// The CSR index, probed straight from a typed Int key column.
    Int(&'a IntKeyIndex, &'a [i64], &'a [bool]),
    /// The prehashed string buckets, probed with the dictionary's cached
    /// hash codes: a code lookup plus, on a hash hit, one bytes compare.
    Str(&'a TypedKeyIndex, ColView<'a>),
    /// The generic index, through a `Value` key rebuilt per row. Only
    /// this path ever sees cross-type numeric equality (`Int(1) =
    /// Float(1.0)`): the typed index holds no float keys and is not
    /// consulted for other column types.
    Generic(&'a HashIndex, &'a [usize]),
    /// An interval stab, widened to `f64` from typed columns.
    Band(&'a IntervalIndex, ColView<'a>, usize),
}

impl<'a> RowProbe<'a> {
    fn new(access: &'a Access, view: &BatchView<'a>, base_rows: &[Tuple]) -> Self {
        match access {
            Access::Hash(h) => {
                if let Some(typed) = &h.typed {
                    let col = view.col(h.detail_cols[0]);
                    match (typed, col.data) {
                        (TypedKeyIndex::Int(csr), ColData::Int(keys)) => {
                            return RowProbe::Int(csr, keys, col.nulls)
                        }
                        (TypedKeyIndex::Str(_), ColData::Str { .. }) => {
                            return RowProbe::Str(typed, col)
                        }
                        _ => {}
                    }
                }
                RowProbe::Generic(h.generic(base_rows), &h.detail_cols)
            }
            Access::Interval { index, detail_col } => {
                RowProbe::Band(index, view.col(*detail_col), *detail_col)
            }
            Access::Scan => unreachable!("scan access has no per-row candidates"),
        }
    }

    /// Window row `i`'s (global `row`'s) candidate base tuples: borrowed
    /// from the index for a hash probe, stabbed into `stab` for a band.
    #[inline(always)]
    fn candidates<'s>(
        &self,
        i: usize,
        row: usize,
        cols: &ColumnSet,
        key: &mut Vec<Value>,
        stab: &'s mut Vec<u32>,
    ) -> &'s [u32]
    where
        'a: 's,
    {
        match self.keyed(i, row, cols, key) {
            Some(cands) => cands,
            None => self.stab(i, row, cols, stab),
        }
    }

    /// A hash probe's candidates for window row `i`, borrowed from the
    /// index; `None` for a band. The CSR probe is inlined into the row
    /// loop; the others are not.
    #[inline(always)]
    fn keyed(
        &self,
        i: usize,
        row: usize,
        cols: &ColumnSet,
        key: &mut Vec<Value>,
    ) -> Option<&'a [u32]> {
        match *self {
            RowProbe::Int(_, _, nulls) if nulls[i] => Some(&[]),
            RowProbe::Int(csr, keys, _) => Some(csr.probe(keys[i])),
            RowProbe::Band(..) => None,
            _ => Some(self.keyed_other(i, row, cols, key)),
        }
    }

    #[inline(never)]
    fn keyed_other(
        &self,
        i: usize,
        row: usize,
        cols: &ColumnSet,
        key: &mut Vec<Value>,
    ) -> &'a [u32] {
        match *self {
            RowProbe::Str(typed, col) => match col.data {
                ColData::Str {
                    codes,
                    dict,
                    dict_hashes,
                } if !col.nulls[i] => {
                    let d = codes[i] as usize;
                    typed.probe_str(dict_hashes[d], &dict[d])
                }
                _ => &[],
            },
            RowProbe::Generic(index, detail_cols) => {
                key.clear();
                key.extend(detail_cols.iter().map(|&c| cols.value_at(row, c)));
                index.probe(key)
            }
            RowProbe::Int(..) | RowProbe::Band(..) => unreachable!("resolved in `keyed`"),
        }
    }

    #[inline(never)]
    fn stab<'s>(
        &self,
        i: usize,
        row: usize,
        cols: &ColumnSet,
        stab: &'s mut Vec<u32>,
    ) -> &'s [u32] {
        let RowProbe::Band(index, col, c) = *self else {
            unreachable!("only a band probe stabs");
        };
        if col.nulls[i] {
            stab.clear();
        } else {
            match col.data {
                ColData::Int(vals) => index.stab_f64(vals[i] as f64, stab),
                ColData::Float(vals) => index.stab_f64(vals[i], stab),
                _ => index.stab(&cols.value_at(row, c), stab),
            }
        }
        stab
    }
}

/// The OR of a probe group's masks over one window, in `out`, when every
/// block of the group has one; `None` when some block must walk every
/// row.
fn group_union<'u>(
    group: &[usize],
    windows: &[BlockWindow<'_>],
    out: &'u mut Vec<bool>,
) -> Option<&'u [bool]> {
    let (&first, rest) = group.split_first()?;
    if !group.iter().all(|&g| windows[g].masked) {
        return None;
    }
    out.clear();
    out.extend_from_slice(&windows[first].mask);
    for &g in rest {
        for (u, &m) in out.iter_mut().zip(&windows[g].mask) {
            *u |= m;
        }
    }
    Some(out)
}

/// How many of `cands` a pair walk would visit: all of them, or under a
/// status snapshot only the Active ones.
#[inline]
fn live_count(cands: &[u32], flags: Option<&[AtomicBool]>) -> u64 {
    match flags {
        None => cands.len() as u64,
        Some(f) => cands
            .iter()
            .filter(|&&b| f[b as usize].load(Ordering::Relaxed))
            .count() as u64,
    }
}

/// What every pair walk of one scan call reads.
struct ScanCtx<'a> {
    cols: &'a ColumnSet,
    plans: &'a [BlockPlan],
    base_rows: &'a [Tuple],
    statuses: Option<&'a Statuses>,
    flags: Option<&'a [AtomicBool]>,
    total_aggs: usize,
}

impl ScanCtx<'_> {
    /// Count `n` candidates a mask rejected: each is a probe candidate
    /// and a θ evaluation the mask answered.
    #[inline]
    fn count_rejected(&self, n: u64, stats: &mut EvalStats) {
        stats.probe_candidates += n;
        stats.theta_evals += n;
    }

    /// The fused walk of a window whose probe only block `bi` reads, for
    /// a [`BlockWindow::plain`] block: a row its mask rejects only counts
    /// its candidates; every other row folds into each of them, and each
    /// such pair is one probe candidate (and one θ evaluation the mask
    /// answered, where a residual is left).
    #[allow(clippy::too_many_arguments)]
    fn plain_window(
        &self,
        bi: usize,
        w: &BlockWindow<'_>,
        probe: &RowProbe<'_>,
        view: &BatchView<'_>,
        accs: &mut [Accumulator],
        s: &mut Scratch,
        stats: &mut EvalStats,
    ) {
        let plan = &self.plans[bi];
        let width = w.inputs.len();
        let (mut pairs, mut rejected) = (0u64, 0u64);
        for i in 0..view.len() {
            let row = view.start() + i;
            let cands = probe.candidates(i, row, self.cols, &mut s.key, &mut s.stab);
            if !w.may_pass(i) {
                rejected += cands.len() as u64;
                continue;
            }
            pairs += cands.len() as u64;
            for &b in cands {
                let b = b as usize;
                let at = b * self.total_aggs + plan.agg_offset;
                for (acc, input) in accs[at..at + width].iter_mut().zip(&w.inputs) {
                    input.fold_plain(acc, &self.base_rows[b], self.cols, i, row);
                }
            }
        }
        stats.probe_candidates += pairs;
        if plan.residual.is_some() {
            stats.theta_evals += pairs;
        }
        stats.agg_updates += pairs * width as u64;
        self.count_rejected(rejected, stats);
    }

    /// One window of a Scan block: its residual is evaluated as one mask
    /// per Active base tuple (the residual reads the base tuple), and the
    /// selected rows fold in batches; a residual no kernel covers is
    /// evaluated pair by pair. Base-outer within the window, so each
    /// accumulator still folds in detail-row order and float sums are
    /// bit-identical to tuple-at-a-time evaluation.
    #[allow(clippy::too_many_arguments)]
    fn scan_window(
        &self,
        bi: usize,
        w: &BlockWindow<'_>,
        view: &BatchView<'_>,
        accs: &mut [Accumulator],
        s: &mut Scratch,
        stats: &mut EvalStats,
        kernel: &mut KernelStats,
    ) -> Result<()> {
        let plan = &self.plans[bi];
        let res = plan
            .residual
            .as_ref()
            .expect("scan access always has residual");
        // A waved job retires no tuple through a Scan block (that plan
        // runs row-ordered), so here the statuses only mask.
        debug_assert!(self
            .statuses
            .is_none_or(|st| st.rule_of_block[bi].is_none()));
        let (win_start, win_len) = (view.start(), view.len());
        for (b_idx, b_row) in self.base_rows.iter().enumerate() {
            if self
                .flags
                .is_some_and(|f| !f[b_idx].load(Ordering::Relaxed))
            {
                continue;
            }
            let b_row: &[Value] = b_row;
            let masked = match &plan.residual_kernel {
                Some(k) => k.eval_mask(view, Some(b_row), &mut s.mask),
                None => false,
            };
            stats.probe_candidates += win_len as u64;
            stats.theta_evals += win_len as u64;
            let at = b_idx * self.total_aggs + plan.agg_offset;
            let b_accs = &mut accs[at..at + w.inputs.len()];
            if masked {
                kernel.rows_vectorized += win_len as u64;
                s.sel.clear();
                s.sel.extend(
                    s.mask
                        .iter()
                        .enumerate()
                        .filter(|(_, &m)| m)
                        .map(|(i, _)| i as u32),
                );
                if !s.sel.is_empty() {
                    fold_selected(&w.inputs, b_accs, b_row, self.cols, win_start, s)?;
                    stats.agg_updates += (s.sel.len() * w.inputs.len()) as u64;
                }
            } else {
                kernel.rows_row_path += win_len as u64;
                for i in 0..win_len {
                    let row = win_start + i;
                    if !res.eval(&[b_row, s.row.get(self.cols, row)])?.passes() {
                        continue;
                    }
                    for (acc, input) in b_accs.iter_mut().zip(&w.inputs) {
                        input.fold(acc, b_row, self.cols, i, row, &mut s.row)?;
                    }
                    stats.agg_updates += w.inputs.len() as u64;
                }
            }
        }
        Ok(())
    }

    /// One window of the probe group of block `bi` (its own probe
    /// source), whose blocks' `windows` are filled: one fused walk. Each
    /// row is probed once; where every block's mask rejects the row
    /// (mask before probe) its live candidates count once per block and
    /// none is walked; otherwise each block walks or counts them.
    fn probe_window(
        &self,
        bi: usize,
        windows: &[BlockWindow<'_>],
        view: &BatchView<'_>,
        accs: &mut [Accumulator],
        s: &mut Scratch,
        stats: &mut EvalStats,
    ) -> Result<()> {
        let plan = &self.plans[bi];
        let group = &plan.probe_group[..];
        let probe = RowProbe::new(&plan.access, view, self.base_rows);
        if let [g] = *group {
            if windows[g].plain {
                self.plain_window(g, &windows[g], &probe, view, accs, s, stats);
                return Ok(());
            }
        }
        let union = group_union(group, windows, &mut s.union);
        let mut rejected_rows = 0u64;
        for i in 0..view.len() {
            let row = view.start() + i;
            let cands = probe.candidates(i, row, self.cols, &mut s.key, &mut s.stab);
            if union.is_some_and(|u| !u[i]) {
                rejected_rows += live_count(cands, self.flags);
                continue;
            }
            for &g in group {
                let w = &windows[g];
                if w.may_pass(i) {
                    self.walk(g, w, cands, i, row, accs, &mut s.row, stats)?;
                } else {
                    self.count_rejected(live_count(cands, self.flags), stats);
                }
            }
        }
        self.count_rejected(rejected_rows * group.len() as u64, stats);
        Ok(())
    }

    /// Walk window row `i`'s (global `row`'s) candidates `cands` through
    /// block `bi`, whose mask, if any, passed the row. Counters mirror
    /// tuple-at-a-time evaluation: each Active candidate is one probe
    /// candidate and, with a residual, one θ evaluation even when the
    /// mask answered it. A passing pair goes through the block's dead
    /// rule and finish-early bookkeeping ([`Statuses::admits`]) and folds
    /// the row through the block's typed inputs.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn walk(
        &self,
        bi: usize,
        w: &BlockWindow<'_>,
        cands: &[u32],
        i: usize,
        row: usize,
        accs: &mut [Accumulator],
        scratch: &mut RowScratch,
        stats: &mut EvalStats,
    ) -> Result<()> {
        let plan = &self.plans[bi];
        let admit = self.statuses.filter(|s| s.watches(bi));
        for &b in cands {
            let b_idx = b as usize;
            if self
                .flags
                .is_some_and(|f| !f[b_idx].load(Ordering::Relaxed))
            {
                continue;
            }
            stats.probe_candidates += 1;
            let b_row: &[Value] = &self.base_rows[b_idx];
            if let Some(res) = &plan.residual {
                stats.theta_evals += 1;
                if !w.masked && !res.eval(&[b_row, scratch.get(self.cols, row)])?.passes() {
                    continue;
                }
            }
            if let Some(s) = admit {
                if !s.admits(bi, b_idx, b_row, self.plans, self.cols, row, scratch, stats)? {
                    continue;
                }
            }
            let at = b_idx * self.total_aggs + plan.agg_offset;
            for (acc, input) in accs[at..at + w.inputs.len()].iter_mut().zip(&w.inputs) {
                input.fold(acc, b_row, self.cols, i, row, scratch)?;
            }
            stats.agg_updates += w.inputs.len() as u64;
        }
        Ok(())
    }
}

/// The detail scan: fold detail rows `range` into one query's
/// accumulators, keeping its counters exactly as a standalone scan of the
/// same rows would. The morsel driver ([`crate::shared::morsel_pass`])
/// calls it once per (job, dealt range), and every site once over its
/// fragment.
///
/// It views the stored detail columns in windows of [`BATCH_ROWS`] rows.
/// There is no per-query decode: kernels borrow column slices straight
/// from storage, and a full row is late-materialized into a scratch
/// buffer only where row semantics are required — at most once per
/// detail position.
///
/// A Hash or Interval block is one fused walk per window, shared by every
/// block reading its probe (`probe_group`). First each block computes its
/// detail-only residual mask, if its residual compiles to one, and
/// resolves its aggregate inputs to typed column slices ([`AggInput`]).
/// Then each window row is probed once — a borrowed CSR slice for an Int
/// key — and each block either walks the row's candidates, folding every
/// passing pair through a typed [`Accumulator`] call, or, where its mask
/// fails, only counts them. A Scan block evaluates its residual as one
/// mask per (base tuple × window) and folds the selected rows in batches;
/// a residual no kernel covers is evaluated pair by pair.
///
/// With a waved job's `statuses`, a base tuple that was not Active when
/// the wave began is skipped as a candidate (and in a Scan block's base
/// loop), and a pair that passes θ goes through the block's dead rule
/// and finish-early bookkeeping ([`Statuses`]), which
/// [`Statuses::end_wave`] applies at the wave's end.
///
/// It returns only the scan's error, if any: the accumulators land in
/// `accs` and the counters in `stats` / `kernel`. One call is one
/// scheduling morsel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_detail_vectorized(
    cols: &ColumnSet,
    range: Range<usize>,
    plans: &[BlockPlan],
    statuses: Option<&Statuses>,
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
    let ctx = ScanCtx {
        cols,
        plans,
        base_rows,
        statuses,
        flags: statuses.map(Statuses::active_flags),
        total_aggs,
    };
    let mut windows: Vec<BlockWindow> = plans.iter().map(|_| BlockWindow::default()).collect();
    let mut scratch = Scratch::default();
    let mut win_start = range.start;
    while win_start < range.end {
        let win_len = (range.end - win_start).min(BATCH_ROWS);
        let view = BatchView::new(cols, win_start, win_len);
        kernel.batches += 1;
        stats.detail_scanned += win_len as u64;
        for (bi, plan) in plans.iter().enumerate() {
            if let Access::Scan = plan.access {
                windows[bi].fill(plan, &view, statuses, kernel);
                ctx.scan_window(bi, &windows[bi], &view, accs, &mut scratch, stats, kernel)?;
            } else if plan.probe_source == bi {
                for &g in &plan.probe_group {
                    windows[g].fill(&plans[g], &view, statuses, kernel);
                }
                ctx.probe_window(bi, &windows, &view, accs, &mut scratch, stats)?;
            }
            // Any other block is walked with its probe source's group.
        }
        win_start += win_len;
    }
    let mut span = span;
    span.fields(kernel.minus(&before).trace_fields());
    span.finish();
    Ok(())
}

/// Fold the selected window rows `sel` into one base tuple's
/// accumulators `accs` through the block's resolved `inputs`: typed
/// columns use the batched [`Accumulator`] updates over their non-NULL
/// values (NULL inputs are no-ops), `COUNT(*)` adds the row count, and
/// every other input folds row by row in detail order.
fn fold_selected(
    inputs: &[AggInput<'_>],
    accs: &mut [Accumulator],
    b_row: &[Value],
    cols: &ColumnSet,
    win_start: usize,
    s: &mut Scratch,
) -> Result<()> {
    let sel = &s.sel[..];
    for (acc, &input) in accs.iter_mut().zip(inputs) {
        match input {
            AggInput::Star => acc.add_count_star(sel.len() as i64),
            AggInput::Int(vals, nulls) => {
                s.ints.clear();
                s.ints.extend(
                    sel.iter()
                        .filter(|&&i| !nulls[i as usize])
                        .map(|&i| vals[i as usize]),
                );
                acc.update_ints(&s.ints);
            }
            AggInput::Float(vals, nulls) => {
                s.floats.clear();
                s.floats.extend(
                    sel.iter()
                        .filter(|&&i| !nulls[i as usize])
                        .map(|&i| vals[i as usize]),
                );
                acc.update_floats(&s.floats);
            }
            _ => {
                for &i in sel {
                    let i = i as usize;
                    input.fold(acc, b_row, cols, i, win_start + i, &mut s.row)?;
                }
            }
        }
    }
    Ok(())
}

/// The row-ordered completion item of a plan that
/// [`completion_prunes_pairs`] flags: one worker scans the whole detail, over
/// the stored columns in windows of [`BATCH_ROWS`] rows. Dead rules and
/// finish-early fire at the detail tuple that proves the outcome, so the
/// order is exactly detail row, then block, then candidate: the order of
/// tuple-at-a-time evaluation, and a tuple retires at once. What does not
/// depend on base-tuple status is resolved per window: each block's
/// aggregate inputs, each Hash/Interval block's detail-only residual mask
/// ([`BlockWindow`]) and its probe ([`RowProbe`]). The row walk then probes
/// each probe source once per row (the CSR slice for an Int key), walks
/// that row's candidates through every block of its group, and applies
/// the [`Statuses`] bookkeeping; full rows are late-materialized only for
/// an interpreted residual, an `unless_also` θ, or a computed aggregate
/// input. The loop
/// stops at the first window that finds every tuple retired, so
/// `stats.detail_scanned` counts only the rows actually read. One call is
/// one scheduling morsel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_detail_completion(
    cols: &ColumnSet,
    blocks: &[BlockPlan],
    statuses: &Statuses,
    base_rows: &[Tuple],
    total_aggs: usize,
    accs: &mut [Accumulator],
    stats: &mut EvalStats,
    kernel: &mut KernelStats,
    sink: &dyn TraceSink,
) -> Result<()> {
    let before = *kernel;
    let span = crate::trace::Span::begin(sink, "gmdj.kernel").with_detail(kernel_summary(blocks));
    kernel.morsels += 1;

    debug_assert!(!statuses.waved);
    let flags = statuses.active_flags();
    let ctx = ScanCtx {
        cols,
        plans: blocks,
        base_rows,
        statuses: Some(statuses),
        flags: Some(flags),
        total_aggs,
    };
    // Active list for Scan access; compacted lazily after retirements.
    let has_scan_block = blocks.iter().any(|b| matches!(b.access, Access::Scan));
    let mut scan_list: Vec<u32> = if has_scan_block {
        (0..base_rows.len() as u32).collect()
    } else {
        Vec::new()
    };
    let mut retired_at_compact = stats.dead_early + stats.done_early;
    let mut windows: Vec<BlockWindow> = blocks.iter().map(|_| BlockWindow::default()).collect();
    let mut s = Scratch::default();

    let mut win_start = 0;
    while win_start < cols.len() && !statuses.settled() {
        let win_len = (cols.len() - win_start).min(BATCH_ROWS);
        let view = BatchView::new(cols, win_start, win_len);
        kernel.batches += 1;
        stats.detail_scanned += win_len as u64;
        let probes: Vec<Option<RowProbe>> = blocks
            .iter()
            .enumerate()
            .map(|(bi, block)| {
                windows[bi].fill(block, &view, Some(statuses), kernel);
                (block.probe_source == bi && !matches!(block.access, Access::Scan))
                    .then(|| RowProbe::new(&block.access, &view, base_rows))
            })
            .collect();
        // One row's hash candidates per probe source, probed once per row
        // and read by every block of the source's group.
        let mut keyed: Vec<&[u32]> = vec![&[]; blocks.len()];
        for i in 0..win_len {
            let row = win_start + i;
            for (bi, block) in blocks.iter().enumerate() {
                let w = &windows[bi];
                let cands: &[u32] = match block.access {
                    Access::Scan => {
                        // Scan residuals read the base tuple, so they are
                        // interpreted per pair: one row-path unit each.
                        let evaluated = stats.probe_candidates;
                        ctx.walk(bi, w, &scan_list, i, row, accs, &mut s.row, stats)?;
                        kernel.rows_row_path += stats.probe_candidates - evaluated;
                        continue;
                    }
                    Access::Hash(_) => {
                        if block.probe_source == bi {
                            keyed[bi] = probes[bi]
                                .as_ref()
                                .and_then(|p| p.keyed(i, row, cols, &mut s.key))
                                .expect("a hash probe source resolves its keyed probe");
                        }
                        keyed[block.probe_source]
                    }
                    Access::Interval { .. } => probes[bi]
                        .as_ref()
                        .expect("a band block is its own probe source")
                        .candidates(i, row, cols, &mut s.key, &mut s.stab),
                };
                if w.may_pass(i) {
                    ctx.walk(bi, w, cands, i, row, accs, &mut s.row, stats)?;
                } else {
                    ctx.count_rejected(live_count(cands, Some(flags)), stats);
                }
            }
            // Lazily compact the scan list once enough tuples retired.
            if has_scan_block {
                let retired = stats.dead_early + stats.done_early;
                if retired > retired_at_compact
                    && (retired - retired_at_compact) * 8 >= scan_list.len().max(8) as u64
                {
                    scan_list.retain(|&b| flags[b as usize].load(Ordering::Relaxed));
                    retired_at_compact = retired;
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

/// Build one probe plan per (lᵢ, θᵢ) block.
pub(crate) fn plan_blocks(
    base_rows: &[Tuple],
    base_schema: &Schema,
    detail_schema: &Schema,
    spec: &GmdjSpec,
    probe: ProbeStrategy,
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

        let (access, residual) = match probe {
            ProbeStrategy::ForceScan => (Access::Scan, Some(block.theta.clone())),
            ProbeStrategy::Auto => {
                choose_access(base_rows, base_schema, detail_schema, &block.theta, stats)?
            }
        };
        let residual = match residual {
            Some(p) => Some(p.bind(&[base_schema, detail_schema])?),
            None => None,
        };
        let residual_kernel = residual.as_ref().and_then(BatchPredicate::compile);
        let residual_detail_only = residual_kernel
            .as_ref()
            .map(BatchPredicate::detail_only)
            .unwrap_or(false);
        let probe_source = match &access {
            Access::Hash(h) => plans.iter().position(|p: &BlockPlan| {
                matches!(&p.access, Access::Hash(o)
                    if o.base_cols == h.base_cols && o.detail_cols == h.detail_cols)
            }),
            _ => None,
        }
        .unwrap_or(plans.len());
        let kernel_label = match &access {
            Access::Hash(HashAccess {
                typed: Some(TypedKeyIndex::Int(_)),
                ..
            }) => "hash-int",
            Access::Hash(HashAccess {
                typed: Some(TypedKeyIndex::Str(_)),
                ..
            }) => "hash-str",
            Access::Hash(_) => "hash",
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
            probe_group: Vec::new(),
        });
        agg_offset += block.aggs.len();
    }
    for b in 0..plans.len() {
        if !matches!(plans[b].access, Access::Scan) {
            let source = plans[b].probe_source;
            plans[source].probe_group.push(b);
        }
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
        // One index build, whichever of the typed and the (lazy) generic
        // index the probes end up using: `index_builds` is a gated
        // semantic counter, the index's form a physical detail.
        stats.index_builds += 1;
        let typed = if base_cols.len() == 1 {
            TypedKeyIndex::build_rows(base_rows.iter().map(|r| r.as_ref()), base_cols[0])
        } else {
            None
        };
        let residual = residual_of(&conjuncts, &used);
        return Ok((
            Access::Hash(HashAccess {
                base_cols,
                detail_cols,
                typed,
                generic: OnceLock::new(),
            }),
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

    /// Run one (base, detail, spec) under probe plans and under forced
    /// Scan, each unpartitioned and in base partitions of two tuples. Every
    /// answer must equal the first, and forced Scan must evaluate θ once
    /// per (base, detail, block) triple. Returns each run's counters
    /// (`trace_fields` order, as in the completion fixtures below), which
    /// the callers pin: they were recorded while the interpreted row loop
    /// still ran beside the kernels as their counter-exact twin.
    fn access_paths_agree(
        base: &Relation,
        detail: &Relation,
        spec: &GmdjSpec,
        ctx: &str,
    ) -> Vec<[u64; 12]> {
        let mut first: Option<Relation> = None;
        let mut counters = Vec::new();
        for probe in [ProbeStrategy::Auto, ProbeStrategy::ForceScan] {
            for partition_rows in [None, Some(2)] {
                let policy = seq().with_probe(probe).with_partition_rows(partition_rows);
                let (out, stats) = gmdj(policy, base, detail, spec).unwrap();
                let run = format!("{ctx}: {probe:?} partition_rows {partition_rows:?}");
                match &first {
                    None => first = Some(out),
                    Some(f) => assert!(f.multiset_eq(&out), "{run}: answer diverged"),
                }
                if probe == ProbeStrategy::ForceScan {
                    let pairs = (base.len() * detail.len() * spec.blocks.len()) as u64;
                    assert_eq!(stats.probe_candidates, pairs, "{run}");
                    assert_eq!(stats.theta_evals, pairs, "{run}");
                }
                counters.push(stats.trace_fields().map(|(_, v)| v));
            }
        }
        counters
    }

    #[test]
    fn vectorized_is_counter_exact_on_figure_1() {
        let got = access_paths_agree(&hours(), &flows(), &example_2_1_spec(), "figure 1");
        #[rustfmt::skip]
        assert_eq!(got, [
            [6, 12, 6, 10, 3, 0, 0, 2, 1, 0, 3, 3],
            [12, 12, 6, 10, 3, 0, 0, 4, 2, 0, 6, 6],
            [6, 36, 36, 10, 3, 0, 0, 0, 1, 0, 3, 3],
            [12, 36, 36, 10, 3, 0, 0, 0, 2, 0, 6, 6],
        ]);
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
        let got = access_paths_agree(&base, &flows(), &spec, "string keys");
        #[rustfmt::skip]
        assert_eq!(got, [
            [6, 6, 6, 10, 3, 0, 0, 1, 1, 0, 2, 3],
            [12, 6, 6, 10, 3, 0, 0, 2, 2, 0, 4, 6],
            [6, 18, 18, 10, 3, 0, 0, 0, 1, 0, 2, 3],
            [12, 18, 18, 10, 3, 0, 0, 0, 2, 0, 4, 6],
        ]);
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
        let got = access_paths_agree(&base, &detail, &spec, "mixed columns");
        #[rustfmt::skip]
        assert_eq!(got, [
            [3, 2, 0, 4, 2, 0, 0, 1, 1, 0, 2, 2],
            [3, 2, 0, 4, 2, 0, 0, 1, 1, 0, 2, 2],
            [3, 6, 6, 4, 2, 0, 0, 0, 1, 0, 2, 2],
            [3, 6, 6, 4, 2, 0, 0, 0, 1, 0, 2, 2],
        ]);
        // Int(1) = Float(1.0) matches; the NULL key matches nothing.
        let (out, _) = gmdj(seq(), &base, &detail, &spec).unwrap();
        let rows = out.sorted_rows();
        assert_eq!(rows[0][1..], [Value::Float(0.5), Value::Int(1)]);
        assert_eq!(rows[1][1..], [Value::Int(3), Value::Int(1)]);
    }

    /// Hash blocks on one key (`B.k = R.k`, either way round) read the
    /// candidate lists of the first such block, while a block on another
    /// key probes its own; each still applies its own residual. Answers
    /// equal the probe-free scan, with and without a completion plan.
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
            ProbeStrategy::Auto,
            &mut EvalStats::default(),
        )
        .unwrap();
        let sources: Vec<usize> = plans.iter().map(|p| p.probe_source).collect();
        assert_eq!(sources, vec![0, 1, 0, 0]);

        let (scanned, _) = gmdj(force_scan(), &base, &detail, &spec).unwrap();
        let (probed, _) = gmdj(seq(), &base, &detail, &spec).unwrap();
        assert!(probed.multiset_eq(&scanned));
        #[rustfmt::skip]
        assert_eq!(access_paths_agree(&base, &detail, &spec, "shared probe"), [
            [40, 249, 186, 124, 9, 0, 0, 4, 1, 0, 2, 2],
            [200, 249, 186, 124, 9, 0, 0, 20, 5, 0, 10, 10],
            [40, 1440, 1440, 124, 9, 0, 0, 0, 1, 0, 2, 2],
            [200, 1440, 1440, 124, 9, 0, 0, 0, 5, 0, 10, 10],
        ]);

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
        let got = access_paths_agree(&base, &detail, &spec, "multi batch");
        #[rustfmt::skip]
        assert_eq!(got, [
            [1724, 492, 0, 984, 2, 0, 0, 1, 1, 0, 4, 4],
            [1724, 492, 0, 984, 2, 0, 0, 1, 1, 0, 4, 4],
            [1724, 3448, 3448, 984, 2, 0, 0, 0, 1, 0, 4, 4],
            [1724, 3448, 3448, 984, 2, 0, 0, 0, 1, 0, 4, 4],
        ]);
    }

    #[test]
    fn vectorized_errors_match_row_path() {
        // Comparing Str to Int raises TypeMismatch in row evaluation; the
        // kernel layer must refuse to specialize and surface that error
        // rather than silently masking it, under either access path.
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
        for policy in [seq(), force_scan()] {
            let err = gmdj(policy, &base, &detail, &spec);
            assert!(err.is_err(), "{policy:?} must error");
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

    /// Run every completion fixture under `probe` × `partition_rows`, check
    /// each answer against the same evaluation without completion, and
    /// return the counters in fixture order.
    fn completion_fixture_stats() -> Vec<(String, [u64; 12])> {
        let base = completion_base();
        let detail = completion_detail();
        let mut out = Vec::new();
        for (name, spec, sel, keep) in completion_fixtures() {
            let plan = crate::completion::derive_completion(&sel, &spec, keep == Keep::BaseOnly)
                .unwrap_or_else(|| panic!("{name}: no completion plan"));
            for probe in [ProbeStrategy::Auto, ProbeStrategy::ForceScan] {
                for partition_rows in [None, Some(7)] {
                    let policy = seq().with_probe(probe).with_partition_rows(partition_rows);
                    let run = |plan| {
                        filtered(policy, &base, &detail, &spec, Some(&sel), keep, plan).unwrap()
                    };
                    let (got, stats) = run(Some(&plan));
                    let (plain, _) = run(None);
                    let label = format!("{name} {probe:?} {partition_rows:?}");
                    assert!(
                        got.multiset_eq(&plain),
                        "{label}: completion changed the answer"
                    );
                    out.push((label, stats.trace_fields().map(|(_, v)| v)));
                }
            }
        }
        out
    }

    /// Counter identity for the row-ordered completion loop. The expected
    /// counters were recorded from the tuple-at-a-time completion loop it
    /// replaced (`trace_fields` order: detail_scanned, probe_candidates,
    /// theta_evals, agg_updates, base_rows, dead_early, done_early,
    /// index_builds, partitions, completion_fallbacks, col_chunk_reads,
    /// row_page_reads). These are the fixtures whose plan retires tuples through a Scan block, so
    /// they run row-ordered; only `detail_scanned` moved since, where a
    /// 7-tuple partition settles and its scan stops at the next window.
    #[test]
    fn completion_counters_match_tuple_at_a_time_across_windows() {
        #[rustfmt::skip]
        let expected: [(&str, [u64; 12]); 14] = [
            ("exists_int ForceScan None", [2381, 24263, 24263, 39, 48, 0, 39, 0, 1, 0, 6, 15]),
            ("exists_int ForceScan Some(7)", [11239, 24263, 24263, 39, 48, 0, 39, 0, 7, 0, 42, 105]),
            ("not_exists_str ForceScan None", [2381, 21729, 21729, 0, 48, 41, 0, 0, 1, 0, 6, 15]),
            ("not_exists_str ForceScan Some(7)", [14977, 21729, 21729, 0, 48, 41, 0, 0, 7, 0, 42, 105]),
            ("band_dead_keep_all ForceScan None", [2381, 76077, 76077, 0, 48, 22, 0, 0, 1, 0, 9, 15]),
            ("band_dead_keep_all ForceScan Some(7)", [16667, 76077, 76077, 0, 48, 22, 0, 0, 7, 0, 63, 105]),
            ("all_neq_scan Auto None", [2381, 28942, 40117, 22266, 48, 42, 0, 0, 1, 0, 6, 15]),
            ("all_neq_scan Auto Some(7)", [13953, 28942, 40117, 22266, 48, 42, 0, 0, 7, 0, 42, 105]),
            ("all_neq_scan ForceScan None", [2381, 28942, 40117, 22266, 48, 42, 0, 0, 1, 0, 6, 15]),
            ("all_neq_scan ForceScan Some(7)", [13953, 28942, 40117, 22266, 48, 42, 0, 0, 7, 0, 42, 105]),
            ("unless_also_hash ForceScan None", [2381, 73530, 73868, 608, 48, 34, 0, 0, 1, 0, 6, 15]),
            ("unless_also_hash ForceScan Some(7)", [15310, 73530, 73868, 608, 48, 34, 0, 0, 7, 0, 42, 105]),
            ("tree_exists ForceScan None", [2381, 100819, 100819, 232, 48, 0, 37, 0, 1, 0, 12, 15]),
            ("tree_exists ForceScan Some(7)", [16334, 100819, 100819, 232, 48, 0, 37, 0, 7, 0, 84, 105]),
        ];
        assert_fixture_counters(&expected);
    }

    /// Counter identity for waved completion: the fixtures whose plan
    /// retires tuples only through hash or interval blocks. Over 2381
    /// detail rows the waves are three windows of [`BATCH_ROWS`], and a
    /// tuple is probed until the end of the wave in which it retires, so
    /// the pruned counters sit between tuple-at-a-time's and no
    /// completion's. They were recorded while the interpreted row loop
    /// still ran beside the kernels as their counter-exact twin.
    #[test]
    fn waved_completion_counters_are_pinned() {
        #[rustfmt::skip]
        let expected: [(&str, [u64; 12]); 10] = [
            ("exists_int Auto None", [2381, 929, 929, 491, 48, 0, 39, 1, 1, 0, 6, 15]),
            ("exists_int Auto Some(7)", [11239, 929, 929, 491, 48, 0, 39, 7, 7, 0, 42, 105]),
            ("not_exists_str Auto None", [2381, 3223, 3223, 0, 48, 41, 0, 1, 1, 0, 6, 15]),
            ("not_exists_str Auto Some(7)", [14977, 3223, 3223, 0, 48, 41, 0, 7, 7, 0, 42, 105]),
            ("band_dead_keep_all Auto None", [2381, 3097, 3097, 0, 48, 22, 0, 1, 1, 0, 9, 15]),
            ("band_dead_keep_all Auto Some(7)", [16667, 3097, 3097, 0, 48, 22, 0, 7, 7, 0, 63, 105]),
            ("unless_also_hash Auto None", [2381, 2158, 2158, 1266, 48, 34, 0, 2, 1, 0, 6, 15]),
            ("unless_also_hash Auto Some(7)", [15310, 2158, 2158, 1266, 48, 34, 0, 14, 7, 0, 42, 105]),
            ("tree_exists Auto None", [2381, 3600, 3600, 379, 48, 0, 37, 2, 1, 0, 12, 15]),
            ("tree_exists Auto Some(7)", [16334, 3600, 3600, 379, 48, 0, 37, 14, 7, 0, 84, 105]),
        ];
        assert_fixture_counters(&expected);
    }

    fn assert_fixture_counters(expected: &[(&str, [u64; 12])]) {
        let got = completion_fixture_stats();
        for (want_label, want) in expected {
            let (_, stats) = got
                .iter()
                .find(|(label, _)| label == want_label)
                .unwrap_or_else(|| panic!("no fixture {want_label}"));
            assert_eq!(stats, want, "{want_label}");
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
            let sink = std::sync::Arc::new(crate::trace::CollectingSink::new());
            let mut node = PlanNodeStats::new("GMDJ");
            Runtime::with_sink(seq(), sink.clone())
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
            assert!(!detail.has_row_view(), "{name}");
            // A waved sequential scan is one scan call per wave (here one
            // window each, and neither plan settles): one morsel, one
            // batch and one span per wave.
            let windows = detail.len().div_ceil(BATCH_ROWS) as u64;
            assert_eq!(kernel.morsels, windows, "{name}");
            let spans = sink.by_name("gmdj.kernel").len() as u64;
            assert_eq!((kernel.batches, spans), (windows, windows), "{name}");
            // One Hash block: each window row is one work unit.
            assert_eq!(
                kernel.rows_vectorized + kernel.rows_row_path,
                detail.len() as u64,
                "{name}"
            );
        }
    }
}
