//! Cross-query shared detail scans (extended Prop. 4.1).
//!
//! The paper coalesces GMDJs over the same detail table *within* one
//! query; this module extends the same argument *across* concurrently
//! submitted queries. Accumulator arrays are per-evaluation private
//! state, so any number of independent GMDJs over one detail relation can
//! ride a single morsel-driven pass: each pulled window is dispatched to
//! every evaluation's membership predicates and accumulator updates
//! (`eval::scan_detail_vectorized`), then results demultiplex back to
//! per-query waiters. The physical wins: detail chunks are read once per
//! pass instead of once per query, and queries in one batch that evaluate
//! the *same GMDJ* — same base, detail, (l⃗, θ⃗) spec, probe strategy and
//! completion plan — share one evaluation (Prop. 4.1 block merging: two
//! identical blocks are one block). The selection and projection are per
//! member: each member materializes the shared accumulators through its
//! own, so queries that differ only in their selection, such as one
//! correlated aggregate compared against per-client constants, scan once.
//! Under a completion plan the selection joins the GMDJ key, since the
//! scan's Dead/Done statuses settle it. The logical accounting stays per
//! query, so every gated [`EvalStats`] counter is identical to a
//! standalone run of the same query.
//!
//! # Coalescing protocol
//!
//! `SharedScanPool::submit` keys arrivals on detail-table identity
//! (the columnar storage `Arc` pointer — [`Relation::cols_arc`] is shared
//! across renames, so the same stored table coalesces under any
//! qualifier). The first arrival for a key becomes the *leader*: it waits
//! out a short coalescing window (released early once
//! [`SharedScanConfig::target_batch`] queries are queued), drains the
//! batch, runs one shared pass, and delivers each query's result.
//! Arrivals during an in-flight pass elect the next leader and coalesce
//! behind it — i.e. they queue behind the running scan rather than start
//! a competing one on the same table.
//!
//! # Correctness
//!
//! Per evaluation the shared pass performs exactly the standalone
//! chunked evaluation: its own probe plans (`eval::plan_blocks`), its own
//! private per-worker accumulators merged in worker order
//! ([`gmdj_relation::agg::Accumulator::merge`] is exact), and per member
//! its own selection/projection materialization. Sharing only changes
//! *when* windows are visited — and window scheduling is provably
//! invisible (the pass tests deal single-row morsels to gate this) — so
//! results are bit-identical and per-query counters match standalone
//! execution. Errors stay as narrow as standalone: a selection that
//! fails to bind or evaluate fails its member alone, a scan error fails
//! the members of that evaluation alone.
//!
//! # Observability
//!
//! Each pass emits a `gmdj.shared_scan` span (`queries` served,
//! `evaluations` scanned, `detail_rows`) and maintains the gated counters
//! `shared_scan_passes_total` / `shared_scan_queries_served_total` /
//! `shared_scan_evaluations_total` plus the `shared_scan_queries` log₂
//! histogram (queries per pass) in the global [`metrics`] registry. The
//! closed-form invariants: detail chunk reads are paid once per *pass*
//! and probes run once per *evaluation*, so under any actual sharing
//! `passes < served`, and always `evaluations ≤ served`, while the
//! per-query `col_chunk_reads` counters still sum as if each query had
//! scanned alone (logical accounting).

use std::collections::HashMap;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gmdj_relation::agg::Accumulator;
use gmdj_relation::batch::BATCH_ROWS;
use gmdj_relation::columnar::{ColumnSet, COLUMN_CHUNK_ROWS};
use gmdj_relation::error::{Error, Result};
use gmdj_relation::expr::{BoundPredicate, Predicate};
use gmdj_relation::relation::{Relation, Tuple};
use gmdj_relation::schema::Schema;

use crate::completion::CompletionPlan;
use crate::eval::{
    completion_prunes_pairs, materialize_filtered, new_accumulators, plan_blocks, ranked_shape,
    referenced_detail_cols, scan_detail_completion, scan_detail_vectorized, wave_rows, BlockPlan,
    EvalStats, Keep, KernelStats, ProbeStrategy, RankTally, Status, Statuses,
};
use crate::metrics;
use crate::progress::QueryProgress;
use crate::spec::GmdjSpec;
use crate::trace::{Span, TraceSink};

/// Tuning knobs for the coalescing queue and the shared pass.
#[derive(Debug, Clone)]
pub struct SharedScanConfig {
    /// How long the batch leader holds the door open for more arrivals.
    pub window: Duration,
    /// Release the window early once this many queries are queued.
    pub target_batch: usize,
    /// Worker threads for the shared morsel-driven pass.
    pub threads: usize,
}

impl Default for SharedScanConfig {
    fn default() -> Self {
        SharedScanConfig {
            window: Duration::from_millis(2),
            target_batch: 8,
            threads: 4,
        }
    }
}

/// What a shared pass hands back to each waiter: the query's result plus
/// its private counters, exactly as a standalone evaluation would have
/// recorded them.
#[derive(Debug)]
pub(crate) struct SharedOutput {
    /// The query's (filtered, projected) GMDJ answer.
    pub(crate) relation: Relation,
    /// This query's evaluator counters (logical accounting: identical to
    /// a standalone run of the same query).
    pub(crate) eval: EvalStats,
    /// This query's kernel counters.
    pub(crate) kernel: KernelStats,
    /// Critical-path worker wall-clock of the shared pass.
    pub(crate) worker_max_ns: u64,
    /// Summed worker wall-clock of the shared pass.
    pub(crate) worker_sum_ns: u64,
    /// How many queries shared the pass that produced this result.
    pub(crate) pass_queries: u64,
}

/// One enqueued query: everything the leader needs to evaluate it, plus
/// the slot its waiter blocks on.
#[derive(Debug)]
struct SharedRequest {
    base: Relation,
    detail: Relation,
    spec: GmdjSpec,
    selection: Option<Predicate>,
    keep: Keep,
    /// The submitter's probe strategy, which plans the scan
    /// ([`BoundGmdj::bind`]): the only part of its policy the pass
    /// reads, since the pool's own threads and morsels divide the scan.
    probe: ProbeStrategy,
    completion: Option<CompletionPlan>,
    slot: Arc<ResultSlot>,
}

/// Rendezvous for one query's result.
#[derive(Debug, Default)]
struct ResultSlot {
    ready: Mutex<Option<Result<SharedOutput>>>,
    cv: Condvar,
}

impl ResultSlot {
    fn deliver(&self, result: Result<SharedOutput>) {
        let mut ready = self.ready.lock().expect("shared-scan slot poisoned");
        *ready = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<SharedOutput> {
        let mut ready = self.ready.lock().expect("shared-scan slot poisoned");
        loop {
            if let Some(result) = ready.take() {
                return result;
            }
            ready = self.cv.wait(ready).expect("shared-scan slot poisoned");
        }
    }
}

/// Identity of a detail table for coalescing: the columnar storage's
/// `Arc` pointer plus the row count. Renamed views share the storage
/// `Arc`, so the same stored table coalesces under any qualifier.
type DetailKey = (usize, usize);

fn detail_key(detail: &Relation) -> DetailKey {
    (
        Arc::as_ptr(&detail.cols_arc()) as *const () as usize,
        detail.len(),
    )
}

#[derive(Debug, Default)]
struct TableQueue {
    pending: Vec<SharedRequest>,
    /// A leader is currently inside the coalescing window for this key.
    /// Cleared at drain time, so arrivals during the in-flight pass
    /// elect the next leader.
    leader: bool,
}

#[derive(Debug, Default)]
struct PoolState {
    queues: HashMap<DetailKey, TableQueue>,
}

/// The concurrent submission layer: a process- or session-scoped pool
/// that merges concurrently submitted GMDJs over the same detail table
/// into one shared morsel-driven pass. Attach to a
/// [`Runtime`](crate::runtime::Runtime) via
/// [`with_shared_pool`](crate::runtime::Runtime::with_shared_pool):
/// [`Runtime::eval`](crate::runtime::Runtime::eval) then routes every
/// shareable evaluation through it.
#[derive(Debug, Default)]
pub struct SharedScanPool {
    cfg: SharedScanConfig,
    state: Mutex<PoolState>,
    arrivals: Condvar,
}

impl SharedScanPool {
    /// A pool with the given tuning.
    pub fn new(cfg: SharedScanConfig) -> Self {
        SharedScanPool {
            cfg,
            state: Mutex::new(PoolState::default()),
            arrivals: Condvar::new(),
        }
    }

    /// The pool's tuning knobs.
    pub fn config(&self) -> &SharedScanConfig {
        &self.cfg
    }

    /// Closed-form number of morsels one shared pass deals for a detail
    /// relation of `detail_len` rows (the coarse progress unit each
    /// submitted query announces).
    pub fn scheduled_morsels(&self, detail_len: usize) -> u64 {
        detail_len
            .div_ceil(morsel_rows(detail_len, self.cfg.threads))
            .max(1) as u64
    }

    /// Submit one (filtered) GMDJ for coalesced evaluation and block
    /// until its result is demultiplexed back. Queries arriving within
    /// the coalescing window (or queued behind an in-flight pass) over
    /// the same detail table share one detail scan, and those evaluating
    /// the same GMDJ share one evaluation. `probe` is the submitter
    /// policy's probe strategy: the pass evaluates the query exactly as
    /// that policy's standalone evaluation would, completion included.
    ///
    /// `sink` receives the `gmdj.shared_scan` span if this caller ends up
    /// leading the pass.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit(
        &self,
        base: &Relation,
        detail: &Relation,
        spec: &GmdjSpec,
        selection: Option<&Predicate>,
        keep: Keep,
        completion: Option<&CompletionPlan>,
        probe: ProbeStrategy,
        sink: &dyn TraceSink,
    ) -> Result<SharedOutput> {
        let key = detail_key(detail);
        let slot = Arc::new(ResultSlot::default());
        let request = SharedRequest {
            // Storage-sharing clones: fresh row-view caches so enqueueing
            // never deep-copies a materialized row vector.
            base: Relation::from_columns(base.schema().clone(), base.cols_arc()),
            detail: Relation::from_columns(detail.schema().clone(), detail.cols_arc()),
            spec: spec.clone(),
            selection: selection.cloned(),
            keep,
            probe,
            completion: completion.cloned(),
            slot: slot.clone(),
        };
        let leads = {
            let mut state = self.state.lock().expect("shared-scan pool poisoned");
            let queue = state.queues.entry(key).or_default();
            queue.pending.push(request);
            if queue.leader {
                // A leader is collecting: wake it so an early-release
                // target is noticed immediately.
                self.arrivals.notify_all();
                false
            } else {
                queue.leader = true;
                true
            }
        };
        if leads {
            let deadline = Instant::now() + self.cfg.window;
            let mut state = self.state.lock().expect("shared-scan pool poisoned");
            loop {
                let queued = state.queues.get(&key).map_or(0, |q| q.pending.len());
                if queued >= self.cfg.target_batch.max(1) {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = self
                    .arrivals
                    .wait_timeout(state, deadline - now)
                    .expect("shared-scan pool poisoned");
                state = guard;
            }
            let batch = {
                let queue = state
                    .queues
                    .get_mut(&key)
                    .expect("leader's queue disappeared");
                queue.leader = false;
                std::mem::take(&mut queue.pending)
            };
            drop(state);
            self.run_pass(batch, sink);
        }
        slot.wait()
    }

    /// Execute one shared pass over a drained batch and deliver each
    /// query's result to its waiter.
    fn run_pass(&self, batch: Vec<SharedRequest>, sink: &dyn TraceSink) {
        let queries = batch.len() as u64;
        let mut span = Span::begin(sink, "gmdj.shared_scan");
        let (results, evaluations) = self.execute_batch(&batch, sink);
        span.field("queries", queries);
        span.field("evaluations", evaluations);
        span.field(
            "detail_rows",
            batch.first().map_or(0, |r| r.detail.len() as u64),
        );
        span.finish();
        let m = metrics::global();
        m.inc("shared_scan_passes_total", 1);
        m.inc("shared_scan_queries_served_total", queries);
        m.inc("shared_scan_evaluations_total", evaluations);
        m.observe("shared_scan_queries", queries);
        for (request, result) in batch.iter().zip(results) {
            request.slot.deliver(result);
        }
    }

    /// One shared detail pass: a [`morsel_pass`] with one job per
    /// distinct GMDJ, each feeding its own private accumulators, and each
    /// member materialized through its own selection and projection.
    /// Returns every member's outcome plus the number of evaluations the
    /// pass scanned.
    fn execute_batch(
        &self,
        batch: &[SharedRequest],
        sink: &dyn TraceSink,
    ) -> (Vec<Result<SharedOutput>>, u64) {
        let mut outputs: Vec<Option<Result<SharedOutput>>> = batch.iter().map(|_| None).collect();
        // Each member binds its own output first, as its standalone
        // evaluation does: a selection that fails to bind fails that
        // member alone, before any scan.
        let mut bound: Vec<Option<BoundOutput>> = Vec::with_capacity(batch.len());
        for (r, out) in batch.iter().zip(outputs.iter_mut()) {
            match BoundOutput::bind(&r.base, &r.spec, r.selection.as_ref(), r.keep) {
                Ok(b) => bound.push(Some(b)),
                Err(e) => {
                    *out = Some(Err(e));
                    bound.push(None);
                }
            }
        }
        // Members that evaluate the same GMDJ collapse to one evaluation
        // whose accumulators every member materializes — Prop. 4.1 block
        // merging across queries (two identical blocks are one block).
        // Queries that differ only in their selection, such as one
        // correlated aggregate compared against per-client constants,
        // share one probe/θ/accumulate stream. Distinct GMDJs keep their
        // own plans and accumulators within the same pass.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in (0..batch.len()).filter(|&i| bound[i].is_some()) {
            match groups
                .iter_mut()
                .find(|g| same_gmdj(&batch[g[0]], &batch[i]))
            {
                Some(g) => g.push(i),
                None => groups.push(vec![i]),
            }
        }
        // Each group is prepared exactly as the standalone evaluator
        // prepares its one base partition (the runtime sends no
        // partitioned policy here). A group whose binding or planning
        // fails gets its error; the pass proceeds for the rest.
        let mut prepared_groups: Vec<(Vec<usize>, EvalStats)> = Vec::new();
        let mut jobs: Vec<PreparedQuery<'_>> = Vec::new();
        for group in groups {
            let r = &batch[group[0]];
            let prepared = BoundGmdj::bind(
                &r.base,
                &r.detail,
                &r.spec,
                r.completion.as_ref(),
                r.probe,
                r.selection.is_some(),
            )
            .and_then(|gmdj| {
                let mut eval = EvalStats::default();
                let job = gmdj.prepare(r.base.rows(), &mut eval)?;
                Ok((eval, job))
            });
            match prepared {
                Ok((eval, job)) => {
                    prepared_groups.push((group, eval));
                    jobs.push(job);
                }
                Err(e) => {
                    for &i in &group {
                        outputs[i] = Some(Err(e.clone()));
                    }
                }
            }
        }

        // All queued requests share one detail storage by construction
        // (their aliases, and so their schemas, may differ).
        let pass = morsel_pass(
            batch[0].detail.cols(),
            &jobs,
            self.cfg.threads,
            morsel_rows(batch[0].detail.len(), self.cfg.threads),
            sink,
            None,
        );

        // Each evaluation keeps its own outcome: a scan-time error in one
        // GMDJ's window fails its members alone. Each member then
        // materializes through its own selection, so an error there fails
        // that member alone. The counters delivered are the evaluation's
        // actual counters, which are each member's standalone counters:
        // materialization counts nothing.
        let pass_queries = batch.len() as u64;
        for ((group, pre), (job, scan)) in prepared_groups.iter().zip(jobs.iter().zip(pass.jobs)) {
            let scan = match scan {
                Ok(scan) => scan,
                Err(e) => {
                    for &i in group {
                        outputs[i] = Some(Err(e.clone()));
                    }
                    continue;
                }
            };
            let mut eval = *pre;
            eval.merge(&scan.eval);
            for &i in group {
                let output = bound[i].as_ref().expect("grouped members are bound");
                let mut out_rows: Vec<Tuple> = Vec::new();
                outputs[i] = Some(
                    output
                        .materialize(
                            job.base_rows,
                            &scan.accs,
                            scan.status.as_deref(),
                            &mut out_rows,
                        )
                        .map(|()| SharedOutput {
                            relation: Relation::from_parts(output.result_schema.clone(), out_rows),
                            eval,
                            kernel: scan.kernel,
                            worker_max_ns: pass.worker_max_ns,
                            worker_sum_ns: pass.worker_sum_ns,
                            pass_queries,
                        }),
                );
            }
        }
        let evaluations = jobs.len() as u64;
        (outputs.into_iter().flatten().collect(), evaluations)
    }
}

/// Whether two requests evaluate the same GMDJ, so one evaluation serves
/// both: same base storage and schema, same detail schema (the storage is
/// shared by queue construction, the alias is not), same (l⃗, θ⃗) spec,
/// probe strategy and completion plan; the rest of the two policies may
/// differ, since the pass runs on the pool's threads and morsels. The
/// selection and projection are each member's own, except under a
/// completion plan: its Dead/Done statuses settle the selection during
/// the scan, so there the selection must match too.
fn same_gmdj(a: &SharedRequest, b: &SharedRequest) -> bool {
    Arc::ptr_eq(&a.base.cols_arc(), &b.base.cols_arc())
        && a.base.schema() == b.base.schema()
        && a.detail.schema() == b.detail.schema()
        && a.spec == b.spec
        && a.probe == b.probe
        && a.selection.is_some() == b.selection.is_some()
        && a.completion == b.completion
        && (a.completion.is_none() || a.selection == b.selection)
}

/// One GMDJ bound for evaluation: the probe strategy, the blocks ranked
/// access is admitted to, the completion plan left once ranked blocks
/// are taken out of it, and the closed-form page accounting of one
/// detail pass. Every base partition of the evaluation is prepared from it
/// ([`BoundGmdj::prepare`]); what each query makes of the accumulators
/// is its [`BoundOutput`].
pub(crate) struct BoundGmdj<'a> {
    pub(crate) base_schema: &'a Schema,
    detail_schema: &'a Schema,
    pub(crate) spec: &'a GmdjSpec,
    pub(crate) probe: ProbeStrategy,
    /// Ranked access is admitted: a filtered GMDJ under `Auto` probes.
    /// A site runs no completion, so there every block may be ranked.
    pub(crate) ranked: bool,
    /// Per block: ranked access is admitted here, where completion runs
    /// — `ranked`, unless the plan [settles](CompletionPlan::settles) the
    /// block.
    admitted: Vec<bool>,
    pub(crate) completion: Option<CompletionPlan>,
    pub(crate) total_aggs: usize,
    /// Column-chunk and row-layout page reads of one detail pass.
    col_chunk_reads: u64,
    row_page_reads: u64,
}

impl<'a> BoundGmdj<'a> {
    /// Bind against the query's own detail schema: coalesced queries
    /// share the storage but may name it under different aliases.
    /// `filtered` says the GMDJ is a filtered one, whose COUNT blocks may
    /// take ranked access; a plain GMDJ never does, nor does a block the
    /// completion plan settles early. An admitted block of ranked shape
    /// ([`ranked_shape`]) loses its dead rule here, from its shape alone,
    /// so every local policy runs the same plan.
    pub(crate) fn bind(
        base: &'a Relation,
        detail: &'a Relation,
        spec: &'a GmdjSpec,
        completion: Option<&CompletionPlan>,
        probe: ProbeStrategy,
        filtered: bool,
    ) -> Result<Self> {
        // Logical page I/O, closed-form: every partition pass reads each
        // referenced detail column's chunks once, however the scan is
        // divided across morsels, workers, or sites.
        let pages = detail.len().div_ceil(COLUMN_CHUNK_ROWS) as u64;
        let referenced = referenced_detail_cols(spec, base.schema(), detail.schema())? as u64;
        let ranked = filtered && probe == ProbeStrategy::Auto;
        let admitted: Vec<bool> = (0..spec.blocks.len())
            .map(|b| ranked && !completion.is_some_and(|c| c.settles(b)))
            .collect();
        let completion = match completion {
            Some(plan) if ranked => {
                let counted = spec
                    .blocks
                    .iter()
                    .zip(&admitted)
                    .map(|(b, &admit)| {
                        Ok(admit && ranked_shape(b, base.schema(), detail.schema())?.is_some())
                    })
                    .collect::<Result<Vec<bool>>>()?;
                plan.without_blocks(&counted)
            }
            other => other.cloned(),
        };
        Ok(BoundGmdj {
            base_schema: base.schema(),
            detail_schema: detail.schema(),
            spec,
            probe,
            ranked,
            admitted,
            completion,
            total_aggs: spec.agg_count(),
            col_chunk_reads: pages * referenced,
            row_page_reads: pages * detail.schema().len() as u64,
        })
    }

    /// Charge one base partition's bookkeeping: the partition, its base
    /// rows, and the pages its detail pass reads.
    pub(crate) fn charge_partition(&self, base_rows: usize, eval: &mut EvalStats) {
        eval.partitions += 1;
        eval.base_rows += base_rows as u64;
        eval.col_chunk_reads += self.col_chunk_reads;
        eval.row_page_reads += self.row_page_reads;
    }

    /// Charge one base partition and plan its probes (index builds land
    /// in `eval`). Every completion plan runs, whatever the worker count:
    /// as a row-ordered item when [`completion_prunes_pairs`] holds, in
    /// waves otherwise (see [`morsel_pass`]).
    pub(crate) fn prepare(
        &self,
        base_rows: &'a [Tuple],
        eval: &mut EvalStats,
    ) -> Result<PreparedQuery<'a>> {
        self.charge_partition(base_rows.len(), eval);
        let plans = plan_blocks(
            base_rows,
            self.base_schema,
            self.detail_schema,
            self.spec,
            self.probe,
            &self.admitted,
            eval,
        )?;
        let row_ordered = self
            .completion
            .as_ref()
            .is_some_and(|c| completion_prunes_pairs(c, &plans));
        Ok(PreparedQuery {
            plans,
            base_rows,
            total_aggs: self.total_aggs,
            completion: self.completion.clone(),
            row_ordered,
        })
    }
}

/// One query's output of a GMDJ: the selection bound against the GMDJ
/// output, the projection, and the result schema. Queries that share one
/// evaluation each materialize its accumulators through their own.
pub(crate) struct BoundOutput {
    selection: Option<BoundPredicate>,
    keep: Keep,
    total_aggs: usize,
    pub(crate) result_schema: Arc<Schema>,
}

impl BoundOutput {
    /// Bind the selection against the GMDJ output schema of `base` and
    /// `spec`.
    pub(crate) fn bind(
        base: &Relation,
        spec: &GmdjSpec,
        selection: Option<&Predicate>,
        keep: Keep,
    ) -> Result<Self> {
        let out_schema = spec.output_schema(base.schema());
        let selection = match selection {
            Some(p) => Some(p.bind(&[&out_schema])?),
            None => None,
        };
        let result_schema = match keep {
            Keep::All => out_schema,
            Keep::BaseOnly => base.schema().clone(),
        };
        Ok(BoundOutput {
            selection,
            keep,
            total_aggs: spec.agg_count(),
            result_schema,
        })
    }

    /// Finalize one partition's accumulators (and, after completion, its
    /// statuses) through the selection and projection into `out_rows`.
    pub(crate) fn materialize(
        &self,
        base_rows: &[Tuple],
        accs: &[Accumulator],
        status: Option<&[Status]>,
        out_rows: &mut Vec<Tuple>,
    ) -> Result<()> {
        materialize_filtered(
            base_rows,
            accs,
            status,
            self.total_aggs,
            self.selection.as_ref(),
            self.keep,
            out_rows,
        )
    }
}

/// One query's job in a morsel pass: its probe plans over one base
/// partition, plus its completion plan and how that plan runs.
pub(crate) struct PreparedQuery<'a> {
    plans: Vec<BlockPlan>,
    pub(crate) base_rows: &'a [Tuple],
    total_aggs: usize,
    completion: Option<CompletionPlan>,
    /// The completion plan runs as one worker's row-ordered item
    /// ([`completion_prunes_pairs`]) rather than in waves.
    row_ordered: bool,
}

impl PreparedQuery<'_> {
    /// Fresh statuses for the job's completion plan, if it has one.
    fn statuses(&self) -> Option<Statuses> {
        self.completion.as_ref().map(|plan| {
            Statuses::new(
                plan,
                self.plans.len(),
                self.base_rows.len(),
                !self.row_ordered,
            )
        })
    }
}

/// One job's scan state: its accumulator matrix and ranked counts,
/// private counters, and — for a completion job — each base tuple's final
/// status. The pass folds `tally` into `accs` once its workers are merged.
pub(crate) struct JobScan {
    pub(crate) accs: Vec<Accumulator>,
    tally: RankTally,
    pub(crate) eval: EvalStats,
    pub(crate) kernel: KernelStats,
    pub(crate) status: Option<Vec<Status>>,
}

impl JobScan {
    fn new(job: &PreparedQuery<'_>) -> Self {
        JobScan {
            accs: new_accumulators(&job.plans, job.base_rows.len(), job.total_aggs),
            tally: RankTally::new(&job.plans),
            eval: EvalStats::default(),
            kernel: KernelStats::default(),
            status: None,
        }
    }

    /// Fold another worker's state in (exact: [`Accumulator::merge`],
    /// and ranked counts add).
    fn merge(&mut self, other: JobScan) {
        self.eval.merge(&other.eval);
        self.kernel.merge(&other.kernel);
        for (m, a) in self.accs.iter_mut().zip(&other.accs) {
            m.merge(a);
        }
        self.tally.merge(&other.tally);
    }
}

/// What a morsel pass hands back: each job's merged state, or the error
/// its own scan raised, plus the workers' wall-clock (critical path and
/// total).
pub(crate) struct MorselPass {
    pub(crate) jobs: Vec<Result<JobScan>>,
    pub(crate) worker_max_ns: u64,
    pub(crate) worker_sum_ns: u64,
}

/// Deals a pass's detail rows out, from a shared cursor, in ranges of at
/// most one morsel. When a job scans in waves, ranges are clipped at the
/// wave boundaries of [`wave_rows`] and the next wave is not dealt until
/// every range of the current one is back: the worker that returns the
/// last one closes the wave, under the dealer's lock, and then deals the
/// next wave or ends the pass. Since every worker waits at a boundary for
/// the slowest range, a wave's last ranges shrink — to the rows left over
/// the workers, down to one batch — so the workers finish it together.
struct Dealer {
    len: usize,
    morsel: usize,
    waved: bool,
    workers: usize,
    /// Without waves no range waits for another, so ranges come from
    /// this cursor alone, without the lock (it publishes nothing).
    cursor: AtomicUsize,
    deal: Mutex<Deal>,
    turned: Condvar,
}

struct Deal {
    /// First row not yet dealt.
    next: usize,
    /// End of the current wave: the whole detail when nothing is waved.
    wave_end: usize,
    wave: u32,
    /// Ranges dealt and not yet returned.
    out: usize,
    /// Nothing more is dealt: every job settled, or a worker panicked.
    closed: bool,
}

impl Dealer {
    fn new(len: usize, morsel: usize, waved: bool, workers: usize) -> Self {
        let wave_end = if waved {
            wave_rows(0, len).min(len)
        } else {
            len
        };
        Dealer {
            len,
            morsel,
            waved,
            workers,
            cursor: AtomicUsize::new(0),
            deal: Mutex::new(Deal {
                next: 0,
                wave_end,
                wave: 0,
                out: 0,
                closed: false,
            }),
            turned: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Deal> {
        self.deal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next range to scan, or `None` once the detail is dealt out or
    /// the pass closed. Between waves it waits for the wave's last range.
    fn pull(&self) -> Option<Lease<'_>> {
        if !self.waved {
            let start = self.cursor.fetch_add(self.morsel, Ordering::Relaxed);
            return (start < self.len).then(|| Lease {
                dealer: self,
                range: start..(start + self.morsel).min(self.len),
                returned: true,
            });
        }
        let mut d = self.lock();
        loop {
            if d.closed || d.next >= self.len {
                return None;
            }
            if d.next < d.wave_end {
                let start = d.next;
                let left = d.wave_end - start;
                let rows = self.morsel.min(left.div_ceil(self.workers).max(BATCH_ROWS));
                d.next = start + rows.min(left);
                d.out += 1;
                return Some(Lease {
                    dealer: self,
                    range: start..d.next,
                    returned: false,
                });
            }
            d = self.turned.wait(d).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A dealt range. A lease dropped without [`Lease::finish`] — by a
/// panicking worker — closes the pass, so no worker waits for it forever.
struct Lease<'d> {
    dealer: &'d Dealer,
    range: Range<usize>,
    returned: bool,
}

impl Lease<'_> {
    /// Return the range. If it was the last one out of its wave, run
    /// `boundary`, which closes the wave and says whether any job still
    /// needs rows, then deal the next wave or end the pass. Returns the
    /// first undealt row when this ended the pass before the detail ran
    /// out.
    fn finish(mut self, boundary: impl FnOnce() -> bool) -> Option<usize> {
        let dealer = self.dealer;
        if !dealer.waved {
            return None;
        }
        let mut d = dealer.lock();
        d.out -= 1;
        if d.out > 0 || d.next < d.wave_end || d.closed {
            self.returned = true;
            return None;
        }
        // Marked returned only once the boundary is through: a panic in
        // it must close the pass for the workers waiting on this wave.
        let go_on = boundary();
        self.returned = true;
        let mut cut = None;
        if d.wave_end < dealer.len {
            if go_on {
                d.wave += 1;
                d.wave_end = (d.wave_end + wave_rows(d.wave, dealer.len)).min(dealer.len);
            } else {
                d.closed = true;
                cut = Some(d.next);
            }
        }
        dealer.turned.notify_all();
        cut
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if !self.returned {
            self.dealer.lock().closed = true;
            self.dealer.turned.notify_all();
        }
    }
}

/// The morsel a multi-worker pass deals, in detail rows. Four
/// column chunks: big enough that queue traffic (one atomic `fetch_add`
/// per morsel) is noise, small enough that skewed morsels rebalance
/// across workers.
pub(crate) const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Rows per morsel of a local pass over `detail_len` detail rows on
/// `workers` workers — the one place the morsel size is decided; the
/// dealer and both closed-form progress schedules read it. One worker
/// takes the whole detail as one morsel; more workers get
/// [`DEFAULT_MORSEL_ROWS`]-row morsels. A detail of at most that many
/// rows is therefore one morsel on any worker count, and runs on the
/// calling thread without spawning. The size is pure scheduling: no
/// answer and no gated [`EvalStats`] counter depends on it.
pub(crate) fn morsel_rows(detail_len: usize, workers: usize) -> usize {
    if workers <= 1 {
        detail_len.max(1)
    } else {
        DEFAULT_MORSEL_ROWS
    }
}

/// The morsel driver: one pass over the detail columns feeding every
/// job. A [`Dealer`] deals the detail out in ranges of at most
/// `morsel_rows` (the callers pass [`morsel_rows`] of the detail and
/// thread count); `threads` workers pull ranges until none are left,
/// routing each through every streamed job's [`scan_detail_vectorized`]
/// into private per-worker accumulators and counters. The merge starts from
/// worker 0's states and folds the other workers in, in worker order.
/// Pull-based scheduling is self-balancing: a worker stuck on a skewed
/// range simply pulls fewer.
///
/// A job's completion plan runs under every worker count, in one of two
/// ways, and either way its statuses and every [`EvalStats`] counter are
/// the same for any thread count and morsel size:
///
/// * **Waves** — a plan whose retiring blocks are all hash- or
///   interval-probed. The pass is cut into waves ([`wave_rows`]); every
///   range of wave k reads the job's [`Statuses`] as of the end of wave
///   k−1 (an active bitmap the kernels apply as one more mask), workers
///   OR fired dead rules and matched blocks into shared flags, and the
///   worker that returns the wave's last range applies them
///   ([`Statuses::end_wave`]). A job with no Active tuple left is dealt
///   no more ranges, and a pass whose jobs are all settled ends early.
/// * **Row-ordered item** — a plan that [`completion_prunes_pairs`]
///   needs per-row pruning, so one worker scans the whole detail in row
///   order and stops once the job settles. Item `i` runs on worker
///   `i % workers`, before that worker pulls ranges, so distinct items of
///   a shared pass run side by side.
///
/// Every GMDJ evaluation in the process is a pass: a local policy is one
/// job on `threads` workers (one worker's morsel is the whole detail, so
/// one range per wave), and a shared pass one job per distinct GMDJ of
/// the coalesced queries. A one-worker pass runs on the calling thread; more workers run as scoped
/// threads. A job whose scan errors stops being scanned and returns that
/// error; the other jobs carry on. A worker panic fails every job still
/// running, never the process.
///
/// Each worker is emitted as a `gmdj.worker` span carrying the rows it
/// was dealt or scanned as an item (`chunk_rows`), the scheduled morsels
/// it accounted for (`morsels`), its counter delta summed over the jobs
/// (and the job count, `evaluations`, when there is more than one), so
/// the worker spans of a one-job pass reconcile exactly with its merged
/// counters. Scheduled morsels are the `ceil(detail / morsel)` grid the
/// caller announced to `progress`: a returned range accounts for the grid
/// morsels that end inside it, the worker that ends a pass early for
/// those it skipped, and a pass of one item for all of them. `progress`,
/// when given, receives the same morsel ticks plus the rows scanned, so
/// it ends at `morsels_done == morsels_total` and `rows_done ==
/// detail_scanned`.
pub(crate) fn morsel_pass(
    cols: &ColumnSet,
    jobs: &[PreparedQuery<'_>],
    threads: usize,
    morsel_rows: usize,
    sink: &dyn TraceSink,
    progress: Option<&QueryProgress>,
) -> MorselPass {
    let detail_len = cols.len();
    let morsel = morsel_rows.max(1).min(detail_len.max(1));
    // Scheduled morsels ending at or before row `x`.
    let grid = |x: usize| {
        if x >= detail_len {
            detail_len.div_ceil(morsel)
        } else {
            x / morsel
        }
    };
    let statuses: Vec<Option<Statuses>> = jobs.iter().map(PreparedQuery::statuses).collect();
    let items: Vec<usize> = (0..jobs.len()).filter(|&j| jobs[j].row_ordered).collect();
    let streamed = items.len() < jobs.len();
    let waved = statuses.iter().flatten().any(Statuses::waved);
    let morsels = if streamed { grid(detail_len) } else { 0 };
    // No point spawning workers that can never get work; an empty detail
    // keeps one worker so the merge stays uniform.
    let workers = threads.min(items.len() + morsels).max(1);
    let dealer = Dealer::new(
        if streamed { detail_len } else { 0 },
        morsel,
        waved,
        workers,
    );

    type Worker = (Vec<Result<JobScan>>, u64);
    let worker = |w: usize| -> Worker {
        let mut wspan = Span::begin(sink, "gmdj.worker").with_detail(format!("worker{w}"));
        let mut states: Vec<Result<JobScan>> =
            jobs.iter().map(|job| Ok(JobScan::new(job))).collect();
        let mut rows_scanned = 0u64;
        let mut morsels_done = 0u64;
        let mut account = |rows: u64, morsels: u64| {
            rows_scanned += rows;
            morsels_done += morsels;
            if let Some(p) = progress {
                p.add_morsels_done(morsels);
                p.add_rows(rows);
            }
        };
        for &j in items.iter().skip(w).step_by(workers) {
            let job = &jobs[j];
            let (Ok(scan), Some(statuses)) = (&mut states[j], &statuses[j]) else {
                continue;
            };
            let before = scan.eval.detail_scanned;
            let result = scan_detail_completion(
                cols,
                &job.plans,
                statuses,
                job.base_rows,
                job.total_aggs,
                &mut scan.accs,
                &mut scan.tally,
                &mut scan.eval,
                &mut scan.kernel,
                sink,
            );
            let rows = scan.eval.detail_scanned - before;
            if let Err(e) = result {
                states[j] = Err(e);
            }
            account(rows, if streamed { 0 } else { grid(detail_len) as u64 });
        }
        let scanning = |states: &[Result<JobScan>]| {
            jobs.iter()
                .zip(states)
                .any(|(job, s)| !job.row_ordered && s.is_ok())
        };
        while scanning(&states) {
            let Some(lease) = dealer.pull() else { break };
            let range = lease.range.clone();
            let mut scanned = false;
            for ((job, state), statuses) in jobs.iter().zip(states.iter_mut()).zip(&statuses) {
                let Ok(scan) = state else { continue };
                if job.row_ordered || statuses.as_ref().is_some_and(Statuses::settled) {
                    continue;
                }
                scanned = true;
                if let Err(e) = scan_detail_vectorized(
                    cols,
                    range.clone(),
                    &job.plans,
                    statuses.as_ref(),
                    job.base_rows,
                    job.total_aggs,
                    &mut scan.accs,
                    &mut scan.tally,
                    &mut scan.eval,
                    &mut scan.kernel,
                    sink,
                ) {
                    *state = Err(e);
                }
            }
            let cut = lease.finish(|| {
                // The wave's last range is back: apply its retirements,
                // counted into this worker's states (a job that failed
                // here fails as a whole, so its counts do not matter).
                let mut go_on = false;
                for ((job, state), statuses) in jobs.iter().zip(states.iter_mut()).zip(&statuses) {
                    match statuses {
                        _ if job.row_ordered => {}
                        Some(s) => {
                            let mut lost = EvalStats::default();
                            let eval = match state {
                                Ok(scan) => &mut scan.eval,
                                Err(_) => &mut lost,
                            };
                            s.end_wave(eval);
                            go_on |= !s.settled();
                        }
                        None => go_on = true,
                    }
                }
                go_on
            });
            let skipped = cut.map_or(0, |next| grid(detail_len) - grid(next));
            account(
                if scanned { range.len() as u64 } else { 0 },
                (grid(range.end) - grid(range.start) + skipped) as u64,
            );
        }
        let mut scanned = EvalStats::default();
        for scan in states.iter().flatten() {
            scanned.merge(&scan.eval);
        }
        wspan.field("chunk_rows", rows_scanned);
        wspan.field("morsels", morsels_done);
        wspan.fields(scanned.trace_fields());
        if jobs.len() > 1 {
            wspan.field("evaluations", jobs.len() as u64);
        }
        (states, wspan.finish().as_nanos() as u64)
    };
    // A thread spawn costs more than a small query's whole scan, so a
    // one-worker pass stays on the calling thread; `catch_unwind` keeps a
    // panic there an `Err` just like a scoped worker's.
    let results: Vec<std::thread::Result<Worker>> = if workers == 1 {
        vec![std::panic::catch_unwind(AssertUnwindSafe(|| worker(0)))]
    } else {
        let worker = &worker;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || worker(w)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };

    let mut merged: Option<Vec<Result<JobScan>>> = None;
    let mut worker_max_ns = 0u64;
    let mut worker_sum_ns = 0u64;
    for result in results {
        match result {
            Ok((states, wall_ns)) => {
                worker_max_ns = worker_max_ns.max(wall_ns);
                worker_sum_ns += wall_ns;
                match &mut merged {
                    None => merged = Some(states),
                    Some(merged) => {
                        for (m, state) in merged.iter_mut().zip(states) {
                            if let Ok(scan) = m {
                                match state {
                                    Ok(state) => scan.merge(state),
                                    Err(e) => *m = Err(e),
                                }
                            }
                        }
                    }
                }
            }
            Err(payload) => {
                let e = worker_panic_error(payload.as_ref());
                let merged =
                    merged.get_or_insert_with(|| jobs.iter().map(|_| Err(e.clone())).collect());
                for m in merged.iter_mut().filter(|m| m.is_ok()) {
                    *m = Err(e.clone());
                }
            }
        }
    }
    let mut merged = merged.expect("a pass runs at least one worker");
    for ((scan, statuses), job) in merged.iter_mut().zip(&statuses).zip(jobs) {
        if let Ok(scan) = scan {
            std::mem::take(&mut scan.tally).fold(
                &job.plans,
                job.base_rows,
                job.total_aggs,
                &mut scan.accs,
            );
            scan.status = statuses.as_ref().map(Statuses::status);
        }
    }
    MorselPass {
        jobs: merged,
        worker_max_ns,
        worker_sum_ns,
    }
}

/// Turn a worker panic payload into an error value instead of poisoning
/// the whole process. The flight recorder's tail goes to stderr so the
/// spans leading up to the panic survive the unwind.
fn worker_panic_error(payload: &(dyn std::any::Any + Send)) -> Error {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string());
    crate::trace::flight_dump_on_failure("worker panic");
    Error::invalid(format!("GMDJ scan worker panicked: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{ExecPolicy, PlanNodeStats, Runtime};
    use crate::spec::AggBlock;
    use gmdj_relation::expr::{col, lit};
    use gmdj_relation::relation::RelationBuilder;
    use gmdj_relation::schema::DataType;
    use gmdj_relation::value::Value;

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
            .column("NumBytes", DataType::Int)
            .row(vec![10.into(), 5.into()])
            .row(vec![43.into(), 12.into()])
            .row(vec![70.into(), 7.into()])
            .row(vec![86.into(), 36.into()])
            .row(vec![130.into(), 2.into()])
            .row(vec![Value::Null, 9.into()])
            .build()
            .unwrap()
    }

    fn in_hour_count() -> GmdjSpec {
        GmdjSpec::new(vec![AggBlock::count(
            col("F.StartTime")
                .ge(col("H.StartInterval"))
                .and(col("F.StartTime").lt(col("H.EndInterval"))),
            "cnt",
        )])
    }

    fn sum_bytes() -> GmdjSpec {
        GmdjSpec::new(vec![AggBlock::new(
            col("F.StartTime")
                .ge(col("H.StartInterval"))
                .and(col("F.StartTime").lt(col("H.EndInterval"))),
            vec![gmdj_relation::agg::NamedAgg::sum(
                col("F.NumBytes"),
                "total",
            )],
        )])
    }

    /// Every pass bumps the process-wide pass counters, so the tests that
    /// run passes hold this lock: an exact counter delta then sees only
    /// its own test's passes.
    static PASSES: Mutex<()> = Mutex::new(());

    fn serialize_passes() -> std::sync::MutexGuard<'static, ()> {
        PASSES.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn pool(target: usize) -> Arc<SharedScanPool> {
        Arc::new(SharedScanPool::new(SharedScanConfig {
            window: Duration::from_millis(500),
            target_batch: target,
            threads: 2,
        }))
    }

    /// N identical clones submitted concurrently coalesce into one pass
    /// and every clone's answer and counters match standalone execution.
    #[test]
    fn concurrent_clones_share_one_pass_and_match_standalone() {
        let _passes = serialize_passes();
        let base = hours();
        let detail = flows();
        let spec = in_hour_count();

        let standalone = Runtime::new(ExecPolicy::parallel(2));
        let mut reference_node = PlanNodeStats::new("GMDJ");
        let expected = standalone
            .eval(
                &base,
                &detail,
                &spec,
                None,
                Keep::All,
                None,
                &mut reference_node,
            )
            .unwrap();

        let m = metrics::global();
        let passes_before = m.counter("shared_scan_passes_total");
        let served_before = m.counter("shared_scan_queries_served_total");

        let p = pool(3);
        let results: Vec<Result<SharedOutput>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let (p, base, detail, spec) = (p.clone(), &base, &detail, &spec);
                    scope.spawn(move || {
                        p.submit(
                            base,
                            detail,
                            &spec.clone(),
                            None,
                            Keep::All,
                            None,
                            ExecPolicy::parallel(2).probe,
                            &crate::trace::NullSink,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for result in results {
            let out = result.unwrap();
            assert!(out.relation.multiset_eq(&expected));
            assert_eq!(out.eval, reference_node.eval, "per-query counters drift");
            assert_eq!(out.pass_queries, 3);
        }
        assert_eq!(m.counter("shared_scan_passes_total") - passes_before, 1);
        assert_eq!(
            m.counter("shared_scan_queries_served_total") - served_before,
            3
        );
    }

    /// Distinct queries over the same detail table coalesce too, each
    /// getting its own answer.
    #[test]
    fn distinct_queries_demultiplex_correctly() {
        let _passes = serialize_passes();
        let base = hours();
        let detail = flows();
        let specs = [in_hour_count(), sum_bytes()];

        let standalone = Runtime::new(ExecPolicy::parallel(2));
        let expected: Vec<Relation> = specs
            .iter()
            .map(|s| {
                let mut node = PlanNodeStats::new("GMDJ");
                standalone
                    .eval(&base, &detail, s, None, Keep::All, None, &mut node)
                    .unwrap()
            })
            .collect();

        let p = pool(2);
        let results: Vec<(usize, Relation)> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let (p, base, detail) = (p.clone(), &base, &detail);
                    scope.spawn(move || {
                        let out = p
                            .submit(
                                base,
                                detail,
                                spec,
                                None,
                                Keep::All,
                                None,
                                ExecPolicy::parallel(2).probe,
                                &crate::trace::NullSink,
                            )
                            .unwrap();
                        (i, out.relation)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, relation) in results {
            assert!(
                relation.multiset_eq(&expected[i]),
                "query {i} got the wrong demultiplexed result"
            );
        }
    }

    /// Two distinct queries naming one stored table under different
    /// aliases coalesce into one pass; each binds against its own alias
    /// and matches its standalone answer and counters.
    #[test]
    fn aliases_of_one_table_share_a_pass() {
        let _passes = serialize_passes();
        let base = hours();
        let f = flows();
        let f1 = f.renamed("F1");
        let band = |q: &str| {
            col(&format!("{q}.StartTime"))
                .ge(col("H.StartInterval"))
                .and(col(&format!("{q}.StartTime")).lt(col("H.EndInterval")))
        };
        let queries = [
            (&f, GmdjSpec::new(vec![AggBlock::count(band("F"), "cnt")])),
            (
                &f1,
                GmdjSpec::new(vec![AggBlock::new(
                    band("F1"),
                    vec![gmdj_relation::agg::NamedAgg::sum(
                        col("F1.NumBytes"),
                        "total",
                    )],
                )]),
            ),
        ];
        let standalone = Runtime::new(ExecPolicy::parallel(2));
        let expected: Vec<(Relation, EvalStats)> = queries
            .iter()
            .map(|(detail, spec)| {
                let mut node = PlanNodeStats::new("GMDJ");
                let out = standalone
                    .eval(&base, detail, spec, None, Keep::All, None, &mut node)
                    .unwrap();
                (out, node.eval)
            })
            .collect();

        let p = pool(2);
        let sink = crate::trace::CollectingSink::new();
        let results: Vec<SharedOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .map(|(detail, spec)| {
                    let (p, base, sink) = (p.clone(), &base, &sink);
                    scope.spawn(move || {
                        p.submit(
                            base,
                            detail,
                            spec,
                            None,
                            Keep::All,
                            None,
                            ExecPolicy::parallel(2).probe,
                            sink,
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sink.by_name("gmdj.shared_scan").len(), 1);
        for (out, (relation, eval)) in results.iter().zip(&expected) {
            assert_eq!(out.pass_queries, 2);
            assert!(out.relation.multiset_eq(relation));
            assert_eq!(out.eval, *eval);
        }
    }

    /// A query whose θ errors at scan time (`B.k < R.k` compares an Int
    /// base column to a Str detail column) fails alone: a good query
    /// coalesced into the same pass keeps its standalone answer and
    /// counters, and the table still serves later passes.
    #[test]
    fn failing_query_does_not_poison_its_pass() {
        let _passes = serialize_passes();
        let base = RelationBuilder::new("B")
            .column("k", DataType::Int)
            .row(vec![1.into()])
            .row(vec![2.into()])
            .build()
            .unwrap();
        let mut detail = RelationBuilder::new("R")
            .column("k", DataType::Str)
            .column("v", DataType::Int);
        for i in 0..7i64 {
            detail = detail.row(vec![format!("x{i}").into(), (i % 3).into()]);
        }
        let detail = detail.build().unwrap();
        let good = GmdjSpec::new(vec![AggBlock::count(col("B.k").eq(col("R.v")), "c")]);
        let bad = GmdjSpec::new(vec![AggBlock::count(col("B.k").lt(col("R.k")), "c")]);

        let mut reference = PlanNodeStats::new("GMDJ");
        let expected = Runtime::new(ExecPolicy::parallel(2))
            .eval(&base, &detail, &good, None, Keep::All, None, &mut reference)
            .unwrap();

        let p = pool(2);
        let sink = crate::trace::CollectingSink::new();
        let submit = |spec: &GmdjSpec| {
            p.submit(
                &base,
                &detail,
                spec,
                None,
                Keep::All,
                None,
                ExecPolicy::parallel(2).probe,
                &sink,
            )
        };
        let (good_out, bad_out) = std::thread::scope(|scope| {
            let g = scope.spawn(|| submit(&good));
            let b = scope.spawn(|| submit(&bad));
            (g.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(sink.by_name("gmdj.shared_scan").len(), 1);
        let good_out = good_out.expect("the good query must survive its pass");
        assert_eq!(good_out.pass_queries, 2);
        assert!(good_out.relation.multiset_eq(&expected));
        assert_eq!(good_out.eval, reference.eval);
        assert!(bad_out.is_err());

        let later = submit(&good).unwrap();
        assert!(later.relation.multiset_eq(&expected));
        assert_eq!(sink.by_name("gmdj.shared_scan").len(), 2);
    }

    /// Two distinct ALL-shaped queries (`P.price >= ALL …` and
    /// `P.price > ALL …` over `P.k <> Q.k`), Scan-probed, coalesce into
    /// one pass. Each completion plan runs as its own row-ordered item,
    /// on its own worker: both answers and every counter equal a
    /// standalone sequential run, and both workers of the pass did work.
    #[test]
    fn distinct_all_queries_run_completion_side_by_side() {
        use crate::completion::derive_completion;
        let _passes = serialize_passes();
        let mut parts = RelationBuilder::new("P")
            .column("k", DataType::Int)
            .column("price", DataType::Int);
        for k in 0..120i64 {
            parts = parts.row(vec![k.into(), ((k * 7919 + 13) % 101).into()]);
        }
        let base = parts.build().unwrap();
        let detail = base.renamed("Q");
        let neq = col("P.k").ne(col("Q.k"));
        let selection = col("c1").eq(col("c2"));
        let queries: Vec<(GmdjSpec, CompletionPlan)> = [
            col("P.price").ge(col("Q.price")),
            col("P.price").gt(col("Q.price")),
        ]
        .into_iter()
        .map(|cmp| {
            let spec = GmdjSpec::new(vec![
                AggBlock::count(neq.clone().and(cmp), "c1"),
                AggBlock::count(neq.clone(), "c2"),
            ]);
            let plan = derive_completion(&selection, &spec, true).unwrap();
            (spec, plan)
        })
        .collect();
        let expected: Vec<(Relation, EvalStats)> = queries
            .iter()
            .map(|(spec, plan)| {
                let mut node = PlanNodeStats::new("GMDJ");
                let out =
                    Runtime::new(ExecPolicy::sequential().with_probe(ProbeStrategy::ForceScan))
                        .eval(
                            &base,
                            &detail,
                            spec,
                            Some(&selection),
                            Keep::BaseOnly,
                            Some(plan),
                            &mut node,
                        )
                        .unwrap();
                assert!(node.eval.dead_early > 0);
                (out, node.eval)
            })
            .collect();

        let p = pool(2);
        let sink = crate::trace::CollectingSink::new();
        let results: Vec<SharedOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .map(|(spec, plan)| {
                    let (p, base, detail, selection, sink) =
                        (p.clone(), &base, &detail, &selection, &sink);
                    scope.spawn(move || {
                        p.submit(
                            base,
                            detail,
                            spec,
                            Some(selection),
                            Keep::BaseOnly,
                            Some(plan),
                            ProbeStrategy::ForceScan,
                            sink,
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sink.by_name("gmdj.shared_scan").len(), 1);
        for (out, (relation, stats)) in results.iter().zip(&expected) {
            assert_eq!(out.pass_queries, 2);
            assert!(out.relation.multiset_eq(relation));
            assert_eq!(out.eval, *stats);
            assert_eq!(out.eval.completion_fallbacks, 0);
        }
        let workers = sink.by_name("gmdj.worker");
        assert_eq!(workers.len(), 2);
        for w in &workers {
            assert_eq!(w.field("chunk_rows"), Some(detail.len() as u64));
            assert!(w.field("dead_early").unwrap() > 0);
        }
    }

    /// Queries that differ only in scheduling share one evaluation, and
    /// no local policy declines a completion plan. A band-probed EXISTS
    /// submitted under `sequential()` and the same query under
    /// `parallel(2)` have one probe strategy, so one pass of a two-thread
    /// pool evaluates their GMDJ once, in waves — no fallback, tuples
    /// finished early — and each query's counters are its standalone
    /// counters.
    #[test]
    fn pooled_completion_admission_follows_each_policy() {
        use crate::completion::derive_completion;
        let _passes = serialize_passes();
        let spec = in_hour_count();
        let selection = col("cnt").gt(lit(0));
        let plan = derive_completion(&selection, &spec, true).unwrap();
        let (base, detail) = (hours(), flows());
        let run = |rt: Runtime| {
            let mut node = PlanNodeStats::new("GMDJ");
            let out = rt
                .eval(
                    &base,
                    &detail,
                    &spec,
                    Some(&selection),
                    Keep::BaseOnly,
                    Some(&plan),
                    &mut node,
                )
                .unwrap();
            (out, node.eval)
        };
        let policies = [ExecPolicy::sequential(), ExecPolicy::parallel(2)];
        let standalone: Vec<_> = policies.iter().map(|&p| run(Runtime::new(p))).collect();
        assert_eq!(standalone[0].1.completion_fallbacks, 0);
        assert!(standalone[0].1.done_early > 0);
        assert_eq!(standalone[1].1, standalone[0].1);

        let p = pool(2);
        let sink = Arc::new(crate::trace::CollectingSink::new());
        let run = &run;
        let pooled: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = policies
                .iter()
                .map(|&policy| {
                    let rt = Runtime::with_sink(policy, sink.clone()).with_shared_pool(p.clone());
                    scope.spawn(move || run(rt))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let passes = sink.by_name("gmdj.shared_scan");
        assert_eq!(passes.len(), 1);
        assert_eq!(passes[0].field("queries"), Some(2));
        assert_eq!(passes[0].field("evaluations"), Some(1));
        for ((out, eval), (expected, standalone)) in pooled.iter().zip(&standalone) {
            assert!(out.multiset_eq(expected));
            assert_eq!(eval, standalone);
        }
    }

    /// Submit `(selection, keep, completion)` members over one spec from
    /// one thread each through a pool released at the full batch, and
    /// hand back each member's outcome plus the pass spans.
    fn pooled_members(
        base: &Relation,
        spec: &GmdjSpec,
        members: &[(Predicate, Keep, Option<CompletionPlan>)],
        policy: ExecPolicy,
    ) -> (Vec<Result<SharedOutput>>, Vec<crate::trace::TraceEvent>) {
        let detail = flows();
        let p = pool(members.len());
        let sink = crate::trace::CollectingSink::new();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = members
                .iter()
                .map(|(selection, keep, completion)| {
                    let (p, detail, sink) = (p.clone(), &detail, &sink);
                    scope.spawn(move || {
                        p.submit(
                            base,
                            detail,
                            spec,
                            Some(selection),
                            *keep,
                            completion.as_ref(),
                            policy.probe,
                            sink,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        (results, sink.by_name("gmdj.shared_scan"))
    }

    /// The standalone outcome of one member.
    fn standalone_member(
        base: &Relation,
        spec: &GmdjSpec,
        (selection, keep, completion): &(Predicate, Keep, Option<CompletionPlan>),
        policy: ExecPolicy,
    ) -> Result<(Relation, EvalStats)> {
        let mut node = PlanNodeStats::new("GMDJ");
        let out = Runtime::new(policy).eval(
            base,
            &flows(),
            spec,
            Some(selection),
            *keep,
            completion.as_ref(),
            &mut node,
        )?;
        Ok((out, node.eval))
    }

    /// Two queries over one GMDJ that differ only in their selection and
    /// projection run as one evaluation: the pass span and the
    /// `shared_scan_evaluations_total` counter show one evaluation for
    /// two queries served, and each member gets its standalone answer and
    /// counters.
    #[test]
    fn selections_over_one_gmdj_share_one_evaluation() {
        let _passes = serialize_passes();
        let base = hours();
        let spec = sum_bytes();
        let members = [
            (col("total").gt(lit(10)), Keep::All, None),
            (col("total").lt(lit(40)), Keep::BaseOnly, None),
        ];
        let policy = ExecPolicy::parallel(2);
        let m = metrics::global();
        let evaluations_before = m.counter("shared_scan_evaluations_total");
        let served_before = m.counter("shared_scan_queries_served_total");
        let (results, spans) = pooled_members(&base, &spec, &members, policy);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].field("queries"), Some(2));
        assert_eq!(spans[0].field("evaluations"), Some(1));
        assert_eq!(
            m.counter("shared_scan_evaluations_total") - evaluations_before,
            1
        );
        assert_eq!(
            m.counter("shared_scan_queries_served_total") - served_before,
            2
        );
        for (member, out) in members.iter().zip(results) {
            let out = out.unwrap();
            let (expected, eval) = standalone_member(&base, &spec, member, policy).unwrap();
            assert_eq!(out.relation.schema(), expected.schema());
            assert!(out.relation.multiset_eq(&expected));
            assert_eq!(out.eval, eval);
            assert_eq!(out.pass_queries, 2);
        }
    }

    /// Under a completion plan the scan settles the selection, so two
    /// members with one plan but different selections (`cnt = 0` and
    /// `cnt = 0 AND H.HourDsc > 1` derive the same dead rule) stay two
    /// evaluations, each equal to its standalone run.
    #[test]
    fn completion_members_with_different_selections_do_not_merge() {
        use crate::completion::derive_completion;
        let _passes = serialize_passes();
        let mut base = RelationBuilder::new("H")
            .column("HourDsc", DataType::Int)
            .column("StartInterval", DataType::Int)
            .column("EndInterval", DataType::Int);
        for h in 0..5i64 {
            base = base.row(vec![h.into(), (h * 60).into(), (h * 60 + 60).into()]);
        }
        let base = base.build().unwrap();
        let spec = in_hour_count();
        let members: Vec<_> = [
            col("cnt").eq(lit(0)),
            col("cnt").eq(lit(0)).and(col("H.HourDsc").gt(lit(1))),
        ]
        .into_iter()
        .map(|selection| {
            let plan = derive_completion(&selection, &spec, true).unwrap();
            (selection, Keep::BaseOnly, Some(plan))
        })
        .collect();
        assert_eq!(members[0].2, members[1].2, "one completion plan");
        let policy = ExecPolicy::sequential();
        let (results, spans) = pooled_members(&base, &spec, &members, policy);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].field("evaluations"), Some(2));
        for (member, out) in members.iter().zip(results) {
            let out = out.unwrap();
            let (expected, eval) = standalone_member(&base, &spec, member, policy).unwrap();
            assert!(!expected.is_empty());
            assert!(out.relation.multiset_eq(&expected));
            assert_eq!(out.eval, eval);
            assert!(out.eval.dead_early > 0);
        }
    }

    /// A member whose selection errors when it is evaluated (`total <
    /// 'x'` compares an aggregate to a string) fails alone: its sibling
    /// over the same evaluation keeps its standalone answer, and the
    /// failing member's error is its standalone error.
    #[test]
    fn member_selection_error_fails_that_member_alone() {
        let _passes = serialize_passes();
        let base = hours();
        let spec = sum_bytes();
        let members = [
            (col("total").gt(lit(10)), Keep::All, None),
            (col("total").lt(lit("x")), Keep::All, None),
        ];
        let policy = ExecPolicy::parallel(2);
        let (mut results, spans) = pooled_members(&base, &spec, &members, policy);
        assert_eq!(spans[0].field("evaluations"), Some(1));
        let bad = results.pop().unwrap();
        let good = results.pop().unwrap().expect("the good member survives");
        let (expected, eval) = standalone_member(&base, &spec, &members[0], policy).unwrap();
        assert!(good.relation.multiset_eq(&expected));
        assert_eq!(good.eval, eval);
        let standalone_err = standalone_member(&base, &spec, &members[1], policy).unwrap_err();
        assert_eq!(bad.unwrap_err().to_string(), standalone_err.to_string());
    }

    /// One worker takes the whole detail; more workers get
    /// [`DEFAULT_MORSEL_ROWS`]-row morsels, which the pass clips to the
    /// detail, so a small detail is one morsel on any worker count.
    #[test]
    fn morsel_rows_follows_detail_and_workers() {
        assert_eq!(morsel_rows(20, 1), 20);
        assert_eq!(morsel_rows(1_200_000, 1), 1_200_000);
        assert_eq!(morsel_rows(0, 1), 1);
        assert_eq!(morsel_rows(20, 2), DEFAULT_MORSEL_ROWS);
        assert_eq!(morsel_rows(20, 16), DEFAULT_MORSEL_ROWS);
        // The paper's 1.2M detail rows: 293 morsels on two or more workers.
        assert_eq!(morsel_rows(1_200_000, 2), DEFAULT_MORSEL_ROWS);
        assert_eq!(morsel_rows(1_200_000, 16), DEFAULT_MORSEL_ROWS);
    }

    /// Morsel size is pure scheduling in a shared pass too: two jobs
    /// dealt in single rows, pairs or a prime on one to three workers
    /// each end with the accumulators and counters of their solo
    /// whole-detail pass.
    #[test]
    fn small_morsels_never_change_a_shared_pass() {
        let (base, detail) = (hours(), flows());
        let specs = [in_hour_count(), sum_bytes()];
        let probe = ExecPolicy::sequential().probe;
        let queries: Vec<BoundGmdj> = specs
            .iter()
            .map(|spec| BoundGmdj::bind(&base, &detail, spec, None, probe, false).unwrap())
            .collect();
        let jobs: Vec<PreparedQuery> = queries
            .iter()
            .map(|q| q.prepare(base.rows(), &mut EvalStats::default()).unwrap())
            .collect();
        let pass = |jobs: &[PreparedQuery], threads, morsel| {
            morsel_pass(
                detail.cols(),
                jobs,
                threads,
                morsel,
                &crate::trace::NullSink,
                None,
            )
            .jobs
        };
        let solo: Vec<JobScan> = jobs
            .iter()
            .map(|job| {
                pass(std::slice::from_ref(job), 1, detail.len())
                    .remove(0)
                    .unwrap()
            })
            .collect();
        for threads in [1, 2, 3] {
            for morsel in [1, 2, 5] {
                for (scan, want) in pass(&jobs, threads, morsel).into_iter().zip(&solo) {
                    let scan = scan.unwrap();
                    let at = format!("threads={threads} morsel={morsel}");
                    assert_eq!(scan.accs, want.accs, "{at}");
                    assert_eq!(scan.eval, want.eval, "{at}");
                    assert_eq!(scan.kernel.morsels, detail.len().div_ceil(morsel) as u64);
                }
            }
        }
    }

    /// A worker panic is an `Err` for the jobs it was running, whether
    /// the one worker ran on the calling thread or workers were spawned.
    #[test]
    fn worker_panic_is_an_error_for_any_worker_count() {
        let (base, detail, spec) = (hours(), flows(), in_hour_count());
        let policy = ExecPolicy::sequential();
        let query = BoundGmdj::bind(&base, &detail, &spec, None, policy.probe, false).unwrap();
        let mut job = query
            .prepare(base.rows(), &mut EvalStats::default())
            .unwrap();
        // Probe plans over three base tuples but an accumulator matrix
        // for none: the first match indexes past the matrix.
        job.base_rows = &[];
        for threads in [1, 2] {
            let jobs = std::slice::from_ref(&job);
            let pass = morsel_pass(
                detail.cols(),
                jobs,
                threads,
                2,
                &crate::trace::NullSink,
                None,
            );
            let err = pass.jobs.into_iter().next().unwrap().err();
            let err = err.expect("a panicking worker fails its job");
            assert!(err.to_string().contains("worker panicked"), "{err}");
        }
    }

    /// A solo submission past the window still completes (pass of one).
    #[test]
    fn solo_submission_runs_a_pass_of_one() {
        let _passes = serialize_passes();
        let base = hours();
        let detail = flows();
        let spec = in_hour_count();
        let p = Arc::new(SharedScanPool::new(SharedScanConfig {
            window: Duration::from_millis(1),
            target_batch: 8,
            threads: 2,
        }));
        let out = p
            .submit(
                &base,
                &detail,
                &spec,
                None,
                Keep::All,
                None,
                ExecPolicy::parallel(2).probe,
                &crate::trace::NullSink,
            )
            .unwrap();
        assert_eq!(out.pass_queries, 1);
        assert_eq!(out.relation.len(), base.len());
    }

    /// Different detail tables never coalesce: each keys its own queue.
    #[test]
    fn different_detail_tables_do_not_coalesce() {
        let detail_a = flows();
        let detail_b = flows();
        assert_ne!(detail_key(&detail_a), detail_key(&detail_b));
        // Renames share storage: same key.
        let renamed = detail_a.renamed("F2");
        assert_eq!(detail_key(&detail_a), detail_key(&renamed));
    }
}
