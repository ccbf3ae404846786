//! A cost model for GMDJ expressions.
//!
//! Section 6 of the paper: "Because the GMDJ evaluation has a well-defined
//! cost, it is easy to incorporate the GMDJ algorithm proposed in this
//! paper into a cost-based framework … allowing the cost-based query
//! optimizer to select between a rich set of alternatives."
//!
//! The model mirrors the evaluator in [`crate::eval`]: per (lᵢ, θᵢ) block
//! it determines which probe plan the evaluator would choose (hash,
//! interval, ranked, or active-scan) from the *syntactic shape* of the
//! block, and charges
//!
//! * **io** — tuples read from base tables (the dominant cost the paper
//!   optimizes: "the GMDJ can typically be evaluated in a single scan of
//!   the detail relation");
//! * **cpu** — probe candidates and predicate evaluations;
//! * **memory** — resident base tuples × aggregate state.
//!
//! [`cost_based_optimize`] runs the rewrite pipeline under every flag
//! combination and returns the cheapest plan — a miniature version of the
//! alternative-generation the paper proposes for the APPLY-style
//! optimizers of \[14\].

use gmdj_relation::error::Result;
use gmdj_relation::expr::{CmpOp, Predicate, ScalarExpr};
use gmdj_relation::schema::ColumnRef;

use crate::completion::CompletionPlan;
use crate::eval::ranked_syntax;
use crate::optimize::{optimize_with, OptFlags};
use crate::plan::GmdjExpr;
use crate::spec::{AggBlock, GmdjSpec};

/// Table cardinalities for estimation.
pub trait StatsProvider {
    /// Row count of a base table.
    fn table_rows(&self, name: &str) -> Result<u64>;
}

/// Every [`crate::exec::TableProvider`] knows its cardinalities.
impl<T: crate::exec::TableProvider + ?Sized> StatsProvider for T {
    fn table_rows(&self, name: &str) -> Result<u64> {
        Ok(self.table(name)?.len() as u64)
    }
}

/// An estimated cost, decomposed by resource.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Tuples read from stored relations.
    pub io: f64,
    /// Probe candidates + predicate evaluations.
    pub cpu: f64,
    /// Peak resident state (base tuples × aggregates).
    pub memory: f64,
}

impl Cost {
    /// Scalar figure used for plan comparison. IO dominates (the paper's
    /// experiments are disk-bound; in memory the same term counts cache
    /// traffic), with CPU close behind and memory as a light tiebreaker.
    pub fn total(&self) -> f64 {
        4.0 * self.io + self.cpu + 0.01 * self.memory
    }

    fn add(&mut self, other: &Cost) {
        self.io += other.io;
        self.cpu += other.cpu;
        self.memory = self.memory.max(other.memory);
    }
}

/// An estimate: output cardinality plus accumulated cost.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    pub rows: f64,
    pub cost: Cost,
}

/// Fold an executed plan's recorded statistics tree back into the cost
/// model's units — the observed counterpart of [`estimate`], closing the
/// loop between the optimizer's predictions and what the runtime actually
/// did. `io` counts tuples actually read (table-scan rows plus detail
/// tuples streamed by GMDJ scans), `cpu` counts probe candidates, θ
/// evaluations, aggregate updates and relational-operator input rows, and
/// `memory` peaks at the largest resident base partition.
pub fn observed_cost(stats: &crate::runtime::PlanNodeStats) -> Cost {
    let mut cost = Cost {
        io: (stats.scanned_rows + stats.eval.detail_scanned) as f64,
        cpu: (stats.eval.probe_candidates
            + stats.eval.theta_evals
            + stats.eval.agg_updates
            + stats.ops.rows_in) as f64,
        memory: if stats.eval.partitions > 0 {
            (stats.eval.base_rows as f64 / stats.eval.partitions as f64).ceil()
        } else {
            0.0
        },
    };
    for child in &stats.children {
        cost.add(&observed_cost(child));
    }
    cost
}

/// Default selectivity heuristics (System-R vintage).
const SEL_EQ: f64 = 0.1;
const SEL_RANGE: f64 = 0.33;
const SEL_DEFAULT: f64 = 0.5;

fn predicate_selectivity(p: &Predicate) -> f64 {
    p.split_conjuncts()
        .iter()
        .map(|c| match c {
            Predicate::Cmp { op: CmpOp::Eq, .. } => SEL_EQ,
            Predicate::Cmp { op: CmpOp::Ne, .. } => 1.0 - SEL_EQ,
            Predicate::Cmp { .. } => SEL_RANGE,
            Predicate::IsNull(_) | Predicate::IsNotNull(_) => SEL_DEFAULT,
            Predicate::Literal(_) => 1.0,
            _ => SEL_DEFAULT,
        })
        .product()
}

/// Which probe plan the evaluator would pick for a block, judged
/// syntactically like `eval::choose_access` (but without schemas: a
/// conjunct `X.a = Y.b` over two different qualifiers counts as an
/// equality key; a ≥/< pair over the same column counts as a band; where
/// `ranked` admits it, a block of `eval::ranked_syntax`, with qualifiers
/// for sides, counts as ranked). Without column types the model cannot
/// see what the evaluator declines on types — a key or an inequality
/// over incomparable or non-numeric columns, which it scans — for hash
/// and ranked blocks alike.
fn block_access(block: &AggBlock, ranked: bool) -> Access {
    let conjuncts = block.theta.split_conjuncts();
    let col_pair = |l: &ScalarExpr, r: &ScalarExpr| -> Option<(ColumnRef, ColumnRef)> {
        match (l, r) {
            (ScalarExpr::Column(a), ScalarExpr::Column(b))
                if a.qualifier.is_some() && b.qualifier.is_some() && a.qualifier != b.qualifier =>
            {
                Some((a.clone(), b.clone()))
            }
            _ => None,
        }
    };
    let mut lowers: Vec<ColumnRef> = Vec::new();
    let mut uppers: Vec<ColumnRef> = Vec::new();
    for c in &conjuncts {
        if let Predicate::Cmp { op, left, right } = c {
            if let Some((a, b)) = col_pair(left, right) {
                match op {
                    CmpOp::Eq => return Access::Hash,
                    CmpOp::Ge => lowers.push(a.clone()),
                    CmpOp::Le | CmpOp::Lt => uppers.push(a.clone()),
                    CmpOp::Gt => uppers.push(b.clone()),
                    _ => {}
                }
            }
        }
    }
    if lowers.iter().any(|l| uppers.iter().any(|u| u == l)) {
        Access::Interval
    } else if ranked && ranked_syntax(block, |c| c.qualifier.clone()) {
        Access::Ranked
    } else {
        Access::Scan
    }
}

enum Access {
    Hash,
    Interval,
    Ranked,
    Scan,
}

/// Forwarding shim so unsized providers (e.g. `&dyn TableProvider`) can
/// be passed to the object-taking internals.
struct FwdStats<'a, S: ?Sized>(&'a S);

impl<S: StatsProvider + ?Sized> StatsProvider for FwdStats<'_, S> {
    fn table_rows(&self, name: &str) -> Result<u64> {
        self.0.table_rows(name)
    }
}

/// Estimate the cost of evaluating a GMDJ expression.
pub fn estimate<S: StatsProvider + ?Sized>(expr: &GmdjExpr, stats: &S) -> Result<Estimate> {
    estimate_dyn(expr, &FwdStats(stats))
}

fn estimate_dyn(expr: &GmdjExpr, stats: &dyn StatsProvider) -> Result<Estimate> {
    match expr {
        GmdjExpr::Table { name, .. } => {
            let rows = stats.table_rows(name)? as f64;
            // Scan cost charged here; consumed relations are in memory.
            Ok(Estimate {
                rows,
                cost: Cost {
                    io: rows,
                    cpu: 0.0,
                    memory: rows,
                },
            })
        }
        GmdjExpr::Select { input, predicate } => {
            let mut e = estimate_dyn(input, stats)?;
            e.cost.cpu += e.rows;
            e.rows *= predicate_selectivity(predicate);
            Ok(e)
        }
        GmdjExpr::Project {
            input, distinct, ..
        } => {
            let mut e = estimate_dyn(input, stats)?;
            e.cost.cpu += e.rows;
            if *distinct {
                e.rows *= 0.7;
            }
            Ok(e)
        }
        GmdjExpr::AggProject { input, .. } => {
            let mut e = estimate_dyn(input, stats)?;
            e.cost.cpu += e.rows;
            e.rows = 1.0;
            Ok(e)
        }
        GmdjExpr::DropComputed { input, .. } => {
            let mut e = estimate_dyn(input, stats)?;
            e.cost.cpu += e.rows;
            Ok(e)
        }
        GmdjExpr::GroupBy { input, keys, .. } => {
            let mut e = estimate_dyn(input, stats)?;
            e.cost.cpu += e.rows;
            e.rows = if keys.is_empty() {
                1.0
            } else {
                (e.rows * 0.3).max(1.0)
            };
            Ok(e)
        }
        GmdjExpr::OrderBy { input, .. } => {
            let mut e = estimate_dyn(input, stats)?;
            e.cost.cpu += e.rows * e.rows.max(2.0).log2();
            Ok(e)
        }
        GmdjExpr::Limit { input, n } => {
            let mut e = estimate_dyn(input, stats)?;
            e.rows = e.rows.min(*n as f64);
            Ok(e)
        }
        GmdjExpr::Join { left, right, on } => {
            let l = estimate_dyn(left, stats)?;
            let r = estimate_dyn(right, stats)?;
            let mut cost = l.cost;
            cost.add(&r.cost);
            let has_equi = on
                .split_conjuncts()
                .iter()
                .any(|c| matches!(c, Predicate::Cmp { op: CmpOp::Eq, .. }));
            let rows;
            if has_equi {
                cost.cpu += l.rows + r.rows;
                rows = (l.rows * r.rows * SEL_EQ).max(l.rows.max(r.rows) * SEL_DEFAULT);
            } else if matches!(on, Predicate::Literal(_)) {
                cost.cpu += l.rows * r.rows;
                rows = l.rows * r.rows;
            } else {
                cost.cpu += l.rows * r.rows;
                rows = l.rows * r.rows * predicate_selectivity(on);
            }
            cost.memory = cost.memory.max(rows);
            Ok(Estimate { rows, cost })
        }
        GmdjExpr::Gmdj { base, detail, spec } => {
            let b = estimate_dyn(base, stats)?;
            let d = estimate_dyn(detail, stats)?;
            let mut cost = b.cost;
            cost.add(&d.cost);
            cost.add(&gmdj_block_cost(spec, b.rows, d.rows, None, false));
            Ok(Estimate { rows: b.rows, cost })
        }
        GmdjExpr::FilteredGmdj {
            base,
            detail,
            spec,
            selection,
            completion,
            ..
        } => {
            let b = estimate_dyn(base, stats)?;
            let d = estimate_dyn(detail, stats)?;
            let mut cost = b.cost;
            cost.add(&d.cost);
            cost.add(&gmdj_block_cost(
                spec,
                b.rows,
                d.rows,
                completion.as_ref(),
                true,
            ));
            let rows = b.rows * predicate_selectivity(selection);
            Ok(Estimate { rows, cost })
        }
    }
}

/// Per-block evaluation cost of one GMDJ over `base` × `detail` rows;
/// `filtered` admits ranked access to every block the completion plan
/// does not settle, as the evaluator does.
fn gmdj_block_cost(
    spec: &GmdjSpec,
    base: f64,
    detail: f64,
    completion: Option<&CompletionPlan>,
    filtered: bool,
) -> Cost {
    let mut cpu = 0.0;
    let access: Vec<Access> = spec
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| block_access(b, filtered && !completion.is_some_and(|c| c.settles(i))))
        .collect();
    // The active base set is shared across blocks: any fail-fast rule on
    // a block that visits pairs shrinks the candidates every scan block
    // sees (a ranked block's rules are dropped).
    let has_dead_rule = completion.is_some_and(|c| {
        c.dead_rules
            .iter()
            .any(|r| !matches!(access[r.on_block], Access::Ranked))
    });
    let log_base = base.max(2.0).log2();
    for a in &access {
        match a {
            // Hash probe: one candidate group per detail tuple; candidates
            // ≈ base / distinct-keys, bounded below by 1.
            Access::Hash => cpu += detail * (1.0 + (base * SEL_EQ).clamp(1.0, 8.0)),
            Access::Interval => cpu += detail * (1.0 + log_base),
            // One binary search per detail row, one sort of the base.
            Access::Ranked => cpu += detail * (1.0 + log_base) + base * log_base,
            Access::Scan => {
                // Active-base scan: base candidates per detail tuple —
                // unless fail-fast completion applies, in which case the
                // active set decays harmonically
                // (Σ_t base·min(1, 1/t) ≈ base·ln(detail)).
                if has_dead_rule && detail > 1.0 {
                    cpu += base * detail.ln().max(1.0) + detail;
                } else {
                    cpu += base * detail;
                }
            }
        }
    }
    // Finish-early completion halves the expected probe work.
    if completion.map(|c| c.finish_early).unwrap_or(false) {
        cpu *= 0.5;
    }
    Cost {
        io: detail,
        cpu,
        memory: base * spec.agg_count() as f64,
    }
}

/// Try every rewrite-flag combination and return the plan with the lowest
/// estimated cost, together with its estimate.
pub fn cost_based_optimize<S: StatsProvider + ?Sized>(
    expr: &GmdjExpr,
    stats: &S,
) -> Result<(GmdjExpr, Estimate)> {
    cost_based_optimize_dyn(expr, &FwdStats(stats))
}

fn cost_based_optimize_dyn(
    expr: &GmdjExpr,
    stats: &dyn StatsProvider,
) -> Result<(GmdjExpr, Estimate)> {
    let candidates = [
        OptFlags {
            hoist: false,
            coalesce: false,
            completion: false,
        },
        OptFlags {
            hoist: true,
            coalesce: false,
            completion: false,
        },
        OptFlags {
            hoist: true,
            coalesce: true,
            completion: false,
        },
        OptFlags {
            hoist: false,
            coalesce: false,
            completion: true,
        },
        OptFlags {
            hoist: true,
            coalesce: true,
            completion: true,
        },
    ];
    let mut best: Option<(GmdjExpr, Estimate)> = None;
    for flags in candidates {
        let plan = optimize_with(expr, &flags);
        let est = estimate_dyn(&plan, stats)?;
        let better = match &best {
            None => true,
            Some((_, b)) => est.cost.total() < b.cost.total(),
        };
        if better {
            best = Some((plan, est));
        }
    }
    Ok(best.expect("at least one candidate"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdj_relation::agg::NamedAgg;
    use gmdj_relation::expr::{col, lit};

    struct FixedStats;
    impl StatsProvider for FixedStats {
        fn table_rows(&self, name: &str) -> Result<u64> {
            Ok(match name {
                "B" => 1_000,
                "R" => 300_000,
                other => panic!("unknown table {other}"),
            })
        }
    }

    fn exists_chain(n: usize) -> GmdjExpr {
        let mut cur = GmdjExpr::table("B", "B");
        let mut names = Vec::new();
        for i in 0..n {
            let name = format!("c{i}");
            cur = cur.gmdj(
                GmdjExpr::table("R", format!("R{i}")),
                GmdjSpec::new(vec![AggBlock::count(
                    col("B.k").eq(col(&format!("R{i}.k"))),
                    name.clone(),
                )]),
            );
            names.push(name);
        }
        let sel = Predicate::conjoin(names.iter().map(|n| col(n).gt(lit(0))));
        GmdjExpr::DropComputed {
            input: Box::new(cur.select(sel)),
            names,
        }
    }

    #[test]
    fn coalesced_plan_costs_less_than_chain() {
        let chain = exists_chain(3);
        let coalesced = optimize_with(&chain, &OptFlags::default());
        let e1 = estimate(&chain, &FixedStats).unwrap();
        let e2 = estimate(&coalesced, &FixedStats).unwrap();
        // Three detail scans vs one.
        assert!(e2.cost.io < e1.cost.io, "{} !< {}", e2.cost.io, e1.cost.io);
        assert!(e2.cost.total() < e1.cost.total());
    }

    /// Figure 4's ALL shape over `B` and `R`: the plain
    /// `σ[c1 = c2](MD(B, R, …))` with its counts dropped.
    fn all_shape() -> GmdjExpr {
        let theta = col("B.k").ne(col("R.k"));
        let spec = GmdjSpec::new(vec![
            AggBlock::count(theta.clone().and(col("B.v").ge(col("R.v"))), "c1"),
            AggBlock::count(theta, "c2"),
        ]);
        GmdjExpr::DropComputed {
            input: Box::new(
                GmdjExpr::table("B", "B")
                    .gmdj(GmdjExpr::table("R", "R"), spec)
                    .select(col("c1").eq(col("c2"))),
            ),
            names: vec!["c1".into(), "c2".into()],
        }
    }

    #[test]
    fn completion_discounts_scan_blocks() {
        // ALL-shape: scan access in the plain GMDJ (no equi pair, <>
        // correlation); both blocks ranked once fused.
        let plain = all_shape();
        let fused = optimize_with(&plain, &OptFlags::default());
        assert!(fused.uses_completion(), "{fused}");
        let e_plain = estimate(&plain, &FixedStats).unwrap();
        let e_fused = estimate(&fused, &FixedStats).unwrap();
        assert!(
            e_fused.cost.cpu < e_plain.cost.cpu / 10.0,
            "completion should slash the quadratic scan term: {} vs {}",
            e_fused.cost.cpu,
            e_plain.cost.cpu
        );
        // No quadratic term is left: two ranked blocks, each one binary
        // search per detail row plus one sort of the base, and one pass
        // over the base rows above the GMDJ.
        let (b, r) = (1_000f64, 300_000f64);
        let ranked = 2.0 * (r * (1.0 + b.log2()) + b * b.log2());
        assert!(
            (ranked..ranked + b).contains(&e_fused.cost.cpu),
            "{} vs {ranked}",
            e_fused.cost.cpu
        );
    }

    #[test]
    fn cost_based_optimizer_picks_the_fused_all_plan() {
        let plain = all_shape();
        let (best, est) = cost_based_optimize(&plain, &FixedStats).unwrap();
        assert!(
            matches!(best, GmdjExpr::FilteredGmdj { .. }) && best.uses_completion(),
            "{best}"
        );
        assert!(est.cost.total() < estimate(&plain, &FixedStats).unwrap().cost.total());
    }

    #[test]
    fn cost_based_optimizer_picks_the_optimized_plan() {
        let chain = exists_chain(3);
        let (best, est) = cost_based_optimize(&chain, &FixedStats).unwrap();
        assert_eq!(best.gmdj_count(), 1, "{best}");
        assert!(best.uses_completion());
        assert!(est.cost.total() <= estimate(&chain, &FixedStats).unwrap().cost.total());
    }

    /// A block completion settles keeps its priced active-base scan,
    /// as the evaluator keeps pair evaluation for it: NOT EXISTS over
    /// `<>` has the ranked syntax, but its `cnt = 0` rule retires every
    /// tuple early. Without the rule the block is priced ranked.
    #[test]
    fn blocks_completion_settles_are_priced_as_scans() {
        use crate::completion::derive_completion;
        let spec = GmdjSpec::new(vec![AggBlock::count(col("B.k").ne(col("R.k")), "c")]);
        let plan = derive_completion(&col("c").eq(lit(0)), &spec, true).unwrap();
        assert!(plan.settles(0));
        let (b, r) = (1_000f64, 300_000f64);
        let settled = gmdj_block_cost(&spec, b, r, Some(&plan), true);
        assert_eq!(settled.cpu, b * r.ln() + r);
        let ranked = gmdj_block_cost(&spec, b, r, None, true);
        assert_eq!(ranked.cpu, r * (1.0 + b.log2()) + b * b.log2());
    }

    #[test]
    fn access_classification_matches_evaluator_shapes() {
        let access =
            |theta: Predicate, filtered| block_access(&AggBlock::count(theta, "c"), filtered);
        assert!(matches!(
            access(col("B.k").eq(col("R.k")), true),
            Access::Hash
        ));
        assert!(matches!(
            access(
                col("R.t").ge(col("B.lo")).and(col("R.t").lt(col("B.hi"))),
                true
            ),
            Access::Interval
        ));
        assert!(matches!(
            access(col("B.k").ne(col("R.k")), false),
            Access::Scan
        ));
        // Local constants don't create keys; a filtered GMDJ counts such
        // an uncorrelated block by rank.
        assert!(matches!(access(col("R.v").eq(lit(1)), false), Access::Scan));
        assert!(matches!(
            access(col("R.v").eq(lit(1)), true),
            Access::Ranked
        ));
        // A filtered GMDJ ranks `<>` and one-sided inequalities, with any
        // one-side conjuncts, in COUNT-only blocks.
        let ranked = col("B.k")
            .ne(col("R.k"))
            .and(col("B.v").ge(col("R.v")))
            .and(col("R.v").gt(lit(3)))
            .and(col("B.w").lt(col("B.v")));
        assert!(matches!(access(ranked.clone(), true), Access::Ranked));
        assert!(matches!(
            access(col("B.v").lt(col("R.v")), true),
            Access::Ranked
        ));
        let sum = AggBlock::new(ranked, vec![NamedAgg::sum(col("R.v"), "s")]);
        assert!(matches!(block_access(&sum, true), Access::Scan));
        let two_ineqs = col("B.v").lt(col("R.v")).and(col("B.w").gt(col("R.w")));
        assert!(matches!(access(two_ineqs, true), Access::Scan));
    }

    #[test]
    fn estimates_are_finite_and_positive() {
        let plan = exists_chain(2);
        let e = estimate(&plan, &FixedStats).unwrap();
        assert!(e.rows.is_finite() && e.rows >= 0.0);
        assert!(e.cost.total().is_finite() && e.cost.total() > 0.0);
    }

    #[test]
    fn observed_cost_reads_the_stats_tree_back() {
        use crate::exec::{execute, ExecContext, MemoryCatalog};
        use gmdj_relation::relation::RelationBuilder;
        use gmdj_relation::schema::DataType;

        let mut b = RelationBuilder::new("B").column("k", DataType::Int);
        for i in 0..4i64 {
            b = b.row(vec![i.into()]);
        }
        let mut r = RelationBuilder::new("R").column("k", DataType::Int);
        for i in 0..10i64 {
            r = r.row(vec![(i % 4).into()]);
        }
        let catalog = MemoryCatalog::new()
            .with("B", b.build().unwrap())
            .with("R", r.build().unwrap());
        let expr = GmdjExpr::table("B", "B")
            .gmdj(
                GmdjExpr::table("R", "R"),
                GmdjSpec::new(vec![AggBlock::count(col("B.k").eq(col("R.k")), "c")]),
            )
            .select(col("c").gt(lit(0)));
        let mut ctx = ExecContext::new();
        execute(&expr, &catalog, &mut ctx).unwrap();
        let tree = ctx.plan_stats.as_ref().unwrap();
        let cost = observed_cost(tree);
        // 4 base rows + 10 detail rows scanned from tables, plus the GMDJ
        // streaming the 10 detail rows once.
        assert_eq!(cost.io, 24.0);
        assert!(cost.cpu > 0.0);
        assert_eq!(cost.memory, 4.0);
        assert!(cost.total().is_finite());
    }
}
