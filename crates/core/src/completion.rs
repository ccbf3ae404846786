//! Base-tuple completion (Section 4.2, Theorems 4.1 and 4.2).
//!
//! When a GMDJ is consumed by a selection over its count columns — the
//! shape Algorithm SubqueryToGMDJ always produces — the evaluator can often
//! determine a base tuple's fate before the detail scan ends:
//!
//! * **Theorem 4.2** (fail fast): a conjunct `cnt = 0` is irrevocably
//!   false once the tuple's block matches a detail tuple — counts only
//!   grow. The tuple is *completed* (it will be rejected) and can be
//!   dropped from all further probing. Likewise, a conjunct
//!   `cnt₁ = cnt₂` where θ₁ = θ₂ ∧ extra (so RNG₁ ⊆ RNG₂) is irrevocably
//!   false once a detail tuple matches θ₂ but not θ₁ — this is exactly the
//!   ALL-subquery shape, and the rule reproduces the "smart nested loop"
//!   the paper observed in its target DBMS.
//! * **Theorem 4.1** (finish fast): when the consuming projection drops
//!   every aggregate column (`A ∩ (l₁ ∪ … ∪ lₘ) = ∅`) and the selection is
//!   a conjunction of `cntᵢ > 0` conditions, a tuple whose required blocks
//!   have all matched is completed (it will be accepted with certainty)
//!   and needs no further — or precise — aggregation.
//!
//! [`derive_completion`] inspects the selection predicate and the GMDJ
//! spec and produces a [`CompletionPlan`]; the evaluator in [`crate::eval`]
//! enforces it. Derivation is conservative: conjuncts it cannot analyze
//! simply contribute no rule (dead rules from other conjuncts remain sound,
//! because falsifying any conjunct falsifies the conjunction).

use gmdj_relation::expr::{CmpOp, Predicate, ScalarExpr};
use gmdj_relation::value::Value;

use crate::spec::GmdjSpec;

/// A fail-fast rule: while processing a detail tuple that matches block
/// `on_block`'s θ, the base tuple is completed-as-rejected unless the same
/// detail tuple also satisfies block `unless_also`'s θ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadRule {
    /// Block whose match triggers the rule (the superset range θ₂).
    pub on_block: usize,
    /// `None` for `cnt = 0` conjuncts; `Some(sub)` for `cnt_sub = cnt_sup`
    /// conjuncts with RNG(sub) ⊆ RNG(sup).
    pub unless_also: Option<usize>,
}

/// The completion behaviour derived for one `σ[sel](MD(…))` consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionPlan {
    /// Fail-fast rules (Theorem 4.2).
    pub dead_rules: Vec<DeadRule>,
    /// Blocks that appear in `cntᵢ > 0`-shaped conjuncts.
    pub need_match: Vec<usize>,
    /// Finish-fast (Theorem 4.1): once all `need_match` blocks have
    /// matched, the tuple is accepted and deactivated. Only set when the
    /// consumer projects the aggregates away and *every* conjunct is a
    /// `cnt > 0` condition.
    pub finish_early: bool,
}

impl CompletionPlan {
    /// True when the plan can actually do something.
    pub fn is_effective(&self) -> bool {
        !self.dead_rules.is_empty() || self.finish_early
    }

    /// Whether the plan retires a tuple on `block`'s first match: the
    /// block triggers a `cnt = 0` rule (NOT EXISTS), or finish-early
    /// needs it to match (EXISTS). Such a scan can settle within the
    /// first rows — a NOT EXISTS over `B.k <> R.k` kills every tuple at
    /// its first row of another key — so the block keeps pair evaluation
    /// with completion and never takes ranked access, which reads the
    /// whole detail. A pair rule (ALL) retires a tuple only on a row that
    /// beats it, so its scan settles only once every base tuple has been
    /// beaten — never when the base's best tuple is in the detail, as in
    /// Figure 4 — and its blocks may be ranked.
    pub(crate) fn settles(&self, block: usize) -> bool {
        self.dead_rules
            .iter()
            .any(|r| r.on_block == block && r.unless_also.is_none())
            || (self.finish_early && self.need_match.contains(&block))
    }

    /// The plan without the dead rules of blocks flagged in `counted`:
    /// those blocks are counted without visiting pairs (ranked access),
    /// so no match of theirs is ever seen. Only blocks the plan does not
    /// [`settle`](Self::settles) are counted, so only pair rules go.
    /// `None` when nothing effective is left.
    pub(crate) fn without_blocks(&self, counted: &[bool]) -> Option<CompletionPlan> {
        debug_assert!((0..counted.len()).all(|b| !counted[b] || !self.settles(b)));
        let plan = CompletionPlan {
            dead_rules: self
                .dead_rules
                .iter()
                .filter(|r| !counted[r.on_block])
                .cloned()
                .collect(),
            ..self.clone()
        };
        plan.is_effective().then_some(plan)
    }
}

/// Shape of a single analyzable conjunct.
enum ConjunctShape {
    /// `cnt = 0` for the count output of `block`.
    Zero(usize),
    /// `cnt > 0` for the count output of `block`.
    Positive(usize),
    /// `cnt_a = cnt_b` over two count outputs.
    PairEq(usize, usize),
    /// Anything else.
    Opaque,
}

/// Derive a completion plan for `σ[selection](MD(B, R, spec))`, where
/// `aggs_projected_away` says whether the consumer keeps only **B**'s
/// attributes (Theorem 4.1's `A ∩ (l₁ ∪ … ∪ lₘ) = ∅` condition).
///
/// Returns `None` when nothing can be derived (e.g. disjunctive
/// selections, or selections over non-count aggregates only).
pub fn derive_completion(
    selection: &Predicate,
    spec: &GmdjSpec,
    aggs_projected_away: bool,
) -> Option<CompletionPlan> {
    // Only pure conjunctions are analyzed. (The translation algorithm
    // produces conjunctions for tree queries; disjunctive selections would
    // need per-disjunct reasoning that Theorems 4.1/4.2 do not cover.)
    if has_disjunction_or_negation(selection) {
        return None;
    }
    let conjuncts = selection.split_conjuncts();
    let mut dead_rules = Vec::new();
    let mut need_match = Vec::new();
    let mut all_analyzable_positive = true;
    for c in &conjuncts {
        match classify_conjunct(c, spec) {
            ConjunctShape::Zero(block) => {
                all_analyzable_positive = false;
                dead_rules.push(DeadRule {
                    on_block: block,
                    unless_also: None,
                });
            }
            ConjunctShape::Positive(block) => {
                need_match.push(block);
            }
            ConjunctShape::PairEq(a, b) => {
                all_analyzable_positive = false;
                // Order the pair by syntactic range inclusion: θ_sub has a
                // conjunct superset of θ_sup ⟹ RNG(sub) ⊆ RNG(sup).
                if let Some((sub, sup)) = subset_order(spec, a, b) {
                    dead_rules.push(DeadRule {
                        on_block: sup,
                        unless_also: Some(sub),
                    });
                }
            }
            ConjunctShape::Opaque => {
                all_analyzable_positive = false;
            }
        }
    }
    let finish_early = aggs_projected_away && all_analyzable_positive && !need_match.is_empty();
    let plan = CompletionPlan {
        dead_rules,
        need_match,
        finish_early,
    };
    plan.is_effective().then_some(plan)
}

fn has_disjunction_or_negation(p: &Predicate) -> bool {
    match p {
        Predicate::Or(..) | Predicate::Not(..) => true,
        Predicate::And(a, b) => has_disjunction_or_negation(a) || has_disjunction_or_negation(b),
        _ => false,
    }
}

fn classify_conjunct(c: &Predicate, spec: &GmdjSpec) -> ConjunctShape {
    let Predicate::Cmp { op, left, right } = c else {
        return ConjunctShape::Opaque;
    };
    let as_count_block = |e: &ScalarExpr| -> Option<usize> {
        let ScalarExpr::Column(col) = e else {
            return None;
        };
        if col.qualifier.is_some() {
            return None;
        }
        spec.output_is_count_star(&col.name)
            .then(|| spec.block_of_output(&col.name))
            .flatten()
    };
    let as_zero = |e: &ScalarExpr| matches!(e, ScalarExpr::Literal(Value::Int(0)));
    let as_int = |e: &ScalarExpr| match e {
        ScalarExpr::Literal(Value::Int(n)) => Some(*n),
        _ => None,
    };

    match (as_count_block(left), as_count_block(right)) {
        (Some(a), Some(b)) if *op == CmpOp::Eq => return ConjunctShape::PairEq(a, b),
        (Some(block), None) => {
            // cnt = 0 | cnt <= 0  → Zero;  cnt > 0 | cnt >= 1 | cnt <> 0 → Positive
            match (op, as_int(right)) {
                (CmpOp::Eq, Some(0)) | (CmpOp::Le, Some(0)) | (CmpOp::Lt, Some(1)) => {
                    return ConjunctShape::Zero(block)
                }
                (CmpOp::Gt, Some(0)) | (CmpOp::Ge, Some(1)) | (CmpOp::Ne, Some(0)) => {
                    return ConjunctShape::Positive(block)
                }
                _ => {}
            }
            let _ = as_zero;
        }
        (None, Some(block)) => {
            // Mirrored: 0 = cnt, 0 < cnt, …
            match (op.flip(), as_int(left)) {
                (CmpOp::Eq, Some(0)) | (CmpOp::Le, Some(0)) | (CmpOp::Lt, Some(1)) => {
                    return ConjunctShape::Zero(block)
                }
                (CmpOp::Gt, Some(0)) | (CmpOp::Ge, Some(1)) | (CmpOp::Ne, Some(0)) => {
                    return ConjunctShape::Positive(block)
                }
                _ => {}
            }
        }
        _ => {}
    }
    ConjunctShape::Opaque
}

/// If the θ of one block is a syntactic conjunct-superset of the other's
/// (hence its range a subset), return `(sub, sup)`.
fn subset_order(spec: &GmdjSpec, a: usize, b: usize) -> Option<(usize, usize)> {
    let ca = spec.blocks[a].theta.split_conjuncts();
    let cb = spec.blocks[b].theta.split_conjuncts();
    let contains_all = |big: &Vec<&Predicate>, small: &Vec<&Predicate>| {
        small.iter().all(|s| big.iter().any(|bp| bp == s))
    };
    if contains_all(&ca, &cb) {
        // θ_a ⊇ θ_b as conjunct sets ⟹ RNG(a) ⊆ RNG(b): a is sub.
        Some((a, b))
    } else if contains_all(&cb, &ca) {
        Some((b, a))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AggBlock;
    use gmdj_relation::expr::{col, lit};

    /// Spec shaped like Example 4.1's coalesced base-values GMDJ:
    /// cnt1 = 0 ∧ cnt2 > 0 ∧ cnt3 = 0.
    fn example_4_1_spec() -> GmdjSpec {
        GmdjSpec::new(vec![
            AggBlock::count(
                col("B.SourceIP")
                    .eq(col("F.SourceIP"))
                    .and(col("F.DestIP").eq(lit("167"))),
                "cnt1",
            ),
            AggBlock::count(
                col("B.SourceIP")
                    .eq(col("F.SourceIP"))
                    .and(col("F.DestIP").eq(lit("168"))),
                "cnt2",
            ),
            AggBlock::count(
                col("B.SourceIP")
                    .eq(col("F.SourceIP"))
                    .and(col("F.DestIP").eq(lit("169"))),
                "cnt3",
            ),
        ])
    }

    #[test]
    fn example_4_2_dead_rules() {
        let sel = col("cnt1")
            .eq(lit(0))
            .and(col("cnt2").gt(lit(0)))
            .and(col("cnt3").eq(lit(0)));
        let plan = derive_completion(&sel, &example_4_1_spec(), true).unwrap();
        assert_eq!(
            plan.dead_rules,
            vec![
                DeadRule {
                    on_block: 0,
                    unless_also: None
                },
                DeadRule {
                    on_block: 2,
                    unless_also: None
                },
            ]
        );
        assert_eq!(plan.need_match, vec![1]);
        // cnt=0 conjuncts can flip later, so no early finish.
        assert!(!plan.finish_early);
    }

    #[test]
    fn exists_selection_finishes_early() {
        let spec = GmdjSpec::new(vec![AggBlock::count(col("B.k").eq(col("R.k")), "cnt")]);
        let plan = derive_completion(&col("cnt").gt(lit(0)), &spec, true).unwrap();
        assert!(plan.finish_early);
        assert_eq!(plan.need_match, vec![0]);
        assert!(plan.dead_rules.is_empty());
        // Theorem 4.1 requires the aggregates to be projected away.
        let plan = derive_completion(&col("cnt").gt(lit(0)), &spec, false);
        assert!(plan.is_none());
    }

    #[test]
    fn all_subquery_pair_rule() {
        // θ_sub = θ ∧ B.x > R.y; θ_sup = θ. Selection cnt1 = cnt2.
        let theta = col("B.k").ne(col("R.k"));
        let spec = GmdjSpec::new(vec![
            AggBlock::count(theta.clone().and(col("B.x").gt(col("R.y"))), "cnt1"),
            AggBlock::count(theta, "cnt2"),
        ]);
        let plan = derive_completion(&col("cnt1").eq(col("cnt2")), &spec, true).unwrap();
        assert_eq!(
            plan.dead_rules,
            vec![DeadRule {
                on_block: 1,
                unless_also: Some(0)
            }]
        );
        assert!(!plan.finish_early);
    }

    #[test]
    fn mirrored_and_alternative_forms() {
        let spec = GmdjSpec::new(vec![AggBlock::count(Predicate::true_(), "cnt")]);
        for sel in [
            lit(0).eq(col("cnt")),
            col("cnt").le(lit(0)),
            col("cnt").lt(lit(1)),
        ] {
            let plan = derive_completion(&sel, &spec, true).unwrap();
            assert_eq!(plan.dead_rules.len(), 1, "for {sel}");
        }
        for sel in [
            lit(0).lt(col("cnt")),
            col("cnt").ge(lit(1)),
            col("cnt").ne(lit(0)),
        ] {
            let plan = derive_completion(&sel, &spec, true).unwrap();
            assert!(plan.finish_early, "for {sel}");
        }
    }

    #[test]
    fn disjunctions_and_unknown_conjuncts_are_conservative() {
        let spec = GmdjSpec::new(vec![AggBlock::count(Predicate::true_(), "cnt")]);
        assert!(derive_completion(
            &col("cnt").eq(lit(0)).or(col("cnt").gt(lit(5))),
            &spec,
            true
        )
        .is_none());
        // Opaque conjunct alongside a zero conjunct: dead rule survives,
        // early finish does not.
        let sel = col("cnt").eq(lit(0)).and(col("cnt").lt(lit(100)));
        let plan = derive_completion(&sel, &spec, true).unwrap();
        assert_eq!(plan.dead_rules.len(), 1);
        assert!(!plan.finish_early);
    }

    #[test]
    fn non_count_outputs_are_opaque() {
        let spec = GmdjSpec::new(vec![AggBlock::new(
            Predicate::true_(),
            vec![gmdj_relation::agg::NamedAgg::sum(col("R.x"), "s")],
        )]);
        assert!(derive_completion(&col("s").eq(lit(0)), &spec, true).is_none());
    }

    #[test]
    fn pair_without_subset_relation_gives_no_rule() {
        let spec = GmdjSpec::new(vec![
            AggBlock::count(col("R.a").eq(lit(1)), "c1"),
            AggBlock::count(col("R.b").eq(lit(2)), "c2"),
        ]);
        assert!(derive_completion(&col("c1").eq(col("c2")), &spec, true).is_none());
    }
}
