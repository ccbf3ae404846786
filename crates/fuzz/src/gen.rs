//! Seed-driven case generation.
//!
//! Each seed deterministically produces a small randomized catalog (three
//! integer tables with NULL-heavy cells) and a nested query covering the
//! constructs of Section 2.1: scalar aggregate comparison, SOME/ALL,
//! EXISTS/NOT EXISTS, IN/NOT IN, boolean structure with NOT/OR, linear
//! nesting to depth 3, and non-neighboring correlation (an inner block
//! referencing a grandparent's attributes — the Theorem 3.3/3.4 shape).
//!
//! Each case also draws, from its seed, an order-preserving image of the
//! value domain, `v ↦ v × stride + offset` with stride 1 or 1,000,003 and
//! offset 0 or −2, applied to cells and literals alike. Comparisons among
//! cells, literals and their MIN, MAX and AVG keep their outcomes, while
//! hash keys become sparse or negative, so the differential check covers
//! both layouts of the engine's key index. COUNT, COUNT(*) and SUM are
//! not images of the domain (a count stays `0..=max_rows`; a sum gains
//! `n × offset`), so a case comparing against one keeps the identity
//! domain, where values and counts still tie.

use crate::rng::SplitMix64;
use crate::spec::{Agg, ColRef, FuzzCase, Op, Operand, Pred, Projection, QuerySpec, SubSpec};

/// Tunable generation limits. The defaults keep cases small enough that a
/// full differential check (every strategy × every policy) runs in well
/// under a millisecond, so hundreds of cases per second are practical.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum rows per generated table.
    pub max_rows: usize,
    /// Inclusive upper bound of the integer value domain `0..=max_value`,
    /// before the case's order-preserving remap. Kept tiny so collisions,
    /// empty correlated ranges, and boundary comparisons are all common.
    pub max_value: i64,
    /// Probability (percent) that a generated cell is NULL.
    pub null_pct: u64,
    /// Maximum subquery nesting depth.
    pub max_depth: usize,
    /// Maximum total subquery constructs per case.
    pub max_subqueries: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_rows: 7,
            max_value: 4,
            null_pct: 25,
            max_depth: 3,
            max_subqueries: 4,
        }
    }
}

const TABLES: [&str; 3] = ["B", "R", "S"];
const COLUMNS: [&str; 2] = ["a", "b"];
/// The value-domain remaps a case draws from: dense or sparse keys,
/// non-negative or reaching below zero.
const STRIDES: [i64; 2] = [1, 1_000_003];
const OFFSETS: [i64; 2] = [0, -2];

struct Gen<'a> {
    rng: SplitMix64,
    cfg: &'a GenConfig,
    /// Whether some generated `AggCmp` compares against COUNT, COUNT(*)
    /// or SUM.
    counts_rows: bool,
    alias_counter: usize,
    subqueries_left: usize,
}

/// The `(stride, offset)` value remap of the case for `seed`: the
/// identity when the case `counts_rows`, else drawn from a stream of its
/// own, so the rest of the case is what the seed generated before the
/// remap existed.
fn value_domain(seed: u64, counts_rows: bool) -> (i64, i64) {
    if counts_rows {
        return (1, 0);
    }
    let mut rng = SplitMix64::new(seed ^ 0x646f_6d61_696e);
    (*rng.pick(&STRIDES), *rng.pick(&OFFSETS))
}

/// Apply `remap` to every literal of `p`, subqueries included.
fn remap_literals(p: &mut Pred, remap: &impl Fn(i64) -> i64) {
    let lit = |o: &mut Operand| {
        if let Operand::Lit(Some(v)) = o {
            *v = remap(*v);
        }
    };
    match p {
        Pred::True | Pred::IsNull { .. } => {}
        Pred::Cmp { left, right, .. } => {
            lit(left);
            lit(right);
        }
        Pred::Exists { sub, .. } => remap_literals(&mut sub.pred, remap),
        Pred::In { left, sub, .. }
        | Pred::Quant { left, sub, .. }
        | Pred::AggCmp { left, sub, .. } => {
            lit(left);
            remap_literals(&mut sub.pred, remap);
        }
        Pred::And(a, b) | Pred::Or(a, b) => {
            remap_literals(a, remap);
            remap_literals(b, remap);
        }
        Pred::Not(q) => remap_literals(q, remap),
    }
}

/// Generate the case for one seed.
pub fn generate_case(seed: u64, cfg: &GenConfig) -> FuzzCase {
    let mut g = Gen {
        rng: SplitMix64::new(seed),
        cfg,
        counts_rows: false,
        alias_counter: 0,
        subqueries_left: cfg.max_subqueries,
    };

    let mut tables: Vec<crate::spec::TableSpec> = TABLES
        .iter()
        .map(|name| {
            let rows = g.rng.below(cfg.max_rows as u64 + 1) as usize;
            crate::spec::TableSpec {
                name: name.to_string(),
                columns: COLUMNS.iter().map(|c| c.to_string()).collect(),
                rows: (0..rows)
                    .map(|_| (0..COLUMNS.len()).map(|_| g.cell()).collect())
                    .collect(),
            }
        })
        .collect();

    let outer_table = g.rng.pick(&TABLES).to_string();
    let alias = g.fresh_alias(&outer_table);
    let scope = vec![alias.clone()];
    let mut predicate = g.block_pred(&scope, 0);
    let (stride, offset) = value_domain(seed, g.counts_rows);
    let remap = |v: i64| v * stride + offset;
    for v in tables
        .iter_mut()
        .flat_map(|t| t.rows.iter_mut().flatten().flatten())
    {
        *v = remap(*v);
    }
    remap_literals(&mut predicate, &remap);
    let projection = match g.rng.below(4) {
        0 => Projection::Column(g.column().to_string()),
        1 => Projection::DistinctColumn(g.column().to_string()),
        _ => Projection::Star,
    };

    let spec = QuerySpec {
        table: outer_table,
        alias,
        projection,
        predicate,
    };
    let sql = spec.to_sql();
    FuzzCase {
        seed,
        tables,
        sql,
        spec: Some(spec),
    }
}

impl Gen<'_> {
    fn cell(&mut self) -> Option<i64> {
        if self.rng.chance(self.cfg.null_pct) {
            None
        } else {
            Some(self.value())
        }
    }

    /// A non-NULL value, before the case's remap.
    fn value(&mut self) -> i64 {
        self.rng.below(self.cfg.max_value as u64 + 1) as i64
    }

    fn column(&mut self) -> &'static str {
        self.rng.pick::<&str>(&COLUMNS)
    }

    fn fresh_alias(&mut self, table: &str) -> String {
        let n = self.alias_counter;
        self.alias_counter += 1;
        format!("{table}{n}")
    }

    /// A literal operand; NULL-heavy on purpose (the 3VL traps live
    /// there).
    fn literal(&mut self) -> Operand {
        if self.rng.chance(20) {
            Operand::Lit(None)
        } else {
            Operand::Lit(Some(self.value()))
        }
    }

    /// A column of any block in scope. Weighted toward the innermost
    /// alias (ordinary correlation) but regularly reaching further out,
    /// which yields non-neighboring correlation once nesting passes
    /// depth 2.
    fn scope_col(&mut self, scope: &[String]) -> ColRef {
        let idx = if scope.len() > 1 && self.rng.chance(35) {
            self.rng.below(scope.len() as u64 - 1) as usize
        } else {
            scope.len() - 1
        };
        ColRef::new(scope[idx].clone(), self.column())
    }

    /// Left operand of a comparison-shaped construct.
    fn operand(&mut self, scope: &[String]) -> Operand {
        if self.rng.chance(80) {
            Operand::Col(self.scope_col(scope))
        } else {
            self.literal()
        }
    }

    fn op(&mut self) -> Op {
        *self.rng.pick(&Op::ALL)
    }

    /// The WHERE predicate of one block: 1–3 leaves under random boolean
    /// structure.
    fn block_pred(&mut self, scope: &[String], depth: usize) -> Pred {
        let leaves = 1 + self.rng.below(3) as usize;
        let mut pred: Option<Pred> = None;
        for _ in 0..leaves {
            let leaf = self.leaf(scope, depth);
            pred = Some(match pred {
                None => leaf,
                Some(acc) => {
                    if self.rng.chance(70) {
                        Pred::And(Box::new(acc), Box::new(leaf))
                    } else {
                        Pred::Or(Box::new(acc), Box::new(leaf))
                    }
                }
            });
        }
        let mut pred = pred.unwrap_or(Pred::True);
        if self.rng.chance(15) {
            pred = Pred::Not(Box::new(pred));
        }
        pred
    }

    /// One leaf: a flat atom or (budget permitting) a subquery construct.
    fn leaf(&mut self, scope: &[String], depth: usize) -> Pred {
        let can_nest = depth < self.cfg.max_depth && self.subqueries_left > 0;
        if can_nest && self.rng.chance(55) {
            self.subquery_leaf(scope, depth)
        } else {
            self.atom(scope)
        }
    }

    fn atom(&mut self, scope: &[String]) -> Pred {
        match self.rng.below(10) {
            // Correlation-style column/column comparison.
            0..=4 => Pred::Cmp {
                left: Operand::Col(self.scope_col(scope)),
                op: self.op(),
                right: Operand::Col(self.scope_col(scope)),
            },
            // Column/literal comparison (literal may be NULL).
            5..=8 => Pred::Cmp {
                left: Operand::Col(self.scope_col(scope)),
                op: self.op(),
                right: self.literal(),
            },
            _ => Pred::IsNull {
                col: self.scope_col(scope),
                negated: self.rng.chance(50),
            },
        }
    }

    fn subquery_leaf(&mut self, scope: &[String], depth: usize) -> Pred {
        self.subqueries_left -= 1;
        let table = self.rng.pick(&TABLES).to_string();
        let alias = self.fresh_alias(&table);
        let mut inner_scope = scope.to_vec();
        inner_scope.push(alias.clone());
        let pred = self.block_pred(&inner_scope, depth + 1);
        let sub = Box::new(SubSpec {
            table,
            alias,
            output: self.column().to_string(),
            pred,
        });
        match self.rng.below(5) {
            0 => Pred::Exists {
                negated: self.rng.chance(50),
                sub,
            },
            1 => Pred::In {
                left: self.operand(scope),
                negated: self.rng.chance(50),
                sub,
            },
            2 => Pred::Quant {
                left: self.operand(scope),
                op: self.op(),
                all: self.rng.chance(50),
                sub,
            },
            _ => {
                let left = self.operand(scope);
                let op = self.op();
                let func = *self.rng.pick(&Agg::ALL);
                self.counts_rows |= matches!(func, Agg::CountStar | Agg::Count | Agg::Sum);
                Pred::AggCmp {
                    left,
                    op,
                    func,
                    sub,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::case_seed;

    #[test]
    fn generated_sql_always_parses() {
        let cfg = GenConfig::default();
        for i in 0..300 {
            let case = generate_case(case_seed(42, i), &cfg);
            gmdj_sql::parse_query(&case.sql)
                .unwrap_or_else(|e| panic!("seed {i}: `{}` failed to parse: {e}", case.sql));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate_case(987, &cfg);
        let b = generate_case(987, &cfg);
        assert_eq!(a.sql, b.sql);
        assert_eq!(a.tables, b.tables);
    }

    /// Seeds reach every value remap, and a case's cells lie in its
    /// remapped domain. A case comparing against COUNT, COUNT(*) or SUM
    /// keeps the identity domain, so its values still tie with counts.
    #[test]
    fn value_domains_are_remapped_per_case() {
        let cfg = GenConfig::default();
        let mut seen = std::collections::BTreeSet::new();
        let mut counting = 0;
        for i in 0..400 {
            let seed = case_seed(3, i);
            let case = generate_case(seed, &cfg);
            let counts_rows = case.sql.contains("COUNT(") || case.sql.contains("SUM(");
            let (stride, offset) = if counts_rows {
                counting += 1;
                (1, 0)
            } else {
                value_domain(seed, false)
            };
            seen.insert((stride, offset));
            for v in case
                .tables
                .iter()
                .flat_map(|t| t.rows.iter().flatten().flatten())
            {
                let k = (v - offset) / stride;
                assert!(
                    (0..=cfg.max_value).contains(&k) && k * stride + offset == *v,
                    "seed {seed}: {v} is outside ({stride}, {offset})"
                );
            }
        }
        assert!(counting > 0, "no case compares against a count");
        assert_eq!(seen.len(), STRIDES.len() * OFFSETS.len(), "{seen:?}");
    }

    /// The generator must cover every Section 2.1 construct within a
    /// reasonable number of seeds — this is the coverage contract the
    /// differential harness depends on.
    #[test]
    fn constructs_are_all_reachable() {
        let cfg = GenConfig::default();
        let mut exists = false;
        let mut not_exists = false;
        let mut in_pred = false;
        let mut not_in = false;
        let mut some_q = false;
        let mut all_q = false;
        let mut agg_cmp = false;
        let mut null_lit = false;
        let mut depth3 = false;
        let mut non_neighboring = false;

        fn scan(p: &Pred, scope_len: usize, f: &mut dyn FnMut(&Pred, usize)) {
            f(p, scope_len);
            match p {
                Pred::And(a, b) | Pred::Or(a, b) => {
                    scan(a, scope_len, f);
                    scan(b, scope_len, f);
                }
                Pred::Not(q) => scan(q, scope_len, f),
                Pred::Exists { sub, .. }
                | Pred::In { sub, .. }
                | Pred::Quant { sub, .. }
                | Pred::AggCmp { sub, .. } => scan(&sub.pred, scope_len + 1, f),
                _ => {}
            }
        }

        for i in 0..2000 {
            let case = generate_case(case_seed(7, i), &cfg);
            let spec = case.spec.as_ref().unwrap();
            if spec.predicate.nesting_depth() >= 3 {
                depth3 = true;
            }
            if case.sql.contains("NULL") {
                null_lit = true;
            }
            scan(&spec.predicate, 1, &mut |p, scope_len| match p {
                Pred::Exists { negated, .. } => {
                    if *negated {
                        not_exists = true;
                    } else {
                        exists = true;
                    }
                }
                Pred::In { negated, .. } => {
                    if *negated {
                        not_in = true;
                    } else {
                        in_pred = true;
                    }
                }
                Pred::Quant { all, .. } => {
                    if *all {
                        all_q = true;
                    } else {
                        some_q = true;
                    }
                }
                Pred::AggCmp { .. } => agg_cmp = true,
                Pred::Cmp { left, right, .. } if scope_len >= 3 => {
                    // A comparison two or more blocks deep referencing an
                    // alias at least two levels up is non-neighboring
                    // correlation.
                    for operand in [left, right] {
                        if let Operand::Col(c) = operand {
                            // Outer aliases end with low counters; a
                            // structural check: the referenced alias is
                            // not the innermost block's.
                            if c.alias.ends_with('0') && scope_len >= 3 {
                                non_neighboring = true;
                            }
                        }
                    }
                }
                _ => {}
            });
        }
        assert!(
            exists
                && not_exists
                && in_pred
                && not_in
                && some_q
                && all_q
                && agg_cmp
                && null_lit
                && depth3
                && non_neighboring,
            "coverage gaps: exists={exists} not_exists={not_exists} in={in_pred} \
             not_in={not_in} some={some_q} all={all_q} agg={agg_cmp} null={null_lit} \
             depth3={depth3} non_neighboring={non_neighboring}"
        );
    }
}
