//! Vectorized predicate kernels over borrowed column slices.
//!
//! The GMDJ hot loop is a single pass over the detail relation (paper
//! Section 2.2). Since relations are stored natively columnar
//! ([`crate::columnar`]), the scan no longer decodes tuples per query: a
//! [`BatchView`] *borrows* a [`BATCH_ROWS`]-sized window of the stored
//! column vectors, and the comparison kernels run directly over those
//! slices. String columns arrive dictionary encoded — an equality kernel
//! compares one cached hash per row and only then the dictionary bytes.
//!
//! Correctness contract: a kernel may only run when the stored column
//! types *guarantee* the row-at-a-time path could not error; anything it
//! cannot guarantee (mixed-type columns, non-conjunctive predicates,
//! incomparable operand types) reports "unsupported" and the caller falls
//! back to the exact row path. A computed mask is the WHERE-truncation of
//! Kleene 3VL: a bit is set iff every conjunct evaluates to `True`.
//! Because column typing is now relation-global rather than re-derived per
//! window, kernel applicability is identical for every window of the same
//! relation.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::columnar::{ColumnSet, ColumnStore, COLUMN_CHUNK_ROWS};
use crate::expr::{BoundPredicate, BoundScalar, CmpOp};
use crate::fxhash::hash_str;
use crate::value::{Truth, Value};

/// Number of detail rows per kernel window. Equal to the column-chunk page
/// size so one batch touches exactly one page per referenced column.
pub const BATCH_ROWS: usize = COLUMN_CHUNK_ROWS;

/// Borrowed typed data of one column window. For `Str`, `codes` is the
/// window slice while `dict` / `dict_hashes` are the full per-column
/// dictionary, indexed by code.
#[derive(Debug, Clone, Copy)]
pub enum ColData<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str {
        codes: &'a [u32],
        dict: &'a [Arc<str>],
        dict_hashes: &'a [u64],
    },
    Bool(&'a [bool]),
    /// Mixed-typed column: kernels do not apply, rows fall back.
    Other(&'a [Value]),
}

/// One borrowed column window: typed data plus the matching null-mask
/// slice.
#[derive(Debug, Clone, Copy)]
pub struct ColView<'a> {
    pub data: ColData<'a>,
    /// `nulls[i]` is true when row `i` of the window is NULL.
    pub nulls: &'a [bool],
    pub has_nulls: bool,
}

impl<'a> ColView<'a> {
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls[i]
    }
}

/// A window of detail rows viewed column-wise, borrowed from storage.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    cols: &'a ColumnSet,
    start: usize,
    len: usize,
}

impl<'a> BatchView<'a> {
    /// Borrow rows `start .. start + len` of `cols`.
    pub fn new(cols: &'a ColumnSet, start: usize, len: usize) -> BatchView<'a> {
        debug_assert!(start + len <= cols.len());
        BatchView { cols, start, len }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow one column's window.
    pub fn col(&self, i: usize) -> ColView<'a> {
        let sc = self.cols.col(i);
        let r = self.start..self.start + self.len;
        let data = match &sc.data {
            ColumnStore::Int(v) => ColData::Int(&v[r.clone()]),
            ColumnStore::Float(v) => ColData::Float(&v[r.clone()]),
            ColumnStore::Bool(v) => ColData::Bool(&v[r.clone()]),
            ColumnStore::Str {
                codes,
                dict,
                dict_hashes,
            } => ColData::Str {
                codes: &codes[r.clone()],
                dict,
                dict_hashes,
            },
            ColumnStore::Other(v) => ColData::Other(&v[r.clone()]),
        };
        ColView {
            data,
            nulls: &sc.nulls[r],
            has_nulls: sc.has_nulls,
        }
    }
}

/// Operand of a compiled comparison: a base-scope column (resolved to a
/// constant per probing base tuple), a detail-scope column (a stored
/// column window), or a literal.
#[derive(Debug, Clone)]
pub enum BatchOperand {
    Base(usize),
    Detail(usize),
    Lit(Value),
}

/// One compiled comparison `left op right`.
#[derive(Debug, Clone)]
pub struct BatchCmp {
    pub op: CmpOp,
    pub left: BatchOperand,
    pub right: BatchOperand,
}

/// A conjunction of comparisons compiled from a [`BoundPredicate`], ready
/// for masked evaluation over a [`BatchView`].
#[derive(Debug, Clone)]
pub struct BatchPredicate {
    cmps: Vec<BatchCmp>,
}

impl BatchPredicate {
    /// Compile a bound predicate (scope 0 = base, scope 1 = detail) into a
    /// kernel-evaluable conjunction. Returns `None` for any shape the
    /// kernels don't cover (OR/NOT/IS NULL, computed operands): the caller
    /// keeps the exact row path for those.
    pub fn compile(p: &BoundPredicate) -> Option<BatchPredicate> {
        let mut cmps = Vec::new();
        if !collect_conjuncts(p, &mut cmps) {
            return None;
        }
        Some(BatchPredicate { cmps })
    }

    /// True when no comparison reads a base-scope column, i.e. the mask for
    /// a window can be computed once and shared across all probing base
    /// tuples.
    pub fn detail_only(&self) -> bool {
        self.cmps.iter().all(|c| {
            !matches!(c.left, BatchOperand::Base(_)) && !matches!(c.right, BatchOperand::Base(_))
        })
    }

    /// Evaluate the conjunction over `view`, AND-ing each comparison into
    /// `mask` (`mask[i]` = all conjuncts `True` at row `i`). Returns `false`
    /// when the stored column types (or the base row's value types) cannot
    /// guarantee error-free evaluation — the caller must then use the row
    /// path, which reproduces exact error behavior.
    pub fn eval_mask(
        &self,
        view: &BatchView<'_>,
        base_row: Option<&[Value]>,
        mask: &mut Vec<bool>,
    ) -> bool {
        mask.clear();
        mask.resize(view.len(), true);
        for cmp in &self.cmps {
            let l = match resolve(&cmp.left, view, base_row) {
                Some(o) => o,
                None => return false,
            };
            let r = match resolve(&cmp.right, view, base_row) {
                Some(o) => o,
                None => return false,
            };
            let ok = match (l, r) {
                (Operand::Const(a), Operand::Const(b)) => cmp_const_const(cmp.op, a, b, mask),
                (Operand::Col(c), Operand::Const(v)) => cmp_col_const(cmp.op, &c, v, mask),
                (Operand::Const(v), Operand::Col(c)) => cmp_col_const(cmp.op.flip(), &c, v, mask),
                (Operand::Col(a), Operand::Col(b)) => cmp_col_col(cmp.op, &a, &b, mask),
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

fn collect_conjuncts(p: &BoundPredicate, out: &mut Vec<BatchCmp>) -> bool {
    match p {
        BoundPredicate::And(a, b) => collect_conjuncts(a, out) && collect_conjuncts(b, out),
        BoundPredicate::Literal(Truth::True) => true,
        BoundPredicate::Cmp { op, left, right } => match (operand(left), operand(right)) {
            (Some(l), Some(r)) => {
                out.push(BatchCmp {
                    op: *op,
                    left: l,
                    right: r,
                });
                true
            }
            _ => false,
        },
        _ => false,
    }
}

fn operand(e: &BoundScalar) -> Option<BatchOperand> {
    match e {
        BoundScalar::Column { scope: 0, index } => Some(BatchOperand::Base(*index)),
        BoundScalar::Column { scope: 1, index } => Some(BatchOperand::Detail(*index)),
        BoundScalar::Literal(v) => Some(BatchOperand::Lit(v.clone())),
        _ => None,
    }
}

enum Operand<'a> {
    Col(ColView<'a>),
    Const(&'a Value),
}

fn resolve<'a>(
    op: &'a BatchOperand,
    view: &BatchView<'a>,
    base_row: Option<&'a [Value]>,
) -> Option<Operand<'a>> {
    match op {
        BatchOperand::Detail(i) => Some(Operand::Col(view.col(*i))),
        BatchOperand::Base(i) => base_row.map(|b| Operand::Const(&b[*i])),
        BatchOperand::Lit(v) => Some(Operand::Const(v)),
    }
}

#[inline]
fn truth(op: CmpOp, ord: Ordering) -> bool {
    op.apply(Some(ord)).passes()
}

#[inline]
fn fill_false(mask: &mut [bool]) {
    mask.iter_mut().for_each(|m| *m = false);
}

fn cmp_const_const(op: CmpOp, a: &Value, b: &Value, mask: &mut [bool]) -> bool {
    match a.sql_cmp(b) {
        // The row path would raise TypeMismatch for every pair.
        Err(_) => false,
        Ok(None) => {
            fill_false(mask);
            true
        }
        Ok(Some(ord)) => {
            if !truth(op, ord) {
                fill_false(mask);
            }
            true
        }
    }
}

/// AND `col op c` into `mask` row-wise, mirroring `Value::sql_cmp` per
/// type pair: Int/Int via `i64` ordering, anything-Float via widened
/// `f64::total_cmp`, Str via byte-wise ordering on the dictionary entry
/// (equality prechecks the cached dictionary hash), Bool via `bool`
/// ordering.
fn cmp_col_const(op: CmpOp, col: &ColView<'_>, c: &Value, mask: &mut [bool]) -> bool {
    if c.is_null() {
        // NULL comparand: every row is Unknown — no error regardless of
        // the column's type, so this is supported even for Other columns.
        fill_false(mask);
        return true;
    }
    let nulls = col.nulls;
    match (&col.data, c) {
        (ColData::Int(vals), Value::Int(b)) => {
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    *m = !nulls[i] && truth(op, vals[i].cmp(b));
                }
            }
            true
        }
        (ColData::Int(vals), Value::Float(b)) => {
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    *m = !nulls[i] && truth(op, (vals[i] as f64).total_cmp(b));
                }
            }
            true
        }
        (ColData::Float(vals), Value::Int(b)) => {
            let b = *b as f64;
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    *m = !nulls[i] && truth(op, vals[i].total_cmp(&b));
                }
            }
            true
        }
        (ColData::Float(vals), Value::Float(b)) => {
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    *m = !nulls[i] && truth(op, vals[i].total_cmp(b));
                }
            }
            true
        }
        (
            ColData::Str {
                codes,
                dict,
                dict_hashes,
            },
            Value::Str(b),
        ) => {
            if op == CmpOp::Eq {
                // Hash the comparand once; each row rejects on one cached
                // dictionary hash before ever touching string bytes.
                let bh = hash_str(b);
                for (i, m) in mask.iter_mut().enumerate() {
                    if *m {
                        let d = codes[i] as usize;
                        *m = !nulls[i] && dict_hashes[d] == bh && dict[d].as_ref() == b.as_ref();
                    }
                }
            } else {
                for (i, m) in mask.iter_mut().enumerate() {
                    if *m {
                        *m = !nulls[i]
                            && truth(op, dict[codes[i] as usize].as_ref().cmp(b.as_ref()));
                    }
                }
            }
            true
        }
        (ColData::Bool(vals), Value::Bool(b)) => {
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    *m = !nulls[i] && truth(op, vals[i].cmp(b));
                }
            }
            true
        }
        // Mixed column or incomparable type pair: the row path may error
        // (TypeMismatch) on some rows — fall back for exactness.
        _ => false,
    }
}

fn cmp_col_col(op: CmpOp, l: &ColView<'_>, r: &ColView<'_>, mask: &mut [bool]) -> bool {
    let (ln, rn) = (l.nulls, r.nulls);
    match (&l.data, &r.data) {
        (ColData::Int(a), ColData::Int(b)) => {
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    *m = !ln[i] && !rn[i] && truth(op, a[i].cmp(&b[i]));
                }
            }
            true
        }
        (ColData::Int(a), ColData::Float(b)) => {
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    *m = !ln[i] && !rn[i] && truth(op, (a[i] as f64).total_cmp(&b[i]));
                }
            }
            true
        }
        (ColData::Float(a), ColData::Int(b)) => {
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    *m = !ln[i] && !rn[i] && truth(op, a[i].total_cmp(&(b[i] as f64)));
                }
            }
            true
        }
        (ColData::Float(a), ColData::Float(b)) => {
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    *m = !ln[i] && !rn[i] && truth(op, a[i].total_cmp(&b[i]));
                }
            }
            true
        }
        (
            ColData::Str {
                codes: ac,
                dict: ad,
                dict_hashes: ah,
            },
            ColData::Str {
                codes: bc,
                dict: bd,
                dict_hashes: bh,
            },
        ) => {
            // Codes from different columns index different dictionaries and
            // are never directly comparable; equality prechecks the two
            // cached dictionary hashes instead.
            if op == CmpOp::Eq {
                for (i, m) in mask.iter_mut().enumerate() {
                    if *m {
                        let (da, db) = (ac[i] as usize, bc[i] as usize);
                        *m = !ln[i]
                            && !rn[i]
                            && ah[da] == bh[db]
                            && ad[da].as_ref() == bd[db].as_ref();
                    }
                }
            } else {
                for (i, m) in mask.iter_mut().enumerate() {
                    if *m {
                        let (da, db) = (ac[i] as usize, bc[i] as usize);
                        *m = !ln[i] && !rn[i] && truth(op, ad[da].as_ref().cmp(bd[db].as_ref()));
                    }
                }
            }
            true
        }
        (ColData::Bool(a), ColData::Bool(b)) => {
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    *m = !ln[i] && !rn[i] && truth(op, a[i].cmp(&b[i]));
                }
            }
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Tuple;
    use crate::value::Value;

    fn tuples(rows: &[Vec<Value>]) -> Vec<Tuple> {
        rows.iter().map(|r| r.clone().into_boxed_slice()).collect()
    }

    fn s(x: &str) -> Value {
        Value::Str(Arc::from(x))
    }

    fn encode(rows: &[Vec<Value>]) -> ColumnSet {
        let ts = tuples(rows);
        let width = ts.first().map_or(0, |t| t.len());
        ColumnSet::encode(&ts, width)
    }

    #[test]
    fn view_windows_share_relation_global_typing() {
        let cs = encode(&[
            vec![Value::Int(1), s("a")],
            vec![Value::Null, s("b")],
            vec![Value::Int(3), s("a")],
        ]);
        let v = BatchView::new(&cs, 1, 2);
        assert_eq!(v.len(), 2);
        match v.col(0).data {
            ColData::Int(vals) => assert_eq!(vals, &[0, 3]),
            other => panic!("expected Int window, got {other:?}"),
        }
        assert_eq!(v.col(0).nulls, &[true, false]);
        match v.col(1).data {
            ColData::Str { codes, dict, .. } => {
                assert_eq!(codes, &[1, 0]);
                assert_eq!(dict.len(), 2);
            }
            other => panic!("expected Str window, got {other:?}"),
        }
    }

    #[test]
    fn str_equality_uses_dictionary_hashes() {
        use crate::expr::BoundPredicate as P;
        use crate::expr::BoundScalar as S;
        let pred = P::Cmp {
            op: CmpOp::Eq,
            left: S::Column { scope: 1, index: 0 },
            right: S::Literal(s("GET")),
        };
        let k = BatchPredicate::compile(&pred).unwrap();
        let cs = encode(&[
            vec![s("GET")],
            vec![s("POST")],
            vec![Value::Null],
            vec![s("GET")],
        ]);
        let view = BatchView::new(&cs, 0, cs.len());
        let mut mask = Vec::new();
        assert!(k.eval_mask(&view, None, &mut mask));
        assert_eq!(mask, vec![true, false, false, true]);
    }

    #[test]
    fn cross_column_str_compare_goes_through_dictionaries() {
        use crate::expr::BoundPredicate as P;
        use crate::expr::BoundScalar as S;
        for op in [CmpOp::Eq, CmpOp::Lt] {
            let pred = P::Cmp {
                op,
                left: S::Column { scope: 1, index: 0 },
                right: S::Column { scope: 1, index: 1 },
            };
            let k = BatchPredicate::compile(&pred).unwrap();
            let rows = vec![
                vec![s("a"), s("a")],
                vec![s("a"), s("b")],
                vec![s("b"), s("a")],
                vec![Value::Null, s("a")],
            ];
            let cs = encode(&rows);
            let view = BatchView::new(&cs, 0, cs.len());
            let mut mask = Vec::new();
            assert!(k.eval_mask(&view, None, &mut mask));
            let expect: Vec<bool> = rows
                .iter()
                .map(|r| {
                    let scopes: [&[Value]; 2] = [&[], r];
                    pred.eval(&scopes).unwrap().passes()
                })
                .collect();
            assert_eq!(mask, expect, "op {op:?}");
        }
    }

    /// Deterministic xorshift stream for the kernel sweep.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize].clone()
        }
    }

    /// A value of one of `kinds` (0 Int, 1 Float, 2 Str, 3 Bool), NULL one
    /// time in `null_in`. Floats include whole numbers, so Int/Float
    /// equality is exercised.
    fn gen_value(rng: &mut Rng, kinds: &[u64], null_in: u64) -> Value {
        if rng.below(null_in) == 0 {
            return Value::Null;
        }
        match rng.pick(kinds) {
            0 => Value::Int(rng.below(5) as i64 - 2),
            1 => Value::Float(rng.pick(&[-1.5, 0.0, 1.0, 2.0, 2.5])),
            2 => s(rng.pick(&["", "a", "ab", "b"])),
            _ => Value::Bool(rng.below(2) == 0),
        }
    }

    /// Whether the kernels may refuse `cmp`: one side is a mixed-type
    /// column, or the two sides hold types `Value::sql_cmp` rejects. A
    /// NULL constant compares as Unknown with anything, so it never refuses.
    fn unsupported(cmp: &BatchCmp, view: &BatchView<'_>, base: &[Value]) -> bool {
        enum Side {
            Null,
            Mixed,
            Class(u8),
        }
        let of_value = |v: &Value| match v {
            Value::Null => Side::Null,
            Value::Int(_) | Value::Float(_) => Side::Class(0),
            Value::Str(_) => Side::Class(1),
            Value::Bool(_) => Side::Class(2),
        };
        let side = |o: &BatchOperand| match o {
            BatchOperand::Detail(i) => match view.col(*i).data {
                ColData::Int(_) | ColData::Float(_) => Side::Class(0),
                ColData::Str { .. } => Side::Class(1),
                ColData::Bool(_) => Side::Class(2),
                ColData::Other(_) => Side::Mixed,
            },
            BatchOperand::Base(i) => of_value(&base[*i]),
            BatchOperand::Lit(v) => of_value(v),
        };
        match (side(&cmp.left), side(&cmp.right)) {
            (Side::Null, _) | (_, Side::Null) => false,
            (Side::Class(a), Side::Class(b)) => a != b,
            _ => true,
        }
    }

    /// A seeded sweep of the kernels against row evaluation: every
    /// `CmpOp`, Int / Float / Str / Bool and mixed-type detail columns
    /// with and without NULLs, literal / base / detail operands, and
    /// conjunctions of up to three comparisons, over windows at varying
    /// offsets. Wherever a kernel mask comes back it must equal
    /// `BoundPredicate::eval(..).passes()` row for row (and row evaluation
    /// must not error there); a mask is refused only where a comparison's
    /// operand types are unsupported. Shapes outside comparison
    /// conjunctions never compile.
    #[test]
    fn mask_matches_row_eval() {
        use crate::expr::{ArithOp, BoundPredicate as P, BoundScalar as S};
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        const ANY: [u64; 4] = [0, 1, 2, 3];
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut masked, mut refused) = (0, 0);
        for case in 0..20000 {
            // Three detail columns; kind 4 mixes Int and Float, kind 5 Int
            // and Str (both stored as `Other`).
            let kinds: Vec<u64> = (0..3).map(|_| rng.below(6)).collect();
            let null_in = rng.pick(&[2, 4, u64::MAX]);
            let n_rows = 1 + rng.below(12) as usize;
            let rows: Vec<Vec<Value>> = (0..n_rows)
                .map(|_| {
                    kinds
                        .iter()
                        .map(|&k| match k {
                            4 => gen_value(&mut rng, &[0, 1], null_in),
                            5 => gen_value(&mut rng, &[0, 2], null_in),
                            k => gen_value(&mut rng, &[k], null_in),
                        })
                        .collect()
                })
                .collect();
            let base: Vec<Value> = (0..2).map(|_| gen_value(&mut rng, &ANY, 4)).collect();
            let operand = |rng: &mut Rng| match rng.below(3) {
                0 => S::Literal(gen_value(rng, &ANY, 5)),
                1 => S::Column {
                    scope: 0,
                    index: rng.below(2) as usize,
                },
                _ => S::Column {
                    scope: 1,
                    index: rng.below(3) as usize,
                },
            };
            let mut pred: Option<P> = None;
            let mut reads_base = false;
            for _ in 0..1 + rng.below(3) {
                let (left, right) = (operand(&mut rng), operand(&mut rng));
                reads_base |= [&left, &right]
                    .iter()
                    .any(|o| matches!(o, S::Column { scope: 0, .. }));
                let cmp = P::Cmp {
                    op: rng.pick(&ops),
                    left,
                    right,
                };
                pred = Some(match pred {
                    None => cmp,
                    Some(p) => P::And(Box::new(p), Box::new(cmp)),
                });
            }
            let pred = pred.unwrap();

            // Shapes the kernels do not cover never compile.
            let uncovered = match rng.below(8) {
                0 => Some(P::Or(Box::new(pred.clone()), Box::new(pred.clone()))),
                1 => Some(P::Not(Box::new(pred.clone()))),
                2 => Some(P::And(
                    Box::new(pred.clone()),
                    Box::new(P::IsNull(S::Column { scope: 1, index: 0 })),
                )),
                3 => Some(P::Cmp {
                    op: CmpOp::Eq,
                    left: S::Binary {
                        op: ArithOp::Add,
                        left: Box::new(S::Column { scope: 1, index: 0 }),
                        right: Box::new(S::Literal(Value::Int(1))),
                    },
                    right: S::Literal(Value::Int(0)),
                }),
                _ => None,
            };
            if let Some(u) = uncovered {
                assert!(BatchPredicate::compile(&u).is_none(), "case {case}: {u:?}");
            }

            let k = BatchPredicate::compile(&pred)
                .unwrap_or_else(|| panic!("case {case}: comparison conjunction must compile"));
            assert_eq!(k.detail_only(), !reads_base, "case {case}");
            let cs = encode(&rows);
            let start = rng.below(n_rows as u64) as usize;
            let view = BatchView::new(&cs, start, n_rows - start);
            let mut mask = Vec::new();
            if k.eval_mask(&view, Some(&base), &mut mask) {
                masked += 1;
                for (i, row) in rows[start..].iter().enumerate() {
                    let scopes: [&[Value]; 2] = [&base, row];
                    let truth = pred.eval(&scopes).unwrap_or_else(|e| {
                        panic!("case {case}: kernel masked a row that errors: {e}\n{pred:?}")
                    });
                    assert_eq!(
                        mask[i],
                        truth.passes(),
                        "case {case} row {i}: {pred:?} {row:?}"
                    );
                }
            } else {
                refused += 1;
                assert!(
                    k.cmps.iter().any(|c| unsupported(c, &view, &base)),
                    "case {case}: kernel refused a supported conjunction {pred:?} over {rows:?}"
                );
            }
        }
        // The sweep reaches both outcomes often.
        assert!(
            masked > 5000 && refused > 5000,
            "masked {masked}, refused {refused}"
        );
    }

    #[test]
    fn incomparable_types_are_unsupported() {
        use crate::expr::BoundPredicate as P;
        use crate::expr::BoundScalar as S;
        let pred = P::Cmp {
            op: CmpOp::Eq,
            left: S::Column { scope: 1, index: 0 },
            right: S::Literal(s("nope")),
        };
        let k = BatchPredicate::compile(&pred).unwrap();
        let cs = encode(&[vec![Value::Int(1)]]);
        let view = BatchView::new(&cs, 0, 1);
        let mut mask = Vec::new();
        assert!(!k.eval_mask(&view, None, &mut mask));
    }

    #[test]
    fn null_literal_comparand_is_all_unknown_even_for_mixed_columns() {
        use crate::expr::BoundPredicate as P;
        use crate::expr::BoundScalar as S;
        let pred = P::Cmp {
            op: CmpOp::Eq,
            left: S::Column { scope: 1, index: 0 },
            right: S::Literal(Value::Null),
        };
        let k = BatchPredicate::compile(&pred).unwrap();
        let cs = encode(&[vec![Value::Int(1)], vec![s("x")]]);
        assert!(matches!(cs.col(0).data, ColumnStore::Other(_)));
        let view = BatchView::new(&cs, 0, 2);
        let mut mask = Vec::new();
        assert!(k.eval_mask(&view, None, &mut mask));
        assert_eq!(mask, vec![false, false]);
    }

    #[test]
    fn or_and_is_null_do_not_compile() {
        use crate::expr::BoundPredicate as P;
        use crate::expr::BoundScalar as S;
        let cmp = P::Cmp {
            op: CmpOp::Eq,
            left: S::Column { scope: 1, index: 0 },
            right: S::Literal(Value::Int(1)),
        };
        assert!(
            BatchPredicate::compile(&P::Or(Box::new(cmp.clone()), Box::new(cmp.clone()))).is_none()
        );
        assert!(BatchPredicate::compile(&P::IsNull(S::Column { scope: 1, index: 0 })).is_none());
        assert!(BatchPredicate::compile(&cmp).is_some());
    }
}
