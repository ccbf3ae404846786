//! Scalar expressions and predicates.
//!
//! Expressions come in two stages:
//!
//! 1. **Logical** ([`ScalarExpr`], [`Predicate`]) — attribute references by
//!    (possibly qualified) name. These are what plans and the GMDJ
//!    θ-conditions are written in.
//! 2. **Bound** ([`BoundScalar`], [`BoundPredicate`]) — references resolved
//!    to `(scope, column)` positions against an ordered list of schemas.
//!    Evaluation takes `&[&[Value]]` — one tuple slice per scope — and does
//!    no name lookups, keeping the per-tuple cost of GMDJ/join inner loops
//!    to array indexing and value comparison.
//!
//! Scopes are ordered outermost → innermost; name resolution searches the
//! innermost scope first, matching SQL correlation rules. A GMDJ condition
//! θ over `B` and `R` binds against `[B, R]` and evaluates against
//! `[b_tuple, r_tuple]`.

use std::fmt;

use crate::error::{Error, Result};
use crate::schema::{ColumnRef, Schema};
use crate::value::{Truth, Value};

/// Arithmetic operators. Any NULL operand yields NULL; division by zero
/// yields NULL (SQL implementations differ here; NULL keeps queries total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithOp::Add => write!(f, "+"),
            ArithOp::Sub => write!(f, "-"),
            ArithOp::Mul => write!(f, "*"),
            ArithOp::Div => write!(f, "/"),
        }
    }
}

/// Comparison operators φ ∈ {=, ≠, <, ≤, >, ≥}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The complement φ̄ used when eliminating negations:
    /// `¬(x φ y) ⇒ x φ̄ y` (for non-NULL operands; under 3VL the rewrite is
    /// exact because both sides are unknown when an operand is NULL).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The mirrored operator: `x φ y ≡ y flip(φ) x`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Apply to an optional ordering (None = incomparable due to NULL).
    #[inline]
    pub fn apply(self, ord: Option<std::cmp::Ordering>) -> Truth {
        use std::cmp::Ordering::*;
        match ord {
            None => Truth::Unknown,
            Some(o) => Truth::from_bool(match self {
                CmpOp::Eq => o == Equal,
                CmpOp::Ne => o != Equal,
                CmpOp::Lt => o == Less,
                CmpOp::Le => o != Greater,
                CmpOp::Gt => o == Greater,
                CmpOp::Ge => o != Less,
            }),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpOp::Eq => write!(f, "="),
            CmpOp::Ne => write!(f, "<>"),
            CmpOp::Lt => write!(f, "<"),
            CmpOp::Le => write!(f, "<="),
            CmpOp::Gt => write!(f, ">"),
            CmpOp::Ge => write!(f, ">="),
        }
    }
}

/// A scalar (value-producing) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Attribute reference.
    Column(ColumnRef),
    /// Constant.
    Literal(Value),
    /// Arithmetic.
    Binary {
        op: ArithOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    /// `CASE WHEN p THEN e ... ELSE e END` (ELSE defaults to NULL).
    Case {
        branches: Vec<(Predicate, ScalarExpr)>,
        otherwise: Option<Box<ScalarExpr>>,
    },
}

/// Shorthand: column reference from `"Q.name"` / `"name"` syntax.
pub fn col(name: &str) -> ScalarExpr {
    ScalarExpr::Column(ColumnRef::parse(name))
}

/// Shorthand: literal.
pub fn lit(v: impl Into<Value>) -> ScalarExpr {
    ScalarExpr::Literal(v.into())
}

impl ScalarExpr {
    /// Comparison builder: `x.cmp_with(CmpOp::Lt, y)`.
    pub fn cmp_with(self, op: CmpOp, other: ScalarExpr) -> Predicate {
        Predicate::Cmp {
            op,
            left: self,
            right: other,
        }
    }

    pub fn eq(self, other: ScalarExpr) -> Predicate {
        self.cmp_with(CmpOp::Eq, other)
    }
    pub fn ne(self, other: ScalarExpr) -> Predicate {
        self.cmp_with(CmpOp::Ne, other)
    }
    pub fn lt(self, other: ScalarExpr) -> Predicate {
        self.cmp_with(CmpOp::Lt, other)
    }
    pub fn le(self, other: ScalarExpr) -> Predicate {
        self.cmp_with(CmpOp::Le, other)
    }
    pub fn gt(self, other: ScalarExpr) -> Predicate {
        self.cmp_with(CmpOp::Gt, other)
    }
    pub fn ge(self, other: ScalarExpr) -> Predicate {
        self.cmp_with(CmpOp::Ge, other)
    }

    /// Arithmetic builders. (Named like the operator traits on purpose —
    /// this is a DSL; the traits themselves are not implemented because
    /// the operands are owned AST nodes, not numbers.)
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op: ArithOp::Add,
            left: Box::new(self),
            right: Box::new(other),
        }
    }
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op: ArithOp::Sub,
            left: Box::new(self),
            right: Box::new(other),
        }
    }
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op: ArithOp::Mul,
            left: Box::new(self),
            right: Box::new(other),
        }
    }
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op: ArithOp::Div,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Collect every attribute reference in the expression.
    pub fn collect_columns(&self, out: &mut Vec<ColumnRef>) {
        match self {
            ScalarExpr::Column(c) => out.push(c.clone()),
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            ScalarExpr::Case {
                branches,
                otherwise,
            } => {
                for (p, e) in branches {
                    p.collect_columns(out);
                    e.collect_columns(out);
                }
                if let Some(e) = otherwise {
                    e.collect_columns(out);
                }
            }
        }
    }

    /// Rebuild the expression with every attribute reference transformed.
    /// Used by the non-neighboring push-down rewrite (Theorems 3.3/3.4) to
    /// redirect references to a pushed-down table copy.
    pub fn map_columns(&self, f: &impl Fn(&ColumnRef) -> ColumnRef) -> ScalarExpr {
        match self {
            ScalarExpr::Column(c) => ScalarExpr::Column(f(c)),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
                op: *op,
                left: Box::new(left.map_columns(f)),
                right: Box::new(right.map_columns(f)),
            },
            ScalarExpr::Case {
                branches,
                otherwise,
            } => ScalarExpr::Case {
                branches: branches
                    .iter()
                    .map(|(p, e)| (p.map_columns(f), e.map_columns(f)))
                    .collect(),
                otherwise: otherwise.as_ref().map(|e| Box::new(e.map_columns(f))),
            },
        }
    }

    /// Resolve attribute references against an ordered list of scopes
    /// (outermost first). Innermost scope wins for unqualified names.
    pub fn bind(&self, scopes: &[&Schema]) -> Result<BoundScalar> {
        match self {
            ScalarExpr::Column(c) => {
                let (scope, index) = resolve_in_scopes(c, scopes)?;
                Ok(BoundScalar::Column { scope, index })
            }
            ScalarExpr::Literal(v) => Ok(BoundScalar::Literal(v.clone())),
            ScalarExpr::Binary { op, left, right } => Ok(BoundScalar::Binary {
                op: *op,
                left: Box::new(left.bind(scopes)?),
                right: Box::new(right.bind(scopes)?),
            }),
            ScalarExpr::Case {
                branches,
                otherwise,
            } => Ok(BoundScalar::Case {
                branches: branches
                    .iter()
                    .map(|(p, e)| Ok((p.bind(scopes)?, e.bind(scopes)?)))
                    .collect::<Result<Vec<_>>>()?,
                otherwise: match otherwise {
                    Some(e) => Some(Box::new(e.bind(scopes)?)),
                    None => None,
                },
            }),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(c) => write!(f, "{c}"),
            ScalarExpr::Literal(v) => match v {
                Value::Str(s) => write!(f, "\"{s}\""),
                other => write!(f, "{other}"),
            },
            ScalarExpr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            ScalarExpr::Case {
                branches,
                otherwise,
            } => {
                write!(f, "CASE")?;
                for (p, e) in branches {
                    write!(f, " WHEN {p} THEN {e}")?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
        }
    }
}

/// A predicate (truth-valued expression) under three-valued logic.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Constant truth value. `Predicate::true_()` is the GMDJ seed
    /// condition in Algorithm SubqueryToGMDJ.
    Literal(Truth),
    /// `left φ right`.
    Cmp {
        op: CmpOp,
        left: ScalarExpr,
        right: ScalarExpr,
    },
    /// `IS NULL` (two-valued: never unknown).
    IsNull(ScalarExpr),
    /// `IS NOT NULL`.
    IsNotNull(ScalarExpr),
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
    Not(Box<Predicate>),
}

impl Predicate {
    /// The always-true predicate.
    pub fn true_() -> Predicate {
        Predicate::Literal(Truth::True)
    }

    /// Conjunction builder that elides `true` operands.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::Literal(Truth::True), p) | (p, Predicate::Literal(Truth::True)) => p,
            (a, b) => Predicate::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction builder that elides `false` operands.
    pub fn or(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::Literal(Truth::False), p) | (p, Predicate::Literal(Truth::False)) => p,
            (a, b) => Predicate::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation builder.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Conjoin a list of predicates (`true` when empty).
    pub fn conjoin(preds: impl IntoIterator<Item = Predicate>) -> Predicate {
        preds.into_iter().fold(Predicate::true_(), Predicate::and)
    }

    /// Flatten nested conjunctions into a list of conjuncts.
    pub fn split_conjuncts(&self) -> Vec<&Predicate> {
        let mut out = Vec::new();
        fn walk<'a>(p: &'a Predicate, out: &mut Vec<&'a Predicate>) {
            match p {
                Predicate::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Predicate::Literal(Truth::True) => {}
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Collect every attribute reference.
    pub fn collect_columns(&self, out: &mut Vec<ColumnRef>) {
        match self {
            Predicate::Literal(_) => {}
            Predicate::Cmp { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Predicate::IsNull(e) | Predicate::IsNotNull(e) => e.collect_columns(out),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// All attribute references (owned convenience wrapper).
    pub fn columns(&self) -> Vec<ColumnRef> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    /// Rebuild the predicate with every attribute reference transformed
    /// (see [`ScalarExpr::map_columns`]).
    pub fn map_columns(&self, f: &impl Fn(&ColumnRef) -> ColumnRef) -> Predicate {
        match self {
            Predicate::Literal(t) => Predicate::Literal(*t),
            Predicate::Cmp { op, left, right } => Predicate::Cmp {
                op: *op,
                left: left.map_columns(f),
                right: right.map_columns(f),
            },
            Predicate::IsNull(e) => Predicate::IsNull(e.map_columns(f)),
            Predicate::IsNotNull(e) => Predicate::IsNotNull(e.map_columns(f)),
            Predicate::And(a, b) => {
                Predicate::And(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Predicate::Or(a, b) => {
                Predicate::Or(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Predicate::Not(p) => Predicate::Not(Box::new(p.map_columns(f))),
        }
    }

    /// Resolve against scopes (outermost first; innermost wins).
    pub fn bind(&self, scopes: &[&Schema]) -> Result<BoundPredicate> {
        match self {
            Predicate::Literal(t) => Ok(BoundPredicate::Literal(*t)),
            Predicate::Cmp { op, left, right } => Ok(BoundPredicate::Cmp {
                op: *op,
                left: left.bind(scopes)?,
                right: right.bind(scopes)?,
            }),
            Predicate::IsNull(e) => Ok(BoundPredicate::IsNull(e.bind(scopes)?)),
            Predicate::IsNotNull(e) => Ok(BoundPredicate::IsNotNull(e.bind(scopes)?)),
            Predicate::And(a, b) => Ok(BoundPredicate::And(
                Box::new(a.bind(scopes)?),
                Box::new(b.bind(scopes)?),
            )),
            Predicate::Or(a, b) => Ok(BoundPredicate::Or(
                Box::new(a.bind(scopes)?),
                Box::new(b.bind(scopes)?),
            )),
            Predicate::Not(p) => Ok(BoundPredicate::Not(Box::new(p.bind(scopes)?))),
        }
    }

    /// Bind against a single schema and evaluate a single tuple —
    /// convenience for tests.
    pub fn eval_row(&self, schema: &Schema, row: &[Value]) -> Result<Truth> {
        self.bind(&[schema])?.eval(&[row])
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Literal(t) => write!(f, "{t}"),
            Predicate::Cmp { op, left, right } => write!(f, "{left} {op} {right}"),
            Predicate::IsNull(e) => write!(f, "{e} IS NULL"),
            Predicate::IsNotNull(e) => write!(f, "{e} IS NOT NULL"),
            Predicate::And(a, b) => write!(f, "({a} ∧ {b})"),
            Predicate::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Predicate::Not(p) => write!(f, "¬({p})"),
        }
    }
}

fn resolve_in_scopes(c: &ColumnRef, scopes: &[&Schema]) -> Result<(usize, usize)> {
    // Innermost scope wins: search from the end.
    for (scope_idx, schema) in scopes.iter().enumerate().rev() {
        match c.resolve_in(schema) {
            Ok(index) => return Ok((scope_idx, index)),
            Err(Error::AmbiguousColumn { .. }) if c.qualifier.is_none() => {
                // Ambiguity within the innermost scope that knows the name
                // is a real error.
                return c.resolve_in(schema).map(|i| (scope_idx, i));
            }
            Err(_) => continue,
        }
    }
    Err(Error::UnknownColumn {
        name: c.to_string(),
        in_scope: scopes.iter().flat_map(|s| s.qualified_names()).collect(),
    })
}

/// A scalar expression with attribute references resolved to
/// `(scope, column)` positions.
#[derive(Debug, Clone)]
pub enum BoundScalar {
    Column {
        scope: usize,
        index: usize,
    },
    Literal(Value),
    Binary {
        op: ArithOp,
        left: Box<BoundScalar>,
        right: Box<BoundScalar>,
    },
    Case {
        branches: Vec<(BoundPredicate, BoundScalar)>,
        otherwise: Option<Box<BoundScalar>>,
    },
}

impl BoundScalar {
    /// Evaluate against one tuple slice per scope.
    pub fn eval(&self, rows: &[&[Value]]) -> Result<Value> {
        match self {
            BoundScalar::Column { scope, index } => Ok(rows[*scope][*index].clone()),
            BoundScalar::Literal(v) => Ok(v.clone()),
            BoundScalar::Binary { op, left, right } => {
                let l = left.eval(rows)?;
                let r = right.eval(rows)?;
                arith(*op, &l, &r)
            }
            BoundScalar::Case {
                branches,
                otherwise,
            } => {
                for (p, e) in branches {
                    if p.eval(rows)?.passes() {
                        return e.eval(rows);
                    }
                }
                match otherwise {
                    Some(e) => e.eval(rows),
                    None => Ok(Value::Null),
                }
            }
        }
    }
}

fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic stays integral; anything involving a float widens.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    // SQL integer division truncates; we promote to float to
                    // keep ratios like sum1/sum2 (Example 2.1) exact.
                    Value::Float(*a as f64 / *b as f64)
                }
            }
        });
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok(match op {
            ArithOp::Add => Value::Float(a + b),
            ArithOp::Sub => Value::Float(a - b),
            ArithOp::Mul => Value::Float(a * b),
            ArithOp::Div => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Float(a / b)
                }
            }
        }),
        _ => Err(Error::TypeMismatch {
            context: format!("arithmetic {op}"),
            left: l.to_string(),
            right: r.to_string(),
        }),
    }
}

/// A predicate with attribute references resolved to positions.
#[derive(Debug, Clone)]
pub enum BoundPredicate {
    Literal(Truth),
    Cmp {
        op: CmpOp,
        left: BoundScalar,
        right: BoundScalar,
    },
    IsNull(BoundScalar),
    IsNotNull(BoundScalar),
    And(Box<BoundPredicate>, Box<BoundPredicate>),
    Or(Box<BoundPredicate>, Box<BoundPredicate>),
    Not(Box<BoundPredicate>),
}

impl BoundPredicate {
    /// Evaluate under 3VL against one tuple slice per scope.
    pub fn eval(&self, rows: &[&[Value]]) -> Result<Truth> {
        match self {
            BoundPredicate::Literal(t) => Ok(*t),
            BoundPredicate::Cmp { op, left, right } => {
                let l = left.eval(rows)?;
                let r = right.eval(rows)?;
                Ok(op.apply(l.sql_cmp(&r)?))
            }
            BoundPredicate::IsNull(e) => Ok(Truth::from_bool(e.eval(rows)?.is_null())),
            BoundPredicate::IsNotNull(e) => Ok(Truth::from_bool(!e.eval(rows)?.is_null())),
            BoundPredicate::And(a, b) => {
                // Short-circuit on False only: False ∧ x = False for all x.
                let l = a.eval(rows)?;
                if l == Truth::False {
                    return Ok(Truth::False);
                }
                Ok(l.and(b.eval(rows)?))
            }
            BoundPredicate::Or(a, b) => {
                let l = a.eval(rows)?;
                if l == Truth::True {
                    return Ok(Truth::True);
                }
                Ok(l.or(b.eval(rows)?))
            }
            BoundPredicate::Not(p) => Ok(p.eval(rows)?.not()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn schema() -> std::sync::Arc<Schema> {
        Schema::qualified("T", &[("a", DataType::Int), ("b", DataType::Int)])
    }

    #[test]
    fn comparison_over_null_is_unknown() {
        let s = schema();
        let p = col("T.a").eq(lit(1));
        assert_eq!(
            p.eval_row(&s, &[Value::Null, Value::Int(0)]).unwrap(),
            Truth::Unknown
        );
        assert_eq!(
            p.eval_row(&s, &[Value::Int(1), Value::Int(0)]).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn is_null_is_two_valued() {
        let s = schema();
        let p = Predicate::IsNull(col("a"));
        assert_eq!(
            p.eval_row(&s, &[Value::Null, Value::Int(0)]).unwrap(),
            Truth::True
        );
        assert_eq!(
            p.eval_row(&s, &[Value::Int(5), Value::Int(0)]).unwrap(),
            Truth::False
        );
    }

    #[test]
    fn arithmetic_null_propagation_and_div_zero() {
        let s = schema();
        let e = col("a").div(col("b"));
        let b = e.bind(&[&s]).unwrap();
        assert!(b.eval(&[&[Value::Int(6), Value::Int(3)]]).unwrap() == Value::Float(2.0));
        assert!(b
            .eval(&[&[Value::Int(6), Value::Int(0)]])
            .unwrap()
            .is_null());
        assert!(b.eval(&[&[Value::Null, Value::Int(3)]]).unwrap().is_null());
    }

    #[test]
    fn multi_scope_binding_prefers_innermost() {
        let outer = Schema::qualified("O", &[("x", DataType::Int)]);
        let inner = Schema::qualified("I", &[("x", DataType::Int)]);
        // Unqualified `x` resolves to the inner scope.
        let p = col("x").eq(lit(1));
        let bp = p.bind(&[&outer, &inner]).unwrap();
        let o = [Value::Int(0)];
        let i = [Value::Int(1)];
        assert_eq!(bp.eval(&[&o, &i]).unwrap(), Truth::True);
        // Qualified `O.x` reaches the outer scope.
        let p = col("O.x").eq(lit(1));
        let bp = p.bind(&[&outer, &inner]).unwrap();
        assert_eq!(bp.eval(&[&o, &i]).unwrap(), Truth::False);
    }

    #[test]
    fn unknown_column_lists_scope() {
        let s = schema();
        let err = col("T.zzz").eq(lit(1)).bind(&[&s]).unwrap_err();
        match err {
            Error::UnknownColumn { in_scope, .. } => {
                assert!(in_scope.contains(&"T.a".to_string()));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn conjunct_splitting_flattens() {
        let p = col("a")
            .eq(lit(1))
            .and(col("b").gt(lit(2)).and(col("a").ne(col("b"))));
        assert_eq!(p.split_conjuncts().len(), 3);
        assert_eq!(Predicate::true_().split_conjuncts().len(), 0);
    }

    #[test]
    fn negate_and_flip() {
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn case_expression_defaults_to_null() {
        let s = schema();
        let e = ScalarExpr::Case {
            branches: vec![(col("a").gt(lit(0)), lit(1))],
            otherwise: None,
        };
        let b = e.bind(&[&s]).unwrap();
        assert_eq!(
            b.eval(&[&[Value::Int(5), Value::Int(0)]]).unwrap(),
            Value::Int(1)
        );
        assert!(b
            .eval(&[&[Value::Int(-5), Value::Int(0)]])
            .unwrap()
            .is_null());
        // Unknown predicate does not take the branch.
        assert!(b.eval(&[&[Value::Null, Value::Int(0)]]).unwrap().is_null());
    }

    #[test]
    fn and_short_circuits_false_before_type_errors() {
        let s = schema();
        // a = "x" would be a type error on ints, but the left conjunct is
        // false so evaluation never reaches it.
        let p = Predicate::Literal(Truth::False).and(col("a").eq(lit("x")));
        assert_eq!(
            p.eval_row(&s, &[Value::Int(1), Value::Int(2)]).unwrap(),
            Truth::False
        );
    }

    #[test]
    fn display_is_readable() {
        let p = col("F.a").ge(lit(10)).and(col("F.b").eq(lit("HTTP")));
        assert_eq!(p.to_string(), "(F.a >= 10 ∧ F.b = \"HTTP\")");
    }
}
