//! SQL aggregate functions with incremental accumulators.
//!
//! The GMDJ evaluator updates one [`Accumulator`] per (base tuple,
//! aggregate) pair on every matching detail tuple, so accumulators are the
//! innermost state machine of the whole engine. SQL semantics implemented:
//!
//! * `COUNT(*)` counts tuples, `COUNT(e)` counts non-NULL values.
//! * `SUM`/`MIN`/`MAX`/`AVG` skip NULLs and return NULL over the empty
//!   multiset — the footnote-2 subtlety the paper uses to show that
//!   `x >all S` is **not** equivalent to `x > max(S)`.

use std::fmt;

use crate::error::Result;
use crate::expr::{BoundScalar, ScalarExpr};
use crate::schema::{DataType, Field, Schema};
use crate::value::Value;

/// The aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — counts tuples regardless of NULLs.
    CountStar,
    /// `COUNT(e)` — counts non-NULL values of `e`.
    Count,
    /// `COUNT(DISTINCT e)` — counts distinct non-NULL values (grouping
    /// equality: NULLs excluded, Int 1 ≡ Float 1.0).
    CountDistinct,
    Sum,
    Min,
    Max,
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::CountStar => write!(f, "count(*)"),
            AggFunc::Count => write!(f, "count"),
            AggFunc::CountDistinct => write!(f, "count(distinct)"),
            AggFunc::Sum => write!(f, "sum"),
            AggFunc::Min => write!(f, "min"),
            AggFunc::Max => write!(f, "max"),
            AggFunc::Avg => write!(f, "avg"),
        }
    }
}

/// An aggregate call with an output name: the paper's
/// `sum(F.NumBytes) → sum1` notation.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedAgg {
    pub func: AggFunc,
    /// Input expression. Ignored for `COUNT(*)`.
    pub input: Option<ScalarExpr>,
    /// Output attribute name.
    pub output: String,
}

impl NamedAgg {
    /// `count(*) → output`.
    pub fn count_star(output: impl Into<String>) -> Self {
        NamedAgg {
            func: AggFunc::CountStar,
            input: None,
            output: output.into(),
        }
    }

    /// `func(input) → output`.
    pub fn new(func: AggFunc, input: ScalarExpr, output: impl Into<String>) -> Self {
        NamedAgg {
            func,
            input: Some(input),
            output: output.into(),
        }
    }

    /// `sum(input) → output`.
    pub fn sum(input: ScalarExpr, output: impl Into<String>) -> Self {
        NamedAgg::new(AggFunc::Sum, input, output)
    }

    /// The output field (unqualified; computed column).
    pub fn output_field(&self) -> Field {
        // Advisory type: Int covers counts; numeric aggregates over ints
        // remain ints. The runtime is dynamically typed, so this is only
        // for diagnostics.
        Field::unqualified(self.output.clone(), DataType::Int)
    }

    /// Bind the input expression against scopes.
    pub fn bind(&self, scopes: &[&Schema]) -> Result<BoundAgg> {
        Ok(BoundAgg {
            func: self.func,
            input: match &self.input {
                Some(e) => Some(e.bind(scopes)?),
                None => None,
            },
        })
    }
}

impl fmt::Display for NamedAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.input {
            Some(e) => write!(f, "{}({e}) → {}", self.func, self.output),
            None => write!(f, "{} → {}", self.func, self.output),
        }
    }
}

/// A bound aggregate call, ready to spawn accumulators.
#[derive(Debug, Clone)]
pub struct BoundAgg {
    pub func: AggFunc,
    pub input: Option<BoundScalar>,
}

impl BoundAgg {
    /// Fresh accumulator in the initial (empty multiset) state.
    pub fn accumulator(&self) -> Accumulator {
        Accumulator::new(self.func)
    }

    /// Evaluate the input expression and fold it into `acc`.
    pub fn update(&self, acc: &mut Accumulator, rows: &[&[Value]]) -> Result<()> {
        match &self.input {
            None => {
                acc.update(&Value::Int(1)); // COUNT(*): any non-null marker
                Ok(())
            }
            Some(e) => {
                let v = e.eval(rows)?;
                acc.update(&v);
                Ok(())
            }
        }
    }
}

/// Incremental aggregate state. `PartialEq` compares the exact state
/// (set contents for COUNT DISTINCT, bit-wise floats for SUM/AVG), which
/// is what the wire-protocol round-trip tests assert.
#[derive(Debug, Clone, PartialEq)]
pub enum Accumulator {
    CountStar {
        n: i64,
    },
    Count {
        n: i64,
    },
    CountDistinct {
        seen: crate::fxhash::FxHashSet<Value>,
    },
    Sum {
        sum_i: i64,
        sum_f: f64,
        any_float: bool,
        seen: bool,
    },
    Min {
        current: Option<Value>,
    },
    Max {
        current: Option<Value>,
    },
    Avg {
        sum: f64,
        n: i64,
    },
}

impl Accumulator {
    /// Initial state for a function.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::CountStar => Accumulator::CountStar { n: 0 },
            AggFunc::Count => Accumulator::Count { n: 0 },
            AggFunc::CountDistinct => Accumulator::CountDistinct {
                seen: crate::fxhash::FxHashSet::default(),
            },
            AggFunc::Sum => Accumulator::Sum {
                sum_i: 0,
                sum_f: 0.0,
                any_float: false,
                seen: false,
            },
            AggFunc::Min => Accumulator::Min { current: None },
            AggFunc::Max => Accumulator::Max { current: None },
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
        }
    }

    /// Fold one value. NULLs are skipped by every function except
    /// `COUNT(*)` (whose caller feeds a non-null marker per tuple).
    #[inline]
    pub fn update(&mut self, v: &Value) {
        match self {
            Accumulator::CountStar { n } => *n += 1,
            Accumulator::Count { n } => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            Accumulator::CountDistinct { seen } => {
                if !v.is_null() {
                    seen.insert(v.clone());
                }
            }
            Accumulator::Sum {
                sum_i,
                sum_f,
                any_float,
                seen,
            } => match v {
                Value::Int(i) => {
                    *sum_i = sum_i.wrapping_add(*i);
                    *seen = true;
                }
                Value::Float(f) => {
                    *sum_f += f;
                    *any_float = true;
                    *seen = true;
                }
                _ => {}
            },
            Accumulator::Min { current } => {
                if !v.is_null() {
                    let replace = match current {
                        None => true,
                        Some(c) => v.total_cmp(c) == std::cmp::Ordering::Less,
                    };
                    if replace {
                        *current = Some(v.clone());
                    }
                }
            }
            Accumulator::Max { current } => {
                if !v.is_null() {
                    let replace = match current {
                        None => true,
                        Some(c) => v.total_cmp(c) == std::cmp::Ordering::Greater,
                    };
                    if replace {
                        *current = Some(v.clone());
                    }
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(f) = v.as_f64() {
                    *sum += f;
                    *n += 1;
                }
            }
        }
    }

    /// Fold one non-NULL integer, exactly as `update(&Value::Int(v))`
    /// would, without building the `Value` for the arithmetic functions.
    #[inline]
    pub fn update_int(&mut self, v: i64) {
        match self {
            Accumulator::CountStar { n } | Accumulator::Count { n } => *n += 1,
            Accumulator::Sum { sum_i, seen, .. } => {
                *sum_i = sum_i.wrapping_add(v);
                *seen = true;
            }
            Accumulator::Avg { sum, n } => {
                *sum += v as f64;
                *n += 1;
            }
            _ => self.update(&Value::Int(v)),
        }
    }

    /// Fold one non-NULL float, exactly as `update(&Value::Float(v))`
    /// would: the algebraic (sum, count) state of AVG folds the `f64`
    /// directly.
    #[inline]
    pub fn update_float(&mut self, v: f64) {
        match self {
            Accumulator::CountStar { n } | Accumulator::Count { n } => *n += 1,
            Accumulator::Sum {
                sum_f,
                any_float,
                seen,
                ..
            } => {
                *sum_f += v;
                *any_float = true;
                *seen = true;
            }
            Accumulator::Avg { sum, n } => {
                *sum += v;
                *n += 1;
            }
            _ => self.update(&Value::Float(v)),
        }
    }

    /// Add `k` tuples that were counted elsewhere (a ranked GMDJ block's
    /// difference arrays) to a `COUNT(*)` or `COUNT(e)` accumulator.
    ///
    /// # Panics
    /// On any other aggregate function, which has no count to add to.
    #[inline]
    pub fn add_count(&mut self, k: i64) {
        match self {
            Accumulator::CountStar { n } | Accumulator::Count { n } => *n += k,
            other => panic!("add_count on a non-COUNT accumulator {other:?}"),
        }
    }

    /// Batched `COUNT(*)` update: fold `k` tuples at once. Exact for
    /// `CountStar` (the marker value never matters); any other function
    /// falls back to `k` marker updates, reproducing the row path.
    #[inline]
    pub fn add_count_star(&mut self, k: i64) {
        if let Accumulator::CountStar { n } = self {
            *n += k;
        } else {
            for _ in 0..k {
                self.update(&Value::Int(1));
            }
        }
    }

    /// Batched update from a typed integer column. `vals` must hold the
    /// **non-NULL** input values of the selected rows in detail-row order
    /// (NULL inputs are no-ops for every function that takes an input, so
    /// dropping them is exact). Bulk shortcuts are taken only where the
    /// result is bit-identical to folding row by row: counts add the
    /// length, integer SUM wraps per element, MIN/MAX fold a batch-local
    /// extremum and then apply one ordinary update (strict-inequality
    /// replacement keeps tie behavior identical).
    pub fn update_ints(&mut self, vals: &[i64]) {
        match self {
            Accumulator::CountStar { n } | Accumulator::Count { n } => *n += vals.len() as i64,
            Accumulator::CountDistinct { seen } => {
                for &v in vals {
                    seen.insert(Value::Int(v));
                }
            }
            Accumulator::Sum { sum_i, seen, .. } => {
                if !vals.is_empty() {
                    *seen = true;
                }
                for &v in vals {
                    *sum_i = sum_i.wrapping_add(v);
                }
            }
            Accumulator::Min { .. } => {
                if let Some(&m) = vals.iter().min() {
                    self.update(&Value::Int(m));
                }
            }
            Accumulator::Max { .. } => {
                if let Some(&m) = vals.iter().max() {
                    self.update(&Value::Int(m));
                }
            }
            Accumulator::Avg { sum, n } => {
                for &v in vals {
                    *sum += v as f64;
                }
                *n += vals.len() as i64;
            }
        }
    }

    /// Batched update from a typed float column; same contract as
    /// [`update_ints`](Self::update_ints). Float SUM/AVG still add element
    /// by element in row order — floating-point addition is
    /// order-sensitive and the row path's rounding must be reproduced
    /// exactly. MIN/MAX fold under `f64::total_cmp`, matching
    /// `Value::total_cmp`.
    pub fn update_floats(&mut self, vals: &[f64]) {
        match self {
            Accumulator::CountStar { n } | Accumulator::Count { n } => *n += vals.len() as i64,
            Accumulator::CountDistinct { seen } => {
                for &v in vals {
                    seen.insert(Value::Float(v));
                }
            }
            Accumulator::Sum {
                sum_f,
                any_float,
                seen,
                ..
            } => {
                if !vals.is_empty() {
                    *any_float = true;
                    *seen = true;
                }
                for &v in vals {
                    *sum_f += v;
                }
            }
            Accumulator::Min { .. } => {
                if let Some(m) =
                    vals.iter()
                        .copied()
                        .reduce(|a, b| if b.total_cmp(&a).is_lt() { b } else { a })
                {
                    self.update(&Value::Float(m));
                }
            }
            Accumulator::Max { .. } => {
                if let Some(m) =
                    vals.iter()
                        .copied()
                        .reduce(|a, b| if b.total_cmp(&a).is_gt() { b } else { a })
                {
                    self.update(&Value::Float(m));
                }
            }
            Accumulator::Avg { sum, n } => {
                for &v in vals {
                    *sum += v;
                }
                *n += vals.len() as i64;
            }
        }
    }

    /// Fold another accumulator of the same function into this one —
    /// the combine step of partitioned/parallel aggregation. Partial
    /// aggregates over disjoint multisets merge exactly for every
    /// supported function (COUNT/SUM/MIN/MAX are trivially decomposable;
    /// AVG carries (sum, n)).
    ///
    /// # Panics
    ///
    /// Panics if the accumulators belong to different functions — a plan
    /// construction bug, not a data condition.
    pub fn merge(&mut self, other: &Accumulator) {
        match (self, other) {
            (Accumulator::CountStar { n }, Accumulator::CountStar { n: m }) => *n += m,
            (Accumulator::Count { n }, Accumulator::Count { n: m }) => *n += m,
            (Accumulator::CountDistinct { seen }, Accumulator::CountDistinct { seen: other }) => {
                seen.extend(other.iter().cloned())
            }
            (
                Accumulator::Sum {
                    sum_i,
                    sum_f,
                    any_float,
                    seen,
                },
                Accumulator::Sum {
                    sum_i: si,
                    sum_f: sf,
                    any_float: af,
                    seen: sn,
                },
            ) => {
                *sum_i = sum_i.wrapping_add(*si);
                *sum_f += sf;
                *any_float |= af;
                *seen |= sn;
            }
            (Accumulator::Min { current }, Accumulator::Min { current: other }) => {
                if let Some(v) = other {
                    let replace = match current {
                        None => true,
                        Some(c) => v.total_cmp(c) == std::cmp::Ordering::Less,
                    };
                    if replace {
                        *current = Some(v.clone());
                    }
                }
            }
            (Accumulator::Max { current }, Accumulator::Max { current: other }) => {
                if let Some(v) = other {
                    let replace = match current {
                        None => true,
                        Some(c) => v.total_cmp(c) == std::cmp::Ordering::Greater,
                    };
                    if replace {
                        *current = Some(v.clone());
                    }
                }
            }
            (Accumulator::Avg { sum, n }, Accumulator::Avg { sum: s, n: m }) => {
                *sum += s;
                *n += m;
            }
            (a, b) => panic!("cannot merge accumulators of different functions: {a:?} vs {b:?}"),
        }
    }

    /// Final value. NULL over the empty multiset for everything but COUNT.
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::CountStar { n } | Accumulator::Count { n } => Value::Int(*n),
            Accumulator::CountDistinct { seen } => Value::Int(seen.len() as i64),
            Accumulator::Sum {
                sum_i,
                sum_f,
                any_float,
                seen,
            } => {
                if !*seen {
                    Value::Null
                } else if *any_float {
                    Value::Float(*sum_f + *sum_i as f64)
                } else {
                    Value::Int(*sum_i)
                }
            }
            Accumulator::Min { current } | Accumulator::Max { current } => {
                current.clone().unwrap_or(Value::Null)
            }
            Accumulator::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *n as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, values: &[Value]) -> Value {
        let mut acc = Accumulator::new(func);
        for v in values {
            acc.update(v);
        }
        acc.finish()
    }

    #[test]
    fn count_star_counts_everything_via_marker() {
        // The caller feeds a marker per tuple; NULL inputs never reach
        // CountStar in practice, but the state machine itself counts all.
        assert_eq!(
            run(AggFunc::CountStar, &[Value::Int(1), Value::Int(1)]),
            Value::Int(2)
        );
    }

    #[test]
    fn count_distinct_counts_distinct_non_nulls() {
        assert_eq!(
            run(
                AggFunc::CountDistinct,
                &[
                    Value::Int(1),
                    Value::Int(1),
                    Value::Null,
                    Value::Int(2),
                    Value::Float(1.0)
                ]
            ),
            Value::Int(2),
            "1 ≡ 1.0 under grouping equality; NULL excluded"
        );
        assert_eq!(run(AggFunc::CountDistinct, &[]), Value::Int(0));
    }

    #[test]
    fn count_skips_nulls() {
        assert_eq!(
            run(AggFunc::Count, &[Value::Int(1), Value::Null, Value::Int(3)]),
            Value::Int(2)
        );
    }

    #[test]
    fn empty_aggregates_are_null_except_count() {
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::CountStar, &[]), Value::Int(0));
        assert!(run(AggFunc::Sum, &[]).is_null());
        assert!(run(AggFunc::Min, &[]).is_null());
        assert!(run(AggFunc::Max, &[]).is_null());
        assert!(run(AggFunc::Avg, &[]).is_null());
    }

    #[test]
    fn sum_stays_integral_until_float_appears() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(2), Value::Int(3)]),
            Value::Int(5)
        );
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(2), Value::Float(0.5)]),
            Value::Float(2.5)
        );
    }

    #[test]
    fn min_max_skip_nulls() {
        assert_eq!(
            run(AggFunc::Min, &[Value::Null, Value::Int(3), Value::Int(-1)]),
            Value::Int(-1)
        );
        assert_eq!(
            run(AggFunc::Max, &[Value::Int(3), Value::Null, Value::Int(7)]),
            Value::Int(7)
        );
    }

    #[test]
    fn avg_is_float() {
        assert_eq!(
            run(AggFunc::Avg, &[Value::Int(1), Value::Int(2)]),
            Value::Float(1.5)
        );
    }

    #[test]
    fn max_of_nothing_is_null_footnote_2() {
        // The paper's footnote 2: `B.x > max(R.y)` over an empty correlated
        // range yields unknown (NULL), while `B.x >all R.y` is true. The
        // NULL here is the half of that argument owned by this crate.
        assert!(run(AggFunc::Max, &[]).is_null());
    }

    #[test]
    fn merge_equals_sequential_for_every_function() {
        use AggFunc::*;
        let values: Vec<Value> = vec![
            Value::Int(3),
            Value::Null,
            Value::Int(-1),
            Value::Float(2.5),
            Value::Int(7),
        ];
        for f in [CountStar, Count, CountDistinct, Sum, Min, Max, Avg] {
            for split in 0..=values.len() {
                let mut left = Accumulator::new(f);
                let mut right = Accumulator::new(f);
                for v in &values[..split] {
                    left.update(v);
                }
                for v in &values[split..] {
                    right.update(v);
                }
                left.merge(&right);
                let mut sequential = Accumulator::new(f);
                for v in &values {
                    sequential.update(v);
                }
                assert_eq!(left.finish(), sequential.finish(), "{f} split at {split}");
            }
        }
    }

    #[test]
    fn batched_updates_equal_sequential_for_every_function() {
        use AggFunc::*;
        let ints = [3i64, -1, 3, 7, 0];
        let floats = [2.5f64, -0.0, 0.0, 2.5, 9.25];
        for f in [CountStar, Count, CountDistinct, Sum, Min, Max, Avg] {
            let mut batched = Accumulator::new(f);
            batched.update_ints(&ints);
            let mut rowwise = Accumulator::new(f);
            for &v in &ints {
                rowwise.update(&Value::Int(v));
            }
            assert_eq!(batched.finish(), rowwise.finish(), "{f} over ints");

            let mut batched = Accumulator::new(f);
            batched.update_floats(&floats);
            let mut rowwise = Accumulator::new(f);
            for &v in &floats {
                rowwise.update(&Value::Float(v));
            }
            assert_eq!(batched.finish(), rowwise.finish(), "{f} over floats");

            let mut batched = Accumulator::new(f);
            batched.update_ints(&[]);
            batched.update_floats(&[]);
            assert_eq!(
                batched.finish(),
                Accumulator::new(f).finish(),
                "{f} empty batches must not flip seen-ness"
            );
        }
        let mut star = Accumulator::new(CountStar);
        star.add_count_star(4);
        assert_eq!(star.finish(), Value::Int(4));
    }

    #[test]
    fn single_typed_updates_equal_value_updates_for_every_function() {
        use AggFunc::*;
        let ints = [3i64, -1, 3, i64::MAX, 0];
        let floats = [0.1f64, -0.0, 0.0, 1e16, -1e16, 2.5];
        for f in [CountStar, Count, CountDistinct, Sum, Min, Max, Avg] {
            let (mut typed, mut boxed) = (Accumulator::new(f), Accumulator::new(f));
            for &v in &ints {
                typed.update_int(v);
                boxed.update(&Value::Int(v));
            }
            for &v in &floats {
                typed.update_float(v);
                boxed.update(&Value::Float(v));
            }
            // `PartialEq` compares the state bit-wise, floats included.
            assert_eq!(typed, boxed, "{f}");
        }
    }

    #[test]
    #[should_panic(expected = "different functions")]
    fn merge_rejects_mismatched_functions() {
        let mut a = Accumulator::new(AggFunc::Sum);
        a.merge(&Accumulator::new(AggFunc::Min));
    }

    #[test]
    fn string_min_max() {
        assert_eq!(
            run(AggFunc::Min, &[Value::str("b"), Value::str("a")]),
            Value::str("a")
        );
    }
}
