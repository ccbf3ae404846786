//! Native columnar storage: typed column vectors with validity bitmaps.
//!
//! Since the morsel-execution refactor the columnar form *is* the relation:
//! [`crate::Relation`] stores an Arc-shared [`ColumnSet`] and materializes
//! boxed-tuple rows only on demand (the late-materialization view used by
//! the row-path oracle, completion plans, and CSV ingest). Kernels in
//! [`crate::batch`] borrow column slices straight out of this module
//! instead of decoding per query.
//!
//! Column typing follows the same rules the old per-query decode used:
//! a column is typed iff every non-NULL value shares one runtime kind
//! (deliberately *no* Int→Float promotion — mixed numerics would change
//! which comparison kernel runs per element), otherwise it degrades to an
//! [`ColumnStore::Other`] value vector that the row-semantics fallback
//! handles. String columns are dictionary encoded: rows store `u32` codes
//! into a per-column dictionary of interned strings with precomputed Fx
//! hashes, so equality probes compare one cached hash and the typed string
//! index is probed without rehashing bytes.

use std::sync::Arc;

use crate::fxhash::{hash_str, FxHashMap};
use crate::relation::Tuple;
use crate::value::Value;

/// Rows per column chunk — the paging and batching granule. One chunk of
/// one column is one page of the closed-form page accounting and one
/// kernel batch window, so the paper's page-count arithmetic and the
/// vectorization window coincide.
pub const COLUMN_CHUNK_ROWS: usize = 1024;

/// Typed backing store of one column.
#[derive(Debug, Clone)]
pub enum ColumnStore {
    /// All non-NULL values are `Value::Int`.
    Int(Vec<i64>),
    /// All non-NULL values are `Value::Float`.
    Float(Vec<f64>),
    /// All non-NULL values are `Value::Str`, dictionary encoded. `codes`
    /// has one entry per row (NULL rows store code 0 and are masked by the
    /// validity bitmap); `dict` and `dict_hashes` are indexed by code.
    Str {
        codes: Vec<u32>,
        dict: Vec<Arc<str>>,
        dict_hashes: Vec<u64>,
    },
    /// All non-NULL values are `Value::Bool`.
    Bool(Vec<bool>),
    /// Mixed runtime kinds: the original values, row semantics only.
    Other(Vec<Value>),
}

/// One stored column: typed data plus a validity bitmap.
///
/// `nulls[i]` is true where row `i` is SQL NULL; the typed vectors hold an
/// arbitrary placeholder at those slots (zero / code 0), so every consumer
/// must check validity before touching data. `has_nulls` lets kernels skip
/// the bitmap entirely on fully-valid columns.
#[derive(Debug, Clone)]
pub struct StoredColumn {
    pub data: ColumnStore,
    pub nulls: Vec<bool>,
    pub has_nulls: bool,
}

impl StoredColumn {
    fn encode(rows: &[Tuple], col: usize) -> StoredColumn {
        let nulls: Vec<bool> = rows.iter().map(|r| r[col].is_null()).collect();
        let has_nulls = nulls.iter().any(|&n| n);

        // A column is typed iff all non-NULL values share one kind.
        #[derive(PartialEq, Clone, Copy)]
        enum Kind {
            Int,
            Float,
            Str,
            Bool,
        }
        let mut kind: Option<Kind> = None;
        let mut uniform = true;
        for row in rows {
            let k = match &row[col] {
                Value::Null => continue,
                Value::Int(_) => Kind::Int,
                Value::Float(_) => Kind::Float,
                Value::Str(_) => Kind::Str,
                Value::Bool(_) => Kind::Bool,
            };
            match kind {
                None => kind = Some(k),
                Some(prev) if prev == k => {}
                Some(_) => {
                    uniform = false;
                    break;
                }
            }
        }
        if !uniform {
            return StoredColumn {
                data: ColumnStore::Other(rows.iter().map(|r| r[col].clone()).collect()),
                nulls,
                has_nulls,
            };
        }
        let data = match kind {
            // All-NULL: an Int placeholder fully masked by the bitmap.
            None => ColumnStore::Int(vec![0; rows.len()]),
            Some(Kind::Int) => {
                ColumnStore::Int(rows.iter().map(|r| r[col].as_i64().unwrap_or(0)).collect())
            }
            Some(Kind::Float) => ColumnStore::Float(
                rows.iter()
                    .map(|r| match &r[col] {
                        Value::Float(f) => *f,
                        _ => 0.0,
                    })
                    .collect(),
            ),
            Some(Kind::Bool) => ColumnStore::Bool(
                rows.iter()
                    .map(|r| matches!(&r[col], Value::Bool(true)))
                    .collect(),
            ),
            Some(Kind::Str) => {
                let mut lookup: FxHashMap<Arc<str>, u32> = FxHashMap::default();
                let mut dict: Vec<Arc<str>> = Vec::new();
                let mut dict_hashes: Vec<u64> = Vec::new();
                let mut codes: Vec<u32> = Vec::with_capacity(rows.len());
                for row in rows {
                    match &row[col] {
                        Value::Str(s) => {
                            let code = match lookup.get(s.as_ref()) {
                                Some(&c) => c,
                                None => {
                                    let c = dict.len() as u32;
                                    dict.push(Arc::clone(s));
                                    dict_hashes.push(hash_str(s));
                                    lookup.insert(Arc::clone(s), c);
                                    c
                                }
                            };
                            codes.push(code);
                        }
                        _ => codes.push(0),
                    }
                }
                ColumnStore::Str {
                    codes,
                    dict,
                    dict_hashes,
                }
            }
        };
        StoredColumn {
            data,
            nulls,
            has_nulls,
        }
    }

    /// Reconstruct the row value at `row` (NULL where masked).
    pub fn value_at(&self, row: usize) -> Value {
        if self.nulls[row] {
            // `Other` stores the literal Null, everything else a placeholder.
            return Value::Null;
        }
        match &self.data {
            ColumnStore::Int(v) => Value::Int(v[row]),
            ColumnStore::Float(v) => Value::Float(v[row]),
            ColumnStore::Str { codes, dict, .. } => {
                Value::Str(Arc::clone(&dict[codes[row] as usize]))
            }
            ColumnStore::Bool(v) => Value::Bool(v[row]),
            ColumnStore::Other(v) => v[row].clone(),
        }
    }

    fn gather(&self, indices: &[usize]) -> StoredColumn {
        let nulls: Vec<bool> = indices.iter().map(|&i| self.nulls[i]).collect();
        let has_nulls = nulls.iter().any(|&n| n);
        let data = match &self.data {
            ColumnStore::Int(v) => ColumnStore::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnStore::Float(v) => ColumnStore::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnStore::Bool(v) => ColumnStore::Bool(indices.iter().map(|&i| v[i]).collect()),
            // The dictionary is shared wholesale: codes stay valid and the
            // fragment keeps the relation-global encoding (a fragment of a
            // mixed column stays `Other` even if it happens to be uniform).
            ColumnStore::Str {
                codes,
                dict,
                dict_hashes,
            } => ColumnStore::Str {
                codes: indices.iter().map(|&i| codes[i]).collect(),
                dict: dict.clone(),
                dict_hashes: dict_hashes.clone(),
            },
            ColumnStore::Other(v) => {
                ColumnStore::Other(indices.iter().map(|&i| v[i].clone()).collect())
            }
        };
        StoredColumn {
            data,
            nulls,
            has_nulls,
        }
    }
}

/// A fixed-length set of stored columns — the native body of a relation.
#[derive(Debug, Clone, Default)]
pub struct ColumnSet {
    len: usize,
    cols: Vec<StoredColumn>,
}

impl ColumnSet {
    /// Encode a row multiset into columns. `width` is the schema arity
    /// (needed because `rows` may be empty).
    pub fn encode(rows: &[Tuple], width: usize) -> ColumnSet {
        ColumnSet {
            len: rows.len(),
            cols: (0..width).map(|c| StoredColumn::encode(rows, c)).collect(),
        }
    }

    /// The empty column set of a given arity.
    pub fn empty(width: usize) -> ColumnSet {
        ColumnSet::encode(&[], width)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Column accessor.
    pub fn col(&self, i: usize) -> &StoredColumn {
        &self.cols[i]
    }

    /// Reconstruct one cell.
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.cols[col].value_at(row)
    }

    /// Late-materialize one full row into `out` (cleared first). Used by
    /// the row-semantics fallbacks so a row is rebuilt at most once per
    /// detail position, however many candidates touch it.
    pub fn fill_row(&self, row: usize, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c.value_at(row)));
    }

    /// Late-materialize every row (the oracle / ingest view).
    pub fn materialize(&self) -> Vec<Tuple> {
        let mut scratch = Vec::with_capacity(self.width());
        (0..self.len)
            .map(|r| {
                self.fill_row(r, &mut scratch);
                scratch.as_slice().into()
            })
            .collect()
    }

    /// Gather the given row positions into a new column set (used to build
    /// distributed fragments without a round trip through rows).
    pub fn gather(&self, indices: &[usize]) -> ColumnSet {
        ColumnSet {
            len: indices.len(),
            cols: self.cols.iter().map(|c| c.gather(indices)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: Vec<Value>) -> Tuple {
        vals.into_boxed_slice()
    }

    #[test]
    fn uniform_int_column_with_nulls() {
        let rows = vec![
            t(vec![Value::Int(1)]),
            t(vec![Value::Null]),
            t(vec![Value::Int(3)]),
        ];
        let cs = ColumnSet::encode(&rows, 1);
        let c = cs.col(0);
        assert!(c.has_nulls);
        assert_eq!(c.nulls, vec![false, true, false]);
        match &c.data {
            ColumnStore::Int(v) => assert_eq!(v, &vec![1, 0, 3]),
            other => panic!("expected Int store, got {other:?}"),
        }
        assert_eq!(cs.value_at(1, 0), Value::Null);
        assert_eq!(cs.value_at(2, 0), Value::Int(3));
    }

    #[test]
    fn mixed_numeric_column_degrades_to_other() {
        // Deliberately no Int→Float promotion: mixed numerics take the
        // row-semantics path, exactly like the old per-query decode.
        let rows = vec![t(vec![Value::Int(1)]), t(vec![Value::Float(2.5)])];
        let cs = ColumnSet::encode(&rows, 1);
        assert!(matches!(cs.col(0).data, ColumnStore::Other(_)));
        assert_eq!(cs.value_at(1, 0), Value::Float(2.5));
    }

    #[test]
    fn all_null_column_is_masked_placeholder() {
        let rows = vec![t(vec![Value::Null]), t(vec![Value::Null])];
        let cs = ColumnSet::encode(&rows, 1);
        let c = cs.col(0);
        assert!(matches!(c.data, ColumnStore::Int(_)));
        assert!(c.nulls.iter().all(|&n| n));
        assert_eq!(cs.value_at(0, 0), Value::Null);
    }

    #[test]
    fn string_dictionary_dedups_and_caches_hashes() {
        let rows = vec![
            t(vec![Value::str("GET")]),
            t(vec![Value::str("POST")]),
            t(vec![Value::Null]),
            t(vec![Value::str("GET")]),
        ];
        let cs = ColumnSet::encode(&rows, 1);
        match &cs.col(0).data {
            ColumnStore::Str {
                codes,
                dict,
                dict_hashes,
            } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(codes, &vec![0, 1, 0, 0]);
                assert_eq!(dict_hashes[0], hash_str("GET"));
                assert_eq!(dict_hashes[1], hash_str("POST"));
            }
            other => panic!("expected Str store, got {other:?}"),
        }
        assert_eq!(cs.value_at(2, 0), Value::Null);
        assert_eq!(cs.value_at(3, 0), Value::str("GET"));
    }

    #[test]
    fn materialize_round_trips() {
        let rows = vec![
            t(vec![Value::Int(1), Value::str("a"), Value::Null]),
            t(vec![Value::Int(2), Value::str("b"), Value::Bool(true)]),
            t(vec![Value::Null, Value::str("a"), Value::Bool(false)]),
        ];
        let cs = ColumnSet::encode(&rows, 3);
        assert_eq!(cs.materialize(), rows);
    }

    #[test]
    fn gather_builds_fragments() {
        let rows: Vec<Tuple> = (0..10)
            .map(|i| {
                t(vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "e" } else { "o" }),
                ])
            })
            .collect();
        let cs = ColumnSet::encode(&rows, 2);
        let frag = cs.gather(&[1, 4, 7]);
        assert_eq!(frag.len(), 3);
        assert_eq!(
            frag.materialize(),
            vec![rows[1].clone(), rows[4].clone(), rows[7].clone()]
        );
    }

    #[test]
    fn empty_set_has_width_but_no_rows() {
        let cs = ColumnSet::empty(4);
        assert!(cs.is_empty());
        assert_eq!(cs.width(), 4);
        assert!(cs.materialize().is_empty());
    }
}
