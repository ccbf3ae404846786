//! Multiset relations (SQL bag semantics), stored natively columnar.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::columnar::ColumnSet;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;

/// A tuple is a boxed slice of values, positionally aligned with a
/// [`Schema`].
pub type Tuple = Box<[Value]>;

/// An in-memory multiset of tuples over a schema.
///
/// SQL relations are bags, not sets; duplicate elimination is an explicit
/// operator ([`crate::ops::distinct`]). All operators in this workspace
/// preserve multiset semantics.
///
/// The native representation is columnar ([`ColumnSet`]): typed column
/// vectors with validity bitmaps and dictionary-encoded strings, shared by
/// `Arc` across clones and renames. Row-at-a-time access ([`Relation::rows`])
/// is a *late-materialization view*, rebuilt lazily and cached — it exists
/// for the reference engines, the operators around the GMDJ, CSV ingest,
/// and display, not for the GMDJ detail scans, which borrow column slices
/// directly.
#[derive(Debug)]
pub struct Relation {
    schema: Arc<Schema>,
    cols: Arc<ColumnSet>,
    rows: OnceLock<Vec<Tuple>>,
}

impl Clone for Relation {
    /// Cloning shares the columns and drops the materialized-row cache.
    fn clone(&self) -> Self {
        Relation {
            schema: Arc::clone(&self.schema),
            cols: Arc::clone(&self.cols),
            rows: OnceLock::new(),
        }
    }
}

impl Relation {
    /// Construct from parts, validating tuple arity.
    pub fn new(schema: Arc<Schema>, rows: Vec<Tuple>) -> Result<Self> {
        for row in &rows {
            if row.len() != schema.len() {
                return Err(Error::ArityMismatch {
                    expected: schema.len(),
                    actual: row.len(),
                });
            }
        }
        Ok(Relation::from_parts(schema, rows))
    }

    /// Construct without validation, encoding the rows into columns.
    /// Callers must guarantee arity; this is the path used by operators
    /// that build rows against a known schema. The input rows are dropped
    /// after encoding — columnar is the only persistent representation.
    pub fn from_parts(schema: Arc<Schema>, rows: Vec<Tuple>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        let cols = ColumnSet::encode(&rows, schema.len());
        Relation {
            schema,
            cols: Arc::new(cols),
            rows: OnceLock::new(),
        }
    }

    /// Construct directly from an encoded column set (fragment gathers,
    /// narrow storage scans).
    pub fn from_columns(schema: Arc<Schema>, cols: Arc<ColumnSet>) -> Self {
        debug_assert_eq!(schema.len(), cols.width());
        Relation {
            schema,
            cols,
            rows: OnceLock::new(),
        }
    }

    /// The empty relation over a schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let cols = Arc::new(ColumnSet::empty(schema.len()));
        Relation {
            schema,
            cols,
            rows: OnceLock::new(),
        }
    }

    /// Schema accessor.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Columnar body accessor — the native representation.
    pub fn cols(&self) -> &ColumnSet {
        &self.cols
    }

    /// Shared handle on the column store, for views that page or fragment
    /// the relation without copying it (paged storage, fragments).
    pub fn cols_arc(&self) -> Arc<ColumnSet> {
        Arc::clone(&self.cols)
    }

    /// Row accessor: the late-materialization view. The first call rebuilds
    /// boxed tuples from the columns and caches them for the lifetime of
    /// this `Relation` value (clones start with a cold cache). At 1.2M rows
    /// that is hundreds of milliseconds and ~200 MB, so no GMDJ detail
    /// scan reads it: every mode reads the columns. The view remains for
    /// the GMDJ's base rows, the relational operators around the GMDJ, CSV
    /// ingest and display.
    pub fn rows(&self) -> &[Tuple] {
        self.rows.get_or_init(|| self.cols.materialize())
    }

    /// True once [`Relation::rows`] has built and cached the row view on
    /// this value.
    pub fn has_row_view(&self) -> bool {
        self.rows.get().is_some()
    }

    /// Number of tuples (with duplicates).
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Re-qualify every attribute: the paper's renaming `Flow → F`. The
    /// columnar body is shared, so this is O(schema).
    pub fn renamed(&self, qualifier: &str) -> Relation {
        Relation {
            schema: self.schema.with_qualifier(qualifier),
            cols: Arc::clone(&self.cols),
            rows: OnceLock::new(),
        }
    }

    /// Multiset equality irrespective of row order: both relations are
    /// sorted under the total value order and compared. Schemas must have
    /// the same arity; qualifiers are ignored (derived plans produce
    /// differently-qualified but equivalent outputs).
    pub fn multiset_eq(&self, other: &Relation) -> bool {
        if self.schema.len() != other.schema.len() || self.len() != other.len() {
            return false;
        }
        let mut a: Vec<&Tuple> = self.rows().iter().collect();
        let mut b: Vec<&Tuple> = other.rows().iter().collect();
        let cmp = |x: &&Tuple, y: &&Tuple| {
            for (u, v) in x.iter().zip(y.iter()) {
                let o = u.total_cmp(v);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        };
        a.sort_by(cmp);
        b.sort_by(cmp);
        a.iter()
            .zip(b.iter())
            .all(|(x, y)| cmp(x, y) == std::cmp::Ordering::Equal)
    }

    /// Rows sorted under the total order — deterministic output for
    /// examples and golden tests.
    pub fn sorted_rows(&self) -> Vec<Tuple> {
        let mut rows = self.rows().to_vec();
        rows.sort_by(|x, y| {
            for (u, v) in x.iter().zip(y.iter()) {
                let o = u.total_cmp(v);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }
}

impl fmt::Display for Relation {
    /// Render as an aligned ASCII table (used by the examples).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.schema.qualified_names();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows()
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let rule = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        rule(f)?;
        write!(f, "|")?;
        for (h, w) in headers.iter().zip(&widths) {
            write!(f, " {h:<w$} |")?;
        }
        writeln!(f)?;
        rule(f)?;
        for row in &rendered {
            write!(f, "|")?;
            for (c, w) in row.iter().zip(&widths) {
                write!(f, " {c:<w$} |")?;
            }
            writeln!(f)?;
        }
        rule(f)?;
        writeln!(f, "({} rows)", self.len())
    }
}

/// Ergonomic construction of small relations for tests and examples.
///
/// ```
/// use gmdj_relation::{RelationBuilder, DataType};
/// let hours = RelationBuilder::new("H")
///     .column("HourDsc", DataType::Int)
///     .column("StartInterval", DataType::Int)
///     .column("EndInterval", DataType::Int)
///     .row(vec![1.into(), 0.into(), 60.into()])
///     .row(vec![2.into(), 61.into(), 120.into()])
///     .build()
///     .unwrap();
/// assert_eq!(hours.len(), 2);
/// ```
pub struct RelationBuilder {
    qualifier: String,
    columns: Vec<(String, crate::schema::DataType)>,
    rows: Vec<Vec<Value>>,
}

impl RelationBuilder {
    /// Start a builder; every column will carry `qualifier`.
    pub fn new(qualifier: impl Into<String>) -> Self {
        RelationBuilder {
            qualifier: qualifier.into(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Append a column.
    pub fn column(mut self, name: impl Into<String>, dt: crate::schema::DataType) -> Self {
        self.columns.push((name.into(), dt));
        self
    }

    /// Append a row.
    pub fn row(mut self, values: Vec<Value>) -> Self {
        self.rows.push(values);
        self
    }

    /// Append many rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        self.rows.extend(rows);
        self
    }

    /// Finalize.
    pub fn build(self) -> Result<Relation> {
        let fields = self
            .columns
            .iter()
            .map(|(n, t)| crate::schema::Field::new(self.qualifier.clone(), n.clone(), *t))
            .collect();
        let schema = Schema::new(fields);
        Relation::new(
            schema,
            self.rows
                .into_iter()
                .map(|r| r.into_boxed_slice())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn rel(rows: Vec<Vec<Value>>) -> Relation {
        RelationBuilder::new("T")
            .column("a", DataType::Int)
            .column("b", DataType::Int)
            .rows(rows)
            .build()
            .unwrap()
    }

    #[test]
    fn arity_checked() {
        let schema = Schema::qualified("T", &[("a", DataType::Int)]);
        let bad = Relation::new(
            schema,
            vec![vec![Value::Int(1), Value::Int(2)].into_boxed_slice()],
        );
        assert!(matches!(bad, Err(Error::ArityMismatch { .. })));
    }

    #[test]
    fn multiset_eq_ignores_order_but_counts_duplicates() {
        let a = rel(vec![
            vec![1.into(), 2.into()],
            vec![3.into(), 4.into()],
            vec![1.into(), 2.into()],
        ]);
        let b = rel(vec![
            vec![3.into(), 4.into()],
            vec![1.into(), 2.into()],
            vec![1.into(), 2.into()],
        ]);
        let c = rel(vec![
            vec![3.into(), 4.into()],
            vec![1.into(), 2.into()],
            vec![3.into(), 4.into()],
        ]);
        assert!(a.multiset_eq(&b));
        assert!(!a.multiset_eq(&c));
    }

    #[test]
    fn rename_preserves_rows() {
        let a = rel(vec![vec![1.into(), 2.into()]]);
        let b = a.renamed("X");
        assert_eq!(b.schema().field(0).qualifier, "X");
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn display_renders_table() {
        let a = rel(vec![vec![1.into(), Value::Null]]);
        let s = a.to_string();
        assert!(s.contains("T.a"));
        assert!(s.contains("NULL"));
        assert!(s.contains("(1 rows)"));
    }

    #[test]
    fn row_view_round_trips_through_columns() {
        let mixed = RelationBuilder::new("M")
            .column("i", DataType::Int)
            .column("s", DataType::Str)
            .column("f", DataType::Float)
            .row(vec![1.into(), "a".into(), 1.5.into()])
            .row(vec![Value::Null, "b".into(), Value::Null])
            .row(vec![3.into(), Value::Null, 2.5.into()])
            .build()
            .unwrap();
        let rows = mixed.rows().to_vec();
        let rebuilt = Relation::new(Arc::clone(mixed.schema()), rows).unwrap();
        assert!(mixed.multiset_eq(&rebuilt));
        assert_eq!(rebuilt.len(), 3);
    }

    #[test]
    fn clones_and_renames_share_the_columnar_body() {
        let a = rel(vec![vec![1.into(), 2.into()], vec![3.into(), 4.into()]]);
        let b = a.clone();
        let c = a.renamed("X");
        assert!(std::ptr::eq(a.cols(), b.cols()));
        assert!(std::ptr::eq(a.cols(), c.cols()));
    }
}
