//! Probe-side indexes used by hash joins and the GMDJ evaluator.
//!
//! The GMDJ evaluation strategy in the paper keeps the base-values relation
//! in memory and streams the detail relation past it; per detail tuple it
//! must find the base tuples whose θ-condition can match. Two access paths
//! cover the conditions that occur in practice:
//!
//! * [`HashIndex`] — equality conjuncts `B.x = R.y` (correlation
//!   predicates). "The indexing mechanism intrinsic to GMDJ evaluation"
//!   (\[2\] in the paper).
//! * [`IntervalIndex`] — band conjuncts `B.lo ≤ R.t < B.hi` (the Hours
//!   dimension of the motivating example).

use crate::fxhash::FxHashMap;
use crate::relation::Relation;
use crate::value::Value;

/// A multiset key: values compare with grouping equality (NULL = NULL).
pub type Key = Box<[Value]>;

/// Extract a key from a tuple given column positions.
#[inline]
pub fn key_of(row: &[Value], cols: &[usize]) -> Key {
    cols.iter().map(|&c| row[c].clone()).collect()
}

/// True if any component of the key is NULL. Equality conjuncts cannot
/// match NULL keys (the comparison would be unknown), so probe sides skip
/// them.
#[inline]
pub fn key_has_null(key: &[Value]) -> bool {
    key.iter().any(Value::is_null)
}

/// Hash index from key columns of a relation to row positions.
#[derive(Debug, Clone)]
pub struct HashIndex {
    map: FxHashMap<Key, Vec<u32>>,
    len: usize,
}

impl HashIndex {
    /// Build over `relation`, keying on `cols`. Rows with a NULL key
    /// component are excluded: no equality probe can ever match them.
    pub fn build(relation: &Relation, cols: &[usize]) -> Self {
        Self::build_rows(relation.rows().iter().map(|r| r.as_ref()), cols)
    }

    /// Build from raw rows.
    pub fn build_rows<'a>(rows: impl Iterator<Item = &'a [Value]>, cols: &[usize]) -> Self {
        let mut map: FxHashMap<Key, Vec<u32>> = FxHashMap::default();
        let mut len = 0usize;
        for (i, row) in rows.enumerate() {
            len += 1;
            let key = key_of(row, cols);
            if key_has_null(&key) {
                continue;
            }
            map.entry(key).or_default().push(i as u32);
        }
        HashIndex { map, len }
    }

    /// Row positions matching a probe key. NULL keys match nothing.
    #[inline]
    pub fn probe(&self, key: &[Value]) -> &[u32] {
        if key_has_null(key) {
            return &[];
        }
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Number of rows indexed over (including NULL-key rows).
    pub fn source_len(&self) -> usize {
        self.len
    }
}

/// String-key buckets keyed by precomputed Fx hash code: each bucket
/// holds `(key, row positions)` pairs, collisions resolved by byte
/// compare.
type StrBuckets = FxHashMap<u64, Vec<(std::sync::Arc<str>, Vec<u32>)>>;

/// Typed single-column sidecar for a [`HashIndex`]: when every non-NULL
/// key in the base relation is the same primitive type, probes from a
/// matching typed batch column skip `Value` construction entirely.
///
/// Semantics note: [`Value`] equality treats `Int(1)` and `Float(1.0)` as
/// equal, so a typed `Int` sidecar is only built when *no* key is a float;
/// a probe from a non-matching column type must use the generic
/// [`HashIndex::probe`] path, which preserves cross-type equality.
#[derive(Debug, Clone)]
pub enum TypedKeyIndex {
    /// All non-NULL keys are `Int`.
    Int(FxHashMap<i64, Vec<u32>>),
    /// All non-NULL keys are `Str`, bucketed by precomputed Fx hash code
    /// ([`crate::fxhash::hash_str`]); collisions resolve by byte compare.
    Str(StrBuckets),
}

impl TypedKeyIndex {
    /// Build over a single key column, or `None` when the column mixes
    /// types (including Int/Float mixes) or holds floats/bools.
    pub fn build_rows<'a>(rows: impl Iterator<Item = &'a [Value]>, col: usize) -> Option<Self> {
        enum B {
            Unknown,
            Int(FxHashMap<i64, Vec<u32>>),
            Str(StrBuckets),
        }
        let mut b = B::Unknown;
        for (i, row) in rows.enumerate() {
            match &row[col] {
                Value::Null => continue,
                Value::Int(k) => match &mut b {
                    B::Unknown => {
                        let mut m: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
                        m.entry(*k).or_default().push(i as u32);
                        b = B::Int(m);
                    }
                    B::Int(m) => m.entry(*k).or_default().push(i as u32),
                    B::Str(_) => return None,
                },
                Value::Str(s) => {
                    let h = crate::fxhash::hash_str(s);
                    let push = |m: &mut StrBuckets| {
                        let bucket = m.entry(h).or_default();
                        match bucket.iter_mut().find(|(v, _)| v.as_ref() == s.as_ref()) {
                            Some((_, rows)) => rows.push(i as u32),
                            None => bucket.push((std::sync::Arc::clone(s), vec![i as u32])),
                        }
                    };
                    match &mut b {
                        B::Unknown => {
                            let mut m = FxHashMap::default();
                            push(&mut m);
                            b = B::Str(m);
                        }
                        B::Str(m) => push(m),
                        B::Int(_) => return None,
                    }
                }
                // Float keys would need cross-type Int equality; Bool keys
                // are rare enough that the generic path suffices.
                Value::Float(_) | Value::Bool(_) => return None,
            }
        }
        match b {
            B::Unknown => None,
            B::Int(m) => Some(TypedKeyIndex::Int(m)),
            B::Str(m) => Some(TypedKeyIndex::Str(m)),
        }
    }

    /// Row positions for an integer probe key.
    #[inline]
    pub fn probe_int(&self, k: i64) -> &[u32] {
        match self {
            TypedKeyIndex::Int(m) => m.get(&k).map(Vec::as_slice).unwrap_or(&[]),
            TypedKeyIndex::Str(_) => &[],
        }
    }

    /// Row positions for a string probe with its precomputed hash code.
    #[inline]
    pub fn probe_str(&self, hash: u64, s: &str) -> &[u32] {
        match self {
            TypedKeyIndex::Str(m) => m
                .get(&hash)
                .and_then(|bucket| bucket.iter().find(|(v, _)| v.as_ref() == s))
                .map(|(_, rows)| rows.as_slice())
                .unwrap_or(&[]),
            TypedKeyIndex::Int(_) => &[],
        }
    }
}

/// Sorted interval index for band conditions `lo ≤ t (< or ≤) hi`.
///
/// Entries are sorted by `lo`; a stab query binary-searches the last entry
/// with `lo ≤ t` and scans left while intervals can still cover `t`, using
/// a running maximum of `hi` to stop early. For non-overlapping intervals
/// (time dimensions like Hours) a stab is O(log n + answers).
#[derive(Debug, Clone)]
pub struct IntervalIndex {
    /// (lo, hi, row) sorted by lo.
    entries: Vec<(f64, f64, u32)>,
    /// prefix_max_hi[i] = max of entries[0..=i].hi — allows early exit.
    prefix_max_hi: Vec<f64>,
    /// Whether the upper bound is inclusive (`t ≤ hi`) or exclusive
    /// (`t < hi`).
    hi_inclusive: bool,
}

impl IntervalIndex {
    /// Build from `(lo, hi)` pairs per row; rows with NULL bounds are
    /// excluded (their band condition is unknown for every t).
    pub fn build(bounds: impl Iterator<Item = (Value, Value)>, hi_inclusive: bool) -> Self {
        let mut entries: Vec<(f64, f64, u32)> = Vec::new();
        for (i, (lo, hi)) in bounds.enumerate() {
            if let (Some(lo), Some(hi)) = (lo.as_f64(), hi.as_f64()) {
                entries.push((lo, hi, i as u32));
            }
        }
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prefix_max_hi = Vec::with_capacity(entries.len());
        let mut running = f64::NEG_INFINITY;
        for e in &entries {
            running = running.max(e.1);
            prefix_max_hi.push(running);
        }
        IntervalIndex {
            entries,
            prefix_max_hi,
            hi_inclusive,
        }
    }

    /// Rows whose interval contains `t`.
    pub fn stab(&self, t: &Value, out: &mut Vec<u32>) {
        out.clear();
        let Some(t) = t.as_f64() else { return };
        self.stab_f64(t, out);
    }

    /// [`stab`](Self::stab) with the probe value already widened to `f64` —
    /// the batched scan calls this directly from typed Int/Float columns
    /// without constructing a `Value`.
    pub fn stab_f64(&self, t: f64, out: &mut Vec<u32>) {
        out.clear();
        // Last index with lo <= t.
        let mut hi_idx = self.entries.partition_point(|e| e.0 <= t);
        while hi_idx > 0 {
            hi_idx -= 1;
            // If no interval at or before hi_idx can reach t, stop.
            if self.prefix_max_hi[hi_idx] < t
                || (!self.hi_inclusive && self.prefix_max_hi[hi_idx] <= t)
            {
                break;
            }
            let (_, hi, row) = self.entries[hi_idx];
            let covered = if self.hi_inclusive { t <= hi } else { t < hi };
            if covered {
                out.push(row);
            }
        }
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no intervals are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::schema::DataType;

    #[test]
    fn hash_index_probes() {
        let r = RelationBuilder::new("T")
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .row(vec![1.into(), 10.into()])
            .row(vec![2.into(), 20.into()])
            .row(vec![1.into(), 30.into()])
            .row(vec![Value::Null, 40.into()])
            .build()
            .unwrap();
        let idx = HashIndex::build(&r, &[0]);
        assert_eq!(idx.probe(&[Value::Int(1)]), &[0, 2]);
        assert_eq!(idx.probe(&[Value::Int(2)]), &[1]);
        assert_eq!(idx.probe(&[Value::Int(9)]), &[] as &[u32]);
        // NULL probes and NULL build keys never match.
        assert_eq!(idx.probe(&[Value::Null]), &[] as &[u32]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn interval_index_stabs_non_overlapping() {
        // Hours-style: [0,60), [61,120), [121,180)
        let idx = IntervalIndex::build(
            vec![
                (Value::Int(0), Value::Int(60)),
                (Value::Int(61), Value::Int(120)),
                (Value::Int(121), Value::Int(180)),
            ]
            .into_iter(),
            false,
        );
        let mut out = Vec::new();
        idx.stab(&Value::Int(43), &mut out);
        assert_eq!(out, vec![0]);
        idx.stab(&Value::Int(60), &mut out);
        assert!(out.is_empty()); // exclusive upper bound
        idx.stab(&Value::Int(61), &mut out);
        assert_eq!(out, vec![1]);
        idx.stab(&Value::Int(500), &mut out);
        assert!(out.is_empty());
        idx.stab(&Value::Null, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn interval_index_overlapping() {
        let idx = IntervalIndex::build(
            vec![
                (Value::Int(0), Value::Int(100)),
                (Value::Int(10), Value::Int(20)),
                (Value::Int(15), Value::Int(50)),
            ]
            .into_iter(),
            true,
        );
        let mut out = Vec::new();
        idx.stab(&Value::Int(18), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2]);
        idx.stab(&Value::Int(60), &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn typed_int_sidecar_matches_generic_probe() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Null],
            vec![Value::Int(1)],
        ];
        let idx = TypedKeyIndex::build_rows(rows.iter().map(|r| r.as_slice()), 0)
            .expect("all-Int keys build a typed sidecar");
        assert_eq!(idx.probe_int(1), &[0, 3]);
        assert_eq!(idx.probe_int(2), &[1]);
        assert_eq!(idx.probe_int(9), &[] as &[u32]);
    }

    #[test]
    fn typed_sidecar_rejects_mixed_and_float_keys() {
        let mixed: Vec<Vec<Value>> = vec![vec![Value::Int(1)], vec![Value::Str("a".into())]];
        assert!(TypedKeyIndex::build_rows(mixed.iter().map(|r| r.as_slice()), 0).is_none());
        // Float(1.0) equals Int(1) under Value equality; a typed Int map
        // cannot represent that, so floats force the generic path.
        let floats: Vec<Vec<Value>> = vec![vec![Value::Float(1.0)]];
        assert!(TypedKeyIndex::build_rows(floats.iter().map(|r| r.as_slice()), 0).is_none());
    }

    #[test]
    fn typed_str_sidecar_probes_by_prehashed_code() {
        use crate::fxhash::hash_str;
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Str("ny".into())],
            vec![Value::Str("sf".into())],
            vec![Value::Str("ny".into())],
        ];
        let idx = TypedKeyIndex::build_rows(rows.iter().map(|r| r.as_slice()), 0).unwrap();
        assert_eq!(idx.probe_str(hash_str("ny"), "ny"), &[0, 2]);
        assert_eq!(idx.probe_str(hash_str("sf"), "sf"), &[1]);
        assert_eq!(idx.probe_str(hash_str("la"), "la"), &[] as &[u32]);
    }

    #[test]
    fn stab_f64_matches_value_stab() {
        let idx = IntervalIndex::build(
            vec![
                (Value::Int(0), Value::Int(60)),
                (Value::Int(30), Value::Int(90)),
            ]
            .into_iter(),
            false,
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        idx.stab(&Value::Int(45), &mut a);
        idx.stab_f64(45.0, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn interval_index_skips_null_bounds() {
        let idx = IntervalIndex::build(
            vec![
                (Value::Null, Value::Int(10)),
                (Value::Int(0), Value::Int(10)),
            ]
            .into_iter(),
            false,
        );
        assert_eq!(idx.len(), 1);
    }
}
