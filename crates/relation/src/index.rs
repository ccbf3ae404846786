//! Probe-side indexes used by hash joins and the GMDJ evaluator.
//!
//! The GMDJ evaluation strategy in the paper keeps the base-values relation
//! in memory and streams the detail relation past it; per detail tuple it
//! must find the base tuples whose θ-condition can match. Two access paths
//! cover the conditions that occur in practice:
//!
//! * [`HashIndex`] — equality conjuncts `B.x = R.y` (correlation
//!   predicates). "The indexing mechanism intrinsic to GMDJ evaluation"
//!   (\[2\] in the paper). A single-column key of one primitive type
//!   also gets a [`TypedKeyIndex`]; its Int form is an [`IntKeyIndex`]
//!   in CSR layout.
//! * [`IntervalIndex`] — band conjuncts `B.lo ≤ R.t < B.hi` (the Hours
//!   dimension of the motivating example).

use std::cmp::Ordering;

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

/// Integer keys in compressed sparse row (CSR) form: one offsets array
/// and one flat row array. The rows of key slot `s` are
/// `rows[offsets[s]..offsets[s + 1]]`, ascending, so a probe returns a
/// borrowed slice and a key's candidate count is one subtraction.
///
/// The slot of a key is direct-addressed (`key − min`) when the key span
/// is small next to the number of indexed rows (a dense key such as
/// `custkey` 1..1000), and looked up in an Fx map otherwise.
#[derive(Debug, Clone)]
pub struct IntKeyIndex {
    slots: IntSlots,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

#[derive(Debug, Clone)]
enum IntSlots {
    /// Slot `key − min`, for keys `min ..= min + slots − 1`.
    Dense { min: i64 },
    /// Slots numbered in order of each key's first row.
    Sparse(FxHashMap<i64, u32>),
}

/// A key span of at most this many slots per indexed row (or per
/// [`DENSE_MIN_ROWS`] rows, for tiny relations) is direct-addressed.
const DENSE_SLOTS_PER_ROW: i128 = 4;
const DENSE_MIN_ROWS: i128 = 16;

impl IntKeyIndex {
    /// Build from `(row, key)` pairs of the non-NULL keys, rows ascending,
    /// by counting sort: each key's rows keep their order.
    fn build(keys: &[(u32, i64)]) -> Self {
        let (lo, hi) = keys.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &(_, k)| {
            (lo.min(k), hi.max(k))
        });
        // Computed in i128: `i64::MAX − i64::MIN + 1` does not fit an i64.
        let span = i128::from(hi) - i128::from(lo) + 1;
        let n = keys.len() as i128;
        let (slots, slot_of): (IntSlots, Vec<u32>) =
            if span <= DENSE_SLOTS_PER_ROW * n.max(DENSE_MIN_ROWS) {
                let slot_of = keys
                    .iter()
                    .map(|&(_, k)| k.wrapping_sub(lo) as u64 as u32)
                    .collect();
                (IntSlots::Dense { min: lo }, slot_of)
            } else {
                let mut map: FxHashMap<i64, u32> = FxHashMap::default();
                let slot_of = keys
                    .iter()
                    .map(|&(_, k)| {
                        let next = map.len() as u32;
                        *map.entry(k).or_insert(next)
                    })
                    .collect();
                (IntSlots::Sparse(map), slot_of)
            };
        let n_slots = match &slots {
            IntSlots::Dense { .. } => span as usize,
            IntSlots::Sparse(map) => map.len(),
        };
        let mut offsets = vec![0u32; n_slots + 1];
        for &s in &slot_of {
            offsets[s as usize + 1] += 1;
        }
        for s in 0..n_slots {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor = offsets[..n_slots].to_vec();
        let mut rows = vec![0u32; keys.len()];
        for (&(row, _), &s) in keys.iter().zip(&slot_of) {
            let at = &mut cursor[s as usize];
            rows[*at as usize] = row;
            *at += 1;
        }
        IntKeyIndex {
            slots,
            offsets,
            rows,
        }
    }

    /// Row positions for an integer probe key, ascending; empty for a key
    /// no row holds.
    #[inline]
    pub fn probe(&self, k: i64) -> &[u32] {
        let slot = match &self.slots {
            IntSlots::Dense { min } => {
                // A key below `min` wraps to at least the slot count:
                // the keys span fewer than 2^63 slots.
                let s = k.wrapping_sub(*min) as u64;
                if s >= (self.offsets.len() - 1) as u64 {
                    return &[];
                }
                s as usize
            }
            IntSlots::Sparse(map) => match map.get(&k) {
                Some(&s) => s as usize,
                None => return &[],
            },
        };
        &self.rows[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Whether slots are direct-addressed rather than looked up in a map.
    #[cfg(test)]
    fn is_dense(&self) -> bool {
        matches!(self.slots, IntSlots::Dense { .. })
    }
}

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
    /// All non-NULL keys are `Int`, in CSR form.
    Int(IntKeyIndex),
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
            Int(Vec<(u32, i64)>),
            Str(StrBuckets),
        }
        let mut b = B::Unknown;
        for (i, row) in rows.enumerate() {
            match &row[col] {
                Value::Null => continue,
                Value::Int(k) => match &mut b {
                    B::Unknown => b = B::Int(vec![(i as u32, *k)]),
                    B::Int(keys) => keys.push((i as u32, *k)),
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
            B::Int(keys) => Some(TypedKeyIndex::Int(IntKeyIndex::build(&keys))),
            B::Str(m) => Some(TypedKeyIndex::Str(m)),
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
        let mut prefix_max_hi: Vec<f64> = Vec::with_capacity(entries.len());
        for e in &entries {
            let running = match prefix_max_hi.last() {
                Some(&m) if m.total_cmp(&e.1).is_ge() => m,
                _ => e.1,
            };
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
    /// without constructing a `Value`. Bounds compare under
    /// `f64::total_cmp`, as SQL comparison (`Value::sql_cmp`) does, so
    /// `-0.0` sorts below `0.0`.
    pub fn stab_f64(&self, t: f64, out: &mut Vec<u32>) {
        out.clear();
        // Below `t`'s upper bound: `t < hi`, or `t ≤ hi` when inclusive.
        let below = |hi: f64| match t.total_cmp(&hi) {
            Ordering::Less => true,
            Ordering::Equal => self.hi_inclusive,
            Ordering::Greater => false,
        };
        // Last index with lo <= t.
        let mut hi_idx = self.entries.partition_point(|e| e.0.total_cmp(&t).is_le());
        while hi_idx > 0 {
            hi_idx -= 1;
            // If no interval at or before hi_idx can reach t, stop.
            if !below(self.prefix_max_hi[hi_idx]) {
                break;
            }
            let (_, hi, row) = self.entries[hi_idx];
            if below(hi) {
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
        let Some(TypedKeyIndex::Int(idx)) =
            TypedKeyIndex::build_rows(rows.iter().map(|r| r.as_slice()), 0)
        else {
            panic!("all-Int keys build a typed CSR index");
        };
        assert_eq!(idx.probe(1), &[0, 3]);
        assert_eq!(idx.probe(2), &[1]);
        assert_eq!(idx.probe(9), &[] as &[u32]);
    }

    /// A single-column Int key index over `keys` (NULL where `None`).
    fn int_index(keys: &[Option<i64>]) -> IntKeyIndex {
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .map(|k| vec![k.map_or(Value::Null, Value::Int)])
            .collect();
        match TypedKeyIndex::build_rows(rows.iter().map(|r| r.as_slice()), 0) {
            Some(TypedKeyIndex::Int(csr)) => csr,
            other => panic!("expected an Int index, got {other:?}"),
        }
    }

    #[test]
    fn csr_dense_layout_direct_addresses_a_small_key_span() {
        let idx = int_index(&[Some(3), Some(1), Some(3), Some(2), Some(1), Some(3)]);
        assert!(idx.is_dense());
        assert_eq!(idx.probe(1), &[1, 4]);
        assert_eq!(idx.probe(2), &[3]);
        assert_eq!(idx.probe(3), &[0, 2, 5]);
        // Out of range on either side, and the far ends of i64.
        for k in [0, 4, i64::MIN, i64::MAX] {
            assert_eq!(idx.probe(k), &[] as &[u32], "{k}");
        }
    }

    #[test]
    fn csr_sparse_layout_maps_a_wide_key_span() {
        let idx = int_index(&[Some(5_000_000), Some(7), Some(5_000_000), Some(-9)]);
        assert!(!idx.is_dense());
        assert_eq!(idx.probe(5_000_000), &[0, 2]);
        assert_eq!(idx.probe(7), &[1]);
        assert_eq!(idx.probe(-9), &[3]);
        assert_eq!(idx.probe(8), &[] as &[u32]);
    }

    #[test]
    fn csr_handles_negative_keys_in_both_layouts() {
        let dense = int_index(&[Some(-3), Some(-1), Some(-3)]);
        assert!(dense.is_dense());
        assert_eq!(dense.probe(-3), &[0, 2]);
        assert_eq!(dense.probe(-2), &[] as &[u32]);
        assert_eq!(dense.probe(-1), &[1]);
        let sparse = int_index(&[Some(-3_000_000), Some(-1), Some(-3_000_000)]);
        assert!(!sparse.is_dense());
        assert_eq!(sparse.probe(-3_000_000), &[0, 2]);
        assert_eq!(sparse.probe(-1), &[1]);
    }

    #[test]
    fn csr_full_i64_key_span_does_not_overflow() {
        let idx = int_index(&[Some(i64::MAX), Some(i64::MIN), Some(0), Some(i64::MIN)]);
        assert!(!idx.is_dense());
        assert_eq!(idx.probe(i64::MIN), &[1, 3]);
        assert_eq!(idx.probe(i64::MAX), &[0]);
        assert_eq!(idx.probe(0), &[2]);
        assert_eq!(idx.probe(1), &[] as &[u32]);
        // A dense span at the top of the range: probes from the bottom
        // must not wrap into it.
        let top = int_index(&[Some(i64::MAX), Some(i64::MAX - 2)]);
        assert!(top.is_dense());
        assert_eq!(top.probe(i64::MAX), &[0]);
        for k in [i64::MIN, i64::MIN + 1, i64::MIN + 2, -1, 0] {
            assert_eq!(top.probe(k), &[] as &[u32], "{k}");
        }
    }

    #[test]
    fn csr_excludes_null_keys() {
        let idx = int_index(&[None, Some(4), None, Some(4), Some(5)]);
        assert_eq!(idx.probe(4), &[1, 3]);
        assert_eq!(idx.probe(5), &[4]);
        // NULL rows hold no slot: every indexed row is a key row.
        assert_eq!(idx.rows.len(), 3);
        let all_null: Vec<Vec<Value>> = vec![vec![Value::Null], vec![Value::Null]];
        assert!(TypedKeyIndex::build_rows(all_null.iter().map(|r| r.as_slice()), 0).is_none());
    }

    /// Float SUM / AVG fold in row order, so each key's rows must stay
    /// ascending in both layouts, and match the generic index.
    #[test]
    fn csr_rows_per_key_stay_ascending() {
        for stride in [1i64, 1_000_003] {
            let keys: Vec<Option<i64>> = (0..500i64)
                .map(|i| (i % 7 != 3).then_some(((i * 37) % 11 - 5) * stride))
                .collect();
            let idx = int_index(&keys);
            assert_eq!(idx.is_dense(), stride == 1);
            let rows: Vec<Vec<Value>> = keys
                .iter()
                .map(|k| vec![k.map_or(Value::Null, Value::Int)])
                .collect();
            let generic = HashIndex::build_rows(rows.iter().map(|r| r.as_slice()), &[0]);
            for k in -5..=5 {
                let got = idx.probe(k * stride);
                assert!(!got.is_empty());
                assert!(got.windows(2).all(|w| w[0] < w[1]), "key {k}: {got:?}");
                assert_eq!(got, generic.probe(&[Value::Int(k * stride)]));
            }
        }
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

    /// Bounds order like SQL comparison: `-0.0 < 0.0`.
    #[test]
    fn interval_index_orders_negative_zero_below_zero() {
        let idx = IntervalIndex::build(
            vec![
                (Value::Float(0.0), Value::Float(1.0)),
                (Value::Float(-1.0), Value::Float(-0.0)),
            ]
            .into_iter(),
            false,
        );
        let mut out = Vec::new();
        idx.stab_f64(-0.0, &mut out);
        assert!(out.is_empty(), "-0.0 is below [0, 1) and not below -0.0");
        idx.stab_f64(0.0, &mut out);
        assert_eq!(out, vec![0]);
        idx.stab_f64(-0.5, &mut out);
        assert_eq!(out, vec![1]);
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
