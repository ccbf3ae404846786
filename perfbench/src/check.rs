//! Answer checking: every timed query's result is compared with a
//! reference computed once by a different strategy.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use gmdj_core::exec::TableProvider;
use gmdj_core::runtime::ExecPolicy;
use gmdj_engine::strategy::{run_with_policy, Strategy};
use gmdj_relation::error::Result;
use gmdj_relation::relation::Relation;

use crate::mix::{Query, THREADS};

/// Row count plus an order-independent hash of the result multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub hash: u64,
}

impl Fingerprint {
    pub fn of(rel: &Relation) -> Fingerprint {
        // A wrapping sum of per-row hashes is independent of row order and
        // keeps duplicates apart. `DefaultHasher::new` uses fixed keys.
        let hash = rel.rows().iter().fold(0u64, |acc, row| {
            let mut h = DefaultHasher::new();
            row.hash(&mut h);
            acc.wrapping_add(h.finish())
        });
        Fingerprint {
            rows: rel.len(),
            hash,
        }
    }
}

/// Reference answers keyed by query text.
#[derive(Debug, Default)]
pub struct References(HashMap<String, Fingerprint>);

/// The strategy references come from: the engine's native nested
/// evaluation (`reference::eval`), which shares neither the GMDJ
/// translation and plan cache nor the GMDJ evaluation kernels with the
/// timed strategy, so a fault in those cannot hide in both answers.
pub const REFERENCE: Strategy = Strategy::NativeSmart;

impl References {
    /// Compute the reference for every query not yet known, on
    /// [`THREADS`] threads.
    pub fn extend(
        &mut self,
        queries: &[Query],
        catalog: &(dyn TableProvider + Sync),
    ) -> Result<()> {
        let mut todo: Vec<&str> = queries
            .iter()
            .map(|q| q.sql.as_str())
            .filter(|sql| !self.0.contains_key(*sql))
            .collect();
        todo.sort_unstable();
        todo.dedup();
        let chunk = todo.len().div_ceil(THREADS).max(1);
        let answers: Vec<Result<Vec<(String, Fingerprint)>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = todo
                .chunks(chunk)
                .map(|texts| {
                    scope.spawn(move || {
                        texts
                            .iter()
                            .map(|sql| {
                                let expr = gmdj_sql::parse_query(sql)?;
                                let r = run_with_policy(
                                    &expr,
                                    catalog,
                                    REFERENCE,
                                    ExecPolicy::sequential(),
                                )?;
                                Ok((sql.to_string(), Fingerprint::of(&r.relation)))
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference thread panicked"))
                .collect()
        });
        for answer in answers {
            self.0.extend(answer?);
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether `rel` is the reference answer to `sql`.
    pub fn matches(&self, sql: &str, rel: &Relation) -> bool {
        self.0.get(sql) == Some(&Fingerprint::of(rel))
    }
}
