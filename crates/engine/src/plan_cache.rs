//! Plan cache keyed on normalized algebra.
//!
//! Translation (Algorithm SubqueryToGMDJ) is pure given the catalog's
//! schema, and [`gmdj_algebra::normalize::normalize_negations`] canonizes
//! the query's predicate structure — so two syntactically different
//! submissions of the same normalized query against the same catalog
//! state translate to interchangeable plans. This module memoizes that
//! step: the cache key is `(catalog epoch, normalized query text)`,
//! where the epoch comes from
//! [`TableProvider::plan_cache_key`] and pins one
//! exact catalog state (providers that cannot pin one return `None` and
//! opt out — their lookups bypass the cache and count toward neither
//! counter).
//!
//! A [`PlanCache`] is FIFO-capped at [`CACHE_CAP`] entries and keeps its
//! own hit/miss counts; every instance also reports to
//! `plan_cache_hits_total` / `plan_cache_misses_total` in the global
//! [`metrics`] registry. [`cached_translate`], [`stats`] and [`clear`]
//! act on one process default, which the strategy layer and the SQL
//! shell's `\cache` meta-command use.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

use gmdj_algebra::ast::QueryExpr;
use gmdj_algebra::normalize::normalize_negations;
use gmdj_core::exec::TableProvider;
use gmdj_core::metrics;
use gmdj_core::plan::GmdjExpr;
use gmdj_core::translate::subquery_to_gmdj;
use gmdj_relation::error::Result;

/// Maximum resident plans; the oldest insertion is evicted beyond this.
pub const CACHE_CAP: usize = 128;

type Key = (u64, String);

#[derive(Debug, Default)]
struct Cache {
    plans: HashMap<Key, GmdjExpr>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Key>,
    hits: u64,
    misses: u64,
}

/// Point-in-time cache observability for `\cache` and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Resident plans.
    pub len: usize,
    /// Eviction cap ([`CACHE_CAP`]).
    pub cap: usize,
    /// Lifetime hits of this cache.
    pub hits: u64,
    /// Lifetime misses of this cache.
    pub misses: u64,
}

/// A memo of translated plans keyed on `(catalog epoch, normalized query
/// text)`, with its own hit/miss counters.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    inner: Mutex<Cache>,
}

impl PlanCache {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        PlanCache::default()
    }

    /// Translate `query` against `catalog`, serving the plan from the
    /// cache when the same normalized query was already translated against
    /// the same catalog epoch. Falls through to a plain
    /// [`subquery_to_gmdj`] (uncounted) for providers without a cache key.
    /// Translation errors are never cached.
    pub(crate) fn translate(
        &self,
        query: &QueryExpr,
        catalog: &dyn TableProvider,
    ) -> Result<GmdjExpr> {
        let Some(epoch) = catalog.plan_cache_key() else {
            return subquery_to_gmdj(query, catalog);
        };
        let key: Key = (epoch, normalize_negations(query).to_string());
        {
            let mut cache = self.lock();
            if let Some(plan) = cache.plans.get(&key) {
                let plan = plan.clone();
                cache.hits += 1;
                metrics::global().inc("plan_cache_hits_total", 1);
                return Ok(plan);
            }
        }
        // Translate outside the lock: misses are the slow path and the
        // catalog borrow must not serialize behind other queries' planning.
        let plan = subquery_to_gmdj(query, catalog)?;
        let mut cache = self.lock();
        cache.misses += 1;
        metrics::global().inc("plan_cache_misses_total", 1);
        if !cache.plans.contains_key(&key) {
            while cache.order.len() >= CACHE_CAP {
                if let Some(old) = cache.order.pop_front() {
                    cache.plans.remove(&old);
                }
            }
            cache.order.push_back(key.clone());
            cache.plans.insert(key, plan.clone());
        }
        Ok(plan)
    }

    /// Current size and lifetime hit/miss counts.
    pub(crate) fn stats(&self) -> CacheStats {
        let cache = self.lock();
        CacheStats {
            len: cache.plans.len(),
            cap: CACHE_CAP,
            hits: cache.hits,
            misses: cache.misses,
        }
    }

    /// Drop every cached plan (hit/miss counters keep their lifetime
    /// values — they are rates, not gauges).
    pub(crate) fn clear(&self) {
        let mut cache = self.lock();
        cache.plans.clear();
        cache.order.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Cache> {
        self.inner.lock().expect("plan cache poisoned")
    }
}

/// The process default cache.
fn default_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(PlanCache::new)
}

/// [`PlanCache::translate`] on the process default cache.
pub fn cached_translate(query: &QueryExpr, catalog: &dyn TableProvider) -> Result<GmdjExpr> {
    default_cache().translate(query, catalog)
}

/// [`PlanCache::stats`] of the process default cache.
pub fn stats() -> CacheStats {
    default_cache().stats()
}

/// [`PlanCache::clear`] on the process default cache.
pub fn clear() {
    default_cache().clear()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdj_algebra::ast::exists;
    use gmdj_core::exec::MemoryCatalog;
    use gmdj_relation::expr::{col, lit};
    use gmdj_relation::relation::RelationBuilder;
    use gmdj_relation::schema::DataType;

    fn catalog() -> MemoryCatalog {
        let customers = RelationBuilder::new("c")
            .column("id", DataType::Int)
            .row(vec![1.into()])
            .row(vec![2.into()])
            .build()
            .unwrap();
        let orders = RelationBuilder::new("o")
            .column("cust", DataType::Int)
            .column("total", DataType::Int)
            .row(vec![1.into(), 500.into()])
            .row(vec![2.into(), 10.into()])
            .build()
            .unwrap();
        MemoryCatalog::new()
            .with("customer", customers)
            .with("orders", orders)
    }

    fn query() -> QueryExpr {
        let sub = QueryExpr::table("orders", "o").select_flat(
            col("o.cust")
                .eq(col("c.id"))
                .and(col("o.total").gt(lit(100))),
        );
        QueryExpr::table("customer", "c").select(exists(sub))
    }

    #[test]
    fn second_translation_hits_and_plans_agree() {
        let cache = PlanCache::new();
        let catalog = catalog();
        let before = cache.stats();
        let first = cache.translate(&query(), &catalog).unwrap();
        let second = cache.translate(&query(), &catalog).unwrap();
        assert_eq!(first, second);
        let after = cache.stats();
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(
            first,
            subquery_to_gmdj(&query(), &catalog).unwrap(),
            "cached plan must equal a fresh translation"
        );
    }

    #[test]
    fn catalog_mutation_refreshes_the_epoch_and_misses() {
        let cache = PlanCache::new();
        let mut catalog = catalog();
        cache.translate(&query(), &catalog).unwrap();
        let before = cache.stats();
        // Replacing a table re-draws the epoch: the old plan is stale.
        let orders = RelationBuilder::new("o")
            .column("cust", DataType::Int)
            .column("total", DataType::Int)
            .row(vec![1.into(), 5.into()])
            .build()
            .unwrap();
        catalog.register("orders", orders);
        cache.translate(&query(), &catalog).unwrap();
        let after = cache.stats();
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.hits, before.hits);
    }

    #[test]
    fn distinct_catalogs_never_share_entries() {
        let cache = PlanCache::new();
        let a = catalog();
        let b = catalog();
        assert_ne!(a.plan_cache_key(), b.plan_cache_key());
        let before = cache.stats();
        cache.translate(&query(), &a).unwrap();
        cache.translate(&query(), &b).unwrap();
        let after = cache.stats();
        assert_eq!(after.misses - before.misses, 2);
    }

    #[test]
    fn eviction_keeps_the_cache_bounded() {
        let cache = PlanCache::new();
        let catalog = catalog();
        for i in 0..(CACHE_CAP + 8) {
            // Distinct normalized texts: vary the literal.
            let sub = QueryExpr::table("orders", "o").select_flat(
                col("o.cust")
                    .eq(col("c.id"))
                    .and(col("o.total").gt(lit(i as i64))),
            );
            let q = QueryExpr::table("customer", "c").select(exists(sub));
            cache.translate(&q, &catalog).unwrap();
        }
        assert_eq!(cache.stats().len, CACHE_CAP);
    }

    #[test]
    fn process_default_serves_the_same_plans() {
        let catalog = catalog();
        let first = cached_translate(&query(), &catalog).unwrap();
        assert_eq!(first, cached_translate(&query(), &catalog).unwrap());
        assert_eq!(first, subquery_to_gmdj(&query(), &catalog).unwrap());
        assert_eq!(stats().cap, CACHE_CAP);
    }
}
