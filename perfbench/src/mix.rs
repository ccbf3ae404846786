//! The workloads: data sizes, execution policy, client count, and the
//! query mix each client sends as SQL text.

use std::sync::Arc;

use gmdj_core::runtime::{ExecMode, ExecPolicy};
use gmdj_core::shared::{SharedScanConfig, SharedScanPool};
use gmdj_datagen::tpcr::{TpcrConfig, TpcrData};
use gmdj_engine::plan_cache::CACHE_CAP;

use crate::calib::Kind;

/// Threads per engine policy, pool pass and client fan-out. Two matches
/// the two-core machines the benchmark is sized for; no workload uses more.
pub const THREADS: usize = 2;

/// Seed of the `part` table, the same for every run (see
/// [`Workload::generate`]).
const PART_SEED: u64 = 4;

/// The paper's four subquery shapes (Figures 2-5), each with one constant
/// that the pooled and small workloads vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Exists,
    AggCmp,
    AllNeq,
    TreeExists,
}

impl Shape {
    pub const ALL: [Shape; 4] = [
        Shape::Exists,
        Shape::AggCmp,
        Shape::AllNeq,
        Shape::TreeExists,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Exists => "exists",
            Shape::AggCmp => "agg_cmp",
            Shape::AllNeq => "all_neq",
            Shape::TreeExists => "tree_exists",
        }
    }

    /// The constant of the paper's query (`datagen::workloads`).
    fn paper_constant(self) -> i64 {
        match self {
            Shape::Exists => 250_000,
            Shape::AggCmp => 30,
            Shape::AllNeq => 0,
            Shape::TreeExists => 490_000,
        }
    }

    /// Candidate constants `lo, lo + step, …, hi` for the seeded pools.
    fn constant_range(self) -> (i64, i64, i64) {
        match self {
            Shape::Exists => (100_000, 400_000, 500),
            Shape::AggCmp => (10, 90, 1),
            Shape::AllNeq => (1, 1_000, 1),
            Shape::TreeExists => (400_000, 499_000, 500),
        }
    }

    /// Rows of the detail table the shape's GMDJ scans.
    pub fn detail_rows(self, w: &Workload) -> usize {
        match self {
            Shape::AllNeq => w.parts,
            _ => w.orders,
        }
    }

    /// What bounds the shape's time on `w`: a detail table of 100k rows
    /// or more streams from memory, a smaller one stays in cache.
    pub fn kind(self, w: &Workload) -> Kind {
        if self.detail_rows(w) >= 100_000 {
            Kind::Memory
        } else {
            Kind::Compute
        }
    }

    /// The query text for constant `k`.
    pub fn sql(self, k: i64) -> String {
        match self {
            Shape::Exists => format!(
                "SELECT c.custkey FROM customer c WHERE EXISTS (SELECT * FROM orders o \
                 WHERE o.custkey = c.custkey AND o.totalprice > {k})"
            ),
            Shape::AggCmp => format!(
                "SELECT c.custkey FROM customer c WHERE c.acctbal * {k} < \
                 (SELECT avg(o.totalprice) FROM orders o WHERE o.custkey = c.custkey)"
            ),
            Shape::AllNeq => {
                // The constant drops one part from the outer block: it
                // makes the text distinct while the scan stays the same.
                let skip = if k == 0 {
                    String::new()
                } else {
                    format!("p1.partkey <> {k} AND ")
                };
                format!(
                    "SELECT p1.partkey FROM part p1 WHERE {skip}p1.retailprice >= ALL \
                     (SELECT p2.retailprice FROM part p2 WHERE p1.partkey <> p2.partkey)"
                )
            }
            Shape::TreeExists => format!(
                "SELECT c.custkey FROM customer c WHERE \
                 EXISTS (SELECT * FROM orders o WHERE o.custkey = c.custkey \
                 AND o.orderpriority = '1-URGENT' AND o.totalprice > {k}) AND \
                 EXISTS (SELECT * FROM orders o2 WHERE o2.custkey = c.custkey \
                 AND o2.orderpriority = '5-LOW' AND o2.totalprice > {k})"
            ),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub customers: usize,
    pub orders: usize,
    pub parts: usize,
    pub policy: ExecPolicy,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Route queries through one shared-scan pool.
    pub pooled: bool,
    /// Constants per shape in the seeded pool; `None` sends the paper's
    /// constants only.
    pub pool_per_shape: Option<usize>,
}

pub const NAMES: [&str; 4] = ["paper_seq", "paper_par2", "pooled2", "small_seq"];

impl Workload {
    /// The named workload, at paper size or (`tiny`) at a size for tests.
    pub fn named(name: &str, tiny: bool) -> Option<Workload> {
        let (paper, small) = if tiny {
            ((40, 4_000, 200), (20, 400, 50))
        } else {
            ((1_000, 1_200_000, 4_000), (100, 2_000, 200))
        };
        let ((customers, orders, parts), policy, clients, pooled, pool_per_shape) = match name {
            "paper_seq" => (paper, ExecPolicy::sequential(), 1, false, None),
            "paper_par2" => (paper, ExecPolicy::parallel(THREADS), 1, false, None),
            // Each client owns half of a 4-constant pool, so two
            // concurrent queries are never the same query.
            "pooled2" => (paper, ExecPolicy::parallel(THREADS), THREADS, true, Some(4)),
            // About two plan-cache capacities of distinct texts: with FIFO
            // eviction and uniform draws, about half the lookups hit.
            "small_seq" => (
                small,
                ExecPolicy::sequential(),
                1,
                false,
                Some(2 * CACHE_CAP / Shape::ALL.len()),
            ),
            _ => return None,
        };
        Some(Workload {
            name: NAMES.iter().find(|n| **n == name)?,
            customers,
            orders,
            parts,
            policy,
            clients,
            pooled,
            pool_per_shape,
        })
    }

    /// Threads the workload keeps busy: its clients or its engine
    /// workers, whichever are more.
    pub fn threads(&self) -> usize {
        let engine = match self.policy.mode {
            ExecMode::Parallel { threads } => threads,
            _ => 1,
        };
        engine.max(self.clients)
    }

    pub fn policy_label(&self) -> String {
        if self.pooled {
            format!("{}+pool{THREADS}", self.policy.label())
        } else {
            self.policy.label()
        }
    }

    /// Generate the TPC-R-style tables for `seed`.
    ///
    /// `part` alone comes from a fixed seed. Under completion the ALL
    /// query's work depends on the prices of the first parts scanned:
    /// seeds 11-14 gave 39k-98k probe candidates on the same 4k parts,
    /// which would make `all_neq_ms_p50` measure the seed, not the code.
    pub fn generate(&self, seed: u64) -> TpcrData {
        let config = |seed, parts| TpcrConfig {
            customers: self.customers,
            orders: self.orders,
            lineitems: 1,
            parts,
            suppliers: 1,
            seed,
        };
        let mut data = TpcrData::generate(&config(seed, 1));
        data.part = TpcrData::generate(&TpcrConfig {
            customers: 1,
            orders: 1,
            ..config(PART_SEED, self.parts)
        })
        .part;
        data
    }

    /// The shared-scan pool of the pooled workload: two pass threads,
    /// released as soon as both clients have queued.
    pub fn scan_pool(&self) -> Option<Arc<SharedScanPool>> {
        self.pooled.then(|| {
            Arc::new(SharedScanPool::new(SharedScanConfig {
                threads: THREADS,
                target_batch: THREADS,
                ..SharedScanConfig::default()
            }))
        })
    }

    /// Every client's query stream.
    pub fn clients(&self, seed: u64) -> Vec<Client> {
        let pools: Vec<Vec<i64>> = Shape::ALL
            .iter()
            .enumerate()
            .map(|(i, &shape)| match self.pool_per_shape {
                None => vec![shape.paper_constant()],
                Some(n) => draw_pool(shape, n, seed ^ (0x5EED_0000 + i as u64)),
            })
            .collect();
        (0..self.clients)
            .map(|c| Client {
                constants: pools
                    .iter()
                    .map(|pool| {
                        let own: Vec<i64> = pool
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| j % self.clients == c)
                            .map(|(_, &k)| k)
                            .collect();
                        if own.is_empty() {
                            pool.clone()
                        } else {
                            own
                        }
                    })
                    .collect(),
                rng: SplitMix64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(c as u64 + 1)),
                next_shape: 0,
            })
            .collect()
    }
}

/// `n` distinct constants for `shape`, drawn from its candidate range.
fn draw_pool(shape: Shape, n: usize, seed: u64) -> Vec<i64> {
    let (lo, hi, step) = shape.constant_range();
    let mut candidates: Vec<i64> = (lo..=hi).step_by(step as usize).collect();
    let mut rng = SplitMix64(seed);
    // Partial Fisher-Yates: the first `n` slots become the sample.
    let n = n.min(candidates.len());
    for i in 0..n {
        let j = i + rng.below(candidates.len() - i);
        candidates.swap(i, j);
    }
    candidates.truncate(n);
    candidates
}

/// One query the mix sends.
#[derive(Debug, Clone)]
pub struct Query {
    pub shape: Shape,
    pub sql: String,
}

/// A closed-loop client: cycles through the four shapes in a fixed order,
/// drawing each shape's constant from its own part of the pool.
#[derive(Debug, Clone)]
pub struct Client {
    constants: Vec<Vec<i64>>,
    rng: SplitMix64,
    next_shape: usize,
}

impl Client {
    /// The next query, and whether it completes a cycle of the mix.
    pub fn next_query(&mut self) -> (Query, bool) {
        let i = self.next_shape;
        self.next_shape = (i + 1) % Shape::ALL.len();
        let pool = &self.constants[i];
        let k = pool[self.rng.below(pool.len())];
        let shape = Shape::ALL[i];
        (
            Query {
                shape,
                sql: shape.sql(k),
            },
            self.next_shape == 0,
        )
    }

    /// Every query text this client can send.
    pub fn all_queries(&self) -> Vec<Query> {
        Shape::ALL
            .iter()
            .zip(&self.constants)
            .flat_map(|(&shape, pool)| {
                pool.iter().map(move |&k| Query {
                    shape,
                    sql: shape.sql(k),
                })
            })
            .collect()
    }
}

/// SplitMix64: a small seeded generator, so the constant pools depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
