//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **coalescing** (Prop. 4.1) vs chained GMDJs, on the Figure 5 query;
//! * **base-tuple completion** (Theorems 4.1/4.2) vs plain filtered
//!   evaluation, on the Figure 4 query;
//! * **intrinsic probe indexing** (hash/interval) vs scanning the active
//!   base tuples, on the Figure 2 query;
//! * **memory-partitioned evaluation**: the single-scan in-memory GMDJ vs
//!   2/4/8 base partitions (one detail scan each);
//! * **threads**: `ExecPolicy::Parallel` with 1/2/4/8 workers over the
//!   detail scan (answers are identical; only wall-clock moves).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gmdj_bench::{bench_instance, FigureId};
use gmdj_core::exec::{execute, ExecContext};
use gmdj_core::optimize::{optimize_with, OptFlags};
use gmdj_core::runtime::ExecPolicy;
use gmdj_core::translate::subquery_to_gmdj;
use gmdj_engine::strategy::{run, Strategy};

fn coalescing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_coalescing");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let (catalog, query) = bench_instance(FigureId::Fig5, 100, 60_000, 42);
    let base_plan = subquery_to_gmdj(&query, &catalog).unwrap();
    let variants = [
        (
            "chained",
            OptFlags {
                hoist: false,
                coalesce: false,
                completion: false,
            },
        ),
        (
            "hoisted",
            OptFlags {
                hoist: true,
                coalesce: false,
                completion: false,
            },
        ),
        (
            "coalesced",
            OptFlags {
                hoist: true,
                coalesce: true,
                completion: false,
            },
        ),
        (
            "coalesced+completion",
            OptFlags {
                hoist: true,
                coalesce: true,
                completion: true,
            },
        ),
    ];
    for (name, flags) in variants {
        let plan = optimize_with(&base_plan, &flags);
        group.bench_function(BenchmarkId::new(name, "fig5@100x60k"), |b| {
            b.iter(|| {
                let mut ctx = ExecContext::new();
                execute(&plan, &catalog, &mut ctx).unwrap().len()
            })
        });
    }
    group.finish();
}

fn completion(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_completion");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let (catalog, query) = bench_instance(FigureId::Fig4, 1500, 1500, 42);
    // Both pair by pair: under `Auto` the optimized plan ranks the ALL
    // blocks and visits no pair.
    for (name, strat) in [
        ("without-completion", Strategy::GmdjBasic),
        ("with-completion", Strategy::GmdjOptimizedNoProbeIndex),
    ] {
        group.bench_function(BenchmarkId::new(name, "fig4@1500"), |b| {
            b.iter(|| run(&query, &catalog, strat).unwrap().relation.len())
        });
    }
    group.finish();
}

fn probe_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_probe_index");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let (catalog, query) = bench_instance(FigureId::Fig2, 200, 60_000, 42);
    for (name, strat) in [
        ("hash-probe", Strategy::GmdjBasic),
        ("active-scan", Strategy::GmdjBasicNoProbeIndex),
    ] {
        group.bench_function(BenchmarkId::new(name, "fig2@200x60k"), |b| {
            b.iter(|| run(&query, &catalog, strat).unwrap().relation.len())
        });
    }
    group.finish();
}

fn memory_partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_memory_partitioning");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let (catalog, query) = bench_instance(FigureId::Fig2, 400, 60_000, 42);
    let plan = subquery_to_gmdj(&query, &catalog).unwrap();
    for partitions in [1usize, 2, 4, 8] {
        let rows = 400usize.div_ceil(partitions);
        group.bench_function(BenchmarkId::new("partitions", partitions), |b| {
            b.iter(|| {
                let mut ctx = ExecContext::with_policy(
                    ExecPolicy::sequential().with_partition_rows(Some(rows)),
                );
                execute(&plan, &catalog, &mut ctx).unwrap().len()
            })
        });
    }
    group.finish();
}

fn threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_threads");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let (catalog, query) = bench_instance(FigureId::Fig2, 400, 60_000, 42);
    let plan = subquery_to_gmdj(&query, &catalog).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let policy = if threads == 1 {
            ExecPolicy::sequential()
        } else {
            ExecPolicy::parallel(threads)
        };
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                let mut ctx = ExecContext::with_policy(policy);
                execute(&plan, &catalog, &mut ctx).unwrap().len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    coalescing,
    completion,
    probe_index,
    memory_partitioning,
    threads
);
criterion_main!(benches);
