//! Host-speed calibration.
//!
//! The machines the benchmark runs on are shared. Memory-bound work can
//! run twice as slowly in one minute as in the next while cache-resident
//! work keeps its speed, and at other times the reverse holds, so
//! wall-clock times of identical code drift with the neighbours. Two fixed
//! kernels that belong to the benchmark, not to the engine, are timed
//! between queries on as many threads as the workload uses:
//!
//! * [`Kind::Memory`]: random gathers and a strided read over a 16 MB
//!   table, like the hash probes and column scans over 1.2M orders;
//! * [`Kind::Compute`]: comparisons and hashing within 16 KB, like the
//!   quadratic ALL scan over 4k parts and the front end's small plans.
//!
//! The median of a kernel's runs nearest a query in time says how fast the
//! host was for that kind of work while the query ran. Each timed figure is
//! scaled by the kernel of its kind to a reference host, on which the
//! kernels take [`Kind::reference_ms`]. The raw wall-clock figures are
//! printed next to the scaled ones.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// Which resource a piece of timed work is bound by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Memory,
    Compute,
}

impl Kind {
    /// Kernel time on the reference host: about these kernels' medians on
    /// a 2-vCPU Xeon at 2.1 GHz while its neighbours were quiet, so scaled
    /// times read close to that host's milliseconds.
    pub fn reference_ms(self) -> f64 {
        match self {
            Kind::Memory => 2.5,
            Kind::Compute => 1.5,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Memory => "memory",
            Kind::Compute => "compute",
        }
    }
}

/// Table the memory kernel gathers from: 16 MB, larger than the per-core
/// caches.
const TABLE_WORDS: usize = 1 << 21;
const MEMORY_STEPS: usize = 120_000;

/// The compute kernel's array: 16 KB, inside the first-level cache.
const SMALL_WORDS: usize = 2048;
const COMPUTE_ROUNDS: usize = 24;

/// Kernel runs nearest a moment in time whose median gives the host's
/// speed then: at one run every 50 ms, about half a second.
const NEAREST: usize = 9;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Independent random gathers from `table`, a strided read, and stores to
/// a small accumulator array. Returns its time in ms.
fn memory_kernel(table: &[u64], salt: u64) -> f64 {
    let start = Instant::now();
    let mask = table.len() - 1;
    let mut acc = [0u64; 1024];
    let mut x = salt;
    for i in 0..MEMORY_STEPS {
        x = mix(x);
        let v = table[x as usize & mask] ^ table[(i * 8) & mask];
        let slot = (v as usize) & (acc.len() - 1);
        acc[slot] = acc[slot].wrapping_add(v.rotate_left(7) ^ x);
    }
    black_box(acc);
    elapsed_ms(start)
}

/// Every value of a small array compared with every other, as `>= ALL`
/// does, plus a dependent hash chain. Returns its time in ms.
fn compute_kernel(salt: u64) -> f64 {
    let start = Instant::now();
    let vals: Vec<u64> = (0..SMALL_WORDS as u64)
        .map(|i| mix(i ^ salt) >> 40)
        .collect();
    let mut winners = 0u64;
    let mut h = salt;
    for r in 0..COMPUTE_ROUNDS {
        let probe = black_box(&vals);
        for (i, &a) in probe.iter().enumerate().skip(r * 64).take(64) {
            winners += probe.iter().filter(|&&b| a >= b).count() as u64;
            h = mix(h ^ a ^ i as u64);
        }
    }
    black_box((winners, h));
    elapsed_ms(start)
}

fn to_reference(kind: Kind, kernel_ms: f64) -> f64 {
    if kernel_ms > 0.0 {
        kind.reference_ms() / kernel_ms
    } else {
        1.0
    }
}

/// Runs the kernels and keeps their times.
pub struct Calibrator {
    table: Vec<u64>,
    threads: usize,
    /// When each sample started, in order.
    at: Vec<Instant>,
    /// Kernel times in ms; on several threads, the slowest thread's.
    memory: Vec<f64>,
    compute: Vec<f64>,
}

impl Calibrator {
    /// A calibrator that runs the kernels on `threads` threads at once.
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            table: (0..TABLE_WORDS as u64).map(mix).collect(),
            threads: threads.max(1),
            at: Vec::new(),
            memory: Vec::new(),
            compute: Vec::new(),
        }
    }

    /// Run each kernel once on every thread at once and record the slowest
    /// thread's time. One copy runs on the caller's thread, where the
    /// queries run.
    pub fn sample(&mut self) {
        let salt = self.memory.len() as u64;
        self.at.push(Instant::now());
        let table = &self.table;
        let on_threads = |f: &(dyn Fn(u64) -> f64 + Sync)| -> f64 {
            std::thread::scope(|scope| {
                let others: Vec<_> = (1..self.threads)
                    .map(|t| scope.spawn(move || f(salt ^ ((t as u64) << 32))))
                    .collect();
                let own = f(salt);
                others
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread panicked"))
                    .fold(own, f64::max)
            })
        };
        let memory = on_threads(&|s| memory_kernel(table, s));
        let compute = on_threads(&compute_kernel);
        self.memory.push(memory);
        self.compute.push(compute);
    }

    fn times(&self, kind: Kind) -> &[f64] {
        match kind {
            Kind::Memory => &self.memory,
            Kind::Compute => &self.compute,
        }
    }

    /// Median kernel time of `kind` over every sample so far, in ms.
    pub fn kernel_ms(&self, kind: Kind) -> f64 {
        median(self.times(kind))
    }

    /// Factor that turns a time of `kind` measured during the samples into
    /// a time on the reference host.
    pub fn scale(&self, kind: Kind) -> f64 {
        to_reference(kind, self.kernel_ms(kind))
    }

    /// Factor that turns a time of `kind` measured at `t` into a time on
    /// the reference host, from the [`NEAREST`] samples closest to `t`.
    pub fn scale_at(&self, kind: Kind, t: Instant) -> f64 {
        let n = self.at.len();
        let width = NEAREST.min(n);
        let first = self
            .at
            .partition_point(|&a| a < t)
            .saturating_sub(width / 2)
            .min(n - width);
        to_reference(kind, median(&self.times(kind)[first..first + width]))
    }

    pub fn count(&self) -> usize {
        self.memory.len()
    }

    /// One line for the report.
    pub fn describe(&self) -> String {
        format!(
            "memory kernel {:.4} ms (scale {:.4}), compute kernel {:.4} ms (scale {:.4}); \
             median of {} runs on {} thread(s)",
            self.kernel_ms(Kind::Memory),
            self.scale(Kind::Memory),
            self.kernel_ms(Kind::Compute),
            self.scale(Kind::Compute),
            self.count(),
            self.threads
        )
    }
}
