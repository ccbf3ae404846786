//! Host facts, summary statistics, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Print every metric as a text line, then the one-line JSON result that
/// ends standard output.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            json,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs`; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MB.
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the process's `VmHWM` to its current resident size, so that a
/// later read covers only what runs after. Returns whether the kernel took
/// the reset; when it did not, `VmHWM` still covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

extern "C" {
    /// glibc: return free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand freed heap pages back to the kernel, so that a following `VmRSS`
/// difference counts new memory rather than reused free pages.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator holds free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The report header: host, build, and run facts.
pub fn print_header(lines: &[(&str, String)]) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("# nproc        {nproc}");
    println!("# cpu          {}", cpu_model());
    println!("# profile      {profile}");
    for (k, v) in lines {
        println!("# {k:<12} {v}");
    }
}
