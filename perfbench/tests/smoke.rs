//! Every workload, at a tiny size under two seeds, prints every metric
//! that `BENCHMARK.json` names, with its unit, and fails no query.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["paper_seq", "paper_par2", "pooled2", "small_seq"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in a flat JSON object.
fn field(obj: &str, key: &str) -> String {
    let pat = format!("\"{key}\": \"");
    let from = obj.find(&pat).unwrap_or_else(|| panic!("{key} in {obj}")) + pat.len();
    obj[from..from + obj[from..].find('"').expect("closing quote")].to_string()
}

fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gmdj-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, seed: u64, trace: u8, section: &str) {
    let result = run(workload, seed, trace);
    assert!(result.starts_with("{\"correct\": true"), "{result}");
    assert!(result.contains("\"failed\": 0,"), "{result}");
    assert!(!result.contains("\"attempted\": 0,"), "{result}");
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
        let rest = &result[at + entry.len()..];
        assert!(
            rest.split('}')
                .next()
                .is_some_and(|v| v.ends_with(&format!("\"unit\": \"{unit}\""))),
            "{workload}: {name} lacks unit {unit}"
        );
    }
}

#[test]
fn end_to_end_metrics_under_two_seeds() {
    for workload in WORKLOADS {
        for seed in [1, 2] {
            check(workload, seed, 0, "end_to_end");
        }
    }
}

#[test]
fn per_layer_metrics_under_two_seeds() {
    for workload in WORKLOADS {
        for seed in [1, 2] {
            check(workload, seed, 1, "per_layer");
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_gmdj-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
