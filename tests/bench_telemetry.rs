//! Integration tests for the bench telemetry subsystem
//! (`crates/bench/src/telemetry.rs`, `repro bench`):
//!
//! * counter determinism — the same seed under `seq` produces a
//!   byte-identical counter section across two independent runs;
//! * schema validation — a hand-corrupted report is rejected;
//! * baseline gating — an injected counter drift fails the gate with a
//!   plan-node diff.

use gmdj_bench::profile::{parse_json, Json};
use gmdj_bench::telemetry::{
    compare_reports, counter_keys, counter_section, run_bench, validate_bench, BenchConfig,
};
use gmdj_bench::FigureId;

/// A tiny but representative configuration: one figure, sequential only,
/// no ablations — fast enough to run twice in a test.
fn tiny() -> BenchConfig {
    BenchConfig {
        figures: vec![FigureId::Fig2],
        scale: 0.002,
        seed: 42,
        ablations: false,
        cross_policy: false,
        quick: true,
        concurrent: None,
    }
}

#[test]
fn same_seed_sequential_counter_sections_are_byte_identical() {
    let a = run_bench(&tiny()).unwrap();
    let b = run_bench(&tiny()).unwrap();
    let sa = counter_section(&parse_json(&a.to_json()).unwrap()).unwrap();
    let sb = counter_section(&parse_json(&b.to_json()).unwrap()).unwrap();
    assert!(!sa.is_empty());
    assert_eq!(
        sa, sb,
        "counter sections must be byte-identical at a fixed seed"
    );
    assert!(sa.contains("theta_evals="), "{sa}");
    assert!(sa.contains("plan GMDJ") || sa.contains("plan "), "{sa}");
}

#[test]
fn cross_policy_counters_are_reproducible_too() {
    let cfg = BenchConfig {
        cross_policy: true,
        ..tiny()
    };
    let a = run_bench(&cfg).unwrap();
    let b = run_bench(&cfg).unwrap();
    let sa = counter_section(&parse_json(&a.to_json()).unwrap()).unwrap();
    let sb = counter_section(&parse_json(&b.to_json()).unwrap()).unwrap();
    assert!(sa.contains(" par2\n"), "{sa}");
    assert!(sa.contains(" dist2\n"), "{sa}");
    assert_eq!(sa, sb);
}

#[test]
fn generated_report_validates_and_corruptions_are_rejected() {
    let report = run_bench(&tiny()).unwrap();
    let json = report.to_json();
    let doc = parse_json(&json).unwrap();
    validate_bench(&doc).unwrap();

    // Hand-corrupt the report in several ways; each must be rejected.
    let corruptions = [
        // Wrong version.
        (
            json.replacen("\"version\":5", "\"version\":999", 1),
            "version",
        ),
        // A counter key deleted from the first entry.
        (
            json.replacen("\"theta_evals\":", "\"theta_evalz\":", 1),
            "theta_evals",
        ),
        // Policy label replaced by a number.
        (
            json.replacen("\"policy\":\"seq\"", "\"policy\":1", 1),
            "policy",
        ),
        // A plan node loses its children.
        (
            json.replacen("\"children\":", "\"childrem\":", 1),
            "children",
        ),
        // Mode outside the enum.
        (
            json.replacen("\"mode\":\"quick\"", "\"mode\":\"fast\"", 1),
            "mode",
        ),
        // Well-typed numbers outside the schema's bounds: a negative
        // gated counter, a fractional row count, a negative plan-node
        // counter, a negative seed.
        (
            set_number_after(&json, "\"counters\":{", "theta_evals", "-7"),
            "theta_evals",
        ),
        (set_number_after(&json, "", "rows", "2.5"), "rows"),
        (
            set_number_after(&json, "\"plan\":{", "detail_scanned", "-1"),
            "detail_scanned",
        ),
        (set_number_after(&json, "", "seed", "-1"), "seed"),
    ];
    for (corrupted, what) in corruptions {
        assert_ne!(corrupted, json, "corruption `{what}` did not apply");
        let doc = parse_json(&corrupted).expect("still valid JSON");
        let err = validate_bench(&doc).expect_err(&format!("`{what}` corruption must fail"));
        assert!(!err.is_empty());
    }
}

/// Replace the number of the first `"key":<number>` after the first
/// occurrence of `anchor` with the literal `value`.
fn set_number_after(json: &str, anchor: &str, key: &str, value: &str) -> String {
    let needle = format!("\"{key}\":");
    let from = json.find(anchor).expect("anchor present");
    let at = from + json[from..].find(&needle).expect("key present") + needle.len();
    let end = at
        + json[at..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("number terminated");
    format!("{}{}{}", &json[..at], value, &json[end..])
}

/// Replace the first occurrence of `"key":<number>` after `from` with
/// `"key":<number + delta>` — a surgical counter injection.
fn bump_counter(json: &str, key: &str, delta: u64) -> String {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle).expect("counter present") + needle.len();
    let end = at
        + json[at..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("number terminated");
    let value: u64 = json[at..end].parse().expect("counter numeric");
    format!("{}{}{}", &json[..at], value + delta, &json[end..])
}

#[test]
fn baseline_gate_flags_injected_counter_drift() {
    let report = run_bench(&tiny()).unwrap();
    let json = report.to_json();
    let baseline = parse_json(&json).unwrap();

    // Identical documents: gate passes, nothing to report.
    let clean = compare_reports(&baseline, &baseline).unwrap();
    assert!(!clean.gate_failed(), "{}", clean.render());

    // Inject +7 into the first theta_evals counter: hard failure.
    let drifted = parse_json(&bump_counter(&json, "theta_evals", 7)).unwrap();
    validate_bench(&drifted).unwrap();
    let cmp = compare_reports(&drifted, &baseline).unwrap();
    assert!(cmp.gate_failed(), "injected drift must fail the gate");
    let rendered = cmp.render();
    assert!(rendered.contains("DRIFT"), "{rendered}");
    assert!(rendered.contains("theta_evals"), "{rendered}");
}

#[test]
fn plan_node_drift_names_the_regressed_node_with_costs() {
    let report = run_bench(&tiny()).unwrap();
    let json = report.to_json();
    let baseline = parse_json(&json).unwrap();

    // `rows_out` only exists inside plan counter trees (the entry level
    // uses `rows`), so bumping its first occurrence drifts a plan node
    // while leaving every entry-level rollup untouched — the gate must
    // still fail, pointing at the node and pricing it.
    let drifted = parse_json(&bump_counter(&json, "rows_out", 3)).unwrap();
    let cmp = compare_reports(&drifted, &baseline).unwrap();
    assert!(cmp.gate_failed());
    let rendered = cmp.render();
    assert!(rendered.contains("plan node"), "{rendered}");
    assert!(rendered.contains("cost predicted="), "{rendered}");
    assert!(rendered.contains("observed="), "{rendered}");
}

#[test]
fn gated_entry_missing_from_current_run_is_a_drift() {
    let report = run_bench(&tiny()).unwrap();
    let baseline = parse_json(&report.to_json()).unwrap();
    // Simulate a shrunken grid: drop the last entry from the parsed tree.
    let mut current = parse_json(&report.to_json()).unwrap();
    if let Json::Obj(members) = &mut current {
        for (key, value) in members.iter_mut() {
            if key == "entries" {
                if let Json::Arr(entries) = value {
                    assert!(entries.len() >= 2);
                    entries.pop();
                }
            }
        }
    }
    validate_bench(&current).unwrap();
    let cmp = compare_reports(&current, &baseline).unwrap();
    assert!(cmp.gate_failed());
    assert!(
        cmp.render().contains("missing from current run"),
        "{}",
        cmp.render()
    );
}

#[test]
fn configuration_mismatch_refuses_comparison() {
    let a = parse_json(&run_bench(&tiny()).unwrap().to_json()).unwrap();
    let other = BenchConfig { seed: 7, ..tiny() };
    let b = parse_json(&run_bench(&other).unwrap().to_json()).unwrap();
    let cmp = compare_reports(&a, &b).unwrap();
    assert!(cmp.gate_failed());
    assert!(
        cmp.render().contains("configuration mismatch"),
        "{}",
        cmp.render()
    );
}

#[test]
fn checked_in_baseline_is_schema_valid() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");
    let text = std::fs::read_to_string(path).expect("bench/baseline.json is checked in");
    let doc = parse_json(&text).unwrap();
    validate_bench(&doc).unwrap();
    // The baseline must gate-compare cleanly against itself and contain
    // every workload group plus the ablation grid.
    let cmp = compare_reports(&doc, &doc).unwrap();
    assert!(!cmp.gate_failed());
    let section = counter_section(&doc).unwrap();
    for group in [
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "ablation/probe",
        "ablation/threads",
    ] {
        assert!(section.contains(group), "baseline lacks {group}");
    }
    // Every entry carries the full counter key set.
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
    for e in entries {
        let counters = e.get("counters").unwrap();
        for key in counter_keys() {
            assert!(counters.get(key).is_some(), "baseline entry missing {key}");
        }
    }
    // The columnar payoff, recorded: every workload whose scan touched
    // pages at all references fewer columns than the full detail schema,
    // so its column-chunk reads are strictly below the row layout's
    // full-width page reads.
    let mut narrowed = 0;
    for e in entries {
        let counters = e.get("counters").unwrap();
        let num = |k: &str| counters.get(k).and_then(Json::as_num).unwrap() as u64;
        let (col, row) = (num("col_chunk_reads"), num("row_page_reads"));
        if row > 0 {
            assert!(
                col < row,
                "baseline entry {} {} reads as many column chunks ({col}) as row pages ({row})",
                e.get("group").and_then(Json::as_str).unwrap_or("?"),
                e.get("label").and_then(Json::as_str).unwrap_or("?"),
            );
            narrowed += 1;
        }
    }
    assert!(narrowed > 0, "no entry recorded page accounting");
}
