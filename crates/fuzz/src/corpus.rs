//! Self-contained repro files.
//!
//! A corpus case carries everything needed to replay a differential
//! check with no generator involved: the SQL text, every table as CSV,
//! and the originating seed. Failing cases additionally embed the
//! observed divergence and the span trace of the failing run (PR 2's
//! profiler output), so a repro ships with its profile.
//!
//! Format (line-oriented, `#` comments ignored):
//!
//! ```text
//! # gmdj-fuzz case v1
//! seed: 42
//! == sql
//! SELECT * FROM B B0 WHERE …
//! == table B
//! a,b
//! 1,
//! == divergence          (optional, informational)
//! strategy: gmdj-opt
//! …
//! == trace               (optional, informational)
//! {"name":"query.execute", …}
//! == end
//! ```
//!
//! Empty CSV cells are NULL; all columns are integers.

use std::fmt::Write as _;

use gmdj_relation::error::{Error, Result};

use crate::driver::Divergence;
use crate::spec::{FuzzCase, TableSpec};

/// Render a case (plus optional failure context) to the corpus format.
pub fn render_case(case: &FuzzCase, failure: Option<&Divergence>, trace: &[String]) -> String {
    let mut out = String::new();
    out.push_str("# gmdj-fuzz case v1\n");
    let _ = writeln!(out, "seed: {}", case.seed);
    out.push_str("== sql\n");
    let _ = writeln!(out, "{}", case.sql.trim());
    for t in &case.tables {
        let _ = writeln!(out, "== table {}", t.name);
        let _ = writeln!(out, "{}", t.columns.join(","));
        for row in &t.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|v| v.map(|n| n.to_string()).unwrap_or_default())
                .collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
    }
    if let Some(d) = failure {
        out.push_str("== divergence\n");
        let _ = writeln!(out, "strategy: {}", d.strategy.label());
        let _ = writeln!(out, "policy: {}", d.policy.label());
        let _ = writeln!(out, "oracle_rows: {}", d.oracle_rows);
        match d.actual_rows {
            Some(n) => {
                let _ = writeln!(out, "actual_rows: {n}");
            }
            None => out.push_str("actual_rows: error\n"),
        }
        for line in d.detail.lines() {
            let _ = writeln!(out, "# {line}");
        }
    }
    if !trace.is_empty() {
        out.push_str("== trace\n");
        for line in trace {
            let _ = writeln!(out, "{line}");
        }
    }
    out.push_str("== end\n");
    out
}

/// Parse the corpus format back into a replayable case. The
/// `divergence`/`trace` sections are informational and skipped.
pub fn parse_case(text: &str) -> Result<FuzzCase> {
    let mut seed = 0u64;
    let mut sql: Option<String> = None;
    let mut tables: Vec<TableSpec> = Vec::new();

    #[derive(PartialEq)]
    enum Section {
        Preamble,
        Sql,
        Table,
        Skip,
    }
    let mut section = Section::Preamble;
    let mut sql_lines: Vec<&str> = Vec::new();
    let mut table_header_pending = false;

    for raw in text.lines() {
        let line = raw.trim_end();
        if line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("== ") {
            // Close out a finished SQL section.
            if section == Section::Sql {
                sql = Some(sql_lines.join("\n").trim().to_string());
            }
            match rest.trim() {
                "sql" => {
                    section = Section::Sql;
                    sql_lines.clear();
                }
                "end" => {
                    section = Section::Skip;
                }
                "divergence" | "trace" => section = Section::Skip,
                other => {
                    let Some(name) = other.strip_prefix("table ") else {
                        return Err(Error::invalid(format!("unknown corpus section `{other}`")));
                    };
                    tables.push(TableSpec::new(name.trim(), &[]));
                    table_header_pending = true;
                    section = Section::Table;
                }
            }
            continue;
        }
        match section {
            Section::Preamble => {
                if let Some(v) = line.strip_prefix("seed:") {
                    seed = v
                        .trim()
                        .parse()
                        .map_err(|_| Error::invalid(format!("bad seed line `{line}`")))?;
                } else if !line.is_empty() {
                    return Err(Error::invalid(format!("unexpected preamble line `{line}`")));
                }
            }
            Section::Sql => sql_lines.push(line),
            Section::Table => {
                let table = tables.last_mut().expect("inside a table section");
                if table_header_pending {
                    table.columns = line.split(',').map(|c| c.trim().to_string()).collect();
                    table_header_pending = false;
                } else if !line.is_empty() {
                    let row: Vec<Option<i64>> = line
                        .split(',')
                        .map(|cell| {
                            let cell = cell.trim();
                            if cell.is_empty() {
                                Ok(None)
                            } else {
                                cell.parse::<i64>().map(Some).map_err(|_| {
                                    Error::invalid(format!("bad integer cell `{cell}`"))
                                })
                            }
                        })
                        .collect::<Result<_>>()?;
                    if row.len() != table.columns.len() {
                        return Err(Error::invalid(format!(
                            "row arity {} does not match {} columns of table {}",
                            row.len(),
                            table.columns.len(),
                            table.name
                        )));
                    }
                    table.rows.push(row);
                }
            }
            Section::Skip => {}
        }
    }
    if section == Section::Sql {
        sql = Some(sql_lines.join("\n").trim().to_string());
    }
    let sql = sql.ok_or_else(|| Error::invalid("corpus case has no `== sql` section"))?;
    if sql.is_empty() {
        return Err(Error::invalid("corpus case has an empty SQL section"));
    }
    Ok(FuzzCase {
        seed,
        tables,
        sql,
        spec: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{check_case, CheckOptions};
    use crate::gen::{generate_case, GenConfig};
    use crate::rng::case_seed;

    #[test]
    fn round_trips_generated_cases() {
        let cfg = GenConfig::default();
        for i in 0..25 {
            let case = generate_case(case_seed(5, i), &cfg);
            let text = render_case(&case, None, &[]);
            let back = parse_case(&text).unwrap();
            assert_eq!(back.seed, case.seed);
            assert_eq!(back.sql, case.sql);
            assert_eq!(back.tables, case.tables);
            // Replaying the round-tripped case produces the same verdict.
            let opts = CheckOptions::default();
            assert_eq!(
                check_case(&case, &opts).passed(),
                check_case(&back, &opts).passed()
            );
        }
    }

    #[test]
    fn empty_cells_are_null() {
        let text = "# gmdj-fuzz case v1\nseed: 9\n== sql\nSELECT * FROM B B0 WHERE TRUE\n\
                    == table B\na,b\n1,\n,2\n== end\n";
        let case = parse_case(text).unwrap();
        assert_eq!(case.tables[0].rows[0], vec![Some(1), None]);
        assert_eq!(case.tables[0].rows[1], vec![None, Some(2)]);
    }

    #[test]
    fn malformed_files_error() {
        assert!(parse_case("no sections at all").is_err());
        assert!(parse_case("== sql\n\n== end\n").is_err());
        assert!(parse_case("seed: x\n== sql\nSELECT 1\n== end\n").is_err());
    }
}
