//! Machine-readable profiles: the `repro --profile-json` output, and the
//! std-only JSON layer every checked document goes through.
//!
//! A profile is one JSON document carrying, per figure / size point /
//! strategy, the query wall-clock, work counters, and the full timed
//! [`PlanNodeStats`](gmdj_core::runtime::PlanNodeStats) tree. No serde in-tree: documents are read by the
//! hand-rolled [`parse_json`] and checked by [`Schema`], a small
//! interpreter for the draft-07 subset the three checked-in schemas use.
//! The schema files under `schemas/` are compiled in and are the only
//! definition of their documents: [`validate_profile`] is the profile schema alone,
//! [`validate_queries`] adds the one cross-field invariant a schema
//! cannot state (`morsels_done ≤ morsels_total` per active query). CI
//! regenerates a profile and validates it on every push.

use std::sync::OnceLock;

use gmdj_core::progress;
use gmdj_core::runtime::ExecPolicy;
use gmdj_core::trace::json_escape;

use crate::{Figure, Measurement};

/// Schema version written to and required from profile documents.
/// Version 2 added the page-accounting counters (`col_chunk_reads`,
/// `row_page_reads`) to every plan node's `eval` block and `morsels` to
/// its `kernel` block. Version 3 added the top-level `progress` object
/// (the cumulative totals of [`gmdj_core::progress`]'s query registry).
/// Version 4 added the measured wire-byte counters (`bytes_sent`,
/// `bytes_received`) to every plan node's `network` block — zero except
/// under `ExecMode::Distributed`.
/// Version 5 added the optional per-node `sites` array: the distributed
/// coordinator's per-site breakdown (round-trip / site wall / merge
/// durations, rows, fragment size, attempts, wire bytes), present
/// exactly on nodes that ran `ExecMode::Distributed`.
/// Version 6 added `rank_lookups` to every plan node's `eval` block.
pub const PROFILE_VERSION: u64 = 6;

/// Render a full profile document for a set of regenerated figures.
pub fn render_profile(figures: &[Figure], policy: &ExecPolicy, scale: f64, seed: u64) -> String {
    // Cumulative progress-registry totals for every query this process
    // ran (the figures' runs all report into the global registry).
    let (_, totals) = progress::global().snapshot();
    let mut out = format!(
        "{{\"version\":{},\"policy\":\"{}\",\"scale\":{},\"seed\":{},\
         \"progress\":{{\"queries_started\":{},\"queries_finished\":{},\
         \"rows_done\":{},\"morsels_done\":{},\"morsels_total\":{}}},\"figures\":[",
        PROFILE_VERSION,
        json_escape(&policy.label()),
        scale,
        seed,
        totals.queries_started,
        totals.queries_finished,
        totals.rows_done,
        totals.morsels_done,
        totals.morsels_total
    );
    for (i, fig) in figures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"description\":\"{}\",\"points\":[",
            json_escape(fig.name),
            json_escape(fig.description)
        ));
        for (j, p) in fig.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"outer\":{},\"inner\":{},\"measurements\":[",
                json_escape(&p.label),
                p.outer,
                p.inner
            ));
            for (k, m) in p.measurements.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&measurement_json(m));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn measurement_json(m: &Measurement) -> String {
    let plan = match &m.plan {
        Some(tree) => tree.to_json(),
        None => "null".to_string(),
    };
    format!(
        "{{\"strategy\":\"{}\",\"wall_us\":{},\"plan_us\":{},\"work\":{},\"rows\":{},\"plan\":{}}}",
        json_escape(m.strategy.label()),
        m.wall.as_micros(),
        m.plan_wall.as_micros(),
        m.work,
        m.rows,
        plan
    )
}

/// A parsed JSON value — the minimal tree the validator needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The deepest
/// document the repo emits, a Figure 5 profile, nests 17 levels; the cap
/// only keeps hostile input from overflowing the stack.
pub const MAX_DEPTH: usize = 256;

/// Parse a JSON document (strict enough for profiles: no comments, no
/// trailing commas; `\uXXXX` escapes decode, surrogate pairs excluded;
/// nesting deeper than [`MAX_DEPTH`] is an error).
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of unescaped bytes up to the next `"` or
                // `\` as one slice; both are ASCII, so the run ends on
                // a character boundary of the (valid UTF-8) input.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// The checked-in schema files, compiled in (profile, queries, bench):
/// each is the only definition of its document.
const SCHEMA_FILES: [&str; 3] = [
    include_str!("../../../schemas/profile.schema.json"),
    include_str!("../../../schemas/queries.schema.json"),
    include_str!("../../../schemas/bench.schema.json"),
];

/// [`SCHEMA_FILES`], parsed and vetted once per process.
fn schemas() -> &'static [Schema; 3] {
    static CELL: OnceLock<[Schema; 3]> = OnceLock::new();
    CELL.get_or_init(|| {
        SCHEMA_FILES.map(|text| Schema::parse(text).expect("checked-in schema compiles"))
    })
}

/// `schemas/profile.schema.json`, compiled.
pub fn profile_schema() -> &'static Schema {
    &schemas()[0]
}

/// `schemas/bench.schema.json`, compiled.
pub(crate) fn bench_schema() -> &'static Schema {
    &schemas()[2]
}

/// A JSON Schema document restricted to the draft-07 subset the
/// checked-in schemas use: `type`, `required`, `properties`,
/// `additionalProperties` (schema form), `items` (single schema),
/// `const`, `enum`, `minimum`, `exclusiveMinimum` (number form),
/// `minItems`, `oneOf`, and `$ref` into the root's `definitions`.
/// The annotations `$schema`, `$id`, `title` and `description` are
/// ignored; any other keyword fails [`Schema::parse`], so a schema edit
/// can never be silently skipped.
#[derive(Debug)]
pub struct Schema {
    root: Json,
}

impl Schema {
    /// Parse a schema and vet every keyword and `$ref` in it.
    pub fn parse(text: &str) -> Result<Schema, String> {
        let schema = Schema {
            root: parse_json(text)?,
        };
        schema.vet(&schema.root, "#")?;
        Ok(schema)
    }

    /// Validate `doc` against the root schema; the first violation is
    /// reported under the path `at` (the document's name).
    pub fn validate(&self, doc: &Json, at: &str) -> Result<(), String> {
        self.check(&self.root, doc, at)
    }

    /// Validate `doc` against the subschema a local `$ref` names, e.g.
    /// `#/definitions/site`.
    pub fn validate_ref(&self, reference: &str, doc: &Json, at: &str) -> Result<(), String> {
        self.check(self.resolve(reference)?, doc, at)
    }

    fn resolve(&self, reference: &str) -> Result<&Json, String> {
        reference
            .strip_prefix("#/definitions/")
            .and_then(|name| self.root.get("definitions")?.get(name))
            .ok_or_else(|| format!("unresolvable $ref `{reference}`"))
    }

    /// Reject any keyword outside the subset, a malformed keyword value,
    /// or an unresolvable `$ref`, anywhere in `schema`.
    fn vet(&self, schema: &Json, at: &str) -> Result<(), String> {
        let Json::Obj(members) = schema else {
            return Err(format!("{at}: a schema must be an object"));
        };
        for (key, value) in members {
            let at = format!("{at}/{key}");
            let subs: Vec<(String, &Json)> = match (key.as_str(), value) {
                ("$schema" | "$id" | "title" | "description" | "const", _)
                | ("required" | "enum", Json::Arr(_))
                | ("minimum" | "exclusiveMinimum" | "minItems", Json::Num(_)) => vec![],
                ("type", Json::Str(ty)) if type_matches(ty, &Json::Null).is_some() => vec![],
                ("$ref", Json::Str(r)) if self.resolve(r).is_ok() => vec![],
                ("items" | "additionalProperties", _) => vec![(at.clone(), value)],
                ("properties" | "definitions", Json::Obj(m)) => {
                    m.iter().map(|(n, s)| (format!("{at}/{n}"), s)).collect()
                }
                ("oneOf", Json::Arr(a)) => a
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (format!("{at}/{i}"), s))
                    .collect(),
                _ => {
                    return Err(format!(
                        "{at}: unsupported schema keyword or malformed value"
                    ))
                }
            };
            for (at, sub) in subs {
                self.vet(sub, &at)?;
            }
        }
        Ok(())
    }

    /// Apply every keyword of `schema` to `value`, in a fixed order:
    /// the value's own keywords, then its items, then (for an object)
    /// `required` before any member is descended into.
    fn check(&self, schema: &Json, value: &Json, at: &str) -> Result<(), String> {
        if let Some(reference) = schema.get("$ref").and_then(Json::as_str) {
            self.check(self.resolve(reference)?, value, at)?;
        }
        if let Some(ty) = schema.get("type").and_then(Json::as_str) {
            if type_matches(ty, value) != Some(true) {
                return Err(format!("{at}: expected {ty}, got {}", describe(value)));
            }
        }
        if let Some(expected) = schema.get("const").filter(|c| *c != value) {
            let (expected, got) = (describe(expected), describe(value));
            return Err(format!("{at}: must be {expected}, got {got}"));
        }
        let options = schema.get("enum").and_then(Json::as_arr);
        if options.is_some_and(|o| !o.contains(value)) {
            return Err(format!("{at}: {} is not in the enum", describe(value)));
        }
        if let Json::Num(n) = *value {
            let bound = |key| schema.get(key).and_then(Json::as_num);
            if bound("minimum").is_some_and(|m| n < m)
                || bound("exclusiveMinimum").is_some_and(|m| n <= m)
            {
                return Err(format!("{at}: {n} is below the schema's minimum"));
            }
        }
        if let Json::Arr(items) = value {
            let min = schema.get("minItems").and_then(Json::as_num);
            if min.is_some_and(|m| (items.len() as f64) < m) {
                return Err(format!("{at}: {} items, fewer than minItems", items.len()));
            }
            if let Some(item) = schema.get("items") {
                for (i, v) in items.iter().enumerate() {
                    self.check(item, v, &format!("{at}[{i}]"))?;
                }
            }
        }
        if let Json::Obj(members) = value {
            for key in schema.get("required").and_then(Json::as_arr).unwrap_or(&[]) {
                let key = key.as_str().unwrap_or("");
                if value.get(key).is_none() {
                    return Err(format!("{at}: missing required `{key}`"));
                }
            }
            let properties = schema.get("properties");
            for (key, v) in members {
                let sub = properties
                    .and_then(|p| p.get(key))
                    .or_else(|| schema.get("additionalProperties"));
                if let Some(sub) = sub {
                    self.check(sub, v, &format!("{at}.{key}"))?;
                }
            }
        }
        if let Some(Json::Arr(branches)) = schema.get("oneOf") {
            let errors: Vec<String> = branches
                .iter()
                .filter_map(|b| self.check(b, value, at).err())
                .collect();
            let matched = branches.len() - errors.len();
            if matched != 1 {
                let errors = errors.join("; ");
                return Err(format!(
                    "{at}: matches {matched} oneOf branches, not 1 ({errors})"
                ));
            }
        }
        Ok(())
    }
}

/// Whether `value` is an instance of the JSON Schema type `ty`
/// (`integer` is a number without a fractional part, as in draft-07);
/// `None` for a type name outside JSON Schema.
fn type_matches(ty: &str, value: &Json) -> Option<bool> {
    Some(match ty {
        "null" => matches!(value, Json::Null),
        "boolean" => matches!(value, Json::Bool(_)),
        "number" => matches!(value, Json::Num(_)),
        "integer" => matches!(value, Json::Num(n) if n.fract() == 0.0),
        "string" => matches!(value, Json::Str(_)),
        "array" => matches!(value, Json::Arr(_)),
        "object" => matches!(value, Json::Obj(_)),
        _ => return None,
    })
}

/// A short rendering of a value for error messages.
fn describe(value: &Json) -> String {
    match value {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("{s:?}"),
        Json::Arr(_) => "an array".into(),
        Json::Obj(_) => "an object".into(),
    }
}

/// Validate a parsed profile document: `schemas/profile.schema.json`
/// decides it alone. Returns the first violation.
pub fn validate_profile(doc: &Json) -> Result<(), String> {
    profile_schema().validate(doc, "profile")
}

/// Validate a queries/progress document (the shell's `\queries json`,
/// the HTTP `/queries` endpoint): `schemas/queries.schema.json`, plus the
/// live progress invariant `morsels_done ≤ morsels_total` on every
/// active entry, which a schema cannot state.
pub fn validate_queries(doc: &Json) -> Result<(), String> {
    schemas()[1].validate(doc, "queries")?;
    for (i, q) in doc
        .get("active")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let num = |key| q.get(key).and_then(Json::as_num).unwrap_or(0.0);
        let (done, total) = (num("morsels_done"), num("morsels_total"));
        if done > total {
            return Err(format!(
                "queries.active[{i}]: morsels_done {done} exceeds morsels_total {total}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdj_core::distributed::NetworkStats;
    use gmdj_core::eval::{EvalStats, KernelStats};
    use gmdj_core::runtime::{PlanNodeStats, SiteBreakdown};

    #[test]
    fn parser_handles_profile_shapes() {
        let doc = parse_json(r#"{"a":[1,2.5,-3],"b":"x\"yA","c":null,"d":true}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("b").unwrap().as_str().unwrap(), "x\"yA");
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        // Escapes, `\uXXXX` and multi-byte characters mixed in one string.
        let mixed = parse_json(r#""a\n\u00e9é日本\"\\z\u0041Ω""#).unwrap();
        assert_eq!(mixed.as_str().unwrap(), "a\néé日本\"\\zAΩ");
        // Nesting is capped: far past the cap is an error, not a stack
        // overflow.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_cap).is_ok());
        for hostile in [
            "[".repeat(MAX_DEPTH + 1),
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
        ] {
            assert!(parse_json(&hostile).unwrap_err().contains("nesting"));
        }
    }

    #[test]
    fn checked_in_schemas_compile_and_unknown_keywords_fail() {
        for text in SCHEMA_FILES {
            Schema::parse(text).unwrap();
        }
        // A keyword outside the interpreted subset is an error, wherever
        // it sits — never silently skipped.
        for bad in [
            r#"{"type":"string","pattern":"^a"}"#,
            r#"{"properties":{"x":{"type":"string","maxLength":3}}}"#,
            r#"{"oneOf":[{"type":"null"},{"format":"date"}]}"#,
            r#"{"items":[{"type":"null"}]}"#,
            r#"{"type":"decimal"}"#,
            r##"{"$ref":"#/definitions/missing"}"##,
            r#"{"minimum":"0"}"#,
        ] {
            let err = Schema::parse(bad).unwrap_err();
            assert!(
                err.contains("unsupported") || err.contains("schema"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn plan_json_round_trips() {
        let mut node = PlanNodeStats::new("GMDJ");
        node.rows_out = 7;
        node.elapsed_ns = 1234;
        node.invocations = 1;
        node.worker_wall_sum_ns = 55;
        node.worker_wall_max_ns = 44;
        node.ops.rows_in = 3;
        node.ops.rows_out = 2;
        // Every counter distinct and non-zero, so a field written under
        // another field's key cannot pass.
        node.eval = EvalStats::from_values(std::array::from_fn(|i| 100 + i as u64));
        node.kernel = KernelStats::from_values(std::array::from_fn(|i| 200 + i as u64));
        node.network = NetworkStats::from_values(std::array::from_fn(|i| 300 + i as u64));
        // Two round-trips to one site, folded: the sums add, while
        // `label` and `fragment_rows` take the latest value.
        let obs = |attempts, fragment_rows, label: &str| SiteBreakdown {
            site: 0,
            label: label.to_string(),
            roundtrips: 1,
            attempts,
            roundtrip_ns: 250,
            site_wall_ns: 150,
            merge_ns: 10,
            rows_scanned: 25,
            fragment_rows,
            bytes_sent: 512,
            bytes_received: 1024,
        };
        let mut site = SiteBreakdown::default();
        site.add(&obs(1, 24, "site0"));
        site.add(&obs(2, 25, "site0@127.0.0.1:9\"x"));
        node.sites.push(site);
        let mut child = PlanNodeStats::new("Table(x)");
        child.scanned_rows = 10;
        node.children.push(child);

        // The entry layout `GET /sites` shares, byte for byte.
        assert!(node.to_json().contains(
            r#","sites":[{"site":0,"label":"site0@127.0.0.1:9\"x","roundtrips":2,"attempts":3,"roundtrip_ns":500,"site_wall_ns":300,"merge_ns":20,"rows_scanned":50,"fragment_rows":25,"bytes_sent":1024,"bytes_received":2048}],"children""#
        ));
        let json = parse_json(&node.to_json()).unwrap();
        profile_schema()
            .validate_ref("#/definitions/planNode", &json, "plan")
            .unwrap();
        assert_eq!(json.get("label").and_then(Json::as_str), Some("GMDJ"));
        for (key, want) in [
            ("rows_out", 7.0),
            ("elapsed_ns", 1234.0),
            ("self_ns", 1234.0),
            ("invocations", 1.0),
            ("worker_wall_sum_ns", 55.0),
            ("worker_wall_max_ns", 44.0),
            ("scanned_rows", 0.0),
        ] {
            assert_eq!(json.get(key).and_then(Json::as_num), Some(want), "{key}");
        }
        let ops = json.get("ops").unwrap();
        assert_eq!(ops.get("rows_in").and_then(Json::as_num), Some(3.0));
        assert_eq!(ops.get("rows_out").and_then(Json::as_num), Some(2.0));
        // Each counter object holds exactly its table, in table order.
        for (set, fields, values) in [
            ("eval", &EvalStats::FIELDS[..], &node.eval.values()[..]),
            ("kernel", &KernelStats::FIELDS, &node.kernel.values()),
            ("network", &NetworkStats::FIELDS, &node.network.values()),
        ] {
            let Some(Json::Obj(members)) = json.get(set) else {
                panic!("{set} is not an object")
            };
            let parsed: Vec<(&str, f64)> = members
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_num().unwrap()))
                .collect();
            let want: Vec<(&str, f64)> = fields
                .iter()
                .zip(values)
                .map(|(&k, &v)| (k, v as f64))
                .collect();
            assert_eq!(parsed, want, "{set}");
        }
        let child = &json.get("children").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(child.get("scanned_rows").and_then(Json::as_num), Some(10.0));
        // Non-distributed nodes carry no `sites` key at all.
        assert!(child.get("sites").is_none());
    }

    const PROGRESS: &str = r#""progress":{"queries_started":4,"queries_finished":4,
        "rows_done":100,"morsels_done":8,"morsels_total":8}"#;

    #[test]
    fn validation_rejects_missing_counters() {
        let mut plan = PlanNodeStats::new("GMDJ");
        plan.children.push(PlanNodeStats::new("Table(x)"));
        let text = format!(
            r#"{{"version":6,"policy":"seq","scale":0.01,"seed":1,{PROGRESS},"figures":[
                {{"name":"f","description":"d","points":[
                    {{"label":"l","outer":1,"inner":1,"measurements":[
                        {{"strategy":"s","wall_us":1,"plan_us":0,"work":1,"rows":1,"plan":null}},
                        {{"strategy":"t","wall_us":1,"plan_us":0,"work":1,"rows":1,"plan":{}}}
                    ]}}]}}]}}"#,
            plan.to_json()
        );
        validate_profile(&parse_json(&text).unwrap()).unwrap();

        // Version ≤2 profiles predate the `progress` section, version 3
        // the network byte counters, version 5 `rank_lookups`.
        for stale_version in [1, 2, 3, 4, 5] {
            let stale = parse_json(&format!(
                r#"{{"version":{stale_version},"policy":"x","scale":1,"seed":1,"figures":[{{}}]}}"#
            ))
            .unwrap();
            assert!(validate_profile(&stale).unwrap_err().contains("progress"));
            let stale = parse_json(&text.replacen(
                "\"version\":6",
                &format!("\"version\":{stale_version}"),
                1,
            ))
            .unwrap();
            assert!(validate_profile(&stale).unwrap_err().contains("version"));
        }
        let no_progress =
            parse_json(r#"{"version":6,"policy":"x","scale":1,"seed":1,"figures":[{}]}"#).unwrap();
        assert!(validate_profile(&no_progress)
            .unwrap_err()
            .contains("progress"));
        let bad = parse_json(&format!(
            r#"{{"version":6,"policy":"x","scale":1,"seed":1,{PROGRESS},"figures":[{{}}]}}"#
        ))
        .unwrap();
        assert!(validate_profile(&bad).is_err());
        let empty = parse_json(&format!(
            r#"{{"version":6,"policy":"x","scale":1,"seed":1,{PROGRESS},"figures":[]}}"#
        ))
        .unwrap();
        assert!(validate_profile(&empty).unwrap_err().contains("minItems"));

        // Well-typed but out-of-range values the schema forbids.
        let kernel = text.find("\"kernel\":").unwrap();
        let kernel_end = kernel + text[kernel..].find('}').unwrap() + 1;
        let bad_kernel = format!(
            "{}\"kernel\":{{\"batches\":\"many\"}}{}",
            &text[..kernel],
            &text[kernel_end..]
        );
        for (corrupted, what) in [
            (
                text.replacen("\"rows_out\":0", "\"rows_out\":-1.5", 1),
                "rows_out",
            ),
            (bad_kernel, "kernel"),
            (
                text.replacen("\"detail_scanned\":0", "\"detail_scanned\":-3", 1),
                "detail_scanned",
            ),
            (text.replacen("\"scale\":0.01", "\"scale\":0", 1), "scale"),
            (text.replacen("\"seed\":1", "\"seed\":1.5", 1), "seed"),
        ] {
            assert_ne!(corrupted, text, "corruption `{what}` did not apply");
            let err = validate_profile(&parse_json(&corrupted).unwrap())
                .expect_err(&format!("`{what}` corruption must fail"));
            assert!(err.contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn queries_document_validates_and_corruption_is_caught() {
        // The live render of the global registry is always valid.
        let doc = parse_json(&progress::global().render_json()).unwrap();
        validate_queries(&doc).unwrap();

        let ok_text = r#"{"version":2,"active":[{"id":1,"sql":"q","strategy":"gmdj-opt",
                "policy":"par4","state":"running","phase":"GMDJ","elapsed_ms":10,"rows_done":5,
                "morsels_done":2,"morsels_total":4,"eta_ms":10,
                "predicted_cost":100,"eta_cost_ms":12}],
                "totals":{"queries_started":1,"queries_finished":0,
                "rows_done":5,"morsels_done":2,"morsels_total":4}}"#;
        validate_queries(&parse_json(ok_text).unwrap()).unwrap();

        // morsels_done > morsels_total violates the progress invariant.
        let over = parse_json(
            r#"{"version":2,"active":[{"id":1,"sql":"q","strategy":"s",
                "policy":"p","state":"queued","phase":"","elapsed_ms":0,"rows_done":0,
                "morsels_done":9,"morsels_total":4,"eta_ms":0,
                "predicted_cost":0,"eta_cost_ms":0}],
                "totals":{"queries_started":1,"queries_finished":0,
                "rows_done":0,"morsels_done":9,"morsels_total":4}}"#,
        )
        .unwrap();
        assert!(validate_queries(&over).unwrap_err().contains("exceeds"));

        // Well-typed values outside the schema's enum and bounds.
        for (corrupted, what) in [
            (ok_text.replacen("\"running\"", "\"done\"", 1), "state"),
            (ok_text.replacen("\"id\":1", "\"id\":0", 1), "id"),
        ] {
            assert_ne!(corrupted, ok_text, "corruption `{what}` did not apply");
            let err = validate_queries(&parse_json(&corrupted).unwrap())
                .expect_err(&format!("`{what}` corruption must fail"));
            assert!(err.contains(what), "{what}: {err}");
        }

        let stale = parse_json(r#"{"version":99,"active":[],"totals":{}}"#).unwrap();
        assert!(validate_queries(&stale).unwrap_err().contains("version"));
        let no_totals = parse_json(r#"{"version":2,"active":[]}"#).unwrap();
        assert!(validate_queries(&no_totals).unwrap_err().contains("totals"));
    }
}
