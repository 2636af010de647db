//! Diagnostics and their renderings (human `file:line`, JSON, GitHub
//! Actions workflow annotations, and SARIF 2.1.0).

use rcr_codec::json::{encode_str, JsonValue};
use std::fmt::Write as _;

/// One finding: a rule violation or a malformed pragma.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule slug, e.g. `float-total-cmp`; malformed pragmas report as
    /// `bad-pragma`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// For semantic findings, the fn symbol (`Type::name` or `name`)
    /// the finding is anchored to — the ratchet baseline keys on it.
    pub symbol: Option<String>,
}

impl Diagnostic {
    /// `path/to/file.rs:12: [rule] message` — clickable in most
    /// terminals and editors.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }

    /// A GitHub Actions workflow command (`--format=github`): the
    /// runner turns it into an inline annotation on the PR diff.
    pub fn render_github(&self) -> String {
        format!(
            "::error file={},line={},title=rcr-lint/{}::{}",
            gh_escape(&self.file),
            self.line,
            gh_escape(self.rule),
            gh_escape(&self.message)
        )
    }
}

/// Workflow-command escaping: `%`, CR, and LF are the only characters
/// with meaning inside a `::error ...::` payload.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Renders diagnostics as a JSON array (`--format=json`). Hand-rolled
/// on purpose: the tool is std-only and the schema is four flat fields.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}",
            encode_str(d.rule),
            encode_str(&d.file),
            d.line,
            encode_str(&d.message)
        );
        if let Some(sym) = &d.symbol {
            let _ = write!(out, ",\"symbol\":{}", encode_str(sym));
        }
        out.push('}');
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Renders diagnostics as a minimal SARIF 2.1.0 log (`--format=sarif`)
/// — one run, one driver, one result per diagnostic — the subset CI
/// code-scanning uploads and SARIF viewers need.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let mut rule_ids: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    rule_ids.sort_unstable();
    rule_ids.dedup();
    let rules: Vec<JsonValue> = rule_ids
        .into_iter()
        .map(|id| obj(vec![("id", s(id))]))
        .collect();
    let results: Vec<JsonValue> = diags
        .iter()
        .map(|d| {
            obj(vec![
                ("ruleId", s(d.rule)),
                ("level", s("error")),
                ("message", obj(vec![("text", s(&d.message))])),
                (
                    "locations",
                    JsonValue::Array(vec![obj(vec![(
                        "physicalLocation",
                        obj(vec![
                            ("artifactLocation", obj(vec![("uri", s(&d.file))])),
                            // SARIF lines are 1-based; clamp line-0
                            // (whole-file) findings to 1.
                            ("region", obj(vec![("startLine", n(d.line.max(1) as u64))])),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    let doc = obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        (
            "runs",
            JsonValue::Array(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("rcr-lint")),
                            ("rules", JsonValue::Array(rules)),
                        ]),
                    )]),
                ),
                ("results", JsonValue::Array(results)),
            ])]),
        ),
    ]);
    doc.render()
}

/// A JSON object with its fields sorted by key, whatever order the
/// writer lists them in: every artifact the tool writes (baseline,
/// SARIF) then has one canonical form and diffs cleanly.
pub(crate) fn obj(mut fields: Vec<(&str, JsonValue)>) -> JsonValue {
    fields.sort_by(|a, b| a.0.cmp(b.0));
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub(crate) fn s(text: &str) -> JsonValue {
    JsonValue::String(text.to_string())
}

pub(crate) fn n(v: u64) -> JsonValue {
    JsonValue::Number(v as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn github_annotations_escape_the_payload() {
        let d = Diagnostic {
            rule: "unchecked-time-arithmetic",
            file: "crates/serve/src/queue.rs".into(),
            line: 42,
            message: "raw `-` underflows\nat 100% load".into(),
            symbol: Some("Lane::ready".into()),
        };
        assert_eq!(
            d.render_github(),
            "::error file=crates/serve/src/queue.rs,line=42,\
             title=rcr-lint/unchecked-time-arithmetic\
             ::raw `-` underflows%0Aat 100%25 load"
        );
    }

    /// Two findings exercising every field the renderers write: a
    /// symbol and its absence, a line-0 finding, quotes, backslashes,
    /// control characters and non-ASCII text.
    fn fixed_diags() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                rule: "panic-reachability",
                file: "crates/serve/src/wire.rs".into(),
                line: 42,
                message:
                    "public fn `parse_request` can reach a panic: slice index \"[..]\" at line 7"
                        .into(),
                symbol: Some("parse_request".into()),
            },
            Diagnostic {
                rule: "lock-held-across-send",
                file: "crates/a\\b.rs".into(),
                line: 0,
                message: "tab\there\nnext — ü".into(),
                symbol: None,
            },
        ]
    }

    // The goldens below pin the bytes CI consumers and committed
    // baselines depend on; a codec change must not move them.

    #[test]
    fn baseline_render_is_pinned() {
        assert_eq!(
            crate::Baseline::render_from(&fixed_diags()),
            r#"{"entries":[
  {"file":"crates/serve/src/wire.rs","note":"public fn `parse_request` can reach a panic: slice index \"[..]\" at line 7","rule":"panic-reachability","symbol":"parse_request"},
  {"file":"crates/a\\b.rs","note":"tab\there\nnext — ü","rule":"lock-held-across-send","symbol":""}],"version":1}
"#
        );
    }

    #[test]
    fn sarif_render_is_pinned() {
        assert_eq!(
            render_sarif(&fixed_diags()),
            r#"{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","runs":[{"results":[{"level":"error","locations":[{"physicalLocation":{"artifactLocation":{"uri":"crates/serve/src/wire.rs"},"region":{"startLine":42}}}],"message":{"text":"public fn `parse_request` can reach a panic: slice index \"[..]\" at line 7"},"ruleId":"panic-reachability"},{"level":"error","locations":[{"physicalLocation":{"artifactLocation":{"uri":"crates/a\\b.rs"},"region":{"startLine":1}}}],"message":{"text":"tab\there\nnext — ü"},"ruleId":"lock-held-across-send"}],"tool":{"driver":{"name":"rcr-lint","rules":[{"id":"lock-held-across-send"},{"id":"panic-reachability"}]}}}],"version":"2.1.0"}"#
        );
    }

    #[test]
    fn sarif_rule_table_is_deduplicated() {
        let mut diags = fixed_diags();
        diags.push(diags[0].clone());
        let v = rcr_codec::json::parse(&render_sarif(&diags)).unwrap();
        let len = |v: Option<&JsonValue>| v.and_then(JsonValue::as_array).map(<[_]>::len);
        let run = &v.get("runs").and_then(JsonValue::as_array).unwrap()[0];
        let driver = run.get("tool").and_then(|t| t.get("driver")).unwrap();
        assert_eq!(len(run.get("results")), Some(3));
        assert_eq!(len(driver.get("rules")), Some(2));
    }

    #[test]
    fn json_render_is_pinned() {
        assert_eq!(
            render_json(&fixed_diags()),
            r#"[
  {"rule":"panic-reachability","file":"crates/serve/src/wire.rs","line":42,"message":"public fn `parse_request` can reach a panic: slice index \"[..]\" at line 7","symbol":"parse_request"},
  {"rule":"lock-held-across-send","file":"crates/a\\b.rs","line":0,"message":"tab\there\nnext — ü"}
]"#
        );
        assert_eq!(render_json(&[]), "[]");
    }

    #[test]
    fn obj_renders_keys_sorted() {
        let v = obj(vec![
            ("z", n(1)),
            ("a", s("x")),
            ("m", obj(vec![("b", n(2)), ("a", n(3))])),
        ]);
        assert_eq!(v.render(), r#"{"a":"x","m":{"a":3,"b":2},"z":1}"#);
    }
}
