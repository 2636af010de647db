//! The ratcheting baseline for semantic findings.
//!
//! Inter-procedural analysis over-approximates, and the workspace
//! predates it: the reviewed, known findings live in a committed
//! `lint-baseline.json` keyed by `(rule, file, symbol)`. The ratchet
//! has two teeth:
//!
//! * a semantic finding **not** in the baseline fails the run — new
//!   debt is rejected at the door;
//! * a baseline entry that no longer matches any finding fails the run
//!   as `stale-baseline` — the file may only shrink, so fixed findings
//!   are locked in by deleting their entries in the same change.
//!
//! Lexical findings never consult the baseline; they are precise enough
//! to stay at zero outright.

use crate::diag::{n, obj, s, Diagnostic};
use crate::sem::passes::SEMANTIC_RULES;
use rcr_codec::json::{self, JsonValue};
use std::path::Path;

/// Diagnostic slug for baseline entries that matched nothing.
pub const STALE_BASELINE: &str = "stale-baseline";

/// One accepted finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub rule: String,
    pub file: String,
    pub symbol: String,
    /// Why this finding is accepted — mandatory, mirroring pragmas.
    pub note: String,
}

#[derive(Debug, Default, Clone)]
pub struct Baseline {
    pub entries: Vec<Entry>,
}

/// Outcome of applying a baseline.
#[derive(Debug, Default)]
pub struct ApplyStats {
    /// Findings absorbed by baseline entries.
    pub baselined: usize,
    /// Entries that matched nothing (each also emits a diagnostic).
    pub stale: usize,
}

impl Baseline {
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Baseline, String> {
        let v = json::parse(text)?;
        if v.get("version").and_then(JsonValue::as_u64) != Some(1) {
            return Err("unsupported baseline version (want 1)".into());
        }
        let mut entries = Vec::new();
        for (i, e) in v
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or("missing entries array")?
            .iter()
            .enumerate()
        {
            let field = |k: &str| -> Result<String, String> {
                e.get(k)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or(format!("entry {i}: missing string field {k:?}"))
            };
            let entry = Entry {
                rule: field("rule")?,
                file: field("file")?,
                symbol: field("symbol")?,
                note: field("note")?,
            };
            if !SEMANTIC_RULES.contains(&entry.rule.as_str()) {
                return Err(format!(
                    "entry {i}: rule {:?} is not a semantic rule — only semantic findings may be baselined",
                    entry.rule
                ));
            }
            if entry.note.trim().is_empty() {
                return Err(format!("entry {i}: note must not be empty"));
            }
            entries.push(entry);
        }
        Ok(Baseline { entries })
    }

    /// Splits `diags` into surviving diagnostics (baselined ones
    /// removed, stale entries appended as findings) plus counters.
    pub fn apply(
        &self,
        diags: Vec<Diagnostic>,
        baseline_file: &str,
    ) -> (Vec<Diagnostic>, ApplyStats) {
        let mut stats = ApplyStats::default();
        let mut hit = vec![false; self.entries.len()];
        let mut out = Vec::with_capacity(diags.len());
        for d in diags {
            if !SEMANTIC_RULES.contains(&d.rule) {
                out.push(d);
                continue;
            }
            let sym = d.symbol.as_deref().unwrap_or("");
            let matched = self
                .entries
                .iter()
                .position(|e| e.rule == d.rule && e.file == d.file && e.symbol == sym);
            match matched {
                Some(i) => {
                    hit[i] = true;
                    stats.baselined += 1;
                }
                None => out.push(d),
            }
        }
        for (i, e) in self.entries.iter().enumerate() {
            if hit[i] {
                continue;
            }
            stats.stale += 1;
            out.push(Diagnostic {
                rule: STALE_BASELINE,
                file: baseline_file.to_string(),
                line: 0,
                message: format!(
                    "baseline entry ({}, {}, {}) matches no current finding — delete it to lock in the fix",
                    e.rule, e.file, e.symbol
                ),
                symbol: Some(e.symbol.clone()),
            });
        }
        (out, stats)
    }

    /// Renders a baseline accepting exactly the given semantic
    /// diagnostics (`--write-baseline`). Notes default to the finding's
    /// message so the file is reviewable as written.
    pub fn render_from(diags: &[Diagnostic]) -> String {
        let mut entries: Vec<JsonValue> = Vec::new();
        for d in diags {
            if !SEMANTIC_RULES.contains(&d.rule) {
                continue;
            }
            entries.push(obj(vec![
                ("rule", s(d.rule)),
                ("file", s(&d.file)),
                ("symbol", s(d.symbol.as_deref().unwrap_or(""))),
                ("note", s(&d.message)),
            ]));
        }
        let doc = obj(vec![
            ("version", n(1)),
            ("entries", JsonValue::Array(entries)),
        ]);
        // Pretty-ish: one entry per line so review diffs are per-finding.
        doc.render()
            .replace("},{", "},\n  {")
            .replace("\"entries\":[{", "\"entries\":[\n  {")
            .replace("}]}", "}\n]}")
            + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, symbol: &str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.into(),
            line: 1,
            message: "m".into(),
            symbol: Some(symbol.into()),
        }
    }

    #[test]
    fn baselined_findings_are_absorbed_and_new_ones_survive() {
        let b = Baseline::parse(
            r#"{"version":1,"entries":[{"rule":"panic-reachability","file":"a.rs","symbol":"solve","note":"indexing audited"}]}"#,
        )
        .unwrap();
        let diags = vec![
            diag("panic-reachability", "a.rs", "solve"),
            diag("panic-reachability", "a.rs", "other"),
        ];
        let (out, stats) = b.apply(diags, "lint-baseline.json");
        assert_eq!(stats.baselined, 1);
        assert_eq!(stats.stale, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].symbol.as_deref(), Some("other"));
    }

    #[test]
    fn stale_entries_become_findings() {
        let b = Baseline::parse(
            r#"{"version":1,"entries":[{"rule":"determinism-taint","file":"gone.rs","symbol":"old","note":"was true once"}]}"#,
        )
        .unwrap();
        let (out, stats) = b.apply(Vec::new(), "lint-baseline.json");
        assert_eq!(stats.stale, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, STALE_BASELINE);
        assert_eq!(out[0].file, "lint-baseline.json");
    }

    #[test]
    fn lexical_rules_may_not_be_baselined() {
        let err = Baseline::parse(
            r#"{"version":1,"entries":[{"rule":"no-unwrap-in-lib","file":"a.rs","symbol":"f","note":"n"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("not a semantic rule"), "{err}");
    }

    #[test]
    fn render_round_trips_through_parse() {
        let diags = vec![
            diag("panic-reachability", "a.rs", "solve"),
            diag("lock-held-across-send", "b.rs", "Batcher::run/send"),
        ];
        let text = Baseline::render_from(&diags);
        let b = Baseline::parse(&text).unwrap();
        assert_eq!(b.entries.len(), 2);
        let (out, stats) = b.apply(diags, "lint-baseline.json");
        assert!(out.is_empty());
        assert_eq!(stats.baselined, 2);
    }
}
