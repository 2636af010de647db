//! Incremental analysis cache, keyed by file-content hash.
//!
//! Per-file work (tokenize → lexical rules → semantic extraction) is
//! pure in the file's bytes, crate name, and path, so its result is
//! cached in one JSON document under the workspace `target/` directory.
//! The semantic *passes* are whole-workspace and always re-run over the
//! (cached or fresh) extractions — they are graph fixpoints over small
//! summaries, not the expensive part.
//!
//! All IO here is best-effort: a missing, stale, or corrupt cache means
//! a cold run, never a failure. The key hashes the source bytes plus an
//! analyzer version constant (`SipHash` with `DefaultHasher::new()`'s
//! fixed keys, so values are stable across runs); bump
//! [`ANALYZER_VERSION`] whenever rules or extraction change shape.

use crate::diag::{n, obj, s, Diagnostic};
use crate::engine::{FileReport, RuleStats};
use crate::rules::{registry, BAD_PRAGMA};
use crate::sem::{passes, Call, FileSem, FnDef, LockAcq, RiskySite, Site};
use rcr_codec::json::{self, JsonObject, JsonValue};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// Bump on any change to tokenizer, rules, or semantic extraction.
/// (2: dataflow layer — time_ops/allocs/reductions site vectors.
///  3: unit-flow layer — params/units/args vectors and cut_units.)
pub const ANALYZER_VERSION: u64 = 3;

/// Relative location of the cache document under the workspace root.
pub const CACHE_REL_PATH: &str = "target/rcr-lint-cache.json";

#[derive(Debug, Default)]
pub struct Cache {
    /// rel_path → (content hash, serialized report).
    entries: BTreeMap<String, (u64, JsonValue)>,
    /// Serialized result of the last whole-workspace semantic run
    /// (graph shape + pre-baseline pass diagnostics), reusable by
    /// `--changed-only` when no contributing extraction changed.
    passes: Option<JsonValue>,
    path: Option<PathBuf>,
    pub hits: usize,
    pub misses: usize,
    dirty: bool,
    /// Rule-set fingerprint the on-disk document is keyed by.
    fingerprint: u64,
}

/// Fingerprint of the active rule set: every lexical rule's id and
/// summary plus every semantic/dataflow slug, folded with
/// [`ANALYZER_VERSION`]. Editing a rule or adding a pass changes it,
/// which invalidates every warm cache entry — a cache must never serve
/// a "clean" verdict computed under a different rule set.
pub fn ruleset_fingerprint() -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ANALYZER_VERSION.hash(&mut h);
    for r in registry() {
        r.slug.hash(&mut h);
        r.summary.hash(&mut h);
    }
    for slug in passes::SEMANTIC_RULES {
        slug.hash(&mut h);
    }
    BAD_PRAGMA.hash(&mut h);
    h.finish()
}

/// Stable content key for one file (includes the rule-set fingerprint,
/// so a key is only ever valid for the rule set that minted it).
pub fn content_key(crate_name: &str, rel_path: &str, source: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ruleset_fingerprint().hash(&mut h);
    crate_name.hash(&mut h);
    rel_path.hash(&mut h);
    source.hash(&mut h);
    h.finish()
}

impl Cache {
    /// Loads the cache for `root`; any problem yields an empty cache.
    pub fn load(root: &Path) -> Cache {
        Self::load_keyed(root, ruleset_fingerprint())
    }

    /// [`Cache::load`] under an explicit fingerprint — split out so
    /// tests can prove cross-fingerprint invalidation.
    pub fn load_keyed(root: &Path, fingerprint: u64) -> Cache {
        let path = root.join(CACHE_REL_PATH);
        let mut cache = Cache {
            path: Some(path.clone()),
            fingerprint,
            ..Cache::default()
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            return cache;
        };
        let Ok(v) = json::parse(&text) else {
            return cache;
        };
        if v.get("version").and_then(JsonValue::as_u64) != Some(ANALYZER_VERSION) {
            return cache;
        }
        if v.get("ruleset").and_then(JsonValue::as_str) != Some(fingerprint.to_string().as_str()) {
            return cache;
        }
        if let Some(files) = v.get("files").and_then(JsonValue::as_object) {
            for (rel, entry) in files.iter() {
                let Some(hash) = entry
                    .get("hash")
                    .and_then(JsonValue::as_str)
                    .and_then(|h| h.parse::<u64>().ok())
                else {
                    continue;
                };
                if let Some(report) = entry.get("report") {
                    cache.entries.insert(rel.into(), (hash, report.clone()));
                }
            }
        }
        cache.passes = v.get("passes").cloned();
        cache
    }

    /// A cache that never persists (for `--no-cache` and tests).
    pub fn disabled() -> Cache {
        Cache::default()
    }

    /// Returns the cached report when the key matches.
    pub fn get(&mut self, rel_path: &str, key: u64) -> Option<FileReport> {
        match self.entries.get(rel_path) {
            Some((hash, report)) if *hash == key => match report_from_json(report) {
                Some(r) => {
                    self.hits += 1;
                    Some(r)
                }
                None => {
                    self.misses += 1;
                    None
                }
            },
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    pub fn put(&mut self, rel_path: &str, key: u64, report: &FileReport) {
        self.entries
            .insert(rel_path.to_string(), (key, report_to_json(report)));
        self.dirty = true;
    }

    /// Drops entries for files that no longer exist in the scan set.
    pub fn retain_files(&mut self, live: &[String]) {
        let before = self.entries.len();
        self.entries.retain(|k, _| live.iter().any(|f| f == k));
        if self.entries.len() != before {
            self.dirty = true;
        }
    }

    /// Drops entries whose file no longer exists under `root` — cache
    /// hygiene for modes (like `--changed-only`) that never enumerate
    /// the full scan set and so cannot call [`Cache::retain_files`].
    pub fn prune_missing(&mut self, root: &Path) {
        let before = self.entries.len();
        self.entries.retain(|rel, _| root.join(rel).is_file());
        if self.entries.len() != before {
            self.dirty = true;
        }
    }

    /// The cached semantic extraction for one file, regardless of
    /// content hash — the *previous* run's view, used by
    /// `--changed-only` to decide whether a changed file altered the
    /// call-graph inputs.
    pub fn cached_sem(&self, rel_path: &str) -> Option<FileSem> {
        let (_, report) = self.entries.get(rel_path)?;
        report_from_json(report).map(|r| r.sem)
    }

    /// Records the whole-workspace pass results (graph shape plus
    /// pre-baseline pass diagnostics) for later reuse.
    pub fn store_passes(&mut self, graph_fns: usize, graph_edges: usize, diags: &[Diagnostic]) {
        self.passes = Some(obj(vec![
            ("graph_fns", n(graph_fns as u64)),
            ("graph_edges", n(graph_edges as u64)),
            ("diagnostics", diags_to_json(diags)),
        ]));
        self.dirty = true;
    }

    /// The stored pass results, if any: `(graph_fns, graph_edges,
    /// diagnostics)`. Unknown rule names invalidate the whole record.
    pub fn load_passes(&self) -> Option<(usize, usize, Vec<Diagnostic>)> {
        let p = self.passes.as_ref()?;
        let fns = p.get("graph_fns")?.as_u64()? as usize;
        let edges = p.get("graph_edges")?.as_u64()? as usize;
        Some((fns, edges, diags_from_json(p.get("diagnostics")?)?))
    }

    /// Persists the cache (best-effort; errors are swallowed).
    pub fn save(&self) {
        let Some(path) = &self.path else { return };
        if !self.dirty {
            return;
        }
        let files: JsonObject = self
            .entries
            .iter()
            .map(|(rel, (hash, report))| {
                (
                    rel.clone(),
                    obj(vec![
                        ("hash", s(&hash.to_string())),
                        ("report", report.clone()),
                    ]),
                )
            })
            .collect();
        let mut fields = vec![
            ("version", n(ANALYZER_VERSION)),
            ("ruleset", s(&self.fingerprint.to_string())),
            ("files", JsonValue::Object(files)),
        ];
        if let Some(p) = &self.passes {
            fields.push(("passes", p.clone()));
        }
        let doc = obj(fields);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(path, doc.render());
    }
}

/// Maps a serialized rule name back to its interned slug; unknown names
/// (from older tool versions) invalidate the entry.
fn intern_rule(name: &str) -> Option<&'static str> {
    registry()
        .iter()
        .map(|r| r.slug)
        .chain(passes::SEMANTIC_RULES.iter().copied())
        .chain([BAD_PRAGMA])
        .find(|slug| *slug == name)
}

fn strings(items: &[String]) -> JsonValue {
    JsonValue::Array(items.iter().map(|x| s(x)).collect())
}

fn read_strings(v: Option<&JsonValue>) -> Vec<String> {
    v.and_then(JsonValue::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|x| x.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

fn sites_to_json(sites: &[Site]) -> JsonValue {
    let site = |site: &Site| obj(vec![("line", n(site.line as u64)), ("what", s(&site.what))]);
    JsonValue::Array(sites.iter().map(site).collect())
}

/// Malformed entries are skipped; a non-array is `None`.
fn sites_from_json(v: &JsonValue) -> Option<Vec<Site>> {
    let site = |v: &JsonValue| {
        Some(Site {
            line: v.get("line")?.as_u64()? as u32,
            what: v.get("what")?.as_str()?.to_string(),
        })
    };
    Some(v.as_array()?.iter().filter_map(site).collect())
}

fn diags_to_json(diags: &[Diagnostic]) -> JsonValue {
    let diag = |d: &Diagnostic| {
        let mut fields = vec![
            ("rule", s(d.rule)),
            ("file", s(&d.file)),
            ("line", n(d.line as u64)),
            ("message", s(&d.message)),
        ];
        if let Some(sym) = &d.symbol {
            fields.push(("symbol", s(sym)));
        }
        obj(fields)
    };
    JsonValue::Array(diags.iter().map(diag).collect())
}

/// `None` if any entry is malformed or names an unknown rule.
fn diags_from_json(v: &JsonValue) -> Option<Vec<Diagnostic>> {
    let diag = |d: &JsonValue| {
        Some(Diagnostic {
            rule: intern_rule(d.get("rule")?.as_str()?)?,
            file: d.get("file")?.as_str()?.to_string(),
            line: d.get("line")?.as_u64()? as u32,
            message: d.get("message")?.as_str()?.to_string(),
            symbol: d
                .get("symbol")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
        })
    };
    v.as_array()?.iter().map(diag).collect()
}

fn report_to_json(r: &FileReport) -> JsonValue {
    let stats: JsonObject = r
        .stats
        .iter()
        .map(|(slug, st)| {
            (
                slug.to_string(),
                obj(vec![
                    ("violations", n(st.violations as u64)),
                    ("suppressed", n(st.suppressed as u64)),
                ]),
            )
        })
        .collect();
    let fns: Vec<JsonValue> = r.sem.fns.iter().map(fn_to_json).collect();
    obj(vec![
        ("diagnostics", diags_to_json(&r.diagnostics)),
        ("stats", JsonValue::Object(stats)),
        (
            "sem",
            obj(vec![
                ("fns", JsonValue::Array(fns)),
                ("cut_panics", n(r.sem.cut_panics as u64)),
                ("cut_taints", n(r.sem.cut_taints as u64)),
                ("cut_risky", n(r.sem.cut_risky as u64)),
                ("cut_time_ops", n(r.sem.cut_time_ops as u64)),
                ("cut_allocs", n(r.sem.cut_allocs as u64)),
                ("cut_reductions", n(r.sem.cut_reductions as u64)),
                ("cut_units", n(r.sem.cut_units as u64)),
            ]),
        ),
    ])
}

fn fn_to_json(f: &FnDef) -> JsonValue {
    obj(vec![
        ("crate", s(&f.crate_name)),
        ("file", s(&f.file)),
        ("module", s(&f.module)),
        ("name", s(&f.name)),
        ("qual", f.qual.as_deref().map(s).unwrap_or(JsonValue::Null)),
        ("is_pub", JsonValue::Bool(f.is_pub)),
        ("has_self", JsonValue::Bool(f.has_self)),
        ("line", n(f.line as u64)),
        ("cut_panic", JsonValue::Bool(f.cut_panic)),
        ("cut_taint", JsonValue::Bool(f.cut_taint)),
        ("cut_alloc", JsonValue::Bool(f.cut_alloc)),
        ("cut_unit", JsonValue::Bool(f.cut_unit)),
        ("params", strings(&f.params)),
        (
            "units",
            JsonValue::Array(
                f.units
                    .iter()
                    .map(|(name, dim)| obj(vec![("name", s(name)), ("dim", s(dim))]))
                    .collect(),
            ),
        ),
        (
            "calls",
            JsonValue::Array(
                f.calls
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("path", strings(&c.path)),
                            ("method", JsonValue::Bool(c.method)),
                            ("line", n(c.line as u64)),
                            ("held", strings(&c.held)),
                            ("args", strings(&c.args)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("panics", sites_to_json(&f.panics)),
        (
            "locks",
            JsonValue::Array(
                f.locks
                    .iter()
                    .map(|l| {
                        obj(vec![
                            ("name", s(&l.name)),
                            ("line", n(l.line as u64)),
                            ("held", strings(&l.held)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "risky",
            JsonValue::Array(
                f.risky
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("line", n(r.line as u64)),
                            ("what", s(&r.what)),
                            ("held", strings(&r.held)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("taints", sites_to_json(&f.taints)),
        ("time_ops", sites_to_json(&f.time_ops)),
        ("allocs", sites_to_json(&f.allocs)),
        ("reductions", sites_to_json(&f.reductions)),
        ("db_mixes", sites_to_json(&f.db_mixes)),
        ("rate_mixes", sites_to_json(&f.rate_mixes)),
    ])
}

fn fn_from_json(v: &JsonValue) -> Option<FnDef> {
    Some(FnDef {
        crate_name: v.get("crate")?.as_str()?.to_string(),
        file: v.get("file")?.as_str()?.to_string(),
        module: v.get("module")?.as_str()?.to_string(),
        name: v.get("name")?.as_str()?.to_string(),
        qual: v
            .get("qual")
            .and_then(JsonValue::as_str)
            .map(str::to_string),
        is_pub: v.get("is_pub")?.as_bool()?,
        has_self: v.get("has_self")?.as_bool()?,
        line: v.get("line")?.as_u64()? as u32,
        cut_panic: v.get("cut_panic")?.as_bool()?,
        cut_taint: v.get("cut_taint")?.as_bool()?,
        cut_alloc: v.get("cut_alloc")?.as_bool()?,
        cut_unit: v.get("cut_unit")?.as_bool()?,
        params: read_strings(v.get("params")),
        units: v
            .get("units")?
            .as_array()?
            .iter()
            .filter_map(|u| {
                Some((
                    u.get("name")?.as_str()?.to_string(),
                    u.get("dim")?.as_str()?.to_string(),
                ))
            })
            .collect(),
        calls: v
            .get("calls")?
            .as_array()?
            .iter()
            .filter_map(|c| {
                Some(Call {
                    path: read_strings(c.get("path")),
                    method: c.get("method")?.as_bool()?,
                    line: c.get("line")?.as_u64()? as u32,
                    held: read_strings(c.get("held")),
                    args: read_strings(c.get("args")),
                })
            })
            .collect(),
        panics: sites_from_json(v.get("panics")?)?,
        locks: v
            .get("locks")?
            .as_array()?
            .iter()
            .filter_map(|l| {
                Some(LockAcq {
                    name: l.get("name")?.as_str()?.to_string(),
                    line: l.get("line")?.as_u64()? as u32,
                    held: read_strings(l.get("held")),
                })
            })
            .collect(),
        risky: v
            .get("risky")?
            .as_array()?
            .iter()
            .filter_map(|r| {
                Some(RiskySite {
                    line: r.get("line")?.as_u64()? as u32,
                    what: r.get("what")?.as_str()?.to_string(),
                    held: read_strings(r.get("held")),
                })
            })
            .collect(),
        taints: sites_from_json(v.get("taints")?)?,
        time_ops: sites_from_json(v.get("time_ops")?)?,
        allocs: sites_from_json(v.get("allocs")?)?,
        reductions: sites_from_json(v.get("reductions")?)?,
        db_mixes: sites_from_json(v.get("db_mixes")?)?,
        rate_mixes: sites_from_json(v.get("rate_mixes")?)?,
    })
}

fn report_from_json(v: &JsonValue) -> Option<FileReport> {
    let mut report = FileReport {
        diagnostics: diags_from_json(v.get("diagnostics")?)?,
        ..FileReport::default()
    };
    if let Some(stats) = v.get("stats").and_then(JsonValue::as_object) {
        for (slug, st) in stats.iter() {
            let slug = intern_rule(slug)?;
            report.stats.insert(
                slug,
                RuleStats {
                    violations: st.get("violations")?.as_u64()? as usize,
                    suppressed: st.get("suppressed")?.as_u64()? as usize,
                },
            );
        }
    }
    let sem = v.get("sem")?;
    let mut fns = Vec::new();
    for f in sem.get("fns")?.as_array()? {
        fns.push(fn_from_json(f)?);
    }
    report.sem = FileSem {
        fns,
        cut_panics: sem.get("cut_panics")?.as_u64()? as usize,
        cut_taints: sem.get("cut_taints")?.as_u64()? as usize,
        cut_risky: sem.get("cut_risky")?.as_u64()? as usize,
        cut_time_ops: sem.get("cut_time_ops")?.as_u64()? as usize,
        cut_allocs: sem.get("cut_allocs")?.as_u64()? as usize,
        cut_reductions: sem.get("cut_reductions")?.as_u64()? as usize,
        cut_units: sem.get("cut_units")?.as_u64()? as usize,
    };
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze_source;

    #[test]
    fn file_report_round_trips_through_json() {
        let src = "use std::sync::Mutex;\npub fn f(m: &Mutex<u32>, xs: &[f64]) -> f64 {\n    let g = m.lock().unwrap();\n    drop(g);\n    helper(xs)\n}\nfn helper(xs: &[f64]) -> f64 { xs[0] }\n";
        let report = analyze_source("rcr-qos", "crates/qos/src/lib.rs", src, false);
        let v = report_to_json(&report);
        let back = report_from_json(&json::parse(&v.render()).unwrap()).unwrap();
        assert_eq!(back.sem, report.sem);
        assert_eq!(back.diagnostics.len(), report.diagnostics.len());
        assert_eq!(back.stats.len(), report.stats.len());
    }

    #[test]
    fn content_key_is_stable_and_input_sensitive() {
        let a = content_key("rcr-qos", "crates/qos/src/lib.rs", "fn f() {}");
        let b = content_key("rcr-qos", "crates/qos/src/lib.rs", "fn f() {}");
        assert_eq!(a, b);
        assert_ne!(
            a,
            content_key("rcr-qos", "crates/qos/src/lib.rs", "fn g() {}")
        );
        assert_ne!(
            a,
            content_key("rcr-pso", "crates/qos/src/lib.rs", "fn f() {}")
        );
    }

    #[test]
    fn cache_hit_requires_matching_key() {
        let mut cache = Cache::disabled();
        let report = analyze_source("rcr-qos", "crates/qos/src/lib.rs", "pub fn f() {}\n", false);
        cache.put("crates/qos/src/lib.rs", 7, &report);
        assert!(cache.get("crates/qos/src/lib.rs", 8).is_none());
        let hit = cache.get("crates/qos/src/lib.rs", 7).unwrap();
        assert_eq!(hit.sem.fns.len(), 1);
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("rcr-lint-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let report = analyze_source("rcr-qos", "crates/qos/src/lib.rs", "pub fn f() {}\n", false);
        let key = content_key("rcr-qos", "crates/qos/src/lib.rs", "pub fn f() {}\n");
        let mut cache = Cache::load(&dir);
        cache.put("crates/qos/src/lib.rs", key, &report);
        cache.save();
        let mut reloaded = Cache::load(&dir);
        assert!(reloaded.get("crates/qos/src/lib.rs", key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_missing_drops_entries_for_deleted_files() {
        let dir = std::env::temp_dir().join(format!("rcr-lint-prune-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/qos/src")).unwrap();
        std::fs::write(dir.join("crates/qos/src/lib.rs"), "pub fn f() {}\n").unwrap();
        let report = analyze_source("rcr-qos", "crates/qos/src/lib.rs", "pub fn f() {}\n", false);
        let mut cache = Cache::load(&dir);
        cache.put("crates/qos/src/lib.rs", 1, &report);
        cache.put("crates/qos/src/gone.rs", 2, &report);
        cache.prune_missing(&dir);
        assert!(cache.get("crates/qos/src/lib.rs", 1).is_some());
        assert!(cache.get("crates/qos/src/gone.rs", 2).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pass_results_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("rcr-lint-passes-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let diag = Diagnostic {
            rule: passes::SEMANTIC_RULES[0],
            file: "crates/qos/src/lib.rs".to_string(),
            line: 3,
            message: "m".to_string(),
            symbol: Some("f/panic".to_string()),
        };
        let mut cache = Cache::load(&dir);
        cache.store_passes(7, 4, std::slice::from_ref(&diag));
        cache.save();
        let reloaded = Cache::load(&dir);
        let (fns, edges, diags) = reloaded.load_passes().unwrap();
        assert_eq!((fns, edges), (7, 4));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, diag.rule);
        assert_eq!(diags[0].symbol, diag.symbol);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_written_under_one_ruleset_is_ignored_under_another() {
        let dir =
            std::env::temp_dir().join(format!("rcr-lint-ruleset-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let report = analyze_source("rcr-qos", "crates/qos/src/lib.rs", "pub fn f() {}\n", false);
        let key = content_key("rcr-qos", "crates/qos/src/lib.rs", "pub fn f() {}\n");
        let mut cache = Cache::load(&dir);
        cache.put("crates/qos/src/lib.rs", key, &report);
        cache.save();
        // Same fingerprint: warm. Different fingerprint (rule set changed
        // without an ANALYZER_VERSION bump): the document must be ignored.
        let mut same = Cache::load_keyed(&dir, ruleset_fingerprint());
        assert!(same.get("crates/qos/src/lib.rs", key).is_some());
        let mut other = Cache::load_keyed(&dir, ruleset_fingerprint() ^ 1);
        assert!(other.get("crates/qos/src/lib.rs", key).is_none());
        // A save under the new fingerprint re-keys the document.
        other.put("crates/qos/src/lib.rs", key, &report);
        other.save();
        let mut old = Cache::load_keyed(&dir, ruleset_fingerprint());
        assert!(old.get("crates/qos/src/lib.rs", key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
