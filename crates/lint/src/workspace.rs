//! Workspace discovery and the whole-tree lint run.
//!
//! Crates are found by scanning `crates/*/Cargo.toml` plus the root
//! package; `vendor/` (hermetic shims for external crates) and build
//! output are never linted. Only `src/` trees are scanned — the rules
//! with test exemptions already skip `tests/`, `benches/`, and
//! `examples/`, and the determinism rules care about library code.
//!
//! Every run does the same two layers over the whole tree, and writes
//! nothing:
//!
//! 1. **per-file** — tokenize, lexical rules, semantic extraction;
//! 2. **workspace** — build the call graph over all extractions and run
//!    the inter-procedural passes ([`crate::sem::passes`]), then apply
//!    the ratchet baseline ([`crate::baseline`]).

use crate::baseline::{Baseline, STALE_BASELINE};
use crate::diag::Diagnostic;
use crate::engine::{analyze_source, RuleStats};
use crate::rules::registry;
use crate::sem::{passes, Graph};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One discovered workspace member.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `Cargo.toml` (e.g. `rcr-qos`).
    pub name: String,
    /// Directory containing the crate's `Cargo.toml`.
    pub dir: PathBuf,
}

/// Knobs for one lint run. `Default` applies the workspace's committed
/// baseline (when present).
#[derive(Debug, Default)]
pub struct Options {
    /// Explicit baseline path; `None` auto-loads
    /// `<root>/lint-baseline.json` when it exists.
    pub baseline_path: Option<PathBuf>,
    /// Skip baseline application, leaving raw semantic findings in the
    /// report (used by `--write-baseline`).
    pub no_baseline: bool,
}

/// The full run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Per-rule totals for the lexical layer, keyed by slug.
    pub stats: BTreeMap<&'static str, RuleStats>,
    /// Per-rule totals for the semantic passes: `violations` counts
    /// findings that survived the baseline, `suppressed` counts
    /// baselined ones.
    pub sem_stats: BTreeMap<&'static str, RuleStats>,
    pub files_scanned: usize,
    pub crates_scanned: usize,
    /// Call-graph size, for the summary line.
    pub graph_fns: usize,
    pub graph_edges: usize,
    /// Sites removed by semantic allow-pragmas (graph cut points).
    pub sem_cut_sites: usize,
    pub stale_baseline: usize,
}

impl Report {
    /// `true` when the workspace is lint-clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The CI-visible rule summary: which rules ran, over how many
    /// files, and what they found.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rcr-lint: {} crates, {} files scanned\n",
            self.crates_scanned, self.files_scanned
        ));
        for rule in registry() {
            let s = self.stats.get(rule.slug).cloned().unwrap_or_default();
            out.push_str(&format!(
                "  {:<26} {:>3} violation(s), {:>2} suppressed  — {}\n",
                rule.slug, s.violations, s.suppressed, rule.summary
            ));
        }
        let bad = self
            .diagnostics
            .iter()
            .filter(|d| d.rule == crate::rules::BAD_PRAGMA)
            .count();
        if bad > 0 {
            out.push_str(&format!(
                "  {:<26} {:>3} malformed pragma(s)\n",
                "bad-pragma", bad
            ));
        }
        out.push_str(&format!(
            "  semantic: call graph over {} fns, {} edges; {} pragma cut point(s)\n",
            self.graph_fns, self.graph_edges, self.sem_cut_sites
        ));
        for slug in passes::SEMANTIC_RULES {
            let s = self.sem_stats.get(slug).cloned().unwrap_or_default();
            out.push_str(&format!(
                "  {:<26} {:>3} finding(s), {:>2} baselined\n",
                slug, s.violations, s.suppressed
            ));
        }
        if self.stale_baseline > 0 {
            out.push_str(&format!(
                "  {:<26} {:>3} stale entry(ies) — baseline may only shrink\n",
                STALE_BASELINE, self.stale_baseline
            ));
        }
        out
    }
}

/// Walks up from `start` to the workspace root: the first ancestor
/// holding both a `Cargo.toml` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Discovers lintable workspace members (excludes `vendor/*`).
pub fn discover_crates(root: &Path) -> io::Result<Vec<CrateInfo>> {
    let mut crates = Vec::new();
    if let Some(name) = package_name(&root.join("Cargo.toml"))? {
        crates.push(CrateInfo {
            name,
            dir: root.to_path_buf(),
        });
    }
    let crates_dir = root.join("crates");
    let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    entries.sort();
    for dir in entries {
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        if let Some(name) = package_name(&manifest)? {
            crates.push(CrateInfo { name, dir });
        }
    }
    Ok(crates)
}

/// First `name = "..."` under `[package]` — enough for this workspace's
/// hand-written manifests; no TOML parser needed.
fn package_name(manifest: &Path) -> io::Result<Option<String>> {
    let text = fs::read_to_string(manifest)?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    let v = v.trim().trim_matches('"');
                    return Ok(Some(v.to_string()));
                }
            }
        }
    }
    Ok(None)
}

/// Full-default run: every file, committed baseline applied.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    lint_workspace_with(root, &Options::default())
}

/// Lints every `src/**/*.rs` of every discovered crate, per `opts`.
pub fn lint_workspace_with(root: &Path, opts: &Options) -> io::Result<Report> {
    let crates = discover_crates(root)?;
    let mut report = Report {
        crates_scanned: crates.len(),
        ..Report::default()
    };
    let mut sems = Vec::new();
    for info in &crates {
        let src_dir = info.dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let source = fs::read_to_string(&path)?;
            let is_root = path
                .file_name()
                .is_some_and(|f| f == "lib.rs" || f == "main.rs")
                && path.parent().is_some_and(|p| p == src_dir);
            let file_report = analyze_source(&info.name, &rel, &source, is_root);
            report.files_scanned += 1;
            report.diagnostics.extend(file_report.diagnostics);
            for (slug, s) in file_report.stats {
                let agg = report.stats.entry(slug).or_default();
                agg.violations += s.violations;
                agg.suppressed += s.suppressed;
            }
            report.sem_cut_sites += file_report.sem.cut_panics
                + file_report.sem.cut_taints
                + file_report.sem.cut_risky
                + file_report.sem.cut_time_ops
                + file_report.sem.cut_allocs
                + file_report.sem.cut_reductions
                + file_report.sem.cut_units;
            sems.push(file_report.sem);
        }
    }

    let graph = Graph::build(&sems);
    report.graph_fns = graph.fns.len();
    report.graph_edges = graph.callees.iter().map(Vec::len).sum();
    let survivors = apply_baseline(root, opts, passes::run_all(&graph), &mut report)?;
    report.diagnostics.extend(survivors);
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Applies the governing baseline to pre-baseline pass diagnostics,
/// filling `report.sem_stats`/`stale_baseline`, and returns the
/// surviving diagnostics.
fn apply_baseline(
    root: &Path,
    opts: &Options,
    sem_diags: Vec<Diagnostic>,
    report: &mut Report,
) -> io::Result<Vec<Diagnostic>> {
    let baseline = load_baseline(root, opts)?;
    Ok(match &baseline {
        Some(b) => {
            let pre = count_by_rule(&sem_diags);
            let (survivors, stats) = b.apply(sem_diags, "lint-baseline.json");
            report.stale_baseline = stats.stale;
            let post = count_by_rule(&survivors);
            for slug in passes::SEMANTIC_RULES {
                let before = pre.get(slug).copied().unwrap_or(0);
                let after = post.get(slug).copied().unwrap_or(0);
                report.sem_stats.insert(
                    slug,
                    RuleStats {
                        violations: after,
                        suppressed: before - after,
                    },
                );
            }
            survivors
        }
        None => {
            for slug in passes::SEMANTIC_RULES {
                let count = sem_diags.iter().filter(|d| d.rule == *slug).count();
                report.sem_stats.insert(
                    slug,
                    RuleStats {
                        violations: count,
                        suppressed: 0,
                    },
                );
            }
            sem_diags
        }
    })
}

fn count_by_rule(diags: &[Diagnostic]) -> BTreeMap<&'static str, usize> {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for d in diags {
        *counts.entry(d.rule).or_default() += 1;
    }
    counts
}

/// Resolves which baseline (if any) governs this run. An explicit path
/// that fails to load is an error; the implicit workspace baseline is
/// only used when present.
fn load_baseline(root: &Path, opts: &Options) -> io::Result<Option<Baseline>> {
    if opts.no_baseline {
        return Ok(None);
    }
    let path = match &opts.baseline_path {
        Some(p) => p.clone(),
        None => {
            let implicit = root.join("lint-baseline.json");
            if !implicit.is_file() {
                return Ok(None);
            }
            implicit
        }
    };
    Baseline::load(&path)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
