//! Workspace symbol table and call graph over [`FnDef`]s.
//!
//! Resolution is heuristic by design (no type inference):
//!
//! * **Qualified calls** (`Type::new`, `module::helper`,
//!   `rcr_runtime::resolve_workers`) resolve through the hint segment —
//!   a known impl-type name, a known file-stem module, or a known crate
//!   name (underscores mapped to hyphens). Unknown hints (`Box::new`,
//!   `Vec::with_capacity`) produce no edge.
//! * **Bare calls** (`helper(x)`) resolve within the caller's file
//!   first, then to free fns of the caller's crate — never across
//!   crates, which always require a qualified path.
//! * **Method calls** (`x.solve_item(...)`) resolve by name to methods
//!   (`has_self`) in the caller's crate, falling back to the whole
//!   workspace (trait dispatch crosses crates); a deny-list of
//!   ubiquitous std method names suppresses the noise edges that would
//!   otherwise connect everything to everything.
//!
//! The result over-approximates; the ratchet baseline absorbs reviewed
//! false positives, and pragmas cut deliberate ones.

use super::{FileSem, FnDef};
use std::collections::BTreeMap;

/// Method names that belong to std/core types and never resolve to
/// workspace fns. Names central to the solver surface (`solve*`,
/// `execute`, `run`) are deliberately absent.
const STD_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "clone",
    "to_string",
    "to_owned",
    "to_vec",
    "into",
    "from",
    "collect",
    "map",
    "filter",
    "fold",
    "sum",
    "min",
    "max",
    "abs",
    "sqrt",
    "powi",
    "powf",
    "exp",
    "ln",
    "log2",
    "floor",
    "ceil",
    "round",
    "next",
    "nth",
    "count",
    "chain",
    "zip",
    "enumerate",
    "rev",
    "take",
    "skip",
    "find",
    "position",
    "any",
    "all",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "and_then",
    "or_else",
    "map_err",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "as_slice",
    "borrow",
    "borrow_mut",
    "lock",
    "read",
    "write",
    "send",
    "recv",
    "try_recv",
    "join",
    "spawn",
    "wait",
    "notify_one",
    "notify_all",
    "clamp",
    "min_by",
    "max_by",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "binary_search",
    "extend",
    "drain",
    "clear",
    "split",
    "splitn",
    "trim",
    "starts_with",
    "ends_with",
    "replace",
    "chars",
    "bytes",
    "lines",
    "parse",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "keys",
    "values",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "retain",
    "truncate",
    "resize",
    "reserve",
    "with_capacity",
    "swap",
    "fill",
    "copy_from_slice",
    "clone_from_slice",
    "elapsed",
    "duration_since",
    "as_secs",
    "as_millis",
    "as_micros",
    "as_nanos",
    "id",
    "name",
    "first",
    "last",
    "windows",
    "chunks",
    "concat",
    "flatten",
    "flat_map",
    "max_by_key",
    "min_by_key",
    "then",
    "then_with",
    "total_cmp",
    "is_nan",
    "is_finite",
    "is_infinite",
    "mul_add",
    "rem_euclid",
    "saturating_sub",
    "saturating_add",
    "checked_sub",
    "checked_add",
    "wrapping_add",
    "wrapping_sub",
    "to_bits",
    "from_bits",
    "take_while",
    "skip_while",
    "unzip",
    "partition",
    "product",
    "step_by",
    "get_or_insert_with",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_deref",
    "copied",
    "cloned",
    "by_ref",
    "peekable",
    "peek",
];

/// The workspace call graph: all fns plus resolved call edges.
#[derive(Debug, Default)]
pub struct Graph {
    pub fns: Vec<FnDef>,
    /// `callees[i]` — indices into `fns`, parallel to `fns[i].calls`
    /// resolution (deduped, sorted).
    pub callees: Vec<Vec<usize>>,
    /// For each edge `(caller, callee)` the line of the first call site
    /// that produced it — used to narrate reachability paths.
    pub edge_line: BTreeMap<(usize, usize), u32>,
}

impl Graph {
    /// Builds the graph from per-file extractions, taking their fns.
    /// `files` must be in a deterministic order (the workspace walker
    /// sorts paths).
    pub fn build(files: Vec<FileSem>) -> Graph {
        let mut fns: Vec<FnDef> = files.into_iter().flat_map(|f| f.fns).collect();
        // Deterministic node order regardless of input grouping.
        fns.sort_by(|a, b| (&a.file, a.line, &a.name).cmp(&(&b.file, b.line, &b.name)));

        // Indexes for the three resolution strategies.
        let mut by_qual_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_crate_free: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_file_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_module_name: BTreeMap<(&str, &str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_crate_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if let Some(q) = &f.qual {
                by_qual_name.entry((q, &f.name)).or_default().push(i);
            } else {
                by_crate_free
                    .entry((&f.crate_name, &f.name))
                    .or_default()
                    .push(i);
                by_file_name.entry((&f.file, &f.name)).or_default().push(i);
                by_module_name
                    .entry((&f.crate_name, &f.module, &f.name))
                    .or_default()
                    .push(i);
            }
            by_crate_name
                .entry((&f.crate_name, &f.name))
                .or_default()
                .push(i);
            if f.has_self {
                methods_by_name.entry(&f.name).or_default().push(i);
            }
        }

        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut edge_line: BTreeMap<(usize, usize), u32> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            let mut targets: Vec<(usize, u32)> = Vec::new();
            for call in &f.calls {
                if call.method {
                    let name = call.path[0].as_str();
                    if STD_METHODS.contains(&name) {
                        continue;
                    }
                    if let Some(cands) = methods_by_name.get(name) {
                        let same_crate: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&c| fns[c].crate_name == f.crate_name)
                            .collect();
                        let chosen = if same_crate.is_empty() {
                            cands.clone()
                        } else {
                            same_crate
                        };
                        for c in chosen {
                            targets.push((c, call.line));
                        }
                    }
                    continue;
                }
                match call.path.len() {
                    0 => {}
                    1 => {
                        let name = call.path[0].as_str();
                        let hits = by_file_name
                            .get(&(f.file.as_str(), name))
                            .or_else(|| by_crate_free.get(&(f.crate_name.as_str(), name)));
                        if let Some(hits) = hits {
                            for &c in hits {
                                targets.push((c, call.line));
                            }
                        }
                    }
                    _ => {
                        let name = call.path[call.path.len() - 1].as_str();
                        let hint = call.path[call.path.len() - 2].as_str();
                        let as_crate = hint.replace('_', "-");
                        let hits: Vec<usize> = if let Some(h) = by_qual_name.get(&(hint, name)) {
                            h.clone()
                        } else if let Some(h) =
                            by_module_name.get(&(f.crate_name.as_str(), hint, name))
                        {
                            h.clone()
                        } else if let Some(h) = by_crate_name.get(&(as_crate.as_str(), name)) {
                            h.clone()
                        } else {
                            Vec::new()
                        };
                        for c in hits {
                            targets.push((c, call.line));
                        }
                    }
                }
            }
            targets.sort();
            targets.dedup_by_key(|&mut (c, _)| c);
            for (c, line) in targets {
                edge_line.entry((i, c)).or_insert(line);
                callees[i].push(c);
            }
        }
        Graph {
            fns,
            callees,
            edge_line,
        }
    }

    /// Indices of callers: the reverse adjacency, computed on demand.
    pub fn reverse(&self) -> Vec<Vec<usize>> {
        let mut rev = vec![Vec::new(); self.fns.len()];
        for (i, cs) in self.callees.iter().enumerate() {
            for &c in cs {
                rev[c].push(i);
            }
        }
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pragma::Pragmas;
    use crate::sem::extract_file;
    use crate::tokenizer::tokenize;

    fn sem(crate_name: &str, file: &str, src: &str) -> FileSem {
        let tokens = tokenize(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        let in_test = vec![false; code.len()];
        extract_file(
            crate_name,
            file,
            &tokens,
            &code,
            &in_test,
            &Pragmas::default(),
        )
    }

    fn idx(g: &Graph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn bare_calls_resolve_within_crate_not_across() {
        let a = sem(
            "rcr-a",
            "crates/a/src/lib.rs",
            "pub fn entry() { helper(); }\nfn helper() {}\n",
        );
        let b = sem("rcr-b", "crates/b/src/lib.rs", "pub fn helper() {}\n");
        let g = Graph::build(vec![a, b]);
        let entry = idx(&g, "entry");
        assert_eq!(g.callees[entry].len(), 1);
        assert_eq!(g.fns[g.callees[entry][0]].crate_name, "rcr-a");
    }

    #[test]
    fn qualified_calls_resolve_via_impl_type_and_crate_hints() {
        let a = sem(
            "rcr-a",
            "crates/a/src/lib.rs",
            "pub struct W;\nimpl W {\n    pub fn new() -> W { W }\n}\npub fn boot() { let _ = W::new(); let _ = Vec::new(); rcr_b::run(); }\n",
        );
        let b = sem("rcr-b", "crates/b/src/lib.rs", "pub fn run() {}\n");
        let g = Graph::build(vec![a, b]);
        let boot = idx(&g, "boot");
        let names: Vec<&str> = g.callees[boot]
            .iter()
            .map(|&c| g.fns[c].name.as_str())
            .collect();
        // W::new resolves, Vec::new does not, rcr_b::run crosses crates.
        assert_eq!(names, vec!["new", "run"]);
    }

    #[test]
    fn method_calls_skip_std_names_and_prefer_same_crate() {
        let a = sem(
            "rcr-a",
            "crates/a/src/lib.rs",
            "pub struct S;\nimpl S {\n    pub fn solve_item(&self) {}\n}\npub fn go(s: &S, v: &[u32]) { s.solve_item(); let _ = v.len(); }\n",
        );
        let g = Graph::build(vec![a]);
        let go = idx(&g, "go");
        let names: Vec<&str> = g.callees[go]
            .iter()
            .map(|&c| g.fns[c].name.as_str())
            .collect();
        assert_eq!(names, vec!["solve_item"]);
    }
}
