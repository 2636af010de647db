//! The three inter-procedural passes over the workspace call graph.

use super::Graph;
use crate::diag::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// Semantic rule slugs — also valid targets for `rcr-lint: allow(...)`
/// pragmas (which act as graph cut points, see [`super::parse`]).
pub const PANIC_REACHABILITY: &str = "panic-reachability";
pub const LOCK_ORDER_CYCLE: &str = "lock-order-cycle";
pub const LOCK_HELD_ACROSS_SEND: &str = "lock-held-across-send";
pub const DETERMINISM_TAINT: &str = "determinism-taint";

/// All rules of the semantic + dataflow + unit-flow layers: the set
/// pragmas may name, the baseline may hold, and the summary reports on.
pub const SEMANTIC_RULES: &[&str] = &[
    PANIC_REACHABILITY,
    LOCK_ORDER_CYCLE,
    LOCK_HELD_ACROSS_SEND,
    DETERMINISM_TAINT,
    super::dataflow::UNCHECKED_TIME_ARITHMETIC,
    super::dataflow::ALLOC_FLOW,
    super::dataflow::FLOAT_REDUCTION_ORDER,
    super::units::DB_LINEAR_MIX,
    super::units::UNIT_MISMATCH_AT_CALL,
    super::units::RATE_COUNT_MIX,
];

/// Crates whose *public* fns must be transitively panic-free: a panic
/// inside a worker loses the whole batch it was solving.
pub(super) const PANIC_SCOPE: &[&str] = &[
    "rcr-core",
    "rcr-convex",
    "rcr-minlp",
    "rcr-qos",
    "rcr-pso",
    "rcr-nn",
    "rcr-verify",
    "rcr-signal",
    "rcr-linalg",
];

/// Crates whose mutex discipline the lock-order pass audits.
const LOCK_SCOPE: &[&str] = &["rcr-runtime", "rcr-serve"];

/// Method names that mark a fn as a batch-solve entry point wherever it
/// lives — the values these return feed verifier verdicts.
const SOLVE_ENTRY_METHODS: &[&str] = &["solve_item", "solve_batch"];

/// Runs the call-graph passes plus the dataflow ([`super::dataflow`])
/// and unit-flow ([`super::units`]) layers; diagnostics come back
/// sorted by (file, line, rule) like the lexical layer's.
pub fn run_all(graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(panic_reachability(graph));
    diags.extend(lock_order(graph));
    diags.extend(determinism_taint(graph));
    diags.extend(super::dataflow::run_all(graph));
    diags.extend(super::units::run_all(graph));
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags
}

/// Why a fn reaches a panic: its own site, or the first callee found to
/// reach one.
#[derive(Clone)]
pub(super) enum Why {
    Site(u32, String),
    Via(usize, u32),
}

/// Fixpoint over "reaches a panic site", cut at `cut_panic` fns, then a
/// diagnostic per public fn of a `PANIC_SCOPE` crate that still reaches
/// one. The message narrates one concrete path.
fn panic_reachability(graph: &Graph) -> Vec<Diagnostic> {
    let why = propagate(
        graph,
        |f| !f.cut_panic,
        |f| f.panics.first().map(|s| (s.line, s.what.clone())),
    );
    let mut diags = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !f.is_pub || !PANIC_SCOPE.contains(&f.crate_name.as_str()) {
            continue;
        }
        let Some(w) = &why[i] else { continue };
        diags.push(Diagnostic {
            rule: PANIC_REACHABILITY,
            file: f.file.clone(),
            line: f.line,
            message: format!(
                "public fn `{}` can reach a panic: {}",
                f.symbol(),
                narrate(graph, &why, i, w)
            ),
            symbol: Some(f.symbol()),
        });
    }
    diags
}

/// Fixpoint over "returns nondeterminism", cut at `cut_taint` fns, then
/// a diagnostic per entry point (public solver-crate fn, or any
/// `solve_item`/`solve_batch` method) still tainted.
fn determinism_taint(graph: &Graph) -> Vec<Diagnostic> {
    let why = propagate(
        graph,
        |f| !f.cut_taint,
        |f| f.taints.first().map(|s| (s.line, s.what.clone())),
    );
    let mut diags = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        let solver_entry = f.is_pub && PANIC_SCOPE.contains(&f.crate_name.as_str());
        let solve_method = f.has_self && SOLVE_ENTRY_METHODS.contains(&f.name.as_str());
        if !solver_entry && !solve_method {
            continue;
        }
        let Some(w) = &why[i] else { continue };
        diags.push(Diagnostic {
            rule: DETERMINISM_TAINT,
            file: f.file.clone(),
            line: f.line,
            message: format!(
                "solver entry `{}` is tainted by a nondeterminism source: {}",
                f.symbol(),
                narrate(graph, &why, i, w)
            ),
            symbol: Some(f.symbol()),
        });
    }
    diags
}

/// Shared backwards fixpoint: a fn "fires" when it has a direct site
/// (per `site`) or calls a firing fn, unless `keep` excludes it from
/// propagation (pragma cut point). Returns the provenance per fn.
pub(super) fn propagate(
    graph: &Graph,
    keep: impl Fn(&super::FnDef) -> bool,
    site: impl Fn(&super::FnDef) -> Option<(u32, String)>,
) -> Vec<Option<Why>> {
    let n = graph.fns.len();
    let mut why: Vec<Option<Why>> = vec![None; n];
    let rev = graph.reverse();
    let mut work: Vec<usize> = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !keep(f) {
            continue;
        }
        if let Some((line, what)) = site(f) {
            why[i] = Some(Why::Site(line, what));
            work.push(i);
        }
    }
    while let Some(i) = work.pop() {
        for &caller in &rev[i] {
            if why[caller].is_some() || !keep(&graph.fns[caller]) {
                continue;
            }
            let line = graph.edge_line.get(&(caller, i)).copied().unwrap_or(0);
            why[caller] = Some(Why::Via(i, line));
            work.push(caller);
        }
    }
    why
}

/// Renders one concrete path to the originating site, capped at a few
/// hops so messages stay one line.
pub(super) fn narrate(graph: &Graph, why: &[Option<Why>], start: usize, first: &Why) -> String {
    let mut out = String::new();
    let mut cur = first.clone();
    let mut at = start;
    for hop in 0..6 {
        match cur {
            Why::Site(line, what) => {
                let place = if at == start {
                    format!("line {line}")
                } else {
                    format!("`{}` line {line}", graph.fns[at].symbol())
                };
                out.push_str(&format!("{what} at {place}"));
                return out;
            }
            Why::Via(next, line) => {
                if hop == 5 {
                    out.push_str(&format!("... via `{}`", graph.fns[next].symbol()));
                    return out;
                }
                out.push_str(&format!(
                    "calls `{}` (line {line}), which ",
                    graph.fns[next].symbol()
                ));
                at = next;
                match &why[next] {
                    Some(w) => cur = w.clone(),
                    None => {
                        out.push_str("fires");
                        return out;
                    }
                }
            }
        }
    }
    out
}

/// Lock-order analysis over `LOCK_SCOPE`:
///
/// 1. compute each fn's *transitive* acquire-set (locks it or its
///    callees may take);
/// 2. build the order digraph `held → acquired`, from direct
///    acquisitions under held locks and from calls made while holding;
/// 3. fail on any cycle (including `l → l`: re-acquiring a std `Mutex`
///    on the same thread deadlocks);
/// 4. surface every `send`/callback executed while holding a lock.
fn lock_order(graph: &Graph) -> Vec<Diagnostic> {
    let in_scope: Vec<bool> = graph
        .fns
        .iter()
        .map(|f| LOCK_SCOPE.contains(&f.crate_name.as_str()))
        .collect();

    // Transitive acquire-sets, fixpoint over the call graph (scope
    // crates only — solver crates are lock-free by construction).
    let n = graph.fns.len();
    let mut acq: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (i, f) in graph.fns.iter().enumerate() {
        if in_scope[i] {
            acq[i].extend(f.locks.iter().map(|l| l.name.clone()));
        }
    }
    loop {
        let mut changed = false;
        for i in 0..n {
            if !in_scope[i] {
                continue;
            }
            for &c in &graph.callees[i] {
                let add: Vec<String> = acq[c].difference(&acq[i]).cloned().collect();
                if !add.is_empty() {
                    acq[i].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges with provenance: (held, acquired) → (file, line, via).
    let mut edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !in_scope[i] {
            continue;
        }
        for l in &f.locks {
            for h in &l.held {
                edges.entry((h.clone(), l.name.clone())).or_insert((
                    f.file.clone(),
                    l.line,
                    f.symbol(),
                ));
            }
        }
        for (ci, call) in f.calls.iter().enumerate() {
            if call.held.is_empty() {
                continue;
            }
            let _ = ci;
            for &c in &graph.callees[i] {
                // Restrict to resolved callees matching this call's
                // name: the per-call `held` snapshot matters.
                let callee = &graph.fns[c];
                if callee.name != call.path[call.path.len() - 1] {
                    continue;
                }
                for lock in &acq[c] {
                    for h in &call.held {
                        edges.entry((h.clone(), lock.clone())).or_insert((
                            f.file.clone(),
                            call.line,
                            format!("{} -> {}", f.symbol(), callee.symbol()),
                        ));
                    }
                }
            }
        }
    }

    let mut diags = Vec::new();

    // Cycle detection: self-loops first, then pairwise/longer cycles
    // via DFS over the (tiny) lock-name digraph.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (h, a) in edges.keys() {
        adj.entry(h.as_str()).or_default().push(a.as_str());
    }
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for ((h, a), (file, line, via)) in &edges {
        if h == a {
            diags.push(Diagnostic {
                rule: LOCK_ORDER_CYCLE,
                file: file.clone(),
                line: *line,
                message: format!(
                    "lock `{h}` re-acquired while already held (self-deadlock) in {via}"
                ),
                symbol: Some(via.clone()),
            });
            continue;
        }
        // A cycle through this edge exists iff `a` can reach `h`.
        if reaches(&adj, a, h) {
            let key: BTreeSet<String> = [h.clone(), a.clone()].into();
            if reported.insert(key) {
                diags.push(Diagnostic {
                    rule: LOCK_ORDER_CYCLE,
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "lock-order cycle: `{h}` held while acquiring `{a}`, and `{a}` is (transitively) held while acquiring `{h}` — acquisition order must be total (first edge via {via})"
                    ),
                    symbol: Some(via.clone()),
                });
            }
        }
    }

    // Held-across-send / callback-under-lock: direct sites from parse.
    for (i, f) in graph.fns.iter().enumerate() {
        if !in_scope[i] {
            continue;
        }
        let mut ordinal: BTreeMap<&str, usize> = BTreeMap::new();
        for r in &f.risky {
            let kind = if r.what == "send" { "send" } else { "callback" };
            let k = ordinal.entry(kind).or_insert(0);
            *k += 1;
            let sym = if *k == 1 {
                format!("{}/{kind}", f.symbol())
            } else {
                format!("{}/{kind}#{k}", f.symbol())
            };
            diags.push(Diagnostic {
                rule: LOCK_HELD_ACROSS_SEND,
                file: f.file.clone(),
                line: r.line,
                message: format!(
                    "`{}` invokes {} while holding lock(s) {}: the receiver (or callee) can block or re-enter and stall every lane behind the lock",
                    f.symbol(),
                    r.what,
                    r.held.join(", ")
                ),
                symbol: Some(sym),
            });
        }
    }
    diags
}

/// DFS reachability in the lock-name digraph.
fn reaches(adj: &BTreeMap<&str, Vec<&str>>, from: &str, to: &str) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(x) = stack.pop() {
        if x == to {
            return true;
        }
        if !seen.insert(x.to_string()) {
            continue;
        }
        if let Some(next) = adj.get(x) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::{extract_file, FileSem};
    use crate::tokenizer::tokenize;

    fn sem_with_allows(crate_name: &str, file: &str, src: &str) -> FileSem {
        let tokens = tokenize(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        let in_test = vec![false; code.len()];
        let has_code_on_line = |line: u32| code.iter().any(|&i| tokens[i].line == line);
        let pragmas = crate::pragma::collect(&tokens, &has_code_on_line);
        extract_file(crate_name, file, &tokens, &code, &in_test, &pragmas)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<(&str, Option<&str>)> {
        diags
            .iter()
            .map(|d| (d.rule, d.symbol.as_deref()))
            .collect()
    }

    #[test]
    fn panic_reaches_through_two_hops_into_public_api() {
        let f = sem_with_allows(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "pub fn solve(xs: &[f64]) -> f64 { inner(xs) }\nfn inner(xs: &[f64]) -> f64 { pick(xs) }\nfn pick(xs: &[f64]) -> f64 { xs[0] }\n",
        );
        let g = Graph::build(vec![f]);
        let diags = panic_reachability(&g);
        assert_eq!(rules_of(&diags), vec![(PANIC_REACHABILITY, Some("solve"))]);
        assert!(
            diags[0].message.contains("slice index"),
            "{}",
            diags[0].message
        );
        assert!(diags[0].message.contains("`pick`"), "{}", diags[0].message);
    }

    #[test]
    fn pragma_on_fn_cuts_panic_propagation() {
        let f = sem_with_allows(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "pub fn solve(xs: &[f64]) -> f64 { inner(xs) }\n// rcr-lint: allow(panic-reachability, reason = \"len checked by caller contract\")\nfn inner(xs: &[f64]) -> f64 { xs[0] }\n",
        );
        let g = Graph::build(vec![f]);
        assert!(panic_reachability(&g).is_empty());
    }

    #[test]
    fn site_level_pragma_cuts_a_single_site() {
        let f = sem_with_allows(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "pub fn solve(xs: &[f64]) -> f64 {\n    // rcr-lint: allow(panic-reachability, reason = \"index bounded above\")\n    xs[0]\n}\n",
        );
        let g = Graph::build(vec![f]);
        assert!(panic_reachability(&g).is_empty());
    }

    #[test]
    fn private_and_out_of_scope_fns_do_not_report() {
        let f = sem_with_allows(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "pub fn handler(xs: &[f64]) -> f64 { xs[0] }\n",
        );
        let g = Graph::build(vec![f]);
        assert!(panic_reachability(&g).is_empty());
    }

    #[test]
    fn taint_flows_across_crates_into_solver_entry() {
        let rt = sem_with_allows(
            "rcr-runtime",
            "crates/runtime/src/lib.rs",
            "pub fn jitter() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n",
        );
        let qos = sem_with_allows(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "pub fn solve() -> u64 { rcr_runtime::jitter() }\n",
        );
        let g = Graph::build(vec![rt, qos]);
        let diags = determinism_taint(&g);
        assert_eq!(rules_of(&diags), vec![(DETERMINISM_TAINT, Some("solve"))]);
        assert!(
            diags[0].message.contains("Instant::now"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn solve_item_method_is_an_entry_point_anywhere() {
        let f = sem_with_allows(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "pub struct E;\nimpl E {\n    pub fn solve_item(&self) -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = determinism_taint(&g);
        assert_eq!(
            rules_of(&diags),
            vec![(DETERMINISM_TAINT, Some("E::solve_item"))]
        );
    }

    #[test]
    fn opposite_lock_orders_in_two_fns_is_a_cycle() {
        let f = sem_with_allows(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "use std::sync::Mutex;\npub struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    pub fn ab(&self) { let ga = self.a.lock().unwrap(); let gb = self.b.lock().unwrap(); let _ = (ga, gb); }\n    pub fn ba(&self) { let gb = self.b.lock().unwrap(); let ga = self.a.lock().unwrap(); let _ = (ga, gb); }\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = lock_order(&g);
        assert!(
            diags.iter().any(|d| d.rule == LOCK_ORDER_CYCLE),
            "{diags:?}"
        );
    }

    #[test]
    fn transitive_acquisition_through_a_callee_is_seen() {
        let f = sem_with_allows(
            "rcr-runtime",
            "crates/runtime/src/lib.rs",
            "use std::sync::Mutex;\npub struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    pub fn outer(&self) { let ga = self.a.lock().unwrap(); self.take_b(); drop(ga); }\n    fn take_b(&self) { let gb = self.b.lock().unwrap(); drop(gb); }\n    pub fn other(&self) { let gb = self.b.lock().unwrap(); let ga = self.a.lock().unwrap(); let _ = (ga, gb); }\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = lock_order(&g);
        assert!(
            diags.iter().any(|d| d.rule == LOCK_ORDER_CYCLE),
            "transitive a->b plus direct b->a must cycle: {diags:?}"
        );
    }

    #[test]
    fn drop_releases_the_guard_before_the_next_lock() {
        let f = sem_with_allows(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "use std::sync::Mutex;\npub struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    pub fn ab(&self) { let ga = self.a.lock().unwrap(); drop(ga); let gb = self.b.lock().unwrap(); drop(gb); }\n    pub fn ba(&self) { let gb = self.b.lock().unwrap(); drop(gb); let ga = self.a.lock().unwrap(); drop(ga); }\n}\n",
        );
        let g = Graph::build(vec![f]);
        assert!(lock_order(&g).is_empty());
    }

    #[test]
    fn send_under_lock_and_callback_under_lock_fire() {
        let f = sem_with_allows(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "use std::sync::Mutex;\npub fn notify(m: &Mutex<u32>, tx: &std::sync::mpsc::Sender<u32>, f: impl Fn()) {\n    let g = m.lock().unwrap();\n    tx.send(*g).unwrap();\n    f();\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = lock_order(&g);
        let syms: Vec<Option<&str>> = diags
            .iter()
            .filter(|d| d.rule == LOCK_HELD_ACROSS_SEND)
            .map(|d| d.symbol.as_deref())
            .collect();
        assert_eq!(syms, vec![Some("notify/send"), Some("notify/callback")]);
    }

    #[test]
    fn temporary_guard_dies_at_end_of_statement() {
        let f = sem_with_allows(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "use std::sync::Mutex;\npub fn peek(m: &Mutex<u32>, tx: &std::sync::mpsc::Sender<u32>) {\n    let v = *m.lock().unwrap();\n    tx.send(v).unwrap();\n}\n",
        );
        let g = Graph::build(vec![f]);
        assert!(lock_order(&g).is_empty());
    }
}
