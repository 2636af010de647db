//! The dataflow layer: three passes over expression-level sites that
//! the lexical rules and the original call-graph passes cannot see.
//!
//! * **unchecked-time-arithmetic** — raw `+`/`-`/`+=`/`-=` where an
//!   operand is time-typed (tick-count integers like `at_us`,
//!   `Instant`/`Duration` values and deltas) outside
//!   `checked_*`/`saturating_*` forms. This is exactly the class of the
//!   PR 6 `proximity_trigger`/near-epoch wakeup underflows and the PR 7
//!   FIFO expiry-sweep arithmetic: correct on every test machine,
//!   panicking at a time boundary in production.
//! * **alloc-flow** — escalates the lexical `no-alloc-in-kernel` rule
//!   interprocedurally: every allocation site (`Vec::new`, `collect`,
//!   `format!`, `clone`, ...) transitively reachable from a kernel
//!   entry point or a `*_into`/`*_scratch` API is a finding, with the
//!   reachable-site count (the *alloc budget*) encoded in the baseline
//!   symbol so budget growth fails the ratchet.
//! * **float-reduction-order** — float accumulation inside loops whose
//!   iteration source is order-nondeterministic (Hash* iteration,
//!   channel drains) violates the sequential add-chain contract that
//!   keeps solves bit-identical; `rcr-kernels` pins that contract with
//!   proptests, this pass enforces it statically everywhere.
//!
//! Sites are extracted in [`super::parse`] (pragma cuts apply there);
//! this module only walks the graph and shapes diagnostics.

use super::passes::{narrate, propagate, PANIC_SCOPE};
use super::{FnDef, Graph, Site};
use crate::diag::Diagnostic;

pub const UNCHECKED_TIME_ARITHMETIC: &str = "unchecked-time-arithmetic";
pub const ALLOC_FLOW: &str = "alloc-flow";
pub const FLOAT_REDUCTION_ORDER: &str = "float-reduction-order";

pub const DATAFLOW_RULES: &[&str] = &[UNCHECKED_TIME_ARITHMETIC, ALLOC_FLOW, FLOAT_REDUCTION_ORDER];

/// Runs all three dataflow passes (unsorted; [`super::passes::run_all`]
/// sorts the combined set).
pub fn run_all(graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(unchecked_time_arithmetic(graph));
    diags.extend(alloc_flow(graph));
    diags.extend(float_reduction_order(graph));
    diags
}

/// Per-site diagnostics with ordinal symbols (`sym/tag`, `sym/tag#2`,
/// ...) so each site gets its own ratchet-baseline key. Shared with the
/// unit-flow layer ([`super::units`]).
pub(super) fn site_pass(
    graph: &Graph,
    rule: &'static str,
    tag: &str,
    sites: impl Fn(&FnDef) -> &[Site],
    message: impl Fn(&FnDef, &Site) -> String,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in &graph.fns {
        for (k, s) in sites(f).iter().enumerate() {
            let symbol = if k == 0 {
                format!("{}/{tag}", f.symbol())
            } else {
                format!("{}/{tag}#{}", f.symbol(), k + 1)
            };
            diags.push(Diagnostic {
                rule,
                file: f.file.clone(),
                line: s.line,
                message: message(f, s),
                symbol: Some(symbol),
            });
        }
    }
    diags
}

/// Flags every recorded raw time-arithmetic site. Intra-procedural by
/// nature (the defect is the expression itself), but reported through
/// the same baseline/pragma machinery as the graph passes.
fn unchecked_time_arithmetic(graph: &Graph) -> Vec<Diagnostic> {
    site_pass(
        graph,
        UNCHECKED_TIME_ARITHMETIC,
        "time-arith",
        |f| &f.time_ops,
        |f, s| {
            format!(
                "`{}` performs {}: use a checked_/saturating_ form — raw time arithmetic \
                 under/overflows at boundaries (near-epoch instants, huge deadlines)",
                f.symbol(),
                s.what
            )
        },
    )
}

/// Flags accumulations whose iteration order the platform controls.
fn float_reduction_order(graph: &Graph) -> Vec<Diagnostic> {
    site_pass(
        graph,
        FLOAT_REDUCTION_ORDER,
        "reduction",
        |f| &f.reductions,
        |f, s| {
            format!(
                "`{}` has {}: float reduction order must be deterministic (sequential \
                 add-chain contract) — collect into an index-ordered buffer before reducing",
                f.symbol(),
                s.what
            )
        },
    )
}

/// A fn under the no-alloc contract: every public `rcr-kernels` fn,
/// plus public `*_into`/`*_scratch` APIs of the solver crates (their
/// whole point is writing into caller-owned buffers).
fn is_alloc_entry(f: &FnDef) -> bool {
    if !f.is_pub {
        return false;
    }
    if f.crate_name == "rcr-kernels" {
        return true;
    }
    (f.name.ends_with("_into") || f.name.ends_with("_scratch"))
        && PANIC_SCOPE.contains(&f.crate_name.as_str())
}

/// Interprocedural allocation reachability from no-alloc entry points,
/// with the reachable-site count as a per-entry budget in the symbol:
/// a budget increase shows up as a new finding *and* a stale baseline
/// entry, forcing review in both directions.
fn alloc_flow(graph: &Graph) -> Vec<Diagnostic> {
    let why = propagate(
        graph,
        |f| !f.cut_alloc,
        |f| f.allocs.first().map(|s| (s.line, s.what.clone())),
    );
    let mut diags = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !is_alloc_entry(f) {
            continue;
        }
        let Some(w) = &why[i] else { continue };
        let budget = reachable_alloc_sites(graph, i);
        diags.push(Diagnostic {
            rule: ALLOC_FLOW,
            file: f.file.clone(),
            line: f.line,
            message: format!(
                "no-alloc entry `{}` can reach {budget} allocation site(s): {}",
                f.symbol(),
                narrate(graph, &why, i, w)
            ),
            symbol: Some(format!("{}/allocs={budget}", f.symbol())),
        });
    }
    diags
}

/// Counts distinct allocation sites reachable from `start` (pragma-cut
/// fns are opaque: neither their sites nor their callees count).
fn reachable_alloc_sites(graph: &Graph, start: usize) -> usize {
    let mut seen = vec![false; graph.fns.len()];
    let mut stack = vec![start];
    let mut count = 0usize;
    while let Some(x) = stack.pop() {
        if seen[x] {
            continue;
        }
        seen[x] = true;
        if graph.fns[x].cut_alloc {
            continue;
        }
        count += graph.fns[x].allocs.len();
        for &c in &graph.callees[x] {
            if !seen[c] {
                stack.push(c);
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::{extract_file, FileSem};
    use crate::tokenizer::tokenize;

    fn sem_of(crate_name: &str, file: &str, src: &str) -> FileSem {
        let tokens = tokenize(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        let in_test = vec![false; code.len()];
        let has_code_on_line = |line: u32| code.iter().any(|&i| tokens[i].line == line);
        let pragmas = crate::pragma::collect(&tokens, &has_code_on_line);
        extract_file(crate_name, file, &tokens, &code, &in_test, &pragmas)
    }

    fn rules_syms(diags: &[Diagnostic]) -> Vec<(&str, Option<&str>)> {
        diags
            .iter()
            .map(|d| (d.rule, d.symbol.as_deref()))
            .collect()
    }

    // ---- unchecked-time-arithmetic: fail/pass pairs ----

    #[test]
    fn raw_subtraction_on_micros_fires() {
        let f = sem_of(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "pub fn age(deadline_us: u64, now_us: u64) -> u64 { deadline_us - now_us }\n",
        );
        let g = Graph::build(vec![f]);
        let diags = unchecked_time_arithmetic(&g);
        assert_eq!(
            rules_syms(&diags),
            vec![(UNCHECKED_TIME_ARITHMETIC, Some("age/time-arith"))]
        );
        assert!(
            diags[0].message.contains("deadline_us"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn checked_sub_form_is_clean() {
        let f = sem_of(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "pub fn age(deadline_us: u64, now_us: u64) -> u64 { deadline_us.saturating_sub(now_us) }\n",
        );
        let g = Graph::build(vec![f]);
        assert!(unchecked_time_arithmetic(&g).is_empty());
    }

    #[test]
    fn instant_plus_duration_and_compound_ops_fire() {
        let f = sem_of(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "use std::time::{Duration, Instant};\npub fn f(start: Instant, mut now_us: u64) -> Instant {\n    now_us += 1;\n    start + Duration::from_micros(now_us)\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = unchecked_time_arithmetic(&g);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[1].symbol.as_deref(), Some("f/time-arith#2"));
    }

    #[test]
    fn float_time_values_and_plain_counters_are_clean() {
        let f = sem_of(
            "rcr-scenarios",
            "crates/scenarios/src/lib.rs",
            "pub fn f(xs: &[f64], peak_rate_per_us: f64, base_rate_per_us: f64, i: usize) -> f64 {\n    let r = peak_rate_per_us - base_rate_per_us;\n    let t = xs[i] as f64 + 0.5;\n    let n = i + 1;\n    r + t + n as f64\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = unchecked_time_arithmetic(&g);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pragma_with_reason_cuts_a_time_site() {
        let f = sem_of(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "pub fn age(deadline_us: u64, now_us: u64) -> u64 {\n    // rcr-lint: allow(unchecked-time-arithmetic, reason = \"caller clamps now_us below deadline_us\")\n    deadline_us - now_us\n}\n",
        );
        assert_eq!(f.cut_time_ops, 1);
        let g = Graph::build(vec![f]);
        assert!(unchecked_time_arithmetic(&g).is_empty());
    }

    // ---- alloc-flow: fail/pass pairs ----

    #[test]
    fn alloc_reached_across_crates_from_kernel_entry() {
        let helper = sem_of(
            "rcr-linalg",
            "crates/linalg/src/lib.rs",
            "pub fn staging(n: usize) -> Vec<f64> { Vec::with_capacity(n) }\n",
        );
        let kernel = sem_of(
            "rcr-kernels",
            "crates/kernels/src/lib.rs",
            "pub fn gemm_into(out: &mut [f64]) { let _s = rcr_linalg::staging(out.len()); }\n",
        );
        let g = Graph::build(vec![helper, kernel]);
        let diags = alloc_flow(&g);
        assert_eq!(
            rules_syms(&diags),
            vec![(ALLOC_FLOW, Some("gemm_into/allocs=1"))]
        );
        assert!(
            diags[0].message.contains("Vec::with_capacity"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn alloc_free_entry_is_clean() {
        let kernel = sem_of(
            "rcr-kernels",
            "crates/kernels/src/lib.rs",
            "pub fn gemm_into(out: &mut [f64], x: &[f64]) { for (o, v) in out.iter_mut().zip(x) { *o = *v; } }\n",
        );
        let g = Graph::build(vec![kernel]);
        assert!(alloc_flow(&g).is_empty());
    }

    #[test]
    fn scratch_api_outside_solver_crates_is_not_an_entry() {
        let f = sem_of(
            "rcr-scenarios",
            "crates/scenarios/src/lib.rs",
            "pub fn render_into(out: &mut String) { out.push_str(&format!(\"x\")); }\n",
        );
        let g = Graph::build(vec![f]);
        assert!(alloc_flow(&g).is_empty());
    }

    #[test]
    fn fn_level_pragma_cuts_alloc_propagation() {
        let kernel = sem_of(
            "rcr-kernels",
            "crates/kernels/src/lib.rs",
            "pub fn pack_into(out: &mut [f64]) { cold(out.len()); }\n// rcr-lint: allow(alloc-flow, reason = \"cold path runs once at pool construction, never per solve\")\nfn cold(n: usize) { let _v: Vec<f64> = Vec::with_capacity(n); }\n",
        );
        let g = Graph::build(vec![kernel]);
        assert!(alloc_flow(&g).is_empty());
    }

    // ---- float-reduction-order: fail/pass pairs ----

    #[test]
    fn accumulation_over_hash_iteration_fires() {
        let f = sem_of(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "use std::collections::HashMap;\npub fn total(m: &HashMap<u64, f64>) -> f64 {\n    let mut acc = 0.0;\n    for v in m.values() {\n        acc += v;\n    }\n    acc\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = float_reduction_order(&g);
        assert_eq!(
            rules_syms(&diags),
            vec![(FLOAT_REDUCTION_ORDER, Some("total/reduction"))]
        );
        assert!(diags[0].message.contains("acc"), "{}", diags[0].message);
    }

    #[test]
    fn chained_sum_over_hash_iteration_fires() {
        let f = sem_of(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "use std::collections::HashMap;\npub fn total(m: &HashMap<u64, f64>) -> f64 {\n    m.values().sum::<f64>()\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = float_reduction_order(&g);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn vec_iteration_accumulation_is_clean() {
        let f = sem_of(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "pub fn total(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for v in xs.iter() {\n        acc += v;\n    }\n    acc\n}\n",
        );
        let g = Graph::build(vec![f]);
        assert!(float_reduction_order(&g).is_empty());
    }

    #[test]
    fn pragma_with_reason_cuts_a_reduction_site() {
        let f = sem_of(
            "rcr-serve",
            "crates/serve/src/lib.rs",
            "use std::collections::HashMap;\npub fn count(m: &HashMap<u64, u64>) -> u64 {\n    let mut acc = 0u64;\n    for v in m.values() {\n        // rcr-lint: allow(float-reduction-order, reason = \"integer sum is order-independent\")\n        acc += v;\n    }\n    acc\n}\n",
        );
        assert_eq!(f.cut_reductions, 1);
        let g = Graph::build(vec![f]);
        assert!(float_reduction_order(&g).is_empty());
    }
}
