//! The rule set.
//!
//! Each rule guards a numerical-robustness or determinism invariant
//! that the paper's Fig. 3 defect catalog shows real toolkits violate
//! (silently divergent primitives, NaN-propagation surprises,
//! platform-dependent iteration order). Rules operate on the token
//! stream from [`crate::tokenizer`], so they never fire inside string
//! literals or (doc) comments, and they are scoped per crate: a rule
//! that is law in the deterministic solver crates may be irrelevant in
//! the service layer, and vice versa.

use crate::tokenizer::{TokKind, Token};

/// Crates whose solves must be bit-reproducible: iteration order and
/// wall-clock reads are forbidden here without a justified allow. The
/// codec is held to the same rules because its digest is the replay
/// contract.
pub const SOLVER_CRATES: &[&str] = &[
    "rcr-codec",
    "rcr-convex",
    "rcr-pso",
    "rcr-nn",
    "rcr-verify",
    "rcr-minlp",
    "rcr-qos",
    "rcr-signal",
    "rcr-linalg",
    "rcr-numerics",
];

/// Crates that legitimately read the wall clock (scheduling deadlines,
/// worker pools, benchmark timing).
pub const WALL_CLOCK_CRATES: &[&str] = &["rcr-runtime", "rcr-serve", "rcr-bench"];

/// Whether a rule inspects code inside `#[cfg(test)]` / `#[test]`
/// regions and `tests/`/`benches/`/`examples/` files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestPolicy {
    /// The invariant holds everywhere (a NaN panic in a test hides the
    /// same defect it would hide in production code).
    IncludeTests,
    /// Test code is exempt (tests assert bit-identical floats and
    /// unwrap freely by design).
    SkipTests,
}

/// A lint rule: identity, scope, and its token-level check.
pub struct Rule {
    pub slug: &'static str,
    /// One-line statement of the invariant, shown in the summary.
    pub summary: &'static str,
    pub test_policy: TestPolicy,
    pub applies_to: fn(crate_name: &str) -> bool,
    pub check: fn(&FileCtx<'_>) -> Vec<Violation>,
}

/// A raw finding before suppression handling.
#[derive(Debug, Clone)]
pub struct Violation {
    pub line: u32,
    pub message: String,
    /// `true` when the finding sits inside test code — rules with
    /// [`TestPolicy::SkipTests`] have these filtered by the engine.
    pub in_test: bool,
}

/// Per-file analysis context handed to every rule check.
pub struct FileCtx<'a> {
    pub crate_name: &'a str,
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// All tokens, comments included.
    pub tokens: &'a [Token<'a>],
    /// Indices into `tokens` of non-comment tokens, in order.
    pub code: &'a [usize],
    /// Parallel to `code`: whether that token sits in a test region.
    pub in_test: &'a [bool],
    /// `true` for `src/lib.rs` / `src/main.rs` of a crate.
    pub is_crate_root: bool,
}

impl<'a> FileCtx<'a> {
    /// The `i`-th code token.
    fn ct(&self, i: usize) -> &Token<'a> {
        &self.tokens[self.code[i]]
    }

    /// Text of the `i`-th code token, or `""` past the end.
    fn text(&self, i: usize) -> &'a str {
        if i < self.code.len() {
            self.tokens[self.code[i]].text
        } else {
            ""
        }
    }

    fn kind(&self, i: usize) -> Option<TokKind> {
        self.code.get(i).map(|&j| self.tokens[j].kind)
    }

    /// `true` when the file itself is test/bench/example scaffolding.
    pub fn is_test_file(&self) -> bool {
        let p = self.rel_path;
        p.contains("/tests/") || p.contains("/benches/") || p.contains("/examples/")
    }
}

/// The registry, in reporting order.
pub fn registry() -> &'static [Rule] {
    &[
        Rule {
            slug: "float-total-cmp",
            summary: "float orderings must use total_cmp, not partial_cmp + unwrap/expect",
            test_policy: TestPolicy::IncludeTests,
            applies_to: |_| true,
            check: check_float_total_cmp,
        },
        Rule {
            slug: "no-unwrap-in-lib",
            summary: "no unwrap()/expect() in non-test library code",
            test_policy: TestPolicy::SkipTests,
            applies_to: |c| c != "rcr-bench",
            check: check_no_unwrap,
        },
        Rule {
            slug: "crate-hygiene",
            summary: "every crate root carries #![forbid(unsafe_code)]",
            test_policy: TestPolicy::IncludeTests,
            applies_to: |_| true,
            check: check_crate_hygiene,
        },
        Rule {
            slug: "hash-iteration-order",
            summary: "no HashMap/HashSet in deterministic solver crates",
            test_policy: TestPolicy::IncludeTests,
            applies_to: |c| SOLVER_CRATES.contains(&c),
            check: check_hash_iteration_order,
        },
        Rule {
            slug: "no-wall-clock-in-solvers",
            summary: "Instant::now/SystemTime::now confined to runtime/serve/bench",
            test_policy: TestPolicy::SkipTests,
            applies_to: |c| !WALL_CLOCK_CRATES.contains(&c),
            check: check_wall_clock,
        },
        Rule {
            slug: "float-literal-eq",
            summary: "no ==/!= against non-zero float literals",
            test_policy: TestPolicy::SkipTests,
            applies_to: |_| true,
            check: check_float_literal_eq,
        },
        Rule {
            slug: "no-alloc-in-kernel",
            summary:
                "kernel crate code paths must not allocate; use caller-provided slices or Scratch",
            test_policy: TestPolicy::SkipTests,
            applies_to: |c| c == "rcr-kernels",
            check: check_no_alloc_in_kernel,
        },
    ]
}

/// Rule slug used for malformed suppression pragmas.
pub const BAD_PRAGMA: &str = "bad-pragma";

/// `.partial_cmp(...)` whose result is immediately `unwrap()`ed or
/// `expect()`ed: panics on the first NaN that reaches a sort or argmax.
fn check_float_total_cmp(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = ctx.code.len();
    for i in 0..n {
        if ctx.text(i) != "." || ctx.text(i + 1) != "partial_cmp" || ctx.text(i + 2) != "(" {
            continue;
        }
        // Skip the balanced argument list.
        let mut depth = 0usize;
        let mut j = i + 2;
        while j < n {
            match ctx.text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let sink = ctx.text(j + 2);
        if ctx.text(j + 1) == "."
            && (sink == "unwrap" || sink == "expect")
            && ctx.text(j + 3) == "("
        {
            out.push(Violation {
                line: ctx.ct(i + 1).line,
                message: format!(
                    "partial_cmp(..).{sink}(..) panics on NaN; use total_cmp and state the NaN ordering"
                ),
                in_test: ctx.in_test[i + 1],
            });
        }
    }
    out
}

/// `unwrap()`/`expect()` in library code. The mutex-poisoning idiom
/// `.lock().unwrap()` / `.lock().expect(..)` is exempt: poisoning means
/// a holder already panicked, and propagating that panic is the
/// deliberate, bounded response (it cannot produce a silently wrong
/// numerical result, which is the defect class this rule guards).
fn check_no_unwrap(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = ctx.code.len();
    for i in 0..n {
        let name = ctx.text(i + 1);
        if ctx.text(i) != "." || (name != "unwrap" && name != "expect") || ctx.text(i + 2) != "(" {
            continue;
        }
        let after_lock =
            i >= 3 && ctx.text(i - 3) == "lock" && ctx.text(i - 2) == "(" && ctx.text(i - 1) == ")";
        if after_lock {
            continue;
        }
        out.push(Violation {
            line: ctx.ct(i + 1).line,
            message: format!(
                "{name}() in library code: return a typed error, restructure, or allow with a reason"
            ),
            in_test: ctx.in_test[i + 1],
        });
    }
    out
}

/// Crate roots must forbid `unsafe` — the whole workspace is a safe-Rust
/// numerical stack, and `#![forbid(unsafe_code)]` makes that machine-
/// checked at every root.
fn check_crate_hygiene(ctx: &FileCtx<'_>) -> Vec<Violation> {
    if !ctx.is_crate_root {
        return Vec::new();
    }
    let n = ctx.code.len();
    for i in 0..n {
        if ctx.text(i) == "#"
            && ctx.text(i + 1) == "!"
            && ctx.text(i + 2) == "["
            && ctx.text(i + 3) == "forbid"
            && ctx.text(i + 4) == "("
            && ctx.text(i + 5) == "unsafe_code"
        {
            return Vec::new();
        }
    }
    vec![Violation {
        line: 1,
        message: "crate root is missing #![forbid(unsafe_code)]".into(),
        in_test: false,
    }]
}

/// Hash containers in solver crates: `HashMap`/`HashSet` iteration
/// order is randomized per process, so any escape of that order breaks
/// bit-reproducibility. The check is conservative — it flags every
/// mention, because token-level analysis cannot prove the order never
/// escapes; use `BTreeMap`/`BTreeSet` or allow with a justification.
fn check_hash_iteration_order(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::new();
    for (i, &j) in ctx.code.iter().enumerate() {
        let t = &ctx.tokens[j];
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            // One diagnostic per line is enough (`HashMap::new()` on a
            // `HashMap<...>` annotation line would otherwise double-fire).
            if out.last().is_some_and(|v| v.line == t.line) {
                continue;
            }
            out.push(Violation {
                line: t.line,
                message: format!(
                    "{} in a deterministic solver crate: iteration order is nondeterministic; use a BTree container or justify with an allow",
                    t.text
                ),
                in_test: ctx.in_test[i],
            });
        }
    }
    out
}

/// Wall-clock reads inside solver crates make solves time-dependent
/// (adaptive cutoffs, time-seeded anything): confine them to the
/// runtime/serve/bench layers where deadlines live.
fn check_wall_clock(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = ctx.code.len();
    for i in 0..n {
        let head = ctx.text(i);
        if (head == "Instant" || head == "SystemTime")
            && ctx.text(i + 1) == "::"
            && ctx.text(i + 2) == "now"
        {
            out.push(Violation {
                line: ctx.ct(i).line,
                message: format!(
                    "{head}::now in a solver crate: wall-clock state must not reach deterministic code"
                ),
                in_test: ctx.in_test[i],
            });
        }
    }
    out
}

/// `==`/`!=` against a non-zero float literal: almost always a
/// round-trip-equality bug waiting for a rounding mode to change.
/// Comparisons against `0.0` are exempt — they are exact for every
/// IEEE value and are the canonical divide-by-zero guard.
fn check_float_literal_eq(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..ctx.code.len() {
        let op = ctx.text(i);
        if op != "==" && op != "!=" {
            continue;
        }
        if ctx.kind(i) != Some(TokKind::Punct) {
            continue;
        }
        let lhs_float = i >= 1 && ctx.kind(i - 1) == Some(TokKind::Float);
        let rhs_float = ctx.kind(i + 1) == Some(TokKind::Float);
        // A negated literal (`x == -0.3`) lexes as `-` then the float.
        let rhs_neg_float = ctx.text(i + 1) == "-" && ctx.kind(i + 2) == Some(TokKind::Float);
        let lit = if rhs_float {
            Some(ctx.text(i + 1))
        } else if rhs_neg_float {
            Some(ctx.text(i + 2))
        } else if lhs_float {
            Some(ctx.text(i - 1))
        } else {
            None
        };
        let Some(lit) = lit else { continue };
        if float_literal_is_zero(lit) {
            continue;
        }
        out.push(Violation {
            line: ctx.ct(i).line,
            message: format!(
                "{op} against float literal {lit}: exact float equality is representation-dependent; compare with a tolerance or justify exact representability"
            ),
            in_test: ctx.in_test[i],
        });
    }
    out
}

/// Allocation sites inside the kernel crate: the whole point of
/// `rcr-kernels` is that hot loops run on caller-provided slices and the
/// pooled [`Scratch`] workspace, so `Vec::new`, `vec![..]`, `.to_vec()`
/// and `.collect()` are all suspect there. Cold paths (pool refill,
/// constructors) escape with a reasoned allow pragma.
fn check_no_alloc_in_kernel(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = ctx.code.len();
    for i in 0..n {
        // `Vec::new(` / `Vec::with_capacity(` — direct vector construction.
        if ctx.text(i) == "Vec" && ctx.text(i + 1) == "::" {
            let method = ctx.text(i + 2);
            if (method == "new" || method == "with_capacity") && ctx.text(i + 3) == "(" {
                out.push(Violation {
                    line: ctx.ct(i).line,
                    message: format!(
                        "Vec::{method} in kernel code: take a caller-provided slice or draw from Scratch"
                    ),
                    in_test: ctx.in_test[i],
                });
                continue;
            }
        }
        // `vec![..]` — macro allocation.
        if ctx.text(i) == "vec" && ctx.text(i + 1) == "!" {
            out.push(Violation {
                line: ctx.ct(i).line,
                message:
                    "vec![..] in kernel code: take a caller-provided slice or draw from Scratch"
                        .into(),
                in_test: ctx.in_test[i],
            });
            continue;
        }
        // `.to_vec()` / `.collect(..)` / `.collect::<..>(..)` — cloning or
        // iterator-driven allocation.
        if ctx.text(i) == "." {
            let method = ctx.text(i + 1);
            let opens = ctx.text(i + 2) == "(" || ctx.text(i + 2) == "::";
            if (method == "to_vec" || method == "collect") && opens {
                out.push(Violation {
                    line: ctx.ct(i + 1).line,
                    message: format!(
                        "{method}() in kernel code: write into a caller-provided buffer instead of allocating"
                    ),
                    in_test: ctx.in_test[i + 1],
                });
            }
        }
    }
    out
}

/// `0.0`, `0.`, `0e5`, `0_000.0f64`, ... — all spellings of zero.
fn float_literal_is_zero(lit: &str) -> bool {
    let cleaned: String = lit.chars().filter(|&c| c != '_').collect();
    let cleaned = cleaned
        .strip_suffix("f64")
        .or_else(|| cleaned.strip_suffix("f32"))
        .unwrap_or(&cleaned);
    matches!(cleaned.parse::<f64>(), Ok(v) if v == 0.0)
}
