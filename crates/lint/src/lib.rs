//! `rcr-lint` — in-repo static analysis for numerical-robustness and
//! determinism invariants.
//!
//! The paper's Fig. 3 catalogs the defect classes this tool guards
//! against at the source level: silently divergent primitives, NaN
//! panics hiding in float orderings, platform-dependent behavior. The
//! workspace stakes its identity on bit-identical serial-vs-parallel
//! solves; these rules machine-check the source idioms that invariant
//! rests on, so it stays true as the codebase grows.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p rcr-lint            # human file:line diagnostics
//! cargo run -p rcr-lint -- --format=json
//! ```
//!
//! Suppress a finding only with a justified pragma (the reason is
//! mandatory and reason-less pragmas are themselves errors):
//!
//! ```text
//! // rcr-lint: allow(float-literal-eq, reason = "one-hot labels are exactly 0.0/1.0")
//! ```
//!
//! See `DESIGN.md` ("Static analysis") for the rule-by-rule mapping to
//! the Fig. 3 defect classes.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod diag;
pub mod engine;
pub mod pragma;
pub mod rules;
pub mod sem;
pub mod tokenizer;
pub mod workspace;

pub use baseline::Baseline;
pub use diag::{render_json, render_sarif, Diagnostic};
pub use engine::{analyze_source, FileReport};
pub use workspace::{find_workspace_root, lint_workspace, lint_workspace_with, Options, Report};
