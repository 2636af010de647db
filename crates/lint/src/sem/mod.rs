//! The semantic layer: a lightweight item/expression parser feeding a
//! per-crate symbol table and workspace call graph, with three
//! inter-procedural passes on top.
//!
//! The lexical rules in [`crate::rules`] catch defect *sites*; this
//! layer answers defect *flow* questions the serve path depends on:
//!
//! * **panic-reachability** — which public solver APIs can transitively
//!   reach a `panic!`/`unwrap`/`expect`/slice-index? A panicking worker
//!   loses its whole batch, so the public solver surface must be
//!   panic-free or carry an explicit justification.
//! * **lock-order** — do `runtime`/`serve` ever acquire mutexes in
//!   cyclic order (potential deadlock ⇒ stalled lanes), or hold a lock
//!   across a `send`/callback?
//! * **determinism-taint** — can a nondeterminism source (wall clock,
//!   `available_parallelism`, thread identity, hash iteration) flow
//!   into values returned by `BatchSolve` impls or public solver entry
//!   points (⇒ non-reproducible verifier verdicts)?
//!
//! The parser is deliberately *not* a full Rust front end (no `syn`,
//! std-only): it recovers fn items, impl/trait blocks, call and method
//! expressions, panic/lock/clock sites, and guard lifetimes from the
//! token stream. Name resolution is heuristic — qualified calls resolve
//! through impl-type / module / crate hints, bare calls stay within
//! their crate, and method calls prefer same-crate targets with a
//! deny-list of ubiquitous std method names. The passes therefore
//! over-approximate in places; the committed ratchet baseline
//! ([`crate::baseline`]) is where known, reviewed findings live.

pub mod dataflow;
pub mod graph;
pub mod parse;
pub mod passes;
pub mod units;

/// Semantic extraction for one source file — everything the
/// inter-procedural passes need.
#[derive(Debug, Default, Clone)]
pub struct FileSem {
    pub fns: Vec<FnDef>,
    /// Sites removed by reason-carrying pragmas (graph cut points),
    /// per semantic rule slug — surfaced in the run summary.
    pub cut_panics: usize,
    pub cut_taints: usize,
    pub cut_risky: usize,
    /// Cuts for the dataflow layer ([`dataflow`]).
    pub cut_time_ops: usize,
    pub cut_allocs: usize,
    pub cut_reductions: usize,
    /// Cuts for the unit-flow layer ([`units`]) — expression mixes and
    /// call-site contract checks removed by reviewed pragmas.
    pub cut_units: usize,
}

/// One function item (free fn, inherent/trait/impl method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Package name of the owning crate (e.g. `rcr-qos`).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// File stem (`rra` for `crates/qos/src/rra.rs`) — used as a module
    /// hint when resolving `rra::solve_greedy`-style calls.
    pub module: String,
    pub name: String,
    /// Enclosing `impl`/`trait` self-type name, if any.
    pub qual: Option<String>,
    /// `pub` without a restriction (`pub(crate)` is not public API).
    pub is_pub: bool,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter names in declaration order (patterns and `self`
    /// receivers excluded) — the unit-flow layer matches call arguments
    /// against these positionally.
    pub params: Vec<String>,
    /// `unit(...)` contract bindings attached to this fn: `(param name
    /// or "return", dimension name)` pairs.
    pub units: Vec<(String, String)>,
    /// An `allow(panic-reachability, ...)` pragma directly above the
    /// `fn` line cuts this node out of panic propagation entirely.
    pub cut_panic: bool,
    /// Same, for `allow(determinism-taint, ...)`.
    pub cut_taint: bool,
    /// Same, for `allow(alloc-flow, ...)` — removes the fn (and its
    /// direct sites) from alloc-flow propagation.
    pub cut_alloc: bool,
    /// Same, for `allow(unit-mismatch-at-call, ...)` — removes the fn
    /// from contract checks entirely (as caller and as callee).
    pub cut_unit: bool,
    pub calls: Vec<Call>,
    pub panics: Vec<Site>,
    pub locks: Vec<LockAcq>,
    pub risky: Vec<RiskySite>,
    pub taints: Vec<Site>,
    /// Raw `+`/`-`/`+=`/`-=` on time-typed operands
    /// ([`dataflow::UNCHECKED_TIME_ARITHMETIC`]).
    pub time_ops: Vec<Site>,
    /// Allocation sites (`Vec::new`, `collect`, `format!`, ...)
    /// ([`dataflow::ALLOC_FLOW`] walks reachability over these).
    pub allocs: Vec<Site>,
    /// Accumulations inside order-nondeterministic iteration
    /// ([`dataflow::FLOAT_REDUCTION_ORDER`]).
    pub reductions: Vec<Site>,
    /// Additive dB/linear mix expressions ([`units::DB_LINEAR_MIX`]).
    pub db_mixes: Vec<Site>,
    /// Rate/bandwidth vs count/time mix expressions
    /// ([`units::RATE_COUNT_MIX`]).
    pub rate_mixes: Vec<Site>,
}

impl FnDef {
    /// Display/baseline symbol: `Type::name` or `name`.
    pub fn symbol(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A call or method-call expression inside a fn body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Path segments as written (`["rra", "solve_greedy"]`, or just
    /// `["helper"]`); for method calls, the single method name.
    pub path: Vec<String>,
    /// `.name(...)` form.
    pub method: bool,
    pub line: u32,
    /// Canonical names of locks held at the call site.
    pub held: Vec<String>,
    /// Per-argument inferred dimension names ([`units::Dim::as_str`])
    /// for free/path calls; `"?"` for unclassifiable arguments, empty
    /// when no argument carries a dimension (or for method calls).
    pub args: Vec<String>,
}

/// A panic or nondeterminism-source site.
#[derive(Debug, Clone)]
pub struct Site {
    pub line: u32,
    /// What was found (`unwrap`, `slice index`, `Instant::now`, ...).
    pub what: String,
}

/// One mutex acquisition, with the locks already held at that point.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Canonical lock name: the last receiver segment (`state` for
    /// `self.shared.state.lock()`), or `<anon>` when unrecoverable.
    pub name: String,
    pub line: u32,
    pub held: Vec<String>,
}

/// A `send`/callback invocation that happened while holding locks.
#[derive(Debug, Clone)]
pub struct RiskySite {
    pub line: u32,
    /// `send` or `callback \`f\``.
    pub what: String,
    pub held: Vec<String>,
}

pub use graph::Graph;
pub use parse::extract_file;
