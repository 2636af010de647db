//! The unit-flow layer: dimensional analysis for the physical
//! quantities the paper's relaxations are built from — channel gains,
//! RB bandwidths in Hz, rates in bit/s, SNR in dB, per-RB quantities.
//!
//! Every value gets a dimension from a small lattice ([`Dim`]), inferred
//! three ways:
//!
//! 1. **name segments** — [`unit_of_name`] classifies `_`-separated
//!    identifier segments (`*_hz`, `*_bps`, `*_db`, `snr*`, `gain*`,
//!    `rate*`, `power*`, ...) with a stop-list for index-like names and
//!    a hard opt-out for `per`-composed names the flat lattice cannot
//!    express (except `per_rb`, a first-class modifier);
//! 2. **signature contracts** — `// rcr-lint: unit(arg = Hz, return =
//!    BitsPerSec, reason = "...")` pragmas ([`crate::pragma`]) bind
//!    parameter and return dimensions at call-graph edges;
//! 3. **propagation** — let-bindings and call arguments carry inferred
//!    dimensions through [`super::parse`]'s body walk and the workspace
//!    call graph.
//!
//! Three rules ride on top:
//!
//! * **db-linear-mix** — additive combination of a dB-domain value with
//!   a linear one (dB adds where linear multiplies), or a call whose
//!   argument is in the opposite domain from the parameter's contract.
//!   `10*log10(x)` / `10^(x/10)` expression shapes (any [`MATH_METHODS`]
//!   call) are sanctioned conversion points and never flagged.
//! * **unit-mismatch-at-call** — an argument's dimension contradicts the
//!   callee's annotated or name-inferred parameter dimension,
//!   interprocedurally and across crates (the case no lexical rule can
//!   see). Also covers contract self-contradictions: an annotation that
//!   fights the parameter's own name, or names a parameter that does
//!   not exist.
//! * **rate-count-mix** — adding a `BitsPerSec`/`Hz` quantity to a raw
//!   count or a `Seconds` value (per-RB vs aggregate confusions surface
//!   here and at call sites).
//!
//! Sites and per-call argument dimensions are extracted in
//! [`super::parse`] (pragma cuts apply there); this module classifies
//! names, walks the graph, and shapes diagnostics.

use super::dataflow::site_pass;
use super::{FnDef, Graph};
use crate::diag::Diagnostic;

pub const DB_LINEAR_MIX: &str = "db-linear-mix";
pub const UNIT_MISMATCH_AT_CALL: &str = "unit-mismatch-at-call";
pub const RATE_COUNT_MIX: &str = "rate-count-mix";

pub const UNIT_RULES: &[&str] = &[DB_LINEAR_MIX, UNIT_MISMATCH_AT_CALL, RATE_COUNT_MIX];

/// The dimension lattice. Flat on purpose: the workspace's quantities
/// are scalars with one physical dimension each, and the defect classes
/// are domain mixes, not derived-unit algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dim {
    Hz,
    Seconds,
    BitsPerSec,
    PowerLinear,
    PowerDb,
    GainLinear,
    GainDb,
    Dimensionless,
    /// Per-resource-block modifier (`min_rate_per_rb_bandwidth`): a
    /// per-RB quantity mistaken for its aggregate is a real paper-level
    /// defect, so it is its own point in the lattice.
    PerRb,
    Count,
    Unknown,
}

/// Dimension names the `unit(...)` pragma may bind (everything but
/// `Unknown` — "I don't know" is not a contract).
pub const DIM_NAMES: &[&str] = &[
    "Hz",
    "Seconds",
    "BitsPerSec",
    "PowerLinear",
    "PowerDb",
    "GainLinear",
    "GainDb",
    "Dimensionless",
    "PerRb",
    "Count",
];

impl Dim {
    pub fn as_str(self) -> &'static str {
        match self {
            Dim::Hz => "Hz",
            Dim::Seconds => "Seconds",
            Dim::BitsPerSec => "BitsPerSec",
            Dim::PowerLinear => "PowerLinear",
            Dim::PowerDb => "PowerDb",
            Dim::GainLinear => "GainLinear",
            Dim::GainDb => "GainDb",
            Dim::Dimensionless => "Dimensionless",
            Dim::PerRb => "PerRb",
            Dim::Count => "Count",
            Dim::Unknown => "Unknown",
        }
    }

    pub fn parse(s: &str) -> Option<Dim> {
        Some(match s {
            "Hz" => Dim::Hz,
            "Seconds" => Dim::Seconds,
            "BitsPerSec" => Dim::BitsPerSec,
            "PowerLinear" => Dim::PowerLinear,
            "PowerDb" => Dim::PowerDb,
            "GainLinear" => Dim::GainLinear,
            "GainDb" => Dim::GainDb,
            "Dimensionless" => Dim::Dimensionless,
            "PerRb" => Dim::PerRb,
            "Count" => Dim::Count,
            "Unknown" => Dim::Unknown,
            _ => return None,
        })
    }
}

/// Comparison classes: dimensions in the same family are compatible
/// (`PowerDb` vs `GainDb` — both dB-domain; `PowerLinear` vs
/// `GainLinear` — normalized gains are power ratios). `Dimensionless`
/// and `Unknown` have no family and never conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Family {
    Db,
    Linear,
    Hz,
    Rate,
    Time,
    PerRb,
    Count,
}

pub(super) fn family(d: Dim) -> Option<Family> {
    Some(match d {
        Dim::PowerDb | Dim::GainDb => Family::Db,
        Dim::PowerLinear | Dim::GainLinear => Family::Linear,
        Dim::Hz => Family::Hz,
        Dim::BitsPerSec => Family::Rate,
        Dim::Seconds => Family::Time,
        Dim::PerRb => Family::PerRb,
        Dim::Count => Family::Count,
        Dim::Dimensionless | Dim::Unknown => return None,
    })
}

/// Methods whose appearance marks an expression as a sanctioned
/// conversion/derivation point (`10.0 * x.log10()`, `10f64.powf(db /
/// 10.0)`): the unit checker treats the whole expression as `Unknown`.
pub const MATH_METHODS: &[&str] = &[
    "log10", "log2", "ln", "log", "powf", "powi", "exp", "exp2", "sqrt", "abs", "recip",
];

/// Identifier segments that mark index-like or identity-like names —
/// never a physical quantity, whatever other segments say
/// (`power_mode`, `gain_idx`, `rate_limit_kind`).
pub const STOP_WORDS: &[&str] = &[
    "idx", "index", "id", "ids", "seed", "kind", "mode", "flag", "flags", "name", "label", "tag",
    "key",
];

/// Trailing segments that pin a dimension outright.
const SUFFIX_HZ: &[&str] = &["hz", "khz", "mhz", "ghz"];
const SUFFIX_BPS: &[&str] = &["bps", "kbps", "mbps", "gbps"];
const SUFFIX_SECONDS: &[&str] = &["us", "ns", "ms", "sec", "secs", "seconds"];
const SUFFIX_POWER_W: &[&str] = &["mw", "watt", "watts"];

/// Any-position segments that classify by vocabulary. Ratio words
/// (`snr`, `sinr`, `ebn0`, `cnr`) default to the linear domain — the
/// dB form is expected to carry a `_db` suffix.
const WORD_GAIN: &[&str] = &["snr", "sinr", "ebn0", "cnr", "gain", "gains"];
const WORD_POWER: &[&str] = &["power"];
const WORD_HZ: &[&str] = &["bandwidth"];
const WORD_RATE: &[&str] = &["rate", "rates", "throughput"];
const WORD_COUNT: &[&str] = &["count", "num", "len"];

/// Classifies one identifier into the dimension lattice from its
/// `_`-separated segments. Deliberately conservative: anything
/// ambiguous is `Unknown`, and `Unknown` never fires a rule.
pub fn unit_of_name(name: &str) -> Dim {
    let segs: Vec<String> = name
        .split('_')
        .filter(|s| !s.is_empty())
        .map(str::to_ascii_lowercase)
        .collect();
    if segs.is_empty() {
        return Dim::Unknown;
    }
    if segs.iter().any(|s| STOP_WORDS.contains(&s.as_str())) {
        return Dim::Unknown;
    }
    // `per`-composed names: `per_rb` is the one composition the lattice
    // models; every other `per` name (`rate_per_us`, `bits_per_symbol`)
    // is a derived unit this checker must not guess at.
    if let Some(p) = segs.iter().position(|s| s == "per") {
        if segs.get(p + 1).map(String::as_str) == Some("rb")
            && !segs.iter().skip(p + 2).any(|s| s == "per")
        {
            return Dim::PerRb;
        }
        return Dim::Unknown;
    }
    let last = segs.last().map(String::as_str).unwrap_or("");
    if SUFFIX_HZ.contains(&last) {
        return Dim::Hz;
    }
    if SUFFIX_BPS.contains(&last) {
        return Dim::BitsPerSec;
    }
    if last == "dbm" {
        return Dim::PowerDb;
    }
    if last == "db" {
        return if segs.iter().any(|s| WORD_GAIN.contains(&s.as_str())) {
            Dim::GainDb
        } else {
            Dim::PowerDb
        };
    }
    if SUFFIX_SECONDS.contains(&last) {
        return Dim::Seconds;
    }
    if SUFFIX_POWER_W.contains(&last) {
        return Dim::PowerLinear;
    }
    let has = |words: &[&str]| segs.iter().any(|s| words.contains(&s.as_str()));
    if has(WORD_GAIN) {
        return Dim::GainLinear;
    }
    if has(WORD_POWER) {
        return Dim::PowerLinear;
    }
    if has(WORD_HZ) {
        return Dim::Hz;
    }
    if has(WORD_RATE) {
        return Dim::BitsPerSec;
    }
    if has(WORD_COUNT) {
        return Dim::Count;
    }
    Dim::Unknown
}

/// The rule an additive combination of two dimensions violates, if any.
/// Same-family operands are fine; `Dimensionless`/`Unknown` never
/// conflict.
pub(super) fn additive_mix_rule(a: Dim, b: Dim) -> Option<&'static str> {
    let fa = family(a)?;
    let fb = family(b)?;
    if fa == fb {
        return None;
    }
    let db = |f: Family| f == Family::Db;
    let linear_qty = |f: Family| matches!(f, Family::Linear | Family::Hz | Family::Rate);
    if (db(fa) && linear_qty(fb)) || (db(fb) && linear_qty(fa)) {
        return Some(DB_LINEAR_MIX);
    }
    let rate = |f: Family| matches!(f, Family::Hz | Family::Rate);
    let county = |f: Family| matches!(f, Family::Count | Family::Time);
    if (rate(fa) && county(fb)) || (rate(fb) && county(fa)) {
        return Some(RATE_COUNT_MIX);
    }
    None
}

/// The rule an argument/parameter dimension contradiction violates, if
/// any: dB-vs-linear contradictions are `db-linear-mix` (the contract
/// form of the same defect), everything else is
/// `unit-mismatch-at-call`.
fn call_mismatch_rule(arg: Dim, param: Dim) -> Option<&'static str> {
    let fa = family(arg)?;
    let fp = family(param)?;
    if fa == fp {
        return None;
    }
    let db = |f: Family| f == Family::Db;
    let linear_qty = |f: Family| matches!(f, Family::Linear | Family::Hz | Family::Rate);
    if (db(fa) && linear_qty(fp)) || (db(fp) && linear_qty(fa)) {
        return Some(DB_LINEAR_MIX);
    }
    Some(UNIT_MISMATCH_AT_CALL)
}

/// Runs all unit-flow passes (unsorted; [`super::passes::run_all`]
/// sorts the combined set).
pub fn run_all(graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(db_linear_mix_sites(graph));
    diags.extend(rate_count_mix_sites(graph));
    diags.extend(call_contracts(graph));
    diags.extend(signature_consistency(graph));
    diags
}

/// Flags every recorded additive dB/linear mix expression.
fn db_linear_mix_sites(graph: &Graph) -> Vec<Diagnostic> {
    site_pass(
        graph,
        DB_LINEAR_MIX,
        "db-mix",
        |f| &f.db_mixes,
        |f, s| {
            format!(
                "`{}` {}: dB-domain values add where linear ones multiply — convert \
                 explicitly (10*log10(x) or 10^(x/10)) before combining",
                f.symbol(),
                s.what
            )
        },
    )
}

/// Flags every recorded rate/bandwidth vs count/time mix expression.
fn rate_count_mix_sites(graph: &Graph) -> Vec<Diagnostic> {
    site_pass(
        graph,
        RATE_COUNT_MIX,
        "rate-mix",
        |f| &f.rate_mixes,
        |f, s| {
            format!(
                "`{}` {}: a rate/bandwidth and a raw count/time value do not share a \
                 unit — scale explicitly (rate × seconds, count ÷ bandwidth) before adding",
                f.symbol(),
                s.what
            )
        },
    )
}

/// The dimension a callee's parameter carries: the `unit(...)` contract
/// when annotated, the name classification otherwise. The bool reports
/// whether a contract supplied it.
fn param_dim(callee: &FnDef, param: &str) -> (Dim, bool) {
    for (name, dim) in &callee.units {
        if name == param {
            return (Dim::parse(dim).unwrap_or(Dim::Unknown), true);
        }
    }
    (unit_of_name(param), false)
}

/// Checks every resolved call's argument dimensions against the
/// callee's parameter contracts — the interprocedural, cross-crate
/// check no expression-local rule can make.
fn call_contracts(graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if f.cut_unit {
            continue;
        }
        let mut ordinal = 0usize;
        for call in &f.calls {
            if call.method || call.args.is_empty() {
                continue;
            }
            let Some(last) = call.path.last() else {
                continue;
            };
            // First resolved callee matching this call's name and arity:
            // callees are deduped per fn, so one match is the call.
            let Some(&c) = graph.callees[i].iter().find(|&&c| {
                graph.fns[c].name == *last && graph.fns[c].params.len() == call.args.len()
            }) else {
                continue;
            };
            let callee = &graph.fns[c];
            if callee.cut_unit {
                continue;
            }
            for (arg, param) in call.args.iter().zip(&callee.params) {
                let Some(arg_dim) = Dim::parse(arg) else {
                    continue;
                };
                let (p_dim, contracted) = param_dim(callee, param);
                let Some(rule) = call_mismatch_rule(arg_dim, p_dim) else {
                    continue;
                };
                ordinal += 1;
                let sym = if ordinal == 1 {
                    format!("{}/unit-call", f.symbol())
                } else {
                    format!("{}/unit-call#{ordinal}", f.symbol())
                };
                let source = if contracted {
                    "per unit(...) contract"
                } else {
                    "by name"
                };
                let hint = if rule == DB_LINEAR_MIX {
                    " — convert between dB and linear domains explicitly"
                } else {
                    ""
                };
                diags.push(Diagnostic {
                    rule,
                    file: f.file.clone(),
                    line: call.line,
                    message: format!(
                        "`{}` passes a {} argument as parameter `{param}` of `{}` ({}, {source}){hint}",
                        f.symbol(),
                        arg_dim.as_str(),
                        callee.symbol(),
                        p_dim.as_str(),
                    ),
                    symbol: Some(sym),
                });
            }
        }
    }
    diags
}

/// Checks every `unit(...)` contract against the names it binds: an
/// annotation that contradicts a parameter's own name classification
/// (or names a parameter that does not exist) is reported — a wrong
/// contract is worse than none, it launders mismatches at every caller.
fn signature_consistency(graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in &graph.fns {
        if f.cut_unit || f.units.is_empty() {
            continue;
        }
        let mut ordinal = 0usize;
        let mut push = |f: &FnDef, rule: &'static str, message: String| {
            ordinal += 1;
            let sym = if ordinal == 1 {
                format!("{}/unit-sig", f.symbol())
            } else {
                format!("{}/unit-sig#{ordinal}", f.symbol())
            };
            diags.push(Diagnostic {
                rule,
                file: f.file.clone(),
                line: f.line,
                message,
                symbol: Some(sym),
            });
        };
        for (name, dim) in &f.units {
            let declared = Dim::parse(dim).unwrap_or(Dim::Unknown);
            if name != "return" && !f.params.contains(name) {
                push(
                    f,
                    UNIT_MISMATCH_AT_CALL,
                    format!(
                        "`{}` annotates parameter `{name}` in unit(...), but its signature \
                         has no such parameter (params: {})",
                        f.symbol(),
                        if f.params.is_empty() {
                            "none".to_string()
                        } else {
                            f.params.join(", ")
                        }
                    ),
                );
                continue;
            }
            let inferred = if name == "return" {
                unit_of_name(&f.name)
            } else {
                unit_of_name(name)
            };
            if let Some(rule) = call_mismatch_rule(inferred, declared) {
                push(
                    f,
                    rule,
                    format!(
                        "`{}` annotates {} as {} but the name classifies as {} — rename \
                         or fix the unit(...) contract",
                        f.symbol(),
                        if name == "return" {
                            "its return value".to_string()
                        } else {
                            format!("parameter `{name}`")
                        },
                        declared.as_str(),
                        inferred.as_str(),
                    ),
                );
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::{extract_file, FileSem, Graph};
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

    // ---- the name classifier ----

    #[test]
    fn classifier_matches_the_workspace_vocabulary() {
        for (name, dim) in [
            ("rb_bandwidth_hz", Dim::Hz),
            ("bandwidth", Dim::Hz),
            ("carrier_mhz", Dim::Hz),
            ("min_rates_bps", Dim::BitsPerSec),
            ("total_rate_bps", Dim::BitsPerSec),
            ("throughput", Dim::BitsPerSec),
            ("noise_power_w", Dim::PowerLinear),
            ("power_budget", Dim::PowerLinear),
            ("tx_dbm", Dim::PowerDb),
            ("snr_db", Dim::GainDb),
            ("ebn0_db", Dim::GainDb),
            ("floor_db", Dim::PowerDb),
            ("reference_gain", Dim::GainLinear),
            ("snr", Dim::GainLinear),
            ("elapsed_us", Dim::Seconds),
            ("symbol_count", Dim::Count),
            ("num_rb", Dim::Count),
            ("min_rate_per_rb_bandwidth", Dim::PerRb),
        ] {
            assert_eq!(unit_of_name(name), dim, "{name}");
        }
    }

    #[test]
    fn stop_list_and_per_names_stay_unknown() {
        for name in [
            "gain_idx",
            "power_mode",
            "rate_limit_kind",
            "user_id",
            "rng_seed",
            "rate_per_us",
            "bits_per_symbol",
            "slow_rate_per_sec",
            "weights",
            "x",
            "",
        ] {
            assert_eq!(unit_of_name(name), Dim::Unknown, "{name}");
        }
    }

    #[test]
    fn families_make_db_forms_compatible_and_domains_conflict() {
        assert_eq!(additive_mix_rule(Dim::PowerDb, Dim::GainDb), None);
        assert_eq!(additive_mix_rule(Dim::PowerLinear, Dim::GainLinear), None);
        assert_eq!(
            additive_mix_rule(Dim::GainDb, Dim::GainLinear),
            Some(DB_LINEAR_MIX)
        );
        assert_eq!(
            additive_mix_rule(Dim::PowerDb, Dim::BitsPerSec),
            Some(DB_LINEAR_MIX)
        );
        assert_eq!(
            additive_mix_rule(Dim::BitsPerSec, Dim::Count),
            Some(RATE_COUNT_MIX)
        );
        assert_eq!(
            additive_mix_rule(Dim::Hz, Dim::Seconds),
            Some(RATE_COUNT_MIX)
        );
        assert_eq!(additive_mix_rule(Dim::Unknown, Dim::PowerDb), None);
        assert_eq!(additive_mix_rule(Dim::Dimensionless, Dim::Hz), None);
    }

    // ---- db-linear-mix: fail/pass pairs ----

    #[test]
    fn adding_db_to_linear_gain_fires() {
        let f = sem_of(
            "rcr-signal",
            "crates/signal/src/lib.rs",
            "pub fn combine(snr_db: f64, reference_gain: f64) -> f64 { snr_db + reference_gain }\n",
        );
        let g = Graph::build(vec![f]);
        let diags = db_linear_mix_sites(&g);
        assert_eq!(
            rules_syms(&diags),
            vec![(DB_LINEAR_MIX, Some("combine/db-mix"))]
        );
        assert!(diags[0].message.contains("snr_db"), "{}", diags[0].message);
    }

    #[test]
    fn sanctioned_conversion_shapes_are_clean() {
        let f = sem_of(
            "rcr-signal",
            "crates/signal/src/lib.rs",
            "pub fn to_linear(snr_db: f64, reference_gain: f64) -> f64 {\n    10f64.powf(snr_db / 10.0) + reference_gain\n}\npub fn to_db(power: f64, floor_db: f64) -> f64 {\n    10.0 * power.log10() + floor_db\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = db_linear_mix_sites(&g);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pragma_with_reason_cuts_a_db_mix_site() {
        let f = sem_of(
            "rcr-signal",
            "crates/signal/src/lib.rs",
            "pub fn combine(snr_db: f64, reference_gain: f64) -> f64 {\n    // rcr-lint: allow(db-linear-mix, reason = \"reference_gain is stored in dB despite its name\")\n    snr_db + reference_gain\n}\n",
        );
        assert_eq!(f.cut_units, 1);
        let g = Graph::build(vec![f]);
        assert!(db_linear_mix_sites(&g).is_empty());
    }

    // ---- rate-count-mix: fail/pass pairs ----

    #[test]
    fn adding_count_to_rate_fires() {
        let f = sem_of(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "pub fn bump(total_rate_bps: f64, symbol_count: f64) -> f64 { total_rate_bps + symbol_count }\n",
        );
        let g = Graph::build(vec![f]);
        let diags = rate_count_mix_sites(&g);
        assert_eq!(
            rules_syms(&diags),
            vec![(RATE_COUNT_MIX, Some("bump/rate-mix"))]
        );
    }

    #[test]
    fn rate_sums_and_scaled_products_are_clean() {
        let f = sem_of(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "pub fn agg(rb_rates_bps: &[f64], min_rates_bps: f64) -> f64 {\n    let mut total_rate_bps = min_rates_bps;\n    total_rate_bps += rb_rates_bps[0];\n    total_rate_bps\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = rate_count_mix_sites(&g);
        assert!(diags.is_empty(), "{diags:?}");
    }

    // ---- let-binding propagation ----

    #[test]
    fn let_bound_dimension_propagates_into_a_mix() {
        let f = sem_of(
            "rcr-signal",
            "crates/signal/src/lib.rs",
            "pub fn f(xs: &[f64], floor_db: f64) -> f64 {\n    let level = floor_db;\n    let base = xs[0];\n    level + base\n}\npub fn g(reference_gain: f64, floor_db: f64) -> f64 {\n    let level = floor_db;\n    level + reference_gain\n}\n",
        );
        let g = Graph::build(vec![f]);
        let diags = db_linear_mix_sites(&g);
        // `f`: `base` is unknown — no finding. `g`: the let-bound dB
        // level meets a linear gain — one finding.
        assert_eq!(rules_syms(&diags), vec![(DB_LINEAR_MIX, Some("g/db-mix"))]);
    }

    // ---- unit-mismatch-at-call / contract checks ----

    #[test]
    fn db_argument_into_linear_contract_fires_across_crates() {
        let qos = sem_of(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "// rcr-lint: unit(bandwidth_hz = Hz, snr = GainLinear, return = BitsPerSec, reason = \"Shannon rate\")\npub fn rate_bps(bandwidth_hz: f64, snr: f64) -> f64 { bandwidth_hz * (1.0 + snr).log2() }\n",
        );
        let signal = sem_of(
            "rcr-signal",
            "crates/signal/src/lib.rs",
            "pub fn throughput(noise_db: f64, width_hz: f64) -> f64 { rcr_qos::rate_bps(width_hz, noise_db) }\n",
        );
        let g = Graph::build(vec![qos, signal]);
        let diags = call_contracts(&g);
        assert_eq!(
            rules_syms(&diags),
            vec![(DB_LINEAR_MIX, Some("throughput/unit-call"))]
        );
        assert!(diags[0].message.contains("`snr`"), "{}", diags[0].message);
        assert!(
            diags[0].message.contains("unit(...) contract"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn rate_argument_into_hz_parameter_is_a_mismatch_by_name() {
        let qos = sem_of(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "pub fn scale(rb_bandwidth_hz: f64) -> f64 { rb_bandwidth_hz * 2.0 }\n",
        );
        let caller = sem_of(
            "rcr-qos",
            "crates/qos/src/rra.rs",
            "pub fn misrouted(total_rate_bps: f64) -> f64 { scale(total_rate_bps) }\n",
        );
        let g = Graph::build(vec![qos, caller]);
        let diags = call_contracts(&g);
        assert_eq!(
            rules_syms(&diags),
            vec![(UNIT_MISMATCH_AT_CALL, Some("misrouted/unit-call"))]
        );
        assert!(diags[0].message.contains("by name"), "{}", diags[0].message);
    }

    #[test]
    fn matching_and_converted_arguments_are_clean() {
        let qos = sem_of(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "// rcr-lint: unit(bandwidth_hz = Hz, snr = GainLinear, return = BitsPerSec, reason = \"Shannon rate\")\npub fn rate_bps(bandwidth_hz: f64, snr: f64) -> f64 { bandwidth_hz * (1.0 + snr).log2() }\n",
        );
        let signal = sem_of(
            "rcr-signal",
            "crates/signal/src/lib.rs",
            "pub fn clean(width_hz: f64, snr: f64) -> f64 { rcr_qos::rate_bps(width_hz, snr) }\npub fn converted(snr_db: f64, width_hz: f64) -> f64 { rcr_qos::rate_bps(width_hz, 10f64.powf(snr_db / 10.0)) }\n",
        );
        let g = Graph::build(vec![qos, signal]);
        let diags = call_contracts(&g);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn call_site_pragma_cuts_the_contract_check() {
        let qos = sem_of(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "pub fn scale(rb_bandwidth_hz: f64) -> f64 { rb_bandwidth_hz * 2.0 }\npub fn reviewed(total_rate_bps: f64) -> f64 {\n    // rcr-lint: allow(unit-mismatch-at-call, reason = \"scale() is unit-agnostic here, name is historical\")\n    scale(total_rate_bps)\n}\n",
        );
        assert_eq!(qos.cut_units, 1);
        let g = Graph::build(vec![qos]);
        assert!(call_contracts(&g).is_empty());
    }

    // ---- contract self-consistency ----

    #[test]
    fn contract_contradicting_the_name_fires() {
        let f = sem_of(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "// rcr-lint: unit(rb_bandwidth_hz = BitsPerSec, reason = \"wrong on purpose\")\npub fn f(rb_bandwidth_hz: f64) -> f64 { rb_bandwidth_hz }\n",
        );
        let g = Graph::build(vec![f]);
        let diags = signature_consistency(&g);
        assert_eq!(
            rules_syms(&diags),
            vec![(UNIT_MISMATCH_AT_CALL, Some("f/unit-sig"))]
        );
    }

    #[test]
    fn contract_on_a_missing_parameter_fires() {
        let f = sem_of(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "// rcr-lint: unit(bandwith = Hz, reason = \"typo in the binding name\")\npub fn f(bandwidth: f64) -> f64 { bandwidth }\n",
        );
        let g = Graph::build(vec![f]);
        let diags = signature_consistency(&g);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("no such parameter"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn consistent_contracts_and_unknown_names_are_clean() {
        let f = sem_of(
            "rcr-qos",
            "crates/qos/src/lib.rs",
            "// rcr-lint: unit(budget = PowerLinear, gains = GainLinear, return = PowerLinear, reason = \"water-filling over normalized gains\")\npub fn waterfill_power(gains: &[f64], budget: f64) -> f64 { budget / gains.len() as f64 }\n",
        );
        let g = Graph::build(vec![f]);
        let diags = signature_consistency(&g);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
