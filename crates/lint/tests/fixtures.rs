//! Golden fixture tests: every rule has a fixture that must fail and a
//! fixture that must pass (including allow-pragma handling), a
//! reason-less `allow(...)` is itself rejected, the real workspace is
//! lint-clean, and the binary exits non-zero on a broken workspace.

use rcr_lint::analyze_source;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Distinct rule slugs reported for a fixture analyzed under
/// `crate_name` (as a non-root file unless `as_root`).
fn slugs(crate_name: &str, name: &str, as_root: bool) -> BTreeSet<String> {
    let src = fixture(name);
    let rel = format!("crates/x/src/{name}");
    analyze_source(crate_name, &rel, &src, as_root)
        .diagnostics
        .into_iter()
        .map(|d| d.rule.to_string())
        .collect()
}

fn assert_fails(crate_name: &str, name: &str, as_root: bool, rule: &str) {
    let s = slugs(crate_name, name, as_root);
    assert!(
        s.contains(rule),
        "{name} under {crate_name}: expected a {rule} finding, got {s:?}"
    );
}

fn assert_passes(crate_name: &str, name: &str, as_root: bool) {
    let s = slugs(crate_name, name, as_root);
    assert!(
        s.is_empty(),
        "{name} under {crate_name}: expected clean, got {s:?}"
    );
}

#[test]
fn float_total_cmp_fixtures() {
    assert_fails(
        "rcr-signal",
        "float_total_cmp_fail.rs",
        false,
        "float-total-cmp",
    );
    // Three sites: two library, one in the test module (no exemption).
    let src = fixture("float_total_cmp_fail.rs");
    let n = analyze_source("rcr-signal", "crates/x/src/f.rs", &src, false)
        .diagnostics
        .iter()
        .filter(|d| d.rule == "float-total-cmp")
        .count();
    assert_eq!(n, 3);
    assert_passes("rcr-signal", "float_total_cmp_pass.rs", false);
}

#[test]
fn no_unwrap_fixtures() {
    assert_fails("rcr-qos", "no_unwrap_fail.rs", false, "no-unwrap-in-lib");
    assert_passes("rcr-qos", "no_unwrap_pass.rs", false);
    // The bench crate is out of scope for this rule.
    let s = slugs("rcr-bench", "no_unwrap_fail.rs", false);
    assert!(
        !s.contains("no-unwrap-in-lib"),
        "bench is exempt, got {s:?}"
    );
}

#[test]
fn crate_hygiene_fixtures() {
    assert_fails("rcr-qos", "crate_hygiene_fail.rs", true, "crate-hygiene");
    assert_passes("rcr-qos", "crate_hygiene_pass.rs", true);
    // Non-root files are not checked for the crate attribute.
    assert_passes("rcr-qos", "crate_hygiene_fail.rs", false);
}

#[test]
fn hash_iteration_order_fixtures() {
    assert_fails(
        "rcr-signal",
        "hash_iter_fail.rs",
        false,
        "hash-iteration-order",
    );
    assert_passes("rcr-signal", "hash_iter_pass.rs", false);
    // Scoped: the service layer may hash freely.
    assert_passes("rcr-serve", "hash_iter_fail.rs", false);
}

#[test]
fn wall_clock_fixtures() {
    assert_fails(
        "rcr-pso",
        "wall_clock_fail.rs",
        false,
        "no-wall-clock-in-solvers",
    );
    // All three sites, including the un-called fn-pointer read.
    let src = fixture("wall_clock_fail.rs");
    let n = analyze_source("rcr-pso", "crates/x/src/f.rs", &src, false)
        .diagnostics
        .iter()
        .filter(|d| d.rule == "no-wall-clock-in-solvers")
        .count();
    assert_eq!(n, 3);
    assert_passes("rcr-pso", "wall_clock_pass.rs", false);
    // Scoped: serve/runtime/bench own the clock.
    assert_passes("rcr-serve", "wall_clock_fail.rs", false);
}

#[test]
fn float_literal_eq_fixtures() {
    assert_fails("rcr-core", "float_eq_fail.rs", false, "float-literal-eq");
    let src = fixture("float_eq_fail.rs");
    let n = analyze_source("rcr-core", "crates/x/src/f.rs", &src, false)
        .diagnostics
        .iter()
        .filter(|d| d.rule == "float-literal-eq")
        .count();
    assert_eq!(n, 2);
    assert_passes("rcr-core", "float_eq_pass.rs", false);
}

#[test]
fn no_alloc_in_kernel_fixtures() {
    assert_fails(
        "rcr-kernels",
        "no_alloc_kernel_fail.rs",
        false,
        "no-alloc-in-kernel",
    );
    // All five allocation sites: Vec::new, vec!, to_vec, collect, and
    // the turbofish collect.
    let src = fixture("no_alloc_kernel_fail.rs");
    let n = analyze_source("rcr-kernels", "crates/x/src/f.rs", &src, false)
        .diagnostics
        .iter()
        .filter(|d| d.rule == "no-alloc-in-kernel")
        .count();
    assert_eq!(n, 5);
    // Reasoned allow + test-module allocation stay clean.
    assert_passes("rcr-kernels", "no_alloc_kernel_pass.rs", false);
    // Scoped: every other crate allocates freely.
    assert_passes("rcr-linalg", "no_alloc_kernel_fail.rs", false);
}

#[test]
fn reasonless_allow_is_rejected_and_does_not_suppress() {
    let src = fixture("allow_no_reason_fail.rs");
    let diags = analyze_source("rcr-signal", "crates/x/src/f.rs", &src, false).diagnostics;
    let bad = diags.iter().filter(|d| d.rule == "bad-pragma").count();
    // Three malformed pragmas: no reason, empty reason, unknown rule.
    assert_eq!(bad, 3, "{diags:?}");
    // And the violations they sat on still fire.
    let hash = diags
        .iter()
        .filter(|d| d.rule == "hash-iteration-order")
        .count();
    assert_eq!(hash, 2, "{diags:?}");
}

#[test]
fn real_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = rcr_lint::lint_workspace(&root).expect("lint run");
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.render_human())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}

/// Runs the real binary on a fixture workspace and returns (success,
/// stdout, stderr).
fn run_binary_on(fixture_ws: &str, extra: &[&str]) -> (bool, String, String) {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture_ws);
    let out = Command::new(env!("CARGO_BIN_EXE_rcr-lint"))
        .arg("--format=json")
        .args(extra)
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run rcr-lint");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn binary_exits_nonzero_on_broken_workspace_and_emits_json() {
    let (ok, stdout, stderr) = run_binary_on("mini_ws", &[]);
    assert!(!ok, "expected failure exit on broken fixture workspace");
    for rule in [
        "float-total-cmp",
        "no-unwrap-in-lib",
        "crate-hygiene",
        "hash-iteration-order",
        "no-wall-clock-in-solvers",
        "float-literal-eq",
        // The semantic passes fire here too: the unwrap/expect sites
        // sit behind public fns of a solver crate, and `stamp` returns
        // the clock.
        "panic-reachability",
        "determinism-taint",
    ] {
        assert!(
            stdout.contains(rule),
            "JSON output missing {rule}: {stdout}"
        );
    }
    assert!(stdout.contains("\"file\":\"crates/bad/src/lib.rs\""));
    // The rule summary goes to stderr for CI logs.
    assert!(stderr.contains("violation(s)"), "missing summary: {stderr}");

    // Sanity: collect distinct rules via the library walk too.
    let mini: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini_ws");
    let report = rcr_lint::lint_workspace(&mini).expect("lint run");
    let rules: BTreeSet<_> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules.len(), 8, "{rules:?}");
}

#[test]
fn e2e_panic_reachability_fixture_workspace() {
    let (ok, stdout, _) = run_binary_on("mini_ws_panic", &[]);
    assert!(!ok, "reachable panic must fail the run");
    assert!(
        stdout.contains("\"rule\":\"panic-reachability\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"symbol\":\"solve\""), "{stdout}");
    assert!(
        stdout.contains("\"file\":\"crates/qos/src/lib.rs\""),
        "{stdout}"
    );
    // The message narrates the path through both private helpers.
    assert!(stdout.contains("`helper`"), "{stdout}");
    assert!(stdout.contains("`inner`"), "{stdout}");
    assert!(stdout.contains("slice index"), "{stdout}");
}

#[test]
fn e2e_deadlock_fixture_workspace() {
    let (ok, stdout, _) = run_binary_on("mini_ws_deadlock", &[]);
    assert!(!ok, "seeded AB/BA cycle must fail the run");
    assert!(stdout.contains("\"rule\":\"lock-order-cycle\""), "{stdout}");
    assert!(stdout.contains("`state`"), "{stdout}");
    assert!(stdout.contains("`metrics`"), "{stdout}");
    // The send-under-lock in `publish` is reported independently.
    assert!(
        stdout.contains("\"rule\":\"lock-held-across-send\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"symbol\":\"Lanes::publish/send\""),
        "{stdout}"
    );
}

#[test]
fn e2e_taint_fixture_workspace() {
    let (ok, stdout, _) = run_binary_on("mini_ws_taint", &[]);
    assert!(!ok, "clock-tainted solver entry must fail the run");
    assert!(
        stdout.contains("\"rule\":\"determinism-taint\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"symbol\":\"solve\""), "{stdout}");
    // The flow crosses the crate boundary: qos::solve -> runtime::jitter.
    assert!(stdout.contains("`jitter`"), "{stdout}");
    assert!(stdout.contains("Instant::now"), "{stdout}");
    assert!(
        stdout.contains("\"file\":\"crates/qos/src/lib.rs\""),
        "{stdout}"
    );
}

#[test]
fn e2e_unchecked_time_arithmetic_fixture_workspace() {
    let (ok, stdout, _) = run_binary_on("mini_ws_underflow", &[]);
    assert!(!ok, "raw time subtraction must fail the run");
    assert!(
        stdout.contains("\"rule\":\"unchecked-time-arithmetic\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"symbol\":\"age_us/time-arith\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"file\":\"crates/serve/src/lib.rs\""),
        "{stdout}"
    );
    assert!(stdout.contains("raw `-`"), "{stdout}");
    // The checked form and the reviewed (pragma-cut) site stay silent.
    assert!(!stdout.contains("age_us_checked"), "{stdout}");
    assert!(!stdout.contains("age_us_reviewed"), "{stdout}");
}

#[test]
fn e2e_alloc_flow_fixture_workspace() {
    let (ok, stdout, _) = run_binary_on("mini_ws_allocflow", &[]);
    assert!(!ok, "kernel entry reaching a cross-crate alloc must fail");
    assert!(stdout.contains("\"rule\":\"alloc-flow\""), "{stdout}");
    // The budget is part of the symbol, so a count change is a ratchet
    // event in both directions.
    assert!(
        stdout.contains("\"symbol\":\"axpy_into/allocs=1\""),
        "{stdout}"
    );
    // The narrated path crosses the crate boundary to the alloc site.
    assert!(stdout.contains("`stage`"), "{stdout}");
    assert!(stdout.contains("to_vec"), "{stdout}");
    // The allocation lives in rcr-linalg, so the lexical kernel rule
    // must NOT fire — only the interprocedural pass sees the flow.
    assert!(!stdout.contains("no-alloc-in-kernel"), "{stdout}");
    assert!(!stdout.contains("scale_into"), "{stdout}");
}

#[test]
fn e2e_float_reduction_order_fixture_workspace() {
    let (ok, stdout, _) = run_binary_on("mini_ws_reduction", &[]);
    assert!(!ok, "float sum over hash iteration must fail the run");
    assert!(
        stdout.contains("\"rule\":\"float-reduction-order\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"symbol\":\"mean_latency_us/reduction\""),
        "{stdout}"
    );
    // Slice iteration and the reviewed integer count stay silent.
    assert!(!stdout.contains("mean_latency_sorted"), "{stdout}");
    assert!(!stdout.contains("sample_count"), "{stdout}");
}

#[test]
fn e2e_unit_flow_fixture_workspace() {
    let (ok, stdout, _) = run_binary_on("mini_ws_units", &[]);
    assert!(!ok, "unit confusion must fail the run");
    // Additive dB/linear mix inside one fn.
    assert!(stdout.contains("\"rule\":\"db-linear-mix\""), "{stdout}");
    assert!(
        stdout.contains("\"symbol\":\"combine_snr/db-mix\""),
        "{stdout}"
    );
    // Rate + raw count.
    assert!(stdout.contains("\"rule\":\"rate-count-mix\""), "{stdout}");
    assert!(stdout.contains("\"symbol\":\"bump/rate-mix\""), "{stdout}");
    // Cross-crate contract violations: a dB argument into a linear
    // parameter, and a rate into the bandwidth slot.
    assert!(
        stdout.contains("\"symbol\":\"throughput/unit-call\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"rule\":\"unit-mismatch-at-call\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"symbol\":\"misrouted/unit-call\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"file\":\"crates/signal/src/lib.rs\""),
        "{stdout}"
    );
    // The annotated callee and both clean twins stay silent.
    assert!(!stdout.contains("\"symbol\":\"rate_bps"), "{stdout}");
    assert!(!stdout.contains("clean/"), "{stdout}");
    assert!(!stdout.contains("via_conversion"), "{stdout}");
}

#[test]
fn e2e_sarif_format_is_valid_and_locates_findings() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini_ws_units");
    let out = Command::new(env!("CARGO_BIN_EXE_rcr-lint"))
        .args(["--format=sarif", "--root"])
        .arg(&root)
        .output()
        .expect("run rcr-lint");
    assert!(!out.status.success(), "fixture must still fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = rcr_codec::json::parse(&stdout).expect("SARIF output must parse as JSON");
    assert_eq!(
        v.get("version")
            .and_then(rcr_codec::json::JsonValue::as_str),
        Some("2.1.0")
    );
    let run = &v.get("runs").unwrap().as_array().unwrap()[0];
    let rules = run
        .get("tool")
        .unwrap()
        .get("driver")
        .unwrap()
        .get("rules")
        .unwrap()
        .as_array()
        .unwrap();
    let ids: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("id").and_then(rcr_codec::json::JsonValue::as_str))
        .collect();
    assert!(ids.contains(&"db-linear-mix"), "{ids:?}");
    assert!(ids.contains(&"unit-mismatch-at-call"), "{ids:?}");
    let results = run.get("results").unwrap().as_array().unwrap();
    assert!(!results.is_empty());
    assert!(
        stdout.contains("\"uri\": \"crates/signal/src/lib.rs\"")
            || stdout.contains("\"uri\":\"crates/signal/src/lib.rs\""),
        "{stdout}"
    );

    // The binary's own JSON checker accepts its SARIF output.
    let sarif_path =
        std::env::temp_dir().join(format!("rcr-lint-sarif-{}.json", std::process::id()));
    std::fs::write(&sarif_path, stdout.as_bytes()).expect("write sarif");
    let check = Command::new(env!("CARGO_BIN_EXE_rcr-lint"))
        .arg("--check-json")
        .arg(&sarif_path)
        .output()
        .expect("run rcr-lint --check-json");
    let _ = std::fs::remove_file(&sarif_path);
    assert!(check.status.success(), "{check:?}");
}

#[test]
fn e2e_github_format_emits_error_annotations() {
    let root: PathBuf =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini_ws_underflow");
    let out = Command::new(env!("CARGO_BIN_EXE_rcr-lint"))
        .args(["--format=github", "--root"])
        .arg(&root)
        .output()
        .expect("run rcr-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "fixture must still fail the run");
    assert!(
        stdout.contains(
            "::error file=crates/serve/src/lib.rs,line=7,title=rcr-lint/unchecked-time-arithmetic::"
        ),
        "{stdout}"
    );
}

#[test]
fn test_region_survives_doc_comments_but_not_cfg_attr() {
    let src = fixture("test_region_doc_comments.rs");
    let diags: Vec<String> = analyze_source("rcr-qos", "crates/x/src/f.rs", &src, false)
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}", d.rule, d.line))
        .collect();
    // Only the cfg_attr-annotated fn is live library code; the expect
    // inside the doc-comment-separated test module is exempt.
    assert_eq!(diags, vec!["no-unwrap-in-lib:12"]);
}

#[test]
fn default_runs_are_repeatable_and_write_nothing() {
    // A run is a pure function of the tree: two default runs on a
    // fresh copy print the same bytes and leave no build directory or
    // other artifact behind.
    let src: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini_ws_panic");
    let dst = std::env::temp_dir().join(format!("rcr-lint-no-side-effect-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    copy_tree(&src, &dst).expect("copy fixture");
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_rcr-lint"))
            .arg("--root")
            .arg(&dst)
            .output()
            .expect("run rcr-lint")
    };
    let first = run();
    let second = run();
    let wrote_target = dst.join("target").exists();
    let _ = std::fs::remove_dir_all(&dst);
    assert!(!first.status.success(), "fixture must fail the run");
    assert_eq!(first.status.code(), second.status.code());
    assert!(
        String::from_utf8_lossy(&first.stdout).contains("panic-reachability"),
        "{first:?}"
    );
    assert_eq!(
        first.stdout, second.stdout,
        "runs must print the same bytes"
    );
    assert!(!wrote_target, "a lint run must not create <root>/target");
}

#[test]
fn unknown_arguments_exit_2_with_usage() {
    for arg in ["--no-cache", "--changed-only", "--bogus"] {
        let out = Command::new(env!("CARGO_BIN_EXE_rcr-lint"))
            .arg(arg)
            .output()
            .expect("run rcr-lint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument: {arg}")) && stderr.contains("usage:"),
            "{arg}: {stderr}"
        );
    }
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}
