//! Benchmark regression gate: compares a fresh `--save-json` result file
//! against a committed baseline (`BENCH_10.json`) and reports violations.
//!
//! Wall-clock comparisons use each benchmark's *lower-quartile* sample
//! (`p25_ns`, falling back to `min_ns` then `mean_ns` for older
//! documents): on shared hosts scheduling noise is strictly additive, so
//! a low order statistic estimates true cost where the mean is corrupted
//! by contention spikes — and the quartile, unlike the absolute minimum,
//! is central enough to be stable run-to-run on µs-scale benchmarks.
//! Comparisons are machine-normalized: the gate computes the median
//! ratio `current / baseline` of that statistic across all shared
//! benchmark ids and treats it as the host-speed factor, then flags any
//! individual benchmark whose ratio exceeds the factor by more than the
//! tolerance (default 25%). A uniformly slower machine therefore passes,
//! while one benchmark regressing relative to its peers fails.
//!
//! Allocation counts are compared exactly (they are deterministic for
//! single-threaded routines); a baseline entry with `allocs_per_iter:
//! null` opts out (used for the multi-threaded serve benchmark).
//!
//! The baseline file may also carry two self-relative assertion lists,
//! checked against the *current* run only (machine-independent):
//!
//! * `"speedups": [{"faster": id, "slower": id, "min_ratio": 2.0}]` —
//!   the blocked kernel must beat the naive one by the given factor.
//! * `"alloc_reductions": [{"lean": id, "rich": id, "max_fraction":
//!   0.7}]` — the scratch path must allocate at most the given fraction
//!   of the allocating path.
//!
//! A baseline may additionally declare `"required_groups": ["cholesky/",
//! …]` — id prefixes that must be populated. A required prefix with no
//! baseline entry, no current-run entry, or a current-run entry missing
//! from the baseline is a hard error: benchmarks inside a required group
//! can never be silently dropped from either side, and new benches added
//! under the group must land a baseline entry in the same change.

use rcr_codec::json::{self, JsonValue};
use std::collections::BTreeMap;

/// One parsed benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample, nanoseconds (falls back to the mean when a
    /// document omits it).
    pub min_ns: f64,
    /// Lower-quartile sample, nanoseconds (`None` when a document
    /// predates the field).
    pub p25_ns: Option<f64>,
    /// Allocation events per iteration (`None` when not recorded).
    pub allocs_per_iter: Option<u64>,
}

impl BenchResult {
    /// The statistic every wall-clock check runs on: the lower quartile
    /// when recorded, else the fastest sample (itself defaulting to the
    /// mean for minimal documents).
    pub fn stat_ns(&self) -> f64 {
        self.p25_ns.unwrap_or(self.min_ns)
    }
}

/// A parsed result file (current run or committed baseline).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Results keyed by benchmark id.
    pub results: BTreeMap<String, BenchResult>,
    /// Whether the run was built with the counting allocator.
    pub alloc_counting: bool,
    /// Self-relative speedup assertions (baseline files only).
    pub speedups: Vec<SpeedupCheck>,
    /// Self-relative allocation-reduction assertions (baseline files only).
    pub alloc_reductions: Vec<AllocReductionCheck>,
    /// Id prefixes whose coverage is mandatory on both sides (baseline
    /// files only); see the module docs for the exact contract.
    pub required_groups: Vec<String>,
}

/// Requires `slower.stat / faster.stat >= min_ratio` in the current run
/// (where `stat` is the lower-quartile sample, see [`BenchResult::stat_ns`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupCheck {
    /// Id of the benchmark expected to win.
    pub faster: String,
    /// Id of the reference benchmark.
    pub slower: String,
    /// Minimum required speedup factor.
    pub min_ratio: f64,
}

/// Requires `lean.allocs <= max_fraction * rich.allocs` in the current run.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocReductionCheck {
    /// Id of the allocation-lean benchmark.
    pub lean: String,
    /// Id of the allocation-rich reference benchmark.
    pub rich: String,
    /// Maximum allowed fraction of the reference's allocations.
    pub max_fraction: f64,
}

impl BenchReport {
    /// Parses a result or baseline JSON document.
    ///
    /// # Errors
    /// Malformed JSON, wrong schema tag, or missing/ill-typed fields.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = json::parse(text)?;
        let schema = root.get("schema").and_then(JsonValue::as_str).unwrap_or("");
        if schema != "rcr-bench-v1" {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let mut results = BTreeMap::new();
        for (i, item) in root
            .get("results")
            .and_then(JsonValue::as_array)
            .ok_or("missing results array")?
            .iter()
            .enumerate()
        {
            let id = item
                .get("id")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("result {i} has no id"))?
                .to_string();
            let mean_ns = item
                .get("mean_ns")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("result {id:?} has no mean_ns"))?;
            if !(mean_ns > 0.0) {
                return Err(format!("result {id:?} has non-positive mean_ns"));
            }
            let min_ns = match item.get("min_ns").and_then(JsonValue::as_f64) {
                Some(v) if v > 0.0 => v,
                Some(_) => return Err(format!("result {id:?} has non-positive min_ns")),
                None => mean_ns,
            };
            let p25_ns = match item.get("p25_ns").and_then(JsonValue::as_f64) {
                Some(v) if v > 0.0 => Some(v),
                Some(_) => return Err(format!("result {id:?} has non-positive p25_ns")),
                None => None,
            };
            let allocs_per_iter = item.get("allocs_per_iter").and_then(JsonValue::as_u64);
            if results
                .insert(
                    id.clone(),
                    BenchResult {
                        mean_ns,
                        min_ns,
                        p25_ns,
                        allocs_per_iter,
                    },
                )
                .is_some()
            {
                return Err(format!("duplicate result id {id:?}"));
            }
        }
        let mut speedups = Vec::new();
        if let Some(items) = root.get("speedups").and_then(JsonValue::as_array) {
            for item in items {
                speedups.push(SpeedupCheck {
                    faster: req_str(item, "faster")?,
                    slower: req_str(item, "slower")?,
                    min_ratio: req_num(item, "min_ratio")?,
                });
            }
        }
        let mut alloc_reductions = Vec::new();
        if let Some(items) = root.get("alloc_reductions").and_then(JsonValue::as_array) {
            for item in items {
                alloc_reductions.push(AllocReductionCheck {
                    lean: req_str(item, "lean")?,
                    rich: req_str(item, "rich")?,
                    max_fraction: req_num(item, "max_fraction")?,
                });
            }
        }
        let mut required_groups = Vec::new();
        if let Some(items) = root.get("required_groups").and_then(JsonValue::as_array) {
            for item in items {
                let prefix = item
                    .as_str()
                    .ok_or("required_groups entries must be strings")?;
                if prefix.is_empty() {
                    return Err("required_groups entries must be non-empty".into());
                }
                required_groups.push(prefix.to_string());
            }
        }
        Ok(BenchReport {
            results,
            alloc_counting: root
                .get("alloc_counting")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            speedups,
            alloc_reductions,
            required_groups,
        })
    }
}

fn req_str(item: &JsonValue, key: &str) -> Result<String, String> {
    item.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("check entry missing string field {key:?}"))
}

fn req_num(item: &JsonValue, key: &str) -> Result<f64, String> {
    item.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("check entry missing numeric field {key:?}"))
}

/// Host-speed factor: median of per-benchmark lower-quartile ratios
/// `current / baseline` over the shared ids. `None` when nothing is
/// shared.
pub fn machine_factor(current: &BenchReport, baseline: &BenchReport) -> Option<f64> {
    let mut ratios: Vec<f64> = baseline
        .results
        .iter()
        .filter_map(|(id, b)| current.results.get(id).map(|c| c.stat_ns() / b.stat_ns()))
        .collect();
    if ratios.is_empty() {
        return None;
    }
    // total_cmp: parse() already rejects non-positive means, so ratios are
    // positive finite and NaN ordering never actually arises.
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    Some(if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        0.5 * (ratios[mid - 1] + ratios[mid])
    })
}

/// Runs every gate check; returns human-readable failure lines (empty =
/// gate passes). `max_regression` is the fractional wall-time tolerance
/// after machine normalization (0.25 = fail beyond +25%).
pub fn compare(current: &BenchReport, baseline: &BenchReport, max_regression: f64) -> Vec<String> {
    let mut failures = Vec::new();

    for id in baseline.results.keys() {
        if !current.results.contains_key(id) {
            failures.push(format!(
                "coverage: baseline id {id:?} missing from current run"
            ));
        }
    }

    // Required-group coverage is a hard error in every direction: a
    // prefix nobody populates means the group was dropped wholesale, and
    // a current id under a required prefix without a baseline entry
    // means a new bench landed without committing its baseline.
    for prefix in &baseline.required_groups {
        if !baseline.results.keys().any(|id| id.starts_with(prefix)) {
            failures.push(format!(
                "required-group: baseline declares prefix {prefix:?} but \
                 contains no result under it"
            ));
        }
        if !current.results.keys().any(|id| id.starts_with(prefix)) {
            failures.push(format!(
                "required-group: current run has no result under required \
                 prefix {prefix:?}"
            ));
        }
        for id in current.results.keys() {
            if id.starts_with(prefix) && !baseline.results.contains_key(id) {
                failures.push(format!(
                    "required-group: current id {id:?} under required prefix \
                     {prefix:?} has no baseline entry (add it to the \
                     committed baseline)"
                ));
            }
        }
    }

    let Some(factor) = machine_factor(current, baseline) else {
        failures.push("coverage: no shared benchmark ids between runs".to_string());
        return failures;
    };

    for (id, base) in &baseline.results {
        let Some(cur) = current.results.get(id) else {
            continue;
        };
        let normalized = (cur.stat_ns() / base.stat_ns()) / factor;
        if normalized > 1.0 + max_regression {
            failures.push(format!(
                "wall: {id} regressed {:.0}% beyond the host factor \
                 (current p25 {:.0} ns, baseline p25 {:.0} ns, host factor {factor:.2})",
                (normalized - 1.0) * 100.0,
                cur.stat_ns(),
                base.stat_ns(),
            ));
        }
        if let Some(base_allocs) = base.allocs_per_iter {
            if current.alloc_counting {
                match cur.allocs_per_iter {
                    Some(cur_allocs) if cur_allocs == base_allocs => {}
                    Some(cur_allocs) => failures.push(format!(
                        "alloc: {id} performs {cur_allocs} allocations per \
                         iteration, baseline pins {base_allocs} (update \
                         BENCH_10.json if the change is intentional)"
                    )),
                    None => failures.push(format!(
                        "alloc: {id} recorded no allocation count but the \
                         baseline pins {base_allocs}"
                    )),
                }
            }
        }
    }

    for check in &baseline.speedups {
        let (Some(f), Some(s)) = (
            current.results.get(&check.faster),
            current.results.get(&check.slower),
        ) else {
            failures.push(format!(
                "speedup: ids {:?} / {:?} not both present in current run",
                check.faster, check.slower
            ));
            continue;
        };
        let ratio = s.stat_ns() / f.stat_ns();
        if ratio < check.min_ratio {
            failures.push(format!(
                "speedup: {} is only {ratio:.2}x faster than {} \
                 (required {:.2}x)",
                check.faster, check.slower, check.min_ratio
            ));
        }
    }

    if current.alloc_counting {
        for check in &baseline.alloc_reductions {
            let (Some(lean), Some(rich)) = (
                current
                    .results
                    .get(&check.lean)
                    .and_then(|r| r.allocs_per_iter),
                current
                    .results
                    .get(&check.rich)
                    .and_then(|r| r.allocs_per_iter),
            ) else {
                failures.push(format!(
                    "alloc-reduction: ids {:?} / {:?} not both counted in \
                     current run",
                    check.lean, check.rich
                ));
                continue;
            };
            let limit = (check.max_fraction * rich as f64).floor() as u64;
            if lean > limit {
                failures.push(format!(
                    "alloc-reduction: {} allocates {lean}/iter, more than \
                     {:.0}% of {}'s {rich}/iter",
                    check.lean,
                    check.max_fraction * 100.0,
                    check.rich
                ));
            }
        }
    }

    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, f64, Option<u64>)]) -> BenchReport {
        BenchReport {
            results: entries
                .iter()
                .map(|(id, mean, allocs)| {
                    (
                        id.to_string(),
                        BenchResult {
                            mean_ns: *mean,
                            min_ns: *mean,
                            p25_ns: None,
                            allocs_per_iter: *allocs,
                        },
                    )
                })
                .collect(),
            alloc_counting: true,
            speedups: Vec::new(),
            alloc_reductions: Vec::new(),
            required_groups: Vec::new(),
        }
    }

    #[test]
    fn parses_result_json() {
        let text = r#"{
          "schema": "rcr-bench-v1", "alloc_counting": true, "smoke": false,
          "results": [
            {"id": "a", "mean_ns": 10.0, "min_ns": 9.0, "max_ns": 11.0,
             "sd_ns": 0.5, "samples": 20, "allocs_per_iter": 3},
            {"id": "b", "mean_ns": 20.0, "min_ns": 19.0, "max_ns": 21.0,
             "sd_ns": 0.5, "samples": 20, "allocs_per_iter": null}
          ],
          "speedups": [{"faster": "a", "slower": "b", "min_ratio": 1.5}],
          "alloc_reductions": [{"lean": "a", "rich": "b", "max_fraction": 0.7}]
        }"#;
        let r = BenchReport::parse(text).expect("parse");
        assert_eq!(r.results.len(), 2);
        assert_eq!(r.results["a"].allocs_per_iter, Some(3));
        assert_eq!(r.results["b"].allocs_per_iter, None);
        assert!(r.alloc_counting);
        assert_eq!(r.speedups.len(), 1);
        assert_eq!(r.alloc_reductions.len(), 1);
    }

    #[test]
    fn stat_prefers_quartile_then_min_then_mean() {
        let text = r#"{
          "schema": "rcr-bench-v1",
          "results": [
            {"id": "full", "mean_ns": 10.0, "min_ns": 8.0, "p25_ns": 9.0},
            {"id": "no_p25", "mean_ns": 10.0, "min_ns": 8.0},
            {"id": "minimal", "mean_ns": 10.0}
          ]
        }"#;
        let r = BenchReport::parse(text).expect("parse");
        assert_eq!(r.results["full"].stat_ns(), 9.0);
        assert_eq!(r.results["no_p25"].stat_ns(), 8.0);
        assert_eq!(r.results["minimal"].stat_ns(), 10.0);
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(BenchReport::parse("{}").is_err());
        assert!(BenchReport::parse(r#"{"schema": "rcr-bench-v1"}"#).is_err());
        let dup = r#"{"schema": "rcr-bench-v1", "results": [
            {"id": "a", "mean_ns": 1.0}, {"id": "a", "mean_ns": 2.0}]}"#;
        assert!(BenchReport::parse(dup).is_err());
    }

    #[test]
    fn uniform_slowdown_passes_isolated_regression_fails() {
        let baseline = report(&[("a", 100.0, None), ("b", 200.0, None), ("c", 400.0, None)]);
        // Everything 3x slower: a uniformly slower host, no failures.
        let slower = report(&[("a", 300.0, None), ("b", 600.0, None), ("c", 1200.0, None)]);
        assert!(compare(&slower, &baseline, 0.25).is_empty());
        // Only `b` 3x slower: a real regression against the host factor.
        let regressed = report(&[("a", 100.0, None), ("b", 600.0, None), ("c", 400.0, None)]);
        let failures = compare(&regressed, &baseline, 0.25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("wall: b"), "{failures:?}");
    }

    #[test]
    fn alloc_counts_compare_exactly_and_null_opts_out() {
        let baseline = report(&[("a", 100.0, Some(4)), ("b", 100.0, None)]);
        let ok = report(&[("a", 100.0, Some(4)), ("b", 100.0, Some(999))]);
        assert!(compare(&ok, &baseline, 0.25).is_empty());
        let bad = report(&[("a", 100.0, Some(5)), ("b", 100.0, None)]);
        let failures = compare(&bad, &baseline, 0.25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("alloc: a"), "{failures:?}");
    }

    #[test]
    fn missing_coverage_fails() {
        let baseline = report(&[("a", 100.0, None), ("b", 100.0, None)]);
        let partial = report(&[("a", 100.0, None)]);
        let failures = compare(&partial, &baseline, 0.25);
        assert!(
            failures.iter().any(|f| f.contains("coverage")),
            "{failures:?}"
        );
    }

    #[test]
    fn speedup_and_alloc_reduction_checks_run_on_current() {
        let mut baseline = report(&[("naive", 1000.0, Some(100)), ("blocked", 400.0, Some(10))]);
        baseline.speedups.push(SpeedupCheck {
            faster: "blocked".into(),
            slower: "naive".into(),
            min_ratio: 2.0,
        });
        baseline.alloc_reductions.push(AllocReductionCheck {
            lean: "blocked".into(),
            rich: "naive".into(),
            max_fraction: 0.7,
        });
        // Current run keeps the 2.5x speedup and the 10/100 alloc ratio.
        let good = report(&[("naive", 1000.0, Some(100)), ("blocked", 400.0, Some(10))]);
        assert!(compare(&good, &baseline, 0.25).is_empty());
        // Speedup collapses to 1.25x and allocations converge: both fail.
        // (Means chosen so neither side trips the wall-regression check:
        // the median host factor absorbs the shift.)
        let bad = report(&[("naive", 1000.0, Some(100)), ("blocked", 800.0, Some(90))]);
        let failures = compare(&bad, &baseline, 1.5);
        assert!(
            failures.iter().any(|f| f.contains("speedup:")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("alloc-reduction:")),
            "{failures:?}"
        );
    }

    #[test]
    fn required_groups_parse_and_reject_non_strings() {
        let text = r#"{
          "schema": "rcr-bench-v1",
          "results": [{"id": "cholesky/blocked/96", "mean_ns": 10.0}],
          "required_groups": ["cholesky/", "sdp/"]
        }"#;
        let r = BenchReport::parse(text).expect("parse");
        assert_eq!(r.required_groups, vec!["cholesky/", "sdp/"]);
        let bad = r#"{
          "schema": "rcr-bench-v1",
          "results": [{"id": "a", "mean_ns": 10.0}],
          "required_groups": [3]
        }"#;
        assert!(BenchReport::parse(bad).is_err());
        let empty = r#"{
          "schema": "rcr-bench-v1",
          "results": [{"id": "a", "mean_ns": 10.0}],
          "required_groups": [""]
        }"#;
        assert!(BenchReport::parse(empty).is_err());
    }

    #[test]
    fn required_group_coverage_is_a_hard_error_in_every_direction() {
        let mut baseline = report(&[("cholesky/blocked/96", 100.0, None), ("other", 50.0, None)]);
        baseline.required_groups.push("cholesky/".to_string());

        // Fully covered: no failures.
        let good = report(&[("cholesky/blocked/96", 100.0, None), ("other", 50.0, None)]);
        assert!(compare(&good, &baseline, 0.25).is_empty());

        // Current run dropped the whole group.
        let dropped = report(&[("other", 50.0, None)]);
        let failures = compare(&dropped, &baseline, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("required-group") && f.contains("no result under required")),
            "{failures:?}"
        );

        // Current run grew a bench under the group with no baseline entry.
        let grown = report(&[
            ("cholesky/blocked/96", 100.0, None),
            ("cholesky/blocked/128", 180.0, None),
            ("other", 50.0, None),
        ]);
        let failures = compare(&grown, &baseline, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("required-group") && f.contains("no baseline entry")),
            "{failures:?}"
        );

        // Baseline declares a prefix it does not itself populate.
        let mut hollow = report(&[("other", 50.0, None)]);
        hollow.required_groups.push("cholesky/".to_string());
        let failures = compare(&good, &hollow, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("required-group") && f.contains("contains no result")),
            "{failures:?}"
        );
    }

    #[test]
    fn median_factor_is_robust_to_one_outlier() {
        let baseline = report(&[("a", 100.0, None), ("b", 100.0, None), ("c", 100.0, None)]);
        let current = report(&[("a", 100.0, None), ("b", 100.0, None), ("c", 1000.0, None)]);
        // Factor stays ~1.0, so only `c` fails rather than everything
        // being normalized by the outlier.
        assert!((machine_factor(&current, &baseline).unwrap() - 1.0).abs() < 1e-12);
        let failures = compare(&current, &baseline, 0.25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("wall: c"), "{failures:?}");
    }
}
