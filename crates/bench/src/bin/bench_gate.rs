//! CLI wrapper around [`rcr_bench::gate`]: diffs a fresh bench result
//! file against the committed baseline and exits nonzero on regression.
//!
//! ```text
//! bench_gate <current.json> <baseline.json> [--max-regression 0.25]
//! ```
//!
//! Produced by `scripts/verify.sh --bench-smoke`:
//!
//! ```text
//! cargo bench -p rcr-bench --bench bench_kernels --features alloc-count \
//!     -- --smoke --save-json target/bench_current.json
//! bench_gate target/bench_current.json BENCH_14.json
//! ```

use rcr_bench::gate::{compare, machine_factor, BenchReport};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: bench_gate <current.json> <baseline.json> [--max-regression <frac>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut max_regression = 0.25f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regression" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                    return usage();
                };
                if !(v > 0.0) {
                    return usage();
                }
                max_regression = v;
                i += 2;
            }
            other => {
                paths.push(other.to_string());
                i += 1;
            }
        }
    }
    let [current_path, baseline_path] = paths.as_slice() else {
        return usage();
    };

    let current = match load(current_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {current_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match load(baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let factor = machine_factor(&current, &baseline);
    let failures = compare(&current, &baseline, max_regression);
    match factor {
        Some(f) => println!(
            "bench_gate: {} current / {} baseline results, host factor {f:.2}, \
             tolerance {:.0}%",
            current.results.len(),
            baseline.results.len(),
            max_regression * 100.0
        ),
        None => println!("bench_gate: no shared benchmark ids"),
    }
    if failures.is_empty() {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_gate: FAIL {f}");
        }
        eprintln!("bench_gate: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    BenchReport::parse(&text)
}
