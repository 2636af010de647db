//! Benchmark for the rcr workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-cold --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Runs one workload for one seed, checks every answer, prints each
//! metric with its unit and sample count, and ends with one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `benchmark/README.md` for the workloads.

mod relax;
mod report;
mod serve;
mod spans;

use report::Outcome;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(50).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload serve-cold|relax-drift --seed N [--seconds S] [--trace 0|1]\n{e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let run = match args.workload.as_str() {
        "serve-cold" => serve::run(args.seed, args.seconds, args.trace, &mut out),
        "relax-drift" => relax::run(args.seed, args.seconds, args.trace, &mut out),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = run {
        eprintln!("benchmark failed: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    report::emit(&out, args.trace);
    ExitCode::SUCCESS
}
