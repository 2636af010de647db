//! CLI for `rcr-lint`: lints the workspace, prints diagnostics and the
//! per-rule summary, exits non-zero on any finding.

#![forbid(unsafe_code)]

use rcr_lint::baseline::Baseline;
use rcr_lint::sem::passes::SEMANTIC_RULES;
use rcr_lint::{find_workspace_root, lint_workspace_with, render_json, render_sarif, Options};
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Human,
    Json,
    Github,
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut root_arg: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format=json" => format = Format::Json,
            "--format=human" => format = Format::Human,
            "--format=github" => format = Format::Github,
            "--format=sarif" => format = Format::Sarif,
            "--check-json" => {
                // Standalone: validate that a file parses as JSON with
                // the same reader the tool itself uses. CI uses this to
                // gate the SARIF artifact without external tooling.
                let Some(p) = args.next() else {
                    return usage("--check-json requires a path");
                };
                return match std::fs::read_to_string(&p)
                    .map_err(|e| e.to_string())
                    .and_then(|t| rcr_codec::json::parse(&t).map_err(|e| e.to_string()))
                {
                    Ok(_) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("rcr-lint: {p}: {e}");
                        ExitCode::from(2)
                    }
                };
            }
            "--write-baseline" => {
                write_baseline = true;
                opts.no_baseline = true;
            }
            "--baseline" => match args.next() {
                Some(p) => opts.baseline_path = Some(PathBuf::from(p)),
                None => return usage("--baseline requires a path"),
            },
            "--root" => match args.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => return usage("--root requires a path"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: rcr-lint [--format=json|human|github|sarif] [--root <workspace>]\n\
                     \x20               [--baseline <file>] [--write-baseline]\n\
                     \x20               [--check-json <file>]\n\
                     Lints every workspace crate's src/ tree; exits 1 on any finding.\n\
                     Semantic findings are ratcheted against <workspace>/lint-baseline.json:\n\
                     known entries are accepted, new findings and stale entries fail.\n\
                     --format=github emit GitHub Actions ::error annotations\n\
                     --format=sarif  emit a SARIF 2.1.0 log on stdout\n\
                     --check-json <file>  just validate that <file> parses as JSON\n\
                     --write-baseline  print a baseline accepting current semantic findings"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument: {other}")),
        }
    }

    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("rcr-lint: cannot read current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("rcr-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match lint_workspace_with(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rcr-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if write_baseline {
        // Print the baseline accepting today's semantic findings; the
        // caller reviews and commits it. Lexical findings still gate.
        print!("{}", Baseline::render_from(&report.diagnostics));
        let lexical_dirty = report
            .diagnostics
            .iter()
            .any(|d| !SEMANTIC_RULES.contains(&d.rule));
        return if lexical_dirty {
            eprintln!("rcr-lint: lexical findings remain; fix them — they cannot be baselined");
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    match format {
        Format::Human => {
            for d in &report.diagnostics {
                println!("{}", d.render_human());
            }
            // Summary to stderr so it shows in CI logs without
            // polluting machine-readable stdout use.
            eprint!("{}", report.render_summary());
        }
        Format::Json => {
            println!("{}", render_json(&report.diagnostics));
            eprint!("{}", report.render_summary());
        }
        Format::Github => {
            for d in &report.diagnostics {
                println!("{}", d.render_github());
            }
            eprint!("{}", report.render_summary());
        }
        Format::Sarif => {
            println!("{}", render_sarif(&report.diagnostics));
            eprint!("{}", report.render_summary());
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "rcr-lint: {msg}\nusage: rcr-lint [--format=json|human|github|sarif] [--root <workspace>] [--baseline <file>] [--write-baseline] [--check-json <file>]"
    );
    ExitCode::from(2)
}
