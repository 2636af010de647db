#!/usr/bin/env bash
# Regenerates every experiment table (E1-E15) into experiments_output.txt.
# Usage: scripts/run_experiments.sh [output-file]
# Stops at the first table binary that fails: names it, shows its stderr
# and exits non-zero, so a crash never leaves a silent gap in the output.
set -eu
out="${1:-experiments_output.txt}"
cd "$(dirname "$0")/.."
err="$(mktemp)"
trap 'rm -f "$err"' EXIT
: > "$out"
for bin in table_e1_stack table_e2_paradigms table_e3_issues table_e4_pso \
           table_e5_discrete table_e6_truncation table_e7_stft table_e8_qcqp \
           table_e9_sdp table_e10_verify table_e11_squeeze table_e12_qos \
           table_e13_gan table_e15_rrm; do
    echo "running $bin ..." >&2
    if ! cargo run --release -p rcr-bench --bin "$bin" 2>"$err" >> "$out"; then
        echo "run_experiments.sh: $bin failed; its stderr follows" >&2
        cat "$err" >&2
        exit 1
    fi
    echo >> "$out"
done
echo "wrote $out" >&2
