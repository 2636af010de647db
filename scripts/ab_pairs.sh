#!/usr/bin/env bash
# Paired A/B timing of the end-to-end benchmark against a parent revision.
# Usage: scripts/ab_pairs.sh <parent-rev> <workload> <pairs> [seconds]
#   <parent-rev>  any git revision, e.g. HEAD~1 or a commit hash
#   <workload>    a benchmark workload (serve-cold, relax-drift)
#   <pairs>       number of (parent, change) run pairs
#   [seconds]     --seconds per run (default 50, as BENCHMARK.json runs it)
# Environment: AB_SEED (default 1001) is every run's --seed; AB_DIR
# (default target/ab) holds the parent's source tree and build.
#
# The parent's tree is extracted with `git archive` (no worktree is
# registered) and its benchmark/ built offline; the change is the working
# tree's benchmark/. Runs alternate, parent first in odd pairs and change
# first in even ones, so a slow phase of a shared host lands on both
# sides. Each pair prints the end-to-end metrics of BENCHMARK.json; the
# summary gives per metric the pairs the change won, the median
# change/parent ratio and the parent's median and quartiles. Nothing
# under benchmark/ is modified.
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
  sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
rev="$1"
workload="$2"
pairs="$3"
seconds="${4:-50}"
seed="${AB_SEED:-1001}"
case "$pairs$seconds$seed" in
  *[!0-9]*) echo "ab_pairs.sh: pairs, seconds and AB_SEED must be integers" >&2; exit 2 ;;
esac
if [ "$pairs" -lt 1 ]; then
  echo "ab_pairs.sh: pairs must be at least 1" >&2
  exit 2
fi

root="$(pwd)"
sha="$(git rev-parse --verify --quiet "$rev^{commit}")" || {
  echo "ab_pairs.sh: unknown revision $rev" >&2
  exit 2
}
parent_dir="${AB_DIR:-$root/target/ab}/${sha:0:12}"
if [ ! -d "$parent_dir" ]; then
  mkdir -p "$parent_dir"
  git archive --format=tar "$sha" | tar -x -C "$parent_dir"
fi

echo "== build parent ${sha:0:12} and change ==" >&2
(cd "$parent_dir" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
parent_bin="$parent_dir/benchmark/target/release/rcr-benchmark"
change_bin="$root/benchmark/target/release/rcr-benchmark"

# "name better" per gated end-to-end metric, in BENCHMARK.json order.
metrics="$(awk '
  /"end_to_end"/ { inside = 1 }
  inside && /"per_layer"/ { inside = 0 }
  inside && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  inside && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' BENCHMARK.json)"

results="$(mktemp)"
trap 'rm -f "$results"' EXIT

# Runs one side and appends "pair side metric value" lines to $results.
run() {
  local pair="$1" side="$2" bin="$3" line
  line="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" | tail -n 1)"
  case "$line" in
    *'"correct": true'*) ;;
    *) echo "ab_pairs.sh: $side run of pair $pair is not correct: $line" >&2; exit 1 ;;
  esac
  echo "$metrics" | while read -r name _; do
    value="$(printf '%s\n' "$line" | grep -o "\"$name\": {\"value\": [^,}]*" | sed 's/.*: //')"
    echo "$pair $side $name ${value:-nan}"
  done >> "$results"
}

for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run "$pair" parent "$parent_bin"
    run "$pair" change "$change_bin"
  else
    run "$pair" change "$change_bin"
    run "$pair" parent "$parent_bin"
  fi
  awk -v p="$pair" '$1 == p { v[$2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++n] = $3 } }
    END {
      printf "pair %d:", p
      for (i = 1; i <= n; i++) printf "  %s %g -> %g", order[i], v["parent", order[i]], v["change", order[i]]
      printf "\n"
    }' "$results"
done

echo "# $workload, seed $seed, $pairs pairs of ${seconds} s, parent ${sha:0:12}"
printf '%-16s %-7s %5s %13s %12s %25s\n' metric better wins "median ratio" "parent p50" "parent p25-p75"
echo "$metrics" | while read -r name better; do
  awk -v m="$name" -v better="$better" -v pairs="$pairs" '
    function median(a, k,   i, j, t) {
      for (i = 2; i <= k; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
      return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
    }
    function quantile(a, k, q,   h, lo) {
      # a is sorted by median(); linear interpolation between ranks.
      h = (k - 1) * q + 1; lo = int(h)
      return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    $3 == m { v[$1, $2] = $4 }
    END {
      wins = 0; k = 0
      for (p = 1; p <= pairs; p++) {
        a = v[p, "parent"]; c = v[p, "change"]
        if ((better == "lower" && c < a) || (better == "higher" && c > a)) wins++
        if (a != 0) ratio[++k] = c / a
        par[p] = a
      }
      r = k ? median(ratio, k) : 0
      pm = median(par, pairs)
      printf "%-16s %-7s %2d/%-2d %13.3f %12g %12g-%-12g\n", m, better, wins, pairs, r, pm,
        quantile(par, pairs, 0.25), quantile(par, pairs, 0.75)
    }' "$results"
done
