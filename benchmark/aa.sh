#!/usr/bin/env bash
# A/A check: runs the benchmark several times on the same tree and
# compares every end-to-end metric on every workload against its bound
# in BENCHMARK.json. Exits non-zero on a violation.
#
#   benchmark/aa.sh [--seed N]
#       two full sets with the same seed: the second may be worse than
#       the first by at most the bound, and the per-layer numbers that
#       involve no concurrency must repeat exactly
#   benchmark/aa.sh --seeds K [--seed N]
#       K end-to-end-only sets with seeds N..N+K-1: the distance between
#       the first and third quartile of each metric, as a share of its
#       median, must stay within the bound (the rule new bounds are
#       chosen by; README.md records the spreads seen)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=1
seeds=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        *) echo "aa.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
files=()
if [ "$seeds" -eq 0 ]; then
    for i in 1 2; do
        files+=("$here/out/aa_$i.json")
        "$here/run.sh" --seed "$seed" --out "$here/out/aa_$i.json"
    done
else
    for ((i = 0; i < seeds; i++)); do
        files+=("$here/out/aa_seed_$((seed + i)).json")
        "$here/run.sh" --seed "$((seed + i))" --e2e-only --out "$here/out/aa_seed_$((seed + i)).json"
    done
fi
exec "$here/run.sh" --compare "${files[@]}"
