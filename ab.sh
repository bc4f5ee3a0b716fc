#!/usr/bin/env bash
# Paired, alternating A/B runs of the repo benchmark: the procedure
# benchmark/README.md says a host-time claim needs, because two sets
# taken half an hour apart on this sandbox differ by more than most
# changes do.
#
#   ab.sh <parent-binary> <change-binary> <workload> [pairs=10]
#   ab.sh <parent-binary> <change-binary> all [pairs=10]
#
# Both arguments are prebuilt `drtm-benchmark` executables (build each
# commit into a CARGO_TARGET_DIR of its own; see
# .claude/skills/verify/SKILL.md). Pair i runs both with
#   --dir benchmark --workload W --seed i --seconds 20 --trace 0
# — the form BENCHMARK.json's driver calls — parent first on odd pairs,
# change first on even ones. Prints every run made, then for each
# end-to-end metric of BENCHMARK.json each side's quartiles and median,
# the move of the median beside the parent's own quartile distance (a
# gain is claimed only past it), and the pairs each side won (a tie
# counts for neither), and each side's failed operations, also as a share
# of those attempted. Exits non-zero if a run does, which is also what
# a failed operation or output check makes it do. `all` runs every
# workload BENCHMARK.json names in turn, one table each, and exits
# non-zero if any of them does.
#
# bash + awk only; about 50 s per pair.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: ab.sh <parent-binary> <change-binary> <workload|all> [pairs=10]" >&2
    exit 2
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

if [ "$3" = all ]; then
    status=0
    for w in $(awk '
        /"workloads"/ { on = 1 }
        on && /"name"/ { gsub(/[",]/, ""); print $2 }
        on && /^ *\]/ { on = 0 }
    ' "$here/BENCHMARK.json"); do
        "$here/ab.sh" "$1" "$2" "$w" "${4:-10}" || status=1
        echo
    done
    exit "$status"
fi
parent="$1"
change="$2"
workload="$3"
pairs="${4:-10}"

# "name better" for each end-to-end metric, from the declaration itself.
metrics="$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); print name, $2 }
    on && /^ *\]/ { on = 0 }
' "$here/BENCHMARK.json")"

rows="$(mktemp)"
trap 'rm -f "$rows"' EXIT

# run <pair> <side> <binary>: appends "pair side metric value" rows.
run() {
    local result
    result="$("$3" --dir "$here/benchmark" --workload "$workload" --seed "$1" \
        --seconds 20 --trace 0 | tail -n 1)"
    awk -v pair="$1" -v side="$2" -v metrics="$metrics" '
        {
            n = split(metrics, m, "\n")
            for (i = 1; i <= n; i++) {
                split(m[i], f, " ")
                if (match($0, "\"" f[1] "\": [{]\"value\": [-+.eE0-9]+")) {
                    v = substr($0, RSTART, RLENGTH)
                    sub(/.*: /, "", v)
                    print pair, side, f[1], v
                }
            }
            if (match($0, /"failed": [0-9]+/))
                print pair, side, "failed", substr($0, RSTART + 10, RLENGTH - 10)
            if (match($0, /"attempted": [0-9]+/))
                print pair, side, "attempted", substr($0, RSTART + 13, RLENGTH - 13)
        }
    ' <<<"$result" >>"$rows"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $i/$pairs: $side" >&2
        run "$i" "$side" "${!side}"
    done
done

echo "workload $workload, $pairs pairs, seeds 1..$pairs, parent first on odd pairs"
awk -v metrics="$metrics" -v pairs="$pairs" '
    function sorted(side, name, out,    i, j, t) {
        for (i = 1; i <= pairs; i++) out[i] = val[i, side, name]
        for (i = 2; i <= pairs; i++)
            for (j = i; j > 1 && out[j - 1] > out[j]; j--) {
                t = out[j]; out[j] = out[j - 1]; out[j - 1] = t
            }
    }
    # Quantile by linear interpolation between order statistics.
    function quantile(a, q,    h, lo) {
        h = (pairs - 1) * q + 1
        lo = int(h)
        return lo >= pairs ? a[pairs] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    { raw[$1, $2, $3] = $4; val[$1, $2, $3] = $4 + 0 }
    END {
        n = split(metrics, m, "\n")
        print ""
        print "every run (pair = seed):"
        for (k = 1; k <= n; k++) {
            split(m[k], f, " ")
            printf "  %-15s parent", f[1]
            for (i = 1; i <= pairs; i++) printf " %s", raw[i, "parent", f[1]]
            printf "\n  %-15s change", ""
            for (i = 1; i <= pairs; i++) printf " %s", raw[i, "change", f[1]]
            printf "\n"
        }
        failed_p = failed_c = tried_p = tried_c = 0
        for (i = 1; i <= pairs; i++) {
            failed_p += val[i, "parent", "failed"]
            failed_c += val[i, "change", "failed"]
            tried_p += val[i, "parent", "attempted"]
            tried_c += val[i, "change", "attempted"]
        }
        printf "  failed operations: parent %d, change %d\n", failed_p, failed_c
        printf "  failed share:      parent %d / %d = %.3g, change %d / %d = %.3g\n\n",
            failed_p, tried_p, tried_p ? failed_p / tried_p : 0,
            failed_c, tried_c, tried_c ? failed_c / tried_c : 0
        printf "%-15s %-6s %-34s %-34s %9s %11s %s\n", "metric", "better",
            "parent q1 / median / q3", "change q1 / median / q3", "median +-", "parent IQR", "pairs won"
        for (k = 1; k <= n; k++) {
            split(m[k], f, " ")
            sorted("parent", f[1], p)
            sorted("change", f[1], c)
            won_p = won_c = 0
            for (i = 1; i <= pairs; i++) {
                d = val[i, "change", f[1]] - val[i, "parent", f[1]]
                if (f[2] == "lower") d = -d
                if (d > 0) won_c++
                if (d < 0) won_p++
            }
            pm = quantile(p, 0.5)
            printf "%-15s %-6s %-34s %-34s %+8.2f%% %10.2f%% change %d, parent %d of %d\n", f[1], f[2],
                sprintf("%.7g / %.7g / %.7g", quantile(p, 0.25), pm, quantile(p, 0.75)),
                sprintf("%.7g / %.7g / %.7g", quantile(c, 0.25), quantile(c, 0.5), quantile(c, 0.75)),
                100 * (quantile(c, 0.5) - pm) / pm,
                100 * (quantile(p, 0.75) - quantile(p, 0.25)) / pm,
                won_c, won_p, pairs
        }
    }
' "$rows"
