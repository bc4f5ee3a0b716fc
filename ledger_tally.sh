#!/usr/bin/env bash
# How the figure ledger's gated rows spread over repeated runs: the
# numbers a band is measured from, and the check that a committed value
# sits in the middle of what the tree reads.
#
#   ledger_tally.sh <runs> [harness...]
#
# Runs each named harness (default: every `[[bench]]` of
# crates/bench/Cargo.toml) <runs> times at its committed operation
# counts — `cargo bench -p drtm-bench --bench <harness>` with DRTM_SCALE
# unset, as ci.sh's ledger stage does — and keeps run r's
# target/ledger/BENCH_<harness>.json as target/ledger_tally/<harness>.<r>
# (emptied first). Then prints, for each row of ledger/: the committed
# value, the band, the min / median / max of the runs, the median's
# offset from the committed value in % and, for a gated row, as a share
# of the band (1.00 = on the band's edge) and how many runs fell outside
# the band; a record-only row shows `-` there. Last, how many runs had
# at least one row outside its band, per harness and over all of them:
# a ledger stage over these harnesses would have failed in that many.
#
# Leaves target/ledger/ holding the last run. Exits non-zero if a
# harness does; a row outside its band is reported, not an error.
# bash + awk only.
set -euo pipefail
if [ $# -lt 1 ] || ! [[ "$1" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: ledger_tally.sh <runs> [harness...]" >&2
    exit 2
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="$1"
shift
if [ $# -gt 0 ]; then
    harnesses="$*"
else
    harnesses="$(awk '/^\[\[bench\]\]/ { b = 1; next }
        b && /^name *=/ { gsub(/^name *= *"|"$/, ""); print; b = 0 }' \
        "$here/crates/bench/Cargo.toml")"
fi

kept="$here/target/ledger_tally"
rm -rf "$kept"
mkdir -p "$kept"
cd "$here"
for ((r = 1; r <= runs; r++)); do
    for h in $harnesses; do
        echo "run $r/$runs: $h" >&2
        env -u DRTM_SCALE cargo bench -q -p drtm-bench --bench "$h" > /dev/null
        cp "target/ledger/BENCH_$h.json" "$kept/$h.$r"
    done
done

# Every ledger line is one row: `{"figure": .., "point": .., .., "band": ..}`.
for h in $harnesses; do
    echo "== $h =="
    for ((r = 1; r <= runs; r++)); do cat "$kept/$h.$r"; done \
        | awk -v runs="$runs" -v committed="ledger/BENCH_$h.json" '
        function field(line, key,    v) {
            if (!match(line, "\"" key "\": (\"[^\"]*\"|[^,}]+)")) return ""
            v = substr(line, RSTART, RLENGTH)
            sub(/^[^:]*: /, "", v)
            gsub(/"/, "", v)
            return v
        }
        function outside(v, c, b) { return (v > c ? v - c : c - v) > b * (c < 0 ? -c : c) }
        BEGIN {
            while ((getline line < committed) > 0) {
                p = field(line, "point")
                if (p == "") continue
                order[++rows] = p
                value[p] = field(line, "measured") + 0
                band[p] = field(line, "band") == "null" ? -1 : field(line, "band") + 0
            }
        }
        {
            p = field($0, "point")
            if (!(p in band)) next
            k = ++seen[p]
            run[p, k] = field($0, "measured") + 0
            if (band[p] >= 0 && outside(run[p, k], value[p], band[p])) { out[p]++; failed[k] = 1 }
        }
        END {
            printf "  %-34s %14s %6s %14s %14s %14s %9s %6s %s\n", "point", "committed",
                "band", "min", "median", "max", "median +-", "/band", "outside"
            for (i = 1; i <= rows; i++) {
                p = order[i]
                n = seen[p]
                if (n == 0) { printf "  %-34s missing from every run\n", p; continue }
                for (a = 1; a <= n; a++) s[a] = run[p, a]
                for (a = 2; a <= n; a++)
                    for (b = a; b > 1 && s[b - 1] > s[b]; b--) { t = s[b]; s[b] = s[b - 1]; s[b - 1] = t }
                med = n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
                c = value[p]
                off = c == 0 ? 0 : 100 * (med - c) / (c < 0 ? -c : c)
                if (band[p] < 0) {
                    printf "  %-34s %14.6g %6s %14.6g %14.6g %14.6g %+8.2f%% %6s %s\n", p, c,
                        "-", s[1], med, s[n], off, "-", "-"
                    continue
                }
                printf "  %-34s %14.6g %5.1f%% %14.6g %14.6g %14.6g %+8.2f%% %6s %d/%d\n", p, c,
                    100 * band[p], s[1], med, s[n], off,
                    (band[p] > 0 ? sprintf("%+.2f", off / (100 * band[p])) : med == c ? "0" : "inf"),
                    out[p] + 0, n
            }
            for (k = 1; k <= runs; k++) if (k in failed) { f++; print "FAILED_RUN", k }
            printf "  runs with a row outside its band: %d of %d\n", f + 0, runs
        }'
done | awk -v runs="$runs" '
    /^FAILED_RUN / { if (!($2 in failed)) { failed[$2]; n++ }; next }
    { print }
    END { printf "runs with a row outside its band, any harness: %d of %d\n", n + 0, runs }'
