#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick] [--e2e-only] [--out FILE]
#       builds in release, then runs every workload (each in a process of
#       its own, untraced then traced), checks outputs, prints every
#       metric by name with its unit and writes benchmark/out/results.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result as one JSON
#       object (the form BENCHMARK.json's driver calls)
#   benchmark/run.sh --compare FILE FILE [FILE...]
#       the A/A comparison (see aa.sh)
#
# Exits non-zero when the build fails, an operation fails or an output
# check fails. Build output goes to stderr.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/drtm-benchmark" --dir "$here" "$@"
