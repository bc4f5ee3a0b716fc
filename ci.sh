#!/usr/bin/env bash
# Repository CI gate. Run from the repo root.
#
# Tier-1 (the bar every change must clear):
#   cargo build --release && cargo test -q
# plus style/lint gates:
#   cargo fmt --all -- --check
#   cargo clippy --workspace --all-targets -- -D warnings
#   RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
#     (a renamed or privatised item that a doc comment still links to
#     fails here; nothing else would catch it)
# plus a `git grep` gate that keeps the deployment assembly written once:
# `NodeLayout::reserve` and `SoftTimer::start` are called from
# crates/core/src only (drtm_core::Deployment is their one caller), and
# the 200 µs softtime interval, `add_node_layout` and per-machine
# `layouts.push` appear nowhere but the one SOFTTIME_INTERVAL definition
# plus a `git grep` gate that keeps the host-side operation path written
# once (DESIGN.md §2 "Host-side operations"): no `standalone` loop, HTM
# outcomes counted in htm/src/{exec,stats}.rs and core/src/txn.rs only,
# service threads spawned in rdma/src/rpc.rs and the two clocks only,
# and none of the deleted request/reply twins by name
# plus `cargo run --release --example abort_diagnosis`, whose StatsReport
# block must show every layer counting (txns, htm, rdma, a phase line
# with record ops, a non-empty abort-cause list)
# plus the benchmark package's build and unit tests: benchmark/ is its
# own workspace and drives the crates through the public functions its
# README pins, so a refactor that breaks one of them fails here instead
# of in the benchmark pipeline. Then `benchmark/run.sh --quick`: all
# four workloads at 1/20 size with their output checks (attempted =
# committed + failed, SmallBank conservation, the TPC-C consistency
# checks, every KV GET's bytes), about half a minute, writing only the
# git-ignored benchmark/out — so a protocol change that breaks one of
# them fails here too. Its numbers are stamped not comparable and
# nothing reads them. `ab.sh`, the paired A/B runner for host-time
# claims, is only syntax-checked (`bash -n`).
#
# With --bench-smoke (the only option), additionally runs the three
# ledgered headline harnesses once each at minimum scale into a scratch
# directory — fig10d, fig12 (its scale-out segment at 16 machines x 32
# workers: 512 logical workers, feasible only because the pipelined
# engine multiplexes them onto a small OS thread pool — and its
# membership-churn segment) and tab6 (a real mid-run crash plus the
# durable-free read-only segment) — then validates the BENCH_*.json they
# emit with check_bench_json (schema keys present, numbers finite,
# throughput positive, extra.rdma_ops_per_doorbell > 1.0 with batched
# per-op cost below unbatched, extra.membership_throughput_ratio >= 0.6
# with join_ms/drain_ms positive, extra.recovery_ms, extra.ro_log_bytes
# == 0) and diffs them against the committed repo-root baselines with
# --diff (>10% throughput regression fails; smoke-scale runs skip the
# throughput comparison but still exercise the diff path). See
# EXPERIMENTS.md for the schema. The chaos matrix, the membership
# proptest and the elastic-memstore tests need no flag: the tier-1
# `cargo test --workspace` line runs them all, at full scale.
#
# The build is fully offline: third-party deps resolve to the minimal
# vendored stubs under vendor/ via [patch.crates-io] in Cargo.toml.
set -euo pipefail
cd "$(dirname "$0")"

BENCH_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests (workspace superset) =="
cargo test -q --workspace

echo "== diagnostics: abort_diagnosis prints every layer of its StatsReport =="
# The one place all five counter sets are printed together, and every
# one of them counts something in this storm: a set dropped from the
# join would print zeros, and fails here.
REPORT="$(cargo run -q --release --example abort_diagnosis)"
for want in \
  '^txns: [1-9][0-9]* committed' \
  '^htm:  [1-9][0-9]* commits' \
  '^rdma: [1-9][0-9]* READ' \
  '^phase breakdown' \
  '^  fallback +[0-9.]+ ms +[1-9][0-9]* ops$'; do
  grep -Eq "$want" <<<"$REPORT" \
    || { echo "abort_diagnosis: no line matches $want" >&2; echo "$REPORT" >&2; exit 1; }
done
grep -A1 '^abort causes:$' <<<"$REPORT" | grep -Eq '^  [a-z-]+ +[1-9][0-9]*$' \
  || { echo "abort_diagnosis: empty abort-cause list" >&2; echo "$REPORT" >&2; exit 1; }

echo "== written once: the deployment assembly lives in crates/core/src =="
# A fixture that reserves its own layout or starts its own timer has
# forked the five decisions DESIGN.md §2 "Deployment" lists.
if git grep -n --untracked 'NodeLayout::reserve\|SoftTimer::start' -- crates tests examples \
  | grep -v '^crates/core/src/'; then
  echo "layout / softtime service assembled outside crates/core/src: use drtm_core::Deployment" >&2
  exit 1
fi
if git grep -n --untracked 'add_node_layout\|layouts.push\|from_micros(200)' -- crates tests examples \
  | grep -v '^crates/core/src/time.rs:[0-9]*:pub const SOFTTIME_INTERVAL'; then
  echo "per-machine layout list or a restated softtime interval: see DESIGN.md §2 Deployment" >&2
  exit 1
fi

echo "== written once: Executor::run and rpc::{call, serve} under every host-side operation =="
# A second retry loop, a region counted by hand, a second service thread
# or a request/reply of its own has forked DESIGN.md §2 "Host-side
# operations".
if git grep -n --untracked 'standalone(\|fn standalone' -- crates tests examples; then
  echo "a stand-alone HTM retry loop outside drtm_htm::Executor::run" >&2
  exit 1
fi
if git grep -n --untracked 'record_abort(\|\.commits\.inc()' -- 'crates/*/src/*' \
  | grep -v '^crates/htm/src/\(exec\|stats\)\.rs:\|^crates/core/src/txn\.rs:'; then
  echo "HTM outcomes counted outside Executor::run / Worker::run" >&2
  exit 1
fi
if git grep -n --untracked 'thread::Builder' -- 'crates/*/src/*' \
  | grep -v '^crates/rdma/src/rpc\.rs:\|^crates/core/src/\(time\|failure\)\.rs:'; then
  echo "a service thread outside drtm_rdma::rpc::serve (and the two clocks)" >&2
  exit 1
fi
if git grep -n --untracked 'try_remote_scan\|StoreServiceGuard\|ScanServiceGuard\|serve_store_ops' \
  -- crates tests examples src benchmark/src; then
  echo "a deleted request/reply twin is back: use drtm_rdma::rpc::{call, serve}" >&2
  exit 1
fi

echo "== style: rustfmt =="
cargo fmt --all -- --check

echo "== lint: clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs: rustdoc (deny warnings, broken intra-doc links included) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== pinned surface: benchmark package builds and passes its tests =="
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== output checks: all four benchmark workloads at 1/20 size =="
bash benchmark/run.sh --quick > /dev/null

echo "== tooling: ab.sh parses =="
# The paired A/B runner takes ten minutes per workload and two prebuilt
# binaries, so CI only checks that it is still a shell script.
bash -n ab.sh

SCRATCH_DIRS=()
cleanup() { rm -rf "${SCRATCH_DIRS[@]:-}"; }
trap cleanup EXIT

if [ "$BENCH_SMOKE" = 1 ]; then
  echo "== bench smoke: fig10d + fig12 + tab6 at minimum scale =="
  SMOKE_OUT="$(mktemp -d)"
  SCRATCH_DIRS+=("$SMOKE_OUT")
  export DRTM_SCALE=0.01 DRTM_BENCH_OUT="$SMOKE_OUT"
  cargo bench -q -p drtm-bench --bench fig10d_cache_size
  DRTM_FIG12_SCALEOUT_NODES=16 DRTM_FIG12_SCALEOUT_WORKERS=32 \
    cargo bench -q -p drtm-bench --bench fig12_tpcc_machines
  cargo bench -q -p drtm-bench --bench tab6_durability
  echo "== bench smoke: validate emitted JSON + diff vs committed baselines =="
  cargo run -q --release -p drtm-bench --bin check_bench_json -- \
    --diff . "$SMOKE_OUT"/BENCH_*.json
  for key in rdma_ops_per_doorbell membership_throughput_ratio; do
    grep -q "\"$key\"" "$SMOKE_OUT"/BENCH_fig12_tpcc_machines.json \
      || { echo "fig12 ledger missing $key" >&2; exit 1; }
  done
  grep -q '"ro_log_bytes": 0.0' "$SMOKE_OUT"/BENCH_tab6_durability.json \
    || { echo "tab6 ledger missing ro_log_bytes == 0" >&2; exit 1; }
fi

echo "CI OK"
