#!/usr/bin/env bash
# Repository CI gate. Run from the repo root.
#
# Tier-1 (the bar every change must clear):
#   cargo build --release && cargo test -q
# plus style/lint gates:
#   cargo fmt --all -- --check
#   cargo clippy --workspace --all-targets -- -D warnings
# plus the benchmark package's build and unit tests: benchmark/ is its
# own workspace and drives the crates through the public functions its
# README pins, so a refactor that breaks one of them fails here instead
# of in the benchmark pipeline. Then `benchmark/run.sh --quick`: all
# four workloads at 1/20 size with their output checks (attempted =
# committed + failed, SmallBank conservation, the TPC-C consistency
# checks, every KV GET's bytes), about half a minute, writing only the
# git-ignored benchmark/out — so a protocol change that breaks one of
# them fails here too. Its numbers are stamped not comparable and
# nothing reads them.
#
# With --bench-smoke, additionally runs the two headline bench harnesses
# at minimum scale into a scratch directory and validates the
# machine-readable BENCH_*.json they emit (schema keys present, numbers
# finite, throughput positive), then diffs them against the committed
# repo-root baselines with check_bench_json --diff (>10% throughput
# regression fails; smoke-scale runs skip the throughput comparison but
# still exercise the diff path). fig12's scale-out segment runs at
# 16 machines x 32 workers — 512 logical workers, feasible only because
# the pipelined engine multiplexes them onto a small OS thread pool —
# and check_bench_json validates the doorbell-batching fields
# (extra.rdma_ops_per_doorbell > 1.0, batched per-op cost below
# unbatched). See EXPERIMENTS.md for the schema.
#
# With --resize-smoke, additionally runs the elastic-memstore gates at
# minimum scale: the split-ordered/fixed-size observational-equivalence
# proptest, the live-migration workload tests (typed Migrated aborts,
# dual-read forwarding, conservation), and the migration crash points of
# the chaos matrix.
#
# With --chaos-smoke, additionally runs the deterministic chaos matrix
# (tests/chaos.rs) at minimum scale — including the fallback
# log-before-unlock crash points — and the crash+recovery plus
# durable-free read-only segments of tab6_durability, validating its
# emitted JSON (extra.recovery_ms, extra.ro_log_bytes == 0).
#
# With --membership-smoke, additionally runs the cluster-membership
# gates at minimum scale: the membership crash points of the chaos
# matrix (journaled join rollback / leave roll-forward, detector-driven
# dispatch, the serve-through-churn end-to-end), the random
# join/leave/kill interleaving proptest against the model cluster, the
# workload-level round-trip and typed routing-gate tests, and the fig12
# membership-churn segment, validating its emitted JSON
# (extra.membership_throughput_ratio >= 0.6, extra.join_ms/drain_ms
# positive).
#
# The build is fully offline: third-party deps resolve to the minimal
# vendored stubs under vendor/ via [patch.crates-io] in Cargo.toml.
set -euo pipefail
cd "$(dirname "$0")"

BENCH_SMOKE=0
CHAOS_SMOKE=0
RESIZE_SMOKE=0
MEMBERSHIP_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --chaos-smoke) CHAOS_SMOKE=1 ;;
    --resize-smoke) RESIZE_SMOKE=1 ;;
    --membership-smoke) MEMBERSHIP_SMOKE=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests (workspace superset) =="
cargo test -q --workspace

echo "== style: rustfmt =="
cargo fmt --all -- --check

echo "== lint: clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== pinned surface: benchmark package builds and passes its tests =="
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== output checks: all four benchmark workloads at 1/20 size =="
bash benchmark/run.sh --quick > /dev/null

SCRATCH_DIRS=()
cleanup() { rm -rf "${SCRATCH_DIRS[@]:-}"; }
trap cleanup EXIT

if [ "$BENCH_SMOKE" = 1 ]; then
  echo "== bench smoke: fig10d + fig12 at minimum scale =="
  SMOKE_OUT="$(mktemp -d)"
  SCRATCH_DIRS+=("$SMOKE_OUT")
  DRTM_SCALE=0.01 DRTM_BENCH_OUT="$SMOKE_OUT" \
    cargo bench -q -p drtm-bench --bench fig10d_cache_size
  DRTM_SCALE=0.01 DRTM_FIG12_SCALEOUT_NODES=16 DRTM_FIG12_SCALEOUT_WORKERS=32 \
    DRTM_BENCH_OUT="$SMOKE_OUT" \
    cargo bench -q -p drtm-bench --bench fig12_tpcc_machines
  echo "== bench smoke: validate emitted JSON + diff vs committed baselines =="
  cargo run -q --release -p drtm-bench --bin check_bench_json -- \
    --diff . "$SMOKE_OUT"/BENCH_*.json
  grep -q '"rdma_ops_per_doorbell"' "$SMOKE_OUT"/BENCH_fig12_tpcc_machines.json \
    || { echo "fig12 ledger missing rdma_ops_per_doorbell" >&2; exit 1; }
fi

if [ "$RESIZE_SMOKE" = 1 ]; then
  echo "== resize smoke: split-order observational equivalence =="
  DRTM_SCALE=0.01 cargo test -q --test proptest_stores elastic_hash_matches_cluster_hash
  echo "== resize smoke: live-migration workload (typed aborts, dual-read, conservation) =="
  DRTM_SCALE=0.01 cargo test -q -p drtm-workloads elastic
  echo "== resize smoke: migration crash points =="
  DRTM_SCALE=0.01 cargo test -q --test chaos migration
fi

if [ "$MEMBERSHIP_SMOKE" = 1 ]; then
  echo "== membership smoke: membership crash points + detector dispatch + e2e =="
  DRTM_SCALE=0.01 cargo test -q --test chaos -- \
    join_crash_points leave_mid_drain failure_detector_drives elastic_kv_serves
  echo "== membership smoke: random join/leave/kill interleavings vs model =="
  DRTM_SCALE=0.01 cargo test -q --test membership
  echo "== membership smoke: workload round-trip + typed routing gate =="
  DRTM_SCALE=0.01 cargo test -q -p drtm-workloads -- \
    join_then_leave membership_gate
  echo "== membership smoke: fig12 membership-churn segment =="
  MEM_OUT="$(mktemp -d)"
  SCRATCH_DIRS+=("$MEM_OUT")
  DRTM_SCALE=0.01 DRTM_FIG12_SCALEOUT_NODES=16 DRTM_FIG12_SCALEOUT_WORKERS=32 \
    DRTM_BENCH_OUT="$MEM_OUT" \
    cargo bench -q -p drtm-bench --bench fig12_tpcc_machines
  echo "== membership smoke: validate emitted JSON =="
  cargo run -q --release -p drtm-bench --bin check_bench_json -- \
    "$MEM_OUT"/BENCH_fig12_tpcc_machines.json
  grep -q '"membership_throughput_ratio"' "$MEM_OUT"/BENCH_fig12_tpcc_machines.json \
    || { echo "fig12 ledger missing membership_throughput_ratio" >&2; exit 1; }
fi

if [ "$CHAOS_SMOKE" = 1 ]; then
  echo "== chaos smoke: crash-point matrix at minimum scale =="
  DRTM_SCALE=0.01 cargo test -q --test chaos
  echo "== chaos smoke: fallback log-before-unlock crash points =="
  DRTM_SCALE=0.01 cargo test -q --test chaos fallback_pipeline
  echo "== chaos smoke: tab6 crash+recovery + durable-free RO segments =="
  CHAOS_OUT="$(mktemp -d)"
  SCRATCH_DIRS+=("$CHAOS_OUT")
  DRTM_SCALE=0.01 DRTM_BENCH_OUT="$CHAOS_OUT" \
    cargo bench -q -p drtm-bench --bench tab6_durability
  echo "== chaos smoke: validate emitted JSON =="
  cargo run -q --release -p drtm-bench --bin check_bench_json -- \
    "$CHAOS_OUT"/BENCH_tab6_durability.json
  grep -q '"ro_log_bytes": 0.0' "$CHAOS_OUT"/BENCH_tab6_durability.json \
    || { echo "tab6 ledger missing ro_log_bytes == 0" >&2; exit 1; }
fi

echo "CI OK"
