#!/usr/bin/env bash
# Repository CI gate. Takes no argument; works from any directory.
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
# plus a `git grep` gate that keeps TPC-C's local rows declared by key
# (DESIGN.md §2 "Commit pipeline", "Local records by key"): tpcc/txns.rs has no per-record
# stand-alone read (`read_fields`) and resolves no address but a remote
# row's, in one helper — `try_resolve(` once, `.resolve(` nowhere;
# smallbank.rs and micro.rs likewise push to no `local_writes` /
# `local_reads`, lease no local record (`try_read_only_records`) and
# resolve an address in one remote-only helper each. The behavioural
# gate, regions per transaction type, is a tier-1 test per workload.
# plus a `git grep` gate that keeps failure state written once (DESIGN.md
# §8 "Failure model"): the fabric's FaultPlan owns dead / retired / armed
# crash sites, so none of the deleted second copies by name — the
# worker-local crash point, the detector's own kill/revive and its
# registration with the membership coordinator — and one monitor thread
# in core/src/failure.rs; and the deleted criterion micro bench, whose
# rows are `*.probe.*_host_ns` metrics of the repo benchmark
# plus a `git grep` gate that keeps one-value settings constants (DESIGN.md
# §4 "Virtual-time calibration"): none of the fourteen deleted config
# fields, parameters and environment reads by name (`delta_us` in field
# form only), no FAA verb, no IPoIB profile, no `Backoff` deadline and
# no `too_many_arguments` allowance
# plus a `git grep` gate that keeps the elastic world on the paper's
# table and cache (DESIGN.md §9): none of the deleted address cache,
# table-kind fork, resize counters, cache registry and bucket settings by
# name, and `ElasticHash` nowhere but split_ordered.rs and its export
# plus `cargo run --release --example crash_recovery`, which must end in
# `all crash/recovery scenarios passed`
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
# plus the figure ledger (EXPERIMENTS.md "Machine-readable baselines"):
# the seven ledgered harnesses at their committed operation counts, about
# 35 s, each holding its own invariants by `assert!`; then check_ledger,
# which fails on any row of target/ledger/ outside the band its
# committed row under ledger/ carries, on a row on one side only and on
# a differing operation count; then the gate's own self-test (a copy of
# ledger/ with one gated row pushed out by twice its band must fail);
# then a `git grep` gate that keeps the ledger written once: the parent
# schema's names stay gone, and ledger.rs / check_ledger.rs name no
# figure, no segment and no invariant.
#
# The build is fully offline: third-party deps resolve to the minimal
# vendored stubs under vendor/ via [patch.crates-io] in Cargo.toml.
set -euo pipefail
cd "$(dirname "$0")"

[ $# -eq 0 ] || { echo "ci.sh takes no argument" >&2; exit 2; }

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

echo "== by key: no workload resolves a local row to an address =="
# A `resolve` back in a transaction is a stand-alone region per key
# again: 36 regions per operation where the mix needs 3.
TXNS=crates/workloads/src/tpcc/txns.rs
if git grep -n --untracked 'read_fields\|\.resolve(' -- "$TXNS"; then
  echo "tpcc/txns.rs reads or resolves a local row outside a region: declare it by key" >&2
  exit 1
fi
[ "$(git grep -c --untracked 'try_resolve(' -- "$TXNS" | cut -d: -f2)" = 1 ] \
  || { echo "$TXNS must call try_resolve once: in the remote-row helper" >&2; exit 1; }

for f in crates/workloads/src/smallbank.rs crates/workloads/src/micro.rs; do
  # Neither takes a lease on a local record: `balance` is two keyed reads
  # in one region, where 2 ms leases on hot accounts cost a factor of ten.
  if git grep -n --untracked 'local_writes\|local_reads\|try_read_only_records' -- "$f"; then
    echo "$f declares a local record by address or leases it: declare it by key" >&2
    exit 1
  fi
  [ "$(git grep -c --untracked 'try_resolve(\|\.resolve(' -- "$f" | cut -d: -f2)" = 1 ] \
    || { echo "$f must resolve an address once: in the remote-record helper" >&2; exit 1; }
done

echo "== written once: the fault plan owns who is dead and where a crash fires =="
# A liveness bit or a crash knob beside drtm_rdma::FaultPlan has forked
# DESIGN.md §8 "Failure model"; a second thread in failure.rs is a
# beater with state of its own again.
if git grep -n --untracked -e '\bcrash_point\b' -e 'set_crash_point' -e 'set_detector' \
  -e 'start_with_capacity' -e 'fd\.kill' -e 'fd\.revive' -e 'primitives_criterion' \
  -- crates tests examples; then
  echo "a deleted second copy of failure state (or the criterion bench) is back" >&2
  exit 1
fi
[ "$(git grep -c --untracked 'thread::Builder' -- crates/core/src/failure.rs | cut -d: -f2)" = 1 ] \
  || { echo "crates/core/src/failure.rs must spawn exactly one thread (the monitor)" >&2; exit 1; }

echo "== one value, one constant: the deleted settings, verbs and escape hatches stay gone =="
# A cost that only ever took one value is a constant beside its
# derivation (DESIGN.md §4's table), not a field or an environment read;
# the fabric has the paper's three one-sided verbs and one profile.
# delta_us stays as the lease predicates' argument, so only its field
# form is matched. benchmark/ is frozen (its README names DRTM_OS_THREADS).
if git grep -n -w --untracked \
  -e cost_access_ns -e cost_commit_ns -e ro_lease_us -e nvram_write_ns \
  -e epoch_us -e seq_ns_per_txn -e lock_ns -e op_ns -e msg_ns \
  -e table_idx -e barrier_key -e DRTM_OS_THREADS -e too_many_arguments \
  -e faa -e faa_u64 -e try_faa_u64 -e faa_u64_nt -e ipoib -e with_deadline \
  -- crates tests examples src; then
  echo "a deleted one-value setting, the FAA verb or the IPoIB profile is back: use the constant" >&2
  exit 1
fi
if git grep -n --untracked -E -e '\.delta_us([^A-Za-z0-9_]|$)' -e 'delta_us: *[^u ]' \
  -- crates tests examples src; then
  echo "delta_us is a field again: the protocol's δ is drtm_core::DELTA_US" >&2
  exit 1
fi

echo "== one table, one cache: the elastic world runs on ClusterHash + LocationCache =="
# A second address cache, a store service that forks on the table kind,
# a resize counter set or a cache registry in the resharder has forked
# DESIGN.md §9 again: a migration tells no cache anything, because a
# purged key fails its incarnation check (§5.3). The split-ordered table
# stays only for the repo benchmark's probes (benchmark/src is exempt).
if git grep -n -w --untracked \
  -e AddrCache -e AnyTable -e ElasticStats -e invalidate_range -e note_forced_miss \
  -e register_cache -e init_buckets -e max_buckets -e migration_invalidations \
  -e forced_misses -- crates tests examples; then
  echo "a deleted elastic-only twin is back: use ClusterHash and LocationCache" >&2
  exit 1
fi
if git grep -n -w --untracked ElasticHash -- crates tests examples \
  | grep -v '^crates/memstore/src/\(split_ordered\|lib\)\.rs:'; then
  echo "ElasticHash used outside split_ordered.rs: the elastic world runs on ClusterHash" >&2
  exit 1
fi

echo "== example: crash_recovery arms the fault plan and recovers every scenario =="
[ "$(cargo run -q --release --example crash_recovery | tail -n 1)" \
  = 'all crash/recovery scenarios passed' ] \
  || { echo "crash_recovery did not reach its last line" >&2; exit 1; }

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

echo "== figure ledger: seven harnesses at their committed operation counts =="
# DRTM_SCALE would change every leg's operation count, which the check
# below reports row by row; unset, a stray value cannot do that.
rm -rf target/ledger
for bench in fig10d_cache_size fig12_tpcc_machines fig15_smallbank \
  fig16_cross_warehouse fig17_read_lease tab6_durability ablate_capacity; do
  env -u DRTM_SCALE cargo bench -q -p drtm-bench --bench "$bench" > /dev/null
done

echo "== figure ledger: every gated row within the band of its committed row =="
cargo run -q --release -p drtm-bench --bin check_ledger -- ledger target/ledger

echo "== figure ledger: the gate can fail =="
# The same fresh run against a copy of ledger/ in which the first row
# with a fractional band has its committed value moved by twice that
# band: check_ledger must exit non-zero and name the row.
PERTURBED="$(mktemp -d)"
trap 'rm -rf "$PERTURBED"' EXIT
cp ledger/BENCH_*.json "$PERTURBED"/
VICTIM="$(grep -l '"band": 0\.[0-9]' "$PERTURBED"/BENCH_*.json | head -1)"
awk 'BEGIN { done = 0 }
  !done && match($0, /"measured": [^,]+, "band": 0\.[0-9]+/) {
    split(substr($0, RSTART, RLENGTH), kv, /[:,] /)
    moved = kv[2] * (1 + 2 * kv[4])
    sub(/"measured": [^,]+/, "\"measured\": " moved)
    done = 1
  }
  { print }' "$VICTIM" > "$VICTIM.moved"
mv "$VICTIM.moved" "$VICTIM"
if cargo run -q --release -p drtm-bench --bin check_ledger -- "$PERTURBED" target/ledger \
  > "$PERTURBED/out"; then
  echo "check_ledger passed a committed row moved by twice its band" >&2
  exit 1
fi
[ "$(grep -c '^FAILED' "$PERTURBED/out")" = 1 ] \
  || { echo "the moved row should be the one failure:" >&2; cat "$PERTURBED/out" >&2; exit 1; }

echo "== written once: one row type, one writer, one figure-agnostic check =="
# The parent ledger's schema, options and per-harness key rules by name,
# and any figure, segment or invariant named inside the ledger itself.
if git grep -n --untracked \
  'bench-smoke\|check_bench_json\|DRTM_BENCH_OUT\|DRTM_FIG12_\|schema_version\|push_extra' \
  -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!ci.sh'; then
  echo "a name of the deleted schema-v1 ledger is back: see crates/bench/src/ledger.rs" >&2
  exit 1
fi
if git grep -n --untracked 'fig1\|tab6\|membership\|resize\|doorbell\|ro_log' \
  -- crates/bench/src/ledger.rs crates/bench/src/bin/check_ledger.rs; then
  echo "the ledger knows a figure: what is compared is the committed rows' band" >&2
  exit 1
fi

echo "CI OK"
