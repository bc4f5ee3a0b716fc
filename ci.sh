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
# service threads spawned in rdma/src/rpc.rs and htm/src/clock.rs only,
# and none of the deleted request/reply twins by name
# plus a `git grep` gate that keeps TPC-C's local rows declared by key
# (DESIGN.md §2 "Commit pipeline", "Local records by key"): tpcc/txns.rs has no per-record
# stand-alone read (`read_fields`) and resolves no address but a remote
# row's, in one helper — `try_resolve(` once, `.resolve(` nowhere;
# smallbank.rs and micro.rs likewise push to no `local_writes` /
# `local_reads`, lease no local record (`try_read_only_records`) and
# resolve an address in one remote-only helper each. The behavioural
# gate, regions per transaction type, is a tier-1 test per workload.
# plus a `git grep` gate that keeps one slot table per transaction
# (DESIGN.md §2 "Commit pipeline"): no local read declared by address
# (`local_reads`, `TxnCtx::local_read`; Figure 6's `record::local_read`
# verb stays) and none of txn.rs's deleted parallel structures — the
# lock-order list enum, `LockSet`, `Found`, `Keyed`, `declared` — nor
# ordered 2PL's rewritten `TxnSpec<'static>`
# plus a `git grep` gate that keeps failure state written once (DESIGN.md
# §8 "Failure model"): the fabric's FaultPlan owns dead / retired / armed
# crash sites, so none of the deleted second copies by name — the
# worker-local crash point, the detector's own kill/revive and its
# registration with the membership coordinator — and one monitor in
# core/src/failure.rs (no thread of its own: one `clock::every` call);
# and the deleted criterion micro bench, whose rows are
# `*.probe.*_host_ns` metrics of the repo benchmark
# plus a wall-clock gate (DESIGN.md §2 "One wall clock"): non-test
# library code (crates/*/src, each file up to its first #[cfg(test)])
# reads, waits on and ticks wall time in crates/htm/src/clock.rs only —
# no `Instant::now`, `thread::sleep`, `SystemTime` or `wait_timeout`
# elsewhere — and the deleted `wall_now_us` and `coop::` stay gone; then
# the gate's self-test: a scratch file under target/ with a sleep above
# its #[cfg(test)] must fail it, the same sleep below must pass
# plus a no-unsafe gate (DESIGN.md §2 "Concurrency of the simulation
# substrate"): every library crate root (crates/*/src/lib.rs and the
# umbrella src/lib.rs) carries `#![forbid(unsafe_code)]`; then the gate's
# self-test: a copy of a lib.rs under target/ without the attribute must
# fail it
# plus an entry-image gate (DESIGN.md §2, memstore's "one remote entry
# accessor"): non-test code (crates/*/src, crates/*/benches, examples and
# src, each file up to its first #[cfg(test)]) names ENTRY_HEADER_BYTES
# and calls EntryHeader::decode in crates/memstore/src/entry.rs only, so
# the image's layout and its value → version store order are written
# once (split_ordered.rs is exempt until it is deleted); then the gate's
# self-test: a scratch file under target/ with such a line above its
# #[cfg(test)] must fail it, the same line below must pass
# plus a `git grep` gate that keeps one-value settings constants (DESIGN.md
# §4 "Virtual-time calibration"): none of the fourteen deleted config
# fields, parameters and environment reads by name (`delta_us` in field
# form only), no FAA verb, no IPoIB profile, no `Backoff` deadline and
# no `too_many_arguments` allowance
# plus a `git grep` gate that keeps the elastic world on the paper's
# table and cache (DESIGN.md §9): none of the deleted address cache,
# table-kind fork, resize counters, cache registry and bucket settings by
# name, and `ElasticHash` nowhere but split_ordered.rs and its export
# plus a `git grep` gate that keeps one TPC-C for both systems of Figure
# 12 (DESIGN.md §1): the Calvin baseline runs on tpcc's sizing, rows and
# requests, so none of its deleted twins by name — the Calvin sizing
# struct, its request enum and its mix generator — nor the resharder's
# deleted counter set
# plus a `git grep` gate that keeps one thread-shard index (DESIGN.md §2
# "Counters"): `shard_id` and `NSHARDS` are defined in
# crates/htm/src/counters.rs only, and no other `thread_local!`
# enumerates threads with a `fetch_add`
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
# claims, and `prof.sh`, the sampling profiler, are only syntax-checked
# (`bash -n`).
# plus the figure ledger (EXPERIMENTS.md "Machine-readable baselines"):
# a gate that every `[[bench]]` of crates/bench/Cargo.toml has a committed
# ledger/BENCH_<name>.json and every such file a `[[bench]]`, with its
# self-test (a probe manifest under target/ with one more `[[bench]]`
# must fail it); then every harness that manifest names, at its committed
# operation counts, about 70 s, each holding its own invariants by
# `assert!`; then check_ledger,
# which fails on any row of target/ledger/ outside the band its
# committed row under ledger/ carries, on a row on one side only and on
# a differing operation count; then the gate's own two self-tests (a
# copy of ledger/ with one gated row pushed out by twice its band must
# fail, and one with a `band: 0` row moved by one part in 10^6 must fail
# on exactly that row);
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
  echo "HTM outcomes counted outside Executor::run / Pipeline::run" >&2
  exit 1
fi
if git grep -n --untracked 'thread::Builder' -- 'crates/*/src/*' \
  | grep -v '^crates/rdma/src/rpc\.rs:\|^crates/htm/src/clock\.rs:'; then
  echo "a thread outside drtm_rdma::rpc::serve and drtm_htm::clock::every" >&2
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

echo "== one slot table: every declared record of a transaction in one place =="
# A second copy of the declared records beside txn.rs's slot table has
# forked DESIGN.md §2 "Commit pipeline": every phase walks that one
# table, in the order the write-ahead log records.
if git grep -n -w --untracked -e local_reads -e local_read -- crates tests examples src \
  | grep -v -e '^crates/core/src/record\.rs:' -e '^crates/core/src/lib\.rs:[0-9]*: *local_read, ' \
    -e 'record::local_read(' -e 'ops::local_read('; then
  echo "a local record read by address is back: declare it by key (TxnSpec::keyed_reads)" >&2
  exit 1
fi
if git grep -n --untracked -E -e 'enum List\b' -e 'struct LockSet\b' -e 'enum Found\b' \
  -e 'type Keyed\b' -e 'fn declared\b' -e "TxnSpec<'static>" -- crates/core/src/txn.rs; then
  echo "crates/core/src/txn.rs keeps declared records outside its one slot table" >&2
  exit 1
fi

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
if git grep -n --untracked 'thread::Builder' -- crates/core/src/failure.rs; then
  echo "crates/core/src/failure.rs spawns a thread of its own: the monitor is clock::every" >&2
  exit 1
fi
[ "$(git grep -c --untracked 'every(' -- crates/core/src/failure.rs | cut -d: -f2)" = 1 ] \
  || { echo "crates/core/src/failure.rs must call every( exactly once (the monitor)" >&2; exit 1; }

echo "== one wall clock: wall time is read, waited on and ticked in drtm_htm::clock only =="
# A wall-clock read or wait elsewhere in library code is a second clock
# that a virtual cluster clock would have to find and replace too.
# Prints each non-test line of the given files (a file is read up to its
# first #[cfg(test)]) that uses wall time, and fails if there is one.
wall_clock_gate() {
  local hits
  hits="$(awk 'FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /Instant::now|thread::sleep|SystemTime|wait_timeout/ { print FILENAME ":" FNR ": " $0 }' \
    "$@")" || return 2
  [ -z "$hits" ] || { echo "$hits" >&2; return 1; }
}
mapfile -t LIB_RS < <(git ls-files -co --exclude-standard -- 'crates/*/src/*.rs' \
  | grep -v '^crates/htm/src/clock\.rs$')
wall_clock_gate "${LIB_RS[@]}" \
  || { echo "wall time used outside drtm_htm::clock: call clock::{now_us, wait, every}" >&2; exit 1; }
if git grep -n --untracked -e wall_now_us -e 'coop::' -- crates tests examples src; then
  echo "a deleted second clock (wall_now_us, drtm_htm::coop) is back: use drtm_htm::clock" >&2
  exit 1
fi

echo "== one wall clock: the gate can fail =="
PROBE=target/wall_clock_gate_probe.rs
printf 'fn f() {\n    std::thread::sleep(d);\n}\n#[cfg(test)]\nmod tests {}\n' > "$PROBE"
if wall_clock_gate "$PROBE" 2>/dev/null; then
  echo "the wall-clock gate passed a sleep above #[cfg(test)]" >&2
  exit 1
fi
printf '#[cfg(test)]\nmod tests {\n    fn f() {\n        std::thread::sleep(d);\n    }\n}\n' > "$PROBE"
wall_clock_gate "$PROBE" \
  || { echo "the wall-clock gate failed a sleep below #[cfg(test)]" >&2; exit 1; }
rm "$PROBE"

echo "== no unsafe: every library crate forbids unsafe_code =="
# The region's bytes are atomic words behind one seqlock, so no library
# code needs `unsafe`; a crate root without the attribute lets it back.
# Prints each given crate root that lacks the attribute line (or is
# missing), and fails if there is one.
forbid_unsafe_gate() {
  local root status=0
  for root in "$@"; do
    grep -q -x '#!\[forbid(unsafe_code)\]' "$root" 2>/dev/null || { echo "$root" >&2; status=1; }
  done
  return "$status"
}
forbid_unsafe_gate crates/*/src/lib.rs src/lib.rs \
  || { echo "a library crate root without #![forbid(unsafe_code)]" >&2; exit 1; }

echo "== no unsafe: the gate can fail =="
PROBE=target/forbid_unsafe_gate_probe.rs
grep -v -x '#!\[forbid(unsafe_code)\]' crates/htm/src/lib.rs > "$PROBE"
if forbid_unsafe_gate "$PROBE" 2>/dev/null; then
  echo "the no-unsafe gate passed a crate root without the attribute" >&2
  exit 1
fi
rm "$PROBE"

echo "== one entry image: memstore::entry alone lays out and parses an entry's bytes =="
# A header size or a header decode elsewhere is a second copy of the
# image, free to drift from the one store order recovery relies on.
# Prints each non-test line of the given files (a file is read up to its
# first #[cfg(test)]) that does either, and fails if there is one.
entry_image_gate() {
  local hits
  hits="$(awk 'FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /ENTRY_HEADER_BYTES|EntryHeader::decode/ { print FILENAME ":" FNR ": " $0 }' \
    "$@")" || return 2
  [ -z "$hits" ] || { echo "$hits" >&2; return 1; }
}
mapfile -t NON_TEST_RS < <(git ls-files -co --exclude-standard -- \
  'crates/*/src/*.rs' 'crates/*/benches/*.rs' 'examples/*.rs' 'src/*.rs' \
  | grep -v '^crates/memstore/src/\(entry\|split_ordered\)\.rs$')
entry_image_gate "${NON_TEST_RS[@]}" \
  || { echo "an entry image laid out outside memstore::entry: use Entry::{image_len, parse, store_value, init_nt}" >&2; exit 1; }

echo "== one entry image: the gate can fail =="
PROBE=target/entry_image_gate_probe.rs
printf 'fn f(b: &[u8]) {\n    EntryHeader::decode(b);\n}\n#[cfg(test)]\nmod tests {}\n' > "$PROBE"
if entry_image_gate "$PROBE" 2>/dev/null; then
  echo "the entry-image gate passed a header decode above #[cfg(test)]" >&2
  exit 1
fi
printf '#[cfg(test)]\nmod tests {\n    fn f(b: &[u8]) {\n        EntryHeader::decode(b);\n    }\n}\n' > "$PROBE"
entry_image_gate "$PROBE" \
  || { echo "the entry-image gate failed a header decode below #[cfg(test)]" >&2; exit 1; }
rm "$PROBE"

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

echo "== one TPC-C: Calvin runs on tpcc's TpccConfig, seed rows and StdMix requests =="
# A sizing struct, a request type or a mix generator of Calvin's own lets
# the two systems of Figure 12 run different inputs again.
if git grep -n -w --untracked \
  -e CalvinConfig -e CalvinTxn -e calvin_mix -e ReshardStats -- crates tests examples src; then
  echo "a deleted second copy of TPC-C (or ReshardStats) is back: use drtm_workloads::tpcc" >&2
  exit 1
fi

echo "== one thread-shard index: threads enumerate themselves in drtm_htm::counters only =="
# The counters and the entry pools' free lists shard by the same index;
# a second enumeration (the free list had its own) lets two structures
# disagree again on which threads share a shard.
if git grep -n --untracked -E 'fn shard_id\b|const NSHARDS\b' -- crates tests examples src \
  | grep -v '^crates/htm/src/counters\.rs:'; then
  echo "a second thread-shard index: use drtm_htm::counters::{shard_id, NSHARDS}" >&2
  exit 1
fi
if git grep -n --untracked -A3 'thread_local!' -- crates tests examples src \
  | grep 'fetch_add' | grep -v '^crates/htm/src/counters\.rs[-:]'; then
  echo "a thread_local! enumerates threads outside drtm_htm::counters::shard_id" >&2
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

echo "== tooling: ab.sh, ledger_tally.sh and prof.sh parse =="
# The paired A/B runner takes ten minutes per workload and two prebuilt
# binaries, the ledger tally a minute per run of every harness, and the
# profiler its own frame-pointer build, so CI only checks that they are
# still shell scripts.
bash -n ab.sh
bash -n ledger_tally.sh
bash -n prof.sh

echo "== figure ledger: one committed ledger per harness, one harness per ledger =="
# A harness without a committed ledger reports numbers nothing checks; a
# ledger without a harness is a baseline nothing reproduces.
# Prints the `[[bench]]` names of a manifest, one a line, sorted.
bench_names() {
  awk '/^\[\[bench\]\]/ { b = 1; next }
    b && /^name *=/ { gsub(/^name *= *"|"$/, ""); print; b = 0 }' "$1" | sort
}
# Fails, naming them, on a `[[bench]]` of manifest $1 with no BENCH_<name>.json
# in directory $2 and on a BENCH_<name>.json there with no `[[bench]]`.
bench_ledger_gate() {
  local benches ledgers unledgered orphaned
  benches="$(bench_names "$1")"
  ledgers="$(find "$2" -maxdepth 1 -name 'BENCH_*.json' -printf '%f\n' \
    | sed 's/^BENCH_//; s/\.json$//' | sort)"
  unledgered="$(comm -23 <(echo "$benches") <(echo "$ledgers"))"
  orphaned="$(comm -13 <(echo "$benches") <(echo "$ledgers"))"
  [ -z "$unledgered" ] || echo "[[bench]] with no $2/BENCH_<name>.json:" $unledgered >&2
  [ -z "$orphaned" ] || echo "$2/BENCH_<name>.json with no [[bench]]:" $orphaned >&2
  [ -z "$unledgered$orphaned" ]
}
bench_ledger_gate crates/bench/Cargo.toml ledger \
  || { echo "every harness reports through a committed ledger (crates/bench/src/ledger.rs)" >&2; exit 1; }

echo "== figure ledger: the harness gate can fail =="
PROBE=target/bench_ledger_gate_probe.toml
{ cat crates/bench/Cargo.toml; printf '\n[[bench]]\nname = "gate_probe"\nharness = false\n'; } > "$PROBE"
if bench_ledger_gate "$PROBE" ledger 2>/dev/null; then
  echo "the harness gate passed a [[bench]] with no committed ledger" >&2
  exit 1
fi
rm "$PROBE"

echo "== figure ledger: every harness at its committed operation counts =="
# DRTM_SCALE would change every leg's operation count, which the check
# below reports row by row; unset, a stray value cannot do that.
rm -rf target/ledger
for bench in $(bench_names crates/bench/Cargo.toml); do
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

echo "== figure ledger: a band-0 row fails on one part in a million =="
# A fresh copy of ledger/ in which the first `band: 0` row with a
# non-zero value has it moved by one part in 10^6: a deterministic row
# gates on equality, so check_ledger must fail on that row and no other.
EXACT="$PERTURBED/exact"
mkdir "$EXACT"
cp ledger/BENCH_*.json "$EXACT"/
NONZERO='"measured": [^0,][^,]*, "band": 0[,}]'
VICTIM="$(grep -l "$NONZERO" "$EXACT"/BENCH_*.json | head -1)"
awk -v pattern="$NONZERO" -v named="$EXACT/point" 'BEGIN { done = 0 }
  !done && match($0, pattern) {
    split(substr($0, RSTART, RLENGTH), kv, /[:,] /)
    sub(/"measured": [^,]+/, "\"measured\": " sprintf("%.17g", kv[2] * (1 + 1e-6)))
    point = $0
    sub(/.*"point": "/, "", point)
    sub(/".*/, "", point)
    print point > named
    done = 1
  }
  { print }' "$VICTIM" > "$VICTIM.moved"
mv "$VICTIM.moved" "$VICTIM"
if cargo run -q --release -p drtm-bench --bin check_ledger -- "$EXACT" target/ledger \
  > "$EXACT/out"; then
  echo "check_ledger passed a band-0 row moved by one part in 10^6" >&2
  exit 1
fi
[ "$(grep -c '^FAILED' "$EXACT/out")" = 1 ] && grep '^FAILED' "$EXACT/out" | grep -qF "$(cat "$EXACT/point"):" \
  || { echo "the moved band-0 row should be the one failure:" >&2; cat "$EXACT/out" >&2; exit 1; }

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
