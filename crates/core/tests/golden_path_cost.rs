//! Golden path-cost test: the virtual cost of one canonical transaction
//! per protocol path, pinned to the last digit.
//!
//! Single-threaded, no softtime thread (one manual tick), fresh records
//! per path: nothing here depends on scheduling, so the numbers repeat
//! exactly. They were recorded before the commit paths were merged into
//! one pipeline and must not move under a refactor that claims "same
//! behaviour" — a changed fabric-op order, an extra CAS, a dropped
//! doorbell flush or a log write all show up as a diff. The one
//! re-pinning since, when Start and WriteBack began posting their verbs
//! and waiting once, is derived number by number at the constants.

use std::sync::Arc;

use drtm_core::{Deployment, DrTm, DrTmConfig, LocalKey, Phase, RecordAddr, TxnSpec};
use drtm_htm::vtime;
use drtm_memstore::{ClusterHash, LookupResult};
use drtm_rdma::{AtomicityLevel, ClusterConfig, DoorbellConfig, LatencyProfile};

const VAL_CAP: usize = 16;
const KEYS: u64 = 16;

/// Everything pinned for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathCost {
    vtime_ns: u64,
    /// READ, WRITE, CAS verbs and doorbells rung.
    fabric: [u64; 4],
    /// `log_writes`, `log_bytes`, `log_done_waits`.
    log: [u64; 3],
    /// Record ops per phase: start, localtx, commit, fallback.
    phase_ops: [u64; 4],
    /// Virtual ns per phase, same order.
    phase_ns: [u64; 4],
}

struct Fixture {
    sys: Arc<DrTm>,
    tables: Vec<Arc<ClusterHash>>,
}

/// `glob` models a NIC with `IBV_ATOMIC_GLOB`: the fallback then locks
/// and writes back local records with CPU instructions, not loopback
/// verbs.
fn fixture(nodes: u16, batching: bool, force_fallback: bool, glob: bool) -> Fixture {
    let cluster = ClusterConfig {
        nodes: nodes as usize,
        region_size: 8 << 20,
        profile: LatencyProfile::rdma(),
        doorbell: if batching { DoorbellConfig::default() } else { DoorbellConfig::disabled() },
        atomicity: if glob { AtomicityLevel::Glob } else { AtomicityLevel::default() },
        ..Default::default()
    };
    let mut cfg = DrTmConfig { logging: true, ..DrTmConfig::default() };
    if force_fallback {
        cfg.htm.max_retries = 0;
    }
    let mut dep = Deployment::new(cluster, cfg, 1);
    let tables = dep.hash(64, 256, VAL_CAP);
    for n in dep.nodes() {
        for k in 0..KEYS {
            tables[n as usize].insert(dep.exec(), dep.region(n), k, &100u64.to_le_bytes()).unwrap();
        }
    }
    // One published softtime, never advanced: leases neither expire nor
    // abort the HTM region that confirms them.
    Fixture { sys: dep.start_frozen(), tables }
}

impl Fixture {
    fn rec(&self, node: u16, key: u64) -> RecordAddr {
        let qp = self.sys.cluster().qp(node);
        match self.tables[node as usize].remote_lookup(&qp, key) {
            LookupResult::Found { addr, .. } => RecordAddr::new(addr, VAL_CAP),
            _ => panic!("key {key} missing on node {node}"),
        }
    }

    /// Runs `f` and returns the cost it added to every ledger.
    fn cost(&self, f: impl FnOnce()) -> PathCost {
        let before = self.sys.stats_report();
        let t0 = vtime::read();
        f();
        let vtime_ns = vtime::read() - t0;
        let d = self.sys.stats_report().since(&before);
        let line = |p| d.phases.get(p);
        let phases = [Phase::Start, Phase::LocalTx, Phase::Commit, Phase::Fallback];
        PathCost {
            vtime_ns,
            fabric: [d.rdma.reads, d.rdma.writes, d.rdma.cas, d.rdma.doorbells],
            log: [d.txn.log_writes, d.txn.log_bytes, d.txn.log_done_waits],
            phase_ops: phases.map(|p| line(p).record_ops),
            phase_ns: phases.map(|p| line(p).vtime_ns),
        }
    }
}

fn bump(v: &[u8]) -> Vec<u8> {
    (u64::from_le_bytes(v[..8].try_into().unwrap()) + 1).to_le_bytes().to_vec()
}

/// The canonical transactions, each on records nothing else touched:
/// local RMW, remote RMW (1 remote write + 1 remote read), the same
/// shape down the forced fallback, a local + remote write pair down the
/// fallback of a GLOB-atomics NIC (CPU CAS, CPU-store write-back), a
/// 2-record read-only, and — on four machines — one remote write on each
/// of the other three, whose lock, fetch and write-back chains overlap.
fn measure(batching: bool) -> [PathCost; 6] {
    let htm = fixture(2, batching, false, false);
    let mut w = htm.sys.worker(0, 0);
    // Resolve outside the measured windows: lookups are fabric READs.
    let local_spec = TxnSpec { local_writes: vec![htm.rec(0, 0)], ..Default::default() };
    let remote_spec = TxnSpec {
        remote_writes: vec![htm.rec(1, 1)],
        remote_reads: vec![htm.rec(1, 2)],
        ..Default::default()
    };
    let ro_recs = [htm.rec(1, 3), htm.rec(1, 4)];
    let local = htm.cost(|| {
        w.execute(&local_spec, |ctx| {
            let v = ctx.local_write_cur(0)?;
            ctx.local_write(0, &bump(&v))
        })
        .unwrap();
    });
    let remote_body = |ctx: &mut drtm_core::TxnCtx<'_>| {
        let _ = ctx.remote_read(0);
        let v = bump(ctx.remote_write_cur(0));
        ctx.remote_write(0, v);
        Ok(())
    };
    let remote = htm.cost(|| w.execute(&remote_spec, remote_body).unwrap());
    let read_only = htm.cost(|| {
        let got = w.read_only_records(&ro_recs);
        assert_eq!(got.len(), 2);
    });
    assert_eq!(htm.sys.stats().snapshot().fallback_committed, 0);

    let fb = fixture(2, batching, true, false);
    let mut w = fb.sys.worker(0, 0);
    let fb_spec = TxnSpec {
        remote_writes: vec![fb.rec(1, 1)],
        remote_reads: vec![fb.rec(1, 2)],
        ..Default::default()
    };
    let fallback = fb.cost(|| w.execute(&fb_spec, remote_body).unwrap());
    assert_eq!(fb.sys.stats().snapshot().fallback_committed, 1);

    let fb = fixture(2, batching, true, true);
    let mut w = fb.sys.worker(0, 0);
    let mixed_spec = TxnSpec {
        local_writes: vec![fb.rec(0, 5)],
        remote_writes: vec![fb.rec(1, 5)],
        ..Default::default()
    };
    let mixed = fb.cost(|| {
        w.execute(&mixed_spec, |ctx| {
            let v = ctx.local_write_cur(0)?;
            ctx.local_write(0, &bump(&v))?;
            let v = bump(ctx.remote_write_cur(0));
            ctx.remote_write(0, v);
            Ok(())
        })
        .unwrap();
    });
    assert_eq!(fb.sys.stats().snapshot().fallback_committed, 1);

    let wide = fixture(4, batching, false, false);
    let mut w = wide.sys.worker(0, 0);
    let wide_spec =
        TxnSpec { remote_writes: (1..4).map(|n| wide.rec(n, 1)).collect(), ..Default::default() };
    let three_way = wide.cost(|| {
        w.execute(&wide_spec, |ctx| {
            for i in 0..3 {
                let v = bump(ctx.remote_write_cur(i));
                ctx.remote_write(i, v);
            }
            Ok(())
        })
        .unwrap();
    });
    [local, remote, fallback, mixed, read_only, three_way]
}

const NAMES: [&str; 6] = [
    "local_rmw",
    "remote_rmw",
    "remote_rmw_fallback",
    "mixed_fallback",
    "read_only_2",
    "remote_3_machines",
];

fn check(batching: bool, golden: [PathCost; 6]) {
    let got = measure(batching);
    for ((name, got), want) in NAMES.iter().zip(got).zip(golden) {
        assert_eq!(got, want, "path cost of {name} moved (batching = {batching})");
    }
    // And it repeats: a second fresh measurement is identical.
    assert_eq!(measure(batching), got);
}

#[test]
fn path_costs_match_golden_batching_on() {
    check(true, GOLDEN_BATCHED);
}

#[test]
fn path_costs_match_golden_batching_off() {
    check(false, GOLDEN_UNBATCHED);
}

/// Beside the six rows, not instead of them: `local_rmw` declared by key
/// costs the address-declared row plus the walk the region now does
/// itself — one 40 ns access when the key sits in the first line of its
/// bucket (slots 0–3), two when it sits in the second — in LocalTX, and
/// still one HTM commit in all: the stand-alone region that used to
/// find the address (300 ns + the same walk) is gone, not moved.
#[test]
fn keyed_local_rmw_costs_the_address_row_plus_its_walk() {
    for (batching, by_address) in [(true, GOLDEN_BATCHED[0]), (false, GOLDEN_UNBATCHED[0])] {
        let f = fixture(2, batching, false, false);
        let table = &f.tables[0];
        // Five keys of one otherwise empty bucket, inserted in order:
        // slots 0–4, so the first is on line 0 and the fifth on line 1.
        let bucket = |k: u64| table.desc().bucket_index(k);
        assert!((0..KEYS).all(|k| bucket(k) != bucket(1_000)));
        let same: Vec<u64> = (1_000..).filter(|&k| bucket(k) == bucket(1_000)).take(5).collect();
        let region = f.sys.cluster().node(0).region();
        for &k in &same {
            table.insert(&f.sys.executor(), region, k, &100u64.to_le_bytes()).unwrap();
        }
        let mut w = f.sys.worker(0, 0);
        for (key, walk_ns) in [(same[0], 40), (same[4], 80)] {
            let spec =
                TxnSpec { keyed_writes: vec![LocalKey { table, key }], ..Default::default() };
            let commits = f.sys.htm_stats().snapshot().commits;
            let got = f.cost(|| {
                w.execute(&spec, |ctx| {
                    let v = ctx.keyed_write_cur(0)?.expect("inserted above");
                    ctx.keyed_write(0, &bump(&v))
                })
                .unwrap();
            });
            let mut want = by_address;
            want.vtime_ns += walk_ns;
            want.phase_ns[1] += walk_ns;
            assert_eq!(got, want, "keyed local_rmw, walk of {walk_ns} ns (batching = {batching})");
            assert_eq!(f.sys.htm_stats().snapshot().commits - commits, 1);
        }
    }
}

const fn cost(
    vtime_ns: u64,
    fabric: [u64; 4],
    log: [u64; 3],
    phase_ops: [u64; 4],
    phase_ns: [u64; 4],
) -> PathCost {
    PathCost { vtime_ns, fabric, log, phase_ops, phase_ns }
}

// Recorded at the commit before the pipeline refactor (PR 11's head),
// and re-pinned once: when Start and WriteBack began to post a phase's
// verbs and wait once. Every verb, log and record-op count of the five
// original rows is as recorded; so is every number of the unbatched
// table (one doorbell per op, one destination: the chain of a wave *is*
// the serial sum) and of `local_rmw` and `mixed_fallback`. What moved,
// in the batched table, all comes from one fact: a wave posts node 1's
// ops 200 ns (`post_ns`) apart instead of a completion apart, so they
// reach its doorbell inside the 8 000 ns window where the serial chain
// overran it. Costs on node 1: CAS 6 000 ringing / 1 800 riding, 48-byte
// fetch 3 168 / 1 068, 16-byte value WRITE 2 556 / 806.
//
// * `remote_rmw` Start 14 036 → 11 936 and `read_only_2` 12 036 →
//   9 936: the doorbell opens with the first CAS; serially the second
//   fetch came 8 868 ns later and rang a new one, posted it rides:
//   −2 100, and one doorbell instead of two (`read_only_2`: 2 → 1;
//   `remote_rmw` still rings a second, see Commit).
// * `remote_rmw` Commit 4 895 → 6 645: that second fetch had reopened
//   the doorbell at 10 868, just in time for the write-back's value
//   WRITE at 16 583 to ride it. Now the doorbell is the one Start opened
//   at 2 000, long closed: the value WRITE rings, +1 750 (2 556 − 806).
//   Net of the row: −350.
// * `remote_rmw_fallback`: its HTM pass is the Start above (−2 100). Its
//   release (Commit 778 → 2 528) finds the doorbell closed like the
//   write-back above and rings at 11 936: +1 750. That opens the window
//   the ordered-2PL pass then runs in: lock-ahead log to 16 464, first
//   record's CAS + fetch to 19 332, second record's CAS posted 7 396 ns
//   into the window (serially it was 8 814 ns after the 10 868
//   reopening, and rang): Fallback 18 041 → 13 841, −4 200 (6 000 −
//   1 800), and doorbells 4 → 3. Net of the row: −4 550.
//
// The sixth row is new and pins the overlap. One remote write on each
// of nodes 1–3 of four. Start: lock-ahead log 2 000, then three chains
// of CAS 6 000 + fetch (1 068 riding, 3 168 unbatched) side by side, the
// third posted 4 × 200 later: 9 868 batched, 11 968 unbatched — against
// 2 000 + 3 chains = 23 204 and 29 504 one completion at a time. Commit:
// 2 680 of log and HTM, then three chains of value + version + unlock
// (2 556 + 764 + 778 batched: every doorbell has closed; 2 556 + 2 514 +
// 2 528 unbatched), the third posted 6 × 200 later: 7 978 and 11 478,
// against 14 974 and 25 474.
const GOLDEN_BATCHED: [PathCost; 6] = [
    cost(2_824, [0, 0, 0, 0], [1, 42, 1], [0, 0, 0, 0], [0, 280, 2_544, 0]),
    cost(18_581, [2, 3, 2, 2], [2, 84, 1], [2, 0, 1, 0], [11_936, 0, 6_645, 0]),
    cost(28_305, [4, 4, 4, 3], [3, 108, 1], [2, 0, 1, 3], [11_936, 0, 2_528, 13_841]),
    cost(28_273, [3, 4, 2, 4], [3, 178, 1], [1, 0, 1, 4], [9_068, 0, 778, 18_427]),
    cost(9_936, [2, 0, 2, 1], [0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]),
    cost(17_846, [3, 9, 3, 6], [2, 224, 1], [3, 0, 3, 0], [9_868, 0, 7_978, 0]),
];
const GOLDEN_UNBATCHED: [PathCost; 6] = [
    cost(2_824, [0, 0, 0, 0], [1, 42, 1], [0, 0, 0, 0], [0, 280, 2_544, 0]),
    cost(30_481, [2, 3, 2, 7], [2, 84, 1], [2, 0, 1, 0], [20_336, 0, 10_145, 0]),
    cost(52_805, [4, 4, 4, 12], [3, 108, 1], [2, 0, 1, 3], [20_336, 0, 2_528, 29_941]),
    cost(37_723, [3, 4, 2, 9], [3, 178, 1], [1, 0, 1, 4], [11_168, 0, 2_528, 24_027]),
    cost(18_336, [2, 0, 2, 4], [0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]),
    cost(23_446, [3, 9, 3, 15], [2, 224, 1], [3, 0, 3, 0], [11_968, 0, 11_478, 0]),
];
