//! Golden path-cost test: the virtual cost of one canonical transaction
//! per protocol path, pinned to the last digit.
//!
//! Single-threaded, no softtime thread (one manual tick), fresh records
//! per path: nothing here depends on scheduling, so the numbers repeat
//! exactly. They were recorded before the commit paths were merged into
//! one pipeline and must not move under a refactor that claims "same
//! behaviour" — a changed fabric-op order, an extra CAS, a dropped
//! doorbell flush or a log write all show up as a diff.

use std::sync::Arc;

use drtm_core::{DrTm, DrTmConfig, NodeLayout, Phase, RecordAddr, SoftTimer, TxnSpec};
use drtm_htm::{vtime, Executor, HtmConfig, HtmStats};
use drtm_memstore::{Arena, ClusterHash, LookupResult};
use drtm_rdma::{AtomicityLevel, Cluster, ClusterConfig, DoorbellConfig, LatencyProfile};

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
    tables: Vec<ClusterHash>,
}

/// `glob` models a NIC with `IBV_ATOMIC_GLOB`: the fallback then locks
/// and writes back local records with CPU instructions, not loopback
/// verbs.
fn fixture(batching: bool, force_fallback: bool, glob: bool) -> Fixture {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        region_size: 8 << 20,
        profile: LatencyProfile::rdma(),
        doorbell: if batching { DoorbellConfig::default() } else { DoorbellConfig::disabled() },
        atomicity: if glob { AtomicityLevel::Glob } else { AtomicityLevel::default() },
        ..Default::default()
    });
    let mut cfg = DrTmConfig { logging: true, ..DrTmConfig::default() };
    if force_fallback {
        cfg.htm.max_retries = 0;
    }
    let mut layouts = Vec::new();
    let mut tables = Vec::new();
    for n in 0..2u16 {
        let mut arena = Arena::new(0, 8 << 20);
        layouts.push(NodeLayout::reserve(&mut arena, 1));
        let t = ClusterHash::create(&mut arena, n, 64, 256, VAL_CAP);
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        for k in 0..KEYS {
            t.insert(&exec, cluster.node(n).region(), k, &100u64.to_le_bytes()).unwrap();
        }
        tables.push(t);
    }
    // One published softtime, never advanced: leases neither expire nor
    // abort the HTM region that confirms them.
    SoftTimer::tick_now(&cluster);
    Fixture { sys: DrTm::new(cluster, cfg, layouts), tables }
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
/// fallback of a GLOB-atomics NIC (CPU CAS, CPU-store write-back), and a
/// 2-record read-only.
fn measure(batching: bool) -> [PathCost; 5] {
    let htm = fixture(batching, false, false);
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

    let fb = fixture(batching, true, false);
    let mut w = fb.sys.worker(0, 0);
    let fb_spec = TxnSpec {
        remote_writes: vec![fb.rec(1, 1)],
        remote_reads: vec![fb.rec(1, 2)],
        ..Default::default()
    };
    let fallback = fb.cost(|| w.execute(&fb_spec, remote_body).unwrap());
    assert_eq!(fb.sys.stats().snapshot().fallback_committed, 1);

    let fb = fixture(batching, true, true);
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
    [local, remote, fallback, mixed, read_only]
}

const NAMES: [&str; 5] =
    ["local_rmw", "remote_rmw", "remote_rmw_fallback", "mixed_fallback", "read_only_2"];

fn check(batching: bool, golden: [PathCost; 5]) {
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

const fn cost(
    vtime_ns: u64,
    fabric: [u64; 4],
    log: [u64; 3],
    phase_ops: [u64; 4],
    phase_ns: [u64; 4],
) -> PathCost {
    PathCost { vtime_ns, fabric, log, phase_ops, phase_ns }
}

// Recorded at the commit before the pipeline refactor (PR 11's head).
const GOLDEN_BATCHED: [PathCost; 5] = [
    cost(2_824, [0, 0, 0, 0], [1, 42, 1], [0, 0, 0, 0], [0, 280, 2_544, 0]),
    cost(18_931, [2, 3, 2, 2], [2, 84, 1], [2, 0, 1, 0], [14_036, 0, 4_895, 0]),
    cost(32_855, [4, 4, 4, 4], [3, 108, 1], [2, 0, 1, 3], [14_036, 0, 778, 18_041]),
    cost(28_273, [3, 4, 2, 4], [3, 178, 1], [1, 0, 1, 4], [9_068, 0, 778, 18_427]),
    cost(12_036, [2, 0, 2, 2], [0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]),
];
const GOLDEN_UNBATCHED: [PathCost; 5] = [
    cost(2_824, [0, 0, 0, 0], [1, 42, 1], [0, 0, 0, 0], [0, 280, 2_544, 0]),
    cost(30_481, [2, 3, 2, 7], [2, 84, 1], [2, 0, 1, 0], [20_336, 0, 10_145, 0]),
    cost(52_805, [4, 4, 4, 12], [3, 108, 1], [2, 0, 1, 3], [20_336, 0, 2_528, 29_941]),
    cost(37_723, [3, 4, 2, 9], [3, 178, 1], [1, 0, 1, 4], [11_168, 0, 2_528, 24_027]),
    cost(18_336, [2, 0, 2, 4], [0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]),
];
