//! Table 2, made observable: every local/remote read–write interleaving
//! must surface the expected [`AbortCause`] in the trace subsystem, and
//! the per-worker rings must survive wraparound and concurrent use.

use std::sync::{mpsc, Arc};
use std::thread::Scope;
use std::time::{Duration, Instant};

use drtm::memstore::{ClusterHash, LookupResult};
use drtm::rdma::{ClusterConfig, LatencyProfile, NodeId};
use drtm::txn::{
    record_ops, AbortCause, CauseSnapshot, Deployment, DrTm, DrTmConfig, LocalKey, Phase,
    RecordAddr, TxnSpec, SOFTTIME_INTERVAL,
};

const VAL_CAP: usize = 16;
const KEYS: u64 = 8;

struct Fixture {
    sys: Arc<DrTm>,
    tables: Vec<Arc<ClusterHash>>,
}

fn fixture(nodes: usize, workers: usize, cfg: DrTmConfig) -> Fixture {
    let cluster = ClusterConfig {
        nodes,
        region_size: 16 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    };
    let mut dep = Deployment::new(cluster, cfg, workers);
    let tables = dep.hash(64, 256, VAL_CAP);
    for n in dep.nodes() {
        for k in 0..KEYS {
            tables[n as usize].insert(dep.exec(), dep.region(n), k, &100u64.to_le_bytes()).unwrap();
        }
    }
    Fixture { sys: dep.start(SOFTTIME_INTERVAL), tables }
}

impl Fixture {
    /// Resolves `key`'s record on `node`.
    fn rec(&self, node: NodeId, key: u64) -> RecordAddr {
        let qp = self.sys.cluster().qp(node);
        match self.tables[node as usize].remote_lookup(&qp, key) {
            LookupResult::Found { addr, .. } => RecordAddr::new(addr, VAL_CAP),
            _ => panic!("key {key} missing on node {node}"),
        }
    }

    fn now(&self, node: NodeId) -> u64 {
        drtm::txn::softtime_nt(self.sys.cluster().node(node).region())
    }

    fn value(&self, node: NodeId, key: u64) -> u64 {
        let rec = self.rec(node, key);
        let mut b = [0u8; 8];
        self.sys.cluster().node(node).region().read_nt(rec.entry().value_off(), &mut b);
        u64::from_le_bytes(b)
    }

    /// All recorded cause kinds (ring dump), for membership assertions.
    fn kinds(&self) -> Vec<&'static str> {
        self.sys.trace_dump().events.iter().map(|e| e.cause.kind_name()).collect()
    }
}

fn u(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// How long a holder waits for the abort it exists to cause before it
/// gives up: far past any host stall, short of a hung test.
const BOUND: Duration = Duration::from_secs(10);

/// Takes a remote write lock on `rec` for machine `holder` on a thread of
/// `s`, and returns once the lock is held. The holder lets go once the
/// fixture's cause counters satisfy `caused`; after [`BOUND`] without
/// that, it lets go and fails the test.
fn hold_lock<'s>(
    s: &'s Scope<'s, '_>,
    f: &'s Fixture,
    holder: NodeId,
    rec: RecordAddr,
    caused: impl Fn(CauseSnapshot) -> bool + Send + 's,
) {
    let (held, locked) = mpsc::channel();
    s.spawn(move || {
        let qp = f.sys.cluster().qp(holder);
        record_ops::remote_lock_write(&qp, &rec, holder as u8, f.now(holder), 100, false)
            .expect("lock must be free");
        held.send(()).unwrap();
        let start = Instant::now();
        while !caused(f.sys.trace().causes()) && start.elapsed() < BOUND {
            std::thread::yield_now();
        }
        let causes = f.sys.trace().causes();
        record_ops::remote_unlock(&qp, &rec, false).unwrap();
        assert!(caused(causes), "not the abort expected within {BOUND:?}:\n{}", f.sys.trace_dump());
    });
    locked.recv().expect("the holder takes the lock");
}

// ---------------------------------------------------------------------
// Table 2 conflict matrix, one cell per test.
// ---------------------------------------------------------------------

/// L RD vs R WR: a local read under a remote exclusive lock must raise
/// the explicit `ABORT_LOCKED` code, surfaced as `htm-locked`.
#[test]
fn local_read_under_remote_lock_is_htm_locked() {
    let f = fixture(2, 2, DrTmConfig::default());
    let rec = f.rec(0, 0);
    std::thread::scope(|s| {
        hold_lock(s, &f, 1, rec, |c| c.get(AbortCause::HtmLocked) >= 1);
        let mut w = f.sys.worker(0, 0);
        let key = LocalKey { table: &f.tables[0], key: 0 };
        let mut spec = TxnSpec::default();
        let row = spec.read_key(key);
        let v = w.execute(&spec, |ctx| Ok(u(ctx.get(row)?.expect("populated")))).unwrap();
        assert_eq!(v, 100);
    });
    let dump = f.sys.trace_dump();
    assert!(f.kinds().contains(&"htm-locked"), "expected htm-locked in the trace:\n{dump}");
    assert!(f.sys.trace().causes().get(AbortCause::HtmLocked) >= 1);
}

/// L WR vs R WR: a local write under a remote exclusive lock is the same
/// `htm-locked` cell (the write checks the lock bit first).
#[test]
fn local_write_under_remote_lock_is_htm_locked() {
    let f = fixture(2, 2, DrTmConfig::default());
    let rec = f.rec(0, 1);
    std::thread::scope(|s| {
        hold_lock(s, &f, 1, rec, |c| c.get(AbortCause::HtmLocked) >= 1);
        let mut w = f.sys.worker(0, 0);
        let spec = TxnSpec { local_writes: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| ctx.local_write(0, &55u64.to_le_bytes())).unwrap();
    });
    assert_eq!(f.value(0, 1), 55);
    assert!(
        f.kinds().contains(&"htm-locked"),
        "expected htm-locked in the trace:\n{}",
        f.sys.trace_dump()
    );
}

/// L WR vs R RD: a local write under an unexpired read lease must raise
/// `ABORT_LEASED`, surfaced as `htm-leased`; the writer proceeds once
/// the lease expires.
#[test]
fn local_write_under_lease_is_htm_leased() {
    let cfg = DrTmConfig { lease_us: 3_000, ..Default::default() };
    let f = fixture(2, 1, cfg);
    let rec = f.rec(0, 2);
    let qp1 = f.sys.cluster().qp(1);
    let now = f.now(1);
    record_ops::remote_read(&qp1, &rec, now + 3_000, now, 100, false).unwrap();
    let mut w = f.sys.worker(0, 0);
    let spec = TxnSpec { local_writes: vec![rec], ..Default::default() };
    w.execute(&spec, |ctx| ctx.local_write(0, &7u64.to_le_bytes())).unwrap();
    assert_eq!(f.value(0, 2), 7);
    assert!(
        f.kinds().contains(&"htm-leased"),
        "expected htm-leased in the trace:\n{}",
        f.sys.trace_dump()
    );
}

/// R WR vs R WR: a Start-phase CAS losing to another machine's exclusive
/// lock surfaces as `start-write-locked` carrying the owner.
#[test]
fn start_lock_conflict_carries_owner() {
    let f = fixture(3, 2, DrTmConfig::default());
    let rec = f.rec(1, 3);
    std::thread::scope(|s| {
        hold_lock(s, &f, 2, rec, |c| c.get(AbortCause::StartWriteLocked { owner: 2 }) >= 1);
        let mut w = f.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| {
            let v = u(ctx.remote_write_cur(0));
            ctx.remote_write(0, (v + 1).to_le_bytes());
            Ok(())
        })
        .unwrap();
    });
    assert_eq!(f.value(1, 3), 101);
    let dump = f.sys.trace_dump();
    let ev = dump
        .events
        .iter()
        .find(|e| e.cause == AbortCause::StartWriteLocked { owner: 2 })
        .unwrap_or_else(|| panic!("expected start-write-locked(owner=2):\n{dump}"));
    assert_eq!(ev.phase, Phase::Start);
    assert_eq!(ev.record, Some(rec.addr), "the blocked record is attributed");
}

/// R WR vs R RD: a Start-phase write lock blocked by an unexpired lease
/// surfaces as `start-leased` with the lease end.
#[test]
fn start_write_blocked_by_lease_is_start_leased() {
    let f = fixture(3, 1, DrTmConfig::default());
    let rec = f.rec(1, 4);
    let qp2 = f.sys.cluster().qp(2);
    let now = f.now(2);
    let end = now + 2_000;
    record_ops::remote_read(&qp2, &rec, end, now, 100, false).unwrap();
    let mut w = f.sys.worker(0, 0);
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    w.execute(&spec, |ctx| {
        let v = u(ctx.remote_write_cur(0));
        ctx.remote_write(0, (v + 1).to_le_bytes());
        Ok(())
    })
    .unwrap();
    assert_eq!(f.value(1, 4), 101);
    let dump = f.sys.trace_dump();
    assert!(
        dump.events.iter().any(|e| e.cause == AbortCause::StartLeased { end_us: end }),
        "expected start-leased(end={end}us):\n{dump}"
    );
}

/// R RD vs R WR: a Start-phase lease acquisition bouncing off an
/// exclusive lock is the same `start-write-locked` cell.
#[test]
fn start_read_blocked_by_lock_is_start_write_locked() {
    let f = fixture(3, 2, DrTmConfig::default());
    let rec = f.rec(1, 5);
    std::thread::scope(|s| {
        hold_lock(s, &f, 2, rec, |c| c.get(AbortCause::StartWriteLocked { owner: 2 }) >= 1);
        let mut w = f.sys.worker(0, 0);
        let spec = TxnSpec { remote_reads: vec![rec], ..Default::default() };
        let v = w.execute(&spec, |ctx| Ok(u(ctx.remote_read(0)))).unwrap();
        assert_eq!(v, 100);
    });
    assert!(
        f.kinds().contains(&"start-write-locked"),
        "expected start-write-locked in the trace:\n{}",
        f.sys.trace_dump()
    );
}

/// R RD vs R RD: concurrent readers share the lease — no abort of any
/// cause may be recorded.
#[test]
fn shared_leases_record_no_aborts() {
    let f = fixture(3, 1, DrTmConfig::default());
    let rec = f.rec(1, 6);
    let qp2 = f.sys.cluster().qp(2);
    let now = f.now(2);
    record_ops::remote_read(&qp2, &rec, now + 5_000, now, 100, false).unwrap();
    let mut w = f.sys.worker(0, 0);
    let spec = TxnSpec { remote_reads: vec![rec], ..Default::default() };
    let v = w.execute(&spec, |ctx| Ok(u(ctx.remote_read(0)))).unwrap();
    assert_eq!(v, 100);
    assert_eq!(f.sys.trace().causes().total(), 0, "{}", f.sys.trace_dump());
}

/// Commit-time lease confirmation failure surfaces as
/// `lease-confirm-fail` in the Commit phase, attributed to the expired
/// record, and the transaction still commits on a later attempt.
#[test]
fn expired_confirmation_is_lease_confirm_fail() {
    // 2 ms leases; the first body outlives one.
    let cfg = DrTmConfig { lease_us: 2_000, ..Default::default() };
    let f = fixture(2, 1, cfg);
    let rec = f.rec(1, 0);
    let mut w = f.sys.worker(0, 0);
    let spec = TxnSpec { remote_reads: vec![rec], ..Default::default() };
    let mut calls = 0u32;
    let v = w
        .execute(&spec, |ctx| {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(u(ctx.remote_read(0)))
        })
        .unwrap();
    assert_eq!(v, 100);
    assert!(calls > 1, "first attempt must have been restarted");
    let dump = f.sys.trace_dump();
    let ev = dump
        .events
        .iter()
        .find(|e| e.cause == AbortCause::LeaseConfirmFail)
        .unwrap_or_else(|| panic!("expected lease-confirm-fail:\n{dump}"));
    assert_eq!(ev.phase, Phase::Commit);
    assert_eq!(ev.record, Some(rec.addr));
    assert!(f.sys.trace().causes().get(AbortCause::LeaseConfirmFail) >= 1);
}

/// The fallback handler's waiting acquisition surfaces as
/// `fallback-wait` events against the blocked record.
#[test]
fn fallback_waits_are_traced() {
    // First Start conflict goes straight to fallback.
    let cfg = DrTmConfig { start_retries: 0, ..Default::default() };
    let f = fixture(2, 2, cfg);
    let rec = f.rec(1, 7);
    std::thread::scope(|s| {
        hold_lock(s, &f, 1, rec, |c| c.get(AbortCause::FallbackWait) >= 1);
        let mut w = f.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| {
            let v = u(ctx.remote_write_cur(0));
            ctx.remote_write(0, (v + 1).to_le_bytes());
            Ok(())
        })
        .unwrap();
    });
    assert_eq!(f.value(1, 7), 101);
    assert_eq!(f.sys.stats().snapshot().fallback_committed, 1);
    let dump = f.sys.trace_dump();
    let ev = dump
        .events
        .iter()
        .find(|e| e.cause == AbortCause::FallbackWait)
        .unwrap_or_else(|| panic!("expected fallback-wait:\n{dump}"));
    assert_eq!(ev.phase, Phase::Fallback);
    assert_eq!(ev.record, Some(rec.addr));
    assert!(f.sys.trace().phases().get(Phase::Fallback).record_ops > 0);
}

/// A user abort is attributed as `user-abort` wherever it fires.
#[test]
fn user_abort_is_traced() {
    let f = fixture(2, 1, DrTmConfig::default());
    let rec = f.rec(1, 1);
    let mut w = f.sys.worker(0, 0);
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    let r: Result<(), _> =
        w.execute(&spec, |_| Err(drtm::htm::Abort::Explicit(drtm::txn::USER_ABORT)));
    assert!(r.is_err());
    assert_eq!(f.sys.trace().causes().get(AbortCause::UserAbort), 1);
    assert!(f.kinds().contains(&"user-abort"), "{}", f.sys.trace_dump());
}

// ---------------------------------------------------------------------
// Ring behaviour under load.
// ---------------------------------------------------------------------

/// A tiny ring wraps: only the most recent events are retained and the
/// dump reports how many were dropped.
#[test]
fn worker_ring_wraps_under_an_abort_storm() {
    // Tiny ring; stay in the Start loop while blocked.
    let cfg = DrTmConfig { trace_capacity: 4, start_retries: 10_000, ..Default::default() };
    let f = fixture(2, 2, cfg);
    let rec = f.rec(1, 2);
    std::thread::scope(|s| {
        // More aborts than the ring holds.
        hold_lock(s, &f, 1, rec, |c| c.total() > 4);
        let mut w = f.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| {
            let v = u(ctx.remote_write_cur(0));
            ctx.remote_write(0, (v + 1).to_le_bytes());
            Ok(())
        })
        .unwrap();
    });
    let total = f.sys.trace().causes().total();
    let dump = f.sys.trace_dump();
    assert!(total > 4, "the storm must overflow the 4-event ring (got {total})");
    assert!(dump.events.len() <= 4, "ring must cap retention:\n{dump}");
    assert_eq!(dump.dropped, total - dump.events.len() as u64);
}

/// Concurrent workers record while another thread dumps: no events are
/// torn, counters reconcile, and the committed state is exact.
#[test]
fn concurrent_workers_trace_safely_while_dumped() {
    let f = fixture(2, 2, DrTmConfig::default());
    let rec = f.rec(1, 0);
    let sys = f.sys.clone();
    std::thread::scope(|s| {
        for wid in 0..2 {
            let sys = sys.clone();
            s.spawn(move || {
                let mut w = sys.worker(0, wid);
                let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
                for _ in 0..50 {
                    w.execute(&spec, |ctx| {
                        let v = u(ctx.remote_write_cur(0));
                        ctx.remote_write(0, (v + 1).to_le_bytes());
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
        // Dump concurrently with the writers.
        for _ in 0..20 {
            let dump = sys.trace_dump();
            for e in &dump.events {
                assert!(e.cause.index() < drtm::txn::NUM_CAUSES);
                assert_eq!(e.node, 0, "only node-0 workers run");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    assert_eq!(f.value(1, 0), 200, "all 100 increments survive");
    let report = f.sys.stats_report();
    assert_eq!(report.txn.committed, 100);
    // Every Start-phase restart counted by the legacy counter has a
    // matching cause in the unified taxonomy.
    let start_causes = report.causes.get(AbortCause::StartWriteLocked { owner: 0 })
        + report.causes.get(AbortCause::StartLeased { end_us: 0 })
        + report.causes.get(AbortCause::StartAmbiguous);
    assert!(
        start_causes >= report.txn.start_conflicts,
        "unified causes must cover start conflicts: {start_causes} < {}\n{}",
        report.txn.start_conflicts,
        f.sys.trace_dump()
    );
}

/// The joined report diffs window-style across every layer at once.
#[test]
fn stats_report_diffs_a_window() {
    let f = fixture(2, 1, DrTmConfig::default());
    let rec = f.rec(1, 5);
    let mut w = f.sys.worker(0, 0);
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    let run = |w: &mut drtm::txn::Worker, n: u64| {
        for _ in 0..n {
            w.execute(&spec, |ctx| {
                let v = u(ctx.remote_write_cur(0));
                ctx.remote_write(0, (v + 1).to_le_bytes());
                Ok(())
            })
            .unwrap();
        }
    };
    run(&mut w, 3);
    let before = f.sys.stats_report();
    run(&mut w, 5);
    let window = f.sys.stats_report().since(&before);
    assert_eq!(window.txn.committed, 5);
    assert!(window.htm.commits >= 5);
    assert!(window.rdma.one_sided() > 0);
    assert!(window.phases.get(Phase::Start).record_ops >= 5);
    assert!(window.phases.get(Phase::Commit).record_ops >= 5);
    let shown = window.to_string();
    assert!(shown.contains("5 committed"), "{shown}");
    assert!(shown.contains("phase breakdown"), "{shown}");
}
