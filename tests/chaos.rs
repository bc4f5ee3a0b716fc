//! Deterministic chaos harness: fault injection in the RDMA fabric plus
//! a crash-point × outcome recovery matrix.
//!
//! Every test drives failures through the cluster's [`FaultPlan`] — a
//! seeded, replayable source of crashes, delays, drops and duplicates —
//! and then checks the paper's §4.6 recovery story end to end: committed
//! transactions are redone exactly once, uncommitted ones are rolled
//! back, no exclusive lock outlives its owner, and no RDMA operation
//! against a corpse ever hangs or returns stale bytes.
//!
//! `DRTM_SCALE` (a float, default 1.0) scales the end-to-end iteration
//! counts for a cheap local pass; `ci.sh` sets nothing, so tier-1 runs
//! the matrix at full scale.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drtm::rdma::rpc::{DEAD_PEER_GRACE, RPC_MID_REQUEST_SITE};
use drtm::rdma::{
    Cluster, ClusterConfig, DoorbellConfig, FabricError, FaultConfig, GlobalAddr, LatencyProfile,
};
use drtm::txn::{
    recover_node, CrashPoint, Deployment, DrTm, DrTmConfig, FailureDetector, LockState,
    MembershipError, MembershipRecovery, NodeState, RecoveryDirection, RecoveryReport, TxnError,
    TxnSpec, SOFTTIME_INTERVAL,
};
use drtm::workloads::elastic::{ElasticKv, ElasticKvConfig, INIT_VALUE};
use drtm::workloads::resolve::Table;
use drtm::workloads::smallbank::{SmallBank, SmallBankConfig, INIT_BALANCE};
use drtm::workloads::tpcc::{Tpcc, TpccConfig};

/// Iteration scale factor from the environment (hand-parsed: the test
/// binary must not depend on the bench crate).
fn scale() -> f64 {
    std::env::var("DRTM_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

fn scaled(base: usize, min: usize) -> usize {
    ((base as f64 * scale()) as usize).max(min)
}

// ---------------------------------------------------------------------
// Fixture: 3 machines, 8 pre-populated accounts each (value 100).
// ---------------------------------------------------------------------

struct Fixture {
    sys: Arc<DrTm>,
    accounts: Arc<Table>,
    /// `recs[node][key]`, resolved while everything was still alive, so
    /// invariant checks never need the (possibly dead) fabric.
    recs: Vec<Vec<drtm::txn::RecordAddr>>,
}

fn fixture(faults: FaultConfig, htm_retries: Option<u32>) -> Fixture {
    // The default ClusterConfig has doorbell batching ON, so the whole
    // crash matrix below exercises recovery with batching enabled.
    fixture_with_doorbell(faults, htm_retries, DoorbellConfig::default())
}

fn fixture_with_doorbell(
    faults: FaultConfig,
    htm_retries: Option<u32>,
    doorbell: DoorbellConfig,
) -> Fixture {
    let mut cfg = DrTmConfig { logging: true, ..Default::default() };
    if let Some(r) = htm_retries {
        cfg.htm.max_retries = r;
    }
    let cluster = ClusterConfig {
        nodes: 3,
        region_size: 8 << 20,
        profile: LatencyProfile::zero(),
        faults,
        doorbell,
        ..Default::default()
    };
    // Population runs on stock HTM parameters: forcing the *transaction
    // layer* into its fallback (htm.max_retries = 0) does not starve it.
    let mut dep = Deployment::new(cluster, cfg, 2);
    let shards = dep.hash(64, 100, 8);
    for n in dep.nodes() {
        for k in 0..8u64 {
            shards[n as usize].insert(dep.exec(), dep.region(n), k, &100u64.to_le_bytes()).unwrap();
        }
    }
    let sys = dep.start(SOFTTIME_INTERVAL);
    let accounts = Arc::new(Table::new(shards));
    let w = sys.worker(0, 0);
    let recs = (0..3u16)
        .map(|n| (0..8u64).map(|k| accounts.resolve(&w, n, k).unwrap()).collect())
        .collect();
    Fixture { sys, accounts, recs }
}

/// Reads `key`'s value on `node` directly from the (durable) region —
/// valid whatever the fault plan says: addresses were resolved before
/// any crash, and the region itself models NVRAM.
fn value(f: &Fixture, node: u16, key: u64) -> u64 {
    let rec = &f.recs[node as usize][key as usize];
    let mut b = [0u8; 8];
    f.sys.cluster().node(node).region().read_nt(rec.entry().value_off(), &mut b);
    u64::from_le_bytes(b)
}

fn state(f: &Fixture, node: u16, key: u64) -> LockState {
    let rec = &f.recs[node as usize][key as usize];
    LockState(f.sys.cluster().node(node).region().read_u64_nt(rec.addr.offset))
}

/// Asserts that no record anywhere in the cluster is still exclusively
/// locked — the "zero leaked locks" invariant of every chaos run.
fn assert_no_leaked_locks(f: &Fixture) {
    for n in 0..3u16 {
        for k in 0..8u64 {
            let st = state(f, n, k);
            assert!(!st.is_write_locked(), "leaked exclusive lock on node {n} key {k}: {st:?}");
        }
    }
}

/// The exact recovery report each crash point must produce for the
/// canonical two-remote-write transaction (machine 0 updating one
/// record on machine 1 and one on machine 2).
fn expected_report(p: CrashPoint) -> RecoveryReport {
    let mut r = RecoveryReport::default();
    match p {
        // Logged intent only; no remote lock taken yet.
        CrashPoint::AfterLockAhead | CrashPoint::FallbackAfterLockAhead => r.rolled_back_txns = 1,
        // Both remote locks held, nothing committed: release both.
        CrashPoint::AfterRemoteLocks | CrashPoint::BeforeHtmCommit => {
            r.rolled_back_txns = 1;
            r.released_locks = 2;
        }
        // Fallback, 2PL locks held, WAL not yet staged: roll back and
        // release both locks — values untouched.
        CrashPoint::FallbackBeforeWal => {
            r.rolled_back_txns = 1;
            r.released_locks = 2;
        }
        // Committed, nothing written back: redo both updates.
        CrashPoint::AfterHtmCommit | CrashPoint::FallbackAfterWalBeforeApply => {
            r.redone_txns = 1;
            r.redone_updates = 2;
        }
        // One update landed before the crash: redo one, skip one.
        CrashPoint::MidWriteBack | CrashPoint::FallbackMidUnlock => {
            r.redone_txns = 1;
            r.redone_updates = 1;
            r.skipped_updates = 1;
        }
        // Everything landed; only the log-done was lost: skip both.
        CrashPoint::AfterWriteBacks => {
            r.redone_txns = 1;
            r.skipped_updates = 2;
        }
        // Migration points never reach the per-transaction log slots:
        // both crash sites fire before any purge lock is journaled, so
        // the log sweep finds nothing (the migration matrix below
        // checks range-level rollback separately).
        CrashPoint::MigrateMidCopy | CrashPoint::MigrateBeforeCutover => {}
        // Membership points fire inside the coordinator's join/leave
        // protocols, not inside a transaction, so the log sweep likewise
        // finds nothing (the membership matrix below checks the
        // journal-driven rollback/roll-forward separately).
        CrashPoint::JoinMidStream | CrashPoint::JoinBeforeActivate | CrashPoint::LeaveMidDrain => {}
    }
    r
}

fn is_fallback_point(p: CrashPoint) -> bool {
    matches!(
        p,
        CrashPoint::FallbackAfterLockAhead
            | CrashPoint::FallbackBeforeWal
            | CrashPoint::FallbackAfterWalBeforeApply
            | CrashPoint::FallbackMidUnlock
    )
}

/// Runs the canonical transaction from machine 0 with a fault-plan crash
/// armed at `p`, recovers via machine 1, and returns fixture + report.
fn crash_and_recover(p: CrashPoint) -> (Fixture, RecoveryReport) {
    crash_and_recover_with_doorbell(p, DoorbellConfig::default())
}

fn crash_and_recover_with_doorbell(
    p: CrashPoint,
    doorbell: DoorbellConfig,
) -> (Fixture, RecoveryReport) {
    // Fallback crash points are reachable only through the fallback
    // handler: give the HTM path zero retries so every transaction
    // degrades to 2PL.
    let retries = if is_fallback_point(p) { Some(0) } else { None };
    let f = fixture_with_doorbell(FaultConfig::default(), retries, doorbell);
    let mut w = f.sys.worker(0, 0);
    let r1 = f.accounts.resolve(&w, 1, 3).unwrap();
    let r2 = f.accounts.resolve(&w, 2, 5).unwrap();
    f.sys.cluster().faults().arm_crash(0, p.name());
    let spec = TxnSpec { remote_writes: vec![r1, r2], ..Default::default() };
    let r: Result<(), _> = w.execute(&spec, |ctx| {
        for i in 0..2 {
            let v = u64::from_le_bytes(ctx.remote_write_cur(i)[..8].try_into().unwrap());
            ctx.remote_write(i, (v + 7).to_le_bytes());
        }
        Ok(())
    });
    assert_eq!(r, Err(TxnError::SimulatedCrash), "armed crash at {p:?} must fire");
    assert!(f.sys.cluster().faults().is_crashed(0), "the crash marks machine 0 dead");
    let report = recover_node(f.sys.cluster(), 0, f.sys.layout(), 1);
    (f, report)
}

// ---------------------------------------------------------------------
// The crash-point × outcome matrix.
// ---------------------------------------------------------------------

#[test]
fn crash_matrix_every_point_recovers_to_the_exact_report() {
    for &p in CrashPoint::ALL.iter().filter(|p| !p.is_migration() && !p.is_membership()) {
        let (f, report) = crash_and_recover(p);
        assert_eq!(report, expected_report(p), "report mismatch at {p:?}");
        let want = if p.is_committed() { 107 } else { 100 };
        for (n, k) in [(1u16, 3u64), (2, 5)] {
            assert_eq!(value(&f, n, k), want, "{p:?}: wrong value on node {n}");
            assert!(state(&f, n, k).is_init(), "{p:?}: lock leaked on node {n}");
        }
        assert_no_leaked_locks(&f);

        // Determinism: replaying the same seed yields the same report.
        let (f2, replay) = crash_and_recover(p);
        assert_eq!(replay, report, "{p:?}: replay diverged from the first run");
        assert_eq!(value(&f2, 1, 3), value(&f, 1, 3));

        // A second recovery pass finds nothing left to do.
        let again = recover_node(f.sys.cluster(), 0, f.sys.layout(), 2);
        assert_eq!(again, RecoveryReport::default(), "{p:?}: recovery not idempotent");

        // The revived machine rejoins and can transact immediately.
        f.sys.cluster().faults().revive(0);
        let mut w = f.sys.worker(0, 0);
        let rec = f.accounts.resolve(&w, 2, 5).unwrap();
        let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| {
            let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
            ctx.remote_write(0, (v + 1).to_le_bytes());
            Ok(())
        })
        .unwrap();
        assert_eq!(value(&f, 2, 5), want + 1, "{p:?}: cluster unusable after revival");
    }
}

// ---------------------------------------------------------------------
// Fallback pipeline with LOCAL updates: the former durability hole.
// ---------------------------------------------------------------------

/// The exact recovery report each fallback crash point must produce for
/// a mixed transaction: one local write (machine 0, key 1) plus two
/// remote writes (machine 1 key 3, machine 2 key 5), all `+7`.
fn expected_fallback_report(p: CrashPoint) -> RecoveryReport {
    let mut r = RecoveryReport::default();
    match p {
        // Intent logged; no lock of any kind taken yet.
        CrashPoint::FallbackAfterLockAhead => r.rolled_back_txns = 1,
        // All three 2PL locks held (the local one via CPU/loopback CAS),
        // WAL not staged: roll back, release all three.
        CrashPoint::FallbackBeforeWal => {
            r.rolled_back_txns = 1;
            r.released_locks = 3;
        }
        // WAL staged (the commit point), nothing applied: redo all
        // three updates — the local one from the log, exactly what the
        // old remote-only WAL could not do.
        CrashPoint::FallbackAfterWalBeforeApply => {
            r.redone_txns = 1;
            r.redone_updates = 3;
        }
        // Locals apply first: the local update landed (apply+unlock
        // fused), both remotes still locked and unapplied.
        CrashPoint::FallbackMidUnlock => {
            r.redone_txns = 1;
            r.redone_updates = 2;
            r.skipped_updates = 1;
        }
        _ => unreachable!("not a fallback crash point: {p:?}"),
    }
    r
}

/// Runs the mixed local+remote transaction from machine 0 with a crash
/// armed at fallback point `p`, recovers via machine 1.
fn fallback_crash_and_recover(p: CrashPoint) -> (Fixture, RecoveryReport) {
    let f = fixture(FaultConfig::default(), Some(0));
    let mut w = f.sys.worker(0, 0);
    let l = f.accounts.resolve(&w, 0, 1).unwrap();
    let r1 = f.accounts.resolve(&w, 1, 3).unwrap();
    let r2 = f.accounts.resolve(&w, 2, 5).unwrap();
    f.sys.cluster().faults().arm_crash(0, p.name());
    let spec = TxnSpec { local_writes: vec![l], remote_writes: vec![r1, r2], ..Default::default() };
    let r: Result<(), _> = w.execute(&spec, |ctx| {
        let v = u64::from_le_bytes(ctx.local_write_cur(0)?[..8].try_into().unwrap());
        ctx.local_write(0, &(v + 7).to_le_bytes())?;
        for i in 0..2 {
            let v = u64::from_le_bytes(ctx.remote_write_cur(i)[..8].try_into().unwrap());
            ctx.remote_write(i, (v + 7).to_le_bytes());
        }
        Ok(())
    });
    assert_eq!(r, Err(TxnError::SimulatedCrash), "armed crash at {p:?} must fire");
    let report = recover_node(f.sys.cluster(), 0, f.sys.layout(), 1);
    (f, report)
}

#[test]
fn fallback_pipeline_crash_points_recover_local_and_remote_updates() {
    // No carve-out: every fallback crash point is exercised with a
    // transaction that has a purely local update in its write set — the
    // case the pre-log-before-unlock pipeline could lose.
    for p in CrashPoint::ALL.into_iter().filter(|&p| is_fallback_point(p)) {
        let (f, report) = fallback_crash_and_recover(p);
        assert_eq!(report, expected_fallback_report(p), "report mismatch at {p:?}");
        let want = if p.is_committed() { 107 } else { 100 };
        for (n, k) in [(0u16, 1u64), (1, 3), (2, 5)] {
            assert_eq!(value(&f, n, k), want, "{p:?}: wrong value on node {n} key {k}");
            assert!(state(&f, n, k).is_init(), "{p:?}: lock leaked on node {n} key {k}");
        }
        assert_no_leaked_locks(&f);
        // Conservation: the crash+recovery touched nothing else.
        let total: u64 = (0..3u16)
            .flat_map(|n| (0..8u64).map(move |k| (n, k)))
            .map(|(n, k)| value(&f, n, k))
            .sum();
        let delta = if p.is_committed() { 3 * 7 } else { 0 };
        assert_eq!(total, 24 * 100 + delta, "{p:?}: conservation violated");

        // Determinism: replaying the same run yields the same report.
        let (f2, replay) = fallback_crash_and_recover(p);
        assert_eq!(replay, report, "{p:?}: replay diverged");
        assert_eq!(value(&f2, 0, 1), value(&f, 0, 1));

        // A second recovery pass finds nothing left to do.
        let again = recover_node(f.sys.cluster(), 0, f.sys.layout(), 2);
        assert_eq!(again, RecoveryReport::default(), "{p:?}: recovery not idempotent");

        // The revived machine transacts immediately — including on the
        // local record the crashed fallback held.
        f.sys.cluster().faults().revive(0);
        let mut w = f.sys.worker(0, 0);
        let rec = f.accounts.resolve(&w, 0, 1).unwrap();
        let spec = TxnSpec { local_writes: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| {
            let v = u64::from_le_bytes(ctx.local_write_cur(0)?[..8].try_into().unwrap());
            ctx.local_write(0, &(v + 1).to_le_bytes())
        })
        .unwrap();
        assert_eq!(value(&f, 0, 1), want + 1, "{p:?}: node unusable after revival");
    }
}

// ---------------------------------------------------------------------
// Typed failure instead of hangs or stale reads.
// ---------------------------------------------------------------------

#[test]
fn ops_against_a_corpse_fail_typed_and_bounded() {
    let f = fixture(FaultConfig::default(), None);
    let w = f.sys.worker(0, 0);
    let rec = f.accounts.resolve(&w, 1, 2).unwrap();
    f.sys.cluster().faults().kill(1);

    // Raw fabric ops: typed error, immediately.
    let t0 = std::time::Instant::now();
    let mut buf = vec![0u8; 8];
    assert_eq!(w.qp().try_read(rec.addr, &mut buf), Err(FabricError::PeerDead { node: 1 }));
    assert_eq!(buf, vec![0u8; 8], "a failed READ must not deposit stale bytes");

    // A read-write transaction against the corpse aborts as PeerDead and
    // leaves no residue.
    let mut w = f.sys.worker(0, 0);
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    let r: Result<(), _> = w.execute(&spec, |ctx| {
        ctx.remote_write(0, 0u64.to_le_bytes());
        Ok(())
    });
    assert_eq!(r, Err(TxnError::PeerDead(1)));

    // A read-only transaction likewise.
    assert_eq!(w.try_read_only_records(&[rec]).unwrap_err(), TxnError::PeerDead(1));
    assert!(t0.elapsed() < Duration::from_secs(5), "dead-peer ops must not hang");

    // The aborts are accounted under their own cause.
    let snap = f.sys.stats().snapshot();
    assert!(snap.peer_dead_aborts >= 2, "got {}", snap.peer_dead_aborts);

    // Local work is unaffected and the peer serves again once revived.
    let local = f.accounts.resolve(&w, 0, 1).unwrap();
    let spec = TxnSpec { local_writes: vec![local], ..Default::default() };
    w.execute(&spec, |ctx| {
        let v = u64::from_le_bytes(ctx.local_write_cur(0)?[..8].try_into().unwrap());
        ctx.local_write(0, &(v + 1).to_le_bytes())
    })
    .unwrap();
    f.sys.cluster().faults().revive(1);
    assert_no_leaked_locks(&f);
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    w.execute(&spec, |ctx| {
        let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
        ctx.remote_write(0, (v + 1).to_le_bytes());
        Ok(())
    })
    .unwrap();
    assert_eq!(value(&f, 1, 2), 101);
}

#[test]
fn fallback_waiters_escape_a_dead_lock_owner() {
    // Machine 0 crashes while exclusively holding a record on machine 1;
    // a fallback-path transaction from machine 2 must abort PeerDead
    // (via the dead-owner check / deadline), not spin forever.
    let (f, _report) = {
        let f = fixture(FaultConfig::default(), Some(0));
        let mut w = f.sys.worker(0, 0);
        let rec = f.accounts.resolve(&w, 1, 6).unwrap();
        f.sys.cluster().faults().arm_crash(0, CrashPoint::FallbackAfterWalBeforeApply.name());
        let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
            ctx.remote_write(0, (v + 7).to_le_bytes());
            Ok(())
        });
        assert_eq!(r, Err(TxnError::SimulatedCrash));
        (f, ())
    };
    // The record on machine 1 is still locked by the corpse. A survivor
    // transaction must escape with a typed abort, within the grace
    // period, *before* anyone runs recovery.
    let mut w2 = f.sys.worker(2, 0);
    let rec = f.accounts.resolve(&w2, 1, 6).unwrap();
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    let t0 = std::time::Instant::now();
    let r: Result<(), _> = w2.execute(&spec, |ctx| {
        ctx.remote_write(0, 0u64.to_le_bytes());
        Ok(())
    });
    assert_eq!(r, Err(TxnError::PeerDead(0)));
    assert!(t0.elapsed() < Duration::from_secs(30), "waiter must not spin unbounded");
    // Recovery then repairs the half-committed transaction and the
    // waiter's retry succeeds.
    let report = recover_node(f.sys.cluster(), 0, f.sys.layout(), 2);
    assert_eq!(report.redone_txns, 1);
    let r: Result<(), _> = w2.execute(&spec, |ctx| {
        let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
        ctx.remote_write(0, (v + 1).to_le_bytes());
        Ok(())
    });
    assert_eq!(r, Ok(()));
    assert_eq!(value(&f, 1, 6), 108, "+7 redone exactly once, then +1");
    assert_no_leaked_locks(&f);
}

// ---------------------------------------------------------------------
// Racing survivors: recovery is claim-based and exactly-once.
// ---------------------------------------------------------------------

#[test]
fn racing_survivors_release_each_lock_exactly_once() {
    // AfterRemoteLocks: two exclusive locks held by the corpse, nothing
    // committed. Two survivors recover concurrently; the claim CAS must
    // make exactly one of them repair (and count) the slot.
    for round in 0..scaled(8, 2) {
        let f = crash_and_recover_raw(CrashPoint::AfterRemoteLocks, round as u64 + 1);
        let cluster = f.sys.cluster().clone();
        let layout = f.sys.layout().clone();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let reports: Vec<RecoveryReport> = std::thread::scope(|s| {
            let handles: Vec<_> = [1u16, 2]
                .into_iter()
                .map(|via| {
                    let cluster = cluster.clone();
                    let layout = layout.clone();
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        barrier.wait();
                        recover_node(&cluster, 0, &layout, via)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let rolled: u64 = reports.iter().map(|r| r.rolled_back_txns).sum();
        let released: u64 = reports.iter().map(|r| r.released_locks).sum();
        assert_eq!(rolled, 1, "round {round}: slot repaired exactly once: {reports:?}");
        assert_eq!(released, 2, "round {round}: each lock released exactly once: {reports:?}");
        for (n, k) in [(1u16, 3u64), (2, 5)] {
            assert_eq!(value(&f, n, k), 100, "round {round}: rollback kept old value");
            assert!(state(&f, n, k).is_init());
        }
        assert_no_leaked_locks(&f);
    }
}

#[test]
fn racing_survivors_conserve_redo_accounting() {
    // AfterHtmCommit: committed, two updates to redo. Across both racing
    // recoverers, redone + skipped must equal the logged update count
    // and the transaction must be counted once.
    let f = crash_and_recover_raw(CrashPoint::AfterHtmCommit, 99);
    let cluster = f.sys.cluster().clone();
    let layout = f.sys.layout().clone();
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let reports: Vec<RecoveryReport> = std::thread::scope(|s| {
        let handles: Vec<_> = [1u16, 2]
            .into_iter()
            .map(|via| {
                let cluster = cluster.clone();
                let layout = layout.clone();
                let barrier = barrier.clone();
                s.spawn(move || {
                    barrier.wait();
                    recover_node(&cluster, 0, &layout, via)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let redone_txns: u64 = reports.iter().map(|r| r.redone_txns).sum();
    let updates: u64 = reports.iter().map(|r| r.redone_updates + r.skipped_updates).sum();
    assert_eq!(redone_txns, 1, "{reports:?}");
    assert_eq!(updates, 2, "{reports:?}");
    for (n, k) in [(1u16, 3u64), (2, 5)] {
        assert_eq!(value(&f, n, k), 107, "exactly-once redo despite the race");
        assert!(state(&f, n, k).is_init());
    }
    assert_no_leaked_locks(&f);
}

/// Like [`crash_and_recover`] but stops before recovery (the caller
/// races its own recoverers); `seed` feeds the fault plan.
fn crash_and_recover_raw(p: CrashPoint, seed: u64) -> Fixture {
    let f = fixture(FaultConfig { seed, ..Default::default() }, None);
    let mut w = f.sys.worker(0, 0);
    let r1 = f.accounts.resolve(&w, 1, 3).unwrap();
    let r2 = f.accounts.resolve(&w, 2, 5).unwrap();
    f.sys.cluster().faults().arm_crash(0, p.name());
    let spec = TxnSpec { remote_writes: vec![r1, r2], ..Default::default() };
    let r: Result<(), _> = w.execute(&spec, |ctx| {
        for i in 0..2 {
            let v = u64::from_le_bytes(ctx.remote_write_cur(i)[..8].try_into().unwrap());
            ctx.remote_write(i, (v + 7).to_le_bytes());
        }
        Ok(())
    });
    assert_eq!(r, Err(TxnError::SimulatedCrash));
    f
}

// ---------------------------------------------------------------------
// Seeded message faults replay exactly.
// ---------------------------------------------------------------------

#[test]
fn message_faults_replay_exactly_from_the_seed() {
    let run = |seed: u64| -> Vec<u8> {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 1 << 20,
            profile: LatencyProfile::zero(),
            faults: FaultConfig { seed, drop_prob: 0.25, dup_prob: 0.25, ..Default::default() },
            ..Default::default()
        });
        let qp = cluster.qp(0);
        for i in 0..100u8 {
            qp.try_send(1, 7, vec![i]).unwrap();
        }
        let mut got = Vec::new();
        while let Some(m) = cluster.verbs().recv_timeout(1, 7, Duration::from_millis(10)) {
            got.push(m.payload[0]);
        }
        got
    };
    let a = run(424242);
    let b = run(424242);
    assert_eq!(a, b, "same seed must replay the same drop/duplicate pattern");
    assert_ne!(
        a,
        (0..100u8).collect::<Vec<_>>(),
        "with 25% drop and 25% dup probabilities some message fault must fire"
    );
    let c = run(5);
    assert_ne!(a, c, "a different seed explores a different fault pattern");
}

// ---------------------------------------------------------------------
// Doorbell batching must not disturb chaos determinism.
// ---------------------------------------------------------------------

/// SEND fates (drop/duplicate) roll per *logical op*, never per
/// doorbell: however the 100 SENDs below are grouped into batches, the
/// same seed must deliver exactly the same payload sequence.
#[test]
fn send_fates_apply_per_logical_op_not_per_doorbell() {
    let deep =
        || DoorbellConfig { max_batch: 64, flush_deadline_ns: u64::MAX, ..Default::default() };
    let run = |doorbell: DoorbellConfig| -> Vec<u8> {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 1 << 20,
            // Real latencies, so batched and unbatched runs charge
            // different virtual costs — fates must not notice.
            profile: LatencyProfile::rdma(),
            faults: FaultConfig { seed: 77, drop_prob: 0.3, dup_prob: 0.3, ..Default::default() },
            doorbell,
            ..Default::default()
        });
        let qp = cluster.qp(0);
        for i in 0..100u8 {
            qp.try_send(1, 7, vec![i]).unwrap();
        }
        let mut got = Vec::new();
        while let Some(m) = cluster.verbs().recv_timeout(1, 7, Duration::from_millis(10)) {
            got.push(m.payload[0]);
        }
        got
    };
    let unbatched = run(DoorbellConfig::disabled());
    let batched = run(deep());
    let replay = run(deep());
    assert_eq!(unbatched, batched, "fates must land per logical op, not per doorbell");
    assert_eq!(batched, replay, "seeded replay must be deterministic with batching on");
    assert_ne!(
        unbatched,
        (0..100u8).collect::<Vec<_>>(),
        "with 30% drop and 30% dup probabilities some fate must fire"
    );
}

/// The whole crash-point matrix recovers to the same exact report, the
/// same values and zero leaked locks whether outbound ops batch 64-deep
/// or ring one doorbell each.
#[test]
fn crash_matrix_reports_match_with_batching_on_and_off() {
    for &p in CrashPoint::ALL.iter().filter(|p| !p.is_migration() && !p.is_membership()) {
        let (fa, ra) = crash_and_recover_with_doorbell(p, DoorbellConfig::disabled());
        let (fb, rb) = crash_and_recover_with_doorbell(
            p,
            DoorbellConfig { max_batch: 64, flush_deadline_ns: u64::MAX, ..Default::default() },
        );
        assert_eq!(ra, expected_report(p), "unbatched report mismatch at {p:?}");
        assert_eq!(rb, ra, "batching changed the recovery outcome at {p:?}");
        let want = if p.is_committed() { 107 } else { 100 };
        for f in [&fa, &fb] {
            for (n, k) in [(1u16, 3u64), (2, 5)] {
                assert_eq!(value(f, n, k), want, "{p:?}: wrong value on node {n}");
            }
            assert_no_leaked_locks(f);
        }
    }
}

// ---------------------------------------------------------------------
// Migration crash matrix: the resharding destination dies mid-protocol.
// ---------------------------------------------------------------------

/// No entry on either elastic shard may still carry a migration lock
/// (state word != 0) once recovery finished.
fn assert_no_migration_locks(kv: &ElasticKv) {
    for n in 0..kv.cfg.nodes as u16 {
        let region = kv.sys.cluster().node(n).region();
        for row in kv.shard(n).collect_range_nt(region, 0, u64::MAX - 1) {
            assert_eq!(
                region.read_u64_nt(row.entry_off),
                0,
                "leaked migration lock on node {n} key {}",
                row.key
            );
        }
    }
}

/// Runs one migration with the destination armed to die at `p`,
/// recovers (the one entry point: log sweep, then range rollback), verifies
/// conservation and zero leaked locks, then re-runs the migration to
/// completion. Returns the recovery report and the re-run's report.
fn migration_crash_run(
    p: CrashPoint,
    doorbell: DoorbellConfig,
) -> (RecoveryReport, drtm::memstore::MigrationReport) {
    let cfg = ElasticKvConfig {
        nodes: 2,
        workers: 2,
        keys_per_node: 100,
        region_size: 16 << 20,
        profile: LatencyProfile::zero(),
        doorbell,
        drtm: DrTmConfig { logging: true, ..Default::default() },
        ..Default::default()
    };
    let kv = ElasticKv::build(cfg);
    // Non-uniform values so a lost or duplicated key shows in the sum.
    let mut w = kv.worker(0, 0);
    for i in 0..30u64 {
        w.transfer(i, 199 - i, (i + 1) * 3).unwrap();
    }
    let expected = 2 * 100 * INIT_VALUE;
    assert_eq!(kv.total_value(), expected);

    // Arm the destination to die at the protocol site and watch it burn.
    kv.sys.cluster().faults().arm_crash(1, p.name());
    let err = kv.migrate(10, 59, 1).unwrap_err();
    assert_eq!(err, FabricError::PeerDead { node: 1 }, "{p:?}: armed crash must fire");
    assert!(kv.sys.cluster().faults().is_crashed(1));

    // Survivor-driven recovery: the per-slot sweep (machine 0 reads the
    // corpse's durable region directly) and the rollback of the range to
    // its source, which recovery finds in the range map; then revive.
    let recovery = kv.recover(1, 0);
    assert!(recovery.membership.is_none(), "{p:?}: a plain death, not a membership one");
    let report = recovery.wal;
    kv.sys.cluster().faults().revive(1);

    assert_eq!(kv.map().owner_of(30), Some(0), "{p:?}: range must return to its source");
    assert_eq!(kv.total_value(), expected, "{p:?}: conservation after rollback");
    assert_no_migration_locks(&kv);

    // A re-run completes and actually moves the range.
    let rerun = kv.migrate(10, 59, 1).expect("re-migration after recovery");
    assert_eq!(kv.map().owner_of(30), Some(1));
    assert_eq!(kv.total_value(), expected, "{p:?}: conservation after re-migration");
    assert_no_migration_locks(&kv);
    (report, rerun)
}

#[test]
fn migration_crash_matrix_recovers_with_conservation() {
    for p in CrashPoint::ALL.into_iter().filter(|p| p.is_migration()) {
        let (ra, rr_a) = migration_crash_run(p, DoorbellConfig::default());
        assert_eq!(ra, expected_report(p), "{p:?}: the log sweep must find nothing to repair");
        // Determinism: an identical run replays to identical reports.
        let (rb, rr_b) = migration_crash_run(p, DoorbellConfig::default());
        assert_eq!(rb, ra, "{p:?}: replay diverged");
        assert_eq!(rr_b, rr_a, "{p:?}: re-migration replay diverged");
        // Doorbell batching must not change any outcome.
        let (rc, rr_c) = migration_crash_run(p, DoorbellConfig::disabled());
        assert_eq!(rc, ra, "{p:?}: batching changed the recovery report");
        assert_eq!(rr_c, rr_a, "{p:?}: batching changed the migration");
    }
}

// ---------------------------------------------------------------------
// Membership crash matrix: the join/leave subject dies mid-protocol.
// ---------------------------------------------------------------------

/// An elastic deployment sized for membership chaos: 100 keys per
/// founding machine, write-ahead logging on, zero-latency fabric so the
/// runs are fast and exactly replayable.
fn membership_kv(nodes: usize, max_nodes: usize, doorbell: DoorbellConfig) -> ElasticKv {
    ElasticKv::build(ElasticKvConfig {
        nodes,
        max_nodes,
        workers: 2,
        keys_per_node: 100,
        region_size: 16 << 20,
        profile: LatencyProfile::zero(),
        doorbell,
        drtm: DrTmConfig { logging: true, ..Default::default() },
        ..Default::default()
    })
}

/// No entry on any provisioned shard — including the corpse's — may
/// still carry a lock word once a membership recovery finished.
fn assert_no_membership_locks(kv: &ElasticKv) {
    for n in 0..kv.sys.cluster().num_nodes() as u16 {
        let region = kv.sys.cluster().node(n).region();
        for row in kv.shard(n).collect_range_nt(region, 0, u64::MAX - 1) {
            assert_eq!(
                region.read_u64_nt(row.entry_off),
                0,
                "leaked lock on node {n} key {}",
                row.key
            );
        }
    }
}

/// Arms `site` on the joining machine (node 2 of a 2-node cluster),
/// runs the join to its crash, then repairs via the membership journal.
fn join_crash_run(site: &str, doorbell: DoorbellConfig) -> (ElasticKv, MembershipRecovery) {
    let kv = membership_kv(2, 4, doorbell);
    assert_eq!(kv.total_value(), 2 * 100 * INIT_VALUE);
    kv.sys.cluster().faults().arm_crash(2, site);
    let err = kv.join_node().unwrap_err();
    assert_eq!(
        err,
        MembershipError::SubjectDied { node: 2, error: FabricError::PeerDead { node: 2 } },
        "the armed crash must surface as a subject death"
    );
    assert!(kv.sys.cluster().faults().is_crashed(2));
    let rec = kv.recover(2, 0).membership.expect("an armed join journal must dispatch recovery");
    (kv, rec)
}

#[test]
fn join_crash_points_roll_back_to_the_pre_join_geometry() {
    // Founding geometry: node 0 owns [0,99], node 1 owns [100,199].
    // Each donates its upper half to the joiner. Mid-stream the crash
    // fires with donation 0 landed and donation 1 about to be left
    // mid-copy; before-activate it fires with both landed.
    let mid = MembershipRecovery {
        node: 2,
        direction: RecoveryDirection::RolledBack,
        wal: RecoveryReport::default(),
        released_locks: 0,
        dropped_rows: 0,
        evacuated_keys: 50,
        ranges: vec![(50, 99, 0)],
        epoch: 3,
    };
    let before = MembershipRecovery {
        evacuated_keys: 100,
        ranges: vec![(50, 99, 0), (150, 199, 1)],
        ..mid.clone()
    };
    for (p, want) in [(CrashPoint::JoinMidStream, mid), (CrashPoint::JoinBeforeActivate, before)] {
        let (kv, rec) = join_crash_run(p.name(), DoorbellConfig::default());
        assert_eq!(rec, want, "{p:?}: recovery report mismatch");
        // Pre-join geometry restored: the donors own their halves again
        // and the donated rows are back home.
        assert_eq!(kv.map().owner_of(75), Some(0), "{p:?}: donation must return to node 0");
        assert_eq!(kv.map().owner_of(175), Some(1), "{p:?}: donation must return to node 1");
        assert!(kv.map().ranges_owned_by(2).is_empty(), "{p:?}: no orphaned ranges");
        assert_eq!(kv.total_value(), 2 * 100 * INIT_VALUE, "{p:?}: conservation");
        assert_no_membership_locks(&kv);
        // The corpse retired: sticky, typed, never PeerDead.
        assert_eq!(kv.membership().state_of(2), Some(NodeState::Retired), "{p:?}");
        assert!(kv.sys.cluster().faults().is_retired(2), "{p:?}");
        assert_eq!(
            kv.sys.cluster().qp(0).try_read_u64(GlobalAddr::new(2, 0)).unwrap_err(),
            FabricError::NodeRetired { node: 2 },
            "{p:?}: ops against the retired corpse fail typed"
        );
        // The journal is spent: a second dispatch finds a plain death.
        assert!(kv.recover(2, 0).membership.is_none(), "{p:?}: recovery not idempotent");

        // Replay determinism: an identical run yields a byte-identical
        // report, and doorbell batching must not change it either.
        let (_, replay) = join_crash_run(p.name(), DoorbellConfig::default());
        assert_eq!(replay, rec, "{p:?}: replay diverged");
        let (_, unbatched) = join_crash_run(p.name(), DoorbellConfig::disabled());
        assert_eq!(unbatched, rec, "{p:?}: batching changed the recovery");

        // Survivors keep transacting on the repaired geometry, and a
        // fresh join completes — under a brand-new id, never a reuse.
        let mut w = kv.worker(0, 0);
        w.transfer(10, 175, 7).unwrap();
        assert_eq!(kv.total_value(), 2 * 100 * INIT_VALUE, "{p:?}: transfers conserve");
        let report = kv.join_node().expect("a fresh join after rollback");
        assert_eq!(report.node, 3, "{p:?}: node ids are never reused");
        assert_eq!(kv.membership().state_of(3), Some(NodeState::Active), "{p:?}");
        assert_eq!(kv.total_value(), 2 * 100 * INIT_VALUE, "{p:?}: conservation after rejoin");
    }
}

/// Arms the mid-drain site on a leaving machine that owns two ranges,
/// runs the leave to its crash, then rolls the drain forward.
fn leave_crash_run(doorbell: DoorbellConfig) -> (ElasticKv, MembershipRecovery) {
    let kv = membership_kv(3, 0, doorbell);
    // Give the leaver a second range so one hand-off lands before the
    // crash and the next is left mid-copy: node 1 owns [0,49] and
    // [100,199], nodes 0 and 2 keep [50,99] and [200,299].
    kv.migrate(0, 49, 1).unwrap();
    assert_eq!(kv.total_value(), 3 * 100 * INIT_VALUE);
    kv.sys.cluster().faults().arm_crash(1, CrashPoint::LeaveMidDrain.name());
    let err = kv.leave_node(1, 0).unwrap_err();
    assert_eq!(
        err,
        MembershipError::SubjectDied { node: 1, error: FabricError::PeerDead { node: 1 } },
        "the armed crash must surface as a subject death"
    );
    assert!(kv.sys.cluster().faults().is_crashed(1));
    let rec = kv.recover(1, 0).membership.expect("an armed leave journal must dispatch recovery");
    (kv, rec)
}

#[test]
fn leave_mid_drain_rolls_the_departure_forward() {
    // Hand-off of [0,49] to node 0 landed before the crash; [100,199]
    // restarts as an NVRAM evacuation to its journaled receiver, node 2.
    let want = MembershipRecovery {
        node: 1,
        direction: RecoveryDirection::RolledForward,
        wal: RecoveryReport::default(),
        released_locks: 0,
        dropped_rows: 0,
        evacuated_keys: 100,
        ranges: vec![(100, 199, 2)],
        epoch: 3,
    };
    let (kv, rec) = leave_crash_run(DoorbellConfig::default());
    assert_eq!(rec, want, "recovery report mismatch");
    // The departure finished: the leaver owns nothing, every key routes
    // to a survivor, and every row survived the two transports.
    assert_eq!(kv.map().owner_of(25), Some(0), "completed hand-off stays published");
    assert_eq!(kv.map().owner_of(150), Some(2), "in-flight range lands on its receiver");
    assert_eq!(kv.map().owner_of(250), Some(2));
    assert!(kv.map().ranges_owned_by(1).is_empty(), "the leaver owns nothing");
    assert_eq!(kv.total_value(), 3 * 100 * INIT_VALUE, "conservation");
    assert_no_membership_locks(&kv);
    assert_eq!(kv.membership().state_of(1), Some(NodeState::Retired));
    assert!(kv.sys.cluster().faults().is_retired(1));
    assert_eq!(
        kv.sys.cluster().qp(0).try_read_u64(GlobalAddr::new(1, 0)).unwrap_err(),
        FabricError::NodeRetired { node: 1 },
        "ops against the departed corpse fail typed"
    );
    assert!(kv.recover(1, 0).membership.is_none(), "recovery not idempotent");

    // Replay determinism, batching on and off.
    let (_, replay) = leave_crash_run(DoorbellConfig::default());
    assert_eq!(replay, rec, "replay diverged");
    let (_, unbatched) = leave_crash_run(DoorbellConfig::disabled());
    assert_eq!(unbatched, rec, "batching changed the recovery");

    // Survivors transact across the inherited ranges.
    let mut w = kv.worker(0, 0);
    w.transfer(25, 250, 9).unwrap();
    assert_eq!(kv.total_value(), 3 * 100 * INIT_VALUE);
}

/// The composition the tentpole promises: the failure detector (not the
/// test) notices the joiner's death and drives the journal rollback.
#[test]
fn failure_detector_drives_membership_rollback() {
    let kv = membership_kv(2, 4, DoorbellConfig::default());
    let (tx, rx) = std::sync::mpsc::channel();
    let coordinator = kv.coordinator().clone();
    // Started over the two founders: the joiner is covered the moment
    // the fabric provisions it, with no registration.
    let _fd = FailureDetector::start(
        kv.sys.cluster().clone(),
        Duration::from_millis(5),
        Duration::from_millis(400),
        move |crashed, survivor| {
            // The one entry point; `membership: None` would mean a plain
            // (non-membership) death, repaired by its WAL sweep alone.
            let rec = coordinator.recover(crashed, survivor).membership;
            let _ = tx.send((crashed, rec));
        },
    );
    kv.sys.cluster().faults().arm_crash(2, CrashPoint::JoinBeforeActivate.name());
    let err = kv.join_node().unwrap_err();
    assert!(matches!(err, MembershipError::SubjectDied { node: 2, .. }), "{err:?}");
    // The armed site killed the joiner on the fabric; that is all the
    // detector needs, and detection composes into recovery.
    let (crashed, rec) = rx.recv_timeout(Duration::from_secs(10)).expect("detection must fire");
    assert_eq!(crashed, 2);
    let rec = rec.expect("the join journal must drive a rollback");
    assert_eq!(
        rec,
        MembershipRecovery {
            node: 2,
            direction: RecoveryDirection::RolledBack,
            wal: RecoveryReport::default(),
            released_locks: 0,
            dropped_rows: 0,
            evacuated_keys: 100,
            ranges: vec![(50, 99, 0), (150, 199, 1)],
            epoch: 3,
        }
    );
    assert_eq!(kv.total_value(), 2 * 100 * INIT_VALUE, "conservation after detected rollback");
    assert_eq!(kv.membership().state_of(2), Some(NodeState::Retired));
    assert!(kv.sys.cluster().faults().is_retired(2), "rollback retires the corpse");
    assert_no_membership_locks(&kv);
}

// ---------------------------------------------------------------------
// End-to-end: the elastic KV serves through a join and a graceful leave.
// ---------------------------------------------------------------------

#[test]
fn elastic_kv_serves_through_a_join_and_a_graceful_leave() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let kv = membership_kv(2, 3, DoorbellConfig::default());
    let expected = 2 * 100 * INIT_VALUE;
    let iters = scaled(400, 40);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for n in 0..2u16 {
            for wid in 0..2 {
                let mut w = kv.worker(n, wid);
                let stop = &stop;
                s.spawn(move || {
                    let mut x = n as u64 * 977 + wid as u64 * 131 + 7;
                    for i in 0..iters {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let a = (x >> 33) % 200;
                        let b = (x >> 13) % 200;
                        if a == b {
                            continue;
                        }
                        // Conserving transfers only. A `Retired` abort is
                        // the typed TOCTOU race — the key was resolved
                        // before the drain published — and re-routes on
                        // retry; nothing else may fail.
                        loop {
                            match w.transfer(a, b, (i as u64 % 5) + 1) {
                                Ok(()) => break,
                                Err(TxnError::Retired(node)) => {
                                    assert_eq!(node, 2, "only the leaver retires")
                                }
                                Err(e) => panic!("unexpected failure: {e:?}"),
                            }
                        }
                    }
                });
            }
        }
        // Join a third machine while the mix runs...
        std::thread::sleep(Duration::from_millis(20));
        let join = kv.join_node().expect("join under live traffic");
        assert_eq!(join.node, 2);
        assert_eq!(join.ranges_in.len(), 2, "one donation per founding machine");
        assert_eq!(kv.map().ranges_owned_by(2).len(), 2);
        // ...serve from three machines for a while...
        std::thread::sleep(Duration::from_millis(30));
        // ...then gracefully retire it again.
        let leave = kv.leave_node(2, 0).expect("graceful leave under live traffic");
        assert_eq!(leave.node, 2);
        assert_eq!(leave.ranges_out.len(), 2, "both donated ranges drain back out");
        assert_eq!(leave.quiesce, RecoveryReport::default(), "a clean leave leaks nothing");
        assert!(kv.map().ranges_owned_by(2).is_empty(), "the leaver owns nothing");
        std::thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(kv.total_value(), expected, "conservation across join, serve and leave");
    assert_eq!(
        kv.membership().snapshot(),
        vec![NodeState::Active, NodeState::Active, NodeState::Retired]
    );
    assert_eq!(
        kv.sys.cluster().qp(0).try_read_u64(GlobalAddr::new(2, 0)).unwrap_err(),
        FabricError::NodeRetired { node: 2 }
    );
    assert!(kv.sys.stats().snapshot().committed > 0, "the mix must have made progress");
    assert_no_membership_locks(&kv);
}

// ---------------------------------------------------------------------
// End-to-end: SmallBank under a mid-run crash with a live detector.
// ---------------------------------------------------------------------

#[test]
fn smallbank_survives_a_mid_run_crash_with_live_detection() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let cfg = SmallBankConfig {
        nodes: 3,
        workers: 2,
        accounts_per_node: 200,
        hot_per_node: 10,
        hot_prob: 0.5,
        dist_prob: 0.5,
        region_size: 16 << 20,
        profile: LatencyProfile::zero(),
        drtm: DrTmConfig { logging: true, ..Default::default() },
    };
    let nodes = cfg.nodes as u16;
    let sb = SmallBank::build(cfg);
    let expected = 2 * 3 * 200 * INIT_BALANCE;
    assert_eq!(sb.total_balance(), expected);

    // Zookeeper stand-in: detection drives recovery on a survivor.
    let (tx, rx) = std::sync::mpsc::channel();
    let cluster = sb.sys.cluster().clone();
    let layout = sb.sys.layout().clone();
    let _fd = FailureDetector::start(
        sb.sys.cluster().clone(),
        Duration::from_millis(5),
        Duration::from_millis(400),
        move |crashed, survivor| {
            let report = recover_node(&cluster, crashed, &layout, survivor);
            let _ = tx.send((crashed, report));
        },
    );

    let stop = AtomicBool::new(false);
    let iters = scaled(600, 30);
    std::thread::scope(|s| {
        for n in 0..nodes {
            for w in 0..2 {
                let mut worker = sb.worker(n, w);
                let stop = &stop;
                s.spawn(move || {
                    let mut peer_dead = 0u64;
                    for i in 0..iters {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        // Conserving transactions only, so the books
                        // must balance exactly at the end.
                        let r = match i % 3 {
                            0 => worker.try_send_payment(),
                            1 => worker.try_amalgamate(),
                            _ => worker.try_balance(),
                        };
                        match r {
                            Ok(()) => {}
                            // Own machine crashed: this thread is dead.
                            Err(TxnError::SimulatedCrash) => return,
                            Err(TxnError::PeerDead(_)) => {
                                peer_dead += 1;
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(e) => panic!("unexpected failure: {e:?}"),
                        }
                    }
                    // Once the peer is back (main thread revives it
                    // before setting `stop`), parked write-backs drain.
                    while worker.worker().has_pending() {
                        if worker.worker_mut().flush_pending().is_err() {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    let _ = peer_dead;
                });
            }
        }

        // Let the mix run, then kill machine 2: ops start failing, and
        // the detector notices by itself.
        std::thread::sleep(Duration::from_millis(30));
        sb.sys.cluster().faults().kill(2);
        let (crashed, _report) =
            rx.recv_timeout(Duration::from_secs(10)).expect("detector must drive recovery");
        assert_eq!(crashed, 2);
        // Survivors keep working against the reduced cluster.
        std::thread::sleep(Duration::from_millis(30));
        // Re-provision machine 2, then let the workers finish + drain.
        sb.sys.cluster().faults().revive(2);
        std::thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        sb.total_balance(),
        expected,
        "conservation must hold after crash, recovery and revival"
    );
    let snap = sb.sys.stats().snapshot();
    assert!(snap.committed > 0, "the mix must have made progress");
}

// ---------------------------------------------------------------------
// Shipped operations: TPC-C's by-name payment against a customer machine
// that is dead, or dies holding the scan request.
// ---------------------------------------------------------------------

/// Two machines, every payment against another warehouse's customer, so
/// node 0's by-name payments ship their index scan to node 1.
fn cross_warehouse_tpcc() -> Arc<Tpcc> {
    Arc::new(Tpcc::build(TpccConfig {
        nodes: 2,
        workers: 1,
        districts: 2,
        customers_per_district: 30,
        items: 100,
        cross_warehouse_payment: 1.0,
        max_new_orders_per_node: 100,
        region_size: 16 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    }))
}

#[test]
fn payment_reports_a_customer_machine_that_dies_holding_its_scan() {
    let t = cross_warehouse_tpcc();
    let mut w = t.worker(0, 0);
    t.sys.cluster().faults().arm_crash(1, RPC_MID_REQUEST_SITE);
    // By-id payments commit until the first by-name one ships its scan:
    // node 1 takes the request and dies with it.
    let (err, waited) = loop {
        let t0 = Instant::now();
        if let Err(e) = w.try_payment() {
            break (e, t0.elapsed());
        }
    };
    assert_eq!(err, TxnError::PeerDead(1));
    assert!(waited < DEAD_PEER_GRACE, "a poll slice, not the grace period: {waited:?}");
    assert!(t.sys.cluster().faults().is_crashed(1));
    // The request died with its host, before any transaction began:
    // nothing to recover. The revived machine serves scans again.
    t.sys.cluster().faults().revive(1);
    for _ in 0..20 {
        assert_eq!(w.try_payment(), Ok(()));
    }
    assert!(t.check_ytd_consistency());
}

#[test]
fn payment_against_a_dead_customer_machine_is_typed_never_an_unwind() {
    let t = cross_warehouse_tpcc();
    let mut w = t.worker(0, 0);
    t.sys.cluster().faults().kill(1);
    // By name (the shipped scan) or by id (the one-sided lookup), every
    // payment needs node 1.
    for _ in 0..40 {
        assert_eq!(w.try_payment(), Err(TxnError::PeerDead(1)));
    }
    t.sys.cluster().faults().revive(1);
    assert_eq!(w.try_payment(), Ok(()));
    assert!(t.check_ytd_consistency());
}
