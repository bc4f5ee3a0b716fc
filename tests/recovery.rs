//! Durability integration tests: crash injection at every Figure 7
//! point, recovery, idempotence, and post-recovery serviceability.

use std::sync::Arc;

use drtm::rdma::{ClusterConfig, LatencyProfile};
use drtm::txn::{
    recover_node, CrashPoint, Deployment, DrTm, DrTmConfig, LockState, TxnError, TxnSpec,
    SOFTTIME_INTERVAL,
};
use drtm::workloads::resolve::Table;

struct Fixture {
    sys: Arc<DrTm>,
    accounts: Arc<Table>,
}

fn fixture() -> Fixture {
    let cfg = DrTmConfig { logging: true, ..Default::default() };
    let cluster = ClusterConfig {
        nodes: 3,
        region_size: 8 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    };
    let mut dep = Deployment::new(cluster, cfg, 2);
    let shards = dep.hash(64, 100, 8);
    for n in dep.nodes() {
        for k in 0..8u64 {
            shards[n as usize].insert(dep.exec(), dep.region(n), k, &100u64.to_le_bytes()).unwrap();
        }
    }
    Fixture { sys: dep.start(SOFTTIME_INTERVAL), accounts: Arc::new(Table::new(shards)) }
}

fn value(f: &Fixture, node: u16, key: u64) -> u64 {
    let w = f.sys.worker(0, 0);
    let rec = f.accounts.resolve(&w, node, key).unwrap();
    let mut b = [0u8; 8];
    f.sys.cluster().node(node).region().read_nt(rec.entry().value_off(), &mut b);
    u64::from_le_bytes(b)
}

fn state(f: &Fixture, node: u16, key: u64) -> LockState {
    let w = f.sys.worker(0, 0);
    let rec = f.accounts.resolve(&w, node, key).unwrap();
    LockState(f.sys.cluster().node(node).region().read_u64_nt(rec.addr.offset))
}

/// Runs a multi-record distributed update on machines 1 and 2 from
/// machine 0, which dies at `crash`; recovers it, then restarts it.
fn crash_and_recover(crash: CrashPoint) -> Fixture {
    let f = fixture();
    f.sys.cluster().faults().arm_crash(0, crash.name());
    let mut w = f.sys.worker(0, 0);
    let r1 = f.accounts.resolve(&w, 1, 3).unwrap();
    let r2 = f.accounts.resolve(&w, 2, 5).unwrap();
    let spec = TxnSpec { remote_writes: vec![r1, r2], ..Default::default() };
    let r: Result<(), _> = w.execute(&spec, |ctx| {
        for i in 0..2 {
            let v = u64::from_le_bytes(ctx.remote_write_cur(i)[..8].try_into().unwrap());
            ctx.remote_write(i, (v + 7).to_le_bytes().to_vec());
        }
        Ok(())
    });
    assert_eq!(r, Err(TxnError::SimulatedCrash));
    let report = recover_node(f.sys.cluster(), 0, f.sys.layout(), 1);
    assert!(report.redone_txns + report.rolled_back_txns > 0, "log must be found");
    f.sys.cluster().faults().revive(0);
    f
}

#[test]
fn crash_before_commit_rolls_back_everywhere() {
    let f = crash_and_recover(CrashPoint::BeforeHtmCommit);
    for (n, k) in [(1u16, 3u64), (2, 5)] {
        assert_eq!(value(&f, n, k), 100, "no partial update on node {n}");
        assert!(state(&f, n, k).is_init(), "lock released on node {n}");
    }
}

#[test]
fn crash_after_commit_redoes_everywhere() {
    let f = crash_and_recover(CrashPoint::AfterHtmCommit);
    for (n, k) in [(1u16, 3u64), (2, 5)] {
        assert_eq!(value(&f, n, k), 107, "committed update redone on node {n}");
        assert!(state(&f, n, k).is_init());
    }
}

#[test]
fn crash_mid_write_back_completes_exactly_once() {
    let f = crash_and_recover(CrashPoint::MidWriteBack);
    // One record was written back before the crash, the other not; both
    // must end at exactly one application of +7.
    for (n, k) in [(1u16, 3u64), (2, 5)] {
        assert_eq!(value(&f, n, k), 107, "exactly-once redo on node {n}");
        assert!(state(&f, n, k).is_init());
    }
}

#[test]
fn recovery_is_idempotent_and_cluster_stays_usable() {
    let f = crash_and_recover(CrashPoint::AfterHtmCommit);
    let again = recover_node(f.sys.cluster(), 0, f.sys.layout(), 2);
    assert_eq!(again.redone_txns, 0);
    assert_eq!(again.redone_updates, 0);
    // Survivors (and a restarted machine 0) can transact on the same
    // records immediately after recovery.
    let mut w = f.sys.worker(1, 0);
    let rec = f.accounts.resolve(&w, 2, 5).unwrap();
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    w.execute(&spec, |ctx| {
        let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
        ctx.remote_write(0, (v + 1).to_le_bytes().to_vec());
        Ok(())
    })
    .unwrap();
    assert_eq!(value(&f, 2, 5), 108);
}

#[test]
fn clean_execution_leaves_empty_logs() {
    let f = fixture();
    let mut w = f.sys.worker(0, 0);
    let rec = f.accounts.resolve(&w, 1, 0).unwrap();
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    for _ in 0..5 {
        w.execute(&spec, |ctx| {
            let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
            ctx.remote_write(0, (v + 1).to_le_bytes().to_vec());
            Ok(())
        })
        .unwrap();
    }
    let report = recover_node(f.sys.cluster(), 0, f.sys.layout(), 1);
    assert_eq!(report.redone_txns, 0, "completed txns leave no pending log");
    assert_eq!(report.rolled_back_txns, 0);
    assert_eq!(value(&f, 1, 0), 105);
}

#[test]
fn failure_detector_drives_recovery_end_to_end() {
    use drtm::txn::FailureDetector;
    use std::time::Duration;

    let f = fixture();
    f.sys.cluster().faults().arm_crash(0, CrashPoint::AfterHtmCommit.name());
    let mut w = f.sys.worker(0, 0);
    let rec = f.accounts.resolve(&w, 1, 2).unwrap();
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    let r: Result<(), _> = w.execute(&spec, |ctx| {
        let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
        ctx.remote_write(0, (v + 5).to_le_bytes().to_vec());
        Ok(())
    });
    assert_eq!(r, Err(TxnError::SimulatedCrash));

    // Zookeeper stand-in: the armed crash is all the detector needs to
    // notice the death and trigger recovery on a survivor.
    let (tx, rx) = std::sync::mpsc::channel();
    let cluster = f.sys.cluster().clone();
    let layout = f.sys.layout().clone();
    let _fd = FailureDetector::start(
        f.sys.cluster().clone(),
        Duration::from_millis(5),
        Duration::from_millis(400),
        move |crashed, survivor| {
            let report = recover_node(&cluster, crashed, &layout, survivor);
            let _ = tx.send(report);
        },
    );
    let report = rx.recv_timeout(Duration::from_secs(10)).expect("recovery ran");
    assert_eq!(report.redone_txns, 1);
    f.sys.cluster().faults().revive(0);
    assert_eq!(value(&f, 1, 2), 105, "committed update redone by the survivor");
    assert!(state(&f, 1, 2).is_init());
}

#[test]
fn chop_info_survives_a_crash() {
    use drtm::txn::ChopInfo;

    let f = fixture();
    f.sys.cluster().faults().arm_crash(0, CrashPoint::AfterHtmCommit.name());
    let mut w = f.sys.worker(0, 1);
    // A chopped parent transaction: piece 2 of 5 is in flight.
    w.log_chop(ChopInfo { kind: 4, piece: 2, total: 5, arg: 9 });
    let rec = f.accounts.resolve(&w, 1, 6).unwrap();
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    let r: Result<(), _> = w.execute(&spec, |ctx| {
        let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
        ctx.remote_write(0, (v + 1).to_le_bytes().to_vec());
        Ok(())
    });
    assert_eq!(r, Err(TxnError::SimulatedCrash));
    let report = recover_node(f.sys.cluster(), 0, f.sys.layout(), 1);
    assert_eq!(
        report.pending_pieces,
        vec![ChopInfo { kind: 4, piece: 2, total: 5, arg: 9 }],
        "recovery must learn which piece to resume"
    );
}

#[test]
fn read_only_does_not_wait_out_a_dead_owners_write_lock() {
    use std::time::Duration;

    let f = fixture();
    // Machine 2 commits an update of machine 0's record and dies before
    // the write-back: the record stays write-locked, owner 2.
    let mut owner = f.sys.worker(2, 0);
    let rec = f.accounts.resolve(&owner, 0, 4).unwrap();
    f.sys.cluster().faults().arm_crash(2, CrashPoint::AfterHtmCommit.name());
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    let r: Result<(), _> = owner.execute(&spec, |ctx| {
        let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
        ctx.remote_write(0, (v + 7).to_le_bytes().to_vec());
        Ok(())
    });
    assert_eq!(r, Err(TxnError::SimulatedCrash));
    assert!(state(&f, 0, 4).is_write_locked());

    // The record's own machine is alive, so no verb fails: only the
    // lock word says who the survivor is waiting for. Only recovery
    // releases that lock, so the read must give up typed, not spin.
    let (tx, rx) = std::sync::mpsc::channel();
    let mut reader = f.sys.worker(1, 0);
    std::thread::spawn(move || {
        let _ = tx.send(reader.try_read_only_records(&[rec]));
    });
    let got = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("read-only transaction still spinning on a crashed owner's lock");
    assert_eq!(got, Err(TxnError::PeerDead(2)));

    let report = recover_node(f.sys.cluster(), 2, f.sys.layout(), 0);
    assert_eq!(report.redone_txns, 1);
    let v = f.sys.worker(1, 1).try_read_only_records(&[rec]).unwrap();
    assert_eq!(u64::from_le_bytes(v[0][..8].try_into().unwrap()), 107);
}
