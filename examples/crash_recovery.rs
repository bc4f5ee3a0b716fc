//! Durability demo: crash a machine mid-transaction and recover it from
//! the NVRAM logs (§4.6, Figure 7).
//!
//! Two scenarios are exercised:
//! 1. crash *before* the HTM region commits — the lock-ahead log lets a
//!    survivor release the stranded remote locks; no update appears;
//! 2. crash *after* the HTM region commits but before any write-back —
//!    the write-ahead log (atomic with `XEND`) lets the survivor redo
//!    the remote updates exactly once.
//!
//! Run with: `cargo run --example crash_recovery`

use std::sync::Arc;

use drtm::rdma::ClusterConfig;
use drtm::txn::{
    recover_node, CrashPoint, Deployment, DrTm, DrTmConfig, LockState, TxnError, TxnSpec,
    SOFTTIME_INTERVAL,
};
use drtm::workloads::resolve::Table;

/// Two machines with logging on; machine 0 is armed to die at `crash`.
fn build(crash: CrashPoint) -> (Arc<DrTm>, Table) {
    let cfg = DrTmConfig { logging: true, ..Default::default() };
    let cluster = ClusterConfig { nodes: 2, region_size: 8 << 20, ..Default::default() };
    let mut dep = Deployment::new(cluster, cfg, 1);
    let shards = dep.hash(64, 100, 8);
    for n in dep.nodes() {
        shards[n as usize].insert(dep.exec(), dep.region(n), 0, &100u64.to_le_bytes()).unwrap();
    }
    let sys = dep.start(SOFTTIME_INTERVAL);
    sys.cluster().faults().arm_crash(0, crash.name());
    (sys, Table::new(shards))
}

fn balance(sys: &Arc<DrTm>, table: &Table, node: u16) -> u64 {
    let w = sys.worker(node, 0);
    let rec = table.resolve(&w, 1, 0).unwrap();
    let mut b = [0u8; 8];
    sys.cluster().node(1).region().read_nt(rec.entry().value_off(), &mut b);
    u64::from_le_bytes(b)
}

fn run_scenario(crash: CrashPoint) {
    println!("--- scenario: {crash:?} ---");
    let (sys, table) = build(crash);
    let mut w = sys.worker(0, 0);
    let rec = table.resolve(&w, 1, 0).unwrap();
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    let r: Result<(), _> = w.execute(&spec, |ctx| {
        let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
        ctx.remote_write(0, (v + 11).to_le_bytes().to_vec());
        Ok(())
    });
    assert_eq!(r, Err(TxnError::SimulatedCrash));
    let st = LockState(sys.cluster().node(1).region().read_u64_nt(rec.addr.offset));
    println!(
        "machine 0 crashed; remote record locked = {}, balance = {}",
        st.is_write_locked(),
        balance(&sys, &table, 1)
    );

    // A survivor (machine 1) recovers machine 0 from its NVRAM logs.
    let report = recover_node(sys.cluster(), 0, sys.layout(), 1);
    println!("recovery report: {report:?}");
    let st = LockState(sys.cluster().node(1).region().read_u64_nt(rec.addr.offset));
    let b = balance(&sys, &table, 1);
    println!("after recovery: locked = {}, balance = {}", st.is_write_locked(), b);
    assert!(st.is_init(), "all stranded locks released");
    match crash {
        CrashPoint::BeforeHtmCommit => assert_eq!(b, 100, "uncommitted update must vanish"),
        _ => assert_eq!(b, 111, "committed update must be redone"),
    }
    // Idempotence: running recovery again changes nothing.
    let again = recover_node(sys.cluster(), 0, sys.layout(), 1);
    assert_eq!(again.redone_updates, 0);
    println!("recovery is idempotent\n");
}

fn main() {
    run_scenario(CrashPoint::BeforeHtmCommit);
    run_scenario(CrashPoint::AfterHtmCommit);
    run_scenario(CrashPoint::MidWriteBack);
    println!("all crash/recovery scenarios passed");
}
