//! Table 2: the conflict matrix between local and distributed accesses.
//!
//! Reproduces every interleaving of Figure 2(b)–(d) against one record
//! and prints S (share) or C (conflict), which must match the paper's
//! matrix — including the single *false* conflict (earlier local read
//! vs. remote read, caused by the lease CAS writing the state word).

use std::sync::Arc;

use drtm_bench::{banner, row};
use drtm_core::{record_ops as ops, RecordAddr};
use drtm_htm::{Executor, HtmConfig, HtmStats};
use drtm_memstore::{Arena, ClusterHash, LookupResult};
use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};

const DELTA: u64 = 10;

struct Setup {
    cluster: Arc<Cluster>,
    table: ClusterHash,
    rec: RecordAddr,
}

fn setup() -> Setup {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        region_size: 4 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    });
    let mut arena = Arena::new(64, (4 << 20) - 64);
    let table = ClusterHash::create(&mut arena, 0, 16, 64, 32);
    let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
    table.insert(&exec, cluster.node(0).region(), 1, b"v").unwrap();
    let qp = cluster.qp(1);
    let rec = match table.remote_lookup(&qp, 1) {
        LookupResult::Found { addr, .. } => RecordAddr::new(addr, 32),
        _ => unreachable!(),
    };
    Setup { cluster, table, rec }
}

/// Runs: local op first (inside HTM), then the remote op, then tries to
/// commit the local transaction. Returns 'S' or 'C' for the local side.
fn local_first(local_write: bool, remote_write: bool) -> char {
    let s = setup();
    let region = s.cluster.node(0).region();
    let cfg = HtmConfig::default();
    let mut txn = region.begin(&cfg);
    let e = s.table.get_local(&mut txn, 1).unwrap().unwrap();
    let ok = if local_write {
        ops::local_write(&mut txn, e.offset, b"w", 1_000, DELTA).is_ok()
    } else {
        ops::local_read(&mut txn, e.offset).is_ok()
    };
    assert!(ok, "record starts unlocked");
    let qp = s.cluster.qp(1);
    if remote_write {
        ops::remote_lock_write(&qp, &s.rec, 1, 1_000, DELTA, false).unwrap();
    } else {
        ops::remote_read(&qp, &s.rec, 50_000, 1_000, DELTA, false).unwrap();
    }
    if txn.commit().is_ok() {
        'S'
    } else {
        'C'
    }
}

/// Runs: remote op first, then the local op inside HTM. Returns 'S' if
/// the local op (and commit) succeeds.
fn remote_first(local_write: bool, remote_write: bool) -> char {
    let s = setup();
    let qp = s.cluster.qp(1);
    if remote_write {
        ops::remote_lock_write(&qp, &s.rec, 1, 1_000, DELTA, false).unwrap();
    } else {
        ops::remote_read(&qp, &s.rec, 50_000, 1_000, DELTA, false).unwrap();
    }
    let region = s.cluster.node(0).region();
    let cfg = HtmConfig::default();
    let mut txn = region.begin(&cfg);
    let e = s.table.get_local(&mut txn, 1).unwrap().unwrap();
    let ok = if local_write {
        ops::local_write(&mut txn, e.offset, b"w", 1_000, DELTA).is_ok()
    } else {
        ops::local_read(&mut txn, e.offset).is_ok()
    };
    if ok && txn.commit().is_ok() {
        'S'
    } else {
        'C'
    }
}

fn main() {
    banner("tab2", "conflict matrix between local and distributed transactions");
    println!("(paper Table 2: columns = remote op & order; S = share, C = conflict)");
    row(&[
        "".into(),
        "R_RD after".into(),
        "R_RD before".into(),
        "R_WR after".into(),
        "R_WR before".into(),
    ]);
    let l_rd = [
        local_first(false, false),
        remote_first(false, false),
        local_first(false, true),
        remote_first(false, true),
    ];
    let l_wr = [
        local_first(true, false),
        remote_first(true, false),
        local_first(true, true),
        remote_first(true, true),
    ];
    row(&["L_RD".into(), l_rd[0].into(), l_rd[1].into(), l_rd[2].into(), l_rd[3].into()]);
    row(&["L_WR".into(), l_wr[0].into(), l_wr[1].into(), l_wr[2].into(), l_wr[3].into()]);
    // Paper values: L_RD row = C S C C ... with the first C being the
    // false conflict of Figure 2(b); L_WR row = C C C C.
    assert_eq!(l_rd, ['C', 'S', 'C', 'C'], "L_RD row must match Table 2");
    assert_eq!(l_wr, ['C', 'C', 'C', 'C'], "L_WR row must match Table 2");
    println!("matches paper Table 2 (incl. the false L_RD/R_RD conflict)");
}
