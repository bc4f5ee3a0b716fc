//! Abort diagnosis: provoke an abort storm and read the trace.
//!
//! Machine 1 parks an RDMA write lock on a hot record while a worker on
//! machine 0 keeps trying to update it. Every failed attempt is
//! attributed to an [`AbortCause`] and recorded in the worker's trace
//! ring; the cluster-wide `StatsReport` breaks the same window down by
//! cause, phase and RDMA verb. This is the workflow EXPERIMENTS.md
//! ("Diagnosing abort storms") walks through.
//!
//! Run with: `cargo run --example abort_diagnosis`

use std::time::Duration;

use drtm::memstore::LookupResult;
use drtm::rdma::ClusterConfig;
use drtm::txn::{record_ops, Deployment, DrTmConfig, RecordAddr, TxnSpec, SOFTTIME_INTERVAL};

const VAL_CAP: usize = 16;

fn main() {
    // Small trace rings so the storm visibly wraps them.
    let cfg = DrTmConfig { trace_capacity: 8, start_retries: 3, ..Default::default() };
    let cluster = ClusterConfig { nodes: 2, region_size: 16 << 20, ..Default::default() };
    let mut dep = Deployment::new(cluster, cfg, 1);
    let tables = dep.hash(64, 256, VAL_CAP);
    for n in dep.nodes() {
        for k in 0..8u64 {
            tables[n as usize].insert(dep.exec(), dep.region(n), k, &100u64.to_le_bytes()).unwrap();
        }
    }
    let sys = dep.start(SOFTTIME_INTERVAL);

    // The hot record: key 3 on machine 1.
    let qp = sys.cluster().qp(0);
    let hot = match tables[1].remote_lookup(&qp, 3) {
        LookupResult::Found { addr, .. } => RecordAddr::new(addr, VAL_CAP),
        _ => unreachable!("key 3 was inserted above"),
    };

    std::thread::scope(|s| {
        // Machine 1 parks a write lock on the hot record for 20 ms.
        let sys2 = &sys;
        s.spawn(move || {
            let qp = sys2.cluster().qp(1);
            let now = drtm::txn::softtime_nt(sys2.cluster().node(1).region());
            record_ops::remote_lock_write(&qp, &hot, 1, now, 100, false)
                .expect("lock must be free");
            std::thread::sleep(Duration::from_millis(20));
            record_ops::remote_unlock(&qp, &hot, false).expect("no failure is injected");
        });
        std::thread::sleep(Duration::from_millis(5));

        // Machine 0 hammers it: each attempt exhausts its Start retries
        // against the parked lock, then waits in the fallback path.
        let mut w = sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![hot], ..Default::default() };
        for _ in 0..3 {
            w.execute(&spec, |ctx| {
                let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
                ctx.remote_write(0, (v + 1).to_le_bytes().to_vec());
                Ok(())
            })
            .expect("fallback eventually commits");
        }
    });

    // 1. The ring dump: the last few events, newest last, with drops.
    println!("{}", sys.trace_dump());
    // 2. The cluster-wide report: causes, phases, verbs in one place.
    println!("{}", sys.stats_report());
}
