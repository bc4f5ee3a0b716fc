//! Table 3 ablation: one-sided remote writes vs. shipping updates.
//!
//! Pilaf and FaRM-KV ship PUTs to the host over two-sided messaging;
//! DrTM-KV performs remote writes with one-sided WRITE under its RDMA
//! lock (§5.1 calls this the decoupled design's payoff: "This choice
//! sacrifices the throughput and latency of updates ... which are also
//! common operations in remote accesses for distributed transactions").
//! This harness measures a remote update through both paths on the same
//! table.

use std::sync::Arc;

use drtm_bench::ledger::{cell, text, Kind, Ledger};
use drtm_bench::{f, mops, scaled};
use drtm_htm::{vtime, Executor, HtmConfig, HtmStats};
use drtm_memstore::{
    rpc::{ship_store_op, spawn_store_service, StoreOp, StoreReply},
    Arena, ClusterHash, LookupResult,
};
use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};

fn main() {
    let mut ledger =
        Ledger::new("ablate_write_path", "remote updates: one-sided WRITE vs shipped PUT");
    let keys = scaled(20_000, 2_000);
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        region_size: 64 << 20,
        profile: LatencyProfile::rdma(),
        ..Default::default()
    });
    let mut arena = Arena::new(64, (64 << 20) - 64);
    let table =
        Arc::new(ClusterHash::create(&mut arena, 0, keys as usize / 4, 2 * keys as usize, 64));
    let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
    let region = cluster.node(0).region();
    for k in 0..keys {
        table.insert(&exec, region, k, &[7u8; 64]).unwrap();
    }
    let _svc = spawn_store_service(cluster.clone(), 0, vec![table.clone()], exec.clone());
    let qp = cluster.qp(1);
    let n = scaled(20_000, 2_000);

    // Path 1: one-sided update — lookup (cached geometry: direct entry
    // write once the address is known), WRITE value + version.
    let addr = match table.remote_lookup(&qp, 1) {
        LookupResult::Found { addr, .. } => addr,
        _ => unreachable!("populated"),
    };
    vtime::take();
    for i in 0..n {
        table.remote_write_value(&qp, addr, i as u32 + 1, &[9u8; 64]);
    }
    let one_sided_ns = vtime::take();

    // Path 2: shipping the update to the host over SEND/RECV verbs
    // (delete + insert — the host-side mutation path the baselines use).
    vtime::take();
    for _ in 0..n / 10 {
        // Shipping is slow; fewer iterations suffice for a stable mean.
        let r = ship_store_op(&qp, 0, 600, &StoreOp::Delete { table: 0, key: 2 });
        assert!(matches!(r, Ok(StoreReply::Ok | StoreReply::NotFound)));
        let put = StoreOp::Insert { table: 0, key: 2, value: vec![9u8; 64] };
        assert_eq!(ship_store_op(&qp, 0, 600, &put), Ok(StoreReply::Ok));
    }
    let shipped_ns = vtime::take();

    let one_sided_us = one_sided_ns as f64 / n as f64 / 1e3;
    let shipped_us = shipped_ns as f64 / (n / 10) as f64 / 2.0 / 1e3;
    ledger.row(n, ["path", "µs/update", "Mops (1 thread)"].map(text));
    for (path, point, us, ops) in [
        ("one-sided WRITE", "one_sided_us", one_sided_us, n),
        ("shipped PUT", "shipped_us", shipped_us, n / 10),
    ] {
        let per_update = cell(point, Kind::Virtual, us, f(us));
        ledger.row(ops, [text(path), per_update, text(mops(1e9 / (us * 1e3)))]);
    }
    let x = shipped_us / one_sided_us;
    let ratio = cell("shipped_over_one_sided_x", Kind::Virtual, x, f(x));
    ledger.row(n, [text("shipped/WRITE"), ratio]);
    println!(
        "one-sided remote updates are {x:.1}x cheaper — the §5.1 motivation for \
         decoupling race detection from the table design"
    );
    assert!(shipped_us > one_sided_us, "shipping must cost more than one-sided WRITE");
    ledger.write();
}
