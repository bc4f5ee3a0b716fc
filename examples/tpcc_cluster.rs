//! TPC-C on a simulated 3-machine cluster.
//!
//! Runs the standard five-transaction mix, prints per-type counts and
//! new-order throughput, and verifies two TPC-C consistency conditions
//! afterwards.
//!
//! Run with: `cargo run --release --example tpcc_cluster`

use std::sync::Arc;

use drtm::txn::AbortCause;
use drtm::workloads::driver::run;
use drtm::workloads::tpcc::{Tpcc, TpccConfig};

fn main() {
    let cfg = TpccConfig {
        nodes: 3,
        workers: 2,
        customers_per_district: 60,
        items: 1_000,
        max_new_orders_per_node: 2 * 1_500,
        region_size: 96 << 20,
        ..Default::default()
    };
    println!(
        "building TPC-C: {} nodes x {} workers ({} warehouses) ...",
        cfg.nodes,
        cfg.workers,
        cfg.warehouses()
    );
    let t = Arc::new(Tpcc::build(cfg));

    let t2 = t.clone();
    let report = run(
        3,
        2,
        400,
        move |node, wid| {
            let mut w = t2.worker(node, wid);
            move |_| w.run_one()
        },
        50,
    );

    println!("\ncounts: {:?}", report.counts());
    println!(
        "standard-mix throughput: {:.2} M txn/s; new-order: {:.2} M txn/s (virtual time)",
        report.throughput() / 1e6,
        report.throughput_of("new_order") / 1e6
    );
    println!(
        "new-order latency p50/p90/p99: {:?} µs",
        report.latency_percentiles_us(Some("new_order"), &[0.5, 0.9, 0.99])
    );

    print!("checking consistency: W_YTD = sum(D_YTD) ... ");
    assert!(t.check_ytd_consistency());
    println!("ok");
    print!("checking consistency: order ids vs district counters ... ");
    assert!(t.check_order_consistency());
    println!("ok");

    let stats = t.sys.stats_report();
    println!(
        "committed={} (fallback={}), user aborts={} (~1% of new-orders)",
        stats.txn.committed,
        stats.txn.fallback_committed,
        stats.causes.get(AbortCause::UserAbort)
    );
}
