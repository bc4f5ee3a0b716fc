//! §6.3 ablation: RDMA-atomics coherence level.
//!
//! On the paper's NIC (`IBV_ATOMIC_HCA`), read-only transactions and the
//! fallback handler must lock even *local* records with loopback RDMA
//! CAS (~14.5 µs on their hardware) instead of CPU CAS (~0.08 µs); the
//! paper measures ~15 % TPC-C throughput left on the table. A GLOB-level
//! NIC removes that cost. Order-status is the most lease-heavy part of
//! the mix, so this harness raises its share to make the effect visible
//! at small scale.

use drtm_bench::ledger::{cell, text, tput, Kind, Ledger};
use drtm_bench::scaled;
use drtm_rdma::AtomicityLevel;
use drtm_workloads::driver::run;
use drtm_workloads::tpcc::{Tpcc, TpccConfig};
use std::sync::Arc;

fn run_one(atomicity: AtomicityLevel, iters: u64) -> f64 {
    let cfg = TpccConfig {
        nodes: 2,
        workers: 4,
        customers_per_district: 60,
        items: 800,
        max_new_orders_per_node: 4 * 2_500,
        region_size: 96 << 20,
        atomicity,
        ..Default::default()
    };
    let t = Arc::new(Tpcc::build(cfg));
    let t2 = t.clone();
    let rep = run(
        2,
        4,
        iters,
        move |node, wid| {
            let mut w = t2.worker(node, wid);
            let mut i = 0u64;
            move |_| {
                i += 1;
                // 20 % order-status (read-only, lease-heavy) + standard
                // mix, to surface the local-CAS effect at small scale.
                if i.is_multiple_of(5) {
                    w.try_order_status().map(|_| "order_status").expect("no machine crashes here")
                } else {
                    w.run_one()
                }
            }
        },
        iters / 5,
    );
    rep.throughput()
}

fn main() {
    let mut ledger =
        Ledger::new("ablate_atomicity", "IBV_ATOMIC_HCA vs GLOB (RO/fallback local locking)");
    // At 400 operations per worker the two levels' throughputs overlapped
    // (one run in eighteen had HCA ahead); at 1 600 they are apart.
    let iters = scaled(1_600, 60);
    let hca = run_one(AtomicityLevel::Hca, iters);
    let glob = run_one(AtomicityLevel::Glob, iters);
    ledger.row(iters, ["level", "tput (Mtxn/s)"].map(text));
    ledger.row(iters, [text("HCA"), tput("hca_mops", hca)]);
    ledger.row(iters, [text("GLOB"), tput("glob_mops", glob)]);
    // §6.3: HCA-level atomics cost ~15 % of TPC-C throughput.
    let loss = 100.0 * (1.0 - hca / glob);
    let shown = format!("{loss:.1}");
    let loss_cell = cell("hca_loss_pct", Kind::Virtual, loss, shown).paper(15.0);
    ledger.row(iters, [text("HCA loss %"), loss_cell]);
    assert!(glob > hca, "CPU CAS for local records must be faster than loopback RDMA CAS");
    ledger.write();
}
