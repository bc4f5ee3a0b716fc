//! HTM read-set capacity ablation: the TPC-C standard mix with the read
//! limit swept from 64 lines to the default 4 096 (write limit at its
//! default 400).
//!
//! Local records are looked up inside the transaction's own region, so a
//! region's read set is its records *plus* the bucket lines of every
//! walk: new-order reads ≈ 70–100 lines where it used to read ≈ 45. This
//! harness says where that starts to matter — per point the capacity
//! aborts per thousand operations, the share of read-write transactions
//! that committed through the ordered-2PL fallback, and the standard-mix
//! throughput — and holds the default limit to no capacity abort at all
//! (EXPERIMENTS.md "Read-set capacity" compares the knee with the two
//! claims of PAPERS.md: small fixed read sets suffice; reads are cheap
//! to track, writes are not).

use std::sync::Arc;

use drtm_bench::ledger::{cell, quiet, text, tput, Kind, Ledger};
use drtm_bench::{banner, f, row, scaled};
use drtm_workloads::driver::{diagnosed, run};
use drtm_workloads::tpcc::{Tpcc, TpccConfig};

const NODES: usize = 2;
const WORKERS: usize = 4;

fn main() {
    banner("ablate_capacity", "TPC-C standard mix vs HTM read-set limit");
    let wall = std::time::Instant::now();
    let mut ledger = Ledger::new("ablate_capacity");
    let iters = scaled(300, 40);
    let warmup = iters / 5;
    row(&["read lines".into(), "cap aborts/kop".into(), "fallback %".into(), "std-mix".into()]);
    let mut knee = None;
    for lines in [64usize, 128, 256, 512, 1_024, 4_096] {
        let mut cfg = TpccConfig {
            nodes: NODES,
            workers: WORKERS,
            customers_per_district: 60,
            items: 800,
            max_new_orders_per_node: WORKERS * 2_500,
            region_size: 96 << 20,
            ..Default::default()
        };
        cfg.drtm.htm.read_capacity_lines = lines;
        let t = Arc::new(Tpcc::build(cfg));
        let t2 = t.clone();
        let (rep, diag) = diagnosed(&t.sys, || {
            run(
                NODES,
                WORKERS,
                iters,
                move |node, wid| {
                    let mut w = t2.worker(node, wid);
                    move |_| w.run_one()
                },
                warmup,
            )
        });
        assert!(t.check_ytd_consistency() && t.check_order_consistency(), "read limit {lines}");
        // The diagnostics window spans the warmup operations too.
        let ops = (iters + warmup) * (NODES * WORKERS) as u64;
        let aborts = 1e3 * diag.htm.capacity_aborts as f64 / ops as f64;
        let fallback = 100.0 * diag.txn.fallback_committed as f64 / diag.txn.committed as f64;
        if aborts == 0.0 && knee.is_none() {
            knee = Some(lines);
        }
        ledger.row(
            iters,
            [
                text(lines),
                cell(format!("capacity_aborts_per_kop_{lines}"), Kind::Count, aborts, f(aborts)),
                cell(format!("fallback_pct_{lines}"), Kind::Count, fallback, f(fallback)),
                tput(format!("std_mix_{lines}_mops"), rep.throughput()),
            ],
        );
        if lines == 4_096 {
            assert_eq!(diag.htm.capacity_aborts, 0, "the default read limit must fit the mix");
        }
    }
    println!(
        "no capacity abort from {} read lines up (default: 4096)",
        knee.expect("the default limit has none")
    );
    ledger.row(iters, [quiet("wall_s", Kind::Host, wall.elapsed().as_secs_f64())]);
    ledger.write();
}
