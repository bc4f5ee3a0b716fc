//! Figure 16: new-order throughput with increasing cross-warehouse
//! access probability (6 machines × 8 workers).
//!
//! At 1 % the workload is almost entirely HTM-local; at 100 % every
//! transaction is distributed and DrTM gets no benefit from HTM — the
//! paper reports ~15 % slowdown at 5 % remote accesses and ~85 % at
//! 100 %. The Start phase here posts the lock CAS and fetch of every
//! remote stock record and waits once, so the far end of the curve is
//! flatter than the paper's, whose prototype pays a round trip per
//! record (ledger row `slowdown_100pct_pct`; EXPERIMENTS.md, Figure 16).

use drtm_bench::ledger::{cell, quiet, text, tput, Kind, Ledger};
use drtm_bench::runners::tpcc_run_new_order;
use drtm_bench::scaled;
use drtm_workloads::tpcc::TpccConfig;

fn main() {
    let mut ledger =
        Ledger::new("fig16_cross_warehouse", "new-order throughput vs cross-warehouse probability");
    let wall = std::time::Instant::now();
    let iters = scaled(440, 40);
    let warmup = iters / 5;
    ledger.row(iters, ["cross %", "new-order tput", "slowdown"].map(text));
    let mut base = 0.0;
    let mut at5 = 0.0;
    let mut at100 = 0.0;
    for pct in [1u32, 5, 10, 25, 50, 75, 100] {
        let cfg = TpccConfig {
            nodes: 6,
            workers: 8,
            customers_per_district: 60,
            items: 1_000,
            cross_warehouse_new_order: pct as f64 / 100.0,
            max_new_orders_per_node: 8 * 2_000,
            region_size: 160 << 20,
            ..Default::default()
        };
        let (rep, _t) = tpcc_run_new_order(cfg, iters, warmup);
        let rate = rep.throughput_of("new_order");
        if pct == 1 {
            base = rate;
        }
        if pct == 5 {
            at5 = rate;
        }
        if pct == 100 {
            at100 = rate;
        }
        let slow = if base > 0.0 { 100.0 * (1.0 - rate / base) } else { 0.0 };
        // The paper quotes two points of the curve: ~15 % at 5 %, ~85 % at 100 %.
        let paper = match pct {
            5 => Some(15.0),
            100 => Some(85.0),
            _ => None,
        };
        ledger.row(
            iters,
            [
                text(format!("{pct}%")),
                tput(format!("new_order_{pct}pct_mops"), rate),
                cell(format!("slowdown_{pct}pct_pct"), Kind::Virtual, slow, format!("{slow:.1}%"))
                    .paper(paper),
            ],
        );
    }
    let slow5 = 1.0 - at5 / base;
    let slow100 = 1.0 - at100 / base;
    println!(
        "slowdown at 5%: {:.1}% (paper ~15%); at 100%: {:.1}% (paper ~85%)",
        slow5 * 100.0,
        slow100 * 100.0
    );
    assert!(slow5 < 0.45, "moderate slowdown at 5% cross-warehouse");
    assert!(slow100 > 0.3, "marked slowdown when everything is distributed");
    assert!(slow100 > slow5, "slowdown must grow with distribution");
    ledger.row(iters, [quiet("wall_s", Kind::Host, wall.elapsed().as_secs_f64())]);
    ledger.write();
}
