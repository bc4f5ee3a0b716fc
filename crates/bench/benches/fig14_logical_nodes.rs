//! Figure 14: scale-out emulation with logical nodes (4 workers each).
//!
//! The paper overcomes its 6-machine cluster by running multiple logical
//! DrTM nodes per machine; this simulation does the same thing natively.

use drtm_bench::ledger::{cell, text, tput, Kind, Ledger};
use drtm_bench::runners::tpcc_run_with;
use drtm_bench::scaled;
use drtm_workloads::tpcc::TpccConfig;

fn main() {
    let mut ledger =
        Ledger::new("fig14_logical_nodes", "TPC-C throughput vs logical nodes (4 workers each)");
    let iters = scaled(200, 40);
    let warmup = iters / 5;
    ledger.row(iters, ["nodes", "new-order", "std-mix"].map(text));
    let mut curve = Vec::new();
    for nodes in [1usize, 2, 4, 8, 16, 24] {
        let cfg = TpccConfig {
            nodes,
            workers: 4,
            customers_per_district: 40,
            items: 600,
            max_new_orders_per_node: 4 * 2_000,
            region_size: 72 << 20,
            ..Default::default()
        };
        let (rep, _) = tpcc_run_with(cfg, iters, warmup);
        curve.push(rep.throughput());
        // The paper's 24 logical nodes reach 2.42 M new-order, 5.38 M std-mix.
        let paper = |p: f64| (nodes == 24).then_some(p);
        let new_order = format!("new_order_{nodes}n_mops");
        let new_order = tput(new_order, rep.throughput_of("new_order")).paper(paper(2.42));
        let std_mix = tput(format!("std_mix_{nodes}n_mops"), rep.throughput()).paper(paper(5.38));
        ledger.row(iters, [text(nodes), new_order, std_mix]);
    }
    let growth = curve[curve.len() - 1] / curve[0];
    let growth = cell("std_mix_24n_over_1n_x", Kind::Virtual, growth, format!("{growth:.2}x"));
    ledger.row(iters, [text("24 / 1"), text(""), growth]);
    assert!(
        curve.last().expect("points") > &(curve[0] * 6.0),
        "throughput must keep growing to 24 logical nodes (paper: 5.38M std-mix)"
    );
    ledger.write();
}
