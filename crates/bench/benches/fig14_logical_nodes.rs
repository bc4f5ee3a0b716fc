//! Figure 14: scale-out emulation with logical nodes (4 workers each).
//!
//! The paper overcomes its 6-machine cluster by running multiple logical
//! DrTM nodes per machine; this simulation does the same thing natively.

use drtm_bench::runners::tpcc_run_with;
use drtm_bench::{banner, mops, row, scaled};
use drtm_workloads::tpcc::TpccConfig;

fn main() {
    banner("fig14", "TPC-C throughput vs logical nodes (4 workers each)");
    let iters = scaled(200, 40);
    let warmup = iters / 5;
    row(&["nodes".into(), "new-order".into(), "std-mix".into()]);
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
        row(&[nodes.to_string(), mops(rep.throughput_of("new_order")), mops(rep.throughput())]);
    }
    assert!(
        curve.last().expect("points") > &(curve[0] * 6.0),
        "throughput must keep growing to 24 logical nodes (paper: 5.38M std-mix)"
    );
}
