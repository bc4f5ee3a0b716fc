//! Figure 13: TPC-C throughput with increasing worker threads on a
//! 6-machine cluster, including the DrTM(S) socket-split variant (two
//! logical nodes per machine, §7.2 "horizontal scaling").

use drtm_bench::runners::tpcc_run_with;
use drtm_bench::{banner, mops, row, scaled};
use drtm_workloads::tpcc::TpccConfig;

fn cfg(nodes: usize, workers: usize) -> TpccConfig {
    TpccConfig {
        nodes,
        workers,
        customers_per_district: 60,
        items: 1_000,
        max_new_orders_per_node: workers * 2_000,
        region_size: (32 + workers * 20) << 20,
        ..Default::default()
    }
}

fn main() {
    banner("fig13", "TPC-C throughput vs threads (6 machines)");
    let iters = scaled(220, 40);
    let warmup = iters / 5;
    row(&["threads".into(), "variant".into(), "new-order".into(), "std-mix".into()]);
    let mut base1 = 0.0;
    let mut at8 = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let (rep, _) = tpcc_run_with(cfg(6, workers), iters, warmup);
        let std_mix = rep.throughput();
        if workers == 1 {
            base1 = std_mix;
        }
        if workers == 8 {
            at8 = std_mix;
        }
        row(&[
            workers.to_string(),
            "DrTM".into(),
            mops(rep.throughput_of("new_order")),
            mops(std_mix),
        ]);
    }
    // DrTM(S): two logical nodes per machine, 8 workers each = 16
    // threads per physical machine (12 logical nodes total).
    let (rep, _) = tpcc_run_with(cfg(12, 8), iters, warmup);
    row(&[
        "16".into(),
        "DrTM(S)".into(),
        mops(rep.throughput_of("new_order")),
        mops(rep.throughput()),
    ]);
    let speedup8 = at8 / base1;
    let speedup16 = rep.throughput() / base1;
    println!("speedup at 8 threads: {speedup8:.2}x; DrTM(S) at 16: {speedup16:.2}x");
    assert!(speedup8 > 3.0, "threads must scale within a socket (paper: 5.56x)");
    assert!(speedup16 > speedup8, "DrTM(S) must extend scaling (paper: 8.29x)");
}
