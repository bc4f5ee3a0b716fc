//! Figure 13: TPC-C throughput with increasing worker threads on a
//! 6-machine cluster, including the DrTM(S) socket-split variant (two
//! logical nodes per machine, §7.2 "horizontal scaling").

use drtm_bench::ledger::{cell, text, tput, Kind, Ledger};
use drtm_bench::runners::tpcc_run_with;
use drtm_bench::scaled;
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
    let mut ledger = Ledger::new("fig13_tpcc_threads", "TPC-C throughput vs threads (6 machines)");
    let iters = scaled(220, 40);
    let warmup = iters / 5;
    ledger.row(iters, ["threads", "variant", "new-order", "std-mix"].map(text));
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
        let new_order = tput(format!("new_order_{workers}t_mops"), rep.throughput_of("new_order"));
        let std_mix = tput(format!("std_mix_{workers}t_mops"), std_mix);
        ledger.row(iters, [text(workers), text("DrTM"), new_order, std_mix]);
    }
    // DrTM(S): two logical nodes per machine, 8 workers each = 16
    // threads per physical machine (12 logical nodes total).
    let (rep, _) = tpcc_run_with(cfg(12, 8), iters, warmup);
    let new_order = tput("s_new_order_16t_mops", rep.throughput_of("new_order"));
    let std_mix = tput("s_std_mix_16t_mops", rep.throughput()).paper(5.52);
    ledger.row(iters, [text(16), text("DrTM(S)"), new_order, std_mix]);
    let speedup8 = at8 / base1;
    let speedup16 = rep.throughput() / base1;
    let x = |point: &str, v: f64| cell(point, Kind::Virtual, v, format!("{v:.2}x"));
    let speedups =
        [x("speedup_8t_x", speedup8).paper(5.56), x("s_speedup_16t_x", speedup16).paper(8.29)];
    ledger.row(iters, [text("speedup"), text("8 / DrTM(S)")].into_iter().chain(speedups));
    assert!(speedup8 > 3.0, "threads must scale within a socket (paper: 5.56x)");
    assert!(speedup16 > speedup8, "DrTM(S) must extend scaling (paper: 8.29x)");
    ledger.write();
}
