//! Figure 15: SmallBank throughput with increasing machines and threads
//! at different distributed-transaction probabilities (1/5/10 % for the
//! two-account transactions).

use drtm_bench::report::{causes_of, rdma_ops_per_txn, BenchReport};
use drtm_bench::runners::smallbank_run_with;
use drtm_bench::{banner, mops, row, scaled};
use drtm_workloads::smallbank::SmallBankConfig;

fn cfg(nodes: usize, workers: usize, dist_prob: f64) -> SmallBankConfig {
    SmallBankConfig {
        nodes,
        workers,
        accounts_per_node: 5_000,
        hot_per_node: 100,
        hot_prob: 0.25,
        dist_prob,
        region_size: 24 << 20,
        ..Default::default()
    }
}

fn main() {
    banner("fig15", "SmallBank throughput (std-mix)");
    let wall = std::time::Instant::now();
    let iters = scaled(1_000, 150);
    let warmup = iters / 5;
    let mut json = BenchReport::new("fig15_smallbank", 0.0, 0.0);
    println!("-- machines sweep (4 workers each) --");
    row(&["machines".into(), "1% dist".into(), "5% dist".into(), "10% dist".into()]);
    let mut one_pct = Vec::new();
    for nodes in 1..=6usize {
        let mut cols = vec![nodes.to_string()];
        for p in [0.01, 0.05, 0.10] {
            let tput = if p == 0.01 {
                let (rep, diag) = smallbank_run_with(cfg(nodes, 4, p), iters, warmup);
                if nodes == 6 {
                    json.throughput = rep.throughput();
                    json.aborts_per_cause = causes_of(&diag);
                    json.rdma_ops_per_txn = rdma_ops_per_txn(&diag);
                }
                one_pct.push(rep.throughput());
                rep.throughput()
            } else {
                smallbank_run_with(cfg(nodes, 4, p), iters, warmup).0.throughput()
            };
            json.push_extra(&format!("{nodes}n_{}pct_mops", (p * 100.0) as u32), tput / 1e6);
            cols.push(mops(tput));
        }
        row(&cols);
    }
    assert!(
        one_pct.last().expect("points") > &(one_pct[0] * 2.5),
        "low-distribution SmallBank must scale with machines (paper: 4.52x on 6)"
    );

    println!("-- threads sweep (6 machines, 1% dist) --");
    row(&["threads".into(), "std-mix".into()]);
    let mut base = 0.0;
    let mut last = 0.0;
    for workers in [1usize, 2, 4, 8, 16] {
        let (rep, _) = smallbank_run_with(cfg(6, workers, 0.01), iters, warmup);
        last = rep.throughput();
        if workers == 1 {
            base = last;
        }
        json.push_extra(&format!("threads_{workers}_mops"), last / 1e6);
        row(&[workers.to_string(), mops(last)]);
    }
    println!("threads speedup: {:.2}x (paper: 10.85x at 16 threads)", last / base);
    assert!(last > base * 4.0, "SmallBank must scale with threads");
    json.push_extra("threads_speedup_x", last / base);
    json.wall_seconds = wall.elapsed().as_secs_f64();
    json.write();
}
