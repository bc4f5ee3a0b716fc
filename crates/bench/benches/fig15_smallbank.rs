//! Figure 15: SmallBank throughput with increasing machines and threads
//! at different distributed-transaction probabilities (1/5/10 % for the
//! two-account transactions).

use drtm_bench::ledger::{quiet, text, tput, Kind, Ledger};
use drtm_bench::runners::smallbank_run_with;
use drtm_bench::{scaled, stats_cells};
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
    let mut ledger = Ledger::new("fig15_smallbank", "SmallBank throughput (std-mix)");
    let wall = std::time::Instant::now();
    // Every leg runs the same total (the widest legs a little more), so
    // a leg of few workers runs each of them longer: a SmallBank
    // worker's virtual time is a handful of lease waits, each worth a
    // hundred transactions, and at the 24-worker leg's per-worker count
    // the 4-worker legs did not repeat (EXPERIMENTS.md, "How the bands
    // were measured").
    let total = 24_000u64;
    let iters_of =
        |nodes: usize, workers: usize| scaled((total / (nodes * workers) as u64).max(500), 150);
    println!("-- machines sweep (4 workers each) --");
    ledger.row(total, ["machines", "1% dist", "5% dist", "10% dist"].map(text));
    let mut one_pct = Vec::new();
    for nodes in 1..=6usize {
        let iters = iters_of(nodes, 4);
        let mut cells = vec![text(nodes)];
        for p in [0.01, 0.05, 0.10] {
            let (rep, diag) = smallbank_run_with(cfg(nodes, 4, p), iters, iters / 5);
            if p == 0.01 {
                one_pct.push(rep.throughput());
                if nodes == 6 {
                    cells.extend(stats_cells(&diag));
                }
            }
            cells.push(tput(format!("{nodes}n_{}pct_mops", (p * 100.0) as u32), rep.throughput()));
        }
        ledger.row(iters, cells);
    }
    // The paper's claim is the curve's shape: 4.52x from 1 machine to 6.
    let machines_x = one_pct[5] / one_pct[0];
    ledger.row(total, [quiet("machines_speedup_x", Kind::Virtual, machines_x).paper(4.52)]);
    assert!(machines_x > 2.5, "low-distribution SmallBank must scale with machines");

    println!("-- threads sweep (6 machines, 1% dist) --");
    ledger.row(total, ["threads", "std-mix"].map(text));
    let mut base = 0.0;
    let mut last = 0.0;
    for workers in [1usize, 2, 4, 8, 16] {
        let iters = iters_of(6, workers);
        let (rep, _) = smallbank_run_with(cfg(6, workers, 0.01), iters, iters / 5);
        last = rep.throughput();
        if workers == 1 {
            base = last;
        }
        // The paper's peak, 138 M, is this sweep's last point.
        let paper = (workers == 16).then_some(138.0);
        ledger.row(
            iters,
            [text(workers), tput(format!("threads_{workers}_mops"), last).paper(paper)],
        );
    }
    println!("threads speedup: {:.2}x (paper: 10.85x at 16 threads)", last / base);
    assert!(last > base * 4.0, "SmallBank must scale with threads");
    ledger.row(
        total,
        [
            // The peak against the paper's, not only the curves' shapes.
            quiet("threads_16_vs_paper_x", Kind::Virtual, last / 138e6),
            quiet("threads_speedup_x", Kind::Virtual, last / base).paper(10.85),
            quiet("wall_s", Kind::Host, wall.elapsed().as_secs_f64()),
        ],
    );
    ledger.write();
}
