//! SmallBank on a simulated 4-machine cluster.
//!
//! Runs the full six-transaction mix from concurrent workers on every
//! machine, then verifies the conservation invariant over the conserving
//! subset and prints throughput in virtual time.
//!
//! Run with: `cargo run --release --example bank_cluster`

use std::sync::Arc;

use drtm::workloads::driver::run;
use drtm::workloads::smallbank::{SmallBank, SmallBankConfig};

fn main() {
    let cfg = SmallBankConfig {
        nodes: 4,
        workers: 2,
        accounts_per_node: 2_000,
        hot_per_node: 50,
        hot_prob: 0.25,
        dist_prob: 0.05,
        region_size: 24 << 20,
        ..Default::default()
    };
    println!(
        "building SmallBank: {} nodes x {} workers, {} accounts/node ...",
        cfg.nodes, cfg.workers, cfg.accounts_per_node
    );
    let sb = Arc::new(SmallBank::build(cfg));

    let before = sb.total_balance();
    let sb2 = sb.clone();
    let report = run(
        4,
        2,
        500,
        move |node, wid| {
            let mut w = sb2.worker(node, wid);
            move |i| {
                // Alternate the full mix with conserving-only batches so
                // the invariant below is meaningful.
                if i % 2 == 0 {
                    w.try_send_payment().unwrap();
                    "send_payment"
                } else {
                    w.run_one()
                }
            }
        },
        50,
    );

    println!("\ncounts: {:?}", report.counts());
    println!("throughput: {:.2} M txn/s (virtual time)", report.throughput() / 1e6);
    println!("latency p50/p99: {:?} µs", report.latency_percentiles_us(None, &[0.5, 0.99]));

    let after = sb.total_balance();
    println!("total balance drift: {} (bounded by deposits/withdrawals)", after.abs_diff(before));
    let stats = sb.sys.stats().snapshot();
    let htm = sb.sys.htm_stats().snapshot();
    println!(
        "committed={} (fallback={}), start conflicts={}, HTM abort rate={:.2}%",
        stats.committed,
        stats.fallback_committed,
        stats.start_conflicts,
        htm.abort_rate() * 100.0
    );
}
