//! Figure 11: false aborts caused by the softtime timer thread, and the
//! reuse-start-softtime optimisation (§6.1).
//!
//! The micro read-write transaction (which holds leases, so commit-time
//! confirmation reads softtime inside the HTM region) runs under the
//! naive per-op strategy vs the paper's reuse-start strategy, across
//! timer update intervals. The per-op strategy suffers conflict aborts
//! from every timer tick; reuse-start narrows the window to the
//! confirmation only, and purely local transactions never touch softtime.

use drtm_bench::{banner, mops, row, scaled};
use drtm_core::SofttimeStrategy;
use drtm_workloads::driver::run;
use drtm_workloads::micro::{Micro, MicroConfig};
use std::sync::Arc;

fn run_one(strategy: SofttimeStrategy, interval_us: u64, iters: u64) -> (f64, f64) {
    let mut cfg = MicroConfig {
        nodes: 2,
        workers: 4,
        records_per_node: 20_000,
        accesses: 10,
        remote_prob: 0.3, // plenty of leases -> confirmations
        read_lease: true,
        hot_records: 64,
        region_size: 32 << 20,
        softtime_interval_us: interval_us,
        ..Default::default()
    };
    cfg.drtm.softtime = strategy;
    let m = Arc::new(Micro::build(cfg));
    let built = m.sys.htm_stats().snapshot();
    let m2 = m.clone();
    let rep = run(
        2,
        4,
        iters,
        move |node, wid| {
            let mut w = m2.worker(node, wid);
            move |_| w.read_write(6)
        },
        iters / 5,
    );
    let snap = m.sys.htm_stats().snapshot().since(&built);
    // Timer interference shows up as HTM *conflict* aborts (the timer's
    // store invalidates the softtime line in the read set); explicit and
    // capacity aborts come from the protocol itself.
    let conflict_rate = snap.conflict_aborts as f64 / (snap.commits.max(1)) as f64;
    (rep.throughput(), conflict_rate)
}

fn main() {
    banner("fig11", "softtime strategies: timer-induced false aborts");
    let iters = scaled(400, 60);
    row(&[
        "interval µs".into(),
        "per-op tput".into(),
        "per-op conf%".into(),
        "reuse tput".into(),
        "reuse conf%".into(),
    ]);
    let mut perop_fast = Vec::new();
    let mut reuse_fast = Vec::new();
    for interval in [50u64, 200, 1_000, 5_000] {
        let (t1, a1) = run_one(SofttimeStrategy::PerOp, interval, iters);
        let (t2, a2) = run_one(SofttimeStrategy::ReuseStart, interval, iters);
        if interval <= 200 {
            perop_fast.push(a1);
            reuse_fast.push(a2);
        }
        row(&[
            interval.to_string(),
            mops(t1),
            format!("{:.2}", a1 * 100.0),
            mops(t2),
            format!("{:.2}", a2 * 100.0),
        ]);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (p, r) = (mean(&perop_fast), mean(&reuse_fast));
    println!(
        "fast-timer mean abort rate: per-op {:.2}% vs reuse-start {:.2}%",
        p * 100.0,
        r * 100.0
    );
    assert!(
        r <= p * 1.5,
        "reuse-start must not abort substantially more than per-op under fast timers"
    );
}
