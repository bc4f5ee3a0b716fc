//! Workload runners shared by the TPC-C / SmallBank / micro harnesses.

use std::sync::Arc;

use rand::Rng;

use drtm_calvin::{Calvin, CalvinConfig, CalvinTxn};
use drtm_core::StatsReport;
use drtm_workloads::dist::rng;
use drtm_workloads::driver::{diagnosed, run, run_dedicated, Report};
use drtm_workloads::micro::{Micro, MicroConfig};
use drtm_workloads::smallbank::{SmallBank, SmallBankConfig};
use drtm_workloads::tpcc::{Tpcc, TpccConfig};

/// Builds a TPC-C deployment and runs the standard mix. Returns the
/// run's report and the joined diagnostics report (transaction/HTM/RDMA
/// counters, abort causes, per-phase breakdown) diffed across it.
pub fn tpcc_run_with(cfg: TpccConfig, iters: u64, warmup: u64) -> (Report, StatsReport) {
    let nodes = cfg.nodes;
    let workers = cfg.workers;
    let t = Arc::new(Tpcc::build(cfg));
    let t2 = t.clone();
    diagnosed(&t.sys, || {
        run(
            nodes,
            workers,
            iters,
            move |node, wid| {
                let mut w = t2.worker(node, wid);
                move |_| w.run_one()
            },
            warmup,
        )
    })
}

/// Builds a TPC-C deployment and runs only new-order transactions.
pub fn tpcc_run_new_order(cfg: TpccConfig, iters: u64, warmup: u64) -> (Report, Arc<Tpcc>) {
    let nodes = cfg.nodes;
    let workers = cfg.workers;
    let t = Arc::new(Tpcc::build(cfg));
    let t2 = t.clone();
    let r = run(
        nodes,
        workers,
        iters,
        move |node, wid| {
            let mut w = t2.worker(node, wid);
            move |_| w.try_new_order().map(|_| "new_order").expect("new-order hit a crashed node")
        },
        warmup,
    );
    (r, t)
}

/// Builds a SmallBank deployment and runs the standard mix; returns the
/// run's report and the joined diagnostics report.
pub fn smallbank_run_with(cfg: SmallBankConfig, iters: u64, warmup: u64) -> (Report, StatsReport) {
    let nodes = cfg.nodes;
    let workers = cfg.workers;
    let sb = Arc::new(SmallBank::build(cfg));
    let sb2 = sb.clone();
    diagnosed(&sb.sys, || {
        run(
            nodes,
            workers,
            iters,
            move |node, wid| {
                let mut w = sb2.worker(node, wid);
                move |_| w.run_one()
            },
            warmup,
        )
    })
}

/// Builds a micro deployment and runs `read_write(reads)` or, when
/// `hotspot` is set, the hotspot transaction; returns the run's report
/// and the joined diagnostics report (the Start-phase conflict causes
/// are the read-lease mechanism's direct signal).
///
/// Runs with a dedicated OS thread per worker: leases expire in wall
/// time, so the lease signal needs all workers' waits genuinely
/// overlapping (see `run_dedicated`).
pub fn micro_run_with(
    cfg: MicroConfig,
    reads: usize,
    hotspot: bool,
    iters: u64,
    warmup: u64,
) -> (Report, StatsReport) {
    let nodes = cfg.nodes;
    let workers = cfg.workers;
    let m = Arc::new(Micro::build(cfg));
    let m2 = m.clone();
    diagnosed(&m.sys, || {
        run_dedicated(
            nodes,
            workers,
            iters,
            move |node, wid| {
                let mut w = m2.worker(node, wid);
                move |_| if hotspot { w.hotspot() } else { w.read_write(reads) }
            },
            warmup,
        )
    })
}

/// Generates `n` standard-mix Calvin transactions (same probabilities as
/// the DrTM TPC-C worker) for warehouses owned by all nodes.
pub fn calvin_mix(
    cfg: &CalvinConfig,
    n: usize,
    seed: u64,
    cross_no: f64,
    cross_pay: f64,
) -> Vec<CalvinTxn> {
    let mut r = rng(seed);
    let whs = cfg.warehouses();
    (0..n)
        .map(|_| {
            let w = r.gen_range(0..whs);
            match r.gen_range(0..100u32) {
                0..=44 => {
                    let ol = r.gen_range(5..=15);
                    let mut seen = std::collections::HashSet::new();
                    let lines = (0..ol)
                        .map(|_| {
                            let i = loop {
                                let i = r.gen_range(0..cfg.items);
                                if seen.insert(i) {
                                    break i;
                                }
                            };
                            let supply = if whs > 1 && r.gen_bool(cross_no) {
                                let mut s = r.gen_range(0..whs);
                                if s == w {
                                    s = (s + 1) % whs;
                                }
                                s
                            } else {
                                w
                            };
                            (i, supply, r.gen_range(1..=10))
                        })
                        .collect();
                    CalvinTxn::NewOrder {
                        w,
                        d: r.gen_range(0..cfg.districts),
                        c: r.gen_range(0..cfg.customers_per_district),
                        lines,
                    }
                }
                45..=87 => {
                    let (c_w, c_d) = if whs > 1 && r.gen_bool(cross_pay) {
                        let mut cw = r.gen_range(0..whs);
                        if cw == w {
                            cw = (cw + 1) % whs;
                        }
                        (cw, r.gen_range(0..cfg.districts))
                    } else {
                        (w, r.gen_range(0..cfg.districts))
                    };
                    CalvinTxn::Payment {
                        w,
                        d: r.gen_range(0..cfg.districts),
                        c_w,
                        c_d,
                        c: r.gen_range(0..cfg.customers_per_district),
                        h: r.gen_range(100..=500_000),
                    }
                }
                88..=91 => CalvinTxn::OrderStatus {
                    w,
                    d: r.gen_range(0..cfg.districts),
                    c: r.gen_range(0..cfg.customers_per_district),
                },
                92..=95 => CalvinTxn::Delivery { w, carrier: r.gen_range(1..=10) },
                _ => CalvinTxn::StockLevel {
                    w,
                    d: r.gen_range(0..cfg.districts),
                    threshold: r.gen_range(10..=20),
                },
            }
        })
        .collect()
}

/// Runs `epochs` sequencer epochs of `per_epoch` standard-mix txns and
/// returns `(standard-mix tps, new-order tps, latencies by label)`.
pub fn calvin_run(
    mut calvin: Calvin,
    epochs: usize,
    per_epoch: usize,
    cross_no: f64,
    cross_pay: f64,
) -> (f64, f64, Vec<(&'static str, u64)>) {
    let mut total = 0u64;
    let mut new_orders = 0u64;
    let mut lats = Vec::new();
    for e in 0..epochs {
        let txns = calvin_mix(&calvin.cfg, per_epoch, e as u64, cross_no, cross_pay);
        let rep = calvin.run_epoch(&txns);
        total += rep.executed as u64;
        new_orders += rep.latencies.iter().filter(|(l, _)| *l == "new_order").count() as u64;
        lats.extend(rep.latencies);
    }
    let secs = calvin.now_ns() as f64 / 1e9;
    (total as f64 / secs, new_orders as f64 / secs, lats)
}
