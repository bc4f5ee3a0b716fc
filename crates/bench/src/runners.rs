//! Workload runners shared by the TPC-C / SmallBank / micro harnesses.

use std::convert::Infallible;
use std::sync::Arc;

use drtm_calvin::Calvin;
use drtm_core::StatsReport;
use drtm_rdma::NodeId;
use drtm_workloads::driver::{diagnosed, run, run_dedicated, Report};
use drtm_workloads::micro::{Micro, MicroConfig};
use drtm_workloads::smallbank::{SmallBank, SmallBankConfig};
use drtm_workloads::tpcc::{seed, StdMix, Tpcc, TpccConfig};

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

/// Runs the Calvin baseline for `epochs` sequencer epochs. In each one,
/// every warehouse sends `per_warehouse` requests, one warehouse after
/// the other in turn. They are the requests its DrTM worker draws
/// ([`StdMix`]), and a payment by last name finds the customer DrTM's
/// index scan finds. Returns the standard-mix throughput and every
/// request's `(label, latency ns)`.
///
/// # Panics
///
/// If TPC-C consistency condition 1 fails on the Calvin stores.
pub fn calvin_run(
    mut calvin: Calvin,
    epochs: usize,
    per_warehouse: usize,
) -> (f64, Vec<(&'static str, u64)>) {
    let cfg = calvin.cfg.clone();
    let mut mixes: Vec<StdMix> = (0..cfg.nodes as NodeId)
        .flat_map(|n| (0..cfg.workers).map(move |i| (n, i)))
        .map(|(n, i)| StdMix::new(&cfg, n, i))
        .collect();
    let by_name = |_, _, name| Ok::<_, Infallible>(seed::customer_by_name(&cfg, name));
    let mut lats = Vec::new();
    for _ in 0..epochs {
        let mut batch = Vec::with_capacity(per_warehouse * mixes.len());
        for _ in 0..per_warehouse {
            for mix in &mut mixes {
                let Ok(req) = mix.next(&cfg, by_name);
                batch.push(req);
            }
        }
        lats.extend(calvin.run_epoch(&batch));
    }
    assert!(calvin.check_ytd_consistency(), "Calvin: W_YTD must equal the sum of D_YTD");
    (lats.len() as f64 / (calvin.now_ns() as f64 / 1e9), lats)
}
