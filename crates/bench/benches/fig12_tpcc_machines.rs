//! Figure 12: TPC-C throughput with increasing machine count, DrTM vs
//! the Calvin baseline (new-order and standard-mix), plus a scale-out
//! segment far past the paper's 6 machines: the pipelined engine drives
//! hundreds of logical workers on a small OS thread pool, with doorbell
//! batching measured on vs off.
//!
//! A final membership segment measures what cluster reconfiguration
//! costs the traffic that keeps running through it: the same
//! transfer/read mix once at steady state and once while a churn
//! thread cycles machines through join → serve → leave. The harness
//! asserts that the during-churn throughput stays within 0.6× of steady.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use drtm_bench::ledger::{cell, quiet, text, tput, Kind, Ledger};
use drtm_bench::runners::{calvin_run, tpcc_run_with};
use drtm_bench::{banner, diagnostics, f, row, scaled, stats_cells};
use drtm_calvin::Calvin;
use drtm_core::{MembershipError, TxnError};
use drtm_rdma::{DoorbellConfig, NodeId};
use drtm_workloads::dist::{rng, KeyDist};
use drtm_workloads::driver;
use drtm_workloads::elastic::{ElasticKv, ElasticKvConfig, INIT_VALUE};
use drtm_workloads::tpcc::TpccConfig;

fn drtm_cfg(nodes: usize) -> TpccConfig {
    TpccConfig {
        nodes,
        workers: 8,
        customers_per_district: 60,
        items: 1_000,
        max_new_orders_per_node: 8 * 2_000,
        region_size: 160 << 20,
        ..Default::default()
    }
}

/// Reduced per-warehouse sizing so a 64-node cluster fits comfortably
/// in memory (fig14-style), at `nodes × workers` logical workers.
fn scaleout_cfg(nodes: usize, workers: usize, iters: u64, doorbell: DoorbellConfig) -> TpccConfig {
    TpccConfig {
        nodes,
        workers,
        customers_per_district: 20,
        items: 400,
        max_new_orders_per_node: (workers as u64 * iters * 2) as usize,
        region_size: 64 << 20,
        doorbell,
        ..Default::default()
    }
}

fn main() {
    banner("fig12", "TPC-C throughput vs machines (8 workers each)");
    let wall = std::time::Instant::now();
    let iters = scaled(220, 40);
    let warmup = iters / 5;
    row(&[
        "machines".into(),
        "DrTM new-order".into(),
        "DrTM std-mix".into(),
        "Calvin std-mix".into(),
        "speedup".into(),
    ]);
    let mut last_ratio = 0.0;
    let mut drtm_curve = Vec::new();
    let mut ledger = Ledger::new("fig12_tpcc_machines");
    for nodes in 1..=6usize {
        let cfg = drtm_cfg(nodes);
        let (rep, diag) = tpcc_run_with(cfg.clone(), iters, warmup);
        let std_mix = rep.throughput();
        let new_order = rep.throughput_of("new_order");
        // Calvin on the same deployment: 8 epochs of 40 requests per
        // warehouse, the first 320 its DrTM worker draws.
        let (calvin_std, _) = calvin_run(Calvin::build(&cfg), 8, 40);
        last_ratio = std_mix / calvin_std;
        drtm_curve.push(std_mix);
        // The paper quotes the 6-machine point: 3.67 M, 17.9x over Calvin.
        let at6 = |paper: f64| (nodes == 6).then_some(paper);
        ledger.row(
            iters,
            [
                text(nodes),
                tput(format!("drtm_new_order_{nodes}n_mops"), new_order),
                tput(format!("drtm_std_mix_{nodes}n_mops"), std_mix).paper(at6(3.67)),
                tput(format!("calvin_std_mix_{nodes}n_mops"), calvin_std),
                cell(
                    format!("calvin_speedup_{nodes}n_x"),
                    Kind::Virtual,
                    last_ratio,
                    format!("{last_ratio:.1}x"),
                )
                .paper(at6(17.9)),
            ],
        );
        if nodes == 6 {
            diagnostics("DrTM, 6 machines", &diag);
            ledger.row(iters, stats_cells(&diag));
        }
    }
    assert!(
        drtm_curve.last().expect("6 points") > &(drtm_curve[0] * 2.0),
        "DrTM must scale with machines"
    );
    assert!(last_ratio > 5.0, "DrTM must clearly outperform Calvin (paper: 17.9-21.9x)");
    println!("(paper: DrTM 3.67M std-mix on 6 machines; >=17.9x over Calvin)");

    // Scale-out segment: the paper stops at 6 machines; the pipelined
    // engine runs 64 (logical workers ≫ OS threads), once with doorbell
    // batching off and once on, so the ledger records the per-op
    // virtual cost drop batching buys.
    let so_nodes = 64;
    let so_workers = 8;
    let so_iters = scaled(40, 12);
    let so_warmup = so_iters / 4;
    banner("fig12+", &format!("scale-out: {so_nodes} machines x {so_workers} workers"));
    row(&["batching".into(), "std-mix".into(), "op cost".into(), "ops/doorbell".into()]);
    let mut op_cost = [0.0f64; 2];
    for (arm, doorbell) in [(0, DoorbellConfig::disabled()), (1, DoorbellConfig::default())] {
        let batch_size = doorbell.max_batch;
        let (rep, diag) = tpcc_run_with(
            scaleout_cfg(so_nodes, so_workers, so_iters, doorbell),
            so_iters,
            so_warmup,
        );
        let logical = rep.workers.len();
        assert!(
            logical >= 8 * rep.os_threads,
            "scale-out must multiplex: {logical} logical workers on {} OS threads",
            rep.os_threads
        );
        op_cost[arm] = diag.rdma.avg_op_cost_ns();
        let ratio = diag.rdma.ops_per_doorbell();
        let name = if arm == 0 { "unbatched" } else { "batched" };
        ledger.row(
            so_iters,
            [
                text(if arm == 0 { "off".into() } else { format!("{batch_size}-deep") }),
                tput(format!("scaleout_std_mix_{name}_mops"), rep.throughput()),
                cell(
                    format!("rdma_op_cost_{name}_ns"),
                    Kind::Virtual,
                    op_cost[arm],
                    format!("{:.0} ns", op_cost[arm]),
                ),
                cell(
                    format!("rdma_ops_per_doorbell_{name}"),
                    Kind::Count,
                    ratio,
                    format!("{ratio:.2}"),
                ),
            ],
        );
        if arm == 1 {
            assert!(ratio > 1.0, "batching on must post >1 op per doorbell (got {ratio})");
        }
    }
    assert!(
        op_cost[1] < op_cost[0],
        "batching must lower per-op virtual cost ({} vs {} ns)",
        op_cost[1],
        op_cost[0]
    );

    // ---- membership segment --------------------------------------------
    // Same transfer/read mix twice over an elastic deployment: once at
    // steady state, once while a churn thread cycles fresh machines
    // through journaled join → serve → leave, so the ledger records
    // what a cluster reconfiguration costs concurrent traffic and how
    // long a donation stream / departure drain takes.
    let per = scaled(2_000, 400);
    let mcfg = ElasticKvConfig {
        nodes: 2,
        max_nodes: 26,
        workers: 4,
        keys_per_node: per,
        region_size: 8 << 20,
        ..ElasticKvConfig::default()
    };
    let mworkers = mcfg.workers;
    let kv = ElasticKv::build(mcfg);
    let total_keys = 2 * per;
    let miters = scaled(2_400, 200);
    banner("fig12m", "membership churn: join/leave under load");
    let kvref = &kv;
    let mix = |salt: u64| {
        move |node: NodeId, wid: usize| {
            let mut w = kvref.worker(node, wid);
            let mut r = rng(salt ^ (node as u64 * 131 + wid as u64 + 7));
            let dist = KeyDist::uniform(total_keys);
            move |i: u64| {
                let a = dist.sample(&mut r);
                let mut b = dist.sample(&mut r);
                if b == a {
                    b = (b + 1) % total_keys;
                }
                if i.is_multiple_of(4) {
                    // A key can resolve to a machine that retires before
                    // the op lands; the typed error re-routes on retry.
                    while let Err(e) = w.read(a) {
                        assert!(matches!(e, TxnError::Retired(_)), "read: {e:?}");
                    }
                    "read"
                } else {
                    while let Err(e) = w.transfer(a, b, 1) {
                        assert!(matches!(e, TxnError::Retired(_)), "transfer: {e:?}");
                    }
                    "transfer"
                }
            }
        }
    };
    let steady = driver::run(2, mworkers, miters, mix(1), miters / 8);
    let stop = AtomicBool::new(false);
    let (during, mdiag, joins, drains) = std::thread::scope(|s| {
        let churn = s.spawn(|| {
            // Machine ids are never reused, so the fabric capacity
            // bounds the churn if the measured window outlasts it; the
            // in-flight cycle always drains back out before exiting.
            let mut joins: Vec<f64> = Vec::new();
            let mut drains: Vec<f64> = Vec::new();
            loop {
                let t = Instant::now();
                let joined = match kv.join_node() {
                    Ok(r) => r.node,
                    Err(MembershipError::ClusterFull) => break,
                    Err(e) => panic!("join: {e}"),
                };
                joins.push(t.elapsed().as_secs_f64() * 1e3);
                std::thread::sleep(std::time::Duration::from_millis(2));
                let t = Instant::now();
                kv.leave_node(joined, 0).expect("leave");
                drains.push(t.elapsed().as_secs_f64() * 1e3);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            (joins, drains)
        });
        let (rep, stats) =
            driver::diagnosed(&kv.sys, || driver::run(2, mworkers, miters, mix(2), miters / 8));
        stop.store(true, Ordering::Relaxed);
        let (joins, drains) = churn.join().expect("churn thread");
        (rep, stats, joins, drains)
    });
    assert_eq!(kv.total_value(), total_keys * INIT_VALUE, "conservation across membership churn");
    assert!(!joins.is_empty() && joins.len() == drains.len(), "every join must drain back out");
    let s_tput = steady.throughput();
    let d_tput = during.throughput();
    let join_ms = joins.iter().sum::<f64>() / joins.len() as f64;
    let drain_ms = drains.iter().sum::<f64>() / drains.len() as f64;
    row(&["membership".into(), "steady".into(), "during".into(), "ratio".into()]);
    ledger.row(
        miters,
        [
            text("tput"),
            tput("membership_steady_mops", s_tput),
            tput("membership_during_mops", d_tput),
            cell("membership_ratio", Kind::Virtual, d_tput / s_tput, f(d_tput / s_tput)),
        ],
    );
    assert!(d_tput >= 0.6 * s_tput, "traffic must keep 0.6x of steady through join/leave cycles");
    assert!(
        join_ms > 0.0 && drain_ms > 0.0,
        "a reconfiguration that costs nothing was not measured"
    );
    println!(
        "membership diagnostics: {} join/leave cycles, {:.2} ms mean join, {:.2} ms mean drain",
        joins.len(),
        join_ms,
        drain_ms
    );
    diagnostics("membership/during", &mdiag);
    ledger.row(
        miters,
        [
            quiet("join_ms", Kind::Host, join_ms),
            quiet("drain_ms", Kind::Host, drain_ms),
            quiet("membership_cycles", Kind::Host, joins.len() as f64),
            quiet("wall_s", Kind::Host, wall.elapsed().as_secs_f64()),
        ],
    );
    ledger.write();
}
