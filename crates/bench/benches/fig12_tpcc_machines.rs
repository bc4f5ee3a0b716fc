//! Figure 12: TPC-C throughput with increasing machine count, DrTM vs
//! the Calvin baseline (new-order and standard-mix), plus a scale-out
//! segment far past the paper's 6 machines: the pipelined engine drives
//! hundreds of logical workers on a small OS thread pool, with doorbell
//! batching measured on vs off.
//!
//! A final membership segment measures what cluster reconfiguration
//! costs the traffic that keeps running through it: the same
//! transfer/read mix once at steady state and once while a churn
//! thread cycles machines through join → serve → leave. The ledger
//! gate (`check_bench_json`) requires the during-churn throughput to
//! stay within 0.6× of steady.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use drtm_bench::report::{causes_of, rdma_ops_per_txn, BenchReport};
use drtm_bench::runners::{calvin_run, tpcc_run_with};
use drtm_bench::{banner, diagnostics, f, mops, row, scaled};
use drtm_calvin::{Calvin, CalvinConfig};
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

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or(default)
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
    let mut json = BenchReport::new("fig12_tpcc_machines", 0.0, 0.0);
    for nodes in 1..=6usize {
        let (rep, diag) = tpcc_run_with(drtm_cfg(nodes), iters, warmup);
        let std_mix = rep.throughput();
        let new_order = rep.throughput_of("new_order");
        let ccfg = CalvinConfig {
            nodes,
            workers: 8,
            warehouses_per_node: 8,
            customers_per_district: 60,
            items: 1_000,
            ..Default::default()
        };
        let calvin = Calvin::build(ccfg);
        let per_epoch = nodes * 8 * 40;
        let (calvin_std, _, _) = calvin_run(calvin, 8, per_epoch, 0.01, 0.15);
        last_ratio = std_mix / calvin_std;
        drtm_curve.push(std_mix);
        row(&[
            nodes.to_string(),
            mops(new_order),
            mops(std_mix),
            mops(calvin_std),
            format!("{last_ratio:.1}x"),
        ]);
        json.push_extra(&format!("drtm_std_mix_{nodes}n_mops"), std_mix / 1e6);
        json.push_extra(&format!("calvin_std_mix_{nodes}n_mops"), calvin_std / 1e6);
        if nodes == 6 {
            diagnostics("DrTM, 6 machines", &diag);
            json.throughput = std_mix;
            json.aborts_per_cause = causes_of(&diag);
            json.rdma_ops_per_txn = rdma_ops_per_txn(&diag);
        }
    }
    assert!(
        drtm_curve.last().expect("6 points") > &(drtm_curve[0] * 2.0),
        "DrTM must scale with machines"
    );
    assert!(last_ratio > 5.0, "DrTM must clearly outperform Calvin (paper: 17.9-21.9x)");
    println!("(paper: DrTM 3.67M std-mix on 6 machines; >=17.9x over Calvin)");
    json.push_extra("calvin_speedup_x", last_ratio);

    // Scale-out segment: the paper stops at 6 machines; the pipelined
    // engine runs 64 (logical workers ≫ OS threads), once with doorbell
    // batching off and once on, so the ledger records the per-op
    // virtual cost drop batching buys.
    let so_nodes = env_usize("DRTM_FIG12_SCALEOUT_NODES", 64);
    let so_workers = env_usize("DRTM_FIG12_SCALEOUT_WORKERS", 8);
    let so_iters = scaled(40, 12);
    let so_warmup = so_iters / 4;
    banner("fig12+", &format!("scale-out: {so_nodes} machines x {so_workers} workers"));
    row(&["batching".into(), "std-mix".into(), "op cost".into(), "ops/doorbell".into()]);
    let mut op_cost = [0.0f64; 2];
    for (arm, doorbell) in [(0, DoorbellConfig::disabled()), (1, DoorbellConfig::default())] {
        let batch_size = doorbell.max_batch;
        let flush_ns = doorbell.flush_deadline_ns;
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
        row(&[
            if arm == 0 { "off".into() } else { format!("{batch_size}-deep") },
            mops(rep.throughput()),
            format!("{:.0} ns", op_cost[arm]),
            format!("{ratio:.2}"),
        ]);
        if arm == 0 {
            json.push_extra("rdma_op_cost_unbatched_ns", op_cost[0]);
            json.push_extra("scaleout_std_mix_unbatched_mops", rep.throughput() / 1e6);
        } else {
            assert!(ratio > 1.0, "batching on must post >1 op per doorbell (got {ratio})");
            json.push_extra("rdma_op_cost_batched_ns", op_cost[1]);
            json.push_extra("scaleout_std_mix_batched_mops", rep.throughput() / 1e6);
            json.push_extra("rdma_ops_per_doorbell", ratio);
            json.push_extra("rdma_batch_size", batch_size as f64);
            json.push_extra("rdma_batch_flush_ns", flush_ns as f64);
            json.push_extra("engine_os_threads", rep.os_threads as f64);
            json.push_extra("engine_logical_workers", logical as f64);
        }
    }
    assert!(
        op_cost[1] < op_cost[0],
        "batching must lower per-op virtual cost ({} vs {} ns)",
        op_cost[1],
        op_cost[0]
    );
    json.push_extra("scaleout_nodes", so_nodes as f64);

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
        init_buckets: 64,
        max_buckets: 8_192,
        region_size: 8 << 20,
        ..ElasticKvConfig::default()
    };
    let mworkers = mcfg.workers;
    let kv = ElasticKv::build(mcfg);
    let total_keys = 2 * per;
    let miters = scaled(1_200, 200);
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
    row(&["tput".into(), mops(s_tput), mops(d_tput), f(d_tput / s_tput)]);
    println!(
        "membership diagnostics: {} join/leave cycles, {:.2} ms mean join, {:.2} ms mean drain",
        joins.len(),
        join_ms,
        drain_ms
    );
    diagnostics("membership/during", &mdiag);
    json.push_extra("membership_throughput_steady", s_tput);
    json.push_extra("membership_throughput_during", d_tput);
    json.push_extra("membership_throughput_ratio", d_tput / s_tput);
    json.push_extra("join_ms", join_ms);
    json.push_extra("drain_ms", drain_ms);
    json.push_extra("membership_cycles", joins.len() as f64);

    json.wall_seconds = wall.elapsed().as_secs_f64();
    json.write();
}
