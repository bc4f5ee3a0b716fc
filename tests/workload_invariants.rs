//! End-to-end workload invariants: TPC-C consistency conditions and
//! SmallBank conservation under concurrent mixed load.

use std::sync::Arc;

use drtm::rdma::LatencyProfile;
use drtm::txn::DrTmConfig;
use drtm::workloads::smallbank::{SmallBank, SmallBankConfig};
use drtm::workloads::tpcc::{Tpcc, TpccConfig};

fn tpcc_cfg() -> TpccConfig {
    TpccConfig {
        nodes: 2,
        workers: 2,
        districts: 4,
        customers_per_district: 30,
        items: 300,
        cross_warehouse_new_order: 0.15,
        cross_warehouse_payment: 0.25,
        max_new_orders_per_node: 4_000,
        region_size: 48 << 20,
        profile: LatencyProfile::zero(),
        drtm: DrTmConfig::default(),
        ..Default::default()
    }
}

#[test]
fn tpcc_consistency_under_concurrent_mix() {
    let t = Arc::new(Tpcc::build(tpcc_cfg()));
    std::thread::scope(|s| {
        for n in 0..2u16 {
            for wid in 0..2 {
                let mut w = t.worker(n, wid);
                s.spawn(move || {
                    for _ in 0..80 {
                        w.run_one();
                    }
                });
            }
        }
    });
    assert!(t.check_ytd_consistency(), "TPC-C consistency 1: W_YTD = Σ D_YTD");
    assert!(t.check_order_consistency(), "TPC-C consistency 2/3: order id bounds");
    let stats = t.sys.stats().snapshot();
    assert!(stats.committed > 150, "most transactions commit: {stats:?}");
    let htm = t.sys.htm_stats().snapshot();
    assert!(htm.commits > 0);
}

#[test]
fn tpcc_durability_does_not_break_consistency() {
    let mut cfg = tpcc_cfg();
    cfg.drtm.logging = true;
    let t = Arc::new(Tpcc::build(cfg));
    std::thread::scope(|s| {
        for n in 0..2u16 {
            for wid in 0..2 {
                let mut w = t.worker(n, wid);
                s.spawn(move || {
                    for _ in 0..50 {
                        w.run_one();
                    }
                });
            }
        }
    });
    assert!(t.check_ytd_consistency());
    assert!(t.check_order_consistency());
}

#[test]
fn smallbank_conserves_under_heavy_skew() {
    let cfg = SmallBankConfig {
        nodes: 3,
        workers: 2,
        accounts_per_node: 100,
        hot_per_node: 5, // brutal contention
        hot_prob: 0.8,
        dist_prob: 0.4,
        region_size: 16 << 20,
        profile: LatencyProfile::zero(),
        drtm: DrTmConfig::default(),
    };
    let sb = Arc::new(SmallBank::build(cfg));
    let expected = sb.total_balance();
    // On a host with fewer cores than workers the six threads may run
    // with little true overlap, and one short round can then finish
    // conflict-free. Conservation must hold after every round; run
    // rounds until the skew has provoked at least one conflict.
    for _round in 0..25 {
        let gate = Arc::new(std::sync::Barrier::new(6));
        std::thread::scope(|s| {
            for n in 0..3u16 {
                for wid in 0..2 {
                    let sb = sb.clone();
                    let gate = gate.clone();
                    s.spawn(move || {
                        let mut w = sb.worker(n, wid);
                        gate.wait();
                        for i in 0..100 {
                            if i % 2 == 0 {
                                w.try_send_payment().unwrap();
                            } else {
                                w.try_amalgamate().unwrap();
                            }
                        }
                    });
                }
            }
        });
        assert_eq!(sb.total_balance(), expected, "conservation under hot-key contention");
        if sb.sys.htm_stats().snapshot().total_aborts() > 0 {
            return;
        }
    }
    panic!("this skew must actually cause conflicts");
}
