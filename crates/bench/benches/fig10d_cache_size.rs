//! Figure 10(d): impact of location-cache size on throughput.
//!
//! DrTM-KV/$ with cache budgets swept over a log scale, cold and warm,
//! uniform and Zipf θ=0.99. Budgets are scaled to this reproduction's
//! key count the same way the paper's 20–320 MB covers 20 M keys (a
//! 320 MB cache holds every location).
//!
//! A second segment measures throughput *while the memstore resizes*:
//! the same transfer/read mix runs once at steady state and once with
//! bucket doublings plus a key range ping-ponging between machines.
//! The harness asserts that the during-resize throughput stays within
//! 0.7× of steady and that the split-order invariant (≤ 1 extra chain
//! hop per lookup) holds.

use std::sync::atomic::{AtomicBool, Ordering};

use drtm_bench::kv::{KvBench, KvSystem};
use drtm_bench::ledger::{cell, quiet, text, tput, Kind, Ledger};
use drtm_bench::{banner, f, row, scaled};
use drtm_core::AbortCause;
use drtm_rdma::NodeId;
use drtm_workloads::dist::{rng, KeyDist};
use drtm_workloads::driver;
use drtm_workloads::elastic::{ElasticKv, ElasticKvConfig, INIT_VALUE};

fn main() {
    banner("fig10d", "cache size vs throughput (64 B values)");
    let wall = std::time::Instant::now();
    let keys = scaled(100_000, 10_000);
    let per_thread = scaled(4_000, 500);
    // Full-cache budget: enough for the table's (power-of-two rounded)
    // main-header array after the cache's 80/20 main/pool split.
    let buckets = ((keys as f64 / 0.75).ceil() as usize / 8).next_power_of_two();
    let full = buckets * 160 * 5 / 4 * 11 / 10;
    let budgets = [full / 16, full / 8, full / 4, full / 2, full];
    row(&[
        "cache".into(),
        "uniform/cold".into(),
        "uniform/warm".into(),
        "zipf/cold".into(),
        "zipf/warm".into(),
    ]);
    let mut uniform_small = 0.0;
    let mut uniform_full = 0.0;
    let mut zipf_small = 0.0;
    let mut ledger = Ledger::new("fig10d_cache_size");
    let mut full_warm_stats = drtm_memstore::CacheStats::default();
    for &budget in &budgets {
        let kb = budget >> 10;
        let mut cells = vec![text(format!("{kb}KB"))];
        for (dname, dist) in
            [("uniform", KeyDist::uniform(keys)), ("zipf", KeyDist::zipf(keys, 0.99))]
        {
            for warm in [false, true] {
                let b = KvBench::build(KvSystem::DrtmKvCache { budget, warm }, keys, 64, 0.75);
                let run = b.run(5, 8, per_thread, &dist);
                let stats = b.cache_stats();
                let point = format!("{dname}_{}_{kb}kb", if warm { "warm" } else { "cold" });
                // The paper's one quoted cell: skew keeps ~19 Mops at the smallest cache.
                let paper = (budget == budgets[0] && dname == "zipf" && warm).then_some(19.0);
                cells.push(tput(format!("{point}_mops"), run.throughput).paper(paper));
                cells.push(quiet(format!("{point}_hit_rate"), Kind::Count, stats.hit_rate()));
                if budget == budgets[0] && dname == "uniform" && warm {
                    uniform_small = run.throughput;
                }
                if budget == full && dname == "uniform" && warm {
                    uniform_full = run.throughput;
                    full_warm_stats = stats;
                }
                if budget == budgets[0] && dname == "zipf" && warm {
                    zipf_small = run.throughput;
                }
            }
        }
        ledger.row(per_thread, cells);
    }
    println!(
        "cache counters @ full/warm/uniform: {} hits, {} misses, {} fetches, {} invalidations \
         (hit rate {:.3})",
        full_warm_stats.hits,
        full_warm_stats.misses,
        full_warm_stats.fetches,
        full_warm_stats.invalidations,
        full_warm_stats.hit_rate()
    );
    assert!(
        uniform_full > uniform_small,
        "uniform workload must benefit from a bigger cache ({uniform_small} -> {uniform_full})"
    );
    assert!(
        zipf_small > uniform_small,
        "skew is cache-friendly: zipf must beat uniform at small budgets"
    );
    println!("(paper: skewed workload retains ~19 Mops at the smallest cache; uniform drops)");

    // ---- live-resize segment -------------------------------------------
    // Same transfer/read mix twice over an elastic deployment: once at
    // steady state, once while a mover thread ping-pongs 1/8 of the
    // keyspace between the two machines in small chunks and doubles the
    // bucket arrays — lock-free resize and live resharding under load.
    let per = scaled(10_000, 1_500);
    let ecfg = ElasticKvConfig {
        nodes: 2,
        workers: 4,
        keys_per_node: per,
        init_buckets: 64,
        max_buckets: 8_192,
        ..ElasticKvConfig::default()
    };
    let eworkers = ecfg.workers;
    let kv = ElasticKv::build(ecfg);
    let total_keys = 2 * per;
    let iters = scaled(1_500, 250);
    let kvref = &kv;
    let mix = |seed_salt: u64| {
        move |node: NodeId, wid: usize| {
            let mut w = kvref.worker(node, wid);
            let mut r = rng(seed_salt ^ (node as u64 * 131 + wid as u64 + 7));
            let dist = KeyDist::uniform(total_keys);
            move |i: u64| {
                let a = dist.sample(&mut r);
                let mut b = dist.sample(&mut r);
                if b == a {
                    b = (b + 1) % total_keys;
                }
                if i.is_multiple_of(4) {
                    w.read(a).expect("read");
                    "read"
                } else {
                    w.transfer(a, b, 1).expect("transfer");
                    "transfer"
                }
            }
        }
    };
    let steady = driver::run(2, eworkers, iters, mix(1), iters / 8);
    let e0 = kv.elastic_stats();
    let rs0 = kv.reshard_stats();
    let stop = AtomicBool::new(false);
    let during = std::thread::scope(|s| {
        let mover = s.spawn(|| {
            // 1/8 of the keyspace, migrated 0 → 1 → 0 in eight chunks
            // per direction with a bucket doubling each round, until
            // the measured window closes.
            let span = (per / 4).max(8);
            let chunk = (span / 8).max(1);
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let dst: NodeId = if rounds.is_multiple_of(2) { 1 } else { 0 };
                let mut lo = 0;
                while lo < span && !stop.load(Ordering::Relaxed) {
                    let hi = (lo + chunk - 1).min(span - 1);
                    kv.migrate(lo, hi, dst).expect("migrate");
                    lo += chunk;
                }
                kv.grow((rounds % 2) as NodeId);
                rounds += 1;
            }
            rounds
        });
        let (rep, stats) =
            driver::diagnosed(&kv.sys, || driver::run(2, eworkers, iters, mix(2), iters / 8));
        stop.store(true, Ordering::Relaxed);
        mover.join().expect("mover thread");
        (rep, stats)
    });
    assert_eq!(kv.total_value(), total_keys * INIT_VALUE, "conservation across live resharding");
    let e = kv.elastic_stats().since(&e0);
    let rs = kv.reshard_stats().since(&rs0);
    let s_tput = steady.throughput();
    let d_tput = during.0.throughput();
    let hops_per_lookup = if e.lookups > 0 { e.extra_hops as f64 / e.lookups as f64 } else { 0.0 };
    let migrated_mb = rs.bytes_moved as f64 / (1 << 20) as f64;
    let doublings = e.grows;
    row(&["resize".into(), "steady".into(), "during".into(), "ratio".into()]);
    ledger.row(
        iters,
        [
            text("tput"),
            tput("resize_steady_mops", s_tput),
            tput("resize_during_mops", d_tput),
            cell("resize_ratio", Kind::Virtual, d_tput / s_tput, f(d_tput / s_tput)),
        ],
    );
    assert!(d_tput >= 0.7 * s_tput, "an online resize must leave 0.7x of steady throughput");
    assert!(hops_per_lookup <= 1.0, "split order: at most one extra chain hop per lookup");
    let caches = kv.cache(0).stats().merge(&kv.cache(1).stats());
    println!(
        "resize diagnostics: {} migrations, {:.2} MB moved, {} doublings, \
         {:.4} extra hops/lookup, {} migration invalidations, {} forced misses, \
         {} Migrated aborts",
        rs.migrations,
        migrated_mb,
        doublings,
        hops_per_lookup,
        caches.migration_invalidations,
        caches.forced_misses,
        kv.sys.trace().causes().get(AbortCause::Migrated),
    );
    drtm_bench::diagnostics("resize/during", &during.1);
    ledger.row(
        iters,
        [
            quiet("resize_extra_hops_per_lookup", Kind::Count, hops_per_lookup),
            quiet("resize_migrated_mb", Kind::Count, migrated_mb),
            quiet("resize_doublings", Kind::Count, doublings as f64),
            quiet("resize_migrations", Kind::Count, rs.migrations as f64),
            quiet("wall_s", Kind::Host, wall.elapsed().as_secs_f64()),
        ],
    );
    ledger.write();
}
