//! Criterion micro-benchmarks of the core primitives: HTM transactions,
//! simulated one-sided operations, hash-table and B+ tree operations.
//!
//! These measure *host* performance of the simulation substrate (how
//! fast the reproduction itself runs), complementing the virtual-time
//! harnesses that reproduce the paper's numbers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use drtm_htm::{Executor, HtmConfig, HtmStats, Region};
use drtm_memstore::{Arena, BTree, ClusterHash, LocationCache};
use drtm_rdma::{Cluster, ClusterConfig, GlobalAddr, LatencyProfile};

fn bench_htm(c: &mut Criterion) {
    let region = Region::new(1 << 20);
    let cfg = HtmConfig::default();
    c.bench_function("htm_txn_rmw_1line", |b| {
        b.iter(|| {
            let mut t = region.begin(&cfg);
            let v = t.read_u64(0).unwrap();
            t.write_u64(0, v + 1).unwrap();
            t.commit().unwrap();
        })
    });
    c.bench_function("htm_txn_rmw_16lines", |b| {
        b.iter(|| {
            let mut t = region.begin(&cfg);
            for i in 0..16 {
                let off = 4096 + i * 64;
                let v = t.read_u64(off).unwrap();
                t.write_u64(off, v + 1).unwrap();
            }
            t.commit().unwrap();
        })
    });
}

fn bench_rdma(c: &mut Criterion) {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        region_size: 1 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    });
    let qp = cluster.qp(1);
    let mut buf = [0u8; 64];
    c.bench_function("rdma_read_64B", |b| b.iter(|| qp.read(GlobalAddr::new(0, 4096), &mut buf)));
    c.bench_function("rdma_cas", |b| b.iter(|| qp.cas_u64(GlobalAddr::new(0, 0), 0, 0)));
}

fn bench_stores(c: &mut Criterion) {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        region_size: 64 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    });
    let region = cluster.node(0).region();
    let mut arena = Arena::new(64, (64 << 20) - 64);
    let table = ClusterHash::create(&mut arena, 0, 4096, 40_000, 32);
    let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
    for k in 0..20_000u64 {
        table.insert(&exec, region, k, b"benchval").unwrap();
    }
    let cfg = HtmConfig::default();
    c.bench_function("hash_get_local", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7) % 20_000;
            let mut t = region.begin(&cfg);
            let e = table.get_local(&mut t, k).unwrap().unwrap();
            criterion::black_box(e.offset);
        })
    });
    let qp = cluster.qp(1);
    c.bench_function("hash_remote_lookup", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7) % 20_000;
            criterion::black_box(table.remote_lookup(&qp, k));
        })
    });

    let tree = BTree::create(&mut arena, region, 0, 8192);
    for k in 0..20_000u64 {
        loop {
            let mut t = region.begin(&cfg);
            if tree.insert(&mut t, k, k).is_ok() && t.commit().is_ok() {
                break;
            }
        }
    }
    c.bench_function("btree_get", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 13) % 20_000;
            let mut t = region.begin(&cfg);
            criterion::black_box(tree.get(&mut t, k).unwrap());
        })
    });
}

/// Concurrent warm-lookup throughput of the sharded seqlock cache (the
/// retired global-mutex cache's last ratio is in EXPERIMENTS.md), and
/// the cold fetch-and-install path.
fn bench_cache_concurrent(c: &mut Criterion) {
    const KEYS: u64 = 8_192;
    const THREADS: u64 = 4;
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        region_size: 64 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    });
    let region = cluster.node(0).region();
    let mut arena = Arena::new(64, (64 << 20) - 64);
    let table = ClusterHash::create(&mut arena, 0, 2048, KEYS as usize + 1, 32);
    let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
    for k in 1..=KEYS {
        table.insert(&exec, region, k, b"benchval").unwrap();
    }
    let cache = LocationCache::new(4096, 1024);
    let qp = cluster.qp(1);
    for k in 1..=KEYS {
        cache.lookup(&qp, &table, k);
    }

    let seq_run = |iters: u64| {
        let per = (iters / THREADS).max(1);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let qp = cluster.qp(1);
                let (cache, table) = (&cache, &table);
                s.spawn(move || {
                    let mut k = t * 1_777;
                    for _ in 0..per {
                        k = k % KEYS + 1;
                        criterion::black_box(cache.lookup(&qp, table, k));
                        k += 13;
                    }
                });
            }
        });
        t0.elapsed()
    };
    c.bench_function("cache_lookup_warm_4thr_seqlock", |b| b.iter_custom(seq_run));

    // Miss/insert path: cold cache, each lookup fetches and installs.
    c.bench_function("cache_miss_insert", |b| {
        let cold = LocationCache::new(4096, 1024);
        let mut k = 0u64;
        b.iter(|| {
            k = k % KEYS + 1;
            criterion::black_box(cold.lookup(&qp, &table, k));
            k += 97;
        })
    });
}

/// SEND/RECV round trip between two nodes through the per-endpoint
/// queues (one echo server on node 0, measured from node 1).
fn bench_verbs(c: &mut Criterion) {
    const PING: u16 = 0x2001;
    const PONG: u16 = 0x2002;
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        region_size: 4096,
        profile: LatencyProfile::zero(),
        ..Default::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let cluster = cluster.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let qp = cluster.qp(0);
            while !stop.load(Ordering::Relaxed) {
                if let Some(m) = cluster.verbs().recv_timeout(0, PING, Duration::from_millis(2)) {
                    qp.send(m.from, PONG, m.payload);
                }
            }
        })
    };
    let qp = cluster.qp(1);
    c.bench_function("verbs_ping_pong", |b| {
        b.iter(|| {
            qp.send(0, PING, vec![42]);
            criterion::black_box(cluster.verbs().recv(1, PONG));
        })
    });
    stop.store(true, Ordering::Relaxed);
    server.join().expect("echo server");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_htm, bench_rdma, bench_stores, bench_cache_concurrent, bench_verbs
}
criterion_main!(benches);
