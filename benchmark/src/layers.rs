//! Per-layer metrics: the layer counters of the traced repetitions,
//! normalised per committed operation, and probes that time each
//! layer's public functions in isolation. `README.md` says which
//! end-to-end metric each one should move, on which workload.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drtm_core::{Phase, TxnSpec, CAUSE_NAMES};
use drtm_htm::{vtime, Executor, HtmConfig, HtmStats, Region};
use drtm_memstore::{Arena, BTree, ClusterHash, ElasticHash, LocationCache, LookupResult};
use drtm_rdma::{Cluster, ClusterConfig, GlobalAddr, LatencyProfile};
use drtm_workloads::driver::run_pipelined;
use drtm_workloads::micro::{Micro, MicroConfig};

use crate::stats::median;
use crate::workloads::{Counters, OS_THREADS};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// Abort causes reported per thousand operations (the ones these four
/// workloads can raise; crash and membership causes cannot occur).
const CAUSES: [&str; 9] = [
    "htm-conflict",
    "htm-leased",
    "htm-locked",
    "start-write-locked",
    "start-leased",
    "start-ambiguous",
    "fallback-wait",
    "lease-confirm-fail",
    "user-abort",
];

/// Transaction labels whose host time per operation is reported.
const LABELS: [&str; 13] = [
    "new_order",
    "payment",
    "order_status",
    "delivery",
    "stock_level",
    "send_payment",
    "balance",
    "deposit_checking",
    "withdraw_from_checking",
    "transfer_to_savings",
    "amalgamate",
    "read_write",
    "get",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer counters over a measured window of `ops` committed operations.
pub fn counter_metrics(c: &Counters, ops: u64) -> Vec<Metric> {
    let ops = ops as f64;
    let per_op = |x: u64| ratio(x as f64, ops);
    let per_kop = |x: u64| ratio(x as f64 * 1e3, ops);
    let (htm, rdma, txn) = (&c.stats.htm, &c.stats.rdma, &c.stats.txn);
    let attempts = htm.commits + htm.total_aborts();
    let lookups = c.cache.hits + c.cache.misses;
    let mut m = vec![
        Metric::new("htm.attempts_per_op", per_op(attempts), "1/op"),
        Metric::new("htm.commit_ratio", ratio(htm.commits as f64, attempts as f64), "ratio"),
        Metric::new("htm.conflict_aborts_per_kop", per_kop(htm.conflict_aborts), "1/kop"),
        Metric::new("htm.capacity_aborts_per_kop", per_kop(htm.capacity_aborts), "1/kop"),
        Metric::new("htm.explicit_aborts_per_kop", per_kop(htm.explicit_aborts), "1/kop"),
        Metric::new("htm.fallbacks_per_kop", per_kop(htm.fallbacks), "1/kop"),
        Metric::new("rdma.reads_per_op", per_op(rdma.reads), "1/op"),
        Metric::new("rdma.writes_per_op", per_op(rdma.writes), "1/op"),
        Metric::new("rdma.cas_per_op", per_op(rdma.cas), "1/op"),
        Metric::new("rdma.sends_per_op", per_op(rdma.sends), "1/op"),
        Metric::new(
            "rdma.bytes_per_op",
            per_op(rdma.read_bytes + rdma.write_bytes + rdma.send_bytes),
            "B/op",
        ),
        Metric::new("rdma.ops_per_doorbell", rdma.ops_per_doorbell(), "ratio"),
        Metric::new("rdma.vt_ns_per_verb", rdma.avg_op_cost_ns(), "ns"),
        Metric::new("rdma.vt_ns_per_op", per_op(rdma.fabric_ns), "ns/op"),
        Metric::new("memstore.cache_hit_rate", c.cache.hit_rate(), "ratio"),
        Metric::new(
            "memstore.reads_per_lookup",
            ratio(c.cache.fetches as f64, lookups as f64),
            "ratio",
        ),
        Metric::new(
            "memstore.cache_invalidations_per_kop",
            per_kop(c.cache.invalidations),
            "1/kop",
        ),
    ];
    for p in [Phase::Start, Phase::LocalTx, Phase::Commit, Phase::Fallback] {
        let line = c.stats.phases.get(p);
        m.push(Metric::new(
            format!("core.vt_ns_per_op.{}", p.name()),
            per_op(line.vtime_ns),
            "ns/op",
        ));
    }
    let record_ops: u64 = c.stats.phases.phases.iter().map(|l| l.record_ops).sum();
    m.extend([
        Metric::new("core.record_ops_per_op", per_op(record_ops), "1/op"),
        Metric::new("core.aborts_per_op", per_op(c.stats.causes.total()), "1/op"),
        Metric::new(
            "core.fallback_commit_ratio",
            ratio(txn.fallback_committed as f64, txn.committed as f64),
            "ratio",
        ),
        Metric::new("core.ro_retries_per_kop", per_kop(txn.ro_retries), "1/kop"),
        Metric::new("core.log_bytes_per_op", per_op(txn.log_bytes), "B/op"),
    ]);
    for cause in CAUSES {
        let i = CAUSE_NAMES.iter().position(|n| *n == cause).expect("a cause drtm-core names");
        m.push(Metric::new(
            format!("core.abort.{cause}_per_kop"),
            per_kop(c.stats.causes.counts[i]),
            "1/kop",
        ));
    }
    m
}

/// Median host ns per operation of every known label (0 for a label the
/// workload does not run).
pub fn label_metrics(op_host_ns: &BTreeMap<&'static str, Vec<u64>>) -> Vec<Metric> {
    LABELS
        .iter()
        .map(|label| {
            let p50 = op_host_ns.get(label).map_or(0.0, |samples| {
                median(&samples.iter().map(|&ns| ns as f64).collect::<Vec<_>>())
            });
            Metric::new(format!("workloads.host_ns_p50.{label}"), p50, "ns")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

const ROUNDS: usize = 5;
const ROUND: Duration = Duration::from_millis(12);

/// Median over [`ROUNDS`] timed rounds of the host ns one call of `f`
/// takes; `f` gets a running call index.
fn time_ns(mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0usize;
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u32;
            loop {
                for _ in 0..64 {
                    f(i);
                    i += 1;
                }
                calls += 64;
                if start.elapsed() >= ROUND {
                    break start.elapsed().as_nanos() as f64 / calls as f64;
                }
            }
        })
        .collect();
    median(&rounds)
}

/// Like [`time_ns`] for calls that cannot repeat (inserts): calls
/// `f(0..n)` once, timed in [`ROUNDS`] equal chunks.
fn time_once_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let chunk = n / ROUNDS;
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|r| {
            let start = Instant::now();
            for i in r * chunk..(r + 1) * chunk {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / chunk as f64
        })
        .collect();
    median(&rounds)
}

/// Median virtual ns charged per call over `n` calls (the median, so
/// that a rare retried attempt does not blur a deterministic cost).
fn vt_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            vtime::take();
            f(i);
            vtime::take() as f64
        })
        .collect();
    median(&samples)
}

/// Times each layer's public functions in isolation, single-threaded
/// (except the driver's slice overhead, which needs its pool).
pub fn probes() -> Vec<Metric> {
    let mut m = Vec::new();
    htm_probes(&mut m);
    rdma_probes(&mut m);
    memstore_probes(&mut m);
    core_probes(&mut m);
    let (workers, iters) = (24usize, 20_000u64);
    let start = Instant::now();
    run_pipelined(6, 4, iters, |_, _| |_| "noop", 0, OS_THREADS);
    m.push(Metric::new(
        "workloads.slice_overhead_host_ns",
        start.elapsed().as_nanos() as f64 / (workers as u64 * iters) as f64,
        "ns",
    ));
    m
}

fn htm_probes(m: &mut Vec<Metric>) {
    const LINES: usize = 16;
    let region = Region::new(1 << 20);
    let cfg = HtmConfig::default();
    let begin_commit = time_ns(|_| region.begin(&cfg).commit().expect("no other thread"));
    m.push(Metric::new("htm.probe.begin_commit_host_ns", begin_commit, "ns"));
    // A read and a write of each of 16 lines in one region, per line
    // (begin and commit amortised over the 16).
    let rw = time_ns(|_| {
        let mut txn = region.begin(&cfg);
        for line in 0..LINES {
            let v = txn.read_u64(line * 64).expect("no other thread");
            txn.write_u64(line * 64, v + 1).expect("no other thread");
        }
        txn.commit().expect("no other thread");
    });
    m.push(Metric::new("htm.probe.rw_line_host_ns", rw / LINES as f64, "ns"));
    let cas = time_ns(|i| {
        region.cas_u64_nt(4096, i as u64, i as u64 + 1);
    });
    m.push(Metric::new("htm.probe.nt_cas_host_ns", cas, "ns"));
}

fn small_cluster(region_size: usize) -> Arc<Cluster> {
    Cluster::new(ClusterConfig {
        nodes: 2,
        region_size,
        profile: LatencyProfile::rdma(),
        ..Default::default()
    })
}

fn rdma_probes(m: &mut Vec<Metric>) {
    let cluster = small_cluster(1 << 20);
    let qp = cluster.qp(0);
    let addr = GlobalAddr::new(1, 4096);
    let mut buf = [0u8; 64];
    // Every verb follows a completion wait, so none rides the previous
    // one's doorbell: the cost is the unbatched one.
    let read = time_ns(|_| {
        qp.doorbell_flush();
        qp.read(addr, &mut buf);
    });
    m.push(Metric::new("rdma.probe.read64_host_ns", read, "ns"));
    let write = time_ns(|_| {
        qp.doorbell_flush();
        qp.write(addr, &buf);
    });
    m.push(Metric::new("rdma.probe.write64_host_ns", write, "ns"));
    qp.write_u64(addr, 0);
    let cas = time_ns(|i| {
        qp.doorbell_flush();
        qp.cas_u64(addr, i as u64, i as u64 + 1);
    });
    m.push(Metric::new("rdma.probe.cas_host_ns", cas, "ns"));
    let sendrecv = time_ns(|_| {
        qp.doorbell_flush();
        qp.send(1, 7, vec![0u8; 64]);
        cluster.verbs().recv(1, 7);
    });
    m.push(Metric::new("rdma.probe.sendrecv_host_ns", sendrecv, "ns"));
    let read_vt = vt_ns(1_000, |_| {
        qp.doorbell_flush();
        qp.read(addr, &mut buf);
    });
    m.push(Metric::new("rdma.probe.read64_vt_ns", read_vt, "ns"));
}

fn memstore_probes(m: &mut Vec<Metric>) {
    const N: usize = 20_000;
    const VALUE: [u8; 64] = [7; 64];
    let key = |i: usize| (i % N) as u64 + 1;
    let region_size = 64 << 20;
    let cluster = small_cluster(region_size);
    let region = cluster.node(0).region();
    let qp = cluster.qp(1);
    let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
    let mut arena = Arena::new(64, region_size - 64);

    let table = ClusterHash::create(&mut arena, 0, N / 6, N + 1, VALUE.len());
    let insert = time_once_ns(N, |i| table.insert(&exec, region, key(i), &VALUE).expect("sized"));
    m.push(Metric::new("memstore.probe.insert_host_ns", insert, "ns"));
    let get_local = time_ns(|i| {
        let mut txn = region.begin(exec.config());
        table.get_local(&mut txn, key(i)).expect("no other thread").expect("populated");
        txn.commit().expect("no other thread");
    });
    m.push(Metric::new("memstore.probe.get_local_host_ns", get_local, "ns"));
    let lookup = time_ns(|i| {
        table.remote_lookup(&qp, key(i));
    });
    m.push(Metric::new("memstore.probe.remote_lookup_host_ns", lookup, "ns"));
    let reads: u32 = (0..N).map(|i| table.remote_lookup(&qp, key(i)).reads()).sum();
    m.push(Metric::new("memstore.probe.remote_lookup_reads", reads as f64 / N as f64, "count"));

    let buckets = table.desc().main_buckets;
    let warm = LocationCache::new(buckets, buckets / 2);
    for i in 0..N {
        warm.lookup(&qp, &table, key(i));
    }
    let hit = time_ns(|i| {
        warm.lookup(&qp, &table, key(i));
    });
    m.push(Metric::new("memstore.probe.cache_hit_host_ns", hit, "ns"));
    // One direct-mapped bucket: successive keys evict each other.
    let cold = LocationCache::new(1, 1);
    let miss = time_ns(|i| {
        cold.lookup(&qp, &table, key(i));
    });
    m.push(Metric::new("memstore.probe.cache_miss_host_ns", miss, "ns"));

    let tree = BTree::create(&mut arena, region, 0, N / 2 + 64);
    // Keys in hashed order, so inserts land all over the tree.
    let tree_key = |i: usize| drtm_memstore::hash64(key(i));
    let tree_insert = time_once_ns(N, |i| {
        let mut txn = region.begin(exec.config());
        tree.insert(&mut txn, tree_key(i), i as u64).expect("no other thread");
        txn.commit().expect("no other thread");
    });
    m.push(Metric::new("memstore.probe.btree_insert_host_ns", tree_insert, "ns"));
    let tree_get = time_ns(|i| {
        let mut txn = region.begin(exec.config());
        tree.get(&mut txn, tree_key(i)).expect("no other thread").expect("inserted");
        txn.commit().expect("no other thread");
    });
    m.push(Metric::new("memstore.probe.btree_get_host_ns", tree_get, "ns"));

    let elastic = ElasticHash::create(&mut arena, region, 0, 8_192, 8_192, N + 1, VALUE.len());
    for i in 0..N {
        elastic.insert(&exec, region, key(i), &VALUE).expect("sized");
    }
    let elastic_get = time_ns(|i| {
        let mut txn = region.begin(exec.config());
        elastic.get_local(&mut txn, key(i)).expect("no other thread").expect("populated");
        txn.commit().expect("no other thread");
    });
    m.push(Metric::new("memstore.probe.elastic_get_local_host_ns", elastic_get, "ns"));
    let reads: u32 = (0..N)
        .map(|i| match elastic.remote_lookup(&qp, key(i)) {
            LookupResult::Found { reads, .. } | LookupResult::NotFound { reads } => reads,
        })
        .sum();
    m.push(Metric::new(
        "memstore.probe.elastic_remote_lookup_reads",
        reads as f64 / N as f64,
        "count",
    ));
}

fn core_probes(m: &mut Vec<Metric>) {
    const RECORDS: u64 = 2_000;
    let micro = Micro::build(MicroConfig {
        nodes: 2,
        workers: 1,
        records_per_node: RECORDS,
        region_size: 16 << 20,
        ..MicroConfig::default()
    });
    let mut w = micro.sys.worker(0, 0);
    let resolve = |w: &drtm_core::Worker, node: u16, k: u64| {
        micro.table.resolve(w, node, node as u64 * RECORDS + k).expect("populated")
    };
    let local: Vec<TxnSpec> = (0..RECORDS)
        .map(|k| TxnSpec { local_writes: vec![resolve(&w, 0, k)], ..Default::default() })
        .collect();
    let remote: Vec<TxnSpec> = (0..RECORDS)
        .map(|k| TxnSpec { remote_writes: vec![resolve(&w, 1, k)], ..Default::default() })
        .collect();
    let n = RECORDS as usize;

    let mut local_rmw = |i: usize| {
        w.execute(&local[i % n], |ctx| {
            let v = ctx.local_write_cur(0)?;
            ctx.local_write(0, &v)
        })
        .expect("no failure is injected");
    };
    m.push(Metric::new("core.probe.execute_local_rmw_host_ns", time_ns(&mut local_rmw), "ns"));
    let mut remote_rmw = |i: usize| {
        w.execute(&remote[i % n], |ctx| {
            let v = ctx.remote_write_cur(0).to_vec();
            ctx.remote_write(0, v);
            Ok(())
        })
        .expect("no failure is injected");
    };
    m.push(Metric::new("core.probe.execute_remote_rmw_host_ns", time_ns(&mut remote_rmw), "ns"));
    m.push(Metric::new("core.probe.execute_remote_rmw_vt_ns", vt_ns(1_000, &mut remote_rmw), "ns"));
    let pairs: Vec<[drtm_core::RecordAddr; 2]> =
        (0..n).map(|i| [local[i].local_writes[0], local[(i + 1) % n].local_writes[0]]).collect();
    let read_only = time_ns(|i| {
        w.read_only_records(&pairs[i % n]);
    });
    m.push(Metric::new("core.probe.read_only_host_ns", read_only, "ns"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_normalise_per_operation() {
        let mut c = Counters::default();
        c.stats.htm.commits = 900;
        c.stats.htm.conflict_aborts = 100;
        c.stats.rdma.reads = 2_000;
        c.stats.rdma.read_bytes = 128_000;
        c.stats.rdma.doorbells = 1_000;
        c.stats.rdma.fabric_ns = 4_000_000;
        c.stats.txn.committed = 1_000;
        c.stats.txn.fallback_committed = 10;
        c.stats.causes.counts[CAUSE_NAMES.iter().position(|n| *n == "fallback-wait").unwrap()] = 5;
        c.cache.hits = 750;
        c.cache.misses = 250;
        c.cache.fetches = 300;
        let m = counter_metrics(&c, 1_000);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("htm.attempts_per_op"), 1.0);
        assert_eq!(get("htm.commit_ratio"), 0.9);
        assert_eq!(get("htm.conflict_aborts_per_kop"), 100.0);
        assert_eq!(get("rdma.reads_per_op"), 2.0);
        assert_eq!(get("rdma.bytes_per_op"), 128.0);
        assert_eq!(get("rdma.ops_per_doorbell"), 2.0);
        assert_eq!(get("rdma.vt_ns_per_verb"), 2_000.0);
        assert_eq!(get("rdma.vt_ns_per_op"), 4_000.0);
        assert_eq!(get("memstore.cache_hit_rate"), 0.75);
        assert_eq!(get("memstore.reads_per_lookup"), 0.3);
        assert_eq!(get("core.fallback_commit_ratio"), 0.01);
        assert_eq!(get("core.abort.fallback-wait_per_kop"), 5.0);
        // An idle layer reads 0, not NaN (kv_get_zipf has no htm or core).
        assert!(counter_metrics(&Counters::default(), 1_000).iter().all(|x| x.value == 0.0));
    }

    #[test]
    fn label_medians_default_to_zero() {
        let mut by_label = BTreeMap::new();
        by_label.insert("payment", vec![30, 10, 20]);
        let m = label_metrics(&by_label);
        assert_eq!(m.len(), LABELS.len());
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("workloads.host_ns_p50.payment"), 20.0);
        assert_eq!(get("workloads.host_ns_p50.get"), 0.0);
    }
}
