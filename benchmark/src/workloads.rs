//! The four workloads. Each `run_rep` is one fresh repetition: build and
//! populate a deployment, warm it up, measure a fixed number of
//! operations, then check the outputs.
//!
//! Everything here reaches the system through its public API only — the
//! names used are the ones `README.md` lists as pinned.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use drtm_core::{DrTm, StatsReport, TxnError};
use drtm_htm::{vtime, Executor, HtmConfig, HtmStats};
use drtm_memstore::{Arena, CacheStats, ClusterHash, Entry, LocationCache, ASSOC};
use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile, NodeId};
use drtm_workloads::dist::{rng, KeyDist};
use drtm_workloads::driver::{run_pipelined, Report};
use drtm_workloads::micro::{Micro, MicroConfig, MicroWorker};
use drtm_workloads::resolve::Table;
use drtm_workloads::smallbank::{SmallBank, SmallBankConfig, SmallBankWorker};
use drtm_workloads::tpcc::{Tpcc, TpccConfig, TpccWorker};

use crate::spans::{OpRecord, Tracer};
use crate::stats::Dist;

/// OS threads `run_pipelined` multiplexes the logical workers onto.
/// Fixed here (the sandbox has two cores) and not read from
/// `DRTM_OS_THREADS`, so that two runs always schedule alike.
pub const OS_THREADS: usize = 2;
/// Client threads of `kv_get_zipf`.
pub const KV_CLIENTS: usize = 2;
/// Gets per `op` span (and per host-time sample) of `kv_get_zipf`.
pub const KV_BATCH: usize = 1024;

const KV_KEYS: u64 = 100_000;
const KV_VALUE_BYTES: usize = 64;
const KV_OCCUPANCY: f64 = 0.75;
/// Pre-generated key stream per client, replayed until the get count
/// is reached; generated in set-up so the measured window holds gets only.
const KV_STREAM: usize = 1 << 20;
/// Upper edge of the dense KV latency histogram (1 ns bins).
const KV_MAX_LATENCY_NS: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpccStdmix,
    SmallbankHot,
    MicroDist,
    KvGetZipf,
}

/// Operations per logical worker (or KV client) in one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub warmup: u64,
    pub iters: u64,
}

/// Layer counters diffed around the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// htm / rdma / core counters (`DrTm::stats_report().since`); for
    /// `kv_get_zipf`, which has no transaction layer, only `rdma` is set.
    pub stats: StatsReport,
    /// Location-cache counters summed over every client → server pair.
    pub cache: CacheStats,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct RepResult {
    /// Build + populate + warm-up, wall seconds.
    pub setup_s: f64,
    /// Wall ns of the measured window.
    pub measure_host_ns: u64,
    /// Operations committed in the measured window.
    pub committed: u64,
    /// Operations and output checks attempted in the whole repetition.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Logical workers (or KV clients) that ran concurrently.
    pub workers: usize,
    /// Σ over workers of virtual ns spent in the measured window.
    pub sum_vtime_ns: u64,
    /// Virtual latency of every measured operation.
    pub latency: Dist,
    pub counters: Counters,
    /// Host ns per operation by label (traced repetitions only).
    pub op_host_ns: BTreeMap<&'static str, Vec<u64>>,
    /// One line per failed output check.
    pub errors: Vec<String>,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::TpccStdmix, Workload::SmallbankHot, Workload::MicroDist, Workload::KvGetZipf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccStdmix => "tpcc_stdmix",
            Workload::SmallbankHot => "smallbank_hot",
            Workload::MicroDist => "micro_dist",
            Workload::KvGetZipf => "kv_get_zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per worker per measured second on the host the sizes
    /// were taken on (see README.md, "Run shape"). The count is fixed
    /// per `--seconds`, not the duration, so that the simulated
    /// statistics of two commits compare like for like.
    fn ops_per_worker_second(self) -> f64 {
        match self {
            Workload::TpccStdmix => 600.0,
            Workload::SmallbankHot => 6_400.0,
            Workload::MicroDist => 3_000.0,
            Workload::KvGetZipf => 2_750_000.0,
        }
    }

    /// Sizes of one of `reps` repetitions that together measure about
    /// `seconds`; `--quick` divides by twenty.
    pub fn sizes(self, seconds: u64, reps: usize, quick: bool) -> Sizes {
        let per_rep = self.ops_per_worker_second() * seconds as f64 / reps as f64;
        let iters = (if quick { per_rep / 20.0 } else { per_rep }).round().max(1.0) as u64;
        Sizes { warmup: iters.div_ceil(10), iters }
    }

    /// Runs one fresh repetition. With a tracer, spans are recorded
    /// under `parent` (the `rep` span).
    pub fn run_rep(self, seed: u64, sizes: Sizes, trace: Option<(&Tracer, u64)>) -> RepResult {
        match self {
            Workload::TpccStdmix => run_txn_rep(|| TpccDep::build(sizes), seed, sizes, trace),
            Workload::SmallbankHot => run_txn_rep(SmallBankDep::build, seed, sizes, trace),
            Workload::MicroDist => run_txn_rep(MicroDep::build, seed, sizes, trace),
            Workload::KvGetZipf => run_kv_rep(seed, sizes, trace),
        }
    }
}

/// SplitMix64: the benchmark's own seed mixer.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Upper bound (exclusive) of [`discard_count`].
const MAX_DISCARD: u64 = 256;

/// The packaged TPC-C / SmallBank / micro workers seed their own RNG
/// from `(node, worker)` and accept no seed. `--seed` therefore decides
/// how many transactions each worker runs and discards ahead of the
/// warm-up, which shifts every worker to a different point of its stream.
pub fn discard_count(seed: u64, node: NodeId, worker: usize) -> u64 {
    mix(seed ^ mix((node as u64) << 32 | worker as u64)) % MAX_DISCARD
}

// ---------------------------------------------------------------------------
// Transactional workloads
// ---------------------------------------------------------------------------

/// Operations attempted per label over a whole repetition.
type Tally = BTreeMap<&'static str, u64>;

/// A built deployment of one of the packaged transactional workloads.
trait Deployment: Sync {
    type Worker: Send;
    fn sys(&self) -> &Arc<DrTm>;
    /// `(nodes, workers per node)`.
    fn shape(&self) -> (usize, usize);
    fn worker(&self, node: NodeId, worker_id: usize) -> Self::Worker;
    fn run_one(w: &mut Self::Worker) -> Result<&'static str, TxnError>;
    /// Tables whose rows are resolved across machines (their location
    /// caches are the memstore layer's counters).
    fn remote_tables(&self) -> Vec<&Table>;
    /// Output checks after the run; one message per failed check.
    /// `tally` counts every operation run since the build, `failed` how
    /// many of them returned an error.
    fn check(&self, tally: &Tally, failed: u64) -> Vec<Result<(), String>>;
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

struct TpccDep(Arc<Tpcc>);

impl TpccDep {
    fn build(sizes: Sizes) -> TpccDep {
        let workers = 8;
        // 45 % of the mix are new-orders; 60 % leaves slack.
        let per_worker = MAX_DISCARD + sizes.warmup + sizes.iters;
        let cfg = TpccConfig {
            nodes: 6,
            workers,
            customers_per_district: 60,
            items: 1_000,
            cross_warehouse_new_order: 0.01,
            cross_warehouse_payment: 0.15,
            max_new_orders_per_node: (workers as u64 * per_worker * 6 / 10) as usize + 1_000,
            region_size: 256 << 20,
            ..TpccConfig::default()
        };
        TpccDep(Arc::new(Tpcc::build(cfg)))
    }
}

impl Deployment for TpccDep {
    type Worker = TpccWorker;
    fn sys(&self) -> &Arc<DrTm> {
        &self.0.sys
    }
    fn shape(&self) -> (usize, usize) {
        (self.0.cfg.nodes, self.0.cfg.workers)
    }
    fn worker(&self, node: NodeId, worker_id: usize) -> TpccWorker {
        self.0.worker(node, worker_id)
    }
    fn run_one(w: &mut TpccWorker) -> Result<&'static str, TxnError> {
        Ok(w.run_one())
    }
    fn remote_tables(&self) -> Vec<&Table> {
        vec![&self.0.stock, &self.0.customer]
    }
    fn check(&self, _tally: &Tally, _failed: u64) -> Vec<Result<(), String>> {
        vec![
            ensure(self.0.check_ytd_consistency(), || "TPC-C: W_YTD != sum of D_YTD".into()),
            ensure(self.0.check_order_consistency(), || {
                "TPC-C: a district's next_o_id disagrees with its new-order queue".into()
            }),
        ]
    }
}

struct SmallBankDep {
    sb: SmallBank,
    initial_balance: u64,
}

impl SmallBankDep {
    fn build() -> SmallBankDep {
        let sb = SmallBank::build(SmallBankConfig {
            nodes: 6,
            workers: 4,
            accounts_per_node: 5_000,
            hot_per_node: 100,
            hot_prob: 0.25,
            dist_prob: 0.10,
            ..SmallBankConfig::default()
        });
        let initial_balance = sb.total_balance();
        SmallBankDep { sb, initial_balance }
    }
}

impl Deployment for SmallBankDep {
    type Worker = SmallBankWorker;
    fn sys(&self) -> &Arc<DrTm> {
        &self.sb.sys
    }
    fn shape(&self) -> (usize, usize) {
        (self.sb.cfg.nodes, self.sb.cfg.workers)
    }
    fn worker(&self, node: NodeId, worker_id: usize) -> SmallBankWorker {
        self.sb.worker(node, worker_id)
    }
    fn run_one(w: &mut SmallBankWorker) -> Result<&'static str, TxnError> {
        w.try_run_one()
    }
    fn remote_tables(&self) -> Vec<&Table> {
        vec![&self.sb.checking]
    }
    fn check(&self, tally: &Tally, failed: u64) -> Vec<Result<(), String>> {
        let n = |label: &str| tally.get(label).copied().unwrap_or(0);
        // Deposits and transfers-to-savings add 1..=99 each, withdrawals
        // take 1..=99 each, everything else conserves the total.
        let (adds, takes) =
            (n("deposit_checking") + n("transfer_to_savings"), n("withdraw_from_checking"));
        let drift = self.sb.total_balance() as i128 - self.initial_balance as i128;
        let (lo, hi) = (adds as i128 - 99 * takes as i128, 99 * adds as i128 - takes as i128);
        let attempted: u64 = tally.values().sum();
        let s = self.sb.sys.stats().snapshot();
        vec![
            ensure((lo..=hi).contains(&drift), || {
                format!("SmallBank: total balance drifted by {drift}, outside [{lo}, {hi}]")
            }),
            ensure(s.committed + s.ro_committed + failed == attempted, || {
                format!(
                    "SmallBank: {} committed + {} read-only + {failed} failed != {attempted} attempted",
                    s.committed, s.ro_committed
                )
            }),
        ]
    }
}

struct MicroDep(Micro);

impl MicroDep {
    fn build() -> MicroDep {
        MicroDep(Micro::build(MicroConfig {
            nodes: 6,
            workers: 4,
            records_per_node: 10_000,
            accesses: 10,
            remote_prob: 0.5,
            read_lease: true,
            ..MicroConfig::default()
        }))
    }
}

impl Deployment for MicroDep {
    type Worker = MicroWorker;
    fn sys(&self) -> &Arc<DrTm> {
        &self.0.sys
    }
    fn shape(&self) -> (usize, usize) {
        (self.0.cfg.nodes, self.0.cfg.workers)
    }
    fn worker(&self, node: NodeId, worker_id: usize) -> MicroWorker {
        self.0.worker(node, worker_id)
    }
    fn run_one(w: &mut MicroWorker) -> Result<&'static str, TxnError> {
        Ok(w.read_write(5))
    }
    fn remote_tables(&self) -> Vec<&Table> {
        vec![&self.0.table]
    }
    fn check(&self, tally: &Tally, failed: u64) -> Vec<Result<(), String>> {
        let attempted: u64 = tally.values().sum();
        let committed = self.0.sys.stats().snapshot().committed;
        vec![ensure(committed + failed == attempted, || {
            format!("micro: {committed} committed + {failed} failed != {attempted} attempted")
        })]
    }
}

fn cache_totals(tables: &[&Table], nodes: usize) -> CacheStats {
    let mut total = CacheStats::default();
    for t in tables {
        for client in 0..nodes as NodeId {
            for server in (0..nodes as NodeId).filter(|&s| s != client) {
                add_cache(&mut total, &t.cache(client, server).stats());
            }
        }
    }
    total
}

fn add_cache(total: &mut CacheStats, s: &CacheStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.fetches += s.fetches;
    total.invalidations += s.invalidations;
}

fn cache_since(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        fetches: after.fetches - before.fetches,
        invalidations: after.invalidations - before.invalidations,
        ..CacheStats::default()
    }
}

/// One operation; an `Err` is counted in `failed` and labelled so.
fn run_counted<D: Deployment>(w: &mut D::Worker, failed: &AtomicU64) -> &'static str {
    D::run_one(w).unwrap_or_else(|_| {
        failed.fetch_add(1, Ordering::Relaxed);
        "failed"
    })
}

/// Runs `iters` operations on every logical worker through
/// `run_pipelined` and returns its report. With `ops`, every operation
/// also leaves an [`OpRecord`] in its worker's list.
fn phase<D: Deployment>(
    shape: (usize, usize),
    pool: &[Mutex<D::Worker>],
    iters: u64,
    failed: &AtomicU64,
    ops: Option<(&Tracer, &[Mutex<Vec<OpRecord>>])>,
) -> Report {
    let (nodes, per_node) = shape;
    run_pipelined(
        nodes,
        per_node,
        iters,
        |node, wid| {
            let idx = node as usize * per_node + wid;
            let slot = &pool[idx];
            move |_| {
                let mut w = slot.lock().expect("a worker panic already ended the run");
                let host_start_ns = ops.map_or(0, |(t, _)| t.now_ns());
                let label = run_counted::<D>(&mut w, failed);
                if let Some((t, lists)) = ops {
                    // The driver zeroes the meter after every slice, so
                    // its reading here is this operation's virtual time.
                    lists[idx].lock().expect("only this worker locks its list").push(OpRecord {
                        label,
                        host_start_ns,
                        host_end_ns: t.now_ns(),
                        vt_ns: vtime::read(),
                    });
                }
                label
            }
        },
        0,
        OS_THREADS,
    )
}

fn run_txn_rep<D: Deployment>(
    build: impl FnOnce() -> D,
    seed: u64,
    sizes: Sizes,
    trace: Option<(&Tracer, u64)>,
) -> RepResult {
    let setup_start = Instant::now();
    let span = trace.map(|(t, rep)| (t, t.open(rep, "setup")));
    let dep = build();
    let shape = dep.shape();
    let (nodes, per_node) = shape;
    let failed = AtomicU64::new(0);
    let mut tally = Tally::new();
    let mut pool = Vec::with_capacity(nodes * per_node);
    for node in 0..nodes as NodeId {
        for wid in 0..per_node {
            let mut w = dep.worker(node, wid);
            for _ in 0..discard_count(seed, node, wid) {
                *tally.entry(run_counted::<D>(&mut w, &failed)).or_insert(0) += 1;
            }
            pool.push(Mutex::new(w));
        }
    }
    if let Some((t, id)) = span {
        t.close(id, 0);
    }

    let span = trace.map(|(t, rep)| (t, t.open(rep, "warmup")));
    let warm = phase::<D>(shape, &pool, sizes.warmup, &failed, None);
    if let Some((t, id)) = span {
        t.close(id, warm.workers.iter().map(|w| w.vtime_ns).sum());
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let op_lists: Vec<Mutex<Vec<OpRecord>>> = pool
        .iter()
        .map(|_| {
            Mutex::new(Vec::with_capacity(if trace.is_some() { sizes.iters as usize } else { 0 }))
        })
        .collect();
    let span = trace.map(|(t, rep)| (t, t.open(rep, "measure")));
    let failed_before = failed.load(Ordering::Relaxed);
    let tables = dep.remote_tables();
    let cache_before = cache_totals(&tables, nodes);
    let stats_before = dep.sys().stats_report();
    let measure_start = Instant::now();
    let report =
        phase::<D>(shape, &pool, sizes.iters, &failed, trace.map(|(t, _)| (t, &op_lists[..])));
    let measure_host_ns = measure_start.elapsed().as_nanos() as u64;
    let stats = dep.sys().stats_report().since(&stats_before);
    let cache = cache_since(&cache_totals(&tables, nodes), &cache_before);
    let sum_vtime_ns: u64 = report.workers.iter().map(|w| w.vtime_ns).sum();
    let mut op_host_ns: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    if let Some((t, id)) = span {
        t.close(id, sum_vtime_ns);
        for (worker, list) in op_lists.iter().enumerate() {
            let list = list.lock().expect("the workers have finished");
            t.ops(id, worker, &list);
            for r in list.iter() {
                op_host_ns.entry(r.label).or_default().push(r.host_end_ns - r.host_start_ns);
            }
        }
    }

    for r in [&warm, &report] {
        for (label, n) in r.counts() {
            *tally.entry(label).or_insert(0) += n;
        }
    }
    let failed = failed.load(Ordering::Relaxed);
    let checks = dep.check(&tally, failed);
    let errors: Vec<String> = checks.iter().filter_map(|c| c.clone().err()).collect();
    RepResult {
        setup_s,
        measure_host_ns,
        committed: report.total_txns() - (failed - failed_before),
        attempted: tally.values().sum::<u64>() + checks.len() as u64,
        failed: failed + errors.len() as u64,
        workers: nodes * per_node,
        sum_vtime_ns,
        latency: Dist::from_samples(
            report.workers.iter().flat_map(|w| w.samples.iter().map(|&(_, ns)| ns)),
        ),
        counters: Counters { stats, cache },
        op_host_ns,
        errors,
    }
}

// ---------------------------------------------------------------------------
// kv_get_zipf
// ---------------------------------------------------------------------------

/// The value stored under `key`; every GET is checked against it.
fn kv_value(key: u64) -> [u8; KV_VALUE_BYTES] {
    let mut v = [0u8; KV_VALUE_BYTES];
    for (i, word) in v.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&mix(key ^ (i as u64) << 56).to_le_bytes());
    }
    v
}

/// One server table on node 0 plus one private location cache per client
/// (clients are nodes `1..=KV_CLIENTS`).
struct KvDep {
    cluster: Arc<Cluster>,
    table: ClusterHash,
    caches: Vec<LocationCache>,
}

impl KvDep {
    fn build() -> KvDep {
        let slots = (KV_KEYS as f64 / KV_OCCUPANCY).ceil() as usize;
        let buckets = (slots / ASSOC).max(16);
        let region_size = buckets.next_power_of_two() * 128 * 2
            + KV_KEYS as usize * Entry::footprint(KV_VALUE_BYTES) * 2
            + (8 << 20);
        let cluster = Cluster::new(ClusterConfig {
            nodes: 1 + KV_CLIENTS,
            region_size,
            profile: LatencyProfile::rdma(),
            ..Default::default()
        });
        let mut arena = Arena::new(64, region_size - 64);
        let table =
            ClusterHash::create(&mut arena, 0, buckets, KV_KEYS as usize + 1, KV_VALUE_BYTES);
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        let region = cluster.node(0).region();
        for key in 1..=KV_KEYS {
            table.insert(&exec, region, key, &kv_value(key)).expect("the table was sized for it");
        }
        // A quarter of the budget that holds every location (fig10d's
        // sizing): the working set does not fit.
        let full = buckets.next_power_of_two() * 160 * 5 / 4 * 11 / 10;
        let caches = (0..KV_CLIENTS).map(|_| LocationCache::with_budget(full / 4)).collect();
        KvDep { cluster, table, caches }
    }

    fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.caches {
            add_cache(&mut total, &c.stats());
        }
        total
    }

    /// One GET from `client`: location through the cache, then the entry.
    /// Returns whether the value read is the value written.
    fn get(&self, client: usize, qp: &drtm_rdma::Qp, key: u64) -> bool {
        let cache = &self.caches[client];
        match cache.lookup(qp, &self.table, key) {
            Some((addr, slot, _reads)) => match self.table.remote_read_entry(qp, addr, &slot) {
                Some((_, value)) => value == kv_value(key),
                None => {
                    cache.invalidate(&self.table, key);
                    false
                }
            },
            None => false,
        }
    }
}

/// What one KV client measured.
struct KvClientRun {
    failed: u64,
    vtime_ns: u64,
    latency: Vec<u32>,
    ops: Vec<OpRecord>,
}

fn run_kv_rep(seed: u64, sizes: Sizes, trace: Option<(&Tracer, u64)>) -> RepResult {
    let setup_start = Instant::now();
    let span = trace.map(|(t, rep)| (t, t.open(rep, "setup")));
    let dep = KvDep::build();
    let dist = KeyDist::zipf(KV_KEYS, 0.99);
    let stream_len = (sizes.iters as usize).min(KV_STREAM);
    if let Some((t, id)) = span {
        t.close(id, 0);
    }

    // Warm-up, per client in parallel: draw the key stream from the
    // seed, then touch every key once.
    let span = trace.map(|(t, rep)| (t, t.open(rep, "warmup")));
    let warm: Vec<(Vec<u32>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..KV_CLIENTS)
            .map(|c| {
                let (dep, dist) = (&dep, &dist);
                s.spawn(move || {
                    let mut r = rng(mix(seed) ^ c as u64);
                    let stream: Vec<u32> =
                        (0..stream_len).map(|_| dist.sample(&mut r) as u32 + 1).collect();
                    let qp = dep.cluster.qp(1 + c as NodeId);
                    let failed = (1..=KV_KEYS).filter(|&k| !dep.get(c, &qp, k)).count() as u64;
                    (stream, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a KV client panicked")).collect()
    });
    if let Some((t, id)) = span {
        t.close(id, 0);
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let span = trace.map(|(t, rep)| (t, t.open(rep, "measure")));
    let cache_before = dep.cache_totals();
    let rdma_before = dep.cluster.counters().snapshot();
    let measure_start = Instant::now();
    let runs: Vec<KvClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = warm
            .iter()
            .enumerate()
            .map(|(c, (stream, _))| {
                let dep = &dep;
                let tracer = trace.map(|(t, _)| t);
                s.spawn(move || kv_client(dep, c, stream, sizes.iters, tracer))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a KV client panicked")).collect()
    });
    let measure_host_ns = measure_start.elapsed().as_nanos() as u64;
    let rdma = dep.cluster.counters().snapshot().since(&rdma_before);
    let cache = cache_since(&dep.cache_totals(), &cache_before);
    let sum_vtime_ns: u64 = runs.iter().map(|r| r.vtime_ns).sum();
    let mut op_host_ns: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    if let Some((t, id)) = span {
        t.close(id, sum_vtime_ns);
        for (c, r) in runs.iter().enumerate() {
            t.ops(id, c, &r.ops);
            // Host time per get, one sample per batch.
            op_host_ns
                .entry("get")
                .or_default()
                .extend(r.ops.iter().map(|o| (o.host_end_ns - o.host_start_ns) / KV_BATCH as u64));
        }
    }

    let latencies: Vec<Dist> = runs.iter().map(|r| Dist::from_counts(&r.latency)).collect();
    let gets = sizes.iters * KV_CLIENTS as u64;
    let warm_gets = KV_KEYS * KV_CLIENTS as u64;
    let failed_measured: u64 = runs.iter().map(|r| r.failed).sum();
    let failed = failed_measured + warm.iter().map(|w| w.1).sum::<u64>();
    let errors = if failed == 0 {
        Vec::new()
    } else {
        vec![format!("kv: {failed} GETs missed or returned a value other than the one written")]
    };
    RepResult {
        setup_s,
        measure_host_ns,
        committed: gets - failed_measured,
        attempted: gets + warm_gets,
        failed,
        workers: KV_CLIENTS,
        sum_vtime_ns,
        latency: Dist::merge(&latencies),
        counters: Counters { stats: StatsReport { rdma, ..StatsReport::default() }, cache },
        op_host_ns,
        errors,
    }
}

fn kv_client(
    dep: &KvDep,
    client: usize,
    stream: &[u32],
    gets: u64,
    tracer: Option<&Tracer>,
) -> KvClientRun {
    let qp = dep.cluster.qp(1 + client as NodeId);
    let mut run = KvClientRun {
        failed: 0,
        vtime_ns: 0,
        latency: vec![0u32; KV_MAX_LATENCY_NS],
        ops: Vec::new(),
    };
    // The meter is read, never reset, inside the window: the fabric's
    // doorbell batching keys on it, and a reset per get would let every
    // get ride its predecessor's doorbell.
    vtime::take();
    let mut left = gets as usize;
    let mut keys = stream.iter().cycle();
    while left > 0 {
        let batch = left.min(KV_BATCH);
        let host_start_ns = tracer.map_or(0, Tracer::now_ns);
        let vt_before = run.vtime_ns;
        for _ in 0..batch {
            let key = *keys.next().expect("the stream is not empty") as u64;
            if !dep.get(client, &qp, key) {
                run.failed += 1;
            }
            let ns = vtime::read() - run.vtime_ns;
            run.vtime_ns += ns;
            run.latency[(ns as usize).min(KV_MAX_LATENCY_NS - 1)] += 1;
        }
        if let Some(t) = tracer {
            run.ops.push(OpRecord {
                label: "get",
                host_start_ns,
                host_end_ns: t.now_ns(),
                vt_ns: run.vtime_ns - vt_before,
            });
        }
        left -= batch;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_drives_the_discard_counts() {
        let counts = |seed| -> Vec<u64> {
            (0..6).flat_map(|n| (0..8).map(move |w| discard_count(seed, n, w))).collect()
        };
        assert_eq!(counts(7), counts(7), "the same seed gives the same inputs");
        assert_ne!(counts(7), counts(8));
        assert!(counts(7).iter().all(|&c| c < MAX_DISCARD));
        assert!(counts(7).iter().any(|&c| c != counts(7)[0]), "workers shift differently");
    }

    #[test]
    fn sizes_scale_with_seconds_and_quick_is_a_twentieth() {
        let full = Workload::SmallbankHot.sizes(20, 5, false);
        assert_eq!(full, Sizes { warmup: 2_560, iters: 25_600 });
        assert_eq!(Workload::SmallbankHot.sizes(40, 5, false).iters, 51_200);
        assert_eq!(Workload::SmallbankHot.sizes(20, 5, true).iters, 1_280);
        assert_eq!(Workload::parse("micro_dist"), Some(Workload::MicroDist));
        assert_eq!(Workload::parse("nope"), None);
    }

    /// Every workload runs a tiny repetition end to end with its output
    /// checks green, traced so the span plumbing is covered too.
    #[test]
    fn tiny_repetitions_pass_their_checks() {
        for w in Workload::ALL {
            let sizes =
                Sizes { warmup: 5, iters: if w == Workload::KvGetZipf { 3_000 } else { 40 } };
            let tracer = Tracer::new();
            let rep = tracer.open(0, "rep");
            let r = w.run_rep(3, sizes, Some((&tracer, rep)));
            tracer.close(rep, 0);
            assert_eq!(r.errors, Vec::<String>::new(), "{}", w.name());
            assert_eq!(r.failed, 0, "{}", w.name());
            assert_eq!(r.committed, sizes.iters * r.workers as u64, "{}", w.name());
            assert_eq!(r.latency.count(), r.committed, "{}", w.name());
            assert!(r.sum_vtime_ns > 0 && r.measure_host_ns > 0 && r.setup_s > 0.0);
            let spans = tracer.into_spans();
            let ops = spans.iter().filter(|s| s.name == "op").count() as u64;
            let expect = if w == Workload::KvGetZipf {
                KV_CLIENTS as u64 * sizes.iters.div_ceil(KV_BATCH as u64)
            } else {
                r.committed
            };
            assert_eq!(ops, expect, "{}", w.name());
            assert_eq!(r.op_host_ns.values().map(|v| v.len() as u64).sum::<u64>(), expect);
        }
    }

    /// A corrupted output makes its check fail: here a SmallBank account
    /// is credited behind the transaction layer's back.
    #[test]
    fn corrupted_output_fails_the_check() {
        let dep = SmallBankDep::build();
        let mut w = dep.worker(0, 0);
        let mut tally = Tally::new();
        for _ in 0..50 {
            *tally.entry(SmallBankDep::run_one(&mut w).unwrap()).or_insert(0) += 1;
        }
        assert!(dep.check(&tally, 0).iter().all(Result::is_ok));
        let corrupted =
            SmallBankDep { initial_balance: dep.initial_balance - 1_000_000, sb: dep.sb };
        let results = corrupted.check(&tally, 0);
        assert!(results[0].is_err(), "a million out of nowhere must fail the drift check");
        // And a lost commit fails the accounting check.
        *tally.entry("balance").or_insert(0) += 1;
        assert!(corrupted.check(&tally, 0)[1].is_err());
    }
}
