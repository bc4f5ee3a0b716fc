//! Pipelined virtual-time benchmark driver.
//!
//! Every throughput experiment follows the same shape: run a workload
//! closure a fixed number of iterations per *logical worker* and read
//! each worker's virtual-time meter ([`drtm_htm::vtime`]). Each logical
//! worker is owned by one thread of a small OS pool: each in-flight
//! transaction is one slice of a per-worker state machine, so a
//! 64-node × 8-worker cluster needs 512 state machines but only a
//! handful of OS threads — the host's physical core count caps wall
//! speed, never the simulated cluster size. A pool thread owns whole
//! machines where it can: a DrTM machine's memory is touched only by its
//! own cores and by remote NICs. Pool threads run in cooperative mode
//! ([`drtm_htm::clock::set_cooperative`]): waits are charged to virtual
//! time and the quantum is yielded instead of slept away. A worker never
//! changes threads.
//!
//! Cluster throughput is the median per-worker rate times the number of
//! workers that contributed a rate — workers run concurrently in
//! virtual time by construction, so wall-clock multiplexing does not
//! distort the scaling curves.

use std::collections::BTreeMap;

use drtm_core::{DrTm, StatsReport};
use drtm_htm::{clock, vtime};
use drtm_rdma::NodeId;

/// One worker's measured output.
#[derive(Debug, Clone)]
pub struct WorkerRun {
    /// The machine the worker belonged to.
    pub node: NodeId,
    /// Per-transaction `(label, virtual ns)` samples.
    pub samples: Vec<(&'static str, u64)>,
    /// Total virtual nanoseconds spent.
    pub vtime_ns: u64,
}

/// Aggregated results of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every worker's measurements.
    pub workers: Vec<WorkerRun>,
    /// OS threads the engine multiplexed the workers onto.
    pub os_threads: usize,
}

/// Midpoint median of an ascending-sorted, non-empty slice: odd lengths
/// take the central element, even lengths the mean of the two central
/// elements.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

impl Report {
    /// Total transactions executed.
    pub fn total_txns(&self) -> u64 {
        self.workers.iter().map(|w| w.samples.len() as u64).sum()
    }

    /// Transactions per label.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for w in &self.workers {
            for &(l, _) in &w.samples {
                *m.entry(l).or_insert(0) += 1;
            }
        }
        m
    }

    /// Cluster throughput in transactions/second of virtual time:
    /// the *median* per-worker rate times the number of workers that
    /// recorded any virtual time.
    ///
    /// The median (rather than the sum of individual rates) makes the
    /// measure robust to the per-worker virtual-time tails that host
    /// scheduling induces — a worker descheduled across a lease window
    /// accrues a rare multi-millisecond wait that a fixed-duration
    /// experiment would average away, and a worker that merely dodged
    /// every conflict must not dominate the estimate. Workers with no
    /// virtual time contribute no rate, so they scale nothing: a
    /// zero-iteration straggler must not inflate cluster throughput.
    pub fn throughput(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .workers
            .iter()
            .filter(|w| w.vtime_ns > 0)
            .map(|w| w.samples.len() as f64 / (w.vtime_ns as f64 / 1e9))
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
        median(&rates) * rates.len() as f64
    }

    /// Throughput counting only transactions with `label` (e.g. TPC-C
    /// counts new-order throughput while the full mix runs, §7.2).
    ///
    /// Each contributing worker's label rate is the label's share of
    /// that worker's *virtual time* times the worker's overall rate —
    /// which reduces to `label txns / worker vtime` — aggregated like
    /// [`Report::throughput`] (median × contributing workers). Scaling
    /// the overall throughput by the label's share of the txn *count*
    /// would overstate cheap labels and understate expensive ones
    /// whenever per-label costs differ from the mix average.
    pub fn throughput_of(&self, label: &str) -> f64 {
        let mut rates: Vec<f64> = self
            .workers
            .iter()
            .filter(|w| w.vtime_ns > 0)
            .map(|w| {
                let n = w.samples.iter().filter(|(l, _)| *l == label).count();
                n as f64 / (w.vtime_ns as f64 / 1e9)
            })
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
        median(&rates) * rates.len() as f64
    }

    /// Latency percentiles (virtual µs) over transactions with `label`
    /// (`None` = all), e.g. `[0.5, 0.9, 0.99]` for Table 6.
    pub fn latency_percentiles_us(&self, label: Option<&str>, qs: &[f64]) -> Vec<f64> {
        let mut lats: Vec<u64> = self
            .workers
            .iter()
            .flat_map(|w| w.samples.iter())
            .filter(|(l, _)| label.is_none_or(|want| *l == want))
            .map(|&(_, ns)| ns)
            .collect();
        if lats.is_empty() {
            return qs.iter().map(|_| 0.0).collect();
        }
        lats.sort_unstable();
        qs.iter()
            .map(|&q| {
                let idx = ((lats.len() as f64 - 1.0) * q).round() as usize;
                lats[idx] as f64 / 1e3
            })
            .collect()
    }
}

/// Pool size for [`run`]: the host's available parallelism clamped to
/// [2, 8] — at least two so logical workers genuinely contend, bounded
/// so hundreds of logical workers never mean hundreds of threads.
pub(crate) fn default_os_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(2, 8)
}

/// One logical worker's state machine: its workload closure plus the
/// measurements of the transactions it has run so far.
struct LogicalWorker<F> {
    f: F,
    run: WorkerRun,
}

/// How logical workers map onto OS threads — the engine's one parameter.
#[derive(Debug, Clone, Copy)]
enum Threads {
    /// A cooperative pool of this many threads: waits are charged to
    /// virtual time and the quantum is yielded ([`drtm_htm::clock::wait`]).
    Pool(usize),
    /// As many threads as logical workers, with wall-clock (sleeping)
    /// waits: every worker's wait overlaps every other's.
    PerWorker,
}

/// The engine behind every runner: `iters` measured transactions (after
/// `warmup` discarded ones) on each of `nodes × workers` logical workers.
///
/// Thread `t` owns the node-major block of workers `i` with
/// `i * threads / total == t`, as plain values: blocks differ by at most
/// one worker, and a machine is split between threads only where a block
/// edge falls inside it (never when the thread count divides the machine
/// count). Two workers of an unsplit machine thus never run at once, and
/// its lines stay in one core's cache. Each thread runs rounds over its
/// block, one lock-free slice each, until all of it is done, then returns
/// it. A thread that finishes first idles: a tail handoff of whole
/// workers was measured and bought too little host time to keep.
fn engine<F>(
    nodes: usize,
    workers: usize,
    iters: u64,
    make: impl Fn(NodeId, usize) -> F,
    warmup: u64,
    threads: Threads,
) -> Report
where
    F: FnMut(u64) -> &'static str + Send,
{
    let total = nodes * workers;
    let (os_threads, cooperative) = match threads {
        Threads::Pool(n) => (n.max(1).min(total), true),
        Threads::PerWorker => (total, false),
    };
    let mut owned: Vec<Vec<LogicalWorker<F>>> = (0..os_threads).map(|_| Vec::new()).collect();
    for node in 0..nodes as NodeId {
        for wid in 0..workers {
            let run = WorkerRun { node, samples: Vec::with_capacity(iters as usize), vtime_ns: 0 };
            owned[(node as usize * workers + wid) * os_threads / total]
                .push(LogicalWorker { f: make(node, wid), run });
        }
    }
    let runs: Vec<Vec<WorkerRun>> = std::thread::scope(|s| {
        let pool: Vec<_> = owned
            .into_iter()
            .map(|given| {
                s.spawn(move || {
                    clock::set_cooperative(cooperative);
                    // Allocated here, so it shares no line with another list.
                    let mut mine = Vec::with_capacity(given.len());
                    mine.extend(given);
                    vtime::take();
                    for k in 0..warmup + iters {
                        for lw in &mut mine {
                            let label = (lw.f)(k);
                            let spent = vtime::take();
                            if k >= warmup {
                                lw.run.samples.push((label, spent));
                                lw.run.vtime_ns += spent;
                            }
                        }
                    }
                    mine.into_iter().map(|lw| lw.run).collect()
                })
            })
            .collect();
        pool.into_iter()
            .map(|t| t.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    // The blocks are node-major and in thread order: joined, they are the report.
    Report { workers: runs.into_iter().flatten().collect(), os_threads }
}

/// Runs `iters` transactions on each of `nodes × workers` logical
/// workers, multiplexed onto a pool of the host's available parallelism
/// clamped to [2, 8] threads.
///
/// `make(node, worker_id)` builds the per-worker state; the returned
/// closure executes one transaction and returns its label. Warmup slices
/// are discarded.
pub fn run<F>(
    nodes: usize,
    workers: usize,
    iters: u64,
    make: impl Fn(NodeId, usize) -> F + Sync,
    warmup: u64,
) -> Report
where
    F: FnMut(u64) -> &'static str + Send,
{
    run_pipelined(nodes, workers, iters, make, warmup, default_os_threads())
}

/// [`run`] with an explicit OS thread-pool size.
///
/// Scheduling is cooperative and non-preemptive. A slice releases its
/// locks before it commits or aborts — except a release or write-back to
/// a dead machine, which stays parked with its worker until a later slice
/// delivers it ([`drtm_core::Worker::flush_pending`], after recovery).
/// Any other lock a slice waits on is held by a slice running on another
/// thread, so with ≥ 2 pool threads lock waits stay bounded.
pub fn run_pipelined<F>(
    nodes: usize,
    workers: usize,
    iters: u64,
    make: impl Fn(NodeId, usize) -> F + Sync,
    warmup: u64,
    os_threads: usize,
) -> Report
where
    F: FnMut(u64) -> &'static str + Send,
{
    engine(nodes, workers, iters, make, warmup, Threads::Pool(os_threads))
}

/// [`run`] with a dedicated OS thread per logical worker and wall-clock
/// (sleeping, non-cooperative) waits.
///
/// The pipelined pool is the default, but lease benchmarks need this:
/// leases expire in *wall* time, so the lease-vs-ambiguity window
/// structure of a run depends on all workers' waits genuinely
/// overlapping. Multiplexed onto a small pool, mid-transaction lease
/// waits serialize — the run stretches across many more lease cycles
/// and every cycle's uncertainty window (§4.3) throws spurious
/// `start-ambiguous` conflicts that exist only because of the host's
/// scheduling, not the protocol's.
pub fn run_dedicated<F>(
    nodes: usize,
    workers: usize,
    iters: u64,
    make: impl Fn(NodeId, usize) -> F + Sync,
    warmup: u64,
) -> Report
where
    F: FnMut(u64) -> &'static str + Send,
{
    engine(nodes, workers, iters, make, warmup, Threads::PerWorker)
}

/// Runs any of this module's runners — `diagnosed(&sys, || run(..))` —
/// additionally diffing the system's joined [`StatsReport`] across it,
/// so every harness can print an abort-cause and per-phase breakdown
/// alongside throughput.
///
/// The diagnostics window spans the warmup iterations too — warmup
/// aborts are as interesting as measured ones when hunting an abort
/// storm; throughput still comes exclusively from the measured window.
pub fn diagnosed(sys: &DrTm, run: impl FnOnce() -> Report) -> (Report, StatsReport) {
    let before = sys.stats_report();
    let report = run();
    (report, sys.stats_report().since(&before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_counts() {
        let r = run(
            2,
            2,
            10,
            |_, _| {
                |i: u64| {
                    vtime::charge(1000);
                    if i.is_multiple_of(2) {
                        "even"
                    } else {
                        "odd"
                    }
                }
            },
            0,
        );
        assert_eq!(r.total_txns(), 40);
        assert_eq!(r.counts()["even"], 20);
        // 4 workers × (1 txn / 1000 ns) = 4e6 tps.
        assert!((r.throughput() - 4e6).abs() < 1e-3 * 4e6);
        assert!((r.throughput_of("even") - 2e6).abs() < 1e-3 * 2e6);
    }

    #[test]
    fn dedicated_runs_one_thread_per_worker() {
        let r = run_dedicated(
            2,
            3,
            4,
            |node, wid| {
                move |_: u64| {
                    vtime::charge(1_000 + node as u64 * 8 + wid as u64);
                    "t"
                }
            },
            1,
        );
        assert_eq!(r.os_threads, 6, "dedicated mode pins one OS thread per logical worker");
        assert_eq!(r.total_txns(), 24);
        // Node-major worker order with exact per-worker virtual time.
        for (i, w) in r.workers.iter().enumerate() {
            let (node, wid) = ((i / 3) as u64, (i % 3) as u64);
            assert_eq!(w.node as usize, i / 3);
            assert_eq!(w.vtime_ns, 4 * (1_000 + node * 8 + wid));
        }
    }

    #[test]
    fn warmup_excluded() {
        let r = run(
            1,
            1,
            5,
            |_, _| {
                let mut calls = 0u64;
                move |_| {
                    calls += 1;
                    vtime::charge(if calls <= 3 { 1_000_000 } else { 10 });
                    "t"
                }
            },
            3,
        );
        assert_eq!(r.total_txns(), 5);
        assert!(r.workers[0].vtime_ns <= 100, "warmup cost must not be counted");
    }

    #[test]
    fn percentiles_are_ordered() {
        let r = run(
            1,
            1,
            100,
            |_, _| {
                let mut i = 0u64;
                move |_| {
                    i += 1;
                    vtime::charge(i * 100);
                    "t"
                }
            },
            0,
        );
        let ps = r.latency_percentiles_us(Some("t"), &[0.5, 0.9, 0.99]);
        assert!(ps[0] < ps[1] && ps[1] < ps[2]);
    }

    #[test]
    fn many_logical_workers_on_two_os_threads() {
        let r = run_pipelined(
            16,
            8,
            4,
            |node, wid| {
                move |_i: u64| {
                    // Each slice charges a cost unique to its worker so
                    // cross-slice accounting mix-ups would show.
                    vtime::charge(1_000 + node as u64 * 8 + wid as u64);
                    "t"
                }
            },
            1,
            2,
        );
        assert_eq!(r.os_threads, 2);
        assert_eq!(r.workers.len(), 128, "128 logical workers on 2 OS threads");
        assert_eq!(r.total_txns(), 128 * 4);
        for (idx, w) in r.workers.iter().enumerate() {
            assert_eq!(w.node as usize, idx / 8, "slot order is node-major");
            let per_txn = 1_000 + (idx / 8 * 8) as u64 + (idx % 8) as u64;
            assert_eq!(w.vtime_ns, 4 * per_txn, "worker accrues exactly its own charges");
        }
    }

    /// Spins `us` µs of wall time.
    fn spin(us: u64) {
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_micros(us) {
            std::hint::spin_loop();
        }
    }

    /// Runs `iters` slices after `warmup` on each of `nodes × per_node`
    /// workers, slice `k` of worker `i` calling `body(i, k)` and charging
    /// `1_000 + i` ns; returns the report and, per worker, the
    /// `(k, thread)` of every slice in the order they ran. Panics if two
    /// slices of one worker ever overlap.
    fn run_logged(
        (nodes, per_node): (usize, usize),
        (iters, warmup): (u64, u64),
        os_threads: usize,
        body: impl Fn(usize, u64) + Sync,
    ) -> (Report, Vec<Vec<(u64, std::thread::ThreadId)>>) {
        use std::sync::atomic::AtomicBool;
        use std::sync::atomic::Ordering::SeqCst;
        use std::sync::Mutex;
        let n = nodes * per_node;
        let running: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let logs: Vec<Mutex<Vec<_>>> = (0..n).map(|_| Mutex::default()).collect();
        let (running, logs_ref, body) = (&running, &logs, &body);
        let r = run_pipelined(
            nodes,
            per_node,
            iters,
            |node, wid| {
                let i = node as usize * per_node + wid;
                move |k: u64| {
                    assert!(!running[i].swap(true, SeqCst), "worker {i} ran two slices at once");
                    logs_ref[i].lock().unwrap().push((k, std::thread::current().id()));
                    body(i, k);
                    vtime::charge(1_000 + i as u64);
                    running[i].store(false, SeqCst);
                    "t"
                }
            },
            warmup,
            os_threads,
        );
        (r, logs.into_iter().map(|l| l.into_inner().unwrap()).collect())
    }

    /// Every worker ran its slices `k = 0, 1, …` in order, and the report
    /// lists the workers node-major with exactly their own charges.
    fn assert_ran_in_order(
        r: &Report,
        logs: &[Vec<(u64, std::thread::ThreadId)>],
        per_node: usize,
        iters: u64,
        warmup: u64,
    ) {
        assert_eq!(r.workers.len(), logs.len());
        for (i, (w, log)) in r.workers.iter().zip(logs).enumerate() {
            let ks: Vec<u64> = log.iter().map(|&(k, _)| k).collect();
            assert_eq!(ks, (0..warmup + iters).collect::<Vec<_>>(), "worker {i}'s slices");
            assert_eq!(w.node as usize, i / per_node, "the report is node-major");
            assert_eq!(w.samples.len() as u64, iters);
            assert_eq!(w.vtime_ns, iters * (1_000 + i as u64), "worker {i}'s own charges");
        }
    }

    /// The one thread each worker ran on, asserting it never changed.
    fn owners(logs: &[Vec<(u64, std::thread::ThreadId)>]) -> Vec<std::thread::ThreadId> {
        let owner = |log: &Vec<(u64, std::thread::ThreadId)>| {
            assert!(log.iter().all(|&(_, t)| t == log[0].1), "a worker changed threads");
            log[0].1
        };
        logs.iter().map(owner).collect()
    }

    #[test]
    fn each_worker_stays_on_its_owner_and_never_runs_twice_at_once() {
        // Thread 0 owns machine 0, whose workers spin 20 µs a slice;
        // thread 1 runs machine 1's instant ones to the end long before,
        // and must not take over the slow ones.
        let (iters, warmup) = (200, 2);
        let body = |i: usize, _| {
            if i < 4 {
                spin(20);
            }
        };
        let (r, logs) = run_logged((2, 4), (iters, warmup), 2, body);
        assert_eq!(r.os_threads, 2);
        assert_ran_in_order(&r, &logs, 4, iters, warmup);
        let owners = owners(&logs);
        for (i, t) in owners.iter().enumerate() {
            assert_eq!(*t == owners[0], i < 4, "worker {i} is not thread {}'s", i / 4);
        }
    }

    #[test]
    fn a_pool_thread_owns_whole_machines() {
        // `(machines, workers per machine)` on 2 threads: each worker's
        // thread as 0 for the first block's and 1 for the second's.
        let blocks = |shape: (usize, usize)| {
            let (r, logs) = run_logged(shape, (3, 1), 2, |_, _| {});
            assert_ran_in_order(&r, &logs, shape.1, 3, 1);
            let owners = owners(&logs);
            owners.iter().map(|t| usize::from(t != &owners[0])).collect::<Vec<_>>()
        };
        let split = |n: usize, first: usize| [vec![0; first], vec![1; n - first]].concat();
        // 6 machines × 4: machines 0–2 on one thread, 3–5 on the other.
        assert_eq!(blocks((6, 4)), split(24, 12));
        // One machine × 8 (fig12's first leg): workers 0–3 and 4–7.
        assert_eq!(blocks((1, 8)), split(8, 4));
        // 3 machines × 8: two blocks of 12, so machine 1 (workers 8–15)
        // is split 4/4.
        assert_eq!(blocks((3, 8)), split(24, 12));
    }

    #[test]
    fn a_pool_larger_than_the_workers_spawns_one_thread_per_worker() {
        let (r, logs) = run_logged((1, 3), (5, 1), 8, |i, _| spin(i as u64));
        assert_eq!(r.os_threads, 3, "threads that would own no worker are not spawned");
        assert_ran_in_order(&r, &logs, 3, 5, 1);
        let (r, logs) = run_logged((1, 1), (4, 0), 8, |_, _| {});
        assert_eq!(r.os_threads, 1);
        assert_ran_in_order(&r, &logs, 1, 4, 0);
    }

    #[test]
    fn zero_vtime_workers_do_not_inflate_throughput() {
        // Two contributing workers at 1e6 tps plus one that recorded no
        // virtual time: throughput must scale by 2, not 3.
        let mk = |samples: usize, vtime_ns: u64| WorkerRun {
            node: 0,
            samples: vec![("t", 1_000); samples],
            vtime_ns,
        };
        let r = Report { workers: vec![mk(10, 10_000), mk(10, 10_000), mk(0, 0)], os_threads: 1 };
        assert!((r.throughput() - 2e6).abs() < 1.0);
    }

    #[test]
    fn even_worker_count_uses_median_midpoint() {
        // Rates 1e6 and 3e6: the median is their midpoint 2e6, so the
        // cluster estimate is 4e6, not the upper element's 6e6.
        let r = Report {
            workers: vec![
                WorkerRun { node: 0, samples: vec![("t", 1_000); 10], vtime_ns: 10_000 },
                WorkerRun { node: 0, samples: vec![("t", 333); 30], vtime_ns: 10_000 },
            ],
            os_threads: 1,
        };
        assert!((r.throughput() - 4e6).abs() < 1.0);
    }

    #[test]
    fn throughput_of_weights_by_virtual_time_share() {
        // Worker 1 runs only cheap "a" txns (100 ns), worker 2 only
        // expensive "b" txns (1000 ns). "a"'s rate inside worker 1 is
        // 1e7 tps and 0 in worker 2: median midpoint 5e6 × 2 = 1e7.
        // Count-share scaling would claim throughput() × 10/20 ≈ 5.5e6,
        // overcharging "a" with "b"'s costs.
        let r = Report {
            workers: vec![
                WorkerRun { node: 0, samples: vec![("a", 100); 10], vtime_ns: 1_000 },
                WorkerRun { node: 0, samples: vec![("b", 1_000); 10], vtime_ns: 10_000 },
            ],
            os_threads: 1,
        };
        assert!((r.throughput_of("a") - 1e7).abs() < 1.0);
        assert!((r.throughput_of("b") - 1e6).abs() < 1.0);
        assert_eq!(r.throughput_of("missing"), 0.0);
    }
}
