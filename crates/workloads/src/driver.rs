//! Pipelined virtual-time benchmark driver.
//!
//! Every throughput experiment follows the same shape: run a workload
//! closure a fixed number of iterations per *logical worker* and read
//! each worker's virtual-time meter ([`drtm_htm::vtime`]). Logical
//! workers are multiplexed onto a small OS thread pool: each in-flight
//! transaction is one slice of a per-worker state machine, so a
//! 64-node × 8-worker cluster needs 512 state machines but only a
//! handful of OS threads — the host's physical core count caps wall
//! speed, never the simulated cluster size. Pool threads run in
//! cooperative mode ([`drtm_htm::clock::set_cooperative`]): waits are
//! charged to virtual time and the quantum is yielded instead of slept
//! away.
//!
//! Cluster throughput is the median per-worker rate times the number of
//! workers that contributed a rate — workers run concurrently in
//! virtual time by construction, so wall-clock multiplexing does not
//! distort the scaling curves.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

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
pub fn default_os_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(2, 8)
}

/// One logical worker's state machine: its workload closure plus the
/// progress and measurements of the transactions it has run so far.
struct LogicalWorker<F> {
    node: NodeId,
    f: F,
    /// Transactions completed, warmup included.
    done: u64,
    samples: Vec<(&'static str, u64)>,
    vtime_ns: u64,
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
/// A slice is one whole transaction: a thread pops a logical worker off
/// the shared ready queue, runs one slice, reads the virtual-time meter
/// and puts the worker at the back of the queue. A thread that finds the
/// queue empty leaves: every unfinished worker is then in another
/// thread's hands, and those threads suffice from there on.
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
    let total_iters = warmup + iters;
    let mut slots: Vec<Mutex<LogicalWorker<F>>> = Vec::with_capacity(nodes * workers);
    for node in 0..nodes as NodeId {
        for wid in 0..workers {
            slots.push(Mutex::new(LogicalWorker {
                node,
                f: make(node, wid),
                done: 0,
                samples: Vec::with_capacity(iters as usize),
                vtime_ns: 0,
            }));
        }
    }
    let (os_threads, cooperative) = match threads {
        Threads::Pool(n) => (n.max(1), true),
        Threads::PerWorker => (slots.len(), false),
    };
    let ready: Mutex<VecDeque<usize>> =
        Mutex::new(if total_iters > 0 { (0..slots.len()).collect() } else { VecDeque::new() });
    std::thread::scope(|s| {
        for _ in 0..os_threads {
            s.spawn(|| {
                clock::set_cooperative(cooperative);
                vtime::take();
                loop {
                    let next = ready.lock().expect("ready queue poisoned").pop_front();
                    let Some(i) = next else { break };
                    let mut lw = slots[i].lock().expect("logical worker poisoned");
                    let k = lw.done;
                    let label = (lw.f)(k);
                    let spent = vtime::take();
                    lw.done += 1;
                    if k >= warmup {
                        lw.samples.push((label, spent));
                        lw.vtime_ns += spent;
                    }
                    let all_done = lw.done == total_iters;
                    drop(lw);
                    if !all_done {
                        ready.lock().expect("ready queue poisoned").push_back(i);
                    }
                }
            });
        }
    });
    let workers = slots
        .into_iter()
        .map(|m| {
            let lw = m.into_inner().expect("logical worker poisoned");
            WorkerRun { node: lw.node, samples: lw.samples, vtime_ns: lw.vtime_ns }
        })
        .collect();
    Report { workers, os_threads }
}

/// Runs `iters` transactions on each of `nodes × workers` logical
/// workers, multiplexed onto [`default_os_threads`] pool threads.
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
/// Scheduling is cooperative and non-preemptive. Locks are only ever
/// held by a currently-running slice (the transaction layer releases
/// them before committing or aborting), so with ≥ 2 pool threads a
/// waiting slice's conflict partner is always running and lock waits
/// stay bounded.
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
