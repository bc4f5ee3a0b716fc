//! Synchronized time and the softtime timer thread (§6.1).
//!
//! Leases need a cluster-synchronized clock. The paper cannot call a
//! time service inside an RTM region (it would abort the transaction),
//! so a dedicated *timer thread* periodically publishes a software time
//! (`softtime`) that transactions read like ordinary memory. Reading it
//! inside an HTM region adds the softtime word to the transaction's read
//! set, so every timer update aborts those transactions — the false
//! conflicts of Figure 11 that the reuse-start-softtime optimisation
//! avoids.
//!
//! Each simulated machine keeps its softtime word at region offset
//! [`SOFTTIME_OFF`]; one timer thread updates every machine from the
//! same wall clock, so the inter-machine skew equals the update interval
//! (standing in for PTP's 50 µs precision).

use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use drtm_htm::{Abort, HtmTxn, Region};
use drtm_rdma::Cluster;

/// Region offset of a machine's softtime word (first 64-byte line is
/// reserved for it by every layout in this reproduction).
pub const SOFTTIME_OFF: usize = 0;

/// The update interval of every deployment that does not sweep it
/// (Figure 11's x-axis does): what `Deployment::start` is handed.
pub const SOFTTIME_INTERVAL: Duration = Duration::from_micros(200);

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Wall-clock microseconds since the (lazily initialised) cluster epoch.
///
/// Starts at 1 000 000 so that 0 can mean "no lease" in the state word.
pub fn wall_now_us() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    1_000_000 + epoch.elapsed().as_micros() as u64
}

/// Reads a machine's softtime non-transactionally (Start phase).
pub fn softtime_nt(region: &Region) -> u64 {
    region.read_u64_nt(SOFTTIME_OFF)
}

/// Reads a machine's softtime inside an HTM transaction.
///
/// This puts the softtime line into the read set: the transaction will
/// be aborted by the next timer update (strong atomicity) — the cost the
/// paper's Figure 11(b) measures.
pub fn softtime_txn(txn: &mut HtmTxn<'_>) -> Result<u64, Abort> {
    txn.read_u64(SOFTTIME_OFF)
}

/// The cluster-wide softtime updater, started by `Deployment::start`
/// and owned by the [`crate::DrTm`] it returns.
///
/// Dropping the handle stops the thread *promptly*: the timer waits on a
/// condition variable instead of sleeping, so `drop` wakes it
/// immediately and returns well under one interval even for coarse
/// intervals (short-lived test harnesses must not pay a full tick).
#[derive(Debug)]
pub struct SoftTimer {
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl SoftTimer {
    /// Spawns a timer thread that writes `wall_now_us()` to every node's
    /// softtime word every `interval`.
    ///
    /// The update is a non-transactional store, so it conflicts with any
    /// in-flight HTM transaction whose read set contains the softtime
    /// line — deliberately reproducing the paper's behaviour.
    pub(crate) fn start(cluster: Arc<Cluster>, interval: Duration) -> SoftTimer {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let shared2 = shared.clone();
        // Publish an initial value so readers never observe 0.
        Self::tick_now(&cluster);
        let handle = std::thread::Builder::new()
            .name("drtm-softtime".into())
            .spawn(move || {
                let (stop, cv) = &*shared2;
                let mut stopped = stop.lock().expect("softtime lock poisoned");
                loop {
                    let (guard, timeout) = cv
                        .wait_timeout_while(stopped, interval, |s| !*s)
                        .expect("softtime lock poisoned");
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        Self::tick_now(&cluster);
                    }
                }
            })
            .expect("spawn softtime timer");
        SoftTimer { shared, handle: Some(handle) }
    }

    /// One update of every node's softtime word, now: the timer's tick,
    /// a frozen clock's only one, a joined machine's first.
    pub fn tick_now(cluster: &Cluster) {
        let now = wall_now_us();
        for n in 0..cluster.num_nodes() {
            cluster.node(n as u16).region().write_u64_nt(SOFTTIME_OFF, now);
        }
    }
}

impl Drop for SoftTimer {
    fn drop(&mut self) {
        let (stop, cv) = &*self.shared;
        *stop.lock().expect("softtime lock poisoned") = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_rdma::{ClusterConfig, LatencyProfile};

    fn cluster(n: usize) -> Arc<Cluster> {
        Cluster::new(ClusterConfig {
            nodes: n,
            region_size: 4096,
            profile: LatencyProfile::zero(),
            ..Default::default()
        })
    }

    #[test]
    fn wall_clock_is_monotonic_and_nonzero() {
        let a = wall_now_us();
        let b = wall_now_us();
        assert!(a >= 1_000_000);
        assert!(b >= a);
    }

    #[test]
    fn timer_publishes_to_all_nodes() {
        let c = cluster(3);
        let _t = SoftTimer::start(c.clone(), Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(20));
        for n in 0..3u16 {
            let st = softtime_nt(c.node(n).region());
            assert!(st >= 1_000_000, "node {n} softtime not published: {st}");
        }
    }

    #[test]
    fn timer_update_aborts_htm_reader() {
        let c = cluster(1);
        SoftTimer::tick_now(&c);
        let region = c.node(0).region();
        let cfg = drtm_htm::HtmConfig::default();
        let mut txn = region.begin(&cfg);
        softtime_txn(&mut txn).unwrap();
        SoftTimer::tick_now(&c); // timer fires mid-transaction
        assert_eq!(txn.commit(), Err(Abort::Conflict));
    }

    #[test]
    fn drop_returns_well_under_the_interval() {
        // The timer parks on a condvar; drop must not wait out a tick.
        let c = cluster(1);
        let t = SoftTimer::start(c, Duration::from_secs(30));
        std::thread::sleep(Duration::from_millis(5));
        let t0 = Instant::now();
        drop(t);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "drop took {:?} against a 30 s interval",
            t0.elapsed()
        );
    }

    #[test]
    fn nt_read_does_not_conflict() {
        let c = cluster(1);
        SoftTimer::tick_now(&c);
        let region = c.node(0).region();
        let cfg = drtm_htm::HtmConfig::default();
        let mut txn = region.begin(&cfg);
        txn.read_u64(128).unwrap();
        let _ = softtime_nt(region); // Start-phase read, outside HTM
        SoftTimer::tick_now(&c);
        txn.commit().expect("softtime update must not abort non-readers");
    }
}
