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

use std::sync::Arc;
use std::time::Duration;

use drtm_htm::clock::{self, Ticker};
use drtm_htm::{Abort, HtmTxn, Region};
use drtm_rdma::Cluster;

/// Region offset of a machine's softtime word (first 64-byte line is
/// reserved for it by every layout in this reproduction).
pub const SOFTTIME_OFF: usize = 0;

/// The update interval of every deployment that does not sweep it
/// (Figure 11's x-axis does): what `Deployment::start` is handed.
pub const SOFTTIME_INTERVAL: Duration = Duration::from_micros(200);

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
/// and owned by the [`crate::DrTm`] it returns: a [`clock::every`]
/// ticker, so dropping the handle stops it promptly.
#[derive(Debug)]
pub struct SoftTimer {
    _ticker: Ticker,
}

impl SoftTimer {
    /// Publishes the softtime at once (readers never observe 0), then
    /// writes [`clock::now_us`] to every node's softtime word every
    /// `interval`.
    ///
    /// The update is a non-transactional store, so it conflicts with any
    /// in-flight HTM transaction whose read set contains the softtime
    /// line — deliberately reproducing the paper's behaviour.
    pub(crate) fn start(cluster: Arc<Cluster>, interval: Duration) -> SoftTimer {
        Self::tick_now(&cluster);
        let _ticker = clock::every("drtm-softtime", interval, move || Self::tick_now(&cluster));
        SoftTimer { _ticker }
    }

    /// One update of every node's softtime word, now: the timer's tick,
    /// a frozen clock's only one, a joined machine's first.
    pub fn tick_now(cluster: &Cluster) {
        let now = clock::now_us();
        for n in 0..cluster.num_nodes() {
            cluster.node(n as u16).region().write_u64_nt(SOFTTIME_OFF, now);
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
