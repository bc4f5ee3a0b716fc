//! Failure detection (the paper's Zookeeper role, §4.6).
//!
//! DrTM delegates failure detection to an external coordination service:
//! every machine maintains a heartbeat, and when one stops, the service
//! notifies a surviving machine to run recovery against the crashed
//! machine's NVRAM logs. This module is that service's stand-in: one
//! monitor thread and a user-supplied recovery callback invoked with
//! `(crashed, survivor)`.
//!
//! The detector owns no liveness. Who is dead and who has left is the
//! fabric's [`drtm_rdma::FaultPlan`] — the one place a test, a harness
//! or an armed crash site says so — and a machine's heart beats exactly
//! while the plan calls it alive, so the timeout models the service's
//! detection delay and cannot raise a false suspicion. Reading the plan
//! is not fabric traffic (no verb, no virtual time): the paper runs
//! Zookeeper over a separate 10 GbE network.

use std::sync::Arc;
use std::time::Duration;

use drtm_htm::clock::{self, Ticker};
use drtm_rdma::{Cluster, NodeId};

/// The heartbeat-based failure detector.
///
/// Dropping the handle stops its thread.
#[derive(Debug)]
pub struct FailureDetector {
    _monitor: Option<Ticker>,
}

impl FailureDetector {
    /// Starts the monitor over `cluster`. Every `heartbeat` it stamps
    /// each provisioned machine the fault plan calls alive, then
    /// suspects a crashed, non-retired machine whose stamp is older than
    /// `timeout` and calls `on_failure(crashed, survivor)` once, the
    /// survivor being the lowest-numbered alive machine (the paper lets
    /// Zookeeper pick any).
    ///
    /// The monitor walks `0..cluster.num_nodes()` afresh each period, so
    /// a machine joined later is covered with no registration, and a
    /// gracefully retired one — which is *supposed* to go quiet — is
    /// neither suspected nor handed out as the recovery driver. Stamping
    /// a machine clears its suspicion and re-arms its report: one that
    /// restarts and crashes *again* is reported again, provided the
    /// restart lasted a period, as with any heartbeat service.
    ///
    /// A fabric with room for fewer than two machines can never have a
    /// survivor to drive recovery: no thread, nothing ever reported.
    pub fn start(
        cluster: Arc<Cluster>,
        heartbeat: Duration,
        timeout: Duration,
        on_failure: impl Fn(NodeId, NodeId) + Send + 'static,
    ) -> FailureDetector {
        assert!(timeout > heartbeat, "timeout must exceed the heartbeat period");
        let cap = cluster.max_nodes();
        // Machines reported to the callback and not seen alive since.
        let mut reported = vec![false; cap];
        // When each machine was last seen alive (µs). A slot not yet
        // provisioned keeps the start time: a joiner is stamped before
        // it is first checked.
        let mut stamps = vec![clock::now_us(); cap];
        let pass = move || {
            let faults = cluster.faults();
            let retired = |m: usize| faults.is_retired(m as NodeId);
            let crashed = |m: usize| faults.is_crashed(m as NodeId);
            let alive = |m: usize| !crashed(m) && !retired(m);
            let now = clock::now_us();
            let nodes = cluster.num_nodes();
            let mut survivor = None;
            for m in (0..nodes).filter(|&m| alive(m)) {
                stamps[m] = now;
                reported[m] = false;
                survivor.get_or_insert(m);
            }
            for m in (0..nodes).filter(|&m| crashed(m) && !retired(m)) {
                let late = now.saturating_sub(stamps[m]) > timeout.as_micros() as u64;
                if late && !std::mem::replace(&mut reported[m], true) {
                    if let Some(s) = survivor {
                        on_failure(m as NodeId, s as NodeId);
                    }
                }
            }
        };
        let _monitor = (cap >= 2).then(|| clock::every("drtm-failure-monitor", heartbeat, pass));
        FailureDetector { _monitor }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_rdma::{ClusterConfig, LatencyProfile};
    use std::sync::mpsc;
    use std::time::Instant;

    const PERIOD: Duration = Duration::from_millis(5);

    /// A fabric of `nodes` machines with room for `max_nodes`, and a
    /// detector over it that sends every report down the channel.
    fn watched(
        nodes: usize,
        max_nodes: usize,
        timeout_ms: u64,
    ) -> (Arc<Cluster>, FailureDetector, mpsc::Receiver<(NodeId, NodeId)>) {
        let cluster = Cluster::new(ClusterConfig {
            nodes,
            max_nodes,
            region_size: 4096,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let (tx, rx) = mpsc::channel();
        let fd = FailureDetector::start(
            cluster.clone(),
            PERIOD,
            Duration::from_millis(timeout_ms),
            move |crashed, survivor| {
                let _ = tx.send((crashed, survivor));
            },
        );
        (cluster, fd, rx)
    }

    #[test]
    fn an_armed_crash_site_is_detected_and_a_survivor_named() {
        let (cluster, _fd, rx) = watched(3, 3, 400);
        // The test only arms; the "protocol" reaching the site is what
        // kills the machine, and nobody tells the detector.
        cluster.faults().arm_crash(1, "some-site");
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "armed is not dead");
        assert!(cluster.faults().crash_hook(1, "some-site"));
        let (crashed, survivor) = rx.recv_timeout(Duration::from_secs(10)).expect("detection");
        assert_eq!((crashed, survivor), (1, 0));
        // Exactly one report per crash.
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn drop_returns_well_under_the_heartbeat() {
        // The monitor parks on the clock's condvar; drop must not wait
        // out a heartbeat.
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4096,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let heartbeat = Duration::from_secs(30);
        let fd = FailureDetector::start(cluster, heartbeat, 2 * heartbeat, |_, _| {});
        std::thread::sleep(Duration::from_millis(5));
        let t0 = Instant::now();
        drop(fd);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "drop took {:?} against a 30 s heartbeat",
            t0.elapsed()
        );
    }

    #[test]
    fn healthy_cluster_reports_nothing() {
        let (_cluster, _fd, rx) = watched(2, 2, 500);
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
    }

    #[test]
    fn capacity_one_fabric_spawns_no_thread() {
        // A 1-node cluster that cannot grow has nobody to recover from:
        // the detector must simply never report.
        let (cluster, fd, rx) = watched(1, 1, 50);
        assert!(fd._monitor.is_none());
        cluster.faults().kill(0);
        assert!(rx.recv_timeout(Duration::from_millis(150)).is_err());
    }

    #[test]
    fn a_machine_revived_within_the_timeout_is_never_reported() {
        let (cluster, _fd, rx) = watched(2, 2, 600);
        cluster.faults().kill(1);
        std::thread::sleep(Duration::from_millis(50));
        cluster.faults().revive(1);
        assert!(rx.recv_timeout(Duration::from_millis(800)).is_err(), "a blip is not a crash");
    }

    #[test]
    fn revive_clears_suspicion_and_a_second_crash_is_reported_again() {
        // The rejoin-then-crash-again case: seeing the machine alive
        // must re-arm its report, else the second crash is silent.
        let (cluster, _fd, rx) = watched(3, 3, 400);
        cluster.faults().kill(1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).expect("first crash"), (1, 0));
        cluster.faults().revive(1);
        // A pass stamps the alive machines before it reports: the pass
        // that reports machine 2 has seen the restarted machine 1.
        cluster.faults().kill(2);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).expect("probe crash"), (2, 0));
        cluster.faults().kill(1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).expect("second crash"), (1, 0));
        // Exactly one report per crash.
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn a_machine_added_after_start_is_covered() {
        let (cluster, _fd, rx) = watched(2, 4, 400);
        let joined = cluster.add_node().expect("capacity for a third node");
        assert_eq!(joined, 2);
        // The joined machine is alive: no spurious report, although its
        // slot had never been stamped before it existed...
        assert!(rx.recv_timeout(Duration::from_millis(600)).is_err());
        // ...and its death is detected like any founding member's.
        cluster.faults().kill(joined);
        let (crashed, survivor) = rx.recv_timeout(Duration::from_secs(10)).expect("detection");
        assert_eq!((crashed, survivor), (joined, 0));
    }

    #[test]
    fn retired_machines_are_neither_suspected_nor_survivors() {
        let (cluster, _fd, rx) = watched(3, 3, 400);
        // Machine 0 is retired and, like a joiner that died and was
        // rolled back, also dead: retirement outranks the crash.
        cluster.faults().retire(0);
        cluster.faults().kill(0);
        assert!(rx.recv_timeout(Duration::from_millis(600)).is_err(), "drain is not a crash");
        // Machine 1 crashes: the survivor must skip retired machine 0
        // even though 0 is the lowest-numbered slot.
        cluster.faults().kill(1);
        let (crashed, survivor) = rx.recv_timeout(Duration::from_secs(10)).expect("detection");
        assert_eq!((crashed, survivor), (1, 2));
    }
}
