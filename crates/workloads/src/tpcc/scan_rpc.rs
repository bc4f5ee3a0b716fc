//! Remote range queries on ordered stores via SEND/RECV verbs (§3, §6.5).
//!
//! DrTM's B+ trees are local-only: one-sided RDMA cannot traverse them
//! safely, so remote range queries go to the owner over two-sided verbs
//! and execute there as validated HTM reads. TPC-C's by-name payment
//! against a remote warehouse uses this path to search the customer
//! name index on the customer's home machine (the paper's §6.5 further
//! ships the *whole* transaction; shipping the index lookup preserves
//! the same locality: ordered-store accesses never cross the wire as
//! one-sided operations).

use std::sync::Arc;

use drtm_htm::Executor;
use drtm_memstore::journal::{put_u16, put_u32, put_u64, Reader};
use drtm_memstore::BTree;
use drtm_rdma::rpc::{self, Service};
use drtm_rdma::{Cluster, FabricError, NodeId, Qp, QueueId};

/// Queue id of a machine's ordered-store scan service.
pub(crate) const SCAN_RPC_QUEUE: QueueId = 0xFFDD;

/// Ships a range scan of `host`'s `tree` (its index in the host's
/// registry) from `qp`'s machine and waits for at most `max` pairs;
/// [`rpc::call`] says what `reply_q` must be and how a host that does
/// not answer is reported.
///
/// Wire: request `tree(2) lo(8) hi(8) max(4)`, reply `n(4) n × (key(8)
/// value(8))`.
pub(crate) fn remote_scan(
    qp: &Qp,
    host: NodeId,
    reply_q: QueueId,
    tree: u16,
    lo: u64,
    hi: u64,
    max: u32,
) -> Result<Vec<(u64, u64)>, FabricError> {
    let mut request = Vec::with_capacity(22);
    put_u16(&mut request, tree);
    put_u64(&mut request, lo);
    put_u64(&mut request, hi);
    put_u32(&mut request, max);
    let reply = rpc::call(qp, host, SCAN_RPC_QUEUE, reply_q, &request)?;
    let mut r = Reader::new(&reply);
    Ok((0..r.u32()).map(|_| (r.u64(), r.u64())).collect())
}

/// Starts `host`'s scan service over `trees` (indexed by the wire `tree`
/// field): each scan runs as its own validated HTM region on `exec`,
/// until the returned [`Service`] is dropped.
pub(crate) fn spawn_scan_service(
    cluster: Arc<Cluster>,
    host: NodeId,
    trees: Vec<Arc<BTree>>,
    exec: Executor,
) -> Service {
    let region = cluster.node(host).region().clone();
    rpc::serve(cluster, host, SCAN_RPC_QUEUE, "scan-rpc", move |request| {
        let mut r = Reader::new(request);
        let (tree, lo, hi, max) = (&trees[r.u16() as usize], r.u64(), r.u64(), r.u32());
        let pairs = exec.run(&region, |txn| tree.scan_range(txn, lo, hi, max as usize));
        let pairs = pairs.expect("a read-only scan aborted for good");
        let mut reply = Vec::with_capacity(4 + pairs.len() * 16);
        put_u32(&mut reply, pairs.len() as u32);
        for (k, v) in pairs {
            put_u64(&mut reply, k);
            put_u64(&mut reply, v);
        }
        reply
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::{HtmConfig, HtmStats};
    use drtm_memstore::Arena;
    use drtm_rdma::{ClusterConfig, LatencyProfile};

    /// A cluster of `nodes` and, on machine 0, a tree holding `pairs`.
    fn setup(nodes: usize, pairs: &[(u64, u64)]) -> (Arc<Cluster>, Arc<BTree>, Executor) {
        let cluster = Cluster::new(ClusterConfig {
            nodes,
            region_size: 4 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(0, 4 << 20);
        let region = cluster.node(0).region();
        let tree = Arc::new(BTree::create(&mut arena, region, 0, BTree::pool_for(pairs.len())));
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        for &(k, v) in pairs {
            exec.run(region, |txn| tree.insert(txn, k, v)).unwrap();
        }
        (cluster, tree, exec)
    }

    #[test]
    fn shipped_scan_returns_host_data() {
        let mut pairs: Vec<(u64, u64)> = (0..100).map(|k| (k, k * 2)).collect();
        pairs.push((u64::MAX, 0));
        let (cluster, tree, exec) = setup(2, &pairs);
        let _svc = spawn_scan_service(cluster.clone(), 0, vec![tree], exec);
        let qp = cluster.qp(1);
        assert_eq!(remote_scan(&qp, 0, 77, 0, 10, 20, 100).unwrap(), pairs[10..=20]);
        assert_eq!(remote_scan(&qp, 0, 77, 0, 0, 99, 5).unwrap().len(), 5, "capped at `max`");
        // Both ends of the u64 range survive the wire, in either field.
        assert_eq!(remote_scan(&qp, 0, 77, 0, 99, u64::MAX, 100).unwrap(), pairs[99..]);
    }

    #[test]
    fn dead_clients_and_dead_hosts_do_not_wedge_the_scan_rpc() {
        let pairs: Vec<(u64, u64)> = (0..10).map(|k| (k, k)).collect();
        let (cluster, tree, exec) = setup(3, &pairs);
        // Node 1 posts a request (reply queue 55, tree 0, everything) and
        // dies before the service even starts: the reply is undeliverable,
        // and the service must shrug it off.
        let mut doomed = vec![55, 0, 0, 0];
        put_u64(&mut doomed, 0);
        put_u64(&mut doomed, 9);
        put_u32(&mut doomed, 100);
        cluster.qp(1).send(0, SCAN_RPC_QUEUE, doomed);
        cluster.faults().kill(1);
        let svc = spawn_scan_service(cluster.clone(), 0, vec![tree], exec);
        let qp = cluster.qp(2);
        let got = remote_scan(&qp, 0, 77, 0, 0, 9, 100);
        assert_eq!(got, Ok(pairs), "service survived the dead client's reply");
        // A crashed host fails the SEND itself, typed and immediate.
        cluster.faults().kill(0);
        let e = remote_scan(&qp, 0, 77, 0, 0, 9, 100);
        assert_eq!(e, Err(FabricError::PeerDead { node: 0 }));
        cluster.faults().revive(0);
        // A host that accepts the request but never answers (service gone)
        // is bounded by the grace period.
        drop(svc);
        let e = remote_scan(&qp, 0, 78, 0, 0, 9, 100);
        assert_eq!(e, Err(FabricError::Timeout { node: 0 }));
    }
}
