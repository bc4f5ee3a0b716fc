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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drtm_htm::{Executor, HtmTxn};
use drtm_memstore::BTree;
use drtm_rdma::{Cluster, FabricError, NodeId, QueueId};

/// Queue id of a machine's ordered-store scan service.
pub const SCAN_RPC_QUEUE: QueueId = 0xFFDD;

/// Wire: `tree(2) lo(8) hi(8) max(4) reply_q(2)`.
fn encode_req(tree: u16, lo: u64, hi: u64, max: u32, reply_q: QueueId) -> Vec<u8> {
    let mut b = Vec::with_capacity(24);
    b.extend_from_slice(&tree.to_le_bytes());
    b.extend_from_slice(&lo.to_le_bytes());
    b.extend_from_slice(&hi.to_le_bytes());
    b.extend_from_slice(&max.to_le_bytes());
    b.extend_from_slice(&reply_q.to_le_bytes());
    b
}

fn decode_req(b: &[u8]) -> (u16, u64, u64, u32, QueueId) {
    (
        u16::from_le_bytes(b[0..2].try_into().expect("scan req")),
        u64::from_le_bytes(b[2..10].try_into().expect("scan req")),
        u64::from_le_bytes(b[10..18].try_into().expect("scan req")),
        u32::from_le_bytes(b[18..22].try_into().expect("scan req")),
        u16::from_le_bytes(b[22..24].try_into().expect("scan req")),
    )
}

fn encode_pairs(pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + pairs.len() * 16);
    b.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(k, v) in pairs {
        b.extend_from_slice(&k.to_le_bytes());
        b.extend_from_slice(&v.to_le_bytes());
    }
    b
}

fn decode_pairs(b: &[u8]) -> Vec<(u64, u64)> {
    let n = u32::from_le_bytes(b[0..4].try_into().expect("scan reply")) as usize;
    (0..n)
        .map(|i| {
            let at = 4 + i * 16;
            (
                u64::from_le_bytes(b[at..at + 8].try_into().expect("scan reply")),
                u64::from_le_bytes(b[at + 8..at + 16].try_into().expect("scan reply")),
            )
        })
        .collect()
}

/// Ships a range scan of `tree_idx` on `host` and waits for the pairs.
// One parameter per wire-request field; bundling them would just move
// the field list into a one-shot struct.
#[allow(clippy::too_many_arguments)]
pub fn remote_scan(
    cluster: &Arc<Cluster>,
    from: NodeId,
    host: NodeId,
    reply_q: QueueId,
    tree_idx: u16,
    lo: u64,
    hi: u64,
    max: u32,
) -> Vec<(u64, u64)> {
    let qp = cluster.qp(from);
    qp.send(host, SCAN_RPC_QUEUE, encode_req(tree_idx, lo, hi, max, reply_q));
    let reply = cluster.verbs().recv(from, reply_q);
    decode_pairs(&reply.payload)
}

/// [`remote_scan`] with a reply deadline: a crashed host is reported as
/// a typed [`FabricError`] instead of blocking forever. The SEND itself
/// fails fast if the host is already known dead; a host that dies after
/// accepting the request (or whose reply is dropped by the fault plan)
/// surfaces as [`FabricError::Timeout`] once `deadline` elapses.
// Mirrors remote_scan's wire-field parameter list.
#[allow(clippy::too_many_arguments)]
pub fn try_remote_scan(
    cluster: &Arc<Cluster>,
    from: NodeId,
    host: NodeId,
    reply_q: QueueId,
    tree_idx: u16,
    lo: u64,
    hi: u64,
    max: u32,
    deadline: Duration,
) -> Result<Vec<(u64, u64)>, FabricError> {
    let qp = cluster.qp(from);
    qp.try_send(host, SCAN_RPC_QUEUE, encode_req(tree_idx, lo, hi, max, reply_q))?;
    let reply = cluster
        .verbs()
        .recv_timeout(from, reply_q, deadline)
        .ok_or(FabricError::Timeout { node: host })?;
    Ok(decode_pairs(&reply.payload))
}

/// Host-side scan service over a registry of trees; runs until dropped.
#[derive(Debug)]
pub struct ScanServiceGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ScanServiceGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Spawns the scan service for `host` over `trees` (indexed by the wire
/// `tree` field). Scans run as validated standalone HTM reads.
pub fn spawn_scan_service(
    cluster: Arc<Cluster>,
    host: NodeId,
    trees: Vec<Arc<BTree>>,
    exec: Executor,
) -> ScanServiceGuard {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handle = std::thread::Builder::new()
        .name(format!("drtm-scan-rpc-{host}"))
        .spawn(move || {
            let region = cluster.node(host).region().clone();
            let qp = cluster.qp(host);
            while !stop2.load(Ordering::Relaxed) {
                let Some(msg) =
                    cluster.verbs().recv_timeout(host, SCAN_RPC_QUEUE, Duration::from_millis(2))
                else {
                    continue;
                };
                let (tree_idx, lo, hi, max, reply_q) = decode_req(&msg.payload);
                let tree = &trees[tree_idx as usize];
                let scan = |txn: &mut HtmTxn<'_>| tree.scan_range(txn, lo, hi, max as usize);
                let pairs = drtm_core::standalone(&region, exec.config(), scan)
                    .expect("a read-only scan aborted for good");
                // A client that crashed between request and reply must
                // not take the whole scan service down with it.
                let _ = qp.try_send(msg.from, reply_q, encode_pairs(&pairs));
            }
        })
        .expect("spawn scan service");
    ScanServiceGuard { stop, handle: Some(handle) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::{HtmConfig, HtmStats};
    use drtm_memstore::Arena;
    use drtm_rdma::{ClusterConfig, LatencyProfile};

    #[test]
    fn wire_roundtrips() {
        let (t, lo, hi, m, q) = decode_req(&encode_req(3, 10, 99, 7, 42));
        assert_eq!((t, lo, hi, m, q), (3, 10, 99, 7, 42));
        let pairs = vec![(1u64, 2u64), (u64::MAX, 0)];
        assert_eq!(decode_pairs(&encode_pairs(&pairs)), pairs);
    }

    #[test]
    fn shipped_scan_returns_host_data() {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(0, 4 << 20);
        let region = cluster.node(0).region();
        let tree = Arc::new(BTree::create(&mut arena, region, 0, BTree::pool_for(100)));
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        for k in 0..100u64 {
            loop {
                let mut txn = region.begin(exec.config());
                if tree.insert(&mut txn, k, k * 2).is_ok() && txn.commit().is_ok() {
                    break;
                }
            }
        }
        let _svc = spawn_scan_service(cluster.clone(), 0, vec![tree], exec);
        let got = remote_scan(&cluster, 1, 0, 77, 0, 10, 20, 100);
        assert_eq!(got, (10..=20).map(|k| (k, k * 2)).collect::<Vec<_>>());
        let capped = remote_scan(&cluster, 1, 0, 77, 0, 0, 99, 5);
        assert_eq!(capped.len(), 5);
    }

    #[test]
    fn dead_clients_and_dead_hosts_do_not_wedge_the_scan_rpc() {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            region_size: 4 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(0, 4 << 20);
        let region = cluster.node(0).region();
        let tree = Arc::new(BTree::create(&mut arena, region, 0, BTree::pool_for(10)));
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        for k in 0..10u64 {
            loop {
                let mut txn = region.begin(exec.config());
                if tree.insert(&mut txn, k, k).is_ok() && txn.commit().is_ok() {
                    break;
                }
            }
        }
        // Node 1 posts a request and dies before the service even starts:
        // the reply is undeliverable, and the service must shrug it off.
        cluster.qp(1).send(0, SCAN_RPC_QUEUE, encode_req(0, 0, 9, 100, 55));
        cluster.faults().kill(1);
        let svc = spawn_scan_service(cluster.clone(), 0, vec![tree], exec);
        let got = remote_scan(&cluster, 2, 0, 77, 0, 0, 9, 100);
        assert_eq!(got.len(), 10, "service survived the dead client's reply");
        // A crashed host fails the SEND itself, typed and immediate.
        cluster.faults().kill(0);
        let e = try_remote_scan(&cluster, 2, 0, 77, 0, 0, 9, 100, Duration::from_millis(50));
        assert_eq!(e, Err(FabricError::PeerDead { node: 0 }));
        cluster.faults().revive(0);
        // A host that accepts the request but never answers (service gone)
        // is bounded by the reply deadline.
        drop(svc);
        let e = try_remote_scan(&cluster, 2, 0, 78, 0, 0, 9, 100, Duration::from_millis(20));
        assert_eq!(e, Err(FabricError::Timeout { node: 0 }));
    }
}
