//! Shipping INSERT/DELETE to the host machine over SEND/RECV verbs.
//!
//! One-sided RDMA cannot safely grow or shrink a remote hash table (the
//! allocator and chain surgery need the host's HTM), so DrTM ships those
//! operations as messages and executes them on the owner inside an HTM
//! transaction (§5.1 footnote 5). This module provides the wire format,
//! the client call, and the host-side service loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drtm_htm::{Executor, Region};
use drtm_rdma::{Cluster, NodeId, QueueId};

use crate::cluster_hash::{ClusterHash, InsertError};
use crate::split_ordered::ElasticHash;

/// A table kind the host-side store service can execute shipped
/// operations against. The wire format is table-kind-agnostic; the
/// host's registry decides how each index is backed.
#[derive(Debug, Clone)]
pub enum AnyTable {
    /// Fixed-size cluster-chaining table.
    Cluster(Arc<ClusterHash>),
    /// Elastic split-ordered table (online-resizable).
    Elastic(Arc<ElasticHash>),
}

impl AnyTable {
    fn insert(
        &self,
        exec: &Executor,
        region: &Region,
        key: u64,
        value: &[u8],
    ) -> Result<(), InsertError> {
        match self {
            AnyTable::Cluster(t) => t.insert(exec, region, key, value),
            AnyTable::Elastic(t) => t.insert(exec, region, key, value),
        }
    }

    fn delete(&self, exec: &Executor, region: &Region, key: u64) -> bool {
        match self {
            AnyTable::Cluster(t) => t.delete(exec, region, key),
            AnyTable::Elastic(t) => t.delete(exec, region, key),
        }
    }
}

impl From<Arc<ClusterHash>> for AnyTable {
    fn from(t: Arc<ClusterHash>) -> Self {
        AnyTable::Cluster(t)
    }
}

impl From<Arc<ElasticHash>> for AnyTable {
    fn from(t: Arc<ElasticHash>) -> Self {
        AnyTable::Elastic(t)
    }
}

/// Queue id of a machine's store-operation service.
pub const STORE_RPC_QUEUE: QueueId = 0xFFEE;

/// A shipped store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    /// Insert `key → value` into table `table`.
    Insert {
        /// Target table index (host-side registry order).
        table: u16,
        /// Key to insert.
        key: u64,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Delete `key` from table `table`.
    Delete {
        /// Target table index.
        table: u16,
        /// Key to delete.
        key: u64,
    },
}

/// Host reply to a shipped operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreReply {
    /// The operation succeeded.
    Ok,
    /// Insert failed: the key already existed.
    Duplicate,
    /// Insert failed: the table is full.
    Full,
    /// Delete did not find the key.
    NotFound,
}

/// Wire encoding: `op(1) table(2) key(8) reply_queue(2) [len(4) value]`.
fn encode_op(op: &StoreOp, reply_q: QueueId) -> Vec<u8> {
    let mut b = Vec::new();
    match op {
        StoreOp::Insert { table, key, value } => {
            b.push(1);
            b.extend_from_slice(&table.to_le_bytes());
            b.extend_from_slice(&key.to_le_bytes());
            b.extend_from_slice(&reply_q.to_le_bytes());
            b.extend_from_slice(&(value.len() as u32).to_le_bytes());
            b.extend_from_slice(value);
        }
        StoreOp::Delete { table, key } => {
            b.push(2);
            b.extend_from_slice(&table.to_le_bytes());
            b.extend_from_slice(&key.to_le_bytes());
            b.extend_from_slice(&reply_q.to_le_bytes());
        }
    }
    b
}

fn decode_op(b: &[u8]) -> (StoreOp, QueueId) {
    let table = u16::from_le_bytes(b[1..3].try_into().expect("rpc"));
    let key = u64::from_le_bytes(b[3..11].try_into().expect("rpc"));
    let reply_q = u16::from_le_bytes(b[11..13].try_into().expect("rpc"));
    match b[0] {
        1 => {
            let len = u32::from_le_bytes(b[13..17].try_into().expect("rpc")) as usize;
            (StoreOp::Insert { table, key, value: b[17..17 + len].to_vec() }, reply_q)
        }
        _ => (StoreOp::Delete { table, key }, reply_q),
    }
}

fn encode_reply(r: StoreReply) -> Vec<u8> {
    vec![match r {
        StoreReply::Ok => 0,
        StoreReply::Duplicate => 1,
        StoreReply::Full => 2,
        StoreReply::NotFound => 3,
    }]
}

fn decode_reply(b: &[u8]) -> StoreReply {
    match b[0] {
        0 => StoreReply::Ok,
        1 => StoreReply::Duplicate,
        2 => StoreReply::Full,
        _ => StoreReply::NotFound,
    }
}

/// Ships `op` to `host` and waits for the host's reply.
///
/// `reply_q` must be unique per client thread (responses are delivered
/// to it); the conventional choice is a per-worker queue id.
pub fn ship_store_op(
    cluster: &Arc<Cluster>,
    from: NodeId,
    host: NodeId,
    reply_q: QueueId,
    op: &StoreOp,
) -> StoreReply {
    let qp = cluster.qp(from);
    qp.send(host, STORE_RPC_QUEUE, encode_op(op, reply_q));
    let msg = cluster.verbs().recv(from, reply_q);
    decode_reply(&msg.payload)
}

/// Host-side service: drains shipped operations against the given table
/// registry until `stop` is set. Run one instance per machine.
pub fn serve_store_ops(
    cluster: &Arc<Cluster>,
    host: NodeId,
    tables: &[AnyTable],
    exec: &Executor,
    stop: &AtomicBool,
) {
    let region = cluster.node(host).region();
    let qp = cluster.qp(host);
    while !stop.load(Ordering::Relaxed) {
        let Some(msg) =
            cluster.verbs().recv_timeout(host, STORE_RPC_QUEUE, Duration::from_millis(2))
        else {
            continue;
        };
        let (op, reply_q) = decode_op(&msg.payload);
        let reply = match op {
            StoreOp::Insert { table, key, value } => {
                match tables[table as usize].insert(exec, region, key, &value) {
                    Ok(()) => StoreReply::Ok,
                    Err(InsertError::Duplicate) => StoreReply::Duplicate,
                    Err(InsertError::Full) => StoreReply::Full,
                }
            }
            StoreOp::Delete { table, key } => {
                if tables[table as usize].delete(exec, region, key) {
                    StoreReply::Ok
                } else {
                    StoreReply::NotFound
                }
            }
        };
        // A client that crashed between request and reply must not take
        // the service down: every later shipped operation to this host
        // (the resharder's cutover barrier, each purge) would wait on a
        // reply nobody is left to send.
        let _ = qp.try_send(msg.from, reply_q, encode_reply(reply));
    }
}

/// Spawns [`serve_store_ops`] on a background thread; the service stops
/// when the returned guard is dropped.
pub fn spawn_store_service(
    cluster: Arc<Cluster>,
    host: NodeId,
    tables: Vec<impl Into<AnyTable>>,
    exec: Executor,
) -> StoreServiceGuard {
    let tables: Vec<AnyTable> = tables.into_iter().map(Into::into).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handle = std::thread::Builder::new()
        .name(format!("drtm-store-rpc-{host}"))
        .spawn(move || serve_store_ops(&cluster, host, &tables, &exec, &stop2))
        .expect("spawn store service");
    StoreServiceGuard { stop, handle: Some(handle) }
}

/// Stops the background store service on drop.
#[derive(Debug)]
pub struct StoreServiceGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for StoreServiceGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Arena;
    use drtm_htm::{HtmConfig, HtmStats};
    use drtm_rdma::{ClusterConfig, LatencyProfile};

    fn setup(nodes: usize) -> (Arc<Cluster>, Arc<ClusterHash>, Executor) {
        let cluster = Cluster::new(ClusterConfig {
            nodes,
            region_size: 4 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(64, (4 << 20) - 64);
        let table = Arc::new(ClusterHash::create(&mut arena, 0, 64, 500, 32));
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        (cluster, table, exec)
    }

    #[test]
    fn wire_format_roundtrips() {
        for op in [
            StoreOp::Insert { table: 3, key: 42, value: b"hello".to_vec() },
            StoreOp::Insert { table: 0, key: u64::MAX, value: vec![] },
            StoreOp::Delete { table: 7, key: 9 },
        ] {
            let (back, q) = decode_op(&encode_op(&op, 17));
            assert_eq!(back, op);
            assert_eq!(q, 17);
        }
        for r in [StoreReply::Ok, StoreReply::Duplicate, StoreReply::Full, StoreReply::NotFound] {
            assert_eq!(decode_reply(&encode_reply(r)), r);
        }
    }

    #[test]
    fn shipped_insert_and_delete() {
        let (cluster, table, exec) = setup(2);
        let _svc = spawn_store_service(cluster.clone(), 0, vec![table.clone()], exec.clone());
        // Client on machine 1 ships an insert to machine 0.
        let r = ship_store_op(
            &cluster,
            1,
            0,
            100,
            &StoreOp::Insert { table: 0, key: 5, value: b"shipped".to_vec() },
        );
        assert_eq!(r, StoreReply::Ok);
        // The key is now remotely readable with one-sided verbs.
        let qp = cluster.qp(1);
        match table.remote_lookup(&qp, 5) {
            crate::cluster_hash::LookupResult::Found { addr, slot, .. } => {
                let (_, v) = table.remote_read_entry(&qp, addr, &slot).unwrap();
                assert_eq!(v, b"shipped");
            }
            other => panic!("{other:?}"),
        }
        // Duplicate and delete semantics travel across the wire.
        let r = ship_store_op(
            &cluster,
            1,
            0,
            100,
            &StoreOp::Insert { table: 0, key: 5, value: b"again".to_vec() },
        );
        assert_eq!(r, StoreReply::Duplicate);
        assert_eq!(
            ship_store_op(&cluster, 1, 0, 100, &StoreOp::Delete { table: 0, key: 5 }),
            StoreReply::Ok
        );
        assert_eq!(
            ship_store_op(&cluster, 1, 0, 100, &StoreOp::Delete { table: 0, key: 5 }),
            StoreReply::NotFound
        );
    }

    #[test]
    fn concurrent_clients_are_serialized_by_host() {
        let (cluster, table, exec) = setup(2);
        let _svc = spawn_store_service(cluster.clone(), 0, vec![table.clone()], exec.clone());
        std::thread::scope(|s| {
            for c in 0..2u16 {
                let cluster = cluster.clone();
                s.spawn(move || {
                    for k in 0..50u64 {
                        let key = c as u64 * 1000 + k;
                        let r = ship_store_op(
                            &cluster,
                            1,
                            0,
                            200 + c,
                            &StoreOp::Insert { table: 0, key, value: b"x".to_vec() },
                        );
                        assert_eq!(r, StoreReply::Ok);
                    }
                });
            }
        });
        assert_eq!(table.len(), 100);
    }

    #[test]
    fn dead_client_does_not_wedge_the_store_service() {
        let (cluster, table, exec) = setup(3);
        // Node 1 ships an insert and dies before the service even starts:
        // its reply is undeliverable, and the service must shrug it off.
        let doomed = StoreOp::Insert { table: 0, key: 1, value: b"doomed".to_vec() };
        cluster.qp(1).send(0, STORE_RPC_QUEUE, encode_op(&doomed, 100));
        cluster.faults().kill(1);
        let _svc = spawn_store_service(cluster.clone(), 0, vec![table.clone()], exec);
        // `ship_store_op` has no reply deadline, so a wedged service is
        // told apart from a slow one by a bounded wait on a helper thread.
        let (tx, rx) = std::sync::mpsc::channel();
        let client = cluster.clone();
        std::thread::spawn(move || {
            let op = StoreOp::Insert { table: 0, key: 2, value: b"healthy".to_vec() };
            let _ = tx.send(ship_store_op(&client, 2, 0, 101, &op));
        });
        let reply = rx.recv_timeout(Duration::from_secs(3));
        assert_eq!(reply, Ok(StoreReply::Ok), "service survived the dead client's reply");
        assert_eq!(table.len(), 2, "the dead client's insert was still executed");
    }
}
