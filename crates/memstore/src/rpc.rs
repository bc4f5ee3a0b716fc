//! Shipping INSERT/DELETE to the host machine over SEND/RECV verbs.
//!
//! One-sided RDMA cannot safely grow or shrink a remote hash table (the
//! allocator and chain surgery need the host's HTM), so DrTM ships those
//! operations as messages and executes them on the owner inside an HTM
//! transaction (§5.1 footnote 5). The exchange itself — envelope, service
//! thread, what a dead host looks like — is [`drtm_rdma::rpc`]; this
//! module is the wire format of a store operation and the handler that
//! runs one.

use std::sync::Arc;

use drtm_htm::Executor;
use drtm_rdma::rpc::{self, Service};
use drtm_rdma::{Cluster, FabricError, NodeId, Qp, QueueId};

use crate::cluster_hash::{ClusterHash, InsertError};
use crate::journal::{put_u16, put_u32, put_u64, Reader};

/// Queue id of a machine's store-operation service.
pub(crate) const STORE_RPC_QUEUE: QueueId = 0xFFEE;

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

/// Wire encoding: `op(1) table(2) key(8) [len(4) value]`.
fn encode_op(op: &StoreOp) -> Vec<u8> {
    let (code, table, key) = match op {
        StoreOp::Insert { table, key, .. } => (1, *table, *key),
        StoreOp::Delete { table, key } => (2, *table, *key),
    };
    let mut b = vec![code];
    put_u16(&mut b, table);
    put_u64(&mut b, key);
    if let StoreOp::Insert { value, .. } = op {
        put_u32(&mut b, value.len() as u32);
        b.extend_from_slice(value);
    }
    b
}

fn decode_op(b: &[u8]) -> StoreOp {
    let mut r = Reader::new(b);
    let (code, table, key) = (r.bytes(1)[0], r.u16(), r.u64());
    match code {
        1 => {
            let len = r.u32() as usize;
            StoreOp::Insert { table, key, value: r.bytes(len).to_vec() }
        }
        _ => StoreOp::Delete { table, key },
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

/// Ships `op` from `qp`'s machine to `host` and waits for the host's
/// reply; [`rpc::call`] says what `reply_q` must be and how a host that
/// does not answer is reported.
pub fn ship_store_op(
    qp: &Qp,
    host: NodeId,
    reply_q: QueueId,
    op: &StoreOp,
) -> Result<StoreReply, FabricError> {
    rpc::call(qp, host, STORE_RPC_QUEUE, reply_q, &encode_op(op)).map(|r| decode_reply(&r))
}

/// Starts `host`'s store service: shipped operations run against
/// `tables` (indexed by the wire `table` field), each as its own HTM
/// region on `exec`, until the returned [`Service`] is dropped. Run one
/// per machine.
pub fn spawn_store_service(
    cluster: Arc<Cluster>,
    host: NodeId,
    tables: Vec<Arc<ClusterHash>>,
    exec: Executor,
) -> Service {
    let region = cluster.node(host).region().clone();
    rpc::serve(cluster, host, STORE_RPC_QUEUE, "store-rpc", move |request| {
        encode_reply(match decode_op(request) {
            StoreOp::Insert { table, key, value } => {
                match tables[table as usize].insert(&exec, &region, key, &value) {
                    Ok(()) => StoreReply::Ok,
                    Err(InsertError::Duplicate) => StoreReply::Duplicate,
                    Err(InsertError::Full) => StoreReply::Full,
                }
            }
            StoreOp::Delete { table, key } => {
                if tables[table as usize].delete(&exec, &region, key) {
                    StoreReply::Ok
                } else {
                    StoreReply::NotFound
                }
            }
        })
    })
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
            assert_eq!(decode_op(&encode_op(&op)), op);
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
        let qp = cluster.qp(1);
        let insert = |value: &[u8]| StoreOp::Insert { table: 0, key: 5, value: value.to_vec() };
        assert_eq!(ship_store_op(&qp, 0, 100, &insert(b"shipped")), Ok(StoreReply::Ok));
        // The key is now remotely readable with one-sided verbs.
        match table.remote_lookup(&qp, 5) {
            crate::cluster_hash::LookupResult::Found { addr, slot, .. } => {
                let (_, v) = table.remote_read_entry(&qp, addr, &slot).unwrap();
                assert_eq!(v, b"shipped");
            }
            other => panic!("{other:?}"),
        }
        // Duplicate and delete semantics travel across the wire.
        assert_eq!(ship_store_op(&qp, 0, 100, &insert(b"again")), Ok(StoreReply::Duplicate));
        let delete = StoreOp::Delete { table: 0, key: 5 };
        assert_eq!(ship_store_op(&qp, 0, 100, &delete), Ok(StoreReply::Ok));
        assert_eq!(ship_store_op(&qp, 0, 100, &delete), Ok(StoreReply::NotFound));
        // Every shipped operation was one counted, committed region.
        let s = exec.stats().snapshot();
        assert_eq!((s.commits, s.total_aborts()), (4, 0));
    }

    #[test]
    fn concurrent_clients_are_serialized_by_host() {
        let (cluster, table, exec) = setup(2);
        let _svc = spawn_store_service(cluster.clone(), 0, vec![table.clone()], exec.clone());
        std::thread::scope(|s| {
            for c in 0..2u16 {
                let qp = cluster.qp(1);
                s.spawn(move || {
                    for k in 0..50u64 {
                        let key = c as u64 * 1000 + k;
                        let op = StoreOp::Insert { table: 0, key, value: b"x".to_vec() };
                        assert_eq!(ship_store_op(&qp, 0, 200 + c, &op), Ok(StoreReply::Ok));
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
        let mut request = 100u16.to_le_bytes().to_vec();
        request.extend(encode_op(&doomed));
        cluster.qp(1).send(0, STORE_RPC_QUEUE, request);
        cluster.faults().kill(1);
        let _svc = spawn_store_service(cluster.clone(), 0, vec![table.clone()], exec);
        let healthy = StoreOp::Insert { table: 0, key: 2, value: b"healthy".to_vec() };
        let reply = ship_store_op(&cluster.qp(2), 0, 101, &healthy);
        assert_eq!(reply, Ok(StoreReply::Ok), "service survived the dead client's reply");
        assert_eq!(table.len(), 2, "the dead client's insert was still executed");
    }
}
