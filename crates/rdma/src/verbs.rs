//! SEND/RECV verbs: two-sided message passing between nodes.
//!
//! DrTM uses two-sided verbs where one-sided operations do not suffice:
//! shipping INSERT/DELETE to the host machine (§5.1, footnote 5), remote
//! range queries on ordered stores (§6.5).
//!
//! # Concurrency
//!
//! SEND/RECV is the ordered-store and shipped-operation RPC path, so
//! queue resolution must not serialize
//! senders behind a map-wide lock. The endpoint table is preallocated at
//! cluster construction as a fixed per-node array indexed by queue id:
//! a node's 2¹⁶ queue-id space is split into 256 slabs of 256 endpoints,
//! each slab and each endpoint behind a `OnceLock`. Resolving a queue is
//! two lock-free atomic loads on the hot path (one `get_or_init` fast
//! path per level); the one-time channel construction is the only
//! synchronising step, and it synchronises only first users of the same
//! endpoint, never the whole cluster. Receivers park on the endpoint's
//! channel (condvar inside the crossbeam stub) rather than spinning.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::OnceLock;
use std::time::Duration;

use drtm_htm::vtime;

use crate::fabric::NodeId;

/// Identifies one receive queue on a node; nodes may own many queues
/// (e.g. one per worker thread) so responses do not interleave.
pub type QueueId = u16;

/// A delivered verbs message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending machine.
    pub from: NodeId,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Receive-side cost (charged to the receiving thread's virtual
    /// time when the message is taken off the queue: a two-sided verb
    /// costs both ends, unlike one-sided operations).
    pub recv_cost_ns: u64,
}

type Queue = (Sender<Message>, Receiver<Message>);

/// Endpoints per second-level slab (the low byte of the queue id).
const SLAB: usize = 256;

/// One lazily-built slab of endpoint queues.
type Slab = Box<[OnceLock<Queue>]>;

/// One node's receive-queue table: 256 lazily-built slabs of 256
/// endpoints, covering the full 16-bit queue-id space with no locks.
struct NodeQueues {
    slabs: Box<[OnceLock<Slab>]>,
}

impl NodeQueues {
    fn new() -> Self {
        NodeQueues { slabs: (0..SLAB).map(|_| OnceLock::new()).collect() }
    }

    fn queue(&self, qid: QueueId) -> &Queue {
        let slab = self.slabs[qid as usize >> 8]
            .get_or_init(|| (0..SLAB).map(|_| OnceLock::new()).collect());
        slab[qid as usize & (SLAB - 1)].get_or_init(unbounded)
    }
}

/// The set of receive queues of a cluster.
///
/// The per-node endpoint tables are fixed at construction; senders and
/// receivers resolve their endpoint lock-free. Senders never block
/// (unbounded); receivers may park, poll or time out.
pub struct Verbs {
    nodes: Vec<NodeQueues>,
}

impl std::fmt::Debug for Verbs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Verbs").field("nodes", &self.nodes.len()).finish()
    }
}

impl Verbs {
    pub(crate) fn new(nodes: usize) -> Self {
        Verbs { nodes: (0..nodes).map(|_| NodeQueues::new()).collect() }
    }

    fn queue(&self, node: NodeId, qid: QueueId) -> &Queue {
        assert!((node as usize) < self.nodes.len(), "verbs endpoint node {node} out of range");
        self.nodes[node as usize].queue(qid)
    }

    /// Delivers `payload` from `from` to queue `qid` on node `to`, to be
    /// charged `recv_cost_ns` when it is taken off the queue ([`crate::Qp::send`]
    /// charges the sender and counts the operation).
    pub(crate) fn deliver(
        &self,
        from: NodeId,
        to: NodeId,
        qid: QueueId,
        payload: Vec<u8>,
        recv_cost_ns: u64,
    ) {
        let (tx, _) = self.queue(to, qid);
        // Receiver half is kept alive in the table, so this cannot fail.
        tx.send(Message { from, payload, recv_cost_ns }).expect("verbs queue closed");
    }

    fn charge_recv(m: Message) -> Message {
        vtime::charge(m.recv_cost_ns);
        m
    }

    /// Parks until a message arrives on queue `qid` of node `node`.
    pub fn recv(&self, node: NodeId, qid: QueueId) -> Message {
        let (_, rx) = self.queue(node, qid);
        Self::charge_recv(rx.recv().expect("verbs queue closed"))
    }

    /// Receive with a timeout; `None` on timeout. Parks on the endpoint
    /// channel while waiting (no spinning).
    pub fn recv_timeout(&self, node: NodeId, qid: QueueId, timeout: Duration) -> Option<Message> {
        let (_, rx) = self.queue(node, qid);
        match rx.recv_timeout(timeout) {
            Ok(m) => Some(Self::charge_recv(m)),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => panic!("verbs queue closed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig, LatencyProfile};

    impl Verbs {
        /// Non-blocking receive, for tests that drain a queue.
        pub(crate) fn try_recv(&self, node: NodeId, qid: QueueId) -> Option<Message> {
            let (_, rx) = self.queue(node, qid);
            rx.try_recv().ok().map(Self::charge_recv)
        }

        /// Number of messages currently waiting on a queue.
        fn pending(&self, node: NodeId, qid: QueueId) -> usize {
            let (_, rx) = self.queue(node, qid);
            rx.len()
        }
    }

    fn cluster(n: usize) -> std::sync::Arc<Cluster> {
        Cluster::new(ClusterConfig {
            nodes: n,
            region_size: 64,
            profile: LatencyProfile::zero(),
            ..Default::default()
        })
    }

    #[test]
    fn send_recv_roundtrip() {
        let c = cluster(2);
        c.qp(0).send(1, 7, b"ping".to_vec());
        let m = c.verbs().recv(1, 7);
        assert_eq!(m.from, 0);
        assert_eq!(m.payload, b"ping");
    }

    #[test]
    fn queues_are_independent() {
        let c = cluster(2);
        c.qp(0).send(1, 1, b"a".to_vec());
        c.qp(0).send(1, 2, b"b".to_vec());
        assert_eq!(c.verbs().recv(1, 2).payload, b"b");
        assert_eq!(c.verbs().recv(1, 1).payload, b"a");
    }

    #[test]
    fn try_recv_and_pending() {
        let c = cluster(2);
        assert!(c.verbs().try_recv(0, 0).is_none());
        assert_eq!(c.verbs().pending(0, 0), 0);
        c.qp(1).send(0, 0, vec![1, 2, 3]);
        assert_eq!(c.verbs().pending(0, 0), 1);
        assert_eq!(c.verbs().try_recv(0, 0).unwrap().payload, vec![1, 2, 3]);
    }

    #[test]
    fn recv_timeout_expires() {
        let c = cluster(1);
        let got = c.verbs().recv_timeout(0, 0, Duration::from_millis(10));
        assert!(got.is_none());
    }

    #[test]
    fn fifo_per_queue() {
        let c = cluster(2);
        for i in 0..10u8 {
            c.qp(0).send(1, 0, vec![i]);
        }
        for i in 0..10u8 {
            assert_eq!(c.verbs().recv(1, 0).payload, vec![i]);
        }
    }

    #[test]
    fn cross_thread_delivery() {
        let c = cluster(2);
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.verbs().recv(1, 3).payload);
        std::thread::sleep(Duration::from_millis(20));
        c.qp(0).send(1, 3, b"late".to_vec());
        assert_eq!(h.join().unwrap(), b"late");
    }

    #[test]
    fn extreme_queue_ids_resolve() {
        // The full 16-bit id space is addressable: conventional RPC ids
        // live near the top (0xFFEE, 0xFFDD), worker reply queues near
        // 0x8000.
        let c = cluster(2);
        for qid in [0u16, 0x00FF, 0x8000 | (1 << 8) | 3, 0xFFDD, 0xFFEE, u16::MAX] {
            c.qp(0).send(1, qid, qid.to_le_bytes().to_vec());
            assert_eq!(c.verbs().recv(1, qid).payload, qid.to_le_bytes().to_vec());
        }
    }

    #[test]
    fn concurrent_senders_one_receiver() {
        let c = cluster(2);
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..100u8 {
                        c.qp(0).send(1, 9, vec![t, i]);
                    }
                });
            }
            let mut got = 0;
            while got < 400 {
                c.verbs().recv(1, 9);
                got += 1;
            }
        });
        assert_eq!(c.verbs().pending(1, 9), 0);
    }
}
