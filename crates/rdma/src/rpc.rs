//! Request/reply over SEND/RECV verbs: one client call, one service.
//!
//! What one-sided RDMA cannot do safely is shipped to the record's host
//! as a message and answered with another (INSERT/DELETE, §5.1
//! footnote 5; ordered-store range queries, §6.5). Every such exchange
//! has the same shape — the request names the queue its reply goes to,
//! a thread on the host takes requests off a well-known queue one at a
//! time — so the shape lives here and its users keep only their wire
//! formats and handlers.
//!
//! The envelope is a 2-byte prefix: [`call`] writes the reply queue in
//! front of the request and [`serve`] strips it again.
//!
//! # A host that does not answer
//!
//! [`call`] needs no deadline parameter because the three ways a reply
//! can fail to come are told apart by what the fabric already knows. A
//! host that is dead when the request is posted fails the SEND, typed.
//! A host the [`FaultPlan`](crate::FaultPlan) marks crashed while the
//! client waits is [`FabricError::PeerDead`] at the client's next poll.
//! Any other silence — a dropped message, a service that is gone — is
//! [`FabricError::Timeout`] after [`DEAD_PEER_GRACE`], the one grace
//! period the system grants a peer before calling it dead. A healthy
//! exchange never sees any of this: its first receive returns the reply.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drtm_htm::clock;

use crate::fabric::{Cluster, NodeId, Qp};
use crate::fault::FabricError;
use crate::verbs::QueueId;

/// Wall-clock grace a silent peer is granted before it is concluded
/// dead — by a waiting [`call`], and by ordered 2PL facing a lock that
/// is never released (the backstop for crashes the fault plan does not
/// know about). Generous against µs–ms service and lock-hold times, so
/// expiry in practice always means a real wedge.
pub const DEAD_PEER_GRACE: Duration = Duration::from_secs(1);

/// How long a receive parks before looking up: a service at its stop
/// flag, a waiting client at the fault plan and its deadline.
const POLL: Duration = Duration::from_millis(2);

/// Crash site between a service taking a request off its queue and
/// running it: armed with [`FaultPlan::arm_crash`](crate::FaultPlan::arm_crash),
/// the host dies holding a request it will never answer.
pub const RPC_MID_REQUEST_SITE: &str = "rpc-mid-request";

/// Sends `request` to the service on `host`'s `queue` and waits for its
/// reply on `reply_q` of `qp`'s machine.
///
/// `reply_q` must be unique per client thread (replies are delivered to
/// it); the conventional choice is a per-worker queue id. See the module
/// docs for when the reply does not come.
pub fn call(
    qp: &Qp,
    host: NodeId,
    queue: QueueId,
    reply_q: QueueId,
    request: &[u8],
) -> Result<Vec<u8>, FabricError> {
    let mut msg = Vec::with_capacity(2 + request.len());
    msg.extend_from_slice(&reply_q.to_le_bytes());
    msg.extend_from_slice(request);
    qp.try_send(host, queue, msg)?;
    let cluster = qp.cluster();
    let since = clock::now_us();
    loop {
        if let Some(reply) = cluster.verbs().recv_timeout(qp.node(), reply_q, POLL) {
            return Ok(reply.payload);
        }
        if cluster.faults().is_crashed(host) {
            return Err(FabricError::PeerDead { node: host });
        }
        if Duration::from_micros(clock::now_us() - since) > DEAD_PEER_GRACE {
            return Err(FabricError::Timeout { node: host });
        }
    }
}

/// Starts `host`'s service on `queue`: a thread (`drtm-<name>-<host>`)
/// that answers each request with `handler(request)`, one at a time in
/// arrival order, until the returned [`Service`] is dropped.
pub fn serve(
    cluster: Arc<Cluster>,
    host: NodeId,
    queue: QueueId,
    name: &str,
    mut handler: impl FnMut(&[u8]) -> Vec<u8> + Send + 'static,
) -> Service {
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = stop.clone();
    let handle = std::thread::Builder::new()
        .name(format!("drtm-{name}-{host}"))
        .spawn(move || {
            let qp = cluster.qp(host);
            while !stopped.load(Ordering::Relaxed) {
                let Some(msg) = cluster.verbs().recv_timeout(host, queue, POLL) else {
                    continue;
                };
                let faults = cluster.faults();
                if faults.crash_hook(host, RPC_MID_REQUEST_SITE) || faults.is_crashed(host) {
                    // A dead host — dying here, request in hand, or killed
                    // while the request waited — runs nothing and answers
                    // nothing. The thread stays for the revival.
                    continue;
                }
                let (reply_q, request) = msg.payload.split_at(2);
                let reply_q = QueueId::from_le_bytes(reply_q.try_into().expect("2-byte prefix"));
                // A client that crashed between request and reply must
                // not take the service down: every later request to this
                // host would wait on a reply nobody is left to send.
                let _ = qp.try_send(msg.from, reply_q, handler(request));
            }
        })
        .expect("spawn rpc service");
    Service { stop, handle: Some(handle) }
}

/// A running [`serve`] thread; dropping it stops and joins the thread.
#[derive(Debug)]
pub struct Service {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Service {
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
    use crate::{ClusterConfig, LatencyProfile};
    use std::time::Instant;

    const ECHO_Q: QueueId = 0xFF00;

    fn cluster(nodes: usize) -> Arc<Cluster> {
        Cluster::new(ClusterConfig {
            nodes,
            region_size: 64,
            profile: LatencyProfile::zero(),
            ..Default::default()
        })
    }

    fn echo(cluster: &Arc<Cluster>, host: NodeId) -> Service {
        serve(cluster.clone(), host, ECHO_Q, "echo", |req| req.to_vec())
    }

    #[test]
    fn a_message_is_its_request_plus_the_two_byte_reply_queue() {
        let c = cluster(2);
        let _svc = echo(&c, 0);
        let before = c.counters().snapshot();
        assert_eq!(call(&c.qp(1), 0, ECHO_Q, 9, b"ping"), Ok(b"ping".to_vec()));
        let d = c.counters().snapshot().since(&before);
        assert_eq!((d.sends, d.send_bytes), (2, 6 + 4), "request with prefix, bare reply");
    }

    #[test]
    fn silence_is_told_apart_without_a_deadline_parameter() {
        let c = cluster(3);
        let qp = c.qp(2);
        // Already dead: the SEND itself fails, typed and immediate.
        c.faults().kill(0);
        assert_eq!(call(&qp, 0, ECHO_Q, 9, b"x"), Err(FabricError::PeerDead { node: 0 }));
        c.faults().revive(0);
        // Dies holding the request: the client learns it at its next poll.
        let svc = echo(&c, 0);
        c.faults().arm_crash(0, RPC_MID_REQUEST_SITE);
        let t0 = Instant::now();
        assert_eq!(call(&qp, 0, ECHO_Q, 9, b"x"), Err(FabricError::PeerDead { node: 0 }));
        assert!(t0.elapsed() < DEAD_PEER_GRACE / 2, "a poll slice, not the grace period");
        // The service thread outlives the crash and answers after revival.
        c.faults().revive(0);
        assert_eq!(call(&qp, 0, ECHO_Q, 9, b"again"), Ok(b"again".to_vec()));
        // Alive but nobody serving: the grace period, then a timeout.
        drop(svc);
        let t0 = Instant::now();
        assert_eq!(call(&qp, 0, ECHO_Q, 9, b"x"), Err(FabricError::Timeout { node: 0 }));
        assert!(t0.elapsed() >= DEAD_PEER_GRACE);
    }

    #[test]
    fn a_dead_client_does_not_wedge_the_service() {
        let c = cluster(3);
        // Node 1 posts a request and dies before the service starts: its
        // reply is undeliverable, and the service must shrug it off.
        c.qp(1).send(0, ECHO_Q, vec![9, 0, b'x']);
        c.faults().kill(1);
        let _svc = echo(&c, 0);
        assert_eq!(call(&c.qp(2), 0, ECHO_Q, 9, b"y"), Ok(b"y".to_vec()));
    }
}
