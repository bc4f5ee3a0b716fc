//! The simulated cluster: nodes, registered memory, queue pairs.

use std::cell::{RefCell, RefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use drtm_htm::{vtime, Region};

use crate::counters::OpCounters;
use crate::doorbell::{DoorbellConfig, Nic};
use crate::fault::{FabricError, FaultConfig, FaultPlan, Refused, SendFate};
use crate::latency::LatencyProfile;
use crate::verbs::Verbs;

/// Identifier of a simulated machine (or logical node, §7.2).
pub type NodeId = u16;

/// An address in the partitioned global address space (§3).
///
/// DrTM exposes all memory in the cluster as a shared address space where
/// a process must explicitly distinguish local from remote accesses; this
/// struct is that distinction made concrete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalAddr {
    /// Owning machine.
    pub node: NodeId,
    /// Byte offset inside the owner's registered region.
    pub offset: usize,
}

impl GlobalAddr {
    /// Creates an address.
    pub fn new(node: NodeId, offset: usize) -> Self {
        GlobalAddr { node, offset }
    }
}

/// Atomicity level of RDMA atomics relative to CPU atomics (§4.2, §6.3).
///
/// The paper's ConnectX-3 only implements `IBV_ATOMIC_HCA`: RDMA CAS is
/// atomic against other RDMA atomics but *not* against local CPU CAS, so
/// DrTM's fallback handler and read-only transactions must lock even
/// local records through (slow) RDMA CAS. NICs with `IBV_ATOMIC_GLOB`
/// (e.g. QLogic QLE) would allow the fast local CAS instead — the paper
/// measures ~15 % TPC-C throughput left on the table.
///
/// In the simulation the underlying line locks make every CAS globally
/// atomic regardless; the level only selects which *cost and code path*
/// the protocol must use, which is what the paper's ablation measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AtomicityLevel {
    /// Atomics are only coherent among RDMA operations (the paper's NIC).
    #[default]
    Hca,
    /// Atomics are coherent between RDMA and local CPU instructions.
    Glob,
}

/// Configuration for [`Cluster::new`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated machines at start.
    pub nodes: usize,
    /// Capacity for machines added later via [`Cluster::add_node`]
    /// (membership joins). `0` means "fixed geometry": capacity equals
    /// `nodes`. Endpoint tables and fault state are sized to this up
    /// front so a join never reallocates shared fabric structures.
    pub max_nodes: usize,
    /// Size in bytes of each machine's RDMA-registered region.
    pub region_size: usize,
    /// Interconnect cost model.
    pub profile: LatencyProfile,
    /// RDMA-atomics coherence level.
    pub atomicity: AtomicityLevel,
    /// Fault-injection plan (defaults to injecting nothing).
    pub faults: FaultConfig,
    /// Doorbell batching of outbound ops (enabled by default; see
    /// [`DoorbellConfig::disabled`] to model one doorbell per op).
    pub doorbell: DoorbellConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 1,
            max_nodes: 0,
            region_size: 1 << 20,
            profile: LatencyProfile::rdma(),
            atomicity: AtomicityLevel::Hca,
            faults: FaultConfig::default(),
            doorbell: DoorbellConfig::default(),
        }
    }
}

/// One simulated machine: an id plus its registered memory region.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    region: Arc<Region>,
}

impl Node {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's registered memory region.
    ///
    /// Local (HTM) accesses go straight through the region; remote
    /// accesses must go through a [`Qp`] so latency and counters apply.
    pub fn region(&self) -> &Arc<Region> {
        &self.region
    }
}

/// The simulated cluster fabric.
///
/// Geometry can grow at runtime: slots up to the configured
/// `max_nodes` capacity are pre-allocated and [`Cluster::add_node`]
/// provisions the next one (region + verbs endpoints) without touching
/// any shared structure readers hold — a membership join never blocks
/// in-flight fabric traffic.
#[derive(Debug)]
pub struct Cluster {
    /// Pre-sized node slots; `provisioned` of them are live.
    nodes: Box<[OnceLock<Arc<Node>>]>,
    /// Count of provisioned machines (ids `0..provisioned`).
    provisioned: AtomicUsize,
    /// Serialises concurrent `add_node` calls.
    grow: Mutex<()>,
    region_size: usize,
    profile: LatencyProfile,
    atomicity: AtomicityLevel,
    counters: Arc<OpCounters>,
    verbs: Verbs,
    faults: FaultPlan,
    doorbell: DoorbellConfig,
}

impl Cluster {
    /// Builds a cluster of `cfg.nodes` machines with zeroed regions and
    /// capacity for `cfg.max_nodes` (later joins).
    pub fn new(cfg: ClusterConfig) -> Arc<Self> {
        let cap = cfg.max_nodes.max(cfg.nodes);
        assert!(cap <= NodeId::MAX as usize + 1, "node capacity exceeds NodeId space");
        let nodes: Box<[OnceLock<Arc<Node>>]> = (0..cap).map(|_| OnceLock::new()).collect();
        for (i, slot) in nodes.iter().take(cfg.nodes).enumerate() {
            let node =
                Arc::new(Node { id: i as NodeId, region: Arc::new(Region::new(cfg.region_size)) });
            slot.set(node).expect("fresh slot");
        }
        Arc::new(Cluster {
            nodes,
            provisioned: AtomicUsize::new(cfg.nodes),
            grow: Mutex::new(()),
            region_size: cfg.region_size,
            profile: cfg.profile,
            atomicity: cfg.atomicity,
            counters: Arc::new(OpCounters::default()),
            verbs: Verbs::new(cap),
            faults: FaultPlan::new(cfg.faults, cap),
            doorbell: cfg.doorbell,
        })
    }

    /// Number of provisioned machines (ids `0..num_nodes()`), including
    /// crashed and retired ones — a node id, once handed out, stays
    /// addressable (its NVRAM region outlives it).
    pub fn num_nodes(&self) -> usize {
        self.provisioned.load(Ordering::Acquire)
    }

    /// Capacity of the fabric: `num_nodes()` can grow up to this.
    pub fn max_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Provisions the next node slot — a fresh zeroed region plus live
    /// verbs endpoints — and returns its id. Returns `None` when the
    /// fabric is at capacity.
    pub fn add_node(&self) -> Option<NodeId> {
        let _g = self.grow.lock().expect("cluster grow lock poisoned");
        let id = self.provisioned.load(Ordering::Acquire);
        if id >= self.nodes.len() {
            return None;
        }
        let node =
            Arc::new(Node { id: id as NodeId, region: Arc::new(Region::new(self.region_size)) });
        self.nodes[id].set(node).expect("slot already provisioned");
        self.provisioned.store(id + 1, Ordering::Release);
        Some(id as NodeId)
    }

    /// Returns machine `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never provisioned.
    pub fn node(&self, id: NodeId) -> &Arc<Node> {
        self.nodes[id as usize].get().expect("node not provisioned")
    }

    /// The interconnect cost model.
    pub fn profile(&self) -> &LatencyProfile {
        &self.profile
    }

    /// The RDMA-atomics coherence level of the simulated NIC.
    pub fn atomicity(&self) -> AtomicityLevel {
        self.atomicity
    }

    /// Cluster-wide operation counters.
    pub fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }

    /// The SEND/RECV verbs endpoint set.
    pub fn verbs(&self) -> &Verbs {
        &self.verbs
    }

    /// The fault-injection plan (inert unless configured or armed).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The doorbell-batching configuration.
    pub fn doorbell(&self) -> &DoorbellConfig {
        &self.doorbell
    }

    /// Creates a queue-pair handle owned by machine `from`.
    pub fn qp(self: &Arc<Self>, from: NodeId) -> Qp {
        // Doorbell slots cover the full capacity so a QP created before
        // a join can address nodes provisioned after it.
        let nic = RefCell::new(Nic::new(self.nodes.len()));
        Qp { cluster: Arc::clone(self), from, nic }
    }
}

/// A queue-pair handle: the issuing side of one-sided operations.
///
/// Every one-sided verb comes in two forms. `post_*` hands the work
/// request to the NIC and returns: the issuing thread is charged only the
/// posting overhead ([`LatencyProfile::post_ns`]) and the op's
/// completion time is recorded. [`Qp::wait`] then advances the thread's
/// virtual time to the latest recorded completion, so ops posted to
/// different machines overlap and only one destination's ops queue
/// behind each other. The plain and `try_*` forms are a post followed at
/// once by a wait: they cost exactly the op's modelled latency.
///
/// In the simulation a posted op takes effect on the target's memory,
/// and rolls its fault dice, when it is posted; per destination, effects
/// and completions are therefore in post order (the RC queue-pair FIFO
/// the protocol's value → version → state write-backs rely on). Its
/// result is in hand immediately, but the caller must not *act* on it —
/// issue a dependent op, release a resource — before the wait: that is
/// when real hardware would deliver it.
///
/// An op may target any node, including the owner itself — a loopback
/// RDMA op pays the full NIC round trip, exactly the cost the paper's
/// fallback handler pays on an `IBV_ATOMIC_HCA` NIC (§6.3).
///
/// Outbound ops posted back-to-back to the same destination share a
/// doorbell (see [`DoorbellConfig`]): the first costs its full base
/// latency, the rest only the pipeline fraction of it. A plain wait
/// leaves doorbells open — a run of synchronous verbs keeps amortising —
/// until [`Qp::doorbell_flush`], the wait the transaction layer issues
/// at every transaction boundary. The NIC state is a `RefCell`: a queue
/// pair is `Send` but not `Sync`, owned by one lane at a time.
#[derive(Debug)]
pub struct Qp {
    cluster: Arc<Cluster>,
    from: NodeId,
    nic: RefCell<Nic>,
}

impl Clone for Qp {
    /// An independent queue pair on the same cluster: doorbell batches
    /// and outstanding completions are per-QP NIC state and do not
    /// travel with the handle.
    fn clone(&self) -> Self {
        self.cluster.qp(self.from)
    }
}

/// Whether an op is awaited as part of issuing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Issue {
    /// Post only; the caller waits later, once for many ops.
    Post,
    /// Post, then wait for every outstanding completion.
    Sync,
}

impl Qp {
    /// The cluster this queue pair belongs to.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The machine that owns this queue pair.
    pub fn node(&self) -> NodeId {
        self.from
    }

    fn nic(&self) -> RefMut<'_, Nic> {
        self.nic.borrow_mut()
    }

    /// Advances the calling thread's virtual time to the wave's latest
    /// completion (a no-op when everything posted already lies behind
    /// it).
    fn complete(nic: &mut Nic) {
        let done = nic.wait();
        vtime::charge(done.saturating_sub(vtime::read()));
    }

    /// Waits for the completion of every op posted on this queue pair.
    pub fn wait(&self) {
        Self::complete(&mut self.nic());
    }

    /// Waits for all posted completions and closes every open doorbell,
    /// so the next op to any destination costs its full base latency.
    pub fn doorbell_flush(&self) {
        let mut nic = self.nic();
        Self::complete(&mut nic);
        nic.close_doorbells();
    }

    /// Hands one outbound work request to the NIC and returns its
    /// service time (amortised when it rides an open doorbell).
    ///
    /// The posting overhead is the head of the op's latency, not an
    /// addition to it (hence the `min`), so `Issue::Sync` leaves the
    /// meter exactly `delay + cost` past the post. A refused op charges
    /// nothing now: its error completion is waited for like any other.
    fn issue(
        &self,
        to: NodeId,
        full_ns: u64,
        base_ns: u64,
        how: Issue,
    ) -> Result<u64, FabricError> {
        let admitted = self.cluster.faults.admit(self.from, to);
        let now = vtime::read();
        let mut nic = self.nic();
        let (issued, posting_ns) = match admitted {
            Ok(delay_ns) => {
                let op = nic.post(to, &self.cluster.doorbell, now, delay_ns, full_ns, base_ns);
                if op.rang {
                    self.cluster.counters.doorbells.inc();
                }
                self.cluster.counters.fabric_ns.add(op.cost_ns);
                (Ok(op.cost_ns), self.cluster.profile.post_ns.min(op.cost_ns))
            }
            Err(Refused { error, after_ns }) => {
                nic.post_failed(now, after_ns);
                (Err(error), 0)
            }
        };
        // The meter moves past the posting or, awaited, to the last
        // completion of everything outstanding.
        let done = if how == Issue::Sync { nic.wait() } else { 0 };
        vtime::charge(posting_ns.max(done.saturating_sub(now)));
        issued
    }

    fn read_wr(&self, addr: GlobalAddr, buf: &mut [u8], how: Issue) -> Result<(), FabricError> {
        let p = &self.cluster.profile;
        self.issue(addr.node, p.read_ns(buf.len()), p.read_base_ns, how)?;
        self.cluster.counters.reads.inc();
        self.cluster.counters.read_bytes.add(buf.len() as u64);
        self.cluster.node(addr.node).region.read_nt(addr.offset, buf);
        Ok(())
    }

    fn write_wr(&self, addr: GlobalAddr, data: &[u8], how: Issue) -> Result<(), FabricError> {
        let p = &self.cluster.profile;
        self.issue(addr.node, p.write_ns(data.len()), p.write_base_ns, how)?;
        self.cluster.counters.writes.inc();
        self.cluster.counters.write_bytes.add(data.len() as u64);
        self.cluster.node(addr.node).region.write_nt(addr.offset, data);
        Ok(())
    }

    fn cas_wr(
        &self,
        addr: GlobalAddr,
        expected: u64,
        new: u64,
        how: Issue,
    ) -> Result<u64, FabricError> {
        let atomic_ns = self.cluster.profile.atomic_ns;
        self.issue(addr.node, atomic_ns, atomic_ns, how)?;
        self.cluster.counters.cas.inc();
        Ok(self.cluster.node(addr.node).region.cas_u64_nt(addr.offset, expected, new))
    }

    /// Posts a one-sided RDMA READ of `buf.len()` bytes at `addr`; fails
    /// (without delivering bytes) when either end is crashed or retired.
    pub fn post_read(&self, addr: GlobalAddr, buf: &mut [u8]) -> Result<(), FabricError> {
        self.read_wr(addr, buf, Issue::Post)
    }

    /// Posts a one-sided RDMA WRITE of `data` at `addr`.
    pub fn post_write(&self, addr: GlobalAddr, data: &[u8]) -> Result<(), FabricError> {
        self.write_wr(addr, data, Issue::Post)
    }

    /// Posts a one-sided RDMA compare-and-swap; returns the
    /// pre-operation value.
    pub fn post_cas_u64(
        &self,
        addr: GlobalAddr,
        expected: u64,
        new: u64,
    ) -> Result<u64, FabricError> {
        self.cas_wr(addr, expected, new, Issue::Post)
    }

    /// One-sided RDMA READ of `buf.len()` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if either end is crashed under the cluster's
    /// [`FaultPlan`] — an infallible verb must never serve stale bytes
    /// from a corpse. Paths that can legally race a crash use
    /// [`Qp::try_read`].
    pub fn read(&self, addr: GlobalAddr, buf: &mut [u8]) {
        self.try_read(addr, buf).expect("RDMA READ against a crashed node");
    }

    /// Fallible [`Qp::read`]: fails within the configured deadline when
    /// either end is crashed instead of serving stale memory.
    pub fn try_read(&self, addr: GlobalAddr, buf: &mut [u8]) -> Result<(), FabricError> {
        self.read_wr(addr, buf, Issue::Sync)
    }

    /// One-sided RDMA WRITE of `data` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if either end is crashed (see [`Qp::read`]).
    pub fn write(&self, addr: GlobalAddr, data: &[u8]) {
        self.try_write(addr, data).expect("RDMA WRITE against a crashed node");
    }

    /// Fallible [`Qp::write`].
    pub fn try_write(&self, addr: GlobalAddr, data: &[u8]) -> Result<(), FabricError> {
        self.write_wr(addr, data, Issue::Sync)
    }

    /// One-sided RDMA READ of an aligned `u64`.
    ///
    /// # Panics
    ///
    /// Panics if either end is crashed (see [`Qp::read`]).
    pub fn read_u64(&self, addr: GlobalAddr) -> u64 {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Fallible [`Qp::read_u64`].
    pub fn try_read_u64(&self, addr: GlobalAddr) -> Result<u64, FabricError> {
        let mut buf = [0u8; 8];
        self.try_read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// One-sided RDMA WRITE of an aligned `u64`.
    ///
    /// # Panics
    ///
    /// Panics if either end is crashed (see [`Qp::read`]).
    pub fn write_u64(&self, addr: GlobalAddr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Fallible [`Qp::write_u64`].
    pub fn try_write_u64(&self, addr: GlobalAddr, value: u64) -> Result<(), FabricError> {
        self.try_write(addr, &value.to_le_bytes())
    }

    /// One-sided RDMA compare-and-swap; returns the pre-operation value.
    ///
    /// # Panics
    ///
    /// Panics if either end is crashed (see [`Qp::read`]).
    pub fn cas_u64(&self, addr: GlobalAddr, expected: u64, new: u64) -> u64 {
        self.try_cas_u64(addr, expected, new).expect("RDMA CAS against a crashed node")
    }

    /// Fallible [`Qp::cas_u64`].
    pub fn try_cas_u64(
        &self,
        addr: GlobalAddr,
        expected: u64,
        new: u64,
    ) -> Result<u64, FabricError> {
        self.cas_wr(addr, expected, new, Issue::Sync)
    }

    /// Local CPU compare-and-swap on this machine's own region.
    ///
    /// Only meaningful under [`AtomicityLevel::Glob`]; under `Hca` the
    /// protocol must use [`Qp::cas_u64`] even for local records. The
    /// simulation keeps it globally atomic either way (see
    /// [`AtomicityLevel`]) but charges only the CPU cost.
    pub fn local_cas_u64(&self, offset: usize, expected: u64, new: u64) -> u64 {
        vtime::charge(self.cluster.profile.local_atomic_ns);
        self.cluster.node(self.from).region.cas_u64_nt(offset, expected, new)
    }

    /// SEND a message to queue `qid` on node `to`.
    ///
    /// The sender is charged the one-way cost now; the receiver is
    /// charged the same cost when it takes the message off its queue
    /// (two-sided verbs involve both CPUs, §2).
    ///
    /// # Panics
    ///
    /// Panics if either end is crashed (see [`Qp::read`]).
    pub fn send(&self, to: NodeId, qid: crate::verbs::QueueId, payload: Vec<u8>) {
        self.try_send(to, qid, payload).expect("SEND to a crashed node");
    }

    /// Fallible [`Qp::send`] that also rolls the fault plan's message
    /// dice: the message may be silently dropped or delivered twice.
    /// `Ok` therefore means "handed to the NIC", not "delivered" —
    /// exactly the guarantee real SEND gives before the ACK.
    pub fn try_send(
        &self,
        to: NodeId,
        qid: crate::verbs::QueueId,
        payload: Vec<u8>,
    ) -> Result<(), FabricError> {
        let p = &self.cluster.profile;
        let cost = self.issue(to, p.send_ns(payload.len()), p.send_base_ns, Issue::Sync)?;
        self.cluster.counters.sends.inc();
        self.cluster.counters.send_bytes.add(payload.len() as u64);
        // The fate dice roll per logical SEND, never per doorbell: a
        // batched schedule must replay a seed identically to an
        // unbatched one.
        match self.cluster.faults.send_fate() {
            SendFate::Drop => {}
            SendFate::Duplicate => {
                self.cluster.verbs.deliver_costed(self.from, to, qid, payload.clone(), cost);
                self.cluster.verbs.deliver_costed(self.from, to, qid, payload, cost);
            }
            SendFate::Deliver => {
                self.cluster.verbs.deliver_costed(self.from, to, qid, payload, cost);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> Arc<Cluster> {
        Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4096,
            profile: LatencyProfile::zero(),
            ..Default::default()
        })
    }

    #[test]
    fn remote_write_read_roundtrip() {
        let c = two_nodes();
        let qp = c.qp(0);
        let addr = GlobalAddr::new(1, 128);
        qp.write(addr, b"hello drtm");
        let mut buf = [0u8; 10];
        qp.read(addr, &mut buf);
        assert_eq!(&buf, b"hello drtm");
        // Data landed in node 1's region, visible to its local accesses.
        let mut local = [0u8; 10];
        c.node(1).region().read_nt(128, &mut local);
        assert_eq!(&local, b"hello drtm");
    }

    #[test]
    fn counters_track_ops() {
        let c = two_nodes();
        let qp = c.qp(0);
        let addr = GlobalAddr::new(1, 0);
        qp.write_u64(addr, 3);
        qp.read_u64(addr);
        qp.cas_u64(addr, 3, 4);
        let s = c.counters().snapshot();
        assert_eq!((s.reads, s.writes, s.cas), (1, 1, 1));
        assert_eq!(s.one_sided(), 3);
    }

    #[test]
    fn latency_is_charged_to_vtime() {
        let c = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4096,
            profile: LatencyProfile::rdma(),
            doorbell: DoorbellConfig::disabled(),
            ..Default::default()
        });
        let qp = c.qp(0);
        vtime::take();
        qp.read_u64(GlobalAddr::new(1, 0));
        assert_eq!(vtime::take(), LatencyProfile::rdma().read_ns(8));
        qp.cas_u64(GlobalAddr::new(1, 0), 0, 1);
        assert_eq!(vtime::take(), LatencyProfile::rdma().atomic_ns);
    }

    #[test]
    fn doorbell_batching_amortises_base_latency() {
        let c = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4096,
            profile: LatencyProfile::rdma(),
            doorbell: DoorbellConfig { flush_deadline_ns: u64::MAX, ..Default::default() },
            ..Default::default()
        });
        let p = LatencyProfile::rdma();
        let qp = c.qp(0);
        vtime::take();
        qp.read_u64(GlobalAddr::new(1, 0));
        assert_eq!(vtime::take(), p.read_ns(8), "first op rings the doorbell at full cost");
        qp.read_u64(GlobalAddr::new(1, 8));
        let batched = vtime::take();
        assert_eq!(batched, c.doorbell().batched_ns(p.read_ns(8), p.read_base_ns));
        assert!(batched < p.read_ns(8));
        // A completion wait closes the batch: full price again.
        qp.doorbell_flush();
        qp.read_u64(GlobalAddr::new(1, 16));
        assert_eq!(vtime::take(), p.read_ns(8));
        vtime::take();
    }

    #[test]
    fn doorbell_counters_expose_batch_ratio() {
        let c = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4096,
            profile: LatencyProfile::rdma(),
            doorbell: DoorbellConfig {
                max_batch: 4,
                flush_deadline_ns: u64::MAX,
                ..Default::default()
            },
            ..Default::default()
        });
        let qp = c.qp(0);
        vtime::take();
        for i in 0..8 {
            qp.read_u64(GlobalAddr::new(1, 8 * i));
        }
        vtime::take();
        let s = c.counters().snapshot();
        assert_eq!(s.doorbells, 2, "8 ops at max_batch 4 ring twice");
        assert_eq!(s.ops_per_doorbell(), 4.0);
        assert!(s.fabric_ns > 0);
    }

    #[test]
    fn disabled_batching_rings_once_per_op() {
        let c = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4096,
            profile: LatencyProfile::rdma(),
            doorbell: DoorbellConfig::disabled(),
            ..Default::default()
        });
        let qp = c.qp(0);
        vtime::take();
        for i in 0..5 {
            qp.read_u64(GlobalAddr::new(1, 8 * i));
        }
        qp.send(1, 0, vec![1, 2, 3]);
        vtime::take();
        let s = c.counters().snapshot();
        assert_eq!(s.doorbells, s.fabric_ops());
        assert_eq!(s.ops_per_doorbell(), 1.0);
        assert_eq!(
            s.fabric_ns,
            5 * LatencyProfile::rdma().read_ns(8) + LatencyProfile::rdma().send_ns(3)
        );
    }

    #[test]
    fn cloned_qp_starts_with_closed_doorbells() {
        let c = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4096,
            profile: LatencyProfile::rdma(),
            doorbell: DoorbellConfig { flush_deadline_ns: u64::MAX, ..Default::default() },
            ..Default::default()
        });
        let p = LatencyProfile::rdma();
        let qp = c.qp(0);
        vtime::take();
        qp.read_u64(GlobalAddr::new(1, 0));
        let qp2 = qp.clone();
        vtime::take();
        qp2.read_u64(GlobalAddr::new(1, 8));
        assert_eq!(vtime::take(), p.read_ns(8), "a fresh QP has no open doorbell to ride");
    }

    #[test]
    fn rdma_cas_aborts_conflicting_htm_txn() {
        // The strong-consistency / strong-atomicity coupling the whole
        // DrTM protocol rests on (§4.1).
        let c = two_nodes();
        let region = c.node(1).region().clone();
        let cfg = drtm_htm::HtmConfig::default();
        let mut txn = region.begin(&cfg);
        assert_eq!(txn.read_u64(0).unwrap(), 0);
        c.qp(0).cas_u64(GlobalAddr::new(1, 0), 0, 0xBEEF);
        assert_eq!(txn.commit(), Err(drtm_htm::Abort::Conflict));
    }

    #[test]
    fn ops_against_a_crashed_node_fail_typed() {
        let c = two_nodes();
        let qp = c.qp(0);
        let addr = GlobalAddr::new(1, 0);
        qp.write_u64(addr, 77);
        c.faults().kill(1);
        let dead = crate::FabricError::PeerDead { node: 1 };
        let mut buf = [0u8; 8];
        assert_eq!(qp.try_read(addr, &mut buf), Err(dead));
        assert_eq!(buf, [0u8; 8], "failed read must not deliver bytes");
        assert_eq!(qp.try_write_u64(addr, 1), Err(dead));
        assert_eq!(qp.try_read_u64(addr), Err(dead));
        assert_eq!(qp.try_cas_u64(addr, 77, 1), Err(dead));
        assert_eq!(qp.try_send(1, 3, vec![1]), Err(dead));
        // The corpse's memory is untouched (NVRAM survives the crash).
        assert_eq!(c.node(1).region().read_u64_nt(0), 77);
        // After revival (recovery re-provisioned the node) ops resume.
        c.faults().revive(1);
        assert_eq!(qp.try_read_u64(addr), Ok(77));
    }

    #[test]
    #[should_panic(expected = "RDMA READ against a crashed node")]
    fn infallible_read_panics_on_crashed_node() {
        let c = two_nodes();
        c.faults().kill(1);
        c.qp(0).read_u64(GlobalAddr::new(1, 0));
    }

    #[test]
    fn send_faults_drop_and_duplicate_deterministically() {
        let mk = || {
            Cluster::new(ClusterConfig {
                nodes: 2,
                region_size: 64,
                profile: LatencyProfile::zero(),
                faults: crate::FaultConfig {
                    seed: 9,
                    drop_prob: 0.4,
                    dup_prob: 0.3,
                    ..Default::default()
                },
                ..Default::default()
            })
        };
        let deliveries = |c: &Arc<Cluster>| {
            for i in 0..100u8 {
                c.qp(0).send(1, 0, vec![i]);
            }
            let mut got = Vec::new();
            while let Some(m) = c.verbs().try_recv(1, 0) {
                got.push(m.payload[0]);
            }
            got
        };
        let (a, b) = (mk(), mk());
        let (da, db) = (deliveries(&a), deliveries(&b));
        assert_eq!(da, db, "same seed must replay the same schedule");
        assert_ne!(da.len(), 100, "with these probabilities some fate must differ");
    }

    #[test]
    fn add_node_provisions_up_to_capacity() {
        let c = Cluster::new(ClusterConfig {
            nodes: 2,
            max_nodes: 4,
            region_size: 4096,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        assert_eq!((c.num_nodes(), c.max_nodes()), (2, 4));
        // A QP created *before* the join can reach the new node.
        let qp = c.qp(0);
        let n2 = c.add_node().unwrap();
        assert_eq!(n2, 2);
        assert_eq!(c.num_nodes(), 3);
        qp.write_u64(GlobalAddr::new(n2, 64), 9);
        assert_eq!(qp.read_u64(GlobalAddr::new(n2, 64)), 9);
        // Verbs endpoints are live without any re-registration.
        c.qp(n2).send(0, 7, vec![1]);
        assert_eq!(c.verbs().try_recv(0, 7).unwrap().payload, vec![1]);
        assert_eq!(c.add_node(), Some(3));
        assert_eq!(c.add_node(), None, "capacity exhausted");
    }

    #[test]
    fn ops_against_a_retired_node_fail_typed_not_peer_dead() {
        let c = two_nodes();
        let qp = c.qp(0);
        let addr = GlobalAddr::new(1, 0);
        qp.write_u64(addr, 5);
        c.faults().retire(1);
        let gone = crate::FabricError::NodeRetired { node: 1 };
        assert_eq!(qp.try_read_u64(addr), Err(gone));
        assert_eq!(qp.try_write_u64(addr, 1), Err(gone));
        assert_eq!(qp.try_cas_u64(addr, 5, 1), Err(gone));
        assert_eq!(qp.try_send(1, 3, vec![1]), Err(gone));
        // A retired node cannot issue ops either.
        assert_eq!(c.qp(1).try_read_u64(GlobalAddr::new(0, 0)), Err(gone));
        // Its region is still directly readable (drain audits, NVRAM).
        assert_eq!(c.node(1).region().read_u64_nt(0), 5);
    }

    #[test]
    fn loopback_rdma_works() {
        let c = two_nodes();
        let qp = c.qp(1);
        qp.write_u64(GlobalAddr::new(1, 8), 42);
        assert_eq!(c.node(1).region().read_u64_nt(8), 42);
    }
}
