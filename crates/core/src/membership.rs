//! Cluster membership: journaled node join/leave with failure-driven
//! rollback.
//!
//! The paper's cluster is fixed at startup; this module adds the
//! operational layer around the elastic memstore so machines can enter
//! and exit a *live* cluster:
//!
//! * A [`MembershipTable`] publishes every machine's lifecycle state
//!   ([`NodeState`]) with a bumping epoch, the same way the range map
//!   publishes ownership: workloads consult it before routing a write
//!   and abort typed ([`crate::AbortCause::RouteJoining`] /
//!   [`crate::AbortCause::RouteRetired`]) instead of wedging on a
//!   machine that owns nothing yet or nothing any more.
//! * A [`MembershipCoordinator`] executes **join** (grow the live
//!   fabric, have the workload carve its shard from the new machine's
//!   store arena and start its services, stream one donation range
//!   from each active machine through the resharder, flip `Active`) and
//!   **leave** (mark `Draining`, stream every owned range out, quiesce
//!   the write-ahead log, then `Retired` — after which fabric ops
//!   against the machine fail with the *typed*
//!   [`drtm_rdma::FabricError::NodeRetired`], never `PeerDead`).
//!
//! **Journal-before-effect.** Every phase transition is persisted to a
//! per-machine [`MembershipJournal`] — on the *subject's own* NVRAM
//! region, reachable after its death under the flush-on-failure model
//! exactly like the transaction logs (§4.6) — *before* the transition
//! takes effect: the operation kind when it starts, each donation or
//! drain range before its migration starts, a done mark after it
//! publishes. Recovery is therefore driven entirely by surviving state,
//! and [`MembershipCoordinator::recover`] is its one entry point, in one
//! fixed order:
//!
//! 1. the ordinary WAL sweep ([`recover_node`]), so locks leaked by
//!    transactions that died with the subject are released before any
//!    row moves — the precondition [`Resharder::evacuate_nt`] documents;
//! 2. [`Resharder::recover`]: every migration the corpse was part of,
//!    found in the range map, is rolled back (drop the partial copy,
//!    release the migration lock);
//! 3. the membership journal. **Death mid-join** rolls *back*: the joiner
//!    never activated, so completed donations are evacuated off the
//!    corpse back to their recorded donors and the corpse retires — no
//!    orphaned ranges, no leaked locks, donors writable again. **Death
//!    mid-leave** rolls *forward*: the departure was already promised, so
//!    the in-flight range restarts as an NVRAM evacuation to its recorded
//!    receiver, ranges the journal never reached are evacuated to the
//!    active machines round-robin, and the corpse retires. An idle
//!    journal means a plain death: the machine may revive.

use std::sync::{Arc, Mutex, RwLock};

use drtm_htm::Region;
use drtm_memstore::journal::{put_u16, put_u64, Journal, Reader};
use drtm_memstore::{Arena, Resharder};
use drtm_rdma::{FabricError, NodeId};

use crate::recovery::{recover_node, RecoveryReport};
use crate::txn::DrTm;

/// Crash site fired at the bottom of each join donation (the joiner dies
/// with some donations landed and the next one about to start mid-copy).
pub(crate) const JOIN_MID_STREAM_SITE: &str = "join-mid-stream";

/// Crash site fired after every donation landed, before the journal
/// records activation (the join never happened).
pub(crate) const JOIN_BEFORE_ACTIVATE_SITE: &str = "join-before-activate";

/// Crash site fired at the bottom of each drain hand-off (the leaver
/// dies with some ranges handed off and the next one mid-copy).
pub(crate) const LEAVE_MID_DRAIN_SITE: &str = "leave-mid-drain";

/// Most ranges one join or leave can journal.
pub const MAX_JOURNAL_RANGES: usize = 30;

/// Header status of a journaled join / leave (0 = idle).
const OP_JOIN: u64 = 1;
const OP_LEAVE: u64 = 2;

/// Range status: journaled and possibly mid-migration / published.
const RANGE_PENDING: u64 = 1;
const RANGE_DONE: u64 = 2;

/// One journaled range: `(lo, hi, peer, done)` — the peer is the donor
/// of a join's donation or the receiver of a leave's hand-off.
type RangeRecord = (u64, u64, NodeId, bool);

/// The membership journal of one machine, a [`Journal`] client: a header
/// whose status is the operation in progress, plus one journal per range
/// (status pending or done, payload `lo, hi, peer`). Appending a range
/// arms the first idle range journal; the done mark is one store.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MembershipJournal {
    header: Journal,
    ranges: [Journal; MAX_JOURNAL_RANGES],
}

impl MembershipJournal {
    /// Carves the journal out of `arena` (same place on every machine).
    pub(crate) fn reserve(arena: &mut Arena) -> Self {
        MembershipJournal {
            header: Journal::reserve(arena, [64, 0]),
            ranges: std::array::from_fn(|_| Journal::reserve(arena, [64, 0])),
        }
    }

    /// Starts journaling operation `op`: stale ranges of an earlier
    /// operation are cleared before the header makes any range count.
    fn arm(&self, region: &Region, op: u64) {
        self.ranges.iter().for_each(|r| r.clear(region));
        self.header.arm(region, 0, &[], op);
    }

    fn clear(&self, region: &Region) {
        self.header.clear(region);
    }

    /// Journals one range as pending and returns its index.
    fn append(&self, region: &Region, lo: u64, hi: u64, peer: NodeId) -> usize {
        let i = self.ranges.iter().position(|r| r.status(region) == 0);
        let i = i.expect("membership journal overflow");
        let mut buf = Vec::with_capacity(18);
        put_u64(&mut buf, lo);
        put_u64(&mut buf, hi);
        put_u16(&mut buf, peer);
        self.ranges[i].arm(region, 0, &buf, RANGE_PENDING);
        i
    }

    fn mark_done(&self, region: &Region, index: usize) {
        self.ranges[index].set_status(region, RANGE_DONE);
    }

    /// The surviving journal: `(op, ranges)`, or `None` while idle.
    fn read(&self, region: &Region) -> Option<(u64, Vec<RangeRecord>)> {
        let op = self.header.status(region);
        let ranges = self.ranges.iter().map_while(|r| {
            let (status, payload) = r.read(region, 0)?;
            let mut p = Reader::new(&payload);
            Some((p.u64(), p.u64(), p.u16(), status == RANGE_DONE))
        });
        (op != 0).then(|| (op, ranges.collect()))
    }
}

/// Lifecycle state of one machine, published by the [`MembershipTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Provisioned on the fabric, receiving donations; owns no ranges
    /// authoritatively yet. Writes routed here abort typed.
    Joining,
    /// Full member: owns ranges, serves transactions.
    Active,
    /// Graceful exit in progress: still serving its remaining ranges
    /// while they stream out.
    Draining,
    /// Left the cluster (gracefully or by post-crash rollback). Sticky:
    /// node ids are never reused.
    Retired,
}

/// The cluster-wide membership table: per-machine [`NodeState`] plus a
/// monotonically bumping epoch, published like the range map so every
/// worker reads a consistent view without coordination.
#[derive(Debug)]
pub struct MembershipTable {
    states: RwLock<Vec<NodeState>>,
    epoch: std::sync::atomic::AtomicU64,
}

impl MembershipTable {
    /// A table with `nodes` founding machines, all `Active`.
    pub fn new(nodes: usize) -> Self {
        MembershipTable {
            states: RwLock::new(vec![NodeState::Active; nodes]),
            epoch: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// The state of `node`; `None` if the machine was never provisioned.
    pub fn state_of(&self, node: NodeId) -> Option<NodeState> {
        self.states.read().expect("membership lock poisoned").get(node as usize).copied()
    }

    /// Current table epoch (bumped by every transition).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Every machine's state, indexed by node id.
    pub fn snapshot(&self) -> Vec<NodeState> {
        self.states.read().expect("membership lock poisoned").clone()
    }

    /// Node ids currently `Active`, ascending.
    pub(crate) fn active_nodes(&self) -> Vec<NodeId> {
        let states = self.snapshot().into_iter();
        (0..).zip(states).filter(|(_, s)| *s == NodeState::Active).map(|(n, _)| n).collect()
    }

    /// Publishes a transition and returns the new epoch. `node` may be
    /// exactly one past the end (a freshly provisioned machine).
    pub fn set(&self, node: NodeId, state: NodeState) -> u64 {
        let mut states = self.states.write().expect("membership lock poisoned");
        let i = node as usize;
        match i.cmp(&states.len()) {
            std::cmp::Ordering::Less => states[i] = state,
            std::cmp::Ordering::Equal => states.push(state),
            std::cmp::Ordering::Greater => panic!("node {node} skipped a membership slot"),
        }
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1
    }
}

/// Typed failures of the membership protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipError {
    /// The fabric has no free node slot (`ClusterConfig::max_nodes`).
    ClusterFull,
    /// The journal cannot describe the operation (too many ranges).
    JournalFull,
    /// The subject is not in the state the operation requires.
    WrongState {
        /// The machine in question.
        node: NodeId,
        /// Its actual state (`None` = never provisioned).
        state: Option<NodeState>,
    },
    /// A leave would empty the cluster.
    LastActiveNode,
    /// The subject machine died mid-protocol; the journal survives and
    /// [`MembershipCoordinator::recover`] repairs the cluster.
    SubjectDied {
        /// The dead machine.
        node: NodeId,
        /// The fabric error that revealed the death.
        error: FabricError,
    },
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipError::ClusterFull => write!(f, "no free node slot on the fabric"),
            MembershipError::JournalFull => {
                write!(f, "operation needs more than {MAX_JOURNAL_RANGES} journal records")
            }
            MembershipError::WrongState { node, state } => {
                write!(f, "node {node} is in state {state:?}")
            }
            MembershipError::LastActiveNode => write!(f, "cannot drain the last active node"),
            MembershipError::SubjectDied { node, error } => {
                write!(f, "node {node} died mid-protocol: {error}")
            }
        }
    }
}

impl std::error::Error for MembershipError {}

/// What a completed join did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinReport {
    /// The joined machine.
    pub node: NodeId,
    /// Donations streamed in: `(lo, hi, donor)` per range.
    pub ranges_in: Vec<(u64, u64, NodeId)>,
    /// Keys moved by the donation streams.
    pub keys_moved: u64,
    /// Membership epoch after activation.
    pub epoch: u64,
}

/// What a completed leave did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaveReport {
    /// The departed machine.
    pub node: NodeId,
    /// Ranges handed off: `(lo, hi, receiver)` per range.
    pub ranges_out: Vec<(u64, u64, NodeId)>,
    /// Keys moved by the drain streams.
    pub keys_moved: u64,
    /// The WAL quiesce sweep run between the drain and retirement
    /// (expected empty on a clean leave).
    pub quiesce: RecoveryReport,
    /// Membership epoch after retirement.
    pub epoch: u64,
}

/// Which direction a membership recovery repaired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryDirection {
    /// Death mid-join: the cluster returned to its pre-join geometry.
    RolledBack,
    /// Death mid-leave: the drain finished from the journal.
    RolledForward,
}

/// What [`MembershipCoordinator::recover`] did for one dead machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRecovery {
    /// The transaction-log sweep ([`recover_node`]): always runs, first.
    pub wal: RecoveryReport,
    /// The membership repair, when the corpse's journal was armed;
    /// `None` for a plain death (the machine keeps its ranges and may
    /// revive).
    pub membership: Option<MembershipRecovery>,
}

/// How [`MembershipCoordinator::recover`] repaired a join or leave whose
/// subject died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipRecovery {
    /// The dead machine.
    pub node: NodeId,
    /// Rollback (join) or roll-forward (leave).
    pub direction: RecoveryDirection,
    /// The transaction-log sweep run before any row moved.
    pub wal: RecoveryReport,
    /// Migration locks released for the in-flight range.
    pub released_locks: u64,
    /// Partially copied rows dropped from the in-flight range.
    pub dropped_rows: u64,
    /// Rows evacuated off the corpse's NVRAM.
    pub evacuated_keys: u64,
    /// Final placement of every range the subject touched:
    /// `(lo, hi, owner)` — donors for a rollback, receivers for a
    /// roll-forward.
    pub ranges: Vec<(u64, u64, NodeId)>,
    /// Membership epoch after the corpse retired.
    pub epoch: u64,
}

/// Executes joins and leaves against a live cluster and repairs them
/// when the failure detector reports the subject dead mid-protocol.
///
/// The coordinator composes the pieces the repo already has: the fabric
/// grows via [`drtm_rdma::Cluster::add_node`], rows stream via
/// [`Resharder::migrate`], crashes are collected via [`recover_node`]
/// (the WAL), [`Resharder::recover`] and [`Resharder::evacuate_nt`]. The
/// workload supplies a `provision` callback that carves the new machine's
/// stores from the arena it is handed and starts its services: table
/// geometry is workload-owned, the layout in front of it is not.
pub struct MembershipCoordinator {
    sys: Arc<DrTm>,
    resharder: Arc<Resharder>,
    table: Arc<MembershipTable>,
    provision: Box<dyn Fn(NodeId, Arena) + Send + Sync>,
    /// Serialises joins/leaves/recoveries: membership ops are rare and
    /// whole-cluster, so one at a time is the correctness-preserving
    /// (and paper-faithful: Zookeeper serialises membership) choice.
    op: Mutex<()>,
}

impl std::fmt::Debug for MembershipCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MembershipCoordinator").field("table", &self.table).finish()
    }
}

impl MembershipCoordinator {
    /// Builds a coordinator. `provision` is called during a join with
    /// the new node id and its [`crate::NodeLayout::store_arena`] (where
    /// a founding machine's came from): it creates the workload's shard
    /// there and registers it with the resharder, plus any services.
    pub fn new(
        sys: Arc<DrTm>,
        resharder: Arc<Resharder>,
        table: Arc<MembershipTable>,
        provision: impl Fn(NodeId, Arena) + Send + Sync + 'static,
    ) -> Self {
        MembershipCoordinator {
            sys,
            resharder,
            table,
            provision: Box::new(provision),
            op: Mutex::new(()),
        }
    }

    /// The membership table this coordinator publishes through.
    pub fn table(&self) -> &Arc<MembershipTable> {
        &self.table
    }

    /// Retirement's two writes: the fault plan closes the machine's
    /// fabric port (which is also what stops the failure detector
    /// suspecting it), the table publishes the lifecycle state.
    fn retire(&self, node: NodeId) -> u64 {
        self.sys.cluster().faults().retire(node);
        self.table.set(node, NodeState::Retired)
    }

    /// The body join and leave share: journal `op` on `node`'s own
    /// region, publish `state`, then for each `(lo, hi, peer)` of `plan`
    /// journal the range, migrate it (towards `node` for a join, towards
    /// the peer for a leave), mark it done and give the chaos harness its
    /// `mid_site`; `end_site` fires after the last range. Returns the
    /// keys moved. On [`MembershipError::SubjectDied`] the garbage state
    /// is left exactly as the crash produced it — the failure detector's
    /// [`MembershipCoordinator::recover`] repairs it from the journal.
    fn stream(
        &self,
        node: NodeId,
        (op, state): (u64, NodeState),
        plan: &[(u64, u64, NodeId)],
        (mid_site, end_site): (&str, Option<&str>),
    ) -> Result<u64, MembershipError> {
        let region = self.sys.cluster().node(node).region();
        let journal = self.sys.layout().membership;
        let faults = self.sys.cluster().faults();
        // Journal the intent, then publish: from here on a crash of the
        // subject is a journaled membership death.
        journal.arm(region, op);
        self.table.set(node, state);
        let mut keys_moved = 0;
        for &(lo, hi, peer) in plan {
            let idx = journal.append(region, lo, hi, peer);
            let dst = if op == OP_JOIN { node } else { peer };
            match self.resharder.migrate(lo, hi, dst) {
                Ok(report) => keys_moved += report.purged as u64,
                Err(error) => return Err(MembershipError::SubjectDied { node, error }),
            }
            journal.mark_done(region, idx);
            // Chaos hook: the subject dies here with this range landed
            // and the next one about to be left mid-copy.
            faults.crash_hook(node, mid_site);
        }
        if let Some(site) = end_site {
            faults.crash_hook(node, site);
        }
        if faults.is_crashed(node) {
            let error = FabricError::PeerDead { node };
            return Err(MembershipError::SubjectDied { node, error });
        }
        Ok(keys_moved)
    }

    /// Admits a new machine: provisions its slot on the live fabric,
    /// streams one donation range from every active machine (the upper
    /// half of its largest range; a donor too small to split gives
    /// nothing), then flips it `Active`.
    pub fn join(&self) -> Result<JoinReport, MembershipError> {
        let _g = self.op.lock().expect("membership op lock poisoned");
        // Refuse before anything grows: a join the journal cannot
        // describe must leave fabric and table untouched.
        let donors = self.table.active_nodes();
        if donors.len() > MAX_JOURNAL_RANGES {
            return Err(MembershipError::JournalFull);
        }
        let node = self.sys.cluster().add_node().ok_or(MembershipError::ClusterFull)?;
        // Provision before any state is published: shard, services —
        // and a softtime value so leases work immediately.
        let region = self.sys.cluster().node(node).region();
        (self.provision)(node, self.sys.layout().store_arena(region));
        crate::time::SoftTimer::tick_now(self.sys.cluster());
        let map = self.resharder.map();
        let ranges_in: Vec<_> = donors
            .into_iter()
            .filter_map(|donor| map.donation_from(donor).map(|(lo, hi)| (lo, hi, donor)))
            .collect();
        let sites = (JOIN_MID_STREAM_SITE, Some(JOIN_BEFORE_ACTIVATE_SITE));
        let keys_moved = self.stream(node, (OP_JOIN, NodeState::Joining), &ranges_in, sites)?;
        // Activation: clear the journal *then* publish Active — a crash
        // between the two leaves an idle journal and an armed fault
        // plan, which recovery treats as a plain (non-membership) death
        // of a machine that owns its donated ranges.
        self.sys.layout().membership.clear(region);
        let epoch = self.table.set(node, NodeState::Active);
        Ok(JoinReport { node, ranges_in, keys_moved, epoch })
    }

    /// Gracefully retires `node`: marks it `Draining`, streams every
    /// owned range to the remaining active machines (round-robin by
    /// ascending node id), quiesces its write-ahead log, then flips it
    /// `Retired` and closes its fabric port for good. Workers must have
    /// drained their own pending write-backs first (the quiesce sweep
    /// releases anything that slipped through and reports it).
    pub fn leave(&self, node: NodeId, via: NodeId) -> Result<LeaveReport, MembershipError> {
        let _g = self.op.lock().expect("membership op lock poisoned");
        if self.table.state_of(node) != Some(NodeState::Active) {
            return Err(MembershipError::WrongState { node, state: self.table.state_of(node) });
        }
        let receivers: Vec<NodeId> =
            self.table.active_nodes().into_iter().filter(|&n| n != node).collect();
        if receivers.is_empty() {
            return Err(MembershipError::LastActiveNode);
        }
        let ranges = self.resharder.map().ranges_owned_by(node);
        if ranges.len() > MAX_JOURNAL_RANGES {
            return Err(MembershipError::JournalFull);
        }
        let ranges_out: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(i, (lo, hi))| (lo, hi, receivers[i % receivers.len()]))
            .collect();
        let sites = (LEAVE_MID_DRAIN_SITE, None);
        let keys_moved = self.stream(node, (OP_LEAVE, NodeState::Draining), &ranges_out, sites)?;
        // Quiesce: sweep the subject's log slots so no lock or redo
        // obligation survives retirement. On a clean leave this finds
        // nothing; anything it reports was leaked by a worker.
        let layout = self.sys.layout();
        let quiesce = recover_node(self.sys.cluster(), node, layout, via);
        layout.membership.clear(self.sys.cluster().node(node).region());
        let epoch = self.retire(node);
        Ok(LeaveReport { node, ranges_out, keys_moved, quiesce, epoch })
    }

    /// Repairs the cluster after `crashed` died, driving from `via`: the
    /// single recovery entry point of an elastic deployment (compose it
    /// into the failure detector's callback). Always sweeps the WAL,
    /// then rolls back the migrations the corpse was part of, then
    /// dispatches on its membership journal — an armed join rolls back to
    /// the pre-join geometry, an armed leave rolls the drain forward, an
    /// idle journal leaves a plain death ([`NodeRecovery::membership`] is
    /// `None`). The module docs say why in this order.
    ///
    /// Deterministic and idempotent: driven only by NVRAM journal state,
    /// the range map and the (deterministic) membership table, so
    /// replaying the same seeded crash yields an identical report.
    pub fn recover(&self, crashed: NodeId, via: NodeId) -> NodeRecovery {
        let _g = self.op.lock().expect("membership op lock poisoned");
        let layout = self.sys.layout();
        let region = self.sys.cluster().node(crashed).region();
        let wal = recover_node(self.sys.cluster(), crashed, layout, via);
        let (released_locks, dropped_rows) = self.resharder.recover(crashed, via);
        let Some((op, records)) = layout.membership.read(region) else {
            return NodeRecovery { wal, membership: None };
        };
        let joining = match op {
            OP_JOIN => true,
            OP_LEAVE => false,
            other => panic!("corrupt membership journal op {other} on node {crashed}"),
        };
        let mut evacuated_keys = 0;
        let mut ranges = Vec::new();
        // Rows move off the corpse's NVRAM first, routing flips last.
        let mut evacuate = |lo, hi, to| {
            evacuated_keys += self.resharder.evacuate_nt(lo, hi, crashed, to);
            let flipped = self.resharder.map().reassign(lo, hi, to);
            flipped.expect("a range of the corpse vanished from the map");
            ranges.push((lo, hi, to));
        };
        // A join walks its completed donations back to their donors (the
        // in-flight one never left its donor). A leave's completed
        // hand-offs already published; its in-flight one restarts as an
        // evacuation to the journaled receiver.
        for &(lo, hi, peer, done) in &records {
            if done == joining {
                evacuate(lo, hi, peer);
            }
        }
        if !joining {
            // Ranges the journal never reached drain round-robin to the
            // active machines (ascending ids: deterministic).
            let receivers: Vec<NodeId> =
                self.table.active_nodes().into_iter().filter(|&n| n != crashed).collect();
            let remaining = self.resharder.map().ranges_owned_by(crashed);
            for (i, (lo, hi)) in remaining.into_iter().enumerate() {
                evacuate(lo, hi, receivers[i % receivers.len()]);
            }
        }
        layout.membership.clear(region);
        let epoch = self.retire(crashed);
        let direction =
            if joining { RecoveryDirection::RolledBack } else { RecoveryDirection::RolledForward };
        let membership = MembershipRecovery {
            node: crashed,
            direction,
            wal: wal.clone(),
            released_locks,
            dropped_rows,
            evacuated_keys,
            ranges,
            epoch,
        };
        NodeRecovery { wal, membership: Some(membership) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_publishes_states_with_bumping_epochs() {
        let t = MembershipTable::new(2);
        assert_eq!(t.state_of(0), Some(NodeState::Active));
        assert_eq!(t.state_of(1), Some(NodeState::Active));
        assert_eq!(t.state_of(2), None);
        assert_eq!(t.active_nodes(), vec![0, 1]);
        let e0 = t.epoch();
        let e1 = t.set(2, NodeState::Joining); // grows by one slot
        assert!(e1 > e0);
        assert_eq!(t.state_of(2), Some(NodeState::Joining));
        assert_eq!(t.active_nodes(), vec![0, 1]);
        let e2 = t.set(2, NodeState::Active);
        assert!(e2 > e1);
        assert_eq!(t.active_nodes(), vec![0, 1, 2]);
        t.set(0, NodeState::Draining);
        t.set(0, NodeState::Retired);
        assert_eq!(t.active_nodes(), vec![1, 2]);
        assert_eq!(t.snapshot(), vec![NodeState::Retired, NodeState::Active, NodeState::Active]);
    }

    #[test]
    #[should_panic(expected = "skipped a membership slot")]
    fn table_rejects_slot_gaps() {
        let t = MembershipTable::new(1);
        t.set(5, NodeState::Joining);
    }

    fn journal() -> (Region, MembershipJournal) {
        let mut arena = Arena::new(0, 1 << 16);
        (Region::new(1 << 16), MembershipJournal::reserve(&mut arena))
    }

    #[test]
    fn journal_appends_marks_and_rearms() {
        let (region, j) = journal();
        assert_eq!(j.read(&region), None);
        j.arm(&region, OP_LEAVE);
        assert_eq!(j.append(&region, 0, 49, 2), 0);
        assert_eq!(j.append(&region, 100, 199, 3), 1);
        j.mark_done(&region, 0);
        let want = vec![(0, 49, 2, true), (100, 199, 3, false)];
        assert_eq!(j.read(&region), Some((OP_LEAVE, want)));
        j.clear(&region);
        assert_eq!(j.read(&region), None, "an idle header hides every range");
        // The next operation starts from an empty range list.
        j.arm(&region, OP_JOIN);
        assert_eq!(j.read(&region), Some((OP_JOIN, Vec::new())));
        for i in 0..MAX_JOURNAL_RANGES {
            assert_eq!(j.append(&region, i as u64, i as u64, 1), i);
        }
    }

    #[test]
    fn torn_range_record_is_not_replayed() {
        // Payload of the second range written, its status word not: the
        // crash window of `append`. Recovery sees one range.
        let (region, j) = journal();
        j.arm(&region, OP_JOIN);
        j.append(&region, 0, 49, 1);
        let payload = j.ranges[0].payload(&region, 0);
        j.ranges[1].arm(&region, 0, &payload, 0);
        assert_eq!(j.read(&region), Some((OP_JOIN, vec![(0, 49, 1, false)])));
    }
}
