//! The DrTM transaction engine: one commit pipeline,
//! Start → LocalTX → Commit → WriteBack (Figures 2, 3, 5–8; DESIGN.md
//! "Commit pipeline" has the phase × strategy table).
//!
//! A transaction declares its read/write sets up front (§4.1 — the same
//! requirement as Sinfonia/Calvin; typical OLTP workloads satisfy it).
//! [`Worker::execute`] then drives it through steps written once each:
//! **Start** ([`Pipeline::start`]) logs ahead, then locks or leases and
//! fetches every record of the strategy's lock order; **LocalTX** runs
//! the body against a [`TxnCtx`]; **Commit** confirms the leases and
//! stages the write-ahead log up to the commit point ([`Pipeline::run`]);
//! **WriteBack** ([`Pipeline::publish`]) applies, unlocks, parks what a
//! dead peer cannot take and reclaims the log.
//!
//! The only fork is the [`Strategy`]: the **HTM** region of the paper's
//! fast path, and — after repeated HTM aborts or a deterministic
//! capacity abort — the **ordered-2PL** fallback handler of §6.2. Both
//! obey log-persist-before-unlock (the HTPM recipe): nothing becomes
//! visible and no lock is released before the log that can redo it is
//! durable.

use std::sync::Arc;
use std::time::Duration;

use drtm_htm::{clock, vtime, Abort, Executor, HtmStats, HtmTxn, Region};
use drtm_memstore::{BTree, ClusterHash, InsertError, PreparedInsert};
use drtm_rdma::rpc::DEAD_PEER_GRACE;
use drtm_rdma::{AtomicityLevel, Cluster, FaultPlan, GlobalAddr, NodeId, Qp};

use crate::alloc_layout::NodeLayout;
use crate::config::{CrashPoint, DrTmConfig, SofttimeStrategy};
use crate::log::{LogSlot, LoggedUpdate};
use crate::record::{
    self, lease_unconfirmed, Claim, FetchedRecord, LockConflict, RecordAddr, ABORT_LEASE_EXPIRED,
    ABORT_LOCKED,
};
use crate::state::{LockState, DELTA_US};
use crate::stats::TxnStats;
use crate::time::{softtime_nt, softtime_txn, SoftTimer};
use crate::trace::{
    AbortCause, Phase, PhaseTimer, StatsReport, TraceBuf, TraceDump, TraceEvent, TraceHub,
};

/// Explicit-abort code reserved for user-initiated aborts (e.g. TPC-C
/// new-order's invalid-item rollback). Only valid before any
/// side-effecting context operation, mirroring the chopping restriction
/// that only the first transaction piece may abort (§3).
pub const USER_ABORT: u8 = 0x7F;

/// Terminal (non-retried) outcomes of [`Worker::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// The body issued `Abort::Explicit(USER_ABORT)`.
    UserAborted,
    /// This worker's own machine is marked crashed by the fault plan —
    /// an armed [`CrashPoint`] fired under it, or it was killed: the
    /// worker stopped dead, leaving locks and logs for recovery.
    SimulatedCrash,
    /// A fabric operation hit the crashed machine: the transaction
    /// aborted cleanly (every releasable lock released, undeliverable
    /// releases parked for [`Worker::flush_pending`]) and can be
    /// retried once the `FailureDetector` → `recover_node` cycle runs.
    PeerDead(NodeId),
    /// A fabric operation routed to a machine that gracefully left the
    /// cluster: its QPs are closed for good. The caller re-resolves its
    /// keys against the current range map and retries — no recovery.
    Retired(NodeId),
}

impl TxnError {
    /// The terminal error a lock/lease conflict maps to, if any: a dead
    /// or retired machine cannot be waited out (recovery, or re-resolving
    /// the key, is the fix); every other conflict is retried.
    pub(crate) fn of_conflict(c: LockConflict) -> Option<TxnError> {
        match c {
            LockConflict::PeerDead { node } => Some(TxnError::PeerDead(node)),
            LockConflict::Retired { node } => Some(TxnError::Retired(node)),
            _ => None,
        }
    }
}

/// What a fabric failure outside `execute` (resolving a key, say) means
/// to a transaction: the conflict `record::conflict_of` maps it to.
impl From<drtm_rdma::FabricError> for TxnError {
    fn from(e: drtm_rdma::FabricError) -> Self {
        TxnError::of_conflict(record::conflict_of(e))
            .expect("every fabric failure is a dead or retired peer")
    }
}

/// How one run of the pipeline takes its locks and isolates its body —
/// the only fork in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Remote records only, NIC CAS, fail fast on any conflict; body,
    /// lease confirmation and write-ahead log inside one HTM region.
    Htm,
    /// Every record in global `(node, offset)` order, waiting on
    /// conflicts, CPU CAS where sound; body against buffered state.
    Ordered2pl,
}

/// How a slot's record was declared.
#[derive(Clone, Copy)]
enum Decl<'a> {
    /// A local record, by entry address.
    Local(RecordAddr),
    /// A local record, by key.
    Key(LocalKey<'a>),
    /// A remote record, by entry address: Start locks or leases it.
    Remote(RecordAddr),
}

/// One declared record of a transaction and what each step learned of
/// it.
struct Slot<'a> {
    decl: Decl<'a>,
    write: bool,
    /// The record, once known: a keyed slot's is found at its first
    /// access in an HTM region, or by ordered 2PL before its pass;
    /// `Some(None)` is a key with no row.
    rec: Option<Option<RecordAddr>>,
    /// What Start fetched under the slot's lock or lease, if it took one.
    fetched: Option<FetchedRecord>,
    /// The body's buffered value (a remote write, or any local write
    /// under ordered 2PL).
    value: Option<Vec<u8>>,
}

impl<'a> Slot<'a> {
    fn new(decl: Decl<'a>, write: bool) -> Self {
        let rec = match decl {
            Decl::Local(r) | Decl::Remote(r) => Some(Some(r)),
            Decl::Key(_) => None,
        };
        Slot { decl, write, rec, fetched: None, value: None }
    }

    fn key(&self) -> Option<LocalKey<'a>> {
        match self.decl {
            Decl::Key(k) => Some(k),
            _ => None,
        }
    }

    fn record(&self) -> Option<RecordAddr> {
        self.rec.flatten()
    }

    fn is_remote(&self) -> bool {
        matches!(self.decl, Decl::Remote(_))
    }

    fn fetched(&self) -> &FetchedRecord {
        self.fetched.as_ref().expect("Start fetched the record")
    }
}

/// The declared lists of a [`TxnSpec`], in slot-table order.
enum Kind {
    LocalWrite,
    KeyedWrite,
    RemoteWrite,
    KeyedRead,
    RemoteRead,
}

/// The slot table of one transaction, built once per
/// [`Worker::execute`]: local writes by address, keyed writes, remote
/// writes, keyed reads, remote reads, each list in declared order. Every
/// step walks it in this order — it is the write-ahead log's update
/// order and ordered 2PL's tie-break — and the HTM strategy's lock order
/// is its remote slots.
fn slot_table<'a>(spec: &TxnSpec<'a>) -> Vec<Slot<'a>> {
    let local = spec.local_writes.iter().map(|r| Slot::new(Decl::Local(*r), true));
    let keyed_writes = spec.keyed_writes.iter().map(|k| Slot::new(Decl::Key(*k), true));
    let remote_writes = spec.remote_writes.iter().map(|r| Slot::new(Decl::Remote(*r), true));
    let keyed_reads = spec.keyed_reads.iter().map(|k| Slot::new(Decl::Key(*k), false));
    let remote_reads = spec.remote_reads.iter().map(|r| Slot::new(Decl::Remote(*r), false));
    let writes = local.chain(keyed_writes).chain(remote_writes);
    writes.chain(keyed_reads).chain(remote_reads).collect()
}

/// One write-locked record and what Commit decided for it: the unit of
/// WriteBack and of the write-ahead log, and the parked form of a
/// write-back or unlock its (dead) target could not take.
#[derive(Debug, Clone)]
struct WriteItem {
    rec: RecordAddr,
    /// Version the record carries once `value` is applied.
    version: u32,
    /// `Some` = write back then unlock; `None` = declared but never
    /// written, plain unlock.
    value: Option<Vec<u8>>,
    /// Deliver with CPU stores instead of one-sided WRITEs.
    local: bool,
}

/// The redo records of a write set — one per item actually written —
/// followed by the local updates an HTM region logged as it ran.
fn wal_updates(writes: &[WriteItem], local_log: Vec<LoggedUpdate>) -> Vec<LoggedUpdate> {
    let logged = |w: &WriteItem| {
        Some(LoggedUpdate { rec: w.rec, version: w.version, value: w.value.clone()? })
    };
    writes.iter().filter_map(logged).chain(local_log).collect()
}

/// Commit's lease confirmation at softtime `now`: every lease Start
/// took (or shared) must still be `VALID`. The first stale one is
/// returned for the strategy to account.
fn stale_lease(slots: &[Slot<'_>], now: u64) -> Option<RecordAddr> {
    let leased = slots.iter().filter(|s| !s.write && s.fetched.is_some());
    let mut stale = leased.filter(|s| lease_unconfirmed(s.fetched().lease_end_us, now, DELTA_US));
    stale.next().and_then(Slot::record)
}

/// The per-transaction constants every pipeline step reads. Copied out
/// of the [`Pipeline`] (the system outlives it) rather than borrowed
/// through it, so phase timers can stay alive across steps that mutate
/// the worker's lane.
#[derive(Clone, Copy)]
struct Env<'a> {
    sys: &'a DrTm,
    region: &'a Region,
    spec: &'a TxnSpec<'a>,
    txn_id: u64,
}

/// Why a pipeline step stopped short of a commit.
#[derive(Debug, PartialEq, Eq)]
enum Stop {
    /// The HTM region aborted; back off and rerun it under the same
    /// locks.
    Retry,
    /// Deterministic (capacity) abort, or the region retry budget is
    /// spent: switch to the ordered-2PL strategy.
    GiveUp,
    /// A lock conflict or an unconfirmed lease: back off and rerun
    /// Start.
    Restart,
    Terminal(TxnError),
}

const CRASH: Stop = Stop::Terminal(TxnError::SimulatedCrash);

impl Stop {
    /// The error of a stop that ends the transaction.
    fn into_terminal(self) -> TxnError {
        match self {
            Stop::Terminal(e) => e,
            other => unreachable!("a strategy handles its own retries and restarts: {other:?}"),
        }
    }
}

/// A local record declared by key: the executing machine's shard of a
/// table and a key in it.
#[derive(Debug, Clone, Copy)]
pub struct LocalKey<'a> {
    /// The shard the key lives in, on the executing machine.
    pub table: &'a ClusterHash,
    /// The key.
    pub key: u64,
}

impl LocalKey<'_> {
    /// The record of this key, given the entry offset a walk found.
    fn record(&self, entry_off: usize) -> RecordAddr {
        let desc = self.table.desc();
        RecordAddr::new(GlobalAddr::new(desc.node, entry_off), desc.value_cap)
    }

    /// Walks the table inside `txn`, whose read set the bucket lines
    /// join: the key's record, `None` if it has no row.
    pub fn find(&self, txn: &mut HtmTxn<'_>) -> Result<Option<RecordAddr>, Abort> {
        Ok(self.table.get_local(txn, self.key)?.map(|e| self.record(e.offset)))
    }

    /// [`LocalKey::find`], then the value bytes of the row found, as
    /// last committed: no lock or lease is looked at (a reconnaissance
    /// or read-committed read).
    pub fn read(&self, txn: &mut HtmTxn<'_>) -> Result<Option<(RecordAddr, Vec<u8>)>, Abort> {
        let Some(rec) = self.find(txn)? else { return Ok(None) };
        Ok(Some((rec, rec.entry().read_value(txn)?)))
    }
}

/// The declared access sets of one transaction. Remote records are
/// declared by entry address — Start locks or leases them before the
/// body runs (§4) — and local ones by key (writes also by address); a
/// keyed record is looked up where its strategy isolates the body
/// (DESIGN.md "Local records by key"). A local record is declared once:
/// not in two write slots, not as a read and a write, not by key and by
/// address — ordered 2PL would wait on its own lock (debug builds assert
/// it).
#[derive(Debug, Clone, Default)]
pub struct TxnSpec<'a> {
    /// Local records written, by address (must live on the executing
    /// machine).
    pub local_writes: Vec<RecordAddr>,
    /// Remote records read (leased).
    pub remote_reads: Vec<RecordAddr>,
    /// Remote records written (exclusively locked).
    pub remote_writes: Vec<RecordAddr>,
    /// Local records read, by key ([`TxnCtx::keyed_read`]).
    pub keyed_reads: Vec<LocalKey<'a>>,
    /// Local records written, by key ([`TxnCtx::keyed_write_cur`],
    /// [`TxnCtx::keyed_write`]).
    pub keyed_writes: Vec<LocalKey<'a>>,
}

/// Whether no two of `items` are equal.
fn distinct<T: Ord>(mut items: Vec<T>) -> bool {
    items.sort_unstable();
    items.windows(2).all(|w| w[0] != w[1])
}

/// A DrTM instance shared by all workers of a simulated cluster.
#[derive(Debug)]
pub struct DrTm {
    cluster: Arc<Cluster>,
    cfg: DrTmConfig,
    stats: Arc<TxnStats>,
    /// The executor every worker runs its stand-alone regions on; its
    /// stats are [`DrTm::htm_stats`].
    exec: Executor,
    trace: TraceHub,
    /// Every machine's region layout, founding or joined later.
    layout: NodeLayout,
    /// The softtime service; `None` on a frozen clock. Owned here so it
    /// ticks until the last worker's `Arc<DrTm>` is gone.
    _timer: Option<SoftTimer>,
}

impl DrTm {
    /// Creates the instance; [`crate::Deployment::start`] is the caller.
    pub(crate) fn new(
        cluster: Arc<Cluster>,
        cfg: DrTmConfig,
        layout: NodeLayout,
        timer: Option<SoftTimer>,
    ) -> Arc<Self> {
        let trace = TraceHub::new(cfg.trace_capacity);
        let exec = Executor::new(cfg.htm.clone(), Arc::new(HtmStats::new()));
        Arc::new(DrTm {
            cluster,
            cfg,
            stats: Arc::new(TxnStats::default()),
            exec,
            trace,
            layout,
            _timer: timer,
        })
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The region layout of every machine (recovery needs a crashed
    /// machine's log-slot geometry; a joining machine's store arena
    /// starts where it ends).
    pub fn layout(&self) -> &NodeLayout {
        &self.layout
    }

    /// The configuration.
    pub fn config(&self) -> &DrTmConfig {
        &self.cfg
    }

    /// Transaction-layer counters.
    pub fn stats(&self) -> &Arc<TxnStats> {
        &self.stats
    }

    /// HTM-layer counters.
    pub fn htm_stats(&self) -> &Arc<HtmStats> {
        self.exec.stats()
    }

    /// The abort-cause diagnostics hub.
    pub fn trace(&self) -> &TraceHub {
        &self.trace
    }

    /// Dumps every worker's retained abort-trace events (print from a
    /// failing test or an unexpected abort storm).
    pub fn trace_dump(&self) -> TraceDump {
        self.trace.dump()
    }

    /// Joins every counter layer (transaction, HTM, RDMA, abort causes,
    /// per-phase breakdown) into one report; diff two with
    /// [`StatsReport::since`] to measure a window.
    pub fn stats_report(&self) -> StatsReport {
        StatsReport {
            txn: self.stats.snapshot(),
            htm: self.htm_stats().snapshot(),
            rdma: self.cluster.counters().snapshot(),
            causes: self.trace.causes(),
            phases: self.trace.phases(),
        }
    }

    /// An executor on this system's HTM model that counts in
    /// [`DrTm::htm_stats`]: what each worker runs its stand-alone
    /// regions on, and what code outside any worker (an invariant check,
    /// a shipped-operation service) runs its own on.
    pub fn executor(&self) -> Executor {
        self.exec.clone()
    }

    /// Creates the handle a worker thread drives transactions through.
    pub fn worker(self: &Arc<Self>, node: NodeId, worker_id: usize) -> Worker {
        let lane = Lane {
            qp: self.cluster.qp(node),
            log: LogSlot::new(self.layout.log_slots[worker_id]),
            ring: self.trace.register(),
            txn_seq: 0,
            rng: 0x9E37_79B9u64.wrapping_mul(node as u64 + 1).wrapping_add(worker_id as u64),
            pending: Vec::new(),
        };
        Worker { sys: Arc::clone(self), node, worker_id, lane }
    }
}

/// Per-thread transaction driver.
#[derive(Debug)]
pub struct Worker {
    sys: Arc<DrTm>,
    /// The machine this worker runs on.
    pub node: NodeId,
    /// Worker index within the machine.
    pub worker_id: usize,
    lane: Lane,
}

/// What a worker owns and its transactions mutate, kept apart from its
/// `Arc<DrTm>` so that a transaction borrows the system ([`Pipeline`])
/// instead of taking a reference on it: every worker thread would
/// otherwise write the one reference count twice per transaction.
#[derive(Debug)]
struct Lane {
    qp: Qp,
    log: LogSlot,
    ring: Arc<TraceBuf>,
    txn_seq: u64,
    rng: u64,
    /// Write-backs/unlocks whose target died mid-commit; drained by
    /// [`Worker::flush_pending`] once the peer is recovered.
    pending: Vec<WriteItem>,
}

/// A worker for the length of one call: its system borrowed, its lane
/// mutably. Every step of the commit pipeline is a method of this.
pub(crate) struct Pipeline<'w> {
    sys: &'w DrTm,
    node: NodeId,
    worker_id: usize,
    lane: &'w mut Lane,
}

impl Worker {
    /// The queue pair this worker issues one-sided operations on.
    pub fn qp(&self) -> &Qp {
        &self.lane.qp
    }

    /// This worker's machine region.
    pub fn region(&self) -> &Arc<Region> {
        self.sys.cluster.node(self.node).region()
    }

    /// The HTM executor (shared stats) for standalone store operations.
    pub fn executor(&self) -> &Executor {
        &self.sys.exec
    }

    /// The owning DrTM instance.
    pub fn system(&self) -> &Arc<DrTm> {
        &self.sys
    }

    /// Persists chopping information before a transaction piece of a
    /// chopped parent transaction (Figure 7); no-op when durability is
    /// off. Pair with [`Worker::clear_chop`] after the last piece.
    pub fn log_chop(&self, info: crate::log::ChopInfo) {
        if self.sys.cfg.logging {
            self.lane.log.log_chop(self.region(), info);
            self.sys.stats.add_log_write(8);
        }
    }

    /// Clears this worker's chopping information.
    pub fn clear_chop(&self) {
        if self.sys.cfg.logging {
            self.lane.log.clear_chop(self.region());
        }
    }

    /// Records an abort decided *outside* the commit protocol — e.g. the
    /// elastic router aborting with [`AbortCause::Migrated`] when a key's
    /// range is mid-cutover — so cross-layer retries show up in the same
    /// per-cause counters and trace rings as protocol aborts.
    pub fn note_abort(&mut self, cause: AbortCause) {
        let mut p = self.pipeline();
        let txn_id = p.next_txn_id();
        p.trace_abort(txn_id, Phase::Start, cause, None);
    }

    /// This worker for the length of one call, its system borrowed.
    pub(crate) fn pipeline(&mut self) -> Pipeline<'_> {
        Pipeline {
            sys: &self.sys,
            node: self.node,
            worker_id: self.worker_id,
            lane: &mut self.lane,
        }
    }

    /// Executes one strictly-serializable read-write transaction.
    ///
    /// `body` runs with all remote records prefetched; it may be retried
    /// many times and must therefore be idempotent apart from its context
    /// operations. Returns the body's value once durably committed.
    pub fn execute<T>(
        &mut self,
        spec: &TxnSpec<'_>,
        body: impl FnMut(&mut TxnCtx<'_>) -> Result<T, Abort>,
    ) -> Result<T, TxnError> {
        self.pipeline().execute(spec, body)
    }

    /// Whether this worker still holds undelivered write-backs/unlocks
    /// for a dead peer ([`Worker::execute`] refuses new transactions
    /// until [`Worker::flush_pending`] drains them).
    pub fn has_pending(&self) -> bool {
        !self.lane.pending.is_empty()
    }

    /// Re-delivers write-backs and unlocks that were parked when their
    /// target machine died mid-commit. Call after the failed node is
    /// recovered (or revived): on success the worker's write-ahead log
    /// is reclaimed and new transactions may run; on `PeerDead` the
    /// still-undeliverable ops stay parked for the next attempt. (A
    /// graceful leave quiesces pending write-backs *before* retiring, so
    /// a retired target only shows up here under chaos; its ops stay
    /// parked like any other.)
    pub fn flush_pending(&mut self) -> Result<(), TxnError> {
        self.pipeline().flush_pending()
    }
}

impl Pipeline<'_> {
    /// Allocates the next transaction id:
    /// `node << 40 | worker << 32 | per-worker sequence`.
    fn next_txn_id(&mut self) -> u64 {
        self.lane.txn_seq += 1;
        (self.node as u64) << 40 | (self.worker_id as u64) << 32 | self.lane.txn_seq
    }

    /// Records one abort event in this worker's trace ring.
    fn trace_abort(
        &self,
        txn_id: u64,
        phase: Phase,
        cause: AbortCause,
        record: Option<&RecordAddr>,
    ) {
        self.sys.trace.record(
            &self.lane.ring,
            TraceEvent {
                txn_id,
                node: self.node,
                worker: self.worker_id,
                phase,
                cause,
                record: record.map(|r| r.addr),
                vtime_ns: vtime::read(),
            },
        );
    }

    /// The cluster's fault plan (chaos-harness hooks).
    fn faults(&self) -> &FaultPlan {
        self.sys.cluster.faults()
    }

    /// Whether this worker's own machine is marked crashed: the worker
    /// must stop dead — no cleanup, no log writes — leaving its locks
    /// and log records exactly as a real crash would.
    pub(crate) fn self_crashed(&self) -> bool {
        self.faults().is_crashed(self.node)
    }

    /// Whether a crash armed in the fault plan fires at protocol step
    /// `p`, dropping this worker's whole machine off the fabric.
    fn crashes_at(&self, p: CrashPoint) -> bool {
        self.faults().crash_hook(self.node, p.name())
    }

    /// True when this record can be locked with a CPU CAS instead of a
    /// loopback RDMA CAS (§6.3: requires `IBV_ATOMIC_GLOB`).
    pub(crate) fn can_local_cas(&self, rec: &RecordAddr) -> bool {
        rec.addr.node == self.node && self.sys.cluster.atomicity() == AtomicityLevel::Glob
    }

    /// Whether `strategy` reaches `rec` with CPU instructions (CAS to
    /// lock, plain store to release) rather than through the NIC.
    fn cpu_path(&self, strategy: Strategy, rec: &RecordAddr) -> bool {
        strategy == Strategy::Ordered2pl && self.can_local_cas(rec)
    }

    pub(crate) fn backoff(&mut self, attempt: u32) {
        // Xorshift jitter: livelock-avoidance for symmetric lock retries.
        self.lane.rng ^= self.lane.rng << 13;
        self.lane.rng ^= self.lane.rng >> 7;
        self.lane.rng ^= self.lane.rng << 17;
        let spins = (self.lane.rng % 64 + 1) * attempt.min(16) as u64;
        vtime::charge(spins * 4);
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        if attempt <= 3 {
            // On an oversubscribed host the conflicting peer may simply
            // be descheduled; donate the quantum so simulated lock holds
            // stay as short in wall time as on real hardware.
            std::thread::yield_now();
        } else {
            // Longer waits (a lease that must expire, a held lock): one
            // fixed wall slice per attempt, charged exactly, so the
            // virtual cost of waiting tracks the wall duration of the
            // wait instead of the scheduler-dependent number of retry
            // iterations.
            const SLICE_US: u64 = 100;
            clock::wait(Duration::from_micros(SLICE_US));
        }
    }

    /// [`Worker::execute`].
    fn execute<T>(
        &mut self,
        spec: &TxnSpec<'_>,
        mut body: impl FnMut(&mut TxnCtx<'_>) -> Result<T, Abort>,
    ) -> Result<T, TxnError> {
        let mut keys = spec.keyed_reads.iter().chain(&spec.keyed_writes);
        debug_assert!(keys.all(|k| k.table.desc().node == self.node));
        debug_assert!(spec.local_writes.iter().all(|r| r.addr.node == self.node));
        debug_assert!(
            {
                let by_addr = spec.local_writes.iter().chain(&spec.remote_writes);
                let by_key = spec.keyed_writes.iter();
                distinct(by_addr.map(|r| (r.addr.node, r.addr.offset)).collect())
                    && distinct(by_key.map(|k| (std::ptr::from_ref(k.table), k.key)).collect())
            },
            "write set contains a duplicate record (self-deadlock)"
        );
        // A transaction boundary is a completion wait: ops from the
        // previous transaction cannot share a doorbell with this one.
        self.lane.qp.doorbell_flush();
        // The log slot still carries the previous transaction's
        // write-ahead record while write-backs to a dead peer are
        // parked; it must be drained before the slot can be reused.
        self.flush_pending()?;
        let sys = self.sys;
        let region = sys.cluster.node(self.node).region();
        let env = Env { sys, region, spec, txn_id: self.next_txn_id() };
        let mut slots = slot_table(spec);
        // The HTM strategy, until its restart budget is spent or a
        // region gives up; then ordered 2PL, which always finishes.
        let mut restarts = 0u32;
        loop {
            if self.self_crashed() {
                return Err(TxnError::SimulatedCrash);
            }
            if restarts > sys.cfg.start_retries {
                break;
            }
            match self.htm(env, &mut slots, &mut body) {
                Ok(v) => return Ok(v),
                Err(Stop::GiveUp) => break,
                Err(Stop::Restart) => {
                    restarts += 1;
                    self.backoff(restarts);
                }
                Err(stop) => return Err(stop.into_terminal()),
            }
        }
        self.ordered_2pl(env, &mut slots, &mut body).map_err(Stop::into_terminal)
    }

    /// One pass of the pipeline under [`Strategy::Htm`]: Start over the
    /// remote records, then HTM regions over the same locks until one
    /// commits or the retry budget is spent.
    fn htm<'e, T>(
        &mut self,
        env: Env<'e>,
        slots: &mut Vec<Slot<'e>>,
        body: &mut impl FnMut(&mut TxnCtx<'_>) -> Result<T, Abort>,
    ) -> Result<T, Stop> {
        let Env { sys, spec, .. } = env;
        let order: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_remote()).collect();
        let now = {
            let mut t = PhaseTimer::start(&sys.trace, Phase::Start);
            self.start(Strategy::Htm, env, slots, &order, &spec.remote_writes, &mut t.ops)?
        };
        if self.crashes_at(CrashPoint::AfterRemoteLocks) {
            return Err(CRASH);
        }
        let mut attempts = 0u32;
        let stop = loop {
            if attempts >= sys.cfg.htm.max_retries {
                break Stop::GiveUp;
            }
            attempts += 1;
            match self.run(Strategy::Htm, env, slots, &spec.remote_writes, now, body) {
                Ok(v) => return Ok(v),
                Err(Stop::Retry) => self.backoff(attempts),
                Err(stop) => break stop,
            }
        };
        if !matches!(stop, CRASH) {
            // Nothing was published: release the locks, charging the
            // unlock WRITEs to the Commit phase.
            let mut t = PhaseTimer::start(&sys.trace, Phase::Commit);
            t.ops += self.release_held(Strategy::Htm, slots, order.into_iter());
        }
        Err(stop)
    }

    /// The pipeline under [`Strategy::Ordered2pl`] (the fallback handler,
    /// §6.2), rerun until it commits; reported as one Fallback phase
    /// line.
    fn ordered_2pl<'e, T>(
        &mut self,
        env: Env<'e>,
        slots: &mut Vec<Slot<'e>>,
        body: &mut impl FnMut(&mut TxnCtx<'_>) -> Result<T, Abort>,
    ) -> Result<T, Stop> {
        let sys = env.sys;
        let strategy = Strategy::Ordered2pl;
        sys.htm_stats().fallbacks.inc();
        let mut t = PhaseTimer::start(&sys.trace, Phase::Fallback);
        loop {
            if self.self_crashed() {
                return Err(CRASH);
            }
            // Local records are locked before the body here, so a pass
            // first finds the keyed ones; a key with no row is not
            // locked.
            self.find_keyed(env, slots);
            let addr = |i: usize| slots[i].record().map(|r| (r.addr.node, r.addr.offset));
            let mut order: Vec<usize> = (0..slots.len()).filter(|&i| addr(i).is_some()).collect();
            order.sort_by_key(|&i| addr(i));
            // Lock-ahead and WAL name the FULL write set (local and
            // remote, in acquisition order): unlike the HTM strategy,
            // local records are CPU/loopback-locked here too, and
            // recovery must be able to release them if this machine
            // dies before the WAL.
            let writes = order.iter().filter(|&&i| slots[i].write);
            let write_set: Vec<RecordAddr> = writes.filter_map(|&i| slots[i].record()).collect();
            let now = self.start(strategy, env, slots, &order, &write_set, &mut t.ops)?;
            match self.run(strategy, env, slots, &write_set, now, body) {
                Ok(v) => {
                    t.ops += write_set.len() as u64;
                    return Ok(v);
                }
                Err(CRASH) => return Err(CRASH),
                Err(stop) => {
                    // Nothing was published: release every lock.
                    t.ops += self.release_held(strategy, slots, order.into_iter());
                    match stop {
                        Stop::Restart => self.backoff(8),
                        terminal => return Err(terminal),
                    }
                }
            }
        }
    }

    /// Ordered 2PL's lookup of every keyed slot for one pass: all walks
    /// share one stand-alone region ([`Executor::run_steps`]: halved if
    /// it overflows).
    fn find_keyed(&self, env: Env<'_>, slots: &mut [Slot<'_>]) {
        let found: Result<Vec<Option<RecordAddr>>, Abort> =
            env.sys.exec.run_steps(env.region, |steps| {
                slots.iter().filter_map(Slot::key).map(|k| steps.step(|txn| k.find(txn))).collect()
            });
        let found = found.expect("a bucket chain fits a region of its own");
        for (slot, rec) in slots.iter_mut().filter(|s| s.key().is_some()).zip(found) {
            slot.rec = Some(rec);
        }
        // Only here are a keyed record and an address-declared one, or a
        // keyed read and a keyed write, known to be the same record; the
        // HTM strategy tolerates that, this one would wait on itself.
        debug_assert!(
            {
                let local = |write: bool| -> Vec<usize> {
                    let of = slots.iter().filter(|s| s.write == write && !s.is_remote());
                    of.filter_map(Slot::record).map(|r| r.addr.offset).collect()
                };
                let (w, r) = (local(true), local(false));
                distinct(w.clone()) && r.iter().all(|off| !w.contains(off))
            },
            "a local record is locked twice in one pass (self-deadlock)"
        );
    }

    /// One acquisition wave (Figure 5) — a write lock or a lease ending
    /// at `end_us` on each of `wants`, as `(record, write, local)` with
    /// `local` selecting the CPU CAS path — posted together and awaited
    /// once: the primitive under [`Pipeline::start`] and under every
    /// read-only lease. One outcome per record, in order.
    pub(crate) fn acquire_wave(
        &self,
        wants: impl Iterator<Item = (RecordAddr, bool, bool)>,
        end_us: u64,
        now_us: u64,
    ) -> Vec<Result<FetchedRecord, LockConflict>> {
        let claim = |(rec, write, local)| {
            let desired = if write {
                LockState::write_locked(self.node as u8)
            } else {
                LockState::leased(end_us)
            };
            Claim { rec, desired, local }
        };
        record::acquire_wave(&self.lane.qp, wants.map(claim), now_us, DELTA_US)
    }

    /// What a lost claim means to a caller that *waits* for the record
    /// (ordered 2PL, a read-only lease): a write lock whose owner the
    /// fault plan calls crashed is released by recovery, not by waiting,
    /// so it is the owner's death, not a conflict to sit out.
    pub(crate) fn waited_on(&self, conflict: LockConflict) -> LockConflict {
        match conflict {
            LockConflict::WriteLocked { owner } if self.faults().is_crashed(owner as NodeId) => {
                LockConflict::PeerDead { node: owner as NodeId }
            }
            other => other,
        }
    }

    /// Counts a terminal dead-peer abort and returns the error to raise.
    pub(crate) fn terminal(&self, e: TxnError) -> TxnError {
        if matches!(e, TxnError::PeerDead(_)) {
            self.sys.stats.peer_dead_aborts.inc();
        }
        e
    }

    /// **Start**: persist the lock-ahead log, then lock (writes) or
    /// lease (reads) and fetch every slot of `order`, in *waves*: a
    /// wave's CASes and fetches are posted together and awaited once.
    /// Record ops are counted into `ops`. Returns the softtime Start
    /// began at.
    ///
    /// The strategies differ in the wave and in what a conflict means.
    /// HTM takes its whole lock order as one wave and fails fast:
    /// release what the wave won and let the caller back off and
    /// restart. Ordered 2PL must hold every earlier record of its
    /// `(node, offset)` order before it waits on the next, so its waves
    /// are one record long, and it waits on a conflict — but only as
    /// long as the holder is believed alive: a lock held by a crashed
    /// machine is released by recovery, not by waiting, so a dead owner
    /// (or an expired grace deadline) turns the wait into a typed abort.
    fn start(
        &mut self,
        strategy: Strategy,
        env: Env<'_>,
        slots: &mut [Slot<'_>],
        order: &[usize],
        write_set: &[RecordAddr],
        ops: &mut u64,
    ) -> Result<u64, Stop> {
        let Env { sys, region, txn_id, .. } = env;
        let waits = strategy == Strategy::Ordered2pl;
        let (phase, after_lock_ahead) = match strategy {
            Strategy::Htm => (Phase::Start, CrashPoint::AfterLockAhead),
            Strategy::Ordered2pl => (Phase::Fallback, CrashPoint::FallbackAfterLockAhead),
        };
        let now = softtime_nt(region);
        let end = now + sys.cfg.lease_us;
        // The lock-ahead log names every record about to be locked, so
        // recovery can release them if this machine dies holding them.
        if sys.cfg.logging && !write_set.is_empty() {
            let n = self.lane.log.log_lock_ahead(region, write_set);
            sys.stats.add_log_write(n);
        }
        if self.crashes_at(after_lock_ahead) {
            return Err(CRASH);
        }
        slots.iter_mut().for_each(|s| s.fetched = None);
        let wave_len = if waits { 1 } else { order.len().max(1) };
        for (nth, wave) in order.chunks(wave_len).enumerate() {
            let mut waiting_since: Option<u64> = None;
            loop {
                // A waiting strategy re-reads softtime: leases expire
                // while it waits.
                let now = if waits { softtime_nt(region) } else { now };
                *ops += wave.len() as u64;
                let wants = wave.iter().map(|&i| {
                    let rec = slots[i].record().expect("every slot of a lock order has a record");
                    (rec, slots[i].write, self.cpu_path(strategy, &rec))
                });
                let got = self.acquire_wave(wants, end, now);
                let Some(lost) = got.iter().position(Result::is_err) else {
                    for (&i, fetched) in wave.iter().zip(got) {
                        slots[i].fetched = Some(fetched.expect("no claim lost"));
                    }
                    break;
                };
                let lost_rec = slots[wave[lost]].record().expect("a claimed record");
                let mut conflict = *got[lost].as_ref().expect_err("the lost claim");
                if waits {
                    let since = *waiting_since.get_or_insert_with(clock::now_us);
                    conflict = self.waited_on(conflict);
                    let waited = Duration::from_micros(clock::now_us() - since);
                    if TxnError::of_conflict(conflict).is_none() && waited > DEAD_PEER_GRACE {
                        conflict = LockConflict::PeerDead { node: lost_rec.addr.node };
                    }
                }
                let terminal = TxnError::of_conflict(conflict);
                if waits && terminal.is_none() {
                    // A one-record wave: nothing was won, wait and retry.
                    self.trace_abort(txn_id, phase, AbortCause::FallbackWait, Some(&lost_rec));
                    self.backoff(4);
                    continue;
                }
                let cause = AbortCause::from_conflict(conflict);
                self.trace_abort(txn_id, phase, cause, Some(&lost_rec));
                if self.self_crashed() {
                    // Our own machine died: stop dead, leave everything.
                    return Err(CRASH);
                }
                // Release the earlier waves and what this one won.
                let won = wave.iter().zip(&got).filter(|(_, r)| r.is_ok()).map(|(&i, _)| i);
                let held = order[..nth * wave_len].iter().copied().chain(won);
                *ops += self.release_held(strategy, slots, held);
                if !waits {
                    sys.stats.start_conflicts.inc();
                }
                return Err(terminal.map_or(Stop::Restart, |e| Stop::Terminal(self.terminal(e))));
            }
        }
        Ok(now)
    }

    /// Releases the write locks among the `held` slots without writing
    /// data (abort cleanup; leases need no release, §4.2) through the
    /// one delivery loop — one posted wave of unlock WRITEs; returns how
    /// many record ops that took. A release a dead peer cannot take is
    /// parked for [`Worker::flush_pending`], so the lock is still
    /// released exactly once when the peer comes back.
    /// (If *this* machine is the dead one, nothing is parked: sweeping
    /// its locks is the recovery protocol's job.)
    fn release_held(
        &mut self,
        strategy: Strategy,
        slots: &[Slot<'_>],
        held: impl Iterator<Item = usize>,
    ) -> u64 {
        let unlock = |rec: RecordAddr| {
            let local = self.cpu_path(strategy, &rec);
            WriteItem { rec, version: 0, value: None, local }
        };
        let writes = held.map(|i| &slots[i]).filter(|s| s.write);
        let unlocks: Vec<WriteItem> = writes.filter_map(Slot::record).map(unlock).collect();
        let released = unlocks.len() as u64;
        let undelivered = self.write_back(unlocks, None).expect("no crash point to honour");
        if !self.self_crashed() {
            self.lane.pending.extend(undelivered);
        }
        released
    }

    /// The bookkeeping of one aborted HTM region: trace it, count it,
    /// roll back the body's allocations. Returns the usual consequence.
    fn htm_abort(
        &self,
        env: Env<'_>,
        phase: Phase,
        abort: Abort,
        record: Option<&RecordAddr>,
        allocs: &mut Allocs,
    ) -> Stop {
        self.trace_abort(env.txn_id, phase, AbortCause::from_htm(abort), record);
        env.sys.htm_stats().record_abort(abort);
        undo_allocs(allocs);
        Stop::Retry
    }

    /// **LocalTX → Commit → WriteBack** over the records Start holds,
    /// which it began at softtime `now_us`.
    ///
    /// The strategy decides how the body is isolated and what the
    /// commit point is. HTM: body, lease confirmation and write-ahead
    /// log all run inside one HTM region, so they become visible — and
    /// durable — atomically at `XEND`. Ordered 2PL: every record is
    /// locked, so the body runs against buffered state and the commit
    /// point is the non-transactional write-ahead log. Either way
    /// nothing is applied and no lock released before the log that can
    /// redo it is persistent (log-persist-before-unlock, the HTPM
    /// ordering): staging sits in this one place, above the only call
    /// of [`Pipeline::publish`].
    fn run<'e, T>(
        &mut self,
        strategy: Strategy,
        env: Env<'e>,
        slots: &mut Vec<Slot<'e>>,
        write_set: &[RecordAddr],
        now_us: u64,
        body: &mut impl FnMut(&mut TxnCtx<'_>) -> Result<T, Abort>,
    ) -> Result<T, Stop> {
        let Env { sys, region, spec, txn_id } = env;
        let htm = strategy == Strategy::Htm;

        // ---------------- LocalTX ----------------
        // An attempt starts with nothing buffered; a region finds its
        // keyed rows again (ordered 2PL found them for this pass).
        for slot in slots.iter_mut() {
            slot.value = None;
            if htm && slot.key().is_some() {
                slot.rec = None;
            }
        }
        let isolation = if htm {
            Some(region.begin(&sys.cfg.htm))
        } else {
            // A buffered body's store operations run as standalone
            // micro-transactions nothing rolls back (§6.2), so leases
            // are confirmed before it runs, not after.
            if let Some(rec) = stale_lease(slots, softtime_nt(region)) {
                let cause = AbortCause::LeaseConfirmFail;
                self.trace_abort(txn_id, Phase::Fallback, cause, Some(&rec));
                return Err(Stop::Restart);
            }
            None
        };
        // The body's context borrows the slot table for the attempt.
        let (table, allocs, local_log) = (std::mem::take(slots), Vec::new(), Vec::new());
        let mut ctx = TxnCtx { env, txn: isolation, slots: table, now_us, allocs, local_log };
        let out = {
            let _t = htm.then(|| PhaseTimer::start(&sys.trace, Phase::LocalTx));
            body(&mut ctx)
        };
        let TxnCtx { mut txn, slots: table, mut allocs, local_log, .. } = ctx;
        *slots = table;
        let value = match out {
            Ok(v) => v,
            Err(Abort::Explicit(USER_ABORT)) => {
                let phase = if htm { Phase::LocalTx } else { Phase::Fallback };
                self.trace_abort(txn_id, phase, AbortCause::UserAbort, None);
                undo_allocs(&mut allocs);
                return Err(Stop::Terminal(TxnError::UserAborted));
            }
            Err(a) if htm => {
                self.htm_abort(env, Phase::LocalTx, a, None, &mut allocs);
                return Err(if a == Abort::Capacity { Stop::GiveUp } else { Stop::Retry });
            }
            // Every lock is held, so a body abort can only be resource
            // exhaustion — surface loudly.
            Err(a) => panic!("transaction body failed under fallback locks: {a}"),
        };

        // ---------------- Commit ----------------
        // The drop guard charges the phase on every early return.
        let mut commit_t = htm.then(|| PhaseTimer::start(&sys.trace, Phase::Commit));
        if let Some(txn) = &mut txn {
            // Lease confirmation (only when leases exist: purely local
            // transactions never touch softtime inside HTM, §6.1).
            if !spec.remote_reads.is_empty() {
                let now = softtime_txn(txn)
                    .map_err(|a| self.htm_abort(env, Phase::Commit, a, None, &mut allocs))?;
                if let Some(rec) = stale_lease(slots, now) {
                    let stale = Abort::Explicit(ABORT_LEASE_EXPIRED);
                    self.htm_abort(env, Phase::Commit, stale, Some(&rec), &mut allocs);
                    return Err(Stop::Restart);
                }
            }
        } else if self.crashes_at(CrashPoint::FallbackBeforeWal) {
            // Every lock held, body run, nothing durable: recovery rolls
            // back from the lock-ahead record.
            return Err(CRASH);
        }
        // One item per write Start locked, in table order: a region's
        // remote writes, or every write ordered 2PL found (it delivers
        // its local ones, all on this machine, the way it locked them).
        let cpu_stores = sys.cluster.atomicity() == AtomicityLevel::Glob;
        let locked = slots.iter_mut().filter(|s| s.write && s.fetched.is_some());
        let item = |s: &mut Slot<'_>| WriteItem {
            rec: s.record().expect("a locked record"),
            version: s.fetched().header.version.wrapping_add(1),
            value: s.value.take(),
            local: cpu_stores && !s.is_remote(),
        };
        let writes: Vec<WriteItem> = locked.map(item).collect();
        // The write-ahead log carries every update — for redo — and the
        // lock list, so recovery can release declared-but-unwritten
        // locks from the log alone. An HTM region's local updates are
        // logged too (§4.6), but with version 0: XEND itself makes them
        // durable under flush-on-failure, so recovery's at-most-once
        // check must always see them as applied. Ordered 2PL has no
        // XEND: its local updates carry real versions, and redo is
        // their only crash story.
        let updates = if sys.cfg.logging { wal_updates(&writes, local_log) } else { Vec::new() };
        let wal_staged =
            sys.cfg.logging && if htm { !updates.is_empty() } else { !write_set.is_empty() };
        if wal_staged {
            let n = self
                .lane
                .log
                .log_write_ahead(txn.as_mut(), region, write_set, &updates)
                .map_err(|a| self.htm_abort(env, Phase::Commit, a, None, &mut allocs))?;
            sys.stats.add_log_write(n);
        }
        if let Some(txn) = txn.take() {
            if self.crashes_at(CrashPoint::BeforeHtmCommit) {
                undo_allocs(&mut allocs);
                return Err(CRASH);
            }
            txn.commit().map_err(|a| self.htm_abort(env, Phase::Commit, a, None, &mut allocs))?;
            sys.htm_stats().commits.inc();
        }
        // Committed: the log is persistent, nothing is applied yet and
        // every lock is still held — recovery must redo every update.
        let committed =
            if htm { CrashPoint::AfterHtmCommit } else { CrashPoint::FallbackAfterWalBeforeApply };
        if self.crashes_at(committed) {
            return Err(CRASH);
        }

        // ---------------- WriteBack ----------------
        if let Some(t) = &mut commit_t {
            t.ops += writes.len() as u64;
        }
        // A log record is live if the WAL was staged or Start wrote a
        // lock-ahead: transactions that never touched the log — notably
        // read-only shapes — pay no completion marker either.
        let log_live = wal_staged || (sys.cfg.logging && !write_set.is_empty());
        self.publish(strategy, writes, log_live).map_err(Stop::Terminal)?;
        Ok(value)
    }

    /// The delivery loop of WriteBack, the only one: post the write-back
    /// (or, for a declared-but-unwritten record, just the unlock) of
    /// each item in order, honouring the crash point `crash` after each
    /// record's posts, then wait once for every completion. Each
    /// write-back fuses apply and unlock, so recovery sees a shrinking
    /// lock set: it skips applied updates by version and releases the
    /// locks the WAL says are still held.
    ///
    /// Two orderings, two mechanisms. Within a record, value → version →
    /// state rides on the queue pair's per-destination FIFO. Across the
    /// phase boundary, the caller's write-ahead log is persistent before
    /// the first post here and is reclaimed only after this returns —
    /// after the last completion (log-persist-before-unlock).
    ///
    /// Returns the items a dead target could not take, to be
    /// re-delivered over the fabric. The caller is past its commit
    /// point, so they must be parked, never dropped.
    fn write_back(
        &self,
        writes: Vec<WriteItem>,
        crash: Option<CrashPoint>,
    ) -> Result<Vec<WriteItem>, TxnError> {
        let mut undelivered = Vec::new();
        for w in writes {
            let posted = match &w.value {
                Some(v) => record::post_write_back(&self.lane.qp, &w.rec, w.version, v, w.local),
                None => record::post_unlock(&self.lane.qp, &w.rec, w.local),
            };
            if posted.is_err() {
                undelivered.push(WriteItem { local: false, ..w });
            } else if crash.is_some_and(|p| self.crashes_at(p)) {
                self.lane.qp.wait();
                return Err(TxnError::SimulatedCrash);
            }
        }
        self.lane.qp.wait();
        Ok(undelivered)
    }

    /// **WriteBack**: the transaction is past its commit point — a dead
    /// peer can no longer abort it. Deliver every write-back and unlock
    /// (one posted wave, awaited once: the WRITEs to one machine share a
    /// doorbell, those to different machines overlap), park what cannot
    /// be delivered, reclaim the log slot, count the commit.
    fn publish(
        &mut self,
        strategy: Strategy,
        writes: Vec<WriteItem>,
        log_live: bool,
    ) -> Result<(), TxnError> {
        let (mid, after) = match strategy {
            Strategy::Htm => (CrashPoint::MidWriteBack, Some(CrashPoint::AfterWriteBacks)),
            Strategy::Ordered2pl => (CrashPoint::FallbackMidUnlock, None),
        };
        let undelivered = self.write_back(writes, Some(mid))?;
        if !undelivered.is_empty() {
            if self.self_crashed() {
                // Our own machine died mid-write-back: stop dead. Its
                // write-ahead log is recovery's to replay, so nothing
                // stays parked here.
                return Err(TxnError::SimulatedCrash);
            }
            self.lane.pending.extend(undelivered);
        }
        // Crash before the write-ahead log is reclaimed: recovery must
        // replay the log and skip every already-applied update.
        if after.is_some_and(|p| self.crashes_at(p)) {
            return Err(TxnError::SimulatedCrash);
        }
        self.reclaim_log(log_live);
        self.sys.stats.add_committed(strategy == Strategy::Ordered2pl);
        Ok(())
    }

    /// Reclaims the log slot iff a log record is live and nothing is
    /// parked: parked write-backs still need the write-ahead log for
    /// redo should this machine die before delivering them.
    fn reclaim_log(&self, log_live: bool) {
        if log_live && self.lane.pending.is_empty() {
            self.lane.log.log_done(self.sys.cluster.node(self.node).region());
            self.sys.stats.log_done_waits.inc();
        }
    }

    /// [`Worker::flush_pending`].
    fn flush_pending(&mut self) -> Result<(), TxnError> {
        if self.lane.pending.is_empty() {
            return Ok(());
        }
        let parked = std::mem::take(&mut self.lane.pending);
        self.lane.pending = self.write_back(parked, None)?;
        match self.lane.pending.first() {
            Some(op) => Err(TxnError::PeerDead(op.rec.addr.node)),
            None => {
                self.reclaim_log(self.sys.cfg.logging);
                Ok(())
            }
        }
    }
}

/// Table allocations a body made inside an HTM region (rolled back if
/// the region aborts).
type Allocs = Vec<(Arc<ClusterHash>, PreparedInsert)>;

fn undo_allocs(allocs: &mut Allocs) {
    for (table, p) in allocs.drain(..) {
        table.undo_insert(p);
    }
}

/// The handle a transaction body uses to access records and ordered
/// stores, independent of the strategy that isolates it.
pub struct TxnCtx<'r> {
    env: Env<'r>,
    /// The open HTM region the body runs in; `None` under ordered 2PL,
    /// where every lock is held and writes are buffered instead.
    txn: Option<HtmTxn<'r>>,
    /// The transaction's slot table, lent to this attempt.
    slots: Vec<Slot<'r>>,
    /// Softtime sampled when Start began.
    now_us: u64,
    allocs: Allocs,
    /// HTM region with durability on: local updates for the write-ahead
    /// log (§4.6 logs local *and* remote updates).
    local_log: Vec<LoggedUpdate>,
}

impl<'r> TxnCtx<'r> {
    fn op_now(&mut self) -> Result<u64, Abort> {
        match (self.env.sys.cfg.softtime, &mut self.txn) {
            (SofttimeStrategy::PerOp, Some(txn)) => softtime_txn(txn),
            _ => Ok(self.now_us),
        }
    }

    /// The slot of entry `i` of the declared `kind` list.
    fn at(&self, kind: Kind, i: usize) -> usize {
        let s = self.env.spec;
        let lens = [
            s.local_writes.len(),
            s.keyed_writes.len(),
            s.remote_writes.len(),
            s.keyed_reads.len(),
        ];
        lens[..kind as usize].iter().sum::<usize>() + i
    }

    /// Value of remote-read record `i`, prefetched in the Start phase.
    pub fn remote_read(&self, i: usize) -> &[u8] {
        &self.slots[self.at(Kind::RemoteRead, i)].fetched().value
    }

    /// Current value of remote-write record `i`: the buffered update if
    /// one exists, else the value fetched under the exclusive lock.
    pub fn remote_write_cur(&self, i: usize) -> &[u8] {
        let slot = &self.slots[self.at(Kind::RemoteWrite, i)];
        slot.value.as_deref().unwrap_or(&slot.fetched().value)
    }

    /// Buffers the new value of remote-write record `i` (pushed with
    /// one-sided WRITEs once the transaction is past its commit point).
    pub fn remote_write(&mut self, i: usize, value: Vec<u8>) {
        debug_assert!(value.len() <= self.env.spec.remote_writes[i].value_cap);
        let at = self.at(Kind::RemoteWrite, i);
        self.slots[at].value = Some(value);
    }

    /// Reads the current value of local-write record `i` (including this
    /// transaction's own buffered/staged update).
    pub fn local_write_cur(&mut self, i: usize) -> Result<Vec<u8>, Abort> {
        Ok(self.local_cur(self.at(Kind::LocalWrite, i))?.expect("declared by address"))
    }

    /// Writes local-write record `i` (Figure 6 LOCAL_WRITE).
    pub fn local_write(&mut self, i: usize, value: &[u8]) -> Result<(), Abort> {
        self.local_put(self.at(Kind::LocalWrite, i), value)
    }

    /// Reads keyed-read record `i` (Figure 6 LOCAL_READ); `None`: the key
    /// has no row.
    pub fn keyed_read(&mut self, i: usize) -> Result<Option<Vec<u8>>, Abort> {
        // The naive strategy touches softtime on reads too (Fig. 11).
        self.op_now()?;
        self.local_cur(self.at(Kind::KeyedRead, i))
    }

    /// Reads the current value of keyed-write record `i` (including this
    /// transaction's own update); `None`: the key has no row.
    pub fn keyed_write_cur(&mut self, i: usize) -> Result<Option<Vec<u8>>, Abort> {
        self.local_cur(self.at(Kind::KeyedWrite, i))
    }

    /// Writes keyed-write record `i`.
    ///
    /// # Panics
    ///
    /// If the key has no row: a body learns that from
    /// [`TxnCtx::keyed_write_cur`] and inserts instead.
    pub fn keyed_write(&mut self, i: usize, value: &[u8]) -> Result<(), Abort> {
        self.local_put(self.at(Kind::KeyedWrite, i), value)
    }

    /// The record of local slot `at`. Under the HTM strategy a keyed
    /// slot's first access walks the table on the transaction's own
    /// region: the bucket lines it looked at join the read set, so an
    /// INSERT or DELETE of the key that commits before this region does
    /// aborts it (strong atomicity).
    fn local_record(&mut self, at: usize) -> Result<Option<RecordAddr>, Abort> {
        let slot = &mut self.slots[at];
        if let (None, Decl::Key(key), Some(txn)) = (slot.rec, slot.decl, &mut self.txn) {
            slot.rec = Some(key.find(txn)?);
        }
        Ok(slot.rec.expect("ordered 2PL finds every keyed slot before the body"))
    }

    /// `LOCAL_READ` of local slot `at`, this transaction's own update
    /// included: in the open region, or what ordered 2PL fetched or
    /// buffered. `None`: the key has no row.
    fn local_cur(&mut self, at: usize) -> Result<Option<Vec<u8>>, Abort> {
        let Some(rec) = self.local_record(at)? else { return Ok(None) };
        let slot = &self.slots[at];
        Ok(Some(match &mut self.txn {
            Some(txn) => record::local_read(txn, rec.addr.offset)?.1,
            None => slot.value.as_ref().unwrap_or(&slot.fetched().value).clone(),
        }))
    }

    /// `LOCAL_WRITE` of local slot `at`, whose row must exist.
    fn local_put(&mut self, at: usize, value: &[u8]) -> Result<(), Abort> {
        let rec = self.local_record(at)?.expect("a keyed write needs its row");
        let now = self.op_now()?;
        let Some(txn) = &mut self.txn else {
            // Buffered: logged at the commit point with its real version
            // (log-before-unlock) — no per-op entry here.
            self.slots[at].value = Some(value.to_vec());
            return Ok(());
        };
        // The XEND makes this store durable, so it is logged with
        // version 0 — recovery's at-most-once check always sees it as
        // already applied (§4.6).
        if self.env.sys.cfg.logging {
            self.local_log.push(LoggedUpdate { rec, version: 0, value: value.to_vec() });
        }
        record::local_write(txn, rec.addr.offset, value, now, DELTA_US)
    }

    /// Inserts into a local hash table atomically with this transaction.
    ///
    /// Under ordered 2PL the insert runs as a standalone HTM
    /// micro-transaction; like the paper's fallback handler it must not
    /// be followed by a user abort (chopping restriction, §3).
    pub fn hash_insert(
        &mut self,
        table: &Arc<ClusterHash>,
        key: u64,
        value: &[u8],
    ) -> Result<(), Abort> {
        let inserted = match &mut self.txn {
            Some(txn) => {
                table.insert_txn(txn, key, value)?.map(|p| self.allocs.push((Arc::clone(table), p)))
            }
            None => table.insert(&self.env.sys.exec, self.env.region, key, value),
        };
        inserted.map_err(|e| match e {
            InsertError::Duplicate => Abort::Explicit(ABORT_LOCKED),
            InsertError::Full => Abort::Explicit(0xF1),
        })
    }

    /// Runs one ordered-store operation where the body is isolated:
    /// inside the transaction's own HTM region, or — under ordered 2PL —
    /// as its own committed-and-validated HTM micro-transaction,
    /// retried on conflicts.
    fn store_op<T>(
        &mut self,
        mut f: impl FnMut(&mut HtmTxn<'_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        match &mut self.txn {
            Some(txn) => f(txn),
            None => self.env.sys.exec.run(self.env.region, f),
        }
    }

    /// B+ tree insert on a local ordered store.
    pub fn tree_insert(&mut self, tree: &BTree, key: u64, val: u64) -> Result<bool, Abort> {
        self.store_op(|txn| tree.insert(txn, key, val))
    }

    /// B+ tree remove on a local ordered store.
    pub fn tree_remove(&mut self, tree: &BTree, key: u64) -> Result<bool, Abort> {
        self.store_op(|txn| tree.remove(txn, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_layout::Deployment;
    use crate::config::DrTmConfig;
    use crate::record::ABORT_LEASED;
    use crate::state::LockState;
    use crate::time::SOFTTIME_INTERVAL;
    use drtm_htm::HtmConfig;
    use drtm_rdma::{ClusterConfig, LatencyProfile};
    use std::time::Instant;

    /// Two machines, one hash table each (identical geometry), populated
    /// with `keys` accounts holding 100 units each.
    struct Harness {
        sys: Arc<DrTm>,
        tables: Vec<Arc<ClusterHash>>,
        trees: Vec<Arc<BTree>>,
    }

    const VAL_CAP: usize = 16;

    #[test]
    fn a_timeout_is_a_dead_peer_and_retirement_is_not() {
        use drtm_rdma::FabricError::{NodeRetired, PeerDead, Timeout};
        let cases = [
            (PeerDead { node: 3 }, LockConflict::PeerDead { node: 3 }, TxnError::PeerDead(3)),
            (Timeout { node: 4 }, LockConflict::PeerDead { node: 4 }, TxnError::PeerDead(4)),
            (NodeRetired { node: 5 }, LockConflict::Retired { node: 5 }, TxnError::Retired(5)),
        ];
        for (e, conflict, err) in cases {
            assert_eq!(record::conflict_of(e), conflict, "{e:?} inside a transaction");
            assert_eq!(TxnError::from(e), err, "{e:?} outside one");
        }
    }

    fn u64v(x: u64) -> Vec<u8> {
        x.to_le_bytes().to_vec()
    }

    fn vu64(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[..8].try_into().unwrap())
    }

    fn harness(nodes: usize, workers: usize, keys: u64, cfg: DrTmConfig) -> Harness {
        let cluster = ClusterConfig {
            nodes,
            region_size: 16 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        };
        let mut dep = Deployment::new(cluster, cfg, workers);
        let tables = dep.hash(256, 4096, VAL_CAP);
        let trees = dep.tree(512);
        for n in dep.nodes() {
            for k in 0..keys {
                tables[n as usize].insert(dep.exec(), dep.region(n), k, &u64v(100)).unwrap();
            }
        }
        Harness { sys: dep.start(SOFTTIME_INTERVAL), tables, trees }
    }

    impl Harness {
        /// Walks the machine's own region, not the fabric: the crash
        /// tests look at a corpse's records.
        fn rec(&self, node: NodeId, key: u64) -> RecordAddr {
            let exec = Executor::new(HtmConfig::default(), Default::default());
            let region = self.sys.cluster().node(node).region();
            let table = &self.tables[node as usize];
            match exec.run(region, |txn| table.get_local(txn, key)).unwrap() {
                Some(e) => RecordAddr::new(drtm_rdma::GlobalAddr::new(node, e.offset), VAL_CAP),
                None => panic!("key {key} missing on node {node}"),
            }
        }

        fn value(&self, node: NodeId, key: u64) -> u64 {
            let rec = self.rec(node, key);
            let region = self.sys.cluster().node(node).region();
            let mut b = vec![0u8; 8];
            region.read_nt(rec.entry().value_off(), &mut b);
            vu64(&b)
        }

        fn state_of(&self, node: NodeId, key: u64) -> LockState {
            let rec = self.rec(node, key);
            LockState(self.sys.cluster().node(node).region().read_u64_nt(rec.addr.offset))
        }
    }

    #[test]
    fn local_only_transaction_commits() {
        let h = harness(1, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            keyed_reads: vec![LocalKey { table: &h.tables[0], key: 0 }],
            local_writes: vec![h.rec(0, 1)],
            ..Default::default()
        };
        let got = w
            .execute(&spec, |ctx| {
                let a = vu64(&ctx.keyed_read(0)?.expect("populated"));
                let b = vu64(&ctx.local_write_cur(0)?);
                ctx.local_write(0, &u64v(b + a))?;
                Ok(a + b)
            })
            .unwrap();
        assert_eq!(got, 200);
        assert_eq!(h.value(0, 1), 200);
        assert_eq!(h.sys.stats().snapshot().committed, 1);
        assert_eq!(h.sys.stats().snapshot().fallback_committed, 0);
    }

    #[test]
    fn a_transaction_borrows_its_system_and_takes_no_reference() {
        let h = harness(1, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let before = Arc::strong_count(w.system());
        let spec = TxnSpec {
            keyed_writes: vec![LocalKey { table: &h.tables[0], key: 0 }],
            ..Default::default()
        };
        let inside = w
            .execute(&spec, |ctx| {
                let v = vu64(&ctx.keyed_write_cur(0)?.expect("populated"));
                ctx.keyed_write(0, &u64v(v + 1))?;
                Ok(Arc::strong_count(&h.sys))
            })
            .unwrap();
        assert_eq!(inside, before, "execute took a reference on the system");
    }

    #[test]
    fn distributed_transfer_moves_money() {
        let h = harness(2, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            local_writes: vec![h.rec(0, 0)],
            remote_writes: vec![h.rec(1, 0)],
            ..Default::default()
        };
        w.execute(&spec, |ctx| {
            let mine = vu64(&ctx.local_write_cur(0)?);
            let theirs = vu64(ctx.remote_write_cur(0));
            ctx.local_write(0, &u64v(mine - 30))?;
            ctx.remote_write(0, u64v(theirs + 30));
            Ok(())
        })
        .unwrap();
        assert_eq!(h.value(0, 0), 70);
        assert_eq!(h.value(1, 0), 130);
        assert!(h.state_of(1, 0).is_init(), "write lock released");
    }

    #[test]
    fn remote_read_lease_left_behind_is_harmless() {
        let h = harness(2, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { remote_reads: vec![h.rec(1, 2)], ..Default::default() };
        let v = w.execute(&spec, |ctx| Ok(vu64(ctx.remote_read(0)))).unwrap();
        assert_eq!(v, 100);
        // The lease word remains set (leases need no release, §4.2).
        let st = h.state_of(1, 2);
        assert!(!st.is_write_locked());
        assert!(st.lease_end_us() > 0);
    }

    #[test]
    fn user_abort_releases_locks_and_reports() {
        let h = harness(2, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![h.rec(1, 1)], ..Default::default() };
        let r: Result<(), TxnError> = w.execute(&spec, |_| Err(Abort::Explicit(USER_ABORT)));
        assert_eq!(r, Err(TxnError::UserAborted));
        assert!(h.state_of(1, 1).is_init(), "lock released after user abort");
        assert_eq!(h.value(1, 1), 100, "no update applied");
        assert_eq!(h.sys.trace().causes().get(AbortCause::UserAbort), 1);
    }

    #[test]
    fn conflicting_remote_writers_serialize() {
        let h = harness(2, 2, 2, DrTmConfig::default());
        let sys = h.sys.clone();
        let rec0 = h.rec(1, 0);
        let mut hs = Vec::new();
        for wid in 0..2 {
            let sys = sys.clone();
            hs.push(std::thread::spawn(move || {
                let mut w = sys.worker(0, wid);
                let spec = TxnSpec { remote_writes: vec![rec0], ..Default::default() };
                for _ in 0..50 {
                    w.execute(&spec, |ctx| {
                        let v = vu64(ctx.remote_write_cur(0));
                        ctx.remote_write(0, u64v(v + 1));
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for t in hs {
            t.join().unwrap();
        }
        assert_eq!(h.value(1, 0), 200, "all 100 increments must survive");
    }

    #[test]
    fn capacity_abort_takes_fallback_path() {
        let mut cfg = DrTmConfig::default();
        cfg.htm.write_capacity_lines = 2; // absurdly small L1
        let h = harness(2, 1, 8, cfg);
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            local_writes: (0..8).map(|k| h.rec(0, k)).collect(),
            remote_writes: vec![h.rec(1, 0)],
            ..Default::default()
        };
        w.execute(&spec, |ctx| {
            for i in 0..8 {
                let v = vu64(&ctx.local_write_cur(i)?);
                ctx.local_write(i, &u64v(v + 1))?;
            }
            let v = vu64(ctx.remote_write_cur(0));
            ctx.remote_write(0, u64v(v + 7));
            Ok(())
        })
        .unwrap();
        let snap = h.sys.stats().snapshot();
        assert_eq!(snap.fallback_committed, 1, "must commit via fallback");
        for k in 0..8 {
            assert_eq!(h.value(0, k), 101, "local write {k} applied");
            assert!(h.state_of(0, k).is_init(), "fallback lock {k} released");
        }
        assert_eq!(h.value(1, 0), 107);
        assert!(h.state_of(1, 0).is_init());
    }

    #[test]
    fn tree_ops_commit_atomically_with_txn() {
        let h = harness(1, 1, 2, DrTmConfig::default());
        let tree = h.trees[0].clone();
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { local_writes: vec![h.rec(0, 0)], ..Default::default() };
        w.execute(&spec, |ctx| {
            ctx.local_write(0, &u64v(1))?;
            ctx.tree_insert(&tree, 42, 4242)?;
            Ok(())
        })
        .unwrap();
        let region = h.sys.cluster().node(0).region().clone();
        let cfg = h.sys.config().htm.clone();
        let mut txn = region.begin(&cfg);
        assert_eq!(tree.get(&mut txn, 42).unwrap(), Some(4242));
    }

    #[test]
    fn hash_insert_rolls_back_alloc_on_user_abort() {
        let h = harness(1, 1, 2, DrTmConfig::default());
        let table = h.tables[0].clone();
        let before = table.len();
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec::default();
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            ctx.hash_insert(&table, 999, &u64v(5))?;
            Err(Abort::Explicit(USER_ABORT))
        });
        assert_eq!(r, Err(TxnError::UserAborted));
        assert_eq!(table.len(), before, "allocation rolled back");
        // And the key is not visible.
        let region = h.sys.cluster().node(0).region().clone();
        let mut txn = region.begin(&h.sys.config().htm);
        assert!(table.get_local(&mut txn, 999).unwrap().is_none());
    }

    #[test]
    fn read_only_sees_consistent_snapshot() {
        let h = harness(2, 2, 2, DrTmConfig::default());
        let sys = h.sys.clone();
        let a = h.rec(0, 0);
        let b = h.rec(1, 0);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // A writer keeps transferring between the two accounts.
        let writer = {
            let sys = sys.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut w = sys.worker(0, 0);
                let spec =
                    TxnSpec { local_writes: vec![a], remote_writes: vec![b], ..Default::default() };
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    w.execute(&spec, |ctx| {
                        let x = vu64(&ctx.local_write_cur(0)?);
                        let y = vu64(ctx.remote_write_cur(0));
                        ctx.local_write(0, &u64v(x.wrapping_sub(1)))?;
                        ctx.remote_write(0, u64v(y + 1));
                        Ok(())
                    })
                    .unwrap();
                }
            })
        };
        let mut r = sys.worker(1, 0);
        for _ in 0..50 {
            let (x, y) = r
                .try_read_only(|ctx| {
                    let x = vu64(&ctx.acquire_all(&[a])?[0]);
                    let y = vu64(&ctx.acquire_all(&[b])?[0]);
                    Ok((x, y))
                })
                .unwrap();
            assert_eq!(x.wrapping_add(y), 200, "read-only snapshot must conserve the total");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
        assert!(sys.stats().snapshot().ro_committed >= 50);
    }

    #[test]
    fn crash_before_commit_recovers_by_unlocking() {
        let h = harness(2, 1, 4, DrTmConfig { logging: true, ..Default::default() });
        h.sys.cluster().faults().arm_crash(0, CrashPoint::BeforeHtmCommit.name());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![h.rec(1, 0)], ..Default::default() };
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            let v = vu64(ctx.remote_write_cur(0));
            ctx.remote_write(0, u64v(v + 9));
            Ok(())
        });
        assert_eq!(r, Err(TxnError::SimulatedCrash));
        assert!(h.state_of(1, 0).is_write_locked(), "lock stranded by crash");
        let layout = h.sys.layout();
        let report = crate::recovery::recover_node(h.sys.cluster(), 0, layout, 1);
        assert_eq!(report.rolled_back_txns, 1);
        assert_eq!(report.released_locks, 1);
        assert_eq!(report.redone_updates, 0);
        assert!(h.state_of(1, 0).is_init());
        assert_eq!(h.value(1, 0), 100, "uncommitted update must not appear");
    }

    #[test]
    fn crash_after_commit_recovers_by_redo() {
        let h = harness(2, 1, 4, DrTmConfig { logging: true, ..Default::default() });
        h.sys.cluster().faults().arm_crash(0, CrashPoint::AfterHtmCommit.name());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![h.rec(1, 0)], ..Default::default() };
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            let v = vu64(ctx.remote_write_cur(0));
            ctx.remote_write(0, u64v(v + 9));
            Ok(())
        });
        assert_eq!(r, Err(TxnError::SimulatedCrash));
        assert_eq!(h.value(1, 0), 100, "write-back never ran");
        let layout = h.sys.layout();
        let report = crate::recovery::recover_node(h.sys.cluster(), 0, layout, 1);
        assert_eq!(report.redone_txns, 1);
        assert_eq!(report.redone_updates, 1);
        assert_eq!(h.value(1, 0), 109, "committed update redone");
        assert!(h.state_of(1, 0).is_init());
        // Recovery is idempotent.
        let again = crate::recovery::recover_node(h.sys.cluster(), 0, layout, 1);
        assert_eq!(again.redone_txns, 0);
        assert_eq!(h.value(1, 0), 109);
    }

    #[test]
    fn fallback_crash_after_wal_preserves_local_updates() {
        // The former "known hole": a fallback transaction with a purely
        // local update crashing between commit point and apply. The WAL
        // is staged before anything becomes visible, so recovery redoes
        // the local update from the log.
        let mut cfg = DrTmConfig { logging: true, ..Default::default() };
        cfg.htm.max_retries = 0; // straight to the fallback handler
        let h = harness(2, 1, 4, cfg);
        h.sys.cluster().faults().arm_crash(0, CrashPoint::FallbackAfterWalBeforeApply.name());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            local_writes: vec![h.rec(0, 1)],
            remote_writes: vec![h.rec(1, 0)],
            ..Default::default()
        };
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            let v = vu64(&ctx.local_write_cur(0)?);
            ctx.local_write(0, &u64v(v + 5))?;
            let v = vu64(ctx.remote_write_cur(0));
            ctx.remote_write(0, u64v(v + 9));
            Ok(())
        });
        assert_eq!(r, Err(TxnError::SimulatedCrash));
        assert_eq!(h.value(0, 1), 100, "nothing applied yet");
        assert_eq!(h.value(1, 0), 100);
        assert!(h.state_of(0, 1).is_write_locked(), "local 2PL lock still held");
        assert!(h.state_of(1, 0).is_write_locked());
        let layout = h.sys.layout();
        let report = crate::recovery::recover_node(h.sys.cluster(), 0, layout, 1);
        assert_eq!(report.redone_txns, 1);
        assert_eq!(report.redone_updates, 2);
        assert_eq!(report.released_locks, 0, "write-backs release as they apply");
        assert_eq!(h.value(0, 1), 105, "LOCAL update redone from the WAL");
        assert_eq!(h.value(1, 0), 109);
        assert!(h.state_of(0, 1).is_init());
        assert!(h.state_of(1, 0).is_init());
        // Idempotent: a second pass finds a clean slot.
        let again = crate::recovery::recover_node(h.sys.cluster(), 0, layout, 1);
        assert_eq!(again, crate::recovery::RecoveryReport::default());
    }

    #[test]
    fn fallback_crash_before_wal_rolls_back_and_releases_local_locks() {
        // Strictly before the commit point nothing is durable: recovery
        // must release every 2PL lock — including the CPU-locked local
        // record the old lock-ahead (remote-only) could never name.
        let mut cfg = DrTmConfig { logging: true, ..Default::default() };
        cfg.htm.max_retries = 0;
        let h = harness(2, 1, 4, cfg);
        h.sys.cluster().faults().arm_crash(0, CrashPoint::FallbackBeforeWal.name());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            local_writes: vec![h.rec(0, 1)],
            remote_writes: vec![h.rec(1, 0)],
            ..Default::default()
        };
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            ctx.local_write(0, &u64v(1))?;
            ctx.remote_write(0, u64v(2));
            Ok(())
        });
        assert_eq!(r, Err(TxnError::SimulatedCrash));
        let layout = h.sys.layout();
        let report = crate::recovery::recover_node(h.sys.cluster(), 0, layout, 1);
        assert_eq!(report.rolled_back_txns, 1);
        assert_eq!(report.released_locks, 2, "local + remote lock released");
        assert_eq!(h.value(0, 1), 100, "rolled back: no value moved");
        assert_eq!(h.value(1, 0), 100);
        assert!(h.state_of(0, 1).is_init());
        assert!(h.state_of(1, 0).is_init());
    }

    #[test]
    fn failed_start_wave_releases_exactly_the_write_locks_it_won() {
        // One wave over five records on two machines: two write locks
        // it wins (a, c), one it loses to machine 2's lock (b), a lease
        // machine 2 already holds (d, shared) and a fresh lease (e).
        let h = harness(3, 1, 4, DrTmConfig::default());
        let (a, b, c) = (h.rec(1, 0), h.rec(1, 1), h.rec(2, 0));
        let (d, e) = (h.rec(2, 1), h.rec(1, 2));
        let qp2 = h.sys.cluster().qp(2);
        let now = softtime_nt(h.sys.cluster().node(2).region());
        let held = record::remote_lock_write(&qp2, &b, 2, now, 100, false).unwrap();
        record::remote_read(&qp2, &d, now + 1_000_000, now, 100, false).unwrap();
        let lease_d = h.state_of(2, 1);

        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            remote_writes: vec![a, b, c],
            remote_reads: vec![d, e],
            ..Default::default()
        };
        let sys = Arc::clone(&h.sys);
        let env = Env { sys: &sys, region: sys.cluster().node(0).region(), spec: &spec, txn_id: 1 };
        let mut slots = slot_table(&spec);
        let order: Vec<usize> = (0..5).collect();
        let before = sys.stats_report();
        let mut ops = 0;
        let lost = w.pipeline().start(
            Strategy::Htm,
            env,
            &mut slots,
            &order,
            &spec.remote_writes,
            &mut ops,
        );
        assert_eq!(lost.err(), Some(Stop::Restart));
        // Nothing the wave fetched — least of all b's bytes, read behind
        // the lost CAS — stays in the table for a body to read.
        assert!(slots.iter().all(|s| s.fetched.is_none()));
        let d_report = sys.stats_report().since(&before);
        assert_eq!(d_report.txn.start_conflicts, 1);
        assert_eq!(d_report.causes.get(AbortCause::StartWriteLocked { owner: 2 }), 1);
        assert_eq!(d_report.causes.total(), 1, "one wave, one abort event");
        // Five CASes, each with its speculative fetch; two unlocks.
        let fabric = d_report.rdma;
        assert_eq!((fabric.cas, fabric.reads, fabric.writes), (5, 5, 2));
        assert_eq!(ops, 5 + 2);
        assert!(h.state_of(1, 0).is_init() && h.state_of(2, 0).is_init(), "won locks released");
        assert_eq!(h.state_of(1, 1).owner(), 2, "machine 2 still holds its lock");
        assert!(h.state_of(1, 1).is_write_locked());
        assert_eq!(h.state_of(2, 1), lease_d, "a shared lease is not ours to touch");
        assert!(h.state_of(1, 2).lease_end_us() > now, "our own lease stays: it just expires");
        assert!(!w.has_pending());

        // Machine 2 commits its update and unlocks; the rerun sees it.
        record::remote_write_back(&qp2, &b, held.header.version + 1, &u64v(777), false).unwrap();
        let seen = w.execute(&spec, |ctx| Ok(vu64(ctx.remote_write_cur(1)))).unwrap();
        assert_eq!(seen, 777);
        for (node, key) in [(1, 0), (1, 1), (2, 0)] {
            assert!(h.state_of(node, key).is_init(), "write lock on ({node}, {key}) released");
        }
    }

    #[test]
    fn unwritten_remote_write_lock_is_released_without_update() {
        // A record may be declared in the write set but not written
        // (conditional updates); the lock must still be released and the
        // value left untouched.
        let h = harness(2, 1, 2, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![h.rec(1, 1)], ..Default::default() };
        w.execute(&spec, |ctx| {
            let _ = ctx.remote_write_cur(0); // read but never write
            Ok(())
        })
        .unwrap();
        assert_eq!(h.value(1, 1), 100);
        assert!(h.state_of(1, 1).is_init());
    }

    #[test]
    fn per_op_softtime_strategy_commits() {
        let cfg =
            DrTmConfig { softtime: crate::config::SofttimeStrategy::PerOp, ..Default::default() };
        let h = harness(2, 1, 2, cfg);
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            keyed_reads: vec![LocalKey { table: &h.tables[0], key: 0 }],
            local_writes: vec![h.rec(0, 1)],
            remote_reads: vec![h.rec(1, 0)],
            ..Default::default()
        };
        let v = w
            .execute(&spec, |ctx| {
                let a = vu64(&ctx.keyed_read(0)?.expect("populated"));
                let b = vu64(ctx.remote_read(0));
                ctx.local_write(0, &u64v(a + b))?;
                Ok(a + b)
            })
            .unwrap();
        assert_eq!(v, 200);
        assert_eq!(h.value(0, 1), 200);
    }

    #[test]
    fn fallback_tree_ops_apply() {
        // Force the fallback path with a tiny write capacity and verify
        // tree operations still land (as standalone HTM micro-txns).
        let mut cfg = DrTmConfig::default();
        cfg.htm.write_capacity_lines = 2;
        let h = harness(1, 1, 8, cfg);
        let tree = h.trees[0].clone();
        let mut w = h.sys.worker(0, 0);
        let spec =
            TxnSpec { local_writes: (0..8).map(|k| h.rec(0, k)).collect(), ..Default::default() };
        w.execute(&spec, |ctx| {
            for i in 0..8 {
                let v = vu64(&ctx.local_write_cur(i)?);
                ctx.local_write(i, &u64v(v + 1))?;
            }
            ctx.tree_insert(&tree, 777, 42)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(h.sys.stats().snapshot().fallback_committed, 1);
        let region = h.sys.cluster().node(0).region().clone();
        let mut txn = region.begin(&HtmConfig::default());
        assert_eq!(tree.get(&mut txn, 777).unwrap(), Some(42));
    }

    #[test]
    fn remote_read_and_write_in_one_txn() {
        let h = harness(3, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            remote_reads: vec![h.rec(1, 0)],
            remote_writes: vec![h.rec(2, 0)],
            ..Default::default()
        };
        w.execute(&spec, |ctx| {
            let src = vu64(ctx.remote_read(0));
            let dst = vu64(ctx.remote_write_cur(0));
            ctx.remote_write(0, u64v(dst + src));
            Ok(())
        })
        .unwrap();
        assert_eq!(h.value(2, 0), 200);
        assert_eq!(h.value(1, 0), 100, "read-leased record unchanged");
    }

    #[test]
    fn strong_atomicity_protects_a_keyed_lookup() {
        // The body's own walk put the key's bucket line in the region's
        // read set, so a DELETE that commits before the region does
        // aborts it — no incarnation check involved — and the retry's
        // walk finds no row.
        let h = harness(1, 1, 4, DrTmConfig::default());
        let table = &h.tables[0];
        let region = h.sys.cluster().node(0).region();
        let outside = Executor::new(HtmConfig::default(), Default::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { keyed_reads: vec![LocalKey { table, key: 2 }], ..Default::default() };
        let before = h.sys.stats_report();
        let mut attempts = 0;
        let got = w
            .execute(&spec, |ctx| {
                attempts += 1;
                let v = ctx.keyed_read(0)?;
                if attempts == 1 {
                    assert_eq!(v.as_deref().map(vu64), Some(100));
                    assert!(table.delete(&outside, region, 2));
                }
                Ok(v)
            })
            .unwrap();
        assert_eq!((got, attempts), (None, 2));
        let d = h.sys.stats_report().since(&before);
        assert_eq!((d.htm.commits, d.htm.conflict_aborts, d.htm.total_aborts()), (1, 1, 1));
        assert_eq!(d.causes.get(AbortCause::HtmConflict), 1);
        assert_eq!((d.txn.committed, d.txn.fallback_committed), (1, 0));
    }

    #[test]
    fn keyed_rmw_gives_one_result_under_both_strategies() {
        let run = |cfg: DrTmConfig| {
            let h = harness(1, 1, 4, cfg);
            let mut w = h.sys.worker(0, 0);
            let spec = TxnSpec {
                keyed_writes: vec![LocalKey { table: &h.tables[0], key: 1 }],
                keyed_reads: vec![
                    LocalKey { table: &h.tables[0], key: 3 },
                    LocalKey { table: &h.tables[0], key: 77 },
                ],
                ..Default::default()
            };
            let (sum, locked) = w
                .execute(&spec, |ctx| {
                    let locked = h.state_of(0, 1).is_write_locked();
                    assert_eq!(ctx.keyed_read(1)?, None, "key 77 was never inserted");
                    let a = vu64(&ctx.keyed_read(0)?.expect("populated"));
                    let b = vu64(&ctx.keyed_write_cur(0)?.expect("populated"));
                    ctx.keyed_write(0, &u64v(a + b + 1))?;
                    let seen = vu64(&ctx.keyed_write_cur(0)?.expect("populated"));
                    assert_eq!(seen, a + b + 1, "a body reads its own keyed write");
                    Ok((seen, locked))
                })
                .unwrap();
            // (Under the fallback key 3 keeps its lease: it just expires.)
            assert!(h.state_of(0, 1).is_init() && !h.state_of(0, 3).is_write_locked());
            (sum, h.value(0, 1), locked, h.sys.stats().snapshot().fallback_committed)
        };
        assert_eq!(run(DrTmConfig::default()), (201, 201, false, 0));
        // Straight to the fallback handler: the keyed record is found,
        // then locked like any local record, before the body runs.
        let mut cfg = DrTmConfig { logging: true, ..Default::default() };
        cfg.htm.max_retries = 0;
        assert_eq!(run(cfg), (201, 201, true, 1));
    }

    #[test]
    fn a_keyed_read_pair_is_one_snapshot() {
        // The HTM twin of `read_only_sees_consistent_snapshot`: a
        // read-only transaction small enough for a region is an `execute`
        // with an empty write set. Its two reads are one snapshot against
        // a writer on its own machine (whose region conflicts with it)
        // and against one on another machine (whose lock CAS and
        // write-backs it either conflicts with or sees as a lock) — in a
        // region, and under ordered 2PL, where they are leased, then
        // confirmed.
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
        for (max_retries, writer_node) in [(None, 0), (None, 1), (Some(0), 0), (Some(0), 1)] {
            let mut cfg = DrTmConfig::default();
            cfg.htm.max_retries = max_retries.unwrap_or(cfg.htm.max_retries);
            let h = harness(2, 2, 2, cfg);
            let pair: Vec<_> = (0..2).map(|key| LocalKey { table: &h.tables[0], key }).collect();
            let (stop, transfers) = (AtomicBool::new(false), AtomicU64::new(0));
            let sums = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut w = h.sys.worker(writer_node, 1);
                    let spec = if writer_node == 0 {
                        TxnSpec { keyed_writes: pair.clone(), ..Default::default() }
                    } else {
                        TxnSpec {
                            remote_writes: vec![h.rec(0, 0), h.rec(0, 1)],
                            ..Default::default()
                        }
                    };
                    while !stop.load(Relaxed) {
                        w.execute(&spec, |ctx| {
                            if writer_node == 0 {
                                let x = vu64(&ctx.keyed_write_cur(0)?.expect("populated"));
                                let y = vu64(&ctx.keyed_write_cur(1)?.expect("populated"));
                                ctx.keyed_write(0, &u64v(x.wrapping_sub(1)))?;
                                ctx.keyed_write(1, &u64v(y.wrapping_add(1)))?;
                            } else {
                                let x = vu64(ctx.remote_write_cur(0));
                                let y = vu64(ctx.remote_write_cur(1));
                                ctx.remote_write(0, u64v(x.wrapping_sub(1)));
                                ctx.remote_write(1, u64v(y.wrapping_add(1)));
                            }
                            Ok(())
                        })
                        .unwrap();
                        transfers.fetch_add(1, Relaxed);
                    }
                });
                let mut r = h.sys.worker(0, 0);
                let spec = TxnSpec { keyed_reads: pair.clone(), ..Default::default() };
                let mut sums: Vec<(u64, u64)> = Vec::new();
                // Until the reader has seen the writer move the pair too:
                // under ordered 2PL fifty reads can all fall inside one
                // lease, which holds the writer off, after it did its
                // fifty transfers while the reader was descheduled.
                let moved = |sums: &[(u64, u64)]| sums.iter().any(|&(x, _)| x != sums[0].0);
                let give_up = Instant::now() + Duration::from_secs(30);
                while (transfers.load(Relaxed) < 50 || sums.len() < 50 || !moved(&sums))
                    && Instant::now() < give_up
                {
                    let read = r.execute(&spec, |ctx| {
                        let x = vu64(&ctx.keyed_read(0)?.expect("populated"));
                        let y = vu64(&ctx.keyed_read(1)?.expect("populated"));
                        Ok((x, x.wrapping_add(y)))
                    });
                    sums.push(read.unwrap());
                }
                stop.store(true, Relaxed);
                sums
            });
            let case = format!("max_retries {max_retries:?}, writer on machine {writer_node}");
            assert!(sums.iter().all(|&(_, sum)| sum == 200), "{case}: a torn pair in {sums:?}");
            assert!(sums.iter().any(|&(x, _)| x != sums[0].0), "{case}: the writer never ran");
            let snap = h.sys.stats().snapshot();
            assert_eq!(snap.ro_committed, 0, "{case}");
            assert_eq!(snap.fallback_committed == snap.committed, max_retries == Some(0), "{case}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "write set contains a duplicate record")]
    fn a_duplicate_keyed_write_is_refused_like_a_duplicate_address() {
        let h = harness(1, 1, 4, DrTmConfig::default());
        let key = LocalKey { table: &h.tables[0], key: 1 };
        let spec = TxnSpec { keyed_writes: vec![key, key], ..Default::default() };
        let _ = h.sys.worker(0, 0).execute(&spec, |_| Ok(()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a local record is locked twice in one pass")]
    fn a_record_declared_by_key_and_by_address_is_refused_where_it_would_deadlock() {
        // Only the fallback's resolution learns that the two are one
        // record; under HTM both slots walk to the same entry.
        let mut cfg = DrTmConfig::default();
        cfg.htm.max_retries = 0;
        let h = harness(1, 1, 4, cfg);
        let spec = TxnSpec {
            local_writes: vec![h.rec(0, 1)],
            keyed_reads: vec![LocalKey { table: &h.tables[0], key: 1 }],
            ..Default::default()
        };
        let _ = h.sys.worker(0, 0).execute(&spec, |_| Ok(()));
    }

    /// One transaction declaring one record of each kind the engine
    /// keeps — a local write by address, a keyed write, a remote write, a
    /// keyed read and a remote read — on three machines with logging on
    /// and a frozen clock, in a region and down ordered 2PL: what the body
    /// reads, the verbs and virtual time a clean run costs, and the
    /// lock-ahead and write-ahead records a run that dies past its commit
    /// point leaves in the worker's log slot. The declaration order is
    /// the lock order's tie-break and the WAL's update order, so none of
    /// it may move under a refactor of how the engine keeps the records.
    #[test]
    fn one_record_of_each_kind_reads_costs_and_logs_as_recorded() {
        // Value of (node, key): node·1000 + key·10, so a body that reads
        // the wrong slot reads a wrong number.
        let build = |max_retries: u32| {
            let cluster = ClusterConfig {
                nodes: 3,
                region_size: 8 << 20,
                profile: LatencyProfile::rdma(),
                ..Default::default()
            };
            let mut cfg = DrTmConfig { logging: true, ..Default::default() };
            cfg.htm.max_retries = max_retries;
            let mut dep = Deployment::new(cluster, cfg, 1);
            let tables = dep.hash(64, 256, VAL_CAP);
            for n in dep.nodes() {
                for k in 0..4 {
                    let v = u64v(n as u64 * 1000 + k * 10);
                    tables[n as usize].insert(dep.exec(), dep.region(n), k, &v).unwrap();
                }
            }
            Harness { sys: dep.start_frozen(), tables, trees: Vec::new() }
        };
        fn spec(h: &Harness) -> TxnSpec<'_> {
            let mut spec = TxnSpec::default();
            spec.local_writes.push(h.rec(0, 1));
            spec.keyed_writes.push(LocalKey { table: &h.tables[0], key: 0 });
            spec.remote_writes.push(h.rec(1, 2));
            spec.keyed_reads.push(LocalKey { table: &h.tables[0], key: 3 });
            spec.remote_reads.push(h.rec(2, 1));
            spec
        }
        // Reads every slot, then adds 1, 2 and 3 to the three writes.
        let run = |h: &Harness, spec: &TxnSpec<'_>| {
            h.sys.worker(0, 0).execute(spec, |ctx| {
                let read = [
                    vu64(&ctx.local_write_cur(0)?),
                    vu64(&ctx.keyed_write_cur(0)?.expect("populated")),
                    vu64(ctx.remote_write_cur(0)),
                    vu64(&ctx.keyed_read(0)?.expect("populated")),
                    vu64(ctx.remote_read(0)),
                ];
                ctx.local_write(0, &u64v(read[0] + 1))?;
                ctx.keyed_write(0, &u64v(read[1] + 2))?;
                ctx.remote_write(0, u64v(read[2] + 3));
                Ok(read)
            })
        };
        let clean = |max_retries| {
            let h = build(max_retries);
            let spec = spec(&h);
            let before = h.sys.stats_report();
            let t0 = vtime::read();
            let read = run(&h, &spec).unwrap();
            let vtime_ns = vtime::read() - t0;
            let d = h.sys.stats_report().since(&before);
            (read, [d.rdma.reads, d.rdma.writes, d.rdma.cas], vtime_ns)
        };
        type Logged = (Vec<(NodeId, u64)>, Vec<(NodeId, u64)>, Vec<((NodeId, u64), u32, u64)>);
        let crashed = |max_retries, point: CrashPoint| -> Logged {
            let h = build(max_retries);
            let spec = spec(&h);
            h.sys.cluster().faults().arm_crash(0, point.name());
            assert_eq!(run(&h, &spec), Err(TxnError::SimulatedCrash));
            let key = |r: &RecordAddr| {
                let node = r.addr.node;
                (node, (0..4).find(|&k| h.rec(node, k) == *r).expect("a populated record"))
            };
            let (slot, region) =
                (LogSlot::new(h.sys.layout().log_slots[0]), h.sys.cluster().node(0).region());
            let wal = slot.read_write_ahead(region);
            (
                slot.read_lock_ahead(region).iter().map(key).collect(),
                wal.locks.iter().map(key).collect(),
                wal.updates.iter().map(|u| (key(&u.rec), u.version, vu64(&u.value))).collect(),
            )
        };
        let read = [10, 0, 1020, 30, 2010];
        let htm = HtmConfig::default().max_retries;
        // A region: Start leases (2, 1) and locks (1, 2), a CAS and a
        // READ each; WriteBack is (1, 2)'s value, version and unlock.
        assert_eq!(clean(htm), (read, [2, 3, 2], 17_041));
        // Ordered 2PL, after the HTM pass's Start and its release: all
        // five records by loopback CAS + READ, one record a wave, in
        // (node, offset) order, and three write-backs.
        assert_eq!(clean(0), (read, [7, 10, 7], 52_232));
        // The region logs its remote write with the version it installs,
        // then its local writes as it made them, at version 0.
        let updates = vec![((1, 2), 1, 1023), ((0, 1), 0, 11), ((0, 0), 0, 2)];
        assert_eq!(crashed(htm, CrashPoint::AfterHtmCommit), (vec![(1, 2)], vec![(1, 2)], updates));
        // Ordered 2PL locks in (node, offset) order and logs its writes in
        // declaration order: by address, by key, remote.
        let locks = vec![(0, 0), (0, 1), (1, 2)];
        let updates = vec![((0, 1), 1, 11), ((0, 0), 1, 2), ((1, 2), 1, 1023)];
        assert_eq!(
            crashed(0, CrashPoint::FallbackAfterWalBeforeApply),
            (locks.clone(), locks, updates)
        );
    }

    #[test]
    fn lease_blocks_local_writer_until_expiry() {
        let cfg = DrTmConfig { lease_us: 3_000, ..Default::default() };
        let h = harness(2, 1, 2, cfg);
        // Remote machine leases the record.
        let rec = h.rec(0, 0);
        let qp1 = h.sys.cluster().qp(1);
        let now = crate::time::softtime_nt(h.sys.cluster().node(1).region());
        record::remote_read(&qp1, &rec, now + 3_000, now, 100, false).unwrap();
        // Local write under the lease explicitly aborts.
        let region = h.sys.cluster().node(0).region().clone();
        let mut txn = region.begin(&h.sys.config().htm);
        let got = record::local_write(&mut txn, rec.addr.offset, &u64v(1), now, 100);
        assert_eq!(got, Err(Abort::Explicit(ABORT_LEASED)));
        drop(txn);
        // After expiry the DrTM transaction succeeds end to end.
        std::thread::sleep(std::time::Duration::from_millis(10));
        SoftTimer::tick_now(h.sys.cluster());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { local_writes: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| {
            ctx.local_write(0, &u64v(55))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(h.value(0, 0), 55);
    }
}
