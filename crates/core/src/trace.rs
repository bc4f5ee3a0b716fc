//! Cross-layer abort-cause diagnostics: Table 2 made observable.
//!
//! The protocol aborts a transaction from four different layers — the
//! emulated HTM (data conflict, capacity, explicit `XABORT`), the Start
//! phase (a remote CAS found the state word locked or leased, §4.3), the
//! commit-time lease confirmation (§4.3), and the fallback handler
//! (waiting on a held lock, §6.2) — and before this module existed the
//! layers reported through three unrelated counter sets, which made a
//! failing stress test nearly undebuggable. This module unifies them:
//!
//! * [`AbortCause`] — one taxonomy covering every abort path of
//!   [`crate::Worker::execute`], each path mapped to a distinct variant;
//! * [`TraceBuf`] — a per-worker fixed-capacity ring of [`TraceEvent`]s
//!   `(txn_id, phase, cause, record, virtual time)` for the most recent
//!   aborts, cheap enough to stay always-on;
//! * [`TraceDump`] — a cluster-wide, human-readable dump of every
//!   worker's ring (print it from a failing test);
//! * [`StatsReport`] — per-phase virtual-time/record-op breakdown joined
//!   with the transaction, HTM and RDMA counters, with `since()` diffs
//!   for measuring a window, and a `Display` that benchmark harnesses
//!   print alongside throughput.

use std::fmt;
use std::sync::Mutex;

use drtm_htm::{vtime, Abort, CounterArray};
use drtm_rdma::{CounterSnapshot, GlobalAddr};

use crate::record::{LockConflict, ABORT_LEASED, ABORT_LEASE_EXPIRED, ABORT_LOCKED};
use crate::stats::TxnStatsSnapshot;

/// Protocol phase an event was recorded in (Figure 2's structure plus
/// the fallback handler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Remote lock/lease acquisition (and lock-ahead logging).
    Start,
    /// The user body inside the HTM region.
    LocalTx,
    /// Lease confirmation, write-ahead log, `XEND`, write-backs.
    Commit,
    /// The ordered 2PL fallback handler.
    Fallback,
}

impl Phase {
    pub(crate) const COUNT: usize = 4;

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Start => 0,
            Phase::LocalTx => 1,
            Phase::Commit => 2,
            Phase::Fallback => 3,
        }
    }

    /// Short stable name used in dumps and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Start => "start",
            Phase::LocalTx => "localtx",
            Phase::Commit => "commit",
            Phase::Fallback => "fallback",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why one attempt of a transaction aborted — the union of every abort
/// path across the HTM, Start-phase, commit-time and fallback layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// HTM data conflict (including RDMA strong-atomicity and softtime
    /// timer ticks — Table 2's false conflicts).
    HtmConflict,
    /// HTM read/write-set capacity overflow (deterministic: go fallback).
    HtmCapacity,
    /// Local access found the record write-locked by a remote machine
    /// (`XABORT` with [`ABORT_LOCKED`], Figure 6).
    HtmLocked,
    /// Local write found an unexpired (or ambiguous) read lease
    /// (`XABORT` with [`ABORT_LEASED`], Figure 6).
    HtmLeased,
    /// Any other explicit `XABORT` code raised inside the region.
    HtmExplicit(u8),
    /// Start-phase CAS lost to a remote exclusive lock (§4.3 ABORT).
    StartWriteLocked {
        /// Machine that owns the lock.
        owner: u8,
    },
    /// Start-phase write lock blocked by an unexpired read lease.
    StartLeased {
        /// When the blocking lease ends (µs).
        end_us: u64,
    },
    /// Start-phase CAS found a lease inside the ±delta ambiguity window.
    StartAmbiguous,
    /// Commit-time lease confirmation failed: softtime passed within
    /// delta of a lease end (§4.3).
    LeaseConfirmFail,
    /// The fallback handler waited one round on a held lock/lease.
    FallbackWait,
    /// The body aborted voluntarily ([`crate::USER_ABORT`]).
    UserAbort,
    /// A fabric operation hit a crashed machine (or the wait deadline
    /// expired on state a dead peer will never release): the attempt
    /// aborts and the worker retries after recovery.
    PeerDead {
        /// The machine believed dead.
        node: u16,
    },
    /// The key's range is mid-migration (cutover window) or moved to a
    /// new owner since resolution: the attempt aborts and the worker
    /// re-resolves against the range map before retrying.
    Migrated,
    /// The write routed to a machine still in the `Joining` membership
    /// state: it owns no ranges yet, so the resolution was stale (or
    /// raced the activation flip). Re-resolve and retry.
    RouteJoining {
        /// The joining machine.
        node: u16,
    },
    /// The operation routed to a machine that already left the cluster
    /// (`Retired`): its QPs are closed for good. Re-resolve against the
    /// post-drain range map — recovery is *not* needed.
    RouteRetired {
        /// The retired machine.
        node: u16,
    },
}

/// Number of distinct [`AbortCause`] kinds (payloads ignored).
pub const NUM_CAUSES: usize = 15;

impl AbortCause {
    /// Dense index of the cause kind (payloads ignored), for counters.
    pub fn index(self) -> usize {
        match self {
            AbortCause::HtmConflict => 0,
            AbortCause::HtmCapacity => 1,
            AbortCause::HtmLocked => 2,
            AbortCause::HtmLeased => 3,
            AbortCause::HtmExplicit(_) => 4,
            AbortCause::StartWriteLocked { .. } => 5,
            AbortCause::StartLeased { .. } => 6,
            AbortCause::StartAmbiguous => 7,
            AbortCause::LeaseConfirmFail => 8,
            AbortCause::FallbackWait => 9,
            AbortCause::UserAbort => 10,
            AbortCause::PeerDead { .. } => 11,
            AbortCause::Migrated => 12,
            AbortCause::RouteJoining { .. } => 13,
            AbortCause::RouteRetired { .. } => 14,
        }
    }

    /// Short stable name of the cause kind (payloads ignored).
    pub fn kind_name(self) -> &'static str {
        CAUSE_NAMES[self.index()]
    }

    /// Maps an HTM abort to its cause, decoding the protocol's explicit
    /// codes (Figure 6).
    pub fn from_htm(a: Abort) -> AbortCause {
        match a {
            Abort::Conflict => AbortCause::HtmConflict,
            Abort::Capacity => AbortCause::HtmCapacity,
            Abort::Explicit(ABORT_LOCKED) => AbortCause::HtmLocked,
            Abort::Explicit(ABORT_LEASED) => AbortCause::HtmLeased,
            Abort::Explicit(ABORT_LEASE_EXPIRED) => AbortCause::LeaseConfirmFail,
            Abort::Explicit(crate::txn::USER_ABORT) => AbortCause::UserAbort,
            Abort::Explicit(code) => AbortCause::HtmExplicit(code),
        }
    }

    /// Maps a Start-phase lock/lease conflict to its cause.
    pub fn from_conflict(c: LockConflict) -> AbortCause {
        match c {
            LockConflict::WriteLocked { owner } => AbortCause::StartWriteLocked { owner },
            LockConflict::Leased { end_us } => AbortCause::StartLeased { end_us },
            LockConflict::Ambiguous => AbortCause::StartAmbiguous,
            LockConflict::PeerDead { node } => AbortCause::PeerDead { node },
            LockConflict::Retired { node } => AbortCause::RouteRetired { node },
        }
    }
}

/// Cause-kind names by [`AbortCause::index`].
pub const CAUSE_NAMES: [&str; NUM_CAUSES] = [
    "htm-conflict",
    "htm-capacity",
    "htm-locked",
    "htm-leased",
    "htm-explicit",
    "start-write-locked",
    "start-leased",
    "start-ambiguous",
    "lease-confirm-fail",
    "fallback-wait",
    "user-abort",
    "peer-dead",
    "migrated",
    "route-joining",
    "route-retired",
];

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AbortCause::HtmExplicit(code) => write!(f, "htm-explicit(0x{code:02x})"),
            AbortCause::StartWriteLocked { owner } => {
                write!(f, "start-write-locked(owner={owner})")
            }
            AbortCause::StartLeased { end_us } => write!(f, "start-leased(end={end_us}us)"),
            AbortCause::PeerDead { node } => write!(f, "peer-dead(n{node})"),
            AbortCause::RouteJoining { node } => write!(f, "route-joining(n{node})"),
            AbortCause::RouteRetired { node } => write!(f, "route-retired(n{node})"),
            other => f.write_str(other.kind_name()),
        }
    }
}

/// One recorded abort (or wait) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Transaction id: `node << 40 | worker << 32 | per-worker sequence`.
    pub txn_id: u64,
    /// Machine the worker ran on.
    pub node: u16,
    /// Worker index within the machine.
    pub worker: usize,
    /// Phase the abort was detected in.
    pub phase: Phase,
    /// Why the attempt aborted.
    pub cause: AbortCause,
    /// The record the abort was attributed to, when one is known.
    pub record: Option<GlobalAddr>,
    /// The worker's virtual-time meter when the event was recorded (ns).
    pub vtime_ns: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "txn {:#012x} n{} w{} {:>8} {:<28}",
            self.txn_id,
            self.node,
            self.worker,
            self.phase,
            self.cause.to_string(),
        )?;
        match self.record {
            Some(a) => write!(f, " rec n{}+{:#x}", a.node, a.offset)?,
            None => write!(f, " rec -")?,
        }
        write!(f, " vt {}ns", self.vtime_ns)
    }
}

#[derive(Debug, Default)]
struct RingInner {
    buf: Vec<TraceEvent>,
    /// Total events ever pushed; `buf[pushed % cap]` is the next slot.
    pushed: u64,
}

/// A fixed-capacity ring of the most recent [`TraceEvent`]s.
///
/// One ring per worker; pushes are a short critical section so the ring
/// can also be shared (and dumped) across threads.
#[derive(Debug)]
pub struct TraceBuf {
    cap: usize,
    inner: Mutex<RingInner>,
}

impl TraceBuf {
    /// Creates an empty ring holding at most `cap` events (min 1).
    pub fn new(cap: usize) -> TraceBuf {
        TraceBuf { cap: cap.max(1), inner: Mutex::new(RingInner::default()) }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends an event, evicting the oldest once full.
    pub fn push(&self, ev: TraceEvent) {
        let g = &mut *self.inner.lock().expect("trace ring poisoned");
        let slot = (g.pushed % self.cap as u64) as usize;
        if g.buf.len() < self.cap {
            // The whole ring at its first event: no push allocates after.
            g.buf.reserve_exact(self.cap - g.buf.len());
            g.buf.push(ev);
        } else {
            g.buf[slot] = ev;
        }
        g.pushed += 1;
    }

    /// Total events ever recorded (≥ the ring's current length).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").pushed
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let g = self.inner.lock().expect("trace ring poisoned");
        if g.buf.len() < self.cap {
            g.buf.clone()
        } else {
            let split = (g.pushed % self.cap as u64) as usize;
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&g.buf[split..]);
            out.extend_from_slice(&g.buf[..split]);
            out
        }
    }
}

/// A human-readable dump of every worker's retained trace events.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// Retained events of all workers (each worker's slice oldest-first).
    pub events: Vec<TraceEvent>,
    /// Events recorded but no longer retained (evicted by the rings).
    pub dropped: u64,
}

impl fmt::Display for TraceDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "--- abort trace: {} event(s) retained, {} dropped ---",
            self.events.len(),
            self.dropped
        )?;
        for ev in &self.events {
            writeln!(f, "{ev}")?;
        }
        Ok(())
    }
}

drtm_htm::counter_set! {
    /// One phase's accumulators.
    struct PhaseCounters;
    /// Point-in-time copy of one phase's accumulators.
    pub struct PhaseLine {
        /// Virtual nanoseconds spent in the phase across all workers.
        vtime_ns,
        /// Record-level remote operations (lock, lease, fetch, write-back,
        /// unlock) issued from the phase; verbs-level totals are in the
        /// joined RDMA counters.
        record_ops,
    }
}

/// Per-phase accumulated virtual time and record-level remote operations.
#[derive(Debug, Default)]
pub struct PhaseStats([PhaseCounters; Phase::COUNT]);

/// Point-in-time copy of [`PhaseStats`], indexed by [`Phase`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Per-phase lines, in [`Phase`] declaration order.
    pub phases: [PhaseLine; Phase::COUNT],
}

impl PhaseSnapshot {
    /// The line for one phase.
    pub fn get(&self, p: Phase) -> PhaseLine {
        self.phases[p.index()]
    }

    /// Phase-wise difference `self - earlier`.
    pub fn since(&self, earlier: &PhaseSnapshot) -> PhaseSnapshot {
        PhaseSnapshot { phases: std::array::from_fn(|i| self.phases[i].since(&earlier.phases[i])) }
    }
}

impl PhaseStats {
    pub(crate) fn add(&self, phase: Phase, vtime_ns: u64, record_ops: u64) {
        let line = &self.0[phase.index()];
        line.vtime_ns.add(vtime_ns);
        line.record_ops.add(record_ops);
    }

    /// Takes a snapshot of the accumulators.
    pub fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot { phases: std::array::from_fn(|i| self.0[i].snapshot()) }
    }
}

/// Measures one phase's virtual time on drop (so every early return of
/// the commit path is charged), accumulating into a [`TraceHub`].
pub(crate) struct PhaseTimer<'a> {
    hub: &'a TraceHub,
    phase: Phase,
    t0: u64,
    /// Record-level ops the caller attributes to the phase.
    pub(crate) ops: u64,
}

impl<'a> PhaseTimer<'a> {
    pub(crate) fn start(hub: &'a TraceHub, phase: Phase) -> PhaseTimer<'a> {
        PhaseTimer { hub, phase, t0: vtime::read(), ops: 0 }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        self.hub.phases.add(self.phase, vtime::read().saturating_sub(self.t0), self.ops);
    }
}

/// Point-in-time copy of the per-cause abort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseSnapshot {
    /// Counts indexed by [`AbortCause::index`].
    pub counts: [u64; NUM_CAUSES],
}

impl CauseSnapshot {
    /// Count of one cause kind.
    pub fn get(&self, c: AbortCause) -> u64 {
        self.counts[c.index()]
    }

    /// Total aborts of every cause.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Cause-wise difference `self - earlier`.
    pub fn since(&self, earlier: &CauseSnapshot) -> CauseSnapshot {
        CauseSnapshot { counts: CounterArray::since(&self.counts, &earlier.counts) }
    }

    /// `(kind name, count)` for every non-zero cause, largest first.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = CAUSE_NAMES
            .iter()
            .zip(self.counts)
            .filter(|&(_, n)| n > 0)
            .map(|(&name, n)| (name, n))
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }
}

/// The cluster-wide diagnostics hub a [`crate::DrTm`] instance owns:
/// per-cause counters, per-phase accumulators and every worker's ring.
#[derive(Debug)]
pub struct TraceHub {
    ring_capacity: usize,
    causes: CounterArray<NUM_CAUSES>,
    pub(crate) phases: PhaseStats,
    rings: Mutex<Vec<std::sync::Arc<TraceBuf>>>,
}

impl TraceHub {
    /// Creates an empty hub; each worker ring holds `ring_capacity`
    /// events.
    pub fn new(ring_capacity: usize) -> TraceHub {
        TraceHub {
            ring_capacity: ring_capacity.max(1),
            causes: CounterArray::default(),
            phases: PhaseStats::default(),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Registers (and returns) a new worker ring.
    pub(crate) fn register(&self) -> std::sync::Arc<TraceBuf> {
        let ring = std::sync::Arc::new(TraceBuf::new(self.ring_capacity));
        self.rings.lock().expect("trace hub poisoned").push(ring.clone());
        ring
    }

    /// Counts the cause and appends the event to the worker's ring.
    pub(crate) fn record(&self, ring: &TraceBuf, ev: TraceEvent) {
        self.causes.inc(ev.cause.index());
        ring.push(ev);
    }

    /// Snapshot of the per-cause counters.
    pub fn causes(&self) -> CauseSnapshot {
        CauseSnapshot { counts: self.causes.snapshot() }
    }

    /// Snapshot of the per-phase accumulators.
    pub fn phases(&self) -> PhaseSnapshot {
        self.phases.snapshot()
    }

    /// Dumps every worker's retained events (worker rings concatenated,
    /// each oldest-first).
    pub fn dump(&self) -> TraceDump {
        let rings = self.rings.lock().expect("trace hub poisoned");
        let mut dump = TraceDump::default();
        for r in rings.iter() {
            let events = r.snapshot();
            dump.dropped += r.recorded() - events.len() as u64;
            dump.events.extend(events);
        }
        dump
    }
}

/// Every counter layer of the system joined into one report.
///
/// Take one before and one after a measured window and diff them with
/// [`StatsReport::since`]; `Display` prints the breakdown the benchmark
/// harnesses show alongside throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsReport {
    /// Transaction-layer outcomes.
    pub txn: TxnStatsSnapshot,
    /// HTM-layer commits/aborts.
    pub htm: drtm_htm::StatsSnapshot,
    /// Cluster-wide RDMA verb counters.
    pub rdma: CounterSnapshot,
    /// Unified per-cause abort counts.
    pub causes: CauseSnapshot,
    /// Per-phase virtual-time / record-op breakdown.
    pub phases: PhaseSnapshot,
}

impl StatsReport {
    /// Component-wise difference `self - earlier` (for a measured
    /// window; every layer diffs together).
    pub fn since(&self, earlier: &StatsReport) -> StatsReport {
        StatsReport {
            txn: self.txn.since(&earlier.txn),
            htm: self.htm.since(&earlier.htm),
            rdma: self.rdma.since(&earlier.rdma),
            causes: self.causes.since(&earlier.causes),
            phases: self.phases.since(&earlier.phases),
        }
    }

    /// Aborted attempts per committed transaction (0 when idle).
    pub fn aborts_per_commit(&self) -> f64 {
        if self.txn.committed == 0 {
            0.0
        } else {
            self.causes.total() as f64 / self.txn.committed as f64
        }
    }
}

impl fmt::Display for StatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "txns: {} committed ({} fallback, {} user-aborted), {} ro; \
             {:.2} aborted attempts/commit",
            self.txn.committed,
            self.txn.fallback_committed,
            self.causes.get(AbortCause::UserAbort),
            self.txn.ro_committed,
            self.aborts_per_commit(),
        )?;
        writeln!(
            f,
            "htm:  {} commits, {} aborts ({:.1}% rate), {} fallbacks",
            self.htm.commits,
            self.htm.total_aborts(),
            self.htm.abort_rate() * 100.0,
            self.htm.fallbacks,
        )?;
        writeln!(
            f,
            "rdma: {} READ / {} WRITE / {} CAS verbs ({} one-sided)",
            self.rdma.reads,
            self.rdma.writes,
            self.rdma.cas,
            self.rdma.one_sided(),
        )?;
        writeln!(f, "phase breakdown (virtual ms / record ops):")?;
        for p in [Phase::Start, Phase::LocalTx, Phase::Commit, Phase::Fallback] {
            let line = self.phases.get(p);
            writeln!(
                f,
                "  {:<9} {:>10.3} ms {:>9} ops",
                p.name(),
                line.vtime_ns as f64 / 1e6,
                line.record_ops,
            )?;
        }
        let nz = self.causes.nonzero();
        if nz.is_empty() {
            writeln!(f, "abort causes: none")?;
        } else {
            writeln!(f, "abort causes:")?;
            for (name, n) in nz {
                writeln!(f, "  {name:<20} {n:>9}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, cause: AbortCause) -> TraceEvent {
        TraceEvent {
            txn_id: seq,
            node: 0,
            worker: 0,
            phase: Phase::Start,
            cause,
            record: None,
            vtime_ns: seq * 10,
        }
    }

    #[test]
    fn cause_indices_are_dense_and_named() {
        let all = [
            AbortCause::HtmConflict,
            AbortCause::HtmCapacity,
            AbortCause::HtmLocked,
            AbortCause::HtmLeased,
            AbortCause::HtmExplicit(0xAB),
            AbortCause::StartWriteLocked { owner: 3 },
            AbortCause::StartLeased { end_us: 99 },
            AbortCause::StartAmbiguous,
            AbortCause::LeaseConfirmFail,
            AbortCause::FallbackWait,
            AbortCause::UserAbort,
            AbortCause::PeerDead { node: 4 },
            AbortCause::Migrated,
            AbortCause::RouteJoining { node: 2 },
            AbortCause::RouteRetired { node: 5 },
        ];
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.index(), i, "{c}");
            assert_eq!(c.kind_name(), CAUSE_NAMES[i]);
        }
        assert_eq!(all.len(), NUM_CAUSES);
    }

    #[test]
    fn htm_and_conflict_mappings_are_distinct() {
        assert_eq!(AbortCause::from_htm(Abort::Conflict), AbortCause::HtmConflict);
        assert_eq!(AbortCause::from_htm(Abort::Capacity), AbortCause::HtmCapacity);
        assert_eq!(AbortCause::from_htm(Abort::Explicit(ABORT_LOCKED)), AbortCause::HtmLocked);
        assert_eq!(AbortCause::from_htm(Abort::Explicit(ABORT_LEASED)), AbortCause::HtmLeased);
        assert_eq!(
            AbortCause::from_htm(Abort::Explicit(ABORT_LEASE_EXPIRED)),
            AbortCause::LeaseConfirmFail
        );
        assert_eq!(
            AbortCause::from_htm(Abort::Explicit(crate::txn::USER_ABORT)),
            AbortCause::UserAbort
        );
        assert_eq!(AbortCause::from_htm(Abort::Explicit(0x42)), AbortCause::HtmExplicit(0x42));
        assert_eq!(
            AbortCause::from_conflict(LockConflict::WriteLocked { owner: 7 }),
            AbortCause::StartWriteLocked { owner: 7 }
        );
        assert_eq!(
            AbortCause::from_conflict(LockConflict::Leased { end_us: 5 }),
            AbortCause::StartLeased { end_us: 5 }
        );
        assert_eq!(AbortCause::from_conflict(LockConflict::Ambiguous), AbortCause::StartAmbiguous);
        assert_eq!(
            AbortCause::from_conflict(LockConflict::Retired { node: 3 }),
            AbortCause::RouteRetired { node: 3 }
        );
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let r = TraceBuf::new(4);
        for i in 0..10 {
            r.push(ev(i, AbortCause::HtmConflict));
        }
        assert_eq!(r.recorded(), 10);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        let ids: Vec<u64> = snap.iter().map(|e| e.txn_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest-first, most recent retained");
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let r = TraceBuf::new(8);
        for i in 0..3 {
            r.push(ev(i, AbortCause::UserAbort));
        }
        assert_eq!(r.snapshot().len(), 3);
        assert_eq!(r.recorded(), 3);
    }

    #[test]
    fn concurrent_writers_never_lose_counts() {
        let hub = std::sync::Arc::new(TraceHub::new(32));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let hub = hub.clone();
            handles.push(std::thread::spawn(move || {
                let ring = hub.register();
                for i in 0..500 {
                    hub.record(&ring, ev(t * 1000 + i, AbortCause::FallbackWait));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hub.causes().get(AbortCause::FallbackWait), 2000);
        let dump = hub.dump();
        assert_eq!(dump.events.len(), 4 * 32, "each ring retains its capacity");
        assert_eq!(dump.dropped, 2000 - 4 * 32);
        // Every retained event is well-formed (no torn writes).
        for e in &dump.events {
            assert_eq!(e.cause, AbortCause::FallbackWait);
            assert_eq!(e.vtime_ns, e.txn_id * 10);
        }
    }

    #[test]
    fn phase_and_cause_snapshots_diff() {
        let hub = TraceHub::new(4);
        let ring = hub.register();
        hub.phases.add(Phase::Start, 100, 2);
        hub.record(&ring, ev(1, AbortCause::StartAmbiguous));
        let a = hub.causes();
        let pa = hub.phases();
        hub.phases.add(Phase::Start, 50, 1);
        hub.phases.add(Phase::Commit, 7, 3);
        hub.record(&ring, ev(2, AbortCause::StartAmbiguous));
        hub.record(&ring, ev(3, AbortCause::LeaseConfirmFail));
        let db = hub.causes().since(&a);
        assert_eq!(db.get(AbortCause::StartAmbiguous), 1);
        assert_eq!(db.get(AbortCause::LeaseConfirmFail), 1);
        assert_eq!(db.total(), 2);
        let dp = hub.phases().since(&pa);
        assert_eq!(dp.get(Phase::Start), PhaseLine { vtime_ns: 50, record_ops: 1 });
        assert_eq!(dp.get(Phase::Commit), PhaseLine { vtime_ns: 7, record_ops: 3 });
        assert_eq!(dp.get(Phase::Fallback), PhaseLine::default());
    }

    #[test]
    fn report_display_shows_breakdown() {
        let mut rep = StatsReport::default();
        rep.txn.committed = 10;
        rep.causes.counts[AbortCause::StartAmbiguous.index()] = 5;
        let s = rep.to_string();
        assert!(s.contains("10 committed"), "{s}");
        assert!(s.contains("start-ambiguous"), "{s}");
        assert!(s.contains("0.50 aborted attempts/commit"), "{s}");
        assert!(s.contains("phase breakdown"), "{s}");
    }

    #[test]
    fn dump_display_lists_events() {
        let hub = TraceHub::new(4);
        let ring = hub.register();
        hub.record(
            &ring,
            TraceEvent {
                txn_id: 0x10000000042,
                node: 1,
                worker: 2,
                phase: Phase::Commit,
                cause: AbortCause::LeaseConfirmFail,
                record: Some(GlobalAddr::new(1, 0x40)),
                vtime_ns: 123,
            },
        );
        let s = hub.dump().to_string();
        assert!(s.contains("lease-confirm-fail"), "{s}");
        assert!(s.contains("commit"), "{s}");
        assert!(s.contains("n1+0x40"), "{s}");
    }
}
