//! Live key-range resharding between machines.
//!
//! DrTM's partitioning is static: a key's home is fixed at cluster
//! start. This module adds the missing piece of elastic scale-out — a
//! [`Resharder`] that streams a key range from its current owner to a
//! new one while both keep serving traffic, coordinated through a
//! [`RangeMap`] of per-range *migration epochs*:
//!
//! ```text
//!  Stable ──begin_copy──▶ Copying ──begin_cutover──▶ Cutover ──publish──▶ Stable
//!  (src)    src writable   src writable,             src frozen,          (dst)
//!           copy stream    one-sided bulk copy       delta+purge,
//!                          to dst                    dual-read src→dst
//! ```
//!
//! * **Copying** — the source stays authoritative *and writable*; the
//!   resharder bulk-copies the range with one-sided READs
//!   ([`crate::ClusterHash::try_remote_collect_range`]) and upserts into
//!   the destination. Writes racing the copy are caught later.
//! * **Cutover** — the range is frozen for writes: the router hands
//!   transactions a `writable = false` decision and they abort with a
//!   typed `Migrated` cause, retrying once the map republishes. An RPC
//!   barrier (a shipped no-op through the source's FIFO store queue)
//!   drains in-flight shipped operations. Then a *delta + purge* pass
//!   walks the source range once more: each key is locked on the source
//!   with a journaled RDMA CAS on its state word, re-read under the
//!   lock, re-upserted into the destination unless the destination
//!   already holds exactly this version from the bulk copy (this is
//!   what catches inserts and updates that raced the copy window —
//!   comparing against the destination's copy, not against the delta
//!   walk itself), and deleted from the source — the delete
//!   clears the state word (releasing the migration lock) and bumps the
//!   incarnation, so any worker still holding the old location fails its
//!   incarnation check, re-resolves, and lands at the new owner. Reads
//!   during this window are *dual-read*: source primary, destination
//!   fallback, because keys vanish from the source one at a time.
//! * **Publish** — the map flips the owner. No client cache is told
//!   about any of it: a cached location of a purged key fails its
//!   incarnation check on first use (§5.3), and the lookup behind it
//!   re-resolves — at the new owner once the route says so.
//!
//! Crash safety: the purge lock is journaled ([`PurgeLock`], a
//! [`Journal`] client on the *destination*'s region) before the CAS, one
//! key at a time; [`Resharder::recover`] releases an orphaned lock from
//! the journal and deletes partially copied destination rows, returning
//! the range to `Stable` on the source — the crash-point matrix in the
//! chaos harness checks conservation and zero leaked locks at both armed
//! sites ([`MIGRATE_MID_COPY_SITE`], [`MIGRATE_BEFORE_CUTOVER_SITE`]).

use std::sync::Arc;

use parking_lot::RwLock;

use drtm_htm::{Executor, Region};
use drtm_rdma::{Cluster, FabricError, GlobalAddr, NodeId, Qp, QueueId};

use crate::alloc::Arena;
use crate::cluster_hash::ClusterHash;
use crate::entry::Entry;
use crate::journal::{put_u16, put_u64, Journal, Reader};
use crate::rpc::{ship_store_op, StoreOp, StoreReply};

/// Crash site inside the bulk-copy loop (armed on the *destination*,
/// which drives the migration); the core crate's
/// `CrashPoint::MigrateMidCopy` is named by this constant.
pub const MIGRATE_MID_COPY_SITE: &str = "migrate-mid-copy";

/// Crash site after the copy completes but before the cutover freezes
/// the range (`CrashPoint::MigrateBeforeCutover`).
pub const MIGRATE_BEFORE_CUTOVER_SITE: &str = "migrate-before-cutover";

/// Index of the sharded table in every host's store-service registry:
/// the one table a host serves there.
const TABLE: u16 = 0;

/// Key shipped through the source's store queue as the cutover barrier:
/// a delete that must find nothing, so never a data key.
const BARRIER_KEY: u64 = u64::MAX;

/// The purge-lock journal in a migration destination's durable region:
/// the one source-side lock a migration may hold, recorded before it is
/// taken. A [`Journal`] client — status 1 while the lock may be held,
/// payload `(src, entry offset, lock word)`; [`Resharder::migrate`] arms
/// and clears it around each purged key, [`PurgeLock::release`] is what
/// recovery does with it.
#[derive(Debug, Clone, Copy)]
pub struct PurgeLock(Journal);

impl PurgeLock {
    /// Carves the journal out of `arena` (same place on every machine).
    pub fn reserve(arena: &mut Arena) -> Self {
        PurgeLock(Journal::reserve(arena, [64, 0]))
    }

    /// Records that `lock_word` is about to be CAS-ed into the state word
    /// at `entry_off` on `src`.
    pub fn arm(&self, region: &Region, src: NodeId, entry_off: usize, lock_word: u64) {
        let mut buf = Vec::with_capacity(18);
        put_u16(&mut buf, src);
        put_u64(&mut buf, entry_off as u64);
        put_u64(&mut buf, lock_word);
        self.0.arm(region, 0, &buf, 1);
    }

    /// The recorded `(src, entry_off, lock_word)` if the journal is armed.
    pub fn armed(&self, region: &Region) -> Option<(NodeId, usize, u64)> {
        let (_, payload) = self.0.read(region, 0)?;
        let mut r = Reader::new(&payload);
        Some((r.u16(), r.u64() as usize, r.u64()))
    }

    /// Disarms the journal: the lock is released or was never taken.
    pub fn clear(&self, region: &Region) {
        self.0.clear(region);
    }

    /// Recovery: releases the lock journaled on `holder`'s region, if
    /// any, with the recoverer's `qp`, then clears the journal. The
    /// release is a CAS on the exact logged word, so it is idempotent and
    /// never clobbers a lock someone else took since: through the fabric
    /// while the source answers, straight into its durable region once it
    /// does not (dead or retired). Returns the locks released (0 or 1).
    /// The one place a journaled purge lock is released.
    pub fn release(&self, qp: &Qp, holder: NodeId) -> u64 {
        let region = qp.cluster().node(holder).region();
        let Some((src, off, word)) = self.armed(region) else { return 0 };
        let old = match qp.try_cas_u64(GlobalAddr::new(src, off), word, 0) {
            Ok(old) => old,
            Err(_) => qp.cluster().node(src).region().cas_u64_nt(off, word, 0),
        };
        self.clear(region);
        (old == word) as u64
    }
}

/// Phase boundaries of one migration, surfaced through
/// [`Resharder::set_phase_hook`] so tests, the chaos harness and the
/// benchmarks can interleave traffic deterministically with a migration
/// in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigratePhase {
    /// The bulk copy landed on the destination; the range is still
    /// `Copying` (source writable) — the window in which a racing write
    /// must be caught by the delta pass.
    Copied,
    /// The range is frozen and the source's store queue drained; the
    /// delta + purge pass is about to run (dual-read window).
    CutoverDrained,
    /// One key finished its delta + purge step: gone from the source —
    /// a read of exactly this key now exercises the dual-read forward to
    /// the destination.
    KeyPurged(u64),
}

/// Installed migration-phase observer ([`Resharder::set_phase_hook`]).
type PhaseHook = Box<dyn Fn(MigratePhase) + Send + Sync>;

/// Typed rejection of an invalid [`RangeMap`] construction or
/// transition — routing corruption (overlapping owners, a migration to
/// the node that already owns the range) is refused up front instead of
/// silently poisoning every later `route` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeMapError {
    /// `lo > hi`: the range covers no key.
    EmptyRange {
        /// Lower bound as given.
        lo: u64,
        /// Upper bound as given.
        hi: u64,
    },
    /// Two input ranges overlap; `lo` is the start of the second.
    Overlap {
        /// Start of the overlapping range.
        lo: u64,
    },
    /// The migration destination already owns the range.
    DstIsOwner {
        /// The destination (= current owner).
        dst: NodeId,
    },
    /// No map entry covers this key.
    NotMapped {
        /// The uncovered key.
        key: u64,
    },
    /// `[lo, hi]` straddles more than one map entry.
    SpansEntries {
        /// Lower bound as given.
        lo: u64,
        /// Upper bound as given.
        hi: u64,
    },
    /// The covering range is not `Stable` (a migration is in flight).
    AlreadyMigrating {
        /// Lower bound of the covering entry.
        lo: u64,
    },
    /// The bounds do not name an exact existing entry.
    NotAnExactRange {
        /// Lower bound as given.
        lo: u64,
        /// Upper bound as given.
        hi: u64,
    },
}

impl std::fmt::Display for RangeMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RangeMapError::EmptyRange { lo, hi } => write!(f, "empty range [{lo}, {hi}]"),
            RangeMapError::Overlap { lo } => write!(f, "overlapping ranges at {lo}"),
            RangeMapError::DstIsOwner { dst } => {
                write!(f, "destination {dst} already owns the range")
            }
            RangeMapError::NotMapped { key } => write!(f, "range not mapped at {key}"),
            RangeMapError::SpansEntries { lo, hi } => {
                write!(f, "range [{lo}, {hi}] spans multiple map entries")
            }
            RangeMapError::AlreadyMigrating { lo } => {
                write!(f, "range at {lo} already migrating")
            }
            RangeMapError::NotAnExactRange { lo, hi } => {
                write!(f, "[{lo}, {hi}] is not an exact map entry")
            }
        }
    }
}

impl std::error::Error for RangeMapError {}

/// Migration state of one key range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RangeState {
    /// One owner, reads and writes served normally.
    Stable,
    /// Bulk copy in progress; the source is still authoritative and
    /// writable.
    Copying,
    /// Writes frozen; reads dual-read source-then-destination while the
    /// purge drains the source.
    Cutover,
}

/// One entry of the [`RangeMap`]: a half-open ownership interval
/// (inclusive bounds) and its migration state.
#[derive(Debug, Clone, Copy)]
struct RangeEntry {
    lo: u64,
    hi: u64,
    owner: NodeId,
    /// Migration target while `state != Stable`.
    dst: Option<NodeId>,
    epoch: u64,
    state: RangeState,
}

/// What the router tells a transaction about one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// The node to read first (authoritative until publish).
    pub primary: NodeId,
    /// Fallback node for reads during the cutover window (the purge
    /// moves keys one at a time, so a source miss must retry here).
    pub forward: Option<NodeId>,
    /// Whether writes to this key are currently admitted. `false` means
    /// the caller must abort with a `Migrated` cause and retry after the
    /// map republishes.
    pub writable: bool,
    /// The range's migration epoch at decision time; a transaction can
    /// re-check it at commit to detect a cutover that raced resolution.
    pub epoch: u64,
}

/// Key-range → owner map with per-range migration epochs.
///
/// Reads take a short `RwLock` read guard; the resharder's state
/// transitions take the write guard. Ranges are disjoint and sorted.
#[derive(Debug)]
pub struct RangeMap {
    ranges: RwLock<Vec<RangeEntry>>,
}

impl RangeMap {
    /// Builds a map from disjoint `(lo, hi, owner)` triples (inclusive
    /// bounds), rejecting zero-width (`lo > hi`) and overlapping ranges
    /// with a typed error instead of corrupting routing.
    pub fn new(
        ranges: impl IntoIterator<Item = (u64, u64, NodeId)>,
    ) -> Result<Self, RangeMapError> {
        let mut v = Vec::new();
        for (lo, hi, owner) in ranges {
            if lo > hi {
                return Err(RangeMapError::EmptyRange { lo, hi });
            }
            v.push(RangeEntry { lo, hi, owner, dst: None, epoch: 0, state: RangeState::Stable });
        }
        v.sort_by_key(|r| r.lo);
        for w in v.windows(2) {
            if w[0].hi >= w[1].lo {
                return Err(RangeMapError::Overlap { lo: w[1].lo });
            }
        }
        Ok(RangeMap { ranges: RwLock::new(v) })
    }

    fn locate(ranges: &[RangeEntry], key: u64) -> Option<usize> {
        ranges
            .binary_search_by(|r| {
                if key < r.lo {
                    std::cmp::Ordering::Greater
                } else if key > r.hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
    }

    /// Routes `key`, or `None` if no range covers it.
    pub fn route(&self, key: u64) -> Option<RouteDecision> {
        let ranges = self.ranges.read();
        let r = ranges[Self::locate(&ranges, key)?];
        Some(match r.state {
            RangeState::Stable | RangeState::Copying => {
                RouteDecision { primary: r.owner, forward: None, writable: true, epoch: r.epoch }
            }
            RangeState::Cutover => {
                RouteDecision { primary: r.owner, forward: r.dst, writable: false, epoch: r.epoch }
            }
        })
    }

    /// The current owner of `key` (primary of its route).
    pub fn owner_of(&self, key: u64) -> Option<NodeId> {
        self.route(key).map(|d| d.primary)
    }

    /// Splits the covering range as needed and moves `[lo, hi]` into
    /// `Copying` towards `dst`; returns the new epoch. Rejects zero-width
    /// bounds, an unmapped or entry-straddling range, a range already
    /// migrating, or a `dst` that already owns it.
    pub(crate) fn begin_copy(&self, lo: u64, hi: u64, dst: NodeId) -> Result<u64, RangeMapError> {
        if lo > hi {
            return Err(RangeMapError::EmptyRange { lo, hi });
        }
        let mut ranges = self.ranges.write();
        let i = Self::locate(&ranges, lo).ok_or(RangeMapError::NotMapped { key: lo })?;
        let r = ranges[i];
        if hi > r.hi {
            return Err(RangeMapError::SpansEntries { lo, hi });
        }
        if r.state != RangeState::Stable {
            return Err(RangeMapError::AlreadyMigrating { lo: r.lo });
        }
        if r.owner == dst {
            return Err(RangeMapError::DstIsOwner { dst });
        }
        let epoch = r.epoch + 1;
        let mid = RangeEntry {
            lo,
            hi,
            owner: r.owner,
            dst: Some(dst),
            epoch,
            state: RangeState::Copying,
        };
        let mut replacement = Vec::new();
        if r.lo < lo {
            replacement.push(RangeEntry { hi: lo - 1, ..r });
        }
        replacement.push(mid);
        if hi < r.hi {
            replacement.push(RangeEntry { lo: hi + 1, ..r });
        }
        ranges.splice(i..=i, replacement);
        Ok(epoch)
    }

    /// The `Stable` ranges currently owned by `node`, sorted by `lo`.
    /// Ranges mid-migration are excluded — resolve them (publish or
    /// abort the migration) before draining an owner.
    pub fn ranges_owned_by(&self, node: NodeId) -> Vec<(u64, u64)> {
        self.ranges
            .read()
            .iter()
            .filter(|r| r.owner == node && r.state == RangeState::Stable)
            .map(|r| (r.lo, r.hi))
            .collect()
    }

    /// The migrations in flight (`Copying` or `Cutover`) that `node`
    /// takes part in, as destination or as source: `(lo, hi, dst)` each,
    /// sorted by `lo`. What recovery rolls back when `node` dies.
    pub(crate) fn in_flight(&self, node: NodeId) -> Vec<(u64, u64, NodeId)> {
        self.ranges
            .read()
            .iter()
            .filter(|r| r.state != RangeState::Stable && (r.owner == node || r.dst == Some(node)))
            .map(|r| (r.lo, r.hi, r.dst.expect("a migrating range has a destination")))
            .collect()
    }

    /// Force-reassigns the exact `Stable` entry `[lo, hi]` to
    /// `new_owner`, bumping its epoch. This is the journal-driven
    /// repair primitive: membership recovery moves rows physically
    /// first (evacuation), then flips routing here — never the other
    /// way around.
    pub fn reassign(&self, lo: u64, hi: u64, new_owner: NodeId) -> Result<u64, RangeMapError> {
        let mut ranges = self.ranges.write();
        let i = Self::locate(&ranges, lo).ok_or(RangeMapError::NotMapped { key: lo })?;
        let r = &mut ranges[i];
        if r.lo != lo || r.hi != hi {
            return Err(RangeMapError::NotAnExactRange { lo, hi });
        }
        if r.state != RangeState::Stable {
            return Err(RangeMapError::AlreadyMigrating { lo: r.lo });
        }
        r.owner = new_owner;
        r.epoch += 1;
        Ok(r.epoch)
    }

    /// Donor selection for a membership join: the upper half of the
    /// largest `Stable` range owned by `donor`, or `None` if every
    /// range it owns is too small to split (fewer than 2 keys) or mid-
    /// migration. Taking the *upper* half keeps the donor's remainder a
    /// single contiguous entry.
    pub fn donation_from(&self, donor: NodeId) -> Option<(u64, u64)> {
        self.ranges_owned_by(donor)
            .into_iter()
            .filter(|(lo, hi)| hi > lo)
            .max_by_key(|(lo, hi)| hi - lo)
            .map(|(lo, hi)| (lo + (hi - lo) / 2 + 1, hi))
    }

    /// Freezes `[lo, hi]` for writes (Copying → Cutover). Returns the
    /// new epoch.
    pub(crate) fn begin_cutover(&self, lo: u64, hi: u64) -> u64 {
        self.transition(lo, hi, RangeState::Copying, |r| {
            r.state = RangeState::Cutover;
        })
    }

    /// Publishes `dst` as the owner of `[lo, hi]` (Cutover → Stable).
    /// Returns the new epoch.
    pub fn publish(&self, lo: u64, hi: u64) -> u64 {
        self.transition(lo, hi, RangeState::Cutover, |r| {
            r.owner = r.dst.take().expect("publishing a range with no destination");
            r.state = RangeState::Stable;
        })
    }

    /// Rolls `[lo, hi]` back to `Stable` on its original owner (crash
    /// recovery; valid from `Copying` or `Cutover`). Idempotent.
    pub(crate) fn abort_migration(&self, lo: u64, hi: u64) {
        let mut ranges = self.ranges.write();
        let Some(i) = Self::locate(&ranges, lo) else { return };
        let r = &mut ranges[i];
        if r.lo == lo && r.hi == hi && r.state != RangeState::Stable {
            r.state = RangeState::Stable;
            r.dst = None;
            r.epoch += 1;
        }
    }

    fn transition(
        &self,
        lo: u64,
        hi: u64,
        expect: RangeState,
        f: impl FnOnce(&mut RangeEntry),
    ) -> u64 {
        let mut ranges = self.ranges.write();
        let i = Self::locate(&ranges, lo).expect("range not mapped");
        let r = &mut ranges[i];
        assert!(r.lo == lo && r.hi == hi, "transition must name an exact range");
        assert_eq!(r.state, expect, "unexpected range state");
        f(r);
        r.epoch += 1;
        r.epoch
    }
}

/// Report of one completed migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Keys landed by the bulk-copy pass.
    pub copied: usize,
    /// Keys re-examined by the delta + purge pass (all surviving keys).
    pub purged: usize,
    /// Of those, keys whose version had moved since the bulk copy and
    /// were re-copied.
    pub recopied: usize,
    /// Fabric bytes moved by both passes.
    pub bytes: u64,
    /// The range's epoch after publish.
    pub epoch: u64,
}

/// Streams key ranges between machines; see the module docs for the
/// protocol. One instance can drive many migrations sequentially.
pub struct Resharder {
    cluster: Arc<Cluster>,
    map: Arc<RangeMap>,
    /// Per-node shards (identical geometry), indexed by node id. Grows
    /// when a membership join provisions a new node's shard
    /// ([`Resharder::add_shard`]).
    shards: RwLock<Vec<Arc<ClusterHash>>>,
    /// The purge-lock journal (same place on every node).
    journal: PurgeLock,
    /// State-word value that locks an entry for migration. The caller
    /// provides it (`LockState::write_locked(driver)` in core terms)
    /// so this crate stays free of the transaction layer.
    lock_word: u64,
    /// Reply queue for shipped operations issued by the resharder.
    reply_q: QueueId,
    exec: Executor,
    phase_hook: RwLock<Option<PhaseHook>>,
}

impl std::fmt::Debug for Resharder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resharder").field("shards", &self.shards.read().len()).finish()
    }
}

impl Resharder {
    /// Builds a resharder over one logical sharded table.
    pub fn new(
        cluster: Arc<Cluster>,
        map: Arc<RangeMap>,
        shards: Vec<Arc<ClusterHash>>,
        journal: PurgeLock,
        lock_word: u64,
        reply_q: QueueId,
        exec: Executor,
    ) -> Self {
        assert!(lock_word != 0, "lock word must be distinguishable from a free state");
        Resharder {
            cluster,
            map,
            shards: RwLock::new(shards),
            journal,
            lock_word,
            reply_q,
            exec,
            phase_hook: RwLock::new(None),
        }
    }

    /// Registers the shard of a newly joined node. Must be called in
    /// node-id order (shard `n` belongs to node `n`), before any range
    /// is migrated towards the node.
    pub fn add_shard(&self, shard: Arc<ClusterHash>) {
        self.shards.write().push(shard);
    }

    /// The shard owned by `node`.
    ///
    /// # Panics
    ///
    /// Panics if no shard was registered for `node`.
    pub fn shard(&self, node: NodeId) -> Arc<ClusterHash> {
        self.shards.read()[node as usize].clone()
    }

    /// Installs a hook called at each [`MigratePhase`] boundary of every
    /// subsequent [`Resharder::migrate`]. The hook runs on the migrating
    /// thread, so whatever it does (inject writes, sample throughput) is
    /// deterministically ordered against the protocol phases.
    pub fn set_phase_hook(&self, hook: impl Fn(MigratePhase) + Send + Sync + 'static) {
        *self.phase_hook.write() = Some(Box::new(hook));
    }

    fn phase(&self, p: MigratePhase) {
        if let Some(h) = self.phase_hook.read().as_ref() {
            h(p);
        }
    }

    /// The range map this resharder transitions.
    pub fn map(&self) -> &Arc<RangeMap> {
        &self.map
    }

    /// Migrates `[lo, hi]` from its current owner to `dst`, driven from
    /// `dst` (the destination pulls — its HTM inserts the copied rows).
    ///
    /// On a fabric error (an armed crash of `dst` at one of the migration
    /// crash sites, or the source dying under a read, the cutover barrier
    /// or a purge) the function returns immediately with *no cleanup* —
    /// exactly the garbage state [`Resharder::recover`] collects.
    pub fn migrate(&self, lo: u64, hi: u64, dst: NodeId) -> Result<MigrationReport, FabricError> {
        assert!(hi < BARRIER_KEY, "barrier key inside range");
        let src = self.map.owner_of(lo).expect("range not mapped");
        assert_ne!(src, dst);
        let faults = self.cluster.faults();
        let qp = self.cluster.qp(dst);
        let dst_region = self.cluster.node(dst).region();
        let dst_shard = self.shard(dst);
        let src_shard = self.shard(src);

        // Phase 1: bulk copy. Source stays writable; epoch bumps so
        // routing can tell "resolved before the migration" apart.
        self.map.begin_copy(lo, hi, dst).unwrap_or_else(|e| panic!("{e}"));
        let (bulk, mut bytes) = src_shard.try_remote_collect_range(&qp, lo, hi)?;
        let copied = bulk.len();
        // What the destination will hold after the bulk pass: the delta
        // pass compares the source against *this*, so inserts and
        // updates racing the copy window are re-copied.
        let on_dst: std::collections::HashMap<u64, u32> =
            bulk.iter().map(|e| (e.key, e.version)).collect();
        for e in &bulk {
            if faults.crash_hook(dst, MIGRATE_MID_COPY_SITE) {
                return Err(FabricError::PeerDead { node: dst });
            }
            dst_shard
                .upsert(&self.exec, dst_region, e.key, &e.value, e.version)
                .expect("destination shard out of space mid-migration");
        }
        self.phase(MigratePhase::Copied);
        if faults.crash_hook(dst, MIGRATE_BEFORE_CUTOVER_SITE) {
            return Err(FabricError::PeerDead { node: dst });
        }

        // Phase 2: freeze writes, then drain the source's FIFO store
        // queue so no shipped insert/delete is still in flight.
        self.map.begin_cutover(lo, hi);
        let barrier = StoreOp::Delete { table: TABLE, key: BARRIER_KEY };
        let r = ship_store_op(&qp, src, self.reply_q, &barrier)?;
        debug_assert_eq!(r, StoreReply::NotFound, "barrier key must not exist");
        self.phase(MigratePhase::CutoverDrained);

        // Phase 3: delta + purge, one journaled lock at a time.
        let (delta, delta_bytes) = src_shard.try_remote_collect_range(&qp, lo, hi)?;
        bytes += delta_bytes;
        let purged = delta.len();
        let mut recopied = 0usize;
        for e in &delta {
            let state_addr = GlobalAddr::new(src, e.entry_off);
            // Journal first, then the lock.
            self.journal.arm(dst_region, src, e.entry_off, self.lock_word);
            // Lock the entry on the source: in-flight fallback writers
            // holding it commit on the old owner first; we wait them out.
            let mut backoff = drtm_htm::backoff::Backoff::new();
            while qp.try_cas_u64(state_addr, 0, self.lock_word)? != 0 {
                backoff.snooze();
            }
            // Re-read under the lock: a write may have landed since the
            // bulk copy (the source was writable through phase 1).
            let mut image = vec![0u8; Entry::image_len(src_shard.desc().value_cap)];
            qp.try_read(state_addr, &mut image)?;
            bytes += image.len() as u64;
            let (h, value) = Entry::parse(&image);
            if h.key != e.key {
                // The entry vanished (an in-flight writer's delete
                // committed between the delta walk and our lock) and the
                // cell may have been reused for another key: we locked
                // an unrelated entry. Release our lock and move on.
                let r = qp.try_cas_u64(state_addr, self.lock_word, 0)?;
                debug_assert_eq!(r, self.lock_word, "migration lock stolen");
                self.journal.clear(dst_region);
                continue;
            }
            if on_dst.get(&h.key).copied() != Some(h.version) {
                // The destination's copy is stale or missing: the key
                // was inserted or updated after the bulk collect.
                dst_shard
                    .upsert(&self.exec, dst_region, h.key, &image[value], h.version)
                    .expect("destination shard out of space mid-migration");
                recopied += 1;
            }
            // Purge from the source. The host-side delete runs in HTM,
            // clears the state word (releasing our lock) and bumps the
            // incarnation — stale cached locations now fail their check.
            let purge = StoreOp::Delete { table: TABLE, key: e.key };
            let r = ship_store_op(&qp, src, self.reply_q, &purge)?;
            debug_assert_eq!(r, StoreReply::Ok, "purged key vanished while locked");
            self.journal.clear(dst_region);
            self.phase(MigratePhase::KeyPurged(e.key));
        }

        // Phase 4: publish. New resolutions route to dst; writers that
        // aborted Migrated during cutover retry against the new owner.
        let epoch = self.map.publish(lo, hi);
        Ok(MigrationReport { copied, purged, recopied, bytes, epoch })
    }

    /// Rolls back every migration in flight that `crashed` took part in
    /// (found in the range map: nobody has to remember the range),
    /// driving from `via`: releases the journaled purge lock — `crashed`'s
    /// own journal, and the destination's when `crashed` was the source —
    /// deletes the partially copied destination rows, and returns each
    /// range to `Stable` on its source. Idempotent. The rows are deleted
    /// by HTM on the destination's region, which works on a corpse too.
    ///
    /// Returns `(released_locks, dropped_rows)`.
    pub fn recover(&self, crashed: NodeId, via: NodeId) -> (u64, u64) {
        let qp = self.cluster.qp(via);
        let mut released = self.journal.release(&qp, crashed);
        let mut dropped = 0;
        for (lo, hi, dst) in self.map.in_flight(crashed) {
            released += self.journal.release(&qp, dst);
            let (dst_region, dst_shard) = (self.cluster.node(dst).region(), self.shard(dst));
            for row in dst_shard.collect_range_nt(dst_region, lo, hi) {
                dst_shard.delete(&self.exec, dst_region, row.key);
                dropped += 1;
            }
            self.map.abort_migration(lo, hi);
        }
        (released, dropped)
    }

    /// Survivor-driven evacuation of `[lo, hi]` from a *dead or
    /// retired* node's durable region into `to`'s shard: rows are read
    /// off `from`'s NVRAM directly (never through the fabric — `from`
    /// answers nothing), upserted into the receiver at their recorded
    /// versions, and deleted from the corpse's shard so a repeated
    /// evacuation is idempotent. The caller flips routing afterwards
    /// ([`RangeMap::reassign`]); until then readers still resolve to
    /// `from` and fail typed, exactly like any op against it.
    ///
    /// Returns the number of rows moved.
    pub fn evacuate_nt(&self, lo: u64, hi: u64, from: NodeId, to: NodeId) -> u64 {
        let from_shard = self.shard(from);
        let to_shard = self.shard(to);
        let from_region = self.cluster.node(from).region();
        let to_region = self.cluster.node(to).region();
        let rows = from_shard.collect_range_nt(from_region, lo, hi);
        let moved = rows.len() as u64;
        for row in rows {
            // A row can carry a lock word leaked by a transaction that
            // died with its owner; the WAL sweep must run before
            // evacuation, so by now every state word is 0.
            to_shard
                .upsert(&self.exec, to_region, row.key, &row.value, row.version)
                .expect("receiver shard out of space during evacuation");
            from_shard.delete(&self.exec, from_region, row.key);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Arena;
    use crate::rpc::spawn_store_service;
    use crate::{LocationCache, LookupResult};
    use drtm_htm::{HtmConfig, HtmStats};
    use drtm_rdma::rpc::{Service, DEAD_PEER_GRACE, RPC_MID_REQUEST_SITE};
    use drtm_rdma::{ClusterConfig, LatencyProfile};

    const LOCK_WORD: u64 = 0x8000_0000_0000_0001;

    struct Rig {
        cluster: Arc<Cluster>,
        shards: Vec<Arc<ClusterHash>>,
        journal: PurgeLock,
        resharder: Resharder,
        exec: Executor,
        _services: Vec<Service>,
    }

    fn rig() -> Rig {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 8 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        let mut shards = Vec::new();
        let mut services = Vec::new();
        let mut journal = None;
        for n in 0..2u16 {
            let mut arena = Arena::new(0, 8 << 20);
            journal = Some(PurgeLock::reserve(&mut arena)); // same place on both nodes
            let t = Arc::new(ClusterHash::create(&mut arena, n, 4, 2000, 64));
            services.push(spawn_store_service(cluster.clone(), n, vec![t.clone()], exec.clone()));
            shards.push(t);
        }
        let journal = journal.expect("two nodes");
        // Node 0 owns the low half, node 1 the high half.
        let map = Arc::new(RangeMap::new([(0, 499, 0), (500, 999, 1)]).unwrap());
        let resharder = Resharder::new(
            cluster.clone(),
            map,
            shards.clone(),
            journal,
            LOCK_WORD,
            0x5000,
            exec.clone(),
        );
        Rig { cluster, shards, journal, resharder, exec, _services: services }
    }

    fn fill(rig: &Rig, node: NodeId, keys: std::ops::Range<u64>) {
        let region = rig.cluster.node(node).region();
        for k in keys {
            rig.shards[node as usize].insert(&rig.exec, region, k, &k.to_le_bytes()).unwrap();
        }
    }

    #[test]
    fn route_follows_state_transitions() {
        let map = RangeMap::new([(0, 99, 0), (100, 199, 1)]).unwrap();
        let d = map.route(50).unwrap();
        assert_eq!((d.primary, d.forward, d.writable), (0, None, true));
        assert!(map.route(200).is_none());

        map.begin_copy(0, 49, 1).unwrap();
        let d = map.route(10).unwrap();
        assert_eq!((d.primary, d.writable), (0, true), "src writable during copy");
        // The split left [50,99] stable on node 0.
        assert_eq!(
            map.route(60).unwrap(),
            RouteDecision { primary: 0, forward: None, writable: true, epoch: 0 }
        );

        map.begin_cutover(0, 49);
        let d = map.route(10).unwrap();
        assert_eq!((d.primary, d.forward, d.writable), (0, Some(1), false));

        map.publish(0, 49);
        let d = map.route(10).unwrap();
        assert_eq!((d.primary, d.forward, d.writable), (1, None, true));
    }

    #[test]
    fn new_rejects_zero_width_and_overlapping_ranges() {
        assert_eq!(
            RangeMap::new([(10, 9, 0)]).err(),
            Some(RangeMapError::EmptyRange { lo: 10, hi: 9 })
        );
        assert_eq!(
            RangeMap::new([(0, 50, 0), (50, 99, 1)]).err(),
            Some(RangeMapError::Overlap { lo: 50 }),
            "inclusive bounds: sharing key 50 is an overlap"
        );
        assert_eq!(
            RangeMap::new([(40, 60, 1), (0, 99, 0)]).err(),
            Some(RangeMapError::Overlap { lo: 40 }),
            "containment is an overlap regardless of input order"
        );
        // A one-key range is valid (inclusive bounds).
        assert!(RangeMap::new([(5, 5, 0), (6, 9, 1)]).is_ok());
    }

    #[test]
    fn begin_copy_rejects_each_invalid_transition() {
        let map = RangeMap::new([(0, 99, 0), (200, 299, 1)]).unwrap();
        assert_eq!(
            map.begin_copy(30, 20, 1).err(),
            Some(RangeMapError::EmptyRange { lo: 30, hi: 20 })
        );
        assert_eq!(map.begin_copy(150, 160, 1).err(), Some(RangeMapError::NotMapped { key: 150 }));
        assert_eq!(
            map.begin_copy(50, 250, 1).err(),
            Some(RangeMapError::SpansEntries { lo: 50, hi: 250 })
        );
        assert_eq!(
            map.begin_copy(0, 99, 0).err(),
            Some(RangeMapError::DstIsOwner { dst: 0 }),
            "migrating to the current owner must be refused"
        );
        assert!(map.begin_copy(0, 49, 1).is_ok());
        assert_eq!(map.begin_copy(0, 49, 1).err(), Some(RangeMapError::AlreadyMigrating { lo: 0 }));
        // Routing is unharmed by all the rejections above.
        assert_eq!(map.owner_of(60), Some(0));
        assert_eq!(map.owner_of(250), Some(1));
    }

    #[test]
    fn reassign_flips_exact_stable_entries_only() {
        let map = RangeMap::new([(0, 99, 0), (100, 199, 1)]).unwrap();
        assert_eq!(
            map.reassign(0, 50, 2).err(),
            Some(RangeMapError::NotAnExactRange { lo: 0, hi: 50 })
        );
        assert_eq!(map.reassign(300, 310, 2).err(), Some(RangeMapError::NotMapped { key: 300 }));
        let e = map.reassign(0, 99, 2).unwrap();
        assert_eq!(map.owner_of(50), Some(2));
        assert_eq!(map.route(50).unwrap().epoch, e, "reassignment bumps the epoch");
        map.begin_copy(100, 199, 0).unwrap();
        assert_eq!(
            map.reassign(100, 199, 2).err(),
            Some(RangeMapError::AlreadyMigrating { lo: 100 }),
            "a range mid-migration cannot be force-reassigned"
        );
    }

    #[test]
    fn owned_ranges_and_donor_selection() {
        let map = RangeMap::new([(0, 99, 0), (100, 149, 1), (150, 199, 0), (200, 200, 2)]).unwrap();
        assert_eq!(map.ranges_owned_by(0), vec![(0, 99), (150, 199)]);
        // Donation: upper half of node 0's largest range.
        assert_eq!(map.donation_from(0), Some((50, 99)));
        // A one-key owner has nothing splittable to donate.
        assert_eq!(map.donation_from(2), None);
        // A range mid-migration is neither owned (for draining) nor
        // donated; recovery finds it, from either end, as in flight.
        map.begin_copy(0, 99, 1).unwrap();
        assert_eq!(map.ranges_owned_by(0), vec![(150, 199)]);
        assert_eq!(map.in_flight(0), vec![(0, 99, 1)]);
        assert_eq!(map.in_flight(1), vec![(0, 99, 1)]);
        assert!(map.in_flight(2).is_empty());
    }

    #[test]
    fn evacuation_moves_rows_off_a_corpse_without_the_fabric() {
        let rig = rig();
        fill(&rig, 0, 0..30);
        rig.cluster.faults().kill(0);
        // Node 0 is dead: evacuation reads its NVRAM directly.
        let moved = rig.resharder.evacuate_nt(0, 19, 0, 1);
        assert_eq!(moved, 20);
        assert_eq!(rig.shards[0].len(), 10, "evacuated rows deleted from the corpse");
        assert_eq!(rig.shards[1].len(), 20);
        rig.resharder.map().reassign(0, 499, 1).unwrap();
        let region = rig.cluster.node(1).region();
        let mut txn = region.begin(rig.exec.config());
        for k in 0..20u64 {
            let e = rig.shards[1].get_local(&mut txn, k).unwrap().expect("evacuated key");
            assert_eq!(
                {
                    let mut v = Vec::new();
                    e.read_value(&mut txn, &mut v).unwrap();
                    v
                },
                k.to_le_bytes()
            );
        }
        drop(txn);
        // Idempotent: a replayed evacuation finds nothing left.
        assert_eq!(rig.resharder.evacuate_nt(0, 19, 0, 1), 0);
    }

    #[test]
    fn abort_migration_restores_the_source() {
        let map = RangeMap::new([(0, 99, 0)]).unwrap();
        map.begin_copy(20, 40, 1).unwrap();
        map.abort_migration(20, 40);
        let d = map.route(30).unwrap();
        assert_eq!((d.primary, d.writable), (0, true));
        // Idempotent.
        map.abort_migration(20, 40);
        assert_eq!(map.owner_of(30), Some(0));
    }

    #[test]
    fn migrate_moves_a_range_and_conserves_keys() {
        let rig = rig();
        fill(&rig, 0, 0..100);
        let report = rig.resharder.migrate(0, 49, 1).unwrap();
        assert_eq!(report.copied, 50);
        assert_eq!(report.purged, 50);
        assert!(report.bytes > 0);
        assert_eq!(rig.resharder.map().owner_of(10), Some(1));
        // Source kept the unmigrated half, destination holds the range.
        assert_eq!(rig.shards[0].len(), 50);
        assert_eq!(rig.shards[1].len(), 50);
        let region = rig.cluster.node(1).region();
        let mut txn = region.begin(rig.exec.config());
        for k in 0..50u64 {
            let e = rig.shards[1].get_local(&mut txn, k).unwrap().expect("migrated key");
            assert_eq!(
                {
                    let mut v = Vec::new();
                    e.read_value(&mut txn, &mut v).unwrap();
                    v
                },
                k.to_le_bytes()
            );
        }
        drop(txn);
        // No leaked migration locks on either shard.
        for n in 0..2u16 {
            let region = rig.cluster.node(n).region();
            for row in rig.shards[n as usize].collect_range_nt(region, 0, 999) {
                assert_eq!(
                    region.read_u64_nt(row.entry_off),
                    0,
                    "leaked lock on key {} node {n}",
                    row.key
                );
            }
        }
    }

    #[test]
    fn writes_racing_the_copy_are_caught_by_the_delta_pass() {
        let rig = rig();
        fill(&rig, 0, 0..40);
        // Inject writes deterministically *after* the bulk copy landed
        // but while the range is still `Copying` (source writable): an
        // update of key 7 and a brand-new key 45. Neither is in the
        // destination's bulk image, so the delta pass must re-copy both
        // before the purge deletes them from the source.
        let cluster = rig.cluster.clone();
        let shard0 = rig.shards[0].clone();
        let exec = rig.exec.clone();
        rig.resharder.set_phase_hook(move |p| {
            if p == MigratePhase::Copied {
                let region = cluster.node(0).region();
                shard0.upsert(&exec, region, 7, &777u64.to_le_bytes(), 999).unwrap();
                shard0.upsert(&exec, region, 45, &4545u64.to_le_bytes(), 1).unwrap();
            }
        });
        let report = rig.resharder.migrate(0, 49, 1).unwrap();
        assert_eq!(report.copied, 40, "bulk pass ran before the racing writes");
        assert_eq!(report.recopied, 2, "the raced update and insert were re-copied");
        let region = rig.cluster.node(1).region();
        let mut txn = region.begin(rig.exec.config());
        for k in (0..40u64).chain([45]) {
            let e = rig.shards[1].get_local(&mut txn, k).unwrap().expect("key");
            let expect = if k == 7 {
                777u64
            } else if k == 45 {
                4545
            } else {
                k
            };
            assert_eq!(
                {
                    let mut v = Vec::new();
                    e.read_value(&mut txn, &mut v).unwrap();
                    v
                },
                expect.to_le_bytes()
            );
        }
        drop(txn);
        assert_eq!(rig.shards[0].len(), 0, "source fully purged, raced insert included");
    }

    #[test]
    fn cutover_tells_no_cache_and_the_incarnation_check_catches_every_key() {
        let rig = rig();
        fill(&rig, 0, 0..20);
        // Warm a client's cache with locations on the source.
        let qp = rig.cluster.qp(1);
        let cache = LocationCache::new(4, 16);
        let warm: Vec<_> = (0..20u64).map(|k| cache.lookup(&qp, &rig.shards[0], k)).collect();
        rig.resharder.migrate(0, 19, 1).unwrap();
        for (k, &found) in (0..20u64).zip(&warm) {
            let (addr, slot, _) = found.expect("populated");
            // The cache still answers with the old location, with no READ…
            assert_eq!(cache.lookup(&qp, &rig.shards[0], k), Some((addr, slot, 0)));
            // …which fails its incarnation check: the purge deleted it.
            assert_eq!(rig.shards[0].remote_read_entry(&qp, addr, &slot), None, "key {k}");
        }
        for k in 0..20u64 {
            cache.invalidate(&rig.shards[0], k);
            assert_eq!(cache.lookup(&qp, &rig.shards[0], k), None, "key {k} left the source");
            let moved = rig.shards[1].remote_lookup(&qp, k);
            assert!(matches!(moved, LookupResult::Found { .. }), "key {k} on the destination");
        }
        assert_eq!(cache.stats().invalidations, 20, "every invalidation is the caller's own");
    }

    #[test]
    fn crash_mid_copy_recovers_to_stable_source() {
        let rig = rig();
        fill(&rig, 0, 0..40);
        rig.cluster.faults().arm_crash(1, MIGRATE_MID_COPY_SITE);
        let err = rig.resharder.migrate(0, 39, 1).unwrap_err();
        assert_eq!(err, FabricError::PeerDead { node: 1 });
        assert!(rig.cluster.faults().is_crashed(1));
        let (released, _dropped) = rig.resharder.recover(1, 0);
        rig.cluster.faults().revive(1);
        assert_eq!(released, 0, "no lock taken before cutover");
        // All keys back on (never left) the source, none on dst, Stable.
        assert_eq!(rig.shards[0].len(), 40);
        assert_eq!(rig.shards[1].len(), 0);
        assert_eq!(rig.resharder.map().owner_of(5), Some(0));
        // A re-run completes.
        let report = rig.resharder.migrate(0, 39, 1).unwrap();
        assert_eq!(report.purged, 40);
        assert_eq!(rig.shards[1].len(), 40);
    }

    #[test]
    fn crash_before_cutover_recovers_and_rerun_succeeds() {
        let rig = rig();
        fill(&rig, 0, 0..30);
        rig.cluster.faults().arm_crash(1, MIGRATE_BEFORE_CUTOVER_SITE);
        assert!(rig.resharder.migrate(0, 29, 1).is_err());
        let (_released, dropped) = rig.resharder.recover(1, 0);
        rig.cluster.faults().revive(1);
        assert_eq!(dropped, 30, "full bulk copy rolled back");
        assert_eq!(rig.shards[0].len(), 30);
        assert_eq!(rig.shards[1].len(), 0);
        let report = rig.resharder.migrate(0, 29, 1).unwrap();
        assert_eq!(report.copied, 30);
    }

    #[test]
    fn source_dying_at_the_cutover_barrier_is_a_typed_error() {
        // Dead before the barrier is posted: the SEND itself fails.
        let before = rig();
        fill(&before, 0, 0..20);
        let cluster = before.cluster.clone();
        before.resharder.set_phase_hook(move |p| {
            if p == MigratePhase::Copied {
                cluster.faults().kill(0);
            }
        });
        let err = before.resharder.migrate(0, 19, 1).unwrap_err();
        assert_eq!(err, FabricError::PeerDead { node: 0 });
        // Dying with the barrier request in hand — the migration's first
        // shipped operation: the client's next poll, not a hang.
        let holding = rig();
        fill(&holding, 0, 0..20);
        holding.cluster.faults().arm_crash(0, RPC_MID_REQUEST_SITE);
        let t0 = std::time::Instant::now();
        let err = holding.resharder.migrate(0, 19, 1).unwrap_err();
        assert_eq!(err, FabricError::PeerDead { node: 0 });
        assert!(t0.elapsed() < DEAD_PEER_GRACE / 2, "a poll slice, not the grace period");
        assert_eq!(holding.shards[0].len(), 20, "the barrier never ran, nothing was purged");
    }

    #[test]
    fn journal_roundtrip_releases_orphaned_lock() {
        let rig = rig();
        fill(&rig, 0, 0..5);
        // Fake a crash with the journal armed and the lock held.
        let region0 = rig.cluster.node(0).region();
        let rows = rig.shards[0].collect_range_nt(region0, 2, 2);
        let off = rows[0].entry_off;
        assert_eq!(region0.cas_u64_nt(off, 0, LOCK_WORD), 0);
        rig.journal.arm(rig.cluster.node(1).region(), 0, off, LOCK_WORD);
        let (released, _) = rig.resharder.recover(1, 0);
        assert_eq!(released, 1);
        assert_eq!(region0.read_u64_nt(off), 0, "lock released");
        // Second recovery finds a clean journal.
        assert_eq!(rig.resharder.recover(1, 0).0, 0);
    }

    #[test]
    fn torn_purge_lock_record_releases_nothing() {
        let rig = rig();
        fill(&rig, 0, 0..5);
        let region0 = rig.cluster.node(0).region();
        let off = rig.shards[0].collect_range_nt(region0, 2, 2)[0].entry_off;
        // Someone else holds exactly the word the torn record names.
        assert_eq!(region0.cas_u64_nt(off, 0, LOCK_WORD), 0);
        // The crash window of `arm` on node 1: payload landed, status
        // word did not (the payload bytes are those a full arm writes).
        rig.journal.arm(region0, 0, off, LOCK_WORD);
        let payload = rig.journal.0.payload(region0, 0);
        rig.journal.clear(region0);
        let region1 = rig.cluster.node(1).region();
        rig.journal.0.arm(region1, 0, &payload, 0);
        assert_eq!(rig.journal.armed(region1), None, "a torn record reads as idle");
        assert_eq!(rig.resharder.recover(1, 0), (0, 0), "recovery touches nothing");
        assert_eq!(region0.read_u64_nt(off), LOCK_WORD, "the lock is not ours to release");
    }
}
