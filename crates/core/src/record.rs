//! Record-level protocol operations (Figures 5 and 6).
//!
//! Remote records are locked and fetched with one-sided RDMA CAS + READ
//! before the HTM region starts; local records are checked against the
//! state word *inside* the HTM region, with an explicit abort when a
//! remote transaction holds the record. Together these implement the
//! hybrid HTM + 2PL concurrency control of §4.

use std::ops::Range;

use drtm_htm::{Abort, HtmTxn};
use drtm_memstore::{Entry, EntryHeader};
use drtm_rdma::{FabricError, GlobalAddr, Qp};

use crate::state::{LockState, INIT};

/// Explicit-abort code: local access found the record write-locked.
pub const ABORT_LOCKED: u8 = 0x10;
/// Explicit-abort code: local write found an unexpired read lease.
pub const ABORT_LEASED: u8 = 0x11;
/// Explicit-abort code: lease confirmation failed at commit.
pub const ABORT_LEASE_EXPIRED: u8 = 0x12;

/// A resolved record: the global address of its entry plus the table's
/// fixed value capacity (the size of one-sided fetches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordAddr {
    /// Global address of the entry's first byte (the state word).
    pub addr: GlobalAddr,
    /// Value capacity of the owning table.
    pub value_cap: usize,
}

impl RecordAddr {
    /// Creates a record handle.
    pub fn new(addr: GlobalAddr, value_cap: usize) -> Self {
        RecordAddr { addr, value_cap }
    }

    /// The field offsets of the entry this record is.
    pub fn entry(&self) -> Entry {
        Entry::at(self.addr.offset)
    }

    /// Bytes of one full-entry fetch.
    pub(crate) fn fetch_len(&self) -> usize {
        Entry::image_len(self.value_cap)
    }
}

/// Why a remote lock/lease acquisition failed (the transaction must
/// release everything it holds and retry — §4.3's ABORT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockConflict {
    /// Another machine holds the exclusive lock.
    WriteLocked {
        /// The owner machine recorded in the state word.
        owner: u8,
    },
    /// An unexpired read lease blocks the write lock.
    Leased {
        /// The lease end time in µs.
        end_us: u64,
    },
    /// The lease is in the ±delta ambiguity window; conservatively
    /// treated as a conflict.
    Ambiguous,
    /// The record's machine is crashed (or the op timed out): nothing
    /// was acquired, and retrying is pointless until recovery runs.
    PeerDead {
        /// The machine believed dead.
        node: u16,
    },
    /// The record's machine left the cluster gracefully: its QPs are
    /// closed for good. The transaction routed through a stale range
    /// map; re-resolving the key against the current map is the fix,
    /// not recovery.
    Retired {
        /// The retired machine.
        node: u16,
    },
}

/// Maps a fabric failure to the conflict it is — the one statement of
/// the rule every caller follows, inside a transaction or outside (see
/// `TxnError`'s `From<FabricError>`). A timeout is conservatively
/// treated as a dead peer: the failure detector owns the difference.
/// Retirement is kept distinct — it is a routing error, not a crash.
pub(crate) fn conflict_of(e: FabricError) -> LockConflict {
    match e {
        FabricError::PeerDead { node } | FabricError::Timeout { node } => {
            LockConflict::PeerDead { node }
        }
        FabricError::NodeRetired { node } => LockConflict::Retired { node },
    }
}

/// A record fetched under its lock or lease during the Start phase; a
/// worker's own fetches keep the value as a span of its arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FetchedRecord<V = Vec<u8>> {
    /// The record's entry header as fetched.
    pub header: EntryHeader,
    /// The value bytes.
    pub value: V,
    /// For shared locks: the lease end this reader is covered by.
    pub lease_end_us: u64,
}

/// A fetched record whose value is a span of the caller's arena.
pub(crate) type Held = FetchedRecord<Range<usize>>;

/// Lease confirmation (§4.3, Figure 8): whether a lease ending at
/// `lease_end_us` can no longer be vouched for at softtime `now_us` —
/// the negation of `VALID`, and the one predicate every strategy and
/// every read-only transaction confirms with.
pub(crate) fn lease_unconfirmed(lease_end_us: u64, now_us: u64, delta_us: u64) -> bool {
    now_us + delta_us > lease_end_us
}

/// What one acquisition asks of a record's state word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Claim {
    pub(crate) rec: RecordAddr,
    /// The state word to install: a write lock or a lease. It also says
    /// what an unexpired lease of someone else means: a lease shares it
    /// (no write to the state word, hence no false abort of local
    /// readers), a write lock conflicts with it.
    pub(crate) desired: LockState,
    /// CPU CAS instead of the NIC's (only sound under `IBV_ATOMIC_GLOB`,
    /// §6.3: the ordered-2PL strategy and read-only transactions on a
    /// record of their own machine).
    pub(crate) local: bool,
}

/// Where one claim of a wave stands.
#[derive(Debug)]
pub(crate) enum Attempt {
    /// CAS next, expecting this state word: `INIT` first, then whatever
    /// expired lease the previous CAS met.
    Cas {
        expected: u64,
    },
    Held(Held),
}

/// One claim of a wave and where it stands; reused across waves.
pub(crate) type Wave = Vec<(Claim, Result<Attempt, LockConflict>)>;

/// The outcome of a claim once [`acquire_wave`] returned.
pub(crate) fn held(at: &Result<Attempt, LockConflict>) -> Result<&Held, LockConflict> {
    match at {
        Ok(Attempt::Held(h)) => Ok(h),
        Ok(Attempt::Cas { .. }) => unreachable!("the wave loop ends with no CAS left to post"),
        Err(c) => Err(*c),
    }
}

/// One step of Figure 5's lock loop: posts the CAS driving the state
/// word from `expected` to the claim's and, chained behind it on the same
/// queue pair, the full-entry fetch into the end of `out` —
/// speculatively: when the CAS loses, the fetched bytes are left
/// unreferenced in `out` and never reach the transaction.
/// (A refused CAS leaves the queue pair in error: nothing is posted
/// behind it.)
fn post_attempt(
    qp: &Qp,
    c: &Claim,
    expected: u64,
    now_us: u64,
    delta_us: u64,
    out: &mut Vec<u8>,
) -> Result<Attempt, LockConflict> {
    let old = if c.local {
        qp.local_cas_u64(c.rec.addr.offset, expected, c.desired.0)
    } else {
        qp.post_cas_u64(c.rec.addr, expected, c.desired.0).map_err(conflict_of)?
    };
    let at = out.len();
    out.resize(at + c.rec.fetch_len(), 0);
    let fetched = qp.post_read(c.rec.addr, &mut out[at..]).map_err(conflict_of);
    let st = LockState(old);
    // The lease end now covering the record (0 under a write lock: its
    // word carries no lease bits).
    let lease_end_us = if old == expected {
        c.desired.lease_end_us()
    } else if st.is_write_locked() {
        return Err(LockConflict::WriteLocked { owner: st.owner() });
    } else if st.lease_valid(now_us, delta_us) {
        if c.desired.is_write_locked() {
            return Err(LockConflict::Leased { end_us: st.lease_end_us() });
        }
        st.lease_end_us()
    } else if !st.lease_expired(now_us, delta_us) {
        return Err(LockConflict::Ambiguous);
    } else {
        return Ok(Attempt::Cas { expected: old });
    };
    fetched?;
    let (header, value) = Entry::parse(&out[at..]);
    Ok(Attempt::Held(Held { header, value: at + value.start..at + value.end, lease_end_us }))
}

/// Acquires every claim (Figure 5) in waves: posts each record's CAS and
/// fetch, waits once, then posts the next wave for the records whose CAS
/// met an expired lease — it reclaims the lease by expecting it — until
/// every claim is held or has conflicted. Leaves one outcome per claim in
/// `wave`, in order (read it with [`held`]), and the fetched bytes in
/// `out`; a claim's outcome says nothing about its neighbours: the
/// caller releases what a failed wave won.
pub(crate) fn acquire_wave(
    qp: &Qp,
    wave: &mut Wave,
    claims: impl Iterator<Item = Claim>,
    now_us: u64,
    delta_us: u64,
    out: &mut Vec<u8>,
) {
    wave.clear();
    wave.extend(claims.map(|c| (c, Ok(Attempt::Cas { expected: INIT }))));
    loop {
        let mut posted = false;
        for (c, at) in wave.iter_mut() {
            if let Ok(Attempt::Cas { expected }) = *at {
                *at = post_attempt(qp, c, expected, now_us, delta_us, out);
                posted = true;
            }
        }
        if !posted {
            break;
        }
        qp.wait();
    }
}

/// One claim, acquired on its own, its value copied out.
fn one(qp: &Qp, claim: Claim, now_us: u64, delta_us: u64) -> Result<FetchedRecord, LockConflict> {
    let (mut wave, mut out) = (Vec::new(), Vec::new());
    acquire_wave(qp, &mut wave, [claim].into_iter(), now_us, delta_us, &mut out);
    let h = held(&wave[0].1)?;
    let value = out[h.value.clone()].to_vec();
    Ok(FetchedRecord { header: h.header, value, lease_end_us: h.lease_end_us })
}

/// `REMOTE_READ` (Figure 5): acquire, share, or — once expired — reclaim
/// a read lease ending at `end_us`, then fetch the record. A
/// write-locked record is a conflict.
///
/// `local` selects the CPU CAS instead of the NIC's (only sound under
/// `IBV_ATOMIC_GLOB`, §6.3).
pub fn remote_read(
    qp: &Qp,
    rec: &RecordAddr,
    end_us: u64,
    now_us: u64,
    delta_us: u64,
    local: bool,
) -> Result<FetchedRecord, LockConflict> {
    one(qp, Claim { rec: *rec, desired: LockState::leased(end_us), local }, now_us, delta_us)
}

/// The locking half of `REMOTE_WRITE` (Figure 5): acquire the exclusive
/// lock as machine `owner`, then fetch the record (its version is needed
/// for the write-back). `local` as for [`remote_read`].
pub fn remote_lock_write(
    qp: &Qp,
    rec: &RecordAddr,
    owner: u8,
    now_us: u64,
    delta_us: u64,
    local: bool,
) -> Result<FetchedRecord, LockConflict> {
    let desired = LockState::write_locked(owner);
    one(qp, Claim { rec: *rec, desired, local }, now_us, delta_us)
}

/// Posts `bytes` at region offset `off` of the record's machine: a
/// coherent CPU store into the owning machine's region when `local` (the
/// ordered-2PL strategy on its own machine, or recovery writing into a
/// corpse's durable region), a posted one-sided WRITE otherwise. The
/// *only* thing `local` selects on the release side.
fn post_store(
    qp: &Qp,
    rec: &RecordAddr,
    off: usize,
    bytes: &[u8],
    local: bool,
) -> Result<(), FabricError> {
    if local {
        qp.cluster().node(rec.addr.node).region().write_nt(off, bytes);
        Ok(())
    } else {
        qp.post_write(GlobalAddr::new(rec.addr.node, off), bytes)
    }
}

/// Posts `REMOTE_WRITE_BACK` (Figure 5): the committed update, then the
/// release of the exclusive lock (INIT into the state word). Fails if the
/// target dies between stores.
///
/// One ordering for both store paths — **value, version, state** — kept
/// for posted WRITEs by the queue pair's per-destination FIFO: the value
/// before the version is [`Entry::store_value`]'s rule (an interrupted
/// write-back is always redone by recovery); the state word goes last,
/// so no reader can observe the new state with the old value: the record
/// stays write-locked throughout.
pub(crate) fn post_write_back(
    qp: &Qp,
    rec: &RecordAddr,
    new_version: u32,
    value: &[u8],
    local: bool,
) -> Result<(), FabricError> {
    debug_assert!(value.len() <= rec.value_cap, "value exceeds table capacity");
    let store = |off, bytes: &[u8]| post_store(qp, rec, off, bytes, local);
    rec.entry().store_value(new_version, value, store)?;
    post_unlock(qp, rec, local)
}

/// Posts the release of an exclusive lock without writing data (the
/// ABORT path, and the last step of every write-back): INIT into the
/// state word. Releasing a lock *on* a crashed machine fails, which is
/// fine — the whole machine's lock table dies with it and `recover_node`
/// sweeps whatever our logs say we held there.
pub(crate) fn post_unlock(qp: &Qp, rec: &RecordAddr, local: bool) -> Result<(), FabricError> {
    post_store(qp, rec, rec.entry().state_off(), &INIT.to_le_bytes(), local)
}

/// `REMOTE_WRITE_BACK`: posts the write-back (value, version, state — see
/// the crate-private `post_write_back`), then waits for its completions.
pub fn remote_write_back(
    qp: &Qp,
    rec: &RecordAddr,
    new_version: u32,
    value: &[u8],
    local: bool,
) -> Result<(), FabricError> {
    let posted = post_write_back(qp, rec, new_version, value, local);
    qp.wait();
    posted
}

/// Posts the release of an exclusive lock (INIT into the state word),
/// then waits for its completion.
pub fn remote_unlock(qp: &Qp, rec: &RecordAddr, local: bool) -> Result<(), FabricError> {
    let posted = post_unlock(qp, rec, local);
    qp.wait();
    posted
}

/// Recovery's read of the record's version: a load from the owning
/// machine's (durable) region when `local`, a one-sided READ otherwise.
pub fn read_version(qp: &Qp, rec: &RecordAddr, local: bool) -> Result<u32, FabricError> {
    let mut v = [0u8; 4];
    if local {
        qp.cluster().node(rec.addr.node).region().read_nt(rec.entry().version_off(), &mut v);
    } else {
        qp.try_read(GlobalAddr::new(rec.addr.node, rec.entry().version_off()), &mut v)?;
    }
    Ok(u32::from_le_bytes(v))
}

/// Recovery's release of the write lock machine `owner` died holding:
/// if the state word still says so, CAS it to INIT — a CAS, so a
/// concurrent release is never clobbered and racing recoverers count each
/// release once. Returns whether this call released the lock. `local` as
/// for [`read_version`].
pub fn release_if_owned(
    qp: &Qp,
    rec: &RecordAddr,
    owner: u8,
    local: bool,
) -> Result<bool, FabricError> {
    let region = qp.cluster().node(rec.addr.node).region();
    let st = LockState(if local {
        region.read_u64_nt(rec.addr.offset)
    } else {
        qp.try_read_u64(rec.addr)?
    });
    if !st.is_write_locked() || st.owner() != owner {
        return Ok(false);
    }
    let old = if local {
        region.cas_u64_nt(rec.addr.offset, st.0, INIT)
    } else {
        qp.try_cas_u64(rec.addr, st.0, INIT)?
    };
    Ok(old == st.0)
}

/// `LOCAL_READ` (Figure 6): inside the HTM region, check the state word
/// (abort if write-locked; leases are overlooked — HTM protects the
/// read) and append the value to `out`.
pub fn local_read(
    txn: &mut HtmTxn<'_>,
    off: usize,
    out: &mut Vec<u8>,
) -> Result<EntryHeader, Abort> {
    let entry = Entry::at(off);
    let h = entry.read_header(txn)?;
    if LockState(h.state).is_write_locked() {
        return Err(Abort::Explicit(ABORT_LOCKED));
    }
    entry.read_value(txn, out)?;
    Ok(h)
}

/// `LOCAL_WRITE` (Figure 6): inside the HTM region, check both lock
/// kinds, actively clear an expired lease (adding the state to the HTM
/// write set — deliberately not done for reads to avoid false aborts),
/// then write the value and bump the version.
pub fn local_write(
    txn: &mut HtmTxn<'_>,
    entry_off: usize,
    value: &[u8],
    now_us: u64,
    delta_us: u64,
) -> Result<(), Abort> {
    let entry = Entry::at(entry_off);
    let h = entry.read_header(txn)?;
    let st = LockState(h.state);
    if st.is_write_locked() {
        return Err(Abort::Explicit(ABORT_LOCKED));
    }
    if st.lease_valid(now_us, delta_us) {
        return Err(Abort::Explicit(ABORT_LEASED));
    }
    if !st.is_init() {
        if !st.lease_expired(now_us, delta_us) {
            // Ambiguity window around the lease end.
            return Err(Abort::Explicit(ABORT_LEASED));
        }
        txn.write_u64(entry_off, INIT)?;
    }
    entry.write_value(txn, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::HtmConfig;
    use drtm_memstore::{Arena, ClusterHash};
    use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};
    use std::sync::Arc;

    const DELTA: u64 = 10;

    fn setup() -> (Arc<Cluster>, ClusterHash, RecordAddr) {
        setup_with(32)
    }

    /// Two machines; key 1 lives on machine 0 in a table of `value_cap`
    /// value bytes and is resolved from machine 1.
    fn setup_with(value_cap: usize) -> (Arc<Cluster>, ClusterHash, RecordAddr) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(64, (4 << 20) - 64);
        let table = ClusterHash::create(&mut arena, 0, 16, 100, value_cap);
        let exec =
            drtm_htm::Executor::new(HtmConfig::default(), Arc::new(drtm_htm::HtmStats::new()));
        table.insert(&exec, cluster.node(0).region(), 1, b"v0").unwrap();
        let qp = cluster.qp(1);
        let addr = match table.remote_lookup(&qp, 1) {
            drtm_memstore::LookupResult::Found { addr, .. } => addr,
            _ => panic!("populated"),
        };
        let rec = RecordAddr::new(addr, value_cap);
        (cluster, table, rec)
    }

    #[test]
    fn read_lease_then_share() {
        let (cluster, _t, rec) = setup();
        let qp = cluster.qp(1);
        let r1 = remote_read(&qp, &rec, 5000, 1000, DELTA, false).unwrap();
        assert_eq!(r1.value, b"v0");
        assert_eq!(r1.lease_end_us, 5000);
        // Second reader shares the existing lease (keeps its end).
        let cas_before = cluster.counters().snapshot().cas;
        let r2 = remote_read(&qp, &rec, 7000, 1000, DELTA, false).unwrap();
        assert_eq!(r2.lease_end_us, 5000);
        assert_eq!(cluster.counters().snapshot().cas, cas_before + 1, "share = one failed CAS");
    }

    #[test]
    fn expired_lease_reclaimed_by_reader_and_writer() {
        let (cluster, _t, rec) = setup();
        let qp = cluster.qp(1);
        remote_read(&qp, &rec, 2000, 1000, DELTA, false).unwrap();
        // Reader after expiry installs a fresh lease.
        let r = remote_read(&qp, &rec, 9000, 5000, DELTA, false).unwrap();
        assert_eq!(r.lease_end_us, 9000);
        // Writer after expiry takes the exclusive lock.
        let w = remote_lock_write(&qp, &rec, 3, 20_000, DELTA, false).unwrap();
        assert_eq!(w.value, b"v0");
        let st = LockState(qp.read_u64(rec.addr));
        assert!(st.is_write_locked());
        assert_eq!(st.owner(), 3);
    }

    #[test]
    fn lease_blocks_writer_and_lock_blocks_everyone() {
        let (cluster, _t, rec) = setup();
        let qp = cluster.qp(1);
        remote_read(&qp, &rec, 5000, 1000, DELTA, false).unwrap();
        assert_eq!(
            remote_lock_write(&qp, &rec, 3, 1000, DELTA, false),
            Err(LockConflict::Leased { end_us: 5000 })
        );
        // Take the lock (after expiry) and verify readers/writers bounce.
        remote_lock_write(&qp, &rec, 3, 20_000, DELTA, false).unwrap();
        assert_eq!(
            remote_read(&qp, &rec, 30_000, 25_000, DELTA, false),
            Err(LockConflict::WriteLocked { owner: 3 })
        );
        assert_eq!(
            remote_lock_write(&qp, &rec, 4, 25_000, DELTA, false),
            Err(LockConflict::WriteLocked { owner: 3 })
        );
    }

    #[test]
    fn write_back_updates_and_unlocks() {
        let (cluster, table, rec) = setup();
        let qp = cluster.qp(1);
        let w = remote_lock_write(&qp, &rec, 3, 1000, DELTA, false).unwrap();
        remote_write_back(&qp, &rec, w.header.version + 1, b"new value!", false).unwrap();
        let st = LockState(qp.read_u64(rec.addr));
        assert!(st.is_init());
        // Visible to local reads.
        let region = cluster.node(0).region();
        let cfg = HtmConfig::default();
        let mut txn = region.begin(&cfg);
        let e = table.get_local(&mut txn, 1).unwrap().unwrap();
        assert_eq!(
            {
                let mut v = Vec::new();
                e.read_value(&mut txn, &mut v).unwrap();
                v
            },
            b"new value!"
        );
        let h = local_read(&mut txn, e.offset, &mut Vec::new()).unwrap();
        assert_eq!(h.version, w.header.version + 1);
    }

    #[test]
    fn cpu_and_nic_write_back_leave_identical_records() {
        // One body, two store primitives: whatever `local` selects, the
        // record ends up byte-identical (header, padding, value) and
        // unlocked.
        let image = |local: bool| {
            let (cluster, _t, rec) = setup();
            let qp = cluster.qp(1);
            let w = remote_lock_write(&qp, &rec, 3, 1000, DELTA, false).unwrap();
            remote_write_back(&qp, &rec, w.header.version + 1, b"new value!", local).unwrap();
            let mut bytes = vec![0u8; rec.fetch_len()];
            cluster.node(0).region().read_nt(rec.addr.offset, &mut bytes);
            bytes
        };
        let nic = image(false);
        assert_eq!(LockState(u64::from_le_bytes(nic[..8].try_into().unwrap())).0, INIT);
        assert_eq!(image(true), nic);
    }

    #[test]
    fn kv_write_and_txn_write_back_leave_identical_entries() {
        // The KV write (`remote_write_value`, then the unlock) and the
        // transaction write-back store through one `Entry::store_value`:
        // the same version and value leave the same bytes, for a value
        // inside its stack buffer and one past it.
        for value in [vec![7u8; 10], vec![9u8; 200]] {
            let image = |kv: bool| {
                let (cluster, table, rec) = setup_with(256);
                let qp = cluster.qp(1);
                let version =
                    remote_lock_write(&qp, &rec, 3, 1000, DELTA, false).unwrap().header.version + 1;
                if kv {
                    table.remote_write_value(&qp, rec.addr, version, &value);
                    remote_unlock(&qp, &rec, false).unwrap();
                } else {
                    remote_write_back(&qp, &rec, version, &value, false).unwrap();
                }
                let mut bytes = vec![0u8; rec.fetch_len()];
                cluster.node(0).region().read_nt(rec.addr.offset, &mut bytes);
                bytes
            };
            let kv = image(true);
            assert_eq!(image(false), kv, "{} value bytes", value.len());
            let (h, span) = Entry::parse(&kv);
            assert_eq!((h.state, h.version, &kv[span]), (INIT, 1, &value[..]));
        }
    }

    #[test]
    fn abort_unlock_restores_init() {
        let (cluster, _t, rec) = setup();
        let qp = cluster.qp(1);
        remote_lock_write(&qp, &rec, 9, 1000, DELTA, false).unwrap();
        remote_unlock(&qp, &rec, false).unwrap();
        assert!(LockState(qp.read_u64(rec.addr)).is_init());
    }

    #[test]
    fn local_read_aborts_on_write_lock_but_ignores_lease() {
        let (cluster, table, rec) = setup();
        let qp = cluster.qp(1);
        let region = cluster.node(0).region();
        let cfg = HtmConfig::default();
        // Leased: local read proceeds (HTM protects it).
        remote_read(&qp, &rec, 5000, 1000, DELTA, false).unwrap();
        let mut txn = region.begin(&cfg);
        let e = table.get_local(&mut txn, 1).unwrap().unwrap();
        assert!(local_read(&mut txn, e.offset, &mut Vec::new()).is_ok());
        drop(txn);
        // Write-locked: local read explicitly aborts.
        remote_lock_write(&qp, &rec, 2, 20_000, DELTA, false).unwrap();
        let mut txn = region.begin(&cfg);
        let e = table.get_local(&mut txn, 1).unwrap().unwrap();
        assert_eq!(
            local_read(&mut txn, e.offset, &mut Vec::new()),
            Err(Abort::Explicit(ABORT_LOCKED))
        );
    }

    #[test]
    fn local_write_respects_lease_and_clears_expired() {
        let (cluster, table, rec) = setup();
        let qp = cluster.qp(1);
        let region = cluster.node(0).region();
        let cfg = HtmConfig::default();
        remote_read(&qp, &rec, 5000, 1000, DELTA, false).unwrap();
        // Valid lease blocks the local write.
        let mut txn = region.begin(&cfg);
        let e = table.get_local(&mut txn, 1).unwrap().unwrap();
        assert_eq!(
            local_write(&mut txn, e.offset, b"w", 1000, DELTA),
            Err(Abort::Explicit(ABORT_LEASED))
        );
        drop(txn);
        // Expired lease is actively cleared and the write proceeds.
        let mut txn = region.begin(&cfg);
        let e = table.get_local(&mut txn, 1).unwrap().unwrap();
        local_write(&mut txn, e.offset, b"w", 20_000, DELTA).unwrap();
        txn.commit().unwrap();
        assert!(LockState(qp.read_u64(rec.addr)).is_init(), "expired lease cleared");
        let mut txn = region.begin(&cfg);
        let e = table.get_local(&mut txn, 1).unwrap().unwrap();
        assert_eq!(
            {
                let mut v = Vec::new();
                local_read(&mut txn, e.offset, &mut v).unwrap();
                v
            },
            b"w"
        );
    }

    #[test]
    fn crashed_target_surfaces_peer_dead() {
        let (cluster, _t, rec) = setup();
        cluster.faults().kill(0);
        let qp = cluster.qp(1);
        let dead = Err(LockConflict::PeerDead { node: 0 });
        assert_eq!(remote_lock_write(&qp, &rec, 3, 1000, DELTA, false), dead);
        assert_eq!(remote_read(&qp, &rec, 5000, 1000, DELTA, false), dead);
        assert!(remote_unlock(&qp, &rec, false).is_err());
        assert!(remote_write_back(&qp, &rec, 1, b"x", false).is_err());
        // Memory of the corpse is untouched by any of the failures.
        cluster.faults().revive(0);
        let r = remote_read(&qp, &rec, 5000, 1000, DELTA, false).unwrap();
        assert_eq!(r.value, b"v0");
    }

    /// One cell of Table 2: a local access inside HTM and a remote one to
    /// the same record, the local one first (`local_first`) or second.
    /// Returns how the local transaction ends; the remote access always
    /// succeeds, as the NIC does not see HTM.
    fn table2_cell(local_wr: bool, remote_wr: bool, local_first: bool) -> Result<(), Abort> {
        let (cluster, table, rec) = setup();
        let qp = cluster.qp(1);
        let remote = || {
            if remote_wr {
                remote_lock_write(&qp, &rec, 1, 1_000, DELTA, false).map(drop)
            } else {
                // A read installs its lease with a CAS on the state word.
                remote_read(&qp, &rec, 50_000, 1_000, DELTA, false).map(drop)
            }
        };
        if !local_first {
            remote().unwrap();
        }
        let region = cluster.node(0).region();
        let cfg = HtmConfig::default();
        let mut txn = region.begin(&cfg);
        let e = table.get_local(&mut txn, 1).unwrap().unwrap();
        let local = if local_wr {
            local_write(&mut txn, e.offset, b"w", 1_000, DELTA).map(drop)
        } else {
            local_read(&mut txn, e.offset, &mut Vec::new()).map(drop)
        };
        if local_first {
            assert!(local.is_ok(), "record starts unlocked");
            remote().unwrap();
        }
        local.and_then(|()| txn.commit())
    }

    #[test]
    fn table2_conflict_matrix() {
        use Abort::{Conflict, Explicit};
        // Rows L_RD, L_WR; columns R_RD after, R_RD before, R_WR after,
        // R_WR before ("after": the remote access comes second). A local
        // access that comes first is aborted by the NIC's write to its
        // read set; one that comes second aborts itself on the lock or
        // lease it finds.
        let table: [[(Result<(), Abort>, &str); 4]; 2] = [
            [
                // The single false conflict (Figure 2(b)): R_RD writes the
                // state word a local reader has in its read set.
                (Err(Conflict), "R_RD's lease CAS aborts an earlier local reader"),
                (Ok(()), "a lease is shared with a local reader"),
                (Err(Conflict), "a remote lock aborts an earlier local reader"),
                (Err(Explicit(ABORT_LOCKED)), "a local read finds the remote lock"),
            ],
            [
                (Err(Conflict), "a remote lease aborts an earlier local writer"),
                (Err(Explicit(ABORT_LEASED)), "a local write finds the remote lease"),
                (Err(Conflict), "a remote lock aborts an earlier local writer"),
                (Err(Explicit(ABORT_LOCKED)), "a local write finds the remote lock"),
            ],
        ];
        let mut shown = [['?'; 4]; 2];
        for (local_wr, row) in [false, true].into_iter().zip(&table) {
            for (col, (want, case)) in row.iter().enumerate() {
                let (remote_wr, local_first) = (col >= 2, col % 2 == 0);
                let got = table2_cell(local_wr, remote_wr, local_first);
                assert_eq!(&got, want, "{case}");
                shown[local_wr as usize][col] = if got.is_ok() { 'S' } else { 'C' };
            }
        }
        let [l_rd, l_wr] = shown;
        // Paper values: L_RD row = C S C C ... with the first C being the
        // false conflict of Figure 2(b); L_WR row = C C C C.
        assert_eq!(l_rd, ['C', 'S', 'C', 'C'], "L_RD row must match Table 2");
        assert_eq!(l_wr, ['C', 'C', 'C', 'C'], "L_WR row must match Table 2");
    }
}
