//! Cooperative durability logging (§4.6, Figure 7).
//!
//! Each worker owns one log *slot* in its machine's region (standing in
//! for battery-backed NVRAM under the flush-on-failure policy): a
//! [`Journal`] — the durable-record primitive that owns the byte layout
//! and the payload-before-status ordering — with a lock-ahead area and a
//! write-ahead area under one status word. Because a worker
//! executes one transaction at a time and completes its write-backs
//! before starting the next, a slot only ever holds the records of the
//! in-flight transaction:
//!
//! * the **lock-ahead log** (the transaction's write set) is persisted
//!   *before* any exclusive locking, so recovery knows which records to
//!   unlock if the machine dies mid-transaction;
//! * the **write-ahead log** is written *inside* the HTM region together
//!   with the status word, so the all-or-nothing property of HTM
//!   guarantees it exists iff `XEND` succeeded — exactly the paper's
//!   trick. The fallback (2PL) handler stages the same record
//!   non-transactionally, strictly *before* it applies any update or
//!   releases any lock (log-persist-before-unlock, the HTPM ordering);
//! * a completion marker (status 0) is written after the write-backs.
//!
//! Each logged update carries the record's new version, which recovery
//! uses to apply updates at-most-once (§4.6: "each record piggybacks a
//! version to decide the order of updates"). The write-ahead record also
//! embeds the transaction's full lock list so a valid WAL is
//! self-contained: recovery can release locks the crashed worker still
//! held — including declared-but-unwritten records and half-released
//! fallback locks — without trusting the (possibly stale) lock-ahead
//! area of the slot.

use drtm_htm::{vtime, Abort, HtmTxn, Region};
use drtm_memstore::journal::{put_u16, put_u32, put_u64, Journal, Reader};
use drtm_memstore::Arena;
use drtm_rdma::{GlobalAddr, NodeId};

use crate::record::RecordAddr;

/// Slot status: no in-flight transaction.
pub const LOG_EMPTY: u64 = 0;
/// Slot status: lock-ahead log valid (transaction not yet committed).
pub const LOG_LOCK_AHEAD: u64 = 1;
/// Slot status: write-ahead log valid (transaction committed).
pub const LOG_WRITE_AHEAD: u64 = 2;
/// Slot status low byte: a surviving machine has claimed this slot for
/// recovery (the full claim word also carries the claimer and the
/// original status — see [`recovering_status`]).
pub const LOG_RECOVERING: u64 = 3;

/// The slot's two payload areas: the lock-ahead record and, behind it,
/// the write-ahead record.
const LOCK_AHEAD: usize = 0;
const WRITE_AHEAD: usize = 1;

/// Encodes the claim word a recovering survivor CASes into a slot's
/// status word: `LOG_RECOVERING` in the low byte, the claimer machine in
/// bits 8..24, and the original status being recovered in bits 24..
/// Racing survivors CAS this word over the original status; the winner
/// repairs the slot, losers skip it, so each slot is repaired — and
/// counted in a [`crate::RecoveryReport`] — exactly once.
pub fn recovering_status(via: NodeId, orig: u64) -> u64 {
    LOG_RECOVERING | (via as u64) << 8 | orig << 24
}

/// Decodes a claim word into `(claimer, original status)`; `None` if the
/// word is not a recovery claim.
pub fn recovering_parts(word: u64) -> Option<(NodeId, u64)> {
    (word & 0xFF == LOG_RECOVERING).then_some(((word >> 8) as u16, word >> 24))
}

/// One update in a write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedUpdate {
    /// Record being updated.
    pub rec: RecordAddr,
    /// Version the record must carry after the update.
    pub version: u32,
    /// New value bytes.
    pub value: Vec<u8>,
}

/// Decoded write-ahead record: the updates to redo plus every lock the
/// transaction held when the WAL became valid.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalRecord {
    /// Every record the transaction held a write lock on (a superset of
    /// `updates`' records: buffers declared but never written appear
    /// here only).
    pub locks: Vec<RecordAddr>,
    /// Updates to redo, in apply order.
    pub updates: Vec<LoggedUpdate>,
}

/// Appends one record address: `node, offset, value_cap`.
fn put_addr(buf: &mut Vec<u8>, r: &RecordAddr) {
    put_u16(buf, r.addr.node);
    put_u64(buf, r.addr.offset as u64);
    put_u64(buf, r.value_cap as u64);
}

fn addr(r: &mut Reader<'_>) -> RecordAddr {
    let (node, offset, cap) = (r.u16(), r.u64() as usize, r.u64() as usize);
    RecordAddr::new(GlobalAddr::new(node, offset), cap)
}

/// Appends a record list: `n, n × address`.
fn put_addrs(buf: &mut Vec<u8>, recs: &[RecordAddr]) {
    put_u16(buf, recs.len() as u16);
    recs.iter().for_each(|r| put_addr(buf, r));
}

fn addrs(r: &mut Reader<'_>) -> Vec<RecordAddr> {
    (0..r.u16()).map(|_| addr(r)).collect()
}

/// Chopping information for a piece of a chopped parent transaction
/// (§3, §4.6): enough for recovery to know where to resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChopInfo {
    /// Application-defined parent-transaction kind.
    pub kind: u16,
    /// Index of the piece currently executing.
    pub piece: u16,
    /// Total pieces of the parent transaction.
    pub total: u16,
    /// Application-defined argument (e.g. TPC-C warehouse id).
    pub arg: u16,
}

impl ChopInfo {
    fn encode(&self) -> u64 {
        1u64 << 63
            | (self.kind as u64) << 48
            | (self.piece as u64) << 32
            | (self.total as u64) << 16
            | self.arg as u64
    }

    fn decode(w: u64) -> Option<ChopInfo> {
        if w >> 63 == 0 {
            return None;
        }
        Some(ChopInfo {
            kind: (w >> 48 & 0x7FFF) as u16,
            piece: (w >> 32) as u16,
            total: (w >> 16) as u16,
            arg: w as u16,
        })
    }
}

/// Virtual ns of persisting one log record to NVRAM — a lock-ahead
/// record, a write-ahead record (plus `len / 8` for its bytes) or the
/// chopping information. Sized so logging costs a TPC-C transaction a
/// few µs, Table 6's 11.6 % throughput loss on the paper's new-order;
/// `tab6_durability` measures it.
pub const NVRAM_WRITE_NS: u64 = 2_000;

/// One worker's log slot: a [`Journal`] client. The status word says
/// which record is valid (`LOG_*`), the journal's client word holds the
/// chopping information, its two areas the lock-ahead and the write-ahead
/// record. The virtual cost of persisting to NVRAM is charged here.
#[derive(Debug, Clone, Copy)]
pub struct LogSlot {
    journal: Journal,
}

impl LogSlot {
    /// Carves one worker's slot out of `arena`: a 1 KiB lock-ahead and a
    /// 16 KiB write-ahead area.
    pub fn reserve(arena: &mut Arena) -> Journal {
        Journal::reserve(arena, [1 << 10, 16 << 10])
    }

    /// Creates a handle over a reserved slot.
    pub fn new(journal: Journal) -> Self {
        LogSlot { journal }
    }

    /// Persists the lock-ahead log (non-transactional: happens before the
    /// HTM region, Figure 7 left). Returns the bytes persisted.
    pub fn log_lock_ahead(&self, region: &Region, write_set: &[RecordAddr]) -> usize {
        let mut buf = Vec::with_capacity(2 + write_set.len() * 18);
        put_addrs(&mut buf, write_set);
        vtime::charge(NVRAM_WRITE_NS);
        self.journal.arm(region, LOCK_AHEAD, &buf, LOG_LOCK_AHEAD)
    }

    /// Stages the write-ahead log: every update, for redo, after the
    /// list of locks the transaction holds. Returns the bytes staged.
    ///
    /// With `txn`, *inside* that HTM transaction: the log bytes and the
    /// status word become visible atomically with `XEND`. Without — the
    /// fallback handler runs outside HTM — with non-transactional stores,
    /// which the caller must order strictly before applying any update
    /// or releasing any lock (§6.2, the HTPM log-before-unlock ordering);
    /// this variant cannot fail.
    pub fn log_write_ahead(
        &self,
        txn: Option<&mut HtmTxn<'_>>,
        region: &Region,
        locks: &[RecordAddr],
        updates: &[LoggedUpdate],
    ) -> Result<usize, Abort> {
        let mut buf = Vec::new();
        put_addrs(&mut buf, locks);
        put_u16(&mut buf, updates.len() as u16);
        for u in updates {
            put_addr(&mut buf, &u.rec);
            put_u32(&mut buf, u.version);
            put_u32(&mut buf, u.value.len() as u32);
            buf.extend_from_slice(&u.value);
        }
        vtime::charge(NVRAM_WRITE_NS + buf.len() as u64 / 8);
        match txn {
            Some(txn) => self.journal.arm_in(txn, WRITE_AHEAD, &buf, LOG_WRITE_AHEAD),
            None => Ok(self.journal.arm(region, WRITE_AHEAD, &buf, LOG_WRITE_AHEAD)),
        }
    }

    /// Marks the transaction fully written back (slot reusable).
    pub fn log_done(&self, region: &Region) {
        self.journal.clear(region);
    }

    /// Persists chopping information ahead of a transaction piece
    /// (Figure 7: "logs chopping information ... used to instruct DrTM
    /// on which transaction piece to execute after recovery").
    pub fn log_chop(&self, region: &Region, info: ChopInfo) {
        vtime::charge(NVRAM_WRITE_NS);
        self.journal.set_word(region, info.encode());
    }

    /// Clears the chopping information (parent transaction finished).
    pub fn clear_chop(&self, region: &Region) {
        self.journal.set_word(region, 0);
    }

    /// Recovery-side read of pending chopping information.
    pub fn read_chop(&self, region: &Region) -> Option<ChopInfo> {
        ChopInfo::decode(self.journal.word(region))
    }

    /// Recovery-side read of the slot status.
    pub fn read_status(&self, region: &Region) -> u64 {
        self.journal.status(region)
    }

    /// Claims the slot for repair by machine `via` and returns the status
    /// being recovered, or `None` when there is nothing to claim: the
    /// slot is empty, or a peer that is not `reclaimable` (a live one)
    /// holds the claim. A claim of `via` itself or of a `reclaimable`
    /// (crashed) claimer is taken over, so recovery can be re-run after
    /// a recoverer died.
    pub fn claim(
        &self,
        region: &Region,
        via: NodeId,
        reclaimable: impl Fn(NodeId) -> bool,
    ) -> Option<u64> {
        loop {
            let cur = self.journal.status(region);
            let orig = match cur {
                LOG_LOCK_AHEAD | LOG_WRITE_AHEAD => cur,
                w => match recovering_parts(w) {
                    Some((claimer, orig)) if claimer == via || reclaimable(claimer) => orig,
                    _ => return None,
                },
            };
            if self.journal.claim(region, cur, recovering_status(via, orig)) {
                return Some(orig);
            }
            // Lost the race; re-read — the winner's claim decides.
        }
    }

    /// Recovery-side decode of the lock-ahead record list.
    pub fn read_lock_ahead(&self, region: &Region) -> Vec<RecordAddr> {
        addrs(&mut Reader::new(&self.journal.payload(region, LOCK_AHEAD)))
    }

    /// Recovery-side decode of the write-ahead record (lock list plus
    /// updates).
    pub fn read_write_ahead(&self, region: &Region) -> WalRecord {
        let payload = self.journal.payload(region, WRITE_AHEAD);
        let mut r = Reader::new(&payload);
        let locks = addrs(&mut r);
        let updates = (0..r.u16())
            .map(|_| {
                let rec = addr(&mut r);
                let (version, len) = (r.u32(), r.u32() as usize);
                LoggedUpdate { rec, version, value: r.bytes(len).to_vec() }
            })
            .collect();
        WalRecord { locks, updates }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::HtmConfig;

    fn slot() -> (Region, LogSlot) {
        let mut arena = Arena::new(64, 64 << 10);
        (Region::new(64 << 10), LogSlot::new(LogSlot::reserve(&mut arena)))
    }

    fn rec(node: u16, off: usize) -> RecordAddr {
        RecordAddr::new(GlobalAddr::new(node, off), 64)
    }

    #[test]
    fn lock_ahead_roundtrip() {
        let (region, slot) = slot();
        let recs = vec![rec(1, 4096), rec(3, 8192)];
        let n = slot.log_lock_ahead(&region, &recs);
        assert_eq!(n, 4 + 2 + 2 * 18, "length prefix + count + 2 addrs");
        assert_eq!(slot.read_status(&region), LOG_LOCK_AHEAD);
        assert_eq!(slot.read_lock_ahead(&region), recs);
        slot.log_done(&region);
        assert_eq!(slot.read_status(&region), LOG_EMPTY);
    }

    #[test]
    fn write_ahead_is_atomic_with_htm_commit() {
        let (region, slot) = slot();
        let locks = vec![rec(2, 256), rec(4, 512)];
        let ups = vec![LoggedUpdate { rec: rec(2, 256), version: 7, value: b"abc".to_vec() }];
        // Aborted transaction: no write-ahead log appears (Figure 7(a)).
        let cfg = HtmConfig::default();
        let mut txn = region.begin(&cfg);
        slot.log_write_ahead(Some(&mut txn), &region, &locks, &ups).unwrap();
        drop(txn); // abort
        assert_eq!(slot.read_status(&region), LOG_EMPTY);
        // Committed transaction: log and status appear together.
        let mut txn = region.begin(&cfg);
        let n = slot.log_write_ahead(Some(&mut txn), &region, &locks, &ups).unwrap();
        assert!(n > 0);
        txn.commit().unwrap();
        assert_eq!(slot.read_status(&region), LOG_WRITE_AHEAD);
        let wal = slot.read_write_ahead(&region);
        assert_eq!(wal.locks, locks);
        assert_eq!(wal.updates, ups);
    }

    #[test]
    fn nt_write_ahead_for_fallback() {
        let (region, slot) = slot();
        let ups = vec![
            LoggedUpdate { rec: rec(0, 128), version: 1, value: vec![9; 40] },
            LoggedUpdate { rec: rec(5, 640), version: 2, value: vec![] },
        ];
        // The lock list may name records absent from the updates
        // (declared-but-unwritten buffers) — they round-trip too.
        let locks = vec![rec(0, 128), rec(5, 640), rec(7, 960)];
        let n = slot.log_write_ahead(None, &region, &locks, &ups).unwrap();
        assert!(n > 0);
        assert_eq!(slot.read_status(&region), LOG_WRITE_AHEAD);
        let wal = slot.read_write_ahead(&region);
        assert_eq!(wal.locks, locks);
        assert_eq!(wal.updates, ups);
    }

    #[test]
    fn chop_info_roundtrips_and_clears() {
        let (region, slot) = slot();
        assert_eq!(slot.read_chop(&region), None);
        let info = ChopInfo { kind: 3, piece: 4, total: 10, arg: 7 };
        slot.log_chop(&region, info);
        assert_eq!(slot.read_chop(&region), Some(info));
        slot.clear_chop(&region);
        assert_eq!(slot.read_chop(&region), None);
        // Piece 0 of kind 0 is still distinguishable from "no info".
        slot.log_chop(&region, ChopInfo { kind: 0, piece: 0, total: 1, arg: 0 });
        assert!(slot.read_chop(&region).is_some());
    }

    #[test]
    fn recovery_claim_word_roundtrips() {
        for via in [0u16, 1, 5, 4095] {
            for orig in [LOG_LOCK_AHEAD, LOG_WRITE_AHEAD] {
                let w = recovering_status(via, orig);
                assert_eq!(w & 0xFF, LOG_RECOVERING);
                assert_eq!(recovering_parts(w), Some((via, orig)));
            }
        }
        assert_eq!(recovering_parts(LOG_EMPTY), None);
        assert_eq!(recovering_parts(LOG_LOCK_AHEAD), None);
        assert_eq!(recovering_parts(LOG_WRITE_AHEAD), None);
    }

    #[test]
    fn torn_write_ahead_record_is_not_recovered() {
        use crate::{recover_node, LockState, NodeLayout, RecoveryReport};
        use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 1 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let layout = NodeLayout::reserve(&mut Arena::new(0, 1 << 20), 1);
        let slot = LogSlot::new(layout.log_slots[0]);
        let region = cluster.node(0).region();
        // A record on machine 1 that machine 0 holds locked, and the
        // write-ahead payload of an update to it.
        let locked = LockState::write_locked(0).0;
        let target = rec(1, 512 << 10);
        let held = cluster.node(1).region();
        assert_eq!(held.cas_u64_nt(target.addr.offset, 0, locked), 0);
        let ups = vec![LoggedUpdate { rec: target, version: 5, value: vec![7; 8] }];
        slot.log_write_ahead(None, region, &[target], &ups).unwrap();
        let payload = slot.journal.payload(region, WRITE_AHEAD);
        slot.log_done(region);
        // The crash window of the non-transactional stage: payload
        // written, status word not.
        slot.journal.arm(region, WRITE_AHEAD, &payload, LOG_EMPTY);
        assert_eq!(slot.read_status(region), LOG_EMPTY, "a torn record reads as an empty slot");
        assert_eq!(slot.claim(region, 1, |_| true), None, "and is never claimed");
        assert_eq!(recover_node(&cluster, 0, &layout, 1), RecoveryReport::default());
        let state = held.cas_u64_nt(target.addr.offset, locked, locked);
        assert_eq!(state, locked, "recovery released nothing");
        let version = crate::record::read_version(&cluster.qp(1), &target, true);
        assert_eq!(version, Ok(0), "and redid nothing");
    }

    #[test]
    fn empty_sets_encode() {
        let (region, slot) = slot();
        slot.log_lock_ahead(&region, &[]);
        assert!(slot.read_lock_ahead(&region).is_empty());
        let cfg = HtmConfig::default();
        let mut txn = region.begin(&cfg);
        slot.log_write_ahead(Some(&mut txn), &region, &[], &[]).unwrap();
        txn.commit().unwrap();
        let wal = slot.read_write_ahead(&region);
        assert!(wal.locks.is_empty());
        assert!(wal.updates.is_empty());
    }
}
