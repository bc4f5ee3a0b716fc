//! Cooperative durability logging (§4.6, Figure 7).
//!
//! Each worker owns one log *slot* in its machine's region (standing in
//! for battery-backed NVRAM under the flush-on-failure policy): a status
//! word plus a lock-ahead area and a write-ahead area. Because a worker
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
use drtm_rdma::GlobalAddr;

use crate::alloc_layout::LogSlotLayout;
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

/// Encodes the claim word a recovering survivor CASes into a slot's
/// status word: `LOG_RECOVERING` in the low byte, the claimer machine in
/// bits 8..24, and the original status being recovered in bits 24..
/// Racing survivors CAS this word over the original status; the winner
/// repairs the slot, losers skip it, so each slot is repaired — and
/// counted in a [`crate::RecoveryReport`] — exactly once.
pub fn recovering_status(via: drtm_rdma::NodeId, orig: u64) -> u64 {
    LOG_RECOVERING | (via as u64) << 8 | orig << 24
}

/// Decodes a claim word into `(claimer, original status)`; `None` if the
/// word is not a recovery claim.
pub fn recovering_parts(word: u64) -> Option<(drtm_rdma::NodeId, u64)> {
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

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a>(&'a [u8], usize);

impl Reader<'_> {
    fn u16(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.0[self.1..self.1 + 2].try_into().expect("log"));
        self.1 += 2;
        v
    }

    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.0[self.1..self.1 + 4].try_into().expect("log"));
        self.1 += 4;
        v
    }

    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.0[self.1..self.1 + 8].try_into().expect("log"));
        self.1 += 8;
        v
    }

    fn bytes(&mut self, n: usize) -> &[u8] {
        let v = &self.0[self.1..self.1 + n];
        self.1 += n;
        v
    }
}

/// Encodes a record list: `n, n × (node, offset, value_cap)`.
fn encode_addrs(recs: &[RecordAddr]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + recs.len() * 18);
    put_u16(&mut buf, recs.len() as u16);
    for r in recs {
        put_u16(&mut buf, r.addr.node);
        put_u64(&mut buf, r.addr.offset as u64);
        put_u64(&mut buf, r.value_cap as u64);
    }
    buf
}

fn decode_addrs(r: &mut Reader<'_>) -> Vec<RecordAddr> {
    let n = r.u16() as usize;
    (0..n)
        .map(|_| {
            let node = r.u16();
            let offset = r.u64() as usize;
            let cap = r.u64() as usize;
            RecordAddr::new(GlobalAddr::new(node, offset), cap)
        })
        .collect()
}

fn encode_updates(ups: &[LoggedUpdate]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u16(&mut buf, ups.len() as u16);
    for u in ups {
        put_u16(&mut buf, u.rec.addr.node);
        put_u64(&mut buf, u.rec.addr.offset as u64);
        put_u64(&mut buf, u.rec.value_cap as u64);
        put_u32(&mut buf, u.version);
        put_u32(&mut buf, u.value.len() as u32);
        buf.extend_from_slice(&u.value);
    }
    buf
}

fn decode_updates(r: &mut Reader<'_>) -> Vec<LoggedUpdate> {
    let n = r.u16() as usize;
    (0..n)
        .map(|_| {
            let node = r.u16();
            let offset = r.u64() as usize;
            let cap = r.u64() as usize;
            let version = r.u32();
            let len = r.u32() as usize;
            let value = r.bytes(len).to_vec();
            LoggedUpdate {
                rec: RecordAddr::new(GlobalAddr::new(node, offset), cap),
                version,
                value,
            }
        })
        .collect()
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

/// Writer-side view of one worker's log slot.
#[derive(Debug, Clone, Copy)]
pub struct LogSlot {
    layout: LogSlotLayout,
    nvram_write_ns: u64,
}

impl LogSlot {
    /// Creates a handle over the given slot layout.
    pub fn new(layout: LogSlotLayout, nvram_write_ns: u64) -> Self {
        LogSlot { layout, nvram_write_ns }
    }

    /// Persists the lock-ahead log (non-transactional: happens before the
    /// HTM region, Figure 7 left). Returns the bytes persisted.
    pub fn log_lock_ahead(&self, region: &Region, write_set: &[RecordAddr]) -> usize {
        let buf = encode_addrs(write_set);
        assert!(buf.len() + 4 <= self.layout.lock_ahead_cap, "lock-ahead log overflow");
        vtime::charge(self.nvram_write_ns);
        region.write_nt(self.layout.lock_ahead_off, &(buf.len() as u32).to_le_bytes());
        region.write_nt(self.layout.lock_ahead_off + 4, &buf);
        region.write_u64_nt(self.layout.status_off, LOG_LOCK_AHEAD);
        buf.len() + 4
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
        let mut buf = encode_addrs(locks);
        buf.extend_from_slice(&encode_updates(updates));
        assert!(buf.len() + 4 <= self.layout.write_ahead_cap, "write-ahead log overflow");
        vtime::charge(self.nvram_write_ns + buf.len() as u64 / 8);
        let len = (buf.len() as u32).to_le_bytes();
        let off = self.layout.write_ahead_off;
        match txn {
            Some(txn) => {
                txn.write(off, &len)?;
                txn.write(off + 4, &buf)?;
                txn.write_u64(self.layout.status_off, LOG_WRITE_AHEAD)?;
            }
            None => {
                region.write_nt(off, &len);
                region.write_nt(off + 4, &buf);
                region.write_u64_nt(self.layout.status_off, LOG_WRITE_AHEAD);
            }
        }
        Ok(buf.len() + 4)
    }

    /// Marks the transaction fully written back (slot reusable).
    pub fn log_done(&self, region: &Region) {
        region.write_u64_nt(self.layout.status_off, LOG_EMPTY);
    }

    /// Persists chopping information ahead of a transaction piece
    /// (Figure 7: "logs chopping information ... used to instruct DrTM
    /// on which transaction piece to execute after recovery").
    pub fn log_chop(&self, region: &Region, info: ChopInfo) {
        vtime::charge(self.nvram_write_ns);
        region.write_u64_nt(self.layout.chop_off, info.encode());
    }

    /// Clears the chopping information (parent transaction finished).
    pub fn clear_chop(&self, region: &Region) {
        region.write_u64_nt(self.layout.chop_off, 0);
    }

    /// Recovery-side read of pending chopping information.
    pub fn read_chop(&self, region: &Region) -> Option<ChopInfo> {
        ChopInfo::decode(region.read_u64_nt(self.layout.chop_off))
    }

    /// Recovery-side read of the slot status.
    pub fn read_status(&self, region: &Region) -> u64 {
        region.read_u64_nt(self.layout.status_off)
    }

    /// Recovery-side decode of the lock-ahead record list.
    pub fn read_lock_ahead(&self, region: &Region) -> Vec<RecordAddr> {
        let mut lenb = [0u8; 4];
        region.read_nt(self.layout.lock_ahead_off, &mut lenb);
        let len = u32::from_le_bytes(lenb) as usize;
        let mut buf = vec![0u8; len];
        region.read_nt(self.layout.lock_ahead_off + 4, &mut buf);
        decode_addrs(&mut Reader(&buf, 0))
    }

    /// Recovery-side decode of the write-ahead record (lock list plus
    /// updates).
    pub fn read_write_ahead(&self, region: &Region) -> WalRecord {
        let mut lenb = [0u8; 4];
        region.read_nt(self.layout.write_ahead_off, &mut lenb);
        let len = u32::from_le_bytes(lenb) as usize;
        let mut buf = vec![0u8; len];
        region.read_nt(self.layout.write_ahead_off + 4, &mut buf);
        let mut r = Reader(&buf, 0);
        let locks = decode_addrs(&mut r);
        let updates = decode_updates(&mut r);
        WalRecord { locks, updates }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::HtmConfig;

    fn slot() -> (Region, LogSlot) {
        let region = Region::new(64 << 10);
        let layout = LogSlotLayout {
            status_off: 64,
            chop_off: 72,
            lock_ahead_off: 128,
            lock_ahead_cap: 1024,
            write_ahead_off: 2048,
            write_ahead_cap: 8192,
        };
        (region, LogSlot::new(layout, 0))
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
