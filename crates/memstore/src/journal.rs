//! Durable records: the one NVRAM record format and its ordering rule.
//!
//! Everything this system stores to survive a machine's death — a
//! worker's transaction log (§4.6, Figure 7), the purge lock of a
//! migration, the progress of a join or a leave — is a [`Journal`] in the
//! machine's region, which stands in for battery-backed NVRAM under the
//! flush-on-failure policy: a survivor reads it with plain loads after
//! the owner died. One rule makes that safe, and it is stated here only:
//!
//! * **Payload first, status word last.** [`Journal::arm`] stores the
//!   length prefix, the payload, then the status word. A record torn by a
//!   crash between the stores has status 0, and status 0 reads as "nothing
//!   here" whatever the payload bytes hold.
//! * **Or all at once.** [`Journal::arm_in`] issues the same stores inside
//!   an HTM transaction: they appear with `XEND` or not at all.
//! * **A recoverer claims by CAS** on the status word
//!   ([`Journal::claim`]), so racing survivors repair a record once.
//! * **Clear is one store** of 0 into the status word.
//!
//! A journal is one 64-byte head line — the status word, then one word
//! the client may keep beside it — followed by up to two payload areas,
//! each a `u32` length prefix and the payload bytes. What the status
//! values mean and what the payload encodes is the client's business; the
//! byte codec the clients share ([`put_u16`] …, [`Reader`]) is here too.

use drtm_htm::{Abort, HtmTxn, Region};

use crate::alloc::Arena;

/// Bytes of the head line in front of the payload areas.
const HEAD: usize = 64;
/// Offset of the client word inside the head line.
const WORD: usize = 8;

/// One durable record at a fixed place of every machine's region (the
/// handle holds offsets only: the same journal exists on every machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Journal {
    off: usize,
    /// Capacity of each payload area, length prefix included.
    areas: [usize; 2],
}

impl Journal {
    /// Carves a journal with payload areas of `areas` bytes (0 = absent)
    /// out of `arena`.
    pub fn reserve(arena: &mut Arena, areas: [usize; 2]) -> Journal {
        Journal { off: arena.reserve(HEAD + areas[0] + areas[1]), areas }
    }

    fn area_off(&self, area: usize) -> usize {
        self.off + HEAD + self.areas[..area].iter().sum::<usize>()
    }

    /// The three stores of an arm, in the order the rule demands.
    fn stores<'a>(
        &self,
        area: usize,
        len: &'a [u8; 4],
        payload: &'a [u8],
        status: &'a [u8; 8],
    ) -> [(usize, &'a [u8]); 3] {
        assert!(payload.len() + 4 <= self.areas[area], "journal area {area} overflow");
        let at = self.area_off(area);
        [(at, len), (at + 4, payload), (self.off, status)]
    }

    /// Persists `payload` into `area`, then sets the status word. Returns
    /// the bytes persisted (length prefix included).
    pub fn arm(&self, region: &Region, area: usize, payload: &[u8], status: u64) -> usize {
        let (len, status) = ((payload.len() as u32).to_le_bytes(), status.to_le_bytes());
        for (off, bytes) in self.stores(area, &len, payload, &status) {
            region.write_nt(off, bytes);
        }
        payload.len() + 4
    }

    /// [`Journal::arm`] inside `txn`: payload and status word become
    /// visible atomically with its `XEND`, or never.
    pub fn arm_in(
        &self,
        txn: &mut HtmTxn<'_>,
        area: usize,
        payload: &[u8],
        status: u64,
    ) -> Result<usize, Abort> {
        let (len, status) = ((payload.len() as u32).to_le_bytes(), status.to_le_bytes());
        for (off, bytes) in self.stores(area, &len, payload, &status) {
            txn.write(off, bytes)?;
        }
        Ok(payload.len() + 4)
    }

    /// The status word; 0 means the journal holds nothing.
    pub fn status(&self, region: &Region) -> u64 {
        region.read_u64_nt(self.off)
    }

    /// The payload last stored into `area`. Only meaningful under a
    /// non-zero status that names this area.
    pub fn payload(&self, region: &Region, area: usize) -> Vec<u8> {
        let at = self.area_off(area);
        let mut len = [0u8; 4];
        region.read_nt(at, &mut len);
        let mut buf = vec![0u8; (u32::from_le_bytes(len) as usize).min(self.areas[area] - 4)];
        region.read_nt(at + 4, &mut buf);
        buf
    }

    /// Status and payload of `area`, or `None` while the journal is idle.
    pub fn read(&self, region: &Region, area: usize) -> Option<(u64, Vec<u8>)> {
        let status = self.status(region);
        (status != 0).then(|| (status, self.payload(region, area)))
    }

    /// Claims the record for repair: CAS of the status word from
    /// `expected` to `claim`. Exactly one of several racing recoverers
    /// wins; an idle journal (`expected` 0) is never claimed.
    pub fn claim(&self, region: &Region, expected: u64, claim: u64) -> bool {
        expected != 0 && region.cas_u64_nt(self.off, expected, claim) == expected
    }

    /// Moves an armed record to another status with one store (a done
    /// mark); the payload stays.
    pub fn set_status(&self, region: &Region, status: u64) {
        region.write_u64_nt(self.off, status);
    }

    /// Clears the journal: one store.
    pub fn clear(&self, region: &Region) {
        self.set_status(region, 0);
    }

    /// The client word kept beside the status word. It is not covered by
    /// the status word: a client gives it a self-describing encoding.
    pub fn word(&self, region: &Region) -> u64 {
        region.read_u64_nt(self.off + WORD)
    }

    /// Stores the client word.
    pub fn set_word(&self, region: &Region, word: u64) {
        region.write_u64_nt(self.off + WORD, word);
    }
}

/// Appends `v` little-endian.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a payload written with the `put_*` functions.
///
/// # Panics
///
/// Every accessor panics when the payload is shorter than what is asked
/// of it: a complete record never is, and recovery trusts nothing else.
#[derive(Debug)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// Starts at the first byte of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Reader(payload)
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.bytes(2).try_into().expect("2 bytes"))
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.bytes(4).try_into().expect("4 bytes"))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.bytes(8).try_into().expect("8 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::HtmConfig;

    fn rig() -> (Region, Journal) {
        let mut arena = Arena::new(0, 1 << 16);
        arena.reserve(64);
        (Region::new(1 << 16), Journal::reserve(&mut arena, [64, 256]))
    }

    #[test]
    fn arm_read_clear_roundtrip_per_area() {
        let (region, j) = rig();
        assert_eq!(j.read(&region, 0), None);
        assert_eq!(j.arm(&region, 0, b"lock", 1), 8);
        assert_eq!(j.read(&region, 0), Some((1, b"lock".to_vec())));
        // The second area has its own bytes under the shared status word.
        j.arm(&region, 1, b"write-ahead", 2);
        assert_eq!(j.read(&region, 1), Some((2, b"write-ahead".to_vec())));
        assert_eq!(j.payload(&region, 0), b"lock");
        j.set_status(&region, 7);
        assert_eq!(j.read(&region, 1), Some((7, b"write-ahead".to_vec())));
        j.clear(&region);
        assert_eq!(j.status(&region), 0);
        assert_eq!(j.read(&region, 1), None, "a cleared journal is idle whatever it holds");
    }

    #[test]
    fn torn_record_is_idle_and_unclaimable() {
        // Payload written, status word not: the crash window of `arm`.
        let (region, j) = rig();
        j.arm(&region, 1, b"half a record", 0);
        assert_eq!(j.payload(&region, 1), b"half a record", "the bytes did land");
        assert_eq!(j.read(&region, 1), None, "read is idle");
        assert!(!j.claim(&region, 0, 9), "claim fails");
        assert_eq!(j.status(&region), 0, "and stores nothing");
    }

    #[test]
    fn claim_is_won_once() {
        let (region, j) = rig();
        j.arm(&region, 0, b"x", 2);
        assert!(!j.claim(&region, 1, 9), "wrong expectation");
        assert!(j.claim(&region, 2, 9));
        assert!(!j.claim(&region, 2, 10), "the second recoverer loses");
        assert_eq!(j.status(&region), 9);
    }

    #[test]
    fn arm_in_appears_with_commit_or_not_at_all() {
        let (region, j) = rig();
        let cfg = HtmConfig::default();
        let mut txn = region.begin(&cfg);
        j.arm_in(&mut txn, 1, b"wal", 2).unwrap();
        drop(txn); // abort
        assert_eq!(j.read(&region, 1), None);
        assert_eq!(j.payload(&region, 1), b"", "not even the payload landed");
        let mut txn = region.begin(&cfg);
        assert_eq!(j.arm_in(&mut txn, 1, b"wal", 2), Ok(7));
        txn.commit().unwrap();
        assert_eq!(j.read(&region, 1), Some((2, b"wal".to_vec())));
    }

    #[test]
    fn client_word_lives_beside_the_status_word() {
        let (region, j) = rig();
        j.set_word(&region, 0xABCD);
        j.arm(&region, 0, b"p", 1);
        j.clear(&region);
        assert_eq!(j.word(&region), 0xABCD, "arm and clear leave the client word alone");
    }

    #[test]
    #[should_panic(expected = "journal area 0 overflow")]
    fn oversized_payload_is_refused() {
        let (region, j) = rig();
        j.arm(&region, 0, &[0u8; 61], 1);
    }

    #[test]
    fn codec_roundtrips() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        buf.extend_from_slice(b"tail");
        let mut r = Reader::new(&buf);
        assert_eq!(
            (r.u16(), r.u32(), r.u64(), r.bytes(4)),
            (0xBEEF, 7, u64::MAX - 1, &b"tail"[..])
        );
    }
}
