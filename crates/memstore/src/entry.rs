//! Key-value entry layout (§5.2, Figure 9).
//!
//! An entry is stored contiguously in region memory:
//!
//! ```text
//! offset  size  field
//! 0       8     state        lock/lease word (Figure 4, managed by drtm-core)
//! 8       4     incarnation  full 32-bit, bumped by INSERT/DELETE
//! 12      4     version      bumped by every WRITE (recovery ordering, §4.6)
//! 16      8     key
//! 24      4     value_len
//! 28      4     (padding)
//! 32      ...   value bytes (fixed per-table capacity)
//! ```
//!
//! The paper deliberately stores the state next to the value so one
//! HTM-tracked cache line covers both ("no false sharing between them;
//! they will always be accessed together", §4.3), and so a single RDMA
//! READ fetches state + metadata + value.

use drtm_htm::{Abort, HtmTxn, Region};
use drtm_rdma::{GlobalAddr, Qp};

use crate::slot::Slot;

/// Byte size of the fixed entry header that precedes the value.
pub const ENTRY_HEADER_BYTES: usize = 32;

/// Decoded fixed-size entry header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntryHeader {
    /// Lock/lease state word (interpreted by the transaction layer).
    pub state: u64,
    /// Full incarnation; bumped by INSERT and DELETE.
    pub incarnation: u32,
    /// Value version; bumped by every WRITE.
    pub version: u32,
    /// The key stored in this entry.
    pub key: u64,
    /// Length of the live value bytes.
    pub value_len: u32,
}

impl EntryHeader {
    /// Serialises to the on-region byte layout.
    pub fn encode(&self) -> [u8; ENTRY_HEADER_BYTES] {
        let mut b = [0u8; ENTRY_HEADER_BYTES];
        b[0..8].copy_from_slice(&self.state.to_le_bytes());
        b[8..12].copy_from_slice(&self.incarnation.to_le_bytes());
        b[12..16].copy_from_slice(&self.version.to_le_bytes());
        b[16..24].copy_from_slice(&self.key.to_le_bytes());
        b[24..28].copy_from_slice(&self.value_len.to_le_bytes());
        b
    }

    /// Deserialises from the on-region byte layout.
    pub fn decode(b: &[u8]) -> Self {
        EntryHeader {
            state: u64::from_le_bytes(b[0..8].try_into().expect("header slice")),
            incarnation: u32::from_le_bytes(b[8..12].try_into().expect("header slice")),
            version: u32::from_le_bytes(b[12..16].try_into().expect("header slice")),
            key: u64::from_le_bytes(b[16..24].try_into().expect("header slice")),
            value_len: u32::from_le_bytes(b[24..28].try_into().expect("header slice")),
        }
    }
}

/// Helper for addressing the fields of an entry at a region offset.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Region offset of the entry's first byte (the state word).
    pub offset: usize,
}

impl Entry {
    /// Creates a handle for the entry at `offset`.
    pub fn at(offset: usize) -> Self {
        Entry { offset }
    }

    /// Region offset of the 64-bit state word.
    pub fn state_off(&self) -> usize {
        self.offset
    }

    /// Region offset of the 32-bit version (the incarnation sits in the
    /// four bytes before it).
    pub fn version_off(&self) -> usize {
        self.offset + 12
    }

    /// Region offset of the key.
    pub fn key_off(&self) -> usize {
        self.offset + 16
    }

    /// Region offset of the value-length field.
    pub fn len_off(&self) -> usize {
        self.offset + 24
    }

    /// Region offset of the first value byte.
    pub fn value_off(&self) -> usize {
        self.offset + ENTRY_HEADER_BYTES
    }

    /// Total entry footprint for a table with `value_cap` value bytes,
    /// rounded to 8 bytes.
    pub fn footprint(value_cap: usize) -> usize {
        (ENTRY_HEADER_BYTES + value_cap).next_multiple_of(8)
    }

    /// Transactionally reads the header.
    pub fn read_header(&self, txn: &mut HtmTxn<'_>) -> Result<EntryHeader, Abort> {
        let mut b = [0u8; ENTRY_HEADER_BYTES];
        txn.read(self.offset, &mut b)?;
        Ok(EntryHeader::decode(&b))
    }

    /// Transactionally writes the header.
    pub fn write_header(&self, txn: &mut HtmTxn<'_>, h: &EntryHeader) -> Result<(), Abort> {
        txn.write(self.offset, &h.encode())
    }

    /// Transactionally reads the value.
    pub fn read_value(&self, txn: &mut HtmTxn<'_>) -> Result<Vec<u8>, Abort> {
        let mut len = [0u8; 4];
        txn.read(self.len_off(), &mut len)?;
        txn.read_vec(self.value_off(), u32::from_le_bytes(len) as usize)
    }

    /// Transactionally overwrites the value and bumps the version.
    pub fn write_value(&self, txn: &mut HtmTxn<'_>, value: &[u8]) -> Result<(), Abort> {
        let mut h = self.read_header(txn)?;
        h.version = h.version.wrapping_add(1);
        h.value_len = value.len() as u32;
        self.write_header(txn, &h)?;
        txn.write(self.value_off(), value)
    }

    /// Non-transactional header read (used by the simulated RDMA path
    /// after the value was fetched in one READ).
    pub fn read_header_nt(&self, region: &Region) -> EntryHeader {
        let mut b = [0u8; ENTRY_HEADER_BYTES];
        region.read_nt(self.offset, &mut b);
        EntryHeader::decode(&b)
    }

    /// Remote read of the header and value of the entry at `addr` in a
    /// single RDMA READ, with incarnation check against `expect_slot`.
    /// Both tables store this layout, so both read it through here.
    ///
    /// Returns `None` when the incarnation no longer matches (the entry
    /// was deleted or recycled since the location was obtained) — the
    /// caller treats this as a cache miss and retries the lookup.
    pub fn remote_read(
        qp: &Qp,
        addr: GlobalAddr,
        value_cap: usize,
        expect_slot: &Slot,
    ) -> Option<(EntryHeader, Vec<u8>)> {
        let mut buf = vec![0u8; ENTRY_HEADER_BYTES + value_cap];
        qp.read(addr, &mut buf);
        let h = EntryHeader::decode(&buf[..ENTRY_HEADER_BYTES]);
        if !expect_slot.incarnation_matches(h.incarnation) {
            return None;
        }
        let len = (h.value_len as usize).min(value_cap);
        Some((h, buf[ENTRY_HEADER_BYTES..ENTRY_HEADER_BYTES + len].to_vec()))
    }

    /// Remote overwrite of the value and version of the entry at `addr`
    /// with two one-sided WRITEs; the caller holds the entry's exclusive
    /// lock and supplies the new version.
    ///
    /// Length, padding and value are contiguous and go first; the
    /// version (written alone, sparing the adjacent incarnation) goes
    /// last, as in the transaction layer's write-back: an interrupted
    /// update must never show a new version over old bytes.
    pub fn remote_write_value(
        qp: &Qp,
        addr: GlobalAddr,
        value_cap: usize,
        version: u32,
        value: &[u8],
    ) {
        assert!(value.len() <= value_cap, "value exceeds table capacity");
        let mut buf = Vec::with_capacity(8 + value.len());
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        buf.extend_from_slice(value);
        let entry = Entry::at(addr.offset);
        qp.write(GlobalAddr::new(addr.node, entry.len_off()), &buf);
        qp.write(GlobalAddr::new(addr.node, entry.version_off()), &version.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::HtmConfig;

    #[test]
    fn header_roundtrip() {
        let h = EntryHeader {
            state: 0xDEAD_BEEF,
            incarnation: 7,
            version: 9,
            key: u64::MAX - 1,
            value_len: 33,
        };
        assert_eq!(EntryHeader::decode(&h.encode()), h);
    }

    #[test]
    fn footprint_rounds_up() {
        assert_eq!(Entry::footprint(0), 32);
        assert_eq!(Entry::footprint(1), 40);
        assert_eq!(Entry::footprint(64), 96);
    }

    #[test]
    fn txn_value_write_bumps_version() {
        let r = Region::new(4096);
        let cfg = HtmConfig::default();
        let e = Entry::at(64);
        let mut t = r.begin(&cfg);
        e.write_header(&mut t, &EntryHeader { key: 5, ..Default::default() }).unwrap();
        e.write_value(&mut t, b"abc").unwrap();
        t.commit().unwrap();

        let mut t = r.begin(&cfg);
        assert_eq!(e.read_value(&mut t).unwrap(), b"abc");
        let h = e.read_header(&mut t).unwrap();
        assert_eq!(h.version, 1);
        e.write_value(&mut t, b"defg").unwrap();
        t.commit().unwrap();

        let h = e.read_header_nt(&r);
        assert_eq!(h.version, 2);
        assert_eq!(h.value_len, 4);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use drtm_htm::HtmConfig;

    #[test]
    fn value_shrinks_and_grows_within_capacity() {
        let r = Region::new(4096);
        let cfg = HtmConfig::default();
        let e = Entry::at(64);
        let mut t = r.begin(&cfg);
        e.write_header(&mut t, &EntryHeader { key: 1, ..Default::default() }).unwrap();
        e.write_value(&mut t, b"a much longer value here").unwrap();
        e.write_value(&mut t, b"x").unwrap();
        t.commit().unwrap();
        let mut t = r.begin(&cfg);
        assert_eq!(e.read_value(&mut t).unwrap(), b"x");
        let h = e.read_header(&mut t).unwrap();
        assert_eq!(h.version, 2, "each write_value bumps the version");
        assert_eq!(h.value_len, 1);
    }

    #[test]
    fn incarnation_is_independent_of_version() {
        let r = Region::new(4096);
        let cfg = HtmConfig::default();
        let e = Entry::at(0);
        let mut t = r.begin(&cfg);
        e.write_header(
            &mut t,
            &EntryHeader { incarnation: 7, version: 3, key: 9, ..Default::default() },
        )
        .unwrap();
        e.write_value(&mut t, b"v").unwrap();
        t.commit().unwrap();
        let h = e.read_header_nt(&r);
        assert_eq!(h.incarnation, 7, "writes must not disturb the incarnation");
        assert_eq!(h.version, 4);
    }
}
