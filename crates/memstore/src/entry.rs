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
//!
//! Outside an HTM region only this module lays out, parses and stores
//! that image: [`Entry::image_len`], [`Entry::parse`],
//! [`Entry::store_value`] and [`Entry::init_nt`].

use std::convert::Infallible;
use std::ops::Range;

use drtm_htm::{Abort, HtmTxn, Region};
use drtm_rdma::{FabricError, GlobalAddr, Qp};

use crate::slot::Slot;

/// Byte size of the fixed entry header that precedes the value.
pub(crate) const ENTRY_HEADER_BYTES: usize = 32;

/// Value bytes a store assembles on the stack; longer values take one
/// heap buffer.
const INLINE_VALUE: usize = 120;

/// Calls `f` with `head` and `value` laid end to end, as one store.
fn joined<R>(head: &[u8], value: &[u8], f: impl FnOnce(&[u8]) -> R) -> R {
    if value.len() > INLINE_VALUE {
        return f(&[head, value].concat());
    }
    let mut buf = [0u8; ENTRY_HEADER_BYTES + INLINE_VALUE];
    buf[..head.len()].copy_from_slice(head);
    buf[head.len()..][..value.len()].copy_from_slice(value);
    f(&buf[..head.len() + value.len()])
}

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
        Entry::image_len(value_cap).next_multiple_of(8)
    }

    /// Bytes of an entry's image for a table with `value_cap` value
    /// bytes: the header, then the value capacity — what one READ of the
    /// whole entry fetches.
    pub fn image_len(value_cap: usize) -> usize {
        ENTRY_HEADER_BYTES + value_cap
    }

    /// The header of an entry image (as READ, at least the header long)
    /// and the span of its value bytes in it, `value_len` clamped to the
    /// image.
    pub fn parse(image: &[u8]) -> (EntryHeader, Range<usize>) {
        let h = EntryHeader::decode(&image[..ENTRY_HEADER_BYTES]);
        let len = (h.value_len as usize).min(image.len() - ENTRY_HEADER_BYTES);
        (h, ENTRY_HEADER_BYTES..ENTRY_HEADER_BYTES + len)
    }

    /// Stores `value`, then `version`, into this entry through the
    /// caller's `store(offset, bytes)`: length, padding and value as one
    /// store, then the version alone, sparing the incarnation beside it.
    /// The caller holds the exclusive lock and checks the capacity.
    ///
    /// Value before version is the one store order of every write-back:
    /// an interrupted one never shows a new version over old bytes, so
    /// recovery's at-most-once check redoes it (a bumped version over a
    /// stale value would be *skipped*, leaving the record torn forever).
    pub fn store_value<E>(
        &self,
        version: u32,
        value: &[u8],
        mut store: impl FnMut(usize, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let len_and_pad = u64::from(value.len() as u32).to_le_bytes();
        joined(&len_and_pad, value, |buf| store(self.len_off(), buf))?;
        store(self.version_off(), &version.to_le_bytes())
    }

    /// Lays a fresh entry for `key` down at this offset in one store:
    /// unlocked, incarnation 1, version 0, then `value` (the host-side
    /// insert of the Figure 10 baselines).
    pub fn init_nt(&self, region: &Region, key: u64, value: &[u8]) {
        let value_len = value.len() as u32;
        let h = EntryHeader { state: 0, incarnation: 1, version: 0, key, value_len };
        joined(&h.encode(), value, |image| region.write_nt(self.offset, image));
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

    /// Transactionally reads the value, appending it to `out`.
    pub fn read_value(&self, txn: &mut HtmTxn<'_>, out: &mut Vec<u8>) -> Result<(), Abort> {
        let mut len = [0u8; 4];
        txn.read(self.len_off(), &mut len)?;
        let at = out.len();
        out.resize(at + u32::from_le_bytes(len) as usize, 0);
        txn.read(self.value_off(), &mut out[at..])
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
    ///
    /// `Ok(None)` when the incarnation no longer matches (the entry was
    /// deleted or recycled since the location was obtained) — the caller
    /// treats this as a cache miss and retries the lookup. A crashed or
    /// retired owner is the fabric's typed error.
    ///
    /// The READ is consistent per cache line only, as a NIC's DMA read
    /// is, and only the incarnation is checked: a value longer than one
    /// line, read while [`Entry::remote_write_value`] stores it, can come
    /// back torn. No caller does that today (the KV harnesses only read,
    /// and the elastic transfer's values are 8 bytes).
    pub fn remote_read(
        qp: &Qp,
        addr: GlobalAddr,
        value_cap: usize,
        expect_slot: &Slot,
    ) -> Result<Option<(EntryHeader, Vec<u8>)>, FabricError> {
        let mut image = vec![0u8; Entry::image_len(value_cap)];
        qp.try_read(addr, &mut image)?;
        let (h, value) = Entry::parse(&image);
        Ok(expect_slot.incarnation_matches(h.incarnation).then(|| (h, image[value].to_vec())))
    }

    /// Remote overwrite of the value and version of the entry at `addr`
    /// with two synchronous one-sided WRITEs, in [`Entry::store_value`]'s
    /// order; the caller holds the entry's exclusive lock and supplies
    /// the new version.
    pub fn remote_write_value(
        qp: &Qp,
        addr: GlobalAddr,
        value_cap: usize,
        version: u32,
        value: &[u8],
    ) {
        assert!(value.len() <= value_cap, "value exceeds table capacity");
        let Ok(()) = Entry::at(addr.offset).store_value(version, value, |off, bytes| {
            qp.write(GlobalAddr::new(addr.node, off), bytes);
            Ok::<(), Infallible>(())
        });
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
    fn parse_clamps_the_value_to_the_image() {
        let h = EntryHeader { key: 3, value_len: 1000, ..Default::default() };
        let mut image = vec![0u8; Entry::image_len(16)];
        image[..ENTRY_HEADER_BYTES].copy_from_slice(&h.encode());
        assert_eq!(Entry::parse(&image), (h, ENTRY_HEADER_BYTES..image.len()));
    }

    #[test]
    fn init_nt_lays_a_fresh_unlocked_entry() {
        let r = Region::new(4096);
        let e = Entry::at(64);
        e.init_nt(&r, 5, b"abc");
        let mut image = vec![0u8; Entry::image_len(8)];
        r.read_nt(e.offset, &mut image);
        let (h, value) = Entry::parse(&image);
        let fresh = EntryHeader { state: 0, incarnation: 1, version: 0, key: 5, value_len: 3 };
        assert_eq!((h, &image[value]), (fresh, &b"abc"[..]));
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
        assert_eq!(
            {
                let mut v = Vec::new();
                e.read_value(&mut t, &mut v).unwrap();
                v
            },
            b"abc"
        );
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
        assert_eq!(
            {
                let mut v = Vec::new();
                e.read_value(&mut t, &mut v).unwrap();
                v
            },
            b"x"
        );
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
