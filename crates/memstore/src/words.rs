//! Runs of little-endian 64-bit words in region memory.
//!
//! An HTM region pays per cache line, and [`HtmTxn`] charges per call: the
//! local index walkers therefore move a whole run — a line of a bucket, a
//! node's keys, a shifted range — per tracked access and decide from the
//! copy, instead of coming back for each word. The helpers are `#[inline]`
//! because most callers pass a constant length: as calls they cost the
//! tree probes and the remote lookup 15–20 % of their host time.

use drtm_htm::{Abort, HtmTxn};

/// Longest run one call moves: a whole bucket (a B+ tree node's keys or
/// values are shorter).
const MAX_WORDS: usize = 16;

/// Decodes `bytes` into `words`, eight bytes each.
#[inline]
pub(crate) fn decode(bytes: &[u8], words: &mut [u64]) {
    for (w, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        *w = u64::from_le_bytes(b.try_into().expect("eight bytes"));
    }
}

/// Transactionally reads the `words.len()` words at `off` in one access.
#[inline]
pub(crate) fn read_words(txn: &mut HtmTxn<'_>, off: usize, words: &mut [u64]) -> Result<(), Abort> {
    let mut buf = [0u8; MAX_WORDS * 8];
    let buf = &mut buf[..words.len() * 8];
    txn.read(off, buf)?;
    decode(buf, words);
    Ok(())
}

/// Transactionally writes `words` at `off` in one access.
#[inline]
pub(crate) fn write_words(txn: &mut HtmTxn<'_>, off: usize, words: &[u64]) -> Result<(), Abort> {
    let mut buf = [0u8; MAX_WORDS * 8];
    let buf = &mut buf[..words.len() * 8];
    for (b, w) in buf.chunks_exact_mut(8).zip(words) {
        b.copy_from_slice(&w.to_le_bytes());
    }
    txn.write(off, buf)
}
