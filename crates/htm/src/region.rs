//! Shared memory regions with per-line versioned locks.
//!
//! A [`Region`] models one machine's RDMA-registered memory. It is the
//! single point of coupling between the HTM emulation and the simulated
//! one-sided RDMA operations: both go through the same per-line metadata,
//! which is exactly the role the cache-coherence protocol plays between
//! RTM and the NIC's DMA engine in the paper.
//!
//! It is also the one owner of the bytes: atomic words, read and written
//! only by the two halves of a seqlock below, in the form Boehm shows
//! sound under the C++ memory model, which Rust shares (MSPC 2012).

use std::ops::Range;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::txn::{HtmConfig, HtmTxn};
use crate::MemError;

/// Size in bytes of one emulated cache line.
///
/// RTM tracks conflicts at cache-line granularity; DrTM exploits this by
/// packing a record's lock state next to its value (§4.3 of the paper).
pub const LINE_SIZE: usize = 64;

/// Bit set in a line's metadata word while a writer holds the line.
const LOCKED: u64 = 1;

/// The pieces of `[offset, offset + len)` that lie in one line each: a
/// piece's first address and its range within the span.
pub(crate) fn line_spans(offset: usize, len: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let n = (LINE_SIZE - (offset + done) % LINE_SIZE).min(len - done);
            done += n;
            (offset + done - n, done - n..done)
        })
    })
}

/// Copies `words` into `out`, as many as both hold.
#[inline]
fn load_words(words: &[AtomicU64], out: &mut [u8]) {
    for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
    }
}

/// Stores `data` into `words`, as many words as both hold.
#[inline]
fn store_words(words: &[AtomicU64], data: &[u8]) {
    for (chunk, word) in data.chunks_exact(8).zip(words) {
        word.store(u64::from_le_bytes(chunk.try_into().expect("8 bytes")), Ordering::Relaxed);
    }
}

/// One machine's shared memory region.
///
/// All bytes are addressed by `offset` from the start of the region.
/// Concurrent access is mediated by one atomic metadata word per
/// [`LINE_SIZE`]-byte line; the word holds a version counter in its upper
/// 63 bits and a lock flag in bit 0 (TL2-style versioned lock).
///
/// Three classes of access exist:
///
/// * **Transactional** — via [`Region::begin`] / [`HtmTxn`]; optimistic,
///   validated at commit.
/// * **Non-transactional** (`*_nt`) — the simulated one-sided RDMA path
///   plus local fallback-handler accesses; these take line locks directly
///   and bump versions on mutation, thereby aborting conflicting
///   transactions (strong atomicity).
/// * **Snapshot reads** — seqlock-style reads used by `read_nt`,
///   consistent within each line, as a NIC's DMA read is.
pub struct Region {
    /// Little-endian words: byte `b` is bits `8 * (b % 8)..` of word `b / 8`.
    data: Box<[AtomicU64]>,
    meta: Box<[AtomicU64]>,
}

impl Region {
    /// Creates a zero-initialised region of `size` bytes (rounded up to a
    /// whole number of lines).
    pub fn new(size: usize) -> Self {
        let lines = size.div_ceil(LINE_SIZE);
        let data = (0..lines * LINE_SIZE / 8).map(|_| AtomicU64::new(0)).collect();
        let meta = (0..lines).map(|_| AtomicU64::new(0)).collect();
        Region { data, meta }
    }

    /// Returns the region size in bytes.
    pub fn size(&self) -> usize {
        self.data.len() * 8
    }

    /// Returns the number of lines in the region.
    pub fn lines(&self) -> usize {
        self.meta.len()
    }

    /// Returns the line index containing byte `offset`.
    #[inline]
    pub fn line_of(offset: usize) -> usize {
        offset / LINE_SIZE
    }

    /// Begins a new HTM transaction on this region.
    pub fn begin<'r>(&'r self, cfg: &HtmConfig) -> HtmTxn<'r> {
        HtmTxn::new(self, cfg)
    }

    #[inline]
    pub(crate) fn check(&self, offset: usize, len: usize) -> Result<(), MemError> {
        if offset.checked_add(len).is_none_or(|end| end > self.size()) {
            return Err(MemError::OutOfBounds { offset, len, size: self.size() });
        }
        Ok(())
    }

    /// Loads a line's version word (acquire ordering).
    #[inline]
    pub(crate) fn load_meta(&self, line: usize) -> u64 {
        self.meta[line].load(Ordering::Acquire)
    }

    /// Attempts to lock `line`; on success returns the pre-lock version.
    #[inline]
    pub(crate) fn try_lock_line(&self, line: usize) -> Option<u64> {
        let w = self.meta[line].load(Ordering::Relaxed);
        if w & LOCKED != 0 {
            return None;
        }
        self.meta[line].compare_exchange(w, w | LOCKED, Ordering::Acquire, Ordering::Relaxed).ok()
    }

    /// Locks `line`, spinning until available; returns the pre-lock version.
    #[inline]
    pub(crate) fn lock_line(&self, line: usize) -> u64 {
        loop {
            if let Some(v) = self.try_lock_line(line) {
                return v;
            }
            std::hint::spin_loop();
        }
    }

    /// Unlocks `line` after a mutation, publishing a new version.
    #[inline]
    pub(crate) fn unlock_line_bump(&self, line: usize, pre: u64) {
        self.meta[line].store(pre.wrapping_add(2), Ordering::Release);
    }

    /// Unlocks `line` without bumping the version (no mutation occurred).
    #[inline]
    pub(crate) fn unlock_line_nobump(&self, line: usize, pre: u64) {
        self.meta[line].store(pre, Ordering::Release);
    }

    /// The reader half of the seqlock: copies the bytes at `at`, all in
    /// one line, into `out` with relaxed loads and returns whether the
    /// line still has version `ver` (loaded unlocked before the call).
    /// The fence orders the loads before the re-check; on `false` the
    /// copy may be torn. A span off word boundaries is cut from a copy.
    #[inline]
    pub(crate) fn load_span(&self, at: usize, out: &mut [u8], ver: u64) -> bool {
        let words = &self.data[at / 8..];
        if (at | out.len()).is_multiple_of(8) {
            load_words(words, out);
        } else {
            let mut bytes = [0u8; LINE_SIZE];
            load_words(&words[..(at % 8 + out.len()).div_ceil(8)], &mut bytes);
            out.copy_from_slice(&bytes[at % 8..at % 8 + out.len()]);
        }
        fence(Ordering::Acquire);
        self.meta[Self::line_of(at)].load(Ordering::Relaxed) == ver
    }

    /// The writer half of the seqlock: stores `data` at `at`, all in one
    /// line whose lock the caller holds. The fence orders the lock
    /// before the relaxed stores: a reader that loads one fails its
    /// re-check. A span off word boundaries is written over a copy of
    /// its words, which keep their other bytes (the lock bars writers).
    #[inline]
    pub(crate) fn store_span(&self, at: usize, data: &[u8]) {
        fence(Ordering::Release);
        let words = &self.data[at / 8..];
        if (at | data.len()).is_multiple_of(8) {
            store_words(words, data);
        } else {
            let words = &words[..(at % 8 + data.len()).div_ceil(8)];
            let mut bytes = [0u8; LINE_SIZE];
            load_words(words, &mut bytes);
            bytes[at % 8..at % 8 + data.len()].copy_from_slice(data);
            store_words(words, &bytes);
        }
    }

    /// Copies `[offset, offset + buf.len())` into `buf` while holding no
    /// locks, retrying per line until a consistent (unlocked, unchanged
    /// version) snapshot of that line is observed.
    ///
    /// This is the simulated one-sided RDMA READ data path: it never
    /// blocks writers. Like a NIC's DMA read, a span of several lines is
    /// consistent line by line, not as a whole.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (programming error in the
    /// simulator harness, not a recoverable condition).
    pub fn read_nt(&self, offset: usize, buf: &mut [u8]) {
        self.check(offset, buf.len()).expect("read_nt out of bounds");
        for (at, span) in line_spans(offset, buf.len()) {
            let out = &mut buf[span];
            loop {
                let ver = self.load_meta(Self::line_of(at));
                if ver & LOCKED == 0 && self.load_span(at, out, ver) {
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }

    /// Writes `data` at `offset` non-transactionally, locking each line and
    /// bumping its version (aborting conflicting HTM transactions).
    ///
    /// This is the simulated one-sided RDMA WRITE data path. Like a NIC's
    /// DMA write, a span of several lines is stored line by line.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_nt(&self, offset: usize, data: &[u8]) {
        self.check(offset, data.len()).expect("write_nt out of bounds");
        for (at, span) in line_spans(offset, data.len()) {
            let line = Self::line_of(at);
            let pre = self.lock_line(line);
            self.store_span(at, &data[span]);
            self.unlock_line_bump(line, pre);
        }
    }

    /// Reads an aligned `u64` non-transactionally.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds or not 8-byte aligned.
    pub fn read_u64_nt(&self, offset: usize) -> u64 {
        assert_eq!(offset % 8, 0, "misaligned u64 read at {offset}");
        let mut buf = [0u8; 8];
        self.read_nt(offset, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes an aligned `u64` non-transactionally.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds or not 8-byte aligned.
    pub fn write_u64_nt(&self, offset: usize, value: u64) {
        assert_eq!(offset % 8, 0, "misaligned u64 write at {offset}");
        self.write_nt(offset, &value.to_le_bytes());
    }

    /// Atomic compare-and-swap on an aligned `u64`, as performed by the
    /// simulated RDMA CAS verb (and by local CAS in the fallback handler).
    ///
    /// Returns the value observed before the operation; the swap happened
    /// iff the return value equals `expected`. The line version is bumped
    /// only when the swap occurs, matching RTM behaviour (a failed CAS
    /// performs no store and does not abort readers of the line).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds or not 8-byte aligned.
    pub fn cas_u64_nt(&self, offset: usize, expected: u64, new: u64) -> u64 {
        assert_eq!(offset % 8, 0, "misaligned u64 CAS at {offset}");
        self.check(offset, 8).expect("cas_u64_nt out of bounds");
        let line = Self::line_of(offset);
        let pre = self.lock_line(line);
        let word = &self.data[offset / 8];
        let cur = word.load(Ordering::Relaxed);
        if cur == expected {
            fence(Ordering::Release);
            word.store(new, Ordering::Relaxed);
            self.unlock_line_bump(line, pre);
        } else {
            self.unlock_line_nobump(line, pre);
        }
        cur
    }
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rounds_up_to_lines() {
        let r = Region::new(100);
        assert_eq!(r.size(), 128);
        assert_eq!(r.lines(), 2);
    }

    #[test]
    fn nt_write_then_read_roundtrip() {
        let r = Region::new(256);
        let data: Vec<u8> = (0..100).collect();
        r.write_nt(30, &data); // deliberately straddles a line boundary
        let mut back = vec![0u8; 100];
        r.read_nt(30, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn u64_roundtrip_and_cas() {
        let r = Region::new(128);
        r.write_u64_nt(8, 7);
        assert_eq!(r.read_u64_nt(8), 7);
        assert_eq!(r.cas_u64_nt(8, 7, 9), 7); // success
        assert_eq!(r.read_u64_nt(8), 9);
        assert_eq!(r.cas_u64_nt(8, 7, 11), 9); // failure: observed 9
        assert_eq!(r.read_u64_nt(8), 9);
    }

    #[test]
    fn failed_cas_does_not_bump_version() {
        let r = Region::new(64);
        let before = r.load_meta(0);
        r.cas_u64_nt(0, 123, 456); // fails: memory holds 0
        assert_eq!(r.load_meta(0), before);
        r.cas_u64_nt(0, 0, 456); // succeeds
        assert_eq!(r.load_meta(0), before + 2);
    }

    #[test]
    fn concurrent_cas_increments_are_atomic() {
        let r = std::sync::Arc::new(Region::new(64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let mut cur = r.read_u64_nt(0);
                    loop {
                        match r.cas_u64_nt(0, cur, cur + 1) {
                            seen if seen == cur => break,
                            seen => cur = seen,
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.read_u64_nt(0), 4000);
    }

    /// No snapshot a reader accepts is torn. One writer fills a span that
    /// starts and ends mid-word and crosses a line boundary with one
    /// repeated byte, `write_nt` on even writes and a committed
    /// transaction on odd ones, while two readers take snapshots with
    /// `read_nt` and with read-only transactions that commit.
    ///
    /// Each line's part of every snapshot is one byte. A committed
    /// transaction's snapshot is one byte throughout, or else the one
    /// state a multi-line `write_nt` passes through: like a NIC's DMA
    /// write it stores line by line, so the first line may hold the
    /// `write_nt`'s byte while the second still holds the byte before it.
    /// A `read_nt` snapshot is consistent line by line only, as a NIC's
    /// DMA read is. The writer stops after a fixed count, so a reader
    /// that fails cannot leave it running.
    #[test]
    fn accepted_snapshots_are_never_torn() {
        const AT: usize = 3;
        const LEN: usize = 122;
        const SPLIT: usize = LINE_SIZE - AT;
        const WRITES: u32 = 50_000;
        let r = Region::new(2 * LINE_SIZE);
        let writing = std::sync::atomic::AtomicBool::new(true);
        let start = std::sync::Barrier::new(3);
        let one_byte = |s: &[u8]| s.iter().all(|&b| b == s[0]);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let cfg = HtmConfig::default();
                start.wait();
                for i in 0..WRITES {
                    let fill = [i as u8; LEN];
                    if i % 2 == 0 {
                        r.write_nt(AT, &fill);
                        continue;
                    }
                    let mut t = r.begin(&cfg);
                    t.write(AT, &fill).expect("the span fits the region");
                    t.commit().expect("the only writer commits");
                }
                writing.store(false, Ordering::Release);
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    let cfg = HtmConfig::default();
                    let mut buf = [0u8; LEN];
                    start.wait();
                    while writing.load(Ordering::Acquire) {
                        r.read_nt(AT, &mut buf);
                        let (first, second) = buf.split_at(SPLIT);
                        assert!(one_byte(first) && one_byte(second), "torn line: {buf:?}");
                        let mut t = r.begin(&cfg);
                        if t.read(AT, &mut buf).is_ok() && t.commit().is_ok() {
                            let (first, second) = buf.split_at(SPLIT);
                            let mid_write_nt =
                                first[0] % 2 == 0 && second[0] == first[0].wrapping_sub(1);
                            assert!(
                                one_byte(first)
                                    && one_byte(second)
                                    && (first[0] == second[0] || mid_write_nt),
                                "torn committed snapshot: {buf:?}"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let r = Region::new(64);
        r.write_nt(60, &[0u8; 8]);
    }
}
