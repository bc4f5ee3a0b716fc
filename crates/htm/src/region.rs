//! Shared memory regions with per-line versioned locks.
//!
//! A [`Region`] models one machine's RDMA-registered memory. It is the
//! single point of coupling between the HTM emulation and the simulated
//! one-sided RDMA operations: both go through the same per-line metadata,
//! which is exactly the role the cache-coherence protocol plays between
//! RTM and the NIC's DMA engine in the paper.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::txn::{HtmConfig, HtmTxn};
use crate::MemError;

/// Size in bytes of one emulated cache line.
///
/// RTM tracks conflicts at cache-line granularity; DrTM exploits this by
/// packing a record's lock state next to its value (§4.3 of the paper).
pub const LINE_SIZE: usize = 64;

/// Bit set in a line's metadata word while a writer holds the line.
const LOCKED: u64 = 1;

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
/// * **Snapshot reads** — seqlock-style consistent reads used by `read_nt`.
pub struct Region {
    data: Box<[UnsafeCell<u8>]>,
    meta: Box<[AtomicU64]>,
}

// SAFETY: All mutable access to `data` is guarded by the per-line
// versioned locks in `meta`: writers (transaction commit and `*_nt`
// mutators) hold the line lock for every line they touch, and readers
// either validate the version/lock word around the copy (seqlock) or hold
// the lock themselves. `meta` itself is atomic.
unsafe impl Sync for Region {}
// SAFETY: `Region` owns its storage; moving it between threads is safe.
unsafe impl Send for Region {}

impl Region {
    /// Creates a zero-initialised region of `size` bytes (rounded up to a
    /// whole number of lines).
    pub fn new(size: usize) -> Self {
        let size = size.div_ceil(LINE_SIZE) * LINE_SIZE;
        let data = (0..size).map(|_| UnsafeCell::new(0u8)).collect();
        let meta = (0..size / LINE_SIZE).map(|_| AtomicU64::new(0)).collect();
        Region { data, meta }
    }

    /// Returns the region size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
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
        if offset.checked_add(len).is_none_or(|end| end > self.data.len()) {
            return Err(MemError::OutOfBounds { offset, len, size: self.data.len() });
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

    /// Raw pointer to byte `offset`.
    ///
    /// # Safety
    ///
    /// Caller must ensure `offset < self.size()` and that the per-line
    /// locking discipline is upheld for any access through the pointer.
    #[inline]
    pub(crate) unsafe fn byte_ptr(&self, offset: usize) -> *mut u8 {
        self.data[offset].get()
    }

    /// Copies `[offset, offset + buf.len())` into `buf` while holding no
    /// locks, retrying per line until a consistent (unlocked, unchanged
    /// version) snapshot is observed.
    ///
    /// This is the simulated one-sided RDMA READ data path: it never
    /// blocks writers and never observes a half-applied HTM commit.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (programming error in the
    /// simulator harness, not a recoverable condition).
    pub fn read_nt(&self, offset: usize, buf: &mut [u8]) {
        self.check(offset, buf.len()).expect("read_nt out of bounds");
        let mut done = 0;
        while done < buf.len() {
            let at = offset + done;
            let line = Self::line_of(at);
            let in_line = (LINE_SIZE - at % LINE_SIZE).min(buf.len() - done);
            loop {
                let v1 = self.load_meta(line);
                if v1 & LOCKED != 0 {
                    std::hint::spin_loop();
                    continue;
                }
                // SAFETY: Bounds checked above; the seqlock re-validation
                // below detects any concurrent mutation, and u8 reads can
                // observe torn data without UB only through volatile/raw
                // copies — we use raw pointer copies of plain bytes.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        self.byte_ptr(at) as *const u8,
                        buf[done..].as_mut_ptr(),
                        in_line,
                    );
                }
                if self.load_meta(line) == v1 {
                    break;
                }
            }
            done += in_line;
        }
    }

    /// Writes `data` at `offset` non-transactionally, locking each line and
    /// bumping its version (aborting conflicting HTM transactions).
    ///
    /// This is the simulated one-sided RDMA WRITE data path.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_nt(&self, offset: usize, data: &[u8]) {
        self.check(offset, data.len()).expect("write_nt out of bounds");
        let mut done = 0;
        while done < data.len() {
            let at = offset + done;
            let line = Self::line_of(at);
            let in_line = (LINE_SIZE - at % LINE_SIZE).min(data.len() - done);
            let pre = self.lock_line(line);
            // SAFETY: Bounds checked; line lock held, so no concurrent
            // writer; concurrent seqlock readers will retry.
            unsafe {
                std::ptr::copy_nonoverlapping(data[done..].as_ptr(), self.byte_ptr(at), in_line);
            }
            self.unlock_line_bump(line, pre);
            done += in_line;
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
        // SAFETY: Line lock held; aligned in-bounds u64 access.
        let cur = unsafe { (self.byte_ptr(offset) as *const u64).read() };
        if cur == expected {
            // SAFETY: As above.
            unsafe { (self.byte_ptr(offset) as *mut u64).write(new) };
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

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let r = Region::new(64);
        r.write_nt(60, &[0u8; 8]);
    }
}
