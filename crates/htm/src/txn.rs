//! The emulated RTM transaction: read/write sets, buffering, validation.

use std::collections::HashMap;

use crate::region::{Region, LINE_SIZE};
use crate::vtime;
use crate::MemError;

/// Why an HTM transaction aborted.
///
/// Mirrors the RTM abort-status causes that DrTM distinguishes: data
/// conflicts, capacity overflow of the hardware read/write set, and
/// explicit `XABORT` issued by the protocol when it observes a record
/// locked or leased by a remote transaction (Figure 6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Abort {
    /// A conflicting access by another transaction or a non-transactional
    /// (RDMA) operation was detected.
    Conflict,
    /// The read or write set exceeded the emulated hardware capacity.
    Capacity,
    /// The transaction issued an explicit abort with the given code.
    Explicit(u8),
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Abort::Conflict => write!(f, "conflict abort"),
            Abort::Capacity => write!(f, "capacity abort"),
            Abort::Explicit(code) => write!(f, "explicit abort (code {code})"),
        }
    }
}

impl std::error::Error for Abort {}

/// Configuration of the emulated HTM hardware.
#[derive(Debug, Clone)]
pub struct HtmConfig {
    /// Maximum number of distinct lines a transaction may read.
    ///
    /// RTM tracks the read set in an implementation-specific structure
    /// larger than L1; the default models a few hundred KB.
    pub read_capacity_lines: usize,
    /// Maximum number of distinct lines a transaction may write.
    ///
    /// RTM tracks the write set in the 32 KB L1 data cache; the default is
    /// deliberately below 512 lines to account for associativity misses.
    pub write_capacity_lines: usize,
    /// Retries before the executor falls back to the non-transactional
    /// path (§6.2 of the paper).
    pub max_retries: u32,
    /// Virtual-time cost charged per transactional line access.
    pub cost_access_ns: u64,
    /// Virtual-time cost charged per commit (plus one access per dirty line).
    pub cost_commit_ns: u64,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            read_capacity_lines: 4096,
            write_capacity_lines: 400,
            max_retries: 8,
            cost_access_ns: 40,
            cost_commit_ns: 300,
        }
    }
}

/// Per-line staged write: a shadow copy of dirty bytes plus a dirty mask
/// (bit *i* set means byte *i* of the line has been written) and the line
/// version observed when the line entered the write set.
struct WriteLine {
    bytes: [u8; LINE_SIZE],
    mask: u64,
    ver: u64,
}

/// An in-flight emulated HTM transaction over one [`Region`].
///
/// Reads are optimistic (version-validated), writes are buffered until
/// [`HtmTxn::commit`]. Every operation returns `Err(`[`Abort`]`)` as soon
/// as a conflict or capacity overflow is detected; the caller is expected
/// to propagate the error out of the transaction body and retry or fall
/// back, which is what [`crate::Executor`] automates.
pub struct HtmTxn<'r> {
    region: &'r Region,
    reads: HashMap<usize, u64>,
    writes: HashMap<usize, WriteLine>,
    cfg: HtmConfig,
}

impl<'r> HtmTxn<'r> {
    pub(crate) fn new(region: &'r Region, cfg: &HtmConfig) -> Self {
        HtmTxn { region, reads: HashMap::new(), writes: HashMap::new(), cfg: cfg.clone() }
    }

    /// Returns the region this transaction runs against.
    pub fn region(&self) -> &'r Region {
        self.region
    }

    /// Tracks `line` in the read set, verifying it is unlocked and (if
    /// already tracked) unchanged. Returns the recorded version.
    fn track_read(&mut self, line: usize) -> Result<u64, Abort> {
        let cur = self.region.load_meta(line);
        match self.reads.get(&line) {
            Some(&v) => {
                // Opacity: if the line changed since we first read it, the
                // snapshot this transaction is operating on is broken.
                if cur != v {
                    return Err(Abort::Conflict);
                }
                Ok(v)
            }
            None => {
                if cur & 1 != 0 {
                    return Err(Abort::Conflict);
                }
                if self.reads.len() >= self.cfg.read_capacity_lines {
                    return Err(Abort::Capacity);
                }
                self.reads.insert(line, cur);
                Ok(cur)
            }
        }
    }

    /// Transactionally reads `buf.len()` bytes at `offset`.
    ///
    /// Reads observe this transaction's own buffered writes.
    pub fn read(&mut self, offset: usize, buf: &mut [u8]) -> Result<(), Abort> {
        self.region.check(offset, buf.len()).map_err(|_| Abort::Explicit(0xFE))?;
        vtime::charge(self.cfg.cost_access_ns * buf.len().div_ceil(LINE_SIZE) as u64);
        let mut done = 0;
        while done < buf.len() {
            let at = offset + done;
            let line = Region::line_of(at);
            let in_line = (LINE_SIZE - at % LINE_SIZE).min(buf.len() - done);
            let ver = self.track_read(line)?;
            // SAFETY: Bounds checked; the version re-validation below
            // rejects any concurrently mutated (torn) copy.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.region.byte_ptr(at) as *const u8,
                    buf[done..].as_mut_ptr(),
                    in_line,
                );
            }
            if self.region.load_meta(line) != ver {
                return Err(Abort::Conflict);
            }
            // Read-your-writes: overlay staged dirty bytes.
            if let Some(w) = self.writes.get(&line) {
                let base = at % LINE_SIZE;
                for i in 0..in_line {
                    if w.mask >> (base + i) & 1 != 0 {
                        buf[done + i] = w.bytes[base + i];
                    }
                }
            }
            done += in_line;
        }
        Ok(())
    }

    /// Transactionally reads an aligned `u64` at `offset`.
    pub fn read_u64(&mut self, offset: usize) -> Result<u64, Abort> {
        if !offset.is_multiple_of(8) {
            return Err(Abort::Explicit(0xFD));
        }
        let mut buf = [0u8; 8];
        self.read(offset, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Transactionally reads `len` bytes at `offset` into a fresh vector.
    pub fn read_vec(&mut self, offset: usize, len: usize) -> Result<Vec<u8>, Abort> {
        let mut buf = vec![0u8; len];
        self.read(offset, &mut buf)?;
        Ok(buf)
    }

    /// Transactionally (buffered) writes `data` at `offset`.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), Abort> {
        self.region.check(offset, data.len()).map_err(|_| Abort::Explicit(0xFE))?;
        vtime::charge(self.cfg.cost_access_ns * data.len().div_ceil(LINE_SIZE) as u64);
        let mut done = 0;
        while done < data.len() {
            let at = offset + done;
            let line = Region::line_of(at);
            let in_line = (LINE_SIZE - at % LINE_SIZE).min(data.len() - done);
            if !self.writes.contains_key(&line) {
                if self.writes.len() >= self.cfg.write_capacity_lines {
                    return Err(Abort::Capacity);
                }
                // Capture the version at first touch so commit can detect
                // a non-transactional store to a blind-written line — the
                // write-set conflict RTM would deliver eagerly.
                let ver = match self.reads.get(&line) {
                    Some(&v) => v,
                    None => {
                        let v = self.region.load_meta(line);
                        if v & 1 != 0 {
                            return Err(Abort::Conflict);
                        }
                        v
                    }
                };
                self.writes.insert(line, WriteLine { bytes: [0; LINE_SIZE], mask: 0, ver });
            }
            let w = self.writes.get_mut(&line).expect("just inserted");
            let base = at % LINE_SIZE;
            w.bytes[base..base + in_line].copy_from_slice(&data[done..done + in_line]);
            for i in 0..in_line {
                w.mask |= 1 << (base + i);
            }
            done += in_line;
        }
        Ok(())
    }

    /// Transactionally writes an aligned `u64` at `offset`.
    pub fn write_u64(&mut self, offset: usize, value: u64) -> Result<(), Abort> {
        if !offset.is_multiple_of(8) {
            return Err(Abort::Explicit(0xFD));
        }
        self.write(offset, &value.to_le_bytes())
    }

    /// Explicitly aborts the transaction (RTM `XABORT`), discarding all
    /// buffered writes.
    ///
    /// This is a convenience that simply produces the error value; the
    /// transaction object should be dropped afterwards.
    pub fn abort(self, code: u8) -> Abort {
        Abort::Explicit(code)
    }

    /// Attempts to commit (RTM `XEND`).
    ///
    /// Locks every dirty line in address order, validates the whole read
    /// set (and the first-touch versions of blind-written lines), applies
    /// the buffered writes, and publishes new line versions. On any
    /// validation failure nothing is applied and `Err(Abort::Conflict)` is
    /// returned.
    pub fn commit(self) -> Result<(), Abort> {
        let region = self.region;
        vtime::charge(self.cfg.cost_commit_ns + self.cfg.cost_access_ns * self.writes.len() as u64);

        // Phase 1: lock the write set in address order (no deadlock).
        let mut dirty: Vec<(usize, &WriteLine)> =
            self.writes.iter().map(|(&l, w)| (l, w)).collect();
        dirty.sort_unstable_by_key(|&(l, _)| l);
        let mut locked: Vec<(usize, u64)> = Vec::with_capacity(dirty.len());
        let rollback = |locked: &[(usize, u64)]| {
            for &(l, pre) in locked {
                region.unlock_line_nobump(l, pre);
            }
        };
        for &(line, w) in &dirty {
            match region.try_lock_line(line) {
                Some(pre) if pre == w.ver => locked.push((line, pre)),
                Some(pre) => {
                    region.unlock_line_nobump(line, pre);
                    rollback(&locked);
                    return Err(Abort::Conflict);
                }
                None => {
                    rollback(&locked);
                    return Err(Abort::Conflict);
                }
            }
        }

        // Phase 2: validate the read set (lines we also wrote were just
        // validated under their lock).
        for (&line, &ver) in &self.reads {
            if self.writes.contains_key(&line) {
                continue;
            }
            if region.load_meta(line) != ver {
                rollback(&locked);
                return Err(Abort::Conflict);
            }
        }

        // Phase 3: apply dirty bytes and publish.
        for &(line, w) in &dirty {
            let base = line * LINE_SIZE;
            for i in 0..LINE_SIZE {
                if w.mask >> i & 1 != 0 {
                    // SAFETY: Line lock held; in-bounds byte store.
                    unsafe { *region.byte_ptr(base + i) = w.bytes[i] };
                }
            }
        }
        for &(line, pre) in &locked {
            region.unlock_line_bump(line, pre);
        }
        Ok(())
    }
}

impl std::fmt::Debug for HtmTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmTxn")
            .field("read_lines", &self.reads.len())
            .field("write_lines", &self.writes.len())
            .finish()
    }
}

/// Convenience conversion so protocol code can bubble up address errors.
impl From<MemError> for Abort {
    fn from(_: MemError) -> Self {
        Abort::Explicit(0xFE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cfg() -> HtmConfig {
        HtmConfig::default()
    }

    #[test]
    fn read_own_write() {
        let r = Region::new(256);
        let mut t = r.begin(&cfg());
        t.write_u64(16, 42).unwrap();
        assert_eq!(t.read_u64(16).unwrap(), 42);
        // Memory unchanged until commit.
        assert_eq!(r.read_u64_nt(16), 0);
        t.commit().unwrap();
        assert_eq!(r.read_u64_nt(16), 42);
    }

    #[test]
    fn partial_line_overlay() {
        let r = Region::new(256);
        r.write_nt(0, &[1u8; 64]);
        let mut t = r.begin(&cfg());
        t.write(10, &[9u8; 4]).unwrap();
        let v = t.read_vec(8, 8).unwrap();
        assert_eq!(v, [1, 1, 9, 9, 9, 9, 1, 1]);
        t.commit().unwrap();
        let mut out = [0u8; 8];
        r.read_nt(8, &mut out);
        assert_eq!(out, [1, 1, 9, 9, 9, 9, 1, 1]);
    }

    #[test]
    fn nt_write_aborts_reader() {
        let r = Region::new(256);
        let mut t = r.begin(&cfg());
        t.read_u64(0).unwrap();
        r.write_u64_nt(0, 5);
        assert_eq!(t.commit(), Err(Abort::Conflict));
    }

    #[test]
    fn nt_write_aborts_blind_writer() {
        let r = Region::new(256);
        let mut t = r.begin(&cfg());
        t.write_u64(0, 1).unwrap(); // blind write, never read
        r.write_u64_nt(0, 5); // remote store to the same line
        assert_eq!(t.commit(), Err(Abort::Conflict));
        assert_eq!(r.read_u64_nt(0), 5);
    }

    #[test]
    fn failed_cas_does_not_abort() {
        let r = Region::new(256);
        let mut t = r.begin(&cfg());
        t.read_u64(0).unwrap();
        r.cas_u64_nt(0, 777, 888); // fails, no store
        t.commit().unwrap();
    }

    #[test]
    fn successful_cas_aborts_reader() {
        let r = Region::new(256);
        let mut t = r.begin(&cfg());
        assert_eq!(t.read_u64(0).unwrap(), 0);
        r.cas_u64_nt(0, 0, 888);
        assert_eq!(t.commit(), Err(Abort::Conflict));
    }

    #[test]
    fn zombie_read_detected_at_next_access() {
        let r = Region::new(256);
        let mut t = r.begin(&cfg());
        t.read_u64(0).unwrap();
        r.write_u64_nt(0, 5);
        // Re-reading the same line detects the conflict eagerly (opacity).
        assert_eq!(t.read_u64(0), Err(Abort::Conflict));
    }

    #[test]
    fn capacity_abort_on_writes() {
        let r = Region::new(64 * 64);
        let mut small = cfg();
        small.write_capacity_lines = 4;
        let mut t = r.begin(&small);
        for i in 0..4 {
            t.write_u64(i * 64, 1).unwrap();
        }
        assert_eq!(t.write_u64(4 * 64, 1), Err(Abort::Capacity));
    }

    #[test]
    fn capacity_abort_on_reads() {
        let r = Region::new(64 * 64);
        let mut small = cfg();
        small.read_capacity_lines = 4;
        let mut t = r.begin(&small);
        for i in 0..4 {
            t.read_u64(i * 64).unwrap();
        }
        assert_eq!(t.read_u64(4 * 64), Err(Abort::Capacity));
    }

    #[test]
    fn conflicting_committers_one_wins() {
        let r = Region::new(64);
        let mut a = r.begin(&cfg());
        let mut b = r.begin(&cfg());
        let va = a.read_u64(0).unwrap();
        let vb = b.read_u64(0).unwrap();
        a.write_u64(0, va + 1).unwrap();
        b.write_u64(0, vb + 1).unwrap();
        assert!(a.commit().is_ok());
        assert_eq!(b.commit(), Err(Abort::Conflict));
        assert_eq!(r.read_u64_nt(0), 1);
    }

    #[test]
    fn concurrent_transactional_increments_are_serializable() {
        let r = Arc::new(Region::new(64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let cfg = HtmConfig::default();
                let mut committed = 0u64;
                while committed < 500 {
                    let mut t = r.begin(&cfg);
                    let ok = (|| -> Result<(), Abort> {
                        let v = t.read_u64(0)?;
                        t.write_u64(0, v + 1)?;
                        Ok(())
                    })();
                    if ok.is_ok() && t.commit().is_ok() {
                        committed += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.read_u64_nt(0), 2000);
    }

    #[test]
    fn oob_access_is_explicit_abort() {
        let r = Region::new(64);
        let mut t = r.begin(&cfg());
        assert!(matches!(t.read_u64(1024), Err(Abort::Explicit(_))));
        assert!(matches!(t.write_u64(1024, 0), Err(Abort::Explicit(_))));
    }

    #[test]
    fn misaligned_u64_is_explicit_abort() {
        let r = Region::new(64);
        let mut t = r.begin(&cfg());
        assert!(matches!(t.read_u64(3), Err(Abort::Explicit(_))));
    }
}
