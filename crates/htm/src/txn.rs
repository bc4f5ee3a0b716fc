//! The emulated RTM transaction: read/write sets, buffering, validation.

use std::cell::Cell;

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
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig { read_capacity_lines: 4096, write_capacity_lines: 400, max_retries: 8 }
    }
}

/// Virtual ns charged per line a transactional read or write fills
/// (`⌈len / 64⌉` per call, no first-touch discount), and again per dirty
/// line at commit. Sized with [`COMMIT_NS`] so a local TPC-C new-order
/// costs 15–30 µs of virtual time, the paper's measured new-order
/// latencies (Table 6); DESIGN.md §4 has the calibration table.
pub const ACCESS_NS: u64 = 40;

/// Virtual ns charged per commit (`XEND`), on top of [`ACCESS_NS`] per
/// dirty line. Sized with [`ACCESS_NS`] (above).
pub const COMMIT_NS: u64 = 300;

/// One staged write-set line: a shadow copy of dirty bytes plus a dirty
/// mask (bit *i* set means byte *i* of the line has been written) and the
/// line version observed when the line entered the write set.
struct WriteLine {
    line: usize,
    ver: u64,
    mask: u64,
    bytes: [u8; LINE_SIZE],
}

/// [`Slot::ver`] of a line that is in the write set only. A read-set
/// version is never odd — a locked line is refused entry — so no tracked
/// version collides with it.
const NOT_READ: u64 = 1;

/// One slot of the line table: all a transaction knows about one line,
/// found with one probe.
#[derive(Clone, Copy)]
struct Slot {
    line: usize,
    /// Version recorded when the line entered the read set, or
    /// [`NOT_READ`].
    ver: u64,
    /// Index + 1 of the line's staged write in [`Descriptor::writes`];
    /// 0 while the line is not in the write set.
    write: usize,
    /// The slot is live iff this equals [`Descriptor::gen`]; anything
    /// else is a leftover of an earlier transaction and reads as free.
    gen: u16,
}

impl Slot {
    /// Generation 0 is never current, so this is free in every transaction.
    const FREE: Slot = Slot { line: 0, ver: NOT_READ, write: 0, gen: 0 };
}

/// Slots of a thread's first descriptor: 128 lines before it grows.
const INITIAL_SLOTS: usize = 256;

/// 2^64 / φ: the multiplier of Fibonacci hashing.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The read and write set of one transaction, in storage that outlives
/// it: an open-addressed table keyed by line index (linear probing, at
/// most half full) over an arena of staged lines. Beginning a
/// transaction bumps `gen`, which frees every slot at once, and empties
/// the lists without releasing their capacity, so a thread's steady
/// state allocates nothing.
struct Descriptor {
    /// Power-of-two length.
    slots: Vec<Slot>,
    /// 64 − log2(`slots.len()`): a hash's top bits index the table.
    shift: u32,
    /// Current generation, never 0.
    gen: u16,
    /// Slots stamped with `gen`: the distinct lines touched so far.
    live: usize,
    /// Slot index of every read-set line, in no particular order.
    reads: Vec<usize>,
    /// Staged lines in first-touch order.
    writes: Vec<WriteLine>,
    /// Commit's scratch: indices into `writes`, sorted by line.
    order: Vec<usize>,
}

thread_local! {
    /// The descriptor this thread's last transaction left behind; `None`
    /// before the first one and while a transaction is using it.
    static SPARE: Cell<Option<Box<Descriptor>>> = const { Cell::new(None) };
}

impl Descriptor {
    /// A thread's first descriptor (or that of a second transaction
    /// live on it). Boxed so that handing it over moves one pointer.
    #[cold]
    fn boxed() -> Box<Self> {
        Box::new(Descriptor {
            slots: vec![Slot::FREE; INITIAL_SLOTS],
            shift: u64::BITS - INITIAL_SLOTS.trailing_zeros(),
            gen: 0,
            live: 0,
            reads: Vec::new(),
            writes: Vec::new(),
            order: Vec::new(),
        })
    }

    /// Forgets the previous transaction.
    fn reset(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrapped: a slot stamped 65 535 transactions ago would read
            // as live again, so the stamps are wiped, once per wrap.
            self.slots.fill(Slot::FREE);
            self.gen = 1;
        }
        self.live = 0;
        self.reads.clear();
        self.writes.clear();
    }

    /// Index of `line`'s slot and `true` if it has one, else of the free
    /// slot it would take and `false`. Ends because the table is never
    /// more than half full.
    fn probe(&self, line: usize) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = ((line as u64).wrapping_mul(FIB) >> self.shift) as usize;
        loop {
            let s = &self.slots[i];
            if s.gen != self.gen {
                return (i, false);
            }
            if s.line == line {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Gives `line` the free slot `i` [`Descriptor::probe`] found for it
    /// — or another one, if the table has to grow first — and returns
    /// its index. The slot starts in neither set.
    fn claim(&mut self, mut i: usize, line: usize) -> usize {
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow();
            i = self.probe(line).0;
        }
        self.slots[i] = Slot { line, ver: NOT_READ, write: 0, gen: self.gen };
        self.live += 1;
        i
    }

    /// Doubles the table, keeping the live slots. Slot indices change,
    /// so the read list is rebuilt; its order carries no meaning.
    #[cold]
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![Slot::FREE; old.len() * 2];
        self.shift -= 1;
        self.reads.clear();
        for s in old.iter().filter(|s| s.gen == self.gen) {
            let i = self.probe(s.line).0;
            self.slots[i] = *s;
            if s.ver != NOT_READ {
                self.reads.push(i);
            }
        }
    }
}

/// A word with its low `n` bits set, for `n` in `1..=64`.
fn low_bits(n: usize) -> u64 {
    u64::MAX >> (u64::BITS as usize - n)
}

/// The runs of consecutive set bits in `mask`, each as
/// `(first bit, length)`.
fn runs(mut mask: u64) -> impl Iterator<Item = (usize, usize)> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let start = mask.trailing_zeros() as usize;
        let len = (mask >> start).trailing_ones() as usize;
        mask &= !(low_bits(len) << start);
        Some((start, len))
    })
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
    /// `Some` until drop passes it on.
    desc: Option<Box<Descriptor>>,
    cfg: HtmConfig,
}

/// The descriptor of a transaction that has not been dropped.
fn live(desc: &mut Option<Box<Descriptor>>) -> &mut Descriptor {
    desc.as_deref_mut().expect("the descriptor leaves only in drop")
}

impl<'r> HtmTxn<'r> {
    pub(crate) fn new(region: &'r Region, cfg: &HtmConfig) -> Self {
        // A second live transaction on the thread finds the spare taken
        // (as does a thread tearing down its locals) and gets a fresh
        // descriptor of its own.
        let spare = SPARE.try_with(Cell::take).ok().flatten();
        let mut desc = spare.unwrap_or_else(Descriptor::boxed);
        desc.reset();
        HtmTxn { region, desc: Some(desc), cfg: cfg.clone() }
    }

    /// Returns the region this transaction runs against.
    pub fn region(&self) -> &'r Region {
        self.region
    }

    /// Tracks `line` in the read set, verifying it is unlocked and (if
    /// already tracked) unchanged. Returns the recorded version and the
    /// slot's `write` index, so the caller needs no second probe to find
    /// the line's staged bytes.
    fn track_read(&mut self, line: usize) -> Result<(u64, usize), Abort> {
        let cur = self.region.load_meta(line);
        let d = live(&mut self.desc);
        let (mut i, found) = d.probe(line);
        let s = d.slots[i];
        if found && s.ver != NOT_READ {
            // Opacity: if the line changed since we first read it, the
            // snapshot this transaction is operating on is broken.
            if cur != s.ver {
                return Err(Abort::Conflict);
            }
            return Ok((s.ver, s.write));
        }
        if cur & 1 != 0 {
            return Err(Abort::Conflict);
        }
        if d.reads.len() >= self.cfg.read_capacity_lines {
            return Err(Abort::Capacity);
        }
        if !found {
            i = d.claim(i, line);
        }
        d.slots[i].ver = cur;
        d.reads.push(i);
        Ok((cur, d.slots[i].write))
    }

    /// Transactionally reads `buf.len()` bytes at `offset`.
    ///
    /// Reads observe this transaction's own buffered writes.
    pub fn read(&mut self, offset: usize, buf: &mut [u8]) -> Result<(), Abort> {
        self.region.check(offset, buf.len()).map_err(|_| Abort::Explicit(0xFE))?;
        vtime::charge(ACCESS_NS * buf.len().div_ceil(LINE_SIZE) as u64);
        let mut done = 0;
        while done < buf.len() {
            let at = offset + done;
            let line = Region::line_of(at);
            let base = at % LINE_SIZE;
            let in_line = (LINE_SIZE - base).min(buf.len() - done);
            let (ver, write) = self.track_read(line)?;
            let out = &mut buf[done..done + in_line];
            // SAFETY: Bounds checked; the version re-validation below
            // rejects any concurrently mutated (torn) copy.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.region.byte_ptr(at) as *const u8,
                    out.as_mut_ptr(),
                    in_line,
                );
            }
            if self.region.load_meta(line) != ver {
                return Err(Abort::Conflict);
            }
            // Read-your-writes: overlay staged dirty bytes.
            if write != 0 {
                let w = &live(&mut self.desc).writes[write - 1];
                for (start, len) in runs(w.mask >> base & low_bits(in_line)) {
                    out[start..start + len]
                        .copy_from_slice(&w.bytes[base + start..base + start + len]);
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

    /// The staged copy of `line`, entering it into the write set at its
    /// first touch.
    fn stage(&mut self, line: usize) -> Result<&mut WriteLine, Abort> {
        let d = live(&mut self.desc);
        let (mut i, found) = d.probe(line);
        let s = d.slots[i];
        if found && s.write != 0 {
            return Ok(&mut d.writes[s.write - 1]);
        }
        if d.writes.len() >= self.cfg.write_capacity_lines {
            return Err(Abort::Capacity);
        }
        // Capture the version at first touch so commit can detect a
        // non-transactional store to a blind-written line — the
        // write-set conflict RTM would deliver eagerly. (A slot with no
        // staged write is there for the read set, and has a version.)
        let ver = if found {
            s.ver
        } else {
            let v = self.region.load_meta(line);
            if v & 1 != 0 {
                return Err(Abort::Conflict);
            }
            i = d.claim(i, line);
            v
        };
        d.writes.push(WriteLine { line, ver, mask: 0, bytes: [0; LINE_SIZE] });
        d.slots[i].write = d.writes.len();
        Ok(d.writes.last_mut().expect("just pushed"))
    }

    /// Transactionally (buffered) writes `data` at `offset`.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), Abort> {
        self.region.check(offset, data.len()).map_err(|_| Abort::Explicit(0xFE))?;
        vtime::charge(ACCESS_NS * data.len().div_ceil(LINE_SIZE) as u64);
        let mut done = 0;
        while done < data.len() {
            let at = offset + done;
            let base = at % LINE_SIZE;
            let in_line = (LINE_SIZE - base).min(data.len() - done);
            let w = self.stage(Region::line_of(at))?;
            w.bytes[base..base + in_line].copy_from_slice(&data[done..done + in_line]);
            w.mask |= low_bits(in_line) << base;
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
    pub fn commit(mut self) -> Result<(), Abort> {
        let region = self.region;
        let Descriptor { slots, reads, writes, order, .. } = live(&mut self.desc);
        vtime::charge(COMMIT_NS + ACCESS_NS * writes.len() as u64);

        // Phase 1: lock the write set in address order (no deadlock). A
        // line stays locked only if it still had its first-touch
        // version, so the lines held are always a prefix of `order` and
        // each one's pre-lock word is the `ver` of its staged write.
        order.clear();
        order.extend(0..writes.len());
        order.sort_unstable_by_key(|&w| writes[w].line);
        let rollback = |held: &[usize]| {
            for &w in held {
                region.unlock_line_nobump(writes[w].line, writes[w].ver);
            }
        };
        for (n, &w) in order.iter().enumerate() {
            let w = &writes[w];
            let pre = region.try_lock_line(w.line);
            if pre != Some(w.ver) {
                if let Some(pre) = pre {
                    region.unlock_line_nobump(w.line, pre);
                }
                rollback(&order[..n]);
                return Err(Abort::Conflict);
            }
        }

        // Phase 2: validate the read set (lines we also wrote were just
        // validated under their lock).
        for &i in reads.iter() {
            let s = &slots[i];
            if s.write == 0 && region.load_meta(s.line) != s.ver {
                rollback(order);
                return Err(Abort::Conflict);
            }
        }

        // Phase 3: apply dirty bytes and publish.
        for w in writes.iter() {
            let base = w.line * LINE_SIZE;
            for (start, len) in runs(w.mask) {
                // SAFETY: Line lock held; `write` bounds-checked every
                // byte it marked dirty, and a run ends within its line.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        w.bytes[start..start + len].as_ptr(),
                        region.byte_ptr(base + start),
                        len,
                    );
                }
            }
        }
        for &w in order.iter() {
            region.unlock_line_bump(writes[w].line, writes[w].ver);
        }
        Ok(())
    }
}

impl Drop for HtmTxn<'_> {
    /// Leaves the descriptor for the thread's next transaction; committed,
    /// aborted or abandoned makes no difference, since `begin` resets it.
    fn drop(&mut self) {
        let desc = self.desc.take();
        // A thread past its locals' destruction just frees it.
        let _ = SPARE.try_with(|spare| spare.set(desc));
    }
}

impl std::fmt::Debug for HtmTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (reads, writes) =
            self.desc.as_ref().map_or((0, 0), |d| (d.reads.len(), d.writes.len()));
        f.debug_struct("HtmTxn").field("read_lines", &reads).field("write_lines", &writes).finish()
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
    fn runs_partition_the_mask() {
        let masks = [
            0,
            1,
            1 << 63,
            u64::MAX,
            u64::MAX >> 1,
            !1,
            0xFF00_0000_0000_00FF,
            0xAAAA_AAAA_AAAA_AAAA,
            0x0000_FFFF_0FF0_0001,
        ];
        for mask in masks {
            let mut rebuilt = 0;
            let mut prev_end = None;
            for (start, len) in runs(mask) {
                assert!(len >= 1 && start + len <= 64, "{mask:#x}: run ({start}, {len})");
                // Ascending and maximal: a clear bit separates two runs.
                assert!(prev_end.is_none_or(|end| start > end), "{mask:#x}: run at {start}");
                rebuilt |= low_bits(len) << start;
                prev_end = Some(start + len);
            }
            assert_eq!(rebuilt, mask);
        }
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
