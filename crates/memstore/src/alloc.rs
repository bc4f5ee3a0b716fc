//! Host-side allocation of region space.
//!
//! Region memory is carved up in two stages:
//!
//! 1. At setup time an [`Arena`] hands out non-overlapping ranges of a
//!    node's region to tables (main headers, indirect pools, entry pools,
//!    B+ tree node pools).
//! 2. At run time each pool allocates fixed-size cells from its range via
//!    a [`FreeList`]. INSERT/DELETE are always executed on the host
//!    machine (§5.1 footnote 5), so the free list is ordinary host-side
//!    state, not region memory.
//!
//! # Concurrency
//!
//! The free list used to be one global mutex, which serialized every
//! inserting worker on the machine. It is now sharded: each worker
//! thread maps to a shard holding its own free-cell stack (by the
//! workspace's one thread-shard index, [`drtm_htm::counters::shard_id`],
//! which the counters share), and a shard that runs dry carves a *slab*
//! of fresh cells from the shared bump cursor (a single atomic) in one
//! step. Allocation and free are
//! therefore local to the worker's shard — the only cross-shard traffic
//! is slab carving (amortized over [`SLAB_CELLS`] allocations) and
//! end-of-pool stealing when the bump region is exhausted.

use std::sync::atomic::{AtomicUsize, Ordering};

use drtm_htm::counters::{shard_id, NSHARDS};
use parking_lot::Mutex;

/// Explicit-abort code of a store operation whose cell pool ran dry
/// inside an HTM region: by then the region may hold staged writes, so
/// exhaustion leaves the way every other verdict of a body does.
pub(crate) const ABORT_POOL_FULL: u8 = 0xF0;

/// Setup-time carver of a region into table ranges.
///
/// Alignment is to 64 bytes so every range starts on a fresh emulated
/// cache line (no false HTM conflicts between adjacent tables).
#[derive(Debug)]
pub struct Arena {
    cursor: usize,
    size: usize,
}

impl Arena {
    /// Creates an arena over `[start, start + size)` of a region.
    pub fn new(start: usize, size: usize) -> Self {
        Arena { cursor: start, size: start + size }
    }

    /// Reserves `bytes`, 64-byte aligned; returns the range start.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted (a sizing bug in the harness).
    pub fn reserve(&mut self, bytes: usize) -> usize {
        let start = self.cursor.next_multiple_of(64);
        let end = start.checked_add(bytes).expect("arena overflow");
        assert!(end <= self.size, "arena exhausted: need {bytes} at {start}, cap {}", self.size);
        self.cursor = end;
        start
    }

    /// Bytes remaining (ignoring alignment padding of future calls).
    pub fn remaining(&self) -> usize {
        self.size - self.cursor
    }
}

/// Cells carved from the shared bump cursor per refill. One atomic RMW
/// buys this many lock-free local allocations.
const SLAB_CELLS: usize = 32;

/// Run-time allocator of fixed-size cells within a reserved range.
///
/// Sharded per worker thread: see the module docs.
#[derive(Debug)]
pub struct FreeList {
    /// Next never-allocated cell index; monotonically clamped to
    /// `capacity`.
    bump: AtomicUsize,
    /// Free cells returned (or slab remainders), one stack per shard.
    shards: [Mutex<Vec<usize>>; NSHARDS],
    /// Total cells sitting on shard stacks (kept exact so [`Self::live`]
    /// needs no cross-shard locking).
    free_cells: AtomicUsize,
    base: usize,
    cell: usize,
    capacity: usize,
}

impl FreeList {
    /// Creates an allocator of `capacity` cells of `cell` bytes starting
    /// at region offset `base`.
    pub fn new(base: usize, cell: usize, capacity: usize) -> Self {
        FreeList {
            bump: AtomicUsize::new(0),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            free_cells: AtomicUsize::new(0),
            base,
            cell,
            capacity,
        }
    }

    /// Total capacity in cells.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Carves up to [`SLAB_CELLS`] cells from the bump region; returns
    /// the first index and the count (0 when the pool is exhausted).
    fn carve(&self) -> (usize, usize) {
        let mut cur = self.bump.load(Ordering::Relaxed);
        loop {
            if cur >= self.capacity {
                return (0, 0);
            }
            let end = (cur + SLAB_CELLS).min(self.capacity);
            match self.bump.compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return (cur, end - cur),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Allocates one cell; returns its region offset, or `None` if full.
    ///
    /// The common case pops from the calling worker's shard stack; a dry
    /// shard refills itself with a slab from the shared bump cursor, and
    /// only when that too is exhausted does it steal from other shards.
    pub fn alloc(&self) -> Option<usize> {
        let home = shard_id();
        if let Some(idx) = self.shards[home].lock().pop() {
            self.free_cells.fetch_sub(1, Ordering::Relaxed);
            return Some(self.base + idx * self.cell);
        }
        let (start, got) = self.carve();
        if got > 0 {
            if got > 1 {
                let mut shard = self.shards[home].lock();
                // Remainders pushed in descending order so they pop in
                // ascending cell order (matches the pre-shard layout).
                shard.extend((start + 1..start + got).rev());
                self.free_cells.fetch_add(got - 1, Ordering::Relaxed);
            }
            return Some(self.base + start * self.cell);
        }
        // Bump region exhausted: steal a cell from any other shard.
        for delta in 1..NSHARDS {
            let victim = (home + delta) & (NSHARDS - 1);
            if let Some(idx) = self.shards[victim].lock().pop() {
                self.free_cells.fetch_sub(1, Ordering::Relaxed);
                return Some(self.base + idx * self.cell);
            }
        }
        None
    }

    /// Returns a cell to the allocator (to the calling worker's shard).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not a cell boundary inside this pool.
    pub fn free(&self, offset: usize) {
        assert!(
            offset >= self.base
                && (offset - self.base).is_multiple_of(self.cell)
                && (offset - self.base) / self.cell < self.capacity,
            "free of foreign offset {offset}"
        );
        self.shards[shard_id()].lock().push((offset - self.base) / self.cell);
        self.free_cells.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of live (allocated, not freed) cells.
    pub fn live(&self) -> usize {
        let bumped = self.bump.load(Ordering::Relaxed).min(self.capacity);
        bumped - self.free_cells.load(Ordering::Relaxed).min(bumped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_aligns_and_advances() {
        let mut a = Arena::new(10, 1000);
        let r1 = a.reserve(100);
        assert_eq!(r1 % 64, 0);
        let r2 = a.reserve(8);
        assert!(r2 >= r1 + 100);
        assert_eq!(r2 % 64, 0);
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn arena_exhaustion_panics() {
        let mut a = Arena::new(0, 128);
        a.reserve(64);
        a.reserve(128);
    }

    #[test]
    fn freelist_alloc_free_reuse() {
        let f = FreeList::new(256, 32, 3);
        let a = f.alloc().unwrap();
        let b = f.alloc().unwrap();
        let c = f.alloc().unwrap();
        assert_eq!((a, b, c), (256, 288, 320));
        assert!(f.alloc().is_none());
        f.free(b);
        assert_eq!(f.alloc().unwrap(), b);
        assert_eq!(f.live(), 3);
    }

    #[test]
    #[should_panic(expected = "foreign offset")]
    fn freelist_rejects_foreign_free() {
        let f = FreeList::new(0, 32, 2);
        f.free(33);
    }

    #[test]
    fn freelist_is_thread_safe() {
        let f = std::sync::Arc::new(FreeList::new(0, 8, 1000));
        let mut hs = Vec::new();
        for _ in 0..4 {
            let f = f.clone();
            hs.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..250 {
                    got.push(f.alloc().unwrap());
                }
                got
            }));
        }
        let mut all: Vec<usize> = hs.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000, "double allocation detected");
        assert!(f.alloc().is_none());
        assert_eq!(f.live(), 1000);
    }

    #[test]
    fn cross_thread_free_is_reallocated() {
        let f = std::sync::Arc::new(FreeList::new(0, 8, SLAB_CELLS));
        let offs: Vec<usize> = (0..SLAB_CELLS).map(|_| f.alloc().unwrap()).collect();
        assert!(f.alloc().is_none());
        // A different thread frees half the cells into *its* shard…
        let f2 = f.clone();
        let freed: Vec<usize> = offs.iter().step_by(2).copied().collect();
        let freed2 = freed.clone();
        std::thread::spawn(move || {
            for o in freed2 {
                f2.free(o);
            }
        })
        .join()
        .unwrap();
        // …and this thread can still allocate them all (stealing).
        let mut got: Vec<usize> = (0..freed.len()).map(|_| f.alloc().unwrap()).collect();
        got.sort_unstable();
        let mut want = freed;
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(f.alloc().is_none());
    }
}
