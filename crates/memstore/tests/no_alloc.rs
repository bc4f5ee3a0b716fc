//! Gate: the software HTM's steady state performs no heap allocation.
//!
//! An HTM region stands for L1 hits; in this emulation its cost is host
//! time, and a `malloc` per region or per record access is most of it.
//! A thread's first transaction may allocate (it builds the thread's
//! descriptor, and a larger one grows it); after that, a region of the
//! same shape must not. The gate lives here and not in `drtm-htm`
//! because it has to see both layers: the record accessor every local
//! read and write starts with is this crate's.
//!
//! This file is its own test binary, so its allocator counts nothing
//! else; the count is per thread, so the test harness's own threads do
//! not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use drtm_htm::{HtmConfig, Region, LINE_SIZE};
use drtm_memstore::{Entry, EntryHeader};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's requests for memory.
struct Counting;

// SAFETY: Every request is passed to `System` unchanged, which upholds
// the `GlobalAlloc` contract; the only addition is a `Cell` bump in a
// `const`-initialised thread-local with no destructor, which neither
// allocates nor unwinds (`try_with` covers a thread tearing down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: The caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: As above; `ptr` came from `System` through `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: As above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The shape of the benchmark's `htm.probe.rw_line_host_ns`: one region
/// that reads and then writes each of 16 lines.
fn rw_16_lines(region: &Region, cfg: &HtmConfig) {
    let mut txn = region.begin(cfg);
    for line in 0..16 {
        let v = txn.read_u64(line * LINE_SIZE).expect("no other thread");
        txn.write_u64(line * LINE_SIZE, v + 1).expect("no other thread");
    }
    txn.commit().expect("no other thread");
}

#[test]
fn the_counter_counts() {
    assert_eq!(allocations(|| drop(std::hint::black_box(vec![0u8; 64]))), 1);
}

#[test]
fn a_warm_thread_runs_regions_without_allocating() {
    let region = Region::new(64 * LINE_SIZE);
    let cfg = HtmConfig::default();
    let entry = Entry::at(32 * LINE_SIZE);
    let header = EntryHeader { key: 9, version: 3, value_len: 8, ..Default::default() };

    // Warm-up: the thread's first region, of the largest shape below.
    rw_16_lines(&region, &cfg);

    assert_eq!(allocations(|| rw_16_lines(&region, &cfg)), 0, "16-line read+write region");
    assert_eq!(
        allocations(|| region.begin(&cfg).commit().expect("no other thread")),
        0,
        "empty region"
    );
    let mut txn = region.begin(&cfg);
    entry.write_header(&mut txn, &header).expect("no other thread");
    let mut read = None;
    assert_eq!(allocations(|| read = Some(entry.read_header(&mut txn))), 0, "Entry::read_header");
    assert_eq!(read, Some(Ok(header)));
    // An abandoned region hands its descriptor on like a committed one.
    drop(txn);
    assert_eq!(allocations(|| rw_16_lines(&region, &cfg)), 0, "region after a dropped one");
}
