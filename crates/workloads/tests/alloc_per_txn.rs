//! Ceiling: the heap allocations of one warm SmallBank transaction.
//!
//! `Worker::execute` is meant to reach a fixed, allocation-free cost
//! (ROADMAP "A fixed-cost, allocation-free `Worker::execute`"). This
//! binary records where each of the six SmallBank transaction types
//! stands: one call on a warm one-machine deployment, its accounts drawn
//! from the worker's fixed RNG, counted by a per-thread counting
//! allocator. Each recorded count is a ceiling that may only go down;
//! the test prints the counts it saw (`--nocapture`).
//!
//! This file is its own test binary, so its allocator counts nothing
//! else; the count is per thread, so the harness's other threads and the
//! softtime thread do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use drtm_rdma::LatencyProfile;
use drtm_workloads::smallbank::{SmallBank, SmallBankConfig, SmallBankWorker};

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

/// A SmallBank transaction type and its recorded ceiling.
type Txn = (&'static str, fn(&mut SmallBankWorker) -> Result<(), drtm_core::TxnError>, u64);

/// Every type with the most allocations one warm call of it made when
/// recorded. Lower a number when a change takes allocations out; never
/// raise one.
const CEILINGS: [Txn; 6] = [
    ("send_payment", SmallBankWorker::try_send_payment, 6),
    ("balance", SmallBankWorker::try_balance, 4),
    ("deposit_checking", SmallBankWorker::try_deposit_checking, 4),
    ("withdraw_from_checking", SmallBankWorker::try_withdraw_from_checking, 4),
    ("transfer_to_savings", SmallBankWorker::try_transfer_to_savings, 4),
    ("amalgamate", SmallBankWorker::try_amalgamate, 7),
];

#[test]
fn a_warm_smallbank_transaction_allocates_no_more_than_recorded() {
    let bank = SmallBank::build(SmallBankConfig {
        nodes: 1,
        workers: 1,
        accounts_per_node: 1_000,
        region_size: 8 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    });
    let mut w = bank.worker(0, 0);
    let mut over = Vec::new();
    for (name, run, ceiling) in CEILINGS {
        // Warm-up: the thread's first regions, descriptors and caches.
        for _ in 0..50 {
            run(&mut w).expect("one machine, nothing fails");
        }
        let counts: Vec<u64> =
            (0..20).map(|_| allocations(|| run(&mut w).expect("nothing fails"))).collect();
        let most = *counts.iter().max().expect("twenty calls");
        println!("{name:<24} {most} allocations per call (ceiling {ceiling})");
        if most > ceiling {
            over.push(format!("{name}: {most} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "above the recorded ceilings: {over:?}");
}
