//! Ceiling: the heap allocations of one warm workload transaction.
//!
//! A warm `Worker::execute` allocates nothing (`drtm-core`'s
//! `no_alloc_execute.rs`); what a workload transaction still allocates
//! is its own. This binary records where each of the six SmallBank
//! transaction types, TPC-C's five and `micro`'s `read_write` stand: the
//! most allocations one of 20 calls made on a warm one-machine
//! deployment, its inputs drawn from the worker's fixed RNG, counted by a
//! per-thread counting allocator. Each recorded count is a ceiling that
//! may only go down; the test prints the counts it saw (`--nocapture`).
//!
//! SmallBank's 1 is the `TxnSpec` the workload builds, whose `Vec`
//! fields the repo benchmark pins. TPC-C's bodies still decode rows into
//! `Vec<u64>` and pack them with `pack_fields`, and its reconnaissance
//! and index work allocate.
//!
//! This file is its own test binary, so its allocator counts nothing
//! else; the count is per thread, so the harness's other threads and the
//! softtime thread do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use drtm_rdma::LatencyProfile;
use drtm_workloads::micro::{Micro, MicroConfig};
use drtm_workloads::smallbank::{SmallBank, SmallBankConfig, SmallBankWorker};
use drtm_workloads::tpcc::{Tpcc, TpccConfig, TpccWorker};

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

/// The most allocations one of 20 calls of `run` made, after 50 calls
/// of warm-up (the thread's first regions, descriptors and caches);
/// printed beside `ceiling`, and added to `over` above it.
fn check(name: &str, ceiling: u64, mut run: impl FnMut(), over: &mut Vec<String>) {
    for _ in 0..50 {
        run();
    }
    let most = (0..20).map(|_| allocations(&mut run)).max().expect("twenty calls");
    println!("{name:<24} {most} allocations per call (ceiling {ceiling})");
    if most > ceiling {
        over.push(format!("{name}: {most} > {ceiling}"));
    }
}

/// A SmallBank transaction type and its recorded ceiling.
type Txn = (&'static str, fn(&mut SmallBankWorker) -> Result<(), drtm_core::TxnError>, u64);

/// Every type with the most allocations one warm call of it made when
/// recorded. Lower a number when a change takes allocations out; never
/// raise one.
const CEILINGS: [Txn; 6] = [
    ("send_payment", SmallBankWorker::try_send_payment, 1),
    ("balance", SmallBankWorker::try_balance, 1),
    ("deposit_checking", SmallBankWorker::try_deposit_checking, 1),
    ("withdraw_from_checking", SmallBankWorker::try_withdraw_from_checking, 1),
    ("transfer_to_savings", SmallBankWorker::try_transfer_to_savings, 1),
    ("amalgamate", SmallBankWorker::try_amalgamate, 1),
];

/// A TPC-C transaction type and its recorded ceiling.
type TpccTxn = (&'static str, fn(&mut TpccWorker) -> Result<(), drtm_core::TxnError>, u64);

/// TPC-C's five types, recorded as [`CEILINGS`] is.
const TPCC_CEILINGS: [TpccTxn; 5] = [
    ("new_order", TpccWorker::try_new_order, 76),
    ("payment", TpccWorker::try_payment, 9),
    ("order_status", TpccWorker::try_order_status, 39),
    ("delivery", TpccWorker::try_delivery, 3),
    ("stock_level", TpccWorker::try_stock_level, 986),
];

/// `micro`'s `read_write(5)`, recorded as [`CEILINGS`] is.
const MICRO_READ_WRITE: u64 = 6;

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
        check(name, ceiling, || run(&mut w).expect("one machine, nothing fails"), &mut over);
    }
    assert!(over.is_empty(), "above the recorded ceilings: {over:?}");
}

#[test]
fn a_warm_tpcc_transaction_allocates_no_more_than_recorded() {
    let tpcc = Arc::new(Tpcc::build(TpccConfig {
        nodes: 1,
        workers: 1,
        districts: 3,
        customers_per_district: 30,
        items: 200,
        max_new_orders_per_node: 5_000,
        region_size: 48 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    }));
    let mut w = tpcc.worker(0, 0);
    let mut over = Vec::new();
    for (name, run, ceiling) in TPCC_CEILINGS {
        check(name, ceiling, || run(&mut w).expect("one machine, nothing fails"), &mut over);
    }
    assert!(over.is_empty(), "above the recorded ceilings: {over:?}");
}

#[test]
fn a_warm_micro_transaction_allocates_no_more_than_recorded() {
    let micro = Micro::build(MicroConfig {
        nodes: 1,
        workers: 1,
        records_per_node: 1_000,
        region_size: 8 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    });
    let mut w = micro.worker(0, 0);
    let mut over = Vec::new();
    check("read_write", MICRO_READ_WRITE, || _ = w.read_write(5), &mut over);
    assert!(over.is_empty(), "above the recorded ceiling: {over:?}");
}
