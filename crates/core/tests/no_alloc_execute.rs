//! Gate: a warm worker's `Worker::execute` performs no heap allocation.
//!
//! In DrTM a transaction's local work is a few L1-resident accesses in
//! one RTM region, with no allocator on the path; here the worker's
//! scratch (slot table, lock order, write set, value arena) and its log
//! slot's encode buffer keep their capacity from one transaction to the
//! next, so after a warm-up a transaction of the same shape allocates
//! nothing. Each `TxnSpec` is built before counting: its `Vec`s are the
//! caller's. Durability logging is on, so the lock-ahead and write-ahead
//! records are encoded on the measured path too.
//!
//! The ordered-2PL fallback is held to the same zero: its key lookups
//! batch into one region and write each record straight into its slot.
//!
//! This file is its own test binary, so its allocator counts nothing
//! else; the count is per thread, so the harness's other threads do not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use drtm_core::{
    Decl, Deployment, DrTm, DrTmConfig, LocalKey, RecordAddr, TxnCtx, TxnError, TxnSpec, USER_ABORT,
};
use drtm_htm::Abort;
use drtm_memstore::{ClusterHash, LookupResult};
use drtm_rdma::{ClusterConfig, LatencyProfile};

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

const VAL_CAP: usize = 16;
const KEYS: u64 = 8;

/// Two machines, one table each, every key holding 100; `max_retries`
/// 0 sends every read-write transaction down the ordered-2PL fallback.
fn deployment(max_retries: u32) -> (Arc<DrTm>, Vec<Arc<ClusterHash>>) {
    let cluster = ClusterConfig {
        nodes: 2,
        region_size: 8 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    };
    let mut cfg = DrTmConfig { logging: true, ..DrTmConfig::default() };
    cfg.htm.max_retries = max_retries;
    let mut dep = Deployment::new(cluster, cfg, 1);
    let tables = dep.hash(64, 256, VAL_CAP);
    for n in dep.nodes() {
        for k in 0..KEYS {
            tables[n as usize].insert(dep.exec(), dep.region(n), k, &100u64.to_le_bytes()).unwrap();
        }
    }
    (dep.start_frozen(), tables)
}

fn remote(sys: &DrTm, table: &ClusterHash, key: u64) -> RecordAddr {
    match table.remote_lookup(&sys.cluster().qp(0), key) {
        LookupResult::Found { addr, .. } => RecordAddr::new(addr, VAL_CAP),
        _ => panic!("key {key} is populated"),
    }
}

fn u64_of(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 value bytes"))
}

/// Adds 1 to keyed write `row`.
fn keyed_rmw(ctx: &mut TxnCtx<'_>, row: Decl) -> Result<(), Abort> {
    let v = u64_of(ctx.get(row)?.expect("populated"));
    ctx.put(row, &(v + 1).to_le_bytes())
}

/// Adds 1 to remote write 0: locked and fetched by Start, written back.
fn remote_rmw(ctx: &mut TxnCtx<'_>) -> Result<(), Abort> {
    let v = u64_of(ctx.remote_write_cur(0));
    ctx.remote_write(0, (v + 1).to_le_bytes());
    Ok(())
}

/// The most allocations one of 20 warm calls of `run` made.
fn most(mut run: impl FnMut()) -> u64 {
    for _ in 0..50 {
        run();
    }
    (0..20).map(|_| allocations(&mut run)).max().expect("twenty calls")
}

#[test]
fn a_warm_execute_allocates_nothing() {
    let (sys, tables) = deployment(8);
    let mut w = sys.worker(0, 0);
    let key = |key| LocalKey { table: &tables[0], key };
    let (mut rmw, mut two_reads) = (TxnSpec::default(), TxnSpec::default());
    let row = rmw.write_key(key(0));
    let [one, two] = [key(1), key(2)].map(|k| two_reads.read_key(k));
    let remote_write =
        TxnSpec { remote_writes: vec![remote(&sys, &tables[1], 3)], ..Default::default() };
    let counts = [
        ("keyed local read-modify-write", most(|| w.execute(&rmw, |c| keyed_rmw(c, row)).unwrap())),
        (
            "keyed two-record read",
            most(|| {
                let sum = w.execute(&two_reads, |ctx| {
                    let a = u64_of(ctx.get(one)?.expect("populated"));
                    Ok(a + u64_of(ctx.get(two)?.expect("populated")))
                });
                assert_eq!(sum, Ok(200));
            }),
        ),
        ("remote read-modify-write", most(|| w.execute(&remote_write, remote_rmw).unwrap())),
        (
            "user abort",
            most(|| {
                let r = w.execute(&remote_write, |_| Err::<(), _>(Abort::Explicit(USER_ABORT)));
                assert_eq!(r, Err(TxnError::UserAborted));
            }),
        ),
    ];
    for (name, n) in counts {
        println!("{name:<32} {n} allocations per execute");
    }
    assert!(counts.iter().all(|&(_, n)| n == 0), "a warm execute allocated: {counts:?}");
    assert_eq!(sys.stats().snapshot().fallback_committed, 0, "every commit took the HTM path");
}

#[test]
fn a_warm_ordered_2pl_fallback_allocates_nothing() {
    let (sys, tables) = deployment(0);
    let mut w = sys.worker(0, 0);
    let mut spec =
        TxnSpec { remote_writes: vec![remote(&sys, &tables[1], 5)], ..Default::default() };
    let row = spec.write_key(LocalKey { table: &tables[0], key: 4 });
    let n = most(|| {
        w.execute(&spec, |ctx| {
            keyed_rmw(ctx, row)?;
            remote_rmw(ctx)
        })
        .unwrap()
    });
    println!("{:<32} {n} allocations per execute", "ordered-2PL fallback");
    assert_eq!(n, 0, "a warm ordered-2PL execute allocated");
    assert!(sys.stats().snapshot().fallback_committed >= 70, "every commit took the fallback");
}
