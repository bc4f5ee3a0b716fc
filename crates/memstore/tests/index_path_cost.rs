//! Golden cost of the local index paths, in cache lines as well as in
//! virtual nanoseconds.
//!
//! An HTM region pays, conflicts and overflows per cache line, so a local
//! index walk is pinned here in both units: the *footprint* of one
//! canonical operation (the distinct lines it enters into the read set
//! and the write set) and its *virtual cost* (`HtmTxn` charges 40 ns per
//! line a call spans). Single-threaded and built by fixed insert
//! sequences, so every number repeats exactly.
//!
//! The footprints are the contract: they were recorded against the
//! walkers that went through `HtmTxn` one 8-byte word at a time and did
//! not move when the walkers began reading a line per access — "tracks no
//! more lines than it looked at" as a test. **Never edit a footprint.**
//! The nanoseconds are derived at each case from the accesses the walk
//! makes (one per line visited, two for a range that is longer than 64
//! bytes); edit one only together with its derivation.
//!
//! Footprints are measured through the public API alone: the smallest
//! `read_capacity_lines` / `write_capacity_lines` under which the
//! operation does not return `Abort::Capacity`. Every measured
//! transaction is dropped, so the fixtures never change.

use std::sync::Arc;

use drtm_htm::{vtime, Abort, Executor, HtmConfig, HtmStats, HtmTxn, Region};
use drtm_memstore::{Arena, BTree, ClusterHash};

const REGION_BYTES: usize = 1 << 20;
/// With 32 value bytes an entry is exactly one 64-byte line.
const VALUE: [u8; 32] = [7; 32];

/// What one operation costs: virtual time, then the lines it tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    ns: u64,
    read_lines: usize,
    write_lines: usize,
}

const fn cost(ns: u64, read_lines: usize, write_lines: usize) -> Cost {
    Cost { ns, read_lines, write_lines }
}

/// Whether `op` fits an HTM with room for `reads` and `writes` lines.
fn fits<T>(
    region: &Region,
    op: &mut impl FnMut(&mut HtmTxn<'_>) -> Result<T, Abort>,
    reads: usize,
    writes: usize,
) -> bool {
    let cfg = HtmConfig {
        read_capacity_lines: reads,
        write_capacity_lines: writes,
        ..HtmConfig::default()
    };
    !matches!(op(&mut region.begin(&cfg)), Err(Abort::Capacity))
}

/// Runs `op` in transactions that are never committed.
fn measure<T>(region: &Region, mut op: impl FnMut(&mut HtmTxn<'_>) -> Result<T, Abort>) -> Cost {
    const ROOMY: usize = 1 << 12;
    let mut txn = region.begin(&HtmConfig {
        read_capacity_lines: ROOMY,
        write_capacity_lines: ROOMY,
        ..HtmConfig::default()
    });
    let (done, ns) = vtime::measure(|| op(&mut txn));
    assert!(done.is_ok(), "the operation aborted with room to spare");
    drop(txn);
    let read_lines = (0..ROOMY).find(|&r| fits(region, &mut op, r, ROOMY)).expect("read set");
    let write_lines = (0..ROOMY).find(|&w| fits(region, &mut op, ROOMY, w)).expect("write set");
    Cost { ns, read_lines, write_lines }
}

/// A one-bucket table holding keys `0..keys`: key `k < 8` sits in slot
/// `k` of the main bucket until a ninth key extends the chain (the
/// resident of slot 7 then moves to slot 0 of the indirect bucket).
fn hash_fixture(keys: u64) -> (Region, ClusterHash, Executor) {
    let region = Region::new(REGION_BYTES);
    let mut arena = Arena::new(0, REGION_BYTES);
    let table = ClusterHash::create(&mut arena, 0, 1, 64, VALUE.len());
    let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
    for k in 0..keys {
        table.insert(&exec, &region, k, &VALUE).expect("room");
    }
    (region, table, exec)
}

/// `ClusterHash` lookups and inserts. A bucket is two lines of four
/// slots; the walk reads a line per access and stops at the line that
/// holds the key, so a hit costs the same anywhere within its line.
fn hash_cases() -> Vec<(&'static str, Cost, Cost)> {
    let mut out = Vec::new();
    let get = |table: &ClusterHash, region: &Region, key: u64, hit: bool| {
        measure(region, |txn| {
            let found = table.get_local(txn, key)?;
            assert_eq!(found.is_some(), hit, "key {key}");
            Ok(())
        })
    };

    let (region, table, exec) = hash_fixture(8);
    // Line 0 of the bucket: 1 access.
    out.push(("get slot 0", get(&table, &region, 0, true), cost(40, 1, 0)));
    out.push(("get slot 3", get(&table, &region, 3, true), cost(40, 1, 0)));
    // Lines 0 and 1: 2 accesses.
    out.push(("get slot 4", get(&table, &region, 4, true), cost(80, 2, 0)));
    out.push(("get slot 7", get(&table, &region, 7, true), cost(80, 2, 0)));
    // Both lines, and slot 7 is an entry: the chain ends. 2 accesses.
    out.push(("miss, one bucket", get(&table, &region, 99, false), cost(80, 2, 0)));

    let insert = |table: &ClusterHash, region: &Region, key: u64| {
        measure(region, |txn| {
            let prepared = table.insert_txn(txn, key, &VALUE)?.expect("room and no duplicate");
            table.undo_insert(prepared);
            Ok(())
        })
    };
    // Full chain: 2 bucket lines + the entry's header read, header write
    // and value write (3) + the indirect bucket written whole (128 bytes,
    // 2) + the link over slot 7 (1) = 8 accesses. Tracked: bucket lines 0
    // and 1 and the entry read; entry, both indirect lines and bucket
    // line 1 written.
    out.push(("insert, full chain", insert(&table, &region, 100), cost(320, 3, 4)));
    // A hole in line 1 (slot 5): the walk still covers the whole chain
    // for a duplicate. 2 bucket lines + entry (3) + the slot (1) = 6.
    assert!(table.delete(&exec, &region, 5));
    out.push(("insert, hole", insert(&table, &region, 100), cost(240, 3, 2)));

    // Nine keys: the main bucket links to an indirect one. 4 lines.
    let (region, table, _) = hash_fixture(9);
    out.push(("miss, two buckets", get(&table, &region, 99, false), cost(160, 4, 0)));
    out
}

/// A tree holding keys `0, 10, .. 10 * (keys - 1)` (payload = key + 1),
/// inserted in ascending order.
///
/// A leaf splits 7/7 when its 14th key arrives, so ascending inserts
/// leave every leaf but the last with 7 keys: leaf `j` holds the keys of
/// index `7j .. 7j + 6`. The 14th leaf split (insert 105) fills the root
/// and splits it 7 | separator | 6 under a new root; the right internal
/// node fills again every 8 leaf splits (insert 161, 217, ..).
fn tree_fixture(keys: u64) -> (Region, BTree) {
    let region = Region::new(REGION_BYTES);
    let mut arena = Arena::new(0, REGION_BYTES);
    let tree = BTree::create(&mut arena, &region, 0, 256);
    let cfg = HtmConfig::default();
    for k in 0..keys {
        let mut txn = region.begin(&cfg);
        assert!(tree.insert(&mut txn, 10 * k, 10 * k + 1).expect("single-threaded"));
        txn.commit().expect("single-threaded");
    }
    (region, tree)
}

/// `BTree` operations. A node is four lines — 0: header, next-leaf link,
/// keys 0–5; 1: keys 6–13; 2: values 0–7; 3: values 8–14 — and a walk
/// reads line 0, line 1 only if the search passes key 5 (or a shift moves
/// keys beyond it), and one value or child word: at most 3 accesses per
/// level after 1 for the root pointer.
///
/// The fixture has 202 keys on three levels. Root: keys 560, 1120.
/// Internal node 2 (reached by every key ≥ 1120): 11 keys 1190, 1260, ..
/// 1890, children = leaves 16..=27. Leaf 20: the 7 keys 1400..=1460. Leaf
/// 27, the last: the 13 keys 1890..=2010.
fn tree_cases() -> Vec<(&'static str, Cost, Cost)> {
    let mut out = Vec::new();
    let (region, tree) = tree_fixture(202);

    // Root (line 0, child 0), internal node 0 (7 keys, 20 < key 0: line
    // 0, child 0), leaf 0 (index 2: line 0, value 2): 1 + 2 + 2 + 2 = 7.
    let hit = |key| {
        measure(&region, |txn| {
            assert_eq!(tree.get(txn, key)?, Some(key + 1));
            Ok(())
        })
    };
    out.push(("get, first six keys", hit(20), cost(280, 7, 0)));
    // Root (line 0, child 2), internal node 2 (past all 11 keys: lines 0
    // and 1, child 11 in line 3), leaf 27 (index 6: lines 0 and 1, value
    // 6): 1 + 2 + 3 + 3 = 9.
    out.push(("get, past key 5", hit(1950), cost(360, 9, 0)));

    // The descent to leaf 20 is root (2) and internal node 2 (index 4:
    // line 0, child 4: 2), 5 with the root pointer. Leaf 20, new key at
    // index 1 of 7: lines 0 and 1 (2), keys 1..=7 written (1), values
    // 1..7 read (1), values 1..=7 written (1), header (1) = 6.
    out.push((
        "insert, shifting",
        measure(&region, |txn| tree.insert(txn, 1405, 0)),
        cost(440, 8, 3),
    ));
    // Leaf 20, index 1 of 7 removed: lines 0 and 1 (2), keys 1..6 written
    // (1), values 2..7 read (1), values 1..6 written (1), header (1) = 6.
    out.push((
        "remove, shifting",
        measure(&region, |txn| {
            assert!(tree.remove(txn, 1410)?);
            Ok(())
        }),
        cost(440, 8, 2),
    ));
    // The descent to leaf 27 is root (2) and internal node 2 (past all
    // its keys: 3), 6 with the root pointer. Appending the 14th key:
    // lines 0 and 1 (2), key 13, value 13 and header written (3) = 5. The
    // split: free-list head and the new node's link read, head written
    // (3), values 7..14 read (1), the right node's header, link and 7
    // keys written (72 bytes: 2) and its 7 values (1), the left header
    // and link (1) = 8. The separator into internal node 2 at index 11:
    // key 11, child 12 and header written (3). 6 + 5 + 8 + 3 = 22.
    out.push((
        "insert, leaf split",
        measure(&region, |txn| tree.insert(txn, 2020, 0)),
        cost(880, 11, 10),
    ));
    // 1430 ..= 1570 is indexes 3..7 of leaf 20, all of leaf 21 and
    // indexes 0..4 of leaf 22, where key 1580 ends the scan. Descent 5;
    // leaf 20: lines 0 and 1, values (3); leaf 21: the same (3); leaf 22:
    // line 0, values (2) = 13.
    out.push((
        "scan, three leaves",
        measure(&region, |txn| {
            let got = tree.scan_range(txn, 1430, 1570, usize::MAX)?;
            assert_eq!(got, (143..=157).map(|i| (10 * i, 10 * i + 1)).collect::<Vec<_>>());
            Ok(())
        }),
        cost(520, 13, 0),
    ));

    // Insert 105 into a two-level tree: the 14th leaf split fills the
    // root, which splits under a new one. Root pointer and root (past
    // all 13 keys: 3) = 4; the append and leaf split as above, 5 + 8;
    // separator into the root at index 13 (3); the root's split: the
    // allocation (3), children 8..15 read (1), the right node's header,
    // link and 6 keys written (1) and its 7 children (1), the left
    // header (1) = 7; the new root: the allocation (3), header, link and
    // key written (1), two children (1), the root pointer (1) = 6.
    // 4 + 5 + 8 + 3 + 7 + 6 = 33.
    let (region, tree) = tree_fixture(104);
    out.push((
        "insert, root split",
        measure(&region, |txn| tree.insert(txn, 1040, 0)),
        cost(1320, 11, 14),
    ));
    out
}

fn cases() -> Vec<(&'static str, Cost, Cost)> {
    let mut all = hash_cases();
    all.extend(tree_cases());
    all
}

#[test]
fn footprints_are_the_lines_the_word_walk_tracked() {
    for (name, got, want) in cases() {
        assert_eq!(
            (got.read_lines, got.write_lines),
            (want.read_lines, want.write_lines),
            "{name}: (read, write) lines"
        );
    }
}

#[test]
fn virtual_cost_is_one_access_per_line_visited() {
    for (name, got, want) in cases() {
        assert_eq!(got.ns, want.ns, "{name}: virtual ns");
    }
}
