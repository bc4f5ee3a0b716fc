//! Property-based tests of the storage substrates against model
//! implementations (`std` maps), plus encoding invariants.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use drtm::htm::{Executor, HtmConfig, HtmStats, Region};
use drtm::memstore::{hash64, Arena, BTree, ClusterHash, ElasticHash, InsertError, Slot, SlotType};
use drtm::txn::LockState;

/// Operations the hash-table model understands.
#[derive(Debug, Clone)]
enum HashOp {
    Insert(u64, Vec<u8>),
    Delete(u64),
    Get(u64),
}

fn hash_op() -> impl Strategy<Value = HashOp> {
    prop_oneof![
        (0u64..64, proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| HashOp::Insert(k, v)),
        (0u64..64).prop_map(HashOp::Delete),
        (0u64..64).prop_map(HashOp::Get),
    ]
}

/// [`HashOp`] plus an explicit online bucket doubling — only the
/// split-ordered table understands `Grow`; observable behaviour must
/// not change across it.
#[derive(Debug, Clone)]
enum ElasticOp {
    Hash(HashOp),
    Grow,
}

fn elastic_op() -> impl Strategy<Value = ElasticOp> {
    // No weighted arms in the vendored proptest: bias towards data ops
    // by folding the grow choice into a wider integer draw.
    (0u8..8, hash_op()).prop_map(
        |(roll, op)| {
            if roll == 0 {
                ElasticOp::Grow
            } else {
                ElasticOp::Hash(op)
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The cluster-chaining hash table behaves exactly like a HashMap
    /// under arbitrary insert/delete/get sequences (single node; keys
    /// deliberately colliding into one bucket chain now and then).
    #[test]
    fn cluster_hash_matches_model(ops in proptest::collection::vec(hash_op(), 1..120)) {
        let region = Region::new(4 << 20);
        let mut arena = Arena::new(64, (4 << 20) - 64);
        // 4 main buckets force heavy chaining.
        let table = ClusterHash::create(&mut arena, 0, 4, 256, 16);
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                HashOp::Insert(k, v) => {
                    let got = table.insert(&exec, &region, k, &v);
                    match model.entry(k) {
                        Entry::Occupied(_) => {
                            prop_assert_eq!(got, Err(InsertError::Duplicate));
                        }
                        Entry::Vacant(e) => {
                            prop_assert!(got.is_ok());
                            e.insert(v);
                        }
                    }
                }
                HashOp::Delete(k) => {
                    let got = table.delete(&exec, &region, k);
                    prop_assert_eq!(got, model.remove(&k).is_some());
                }
                HashOp::Get(k) => {
                    let mut txn = region.begin(exec.config());
                    let got = table
                        .get_local(&mut txn, k)
                        .unwrap()
                        .map(|e| e.read_value(&mut txn).unwrap());
                    prop_assert_eq!(got, model.get(&k).cloned());
                }
            }
        }
        prop_assert_eq!(table.len(), model.len());
    }

    /// Observational equivalence: the split-ordered elastic hash behaves
    /// exactly like the fixed-size cluster hash (and both like a
    /// HashMap) under arbitrary insert/delete/get/grow sequences — in a
    /// roomy geometry and in the degenerate one-bucket geometry where
    /// every chain grows far past any bucket's nominal capacity.
    #[test]
    fn elastic_hash_matches_cluster_hash(
        ops in proptest::collection::vec(elastic_op(), 1..120),
        tight in any::<bool>(),
    ) {
        let (init_buckets, max_buckets) = if tight { (1, 1) } else { (2, 64) };
        let elastic_region = Region::new(4 << 20);
        let mut elastic_arena = Arena::new(0, 4 << 20);
        let elastic = ElasticHash::create(
            &mut elastic_arena,
            &elastic_region,
            0,
            init_buckets,
            max_buckets,
            256,
            16,
        );
        let baseline_region = Region::new(4 << 20);
        let mut baseline_arena = Arena::new(64, (4 << 20) - 64);
        let baseline = ClusterHash::create(&mut baseline_arena, 0, 4, 256, 16);
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                ElasticOp::Hash(HashOp::Insert(k, v)) => {
                    let got_e = elastic.insert(&exec, &elastic_region, k, &v);
                    let got_b = baseline.insert(&exec, &baseline_region, k, &v);
                    prop_assert_eq!(&got_e, &got_b, "insert({}) diverged", k);
                    match model.entry(k) {
                        Entry::Occupied(_) => {
                            prop_assert_eq!(got_e, Err(InsertError::Duplicate));
                        }
                        Entry::Vacant(e) => {
                            prop_assert!(got_e.is_ok());
                            e.insert(v);
                        }
                    }
                }
                ElasticOp::Hash(HashOp::Delete(k)) => {
                    let got_e = elastic.delete(&exec, &elastic_region, k);
                    let got_b = baseline.delete(&exec, &baseline_region, k);
                    prop_assert_eq!(got_e, got_b, "delete({}) diverged", k);
                    prop_assert_eq!(got_e, model.remove(&k).is_some());
                }
                ElasticOp::Hash(HashOp::Get(k)) => {
                    let mut txn = elastic_region.begin(exec.config());
                    let got_e = elastic
                        .get_local(&mut txn, k)
                        .unwrap()
                        .map(|e| e.read_value(&mut txn).unwrap());
                    drop(txn);
                    let mut txn = baseline_region.begin(exec.config());
                    let got_b = baseline
                        .get_local(&mut txn, k)
                        .unwrap()
                        .map(|e| e.read_value(&mut txn).unwrap());
                    prop_assert_eq!(&got_e, &got_b, "get({}) diverged", k);
                    prop_assert_eq!(got_e, model.get(&k).cloned());
                }
                ElasticOp::Grow => {
                    // Invisible to the baseline; the elastic table keeps
                    // serving the same contents across the doubling.
                    elastic.grow(&elastic_region);
                }
            }
        }
        prop_assert_eq!(elastic.len(), model.len());
        prop_assert_eq!(baseline.len(), model.len());
        if tight {
            prop_assert_eq!(elastic.buckets(), 1, "one-bucket geometry must never double");
        }
    }

    /// The HTM B+ tree behaves exactly like a BTreeMap, including range
    /// scans, under arbitrary operation sequences.
    #[test]
    fn btree_matches_model(
        ops in proptest::collection::vec(
            prop_oneof![
                (0u64..512, any::<u64>()).prop_map(|(k, v)| (0u8, k, v)),
                (0u64..512).prop_map(|k| (1u8, k, 0)),
                (0u64..512, 0u64..512).prop_map(|(a, b)| (2u8, a.min(b), a.max(b))),
            ],
            1..150,
        )
    ) {
        let region = Region::new(8 << 20);
        let mut arena = Arena::new(0, 8 << 20);
        let tree = BTree::create(&mut arena, &region, 0, 4096);
        let cfg = HtmConfig { read_capacity_lines: 1 << 16, write_capacity_lines: 1 << 15, ..Default::default() };
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let run = |f: &mut dyn FnMut(&mut drtm::htm::HtmTxn<'_>) -> Result<(), drtm::htm::Abort>| {
            loop {
                let mut txn = region.begin(&cfg);
                if f(&mut txn).is_ok() && txn.commit().is_ok() {
                    return;
                }
            }
        };
        for (kind, a, b) in ops {
            match kind {
                0 => {
                    run(&mut |txn| tree.insert(txn, a, b).map(|_| ()));
                    model.insert(a, b);
                }
                1 => {
                    let mut got = false;
                    run(&mut |txn| {
                        got = tree.remove(txn, a)?;
                        Ok(())
                    });
                    prop_assert_eq!(got, model.remove(&a).is_some());
                }
                _ => {
                    let mut got = Vec::new();
                    run(&mut |txn| {
                        got = tree.scan_range(txn, a, b, usize::MAX)?;
                        Ok(())
                    });
                    let want: Vec<(u64, u64)> =
                        model.range(a..=b).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    /// The same on a tree deep enough for every structural path: 2 500
    /// ascending keys (a multiple of 8 each; the fourth level appears at
    /// the 833rd) interleaved with 1 500 scattered ones split leaves,
    /// internal nodes and two roots before the mixed phase, which also
    /// checks `get` and `max_in_range`, scans under finite limits (0 and
    /// 1 among them) and scans across leaves it has just emptied.
    #[test]
    fn deep_btree_matches_model(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0u64..20_000, 0u64..20_000, 0usize..4), 1..120),
    ) {
        const BUILD: usize = 4_000;
        let region = Region::new(8 << 20);
        let mut arena = Arena::new(0, 8 << 20);
        let tree = BTree::create(&mut arena, &region, 0, BTree::pool_for(BUILD + 120));
        let cfg = HtmConfig { read_capacity_lines: 1 << 16, write_capacity_lines: 1 << 15, ..Default::default() };
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // Single-threaded: nothing aborts.
        let run = |f: &mut dyn FnMut(&mut drtm::htm::HtmTxn<'_>) -> Result<(), drtm::htm::Abort>| {
            let mut txn = region.begin(&cfg);
            f(&mut txn).expect("tree op");
            txn.commit().expect("commit");
        };
        let mut ascending = 0..2_500u64;
        for i in 0..BUILD as u64 {
            let key = match i % 8 {
                0..=4 => ascending.next().expect("5 of every 8") * 8,
                _ => hash64(seed ^ i) % 20_000,
            };
            let mut fresh = false;
            run(&mut |txn| tree.insert(txn, key, i).map(|f| fresh = f));
            prop_assert_eq!(fresh, model.insert(key, i).is_none());
        }
        let check_range = |lo: u64, hi: u64, max: usize, model: &BTreeMap<u64, u64>| {
            let (mut got, mut last) = (Vec::new(), None);
            run(&mut |txn| {
                got = tree.scan_range(txn, lo, hi, max)?;
                last = tree.max_in_range(txn, lo, hi)?;
                Ok(())
            });
            let want: Vec<(u64, u64)> = model.range(lo..=hi).take(max).map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(got, want, "scan {}..={} max {}", lo, hi, max);
            prop_assert_eq!(last, model.range(lo..=hi).next_back().map(|(&k, &v)| (k, v)));
        };
        for (kind, a, b, m) in ops {
            let max = [0, 1, 9, usize::MAX][m];
            match kind {
                0 => {
                    let mut fresh = false;
                    run(&mut |txn| tree.insert(txn, a, b).map(|f| fresh = f));
                    prop_assert_eq!(fresh, model.insert(a, b).is_none());
                }
                1 => {
                    // Half the time a key the build phase put there.
                    let key = if b % 2 == 0 { a & !7 } else { a };
                    let mut got = false;
                    run(&mut |txn| tree.remove(txn, key).map(|g| got = g));
                    prop_assert_eq!(got, model.remove(&key).is_some());
                }
                2 => {
                    for key in [a, a & !7] {
                        let mut got = None;
                        run(&mut |txn| tree.get(txn, key).map(|g| got = g));
                        prop_assert_eq!(got, model.get(&key).copied(), "get {}", key);
                    }
                }
                3 => check_range(a.min(b), a.max(b), max, &model),
                4 => check_range(a, a + b % 400, max, &model),
                _ => {
                    // Empty a few leaves in a row, then scan across them.
                    let doomed: Vec<u64> = model.range(a..=a + 300).map(|(&k, _)| k).collect();
                    for key in doomed {
                        let mut got = false;
                        run(&mut |txn| tree.remove(txn, key).map(|g| got = g));
                        prop_assert!(got && model.remove(&key).is_some(), "remove {}", key);
                    }
                    check_range(a.saturating_sub(100), a + 400, max, &model);
                }
            }
        }
    }

    /// Slot encoding roundtrips for every field combination.
    #[test]
    fn slot_encoding_roundtrips(key in any::<u64>(), off in 0u64..(1 << 48), inc in any::<u32>()) {
        let s = Slot::entry(key, off, inc);
        let (m, k) = s.encode();
        let d = Slot::decode(m, k);
        prop_assert_eq!(d.typ, SlotType::Entry);
        prop_assert_eq!(d.key, key);
        prop_assert_eq!(d.offset, off);
        prop_assert!(d.incarnation_matches(inc));
        // A bumped incarnation is always detected.
        prop_assert!(!d.incarnation_matches(inc.wrapping_add(1)));
    }

    /// Lock-state words roundtrip and the lease windows are exclusive.
    #[test]
    fn lock_state_invariants(end in 1u64..(1 << 54), now in 0u64..(1 << 54), delta in 0u64..1000) {
        let lease = LockState::leased(end);
        prop_assert!(!lease.is_write_locked());
        prop_assert_eq!(lease.lease_end_us(), end);
        // VALID and EXPIRED can never hold simultaneously.
        prop_assert!(!(lease.lease_valid(now, delta) && lease.lease_expired(now, delta)));
        let lock = LockState::write_locked((now % 256) as u8);
        prop_assert!(lock.is_write_locked());
        prop_assert_eq!(lock.owner() as u64, now % 256);
        prop_assert!(!lock.lease_valid(now, delta));
    }

    /// Transactional writes never tear: a concurrent HTM commit is
    /// either fully visible or not at all.
    #[test]
    fn htm_commits_are_atomic(vals in proptest::collection::vec(any::<u64>(), 4), seed in any::<u64>()) {
        let region = Region::new(4096);
        let cfg = HtmConfig::default();
        let mut txn = region.begin(&cfg);
        for (i, v) in vals.iter().enumerate() {
            txn.write_u64(i * 64, *v).unwrap();
        }
        if seed.is_multiple_of(2) {
            txn.commit().unwrap();
            for (i, v) in vals.iter().enumerate() {
                prop_assert_eq!(region.read_u64_nt(i * 64), *v);
            }
        } else {
            drop(txn); // abort
            for i in 0..vals.len() {
                prop_assert_eq!(region.read_u64_nt(i * 64), 0);
            }
        }
    }
}
