//! Property-based tests of the storage substrates against model
//! implementations (`std` maps), plus encoding invariants.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use drtm::htm::{Executor, HtmConfig, HtmStats, Region};
use drtm::memstore::{hash64, Arena, BTree, ClusterHash, InsertError, Slot, SlotType};
use drtm::rdma::{Cluster, ClusterConfig, LatencyProfile};
use drtm::txn::LockState;

/// Operations the hash-table model understands.
#[derive(Debug, Clone)]
enum HashOp {
    Insert(u64, Vec<u8>),
    Upsert(u64, Vec<u8>, u32),
    Delete(u64),
    Get(u64),
    Collect(u64, u64),
}

fn hash_op() -> impl Strategy<Value = HashOp> {
    let value = || proptest::collection::vec(any::<u8>(), 0..16);
    prop_oneof![
        (0u64..64, value()).prop_map(|(k, v)| HashOp::Insert(k, v)),
        (0u64..64, value(), any::<u32>()).prop_map(|(k, v, n)| HashOp::Upsert(k, v, n)),
        (0u64..64).prop_map(HashOp::Delete),
        (0u64..64).prop_map(HashOp::Get),
        (0u64..64, 0u64..64).prop_map(|(a, b)| HashOp::Collect(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The cluster-chaining hash table behaves exactly like a HashMap of
    /// `key → (value, version)` under arbitrary insert / upsert / delete /
    /// get / range-collect sequences (single owner; 4 main buckets, so
    /// chains run through indirect buckets). The range walk's two forms —
    /// one-sided READs from another machine and the owner's NVRAM read
    /// directly — return the same rows as each other and as the model.
    #[test]
    fn cluster_hash_matches_model(ops in proptest::collection::vec(hash_op(), 1..120)) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let (region, qp) = (cluster.node(0).region(), cluster.qp(1));
        let mut arena = Arena::new(64, (4 << 20) - 64);
        let table = ClusterHash::create(&mut arena, 0, 4, 256, 16);
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        let mut model: HashMap<u64, (Vec<u8>, u32)> = HashMap::new();
        for op in ops {
            match op {
                HashOp::Insert(k, v) => {
                    let got = table.insert(&exec, region, k, &v);
                    match model.entry(k) {
                        Entry::Occupied(_) => {
                            prop_assert_eq!(got, Err(InsertError::Duplicate));
                        }
                        Entry::Vacant(e) => {
                            prop_assert!(got.is_ok());
                            e.insert((v, 0));
                        }
                    }
                }
                HashOp::Upsert(k, v, version) => {
                    prop_assert_eq!(table.upsert(&exec, region, k, &v, version), Ok(()));
                    model.insert(k, (v, version));
                }
                HashOp::Delete(k) => {
                    let got = table.delete(&exec, region, k);
                    prop_assert_eq!(got, model.remove(&k).is_some());
                }
                HashOp::Get(k) => {
                    let mut txn = region.begin(exec.config());
                    let got = table.get_local(&mut txn, k).unwrap().map(|e| {
                        let version = e.read_header(&mut txn).unwrap().version;
                        (e.read_value(&mut txn).unwrap(), version)
                    });
                    prop_assert_eq!(got, model.get(&k).cloned());
                }
                HashOp::Collect(lo, hi) => {
                    let (remote, bytes) = table.try_remote_collect_range(&qp, lo, hi).unwrap();
                    let nt = table.collect_range_nt(region, lo, hi);
                    prop_assert_eq!(&remote, &nt, "remote and NVRAM walks differ");
                    prop_assert!(bytes > 0);
                    let mut got: Vec<_> =
                        nt.into_iter().map(|r| (r.key, (r.value, r.version))).collect();
                    got.sort_unstable();
                    let mut want: Vec<_> = model
                        .iter()
                        .filter(|(k, _)| (lo..=hi).contains(*k))
                        .map(|(k, v)| (*k, v.clone()))
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want, "collect {}..={}", lo, hi);
                }
            }
        }
        prop_assert_eq!(table.len(), model.len());
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
