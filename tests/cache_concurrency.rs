//! Concurrency contract of the sharded seqlock location cache: readers
//! running against concurrent insert/invalidate churn never observe a
//! torn [`Slot`], and a fixed single-threaded op sequence gets the same
//! answers, READ counts and counters to the digit on every commit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drtm::htm::{Executor, HtmConfig, HtmStats};
use drtm::memstore::{Arena, CacheStats, ClusterHash, LocationCache};
use drtm::rdma::{Cluster, ClusterConfig, LatencyProfile};

const VAL: usize = 16;

struct Fixture {
    cluster: Arc<Cluster>,
    table: ClusterHash,
    exec: Executor,
    keys: u64,
}

/// Builds a 2-node deployment: node 0 serves `keys` records, node 1 is
/// the client issuing cached lookups.
fn fixture(keys: u64) -> Fixture {
    fixture_with(64, keys)
}

fn fixture_with(main_buckets: usize, keys: u64) -> Fixture {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        region_size: 16 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    });
    let mut arena = Arena::new(64, (16 << 20) - 64);
    let table = ClusterHash::create(&mut arena, 0, main_buckets, 4 * keys as usize + 8, VAL);
    let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
    let region = cluster.node(0).region();
    for k in 1..=keys {
        table.insert(&exec, region, k, &vbytes(k)).unwrap();
    }
    Fixture { cluster, table, exec, keys }
}

fn vbytes(k: u64) -> Vec<u8> {
    let mut v = vec![0u8; VAL];
    v[..8].copy_from_slice(&k.to_le_bytes());
    v
}

/// N readers hammer warm lookups while churn threads insert fresh keys
/// and invalidate hot ones. Any `Some` answer must be internally
/// consistent — the slot names the requested key and the addressed
/// entry holds that key's value — i.e. no torn seqlock read escapes.
#[test]
fn readers_never_observe_torn_slots() {
    let fx = fixture(256);
    // Tiny pool: every fetch evicts, so chain buckets are constantly
    // reclaimed and republished under the readers.
    let cache = LocationCache::new(64, 16);
    let qp = fx.cluster.qp(1);
    for k in 1..=fx.keys {
        cache.lookup(&qp, &fx.table, k);
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (cache, fx, stop) = (&cache, &fx, &stop);
            s.spawn(move || {
                let qp = fx.cluster.qp(1);
                let mut k = t * 31 + 1;
                let mut checked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    k = k % fx.keys + 1;
                    if let Some((addr, slot, _)) = cache.lookup(&qp, &fx.table, k) {
                        assert_eq!(slot.key, k, "lookup returned a foreign slot");
                        let (_, value) = fx
                            .table
                            .remote_read_entry(&qp, addr, &slot)
                            .expect("location from cache must address a live entry");
                        assert_eq!(&value[..8], &k.to_le_bytes(), "entry/key mismatch");
                        checked += 1;
                    }
                    k += 7;
                }
                assert!(checked > 0, "reader thread never completed a lookup");
            });
        }
        // Churn: invalidations force evict/reclaim/republish of chains…
        {
            let (cache, fx, stop) = (&cache, &fx, &stop);
            s.spawn(move || {
                let mut k = 1;
                while !stop.load(Ordering::Relaxed) {
                    cache.invalidate(&fx.table, k);
                    k = k % fx.keys + 1;
                }
            });
        }
        // …and inserts grow chains under the readers' feet.
        let inserted = {
            let (fx, stop) = (&fx, &stop);
            s.spawn(move || {
                let region = fx.cluster.node(0).region();
                let mut k = fx.keys;
                while !stop.load(Ordering::Relaxed) && k < fx.keys + 512 {
                    k += 1;
                    fx.table.insert(&fx.exec, region, k, &vbytes(k)).unwrap();
                }
                k
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        let top = inserted.join().unwrap();
        assert!(top > fx.keys, "insert churn never ran");
    });
}

/// Golden sequence: 2 400 seeded `lookup`/`invalidate` ops against a
/// table whose chains are about six buckets deep (320 keys in 8 main
/// buckets; keys 321..=400 are absent), through a cache far too small
/// for it (4 ways over 8 main buckets, 6 pool buckets in per-shard
/// strips of 1–2) — so hits, fills, tag evictions, pool exhaustion with
/// the uncached remote finish, stale-NotFound re-verification and
/// invalidation all occur. Every answer `(addr, slot, reads)` is folded
/// into an FNV-1a digest; the digest, the READs-per-lookup histogram and
/// the final counters were recorded at commit 76997e8 and must not move:
/// the number and order of READs per lookup is the cache's contract.
/// `fetches` alone was re-recorded when it began to count every READ; it
/// is held to the fabric's own READ count below. The literal lost two
/// fields, both 0, when migrations stopped touching caches and those
/// counters were deleted; no recorded number moved.
#[test]
fn golden_lookup_invalidate_sequence() {
    let fx = fixture_with(8, 320);
    let cache = LocationCache::new(4, 6);
    let qp = fx.cluster.qp(1);
    let reads_before = fx.cluster.counters().snapshot().reads;
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |w: u64| {
        for b in w.to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut first = Vec::new();
    let mut reads_hist = [0u64; 8];
    for _ in 0..2400 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let key = 1 + rng % 400;
        if (rng >> 32) & 7 == 0 {
            cache.invalidate(&fx.table, key);
            mix(u64::MAX);
            continue;
        }
        let got = cache.lookup(&qp, &fx.table, key);
        if first.len() < 4 {
            first.push((key, got.map(|(addr, slot, reads)| (addr.offset, slot.encode().0, reads))));
        }
        match got {
            Some((addr, slot, reads)) => {
                assert_eq!(slot.key, key);
                let (meta, k) = slot.encode();
                for w in [addr.node as u64, addr.offset as u64, meta, k, reads as u64] {
                    mix(w);
                }
                reads_hist[reads as usize] += 1;
            }
            None => mix(0),
        }
    }
    assert_eq!(
        first,
        [
            (190, Some((32816, 0x8001_0000_0000_8030, 3))),
            (375, None),
            (231, Some((34784, 0x8001_0000_0000_87e0, 5))),
            (261, Some((36224, 0x8001_0000_0000_8d80, 3))),
        ]
    );
    assert_eq!(reads_hist, [324, 282, 293, 262, 213, 184, 91, 36], "found lookups by READs spent");
    assert_eq!(digest, 0x8f70_ca24_1e67_dad0, "per-op (addr, slot, reads) answers");
    assert_eq!(
        cache.stats(),
        CacheStats { hits: 324, misses: 1783, fetches: 6269, invalidations: 293 }
    );
    let reads = fx.cluster.counters().snapshot().reads - reads_before;
    assert_eq!(cache.stats().fetches, reads, "every READ the cache path spent is a fetch");
}
