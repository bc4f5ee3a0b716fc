//! Location-based, host-transparent caching (§5.3).
//!
//! Instead of caching key-value *contents* (which would need cluster-wide
//! invalidation), DrTM caches key-value *locations*: a snapshot of header
//! buckets. Because all concurrency-control metadata (incarnation,
//! version, state) lives in the entry itself, a stale cached location is
//! detected for free by the incarnation check when the entry is read, and
//! simply treated as a cache miss — no invalidation traffic, fully
//! transparent to the host.
//!
//! The cache is a direct-mapped array over main-bucket indices plus a
//! bounded pool of cached indirect buckets; fetching a bucket costs one
//! RDMA READ and brings in up to 8 candidate slots, which is why even a
//! cold cache eliminates most lookup READs (Figure 10). One cache is
//! shared by all client threads of a machine.
//!
//! # Concurrency
//!
//! The cache is read far more often than it is written (a warm cache
//! answers most lookups with zero fetches), so the hit path must not
//! serialize readers. Every cached bucket is protected by its own
//! *seqlock*: an even/odd version word bumped around each mutation. A
//! reader snapshots the bucket with plain atomic loads and retries on a
//! torn read (odd or changed version); it takes no lock. Mutations
//! (installing a fetched bucket, eviction, invalidation) take a short
//! per-shard lock — the main array is partitioned into shards, and each
//! shard owns a disjoint strip of the indirect-bucket pool so all writes
//! to any bucket of a chain are serialized by one shard lock.
//!
//! A reader racing an eviction can follow a stale chain link into a
//! reused pool bucket. That is *safe by construction* for the same
//! reason the whole cache is: a location is only ever a hint, and the
//! caller's incarnation check rejects a wrong one. A hit requires the
//! slot's key to match, so a foreign bucket image can at worst produce a
//! stale location for the same key (indistinguishable from an ordinary
//! stale cache) or a spurious not-found, which is re-verified remotely.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use parking_lot::Mutex;

use drtm_rdma::{FabricError, GlobalAddr, Qp};

use crate::cluster_hash::{
    read_bucket, walk_chain, BucketImage, ClusterHash, LookupResult, BUCKET_BYTES,
};
use crate::entry::EntryHeader;
use crate::slot::{Slot, SlotType};
use crate::split_ordered::ElasticHash;
use crate::ASSOC;

drtm_htm::counter_set! {
    /// Lock-free hit/miss counters, shared by all reader threads.
    struct CacheCounters;
    /// Hit/miss counters for one cache.
    pub struct CacheStats {
        /// Lookups answered entirely from cache (zero RDMA READs).
        hits,
        /// Lookups that fetched at least one bucket.
        misses,
        /// RDMA READs the cache path spent on lookups: bucket fetches,
        /// the uncached tail of a walk that outran the pool, and the
        /// remote re-verification of a cached NotFound.
        fetches,
        /// Explicit invalidations (stale incarnation detected by the caller).
        invalidations,
        /// Invalidations forced by a range migration's cutover (the resharder
        /// clearing locations that now point at the old owner).
        migration_invalidations,
        /// Lookups the router answered remotely *despite* a warm entry
        /// because the key's range was mid-cutover (cache bypassed).
        forced_misses,
    }
}

impl CacheStats {
    /// Fraction of lookups answered with zero RDMA READs (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A decoded (non-atomic) cached bucket, the unit of reads and writes
/// against the seqlock-protected storage.
#[derive(Clone, Copy)]
struct CachedBucket {
    words: BucketImage,
    tag: usize,
    valid: bool,
}

impl CachedBucket {
    const EMPTY: CachedBucket = CachedBucket { words: [0; ASSOC * 2], tag: 0, valid: false };

    fn slot(&self, i: usize) -> Slot {
        Slot::decode(self.words[i * 2], self.words[i * 2 + 1])
    }
}

/// How many torn-read retries a reader attempts before falling back to
/// the locked path (a writer is actively mutating the bucket).
const SEQ_RETRIES: usize = 8;

/// One seqlock-protected bucket: even `seq` = stable, odd = mid-write.
#[derive(Debug)]
struct SeqBucket {
    seq: AtomicU64,
    /// `(tag << 1) | valid`.
    tag: AtomicU64,
    words: [AtomicU64; ASSOC * 2],
}

impl SeqBucket {
    fn new() -> Self {
        SeqBucket {
            seq: AtomicU64::new(0),
            tag: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Lock-free consistent snapshot; `None` after [`SEQ_RETRIES`] torn
    /// reads (only possible while a writer holds the shard lock).
    fn snapshot(&self) -> Option<CachedBucket> {
        for _ in 0..SEQ_RETRIES {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let tag = self.tag.load(Ordering::Relaxed);
            let mut words = [0u64; ASSOC * 2];
            for (i, w) in words.iter_mut().enumerate() {
                *w = self.words[i].load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return Some(CachedBucket { words, tag: (tag >> 1) as usize, valid: tag & 1 == 1 });
            }
        }
        None
    }

    /// The snapshot of a caller that holds the owning shard's lock.
    fn locked(&self) -> CachedBucket {
        self.snapshot().expect("shard lock excludes writers")
    }

    /// Publishes a new bucket image. Caller must hold the owning shard's
    /// lock (one writer per bucket at a time).
    fn publish(&self, b: &CachedBucket) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (i, w) in b.words.iter().enumerate() {
            self.words[i].store(*w, Ordering::Relaxed);
        }
        self.tag.store(((b.tag as u64) << 1) | b.valid as u64, Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Release);
    }
}

/// Upper bound on the shard count (power of two). Per-shard state is a
/// short mutex plus a strip of the pool free list; 16 shards decorrelate
/// writers without bloating small caches.
const MAX_SHARDS: usize = 16;

/// The lock-free walk met a bucket that is not (or no longer) cached.
struct NotCached;

/// What stops the fill walk early.
enum FillStop {
    Fabric(FabricError),
    /// No pool bucket left for the image just fetched.
    PoolExhausted,
}

/// A location cache for one remote [`ClusterHash`].
///
/// `lookup` is lock-free on the hit path (seqlock reads only); misses
/// and invalidations take a short per-shard lock.
#[derive(Debug)]
pub struct LocationCache {
    main: Box<[SeqBucket]>,
    pool: Box<[SeqBucket]>,
    /// Per-shard writer lock doubling as that shard's pool free list.
    /// Shard `s` owns main ways `w` and pool buckets `p` with
    /// `w & shard_mask == s` / `p & shard_mask == s`.
    shards: Box<[Mutex<Vec<usize>>]>,
    stats: CacheCounters,
    main_mask: usize,
    shard_mask: usize,
}

impl LocationCache {
    /// Creates a cache of `main_slots` direct-mapped buckets (rounded up
    /// to a power of two) and `pool_slots` indirect buckets.
    pub fn new(main_slots: usize, pool_slots: usize) -> Self {
        let main_slots = main_slots.next_power_of_two();
        let nshards = main_slots.min(MAX_SHARDS);
        let shards = (0..nshards)
            .map(|s| {
                // Descending so early allocations pop low indexes.
                Mutex::new((0..pool_slots).filter(|p| p & (nshards - 1) == s).rev().collect())
            })
            .collect();
        LocationCache {
            main: (0..main_slots).map(|_| SeqBucket::new()).collect(),
            pool: (0..pool_slots).map(|_| SeqBucket::new()).collect(),
            shards,
            stats: CacheCounters::default(),
            main_mask: main_slots - 1,
            shard_mask: nshards - 1,
        }
    }

    /// Sizes a cache from a byte budget, mirroring the paper's "x MB
    /// cache" axis of Figure 10(d). Roughly 80 % of the budget goes to
    /// the direct-mapped main array (rounded *down* to a power of two so
    /// the budget is never overshot); whatever the rounding left over
    /// goes to the indirect pool, so the footprint tracks the requested
    /// budget to within one bucket.
    pub fn with_budget(bytes: usize) -> Self {
        let bucket_cost = BUCKET_BYTES + 16; // words + bookkeeping
        let main = (bytes * 4 / 5 / bucket_cost).max(1);
        // Largest power of two not exceeding the 80 % share.
        let main_pow2 = if main.is_power_of_two() { main } else { main.next_power_of_two() / 2 };
        // The pool gets the *actual* remaining budget, not a fixed 20 %:
        // rounding main down must not shrink the total.
        let remaining = bytes.saturating_sub(main_pow2 * bucket_cost);
        let pool = (remaining / bucket_cost).max(1);
        LocationCache::new(main_pow2.max(1), pool)
    }

    /// Approximate memory footprint in bytes.
    pub fn footprint(&self) -> usize {
        (self.main.len() + self.pool.len()) * (BUCKET_BYTES + 16)
    }

    /// Returns a copy of the hit/miss counters (lock-free).
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    fn shard(&self, way: usize) -> &Mutex<Vec<usize>> {
        &self.shards[way & self.shard_mask]
    }

    /// Looks up `key` in `table` through the cache.
    ///
    /// Returns the entry's global address and slot plus the number of
    /// RDMA READs spent (0 on a full hit). The caller must still perform
    /// the incarnation check when reading the entry and call
    /// [`LocationCache::invalidate`] on mismatch.
    ///
    /// The hit path takes no lock: it reads the cached chain through
    /// per-bucket seqlocks and retries torn reads.
    ///
    /// # Panics
    ///
    /// If the table's machine is crashed (use
    /// [`LocationCache::try_lookup`] under the chaos harness).
    pub fn lookup(
        &self,
        qp: &Qp,
        table: &ClusterHash,
        key: u64,
    ) -> Option<(GlobalAddr, Slot, u32)> {
        self.try_lookup(qp, table, key).expect("cached lookup against a crashed node")
    }

    /// [`LocationCache::lookup`] with typed dead-peer reporting: a full
    /// cache hit still succeeds (no fabric round trip), but a walk that
    /// must fetch from a crashed machine returns the fabric error
    /// instead of panicking or serving stale bytes.
    pub fn try_lookup(
        &self,
        qp: &Qp,
        table: &ClusterHash,
        key: u64,
    ) -> Result<Option<(GlobalAddr, Slot, u32)>, FabricError> {
        let desc = table.desc();
        let idx = desc.bucket_index(key);
        let way = idx & self.main_mask;
        let (mut found, mut reads, from_cache) = match self.walk_cached(way, idx, key) {
            Ok(found) => {
                self.stats.hits.inc();
                (found, 0, true)
            }
            Err(NotCached) => self.fill(qp, table, key, idx, way)?,
        };
        if found.is_none() && from_cache {
            // A cached NotFound may be stale (an insert since the
            // snapshot); drop the chain and verify remotely.
            self.evict_way(way);
            let verified = table.try_remote_lookup(qp, key)?;
            self.stats.fetches.add(verified.reads() as u64);
            if let LookupResult::Found { slot, reads: r, .. } = verified {
                found = Some(slot);
                reads += r;
            }
        }
        Ok(found.map(|slot| (GlobalAddr::new(desc.node, slot.offset as usize), slot, reads)))
    }

    /// The hit path: walks an already-cached chain through seqlock
    /// snapshots, taking no lock and fetching nothing.
    fn walk_cached(&self, way: usize, idx: usize, key: u64) -> Result<Option<Slot>, NotCached> {
        let mut main = match self.main[way].snapshot() {
            Some(main) if main.valid && main.tag == idx => main,
            _ => return Err(NotCached),
        };
        // Stale links can in principle form a cycle through reused pool
        // buckets; bound the walk so a reader never loops forever.
        let mut hops_left = self.pool.len() + 1;
        walk_chain(&mut main.words, key, |link, img| {
            // A Header link: the chain continues remotely.
            if link.typ != SlotType::Cached || hops_left == 0 {
                return Err(NotCached);
            }
            hops_left -= 1;
            match self.pool.get(link.offset as usize).and_then(SeqBucket::snapshot) {
                Some(next) if next.valid => *img = next.words,
                _ => return Err(NotCached),
            }
            Ok(())
        })
    }

    /// The miss path: walks the chain under the shard lock, fetching the
    /// buckets that are not cached and installing them while the shard's
    /// pool strip lasts; after that the walk finishes remotely without
    /// caching (bounded-budget policy). Returns the slot found, the READs
    /// spent, and whether the whole chain walked is now cached.
    fn fill(
        &self,
        qp: &Qp,
        table: &ClusterHash,
        key: u64,
        idx: usize,
        way: usize,
    ) -> Result<(Option<Slot>, u32, bool), FabricError> {
        let desc = table.desc();
        let mut pool_free = self.shard(way).lock();
        let mut reads = 0u32;
        let mut fetch = |off: usize, img: &mut BucketImage| {
            read_bucket(qp, GlobalAddr::new(desc.node, off), img)?;
            reads += 1;
            Ok(())
        };

        // Ensure the main bucket is cached.
        let mut main_img = self.main[way].locked();
        if !(main_img.valid && main_img.tag == idx) {
            let mut words = [0; ASSOC * 2];
            fetch(desc.main_bucket_off(idx), &mut words)?;
            self.reclaim_chain(&mut pool_free, &main_img);
            main_img = CachedBucket { words, tag: idx, valid: true };
            self.main[way].publish(&main_img);
        }

        // `at` is the cached bucket the walk stands on: the next bucket
        // installed hangs off its last slot.
        let mut at = &self.main[way];
        let mut img = main_img.words;
        let walked = walk_chain(&mut img, key, |link, img| {
            if link.typ == SlotType::Cached {
                at = &self.pool[link.offset as usize];
                *img = at.locked().words;
                return Ok(());
            }
            fetch(link.offset as usize, img).map_err(FillStop::Fabric)?;
            let p = pool_free.pop().ok_or(FillStop::PoolExhausted)?;
            self.pool[p].publish(&CachedBucket { words: *img, tag: 0, valid: true });
            let mut parent = at.locked();
            let cached_link =
                Slot { typ: SlotType::Cached, lossy_inc: 0, offset: p as u64, key: 0 };
            (parent.words[ASSOC * 2 - 2], parent.words[ASSOC * 2 - 1]) = cached_link.encode();
            at.publish(&parent);
            at = &self.pool[p];
            Ok(())
        });
        let (found, all_cached) = match walked {
            Ok(found) => (found, true),
            Err(FillStop::Fabric(e)) => return Err(e),
            Err(FillStop::PoolExhausted) => {
                drop(pool_free);
                (table.finish_remote(qp, &mut img, key, &mut reads)?, false)
            }
        };
        self.stats.fetches.add(reads as u64);
        let counter = if reads == 0 { &self.stats.hits } else { &self.stats.misses };
        counter.inc();
        Ok((found, reads, all_cached))
    }

    /// Drops the cached chain for `key`'s bucket (stale location
    /// detected via incarnation check).
    pub fn invalidate(&self, table: &ClusterHash, key: u64) {
        let idx = table.desc().bucket_index(key);
        let way = idx & self.main_mask;
        self.stats.invalidations.inc();
        self.evict_way(way);
    }

    /// Evicts the main-way bucket under its shard lock.
    fn evict_way(&self, way: usize) {
        let mut pool_free = self.shard(way).lock();
        let img = self.main[way].locked();
        self.reclaim_chain(&mut pool_free, &img);
    }

    /// Invalidates a main bucket image, recursively reclaiming pool
    /// buckets on its chain. Caller holds the owning shard's lock;
    /// `pool_free` is that shard's free list.
    fn reclaim_chain(&self, pool_free: &mut Vec<usize>, img: &CachedBucket) {
        if !img.valid {
            return;
        }
        let mut invalidated = *img;
        invalidated.valid = false;
        // Find the main way this image belongs to: the tag is the bucket
        // index, and the way is tag & main_mask.
        self.main[invalidated.tag & self.main_mask].publish(&invalidated);
        let mut link = img.slot(ASSOC - 1);
        let mut steps = 0;
        while link.typ == SlotType::Cached && steps <= self.pool.len() {
            steps += 1;
            let p = link.offset as usize;
            link = self.pool[p].locked().slot(ASSOC - 1);
            self.pool[p].publish(&CachedBucket::EMPTY);
            pool_free.push(p);
        }
    }
}

/// One resolved location held by an [`AddrCache`].
#[derive(Debug, Clone, Copy)]
struct CachedAddr {
    key: u64,
    addr: GlobalAddr,
    slot: Slot,
}

/// A location an [`AddrCache`] resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolved {
    /// Global address of the entry.
    pub addr: GlobalAddr,
    /// The slot (key, offset, incarnation) the entry was found under.
    pub slot: Slot,
    /// The entry as READ by the incarnation check of a cache hit; `None`
    /// after a miss, which reads the chain but not the value.
    pub entry: Option<(EntryHeader, Vec<u8>)>,
}

/// Key → location cache for the elastic split-ordered table.
///
/// [`LocationCache`] mirrors the cluster-chaining table's *bucket*
/// geometry, which a split-ordered table does not have (its buckets are
/// chain positions that move on every split). The elastic path caches
/// resolved *entries* instead: a direct-mapped key → `(address, slot)`
/// map whose hits skip the remote chain walk entirely and whose
/// staleness is caught by the usual incarnation check on first use.
///
/// The resharder invalidates ranges at cutover
/// ([`AddrCache::invalidate_range`]); the router records cutover-window
/// bypasses with [`AddrCache::note_forced_miss`]. Both show up in
/// [`CacheStats`] so the bench diagnostics can print migration costs.
#[derive(Debug)]
pub struct AddrCache {
    cells: Box<[Mutex<Option<CachedAddr>>]>,
    mask: usize,
    stats: CacheCounters,
}

impl AddrCache {
    /// Creates a cache with `cells` entries (rounded up to a power of
    /// two).
    pub fn new(cells: usize) -> Self {
        let cells = cells.next_power_of_two().max(1);
        AddrCache {
            cells: (0..cells).map(|_| Mutex::new(None)).collect(),
            mask: cells - 1,
            stats: CacheCounters::default(),
        }
    }

    fn cell(&self, key: u64) -> &Mutex<Option<CachedAddr>> {
        &self.cells[(crate::hash64(key) as usize) & self.mask]
    }

    /// Resolves `key` on `shard`'s machine: a cached location is verified
    /// by reading the entry under its incarnation check; a stale one (the
    /// key was deleted or migrated away) is invalidated and, like a miss,
    /// falls through to a one-sided lookup whose answer is installed.
    /// `None` if the key does not exist there.
    pub fn try_lookup(
        &self,
        qp: &Qp,
        shard: &ElasticHash,
        key: u64,
    ) -> Result<Option<Resolved>, FabricError> {
        if let Some((addr, slot)) = self.lookup(key) {
            if addr.node == shard.desc().node {
                if let Some(entry) = shard.remote_read_entry(qp, addr, &slot) {
                    return Ok(Some(Resolved { addr, slot, entry: Some(entry) }));
                }
            }
            self.invalidate(key);
        }
        Ok(match shard.try_remote_lookup(qp, key)? {
            LookupResult::Found { addr, slot, .. } => {
                self.install(key, addr, slot);
                Some(Resolved { addr, slot, entry: None })
            }
            LookupResult::NotFound { .. } => None,
        })
    }

    /// Returns the cached location of `key`, if present.
    pub fn lookup(&self, key: u64) -> Option<(GlobalAddr, Slot)> {
        let hit = self.cell(key).lock().filter(|c| c.key == key).map(|c| (c.addr, c.slot));
        match hit {
            Some(_) => self.stats.hits.inc(),
            None => self.stats.misses.inc(),
        }
        hit
    }

    /// Installs a freshly resolved location.
    pub fn install(&self, key: u64, addr: GlobalAddr, slot: Slot) {
        self.stats.fetches.inc();
        *self.cell(key).lock() = Some(CachedAddr { key, addr, slot });
    }

    /// Drops `key`'s entry (stale incarnation detected by the caller).
    /// Returns whether an entry was dropped.
    pub fn invalidate(&self, key: u64) -> bool {
        let mut cell = self.cell(key).lock();
        if cell.map(|c| c.key == key).unwrap_or(false) {
            *cell = None;
            self.stats.invalidations.inc();
            true
        } else {
            false
        }
    }

    /// Cutover invalidation: drops every cached key in `[lo, hi]` and
    /// counts them as migration invalidations.
    pub fn invalidate_range(&self, lo: u64, hi: u64) {
        for cell in self.cells.iter() {
            let mut cell = cell.lock();
            if cell.map(|c| c.key >= lo && c.key <= hi).unwrap_or(false) {
                *cell = None;
                self.stats.migration_invalidations.inc();
            }
        }
    }

    /// Records a lookup the router answered remotely despite a possible
    /// warm entry, because the key's range was mid-cutover.
    pub fn note_forced_miss(&self) {
        self.stats.forced_misses.inc();
    }

    /// Returns a copy of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Arena;
    use drtm_htm::{Executor, HtmConfig, HtmStats};
    use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};
    use std::sync::Arc;

    fn setup(main_buckets: usize) -> (Arc<Cluster>, ClusterHash, Executor) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 8 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(0, 8 << 20);
        let table = ClusterHash::create(&mut arena, 0, main_buckets, 4096, 32);
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        (cluster, table, exec)
    }

    #[test]
    fn second_lookup_is_free() {
        let (cluster, table, exec) = setup(64);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 1, b"v").unwrap();
        let qp = cluster.qp(1);
        let cache = LocationCache::new(64, 16);
        let (_, _, r1) = cache.lookup(&qp, &table, 1).unwrap();
        assert_eq!(r1, 1, "cold fetch costs one READ");
        let (_, _, r2) = cache.lookup(&qp, &table, 1).unwrap();
        assert_eq!(r2, 0, "warm lookup is free");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.fetches), (1, 1, 1));
    }

    #[test]
    fn crashed_home_node_fails_typed_but_hits_still_serve() {
        let (cluster, table, exec) = setup(64);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 1, b"v").unwrap();
        table.insert(&exec, region, 2, b"w").unwrap();
        let qp = cluster.qp(1);
        let cache = LocationCache::new(64, 16);
        cache.lookup(&qp, &table, 1).unwrap(); // warm key 1
        cluster.faults().kill(0);
        // A warm hit needs no fabric round trip — still served.
        let hit = cache.try_lookup(&qp, &table, 1).expect("cache hit needs no fabric");
        assert_eq!(hit.unwrap().2, 0);
        // A cold key must fetch from the dead home node: typed error.
        assert_eq!(cache.try_lookup(&qp, &table, 2), Err(FabricError::PeerDead { node: 0 }));
        assert_eq!(table.try_remote_lookup(&qp, 2), Err(FabricError::PeerDead { node: 0 }));
        cluster.faults().revive(0);
        assert!(cache.try_lookup(&qp, &table, 2).unwrap().is_some());
    }

    #[test]
    fn whole_bucket_fetch_prefetches_neighbours() {
        let (cluster, table, exec) = setup(1); // all keys share one bucket
        let region = cluster.node(0).region();
        for k in 0..8u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        let qp = cluster.qp(1);
        let cache = LocationCache::new(4, 16);
        cache.lookup(&qp, &table, 0).unwrap();
        // All 7 other residents of the bucket are now free lookups.
        for k in 1..8u64 {
            let (_, _, r) = cache.lookup(&qp, &table, k).unwrap();
            assert_eq!(r, 0, "key {k}");
        }
    }

    #[test]
    fn chained_buckets_cached_in_pool() {
        let (cluster, table, exec) = setup(1);
        let region = cluster.node(0).region();
        for k in 0..30u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        let qp = cluster.qp(1);
        let cache = LocationCache::new(4, 16);
        // Walk to the deepest key once; the chain gets cached.
        let deep_key = 29u64;
        let (_, _, cold) = cache.lookup(&qp, &table, deep_key).unwrap();
        assert!(cold >= 1);
        let (_, _, warm) = cache.lookup(&qp, &table, deep_key).unwrap();
        assert_eq!(warm, 0, "chain walk should be fully cached");
    }

    #[test]
    fn stale_not_found_verifies_remotely() {
        let (cluster, table, exec) = setup(64);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 1, b"v").unwrap();
        let qp = cluster.qp(1);
        let cache = LocationCache::new(64, 8);
        cache.lookup(&qp, &table, 1).unwrap();
        // Insert a key that maps to the *same* bucket after caching.
        let mut k2 = 2u64;
        while table.desc().bucket_index(k2) != table.desc().bucket_index(1) {
            k2 += 1;
        }
        table.insert(&exec, region, k2, b"w").unwrap();
        // The cached snapshot doesn't contain k2, but lookup still finds it.
        let got = cache.lookup(&qp, &table, k2);
        assert!(got.is_some(), "stale NotFound must re-verify");
    }

    #[test]
    fn invalidate_after_delete_recovers() {
        let (cluster, table, exec) = setup(64);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 5, b"old").unwrap();
        let qp = cluster.qp(1);
        let cache = LocationCache::new(64, 8);
        let (addr, slot, _) = cache.lookup(&qp, &table, 5).unwrap();
        table.delete(&exec, region, 5);
        table.insert(&exec, region, 5, b"new").unwrap();
        // Cached location is stale: incarnation check fails.
        assert!(table.remote_read_entry(&qp, addr, &slot).is_none());
        cache.invalidate(&table, 5);
        let (addr2, slot2, _) = cache.lookup(&qp, &table, 5).unwrap();
        let (_, v) = table.remote_read_entry(&qp, addr2, &slot2).unwrap();
        assert_eq!(v, b"new");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn pool_exhaustion_falls_back_to_remote_walk() {
        let (cluster, table, exec) = setup(1);
        let region = cluster.node(0).region();
        for k in 0..40u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        let qp = cluster.qp(1);
        let cache = LocationCache::new(1, 1); // pool of one bucket
                                              // Every deep lookup still succeeds even when nothing fits.
        for k in 0..40u64 {
            assert!(cache.lookup(&qp, &table, k).is_some(), "key {k}");
        }
        // Cross-check against the uncached path.
        for k in 0..40u64 {
            assert!(matches!(table.remote_lookup(&qp, k), LookupResult::Found { .. }));
        }
    }

    #[test]
    fn budget_sizing_is_monotone() {
        let small = LocationCache::with_budget(16 << 10);
        let big = LocationCache::with_budget(1 << 20);
        assert!(big.footprint() > small.footprint());
        assert!(small.footprint() <= 32 << 10, "small cache overshoots budget");
    }

    #[test]
    fn budget_footprint_is_tight() {
        // The rounded main array must not halve the effective budget:
        // whatever the power-of-two rounding leaves over flows into the
        // pool, keeping the footprint within one bucket of the request.
        let bucket = BUCKET_BYTES + 16;
        for bytes in [16 << 10, 100_000, 1 << 20, 3 << 20] {
            let c = LocationCache::with_budget(bytes);
            let fp = c.footprint();
            assert!(fp <= bytes + bucket, "budget {bytes}: footprint {fp} overshoots");
            assert!(fp + bucket >= bytes, "budget {bytes}: footprint {fp} wastes budget");
        }
    }

    #[test]
    fn concurrent_warm_lookups_all_hit() {
        let (cluster, table, exec) = setup(64);
        let region = cluster.node(0).region();
        for k in 0..256u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        let cache = LocationCache::new(256, 64);
        let qp = cluster.qp(1);
        for k in 0..256u64 {
            cache.lookup(&qp, &table, k).unwrap();
        }
        let warm = cache.stats();
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                let table = &table;
                let cluster = &cluster;
                s.spawn(move || {
                    let qp = cluster.qp(1);
                    for i in 0..1000u64 {
                        let k = (i * 7 + t) % 256;
                        let (_, slot, reads) = cache.lookup(&qp, table, k).unwrap();
                        assert_eq!(slot.key, k);
                        assert_eq!(reads, 0, "warm lookup must be free");
                    }
                });
            }
        });
        let s = cache.stats().since(&warm);
        assert_eq!(s.hits, 4000);
        assert_eq!(s.misses, 0);
    }
}
