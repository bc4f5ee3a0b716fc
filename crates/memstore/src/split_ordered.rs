//! Hash table on a recursively split-ordered list (Shalev & Shavit),
//! kept for the repo benchmark's two `memstore.probe.elastic_*` probes
//! (`benchmark/src/layers.rs`), which pin `create`, `insert`, `get_local`
//! and `remote_lookup`. No deployment uses it: the elastic world runs on
//! the paper's [`crate::ClusterHash`], sized at creation.
//!
//! All entries live on **one** linked list sorted by *split-order key*:
//! the bit-reversed hash. Buckets are nothing but lazy shortcut pointers
//! (sentinel nodes) into that list, published through a flat *segment
//! directory* of region offsets. Doubling the table is a single atomic
//! publish of the new bucket count — no rehash, no copy, no blocking:
//!
//! * a bucket that has not been split yet simply has a zero directory
//!   word, and a reader falls back to the bucket's *parent* (clear the
//!   highest set bit of the index), whose sentinel provably precedes
//!   every key of the child bucket in split order;
//! * sentinels are inserted lazily by the first INSERT that needs the
//!   bucket, inside the same HTM transaction as the insert itself.
//!
//! Region layout (carved from the owner's [`Arena`]):
//!
//! ```text
//! meta      8 words   [0] = published bucket count (remote readers RDMA-READ this)
//! dir       dir_len words   dir[i] = sentinel offset of bucket i, 0 = not yet split
//! nodes     pool of fixed cells: next(8) sokey(8) entry(header+value)
//! ```
//!
//! Local operations run inside HTM transactions (same race-freedom
//! argument as [`crate::ClusterHash`], §5.1); remote lookups walk the
//! chain with one-sided READs of 16-byte node headers and verify the
//! entry's key, so a stale (smaller) size hint or a concurrently-split
//! bucket is always *correct*, merely slower.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use drtm_htm::{Abort, Executor, HtmTxn, Region};
use drtm_rdma::{GlobalAddr, NodeId, Qp};

use crate::alloc::{Arena, FreeList, ABORT_POOL_FULL};
use crate::cluster_hash::{InsertError, LookupResult};
use crate::entry::{Entry, EntryHeader, ENTRY_HEADER_BYTES};
use crate::hash64;
use crate::slot::Slot;
use crate::words::{read_words, write_words};

/// Bytes of a list node's header (`next` pointer + split-order key); the
/// entry follows immediately.
const NODE_HEADER_BYTES: usize = 16;

/// Null link. Offset 0 is always inside the meta words, never a node.
const NIL: u64 = 0;

/// Reads a cell's `next` link and split-order key in one tracked access.
/// The two words are adjacent and a cell is 8-byte aligned, so they share
/// a cache line unless the cell starts in a line's last word; the access
/// then tracks both lines, as reading the words one by one did on every
/// hop but the one that ends a walk.
fn read_cell(txn: &mut HtmTxn<'_>, cell: usize) -> Result<(u64, u64), Abort> {
    let mut header = [0; 2];
    read_words(txn, cell, &mut header)?;
    Ok((header[0], header[1]))
}

/// Split-order key of a data node: bit-reversed hash with the lowest bit
/// forced to 1 (the MSB is sacrificed before reversal, so data keys are
/// odd and sentinels even — the classic split-ordered encoding).
#[inline]
fn so_data_key(key: u64) -> u64 {
    (hash64(key) | 1 << 63).reverse_bits()
}

/// Split-order key of bucket `b`'s sentinel (bit-reversed index, even).
#[inline]
fn so_sentinel_key(bucket: usize) -> u64 {
    (bucket as u64).reverse_bits()
}

/// Parent of bucket `b` in the recursive split: clear the highest set
/// bit. The parent's sentinel precedes every key of `b` in split order.
#[inline]
fn so_parent(bucket: usize) -> usize {
    debug_assert!(bucket > 0, "bucket 0 has no parent");
    bucket & !(1usize << (usize::BITS as usize - 1 - bucket.leading_zeros() as usize))
}

/// How full a bucket may get (entries per published bucket) before an
/// insert triggers a doubling.
const GROW_LOAD_FACTOR: u64 = 4;

/// Restarts a remote walk tolerates before giving up on a torn chain.
const WALK_RESTARTS: usize = 8;

/// The split-ordered, online-resizable hash table.
#[derive(Debug)]
pub struct ElasticHash {
    /// Owning machine.
    node: NodeId,
    /// Region offset of the published-bucket-count word.
    size_off: usize,
    /// Region offset of the segment directory.
    dir_base: usize,
    /// Directory capacity — the table can double until here.
    dir_len: usize,
    /// Fixed value capacity in bytes.
    value_cap: usize,
    /// One pool serves data nodes and sentinels alike.
    pool: FreeList,
    /// Host-side mirror of the published bucket count (local readers
    /// avoid a region read; remote readers RDMA-READ the meta word).
    size_hint: AtomicU64,
    /// Live data entries (sentinels excluded).
    count: AtomicU64,
    /// Serialises doublings; never taken by readers.
    grow_lock: Mutex<()>,
}

impl ElasticHash {
    /// Carves a table for `node` out of `arena` and initialises bucket
    /// 0's sentinel in `region`.
    ///
    /// The table starts with `buckets` buckets and can double until
    /// `dir_len`, both rounded up to powers of two; the node pool holds
    /// `entry_capacity` data nodes plus one sentinel per possible bucket.
    pub fn create(
        arena: &mut Arena,
        region: &Region,
        node: NodeId,
        buckets: usize,
        dir_len: usize,
        entry_capacity: usize,
        value_cap: usize,
    ) -> Self {
        let buckets = buckets.next_power_of_two();
        let dir_len = dir_len.next_power_of_two().max(buckets);
        let size_off = arena.reserve(64);
        let dir_base = arena.reserve(dir_len * 8);
        let node_capacity = entry_capacity + dir_len;
        let cell = NODE_HEADER_BYTES + Entry::footprint(value_cap);
        let pool = FreeList::new(arena.reserve(cell * node_capacity), cell, node_capacity);
        // Bucket 0 is the root of the recursive split: always present, so
        // every parent-fallback walk terminates.
        let s0 = pool.alloc().expect("fresh pool");
        region.write_u64_nt(s0, NIL);
        region.write_u64_nt(s0 + 8, so_sentinel_key(0));
        region.write_u64_nt(dir_base, s0 as u64);
        region.write_u64_nt(size_off, buckets as u64);
        ElasticHash {
            node,
            size_off,
            dir_base,
            dir_len,
            value_cap,
            pool,
            size_hint: AtomicU64::new(buckets as u64),
            count: AtomicU64::new(0),
            grow_lock: Mutex::new(()),
        }
    }

    /// Region offset of bucket `b`'s directory word.
    fn dir_off(&self, b: usize) -> usize {
        self.dir_base + b * 8
    }

    /// The bucket `key` hashes to under the published count.
    fn bucket(&self, key: u64) -> usize {
        (hash64(key) as usize) & (self.size_hint.load(Ordering::Relaxed) as usize - 1)
    }

    /// Doubles the published bucket count. Returns `false` when the
    /// directory is already at capacity.
    ///
    /// The publish is a single CAS on the meta word; readers racing it
    /// use either count correctly (a smaller count routes to an ancestor
    /// bucket whose chain contains the key — the split-order invariant).
    fn grow(&self, region: &Region) -> bool {
        let _g = self.grow_lock.lock();
        let cur = self.size_hint.load(Ordering::Relaxed);
        if cur as usize * 2 > self.dir_len {
            return false;
        }
        let prev = region.cas_u64_nt(self.size_off, cur, cur * 2);
        debug_assert_eq!(prev, cur, "size word is only written under grow_lock");
        self.size_hint.store(cur * 2, Ordering::Release);
        true
    }

    fn maybe_grow(&self, region: &Region) {
        loop {
            let size = self.size_hint.load(Ordering::Relaxed);
            if size as usize * 2 > self.dir_len
                || self.count.load(Ordering::Relaxed) <= size * GROW_LOAD_FACTOR
                || !self.grow(region)
            {
                return;
            }
        }
    }

    /// Resolves `bucket` to an initialised sentinel without creating
    /// anything: read paths fall back to the nearest split ancestor.
    fn find_bucket_ro(&self, txn: &mut HtmTxn<'_>, mut bucket: usize) -> Result<usize, Abort> {
        loop {
            let off = txn.read_u64(self.dir_off(bucket))?;
            if off != NIL {
                return Ok(off as usize);
            }
            bucket = so_parent(bucket);
        }
    }

    /// Resolves `bucket`, lazily inserting the sentinels of every
    /// uninitialised ancestor inside `txn`. Freshly allocated cells are
    /// pushed to `fresh` so the caller can return them if the commit
    /// fails (allocator state is not transactional).
    fn ensure_bucket(
        &self,
        txn: &mut HtmTxn<'_>,
        bucket: usize,
        fresh: &mut Vec<usize>,
    ) -> Result<usize, Abort> {
        let off = txn.read_u64(self.dir_off(bucket))?;
        if off != NIL {
            return Ok(off as usize);
        }
        let mut path = vec![bucket];
        let mut b = bucket;
        let mut anchor;
        loop {
            b = so_parent(b);
            anchor = txn.read_u64(self.dir_off(b))?;
            if anchor != NIL {
                break;
            }
            path.push(b);
        }
        let mut sent = anchor as usize;
        for &child in path.iter().rev() {
            sent = self.init_sentinel(txn, child, sent, fresh)?;
        }
        Ok(sent)
    }

    /// Links bucket `child`'s sentinel into the chain starting at its
    /// parent's sentinel and publishes it in the directory.
    fn init_sentinel(
        &self,
        txn: &mut HtmTxn<'_>,
        child: usize,
        parent_sent: usize,
        fresh: &mut Vec<usize>,
    ) -> Result<usize, Abort> {
        let target = so_sentinel_key(child);
        let mut prev = parent_sent;
        let mut succ = txn.read_u64(prev)?;
        while succ != NIL {
            let (next, sokey) = read_cell(txn, succ as usize)?;
            if sokey > target {
                break;
            }
            (prev, succ) = (succ as usize, next);
        }
        let cell = self.pool.alloc().ok_or(Abort::Explicit(ABORT_POOL_FULL))?;
        fresh.push(cell);
        write_words(txn, cell, &[succ, target])?;
        txn.write_u64(prev, cell as u64)?;
        txn.write_u64(self.dir_off(child), cell as u64)?;
        Ok(cell)
    }

    /// Transactionally looks up `key`, returning the entry handle.
    ///
    /// Never initialises buckets: an unsplit bucket is served through its
    /// ancestor's sentinel (at most a few extra hops), so readers never
    /// block on — or write during — a resize.
    pub fn get_local(&self, txn: &mut HtmTxn<'_>, key: u64) -> Result<Option<Entry>, Abort> {
        let sent = self.find_bucket_ro(txn, self.bucket(key))?;
        let target = so_data_key(key);
        let mut cur = txn.read_u64(sent)?;
        while cur != NIL {
            let (next, sokey) = read_cell(txn, cur as usize)?;
            if sokey > target {
                break;
            }
            if sokey == target {
                // One sacrificed hash bit ⇒ distinct keys may share a
                // split-order key; verify the stored key.
                let entry = Entry::at(cur as usize + NODE_HEADER_BYTES);
                if txn.read_u64(entry.key_off())? == key {
                    return Ok(Some(entry));
                }
            }
            cur = next;
        }
        Ok(None)
    }

    /// Inserts `key → value` as a self-contained HTM transaction (same
    /// contract as [`crate::ClusterHash::insert`]: INSERT executes on the
    /// host, remote machines ship it via SEND/RECV).
    pub fn insert(
        &self,
        exec: &Executor,
        region: &Region,
        key: u64,
        value: &[u8],
    ) -> Result<(), InsertError> {
        assert!(value.len() <= self.value_cap, "value exceeds table capacity");
        let cell = self.pool.alloc().ok_or(InsertError::Full)?;
        // Sentinel cells of the attempt in flight: a commit takes them,
        // anything else gives them back — here, or below.
        let mut fresh = Vec::new();
        let outcome = exec.run(region, |txn| {
            self.free_fresh(&mut fresh);
            self.try_insert(txn, key, value, cell, &mut fresh)
        });
        let refused = match outcome {
            Ok(true) => {
                self.count.fetch_add(1, Ordering::Relaxed);
                self.maybe_grow(region);
                return Ok(());
            }
            Ok(false) => InsertError::Duplicate,
            Err(Abort::Explicit(ABORT_POOL_FULL)) => InsertError::Full,
            Err(a) => panic!("insert aborted for good ({a}); raise write_capacity_lines"),
        };
        self.free_fresh(&mut fresh);
        self.pool.free(cell);
        Err(refused)
    }

    fn free_fresh(&self, fresh: &mut Vec<usize>) {
        for c in fresh.drain(..) {
            self.pool.free(c);
        }
    }

    /// One insert attempt inside `txn`: `false` if the key exists.
    fn try_insert(
        &self,
        txn: &mut HtmTxn<'_>,
        key: u64,
        value: &[u8],
        cell: usize,
        fresh: &mut Vec<usize>,
    ) -> Result<bool, Abort> {
        let sent = self.ensure_bucket(txn, self.bucket(key), fresh)?;
        let target = so_data_key(key);
        let mut prev = sent;
        let mut succ = txn.read_u64(prev)?;
        while succ != NIL {
            let (next, sokey) = read_cell(txn, succ as usize)?;
            if sokey > target {
                break;
            }
            if sokey == target {
                let entry = Entry::at(succ as usize + NODE_HEADER_BYTES);
                if txn.read_u64(entry.key_off())? == key {
                    return Ok(false);
                }
            }
            (prev, succ) = (succ as usize, next);
        }
        // Write the node, then link it — the incarnation survives cell
        // reuse so stale cached locations fail their check (§5.3).
        let entry = Entry::at(cell + NODE_HEADER_BYTES);
        let old = entry.read_header(txn)?;
        entry.write_header(
            txn,
            &EntryHeader {
                state: 0,
                incarnation: old.incarnation.wrapping_add(1),
                version: 0,
                key,
                value_len: value.len() as u32,
            },
        )?;
        txn.write(entry.value_off(), value)?;
        write_words(txn, cell, &[succ, target])?;
        txn.write_u64(prev, cell as u64)?;
        Ok(true)
    }

    /// Remote lookup of `key` by one-sided READs of the size word, the
    /// directory and 16-byte node headers.
    ///
    /// A resize in progress is invisible except in cost: an unsplit
    /// bucket falls back to its parent; a size hint published between the
    /// size READ and the walk only makes the chosen bucket an ancestor of
    /// the real one, which still contains the key. A walk torn by a
    /// concurrent unlink (split-order keys going backwards) restarts.
    ///
    /// # Panics
    ///
    /// If the table's machine is crashed.
    pub fn remote_lookup(&self, qp: &Qp, key: u64) -> LookupResult {
        let at = |off| GlobalAddr::new(self.node, off);
        let size = qp.read_u64(at(self.size_off)).max(1) as usize;
        let mut reads = 1u32;
        let target = so_data_key(key);
        for _ in 0..WALK_RESTARTS {
            let mut bucket = (hash64(key) as usize) & (size - 1);
            let sent = loop {
                let d = qp.read_u64(at(self.dir_off(bucket)));
                reads += 1;
                if d != NIL {
                    break d as usize;
                }
                bucket = so_parent(bucket);
            };
            let mut cur = sent;
            let mut last_sokey = 0u64;
            loop {
                let mut hdr = [0u8; NODE_HEADER_BYTES];
                qp.read(at(cur), &mut hdr);
                reads += 1;
                let next = u64::from_le_bytes(hdr[0..8].try_into().expect("node header"));
                let sokey = u64::from_le_bytes(hdr[8..16].try_into().expect("node header"));
                if cur != sent {
                    if sokey < last_sokey {
                        // Torn walk (concurrent unlink): restart from the top.
                        break;
                    }
                    last_sokey = sokey;
                    if sokey > target {
                        return LookupResult::NotFound { reads };
                    }
                    if sokey == target {
                        let entry_off = cur + NODE_HEADER_BYTES;
                        let mut h = [0u8; ENTRY_HEADER_BYTES];
                        qp.read(at(entry_off), &mut h);
                        reads += 1;
                        let h = EntryHeader::decode(&h);
                        if h.key == key {
                            return LookupResult::Found {
                                addr: at(entry_off),
                                slot: Slot::entry(key, entry_off as u64, h.incarnation),
                                reads,
                            };
                        }
                    }
                }
                if next == NIL {
                    return LookupResult::NotFound { reads };
                }
                cur = next as usize;
            }
        }
        // Persistently torn chain: report a (verifiable) miss — locations
        // are hints, and callers re-verify Found results by incarnation.
        LookupResult::NotFound { reads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::{HtmConfig, HtmStats};
    use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};
    use std::sync::Arc;

    fn setup(init: usize, max: usize, cap: usize) -> (Arc<Cluster>, ElasticHash, Executor) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 8 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(0, 8 << 20);
        let table =
            ElasticHash::create(&mut arena, cluster.node(0).region(), 0, init, max, cap, 64);
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        (cluster, table, exec)
    }

    fn buckets(table: &ElasticHash) -> u64 {
        table.size_hint.load(Ordering::Relaxed)
    }

    #[test]
    fn split_order_keys_are_ordered_by_bucket() {
        // A bucket's sentinel precedes all its data keys, and both
        // precede the next sentinel in split order.
        for key in [0u64, 1, 7, 42, 1 << 40, u64::MAX] {
            for k in 1..6 {
                let size = 1usize << k;
                let b = (hash64(key) as usize) & (size - 1);
                assert!(so_sentinel_key(b) < so_data_key(key), "key {key} size {size}");
            }
        }
        assert!(so_data_key(3) & 1 == 1, "data keys are odd");
        assert!(so_sentinel_key(5) & 1 == 0, "sentinels are even");
        assert_eq!(so_parent(0b1101), 0b0101);
        assert_eq!(so_parent(1), 0);
    }

    #[test]
    fn insert_get_roundtrip() {
        let (cluster, table, exec) = setup(4, 64, 1000);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 42, b"hello").unwrap();
        let mut txn = region.begin(exec.config());
        let e = table.get_local(&mut txn, 42).unwrap().expect("found");
        assert_eq!(
            {
                let mut v = Vec::new();
                e.read_value(&mut txn, &mut v).unwrap();
                v
            },
            b"hello"
        );
        assert!(table.get_local(&mut txn, 43).unwrap().is_none());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (cluster, table, exec) = setup(4, 64, 1000);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 1, b"a").unwrap();
        assert_eq!(table.insert(&exec, region, 1, b"b"), Err(InsertError::Duplicate));
        assert_eq!(table.count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn chains_grow_past_bucket_capacity() {
        // One bucket, growth disabled: the whole table is one chain.
        let (cluster, table, exec) = setup(1, 1, 1000);
        let region = cluster.node(0).region();
        for k in 0..100u64 {
            table.insert(&exec, region, k, &k.to_le_bytes()).unwrap();
        }
        assert_eq!(buckets(&table), 1, "growth must be capped by dir_len");
        let mut txn = region.begin(exec.config());
        for k in 0..100u64 {
            let e = table.get_local(&mut txn, k).unwrap().expect("found");
            assert_eq!(
                {
                    let mut v = Vec::new();
                    e.read_value(&mut txn, &mut v).unwrap();
                    v
                },
                k.to_le_bytes()
            );
        }
    }

    #[test]
    fn grows_online_and_lookups_survive() {
        let (cluster, table, exec) = setup(1, 256, 2000);
        let region = cluster.node(0).region();
        for k in 0..500u64 {
            table.insert(&exec, region, k, &k.to_le_bytes()).unwrap();
        }
        assert!(buckets(&table) >= 16, "load factor should have forced doublings");
        let mut txn = region.begin(exec.config());
        for k in 0..500u64 {
            let e = table.get_local(&mut txn, k).unwrap().expect("found after grow");
            assert_eq!(
                {
                    let mut v = Vec::new();
                    e.read_value(&mut txn, &mut v).unwrap();
                    v
                },
                k.to_le_bytes()
            );
        }
        drop(txn);
        let qp = cluster.qp(1);
        for k in 0..500u64 {
            match table.remote_lookup(&qp, k) {
                LookupResult::Found { addr, slot, .. } => {
                    assert_eq!(slot.key, k);
                    assert_eq!(Entry::at(addr.offset).read_header_nt(region).key, k);
                }
                other => panic!("key {k}: {other:?}"),
            }
        }
    }

    #[test]
    fn explicit_grow_is_a_published_doubling() {
        let (cluster, table, _exec) = setup(2, 8, 100);
        let region = cluster.node(0).region();
        assert_eq!(buckets(&table), 2);
        assert!(table.grow(region));
        assert!(table.grow(region));
        assert!(!table.grow(region), "at dir_len");
        assert_eq!(buckets(&table), 8);
        assert_eq!(region.read_u64_nt(table.size_off), 8);
    }

    #[test]
    fn stale_smaller_size_hint_still_finds_keys() {
        // Readers that haven't seen a grow route to an ancestor bucket
        // whose chain contains the key — the split-order invariant.
        let (cluster, table, exec) = setup(1, 64, 500);
        let region = cluster.node(0).region();
        for k in 0..100u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        assert!(buckets(&table) > 1);
        // A remote walk *after* growth but before any new bucket's
        // sentinel exists must fall back through parents.
        let qp = cluster.qp(1);
        assert!(table.grow(region), "publish another doubling; no sentinels yet");
        for k in 0..100u64 {
            assert!(
                matches!(table.remote_lookup(&qp, k), LookupResult::Found { .. }),
                "key {k} lost after grow"
            );
        }
    }

    #[test]
    fn pool_exhaustion_reported() {
        let (cluster, table, exec) = setup(1, 1, 4);
        let region = cluster.node(0).region();
        for k in 0..4u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        assert_eq!(table.insert(&exec, region, 99, b"v"), Err(InsertError::Full));
    }

    #[test]
    fn concurrent_inserts_all_land_across_grows() {
        let (cluster, table, exec) = setup(1, 256, 2000);
        let table = Arc::new(table);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let table = table.clone();
                let exec = exec.clone();
                let cluster = cluster.clone();
                s.spawn(move || {
                    let region = cluster.node(0).region();
                    for i in 0..200u64 {
                        table.insert(&exec, region, t * 1000 + i, b"v").unwrap();
                    }
                });
            }
        });
        assert_eq!(table.count.load(Ordering::Relaxed), 800);
        assert!(buckets(&table) > 1);
        let region = cluster.node(0).region();
        let mut txn = region.begin(exec.config());
        for t in 0..4u64 {
            for i in 0..200u64 {
                assert!(
                    table.get_local(&mut txn, t * 1000 + i).unwrap().is_some(),
                    "key {}",
                    t * 1000 + i
                );
            }
        }
    }
}
