//! Cluster-chaining hash table (§5.2, Figure 9).
//!
//! The table is split into three decoupled region ranges:
//!
//! * **main headers** — `main_buckets` buckets of [`crate::ASSOC`] 16-byte
//!   slots each; a key hashes to exactly one main bucket;
//! * **indirect headers** — a shared pool of identical buckets used to
//!   extend full main buckets (the last slot of a full bucket is re-typed
//!   from `Entry` to `Header` and its resident moves into the new
//!   indirect bucket);
//! * **entries** — fixed-footprint key-value entries (see
//!   [`crate::Entry`]).
//!
//! Local operations run inside HTM transactions, so no checksums or
//! version fields are needed for race detection (§5.1); remote lookups
//! are one-sided RDMA READs of whole buckets (one READ fetches up to 8
//! candidate slots, the property behind Table 4); remote value reads and
//! writes are one-sided READ/WRITE of the entry.

use drtm_htm::{Abort, Executor, HtmTxn, Region, LINE_SIZE};
use drtm_rdma::{FabricError, GlobalAddr, NodeId, Qp};

use crate::alloc::{Arena, FreeList, ABORT_POOL_FULL};
use crate::entry::{Entry, EntryHeader};
use crate::slot::{Slot, SlotType, SLOT_BYTES};
use crate::words::{self, read_words, write_words};
use crate::{hash64, ASSOC};

/// Bytes per bucket (8 slots of 16 bytes): two cache lines, and aligned.
pub const BUCKET_BYTES: usize = ASSOC * SLOT_BYTES;

/// Geometry of a [`ClusterHash`] inside its owner's region.
///
/// Every machine in the cluster constructs the same descriptor, so
/// clients can compute remote bucket addresses without any metadata
/// traffic — the property that makes one-sided lookups possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterHashDesc {
    /// Owning machine.
    pub node: NodeId,
    /// Region offset of the main-header array.
    pub main_base: usize,
    /// Number of main buckets (power of two).
    pub main_buckets: usize,
    /// Region offset of the indirect-header pool.
    pub ind_base: usize,
    /// Number of indirect buckets in the pool.
    pub ind_buckets: usize,
    /// Region offset of the entry pool.
    pub entry_base: usize,
    /// Number of entries in the pool.
    pub entry_capacity: usize,
    /// Fixed value capacity in bytes.
    pub value_cap: usize,
}

impl ClusterHashDesc {
    /// Region offset of main bucket `i`.
    pub fn main_bucket_off(&self, i: usize) -> usize {
        self.main_base + i * BUCKET_BYTES
    }

    /// Main bucket index for `key`.
    pub fn bucket_index(&self, key: u64) -> usize {
        (hash64(key) as usize) & (self.main_buckets - 1)
    }

    /// Entry footprint in bytes for this table.
    pub fn entry_footprint(&self) -> usize {
        Entry::footprint(self.value_cap)
    }
}

/// Outcome of a remote lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The key was found; `addr` is the entry's global address.
    Found {
        /// Global address of the entry.
        addr: GlobalAddr,
        /// The header slot as read (carries the lossy incarnation).
        slot: Slot,
        /// One-sided READs spent on this lookup.
        reads: u32,
    },
    /// The key is absent.
    NotFound {
        /// One-sided READs spent on this lookup.
        reads: u32,
    },
}

impl LookupResult {
    /// READs consumed by the lookup.
    pub fn reads(&self) -> u32 {
        match *self {
            LookupResult::Found { reads, .. } | LookupResult::NotFound { reads } => reads,
        }
    }
}

/// Error from a self-contained insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The key is already present (no change was made).
    Duplicate,
    /// The entry or indirect-header pool is exhausted.
    Full,
}

/// The HTM/RDMA-friendly hash table.
///
/// The struct itself holds only geometry plus the host-side allocators;
/// it is cheap to share (`Arc`) among the owner's worker threads and — in
/// this in-process simulation — with client machines, which only use the
/// geometry.
#[derive(Debug)]
pub struct ClusterHash {
    desc: ClusterHashDesc,
    entries: FreeList,
    indirect: FreeList,
}

impl ClusterHash {
    /// Builds a table from an explicit descriptor.
    pub fn new(desc: ClusterHashDesc) -> Self {
        assert!(desc.main_buckets.is_power_of_two(), "main_buckets must be a power of two");
        let entries = FreeList::new(desc.entry_base, desc.entry_footprint(), desc.entry_capacity);
        let indirect = FreeList::new(desc.ind_base, BUCKET_BYTES, desc.ind_buckets);
        ClusterHash { desc, entries, indirect }
    }

    /// Carves a table for `node` out of `arena`.
    ///
    /// `main_buckets` is rounded up to a power of two; the indirect pool
    /// defaults to a quarter of the main buckets.
    pub fn create(
        arena: &mut Arena,
        node: NodeId,
        main_buckets: usize,
        entry_capacity: usize,
        value_cap: usize,
    ) -> Self {
        let main_buckets = main_buckets.next_power_of_two();
        // Worst case every entry chains: one indirect bucket per ASSOC
        // entries, plus slack (indirect buckets are shared, §5.2).
        let ind_buckets = (entry_capacity / ASSOC + 16).max(main_buckets / 4);
        let main_base = arena.reserve(main_buckets * BUCKET_BYTES);
        let ind_base = arena.reserve(ind_buckets * BUCKET_BYTES);
        let entry_base = arena.reserve(Entry::footprint(value_cap) * entry_capacity);
        ClusterHash::new(ClusterHashDesc {
            node,
            main_base,
            main_buckets,
            ind_base,
            ind_buckets,
            entry_base,
            entry_capacity,
            value_cap,
        })
    }

    /// The table geometry.
    pub fn desc(&self) -> &ClusterHashDesc {
        &self.desc
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.live()
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn write_slot(txn: &mut HtmTxn<'_>, off: usize, slot: Slot) -> Result<(), Abort> {
        let (meta, key) = slot.encode();
        write_words(txn, off, &[meta, key])
    }

    /// Transactionally looks up `key`, returning the entry handle.
    ///
    /// Runs inside the caller's HTM transaction, so the result is
    /// protected against concurrent INSERT/DELETE by strong atomicity.
    pub fn get_local(&self, txn: &mut HtmTxn<'_>, key: u64) -> Result<Option<Entry>, Abort> {
        Ok(match self.find_local(txn, key)? {
            Place::At { slot, .. } => Some(Entry::at(slot.offset as usize)),
            Place::Absent { .. } => None,
        })
    }

    /// The local walk behind GET, INSERT and DELETE. An HTM region tracks
    /// and pays per cache line, so the walk reads the chain a line (four
    /// slots) per access, matches the slots from that copy and stops at
    /// the line that holds the key: line 1 of a bucket and the next bucket
    /// of a chain are read only when the walk gets there, which makes the
    /// read set exactly the lines a slot-by-slot walk would have tracked
    /// (`tests/index_path_cost.rs` pins it). The remote paths match whole
    /// bucket images ([`scan_bucket`]) with the same [`find_key`].
    fn find_local(&self, txn: &mut HtmTxn<'_>, key: u64) -> Result<Place, Abort> {
        let mut bucket = self.desc.main_bucket_off(self.desc.bucket_index(key));
        let mut free = None;
        loop {
            let mut line = [0; LINE_SIZE / 8];
            for line_off in [bucket, bucket + LINE_SIZE] {
                read_words(txn, line_off, &mut line)?;
                let at = |i| line_off + i * SLOT_BYTES;
                if let Some((i, slot)) = find_key(&line, key) {
                    return Ok(Place::At { slot_off: at(i), slot });
                }
                free = free.or_else(|| slots(&line).position(|s| s.typ == SlotType::Free).map(at));
            }
            // `line` is line 1 now, and ends in the bucket's last slot.
            let last = slots(&line).next_back().expect("four slots");
            if last.typ != SlotType::Header {
                let last_slot_off = bucket + BUCKET_BYTES - SLOT_BYTES;
                return Ok(Place::Absent { free, last_slot_off, last });
            }
            bucket = last.offset as usize;
        }
    }

    /// Inserts `key → value` as a self-contained HTM transaction.
    ///
    /// INSERT is always executed on the host machine (remote machines
    /// ship it via SEND/RECV verbs, §5.1 footnote 5). The region is
    /// retried without bound on conflicts ([`Executor::run`]) — its
    /// working set is a bucket chain plus one entry, far below capacity —
    /// so no 2PL fallback is needed; allocator state is rolled back for
    /// every attempt that did not commit.
    pub fn insert(
        &self,
        exec: &Executor,
        region: &Region,
        key: u64,
        value: &[u8],
    ) -> Result<(), InsertError> {
        assert!(value.len() <= self.desc.value_cap, "value exceeds table capacity");
        let entry_off = self.entries.alloc().ok_or(InsertError::Full)?;
        // The indirect bucket of the attempt in flight: a commit takes
        // it, anything else gives it back — here, or below.
        let mut ind = None;
        let outcome = exec.run(region, |txn| {
            if let Some(b) = ind.take() {
                self.indirect.free(b);
            }
            let (duplicate, bucket) = self.try_insert(txn, key, entry_off, value)?;
            ind = bucket;
            Ok(duplicate)
        });
        let refused = match outcome {
            Ok(false) => return Ok(()),
            Ok(true) => InsertError::Duplicate,
            Err(Abort::Explicit(ABORT_POOL_FULL)) => InsertError::Full,
            Err(a) => panic!("insert aborted for good ({a}); raise write_capacity_lines"),
        };
        self.undo_insert(PreparedInsert { entry_off, ind });
        Err(refused)
    }

    /// One insert attempt inside `txn`. Returns `(duplicate,
    /// allocated_indirect_bucket)`; the caller frees the bucket if the
    /// commit subsequently fails. An exhausted indirect pool is the
    /// explicit abort [`ABORT_POOL_FULL`]: the entry is staged by then.
    fn try_insert(
        &self,
        txn: &mut HtmTxn<'_>,
        key: u64,
        entry_off: usize,
        value: &[u8],
    ) -> Result<(bool, Option<usize>), Abort> {
        // Phase 1: scan the whole chain for the key and the first hole.
        let (free_slot, last_slot_off, resident) = match self.find_local(txn, key)? {
            Place::At { .. } => return Ok((true, None)),
            Place::Absent { free, last_slot_off, last } => (free, last_slot_off, last),
        };
        // Phase 2: initialise the entry (incarnation survives cell reuse).
        let entry = Entry::at(entry_off);
        let old = entry.read_header(txn)?;
        let inc = old.incarnation.wrapping_add(1);
        entry.write_header(
            txn,
            &EntryHeader {
                state: 0,
                incarnation: inc,
                version: 0,
                key,
                value_len: value.len() as u32,
            },
        )?;
        txn.write(entry.value_off(), value)?;
        let new_slot = Slot::entry(key, entry_off as u64, inc);
        // Phase 3: link the slot.
        if let Some(off) = free_slot {
            Self::write_slot(txn, off, new_slot)?;
            return Ok((false, None));
        }
        // Chain is full: extend it through the last slot (Figure 9).
        debug_assert_eq!(resident.typ, SlotType::Entry, "full chain must end in an entry");
        let ind = self.indirect.alloc().ok_or(Abort::Explicit(ABORT_POOL_FULL))?;
        // The (recycled) indirect bucket is written whole — the resident
        // in slot 0, the new pair in slot 1, the rest free, which encodes
        // to zero words — and the last slot re-typed to link to it.
        let mut img: BucketImage = [0; ASSOC * 2];
        (img[0], img[1]) = resident.encode();
        (img[2], img[3]) = new_slot.encode();
        write_words(txn, ind, &img)
            .and_then(|()| Self::write_slot(txn, last_slot_off, Slot::header(ind as u64)))
            // No caller has the bucket yet to give it back.
            .inspect_err(|_| self.indirect.free(ind))?;
        Ok((false, Some(ind)))
    }

    /// Inserts `key → value` *inside the caller's HTM transaction* so the
    /// insert commits or aborts atomically with the enclosing database
    /// transaction (TPC-C's new-order inserts, §5.1).
    ///
    /// Host-side allocator state is **not** transactional: on success the
    /// caller must keep the returned [`PreparedInsert`] and pass it to
    /// [`ClusterHash::undo_insert`] if the enclosing transaction later
    /// aborts (the DrTM transaction context automates this).
    pub fn insert_txn(
        &self,
        txn: &mut HtmTxn<'_>,
        key: u64,
        value: &[u8],
    ) -> Result<Result<PreparedInsert, InsertError>, Abort> {
        assert!(value.len() <= self.desc.value_cap, "value exceeds table capacity");
        let Some(entry_off) = self.entries.alloc() else {
            return Ok(Err(InsertError::Full));
        };
        match self.try_insert(txn, key, entry_off, value) {
            Ok((true, _)) => {
                self.entries.free(entry_off);
                Ok(Err(InsertError::Duplicate))
            }
            Ok((false, ind)) => Ok(Ok(PreparedInsert { entry_off, ind })),
            Err(a) => {
                self.entries.free(entry_off);
                match a {
                    Abort::Explicit(ABORT_POOL_FULL) => Ok(Err(InsertError::Full)),
                    a => Err(a),
                }
            }
        }
    }

    /// Returns the allocator cells of an insert whose enclosing HTM
    /// transaction aborted.
    pub fn undo_insert(&self, p: PreparedInsert) {
        self.entries.free(p.entry_off);
        if let Some(b) = p.ind {
            self.indirect.free(b);
        }
    }

    /// Deletes `key` as a self-contained HTM transaction.
    ///
    /// Deletion is logical-then-physical: the entry's incarnation is
    /// bumped inside the HTM region (so stale cached locations fail the
    /// incarnation check, §5.3) and the header slot is freed. Returns
    /// whether the key was present.
    pub fn delete(&self, exec: &Executor, region: &Region, key: u64) -> bool {
        let found = exec.run(region, |txn| self.try_delete(txn, key));
        let found = found.expect("a delete never aborts itself");
        if let Some(entry_off) = found {
            self.entries.free(entry_off);
        }
        found.is_some()
    }

    fn try_delete(&self, txn: &mut HtmTxn<'_>, key: u64) -> Result<Option<usize>, Abort> {
        let Place::At { slot_off, slot } = self.find_local(txn, key)? else { return Ok(None) };
        let entry = Entry::at(slot.offset as usize);
        let mut h = entry.read_header(txn)?;
        h.incarnation = h.incarnation.wrapping_add(1);
        entry.write_header(txn, &h)?;
        Self::write_slot(txn, slot_off, Slot::FREE)?;
        Ok(Some(slot.offset as usize))
    }

    /// Remote lookup of `key` by one-sided RDMA READs of whole buckets.
    ///
    /// # Panics
    ///
    /// If the table's machine is crashed (use
    /// [`ClusterHash::try_remote_lookup`] under the chaos harness).
    pub fn remote_lookup(&self, qp: &Qp, key: u64) -> LookupResult {
        self.try_remote_lookup(qp, key).expect("remote lookup against a crashed node")
    }

    /// [`ClusterHash::remote_lookup`] with typed dead-peer reporting
    /// instead of a panic or a stale read.
    pub fn try_remote_lookup(&self, qp: &Qp, key: u64) -> Result<LookupResult, FabricError> {
        let main = self.desc.main_bucket_off(self.desc.bucket_index(key));
        let mut img = [0; ASSOC * 2];
        read_bucket(qp, GlobalAddr::new(self.desc.node, main), &mut img)?;
        let mut reads = 1;
        Ok(match self.finish_remote(qp, &mut img, key, &mut reads)? {
            Some(slot) => LookupResult::Found {
                addr: GlobalAddr::new(self.desc.node, slot.offset as usize),
                slot,
                reads,
            },
            None => LookupResult::NotFound { reads },
        })
    }

    /// Continues a lookup from bucket image `img`, READing every further
    /// bucket of the chain from the owner and counting it in `reads`.
    #[inline]
    pub(crate) fn finish_remote(
        &self,
        qp: &Qp,
        img: &mut BucketImage,
        key: u64,
        reads: &mut u32,
    ) -> Result<Option<Slot>, FabricError> {
        walk_chain(img, key, |link, img| {
            *reads += 1;
            read_bucket(qp, GlobalAddr::new(self.desc.node, link.offset as usize), img)
        })
    }

    /// Remote read of an entry's header and value in a single RDMA READ,
    /// with incarnation check against `expect_slot`: see
    /// [`Entry::remote_read`].
    pub fn remote_read_entry(
        &self,
        qp: &Qp,
        addr: GlobalAddr,
        expect_slot: &Slot,
    ) -> Option<(EntryHeader, Vec<u8>)> {
        Entry::remote_read(qp, addr, self.desc.value_cap, expect_slot)
    }

    /// Remote overwrite of an entry's value and version with one-sided
    /// WRITEs: see [`Entry::remote_write_value`].
    pub fn remote_write_value(&self, qp: &Qp, addr: GlobalAddr, version: u32, value: &[u8]) {
        Entry::remote_write_value(qp, addr, self.desc.value_cap, version, value)
    }
}

/// The 16 words of one bucket, as READ from its owner or snapshotted
/// from a [`crate::LocationCache`].
pub(crate) type BucketImage = [u64; ASSOC * 2];

/// Fetches one whole bucket into `img` with a one-sided READ.
#[inline]
pub(crate) fn read_bucket(
    qp: &Qp,
    addr: GlobalAddr,
    img: &mut BucketImage,
) -> Result<(), FabricError> {
    let mut buf = [0u8; BUCKET_BYTES];
    qp.try_read(addr, &mut buf)?;
    words::decode(&buf, img);
    Ok(())
}

/// What one bucket image says about a key.
pub(crate) enum Scan {
    /// One of its slots is the key's entry slot.
    Entry(Slot),
    /// The key is not here and the last slot links to another bucket:
    /// [`SlotType::Header`] at a region offset of the owner,
    /// [`SlotType::Cached`] at a pool index of a location cache.
    Link(Slot),
    /// The key is not here and the chain ends.
    End,
}

/// The slots encoded in `words`: a bucket image, or one line of a bucket.
#[inline]
fn slots(words: &[u64]) -> impl DoubleEndedIterator<Item = Slot> + '_ {
    words.chunks_exact(2).map(|w| Slot::decode(w[0], w[1]))
}

/// `key`'s entry slot among the slots of `words`, and its index there —
/// the only place that matches a slot against a key, for the local walk's
/// lines and the remote paths' bucket images alike.
#[inline]
fn find_key(words: &[u64], key: u64) -> Option<(usize, Slot)> {
    slots(words).enumerate().find(|(_, s)| s.typ == SlotType::Entry && s.key == key)
}

/// What a bucket image says about `key`; the remote lookup and every
/// path of the location cache differ only in where [`walk_chain`] gets
/// its next image from.
#[inline]
pub(crate) fn scan_bucket(img: &BucketImage, key: u64) -> Scan {
    if let Some((_, slot)) = find_key(img, key) {
        return Scan::Entry(slot);
    }
    let last = slots(img).next_back().expect("eight slots");
    match last.typ {
        SlotType::Header | SlotType::Cached => Scan::Link(last),
        _ => Scan::End,
    }
}

/// Walks a bucket chain from the image in `img` to `key`'s entry slot;
/// `next` overwrites `img` with the image behind each link, or stops the
/// walk with its error. Inlined with its helpers into each caller: as
/// calls they cost the remote lookup about a tenth of its host time.
#[inline]
pub(crate) fn walk_chain<E>(
    img: &mut BucketImage,
    key: u64,
    mut next: impl FnMut(Slot, &mut BucketImage) -> Result<(), E>,
) -> Result<Option<Slot>, E> {
    loop {
        match scan_bucket(img, key) {
            Scan::Entry(slot) => return Ok(Some(slot)),
            Scan::Link(link) => next(link, img)?,
            Scan::End => return Ok(None),
        }
    }
}

/// Where [`ClusterHash::find_local`] found a key, or where it would go.
enum Place {
    /// The key's header slot, at region offset `slot_off`.
    At { slot_off: usize, slot: Slot },
    /// The key is absent: the chain's first free slot, if any, and its
    /// very last slot (where the chain is extended) with what it holds.
    Absent { free: Option<usize>, last_slot_off: usize, last: Slot },
}

/// Allocator cells consumed by an [`ClusterHash::insert_txn`]; return
/// them with [`ClusterHash::undo_insert`] if the transaction aborts.
#[derive(Debug, Clone, Copy)]
pub struct PreparedInsert {
    entry_off: usize,
    ind: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::{HtmConfig, HtmStats};
    use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};
    use std::sync::Arc;

    fn setup(main_buckets: usize, cap: usize) -> (Arc<Cluster>, ClusterHash, Executor) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 8 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(0, 8 << 20);
        let table = ClusterHash::create(&mut arena, 0, main_buckets, cap, 64);
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        (cluster, table, exec)
    }

    #[test]
    fn insert_get_roundtrip() {
        let (cluster, table, exec) = setup(64, 1000);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 42, b"hello").unwrap();
        let mut txn = region.begin(exec.config());
        let e = table.get_local(&mut txn, 42).unwrap().expect("found");
        assert_eq!(e.read_value(&mut txn).unwrap(), b"hello");
        assert!(table.get_local(&mut txn, 43).unwrap().is_none());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (cluster, table, exec) = setup(64, 1000);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 1, b"a").unwrap();
        assert_eq!(table.insert(&exec, region, 1, b"b"), Err(InsertError::Duplicate));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn chains_grow_past_bucket_capacity() {
        // 1 main bucket forces chaining after 8 inserts.
        let (cluster, table, exec) = setup(1, 1000);
        let region = cluster.node(0).region();
        for k in 0..100u64 {
            table.insert(&exec, region, k, &k.to_le_bytes()).unwrap();
        }
        let mut txn = region.begin(exec.config());
        for k in 0..100u64 {
            let e = table.get_local(&mut txn, k).unwrap().expect("found");
            assert_eq!(e.read_value(&mut txn).unwrap(), k.to_le_bytes());
        }
    }

    #[test]
    fn delete_then_lookup_misses_and_slot_is_reused() {
        let (cluster, table, exec) = setup(1, 1000);
        let region = cluster.node(0).region();
        for k in 0..20u64 {
            table.insert(&exec, region, k, b"x").unwrap();
        }
        assert!(table.delete(&exec, region, 7));
        assert!(!table.delete(&exec, region, 7));
        let mut txn = region.begin(exec.config());
        assert!(table.get_local(&mut txn, 7).unwrap().is_none());
        drop(txn);
        // Reinsert lands in the freed hole and is findable.
        table.insert(&exec, region, 107, b"y").unwrap();
        let mut txn = region.begin(exec.config());
        assert!(table.get_local(&mut txn, 107).unwrap().is_some());
        drop(txn);
        // So does one into a hole in line 1 of the main bucket: slot 5.
        let slot5_key = table.desc().main_bucket_off(0) + 5 * SLOT_BYTES + 8;
        assert_eq!(region.read_u64_nt(slot5_key), 5);
        assert!(table.delete(&exec, region, 5));
        table.insert(&exec, region, 105, b"z").unwrap();
        assert_eq!(region.read_u64_nt(slot5_key), 105);
    }

    /// An attempt that aborts after it took an indirect bucket gives the
    /// bucket back: nobody else knows it was taken.
    #[test]
    fn aborted_chain_extension_returns_the_indirect_bucket() {
        let (cluster, table, exec) = setup(1, 1000);
        let region = cluster.node(0).region();
        for k in 0..ASSOC as u64 {
            table.insert(&exec, region, k, b"x").unwrap();
        }
        // Room for the entry's lines, not for the bucket's.
        let tight = HtmConfig { write_capacity_lines: 3, ..HtmConfig::default() };
        let mut txn = region.begin(&tight);
        assert_eq!(table.insert_txn(&mut txn, 99, b"y").unwrap_err(), Abort::Capacity);
        assert_eq!(table.indirect.live(), 0);
    }

    #[test]
    fn remote_lookup_and_read() {
        let (cluster, table, exec) = setup(64, 1000);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 5, b"remote value").unwrap();
        let qp = cluster.qp(1);
        match table.remote_lookup(&qp, 5) {
            LookupResult::Found { addr, slot, reads } => {
                assert_eq!(reads, 1);
                let (h, v) = table.remote_read_entry(&qp, addr, &slot).expect("live");
                assert_eq!(h.key, 5);
                assert_eq!(v, b"remote value");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(table.remote_lookup(&qp, 6), LookupResult::NotFound { reads: 1 }));
    }

    #[test]
    fn remote_lookup_follows_chains() {
        let (cluster, table, exec) = setup(1, 1000);
        let region = cluster.node(0).region();
        for k in 0..30u64 {
            table.insert(&exec, region, k, b"z").unwrap();
        }
        let qp = cluster.qp(1);
        let deep = (0..30u64).map(|k| table.remote_lookup(&qp, k).reads()).max().unwrap();
        assert!(deep >= 2, "chained keys need multiple READs, got {deep}");
    }

    #[test]
    fn incarnation_check_catches_delete() {
        let (cluster, table, exec) = setup(64, 1000);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 9, b"old").unwrap();
        let qp = cluster.qp(1);
        let (addr, slot) = match table.remote_lookup(&qp, 9) {
            LookupResult::Found { addr, slot, .. } => (addr, slot),
            _ => panic!("must find"),
        };
        table.delete(&exec, region, 9);
        assert!(table.remote_read_entry(&qp, addr, &slot).is_none(), "stale location detected");
    }

    #[test]
    fn remote_write_value_visible_locally() {
        let (cluster, table, exec) = setup(64, 1000);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 3, b"before").unwrap();
        let qp = cluster.qp(1);
        let addr = match table.remote_lookup(&qp, 3) {
            LookupResult::Found { addr, .. } => addr,
            _ => panic!(),
        };
        table.remote_write_value(&qp, addr, 1, b"after!");
        let mut txn = region.begin(exec.config());
        let e = table.get_local(&mut txn, 3).unwrap().unwrap();
        assert_eq!(e.read_value(&mut txn).unwrap(), b"after!");
    }

    /// An update cut short after any prefix of its WRITEs must never show
    /// the new version over the old bytes. Timeouts injected from a seed
    /// refuse a WRITE with no memory effect, which stops the update there.
    #[test]
    fn interrupted_remote_write_never_shows_new_version_over_old_value() {
        use drtm_rdma::FaultConfig;
        let mut stopped_after_first_write = 0;
        for seed in (1..=32u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            let cluster = Cluster::new(ClusterConfig {
                nodes: 2,
                region_size: 1 << 20,
                profile: LatencyProfile::zero(),
                faults: FaultConfig {
                    seed,
                    delay_prob: 0.5,
                    delay_ns: 2,
                    deadline_ns: 1,
                    ..FaultConfig::default()
                },
                ..Default::default()
            });
            let mut arena = Arena::new(0, 1 << 20);
            let table = ClusterHash::create(&mut arena, 0, 8, 8, 64);
            let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
            let region = cluster.node(0).region();
            table.insert(&exec, region, 3, b"before").unwrap();
            let entry = {
                let mut txn = region.begin(exec.config());
                table.get_local(&mut txn, 3).unwrap().unwrap()
            };
            let qp = cluster.qp(1);
            let addr = GlobalAddr::new(0, entry.offset);
            // A refused WRITE panics out of the infallible verb.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                table.remote_write_value(&qp, addr, 1, b"after!")
            }));
            let version = entry.read_header_nt(region).version;
            let mut value = [0u8; 6];
            region.read_nt(entry.value_off(), &mut value);
            assert!(
                version == 0 || &value == b"after!",
                "seed {seed}: version {version} over value {value:?}"
            );
            stopped_after_first_write += (version == 0 && &value == b"after!") as u32;
        }
        assert!(stopped_after_first_write > 0, "no seed stopped the update between its WRITEs");
    }

    #[test]
    fn pool_exhaustion_reported() {
        let (cluster, table, exec) = setup(64, 2);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 1, b"a").unwrap();
        table.insert(&exec, region, 2, b"b").unwrap();
        assert_eq!(table.insert(&exec, region, 3, b"c"), Err(InsertError::Full));
    }

    #[test]
    fn concurrent_inserts_all_land() {
        let (cluster, table, exec) = setup(16, 4000);
        let table = Arc::new(table);
        let mut hs = Vec::new();
        for t in 0..4u64 {
            let table = table.clone();
            let cluster = cluster.clone();
            let exec = exec.clone();
            hs.push(std::thread::spawn(move || {
                let region = cluster.node(0).region();
                for i in 0..200u64 {
                    table.insert(&exec, region, t * 1000 + i, b"v").unwrap();
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(table.len(), 800);
        let region = cluster.node(0).region();
        let mut txn = region.begin(exec.config());
        for t in 0..4u64 {
            for i in 0..200u64 {
                assert!(table.get_local(&mut txn, t * 1000 + i).unwrap().is_some());
            }
        }
    }
}
