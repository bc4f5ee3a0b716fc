//! HTM-protected B+ tree for ordered stores (§5, DBX-style).
//!
//! DrTM keeps ordered tables (TPC-C's order/index tables) in a B+ tree
//! whose operations run inside the caller's HTM transaction, exactly like
//! the DBX tree the paper reuses: no latches, no lock coupling — strong
//! atomicity detects every structural race and aborts one side. Remote
//! accesses to ordered stores go over SEND/RECV verbs (the transaction
//! layer ships whole transaction pieces instead, §6.5), so this tree has
//! no one-sided RDMA path.
//!
//! Layout: fixed 256-byte nodes in a pool inside the owner's region,
//! line-aligned ([`Arena::reserve`]), so a node is four cache lines —
//! 0: header word, next-leaf link, keys 0–5; 1: keys 6–13; 2: values (of
//! a leaf) or children (of an internal node) 0–7; 3: the same, 8–14.
//!
//! An HTM region tracks and pays per line, so every operation works on a
//! [`Node`] image: line 0 in one access, line 1 only when a search passes
//! key 5 or a shift has to move the keys behind it, the search itself in
//! registers, then one value or child word. Shifts, splits and removals
//! move key and value *ranges*, one access each. The lines touched are
//! the ones a word-at-a-time walk over the same node would touch — only
//! the number of trips changes (`tests/index_path_cost.rs` pins both).
//! The free list is threaded *through region memory* (head pointer + next
//! links), so node allocation participates in the HTM transaction and
//! rolls back on abort — no leak on retry.
//!
//! Deletion removes keys from leaves without rebalancing (underfull
//! nodes persist, and no node is ever freed: size the pool with
//! [`BTree::pool_for`] for every key the tree will ever see); TPC-C's
//! delete pattern (new-order index consumption) never un-balances the
//! tree enough to matter, and the paper's tree inherits the same
//! simplification from DBX.

use drtm_htm::{Abort, HtmTxn, Region, LINE_SIZE};
use drtm_rdma::NodeId;

use crate::alloc::{Arena, ABORT_POOL_FULL};
use crate::words::{read_words, write_words};

/// Maximum keys per node.
const CAP: usize = 14;
/// Node footprint in bytes.
const NODE_BYTES: usize = 256;
/// Offset of the key array inside a node.
const KEYS_OFF: usize = 16;
/// Offset of the value/child array inside a node.
const VALS_OFF: usize = KEYS_OFF + CAP * 8;
/// Keys that share line 0 with the header and the next-leaf link.
const LINE0_KEYS: usize = (LINE_SIZE - KEYS_OFF) / 8;

/// Geometry of a [`BTree`] inside its owner's region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BTreeDesc {
    /// Owning machine.
    pub node: NodeId,
    /// Region offset of the tree header (root pointer, free-list head).
    pub meta_base: usize,
    /// Region offset of the node pool.
    pub pool_base: usize,
    /// Node-pool capacity.
    pub pool_cap: usize,
}

impl BTreeDesc {
    fn root_ptr_off(&self) -> usize {
        self.meta_base
    }

    fn free_head_off(&self) -> usize {
        self.meta_base + 8
    }
}

/// An HTM-protected B+ tree mapping `u64` keys to `u64` payloads
/// (typically entry offsets or packed record ids).
#[derive(Debug, Clone)]
pub struct BTree {
    desc: BTreeDesc,
}

/// The header word of a node.
fn header(leaf: bool, nkeys: usize) -> u64 {
    (leaf as u64) | ((nkeys as u64) << 1)
}

/// A node's header, next-leaf link and keys, as read from the region.
struct Node {
    off: usize,
    leaf: bool,
    nkeys: usize,
    next: usize,
    /// Keys `..loaded` have been read: those of line 0, or all `nkeys`.
    keys: [u64; CAP],
    loaded: usize,
}

impl Node {
    /// Reads line 0 of the node at `off`.
    fn load(txn: &mut HtmTxn<'_>, off: usize) -> Result<Node, Abort> {
        let mut line = [0; LINE_SIZE / 8];
        read_words(txn, off, &mut line)?;
        let mut keys = [0; CAP];
        keys[..LINE0_KEYS].copy_from_slice(&line[2..]);
        let (leaf, nkeys) = (line[0] & 1 != 0, (line[0] >> 1) as usize & 0x7FFF);
        Ok(Node { off, leaf, nkeys, next: line[1] as usize, keys, loaded: nkeys.min(LINE0_KEYS) })
    }

    /// Reads line 1, if the node has keys there that are not here yet.
    fn load_rest(&mut self, txn: &mut HtmTxn<'_>) -> Result<(), Abort> {
        if self.loaded < self.nkeys {
            read_words(txn, self.off + LINE_SIZE, &mut self.keys[LINE0_KEYS..])?;
            self.loaded = self.nkeys;
        }
        Ok(())
    }

    /// Index of the first key from `from` on that fails `pass` (which
    /// sorted keys pass up to some point), `nkeys` if none does. Line 1
    /// is read only if the search gets past line 0.
    fn first_failing(
        &mut self,
        txn: &mut HtmTxn<'_>,
        from: usize,
        pass: impl Fn(usize, u64) -> bool,
    ) -> Result<usize, Abort> {
        loop {
            if let Some(i) = (from..self.loaded).find(|&i| !pass(i, self.keys[i])) {
                return Ok(i);
            }
            if self.loaded == self.nkeys {
                return Ok(self.nkeys);
            }
            self.load_rest(txn)?;
        }
    }

    /// Index of `key` in this node, or of the first key above it.
    fn find(&mut self, txn: &mut HtmTxn<'_>, key: u64) -> Result<Result<usize, usize>, Abort> {
        let i = self.first_failing(txn, 0, |_, k| k < key)?;
        Ok(if i < self.nkeys && self.keys[i] == key { Ok(i) } else { Err(i) })
    }

    /// The child of this internal node that covers `key`, as (index,
    /// region offset): child `i` covers the keys below key `i`, the last
    /// child the tail, and equal separators send the search right.
    fn child(&mut self, txn: &mut HtmTxn<'_>, key: u64) -> Result<(usize, usize), Abort> {
        let ci = self.find(txn, key)?.map_or_else(|above| above, |at| at + 1);
        Ok((ci, txn.read_u64(self.val_off(ci))? as usize))
    }

    /// Region offset of value (leaf) or child (internal node) `i`.
    fn val_off(&self, i: usize) -> usize {
        self.off + VALS_OFF + i * 8
    }

    /// Writes the header word and the next-leaf link back.
    fn write_header(&self, txn: &mut HtmTxn<'_>) -> Result<(), Abort> {
        write_words(txn, self.off, &[header(self.leaf, self.nkeys), self.next as u64])
    }

    /// Inserts `key` at index `ki` with `val`, its value (leaf) or the
    /// child to its right (internal node): the keys from `ki` on and
    /// their values move up by one, each range in one write.
    fn insert_at(
        &mut self,
        txn: &mut HtmTxn<'_>,
        ki: usize,
        key: u64,
        val: u64,
    ) -> Result<(), Abort> {
        self.load_rest(txn)?;
        let moved = self.nkeys - ki;
        self.keys.copy_within(ki..self.nkeys, ki + 1);
        self.keys[ki] = key;
        write_words(txn, self.off + KEYS_OFF + ki * 8, &self.keys[ki..=self.nkeys])?;
        let vi = ki + !self.leaf as usize;
        let mut vals = [val; CAP + 1];
        read_words(txn, self.val_off(vi), &mut vals[1..moved + 1])?;
        write_words(txn, self.val_off(vi), &vals[..moved + 1])?;
        self.nkeys += 1;
        self.loaded = self.nkeys;
        self.write_header(txn)
    }
}

impl BTree {
    /// Nodes that hold `keys` keys in whatever order they arrive. A full
    /// node splits 7/7 and ascending keys never refill the left half, so
    /// at worst every leaf is half full, `keys / 7` of them, under
    /// internal nodes of 7 children: `keys / 7 · (1 + 1/7 + …) = keys / 6`,
    /// plus slack for a node in the making per level. [`BTree::remove`]
    /// frees nothing: `keys` counts every key ever inserted.
    pub fn pool_for(keys: usize) -> usize {
        keys / (CAP / 2 - 1) + 64
    }

    /// Creates an empty tree, initialising the pool free list and an
    /// empty root leaf directly in region memory (setup time, before any
    /// concurrency).
    pub fn create(arena: &mut Arena, region: &Region, node: NodeId, pool_cap: usize) -> Self {
        assert!(pool_cap >= 2, "pool too small");
        let meta_base = arena.reserve(16);
        let pool_base = arena.reserve(pool_cap * NODE_BYTES);
        let desc = BTreeDesc { node, meta_base, pool_base, pool_cap };
        // Chain nodes 1..pool_cap into the free list via their word1.
        for i in 1..pool_cap {
            let off = pool_base + i * NODE_BYTES;
            let next = if i + 1 < pool_cap { pool_base + (i + 1) * NODE_BYTES } else { 0 };
            region.write_u64_nt(off + 8, next as u64);
        }
        region.write_u64_nt(desc.free_head_off(), (pool_base + NODE_BYTES) as u64);
        // Node 0 is the root: an empty leaf.
        region.write_u64_nt(pool_base, header(true, 0));
        region.write_u64_nt(pool_base + 8, 0);
        region.write_u64_nt(desc.root_ptr_off(), pool_base as u64);
        BTree { desc }
    }

    /// The tree geometry.
    pub fn desc(&self) -> &BTreeDesc {
        &self.desc
    }

    fn alloc_node(&self, txn: &mut HtmTxn<'_>) -> Result<usize, Abort> {
        let head = txn.read_u64(self.desc.free_head_off())? as usize;
        if head == 0 {
            // Pool exhausted: surface as an explicit abort; the caller's
            // fallback will report resource exhaustion.
            return Err(Abort::Explicit(ABORT_POOL_FULL));
        }
        let next = txn.read_u64(head + 8)?;
        txn.write_u64(self.desc.free_head_off(), next)?;
        Ok(head)
    }

    /// Descends to the leaf that covers `key`: one access for the root
    /// pointer and at most three per level above the leaf.
    fn leaf_for(&self, txn: &mut HtmTxn<'_>, key: u64) -> Result<Node, Abort> {
        let root = txn.read_u64(self.desc.root_ptr_off())? as usize;
        let mut n = Node::load(txn, root)?;
        while !n.leaf {
            let (_, child) = n.child(txn, key)?;
            n = Node::load(txn, child)?;
        }
        Ok(n)
    }

    /// Transactionally looks up `key`.
    pub fn get(&self, txn: &mut HtmTxn<'_>, key: u64) -> Result<Option<u64>, Abort> {
        let mut n = self.leaf_for(txn, key)?;
        n.find(txn, key)?.ok().map(|i| txn.read_u64(n.val_off(i))).transpose()
    }

    /// Transactionally inserts `key → val`; returns `false` (and updates
    /// the payload) when the key already existed.
    pub fn insert(&self, txn: &mut HtmTxn<'_>, key: u64, val: u64) -> Result<bool, Abort> {
        let root = txn.read_u64(self.desc.root_ptr_off())? as usize;
        match self.insert_rec(txn, root, key, val)? {
            InsertOutcome::Done(fresh) => Ok(fresh),
            InsertOutcome::Split(sep, right) => {
                // Grow a new root over the two halves.
                let nr = self.alloc_node(txn)?;
                write_words(txn, nr, &[header(false, 1), 0, sep])?;
                write_words(txn, nr + VALS_OFF, &[root as u64, right as u64])?;
                txn.write_u64(self.desc.root_ptr_off(), nr as u64)?;
                Ok(true)
            }
        }
    }

    fn insert_rec(
        &self,
        txn: &mut HtmTxn<'_>,
        off: usize,
        key: u64,
        val: u64,
    ) -> Result<InsertOutcome, Abort> {
        let mut n = Node::load(txn, off)?;
        // What this node takes in: the pair itself, or the separator and
        // right half of the child that split under it.
        let (ki, key, val) = if n.leaf {
            match n.find(txn, key)? {
                Ok(i) => {
                    txn.write_u64(n.val_off(i), val)?;
                    return Ok(InsertOutcome::Done(false));
                }
                Err(i) => (i, key, val),
            }
        } else {
            let (ci, child) = n.child(txn, key)?;
            match self.insert_rec(txn, child, key, val)? {
                InsertOutcome::Split(sep, right) => (ci, sep, right as u64),
                done => return Ok(done),
            }
        };
        n.insert_at(txn, ki, key, val)?;
        if n.nkeys == CAP {
            return self.split(txn, &mut n);
        }
        Ok(InsertOutcome::Done(true))
    }

    /// Splits the full node `n`: the upper half goes to a new right
    /// sibling in two writes, header with keys and values. A leaf splits
    /// 7/7, its separator staying as the right leaf's first key; an
    /// internal node's middle key moves up, 6 keys and 7 children right.
    fn split(&self, txn: &mut HtmTxn<'_>, n: &mut Node) -> Result<InsertOutcome, Abort> {
        const HALF: usize = CAP / 2;
        let right = self.alloc_node(txn)?;
        let sep = n.keys[HALF];
        let from = HALF + !n.leaf as usize;
        let mut vals = [0; CAP - HALF];
        read_words(txn, n.val_off(from), &mut vals)?;
        let mut head = [0; 2 + CAP - HALF];
        let head = &mut head[..2 + CAP - from];
        head[0] = header(n.leaf, CAP - from);
        head[1] = n.next as u64;
        head[2..].copy_from_slice(&n.keys[from..]);
        write_words(txn, right, head)?;
        write_words(txn, right + VALS_OFF, &vals)?;
        n.nkeys = HALF;
        if n.leaf {
            n.next = right;
        }
        n.write_header(txn)?;
        Ok(InsertOutcome::Split(sep, right))
    }

    /// Transactionally removes `key`; returns whether it was present.
    /// Leaves may become underfull (no rebalancing, see module docs).
    pub fn remove(&self, txn: &mut HtmTxn<'_>, key: u64) -> Result<bool, Abort> {
        let mut n = self.leaf_for(txn, key)?;
        let Ok(i) = n.find(txn, key)? else { return Ok(false) };
        n.load_rest(txn)?;
        let moved = n.nkeys - 1 - i;
        write_words(txn, n.off + KEYS_OFF + i * 8, &n.keys[i + 1..n.nkeys])?;
        let mut vals = [0; CAP];
        read_words(txn, n.val_off(i + 1), &mut vals[..moved])?;
        write_words(txn, n.val_off(i), &vals[..moved])?;
        n.nkeys -= 1;
        n.write_header(txn)?;
        Ok(true)
    }

    /// Hands `f` the pairs with `lo <= key <= hi` in ascending order,
    /// `max` at most: per leaf it reads the key lines as far as the range
    /// goes and the values in it as one range.
    fn walk_range(
        &self,
        txn: &mut HtmTxn<'_>,
        lo: u64,
        hi: u64,
        max: usize,
        mut f: impl FnMut(u64, u64),
    ) -> Result<(), Abort> {
        let mut n = self.leaf_for(txn, lo)?;
        let mut room = max;
        loop {
            let a = n.first_failing(txn, 0, |_, k| k < lo)?;
            let full_at = a.saturating_add(room);
            let b = n.first_failing(txn, a, |i, k| k <= hi && i < full_at)?;
            let mut vals = [0; CAP];
            read_words(txn, n.val_off(a), &mut vals[..b - a])?;
            n.keys[a..b].iter().zip(vals).for_each(|(&k, v)| f(k, v));
            room -= b - a;
            if b < n.nkeys || n.next == 0 || room == 0 {
                return Ok(());
            }
            n = Node::load(txn, n.next)?;
        }
    }

    /// Transactionally collects up to `max` pairs with `lo <= key <= hi`,
    /// in ascending key order.
    pub fn scan_range(
        &self,
        txn: &mut HtmTxn<'_>,
        lo: u64,
        hi: u64,
        max: usize,
    ) -> Result<Vec<(u64, u64)>, Abort> {
        let mut out = Vec::with_capacity(max.min(CAP));
        self.walk_range(txn, lo, hi, max, |k, v| out.push((k, v)))?;
        Ok(out)
    }

    /// Transactionally returns the largest `(key, value)` with
    /// `lo <= key <= hi`, walking the whole range (TPC-C order-status:
    /// "last order by customer") and keeping its last pair.
    pub fn max_in_range(
        &self,
        txn: &mut HtmTxn<'_>,
        lo: u64,
        hi: u64,
    ) -> Result<Option<(u64, u64)>, Abort> {
        let mut last = None;
        self.walk_range(txn, lo, hi, usize::MAX, |k, v| last = Some((k, v)))?;
        Ok(last)
    }
}

enum InsertOutcome {
    /// Insert finished; `true` if the key was new.
    Done(bool),
    /// The node split: (separator, right-node offset) to add to parent.
    Split(u64, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::HtmConfig;
    use std::sync::Arc;

    fn setup(pool: usize) -> (Arc<Region>, BTree, HtmConfig) {
        let region = Arc::new(Region::new(pool * NODE_BYTES + 4096));
        let mut arena = Arena::new(0, pool * NODE_BYTES + 4096);
        let tree = BTree::create(&mut arena, &region, 0, pool);
        // Trees legitimately touch many lines on bulk operations.
        let cfg = HtmConfig {
            read_capacity_lines: 1 << 16,
            write_capacity_lines: 1 << 15,
            ..Default::default()
        };
        (region, tree, cfg)
    }

    /// Runs `f` in its own committed transaction, retrying conflicts.
    fn tx<T>(
        region: &Region,
        cfg: &HtmConfig,
        mut f: impl FnMut(&mut HtmTxn<'_>) -> Result<T, Abort>,
    ) -> T {
        loop {
            let mut t = region.begin(cfg);
            if let Ok(v) = f(&mut t) {
                if t.commit().is_ok() {
                    return v;
                }
            } else {
                panic!("tree op aborted unexpectedly");
            }
        }
    }

    #[test]
    fn insert_get_many_ordered() {
        let (region, tree, cfg) = setup(512);
        let n = 1000u64;
        for k in (0..n).rev() {
            let fresh = tx(&region, &cfg, |t| tree.insert(t, k, k * 10));
            assert!(fresh);
        }
        for k in 0..n {
            let got = tx(&region, &cfg, |t| tree.get(t, k));
            assert_eq!(got, Some(k * 10), "key {k}");
        }
        assert_eq!(tx(&region, &cfg, |t| tree.get(t, n + 5)), None);
    }

    #[test]
    fn update_in_place() {
        let (region, tree, cfg) = setup(16);
        assert!(tx(&region, &cfg, |t| tree.insert(t, 5, 1)));
        assert!(!tx(&region, &cfg, |t| tree.insert(t, 5, 2)));
        assert_eq!(tx(&region, &cfg, |t| tree.get(t, 5)), Some(2));
    }

    #[test]
    fn scan_range_is_sorted_and_bounded() {
        let (region, tree, cfg) = setup(512);
        for k in 0..500u64 {
            tx(&region, &cfg, |t| tree.insert(t, k * 2, k));
        }
        let got = tx(&region, &cfg, |t| tree.scan_range(t, 100, 140, 100));
        let keys: Vec<u64> = got.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, (50..=70).map(|k| k * 2).collect::<Vec<_>>());
        // Limit applies.
        let few = tx(&region, &cfg, |t| tree.scan_range(t, 0, u64::MAX, 7));
        assert_eq!(few.len(), 7);
        assert!(few.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn max_in_range_finds_last_order() {
        let (region, tree, cfg) = setup(128);
        for o in [3u64, 9, 17, 42] {
            tx(&region, &cfg, |t| tree.insert(t, 1000 + o, o));
        }
        let got = tx(&region, &cfg, |t| tree.max_in_range(t, 1000, 1999));
        assert_eq!(got, Some((1042, 42)));
        assert_eq!(tx(&region, &cfg, |t| tree.max_in_range(t, 2000, 3000)), None);
    }

    #[test]
    fn remove_then_miss() {
        let (region, tree, cfg) = setup(256);
        for k in 0..200u64 {
            tx(&region, &cfg, |t| tree.insert(t, k, k));
        }
        assert!(tx(&region, &cfg, |t| tree.remove(t, 77)));
        assert!(!tx(&region, &cfg, |t| tree.remove(t, 77)));
        assert_eq!(tx(&region, &cfg, |t| tree.get(t, 77)), None);
        assert_eq!(tx(&region, &cfg, |t| tree.get(t, 78)), Some(78));
        // Scans skip the hole.
        let got = tx(&region, &cfg, |t| tree.scan_range(t, 75, 80, 10));
        let keys: Vec<u64> = got.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![75, 76, 78, 79, 80]);
    }

    #[test]
    fn abort_rolls_back_allocation() {
        let (region, tree, cfg) = setup(64);
        let head_before = region.read_u64_nt(tree.desc().free_head_off());
        // Fill one leaf to the brink of splitting, then abort a splitting
        // insert: the allocated node must return to the free list.
        for k in 0..CAP as u64 - 1 {
            tx(&region, &cfg, |t| tree.insert(t, k, k));
        }
        let head_full = region.read_u64_nt(tree.desc().free_head_off());
        assert_eq!(head_before, head_full, "no split yet");
        let mut t = region.begin(&cfg);
        tree.insert(&mut t, 99, 99).unwrap(); // triggers a split in-buffer
        drop(t); // abort
        assert_eq!(region.read_u64_nt(tree.desc().free_head_off()), head_full);
        assert_eq!(tx(&region, &cfg, |t| tree.get(t, 99)), None);
    }

    #[test]
    fn pool_exhaustion_is_explicit_abort() {
        let (region, tree, cfg) = setup(3);
        let mut t = region.begin(&cfg);
        let mut err = None;
        for k in 0..200u64 {
            match tree.insert(&mut t, k, k) {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(Abort::Explicit(0xF0)));
    }

    /// A 14-key leaf splits 7/7 and ascending keys never refill the left
    /// half, so TPC-C's districts — interleaved ascending streams, one
    /// append point each — leave every leaf half full: the case
    /// `pool_for` sizes for. (`keys / 7 + 64` nodes ran out at 89 %.)
    #[test]
    fn pool_for_holds_interleaved_ascending_streams() {
        const KEYS: u64 = 70_000;
        const STREAMS: u64 = 80;
        let (region, tree, cfg) = setup(BTree::pool_for(KEYS as usize));
        let key = |i| ((i % STREAMS) << 32) | (i / STREAMS);
        for i in 0..KEYS {
            let mut t = region.begin(&cfg);
            assert_eq!(tree.insert(&mut t, key(i), i), Ok(true), "insert {i} of {KEYS}");
            t.commit().unwrap();
        }
        assert_eq!(tx(&region, &cfg, |t| tree.get(t, key(KEYS - 1))), Some(KEYS - 1));
    }

    #[test]
    fn concurrent_inserts_preserve_all_keys() {
        let (region, tree, cfg) = setup(2048);
        let tree = Arc::new(tree);
        let mut hs = Vec::new();
        for t in 0..4u64 {
            let region = region.clone();
            let tree = tree.clone();
            let cfg = cfg.clone();
            hs.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    let key = t * 10_000 + i;
                    loop {
                        let mut txn = region.begin(&cfg);
                        if tree.insert(&mut txn, key, key).is_ok() && txn.commit().is_ok() {
                            break;
                        }
                    }
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in 0..250u64 {
                let key = t * 10_000 + i;
                let got = tx(&region, &cfg, |txn| tree.get(txn, key));
                assert_eq!(got, Some(key), "key {key}");
            }
        }
    }
}
