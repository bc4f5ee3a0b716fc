//! FaRM-KV-style Hopscotch hash table (baseline for Table 4 / Figure 10).
//!
//! FaRM's key-value store [Dragojević et al., NSDI'14] uses a variant of
//! Hopscotch hashing with a neighbourhood of 8: every key resides within
//! 8 slots of its home bucket, so a single one-sided RDMA READ of the
//! whole neighbourhood answers any GET. Two layouts are modelled
//! (Table 3 footnote):
//!
//! * `HopscotchVariant::Inline` (FaRM-KV/I) — the value lives inside
//!   the slot; one READ suffices but its size is 8 × (slot + value), so
//!   throughput collapses as values grow (Figure 10(b)).
//! * `HopscotchVariant::Offset` (FaRM-KV/O) — the slot holds an offset;
//!   a second READ fetches the value.
//!
//! PUTs go to the host (FaRM uses a circular buffer + polling; a host
//! mutex models the serialisation) where classic hopscotch displacement
//! keeps the invariant.

use parking_lot::Mutex;

use drtm_htm::Region;
use drtm_rdma::{GlobalAddr, NodeId, Qp};

use drtm_memstore::{hash64, Arena, Entry, FreeList};

/// Neighbourhood size (slots scanned by one READ).
pub(crate) const NEIGHBOURHOOD: usize = 8;

/// Which FaRM-KV layout a table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HopscotchVariant {
    /// Value stored inline in the slot (FaRM-KV/I).
    Inline,
    /// Slot stores an offset into the entry pool (FaRM-KV/O).
    Offset,
}

/// Geometry of a [`HopscotchHash`].
#[derive(Debug, Clone)]
pub(crate) struct HopscotchHashDesc {
    /// Owning machine.
    pub node: NodeId,
    /// Layout variant.
    pub variant: HopscotchVariant,
    /// Region offset of the slot array.
    pub base: usize,
    /// Number of slots (power of two).
    pub buckets: usize,
    /// Region offset of the entry pool (`Offset` variant only).
    pub entry_base: usize,
    /// Fixed value capacity in bytes.
    pub value_cap: usize,
}

impl HopscotchHashDesc {
    /// Bytes per slot for this variant.
    pub(crate) fn slot_bytes(&self) -> usize {
        match self.variant {
            // key(8) + len(4) + pad(4) + value.
            HopscotchVariant::Inline => (16 + self.value_cap).next_multiple_of(8),
            // key(8) + offset(8).
            HopscotchVariant::Offset => 16,
        }
    }

    /// Bytes fetched by one neighbourhood READ.
    pub(crate) fn neighbourhood_bytes(&self) -> usize {
        self.slot_bytes() * NEIGHBOURHOOD
    }
}

/// The FaRM-KV-like baseline table.
#[derive(Debug)]
pub(crate) struct HopscotchHash {
    desc: HopscotchHashDesc,
    entries: FreeList,
    write_lock: Mutex<()>,
}

impl HopscotchHash {
    /// Carves a table out of `arena`.
    pub(crate) fn create(
        arena: &mut Arena,
        node: NodeId,
        variant: HopscotchVariant,
        buckets: usize,
        entry_capacity: usize,
        value_cap: usize,
    ) -> Self {
        let buckets = buckets.next_power_of_two();
        let mut desc =
            HopscotchHashDesc { node, variant, base: 0, buckets, entry_base: 0, value_cap };
        desc.base = arena.reserve(buckets * desc.slot_bytes());
        desc.entry_base = match variant {
            HopscotchVariant::Offset => arena.reserve(Entry::footprint(value_cap) * entry_capacity),
            HopscotchVariant::Inline => 0,
        };
        let entries = FreeList::new(desc.entry_base, Entry::footprint(value_cap), entry_capacity);
        HopscotchHash { desc, entries, write_lock: Mutex::new(()) }
    }

    fn home(&self, key: u64) -> usize {
        hash64(key) as usize & (self.desc.buckets - 1)
    }

    fn slot_off(&self, i: usize) -> usize {
        self.desc.base + (i & (self.desc.buckets - 1)) * self.desc.slot_bytes()
    }

    fn slot_key(&self, region: &Region, i: usize) -> u64 {
        let mut b = [0u8; 8];
        region.read_nt(self.slot_off(i), &mut b);
        u64::from_le_bytes(b)
    }

    fn write_slot(&self, region: &Region, i: usize, key: u64, value: &[u8], entry_off: u64) {
        let off = self.slot_off(i);
        match self.desc.variant {
            HopscotchVariant::Inline => {
                let mut b = vec![0u8; self.desc.slot_bytes()];
                b[0..8].copy_from_slice(&key.to_le_bytes());
                b[8..12].copy_from_slice(&(value.len() as u32).to_le_bytes());
                b[16..16 + value.len()].copy_from_slice(value);
                region.write_nt(off, &b);
            }
            HopscotchVariant::Offset => {
                let mut b = [0u8; 16];
                b[0..8].copy_from_slice(&key.to_le_bytes());
                b[8..16].copy_from_slice(&entry_off.to_le_bytes());
                region.write_nt(off, &b);
            }
        }
    }

    fn clear_slot(&self, region: &Region, i: usize) {
        region.write_nt(self.slot_off(i), &[0u8; 16]);
    }

    /// Host-side insert. Returns `false` if displacement cannot restore
    /// the neighbourhood invariant (table effectively full) or on a
    /// duplicate key.
    pub(crate) fn insert(&self, region: &Region, key: u64, value: &[u8]) -> bool {
        assert!(key != 0, "key 0 is the empty-slot sentinel");
        assert!(value.len() <= self.desc.value_cap, "value exceeds table capacity");
        let _g = self.write_lock.lock();
        let home = self.home(key);
        // Duplicate check within the neighbourhood.
        for d in 0..NEIGHBOURHOOD {
            if self.slot_key(region, home + d) == key {
                return false;
            }
        }
        // Linear-probe for a free slot.
        let mut free = None;
        for d in 0..self.desc.buckets {
            if self.slot_key(region, home + d) == 0 {
                free = Some(home + d);
                break;
            }
        }
        let Some(mut free) = free else { return false };
        // Hop the hole backwards until it is inside the neighbourhood.
        while free - home >= NEIGHBOURHOOD {
            let mut moved = false;
            // Try to move a key from [free-H+1, free) into `free`. Mutating
            // `free` inside the loop does not change this range; the new value
            // seeds the next displacement round of the outer loop.
            #[allow(clippy::mut_range_bound)]
            for cand in free + 1 - NEIGHBOURHOOD..free {
                let k = self.slot_key(region, cand);
                if k == 0 {
                    continue;
                }
                let h = self.home(k);
                // Moving k to `free` must keep it within its own
                // neighbourhood: free - h < H (positions are monotone in
                // this simplified non-wrapping arithmetic; the table is
                // sized with slack so probes never wrap in practice).
                if free >= h && free - h < NEIGHBOURHOOD {
                    // Copy cand's slot to free, then clear cand.
                    let mut b = vec![0u8; self.desc.slot_bytes()];
                    region.read_nt(self.slot_off(cand), &mut b);
                    region.write_nt(self.slot_off(free), &b);
                    self.clear_slot(region, cand);
                    free = cand;
                    moved = true;
                    break;
                }
            }
            if !moved {
                return false;
            }
        }
        // Materialise the value.
        let entry_off = match self.desc.variant {
            HopscotchVariant::Inline => 0,
            HopscotchVariant::Offset => {
                let Some(eo) = self.entries.alloc() else { return false };
                Entry::at(eo).init_nt(region, key, value);
                eo as u64
            }
        };
        self.write_slot(region, free, key, value, entry_off);
        true
    }

    /// Remote GET: one neighbourhood READ (+ one entry READ for the
    /// `Offset` variant). Returns `(value, lookup_reads)`; the entry READ
    /// is not counted as a lookup READ (Table 4 convention).
    pub(crate) fn remote_get(&self, qp: &Qp, key: u64) -> (Option<Vec<u8>>, u32) {
        let sb = self.desc.slot_bytes();
        let mut buf = vec![0u8; self.desc.neighbourhood_bytes()];
        let home = self.home(key);
        // A neighbourhood may wrap the array end; issue one READ in the
        // common case, two when it wraps (counted faithfully).
        let mut reads = 0u32;
        let first = (self.desc.buckets - home).min(NEIGHBOURHOOD);
        qp.read(GlobalAddr::new(self.desc.node, self.slot_off(home)), &mut buf[..first * sb]);
        reads += 1;
        if first < NEIGHBOURHOOD {
            qp.read(GlobalAddr::new(self.desc.node, self.desc.base), &mut buf[first * sb..]);
            reads += 1;
        }
        for d in 0..NEIGHBOURHOOD {
            let at = d * sb;
            let k = u64::from_le_bytes(buf[at..at + 8].try_into().expect("slot"));
            if k != key {
                continue;
            }
            match self.desc.variant {
                HopscotchVariant::Inline => {
                    let len =
                        u32::from_le_bytes(buf[at + 8..at + 12].try_into().expect("len")) as usize;
                    return (Some(buf[at + 16..at + 16 + len].to_vec()), reads);
                }
                HopscotchVariant::Offset => {
                    let off =
                        u64::from_le_bytes(buf[at + 8..at + 16].try_into().expect("off")) as usize;
                    let mut image = vec![0u8; Entry::image_len(self.desc.value_cap)];
                    qp.read(GlobalAddr::new(self.desc.node, off), &mut image);
                    let (_, value) = Entry::parse(&image);
                    return (Some(image[value].to_vec()), reads);
                }
            }
        }
        (None, reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};
    use std::sync::Arc;

    fn setup(variant: HopscotchVariant, buckets: usize) -> (Arc<Cluster>, HopscotchHash) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 16 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(64, (16 << 20) - 64);
        let t = HopscotchHash::create(&mut arena, 0, variant, buckets, buckets, 64);
        (cluster, t)
    }

    #[test]
    fn inline_roundtrip_single_read() {
        let (cluster, t) = setup(HopscotchVariant::Inline, 256);
        let region = cluster.node(0).region();
        assert!(t.insert(region, 11, b"inline!"));
        let qp = cluster.qp(1);
        let before = cluster.counters().snapshot();
        let (v, lookups) = t.remote_get(&qp, 11);
        assert_eq!(v.unwrap(), b"inline!");
        assert_eq!(lookups, 1);
        let d = cluster.counters().snapshot().since(&before);
        assert_eq!(d.reads, 1, "inline variant needs exactly one READ");
    }

    #[test]
    fn offset_roundtrip_two_reads() {
        let (cluster, t) = setup(HopscotchVariant::Offset, 256);
        let region = cluster.node(0).region();
        assert!(t.insert(region, 11, b"offset!"));
        let qp = cluster.qp(1);
        let before = cluster.counters().snapshot();
        let (v, lookups) = t.remote_get(&qp, 11);
        assert_eq!(v.unwrap(), b"offset!");
        assert_eq!(lookups, 1);
        let d = cluster.counters().snapshot().since(&before);
        assert_eq!(d.reads, 2, "offset variant pays one extra READ");
    }

    #[test]
    fn displacement_preserves_neighbourhood_invariant() {
        let (cluster, t) = setup(HopscotchVariant::Offset, 512);
        let region = cluster.node(0).region();
        let n = 460; // ~90 % occupancy
        let mut inserted = Vec::new();
        for k in 1..=2 * n {
            if t.insert(region, k, &k.to_le_bytes()) {
                inserted.push(k);
            }
            if inserted.len() == n as usize {
                break;
            }
        }
        assert!(inserted.len() >= 400, "hopscotch should fill to high occupancy");
        let qp = cluster.qp(1);
        for &k in &inserted {
            let (v, _) = t.remote_get(&qp, k);
            assert_eq!(v.expect("reachable"), k.to_le_bytes(), "key {k}");
        }
    }

    #[test]
    fn miss_returns_none() {
        let (cluster, t) = setup(HopscotchVariant::Inline, 64);
        let qp = cluster.qp(1);
        let (v, reads) = t.remote_get(&qp, 999);
        assert!(v.is_none());
        assert!(reads >= 1);
    }

    #[test]
    fn duplicate_rejected() {
        let (cluster, t) = setup(HopscotchVariant::Inline, 64);
        let region = cluster.node(0).region();
        assert!(t.insert(region, 5, b"a"));
        assert!(!t.insert(region, 5, b"b"));
    }

    #[test]
    fn inline_reads_are_bigger_than_offset_lookups() {
        let (ci, ti) = setup(HopscotchVariant::Inline, 64);
        let (co, to) = setup(HopscotchVariant::Offset, 64);
        ti.insert(ci.node(0).region(), 3, b"v");
        to.insert(co.node(0).region(), 3, b"v");
        ti.remote_get(&ci.qp(1), 3);
        to.remote_get(&co.qp(1), 3);
        let bi = ci.counters().snapshot().read_bytes;
        // Offset lookup READ alone (first read) is 128 B vs inline ~640 B.
        assert!(bi as usize >= ti.desc.neighbourhood_bytes());
        assert!(ti.desc.neighbourhood_bytes() > to.desc.neighbourhood_bytes());
    }
}

#[cfg(test)]
mod wrap_tests {
    use super::*;
    use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};

    /// Keys whose home bucket sits near the array end exercise the
    /// two-READ wrap-around path of `remote_get`.
    #[test]
    fn neighbourhood_wrap_still_finds_keys() {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 4 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(64, (4 << 20) - 64);
        let t = HopscotchHash::create(&mut arena, 0, HopscotchVariant::Inline, 64, 64, 16);
        let region = cluster.node(0).region();
        // Find keys homed in the last few buckets.
        let mut near_end = Vec::new();
        for k in 1..50_000u64 {
            let home = hash64(k) as usize & 63;
            if home >= 61 {
                near_end.push(k);
                if near_end.len() == 8 {
                    break;
                }
            }
        }
        for &k in &near_end {
            assert!(t.insert(region, k, b"wrap"), "insert {k}");
        }
        let qp = cluster.qp(1);
        for &k in &near_end {
            let (v, reads) = t.remote_get(&qp, k);
            assert_eq!(v.expect("found"), b"wrap", "key {k}");
            assert!(reads <= 2, "at most two READs even when wrapping");
        }
    }
}
