//! Pilaf-style Cuckoo hash table (baseline for Table 4 / Figure 10).
//!
//! Pilaf [Mitchell et al., ATC'13] performs GETs with one-sided RDMA
//! READs over a 3-way Cuckoo hash table whose buckets hold a single slot
//! and are *self-verifying*: a checksum over the bucket detects races
//! with concurrent host-side writes. PUTs are shipped to the host over
//! SEND/RECV verbs.
//!
//! A remote GET probes the key's three candidate buckets in order — each
//! probe is one 32-byte RDMA READ — and then fetches the entry with one
//! more READ: this per-probe cost is exactly why Cuckoo needs more READs
//! per lookup than bucket-granular designs (Table 4).

use parking_lot::Mutex;

use drtm_htm::Region;
use drtm_rdma::{GlobalAddr, NodeId, Qp};

use drtm_memstore::{hash64, Arena, Entry, FreeList};

/// A second independent hash for multi-hash schemes (Cuckoo).
#[inline]
pub fn hash64_alt(key: u64, salt: u64) -> u64 {
    hash64(key ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Bytes per self-verifying bucket (key, offset, checksum, pad).
pub const CUCKOO_BUCKET_BYTES: usize = 32;

/// Number of orthogonal hash functions.
pub const CUCKOO_WAYS: usize = 3;

/// Geometry of a [`CuckooHash`].
#[derive(Debug, Clone)]
pub struct CuckooHashDesc {
    /// Owning machine.
    pub node: NodeId,
    /// Region offset of the bucket array.
    pub base: usize,
    /// Number of buckets (power of two).
    pub buckets: usize,
    /// Region offset of the entry pool.
    pub entry_base: usize,
    /// Entry pool capacity.
    pub entry_capacity: usize,
    /// Fixed value capacity in bytes.
    pub value_cap: usize,
}

/// The Pilaf-like baseline table.
#[derive(Debug)]
pub struct CuckooHash {
    desc: CuckooHashDesc,
    entries: FreeList,
    /// Host-side write lock: all PUTs are shipped to the host (two-sided),
    /// so a plain mutex matches the baseline's design.
    write_lock: Mutex<()>,
}

/// A bucket: `[key, entry_offset_or_0, checksum, 0]` little-endian words.
fn checksum(key: u64, off: u64) -> u64 {
    // FNV-ish mix standing in for Pilaf's CRC64 pair.
    (key.rotate_left(17) ^ off).wrapping_mul(0x100_0000_01B3) ^ 0xCBF2_9CE4_8422_2325
}

impl CuckooHash {
    /// Carves a table out of `arena`. `buckets` is rounded to a power of
    /// two; aim for ≤ 90 % occupancy or inserts may fail.
    pub fn create(
        arena: &mut Arena,
        node: NodeId,
        buckets: usize,
        entry_capacity: usize,
        value_cap: usize,
    ) -> Self {
        let buckets = buckets.next_power_of_two();
        let base = arena.reserve(buckets * CUCKOO_BUCKET_BYTES);
        let entry_base = arena.reserve(Entry::footprint(value_cap) * entry_capacity);
        CuckooHash {
            desc: CuckooHashDesc { node, base, buckets, entry_base, entry_capacity, value_cap },
            entries: FreeList::new(entry_base, Entry::footprint(value_cap), entry_capacity),
            write_lock: Mutex::new(()),
        }
    }

    /// The table geometry.
    pub fn desc(&self) -> &CuckooHashDesc {
        &self.desc
    }

    fn bucket_off(&self, way: usize, key: u64) -> usize {
        let h = hash64_alt(key, way as u64 + 1) as usize & (self.desc.buckets - 1);
        self.desc.base + h * CUCKOO_BUCKET_BYTES
    }

    fn read_bucket(region: &Region, off: usize) -> (u64, u64, u64) {
        let mut b = [0u8; CUCKOO_BUCKET_BYTES];
        region.read_nt(off, &mut b);
        (
            u64::from_le_bytes(b[0..8].try_into().expect("b")),
            u64::from_le_bytes(b[8..16].try_into().expect("b")),
            u64::from_le_bytes(b[16..24].try_into().expect("b")),
        )
    }

    fn write_bucket(region: &Region, off: usize, key: u64, entry_off: u64) {
        let mut b = [0u8; CUCKOO_BUCKET_BYTES];
        b[0..8].copy_from_slice(&key.to_le_bytes());
        b[8..16].copy_from_slice(&entry_off.to_le_bytes());
        b[16..24].copy_from_slice(&checksum(key, entry_off).to_le_bytes());
        region.write_nt(off, &b);
    }

    /// Host-side insert (the shipped PUT). Returns `false` when the table
    /// cannot place the key after the kick budget or pools are full.
    pub fn insert(&self, region: &Region, key: u64, value: &[u8]) -> bool {
        assert!(value.len() <= self.desc.value_cap, "value exceeds table capacity");
        let _g = self.write_lock.lock();
        let Some(entry_off) = self.entries.alloc() else { return false };
        Entry::at(entry_off).init_nt(region, key, value);

        // Standard cuckoo displacement with a bounded kick chain.
        let mut cur_key = key;
        let mut cur_off = entry_off as u64;
        for kick in 0..64 {
            for way in 0..CUCKOO_WAYS {
                let boff = self.bucket_off(way, cur_key);
                let (k, off, _) = Self::read_bucket(region, boff);
                if off == 0 {
                    Self::write_bucket(region, boff, cur_key, cur_off);
                    return true;
                }
                if k == cur_key {
                    // Duplicate: keep the existing mapping.
                    self.entries.free(cur_off as usize);
                    return false;
                }
            }
            // Evict from the way chosen by the kick counter.
            let way = kick % CUCKOO_WAYS;
            let boff = self.bucket_off(way, cur_key);
            let (vk, voff, _) = Self::read_bucket(region, boff);
            Self::write_bucket(region, boff, cur_key, cur_off);
            cur_key = vk;
            cur_off = voff;
        }
        // Kick budget exhausted; drop the orphan (bounded-loss baseline).
        self.entries.free(cur_off as usize);
        false
    }

    /// Remote GET: probes up to three buckets with one-sided READs, then
    /// fetches the entry with one more READ.
    ///
    /// Returns `(value, probe_reads)` where `probe_reads` excludes the
    /// final entry READ (Table 4 counts lookup READs).
    pub fn remote_get(&self, qp: &Qp, key: u64) -> (Option<Vec<u8>>, u32) {
        let mut reads = 0u32;
        for way in 0..CUCKOO_WAYS {
            let boff = self.bucket_off(way, key);
            let mut b = [0u8; CUCKOO_BUCKET_BYTES];
            loop {
                qp.read(GlobalAddr::new(self.desc.node, boff), &mut b);
                reads += 1;
                let k = u64::from_le_bytes(b[0..8].try_into().expect("b"));
                let off = u64::from_le_bytes(b[8..16].try_into().expect("b"));
                let sum = u64::from_le_bytes(b[16..24].try_into().expect("b"));
                if off != 0 && sum != checksum(k, off) {
                    // Self-verification failed (torn read): retry probe.
                    continue;
                }
                if off != 0 && k == key {
                    let mut image = vec![0u8; Entry::image_len(self.desc.value_cap)];
                    qp.read(GlobalAddr::new(self.desc.node, off as usize), &mut image);
                    let (_, value) = Entry::parse(&image);
                    return (Some(image[value].to_vec()), reads);
                }
                break;
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

    fn setup(buckets: usize, cap: usize) -> (Arc<Cluster>, CuckooHash) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 8 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(64, (8 << 20) - 64); // offset 0 reserved: 0 = empty bucket
        let t = CuckooHash::create(&mut arena, 0, buckets, cap, 64);
        (cluster, t)
    }

    #[test]
    fn alt_hash_differs_per_salt() {
        assert_ne!(hash64_alt(5, 1), hash64_alt(5, 2));
    }

    #[test]
    fn insert_and_remote_get() {
        let (cluster, t) = setup(256, 1000);
        let region = cluster.node(0).region();
        assert!(t.insert(region, 7, b"seven"));
        let qp = cluster.qp(1);
        let (v, reads) = t.remote_get(&qp, 7);
        assert_eq!(v.unwrap(), b"seven");
        assert!((1..=3).contains(&reads));
        let (miss, _) = t.remote_get(&qp, 8);
        assert!(miss.is_none());
    }

    #[test]
    fn displacement_keeps_all_keys_reachable() {
        let (cluster, t) = setup(256, 1000);
        let region = cluster.node(0).region();
        let n = 192; // 75 % occupancy
        for k in 1..=n {
            assert!(t.insert(region, k, &k.to_le_bytes()), "insert {k}");
        }
        let qp = cluster.qp(1);
        for k in 1..=n {
            let (v, _) = t.remote_get(&qp, k);
            assert_eq!(v.unwrap(), k.to_le_bytes(), "key {k}");
        }
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (cluster, t) = setup(64, 100);
        let region = cluster.node(0).region();
        assert!(t.insert(region, 1, b"a"));
        assert!(!t.insert(region, 1, b"b"));
        let qp = cluster.qp(1);
        assert_eq!(t.remote_get(&qp, 1).0.unwrap(), b"a");
    }

    #[test]
    fn probe_count_grows_with_occupancy() {
        let (cluster, t) = setup(1024, 2000);
        let region = cluster.node(0).region();
        let qp = cluster.qp(1);
        let fill = |upto: u64| {
            for k in 1..=upto {
                t.insert(region, k, b"v");
            }
        };
        let avg_reads = |n: u64, qp: &Qp| -> f64 {
            let before = cluster.counters().snapshot();
            for k in 1..=n {
                t.remote_get(qp, k);
            }
            let d = cluster.counters().snapshot().since(&before);
            // Each get issues probes + 1 entry read.
            (d.reads as f64 - n as f64) / n as f64
        };
        fill(512); // 50 %
        let a50 = avg_reads(512, &qp);
        fill(922); // 90 %
        let a90 = avg_reads(922, &qp);
        assert!(a90 > a50, "occupancy should raise probes: {a50:.3} vs {a90:.3}");
        assert!(a50 >= 1.0 && a90 < 3.0);
    }
}
