//! The DrTM memory-store layer (§5 of the paper).
//!
//! Provides a general key-value interface to the transaction layer with
//! two table kinds:
//!
//! * **Unordered** — the HTM/RDMA-friendly *cluster-chaining* hash table
//!   ([`ClusterHash`]): decoupled main headers, shared indirect headers
//!   and entries; 16-byte header slots carrying a 2-bit type, 14-bit
//!   lossy incarnation and 48-bit offset; remote lookups via one-sided
//!   RDMA READs of whole buckets; remote reads/writes of entries via
//!   one-sided verbs; INSERT/DELETE executed on the host inside an HTM
//!   transaction. A location-based, host-transparent cache
//!   ([`LocationCache`]) eliminates most lookup READs (§5.3).
//! * **Ordered** — an HTM-protected B+ tree ([`BTree`]) in region memory
//!   (the DBX-style tree of §5, used for TPC-C's ordered tables), with
//!   range scans and a mutex fallback for capacity aborts.
//!
//! The elastic deployment runs on the same table and cache, resharded
//! live by [`reshard`]. The split-ordered [`ElasticHash`] remains only
//! for the repo benchmark's probes; it stores the same [`Entry`].
//!
//! [`journal`] is the durable-record primitive: the one NVRAM record
//! format (payload first, status word last) behind the transaction log,
//! the resharder's purge lock and the membership journal.
//!
//! All tables live inside a node's [`drtm_htm::Region`] so local accesses
//! are HTM-protected and remote accesses are plain one-sided RDMA — race
//! detection comes entirely from HTM strong atomicity plus incarnation
//! checks, which is the design simplification §5.1 argues for.
#![forbid(unsafe_code)]

mod alloc;
mod btree;
mod cache;
mod cluster_hash;
mod entry;
pub mod journal;
pub mod reshard;
pub mod rpc;
mod slot;
mod split_ordered;
mod words;

pub use alloc::{Arena, FreeList};
pub use btree::{BTree, BTreeDesc};
pub use cache::{CacheStats, LocationCache};
pub use cluster_hash::{
    ClusterHash, ClusterHashDesc, CollectedEntry, InsertError, LookupResult, PreparedInsert,
    BUCKET_BYTES,
};
pub use entry::{Entry, EntryHeader};
pub use journal::Journal;
pub use reshard::{
    MigratePhase, MigrationReport, PurgeLock, RangeMap, RangeMapError, RangeState, Resharder,
    RouteDecision,
};
pub use slot::{Slot, SlotType, SLOT_BYTES};
pub use split_ordered::ElasticHash;

/// Default associativity of cluster-hash buckets (slots per bucket, §5.2).
pub const ASSOC: usize = 8;

/// Mixes a key into a well-distributed 64-bit hash (splitmix64 finaliser).
///
/// All table implementations share this so occupancy comparisons are
/// apples-to-apples.
#[inline]
pub fn hash64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(hash64(42), hash64(42));
        assert_ne!(hash64(1), hash64(2));
        // Crude avalanche check: flipping one input bit changes many output bits.
        let d = (hash64(7) ^ hash64(7 | 1 << 40)).count_ones();
        assert!(d > 16, "weak diffusion: {d} bits");
    }
}
