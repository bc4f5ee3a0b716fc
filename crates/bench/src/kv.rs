//! Key-value store comparison harness (§5.4: Table 4, Figure 10).
//!
//! Builds one simulated 6-machine cluster per table design — node 0 is
//! the server, nodes 1–5 are clients, mirroring the paper's setup — and
//! measures remote GET cost in RDMA READs and virtual time.

use std::sync::Arc;

use drtm_htm::{vtime, Executor, HtmConfig, HtmStats};
use drtm_memstore::{Arena, CacheStats, ClusterHash, LocationCache, LookupResult};
use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile, NodeId};

use drtm_workloads::dist::{rng, KeyDist};

use crate::cuckoo::CuckooHash;
use crate::hopscotch::{HopscotchHash, HopscotchVariant};

/// Which §5.4 system a harness instance drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvSystem {
    /// Pilaf: 3-way Cuckoo, self-verifying buckets.
    Pilaf,
    /// FaRM-KV with values inline in the neighbourhood (FaRM-KV/I).
    FarmInline,
    /// FaRM-KV with value offsets (FaRM-KV/O).
    FarmOffset,
    /// DrTM-KV without the location cache.
    DrtmKv,
    /// DrTM-KV with the location cache (DrTM-KV/$).
    DrtmKvCache {
        /// Cache budget in bytes (per client machine).
        budget: usize,
        /// Warm the cache before measuring.
        warm: bool,
    },
}

impl KvSystem {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            KvSystem::Pilaf => "Pilaf",
            KvSystem::FarmInline => "FaRM-KV/I",
            KvSystem::FarmOffset => "FaRM-KV/O",
            KvSystem::DrtmKv => "DrTM-KV",
            KvSystem::DrtmKvCache { .. } => "DrTM-KV/$",
        }
    }

    /// The name as a ledger point's prefix: `farm_kv_i`, `drtm_kv_cache`.
    pub fn key(&self) -> String {
        self.name().to_lowercase().replace(['-', '/'], "_").replace('$', "cache")
    }
}

enum TableImpl {
    Cuckoo(CuckooHash),
    Hopscotch(HopscotchHash),
    // Boxed: the sharded entry allocator makes this variant much larger
    // than the other two.
    Cluster(Box<ClusterHash>),
}

/// One populated key-value deployment.
pub struct KvBench {
    cluster: Arc<Cluster>,
    table: TableImpl,
    caches: Vec<Arc<LocationCache>>,
    system: KvSystem,
    /// The keys actually resident (hopscotch/cuckoo may skip a few at
    /// high occupancy; lookups must only target live keys).
    keys_list: Arc<Vec<u64>>,
    /// Number of keys resident.
    pub keys: u64,
}

/// Result of one measured GET sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvRun {
    /// GET operations performed.
    pub gets: u64,
    /// One-sided READs used for *lookups* (excludes the value fetch).
    pub lookup_reads: u64,
    /// All one-sided READs (lookup + value).
    pub total_reads: u64,
    /// Aggregate throughput (ops/s of virtual time, summed over clients).
    pub throughput: f64,
    /// Mean per-GET latency in virtual µs.
    pub latency_us: f64,
}

impl KvBench {
    /// Builds a deployment of `keys` pairs of `value_size` bytes at the
    /// given slot `occupancy`, using the paper's cost model.
    pub fn build(system: KvSystem, keys: u64, value_size: usize, occupancy: f64) -> KvBench {
        let slots_needed = (keys as f64 / occupancy).ceil() as usize;
        let entry_fp = drtm_memstore::Entry::footprint(value_size);
        let region_size =
            slots_needed * (16 + value_size) * 2 + keys as usize * entry_fp * 2 + (64 << 20);
        let cluster = Cluster::new(ClusterConfig {
            nodes: 6,
            region_size,
            profile: LatencyProfile::rdma(),
            ..Default::default()
        });
        // Offset 0 must stay unused (Cuckoo's empty sentinel).
        let mut arena = Arena::new(64, region_size - 64);
        let region = cluster.node(0).region();
        let mut keys_list: Vec<u64> = Vec::with_capacity(keys as usize);
        let table = match system {
            KvSystem::Pilaf => {
                let t =
                    CuckooHash::create(&mut arena, 0, slots_needed, keys as usize + 1, value_size);
                let mut k = 1u64;
                while keys_list.len() < keys as usize {
                    if t.insert(region, k, &vbytes(k, value_size)) {
                        keys_list.push(k);
                    }
                    k += 1;
                }
                TableImpl::Cuckoo(t)
            }
            KvSystem::FarmInline | KvSystem::FarmOffset => {
                let variant = if system == KvSystem::FarmInline {
                    HopscotchVariant::Inline
                } else {
                    HopscotchVariant::Offset
                };
                let t = HopscotchHash::create(
                    &mut arena,
                    0,
                    variant,
                    slots_needed,
                    keys as usize * 2,
                    value_size,
                );
                let mut k = 1u64;
                let mut failures = 0u64;
                while keys_list.len() < keys as usize {
                    if t.insert(region, k, &vbytes(k, value_size)) {
                        keys_list.push(k);
                    } else {
                        failures += 1;
                        // At very high occupancy displacement can stall;
                        // accept a marginally lower fill.
                        if failures > keys / 10 {
                            break;
                        }
                    }
                    k += 1;
                }
                TableImpl::Hopscotch(t)
            }
            KvSystem::DrtmKv | KvSystem::DrtmKvCache { .. } => {
                let buckets = (slots_needed / drtm_memstore::ASSOC).max(16);
                let t = ClusterHash::create(&mut arena, 0, buckets, keys as usize + 1, value_size);
                let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
                for k in 1..=keys {
                    t.insert(&exec, region, k, &vbytes(k, value_size)).expect("populate");
                    keys_list.push(k);
                }
                TableImpl::Cluster(Box::new(t))
            }
        };
        let caches = match system {
            KvSystem::DrtmKvCache { budget, .. } => {
                (0..6).map(|_| Arc::new(LocationCache::with_budget(budget))).collect()
            }
            _ => Vec::new(),
        };
        KvBench { cluster, table, caches, system, keys, keys_list: Arc::new(keys_list) }
    }

    /// The underlying cluster (for counters).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Aggregated location-cache counters across all client machines
    /// (all zero when the system has no cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.iter().fold(CacheStats::default(), |total, c| total.merge(&c.stats()))
    }

    fn get(&self, client: NodeId, key: u64) -> (bool, u32) {
        let qp = self.cluster.qp(client);
        match &self.table {
            TableImpl::Cuckoo(t) => {
                let (v, reads) = t.remote_get(&qp, key);
                (v.is_some(), reads)
            }
            TableImpl::Hopscotch(t) => {
                let (v, reads) = t.remote_get(&qp, key);
                (v.is_some(), reads)
            }
            TableImpl::Cluster(t) => match self.system {
                KvSystem::DrtmKvCache { .. } => {
                    let cache = &self.caches[client as usize];
                    match cache.lookup(&qp, t, key) {
                        Some((addr, slot, reads)) => match t.remote_read_entry(&qp, addr, &slot) {
                            Some(_) => (true, reads),
                            None => {
                                cache.invalidate(t, key);
                                (false, reads)
                            }
                        },
                        None => (false, 0),
                    }
                }
                _ => match t.remote_lookup(&qp, key) {
                    LookupResult::Found { addr, slot, reads } => {
                        let ok = t.remote_read_entry(&qp, addr, &slot).is_some();
                        (ok, reads)
                    }
                    LookupResult::NotFound { reads } => (false, reads),
                },
            },
        }
    }

    /// Runs `per_thread` GETs on `clients` machines × `threads` each,
    /// keys drawn from `dist` (over `1..=keys`).
    pub fn run(&self, clients: usize, threads: usize, per_thread: u64, dist: &KeyDist) -> KvRun {
        if let KvSystem::DrtmKvCache { warm: true, .. } = self.system {
            // Warm-up pass: touch a sample of keys from each client.
            // Touch every key once per client plus a distribution-shaped
            // pass, so "warm" really means warm.
            let mut r = rng(99);
            for c in 1..=clients as NodeId {
                for k in self.keys_list.iter() {
                    self.get(c, *k);
                }
                for _ in 0..self.keys / 2 {
                    let k = self.keys_list[dist.sample(&mut r) as usize % self.keys_list.len()];
                    self.get(c, k);
                }
            }
        }
        let before = self.cluster.counters().snapshot();
        let mut rates = Vec::new();
        let mut gets = 0u64;
        let mut hits = 0u64;
        let mut lat_sum = 0u64;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for c in 1..=clients as NodeId {
                for t in 0..threads {
                    handles.push(s.spawn(move || {
                        let mut r = rng((c as u64) << 16 | t as u64);
                        vtime::take();
                        let mut found = 0u64;
                        for _ in 0..per_thread {
                            let k =
                                self.keys_list[dist.sample(&mut r) as usize % self.keys_list.len()];
                            if self.get(c, k).0 {
                                found += 1;
                            }
                        }
                        (found, vtime::take())
                    }));
                }
            }
            for h in handles {
                let (found, ns) = h.join().expect("kv client");
                assert!(found > 0, "lookups must mostly succeed");
                gets += per_thread;
                hits += found;
                lat_sum += ns;
                if ns > 0 {
                    rates.push(per_thread as f64 / (ns as f64 / 1e9));
                }
            }
        });
        let after = self.cluster.counters().snapshot().since(&before);
        // lookup reads = total reads minus one value-fetch per *hit* for
        // two-step systems (inline FaRM fetches the value in the lookup).
        let value_fetches = match self.system {
            KvSystem::FarmInline => 0,
            _ => hits,
        };
        KvRun {
            gets,
            lookup_reads: after.reads.saturating_sub(value_fetches),
            total_reads: after.reads,
            throughput: rates.iter().sum(),
            latency_us: lat_sum as f64 / gets as f64 / 1e3,
        }
    }
}

fn vbytes(k: u64, size: usize) -> Vec<u8> {
    let mut v = vec![0u8; size];
    v[..8.min(size)].copy_from_slice(&k.to_le_bytes()[..8.min(size)]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_build_and_serve() {
        let dist = KeyDist::uniform(500);
        for sys in [
            KvSystem::Pilaf,
            KvSystem::FarmInline,
            KvSystem::FarmOffset,
            KvSystem::DrtmKv,
            KvSystem::DrtmKvCache { budget: 1 << 20, warm: false },
        ] {
            let b = KvBench::build(sys, 500, 64, 0.75);
            let run = b.run(2, 1, 200, &dist);
            assert_eq!(run.gets, 400, "{}", sys.name());
            assert!(run.throughput > 0.0);
            assert!(run.latency_us > 0.0);
        }
    }

    #[test]
    fn cache_reduces_lookup_reads() {
        let dist = KeyDist::uniform(500);
        let plain = KvBench::build(KvSystem::DrtmKv, 500, 64, 0.75);
        let cached =
            KvBench::build(KvSystem::DrtmKvCache { budget: 4 << 20, warm: true }, 500, 64, 0.75);
        let r1 = plain.run(1, 1, 500, &dist);
        let r2 = cached.run(1, 1, 500, &dist);
        assert!(
            r2.lookup_reads * 4 < r1.lookup_reads,
            "warm cache should eliminate most lookups: {} vs {}",
            r2.lookup_reads,
            r1.lookup_reads
        );
        assert!(r2.throughput > r1.throughput);
    }
}
