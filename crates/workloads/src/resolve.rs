//! Key → record resolution.
//!
//! A DrTM transaction needs the address of a record before Start only to
//! lock or lease it from another machine:
//!
//! * **remote keys** — a one-sided lookup through the machine-shared
//!   [`LocationCache`] (§5.3): a warm cache answers with zero RDMA READs,
//!   and staleness is caught by the incarnation check on the first fetch
//!   of the record;
//! * **local keys** — declared by key ([`Table::local`]) and looked up
//!   inside the transaction's own HTM region, where strong atomicity
//!   protects the walk. The address form of a local key
//!   ([`Table::try_resolve`] against the worker's own machine: one
//!   stand-alone region per lookup) remains for the probes and tests that
//!   name a local record by address; no workload does.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use drtm_core::{LocalKey, RecordAddr, Worker};
use drtm_htm::{Executor, Region};
use drtm_memstore::{ClusterHash, LocationCache};
use drtm_rdma::{FabricError, NodeId};

/// One logical table, instantiated once per machine (identical geometry
/// everywhere), plus per-client-machine location caches.
pub struct Table {
    /// Table instances indexed by owning node.
    pub shards: Vec<Arc<ClusterHash>>,
    caches: Caches,
}

/// The location caches of one logical table: one per `(client, server)`
/// pair of machines, created on first use, each enough for the whole
/// remote main-header array.
#[derive(Debug)]
pub(crate) struct Caches {
    map: RwLock<HashMap<(NodeId, NodeId), Arc<LocationCache>>>,
    /// Main ways and indirect pool buckets of every cache.
    buckets: usize,
    pool: usize,
}

impl Caches {
    /// Caches for a table whose shards have `main_buckets` main buckets.
    pub(crate) fn new(main_buckets: usize) -> Self {
        let map = RwLock::new(HashMap::new());
        Caches { map, buckets: main_buckets, pool: (main_buckets / 4).max(16) }
    }

    /// The location cache used by `client` for `server`'s shard.
    pub(crate) fn get(&self, client: NodeId, server: NodeId) -> Arc<LocationCache> {
        if let Some(c) = self.map.read().get(&(client, server)) {
            return c.clone();
        }
        let mut w = self.map.write();
        w.entry((client, server))
            .or_insert_with(|| Arc::new(LocationCache::new(self.buckets, self.pool)))
            .clone()
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table").field("shards", &self.shards.len()).finish()
    }
}

impl Table {
    /// Wraps per-node shards with default cache sizing (enough for the
    /// whole remote main-header array).
    pub fn new(shards: Vec<Arc<ClusterHash>>) -> Self {
        let buckets = shards.first().map(|s| s.desc().main_buckets).unwrap_or(1);
        Table { shards, caches: Caches::new(buckets) }
    }

    /// Value capacity of this table.
    pub fn value_cap(&self) -> usize {
        self.shards[0].desc().value_cap
    }

    /// The shard owned by `node`.
    pub fn shard(&self, node: NodeId) -> &Arc<ClusterHash> {
        &self.shards[node as usize]
    }

    /// `key`'s row in `node`'s shard, for a transaction running on `node`
    /// to declare by key.
    pub fn local(&self, node: NodeId, key: u64) -> LocalKey<'_> {
        LocalKey { table: self.shard(node), key }
    }

    /// The location cache used by `client` for `server`'s shard.
    pub fn cache(&self, client: NodeId, server: NodeId) -> Arc<LocationCache> {
        self.caches.get(client, server)
    }

    /// Resolves `key` on `server` from `worker`'s machine.
    ///
    /// Local keys use a validated HTM lookup; remote keys go through the
    /// location cache. Returns `None` if the key does not exist.
    ///
    /// # Panics
    ///
    /// If `server` is crashed and the answer is not cached (use
    /// [`Table::try_resolve`] under the chaos harness).
    pub fn resolve(&self, worker: &Worker, server: NodeId, key: u64) -> Option<RecordAddr> {
        self.try_resolve(worker, server, key).expect("resolve against a crashed node")
    }

    /// Validated read of `key`'s value bytes on its home `node`, outside
    /// any worker (the invariant checks of quiesced deployments).
    pub fn read_local(
        &self,
        exec: &Executor,
        region: &Region,
        node: NodeId,
        key: u64,
    ) -> Option<Vec<u8>> {
        read_local(exec, region, self.shard(node), key)
    }

    /// [`Table::resolve`] with typed dead-peer reporting: a warm cache
    /// still answers without touching the fabric, but a lookup that must
    /// read a crashed machine's buckets surfaces the fabric error.
    pub fn try_resolve(
        &self,
        worker: &Worker,
        server: NodeId,
        key: u64,
    ) -> Result<Option<RecordAddr>, FabricError> {
        let cap = self.value_cap();
        if server == worker.node {
            let row = self.local(server, key);
            let found = worker.executor().run(worker.region(), |txn| row.find(txn));
            Ok(found.expect("a lookup never aborts itself"))
        } else {
            let cache = self.cache(worker.node, server);
            let table = self.shard(server);
            Ok(cache
                .try_lookup(worker.qp(), table, key)?
                .map(|(addr, _slot, _reads)| RecordAddr::new(addr, cap)))
        }
    }
}

/// Validated read of `key`'s value bytes in `shard`, the shard of
/// `region`'s machine, outside any worker: one stand-alone region.
pub(crate) fn read_local(
    exec: &Executor,
    region: &Region,
    shard: &ClusterHash,
    key: u64,
) -> Option<Vec<u8>> {
    let row = LocalKey { table: shard, key };
    let found = exec.run(region, |txn| row.read(txn));
    found.expect("a read never aborts itself").map(|(_, value)| value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_core::{Deployment, DrTm, DrTmConfig};
    use drtm_rdma::{ClusterConfig, LatencyProfile};

    fn build() -> (Arc<DrTm>, Table) {
        let cluster = ClusterConfig {
            nodes: 2,
            region_size: 8 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        };
        let mut dep = Deployment::new(cluster, DrTmConfig::default(), 1);
        let shards = dep.hash(64, 1000, 16);
        for n in dep.nodes() {
            for k in 0..50u64 {
                let v = (k + n as u64 * 1000).to_le_bytes();
                shards[n as usize].insert(dep.exec(), dep.region(n), k, &v).unwrap();
            }
        }
        (dep.start_frozen(), Table::new(shards))
    }

    #[test]
    fn local_and_remote_resolution() {
        let (sys, table) = build();
        let w = sys.worker(0, 0);
        let local = table.resolve(&w, 0, 7).expect("local key");
        assert_eq!(local.addr.node, 0);
        let remote = table.resolve(&w, 1, 7).expect("remote key");
        assert_eq!(remote.addr.node, 1);
        assert!(table.resolve(&w, 1, 999).is_none());
    }

    #[test]
    fn local_resolutions_are_counted_regions() {
        // Each local lookup is one HTM region, and the system's ledger
        // sees every one of them (hits and misses alike).
        let (sys, table) = build();
        let w = sys.worker(0, 0);
        let before = sys.htm_stats().snapshot();
        for k in 0..60 {
            assert_eq!(table.resolve(&w, 0, k).is_some(), k < 50);
        }
        let d = sys.htm_stats().snapshot().since(&before);
        assert_eq!((d.commits, d.total_aborts()), (60, 0));
    }

    #[test]
    fn cache_eliminates_repeat_lookup_reads() {
        let (sys, table) = build();
        let w = sys.worker(0, 0);
        table.resolve(&w, 1, 3).unwrap();
        let before = sys.cluster().counters().snapshot();
        table.resolve(&w, 1, 3).unwrap();
        let d = sys.cluster().counters().snapshot().since(&before);
        assert_eq!(d.reads, 0, "warm cache lookup must be free");
    }

    #[test]
    fn crashed_server_resolution_is_typed_not_stale() {
        let (sys, table) = build();
        let w = sys.worker(0, 0);
        table.resolve(&w, 1, 3).unwrap(); // warm the cache
        sys.cluster().faults().kill(1);
        // The warm entry answers without touching the fabric…
        assert!(table.try_resolve(&w, 1, 3).unwrap().is_some());
        // …but a cold key must read node 1's buckets: typed failure.
        assert!(matches!(table.try_resolve(&w, 1, 4), Err(FabricError::PeerDead { node: 1 })));
        sys.cluster().faults().revive(1);
        assert!(table.try_resolve(&w, 1, 4).unwrap().is_some());
    }

    #[test]
    fn caches_are_per_client_server_pair() {
        let (_sys, table) = build();
        let c01 = table.cache(0, 1);
        let c01b = table.cache(0, 1);
        let c10 = table.cache(1, 0);
        assert!(Arc::ptr_eq(&c01, &c01b));
        assert!(!Arc::ptr_eq(&c01, &c10));
    }
}
