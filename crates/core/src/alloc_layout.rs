//! Standard region layout for DrTM machines, and the one place a
//! deployment is assembled.
//!
//! Every machine's region begins with the softtime line, followed by its
//! durable records — one log slot per worker, the resharder's purge-lock
//! journal, the membership journal — followed by the stores. All
//! machines use the identical layout so a survivor can find a corpse's
//! logs and a remote address needs no metadata exchange (§4.6, §6.1).
//! Each record's size and shape belongs to its client; [`NodeLayout`]
//! only says in what order they are carved, and [`Deployment`] makes
//! "identical everywhere" a property of construction.

use std::sync::Arc;
use std::time::Duration;

use drtm_htm::{Executor, HtmConfig, HtmStats, Region};
use drtm_memstore::{Arena, BTree, ClusterHash, Journal, PurgeLock};
use drtm_rdma::{Cluster, ClusterConfig, NodeId};

use crate::config::DrTmConfig;
use crate::log::LogSlot;
use crate::membership::MembershipJournal;
use crate::time::{SoftTimer, SOFTTIME_OFF};
use crate::txn::DrTm;

/// The region layout of every machine of a deployment: one value, a
/// function of the worker count alone.
#[derive(Debug, Clone)]
pub struct NodeLayout {
    /// Log slots ([`LogSlot`]), indexed by worker id.
    pub log_slots: Vec<Journal>,
    /// The journal the resharder arms before each purge lock it takes
    /// while this machine is a migration destination.
    pub purge_lock: PurgeLock,
    /// The membership journal: the coordinator persists every join/leave
    /// phase transition here *before* it takes effect, so a survivor can
    /// roll a dead joiner back (or a dead leaver forward) from the
    /// subject's own NVRAM.
    pub membership: MembershipJournal,
    /// Where the layout ends and the stores begin.
    end: usize,
}

impl NodeLayout {
    /// Reserves the softtime line, `workers` log slots and the two
    /// reconfiguration journals from `arena` (which must start at region
    /// offset 0).
    pub(crate) fn reserve(arena: &mut Arena, workers: usize) -> NodeLayout {
        let st = arena.reserve(64);
        assert_eq!(st, SOFTTIME_OFF, "softtime must be the first line of the region");
        NodeLayout {
            log_slots: (0..workers).map(|_| LogSlot::reserve(arena)).collect(),
            purge_lock: PurgeLock::reserve(arena),
            membership: MembershipJournal::reserve(arena),
            end: arena.reserve(0),
        }
    }

    /// A fresh arena over a machine's whole store space, `[layout end,
    /// region size)`. Founding machines and machines joined later get
    /// theirs from here, so a store carved first sits at one offset on
    /// all of them. Panics if `region` cannot hold the layout itself.
    pub fn store_arena(&self, region: &Region) -> Arena {
        let room = region.size().checked_sub(self.end);
        Arena::new(self.end, room.expect("region smaller than the standard layout"))
    }
}

/// A deployment under assembly: [`Deployment::new`], one
/// [`hash`](Deployment::hash) / [`tree`](Deployment::tree) per logical
/// store, population through [`Deployment::exec`], then
/// [`Deployment::start`]. The only place that decides that
///
/// 1. the layout is one value derived from `workers`;
/// 2. a machine's store arena is what follows it, sized by the region;
/// 3. a logical store is declared once and carved at the same offset on
///    every machine;
/// 4. population runs on stock HTM parameters with throw-away statistics:
///    the deployment's own [`DrTmConfig::htm`] is the hardware under
///    test — possibly too small to run an insert, or forced into the
///    fallback with `max_retries = 0` — and run-time services (scan RPC,
///    store RPC, resharder) keep it;
/// 5. the softtime service starts *after* population (no tick aborts a
///    set-up region) and belongs to the returned [`DrTm`], so it ticks
///    until the last `Arc<DrTm>` — every worker holds one — drops.
#[derive(Debug)]
pub struct Deployment {
    cluster: Arc<Cluster>,
    cfg: DrTmConfig,
    layout: NodeLayout,
    /// Machine `n`'s store arena; `hash` and `tree` advance all alike.
    arenas: Vec<Arena>,
    exec: Executor,
}

impl Deployment {
    /// Brings up the fabric and lays out every region for `workers`
    /// worker threads per machine.
    pub fn new(cluster: ClusterConfig, cfg: DrTmConfig, workers: usize) -> Deployment {
        let cluster = Cluster::new(cluster);
        let layout = NodeLayout::reserve(&mut Arena::new(0, usize::MAX), workers);
        let arena = |n| layout.store_arena(cluster.node(n as NodeId).region());
        let arenas = (0..cluster.num_nodes()).map(arena).collect();
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        Deployment { cluster, cfg, layout, arenas, exec }
    }

    /// Declares one hash table: a shard per machine, indexed by node id.
    pub fn hash(
        &mut self,
        buckets: usize,
        capacity: usize,
        value_cap: usize,
    ) -> Vec<Arc<ClusterHash>> {
        let shard = |(n, a)| ClusterHash::create(a, n as NodeId, buckets, capacity, value_cap);
        self.arenas.iter_mut().enumerate().map(shard).map(Arc::new).collect()
    }

    /// Declares one B+ tree per machine (ordered stores are local-only,
    /// §6.5), indexed by node id.
    pub fn tree(&mut self, pool_cap: usize) -> Vec<Arc<BTree>> {
        let cluster = &self.cluster;
        let tree =
            |(n, a)| BTree::create(a, cluster.node(n as NodeId).region(), n as NodeId, pool_cap);
        self.arenas.iter_mut().enumerate().map(tree).map(Arc::new).collect()
    }

    /// The founding machines' ids.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.cluster.num_nodes() as NodeId
    }

    /// Machine `n`'s region.
    pub fn region(&self, n: NodeId) -> &Arc<Region> {
        self.cluster.node(n).region()
    }

    /// The fabric, for services a workload starts before the system.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The executor to populate with (decision 4).
    pub fn exec(&self) -> &Executor {
        &self.exec
    }

    /// Every machine's layout. A workload whose stores the builder does
    /// not name (the elastic table) carves them from
    /// [`NodeLayout::store_arena`] *instead of* `hash` / `tree`: both
    /// cover the same bytes.
    pub fn layout(&self) -> &NodeLayout {
        &self.layout
    }

    /// Starts the softtime service — at [`crate::SOFTTIME_INTERVAL`]
    /// everywhere but Figure 11's sweep — and the system that owns it.
    pub fn start(self, interval: Duration) -> Arc<DrTm> {
        let timer = SoftTimer::start(self.cluster.clone(), interval);
        DrTm::new(self.cluster, self.cfg, self.layout, Some(timer))
    }

    /// Starts the system on a clock published once and never advanced:
    /// leases neither expire nor abort the HTM region that confirms
    /// them, so a single-threaded test repeats to the last digit.
    pub fn start_frozen(self) -> Arc<DrTm> {
        SoftTimer::tick_now(&self.cluster);
        DrTm::new(self.cluster, self.cfg, self.layout, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{softtime_nt, SOFTTIME_INTERVAL};
    use drtm_memstore::{BTreeDesc, ClusterHashDesc};
    use drtm_rdma::LatencyProfile;
    use std::time::Instant;

    #[test]
    fn layout_is_disjoint_and_ordered() {
        let mut arena = Arena::new(0, 1 << 20);
        let l = NodeLayout::reserve(&mut arena, 4);
        assert_eq!(l.log_slots.len(), 4);
        // Everything is carved from one bump arena, so disjointness is
        // the arena's; what is pinned here is the order and the slot
        // footprint (head line + 1 KiB lock-ahead + 16 KiB write-ahead).
        let mut again = Arena::new(0, 1 << 20);
        assert_eq!(again.reserve(64), SOFTTIME_OFF, "softtime line reserved first");
        for slot in &l.log_slots {
            assert_eq!(*slot, LogSlot::reserve(&mut again));
        }
        assert_eq!(again.reserve(0), 64 + 4 * (64 + (1 << 10) + (16 << 10)));
        assert!(arena.remaining() < again.remaining(), "the journals follow the log slots");
        // The stores follow the journals, to the end of the region.
        let mut stores = l.store_arena(&Region::new(1 << 20));
        assert_eq!(stores.remaining(), arena.remaining());
        assert_eq!(stores.reserve(64), arena.reserve(64));
    }

    #[test]
    #[should_panic(expected = "softtime must be the first line")]
    fn rejects_offset_arenas() {
        let mut arena = Arena::new(128, 1 << 20);
        NodeLayout::reserve(&mut arena, 1);
    }

    #[test]
    #[should_panic(expected = "region smaller than the standard layout")]
    fn rejects_regions_the_layout_does_not_fit() {
        deployment(1, 4096);
    }

    fn deployment(nodes: usize, region_size: usize) -> Deployment {
        let cluster = ClusterConfig {
            nodes,
            region_size,
            profile: LatencyProfile::zero(),
            ..Default::default()
        };
        Deployment::new(cluster, DrTmConfig::default(), 2)
    }

    #[test]
    fn a_declared_store_sits_at_one_offset_on_every_machine() {
        let mut dep = deployment(3, 4 << 20);
        let first = dep.hash(64, 100, 8);
        let trees = dep.tree(32);
        let second = dep.hash(16, 50, 24);
        for n in dep.nodes() {
            let i = n as usize;
            for shards in [&first, &second] {
                let moved = ClusterHashDesc { node: n, ..shards[0].desc().clone() };
                assert_eq!(*shards[i].desc(), moved, "same geometry but for the owner");
            }
            assert_eq!(*trees[i].desc(), BTreeDesc { node: n, ..trees[0].desc().clone() });
        }
        // Declaration order is carve order, starting where the layout ends.
        let mut stores = dep.layout().store_arena(dep.region(0));
        assert_eq!(first[0].desc().main_base, stores.reserve(0));
        assert!(first[0].desc().entry_base < trees[0].desc().meta_base);
        assert!(trees[0].desc().pool_base < second[0].desc().main_base);
    }

    #[test]
    fn population_ignores_the_deployment_s_own_htm_parameters() {
        // An HTM that can write no line at all could not run one insert.
        let mut cfg = DrTmConfig::default();
        cfg.htm.write_capacity_lines = 0;
        cfg.htm.max_retries = 0;
        let cluster = ClusterConfig { nodes: 1, region_size: 1 << 20, ..Default::default() };
        let mut dep = Deployment::new(cluster, cfg, 1);
        let table = dep.hash(16, 8, 8);
        table[0].insert(dep.exec(), dep.region(0), 7, &[1; 8]).unwrap();
        assert_eq!(dep.exec().stats().snapshot().fallbacks, 0, "populated on the HTM path");
        let sys = dep.start_frozen();
        assert_eq!(sys.config().htm.max_retries, 0, "workers keep the modelled hardware");
        assert_eq!(sys.htm_stats().snapshot().commits, 0, "population is not in the books");
    }

    #[test]
    fn the_clock_runs_until_the_last_handle_drops_and_stops_promptly() {
        let sys = deployment(2, 1 << 20).start(SOFTTIME_INTERVAL);
        let worker = sys.worker(1, 0);
        drop(sys);
        // The worker's handle keeps the service alive.
        let before = softtime_nt(worker.region());
        std::thread::sleep(Duration::from_millis(5));
        assert!(softtime_nt(worker.region()) > before, "softtime stopped under a live worker");
        let cluster = worker.system().cluster().clone();
        drop(worker);
        let stopped = softtime_nt(cluster.node(0).region());
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(softtime_nt(cluster.node(0).region()), stopped, "the last drop stops it");
        // Same bound as `time::tests::drop_returns_well_under_the_interval`.
        let sys = deployment(1, 1 << 20).start(Duration::from_secs(30));
        std::thread::sleep(Duration::from_millis(5));
        let t0 = Instant::now();
        drop(sys);
        assert!(t0.elapsed() < Duration::from_millis(500), "drop took {:?}", t0.elapsed());
    }

    #[test]
    fn a_frozen_clock_is_published_once() {
        let sys = deployment(2, 1 << 20).start_frozen();
        let read = || [0, 1].map(|n| softtime_nt(sys.cluster().node(n).region()));
        let first = read();
        assert!(first.iter().all(|&t| t >= 1_000_000), "published, never 0: {first:?}");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(read(), first, "and never advanced");
    }
}
