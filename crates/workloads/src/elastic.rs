//! Elastic KV workload: transactions over the reshardable memstore.
//!
//! Unlike the static workloads ([`crate::smallbank`], [`crate::tpcc`]),
//! a key's home here is decided by a live [`RangeMap`] instead of a
//! fixed modulus, and a key range can migrate between machines
//! ([`ElasticKv::migrate`]) while transactions keep running. During the
//! cutover window the router reports `writable = false` and writers abort
//! with the typed [`AbortCause::Migrated`] cause, to retry after publish;
//! reads dual-read source-then-destination ([`ElasticKvWorker::read`]).
//!
//! Every machine's shard is the paper's [`ClusterHash`], sized at
//! creation for every key of the deployment, and a client finds a remote
//! key through its [`LocationCache`] for that server (§5.3). A cached
//! location is checked by the incarnation of the entry it names, so a key
//! a migration purged fails its check and re-resolves: the resharder
//! tells no cache anything.
//!
//! The canonical transaction is a two-key `transfer` that conserves the
//! total value — the invariant the chaos harness checks across crashes
//! and migrations.

use std::sync::{Arc, Mutex};

use drtm_core::{
    Abort, AbortCause, Deployment, DrTm, DrTmConfig, JoinReport, LeaveReport, LocalKey, LockState,
    MembershipCoordinator, MembershipError, MembershipTable, NodeRecovery, NodeState, RecordAddr,
    TxnCtx, TxnError, TxnSpec, Worker, SOFTTIME_INTERVAL, USER_ABORT,
};
use drtm_htm::{Executor, HtmStats};
use drtm_memstore::rpc::spawn_store_service;
use drtm_memstore::{
    Arena, ClusterHash, LocationCache, MigrationReport, RangeMap, Resharder, RouteDecision,
};
use drtm_rdma::rpc::Service;
use drtm_rdma::{
    ClusterConfig, DoorbellConfig, FabricError, FaultConfig, GlobalAddr, LatencyProfile, NodeId,
};

use crate::resolve::{read_local, Caches};
use crate::{fields, first_field, pack_fields};

/// Initial value of every key.
pub const INIT_VALUE: u64 = 1_000_000;

/// Value capacity (one packed u64 field).
pub const VALUE_BYTES: usize = 8;

/// Reply queue used by the resharder's shipped purge deletes.
const RESHARD_REPLY_Q: drtm_rdma::QueueId = 0x6000;

/// Elastic KV sizing and behaviour.
#[derive(Debug, Clone)]
pub struct ElasticKvConfig {
    /// Simulated machines at startup.
    pub nodes: usize,
    /// Fabric capacity for machines joined later ([`ElasticKv::join_node`]);
    /// 0 = fixed geometry.
    pub max_nodes: usize,
    /// Worker threads per machine.
    pub workers: usize,
    /// Keys initially owned by each machine (`[n·per, (n+1)·per)`).
    pub keys_per_node: u64,
    /// Region bytes per machine.
    pub region_size: usize,
    /// Network cost model.
    pub profile: LatencyProfile,
    /// Fault-injection plan (the chaos harness arms crash sites on it).
    pub faults: FaultConfig,
    /// Doorbell batching of outbound one-sided ops.
    pub doorbell: DoorbellConfig,
    /// Transaction-layer configuration.
    pub drtm: DrTmConfig,
}

impl Default for ElasticKvConfig {
    fn default() -> Self {
        ElasticKvConfig {
            nodes: 2,
            max_nodes: 0,
            workers: 2,
            keys_per_node: 1_000,
            region_size: 32 << 20,
            profile: LatencyProfile::rdma(),
            faults: FaultConfig::default(),
            doorbell: DoorbellConfig::default(),
            drtm: DrTmConfig::default(),
        }
    }
}

/// A built elastic KV deployment.
pub struct ElasticKv {
    /// The transaction system.
    pub sys: Arc<DrTm>,
    /// Owns the range map and the per-node shard registry: shard `n`
    /// belongs to machine `n`, and a join appends one.
    resharder: Arc<Resharder>,
    coordinator: Arc<MembershipCoordinator>,
    caches: Arc<Caches>,
    /// The configuration it was built with.
    pub cfg: ElasticKvConfig,
    _services: Arc<Mutex<Vec<Service>>>,
}

impl ElasticKv {
    /// Builds the cluster, creates and populates every shard, starts
    /// the store services the resharder ships purges through.
    pub fn build(cfg: ElasticKvConfig) -> ElasticKv {
        let fabric = ClusterConfig {
            nodes: cfg.nodes,
            max_nodes: cfg.max_nodes,
            region_size: cfg.region_size,
            profile: cfg.profile.clone(),
            faults: cfg.faults.clone(),
            doorbell: cfg.doorbell.clone(),
            ..Default::default()
        };
        let dep = Deployment::new(fabric, cfg.drtm.clone(), cfg.workers);
        let cluster = dep.cluster().clone();
        // Run-time services model the deployment's own hardware.
        let exec = Executor::new(cfg.drtm.htm.clone(), Arc::new(HtmStats::new()));
        let per = cfg.keys_per_node;
        let map = Arc::new(RangeMap::new(
            (0..cfg.nodes as NodeId).map(|n| (n as u64 * per, (n as u64 + 1) * per - 1, n)),
        ));
        let resharder = Arc::new(Resharder::new(
            cluster.clone(),
            map,
            Vec::new(),
            dep.layout().purge_lock,
            LockState::write_locked(u8::MAX).0,
            RESHARD_REPLY_Q,
            exec.clone(),
        ));
        let services = Arc::new(Mutex::new(Vec::new()));
        // A shard must be able to absorb every other node's ranges; its
        // buckets hold four rows each, as TPC-C's tables do.
        let capacity = cfg.keys_per_node as usize * cfg.nodes + 64;
        let buckets = capacity / 4;
        // What every machine gets, founding or joined later: an (empty)
        // shard at the head of its store arena, its store service, and
        // the shard registered with the resharder.
        let provision = {
            let (resharder, services) = (resharder.clone(), services.clone());
            move |node: NodeId, mut arena: Arena| {
                let shard = ClusterHash::create(&mut arena, node, buckets, capacity, VALUE_BYTES);
                let shard = Arc::new(shard);
                services.lock().expect("service lock poisoned").push(spawn_store_service(
                    cluster.clone(),
                    node,
                    vec![shard.clone()],
                    exec.clone(),
                ));
                resharder.add_shard(shard);
            }
        };
        for n in dep.nodes() {
            let region = dep.region(n);
            provision(n, dep.layout().store_arena(region));
            let shard = resharder.shard(n);
            for k in n as u64 * per..(n as u64 + 1) * per {
                shard.insert(dep.exec(), region, k, &pack_fields(&[INIT_VALUE])).expect("populate");
            }
        }
        let sys = dep.start(SOFTTIME_INTERVAL);
        let membership = Arc::new(MembershipTable::new(cfg.nodes));
        let coordinator = Arc::new(MembershipCoordinator::new(
            sys.clone(),
            resharder.clone(),
            membership,
            provision,
        ));
        let caches = Arc::new(Caches::new(buckets));
        ElasticKv { sys, resharder, coordinator, caches, cfg, _services: services }
    }

    /// Creates a per-thread workload driver for `(node, worker_id)`.
    pub fn worker(&self, node: NodeId, worker_id: usize) -> ElasticKvWorker {
        ElasticKvWorker {
            w: self.sys.worker(node, worker_id),
            caches: self.caches.clone(),
            resharder: self.resharder.clone(),
            membership: self.coordinator.table().clone(),
        }
    }

    /// The live key-range → owner map.
    pub fn map(&self) -> &Arc<RangeMap> {
        self.resharder.map()
    }

    /// The resharder (phase hooks).
    pub fn resharder(&self) -> &Arc<Resharder> {
        &self.resharder
    }

    /// The shard owned by `node`.
    pub fn shard(&self, node: NodeId) -> Arc<ClusterHash> {
        self.resharder.shard(node)
    }

    /// The location cache client machine `client` uses for `server`'s
    /// shard.
    pub fn cache(&self, client: NodeId, server: NodeId) -> Arc<LocationCache> {
        self.caches.get(client, server)
    }

    /// The cluster membership table (lifecycle state per machine).
    pub fn membership(&self) -> &Arc<MembershipTable> {
        self.coordinator.table()
    }

    /// The membership coordinator (drive joins/leaves directly; its
    /// `recover` is what a failure detector's callback calls).
    pub fn coordinator(&self) -> &Arc<MembershipCoordinator> {
        &self.coordinator
    }

    /// Driver hook: admits a new machine to the live cluster — fabric
    /// slot, region, shard, services, one donation range from every
    /// active machine — and activates it.
    pub fn join_node(&self) -> Result<JoinReport, MembershipError> {
        self.coordinator.join()
    }

    /// Driver hook: gracefully retires `node`, draining every owned
    /// range to the remaining machines and quiescing its WAL (driven
    /// from `via`).
    pub fn leave_node(&self, node: NodeId, via: NodeId) -> Result<LeaveReport, MembershipError> {
        self.coordinator.leave(node, via)
    }

    /// Driver hook: everything recovery does after `crashed` died,
    /// driven from `via` (compose into the failure detector's callback):
    /// the WAL sweep, the rollback of migrations in flight, and the
    /// repair of a join or leave whose subject it was — see
    /// [`MembershipCoordinator::recover`].
    pub fn recover(&self, crashed: NodeId, via: NodeId) -> NodeRecovery {
        self.coordinator.recover(crashed, via)
    }

    /// Driver hook: migrates `[lo, hi]` to `dst` while traffic runs.
    pub fn migrate(&self, lo: u64, hi: u64, dst: NodeId) -> Result<MigrationReport, FabricError> {
        self.resharder.migrate(lo, hi, dst)
    }

    /// Sum of every key's value — the conservation invariant. Call on a
    /// quiesced deployment (no in-flight transactions or migrations).
    pub fn total_value(&self) -> u64 {
        let exec = self.sys.executor();
        let mut total = 0u64;
        for key in 0..self.cfg.nodes as u64 * self.cfg.keys_per_node {
            let owner = self.map().owner_of(key).expect("unmapped key");
            let region = self.sys.cluster().node(owner).region();
            let v = read_local(&exec, region, &self.shard(owner), key)
                .unwrap_or_else(|| panic!("key {key} missing on its owner {owner}"));
            total = total.wrapping_add(fields(&v)[0]);
        }
        total
    }
}

/// Outcome of a single write attempt against a possibly-migrating key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The transaction committed.
    Committed,
    /// At least one key's range is frozen mid-cutover: the attempt was
    /// recorded as an [`AbortCause::Migrated`] abort. Retry after the
    /// map republishes.
    Frozen,
}

/// Per-thread elastic KV driver.
pub struct ElasticKvWorker {
    w: Worker,
    /// The deployment's location caches; this machine uses its own.
    caches: Arc<Caches>,
    resharder: Arc<Resharder>,
    /// Lifecycle state of every machine; writes are gated on it.
    membership: Arc<MembershipTable>,
}

impl ElasticKvWorker {
    /// The underlying DrTM worker.
    pub fn worker(&self) -> &Worker {
        &self.w
    }

    /// Mutable access to the underlying worker.
    pub fn worker_mut(&mut self) -> &mut Worker {
        &mut self.w
    }

    /// Finds `key` in `shard`, on another machine, through this
    /// machine's location cache for it; with `read`, also READs the
    /// entry's value. A location the cache answered without a READ is
    /// checked by reading the entry under its incarnation (§5.3) — the one
    /// READ a verified hit costs, which brings the value along. One that
    /// fails its check (the key was purged by a migration, or deleted) is
    /// dropped and looked up again, at the owner.
    fn locate(
        &self,
        shard: &ClusterHash,
        key: u64,
        read: bool,
    ) -> Result<Option<Located>, FabricError> {
        let (qp, cache) = (self.w.qp(), self.caches.get(self.w.node, shard.desc().node));
        loop {
            let Some((addr, slot, reads)) = cache.try_lookup(qp, shard, key)? else {
                return Ok(None);
            };
            let hit = reads == 0;
            if !hit && !read {
                return Ok(Some((addr, None)));
            }
            match shard.try_remote_read_entry(qp, addr, &slot)? {
                Some((_, value)) => return Ok(Some((addr, Some(value)))),
                None if hit => cache.invalidate(shard, key),
                // Deleted since the lookup READ it.
                None => return Ok(None),
            }
        }
    }

    /// Reads the raw value bytes of `key` on `server` (no routing):
    /// local keys by validated HTM lookup, remote keys through
    /// [`ElasticKvWorker::locate`].
    fn value_on(&self, server: NodeId, key: u64) -> Result<Option<Vec<u8>>, TxnError> {
        let shard = self.resharder.shard(server);
        if server == self.w.node {
            return Ok(read_local(self.w.executor(), self.w.region(), &shard, key));
        }
        Ok(self.locate(&shard, key, true)?.and_then(|(_, value)| value))
    }

    /// Reads `key` through the range map, dual-reading during a cutover
    /// window: a miss on the (still primary) source forwards to the
    /// destination.
    pub fn read(&self, key: u64) -> Result<Option<u64>, TxnError> {
        let d = self.resharder.map().route(key).expect("unmapped key");
        for server in std::iter::once(d.primary).chain(d.forward) {
            if let Some(v) = self.value_on(server, key)? {
                return Ok(Some(fields(&v)[0]));
            }
        }
        Ok(None)
    }

    /// Resolves `key` to a record address on `server`, another machine.
    fn resolve(&self, server: NodeId, key: u64) -> Result<Option<RecordAddr>, TxnError> {
        let found = self.locate(&self.resharder.shard(server), key, false)?;
        Ok(found.map(|(addr, _)| RecordAddr::new(addr, VALUE_BYTES)))
    }

    /// One attempt at moving `amount` from `a` to `b` (wrapping; the
    /// sum is conserved). A frozen route records a `Migrated` abort and
    /// returns [`WriteOutcome::Frozen`] without blocking, so drivers
    /// can keep pumping other traffic during a cutover and retry later;
    /// so does a range that moved between routing and the body, or a
    /// local row gone by then (traced as the body's user abort).
    pub fn try_transfer(&mut self, a: u64, b: u64, amount: u64) -> Result<WriteOutcome, TxnError> {
        let da = self.resharder.map().route(a).expect("unmapped key");
        let db = self.resharder.map().route(b).expect("unmapped key");
        // Membership gate: a primary still `Joining` owns nothing
        // authoritatively (the routing raced an activation flip), and a
        // `Retired` primary means the resolution predates a drain —
        // both are typed, retriable routing aborts, never a wedge.
        for d in [&da, &db] {
            match self.membership.state_of(d.primary) {
                Some(NodeState::Joining) => {
                    self.w.note_abort(AbortCause::RouteJoining { node: d.primary });
                    return Ok(WriteOutcome::Frozen);
                }
                Some(NodeState::Retired) => {
                    self.w.note_abort(AbortCause::RouteRetired { node: d.primary });
                    return Ok(WriteOutcome::Frozen);
                }
                // Active and Draining machines serve writes normally
                // (per-range freezes are the range map's business).
                _ => {}
            }
        }
        if !da.writable || !db.writable {
            self.w.note_abort(AbortCause::Migrated);
            return Ok(WriteOutcome::Frozen);
        }
        // Each key is written where it lives: a local one by key, found
        // inside the transaction, a remote one at the address its
        // location cache gives.
        let shard = self.resharder.shard(self.w.node);
        let mut spec = TxnSpec::default();
        let mut declare = |key: u64, server: NodeId| -> Result<Option<WriteSlot>, TxnError> {
            if server == self.w.node {
                spec.keyed_writes.push(LocalKey { table: &shard, key });
                return Ok(Some((true, spec.keyed_writes.len() - 1)));
            }
            let Some(rec) = self.resolve(server, key)? else { return Ok(None) };
            spec.remote_writes.push(rec);
            Ok(Some((false, spec.remote_writes.len() - 1)))
        };
        let (Some(sa), Some(sb)) = (declare(a, da.primary)?, declare(b, db.primary)?) else {
            // A remote key vanished from its primary between routing and
            // resolution: a cutover raced us. Same story as a frozen
            // route — typed abort, caller retries.
            self.w.note_abort(AbortCause::Migrated);
            return Ok(WriteOutcome::Frozen);
        };
        let map = self.resharder.map();
        let r = self.w.execute(&spec, |ctx| {
            let (Some(va), Some(vb)) = (cur(ctx, sa)?, cur(ctx, sb)?) else {
                // A local row purged since routing: route again.
                return Err(Abort::Explicit(USER_ABORT));
            };
            // A purge deletes a row under its migration lock, and the
            // delete hands that lock to whoever waits for it: a writer
            // resolved before the cutover would hold a dead row. Both
            // rows are locked or in the region's read set by now, and a
            // cutover moves its range's epoch before it purges a row, so
            // unmoved epochs mean both rows are live.
            let moved = |k, d: RouteDecision| map.route(k).map(|r| r.epoch) != Some(d.epoch);
            if moved(a, da) || moved(b, db) {
                return Err(Abort::Explicit(USER_ABORT));
            }
            put(ctx, sa, va.wrapping_sub(amount))?;
            put(ctx, sb, vb.wrapping_add(amount))
        });
        match r {
            Ok(_) => Ok(WriteOutcome::Committed),
            // The epoch check: route again.
            Err(TxnError::UserAborted) => Ok(WriteOutcome::Frozen),
            Err(e) => Err(e),
        }
    }

    /// [`ElasticKvWorker::try_transfer`] that retries frozen routes
    /// until the cutover publishes (for use when another thread drives
    /// the migration).
    pub fn transfer(&mut self, a: u64, b: u64, amount: u64) -> Result<(), TxnError> {
        loop {
            match self.try_transfer(a, b, amount)? {
                WriteOutcome::Committed => return Ok(()),
                WriteOutcome::Frozen => std::thread::yield_now(),
            }
        }
    }
}

/// A remote entry's address, and its value when a READ brought it.
type Located = (GlobalAddr, Option<Vec<u8>>);

/// Where a transfer declared one of its keys: `(local, index)` in the
/// spec's keyed or remote write list.
type WriteSlot = (bool, usize);

/// The value of a transfer's key; `None`: a local key with no row.
fn cur(ctx: &mut TxnCtx<'_>, (local, i): WriteSlot) -> Result<Option<u64>, Abort> {
    if local {
        return Ok(ctx.keyed_write_cur(i)?.map(|v| first_field(&v)));
    }
    Ok(Some(first_field(ctx.remote_write_cur(i))))
}

fn put(ctx: &mut TxnCtx<'_>, (local, i): WriteSlot, v: u64) -> Result<(), Abort> {
    if local {
        ctx.keyed_write(i, &v.to_le_bytes())
    } else {
        ctx.remote_write(i, v.to_le_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_memstore::{ClusterHashDesc, MigratePhase};

    fn tiny() -> ElasticKvConfig {
        ElasticKvConfig {
            nodes: 2,
            workers: 2,
            keys_per_node: 200,
            region_size: 16 << 20,
            profile: LatencyProfile::zero(),
            drtm: DrTmConfig::default(),
            ..ElasticKvConfig::default()
        }
    }

    #[test]
    fn population_and_initial_invariant() {
        let kv = ElasticKv::build(tiny());
        assert_eq!(kv.total_value(), 2 * 200 * INIT_VALUE);
        let w = kv.worker(0, 0);
        assert_eq!(w.read(7).unwrap(), Some(INIT_VALUE));
        assert_eq!(w.read(207).unwrap(), Some(INIT_VALUE), "remote read");
        assert_eq!(w.read(207).unwrap(), Some(INIT_VALUE), "cached remote read");
        assert!(kv.cache(0, 1).stats().hits > 0, "second remote read was cached");
    }

    #[test]
    fn transfers_conserve_total_value() {
        let kv = ElasticKv::build(tiny());
        std::thread::scope(|s| {
            for n in 0..2 {
                for wid in 0..2 {
                    let mut w = kv.worker(n, wid);
                    s.spawn(move || {
                        for i in 0..100u64 {
                            let a = (n as u64 * 17 + i * 7) % 400;
                            let mut b = (a + 1 + i) % 400;
                            if b == a {
                                b = (b + 1) % 400;
                            }
                            w.transfer(a, b, 3).unwrap();
                        }
                    });
                }
            }
        });
        assert_eq!(kv.total_value(), 2 * 200 * INIT_VALUE);
        assert!(kv.sys.stats().snapshot().committed > 0);
    }

    #[test]
    fn a_warm_remote_read_of_a_lost_owner_fails_typed() {
        let kv = ElasticKv::build(tiny());
        let w = kv.worker(0, 0);
        assert_eq!(w.read(207).unwrap(), Some(INIT_VALUE), "warms node 0's cache for node 1");
        let faults = kv.sys.cluster().faults();
        faults.kill(1);
        assert_eq!(w.read(207), Err(TxnError::PeerDead(1)), "the hit's check READ fails typed");
        faults.revive(1);
        assert_eq!(w.read(207).unwrap(), Some(INIT_VALUE));
        faults.retire(1);
        assert_eq!(w.read(207), Err(TxnError::Retired(1)));
    }

    #[test]
    fn a_cached_location_of_a_purged_key_re_resolves_at_its_owner() {
        // Node 0 caches key 250's location on node 1. The key moves to
        // node 2 and back, so the cached cell is purged and the row lands
        // under a new incarnation. Nothing tells the cache: its next hit
        // fails the incarnation check and looks the key up again.
        let kv = ElasticKv::build(ElasticKvConfig { nodes: 3, ..tiny() });
        let mut w = kv.worker(0, 0);
        assert_eq!(w.read(250).unwrap(), Some(INIT_VALUE));
        kv.migrate(200, 299, 2).unwrap();
        w.transfer(250, 10, 7).unwrap();
        assert_eq!(w.read(250).unwrap(), Some(INIT_VALUE - 7), "answered by the new owner");
        kv.migrate(200, 299, 1).unwrap();
        let cache = kv.cache(0, 1);
        let before = cache.stats();
        assert_eq!(w.read(250).unwrap(), Some(INIT_VALUE - 7));
        let d = cache.stats().since(&before);
        assert_eq!((d.hits, d.invalidations, d.misses), (1, 1, 1), "one stale hit, re-resolved");
        w.transfer(250, 10, 3).unwrap();
        assert_eq!(w.read(250).unwrap(), Some(INIT_VALUE - 10));
        assert_eq!(kv.total_value(), 3 * 200 * INIT_VALUE);
    }

    #[test]
    fn migration_mid_traffic_conserves_and_aborts_typed() {
        let kv = ElasticKv::build(tiny());
        // Seed some cross-node transfers so values are not uniform.
        let mut w = kv.worker(0, 0);
        for i in 0..40u64 {
            w.transfer(i, 399 - i, 5).unwrap();
        }
        let total = kv.total_value();

        // Drive traffic from inside the migration's phase hook — fully
        // deterministic interleaving with the protocol phases.
        let hook_kv_worker = std::sync::Mutex::new(kv.worker(1, 1));
        kv.resharder().set_phase_hook(move |p| {
            let mut w = hook_kv_worker.lock().unwrap();
            match p {
                MigratePhase::Copied => {
                    // Source still writable: these transfers land on the
                    // source and must be caught by the delta pass.
                    for i in 0..10u64 {
                        assert_eq!(w.try_transfer(i, 399 - i, 1).unwrap(), WriteOutcome::Committed);
                    }
                }
                MigratePhase::CutoverDrained => {
                    // Frozen: writers abort Migrated, reads still served.
                    assert_eq!(w.try_transfer(3, 250, 1).unwrap(), WriteOutcome::Frozen);
                    assert!(w.read(3).unwrap().is_some());
                }
                MigratePhase::KeyPurged(k) => {
                    // The key is gone from the source: dual-read must
                    // forward to the destination.
                    assert!(w.read(k).unwrap().is_some(), "purged key {k} unreadable");
                }
            }
        });
        let report = kv.migrate(0, 99, 1).unwrap();
        assert!(report.copied >= 100);
        assert!(report.recopied >= 10, "raced transfers re-copied by the delta pass");
        assert_eq!(kv.map().owner_of(50), Some(1));
        assert_eq!(kv.total_value(), total, "conservation across migration");
        // Post-publish: writes to the moved range commit at the new owner.
        let mut w0 = kv.worker(0, 0);
        assert_eq!(w0.try_transfer(50, 350, 2).unwrap(), WriteOutcome::Committed);
        assert_eq!(kv.total_value(), total);
        // Typed Migrated aborts were recorded, and the hook's reads of
        // purged keys found their cached locations stale by incarnation.
        assert!(kv.sys.trace().causes().get(AbortCause::Migrated) >= 1);
        assert!(kv.cache(1, 0).stats().invalidations > 0, "a stale hit failed its check");
        // No leaked migration locks on either shard.
        for n in 0..2u16 {
            let region = kv.sys.cluster().node(n).region();
            for row in kv.shard(n).collect_range_nt(region, 0, 399) {
                assert_eq!(region.read_u64_nt(row.entry_off), 0, "leaked lock on {}", row.key);
            }
        }
    }

    #[test]
    fn join_then_leave_round_trip_serves_from_every_geometry() {
        let kv = ElasticKv::build(ElasticKvConfig { max_nodes: 3, ..tiny() });
        let total = 2 * 200 * INIT_VALUE;

        // Join: each founding machine donates the upper half of its
        // range to the newcomer, which then serves as a full member.
        let join = kv.join_node().expect("join");
        assert_eq!(join.node, 2);
        assert_eq!(join.ranges_in, vec![(100, 199, 0), (300, 399, 1)]);
        assert_eq!(join.keys_moved, 200);
        assert_eq!(kv.membership().state_of(2), Some(NodeState::Active));
        assert_eq!(kv.map().owner_of(150), Some(2));
        assert_eq!(kv.map().owner_of(350), Some(2));
        assert_eq!(kv.total_value(), total, "conservation across the join");

        // Transfers into the donated ranges commit on the new owner, and
        // reads resolve there.
        let mut w = kv.worker(0, 0);
        assert_eq!(w.try_transfer(150, 10, 7).unwrap(), WriteOutcome::Committed);
        assert_eq!(w.read(150).unwrap(), Some(INIT_VALUE - 7));
        assert_eq!(kv.total_value(), total);

        // Leave: the ranges drain back round-robin (ascending receiver
        // ids) and the machine retires with a clean quiesce.
        let leave = kv.leave_node(2, 0).expect("leave");
        assert_eq!(leave.ranges_out, vec![(100, 199, 0), (300, 399, 1)]);
        assert_eq!(leave.keys_moved, 200);
        assert_eq!(leave.quiesce, drtm_core::RecoveryReport::default());
        assert_eq!(kv.membership().state_of(2), Some(NodeState::Retired));
        assert!(kv.map().ranges_owned_by(2).is_empty());
        assert_eq!(kv.map().owner_of(150), Some(0));
        assert_eq!(kv.map().owner_of(350), Some(1));
        assert_eq!(kv.total_value(), total, "conservation across the leave");

        // The survivors serve the whole keyspace again.
        assert_eq!(w.try_transfer(150, 350, 3).unwrap(), WriteOutcome::Committed);
        assert_eq!(kv.total_value(), total);

        // Retirement is typed at the fabric and terminal at the table.
        assert!(kv.sys.cluster().faults().is_retired(2));
        assert_eq!(
            kv.leave_node(2, 0).unwrap_err(),
            MembershipError::WrongState { node: 2, state: Some(NodeState::Retired) }
        );
    }

    /// A writer routed before a cutover that takes a purged row's lock
    /// after the purge's delete released it holds a dead cell: it must
    /// write nothing there. Node 0's writer moves 1 from key 205 (node 1)
    /// to its own key 5, whose lock the test parks, so ordered 2PL waits
    /// on key 5 first, holding nothing, while all of 205's range moves.
    #[test]
    fn a_writer_that_waited_out_a_purge_writes_no_dead_row() {
        let kv = ElasticKv::build(tiny());
        let region0 = kv.sys.cluster().node(0).region();
        let five = kv.shard(0).collect_range_nt(region0, 5, 5)[0].entry_off;
        let parked = LockState::write_locked(1).0;
        assert_eq!(region0.cas_u64_nt(five, 0, parked), 0);
        let mut w = kv.worker(0, 0);
        std::thread::scope(|s| {
            let writer = s.spawn(move || w.try_transfer(205, 5, 1));
            let trace = kv.sys.trace();
            let t0 = std::time::Instant::now();
            while trace.causes().get(AbortCause::FallbackWait) == 0 {
                assert!(t0.elapsed().as_secs() < 5, "the writer never waited on key 5");
                std::thread::yield_now();
            }
            kv.migrate(200, 209, 0).unwrap();
            assert_eq!(region0.cas_u64_nt(five, parked, 0), parked);
            let outcome = writer.join().expect("writer thread").unwrap();
            assert_eq!(outcome, WriteOutcome::Frozen, "the range moved since routing");
        });
        assert_eq!(kv.total_value(), 2 * 200 * INIT_VALUE, "a write landed in a purged row");
        let mut w = kv.worker(0, 0);
        w.transfer(205, 5, 1).unwrap();
        assert_eq!(
            (w.read(205).unwrap(), w.read(5).unwrap()),
            (Some(INIT_VALUE - 1), Some(INIT_VALUE + 1))
        );
    }

    #[test]
    fn a_joined_machine_carves_its_shard_where_the_founders_did() {
        // The joiner's store arena comes from the function the founders'
        // came from, so nothing but the owner tells the shards apart.
        let kv = ElasticKv::build(ElasticKvConfig { max_nodes: 3, ..tiny() });
        let joined = kv.join_node().expect("join").node;
        let founder = kv.shard(0).desc().clone();
        assert_eq!(*kv.shard(joined).desc(), ClusterHashDesc { node: joined, ..founder });
    }

    #[test]
    fn refused_join_leaves_the_cluster_untouched() {
        // One donor more than the membership journal can describe.
        let nodes = drtm_core::MAX_JOURNAL_RANGES + 1;
        let kv = ElasticKv::build(ElasticKvConfig {
            nodes,
            max_nodes: nodes + 2,
            workers: 1,
            keys_per_node: 4,
            region_size: 1 << 20,
            ..tiny()
        });
        let total = nodes as u64 * 4 * INIT_VALUE;
        let table = kv.membership().snapshot();
        assert_eq!(kv.join_node().unwrap_err(), MembershipError::JournalFull);
        // The refusal grew nothing: no fabric slot, no table entry.
        assert_eq!(kv.sys.cluster().num_nodes(), nodes);
        assert_eq!(kv.membership().snapshot(), table);
        // One machine fewer fits the journal, and the next join gets the
        // id the refused one never took.
        let last = nodes as NodeId - 1;
        kv.leave_node(last, 0).expect("leave");
        let join = kv.join_node().expect("the join after a refused one");
        assert_eq!(join.node, nodes as NodeId);
        assert_eq!(kv.membership().state_of(join.node), Some(NodeState::Active));
        assert_eq!(kv.total_value(), total, "conservation");
    }

    #[test]
    fn membership_gate_records_typed_routing_aborts() {
        let kv = ElasticKv::build(tiny());
        let mut w = kv.worker(0, 0);

        // A primary still Joining owns nothing authoritatively: the
        // write aborts typed and retriable, never wedges.
        kv.membership().set(1, NodeState::Joining);
        assert_eq!(w.try_transfer(5, 205, 1).unwrap(), WriteOutcome::Frozen);
        assert_eq!(kv.sys.trace().causes().get(AbortCause::RouteJoining { node: 1 }), 1);

        // A Retired primary means the resolution predates a drain.
        kv.membership().set(1, NodeState::Retired);
        assert_eq!(w.try_transfer(5, 205, 1).unwrap(), WriteOutcome::Frozen);
        assert_eq!(kv.sys.trace().causes().get(AbortCause::RouteRetired { node: 1 }), 1);

        // Draining machines keep serving; Active obviously too.
        kv.membership().set(1, NodeState::Draining);
        assert_eq!(w.try_transfer(5, 205, 1).unwrap(), WriteOutcome::Committed);
        kv.membership().set(1, NodeState::Active);
        assert_eq!(w.try_transfer(5, 205, 1).unwrap(), WriteOutcome::Committed);
        assert_eq!(kv.total_value(), 2 * 200 * INIT_VALUE);
    }
}
