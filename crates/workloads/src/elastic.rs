//! Elastic KV workload: transactions over the resizable, reshardable
//! memstore.
//!
//! Unlike the static workloads ([`crate::smallbank`], [`crate::tpcc`]),
//! a key's home here is decided by a live [`RangeMap`] instead of a
//! fixed modulus, and two things can change mid-run:
//!
//! * **resize** — any node's [`ElasticHash`] can double its bucket
//!   array ([`ElasticKv::grow`]) without blocking readers; lookups pay
//!   at most extra chain hops (measured in [`ElasticStats`]);
//! * **resharding** — a key range can migrate between machines
//!   ([`ElasticKv::migrate`]) while transactions keep running. During
//!   the cutover window the router reports `writable = false` and
//!   writers abort with the typed [`AbortCause::Migrated`] cause, to
//!   retry after publish; reads dual-read source-then-destination
//!   ([`ElasticKvWorker::read`]), counting forced misses in the
//!   client-side [`AddrCache`].
//!
//! The canonical transaction is a two-key `transfer` that conserves the
//! total value — the invariant the chaos harness checks across crashes
//! and migrations.

use std::sync::{Arc, Mutex};

use drtm_core::{
    Abort, AbortCause, Deployment, DrTm, DrTmConfig, JoinReport, LeaveReport, LockState,
    MembershipCoordinator, MembershipError, MembershipTable, NodeRecovery, NodeState, RecordAddr,
    TxnCtx, TxnError, TxnSpec, Worker, SOFTTIME_INTERVAL,
};
use drtm_htm::{Executor, HtmStats, Region};
use drtm_memstore::rpc::spawn_store_service;
use drtm_memstore::{
    AddrCache, Arena, ElasticHash, ElasticStats, MigrationReport, RangeMap, ReshardStats, Resharder,
};
use drtm_rdma::rpc::Service;
use drtm_rdma::{
    ClusterConfig, DoorbellConfig, FabricError, FaultConfig, GlobalAddr, LatencyProfile, NodeId,
};

use crate::{fields, pack_fields};

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
    /// Initial bucket count of every shard (small on purpose: inserts
    /// drive online doublings).
    pub init_buckets: usize,
    /// Bucket-directory capacity (upper bound of doubling).
    pub max_buckets: usize,
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
            init_buckets: 16,
            max_buckets: 4_096,
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
    /// Owns the range map and the per-node registries: shard `n` and
    /// address cache `n` belong to machine `n`; both grow under a join.
    resharder: Arc<Resharder>,
    coordinator: Arc<MembershipCoordinator>,
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
        // What every machine gets, founding or joined later: an (empty)
        // shard at the head of its store arena, its store service, shard
        // and address cache registered with the resharder.
        let provision = {
            let (resharder, services, cfg) = (resharder.clone(), services.clone(), cfg.clone());
            move |node: NodeId, mut arena: Arena| {
                let shard = Arc::new(ElasticHash::create(
                    &mut arena,
                    cluster.node(node).region(),
                    node,
                    cfg.init_buckets,
                    cfg.max_buckets,
                    // A shard must be able to absorb every other node's ranges.
                    (cfg.keys_per_node as usize) * cfg.nodes + 64,
                    VALUE_BYTES,
                ));
                services.lock().expect("service lock poisoned").push(spawn_store_service(
                    cluster.clone(),
                    node,
                    vec![shard.clone()],
                    exec.clone(),
                ));
                resharder.add_shard(shard);
                let cells = (cfg.keys_per_node as usize).next_power_of_two();
                resharder.register_cache(Arc::new(AddrCache::new(cells)));
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
        ElasticKv { sys, resharder, coordinator, cfg, _services: services }
    }

    /// Creates a per-thread workload driver for `(node, worker_id)`.
    pub fn worker(&self, node: NodeId, worker_id: usize) -> ElasticKvWorker {
        ElasticKvWorker {
            w: self.sys.worker(node, worker_id),
            cache: self.cache(node),
            resharder: self.resharder.clone(),
            membership: self.coordinator.table().clone(),
        }
    }

    /// The live key-range → owner map.
    pub fn map(&self) -> &Arc<RangeMap> {
        self.resharder.map()
    }

    /// The resharder (phase hooks, migration stats).
    pub fn resharder(&self) -> &Arc<Resharder> {
        &self.resharder
    }

    /// The shard owned by `node`.
    pub fn shard(&self, node: NodeId) -> Arc<ElasticHash> {
        self.resharder.shard(node)
    }

    /// The address cache of client machine `node`.
    pub fn cache(&self, node: NodeId) -> Arc<AddrCache> {
        self.resharder.cache(node as usize)
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

    /// Driver hook: doubles `node`'s bucket array once (readers never
    /// block). Returns whether the doubling happened.
    pub fn grow(&self, node: NodeId) -> bool {
        self.shard(node).grow(self.sys.cluster().node(node).region())
    }

    /// Driver hook: migrates `[lo, hi]` to `dst` while traffic runs.
    pub fn migrate(&self, lo: u64, hi: u64, dst: NodeId) -> Result<MigrationReport, FabricError> {
        self.resharder.migrate(lo, hi, dst)
    }

    /// Migration counters.
    pub fn reshard_stats(&self) -> ReshardStats {
        self.resharder.stats()
    }

    /// Sum of per-shard resize counters (grows, lookups, extra hops).
    pub fn elastic_stats(&self) -> ElasticStats {
        let total = ElasticStats::default();
        self.resharder.shards().iter().fold(total, |total, s| total.merge(&s.stats()))
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
    /// This machine's address cache.
    cache: Arc<AddrCache>,
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

    /// Reads the raw value bytes of `key` on `server` (no routing):
    /// local keys by validated HTM lookup, remote keys through this
    /// machine's address cache ([`AddrCache::try_lookup`]: a hit comes
    /// back with the entry its verification read, a miss is read here).
    fn value_on(&self, server: NodeId, key: u64) -> Result<Option<Vec<u8>>, TxnError> {
        let shard = self.resharder.shard(server);
        if server == self.w.node {
            return Ok(read_local(self.w.executor(), self.w.region(), &shard, key));
        }
        let Some(found) = self.cache.try_lookup(self.w.qp(), &shard, key)? else {
            return Ok(None);
        };
        let entry =
            found.entry.or_else(|| shard.remote_read_entry(self.w.qp(), found.addr, &found.slot));
        Ok(entry.map(|(_, v)| v))
    }

    /// Reads `key` through the range map, dual-reading during a cutover
    /// window: a miss on the (still primary) source forwards to the
    /// destination and counts a forced miss.
    pub fn read(&self, key: u64) -> Result<Option<u64>, TxnError> {
        let d = self.resharder.map().route(key).expect("unmapped key");
        if let Some(v) = self.value_on(d.primary, key)? {
            return Ok(Some(fields(&v)[0]));
        }
        if let Some(fwd) = d.forward {
            self.cache.note_forced_miss();
            if let Some(v) = self.value_on(fwd, key)? {
                return Ok(Some(fields(&v)[0]));
            }
        }
        Ok(None)
    }

    /// Resolves `key` to a record address on `server`.
    fn resolve(&self, server: NodeId, key: u64) -> Result<Option<RecordAddr>, TxnError> {
        let shard = self.resharder.shard(server);
        let addr = if server == self.w.node {
            let found = self.w.executor().run(self.w.region(), |txn| shard.get_local(txn, key));
            found.expect("a lookup never aborts itself").map(|e| GlobalAddr::new(server, e.offset))
        } else {
            self.cache.try_lookup(self.w.qp(), &shard, key)?.map(|found| found.addr)
        };
        Ok(addr.map(|a| RecordAddr::new(a, VALUE_BYTES)))
    }

    /// One attempt at moving `amount` from `a` to `b` (wrapping; the
    /// sum is conserved). A frozen route records a `Migrated` abort and
    /// returns [`WriteOutcome::Frozen`] without blocking, so drivers
    /// can keep pumping other traffic during a cutover and retry later.
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
        let ra = self.resolve(da.primary, a)?;
        let rb = self.resolve(db.primary, b)?;
        let (Some(ra), Some(rb)) = (ra, rb) else {
            // The key vanished from its primary between routing and
            // resolution: a cutover raced us. Same story as a frozen
            // route — typed abort, caller retries.
            self.w.note_abort(AbortCause::Migrated);
            return Ok(WriteOutcome::Frozen);
        };
        // Each key is written where it lives.
        let mut spec = TxnSpec::default();
        let mut declare = |rec: RecordAddr| {
            let local = rec.addr.node == self.w.node;
            let list = if local { &mut spec.local_writes } else { &mut spec.remote_writes };
            list.push(rec);
            (local, list.len() - 1)
        };
        let (sa, sb) = (declare(ra), declare(rb));
        let r = self.w.execute(&spec, |ctx| {
            let (va, vb) = (cur(ctx, sa)?, cur(ctx, sb)?);
            put(ctx, sa, va.wrapping_sub(amount))?;
            put(ctx, sb, vb.wrapping_add(amount))
        });
        match r {
            Ok(_) | Err(TxnError::UserAborted) => Ok(WriteOutcome::Committed),
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

/// Where a transfer declared one of its keys: `(local, index)` in the
/// spec's local or remote write list.
type WriteSlot = (bool, usize);

fn cur(ctx: &mut TxnCtx<'_>, (local, i): WriteSlot) -> Result<u64, Abort> {
    Ok(if local { fields(&ctx.local_write_cur(i)?)[0] } else { fields(ctx.remote_write_cur(i))[0] })
}

fn put(ctx: &mut TxnCtx<'_>, (local, i): WriteSlot, v: u64) -> Result<(), Abort> {
    if local {
        ctx.local_write(i, &pack_fields(&[v]))
    } else {
        ctx.remote_write(i, pack_fields(&[v]));
        Ok(())
    }
}

/// Validated read of `key`'s value bytes in the shard of `region`'s node.
fn read_local(exec: &Executor, region: &Region, shard: &ElasticHash, key: u64) -> Option<Vec<u8>> {
    let value = exec.run(region, |txn| match shard.get_local(txn, key)? {
        Some(e) => e.read_value(txn).map(Some),
        None => Ok(None),
    });
    value.expect("a read never aborts itself")
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_memstore::{ElasticHashDesc, MigratePhase};

    fn tiny() -> ElasticKvConfig {
        ElasticKvConfig {
            nodes: 2,
            workers: 2,
            keys_per_node: 200,
            init_buckets: 4,
            max_buckets: 1024,
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
        assert!(kv.cache(0).stats().hits > 0, "second remote read was cached");
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
    fn online_grow_keeps_lookups_correct() {
        let kv = ElasticKv::build(tiny());
        let w = kv.worker(1, 0);
        let before = kv.shard(0).buckets();
        assert!(kv.grow(0));
        assert!(kv.grow(0));
        assert_eq!(kv.shard(0).buckets(), before * 4);
        for k in (0..200).step_by(17) {
            assert_eq!(w.read(k).unwrap(), Some(INIT_VALUE), "key {k} after doubling");
        }
        assert!(kv.elastic_stats().grows >= 2);
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
        // Typed Migrated aborts were recorded, and forced misses counted.
        assert!(kv.sys.trace().causes().get(AbortCause::Migrated) >= 1);
        let cs = kv.cache(1).stats();
        assert!(cs.forced_misses > 0, "dual-read window exercised");
        assert!(cs.migration_invalidations > 0, "cutover invalidated client cache");
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

    #[test]
    fn a_joined_machine_carves_its_shard_where_the_founders_did() {
        // The joiner's store arena comes from the function the founders'
        // came from, so nothing but the owner tells the shards apart.
        let kv = ElasticKv::build(ElasticKvConfig { max_nodes: 3, ..tiny() });
        let joined = kv.join_node().expect("join").node;
        let founder = kv.shard(0).desc().clone();
        assert_eq!(*kv.shard(joined).desc(), ElasticHashDesc { node: joined, ..founder });
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
