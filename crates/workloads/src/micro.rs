//! Read-lease micro-benchmarks (§7.4, Figure 17).
//!
//! Both transactions share the new-order shape (10 records, one home
//! node, 10 % of accesses remote) but are easier to steer:
//!
//! * **read-write** — a configurable fraction of the 10 accesses are
//!   pure reads. Without the read lease every remote access must take
//!   the exclusive lock, so the read ratio barely helps; with leases,
//!   read-read sharing exposes the parallelism.
//! * **hotspot** — one of the 10 records is a *read* of a record drawn
//!   from a small global hot set (120 records, evenly spread over the
//!   machines). Leases let all machines share the hot records.
//!
//! "Without read lease" is modelled exactly as the paper describes: the
//! transaction declares reads as writes, so remote reads acquire the
//! exclusive lock.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::Rng;

use drtm_core::{Deployment, DrTm, DrTmConfig, RecordAddr, TxnError, TxnSpec};
use drtm_rdma::{ClusterConfig, LatencyProfile, NodeId};

use crate::dist::rng;
use crate::resolve::Table;
use crate::{first_field, pack_fields};

/// Key base of the dedicated hot-record range (disjoint from the
/// uniform pool so hot leases never block ordinary writers, §7.4).
pub const HOT_BASE: u64 = 1 << 40;

/// Micro-benchmark sizing.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Simulated machines.
    pub nodes: usize,
    /// Worker threads per machine.
    pub workers: usize,
    /// Records per machine.
    pub records_per_node: u64,
    /// Records accessed per transaction (paper: 10).
    pub accesses: usize,
    /// Probability an access is remote (paper: 10 % cross-warehouse).
    pub remote_prob: f64,
    /// Whether the read lease is enabled; when off, reads are declared
    /// as writes (exclusive locking), as in the paper's baseline.
    pub read_lease: bool,
    /// Total hot records, spread evenly across machines (paper: 120).
    pub hot_records: u64,
    /// Region bytes per machine.
    pub region_size: usize,
    /// Network cost model.
    pub profile: LatencyProfile,
    /// Transaction-layer configuration.
    pub drtm: DrTmConfig,
    /// Softtime timer interval in µs (§6.1, Figure 11's x-axis).
    pub softtime_interval_us: u64,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig {
            nodes: 2,
            workers: 2,
            records_per_node: 10_000,
            accesses: 10,
            remote_prob: 0.10,
            read_lease: true,
            hot_records: 120,
            region_size: 64 << 20,
            profile: LatencyProfile::rdma(),
            drtm: DrTmConfig::default(),
            softtime_interval_us: 200,
        }
    }
}

/// A built micro-benchmark deployment.
pub struct Micro {
    /// The transaction system.
    pub sys: Arc<DrTm>,
    /// The single record table.
    pub table: Arc<Table>,
    /// The configuration it was built with.
    pub cfg: MicroConfig,
}

impl Micro {
    /// Builds and populates the deployment.
    pub fn build(cfg: MicroConfig) -> Micro {
        let cluster = ClusterConfig {
            nodes: cfg.nodes,
            region_size: cfg.region_size,
            profile: cfg.profile.clone(),
            ..Default::default()
        };
        let mut dep = Deployment::new(cluster, cfg.drtm.clone(), cfg.workers);
        let shards = dep.hash(
            cfg.records_per_node as usize / 4,
            cfg.records_per_node as usize + cfg.hot_records as usize + 1,
            8,
        );
        for n in dep.nodes() {
            let (t, region) = (&shards[n as usize], dep.region(n));
            for k in 0..cfg.records_per_node {
                let gid = n as u64 * cfg.records_per_node + k;
                t.insert(dep.exec(), region, gid, &pack_fields(&[0])).expect("populate");
            }
            // The hot set is disjoint from the normal pool (paper §7.4:
            // hot records are a dedicated small set, evenly assigned to
            // machines) so ordinary writes never collide with hot leases.
            for h in 0..cfg.hot_records {
                if (h as usize) % cfg.nodes == n as usize {
                    t.insert(dep.exec(), region, HOT_BASE + h, &pack_fields(&[0])).expect("hot");
                }
            }
        }
        let sys = dep.start(Duration::from_micros(cfg.softtime_interval_us));
        Micro { sys, table: Arc::new(Table::new(shards)), cfg }
    }

    /// Creates a per-thread driver.
    pub fn worker(&self, node: NodeId, worker_id: usize) -> MicroWorker {
        MicroWorker {
            w: self.sys.worker(node, worker_id),
            table: self.table.clone(),
            cfg: self.cfg.clone(),
            rng: rng((node as u64) << 24 | worker_id as u64),
        }
    }
}

/// Per-thread micro-benchmark driver.
pub struct MicroWorker {
    w: drtm_core::Worker,
    table: Arc<Table>,
    cfg: MicroConfig,
    rng: SmallRng,
}

impl MicroWorker {
    fn pick(&mut self) -> (NodeId, u64) {
        let node = if self.cfg.nodes > 1 && self.rng.gen_bool(self.cfg.remote_prob) {
            let mut n = self.rng.gen_range(0..self.cfg.nodes as NodeId);
            if n == self.w.node {
                n = (n + 1) % self.cfg.nodes as NodeId;
            }
            n
        } else {
            self.w.node
        };
        (
            node,
            node as u64 * self.cfg.records_per_node
                + self.rng.gen_range(0..self.cfg.records_per_node),
        )
    }

    fn pick_hot(&mut self) -> (NodeId, u64) {
        let h = self.rng.gen_range(0..self.cfg.hot_records);
        let node = (h as usize % self.cfg.nodes) as NodeId;
        (node, HOT_BASE + h)
    }

    /// The address of `key`'s record on another machine, through the
    /// location cache: what Start locks or leases with one-sided verbs.
    fn remote(&self, node: NodeId, key: u64) -> RecordAddr {
        debug_assert_ne!(node, self.w.node, "a local record is declared by key");
        self.table.resolve(&self.w, node, key).expect("populated")
    }

    /// The read-write transaction: `reads` of the 10 accesses are pure
    /// reads, the rest read-modify-write.
    pub fn read_write(&mut self, reads: usize) -> &'static str {
        let mut picks = Vec::with_capacity(self.cfg.accesses);
        for a in 0..self.cfg.accesses {
            picks.push((self.pick_fresh(&picks), a < reads));
        }
        self.run(&picks);
        "read_write"
    }

    /// The hotspot transaction: one access reads a globally hot record.
    pub fn hotspot(&mut self) -> &'static str {
        let mut picks = vec![(self.pick_hot(), true)];
        for _ in 1..self.cfg.accesses {
            picks.push((self.pick_fresh(&picks), false));
        }
        self.run(&picks);
        "hotspot"
    }

    /// Draws until the key is none of `picks`': a transaction declares a
    /// record once.
    fn pick_fresh(&mut self, picks: &[Pick]) -> (NodeId, u64) {
        loop {
            let (node, key) = self.pick();
            if picks.iter().all(|&((_, picked), _)| picked != key) {
                break (node, key);
            }
        }
    }

    /// Declares every pick — a local record by key, a remote one by
    /// address — and runs the transaction. Without the read lease a
    /// remote read is declared as an exclusive write.
    fn run(&mut self, picks: &[Pick]) {
        fn push<T>(list: &mut Vec<T>, item: T) -> usize {
            list.push(item);
            list.len() - 1
        }
        // The spec borrows the `table` field alone, not `self` through
        // the closure, so `self.w` is free for `execute` below.
        let (table, mut spec) = (&self.table, TxnSpec::default());
        let declare = |&((node, key), is_read): &Pick| match (is_read, node != self.w.node) {
            (true, true) if self.cfg.read_lease => {
                Slot::RemoteRead(push(&mut spec.remote_reads, self.remote(node, key)))
            }
            (true, true) => {
                Slot::RemoteLocked(push(&mut spec.remote_writes, self.remote(node, key)))
            }
            (false, true) => {
                Slot::RemoteWrite(push(&mut spec.remote_writes, self.remote(node, key)))
            }
            (true, false) => Slot::Read(push(&mut spec.keyed_reads, table.local(node, key))),
            (false, false) => Slot::Write(push(&mut spec.keyed_writes, table.local(node, key))),
        };
        let slots: Vec<Slot> = picks.iter().map(declare).collect();
        let r = self.w.execute(&spec, |ctx| {
            for &slot in &slots {
                match slot {
                    Slot::RemoteRead(i) => _ = first_field(ctx.remote_read(i)),
                    Slot::RemoteLocked(i) => _ = first_field(ctx.remote_write_cur(i)),
                    Slot::Read(i) => _ = first_field(ctx.keyed_read(i)?.expect("populated")),
                    Slot::RemoteWrite(i) => {
                        let v = first_field(ctx.remote_write_cur(i));
                        ctx.remote_write(i, v.wrapping_add(1).to_le_bytes());
                    }
                    Slot::Write(i) => {
                        let v = first_field(&ctx.keyed_write_cur(i)?.expect("populated"));
                        ctx.keyed_write(i, &v.wrapping_add(1).to_le_bytes())?;
                    }
                }
            }
            Ok(())
        });
        match r {
            Ok(()) | Err(TxnError::UserAborted) => {}
            Err(e) => panic!("unexpected transaction failure: {e:?}"),
        }
    }
}

/// One access drawn for a transaction: `((home, key), is_read)`.
type Pick = ((NodeId, u64), bool);

/// Where an access was declared: the list of the spec and the index in
/// it. `RemoteLocked` is locked like a write but not written back.
#[derive(Clone, Copy)]
enum Slot {
    RemoteRead(usize),
    RemoteLocked(usize),
    RemoteWrite(usize),
    Read(usize),
    Write(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(lease: bool) -> MicroConfig {
        MicroConfig {
            nodes: 2,
            workers: 1,
            records_per_node: 200,
            accesses: 6,
            remote_prob: 0.4,
            read_lease: lease,
            hot_records: 8,
            region_size: 16 << 20,
            profile: LatencyProfile::zero(),
            drtm: DrTmConfig::default(),
            softtime_interval_us: 200,
        }
    }

    #[test]
    fn read_write_commits_with_and_without_lease() {
        for lease in [true, false] {
            let m = Micro::build(tiny(lease));
            let mut w = m.worker(0, 0);
            for _ in 0..20 {
                w.read_write(3);
            }
            assert!(m.sys.stats().snapshot().committed >= 20);
        }
    }

    #[test]
    fn hotspot_commits() {
        let m = Micro::build(tiny(true));
        let mut w = m.worker(0, 0);
        for _ in 0..10 {
            w.hotspot();
        }
        assert!(m.sys.stats().snapshot().committed >= 10);
    }

    #[test]
    fn an_all_local_transaction_is_one_region() {
        // Nothing remote, one worker: HTM commits count regions — the
        // transaction's own, with every key walk inside it.
        let m = Micro::build(MicroConfig { remote_prob: 0.0, nodes: 1, ..tiny(true) });
        let mut w = m.worker(0, 0);
        for i in 0..40 {
            let before = m.sys.htm_stats().snapshot();
            let label = if i % 2 == 0 { w.read_write(5) } else { w.hotspot() };
            let d = m.sys.htm_stats().snapshot().since(&before);
            assert_eq!((d.commits, d.total_aborts()), (1, 0), "{label}");
        }
        assert_eq!(m.sys.stats().snapshot().committed, 40);
    }

    #[test]
    fn lease_mode_shares_reads() {
        // With leases, two workers remote-reading the same hot record
        // must not conflict at the lock level: the second read shares.
        let m = Micro::build(tiny(true));
        let rec = m.worker(0, 0).remote(1, 200);
        let mut w = m.sys.worker(0, 0);
        let spec = TxnSpec { remote_reads: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| Ok(first_field(ctx.remote_read(0)))).unwrap();
        let before = m.sys.stats().snapshot().start_conflicts;
        w.execute(&spec, |ctx| Ok(first_field(ctx.remote_read(0)))).unwrap();
        assert_eq!(m.sys.stats().snapshot().start_conflicts, before, "shared lease, no conflict");
    }
}
