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
use crate::{fields, pack_fields};

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

    /// The read-write transaction: `reads` of the 10 accesses are pure
    /// reads, the rest read-modify-write.
    pub fn read_write(&mut self, reads: usize) -> &'static str {
        let mut spec = TxnSpec::default();
        let mut ops: Vec<(bool, bool, usize)> = Vec::new(); // (is_read, remote, idx)
        let mut seen = std::collections::HashSet::new();
        for a in 0..self.cfg.accesses {
            let (node, key) = loop {
                let (n, k) = self.pick();
                if seen.insert(k) {
                    break (n, k);
                }
            };
            let rec = self.table.resolve(&self.w, node, key).expect("populated");
            let is_read = a < reads;
            let remote = node != self.w.node;
            let idx = self.place(&mut spec, rec, is_read, remote);
            ops.push((is_read, remote, idx));
        }
        self.execute(&spec, &ops);
        "read_write"
    }

    /// The hotspot transaction: one access reads a globally hot record.
    pub fn hotspot(&mut self) -> &'static str {
        let mut spec = TxnSpec::default();
        let mut ops: Vec<(bool, bool, usize)> = Vec::new();
        let (hn, hk) = self.pick_hot();
        let hrec = self.table.resolve(&self.w, hn, hk).expect("hot record");
        let hremote = hn != self.w.node;
        let idx = self.place(&mut spec, hrec, true, hremote);
        ops.push((true, hremote, idx));
        let mut seen = std::collections::HashSet::from([hk]);
        for _ in 1..self.cfg.accesses {
            let (node, key) = loop {
                let (n, k) = self.pick();
                if seen.insert(k) {
                    break (n, k);
                }
            };
            let rec = self.table.resolve(&self.w, node, key).expect("populated");
            let remote = node != self.w.node;
            let idx = self.place(&mut spec, rec, false, remote);
            ops.push((false, remote, idx));
        }
        self.execute(&spec, &ops);
        "hotspot"
    }

    /// Places a record into the spec honouring the read-lease switch:
    /// without leases, remote reads are declared as exclusive writes.
    fn place(&self, spec: &mut TxnSpec, rec: RecordAddr, is_read: bool, remote: bool) -> usize {
        match (is_read, remote, self.cfg.read_lease) {
            (true, true, true) => {
                spec.remote_reads.push(rec);
                spec.remote_reads.len() - 1
            }
            (true, true, false) | (false, true, _) => {
                spec.remote_writes.push(rec);
                spec.remote_writes.len() - 1
            }
            (true, false, _) => {
                spec.local_reads.push(rec);
                spec.local_reads.len() - 1
            }
            (false, false, _) => {
                spec.local_writes.push(rec);
                spec.local_writes.len() - 1
            }
        }
    }

    fn execute(&mut self, spec: &TxnSpec, ops: &[(bool, bool, usize)]) {
        let lease = self.cfg.read_lease;
        let r = self.w.execute(spec, |ctx| {
            for &(is_read, remote, idx) in ops {
                match (is_read, remote) {
                    (true, true) => {
                        if lease {
                            let _ = fields(ctx.remote_read(idx));
                        } else {
                            // Locked like a write but not written back.
                            let _ = fields(ctx.remote_write_cur(idx));
                        }
                    }
                    (true, false) => {
                        let _ = fields(&ctx.local_read(idx)?);
                    }
                    (false, true) => {
                        let v = fields(ctx.remote_write_cur(idx))[0];
                        ctx.remote_write(idx, pack_fields(&[v.wrapping_add(1)]));
                    }
                    (false, false) => {
                        let v = fields(&ctx.local_write_cur(idx)?)[0];
                        ctx.local_write(idx, &pack_fields(&[v.wrapping_add(1)]))?;
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
    fn lease_mode_shares_reads() {
        // With leases, two workers remote-reading the same hot record
        // must not conflict at the lock level: the second read shares.
        let m = Micro::build(tiny(true));
        let rec = m.table.resolve(&m.worker(0, 0).w, 1, 200).expect("record");
        let mut w = m.sys.worker(0, 0);
        let spec = TxnSpec { remote_reads: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| Ok(fields(ctx.remote_read(0))[0])).unwrap();
        let before = m.sys.stats().snapshot().start_conflicts;
        w.execute(&spec, |ctx| Ok(fields(ctx.remote_read(0))[0])).unwrap();
        assert_eq!(m.sys.stats().snapshot().start_conflicts, before, "shared lease, no conflict");
    }
}
