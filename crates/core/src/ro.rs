//! Read-only transactions (§4.5, Figure 8).
//!
//! Read-only transactions often touch hundreds of records and would blow
//! the HTM capacity, so DrTM executes them *without* HTM: every record is
//! lease-locked in shared mode with the **same** end time and fetched;
//! at the end a single softtime comparison against that common end time
//! confirms that all leases were still valid — replacing the two-round
//! re-execution of OCC-style schemes with one check.
//!
//! Because the read set of scans (TPC-C order-status/stock-level) is not
//! known in advance, [`RoCtx`] exposes incremental acquisition, next to
//! the worker's validated stand-alone scans ([`Worker::recon`]).
//!
//! Read-only transactions are **durable-free** (the DUMBO observation):
//! they update nothing, so even with logging enabled they stage no
//! lock-ahead or write-ahead record and wait on no `log_done` marker —
//! zero log traffic, asserted by the `log_writes`/`log_bytes`/
//! `log_done_waits` counters in [`crate::TxnStatsSnapshot`].

use drtm_htm::{Abort, Steps};

use crate::record::{self, lease_unconfirmed, RecordAddr};
use crate::state::DELTA_US;
use crate::time::softtime_nt;
use crate::txn::{TxnError, Worker};

/// Length of the lease every read-only transaction takes, in µs: the
/// paper's 1.0 ms (§4.5) stretched 2×, as `DrTmConfig::lease_us`
/// stretches the paper's 0.4 ms read-write lease, because leases end in
/// wall time on an oversubscribed host (until ROADMAP's virtual
/// softtime gives leases the paper's lengths). At least
/// `lease_us`, as §4.3 has it.
pub const RO_LEASE_US: u64 = 2_000;

/// Internal signal: a record was locked or a lease could not be acquired;
/// the read-only transaction restarts with a fresh end time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoRestart;

/// Context for one attempt of a read-only transaction.
pub struct RoCtx<'w> {
    worker: &'w mut Worker,
    /// Common lease end time of this attempt.
    pub end_us: u64,
    now_us: u64,
    /// Smallest lease end actually covering this attempt (shared leases
    /// may end earlier than `end_us`).
    min_end_us: u64,
    /// Set when an acquisition met a crashed or retired machine (the
    /// record's, or its write lock's owner): retrying is pointless until
    /// recovery runs (crash) or the key is re-resolved (retirement).
    fatal: Option<TxnError>,
}

impl RoCtx<'_> {
    /// The underlying worker (for key resolution against its caches).
    pub fn worker(&self) -> &Worker {
        self.worker
    }

    /// Lease-locks every record of `recs` in shared mode as one wave —
    /// all CASes and fetches posted, then awaited once — and returns
    /// their values in order: the lease half of the read-write
    /// pipeline's Start step, one wave per call (scans discover their
    /// read set as they go).
    ///
    /// Local records go through the same CAS path as remote ones unless
    /// the NIC provides GLOB-level atomics (§6.3).
    pub fn acquire_all(&mut self, recs: &[RecordAddr]) -> Result<Vec<Vec<u8>>, RoRestart> {
        let w = self.worker.pipeline();
        let wants = recs.iter().map(|rec| (*rec, false, w.can_local_cas(rec)));
        let bytes = recs.iter().map(RecordAddr::fetch_len).sum();
        let (mut wave, mut fetched) = (Vec::with_capacity(recs.len()), Vec::with_capacity(bytes));
        w.acquire_wave(&mut wave, &mut fetched, wants, self.end_us, self.now_us);
        let mut values = Vec::with_capacity(recs.len());
        for (_, got) in &wave {
            match record::held(got) {
                Ok(f) => {
                    self.min_end_us = self.min_end_us.min(f.lease_end_us);
                    values.push(fetched[f.value.clone()].to_vec());
                }
                // A machine that is gone (the record's, or its write
                // lock's owner) outranks a lock that will be released:
                // remember the first such conflict.
                Err(c) => self.fatal = self.fatal.or(TxnError::of_conflict(w.waited_on(c))),
            }
        }
        if values.len() == recs.len() {
            Ok(values)
        } else {
            Err(RoRestart)
        }
    }
}

impl Worker {
    /// A reconnaissance query (§4.1) against this machine's stores:
    /// committed stand-alone reads — tree scans and lookups that discover
    /// a read set — in one region while they fit one
    /// ([`Executor::run_steps`](drtm_htm::Executor::run_steps)).
    ///
    /// # Panics
    ///
    /// If the body aborts explicitly, or one step overflows a region of
    /// its own.
    pub fn recon<T>(&self, body: impl FnMut(&mut Steps<'_>) -> Result<T, Abort>) -> T {
        let done = self.executor().run_steps(self.region(), body);
        done.unwrap_or_else(|abort| panic!("a reconnaissance query aborted for good: {abort}"))
    }

    /// Executes a read-only transaction (Figure 8): the body acquires
    /// leases and performs scans; afterwards all leases are confirmed
    /// with one softtime read. Retries with a fresh end time until the
    /// confirmation succeeds — except against a record whose machine,
    /// or whose write lock's owner, is gone, where retrying forever is
    /// pointless: the transaction aborts with [`TxnError::PeerDead`] and
    /// can be retried once the node is recovered.
    ///
    /// This is the read-write pipeline with everything but leases taken
    /// out: Start acquires leases only (inside the body, as scans
    /// discover the read set), Commit is the lease confirmation alone,
    /// and there is no log and no WriteBack — nothing was written.
    pub fn try_read_only<T>(
        &mut self,
        mut body: impl FnMut(&mut RoCtx<'_>) -> Result<T, RoRestart>,
    ) -> Result<T, TxnError> {
        let region = self.region().clone();
        loop {
            if self.pipeline().self_crashed() {
                return Err(TxnError::SimulatedCrash);
            }
            // Each attempt is a fresh posting wave: the previous
            // attempt's confirmation was a completion wait.
            self.qp().doorbell_flush();
            let now = softtime_nt(&region);
            let end_us = now + RO_LEASE_US;
            let mut ctx =
                RoCtx { worker: self, end_us, now_us: now, min_end_us: u64::MAX, fatal: None };
            let out = body(&mut ctx);
            let RoCtx { min_end_us, fatal, .. } = ctx;
            let stats = self.system().stats();
            match out {
                Ok(v) => {
                    // `min_end_us` stays `u64::MAX` when nothing was
                    // leased, which every softtime confirms.
                    if !lease_unconfirmed(min_end_us, softtime_nt(&region), DELTA_US) {
                        stats.ro_committed.inc();
                        return Ok(v);
                    }
                    stats.ro_retries.inc();
                }
                Err(RoRestart) => {
                    if let Some(err) = fatal {
                        return Err(self.pipeline().terminal(err));
                    }
                    stats.ro_retries.inc();
                    self.pipeline().backoff(4);
                }
            }
        }
    }

    /// Convenience wrapper: read a fixed, pre-resolved record set.
    ///
    /// The lease CASes and fetches of all records are posted as one wave
    /// and awaited once, like the Start phase: leases on one machine
    /// share a doorbell, leases on different machines overlap.
    pub fn read_only_records(&mut self, recs: &[RecordAddr]) -> Vec<Vec<u8>> {
        self.try_read_only_records(recs).expect("read-only transaction hit a crashed peer")
    }

    /// [`Worker::read_only_records`] with typed dead-peer reporting.
    pub fn try_read_only_records(&mut self, recs: &[RecordAddr]) -> Result<Vec<Vec<u8>>, TxnError> {
        self.try_read_only(|ctx| ctx.acquire_all(recs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_layout::Deployment;
    use crate::config::DrTmConfig;
    use crate::time::SOFTTIME_INTERVAL;
    use crate::txn::{DrTm, TxnSpec};
    use drtm_memstore::{BTree, ClusterHash, LookupResult};
    use drtm_rdma::{ClusterConfig, LatencyProfile};
    use std::sync::Arc;

    fn setup() -> (Arc<DrTm>, Arc<ClusterHash>, Arc<BTree>) {
        setup_cfg(DrTmConfig::default())
    }

    /// Machine 0's table (keys `0..50`, value `10·k`, on both machines)
    /// and tree (`k → 100·k`).
    fn setup_cfg(cfg: DrTmConfig) -> (Arc<DrTm>, Arc<ClusterHash>, Arc<BTree>) {
        let cluster = ClusterConfig {
            nodes: 2,
            region_size: 8 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        };
        let mut dep = Deployment::new(cluster, cfg, 1);
        let tables = dep.hash(64, 200, 8);
        let trees = dep.tree(256);
        for k in 0..50u64 {
            for n in dep.nodes() {
                let t = &tables[n as usize];
                t.insert(dep.exec(), dep.region(n), k, &(k * 10).to_le_bytes()).unwrap();
            }
            dep.exec().run(dep.region(0), |txn| trees[0].insert(txn, k, k * 100)).unwrap();
        }
        (dep.start(SOFTTIME_INTERVAL), tables[0].clone(), trees[0].clone())
    }

    fn rec_of(sys: &Arc<DrTm>, table: &ClusterHash, key: u64) -> RecordAddr {
        let qp = sys.cluster().qp(1);
        match table.remote_lookup(&qp, key) {
            LookupResult::Found { addr, .. } => RecordAddr::new(addr, 8),
            _ => panic!("populated"),
        }
    }

    #[test]
    fn ro_scans_discover_then_lease() {
        // The order-status pattern: scan an index to find the record set,
        // then lease-read the records.
        let (sys, table, tree) = setup();
        let mut w = sys.worker(0, 0);
        let table2 = table.clone();
        let got = w
            .try_read_only(|ctx| {
                let scan = |s: &mut Steps<'_>| s.step(|txn| tree.scan_range(txn, 10, 12, 10));
                let pairs = ctx.worker().recon(scan);
                let mut sum = 0u64;
                for (k, v) in pairs {
                    assert_eq!(v, k * 100);
                    let rec = rec_of(ctx.worker().system(), &table2, k);
                    sum += u64::from_le_bytes(ctx.acquire_all(&[rec])?[0][..8].try_into().unwrap());
                }
                Ok(sum)
            })
            .unwrap();
        assert_eq!(got, 10 * 10 + 11 * 10 + 12 * 10);
        assert_eq!(sys.stats().snapshot().ro_committed, 1);
    }

    #[test]
    fn ro_restarts_when_record_is_locked() {
        let (sys, table, _tree) = setup();
        let rec = rec_of(&sys, &table, 5);
        // A remote writer holds the record briefly.
        let qp = sys.cluster().qp(1);
        let now = crate::time::softtime_nt(sys.cluster().node(1).region());
        crate::record::remote_lock_write(&qp, &rec, 1, now, 100, false).unwrap();
        let sys2 = sys.clone();
        let unlocker = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            crate::record::remote_unlock(&sys2.cluster().qp(1), &rec, false).unwrap();
        });
        let mut w = sys.worker(0, 0);
        let v = w.read_only_records(&[rec]);
        assert_eq!(u64::from_le_bytes(v[0][..8].try_into().unwrap()), 50);
        unlocker.join().unwrap();
        assert!(sys.stats().snapshot().ro_retries > 0, "the RO txn had to restart");
    }

    #[test]
    fn ro_and_rw_interleave_correctly() {
        let (sys, table, _tree) = setup();
        let rec = rec_of(&sys, &table, 7);
        // RW transaction on node 1 updates the record; RO on node 0 must
        // see either the old or the new value, never garbage.
        let mut rw = sys.worker(1, 0);
        let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
        rw.execute(&spec, |ctx| {
            let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
            ctx.remote_write(0, (v + 1).to_le_bytes());
            Ok(())
        })
        .unwrap();
        let mut ro = sys.worker(0, 0);
        let v = ro.read_only_records(&[rec]);
        assert_eq!(u64::from_le_bytes(v[0][..8].try_into().unwrap()), 71);
    }

    #[test]
    fn ro_is_durable_free_even_with_logging_on() {
        // DUMBO invariant, asserted by counter: with logging enabled the
        // RO path stages no log record and waits on no completion marker.
        let (sys, table, tree) = setup_cfg(DrTmConfig { logging: true, ..DrTmConfig::default() });
        let base = sys.stats().snapshot();
        let mut w = sys.worker(0, 0);
        let recs: Vec<RecordAddr> = (0..8).map(|k| rec_of(&sys, &table, k)).collect();
        for _ in 0..10 {
            let _ = w.read_only_records(&recs);
        }
        let table2 = table.clone();
        let sum = w
            .try_read_only(|ctx| {
                let scan = |s: &mut Steps<'_>| s.step(|txn| tree.scan_range(txn, 0, 9, 16));
                let pairs = ctx.worker().recon(scan);
                let mut sum = 0u64;
                for (k, _) in pairs {
                    let rec = rec_of(ctx.worker().system(), &table2, k);
                    sum += u64::from_le_bytes(ctx.acquire_all(&[rec])?[0][..8].try_into().unwrap());
                }
                Ok(sum)
            })
            .unwrap();
        assert_eq!(sum, (0..=9).map(|k| k * 10).sum::<u64>());
        let after = sys.stats().snapshot();
        assert!(after.ro_committed >= base.ro_committed + 11);
        assert_eq!(after.log_writes, base.log_writes, "RO staged a log record");
        assert_eq!(after.log_bytes, base.log_bytes, "RO wrote log bytes");
        assert_eq!(after.log_done_waits, base.log_done_waits, "RO waited on log_done");
        // Sanity: the counters are live — a read-write transaction with a
        // remote write does pay the log.
        let rec = rec_of(&sys, &table, 3);
        let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| {
            ctx.remote_write(0, 77u64.to_le_bytes());
            Ok(())
        })
        .unwrap();
        let rw = sys.stats().snapshot();
        assert!(rw.log_writes > after.log_writes);
        assert!(rw.log_bytes > after.log_bytes);
        assert!(rw.log_done_waits > after.log_done_waits);
    }
}
