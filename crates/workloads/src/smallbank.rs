//! SmallBank workload (§7.1, Table 5).
//!
//! A simple banking application: every customer has a checking and a
//! savings account; six transaction types perform small reads and writes
//! over them. Access is skewed — a small set of hot accounts receives a
//! disproportionate share of requests — and the two two-account
//! transactions (send-payment and amalgamate) touch a second account
//! that crosses machines with a configurable probability (the x-axis of
//! Figure 15).
//!
//! Transaction mix (paper Table 5 shape): send-payment 25 %, balance
//! 15 % (read-only), deposit-checking 15 %, withdraw-from-checking 15 %,
//! transfer-to-savings 15 %, amalgamate 15 %.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use drtm_core::{
    Deployment, DrTm, DrTmConfig, RecordAddr, TxnError, TxnSpec, Worker, SOFTTIME_INTERVAL,
};
use drtm_rdma::{ClusterConfig, LatencyProfile, NodeId};

use crate::dist::rng;
use crate::resolve::Table;
use crate::{first_field, tolerate_user_abort};

/// SmallBank sizing and behaviour.
#[derive(Debug, Clone)]
pub struct SmallBankConfig {
    /// Simulated machines.
    pub nodes: usize,
    /// Worker threads per machine.
    pub workers: usize,
    /// Accounts per machine.
    pub accounts_per_node: u64,
    /// Hot accounts per machine (the skew target).
    pub hot_per_node: u64,
    /// Probability an access goes to the hot set.
    pub hot_prob: f64,
    /// Probability the second account of SP/AMG lives on another machine.
    pub dist_prob: f64,
    /// Region bytes per machine.
    pub region_size: usize,
    /// Network cost model.
    pub profile: LatencyProfile,
    /// Transaction-layer configuration.
    pub drtm: DrTmConfig,
}

impl Default for SmallBankConfig {
    fn default() -> Self {
        SmallBankConfig {
            nodes: 2,
            workers: 2,
            accounts_per_node: 10_000,
            hot_per_node: 100,
            hot_prob: 0.25,
            dist_prob: 0.01,
            region_size: 64 << 20,
            profile: LatencyProfile::rdma(),
            drtm: DrTmConfig::default(),
        }
    }
}

/// Initial balance of every account (both sub-accounts).
pub const INIT_BALANCE: u64 = 1_000_000;

/// A built SmallBank deployment.
pub struct SmallBank {
    /// The transaction system.
    pub sys: Arc<DrTm>,
    /// Checking balances, keyed by global account id.
    pub checking: Arc<Table>,
    /// Savings balances, keyed by global account id.
    pub savings: Arc<Table>,
    /// The configuration it was built with.
    pub cfg: SmallBankConfig,
}

impl SmallBank {
    /// Builds the cluster, creates and populates both tables.
    pub fn build(cfg: SmallBankConfig) -> SmallBank {
        let cluster = ClusterConfig {
            nodes: cfg.nodes,
            region_size: cfg.region_size,
            profile: cfg.profile.clone(),
            ..Default::default()
        };
        let mut dep = Deployment::new(cluster, cfg.drtm.clone(), cfg.workers);
        let per = cfg.accounts_per_node;
        let buckets = (per as usize / 4).max(16);
        let checking = dep.hash(buckets, per as usize + 16, 8);
        let savings = dep.hash(buckets, per as usize + 16, 8);
        for n in dep.nodes() {
            let (c, s, region) = (&checking[n as usize], &savings[n as usize], dep.region(n));
            for a in 0..per {
                let gid = n as u64 * per + a;
                c.insert(dep.exec(), region, gid, &INIT_BALANCE.to_le_bytes()).expect("populate");
                s.insert(dep.exec(), region, gid, &INIT_BALANCE.to_le_bytes()).expect("populate");
            }
        }
        SmallBank {
            sys: dep.start(SOFTTIME_INTERVAL),
            checking: Arc::new(Table::new(checking)),
            savings: Arc::new(Table::new(savings)),
            cfg,
        }
    }

    /// Creates a per-thread workload driver for `(node, worker_id)`.
    pub fn worker(&self, node: NodeId, worker_id: usize) -> SmallBankWorker {
        SmallBankWorker {
            w: self.sys.worker(node, worker_id),
            checking: self.checking.clone(),
            savings: self.savings.clone(),
            cfg: self.cfg.clone(),
            rng: rng((node as u64) << 32 | worker_id as u64),
        }
    }

    /// Sum of all balances (checking + savings) — the conservation
    /// invariant checked by the integration tests.
    pub fn total_balance(&self) -> u64 {
        let exec = self.sys.executor();
        let mut total = 0u64;
        for n in 0..self.cfg.nodes as NodeId {
            let region = self.sys.cluster().node(n).region();
            for table in [&self.checking, &self.savings] {
                for a in 0..self.cfg.accounts_per_node {
                    let gid = n as u64 * self.cfg.accounts_per_node + a;
                    let v = table
                        .read_local(&exec, region, n, gid)
                        .unwrap_or_else(|| panic!("account {gid} missing on node {n}"));
                    total = total.wrapping_add(first_field(&v));
                }
            }
        }
        total
    }
}

/// Per-thread SmallBank driver.
pub struct SmallBankWorker {
    w: Worker,
    checking: Arc<Table>,
    savings: Arc<Table>,
    cfg: SmallBankConfig,
    rng: SmallRng,
}

impl SmallBankWorker {
    /// The underlying DrTM worker.
    pub fn worker(&self) -> &Worker {
        &self.w
    }

    /// Mutable access to the underlying worker (the chaos harness uses
    /// it to drain parked write-backs after a peer revives).
    pub fn worker_mut(&mut self) -> &mut Worker {
        &mut self.w
    }

    fn pick_on(&mut self, node: NodeId) -> u64 {
        let per = self.cfg.accounts_per_node;
        let local = if self.rng.gen_bool(self.cfg.hot_prob) {
            self.rng.gen_range(0..self.cfg.hot_per_node.min(per))
        } else {
            self.rng.gen_range(0..per)
        };
        node as u64 * per + local
    }

    fn pick_second(&mut self, first: u64) -> (NodeId, u64) {
        let node = if self.cfg.nodes > 1 && self.rng.gen_bool(self.cfg.dist_prob) {
            let mut n = self.rng.gen_range(0..self.cfg.nodes as NodeId);
            if n == self.w.node {
                n = (n + 1) % self.cfg.nodes as NodeId;
            }
            n
        } else {
            self.w.node
        };
        let mut acct = self.pick_on(node);
        while acct == first {
            acct = self.pick_on(node);
        }
        (node, acct)
    }

    /// The address of `key`'s account on another machine, through the
    /// location cache: what Start locks with one-sided verbs.
    fn remote(&self, table: &Table, node: NodeId, key: u64) -> Result<RecordAddr, TxnError> {
        debug_assert_ne!(node, self.w.node, "a local account is declared by key");
        Ok(table.try_resolve(&self.w, node, key)?.expect("populated account"))
    }

    /// Runs one transaction drawn from the mix; returns its label.
    ///
    /// # Panics
    ///
    /// On a crashed peer (use [`SmallBankWorker::try_run_one`] under the
    /// chaos harness).
    pub fn run_one(&mut self) -> &'static str {
        self.try_run_one().expect("transaction hit a crashed node")
    }

    /// [`SmallBankWorker::run_one`] with typed crash reporting: a
    /// transaction that touches a crashed peer (or whose own machine is
    /// crash-simulated) surfaces the error instead of panicking. Normal
    /// aborts (`UserAborted`) are retried-away internally as before.
    pub fn try_run_one(&mut self) -> Result<&'static str, TxnError> {
        let dice = self.rng.gen_range(0..100u32);
        match dice {
            0..=24 => self.try_send_payment().map(|_| "send_payment"),
            25..=39 => self.try_balance().map(|_| "balance"),
            40..=54 => self.try_deposit_checking().map(|_| "deposit_checking"),
            55..=69 => self.try_withdraw_from_checking().map(|_| "withdraw_from_checking"),
            70..=84 => self.try_transfer_to_savings().map(|_| "transfer_to_savings"),
            _ => self.try_amalgamate().map(|_| "amalgamate"),
        }
    }

    /// SP: move money between two checking accounts (possibly remote).
    pub fn try_send_payment(&mut self) -> Result<(), TxnError> {
        let node = self.w.node;
        let a = self.pick_on(node);
        let (nb, b) = self.pick_second(a);
        let amount = self.rng.gen_range(1..100u64);
        // Room for both accounts: the spec is this call's one allocation.
        let mut spec = TxnSpec { keyed_writes: Vec::with_capacity(2), ..Default::default() };
        spec.keyed_writes.push(self.checking.local(node, a));
        let b_remote = nb != node;
        if b_remote {
            spec.remote_writes.push(self.remote(&self.checking, nb, b)?);
        } else {
            spec.keyed_writes.push(self.checking.local(node, b));
        }
        tolerate_user_abort(self.w.execute(&spec, |ctx| {
            let va = balance(ctx.keyed_write_cur(0)?.as_deref());
            ctx.keyed_write(0, &va.wrapping_sub(amount).to_le_bytes())?;
            if b_remote {
                let vb = first_field(ctx.remote_write_cur(0));
                ctx.remote_write(0, vb.wrapping_add(amount).to_le_bytes());
            } else {
                let vb = balance(ctx.keyed_write_cur(1)?.as_deref());
                ctx.keyed_write(1, &vb.wrapping_add(amount).to_le_bytes())?;
            }
            Ok(())
        }))
    }

    /// BAL: read-only sum of a customer's two balances. Two reads fit an
    /// HTM region, so this is an ordinary transaction with an empty write
    /// set: no lease, no log, no verb (leases are for read sets that
    /// would not fit, §4.5).
    pub fn try_balance(&mut self) -> Result<(), TxnError> {
        let node = self.w.node;
        let a = self.pick_on(node);
        let spec = TxnSpec {
            keyed_reads: vec![self.checking.local(node, a), self.savings.local(node, a)],
            ..Default::default()
        };
        self.w.execute(&spec, |ctx| {
            Ok(balance(ctx.keyed_read(0)?).wrapping_add(balance(ctx.keyed_read(1)?)))
        })?;
        Ok(())
    }

    /// DC: deposit into checking.
    pub fn try_deposit_checking(&mut self) -> Result<(), TxnError> {
        self.adjust(false, u64::wrapping_add)
    }

    /// WC: withdraw from checking.
    pub fn try_withdraw_from_checking(&mut self) -> Result<(), TxnError> {
        self.adjust(false, u64::wrapping_sub)
    }

    /// TS: transfer into savings.
    pub fn try_transfer_to_savings(&mut self) -> Result<(), TxnError> {
        self.adjust(true, u64::wrapping_add)
    }

    /// The one-account transactions: `op` applied to one local balance
    /// and an amount of 1..100.
    fn adjust(&mut self, savings: bool, op: fn(u64, u64) -> u64) -> Result<(), TxnError> {
        let node = self.w.node;
        let a = self.pick_on(node);
        let amount = self.rng.gen_range(1..100u64);
        let table = if savings { &self.savings } else { &self.checking };
        let spec = TxnSpec { keyed_writes: vec![table.local(node, a)], ..Default::default() };
        tolerate_user_abort(self.w.execute(&spec, |ctx| {
            let v = balance(ctx.keyed_write_cur(0)?.as_deref());
            ctx.keyed_write(0, &op(v, amount).to_le_bytes())
        }))
    }

    /// AMG: move all funds of account A into account B's checking.
    pub fn try_amalgamate(&mut self) -> Result<(), TxnError> {
        let node = self.w.node;
        let a = self.pick_on(node);
        let (nb, b) = self.pick_second(a);
        let mut spec = TxnSpec { keyed_writes: Vec::with_capacity(3), ..Default::default() };
        spec.keyed_writes.push(self.savings.local(node, a));
        spec.keyed_writes.push(self.checking.local(node, a));
        let b_remote = nb != node;
        if b_remote {
            spec.remote_writes.push(self.remote(&self.checking, nb, b)?);
        } else {
            spec.keyed_writes.push(self.checking.local(node, b));
        }
        tolerate_user_abort(self.w.execute(&spec, |ctx| {
            let total = balance(ctx.keyed_write_cur(0)?.as_deref())
                .wrapping_add(balance(ctx.keyed_write_cur(1)?.as_deref()));
            ctx.keyed_write(0, &0u64.to_le_bytes())?;
            ctx.keyed_write(1, &0u64.to_le_bytes())?;
            if b_remote {
                let vb = first_field(ctx.remote_write_cur(0));
                ctx.remote_write(0, vb.wrapping_add(total).to_le_bytes());
            } else {
                let vb = balance(ctx.keyed_write_cur(2)?.as_deref());
                ctx.keyed_write(2, &vb.wrapping_add(total).to_le_bytes())?;
            }
            Ok(())
        }))
    }
}

/// The balance in a local account's row, which is that one `u64`;
/// population creates every account and nothing deletes one.
fn balance(row: Option<&[u8]>) -> u64 {
    first_field(row.expect("populated account"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SmallBankConfig {
        SmallBankConfig {
            nodes: 2,
            workers: 2,
            accounts_per_node: 200,
            hot_per_node: 10,
            hot_prob: 0.5,
            dist_prob: 0.3,
            region_size: 16 << 20,
            profile: LatencyProfile::zero(),
            drtm: DrTmConfig::default(),
        }
    }

    #[test]
    fn population_and_initial_invariant() {
        let sb = SmallBank::build(tiny());
        assert_eq!(sb.total_balance(), 2 * 2 * 200 * INIT_BALANCE);
    }

    #[test]
    fn a_worker_that_outlives_the_deployment_keeps_its_clock() {
        // The softtime service belongs to the system the worker holds,
        // not to the struct that built it.
        let sb = SmallBank::build(tiny());
        let w = sb.worker(0, 0);
        drop(sb);
        let before = drtm_core::softtime_nt(w.worker().region());
        std::thread::sleep(std::time::Duration::from_millis(5));
        let after = drtm_core::softtime_nt(w.worker().region());
        assert!(after > before, "softtime stopped at {before} under a live worker");
    }

    #[test]
    fn money_is_conserved_under_concurrency() {
        // Only the conserving transactions (send-payment, amalgamate,
        // balance) run here; deposit/withdraw legitimately change the
        // total.
        let sb = SmallBank::build(tiny());
        let expected = sb.total_balance();
        std::thread::scope(|s| {
            for n in 0..2 {
                for w in 0..2 {
                    let mut worker = sb.worker(n, w);
                    s.spawn(move || {
                        for i in 0..120 {
                            match i % 3 {
                                0 => worker.try_send_payment().unwrap(),
                                1 => worker.try_amalgamate().unwrap(),
                                _ => worker.try_balance().unwrap(),
                            };
                        }
                    });
                }
            }
        });
        assert_eq!(sb.total_balance(), expected, "balance conservation violated");
        // A balance is a read-write transaction with an empty write set:
        // it commits like the other two, and nothing here takes the
        // leased read-only path.
        let snap = sb.sys.stats().snapshot();
        assert_eq!((snap.committed, snap.ro_committed), (4 * 120, 0));
    }

    #[test]
    fn each_transaction_type_is_one_region_and_balance_leaves_nothing_behind() {
        // One machine, one worker: every account is local and nothing
        // conflicts, so HTM commits count regions — the transaction's
        // own and no stand-alone one, the key walks being inside it.
        let mut cfg = SmallBankConfig { nodes: 1, workers: 1, ..tiny() };
        cfg.drtm.logging = true;
        let sb = SmallBank::build(cfg);
        let mut w = sb.worker(0, 0);
        type Txn = fn(&mut SmallBankWorker) -> Result<(), TxnError>;
        let types: [(&str, Txn); 6] = [
            ("send_payment", SmallBankWorker::try_send_payment),
            ("balance", SmallBankWorker::try_balance),
            ("deposit_checking", SmallBankWorker::try_deposit_checking),
            ("withdraw_from_checking", SmallBankWorker::try_withdraw_from_checking),
            ("transfer_to_savings", SmallBankWorker::try_transfer_to_savings),
            ("amalgamate", SmallBankWorker::try_amalgamate),
        ];
        for (name, txn) in types {
            for _ in 0..20 {
                let before = sb.sys.htm_stats().snapshot();
                txn(&mut w).unwrap();
                let d = sb.sys.htm_stats().snapshot().since(&before);
                assert_eq!((d.commits, d.total_aborts()), (1, 0), "{name}");
            }
        }
        // balance reads inside its region and takes no lease: both state
        // words stay INIT, no verb is issued (a local lease is a
        // loop-back CAS) and, with logging on, nothing is logged.
        for _ in 0..20 {
            let draws = w.rng.clone();
            let account = w.pick_on(0);
            w.rng = draws;
            let stats = sb.sys.stats().snapshot();
            let verbs = sb.sys.cluster().counters().snapshot();
            w.try_balance().unwrap();
            let d = sb.sys.stats().snapshot().since(&stats);
            assert_eq!((d.committed, d.ro_committed), (1, 0));
            assert_eq!((d.log_writes, d.log_bytes, d.log_done_waits), (0, 0, 0));
            assert_eq!(sb.sys.cluster().counters().snapshot().since(&verbs).fabric_ops(), 0);
            for table in [&sb.checking, &sb.savings] {
                let (exec, region) = (sb.sys.executor(), w.w.region());
                let found = exec.run(region, |txn| table.local(0, account).find(txn)).unwrap();
                let header = found.expect("populated account").entry().read_header_nt(region);
                assert_eq!(header.state, drtm_core::INIT, "account {account}");
            }
        }
    }

    #[test]
    fn deposits_add_up_exactly() {
        // The non-conserving transactions move the total by exactly the
        // committed amounts — indirectly checked by running the full mix
        // and verifying the books still balance per sub-account kind.
        let sb = SmallBank::build(tiny());
        let before = sb.total_balance();
        let mut w = sb.worker(0, 0);
        for _ in 0..50 {
            w.run_one();
        }
        // Total changed only by bounded amounts (< 50 × 100 cents each way).
        let after = sb.total_balance();
        let drift = after.abs_diff(before);
        assert!(drift < 50 * 100, "drift {drift} exceeds any possible mix outcome");
    }

    #[test]
    fn each_txn_type_runs() {
        let sb = SmallBank::build(tiny());
        let mut w = sb.worker(0, 0);
        w.try_send_payment().unwrap();
        w.try_balance().unwrap();
        w.try_deposit_checking().unwrap();
        w.try_withdraw_from_checking().unwrap();
        w.try_transfer_to_savings().unwrap();
        w.try_amalgamate().unwrap();
        assert!(sb.sys.stats().snapshot().committed >= 5);
    }
}
