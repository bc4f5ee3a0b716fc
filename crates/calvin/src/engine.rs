//! The deterministic epoch engine.
//!
//! One epoch = one sequencer batch. The engine walks the batch in global
//! sequence order exactly once, maintaining explicit virtual clocks:
//!
//! * a per-node **lock-manager clock** — Calvin's lock manager is a
//!   single thread, so lock grants serialize at [`LOCK_NS`] per request
//!   (the per-node throughput ceiling);
//! * per-node **worker clocks** — an executor is occupied from the
//!   moment it picks a transaction until the transaction finishes,
//!   including the time it blocks waiting for other participants'
//!   read messages (one-way cost [`MSG_NS`]);
//! * per-record **release clocks** (separate read/write) — FIFO lock
//!   queues in virtual time.
//!
//! Data operations are applied for real against [`NodeStore`]s, so the
//! resulting database is checkable with the same consistency conditions
//! as the DrTM run.

use std::collections::HashMap;

use drtm_workloads::tpcc::{keys, seed, Request, TpccConfig};

use crate::store::{gkey, table, NodeStore};
use crate::txns::{locks, op_count};

/// Epoch length in ns: Calvin's sequencer batches every 10 ms (Thomson
/// et al., SIGMOD'12). A transaction also waits half an epoch, on
/// average, before its batch closes.
pub const EPOCH_NS: u64 = 10_000_000;
/// Sequencer cost per transaction of a batch (replication + dispatch).
pub const SEQ_NS_PER_TXN: u64 = 2_000;
/// Serial lock-manager cost per lock request. Sized with [`MSG_NS`] and
/// [`EPOCH_NS`] for the per-node ceiling and epoch-bound latency behind
/// the paper's 17.9–21.9× DrTM/Calvin gap (Figure 12).
pub const LOCK_NS: u64 = 1_500;
/// Executor cost per record operation: the local index work of a
/// Calvin operation, calibrated against DrTM's walkers before PR 18
/// halved their cost and not retuned since, so fig12's DrTM/Calvin
/// ratio, measured on the requests DrTM runs, reads above the paper's
/// band.
pub const OP_NS: u64 = 400;
/// One-way cost of a read-result message between participants: the
/// kernel path of IPoIB, the transport the paper runs Calvin over.
pub const MSG_NS: u64 = 60_000;

#[derive(Debug, Clone, Copy, Default)]
struct LockClock {
    read_release: u64,
    write_release: u64,
}

/// The Calvin baseline system.
pub struct Calvin {
    /// The TPC-C deployment it runs: DrTM's sizing, one warehouse per
    /// executor (§7.2).
    pub cfg: TpccConfig,
    stores: Vec<NodeStore>,
    sched_clock: Vec<u64>,
    worker_clock: Vec<Vec<u64>>,
    locks: HashMap<(usize, u64), LockClock>,
    now_ns: u64,
}

impl Calvin {
    /// Builds the TPC-C deployment `cfg` describes: `cfg.workers`
    /// executors and warehouses per machine, loaded with the rows
    /// [`drtm_workloads::tpcc::Tpcc::build`] populates.
    pub fn build(cfg: &TpccConfig) -> Calvin {
        let stores: Vec<NodeStore> = (0..cfg.nodes).map(|_| NodeStore::default()).collect();
        let per_node = cfg.workers as u64;
        for (n, s) in (0u64..).zip(&stores) {
            for i in 0..cfg.items {
                s.write(gkey(table::ITEM, i), &seed::item(i));
            }
            for w in n * per_node..(n + 1) * per_node {
                s.write(gkey(table::WAREHOUSE, keys::warehouse(w)), &seed::warehouse());
                for i in 0..cfg.items {
                    s.write(gkey(table::STOCK, keys::stock(w, i)), &seed::stock(i));
                }
                for d in 0..cfg.districts {
                    s.write(gkey(table::DISTRICT, keys::district(w, d)), &seed::district(cfg));
                    for c in 0..cfg.customers_per_district {
                        s.write(gkey(table::CUSTOMER, keys::customer(w, d, c)), &seed::customer(c));
                        // Customer `c`'s one seed order has id `c`.
                        s.write(gkey(table::ORDER, keys::order(w, d, c)), &seed::order(c));
                        let line = seed::order_line(cfg, w, c);
                        s.write(gkey(table::ORDER_LINE, keys::order_line(w, d, c, 0)), &line);
                        if seed::undelivered(cfg, c) {
                            s.new_orders.lock().insert(keys::order(w, d, c));
                        }
                    }
                }
            }
        }
        Calvin {
            sched_clock: vec![0; cfg.nodes],
            worker_clock: vec![vec![0u64; cfg.workers]; cfg.nodes],
            locks: HashMap::new(),
            now_ns: 0,
            stores,
            cfg: cfg.clone(),
        }
    }

    /// The machine owning warehouse `w`.
    fn node_of(&self, w: u64) -> usize {
        self.cfg.node_of_warehouse(w) as usize
    }

    /// Current virtual time (total elapsed ns since start).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Runs one sequencer epoch over `txns` (already in global order);
    /// returns every transaction's `(label, latency ns)`, the latency
    /// including the average half-epoch batching wait.
    pub fn run_epoch(&mut self, txns: &[Request]) -> Vec<(&'static str, u64)> {
        let epoch_start = self.now_ns;
        // The batch closes a full epoch after it opened, then the
        // sequencer replicates/dispatches it.
        let seq_done = epoch_start + EPOCH_NS + SEQ_NS_PER_TXN * txns.len() as u64;
        for c in &mut self.sched_clock {
            *c = (*c).max(seq_done);
        }
        let mut latencies = Vec::with_capacity(txns.len());
        for txn in txns {
            let locks = locks(txn, self.cfg.districts);
            // Participant nodes and their lock shares.
            let mut per_node: HashMap<usize, Vec<(u64, bool)>> = HashMap::new();
            for &(w, key, write) in &locks {
                per_node.entry(self.node_of(w)).or_default().push((key, write));
            }
            // Each participant: the serial lock manager's grant, then an
            // executor once it is free and the lock queues let it start,
            // then the local reads, costed by the node's share of locks.
            let exec_cost = op_count(txn, self.cfg.districts) * OP_NS;
            let mut parts = Vec::with_capacity(per_node.len());
            for (n, ls) in per_node {
                self.sched_clock[n] += LOCK_NS * ls.len() as u64;
                let (wid, &free) = self.worker_clock[n]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &t)| t)
                    .expect("workers > 0");
                let mut start = free.max(self.sched_clock[n]);
                for &(key, write) in &ls {
                    let lc = self.locks.entry((n, key)).or_default();
                    start = start.max(lc.write_release);
                    if write {
                        start = start.max(lc.read_release);
                    }
                }
                let share = exec_cost * ls.len() as u64 / locks.len() as u64;
                parts.push((n, wid, start + share.max(OP_NS), ls));
            }
            // Read exchange (one message per pair of participants), then
            // the locks are released and the executors freed.
            let home = self.node_of(txn.warehouse());
            for (n, wid, read_done, ls) in &parts {
                let others = parts.iter().filter(|p| p.0 != *n).map(|p| p.2 + MSG_NS);
                let finish = others.fold(*read_done, u64::max);
                self.worker_clock[*n][*wid] = finish;
                for &(key, write) in ls {
                    let lc = self.locks.entry((*n, key)).or_default();
                    let release = if write { &mut lc.write_release } else { &mut lc.read_release };
                    *release = (*release).max(finish);
                }
                if *n == home {
                    latencies.push((txn.label(), finish - epoch_start + EPOCH_NS / 2));
                }
            }
            // Apply the data operations for real.
            self.apply(txn);
        }
        let clocks = self.worker_clock.iter().flatten().chain(&self.sched_clock);
        self.now_ns = clocks.copied().max().unwrap_or(epoch_start);
        latencies
    }

    /// Applies a transaction's data operations.
    fn apply(&self, txn: &Request) {
        match txn {
            // An unused item number rolls the order back before it writes.
            Request::NewOrder { invalid: true, .. } => {}
            Request::NewOrder { w, d, c, lines, .. } => {
                let home = &self.stores[self.node_of(*w)];
                let mut o_id = 0;
                home.update(gkey(table::DISTRICT, keys::district(*w, *d)), |v| {
                    o_id = v[2];
                    v[2] += 1;
                });
                for &(i, supply, qty) in lines {
                    let s = &self.stores[self.node_of(supply)];
                    s.update(gkey(table::STOCK, keys::stock(supply, i)), |v| {
                        v[0] = if v[0] >= qty + 10 { v[0] - qty } else { v[0] + 91 - qty };
                        v[1] = v[1].wrapping_add(qty);
                        v[2] += 1;
                        if supply != *w {
                            v[3] += 1;
                        }
                    });
                }
                home.write(
                    gkey(table::ORDER, keys::order(*w, *d, o_id)),
                    &[*c, 0, 0, lines.len() as u64],
                );
                for (k, &(i, supply, qty)) in lines.iter().enumerate() {
                    home.write(
                        gkey(table::ORDER_LINE, keys::order_line(*w, *d, o_id, k as u64)),
                        &[i, supply, qty, qty * 100, 0],
                    );
                }
                home.new_orders.lock().insert(keys::order(*w, *d, o_id));
            }
            Request::Payment { w, d, c_w, c_d, c, h } => {
                let home = &self.stores[self.node_of(*w)];
                home.update(gkey(table::WAREHOUSE, keys::warehouse(*w)), |v| {
                    v[0] = v[0].wrapping_add(*h)
                });
                home.update(gkey(table::DISTRICT, keys::district(*w, *d)), |v| {
                    v[0] = v[0].wrapping_add(*h)
                });
                let cs = &self.stores[self.node_of(*c_w)];
                cs.update(gkey(table::CUSTOMER, keys::customer(*c_w, *c_d, *c)), |v| {
                    v[0] = v[0].wrapping_sub(*h);
                    v[1] = v[1].wrapping_add(*h);
                    v[2] += 1;
                });
            }
            Request::OrderStatus { w, d, c } => {
                let home = &self.stores[self.node_of(*w)];
                let _ = home.read(gkey(table::CUSTOMER, keys::customer(*w, *d, *c)));
            }
            Request::Delivery { w, carrier } => {
                let home = &self.stores[self.node_of(*w)];
                for d in 0..self.cfg.districts {
                    let (lo, hi) = keys::new_order_range(*w, d);
                    let picked = {
                        let q = home.new_orders.lock();
                        q.range(lo..=hi).next().copied()
                    };
                    let Some(key) = picked else { continue };
                    home.new_orders.lock().remove(&key);
                    let mut c_id = 0;
                    home.update(gkey(table::ORDER, key), |v| {
                        c_id = v[0];
                        v[2] = *carrier;
                    });
                    home.update(gkey(table::CUSTOMER, keys::customer(*w, d, c_id)), |v| {
                        v[3] += 1;
                    });
                }
            }
            Request::StockLevel { w, d, .. } => {
                let home = &self.stores[self.node_of(*w)];
                let _ = home.read(gkey(table::DISTRICT, keys::district(*w, *d)));
            }
        }
    }

    /// TPC-C consistency condition 1 on the Calvin stores.
    pub fn check_ytd_consistency(&self) -> bool {
        for w in 0..self.cfg.warehouses() {
            let s = &self.stores[self.node_of(w)];
            let w_ytd = s.read(gkey(table::WAREHOUSE, keys::warehouse(w))).expect("warehouse")[0];
            let d_sum: u64 = (0..self.cfg.districts)
                .map(|d| s.read(gkey(table::DISTRICT, keys::district(w, d))).expect("district")[0])
                .sum();
            if w_ytd != d_sum {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Calvin {
        Calvin::build(&TpccConfig {
            nodes: 2,
            workers: 2,
            districts: 3,
            customers_per_district: 10,
            items: 50,
            ..Default::default()
        })
    }

    fn pay(w: u64, d: u64, c: u64, h: u64) -> Request {
        Request::Payment { w, d, c_w: w, c_d: d, c, h }
    }

    fn new_order(d: u64, c: u64, lines: Vec<(u64, u64, u64)>) -> Request {
        Request::NewOrder { w: 0, d, c, lines, invalid: false }
    }

    #[test]
    fn epoch_executes_and_time_advances() {
        let mut c = tiny();
        let txns: Vec<Request> = (0..20).map(|k| pay(k % 4, 0, k % 10, 10)).collect();
        let r = c.run_epoch(&txns);
        assert_eq!(r.len(), 20);
        assert!(c.now_ns() >= EPOCH_NS, "epoch batching dominates");
        assert!(c.check_ytd_consistency());
    }

    #[test]
    fn latency_is_epoch_bound() {
        let mut c = tiny();
        let r = c.run_epoch(&[Request::OrderStatus { w: 0, d: 0, c: 1 }]);
        // Even a trivial transaction pays the batching latency (the paper
        // reports ~6 ms p50 for Calvin vs µs for DrTM, Table 6).
        assert!(r[0].1 >= EPOCH_NS / 2);
    }

    #[test]
    fn conflicting_txns_serialize_in_virtual_time() {
        let mut c = tiny();
        // Two payments on the same warehouse row must not overlap.
        let txns = vec![pay(0, 0, 0, 1), pay(0, 1, 1, 1)];
        let r = c.run_epoch(&txns);
        let gap = r[1].1 as i64 - r[0].1 as i64;
        assert!(gap > 0, "second conflicting txn must finish later (gap {gap})");
    }

    #[test]
    fn distributed_txn_pays_message_latency() {
        let mut c = tiny();
        let local = new_order(0, 0, vec![(1, 0, 1)]);
        let dist = new_order(1, 0, vec![(1, 2, 1)]); // wh 2 = node 1
        let r = c.run_epoch(&[local, dist]);
        let (l_lat, d_lat) = (r[0].1, r[1].1);
        assert!(
            d_lat >= l_lat + MSG_NS / 2,
            "distributed txn must pay messaging: {l_lat} vs {d_lat}"
        );
    }

    #[test]
    fn new_order_then_delivery_consistent() {
        let mut c = tiny();
        let no: Vec<Request> = (0..6)
            .map(|k| new_order(k % 3, k % 10, vec![(k % 50, 0, 2), ((k + 1) % 50, 0, 1)]))
            .collect();
        c.run_epoch(&no);
        let before = c.stores[0].new_orders.lock().len();
        c.run_epoch(&[Request::Delivery { w: 0, carrier: 3 }]);
        let after = c.stores[0].new_orders.lock().len();
        assert_eq!(after, before - 3, "one delivered per non-empty district");
    }
}
