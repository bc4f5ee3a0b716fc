//! The five TPC-C transactions on DrTM (§7.1–§7.3).
//!
//! * **new-order** — the throughput metric; declares district + stock
//!   write sets in advance (remote stock lines become RDMA-locked remote
//!   writes), inserts order/order-line rows and index entries inside the
//!   HTM region, and aborts ~1 % of the time on an invalid item (the
//!   user-initiated abort allowed in the first transaction piece).
//! * **payment** — updates warehouse/district YTD and a customer that is
//!   remote 15 % of the time; 60 % of local payments select the customer
//!   by last name through the ordered index (remote ones use the
//!   customer id — the paper instead ships the whole transaction to the
//!   remote machine, §6.5; both keep ordered-store accesses local).
//! * **order-status** — read-only (§4.5): lease-protected customer /
//!   order / order-line reads, with the "last order" discovered through
//!   validated index scans.
//! * **delivery** — chopped into one piece per district (§3): each piece
//!   discovers the oldest undelivered order with a reconnaissance query,
//!   then re-verifies it inside the transaction by consuming the
//!   new-order index entry.
//! * **stock-level** — read-only with TPC-C's explicitly relaxed
//!   isolation (clause 3.5): per-record validated reads.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use drtm_core::{Abort, ChopInfo, RecordAddr, TxnError, TxnSpec, Worker, USER_ABORT};
use drtm_rdma::NodeId;

use crate::dist::rng;
use crate::resolve::Table;
use crate::tpcc::{hash16, keys, Tpcc};
use crate::{fields, pack_fields, tolerate_user_abort};

pub use drtm_htm::Abort as HtmAbort;

/// Per-thread TPC-C driver bound to one home warehouse.
pub struct TpccWorker {
    t: Arc<Tpcc>,
    w: Worker,
    rng: SmallRng,
    home_w: u64,
    hseq: u64,
}

enum StockRef {
    Local(usize),
    Remote(usize),
}

impl TpccWorker {
    pub(crate) fn new(t: Arc<Tpcc>, node: NodeId, worker_id: usize) -> TpccWorker {
        let home_w = node as u64 * t.cfg.workers as u64 + worker_id as u64;
        TpccWorker {
            w: t.sys.worker(node, worker_id),
            rng: rng((node as u64) << 32 | worker_id as u64 | 0x7AC0_5EED),
            t,
            home_w,
            hseq: 0,
        }
    }

    /// The underlying DrTM worker.
    pub fn worker(&self) -> &Worker {
        &self.w
    }

    fn resolve(&self, table: &Table, node: NodeId, key: u64) -> Result<RecordAddr, TxnError> {
        let found = table.try_resolve(&self.w, node, key)?;
        Ok(found.unwrap_or_else(|| panic!("missing row {key:#x}")))
    }

    fn node_of(&self, w: u64) -> NodeId {
        self.t.cfg.node_of_warehouse(w)
    }

    /// Runs one transaction from the standard mix (NEW 45 %, PAY 43 %,
    /// OS 4 %, DLY 4 %, SL 4 %); returns its label.
    ///
    /// # Panics
    ///
    /// On a crashed peer (use [`TpccWorker::try_run_one`] under the
    /// chaos harness).
    pub fn run_one(&mut self) -> &'static str {
        self.try_run_one().expect("transaction hit a crashed node")
    }

    /// [`TpccWorker::run_one`] with typed crash reporting: a transaction
    /// that touches a crashed peer (or whose own machine is
    /// crash-simulated) surfaces the error instead of panicking. User
    /// aborts (new-order's invalid item, a lost delivery race) are a
    /// normal outcome of the mix, as in the `try_*` functions below.
    pub fn try_run_one(&mut self) -> Result<&'static str, TxnError> {
        match self.rng.gen_range(0..100u32) {
            0..=44 => self.try_new_order().map(|_| "new_order"),
            45..=87 => self.try_payment().map(|_| "payment"),
            88..=91 => self.try_order_status().map(|_| "order_status"),
            92..=95 => self.try_delivery().map(|_| "delivery"),
            _ => self.try_stock_level().map(|_| "stock_level"),
        }
    }

    /// NEW: order `ol_cnt` items, some possibly from remote warehouses.
    pub fn try_new_order(&mut self) -> Result<(), TxnError> {
        let cfg = self.t.cfg.clone();
        let w = self.home_w;
        let node = self.w.node;
        let d = self.rng.gen_range(0..cfg.districts);
        let c = self.rng.gen_range(0..cfg.customers_per_district);
        let ol_cnt = self.rng.gen_range(5..=15u64);
        let invalid = self.rng.gen_bool(0.01);
        let mut lines: Vec<(u64, u64, u64)> = Vec::new(); // (i, supply_w, qty)
        let mut seen_items = std::collections::HashSet::new();
        for _ in 0..ol_cnt {
            // Items within one order are distinct so no record appears
            // twice in the declared write set (a duplicate would make
            // the transaction block on its own exclusive lock).
            let i = loop {
                let i = self.rng.gen_range(0..cfg.items);
                if seen_items.insert(i) {
                    break i;
                }
            };
            let supply = if cfg.warehouses() > 1 && self.rng.gen_bool(cfg.cross_warehouse_new_order)
            {
                let mut s = self.rng.gen_range(0..cfg.warehouses());
                if s == w {
                    s = (s + 1) % cfg.warehouses();
                }
                s
            } else {
                w
            };
            lines.push((i, supply, self.rng.gen_range(1..=10)));
        }

        // Resolve the declared read/write sets.
        let mut spec = TxnSpec::default();
        spec.local_writes.push(self.resolve(&self.t.district, node, keys::district(w, d))?);
        spec.local_reads.push(self.resolve(&self.t.warehouse, node, keys::warehouse(w))?);
        spec.local_reads.push(self.resolve(&self.t.customer, node, keys::customer(w, d, c))?);
        let mut stock_refs = Vec::with_capacity(lines.len());
        for &(i, supply, _) in &lines {
            spec.local_reads.push(self.resolve(&self.t.item, node, i)?);
            let sn = self.node_of(supply);
            let rec = self.resolve(&self.t.stock, sn, keys::stock(supply, i))?;
            if sn == node {
                stock_refs.push(StockRef::Local(spec.local_writes.len()));
                spec.local_writes.push(rec);
            } else {
                stock_refs.push(StockRef::Remote(spec.remote_writes.len()));
                spec.remote_writes.push(rec);
            }
        }

        let order_tab = self.t.order.shard(node).clone();
        let ol_tab = self.t.order_line.shard(node).clone();
        let no_idx = self.t.new_order_idx[node as usize].clone();
        let co_idx = self.t.cust_order_idx[node as usize].clone();
        let seq = self.hseq;
        let r = self.w.execute(&spec, |ctx| {
            if invalid {
                // Unused item number: roll back the whole order (1 %).
                return Err(Abort::Explicit(USER_ABORT));
            }
            // District: allocate the order id.
            let mut df = fields(&ctx.local_write_cur(0)?);
            let o_id = df[2];
            df[2] = o_id + 1;
            ctx.local_write(0, &pack_fields(&df))?;
            // Items and stock.
            let mut total = 0u64;
            for (k, &(_, supply, qty)) in lines.iter().enumerate() {
                let price = fields(&ctx.local_read(2 + k)?)[0];
                let mut sf = match &stock_refs[k] {
                    StockRef::Local(idx) => fields(&ctx.local_write_cur(*idx)?),
                    StockRef::Remote(idx) => fields(ctx.remote_write_cur(*idx)),
                };
                sf[0] = if sf[0] >= qty + 10 { sf[0] - qty } else { sf[0] + 91 - qty };
                sf[1] = sf[1].wrapping_add(qty);
                sf[2] += 1;
                if supply != w {
                    sf[3] += 1;
                }
                match &stock_refs[k] {
                    StockRef::Local(idx) => ctx.local_write(*idx, &pack_fields(&sf))?,
                    StockRef::Remote(idx) => ctx.remote_write(*idx, pack_fields(&sf)),
                }
                total = total.wrapping_add(qty.wrapping_mul(price));
            }
            // Order rows and indexes.
            ctx.hash_insert(
                &order_tab,
                keys::order(w, d, o_id),
                &pack_fields(&[c, seq, 0, ol_cnt]),
            )?;
            for (k, &(i, supply, qty)) in lines.iter().enumerate() {
                ctx.hash_insert(
                    &ol_tab,
                    keys::order_line(w, d, o_id, k as u64),
                    &pack_fields(&[i, supply, qty, qty * 100, 0]),
                )?;
            }
            ctx.tree_insert(&no_idx, keys::order(w, d, o_id), o_id)?;
            ctx.tree_insert(&co_idx, keys::cust_order(w, d, c, o_id), o_id)?;
            let _ = total;
            Ok(o_id)
        });
        self.hseq += 1;
        tolerate_user_abort(r)
    }

    /// PAY: pay `h` into warehouse/district YTD, debit a customer.
    pub fn try_payment(&mut self) -> Result<(), TxnError> {
        let cfg = self.t.cfg.clone();
        let w = self.home_w;
        let node = self.w.node;
        let d = self.rng.gen_range(0..cfg.districts);
        let h = self.rng.gen_range(100..=500_000u64); // cents
        let remote_cust = cfg.warehouses() > 1 && self.rng.gen_bool(cfg.cross_warehouse_payment);
        let (c_w, c_d) = if remote_cust {
            let mut cw = self.rng.gen_range(0..cfg.warehouses());
            if cw == w {
                cw = (cw + 1) % cfg.warehouses();
            }
            (cw, self.rng.gen_range(0..cfg.districts))
        } else {
            (w, d)
        };
        let c_node = self.node_of(c_w);
        let by_name = self.rng.gen_bool(0.6);
        let c = if by_name {
            // Secondary-index lookup (the dependency the paper resolves
            // with chopping: the index scan feeds the next piece). A
            // remote customer's name index lives on their home machine,
            // so the scan ships there over SEND/RECV verbs (§3, §6.5).
            let name_id = self.rng.gen_range(0..97u64);
            let (lo, hi) = keys::cust_name_range(c_w, c_d, hash16(name_id));
            let matches = if c_node == node {
                let tree = self.t.cust_name_idx[node as usize].clone();
                self.local_scan(|txn| tree.scan_range(txn, lo, hi, 64))
            } else {
                let reply_q = 0x8000 | (node << 8) | self.w.worker_id as u16;
                // A queue pair of its own: the scan's SEND must not ride
                // the transaction's doorbells. Tree 2 is the name index.
                let qp = self.t.sys.cluster().qp(node);
                crate::tpcc::scan_rpc::remote_scan(&qp, c_node, reply_q, 2, lo, hi, 64)?
            };
            match matches.get(matches.len() / 2) {
                Some(&(_, c)) => c,
                None => self.rng.gen_range(0..cfg.customers_per_district),
            }
        } else {
            self.rng.gen_range(0..cfg.customers_per_district)
        };

        let mut spec = TxnSpec::default();
        spec.local_writes.push(self.resolve(&self.t.warehouse, node, keys::warehouse(w))?);
        spec.local_writes.push(self.resolve(&self.t.district, node, keys::district(w, d))?);
        let cust_rec = self.resolve(&self.t.customer, c_node, keys::customer(c_w, c_d, c))?;
        let cust_remote = c_node != node;
        if cust_remote {
            spec.remote_writes.push(cust_rec);
        } else {
            spec.local_writes.push(cust_rec);
        }
        let hist_tab = self.t.history.shard(node).clone();
        let hist_key = (node as u64) << 48 | (self.w.worker_id as u64) << 40 | self.hseq;
        self.hseq += 1;
        let r = self.w.execute(&spec, |ctx| {
            let mut wf = fields(&ctx.local_write_cur(0)?);
            wf[0] = wf[0].wrapping_add(h);
            ctx.local_write(0, &pack_fields(&wf))?;
            let mut df = fields(&ctx.local_write_cur(1)?);
            df[0] = df[0].wrapping_add(h);
            ctx.local_write(1, &pack_fields(&df))?;
            let mut cf = if cust_remote {
                fields(ctx.remote_write_cur(0))
            } else {
                fields(&ctx.local_write_cur(2)?)
            };
            cf[0] = cf[0].wrapping_sub(h);
            cf[1] = cf[1].wrapping_add(h);
            cf[2] += 1;
            if cust_remote {
                ctx.remote_write(0, pack_fields(&cf));
            } else {
                ctx.local_write(2, &pack_fields(&cf))?;
            }
            ctx.hash_insert(&hist_tab, hist_key, &pack_fields(&[c_w, c_d, c, h, 0]))?;
            Ok(())
        });
        tolerate_user_abort(r)
    }

    /// OS: read-only status of a customer's most recent order; returns
    /// the order's total.
    pub fn try_order_status(&mut self) -> Result<u64, TxnError> {
        let cfg = self.t.cfg.clone();
        let w = self.home_w;
        let node = self.w.node;
        let d = self.rng.gen_range(0..cfg.districts);
        let c = self.rng.gen_range(0..cfg.customers_per_district);
        let cust_rec = self.resolve(&self.t.customer, node, keys::customer(w, d, c))?;
        let co_idx = self.t.cust_order_idx[node as usize].clone();
        let t = self.t.clone();
        let (lo, hi) = keys::cust_order_range(w, d, c);
        self.w.try_read_only(|ctx| {
            let _cust = ctx.acquire(&cust_rec)?;
            let Some((_, o_id)) = ctx.tree_max_in_range(&co_idx, lo, hi) else {
                return Ok(0u64);
            };
            let order_rec = t
                .order
                .resolve(ctx.worker(), node, keys::order(w, d, o_id))
                .expect("indexed order exists");
            let of = fields(&ctx.acquire(&order_rec)?);
            let ol_cnt = of[3].min(15);
            let mut total = 0u64;
            for ol in 0..ol_cnt {
                if let Some(rec) =
                    t.order_line.resolve(ctx.worker(), node, keys::order_line(w, d, o_id, ol))
                {
                    let lf = fields(&ctx.acquire(&rec)?);
                    total = total.wrapping_add(lf[3]);
                }
            }
            Ok(total)
        })
    }

    /// DLY: deliver the oldest undelivered order of each district —
    /// chopped into one DrTM transaction per district (§3). An error
    /// leaves the chopping information logged, as a crash would.
    pub fn try_delivery(&mut self) -> Result<(), TxnError> {
        let cfg = self.t.cfg.clone();
        let w = self.home_w;
        let node = self.w.node;
        let carrier = self.rng.gen_range(1..=10u64);
        for d in 0..cfg.districts {
            // Chopping information (Figure 7): if this machine dies,
            // recovery learns which district piece to resume from.
            self.w.log_chop(ChopInfo {
                kind: 4, // delivery
                piece: d as u16,
                total: cfg.districts as u16,
                arg: w as u16,
            });
            // Reconnaissance: find the oldest undelivered order (§4.1's
            // read-only reconnaissance query pattern).
            let no_idx = self.t.new_order_idx[node as usize].clone();
            let (lo, hi) = keys::new_order_range(w, d);
            let Some((no_key, o_id)) =
                self.local_scan(|txn| no_idx.scan_range(txn, lo, hi, 1)).first().copied()
            else {
                continue;
            };
            // Read the order row to learn the customer and line count.
            let order_key = keys::order(w, d, o_id);
            let Some(order_rec) = self.t.order.resolve(&self.w, node, order_key) else {
                continue;
            };
            let Some(of) = self.read_fields(&self.t.order, order_key) else {
                continue;
            };
            let (c, ol_cnt) = (of[0], of[3].min(15));
            let mut spec = TxnSpec::default();
            spec.local_writes.push(order_rec);
            spec.local_writes.push(self.resolve(
                &self.t.customer,
                node,
                keys::customer(w, d, c),
            )?);
            let mut ol_idx = Vec::new();
            for ol in 0..ol_cnt {
                if let Some(rec) =
                    self.t.order_line.resolve(&self.w, node, keys::order_line(w, d, o_id, ol))
                {
                    ol_idx.push(spec.local_writes.len());
                    spec.local_writes.push(rec);
                }
            }
            let no_idx2 = no_idx.clone();
            let r = self.w.execute(&spec, |ctx| {
                // Re-verify the reconnaissance result by consuming the
                // index entry; losing the race aborts this piece cleanly.
                if !ctx.tree_remove(&no_idx2, no_key)? {
                    return Err(Abort::Explicit(USER_ABORT));
                }
                let mut of = fields(&ctx.local_write_cur(0)?);
                of[2] = carrier;
                ctx.local_write(0, &pack_fields(&of))?;
                let mut total = 0u64;
                for &i in &ol_idx {
                    let mut lf = fields(&ctx.local_write_cur(i)?);
                    total = total.wrapping_add(lf[3]);
                    lf[4] = 1; // delivery timestamp
                    ctx.local_write(i, &pack_fields(&lf))?;
                }
                let mut cf = fields(&ctx.local_write_cur(1)?);
                cf[0] = cf[0].wrapping_add(total);
                cf[3] += 1;
                ctx.local_write(1, &pack_fields(&cf))?;
                Ok(())
            });
            tolerate_user_abort(r)?;
        }
        self.w.clear_chop();
        Ok(())
    }

    /// SL: count distinct recently-ordered items with low stock.
    ///
    /// TPC-C clause 3.5 explicitly relaxes stock-level to read-committed,
    /// so each record is read with its own validated HTM read. Purely
    /// local: it cannot fail, and is fallible only to match its siblings.
    pub fn try_stock_level(&mut self) -> Result<(), TxnError> {
        let w = self.home_w;
        let d = self.rng.gen_range(0..self.t.cfg.districts);
        let threshold = self.rng.gen_range(10..=20u64);
        let t = &self.t;
        let next_o = self.read_fields(&t.district, keys::district(w, d)).map_or(0, |df| df[2]);
        let mut low = std::collections::HashSet::new();
        for o in next_o.saturating_sub(20)..next_o {
            let Some(of) = self.read_fields(&t.order, keys::order(w, d, o)) else {
                continue;
            };
            for ol in 0..of[3].min(15) {
                let line = self.read_fields(&t.order_line, keys::order_line(w, d, o, ol));
                let Some(i) = line.map(|lf| lf[0]) else { continue };
                let qty =
                    self.read_fields(&t.stock, keys::stock(w, i)).map_or(u64::MAX, |sf| sf[0]);
                if qty < threshold {
                    low.insert(i);
                }
            }
        }
        Ok(())
    }

    /// The fields of `key`'s row in this machine's shard of `table`, read
    /// by a validated standalone region of its own; `None`: no such row.
    fn read_fields(&self, table: &Table, key: u64) -> Option<Vec<u64>> {
        table.read_local(self.w.executor(), self.w.region(), self.w.node, key).map(|v| fields(&v))
    }

    /// Committed standalone HTM read (reconnaissance queries).
    fn local_scan<T>(&self, f: impl FnMut(&mut drtm_htm::HtmTxn<'_>) -> Result<T, HtmAbort>) -> T {
        let pairs = self.w.executor().run(self.w.region(), f);
        pairs.expect("a read-only scan aborted for good")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::tests::tiny;
    use crate::tpcc::Tpcc;

    #[test]
    fn new_order_advances_district_and_is_consistent() {
        let t = Arc::new(Tpcc::build(tiny()));
        let mut w = t.worker(0, 0);
        for _ in 0..20 {
            w.try_new_order().unwrap();
        }
        assert!(t.check_order_consistency());
        let snap = t.sys.stats().snapshot();
        assert!(snap.committed >= 15, "most new-orders commit: {snap:?}");
    }

    #[test]
    fn payment_preserves_ytd_consistency() {
        let t = Arc::new(Tpcc::build(tiny()));
        let mut w = t.worker(0, 0);
        for _ in 0..30 {
            w.try_payment().unwrap();
        }
        assert!(t.check_ytd_consistency(), "W_YTD must equal Σ D_YTD");
    }

    #[test]
    fn order_status_and_stock_level_run() {
        let t = Arc::new(Tpcc::build(tiny()));
        let mut w = t.worker(0, 0);
        for _ in 0..5 {
            w.try_new_order().unwrap();
        }
        w.try_order_status().unwrap();
        w.try_stock_level().unwrap();
        assert!(t.sys.stats().snapshot().ro_committed >= 1);
    }

    #[test]
    fn delivery_consumes_new_orders() {
        let t = Arc::new(Tpcc::build(tiny()));
        let mut w = t.worker(0, 0);
        // Count undelivered before/after.
        let node = 0;
        let count = |t: &Arc<Tpcc>| {
            let region = t.sys.cluster().node(node).region().clone();
            let cfg = t.cfg.drtm.htm.clone();
            let mut txn = region.begin(&cfg);
            let mut n = 0;
            for d in 0..t.cfg.districts {
                let (lo, hi) = keys::new_order_range(0, d);
                n += t.new_order_idx[0].scan_range(&mut txn, lo, hi, 10_000).unwrap().len();
            }
            n
        };
        let before = count(&t);
        assert!(before > 0, "seed data must leave undelivered orders");
        w.try_delivery().unwrap();
        let after = count(&t);
        assert_eq!(after, before - t.cfg.districts as usize, "one order delivered per district");
        assert!(t.check_order_consistency());
    }

    #[test]
    fn full_mix_is_consistent_under_concurrency() {
        let t = Arc::new(Tpcc::build(tiny()));
        std::thread::scope(|s| {
            for n in 0..2u16 {
                for wid in 0..2 {
                    let mut w = t.worker(n, wid);
                    s.spawn(move || {
                        for _ in 0..60 {
                            w.run_one();
                        }
                    });
                }
            }
        });
        assert!(t.check_ytd_consistency());
        assert!(t.check_order_consistency());
        let snap = t.sys.stats().snapshot();
        assert!(snap.committed > 100, "{snap:?}");
    }
}
