//! The five TPC-C transactions on DrTM (§7.1–§7.3), each running a
//! [`Request`] its worker's [`StdMix`] drew.
//!
//! Local rows are declared by key and looked up inside the transaction's
//! own HTM region; only a remote row needs an address before Start.
//!
//! * **new-order** — the throughput metric; declares district + stock
//!   write sets in advance (remote stock lines become RDMA-locked remote
//!   writes), inserts order/order-line rows and index entries inside the
//!   HTM region, and aborts ~1 % of the time on an invalid item (the
//!   user-initiated abort allowed in the first transaction piece).
//! * **payment** — updates warehouse/district YTD and a customer that is
//!   remote 15 % of the time; 60 % of payments select the customer by
//!   last name through the ordered index, a remote customer's by a scan
//!   shipped to their machine (the paper ships the whole transaction,
//!   §6.5; both keep ordered-store accesses local).
//! * **order-status** — read-only (§4.5): one reconnaissance region
//!   finds the customer, their last order and its lines, one wave leases
//!   them all.
//! * **delivery** — chopped into one piece per district (§3): each piece
//!   discovers the oldest undelivered order with a reconnaissance query,
//!   then re-verifies it inside the transaction by consuming the
//!   new-order index entry.
//! * **stock-level** — read-only with TPC-C's explicitly relaxed
//!   isolation (clause 3.5): one validated region per order examined.

use std::sync::Arc;

use drtm_core::{Abort, ChopInfo, RecordAddr, TxnError, TxnSpec, Worker, USER_ABORT};
use drtm_rdma::NodeId;

use crate::resolve::Table;
use crate::tpcc::{hash16, keys, read_row, Request, StdMix, Tpcc};
use crate::{fields, pack_fields, tolerate_user_abort};

/// Per-thread TPC-C driver bound to one home warehouse.
pub struct TpccWorker {
    t: Arc<Tpcc>,
    w: Worker,
    mix: StdMix,
    hseq: u64,
}

enum StockRef {
    Local(usize),
    Remote(usize),
}

/// The fields of a row that population put there and nothing deletes.
fn row(value: Option<&[u8]>) -> Vec<u64> {
    fields(value.expect("a populated row"))
}

impl TpccWorker {
    pub(crate) fn new(t: Arc<Tpcc>, node: NodeId, worker_id: usize) -> TpccWorker {
        TpccWorker {
            w: t.sys.worker(node, worker_id),
            mix: StdMix::new(&t.cfg, node, worker_id),
            t,
            hseq: 0,
        }
    }

    /// The underlying DrTM worker.
    pub fn worker(&self) -> &Worker {
        &self.w
    }

    /// The address of `key`'s row on another machine, through the
    /// location cache: what Start locks with one-sided verbs.
    fn remote(&self, table: &Table, node: NodeId, key: u64) -> Result<RecordAddr, TxnError> {
        debug_assert_ne!(node, self.w.node, "a local row is declared by key");
        let found = table.try_resolve(&self.w, node, key)?;
        Ok(found.unwrap_or_else(|| panic!("missing row {key:#x}")))
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
        let t = Arc::clone(&self.t);
        let w = &self.w;
        let req = self.mix.next(&t.cfg, |c_w, c_d, name| customer_named(&t, w, c_w, c_d, name))?;
        let label = req.label();
        self.try_execute(req).map(|_| label)
    }

    /// NEW: one order of the mix, 5–15 lines.
    pub fn try_new_order(&mut self) -> Result<(), TxnError> {
        let req = self.mix.new_order(&self.t.cfg);
        self.try_execute(req)
    }

    /// PAY: one payment of the mix, by last name 60 % of the time.
    pub fn try_payment(&mut self) -> Result<(), TxnError> {
        let t = Arc::clone(&self.t);
        let w = &self.w;
        let req =
            self.mix.payment(&t.cfg, |c_w, c_d, name| customer_named(&t, w, c_w, c_d, name))?;
        self.try_execute(req)
    }

    /// OS: one order-status of the mix.
    pub fn try_order_status(&mut self) -> Result<(), TxnError> {
        let req = self.mix.order_status(&self.t.cfg);
        self.try_execute(req)
    }

    /// DLY: one delivery of the mix.
    pub fn try_delivery(&mut self) -> Result<(), TxnError> {
        let req = self.mix.delivery();
        self.try_execute(req)
    }

    /// SL: one stock-level of the mix.
    pub fn try_stock_level(&mut self) -> Result<(), TxnError> {
        let req = self.mix.stock_level(&self.t.cfg);
        self.try_execute(req)
    }

    fn try_execute(&mut self, req: Request) -> Result<(), TxnError> {
        match req {
            Request::NewOrder { w, d, c, lines, invalid } => {
                self.new_order(w, d, c, lines, invalid)
            }
            Request::Payment { w, d, c_w, c_d, c, h } => self.payment(w, d, (c_w, c_d, c), h),
            Request::OrderStatus { w, d, c } => self.order_status(w, d, c).map(drop),
            Request::Delivery { w, carrier } => self.delivery(w, carrier),
            Request::StockLevel { w, d, threshold } => self.stock_level(w, d, threshold),
        }
    }

    /// NEW: order `lines`, some possibly from remote warehouses.
    fn new_order(
        &mut self,
        w: u64,
        d: u64,
        c: u64,
        lines: Vec<(u64, u64, u64)>,
        invalid: bool,
    ) -> Result<(), TxnError> {
        let t = Arc::clone(&self.t);
        let node = self.w.node;
        let ol_cnt = lines.len() as u64;

        // Declare the read/write sets: local rows by key, a remote
        // warehouse's stock by the address Start will lock.
        let mut spec = TxnSpec::default();
        spec.keyed_writes.push(t.district.local(node, keys::district(w, d)));
        spec.keyed_reads.push(t.warehouse.local(node, keys::warehouse(w)));
        spec.keyed_reads.push(t.customer.local(node, keys::customer(w, d, c)));
        let mut stock_refs = Vec::with_capacity(lines.len());
        for &(i, supply, _) in &lines {
            spec.keyed_reads.push(t.item.local(node, i));
            let sn = t.cfg.node_of_warehouse(supply);
            if sn == node {
                stock_refs.push(StockRef::Local(spec.keyed_writes.len()));
                spec.keyed_writes.push(t.stock.local(node, keys::stock(supply, i)));
            } else {
                stock_refs.push(StockRef::Remote(spec.remote_writes.len()));
                spec.remote_writes.push(self.remote(&t.stock, sn, keys::stock(supply, i))?);
            }
        }

        let order_tab = t.order.shard(node);
        let ol_tab = t.order_line.shard(node);
        let no_idx = &t.new_order_idx[node as usize];
        let co_idx = &t.cust_order_idx[node as usize];
        let seq = self.hseq;
        let r = self.w.execute(&spec, |ctx| {
            if invalid {
                // Unused item number: roll back the whole order (1 %).
                return Err(Abort::Explicit(USER_ABORT));
            }
            // District: allocate the order id.
            let mut df = row(ctx.keyed_write_cur(0)?.as_deref());
            let o_id = df[2];
            df[2] = o_id + 1;
            ctx.keyed_write(0, &pack_fields(&df))?;
            // Items and stock.
            let mut total = 0u64;
            for (k, &(_, supply, qty)) in lines.iter().enumerate() {
                let price = row(ctx.keyed_read(2 + k)?)[0];
                let mut sf = match &stock_refs[k] {
                    StockRef::Local(idx) => row(ctx.keyed_write_cur(*idx)?.as_deref()),
                    StockRef::Remote(idx) => fields(ctx.remote_write_cur(*idx)),
                };
                sf[0] = if sf[0] >= qty + 10 { sf[0] - qty } else { sf[0] + 91 - qty };
                sf[1] = sf[1].wrapping_add(qty);
                sf[2] += 1;
                if supply != w {
                    sf[3] += 1;
                }
                match &stock_refs[k] {
                    StockRef::Local(idx) => ctx.keyed_write(*idx, &pack_fields(&sf))?,
                    StockRef::Remote(idx) => ctx.remote_write(*idx, pack_fields(&sf)),
                }
                total = total.wrapping_add(qty.wrapping_mul(price));
            }
            // Order rows and indexes.
            ctx.hash_insert(
                order_tab,
                keys::order(w, d, o_id),
                &pack_fields(&[c, seq, 0, ol_cnt]),
            )?;
            for (k, &(i, supply, qty)) in lines.iter().enumerate() {
                ctx.hash_insert(
                    ol_tab,
                    keys::order_line(w, d, o_id, k as u64),
                    &pack_fields(&[i, supply, qty, qty * 100, 0]),
                )?;
            }
            ctx.tree_insert(no_idx, keys::order(w, d, o_id), o_id)?;
            ctx.tree_insert(co_idx, keys::cust_order(w, d, c, o_id), o_id)?;
            let _ = total;
            Ok(o_id)
        });
        self.hseq += 1;
        tolerate_user_abort(r)
    }

    /// PAY: pay `h` into warehouse/district YTD, debit customer
    /// `(c_w, c_d, c)`.
    fn payment(
        &mut self,
        w: u64,
        d: u64,
        (c_w, c_d, c): (u64, u64, u64),
        h: u64,
    ) -> Result<(), TxnError> {
        let t = Arc::clone(&self.t);
        let node = self.w.node;
        let c_node = t.cfg.node_of_warehouse(c_w);
        let mut spec = TxnSpec::default();
        spec.keyed_writes.push(t.warehouse.local(node, keys::warehouse(w)));
        spec.keyed_writes.push(t.district.local(node, keys::district(w, d)));
        let cust_key = keys::customer(c_w, c_d, c);
        let cust_remote = c_node != node;
        if cust_remote {
            spec.remote_writes.push(self.remote(&t.customer, c_node, cust_key)?);
        } else {
            spec.keyed_writes.push(t.customer.local(node, cust_key));
        }
        let hist_tab = t.history.shard(node);
        let hist_key = (node as u64) << 48 | (self.w.worker_id as u64) << 40 | self.hseq;
        self.hseq += 1;
        let r = self.w.execute(&spec, |ctx| {
            let mut wf = row(ctx.keyed_write_cur(0)?.as_deref());
            wf[0] = wf[0].wrapping_add(h);
            ctx.keyed_write(0, &pack_fields(&wf))?;
            let mut df = row(ctx.keyed_write_cur(1)?.as_deref());
            df[0] = df[0].wrapping_add(h);
            ctx.keyed_write(1, &pack_fields(&df))?;
            let mut cf = if cust_remote {
                fields(ctx.remote_write_cur(0))
            } else {
                row(ctx.keyed_write_cur(2)?.as_deref())
            };
            cf[0] = cf[0].wrapping_sub(h);
            cf[1] = cf[1].wrapping_add(h);
            cf[2] += 1;
            if cust_remote {
                ctx.remote_write(0, pack_fields(&cf));
            } else {
                ctx.keyed_write(2, &pack_fields(&cf))?;
            }
            ctx.hash_insert(hist_tab, hist_key, &pack_fields(&[c_w, c_d, c, h, 0]))?;
            Ok(())
        });
        tolerate_user_abort(r)
    }

    /// OS: read-only status of a customer's most recent order; returns
    /// the order's total.
    fn order_status(&mut self, w: u64, d: u64, c: u64) -> Result<u64, TxnError> {
        let t = Arc::clone(&self.t);
        let node = self.w.node;
        let customer = t.customer.local(node, keys::customer(w, d, c));
        let co_idx = &t.cust_order_idx[node as usize];
        let (lo, hi) = keys::cust_order_range(w, d, c);
        self.w.try_read_only(|ctx| {
            // Reconnaissance: the customer, their newest order and its
            // lines, found in one region; then one wave leases them all.
            let recs = ctx.worker().recon(|s| {
                let mut recs = vec![s.step(|txn| customer.find(txn))?.expect("a populated row")];
                let Some((_, o_id)) = s.step(|txn| co_idx.max_in_range(txn, lo, hi))? else {
                    return Ok(recs);
                };
                let (order, ol_cnt) = s.step(|txn| {
                    let order = t.order.local(node, keys::order(w, d, o_id)).read(txn)?;
                    let (order, row) = order.expect("indexed order exists");
                    Ok((order, fields(&row)[3].min(15)))
                })?;
                recs.push(order);
                for ol in 0..ol_cnt {
                    let line = t.order_line.local(node, keys::order_line(w, d, o_id, ol));
                    recs.extend(s.step(|txn| line.find(txn))?);
                }
                Ok(recs)
            });
            let rows = ctx.acquire_all(&recs)?;
            // Customer and order first, then the lines: sum their amounts.
            Ok(rows.iter().skip(2).fold(0u64, |total, line| total.wrapping_add(fields(line)[3])))
        })
    }

    /// DLY: deliver the oldest undelivered order of each district —
    /// chopped into one DrTM transaction per district (§3). An error
    /// leaves the chopping information logged, as a crash would.
    fn delivery(&mut self, w: u64, carrier: u64) -> Result<(), TxnError> {
        let t = Arc::clone(&self.t);
        let node = self.w.node;
        let orders = t.order.shard(node);
        let no_idx = &t.new_order_idx[node as usize];
        for d in 0..t.cfg.districts {
            // Chopping information (Figure 7): if this machine dies,
            // recovery learns which district piece to resume from.
            self.w.log_chop(ChopInfo {
                kind: 4, // delivery
                piece: d as u16,
                total: t.cfg.districts as u16,
                arg: w as u16,
            });
            // Reconnaissance (§4.1's read-only reconnaissance query
            // pattern): the oldest undelivered order, and from its row
            // the customer and the line count.
            let (lo, hi) = keys::new_order_range(w, d);
            let oldest = self.w.recon(|s| {
                let queue = s.step(|txn| no_idx.scan_range(txn, lo, hi, 1))?;
                let Some(&(no_key, o_id)) = queue.first() else { return Ok(None) };
                let order = s.step(|txn| read_row(orders, txn, keys::order(w, d, o_id)))?;
                Ok(order.map(|of| (no_key, o_id, of[0], of[3].min(15))))
            });
            let Some((no_key, o_id, c, ol_cnt)) = oldest else {
                continue;
            };
            let mut spec = TxnSpec::default();
            spec.keyed_writes.push(t.order.local(node, keys::order(w, d, o_id)));
            spec.keyed_writes.push(t.customer.local(node, keys::customer(w, d, c)));
            for ol in 0..ol_cnt {
                spec.keyed_writes.push(t.order_line.local(node, keys::order_line(w, d, o_id, ol)));
            }
            let r = self.w.execute(&spec, |ctx| {
                // Re-verify the reconnaissance result by consuming the
                // index entry; losing the race aborts this piece cleanly.
                if !ctx.tree_remove(no_idx, no_key)? {
                    return Err(Abort::Explicit(USER_ABORT));
                }
                let mut of = row(ctx.keyed_write_cur(0)?.as_deref());
                of[2] = carrier;
                ctx.keyed_write(0, &pack_fields(&of))?;
                let mut total = 0u64;
                for i in 2..2 + ol_cnt as usize {
                    let Some(line) = ctx.keyed_write_cur(i)? else { continue };
                    let mut lf = fields(&line);
                    total = total.wrapping_add(lf[3]);
                    lf[4] = 1; // delivery timestamp
                    ctx.keyed_write(i, &pack_fields(&lf))?;
                }
                let mut cf = row(ctx.keyed_write_cur(1)?.as_deref());
                cf[0] = cf[0].wrapping_add(total);
                cf[3] += 1;
                ctx.keyed_write(1, &pack_fields(&cf))?;
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
    /// so each of the 20 orders examined is read — its row, its lines
    /// and their stock rows — in a validated region of its own. Purely
    /// local: it cannot fail, and is fallible only to match its siblings.
    fn stock_level(&mut self, w: u64, d: u64, threshold: u64) -> Result<(), TxnError> {
        let t = Arc::clone(&self.t);
        let node = self.w.node;
        let (districts, orders) = (t.district.shard(node), t.order.shard(node));
        let (order_lines, stock) = (t.order_line.shard(node), t.stock.shard(node));
        let district =
            self.w.recon(|s| s.step(|txn| read_row(districts, txn, keys::district(w, d))));
        let next_o = district.map_or(0, |df| df[2]);
        let mut low = std::collections::HashSet::new();
        for o in next_o.saturating_sub(20)..next_o {
            // (item, quantity in stock) of every line of order `o`.
            let lines: Vec<(u64, u64)> = self.w.recon(|s| {
                let order = s.step(|txn| read_row(orders, txn, keys::order(w, d, o)))?;
                let mut lines = Vec::new();
                for ol in 0..order.map_or(0, |of| of[3].min(15)) {
                    lines.extend(s.step(|txn| {
                        let line = read_row(order_lines, txn, keys::order_line(w, d, o, ol))?;
                        let Some(i) = line.map(|lf| lf[0]) else { return Ok(None) };
                        let in_stock = read_row(stock, txn, keys::stock(w, i))?;
                        Ok(Some((i, in_stock.map_or(u64::MAX, |sf| sf[0]))))
                    })?);
                }
                Ok(lines)
            });
            low.extend(lines.into_iter().filter(|&(_, qty)| qty < threshold).map(|(i, _)| i));
        }
        Ok(())
    }
}

/// The customer a payment by last name selects: the middle of what the
/// customer-name index of `(c_w, c_d)` lists under the name's hash, read
/// in a reconnaissance region at home or shipped to the customer's
/// machine. This is the dependency the paper resolves with chopping (the
/// index scan feeds the next piece); the scan of a remote customer's
/// index goes over SEND/RECV verbs (§3, §6.5).
fn customer_named(
    t: &Tpcc,
    w: &Worker,
    c_w: u64,
    c_d: u64,
    name_id: u64,
) -> Result<Option<u64>, TxnError> {
    let (node, c_node) = (w.node, t.cfg.node_of_warehouse(c_w));
    let (lo, hi) = keys::cust_name_range(c_w, c_d, hash16(name_id));
    let matches = if c_node == node {
        let tree = &t.cust_name_idx[node as usize];
        w.recon(|s| s.step(|txn| tree.scan_range(txn, lo, hi, 64)))
    } else {
        let reply_q = 0x8000 | (node << 8) | w.worker_id as u16;
        // A queue pair of its own: the scan's SEND must not ride the
        // transaction's doorbells. Tree 2 is the name index.
        let qp = t.sys.cluster().qp(node);
        crate::tpcc::scan_rpc::remote_scan(&qp, c_node, reply_q, 2, lo, hi, 64)?
    };
    Ok(matches.get(matches.len() / 2).map(|&(_, c)| c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::tests::tiny;
    use crate::tpcc::{Tpcc, TpccConfig};

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

    /// One warehouse on one machine: nothing is remote, nothing
    /// conflicts, so HTM commits count regions.
    fn one_worker() -> (Arc<Tpcc>, TpccWorker) {
        let t = Arc::new(Tpcc::build(TpccConfig { nodes: 1, workers: 1, ..tiny() }));
        let w = t.worker(0, 0);
        (t, w)
    }

    /// HTM regions committed, and aborted, while `f` ran.
    fn regions(t: &Tpcc, f: impl FnOnce()) -> (u64, u64) {
        let before = t.sys.htm_stats().snapshot();
        f();
        let d = t.sys.htm_stats().snapshot().since(&before);
        (d.commits, d.total_aborts())
    }

    #[test]
    fn each_transaction_type_runs_in_the_regions_it_needs() {
        let (t, mut w) = one_worker();
        let districts = t.cfg.districts;
        // new-order: its own region and nothing else — none at all for
        // the 1 % it rolls back before touching anything.
        let mut placed = 0;
        for _ in 0..40 {
            let before = t.sys.stats().snapshot().committed;
            let got = regions(&t, || w.try_new_order().unwrap());
            let committed = t.sys.stats().snapshot().committed - before;
            assert_eq!(got, (committed, 0), "new-order");
            placed += committed;
        }
        assert!(placed >= 35);
        // payment: its own region, plus the name-index scan of the 60 %
        // that select the customer by name.
        let (mut by_id, mut by_name) = (0, 0);
        for _ in 0..40 {
            let mut scans = false;
            let peek = w.mix.clone().payment(&t.cfg, |_, _, _| {
                scans = true;
                Ok::<_, TxnError>(None)
            });
            assert!(peek.is_ok());
            let got = regions(&t, || w.try_payment().unwrap());
            assert_eq!(got, (1 + scans as u64, 0), "payment, by name: {scans}");
            *(if scans { &mut by_name } else { &mut by_id }) += 1;
        }
        assert!(by_id > 0 && by_name > 0);
        // delivery: a reconnaissance region and the piece's own, per
        // district with an undelivered order (every one, here).
        assert_eq!(regions(&t, || w.try_delivery().unwrap()), (2 * districts, 0));
        // order-status: one reconnaissance region; the leases are verbs.
        for _ in 0..10 {
            let (commits, aborts) = regions(&t, || w.try_order_status().map(drop).unwrap());
            assert!((1..=2).contains(&commits) && aborts == 0, "order-status: {commits}");
        }
        // stock-level: the district row, then a region per order.
        for _ in 0..10 {
            let (commits, aborts) = regions(&t, || w.try_stock_level().unwrap());
            assert!((2..=22).contains(&commits) && aborts == 0, "stock-level: {commits}");
        }
        assert!(t.check_ytd_consistency() && t.check_order_consistency());
    }

    /// The standard mix's request stream, pinned: one worker on machine 0
    /// of two, alone, runs 300 transactions at [`tiny`]'s cross-warehouse
    /// rates (remote stock lines, remote and by-name payments). What it
    /// drew shows in the labels, one letter each, and in every
    /// warehouse, district, customer and stock row of both machines.
    #[test]
    fn the_standard_mix_draws_the_recorded_requests() {
        const LABELS: [&str; 5] = [
            "pppnpnnpsnnnnonpnnnnnnpdpnpsnnnppnpnpnnnpnnpnndoppspnpnnnnpp",
            "pnnpnsnnnnpppnnpppnspnnnpnsppnnppppnonsppddnnnnspnppnpnonpnn",
            "nnnnpnnppnpoppnnnnnppppppsnpnpnnnppppnpppnpdnnppspnonppponnp",
            "dnpppnnpnpsnpppppnnnnsnpnnppnnpnnnnnnnnssonnnpnpnndnnpnpnnnp",
            "nnpnpndnpppnpnnppppopnnppnpppndnpppdpnnppppnpnnpppdpnpnndppn",
        ];
        // [warehouse, district, customer, stock] per machine.
        const DIGESTS: [[u64; 4]; 2] = [
            [0xa8b7de4b234e47cf, 0x0c9c46c46e3c490b, 0x1de4f1391df3fa7c, 0x7eacab8d1ad17cde],
            [0x082fda07b4e6e243, 0x17955ba33233f8eb, 0xbf444b6be1a18d7e, 0xf2d8e1853cb206e9],
        ];
        let t = Arc::new(Tpcc::build(TpccConfig { workers: 1, ..tiny() }));
        let mut w = t.worker(0, 0);
        let labels: String = (0..300).map(|_| w.run_one()[..1].to_string()).collect();
        let digests = [0u16, 1].map(|n| {
            let exec = t.sys.executor();
            let region = t.sys.cluster().node(n).region();
            let (wh, cfg) = (n as u64, &t.cfg);
            let digest = |table: &Table, keys: &mut dyn Iterator<Item = u64>| {
                keys.flat_map(|k| fields(&table.read_local(&exec, region, n, k).expect("row")))
                    .fold(0xCBF2_9CE4_8422_2325u64, |h, x| (h ^ x).wrapping_mul(0x100_0000_01B3))
            };
            let dists = || 0..cfg.districts;
            [
                digest(&t.warehouse, &mut std::iter::once(keys::warehouse(wh))),
                digest(&t.district, &mut dists().map(|d| keys::district(wh, d))),
                digest(
                    &t.customer,
                    &mut dists().flat_map(|d| {
                        (0..cfg.customers_per_district).map(move |c| keys::customer(wh, d, c))
                    }),
                ),
                digest(&t.stock, &mut (0..cfg.items).map(|i| keys::stock(wh, i))),
            ]
        });
        println!("{labels}\n{digests:#x?}");
        assert_eq!(labels, LABELS.concat());
        assert_eq!(digests, DIGESTS);
    }

    #[test]
    fn the_mix_survives_small_read_sets() {
        // Batched regions must not raise the smallest read limit the mix
        // completes at: a batch that overflows is rerun in halves, down
        // to the one record per region each of them used to be.
        for lines in [16, 32, 64] {
            let mut cfg = tiny();
            cfg.drtm.htm.read_capacity_lines = lines;
            let t = Arc::new(Tpcc::build(cfg));
            let mut w = t.worker(0, 0);
            for _ in 0..200 {
                w.run_one();
            }
            let snap = t.sys.stats().snapshot();
            assert!(snap.committed > 150, "read limit {lines}: {snap:?}");
            assert!(snap.fallback_committed > 50, "read limit {lines} overflows new-order");
            assert!(t.check_ytd_consistency(), "read limit {lines}");
            assert!(t.check_order_consistency(), "read limit {lines}");
        }
    }
}
