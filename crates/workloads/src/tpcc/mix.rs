//! The standard mix's requests (§7.1): every input of a TPC-C
//! transaction, drawn before it runs. Both systems of Figure 12 run
//! these: [`TpccWorker`](crate::tpcc::TpccWorker) executes them on DrTM,
//! and the Calvin baseline sequences them, so a figure that compares
//! the two compares them on one request stream.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::Rng;

use drtm_rdma::NodeId;

use crate::dist::rng;
use crate::tpcc::TpccConfig;

/// One TPC-C transaction with every input chosen by the client; `w` is
/// the home warehouse, where it was issued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// New-order by customer `c` of district `d`: `lines` are `(item,
    /// supply warehouse, quantity)` for distinct items, and an `invalid`
    /// order names an unused item and rolls back (1 %).
    NewOrder { w: u64, d: u64, c: u64, lines: Vec<(u64, u64, u64)>, invalid: bool },
    /// Payment of `h` cents into `(w, d)` by customer `c` of district
    /// `(c_w, c_d)`, already resolved when selected by last name.
    Payment { w: u64, d: u64, c_w: u64, c_d: u64, c: u64, h: u64 },
    /// Status of the last order of customer `c` of district `d`.
    OrderStatus { w: u64, d: u64, c: u64 },
    /// Delivery of every district's oldest undelivered order by `carrier`.
    Delivery { w: u64, carrier: u64 },
    /// Count of low-stock items, under `threshold`, among district `d`'s
    /// recent orders.
    StockLevel { w: u64, d: u64, threshold: u64 },
}

impl Request {
    /// Short label for reporting.
    pub fn label(&self) -> &'static str {
        match self {
            Request::NewOrder { .. } => "new_order",
            Request::Payment { .. } => "payment",
            Request::OrderStatus { .. } => "order_status",
            Request::Delivery { .. } => "delivery",
            Request::StockLevel { .. } => "stock_level",
        }
    }

    /// The home warehouse.
    pub fn warehouse(&self) -> u64 {
        match self {
            Request::NewOrder { w, .. }
            | Request::Payment { w, .. }
            | Request::OrderStatus { w, .. }
            | Request::Delivery { w, .. }
            | Request::StockLevel { w, .. } => *w,
        }
    }
}

/// The request stream of one home warehouse: the standard mix (NEW 45 %,
/// PAY 43 %, OS 4 %, DLY 4 %, SL 4 %), drawn from the seed of the DrTM
/// worker that owns the warehouse.
#[derive(Debug, Clone)]
pub struct StdMix {
    rng: SmallRng,
    w: u64,
}

impl StdMix {
    /// The stream of worker `worker_id` on `node`, whose home warehouse
    /// is `node × workers + worker_id` (one warehouse per worker, §7.2).
    pub fn new(cfg: &TpccConfig, node: NodeId, worker_id: usize) -> StdMix {
        let w = node as u64 * cfg.workers as u64 + worker_id as u64;
        StdMix { rng: rng((node as u64) << 32 ^ (worker_id as u64) << 16 ^ 0x7AC0_5EED), w }
    }

    /// The next request of the mix. A payment by last name (60 %) asks
    /// `by_name(c_w, c_d, name_id)` for the customer; when it finds none,
    /// the customer is drawn by id instead.
    pub fn next<E>(
        &mut self,
        cfg: &TpccConfig,
        by_name: impl FnOnce(u64, u64, u64) -> Result<Option<u64>, E>,
    ) -> Result<Request, E> {
        Ok(match self.rng.gen_range(0..100u32) {
            0..=44 => self.new_order(cfg),
            45..=87 => self.payment(cfg, by_name)?,
            88..=91 => self.order_status(cfg),
            92..=95 => self.delivery(),
            _ => self.stock_level(cfg),
        })
    }

    /// A warehouse other than home, uniformly.
    fn other_warehouse(&mut self, cfg: &TpccConfig) -> u64 {
        let s = self.rng.gen_range(0..cfg.warehouses());
        if s == self.w {
            (s + 1) % cfg.warehouses()
        } else {
            s
        }
    }

    /// NEW: 5–15 lines, each supplied by another warehouse at
    /// `cross_warehouse_new_order`.
    pub(crate) fn new_order(&mut self, cfg: &TpccConfig) -> Request {
        let w = self.w;
        let d = self.rng.gen_range(0..cfg.districts);
        let c = self.rng.gen_range(0..cfg.customers_per_district);
        let ol_cnt = self.rng.gen_range(5..=15u64);
        let invalid = self.rng.gen_bool(0.01);
        let mut seen = HashSet::new();
        let lines = (0..ol_cnt)
            .map(|_| {
                // Items within one order are distinct so no record appears
                // twice in the declared write set (a duplicate would make
                // the transaction block on its own exclusive lock).
                let i = loop {
                    let i = self.rng.gen_range(0..cfg.items);
                    if seen.insert(i) {
                        break i;
                    }
                };
                let remote =
                    cfg.warehouses() > 1 && self.rng.gen_bool(cfg.cross_warehouse_new_order);
                let supply = if remote { self.other_warehouse(cfg) } else { w };
                (i, supply, self.rng.gen_range(1..=10))
            })
            .collect();
        Request::NewOrder { w, d, c, lines, invalid }
    }

    /// PAY: a customer of another warehouse at `cross_warehouse_payment`,
    /// selected by last name 60 % of the time (see [`StdMix::next`]).
    pub(crate) fn payment<E>(
        &mut self,
        cfg: &TpccConfig,
        by_name: impl FnOnce(u64, u64, u64) -> Result<Option<u64>, E>,
    ) -> Result<Request, E> {
        let w = self.w;
        let d = self.rng.gen_range(0..cfg.districts);
        let h = self.rng.gen_range(100..=500_000u64); // cents
        let remote = cfg.warehouses() > 1 && self.rng.gen_bool(cfg.cross_warehouse_payment);
        let (c_w, c_d) = if remote {
            (self.other_warehouse(cfg), self.rng.gen_range(0..cfg.districts))
        } else {
            (w, d)
        };
        let named = if self.rng.gen_bool(0.6) {
            by_name(c_w, c_d, self.rng.gen_range(0..97u64))?
        } else {
            None
        };
        let c = named.unwrap_or_else(|| self.rng.gen_range(0..cfg.customers_per_district));
        Ok(Request::Payment { w, d, c_w, c_d, c, h })
    }

    /// OS: a customer of the home warehouse.
    pub(crate) fn order_status(&mut self, cfg: &TpccConfig) -> Request {
        let d = self.rng.gen_range(0..cfg.districts);
        let c = self.rng.gen_range(0..cfg.customers_per_district);
        Request::OrderStatus { w: self.w, d, c }
    }

    /// DLY: a carrier for every district's oldest order.
    pub(crate) fn delivery(&mut self) -> Request {
        Request::Delivery { w: self.w, carrier: self.rng.gen_range(1..=10u64) }
    }

    /// SL: a district and a stock threshold.
    pub(crate) fn stock_level(&mut self, cfg: &TpccConfig) -> Request {
        let d = self.rng.gen_range(0..cfg.districts);
        let threshold = self.rng.gen_range(10..=20u64);
        Request::StockLevel { w: self.w, d, threshold }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::tests::tiny;

    #[test]
    fn no_two_workers_of_a_cluster_draw_one_stream() {
        // ORing the worker id into the constant's set bits would give
        // workers 0, 1, 4 and 5 of a machine one stream, and TPC-C's
        // figures would depend on which workers run side by side.
        let cfg = TpccConfig { nodes: 4, workers: 16, ..tiny() };
        let streams: HashSet<Vec<u64>> = (0..cfg.nodes as NodeId)
            .flat_map(|n| (0..cfg.workers).map(move |i| (n, i)))
            .map(|(n, i)| {
                let mut mix = StdMix::new(&cfg, n, i);
                (0..8).map(|_| mix.rng.gen()).collect()
            })
            .collect();
        assert_eq!(streams.len(), cfg.nodes * cfg.workers);
    }
}
