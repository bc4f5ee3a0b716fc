//! TPC-C (§7.1): warehouse-centric order processing.
//!
//! The database is partitioned by warehouse across machines (the paper
//! runs one warehouse per worker thread). Unordered tables (warehouse,
//! district, customer, stock, item, order, order-line, history) live in
//! the cluster-chaining hash table; ordered access paths (new-order
//! queue, customer→order index, customer-by-name index) live in the
//! HTM-protected B+ tree, which is local-only — exactly the paper's
//! split (§5, §6.5).
//!
//! Scaled-down population (items, customers/district) keeps the paper's
//! schema and transaction logic while fitting a single build box; every
//! scale knob is in [`TpccConfig`].

pub mod keys;
mod mix;
pub mod scan_rpc;
mod txns;

pub use mix::{Request, StdMix};
pub use txns::TpccWorker;

use std::sync::Arc;

use drtm_core::{Deployment, DrTm, DrTmConfig, LocalKey, SOFTTIME_INTERVAL};
use drtm_htm::{Abort, Executor, HtmConfig, HtmTxn};
use drtm_memstore::{BTree, ClusterHash};
use drtm_rdma::rpc::Service;
use drtm_rdma::{AtomicityLevel, ClusterConfig, DoorbellConfig, LatencyProfile, NodeId};

use crate::pack_fields;
use crate::resolve::Table;

/// The fields of `key`'s row in `shard`, read inside `txn`; `None`: no
/// such row.
fn read_row(
    shard: &ClusterHash,
    txn: &mut HtmTxn<'_>,
    key: u64,
) -> Result<Option<Vec<u64>>, Abort> {
    Ok(LocalKey { table: shard, key }.read(txn)?.map(|(_, row)| crate::fields(&row)))
}

/// 16-bit mixing hash used for name indexing.
pub fn hash16(x: u64) -> u64 {
    drtm_memstore::hash64(x) & 0xFFFF
}

/// TPC-C sizing and behaviour.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Simulated machines.
    pub nodes: usize,
    /// Worker threads per machine (= warehouses per machine, §7.2).
    pub workers: usize,
    /// Districts per warehouse (TPC-C: 10).
    pub districts: u64,
    /// Customers per district (TPC-C: 3000; scaled down by default).
    pub customers_per_district: u64,
    /// Items in the catalogue (TPC-C: 100 000; scaled down by default).
    pub items: u64,
    /// Probability a new-order item line is supplied by a non-home
    /// warehouse (TPC-C default 1 %; the x-axis of Figure 16).
    pub cross_warehouse_new_order: f64,
    /// Probability payment pays a customer of another warehouse (15 %).
    pub cross_warehouse_payment: f64,
    /// Capacity headroom: new orders each node may insert during a run.
    pub max_new_orders_per_node: usize,
    /// Region bytes per machine.
    pub region_size: usize,
    /// Network cost model.
    pub profile: LatencyProfile,
    /// NIC atomics coherence level (§6.3 ablation).
    pub atomicity: AtomicityLevel,
    /// Doorbell batching of outbound one-sided ops (on by default; the
    /// fig12 batching ablation turns it off).
    pub doorbell: DoorbellConfig,
    /// Transaction-layer configuration.
    pub drtm: DrTmConfig,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            nodes: 2,
            workers: 2,
            districts: 10,
            customers_per_district: 120,
            items: 2_000,
            cross_warehouse_new_order: 0.01,
            cross_warehouse_payment: 0.15,
            max_new_orders_per_node: 60_000,
            region_size: 192 << 20,
            profile: LatencyProfile::rdma(),
            atomicity: AtomicityLevel::Hca,
            doorbell: DoorbellConfig::default(),
            drtm: DrTmConfig::default(),
        }
    }
}

impl TpccConfig {
    /// Total warehouses in the cluster.
    pub fn warehouses(&self) -> u64 {
        (self.nodes * self.workers) as u64
    }

    /// The machine owning warehouse `w`.
    pub fn node_of_warehouse(&self, w: u64) -> NodeId {
        (w / self.workers as u64) as NodeId
    }
}

/// Value-field layouts (packed `u64` little-endian arrays).
pub mod val {
    /// warehouse: `[ytd, tax_e4]`.
    pub const WAREHOUSE: usize = 16;
    /// district: `[ytd, tax_e4, next_o_id]`.
    pub const DISTRICT: usize = 24;
    /// customer: `[balance, ytd_payment, payment_cnt, delivery_cnt, last_name_id]`.
    pub const CUSTOMER: usize = 40;
    /// stock: `[quantity, ytd, order_cnt, remote_cnt]`.
    pub const STOCK: usize = 32;
    /// item: `[price_e2, name_hash, data_hash]`.
    pub const ITEM: usize = 24;
    /// order: `[c_id, entry_ts, carrier_id, ol_cnt]`.
    pub const ORDER: usize = 32;
    /// order-line: `[i_id, supply_w, qty, amount_e2, delivery_ts]`.
    pub const ORDER_LINE: usize = 40;
    /// history: `[w, d, c, amount_e2, ts]`.
    pub const HISTORY: usize = 40;
}

/// The initial database, one function per table: what [`Tpcc::build`]
/// populates and the Calvin baseline loads into its own stores, so the
/// two systems of Figure 12 start from the same rows.
pub mod seed {
    use super::{hash16, TpccConfig};

    /// Item `i`, replicated on every machine.
    pub fn item(i: u64) -> [u64; 3] {
        [100 + (i * 37) % 9900, hash16(i), hash16(i * 3)] // price in cents
    }

    /// Every warehouse.
    pub fn warehouse() -> [u64; 2] {
        [0, 750]
    }

    /// Every district: the next order id follows the seed orders.
    pub fn district(cfg: &TpccConfig) -> [u64; 3] {
        [0, 850, cfg.customers_per_district]
    }

    /// Customer `c`'s last-name id: clustered last names, like the spec's
    /// NURand.
    pub fn last_name(c: u64) -> u64 {
        c % 97
    }

    /// Customer `c` of any district.
    pub fn customer(c: u64) -> [u64; 5] {
        [0, 0, 0, 0, last_name(c)]
    }

    /// Item `i`'s stock in any warehouse.
    pub fn stock(i: u64) -> [u64; 4] {
        [50 + (i % 50), 0, 0, 0]
    }

    /// Customer `c`'s one seed order, whose id is `c`.
    pub fn order(c: u64) -> [u64; 4] {
        [c, 0, 1, 1]
    }

    /// The one line of warehouse `w`'s seed order `o`.
    pub fn order_line(cfg: &TpccConfig, w: u64, o: u64) -> [u64; 5] {
        [o % cfg.items, w, 5, 500, 1]
    }

    /// Whether seed order `o` is undelivered: the youngest third are.
    pub fn undelivered(cfg: &TpccConfig, o: u64) -> bool {
        o * 3 >= cfg.customers_per_district * 2
    }

    /// The customer a payment by last name `name_id` selects in any
    /// district: the middle one of the first 64 the customer-name index
    /// lists under the name's hash, in id order, which is what
    /// `TpccWorker`'s index scan finds (nothing inserts into that index
    /// after population). `None`: no customer carries the name.
    pub fn customer_by_name(cfg: &TpccConfig, name_id: u64) -> Option<u64> {
        let h = hash16(name_id);
        let named: Vec<u64> = (0..cfg.customers_per_district)
            .filter(|&c| hash16(last_name(c)) == h)
            .take(64)
            .collect();
        named.get(named.len() / 2).copied()
    }
}

/// A built TPC-C deployment.
pub struct Tpcc {
    /// The transaction system.
    pub sys: Arc<DrTm>,
    /// Hash tables.
    pub warehouse: Arc<Table>,
    /// District rows (one per warehouse × district).
    pub district: Arc<Table>,
    /// Customer rows.
    pub customer: Arc<Table>,
    /// Stock rows.
    pub stock: Arc<Table>,
    /// Item catalogue — replicated on every machine, always local.
    pub item: Arc<Table>,
    /// Order rows.
    pub order: Arc<Table>,
    /// Order-line rows.
    pub order_line: Arc<Table>,
    /// History rows (insert-only).
    pub history: Arc<Table>,
    /// Per-node B+ trees: undelivered new-orders.
    pub new_order_idx: Vec<Arc<BTree>>,
    /// Per-node B+ trees: customer → order ids.
    pub cust_order_idx: Vec<Arc<BTree>>,
    /// Per-node B+ trees: (last-name hash) → customer ids.
    pub cust_name_idx: Vec<Arc<BTree>>,
    /// The configuration it was built with.
    pub cfg: TpccConfig,
    /// Per-node ordered-store scan services (§6.5 remote range queries).
    _scan_services: Vec<Service>,
}

impl Tpcc {
    /// Builds the cluster and populates the standard TPC-C rows.
    pub fn build(cfg: TpccConfig) -> Tpcc {
        let cluster = ClusterConfig {
            nodes: cfg.nodes,
            region_size: cfg.region_size,
            profile: cfg.profile.clone(),
            atomicity: cfg.atomicity,
            doorbell: cfg.doorbell.clone(),
            ..Default::default()
        };
        let wh_per_node = cfg.workers;
        let dists = wh_per_node * cfg.districts as usize;
        let custs = dists * cfg.customers_per_district as usize;
        let stock_rows = wh_per_node * cfg.items as usize;
        let items = cfg.items as usize;
        let order_cap = custs + cfg.max_new_orders_per_node; // one seed order per customer
        let ol_cap = order_cap * 15;

        // Declaration order is region order on every machine.
        let mut dep = Deployment::new(cluster, cfg.drtm.clone(), cfg.workers);
        let warehouse = dep.hash(16, wh_per_node + 1, val::WAREHOUSE);
        let district = dep.hash(64, dists + 1, val::DISTRICT);
        let customer = dep.hash(custs / 4, custs + 1, val::CUSTOMER);
        let stock = dep.hash(stock_rows / 4, stock_rows + 1, val::STOCK);
        let item = dep.hash(items / 4, items + 1, val::ITEM);
        let order = dep.hash(order_cap / 4, order_cap, val::ORDER);
        let order_line = dep.hash(ol_cap / 4, ol_cap, val::ORDER_LINE);
        let history = dep.hash(order_cap / 4, order_cap, val::HISTORY);
        // Every order ever placed keeps its node: `remove` frees none.
        let new_order_idx = dep.tree(BTree::pool_for(order_cap));
        let cust_order_idx = dep.tree(BTree::pool_for(order_cap));
        let cust_name_idx = dep.tree(BTree::pool_for(custs));

        // Population, machine by machine: the replicated item catalogue,
        // then its warehouses' rows and index entries.
        for n in dep.nodes() {
            let (i, region, exec) = (n as usize, dep.region(n), dep.exec());
            let put = |table: &[Arc<ClusterHash>], key: u64, row: &[u64]| {
                table[i].insert(exec, region, key, &pack_fields(row)).expect("table full");
            };
            let index = |tree: &[Arc<BTree>], k: u64, v: u64| {
                exec.run(region, |txn| tree[i].insert(txn, k, v)).expect("tree pool exhausted");
            };
            for it in 0..cfg.items {
                put(&item, it, &seed::item(it));
            }
            let per_node = wh_per_node as u64;
            for w in n as u64 * per_node..(n as u64 + 1) * per_node {
                put(&warehouse, keys::warehouse(w), &seed::warehouse());
                for d in 0..cfg.districts {
                    put(&district, keys::district(w, d), &seed::district(&cfg));
                    for c in 0..cfg.customers_per_district {
                        put(&customer, keys::customer(w, d, c), &seed::customer(c));
                        let name = hash16(seed::last_name(c));
                        index(&cust_name_idx, keys::cust_name(w, d, name, c), c);
                        // Customer `c`'s one seed order has id `c`.
                        put(&order, keys::order(w, d, c), &seed::order(c));
                        let line = seed::order_line(&cfg, w, c);
                        put(&order_line, keys::order_line(w, d, c, 0), &line);
                        index(&cust_order_idx, keys::cust_order(w, d, c, c), c);
                        if seed::undelivered(&cfg, c) {
                            index(&new_order_idx, keys::order(w, d, c), c);
                        }
                    }
                }
                for it in 0..cfg.items {
                    put(&stock, keys::stock(w, it), &seed::stock(it));
                }
            }
        }

        let sys = dep.start(SOFTTIME_INTERVAL);
        // Ordered-store scan service per machine: tree 0 = new-order
        // queue, 1 = customer-order index, 2 = customer-name index.
        let scan_services = (0..cfg.nodes)
            .map(|i| {
                let trees = [&new_order_idx, &cust_order_idx, &cust_name_idx].map(|t| t[i].clone());
                let (cluster, exec) = (sys.cluster().clone(), sys.executor());
                scan_rpc::spawn_scan_service(cluster, i as NodeId, trees.into(), exec)
            })
            .collect();
        Tpcc {
            sys,
            warehouse: Arc::new(Table::new(warehouse)),
            district: Arc::new(Table::new(district)),
            customer: Arc::new(Table::new(customer)),
            stock: Arc::new(Table::new(stock)),
            item: Arc::new(Table::new(item)),
            order: Arc::new(Table::new(order)),
            order_line: Arc::new(Table::new(order_line)),
            history: Arc::new(Table::new(history)),
            new_order_idx,
            cust_order_idx,
            cust_name_idx,
            cfg,
            _scan_services: scan_services,
        }
    }

    /// Creates a per-thread workload driver bound to one home warehouse.
    pub fn worker(self: &Arc<Self>, node: NodeId, worker_id: usize) -> TpccWorker {
        TpccWorker::new(self.clone(), node, worker_id)
    }

    /// TPC-C consistency condition 1: for every warehouse,
    /// `W_YTD = Σ D_YTD` over its districts.
    pub fn check_ytd_consistency(&self) -> bool {
        let exec = self.sys.executor();
        for w in 0..self.cfg.warehouses() {
            let n = self.cfg.node_of_warehouse(w);
            let region = self.sys.cluster().node(n).region();
            let read = |table: &Table, key: u64| -> Vec<u64> {
                let v = table.read_local(&exec, region, n, key);
                crate::fields(&v.unwrap_or_else(|| panic!("missing row {key}")))
            };
            let w_ytd = read(&self.warehouse, keys::warehouse(w))[0];
            let d_sum: u64 = (0..self.cfg.districts)
                .map(|d| read(&self.district, keys::district(w, d))[0])
                .sum();
            if w_ytd != d_sum {
                return false;
            }
        }
        true
    }

    /// TPC-C consistency condition 2/3 (simplified): for every district,
    /// `next_o_id - 1` equals the largest order id in both the order
    /// table's customer index and the new-order tree's district range.
    pub fn check_order_consistency(&self) -> bool {
        // Not a modelled transaction: the scan of a district's whole
        // queue reads on stock limits, so a deployment built with a
        // deliberately small read set can still be checked.
        let exec = Executor::new(HtmConfig::default(), self.sys.htm_stats().clone());
        for w in 0..self.cfg.warehouses() {
            let n = self.cfg.node_of_warehouse(w);
            let region = self.sys.cluster().node(n).region();
            for d in 0..self.cfg.districts {
                let good = exec.run(region, |txn| {
                    let row = read_row(self.district.shard(n), txn, keys::district(w, d))?;
                    let Some(next) = row.map(|df| df[2]) else {
                        return Ok(false);
                    };
                    let (lo, hi) = keys::new_order_range(w, d);
                    let max_no = self.new_order_idx[n as usize].max_in_range(txn, lo, hi)?;
                    Ok(max_no.is_none_or(|(k, _)| (k & ((1 << 36) - 1)) < next))
                });
                if !good.expect("a consistency read never aborts itself") {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny() -> TpccConfig {
        TpccConfig {
            nodes: 2,
            workers: 2,
            districts: 3,
            customers_per_district: 30,
            items: 200,
            cross_warehouse_new_order: 0.1,
            cross_warehouse_payment: 0.2,
            max_new_orders_per_node: 5_000,
            region_size: 48 << 20,
            profile: LatencyProfile::zero(),
            atomicity: AtomicityLevel::Hca,
            drtm: DrTmConfig::default(),
            doorbell: DoorbellConfig::default(),
        }
    }

    /// Region offsets of every TPC-C store at [`tiny`], recorded against
    /// the per-node `create` loop `Tpcc::build` used to spell out: the
    /// eight tables as `[main_base, main_buckets, ind_base, ind_buckets,
    /// entry_base, entry_capacity, value_cap]`, the three trees as
    /// `[meta_base, pool_base, pool_cap]`, in declaration order. They
    /// move only if the layout or a store's geometry does.
    const TABLES: [[usize; 7]; 8] = [
        [39104, 16, 41152, 16, 43200, 3, 16],
        [43392, 64, 51584, 16, 53632, 7, 24],
        [54080, 64, 62272, 38, 67136, 181, 40],
        [80192, 128, 96576, 66, 105024, 401, 32],
        [130688, 64, 138880, 41, 144128, 201, 24],
        [155392, 2048, 417536, 663, 502400, 5180, 32],
        [833920, 32768, 5028224, 9728, 6273408, 77700, 40],
        [11867840, 2048, 12129984, 663, 12214848, 5180, 40],
    ];
    const TREES: [[usize; 3]; 3] =
        [[12587840, 12587904, 927], [12825216, 12825280, 927], [13062592, 13062656, 94]];

    #[test]
    fn store_offsets_are_the_recorded_ones_on_every_machine() {
        let t = Tpcc::build(tiny());
        let tables = [
            &t.warehouse,
            &t.district,
            &t.customer,
            &t.stock,
            &t.item,
            &t.order,
            &t.order_line,
            &t.history,
        ];
        let trees = [&t.new_order_idx, &t.cust_order_idx, &t.cust_name_idx];
        for n in 0..2 {
            for (table, want) in tables.iter().zip(TABLES) {
                let d = table.shard(n).desc();
                let got = [
                    d.main_base,
                    d.main_buckets,
                    d.ind_base,
                    d.ind_buckets,
                    d.entry_base,
                    d.entry_capacity,
                    d.value_cap,
                ];
                assert_eq!((d.node, got), (n, want));
            }
            for (tree, want) in trees.iter().zip(TREES) {
                let d = tree[n as usize].desc();
                assert_eq!((d.node, [d.meta_base, d.pool_base, d.pool_cap]), (n, want));
            }
        }
    }

    /// The by-name rule written once for the Calvin baseline answers what
    /// DrTM's scan of the customer-name index does, for every last name,
    /// at the harnesses' 60 customers per district and the default 120.
    #[test]
    fn the_by_name_rule_is_the_name_index_scan() {
        for customers_per_district in [60, 120] {
            let cfg = TpccConfig { nodes: 1, workers: 1, customers_per_district, ..tiny() };
            let t = Tpcc::build(cfg.clone());
            let (exec, region) = (t.sys.executor(), t.sys.cluster().node(0).region());
            let names = &t.cust_name_idx[0];
            for name_id in 0..97 {
                let (lo, hi) = keys::cust_name_range(0, 2, hash16(name_id));
                let scan = exec.run(region, |txn| names.scan_range(txn, lo, hi, 64));
                let scan = scan.expect("a scan never aborts itself");
                let want = scan.get(scan.len() / 2).map(|&(_, c)| c);
                assert_eq!(seed::customer_by_name(&cfg, name_id), want, "name {name_id}");
                assert_eq!(want.is_some(), name_id < customers_per_district);
            }
        }
    }

    #[test]
    fn population_is_consistent() {
        let t = Tpcc::build(tiny());
        assert!(t.check_ytd_consistency());
        assert!(t.check_order_consistency());
        assert_eq!(t.cfg.warehouses(), 4);
        assert_eq!(t.cfg.node_of_warehouse(0), 0);
        assert_eq!(t.cfg.node_of_warehouse(3), 1);
    }
}
