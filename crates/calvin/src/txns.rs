//! What the Calvin baseline needs of a TPC-C [`Request`] before running
//! it: its lock set and its operation count.
//!
//! Calvin requires read/write sets up front (the same assumption DrTM
//! makes, §4.1); a request names every record it locks, and so its
//! participant nodes, before execution.

use drtm_workloads::tpcc::{keys, Request};

use crate::store::{gkey, table};

/// The lock set of `req` in a deployment of `districts` districts per
/// warehouse: `(warehouse, unified key, is_write)`. The engine maps
/// warehouses to nodes.
pub(crate) fn locks(req: &Request, districts: u64) -> Vec<(u64, u64, bool)> {
    match *req {
        Request::NewOrder { w, d, c, ref lines, .. } => {
            let mut v = vec![
                (w, gkey(table::DISTRICT, keys::district(w, d)), true),
                (w, gkey(table::WAREHOUSE, keys::warehouse(w)), false),
                (w, gkey(table::CUSTOMER, keys::customer(w, d, c)), false),
            ];
            for &(i, supply, _) in lines {
                v.push((supply, gkey(table::STOCK, keys::stock(supply, i)), true));
                v.push((w, gkey(table::ITEM, i), false));
            }
            v
        }
        Request::Payment { w, d, c_w, c_d, c, .. } => vec![
            (w, gkey(table::WAREHOUSE, keys::warehouse(w)), true),
            (w, gkey(table::DISTRICT, keys::district(w, d)), true),
            (c_w, gkey(table::CUSTOMER, keys::customer(c_w, c_d, c)), true),
        ],
        Request::OrderStatus { w, d, c } => {
            vec![(w, gkey(table::CUSTOMER, keys::customer(w, d, c)), false)]
        }
        // Delivery and stock-level lock at district granularity in this
        // simplified lock table (their scan sets are dynamic).
        Request::Delivery { w, .. } => {
            (0..districts).map(|d| (w, gkey(table::DISTRICT, keys::district(w, d)), true)).collect()
        }
        Request::StockLevel { w, d, .. } => {
            vec![(w, gkey(table::DISTRICT, keys::district(w, d)), false)]
        }
    }
}

/// Number of record operations `req` performs (drives the execution
/// cost model): delivery does four per district.
pub(crate) fn op_count(req: &Request, districts: u64) -> u64 {
    match req {
        Request::NewOrder { lines, .. } => 3 + 3 * lines.len() as u64 + 2,
        Request::Payment { .. } => 4,
        Request::OrderStatus { .. } => 8,
        Request::Delivery { .. } => 4 * districts,
        Request::StockLevel { .. } => 120,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_order_locks_cover_remote_stock() {
        let lines = vec![(7, 3, 2), (8, 0, 1)];
        let t = Request::NewOrder { w: 0, d: 1, c: 2, lines, invalid: false };
        let locks = locks(&t, 10);
        assert!(locks.iter().any(|&(w, k, wr)| w == 3 && wr && k >> 60 == table::STOCK));
        assert!(locks.iter().any(|&(w, _, wr)| w == 0 && wr)); // district
    }

    #[test]
    fn payment_locks_customer_warehouse() {
        let t = Request::Payment { w: 0, d: 0, c_w: 5, c_d: 1, c: 9, h: 100 };
        assert!(locks(&t, 10).iter().any(|&(w, _, wr)| w == 5 && wr));
    }

    #[test]
    fn delivery_locks_every_district_of_the_deployment() {
        for districts in [3, 10] {
            let t = Request::Delivery { w: 1, carrier: 2 };
            assert_eq!(locks(&t, districts).len() as u64, districts);
            assert_eq!(op_count(&t, districts), 4 * districts);
        }
    }

    #[test]
    fn op_counts_are_positive() {
        for t in [
            Request::NewOrder { w: 0, d: 0, c: 0, lines: vec![(1, 0, 1)], invalid: false },
            Request::Payment { w: 0, d: 0, c_w: 0, c_d: 0, c: 0, h: 1 },
            Request::OrderStatus { w: 0, d: 0, c: 0 },
            Request::Delivery { w: 0, carrier: 1 },
            Request::StockLevel { w: 0, d: 0, threshold: 10 },
        ] {
            assert!(op_count(&t, 10) > 0);
        }
    }
}
