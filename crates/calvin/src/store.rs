//! Per-node storage for the Calvin baseline.
//!
//! Calvin's contribution is the ordering layer, not the storage engine,
//! so the baseline uses a plain hash map of packed-field rows plus an
//! ordered set for the new-order queue. Conflict freedom is guaranteed
//! by the deterministic lock schedule, so a read-write lock suffices.

use std::collections::{BTreeSet, HashMap};

use parking_lot::{Mutex, RwLock};

/// Table tags for the unified key space.
pub(crate) mod table {
    /// Warehouse rows.
    pub(crate) const WAREHOUSE: u64 = 1;
    /// District rows.
    pub(crate) const DISTRICT: u64 = 2;
    /// Customer rows.
    pub(crate) const CUSTOMER: u64 = 3;
    /// Stock rows.
    pub(crate) const STOCK: u64 = 4;
    /// Item rows.
    pub(crate) const ITEM: u64 = 5;
    /// Order rows.
    pub(crate) const ORDER: u64 = 6;
    /// Order-line rows.
    pub(crate) const ORDER_LINE: u64 = 7;
}

/// Packs `(table, key)` into the unified 64-bit key space.
pub(crate) fn gkey(table: u64, key: u64) -> u64 {
    debug_assert!(key < 1 << 60);
    table << 60 | key
}

/// One machine's store.
#[derive(Debug, Default)]
pub(crate) struct NodeStore {
    kv: RwLock<HashMap<u64, Vec<u64>>>,
    /// Undelivered orders, by packed order key.
    pub new_orders: Mutex<BTreeSet<u64>>,
}

impl NodeStore {
    /// Reads a row's fields.
    pub(crate) fn read(&self, key: u64) -> Option<Vec<u64>> {
        self.kv.read().get(&key).cloned()
    }

    /// Writes (or creates) a row.
    pub(crate) fn write(&self, key: u64, fields: &[u64]) {
        self.kv.write().insert(key, fields.to_vec());
    }

    /// Applies `f` to a row in place; returns false if absent.
    pub(crate) fn update(&self, key: u64, f: impl FnOnce(&mut Vec<u64>)) -> bool {
        match self.kv.write().get_mut(&key) {
            Some(v) => {
                f(v);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gkey_separates_tables() {
        assert_ne!(gkey(table::ORDER, 5), gkey(table::STOCK, 5));
        assert_eq!(gkey(table::ORDER, 5) & ((1 << 60) - 1), 5);
    }

    #[test]
    fn store_roundtrip_and_update() {
        let s = NodeStore::default();
        s.write(1, &[10, 20]);
        assert_eq!(s.read(1), Some(vec![10, 20]));
        assert!(s.update(1, |v| v[0] += 1));
        assert_eq!(s.read(1).unwrap()[0], 11);
        assert!(!s.update(2, |_| ()));
        assert!(s.read(2).is_none());
    }

    #[test]
    fn new_order_queue_is_ordered() {
        let s = NodeStore::default();
        s.new_orders.lock().insert(30);
        s.new_orders.lock().insert(10);
        s.new_orders.lock().insert(20);
        assert_eq!(s.new_orders.lock().iter().next().copied(), Some(10));
    }
}
