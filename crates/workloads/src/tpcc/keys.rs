//! Composite-key packing for the TPC-C tables.
//!
//! All stores are keyed by `u64`; composite TPC-C keys are bit-packed so
//! that ordered-store scans over a prefix become contiguous key ranges:
//!
//! ```text
//! warehouse   w                                   (16 bits used)
//! district    w << 8  | d
//! customer    w << 24 | d << 16 | c
//! stock       w << 32 | i
//! order       w << 44 | d << 36 | o
//! order-line  order(w,d,o) << 4 | ol               (ol < 16)
//! new-order   w << 44 | d << 36 | o               (B+ tree)
//! cust-order  w << 44 | d << 40 | c << 28 | o     (B+ tree, o < 2^28)
//! cust-name   w << 44 | d << 40 | h16 << 24 | c   (B+ tree)
//! ```

/// Warehouse key.
pub fn warehouse(w: u64) -> u64 {
    w
}

/// District key.
pub fn district(w: u64, d: u64) -> u64 {
    w << 8 | d
}

/// Customer key.
pub fn customer(w: u64, d: u64, c: u64) -> u64 {
    w << 24 | d << 16 | c
}

/// Stock key.
pub fn stock(w: u64, i: u64) -> u64 {
    w << 32 | i
}

/// Order key (hash table and new-order B+ tree).
pub fn order(w: u64, d: u64, o: u64) -> u64 {
    w << 44 | d << 36 | o
}

/// Order-line key; `ol` must be below 16.
pub fn order_line(w: u64, d: u64, o: u64, ol: u64) -> u64 {
    debug_assert!(ol < 16);
    order(w, d, o) << 4 | ol
}

/// Customer-order index key (for "last order of customer").
pub(crate) fn cust_order(w: u64, d: u64, c: u64, o: u64) -> u64 {
    debug_assert!(o < 1 << 28);
    w << 44 | d << 40 | c << 28 | o
}

/// Inclusive key range of all orders of one customer.
pub(crate) fn cust_order_range(w: u64, d: u64, c: u64) -> (u64, u64) {
    (cust_order(w, d, c, 0), cust_order(w, d, c, (1 << 28) - 1))
}

/// Customer-by-last-name index key.
pub(crate) fn cust_name(w: u64, d: u64, last_hash16: u64, c: u64) -> u64 {
    w << 44 | d << 40 | (last_hash16 & 0xFFFF) << 24 | c
}

/// Inclusive key range of all customers sharing a last name.
pub(crate) fn cust_name_range(w: u64, d: u64, last_hash16: u64) -> (u64, u64) {
    (cust_name(w, d, last_hash16, 0), cust_name(w, d, last_hash16, (1 << 24) - 1))
}

/// Inclusive new-order B+ tree range of one district.
pub fn new_order_range(w: u64, d: u64) -> (u64, u64) {
    (order(w, d, 0), order(w, d, (1 << 36) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_injective_across_plausible_ranges() {
        let mut seen = std::collections::HashSet::new();
        for w in [0u64, 1, 7] {
            for d in 0..10 {
                for x in [0u64, 1, 299, 3000] {
                    assert!(seen.insert(customer(w, d, x)));
                    assert!(seen.insert(order(w, d, x) | 1 << 63)); // tag spaces
                }
            }
        }
    }

    #[test]
    fn order_line_nests_inside_order() {
        let o = order(2, 3, 100);
        for ol in 0..16 {
            let k = order_line(2, 3, 100, ol);
            assert_eq!(k >> 4, o, "order-line keys share the order prefix");
        }
    }

    #[test]
    fn ranges_cover_their_members() {
        let (lo, hi) = cust_order_range(1, 2, 3);
        let k = cust_order(1, 2, 3, 12345);
        assert!(lo <= k && k <= hi);
        let other = cust_order(1, 2, 4, 0);
        assert!(other > hi);
        let (nlo, nhi) = new_order_range(1, 2);
        assert!(nlo <= order(1, 2, 77) && order(1, 2, 77) <= nhi);
        assert!(order(1, 3, 0) > nhi);
    }
}
