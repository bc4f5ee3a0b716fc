//! OLTP workloads for the DrTM reproduction (§7).
//!
//! * [`tpcc`] — TPC-C with the paper's five transaction types (new-order,
//!   payment, order-status, delivery, stock-level), partitioned by
//!   warehouse, with the paper's chopping of delivery into per-district
//!   pieces and shipping of remote range queries (§6.5).
//! * [`smallbank`] — SmallBank's six transaction types with a hotspot
//!   access skew, the second evaluation workload.
//! * [`micro`] — the read-write and hotspot micro-benchmarks used to
//!   evaluate the read lease (Figure 17).
//! * [`elastic`] — transactions over the resizable, reshardable
//!   memstore: live bucket doubling and key-range migration mid-run.
//! * [`dist`] — uniform and Zipf (YCSB θ = 0.99) key distributions used
//!   by the key-value store comparison (§5.4).
//! * [`driver`] — the multi-threaded virtual-time benchmark driver used
//!   by every throughput experiment.
//! * [`resolve`] — key → record-address resolution through the location
//!   cache (the client-side path of Figure 9).
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod dist;
pub mod driver;
pub mod elastic;
pub mod micro;
pub mod resolve;
pub mod smallbank;
pub mod tpcc;

/// Splits a value into `u64` fields (all workload values are packed
/// little-endian u64 arrays).
pub fn fields(value: &[u8]) -> Vec<u64> {
    value.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("chunk"))).collect()
}

/// The first `u64` field of a value, decoded in place.
pub(crate) fn first_field(value: &[u8]) -> u64 {
    u64::from_le_bytes(value[..8].try_into().expect("a value of at least one field"))
}

/// Packs `u64` fields into a value.
pub fn pack_fields(fields: &[u64]) -> Vec<u8> {
    let mut v = Vec::with_capacity(fields.len() * 8);
    for f in fields {
        v.extend_from_slice(&f.to_le_bytes());
    }
    v
}

/// What a workload's `try_*` transaction makes of `execute`'s outcome:
/// `UserAborted` is a normal outcome of a mix; anything else (a dead
/// peer, a simulated crash of the worker's own machine) propagates.
pub(crate) fn tolerate_user_abort<T>(
    r: Result<T, drtm_core::TxnError>,
) -> Result<(), drtm_core::TxnError> {
    match r {
        Ok(_) | Err(drtm_core::TxnError::UserAborted) => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip() {
        let f = vec![1u64, u64::MAX, 42];
        assert_eq!(fields(&pack_fields(&f)), f);
    }
}
