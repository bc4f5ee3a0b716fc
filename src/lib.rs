//! DrTM reproduction: umbrella crate re-exporting the public API.
//!
//! See the README for a quickstart and `DESIGN.md` for the system
//! inventory. The subsystems are:
//!
//! * [`htm`] — software emulation of restricted transactional memory.
//! * [`rdma`] — simulated one-sided RDMA fabric and verbs messaging.
//! * [`memstore`] — cluster-chaining hash table, location cache, B+ tree.
//! * [`txn`] — the DrTM transaction layer (HTM + 2PL + leases).
//! * [`calvin`] — the Calvin-style baseline used for comparison.
//! * [`workloads`] — TPC-C, SmallBank and micro-benchmark generators.
#![forbid(unsafe_code)]

pub use drtm_calvin as calvin;
pub use drtm_core as txn;
pub use drtm_htm as htm;
pub use drtm_memstore as memstore;
pub use drtm_rdma as rdma;
pub use drtm_workloads as workloads;
