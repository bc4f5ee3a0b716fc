//! Software emulation of restricted (hardware) transactional memory.
//!
//! DrTM runs the local part of every database transaction inside an Intel
//! RTM region and relies on two hardware properties:
//!
//! 1. **Strong atomicity** — a conflicting *non-transactional* access (in
//!    DrTM: a one-sided RDMA operation arriving over the cache-coherent
//!    interconnect) unconditionally aborts an HTM transaction touching the
//!    same cache line.
//! 2. **Bounded capacity** — the write set is tracked in the L1 cache and
//!    the read set in an implementation-specific structure, so transactions
//!    whose working set exceeds the hardware capacity always abort.
//!
//! This crate reproduces both properties in software so the full DrTM
//! protocol can run on machines without TSX. Memory lives in a [`Region`]
//! divided into 64-byte lines, each guarded by a versioned lock word
//! (TL2-style: even = version, odd bit = locked). Transactions
//! ([`HtmTxn`]) buffer writes, record a `(line, version)` read set, and
//! validate at commit; non-transactional stores ([`Region::write_nt`],
//! [`Region::cas_u64_nt`], ...) bump line versions and therefore abort any
//! in-flight transaction that has read or written the line — the same
//! observable effect as RTM strong atomicity, with the abort delivered at
//! validation time instead of eagerly. Capacity aborts are emulated with
//! configurable read/write-set limits (see [`HtmConfig`]).
//!
//! The crate also hosts [`vtime`], the virtual-time meter used by the
//! benchmark harnesses: on a single-core host, wall-clock throughput of a
//! simulated 48-worker cluster is meaningless, so every simulated hardware
//! operation *charges* its modelled latency to a per-thread accumulator
//! and throughput is computed in virtual time — and [`clock`], the one
//! wall clock, where everything that still ends in wall time is read,
//! waited out and ticked.
//!
//! As the lowest crate it also hosts [`counters`], the one primitive every
//! layer's statistics are declared with ([`Counter`], [`CounterArray`],
//! [`counter_set!`](crate::counter_set)); [`HtmStats`] is its first user.
//!
//! # Examples
//!
//! ```
//! use drtm_htm::{Region, HtmConfig, Abort};
//!
//! let region = Region::new(4096);
//! let cfg = HtmConfig::default();
//!
//! // Transactionally increment a counter at offset 128.
//! let mut txn = region.begin(&cfg);
//! let v = txn.read_u64(128).unwrap();
//! txn.write_u64(128, v + 1).unwrap();
//! txn.commit().unwrap();
//! assert_eq!(region.read_u64_nt(128), 1);
//!
//! // A non-transactional store aborts a conflicting transaction.
//! let mut txn = region.begin(&cfg);
//! let _ = txn.read_u64(128).unwrap();
//! region.write_u64_nt(128, 99); // "RDMA" write from another machine
//! assert_eq!(txn.commit(), Err(Abort::Conflict));
//! ```

pub mod backoff;
pub mod clock;
pub mod counters;
mod exec;
mod region;
mod stats;
mod txn;
pub mod vtime;

pub use counters::{Counter, CounterArray};
pub use exec::{Executor, Steps};
pub use region::{Region, LINE_SIZE};
pub use stats::{HtmStats, StatsSnapshot};
pub use txn::{Abort, HtmConfig, HtmTxn, ACCESS_NS, COMMIT_NS};

/// Error returned by region-level operations on malformed addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The access extends past the end of the region.
    OutOfBounds {
        /// Offset of the access.
        offset: usize,
        /// Length of the access.
        len: usize,
        /// Size of the region.
        size: usize,
    },
    /// A 64-bit atomic access was not 8-byte aligned.
    Misaligned {
        /// Offset of the access.
        offset: usize,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { offset, len, size } => {
                write!(f, "access [{offset}, {}) out of bounds (size {size})", offset + len)
            }
            MemError::Misaligned { offset } => write!(f, "misaligned 8-byte access at {offset}"),
        }
    }
}

impl std::error::Error for MemError {}
