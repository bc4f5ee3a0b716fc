//! A Calvin-style deterministic transaction system — the comparison
//! baseline of §7.2 (Figure 12).
//!
//! Calvin [Thomson et al., SIGMOD'12] avoids distributed commit protocols
//! by *pre-ordering* transactions: a sequencer batches requests into
//! epochs, every node's single-threaded lock manager grants locks in the
//! global sequence order, and executors run transactions once all their
//! locks are granted, exchanging read results with the other participant
//! nodes by message passing. The performance-relevant consequences —
//! epoch batching latency, a serial per-node lock manager, and kernel
//! path (IPoIB) messaging — are exactly what the paper's 17.9–21.9×
//! DrTM/Calvin gap is made of, and all three are modelled here, as
//! constants of the engine ([`EPOCH_NS`], [`LOCK_NS`], [`MSG_NS`]). The
//! engine charges its own clocks and uses no fabric.
//!
//! It runs DrTM's TPC-C, not a copy: [`Calvin::build`] takes the
//! [`TpccConfig`](drtm_workloads::tpcc::TpccConfig) the DrTM legs get and
//! loads the rows of `tpcc::seed`, and [`Calvin::run_epoch`] sequences
//! the [`Request`](drtm_workloads::tpcc::Request)s a `tpcc::StdMix`
//! draws, so both systems of Figure 12 run the same inputs.
//!
//! The engine executes *real* data operations against per-node stores
//! (so TPC-C consistency is checkable) while tracking time with explicit
//! per-worker/per-lock virtual clocks — a discrete-event treatment that
//! models lock-wait and message-wait stalls exactly, which thread-local
//! meters cannot (a blocked Calvin executor consumes wall time without
//! doing work).
#![forbid(unsafe_code)]

mod engine;
mod store;
mod txns;

pub use engine::{Calvin, EPOCH_NS, LOCK_NS, MSG_NS, OP_NS, SEQ_NS_PER_TXN};
pub use store::gkey;
