//! DrTM's transaction layer: fast in-memory transactions over (emulated)
//! HTM and RDMA.
//!
//! This crate is the paper's primary contribution: a hybrid concurrency
//! control that runs the local part of each transaction inside an HTM
//! region and coordinates cross-machine accesses with a 2PL protocol
//! built from one-sided RDMA CAS/READ/WRITE, glued together by HTM's
//! strong atomicity and RDMA's strong consistency (§4). It provides:
//!
//! * [`Worker::execute`] — strictly serializable read-write transactions
//!   with the Start/LocalTX/Commit phase structure of Figure 2/3, the
//!   lease-based shared locks of §4.2/4.3, and the contention-managed
//!   fallback handler of §6.2;
//! * [`Worker::try_read_only`] — the HTM-free read-only scheme of §4.5;
//! * [`Deployment`] — the one assembly of a running system: region
//!   layout, store arenas, populate executor and the softtime service
//!   (§6.1) the returned [`DrTm`] owns;
//! * [`LogSlot`]/[`recover_node`] — cooperative logging and recovery for
//!   durability (§4.6, Figure 7);
//! * the per-record [`LockState`] word of Figure 4 and the record-level
//!   operations of Figures 5/6 in [`record_ops`].
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod alloc_layout;
mod config;
mod failure;
mod log;
mod membership;
mod record;
mod recovery;
mod ro;
mod state;
mod stats;
mod time;
mod trace;
mod txn;

pub use alloc_layout::{Deployment, NodeLayout};
pub use config::{CrashPoint, DrTmConfig, SofttimeStrategy};
pub use drtm_htm::Abort;
pub use failure::FailureDetector;
pub use log::{ChopInfo, LogSlot, LOG_EMPTY, LOG_WRITE_AHEAD, NVRAM_WRITE_NS};
pub use membership::{
    JoinReport, LeaveReport, MembershipCoordinator, MembershipError, MembershipRecovery,
    MembershipTable, NodeRecovery, NodeState, RecoveryDirection, MAX_JOURNAL_RANGES,
};
pub use record::{RecordAddr, ABORT_LEASED, ABORT_LOCKED};
pub use recovery::{recover_node, RecoveryReport};
pub use ro::{RoCtx, RoRestart, RO_LEASE_US};
pub use state::{LockState, DELTA_US, INIT};
pub use stats::{TxnStats, TxnStatsSnapshot};
pub use time::{softtime_nt, SOFTTIME_INTERVAL};
pub use trace::{
    AbortCause, CauseSnapshot, Phase, PhaseLine, PhaseSnapshot, StatsReport, TraceDump, TraceEvent,
    TraceHub, CAUSE_NAMES, NUM_CAUSES,
};
pub use txn::{Decl, DrTm, LocalKey, TxnCtx, TxnError, TxnSpec, Worker, USER_ABORT};

/// Re-export of the record module for protocol-level access.
pub mod record_ops {
    pub use crate::record::*;
}
