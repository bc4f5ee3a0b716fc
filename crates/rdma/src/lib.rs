//! Simulated RDMA fabric for the DrTM reproduction.
//!
//! The paper runs on a 6-node cluster connected by ConnectX-3 56 Gbps
//! InfiniBand and uses two kinds of networking primitive:
//!
//! * **One-sided verbs** — READ, WRITE and compare-and-swap (CAS), which
//!   access a remote machine's registered memory without involving its
//!   CPU (Figure 5). DrTM builds its 2PL locks and its key-value store
//!   accesses out of these three.
//! * **SEND/RECV verbs** — kernel-bypass message passing, used for the
//!   ordered-store remote accesses and for shipping INSERT/DELETE to the
//!   host machine ([`rpc`] is the request/reply exchange both share).
//!
//! This crate reproduces both in-process. A [`Cluster`] owns one
//! [`Node`] per simulated machine; each node's memory is a
//! [`drtm_htm::Region`], so one-sided operations go through the *same*
//! per-line metadata as the software HTM — reproducing the
//! cache-coherence coupling between the NIC's DMA engine and RTM that the
//! whole DrTM design rests on (a remote CAS/WRITE to a line read by an
//! in-flight HTM transaction aborts that transaction).
//!
//! Every operation has a modelled latency (see [`LatencyProfile`]) and
//! bumps the cluster-wide [`OpCounters`]; the paper's "average RDMA READs
//! per lookup" metric (Table 4) is read straight off those counters. A
//! synchronous verb charges that latency to the calling thread's
//! [`drtm_htm::vtime`] meter. A *posted* verb ([`Qp::post_read`] and
//! friends) charges only the CPU cost of posting and records when it
//! completes; [`Qp::wait`] then advances the meter to the latest
//! completion, so requests in flight to different machines overlap.
//! Outbound ops posted back-to-back to one destination also share a
//! doorbell ([`DoorbellConfig`]), amortising the base latency the way a
//! real NIC pipelines a batch of posted work requests.
//!
//! # Examples
//!
//! ```
//! use drtm_rdma::{Cluster, ClusterConfig, GlobalAddr};
//!
//! let cluster = Cluster::new(ClusterConfig {
//!     nodes: 2,
//!     region_size: 4096,
//!     ..Default::default()
//! });
//! let qp = cluster.qp(0); // queue pair owned by machine 0
//! let addr = GlobalAddr { node: 1, offset: 64 };
//! qp.write_u64(addr, 7);
//! assert_eq!(qp.read_u64(addr), 7);
//! assert_eq!(qp.cas_u64(addr, 7, 9), 7);
//! assert_eq!(cluster.counters().snapshot().cas, 1);
//! ```
#![forbid(unsafe_code)]

mod counters;
mod doorbell;
mod fabric;
mod fault;
mod latency;
pub mod rpc;
mod verbs;

pub use counters::{CounterSnapshot, OpCounters};
pub use doorbell::DoorbellConfig;
pub use fabric::{AtomicityLevel, Cluster, ClusterConfig, GlobalAddr, Node, NodeId, Qp};
pub use fault::{FabricError, FaultConfig, FaultPlan};
pub use latency::LatencyProfile;
pub use verbs::{Message, QueueId, Verbs};
