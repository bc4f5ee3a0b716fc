//! Deterministic fault injection for the simulated fabric.
//!
//! The paper's §4.6 durability design is only validated by failures that
//! land *between* protocol steps — after the lock-ahead log but before
//! the remote locks, between remote update *k* and *k + 1*, before lock
//! release; likewise the fallback handler's log-before-unlock pipeline
//! (locks held but WAL unstaged, WAL staged but nothing applied, locks
//! half-released). A [`FaultPlan`] hangs off every [`crate::Cluster`]
//! and gives tests and benches three levers:
//!
//! * **Crash points** — protocol code calls [`FaultPlan::crash_hook`]
//!   with a site label at each step; an armed `(node, site)` pair kills
//!   the node the moment execution reaches that site.
//! * **Fallible operations** — once a node is dead, every `try_*` verb
//!   against it fails with a typed [`FabricError`] whose completion
//!   surfaces the configured deadline of virtual time after the post,
//!   instead of serving stale bytes or hanging. The infallible verbs panic loudly, so a protocol path
//!   that has not been converted to the fallible API cannot silently
//!   read a corpse's memory.
//! * **Message faults** — per-op delays and SEND drop/duplicate driven
//!   by a seeded xorshift PRNG, so every run is replayable from its
//!   seed (single-threaded drivers replay exactly; multi-threaded runs
//!   replay the *distribution*, as thread interleaving orders the draws).
//!
//! Everything defaults to off: a `FaultPlan` built from
//! `FaultConfig::default()` takes one relaxed atomic load per operation
//! and injects nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::fabric::NodeId;

/// Typed failure of a fallible fabric operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricError {
    /// The addressed (or issuing) machine is crashed; the op's error
    /// completion takes the full deadline it spends discovering that.
    PeerDead {
        /// The dead machine.
        node: NodeId,
    },
    /// An injected delay pushed the op past its deadline. The peer may
    /// still be alive; callers should treat this like a suspected crash.
    Timeout {
        /// The machine the op was addressed to.
        node: NodeId,
    },
    /// The addressed (or issuing) machine left the cluster gracefully:
    /// its queue pairs were torn down in order, so the error surfaces
    /// immediately (no deadline charge) and retrying is pointless — the
    /// caller must re-route, not suspect a crash.
    NodeRetired {
        /// The retired machine.
        node: NodeId,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::PeerDead { node } => write!(f, "peer {node} is dead"),
            FabricError::Timeout { node } => write!(f, "op to {node} timed out"),
            FabricError::NodeRetired { node } => write!(f, "node {node} left the cluster"),
        }
    }
}

impl std::error::Error for FabricError {}

/// Knobs for [`FaultPlan`]; the default injects nothing.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// PRNG seed: the whole failure schedule replays from this.
    pub seed: u64,
    /// Probability (0..=1) that a one-sided op or SEND is delayed.
    pub delay_prob: f64,
    /// Virtual nanoseconds charged per injected delay.
    pub delay_ns: u64,
    /// Probability (0..=1) that a SEND is silently dropped.
    pub drop_prob: f64,
    /// Probability (0..=1) that a SEND is delivered twice.
    pub dup_prob: f64,
    /// Deadline for fallible ops: charged on `PeerDead`, and an injected
    /// delay longer than this turns into [`FabricError::Timeout`].
    pub deadline_ns: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            delay_prob: 0.0,
            delay_ns: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            // ~1 ms: generous against the µs-scale RDMA costs, so a
            // deadline expiry in a test always means a real fault.
            deadline_ns: 1_000_000,
        }
    }
}

impl FaultConfig {
    fn injects_message_faults(&self) -> bool {
        self.delay_prob > 0.0 || self.drop_prob > 0.0 || self.dup_prob > 0.0
    }
}

/// What the fault layer decided to do with one SEND.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendFate {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Deliver the message twice (NIC-level retransmit duplicate).
    Duplicate,
}

/// A refused op: the typed error, and how long after the post its error
/// completion surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Refused {
    pub(crate) error: FabricError,
    pub(crate) after_ns: u64,
}

/// Per-cluster fault-injection state. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Fast path: false until a node is killed, a crash site is armed,
    /// or the config carries nonzero probabilities.
    enabled: AtomicBool,
    crashed: Vec<AtomicBool>,
    /// Nodes that left the cluster gracefully (membership `Retired`):
    /// ops against them fail [`FabricError::NodeRetired`], never
    /// `PeerDead`. Sticky — node ids are not reused.
    retired: Vec<AtomicBool>,
    /// Armed `(node, site)` crash points; each fires at most once.
    armed: Mutex<Vec<(NodeId, String)>>,
    /// xorshift64 state; a mutex keeps draws atomic, determinism across
    /// threads is up to the driver (single-threaded ⇒ exact replay).
    rng: Mutex<u64>,
}

impl FaultPlan {
    pub(crate) fn new(cfg: FaultConfig, nodes: usize) -> Self {
        let enabled = cfg.injects_message_faults();
        let seed = if cfg.seed == 0 { 0x9E3779B97F4A7C15 } else { cfg.seed };
        FaultPlan {
            enabled: AtomicBool::new(enabled),
            crashed: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            retired: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            armed: Mutex::new(Vec::new()),
            rng: Mutex::new(seed),
            cfg,
        }
    }

    /// The configuration this plan was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Marks `node` crashed: from now on every fabric op touching it
    /// fails. Memory is preserved (the NVRAM model, §4.6) — recovery
    /// reads the corpse's region directly, never through the fabric.
    pub fn kill(&self, node: NodeId) {
        self.enabled.store(true, Ordering::Release);
        self.crashed[node as usize].store(true, Ordering::Release);
    }

    /// Clears the crashed flag (recovery finished re-provisioning).
    pub fn revive(&self, node: NodeId) {
        self.crashed[node as usize].store(false, Ordering::Release);
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.enabled.load(Ordering::Acquire) && self.crashed[node as usize].load(Ordering::Acquire)
    }

    /// Marks `node` as gracefully retired: every fabric op touching it
    /// from now on fails [`FabricError::NodeRetired`] immediately (its
    /// queue pairs closed in order — no deadline discovery), taking
    /// precedence over a crashed flag. Sticky: node ids are not reused,
    /// so there is no un-retire.
    pub fn retire(&self, node: NodeId) {
        self.enabled.store(true, Ordering::Release);
        self.retired[node as usize].store(true, Ordering::Release);
    }

    /// Whether `node` has gracefully left the cluster.
    pub fn is_retired(&self, node: NodeId) -> bool {
        self.enabled.load(Ordering::Acquire) && self.retired[node as usize].load(Ordering::Acquire)
    }

    /// Arms a crash: the next time `node` reaches the named site (see
    /// [`FaultPlan::crash_hook`]), it dies there. Fires at most once.
    pub fn arm_crash(&self, node: NodeId, site: &str) {
        self.enabled.store(true, Ordering::Release);
        self.armed.lock().unwrap().push((node, site.to_string()));
    }

    /// Protocol code calls this at each named step. Returns `true` —
    /// after marking the node crashed — iff a matching armed crash
    /// fires; the caller must then stop dead (no cleanup, no unlocks:
    /// that is exactly the garbage recovery exists to collect).
    pub fn crash_hook(&self, node: NodeId, site: &str) -> bool {
        if !self.enabled.load(Ordering::Acquire) {
            return false;
        }
        let mut armed = self.armed.lock().unwrap();
        if let Some(i) = armed.iter().position(|(n, s)| *n == node && s == site) {
            armed.swap_remove(i);
            drop(armed);
            self.kill(node);
            return true;
        }
        false
    }

    /// Admission check every fallible op runs when it is posted:
    /// verifies both ends are alive and rolls the delay dice. Returns the
    /// injected delay the op is held up by (usually 0), or the refusal.
    /// Neither is charged here: both are part of the op's completion
    /// time, which the issuer pays when it waits for it.
    pub(crate) fn admit(&self, from: NodeId, to: NodeId) -> Result<u64, Refused> {
        if !self.enabled.load(Ordering::Acquire) {
            return Ok(0);
        }
        let refused = |error, after_ns| Err(Refused { error, after_ns });
        // Retirement is *known* state (the QP was closed in order), so
        // unlike a crash the error is immediate and costs nothing.
        if self.retired[to as usize].load(Ordering::Acquire) {
            return refused(FabricError::NodeRetired { node: to }, 0);
        }
        if self.retired[from as usize].load(Ordering::Acquire) {
            return refused(FabricError::NodeRetired { node: from }, 0);
        }
        if self.crashed[to as usize].load(Ordering::Acquire) {
            // The deadline is how long the op waits before the
            // completion-queue error surfaces.
            return refused(FabricError::PeerDead { node: to }, self.cfg.deadline_ns);
        }
        if self.crashed[from as usize].load(Ordering::Acquire) {
            return refused(FabricError::PeerDead { node: from }, 0);
        }
        if self.cfg.delay_prob > 0.0 && self.draw() < self.cfg.delay_prob {
            if self.cfg.delay_ns > self.cfg.deadline_ns {
                return refused(FabricError::Timeout { node: to }, self.cfg.deadline_ns);
            }
            return Ok(self.cfg.delay_ns);
        }
        Ok(0)
    }

    /// Rolls the drop/duplicate dice for one admitted SEND.
    pub(crate) fn send_fate(&self) -> SendFate {
        if !self.enabled.load(Ordering::Acquire) {
            return SendFate::Deliver;
        }
        if self.cfg.drop_prob > 0.0 && self.draw() < self.cfg.drop_prob {
            return SendFate::Drop;
        }
        if self.cfg.dup_prob > 0.0 && self.draw() < self.cfg.dup_prob {
            return SendFate::Duplicate;
        }
        SendFate::Deliver
    }

    /// One uniform draw in `[0, 1)` from the seeded xorshift64 stream.
    fn draw(&self) -> f64 {
        let mut s = self.rng.lock().unwrap();
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cfg: FaultConfig) -> FaultPlan {
        FaultPlan::new(cfg, 3)
    }

    #[test]
    fn default_plan_is_inert() {
        let p = plan(FaultConfig::default());
        assert!(!p.is_crashed(0));
        assert!(p.admit(0, 1).is_ok());
        assert_eq!(p.send_fate(), SendFate::Deliver);
        assert!(!p.crash_hook(0, "anything"));
    }

    #[test]
    fn kill_fails_ops_in_both_directions() {
        let p = plan(FaultConfig::default());
        p.kill(1);
        assert!(p.is_crashed(1));
        assert_eq!(p.admit(0, 1).unwrap_err().error, FabricError::PeerDead { node: 1 });
        // A dead node cannot issue ops either.
        assert_eq!(p.admit(1, 0).unwrap_err().error, FabricError::PeerDead { node: 1 });
        p.revive(1);
        assert!(p.admit(0, 1).is_ok());
    }

    #[test]
    fn dead_target_costs_the_deadline() {
        let p = plan(FaultConfig { deadline_ns: 5_000, ..FaultConfig::default() });
        p.kill(2);
        assert_eq!(p.admit(0, 2).unwrap_err().after_ns, 5_000);
    }

    #[test]
    fn crash_hook_fires_once_at_the_armed_site() {
        let p = plan(FaultConfig::default());
        p.arm_crash(1, "after-lock-ahead");
        assert!(!p.crash_hook(1, "other-site"));
        assert!(!p.crash_hook(0, "after-lock-ahead"));
        assert!(!p.is_crashed(1));
        assert!(p.crash_hook(1, "after-lock-ahead"));
        assert!(p.is_crashed(1));
        // Consumed: re-reaching the site after revival does not re-fire.
        p.revive(1);
        assert!(!p.crash_hook(1, "after-lock-ahead"));
    }

    #[test]
    fn retired_node_fails_typed_without_deadline_charge() {
        let p = plan(FaultConfig { deadline_ns: 5_000, ..FaultConfig::default() });
        p.retire(2);
        assert!(p.is_retired(2));
        assert!(!p.is_crashed(2));
        // A clean close surfaces immediately.
        let gone = Refused { error: FabricError::NodeRetired { node: 2 }, after_ns: 0 };
        assert_eq!(p.admit(0, 2), Err(gone));
        assert_eq!(p.admit(2, 0), Err(gone));
        // Retirement outranks a crashed flag: a node that died and was
        // then drained out reports its final, *known* state.
        p.kill(2);
        assert_eq!(p.admit(0, 2), Err(gone));
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let cfg = FaultConfig { seed: 42, drop_prob: 0.3, dup_prob: 0.2, ..FaultConfig::default() };
        let a = plan(cfg.clone());
        let b = plan(cfg);
        let fates_a: Vec<_> = (0..256).map(|_| a.send_fate()).collect();
        let fates_b: Vec<_> = (0..256).map(|_| b.send_fate()).collect();
        assert_eq!(fates_a, fates_b);
        assert!(fates_a.contains(&SendFate::Drop));
        assert!(fates_a.contains(&SendFate::Duplicate));
        assert!(fates_a.contains(&SendFate::Deliver));
    }

    #[test]
    fn different_seed_different_schedule() {
        let mk = |seed| FaultConfig { seed, drop_prob: 0.5, ..FaultConfig::default() };
        let a = plan(mk(7));
        let b = plan(mk(8));
        let fa: Vec<_> = (0..64).map(|_| a.send_fate()).collect();
        let fb: Vec<_> = (0..64).map(|_| b.send_fate()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn long_delay_times_out_and_costs_at_most_the_deadline() {
        let p = plan(FaultConfig {
            delay_prob: 1.0,
            delay_ns: 10_000,
            deadline_ns: 2_000,
            ..FaultConfig::default()
        });
        let late = Refused { error: FabricError::Timeout { node: 1 }, after_ns: 2_000 };
        assert_eq!(p.admit(0, 1), Err(late));
    }

    #[test]
    fn short_delay_holds_up_and_admits() {
        let p = plan(FaultConfig {
            delay_prob: 1.0,
            delay_ns: 700,
            deadline_ns: 2_000,
            ..FaultConfig::default()
        });
        assert_eq!(p.admit(0, 1), Ok(700));
    }
}
