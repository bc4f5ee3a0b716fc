//! Doorbell batching and completion tracking of outbound operations.
//!
//! A real RNIC lets a sender post many work requests to a queue pair and
//! ring the doorbell once: the NIC pipelines the posted ops, so only the
//! first in the batch pays the full base (doorbell + DMA + wire setup)
//! latency while the rest overlap all but a fraction of it. And because
//! posting does not wait, requests to *different* machines are in flight
//! at the same time: the sender is held up only when it waits for their
//! completions. DrTM's phases exploit both — the Start phase posts the
//! lock CAS and the fetch of every remote record and waits once, the
//! WriteBack phase posts every value, version and unlock WRITE and waits
//! once — and offload designs (SafarDB et al.) push the idea further in
//! hardware.
//!
//! The simulation models it at the [`crate::Qp`] layer, per destination:
//!
//! * **Doorbells** — outbound ops to the same destination within a batch
//!   window share one doorbell. The first op costs its full modelled
//!   latency and *opens* the doorbell; each subsequent op to that
//!   destination rides it, costing its full per-byte cost but only
//!   `pipeline_x1000/1000` of its base cost. A doorbell closes — and the
//!   next op costs full price again — when the batch reaches
//!   [`DoorbellConfig::max_batch`] ops, when more than
//!   [`DoorbellConfig::flush_deadline_ns`] of virtual time passed between
//!   its opening and the post, or at [`crate::Qp::doorbell_flush`]
//!   (called at transaction boundaries).
//! * **Completions** — an op starts when it is posted or when the
//!   previous unawaited op to the same destination completes, whichever
//!   is later, and completes its cost after that: one destination's ops
//!   complete in post order, different destinations' ops overlap. Posting
//!   charges the issuing thread only [`crate::LatencyProfile::post_ns`];
//!   [`crate::Qp::wait`] advances its virtual-time meter to the latest
//!   completion. A synchronous verb is a post followed by a wait, which
//!   is why it costs exactly its modelled latency.
//!
//! Fault injection is strictly per logical op: every op still rolls
//! [`crate::FaultPlan`]'s dice individually at post time (admission *and*
//! SEND fate), so a seeded chaos schedule replays identically whether
//! batching is on or off.

use crate::fabric::NodeId;

/// Doorbell-batching knobs, part of [`crate::ClusterConfig`].
#[derive(Debug, Clone)]
pub struct DoorbellConfig {
    /// Maximum ops per doorbell; `1` (or `0`) disables batching.
    pub max_batch: u32,
    /// Virtual-time window an open doorbell accepts ops for, in ns.
    pub flush_deadline_ns: u64,
    /// Exposed fraction of base latency for batched ops, in thousandths
    /// (the pipeline factor α: `300` means a batched op pays 30 % of its
    /// base cost plus its full per-byte cost).
    pub pipeline_x1000: u64,
}

impl Default for DoorbellConfig {
    fn default() -> Self {
        DoorbellConfig { max_batch: 16, flush_deadline_ns: 8_000, pipeline_x1000: 300 }
    }
}

impl DoorbellConfig {
    /// A configuration with batching turned off: every op rings its own
    /// doorbell and pays its full modelled latency.
    pub fn disabled() -> Self {
        DoorbellConfig { max_batch: 1, ..Default::default() }
    }

    /// Whether batching is active.
    pub fn enabled(&self) -> bool {
        self.max_batch > 1
    }

    /// Amortised cost of an op riding an open doorbell: full per-byte
    /// cost, `pipeline_x1000/1000` of the base cost.
    pub fn batched_ns(&self, full_ns: u64, base_ns: u64) -> u64 {
        full_ns - base_ns + base_ns * self.pipeline_x1000 / 1000
    }
}

/// One destination's open doorbell and completion chain.
#[derive(Debug, Clone, Copy, Default)]
struct SlotState {
    /// Ops admitted to the open doorbell (0 = closed).
    count: u32,
    /// Virtual-time meter reading when the doorbell opened.
    opened_at: u64,
    /// Completion time of the last op posted here during `wave`.
    busy_until: u64,
    /// The wave `busy_until` belongs to.
    wave: u64,
}

/// One op's admission to its destination's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Posted {
    /// NIC service time of the op: full, or amortised when it rides.
    pub(crate) cost_ns: u64,
    /// Whether the op rang a new doorbell (it did not ride one).
    pub(crate) rang: bool,
}

/// Per-QP NIC state: one fixed slot per destination node, plus the
/// completions posted since the last wait (a *wave*).
#[derive(Debug)]
pub(crate) struct Nic {
    slots: Vec<SlotState>,
    /// Latest completion time of the current wave (0 = nothing posted).
    latest: u64,
    /// Counts waits. A slot's `busy_until` only orders ops of the
    /// current wave: once a wave is awaited every completion lies behind
    /// the meter, and a stale one must not hold up an op posted after a
    /// meter reset (`vtime::take()` between transactions).
    wave: u64,
}

impl Nic {
    pub(crate) fn new(nodes: usize) -> Self {
        // Wave 0 is never current, so fresh slots chain behind nothing.
        Nic { slots: vec![SlotState::default(); nodes], latest: 0, wave: 1 }
    }

    /// Admits one outbound op to `to`'s doorbell at virtual time `now`.
    /// Returns `true` when the op rides an already-open doorbell (the
    /// amortised cost applies), `false` when it rings a new one (full
    /// cost).
    ///
    /// The `now >= opened_at` guard also covers meter resets: the
    /// engine's slice accounting calls `vtime::take()` between
    /// transactions, so a smaller `now` means a new measurement window,
    /// never an op inside the old batch.
    fn admit(&mut self, to: NodeId, cfg: &DoorbellConfig, now: u64) -> bool {
        if !cfg.enabled() {
            return false;
        }
        let s = &mut self.slots[to as usize];
        let rides = s.count > 0
            && s.count < cfg.max_batch
            && now >= s.opened_at
            && now - s.opened_at <= cfg.flush_deadline_ns;
        if rides {
            s.count += 1;
        } else {
            s.count = 1;
            s.opened_at = now;
        }
        rides
    }

    /// Posts one op to `to` at virtual time `now`: prices it by the
    /// doorbell rule and queues it behind the current wave's earlier ops
    /// to the same destination. `delay_ns` (an injected fault) holds the
    /// op, and so the destination's later ops, up before it is served.
    pub(crate) fn post(
        &mut self,
        to: NodeId,
        cfg: &DoorbellConfig,
        now: u64,
        delay_ns: u64,
        full_ns: u64,
        base_ns: u64,
    ) -> Posted {
        let rides = self.admit(to, cfg, now);
        let cost_ns = if rides { cfg.batched_ns(full_ns, base_ns) } else { full_ns };
        let wave = self.wave;
        let s = &mut self.slots[to as usize];
        let start = if s.wave == wave { now.max(s.busy_until) } else { now };
        s.busy_until = start + delay_ns + cost_ns;
        s.wave = wave;
        self.latest = self.latest.max(s.busy_until);
        Posted { cost_ns, rang: !rides }
    }

    /// Records an op that failed at post time: its error completion
    /// surfaces `after_ns` after the post, without occupying any
    /// destination's queue.
    pub(crate) fn post_failed(&mut self, now: u64, after_ns: u64) {
        self.latest = self.latest.max(now + after_ns);
    }

    /// Ends the wave: returns the completion time of its last op (0 when
    /// nothing was posted) for the caller to advance its meter to.
    pub(crate) fn wait(&mut self) -> u64 {
        self.wave += 1;
        std::mem::take(&mut self.latest)
    }

    /// Closes every open doorbell.
    pub(crate) fn close_doorbells(&mut self) {
        for s in &mut self.slots {
            s.count = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_op_rings_then_rides_until_max_batch() {
        let cfg = DoorbellConfig { max_batch: 3, ..Default::default() };
        let mut d = Nic::new(2);
        assert!(!d.admit(1, &cfg, 0), "first op rings the doorbell");
        assert!(d.admit(1, &cfg, 10));
        assert!(d.admit(1, &cfg, 20), "batch of 3 fits");
        assert!(!d.admit(1, &cfg, 30), "4th op rings a new doorbell");
    }

    #[test]
    fn destinations_batch_independently() {
        let cfg = DoorbellConfig::default();
        let mut d = Nic::new(3);
        assert!(!d.admit(1, &cfg, 0));
        assert!(!d.admit(2, &cfg, 0), "each destination QP has its own doorbell");
        assert!(d.admit(1, &cfg, 5));
        assert!(d.admit(2, &cfg, 5));
    }

    #[test]
    fn deadline_and_flush_close_the_batch() {
        let cfg = DoorbellConfig { flush_deadline_ns: 100, ..Default::default() };
        let mut d = Nic::new(2);
        assert!(!d.admit(1, &cfg, 0));
        assert!(d.admit(1, &cfg, 100), "inside the window");
        assert!(!d.admit(1, &cfg, 300), "past the deadline: new doorbell");
        assert!(d.admit(1, &cfg, 310));
        d.close_doorbells();
        assert!(!d.admit(1, &cfg, 320), "flush closed the batch");
    }

    #[test]
    fn meter_reset_opens_a_new_doorbell() {
        let cfg = DoorbellConfig::default();
        let mut d = Nic::new(2);
        assert!(!d.admit(1, &cfg, 5_000));
        assert!(!d.admit(1, &cfg, 40), "now < opened_at means the meter was reset");
    }

    #[test]
    fn disabled_config_never_batches() {
        let cfg = DoorbellConfig::disabled();
        let mut d = Nic::new(2);
        assert!(!cfg.enabled());
        assert!(!d.admit(1, &cfg, 0));
        assert!(!d.admit(1, &cfg, 1));
    }

    #[test]
    fn batched_cost_amortises_only_the_base() {
        let cfg = DoorbellConfig::default(); // α = 0.3
                                             // full 10_000 of which 3_000 base: batched = 7_000 + 900.
        assert_eq!(cfg.batched_ns(10_000, 3_000), 7_900);
        // Zero-cost profiles stay zero-cost.
        assert_eq!(cfg.batched_ns(0, 0), 0);
    }
}
