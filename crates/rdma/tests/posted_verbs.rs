//! Posted work requests and completion waits: what a wave costs, and
//! that a synchronous verb — a post followed by a wait — costs exactly
//! what the serial cost model it replaced charged.

use std::sync::Arc;

use drtm_htm::vtime;
use drtm_rdma::{
    Cluster, ClusterConfig, DoorbellConfig, FabricError, FaultConfig, GlobalAddr, LatencyProfile,
    NodeId, Qp,
};

const NODES: usize = 5;

fn cluster(doorbell: DoorbellConfig, faults: FaultConfig) -> Arc<Cluster> {
    Cluster::new(ClusterConfig {
        nodes: NODES,
        region_size: 1 << 16,
        profile: LatencyProfile::rdma(),
        doorbell,
        faults,
        ..Default::default()
    })
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The serial cost rule synchronous verbs had before ops could be
/// posted: every op charged at once, `full` or — riding its
/// destination's open doorbell — amortised.
struct SerialModel {
    cfg: DoorbellConfig,
    /// `(ops in the open doorbell, meter reading when it opened)`.
    slots: Vec<(u32, u64)>,
    meter: u64,
}

impl SerialModel {
    fn new(cfg: DoorbellConfig) -> Self {
        SerialModel { cfg, slots: vec![(0, 0); NODES], meter: 0 }
    }

    fn charge(&mut self, to: NodeId, full_ns: u64, base_ns: u64) {
        let (count, opened_at) = &mut self.slots[to as usize];
        let rides = self.cfg.enabled()
            && *count > 0
            && *count < self.cfg.max_batch
            && self.meter >= *opened_at
            && self.meter - *opened_at <= self.cfg.flush_deadline_ns;
        if rides {
            *count += 1;
            self.meter += self.cfg.batched_ns(full_ns, base_ns);
        } else {
            (*count, *opened_at) = (1, self.meter);
            self.meter += full_ns;
        }
    }

    fn flush(&mut self) {
        self.slots.fill((0, 0));
    }
}

#[derive(Debug, Clone, Copy)]
enum Verb {
    Read(usize),
    Write(usize),
    Cas,
    Send(usize),
}

impl Verb {
    fn random(s: &mut u64) -> Verb {
        let len = (xorshift(s) % 512) as usize;
        match xorshift(s) % 5 {
            0 => Verb::Read(len),
            1 => Verb::Write(len),
            2 | 3 => Verb::Cas,
            _ => Verb::Send(len),
        }
    }

    /// `(full, base)` cost under `p`.
    fn cost(self, p: &LatencyProfile) -> (u64, u64) {
        match self {
            Verb::Read(n) => (p.read_ns(n), p.read_base_ns),
            Verb::Write(n) => (p.write_ns(n), p.write_base_ns),
            Verb::Cas => (p.atomic_ns, p.atomic_ns),
            Verb::Send(n) => (p.send_ns(n), p.send_base_ns),
        }
    }

    fn sync(self, qp: &Qp, to: NodeId) {
        let addr = GlobalAddr::new(to, 1024);
        match self {
            Verb::Read(n) => qp.read(addr, &mut vec![0u8; n]),
            Verb::Write(n) => qp.write(addr, &vec![0u8; n]),
            Verb::Cas => drop(qp.cas_u64(addr, 0, 0)),
            Verb::Send(n) => qp.send(to, 9, vec![0u8; n]),
        }
    }

    /// Posts the verb; `None` for SEND, which only exists synchronously.
    fn post(self, qp: &Qp, to: NodeId) -> Option<Result<(), FabricError>> {
        let addr = GlobalAddr::new(to, 1024);
        match self {
            Verb::Read(n) => Some(qp.post_read(addr, &mut vec![0u8; n])),
            Verb::Write(n) => Some(qp.post_write(addr, &vec![0u8; n])),
            Verb::Cas => Some(qp.post_cas_u64(addr, 0, 0).map(drop)),
            Verb::Send(_) => None,
        }
    }
}

/// (a) Random verb sequences — interleaved with doorbell flushes and
/// meter resets — charge, verb by verb, what the serial model charges.
#[test]
fn sync_verbs_charge_what_the_serial_model_charged() {
    let configs = [
        DoorbellConfig::default(),
        DoorbellConfig::disabled(),
        DoorbellConfig { max_batch: 3, flush_deadline_ns: 20_000, pipeline_x1000: 0 },
        DoorbellConfig { max_batch: 64, flush_deadline_ns: u64::MAX, pipeline_x1000: 1000 },
    ];
    for (i, cfg) in configs.into_iter().enumerate() {
        let c = cluster(cfg.clone(), FaultConfig::default());
        let qp = c.qp(0);
        let mut model = SerialModel::new(cfg);
        let mut seed = 0x9E37_79B9_7F4A_7C15 ^ i as u64;
        vtime::take();
        for step in 0..4_000 {
            match xorshift(&mut seed) % 16 {
                0 => {
                    qp.doorbell_flush();
                    model.flush();
                }
                1 => {
                    vtime::take();
                    model.meter = 0;
                }
                2 => {
                    // Work the fabric does not see (an HTM region).
                    let ns = xorshift(&mut seed) % 10_000;
                    vtime::charge(ns);
                    model.meter += ns;
                }
                _ => {
                    let verb = Verb::random(&mut seed);
                    let to = (xorshift(&mut seed) % NODES as u64) as NodeId;
                    let (full, base) = verb.cost(c.profile());
                    verb.sync(&qp, to);
                    model.charge(to, full, base);
                }
            }
            assert_eq!(vtime::read(), model.meter, "config {i}, step {step}");
        }
        vtime::take();
    }
}

/// The completion rule, written out: per destination a chain of
/// `(post time, cost)`; the wave is exposed until its last completion.
fn exposed(posts: &[(NodeId, u64, u64)], t0: u64, posted_until: u64) -> u64 {
    let mut busy = [t0; NODES];
    for &(to, posted_at, cost) in posts {
        busy[to as usize] = busy[to as usize].max(posted_at) + cost;
    }
    busy.into_iter().fold(posted_until, u64::max) - t0
}

/// (b) A wave is exposed for its longest destination chain plus the
/// posting skew ahead of that chain, and never for longer than the same
/// ops issued one completion at a time.
#[test]
fn a_wave_costs_its_longest_chain_and_at_most_the_serial_sum() {
    let p = LatencyProfile::rdma();
    let riding = |full, base| DoorbellConfig::default().batched_ns(full, base);
    // The Start wave of three remote writes on three machines: CAS, then
    // the fetch riding its doorbell, per machine.
    let c = cluster(DoorbellConfig::default(), FaultConfig::default());
    let qp = c.qp(0);
    vtime::take();
    for to in 1..=3 {
        qp.post_cas_u64(GlobalAddr::new(to, 0), 0, 0).unwrap();
        qp.post_read(GlobalAddr::new(to, 0), &mut [0u8; 48]).unwrap();
    }
    assert_eq!(vtime::read(), 6 * p.post_ns, "posting charges the CPU overhead only");
    qp.wait();
    let chain = p.atomic_ns + riding(p.read_ns(48), p.read_base_ns);
    assert_eq!(chain, 7_068);
    // Machine 3's CAS is posted fifth, 4 posting overheads in.
    assert_eq!(vtime::take(), 4 * p.post_ns + chain);
    qp.wait();
    assert_eq!(vtime::take(), 0, "a second wait has nothing to wait for");

    // Random waves against the rule and against the serial sum.
    let mut seed = 77u64;
    for cfg in [DoorbellConfig::default(), DoorbellConfig::disabled()] {
        for _ in 0..300 {
            let wave: Vec<(Verb, NodeId)> = (0..1 + xorshift(&mut seed) % 12)
                .map(|_| (Verb::random(&mut seed), (xorshift(&mut seed) % NODES as u64) as NodeId))
                .filter(|(v, _)| !matches!(v, Verb::Send(_)))
                .collect();
            let c = cluster(cfg.clone(), FaultConfig::default());
            let (posting, serial) = (c.qp(0), c.qp(0));
            vtime::take();
            let t0 = xorshift(&mut seed) % 50_000;
            vtime::charge(t0);
            let mut posts = Vec::new();
            for &(verb, to) in &wave {
                let (at, ns) = (vtime::read(), c.counters().snapshot().fabric_ns);
                verb.post(&posting, to).expect("postable").unwrap();
                posts.push((to, at, c.counters().snapshot().fabric_ns - ns));
            }
            let posted_until = vtime::read();
            posting.wait();
            let wave_ns = vtime::take() - t0;
            assert_eq!(wave_ns, exposed(&posts, t0, posted_until));
            for &(verb, to) in &wave {
                verb.sync(&serial, to);
            }
            let serial_ns = vtime::take();
            assert!(wave_ns <= serial_ns, "wave {wave_ns} ns > serial {serial_ns} ns: {wave:?}");
        }
    }
}

/// (c) One destination's posted ops take effect in post order, so a
/// posted read sees the writes and atomics posted before it.
#[test]
fn effects_land_in_post_order_per_destination() {
    let c = cluster(DoorbellConfig::default(), FaultConfig::default());
    let qp = c.qp(0);
    let (value, version, state) =
        (GlobalAddr::new(1, 64), GlobalAddr::new(1, 72), GlobalAddr::new(1, 80));
    qp.write_u64(state, 7);
    // A write-back: value, version, then the unlocking state word.
    qp.post_write(value, &11u64.to_le_bytes()).unwrap();
    assert_eq!(c.node(1).region().read_u64_nt(state.offset), 7, "still locked");
    qp.post_write(version, &1u64.to_le_bytes()).unwrap();
    qp.post_write(state, &0u64.to_le_bytes()).unwrap();
    // A lock CAS and the fetch chained behind it.
    assert_eq!(qp.post_cas_u64(state, 0, 9), Ok(0));
    let mut fetched = [0u8; 24];
    qp.post_read(value, &mut fetched).unwrap();
    qp.wait();
    let word = |i: usize| u64::from_le_bytes(fetched[8 * i..8 * i + 8].try_into().unwrap());
    assert_eq!((word(0), word(1), word(2)), (11, 1, 9));
    vtime::take();
}

/// (d) A dead peer inside a wave fails its own ops only, and its
/// deadline runs alongside the other completions, not after them.
#[test]
fn a_dead_peer_fails_only_its_ops_and_its_deadline_overlaps() {
    let p = LatencyProfile::rdma();
    for deadline_ns in [4_000, 1_000_000] {
        let c = cluster(
            DoorbellConfig::disabled(),
            FaultConfig { deadline_ns, ..FaultConfig::default() },
        );
        c.faults().kill(2);
        let qp = c.qp(0);
        let dead = Err(FabricError::PeerDead { node: 2 });
        vtime::take();
        assert_eq!(qp.post_cas_u64(GlobalAddr::new(1, 0), 0, 5), Ok(0));
        assert_eq!(qp.post_cas_u64(GlobalAddr::new(2, 0), 0, 5), dead);
        assert_eq!(qp.post_read(GlobalAddr::new(2, 0), &mut [1u8; 8]), dead.map(drop));
        assert_eq!(qp.post_cas_u64(GlobalAddr::new(3, 0), 0, 5), Ok(0));
        qp.wait();
        // Refused posts charge no posting overhead: the second CAS that
        // went out was posted one overhead in.
        let live = p.post_ns + p.atomic_ns;
        assert_eq!(vtime::take(), live.max(p.post_ns + deadline_ns));
        assert_eq!(c.node(2).region().read_u64_nt(0), 0, "the corpse is untouched");
        assert_eq!(c.node(3).region().read_u64_nt(0), 5);
        // Synchronously, the same failure still costs the whole deadline.
        assert_eq!(qp.try_read_u64(GlobalAddr::new(2, 0)), dead);
        assert_eq!(vtime::take(), deadline_ns);
    }
}

/// An injected delay holds up the op and what queues behind it at that
/// destination — not the issuing thread, and not other destinations.
#[test]
fn an_injected_delay_is_part_of_the_completion() {
    let p = LatencyProfile::rdma();
    let faults =
        FaultConfig { delay_prob: 1.0, delay_ns: 9_000, deadline_ns: 50_000, ..Default::default() };
    let c = cluster(DoorbellConfig::disabled(), faults);
    let qp = c.qp(0);
    vtime::take();
    qp.cas_u64(GlobalAddr::new(1, 0), 0, 0);
    assert_eq!(vtime::take(), 9_000 + p.atomic_ns, "synchronously: delay, then the op");
    qp.post_cas_u64(GlobalAddr::new(1, 0), 0, 0).unwrap();
    qp.post_cas_u64(GlobalAddr::new(2, 0), 0, 0).unwrap();
    assert_eq!(vtime::read(), 2 * p.post_ns);
    qp.wait();
    assert_eq!(vtime::take(), p.post_ns + 9_000 + p.atomic_ns, "the two delays overlap");
}

/// (e) Nothing awaited in one measurement window holds up an op of the
/// next: `vtime::take()` between transactions resets the meter below
/// the old completions.
#[test]
fn a_meter_reset_between_waves_leaks_no_completion() {
    let p = LatencyProfile::rdma();
    let c = cluster(DoorbellConfig::disabled(), FaultConfig::default());
    let qp = c.qp(0);
    vtime::take();
    vtime::charge(40_000);
    for to in [1, 1, 2] {
        qp.post_cas_u64(GlobalAddr::new(to, 0), 0, 0).unwrap();
    }
    qp.wait();
    assert_eq!(vtime::take(), 40_000 + 2 * p.atomic_ns);
    // Next window: local work past the old posting times but short of
    // the old completions, then one wave touching an old destination
    // second.
    vtime::charge(41_000);
    qp.post_cas_u64(GlobalAddr::new(3, 0), 0, 0).unwrap();
    qp.post_cas_u64(GlobalAddr::new(1, 0), 0, 0).unwrap();
    qp.wait();
    assert_eq!(vtime::take(), 41_000 + p.post_ns + p.atomic_ns);
    qp.read_u64(GlobalAddr::new(2, 0));
    assert_eq!(vtime::take(), p.read_ns(8));
}
