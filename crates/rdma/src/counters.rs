//! Cluster-wide operation counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counts of simulated network operations issued on a [`crate::Cluster`].
///
/// Table 4 of the paper reports the *average number of RDMA READs per
/// lookup* for three hash-table designs; the benchmark harness computes
/// it as `snapshot().reads / lookups` around the measured section.
#[derive(Debug, Default)]
pub struct OpCounters {
    reads: AtomicU64,
    read_bytes: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    cas: AtomicU64,
    faa: AtomicU64,
    sends: AtomicU64,
    send_bytes: AtomicU64,
    doorbells: AtomicU64,
    fabric_ns: AtomicU64,
}

/// Point-in-time copy of [`OpCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// One-sided READ verbs issued.
    pub reads: u64,
    /// Total bytes fetched by READs.
    pub read_bytes: u64,
    /// One-sided WRITE verbs issued.
    pub writes: u64,
    /// Total bytes stored by WRITEs.
    pub write_bytes: u64,
    /// One-sided compare-and-swap verbs issued.
    pub cas: u64,
    /// One-sided fetch-and-add verbs issued.
    pub faa: u64,
    /// SEND verbs issued.
    pub sends: u64,
    /// Total bytes carried by SENDs.
    pub send_bytes: u64,
    /// Doorbells rung: batches of outbound ops posted together. With
    /// batching disabled this equals the op count (one ring per op).
    pub doorbells: u64,
    /// NIC service time of all fabric operations, in virtual ns (after
    /// doorbell amortisation), summed per op: what the ops cost, not
    /// what their issuers waited — posted ops overlap.
    pub fabric_ns: u64,
}

impl CounterSnapshot {
    /// Total one-sided operations (READ + WRITE + CAS + FAA).
    pub fn one_sided(&self) -> u64 {
        self.reads + self.writes + self.cas + self.faa
    }

    /// All outbound fabric ops that ring or ride a doorbell.
    pub fn fabric_ops(&self) -> u64 {
        self.one_sided() + self.sends
    }

    /// Average ops per doorbell ring — exactly 1.0 with batching off,
    /// climbing toward the configured batch size as phases post more
    /// ops back-to-back.
    pub fn ops_per_doorbell(&self) -> f64 {
        if self.doorbells == 0 {
            return 0.0;
        }
        self.fabric_ops() as f64 / self.doorbells as f64
    }

    /// Average virtual service time per fabric op, in ns.
    pub fn avg_op_cost_ns(&self) -> f64 {
        if self.fabric_ops() == 0 {
            return 0.0;
        }
        self.fabric_ns as f64 / self.fabric_ops() as f64
    }

    /// Component-wise difference `self - earlier` (for measuring a window).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            cas: self.cas - earlier.cas,
            faa: self.faa - earlier.faa,
            sends: self.sends - earlier.sends,
            send_bytes: self.send_bytes - earlier.send_bytes,
            doorbells: self.doorbells - earlier.doorbells,
            fabric_ns: self.fabric_ns - earlier.fabric_ns,
        }
    }
}

impl OpCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_read(&self, bytes: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, bytes: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_cas(&self) {
        self.cas.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_faa(&self) {
        self.faa.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_send(&self, bytes: usize) {
        self.sends.fetch_add(1, Ordering::Relaxed);
        self.send_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_doorbell(&self) {
        self.doorbells.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_fabric_ns(&self, ns: u64) {
        self.fabric_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            cas: self.cas.load(Ordering::Relaxed),
            faa: self.faa.load(Ordering::Relaxed),
            sends: self.sends.load(Ordering::Relaxed),
            send_bytes: self.send_bytes.load(Ordering::Relaxed),
            doorbells: self.doorbells.load(Ordering::Relaxed),
            fabric_ns: self.fabric_ns.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.read_bytes.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.write_bytes.store(0, Ordering::Relaxed);
        self.cas.store(0, Ordering::Relaxed);
        self.faa.store(0, Ordering::Relaxed);
        self.sends.store(0, Ordering::Relaxed);
        self.send_bytes.store(0, Ordering::Relaxed);
        self.doorbells.store(0, Ordering::Relaxed);
        self.fabric_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_diff() {
        let c = OpCounters::new();
        c.record_read(64);
        c.record_read(128);
        c.record_write(32);
        c.record_cas();
        c.record_faa();
        c.record_send(16);
        let a = c.snapshot();
        assert_eq!(a.reads, 2);
        assert_eq!(a.read_bytes, 192);
        assert_eq!(a.one_sided(), 5);
        c.record_read(8);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.reads, 1);
        assert_eq!(d.read_bytes, 8);
        assert_eq!(d.writes, 0);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn doorbell_ratio_and_avg_cost() {
        let c = OpCounters::new();
        for _ in 0..8 {
            c.record_read(8);
            c.record_fabric_ns(1_000);
        }
        c.record_doorbell();
        c.record_doorbell();
        let s = c.snapshot();
        assert_eq!(s.fabric_ops(), 8);
        assert_eq!(s.ops_per_doorbell(), 4.0);
        assert_eq!(s.avg_op_cost_ns(), 1_000.0);
        assert_eq!(CounterSnapshot::default().ops_per_doorbell(), 0.0);
        assert_eq!(CounterSnapshot::default().avg_op_cost_ns(), 0.0);
    }
}
