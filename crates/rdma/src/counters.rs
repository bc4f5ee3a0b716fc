//! Cluster-wide operation counters.

drtm_htm::counter_set! {
    /// Counts of simulated network operations issued on a [`crate::Cluster`].
    ///
    /// Table 4 of the paper reports the *average number of RDMA READs per
    /// lookup* for three hash-table designs; the benchmark harness computes
    /// it as `snapshot().reads / lookups` around the measured section.
    pub struct OpCounters;
    /// Point-in-time copy of [`OpCounters`].
    pub struct CounterSnapshot {
        /// One-sided READ verbs issued.
        pub(crate) reads,
        /// Total bytes fetched by READs.
        pub(crate) read_bytes,
        /// One-sided WRITE verbs issued.
        pub(crate) writes,
        /// Total bytes stored by WRITEs.
        pub(crate) write_bytes,
        /// One-sided compare-and-swap verbs issued.
        pub(crate) cas,
        /// SEND verbs issued.
        pub(crate) sends,
        /// Total bytes carried by SENDs.
        pub(crate) send_bytes,
        /// Doorbells rung: batches of outbound ops posted together. With
        /// batching disabled this equals the op count (one ring per op).
        pub(crate) doorbells,
        /// NIC service time of all fabric operations, in virtual ns (after
        /// doorbell amortisation), summed per op: what the ops cost, not
        /// what their issuers waited — posted ops overlap.
        pub(crate) fabric_ns,
    }
}

impl CounterSnapshot {
    /// Total one-sided operations (READ + WRITE + CAS).
    pub fn one_sided(&self) -> u64 {
        self.reads + self.writes + self.cas
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doorbell_ratio_and_avg_cost() {
        let s = CounterSnapshot { reads: 8, fabric_ns: 8_000, doorbells: 2, ..Default::default() };
        assert_eq!(s.fabric_ops(), 8);
        assert_eq!(s.ops_per_doorbell(), 4.0);
        assert_eq!(s.avg_op_cost_ns(), 1_000.0);
        assert_eq!(CounterSnapshot::default().ops_per_doorbell(), 0.0);
        assert_eq!(CounterSnapshot::default().avg_op_cost_ns(), 0.0);
    }
}
