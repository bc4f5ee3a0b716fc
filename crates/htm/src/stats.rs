//! Commit/abort counters shared by workers and reported by the harnesses.

crate::counter_set! {
    /// Aggregated HTM execution counters.
    ///
    /// The struct is intended to be shared behind an `Arc` by every worker
    /// of a simulated machine. The paper reports the capacity-abort rate
    /// and fallback rate in Table 6, so the counters distinguish abort
    /// causes.
    pub struct HtmStats;
    /// A point-in-time copy of [`HtmStats`].
    pub struct StatsSnapshot {
        /// Successful `XEND`s.
        pub commits,
        /// Aborts caused by data conflicts (including RDMA strong-atomicity).
        pub conflict_aborts,
        /// Aborts caused by read/write-set capacity overflow.
        pub capacity_aborts,
        /// Explicit `XABORT`s issued by the protocol.
        pub explicit_aborts,
        /// Executions that gave up on HTM and took the fallback path.
        pub fallbacks,
    }
}

impl StatsSnapshot {
    /// Total aborts of all causes.
    pub fn total_aborts(&self) -> u64 {
        self.conflict_aborts + self.capacity_aborts + self.explicit_aborts
    }

    /// Abort rate: aborts / (aborts + commits); 0 when idle.
    pub fn abort_rate(&self) -> f64 {
        let a = self.total_aborts() as f64;
        let c = self.commits as f64;
        if a + c == 0.0 {
            0.0
        } else {
            a / (a + c)
        }
    }
}

impl HtmStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one abort of the given cause.
    pub fn record_abort(&self, abort: crate::Abort) {
        match abort {
            crate::Abort::Conflict => &self.conflict_aborts,
            crate::Abort::Capacity => &self.capacity_aborts,
            crate::Abort::Explicit(_) => &self.explicit_aborts,
        }
        .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Abort;

    #[test]
    fn abort_causes_and_rate() {
        let s = HtmStats::new();
        s.commits.add(2);
        s.record_abort(Abort::Conflict);
        s.record_abort(Abort::Capacity);
        s.record_abort(Abort::Explicit(1));
        let snap = s.snapshot();
        assert_eq!((snap.conflict_aborts, snap.capacity_aborts, snap.explicit_aborts), (1, 1, 1));
        assert_eq!(snap.total_aborts(), 3);
        assert!((snap.abort_rate() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn idle_abort_rate_is_zero() {
        assert_eq!(StatsSnapshot::default().abort_rate(), 0.0);
    }
}
