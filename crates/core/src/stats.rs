//! Transaction-layer counters (beyond the HTM-level [`drtm_htm::HtmStats`]).

drtm_htm::counter_set! {
    /// Cluster-wide transaction outcome counters.
    ///
    /// Aborts are counted per cause by [`crate::TraceHub`]; this set holds
    /// outcomes and the two abort tallies whose unit differs from a cause's.
    pub struct TxnStats;
    /// Point-in-time copy of [`TxnStats`].
    pub struct TxnStatsSnapshot {
        /// Read-write transactions committed (HTM or fallback path).
        pub(crate) committed,
        /// Of those, how many committed via the 2PL fallback handler.
        pub(crate) fallback_committed,
        /// Start-phase restarts of the HTM strategy: one per lost wave
        /// whatever met it (a dead or retired peer included), where the
        /// `start-*` causes split the lock/lease conflicts by kind.
        pub(crate) start_conflicts,
        /// Read-only transactions committed.
        pub(crate) ro_committed,
        /// Read-only transaction retries (confirmation failures).
        pub(crate) ro_retries,
        /// Transactions aborted because a peer machine was crashed (or a
        /// fabric op timed out); retriable only after recovery. One per
        /// transaction that ended so, where the `peer-dead` cause counts
        /// every conflict with the dead peer.
        pub(crate) peer_dead_aborts,
        /// Durability-log records persisted (lock-ahead, write-ahead, or
        /// chop). Zero on the read-only path even with logging enabled —
        /// the invariant the RO tests assert by counter.
        pub(crate) log_writes,
        /// Payload bytes of those log records.
        pub(crate) log_bytes,
        /// `log_done` completion markers a committing worker waited on.
        pub(crate) log_done_waits,
    }
}

impl TxnStats {
    pub(crate) fn add_committed(&self, fallback: bool) {
        self.committed.inc();
        if fallback {
            self.fallback_committed.inc();
        }
    }

    pub(crate) fn add_log_write(&self, bytes: usize) {
        self.log_writes.inc();
        self.log_bytes.add(bytes as u64);
    }
}
