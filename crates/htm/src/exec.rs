//! The one stand-alone HTM micro-transaction loop of a machine.
//!
//! RTM offers no forward-progress guarantee, so a region is retried
//! until it commits (§6.2). Whatever runs on a record's host outside a
//! database transaction — the memory store's INSERT/DELETE, ordered-2PL
//! store operations, read-only scans, every reconnaissance lookup — is
//! such a region, and [`Executor::run`] is the loop under all of them:
//! it begins on the machine's [`HtmConfig`], validates, retries and
//! counts each attempt in the machine's [`HtmStats`]. The only other
//! place a region is begun or counted is the transaction layer's own
//! loop, which has a software fallback to escalate to.

use std::sync::Arc;

use crate::backoff::Backoff;
use crate::stats::HtmStats;
use crate::txn::{Abort, HtmConfig, HtmTxn};
use crate::Region;

/// The HTM configuration and shared statistics of one machine.
#[derive(Debug, Clone)]
pub struct Executor {
    cfg: HtmConfig,
    stats: Arc<HtmStats>,
}

impl Executor {
    /// Creates an executor with the given hardware model and shared stats.
    pub fn new(cfg: HtmConfig, stats: Arc<HtmStats>) -> Self {
        Executor { cfg, stats }
    }

    /// Returns the HTM configuration in use.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// Returns the shared statistics sink.
    pub fn stats(&self) -> &Arc<HtmStats> {
        &self.stats
    }

    /// Runs `f` against `region` as its own HTM micro-transaction,
    /// retried (with backoff) until it commits. A value leaves the loop
    /// only through a successful `commit()`: every attempt whose body
    /// returned `Ok` is committed, so whatever the body concluded from
    /// its reads — "duplicate", "not found" — is validated before anyone
    /// hears it. Each attempt is counted once, as a commit or as an abort
    /// by cause.
    ///
    /// Two aborts escape: an explicit one — the body's own verdict — and
    /// a capacity overflow, which every retry of the same body would only
    /// repeat. The body runs once per attempt: host-side state it touches
    /// (allocator cells) is its own to roll back, at the start of the
    /// next attempt or after `run` gives up.
    pub fn run<T>(
        &self,
        region: &Region,
        mut f: impl FnMut(&mut HtmTxn<'_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        let mut backoff = Backoff::new();
        loop {
            let mut txn = region.begin(&self.cfg);
            match f(&mut txn).and_then(|v| txn.commit().map(|()| v)) {
                Ok(v) => {
                    self.stats.commits.inc();
                    return Ok(v);
                }
                Err(abort) => {
                    self.stats.record_abort(abort);
                    if abort != Abort::Conflict {
                        return Err(abort);
                    }
                }
            }
            backoff.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(cfg: HtmConfig) -> Executor {
        Executor::new(cfg, Arc::new(HtmStats::new()))
    }

    #[test]
    fn one_commit_per_success_one_abort_by_cause_per_retry() {
        let region = Region::new(4096);
        let exec = exec(HtmConfig::default());
        assert_eq!(exec.run(&region, |txn| txn.read_u64(0)), Ok(0));
        assert_eq!(exec.stats().snapshot().commits, 1);
        // A non-transactional store between body and commit fails the
        // first attempt's validation; the retry sees the stored value.
        let mut attempts = 0;
        let seen = exec.run(&region, |txn| {
            let v = txn.read_u64(0)?;
            attempts += 1;
            if attempts == 1 {
                region.write_u64_nt(0, 7);
            }
            Ok(v)
        });
        assert_eq!((seen, attempts), (Ok(7), 2), "the unvalidated 0 never left the loop");
        let s = exec.stats().snapshot();
        assert_eq!((s.commits, s.conflict_aborts, s.total_aborts()), (2, 1, 1));
    }

    #[test]
    fn explicit_aborts_escape_uncommitted() {
        let region = Region::new(4096);
        let exec = exec(HtmConfig::default());
        let r: Result<(), Abort> = exec.run(&region, |txn| {
            txn.write_u64(0, 9)?;
            Err(Abort::Explicit(3))
        });
        assert_eq!(r, Err(Abort::Explicit(3)));
        assert_eq!(region.read_u64_nt(0), 0, "the staged write was dropped");
        let s = exec.stats().snapshot();
        assert_eq!((s.commits, s.explicit_aborts), (0, 1));
    }

    #[test]
    fn run_reports_a_capacity_overflow() {
        // A body too large for the region overflows again on every
        // retry: it must come back as an error, not spin.
        let region = Region::new(4 * 64);
        let three_lines = |txn: &mut HtmTxn<'_>| {
            (0..3).try_fold(0, |sum, line| Ok(sum + txn.read_u64(line * 64)?))
        };
        let small = exec(HtmConfig { read_capacity_lines: 2, ..Default::default() });
        assert_eq!(small.run(&region, three_lines), Err(Abort::Capacity));
        assert_eq!(small.stats().snapshot().capacity_aborts, 1);
        let roomy = exec(HtmConfig { read_capacity_lines: 3, ..Default::default() });
        assert_eq!(roomy.run(&region, three_lines), Ok(0));
    }
}
