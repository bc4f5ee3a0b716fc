//! The stand-alone HTM micro-transaction loops of a machine.
//!
//! RTM offers no forward-progress guarantee, so a region is retried
//! until it commits (§6.2). Whatever runs on a record's host outside a
//! database transaction — the memory store's INSERT/DELETE, ordered-2PL
//! store operations, read-only scans, every reconnaissance lookup — is
//! such a region, under one of two loops with one rule set: both begin
//! on the machine's [`HtmConfig`], validate, retry a conflict, let an
//! explicit abort escape and count each attempt in the machine's
//! [`HtmStats`]. [`Executor::run`] is one region per call;
//! [`Executor::run_steps`] is a batch of reads in as few regions as
//! the read set allows, and `run` behaves as its one-step batch. `run`
//! is not written as that batch because it is under every INSERT and
//! every address-form lookup, where the batch's bookkeeping measured
//! 20–30 ns a call (the figures are on `run_steps`). The only other
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

    /// Runs a batch of **reads** — `body` calls [`Steps::step`] once per
    /// lookup, scan or record read — in as few regions as the read set
    /// allows: all of them in one, and when that one overflows
    /// ([`Abort::Capacity`]) in regions of half as many steps, halving
    /// again down to one step per region. The rules of [`Executor::run`],
    /// which behaves as the one-step batch: a conflict in any region
    /// reruns the body from its first step, an explicit abort escapes,
    /// and so does the overflow of a step that already has a region to
    /// itself. (`run` keeps a loop of its own because it is under every
    /// INSERT and every address-form lookup: routed through here it
    /// measured 51 → 71 ns per lookup region and 185 → 215 ns per
    /// insert, cache-resident — the batch's bookkeeping around a region
    /// that short.)
    ///
    /// One region is one snapshot. A batch that had to split is
    /// read-committed across its regions — each step's value was
    /// validated by the commit of the region it ran in before `body`'s
    /// result is returned — which is why steps must not write: a rerun
    /// repeats regions that already committed.
    pub fn run_steps<T>(
        &self,
        region: &Region,
        mut body: impl FnMut(&mut Steps<'_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        let mut backoff = Backoff::new();
        let mut per_region = usize::MAX;
        loop {
            let mut steps = Steps { exec: self, region, txn: None, per_region, taken: 0 };
            match body(&mut steps).and_then(|v| steps.commit().map(|()| v)) {
                Ok(v) => return Ok(v),
                Err(abort) => {
                    self.stats.record_abort(abort);
                    match abort {
                        Abort::Conflict => backoff.snooze(),
                        Abort::Capacity if steps.taken > 1 => per_region = steps.taken.div_ceil(2),
                        _ => return Err(abort),
                    }
                }
            }
        }
    }
}

/// One attempt of [`Executor::run_steps`]: the open region and how many
/// steps it has run.
pub struct Steps<'a> {
    exec: &'a Executor,
    region: &'a Region,
    /// Begun by the first step after a boundary.
    txn: Option<HtmTxn<'a>>,
    /// Steps a region of this attempt may run.
    per_region: usize,
    /// Steps the open region has run, the overflowing one included.
    taken: usize,
}

impl Steps<'_> {
    /// Runs `f` in the open region — committing it and beginning the
    /// next first, if it has run its share of steps.
    pub fn step<T>(
        &mut self,
        f: impl FnOnce(&mut HtmTxn<'_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        if self.taken == self.per_region {
            self.commit()?;
        }
        self.taken += 1;
        f(self.txn.get_or_insert_with(|| self.region.begin(&self.exec.cfg)))
    }

    /// Commits the open region, if any, and counts it.
    fn commit(&mut self) -> Result<(), Abort> {
        if let Some(txn) = self.txn.take() {
            txn.commit()?;
            self.exec.stats.commits.inc();
        }
        self.taken = 0;
        Ok(())
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

    /// Reads line `i` of each of `lines`, one step per line.
    fn read_lines(steps: &mut Steps<'_>, lines: usize) -> Result<Vec<u64>, Abort> {
        (0..lines).map(|i| steps.step(|txn| txn.read_u64(i * 64))).collect()
    }

    #[test]
    fn an_overflowing_batch_is_rerun_in_halves() {
        let region = Region::new(8 * 64);
        for i in 0..8 {
            region.write_u64_nt(i * 64, i as u64);
        }
        let want: Vec<u64> = (0..8).collect();
        // Room for all eight: one region.
        let roomy = exec(HtmConfig::default());
        assert_eq!(roomy.run_steps(&region, |s| read_lines(s, 8)), Ok(want.clone()));
        assert_eq!(roomy.stats().snapshot().commits, 1);
        // Room for four: the fifth step overflows, so regions of three.
        let four = exec(HtmConfig { read_capacity_lines: 4, ..Default::default() });
        assert_eq!(four.run_steps(&region, |s| read_lines(s, 8)), Ok(want.clone()));
        let s = four.stats().snapshot();
        assert_eq!((s.commits, s.capacity_aborts, s.total_aborts()), (3, 1, 1));
        // Room for one: 8 → the second step overflows → one step each.
        let one = exec(HtmConfig { read_capacity_lines: 1, ..Default::default() });
        assert_eq!(one.run_steps(&region, |s| read_lines(s, 8)), Ok(want));
        let s = one.stats().snapshot();
        assert_eq!((s.commits, s.capacity_aborts), (8, 1));
        // A step that overflows a region of its own escapes.
        let two_lines = |txn: &mut HtmTxn<'_>| Ok(txn.read_u64(0)? + txn.read_u64(64)?);
        assert_eq!(one.run_steps(&region, |s| s.step(two_lines)), Err(Abort::Capacity));
        // And a batch of no steps begins no region.
        assert_eq!(one.run_steps(&region, |_| Ok(5)), Ok(5));
        assert_eq!(one.stats().snapshot().commits, 8);
    }

    #[test]
    fn a_conflict_in_a_later_region_reruns_the_batch_from_its_first_step() {
        let region = Region::new(4 * 64);
        let two = exec(HtmConfig { read_capacity_lines: 2, ..Default::default() });
        let mut attempts = 0;
        let seen = two.run_steps(&region, |s| {
            attempts += 1;
            let got = read_lines(s, 4)?;
            if attempts == 2 {
                // The halved attempt: lines 0 and 1 are committed, lines
                // 2 and 3 read but not yet validated.
                region.write_u64_nt(0, 1);
                region.write_u64_nt(3 * 64, 9);
            }
            Ok(got)
        });
        assert_eq!((seen, attempts), (Ok(vec![1, 0, 0, 9]), 3));
        let s = two.stats().snapshot();
        assert_eq!((s.commits, s.capacity_aborts, s.conflict_aborts), (1 + 2, 1, 1));
    }
}
