//! Tunables of the DrTM transaction layer.

use drtm_htm::HtmConfig;

/// Where a transaction reads softtime for local-op lease checks (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SofttimeStrategy {
    /// Read softtime transactionally on every local read/write *and* the
    /// commit-time confirmation (Figure 11(b)): maximal freshness, but
    /// every timer tick aborts every in-flight transaction.
    PerOp,
    /// Reuse the softtime acquired in the Start phase (outside the HTM
    /// region) for local ops and read it transactionally only for the
    /// lease confirmation just before `XEND` (Figure 11(c)) — the
    /// paper's chosen design.
    #[default]
    ReuseStart,
}

/// Simulated crash points for durability tests (§4.6 / Figure 7).
///
/// Each variant names one precise step of the commit protocol. Arming
/// the fabric's `FaultPlan` with a machine and the step's
/// [`CrashPoint::name`] drops the whole machine off the fabric the
/// instant one of its workers reaches that step: machines are fail-stop
/// (§4.6), there is no worker-only crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash right after the lock-ahead log record is persisted, before
    /// any remote lock CAS went out.
    AfterLockAhead,
    /// Crash after every remote write lock (and read lease) is held,
    /// before the HTM region even starts.
    AfterRemoteLocks,
    /// Crash after remote locks are taken and the lock-ahead log is
    /// persisted, but before the HTM region commits (Figure 7(a)).
    BeforeHtmCommit,
    /// Crash after `XEND` (write-ahead log persisted) but before any
    /// remote write-back (Figure 7(b)).
    AfterHtmCommit,
    /// Crash after the first remote write-back WRITE landed (between
    /// remote update `k` and `k + 1`).
    MidWriteBack,
    /// Crash after every write-back landed but before the write-ahead
    /// log is reclaimed (`log_done`) — redo must skip every update.
    AfterWriteBacks,
    /// Fallback handler: crash after its lock-ahead log is persisted,
    /// before any 2PL lock is taken.
    FallbackAfterLockAhead,
    /// Fallback handler: crash after every 2PL lock is held and the
    /// transaction body ran, but before the write-ahead log is staged.
    /// Nothing is durable: recovery must roll back (release every lock
    /// named by the lock-ahead record, touch no value).
    FallbackBeforeWal,
    /// Fallback handler: crash after the write-ahead log is persisted,
    /// before any update is applied or any lock released. The
    /// transaction is committed: recovery must redo every update
    /// (local and remote) from the WAL.
    FallbackAfterWalBeforeApply,
    /// Fallback handler: crash after the first apply+unlock landed
    /// (between update `k` and `k + 1` of the unlock loop). Recovery
    /// must skip the applied prefix by version, redo the rest, and
    /// release the locks still held.
    FallbackMidUnlock,
    /// Resharder: the migration destination dies inside the bulk-copy
    /// loop (some rows landed on the destination, none removed from the
    /// source, range still `Copying`). Recovery rolls back: drop the
    /// partial copy, return the range to the source.
    MigrateMidCopy,
    /// Resharder: the destination dies after the bulk copy completes but
    /// before the cutover freezes the range. Same rollback obligation as
    /// mid-copy — nothing is durable until publish.
    MigrateBeforeCutover,
    /// Membership: the joining machine dies inside the donation stream
    /// (some donor ranges already flipped to it, one mid-copy). Rollback:
    /// recover the in-flight range, evacuate the flipped ranges back to
    /// their donors, retire the corpse — pre-join geometry restored.
    JoinMidStream,
    /// Membership: the joining machine dies after every donation landed
    /// but before the journal records `Active`. The join never happened:
    /// same rollback obligation as mid-stream (nothing is durable until
    /// activation).
    JoinBeforeActivate,
    /// Membership: the leaving machine dies mid-drain (some ranges
    /// already handed off, one mid-copy). Roll *forward*: finish the
    /// drain from the surviving journal state — the departure was
    /// already promised.
    LeaveMidDrain,
}

impl CrashPoint {
    /// Every crash point, in protocol order (the chaos matrix iterates
    /// this).
    pub const ALL: [CrashPoint; 15] = [
        CrashPoint::AfterLockAhead,
        CrashPoint::AfterRemoteLocks,
        CrashPoint::BeforeHtmCommit,
        CrashPoint::AfterHtmCommit,
        CrashPoint::MidWriteBack,
        CrashPoint::AfterWriteBacks,
        CrashPoint::FallbackAfterLockAhead,
        CrashPoint::FallbackBeforeWal,
        CrashPoint::FallbackAfterWalBeforeApply,
        CrashPoint::FallbackMidUnlock,
        CrashPoint::MigrateMidCopy,
        CrashPoint::MigrateBeforeCutover,
        CrashPoint::JoinMidStream,
        CrashPoint::JoinBeforeActivate,
        CrashPoint::LeaveMidDrain,
    ];

    /// Stable site label used to arm a `FaultPlan` crash at this point.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::AfterLockAhead => "after-lock-ahead",
            CrashPoint::AfterRemoteLocks => "after-remote-locks",
            CrashPoint::BeforeHtmCommit => "before-htm-commit",
            CrashPoint::AfterHtmCommit => "after-htm-commit",
            CrashPoint::MidWriteBack => "mid-write-back",
            CrashPoint::AfterWriteBacks => "after-write-backs",
            CrashPoint::FallbackAfterLockAhead => "fallback-after-lock-ahead",
            CrashPoint::FallbackBeforeWal => "fallback-before-wal",
            CrashPoint::FallbackAfterWalBeforeApply => "fallback-after-wal-before-apply",
            CrashPoint::FallbackMidUnlock => "fallback-mid-unlock",
            // The protocols that fire these sites name them.
            CrashPoint::MigrateMidCopy => drtm_memstore::reshard::MIGRATE_MID_COPY_SITE,
            CrashPoint::MigrateBeforeCutover => drtm_memstore::reshard::MIGRATE_BEFORE_CUTOVER_SITE,
            CrashPoint::JoinMidStream => crate::membership::JOIN_MID_STREAM_SITE,
            CrashPoint::JoinBeforeActivate => crate::membership::JOIN_BEFORE_ACTIVATE_SITE,
            CrashPoint::LeaveMidDrain => crate::membership::LEAVE_MID_DRAIN_SITE,
        }
    }

    /// Whether the write-ahead log was persisted before this point:
    /// recovery must *redo* the transaction (else roll it back).
    pub fn is_committed(self) -> bool {
        matches!(
            self,
            CrashPoint::AfterHtmCommit
                | CrashPoint::MidWriteBack
                | CrashPoint::AfterWriteBacks
                | CrashPoint::FallbackAfterWalBeforeApply
                | CrashPoint::FallbackMidUnlock
        )
    }

    /// Whether this point lives in the resharder's migration protocol
    /// (driven by a whole-range recovery, not the per-transaction
    /// commit-protocol matrix).
    pub fn is_migration(self) -> bool {
        matches!(self, CrashPoint::MigrateMidCopy | CrashPoint::MigrateBeforeCutover)
    }

    /// Whether this point lives in the membership coordinator's join /
    /// leave protocol (driven by journal-based rollback or roll-forward,
    /// not the per-transaction commit-protocol matrix).
    pub fn is_membership(self) -> bool {
        matches!(
            self,
            CrashPoint::JoinMidStream | CrashPoint::JoinBeforeActivate | CrashPoint::LeaveMidDrain
        )
    }
}

/// Configuration of a [`crate::DrTm`] instance.
#[derive(Debug, Clone)]
pub struct DrTmConfig {
    /// Emulated HTM hardware parameters.
    pub htm: HtmConfig,
    /// Read-lease duration for read-write transactions (paper: 0.4 ms;
    /// scaled up ~5× because leases expire in *wall* time and a worker
    /// thread on an oversubscribed host can be descheduled mid-window.
    /// Longer leases trade fewer confirmation retries for longer writer
    /// blocking; a failed confirmation is cheap (restart the Start
    /// phase), so the default stays close to the paper's value).
    pub lease_us: u64,
    /// Start-phase retries (whole-transaction restarts on remote lock
    /// conflicts) before switching to the ordered fallback path.
    pub start_retries: u32,
    /// Softtime acquisition strategy.
    pub softtime: SofttimeStrategy,
    /// Whether durability logging is enabled (Table 6).
    pub logging: bool,
    /// Capacity of each worker's abort-trace ring buffer (the most
    /// recent events kept for [`crate::TraceDump`]).
    pub trace_capacity: usize,
}

impl Default for DrTmConfig {
    fn default() -> Self {
        DrTmConfig {
            htm: HtmConfig::default(),
            lease_us: 1_000,
            start_retries: 50,
            softtime: SofttimeStrategy::ReuseStart,
            logging: false,
            trace_capacity: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_shaped() {
        let c = DrTmConfig::default();
        assert!(crate::ro::RO_LEASE_US >= c.lease_us, "RO leases are at least as long (§4.3)");
        assert!(crate::state::DELTA_US <= c.lease_us / 10, "delta must be small vs lease");
        assert_eq!(c.softtime, SofttimeStrategy::ReuseStart);
        assert!(!c.logging);
    }

    #[test]
    fn crash_points_have_distinct_site_names() {
        let names: std::collections::HashSet<_> =
            CrashPoint::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), CrashPoint::ALL.len());
        // Committed points all lie at-or-after the write-ahead log.
        assert!(!CrashPoint::AfterLockAhead.is_committed());
        assert!(!CrashPoint::BeforeHtmCommit.is_committed());
        assert!(CrashPoint::AfterHtmCommit.is_committed());
        assert!(CrashPoint::AfterWriteBacks.is_committed());
        // Fallback pipeline: everything strictly before the WAL rolls
        // back, everything at-or-after it redoes.
        assert!(!CrashPoint::FallbackAfterLockAhead.is_committed());
        assert!(!CrashPoint::FallbackBeforeWal.is_committed());
        assert!(CrashPoint::FallbackAfterWalBeforeApply.is_committed());
        assert!(CrashPoint::FallbackMidUnlock.is_committed());
        // Migration points always roll back (nothing durable pre-publish)
        // and are the only ones outside the commit-protocol matrix.
        assert!(!CrashPoint::MigrateMidCopy.is_committed());
        assert!(!CrashPoint::MigrateBeforeCutover.is_committed());
        // Membership points never mark the transaction protocol committed
        // either: join crashes roll back, leave crashes roll forward, but
        // both are whole-cluster recoveries, not WAL redo.
        assert!(!CrashPoint::JoinMidStream.is_committed());
        assert!(!CrashPoint::JoinBeforeActivate.is_committed());
        assert!(!CrashPoint::LeaveMidDrain.is_committed());
        for p in CrashPoint::ALL {
            assert_eq!(
                p.is_migration(),
                matches!(p, CrashPoint::MigrateMidCopy | CrashPoint::MigrateBeforeCutover)
            );
            assert_eq!(
                p.is_membership(),
                matches!(
                    p,
                    CrashPoint::JoinMidStream
                        | CrashPoint::JoinBeforeActivate
                        | CrashPoint::LeaveMidDrain
                )
            );
            assert!(!(p.is_migration() && p.is_membership()));
        }
    }
}
