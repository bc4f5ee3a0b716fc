//! Crash recovery from NVRAM logs (§4.6, Figure 7 right).
//!
//! A surviving machine (notified by the failure-detection service, which
//! the paper delegates to Zookeeper) inspects the crashed machine's NVRAM
//! log slots — reachable because the region itself is durable under
//! flush-on-failure — and repairs cluster state:
//!
//! * **write-ahead log present** — the transaction committed (its HTM
//!   region XENDed, or the fallback handler persisted its WAL before
//!   touching any record), so it must *eventually commit*: redo every
//!   update whose version has not landed yet — local updates of a
//!   fallback transaction are logged with real versions and redone
//!   here too — then release every lock the WAL's embedded lock list
//!   says the crashed machine could still hold (Figure 7(b)). The
//!   lock pass is idempotent over the redo pass: a write-back fuses
//!   apply+unlock, so it only fires for declared-but-unwritten
//!   records and fallback locks the apply loop never reached.
//! * **only lock-ahead log present** — the transaction did not commit:
//!   release every remote record still exclusively locked by the crashed
//!   machine (Figure 7(a)); versions prove no update was applied.
//!
//! Updates are applied at-most-once by comparing the logged version with
//! the record's current version — the ordering role §4.6 assigns to the
//! per-record version.

use drtm_rdma::{Cluster, NodeId};

use crate::alloc_layout::NodeLayout;
use crate::log::{ChopInfo, LogSlot, LOG_LOCK_AHEAD, LOG_WRITE_AHEAD};
use crate::record::{self, RecordAddr};

/// Summary of one recovery pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Chopped parent transactions that must resume: one entry per
    /// worker slot with pending chopping information (Figure 7).
    pub pending_pieces: Vec<ChopInfo>,
    /// Committed transactions whose remote updates were redone.
    pub redone_txns: u64,
    /// Individual remote updates (re)applied.
    pub redone_updates: u64,
    /// Updates skipped because the version showed they already landed.
    pub skipped_updates: u64,
    /// Exclusive locks released on behalf of the crashed machine.
    pub released_locks: u64,
    /// Uncommitted transactions rolled back (locks released only).
    pub rolled_back_txns: u64,
}

/// Recovers the cluster after `crashed` failed, driving repairs from
/// machine `via`. Returns what was done. For a static cluster this is
/// the whole recovery; an elastic deployment calls
/// [`crate::MembershipCoordinator::recover`], which runs this sweep first.
///
/// Records and log slots on the crashed machine itself are accessed
/// directly through its (durable, flush-on-failure) region — the paper's
/// NVRAM model — never through its dead fabric port: that is what the
/// `local` flag of [`crate::record_ops`]' verbs selects. Records on live machines
/// are repaired with ordinary one-sided verbs.
///
/// Safe to run concurrently from several survivors and to re-run after a
/// recoverer itself dies: each log slot is *claimed* with a CAS on its
/// status word ([`LogSlot::claim`]) before being repaired, so exactly one
/// survivor repairs (and reports) each slot. A claim held by the caller,
/// or by a machine the fault plan marks crashed, is re-claimable; a claim
/// held by a live peer is skipped.
///
/// The sweep order is fixed: every log slot, then the purge-lock journal
/// (a resharding destination that died between arming it and shipping
/// the purge delete still holds the recorded source-side lock).
pub fn recover_node(
    cluster: &std::sync::Arc<Cluster>,
    crashed: NodeId,
    layout: &NodeLayout,
    via: NodeId,
) -> RecoveryReport {
    const SECOND_CRASH: &str = "recovery against a second crashed node";
    let qp = cluster.qp(via);
    let region = cluster.node(crashed).region();
    let mut report = RecoveryReport::default();
    let on_corpse = |rec: &RecordAddr| rec.addr.node == crashed;
    let release = |rec: &RecordAddr, report: &mut RecoveryReport| {
        let freed = record::release_if_owned(&qp, rec, crashed as u8, on_corpse(rec));
        report.released_locks += freed.expect(SECOND_CRASH) as u64;
    };

    for journal in &layout.log_slots {
        let slot = LogSlot::new(*journal);
        if let Some(info) = slot.read_chop(region) {
            report.pending_pieces.push(info);
        }
        // Claim the slot before repairing it (a torn record has status 0
        // and is never claimed: nothing it names is touched).
        let Some(orig) = slot.claim(region, via, |n| cluster.faults().is_crashed(n)) else {
            continue;
        };
        match orig {
            LOG_WRITE_AHEAD => {
                report.redone_txns += 1;
                let wal = slot.read_write_ahead(region);
                for u in &wal.updates {
                    let local = on_corpse(&u.rec);
                    let cur = record::read_version(&qp, &u.rec, local).expect(SECOND_CRASH);
                    // Versions increase monotonically; wrapping_sub keeps
                    // the comparison valid across u32 wrap.
                    if cur.wrapping_sub(u.version) as i32 >= 0 {
                        report.skipped_updates += 1;
                        release(&u.rec, &mut report);
                    } else {
                        // The ordinary write-back, value before version,
                        // so a recoverer dying here leaves an update the
                        // next pass still redoes.
                        record::remote_write_back(&qp, &u.rec, u.version, &u.value, local)
                            .expect(SECOND_CRASH);
                        report.redone_updates += 1;
                    }
                }
                // Sweep the WAL's lock list: anything the redo pass did
                // not clear (declared-but-unwritten buffers, fallback
                // locks between the WAL and the apply loop) is released
                // here, exactly once.
                for rec in &wal.locks {
                    release(rec, &mut report);
                }
            }
            LOG_LOCK_AHEAD => {
                report.rolled_back_txns += 1;
                for rec in slot.read_lock_ahead(region) {
                    release(&rec, &mut report);
                }
            }
            // Unknown original status: just clear the claim.
            _ => {}
        }
        slot.log_done(region);
    }
    report.released_locks += layout.purge_lock.release(&qp, crashed);
    report
}
