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

use drtm_memstore::reshard::MigrationJournal;
use drtm_rdma::{Cluster, NodeId};

use crate::alloc_layout::NodeLayout;
use crate::log::{self, LogSlot, LOG_LOCK_AHEAD, LOG_WRITE_AHEAD};
use crate::record::{self, RecordAddr};
use crate::state::{LockState, INIT};

/// Summary of one recovery pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Chopped parent transactions that must resume: one entry per
    /// worker slot with pending chopping information (Figure 7).
    pub pending_pieces: Vec<crate::log::ChopInfo>,
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
/// machine `via`. Returns what was done.
///
/// Records and log slots on the crashed machine itself are accessed
/// directly through its (durable, flush-on-failure) region — the paper's
/// NVRAM model — never through its dead fabric port; records on live
/// machines are repaired with ordinary one-sided verbs.
///
/// Safe to run concurrently from several survivors and to re-run after a
/// recoverer itself dies: each log slot is *claimed* with a CAS on its
/// status word ([`log::recovering_status`]) before being repaired, so
/// exactly one survivor repairs (and reports) each slot. A claim held by
/// the caller, or by a machine the fault plan marks crashed, is
/// re-claimable; a claim held by a live peer is skipped.
pub fn recover_node(
    cluster: &std::sync::Arc<Cluster>,
    crashed: NodeId,
    layout: &NodeLayout,
    via: NodeId,
) -> RecoveryReport {
    let qp = cluster.qp(via);
    let region = cluster.node(crashed).region();
    let mut report = RecoveryReport::default();

    let release_if_owned = |rec: &RecordAddr, report: &mut RecoveryReport| {
        if rec.addr.node == crashed {
            let st = LockState(region.read_u64_nt(rec.addr.offset));
            if st.is_write_locked()
                && st.owner() == crashed as u8
                && region.cas_u64_nt(rec.addr.offset, st.0, INIT) == st.0
            {
                report.released_locks += 1;
            }
        } else {
            let st = LockState(qp.read_u64(rec.addr));
            // CAS so a concurrent release cannot be clobbered (and so
            // racing recoverers count each release exactly once).
            if st.is_write_locked()
                && st.owner() == crashed as u8
                && qp.cas_u64(rec.addr, st.0, INIT) == st.0
            {
                report.released_locks += 1;
            }
        }
    };
    let read_version = |rec: &RecordAddr| -> u32 {
        let mut vb = [0u8; 4];
        if rec.addr.node == crashed {
            region.read_nt(rec.addr.offset + 12, &mut vb);
        } else {
            let mut tmp = vec![0u8; 4];
            qp.read(drtm_rdma::GlobalAddr::new(rec.addr.node, rec.addr.offset + 12), &mut tmp);
            vb.copy_from_slice(&tmp);
        }
        u32::from_le_bytes(vb)
    };

    for slot_layout in &layout.log_slots {
        let slot = LogSlot::new(*slot_layout, 0);
        if let Some(info) = slot.read_chop(region) {
            report.pending_pieces.push(info);
        }
        // Claim the slot before repairing it.
        let claimed: Option<u64> = loop {
            let cur = slot.read_status(region);
            let (expected, orig) = match cur {
                LOG_LOCK_AHEAD | LOG_WRITE_AHEAD => (cur, cur),
                w => match log::recovering_parts(w) {
                    Some((claimer, orig))
                        if claimer == via || cluster.faults().is_crashed(claimer) =>
                    {
                        (w, orig)
                    }
                    // A live peer is repairing this slot (or it's empty).
                    _ => break None,
                },
            };
            let claim = log::recovering_status(via, orig);
            if region.cas_u64_nt(slot_layout.status_off, expected, claim) == expected {
                break Some(orig);
            }
            // Lost the race; re-read — the winner's claim decides.
        };
        match claimed {
            Some(LOG_WRITE_AHEAD) => {
                report.redone_txns += 1;
                let wal = slot.read_write_ahead(region);
                for u in &wal.updates {
                    let cur = read_version(&u.rec);
                    // Versions increase monotonically; wrapping_sub keeps
                    // the comparison valid across u32 wrap.
                    if cur.wrapping_sub(u.version) as i32 >= 0 {
                        report.skipped_updates += 1;
                        release_if_owned(&u.rec, &mut report);
                    } else {
                        // A record of the corpse is redone with stores
                        // into its durable region, never through its
                        // dead port; the same write-back, value before
                        // version, so a recoverer dying here leaves an
                        // update the next pass still redoes.
                        let into_corpse = u.rec.addr.node == crashed;
                        record::remote_write_back(&qp, &u.rec, u.version, &u.value, into_corpse)
                            .expect("recovery write-back against a second crashed node");
                        report.redone_updates += 1;
                    }
                }
                // Sweep the WAL's lock list: anything the redo pass did
                // not clear (declared-but-unwritten buffers, fallback
                // locks between the WAL and the apply loop) is released
                // here, exactly once.
                for rec in &wal.locks {
                    release_if_owned(rec, &mut report);
                }
                slot.log_done(region);
            }
            Some(LOG_LOCK_AHEAD) => {
                report.rolled_back_txns += 1;
                for rec in slot.read_lock_ahead(region) {
                    release_if_owned(&rec, &mut report);
                }
                slot.log_done(region);
            }
            // Unknown original status: just clear the claim.
            Some(_) => slot.log_done(region),
            None => {}
        }
    }

    // Migration-journal sweep: if the crashed machine was a resharding
    // destination that died between arming its journal and shipping the
    // purge delete, the recorded source-side migration lock is still
    // held — release it (idempotently, by CAS on the exact logged word)
    // and clear the journal.
    let journal = MigrationJournal::at(region, layout.migration_journal_off);
    if let Some((src, off, word)) = journal.armed() {
        let released = if src == crashed || cluster.faults().is_crashed(src) {
            cluster.node(src).region().cas_u64_nt(off, word, INIT) == word
        } else {
            qp.cas_u64(drtm_rdma::GlobalAddr::new(src, off), word, INIT) == word
        };
        if released {
            report.released_locks += 1;
        }
        journal.clear();
    }
    report
}
