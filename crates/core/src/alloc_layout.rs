//! Standard region layout for DrTM machines.
//!
//! Every machine's region begins with the softtime line, followed by its
//! durable records — one log slot per worker, the resharder's purge-lock
//! journal, the membership journal — followed by table space carved by
//! the workload. All machines use the identical layout so remote
//! addresses can be computed without metadata exchange. Each record's
//! size and shape belongs to its client; this module only says in what
//! order they are carved.

use drtm_memstore::{Arena, Journal, PurgeLock};

use crate::log::LogSlot;
use crate::membership::MembershipJournal;
use crate::time::SOFTTIME_OFF;

/// The per-machine region layout.
#[derive(Debug, Clone)]
pub struct NodeLayout {
    /// Log slots ([`LogSlot`]), indexed by worker id.
    pub log_slots: Vec<Journal>,
    /// The journal the resharder arms before each purge lock it takes
    /// while this machine is a migration destination.
    pub purge_lock: PurgeLock,
    /// The membership journal: the coordinator persists every join/leave
    /// phase transition here *before* it takes effect, so a survivor can
    /// roll a dead joiner back (or a dead leaver forward) from the
    /// subject's own NVRAM.
    pub membership: MembershipJournal,
}

impl NodeLayout {
    /// Reserves the softtime line, `workers` log slots and the two
    /// reconfiguration journals from `arena` (which must start at region
    /// offset 0).
    pub fn reserve(arena: &mut Arena, workers: usize) -> NodeLayout {
        let st = arena.reserve(64);
        assert_eq!(st, SOFTTIME_OFF, "softtime must be the first line of the region");
        NodeLayout {
            log_slots: (0..workers).map(|_| LogSlot::reserve(arena)).collect(),
            purge_lock: PurgeLock::reserve(arena),
            membership: MembershipJournal::reserve(arena),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_disjoint_and_ordered() {
        let mut arena = Arena::new(0, 1 << 20);
        let l = NodeLayout::reserve(&mut arena, 4);
        assert_eq!(l.log_slots.len(), 4);
        // Everything is carved from one bump arena, so disjointness is
        // the arena's; what is pinned here is the order and the slot
        // footprint (head line + 1 KiB lock-ahead + 16 KiB write-ahead).
        let mut again = Arena::new(0, 1 << 20);
        assert_eq!(again.reserve(64), SOFTTIME_OFF, "softtime line reserved first");
        for slot in &l.log_slots {
            assert_eq!(*slot, LogSlot::reserve(&mut again));
        }
        assert_eq!(again.reserve(0), 64 + 4 * (64 + (1 << 10) + (16 << 10)));
        assert!(arena.remaining() < again.remaining(), "the journals follow the log slots");
    }

    #[test]
    #[should_panic(expected = "softtime must be the first line")]
    fn rejects_offset_arenas() {
        let mut arena = Arena::new(128, 1 << 20);
        NodeLayout::reserve(&mut arena, 1);
    }
}
