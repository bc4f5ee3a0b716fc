//! The per-record lock/lease state word (Figure 4).
//!
//! DrTM packs the exclusive (write) lock and the lease-based shared
//! (read) lock into the single 64-bit word at the head of every entry:
//!
//! ```text
//! bit 0      write lock (LOCKED / UNLOCKED)
//! bits 1-8   owner machine id (for recovery, §4.6)
//! bits 9-63  read-lease end time (55 bits, microseconds)
//! ```
//!
//! The word is only ever *written* by one-sided RDMA CAS (lock/lease
//! acquisition) and one-sided WRITE (release); local transactions only
//! *read* it, which is what keeps local checks coherent with remote
//! locking on an `IBV_ATOMIC_HCA`-level NIC (§4.2).
//!
//! # The lease uncertainty window (§4.3)
//!
//! Machine clocks are synchronized only to within a bound `delta`
//! (PTP-derived in the paper), so a lease ending at `end` is handled
//! conservatively from both sides:
//!
//! ```text
//!            VALID            |  ambiguous  |        EXPIRED
//!   ─────────────────────────┼──────┬──────┼──────────────────────▶ now
//!                        end−delta  end  end+delta
//! ```
//!
//! * a **reader** may rely on the lease only while `now + delta <= end`
//!   ([`LockState::lease_valid`]): even if its clock runs `delta` fast,
//!   true time is still before `end`;
//! * a **writer** may reclaim only once `now > end + delta`
//!   ([`LockState::lease_expired`]): even if its clock runs `delta`
//!   slow, true time is already past `end`.
//!
//! Inside `(end − delta, end + delta]` the lease is *neither* — unusable
//! by readers and unreclaimable by writers. The two predicates can thus
//! never both hold for clocks within skew `delta`, which is the safety
//! property serializability rests on. The boundaries are deliberately
//! asymmetric — `lease_valid` is inclusive at `now + delta == end`
//! (true time is still `<= end`, the instant the lease covers), while
//! `lease_expired` is strict at `now == end + delta` (true time may
//! equal `end` exactly, which the lease still covers) — and this costs
//! writers nothing: `end` is fixed while softtime advances, so a writer
//! waiting out the window makes progress after at most
//! `2·delta` + one timer tick (no livelock; see the boundary tests).

/// The clock-skew bound δ every lease decision of the protocol passes
/// to [`LockState::lease_valid`] / [`LockState::lease_expired`], in µs.
/// δ stands for the clock synchronisation PTP gives, 50 µs precision
/// (§4.3, §6.1); 100 µs is twice that, and a tenth of the default
/// `DrTmConfig::lease_us`. The predicates keep δ as an argument so that
/// tests and Table 2 can sweep it.
pub const DELTA_US: u64 = 100;

/// Decoded view of the state word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockState(pub u64);

/// The unlocked, un-leased initial state.
pub const INIT: u64 = 0;

impl LockState {
    /// Builds an exclusive-lock word owned by machine `owner`.
    pub fn write_locked(owner: u8) -> LockState {
        LockState(1 | (owner as u64) << 1)
    }

    /// Builds a shared-lease word ending at `end_us` (µs since the
    /// cluster epoch).
    pub fn leased(end_us: u64) -> LockState {
        debug_assert!(end_us < 1 << 55, "lease end overflows 55 bits");
        LockState(end_us << 9)
    }

    /// True if the exclusive lock bit is set.
    pub fn is_write_locked(&self) -> bool {
        self.0 & 1 != 0
    }

    /// Owner machine id of the exclusive lock (meaningful only when
    /// [`LockState::is_write_locked`]).
    pub fn owner(&self) -> u8 {
        (self.0 >> 1) as u8
    }

    /// Lease end time in µs (meaningful only when not write-locked).
    pub fn lease_end_us(&self) -> u64 {
        self.0 >> 9
    }

    /// True if the word is the INIT state.
    pub fn is_init(&self) -> bool {
        self.0 == INIT
    }

    /// True if a lease exists and has not expired at `now_us`, with
    /// clock-skew tolerance `delta_us` (the paper's `VALID`).
    ///
    /// Inclusive at the boundary: `now + delta == end` is still valid —
    /// a clock up to `delta` fast puts true time at most at `end`, the
    /// last instant the lease covers (see the module docs).
    pub fn lease_valid(&self, now_us: u64, delta_us: u64) -> bool {
        !self.is_write_locked()
            && self.lease_end_us() != 0
            && now_us + delta_us <= self.lease_end_us()
    }

    /// True if a lease exists but has expired at `now_us` (the paper's
    /// `EXPIRED`): safe for a writer to reclaim.
    ///
    /// Strict at the boundary: `now == end + delta` is *not* yet
    /// expired — a clock up to `delta` slow puts true time exactly at
    /// `end`, which the lease still covers (see the module docs).
    pub fn lease_expired(&self, now_us: u64, delta_us: u64) -> bool {
        !self.is_write_locked()
            && self.lease_end_us() != 0
            && now_us > self.lease_end_us() + delta_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_neither_locked_nor_leased() {
        let s = LockState(INIT);
        assert!(s.is_init());
        assert!(!s.is_write_locked());
        assert!(!s.lease_valid(100, 10));
        assert!(!s.lease_expired(100, 10));
    }

    #[test]
    fn write_lock_carries_owner() {
        let s = LockState::write_locked(42);
        assert!(s.is_write_locked());
        assert_eq!(s.owner(), 42);
        assert!(!s.lease_valid(0, 0));
    }

    #[test]
    fn lease_validity_window() {
        let s = LockState::leased(1000);
        assert_eq!(s.lease_end_us(), 1000);
        assert!(s.lease_valid(500, 50));
        assert!(s.lease_valid(950, 50)); // 950 + 50 <= 1000
        assert!(!s.lease_valid(951, 50)); // within delta of the edge
        assert!(!s.lease_expired(1040, 50)); // grace period
        assert!(s.lease_expired(1051, 50));
    }

    #[test]
    fn boundary_at_end_minus_delta_is_the_last_valid_instant() {
        // now = end − delta: inclusive on the valid side — a clock delta
        // fast still puts true time at most at end.
        let s = LockState::leased(1000);
        assert!(s.lease_valid(950, 50));
        assert!(!s.lease_expired(950, 50));
        // One microsecond later the ambiguity window begins.
        assert!(!s.lease_valid(951, 50));
        assert!(!s.lease_expired(951, 50));
    }

    #[test]
    fn boundary_at_end_is_ambiguous_from_both_sides() {
        // now = end: too late for readers (their clock may be slow),
        // too early for writers (their clock may be fast).
        let s = LockState::leased(1000);
        assert!(!s.lease_valid(1000, 50));
        assert!(!s.lease_expired(1000, 50));
    }

    #[test]
    fn boundary_at_end_plus_delta_is_the_last_unreclaimable_instant() {
        // now = end + delta: strict on the expired side — a clock delta
        // slow puts true time exactly at end, which the lease covers.
        let s = LockState::leased(1000);
        assert!(!s.lease_valid(1050, 50));
        assert!(!s.lease_expired(1050, 50));
        // One microsecond later the writer may reclaim.
        assert!(s.lease_expired(1051, 50));
        assert!(!s.lease_valid(1051, 50));
    }

    #[test]
    fn valid_and_expired_never_overlap_within_skew() {
        // Safety: no pair of clocks within ±delta can see the lease as
        // valid (reader) and expired (writer) at the same true time.
        // Writer progress: for any end, expired eventually holds.
        let s = LockState::leased(1000);
        const DELTA: u64 = 50;
        for reader_now in 0..1200u64 {
            for skew in 0..=2 * DELTA {
                let writer_now = reader_now + skew; // clocks ≤ 2δ apart
                assert!(
                    !(s.lease_valid(reader_now, DELTA) && s.lease_expired(writer_now, DELTA)),
                    "overlap at reader={reader_now} writer={writer_now}"
                );
            }
        }
        assert!(s.lease_expired(1000 + 2 * DELTA + 1, DELTA), "writer makes progress");
    }

    #[test]
    fn ambiguous_window_is_neither_valid_nor_expired() {
        // Between end-delta and end+delta the lease is conservatively
        // unusable for readers *and* unreclaimable by writers.
        let s = LockState::leased(1000);
        assert!(!s.lease_valid(1000, 50));
        assert!(!s.lease_expired(1000, 50));
    }

    #[test]
    fn roundtrip_via_raw_word() {
        let s = LockState::leased(123_456);
        let raw = s.0;
        assert_eq!(LockState(raw).lease_end_us(), 123_456);
        let w = LockState::write_locked(7);
        assert_eq!(LockState(w.0), w);
    }

    #[test]
    fn max_owner_id_fits() {
        let s = LockState::write_locked(255);
        assert_eq!(s.owner(), 255);
        assert!(s.is_write_locked());
        assert_eq!(s.lease_end_us() & !((1 << 46) - 1), 0, "owner bits must not leak into lease");
    }
}
