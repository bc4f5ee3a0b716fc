//! Bounded exponential backoff for host-side retry loops.
//!
//! The simulation runs many more logical workers than the host has
//! cores, so a retry loop that spins or bare-`yield`s can starve the
//! very peer it is waiting for. Every commit-retry loop in the workspace
//! uses this helper: it spins briefly (doubling up to a fixed bound, so
//! an unlucky thread never busy-waits unboundedly), and yields the OS
//! thread once the spin budget is spent — preserving the
//! oversubscription-hygiene rule of DESIGN.md §4 while decorrelating
//! retry timing between symmetric contenders.

/// Exponential spin-then-yield backoff. Create one per retry loop and
/// call [`Backoff::snooze`] after each failed attempt. It reads and
/// waits on no wall time — that is [`crate::clock`]'s — so a loop that
/// may be waiting on a dead peer bounds itself (against
/// `drtm_rdma::rpc::DEAD_PEER_GRACE` on [`crate::clock::now_us`]); the
/// backoff only paces it.
#[derive(Debug, Default)]
pub struct Backoff {
    attempt: u32,
}

/// Spins double each retry until `1 << MAX_SHIFT` iterations (the
/// bound of "bounded exponential").
const MAX_SHIFT: u32 = 9;

/// Attempts that spin without yielding (a conflicting peer on another
/// core usually finishes within a few hundred cycles).
const SPIN_ONLY: u32 = 3;

impl Backoff {
    /// A fresh backoff (first snooze is the shortest).
    pub fn new() -> Self {
        Backoff::default()
    }

    /// Waits an exponentially growing, bounded amount: spin for
    /// `2^min(attempt, MAX_SHIFT)` iterations, and from the fourth
    /// attempt on also yield the OS thread so a descheduled peer can
    /// run (oversubscription hygiene).
    pub fn snooze(&mut self) {
        let spins = 1u32 << self.attempt.min(MAX_SHIFT);
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        if self.attempt >= SPIN_ONLY {
            std::thread::yield_now();
        }
        self.attempt = self.attempt.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snooze_grows_and_is_bounded() {
        let mut b = Backoff::new();
        for _ in 0..64 {
            b.snooze();
        }
        assert_eq!(b.attempt, 64);
        // A bounded snooze at high attempt counts must return promptly.
        let t0 = std::time::Instant::now();
        b.snooze();
        assert!(t0.elapsed() < std::time::Duration::from_millis(100));
    }
}
