//! Per-thread virtual-time meter.
//!
//! The benchmark harnesses in this reproduction measure throughput in
//! *virtual* time: every simulated hardware operation (HTM access, HTM
//! commit, RDMA READ/WRITE/CAS, verbs round trip, log flush) charges its
//! modelled latency to a thread-local accumulator, and a worker's elapsed
//! time is the sum of its charges. This makes scaling curves independent
//! of how many physical cores the host happens to have — which is the
//! only way to reproduce the *shape* of a 6-machine × 8-worker cluster
//! experiment on a small build box.
//!
//! The meter is always on; charging is a thread-local add (< 1 ns), so it
//! does not perturb functional tests.

use std::cell::Cell;

thread_local! {
    static METER: Cell<u64> = const { Cell::new(0) };
}

/// Adds `ns` virtual nanoseconds to the current thread's meter.
#[inline]
pub fn charge(ns: u64) {
    METER.with(|m| m.set(m.get().wrapping_add(ns)));
}

/// Returns the current thread's accumulated virtual nanoseconds.
#[inline]
pub fn read() -> u64 {
    METER.with(|m| m.get())
}

/// Returns and resets the current thread's meter.
#[inline]
pub fn take() -> u64 {
    METER.with(|m| m.replace(0))
}

/// Runs `f` and returns its result together with the virtual nanoseconds
/// charged while it ran (the surrounding accumulation is preserved).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = read();
    let out = f();
    (out, read() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_read_take() {
        take();
        charge(5);
        charge(7);
        assert_eq!(read(), 12);
        assert_eq!(take(), 12);
        assert_eq!(read(), 0);
    }

    #[test]
    fn measure_is_scoped() {
        take();
        charge(3);
        let ((), inner) = measure(|| charge(10));
        assert_eq!(inner, 10);
        assert_eq!(read(), 13);
    }

    #[test]
    fn meters_are_per_thread() {
        take();
        charge(100);
        let other = std::thread::spawn(|| {
            charge(1);
            read()
        })
        .join()
        .unwrap();
        assert_eq!(other, 1);
        assert_eq!(read(), 100);
    }
}
