//! The one wall clock. Leases, heartbeats and the dead-peer grace end
//! in wall time while every modelled cost goes to [`vtime`]; this
//! module is all of the library's wall side — [`now_us`] reads it,
//! [`wait`] spends it, [`every`] ticks on it — so one file is what a
//! virtual cluster clock (§6.1's softtime) has to replace.
//!
//! A pipelined-driver pool thread multiplexes the logical workers it
//! owns and must not *sleep* for one while the others wait for their
//! next slice: it marks itself with [`set_cooperative`] (per OS thread,
//! off by default), and [`wait`] then yields through the slice instead.

use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::vtime;

static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static COOPERATIVE: Cell<bool> = const { Cell::new(false) };
}

/// Wall-clock microseconds since the (lazily initialised) cluster epoch.
///
/// Starts at 1 000 000 so that 0 can mean "no lease" in the state word.
pub fn now_us() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    1_000_000 + epoch.elapsed().as_micros() as u64
}

/// Marks the current OS thread as (non-)cooperative.
pub fn set_cooperative(on: bool) {
    COOPERATIVE.with(|c| c.set(on));
}

/// Waits `slice` of wall time — a cooperative thread yielding, so a
/// sibling pool thread can run the peer it waits on, any other thread
/// sleeping — and charges exactly `slice` to [`vtime`]. The slice always
/// elapses, or a lease-expiry wait would be thousands of instant retries
/// that each charge a full slice.
pub fn wait(slice: Duration) {
    if COOPERATIVE.with(Cell::get) {
        let t0 = Instant::now();
        while t0.elapsed() < slice {
            std::thread::yield_now();
        }
    } else {
        std::thread::sleep(slice);
    }
    vtime::charge(slice.as_nanos() as u64);
}

/// The thread started by [`every`]. It parks on a condition variable,
/// not in a sleep, so dropping the handle stops and joins it at once
/// instead of waiting out a period.
#[derive(Debug)]
pub struct Ticker {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

/// Spawns the thread `name`, which calls `f` at the end of every
/// `period` until the returned [`Ticker`] is dropped.
pub fn every(name: &str, period: Duration, mut f: impl FnMut() + Send + 'static) -> Ticker {
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let shared = stop.clone();
    let body = move || {
        let (stop, cv) = &*shared;
        let mut stopped = stop.lock().expect("ticker lock poisoned");
        loop {
            let (guard, waited) =
                cv.wait_timeout_while(stopped, period, |s| !*s).expect("ticker lock poisoned");
            if !waited.timed_out() {
                return; // woken by the drop
            }
            stopped = guard;
            f();
        }
    };
    let thread = std::thread::Builder::new().name(name.into()).spawn(body);
    Ticker { stop, thread: Some(thread.expect("spawn ticker thread")) }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        let (stop, cv) = &*self.stop;
        *stop.lock().expect("ticker lock poisoned") = true;
        cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_and_nonzero() {
        let a = now_us();
        let b = now_us();
        assert!(a >= 1_000_000);
        assert!(b >= a);
    }

    #[test]
    fn drop_returns_well_under_the_interval() {
        // The ticker parks on a condvar; drop must not wait out a tick.
        let t = every("test-ticker", Duration::from_secs(30), || {});
        std::thread::sleep(Duration::from_millis(5));
        let t0 = Instant::now();
        drop(t);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "drop took {:?} against a 30 s interval",
            t0.elapsed()
        );
    }

    #[test]
    fn wait_lasts_its_slice_and_charges_exactly_it() {
        let slice = Duration::from_micros(300);
        let timed = move || {
            let t0 = Instant::now();
            let ((), charged) = vtime::measure(|| wait(slice));
            (t0.elapsed(), charged)
        };
        let (slept, charged) = timed();
        assert!(slept >= slice, "a sleeping wait returned after {slept:?}");
        assert_eq!(charged, 300_000);
        let cooperative = std::thread::spawn(move || {
            set_cooperative(true);
            timed()
        });
        let (yielded, charged) = cooperative.join().unwrap();
        assert!(yielded >= slice, "a cooperative wait returned after {yielded:?}");
        assert_eq!(charged, 300_000);
    }

    #[test]
    fn cooperative_is_off_by_default_and_per_thread() {
        let on = || COOPERATIVE.with(Cell::get);
        assert!(!on());
        set_cooperative(true);
        assert!(on());
        std::thread::spawn(move || assert!(!on())).join().unwrap();
        set_cooperative(false);
        assert!(!on());
    }
}
