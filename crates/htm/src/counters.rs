//! The one counter primitive every layer's statistics are declared with.
//!
//! A counter *set* is a struct of [`Counter`]s and a plain `Copy`
//! snapshot struct with the same field names that readers take, diff and
//! fold. [`counter_set!`](crate::counter_set) turns one documented field
//! list into both, so a counter is one line to add and cannot be left
//! out of `snapshot`, `since` or `merge`.
//!
//! A counter is sharded per thread: [`NSHARDS`] relaxed atomic cells,
//! each on a cache line of its own. A thread adds to the cell its
//! [`shard_id`] names and reading sums the cells, so threads that count
//! the same event at the same time write no shared cache line. The price
//! is memory: `NSHARDS` × 64 B = 512 B per counter.
//!
//! Three rules hold for every set in the workspace:
//!
//! * **snapshot and diff only** — counters are monotonic and never
//!   zeroed; a measured window is `after.since(&before)`;
//! * **one counter per event** — an event is counted into one set, at
//!   one call site;
//! * **derived ratios are methods** on the snapshot (`abort_rate`,
//!   `hit_rate`, ...), hand-written next to the declaration.
//!
//! Counting charges no virtual time.
//!
//! # Examples
//!
//! ```
//! drtm_htm::counter_set! {
//!     /// Shared cells.
//!     pub struct Io;
//!     /// A copy of [`Io`].
//!     pub struct IoSnapshot {
//!         /// Requests served.
//!         pub requests,
//!         /// Bytes carried by them.
//!         pub bytes,
//!     }
//! }
//!
//! let io = Io::default();
//! let before = io.snapshot();
//! io.requests.inc();
//! io.bytes.add(64);
//! let window = io.snapshot().since(&before);
//! assert_eq!(window, IoSnapshot { requests: 1, bytes: 64 });
//! assert_eq!(window.merge(&window), IoSnapshot { requests: 2, bytes: 128 });
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of per-thread shards of a [`Counter`] and of an entry pool's
/// free list (a power of two). Threads spread across them round-robin,
/// so up to this many count and allocate with no shared cache line.
pub const NSHARDS: usize = 8;

/// The calling thread's shard, in `0..NSHARDS`: threads enumerate
/// themselves on first use and keep their shard for life. The one
/// thread-shard index of the workspace.
#[inline]
pub fn shard_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (NSHARDS - 1);
    }
    SHARD.with(|s| *s)
}

/// One shard's cell, alone on its cache line.
#[derive(Default)]
#[repr(align(64))]
struct Shard(AtomicU64);

/// One monotonic event counter, sharded per thread (see the
/// [module docs](self)). Every access is `Relaxed`: a counter publishes
/// no other data.
#[derive(Default)]
pub struct Counter([Shard; NSHARDS]);

impl Counter {
    /// Counts one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Counts `n` events (or `n` bytes, nanoseconds, ...) into the
    /// calling thread's cell. Adding 0 changes nothing, so it skips the
    /// locked read-modify-write (a phase line with nothing to charge).
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0[shard_id()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count: the sum of the cells. Each cell only grows and
    /// one reader sees each cell's values in order, so a later `get` on
    /// the same thread never returns less.
    pub fn get(&self) -> u64 {
        self.0.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// `N` counters addressed by a dense index (an abort cause, a phase);
/// its snapshot is a plain `[u64; N]`.
#[derive(Debug)]
pub struct CounterArray<const N: usize>([Counter; N]);

impl<const N: usize> Default for CounterArray<N> {
    fn default() -> Self {
        CounterArray(std::array::from_fn(|_| Counter::default()))
    }
}

impl<const N: usize> CounterArray<N> {
    /// Counts one event of kind `i`.
    #[inline]
    pub fn inc(&self, i: usize) {
        self.0[i].inc();
    }

    /// Copies every count.
    pub fn snapshot(&self) -> [u64; N] {
        std::array::from_fn(|i| self.0[i].get())
    }

    /// Index-wise `later - earlier` of two snapshots.
    pub fn since(later: &[u64; N], earlier: &[u64; N]) -> [u64; N] {
        std::array::from_fn(|i| later[i] - earlier[i])
    }
}

/// Declares a counter set: the shared struct of [`Counter`] cells (with
/// `Debug + Default` and `snapshot()`) and its snapshot struct of public
/// `u64` fields (with `Debug + Clone + Copy + Default + PartialEq + Eq`,
/// `since(&earlier)` and `merge(&other)`), from one documented field
/// list. The visibility before a field name is the *cell's*; see the
/// [module docs](crate::counters) for an example and the rules sets follow.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$cells_meta:meta])*
        $cells_vis:vis struct $Cells:ident;
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $Snap:ident {
            $( $(#[$field_meta:meta])* $field_vis:vis $field:ident ),+ $(,)?
        }
    ) => {
        $(#[$cells_meta])*
        #[derive(Debug, Default)]
        $cells_vis struct $Cells {
            $( $(#[$field_meta])* $field_vis $field: $crate::counters::Counter, )+
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $Snap {
            $( $(#[$field_meta])* pub $field: u64, )+
        }

        impl $Cells {
            /// Copies every counter (each load is relaxed; the copy is
            /// not one atomic cut across fields).
            $cells_vis fn snapshot(&self) -> $Snap {
                $Snap { $( $field: self.$field.get(), )+ }
            }
        }

        impl $Snap {
            /// Field-wise `self - earlier`: what a window counted.
            $snap_vis fn since(&self, earlier: &$Snap) -> $Snap {
                $Snap { $( $field: self.$field - earlier.$field, )+ }
            }

            /// Field-wise `self + other`: folds the sets of several
            /// instances into one.
            $snap_vis fn merge(&self, other: &$Snap) -> $Snap {
                $Snap { $( $field: self.$field + other.$field, )+ }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_set! {
        /// Cells under test.
        struct Cells;
        /// Their copy.
        struct Snap {
            /// First.
            a,
            /// Second.
            pub b,
            /// Third.
            pub(crate) c,
        }
    }

    #[test]
    fn every_field_appears_in_snapshot_since_and_merge() {
        let cells = Cells::default();
        assert_eq!(cells.snapshot(), Snap::default());
        cells.a.inc();
        cells.b.add(20);
        cells.c.add(300);
        let first = cells.snapshot();
        assert_eq!(first, Snap { a: 1, b: 20, c: 300 });
        cells.a.add(4);
        cells.b.inc();
        cells.c.add(7);
        let second = cells.snapshot();
        assert_eq!(second.since(&first), Snap { a: 4, b: 1, c: 7 });
        assert_eq!(second.since(&second), Snap::default());
        assert_eq!(first.merge(&second), Snap { a: 6, b: 41, c: 607 });
        assert_eq!(first.merge(&Snap::default()), first);
    }

    #[test]
    fn array_counts_by_index_and_diffs() {
        let arr = CounterArray::<3>::default();
        arr.inc(0);
        arr.inc(2);
        arr.inc(2);
        let first = arr.snapshot();
        assert_eq!(first, [1, 0, 2]);
        arr.inc(1);
        arr.inc(2);
        let window = CounterArray::since(&arr.snapshot(), &first);
        assert_eq!(window, [0, 1, 1]);
        assert_eq!(window.iter().sum::<u64>(), 2);
    }

    #[test]
    fn concurrent_inc_loses_nothing() {
        let cells = Cells::default();
        let arr = CounterArray::<2>::default();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (cells, arr, start) = (&cells, &arr, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..10_000 {
                        cells.a.inc();
                        cells.b.add(2);
                        arr.inc(t % 2);
                    }
                });
            }
        });
        assert_eq!(cells.snapshot(), Snap { a: 40_000, b: 80_000, c: 0 });
        assert_eq!(arr.snapshot(), [20_000, 20_000]);
    }

    #[test]
    fn four_threads_counting_one_counter_sum_exactly() {
        let counter = Counter::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..100_000).for_each(|_| counter.inc()));
            }
        });
        assert_eq!(counter.get(), 400_000);
    }

    #[test]
    fn a_window_taken_while_two_threads_count_never_underflows() {
        let cells = Cells::default();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let counters: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..100_000 {
                            cells.a.inc();
                            cells.b.add(3);
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                start.wait();
                // `since` subtracts field by field and panics on an
                // underflow in a test build.
                let mut last = cells.snapshot();
                while !done.load(Ordering::Relaxed) {
                    let now = cells.snapshot();
                    let window = now.since(&last);
                    assert!(window.a <= 200_000 && window.b <= 600_000);
                    last = now;
                }
            });
            counters.into_iter().for_each(|t| t.join().unwrap());
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(cells.snapshot(), Snap { a: 200_000, b: 600_000, c: 0 });
    }

    #[test]
    fn two_threads_enumerated_one_after_the_other_get_different_shards() {
        let first = std::thread::spawn(shard_id).join().unwrap();
        let second = std::thread::spawn(shard_id).join().unwrap();
        assert!(first < NSHARDS && second < NSHARDS);
        assert_ne!(first, second);
        // A thread keeps its shard.
        assert_eq!(shard_id(), shard_id());
    }
}
