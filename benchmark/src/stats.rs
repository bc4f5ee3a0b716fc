//! The benchmark's arithmetic: medians over repetitions, latency
//! percentiles with the "ten samples beyond" rule, the virtual-time
//! throughput formula, and the comparators the A/A check uses.

/// Midpoint median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median, minimum and maximum of per-repetition values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// A latency distribution in whole nanoseconds, as ascending
/// `(ns, count)` bins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dist {
    bins: Vec<(u64, u64)>,
    count: u64,
}

impl Dist {
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> Dist {
        let mut s: Vec<u64> = samples.into_iter().collect();
        s.sort_unstable();
        Dist::coalesce(s.into_iter().map(|ns| (ns, 1)))
    }

    /// From a dense histogram whose index is the latency in ns.
    pub fn from_counts(counts: &[u32]) -> Dist {
        Dist::coalesce(
            counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(ns, &c)| (ns as u64, c as u64)),
        )
    }

    /// Pools several distributions (the five repetitions of a run).
    pub fn merge<'a>(dists: impl IntoIterator<Item = &'a Dist>) -> Dist {
        let mut all: Vec<(u64, u64)> =
            dists.into_iter().flat_map(|d| d.bins.iter().copied()).collect();
        all.sort_unstable();
        Dist::coalesce(all.into_iter())
    }

    /// Adds up the counts of equal `ns` in ascending `(ns, count)` pairs.
    fn coalesce(ascending: impl Iterator<Item = (u64, u64)>) -> Dist {
        let mut bins: Vec<(u64, u64)> = Vec::new();
        for (ns, c) in ascending {
            match bins.last_mut() {
                Some((v, n)) if *v == ns => *n += c,
                _ => bins.push((ns, c)),
            }
        }
        let count = bins.iter().map(|b| b.1).sum();
        Dist { bins, count }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q` quantile in ns, or an error when fewer than ten samples
    /// lie beyond it (a percentile read off a handful of samples is one
    /// sample's luck, not a property of the system).
    pub fn percentile_ns(&self, q: f64) -> Result<f64, String> {
        // Whole samples at or below the quantile; the epsilon keeps
        // 0.9 x 100 from rounding up to 91.
        let within = (q * self.count as f64 - 1e-9).ceil() as u64;
        let beyond = self.count.saturating_sub(within);
        if beyond < 10 {
            return Err(format!(
                "p{} needs ten samples beyond it: {} samples leave {beyond}",
                q * 100.0,
                self.count
            ));
        }
        Ok(self.quantile_ns(q))
    }

    /// The `q` quantile in ns, whatever the sample count (`--quick`).
    ///
    /// Virtual latencies are whole nanoseconds and many transactions
    /// cost exactly the same, so the quantile is interpolated inside the
    /// bin it falls in (the grouped-data rule: a bin at `v` ns covers
    /// `[v - 0.5, v + 0.5)`). A shift of mass at the tie therefore shows
    /// in the digits instead of hiding until it crosses a whole bin.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile out of range");
        assert!(self.count > 0, "quantile of no samples");
        let target = q * self.count as f64;
        let mut below = 0u64;
        for &(ns, c) in &self.bins {
            if (below + c) as f64 >= target {
                return ns as f64 - 0.5 + (target - below as f64) / c as f64;
            }
            below += c;
        }
        unreachable!("target {target} lies within {} samples", self.count)
    }
}

/// Committed operations per second of virtual time, counting *all* the
/// virtual time the workers spent: `committed / (mean worker vtime)`
/// scaled by the number of workers running concurrently in virtual time.
/// (`Report::throughput()` takes the median worker instead, which hides
/// exactly the lease-wait tails this benchmark must show.)
pub fn vt_tput(committed: u64, workers: usize, sum_vtime_ns: u64) -> f64 {
    if sum_vtime_ns == 0 {
        return 0.0;
    }
    committed as f64 * workers as f64 * 1e9 / sum_vtime_ns as f64
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Result<Better, String> {
        match s {
            "higher" => Ok(Better::Higher),
            "lower" => Ok(Better::Lower),
            other => Err(format!("better must be higher or lower, not {other:?}")),
        }
    }
}

/// The share of `base` by which `new` is worse (negative when better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// The regression rule: `new` may be worse than `base` by at most
/// `bound` of `base`.
pub fn within_bound(better: Better, base: f64, new: f64, bound: f64) -> bool {
    worsening(better, base, new) <= bound
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) — the spread the benchmark contract uses.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    assert!(n >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quartile(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_over_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = summarize(&[5.0, 9.0, 1.0, 7.0, 3.0]);
        assert_eq!(s, Summary { median: 5.0, min: 1.0, max: 9.0 });
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 10 000 samples: p999 has exactly ten beyond it; 9 999 do not.
        let ok = Dist::from_samples(0..10_000);
        assert!(ok.percentile_ns(0.999).is_ok());
        let short = Dist::from_samples(0..9_999);
        assert!(short.percentile_ns(0.999).is_err());
        assert!(short.percentile_ns(0.99).is_ok());
        assert!(Dist::from_samples(0..19).percentile_ns(0.5).is_err());
        assert!(Dist::from_samples(0..20).percentile_ns(0.5).is_ok());
    }

    #[test]
    fn percentile_interpolates_inside_a_tie() {
        // 1..=100 once each: the median sits on the upper edge of bin 50.
        let d = Dist::from_samples(1..=100);
        assert_eq!(d.percentile_ns(0.5).unwrap(), 50.5);
        // 60 samples at 10 ns and 40 at 20 ns: p50 is 5/6 through the
        // 10 ns bin, and p90 is 3/4 through the 20 ns bin.
        let d = Dist::from_samples([10; 60].into_iter().chain([20; 40]));
        assert!((d.percentile_ns(0.5).unwrap() - (9.5 + 50.0 / 60.0)).abs() < 1e-12);
        assert!((d.percentile_ns(0.9).unwrap() - (19.5 + 30.0 / 40.0)).abs() < 1e-12);
    }

    #[test]
    fn merge_pools_samples_and_dense_counts_agree() {
        let a = Dist::from_samples([5, 5, 7]);
        let mut counts = vec![0u32; 10];
        counts[5] = 1;
        counts[9] = 2;
        let b = Dist::from_counts(&counts);
        let m = Dist::merge([&a, &b]);
        assert_eq!(m, Dist::from_samples([5, 5, 5, 7, 9, 9]));
        assert_eq!(m.count(), 6);
    }

    #[test]
    fn vt_tput_counts_all_virtual_time() {
        // 4 workers, 10 txns each; three spend 10 µs, one 70 µs waiting.
        // Mean per-txn time is 2.5 µs, so 4 workers give 1.6 M txn/s —
        // the median-worker formula would claim 4 M.
        assert_eq!(vt_tput(40, 4, 100_000), 1.6e6);
        assert_eq!(vt_tput(40, 4, 0), 0.0);
    }

    #[test]
    fn bound_comparator_respects_direction() {
        assert!(within_bound(Better::Lower, 100.0, 107.9, 0.08));
        assert!(!within_bound(Better::Lower, 100.0, 108.1, 0.08));
        assert!(within_bound(Better::Lower, 100.0, 50.0, 0.08));
        assert!(within_bound(Better::Higher, 100.0, 97.1, 0.03));
        assert!(!within_bound(Better::Higher, 100.0, 96.9, 0.03));
        assert!(within_bound(Better::Higher, 100.0, 150.0, 0.03));
        assert!((worsening(Better::Higher, 200.0, 190.0) - 0.05).abs() < 1e-12);
        assert_eq!(Better::parse("lower"), Ok(Better::Lower));
        assert!(Better::parse("faster").is_err());
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5].
        assert!((quartile_spread(&[20.0, 10.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0, 3.0]), 0.0);
    }
}
