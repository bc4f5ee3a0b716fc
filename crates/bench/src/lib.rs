//! Shared infrastructure for the paper-reproduction benchmark harnesses.
//!
//! Every table and figure of the paper's evaluation has one bench target
//! under `benches/` (registered with `harness = false`) that prints the
//! same rows/series the paper reports. `cargo bench -p drtm-bench`
//! regenerates everything; set `DRTM_SCALE` (default 1.0) to trade
//! precision for runtime (EXPERIMENTS.md was produced with the default).
//!
//! The two state-of-the-art RDMA-friendly tables DrTM's cluster chaining
//! is compared with (Table 4, Figure 10) live here too, as they serve
//! no one but [`kv`]: Pilaf's 3-way Cuckoo hashing ([`cuckoo`]) and
//! FaRM-KV's Hopscotch hashing ([`hopscotch`]).

pub mod cuckoo;
pub mod hopscotch;
pub mod kv;
pub mod ledger;
pub mod runners;

/// Global effort multiplier from `DRTM_SCALE`.
pub fn scale() -> f64 {
    std::env::var("DRTM_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Scales an iteration count, keeping at least `min`.
pub fn scaled(base: u64, min: u64) -> u64 {
    ((base as f64 * scale()) as u64).max(min)
}

/// Prints a benchmark banner.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Prints one aligned row.
pub fn row(cols: &[String]) {
    let mut line = String::new();
    for c in cols {
        line.push_str(&format!("{c:>14} "));
    }
    println!("{line}");
}

/// Formats a float with sensible precision.
pub fn f(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

/// Formats a throughput in M ops (or txns) per second.
pub fn mops(x: f64) -> String {
    format!("{:.3}", x / 1e6)
}

/// Prints a run's joined diagnostics report (abort-cause and per-phase
/// breakdown alongside the throughput rows), indented under a label.
pub fn diagnostics(label: &str, report: &drtm_core::StatsReport) {
    println!("-- diagnostics: {label} --");
    for line in report.to_string().lines() {
        println!("  {line}");
    }
}

/// The same report as ledger cells no table shows: RDMA verbs per
/// committed transaction and every abort cause — zeros included, so the
/// set of rows does not depend on which causes happened to fire.
pub fn stats_cells(diag: &drtm_core::StatsReport) -> Vec<ledger::Cell> {
    use ledger::{quiet, Kind};
    let verbs = diag.rdma.reads + diag.rdma.writes + diag.rdma.cas + diag.rdma.sends;
    let per_txn = verbs as f64 / diag.txn.committed.max(1) as f64;
    let causes = drtm_core::CAUSE_NAMES
        .iter()
        .zip(diag.causes.counts)
        .map(|(name, n)| quiet(format!("aborts_{name}"), Kind::Count, n as f64));
    std::iter::once(quiet("rdma_ops_per_txn", Kind::Count, per_txn)).chain(causes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_has_floor() {
        assert!(scaled(100, 10) >= 10);
    }

    #[test]
    fn formatting() {
        assert_eq!(f(123.456), "123");
        assert_eq!(f(1.234), "1.23");
        assert_eq!(f(0.1234), "0.123");
        assert_eq!(mops(2_500_000.0), "2.500");
    }
}
