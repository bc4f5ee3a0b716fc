//! Figure 10(d): impact of location-cache size on throughput.
//!
//! DrTM-KV/$ with cache budgets swept over a log scale, cold and warm,
//! uniform and Zipf θ=0.99. Budgets are scaled to this reproduction's
//! key count the same way the paper's 20–320 MB covers 20 M keys (a
//! 320 MB cache holds every location).

use drtm_bench::kv::{KvBench, KvSystem};
use drtm_bench::ledger::{quiet, text, tput, Kind, Ledger};
use drtm_bench::scaled;
use drtm_workloads::dist::KeyDist;

fn main() {
    let mut ledger = Ledger::new("fig10d_cache_size", "cache size vs throughput (64 B values)");
    let wall = std::time::Instant::now();
    let keys = scaled(100_000, 10_000);
    let per_thread = scaled(4_000, 500);
    // Full-cache budget: enough for the table's (power-of-two rounded)
    // main-header array after the cache's 80/20 main/pool split.
    let buckets = ((keys as f64 / 0.75).ceil() as usize / 8).next_power_of_two();
    let full = buckets * 160 * 5 / 4 * 11 / 10;
    let budgets = [full / 16, full / 8, full / 4, full / 2, full];
    ledger.row(
        per_thread,
        ["cache", "uniform/cold", "uniform/warm", "zipf/cold", "zipf/warm"].map(text),
    );
    let mut uniform_small = 0.0;
    let mut uniform_full = 0.0;
    let mut zipf_small = 0.0;
    let mut full_warm_stats = drtm_memstore::CacheStats::default();
    for &budget in &budgets {
        let kb = budget >> 10;
        let mut cells = vec![text(format!("{kb}KB"))];
        for (dname, dist) in
            [("uniform", KeyDist::uniform(keys)), ("zipf", KeyDist::zipf(keys, 0.99))]
        {
            for warm in [false, true] {
                let b = KvBench::build(KvSystem::DrtmKvCache { budget, warm }, keys, 64, 0.75);
                let run = b.run(5, 8, per_thread, &dist);
                let stats = b.cache_stats();
                let point = format!("{dname}_{}_{kb}kb", if warm { "warm" } else { "cold" });
                // The paper's one quoted cell: skew keeps ~19 Mops at the smallest cache.
                let paper = (budget == budgets[0] && dname == "zipf" && warm).then_some(19.0);
                cells.push(tput(format!("{point}_mops"), run.throughput).paper(paper));
                cells.push(quiet(format!("{point}_hit_rate"), Kind::Count, stats.hit_rate()));
                if budget == budgets[0] && dname == "uniform" && warm {
                    uniform_small = run.throughput;
                }
                if budget == full && dname == "uniform" && warm {
                    uniform_full = run.throughput;
                    full_warm_stats = stats;
                }
                if budget == budgets[0] && dname == "zipf" && warm {
                    zipf_small = run.throughput;
                }
            }
        }
        ledger.row(per_thread, cells);
    }
    println!(
        "cache counters @ full/warm/uniform: {} hits, {} misses, {} fetches, {} invalidations \
         (hit rate {:.3})",
        full_warm_stats.hits,
        full_warm_stats.misses,
        full_warm_stats.fetches,
        full_warm_stats.invalidations,
        full_warm_stats.hit_rate()
    );
    assert!(
        uniform_full > uniform_small,
        "uniform workload must benefit from a bigger cache ({uniform_small} -> {uniform_full})"
    );
    assert!(
        zipf_small > uniform_small,
        "skew is cache-friendly: zipf must beat uniform at small budgets"
    );
    println!("(paper: skewed workload retains ~19 Mops at the smallest cache; uniform drops)");
    ledger.row(per_thread, [quiet("wall_s", Kind::Host, wall.elapsed().as_secs_f64())]);
    ledger.write();
}
