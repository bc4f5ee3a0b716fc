//! Table 4: average RDMA READs per lookup at different occupancies.
//!
//! Compares Cuckoo (Pilaf), Hopscotch (FaRM-KV) and Cluster chaining
//! (DrTM-KV) hash tables without caching, under uniform and Zipf θ=0.99
//! key distributions, at 50/75/90 % slot occupancy.

use drtm_bench::kv::{KvBench, KvSystem};
use drtm_bench::ledger::{cell, text, Kind, Ledger};
use drtm_bench::{f, scaled};
use drtm_workloads::dist::KeyDist;

fn avg_reads(system: KvSystem, keys: u64, occ: f64, dist: &KeyDist, per_thread: u64) -> f64 {
    let b = KvBench::build(system, keys, 64, occ);
    let run = b.run(2, 1, per_thread, dist);
    run.lookup_reads as f64 / run.gets as f64
}

fn main() {
    let mut ledger =
        Ledger::new("tab4_lookup_reads", "average RDMA READs for lookups at different occupancies");
    let per_thread = scaled(20_000, 2_000);
    // Fix the slot count to a power of two (table sizes round to powers
    // of two) and vary the key count, so occupancy is exact.
    let slots = (scaled(262_144, 32_768) as u64).next_power_of_two();
    ledger.row(per_thread, ["dist", "occupancy", "Cuckoo", "Hopscotch", "Cluster"].map(text));
    for dname in ["uniform", "zipf"] {
        for occ in [0.5, 0.75, 0.9] {
            let keys = (slots as f64 * occ) as u64;
            let dist =
                if dname == "uniform" { KeyDist::uniform(keys) } else { KeyDist::zipf(keys, 0.99) };
            let cuckoo = avg_reads(KvSystem::Pilaf, keys, occ, &dist, per_thread);
            let hop = avg_reads(KvSystem::FarmOffset, keys, occ, &dist, per_thread);
            let cluster = avg_reads(KvSystem::DrtmKv, keys, occ, &dist, per_thread);
            let pct = (occ * 100.0) as u32;
            let reads = |table: &str, v: f64| {
                cell(format!("{dname}_{pct}pct_{table}_reads"), Kind::Count, v, f(v))
            };
            let cells =
                [reads("cuckoo", cuckoo), reads("hopscotch", hop), reads("cluster", cluster)];
            ledger.row(per_thread, [text(dname), text(format!("{pct}%"))].into_iter().chain(cells));
            assert!(cuckoo > hop, "Cuckoo must need more lookups than Hopscotch");
            assert!(cluster < cuckoo, "Cluster chaining must beat Cuckoo");
        }
    }
    println!("(paper: Cuckoo 1.3-2.0, Hopscotch 1.00-1.04, Cluster 1.00-1.10)");
    ledger.write();
}
