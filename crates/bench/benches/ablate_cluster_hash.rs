//! §5.2/§5.3 ablation: what each piece of the DrTM-KV design buys.
//!
//! Sweeps occupancy and compares lookup cost (RDMA READs per GET) for:
//! the uncached cluster hash, a cold shared cache, and a warm shared
//! cache — quantifying the location cache on top of Table 4's numbers,
//! under uniform and Zipf θ=0.99 keys.

use drtm_bench::kv::{KvBench, KvSystem};
use drtm_bench::ledger::{cell, text, Kind, Ledger};
use drtm_bench::{f, scaled};
use drtm_workloads::dist::KeyDist;

fn avg(system: KvSystem, keys: u64, occ: f64, dist: &KeyDist, per: u64) -> f64 {
    let b = KvBench::build(system, keys, 64, occ);
    let run = b.run(2, 4, per, dist);
    run.lookup_reads as f64 / run.gets as f64
}

fn main() {
    let mut ledger =
        Ledger::new("ablate_cluster_hash", "lookup READs: no cache vs cold vs warm cache");
    let keys = scaled(100_000, 10_000);
    let per = scaled(5_000, 500);
    // Cover the whole (power-of-two rounded) main-header array at the
    // lowest occupancy used below, after the cache's 80/20 split.
    let buckets = ((keys as f64 / 0.5).ceil() as usize / 8).next_power_of_two();
    let budget = buckets * 160 * 5 / 4 * 11 / 10;
    ledger.row(per, ["dist", "occ", "no cache", "cold $", "warm $"].map(text));
    let mut warm_uniform = f64::MAX;
    let mut plain_uniform = 0.0;
    for (dname, dist) in [("uniform", KeyDist::uniform(keys)), ("zipf", KeyDist::zipf(keys, 0.99))]
    {
        for occ in [0.5, 0.9] {
            let none = avg(KvSystem::DrtmKv, keys, occ, &dist, per);
            let cold = avg(KvSystem::DrtmKvCache { budget, warm: false }, keys, occ, &dist, per);
            let warm = avg(KvSystem::DrtmKvCache { budget, warm: true }, keys, occ, &dist, per);
            if dname == "uniform" && occ == 0.5 {
                warm_uniform = warm;
                plain_uniform = none;
            }
            let pct = (occ * 100.0) as u32;
            let reads = |what: &str, v: f64| {
                cell(format!("{dname}_{pct}pct_{what}_reads"), Kind::Count, v, f(v))
            };
            // The paper's cold shared cache reaches 0.178 READs per lookup.
            let cold = reads("cold", cold).paper(0.178);
            let cells = [reads("none", none), cold, reads("warm", warm)];
            ledger.row(per, [text(dname), text(format!("{pct}%"))].into_iter().chain(cells));
        }
    }
    assert!(
        warm_uniform < plain_uniform / 3.0,
        "a warm location cache must eliminate most lookup READs"
    );
    ledger.write();
}
