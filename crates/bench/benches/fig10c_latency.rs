//! Figure 10(c): latency vs throughput at 64-byte values.
//!
//! Load increases like the paper's: first 1→8 client threads on one
//! machine, then 2→5 client machines × 8 threads. The virtual-time model
//! has no queueing, so latency is flat until the server-side READ budget
//! is the bottleneck — the *ordering* of the systems on both axes is the
//! reproduced property.

use drtm_bench::kv::{KvBench, KvSystem};
use drtm_bench::ledger::{cell, text, tput, Kind, Ledger};
use drtm_bench::{f, scaled};
use drtm_workloads::dist::KeyDist;

fn main() {
    let mut ledger = Ledger::new("fig10c_latency", "latency vs throughput, 64 B values (uniform)");
    let keys = scaled(100_000, 10_000);
    let dist = KeyDist::uniform(keys);
    let per_thread = scaled(4_000, 500);
    let loads: &[(usize, usize)] = &[(1, 1), (1, 4), (1, 8), (2, 8), (5, 8)];
    ledger.row(per_thread, ["system", "clients", "Mops/s", "lat µs"].map(text));
    let mut summary: Vec<(KvSystem, f64, f64)> = Vec::new();
    for sys in [
        KvSystem::Pilaf,
        KvSystem::FarmInline,
        KvSystem::FarmOffset,
        KvSystem::DrtmKv,
        KvSystem::DrtmKvCache { budget: 64 << 20, warm: true },
    ] {
        let b = KvBench::build(sys, keys, 64, 0.75);
        let mut peak = (0.0f64, 0.0f64);
        for &(machines, threads) in loads {
            let run = b.run(machines, threads, per_thread, &dist);
            let point = format!("{}_{machines}x{threads}", sys.key());
            let lat =
                cell(format!("{point}_lat_us"), Kind::Virtual, run.latency_us, f(run.latency_us));
            let load = [text(sys.name()), text(format!("{machines}x{threads}"))];
            ledger.row(
                per_thread,
                load.into_iter().chain([tput(format!("{point}_mops"), run.throughput), lat]),
            );
            if run.throughput > peak.0 {
                peak = (run.throughput, run.latency_us);
            }
        }
        summary.push((sys, peak.0, peak.1));
    }
    println!("\npeak throughput and latency per system:");
    for &(sys, mops, lat) in &summary {
        // The paper's DrTM-KV/$ peaks at 3.4 µs.
        let paper = matches!(sys, KvSystem::DrtmKvCache { .. }).then_some(3.4);
        let lat = cell(format!("{}_peak_lat_us", sys.key()), Kind::Virtual, lat, f(lat));
        let peak = [tput(format!("{}_peak_mops", sys.key()), mops), lat.paper(paper)];
        ledger.row(per_thread, std::iter::once(text(sys.name())).chain(peak));
    }
    let cached = summary.last().expect("five systems");
    let pilaf = &summary[0];
    assert!(
        cached.1 > pilaf.1,
        "DrTM-KV/$ must have higher peak throughput than Pilaf ({} vs {})",
        cached.1,
        pilaf.1
    );
    assert!(
        cached.2 < pilaf.2,
        "DrTM-KV/$ must have lower latency than Pilaf ({} vs {})",
        cached.2,
        pilaf.2
    );
    println!("(paper: DrTM-KV/$ lowest latency AND highest throughput)");
    ledger.write();
}
