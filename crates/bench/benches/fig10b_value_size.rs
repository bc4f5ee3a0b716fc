//! Figure 10(b): KV read throughput vs value size, uniform workload.
//!
//! Five systems: Pilaf (Cuckoo), FaRM-KV inline and offset variants,
//! DrTM-KV without cache, and DrTM-KV/$ with a cold shared cache.

use drtm_bench::kv::{KvBench, KvSystem};
use drtm_bench::ledger::{text, tput, Ledger};
use drtm_bench::scaled;
use drtm_workloads::dist::KeyDist;

fn main() {
    let mut ledger = Ledger::new("fig10b_value_size", "read throughput vs value size (uniform)");
    let keys = scaled(100_000, 10_000);
    let dist = KeyDist::uniform(keys);
    let per_thread = scaled(4_000, 500);
    let systems = [
        KvSystem::Pilaf,
        KvSystem::FarmInline,
        KvSystem::FarmOffset,
        KvSystem::DrtmKv,
        KvSystem::DrtmKvCache { budget: 64 << 20, warm: false },
    ];
    let names = systems.iter().map(|s| text(s.name()));
    ledger.row(per_thread, std::iter::once(text("value B")).chain(names));
    let mut first_cached = 0.0;
    let mut first_inline = 0.0;
    for value in [16usize, 64, 128, 256, 512, 1024] {
        let mut cells = vec![text(value)];
        for sys in systems {
            let b = KvBench::build(sys, keys, value, 0.75);
            let run = b.run(5, 8, per_thread, &dist);
            cells.push(tput(format!("{}_{value}b_mops", sys.key()), run.throughput));
            if value == 16 {
                match sys {
                    KvSystem::FarmInline => first_inline = run.throughput,
                    KvSystem::DrtmKvCache { .. } => first_cached = run.throughput,
                    _ => {}
                }
            }
        }
        ledger.row(per_thread, cells);
    }
    assert!(first_cached > 0.0 && first_inline > 0.0, "both systems must produce throughput");
    println!("(paper: DrTM-KV/$ best overall; FaRM-KV/I good small, collapses with size)");
    ledger.write();
}
