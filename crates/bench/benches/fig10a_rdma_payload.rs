//! Figure 10(a): one-sided RDMA READ throughput vs payload size.
//!
//! Measures the raw simulated fabric: 5 client machines × 8 threads
//! issuing random READs of a fixed payload against the server's region.

use drtm_bench::ledger::{cell, text, tput, Kind, Ledger};
use drtm_bench::{f, scaled};
use drtm_htm::vtime;
use drtm_rdma::{Cluster, ClusterConfig, GlobalAddr, LatencyProfile};
use drtm_workloads::dist::rng;
use rand::Rng;

fn main() {
    let mut ledger =
        Ledger::new("fig10a_rdma_payload", "one-sided RDMA READ throughput vs payload size");
    let region_size = 64 << 20;
    let cluster = Cluster::new(ClusterConfig {
        nodes: 6,
        region_size,
        profile: LatencyProfile::rdma(),
        ..Default::default()
    });
    let per_thread = scaled(20_000, 2_000);
    ledger.row(per_thread, ["payload B", "Mops/s", "lat µs"].map(text));
    for payload in [16usize, 64, 256, 1024, 4096, 8192] {
        let mut rates = Vec::new();
        let mut lat = 0.0;
        std::thread::scope(|s| {
            let mut hs = Vec::new();
            for c in 1..=5u16 {
                for t in 0..8 {
                    let cluster = cluster.clone();
                    hs.push(s.spawn(move || {
                        let qp = cluster.qp(c);
                        let mut r = rng((c as u64) << 8 | t as u64);
                        let mut buf = vec![0u8; payload];
                        vtime::take();
                        for _ in 0..per_thread {
                            let off = r.gen_range(0..(region_size - payload) / 64) * 64;
                            qp.read(GlobalAddr::new(0, off), &mut buf);
                        }
                        vtime::take()
                    }));
                }
            }
            for h in hs {
                let ns = h.join().expect("client") as f64;
                rates.push(per_thread as f64 / (ns / 1e9));
                lat = ns / per_thread as f64 / 1e3;
            }
        });
        let total: f64 = rates.iter().sum();
        // The paper's ~26 Mops is its smallest payload's.
        let paper = (payload == 16).then_some(26.0);
        let lat = cell(format!("read_{payload}b_lat_us"), Kind::Virtual, lat, f(lat));
        let total = tput(format!("read_{payload}b_mops"), total).paper(paper);
        ledger.row(per_thread, [text(payload), total, lat]);
    }
    println!("(paper: ~26 Mops at small payloads, falling with size; shape must match)");
    ledger.write();
}
