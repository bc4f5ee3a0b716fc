//! Cross-crate integration tests: strict serializability of the DrTM
//! protocol under concurrency, spanning htm + rdma + memstore + core.

use std::sync::Arc;

use drtm::rdma::{ClusterConfig, LatencyProfile, NodeId};
use drtm::txn::{Deployment, DrTm, DrTmConfig, TxnSpec, SOFTTIME_INTERVAL};
use drtm::workloads::resolve::Table;

struct Fixture {
    sys: Arc<DrTm>,
    accounts: Arc<Table>,
}

const PER_NODE: u64 = 64;
const INIT: u64 = 10_000;

fn fixture(nodes: usize, workers: usize) -> Fixture {
    let cluster = ClusterConfig {
        nodes,
        region_size: 16 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    };
    let mut dep = Deployment::new(cluster, DrTmConfig::default(), workers);
    let shards = dep.hash(64, 2 * PER_NODE as usize, 8);
    for n in dep.nodes() {
        for k in 0..PER_NODE {
            let gid = n as u64 * PER_NODE + k;
            shards[n as usize].insert(dep.exec(), dep.region(n), gid, &INIT.to_le_bytes()).unwrap();
        }
    }
    Fixture { sys: dep.start(SOFTTIME_INTERVAL), accounts: Arc::new(Table::new(shards)) }
}

fn u(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

fn total(f: &Fixture, nodes: usize) -> u64 {
    let w = f.sys.worker(0, 0);
    let mut sum = 0u64;
    for n in 0..nodes as NodeId {
        for k in 0..PER_NODE {
            let gid = n as u64 * PER_NODE + k;
            let rec = f.accounts.resolve(&w, n, gid).expect("populated");
            let mut b = [0u8; 8];
            f.sys.cluster().node(n).region().read_nt(rec.entry().value_off(), &mut b);
            sum = sum.wrapping_add(u(&b));
        }
    }
    sum
}

/// Concurrent cross-machine transfers conserve the global total.
#[test]
fn distributed_transfers_conserve_total() {
    let nodes = 3;
    let workers = 2;
    let f = fixture(nodes, workers);
    let expected = total(&f, nodes);
    std::thread::scope(|s| {
        for n in 0..nodes as NodeId {
            for wid in 0..workers {
                let sys = f.sys.clone();
                let accounts = f.accounts.clone();
                s.spawn(move || {
                    let mut w = sys.worker(n, wid);
                    let mut seed = (n as u64 + 1) * 7919 + wid as u64;
                    for _ in 0..100 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let src = n as u64 * PER_NODE + seed % PER_NODE;
                        let dst_node = ((seed >> 16) % nodes as u64) as NodeId;
                        let mut dst = dst_node as u64 * PER_NODE + (seed >> 32) % PER_NODE;
                        if dst == src {
                            dst = dst_node as u64 * PER_NODE + (dst + 1) % PER_NODE;
                        }
                        let src_rec = accounts.resolve(&w, n, src).unwrap();
                        let dst_rec = accounts.resolve(&w, dst_node, dst).unwrap();
                        let mut spec = TxnSpec::default();
                        spec.local_writes.push(src_rec);
                        let dst_remote = dst_node != n;
                        if dst_remote {
                            spec.remote_writes.push(dst_rec);
                        } else {
                            spec.local_writes.push(dst_rec);
                        }
                        let amt = seed % 50;
                        w.execute(&spec, |ctx| {
                            let a = u(&ctx.local_write_cur(0)?);
                            ctx.local_write(0, &a.wrapping_sub(amt).to_le_bytes())?;
                            if dst_remote {
                                let b = u(ctx.remote_write_cur(0));
                                ctx.remote_write(0, b.wrapping_add(amt).to_le_bytes());
                            } else {
                                let b = u(&ctx.local_write_cur(1)?);
                                ctx.local_write(1, &b.wrapping_add(amt).to_le_bytes())?;
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        }
    });
    assert_eq!(total(&f, nodes), expected, "transfers must conserve the total");
    let stats = f.sys.stats().snapshot();
    assert_eq!(stats.committed, (nodes * workers * 100) as u64);
}

/// Read-only transactions always observe a conserved snapshot while
/// writers churn.
#[test]
fn read_only_snapshots_are_consistent() {
    let f = fixture(2, 2);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        // Writer: transfers between account (0,0) and (1,PER_NODE).
        {
            let sys = f.sys.clone();
            let accounts = f.accounts.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut w = sys.worker(0, 0);
                let a = accounts.resolve(&w, 0, 0).unwrap();
                let b = accounts.resolve(&w, 1, PER_NODE).unwrap();
                let spec =
                    TxnSpec { local_writes: vec![a], remote_writes: vec![b], ..Default::default() };
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    w.execute(&spec, |ctx| {
                        let x = u(&ctx.local_write_cur(0)?);
                        let y = u(ctx.remote_write_cur(0));
                        ctx.local_write(0, &x.wrapping_sub(3).to_le_bytes())?;
                        ctx.remote_write(0, y.wrapping_add(3).to_le_bytes());
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
        // Reader on the other machine.
        {
            let sys = f.sys.clone();
            let accounts = f.accounts.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut w = sys.worker(1, 1);
                let a = accounts.resolve(&w, 0, 0).unwrap();
                let b = accounts.resolve(&w, 1, PER_NODE).unwrap();
                for _ in 0..60 {
                    let vals = w.read_only_records(&[a, b]);
                    assert_eq!(
                        u(&vals[0]).wrapping_add(u(&vals[1])),
                        2 * INIT,
                        "snapshot must conserve the pair total"
                    );
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
}

/// The same worker API works when records live behind warm location
/// caches (resolution must stay correct after cache hits).
#[test]
fn cached_resolution_stays_correct() {
    let f = fixture(2, 1);
    let mut w = f.sys.worker(0, 0);
    let gid = PER_NODE + 5; // on node 1
    for round in 0..10u64 {
        let rec = f.accounts.resolve(&w, 1, gid).unwrap();
        let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| {
            let v = u(ctx.remote_write_cur(0));
            ctx.remote_write(0, (v + 1).to_le_bytes());
            Ok(())
        })
        .unwrap();
        let check = w.read_only_records(&[rec]);
        assert_eq!(u(&check[0]), INIT + round + 1);
    }
    // After the first resolution, the rest must be cache hits.
    let snap = f.sys.cluster().counters().snapshot();
    assert!(snap.reads > 0);
}
