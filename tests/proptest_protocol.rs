//! Protocol-level property tests: random transfer workloads over a
//! random cluster shape always conserve value and leave no stray locks,
//! and the HTM strategy and the ordered-2PL strategy of the commit
//! pipeline leave byte-identical records behind.

use std::sync::Arc;

use proptest::prelude::*;

use drtm::rdma::{ClusterConfig, LatencyProfile};
use drtm::txn::{
    Deployment, DrTm, DrTmConfig, LockState, LogSlot, TxnSpec, LOG_EMPTY, SOFTTIME_INTERVAL,
};
use drtm::workloads::resolve::Table;

const PER_NODE: u64 = 16;
const INIT: u64 = 1_000;

/// One randomly generated transfer: (src node, src key, dst node, dst
/// key, amount).
#[derive(Debug, Clone, Copy)]
struct Transfer {
    src_node: u16,
    src_key: u64,
    dst_node: u16,
    dst_key: u64,
    amount: u64,
}

fn transfer(nodes: u16) -> impl Strategy<Value = Transfer> {
    (0..nodes, 0..PER_NODE, 0..nodes, 0..PER_NODE, 1u64..50).prop_map(|(sn, sk, dn, dk, amount)| {
        Transfer { src_node: sn, src_key: sk, dst_node: dn, dst_key: dk, amount }
    })
}

/// Workers per machine (log slots reserved).
const WORKERS: usize = 2;

fn build(nodes: usize, cfg: DrTmConfig) -> (Arc<DrTm>, Arc<Table>) {
    let cluster = ClusterConfig {
        nodes,
        region_size: 8 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    };
    let mut dep = Deployment::new(cluster, cfg, WORKERS);
    let shards = dep.hash(16, 2 * PER_NODE as usize, 8);
    for n in dep.nodes() {
        for k in 0..PER_NODE {
            let gid = n as u64 * PER_NODE + k;
            shards[n as usize].insert(dep.exec(), dep.region(n), gid, &INIT.to_le_bytes()).unwrap();
        }
    }
    (dep.start(SOFTTIME_INTERVAL), Arc::new(Table::new(shards)))
}

/// Runs `batch` on worker `(worker_node, wid)`: each transfer moves
/// `amount` between two records, each local or remote as it falls.
fn run_transfers(
    sys: &Arc<DrTm>,
    table: &Table,
    nodes: usize,
    worker_node: u16,
    wid: usize,
    batch: &[Transfer],
) {
    let mut w = sys.worker(worker_node, wid);
    for t in batch {
        let sn = t.src_node % nodes as u16;
        let dn = t.dst_node % nodes as u16;
        let src = sn as u64 * PER_NODE + t.src_key;
        let dst = dn as u64 * PER_NODE + t.dst_key;
        if src == dst {
            continue;
        }
        let src_rec = table.resolve(&w, sn, src).expect("populated");
        let dst_rec = table.resolve(&w, dn, dst).expect("populated");
        let mut spec = TxnSpec::default();
        let mut declare = |local: bool, rec| {
            let list = if local { &mut spec.local_writes } else { &mut spec.remote_writes };
            list.push(rec);
            (local, list.len() - 1)
        };
        let src_ix = declare(sn == worker_node, src_rec);
        let dst_ix = declare(dn == worker_node, dst_rec);
        let amount = t.amount;
        w.execute(&spec, |ctx| {
            let get = |ctx: &mut drtm::txn::TxnCtx<'_>, ix: (bool, usize)| {
                Ok::<u64, drtm::htm::Abort>(if ix.0 {
                    u64::from_le_bytes(ctx.local_write_cur(ix.1)?[..8].try_into().expect("u64"))
                } else {
                    u64::from_le_bytes(ctx.remote_write_cur(ix.1)[..8].try_into().expect("u64"))
                })
            };
            let sv = get(ctx, src_ix)?;
            let dv = get(ctx, dst_ix)?;
            if src_ix.0 {
                ctx.local_write(src_ix.1, &sv.wrapping_sub(amount).to_le_bytes())?;
            } else {
                ctx.remote_write(src_ix.1, sv.wrapping_sub(amount).to_le_bytes());
            }
            if dst_ix.0 {
                ctx.local_write(dst_ix.1, &dv.wrapping_add(amount).to_le_bytes())?;
            } else {
                ctx.remote_write(dst_ix.1, dv.wrapping_add(amount).to_le_bytes());
            }
            Ok(())
        })
        .expect("transfer commits");
    }
}

/// `(state word, version, value)` of every record, then the status word
/// of every log slot, in a fixed order.
fn final_state(sys: &Arc<DrTm>, table: &Table, nodes: usize) -> (Vec<(u64, u32, u64)>, Vec<u64>) {
    let w = sys.worker(0, 0);
    let mut records = Vec::new();
    let mut slots = Vec::new();
    for n in 0..nodes as u16 {
        let region = sys.cluster().node(n).region();
        for k in 0..PER_NODE {
            let rec = table.resolve(&w, n, n as u64 * PER_NODE + k).expect("populated");
            let mut version = [0u8; 4];
            region.read_nt(rec.entry().version_off(), &mut version);
            let mut value = [0u8; 8];
            region.read_nt(rec.entry().value_off(), &mut value);
            records.push((
                region.read_u64_nt(rec.addr.offset),
                u32::from_le_bytes(version),
                u64::from_le_bytes(value),
            ));
        }
        for slot in &sys.layout().log_slots {
            slots.push(LogSlot::new(*slot).read_status(region));
        }
    }
    (records, slots)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Any random batch of transfers, split across two concurrent
    /// workers on different machines, conserves the global total and
    /// releases every exclusive lock.
    #[test]
    fn random_transfers_conserve_and_unlock(
        nodes in 2usize..4,
        batch_a in proptest::collection::vec(transfer(3), 1..25),
        batch_b in proptest::collection::vec(transfer(3), 1..25),
    ) {
        let (sys, table) = build(nodes, DrTmConfig::default());
        let run_batch = |worker_node: u16, wid: usize, batch: Vec<Transfer>| {
            let (sys, table) = (sys.clone(), table.clone());
            move || run_transfers(&sys, &table, nodes, worker_node, wid, &batch)
        };
        std::thread::scope(|s| {
            s.spawn(run_batch(0, 0, batch_a));
            s.spawn(run_batch((nodes - 1) as u16, 1, batch_b));
        });
        // Conservation + no stray exclusive locks.
        let w = sys.worker(0, 0);
        let mut total = 0u64;
        for n in 0..nodes as u16 {
            for k in 0..PER_NODE {
                let gid = n as u64 * PER_NODE + k;
                let rec = table.resolve(&w, n, gid).expect("populated");
                let region = sys.cluster().node(n).region();
                let st = LockState(region.read_u64_nt(rec.addr.offset));
                prop_assert!(!st.is_write_locked(), "stray lock on ({n},{k})");
                let mut b = [0u8; 8];
                region.read_nt(rec.entry().value_off(), &mut b);
                total = total.wrapping_add(u64::from_le_bytes(b));
            }
        }
        prop_assert_eq!(total, nodes as u64 * PER_NODE * INIT);
    }

    /// Strategy equivalence: the same transfer sequence, run by one
    /// worker with logging on, once under the default HTM retry budget
    /// and once with every transaction forced down the ordered-2PL
    /// fallback, leaves the same value *and version* in every record,
    /// every state word `INIT` and every log slot empty. The two
    /// strategies differ in how they isolate the body, never in what
    /// they publish.
    #[test]
    fn htm_and_fallback_strategies_publish_identical_state(
        nodes in 2usize..4,
        batch in proptest::collection::vec(transfer(3), 200..260),
    ) {
        let run = |force_fallback: bool| {
            let mut cfg = DrTmConfig { logging: true, ..DrTmConfig::default() };
            if force_fallback {
                cfg.htm.max_retries = 0;
            }
            let (sys, table) = build(nodes, cfg);
            run_transfers(&sys, &table, nodes, 0, 0, &batch);
            let stats = sys.stats().snapshot();
            (final_state(&sys, &table, nodes), stats.committed, stats.fallback_committed)
        };
        let ((htm_recs, htm_slots), htm_committed, htm_fallbacks) = run(false);
        let ((fb_recs, fb_slots), fb_committed, fb_fallbacks) = run(true);
        prop_assert!(htm_committed >= 150, "most generated transfers are real");
        prop_assert_eq!(htm_fallbacks, 0, "an uncontended worker never falls back");
        prop_assert_eq!(fb_fallbacks, fb_committed, "forced run must commit via 2PL only");
        prop_assert_eq!(htm_committed, fb_committed);
        prop_assert_eq!(&htm_recs, &fb_recs);
        prop_assert!(htm_recs.iter().all(|r| r.0 == drtm::txn::INIT), "state word not INIT");
        prop_assert!(htm_slots.iter().chain(&fb_slots).all(|s| *s == LOG_EMPTY), "live log slot");
        let total = htm_recs.iter().fold(0u64, |t, r| t.wrapping_add(r.2));
        prop_assert_eq!(total, nodes as u64 * PER_NODE * INIT);
    }
}
