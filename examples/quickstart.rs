//! Quickstart: a two-machine DrTM cluster in ~100 lines.
//!
//! Assembles the deployment (cluster config → declare the stores →
//! populate → start), then runs (1) a local transaction, (2) a
//! distributed read-write transaction that locks a remote record over
//! simulated RDMA, (3) a small local read-only transaction in one HTM
//! region and (4) a lease-based read-only transaction across machines.
//!
//! Run with: `cargo run --example quickstart`

use drtm::rdma::ClusterConfig;
use drtm::txn::{Deployment, DrTmConfig, RecordAddr, TxnSpec, SOFTTIME_INTERVAL};
use drtm::workloads::resolve::Table;

fn main() {
    // 1. Two simulated machines with 16 MB regions and one worker each.
    //    Every machine gets the same layout: softtime line, one log slot
    //    per worker, then the stores.
    let cluster = ClusterConfig { nodes: 2, region_size: 16 << 20, ..Default::default() };
    let mut dep = Deployment::new(cluster, DrTmConfig::default(), 1);

    // 2. Declare an "accounts" hash table: one shard per machine, at the
    //    same offset on each.
    let shards = dep.hash(1024, 10_000, 8);

    // 3. Populate: accounts 0..100 with 1000 coins each, on each machine.
    for n in dep.nodes() {
        for k in 0..100u64 {
            shards[n as usize]
                .insert(dep.exec(), dep.region(n), k, &1000u64.to_le_bytes())
                .unwrap();
        }
    }
    let accounts = Table::new(shards);

    // 4. Start the transaction system — it owns the softtime service
    //    (leases need loosely synchronized clocks) — and take one worker
    //    on machine 0.
    let sys = dep.start(SOFTTIME_INTERVAL);
    let mut worker = sys.worker(0, 0);

    let read_u64 = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().unwrap());

    // 5. Local transaction: move 100 coins between two local accounts.
    //    A local record is declared by key and looked up inside the
    //    transaction's own HTM region.
    let spec = TxnSpec {
        keyed_writes: vec![accounts.local(0, 1), accounts.local(0, 2)],
        ..Default::default()
    };
    worker
        .execute(&spec, |ctx| {
            let a = read_u64(&ctx.keyed_write_cur(0)?.expect("populated"));
            let b = read_u64(&ctx.keyed_write_cur(1)?.expect("populated"));
            ctx.keyed_write(0, &(a - 100).to_le_bytes())?;
            ctx.keyed_write(1, &(b + 100).to_le_bytes())?;
            Ok(())
        })
        .expect("local transaction");
    println!("local transfer committed (HTM path)");

    // 6. Distributed transaction: machine 0 debits its account 1 and
    //    credits account 7 on machine 1. Only the remote record needs an
    //    address up front: Start locks it with an RDMA CAS.
    let remote: RecordAddr = accounts.resolve(&worker, 1, 7).unwrap();
    let spec = TxnSpec {
        keyed_writes: vec![accounts.local(0, 1)],
        remote_writes: vec![remote],
        ..Default::default()
    };
    worker
        .execute(&spec, |ctx| {
            let mine = read_u64(&ctx.keyed_write_cur(0)?.expect("populated"));
            let theirs = read_u64(ctx.remote_write_cur(0));
            ctx.keyed_write(0, &(mine - 50).to_le_bytes())?;
            ctx.remote_write(0, (theirs + 50).to_le_bytes());
            Ok(())
        })
        .expect("distributed transaction");
    println!("distributed transfer committed (HTM + RDMA 2PL)");

    // 7. A small local read-only transaction is the same `execute` with
    //    an empty write set: two reads in one region are one snapshot —
    //    no lease, no log, no verb.
    let spec = TxnSpec {
        keyed_reads: vec![accounts.local(0, 1), accounts.local(0, 2)],
        ..Default::default()
    };
    let sum = worker
        .execute(&spec, |ctx| {
            let a = read_u64(ctx.keyed_read(0)?.expect("populated"));
            let b = read_u64(ctx.keyed_read(1)?.expect("populated"));
            Ok(a + b)
        })
        .expect("local read-only transaction");
    println!("local read-only sum of accounts 1 and 2: {sum}");
    assert_eq!(sum, 850 + 1100);

    // 8. Lease-based read-only transaction (§4.5): for reads on other
    //    machines, or a read set too large for one region.
    let r0 = accounts.resolve(&worker, 0, 1).unwrap();
    let r1 = accounts.resolve(&worker, 1, 7).unwrap();
    let values = worker.read_only_records(&[r0, r1]);
    println!(
        "read-only snapshot: account(0,1) = {}, account(1,7) = {}",
        read_u64(&values[0]),
        read_u64(&values[1])
    );
    assert_eq!(read_u64(&values[0]), 850);
    assert_eq!(read_u64(&values[1]), 1050);

    let stats = sys.stats().snapshot();
    println!(
        "committed = {}, read-only committed = {}, RDMA CAS issued = {}",
        stats.committed,
        stats.ro_committed,
        sys.cluster().counters().snapshot().cas
    );
}
