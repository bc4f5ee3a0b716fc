//! Quickstart: a two-machine DrTM cluster in ~80 lines.
//!
//! Assembles the deployment (cluster config → declare the stores →
//! populate → start), then runs (1) a local transaction, (2) a
//! distributed read-write transaction that locks a remote record over
//! simulated RDMA, and (3) a lease-based read-only transaction.
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
    let spec = TxnSpec {
        local_writes: vec![
            accounts.resolve(&worker, 0, 1).unwrap(),
            accounts.resolve(&worker, 0, 2).unwrap(),
        ],
        ..Default::default()
    };
    worker
        .execute(&spec, |ctx| {
            let a = read_u64(&ctx.local_write_cur(0)?);
            let b = read_u64(&ctx.local_write_cur(1)?);
            ctx.local_write(0, &(a - 100).to_le_bytes())?;
            ctx.local_write(1, &(b + 100).to_le_bytes())?;
            Ok(())
        })
        .expect("local transaction");
    println!("local transfer committed (HTM path)");

    // 6. Distributed transaction: machine 0 debits its account 1 and
    //    credits account 7 on machine 1 (locked with RDMA CAS).
    let remote: RecordAddr = accounts.resolve(&worker, 1, 7).unwrap();
    let spec = TxnSpec {
        local_writes: vec![accounts.resolve(&worker, 0, 1).unwrap()],
        remote_writes: vec![remote],
        ..Default::default()
    };
    worker
        .execute(&spec, |ctx| {
            let mine = read_u64(&ctx.local_write_cur(0)?);
            let theirs = read_u64(ctx.remote_write_cur(0));
            ctx.local_write(0, &(mine - 50).to_le_bytes())?;
            ctx.remote_write(0, (theirs + 50).to_le_bytes().to_vec());
            Ok(())
        })
        .expect("distributed transaction");
    println!("distributed transfer committed (HTM + RDMA 2PL)");

    // 7. Read-only transaction: lease-protected consistent reads of both
    //    machines' accounts.
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
