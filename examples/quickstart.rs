//! Quickstart: a two-machine DrTM cluster in ~100 lines.
//!
//! Assembles the deployment (cluster config → declare the stores →
//! populate → start), then runs one transfer body, written against
//! record handles, as (1) a local transaction and (2) a distributed one
//! that locks a remote record over simulated RDMA; then (3) a small
//! local read-only transaction in one HTM region and (4) a lease-based
//! read-only transaction across machines.
//!
//! Run with: `cargo run --example quickstart`

use drtm::rdma::ClusterConfig;
use drtm::txn::{Abort, Decl, Deployment, DrTmConfig, TxnCtx, TxnSpec, SOFTTIME_INTERVAL};
use drtm::workloads::resolve::Table;

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// The balance of the account `d` declares, wherever it lives.
fn balance(ctx: &mut TxnCtx<'_>, d: Decl) -> Result<u64, Abort> {
    Ok(read_u64(ctx.get(d)?.expect("populated")))
}

/// Moves `amount` coins from account `from` to account `to`: one body
/// for local and remote accounts alike.
fn transfer(ctx: &mut TxnCtx<'_>, from: Decl, to: Decl, amount: u64) -> Result<(), Abort> {
    let (a, b) = (balance(ctx, from)?, balance(ctx, to)?);
    ctx.put(from, &(a - amount).to_le_bytes())?;
    ctx.put(to, &(b + amount).to_le_bytes())
}

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

    // 5. Local transaction: move 100 coins between two local accounts.
    //    Declaring a record returns the handle the body reads and writes
    //    it through; a record on this machine is declared by key and
    //    looked up inside the transaction's own HTM region.
    let mut spec = TxnSpec::default();
    let one = accounts.declare_write(&worker, &mut spec, 0, 1).unwrap();
    let two = accounts.declare_write(&worker, &mut spec, 0, 2).unwrap();
    worker.execute(&spec, |ctx| transfer(ctx, one, two, 100)).expect("local transaction");
    println!("local transfer committed (HTM path)");

    // 6. Distributed transaction: machine 0 debits its account 1 and
    //    credits account 7 on machine 1, with the same body. A record on
    //    another machine is declared by the address its location cache
    //    gives: Start locks it with an RDMA CAS.
    let mut spec = TxnSpec::default();
    let mine = accounts.declare_write(&worker, &mut spec, 0, 1).unwrap();
    let theirs = accounts.declare_write(&worker, &mut spec, 1, 7).unwrap();
    worker.execute(&spec, |ctx| transfer(ctx, mine, theirs, 50)).expect("distributed transaction");
    println!("distributed transfer committed (HTM + RDMA 2PL)");

    // 7. A small local read-only transaction is the same `execute` with
    //    an empty write set: two reads in one region are one snapshot —
    //    no lease, no log, no verb.
    let mut spec = TxnSpec::default();
    let one = accounts.declare_read(&worker, &mut spec, 0, 1).unwrap();
    let two = accounts.declare_read(&worker, &mut spec, 0, 2).unwrap();
    let sum = worker
        .execute(&spec, |ctx| Ok(balance(ctx, one)? + balance(ctx, two)?))
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
