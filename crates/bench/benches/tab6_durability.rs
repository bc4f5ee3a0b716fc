//! Table 6: the cost of durability (logging to emulated NVRAM).
//!
//! TPC-C on 6 machines × 8 workers with logging off and on: new-order
//! throughput, capacity-abort and fallback rates, and p50/90/99 latency.
//! The paper reports ~11.6 % throughput loss, +4.4 %/+4.8 % capacity
//! aborts and fallbacks, and a µs-scale latency increase — still orders
//! of magnitude below Calvin's epoch-bound latencies.
//!
//! The run ends with the durability payoff: a SmallBank segment in which
//! one machine really crashes mid-protocol (fault-plan armed, logging
//! on), a survivor replays its NVRAM log, and the books still balance.
//! The measured recovery time is the ledger's `recovery_ms` row.

use drtm_bench::ledger::{cell, quiet, text, tput, Kind, Ledger};
use drtm_bench::runners::{calvin_run, tpcc_run_with};
use drtm_bench::{diagnostics, f, mops, scaled, stats_cells};
use drtm_calvin::Calvin;
use drtm_core::{recover_node, CrashPoint, DrTmConfig, TxnError};
use drtm_htm::vtime;
use drtm_workloads::driver::{self, Report, WorkerRun};
use drtm_workloads::smallbank::{SmallBank, SmallBankConfig};
use drtm_workloads::tpcc::TpccConfig;

fn main() {
    let mut ledger =
        Ledger::new("tab6_durability", "impact of durability on TPC-C (6 machines, 8 workers)");
    let wall = std::time::Instant::now();
    let iters = scaled(660, 40);
    let warmup = iters / 5;
    ledger.row(
        iters,
        ["logging", "new-order", "cap abort%", "fallback%", "p50 µs", "p90 µs", "p99 µs"].map(text),
    );
    let mut rates = [0.0f64; 2];
    let tpcc = TpccConfig {
        nodes: 6,
        workers: 8,
        customers_per_district: 60,
        items: 1_000,
        max_new_orders_per_node: 8 * 2_000,
        region_size: 160 << 20,
        ..Default::default()
    };
    for (i, logging) in [false, true].into_iter().enumerate() {
        let mut cfg = tpcc.clone();
        cfg.drtm.logging = logging;
        let (rep, diag) = tpcc_run_with(cfg, iters, warmup);
        rates[i] = rep.throughput_of("new_order");
        let htm = diag.htm;
        let commits = htm.commits.max(1) as f64;
        let cap_pct = 100.0 * htm.capacity_aborts as f64 / commits;
        let fb_pct = 100.0 * htm.fallbacks as f64 / commits;
        let lat = rep.latency_percentiles_us(Some("new_order"), &[0.5, 0.9, 0.99]);
        let on = if logging { "on" } else { "off" };
        let pct = |name: &str, x: f64| {
            cell(format!("{name}_pct_logging_{on}"), Kind::Count, x, format!("{x:.2}"))
        };
        let lat_us = |q: &str, x: f64| cell(format!("{q}_us_logging_{on}"), Kind::Virtual, x, f(x));
        ledger.row(
            iters,
            [
                text(on),
                tput(format!("new_order_logging_{on}_mops"), rates[i]),
                pct("cap_abort", cap_pct),
                pct("fallback", fb_pct),
                lat_us("p50", lat[0]),
                lat_us("p90", lat[1]),
                lat_us("p99", lat[2]),
            ],
        );
        diagnostics(&format!("logging {on}"), &diag);
    }
    let loss = 100.0 * (1.0 - rates[1] / rates[0]);
    println!("throughput loss from logging: {loss:.1}% (paper: 11.6%)");
    ledger.row(iters, [quiet("logging_loss_pct", Kind::Virtual, loss).paper(11.6)]);
    assert!(rates[1] < rates[0], "logging must cost throughput");
    assert!(loss < 60.0, "logging cost must stay moderate");

    // Calvin latency reference (paper Table 6 note: 6.04/15.84/60.54 ms),
    // on the deployment the TPC-C legs ran.
    let (_, lats) = calvin_run(Calvin::build(&tpcc), 4, 40);
    let mut ns: Vec<u64> = lats.iter().map(|&(_, l)| l).collect();
    ns.sort_unstable();
    let pick = |q: f64| ns[((ns.len() - 1) as f64 * q) as usize] as f64 / 1e6;
    println!(
        "Calvin latency: p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms (epoch-bound)",
        pick(0.5),
        pick(0.9),
        pick(0.99)
    );
    assert!(pick(0.5) > 1.0, "Calvin latency must be ms-scale");
    let calvin_ms = |q: &str, at: f64, paper: f64| {
        quiet(format!("calvin_{q}_ms"), Kind::Virtual, pick(at)).paper(paper)
    };
    ledger.row(
        4,
        [calvin_ms("p50", 0.5, 6.04), calvin_ms("p90", 0.9, 15.84), calvin_ms("p99", 0.99, 60.54)],
    );

    // ------------------------------------------------------------------
    // Crash + recovery: what the log actually buys (§4.6, Figure 7).
    // SmallBank (conserving mix only) on 3 machines with logging on;
    // halfway through, machine 2 is armed to die right after an HTM
    // commit, survivors keep running against the reduced cluster, and
    // machine 0 replays the corpse's NVRAM log. The conservation check
    // at the end is the correctness proof of the whole pipeline.
    // ------------------------------------------------------------------
    println!("\n-- crash + recovery (SmallBank, logging on) --");
    let sb = SmallBank::build(SmallBankConfig {
        nodes: 3,
        workers: 1,
        accounts_per_node: 2_000,
        dist_prob: 0.5,
        drtm: DrTmConfig { logging: true, ..Default::default() },
        ..Default::default()
    });
    let expected = sb.total_balance();
    let before = sb.sys.stats_report();
    let rounds = scaled(2_000, 60);
    let half = rounds / 2;
    let mut workers: Vec<_> = (0..3u16).map(|n| sb.worker(n, 0)).collect();
    // Measured like `driver::run` measures: each worker's committed
    // transactions over the virtual time its attempts cost, the failed
    // ones (a peer found dead) included.
    let mut runs: Vec<WorkerRun> =
        (0..3u16).map(|node| WorkerRun { node, samples: Vec::new(), vtime_ns: 0 }).collect();
    let mut node2_dead = false;
    for i in 0..rounds {
        if i == half {
            // Die *mid-protocol*: after the next HTM commit on machine 2,
            // before its write-backs — the worst spot Figure 7 covers.
            sb.sys.cluster().faults().arm_crash(2, CrashPoint::AfterHtmCommit.name());
        }
        for (n, w) in workers.iter_mut().enumerate() {
            if n == 2 && node2_dead {
                continue;
            }
            let (r, spent) = vtime::measure(|| match i % 3 {
                0 => w.try_send_payment(),
                1 => w.try_amalgamate(),
                _ => w.try_balance(),
            });
            runs[n].vtime_ns += spent;
            match r {
                Ok(()) => runs[n].samples.push(("smallbank", spent)),
                Err(TxnError::SimulatedCrash) => node2_dead = true,
                Err(TxnError::PeerDead(_)) => {}
                Err(e) => panic!("chaos segment: unexpected failure {e:?}"),
            }
        }
    }
    assert!(node2_dead, "the armed crash must have fired");
    let rec_t0 = std::time::Instant::now();
    let rec = recover_node(sb.sys.cluster(), 2, sb.sys.layout(), 0);
    let recovery_ms = rec_t0.elapsed().as_secs_f64() * 1e3;
    sb.sys.cluster().faults().revive(2);
    for w in workers.iter_mut() {
        while w.worker().has_pending() {
            w.worker_mut().flush_pending().expect("peer is back");
        }
    }
    assert_eq!(sb.total_balance(), expected, "conservation after crash + recovery");
    let diag = sb.sys.stats_report().since(&before);
    println!(
        "recovery: {recovery_ms:.3} ms (redone {} txns / {} updates, released {} locks, \
         {} rolled back); {} peer-dead aborts while machine 2 was down; books balance",
        rec.redone_txns,
        rec.redone_updates,
        rec.released_locks,
        rec.rolled_back_txns,
        diag.txn.peer_dead_aborts
    );
    let crash_run = Report { workers: runs, os_threads: 1 };
    ledger.row(
        rounds,
        [
            quiet("crash_run_mops", Kind::Virtual, crash_run.throughput() / 1e6),
            quiet("recovery_ms", Kind::Host, recovery_ms),
            quiet("recovered_redone_txns", Kind::Count, rec.redone_txns as f64),
            quiet("recovered_redone_updates", Kind::Count, rec.redone_updates as f64),
            quiet("recovered_released_locks", Kind::Count, rec.released_locks as f64),
            quiet("peer_dead_aborts", Kind::Count, diag.txn.peer_dead_aborts as f64),
        ],
    );
    ledger.row(rounds, stats_cells(&diag));

    // ------------------------------------------------------------------
    // A transaction that writes nothing pays nothing for durability.
    // SmallBank `balance` is an `execute` with two keyed reads and an
    // empty write set: one HTM region, no lease (§4.5's leased read-only
    // transactions are not what this segment runs). With logging on it
    // must stage no log record and never wait on a log-done flush.
    // Asserted by counter, not inspection — the log write/byte/wait
    // deltas across the whole segment must all be exactly zero.
    // ------------------------------------------------------------------
    println!("\n-- write-free segment (SmallBank balance: reads only, no lease) --");
    let ro_iters = scaled(4_000, 120);
    let mut ro_tput = [0.0f64; 2];
    let mut ro_log_bytes = 0u64;
    for (i, logging) in [false, true].into_iter().enumerate() {
        let sb = SmallBank::build(SmallBankConfig {
            nodes: 3,
            workers: 1,
            accounts_per_node: 50_000,
            hot_prob: 0.0,
            dist_prob: 0.5,
            drtm: DrTmConfig { logging, ..Default::default() },
            ..Default::default()
        });
        let balance = |node, wid| {
            let mut w = sb.worker(node, wid);
            move |_| {
                w.try_balance().expect("no peer dies in the RO segment");
                "balance"
            }
        };
        let (rep, d) =
            driver::diagnosed(&sb.sys, || driver::run(3, 1, ro_iters, balance, ro_iters / 5));
        ro_tput[i] = rep.throughput();
        if logging {
            ro_log_bytes = d.txn.log_bytes;
            assert_eq!(d.txn.log_writes, 0, "a write-free execute must write no log records");
            assert_eq!(d.txn.log_bytes, 0, "a write-free execute must write no log bytes");
            assert_eq!(d.txn.log_done_waits, 0, "a write-free execute must never wait on log-done");
        }
        println!(
            "logging {}: {} balance txns/s, {} log bytes",
            if logging { "on " } else { "off" },
            mops(ro_tput[i]),
            d.txn.log_bytes
        );
    }
    ledger.row(
        ro_iters,
        [
            quiet("ro_logging_off_mops", Kind::Virtual, ro_tput[0] / 1e6),
            quiet("ro_logging_on_mops", Kind::Virtual, ro_tput[1] / 1e6),
            quiet("ro_log_bytes", Kind::Count, ro_log_bytes as f64),
            quiet("wall_s", Kind::Host, wall.elapsed().as_secs_f64()),
        ],
    );
    // Zero log bytes must mean zero virtual cost: logging on may differ
    // from logging off by no more than two runs of one leg differ.
    let band = ledger.band("ro_logging_on_mops").expect("the committed ledger gates this row");
    assert!(
        (ro_tput[1] - ro_tput[0]).abs() <= band * ro_tput[0],
        "write-free throughput moved with logging on: {} vs {} (band {band})",
        ro_tput[1],
        ro_tput[0]
    );
    ledger.write();
}
