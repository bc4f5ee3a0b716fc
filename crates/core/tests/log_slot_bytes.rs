//! Pins the NVRAM image of one worker's log slot, byte for byte.
//!
//! The canonical remote read-modify-write of `golden_path_cost.rs` (one
//! remote write, one remote read, machine 0 → machine 1) is crashed right
//! after its commit point on each path — `AfterHtmCommit` and, down the
//! forced fallback, `FallbackAfterWalBeforeApply` — and the slot is read
//! back with raw region loads at hard-coded offsets. The expected image
//! is encoded here by hand, not with the crate's codec, so a refactor of
//! the log format's code that moves a word, a length prefix or a payload
//! byte fails this test. It must pass unedited across such a refactor.

use std::sync::Arc;

use drtm_core::{CrashPoint, Deployment, DrTm, DrTmConfig, RecordAddr, TxnError, TxnSpec};
use drtm_memstore::{ClusterHash, LookupResult};
use drtm_rdma::{ClusterConfig, LatencyProfile};

const VAL_CAP: usize = 16;

// Worker 0's slot on a one-worker machine: the softtime line, then the
// slot's head line (status word, chopping word), its 1 KiB lock-ahead
// area and its 16 KiB write-ahead area.
const STATUS_OFF: usize = 64;
const CHOP_OFF: usize = 72;
const LOCK_AHEAD_OFF: usize = 128;
const WRITE_AHEAD_OFF: usize = 128 + 1024;
const SLOT_END: usize = WRITE_AHEAD_OFF + (16 << 10);

const LOG_WRITE_AHEAD: u64 = 2;

fn build(crash: CrashPoint, force_fallback: bool) -> (Arc<DrTm>, Vec<Arc<ClusterHash>>) {
    let cluster = ClusterConfig {
        nodes: 2,
        region_size: 8 << 20,
        profile: LatencyProfile::rdma(),
        ..Default::default()
    };
    let mut cfg = DrTmConfig { logging: true, ..DrTmConfig::default() };
    if force_fallback {
        cfg.htm.max_retries = 0;
    }
    let mut dep = Deployment::new(cluster, cfg, 1);
    let tables = dep.hash(64, 256, VAL_CAP);
    for n in dep.nodes() {
        for k in 0..16u64 {
            tables[n as usize].insert(dep.exec(), dep.region(n), k, &100u64.to_le_bytes()).unwrap();
        }
    }
    let sys = dep.start_frozen();
    sys.cluster().faults().arm_crash(0, crash.name());
    (sys, tables)
}

fn rec(sys: &DrTm, tables: &[Arc<ClusterHash>], node: u16, key: u64) -> RecordAddr {
    match tables[node as usize].remote_lookup(&sys.cluster().qp(node), key) {
        LookupResult::Found { addr, .. } => RecordAddr::new(addr, VAL_CAP),
        _ => panic!("key {key} missing on node {node}"),
    }
}

/// `node u16, offset u64, value_cap u64` — one record address on NVRAM.
fn addr_bytes(r: &RecordAddr) -> Vec<u8> {
    let mut b = r.addr.node.to_le_bytes().to_vec();
    b.extend_from_slice(&(r.addr.offset as u64).to_le_bytes());
    b.extend_from_slice(&(r.value_cap as u64).to_le_bytes());
    b
}

/// A `u32` length prefix in front of `payload`.
fn prefixed(payload: &[u8]) -> Vec<u8> {
    let mut b = (payload.len() as u32).to_le_bytes().to_vec();
    b.extend_from_slice(payload);
    b
}

fn slot_image_after(crash: CrashPoint, force_fallback: bool) {
    let (sys, tables) = build(crash, force_fallback);
    let written = rec(&sys, &tables, 1, 1);
    let read = rec(&sys, &tables, 1, 2);
    let mut version = [0u8; 4];
    sys.cluster().node(1).region().read_nt(written.addr.offset + 12, &mut version);
    let new_version = u32::from_le_bytes(version) + 1;

    let mut w = sys.worker(0, 0);
    let spec =
        TxnSpec { remote_writes: vec![written], remote_reads: vec![read], ..Default::default() };
    let r: Result<(), _> = w.execute(&spec, |ctx| {
        let _ = ctx.remote_read(0);
        let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap()) + 1;
        ctx.remote_write(0, v.to_le_bytes());
        Ok(())
    });
    assert_eq!(r, Err(TxnError::SimulatedCrash), "{crash:?} must fire");

    // Lock-ahead record: the write set (count, then addresses).
    let mut lock_ahead = 1u16.to_le_bytes().to_vec();
    lock_ahead.extend_from_slice(&addr_bytes(&written));
    // Write-ahead record: the lock list, then the updates (count, then
    // address, version, value length, value).
    let mut write_ahead = lock_ahead.clone();
    write_ahead.extend_from_slice(&1u16.to_le_bytes());
    write_ahead.extend_from_slice(&addr_bytes(&written));
    write_ahead.extend_from_slice(&new_version.to_le_bytes());
    write_ahead.extend_from_slice(&8u32.to_le_bytes());
    write_ahead.extend_from_slice(&101u64.to_le_bytes());
    assert_eq!(prefixed(&lock_ahead).len(), 24);
    assert_eq!(prefixed(&write_ahead).len(), 60);

    let mut want = vec![0u8; SLOT_END - STATUS_OFF];
    want[..8].copy_from_slice(&LOG_WRITE_AHEAD.to_le_bytes());
    let at = |off: usize| off - STATUS_OFF;
    want[at(LOCK_AHEAD_OFF)..at(LOCK_AHEAD_OFF) + 24].copy_from_slice(&prefixed(&lock_ahead));
    want[at(WRITE_AHEAD_OFF)..at(WRITE_AHEAD_OFF) + 60].copy_from_slice(&prefixed(&write_ahead));
    assert_eq!(want[at(CHOP_OFF)..at(CHOP_OFF) + 8], [0u8; 8], "no chopping information");

    let mut got = vec![0u8; SLOT_END - STATUS_OFF];
    sys.cluster().node(0).region().read_nt(STATUS_OFF, &mut got);
    assert_eq!(got, want, "log slot image after {crash:?}");
}

#[test]
fn slot_bytes_after_htm_commit() {
    slot_image_after(CrashPoint::AfterHtmCommit, false);
}

#[test]
fn slot_bytes_after_fallback_wal() {
    slot_image_after(CrashPoint::FallbackAfterWalBeforeApply, true);
}
