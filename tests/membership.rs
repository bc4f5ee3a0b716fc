//! Property-based test of the membership subsystem: random interleaved
//! join / leave / kill / revive sequences against a model cluster.
//!
//! After every operation the real deployment must agree with the model
//! on every machine's lifecycle state, every founding key must route to
//! exactly one `Active` machine, and conserving transactions over the
//! current geometry must keep the total value exact — whatever order
//! the membership churn happened in and wherever the armed crashes
//! fired.

use proptest::prelude::*;

use drtm::rdma::{FabricError, LatencyProfile, NodeId};
use drtm::txn::{
    CrashPoint, DrTmConfig, MembershipError, NodeState, RecoveryDirection, RecoveryReport,
};
use drtm::workloads::elastic::{ElasticKv, ElasticKvConfig, INIT_VALUE};

const NODES: usize = 2;
const MAX_NODES: usize = 6;
const KEYS_PER_NODE: u64 = 20;

/// One membership operation. Index draws (`u8`) are reduced modulo the
/// current active set, so every generated sequence is applicable.
#[derive(Debug, Clone)]
enum MemOp {
    /// Clean join of a new machine.
    Join,
    /// Join with a crash armed mid-protocol (`true` = mid-stream,
    /// `false` = before-activate), then journal-driven rollback.
    JoinCrash(bool),
    /// Clean leave of an active machine.
    Leave(u8),
    /// Leave with a crash armed mid-drain, then journal-driven
    /// roll-forward.
    LeaveCrash(u8),
    /// Plain (non-membership) crash of an active machine: the WAL sweep
    /// runs, the membership dispatch declines, the machine revives.
    KillRevive(u8),
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        Just(MemOp::Join),
        any::<bool>().prop_map(MemOp::JoinCrash),
        any::<u8>().prop_map(MemOp::Leave),
        any::<u8>().prop_map(MemOp::LeaveCrash),
        any::<u8>().prop_map(MemOp::KillRevive),
    ]
}

fn build() -> ElasticKv {
    ElasticKv::build(ElasticKvConfig {
        nodes: NODES,
        max_nodes: MAX_NODES,
        workers: 1,
        keys_per_node: KEYS_PER_NODE,
        init_buckets: 4,
        max_buckets: 64,
        region_size: 8 << 20,
        profile: LatencyProfile::zero(),
        drtm: DrTmConfig { logging: true, ..Default::default() },
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_membership_interleavings_match_the_model(
        ops in proptest::collection::vec(mem_op(), 1..8),
    ) {
        let kv = build();
        let keys = NODES as u64 * KEYS_PER_NODE;
        let expected = keys * INIT_VALUE;
        // The model: one lifecycle state per provisioned machine.
        let mut model = vec![NodeState::Active; NODES];
        for (i, op) in ops.into_iter().enumerate() {
            let active: Vec<NodeId> = model
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == NodeState::Active)
                .map(|(n, _)| n as NodeId)
                .collect();
            match op {
                MemOp::Join | MemOp::JoinCrash(_) => {
                    if model.len() == MAX_NODES {
                        prop_assert_eq!(
                            kv.join_node().unwrap_err(),
                            MembershipError::ClusterFull
                        );
                    } else {
                        let node = model.len() as NodeId;
                        if let MemOp::JoinCrash(mid) = op {
                            let site = if mid {
                                CrashPoint::JoinMidStream
                            } else {
                                CrashPoint::JoinBeforeActivate
                            };
                            kv.sys.cluster().faults().arm_crash(node, site.name());
                        }
                        match kv.join_node() {
                            // Also the armed-mid-stream join whose donors
                            // were all too small to donate: the site never
                            // fires and the join completes clean.
                            Ok(r) => {
                                prop_assert_eq!(r.node, node);
                                model.push(NodeState::Active);
                            }
                            Err(MembershipError::SubjectDied { node: n, .. }) => {
                                prop_assert_eq!(n, node);
                                let rec = kv
                                    .recover(node, active[0])
                                    .membership
                                    .expect("a journaled join death must dispatch");
                                prop_assert_eq!(
                                    rec.direction,
                                    RecoveryDirection::RolledBack
                                );
                                model.push(NodeState::Retired);
                            }
                            Err(e) => panic!("unexpected join failure: {e}"),
                        }
                    }
                }
                MemOp::Leave(d) | MemOp::LeaveCrash(d) => {
                    let target = active[d as usize % active.len()];
                    if active.len() == 1 {
                        prop_assert_eq!(
                            kv.leave_node(target, target).unwrap_err(),
                            MembershipError::LastActiveNode
                        );
                    } else {
                        let via = active.iter().copied().find(|&n| n != target).unwrap();
                        if matches!(op, MemOp::LeaveCrash(_)) {
                            kv.sys
                                .cluster()
                                .faults()
                                .arm_crash(target, CrashPoint::LeaveMidDrain.name());
                        }
                        match kv.leave_node(target, via) {
                            // A leaver that owns no ranges never reaches
                            // the mid-drain site: clean retirement.
                            Ok(r) => prop_assert_eq!(r.node, target),
                            Err(MembershipError::SubjectDied { node, .. }) => {
                                prop_assert_eq!(node, target);
                                let rec = kv
                                    .recover(target, via)
                                    .membership
                                    .expect("a journaled leave death must dispatch");
                                prop_assert_eq!(
                                    rec.direction,
                                    RecoveryDirection::RolledForward
                                );
                            }
                            Err(e) => panic!("unexpected leave failure: {e}"),
                        }
                        // Either way the machine is gone for good.
                        model[target as usize] = NodeState::Retired;
                    }
                }
                MemOp::KillRevive(d) => {
                    // A plain death needs a survivor to sweep from; with
                    // one active machine the op is inapplicable.
                    if active.len() >= 2 {
                        let target = active[d as usize % active.len()];
                        let via = active.iter().copied().find(|&n| n != target).unwrap();
                        kv.sys.cluster().faults().kill(target);
                        // Not a membership death: dispatch must decline...
                        let recovery = kv.recover(target, via);
                        prop_assert!(recovery.membership.is_none());
                        // ...and the quiesced WAL has nothing to repair.
                        prop_assert_eq!(recovery.wal, RecoveryReport::default());
                        kv.sys.cluster().faults().revive(target);
                    }
                }
            }

            // Invariant 1: the published table matches the model exactly.
            prop_assert_eq!(kv.membership().snapshot(), model.clone());

            // Invariant 2: every founding key routes to exactly one
            // machine, and that machine is Active in the model. Retired
            // corpses own nothing; nothing is orphaned.
            for key in 0..keys {
                let owner = kv.map().owner_of(key);
                prop_assert!(owner.is_some(), "key {} unroutable", key);
                let owner = owner.unwrap();
                prop_assert_eq!(
                    model[owner as usize],
                    NodeState::Active,
                    "key {} routes to non-active machine {}",
                    key,
                    owner
                );
                // Typed fabric semantics back the table up: a retired
                // owner would fail every op, so routability means the
                // fabric actually serves this key's home.
                prop_assert!(!kv.sys.cluster().faults().is_retired(owner));
                prop_assert!(!kv.sys.cluster().faults().is_crashed(owner));
            }

            // Invariant 3: transactions over the churned geometry still
            // conserve the total value.
            let first_active =
                model.iter().position(|s| *s == NodeState::Active).unwrap() as NodeId;
            let mut w = kv.worker(first_active, 0);
            let (a, b) = ((i as u64 * 7) % keys, (i as u64 * 11 + 3) % keys);
            if a != b {
                w.transfer(a, b, i as u64 + 1).unwrap();
            }
            prop_assert_eq!(kv.total_value(), expected, "conservation after op {}", i);
        }
    }

    /// Fabric-level retirement stays sticky across arbitrary churn: once
    /// a machine leaves (gracefully or by rollback), every op against it
    /// fails `NodeRetired` — never `PeerDead`, never a hang.
    #[test]
    fn retired_machines_stay_typed_under_churn(crash in any::<bool>()) {
        let kv = build();
        if crash {
            kv.sys.cluster().faults().arm_crash(2, CrashPoint::JoinBeforeActivate.name());
            kv.join_node().unwrap_err();
            kv.recover(2, 0).membership.expect("rollback");
        } else {
            kv.join_node().unwrap();
            kv.leave_node(2, 0).unwrap();
        }
        let err = kv
            .sys
            .cluster()
            .qp(0)
            .try_read_u64(drtm::rdma::GlobalAddr::new(2, 0))
            .unwrap_err();
        prop_assert_eq!(err, FabricError::NodeRetired { node: 2 });
        prop_assert!(kv.sys.cluster().faults().is_retired(2));
        prop_assert_eq!(kv.total_value(), NODES as u64 * KEYS_PER_NODE * INIT_VALUE);
    }
}
