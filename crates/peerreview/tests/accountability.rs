//! End-to-end accountability scenarios (ISSUE 1 acceptance criteria).
//!
//! A 4-node cluster runs an application workload under the PeerReview
//! layer; Byzantine behaviours are injected through `net::adversary` fault
//! plans. An equivocating node must be *exposed* by every correct witness;
//! a fault-free run of the same scenario must produce zero suspicions and
//! zero exposures (no false positives).
//!
//! The packet-level composition suite (node-level fault plans composed with
//! a lossy/hostile network, asserting exact verdict parity with a
//! clean-network twin) lives in `tnic-bench/tests/verdict_parity.rs` on the
//! reusable [`tnic_bench`] verdict-parity harness.

use tnic_net::adversary::{FaultPlan, NodeFault};
use tnic_net::stack::NetworkStackKind;
use tnic_peerreview::audit::{Misbehavior, Verdict};
use tnic_peerreview::deployment::Accountable;
use tnic_peerreview::system::{PeerReview, PeerReviewConfig};
use tnic_tee::profile::Baseline;

fn four_nodes(seed: u64) -> PeerReviewConfig {
    PeerReviewConfig {
        nodes: 4,
        baseline: Baseline::Tnic,
        stack: NetworkStackKind::Tnic,
        seed,
        ..PeerReviewConfig::default()
    }
}

#[test]
fn equivocating_node_is_exposed_by_every_correct_witness() {
    let faults = FaultPlan::single(2, NodeFault::Equivocate);
    let mut pr = PeerReview::new(four_nodes(7), faults).unwrap();
    pr.run_rounds(3, 1, |pr, _| pr.run_workload(8)).unwrap();

    let correct: Vec<u32> = pr.correct_witnesses_of(2);
    assert_eq!(
        correct.len(),
        3,
        "three correct witnesses in a 4-node cluster"
    );
    for w in correct {
        assert_eq!(
            pr.verdict_of(w, 2),
            Verdict::Exposed,
            "witness {w} must expose node 2"
        );
        // The proof is verifiable: either conflicting sealed commitments
        // (via gossip / evidence transfer) or a failed audit of the fork.
        assert!(!pr.engine().evidence_of(w, 2).is_empty());
    }
    // Correct nodes keep clean records everywhere.
    for node in [0u32, 1, 3] {
        for w in pr.correct_witnesses_of(node) {
            assert_eq!(
                pr.verdict_of(w, node),
                Verdict::Trusted,
                "node {node} at witness {w}"
            );
        }
    }
}

#[test]
fn fault_free_run_yields_no_suspected_or_exposed_nodes() {
    let mut pr = PeerReview::new(four_nodes(7), FaultPlan::all_correct()).unwrap();
    pr.run_rounds(3, 1, |pr, _| pr.run_workload(8)).unwrap();

    for node in 0..4 {
        for &w in pr.witnesses_of(node) {
            assert_eq!(
                pr.verdict_of(w, node),
                Verdict::Trusted,
                "false positive: node {node} at witness {w}"
            );
            assert!(pr.engine().evidence_of(w, node).is_empty());
        }
    }
    let stats = pr.stats();
    assert_eq!(stats.unanswered_challenges, 0);
    assert_eq!(stats.responses, stats.challenges);
    assert!(stats.challenges > 0, "audits actually ran");
}

#[test]
fn suppression_is_suspected_and_truncation_exposed_across_seeds() {
    for seed in [1u64, 99, 2024] {
        let mut pr = PeerReview::new(
            four_nodes(seed),
            FaultPlan::single(0, NodeFault::SuppressAudits { probability: 1.0 }),
        )
        .unwrap();
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(6)).unwrap();
        for w in pr.correct_witnesses_of(0) {
            assert_eq!(
                pr.verdict_of(w, 0),
                Verdict::Suspected,
                "seed {seed} witness {w}"
            );
        }

        let mut pr = PeerReview::new(
            four_nodes(seed),
            FaultPlan::single(1, NodeFault::TruncateLog { drop_tail: 5 }),
        )
        .unwrap();
        pr.run_rounds(2, 1, |pr, _| pr.run_workload(6)).unwrap();
        for w in pr.correct_witnesses_of(1) {
            assert_eq!(
                pr.verdict_of(w, 1),
                Verdict::Exposed,
                "seed {seed} witness {w}"
            );
            assert!(pr
                .engine()
                .evidence_of(w, 1)
                .iter()
                .any(|e| matches!(e, Misbehavior::Truncated { .. })));
        }
    }
}

#[test]
fn accountability_overhead_is_measurable_against_bare_substrate() {
    // Accountable run.
    let mut pr = PeerReview::new(four_nodes(11), FaultPlan::all_correct()).unwrap();
    pr.run_rounds(2, 1, |pr, _| pr.run_workload(10)).unwrap();
    let accountable_time = pr.cluster().now();
    let stats = pr.stats();

    // Bare run: the same 20 application messages (identical envelope-encoded
    // payloads and send/poll pattern as `run_workload`) on a plain cluster.
    let mut bare =
        tnic_core::api::Cluster::fully_connected(4, Baseline::Tnic, NetworkStackKind::Tnic, 11);
    let nodes = bare.nodes();
    let payload = tnic_peerreview::wire::Envelope::App(b"incr".to_vec()).encode();
    for i in 0..20u64 {
        let from = nodes[(i % nodes.len() as u64) as usize];
        let to = nodes[((i + 1) % nodes.len() as u64) as usize];
        bare.auth_send(from, to, &payload).unwrap();
        bare.poll(to).unwrap();
    }
    let bare_time = bare.now();

    assert!(stats.control_messages > 0);
    assert!(
        accountable_time > bare_time,
        "commitments and audits must cost virtual time: {accountable_time:?} vs {bare_time:?}"
    );
    assert!(stats.audit_latency.percentile_us(0.5) > 0.0);
    assert!(stats.app_latency.mean_us() > 0.0);
}

#[test]
fn works_over_tee_baselines_but_slower_than_tnic() {
    let mut tnic = PeerReview::new(four_nodes(3), FaultPlan::all_correct()).unwrap();
    tnic.run_rounds(1, 1, |pr, _| pr.run_workload(4)).unwrap();

    let sgx_config = PeerReviewConfig {
        baseline: Baseline::Sgx,
        stack: NetworkStackKind::DrctIo,
        ..four_nodes(3)
    };
    let mut sgx = PeerReview::new(sgx_config, FaultPlan::all_correct()).unwrap();
    sgx.run_rounds(1, 1, |pr, _| pr.run_workload(4)).unwrap();

    for node in 0..4 {
        for &w in sgx.witnesses_of(node) {
            assert_eq!(sgx.verdict_of(w, node), Verdict::Trusted);
        }
    }
    assert!(
        sgx.cluster().now() > tnic.cluster().now(),
        "TEE-hosted attestation is slower"
    );
}
