//! Byzantine network adversaries (paper §3.2).
//!
//! The threat model lets an attacker control the network: messages can be
//! dropped, modified, replayed or re-sent stale-but-valid. The attestation
//! kernel's transferable authentication and non-equivocation must detect all
//! of it; these adversaries are used by property and integration tests to
//! demonstrate exactly that.
//!
//! Two adversary granularities are modelled:
//!
//! * [`Adversary`] — a packet-level attacker applied to individual RoCE
//!   packets on the wire (tampering, dropping, replay).
//! * [`NodeFault`] / [`FaultPlan`] — node-level Byzantine behaviours used by
//!   the accountability (PeerReview) scenarios: a compromised *host* that
//!   equivocates, suppresses audit traffic or rewrites its local log. The
//!   TNIC device itself stays honest (the paper's trust model), which is
//!   precisely why these faults remain detectable.

use std::collections::{BTreeMap, BTreeSet};
use tnic_device::roce::packet::RocePacket;
use tnic_sim::rng::DetRng;

/// A network adversary applied to every injected packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Adversary {
    /// No interference.
    Honest,
    /// Flips bytes in the payload with the given probability.
    TamperPayload {
        /// Probability that a given packet is tampered with.
        probability: f64,
    },
    /// Drops every packet matching the probability (network partition /
    /// targeted censorship).
    Drop {
        /// Probability that a given packet is dropped.
        probability: f64,
    },
    /// Replays each packet an extra time with the given probability
    /// (duplication / replay attack).
    Replay {
        /// Probability that a given packet is replayed.
        probability: f64,
    },
    /// Records the first packet seen and keeps re-injecting it instead of
    /// (some) later packets — a stale-message equivocation attempt.
    ReplayStale {
        /// Probability that a later packet is replaced by the recorded one.
        probability: f64,
        /// The recorded packet, if any.
        recorded: Option<Box<RocePacket>>,
    },
}

impl Adversary {
    /// Applies the adversary to a packet, returning the packets that actually
    /// enter the network (empty = dropped, more than one = duplication).
    pub fn apply(&mut self, packet: &RocePacket, rng: &mut DetRng) -> Vec<RocePacket> {
        match self {
            Adversary::Honest => vec![packet.clone()],
            Adversary::TamperPayload { probability } => {
                let mut out = packet.clone();
                if rng.chance(*probability) && !out.payload.is_empty() {
                    let idx = rng.next_below(out.payload.len() as u64) as usize;
                    out.payload[idx] ^= 0xff;
                }
                vec![out]
            }
            Adversary::Drop { probability } => {
                if rng.chance(*probability) {
                    Vec::new()
                } else {
                    vec![packet.clone()]
                }
            }
            Adversary::Replay { probability } => {
                if rng.chance(*probability) {
                    vec![packet.clone(), packet.clone()]
                } else {
                    vec![packet.clone()]
                }
            }
            Adversary::ReplayStale {
                probability,
                recorded,
            } => {
                if recorded.is_none() {
                    *recorded = Some(Box::new(packet.clone()));
                    vec![packet.clone()]
                } else if rng.chance(*probability) {
                    vec![recorded.as_ref().map(|p| (**p).clone()).expect("recorded")]
                } else {
                    vec![packet.clone()]
                }
            }
        }
    }
}

/// A healing network partition, scheduled in protocol rounds: for rounds in
/// `start_round..heal_round` the nodes in [`PartitionSchedule::group`] cannot
/// exchange messages with the nodes outside it (both directions); traffic
/// *within* either side is unaffected. Once the window passes, the partition
/// has healed and every link works again — the accountability protocol must
/// tolerate the outage with delayed verdicts, never false exposure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSchedule {
    /// The minority (or any) side of the cut, by raw node id.
    pub group: BTreeSet<u32>,
    /// First round (inclusive) during which the cut is open.
    pub start_round: u64,
    /// First round (exclusive end) at which the cut has healed.
    pub heal_round: u64,
}

impl PartitionSchedule {
    /// A partition separating `group` from everyone else during rounds
    /// `start_round..heal_round`.
    #[must_use]
    pub fn new(group: impl IntoIterator<Item = u32>, start_round: u64, heal_round: u64) -> Self {
        PartitionSchedule {
            group: group.into_iter().collect(),
            start_round,
            heal_round,
        }
    }

    /// Whether the cut is open during `round`.
    #[must_use]
    pub fn active(&self, round: u64) -> bool {
        round >= self.start_round && round < self.heal_round
    }

    /// Whether the cut severs the link `a ↔ b` during `round`: exactly one
    /// endpoint sits inside the partitioned group.
    #[must_use]
    pub fn cuts(&self, round: u64, a: u32, b: u32) -> bool {
        self.active(round) && (self.group.contains(&a) != self.group.contains(&b))
    }

    /// Length of the outage in rounds.
    #[must_use]
    pub fn outage_rounds(&self) -> u64 {
        self.heal_round.saturating_sub(self.start_round)
    }
}

/// A node-level Byzantine behaviour injected into accountability scenarios.
///
/// These model a compromised host *behind* an honest TNIC: the device still
/// attests faithfully (keys and counters are hardware-protected), but the
/// software above it may fork its view, go silent, or rewrite its local
/// state. Each variant corresponds to a misbehaviour class the PeerReview
/// audit protocol must classify.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeFault {
    /// The node follows the protocol.
    Correct,
    /// The node forks its tamper-evident log and commits to different log
    /// heads towards different witnesses (classic equivocation).
    Equivocate,
    /// The node suppresses its audit traffic: challenges go unanswered with
    /// the given probability (1.0 = fully silent).
    SuppressAudits {
        /// Probability that a given challenge is ignored.
        probability: f64,
    },
    /// The node truncates the tail of its log before answering an audit,
    /// dropping the most recent `drop_tail` entries it already committed to.
    TruncateLog {
        /// Number of committed tail entries removed before responding.
        drop_tail: u64,
    },
    /// The node rewrites the content of an already-committed log entry (and
    /// re-chains the hashes so the forgery is locally self-consistent).
    TamperLogEntry {
        /// Sequence number of the rewritten entry.
        seq: u64,
    },
    /// **Byzantine witness**: the node performs its audit duties but never
    /// cosigns checkpoint proposals, trying to starve its auditees' garbage
    /// collection. A quorum of the remaining witnesses still certifies the
    /// checkpoint (pruning is delayed, never blocked), and epoch rotation
    /// eventually moves the withholder out of the set.
    WithholdCosignatures,
    /// **Byzantine witness**: the node returns *forged* cosignatures — its
    /// (honest) device seals a different state digest than proposed, and
    /// the host claims the cosignature covers the real checkpoint. The
    /// proposer's content/seal checks reject it; accuracy is unaffected
    /// because a TNIC cannot be made to lie about what it sealed.
    ForgeCosignatures,
    /// **Byzantine audit witness**: the node fabricates evidence against a
    /// correct auditee — it pairs a genuine commitment with a forged
    /// counterpart (sealed by its *own* honest device, since the auditee's
    /// TNIC refuses to lie) and broadcasts the pair as equivocation proof.
    /// Evidence is verified before adoption: the forged seal fails the
    /// device/session binding, so the accusation is rejected and turned
    /// against the accuser instead.
    ForgeEvidence,
    /// **Byzantine audit witness**: the node marks its auditees suspected
    /// without ever issuing (let alone failing) a challenge. The lie is
    /// inherently local — a suspicion carries no evidence and convinces no
    /// correct third party — so every correct witness's verdict is
    /// unaffected and the auditee can never be exposed by it.
    FalseSuspicion,
    /// **Byzantine audit witness**: the node performs its own audits but
    /// never forwards commitments to fellow witnesses — neither dedicated
    /// `Gossip` messages nor piggyback relays. Fellow witnesses fall back
    /// on the auditee's rotating direct announcements (commitments are
    /// cumulative), so propagation is delayed, never prevented.
    WithholdGossip,
    /// **Byzantine audit witness**: the node refuses to *relay* piggybacked
    /// commitments (it silently drops gossip rides instead of queueing
    /// them) while still behaving correctly in dedicated mode. The
    /// piggyback-mode completeness cost is detection latency, bounded by
    /// the announcement rotation.
    RefuseRelay,
    /// **Byzantine audit witness**: the node skips its audit duties
    /// entirely — no challenges, no verdict updates. Its auditees are still
    /// audited (and any fault exposed) by the remaining correct witnesses.
    SilentWitness,
}

impl NodeFault {
    /// Whether the behaviour deviates from the protocol.
    #[must_use]
    pub fn is_byzantine(self) -> bool {
        self != NodeFault::Correct
    }

    /// Short label used in scenario tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NodeFault::Correct => "correct",
            NodeFault::Equivocate => "equivocate",
            NodeFault::SuppressAudits { .. } => "suppress-audits",
            NodeFault::TruncateLog { .. } => "truncate-log",
            NodeFault::TamperLogEntry { .. } => "tamper-entry",
            NodeFault::WithholdCosignatures => "withhold-cosign",
            NodeFault::ForgeCosignatures => "forge-cosign",
            NodeFault::ForgeEvidence => "forge-evidence",
            NodeFault::FalseSuspicion => "false-suspicion",
            NodeFault::WithholdGossip => "withhold-gossip",
            NodeFault::RefuseRelay => "refuse-relay",
            NodeFault::SilentWitness => "silent-witness",
        }
    }
}

/// Assignment of [`NodeFault`]s to nodes (by raw node id), the scenario input
/// of the accountability fault-injection harness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: BTreeMap<u32, NodeFault>,
}

impl FaultPlan {
    /// A plan in which every node is correct.
    #[must_use]
    pub fn all_correct() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single faulty node.
    #[must_use]
    pub fn single(node: u32, fault: NodeFault) -> Self {
        let mut plan = FaultPlan::default();
        plan.set(node, fault);
        plan
    }

    /// Assigns `fault` to `node` (replacing any previous assignment).
    pub fn set(&mut self, node: u32, fault: NodeFault) {
        if fault == NodeFault::Correct {
            self.faults.remove(&node);
        } else {
            self.faults.insert(node, fault);
        }
    }

    /// The fault assigned to `node` ([`NodeFault::Correct`] by default).
    #[must_use]
    pub fn fault_of(&self, node: u32) -> NodeFault {
        self.faults
            .get(&node)
            .copied()
            .unwrap_or(NodeFault::Correct)
    }

    /// Ids of all Byzantine nodes, in ascending order.
    #[must_use]
    pub fn byzantine_nodes(&self) -> Vec<u32> {
        self.faults.keys().copied().collect()
    }

    /// Whether the plan contains no Byzantine node.
    #[must_use]
    pub fn is_all_correct(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_device::roce::packet::{PacketHeader, RdmaOpcode};
    use tnic_device::types::{DeviceId, Ipv4Addr, MacAddr, QueuePairId};

    fn packet(tag: u8) -> RocePacket {
        RocePacket {
            header: PacketHeader {
                src_mac: MacAddr::from_device(DeviceId(1)),
                dst_mac: MacAddr::from_device(DeviceId(2)),
                src_ip: Ipv4Addr::from_device(DeviceId(1)),
                dst_ip: Ipv4Addr::from_device(DeviceId(2)),
                udp_port: 4791,
                opcode: RdmaOpcode::Write,
                qp: QueuePairId(1),
                psn: u32::from(tag),
                msn: u32::from(tag),
                ack_psn: 0,
            },
            payload: vec![tag; 8],
        }
    }

    #[test]
    fn honest_passes_through() {
        let mut adv = Adversary::Honest;
        let mut rng = DetRng::new(1);
        assert_eq!(adv.apply(&packet(1), &mut rng), vec![packet(1)]);
    }

    #[test]
    fn tamper_changes_payload() {
        let mut adv = Adversary::TamperPayload { probability: 1.0 };
        let mut rng = DetRng::new(2);
        let out = adv.apply(&packet(1), &mut rng);
        assert_eq!(out.len(), 1);
        assert_ne!(out[0].payload, packet(1).payload);
        assert_eq!(out[0].header, packet(1).header);
    }

    #[test]
    fn drop_removes_packets() {
        let mut adv = Adversary::Drop { probability: 1.0 };
        let mut rng = DetRng::new(3);
        assert!(adv.apply(&packet(1), &mut rng).is_empty());
    }

    #[test]
    fn replay_duplicates() {
        let mut adv = Adversary::Replay { probability: 1.0 };
        let mut rng = DetRng::new(4);
        assert_eq!(adv.apply(&packet(1), &mut rng).len(), 2);
    }

    #[test]
    fn fault_plan_defaults_to_correct() {
        let plan = FaultPlan::all_correct();
        assert!(plan.is_all_correct());
        assert_eq!(plan.fault_of(3), NodeFault::Correct);
        assert!(!plan.fault_of(3).is_byzantine());
    }

    #[test]
    fn fault_plan_tracks_byzantine_nodes() {
        let mut plan = FaultPlan::single(2, NodeFault::Equivocate);
        plan.set(5, NodeFault::TruncateLog { drop_tail: 3 });
        assert_eq!(plan.byzantine_nodes(), vec![2, 5]);
        assert!(plan.fault_of(2).is_byzantine());
        assert_eq!(plan.fault_of(2).label(), "equivocate");
        // Re-assigning Correct clears the entry.
        plan.set(2, NodeFault::Correct);
        assert_eq!(plan.byzantine_nodes(), vec![5]);
    }

    #[test]
    fn witness_faults_are_byzantine_and_classified() {
        for fault in [
            NodeFault::ForgeEvidence,
            NodeFault::FalseSuspicion,
            NodeFault::WithholdGossip,
            NodeFault::RefuseRelay,
            NodeFault::SilentWitness,
        ] {
            assert!(fault.is_byzantine());
            assert!(!fault.label().is_empty());
        }
        assert_eq!(NodeFault::ForgeEvidence.label(), "forge-evidence");
    }

    #[test]
    fn partition_schedule_cuts_only_across_the_group_during_the_window() {
        let schedule = PartitionSchedule::new([0, 1], 2, 4);
        assert_eq!(schedule.outage_rounds(), 2);
        // Before the window and after healing: nothing is cut.
        for round in [0, 1, 4, 5] {
            assert!(!schedule.cuts(round, 0, 2), "round {round}");
        }
        // During the window only cross-group links are severed.
        for round in [2, 3] {
            assert!(schedule.cuts(round, 0, 2));
            assert!(schedule.cuts(round, 3, 1), "direction-agnostic");
            assert!(!schedule.cuts(round, 0, 1), "intra-group survives");
            assert!(!schedule.cuts(round, 2, 3), "other side survives");
        }
    }

    #[test]
    fn stale_replay_substitutes_old_packet() {
        let mut adv = Adversary::ReplayStale {
            probability: 1.0,
            recorded: None,
        };
        let mut rng = DetRng::new(5);
        let first = adv.apply(&packet(1), &mut rng);
        assert_eq!(first[0].payload, packet(1).payload);
        let second = adv.apply(&packet(2), &mut rng);
        assert_eq!(
            second[0].payload,
            packet(1).payload,
            "stale packet replayed"
        );
    }
}
