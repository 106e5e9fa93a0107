//! Pluggable accountability layer for the TNIC programming API.
//!
//! The paper's fourth application case study (§6, PeerReview) retrofits
//! *accountability* — tamper-evident logs, witness audits and verifiable
//! evidence — onto systems built over the attest/verify substrate. Rather
//! than weaving log maintenance into every application, the [`Cluster`](crate::Cluster)
//! exposes a hook point: an [`AccountabilityLayer`] attached to the cluster
//! observes every `auth_send`/`multicast` on the sender side and every
//! verified delivery on the receiver side, in the same way the
//! [`transform`](crate::transform) wrappers observe application state.
//! The hooks fire for *all* cluster traffic — application dataflow,
//! replication protocol messages, audit control traffic — so the layer's
//! tamper-evident record covers whatever protocol happens to run on top.
//!
//! The layer is *almost* passive: it cannot veto traffic (that is the
//! attestation kernel's job), but it may **piggyback** control data on
//! outbound messages through [`AccountabilityLayer::wrap_outbound`] — the
//! cluster offers every unicast `auth_send` payload to the layer before
//! attesting it, and the layer may return a wrapped payload carrying e.g. a
//! pending log commitment. Group traffic is offered once per multicast
//! through [`AccountabilityLayer::wrap_multicast`]: the wrapped payload is
//! attested once and the identical bytes reach every receiver, preserving
//! the single-attestation property that makes multicast equivocation-free.
//! This mirrors PeerReview's design, where the commitment protocol
//! piggybacks on the existing message flow and all enforcement happens
//! asynchronously in the audit protocol.
//!
//! # Engine / driver split
//!
//! The concrete accountability machinery lives in the `tnic-peerreview`
//! crate, split in two:
//!
//! * the **engine** (`tnic_peerreview::engine`) — an application-agnostic
//!   middleware: the `CommitmentLayer` implementing this module's trait,
//!   witness audit/challenge/evidence handling, verdict tracking, the
//!   piggyback ride queue, and the cosigned checkpoint/garbage-collection
//!   protocol (`tnic_peerreview::checkpoint`) that keeps the tamper-evident
//!   logs bounded for long-lived deployments and rotates witness sets at
//!   epoch boundaries, driven through the `AccountedApp` trait
//!   (`execute`, `snapshot_digest`, replay machine, message taps);
//! * the **drivers** — thin clients of the engine: the PeerReview workload
//!   itself (`tnic_peerreview::system`), and the BFT (`tnic-bft`) and chain
//!   replication (`tnic-cr`) deployments via their `with_accountability`
//!   constructors.
//!
//! To attach accountability to a new application: implement `AccountedApp`
//! for the application state (a deterministic `execute` for delivered
//! commands, a `snapshot_digest` of per-node state, and a fresh reference
//! machine witnesses replay), wrap the application's protocol payloads as
//! `Envelope::App`, build the engine over the application's `Cluster`, and
//! route every `Cluster::poll` through the engine — it peels piggybacked
//! commitments, consumes audit control traffic, registers executions in the
//! tamper-evident log and hands the application back its own messages. This
//! module only defines the interface so `tnic-core` stays free of
//! application policy.

use crate::api::{Delivered, NodeId};
use std::cell::RefCell;
use std::rc::Rc;
use tnic_device::attestation::AttestedMessage;
use tnic_sim::time::SimInstant;

/// Observer of the cluster's attested message flow.
///
/// Implementations record per-node commitments (e.g. PeerReview's
/// tamper-evident logs). Callbacks run synchronously inside
/// [`Cluster::auth_send`](crate::api::Cluster::auth_send) /
/// [`Cluster::deliver`](crate::api::Cluster::deliver), so they must not call
/// back into the cluster.
pub trait AccountabilityLayer {
    /// A node attested and transmitted `message` to `to` at virtual time `at`.
    ///
    /// Multicasts invoke this once per receiver with the same message.
    fn on_sent(&mut self, from: NodeId, to: NodeId, message: &AttestedMessage, at: SimInstant);

    /// A verified message landed in `to`'s inbox.
    fn on_delivered(&mut self, to: NodeId, delivered: &Delivered);

    /// Offered the outbound `payload` of a unicast
    /// [`Cluster::auth_send`](crate::api::Cluster::auth_send) *before* it is
    /// attested. Returning `Some(wrapped)` replaces the payload on the wire
    /// (the layer piggybacks pending control data on application traffic);
    /// returning `None` (the default) leaves the payload untouched.
    ///
    /// The wrapped payload is what gets attested, logged by `on_sent` and
    /// delivered — sender and receiver observe identical bytes, so
    /// tamper-evident logs stay consistent. Multicast payloads go through
    /// [`AccountabilityLayer::wrap_multicast`] instead: per-receiver
    /// wrapping would break the single-attestation property.
    fn wrap_outbound(&mut self, from: NodeId, to: NodeId, payload: &[u8]) -> Option<Vec<u8>> {
        let _ = (from, to, payload);
        None
    }

    /// Offered the outbound `payload` of a
    /// [`Cluster::multicast`](crate::api::Cluster::multicast) *once*, before
    /// it is attested. Returning `Some(wrapped)` replaces the payload on the
    /// wire for **every** receiver — the cluster still attests a single
    /// message, so the equivocation-free multicast property is preserved.
    /// Receivers the ride was not addressed to simply ignore the carried
    /// control data (commitments are self-describing and witnesses discard
    /// ones for nodes they do not audit).
    fn wrap_multicast(
        &mut self,
        from: NodeId,
        receivers: &[NodeId],
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        let _ = (from, receivers, payload);
        None
    }

    /// Human-readable name of the layer, used in diagnostics.
    fn label(&self) -> &'static str {
        "accountability"
    }
}

/// A shareable handle to an accountability layer.
///
/// The cluster and the accountability subsystem (which also drives audits)
/// both need access to the layer's state; the simulation is single-threaded,
/// so `Rc<RefCell<..>>` is the right ownership model.
pub type SharedAccountability = Rc<RefCell<dyn AccountabilityLayer>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Cluster;
    use tnic_net::stack::NetworkStackKind;
    use tnic_tee::profile::Baseline;

    /// A layer that simply counts the callbacks it receives.
    #[derive(Debug, Default)]
    struct CountingLayer {
        sent: usize,
        delivered: usize,
    }

    impl AccountabilityLayer for CountingLayer {
        fn on_sent(&mut self, _: NodeId, _: NodeId, _: &AttestedMessage, _: SimInstant) {
            self.sent += 1;
        }

        fn on_delivered(&mut self, _: NodeId, _: &Delivered) {
            self.delivered += 1;
        }

        fn label(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn attached_layer_observes_unicast_and_multicast() {
        let mut cluster = Cluster::fully_connected(3, Baseline::Tnic, NetworkStackKind::Tnic, 5);
        let layer = Rc::new(RefCell::new(CountingLayer::default()));
        cluster.attach_accountability(layer.clone());
        cluster.auth_send(NodeId(0), NodeId(1), b"one").unwrap();
        cluster
            .establish_group(NodeId(0), &[NodeId(1), NodeId(2)])
            .unwrap();
        cluster
            .multicast(NodeId(0), &[NodeId(1), NodeId(2)], b"two")
            .unwrap();
        assert_eq!(layer.borrow().sent, 3, "one unicast + two multicast copies");
        assert_eq!(layer.borrow().delivered, 3);
    }

    #[test]
    fn rejected_messages_are_never_reported_as_delivered() {
        let mut cluster = Cluster::fully_connected(2, Baseline::Tnic, NetworkStackKind::Tnic, 5);
        let layer = Rc::new(RefCell::new(CountingLayer::default()));
        cluster.attach_accountability(layer.clone());
        let msg = cluster.auth_send(NodeId(0), NodeId(1), b"ok").unwrap();
        // Replay: the verification path rejects it, so the layer must not see
        // a second delivery (it does see the send attempt's first delivery).
        assert!(cluster.deliver(NodeId(0), NodeId(1), msg).is_err());
        assert_eq!(layer.borrow().delivered, 1);
    }
}
