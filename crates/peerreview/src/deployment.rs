//! The one audit-round loop every accountable deployment is driven through.
//!
//! A deployment owns a cluster, an application and the
//! [`AccountabilityEngine`] attached to them. [`Accountable`] asks it for
//! exactly that — the engine to read, and the three parts borrowed together
//! to drive — and provides the round structure once: the commit step before
//! the round's work when commitments piggyback on it, the rest of the audit
//! after it, a full audit round after the work otherwise. The PeerReview
//! driver ([`crate::system::PeerReview`]) and the accountable BFT, chain
//! replication and A2M deployments all implement it; what differs between
//! them is only the work a round does.

use crate::engine::{AccountabilityEngine, AccountedApp};
use tnic_core::api::Cluster;
use tnic_core::error::CoreError;

/// A deployment with the accountability engine attached.
pub trait Accountable {
    /// The application the engine holds accountable.
    type App: AccountedApp;

    /// The attached engine: witness sets, verdicts, evidence, counters.
    ///
    /// # Panics
    ///
    /// A deployment that can also be built without accountability panics
    /// here (and in [`Accountable::parts`]) when it was.
    fn engine(&self) -> &AccountabilityEngine<Self::App>;

    /// The engine together with the cluster and the application it drives.
    fn parts(
        &mut self,
    ) -> (
        &mut AccountabilityEngine<Self::App>,
        &mut Cluster,
        &mut Self::App,
    );

    /// One full audit round (see [`AccountabilityEngine::run_audit_round`]).
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    fn run_audit_round(&mut self) -> Result<(), CoreError> {
        let (engine, cluster, app) = self.parts();
        engine.run_audit_round(cluster, app)
    }

    /// The commit step of an audit round; run the round's work between this
    /// and [`Accountable::finish_audit_round`] so commitments can ride it
    /// (see [`AccountabilityEngine::begin_audit_round`]).
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    fn begin_audit_round(&mut self) -> Result<(), CoreError> {
        let (engine, cluster, _) = self.parts();
        engine.begin_audit_round(cluster)
    }

    /// Flush + challenge + classify after the commit step (see
    /// [`AccountabilityEngine::finish_audit_round`]).
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    fn finish_audit_round(&mut self) -> Result<(), CoreError> {
        let (engine, cluster, app) = self.parts();
        engine.finish_audit_round(cluster, app)
    }

    /// Audits everything still in the pipeline — in piggyback mode the
    /// final round of work (see [`AccountabilityEngine::drain_audits`]).
    ///
    /// # Errors
    ///
    /// Propagates attestation/session errors on the control traffic.
    fn drain_audits(&mut self) -> Result<(), CoreError> {
        let (engine, cluster, app) = self.parts();
        engine.drain_audits(cluster, app)
    }

    /// Runs `rounds` rounds of `work` (called with the deployment and the
    /// round index) with an audit round after every `audit_period`-th one
    /// (clamped to at least 1).
    ///
    /// Without piggybacking the audit follows the work, so its commitments
    /// cover the round's traffic. With it the commit step runs *before* the
    /// work so authenticators can ride it: the audit pipeline runs one round
    /// behind, and the final round's traffic is still unaudited when this
    /// returns — [`Accountable::drain_audits`] closes the tail.
    ///
    /// # Errors
    ///
    /// Propagates the first error of `work` or of the control traffic.
    fn run_rounds(
        &mut self,
        rounds: u64,
        audit_period: u64,
        mut work: impl FnMut(&mut Self, u64) -> Result<(), CoreError>,
    ) -> Result<(), CoreError>
    where
        Self: Sized,
    {
        let period = audit_period.max(1);
        let piggyback = self.engine().config().piggyback;
        for round in 0..rounds {
            let audit = (round + 1) % period == 0;
            if audit && piggyback {
                self.begin_audit_round()?;
            }
            work(self, round)?;
            if audit && piggyback {
                self.finish_audit_round()?;
            } else if audit {
                self.run_audit_round()?;
            }
        }
        Ok(())
    }
}
