//! The §3.5 certification gate — the one certifier path of both drivers.
//!
//! Certified policies gate every effect event on one question: would the
//! history extended by this event still have a reducible completed
//! schedule? Answering "yes" before every emission makes every emitted
//! prefix reducible, i.e. the history PRED by construction. The virtual-time
//! engine asks it of its whole history, the concurrent driver of one
//! shard's segment (sound because events of other shards commute with every
//! event of this one). Every effect event is asked, but the certifier
//! answers the events of a *lone* process — the only one with events since
//! every process before it terminated — from its state machine alone, and
//! runs its derivation only where processes interleave (DESIGN.md,
//! certifier invariant 7). The from-scratch answer — `complete` + `reduce` on
//! the extended history — is the reference the tests hold each verdict
//! against (`tests/certify_reference.rs`), not a second shipped path.

use crate::policy::PolicyKind;
use txproc_core::pred_incremental::IncrementalPred;
use txproc_core::schedule::{Event, Schedule};
use txproc_core::spec::Spec;
use txproc_core::telemetry::{Phase, Telemetry};

/// The incremental certifier plus the rule for keeping it in step with the
/// history it certifies against.
pub(crate) struct CertGate<'a> {
    certifier: IncrementalPred<'a>,
}

impl<'a> CertGate<'a> {
    /// The gate of a run under `policy`; `None` for an uncertified policy,
    /// which admits everything.
    pub(crate) fn for_policy(policy: PolicyKind, spec: &'a Spec) -> Option<Self> {
        policy.certified().then(|| Self {
            certifier: IncrementalPred::new(spec),
        })
    }

    /// Whether `history` extended by `event` still completes to a reducible
    /// schedule. First absorbs the history events emitted since the last
    /// call (the caller serializes history order, so the certifier sees
    /// exactly the emitted sequence, each event once per run). An admitted
    /// event stays applied in the certifier, so the `record` that absorbs
    /// it on the next call only drops its undo log — one step per admitted
    /// event, not two (the certifier rolls it back itself if anything else
    /// is asked first). The whole call is one [`Phase::Certify`] interval.
    pub(crate) fn admits(&mut self, history: &Schedule, event: &Event, tele: &Telemetry) -> bool {
        let t0 = tele.phase_start();
        for e in &history.events()[self.certifier.len()..] {
            self.certifier
                .record(e)
                .expect("emitted history event is legal");
        }
        let verdict = self.certifier.certify_keep(event);
        tele.phase_end(Phase::Certify, t0);
        verdict.is_ok_and(|v| v.reducible)
    }
}
