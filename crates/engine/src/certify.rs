//! The §3.5 certification gate — the one certifier path of both drivers.
//!
//! Certified policies gate every effect event on one question: would the
//! history extended by this event still have a reducible completed
//! schedule? Answering "yes" before every emission makes every emitted
//! prefix reducible, i.e. the history PRED by construction. The virtual-time
//! engine asks it of its whole history, the concurrent driver of one
//! shard's segment (sound because events of other shards commute with every
//! event of this one). Every effect event is asked, and the step's lone
//! rule answers first: an event of a process that runs *alone* — no other
//! process executed an operation since every process holding a record
//! terminated (`Protocol::alone`, which the step keeps itself) — keeps the
//! completed prefix reducible (DESIGN.md, certifier invariant 7), so the
//! certifier is not called. It
//! still absorbs every history event on its next call and derives only
//! where processes interleave. The from-scratch answer — `complete` + `reduce` on
//! the extended history — is the reference the tests hold each verdict
//! against (`tests/certify_reference.rs`), not a second shipped path.

use crate::policy::PolicyKind;
use txproc_core::pred_incremental::IncrementalPred;
use txproc_core::schedule::{Event, Schedule};
use txproc_core::spec::Spec;
use txproc_core::telemetry::{Phase, Telemetry};

/// The incremental certifier, the rule for keeping it in step with the
/// history it certifies against, and the refusals already decided.
pub(crate) struct CertGate<'a> {
    certifier: IncrementalPred<'a>,
    /// Refused events, stamped with the history length: the verdict is a
    /// pure function of the history, so a re-poll at the same length is the
    /// same decision, not a new one.
    refused: Vec<(Event, usize)>,
}

impl<'a> CertGate<'a> {
    /// The gate of a run under `policy`; `None` for an uncertified policy,
    /// which admits everything.
    pub(crate) fn for_policy(policy: PolicyKind, spec: &'a Spec) -> Option<Self> {
        policy.certified().then(|| Self {
            certifier: IncrementalPred::new(spec),
            refused: Vec::new(),
        })
    }

    /// The decision on `event` at the end of `history`: `None` for a re-poll
    /// of a refusal at the same history length (decided already, nothing to
    /// note), else whether the event is admitted — at once when the shard
    /// says its process runs `alone`, else by the certifier
    /// ([`Self::admits`]).
    pub(crate) fn decide(
        &mut self,
        history: &Schedule,
        event: &Event,
        alone: bool,
        tele: &Telemetry,
    ) -> Option<bool> {
        let len = history.len();
        self.refused.retain(|&(_, at)| at >= len);
        if self.refused.iter().any(|(e, at)| *at == len && e == event) {
            return None;
        }
        let ok = alone || self.admits(history, event, tele);
        if !ok {
            self.refused.push((event.clone(), len));
        }
        Some(ok)
    }

    /// Whether `history` extended by `event` still completes to a reducible
    /// schedule. First absorbs the history events emitted since the last
    /// call (the caller serializes history order, so the certifier sees
    /// exactly the emitted sequence, each event once per run). An admitted
    /// event stays applied in the certifier, so the `record` that absorbs
    /// it on the next call only drops its undo log — one step per admitted
    /// event, not two (the certifier rolls it back itself if anything else
    /// is asked first). The whole call is one [`Phase::Certify`] interval.
    fn admits(&mut self, history: &Schedule, event: &Event, tele: &Telemetry) -> bool {
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
