//! Error types shared across the core model.

use crate::ids::{ActivityId, GlobalActivityId, ProcessId, ServiceId};
use std::fmt;

/// Errors raised while *defining* a catalog, conflict relation, or process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A service id referenced something outside the catalog.
    UnknownService(ServiceId),
    /// A process id was not registered in the [`Spec`](crate::spec::Spec).
    UnknownProcess(ProcessId),
    /// An activity id was out of range for its process.
    UnknownActivity(GlobalActivityId),
    /// A compensating service was used as a regular process activity.
    ///
    /// Compensating activities only ever appear inside completions; they are
    /// not schedulable process steps (§3.1: a compensating activity is itself
    /// not compensatable and only invoked for recovery).
    CompensatingServiceInProcess {
        /// The offending process.
        process: ProcessId,
        /// The offending activity.
        activity: ActivityId,
        /// The compensating service that was (incorrectly) referenced.
        service: ServiceId,
    },
    /// The precedence order `≪` contains a cycle (it must be a strict partial
    /// order, Definition 5).
    PrecedenceCycle(ProcessId),
    /// The preference order `◁` relates two edges with different source
    /// activities; Definition 5 only defines it over pairs of connectors
    /// starting from the same activity.
    PreferenceSourceMismatch {
        /// The offending process.
        process: ProcessId,
        /// Source of the first edge.
        first_source: ActivityId,
        /// Source of the second edge.
        second_source: ActivityId,
    },
    /// The preference order `◁` over the out-edges of one activity is not a
    /// total order (the paper: "to avoid indeterminism in the execution,
    /// when, by transitivity, ◁ associates several connectors, it can only
    /// define a total order").
    PreferenceNotTotal {
        /// The offending process.
        process: ProcessId,
        /// The activity whose alternatives are ambiguous.
        source: ActivityId,
    },
    /// The preference order contains a cycle.
    PreferenceCycle {
        /// The offending process.
        process: ProcessId,
        /// The activity whose out-edges are cyclically preferred.
        source: ActivityId,
    },
    /// A preference edge referenced a precedence edge that does not exist.
    UnknownPreferenceEdge {
        /// The offending process.
        process: ProcessId,
        /// Source of the missing precedence edge.
        source: ActivityId,
        /// Target of the missing precedence edge.
        target: ActivityId,
    },
    /// The process has no activities.
    EmptyProcess(ProcessId),
    /// The process has more than one start activity (no unique root), which
    /// the flex-structure analysis requires.
    MultipleRoots(ProcessId),
    /// An activity has more than one predecessor; the guaranteed-termination
    /// analysis supports tree-structured processes (sequences with
    /// preference-ordered alternative branches), which covers the well-formed
    /// flex structures of \[ZNBB94\] used by the paper.
    NotATree {
        /// The offending process.
        process: ProcessId,
        /// The activity with several predecessors.
        activity: ActivityId,
    },
    /// A duplicate precedence edge was declared.
    DuplicateEdge {
        /// The offending process.
        process: ProcessId,
        /// Source of the duplicated edge.
        source: ActivityId,
        /// Target of the duplicated edge.
        target: ActivityId,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownService(s) => write!(f, "unknown service {s}"),
            ModelError::UnknownProcess(p) => write!(f, "unknown process {p}"),
            ModelError::UnknownActivity(a) => write!(f, "unknown activity {a}"),
            ModelError::CompensatingServiceInProcess {
                process,
                activity,
                service,
            } => write!(
                f,
                "process {process} uses compensating service {service} as regular activity {activity}"
            ),
            ModelError::PrecedenceCycle(p) => {
                write!(f, "precedence order of {p} is cyclic")
            }
            ModelError::PreferenceSourceMismatch {
                process,
                first_source,
                second_source,
            } => write!(
                f,
                "preference order of {process} relates edges with different sources {first_source} and {second_source}"
            ),
            ModelError::PreferenceNotTotal { process, source } => write!(
                f,
                "preference order of {process} does not totally order the alternatives of {source}"
            ),
            ModelError::PreferenceCycle { process, source } => write!(
                f,
                "preference order of {process} is cyclic at {source}"
            ),
            ModelError::UnknownPreferenceEdge {
                process,
                source,
                target,
            } => write!(
                f,
                "preference order of {process} references missing precedence edge {source} -> {target}"
            ),
            ModelError::EmptyProcess(p) => write!(f, "process {p} has no activities"),
            ModelError::MultipleRoots(p) => {
                write!(f, "process {p} has no unique start activity")
            }
            ModelError::NotATree { process, activity } => write!(
                f,
                "process {process} is not tree-structured: activity {activity} has several predecessors"
            ),
            ModelError::DuplicateEdge {
                process,
                source,
                target,
            } => write!(
                f,
                "process {process} declares duplicate precedence edge {source} -> {target}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// Errors raised while *replaying* or *checking* schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule references an unknown process or activity.
    Model(ModelError),
    /// An activity was scheduled although its intra-process predecessors have
    /// not all committed (violates Definition 7.1: every `≪_i ⊆ ≪_S`).
    PrecedenceViolation {
        /// The prematurely scheduled activity.
        activity: GlobalActivityId,
    },
    /// An activity was scheduled twice.
    DuplicateInvocation(GlobalActivityId),
    /// An activity of a process that already terminated was scheduled.
    ProcessAlreadyTerminated(ProcessId),
    /// An activity on an abandoned alternative branch was scheduled.
    NotOnActiveBranch(GlobalActivityId),
    /// A compensation was scheduled for an activity that is not compensatable
    /// or was never executed.
    InvalidCompensation(GlobalActivityId),
    /// A failure was recorded for a retriable activity (Definition 3:
    /// retriable activities never fail).
    RetriableCannotFail(GlobalActivityId),
    /// A commit event was recorded for a process that has not finished a
    /// valid execution path.
    PrematureCommit(ProcessId),
    /// The process could not switch to any alternative and cannot continue.
    NoAlternativeLeft(GlobalActivityId),
    /// The history's completion activities cannot all be executed: no order
    /// of them the scheduler may run exists.
    CyclicCompletionOrder,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Model(e) => write!(f, "{e}"),
            ScheduleError::PrecedenceViolation { activity } => {
                write!(
                    f,
                    "activity {activity} scheduled before its predecessors committed"
                )
            }
            ScheduleError::DuplicateInvocation(a) => {
                write!(f, "activity {a} scheduled twice")
            }
            ScheduleError::ProcessAlreadyTerminated(p) => {
                write!(f, "process {p} already terminated")
            }
            ScheduleError::NotOnActiveBranch(a) => {
                write!(f, "activity {a} is not on the active execution branch")
            }
            ScheduleError::InvalidCompensation(a) => {
                write!(f, "invalid compensation of activity {a}")
            }
            ScheduleError::RetriableCannotFail(a) => {
                write!(f, "retriable activity {a} cannot fail (Definition 3)")
            }
            ScheduleError::PrematureCommit(p) => {
                write!(
                    f,
                    "process {p} committed before finishing a valid execution path"
                )
            }
            ScheduleError::NoAlternativeLeft(a) => {
                write!(f, "no alternative left after failure of {a}")
            }
            ScheduleError::CyclicCompletionOrder => {
                write!(f, "the completion activities have no acyclic order")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<ModelError> for ScheduleError {
    fn from(e: ModelError) -> Self {
        ScheduleError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = ModelError::PrecedenceCycle(ProcessId(1));
        assert!(e.to_string().contains("P1"));
        let e =
            ScheduleError::RetriableCannotFail(GlobalActivityId::new(ProcessId(2), ActivityId(4)));
        assert!(e.to_string().contains("a2_4"));
        assert!(e.to_string().contains("Definition 3"));
    }

    #[test]
    fn model_error_converts_into_schedule_error() {
        let m = ModelError::UnknownProcess(ProcessId(9));
        let s: ScheduleError = m.clone().into();
        assert_eq!(s, ScheduleError::Model(m));
    }

    #[test]
    fn errors_implement_std_error() {
        fn assert_err<T: std::error::Error>() {}
        assert_err::<ModelError>();
        assert_err::<ScheduleError>();
    }
}
