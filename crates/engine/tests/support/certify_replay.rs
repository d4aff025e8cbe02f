//! The certifier calls of a journalled run, replayed in the order the run
//! made them. Shared by the tests that hold each certification to a count
//! or a reference (each includes this file by path).

use txproc_core::domains::DomainPartition;
use txproc_core::pred_incremental::IncrementalPred;
use txproc_core::schedule::{Event, Schedule};
use txproc_core::trace::{TraceEvent, TraceRecord};

/// The history's projection onto each conflict domain, i.e. each shard's
/// own history. A group abort is split along the domains of its members.
pub fn per_shard(partition: &DomainPartition, history: &Schedule) -> Vec<Schedule> {
    let domain = |pid| partition.domain_of(pid).expect("partitioned process") as usize;
    let mut out = vec![Schedule::new(); partition.domain_count()];
    for e in history.events() {
        let Event::GroupAbort(ps) = e else {
            out[domain(e.processes()[0])].push(e.clone());
            continue;
        };
        for (d, local) in out.iter_mut().enumerate() {
            let members: Vec<_> = ps.iter().copied().filter(|&p| domain(p) == d).collect();
            if !members.is_empty() {
                local.push(Event::GroupAbort(members));
            }
        }
    }
    out
}

/// Replays every `CertifyOutcome` of `records` on its shard's certifier:
/// `locals[s]` is shard `s`'s history, and a record that names no shard is
/// the engine's, whose one history is `locals[0]`. Before each
/// certification the certifier absorbs the history events emitted since
/// its last one (`record`); then `certify` gets it with the candidate and
/// the run's verdict.
pub fn replay<'a>(
    certifiers: &mut [IncrementalPred<'a>],
    locals: &[Schedule],
    records: &[TraceRecord],
    mut certify: impl FnMut(&mut IncrementalPred<'a>, &Event, bool),
) {
    for rec in records {
        let TraceEvent::CertifyOutcome { event, ok, .. } = &rec.event else {
            continue;
        };
        let s = rec.shard.map_or(0, |s| s as usize);
        let (inc, local) = (&mut certifiers[s], locals[s].events());
        while inc.len() < rec.history_len {
            inc.record(&local[inc.len()])
                .expect("a recorded event is legal");
        }
        certify(inc, event, *ok);
    }
}
