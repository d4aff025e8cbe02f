//! Strongly-typed identifiers for the process model.
//!
//! The paper works with three kinds of named entities:
//!
//! * *services* — the members of the global service set Â provided by the
//!   transactional subsystems (§3.1),
//! * *processes* — transactional processes `P_i` (Definition 5),
//! * *activities* — invocations of services inside a process, written
//!   `a_{i_k}` where `i` is the process id and `k` the activity id local to
//!   the process.
//!
//! Each gets its own newtype so the type system rules out mixing them up.
//! All ids are small integers; human-readable names live in the
//! [`Catalog`](crate::activity::Catalog) and [`Process`](crate::process::Process)
//! definitions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a service in the global service set Â.
///
/// Compensating services (`a⁻¹`) are ordinary members of Â with their own
/// `ServiceId`; the [`Catalog`](crate::activity::Catalog) records the link to
/// their base service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServiceId(pub u32);

/// Identifier of a transactional process `P_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(pub u32);

/// Identifier of an activity local to one process: the `k` in `a_{i_k}`.
///
/// It doubles as the index into [`Process::activities`](crate::process::Process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ActivityId(pub u32);

/// Globally unique activity identifier: the full `a_{i_k}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GlobalActivityId {
    /// The process the activity belongs to (the `i` in `a_{i_k}`).
    pub process: ProcessId,
    /// The activity id within that process (the `k` in `a_{i_k}`).
    pub activity: ActivityId,
}

impl GlobalActivityId {
    /// Convenience constructor.
    #[inline]
    pub const fn new(process: ProcessId, activity: ActivityId) -> Self {
        Self { process, activity }
    }
}

impl ServiceId {
    /// The raw index, usable for dense tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl ProcessId {
    /// The raw index, usable for dense tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl ActivityId {
    /// The raw index into the owning process's activity table.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A map keyed by ids, kept as one vector of entries sorted by id: a lookup
/// is a binary search over contiguous memory, with no node to chase and no
/// allocation per entry. It is the id-keyed table of the schedulers' state —
/// the protocol's process indices and service slots and the certifier's
/// (`u32` dense indices, the default) — whose keys are the few dozen ids of
/// one conflict domain, so an insertion's shift is a short copy. Iteration
/// is ascending by id, as a `BTreeMap`'s. (A shard finds its member slots by
/// position instead, through a run-wide table indexed by pid.)
#[derive(Clone, PartialEq, Eq)]
pub struct IdIndex<K, V = u32> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for IdIndex<K, V> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> IdIndex<K, V> {
    /// An empty index (allocates nothing).
    pub const fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// An empty index with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            entries: Vec::with_capacity(n),
        }
    }

    #[inline]
    fn find(&self, key: K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// The value of `key`, if it has one.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value of `key`, mutably, if it has one.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Gives `key` the value `value`; returns the one it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`'s entry, and only that one; returns its value.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let i = self.find(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, ascending by id.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (K, &V)> + DoubleEndedIterator {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

/// `index[key]`: the value of a key the index holds; panics on any other.
impl<K: Ord + Copy + fmt::Debug, V> std::ops::Index<K> for IdIndex<K, V> {
    type Output = V;

    #[inline]
    fn index(&self, key: K) -> &V {
        self.get(key)
            .unwrap_or_else(|| panic!("no entry for {key:?}"))
    }
}

impl<K: Ord + Copy + fmt::Debug, V> std::ops::IndexMut<K> for IdIndex<K, V> {
    #[inline]
    fn index_mut(&mut self, key: K) -> &mut V {
        self.get_mut(key)
            .unwrap_or_else(|| panic!("no entry for {key:?}"))
    }
}

impl<K: Ord + Copy, V> FromIterator<(K, V)> for IdIndex<K, V> {
    /// Collects the entries; a repeated id keeps its last value.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut index = Self::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            index.insert(k, v);
        }
        index
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for IdIndex<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.entries.iter().map(|(k, v)| (k, v));
        f.debug_map().entries(entries).finish()
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for GlobalActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Matches the paper's subscript convention `a_{i_k}`.
        write!(f, "a{}_{}", self.process.0, self.activity.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn display_matches_paper_convention() {
        let gid = GlobalActivityId::new(ProcessId(1), ActivityId(3));
        assert_eq!(gid.to_string(), "a1_3");
        assert_eq!(ProcessId(2).to_string(), "P2");
        assert_eq!(ActivityId(7).to_string(), "a7");
        assert_eq!(ServiceId(4).to_string(), "svc4");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = BTreeSet::new();
        set.insert(GlobalActivityId::new(ProcessId(1), ActivityId(2)));
        set.insert(GlobalActivityId::new(ProcessId(1), ActivityId(1)));
        set.insert(GlobalActivityId::new(ProcessId(0), ActivityId(9)));
        let v: Vec<_> = set.into_iter().collect();
        assert_eq!(
            v,
            vec![
                GlobalActivityId::new(ProcessId(0), ActivityId(9)),
                GlobalActivityId::new(ProcessId(1), ActivityId(1)),
                GlobalActivityId::new(ProcessId(1), ActivityId(2)),
            ]
        );
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(ServiceId(5).index(), 5);
        assert_eq!(ProcessId(6).index(), 6);
        assert_eq!(ActivityId(7).index(), 7);
    }

    #[test]
    fn id_index_is_a_sorted_map() {
        let mut index = IdIndex::new();
        assert_eq!(index.insert(ProcessId(7), 0), None);
        assert_eq!(index.insert(ProcessId(2), 1), None);
        assert_eq!(index.insert(ProcessId(9), 2), None);
        assert_eq!(index.insert(ProcessId(2), 3), Some(1), "replaces");
        let entries: Vec<_> = index.iter().collect();
        assert_eq!(
            entries,
            [(ProcessId(2), &3), (ProcessId(7), &0), (ProcessId(9), &2)]
        );
        assert_eq!(index.get(ProcessId(7)), Some(&0));
        assert_eq!(index.get(ProcessId(8)), None);
        index[ProcessId(9)] += 5;
        assert_eq!(index[ProcessId(9)], 7);
        *index.get_mut(ProcessId(2)).unwrap() *= 2;
        assert_eq!(index.iter().next_back(), Some((ProcessId(9), &7)));
        assert_eq!(
            format!("{index:?}"),
            "{ProcessId(2): 6, ProcessId(7): 0, ProcessId(9): 7}"
        );
    }

    #[test]
    #[should_panic(expected = "no entry for ProcessId(3)")]
    fn id_index_panics_on_a_missing_key() {
        let index: IdIndex<ProcessId, &str> = [(ProcessId(1), "one")].into_iter().collect();
        let _ = index[ProcessId(3)];
    }

    #[test]
    fn id_index_remove_takes_exactly_its_entry() {
        let mut index: IdIndex<ServiceId> =
            [(ServiceId(4), 0), (ServiceId(1), 1)].into_iter().collect();
        let before = index.clone();
        assert_eq!(index.insert(ServiceId(3), 2), None);
        assert_eq!(index.remove(ServiceId(3)), Some(2));
        assert_eq!(
            index, before,
            "an insert and its removal leave nothing behind"
        );
        assert_eq!(index.remove(ServiceId(3)), None);
        assert_eq!(index.remove(ServiceId(1)), Some(1));
        assert_eq!(index.len(), 1);
        assert_eq!(index.remove(ServiceId(4)), Some(0));
        assert!(index.is_empty());
        assert_eq!(index, IdIndex::default());
    }

    #[test]
    fn ids_implement_serde_traits() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<ServiceId>();
        assert_serde::<ProcessId>();
        assert_serde::<ActivityId>();
        assert_serde::<GlobalActivityId>();
    }
}
