//! The physical data model of a simulated subsystem: a keyed store of
//! integer values, mutated by small operation programs.
//!
//! Services in the paper are semantically rich operations; what makes two
//! services conflict is that their return values depend on execution order.
//! We materialize that with read/add/set operations over keys: two programs
//! conflict physically when one writes a key the other reads or writes
//! non-commutatively.

use std::fmt;

/// A storage key within one subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A stored value.
pub type Value = i64;

/// One primitive operation of a service program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key; the value becomes part of the service's return value.
    Read(Key),
    /// Add a delta to a key (commutes with other adds on the same key).
    Add(Key, Value),
    /// Overwrite a key (does not commute with anything on the same key).
    Set(Key, Value),
}

impl KvOp {
    /// The key this operation touches.
    pub fn key(&self) -> Key {
        match self {
            KvOp::Read(k) | KvOp::Add(k, _) | KvOp::Set(k, _) => *k,
        }
    }

    /// Whether the operation writes.
    pub fn is_write(&self) -> bool {
        !matches!(self, KvOp::Read(_))
    }
}

/// The physical program run by one service invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// Operations in order.
    pub ops: Vec<KvOp>,
}

impl Program {
    /// An empty (pure) program.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A single-read program.
    pub fn read(key: Key) -> Self {
        Self {
            ops: vec![KvOp::Read(key)],
        }
    }

    /// A single-add program.
    pub fn add(key: Key, delta: Value) -> Self {
        Self {
            ops: vec![KvOp::Add(key, delta)],
        }
    }

    /// A single-set program.
    pub fn set(key: Key, value: Value) -> Self {
        Self {
            ops: vec![KvOp::Set(key, value)],
        }
    }

    /// Appends an operation.
    pub fn then(mut self, op: KvOp) -> Self {
        self.ops.push(op);
        self
    }

    /// All keys written by the program.
    pub fn write_set(&self) -> Vec<Key> {
        self.ops
            .iter()
            .filter(|o| o.is_write())
            .map(KvOp::key)
            .collect()
    }

    /// All keys read by the program.
    pub fn read_set(&self) -> Vec<Key> {
        self.ops
            .iter()
            .filter(|o| !o.is_write())
            .map(KvOp::key)
            .collect()
    }

    /// Whether two programs physically conflict: one writes a key the other
    /// touches, with commuting add/add pairs excluded.
    pub fn conflicts_with(&self, other: &Program) -> bool {
        for a in &self.ops {
            for b in &other.ops {
                if a.key() != b.key() {
                    continue;
                }
                match (a, b) {
                    (KvOp::Read(_), KvOp::Read(_)) => {}
                    (KvOp::Add(_, _), KvOp::Add(_, _)) => {}
                    _ if a.is_write() || b.is_write() => return true,
                    _ => {}
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_sets() {
        let p = Program::read(Key(1))
            .then(KvOp::Add(Key(2), 5))
            .then(KvOp::Set(Key(3), 7));
        assert_eq!(p.read_set(), vec![Key(1)]);
        assert_eq!(p.write_set(), vec![Key(2), Key(3)]);
    }

    #[test]
    fn adds_commute_on_same_key() {
        let a = Program::add(Key(1), 2);
        let b = Program::add(Key(1), 3);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn set_conflicts_with_everything_on_key() {
        let s = Program::set(Key(1), 9);
        assert!(s.conflicts_with(&Program::read(Key(1))));
        assert!(s.conflicts_with(&Program::add(Key(1), 1)));
        assert!(s.conflicts_with(&Program::set(Key(1), 2)));
        assert!(!s.conflicts_with(&Program::set(Key(2), 2)));
    }

    #[test]
    fn reads_never_conflict() {
        let a = Program::read(Key(1));
        let b = Program::read(Key(1));
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn write_read_conflicts() {
        let w = Program::add(Key(1), 1);
        let r = Program::read(Key(1));
        assert!(w.conflicts_with(&r));
        assert!(r.conflicts_with(&w));
    }

    #[test]
    fn empty_program_conflicts_nothing() {
        assert!(!Program::empty().conflicts_with(&Program::set(Key(1), 1)));
    }
}
