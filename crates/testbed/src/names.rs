//! Interned endpoint names.
//!
//! Storm-scale scheduler runs (10⁵–10⁶ principals) route every wake and
//! every pending delivery by endpoint name. Keying those hot maps by
//! `String` means one allocation plus a full string hash/compare per
//! lookup, and a wake log that clones names on every delivery. This
//! module interns each distinct name once in a [`NameTable`] and hands
//! out a dense [`NameId`] — a `u32` index — so the scheduler's
//! mailboxes, the network's endpoint map, the wake log, and the
//! pending-delivery queue all work with `Copy` keys.
//!
//! Interning is append-only: names are never evicted, so a `NameId`
//! stays valid for the lifetime of its table, and the same string
//! always interns to the same id (the round-trip and no-collision
//! properties pinned in `tests/name_props.rs`).

use std::collections::HashMap;
use std::rc::Rc;

/// A dense handle for an interned endpoint name. Ids are allocated
/// sequentially from 0 by a [`NameTable`]; comparing ids from different
/// tables is meaningless.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(u32);

impl NameId {
    /// The raw dense index (0-based allocation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only intern table mapping names to dense [`NameId`]s.
#[derive(Default)]
pub struct NameTable {
    names: Vec<Rc<str>>,
    index: HashMap<Rc<str>, u32>,
}

impl NameTable {
    /// Create an empty table.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// Intern `name`, returning its id. The same string always returns
    /// the same id; a new string gets the next dense index.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return NameId(id);
        }
        let id = u32::try_from(self.names.len()).expect("name table overflow");
        let shared: Rc<str> = Rc::from(name);
        self.names.push(shared.clone());
        self.index.insert(shared, id);
        NameId(id)
    }

    /// Look up a name without interning it.
    pub fn get(&self, name: &str) -> Option<NameId> {
        self.index.get(name).copied().map(NameId)
    }

    /// Resolve an id back to its name. Panics on an id from a different
    /// (larger) table — ids cannot be forged from thin air.
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = NameTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.intern("beta"), b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = NameTable::new();
        let names = ["portal-0", "portal-1", "gateway", ""];
        let ids: Vec<NameId> = names.iter().map(|n| t.intern(n)).collect();
        for (name, id) in names.iter().zip(&ids) {
            assert_eq!(t.resolve(*id), *name);
            assert_eq!(t.get(name), Some(*id));
        }
        assert_eq!(t.get("never-interned"), None);
    }
}
