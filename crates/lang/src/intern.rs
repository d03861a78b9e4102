//! Global string interning for the compile-once program index.
//!
//! Every identifier that can appear on the interpreter's hot path — class
//! names, method names, field names, local variables, exception types,
//! config keys — is interned to a dense [`Symbol`] (`u32`) when a
//! [`Project`](crate::project::Project) is compiled. The interpreter then
//! compares, hashes, and copies symbols instead of `String`s, and resolves
//! them back to text only at report/judge time.
//!
//! The [`Interner`] is frozen after compilation and shared immutably across
//! campaign workers. Names that only exist at run time (e.g. an unknown
//! method name passed to `Interp::invoke`) get ids *past* the frozen range
//! from a small per-run overlay; [`NameTable`] resolves both.
//!
//! One interning structure serves the whole front end: `NameSet`, an
//! open-addressing set of ids over a [`Names`] arena. The lexer interns each
//! file's names into one; the [`Interner`] is one over the program's
//! symbols. Either way a new string is copied once, onto the end of the
//! arena's text, and a repeat costs one hash probe.

use crate::ast::{Name, Names};
use crate::project::MethodId;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// An interned string. Dense, starting at 0, in compilation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned `Class.method` pair — the `Copy` counterpart of
/// [`MethodId`]. Call stacks, frames, and trace events carry these; they
/// are resolved back to [`MethodId`] only when a report is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodSym {
    /// Receiving (or declaring) class name.
    pub class: Symbol,
    /// Method name.
    pub name: Symbol,
}

/// An open-addressing set of the names in a [`Names`] arena, keyed by
/// their text: interning a new text appends it to the arena, and a repeat
/// finds its id. Names come from outside the program, so they hash with
/// the standard library's randomly keyed hasher: input crafted to collide
/// cannot make interning quadratic.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameSet {
    table: Names,
    /// `slot = id + 1`, 0 when empty; the length is a power of two at
    /// least twice the name count.
    slots: Vec<u32>,
    state: RandomState,
}

impl NameSet {
    /// The id of `text`, appending it to the arena if it is new.
    pub(crate) fn intern(&mut self, text: &str) -> Name {
        if self.slots.len() < 2 * (self.table.len() + 1) {
            self.grow();
        }
        match self.probe(text) {
            Ok(name) => name,
            Err(i) => {
                let name = self.table.push(text);
                self.slots[i] = name.0 + 1;
                name
            }
        }
    }

    /// The id of `text`, if it was interned.
    pub(crate) fn lookup(&self, text: &str) -> Option<Name> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(text).ok()
    }

    /// The arena of interned texts.
    pub(crate) fn names(&self) -> &Names {
        &self.table
    }

    /// Empties the set and keeps its buffers: the slots keep their
    /// length, all of them empty.
    pub(crate) fn clear(&mut self) {
        self.table.clear();
        self.slots.fill(0);
    }

    /// `Ok(id)` of `text`, or `Err(slot)` of the empty slot it would take.
    /// The table must have at least one empty slot.
    fn probe(&self, text: &str) -> Result<Name, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.state.hash_one(text) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                slot if self.table.get(Name(slot - 1)) == text => return Ok(Name(slot - 1)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(256);
        self.slots = vec![0; len];
        let mask = len - 1;
        for id in 0..self.table.len() as u32 {
            let mut i = self.state.hash_one(self.table.get(Name(id))) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = id + 1;
        }
    }
}

/// A string interner: bidirectional `String` ↔ [`Symbol`] map. A
/// `NameSet` whose names are the symbols: every string is stored once.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    set: NameSet,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `s`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Symbol {
        Symbol(self.set.intern(s).0)
    }

    /// Looks up `s` without interning it.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.set.lookup(s).map(|name| Symbol(name.0))
    }

    /// Resolves a symbol back to its string.
    ///
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.set.names().get(Name(sym.0))
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.set.names().len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.set.names().is_empty()
    }
}

/// Resolves symbols from a frozen [`Interner`] plus a per-run overlay of
/// extra names (ids `base.len()..`). Cheap to copy; borrowed by
/// interceptor contexts so fault handlers can render names on demand.
#[derive(Debug, Clone, Copy)]
pub struct NameTable<'a> {
    base: &'a Interner,
    extra: &'a [String],
}

impl<'a> NameTable<'a> {
    /// Creates a table over a frozen interner and a run-local overlay.
    pub fn new(base: &'a Interner, extra: &'a [String]) -> Self {
        NameTable { base, extra }
    }

    /// Resolves a symbol from the base interner or the overlay.
    ///
    /// Panics if `sym` is past both the frozen range and the overlay. The
    /// report/trace edges (interceptors, fault handlers) must use
    /// [`NameTable::try_resolve`] / [`NameTable::method_display`] instead:
    /// a symbol minted in *another* interpreter's runtime overlay is
    /// legitimately absent here, and a panic at those edges would be
    /// contained by the engine into a bogus `Crashed` record.
    pub fn resolve(&self, sym: Symbol) -> &'a str {
        self.try_resolve(sym)
            .unwrap_or_else(|| panic!("symbol {sym} out of range for this name table"))
    }

    /// Resolves a symbol, returning `None` for ids past both the frozen
    /// interner and this table's overlay (e.g. a name minted at run time
    /// by a different interpreter).
    pub fn try_resolve(&self, sym: Symbol) -> Option<&'a str> {
        let idx = sym.index();
        if idx < self.base.len() {
            Some(self.base.resolve(sym))
        } else {
            self.extra.get(idx - self.base.len()).map(String::as_str)
        }
    }

    /// Renders a symbol, degrading unresolvable ids to a `<s42?>` marker
    /// instead of panicking.
    fn render(&self, sym: Symbol) -> String {
        match self.try_resolve(sym) {
            Some(name) => name.to_string(),
            None => format!("<{sym}?>"),
        }
    }

    /// Resolves a method symbol to an owned [`MethodId`]. Total: ids
    /// outside this table render as `<s42?>` markers.
    pub fn method_id(&self, m: MethodSym) -> MethodId {
        MethodId::new(self.render(m.class), self.render(m.name))
    }

    /// Renders a method symbol as `Class.method` (the [`MethodId`] display
    /// format). Total: ids outside this table render as `<s42?>` markers.
    pub fn method_display(&self, m: MethodSym) -> String {
        format!("{}.{}", self.render(m.class), self.render(m.name))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolves() {
        let mut interner = Interner::new();
        let a = interner.intern("alpha");
        let b = interner.intern("beta");
        assert_ne!(a, b);
        assert_eq!(interner.intern("alpha"), a);
        assert_eq!(interner.resolve(a), "alpha");
        assert_eq!(interner.resolve(b), "beta");
        assert_eq!(interner.lookup("beta"), Some(b));
        assert_eq!(interner.lookup("gamma"), None);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn name_table_resolves_overlay_past_base() {
        let mut interner = Interner::new();
        let a = interner.intern("A");
        let extra = vec!["runtimeName".to_string()];
        let table = NameTable::new(&interner, &extra);
        assert_eq!(table.resolve(a), "A");
        assert_eq!(table.resolve(Symbol(1)), "runtimeName");
        let m = MethodSym {
            class: a,
            name: Symbol(1),
        };
        assert_eq!(table.method_display(m), "A.runtimeName");
        assert_eq!(table.method_id(m), MethodId::new("A", "runtimeName"));
    }

    /// Regression: a symbol minted in one interpreter's runtime overlay is
    /// absent from a table built over the frozen interner alone. The old
    /// `resolve` path indexed out of bounds and panicked — which the
    /// engine's panic containment then mislabelled as a run crash. Display
    /// edges must degrade to a marker instead.
    #[test]
    fn display_edges_degrade_for_foreign_runtime_symbols() {
        let mut interner = Interner::new();
        let a = interner.intern("A");
        // Frozen table: no overlay. Symbol 7 was minted elsewhere.
        let table = NameTable::new(&interner, &[]);
        let foreign = Symbol(7);
        assert_eq!(table.try_resolve(a), Some("A"));
        assert_eq!(table.try_resolve(foreign), None);
        let m = MethodSym {
            class: a,
            name: foreign,
        };
        assert_eq!(table.method_display(m), "A.<s7?>");
        assert_eq!(table.method_id(m), MethodId::new("A", "<s7?>"));
    }
}
