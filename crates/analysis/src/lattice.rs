//! Transient-vs-fatal exception lattice (retry-policy classification).
//!
//! Retrying is only sensible when the failure might go away on its own.
//! This module classifies every exception of a program as **transient**
//! (connectivity, timeouts — worth retrying), **fatal** (programming or
//! permanent-state errors — retrying cannot help), or **unknown**, by
//! seeding well-known type names and propagating the classification down
//! the declared exception hierarchy: a subtype inherits its closest
//! classified ancestor unless its own name is seeded.
//!
//! The lattice order is `Unknown ⊑ {Transient, Fatal}` with
//! `join(Transient, Fatal) = Unknown`: conflicting evidence degrades to
//! "don't know" rather than picking a side. The W004 checker only acts on
//! `Fatal`, so `Unknown` is always safe.

use wasabi_lang::index::{ExcId, ProgramIndex};

/// Retry-worthiness of an exception type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transience {
    /// The failure may heal by itself; retrying is a sensible policy.
    Transient,
    /// The failure is permanent (bad input, broken invariant, state that
    /// already exists); retrying burns attempts without hope.
    Fatal,
    /// No evidence either way.
    Unknown,
}

impl Transience {
    /// Lattice join: agreement keeps the class, conflict degrades to
    /// [`Transience::Unknown`].
    pub fn join(self, other: Transience) -> Transience {
        match (self, other) {
            (Transience::Unknown, x) | (x, Transience::Unknown) => x,
            (a, b) if a == b => a,
            _ => Transience::Unknown,
        }
    }
}

/// Exception names seeded transient: network, timeout, and coordination
/// failures the corpus applications retry as a matter of policy.
const TRANSIENT_SEEDS: [&str; 8] = [
    "ConnectException",
    "IOException",
    "KeeperException",
    "SocketException",
    "SocketTimeoutException",
    "TimeoutException",
    "TransportError",
    "UnavailableException",
];

/// Exception names seeded fatal: contract violations and permanent-state
/// errors where a retry re-runs the same doomed operation.
const FATAL_SEEDS: [&str; 9] = [
    "AccessControlException",
    "ArithmeticException",
    "AssertionError",
    "FileExistsException",
    "FileNotFoundException",
    "IllegalArgumentException",
    "IllegalStateException",
    "NullPointerException",
    "UnsupportedOperationException",
];

/// Dense per-[`ExcId`] classification for one program.
#[derive(Debug)]
pub struct ExcLattice {
    classes: Vec<Transience>,
}

impl ExcLattice {
    /// Classifies every exception of the program: own-name seeds win,
    /// otherwise the classification of the nearest classified ancestor is
    /// inherited, and the root stays [`Transience::Unknown`].
    pub fn build(index: &ProgramIndex) -> ExcLattice {
        let classes = (0..index.exceptions.len())
            .map(|id| classify_chain(index, ExcId(id as u32), 0))
            .collect();
        ExcLattice { classes }
    }

    /// Classification of `exc`.
    pub fn classify(&self, exc: ExcId) -> Transience {
        self.classes
            .get(exc.0 as usize)
            .copied()
            .unwrap_or(Transience::Unknown)
    }

    /// Classification of an exception by type name; unknown names (not in
    /// the program) fall back to the seed tables alone.
    pub fn classify_name(&self, index: &ProgramIndex, name: &str) -> Transience {
        match index.exc_by_name(name) {
            Some(id) => self.classify(id),
            None => seed_of(name),
        }
    }
}

/// Seed classification by exact type name.
fn seed_of(name: &str) -> Transience {
    if TRANSIENT_SEEDS.contains(&name) {
        Transience::Transient
    } else if FATAL_SEEDS.contains(&name) {
        Transience::Fatal
    } else {
        Transience::Unknown
    }
}

/// Walks the parent chain until a seeded name is found. Depth-capped so a
/// (rejected-at-compile-time) cyclic hierarchy cannot hang the analysis.
fn classify_chain(index: &ProgramIndex, exc: ExcId, depth: usize) -> Transience {
    if depth > 64 {
        return Transience::Unknown;
    }
    let def = &index.exceptions[exc.0 as usize];
    match seed_of(&def.name_str) {
        Transience::Unknown => match def.parent {
            Some(parent) => classify_chain(index, parent, depth + 1),
            None => Transience::Unknown,
        },
        seeded => seeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::project::Project;

    fn lattice(src: &str) -> (Project, Vec<(String, Transience)>) {
        let p = Project::compile("t", vec![("t.jav", src)]).expect("compile");
        let lat = ExcLattice::build(p.index());
        let classes = p
            .index()
            .exceptions
            .iter()
            .enumerate()
            .map(|(i, def)| (def.name_str.clone(), lat.classify(ExcId(i as u32))))
            .collect();
        (p, classes)
    }

    fn class_of(classes: &[(String, Transience)], name: &str) -> Transience {
        classes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap_or_else(|| panic!("{name} not classified"))
    }

    #[test]
    fn seeds_classify_directly() {
        let (_, classes) = lattice(
            "exception ConnectException;\n\
             exception FileExistsException;\n\
             exception MetaException;\n\
             class C { method m() { return 1; } }\n",
        );
        assert_eq!(
            class_of(&classes, "ConnectException"),
            Transience::Transient
        );
        assert_eq!(class_of(&classes, "FileExistsException"), Transience::Fatal);
        assert_eq!(class_of(&classes, "MetaException"), Transience::Unknown);
    }

    #[test]
    fn subtypes_inherit_the_nearest_classified_ancestor() {
        let (_, classes) = lattice(
            "exception TransportError;\n\
             exception WireException extends TransportError;\n\
             exception FileExistsException;\n\
             exception ShardFileExists extends FileExistsException;\n",
        );
        assert_eq!(class_of(&classes, "WireException"), Transience::Transient);
        assert_eq!(class_of(&classes, "ShardFileExists"), Transience::Fatal);
    }

    #[test]
    fn own_seed_overrides_the_parent() {
        // A "TimeoutException extends IllegalStateException" hierarchy is
        // odd, but the child's own seed must win over the fatal parent.
        let (_, classes) = lattice(
            "exception IllegalCapacityException;\n\
             exception TimeoutException extends IllegalCapacityException;\n",
        );
        assert_eq!(class_of(&classes, "TimeoutException"), Transience::Transient);
    }

    #[test]
    fn join_degrades_conflicts_to_unknown() {
        assert_eq!(
            Transience::Transient.join(Transience::Fatal),
            Transience::Unknown
        );
        assert_eq!(
            Transience::Fatal.join(Transience::Fatal),
            Transience::Fatal
        );
        assert_eq!(
            Transience::Unknown.join(Transience::Transient),
            Transience::Transient
        );
    }

    #[test]
    fn unknown_names_fall_back_to_seed_tables() {
        let (p, _) = lattice("exception MetaException;\n");
        let lat = ExcLattice::build(p.index());
        assert_eq!(
            lat.classify_name(p.index(), "SocketTimeoutException"),
            Transience::Transient
        );
        assert_eq!(
            lat.classify_name(p.index(), "NullPointerException"),
            Transience::Fatal
        );
        assert_eq!(
            lat.classify_name(p.index(), "NoSuchThing"),
            Transience::Unknown
        );
    }
}
