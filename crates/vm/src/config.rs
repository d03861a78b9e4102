//! Application configuration store.
//!
//! Javelin programs declare keys with `config "key" default <lit>;` and read
//! or write them at run time with the `getConfig`/`setConfig` builtins. The
//! planner's configuration-restoration pass (§3.1.4 of the paper) works by
//! overriding test-local writes to retry-related keys back to these defaults.
//!
//! Declared keys get dense ids at compile time (see
//! [`ProgramIndex::configs`](wasabi_lang::index::ProgramIndex)); their state
//! lives in a plain `Vec` indexed by id. Undeclared keys — `setConfig` on a
//! key no `config` declaration names — still work through a string-keyed
//! side table, preserving the original store's semantics.

use crate::value::Value;
use std::collections::HashMap;
use wasabi_lang::ast::Literal;
use wasabi_lang::index::ProgramIndex;

/// Per-declared-key runtime state.
#[derive(Debug, Clone)]
struct ConfigSlot {
    default: Value,
    over: Option<Value>,
    pinned: bool,
}

/// Runtime configuration: declared defaults plus runtime overrides.
#[derive(Debug, Clone, Default)]
pub struct ConfigStore {
    /// Declared keys, indexed by config id.
    slots: Vec<ConfigSlot>,
    /// Overrides for undeclared keys.
    extra: HashMap<String, Value>,
    /// Pinned undeclared keys.
    extra_pinned: Vec<String>,
}

/// Converts a declaration literal to a runtime value.
pub fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(v) => Value::Int(*v),
        Literal::Str(s) => Value::str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

impl ConfigStore {
    /// Builds a store from the program index's declared config defaults.
    pub fn from_index(index: &ProgramIndex) -> Self {
        ConfigStore {
            slots: index
                .configs
                .iter()
                .map(|c| ConfigSlot {
                    default: literal_value(&c.default),
                    over: None,
                    pinned: false,
                })
                .collect(),
            extra: HashMap::new(),
            extra_pinned: Vec::new(),
        }
    }

    /// Reads a declared key by id: override first, then default.
    pub fn get_id(&self, id: u32) -> Value {
        let slot = &self.slots[id as usize];
        slot.over.clone().unwrap_or_else(|| slot.default.clone())
    }

    /// Writes a declared key by id. Writes to pinned keys are silently
    /// ignored, modeling WASABI restoring default retry configurations in
    /// repurposed tests.
    pub fn set_id(&mut self, id: u32, value: Value) {
        let slot = &mut self.slots[id as usize];
        if !slot.pinned {
            slot.over = Some(value);
        }
    }

    /// Pins a declared key to its default: the override is dropped and
    /// subsequent `setConfig` calls are ignored.
    pub fn pin_id(&mut self, id: u32) {
        let slot = &mut self.slots[id as usize];
        slot.over = None;
        slot.pinned = true;
    }

    /// Reads an undeclared key: override or `null`.
    pub fn get_undeclared(&self, key: &str) -> Value {
        self.extra.get(key).cloned().unwrap_or(Value::Null)
    }

    /// Writes an undeclared key (unless pinned).
    pub fn set_undeclared(&mut self, key: &str, value: Value) {
        if self.extra_pinned.iter().any(|p| p == key) {
            return;
        }
        self.extra.insert(key.to_string(), value);
    }

    /// Pins an undeclared key (it reads as `null` and ignores writes).
    pub fn pin_undeclared(&mut self, key: &str) {
        self.extra.remove(key);
        if !self.extra_pinned.iter().any(|p| p == key) {
            self.extra_pinned.push(key.to_string());
        }
    }

    /// Drops all runtime overrides (fresh-test semantics).
    pub fn reset_overrides(&mut self) {
        for slot in &mut self.slots {
            slot.over = None;
        }
        self.extra.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::project::Project;

    fn store() -> (ConfigStore, u32) {
        let p = Project::compile(
            "t",
            vec![("c.jav", "config \"retry.max\" default 5;\nclass A { }")],
        )
        .unwrap();
        let id = p.index().config_by_name("retry.max").unwrap();
        (ConfigStore::from_index(p.index()), id)
    }

    #[test]
    fn get_falls_back_to_default_then_null() {
        let (s, id) = store();
        assert!(s.get_id(id).value_eq(&Value::Int(5)));
        assert!(s.get_undeclared("missing").value_eq(&Value::Null));
    }

    #[test]
    fn set_overrides_until_reset() {
        let (mut s, id) = store();
        s.set_id(id, Value::Int(0));
        assert!(s.get_id(id).value_eq(&Value::Int(0)));
        s.set_undeclared("ad.hoc", Value::Bool(true));
        assert!(s.get_undeclared("ad.hoc").value_eq(&Value::Bool(true)));
        s.reset_overrides();
        assert!(s.get_id(id).value_eq(&Value::Int(5)));
        assert!(s.get_undeclared("ad.hoc").value_eq(&Value::Null));
    }

    #[test]
    fn pinned_keys_ignore_writes() {
        let (mut s, id) = store();
        s.set_id(id, Value::Int(0));
        s.pin_id(id);
        assert!(s.get_id(id).value_eq(&Value::Int(5)), "pin clears override");
        s.set_id(id, Value::Int(1));
        assert!(s.get_id(id).value_eq(&Value::Int(5)), "pin blocks writes");
        s.set_undeclared("other", Value::Int(9));
        s.pin_undeclared("other");
        assert!(s.get_undeclared("other").value_eq(&Value::Null));
        s.set_undeclared("other", Value::Int(9));
        assert!(s.get_undeclared("other").value_eq(&Value::Null));
    }
}
