//! LRU cache of compiled apps, keyed by
//! [`app_key`](crate::protocol::app_key).
//!
//! Compilation plus identification is the expensive front half of a
//! campaign (interning, lowering, the LLM sweep); a repeat submission of
//! the same sources skips it entirely by hitting this cache. Entries are
//! `Arc<AppJob>` so a runner can hold a compiled app while another
//! submission evicts it.

use std::collections::VecDeque;
use std::sync::Arc;
use wasabi_core::AppJob;

/// A small LRU over compiled apps. Linear scans are fine: the capacity is
/// single digits (the daemon default is 8) and entries are compared by
/// `u64` key.
#[derive(Debug)]
pub struct IndexCache {
    capacity: usize,
    /// Front is least-recently-used; back is most-recently-used.
    entries: VecDeque<(u64, Arc<AppJob>)>,
    /// Lookups that found a compiled app.
    pub hits: u64,
    /// Compiled apps inserted, each after a lookup that missed.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evicted: u64,
}

impl IndexCache {
    /// A cache holding at most `capacity` compiled apps (min 1).
    pub fn new(capacity: usize) -> Self {
        IndexCache {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
            hits: 0,
            misses: 0,
            evicted: 0,
        }
    }

    /// Number of cached apps.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a compiled app by key, marking it most-recently-used.
    pub fn get(&mut self, key: u64) -> Option<Arc<AppJob>> {
        let index = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(index).expect("index from position");
        let job = Arc::clone(&entry.1);
        self.entries.push_back(entry);
        self.hits += 1;
        Some(job)
    }

    /// Inserts a freshly compiled app under `key`, evicting the
    /// least-recently-used entry if over capacity. Re-inserting an
    /// existing key refreshes its position.
    pub fn insert(&mut self, key: u64, job: Arc<AppJob>) {
        if let Some(index) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(index);
        }
        self.entries.push_back((key, job));
        self.misses += 1;
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{app_key, file_digests};
    use wasabi_core::compile_app;

    /// A compiled one-file app and its cache key.
    fn job(tag: &str) -> (u64, Arc<AppJob>) {
        // Distinct sources per tag → distinct digests.
        let path = format!("{tag}.jav");
        let src = format!(
            "exception E;\nclass C{tag} {{\n  method op() throws E {{ return \"ok\"; }}\n  test t() {{ assert(this.op() == \"ok\"); }}\n}}\n"
        );
        let digest = file_digests([src.as_str()])[0];
        let key = app_key("cli", &[(path.clone(), digest)]);
        let job = compile_app("cli", vec![(path, src)], 0).expect("compile");
        (key, Arc::new(job))
    }

    #[test]
    fn get_hits_after_insert_and_counts() {
        let mut cache = IndexCache::new(2);
        let (key, a) = job("A");
        assert!(cache.get(key).is_none());
        cache.insert(key, Arc::clone(&a));
        let hit = cache.get(key).expect("hit");
        assert!(Arc::ptr_eq(&hit, &a));
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = IndexCache::new(2);
        let (a, b, c) = (job("A"), job("B"), job("C"));
        cache.insert(a.0, Arc::clone(&a.1));
        cache.insert(b.0, Arc::clone(&b.1));
        // Touch A so B becomes the LRU entry.
        cache.get(a.0).expect("a cached");
        cache.insert(c.0, Arc::clone(&c.1));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(b.0).is_none(), "B was evicted");
        assert!(cache.get(a.0).is_some());
        assert!(cache.get(c.0).is_some());
        assert_eq!(cache.evicted, 1);
    }
}
