//! The one ordered fan-out: map independent items on a few scoped
//! workers and get the results back in input order.
//!
//! Parsing and the LLM sweep map files, and the coverage profile maps
//! tests; each item is independent of the others, and every report must
//! be byte-identical whatever the number of workers. [`map_with`] is the
//! worker pool for all three, and [`width`] is the number of workers the
//! front half uses.

use std::cmp::Reverse;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock};
use std::thread;

/// How many workers the front half (parse and sweep) fans out to: the
/// machine's available parallelism, which follows `taskset` and cgroup
/// CPU quotas. Read once per process. The output never depends on it.
pub fn width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Maps `items` with `f` on one worker per state and returns the results
/// in input order.
///
/// Each worker owns one state (a model, a recorder, or `()`), and the
/// caller's thread is the first worker: `n` states spawn `n - 1` threads,
/// and never more workers than items. Workers claim items from one shared
/// cursor, heaviest `weight` first and ties in input order, so a large
/// item starts early rather than finishing last. A panic in any worker
/// resumes on the caller once every worker has stopped. With one state,
/// or at most one item, the map is a plain loop on the caller's thread.
///
/// # Panics
///
/// When `f` panics, or when `states` is empty and `items` is not.
pub fn map_with<S: Send, T: Send, R: Send>(
    mut states: Vec<S>,
    items: Vec<T>,
    weight: impl Fn(&T) -> usize,
    f: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R> {
    let workers = states.len().min(items.len());
    if workers <= 1 {
        let Some(state) = states.first_mut() else {
            assert!(items.is_empty(), "map_with needs at least one state");
            return Vec::new();
        };
        return items.into_iter().map(|item| f(state, item)).collect();
    }
    let len = items.len();
    let mut queue: Vec<(usize, usize, T)> = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| (weight(&item), i, item))
        .collect();
    queue.sort_unstable_by_key(|&(weight, i, _)| (Reverse(weight), i));
    let cursor = Mutex::new(queue.into_iter());
    let work = |state: &mut S| {
        let mut done = Vec::new();
        loop {
            // The guard drops at the end of the statement: no worker holds
            // the cursor while it maps, so a panic cannot poison it.
            let claimed = cursor
                .lock()
                .expect("the cursor is never held across a panic")
                .next();
            let Some((_, i, item)) = claimed else {
                return done;
            };
            done.push((i, f(state, item)));
        }
    };
    let work = &work;
    states.truncate(workers);
    let mut states = states.into_iter();
    let mut first = states.next().expect("two or more workers");
    let mut done = thread::scope(|scope| {
        let spawned: Vec<_> = states
            .map(|mut state| scope.spawn(move || work(&mut state)))
            .collect();
        let mut done = work(&mut first);
        for handle in spawned {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(panic) => resume_unwind(panic),
            }
        }
        done
    });
    debug_assert_eq!(done.len(), len, "every item is claimed once");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn one_state_maps_on_the_callers_thread_in_input_order() {
        let caller = thread::current().id();
        let out = map_with(
            vec![0usize],
            (0..10).collect(),
            |&i| i,
            |calls, i| {
                *calls += 1;
                assert_eq!(thread::current().id(), caller);
                (i, *calls)
            },
        );
        let expected: Vec<(usize, usize)> = (0..10).zip(1..).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn no_more_workers_than_items() {
        let threads = Mutex::new(BTreeSet::new());
        let out = map_with(
            vec![(); 8],
            vec![3, 1],
            |&w| w,
            |(), item| {
                threads
                    .lock()
                    .unwrap()
                    .insert(format!("{:?}", thread::current().id()));
                item * 2
            },
        );
        assert_eq!(out, [6, 2]);
        assert!(threads.into_inner().unwrap().len() <= 2);
    }

    #[test]
    fn no_items_need_no_state() {
        let out: Vec<u8> = map_with(Vec::<()>::new(), Vec::<u8>::new(), |_| 0, |(), x| x);
        assert!(out.is_empty());
        assert!(width() >= 1);
    }
}
