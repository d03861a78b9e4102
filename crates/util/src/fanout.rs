//! The one ordered fan-out: map independent items on a few scoped
//! workers and get the results back in input order.
//!
//! Parsing, validation and the LLM sweep map files, and the coverage
//! profile maps tests; each item is independent of the others, and every
//! report must be byte-identical whatever the number of workers.
//! [`map_beside`] is the worker pool for all of them: it also runs one
//! independent task on the caller's thread before the caller joins the
//! map, so the link's index build, `wasabi lint`'s checkers and
//! `identify`'s control-flow query run beside the validation or the sweep
//! without a thread of their own. [`map_with`] is the map with nothing
//! beside it, and [`width`] is the number of workers the front half uses.

use std::cmp::Reverse;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock};
use std::thread;

/// How many workers the front half (parse, link and sweep) fans out to:
/// the machine's available parallelism, which follows `taskset` and
/// cgroup CPU quotas. Read once per process. The output never depends on
/// it.
pub fn width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// [`map_beside`] with nothing beside the map.
///
/// # Panics
///
/// When `f` panics, or when `states` is empty and `items` is not.
pub fn map_with<S: Send, T: Send, R: Send>(
    states: Vec<S>,
    items: Vec<T>,
    weight: impl Fn(&T) -> usize,
    f: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R> {
    map_beside(states, items, weight, f, || ()).0
}

/// Maps `items` with `f` on one worker per state and returns the results
/// in input order, together with what `beside` returned.
///
/// Each worker owns one state (a model, a scratch buffer, or `()`), and
/// the caller's thread is the first worker: `n` states spawn `n - 1`
/// threads, and never more workers than items. The caller runs `beside`
/// first, once, and then joins the map, so an independent task overlaps
/// the map without a thread of its own. Workers claim items from one
/// shared cursor, heaviest `weight` first and ties in input order, so a
/// large item starts early rather than finishing last. A panic in any
/// worker, or in `beside`, resumes on the caller with its own payload
/// once every worker has stopped. With one state, or at most one item,
/// the caller runs `beside` and then the map as a plain loop.
///
/// # Panics
///
/// When `f` or `beside` panics, or when `states` is empty and `items` is
/// not.
pub fn map_beside<S: Send, T: Send, R: Send, B>(
    mut states: Vec<S>,
    items: Vec<T>,
    weight: impl Fn(&T) -> usize,
    f: impl Fn(&mut S, T) -> R + Sync,
    beside: impl FnOnce() -> B,
) -> (Vec<R>, B) {
    let workers = states.len().min(items.len());
    if workers <= 1 {
        assert!(
            !states.is_empty() || items.is_empty(),
            "map_beside needs at least one state"
        );
        let beside = beside();
        let mapped = match states.first_mut() {
            Some(state) => items.into_iter().map(|item| f(state, item)).collect(),
            None => Vec::new(),
        };
        return (mapped, beside);
    }
    let len = items.len();
    // Heaviest first, ties in input order. The keys are sorted and each
    // item moved into its place once: an item can be large.
    let mut order: Vec<(Reverse<usize>, usize)> = items
        .iter()
        .enumerate()
        .map(|(i, item)| (Reverse(weight(item)), i))
        .collect();
    order.sort_unstable();
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let queue: Vec<(usize, T)> = order
        .into_iter()
        .map(|(_, i)| (i, slots[i].take().expect("each index is in the order once")))
        .collect();
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
            let Some((i, item)) = claimed else {
                return done;
            };
            done.push((i, f(state, item)));
        }
    };
    let work = &work;
    states.truncate(workers);
    let mut states = states.into_iter();
    let mut first = states.next().expect("two or more workers");
    let (done, beside) = thread::scope(|scope| {
        let spawned: Vec<_> = states
            .map(|mut state| scope.spawn(move || work(&mut state)))
            .collect();
        let beside = beside();
        let mut done = work(&mut first);
        for handle in spawned {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(panic) => resume_unwind(panic),
            }
        }
        (done, beside)
    });
    let mut results: Vec<Option<R>> = (0..len).map(|_| None).collect();
    for (i, result) in done {
        results[i] = Some(result);
    }
    let results = results
        .into_iter()
        .map(|result| result.expect("every item is claimed once"))
        .collect();
    (results, beside)
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
    fn beside_runs_once_on_the_callers_thread_before_it_joins_the_map() {
        let caller = thread::current().id();
        let claimed = Mutex::new(Vec::new());
        let (out, beside) = map_beside(
            vec![(); 3],
            (0..12).collect(),
            |&i| i,
            |(), i: usize| {
                claimed.lock().unwrap().push(thread::current().id());
                i + 1
            },
            || {
                assert_eq!(thread::current().id(), caller);
                claimed.lock().unwrap().len()
            },
        );
        assert_eq!(out, (1..13).collect::<Vec<_>>());
        let claimed = claimed.into_inner().unwrap();
        let by_caller = claimed
            .iter()
            .skip(beside)
            .filter(|&&id| id == caller)
            .count();
        assert_eq!(
            by_caller,
            claimed.iter().filter(|&&id| id == caller).count(),
            "the caller maps only after `beside` returns"
        );
    }

    #[test]
    fn no_items_need_no_state() {
        let out: Vec<u8> = map_with(Vec::<()>::new(), Vec::<u8>::new(), |_| 0, |(), x| x);
        assert!(out.is_empty());
        let (out, beside) = map_beside(Vec::<()>::new(), Vec::<u8>::new(), |_| 0, |(), x| x, || 7);
        assert!(out.is_empty());
        assert_eq!(beside, 7);
        assert!(width() >= 1);
    }
}
