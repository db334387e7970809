//! A shared work-claiming parallel map.
//!
//! Both the [`crate::conflict::ParallelConflictEngine`] and the `qp-sim`
//! engine fan independent per-item work across scoped threads with the same
//! shape: workers claim the next unprocessed index from a mutex-guarded
//! ledger, compute without holding the lock, and write the result back at
//! the item's index so output order matches input order. [`claim_map`] is
//! that pattern, written once.

use parking_lot::Mutex;

/// Maps `f` over `items` using up to `workers` scoped threads, preserving
/// input order in the output.
///
/// Each worker builds its own scratch state with `init` (e.g. a per-thread
/// engine) and claims items dynamically, so a few expensive items do not
/// leave other threads idle. With one effective worker (or one item) the map
/// runs serially on the calling thread — no spawn, no locking.
pub fn claim_map<T, S, R, I, F>(items: &[T], workers: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|t| f(&mut state, t)).collect();
    }

    let slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    // The shared ledger: a claim cursor plus the result slots.
    let ledger: Mutex<(usize, Vec<Option<R>>)> = Mutex::new((0, slots));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = {
                        let mut led = ledger.lock();
                        if led.0 >= items.len() {
                            break;
                        }
                        led.0 += 1;
                        led.0 - 1
                    };
                    // The work itself runs without holding the ledger lock.
                    let result = f(&mut state, &items[i]);
                    ledger.lock().1[i] = Some(result);
                }
            });
        }
    });
    ledger
        .into_inner()
        .1
        .into_iter()
        .map(|r| r.expect("scoped workers drain every item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 4, 16] {
            let out = claim_map(&items, workers, || (), |_, &x| x * 3);
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn single_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = claim_map(
            &[1, 2, 3],
            1,
            || (),
            |_, &x| {
                assert_eq!(std::thread::current().id(), caller);
                x + 1
            },
        );
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn per_worker_state_is_initialized_once_per_thread() {
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..50).collect();
        let out = claim_map(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |count, &x| {
                *count += 1;
                x
            },
        );
        assert_eq!(out, items);
        // One init per spawned worker, never per item.
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = claim_map(&[], 8, || (), |_, &x: &usize| x);
        assert!(out.is_empty());
    }
}
