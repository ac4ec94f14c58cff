//! # pse-par — deterministic data-parallel executor
//!
//! A zero-dependency data-parallel executor built on
//! [`std::thread::scope`]. Every entry point is **order-preserving and
//! deterministic**: output `i` is always the result of input `i`, no
//! matter how many worker threads run, so parallelism changes
//! wall-clock time and nothing else. The pipeline's byte-identical
//! output guarantee (experiment tables, CSV series, serialized
//! correspondences) rests on this property.
//!
//! ## Thread-count knob
//!
//! The worker count is resolved per call, in priority order:
//!
//! 1. a scoped override installed by [`with_threads`] (used by tests
//!    and benchmarks to compare 1-thread vs N-thread in one process),
//! 2. the `PSE_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! The last two are read once per process, on the first call: a commit
//! on the serving path calls `par_map` several times, and neither an
//! environment lookup nor the cgroup reads behind
//! `available_parallelism` belong on it.
//!
//! `PSE_THREADS=1` (or `with_threads(1, ..)`) forces the sequential
//! path through the same API — no threads are spawned at all.
//!
//! ## Panic propagation
//!
//! If a worker panics, every worker is still joined (no detached
//! threads, no deadlock) and then the panic payload of the **first**
//! failing chunk (in input order) is resumed on the caller's thread.
//!
//! ## Observability
//!
//! When the caller has a `pse_obs::Obs` installed, every entry point
//! records one timeline event per chunk — chunk index, item count,
//! start/stop — labelled with the caller's active span path, and each
//! chunk runs in a copy of the caller's observability context (its `Obs`,
//! span path and request trace), so what chunks record lands in the
//! caller's sink and trace, attributed to the forking stage. Without one
//! (the default), the only cost is one thread-local read per call;
//! recording never changes results either way.

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::OnceLock;
use std::thread;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Resolves the worker count for the current call context.
pub fn current_threads() -> usize {
    static PROCESS: OnceLock<usize> = OnceLock::new();
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    *PROCESS.get_or_init(|| {
        let env = std::env::var("PSE_THREADS").ok().and_then(|v| v.trim().parse::<usize>().ok());
        env.filter(|&n| n >= 1)
            .unwrap_or_else(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// Runs `f` with the worker count pinned to `n` on this thread
/// (overriding `PSE_THREADS`), restoring the previous setting on exit —
/// including on panic.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Joins workers in chunk order, preserving output order and resuming
/// the first panic only after every worker has been joined.
fn join_ordered<U>(handles: Vec<thread::ScopedJoinHandle<'_, Vec<U>>>, out: &mut Vec<U>) {
    let mut first_panic = None;
    for handle in handles {
        match handle.join() {
            Ok(chunk) => {
                if first_panic.is_none() {
                    out.extend(chunk);
                }
            }
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
}

/// Order-preserving parallel map: `out[i] == f(&items[i])` at any
/// thread count.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_chunked(items, 1, f)
}

/// Order-preserving parallel map with a minimum chunk size: each worker
/// processes contiguous runs of at least `min_chunk` items, amortizing
/// dispatch overhead when `f` is cheap. Semantically identical to
/// [`par_map`].
pub fn par_map_chunked<T, U, F>(items: &[T], min_chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = current_threads();
    let min_chunk = min_chunk.max(1);
    let obs = pse_obs::par_call();
    if threads <= 1 || items.len() <= min_chunk {
        let _t = obs.as_ref().map(|c| c.chunk(0, items.len()));
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads).max(min_chunk);
    let mut out = Vec::with_capacity(items.len());
    thread::scope(|s| {
        let (f, obs) = (&f, obs.as_ref());
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                s.spawn(move || {
                    let _t = obs.map(|c| c.chunk(ci, slice.len()));
                    slice.iter().map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        join_ordered(handles, &mut out);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 7, 64] {
            let got = with_threads(threads, || par_map(&items, |x| x * x));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert_eq!(with_threads(4, || par_map(&empty, |x| x + 1)), Vec::<u32>::new());
        assert_eq!(with_threads(4, || par_map(&[9u32], |x| x + 1)), vec![10]);
    }

    #[test]
    fn chunked_respects_order() {
        let items: Vec<usize> = (0..97).collect();
        let got = with_threads(5, || par_map_chunked(&items, 8, |x| x * 3));
        assert_eq!(got, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_first_in_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(8, || {
                par_map(&items, |&x| {
                    if x == 5 {
                        panic!("boom at 5");
                    }
                    if x == 60 {
                        panic!("boom at 60");
                    }
                    x
                })
            })
        });
        let payload = result.expect_err("must panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom at 5", "first chunk's panic wins");
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = current_threads();
        let _ = std::panic::catch_unwind(|| {
            with_threads(3, || panic!("inner"));
        });
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn one_thread_spawns_nothing() {
        // Sequential path: the closure runs on the caller's thread.
        let caller = std::thread::current().id();
        let seen = with_threads(1, || par_map(&[1, 2, 3], |_| std::thread::current().id()));
        assert!(seen.iter().all(|&id| id == caller));
    }
}
