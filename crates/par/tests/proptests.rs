//! Property tests for the executor's invariants: at every thread count,
//! `par_map` preserves length and order, agrees with the sequential map,
//! and propagates worker panics.

use proptest::prelude::*;
use pse_par::{par_map, par_map_chunked, with_threads};

proptest! {
    #[test]
    fn par_map_preserves_length_and_order(
        items in prop::collection::vec(any::<i64>(), 0..200),
        threads in 1usize..9,
    ) {
        let expected: Vec<i64> = items.iter().map(|x| x.wrapping_mul(3)).collect();
        let got = with_threads(threads, || par_map(&items, |x| x.wrapping_mul(3)));
        prop_assert_eq!(got.len(), items.len());
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn chunked_map_matches_sequential(
        items in prop::collection::vec(any::<u32>(), 0..300),
        threads in 1usize..9,
        min_chunk in 1usize..40,
    ) {
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) + 7).collect();
        let got = with_threads(threads, || {
            par_map_chunked(&items, min_chunk, |&x| u64::from(x) + 7)
        });
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn worker_panics_always_propagate(
        len in 1usize..120,
        panic_at in 0usize..120,
        threads in 1usize..9,
    ) {
        prop_assume!(panic_at < len);
        let items: Vec<usize> = (0..len).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(threads, || {
                par_map(&items, |&x| {
                    assert!(x != panic_at, "injected panic");
                    x
                })
            })
        });
        prop_assert!(result.is_err(), "panic at index {} was swallowed", panic_at);
    }
}
