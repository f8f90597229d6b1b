//! Partial top-`n` selection vs the full-sort reference.
//!
//! `topn::top_n` (the `O(J)` production path behind `recommend` and the
//! serving layer) must reproduce `top_n_full_sort` (the historical stable
//! full sort, kept in `support/full_sort.rs`) *exactly* — including tie order and the degenerate
//! `n = 0` / `n ≥ J` cases. Scores are drawn from a small quantized set so
//! ties are common, not accidental.

#[path = "support/full_sort.rs"]
mod full_sort;

use full_sort::{recommend_full_sort, top_n_full_sort};
use proptest::prelude::*;
use tcss_core::{random_init, topn, TcssModel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Selection == full sort on tie-heavy score vectors, for every n
    /// from 0 past the vector length.
    #[test]
    fn top_n_matches_full_sort_with_ties(
        // Quantized scores: ≤ 7 distinct values over up to 50 slots
        // guarantee heavy tie pressure.
        levels in proptest::collection::vec(0u8..7, 0..50),
        n_extra in 0usize..4,
    ) {
        let scores: Vec<f64> = levels.iter().map(|&l| l as f64 * 0.25 - 0.5).collect();
        for n in 0..=(scores.len() + n_extra) {
            let got = topn::top_n(&scores, n);
            let want = top_n_full_sort(&scores, n);
            prop_assert_eq!(got.len(), n.min(scores.len()));
            prop_assert_eq!(&got, &want, "n = {}", n);
        }
    }

    /// The pair ordering contract holds on the output: descending score,
    /// ascending index on ties.
    #[test]
    fn top_n_output_is_rank_ordered(
        levels in proptest::collection::vec(0u8..5, 1..40),
        n in 0usize..45,
    ) {
        let scores: Vec<f64> = levels.iter().map(|&l| l as f64).collect();
        let got = topn::top_n(&scores, n);
        for pair in got.windows(2) {
            prop_assert!(
                topn::rank_order(pair[0], pair[1]).is_lt(),
                "{:?} before {:?}",
                pair[0],
                pair[1]
            );
        }
    }
}

#[test]
fn degenerate_n_edge_cases() {
    let scores = [0.25, 1.0, 1.0, -0.5];
    assert!(topn::top_n(&scores, 0).is_empty());
    assert!(top_n_full_sort(&scores, 0).is_empty());
    // n == J and n > J both return the full ranking.
    let full = vec![(1, 1.0), (2, 1.0), (0, 0.25), (3, -0.5)];
    assert_eq!(topn::top_n(&scores, 4), full);
    assert_eq!(topn::top_n(&scores, 100), full);
    assert_eq!(top_n_full_sort(&scores, 100), full);
    assert!(topn::top_n(&[], 3).is_empty());
}

/// Model-level parity: `recommend` (partial selection) equals
/// `recommend_full_sort` (the full-sort reference) on a factorization whose
/// score vectors contain engineered ties.
#[test]
fn recommend_matches_full_sort_reference() {
    // Duplicate POI embeddings force exact score ties.
    let (u1, mut u2, u3) = random_init((4, 12, 3), 3, 9);
    for j in 0..6 {
        let dup = u2.row(j).to_vec();
        u2.row_mut(j + 6).copy_from_slice(&dup);
    }
    let model = TcssModel::new(u1, u2, u3);
    for user in 0..4 {
        for time in 0..3 {
            for n in [0usize, 1, 5, 12, 20] {
                assert_eq!(
                    model.recommend(user, time, n),
                    recommend_full_sort(&model, user, time, n),
                    "user {user} time {time} n {n}"
                );
            }
        }
    }
}
