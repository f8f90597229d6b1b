//! Full-sort reference for top-`n` selection, built from the public API.
//!
//! A stable sort of every POI by descending score leaves ties in
//! ascending POI order, which is exactly the `topn::rank_order` contract.
//! This was the original `recommend`; the production `top_n` (partial
//! selection) must reproduce it exactly, ties and degenerate `n`
//! included.

use tcss_core::TcssModel;

/// The top `n` `(index, score)` pairs of `scores` by full stable sort.
pub fn top_n_full_sort(scores: &[f64], n: usize) -> Vec<(usize, f64)> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("scores finite"));
    idx.into_iter().take(n).map(|i| (i, scores[i])).collect()
}

/// `TcssModel::recommend` by full sort of `scores_for`.
pub fn recommend_full_sort(
    model: &TcssModel,
    user: usize,
    time: usize,
    n: usize,
) -> Vec<(usize, f64)> {
    top_n_full_sort(&model.scores_for(user, time), n)
}
