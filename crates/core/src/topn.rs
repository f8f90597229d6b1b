//! Deterministic top-`n` selection over score vectors.
//!
//! The ranking surface of the model (`TcssModel::recommend`) and the
//! serving layer (`tcss-serve`) share one ordering contract: **descending
//! score, ties broken by ascending POI index**. The tie-break matters for
//! testability — a full stable sort of `(0..J)` by descending score leaves
//! equal-scored POIs in ascending index order, so the partial-selection
//! fast path here reproduces the historical full-sort behavior *exactly*,
//! not just "up to ties".
//!
//! [`top_n`] is the production path: `O(J)` selection via
//! [`slice::select_nth_unstable_by`] plus an `O(n log n)` sort of the
//! selected prefix, replacing the `O(J log J)` full sort that dominated
//! `recommend` on large POI tables. The full sort survives only as the
//! parity reference in test code (`crates/core/tests/support/full_sort.rs`;
//! `crates/core/tests/topn_reference.rs` pins the two equal on ties and
//! degenerate `n`).

use std::cmp::Ordering;

/// The shared ranking order: descending score, then ascending index.
///
/// Panics on NaN scores — every scoring path in the workspace produces
/// finite floats, and a silent NaN ordering would corrupt rankings.
#[inline]
pub fn rank_order(a: (usize, f64), b: (usize, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .expect("scores finite")
        .then(a.0.cmp(&b.0))
}

/// Top-`n` `(index, score)` pairs of `scores` in [`rank_order`], by partial
/// selection.
///
/// Degenerate cases follow the reference: `n = 0` yields an empty vector,
/// `n ≥ scores.len()` yields the full ranking.
pub fn top_n(scores: &[f64], n: usize) -> Vec<(usize, f64)> {
    let j = scores.len();
    let n = n.min(j);
    if n == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..j).collect();
    let cmp = |&a: &usize, &b: &usize| rank_order((a, scores[a]), (b, scores[b]));
    if n < j {
        idx.select_nth_unstable_by(n, cmp);
        idx.truncate(n);
    }
    idx.sort_unstable_by(cmp);
    idx.into_iter().map(|i| (i, scores[i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_and_orders() {
        let scores = [0.1, 0.9, 0.4, 0.9, 0.0];
        // Ties (indices 1 and 3 at 0.9) break ascending.
        assert_eq!(top_n(&scores, 3), vec![(1, 0.9), (3, 0.9), (2, 0.4)]);
    }

    #[test]
    fn degenerate_n() {
        let scores = [0.5, 0.25];
        assert!(top_n(&scores, 0).is_empty());
        assert_eq!(top_n(&scores, 2), vec![(0, 0.5), (1, 0.25)]);
        assert_eq!(top_n(&scores, 99), vec![(0, 0.5), (1, 0.25)]);
        assert!(top_n(&[], 4).is_empty());
    }

    #[test]
    fn matches_full_sort_on_all_equal() {
        let scores = [1.0; 7];
        // A stable full sort leaves equal scores in index order.
        assert_eq!(
            top_n(&scores, 4),
            vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]
        );
    }
}
