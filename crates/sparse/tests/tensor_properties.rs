//! Property-based tests for the sparse tensor structures.

use proptest::prelude::*;
use tcss_linalg::{Matrix, SymOp};
use tcss_sparse::{Mode, ModeGramOp, SparseTensor3};

#[allow(clippy::type_complexity)]
fn entries_strategy(
) -> impl Strategy<Value = ((usize, usize, usize), Vec<(usize, usize, usize, f64)>)> {
    (2usize..7, 2usize..7, 2usize..5).prop_flat_map(|(i, j, k)| {
        proptest::collection::vec((0..i, 0..j, 0..k, 0.25f64..2.0), 0..25)
            .prop_map(move |v| ((i, j, k), v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lookup agrees with the summed raw entries for every cell.
    #[test]
    fn lookup_matches_summed_entries((dims, raw) in entries_strategy()) {
        let t = SparseTensor3::from_entries(dims, raw.clone()).expect("in range");
        let mut expected = std::collections::HashMap::new();
        for (i, j, k, v) in raw {
            *expected.entry((i, j, k)).or_insert(0.0) += v;
        }
        for i in 0..dims.0 {
            for j in 0..dims.1 {
                for k in 0..dims.2 {
                    let want = expected.get(&(i, j, k)).copied().unwrap_or(0.0);
                    prop_assert!((t.get(i, j, k) - want).abs() < 1e-12);
                    prop_assert_eq!(t.contains(i, j, k), expected.contains_key(&(i, j, k)));
                }
            }
        }
        prop_assert_eq!(t.nnz(), expected.len());
    }

    /// Every mode's slices partition the entry set.
    #[test]
    fn slices_partition_entries((dims, raw) in entries_strategy()) {
        let t = SparseTensor3::from_entries(dims, raw).expect("in range");
        for (mode, extent) in [(Mode::One, dims.0), (Mode::Two, dims.1), (Mode::Three, dims.2)] {
            let total: usize = (0..extent).map(|x| t.slice(mode, x).count()).sum();
            prop_assert_eq!(total, t.nnz());
        }
    }

    /// Matricization preserves the multiset of values (Frobenius norm) and
    /// the per-mode squared row norms.
    #[test]
    fn matricization_preserves_norms((dims, raw) in entries_strategy()) {
        let t = SparseTensor3::from_entries(dims, raw).expect("in range");
        for mode in Mode::ALL {
            let a = t.matricize_dense(mode);
            prop_assert!((a.frobenius_norm() - t.frobenius_norm()).abs() < 1e-9);
            for (x, &d) in t.mode_sq_norms(mode).iter().enumerate() {
                let row_sq: f64 = a.row(x).iter().map(|v| v * v).sum();
                prop_assert!((d - row_sq).abs() < 1e-9);
            }
        }
    }

    /// The implicit off-diagonal Gram operator agrees with the explicit
    /// route through dense matricization: for every mode `n` and any `x`,
    /// `ModeGramOp::apply(x) == A⁽ⁿ⁾ (A⁽ⁿ⁾ᵀ x) − diag(A⁽ⁿ⁾A⁽ⁿ⁾ᵀ) ⊙ x`,
    /// where `A⁽ⁿ⁾` is the mode-`n` matricization. This is the operator the
    /// spectral initializer (paper Eq 4) feeds to orthogonal iteration
    /// without ever materializing `A⁽ⁿ⁾A⁽ⁿ⁾ᵀ`. A block apply of `b` columns
    /// (every panel width 8, 4, 2, 1 among `b` = 1..12) is a batch of
    /// one-column applies: column `c` has the bits of `apply` on column `c`.
    #[test]
    fn gram_operator_matches_matricized_matvec(
        (dims, raw) in entries_strategy(),
        b in 1usize..12,
    ) {
        let t = SparseTensor3::from_entries(dims, raw).expect("in range");
        for mode in Mode::ALL {
            let op = ModeGramOp::new(&t, mode);
            let n = op.dim();
            // A deterministic but non-trivial probe block.
            let xs = Matrix::from_fn(n, b, |i, c| ((i * b + c) as f64 * 0.83).sin() + 0.1);
            let block = op.apply_block(&xs);
            let a = t.matricize_dense(mode);
            let diag = t.mode_sq_norms(mode);
            for c in 0..b {
                let x = xs.col(c);
                let mut got = vec![0.0; n];
                op.apply(&x, &mut got);
                // Explicit route: y = A (Aᵀ x) − d ⊙ x via the dense matricization.
                let at_x = a.transpose().matvec(&x).expect("shape");
                let a_at_x = a.matvec(&at_x).expect("shape");
                for row in 0..n {
                    let want = a_at_x[row] - diag[row] * x[row];
                    prop_assert!(
                        (got[row] - want).abs() < 1e-9,
                        "mode {:?} row {}: implicit {} vs explicit {}",
                        mode, row, got[row], want
                    );
                    prop_assert_eq!(
                        block.get(row, c).to_bits(), got[row].to_bits(),
                        "mode {:?} column {} of {} row {}", mode, c, b, row
                    );
                }
            }
        }
    }
}
