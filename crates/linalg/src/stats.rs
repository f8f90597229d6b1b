//! Cosine similarity, for the time-factor heatmaps of Figs 6–7.

use crate::{vector, Matrix};

/// Cosine similarity between two vectors; 0.0 when either has zero norm.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let na = vector::norm2(a);
    let nb = vector::norm2(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        crate::kernels::dot(a, b) / (na * nb)
    }
}

/// Pairwise cosine similarity between the **rows** of `m`.
///
/// For the paper's Fig 6 the rows are the time-unit embeddings `U³ₖ`; the
/// output is the `K × K` heatmap matrix.
pub fn cosine_similarity_matrix(m: &Matrix) -> Matrix {
    let n = m.rows();
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        out.set(i, i, 1.0);
        for j in (i + 1)..n {
            let s = cosine_similarity(m.row(i), m.row(j));
            out.set(i, j, s);
            out.set(j, i, s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        assert!((cosine_similarity(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 5.0]).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn similarity_matrix_symmetric_unit_diagonal() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        let s = cosine_similarity_matrix(&m);
        for i in 0..3 {
            assert!((s.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..3 {
                assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-12);
            }
        }
        assert!((s.get(0, 1) - (1.0 / 2.0_f64.sqrt())).abs() < 1e-12);
    }
}
