//! Small vector kernels shared across the workspace.

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    crate::kernels::dot(a, a).sqrt()
}

/// Scale a vector in place.
#[inline]
pub fn scale(a: &mut [f64], s: f64) {
    for v in a {
        *v *= s;
    }
}

/// Normalize to unit L2 norm in place; returns the original norm.
///
/// A zero vector is left untouched (returns 0.0) so callers can detect and
/// re-randomize degenerate iterates.
pub fn normalize(a: &mut [f64]) -> f64 {
    let n = norm2(a);
    if n > 0.0 {
        scale(a, 1.0 / n);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(crate::kernels::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        crate::kernels::axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        let n = normalize(&mut v);
        assert!((n - 5.0).abs() < 1e-12);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_noop() {
        let mut v = vec![0.0, 0.0];
        assert_eq!(normalize(&mut v), 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }
}
