//! Dense n-dimensional tensor (rank 0–2 in practice).

use rand::Rng;

/// A dense tensor of `f64` with row-major storage.
///
/// Rank 0 (scalars), rank 1 (vectors) and rank 2 (matrices) cover every
/// model in this workspace; higher ranks are representable but no op
/// requires them.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    /// A scalar (rank-0) tensor.
    pub fn scalar(v: f64) -> Self {
        Tensor {
            shape: vec![],
            data: vec![v],
        }
    }

    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Tensor filled with `v`.
    pub fn filled(shape: &[usize], v: f64) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![v; shape.iter().product()],
        }
    }

    /// Build from shape and row-major data. Panics when sizes disagree
    /// (construction is always programmer-controlled here).
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} incompatible with {} elements",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// 1-D tensor from a slice.
    pub fn vector(v: &[f64]) -> Self {
        Tensor {
            shape: vec![v.len()],
            data: v.to_vec(),
        }
    }

    /// Uniform random tensor in `[-scale, scale]`.
    pub fn uniform(shape: &[usize], scale: f64, rng: &mut impl Rng) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: (0..n).map(|_| rng.gen_range(-scale..=scale)).collect(),
        }
    }

    /// Xavier/Glorot-style initialization for a `rows × cols` weight matrix.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let scale = (6.0 / (rows + cols) as f64).sqrt();
        Self::uniform(&[rows, cols], scale, rng)
    }

    /// Tensor shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data view.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data view.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The single value of a one-element tensor. Panics otherwise.
    pub fn item(&self) -> f64 {
        assert_eq!(self.data.len(), 1, "item() requires exactly one element");
        self.data[0]
    }

    /// Number of rows when interpreted as a matrix (rank 2), or 1 for
    /// vectors/scalars.
    pub fn rows(&self) -> usize {
        match self.shape.len() {
            2 => self.shape[0],
            _ => 1,
        }
    }

    /// Number of columns when interpreted as a matrix: last dimension, or 1
    /// for scalars.
    pub fn cols(&self) -> usize {
        self.shape.last().copied().unwrap_or(1)
    }

    /// Matrix entry accessor (rank-2 tensors).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Reinterpret with a new shape of equal element count.
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(shape, self.data.clone())
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// `self += other` (shapes must match).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Set all elements to zero.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// True when every pair of elements differs by at most `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f64) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_roundtrip() {
        let t = Tensor::scalar(3.5);
        assert_eq!(t.shape(), &[] as &[usize]);
        assert_eq!(t.item(), 3.5);
        assert_eq!(t.rows(), 1);
        assert_eq!(t.cols(), 1);
    }

    #[test]
    fn from_vec_checks_shape() {
        let t = Tensor::from_vec(&[2, 3], vec![0.0; 6]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn from_vec_panics_on_mismatch() {
        Tensor::from_vec(&[2, 2], vec![0.0; 3]);
    }

    #[test]
    fn at_indexing_row_major() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|v| v as f64).collect());
        assert_eq!(t.at(0, 0), 0.0);
        assert_eq!(t.at(0, 2), 2.0);
        assert_eq!(t.at(1, 0), 3.0);
    }

    #[test]
    fn map_and_add_assign() {
        let a = Tensor::vector(&[1.0, 2.0]);
        let mut b = a.map(|v| v * 10.0);
        b.add_assign(&a);
        assert_eq!(b.data(), &[11.0, 22.0]);
    }

    #[test]
    fn xavier_within_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::xavier(10, 20, &mut rng);
        let bound = (6.0 / 30.0f64).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|v| v as f64).collect());
        let r = t.reshaped(&[6]);
        assert_eq!(r.shape(), &[6]);
        assert_eq!(r.data(), t.data());
    }
}
