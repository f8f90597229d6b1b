//! The TCSS factorization model (paper Eq 6).
//!
//! `X̂_{ijk} = hᵀ (U¹ᵢ ⊙ U²ⱼ ⊙ U³ₖ) = Σ_t h_t U¹_{it} U²_{jt} U³_{kt}`
//!
//! With `h = 1` this is exactly rank-`r` CP (the paper's Remark in §IV-B);
//! the learnable `h` weights each latent factor.

use tcss_linalg::{kernels, Matrix};

/// Model parameters: three embedding matrices and the factor-importance
/// vector `h`.
#[derive(Debug, Clone)]
pub struct TcssModel {
    /// User embeddings, `I × r`.
    pub u1: Matrix,
    /// POI embeddings, `J × r`.
    pub u2: Matrix,
    /// Time-unit embeddings, `K × r`.
    pub u3: Matrix,
    /// Factor importance weights, length `r`.
    pub h: Vec<f64>,
}

impl TcssModel {
    /// Assemble a model from pre-initialized factors; `h` starts at all
    /// ones, making the initial model exactly the CP estimate of the
    /// spectral factors.
    ///
    /// Panics on mismatched factor ranks; use [`TcssModel::try_new`] where
    /// the factors come from an untrusted source (files, checkpoints).
    pub fn new(u1: Matrix, u2: Matrix, u3: Matrix) -> Self {
        Self::try_new(u1, u2, u3).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`TcssModel::new`]: dimension validation as a `Result`
    /// instead of a panic.
    pub fn try_new(u1: Matrix, u2: Matrix, u3: Matrix) -> Result<Self, String> {
        if u1.cols() != u2.cols() || u2.cols() != u3.cols() {
            return Err(format!(
                "factor ranks must agree: u1 has {}, u2 has {}, u3 has {}",
                u1.cols(),
                u2.cols(),
                u3.cols()
            ));
        }
        let r = u1.cols();
        Ok(TcssModel {
            u1,
            u2,
            u3,
            h: vec![1.0; r],
        })
    }

    /// `(I, J, K)` dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.u1.rows(), self.u2.rows(), self.u3.rows())
    }

    /// Embedding length `r`.
    pub fn rank(&self) -> usize {
        self.h.len()
    }

    /// `U¹`, `U²`, `U³` as row-major slices.
    pub(crate) fn factors(&self) -> [&[f64]; 3] {
        [self.u1.as_slice(), self.u2.as_slice(), self.u3.as_slice()]
    }

    /// Predicted score `X̂_{ijk}` (Eq 6).
    ///
    /// Evaluated by the fused lane kernel [`kernels::dot4`]; its canonical
    /// lane-summation order is the model's scoring order, shared by every
    /// path that scores entries (production chunk loops *and* the dense
    /// parity references), so dense↔sparse and cross-thread bitwise parity
    /// are unaffected.
    #[inline]
    pub fn predict(&self, i: usize, j: usize, k: usize) -> f64 {
        kernels::dot4(&self.h, self.u1.row(i), self.u2.row(j), self.u3.row(k))
    }

    /// The per-request weight vector `w = h ⊙ U¹ᵢ ⊙ U³ₖ` (length `r`),
    /// written into `out` (cleared first, so pooled buffers can be passed
    /// straight in).
    ///
    /// Scoring any POI `j` is then `kernels::dot(&w, u2.row(j))` — this is
    /// the factorization [`TcssModel::scores_for`] exploits per request and
    /// the serving layer caches per `(user, time)` key: the `r` multiplies
    /// here are shared by all `J` POI dots, and by every batch row that
    /// reuses the cached `w`.
    #[inline]
    pub fn weight_vector_into(&self, user: usize, time: usize, out: &mut Vec<f64>) {
        let r = self.h.len();
        let ui = self.u1.row(user);
        let uk = self.u3.row(time);
        out.clear();
        out.extend((0..r).map(|t| self.h[t] * ui[t] * uk[t]));
    }

    /// Scores for every POI at `(user, time)`: the ranking vector used by
    /// the evaluation protocol and the recommendation API.
    pub fn scores_for(&self, user: usize, time: usize) -> Vec<f64> {
        // Precompute h ⊙ U¹ᵢ ⊙ U³ₖ once, then one dot per POI.
        let mut w = Vec::new();
        self.weight_vector_into(user, time, &mut w);
        (0..self.u2.rows())
            .map(|j| kernels::dot(&w, self.u2.row(j)))
            .collect()
    }

    /// The full `J × K` predicted slice for one user (used by the social
    /// Hausdorff head to form `p_{ij}` over all time units).
    pub fn user_slice(&self, user: usize) -> Matrix {
        let (_, j_dim, k_dim) = self.dims();
        let mut scratch = SliceScratch::default();
        let mut out = Vec::new();
        self.user_slice_into(user, &mut scratch, &mut out);
        let mut m = Matrix::zeros(j_dim, k_dim);
        m.as_mut_slice().copy_from_slice(&out);
        m
    }

    /// Allocation-free form of [`TcssModel::user_slice`]: writes the raw
    /// `J × K` scores row-major into `out`, using pooled [`SliceScratch`]
    /// buffers. All buffers are cleared and refilled, so pooled scratch can
    /// be passed straight in.
    ///
    /// This is the `J·K·r`-flop hot loop of the Hausdorff head, evaluated
    /// as `r` rank-one updates per output row: `U³` is transposed once per
    /// call (`K·r` writes amortized over `J·K·r` flops) so the inner `k`
    /// scan is contiguous, then each row accumulates `w_t · U³ᵗ` for
    /// ascending `t` through the lane kernels ([`kernels::update_row_quad`]
    /// in quads of four factors, [`kernels::axpy`] for the `r mod 4` tail).
    /// Every output element sums its `r` products in the same ascending-`t`
    /// order, with the same `(h·u¹)·u²·u³` association, as the scalar
    /// triple loop this replaced — the result is **bit-for-bit** identical
    /// to `user_slice` and to the pre-kernel implementation.
    pub fn user_slice_into(&self, user: usize, scratch: &mut SliceScratch, out: &mut Vec<f64>) {
        let (_, j_dim, k_dim) = self.dims();
        let r = self.h.len();
        let ui = self.u1.row(user);
        scratch.hw.clear();
        scratch.hw.extend((0..r).map(|t| self.h[t] * ui[t]));
        scratch.u3t.clear();
        scratch.u3t.resize(r * k_dim, 0.0);
        for k in 0..k_dim {
            let uk = self.u3.row(k);
            for (t, &v) in uk.iter().enumerate() {
                scratch.u3t[t * k_dim + k] = v;
            }
        }
        scratch.wj.clear();
        scratch.wj.resize(r, 0.0);
        out.clear();
        out.resize(j_dim * k_dim, 0.0);
        let quads = r - r % 4;
        for j in 0..j_dim {
            let uj = self.u2.row(j);
            for (w, (&hwt, &ujt)) in scratch.wj.iter_mut().zip(scratch.hw.iter().zip(uj.iter())) {
                *w = hwt * ujt;
            }
            let out_row = &mut out[j * k_dim..(j + 1) * k_dim];
            let mut t = 0;
            while t < quads {
                kernels::update_row_quad(
                    out_row,
                    [
                        scratch.wj[t],
                        scratch.wj[t + 1],
                        scratch.wj[t + 2],
                        scratch.wj[t + 3],
                    ],
                    &scratch.u3t[t * k_dim..(t + 1) * k_dim],
                    &scratch.u3t[(t + 1) * k_dim..(t + 2) * k_dim],
                    &scratch.u3t[(t + 2) * k_dim..(t + 3) * k_dim],
                    &scratch.u3t[(t + 3) * k_dim..(t + 4) * k_dim],
                );
                t += 4;
            }
            while t < r {
                kernels::axpy(
                    scratch.wj[t],
                    &scratch.u3t[t * k_dim..(t + 1) * k_dim],
                    out_row,
                );
                t += 1;
            }
        }
    }

    /// Per-POI visit probability `p_{ij} = 1 − Π_k (1 − clamp(X̂_{ijk}))`
    /// for one user (paper Eq 10's probability coupling). Scores are
    /// clamped into `[0, 1−δ]` so the product stays a valid probability —
    /// the model's raw output is unconstrained, but the paper semantically
    /// treats `X̂` as `P(X = 1)`.
    pub fn visit_probabilities(&self, user: usize) -> Vec<f64> {
        // Raw slice scores via the allocation-free path: one flat buffer,
        // no intermediate `Matrix` copy.
        let (_, j_dim, k_dim) = self.dims();
        let mut scratch = SliceScratch::default();
        let mut slice = Vec::new();
        self.user_slice_into(user, &mut scratch, &mut slice);
        (0..j_dim)
            .map(|j| {
                let mut not_visit = 1.0;
                for &s in &slice[j * k_dim..(j + 1) * k_dim] {
                    not_visit *= 1.0 - clamp_prob(s);
                }
                1.0 - not_visit
            })
            .collect()
    }

    /// Top-`n` POI recommendations for `(user, time)` as `(poi, score)`
    /// pairs in ranking order — descending score, ties broken by ascending
    /// POI index ([`crate::topn::rank_order`]).
    ///
    /// Selection is `O(J)` partial ([`crate::topn::top_n`]) rather than a
    /// full sort; the parity tests pin it to a full sort of
    /// [`TcssModel::scores_for`].
    pub fn recommend(&self, user: usize, time: usize, n: usize) -> Vec<(usize, f64)> {
        crate::topn::top_n(&self.scores_for(user, time), n)
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        let (i, j, k) = self.dims();
        (i + j + k + 1) * self.rank()
    }
}

/// Reusable scratch buffers for [`TcssModel::user_slice_into`].
///
/// Lives in pooled per-worker scratch (the Hausdorff head's `UserScratch`)
/// so the slice evaluation allocates nothing in steady state. Contents are
/// an implementation detail of the slice kernel: `hw` holds `h ⊙ U¹ᵢ`,
/// `wj` the per-row factor weights `h ⊙ U¹ᵢ ⊙ U²ⱼ`, and `u3t` the `r × K`
/// transpose of `U³` that makes the inner time scan contiguous.
#[derive(Debug, Default, Clone)]
pub struct SliceScratch {
    hw: Vec<f64>,
    wj: Vec<f64>,
    u3t: Vec<f64>,
}

impl SliceScratch {
    /// Empty scratch; buffers grow on first use and are then recycled.
    pub fn new() -> Self {
        Self::default()
    }

    /// `h ⊙ U¹ᵢ` of the last [`TcssModel::user_slice_into`] call, `r`.
    pub(crate) fn h_u1(&self) -> &[f64] {
        &self.hw
    }

    /// `U³ᵀ` (`r × K`, row `t` holds `U³_{·t}`) of the last
    /// [`TcssModel::user_slice_into`] call.
    pub(crate) fn u3_transposed(&self) -> &[f64] {
        &self.u3t
    }
}

/// Clamp a raw score into `[0, 1−δ]` for probability semantics.
#[inline]
pub fn clamp_prob(x: f64) -> f64 {
    x.clamp(0.0, 1.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> TcssModel {
        // I=2, J=3, K=2, r=2.
        let u1 = Matrix::from_rows(&[&[1.0, 0.5], &[0.0, 1.0]]).unwrap();
        let u2 = Matrix::from_rows(&[&[1.0, 1.0], &[0.5, 0.0], &[0.0, 2.0]]).unwrap();
        let u3 = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5]]).unwrap();
        TcssModel::new(u1, u2, u3)
    }

    #[test]
    fn predict_matches_hand_computation() {
        let m = tiny_model();
        // X̂_{0,0,0} = 1·1·1·1 + 1·0.5·1·0 = 1.
        assert!((m.predict(0, 0, 0) - 1.0).abs() < 1e-12);
        // X̂_{0,2,1} = 1·1·0·0.5 + 1·0.5·2·0.5 = 0.5.
        assert!((m.predict(0, 2, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn h_all_ones_is_cp() {
        let m = tiny_model();
        // With h = 1 the model equals the plain CP triple product.
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..2 {
                    let cp: f64 = (0..2)
                        .map(|t| m.u1.get(i, t) * m.u2.get(j, t) * m.u3.get(k, t))
                        .sum();
                    assert!((m.predict(i, j, k) - cp).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn h_scales_factors() {
        let mut m = tiny_model();
        let base = m.predict(0, 0, 0);
        m.h = vec![2.0, 2.0];
        assert!((m.predict(0, 0, 0) - 2.0 * base).abs() < 1e-12);
    }

    #[test]
    fn scores_for_matches_pointwise_predict() {
        let m = tiny_model();
        let scores = m.scores_for(0, 1);
        for (j, &s) in scores.iter().enumerate() {
            assert!((s - m.predict(0, j, 1)).abs() < 1e-12);
        }
    }

    #[test]
    fn user_slice_matches_predict() {
        let m = tiny_model();
        let slice = m.user_slice(1);
        for j in 0..3 {
            for k in 0..2 {
                assert!((slice.get(j, k) - m.predict(1, j, k)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn visit_probabilities_in_unit_interval() {
        let m = tiny_model();
        for i in 0..2 {
            for p in m.visit_probabilities(i) {
                assert!((0.0..=1.0).contains(&p), "p = {p}");
            }
        }
    }

    #[test]
    fn visit_probability_formula() {
        // Model scores for user 0, poi 0 are X̂(k=0)=1, X̂(k=1)=0.75:
        // clamped to (1−δ) and 0.75 → p ≈ 1 − (δ)(0.25) ≈ 1.
        let m = tiny_model();
        let p = m.visit_probabilities(0);
        assert!(p[0] > 0.999);
    }

    #[test]
    fn recommend_is_sorted_and_truncated() {
        let m = tiny_model();
        let rec = m.recommend(0, 0, 2);
        assert_eq!(rec.len(), 2);
        assert!(rec[0].1 >= rec[1].1);
    }

    #[test]
    fn mismatched_ranks_rejected() {
        let u1 = Matrix::zeros(2, 2);
        let u2 = Matrix::zeros(3, 3);
        let u3 = Matrix::zeros(2, 2);
        let err = TcssModel::try_new(u1, u2, u3).unwrap_err();
        assert!(err.contains("ranks must agree"), "{err}");
    }
}
