//! Hausdorff distances between POI sets.
//!
//! * [`average_hausdorff`] — the exact AHD of paper Eq 9.
//! * [`weighted_hausdorff`] — the paper's differentiable surrogate (Eq 10,
//!   extended with entropy weights as in Eq 12), *forward value only*. The
//!   gradient-carrying twin lives in `tcss-core::hausdorff` and is unit-tested
//!   against this implementation.
//! * [`generalized_mean`] — `M_α[x] = (mean(xᵢ^α))^{1/α}`, the smooth
//!   min-approximation (α = −1 by default, per the paper).

use crate::point::GeoPoint;

/// Dense symmetric matrix of pairwise POI distances (km) plus the maximum
/// pairwise distance `d_max` used by the weighted Hausdorff surrogate.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    /// Upper-triangle-inclusive storage, row-major `n × n`.
    d: Vec<f64>,
    d_max: f64,
}

impl DistanceMatrix {
    /// Precompute all pairwise haversine distances between `points`.
    pub fn from_points(points: &[GeoPoint]) -> Self {
        let n = points.len();
        let mut d = vec![0.0; n * n];
        let mut d_max = 0.0f64;
        for a in 0..n {
            for b in (a + 1)..n {
                let dist = crate::point::haversine_km(points[a], points[b]);
                d[a * n + b] = dist;
                d[b * n + a] = dist;
                d_max = d_max.max(dist);
            }
        }
        DistanceMatrix { n, d, d_max }
    }

    /// Number of POIs.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty (no POIs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between POIs `a` and `b`, in km.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> f64 {
        debug_assert!(a < self.n && b < self.n);
        self.d[a * self.n + b]
    }

    /// Distances from POI `a` to every POI, as one contiguous row. The
    /// matrix is symmetric, so `row(a)[b] == get(b, a)`: a scan over the
    /// first index at a fixed second index reads this row instead of
    /// striding down a column.
    #[inline]
    pub fn row(&self, a: usize) -> &[f64] {
        &self.d[a * self.n..(a + 1) * self.n]
    }

    /// Maximum pairwise distance `d_max` (0.0 when fewer than two POIs).
    #[inline]
    pub fn max_distance(&self) -> f64 {
        self.d_max
    }

    /// Minimum distance from POI `a` to any POI in `set` (excluding any
    /// requirement about `a` itself); `None` when `set` is empty.
    pub fn min_to_set(&self, a: usize, set: &[usize]) -> Option<f64> {
        set.iter()
            .map(|&b| self.get(a, b))
            .min_by(|x, y| x.partial_cmp(y).expect("distances are never NaN"))
    }

    /// A copy with every distance divided by `d_max` (so distances lie in
    /// `[0, 1]` and `max_distance() == 1`). The TCSS social-Hausdorff head
    /// uses this so the regularizer weight `λ` is comparable across
    /// datasets with different geographic extents.
    pub fn normalized(&self) -> DistanceMatrix {
        if self.d_max == 0.0 {
            return self.clone();
        }
        DistanceMatrix {
            n: self.n,
            d: self.d.iter().map(|v| v / self.d_max).collect(),
            d_max: 1.0,
        }
    }
}

/// Exact average Hausdorff distance between POI index sets (paper Eq 9):
///
/// `d_AH(S, N) = mean_{j∈S} min_{j'∈N} d(j,j') + mean_{j'∈N} min_{j∈S} d(j,j')`
///
/// Returns 0.0 when either set is empty (no constraint to enforce).
pub fn average_hausdorff(s: &[usize], n: &[usize], d: &DistanceMatrix) -> f64 {
    if s.is_empty() || n.is_empty() {
        return 0.0;
    }
    let fwd: f64 = s
        .iter()
        .map(|&j| d.min_to_set(j, n).expect("n nonempty"))
        .sum::<f64>()
        / s.len() as f64;
    let bwd: f64 = n
        .iter()
        .map(|&jp| d.min_to_set(jp, s).expect("s nonempty"))
        .sum::<f64>()
        / n.len() as f64;
    fwd + bwd
}

/// Generalized mean `M_α[x₁..xₙ] = ((1/n) Σ xᵢ^α)^{1/α}`.
///
/// For α → −∞ this approaches `min(x)`; the paper uses α = −1 as the smooth,
/// backpropagation-friendly compromise. Inputs are clamped to `floor`
/// (default 1e-9 in callers) to keep negative powers finite.
pub fn generalized_mean(xs: &[f64], alpha: f64, floor: f64) -> f64 {
    assert!(alpha != 0.0, "generalized mean undefined for alpha = 0");
    if xs.is_empty() {
        return 0.0;
    }
    let mean: f64 = xs.iter().map(|&x| x.max(floor).powf(alpha)).sum::<f64>() / xs.len() as f64;
    mean.powf(1.0 / alpha)
}

/// Parameters of the weighted Hausdorff surrogate.
#[derive(Debug, Clone)]
pub struct WeightedHausdorffParams {
    /// Generalized-mean exponent; the paper's default is −1.
    pub alpha: f64,
    /// Division-by-zero guard in the first term; the paper sets 1e-6.
    pub epsilon: f64,
    /// Numeric floor passed to [`generalized_mean`].
    pub floor: f64,
}

impl Default for WeightedHausdorffParams {
    fn default() -> Self {
        WeightedHausdorffParams {
            alpha: -1.0,
            epsilon: 1e-6,
            floor: 1e-9,
        }
    }
}

/// Forward value of the paper's weighted (social) Hausdorff distance for one
/// user (Eq 12, which reduces to Eq 10 when all entropy weights are 1):
///
/// * `s_set` — candidate POIs `S(vᵢ)` with visit probabilities `p[j]`
///   (indexed *positionally*: `p[idx]` belongs to `s_set[idx]`).
/// * `n_set` — friend-visited POIs `N(vᵢ)`.
/// * `e` — per-POI entropy weights `e_j` (global indexing, `e[j]`).
///
/// Returns 0.0 when `n_set` is empty (user has no friend check-ins; the
/// paper's loss sums over users, and such users contribute nothing).
pub fn weighted_hausdorff(
    s_set: &[usize],
    p: &[f64],
    n_set: &[usize],
    d: &DistanceMatrix,
    e: &[f64],
    params: &WeightedHausdorffParams,
) -> f64 {
    assert_eq!(s_set.len(), p.len(), "one probability per candidate POI");
    if n_set.is_empty() || s_set.is_empty() {
        return 0.0;
    }
    let d_max = d.max_distance();
    // First term: (1/(A+ε)) Σ_{j∈S} p_j e_j min_{j'∈N} d(j,j').
    let a_norm: f64 = p.iter().sum();
    let mut first = 0.0;
    for (idx, &j) in s_set.iter().enumerate() {
        let min_d = d.min_to_set(j, n_set).expect("n_set nonempty");
        first += p[idx] * e[j] * min_d;
    }
    first /= a_norm + params.epsilon;
    // Second term: (1/|N|) Σ_{j'∈N} e_{j'} M_α over j∈S of
    //              [p_j d(j,j') + (1−p_j) d_max].
    let mut second = 0.0;
    let mut fs = vec![0.0; s_set.len()];
    for &jp in n_set {
        for (idx, &j) in s_set.iter().enumerate() {
            fs[idx] = p[idx] * d.get(j, jp) + (1.0 - p[idx]) * d_max;
        }
        second += e[jp] * generalized_mean(&fs, params.alpha, params.floor);
    }
    second /= n_set.len() as f64;
    first + second
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::GeoPoint;

    fn line_points(n: usize) -> Vec<GeoPoint> {
        // Points spaced ~111 km apart along a meridian.
        (0..n).map(|i| GeoPoint::new(0.0, i as f64)).collect()
    }

    #[test]
    fn distance_matrix_symmetry_and_max() {
        let pts = line_points(4);
        let d = DistanceMatrix::from_points(&pts);
        assert_eq!(d.len(), 4);
        for a in 0..4 {
            assert_eq!(d.get(a, a), 0.0);
            for b in 0..4 {
                assert_eq!(d.get(a, b), d.get(b, a));
                assert_eq!(d.row(a)[b], d.get(b, a));
            }
        }
        assert!((d.max_distance() - d.get(0, 3)).abs() < 1e-9);
    }

    #[test]
    fn min_to_set_picks_nearest() {
        let pts = line_points(5);
        let d = DistanceMatrix::from_points(&pts);
        let m = d.min_to_set(0, &[2, 4, 1]).unwrap();
        assert!((m - d.get(0, 1)).abs() < 1e-9);
        assert!(d.min_to_set(0, &[]).is_none());
    }

    #[test]
    fn ahd_identical_sets_is_zero() {
        let pts = line_points(3);
        let d = DistanceMatrix::from_points(&pts);
        assert_eq!(average_hausdorff(&[0, 1, 2], &[0, 1, 2], &d), 0.0);
    }

    #[test]
    fn ahd_symmetric_and_grows_with_separation() {
        let pts = line_points(6);
        let d = DistanceMatrix::from_points(&pts);
        let near = average_hausdorff(&[0, 1], &[1, 2], &d);
        let far = average_hausdorff(&[0, 1], &[4, 5], &d);
        assert!(far > near);
        assert!(
            (average_hausdorff(&[0, 1], &[4, 5], &d) - average_hausdorff(&[4, 5], &[0, 1], &d))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn ahd_empty_set_contributes_nothing() {
        let pts = line_points(2);
        let d = DistanceMatrix::from_points(&pts);
        assert_eq!(average_hausdorff(&[], &[0], &d), 0.0);
        assert_eq!(average_hausdorff(&[0], &[], &d), 0.0);
    }

    #[test]
    fn generalized_mean_approximates_min() {
        let xs = [1.0, 5.0, 10.0];
        let exact_min = 1.0;
        // More negative alpha → closer to min.
        let m1 = generalized_mean(&xs, -1.0, 1e-9);
        let m8 = generalized_mean(&xs, -8.0, 1e-9);
        assert!(m1 > exact_min);
        assert!(m8 > exact_min);
        assert!((m8 - exact_min).abs() < (m1 - exact_min).abs());
        assert!((generalized_mean(&xs, -64.0, 1e-9) - exact_min).abs() < 0.05);
    }

    #[test]
    fn generalized_mean_of_constant_is_constant() {
        assert!((generalized_mean(&[3.0, 3.0, 3.0], -1.0, 1e-9) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha = 0")]
    fn generalized_mean_rejects_zero_alpha() {
        generalized_mean(&[1.0], 0.0, 1e-9);
    }

    #[test]
    fn weighted_hausdorff_deterministic_limit_matches_ahd() {
        // With p ∈ {0,1}, e ≡ 1 and a very negative alpha (≈ exact min),
        // the surrogate reduces to AHD over the p=1 POIs (paper §IV-C).
        let pts = line_points(6);
        let d = DistanceMatrix::from_points(&pts);
        let e = vec![1.0; 6];
        let s_all: Vec<usize> = (0..6).collect();
        let p = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0]; // S = {0, 1}
        let n_set = vec![1, 2];
        let params = WeightedHausdorffParams {
            alpha: -128.0,
            epsilon: 1e-9,
            floor: 1e-9,
        };
        let wh = weighted_hausdorff(&s_all, &p, &n_set, &d, &e, &params);
        let ahd = average_hausdorff(&[0, 1], &n_set, &d);
        assert!(
            (wh - ahd).abs() < 1.0,
            "weighted {wh} should approximate exact {ahd}"
        );
    }

    #[test]
    fn weighted_hausdorff_all_ones_probability_is_optimistic() {
        // The paper's remark: dropping the first term, p ≡ 1 minimizes the
        // second term. Check the second-term-only behaviour via e ≡ 1.
        let pts = line_points(4);
        let d = DistanceMatrix::from_points(&pts);
        let e = vec![1.0; 4];
        let s: Vec<usize> = (0..4).collect();
        let n_set = vec![0];
        let params = WeightedHausdorffParams::default();
        let hi = weighted_hausdorff(&s, &[1.0; 4], &n_set, &d, &e, &params);
        let lo = weighted_hausdorff(&s, &[0.0; 4], &n_set, &d, &e, &params);
        // p ≡ 0 zeroes the first term but pays d_max in the second;
        // p ≡ 1 pays nearest-distance terms in both. Both must be finite and
        // non-negative; p ≡ 0 must cost ~d_max in the second term.
        assert!(hi.is_finite() && lo.is_finite());
        assert!(lo >= d.max_distance() * 0.9);
    }

    #[test]
    fn weighted_hausdorff_empty_friend_set_is_zero() {
        let pts = line_points(3);
        let d = DistanceMatrix::from_points(&pts);
        let e = vec![1.0; 3];
        assert_eq!(
            weighted_hausdorff(&[0, 1], &[0.5, 0.5], &[], &d, &e, &Default::default()),
            0.0
        );
    }

    #[test]
    fn entropy_weights_reduce_popular_poi_influence() {
        let pts = line_points(3);
        let d = DistanceMatrix::from_points(&pts);
        let s = vec![0];
        let p = vec![1.0];
        let n_set = vec![2];
        let uniform = weighted_hausdorff(&s, &p, &n_set, &d, &[1.0; 3], &Default::default());
        // Demote POI 0 and POI 2 via low weights.
        let weighted =
            weighted_hausdorff(&s, &p, &n_set, &d, &[0.1, 1.0, 0.1], &Default::default());
        assert!(weighted < uniform);
    }
}
