//! The social Hausdorff loss head `L₁` (paper §IV-C, Eqs 9–13) with
//! hand-derived, backpropagatable gradients.
//!
//! For each user `vᵢ`:
//!
//! * `N(vᵢ)` — POIs checked by friends (or by the user themself in the
//!   Self-Hausdorff ablation), fixed from the *training* tensor;
//! * `p_{ij} = 1 − Π_k (1 − clamp(X̂_{ijk}))` — the model-coupled visit
//!   probability (clamping keeps the product a probability; the gradient is
//!   zero where the clamp saturates — a standard subgradient choice);
//! * Term 1: `(1/(A+ε)) Σ_{j∈S} p_{ij} e_j min_{j'∈N} d(j,j')`;
//! * Term 2: `(1/|N|) Σ_{j'∈N} e_{j'} M_α over j∈S of
//!   [p_{ij} d(j,j') + (1−p_{ij}) d_max]` with the generalized mean
//!   `M_α` (α = −1 by default) standing in for min(·).
//!
//! The gradients flow `∂L₁/∂p → ∂p/∂X̂ → ∂X̂/∂(U¹,U²,U³,h)`; the last hop is
//! shared with the `L₂` head ([`crate::sparse_grads::backprop_entry_sparse`]).

use crate::config::HausdorffVariant;
#[cfg(test)]
use crate::loss::backprop_entry;
use crate::loss::Grads;
use crate::model::{clamp_prob, SliceScratch, TcssModel};
use crate::sparse_grads::{backprop_entry_sparse, GradScratch, SparseGrads};
use crate::workspace::TrainWorkspace;
use tcss_data::{CheckIn, Dataset};
use tcss_geo::{entropy_weights, DistanceMatrix, WeightedHausdorffParams};
use tcss_linalg::kernels;

/// Per-user scratch buffers for the Hausdorff head: clamped slice values,
/// visit probabilities, `dL/dp`, generalized-mean terms, prefix/suffix
/// products, the candidate set, and the candidate-indexed gather buffers
/// that let the per-`j'` distance scans run over contiguous memory.
/// Checked out of the trainer's [`TrainWorkspace`] pool once per worker
/// per parallel region — before this existed, every user of every epoch
/// allocated all of these vectors.
///
/// Buffers carry no information between users: each is either fully
/// overwritten before it is read or explicitly reset per call.
#[derive(Debug, Default)]
pub struct UserScratch {
    /// Scratch for [`TcssModel::user_slice_into`] (the `J·K·r` hot loop).
    slice: SliceScratch,
    /// Raw (unclamped) slice scores `X̂_{ijk}`, `j_dim · k_dim`.
    raw: Vec<f64>,
    /// Clamped slice values `x_{jk}`, `j_dim · k_dim`.
    x: Vec<f64>,
    /// Visit probabilities `p_{ij}`, `j_dim`.
    p: Vec<f64>,
    /// `dL/dp`, `j_dim`, zeroed per user.
    dp: Vec<f64>,
    /// Generalized-mean terms `f_j`, `|S|`.
    f: Vec<f64>,
    /// `f_j^α` cache, `|S|` (reused by the gradient as `f^{α−1} = f^α / f`,
    /// halving the `powf` count of the distance scans).
    fpow: Vec<f64>,
    /// Candidate-gathered probabilities `p_{ij}` for `j ∈ S`, `|S|`.
    pc: Vec<f64>,
    /// Candidate-gathered `e_j · minD_j`, `|S|`.
    ewm: Vec<f64>,
    /// Candidate-gathered distance column `d(j, j')` for `j ∈ S`, `|S|`.
    dcol: Vec<f64>,
    /// Prefix products of `(1 − x)`, `k_dim + 1`.
    prefix: Vec<f64>,
    /// Suffix products of `(1 − x)`, `k_dim + 1`.
    suffix: Vec<f64>,
    /// Candidate set `S(vᵢ)`.
    cand: Vec<usize>,
}

impl UserScratch {
    /// Empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        UserScratch::default()
    }
}

/// Where [`SocialHausdorffHead::user_loss_grad`] sends its gradient: a
/// chunk-local sparse delta (production parallel path), nowhere
/// (forward-only evaluation), or — in the test build only — a dense buffer
/// for the reference fold. The sparse and dense destinations run the
/// identical per-entry arithmetic ([`backprop_entry_sparse`] /
/// `loss::backprop_entry`), which is what the bitwise dense↔sparse parity
/// rests on.
enum GradTarget<'a> {
    /// Forward pass only.
    None,
    /// Accumulate `scale · ∂L₁/∂θ` into a dense buffer.
    #[cfg(test)]
    Dense(&'a mut Grads, f64),
    /// Accumulate `scale · ∂L₁/∂θ` into a chunk's sparse delta.
    Sparse(&'a mut SparseGrads, &'a mut GradScratch, f64),
}

impl GradTarget<'_> {
    fn wants_grad(&self) -> bool {
        !matches!(self, GradTarget::None)
    }

    fn scale(&self) -> f64 {
        match self {
            GradTarget::None => 0.0,
            #[cfg(test)]
            GradTarget::Dense(_, s) => *s,
            GradTarget::Sparse(_, _, s) => *s,
        }
    }

    #[inline]
    fn backprop(&mut self, model: &TcssModel, i: usize, j: usize, k: usize, c: f64) {
        match self {
            GradTarget::None => {}
            #[cfg(test)]
            GradTarget::Dense(grads, _) => backprop_entry(model, grads, i, j, k, c),
            GradTarget::Sparse(delta, scratch, _) => {
                backprop_entry_sparse(model, delta, scratch, i, j, k, c)
            }
        }
    }
}

/// Precomputed per-user social-spatial context plus the head parameters.
pub struct SocialHausdorffHead {
    /// `N(vᵢ)`: target POI sets per user.
    friend_pois: Vec<Vec<usize>>,
    /// `minD[i][j] = min_{j'∈N(vᵢ)} d(j, j')`; empty when `N(vᵢ)` is empty.
    min_dist: Vec<Vec<f64>>,
    /// Location-entropy weights `e_j = exp(−E_j)` from the training data.
    e_weights: Vec<f64>,
    /// Pairwise POI distances.
    dist: DistanceMatrix,
    /// Smooth-min and normalization parameters.
    params: WeightedHausdorffParams,
    /// Optional candidate-set cap (top-`p` POIs by visit probability).
    candidates: Option<usize>,
}

impl SocialHausdorffHead {
    /// Build the head from the dataset and its training check-ins.
    ///
    /// `variant` selects the paper's social targets or the Self-Hausdorff
    /// ablation; the `ZeroOut`/`None` variants have no head and must not be
    /// constructed (the trainer skips construction for them).
    pub fn new(
        data: &Dataset,
        train: &[CheckIn],
        variant: HausdorffVariant,
        params: WeightedHausdorffParams,
        candidates: Option<usize>,
    ) -> Self {
        assert!(
            matches!(
                variant,
                HausdorffVariant::Social | HausdorffVariant::SelfHausdorff
            ),
            "only the Social and SelfHausdorff variants carry a loss head"
        );
        let n_users = data.n_users;
        let n_pois = data.n_pois();
        // Visited POI sets from the training data only.
        let mut visited: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); n_users];
        for c in train {
            visited[c.user].insert(c.poi);
        }
        let friend_pois: Vec<Vec<usize>> = (0..n_users)
            .map(|u| match variant {
                HausdorffVariant::SelfHausdorff => visited[u].iter().copied().collect(),
                _ => {
                    let mut set = std::collections::BTreeSet::new();
                    for &f in data.social.neighbors(u) {
                        set.extend(visited[f].iter().copied());
                    }
                    set.into_iter().collect()
                }
            })
            .collect();
        // Distances are normalized by d_max so the head's magnitude (and
        // hence λ's meaning) is independent of the dataset's geographic
        // extent; this is a pure rescaling of L₁.
        let dist = data.distance_matrix().normalized();
        let min_dist: Vec<Vec<f64>> = friend_pois
            .iter()
            .map(|n_set| {
                if n_set.is_empty() {
                    Vec::new()
                } else {
                    (0..n_pois)
                        .map(|j| dist.min_to_set(j, n_set).expect("nonempty"))
                        .collect()
                }
            })
            .collect();
        let entropy = data.location_entropy_from(train);
        SocialHausdorffHead {
            friend_pois,
            min_dist,
            e_weights: entropy_weights(&entropy),
            dist,
            params,
            candidates,
        }
    }

    /// Entropy weights in use (exposed for tests and diagnostics).
    pub fn entropy_weights(&self) -> &[f64] {
        &self.e_weights
    }

    /// Target set `N(vᵢ)` (exposed for tests and diagnostics).
    pub fn target_set(&self, user: usize) -> &[usize] {
        &self.friend_pois[user]
    }

    /// The candidate set `S(vᵢ)` for a user given visit probabilities.
    ///
    /// Paper Eq 7: `S(vᵢ) = {j | ∃k : X̂_{ijk} > 0}`, i.e. POIs with a
    /// strictly positive visit probability — not the whole POI catalogue.
    /// This matters: including the `p ≈ 0` bulk dilutes the generalized
    /// mean (its `1/|S|` factor) until the head's gradient vanishes.
    /// An optional cap keeps only the top-`p` candidates, selected in
    /// `O(n)` by [`slice::select_nth_unstable_by`]; ties on equal
    /// probability break by ascending POI index, which reproduces the
    /// previous stable sort-descending + truncate set (and the final
    /// ascending sort reproduces its order) exactly.
    fn candidate_set(&self, p: &[f64], idx: &mut Vec<usize>) {
        idx.clear();
        idx.extend((0..p.len()).filter(|&j| p[j] > 0.0));
        if let Some(cap) = self.candidates {
            if idx.len() > cap {
                idx.select_nth_unstable_by(cap, |&a, &b| {
                    p[b].partial_cmp(&p[a])
                        .expect("probabilities finite")
                        .then(a.cmp(&b))
                });
                idx.truncate(cap);
                idx.sort_unstable();
            }
        }
    }

    /// Forward value of `L₁` (sum over users of Eq 12).
    pub fn loss(&self, model: &TcssModel) -> f64 {
        let (n_users, _, _) = model.dims();
        let mut us = UserScratch::new();
        (0..n_users)
            .map(|i| self.user_loss_grad(model, i, &mut us, GradTarget::None))
            .sum()
    }

    /// Users per parallel chunk. One user's gradient touches every POI in
    /// the candidate set, so even a handful of users is enough work to
    /// amortize a per-chunk `Grads` buffer.
    const USERS_PER_CHUNK: usize = 8;

    /// `L₁` and its gradient, scaled by `scale` (= λ), accumulated into
    /// `grads`, over the pooled workspaces in `ws` (pass a fresh
    /// [`TrainWorkspace::new`] for a one-shot call; the trainer holds one so
    /// scratch buffers amortize across epochs). Returns the unscaled loss
    /// value.
    ///
    /// The per-user terms of Eq 13 are independent, so they are computed in
    /// parallel through [`tcss_linalg::map_chunks_with`]: users are cut
    /// into fixed chunks, each chunk accumulates a sparse delta of the rows
    /// it touches ([`SparseGrads`]), and the deltas scatter into `grads` in
    /// chunk order. Under the deterministic-reduction contract and the
    /// sparse-delta merge contract ([`crate::sparse_grads`]) the result is
    /// bit-for-bit identical to a sequential dense fold of the same chunks
    /// at every thread count (the test module's `dense_reference` pins
    /// this).
    pub fn loss_and_grad_ws(
        &self,
        model: &TcssModel,
        grads: &mut Grads,
        scale: f64,
        ws: &TrainWorkspace,
    ) -> f64 {
        let (n_users, _, _) = model.dims();
        let partials = tcss_linalg::map_chunks_with(
            n_users,
            Self::USERS_PER_CHUNK,
            || {
                let mut scratch = ws.scratch.acquire(|| GradScratch::for_model(model));
                scratch.ensure(model);
                let users = ws.users.acquire(UserScratch::new);
                (scratch, users)
            },
            |(scratch, users), range| {
                let mut delta = ws.deltas.take(SparseGrads::new);
                delta.begin(model);
                let mut total = 0.0;
                for i in range {
                    total += self.user_loss_grad(
                        model,
                        i,
                        users,
                        GradTarget::Sparse(&mut delta, scratch, scale),
                    );
                }
                delta.detach(scratch);
                (total, delta)
            },
        );
        let mut total = 0.0;
        for (t, delta) in partials {
            total += t;
            delta.scatter_into(grads);
            ws.deltas.put(delta);
        }
        total
    }

    /// Loss (and optional gradient accumulation) for one user. All scratch
    /// vectors come from `us`; every buffer is fully overwritten (or
    /// explicitly reset) before it is read, so a pooled scratch cannot leak
    /// state between users.
    fn user_loss_grad(
        &self,
        model: &TcssModel,
        user: usize,
        us: &mut UserScratch,
        mut target: GradTarget,
    ) -> f64 {
        let n_set = &self.friend_pois[user];
        if n_set.is_empty() {
            return 0.0;
        }
        let min_d = &self.min_dist[user];
        let d_max = self.dist.max_distance();
        let alpha = self.params.alpha;
        let eps = self.params.epsilon;
        let floor = self.params.floor;

        // Raw slice and clamped probabilities.
        let (_, j_dim, k_dim) = model.dims();
        let UserScratch {
            slice,
            raw,
            x,
            p,
            dp,
            f,
            fpow,
            pc,
            ewm,
            dcol,
            prefix,
            suffix,
            cand,
        } = us;
        model.user_slice_into(user, slice, raw);
        x.resize(j_dim * k_dim, 0.0);
        p.resize(j_dim, 0.0);
        for j in 0..j_dim {
            let mut not_visit = 1.0;
            for k in 0..k_dim {
                let c = clamp_prob(raw[j * k_dim + k]);
                x[j * k_dim + k] = c;
                not_visit *= 1.0 - c;
            }
            p[j] = 1.0 - not_visit;
        }
        self.candidate_set(p, cand);
        let s_set: &[usize] = cand;
        if s_set.is_empty() {
            // No POI has positive predicted probability (Eq 7's S(vᵢ) is
            // empty) — nothing to regularize for this user.
            return 0.0;
        }

        // Gather the candidate-indexed quantities once so the per-`j'`
        // scans below run over contiguous buffers instead of scattered
        // `p[j]` / `dist.get` lookups.
        let s = s_set.len();
        pc.resize(s, 0.0);
        ewm.resize(s, 0.0);
        for (idx, &j) in s_set.iter().enumerate() {
            pc[idx] = p[j];
            ewm[idx] = self.e_weights[j] * min_d[j];
        }

        // ---- Term 1 ----
        // Lane-kernel reductions (canonical order of `tcss_linalg::kernels`;
        // deterministic, shared by every path that evaluates this head).
        let a_norm = kernels::sum(pc);
        let s1 = kernels::dot(pc, ewm);
        let term1 = s1 / (a_norm + eps);

        // ---- Term 2 ----
        let n_len = n_set.len() as f64;
        let s_len = s as f64;
        let mut term2 = 0.0;
        // dL/dp accumulated over both terms.
        dp.clear();
        dp.resize(j_dim, 0.0);
        for (idx, &j) in s_set.iter().enumerate() {
            // Term-1 derivative: (e_j·minD_j − term1)/(A+ε).
            dp[j] += (ewm[idx] - term1) / (a_norm + eps);
        }
        f.resize(s, 0.0);
        fpow.resize(s, 0.0);
        dcol.resize(s, 0.0);
        for &jp in n_set {
            for (idx, &j) in s_set.iter().enumerate() {
                dcol[idx] = self.dist.get(j, jp);
            }
            for idx in 0..s {
                let fj = (pc[idx] * dcol[idx] + (1.0 - pc[idx]) * d_max).max(floor);
                f[idx] = fj;
                fpow[idx] = fj.powf(alpha);
            }
            let mean_pow = kernels::sum(fpow) / s_len;
            let m = mean_pow.powf(1.0 / alpha);
            term2 += self.e_weights[jp] * m;
            if target.wants_grad() {
                // dM/df_j = (1/|S|) · m̄^{(1−α)/α} · f_j^{α−1}; the cached
                // `f^α` gives `f^{α−1}` as `f^α / f`, saving a `powf` per
                // (j, j') pair. df_j/dp_j = d(j,j') − d_max (zero where the
                // floor clamps, i.e. where `f` sits exactly on the floor).
                let m_bar_pow = mean_pow.powf((1.0 - alpha) / alpha);
                for (idx, &j) in s_set.iter().enumerate() {
                    if f[idx] <= floor {
                        continue;
                    }
                    let dm_df = m_bar_pow * (fpow[idx] / f[idx]) / s_len;
                    dp[j] += self.e_weights[jp] / n_len * dm_df * (dcol[idx] - d_max);
                }
            }
        }
        term2 /= n_len;

        // ---- Backprop dL/dp → dL/dX̂ → factors ----
        if target.wants_grad() {
            let scale = target.scale();
            prefix.resize(k_dim + 1, 0.0);
            suffix.resize(k_dim + 1, 0.0);
            prefix[0] = 1.0;
            suffix[k_dim] = 1.0;
            for &j in s_set {
                if dp[j] == 0.0 {
                    continue;
                }
                // dp/dx_k = Π_{k'≠k} (1 − x_{k'}) via prefix/suffix products.
                let xs = &x[j * k_dim..(j + 1) * k_dim];
                for k in 0..k_dim {
                    prefix[k + 1] = prefix[k] * (1.0 - xs[k]);
                }
                for k in (0..k_dim).rev() {
                    suffix[k] = suffix[k + 1] * (1.0 - xs[k]);
                }
                for k in 0..k_dim {
                    let raw = raw[j * k_dim + k];
                    let dp_dx = prefix[k] * suffix[k + 1];
                    let c = scale * dp[j] * dp_dx;
                    // Projected-gradient treatment of the clamp: block the
                    // gradient only when it points *out of* [0, 1). A hard
                    // zero-on-saturation rule would permanently silence the
                    // never-visited POIs (raw score ≲ 0) that the social
                    // head exists to lift. (Update direction is −c.)
                    let blocked = (raw <= 0.0 && c > 0.0) || (raw >= 1.0 - 1e-9 && c < 0.0);
                    if !blocked && c != 0.0 {
                        target.backprop(model, user, j, k, c);
                    }
                }
            }
        }

        term1 + term2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_init;
    use tcss_data::{Category, Poi};
    use tcss_geo::GeoPoint;
    use tcss_graph::SocialGraph;

    /// Tiny dataset: 3 users in a line of 5 POIs; users 0 and 1 are friends.
    fn toy_data() -> (Dataset, Vec<CheckIn>) {
        let pois: Vec<Poi> = (0..5)
            .map(|j| Poi {
                location: GeoPoint::new(0.0, j as f64 * 0.5),
                category: Category::Food,
            })
            .collect();
        let mk = |user, poi, month| CheckIn {
            user,
            poi,
            month,
            week: (month as u16 * 4) as u8,
            hour: 12,
        };
        let checkins = vec![
            mk(0, 0, 0),
            mk(0, 1, 3),
            mk(1, 1, 2),
            mk(1, 2, 6),
            mk(2, 4, 9),
        ];
        let data = Dataset {
            name: "toy".into(),
            n_users: 3,
            pois,
            checkins: checkins.clone(),
            social: SocialGraph::from_edges(3, vec![(0, 1)]),
        };
        (data, checkins)
    }

    fn toy_model(data: &Dataset) -> TcssModel {
        let dims = (data.n_users, data.n_pois(), 12);
        let (u1, u2, u3) = random_init(dims, 3, 21);
        TcssModel::new(u1, u2, u3)
    }

    /// A model whose scores all lie strictly inside (0, 1): every factor
    /// entry is positive and small, so the clamp never saturates and the
    /// analytic gradient equals the true derivative (the projected-gradient
    /// rule only differs *at* the clamp boundary).
    fn interior_model(data: &Dataset) -> TcssModel {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(33);
        let dims = (data.n_users, data.n_pois(), 12);
        let mut mk = |n: usize| tcss_linalg::Matrix::from_fn(n, 3, |_, _| rng.gen_range(0.2..0.6));
        let u1 = mk(dims.0);
        let u2 = mk(dims.1);
        let u3 = mk(dims.2);
        TcssModel::new(u1, u2, u3)
    }

    #[test]
    fn friend_sets_follow_variant() {
        let (data, train) = toy_data();
        let social = SocialHausdorffHead::new(
            &data,
            &train,
            HausdorffVariant::Social,
            Default::default(),
            None,
        );
        // User 0's friends = {1}; friend POIs = {1, 2}.
        assert_eq!(social.target_set(0), &[1, 2]);
        // User 2 has no friends → empty target set.
        assert!(social.target_set(2).is_empty());
        let selfh = SocialHausdorffHead::new(
            &data,
            &train,
            HausdorffVariant::SelfHausdorff,
            Default::default(),
            None,
        );
        assert_eq!(selfh.target_set(0), &[0, 1]);
        assert_eq!(selfh.target_set(2), &[4]);
    }

    #[test]
    #[should_panic(expected = "Social and SelfHausdorff")]
    fn zero_out_variant_rejected() {
        let (data, train) = toy_data();
        SocialHausdorffHead::new(
            &data,
            &train,
            HausdorffVariant::ZeroOut,
            Default::default(),
            None,
        );
    }

    /// The head's forward value must agree with the reference forward
    /// implementation in `tcss-geo`.
    #[test]
    fn forward_matches_geo_reference() {
        let (data, train) = toy_data();
        let head = SocialHausdorffHead::new(
            &data,
            &train,
            HausdorffVariant::Social,
            Default::default(),
            None,
        );
        let model = toy_model(&data);
        let got = head.loss(&model);
        // Reference: per user, call tcss_geo::weighted_hausdorff with the
        // same probabilities, candidate set (= all POIs) and weights, on
        // the same normalized distance matrix.
        let dist = data.distance_matrix().normalized();
        let mut expect = 0.0;
        for i in 0..data.n_users {
            let n_set = head.target_set(i);
            if n_set.is_empty() {
                continue;
            }
            let p = model.visit_probabilities(i);
            // Eq 7: S(vᵢ) = POIs with positive visit probability.
            let s_set: Vec<usize> = (0..data.n_pois()).filter(|&j| p[j] > 0.0).collect();
            let p_sub: Vec<f64> = s_set.iter().map(|&j| p[j]).collect();
            expect += tcss_geo::weighted_hausdorff(
                &s_set,
                &p_sub,
                n_set,
                &dist,
                head.entropy_weights(),
                &Default::default(),
            );
        }
        assert!(
            (got - expect).abs() < 1e-9,
            "head {got} vs reference {expect}"
        );
    }

    /// Finite-difference check of the full analytic gradient through
    /// probabilities, clamping, the generalized mean and the factors.
    #[test]
    fn gradient_finite_difference() {
        let (data, train) = toy_data();
        let head = SocialHausdorffHead::new(
            &data,
            &train,
            HausdorffVariant::Social,
            Default::default(),
            None,
        );
        let mut model = interior_model(&data);
        let mut grads = Grads::zeros(&model);
        head.loss_and_grad_ws(&model, &mut grads, 1.0, &TrainWorkspace::new());
        let h = 1e-6;
        let mut checked = 0;
        // Spot-check a spread of coordinates in every factor.
        for (mat_id, coords) in [
            (0usize, vec![(0usize, 0usize), (1, 2), (2, 1)]),
            (1, vec![(0, 0), (3, 1), (4, 2)]),
            (2, vec![(0, 0), (6, 1), (11, 2)]),
        ] {
            for (row, col) in coords {
                let get = |m: &TcssModel| match mat_id {
                    0 => m.u1.get(row, col),
                    1 => m.u2.get(row, col),
                    _ => m.u3.get(row, col),
                };
                let set = |m: &mut TcssModel, v: f64| match mat_id {
                    0 => m.u1.set(row, col, v),
                    1 => m.u2.set(row, col, v),
                    _ => m.u3.set(row, col, v),
                };
                let orig = get(&model);
                set(&mut model, orig + h);
                let fp = head.loss(&model);
                set(&mut model, orig - h);
                let fm = head.loss(&model);
                set(&mut model, orig);
                let num = (fp - fm) / (2.0 * h);
                let analytic = match mat_id {
                    0 => grads.u1.get(row, col),
                    1 => grads.u2.get(row, col),
                    _ => grads.u3.get(row, col),
                };
                // Clamp boundaries make a few coordinates non-smooth; only
                // enforce agreement where the numeric derivative is stable.
                if (fp - fm).abs() > 1e-12 || analytic.abs() > 1e-9 {
                    assert!(
                        (num - analytic).abs() < 1e-4 * num.abs().max(analytic.abs()).max(1.0),
                        "mat {mat_id} ({row},{col}): numeric {num} vs analytic {analytic}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 5, "too few smooth coordinates checked");
    }

    #[test]
    fn scale_parameter_scales_gradient() {
        let (data, train) = toy_data();
        let head = SocialHausdorffHead::new(
            &data,
            &train,
            HausdorffVariant::Social,
            Default::default(),
            None,
        );
        let model = toy_model(&data);
        let mut g1 = Grads::zeros(&model);
        head.loss_and_grad_ws(&model, &mut g1, 1.0, &TrainWorkspace::new());
        let mut g2 = Grads::zeros(&model);
        head.loss_and_grad_ws(&model, &mut g2, 0.5, &TrainWorkspace::new());
        assert!((g2.norm() - 0.5 * g1.norm()).abs() < 1e-9);
    }

    #[test]
    fn candidate_cap_limits_set() {
        let (data, train) = toy_data();
        let head = SocialHausdorffHead::new(
            &data,
            &train,
            HausdorffVariant::Social,
            Default::default(),
            Some(2),
        );
        let model = toy_model(&data);
        // With a cap the loss is still finite and non-negative.
        let l = head.loss(&model);
        assert!(l.is_finite() && l >= 0.0);
    }

    fn grads_bits(g: &Grads) -> Vec<u64> {
        g.u1.as_slice()
            .iter()
            .chain(g.u2.as_slice())
            .chain(g.u3.as_slice())
            .chain(&g.h)
            .map(|v| v.to_bits())
            .collect()
    }

    /// The head's one test reference: each fixed
    /// [`SocialHausdorffHead::USERS_PER_CHUNK`]-user chunk folds into its
    /// own dense [`Grads`], and the chunks merge in ascending order on one
    /// thread. The chunk grid is the production grid, so this is
    /// bit-identical to the parallel sparse path at every thread count.
    fn dense_reference(
        head: &SocialHausdorffHead,
        model: &TcssModel,
        grads: &mut Grads,
        scale: f64,
    ) -> f64 {
        let (n_users, _, _) = model.dims();
        let mut us = UserScratch::new();
        let mut total = 0.0;
        for range in tcss_linalg::chunk_ranges(n_users, SocialHausdorffHead::USERS_PER_CHUNK) {
            let mut local = Grads::zeros(model);
            let mut chunk_total = 0.0;
            for i in range {
                chunk_total +=
                    head.user_loss_grad(model, i, &mut us, GradTarget::Dense(&mut local, scale));
            }
            total += chunk_total;
            grads.add_scaled(1.0, &local);
        }
        total
    }

    /// The parallel sparse head equals the sequential dense reference
    /// bit-for-bit at 1/2/4 threads, on a cold and on a warmed workspace,
    /// with and without the top-`p` candidate cap (the capped run
    /// exercises the `select_nth_unstable_by` selection).
    #[test]
    fn parallel_matches_sequential() {
        // Enough users to trigger the parallel path.
        use tcss_data::SynthPreset;
        let data = SynthPreset::Gmu5k.generate();
        let train: Vec<CheckIn> = data.checkins.iter().take(2000).copied().collect();
        let tensor = data.tensor_from(&train, tcss_data::Granularity::Month);
        let (u1, u2, u3) = random_init(tensor.dims(), 4, 9);
        let model = TcssModel::new(u1, u2, u3);
        for cap in [None, Some(7)] {
            let head = SocialHausdorffHead::new(
                &data,
                &train,
                HausdorffVariant::Social,
                Default::default(),
                cap,
            );
            let mut g_ref = Grads::zeros(&model);
            let l_ref = dense_reference(&head, &model, &mut g_ref, 240.0);
            let want = (l_ref.to_bits(), grads_bits(&g_ref));
            for threads in [1, 2, 4] {
                tcss_linalg::set_num_threads(Some(threads));
                let ws = TrainWorkspace::new();
                for round in 0..2 {
                    // Round 1 warms the pools; round 2 runs on recycled buffers.
                    let mut grads = Grads::zeros(&model);
                    let loss = head.loss_and_grad_ws(&model, &mut grads, 240.0, &ws);
                    assert_eq!(
                        want,
                        (loss.to_bits(), grads_bits(&grads)),
                        "sparse head diverges at {threads} threads (cap {cap:?}, round {round})"
                    );
                }
            }
        }
        tcss_linalg::set_num_threads(None);
    }

    #[test]
    fn users_without_targets_contribute_zero() {
        let (data, train) = toy_data();
        let head = SocialHausdorffHead::new(
            &data,
            &train,
            HausdorffVariant::Social,
            Default::default(),
            None,
        );
        let model = toy_model(&data);
        let mut grads = Grads::zeros(&model);
        head.loss_and_grad_ws(&model, &mut grads, 1.0, &TrainWorkspace::new());
        // User 2 (no friends) must receive zero gradient in U¹.
        assert!(grads.u1.row(2).iter().all(|&g| g == 0.0));
    }
}
