//! Fixed-lane f64 micro-kernels for the training and scoring hot paths.
//!
//! Every primitive here is plain safe Rust — no intrinsics, no `unsafe`.
//! Two implementation shapes, chosen by what blocks autovectorization:
//!
//! * **Reductions** ([`dot`], [`dot4`], [`sum`], [`recip_affine_sum`])
//!   carry a serial dependency through their accumulator, which LLVM must
//!   not reassociate; they are written over [`slice::chunks_exact`] with
//!   [`LANES`] independent accumulators plus an explicit remainder loop,
//!   which both breaks the dependency chain and eliminates per-element
//!   bounds checks.
//! * **Elementwise kernels** ([`axpy`] and friends) have no cross-element
//!   dependency, so vectorization is legal as-is; the only obstacle is
//!   bounds checking. They are plain index loops over slices re-sliced to
//!   a common length up front — after that normalization LLVM proves every
//!   index in range and vectorizes the loop directly. (A manual lane
//!   structure here only obscures the loop; measured, it was *slower* than
//!   the normalized scalar form.)
//!
//! # Lane width
//!
//! [`LANES`] is 4: four f64 lanes fill one 256-bit AVX2 register, and on
//! narrower targets (128-bit SSE2/NEON) LLVM splits each 4-wide operation
//! into two 2-wide ones without changing the arithmetic. Widening to 8
//! would double the remainder-loop cost for the rank-sized (`r ≤ 16`)
//! vectors that dominate this workspace while only helping AVX-512 hosts.
//! Tile widths upstream ([`crate::Matrix`]'s 64-wide blocks) are multiples
//! of `LANES`, so full reduction tiles never enter a remainder loop;
//! [`update_row_quad`] likewise fuses `LANES` source rows per pass.
//!
//! # Reduction-order contract
//!
//! Kernels come in two families with different determinism obligations:
//!
//! * **Elementwise kernels** ([`axpy`], [`fused_mul_axpy`],
//!   [`fused_mul3_axpy`], [`update_row_quad`]) perform no cross-element
//!   reduction: each output element is an independent chain of adds in
//!   the documented order. They are **bit-for-bit identical** to the
//!   scalar loops they replaced — vectorizing across elements never
//!   reorders any per-element float chain.
//! * **Reduction kernels** ([`dot`], [`dot4`], [`sum`],
//!   [`recip_affine_sum`]) use `LANES` independent accumulators and
//!   therefore define a **new canonical summation order** (see below). It
//!   is a *fixed* order — a pure function of the input length, never of
//!   the thread count or the caller — so the workspace-wide bitwise
//!   determinism contract (`tcss_linalg::parallel`) is preserved: every
//!   path that consumes a reduction kernel produces the same bits at 1,
//!   2, or 4 threads.
//!
//! The canonical reduction order, pinned by the proptests in
//! `tests/kernel_parity.rs`:
//!
//! ```text
//! n   = len - len % LANES            (the "main" prefix)
//! s_l = Σ_{i < n, i ≡ l (mod LANES)} term(i)     for l = 0..LANES
//! out = ((s_0 + s_1) + (s_2 + s_3)) + term(n) + term(n+1) + …
//! ```
//!
//! i.e. lane `l` accumulates every `LANES`-th term starting at `l`, in
//! ascending index order; the four lane sums combine as a fixed pairwise
//! tree; the tail terms are folded in sequentially, ascending. For
//! `len < LANES` the main prefix is empty and the kernel degenerates to
//! the plain left-to-right sum.

/// Fixed vector width (f64 lanes) of every kernel in this module.
pub const LANES: usize = 4;

/// Fixed vector width (f32 lanes) of the single-precision kernels.
///
/// Eight f32 lanes fill the same 256-bit AVX2 register four f64 lanes do,
/// so the f32 family runs at **double the effective SIMD width** of the
/// f64 family on the same hardware — the whole point of the quantized
/// serving snapshots that consume these kernels. The canonical reduction
/// order mirrors the f64 contract with eight lanes instead of four:
///
/// ```text
/// n   = len - len % LANES_F32
/// s_l = Σ_{i < n, i ≡ l (mod 8)} term(i)          for l = 0..8
/// out = (((s_0+s_1)+(s_2+s_3)) + ((s_4+s_5)+(s_6+s_7))) + term(n) + …
/// ```
///
/// i.e. lane `l` accumulates every 8th term ascending, the eight lane
/// sums combine as a fixed three-level pairwise tree, and tail terms fold
/// in sequentially. For `len < 8` the kernel degenerates to the plain
/// left-to-right sum. The order is a pure function of the input length —
/// never of the thread count — so the workspace-wide bitwise determinism
/// contract extends to the f32 lanes unchanged (pinned by the reference
/// implementations in `tests/kernel_parity.rs`).
pub const LANES_F32: usize = 8;

/// Multi-accumulator dot product `Σ a[i]·b[i]` in the canonical lane order
/// (see the module docs). Slices must have equal length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len() - a.len() % LANES;
    let (a_main, a_tail) = a.split_at(n);
    let (b_main, b_tail) = b.split_at(n);
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&x, &y) in a_tail.iter().zip(b_tail.iter()) {
        s += x * y;
    }
    s
}

/// Fused four-slice dot `Σ ((a[i]·b[i])·c[i])·d[i]` in the canonical lane
/// order. This is the model's scoring kernel (`X̂ = Σ_t h_t U¹ U² U³`, paper
/// Eq 6): the per-term product association matches the scalar loop it
/// replaced (left-to-right), only the summation order is the lane tree.
#[inline]
pub fn dot4(a: &[f64], b: &[f64], c: &[f64], d: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    debug_assert_eq!(a.len(), d.len());
    let n = a.len() - a.len() % LANES;
    let (a_main, a_tail) = a.split_at(n);
    let (b_main, b_tail) = b.split_at(n);
    let (c_main, c_tail) = c.split_at(n);
    let (d_main, d_tail) = d.split_at(n);
    let mut acc = [0.0f64; LANES];
    for (((ca, cb), cc), cd) in a_main
        .chunks_exact(LANES)
        .zip(b_main.chunks_exact(LANES))
        .zip(c_main.chunks_exact(LANES))
        .zip(d_main.chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += ((ca[l] * cb[l]) * cc[l]) * cd[l];
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in 0..a_tail.len() {
        s += ((a_tail[i] * b_tail[i]) * c_tail[i]) * d_tail[i];
    }
    s
}

/// Multi-accumulator sum `Σ a[i]` in the canonical lane order.
#[inline]
pub fn sum(a: &[f64]) -> f64 {
    let n = a.len() - a.len() % LANES;
    let (main, tail) = a.split_at(n);
    let mut acc = [0.0f64; LANES];
    for chunk in main.chunks_exact(LANES) {
        for l in 0..LANES {
            acc[l] += chunk[l];
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &x in tail {
        s += x;
    }
    s
}

/// `y[i] += alpha · x[i]` (elementwise — bitwise identical to the scalar
/// loop).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n = y.len();
    let x = &x[..n];
    for i in 0..n {
        y[i] += alpha * x[i];
    }
}

/// Fused elementwise-product-accumulate `y[i] += (c·a[i])·b[i]`
/// (elementwise — bitwise identical to the scalar loop, left-to-right
/// product association).
#[inline]
pub fn fused_mul_axpy(c: f64, a: &[f64], b: &[f64], y: &mut [f64]) {
    debug_assert_eq!(a.len(), y.len());
    debug_assert_eq!(b.len(), y.len());
    let n = y.len();
    let (a, b) = (&a[..n], &b[..n]);
    for i in 0..n {
        y[i] += (c * a[i]) * b[i];
    }
}

/// Fused triple-product accumulate `y[i] += ((c·a[i])·b[i])·d[i]`
/// (elementwise — bitwise identical to the scalar loop, left-to-right
/// product association). This is the shape of every factor-gradient inner
/// loop in the entry backprop (`g += c·h⊙U⊙U`, paper Eq 16–19).
#[inline]
pub fn fused_mul3_axpy(c: f64, a: &[f64], b: &[f64], d: &[f64], y: &mut [f64]) {
    debug_assert_eq!(a.len(), y.len());
    debug_assert_eq!(b.len(), y.len());
    debug_assert_eq!(d.len(), y.len());
    let n = y.len();
    let (a, b, d) = (&a[..n], &b[..n], &d[..n]);
    for i in 0..n {
        y[i] += ((c * a[i]) * b[i]) * d[i];
    }
}

/// `LANES`-wide tile micro-kernel: accumulate four weighted rows into an
/// output row in one pass,
///
/// ```text
/// out[j] = (((out[j] + w[0]·r0[j]) + w[1]·r1[j]) + w[2]·r2[j]) + w[3]·r3[j]
/// ```
///
/// The four adds per element are **sequential** (not a pairwise tree), so
/// the result is bit-for-bit identical to four consecutive [`axpy`] calls
/// — and hence to the scalar ascending-`k` loops the tiled `matmul`/`gram`
/// kernels and the per-user slice evaluation were built from. What the
/// fusion buys is memory traffic: the output row is loaded and stored once
/// per four source rows instead of once per row, and the four independent
/// products per element fill the FMA pipeline.
#[inline]
pub fn update_row_quad(
    out: &mut [f64],
    w: [f64; 4],
    r0: &[f64],
    r1: &[f64],
    r2: &[f64],
    r3: &[f64],
) {
    debug_assert_eq!(out.len(), r0.len());
    debug_assert_eq!(out.len(), r1.len());
    debug_assert_eq!(out.len(), r2.len());
    debug_assert_eq!(out.len(), r3.len());
    let n = out.len();
    let (r0, r1, r2, r3) = (&r0[..n], &r1[..n], &r2[..n], &r3[..n]);
    for i in 0..n {
        let mut acc = out[i];
        acc += w[0] * r0[i];
        acc += w[1] * r1[i];
        acc += w[2] * r2[i];
        acc += w[3] * r3[i];
        out[i] = acc;
    }
}

/// Harmonic-mean terms of an affine family and their gradient weights:
/// the generalized mean `M_α` at α = −1 over `f = p·d + (1 − p)·d_max`,
/// as the social-Hausdorff head's pair loop evaluates it for one target
/// POI.
///
/// ```text
/// f[i]  = p[i]·d[i] + (1 − p[i])·d_max
/// v[i]  = 1 / max(f[i], floor)
/// gw[i] = (v[i]·v[i])·(d[i] − d_max)   where f[i] > floor, else 0.0
/// out   = Σ v[i]                        (canonical lane order)
/// ```
///
/// `∂f/∂p = d − d_max`, so `g·gw[i]` is the gradient of `g·Σ v` with the
/// sign flipped — the head scales it by `m²/|S|` and [`axpy`]s it into
/// `dL/dp`; it is zero where the floor clamps `f`. Writes every `gw[i]`
/// and returns the sum of the `v[i]` in the canonical reduction order of
/// the module docs (the same bits as [`sum`] over them). All slices must
/// have `gw`'s length.
#[inline]
pub fn recip_affine_sum(p: &[f64], d: &[f64], floor: f64, d_max: f64, gw: &mut [f64]) -> f64 {
    debug_assert_eq!(p.len(), gw.len());
    debug_assert_eq!(d.len(), gw.len());
    let term = |p: f64, d: f64, gw: &mut f64| {
        let f = p * d + (1.0 - p) * d_max;
        let v = 1.0 / f.max(floor);
        *gw = if f > floor {
            (v * v) * (d - d_max)
        } else {
            0.0
        };
        v
    };
    let len = gw.len();
    let n = len - len % LANES;
    let (p_main, p_tail) = p[..len].split_at(n);
    let (d_main, d_tail) = d[..len].split_at(n);
    let (gw_main, gw_tail) = gw.split_at_mut(n);
    let mut acc = [0.0f64; LANES];
    for ((cp, cd), cg) in p_main
        .chunks_exact(LANES)
        .zip(d_main.chunks_exact(LANES))
        .zip(gw_main.chunks_exact_mut(LANES))
    {
        for l in 0..LANES {
            acc[l] += term(cp[l], cd[l], &mut cg[l]);
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in 0..gw_tail.len() {
        s += term(p_tail[i], d_tail[i], &mut gw_tail[i]);
    }
    s
}

/// Adam's first-moment decay β₁ (the optimizer literature default).
pub const ADAM_B1: f64 = 0.9;
/// Adam's second-moment decay β₂.
pub const ADAM_B2: f64 = 0.999;
/// Adam's denominator guard ε.
pub const ADAM_EPS: f64 = 1e-8;

/// Scalar inputs of one [`adam_update`] call: learning rate, weight decay,
/// the β/ε constants and the step-`t` bias corrections `1 − βᵗ`. Bundled so
/// every caller — the in-process trainer and the tail-sharded distributed
/// workers alike — derives them through [`AdamParams::for_step`] and cannot
/// drift in how `t` turns into `bc1`/`bc2`.
#[derive(Debug, Clone, Copy)]
pub struct AdamParams {
    /// Effective learning rate (base rate × any backoff scale).
    pub lr: f64,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f64,
    /// First-moment bias correction `1 − β₁ᵗ`.
    pub bc1: f64,
    /// Second-moment bias correction `1 − β₂ᵗ`.
    pub bc2: f64,
}

impl AdamParams {
    /// Parameters for step `t` (the *post-increment* step counter: the
    /// first update passes `t = 1`).
    #[inline]
    pub fn for_step(lr: f64, weight_decay: f64, t: u64) -> Self {
        AdamParams {
            lr,
            weight_decay,
            bc1: 1.0 - ADAM_B1.powi(t as i32),
            bc2: 1.0 - ADAM_B2.powi(t as i32),
        }
    }
}

/// One Adam step over a parameter slice: moment update plus parameter
/// write-back,
///
/// ```text
/// m[i] = β₁·m[i] + (1−β₁)·g[i]
/// v[i] = β₂·v[i] + (1−β₂)·g[i]·g[i]
/// w[i] -= lr · (m̂/(√v̂ + ε) + weight_decay·w[i])      m̂ = m[i]/bc1, v̂ = v[i]/bc2
/// ```
///
/// Elementwise — no cross-element reduction, so the result is bit-for-bit
/// identical to the scalar loop *and* decomposes freely over any row range:
/// updating `[0, n)` in one call equals updating `[0, k)` then `[k, n)`.
/// That range-splittability is what lets the distributed tail-sharded mode
/// run this kernel per owned row range on different processes and still
/// land on the single-process bits.
#[inline]
pub fn adam_update(w: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64], p: &AdamParams) {
    debug_assert_eq!(w.len(), g.len());
    debug_assert_eq!(w.len(), m.len());
    debug_assert_eq!(w.len(), v.len());
    let n = w.len();
    let g = &g[..n];
    let (m, v) = (&mut m[..n], &mut v[..n]);
    for i in 0..n {
        m[i] = ADAM_B1 * m[i] + (1.0 - ADAM_B1) * g[i];
        v[i] = ADAM_B2 * v[i] + (1.0 - ADAM_B2) * g[i] * g[i];
        let mhat = m[i] / p.bc1;
        let vhat = v[i] / p.bc2;
        w[i] -= p.lr * (mhat / (vhat.sqrt() + ADAM_EPS) + p.weight_decay * w[i]);
    }
}

/// Multi-accumulator f32 dot product `Σ a[i]·b[i]` in the canonical
/// eight-lane order (see [`LANES_F32`]). Slices must have equal length.
///
/// This is the snapshot-serving score kernel: with `a` a request's
/// quantized weight vector and `b` an f32 POI row straight out of an
/// mmap-ed snapshot, one call produces one score.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len() - a.len() % LANES_F32;
    let (a_main, a_tail) = a.split_at(n);
    let (b_main, b_tail) = b.split_at(n);
    let mut acc = [0.0f32; LANES_F32];
    for (ca, cb) in a_main
        .chunks_exact(LANES_F32)
        .zip(b_main.chunks_exact(LANES_F32))
    {
        for l in 0..LANES_F32 {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (&x, &y) in a_tail.iter().zip(b_tail.iter()) {
        s += x * y;
    }
    s
}

/// Mixed-precision dot `Σ a[i]·f32(q[i])` in the canonical eight-lane
/// order: each i16 term widens to f32 in-register before the multiply.
///
/// This is the fixed-point snapshot score kernel — the quantized POI row
/// `q` stays i16 in memory (half the f32 footprint) and the caller folds
/// the row's dequantization scale into the *result*
/// (`score = scale · dot_f32_i16(w, q)`), so the full-precision row never
/// materializes anywhere.
#[inline]
pub fn dot_f32_i16(a: &[f32], q: &[i16]) -> f32 {
    debug_assert_eq!(a.len(), q.len());
    let n = a.len() - a.len() % LANES_F32;
    let (a_main, a_tail) = a.split_at(n);
    let (q_main, q_tail) = q.split_at(n);
    let mut acc = [0.0f32; LANES_F32];
    for (ca, cq) in a_main
        .chunks_exact(LANES_F32)
        .zip(q_main.chunks_exact(LANES_F32))
    {
        for l in 0..LANES_F32 {
            acc[l] += ca[l] * f32::from(cq[l]);
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (&x, &qv) in a_tail.iter().zip(q_tail.iter()) {
        s += x * f32::from(qv);
    }
    s
}

/// Elementwise triple product `out[i] = (a[i]·b[i])·c[i]` (left-to-right
/// association, no cross-element reduction — bitwise equal to the scalar
/// loop). This builds the f32 weight vector `h ⊙ U¹ᵢ ⊙ U³ₖ` of the
/// snapshot scoring path.
#[inline]
pub fn mul3_f32(a: &[f32], b: &[f32], c: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(b.len(), out.len());
    debug_assert_eq!(c.len(), out.len());
    let n = out.len();
    let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
    for i in 0..n {
        out[i] = (a[i] * b[i]) * c[i];
    }
}

/// Elementwise dequantization `out[i] = f32(q[i]) · scale` (no reduction;
/// bitwise equal to the scalar loop). Used for the i16 snapshot rows that
/// feed the weight-vector build, where the dequantized row *is* needed.
#[inline]
pub fn dequant_i16(q: &[i16], scale: f32, out: &mut [f32]) {
    debug_assert_eq!(q.len(), out.len());
    let n = out.len();
    let q = &q[..n];
    for i in 0..n {
        out[i] = f32::from(q[i]) * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    /// Naive implementation of the canonical lane order (module docs).
    fn dot_reference(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() - a.len() % LANES;
        let mut lanes = [0.0f64; LANES];
        for i in 0..n {
            lanes[i % LANES] += a[i] * b[i];
        }
        let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for i in n..a.len() {
            s += a[i] * b[i];
        }
        s
    }

    #[test]
    fn dot_matches_canonical_order_bitwise() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65] {
            let a = v(n, |i| (i as f64 * 0.37 - 1.0).sin());
            let b = v(n, |i| (i as f64 * 0.11 + 0.3).cos());
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_reference(&a, &b).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn dot4_short_lengths_are_sequential() {
        // Below LANES the kernel must be the plain left-to-right sum.
        let a = [0.5, -1.25, 2.0];
        let want = ((a[0] * a[0]) * a[0]) * a[0]
            + ((a[1] * a[1]) * a[1]) * a[1]
            + ((a[2] * a[2]) * a[2]) * a[2];
        assert_eq!(dot4(&a, &a, &a, &a).to_bits(), want.to_bits());
    }

    #[test]
    fn elementwise_kernels_match_scalar_bitwise() {
        for n in [0usize, 1, 3, 4, 5, 8, 11, 64, 65] {
            let a = v(n, |i| (i as f64 * 0.7 - 2.0).sin());
            let b = v(n, |i| (i as f64 * 0.3 + 1.0).cos());
            let d = v(n, |i| i as f64 * 0.01 - 0.2);
            let c = -0.8125;
            let mut y1 = v(n, |i| i as f64 * 0.5);
            let mut y2 = y1.clone();
            axpy(c, &a, &mut y1);
            for i in 0..n {
                y2[i] += c * a[i];
            }
            assert_eq!(y1, y2, "axpy n = {n}");
            fused_mul_axpy(c, &a, &b, &mut y1);
            for i in 0..n {
                y2[i] += (c * a[i]) * b[i];
            }
            assert_eq!(y1, y2, "fused_mul_axpy n = {n}");
            fused_mul3_axpy(c, &a, &b, &d, &mut y1);
            for i in 0..n {
                y2[i] += ((c * a[i]) * b[i]) * d[i];
            }
            assert_eq!(y1, y2, "fused_mul3_axpy n = {n}");
        }
    }

    #[test]
    fn update_row_quad_equals_four_axpys_bitwise() {
        for n in [0usize, 1, 3, 4, 5, 12, 63, 64, 65] {
            let rows: Vec<Vec<f64>> = (0..4)
                .map(|r| v(n, |i| ((i * 7 + r * 13) as f64 * 0.19).sin()))
                .collect();
            let w = [1.5, -0.25, 0.75, 2.0];
            let mut got = v(n, |i| i as f64 * 0.1);
            let mut want = got.clone();
            update_row_quad(&mut got, w, &rows[0], &rows[1], &rows[2], &rows[3]);
            for (k, row) in rows.iter().enumerate() {
                axpy(w[k], row, &mut want);
            }
            let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n = {n}");
        }
    }

    #[test]
    fn adam_update_matches_scalar_and_splits_by_range() {
        for n in [0usize, 1, 3, 4, 5, 8, 17, 64, 65] {
            let g = v(n, |i| (i as f64 * 0.23 - 0.7).sin());
            let mut w1 = v(n, |i| (i as f64 * 0.41).cos());
            let mut m1 = v(n, |i| i as f64 * 0.003 - 0.1);
            let mut v1 = v(n, |i| (i as f64 * 0.002 + 0.05).abs());
            let (mut w2, mut m2, mut v2) = (w1.clone(), m1.clone(), v1.clone());
            let (mut w3, mut m3, mut v3) = (w1.clone(), m1.clone(), v1.clone());
            let p = AdamParams::for_step(0.05, 0.01, 3);
            adam_update(&mut w1, &g, &mut m1, &mut v1, &p);
            // Scalar reference, written as the pre-kernel inline loop was.
            for i in 0..n {
                m2[i] = ADAM_B1 * m2[i] + (1.0 - ADAM_B1) * g[i];
                v2[i] = ADAM_B2 * v2[i] + (1.0 - ADAM_B2) * g[i] * g[i];
                let mhat = m2[i] / p.bc1;
                let vhat = v2[i] / p.bc2;
                w2[i] -= p.lr * (mhat / (vhat.sqrt() + ADAM_EPS) + p.weight_decay * w2[i]);
            }
            let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w1), bits(&w2), "w n = {n}");
            assert_eq!(bits(&m1), bits(&m2), "m n = {n}");
            assert_eq!(bits(&v1), bits(&v2), "v n = {n}");
            // Range-splittability: [0, k) then [k, n) equals one call.
            let k = n / 3;
            adam_update(&mut w3[..k], &g[..k], &mut m3[..k], &mut v3[..k], &p);
            adam_update(&mut w3[k..], &g[k..], &mut m3[k..], &mut v3[k..], &p);
            assert_eq!(bits(&w3), bits(&w1), "split w n = {n}");
            assert_eq!(bits(&m3), bits(&m1), "split m n = {n}");
            assert_eq!(bits(&v3), bits(&v1), "split v n = {n}");
        }
    }

    #[test]
    fn sum_empty_and_tiny() {
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(sum(&[2.5]), 2.5);
        assert_eq!(
            sum(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            ((1.0 + 5.0) + (2.0 + 0.0)) + (3.0 + 4.0) - 0.0
        );
    }
}
