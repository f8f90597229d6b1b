//! Bitwise parity for the fixed-lane kernels (`tcss_linalg::kernels`).
//!
//! The kernels' module docs pin a canonical reduction order (lane `l` sums
//! every `LANES`-th term ascending; lanes combine as a fixed pairwise tree;
//! the tail folds in sequentially). This suite re-implements that order
//! naively — straight from the documented contract, sharing no code with
//! the kernels — and pins every kernel to it with `f64::to_bits` equality,
//! at sizes straddling the lane boundary (0, 1, LANES±1, …) and the 64-wide
//! matrix tiles (63/64/65).
//!
//! The blocked `matmul`/`gram` consumers are additionally pinned to be
//! thread-count independent at tile-boundary shapes: the kernels define a
//! fixed order, so 1/2/4 threads must agree bit-for-bit.

use proptest::prelude::*;
use tcss_linalg::kernels::{
    axpy, dequant_i16, dot, dot4, dot_f32, dot_f32_i16, fused_mul3_axpy, fused_mul_axpy, mul3_f32,
    recip_affine_sum, sum, update_row_quad,
};
use tcss_linalg::{lowp, set_num_threads, Matrix, LANES, LANES_F32};

/// Sizes straddling the lane boundary and the 64-wide tile boundary.
const BOUNDARY_SIZES: [usize; 11] = [0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65];

/// The documented canonical reduction order, applied to precomputed terms.
/// This is the *reference* the kernels are pinned against; it is written
/// from the module-docs pseudocode, not from the kernel code.
fn lanes_reduce(terms: &[f64]) -> f64 {
    let n = terms.len() - terms.len() % LANES;
    let mut lane = [0.0f64; LANES];
    for (i, &t) in terms[..n].iter().enumerate() {
        lane[i % LANES] += t;
    }
    let mut s = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    for &t in &terms[n..] {
        s += t;
    }
    s
}

/// A strategy over vector lengths: draws every boundary size (weighted
/// heavily) plus arbitrary lengths past the last boundary.
fn len_strategy() -> impl Strategy<Value = usize> {
    (0usize..108).prop_map(|i| {
        if i < 44 {
            BOUNDARY_SIZES[i % BOUNDARY_SIZES.len()]
        } else {
            i + 22 // 66..130
        }
    })
}

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-2.0f64..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `dot` follows the canonical order exactly, for every length class.
    #[test]
    fn dot_is_canonical_order(
        (a, b) in len_strategy().prop_flat_map(|n| (vec_strategy(n), vec_strategy(n)))
    ) {
        let terms: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        prop_assert_eq!(dot(&a, &b).to_bits(), lanes_reduce(&terms).to_bits());
    }

    /// `dot4` (the Eq 6 scoring kernel): left-to-right product association
    /// per term, canonical summation order across terms.
    #[test]
    fn dot4_is_canonical_order(
        (a, b, c, d) in len_strategy().prop_flat_map(|n| {
            (vec_strategy(n), vec_strategy(n), vec_strategy(n), vec_strategy(n))
        })
    ) {
        let terms: Vec<f64> = (0..a.len())
            .map(|i| ((a[i] * b[i]) * c[i]) * d[i])
            .collect();
        prop_assert_eq!(
            dot4(&a, &b, &c, &d).to_bits(),
            lanes_reduce(&terms).to_bits()
        );
    }

    /// `sum` follows the canonical order exactly.
    #[test]
    fn sum_is_canonical_order(
        a in len_strategy().prop_flat_map(vec_strategy)
    ) {
        prop_assert_eq!(sum(&a).to_bits(), lanes_reduce(&a).to_bits());
    }

    /// The elementwise kernels are bit-for-bit the scalar loops they
    /// replaced: no cross-element reduction, so the lane structure must be
    /// invisible.
    #[test]
    fn elementwise_kernels_match_scalar_loops(
        (s, a, b, d, y0) in (len_strategy(), -2.0f64..2.0).prop_flat_map(|(n, s)| {
            (
                Just(s),
                vec_strategy(n),
                vec_strategy(n),
                vec_strategy(n),
                vec_strategy(n),
            )
        })
    ) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut got = y0.clone();
        let mut want = y0.clone();
        axpy(s, &a, &mut got);
        for (yi, &xi) in want.iter_mut().zip(&a) {
            *yi += s * xi;
        }
        prop_assert_eq!(bits(&got), bits(&want));

        fused_mul_axpy(s, &a, &b, &mut got);
        for i in 0..want.len() {
            want[i] += (s * a[i]) * b[i];
        }
        prop_assert_eq!(bits(&got), bits(&want));

        fused_mul3_axpy(s, &a, &b, &d, &mut got);
        for i in 0..want.len() {
            want[i] += ((s * a[i]) * b[i]) * d[i];
        }
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// `update_row_quad` is four sequential adds per element — bitwise
    /// identical to four consecutive scalar axpy loops in ascending row
    /// order.
    #[test]
    fn update_row_quad_matches_sequential_axpys(
        (w, r0, r1, r2, r3, y0) in len_strategy().prop_flat_map(|n| {
            (
                (-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0)
                    .prop_map(|(w0, w1, w2, w3)| [w0, w1, w2, w3]),
                vec_strategy(n),
                vec_strategy(n),
                vec_strategy(n),
                vec_strategy(n),
                vec_strategy(n),
            )
        })
    ) {
        let mut got = y0.clone();
        let mut want = y0;
        update_row_quad(&mut got, w, &r0, &r1, &r2, &r3);
        for (wk, row) in w.iter().zip([&r0, &r1, &r2, &r3]) {
            for (yi, &xi) in want.iter_mut().zip(row) {
                *yi += wk * xi;
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// The α = −1 generalized-mean pair kernel: per element
    /// `v = 1/max(p·d + (1 − p)·d_max, floor)` and the gradient weight
    /// `v²·(d − d_max)` (zero where the floor clamps), with the `v` summed
    /// in the canonical order. The floor sits inside the range of `f` so
    /// some terms clamp.
    #[test]
    fn recip_affine_sum_matches_reference(
        (p, d) in len_strategy().prop_flat_map(|n| {
            (
                proptest::collection::vec(0.0f64..1.0, n),
                proptest::collection::vec(0.0f64..1.0, n),
            )
        })
    ) {
        let (floor, d_max) = (0.3, 1.0);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut terms = Vec::new();
        let mut want_gw = Vec::new();
        for i in 0..p.len() {
            let f = p[i] * d[i] + (1.0 - p[i]) * d_max;
            let v = 1.0 / f.max(floor);
            terms.push(v);
            want_gw.push(if f > floor { (v * v) * (d[i] - d_max) } else { 0.0 });
        }
        let mut gw = vec![f64::NAN; p.len()];
        let total = recip_affine_sum(&p, &d, floor, d_max, &mut gw);
        prop_assert_eq!(bits(&gw), bits(&want_gw));
        prop_assert_eq!(total.to_bits(), lanes_reduce(&terms).to_bits());
    }
}

/// Sizes straddling the f32 lane boundary (`LANES_F32` = 8) and the 64-wide
/// blocking boundary of the low-precision matmuls.
const BOUNDARY_SIZES_F32: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 23, 63, 64, 65];

/// The documented canonical f32 reduction order, applied to precomputed
/// terms: lane `l` sums every `LANES_F32`-th term ascending, lanes combine
/// as `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))`, the tail folds in
/// sequentially. Written from the module-docs pseudocode, sharing no code
/// with the kernels.
fn lanes_reduce_f32(terms: &[f32]) -> f32 {
    let n = terms.len() - terms.len() % LANES_F32;
    let mut lane = [0.0f32; LANES_F32];
    for (i, &t) in terms[..n].iter().enumerate() {
        lane[i % LANES_F32] += t;
    }
    let mut s =
        ((lane[0] + lane[1]) + (lane[2] + lane[3])) + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    for &t in &terms[n..] {
        s += t;
    }
    s
}

fn len_strategy_f32() -> impl Strategy<Value = usize> {
    (0usize..108).prop_map(|i| {
        if i < 48 {
            BOUNDARY_SIZES_F32[i % BOUNDARY_SIZES_F32.len()]
        } else {
            i + 18 // 66..126
        }
    })
}

fn vec_strategy_f32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f64..2.0, len)
        .prop_map(|v| v.into_iter().map(|x| x as f32).collect())
}

fn i16_strategy(len: usize) -> impl Strategy<Value = Vec<i16>> {
    proptest::collection::vec(-32767i32..=32767, len)
        .prop_map(|v| v.into_iter().map(|x| x as i16).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `dot_f32` follows the canonical eight-lane order exactly.
    #[test]
    fn dot_f32_is_canonical_order(
        (a, b) in len_strategy_f32().prop_flat_map(|n| (vec_strategy_f32(n), vec_strategy_f32(n)))
    ) {
        let terms: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        prop_assert_eq!(dot_f32(&a, &b).to_bits(), lanes_reduce_f32(&terms).to_bits());
    }

    /// `dot_f32_i16`: each term widens the i16 operand to f32 in-register,
    /// then the canonical order applies unchanged.
    #[test]
    fn dot_f32_i16_is_canonical_order(
        (a, q) in len_strategy_f32().prop_flat_map(|n| (vec_strategy_f32(n), i16_strategy(n)))
    ) {
        let terms: Vec<f32> = a.iter().zip(&q).map(|(&x, &qi)| x * f32::from(qi)).collect();
        prop_assert_eq!(dot_f32_i16(&a, &q).to_bits(), lanes_reduce_f32(&terms).to_bits());
    }

    /// The elementwise f32 kernels are bit-for-bit the scalar loops they
    /// replaced — no cross-element reduction, so lanes must be invisible.
    #[test]
    fn elementwise_f32_kernels_match_scalar_loops(
        (a, b, c, q, s) in len_strategy_f32().prop_flat_map(|n| {
            (
                vec_strategy_f32(n),
                vec_strategy_f32(n),
                vec_strategy_f32(n),
                i16_strategy(n),
                -2.0f64..2.0,
            )
        })
    ) {
        let s = s as f32;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut got = vec![0.0f32; a.len()];
        mul3_f32(&a, &b, &c, &mut got);
        let want: Vec<f32> = (0..a.len()).map(|i| (a[i] * b[i]) * c[i]).collect();
        prop_assert_eq!(bits(&got), bits(&want));

        dequant_i16(&q, s, &mut got);
        let want: Vec<f32> = q.iter().map(|&qi| f32::from(qi) * s).collect();
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// The low-precision batched matmuls are bitwise identical at 1/2/4
/// threads at blocking-boundary shapes: every output element is one
/// fixed-order dot, and parallelism splits only the output grid.
#[test]
fn lowp_matmul_thread_parity_at_block_boundaries() {
    for &(b_rows, j_rows, r) in &[
        (1usize, 1usize, 1usize),
        (63, 65, 8),
        (65, 129, 9),
        (64, 64, 16),
    ] {
        let w: Vec<f32> = (0..b_rows * r)
            .map(|i| ((i * 7) as f32 * 0.013).sin())
            .collect();
        let u: Vec<f32> = (0..j_rows * r)
            .map(|i| ((i * 3) as f32 * 0.029).cos())
            .collect();
        let q: Vec<i16> = (0..j_rows * r)
            .map(|i| ((i * 241) % 501) as i16 - 250)
            .collect();
        let scales: Vec<f32> = (0..j_rows).map(|j| 1.0e-3 + j as f32 * 1.0e-5).collect();
        set_num_threads(Some(1));
        let mut want_f = vec![0.0f32; b_rows * j_rows];
        let mut want_q = vec![0.0f32; b_rows * j_rows];
        lowp::matmul_nt_f32(&w, b_rows, &u, j_rows, r, &mut want_f);
        lowp::matmul_nt_i16(&w, b_rows, &q, &scales, j_rows, r, &mut want_q);
        for threads in [2usize, 4] {
            set_num_threads(Some(threads));
            let mut got_f = vec![0.0f32; b_rows * j_rows];
            let mut got_q = vec![0.0f32; b_rows * j_rows];
            lowp::matmul_nt_f32(&w, b_rows, &u, j_rows, r, &mut got_f);
            lowp::matmul_nt_i16(&w, b_rows, &q, &scales, j_rows, r, &mut got_q);
            let same = want_f
                .iter()
                .zip(&got_f)
                .all(|(x, y)| x.to_bits() == y.to_bits())
                && want_q
                    .iter()
                    .zip(&got_q)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                same,
                "lowp matmul {b_rows}x{j_rows}x{r} differs at {threads} threads"
            );
        }
    }
    set_num_threads(None);
}

fn filled(rows: usize, cols: usize, phase: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * cols + j) as f64 * 0.137 + phase).sin()
    })
}

/// Blocked `matmul` at tile-boundary shapes: bitwise identical at 1/2/4
/// threads (the quad kernel's order is a function of shape only), and
/// numerically the textbook product.
#[test]
fn matmul_thread_parity_at_tile_boundaries() {
    for &(m, k, n) in &[
        (1usize, 5usize, 3usize),
        (63, 65, 64),
        (64, 64, 64),
        (65, 63, 66),
        (65, 129, 4),
    ] {
        let a = filled(m, k, 0.3);
        let b = filled(k, n, 1.1);
        set_num_threads(Some(1));
        let want = a.matmul(&b).expect("shapes agree");
        for threads in [2usize, 4] {
            set_num_threads(Some(threads));
            let got = a.matmul(&b).expect("shapes agree");
            let same = want
                .as_slice()
                .iter()
                .zip(got.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "matmul {m}x{k}x{n} differs at {threads} threads");
        }
        // Value correctness against the textbook triple loop.
        for i in 0..m {
            for j in 0..n {
                let naive: f64 = (0..k).map(|t| a.get(i, t) * b.get(t, j)).sum();
                assert!(
                    (want.get(i, j) - naive).abs() <= 1e-12 * (1.0 + naive.abs()),
                    "matmul {m}x{k}x{n} wrong at ({i},{j})"
                );
            }
        }
    }
    set_num_threads(None);
}

/// Blocked `gram` at tile-boundary shapes: bitwise identical at 1/2/4
/// threads, bitwise symmetric, and numerically `AᵀA`.
#[test]
fn gram_thread_parity_at_tile_boundaries() {
    for &(rows, cols) in &[(1usize, 3usize), (63, 5), (64, 4), (65, 4), (129, 3)] {
        let a = filled(rows, cols, 0.7);
        set_num_threads(Some(1));
        let want = a.gram();
        for threads in [2usize, 4] {
            set_num_threads(Some(threads));
            let got = a.gram();
            let same = want
                .as_slice()
                .iter()
                .zip(got.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "gram {rows}x{cols} differs at {threads} threads");
        }
        for p in 0..cols {
            for q in 0..cols {
                let naive: f64 = (0..rows).map(|t| a.get(t, p) * a.get(t, q)).sum();
                assert!(
                    (want.get(p, q) - naive).abs() <= 1e-12 * (1.0 + naive.abs()),
                    "gram {rows}x{cols} wrong at ({p},{q})"
                );
                assert_eq!(
                    want.get(p, q).to_bits(),
                    want.get(q, p).to_bits(),
                    "gram asymmetric at ({p},{q})"
                );
            }
        }
    }
    set_num_threads(None);
}
