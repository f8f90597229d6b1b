//! Additional op-level tests for the autodiff engine: every primitive op's
//! gradient is finite-difference checked in isolation, plus edge cases the
//! in-module unit tests don't cover.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tcss_autodiff::{check_gradients, ParamSet, Tape, Tensor};

/// Gradcheck a single-op graph `loss = sum(op(x))` for a parameter `x`.
fn check_unary(op: impl Fn(&Tape, tcss_autodiff::Var) -> tcss_autodiff::Var + Copy) {
    let mut rng = StdRng::seed_from_u64(100);
    let mut params = ParamSet::new();
    // Stay away from ReLU's kink at 0 by sampling in ±[0.1, 1.1].
    let init = Tensor::uniform(&[3, 4], 1.0, &mut rng).map(|v| v + 0.1 * v.signum());
    let x = params.add("x", init);
    let report = check_gradients(&mut params, 1e-6, |tape, ps| {
        let xv = tape.param(ps, x);
        let y = op(tape, xv);
        tape.sum(y)
    });
    assert!(report.passes(1e-5), "{report:?}");
}

#[test]
fn gradcheck_each_unary_op() {
    check_unary(|t, x| t.sigmoid(x));
    check_unary(|t, x| t.tanh(x));
    check_unary(|t, x| t.relu(x));
    check_unary(|t, x| t.exp(x));
    check_unary(|t, x| t.square(x));
    check_unary(|t, x| t.scale(x, -2.5));
    check_unary(|t, x| t.reshape(x, &[4, 3]));
    check_unary(|t, x| t.transpose(x));
}

#[test]
fn gradcheck_binary_ops() {
    let mut rng = StdRng::seed_from_u64(101);
    let mut params = ParamSet::new();
    let a = params.add("a", Tensor::uniform(&[2, 3], 1.0, &mut rng));
    let b = params.add("b", Tensor::uniform(&[2, 3], 1.0, &mut rng));
    for which in 0..3 {
        let report = check_gradients(&mut params, 1e-6, |tape, ps| {
            let av = tape.param(ps, a);
            let bv = tape.param(ps, b);
            let y = match which {
                0 => tape.add(av, bv),
                1 => tape.sub(av, bv),
                _ => tape.mul(av, bv),
            };
            tape.sum(y)
        });
        assert!(report.passes(1e-6), "op {which}: {report:?}");
    }
}

#[test]
fn gradcheck_add_row_broadcast() {
    let mut rng = StdRng::seed_from_u64(102);
    let mut params = ParamSet::new();
    let a = params.add("a", Tensor::uniform(&[4, 3], 1.0, &mut rng));
    let bias = params.add("bias", Tensor::uniform(&[3], 1.0, &mut rng));
    let report = check_gradients(&mut params, 1e-6, |tape, ps| {
        let av = tape.param(ps, a);
        let bv = tape.param(ps, bias);
        let y = tape.add_row_broadcast(av, bv);
        let sq = tape.square(y);
        tape.mean(sq)
    });
    assert!(report.passes(1e-6), "{report:?}");
}

#[test]
fn gradcheck_deep_composition() {
    // A 5-op-deep chain exercising grad accumulation through reuse.
    let mut rng = StdRng::seed_from_u64(103);
    let mut params = ParamSet::new();
    let w = params.add("w", Tensor::uniform(&[3, 3], 0.7, &mut rng));
    let report = check_gradients(&mut params, 1e-6, |tape, ps| {
        let wv = tape.param(ps, w);
        let sq = tape.matmul(wv, wv); // w appears twice
        let t = tape.tanh(sq);
        let s = tape.mul(t, wv); // and a third time
        let e = tape.exp(tape.scale(s, 0.3));
        tape.mean(e)
    });
    assert!(report.passes(1e-5), "{report:?}");
}

#[test]
fn mean_of_single_element_equals_identity() {
    let tape = Tape::new();
    let x = tape.constant(Tensor::scalar(4.2));
    let m = tape.mean(x);
    assert_eq!(tape.value(m).item(), 4.2);
    tape.backward(m);
    assert_eq!(tape.grad(x).unwrap().item(), 1.0);
}

#[test]
fn backward_twice_from_different_losses_is_isolated_per_tape() {
    // Two separate tapes over the same parameter accumulate independently.
    let mut params = ParamSet::new();
    let w = params.add("w", Tensor::scalar(2.0));
    for _ in 0..2 {
        let tape = Tape::new();
        let wv = tape.param(&params, w);
        let loss = tape.mul(wv, wv);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut params);
    }
    // dl/dw = 2w = 4, accumulated twice = 8.
    assert_eq!(params.grad(w).item(), 8.0);
}

#[test]
fn gather_empty_index_list() {
    let tape = Tape::new();
    let table = tape.constant(Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]));
    let out = tape.gather_rows(table, &[]);
    assert_eq!(tape.value(out).shape(), &[0, 2]);
}

#[test]
#[should_panic(expected = "out of range")]
fn gather_out_of_range_panics() {
    let tape = Tape::new();
    let table = tape.constant(Tensor::zeros(&[2, 2]));
    let _ = tape.gather_rows(table, &[5]);
}

#[test]
#[should_panic(expected = "single-element loss")]
fn backward_rejects_vector_loss() {
    let tape = Tape::new();
    let x = tape.constant(Tensor::vector(&[1.0, 2.0]));
    tape.backward(x);
}

#[test]
fn row_softmax_extreme_logits_stay_finite() {
    let tape = Tape::new();
    let x = tape.constant(Tensor::from_vec(&[1, 3], vec![1e9, -1e9, 0.0]));
    let s = tape.row_softmax(x);
    let v = tape.value(s);
    assert!(v.data().iter().all(|p| p.is_finite()));
    assert!((v.data()[0] - 1.0).abs() < 1e-12);
    assert!(v.data()[1].abs() < 1e-12);
}

#[test]
fn matmul_chains_match_manual_computation() {
    // (1×2)(2×2)(2×1) as scalar: [1,2]·[[1,2],[3,4]]·[5,6]ᵀ = [7,10]·[5,6]ᵀ = 95.
    let tape = Tape::new();
    let a = tape.constant(Tensor::from_vec(&[1, 2], vec![1.0, 2.0]));
    let b = tape.constant(Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]));
    let c = tape.constant(Tensor::from_vec(&[2, 1], vec![5.0, 6.0]));
    let abc = tape.matmul(tape.matmul(a, b), c);
    assert_eq!(tape.value(abc).item(), 95.0);
}
