//! Serial/parallel parity: the deterministic-reduction contract of
//! `tcss_linalg::parallel` promises that thread count is a pure speed knob.
//! These tests pin that promise **bit-for-bit** (`f64::to_bits` equality,
//! not tolerances) for every parallelized kernel in the training path:
//! the rewritten whole-data loss, negative sampling, the social-Hausdorff
//! head, dense matmul/Gram, the implicit mode-Gram matvec, and the whole
//! spectral initializer built on top of them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcss_core::loss::{negative_sampling_loss_and_grad, rewritten_loss_and_grad, Grads};
use tcss_core::{
    random_init, spectral_init, HausdorffVariant, SocialHausdorffHead, TcssModel, TrainWorkspace,
};
use tcss_data::{Granularity, SynthPreset};
use tcss_linalg::{set_num_threads, Matrix, SymOp};
use tcss_sparse::{Mode, ModeGramOp, SparseTensor3};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Exact bit representation of a gradient set, for equality that admits no
/// floating-point wiggle room at all.
fn grads_bits(g: &Grads) -> Vec<u64> {
    g.u1.as_slice()
        .iter()
        .chain(g.u2.as_slice())
        .chain(g.u3.as_slice())
        .chain(&g.h)
        .map(|v| v.to_bits())
        .collect()
}

fn matrix_bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn training_fixture() -> (SparseTensor3, TcssModel) {
    let data = SynthPreset::Gmu5k.generate();
    let tensor = data.tensor_from(&data.checkins, Granularity::Month);
    let (u1, u2, u3) = random_init(tensor.dims(), 5, 17);
    (tensor, TcssModel::new(u1, u2, u3))
}

#[test]
fn rewritten_loss_is_thread_count_independent() {
    let (tensor, model) = training_fixture();
    let mut reference: Option<(u64, Vec<u64>)> = None;
    for threads in THREAD_COUNTS {
        set_num_threads(Some(threads));
        let (loss, grads) = rewritten_loss_and_grad(&model, tensor.entries(), 0.95, 0.05);
        let got = (loss.to_bits(), grads_bits(&grads));
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(
                *want, got,
                "rewritten loss/grads differ at {threads} threads"
            ),
        }
    }
    set_num_threads(None);
}

#[test]
fn negative_sampling_is_thread_count_independent() {
    // The negatives are drawn from per-chunk RNG streams, so the *sampled
    // set* (not just the arithmetic) must be identical across thread counts.
    let (tensor, model) = training_fixture();
    let mut reference: Option<(u64, Vec<u64>)> = None;
    for threads in THREAD_COUNTS {
        set_num_threads(Some(threads));
        let (loss, grads) = negative_sampling_loss_and_grad(&model, &tensor, 0.95, 0.05, 41);
        let got = (loss.to_bits(), grads_bits(&grads));
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(
                *want, got,
                "negative-sampling loss/grads differ at {threads} threads"
            ),
        }
    }
    set_num_threads(None);
}

#[test]
fn hausdorff_head_is_thread_count_independent() {
    let data = SynthPreset::Gmu5k.generate();
    let train: Vec<_> = data.checkins.iter().take(2000).copied().collect();
    let head = SocialHausdorffHead::new(
        &data,
        &train,
        HausdorffVariant::Social,
        Default::default(),
        None,
    );
    let tensor = data.tensor_from(&train, Granularity::Month);
    let (u1, u2, u3) = random_init(tensor.dims(), 4, 9);
    let model = TcssModel::new(u1, u2, u3);
    let mut reference: Option<(u64, Vec<u64>)> = None;
    for threads in THREAD_COUNTS {
        set_num_threads(Some(threads));
        let mut grads = Grads::zeros(&model);
        let loss = head.loss_and_grad_ws(&model, &mut grads, 240.0, &TrainWorkspace::new());
        let got = (loss.to_bits(), grads_bits(&grads));
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(
                *want, got,
                "Hausdorff loss/grads differ at {threads} threads"
            ),
        }
    }
    set_num_threads(None);
}

#[test]
fn dense_kernels_are_thread_count_independent() {
    let mut rng = StdRng::seed_from_u64(5);
    // More rows than one chunk so the parallel path genuinely splits.
    let a = Matrix::from_fn(300, 40, |_, _| rng.gen_range(-1.0..1.0));
    let b = Matrix::from_fn(40, 25, |_, _| rng.gen_range(-1.0..1.0));
    let mut mm_ref: Option<Vec<u64>> = None;
    let mut gram_ref: Option<Vec<u64>> = None;
    for threads in THREAD_COUNTS {
        set_num_threads(Some(threads));
        let mm = matrix_bits(&a.matmul(&b).expect("shapes agree"));
        let gram = matrix_bits(&a.gram());
        match &mm_ref {
            None => mm_ref = Some(mm),
            Some(want) => assert_eq!(*want, mm, "matmul differs at {threads} threads"),
        }
        match &gram_ref {
            None => gram_ref = Some(gram),
            Some(want) => assert_eq!(*want, gram, "gram differs at {threads} threads"),
        }
    }
    set_num_threads(None);
}

#[test]
fn gram_operator_and_spectral_init_are_thread_count_independent() {
    let (tensor, _) = training_fixture();
    let op = ModeGramOp::new(&tensor, Mode::One);
    let n = tensor.dims().0;
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 101.0)
        .collect();
    let mut apply_ref: Option<Vec<u64>> = None;
    let mut init_ref: Option<Vec<u64>> = None;
    for threads in THREAD_COUNTS {
        set_num_threads(Some(threads));
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        let y_bits: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
        match &apply_ref {
            None => apply_ref = Some(y_bits),
            Some(want) => assert_eq!(*want, y_bits, "Gram matvec differs at {threads} threads"),
        }
        let (u1, u2, u3) = spectral_init(&tensor, 6, 13);
        let bits: Vec<u64> = matrix_bits(&u1)
            .into_iter()
            .chain(matrix_bits(&u2))
            .chain(matrix_bits(&u3))
            .collect();
        match &init_ref {
            None => init_ref = Some(bits),
            Some(want) => assert_eq!(*want, bits, "spectral init differs at {threads} threads"),
        }
    }
    set_num_threads(None);
}
