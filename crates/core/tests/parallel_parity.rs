//! Serial/parallel parity: the deterministic-reduction contract of
//! `tcss_linalg::parallel` promises that thread count is a pure speed knob.
//! These tests pin that promise **bit-for-bit** (`f64::to_bits` equality,
//! not tolerances) for every parallelized kernel in the training path:
//! the rewritten whole-data loss, negative sampling, the social-Hausdorff
//! head, dense matmul/Gram, the implicit mode-Gram block apply (each
//! column also bit-equal to its one-column apply), and the whole spectral
//! initializer built on top of them, whose bits are also pinned to a
//! constant on the Gowalla preset.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcss_core::frame::checksum;
use tcss_core::loss::{negative_sampling_loss_and_grad, rewritten_loss_and_grad, Grads};
use tcss_core::{
    random_init, spectral_init, HausdorffVariant, LossStrategy, SocialHausdorffHead, TcssConfig,
    TcssModel, TcssTrainer, TrainWorkspace,
};
use tcss_data::{train_test_split, Granularity, SynthPreset};
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

/// The Gowalla preset's training tensor at split seed 1.
fn gowalla_train_tensor() -> SparseTensor3 {
    let data = SynthPreset::Gowalla.generate();
    let split = train_test_split(&data.checkins, data.n_users, 0.8, 1);
    data.tensor_from(&split.train, Granularity::Month)
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
    let gowalla = gowalla_train_tensor();
    let (i_dim, j_dim, _) = gowalla.dims();
    // Gowalla's month mode has a dense fiber space (I·J) that dwarfs its
    // nonzeros, so its compact fiber ids are exercised.
    assert!(i_dim * j_dim > 10 * gowalla.nnz());
    for tensor in [training_fixture().0, gowalla] {
        let mut apply_ref: Option<Vec<u64>> = None;
        let mut init_ref: Option<Vec<u64>> = None;
        for threads in THREAD_COUNTS {
            set_num_threads(Some(threads));
            let mut apply_bits = Vec::new();
            for mode in Mode::ALL {
                let op = ModeGramOp::new(&tensor, mode);
                let n = op.dim();
                // 1, 3, 5 and 10 columns cover every panel width (8, 4, 2, 1).
                for b in [1, 3, 5, 10] {
                    let x = Matrix::from_fn(n, b, |i, c| {
                        ((i * 37 + c * 53 + 11) % 101) as f64 / 101.0 - 0.5
                    });
                    let block = op.apply_block(&x);
                    for c in 0..b {
                        let mut y = vec![0.0; n];
                        op.apply(&x.col(c), &mut y);
                        let col_bits: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                        let block_bits: Vec<u64> =
                            block.col(c).iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            block_bits, col_bits,
                            "{mode:?}: column {c} of a {b}-column block apply differs from its one-column apply at {threads} threads"
                        );
                    }
                    apply_bits.extend(matrix_bits(&block));
                }
            }
            match &apply_ref {
                None => apply_ref = Some(apply_bits),
                Some(want) => {
                    assert_eq!(*want, apply_bits, "Gram apply differs at {threads} threads")
                }
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
    }
    set_num_threads(None);
}

/// `tcss_core::frame::checksum` of the spectral factors' bits (U¹, U², U³
/// in order, each `f64` as its little-endian `to_bits`) on the Gowalla
/// preset's training tensor (split seed 1) at `TcssConfig::full()`'s rank
/// and seed. Any change to the init's arithmetic — operator, solver,
/// scheduling — moves it.
const GOWALLA_SPECTRAL_INIT_CHECKSUM: u64 = 16_072_226_300_494_424_874;

#[test]
fn spectral_init_bits_are_pinned_on_gowalla() {
    let tensor = gowalla_train_tensor();
    let cfg = TcssConfig::full();
    for threads in THREAD_COUNTS {
        set_num_threads(Some(threads));
        let (u1, u2, u3) = spectral_init(&tensor, cfg.rank, cfg.seed);
        let bytes: Vec<u8> = [&u1, &u2, &u3]
            .iter()
            .flat_map(|m| matrix_bits(m))
            .flat_map(u64::to_le_bytes)
            .collect();
        assert_eq!(
            checksum(&bytes),
            GOWALLA_SPECTRAL_INIT_CHECKSUM,
            "spectral init bits moved at {threads} threads"
        );
    }
    set_num_threads(None);
}

/// `tcss_core::frame::checksum` of a trained model's bits (U¹, U², U³,
/// then `h`, each `f64` as its little-endian `to_bits`) after 7 epochs of
/// `TcssTrainer::new` on the Gowalla preset (split seed 1, month
/// granularity). Seven epochs cover three Hausdorff-head epochs (0, 3, 6)
/// and four Gram-only ones, so every epoch-tail shape is in the bits.
/// Any change to the epoch kernel's arithmetic or its add order moves
/// these; a refactor that keeps them has kept every trained bit.
const GOWALLA_TRAINED_CHECKSUMS: [(&str, u64); 3] = [
    ("full", 7_243_161_559_129_020_525),
    ("negative sampling", 1_876_729_922_023_822_284),
    ("lambda = 0", 17_732_406_510_111_802_910),
];

#[test]
fn trained_model_bits_are_pinned_on_gowalla() {
    let data = SynthPreset::Gowalla.generate();
    let split = train_test_split(&data.checkins, data.n_users, 0.8, 1);
    let configs = [
        TcssConfig::full(),
        TcssConfig {
            loss: LossStrategy::NegativeSampling,
            ..TcssConfig::full()
        },
        TcssConfig::ablation_no_l1(),
    ];
    for ((name, want), cfg) in GOWALLA_TRAINED_CHECKSUMS.into_iter().zip(configs) {
        for threads in THREAD_COUNTS {
            let cfg = TcssConfig {
                epochs: 7,
                num_threads: Some(threads),
                ..cfg.clone()
            };
            let trainer = TcssTrainer::new(&data, &split.train, Granularity::Month, cfg);
            let model = trainer.train(|_, _| {});
            let bytes: Vec<u8> = [&model.u1, &model.u2, &model.u3]
                .iter()
                .flat_map(|m| matrix_bits(m))
                .chain(model.h.iter().map(|v| v.to_bits()))
                .flat_map(u64::to_le_bytes)
                .collect();
            assert_eq!(
                checksum(&bytes),
                want,
                "{name}: trained model bits moved at {threads} threads"
            );
        }
    }
    set_num_threads(None);
}
