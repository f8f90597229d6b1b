//! Integration tests pinning the paper's *testable claims* at small scale.
//! Each test names the claim and the paper location it comes from.

use tcss::core::{
    naive_whole_data_loss, negative_sampling_loss_and_grad, rewritten_loss_and_grad, InitMethod,
    TcssConfig, TcssModel, TcssTrainer,
};
use tcss::prelude::*;

fn setup() -> (Dataset, Split) {
    let raw = SynthPreset::Gmu5k.generate();
    let data = preprocess(&raw, &PreprocessConfig::default());
    let split = train_test_split(&data.checkins, data.n_users, 0.8, 3);
    (data, split)
}

/// Remark 1 (§IV-D): the rewritten loss Eq 15 equals the naive whole-data
/// loss Eq 14 up to the constant `Σ_{Ω₊} w₊ X²`, at *any* parameter value.
#[test]
fn claim_rewritten_loss_equivalence() {
    let (data, split) = setup();
    let trainer = TcssTrainer::new(
        &data,
        &split.train,
        Granularity::Month,
        TcssConfig {
            init: InitMethod::Random,
            ..Default::default()
        },
    );
    let model = trainer.init_model();
    for (wp, wm) in [(0.99, 0.01), (0.9, 0.1), (0.5, 0.5)] {
        let (rewritten, _) = rewritten_loss_and_grad(&model, trainer.tensor.entries(), wp, wm);
        let naive = naive_whole_data_loss(&model, &trainer.tensor, wp, wm);
        let constant = wp * trainer.tensor.nnz() as f64;
        let rel = ((rewritten + constant - naive) / naive.abs().max(1.0)).abs();
        assert!(
            rel < 1e-10,
            "Eq 15 + const != Eq 14 at weights ({wp},{wm}): rel err {rel}"
        );
    }
}

/// §IV-D complexity claim: the rewritten loss evaluates orders of magnitude
/// faster than the naive loss (O(nnz·r + (I+J+K)r²) vs O(I·J·K·r)).
#[test]
fn claim_rewritten_loss_is_much_faster() {
    let (data, split) = setup();
    let trainer = TcssTrainer::new(
        &data,
        &split.train,
        Granularity::Month,
        TcssConfig::default(),
    );
    let model = trainer.init_model();
    // The claim is about work, not parallel speedup, and the bits do not
    // depend on the thread count: time both forms at one thread so a
    // descheduled fork/join under parallel test load cannot shrink the
    // ratio. Min over repeats absorbs the remaining scheduling noise.
    tcss::linalg::set_num_threads(Some(1));
    let min_time = |f: &mut dyn FnMut()| {
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed()
            })
            .min()
            .expect("nonempty")
    };
    let naive_t = min_time(&mut || {
        let _ = naive_whole_data_loss(&model, &trainer.tensor, 0.9, 0.1);
    });
    let rewritten_t = min_time(&mut || {
        let _ = rewritten_loss_and_grad(&model, trainer.tensor.entries(), 0.9, 0.1);
    });
    // No test in this binary pins a count, so the previous setting is the
    // automatic resolution.
    tcss::linalg::set_num_threads(None);
    assert!(
        naive_t > rewritten_t * 5,
        "expected a large speedup, got naive {naive_t:?} vs rewritten {rewritten_t:?}"
    );
}

/// Table II claim: whole-data training beats 1:1 negative sampling.
#[test]
fn claim_whole_data_beats_negative_sampling() {
    let (data, split) = setup();
    let eval = |model: &TcssModel| {
        evaluate_ranking(
            &split.test,
            data.n_pois(),
            &EvalConfig::default(),
            |i, j, k| model.predict(i, j, k),
        )
    };
    let base = TcssConfig {
        epochs: 80,
        hausdorff_every: 5,
        ..Default::default()
    };
    let whole =
        TcssTrainer::new(&data, &split.train, Granularity::Month, base.clone()).train(|_, _| {});
    let sampled = TcssTrainer::new(
        &data,
        &split.train,
        Granularity::Month,
        TcssConfig {
            loss: tcss::core::LossStrategy::NegativeSampling,
            ..base
        },
    )
    .train(|_, _| {});
    let mw = eval(&whole);
    let ms = eval(&sampled);
    assert!(
        mw.hit_at_k > ms.hit_at_k && mw.mrr > ms.mrr,
        "whole-data ({:.3}/{:.3}) must beat negative sampling ({:.3}/{:.3})",
        mw.hit_at_k,
        mw.mrr,
        ms.hit_at_k,
        ms.mrr
    );
}

/// §IV-A claim: the spectral initialization converges faster than random
/// initialization in the early epochs.
#[test]
fn claim_spectral_init_converges_faster() {
    let (data, split) = setup();
    let early = |init: InitMethod| {
        let cfg = TcssConfig {
            init,
            epochs: 8,
            lambda: 0.0,
            ..Default::default()
        };
        let model = TcssTrainer::new(&data, &split.train, Granularity::Month, cfg).train(|_, _| {});
        evaluate_ranking(
            &split.test,
            data.n_pois(),
            &EvalConfig::default(),
            |i, j, k| model.predict(i, j, k),
        )
        .hit_at_k
    };
    let spectral = early(InitMethod::Spectral);
    let random = early(InitMethod::Random);
    assert!(
        spectral > random,
        "after 8 epochs spectral ({spectral}) should lead random ({random})"
    );
}

/// §IV-D claim: the gradient of the negative-sampling loss is an unbiased
/// but *noisy* estimate — fixed seeds give different gradients, while the
/// whole-data gradient is deterministic.
#[test]
fn claim_negative_sampling_is_stochastic_whole_data_is_not() {
    let (data, split) = setup();
    let trainer = TcssTrainer::new(
        &data,
        &split.train,
        Granularity::Month,
        TcssConfig::default(),
    );
    let model = trainer.init_model();
    let (l1, _) = negative_sampling_loss_and_grad(&model, &trainer.tensor, 0.9, 0.1, 1);
    let (l2, _) = negative_sampling_loss_and_grad(&model, &trainer.tensor, 0.9, 0.1, 2);
    assert!(
        (l1 - l2).abs() > 1e-9,
        "different seeds must sample differently"
    );
    let (r1, _) = rewritten_loss_and_grad(&model, trainer.tensor.entries(), 0.9, 0.1);
    let (r2, _) = rewritten_loss_and_grad(&model, trainer.tensor.entries(), 0.9, 0.1);
    assert_eq!(r1, r2, "whole-data loss must be deterministic");
}

/// §V-E claim: tensor completion beats time-blind matrix completion on
/// time-sensitive data (the reason the time dimension exists at all).
#[test]
fn claim_tensor_beats_matrix_completion() {
    let (data, split) = setup();
    let tcss = TcssTrainer::new(
        &data,
        &split.train,
        Granularity::Month,
        TcssConfig {
            epochs: 80,
            hausdorff_every: 5,
            ..Default::default()
        },
    )
    .train(|_, _| {});
    let svd = tcss::baselines::PureSvd::fit(&data, &split.train, 10);
    let cfg = EvalConfig::default();
    let mt = evaluate_ranking(&split.test, data.n_pois(), &cfg, |i, j, k| {
        tcss.predict(i, j, k)
    });
    let mm = evaluate_ranking(&split.test, data.n_pois(), &cfg, |i, j, k| {
        svd.score(i, j, k)
    });
    assert!(
        mt.hit_at_k > mm.hit_at_k,
        "TCSS ({:.3}) must beat PureSVD ({:.3})",
        mt.hit_at_k,
        mm.hit_at_k
    );
}
