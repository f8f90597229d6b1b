//! The distributed coordinator honours `TcssConfig::num_threads`, exactly
//! as the in-process checkpointed loop does.
//!
//! `tcss_linalg::set_num_threads` is a process-wide override, so this
//! check lives in a test binary of its own: in a shared binary it would
//! race the parity proptests that pin the override themselves.

use tcss_core::dist::DistConfig;
use tcss_core::{InitMethod, LossStrategy, TcssConfig, TcssTrainer};
use tcss_sparse::SparseTensor3;

#[test]
fn train_distributed_applies_num_threads_to_the_coordinator() {
    let tensor = SparseTensor3::from_entries(
        (5, 4, 3),
        [
            (0, 0, 0, 1.0),
            (1, 2, 1, 1.0),
            (4, 3, 2, 1.0),
            (2, 1, 0, 1.0),
        ],
    )
    .expect("entries in bounds");
    let cfg = TcssConfig {
        rank: 2,
        seed: 3,
        loss: LossStrategy::WholeDataRewritten,
        lambda: 0.0,
        hausdorff: tcss_core::HausdorffVariant::None,
        init: InitMethod::Random,
        epochs: 2,
        checkpoint_every: 1,
        num_threads: Some(3),
        workers: Some(1),
        ..TcssConfig::default()
    };
    // A different override beforehand, so only the trainer can produce 3.
    tcss_linalg::set_num_threads(Some(5));
    let report = TcssTrainer::from_tensor(tensor, cfg)
        .train_distributed(
            &DistConfig::new(1, env!("CARGO_BIN_EXE_tcss-dist-worker")),
            |_| {},
        )
        .expect("1-worker run trains");
    assert_eq!(report.workers, 1);
    assert_eq!(
        tcss_linalg::num_threads(),
        3,
        "the coordinator must run under TcssConfig::num_threads"
    );
    tcss_linalg::set_num_threads(None);
}
