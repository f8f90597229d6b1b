//! # tcss-bench
//!
//! The experiment harness: one binary per table/figure of the TCSS paper
//! (see `DESIGN.md` §4 for the index), plus `bench_distributed`, the
//! worker-count grid of the distributed trainer. Timings of the whole
//! system and of each layer come from `bash bench_e2e/run.sh`.
//!
//! Run an experiment with
//! `cargo run --release -p tcss-bench --bin <name>`; every binary prints
//! the rows/series of its table or figure to stdout. `EXPERIMENTS.md`
//! records the outputs next to the paper's numbers.

pub mod runner;

pub use runner::{
    prepare, prepare_dataset, prepare_with, row, run_model, run_tcss, ModelName, ModelResult,
    Prepared,
};
