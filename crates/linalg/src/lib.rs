//! # tcss-linalg
//!
//! Dense linear-algebra substrate for the TCSS reproduction.
//!
//! The TCSS paper (Hui et al., ICDE 2022) relies on a handful of dense
//! linear-algebra kernels: matrix products for the rewritten loss, a
//! symmetric eigendecomposition for the spectral embedding initialization
//! (Eq 4 of the paper), a truncated SVD for the PureSVD / MCCO baselines and
//! cosine similarities for the time-factor heatmaps (Figs 6–7).
//!
//! Everything here is implemented from scratch over `Vec<f64>` — no external
//! linear-algebra dependencies — and sized for the laptop-scale experiments
//! this repository runs (matrices up to a few thousand rows).
//!
//! ## Entry points
//!
//! * [`Matrix`] — row-major dense matrix with the usual algebra.
//! * [`kernels`] — fixed-lane ([`LANES`] = 4) autovectorized f64 primitives
//!   that the hot paths (tiled `matmul`/`gram`, model scoring, gradient
//!   backprop) are built on; see its docs for the reduction-order contract.
//!   The serving-snapshot layer adds f32 lanes ([`LANES_F32`] = 8) and the
//!   [`lowp`] batched low-precision `W · U²ᵀ` paths over f32 / i16 operands.
//! * [`qr::orthonormalize`] — modified Gram–Schmidt orthonormalization.
//! * [`eigen::jacobi_eigen`] — full symmetric eigendecomposition.
//! * [`eigen::top_r_eigenvectors`] — blocked orthogonal iteration over an
//!   implicit symmetric operator ([`eigen::SymOp`]); this is how the spectral
//!   initializer avoids materializing the `I × I` Gram matrix.
//! * [`svd::truncated_svd`] — rank-`r` SVD built on the eigen machinery.
//! * [`stats`] — cosine similarity for the time-factor heatmaps.
//! * [`parallel`] — the deterministic chunked thread-pool primitive every
//!   parallel hot path in the workspace is built on (see its module docs
//!   for the determinism contract and the `TCSS_NUM_THREADS` knob).

pub mod eigen;
pub mod kernels;
pub mod lowp;
pub mod matrix;
pub mod parallel;
pub mod qr;
pub mod solve;
pub mod stats;
pub mod svd;
pub mod vector;

pub use eigen::{jacobi_eigen, top_r_eigenvectors, DenseSymOp, SymOp};
pub use kernels::{LANES, LANES_F32};
pub use matrix::Matrix;
pub use parallel::{
    chunk_count, chunk_ranges, map_chunks, map_chunks_with, num_threads, set_num_threads,
    PoolGuard, WorkspacePool,
};
pub use qr::orthonormalize;
pub use solve::solve_linear_system;
pub use stats::{cosine_similarity, cosine_similarity_matrix};
pub use svd::{truncated_svd, Svd};

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected shapes.
        expected: String,
        /// Human-readable description of the shapes that were provided.
        got: String,
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The requested rank exceeds what the operand can support.
    RankTooLarge {
        /// Rank requested by the caller.
        requested: usize,
        /// Maximum rank supported by the operand.
        max: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            LinalgError::NoConvergence {
                routine,
                iterations,
            } => write!(
                f,
                "{routine} did not converge after {iterations} iterations"
            ),
            LinalgError::RankTooLarge { requested, max } => {
                write!(f, "requested rank {requested} exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
