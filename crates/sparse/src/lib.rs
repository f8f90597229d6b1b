//! # tcss-sparse
//!
//! Sparse tensor substrate for the TCSS reproduction.
//!
//! The paper's data object is a binary order-3 check-in tensor
//! `X ∈ {0,1}^{I×J×K}` (user × POI × time unit) that is extremely sparse —
//! only observed check-ins are stored. Everything downstream (spectral
//! initialization, the rewritten loss, every baseline) consumes the
//! [`SparseTensor3`] defined here.
//!
//! [`SparseTensor3`] is deduplicated COO storage with per-mode index
//! lists, mode-n matricization, and the matrix-free Gram operators
//! ([`ModeGramOp`]) that the spectral initializer (paper Eq 4) applies
//! without ever materializing an `I × I` matrix.

pub mod tensor;

pub use tensor::{Mode, ModeGramOp, SparseTensor3, TensorEntry};

/// Errors produced by sparse-structure constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An entry's index exceeds the declared dimensions.
    IndexOutOfBounds {
        /// The offending (i, j, k) index.
        index: (usize, usize, usize),
        /// The declared tensor dimensions.
        dims: (usize, usize, usize),
    },
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { index, dims } => write!(
                f,
                "index {:?} out of bounds for tensor of dims {:?}",
                index, dims
            ),
        }
    }
}

impl std::error::Error for SparseError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, SparseError>;
