//! # tcss-autodiff
//!
//! A reverse-mode, tape-based automatic-differentiation engine with the
//! neural-network building blocks the TCSS paper's *baselines* need.
//!
//! The TCSS core model trains with hand-derived analytic gradients (the
//! rewritten loss of Eq 15 has a special structure that makes this both
//! simple and fast). The baselines, however, are genuine neural networks —
//! NCF (MLP), NTM (neural tensor machine), CoSTCo (CNN over stacked
//! factors), STRNN/STGN (recurrent cells) and STAN (self-attention) — so a
//! real autodiff engine is a required substrate. This crate implements one
//! from scratch:
//!
//! * [`Tensor`] — a small dense n-dimensional array (rank 0–2 in practice).
//! * [`Tape`] / [`Var`] — a gradient tape: every op records its backward
//!   closure; [`Tape::backward`] replays them in reverse.
//! * [`ParamSet`] / [`ParamId`] — named persistent parameters that live
//!   *across* tapes; a fresh tape is built per training step.
//! * [`optim`] — Adam.
//! * [`layers`] — Dense and Embedding layers built on the primitive ops.
//! * [`gradcheck`] — finite-difference gradient verification, used
//!   throughout the test suites of this crate and `tcss-baselines`.
//!
//! ## Example
//!
//! ```
//! use tcss_autodiff::{ParamSet, Tape, Tensor};
//! use tcss_autodiff::optim::{Adam, Optimizer};
//!
//! // Fit y = 2x with a single weight.
//! let mut params = ParamSet::new();
//! let w = params.add("w", Tensor::scalar(0.0));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     let tape = Tape::new();
//!     let wv = tape.param(&params, w);
//!     let x = tape.constant(Tensor::scalar(3.0));
//!     let pred = tape.mul(wv, x);
//!     let target = tape.constant(Tensor::scalar(6.0));
//!     let diff = tape.sub(pred, target);
//!     let loss = tape.mul(diff, diff);
//!     tape.backward(loss);
//!     tape.accumulate_param_grads(&mut params);
//!     opt.step(&mut params);
//! }
//! assert!((params.value(w).item() - 2.0).abs() < 1e-3);
//! ```

// Index-based loops are used deliberately throughout this crate: the
// numeric kernels mirror the paper's subscripted equations, and iterator
// chains over multiple parallel buffers obscure rather than clarify them.
#![allow(clippy::needless_range_loop)]

pub mod gradcheck;
pub mod layers;
pub mod optim;
pub mod params;
pub mod tape;
pub mod tensor;

pub use gradcheck::{check_gradients, check_gradients_fn, GradCheckReport};
pub use params::{ParamId, ParamSet};
pub use tape::{Tape, Var};
pub use tensor::Tensor;
