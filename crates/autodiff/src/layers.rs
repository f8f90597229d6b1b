//! Reusable layers built on the primitive tape ops.
//!
//! Only the two layers every baseline shares live here (Dense, Embedding);
//! the sequence models in `tcss-baselines` compose primitive ops directly,
//! because their cells (spatial-temporal RNN transitions, STGN's extra
//! gates) are bespoke.

use crate::params::{ParamId, ParamSet};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;

/// A fully-connected layer `y = activation(x · W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix parameter, `in_dim × out_dim`.
    pub w: ParamId,
    /// Bias vector parameter, `[out_dim]`.
    pub b: ParamId,
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
}

/// Activation applied by [`Dense::forward`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation (affine output).
    Identity,
    /// ReLU.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Dense {
    /// Register a dense layer's parameters (Xavier weights, zero bias).
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = params.add(format!("{name}.w"), Tensor::xavier(in_dim, out_dim, rng));
        let b = params.add(format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Dense {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Apply the layer to a `batch × in_dim` input.
    pub fn forward(&self, tape: &Tape, params: &ParamSet, x: Var, act: Activation) -> Var {
        let w = tape.param(params, self.w);
        let b = tape.param(params, self.b);
        let xw = tape.matmul(x, w);
        let pre = tape.add_row_broadcast(xw, b);
        match act {
            Activation::Identity => pre,
            Activation::Relu => tape.relu(pre),
            Activation::Sigmoid => tape.sigmoid(pre),
            Activation::Tanh => tape.tanh(pre),
        }
    }
}

/// An embedding table with row lookup.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The `vocab × dim` table parameter.
    pub table: ParamId,
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension.
    pub dim: usize,
}

impl Embedding {
    /// Register an embedding table initialized uniformly in `[-scale, scale]`.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        vocab: usize,
        dim: usize,
        scale: f64,
        rng: &mut impl Rng,
    ) -> Self {
        let table = params.add(name, Tensor::uniform(&[vocab, dim], scale, rng));
        Embedding { table, vocab, dim }
    }

    /// Look up a batch of rows; output is `indices.len() × dim`.
    pub fn forward(&self, tape: &Tape, params: &ParamSet, indices: &[usize]) -> Var {
        let table = tape.param(params, self.table);
        tape.gather_rows(table, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = ParamSet::new();
        let layer = Dense::new(&mut params, "fc", 4, 2, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[5, 4]));
        let y = layer.forward(&tape, &params, x, Activation::Relu);
        assert_eq!(tape.value(y).shape(), &[5, 2]);
    }

    #[test]
    fn dense_learns_linear_map() {
        // Fit y = [x0 + x1] with a 2→1 dense layer.
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = ParamSet::new();
        let layer = Dense::new(&mut params, "fc", 2, 1, &mut rng);
        let mut opt = Adam::new(0.05);
        let xs = Tensor::from_vec(&[4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Tensor::from_vec(&[4, 1], vec![0., 1., 1., 2.]);
        let mut last = f64::MAX;
        for _ in 0..300 {
            let tape = Tape::new();
            let x = tape.constant(xs.clone());
            let pred = layer.forward(&tape, &params, x, Activation::Identity);
            let loss = tape.mse_loss(pred, &ys);
            last = tape.value(loss).item();
            tape.backward(loss);
            tape.accumulate_param_grads(&mut params);
            opt.step(&mut params);
        }
        assert!(last < 1e-4, "loss {last}");
    }

    #[test]
    fn embedding_lookup_and_training() {
        // Train embeddings so row 0 ≈ [1, 0] and row 1 ≈ [0, 1].
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = ParamSet::new();
        let emb = Embedding::new(&mut params, "e", 3, 2, 0.1, &mut rng);
        let target = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]);
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            let tape = Tape::new();
            let rows = emb.forward(&tape, &params, &[0, 1]);
            let loss = tape.mse_loss(rows, &target);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut params);
            opt.step(&mut params);
        }
        let table = params.value(emb.table);
        assert!((table.at(0, 0) - 1.0).abs() < 1e-2);
        assert!((table.at(1, 1) - 1.0).abs() < 1e-2);
        // Row 2 untouched by training: still small.
        assert!(table.at(2, 0).abs() < 0.1);
    }
}
