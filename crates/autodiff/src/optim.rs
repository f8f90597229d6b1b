//! The Adam optimizer.
//!
//! The paper trains TCSS with Adam (lr 0.001, weight decay 0.1, §V-D); the
//! neural baselines use the same optimizer family. `step` consumes the
//! gradients accumulated in a [`ParamSet`] and zeroes them.

use crate::params::ParamSet;
use crate::tensor::Tensor;

/// Common interface for gradient-based optimizers.
pub trait Optimizer {
    /// Apply one update using the gradients stored in `params`, then zero
    /// the gradients.
    fn step(&mut self, params: &mut ParamSet);
}

/// Adam (Kingma & Ba 2015) with decoupled weight decay (AdamW-style, which
/// is what `torch.optim.Adam(weight_decay=...)`'s L2 term approximates for
/// the small decay values used in the paper).
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical fuzz.
    pub eps: f64,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f64,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with standard betas and no weight decay.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet) {
        let ids: Vec<_> = params.ids().collect();
        // Lazily size the moment buffers on first step (or if params grew).
        while self.m.len() < ids.len() {
            let id = ids[self.m.len()];
            self.m.push(Tensor::zeros(params.value(id).shape()));
            self.v.push(Tensor::zeros(params.value(id).shape()));
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (slot, id) in ids.into_iter().enumerate() {
            let grad = params.grad(id).clone();
            let m = &mut self.m[slot];
            let v = &mut self.v[slot];
            let value = params.value_mut(id);
            for (((w, &g), mi), vi) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data().iter())
                .zip(m.data_mut().iter_mut())
                .zip(v.data_mut().iter_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *w -= self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * *w);
            }
        }
        params.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimize (w − 3)² with `opt`.
    fn quadratic_converges(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::scalar(0.0));
        for _ in 0..steps {
            let tape = Tape::new();
            let wv = tape.param(&params, w);
            let target = tape.constant(Tensor::scalar(3.0));
            let d = tape.sub(wv, target);
            let loss = tape.mul(d, d);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut params);
            opt.step(&mut params);
        }
        params.value(w).item()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = quadratic_converges(&mut Adam::new(0.1), 500);
        assert!((w - 3.0).abs() < 1e-4, "got {w}");
    }

    #[test]
    fn weight_decay_shrinks_solution() {
        let mut plain = Adam::new(0.1);
        let mut decayed = Adam::new(0.1);
        decayed.weight_decay = 0.5;
        let w_plain = quadratic_converges(&mut plain, 300);
        let w_decayed = quadratic_converges(&mut decayed, 300);
        assert!(w_decayed < w_plain, "{w_decayed} !< {w_plain}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::scalar(1.0));
        params.grad_mut(w).data_mut()[0] = 2.0;
        Adam::new(0.1).step(&mut params);
        assert_eq!(params.grad(w).item(), 0.0);
    }
}
