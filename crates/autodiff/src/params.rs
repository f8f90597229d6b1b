//! Persistent, named model parameters.
//!
//! Parameters outlive the per-step [`crate::Tape`]: each training step binds
//! them onto a fresh tape with [`crate::Tape::param`], runs backward, and
//! copies leaf gradients back with [`crate::Tape::accumulate_param_grads`];
//! an [`crate::optim::Optimizer`] then consumes `grad` and zeroes it.

use crate::tensor::Tensor;

/// Opaque handle to a parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// A collection of named parameters with paired gradient buffers.
#[derive(Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// Empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter; the gradient buffer starts at zero.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.shape());
        self.params.push(Param {
            name: name.into(),
            value,
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable value access (used by optimizers and initialization).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Current gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Mutable gradient access (used by tapes and optimizers).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].grad
    }

    /// Zero all gradient buffers.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.zero_();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_access() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::vector(&[1.0, 2.0]));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.name(w), "w");
        assert_eq!(ps.value(w).data(), &[1.0, 2.0]);
        assert_eq!(ps.grad(w).data(), &[0.0, 0.0]);
    }

    #[test]
    fn zero_grads_resets() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::scalar(1.0));
        ps.grad_mut(w).data_mut()[0] = 5.0;
        ps.zero_grads();
        assert_eq!(ps.grad(w).item(), 0.0);
    }
}
