//! The gradient tape: forward ops record their backward closures; calling
//! [`Tape::backward`] replays them in reverse topological (= insertion)
//! order.
//!
//! Design notes:
//!
//! * A fresh tape is created per training step; persistent state lives in
//!   [`crate::ParamSet`]. This sidesteps graph-reuse bugs entirely.
//! * Backward closures receive *cloned* parent values and return gradient
//!   contributions, which the driver accumulates. Cloning keeps the borrow
//!   structure trivially safe; the tensors involved are small (these are
//!   laptop-scale models), so the cost is negligible against the matmuls.
//! * `Var` is a plain `Copy` index — ergonomic to thread through model code.

use crate::params::{ParamId, ParamSet};
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

type BackwardFn = Box<dyn Fn(&Tensor, &Tensor, &[Tensor]) -> Vec<Tensor>>;

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    parents: Vec<usize>,
    /// `(out_value, out_grad, parent_values) -> parent grad contributions`.
    backward: Option<BackwardFn>,
}

/// A reverse-mode gradient tape.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    param_links: RefCell<Vec<(usize, ParamId)>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Create an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
            param_links: RefCell::new(Vec::new()),
        }
    }

    fn push(&self, value: Tensor, parents: Vec<usize>, backward: Option<BackwardFn>) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            grad: None,
            parents,
            backward,
        });
        Var(nodes.len() - 1)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// The current value of a variable (cloned).
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// The gradient of a variable after [`Tape::backward`]; `None` if the
    /// variable did not participate in the loss.
    pub fn grad(&self, v: Var) -> Option<Tensor> {
        self.nodes.borrow()[v.0].grad.clone()
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// A constant input (gradients are tracked but never read back).
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, vec![], None)
    }

    /// A leaf bound to a persistent parameter: the parameter's current value
    /// is copied in, and [`Tape::accumulate_param_grads`] later adds the
    /// leaf's gradient into `ParamSet::grad`.
    pub fn param(&self, params: &ParamSet, id: ParamId) -> Var {
        let v = self.push(params.value(id).clone(), vec![], None);
        self.param_links.borrow_mut().push((v.0, id));
        v
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    fn binary_same_shape(
        &self,
        a: Var,
        b: Var,
        f: impl Fn(f64, f64) -> f64,
        backward: BackwardFn,
    ) -> Var {
        let (va, vb) = {
            let nodes = self.nodes.borrow();
            (nodes[a.0].value.clone(), nodes[b.0].value.clone())
        };
        assert_eq!(va.shape(), vb.shape(), "elementwise op shape mismatch");
        let data = va
            .data()
            .iter()
            .zip(vb.data().iter())
            .map(|(&x, &y)| f(x, y))
            .collect();
        let out = Tensor::from_vec(va.shape(), data);
        self.push(out, vec![a.0, b.0], Some(backward))
    }

    /// Elementwise sum `a + b`.
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.binary_same_shape(
            a,
            b,
            |x, y| x + y,
            Box::new(|_out, g, _pv| vec![g.clone(), g.clone()]),
        )
    }

    /// Elementwise difference `a − b`.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        self.binary_same_shape(
            a,
            b,
            |x, y| x - y,
            Box::new(|_out, g, _pv| vec![g.clone(), g.map(|v| -v)]),
        )
    }

    /// Elementwise (Hadamard) product `a ⊙ b`.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.binary_same_shape(
            a,
            b,
            |x, y| x * y,
            Box::new(|_out, g, pv| {
                let ga = Tensor::from_vec(
                    g.shape(),
                    g.data()
                        .iter()
                        .zip(pv[1].data().iter())
                        .map(|(&gi, &bi)| gi * bi)
                        .collect(),
                );
                let gb = Tensor::from_vec(
                    g.shape(),
                    g.data()
                        .iter()
                        .zip(pv[0].data().iter())
                        .map(|(&gi, &ai)| gi * ai)
                        .collect(),
                );
                vec![ga, gb]
            }),
        )
    }

    /// Scale by a compile-time-known constant.
    pub fn scale(&self, a: Var, c: f64) -> Var {
        let va = self.nodes.borrow()[a.0].value.clone();
        self.push(
            va.map(|v| v * c),
            vec![a.0],
            Some(Box::new(move |_out, g, _pv| vec![g.map(|v| v * c)])),
        )
    }

    /// Broadcast-add a row vector `b` (shape `[n]` or `[1, n]`) to every row
    /// of `a` (shape `[m, n]`). The bias-add of a dense layer.
    pub fn add_row_broadcast(&self, a: Var, b: Var) -> Var {
        let (va, vb) = {
            let nodes = self.nodes.borrow();
            (nodes[a.0].value.clone(), nodes[b.0].value.clone())
        };
        let n = va.cols();
        assert_eq!(vb.len(), n, "broadcast bias length mismatch");
        let m = va.rows();
        let mut data = va.data().to_vec();
        for i in 0..m {
            for j in 0..n {
                data[i * n + j] += vb.data()[j];
            }
        }
        let out = Tensor::from_vec(va.shape(), data);
        let bias_shape = vb.shape().to_vec();
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |_out, g, _pv| {
                let n = g.cols();
                let m = g.rows();
                let mut gb = vec![0.0; n];
                for i in 0..m {
                    for j in 0..n {
                        gb[j] += g.data()[i * n + j];
                    }
                }
                vec![g.clone(), Tensor::from_vec(&bias_shape, gb)]
            })),
        )
    }

    // ------------------------------------------------------------------
    // Activations and elementwise functions
    // ------------------------------------------------------------------

    fn unary(&self, a: Var, f: impl Fn(f64) -> f64, backward: BackwardFn) -> Var {
        let va = self.nodes.borrow()[a.0].value.clone();
        self.push(va.map(f), vec![a.0], Some(backward))
    }

    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    pub fn sigmoid(&self, a: Var) -> Var {
        self.unary(
            a,
            |x| 1.0 / (1.0 + (-x).exp()),
            Box::new(|out, g, _pv| {
                vec![Tensor::from_vec(
                    g.shape(),
                    g.data()
                        .iter()
                        .zip(out.data().iter())
                        .map(|(&gi, &s)| gi * s * (1.0 - s))
                        .collect(),
                )]
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        self.unary(
            a,
            f64::tanh,
            Box::new(|out, g, _pv| {
                vec![Tensor::from_vec(
                    g.shape(),
                    g.data()
                        .iter()
                        .zip(out.data().iter())
                        .map(|(&gi, &t)| gi * (1.0 - t * t))
                        .collect(),
                )]
            }),
        )
    }

    /// Rectified linear unit `max(x, 0)`.
    pub fn relu(&self, a: Var) -> Var {
        self.unary(
            a,
            |x| x.max(0.0),
            Box::new(|_out, g, pv| {
                vec![Tensor::from_vec(
                    g.shape(),
                    g.data()
                        .iter()
                        .zip(pv[0].data().iter())
                        .map(|(&gi, &x)| if x > 0.0 { gi } else { 0.0 })
                        .collect(),
                )]
            }),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self, a: Var) -> Var {
        self.unary(
            a,
            f64::exp,
            Box::new(|out, g, _pv| {
                vec![Tensor::from_vec(
                    g.shape(),
                    g.data()
                        .iter()
                        .zip(out.data().iter())
                        .map(|(&gi, &e)| gi * e)
                        .collect(),
                )]
            }),
        )
    }

    /// Elementwise square.
    pub fn square(&self, a: Var) -> Var {
        self.unary(
            a,
            |x| x * x,
            Box::new(|_out, g, pv| {
                vec![Tensor::from_vec(
                    g.shape(),
                    g.data()
                        .iter()
                        .zip(pv[0].data().iter())
                        .map(|(&gi, &x)| gi * 2.0 * x)
                        .collect(),
                )]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `a (m×k) · b (k×n)`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let (va, vb) = {
            let nodes = self.nodes.borrow();
            (nodes[a.0].value.clone(), nodes[b.0].value.clone())
        };
        assert_eq!(va.shape().len(), 2, "matmul lhs must be rank 2");
        assert_eq!(vb.shape().len(), 2, "matmul rhs must be rank 2");
        let (m, k) = (va.shape()[0], va.shape()[1]);
        let (k2, n) = (vb.shape()[0], vb.shape()[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch");
        let out = matmul_raw(&va, &vb, m, k, n);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |_out, g, pv| {
                // ga = g · bᵀ ; gb = aᵀ · g
                let ga = matmul_bt(g, &pv[1], m, n, k);
                let gb = matmul_at(&pv[0], g, m, k, n);
                vec![ga, gb]
            })),
        )
    }

    /// Matrix transpose.
    pub fn transpose(&self, a: Var) -> Var {
        let va = self.nodes.borrow()[a.0].value.clone();
        assert_eq!(va.shape().len(), 2, "transpose requires rank 2");
        let (m, n) = (va.shape()[0], va.shape()[1]);
        let mut data = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = va.data()[i * n + j];
            }
        }
        self.push(
            Tensor::from_vec(&[n, m], data),
            vec![a.0],
            Some(Box::new(move |_out, g, _pv| {
                let mut gd = vec![0.0; m * n];
                for j in 0..n {
                    for i in 0..m {
                        gd[i * n + j] = g.data()[j * m + i];
                    }
                }
                vec![Tensor::from_vec(&[m, n], gd)]
            })),
        )
    }

    // ------------------------------------------------------------------
    // Reductions and reshapes
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum(&self, a: Var) -> Var {
        let va = self.nodes.borrow()[a.0].value.clone();
        let shape = va.shape().to_vec();
        let total = va.sum();
        self.push(
            Tensor::scalar(total),
            vec![a.0],
            Some(Box::new(move |_out, g, _pv| {
                vec![Tensor::filled(&shape, g.item())]
            })),
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self, a: Var) -> Var {
        let va = self.nodes.borrow()[a.0].value.clone();
        let n = va.len().max(1);
        let shape = va.shape().to_vec();
        let m = va.sum() / n as f64;
        self.push(
            Tensor::scalar(m),
            vec![a.0],
            Some(Box::new(move |_out, g, _pv| {
                vec![Tensor::filled(&shape, g.item() / n as f64)]
            })),
        )
    }

    /// Reshape (element count must be preserved).
    pub fn reshape(&self, a: Var, shape: &[usize]) -> Var {
        let va = self.nodes.borrow()[a.0].value.clone();
        let old_shape = va.shape().to_vec();
        let out = va.reshaped(shape);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |_out, g, _pv| vec![g.reshaped(&old_shape)])),
        )
    }

    /// Row-wise softmax of a rank-2 tensor.
    pub fn row_softmax(&self, a: Var) -> Var {
        let va = self.nodes.borrow()[a.0].value.clone();
        assert_eq!(va.shape().len(), 2, "row_softmax requires rank 2");
        let (m, n) = (va.shape()[0], va.shape()[1]);
        let mut data = vec![0.0; m * n];
        for i in 0..m {
            let row = &va.data()[i * n..(i + 1) * n];
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for j in 0..n {
                let e = (row[j] - max).exp();
                data[i * n + j] = e;
                sum += e;
            }
            for j in 0..n {
                data[i * n + j] /= sum;
            }
        }
        self.push(
            Tensor::from_vec(&[m, n], data),
            vec![a.0],
            Some(Box::new(move |out, g, _pv| {
                // dL/dx_j = s_j (g_j − Σ_k g_k s_k), row-wise.
                let mut gd = vec![0.0; m * n];
                for i in 0..m {
                    let s = &out.data()[i * n..(i + 1) * n];
                    let gr = &g.data()[i * n..(i + 1) * n];
                    let dot: f64 = s.iter().zip(gr.iter()).map(|(&si, &gi)| si * gi).sum();
                    for j in 0..n {
                        gd[i * n + j] = s[j] * (gr[j] - dot);
                    }
                }
                vec![Tensor::from_vec(&[m, n], gd)]
            })),
        )
    }

    /// Concatenate two rank-2 tensors along columns.
    pub fn concat_cols(&self, a: Var, b: Var) -> Var {
        let (va, vb) = {
            let nodes = self.nodes.borrow();
            (nodes[a.0].value.clone(), nodes[b.0].value.clone())
        };
        assert_eq!(va.shape().len(), 2, "concat_cols lhs must be rank 2");
        assert_eq!(vb.shape().len(), 2, "concat_cols rhs must be rank 2");
        let (m, p) = (va.shape()[0], va.shape()[1]);
        let (m2, q) = (vb.shape()[0], vb.shape()[1]);
        assert_eq!(m, m2, "concat_cols row count mismatch");
        let mut data = Vec::with_capacity(m * (p + q));
        for i in 0..m {
            data.extend_from_slice(&va.data()[i * p..(i + 1) * p]);
            data.extend_from_slice(&vb.data()[i * q..(i + 1) * q]);
        }
        self.push(
            Tensor::from_vec(&[m, p + q], data),
            vec![a.0, b.0],
            Some(Box::new(move |_out, g, _pv| {
                let mut ga = vec![0.0; m * p];
                let mut gb = vec![0.0; m * q];
                for i in 0..m {
                    ga[i * p..(i + 1) * p].copy_from_slice(&g.data()[i * (p + q)..i * (p + q) + p]);
                    gb[i * q..(i + 1) * q]
                        .copy_from_slice(&g.data()[i * (p + q) + p..(i + 1) * (p + q)]);
                }
                vec![Tensor::from_vec(&[m, p], ga), Tensor::from_vec(&[m, q], gb)]
            })),
        )
    }

    /// Gather rows from an embedding table: `out[r] = table[indices[r]]`.
    /// Backward scatter-adds into the table gradient (repeated indices
    /// accumulate, as embedding lookups must).
    pub fn gather_rows(&self, table: Var, indices: &[usize]) -> Var {
        let vt = self.nodes.borrow()[table.0].value.clone();
        assert_eq!(vt.shape().len(), 2, "gather_rows table must be rank 2");
        let (v_rows, d) = (vt.shape()[0], vt.shape()[1]);
        let idx: Vec<usize> = indices.to_vec();
        for &i in &idx {
            assert!(i < v_rows, "gather index {i} out of range {v_rows}");
        }
        let mut data = Vec::with_capacity(idx.len() * d);
        for &i in &idx {
            data.extend_from_slice(&vt.data()[i * d..(i + 1) * d]);
        }
        self.push(
            Tensor::from_vec(&[idx.len(), d], data),
            vec![table.0],
            Some(Box::new(move |_out, g, _pv| {
                let mut gt = vec![0.0; v_rows * d];
                for (r, &i) in idx.iter().enumerate() {
                    for c in 0..d {
                        gt[i * d + c] += g.data()[r * d + c];
                    }
                }
                vec![Tensor::from_vec(&[v_rows, d], gt)]
            })),
        )
    }

    // ------------------------------------------------------------------
    // Losses
    // ------------------------------------------------------------------

    /// Mean squared error against a constant target (scalar output).
    pub fn mse_loss(&self, pred: Var, target: &Tensor) -> Var {
        let vp = self.nodes.borrow()[pred.0].value.clone();
        assert_eq!(vp.shape(), target.shape(), "mse target shape mismatch");
        let n = vp.len().max(1);
        let loss = vp
            .data()
            .iter()
            .zip(target.data().iter())
            .map(|(&p, &t)| (p - t) * (p - t))
            .sum::<f64>()
            / n as f64;
        let t = target.clone();
        self.push(
            Tensor::scalar(loss),
            vec![pred.0],
            Some(Box::new(move |_out, g, pv| {
                let s = 2.0 * g.item() / n as f64;
                vec![Tensor::from_vec(
                    pv[0].shape(),
                    pv[0]
                        .data()
                        .iter()
                        .zip(t.data().iter())
                        .map(|(&p, &tt)| s * (p - tt))
                        .collect(),
                )]
            })),
        )
    }

    /// Numerically-stable binary cross-entropy on logits against constant
    /// 0/1 targets (mean over elements; scalar output).
    pub fn bce_with_logits(&self, logits: Var, target: &Tensor) -> Var {
        let vl = self.nodes.borrow()[logits.0].value.clone();
        assert_eq!(vl.shape(), target.shape(), "bce target shape mismatch");
        let n = vl.len().max(1);
        // loss = max(x,0) − x·t + ln(1 + e^{−|x|})
        let loss = vl
            .data()
            .iter()
            .zip(target.data().iter())
            .map(|(&x, &t)| x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln())
            .sum::<f64>()
            / n as f64;
        let t = target.clone();
        self.push(
            Tensor::scalar(loss),
            vec![logits.0],
            Some(Box::new(move |_out, g, pv| {
                let s = g.item() / n as f64;
                vec![Tensor::from_vec(
                    pv[0].shape(),
                    pv[0]
                        .data()
                        .iter()
                        .zip(t.data().iter())
                        .map(|(&x, &tt)| s * (1.0 / (1.0 + (-x).exp()) - tt))
                        .collect(),
                )]
            })),
        )
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Run the backward pass from a single-element `loss` variable,
    /// populating gradients on every contributing node.
    pub fn backward(&self, loss: Var) {
        let mut nodes = self.nodes.borrow_mut();
        assert_eq!(
            nodes[loss.0].value.len(),
            1,
            "backward requires a single-element loss"
        );
        let seed_shape = nodes[loss.0].value.shape().to_vec();
        nodes[loss.0].grad = Some(Tensor::filled(&seed_shape, 1.0));
        for i in (0..nodes.len()).rev() {
            let Some(grad) = nodes[i].grad.clone() else {
                continue;
            };
            let Some(backward) = nodes[i].backward.take() else {
                continue;
            };
            let parents = nodes[i].parents.clone();
            let parent_values: Vec<Tensor> =
                parents.iter().map(|&p| nodes[p].value.clone()).collect();
            let out_value = nodes[i].value.clone();
            let contribs = backward(&out_value, &grad, &parent_values);
            assert_eq!(contribs.len(), parents.len(), "backward arity mismatch");
            for (p, contrib) in parents.into_iter().zip(contribs) {
                match &mut nodes[p].grad {
                    Some(g) => g.add_assign(&contrib),
                    slot @ None => *slot = Some(contrib),
                }
            }
        }
    }

    /// Add the gradients of every `param`-bound leaf into the parameter
    /// set's gradient buffers (call once after [`Tape::backward`]).
    pub fn accumulate_param_grads(&self, params: &mut ParamSet) {
        let nodes = self.nodes.borrow();
        for &(node_idx, id) in self.param_links.borrow().iter() {
            if let Some(g) = &nodes[node_idx].grad {
                params.grad_mut(id).add_assign(g);
            }
        }
    }
}

// Raw matmul helpers shared by forward and backward.

fn matmul_raw(a: &Tensor, b: &Tensor, m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a.data()[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let brow = &b.data()[kk * n..(kk + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += aik * bv;
            }
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// `g (m×n) · bᵀ (n×k)` without materializing the transpose.
fn matmul_bt(g: &Tensor, b: &Tensor, m: usize, n: usize, k: usize) -> Tensor {
    let mut out = vec![0.0; m * k];
    for i in 0..m {
        for kk in 0..k {
            let mut acc = 0.0;
            for j in 0..n {
                acc += g.data()[i * n + j] * b.data()[kk * n + j];
            }
            out[i * k + kk] = acc;
        }
    }
    Tensor::from_vec(&[m, k], out)
}

/// `aᵀ (k×m) · g (m×n)` without materializing the transpose.
fn matmul_at(a: &Tensor, g: &Tensor, m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0; k * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a.data()[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let grow = &g.data()[i * n..(i + 1) * n];
            let orow = &mut out[kk * n..(kk + 1) * n];
            for (o, &gv) in orow.iter_mut().zip(grow.iter()) {
                *o += av * gv;
            }
        }
    }
    Tensor::from_vec(&[k, n], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_mul_backward() {
        // loss = (a + b) * a, at a=2, b=3 → loss=10, dl/da = 2a+b = 7, dl/db = a = 2.
        let tape = Tape::new();
        let a = tape.constant(Tensor::scalar(2.0));
        let b = tape.constant(Tensor::scalar(3.0));
        let s = tape.add(a, b);
        let loss = tape.mul(s, a);
        assert_eq!(tape.value(loss).item(), 10.0);
        tape.backward(loss);
        assert!((tape.grad(a).unwrap().item() - 7.0).abs() < 1e-12);
        assert!((tape.grad(b).unwrap().item() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_backward_matches_manual() {
        // loss = sum(A·B); dL/dA = 1·Bᵀ, dL/dB = Aᵀ·1.
        let tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let b = tape.constant(Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]));
        let c = tape.matmul(a, b);
        let loss = tape.sum(c);
        tape.backward(loss);
        let ga = tape.grad(a).unwrap();
        // row sums of B: [11, 15] per column of A.
        assert_eq!(ga.data(), &[11.0, 15.0, 11.0, 15.0]);
        let gb = tape.grad(b).unwrap();
        // column sums of A: [4, 6] per row of B.
        assert_eq!(gb.data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn sigmoid_gradient_at_zero() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::scalar(0.0));
        let s = tape.sigmoid(x);
        tape.backward(s);
        assert!((tape.value(s).item() - 0.5).abs() < 1e-12);
        assert!((tape.grad(x).unwrap().item() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn relu_kills_negative_gradient() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::vector(&[-1.0, 2.0]));
        let r = tape.relu(x);
        let loss = tape.sum(r);
        tape.backward(loss);
        assert_eq!(tape.grad(x).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_grad_sums_to_zero() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]));
        let s = tape.row_softmax(x);
        let v = tape.value(s);
        assert!((v.data().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Pick out the first component as loss; softmax grads sum to 0 per row.
        let mask = tape.constant(Tensor::from_vec(&[1, 3], vec![1.0, 0.0, 0.0]));
        let picked = tape.mul(s, mask);
        let loss = tape.sum(picked);
        tape.backward(loss);
        let g = tape.grad(x).unwrap();
        assert!(g.data().iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn gather_rows_scatter_adds() {
        let tape = Tape::new();
        let table = tape.constant(Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]));
        // Row 1 gathered twice: its gradient must accumulate to 2.
        let g = tape.gather_rows(table, &[1, 1, 0]);
        let loss = tape.sum(g);
        tape.backward(loss);
        let gt = tape.grad(table).unwrap();
        assert_eq!(gt.data(), &[1.0, 1.0, 2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(&[2, 1], vec![1.0, 2.0]));
        let b = tape.constant(Tensor::from_vec(&[2, 2], vec![3.0, 4.0, 5.0, 6.0]));
        let c = tape.concat_cols(a, b);
        assert_eq!(tape.value(c).shape(), &[2, 3]);
        assert_eq!(tape.value(c).data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
        let loss = tape.sum(c);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap().shape(), &[2, 1]);
        assert_eq!(tape.grad(b).unwrap().shape(), &[2, 2]);
    }

    #[test]
    fn mse_loss_gradient() {
        let tape = Tape::new();
        let p = tape.constant(Tensor::vector(&[1.0, 3.0]));
        let loss = tape.mse_loss(p, &Tensor::vector(&[0.0, 0.0]));
        assert!((tape.value(loss).item() - 5.0).abs() < 1e-12);
        tape.backward(loss);
        assert_eq!(tape.grad(p).unwrap().data(), &[1.0, 3.0]); // 2(p−t)/n
    }

    #[test]
    fn bce_with_logits_matches_naive() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::vector(&[0.3, -1.2]));
        let t = Tensor::vector(&[1.0, 0.0]);
        let loss = tape.bce_with_logits(x, &t);
        let got = tape.value(loss).item();
        let naive = {
            let s = |x: f64| 1.0 / (1.0 + (-x).exp());
            (-(s(0.3f64)).ln() - (1.0 - s(-1.2f64)).ln()) / 2.0
        };
        assert!((got - naive).abs() < 1e-12);
        tape.backward(loss);
        let g = tape.grad(x).unwrap();
        let s = |x: f64| 1.0 / (1.0 + (-x).exp());
        assert!((g.data()[0] - (s(0.3) - 1.0) / 2.0).abs() < 1e-12);
        assert!((g.data()[1] - (s(-1.2) - 0.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_graph_accumulates_gradients() {
        // loss = a*a + a → dl/da = 2a + 1.
        let tape = Tape::new();
        let a = tape.constant(Tensor::scalar(3.0));
        let sq = tape.mul(a, a);
        let loss = tape.add(sq, a);
        tape.backward(loss);
        assert!((tape.grad(a).unwrap().item() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_roundtrip_gradient() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(
            &[2, 3],
            (0..6).map(|v| v as f64).collect(),
        ));
        let t = tape.transpose(a);
        assert_eq!(tape.value(t).shape(), &[3, 2]);
        let loss = tape.sum(t);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap(), Tensor::filled(&[2, 3], 1.0));
    }

    #[test]
    fn unused_variable_has_no_grad() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::scalar(1.0));
        let b = tape.constant(Tensor::scalar(2.0));
        let loss = tape.mul(a, a);
        tape.backward(loss);
        assert!(tape.grad(b).is_none());
    }
}
