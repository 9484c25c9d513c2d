//! Trainable parameter storage shared across tapes.

use crate::matrix::Matrix;

/// One trainable parameter with its accumulated gradient and Adam moments.
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Matrix,
    pub grad: Matrix,
    pub m: Matrix,
    pub v: Matrix,
}

/// A flat registry of parameters. Models hold parameter ids into one store;
/// tapes clone values out at record time and accumulate gradients back in
/// [`crate::tape::Tape::backward`].
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its id.
    pub fn add(&mut self, value: Matrix) -> usize {
        let (r, c) = value.shape();
        self.params.push(Param {
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        });
        self.params.len() - 1
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.params
            .iter()
            .map(|p| p.value.rows() * p.value.cols())
            .sum()
    }

    pub fn value(&self, id: usize) -> &Matrix {
        &self.params[id].value
    }

    pub fn value_mut(&mut self, id: usize) -> &mut Matrix {
        &mut self.params[id].value
    }

    pub fn grad(&self, id: usize) -> &Matrix {
        &self.params[id].grad
    }

    pub fn grad_mut(&mut self, id: usize) -> &mut Matrix {
        &mut self.params[id].grad
    }

    /// Adam's first and second moment of a parameter (diagnostics and the
    /// optimizer equivalence tests; training never reads them from outside).
    pub fn moments(&self, id: usize) -> (&Matrix, &Matrix) {
        (&self.params[id].m, &self.params[id].v)
    }

    pub(crate) fn param_mut(&mut self, id: usize) -> &mut Param {
        &mut self.params[id]
    }

    /// Zeroes every gradient (call before each backward accumulation round).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.data_mut().fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_access() {
        let mut s = ParamStore::new();
        let id = s.add(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.scalar_count(), 4);
        assert_eq!(s.value(id).get(1, 0), 3.0);
        s.grad_mut(id).set(0, 0, 5.0);
        assert_eq!(s.grad(id).get(0, 0), 5.0);
        s.zero_grads();
        assert_eq!(s.grad(id).get(0, 0), 0.0);
    }
}
