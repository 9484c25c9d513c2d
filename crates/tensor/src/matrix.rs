//! Dense row-major `f32` matrices.
//!
//! Deliberately minimal: just the operations the LAN models need, with
//! shapes checked by assertions. Matmul is a cache-friendly i-k-j loop; at
//! the paper's scales (embedding dim 32–128, graphs of tens of nodes) this
//! is plenty without SIMD intrinsics.

use rand::Rng;

/// A dense `rows × cols` matrix of `f32`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All-ones matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// From a row-major vector. Panics on length mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds entry-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization: `U(-a, a)` with
    /// `a = sqrt(6 / (fan_in + fan_out))`.
    pub fn xavier<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Self {
        let a = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..a))
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The single scalar entry of a 1×1 matrix.
    pub fn scalar(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar() on non-1x1 matrix");
        self.data[0]
    }

    /// Reshapes in place to `rows × cols`, reusing the existing allocation,
    /// and zeroes the contents. The workhorse of the `*_into` kernels.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self @ rhs`. Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned output, reusing its
    /// allocation. Bit-identical to `matmul` (same i-k-j axpy loop, same
    /// accumulation order, same zero-skip).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        out.reset(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let o_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue; // adjacency-style operands are mostly zero
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Continues the sums of [`Matrix::matmul_into`] in `out`:
    /// `out[i][j] += Σ_k self[i][k] · rhs[first + k][j]` over ascending `k`,
    /// zero `self[i][k]` skipped. On a zeroed `out` with `first = 0` this is
    /// `matmul_into` bit for bit; on rows this summed over the leading `k`s
    /// it finishes them, so a product may stop after any `k` and resume.
    /// Much faster on small operands ([`crate::accumulate`]); `out` must
    /// hold no `-0`.
    pub fn matmul_acc_into(&self, rhs: &Matrix, first: usize, out: &mut Matrix) {
        assert!(
            first + self.cols <= rhs.rows,
            "matmul_acc shape mismatch {:?} x {:?}[{first}..]",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_acc output shape"
        );
        crate::accumulate::matmul_acc(self, rhs, first, out);
    }

    /// `self @ rhs_t.T` with the right-hand side already transposed:
    /// `out[i][j] = self.row(i) · rhs_t.row(j)`. Both operands stream
    /// row-major, so the inner loop is a pure dot product that the
    /// autovectorizer turns into SIMD lanes (see [`dot`]). Use this layout
    /// for dense weight matrices on the inference fast path; accumulation
    /// order differs from [`Matrix::matmul`] by reassociation only
    /// (ulp-scale differences).
    pub fn matmul_transb(&self, rhs_t: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transb_into(rhs_t, &mut out);
        out
    }

    /// [`Matrix::matmul_transb`] into a caller-owned output.
    pub fn matmul_transb_into(&self, rhs_t: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs_t.cols,
            "matmul_transb shape mismatch {:?} x {:?}^T",
            self.shape(),
            rhs_t.shape()
        );
        out.reset(self.rows, rhs_t.rows);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let o_row = &mut out.data[i * rhs_t.rows..(i + 1) * rhs_t.rows];
            for (j, o) in o_row.iter_mut().enumerate() {
                let b_row = &rhs_t.data[j * rhs_t.cols..(j + 1) * rhs_t.cols];
                *o = dot(a_row, b_row);
            }
        }
    }

    /// Row-vector product `out = x @ self` (`x: 1 × rows`, `out: 1 × cols`)
    /// as an axpy sweep over the rows of `self`, reusing `out`'s
    /// allocation. Bit-identical to `matmul` on a `1 × rows` left operand
    /// (same k-order accumulation, same zero-skip).
    pub fn matvec_axpy(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(x.len(), self.rows, "matvec_axpy length mismatch");
        out.clear();
        out.resize(self.cols, 0.0);
        for (k, &a) in x.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let b_row = &self.data[k * self.cols..(k + 1) * self.cols];
            for (o, &b) in out.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise (Hadamard) product.
    pub fn mul_elem(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "mul_elem shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "concat_cols row mismatch");
        let cols = self.cols + rhs.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for i in 0..self.rows {
            out.data[i * cols..i * cols + self.cols].copy_from_slice(self.row(i));
            out.data[i * cols + self.cols..(i + 1) * cols].copy_from_slice(rhs.row(i));
        }
        out
    }

    /// Maximum absolute entry difference; convergence/equality metric.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape());
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Dot product with four independent accumulators over unrolled blocks so
/// the compiler can keep partial sums in separate SIMD lanes (a single
/// serial accumulator is a loop-carried dependency that blocks
/// vectorization). Reassociates relative to a serial sum: differences are
/// ulp-scale.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn accumulating_products_are_matmul_bit_for_bit() {
        // Widths around the 16-wide tile, odd and even row counts, more
        // than one 64-wide run of k, exact zeros on both sides (few, and
        // so many that the non-zero k are listed first), and every split
        // of k into a first product and its continuation.
        let mut rng = StdRng::seed_from_u64(9);
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let shapes = [(1, 5, 16), (2, 11, 1), (3, 11, 17), (4, 70, 37), (5, 9, 32)];
        for zeros in [0.3, 0.9] {
            let mut draw = |_: usize, _: usize| {
                if rng.gen_bool(zeros) {
                    0.0
                } else {
                    rng.gen_range(-3.0..3.0f32)
                }
            };
            for (rows, inner, cols) in shapes {
                let a = Matrix::from_fn(rows, inner, &mut draw);
                let b = Matrix::from_fn(inner, cols, &mut draw);
                let want = a.matmul(&b);
                for split in [0, 1, inner / 2, inner] {
                    let head = Matrix::from_fn(rows, split, |i, k| a.get(i, k));
                    let tail = Matrix::from_fn(rows, inner - split, |i, k| a.get(i, split + k));
                    let mut got = Matrix::zeros(rows, cols);
                    head.matmul_acc_into(&b, 0, &mut got);
                    tail.matmul_acc_into(&b, split, &mut got);
                    let case = format!("{rows}x{inner}x{cols} split {split}, {zeros} zeros");
                    assert_eq!(bits(&got), bits(&want), "{case}");
                }
            }
        }
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
        assert_eq!(a.mul_elem(&b).data(), &[4., 10., 18.]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Matrix::from_vec(2, 1, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1., 3., 4.]);
        assert_eq!(c.row(1), &[2., 5., 6.]);
    }

    #[test]
    fn xavier_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::xavier(&mut rng, 16, 16);
        let a = (6.0f32 / 32.0).sqrt();
        assert!(m.data().iter().all(|&x| x > -a && x < a));
        // Not all zero.
        assert!(m.norm() > 0.0);
    }

    #[test]
    fn scalar_accessor() {
        let m = Matrix::from_vec(1, 1, vec![3.5]);
        assert_eq!(m.scalar(), 3.5);
    }

    #[test]
    fn norm_and_sum() {
        let m = Matrix::from_vec(1, 2, vec![3., 4.]);
        assert_eq!(m.norm(), 5.0);
        assert_eq!(m.sum(), 7.0);
    }

    #[test]
    fn max_abs_diff() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![1., 2.5, 2.]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn matmul_into_matches_matmul_and_reuses_buffer() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut out = Matrix::zeros(1, 1);
        for _ in 0..10 {
            let a = Matrix::from_fn(5, 7, |_, _| rng.gen_range(-1.0..1.0f32));
            let b = Matrix::from_fn(7, 3, |_, _| rng.gen_range(-1.0..1.0f32));
            a.matmul_into(&b, &mut out);
            assert_eq!(out, a.matmul(&b), "matmul_into diverged");
        }
    }

    #[test]
    fn matmul_transb_matches_plain_matmul() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let a = Matrix::from_fn(6, 9, |_, _| rng.gen_range(-1.0..1.0f32));
            let b = Matrix::from_fn(9, 4, |_, _| rng.gen_range(-1.0..1.0f32));
            let want = a.matmul(&b);
            let got = a.matmul_transb(&b.transpose());
            assert_eq!(got.shape(), want.shape());
            assert!(
                got.max_abs_diff(&want) < 1e-5,
                "transb diverged by {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn matvec_axpy_matches_matmul_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut out = Vec::new();
        for _ in 0..10 {
            // Include exact zeros so the skip-zero path is exercised.
            let x: Vec<f32> = (0..8)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                })
                .collect();
            let m = Matrix::from_fn(8, 5, |_, _| rng.gen_range(-1.0..1.0f32));
            m.matvec_axpy(&x, &mut out);
            let want = Matrix::from_vec(1, 8, x.clone()).matmul(&m);
            assert_eq!(out.as_slice(), want.data(), "axpy not bit-identical");
        }
    }

    #[test]
    fn dot_matches_serial_sum() {
        let mut rng = StdRng::seed_from_u64(14);
        for len in [0usize, 1, 3, 4, 7, 16, 33] {
            let a: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let serial: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - serial).abs() < 1e-5);
        }
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        m.reset(3, 1);
        assert_eq!(m.shape(), (3, 1));
        assert!(m.data().iter().all(|&x| x == 0.0));
        m.row_mut(1)[0] = 5.0;
        assert_eq!(m.get(1, 0), 5.0);
    }
}
