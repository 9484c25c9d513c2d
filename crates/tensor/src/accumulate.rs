//! Register-tiled row kernels for the inference fast path:
//! [`Matrix::matmul_acc_into`] and [`CsrMatrix::matmul_into`].
//!
//! Both compute what [`Matrix::matmul_into`] computes — every output the
//! sum of its terms `a · b` in ascending `k`, terms with `a == 0` skipped —
//! bit for bit, in less time on the small operands of a query (tens of rows,
//! 16–80 columns). That kernel stores the whole output row after every
//! term, which chains each term to the last through memory and branches on
//! every `a`; these keep 16 outputs of one or two rows in registers across
//! all terms (`axpy_rows`).
//!
//! A skipped term costs no branch: a zero `a` multiplies a zero segment
//! instead of its own. Adding the resulting `±0` leaves every sum as it was,
//! because a sum that starts at `+0` never becomes `-0` (round-to-nearest
//! gives `-0` only for `-0 + -0`) — which is why the outputs must start at
//! zero or at sums these kernels made. The kernels walk every term of a
//! dense operand, so they suit rows with few zeros; `matmul_into` stays the
//! better kernel for rows as sparse as aggregated one-hot labels.
//!
//! The kernels use separate multiplies and adds, never fused ones, so they
//! give the same bits at any vector width; on x86-64 they run compiled for
//! AVX when the CPU has it.

use crate::matrix::Matrix;

/// Outputs the row kernels hold in registers at a time.
const TILE: usize = 16;

/// What a skipped term multiplies instead of its source segment.
static ZERO_TILE: [f32; TILE] = [0.0; TILE];

/// A sparse matrix in row-compressed form: each row's non-zero
/// `(column, value)` entries in ascending column order — the terms, in
/// their order, of that row of a dense product (whose zero-skip drops
/// exactly the other columns).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Row `i`'s entries are `entries[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    entries: Vec<(u32, f32)>,
}

impl CsrMatrix {
    /// Collects rows given as `(column, value)` lists in ascending column
    /// order; zero values are dropped.
    pub fn from_rows<R: IntoIterator<Item = (u32, f32)>>(
        rows: impl IntoIterator<Item = R>,
    ) -> Self {
        let mut m = CsrMatrix {
            starts: vec![0],
            entries: Vec::new(),
        };
        for row in rows {
            let start = m.entries.len();
            m.entries.extend(row.into_iter().filter(|&(_, v)| v != 0.0));
            debug_assert!(
                m.entries[start..].windows(2).all(|p| p[0].0 < p[1].0),
                "row columns must ascend"
            );
            m.starts.push(m.entries.len() as u32);
        }
        m
    }

    fn rows(&self) -> usize {
        self.starts.len() - 1
    }

    /// The dense `rows × cols` matrix, explicit zeros included.
    pub fn to_dense(&self, cols: usize) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), cols);
        for i in 0..self.rows() {
            for &(j, v) in &self.entries[self.starts[i] as usize..self.starts[i + 1] as usize] {
                m.set(i, j as usize, v);
            }
        }
        m
    }

    /// `out = self · rhs`: the dense matrix's [`Matrix::matmul_into`], bit
    /// for bit, over the non-zeros only.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        out.reset(self.rows(), rhs.cols());
        #[cfg(target_arch = "x86_64")]
        if has_avx() {
            // SAFETY: the CPU supports AVX.
            return unsafe { csr_matmul_avx(self, rhs, out) };
        }
        csr_matmul(self, rhs, out)
    }
}

#[inline(always)]
fn csr_matmul(a: &CsrMatrix, rhs: &Matrix, out: &mut Matrix) {
    for i in 0..a.rows() {
        let row = &a.entries[a.starts[i] as usize..a.starts[i + 1] as usize];
        let terms = row.iter().map(|&(j, v)| ([v], rhs.row(j as usize)));
        axpy_rows([out.row_mut(i)], terms);
    }
}

/// The body of [`Matrix::matmul_acc_into`] (shapes already checked).
pub(crate) fn matmul_acc(x: &Matrix, rhs: &Matrix, first: usize, out: &mut Matrix) {
    #[cfg(target_arch = "x86_64")]
    if has_avx() {
        // SAFETY: the CPU supports AVX.
        return unsafe { matmul_acc_avx(x, rhs, first, out) };
    }
    matmul_acc_rows(x, rhs, first, out)
}

/// Rows two at a time, their chains interleaved, then the odd one out.
#[inline(always)]
fn matmul_acc_rows(x: &Matrix, rhs: &Matrix, first: usize, out: &mut Matrix) {
    let width = rhs.cols();
    if width == 0 {
        return;
    }
    let w = &rhs.data()[first * width..(first + x.cols()) * width];
    let mut pairs = out.data_mut().chunks_exact_mut(2 * width);
    for (p, rows) in (&mut pairs).enumerate() {
        let (o0, o1) = rows.split_at_mut(width);
        let terms = x.row(2 * p).iter().zip(x.row(2 * p + 1));
        let terms = terms.zip(w.chunks_exact(width));
        axpy_rows([o0, o1], terms.map(|((&a0, &a1), w)| ([a0, a1], w)));
    }
    let last = pairs.into_remainder();
    if !last.is_empty() {
        let terms = x.row(x.rows() - 1).iter().zip(w.chunks_exact(width));
        axpy_rows([last], terms.map(|(&a, w)| ([a], w)));
    }
}

/// Whether this CPU has AVX: the kernels then run compiled for it.
#[cfg(target_arch = "x86_64")]
fn has_avx() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// [`csr_matmul`] compiled for AVX.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn csr_matmul_avx(a: &CsrMatrix, rhs: &Matrix, out: &mut Matrix) {
    csr_matmul(a, rhs, out)
}

/// [`matmul_acc_rows`] compiled for AVX.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn matmul_acc_avx(x: &Matrix, rhs: &Matrix, first: usize, out: &mut Matrix) {
    matmul_acc_rows(x, rhs, first, out)
}

/// Resumes `N` output rows that read the same source rows, each with its
/// own coefficients: `outs[r][j] += a[r] · src[j]` for each `(a, src)` of
/// `terms`, in order, with `a[r] == 0` skipped (see the module docs). Each
/// `src` must be at least as long as the rows.
#[inline(always)]
fn axpy_rows<'a, const N: usize>(
    mut outs: [&mut [f32]; N],
    terms: impl Iterator<Item = ([f32; N], &'a [f32])> + Clone,
) {
    let width = outs[0].len();
    let full = width / TILE * TILE;
    for t in (0..full).step_by(TILE) {
        let mut acc: [[f32; TILE]; N] =
            std::array::from_fn(|r| outs[r][t..t + TILE].try_into().expect("a full tile"));
        for (a, src) in terms.clone() {
            let seg: &[f32; TILE] = src[t..t + TILE].try_into().expect("a full tile");
            for (acc, a) in acc.iter_mut().zip(a) {
                let seg = if a == 0.0 { &ZERO_TILE } else { seg };
                for (o, &b) in acc.iter_mut().zip(seg) {
                    *o += a * b;
                }
            }
        }
        for (out, acc) in outs.iter_mut().zip(&acc) {
            out[t..t + TILE].copy_from_slice(acc);
        }
    }
    if full < width {
        // The outputs after the last full tile, with the zero-skip as a
        // branch.
        for (a, src) in terms {
            for (out, a) in outs.iter_mut().zip(a) {
                if a != 0.0 {
                    for (o, &b) in out[full..].iter_mut().zip(&src[full..]) {
                        *o += a * b;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn to_dense_round_trips_from_rows() {
        let mut rng = StdRng::seed_from_u64(11);
        let dense = Matrix::from_fn(6, 9, |_, _| {
            if rng.gen_bool(0.6) {
                0.0
            } else {
                rng.gen_range(-3.0..3.0f32)
            }
        });
        let csr = CsrMatrix::from_rows((0..6).map(|i| {
            let row = dense.row(i).to_vec();
            (0..9u32).map(move |j| (j, row[j as usize]))
        }));
        assert_eq!(
            csr.entries.len(),
            dense.data().iter().filter(|&&v| v != 0.0).count()
        );
        assert_eq!(csr.to_dense(9), dense);
        // Columns past the last non-zero stay zero.
        assert_eq!(csr.to_dense(11).row(2)[9..], [0.0, 0.0]);
    }

    #[test]
    fn csr_products_are_dense_products_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(10);
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for cols in [1, 7, 16, 20, 51] {
            let dense = Matrix::from_fn(9, 13, |_, _| {
                if rng.gen_bool(0.7) {
                    0.0
                } else {
                    rng.gen_range(1..4) as f32
                }
            });
            let h = Matrix::from_fn(13, cols, |_, _| rng.gen_range(-2.0..2.0f32));
            let csr = CsrMatrix::from_rows((0..9).map(|i| {
                let row = dense.row(i).to_vec();
                (0..13u32).map(move |j| (j, row[j as usize]))
            }));
            let mut got = Matrix::zeros(0, 0);
            csr.matmul_into(&h, &mut got);
            assert_eq!(bits(&got), bits(&dense.matmul(&h)), "{cols} columns");
        }
    }
}
