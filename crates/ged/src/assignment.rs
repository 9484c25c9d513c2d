//! Exact solvers for the linear sum assignment problem (LSAP).
//!
//! Two independent implementations, matching the two bipartite GED
//! references the paper compares for ground truth:
//!
//! * [`hungarian`] — the Kuhn–Munkres algorithm in its O(n³)
//!   potentials/shortest-augmenting-path form (Riesen & Bunke's "Hung").
//! * [`lapjv`] — Jonker & Volgenant's LAPJV: column reduction + augmenting
//!   row reduction preprocessing followed by shortest augmenting paths
//!   (Fankhauser et al.'s "VJ" speed-up).
//!
//! Both return an *optimal* assignment. They may return different optimal
//! assignments when ties exist, which is why the two derived bipartite GED
//! approximations can differ on the same pair of graphs.
//!
//! Each solver exists in two forms: the plain entry point, which allocates
//! its working arrays, and a `*_with` form that reuses an [`AssignScratch`]
//! and allocates only the returned [`Assignment`]. Below both sit the
//! crate-internal `*_solve` kernels, which leave the assignment in the
//! scratch and allocate nothing — the form the GED distance path calls
//! thousands of times per query through the per-thread
//! [`crate::scratch::GedScratch`]. Every buffer is reinitialized to the same
//! values on every solve, so scratch reuse is bit-identical to fresh
//! allocation.
//!
//! Both kernels return the assignment of the classic index-based
//! formulations, tie choices included, which `tests/kernel_equivalence.rs`
//! keeps as frozen references and compares on `row_to_col`, not just cost.
//! LAPJV walks the same cells in the same order as its reference, minus the
//! per-cell index arithmetic. The Hungarian kernel does less work than its
//! reference for the same result: it skips the dual update of a step whose
//! minimum reduced cost `δ` is 0, takes that step's column from a bitset of
//! zero-cost columns instead of an argmin scan, and on a Riesen–Bunke matrix
//! relaxes only the finite cells of a row (see [`hungarian`] for why each of
//! these returns the reference's assignment).

use std::ops::Range;

/// A square cost matrix stored row-major.
#[derive(Debug, Clone, Default)]
pub struct CostMatrix {
    n: usize,
    data: Vec<f64>,
    layout: Layout,
}

/// Which cells of a [`CostMatrix`] the Hungarian kernel relaxes.
#[derive(Debug, Clone, Copy, Default)]
enum Layout {
    /// Every cell (any square matrix).
    #[default]
    Dense,
    /// The Riesen–Bunke matrix of an `n1`-node and an `n2`-node graph,
    /// exactly as [`crate::bipartite::rb_cost_matrix_into`] left it: only
    /// its finite cells.
    RiesenBunke { n1: usize, n2: usize },
}

impl Layout {
    /// The 0-based columns of row `r`'s cells to relax, as two ranges.
    #[inline]
    fn cols(self, r: usize, n: usize) -> [Range<usize>; 2] {
        match self {
            Layout::Dense => [0..n, n..n],
            // Substitutions, then the row's own deletion cell.
            Layout::RiesenBunke { n1, n2 } if r < n1 => [0..n2, n2 + r..n2 + r + 1],
            // An ε-row: its insertion cell, then the zero ε/ε block.
            Layout::RiesenBunke { n1, n2 } => [r - n1..r - n1 + 1, n2..n],
        }
    }
}

impl CostMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        CostMatrix {
            n,
            data: vec![0.0; n * n],
            layout: Layout::Dense,
        }
    }

    /// Creates from a row-major vector. Panics if `data.len() != n * n`.
    pub fn from_vec(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n);
        CostMatrix {
            n,
            data,
            layout: Layout::Dense,
        }
    }

    /// Resets to an `n × n` zero matrix, reusing the existing allocation.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.layout = Layout::Dense;
        self.data.clear();
        self.data.resize(n * n, 0.0);
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cost of assigning row `i` to column `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets the cost of assigning row `i` to column `j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.layout = Layout::Dense;
        self.data[i * self.n + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        self.layout = Layout::Dense;
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// Declares this matrix the Riesen–Bunke matrix of an `n1`-node and an
    /// `n2`-node graph. Only the builder calls it, after its last write;
    /// any later `set` or `row_mut` withdraws the claim.
    pub(crate) fn mark_riesen_bunke(&mut self, n1: usize, n2: usize) {
        debug_assert_eq!(self.n, n1 + n2);
        self.layout = Layout::RiesenBunke { n1, n2 };
    }
}

/// An optimal assignment: `row_to_col[i]` is the column assigned to row `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    pub row_to_col: Vec<usize>,
    pub cost: f64,
}

/// Reusable working arrays for [`hungarian_with`] and [`lapjv_with`].
///
/// Every buffer is fully reinitialized at the start of each solve, so a
/// scratch carries no state between calls — only capacity.
#[derive(Debug, Default)]
pub struct AssignScratch {
    /// The last solve's assignment (row -> column).
    row_to_col: Vec<usize>,
    // Hungarian (1-based arrays of length n + 1).
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    zeros: ColumnBits,
    // LAPJV.
    y: Vec<usize>,
    vv: Vec<f64>,
    free: Vec<usize>,
    next_free: Vec<usize>,
    d: Vec<f64>,
    pred: Vec<usize>,
    done: Vec<bool>,
    ready: Vec<usize>,
}

impl AssignScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// The assignment left by the last `*_solve` call.
    pub(crate) fn row_to_col(&self) -> &[usize] {
        &self.row_to_col
    }

    /// The last solve's assignment as an owned [`Assignment`] (cost summed
    /// in row order).
    fn to_assignment(&self, c: &CostMatrix) -> Assignment {
        let row_to_col = self.row_to_col.clone();
        // A fold from +0.0, not `sum()`: an empty f64 sum is -0.0, and the
        // cost of the empty assignment has always been +0.0.
        let cost = row_to_col
            .iter()
            .enumerate()
            .fold(0.0, |acc, (i, &j)| acc + c.get(i, j));
        Assignment { row_to_col, cost }
    }
}

/// A set of 1-based Hungarian columns `0..=n`, one bit each.
#[derive(Debug, Default)]
struct ColumnBits(Vec<u64>);

impl ColumnBits {
    /// Empties the set and sizes it for columns `0..=n`.
    fn reset(&mut self, n: usize) {
        refill(&mut self.0, n / 64 + 1, 0);
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    #[inline]
    fn insert(&mut self, j: usize) {
        self.0[j / 64] |= 1 << (j % 64);
    }

    #[inline]
    fn remove(&mut self, j: usize) {
        self.0[j / 64] &= !(1 << (j % 64));
    }

    /// The lowest column in the set.
    #[inline]
    fn first(&self) -> Option<usize> {
        let (w, &bits) = self.0.iter().enumerate().find(|(_, &b)| b != 0)?;
        Some(w * 64 + bits.trailing_zeros() as usize)
    }
}

/// Clears and refills `buf` with `len` copies of `val` (the scratch
/// equivalent of `vec![val; len]`).
#[inline]
fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, val: T) {
    buf.clear();
    buf.resize(len, val);
}

/// Kuhn–Munkres with potentials (the classic O(n³) "Hungarian algorithm").
///
/// Follows the standard formulation with row potentials `u`, column
/// potentials `v`, and one Dijkstra-like augmentation per row: each step
/// relaxes the reduced costs `c[i0][j] − u[i0] − v[j]` of the row `i0` that
/// entered the tree into `minv`, takes the first unused column `j1` of least
/// `minv` (`δ`), and shifts the tree's potentials and the other columns'
/// `minv` by `δ`. The returned assignment is that formulation's, tie
/// choices included, although three kinds of work are skipped:
///
/// * **A step with `δ = 0` updates nothing.** Adding or subtracting zero
///   changes at most the sign of a zero, which no comparison reads and which
///   cannot make any nonzero result differ.
/// * **Its column comes from a bitset.** The kernel keeps the set of unused
///   columns whose `minv` is exactly 0, and a flag that is raised when a
///   relaxation stores a negative `minv`. While the flag is down, every
///   unused `minv` is ≥ 0, so a nonempty set means `δ = 0` and its lowest
///   member is the first column the argmin would pick. Otherwise the kernel
///   runs the full argmin and update, after which every unused `minv` is
///   ≥ 0 (IEEE rounding is monotone, so `m − δ` rounds to ≥ 0 when
///   `m ≥ δ`), and
///   rebuilds the set. This holds for any matrix, negative and fractional
///   entries included.
/// * **On a Riesen–Bunke matrix only finite cells are relaxed.** That is a
///   matrix [`crate::bipartite::rb_cost_matrix`] built and no `set` or
///   `row_mut` changed since. Its finite cells are a real row's
///   substitution cells and its own deletion cell, and an ε-row's
///   insertion cell and the ε/ε block. The
///   others hold `forbid`, and a value derived from one never wins an
///   argmin before the augmenting path ends. The matrix is nonnegative and
///   integer-valued, so the solver's arithmetic is exact. Rows enter in
///   order, and taking the first `k` rows to their own deletion or
///   insertion cells is a feasible partial assignment of cost at most
///   `S = Σ(1 + deg)` over both graphs. So the optimal partial cost, which
///   is the sum of every `δ` so far, never exceeds `S`. Hence `0 ≤ u ≤ S`
///   and `−S ≤ v ≤ 0` throughout, and every column a step picks lies at
///   distance ≤ `S` from the row being added. A `forbid` cell relaxes to a
///   distance ≥ `forbid − S`, and `forbid > 2S` by construction. So such a
///   column is never picked while its smallest value comes from a `forbid`
///   cell. Skipping those cells only raises the `minv` of columns that are
///   not picked; the columns that are picked keep their value and `way`.
pub fn hungarian(c: &CostMatrix) -> Assignment {
    hungarian_with(c, &mut AssignScratch::new())
}

/// [`hungarian`] reusing the caller's scratch buffers. Bit-identical to the
/// allocating form.
pub fn hungarian_with(c: &CostMatrix, s: &mut AssignScratch) -> Assignment {
    hungarian_solve(c, s);
    s.to_assignment(c)
}

/// The Hungarian kernel: leaves the optimal assignment in
/// [`AssignScratch::row_to_col`] and allocates nothing once the scratch has
/// grown to `n`.
pub(crate) fn hungarian_solve(c: &CostMatrix, s: &mut AssignScratch) {
    let n = c.n();
    const INF: f64 = f64::INFINITY;
    // 1-based internally per the classic formulation; p[j] = row matched to
    // column j (0 = none).
    refill(&mut s.u, n + 1, 0.0);
    refill(&mut s.v, n + 1, 0.0);
    refill(&mut s.p, n + 1, 0);
    refill(&mut s.way, n + 1, 0);
    refill(&mut s.row_to_col, n, 0);
    let AssignScratch {
        row_to_col,
        u,
        v,
        p,
        way,
        minv,
        used,
        zeros,
        ..
    } = s;

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        refill(minv, n + 1, INF);
        refill(used, n + 1, false);
        // The unused columns whose `minv` is 0, valid while no negative
        // `minv` has been stored since it was last rebuilt.
        zeros.reset(n);
        let mut negative = false;
        loop {
            used[j0] = true;
            zeros.remove(j0);
            let i0 = p[j0];
            let ui0 = u[i0];
            let row = c.row(i0 - 1);
            for cols in c.layout.cols(i0 - 1, n) {
                let (lo, hi) = (cols.start + 1, cols.end + 1);
                let cells = row[cols]
                    .iter()
                    .zip(&v[lo..hi])
                    .zip(&mut minv[lo..hi])
                    .zip(&mut way[lo..hi])
                    .zip(&used[lo..hi]);
                for (k, ((((&cij, &vj), minv_j), way_j), &used_j)) in cells.enumerate() {
                    // One branch on both conditions: cheaper than two on
                    // the unpredictable mix of used and improvable columns.
                    let cur = cij - ui0 - vj;
                    if !used_j & (cur < *minv_j) {
                        *minv_j = cur;
                        *way_j = j0;
                        if cur == 0.0 {
                            zeros.insert(lo + k);
                        } else if cur < 0.0 {
                            negative = true;
                        }
                    }
                }
            }
            j0 = match zeros.first() {
                // δ = 0: the potentials and `minv` stay as they are.
                Some(j1) if !negative => j1,
                // Here δ ≠ 0: a raised flag means an unused column holds a
                // negative `minv`; an empty set under a lowered one, that
                // none holds 0.
                _ => {
                    let mut delta = INF;
                    let mut j1 = 0usize;
                    for (j, (&minv_j, &used_j)) in minv.iter().zip(used.iter()).enumerate() {
                        if !used_j && minv_j < delta {
                            delta = minv_j;
                            j1 = j;
                        }
                    }
                    zeros.clear();
                    negative = false;
                    let cols = used
                        .iter()
                        .zip(p.iter())
                        .zip(v.iter_mut())
                        .zip(minv.iter_mut());
                    for (j, (((&used_j, &pj), vj), minv_j)) in cols.enumerate() {
                        if used_j {
                            u[pj] += delta;
                            *vj -= delta;
                        } else {
                            *minv_j -= delta;
                            if *minv_j == 0.0 {
                                zeros.insert(j);
                            } else if *minv_j < 0.0 {
                                negative = true;
                            }
                        }
                    }
                    j1
                }
            };
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    for (j, &pj) in p.iter().enumerate().skip(1) {
        if pj > 0 {
            row_to_col[pj - 1] = j - 1;
        }
    }
}

/// Jonker–Volgenant LAPJV.
///
/// Column reduction and augmenting row reduction resolve most rows without
/// search; the remaining free rows are matched with shortest augmenting
/// paths over the reduced costs.
pub fn lapjv(c: &CostMatrix) -> Assignment {
    lapjv_with(c, &mut AssignScratch::new())
}

/// [`lapjv`] reusing the caller's scratch buffers. Bit-identical to the
/// allocating form.
pub fn lapjv_with(c: &CostMatrix, s: &mut AssignScratch) -> Assignment {
    lapjv_solve(c, s);
    s.to_assignment(c)
}

/// The LAPJV kernel: leaves the optimal assignment in
/// [`AssignScratch::row_to_col`] and allocates nothing once the scratch has
/// grown to `n`.
pub(crate) fn lapjv_solve(c: &CostMatrix, s: &mut AssignScratch) {
    let n = c.n();
    const INF: f64 = f64::INFINITY;
    refill(&mut s.row_to_col, n, usize::MAX); // row -> col
    refill(&mut s.y, n, usize::MAX); // col -> row
    refill(&mut s.vv, n, 0.0); // column potentials
    let AssignScratch {
        row_to_col: x,
        y,
        vv,
        free,
        next_free,
        d,
        pred,
        done,
        ready,
        ..
    } = s;

    // --- Column reduction (scan columns right-to-left). ---
    for j in (0..n).rev() {
        let mut imin = 0usize;
        let mut min = c.get(0, j);
        for i in 1..n {
            let cij = c.get(i, j);
            if cij < min {
                min = cij;
                imin = i;
            }
        }
        vv[j] = min;
        if x[imin] == usize::MAX {
            x[imin] = j;
            y[j] = imin;
        }
    }

    // --- Augmenting row reduction (two passes over unassigned rows). ---
    free.clear();
    free.extend((0..n).filter(|&i| x[i] == usize::MAX));
    for _ in 0..2 {
        next_free.clear();
        for &i in free.iter() {
            // Find the two smallest reduced costs in row i.
            let row = c.row(i);
            let mut u1 = row[0] - vv[0];
            let mut u2 = INF;
            let mut j1 = 0usize;
            let mut j2 = usize::MAX;
            for (j, (&cij, &vj)) in row.iter().zip(vv.iter()).enumerate().skip(1) {
                let h = cij - vj;
                if h < u2 {
                    if h < u1 {
                        u2 = u1;
                        j2 = j1;
                        u1 = h;
                        j1 = j;
                    } else {
                        u2 = h;
                        j2 = j;
                    }
                }
            }
            let mut jbest = j1;
            let i0 = y[jbest];
            if u1 < u2 {
                vv[jbest] -= u2 - u1;
            } else if i0 != usize::MAX {
                if j2 == usize::MAX {
                    // No alternative column; leave potentials as-is and fall
                    // through to the augmentation phase for this row.
                    next_free.push(i);
                    continue;
                }
                jbest = j2;
            }
            x[i] = jbest;
            let prev = y[jbest];
            y[jbest] = i;
            if prev != usize::MAX {
                // prev row becomes free and is retried in the next pass.
                next_free.push(prev);
                x[prev] = usize::MAX;
            }
        }
        std::mem::swap(free, next_free);
        if free.is_empty() {
            break;
        }
    }

    // --- Augmentation: shortest augmenting path for each remaining row. ---
    for &f in free.iter() {
        d.clear();
        d.extend(c.row(f).iter().zip(vv.iter()).map(|(&cfj, &vj)| cfj - vj));
        refill(pred, n, f);
        refill(done, n, false);
        ready.clear();
        let endj;
        loop {
            // Find nearest unscanned column.
            let mut jmin = usize::MAX;
            let mut dmin = INF;
            for (j, (&dj, &done_j)) in d.iter().zip(done.iter()).enumerate() {
                if !done_j && dj < dmin {
                    dmin = dj;
                    jmin = j;
                }
            }
            debug_assert!(jmin != usize::MAX, "LAPJV: no reachable column");
            done[jmin] = true;
            ready.push(jmin);
            if y[jmin] == usize::MAX {
                endj = jmin;
                // Update potentials for scanned columns.
                for &j in ready.iter() {
                    if j != jmin {
                        vv[j] += d[j] - dmin;
                    }
                }
                break;
            }
            // Relax through the row matched to jmin.
            let i = y[jmin];
            let row = c.row(i);
            let red_min = row[jmin] - vv[jmin];
            let cols = row
                .iter()
                .zip(vv.iter())
                .zip(d.iter_mut())
                .zip(pred.iter_mut())
                .zip(done.iter());
            for ((((&cij, &vj), dj), pred_j), &done_j) in cols {
                if !done_j {
                    let nd = dmin + cij - vj - red_min;
                    if nd < *dj {
                        *dj = nd;
                        *pred_j = i;
                    }
                }
            }
        }
        // Augment along the alternating path.
        let mut j = endj;
        loop {
            let i = pred[j];
            y[j] = i;
            std::mem::swap(&mut x[i], &mut j);
            if j == usize::MAX {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force optimum by permutation enumeration (n <= 8).
    fn brute(c: &CostMatrix) -> f64 {
        fn rec(c: &CostMatrix, i: usize, used: &mut [bool], acc: f64, best: &mut f64) {
            if i == c.n() {
                *best = best.min(acc);
                return;
            }
            if acc >= *best {
                return;
            }
            for j in 0..c.n() {
                if !used[j] {
                    used[j] = true;
                    rec(c, i + 1, used, acc + c.get(i, j), best);
                    used[j] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(c, 0, &mut vec![false; c.n()], 0.0, &mut best);
        best
    }

    fn random_matrix(rng: &mut StdRng, n: usize) -> CostMatrix {
        let data: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0..100) as f64).collect();
        CostMatrix::from_vec(n, data)
    }

    fn assert_valid(a: &Assignment, n: usize) {
        let mut seen = vec![false; n];
        for &j in &a.row_to_col {
            assert!(j < n);
            assert!(!seen[j], "column assigned twice");
            seen[j] = true;
        }
    }

    #[test]
    fn empty_matrix() {
        let c = CostMatrix::zeros(0);
        assert_eq!(hungarian(&c).cost, 0.0);
        assert_eq!(lapjv(&c).cost, 0.0);
    }

    #[test]
    fn one_by_one() {
        let c = CostMatrix::from_vec(1, vec![7.0]);
        assert_eq!(hungarian(&c).cost, 7.0);
        assert_eq!(lapjv(&c).cost, 7.0);
    }

    #[test]
    fn known_small_case() {
        // Classic 3x3 with optimum 5 (1 + 2 + 2 along the anti-diagonal-ish).
        let c = CostMatrix::from_vec(3, vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0]);
        let h = hungarian(&c);
        let j = lapjv(&c);
        assert_eq!(h.cost, 5.0);
        assert_eq!(j.cost, 5.0);
        assert_valid(&h, 3);
        assert_valid(&j, 3);
    }

    #[test]
    fn identity_is_optimal_for_diagonal_zero() {
        let n = 5;
        let mut c = CostMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                c.set(i, j, if i == j { 0.0 } else { 10.0 });
            }
        }
        assert_eq!(hungarian(&c).cost, 0.0);
        assert_eq!(lapjv(&c).cost, 0.0);
    }

    #[test]
    fn agrees_with_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in 2..=7 {
            for _ in 0..25 {
                let c = random_matrix(&mut rng, n);
                let want = brute(&c);
                let h = hungarian(&c);
                let j = lapjv(&c);
                assert_eq!(h.cost, want, "hungarian wrong on n={n}");
                assert_eq!(j.cost, want, "lapjv wrong on n={n}");
                assert_valid(&h, n);
                assert_valid(&j, n);
            }
        }
    }

    #[test]
    fn solvers_agree_on_larger_random() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let c = random_matrix(&mut rng, 40);
            let h = hungarian(&c);
            let j = lapjv(&c);
            assert!((h.cost - j.cost).abs() < 1e-9, "{} vs {}", h.cost, j.cost);
            assert_valid(&h, 40);
            assert_valid(&j, 40);
        }
    }

    #[test]
    fn handles_infinities_as_forbidden() {
        // One forbidden cell off the only remaining feasible permutation.
        let big = 1e18;
        let c = CostMatrix::from_vec(2, vec![big, 1.0, 2.0, big]);
        assert_eq!(hungarian(&c).cost, 3.0);
        assert_eq!(lapjv(&c).cost, 3.0);
    }

    #[test]
    fn ties_still_optimal() {
        let c = CostMatrix::from_vec(3, vec![1.0; 9]);
        assert_eq!(hungarian(&c).cost, 3.0);
        assert_eq!(lapjv(&c).cost, 3.0);
    }

    #[test]
    fn reused_scratch_is_bit_identical() {
        // One long-lived scratch across a mixed-size workload must produce
        // exactly the outputs of the allocating path — including assignment
        // choice on ties, not just cost.
        let mut rng = StdRng::seed_from_u64(13);
        let mut scratch = AssignScratch::new();
        for _ in 0..40 {
            let n = rng.gen_range(1..=12);
            let c = random_matrix(&mut rng, n);
            let h_fresh = hungarian(&c);
            let h_scr = hungarian_with(&c, &mut scratch);
            assert_eq!(h_fresh, h_scr);
            assert_eq!(h_fresh.cost.to_bits(), h_scr.cost.to_bits());
            let j_fresh = lapjv(&c);
            let j_scr = lapjv_with(&c, &mut scratch);
            assert_eq!(j_fresh, j_scr);
            assert_eq!(j_fresh.cost.to_bits(), j_scr.cost.to_bits());
        }
    }
}
