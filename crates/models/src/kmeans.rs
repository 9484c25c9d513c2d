//! KMeans clustering (Lloyd's algorithm with k-means++ seeding), used by the
//! optimized neighborhood-model design (paper §V-B2) to restrict `M_nh`
//! predictions to promising clusters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fitted clustering.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// `k × dim` centroids, row-major.
    pub centroids: Vec<Vec<f32>>,
    /// Cluster id of each input point.
    pub assignment: Vec<u32>,
}

fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Index of the centroid nearest to `p`: the first minimum under the IEEE
/// total order, so a NaN distance (a NaN coordinate somewhere) ranks after
/// every finite one instead of comparing "equal" to whatever it meets.
fn nearest_centroid(centroids: &[Vec<f32>], p: &[f32]) -> u32 {
    centroids
        .iter()
        .enumerate()
        .min_by(|a, b| sq_dist(p, a.1).total_cmp(&sq_dist(p, b.1)))
        .map(|(j, _)| j as u32)
        .expect("a fitted clustering has at least one centroid")
}

impl KMeans {
    /// Fits `k` clusters to `points` (each of equal dimension) with at most
    /// `iters` Lloyd iterations. `k` is clamped to the point count.
    pub fn fit(points: &[Vec<f32>], k: usize, iters: usize, seed: u64) -> Self {
        assert!(!points.is_empty(), "cannot cluster an empty set");
        let k = k.clamp(1, points.len());
        let mut rng = StdRng::seed_from_u64(seed);

        // k-means++ seeding.
        let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
        centroids.push(points[rng.gen_range(0..points.len())].clone());
        while centroids.len() < k {
            let d2: Vec<f32> = points
                .iter()
                .map(|p| {
                    centroids
                        .iter()
                        .map(|c| sq_dist(p, c))
                        .fold(f32::INFINITY, f32::min)
                })
                .collect();
            let total: f32 = d2.iter().sum();
            if total <= 0.0 {
                // All points coincide with current centroids; pick any.
                centroids.push(points[rng.gen_range(0..points.len())].clone());
                continue;
            }
            let mut x = rng.gen::<f32>() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                x -= d;
                if x <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            centroids.push(points[chosen].clone());
        }

        let mut assignment = vec![0u32; points.len()];
        for _ in 0..iters {
            let mut moved = false;
            for (i, p) in points.iter().enumerate() {
                let best = nearest_centroid(&centroids, p);
                if assignment[i] != best {
                    assignment[i] = best;
                    moved = true;
                }
            }
            // Recompute centroids.
            let dim = points[0].len();
            let mut sums = vec![vec![0.0f32; dim]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (i, p) in points.iter().enumerate() {
                let c = assignment[i] as usize;
                counts[c] += 1;
                for (s, &x) in sums[c].iter_mut().zip(p) {
                    *s += x;
                }
            }
            for (c, sum) in sums.iter().enumerate() {
                if counts[c] > 0 {
                    centroids[c] = sum.iter().map(|&x| x / counts[c] as f32).collect();
                }
            }
            if !moved {
                break;
            }
        }
        KMeans {
            centroids,
            assignment,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Members of each cluster.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut m = vec![Vec::new(); self.k()];
        for (i, &c) in self.assignment.iter().enumerate() {
            m[c as usize].push(i as u32);
        }
        m
    }

    /// Nearest cluster of an arbitrary point.
    pub fn nearest(&self, p: &[f32]) -> u32 {
        nearest_centroid(&self.centroids, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: f32, n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| vec![center + (i as f32) * 0.01, center])
            .collect()
    }

    #[test]
    fn separates_clear_blobs() {
        let mut pts = blob(0.0, 10);
        pts.extend(blob(10.0, 10));
        let km = KMeans::fit(&pts, 2, 50, 1);
        assert_eq!(km.k(), 2);
        // All of blob 1 in one cluster, blob 2 in the other.
        let c0 = km.assignment[0];
        assert!(km.assignment[..10].iter().all(|&c| c == c0));
        assert!(km.assignment[10..].iter().all(|&c| c != c0));
    }

    #[test]
    fn k_clamped_to_points() {
        let pts = blob(0.0, 3);
        let km = KMeans::fit(&pts, 10, 10, 2);
        assert!(km.k() <= 3);
    }

    #[test]
    fn members_partition() {
        let mut pts = blob(0.0, 5);
        pts.extend(blob(5.0, 5));
        let km = KMeans::fit(&pts, 3, 20, 3);
        let members = km.members();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn nearest_matches_assignment() {
        let mut pts = blob(0.0, 6);
        pts.extend(blob(8.0, 6));
        let km = KMeans::fit(&pts, 2, 30, 4);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(km.nearest(p), km.assignment[i]);
        }
    }

    #[test]
    fn degenerate_identical_points() {
        let pts = vec![vec![1.0, 1.0]; 8];
        let km = KMeans::fit(&pts, 3, 10, 5);
        assert!(km.k() >= 1);
        assert_eq!(km.assignment.len(), 8);
    }

    #[test]
    fn nearest_and_fit_are_nan_safe_and_deterministic() {
        // Regression for the old `partial_cmp(..).unwrap_or(Equal)` minimum:
        // a NaN centroid in front compared "equal" to everything after it
        // and won. The choice must not depend on where the NaN sits.
        let km = |centroids: Vec<Vec<f32>>| KMeans {
            centroids,
            assignment: Vec::new(),
        };
        let (nan, far, near) = (vec![f32::NAN, 0.0], vec![5.0, 5.0], vec![1.0, 1.0]);
        let p = [0.9f32, 0.9];
        assert_eq!(
            km(vec![nan.clone(), far.clone(), near.clone()]).nearest(&p),
            2
        );
        assert_eq!(
            km(vec![near.clone(), nan.clone(), far.clone()]).nearest(&p),
            0
        );
        assert_eq!(km(vec![far, near, nan]).nearest(&p), 1);

        // `fit`: a NaN point poisons at most the centroid of its own
        // cluster; no finite point follows it there.
        let mut pts = vec![vec![f32::NAN, f32::NAN]];
        pts.extend(blob(0.0, 6));
        pts.extend(blob(8.0, 6));
        let a = KMeans::fit(&pts, 3, 30, 4);
        let b = KMeans::fit(&pts, 3, 30, 4);
        assert_eq!(a.assignment, b.assignment);
        let finite = |c: &Vec<f32>| c.iter().all(|v| v.is_finite());
        assert!(a.centroids.iter().any(finite));
        for (i, p) in pts.iter().enumerate().skip(1) {
            assert!(
                finite(&a.centroids[a.assignment[i] as usize]),
                "finite point {i} was assigned to a NaN centroid"
            );
            assert_eq!(a.nearest(p), a.assignment[i]);
        }
    }
}
