//! The candidate pool `W` shared by both routers, with the paper's exact
//! resize tie-breaking (§III-B):
//!
//! ordered by ascending distance; on equal distance an unexplored node
//! outranks an explored one; two explored nodes rank by recency of
//! exploration (most recent first); two unexplored nodes rank by smaller id.

use std::collections::HashSet;

/// Global per-query exploration bookkeeping shared by pool ordering and the
/// routers.
#[derive(Debug, Default)]
pub struct RouterState {
    explored: HashSet<u32>,
    /// Exploration timestamps (sequence numbers), for the recency tie-break.
    seq: std::collections::HashMap<u32, u64>,
    next_seq: u64,
    /// Nodes in exploration order.
    pub order: Vec<u32>,
}

impl RouterState {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_explored(&self, id: u32) -> bool {
        self.explored.contains(&id)
    }

    pub fn mark_explored(&mut self, id: u32) {
        if self.explored.insert(id) {
            self.seq.insert(id, self.next_seq);
            self.next_seq += 1;
            self.order.push(id);
        }
    }

    fn seq_of(&self, id: u32) -> u64 {
        self.seq.get(&id).copied().unwrap_or(0)
    }
}

/// One pool entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolEntry {
    pub id: u32,
    pub dist: f64,
}

/// The candidate pool `W`.
#[derive(Debug, Default)]
pub struct Pool {
    entries: Vec<PoolEntry>,
    ids: HashSet<u32>,
}

impl Pool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `(dist, id)` unless the node is already pooled.
    pub fn add(&mut self, id: u32, dist: f64) {
        if self.ids.insert(id) {
            self.entries.push(PoolEntry { id, dist });
        }
    }

    /// Whether the node is currently in the pool.
    pub fn contains(&self, id: u32) -> bool {
        self.ids.contains(&id)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The paper's resize: order by the tie-breaking comparator, keep the
    /// best `b`.
    pub fn resize(&mut self, b: usize, state: &RouterState) {
        self.sort(state);
        if self.entries.len() > b {
            self.entries.truncate(b);
            self.ids = self.entries.iter().map(|e| e.id).collect();
        }
    }

    // All pool comparators use `f64::total_cmp`, not `partial_cmp` with an
    // `Equal` fallback: a NaN distance (a buggy or faulted metric) would
    // otherwise compare Equal to *everything*, making the sort order
    // depend on the input permutation — and the parallel==sequential
    // equivalence guarantees flake. Under total_cmp NaN orders after
    // +inf, deterministically (and -0.0 < 0.0 cannot matter: GED ≥ 0).
    fn sort(&mut self, state: &RouterState) {
        self.entries.sort_by(|a, b| {
            a.dist.total_cmp(&b.dist).then_with(|| {
                let ea = state.is_explored(a.id);
                let eb = state.is_explored(b.id);
                match (ea, eb) {
                    (false, true) => std::cmp::Ordering::Less,
                    (true, false) => std::cmp::Ordering::Greater,
                    (true, true) => state.seq_of(b.id).cmp(&state.seq_of(a.id)),
                    (false, false) => a.id.cmp(&b.id),
                }
            })
        });
    }

    /// The unexplored entry with the smallest `(dist, id)` (baseline line 6).
    pub fn min_unexplored(&self, state: &RouterState) -> Option<PoolEntry> {
        self.entries
            .iter()
            .filter(|e| !state.is_explored(e.id))
            .min_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)))
            .copied()
    }

    /// The unexplored entry with the smallest `(dist, id)` among those with
    /// `dist <= gamma` (np_route stage-2 inner loop).
    pub fn min_unexplored_within(&self, gamma: f64, state: &RouterState) -> Option<PoolEntry> {
        self.entries
            .iter()
            .filter(|e| !state.is_explored(e.id) && e.dist <= gamma)
            .min_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)))
            .copied()
    }

    /// The entry with the smallest `(dist, id)` regardless of exploration.
    pub fn min_entry(&self) -> Option<PoolEntry> {
        self.entries
            .iter()
            .min_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)))
            .copied()
    }

    /// True when every pooled node has been explored.
    pub fn all_explored(&self, state: &RouterState) -> bool {
        self.entries.iter().all(|e| state.is_explored(e.id))
    }

    /// The `k` best entries by `(dist, id)`.
    pub fn top_k(&self, k: usize) -> Vec<PoolEntry> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_dedups() {
        let mut w = Pool::new();
        w.add(1, 5.0);
        w.add(1, 7.0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn resize_prefers_unexplored_on_tie() {
        let mut w = Pool::new();
        let mut s = RouterState::new();
        w.add(1, 3.0);
        w.add(2, 3.0);
        s.mark_explored(1);
        w.resize(1, &s);
        assert_eq!(w.top_k(1)[0].id, 2);
    }

    #[test]
    fn resize_prefers_recent_explored_on_tie() {
        let mut w = Pool::new();
        let mut s = RouterState::new();
        w.add(1, 3.0);
        w.add(2, 3.0);
        s.mark_explored(1);
        s.mark_explored(2);
        w.resize(1, &s);
        assert_eq!(w.top_k(1)[0].id, 2); // 2 explored more recently
    }

    #[test]
    fn resize_prefers_smaller_id_unexplored() {
        let mut w = Pool::new();
        let s = RouterState::new();
        w.add(7, 3.0);
        w.add(2, 3.0);
        w.resize(1, &s);
        assert_eq!(w.top_k(1)[0].id, 2);
    }

    #[test]
    fn min_unexplored_and_within() {
        let mut w = Pool::new();
        let mut s = RouterState::new();
        w.add(1, 5.0);
        w.add(2, 2.0);
        w.add(3, 8.0);
        s.mark_explored(2);
        assert_eq!(w.min_unexplored(&s).unwrap().id, 1);
        assert_eq!(w.min_unexplored_within(4.9, &s), None);
        assert_eq!(w.min_unexplored_within(5.0, &s).unwrap().id, 1);
        assert_eq!(w.min_entry().unwrap().id, 2);
        assert!(!w.all_explored(&s));
        s.mark_explored(1);
        s.mark_explored(3);
        assert!(w.all_explored(&s));
    }

    #[test]
    fn top_k_sorted() {
        let mut w = Pool::new();
        w.add(1, 5.0);
        w.add(2, 2.0);
        w.add(3, 8.0);
        let t = w.top_k(2);
        assert_eq!(t[0].id, 2);
        assert_eq!(t[1].id, 1);
    }

    #[test]
    fn nan_distances_order_last_and_deterministically() {
        // A NaN distance must not scramble the order of the finite
        // entries (with partial_cmp-or-Equal it compared Equal to every
        // neighbor, so the result depended on insertion order).
        let mut w = Pool::new();
        let s = RouterState::new();
        w.add(4, f64::NAN);
        w.add(1, 5.0);
        w.add(9, f64::NAN);
        w.add(2, 2.0);
        w.add(3, f64::INFINITY);
        let t = w.top_k(5);
        let ids: Vec<u32> = t.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 1, 3, 4, 9]); // NaN after +inf, then by id
        assert_eq!(w.min_entry().unwrap().id, 2);
        assert_eq!(w.min_unexplored(&s).unwrap().id, 2);
        // Resize keeps the finite entries, dropping the NaNs first.
        w.resize(3, &s);
        let kept: Vec<u32> = w.top_k(5).iter().map(|e| e.id).collect();
        assert_eq!(kept, vec![2, 1, 3]);
    }

    #[test]
    fn exploration_order_recorded() {
        let mut s = RouterState::new();
        s.mark_explored(5);
        s.mark_explored(3);
        s.mark_explored(5); // idempotent
        assert_eq!(s.order, vec![5, 3]);
    }
}
