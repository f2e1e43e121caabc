//! Shared approximation-quality accounting for neighbor search.
//!
//! One definition serves every consumer — the Fig. 6 harness, the Fig. 15a
//! sweep, and the online auditors of [`crate::audit`] — so the false
//! neighbor ratio and recall@k can never drift apart: they are two views of
//! the same count, `recall@k = 1 − false_neighbor_ratio`.

/// Aggregated neighbor-quality counts from comparing an approximate search
/// result against the exact one, query by query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborQuality {
    /// Number of queries compared.
    pub queries: usize,
    /// Total neighbors the approximate searcher reported (`queries × k`
    /// when every list is full).
    pub reported: usize,
    /// Reported neighbors the exact searcher does *not* list.
    pub false_neighbors: usize,
}

impl NeighborQuality {
    /// The paper's false-neighbor ratio (Fig. 6): the fraction of reported
    /// neighbors that are false, over all queries. 0.0 = perfect.
    pub fn false_neighbor_ratio(&self) -> f64 {
        self.false_neighbors as f64 / self.reported as f64
    }

    /// Recall@k, the complement view: the fraction of reported neighbors
    /// that the exact searcher agrees with (`1 − false_neighbor_ratio`).
    pub fn recall_at_k(&self) -> f64 {
        1.0 - self.false_neighbor_ratio()
    }

    /// Folds another comparison's counts into this one.
    pub fn merge(&mut self, other: NeighborQuality) {
        self.queries += other.queries;
        self.reported += other.reported;
        self.false_neighbors += other.false_neighbors;
    }
}

/// Compares approximate neighbor lists against exact ones and returns the
/// aggregated counts. Membership is order-independent within each list;
/// padding duplicates in `approx` are counted once each, matching the
/// ratio's original definition.
///
/// # Panics
///
/// Panics if the two results have different query counts, or are empty.
pub fn neighbor_quality(approx: &[Vec<usize>], exact: &[Vec<usize>]) -> NeighborQuality {
    assert_eq!(approx.len(), exact.len(), "query counts differ");
    assert!(!approx.is_empty(), "no queries");
    let mut q = NeighborQuality {
        queries: approx.len(),
        reported: 0,
        false_neighbors: 0,
    };
    let mut truth: Vec<usize> = Vec::new();
    for (a, e) in approx.iter().zip(exact) {
        truth.clear();
        truth.extend_from_slice(e);
        truth.sort_unstable();
        for n in a {
            q.reported += 1;
            if truth.binary_search(n).is_err() {
                q.false_neighbors += 1;
            }
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_counts_and_ratios_agree() {
        let approx = vec![vec![1, 9], vec![3, 4]];
        let exact = vec![vec![1, 2], vec![3, 4]];
        let q = neighbor_quality(&approx, &exact);
        assert_eq!(q.queries, 2);
        assert_eq!(q.reported, 4);
        assert_eq!(q.false_neighbors, 1);
        assert_eq!(q.false_neighbor_ratio(), 0.25);
        assert_eq!(q.recall_at_k(), 0.75);
    }

    #[test]
    fn recall_is_complement_of_fnr() {
        let approx = vec![vec![5, 6, 7]];
        let exact = vec![vec![7, 8, 9]];
        let q = neighbor_quality(&approx, &exact);
        assert!((q.recall_at_k() + q.false_neighbor_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = neighbor_quality(&[vec![1]], &[vec![1]]);
        let b = neighbor_quality(&[vec![2], vec![3]], &[vec![9], vec![3]]);
        a.merge(b);
        assert_eq!(a.queries, 3);
        assert_eq!(a.reported, 3);
        assert_eq!(a.false_neighbors, 1);
    }
}
