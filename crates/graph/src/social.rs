//! Undirected social (friendship) graph.

/// An undirected graph over users `0..n`, stored as sorted adjacency lists.
///
/// Self-loops are rejected and duplicate edges are deduplicated — friendship
/// in an LBSN is irreflexive and unweighted.
#[derive(Debug, Clone)]
pub struct SocialGraph {
    adj: Vec<Vec<usize>>,
    n_edges: usize,
}

impl SocialGraph {
    /// An edgeless graph over `n` users.
    pub fn new(n: usize) -> Self {
        SocialGraph {
            adj: vec![Vec::new(); n],
            n_edges: 0,
        }
    }

    /// Build from an edge list; out-of-range endpoints and self-loops are
    /// ignored, duplicates collapse to one edge.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = SocialGraph::new(n);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Number of users (nodes).
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no users.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of (undirected) friendship edges.
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// Add an undirected edge; returns `true` if the edge was new.
    pub fn add_edge(&mut self, a: usize, b: usize) -> bool {
        if a == b || a >= self.adj.len() || b >= self.adj.len() {
            return false;
        }
        match self.adj[a].binary_search(&b) {
            Ok(_) => false,
            Err(pos_a) => {
                self.adj[a].insert(pos_a, b);
                let pos_b = self.adj[b].binary_search(&a).unwrap_err();
                self.adj[b].insert(pos_b, a);
                self.n_edges += 1;
                true
            }
        }
    }

    /// Whether `a` and `b` are friends.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a < self.adj.len() && self.adj[a].binary_search(&b).is_ok()
    }

    /// Sorted friends of user `u`.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Degree (number of friends) of user `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// All edges as `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(a, nbrs)| nbrs.iter().filter(move |&&b| a < b).map(move |&b| (a, b)))
    }

    /// Users with at least one friend (the paper keeps only such users).
    pub fn users_with_friends(&self) -> Vec<usize> {
        (0..self.adj.len())
            .filter(|&u| !self.adj[u].is_empty())
            .collect()
    }

    /// Restrict the graph to a subset of users (given by a sorted mapping
    /// `old → new` encoded as `keep[old] = Some(new)`), dropping all other
    /// nodes and incident edges. Used by dataset preprocessing filters.
    pub fn remap(&self, keep: &[Option<usize>], new_n: usize) -> SocialGraph {
        let mut g = SocialGraph::new(new_n);
        for (a, b) in self.edges() {
            if let (Some(na), Some(nb)) = (keep[a], keep[b]) {
                g.add_edge(na, nb);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_edges() {
        let mut g = SocialGraph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0)); // duplicate
        assert!(!g.add_edge(2, 2)); // self-loop
        assert!(!g.add_edge(0, 9)); // out of range
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = SocialGraph::from_edges(4, vec![(2, 1), (0, 3), (1, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 3), (1, 2)]);
    }

    #[test]
    fn users_with_friends_filters_isolates() {
        let g = SocialGraph::from_edges(4, vec![(1, 3)]);
        assert_eq!(g.users_with_friends(), vec![1, 3]);
    }

    #[test]
    fn remap_drops_and_renumbers() {
        let g = SocialGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        // Keep users 1, 2, 3 as 0, 1, 2.
        let keep = vec![None, Some(0), Some(1), Some(2)];
        let h = g.remap(&keep, 3);
        assert_eq!(h.len(), 3);
        assert!(h.has_edge(0, 1));
        assert!(h.has_edge(1, 2));
        assert!(!h.has_edge(0, 2));
        assert_eq!(h.edge_count(), 2);
    }
}
