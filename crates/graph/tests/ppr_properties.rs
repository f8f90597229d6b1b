//! Property-based tests for the PPR solvers on random graphs.

use proptest::prelude::*;
use tcss_graph::{bookmark_coloring, personalized_pagerank, PprConfig, SocialGraph};

fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    (3usize..12).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..24)
            .prop_map(move |edges| SocialGraph::from_edges(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PPR is a probability distribution from any source on any graph.
    #[test]
    fn ppr_is_a_distribution(g in graph_strategy(), src_raw in 0usize..12) {
        let src = src_raw % g.len();
        let p = personalized_pagerank(&g, src, &PprConfig::default());
        prop_assert!(p.iter().all(|&v| v >= -1e-12));
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    /// Bookmark colouring agrees with power iteration on any graph.
    #[test]
    fn bca_agrees_with_power_iteration(g in graph_strategy(), src_raw in 0usize..12) {
        let src = src_raw % g.len();
        let cfg = PprConfig { tol: 1e-11, ..Default::default() };
        let exact = personalized_pagerank(&g, src, &cfg);
        let approx = bookmark_coloring(&g, src, &cfg);
        for (a, b) in exact.iter().zip(approx.iter()) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    /// Mass at the source is at least α (the walk restarts there).
    #[test]
    fn source_keeps_at_least_alpha(g in graph_strategy(), src_raw in 0usize..12) {
        let src = src_raw % g.len();
        let cfg = PprConfig::default();
        let p = personalized_pagerank(&g, src, &cfg);
        prop_assert!(p[src] >= cfg.alpha - 1e-9, "p[src] = {}", p[src]);
    }

    /// Unreachable nodes receive zero mass.
    #[test]
    fn unreachable_nodes_get_nothing(edges in proptest::collection::vec((0usize..4, 0usize..4), 0..8)) {
        // Nodes 0..4 may connect among themselves; nodes 4..6 are isolated.
        let g = SocialGraph::from_edges(6, edges);
        let p = personalized_pagerank(&g, 0, &PprConfig::default());
        prop_assert_eq!(p[4], 0.0);
        prop_assert_eq!(p[5], 0.0);
    }

    /// Graph invariant: degree sums equal twice the edge count.
    #[test]
    fn graph_invariants(g in graph_strategy()) {
        let degree_sum: usize = (0..g.len()).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }
}
