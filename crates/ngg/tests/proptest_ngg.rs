//! Property-based tests for n-gram graphs and their similarities.

use pharmaverify_ngg::{ClassGraph, GramTable, GraphSimilarities, NGramGraph, NGramGraphBuilder};
use proptest::prelude::*;

fn text() -> impl Strategy<Value = String> {
    "[a-d ]{0,60}"
}

proptest! {
    /// Graph construction never panics; node/edge counts are consistent
    /// with the text length.
    #[test]
    fn builder_counts(input in ".{0,120}") {
        let b = NGramGraphBuilder::default();
        let g = b.build(&input, &mut GramTable::default());
        let n_chars = input.chars().count();
        if n_chars < b.rank() {
            prop_assert!(g.is_empty());
            prop_assert_eq!(g.node_count(), 0);
        } else {
            let n_grams = n_chars - b.rank() + 1;
            prop_assert!(g.node_count() <= n_grams);
            prop_assert!(g.edge_count() <= n_grams.saturating_mul(b.window()));
        }
    }

    /// Total edge weight equals the number of in-window gram pairs.
    #[test]
    fn total_weight_counts_pairs(input in "[ab]{0,40}") {
        let b = NGramGraphBuilder::new(1, 2);
        let g = b.build(&input, &mut GramTable::default());
        let n = input.chars().count();
        let expected: usize = (0..n).map(|p| ((p + 2).min(n.saturating_sub(1))).saturating_sub(p)).sum();
        let total: f64 = g.edges().iter().map(|e| e.1).sum();
        prop_assert!((total - expected as f64).abs() < 1e-9);
    }

    /// All similarity measures are bounded: CS, SS, VS in [0, 1]; NVS
    /// non-negative; and self-similarity is exactly 1 on every axis.
    #[test]
    fn similarities_bounded(a in text(), b in text()) {
        let builder = NGramGraphBuilder::new(2, 2);
        let mut grams = GramTable::default();
        let ga = builder.build(&a, &mut grams);
        let gb = builder.build(&b, &mut grams);
        let s = GraphSimilarities::compute(&ga, &ClassGraph::average([&gb]));
        prop_assert!((0.0..=1.0).contains(&s.cs), "cs = {}", s.cs);
        prop_assert!((0.0..=1.0).contains(&s.ss), "ss = {}", s.ss);
        prop_assert!((0.0..=1.0).contains(&s.vs), "vs = {}", s.vs);
        prop_assert!(s.nvs >= 0.0);

        let own = GraphSimilarities::compute(&ga, &ClassGraph::average([&ga]));
        prop_assert_eq!(own.cs, 1.0);
        prop_assert_eq!(own.ss, 1.0);
        prop_assert_eq!(own.vs, 1.0);
        prop_assert_eq!(own.nvs, 1.0);
    }

    /// Size similarity is symmetric between the two sides.
    #[test]
    fn ss_symmetric(a in text(), b in text()) {
        let builder = NGramGraphBuilder::new(2, 2);
        let mut grams = GramTable::default();
        let ga = builder.build(&a, &mut grams);
        let gb = builder.build(&b, &mut grams);
        let ab = GraphSimilarities::compute(&ga, &ClassGraph::average([&gb]));
        let ba = GraphSimilarities::compute(&gb, &ClassGraph::average([&ga]));
        prop_assert!((ab.ss - ba.ss).abs() < 1e-12);
    }

    /// Class-graph averaging: every edge weight is the arithmetic mean of
    /// that edge's weight across the merged documents.
    #[test]
    fn class_graph_is_mean(docs in prop::collection::vec("[ab]{2,12}", 1..5)) {
        let builder = NGramGraphBuilder::new(1, 1);
        let mut grams = GramTable::default();
        let graphs: Vec<_> = docs.iter().map(|d| builder.build(d, &mut grams)).collect();
        let class = ClassGraph::average(graphs.iter());
        let mut union: Vec<u64> = graphs.iter().flat_map(|g| g.edges().iter().map(|e| e.0)).collect();
        union.sort_unstable();
        union.dedup();
        prop_assert_eq!(class.edge_count(), union.len());
        for key in union {
            let weight = |g: &NGramGraph| g.edges().iter().find(|e| e.0 == key).map_or(0.0, |e| e.1);
            let mean: f64 = graphs.iter().map(weight).sum::<f64>()
                / graphs.len() as f64;
            let w = class.weight(key).unwrap_or(f64::NAN);
            prop_assert!((w - mean).abs() < 1e-9, "{key:#x}: {w} vs {mean}");
        }
    }
}
