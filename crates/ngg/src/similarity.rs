//! Graph similarity measures (§4.1.2).
//!
//! With `|G|` the number of edges of graph `G`, `μ(e, G) = 1` iff edge
//! `e ∈ G`, and `wᵉᵢ` the weight of edge `e` in graph `Gᵢ`:
//!
//! * Containment Similarity `CS(Gᵢ, Gⱼ) = Σ_{e∈Gᵢ} μ(e, Gⱼ) / min(|Gᵢ|, |Gⱼ|)`
//! * Size Similarity `SS(Gᵢ, Gⱼ) = min(|Gᵢ|, |Gⱼ|) / max(|Gᵢ|, |Gⱼ|)`
//! * Value Similarity `VS(Gᵢ, Gⱼ) = Σ_{e∈Gᵢ} (min(wᵉᵢ, wᵉⱼ) / max(wᵉᵢ, wᵉⱼ)) / max(|Gᵢ|, |Gⱼ|)`
//! * Normalized Value Similarity `NVS = VS / SS`
//!
//! Degenerate cases (not defined by the paper) are pinned down here: two
//! empty graphs are identical (all similarities 1); comparing an empty
//! graph with a non-empty one yields 0.

use crate::graph::NGramGraph;
use crate::merge::ClassGraph;

/// All four similarity values between a pair of graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphSimilarities {
    /// Containment similarity — shared-edge proportion.
    pub cs: f64,
    /// Size similarity — edge-count ratio.
    pub ss: f64,
    /// Value similarity — weight-aware shared-edge proportion.
    pub vs: f64,
    /// Normalized value similarity — `VS / SS`.
    pub nvs: f64,
}

impl GraphSimilarities {
    /// Computes all four measures between a document graph `gi` and a
    /// class graph `gj` coded by the same [`crate::GramTable`], in one
    /// walk over `gi`'s edges, probing `gj` for each. The walk follows
    /// `gi`'s first-appearance edge order, so `vs_sum` adds the same
    /// values in the same order whatever the codes and table layout.
    pub fn compute(gi: &NGramGraph, gj: &ClassGraph) -> Self {
        let (a, b) = (gi.edge_count(), gj.edge_count());
        let (min, max) = (a.min(b), a.max(b));
        if max == 0 {
            // Both empty: identical.
            return GraphSimilarities {
                cs: 1.0,
                ss: 1.0,
                vs: 1.0,
                nvs: 1.0,
            };
        }
        let mut shared = 0usize;
        // Starting from `-0.0`, the f64 identity of `Iterator::sum`, a
        // comparison with no shared edge (one side empty, say) reports
        // `vs = -0.0`, the value the golden digest pins.
        let mut vs_sum = -0.0f64;
        for &(key, wi) in gi.edges() {
            if let Some(wj) = gj.weight(key) {
                shared += 1;
                let (lo, hi) = if wi < wj { (wi, wj) } else { (wj, wi) };
                vs_sum += if hi == 0.0 { 0.0 } else { lo / hi };
            }
        }
        // One side empty: nothing is shared, and CS is 0 / 1.
        let cs = shared as f64 / min.max(1) as f64;
        let ss = min as f64 / max as f64;
        let vs = vs_sum / max as f64;
        let nvs = if ss == 0.0 { 0.0 } else { vs / ss };
        GraphSimilarities { cs, ss, vs, nvs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NGramGraphBuilder;
    use crate::graph::GramTable;

    /// `[CS, SS, VS, NVS]` of the rank-1, window-1 graph of `a` against the
    /// class graph of `b` alone (whose weights equal `b`'s document graph).
    fn sims(a: &str, b: &str) -> [f64; 4] {
        let builder = NGramGraphBuilder::new(1, 1);
        let mut grams = GramTable::default();
        let ga = builder.build(a, &mut grams);
        let class = ClassGraph::average([builder.build(b, &mut grams)]);
        let s = GraphSimilarities::compute(&ga, &class);
        [s.cs, s.ss, s.vs, s.nvs]
    }

    #[test]
    fn identical_and_both_empty_graphs_all_ones() {
        assert_eq!(sims("abcabc", "abcabc"), [1.0; 4]);
        assert_eq!(sims("", ""), [1.0; 4]);
    }

    #[test]
    fn disjoint_graphs_all_zero_except_ss() {
        assert_eq!(sims("ab", "cd"), [0.0, 1.0, 0.0, 0.0]); // same sizes
    }

    #[test]
    fn one_empty_is_zero_with_negative_zero_vs() {
        for s in [sims("", "ab"), sims("ab", "")] {
            assert_eq!(s.map(f64::to_bits), [0.0, 0.0, -0.0, 0.0].map(f64::to_bits));
        }
    }

    #[test]
    fn measures_follow_their_definitions() {
        // {a→b} vs {a→b, b→c, c→d}: shared 1, min 1 ⇒ CS = 1 and SS = 1/3,
        // from either side.
        for (a, b) in [("ab", "abcd"), ("abcd", "ab")] {
            let [cs, ss, ..] = sims(a, b);
            assert!(cs == 1.0 && (ss - 1.0 / 3.0).abs() < 1e-12);
        }
        // a→b weight 2 vs 1: min/max = 1/2 over max(|Gi|,|Gj|) = 2, from
        // either side; NVS = VS / SS removes the size penalty.
        for (a, b) in [("abab", "ab"), ("ab", "abab")] {
            let [_, ss, vs, nvs] = sims(a, b);
            assert!((vs - 0.25).abs() < 1e-12);
            assert!((nvs - vs / ss).abs() < 1e-12 && nvs >= vs);
        }
    }

    #[test]
    fn similarities_bounded() {
        let pairs = [
            ("pharmacy online", "pharmacy store"),
            ("viagra no prescription", "refill your prescription"),
            ("aaaa", "aaaaaaaa"),
        ];
        for (a, b) in pairs {
            let [cs, ss, vs, nvs] = sims(a, b);
            for v in [cs, ss, vs] {
                assert!((0.0..=1.0).contains(&v), "out of range: {v}");
            }
            assert!(nvs >= 0.0);
        }
    }
}
