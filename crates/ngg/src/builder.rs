//! Document → n-gram graph extraction.
//!
//! The text is scanned as a sequence of overlapping character n-grams
//! (rank `Lmin = Lmax`). Each n-gram is connected to the n-grams that
//! start within the next `Dwin` character positions — the "sliding window"
//! co-occurrence of §4.1.2 — and each co-occurrence adds 1 to the directed
//! edge's weight.

use crate::graph::{GramTable, NGramGraph};
use crate::{NGRAM_RANK, WINDOW};

/// Builds [`NGramGraph`]s from text with configurable rank and window.
///
/// # Examples
///
/// ```
/// use pharmaverify_ngg::{ClassGraph, GramTable, GraphSimilarities, NGramGraphBuilder};
///
/// let builder = NGramGraphBuilder::default(); // paper config: 4/4
/// let mut grams = GramTable::default();
/// let a = builder.build("no prescription needed", &mut grams);
/// let b = ClassGraph::average([builder.build("no prescription required", &mut grams)]);
/// let sims = GraphSimilarities::compute(&a, &b);
/// assert!(sims.cs > 0.5); // heavily shared character structure
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NGramGraphBuilder {
    rank: usize,
    window: usize,
}

impl Default for NGramGraphBuilder {
    /// The paper's configuration: `Lmin = Lmax = Dwin = 4`.
    fn default() -> Self {
        NGramGraphBuilder {
            rank: NGRAM_RANK,
            window: WINDOW,
        }
    }
}

impl NGramGraphBuilder {
    /// Creates a builder with explicit n-gram rank and window size.
    ///
    /// # Panics
    /// Panics if `rank == 0` or `window == 0`.
    pub fn new(rank: usize, window: usize) -> Self {
        assert!(rank > 0, "n-gram rank must be positive");
        assert!(window > 0, "window must be positive");
        NGramGraphBuilder { rank, window }
    }

    /// The n-gram rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The co-occurrence window (in character positions).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Builds the n-gram graph of `text`, interning in `grams` every gram
    /// that does not pack. Texts shorter than the rank produce an empty
    /// graph; a text with exactly one n-gram produces a single vertex and
    /// no edges.
    pub fn build(&self, text: &str, grams: &mut GramTable) -> NGramGraph {
        self.build_with(text, |gram| grams.intern(gram))
    }

    /// Builds the n-gram graph of `text`, coding grams with `code`. Rank-4
    /// grams of ASCII text pack straight from the bytes, as `code` would.
    pub(crate) fn build_with(&self, text: &str, code: impl FnMut(&str) -> u32) -> NGramGraph {
        let codes: Vec<u32> = if self.packs(text) {
            text.as_bytes()
                .windows(4)
                .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
                .collect()
        } else {
            self.grams(text).map(code).collect()
        };
        NGramGraph::from_codes(&codes, self.window)
    }

    /// Interns in `grams` every gram of `text` that does not pack; a no-op
    /// for rank-4 ASCII text.
    pub(crate) fn intern(&self, text: &str, grams: &mut GramTable) {
        if !self.packs(text) {
            for gram in self.grams(text) {
                grams.intern(gram);
            }
        }
    }

    /// True when every gram of `text` packs: rank 4 over ASCII bytes.
    fn packs(&self, text: &str) -> bool {
        self.rank == 4 && text.is_ascii()
    }

    /// The grams of `text` in order, sliced on char boundaries so no
    /// window allocates.
    fn grams<'t>(&self, text: &'t str) -> impl Iterator<Item = &'t str> {
        let mut boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        boundaries.push(text.len());
        let rank = self.rank;
        (0..boundaries.len().saturating_sub(rank))
            .map(move |i| &text[boundaries[i]..boundaries[i + rank]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::edge_key;
    use crate::merge::ClassGraph;

    /// The weight of `from → to` in the graph of `text`.
    fn weight(rank: usize, window: usize, text: &str, from: &str, to: &str) -> Option<f64> {
        let mut grams = GramTable::default();
        let g = NGramGraphBuilder::new(rank, window).build(text, &mut grams);
        ClassGraph::average([g]).weight(edge_key(grams.code(from)?, grams.code(to)?))
    }

    #[test]
    fn node_and_edge_counts() {
        let shape = |(rank, window, text)| {
            let g = NGramGraphBuilder::new(rank, window).build(text, &mut GramTable::default());
            (g.node_count(), g.edge_count())
        };
        // Too short: empty. One 4-gram: one node. "abcd" at rank 2 and
        // window 2: ab→bc, ab→cd, bc→cd.
        let cases = [
            (4, 4, ""),
            (4, 4, "abc"),
            (4, 4, "abcd"),
            (2, 1, "abc"),
            (2, 2, "abcd"),
        ];
        assert_eq!(cases.map(shape), [(0, 0), (0, 0), (1, 0), (2, 1), (3, 3)]);
    }

    #[test]
    fn edges_connect_grams_within_the_window() {
        // "abc" → grams "ab", "bc"; window 1 → edge ab→bc only.
        assert_eq!(weight(2, 1, "abc", "ab", "bc"), Some(1.0));
        assert_eq!(weight(2, 1, "abc", "bc", "ab"), None);
        assert_eq!(weight(2, 2, "abcd", "ab", "cd"), Some(1.0));
        // "abab": grams a,b,a,b → edges a→b (x2), b→a (x1).
        assert_eq!(weight(1, 1, "abab", "a", "b"), Some(2.0));
        assert_eq!(weight(1, 1, "abab", "b", "a"), Some(1.0));
        // Multi-byte chars slice on char bounds.
        assert_eq!(weight(2, 1, "naïveté", "aï", "ïv"), Some(1.0));
    }

    #[test]
    fn default_is_paper_config() {
        let b = NGramGraphBuilder::default();
        assert_eq!((b.rank(), b.window()), (4, 4));
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_panics() {
        NGramGraphBuilder::new(0, 1);
    }
}
