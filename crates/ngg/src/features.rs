//! Per-document N-Gram-Graph features (the classification process of
//! Figure 2) and the Equation (3) ranking score.
//!
//! For each class a class graph is built by merging the graphs of a random
//! half of that class's training documents (§6.3.1). Every document is then
//! described by its four similarities against each class graph — an
//! 8-dimensional feature vector fed to the downstream classifiers.

use crate::builder::NGramGraphBuilder;
use crate::graph::{GramTable, NGramGraph};
use crate::merge::ClassGraph;
use crate::similarity::GraphSimilarities;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The two class graphs of the binary pharmacy-verification task, with
/// the gram table that codes them. The table is written only while the
/// class graphs are built; documents are coded against it read-only.
#[derive(Debug, Clone)]
pub struct NggClassGraphs {
    builder: NGramGraphBuilder,
    grams: GramTable,
    legitimate: ClassGraph,
    illegitimate: ClassGraph,
}

/// The 8 similarity features of one document against both class graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NggFeatures {
    /// Similarities against the legitimate class graph.
    pub legitimate: GraphSimilarities,
    /// Similarities against the illegitimate class graph.
    pub illegitimate: GraphSimilarities,
}

/// Human-readable names for the columns of [`NggFeatures::to_vec`].
pub fn ngg_feature_names() -> [&'static str; 8] {
    [
        "cs_legit",
        "ss_legit",
        "vs_legit",
        "nvs_legit",
        "cs_illegit",
        "ss_illegit",
        "vs_illegit",
        "nvs_illegit",
    ]
}

impl NggFeatures {
    /// The feature vector in [`ngg_feature_names`] order.
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.legitimate.cs,
            self.legitimate.ss,
            self.legitimate.vs,
            self.legitimate.nvs,
            self.illegitimate.cs,
            self.illegitimate.ss,
            self.illegitimate.vs,
            self.illegitimate.nvs,
        ]
    }

    /// Equation (3) of the paper — the N-Gram-Graph `textRank`:
    /// the sum of the four similarities to the legitimate class graph plus
    /// one minus each similarity to the illegitimate class graph.
    /// Ranges over `[0, 8]`; higher means more legitimate.
    pub fn text_rank(self) -> f64 {
        self.legitimate.cs
            + (1.0 - self.illegitimate.cs)
            + self.legitimate.ss
            + (1.0 - self.illegitimate.ss)
            + self.legitimate.vs
            + (1.0 - self.illegitimate.vs)
            + self.legitimate.nvs
            + (1.0 - self.illegitimate.nvs)
    }
}

impl NggClassGraphs {
    /// Builds class graphs from training texts, merging a random half of
    /// each class (at least one document), selected with `seed` — the
    /// protocol of §6.3.1.
    pub fn build(
        builder: NGramGraphBuilder,
        legitimate_texts: &[&str],
        illegitimate_texts: &[&str],
        seed: u64,
    ) -> Self {
        let _span = pharmaverify_obs::global().span("ngg/class-graphs/build");
        let mut rng = SmallRng::seed_from_u64(seed);
        let legitimate = Self::sample_half(legitimate_texts, &mut rng);
        let illegitimate = Self::sample_half(illegitimate_texts, &mut rng);
        Self::build_full(builder, &legitimate, &illegitimate)
    }

    /// Builds class graphs from *all* the given texts (no sampling) —
    /// useful for small corpora and for tests.
    pub fn build_full(
        builder: NGramGraphBuilder,
        legitimate_texts: &[&str],
        illegitimate_texts: &[&str],
    ) -> Self {
        let mut grams = GramTable::default();
        let mut class = |texts: &[&str]| {
            ClassGraph::average(texts.iter().map(|t| builder.build(t, &mut grams)))
        };
        let (legitimate, illegitimate) = (class(legitimate_texts), class(illegitimate_texts));
        NggClassGraphs {
            builder,
            grams,
            legitimate,
            illegitimate,
        }
    }

    /// A seeded random half of `texts` (at least one), in shuffled order.
    fn sample_half<'t>(texts: &[&'t str], rng: &mut SmallRng) -> Vec<&'t str> {
        let mut indices: Vec<usize> = (0..texts.len()).collect();
        indices.shuffle(rng);
        let take = (texts.len() / 2).max(1).min(texts.len());
        indices[..take].iter().map(|&i| texts[i]).collect()
    }

    /// The merged legitimate-class graph.
    pub fn legitimate(&self) -> &ClassGraph {
        &self.legitimate
    }

    /// The merged illegitimate-class graph.
    pub fn illegitimate(&self) -> &ClassGraph {
        &self.illegitimate
    }

    /// The graph of one document text, coded against the class graphs'
    /// gram table without changing it.
    pub fn document_graph(&self, text: &str) -> NGramGraph {
        self.builder.build_with(text, self.grams.reader())
    }

    /// Extracts the 8 similarity features for one document text.
    pub fn features(&self, text: &str) -> NggFeatures {
        let doc = self.document_graph(text);
        NggFeatures {
            legitimate: GraphSimilarities::compute(&doc, &self.legitimate),
            illegitimate: GraphSimilarities::compute(&doc, &self.illegitimate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEGIT: &[&str] = &[
        "refill your prescription with a licensed pharmacist and insurance coverage",
        "consult our pharmacist about prescription refills and health insurance",
        "licensed pharmacy with verified prescription services and patient privacy",
    ];
    const ILLEGIT: &[&str] = &[
        "cheap viagra no prescription needed discount cialis bonus pills",
        "buy viagra cialis online no prescription required best discount",
        "no prescription viagra discount pills cheap cialis fast shipping",
    ];

    fn graphs() -> NggClassGraphs {
        NggClassGraphs::build_full(NGramGraphBuilder::default(), LEGIT, ILLEGIT)
    }

    #[test]
    fn legit_doc_closer_to_legit_graph() {
        let f = graphs().features("licensed pharmacist prescription refill insurance");
        assert!(f.legitimate.vs > f.illegitimate.vs, "{f:?}");
        assert!(f.text_rank() > 4.0, "text_rank = {}", f.text_rank());
    }

    #[test]
    fn illegit_doc_closer_to_illegit_graph() {
        let f = graphs().features("viagra cialis no prescription cheap discount pills");
        assert!(f.illegitimate.cs > f.legitimate.cs);
        assert!(f.text_rank() < 4.5, "text_rank = {}", f.text_rank());
    }

    #[test]
    fn feature_vector_layout() {
        let f = graphs().features(LEGIT[0]);
        let v = f.to_vec();
        assert_eq!(v.len(), ngg_feature_names().len());
        assert_eq!((v[0], v[7]), (f.legitimate.cs, f.illegitimate.nvs));
    }

    #[test]
    fn text_rank_bounds() {
        let g = graphs();
        for text in LEGIT.iter().chain(ILLEGIT) {
            let r = g.features(text).text_rank();
            assert!((0.0..=8.0).contains(&r), "out of range: {r}");
        }
    }

    #[test]
    fn sampled_build_is_deterministic() {
        let build = || NggClassGraphs::build(NGramGraphBuilder::default(), LEGIT, ILLEGIT, 11);
        let (g1, g2) = (build(), build());
        assert_eq!(g1.legitimate().edge_count(), g2.legitimate().edge_count());
        let features = |g: &NggClassGraphs| g.features(LEGIT[0]).to_vec();
        assert_eq!(features(&g1), features(&g2));
    }

    #[test]
    fn sampled_build_uses_half() {
        // 3 docs → half = 1 doc merged; graph must still be non-empty.
        let g = NggClassGraphs::build(NGramGraphBuilder::default(), LEGIT, ILLEGIT, 3);
        assert_eq!(g.legitimate().merged_count(), 1);
        assert!(g.legitimate().edge_count() > 0 && g.illegitimate().edge_count() > 0);
        let full = graphs();
        assert!(full.legitimate().edge_count() > g.legitimate().edge_count());
    }

    #[test]
    fn empty_document_features_are_zero() {
        let f = graphs().features("");
        assert_eq!((f.legitimate.cs, f.illegitimate.vs), (0.0, 0.0));
        // Equation 3 on an all-zero feature set: 0 + 1 + … = 4.
        assert_eq!(f.text_rank(), 4.0);
    }
}
