//! Per-document N-Gram-Graph features (the classification process of
//! Figure 2) and the Equation (3) ranking score.
//!
//! For each class a class graph is built by merging the graphs of a random
//! half of that class's training documents (§6.3.1). Every document is then
//! described by its four similarities against each class graph — an
//! 8-dimensional feature vector fed to the downstream classifiers.
//!
//! Under cross-validation every fold has its own class graphs. An
//! [`NggCorpus`] codes all of a corpus's texts with one gram table, so a
//! document's graph is built once and compared with every fold's class
//! graphs.

use crate::builder::NGramGraphBuilder;
use crate::graph::{GramTable, NGramGraph};
use crate::merge::ClassGraph;
use crate::similarity::GraphSimilarities;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// A set of document texts with the one gram table that codes them all.
/// Every gram of every text that does not pack is interned when the
/// corpus is made, so the class graphs built from any subset of the texts
/// and the graph of any text share codes: one document graph can be
/// compared with every fold's class graphs.
#[derive(Debug, Clone)]
pub struct NggCorpus<T = String> {
    builder: NGramGraphBuilder,
    texts: Vec<T>,
    grams: Arc<GramTable>,
}

/// The two class graphs of the binary pharmacy-verification task, with
/// the gram table that codes them, shared with the [`NggCorpus`] they
/// were built from.
#[derive(Debug, Clone)]
pub struct NggClassGraphs {
    builder: NGramGraphBuilder,
    grams: Arc<GramTable>,
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

impl<T: AsRef<str>> NggCorpus<T> {
    /// The corpus of `texts`, interning every gram that does not pack.
    pub fn new(builder: NGramGraphBuilder, texts: Vec<T>) -> Self {
        let mut grams = GramTable::default();
        for text in &texts {
            builder.intern(text.as_ref(), &mut grams);
        }
        NggCorpus {
            builder,
            texts,
            grams: Arc::new(grams),
        }
    }

    /// The texts, in document order.
    pub fn texts(&self) -> &[T] {
        &self.texts
    }

    /// Builds class graphs from the documents at the given indices,
    /// merging a random half of each class (at least one document),
    /// selected with `seed` — the protocol of §6.3.1.
    pub fn class_graphs(
        &self,
        legitimate: &[usize],
        illegitimate: &[usize],
        seed: u64,
    ) -> NggClassGraphs {
        let _span = pharmaverify_obs::global().span("ngg/class-graphs/build");
        let mut rng = SmallRng::seed_from_u64(seed);
        let legitimate = sample_half(legitimate, &mut rng);
        let illegitimate = sample_half(illegitimate, &mut rng);
        self.merged(&legitimate, &illegitimate)
    }

    /// Class graphs merging *all* the documents at the given indices.
    fn merged(&self, legitimate: &[usize], illegitimate: &[usize]) -> NggClassGraphs {
        let class =
            |docs: &[usize]| ClassGraph::average(docs.iter().map(|&doc| self.document_graph(doc)));
        NggClassGraphs {
            builder: self.builder,
            grams: Arc::clone(&self.grams),
            legitimate: class(legitimate),
            illegitimate: class(illegitimate),
        }
    }

    fn document_graph(&self, doc: usize) -> NGramGraph {
        self.builder
            .build_with(self.texts[doc].as_ref(), self.grams.reader())
    }

    /// The 8 similarity features of document `doc` against each of
    /// `graphs`, in order, from one build of its document graph.
    ///
    /// # Panics
    /// Panics if any of `graphs` was built from another corpus: its codes
    /// would not be this corpus's codes.
    pub fn features_across(&self, doc: usize, graphs: &[&NggClassGraphs]) -> Vec<NggFeatures> {
        let graph = self.document_graph(doc);
        graphs
            .iter()
            .map(|class| {
                assert!(
                    Arc::ptr_eq(&self.grams, &class.grams),
                    "class graphs coded by another gram table"
                );
                class.compare(&graph)
            })
            .collect()
    }
}

/// A seeded random half of `docs` (at least one), in shuffled order.
fn sample_half(docs: &[usize], rng: &mut SmallRng) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..docs.len()).collect();
    indices.shuffle(rng);
    let take = (docs.len() / 2).max(1).min(docs.len());
    indices[..take].iter().map(|&i| docs[i]).collect()
}

impl NggClassGraphs {
    /// Builds class graphs from training texts, merging a random half of
    /// each class (at least one document), selected with `seed` — the
    /// protocol of §6.3.1 ([`NggCorpus::class_graphs`] over these texts).
    pub fn build(
        builder: NGramGraphBuilder,
        legitimate_texts: &[&str],
        illegitimate_texts: &[&str],
        seed: u64,
    ) -> Self {
        let (corpus, legitimate, illegitimate) =
            Self::corpus(builder, legitimate_texts, illegitimate_texts);
        corpus.class_graphs(&legitimate, &illegitimate, seed)
    }

    /// Builds class graphs from *all* the given texts (no sampling) —
    /// useful for small corpora and for tests.
    pub fn build_full(
        builder: NGramGraphBuilder,
        legitimate_texts: &[&str],
        illegitimate_texts: &[&str],
    ) -> Self {
        let (corpus, legitimate, illegitimate) =
            Self::corpus(builder, legitimate_texts, illegitimate_texts);
        corpus.merged(&legitimate, &illegitimate)
    }

    /// The corpus of both classes' texts, with each class's indices.
    fn corpus<'t>(
        builder: NGramGraphBuilder,
        legitimate: &[&'t str],
        illegitimate: &[&'t str],
    ) -> (NggCorpus<&'t str>, Vec<usize>, Vec<usize>) {
        let split = legitimate.len();
        let corpus = NggCorpus::new(builder, [legitimate, illegitimate].concat());
        let illegitimate = (split..corpus.texts.len()).collect();
        (corpus, (0..split).collect(), illegitimate)
    }

    /// The merged legitimate-class graph.
    pub fn legitimate(&self) -> &ClassGraph {
        &self.legitimate
    }

    /// The merged illegitimate-class graph.
    pub fn illegitimate(&self) -> &ClassGraph {
        &self.illegitimate
    }

    /// The graph of a text from outside the corpus the class graphs were
    /// built from, coded against their gram table without changing it.
    pub fn document_graph(&self, text: &str) -> NGramGraph {
        self.builder.build_with(text, self.grams.reader())
    }

    /// Extracts the 8 similarity features for one document text from
    /// outside the corpus (for a corpus document, see
    /// [`NggCorpus::features_across`]).
    pub fn features(&self, text: &str) -> NggFeatures {
        self.compare(&self.document_graph(text))
    }

    fn compare(&self, doc: &NGramGraph) -> NggFeatures {
        NggFeatures {
            legitimate: GraphSimilarities::compute(doc, &self.legitimate),
            illegitimate: GraphSimilarities::compute(doc, &self.illegitimate),
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
