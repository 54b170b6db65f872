//! Bit-identity of the packed-code n-gram graphs against a string-keyed
//! reference: the `Box<str>` interner and `BTreeMap` edge store the
//! packed representation replaced, with its build, merge and similarity.

use pharmaverify_ngg::{GramTable, NGramGraphBuilder, NggClassGraphs, NggCorpus, NggFeatures};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Grams interned by first appearance; edges keyed by gram id.
#[derive(Default)]
struct RefGraph {
    names: Vec<Box<str>>,
    edges: BTreeMap<(usize, usize), f64>,
}

impl RefGraph {
    fn id(&self, gram: &str) -> Option<usize> {
        self.names.iter().position(|name| **name == *gram)
    }

    fn intern(&mut self, gram: &str) -> usize {
        self.id(gram).unwrap_or_else(|| {
            self.names.push(gram.into());
            self.names.len() - 1
        })
    }

    fn bump(&mut self, from: &str, to: &str, weight: f64) {
        let key = (self.intern(from), self.intern(to));
        *self.edges.entry(key).or_insert(0.0) += weight;
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        let name = |id: usize| &*self.names[id];
        self.edges
            .iter()
            .map(move |(&(f, t), &w)| (name(f), name(t), w))
    }

    fn weight(&self, from: &str, to: &str) -> Option<f64> {
        self.edges.get(&(self.id(from)?, self.id(to)?)).copied()
    }

    fn build(text: &str, rank: usize, window: usize) -> RefGraph {
        let mut bounds: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        bounds.push(text.len());
        let grams: Vec<&str> = bounds
            .windows(rank + 1)
            .map(|w| &text[w[0]..w[rank]])
            .collect();
        let mut g = RefGraph::default();
        for gram in &grams {
            g.intern(gram);
        }
        for (pos, from) in grams.iter().enumerate() {
            for to in &grams[pos + 1..(pos + 1 + window).min(grams.len())] {
                g.bump(from, to, 1.0);
            }
        }
        g
    }

    fn class(texts: &[&str], rank: usize, window: usize) -> RefGraph {
        let mut sums = RefGraph::default();
        for text in texts {
            for (f, t, w) in RefGraph::build(text, rank, window).iter() {
                sums.bump(f, t, w);
            }
        }
        let factor = 1.0 / texts.len() as f64;
        if texts.len() > 1 {
            sums.edges.values_mut().for_each(|w| *w *= factor);
        }
        sums
    }

    /// `[CS, SS, VS, NVS]` of `self` against `class`, measure by measure.
    fn similarities(&self, class: &RefGraph) -> [f64; 4] {
        let (a, b) = (self.edges.len(), class.edges.len());
        let (min, max) = (a.min(b) as f64, a.max(b) as f64);
        if max == 0.0 {
            return [1.0; 4];
        }
        let shared = self.iter().filter(|(f, t, _)| class.weight(f, t).is_some());
        // Nothing is shared when a side is empty: 0 / 1.
        let cs = shared.count() as f64 / min.max(1.0);
        let ratio = |a: f64, b: f64| a.min(b) / a.max(b);
        let ratios = self
            .iter()
            .filter_map(|(f, t, w)| Some(ratio(w, class.weight(f, t)?)));
        let (ss, vs) = (min / max, ratios.sum::<f64>() / max);
        [cs, ss, vs, if ss == 0.0 { 0.0 } else { vs / ss }]
    }
}

/// The reference's 8 features of `query` against two class graphs, then
/// its Equation (3) `textRank`, as bits.
fn reference_bits(query: &str, rank: usize, window: usize, l: &RefGraph, i: &RefGraph) -> Vec<u64> {
    let doc = RefGraph::build(query, rank, window);
    let (l, i) = (doc.similarities(l), doc.similarities(i));
    let text_rank = (0..4).fold(0.0, |acc, k| acc + l[k] + (1.0 - i[k]));
    l.iter()
        .chain(&i)
        .chain([&text_rank])
        .map(|v| v.to_bits())
        .collect()
}

/// The 8 features then `textRank`, as bits.
fn bits(features: NggFeatures) -> Vec<u64> {
    let values = features.to_vec().into_iter().chain([features.text_rank()]);
    values.map(f64::to_bits).collect()
}

/// Asserts that every query's 8 features and Equation (3) `textRank`
/// equal the reference's bit for bit, class graphs merged from all texts.
fn same_bits(rank: usize, window: usize, legit: &[&str], illegit: &[&str], queries: &[&str]) {
    let packed = NggClassGraphs::build_full(NGramGraphBuilder::new(rank, window), legit, illegit);
    let class_l = RefGraph::class(legit, rank, window);
    let class_i = RefGraph::class(illegit, rank, window);
    for query in queries {
        let expected = reference_bits(query, rank, window, &class_l, &class_i);
        assert_eq!(bits(packed.features(query)), expected, "query {query:?}");
    }
}

/// The seeded half of each class that `NggCorpus::class_graphs` merges
/// (§6.3.1), as the reference's class graphs.
fn reference_classes(
    texts: &[String],
    (legit, illegit): (&[usize], &[usize]),
    seed: u64,
    (rank, window): (usize, usize),
) -> (RefGraph, RefGraph) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut class = |docs: &[usize]| {
        let mut order: Vec<usize> = (0..docs.len()).collect();
        order.shuffle(&mut rng);
        let take = (docs.len() / 2).max(1).min(docs.len());
        let half: Vec<&str> = order[..take]
            .iter()
            .map(|&j| texts[docs[j]].as_str())
            .collect();
        RefGraph::class(&half, rank, window)
    };
    (class(legit), class(illegit))
}

/// Mixed-alphabet texts, half of them ASCII so rank 4 also packs.
fn text() -> impl Strategy<Value = String> {
    any::<bool>().prop_flat_map(|ascii| ["[a-dé ïİ]{0,40}", "[a-d ]{0,40}"][usize::from(ascii)])
}

proptest! {
    #[test]
    fn packed_features_match_string_keyed_reference(
        rank in 1usize..6,
        window in 1usize..5,
        docs in prop::collection::vec((text(), any::<bool>()), 0..8),
        fresh in prop::collection::vec(text(), 0..3),
    ) {
        let class = |label| docs.iter().filter(move |d| d.1 == label).map(|d| d.0.as_str());
        let (legit, illegit): (Vec<&str>, Vec<&str>) = (class(true).collect(), class(false).collect());
        let queries: Vec<&str> = docs.iter().map(|d| &d.0).chain(&fresh).map(|s| s.as_str()).collect();
        same_bits(rank, window, &legit, &illegit, &queries);
    }

    /// One corpus, one gram table, k folds' class graphs over random
    /// splits: each document's one graph, compared with every fold.
    #[test]
    fn features_across_folds_match_reference_per_fold(
        rank in 1usize..6,
        window in 1usize..5,
        texts in prop::collection::vec(text(), 1..8),
        folds in prop::collection::vec((prop::collection::vec(0u8..3, 8..9), any::<u64>()), 1..5),
    ) {
        let corpus = NggCorpus::new(NGramGraphBuilder::new(rank, window), texts.clone());
        let mut graphs = Vec::new();
        let mut references = Vec::new();
        for (roles, seed) in &folds {
            // Each document is left out of this fold's class graphs (0),
            // legitimate (1) or illegitimate (2).
            let class = |role| (0..texts.len()).filter(|&d| roles[d] == role).collect::<Vec<_>>();
            let (legit, illegit) = (class(1), class(2));
            graphs.push(corpus.class_graphs(&legit, &illegit, *seed));
            references.push(reference_classes(&texts, (&legit, &illegit), *seed, (rank, window)));
        }
        let graphs: Vec<&NggClassGraphs> = graphs.iter().collect();
        for (doc, text) in texts.iter().enumerate() {
            let across = corpus.features_across(doc, &graphs);
            prop_assert_eq!(across.len(), folds.len());
            for (features, (l, i)) in across.into_iter().zip(&references) {
                prop_assert_eq!(bits(features), reference_bits(text, rank, window, l, i));
            }
        }
    }
}

/// One empty class graph makes `vs = -0.0` on that side.
#[test]
fn empty_short_and_one_side_empty_cases_match() {
    let queries = ["", "ab", "abc", "abcd", "abcde", "éïé", "abcdabcd éé"];
    same_bits(4, 4, &[], &[], &queries);
    same_bits(4, 4, &[], &["abcdefgh abcd"], &queries);
    same_bits(4, 4, &["ab", "abcéd"], &["abcdé abcd"], &queries);
}

#[test]
fn non_ascii_four_byte_grams_never_take_packed_codes() {
    let mut grams = GramTable::default();
    let ee = grams.intern("éé");
    assert_eq!("éé".len(), 4);
    assert_ne!(ee, u32::from_le_bytes([0xc3, 0xa9, 0xc3, 0xa9]));
    assert_eq!(ee >> 31, 1);
    let quads = ["abcd", "\u{7f}\u{7f}\u{7f}\u{7f}", "\0\0\0\0"];
    assert!(quads.iter().all(|quad| grams.intern(quad) >> 31 == 0));
    let queries = ["ééé", "abé", "\u{7f}\u{7f}éé"];
    same_bits(2, 2, &["éééé ab"], &["abab éé"], &queries);
}

#[test]
#[should_panic(expected = "another gram table")]
fn features_across_rejects_class_graphs_of_another_corpus() {
    let texts = vec!["abcdé abcd", "dcba ébcd"];
    let (one, other) = (
        NggCorpus::new(NGramGraphBuilder::default(), texts.clone()),
        NggCorpus::new(NGramGraphBuilder::default(), texts),
    );
    let foreign = other.class_graphs(&[0], &[1], 7);
    one.features_across(0, &[&foreign]);
}
