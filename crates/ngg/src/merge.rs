//! Class-graph construction.
//!
//! For each class the paper merges the graphs of (a random half of) the
//! training documents of that class into a single *class graph* (§4.1.2,
//! Figure 2). We use running-average merge semantics — after merging *k*
//! documents, every edge's weight equals the mean of that edge's weight
//! across the *k* documents (0 where absent). This matches the repeated
//! application of the JInsect `UpdateOperator` rule
//! `w ← w + (w_doc − w) · 1/(k+1)` over the union of edge sets, and keeps
//! class-graph weights on the same scale as document-graph weights so the
//! value similarity (VS) between a document and a class graph is
//! meaningful.
//!
//! The class graph is one open-addressing table from edge key to weight.
//! Merging adds integer edge counts, so every per-key sum is exact in any
//! order or table layout; the sums are then scaled by `1/k` once, in
//! place. Only that scaling walks the slots: the layout never reaches output.

use crate::graph::NGramGraph;
use std::borrow::Borrow;

/// Marks an empty slot; no edge key can take it (see `GramTable::intern`).
const EMPTY: u64 = u64::MAX;

/// A class graph: the edge-wise mean of a set of document graphs.
#[derive(Debug, Clone, Default)]
pub struct ClassGraph {
    /// Edge keys by slot, a power of two of them; `EMPTY` slots are free.
    keys: Vec<u64>,
    /// The weight of the edge in the same slot of `keys`.
    weights: Vec<f64>,
    len: usize,
    merged: usize,
}

/// Spreads the structured bits of a packed key over the slot index
/// (the murmur3 64-bit finalizer).
fn slot_hash(key: u64) -> usize {
    let mut h = key ^ (key >> 33);
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    (h ^ (h >> 33)) as usize
}

impl ClassGraph {
    /// Merges `docs`, in order, into their class graph: every edge weight
    /// is the mean of that edge's weight across the documents.
    pub fn average<I>(docs: I) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<NGramGraph>,
    {
        let mut class = ClassGraph::default();
        for doc in docs {
            for &(key, weight) in doc.borrow().edges() {
                *class.entry(key) += weight;
            }
            class.merged += 1;
        }
        if class.merged > 1 {
            let factor = 1.0 / class.merged as f64;
            for weight in &mut class.weights {
                *weight *= factor;
            }
        }
        class
    }

    /// Number of documents merged.
    pub fn merged_count(&self) -> usize {
        self.merged
    }

    /// Number of edges `|G|`.
    pub fn edge_count(&self) -> usize {
        self.len
    }

    /// The weight of edge `key`, `None` when absent.
    pub fn weight(&self, key: u64) -> Option<f64> {
        if self.keys.is_empty() || key == EMPTY {
            return None;
        }
        let i = self.probe(key);
        (self.keys[i] == key).then(|| self.weights[i])
    }

    /// The slot holding `key`, or the free slot where it belongs.
    /// Requires a non-empty table with at least one free slot.
    fn probe(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = slot_hash(key) & mask;
        while self.keys[i] != key && self.keys[i] != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// The weight slot of `key`, inserted at 0.0 when absent. The table
    /// doubles before it passes 7/8 full: a high load keeps the class
    /// graphs no larger than the string-keyed trees they replace.
    fn entry(&mut self, key: u64) -> &mut f64 {
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            let size = (self.keys.len() * 2).max(64);
            let keys = std::mem::replace(&mut self.keys, vec![EMPTY; size]);
            let weights = std::mem::replace(&mut self.weights, vec![0.0; size]);
            for (key, weight) in keys.into_iter().zip(weights).filter(|&(k, _)| k != EMPTY) {
                let i = self.probe(key);
                (self.keys[i], self.weights[i]) = (key, weight);
            }
        }
        let i = self.probe(key);
        if self.keys[i] == EMPTY {
            self.keys[i] = key;
            self.len += 1;
        }
        &mut self.weights[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NGramGraphBuilder;
    use crate::graph::{edge_key, GramTable};

    /// The rank-1, window-1 graphs of `texts` and their gram table.
    fn docs(texts: &[&str]) -> (Vec<NGramGraph>, GramTable) {
        let mut grams = GramTable::default();
        let builder = NGramGraphBuilder::new(1, 1);
        let docs = texts.iter().map(|t| builder.build(t, &mut grams)).collect();
        (docs, grams)
    }

    /// The class-graph weight of `from → to` over the graphs of `texts`.
    fn mean(texts: &[&str], from: &str, to: &str) -> Option<f64> {
        let (docs, grams) = docs(texts);
        ClassGraph::average(&docs).weight(edge_key(grams.code(from)?, grams.code(to)?))
    }

    #[test]
    fn merging_one_doc_copies_it() {
        let (docs, _) = docs(&["abab"]);
        let class = ClassGraph::average(&docs);
        assert_eq!(
            (class.merged_count(), class.edge_count()),
            (1, docs[0].edge_count())
        );
        for &(key, weight) in docs[0].edges() {
            assert_eq!(class.weight(key), Some(weight));
        }
    }

    #[test]
    fn weights_equal_mean_over_documents() {
        // a→b weights 2 and 4 ⇒ 3; disjoint edges ⇒ 1/2 each.
        assert_eq!(mean(&["ababa", "ababababa"], "a", "b"), Some(3.0));
        assert_eq!(mean(&["ab", "cd"], "a", "b"), Some(0.5));
        assert_eq!(mean(&["ab", "cd"], "c", "d"), Some(0.5));
        assert_eq!(mean(&["ab", "cd"], "b", "c"), None);
        // Three docs with a→b weights 1, 0 (edge absent), 2 ⇒ mean 1.0.
        let w = mean(&["ab", "cd", "abab"], "a", "b").unwrap_or(f64::NAN);
        assert!((w - 1.0).abs() < 1e-12, "got {w}");
    }

    #[test]
    fn merge_order_does_not_change_result() {
        let (docs, _) = docs(&["abcab", "bcabc", "aabb"]);
        let forward = ClassGraph::average(docs.iter());
        let reverse = ClassGraph::average(docs.iter().rev());
        assert_eq!(forward.edge_count(), reverse.edge_count());
        for &(key, _) in docs.iter().flat_map(|d| d.edges()) {
            let (fw, rw) = (forward.weight(key), reverse.weight(key));
            assert!((fw.unwrap_or(-1.0) - rw.unwrap_or(1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn table_growth_keeps_every_sum() {
        // Chains of 1000, 1500 and 2000 grams: enough distinct edges to
        // double the table several times.
        let chain = |d: u32| NGramGraph::from_codes(&(0..1000 + 500 * d).collect::<Vec<_>>(), 1);
        let class = ClassGraph::average((0..3).map(chain));
        assert_eq!(class.edge_count(), 1999);
        assert_eq!(class.weight(edge_key(0, 1)), Some(1.0));
        assert_eq!(class.weight(edge_key(1200, 1201)), Some(2.0 * (1.0 / 3.0)));
        assert_eq!(class.weight(edge_key(1600, 1601)), Some(1.0 / 3.0));
        assert_eq!(class.weight(edge_key(1, 3)), None);
        assert_eq!(ClassGraph::average([0; 0].map(chain)).weight(0), None);
    }
}
