//! Gram codes and the document n-gram graph.
//!
//! Every n-gram is a `u32` *code*. A gram of exactly four ASCII bytes —
//! what the paper's rank 4 yields on ASCII text — packs its bytes
//! little-endian, so the top bit is clear. Every other gram (non-ASCII,
//! or another rank) is interned in a [`GramTable`] and gets a code with
//! the top bit set, so the two kinds never collide. An edge is the pair
//! of its endpoint codes packed into one `u64` key.
//!
//! A document graph is a vector of `(key, weight)` edges ordered by the
//! first appearance of the source gram in the text, then of the target:
//! the similarity measures sum `f64` values in that order, which the text
//! alone fixes. Construction sorts twice and builds no map: once to find
//! each gram's first position, once to sort the window pairs (as
//! first-position pairs) into runs whose lengths are the edge weights.

use std::collections::HashMap;

/// The top bit marks an interned code; packed ASCII codes leave it clear.
const INTERNED: u32 = 1 << 31;

/// The edge key of `from → to`: both codes packed into one `u64`.
pub(crate) fn edge_key(from: u32, to: u32) -> u64 {
    (u64::from(from) << 32) | u64::from(to)
}

/// The packed code of a gram of exactly four ASCII bytes.
fn packed(gram: &str) -> Option<u32> {
    match *gram.as_bytes() {
        [a, b, c, d] if gram.is_ascii() => Some(u32::from_le_bytes([a, b, c, d])),
        _ => None,
    }
}

/// The interner of grams that do not pack: maps each to a code with the
/// top bit set. One table codes every graph that is compared.
#[derive(Debug, Clone, Default)]
pub struct GramTable {
    index: HashMap<Box<str>, u32>,
}

impl GramTable {
    /// The code of `gram`, `None` when it neither packs nor is interned.
    pub(crate) fn code(&self, gram: &str) -> Option<u32> {
        packed(gram).or_else(|| self.index.get(gram).copied())
    }

    /// The code of `gram`, interning it when it neither packs nor is
    /// interned yet.
    pub fn intern(&mut self, gram: &str) -> u32 {
        if let Some(code) = self.code(gram) {
            return code;
        }
        // Interned codes stay below `u32::MAX`, so no class-graph key can
        // equal its empty-slot marker `u64::MAX`.
        assert!(self.index.len() < INTERNED as usize - 1, "gram table full");
        let code = INTERNED | self.index.len() as u32;
        self.index.insert(gram.into(), code);
        code
    }

    /// A coder that leaves the table as it is. Grams the table lacks get
    /// fresh codes past its end: their edges still count towards `|G|`,
    /// but match no edge of a graph coded by the table.
    pub(crate) fn reader(&self) -> impl FnMut(&str) -> u32 + '_ {
        let mut unseen: HashMap<Box<str>, u32> = HashMap::new();
        move |gram| {
            if let Some(code) = self.code(gram).or_else(|| unseen.get(gram).copied()) {
                return code;
            }
            let code = INTERNED | (self.index.len() + unseen.len()) as u32;
            unseen.insert(gram.into(), code);
            code
        }
    }
}

/// The n-gram graph of one document: weighted directed edges between
/// gram codes, in first-appearance order.
#[derive(Debug, Clone, Default)]
pub struct NGramGraph {
    edges: Vec<(u64, f64)>,
    nodes: usize,
}

impl NGramGraph {
    /// The graph of the gram sequence `codes`: each gram is linked to the
    /// grams starting within the next `window` positions, and each such
    /// co-occurrence adds 1 to the edge's weight.
    pub(crate) fn from_codes(codes: &[u32], window: usize) -> Self {
        // (code, position) packed like an edge key: one sort groups each
        // gram's positions, smallest first.
        let mut by_code: Vec<u64> = codes
            .iter()
            .enumerate()
            .map(|(pos, &code)| edge_key(code, pos as u32))
            .collect();
        by_code.sort_unstable();
        // first[p]: the position where the gram at `p` first appears.
        let mut first = vec![0u32; codes.len()];
        let mut nodes = 0;
        for run in by_code.chunk_by(|a, b| a >> 32 == b >> 32) {
            nodes += 1;
            for &entry in run {
                first[entry as u32 as usize] = run[0] as u32;
            }
        }
        let mut pairs = Vec::with_capacity(codes.len() * window);
        for (pos, &from) in first.iter().enumerate() {
            let end = (pos + 1 + window).min(first.len());
            for &to in &first[pos + 1..end] {
                pairs.push(edge_key(from, to));
            }
        }
        pairs.sort_unstable();
        let edges = pairs
            .chunk_by(|a, b| a == b)
            .map(|run| {
                let (from, to) = ((run[0] >> 32) as usize, run[0] as u32 as usize);
                (edge_key(codes[from], codes[to]), run.len() as f64)
            })
            .collect();
        NGramGraph { edges, nodes }
    }

    /// The edges as `(key, weight)`, in first-appearance order.
    pub fn edges(&self) -> &[(u64, f64)] {
        &self.edges
    }

    /// Number of edges — the graph cardinality `|G|` used by all the
    /// similarity measures.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct n-gram vertices.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_quads_pack_and_others_intern() {
        let mut grams = GramTable::default();
        assert_eq!(grams.intern("phar"), u32::from_le_bytes(*b"phar"));
        let (ph, again) = (grams.intern("ph"), grams.intern("ph"));
        assert_eq!((ph, again, grams.index.len()), (INTERNED, INTERNED, 1));
        assert_eq!((grams.code("ph"), grams.code("zz")), (Some(INTERNED), None));
    }

    #[test]
    fn reader_codes_unseen_grams_apart_without_interning() {
        let mut grams = GramTable::default();
        let known = grams.intern("ab");
        let mut read = grams.reader();
        let (x, y) = (read("xy"), read("yx"));
        assert_eq!((read("ab"), read("xy")), (known, x));
        assert!(x != known && y != x && y != known);
        assert_eq!(grams.code("xy"), None);
    }

    #[test]
    fn edges_follow_first_appearance_not_code_order() {
        // Gram 9 appears first, so its edges come first despite the larger
        // code, and its edge to itself precedes its edge to gram 1.
        let g = NGramGraph::from_codes(&[9, 1, 9], 2);
        let edges = [(9, 9), (9, 1), (1, 9)].map(|(f, t)| (edge_key(f, t), 1.0));
        assert_eq!(g.edges(), edges);
    }
}
