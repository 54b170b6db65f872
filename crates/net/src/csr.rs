//! The web link graph of Algorithm 1, frozen into compressed sparse rows
//! (CSR), and the block-based TrustRank / PageRank / Anti-TrustRank
//! kernels that rank it.
//!
//! `GRAPH-CREATION` in the paper: every pharmacy contributes a node, and
//! for every outbound link the `endpoint()` (second-level domain) of the
//! target is added as a node with a directed edge. Four node categories
//! arise (§4.2): known-legitimate, known-illegitimate, unknown
//! pharmacies, and non-pharmacy external domains — the first three are
//! *pharmacy* nodes here, distinguishable via [`CsrGraph::is_pharmacy`].
//!
//! Construction and traversal are split:
//!
//! * [`GraphBuilder`] is the mutable interning API (`add_pharmacy`,
//!   `add_external`, `add_link`); it records raw edge triples without
//!   any per-insert duplicate scan;
//! * [`GraphBuilder::freeze`] sorts and merges once — counting-sort by
//!   source, stable per-row sort by target, adjacent-duplicate merge —
//!   into a [`CsrGraph`]: contiguous `offsets`/`targets`/`weights`
//!   arrays, precomputed out-weights, and a string-free O(V+E) transpose
//!   (`t_offsets`/`t_sources`/`t_weights`) so `anti_trust_rank` never
//!   re-interns a single domain name.
//!
//! # Bit-identity with a push kernel
//!
//! The textbook kernel *pushes*: for `u` in ascending id order, node `u`
//! scatters `mass·w/out(u)` into each target. Each `(u, v)` pair carries
//! one merged weight, so target `v` accumulates its contributions in
//! ascending-source order. The CSR kernels *gather*: element `v` sums
//! over its in-edges, which the counting-sort transpose stores in
//! ascending-source order — the same additions in the same order, so the
//! score vectors are bit-identical to a push. `tests/proptest_net.rs`
//! pins this against a dense push-order reference (an n×n weight matrix
//! filled by `+=` in insertion order, pushed over ascending source then
//! ascending target). Two details make it exact:
//!
//! * duplicate links are merged by summing in insertion order (stable
//!   sort + left-to-right adjacent merge), matching an incremental
//!   `*w += weight`;
//! * per-node out-weights are summed in sorted-target order. Link
//!   weights in this system are integer-valued link *counts* (Algorithm 1
//!   multiplicities), whose f64 sums are exact in any order; graphs with
//!   non-integer weights may differ from an insertion-order sum in the
//!   last ulp of the normalizer.
//!
//! # Determinism under parallel dispatch
//!
//! Each gather element is written by exactly one block, blocks are
//! merged in index order, and the dangling-mass pass stays serial — so
//! the output is byte-identical at any worker count. The xtask
//! determinism audit enforces this end-to-end (serial vs 4-worker runs
//! of the web tier).

use std::collections::HashMap;

/// Dense node identifier.
pub type NodeId = u32;

/// TrustRank configuration (TrustRank: Gyöngyi, Garcia-Molina, Pedersen;
/// VLDB 2004). The iteration is biased PageRank,
///
/// ```text
/// t ← α · T · t + (1 − α) · d
/// ```
///
/// where `T` is the column-normalized link matrix and `d` the normalized
/// seed distribution. Following the paper (§4.2 and §6.3.2), the seed is
/// the set of known-legitimate pharmacies of the training folds.
#[derive(Debug, Clone, Copy)]
pub struct TrustRankConfig {
    /// Decay / damping factor α (the original paper uses 0.85).
    pub alpha: f64,
    /// Number of propagation iterations (the original paper uses 20).
    pub iterations: usize,
}

impl Default for TrustRankConfig {
    fn default() -> Self {
        TrustRankConfig {
            alpha: 0.85,
            iterations: 20,
        }
    }
}

/// The Figure 3 illustration: a small network of "good" (white) and "bad"
/// (black) nodes. Returns `(graph, good_seeds, initial, converged)` where
/// `initial` is the seed state (1 for seeds, 0 elsewhere) and `converged`
/// the TrustRank scores — the two panels of the figure.
pub fn trustrank_demo() -> (CsrGraph, Vec<NodeId>, Vec<f64>, Vec<f64>) {
    let mut b = GraphBuilder::new();
    // 4 good pages (0–3) forming a well-connected cluster, 3 bad pages
    // (4–6) in a chain that receives a single link from a deceived good
    // page — the "approximate isolation of good pages" premise.
    let ids: Vec<NodeId> = (0..7)
        .map(|i| b.add_pharmacy(&format!("site{i}.example")))
        .collect();
    // 3 → 4 is the one good→bad link.
    for (from, to) in [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 0),
        (0, 2),
        (3, 4),
        (4, 5),
        (5, 6),
    ] {
        b.add_link(ids[from], &format!("site{to}.example"), 1.0);
    }
    let g = b.freeze();
    let seeds = vec![ids[0], ids[1]];
    let mut initial = vec![0.0; g.node_count()];
    for &s in &seeds {
        initial[s as usize] = 1.0;
    }
    let converged = g.trust_rank(&seeds, &TrustRankConfig::default());
    (g, seeds, initial, converged)
}

/// Nodes per dispatch block: small enough to spread a web-scale graph
/// over any realistic worker count, large enough that a paper-scale
/// graph stays a single block (no dispatch overhead).
const BLOCK_NODES: usize = 4096;

/// Deterministic fan-out used by the block kernels: run `blocks` closures
/// and return their results *in index order*. `core::pipeline::Executor`
/// implements this over its scoped-thread pool; [`SerialDispatch`] is
/// the dependency-free default.
pub trait BlockDispatch {
    /// Evaluates `f(0..blocks)` and returns the results index-ordered.
    fn dispatch(&self, blocks: usize, f: &(dyn Fn(usize) -> Vec<f64> + Sync)) -> Vec<Vec<f64>>;
}

/// Runs every block inline on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialDispatch;

impl BlockDispatch for SerialDispatch {
    fn dispatch(&self, blocks: usize, f: &(dyn Fn(usize) -> Vec<f64> + Sync)) -> Vec<Vec<f64>> {
        (0..blocks).map(f).collect()
    }
}

/// Mutable graph under construction: the interning API, recording raw
/// edges for a one-shot [`GraphBuilder::freeze`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    names: Vec<String>,
    index: HashMap<String, NodeId>,
    is_pharmacy: Vec<bool>,
    /// Raw `(source, target, weight)` triples in insertion order;
    /// duplicates merge at freeze time.
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, domain: &str, pharmacy: bool) -> NodeId {
        if let Some(&id) = self.index.get(domain) {
            if pharmacy {
                self.is_pharmacy[id as usize] = true;
            }
            return id;
        }
        let id = self.names.len() as NodeId;
        self.names.push(domain.to_string());
        self.index.insert(domain.to_string(), id);
        self.is_pharmacy.push(pharmacy);
        id
    }

    /// Adds (or upgrades) a pharmacy node for `domain` (Algorithm 1,
    /// line 4).
    pub fn add_pharmacy(&mut self, domain: &str) -> NodeId {
        self.intern(domain, true)
    }

    /// Adds a non-pharmacy node for `domain`; an existing pharmacy node
    /// keeps its flag.
    pub fn add_external(&mut self, domain: &str) -> NodeId {
        self.intern(domain, false)
    }

    /// Records a directed link `from → to_domain` with multiplicity
    /// `weight` (Algorithm 1, lines 6–8). The target is created as a
    /// non-pharmacy node if unseen. O(1): parallel links are merged at
    /// freeze time, not probed per insert.
    ///
    /// # Panics
    /// Panics if `from` is not a valid node id or `weight` is not
    /// positive.
    pub fn add_link(&mut self, from: NodeId, to_domain: &str, weight: f64) {
        assert!((from as usize) < self.names.len(), "unknown source node");
        assert!(weight > 0.0, "link weight must be positive");
        let to = self.intern(to_domain, false);
        self.edges.push((from, to, weight));
    }

    /// The id of `domain`, if present.
    pub fn node(&self, domain: &str) -> Option<NodeId> {
        self.index.get(domain).copied()
    }

    /// Number of nodes interned so far.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of raw (unmerged) link records so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into a [`CsrGraph`]: counting-sorts edges by
    /// source, stably sorts each row by target, merges duplicates by
    /// summing in insertion order, and builds the transpose without
    /// touching a single domain string.
    pub fn freeze(self) -> CsrGraph {
        let _span = pharmaverify_obs::global().span("net/csr/freeze");
        let n = self.names.len();
        let m = self.edges.len();

        // Counting sort by source (stable: preserves insertion order
        // within a row, which the duplicate merge below relies on).
        let mut row_start = vec![0usize; n + 1];
        for &(u, _, _) in &self.edges {
            row_start[u as usize + 1] += 1;
        }
        for i in 0..n {
            row_start[i + 1] += row_start[i];
        }
        let mut cursor = row_start.clone();
        let mut by_src: Vec<(NodeId, f64)> = vec![(0, 0.0); m];
        for &(u, v, w) in &self.edges {
            let slot = &mut cursor[u as usize];
            by_src[*slot] = (v, w);
            *slot += 1;
        }

        // Per-row stable sort by target + adjacent-duplicate merge. The
        // stable sort keeps equal targets in insertion order, so the
        // left-to-right `+=` reproduces an incremental merge bit for bit.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets: Vec<NodeId> = Vec::with_capacity(m);
        let mut weights: Vec<f64> = Vec::with_capacity(m);
        offsets.push(0usize);
        for u in 0..n {
            let row = &mut by_src[row_start[u]..row_start[u + 1]];
            row.sort_by_key(|&(t, _)| t);
            let first = targets.len();
            for &(v, w) in row.iter() {
                if targets.len() > first && targets[targets.len() - 1] == v {
                    let last = weights.len() - 1;
                    weights[last] += w;
                } else {
                    targets.push(v);
                    weights.push(w);
                }
            }
            offsets.push(targets.len());
        }
        targets.shrink_to_fit();
        weights.shrink_to_fit();

        let out_weights: Vec<f64> = (0..n)
            .map(|u| weights[offsets[u]..offsets[u + 1]].iter().sum())
            .collect();

        // String-free transpose by counting sort over the merged forward
        // arrays. Iterating sources in ascending order places each
        // row's in-edges in ascending-source order — exactly the
        // accumulation order of a push kernel.
        let merged = targets.len();
        let mut t_offsets = vec![0usize; n + 1];
        for &v in &targets {
            t_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            t_offsets[i + 1] += t_offsets[i];
        }
        let mut t_cursor = t_offsets.clone();
        let mut t_sources: Vec<NodeId> = vec![0; merged];
        let mut t_weights: Vec<f64> = vec![0.0; merged];
        for u in 0..n {
            for e in offsets[u]..offsets[u + 1] {
                let slot = &mut t_cursor[targets[e] as usize];
                t_sources[*slot] = u as NodeId;
                t_weights[*slot] = weights[e];
                *slot += 1;
            }
        }
        let in_weights: Vec<f64> = (0..n)
            .map(|v| t_weights[t_offsets[v]..t_offsets[v + 1]].iter().sum())
            .collect();

        CsrGraph {
            names: self.names,
            index: self.index,
            is_pharmacy: self.is_pharmacy,
            offsets,
            targets,
            weights,
            out_weights,
            t_offsets,
            t_sources,
            t_weights,
            in_weights,
        }
    }
}

/// A frozen, compact web graph: forward and transposed CSR arrays plus
/// the name→id index. Immutable by construction — temporary mutation
/// (batch verification) goes through [`crate::SpliceOverlay`], which
/// layers deltas over a shared `&CsrGraph` without touching these
/// arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    names: Vec<String>,
    index: HashMap<String, NodeId>,
    is_pharmacy: Vec<bool>,
    /// Forward CSR: row `u` is `targets[offsets[u]..offsets[u+1]]`,
    /// sorted by target, duplicates merged.
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
    /// Total outgoing weight per node (sum of its merged row).
    out_weights: Vec<f64>,
    /// Transposed CSR: row `v` lists in-edge sources in ascending order.
    t_offsets: Vec<usize>,
    t_sources: Vec<NodeId>,
    t_weights: Vec<f64>,
    /// Total incoming weight per node (the transposed out-weight).
    in_weights: Vec<f64>,
}

impl CsrGraph {
    /// The id of `domain`, if present.
    pub fn node(&self, domain: &str) -> Option<NodeId> {
        self.index.get(domain).copied()
    }

    /// The domain name of node `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id as usize]
    }

    /// True when node `id` is a pharmacy (vs an external domain).
    pub fn is_pharmacy(&self, id: NodeId) -> bool {
        self.is_pharmacy[id as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of directed edges (parallel links merged into weights).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Iterates all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.names.len() as NodeId
    }

    /// Outgoing edges of node `id` as `(target, weight)`, sorted by
    /// target.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let u = id as usize;
        self.targets[self.offsets[u]..self.offsets[u + 1]]
            .iter()
            .copied()
            .zip(
                self.weights[self.offsets[u]..self.offsets[u + 1]]
                    .iter()
                    .copied(),
            )
    }

    /// Total outgoing weight of node `id` (precomputed at freeze).
    pub fn out_weight(&self, id: NodeId) -> f64 {
        self.out_weights[id as usize]
    }

    /// Total incoming weight of node `id` (precomputed at freeze; the
    /// out-weight of the transposed graph).
    pub fn in_weight(&self, id: NodeId) -> f64 {
        self.in_weights[id as usize]
    }

    /// The transposed graph, frozen: every edge `u → v` becomes `v → u`
    /// with the same weight. Names, ids, and pharmacy flags are
    /// preserved; the forward and transposed CSR arrays swap roles, so
    /// this costs one clone and no re-sorting. `transposed().trust_rank`
    /// reads exactly the arrays [`CsrGraph::anti_trust_rank`] reads, so
    /// the two are bit-identical — which is what lets
    /// [`crate::TrustTrajectory`] record an anti-trust run: compute the
    /// trajectory over the transpose with the bad seeds.
    pub fn transposed(&self) -> CsrGraph {
        CsrGraph {
            names: self.names.clone(),
            index: self.index.clone(),
            is_pharmacy: self.is_pharmacy.clone(),
            offsets: self.t_offsets.clone(),
            targets: self.t_sources.clone(),
            weights: self.t_weights.clone(),
            out_weights: self.in_weights.clone(),
            t_offsets: self.offsets.clone(),
            t_sources: self.targets.clone(),
            t_weights: self.weights.clone(),
            in_weights: self.out_weights.clone(),
        }
    }

    /// Incoming edges of node `id` as `(source, weight)`, in ascending
    /// source order — the transpose's accumulation order, which is also
    /// the order a push kernel's contributions arrive in.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let v = id as usize;
        self.t_sources[self.t_offsets[v]..self.t_offsets[v + 1]]
            .iter()
            .copied()
            .zip(
                self.t_weights[self.t_offsets[v]..self.t_offsets[v + 1]]
                    .iter()
                    .copied(),
            )
    }

    /// TrustRank over the frozen graph, serial. See
    /// [`CsrGraph::trust_rank_with`].
    pub fn trust_rank(&self, seeds: &[NodeId], config: &TrustRankConfig) -> Vec<f64> {
        self.trust_rank_with(seeds, config, &SerialDispatch)
    }

    /// TrustRank over the frozen graph with block-parallel gather,
    /// bit-identical to a push kernel over the same links and to itself
    /// at any worker count. Returns a per-node trust score summing to
    /// ≤ 1 (dangling mass is re-teleported to the seeds); an empty seed
    /// set yields all-zero trust.
    ///
    /// # Panics
    /// Panics if a seed id is out of range, `alpha` is outside `(0, 1)`,
    /// or `iterations` is 0.
    pub fn trust_rank_with(
        &self,
        seeds: &[NodeId],
        config: &TrustRankConfig,
        dispatch: &dyn BlockDispatch,
    ) -> Vec<f64> {
        let _span = pharmaverify_obs::global().span("net/csr/trustrank");
        validate(config);
        let n = self.node_count();
        if n == 0 || seeds.is_empty() {
            return vec![0.0; n];
        }
        let d = seed_distribution(n, seeds);
        propagate(
            &d,
            config,
            &Gather {
                offsets: &self.t_offsets,
                sources: &self.t_sources,
                weights: &self.t_weights,
                norms: &self.out_weights,
                skip_zero_mass: true,
            },
            BLOCK_NODES,
            dispatch,
        )
    }

    /// PageRank (uniform teleport) over the frozen graph, serial.
    pub fn pagerank(&self, config: &TrustRankConfig) -> Vec<f64> {
        self.pagerank_with(config, &SerialDispatch)
    }

    /// PageRank with block-parallel gather: TrustRank with a uniform
    /// teleport, kept for ablations. Scores sum to ≈ 1 (dangling mass is
    /// re-teleported uniformly).
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)` or `iterations` is 0.
    pub fn pagerank_with(
        &self,
        config: &TrustRankConfig,
        dispatch: &dyn BlockDispatch,
    ) -> Vec<f64> {
        let _span = pharmaverify_obs::global().span("net/csr/pagerank");
        validate(config);
        let n = self.node_count();
        if n == 0 {
            return Vec::new();
        }
        let d = vec![1.0 / n as f64; n];
        propagate(
            &d,
            config,
            &Gather {
                offsets: &self.t_offsets,
                sources: &self.t_sources,
                weights: &self.t_weights,
                norms: &self.out_weights,
                skip_zero_mass: false,
            },
            BLOCK_NODES,
            dispatch,
        )
    }

    /// Anti-TrustRank (distrust from known-bad seeds over reversed
    /// edges), serial. See [`CsrGraph::anti_trust_rank_with`].
    pub fn anti_trust_rank(&self, bad_seeds: &[NodeId], config: &TrustRankConfig) -> Vec<f64> {
        self.anti_trust_rank_with(bad_seeds, config, &SerialDispatch)
    }

    /// Anti-TrustRank (Krishnan & Raj, AIRWeb 2006) with block-parallel
    /// gather: TrustRank over the transposed graph, using the
    /// precomputed transpose arrays — no string re-interning. A page
    /// that links to a bad page is itself suspicious, so distrust flows
    /// backward from the bad seeds into every member of an affiliate
    /// ring.
    ///
    /// The roles swap: propagation walks the transpose (rows =
    /// `t_offsets`), so the *gather* side is the forward CSR, whose
    /// sorted targets are exactly the ascending-source accumulation
    /// order of a push over the transpose.
    ///
    /// # Panics
    /// Panics if a seed id is out of range, `alpha` is outside `(0, 1)`,
    /// or `iterations` is 0.
    pub fn anti_trust_rank_with(
        &self,
        bad_seeds: &[NodeId],
        config: &TrustRankConfig,
        dispatch: &dyn BlockDispatch,
    ) -> Vec<f64> {
        let _span = pharmaverify_obs::global().span("net/csr/antitrustrank");
        validate(config);
        let n = self.node_count();
        if n == 0 || bad_seeds.is_empty() {
            return vec![0.0; n];
        }
        let d = seed_distribution(n, bad_seeds);
        propagate(
            &d,
            config,
            &Gather {
                offsets: &self.offsets,
                sources: &self.targets,
                weights: &self.weights,
                norms: &self.in_weights,
                skip_zero_mass: true,
            },
            BLOCK_NODES,
            dispatch,
        )
    }
}

/// Validates the shared kernel configuration; the overlay kernels
/// assert the same contract with the same messages.
fn validate(config: &TrustRankConfig) {
    assert!(
        config.alpha > 0.0 && config.alpha < 1.0,
        "alpha must be in (0, 1)"
    );
    assert!(config.iterations > 0, "need at least one iteration");
}

/// The normalized static seed distribution `d`.
///
/// # Panics
/// Panics if a seed id is out of range.
fn seed_distribution(n: usize, seeds: &[NodeId]) -> Vec<f64> {
    for &s in seeds {
        assert!((s as usize) < n, "seed {s} out of range");
    }
    let mut d = vec![0.0; n];
    let share = 1.0 / seeds.len() as f64;
    for &s in seeds {
        d[s as usize] += share;
    }
    d
}

/// One gather view: in-edge CSR arrays plus the per-source normalizers
/// (the out-weights of the propagation direction) and the TrustRank
/// kernels' zero-mass short-circuit flag (PageRank has none — its
/// masses are strictly positive after the uniform start).
struct Gather<'a> {
    offsets: &'a [usize],
    sources: &'a [NodeId],
    weights: &'a [f64],
    norms: &'a [f64],
    skip_zero_mass: bool,
}

/// The shared power iteration: `t ← α·(gather + dangling·d) + (1−α)·d`.
///
/// Determinism: the dangling pass is serial in ascending node order, and
/// each output element is computed by exactly one block, merged in index
/// order — identical bytes at any worker count.
fn propagate(
    d: &[f64],
    config: &TrustRankConfig,
    g: &Gather<'_>,
    block_nodes: usize,
    dispatch: &dyn BlockDispatch,
) -> Vec<f64> {
    let n = d.len();
    let alpha = config.alpha;
    let blocks = n.div_ceil(block_nodes).max(1);
    let mut t = d.to_vec();
    for _ in 0..config.iterations {
        // Dangling mass accumulates serially in ascending node order —
        // the exact summation order of a push kernel.
        let mut dangling = 0.0;
        for (u, &mass) in t.iter().enumerate() {
            if g.skip_zero_mass && mass == 0.0 {
                continue;
            }
            if g.norms[u] == 0.0 {
                dangling += mass;
            }
        }
        let shared = &t;
        let parts = dispatch.dispatch(blocks, &move |b| {
            let lo = b * block_nodes;
            let hi = n.min(lo + block_nodes);
            let mut out = Vec::with_capacity(hi - lo);
            for v in lo..hi {
                let mut acc = 0.0;
                for e in g.offsets[v]..g.offsets[v + 1] {
                    let u = g.sources[e] as usize;
                    let mass = shared[u];
                    if g.skip_zero_mass && mass == 0.0 {
                        continue;
                    }
                    // g.norms[u] > 0: u appears as a gather source only
                    // if its propagation-side row is non-empty.
                    acc += mass * g.weights[e] / g.norms[u];
                }
                out.push(alpha * (acc + dangling * d[v]) + (1.0 - alpha) * d[v]);
            }
            out
        });
        let mut merged = Vec::with_capacity(n);
        for part in parts {
            merged.extend_from_slice(&part);
        }
        t = merged;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pharmacies `n0.com..n{n-1}.com` linked by `edges`.
    fn graph(edges: &[(usize, usize, f64)], n: usize) -> CsrGraph {
        let mut builder = GraphBuilder::new();
        for i in 0..n {
            builder.add_pharmacy(&format!("n{i}.com"));
        }
        for &(a, b, w) in edges {
            builder.add_link(a as NodeId, &format!("n{b}.com"), w);
        }
        builder.freeze()
    }

    /// The chain `n0 → n1 → … → n{n-1}`.
    fn chain(n: usize) -> CsrGraph {
        let edges: Vec<(usize, usize, f64)> = (1..n).map(|i| (i - 1, i, 1.0)).collect();
        graph(&edges, n)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn freeze_sorts_rows_and_merges_duplicates() {
        let mut b = GraphBuilder::new();
        let p = b.add_pharmacy("p.com");
        b.add_link(p, "z.com", 2.0);
        b.add_link(p, "a.com", 1.0);
        b.add_link(p, "z.com", 3.0);
        assert_eq!(b.raw_edge_count(), 3);
        let g = b.freeze();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2, "duplicate z.com links merged");
        let row: Vec<(NodeId, f64)> = g.out_edges(p).collect();
        assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row sorted");
        let z = g.node("z.com").unwrap();
        assert!(row.contains(&(z, 5.0)), "2 + 3 merged: {row:?}");
        assert_eq!(g.out_weight(p), 6.0);
    }

    #[test]
    fn builder_interns_in_first_appearance_order() {
        let mut b = GraphBuilder::new();
        let a = b.add_pharmacy("a.com");
        b.add_link(a, "fda.gov", 1.0);
        let c = b.add_pharmacy("c.com");
        b.add_link(c, "a.com", 1.0);
        let g = b.freeze();
        let names: Vec<&str> = g.nodes().map(|id| g.name(id)).collect();
        assert_eq!(names, ["a.com", "fda.gov", "c.com"]);
        for id in g.nodes() {
            assert_eq!(g.node(g.name(id)), Some(id));
        }
        assert!(!g.is_pharmacy(1), "link targets are external");
        assert!(g.is_pharmacy(a), "linking to a pharmacy keeps its flag");
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn upgrade_to_pharmacy_applies_in_builder() {
        let mut b = GraphBuilder::new();
        let p = b.add_pharmacy("p.com");
        b.add_link(p, "x.com", 1.0);
        b.add_pharmacy("x.com");
        let g = b.freeze();
        assert!(g.is_pharmacy(g.node("x.com").unwrap()));
    }

    #[test]
    fn transpose_arrays_list_sources_ascending() {
        let csr = graph(&[(2, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0)], 3);
        // Node 0 has in-edges from 1 and 2; transpose row must be
        // ascending by source.
        let row = &csr.t_sources[csr.t_offsets[0]..csr.t_offsets[1]];
        assert_eq!(row, &[1, 2]);
        assert_eq!(csr.in_weights[0], 2.0);
    }

    #[test]
    fn transposed_trust_is_anti_trust_bit_for_bit() {
        let csr = graph(
            &[
                (0, 1, 1.0),
                (2, 1, 2.0),
                (1, 3, 1.0),
                (3, 0, 2.0),
                (1, 3, 1.0),
            ],
            5, // node 4 isolated: dangling in both directions
        );
        let cfg = TrustRankConfig::default();
        let tr = csr.transposed();
        assert_eq!(
            bits(&csr.anti_trust_rank(&[1, 3], &cfg)),
            bits(&tr.trust_rank(&[1, 3], &cfg))
        );
        assert_eq!(
            bits(&csr.trust_rank(&[0], &cfg)),
            bits(&tr.anti_trust_rank(&[0], &cfg)),
            "double swap: transposed anti-trust is forward trust"
        );
        for id in csr.nodes() {
            assert_eq!(csr.name(id), tr.name(id));
            assert_eq!(csr.is_pharmacy(id), tr.is_pharmacy(id));
            assert_eq!(csr.in_weight(id).to_bits(), tr.out_weight(id).to_bits());
            let fwd: Vec<(NodeId, f64)> = csr.out_edges(id).collect();
            let back: Vec<(NodeId, f64)> = tr.in_edges(id).collect();
            assert_eq!(fwd, back, "forward row {id} must be the transposed in-row");
        }
    }

    #[test]
    fn trust_decays_along_a_chain_and_sums_to_at_most_one() {
        let cfg = TrustRankConfig::default();
        let t = chain(5).trust_rank(&[0], &cfg);
        assert!(t[0] > 0.0);
        for w in t.windows(2) {
            assert!(w[0] > w[1], "trust must decay: {t:?}");
        }
        let sum: f64 = chain(6).trust_rank(&[0, 1], &cfg).iter().sum();
        assert!(sum <= 1.0 + 1e-9 && sum > 0.5, "sum = {sum}");
    }

    #[test]
    fn unreachable_nodes_get_zero() {
        // n3 is an island beside the chain n0 → n1 → n2.
        let t = graph(&[(0, 1, 1.0), (1, 2, 1.0)], 4).trust_rank(&[0], &TrustRankConfig::default());
        assert_eq!(t[3], 0.0);
    }

    #[test]
    fn dangling_mass_returns_to_seeds() {
        // 0 → 1, and 1 dangles. Seed trust must not evaporate.
        let t = chain(2).trust_rank(&[0], &TrustRankConfig::default());
        assert!(t[0] > 0.2);
        assert!(t[1] > 0.0);
    }

    #[test]
    fn weighted_links_split_trust_proportionally() {
        let t = graph(&[(0, 1, 3.0), (0, 2, 1.0)], 3).trust_rank(&[0], &TrustRankConfig::default());
        assert!(t[1] > t[2]);
        assert!((t[1] / t[2] - 3.0).abs() < 0.2);
    }

    #[test]
    fn distrust_flows_back_to_linkers() {
        // 0 → 1 → 2; distrust seeded at 2 reaches 1, and 0 gets less.
        let d = chain(3).anti_trust_rank(&[2], &TrustRankConfig::default());
        assert!(d[2] > d[1] && d[1] > d[0] && d[0] > 0.0, "{d:?}");
        // An affiliate ring: n1..n3 link to the hub n0, n4 links to n5.
        // Distrust seeded at the hub reaches every member, not n4.
        let ring = graph(&[(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0), (4, 5, 1.0)], 6);
        let d = ring.anti_trust_rank(&[0], &TrustRankConfig::default());
        assert!(d[1..4].iter().all(|&x| x > 0.0) && d[4] == 0.0, "{d:?}");
    }

    #[test]
    fn pagerank_favors_hubs_and_stays_uniform_without_links() {
        let cfg = TrustRankConfig::default();
        // Everyone links to n0 (the affiliate hub pattern of §6.3.2).
        let r = graph(&[(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0), (4, 0, 1.0)], 5).pagerank(&cfg);
        assert!(r[1..].iter().all(|&x| x < r[0]), "{r:?}");
        for x in graph(&[], 3).pagerank(&cfg) {
            assert!((x - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn demo_seeds_outrank_the_bad_chain() {
        let (_g, seeds, initial, converged) = trustrank_demo();
        // Initial state: exactly the seeds at 1.
        assert_eq!(initial.iter().filter(|&&x| x == 1.0).count(), seeds.len());
        // Converged: good cluster (0–3) all positive, and the directly
        // seeded nodes dominate the bad chain (4–6).
        for (good, &value) in converged.iter().enumerate().take(4) {
            assert!(value > 0.0, "good node {good} has no trust");
        }
        let min_seed = converged[0].min(converged[1]);
        for (bad, &value) in converged.iter().enumerate().skip(4) {
            assert!(value < min_seed, "bad node {bad}: {value} !< {min_seed}");
        }
    }

    #[test]
    fn block_boundaries_do_not_change_bits() {
        let csr = graph(
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
            ],
            5,
        );
        let cfg = TrustRankConfig::default();
        let d = seed_distribution(5, &[0]);
        let gather = Gather {
            offsets: &csr.t_offsets,
            sources: &csr.t_sources,
            weights: &csr.t_weights,
            norms: &csr.out_weights,
            skip_zero_mass: true,
        };
        let one = propagate(&d, &cfg, &gather, 4096, &SerialDispatch);
        let tiny = propagate(&d, &cfg, &gather, 2, &SerialDispatch);
        assert_eq!(
            bits(&one),
            bits(&tiny),
            "block size must not leak into bits"
        );
    }

    #[test]
    fn empty_graph_and_empty_seeds() {
        let g = GraphBuilder::new().freeze();
        assert!(g.trust_rank(&[], &TrustRankConfig::default()).is_empty());
        assert!(g.pagerank(&TrustRankConfig::default()).is_empty());
        let csr = graph(&[(0, 1, 1.0)], 2);
        let t = csr.trust_rank(&[], &TrustRankConfig::default());
        assert!(t.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_seed_panics() {
        let csr = graph(&[(0, 1, 1.0)], 2);
        csr.trust_rank(&[99], &TrustRankConfig::default());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let csr = graph(&[(0, 1, 1.0)], 2);
        csr.trust_rank(
            &[0],
            &TrustRankConfig {
                alpha: 1.5,
                iterations: 10,
            },
        );
    }

    #[test]
    #[should_panic(expected = "unknown source node")]
    fn builder_link_from_unknown_node_panics() {
        let mut b = GraphBuilder::new();
        b.add_link(5, "x.com", 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn builder_zero_weight_panics() {
        let mut b = GraphBuilder::new();
        let p = b.add_pharmacy("p.com");
        b.add_link(p, "x.com", 0.0);
    }
}
