//! Property-based tests for the link graph and trust propagation —
//! including the contract the CSR kernels rest on: on any graph, the
//! frozen [`CsrGraph`] kernels are **bit-identical** to a dense
//! push-order reference (below), and a [`SpliceOverlay`] splice/unsplice
//! cycle restores the exact frozen scores.

use pharmaverify_net::{
    CsrGraph, GraphBuilder, IncrementalConfig, NodeId, SpliceOverlay, TrustRankConfig,
    TrustTrajectory,
};
use proptest::prelude::*;

/// A random directed graph: `edges[i] = (from, to)` over `n` nodes.
fn random_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..20).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..40);
        (Just(n), edges)
    })
}

/// Unit-weight pharmacies `n0.com..` linked by `edges` (self-links
/// dropped).
fn build(n: usize, edges: &[(usize, usize)]) -> CsrGraph {
    let weighted: Vec<(usize, usize, f64)> = edges.iter().map(|&(a, b)| (a, b, 1.0)).collect();
    build_weighted(&vec![true; n], &weighted).freeze()
}

/// A random *weighted* mixed graph: per-node pharmacy flags plus
/// `edges[i] = (from, to, weight)` with integer weights in {1, 2, 3} and
/// duplicate `(from, to)` pairs allowed — duplicates exercise the
/// builder's freeze-time merge against the reference's `+=` merge.
#[allow(clippy::type_complexity)]
fn random_weighted_graph() -> impl Strategy<Value = (Vec<bool>, Vec<(usize, usize, f64)>)> {
    (2usize..20).prop_flat_map(|n| {
        let pharmacy = prop::collection::vec(any::<bool>(), n..n + 1);
        let edges = prop::collection::vec((0..n, 0..n, (1usize..4).prop_map(|w| w as f64)), 0..60);
        (pharmacy, edges)
    })
}

/// The builder for nodes `n{i}.com` (pharmacy or external per flag)
/// linked by `edges` in insertion order, self-links dropped — unfrozen,
/// so a test can splice more links on before freezing.
fn build_weighted(pharmacy: &[bool], edges: &[(usize, usize, f64)]) -> GraphBuilder {
    let mut builder = GraphBuilder::new();
    for (i, &is_pharmacy) in pharmacy.iter().enumerate() {
        let name = format!("n{i}.com");
        if is_pharmacy {
            builder.add_pharmacy(&name);
        } else {
            builder.add_external(&name);
        }
    }
    for &(a, b, w) in edges {
        if a != b {
            builder.add_link(a as NodeId, &format!("n{b}.com"), w);
        }
    }
    builder
}

/// Seed ids selected by a random bit vector, clipped to the node range.
fn seeds_from_bits(n: usize, bits: &[bool]) -> Vec<NodeId> {
    (0..n as NodeId)
        .filter(|&i| bits.get(i as usize).copied().unwrap_or(false))
        .collect()
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Dense push-order reference for the three kernels: an n×n weight
/// matrix (`w[u * n + v]` is the merged weight of `u → v`), with no
/// sorting, transposing, or blocking to get wrong.
struct Dense {
    n: usize,
    w: Vec<f64>,
}

impl Dense {
    /// Fills the matrix by `+=` in insertion order, self-links dropped.
    fn new(n: usize, edges: &[(usize, usize, f64)]) -> Dense {
        let mut w = vec![0.0; n * n];
        for &(a, b, weight) in edges {
            if a != b {
                w[a * n + b] += weight;
            }
        }
        Dense { n, w }
    }

    fn transposed(&self) -> Dense {
        let n = self.n;
        let w = (0..n * n).map(|i| self.w[(i % n) * n + i / n]).collect();
        Dense { n, w }
    }

    /// `t ← α·(acc + dangling·d) + (1−α)·d`, pushing over ascending
    /// source, then ascending target; row sums in ascending target
    /// order. `skip_zero` drops zero-mass sources (TrustRank's
    /// short-circuit; PageRank has none).
    fn propagate(&self, d: &[f64], skip_zero: bool, cfg: &TrustRankConfig) -> Vec<f64> {
        let n = self.n;
        let out: Vec<f64> = (0..n)
            .map(|u| self.w[u * n..(u + 1) * n].iter().sum())
            .collect();
        let mut t = d.to_vec();
        for _ in 0..cfg.iterations {
            let mut acc = vec![0.0; n];
            let mut dangling = 0.0;
            for u in 0..n {
                if skip_zero && t[u] == 0.0 {
                    continue;
                }
                if out[u] == 0.0 {
                    dangling += t[u];
                    continue;
                }
                for v in 0..n {
                    if self.w[u * n + v] > 0.0 {
                        acc[v] += t[u] * self.w[u * n + v] / out[u];
                    }
                }
            }
            for v in 0..n {
                t[v] = cfg.alpha * (acc[v] + dangling * d[v]) + (1.0 - cfg.alpha) * d[v];
            }
        }
        t
    }

    fn trust_rank(&self, seeds: &[NodeId], cfg: &TrustRankConfig) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        if seeds.is_empty() {
            return d;
        }
        for &s in seeds {
            d[s as usize] += 1.0 / seeds.len() as f64;
        }
        self.propagate(&d, true, cfg)
    }

    fn pagerank(&self, cfg: &TrustRankConfig) -> Vec<f64> {
        self.propagate(&vec![1.0 / self.n as f64; self.n], false, cfg)
    }

    fn anti_trust_rank(&self, seeds: &[NodeId], cfg: &TrustRankConfig) -> Vec<f64> {
        self.transposed().trust_rank(seeds, cfg)
    }
}

proptest! {
    /// Trust scores are non-negative and sum to at most 1 on any graph
    /// with any seed set.
    #[test]
    fn trustrank_mass_conserved(
        (n, edges) in random_graph(),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
    ) {
        let g = build(n, &edges);
        let seeds: Vec<NodeId> = (0..n as NodeId)
            .filter(|&i| seed_bits.get(i as usize).copied().unwrap_or(false))
            .collect();
        let t = g.trust_rank(&seeds, &TrustRankConfig::default());
        prop_assert_eq!(t.len(), n);
        for &x in &t {
            prop_assert!(x >= 0.0);
            prop_assert!(x.is_finite());
        }
        let sum: f64 = t.iter().sum();
        prop_assert!(sum <= 1.0 + 1e-9, "sum = {sum}");
        if !seeds.is_empty() {
            prop_assert!(sum > 0.0);
        }
    }

    /// Nodes unreachable from the seed set receive exactly zero trust.
    #[test]
    fn unreachable_nodes_zero((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let seeds = vec![0 as NodeId];
        let t = g.trust_rank(&seeds, &TrustRankConfig::default());
        // BFS reachability from node 0.
        let mut reachable = vec![false; n];
        reachable[0] = true;
        let mut queue = vec![0 as NodeId];
        while let Some(u) = queue.pop() {
            for (v, _) in g.out_edges(u) {
                if !reachable[v as usize] {
                    reachable[v as usize] = true;
                    queue.push(v);
                }
            }
        }
        for (i, &r) in reachable.iter().enumerate() {
            if !r {
                prop_assert_eq!(t[i], 0.0, "unreachable node {} has trust", i);
            }
        }
    }

    /// PageRank sums to 1 on any non-empty graph and assigns every node a
    /// positive score (teleportation guarantees it).
    #[test]
    fn pagerank_sums_to_one((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let r = g.pagerank(&TrustRankConfig::default());
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        for &x in &r {
            prop_assert!(x > 0.0);
        }
    }

    /// Graph construction: parallel links merge, node count equals the
    /// number of distinct domains.
    #[test]
    fn graph_counts((n, edges) in random_graph()) {
        let g = build(n, &edges);
        prop_assert_eq!(g.node_count(), n);
        let distinct: std::collections::HashSet<(usize, usize)> = edges
            .iter()
            .filter(|&&(a, b)| a != b)
            .copied()
            .collect();
        prop_assert_eq!(g.edge_count(), distinct.len());
    }

    /// The three CSR kernels reproduce the dense push-order reference
    /// **bit for bit** on any weighted graph with duplicate links —
    /// freezing is a representation change, never a numeric one.
    #[test]
    fn csr_kernels_match_dense_reference_bit_for_bit(
        (pharmacy, edges) in random_weighted_graph(),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
    ) {
        let n = pharmacy.len();
        let csr = build_weighted(&pharmacy, &edges).freeze();
        let dense = Dense::new(n, &edges);
        prop_assert_eq!(csr.node_count(), n);
        prop_assert_eq!(csr.edge_count(), dense.w.iter().filter(|&&w| w > 0.0).count());
        let seeds = seeds_from_bits(n, &seed_bits);
        let config = TrustRankConfig::default();
        prop_assert_eq!(
            bits(&csr.trust_rank(&seeds, &config)),
            bits(&dense.trust_rank(&seeds, &config))
        );
        prop_assert_eq!(bits(&csr.pagerank(&config)), bits(&dense.pagerank(&config)));
        prop_assert_eq!(
            bits(&csr.anti_trust_rank(&seeds, &config)),
            bits(&dense.anti_trust_rank(&seeds, &config))
        );
    }

    /// A splice/unsplice cycle on the overlay restores the exact frozen
    /// state: scores after unsplicing are bit-identical to the base
    /// graph's, and the spliced candidate is gone.
    #[test]
    fn overlay_splice_unsplice_round_trips(
        (pharmacy, edges) in random_weighted_graph(),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
        link_bits in prop::collection::vec(any::<bool>(), 2..20),
    ) {
        let n = pharmacy.len();
        let csr = build_weighted(&pharmacy, &edges).freeze();
        let seeds = seeds_from_bits(n, &seed_bits);
        let config = TrustRankConfig::default();
        let base = csr.trust_rank(&seeds, &config);

        let links: Vec<(String, f64)> = (0..n)
            .filter(|&i| link_bits.get(i).copied().unwrap_or(false))
            .map(|i| (format!("n{i}.com"), 1.0 + (i % 3) as f64))
            .collect();
        let mut overlay = SpliceOverlay::new(&csr);
        let candidate = overlay.splice_pharmacy("candidate.example", &links);
        prop_assert!(overlay.is_spliced());
        let spliced = overlay.trust_rank(&seeds, &config);
        prop_assert_eq!(spliced.len(), n + 1);
        prop_assert_eq!(candidate as usize, n);

        overlay.unsplice();
        prop_assert!(!overlay.is_spliced());
        prop_assert_eq!(overlay.node_count(), csr.node_count());
        prop_assert_eq!(overlay.node("candidate.example"), None);
        prop_assert_eq!(bits(&overlay.trust_rank(&seeds, &config)), bits(&base));
    }

    /// Anti-trust parity on adversarially-shaped graphs: the CSR kernel,
    /// the transposed-graph trust kernel, and the unspliced overlay all
    /// reproduce the dense reference's anti-trust **bit for bit**
    /// on graphs with *forced* dangling structure — `cut` nodes lose
    /// every in- and out-edge, so they are dangling under both
    /// propagation directions — and bad-seed sets drawn to overlap the
    /// cut set (seeds that are themselves dangling) and to be reused as
    /// trust seeds (good/bad seed overlap).
    #[test]
    fn anti_trust_parity_with_dangling_and_overlapping_seeds(
        (pharmacy, edges) in random_weighted_graph(),
        cut in prop::collection::vec(0usize..20, 1..4),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
    ) {
        let n = pharmacy.len();
        let cut: Vec<usize> = cut.into_iter().map(|c| c % n).collect();
        let edges: Vec<(usize, usize, f64)> = edges
            .into_iter()
            .filter(|&(a, b, _)| !cut.contains(&a) && !cut.contains(&b))
            .collect();
        let csr = build_weighted(&pharmacy, &edges).freeze();
        let dense = Dense::new(n, &edges);
        // Bad seeds: the random draw plus every cut node, so the seed
        // set always overlaps the dangling set.
        let mut bad = seeds_from_bits(n, &seed_bits);
        for &c in &cut {
            bad.push(c as NodeId);
        }
        bad.sort_unstable();
        bad.dedup();
        let cfg = TrustRankConfig::default();
        let want = dense.anti_trust_rank(&bad, &cfg);
        prop_assert_eq!(bits(&csr.anti_trust_rank(&bad, &cfg)), bits(&want));
        prop_assert_eq!(bits(&csr.transposed().trust_rank(&bad, &cfg)), bits(&want));
        let ov = SpliceOverlay::new(&csr);
        prop_assert_eq!(bits(&ov.anti_trust_rank(&bad, &cfg)), bits(&want));
        // The same (overlapping) seed set as *trust* seeds: forward and
        // reversed propagation stay independently bit-identical.
        prop_assert_eq!(
            bits(&csr.trust_rank(&bad, &cfg)),
            bits(&dense.trust_rank(&bad, &cfg))
        );
    }

    /// Random *attack* churn for the anti-trust path: each splice is a
    /// candidate wiring itself into the graph (the link-farm access
    /// pattern), and after every splice the incremental anti-trust
    /// replay must match the full overlay kernel — bit-identical in
    /// exact mode, within the documented bound in tolerance mode,
    /// bit-identical through the zero-cap fallback — while the full
    /// kernel itself is pinned against freezing the overlaid graph from
    /// scratch. After every unsplice the replay reproduces the base
    /// anti-trust bits.
    #[test]
    fn anti_incremental_matches_full_over_random_attack_churn(
        (pharmacy, edges) in random_weighted_graph(),
        bad_bits in prop::collection::vec(any::<bool>(), 2..20),
        churn in prop::collection::vec(
            ((0usize..24), prop::collection::vec((0usize..24, 1usize..4), 0..6)),
            1..8,
        ),
    ) {
        let n = pharmacy.len();
        let csr = build_weighted(&pharmacy, &edges).freeze();
        let bad = seeds_from_bits(n, &bad_bits);
        let cfg = TrustRankConfig::default();
        let traj = TrustTrajectory::compute(&csr.transposed(), &bad, &cfg);
        let exact = IncrementalConfig { tolerance: 0.0, max_frontier: n + 64 };
        let loose = IncrementalConfig { tolerance: 1e-9, max_frontier: n + 64 };
        let capped = IncrementalConfig { tolerance: 0.0, max_frontier: 0 };
        let bound = loose.tolerance * loose.max_frontier as f64 / (1.0 - cfg.alpha);
        let mut overlay = SpliceOverlay::new(&csr);
        for (dom, links) in churn {
            let domain = format!("n{dom}.com");
            let links: Vec<(String, f64)> = links
                .iter()
                .map(|&(t, w)| (format!("n{t}.com"), w as f64))
                .collect();
            overlay.splice_pharmacy(&domain, &links);
            let full = overlay.anti_trust_rank(&bad, &cfg);
            // Pin the full overlay kernel against a from-scratch freeze
            // of the overlaid graph: the base links, then the candidate's
            // (same ids and merge order by construction).
            let mut spliced = build_weighted(&pharmacy, &edges);
            let node = spliced.add_pharmacy(&domain);
            for (target, w) in links.iter().filter(|(t, _)| *t != domain) {
                spliced.add_link(node, target, *w);
            }
            let rebuilt = spliced.freeze();
            prop_assert_eq!(bits(&rebuilt.anti_trust_rank(&bad, &cfg)), bits(&full));
            let inc = overlay.anti_trust_rank_incremental(&traj, &exact);
            prop_assert_eq!(bits(&inc.scores), bits(&full));
            let approx = overlay.anti_trust_rank_incremental(&traj, &loose);
            for (a, b) in approx.scores.iter().zip(&full) {
                prop_assert!((a - b).abs() <= bound, "{a} vs {b} beyond {bound}");
            }
            let fb = overlay.anti_trust_rank_incremental(&traj, &capped);
            prop_assert_eq!(bits(&fb.scores), bits(&full));
            overlay.unsplice();
            let reset = overlay.anti_trust_rank_incremental(&traj, &exact);
            prop_assert_eq!(bits(&reset.scores), bits(traj.final_scores()));
        }
    }

    /// Random churn: interleaved splice/unsplice sequences over one
    /// overlay and one recorded trajectory. After every splice the
    /// incremental kernel must match the full recompute — bit-identical
    /// in exact mode, within the documented `tolerance·F/(1−α)` bound in
    /// tolerance mode, and bit-identical again through the zero-cap
    /// fallback path; after every unsplice it must reproduce the base
    /// trajectory's final bits.
    #[test]
    fn incremental_matches_full_over_random_churn(
        (pharmacy, edges) in random_weighted_graph(),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
        churn in prop::collection::vec(
            ((0usize..24), prop::collection::vec((0usize..24, 1usize..4), 0..6)),
            1..8,
        ),
    ) {
        let n = pharmacy.len();
        let csr = build_weighted(&pharmacy, &edges).freeze();
        let seeds = seeds_from_bits(n, &seed_bits);
        let cfg = TrustRankConfig::default();
        let traj = TrustTrajectory::compute(&csr, &seeds, &cfg);
        let exact = IncrementalConfig { tolerance: 0.0, max_frontier: n + 64 };
        let loose = IncrementalConfig { tolerance: 1e-9, max_frontier: n + 64 };
        let capped = IncrementalConfig { tolerance: 0.0, max_frontier: 0 };
        let bound = loose.tolerance * loose.max_frontier as f64 / (1.0 - cfg.alpha);
        let mut overlay = SpliceOverlay::new(&csr);
        // Domain indices range past `n`, so splices mix preexisting
        // nodes (replaced rows, dangling flips) with fresh ones
        // (appended nodes); links include self-links and duplicates.
        for (dom, links) in churn {
            let domain = format!("n{dom}.com");
            let links: Vec<(String, f64)> = links
                .iter()
                .map(|&(t, w)| (format!("n{t}.com"), w as f64))
                .collect();
            overlay.splice_pharmacy(&domain, &links);
            let full = overlay.trust_rank(&seeds, &cfg);
            let inc = overlay.trust_rank_incremental(&traj, &exact);
            prop_assert_eq!(bits(&inc.scores), bits(&full));
            let approx = overlay.trust_rank_incremental(&traj, &loose);
            for (a, b) in approx.scores.iter().zip(&full) {
                prop_assert!((a - b).abs() <= bound, "{a} vs {b} beyond {bound}");
            }
            let fb = overlay.trust_rank_incremental(&traj, &capped);
            prop_assert_eq!(bits(&fb.scores), bits(&full));
            overlay.unsplice();
            let reset = overlay.trust_rank_incremental(&traj, &exact);
            prop_assert_eq!(bits(&reset.scores), bits(traj.final_scores()));
        }
    }
}
