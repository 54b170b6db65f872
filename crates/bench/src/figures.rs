//! Figure generators.
//!
//! Figure 1 (storefront screenshots) is not reproducible as data; the
//! quickstart example prints a front page of each class instead. Figure 2
//! is a process diagram, implemented end to end by `pharmaverify-ngg`.
//! Figure 3 — the TrustRank illustration — is reproduced here as the two
//! series of node trust values (initial seed state, converged state).

use pharmaverify_core::report::Table;
use pharmaverify_net::trustrank_demo;

/// Figure 3: trust values before and after TrustRank on the good/bad
/// demo network.
pub fn figure3() -> Table {
    let (graph, seeds, initial, converged) = trustrank_demo();
    let mut t = Table::new(
        "Figure 3: TrustRank illustration - node trust before/after propagation",
        &["node", "kind", "seed", "initial", "converged"],
    );
    for id in graph.nodes() {
        let idx = id as usize;
        // Nodes 0–3 are the "good" (white) cluster, 4–6 the "bad" (black)
        // chain, by construction of the demo.
        let kind = if idx < 4 { "good" } else { "bad" };
        t.push_row(vec![
            graph.name(id).to_string(),
            kind.to_string(),
            if seeds.contains(&id) { "yes" } else { "" }.to_string(),
            format!("{:.3}", initial[idx]),
            format!("{:.3}", converged[idx]),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rendered Figure 3 rows: the report prints exactly these.
    const FIGURE3_ROWS: [[&str; 5]; 7] = [
        ["site0.example", "good", "yes", "1.000", "0.183"],
        ["site1.example", "good", "yes", "1.000", "0.179"],
        ["site2.example", "good", "", "0.000", "0.230"],
        ["site3.example", "good", "", "0.000", "0.194"],
        ["site4.example", "bad", "", "0.000", "0.083"],
        ["site5.example", "bad", "", "0.000", "0.071"],
        ["site6.example", "bad", "", "0.000", "0.059"],
    ];

    /// `to_bits` of the demo's converged TrustRank scores, which any
    /// representation of the graph must reproduce bit for bit.
    const FIGURE3_CONVERGED_BITS: [u64; 7] = [
        0x3fc7761b17a6a82e,
        0x3fc6e3da40976a59,
        0x3fcd79b9b44941e7,
        0x3fc8e0235a9c1948,
        0x3fb53d19760d6bcf,
        0x3fb232b27a3709fa,
        0x3fae511e82e95da4,
    ];

    #[test]
    fn figure3_matches_pinned_rows_and_bits() {
        assert_eq!(figure3().rows, FIGURE3_ROWS.map(|r| r.map(String::from)));
        let converged: Vec<u64> = trustrank_demo().3.iter().map(|x| x.to_bits()).collect();
        assert_eq!(converged, FIGURE3_CONVERGED_BITS);
    }
}
