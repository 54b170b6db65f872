//! Pins every row of the three replay sections — Serving (60 requests),
//! Online (8 waves) and Federation (60 requests) — at `--scale small`
//! and the report seed. The determinism audit only compares one worker
//! count against another, so a change that shifts a count the same way
//! at every worker count passes it; these rows catch that. All three
//! sections run in one process, on the shared global registry, exactly
//! as the report renders them.

use std::process::Command;

const SERVING: (&str, &[(&str, u64)]) = (
    "Serving: workload replay (60 requests, seed 20180326)",
    &[
        ("requests", 60),
        ("accepted", 60),
        ("rejected (overloaded)", 0),
        ("shed (breaker)", 0),
        ("cache hits", 25),
        ("cache misses", 35),
        ("cache evictions", 10),
        ("cache TTL expiries", 1),
        ("batches", 10),
        ("verdicts: legitimate", 13),
        ("verdicts: illegitimate", 13),
        ("verdicts: degraded", 0),
        ("errors: empty site", 34),
        ("errors: unreachable", 0),
        ("errors: other", 0),
    ],
);

const ONLINE: (&str, &[(&str, u64)]) = (
    "Online: drift-triggered retrain (8 waves, seed 20180326)",
    &[
        ("requests", 128),
        ("accepted", 128),
        ("responses", 128),
        ("drift windows", 3),
        ("drift triggers", 1),
        ("retrains", 1),
        ("model swaps", 1),
        ("final model version", 1),
        ("verdicts on v0", 66),
        ("verdicts on swapped models", 12),
        ("verdicts: legitimate", 25),
        ("verdicts: illegitimate", 53),
    ],
);

const FEDERATION: (&str, &[(&str, u64)]) = (
    "Federation: tiered verdict replay (60 requests, seed 20180326)",
    &[
        ("requests", 60),
        ("tier cache: hits", 24),
        ("tier cache: fallthroughs", 36),
        ("tier store: hits", 2),
        ("tier store: stale", 0),
        ("tier store: fallthroughs", 34),
        ("tier fast: hits", 2),
        ("tier fast: fallthroughs", 15),
        ("tier fast: errors answered", 17),
        ("tier slow: verdicts", 15),
        ("answered before slow path", 45),
        ("verdicts via cache", 7),
        ("verdicts via store", 2),
        ("verdicts via text-only", 2),
        ("verdicts via graph-spliced", 15),
        ("fast vs slow: agree", 15),
        ("fast vs slow: disagree", 0),
        ("store records", 14),
        ("store persisted at restart", 7),
        ("store reloaded after restart", 7),
        ("errors: empty site", 34),
        ("errors: unreachable", 0),
        ("errors: other", 0),
    ],
);

/// The `Metric | Count` rows of the section titled `title`: the lines
/// after its header and rule, up to the blank line that ends it.
fn section_rows(report: &str, title: &str) -> Vec<(String, u64)> {
    let mut lines = report.lines().skip_while(|line| *line != title);
    assert_eq!(lines.next(), Some(title), "no section {title:?}");
    lines
        .skip(2)
        .take_while(|line| !line.trim().is_empty())
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            match cells.as_slice() {
                ["", label, count, ""] => (
                    label.to_string(),
                    count
                        .parse()
                        .unwrap_or_else(|_| panic!("count in {line:?}")),
                ),
                _ => panic!("not a table row: {line:?}"),
            }
        })
        .collect()
}

#[test]
fn replay_sections_match_pinned_rows() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "small", "--table", "2"])
        .args(["--serve-workload", "60", "--online-waves", "8"])
        .args(["--federation", "60", "--serve-workers", "2"])
        .env_remove("PHARMAVERIFY_SCALE")
        .env_remove("PHARMAVERIFY_TRACE")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    for (title, rows) in [SERVING, ONLINE, FEDERATION] {
        let expected: Vec<(String, u64)> = rows.iter().map(|&(l, n)| (l.to_string(), n)).collect();
        assert_eq!(section_rows(&report, title), expected, "section {title:?}");
    }
}
