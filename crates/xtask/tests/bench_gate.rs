//! Self-test of the `cargo xtask bench` regression gate against two
//! fixture reports: a baseline and a run where one kernel's throughput
//! halved. The gate must flag exactly the halved bench, tolerate
//! within-noise drift, leave new benches alone, and fail on a retired
//! bench unless `CHANGES.md` declares its removal.

use xtask::bench_gate::{
    gate, latest_baseline, parse_throughputs, regressions, vanished, TOLERANCE,
};

const BASELINE: &str = include_str!("bench_fixtures/baseline.json");
const REGRESSED: &str = include_str!("bench_fixtures/regressed.json");

#[test]
fn parser_extracts_name_throughput_pairs() {
    let rows = parse_throughputs(BASELINE);
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[0].0, "csr/trust_rank");
    assert!((rows[0].1 - 142_289_877.3).abs() < 1.0);
    assert_eq!(rows[3].0, "legacy/retired_bench");
}

#[test]
fn gate_flags_only_the_halved_bench() {
    let baseline = parse_throughputs(BASELINE);
    let fresh = parse_throughputs(REGRESSED);
    let failures = regressions(&baseline, &fresh, TOLERANCE);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].starts_with("csr/trust_rank:"),
        "{}",
        failures[0]
    );
    // Within-noise drift (pagerank −2%, anti_trust_rank +10%) passes,
    // and the retired/new benches are not shared so they never count.
    assert!(!failures.iter().any(|f| f.contains("pagerank")));
    assert!(!failures.iter().any(|f| f.contains("retired")));
    assert!(!failures.iter().any(|f| f.contains("brand_new")));
}

#[test]
fn gate_passes_a_report_against_itself() {
    let rows = parse_throughputs(BASELINE);
    assert!(regressions(&rows, &rows, TOLERANCE).is_empty());
}

#[test]
fn latest_baseline_picks_highest_number_and_skips_the_fresh_report() {
    let dir = std::env::temp_dir().join(format!("pharmaverify-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for name in [
        "BENCH_2.json",
        "BENCH_10.json",
        "BENCH_11.json",
        "notes.json",
    ] {
        std::fs::write(dir.join(name), BASELINE).expect("write");
    }
    let fresh = dir.join("BENCH_11.json");
    let picked = latest_baseline(&dir, &fresh).expect("baseline");
    assert_eq!(picked, dir.join("BENCH_10.json"));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn undeclared_vanished_row_fails() {
    let baseline = parse_throughputs(BASELINE);
    let fresh = parse_throughputs(REGRESSED);
    // A mention without backticks is not a declaration.
    let failures = vanished(&baseline, &fresh, "- retired legacy/retired_bench\n");
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].starts_with("legacy/retired_bench:"),
        "{}",
        failures[0]
    );
}

#[test]
fn declared_vanished_row_passes() {
    let baseline = parse_throughputs(BASELINE);
    let fresh = parse_throughputs(REGRESSED);
    let declared = "- Retired `legacy/retired_bench` with its kernel.\n";
    assert!(vanished(&baseline, &fresh, declared).is_empty());
}

#[test]
fn gate_reads_removal_declarations_from_changes_md() {
    let dir = std::env::temp_dir().join(format!("pharmaverify-vanish-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("BENCH_1.json"), BASELINE).expect("write");
    let fresh = dir.join("BENCH_2.json");
    let retired: String = BASELINE
        .lines()
        .filter(|l| !l.contains("legacy/retired_bench"))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&fresh, retired).expect("write");
    let undeclared = gate(&dir, &fresh).expect_err("undeclared removal must fail");
    assert!(undeclared.contains("legacy/retired_bench"), "{undeclared}");
    std::fs::write(
        dir.join("CHANGES.md"),
        "- Retired `legacy/retired_bench`.\n",
    )
    .expect("write");
    assert!(gate(&dir, &fresh).is_ok());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
