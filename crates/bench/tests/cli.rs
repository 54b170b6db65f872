//! Black-box tests of the `repro` binary's argument handling: every
//! value-taking flag reports a uniform "missing value" error when the
//! command line ends at the flag, and every malformed value names the
//! flag's accepted range — all on exit code 2, before any expensive
//! corpus work starts.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("PHARMAVERIFY_SCALE")
        .env_remove("PHARMAVERIFY_TRACE")
        .output()
        .expect("binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).to_string()
}

/// Every value-taking flag of the harness.
const VALUE_FLAGS: &[&str] = &[
    "--scale",
    "--table",
    "--figure",
    "--jobs",
    "--fault-rate",
    "--trace",
    "--serve-workload",
    "--serve-workers",
    "--online-waves",
    "--web-domains",
    "--attack",
    "--attack-strength",
    "--federation",
    "--staleness-budget",
    "--fast-confidence",
];

#[test]
fn trailing_flag_without_value_exits_two_with_uniform_message() {
    for flag in VALUE_FLAGS {
        let out = run(&[flag]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag}: expected exit 2, got {:?}",
            out.status.code()
        );
        let err = stderr(&out);
        assert!(
            err.contains(&format!("missing value for '{flag}'")),
            "{flag}: stderr was {err:?}"
        );
    }
}

#[test]
fn bad_scale_is_rejected() {
    let out = run(&["--scale", "huge"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown scale 'huge'"), "{err:?}");
    assert!(err.contains("small|medium|paper"), "{err:?}");
}

#[test]
fn bad_table_numbers_are_rejected() {
    for value in ["0", "18", "twelve", "-1"] {
        let out = run(&["--table", value]);
        assert_eq!(out.status.code(), Some(2), "--table {value}");
        assert!(
            stderr(&out).contains("--table expects a number in 1..=17"),
            "--table {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_figure_numbers_are_rejected() {
    for value in ["1", "4", "pie"] {
        let out = run(&["--figure", value]);
        assert_eq!(out.status.code(), Some(2), "--figure {value}");
        assert!(
            stderr(&out).contains("--figure expects 3"),
            "--figure {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_job_counts_are_rejected() {
    for value in ["0", "-2", "many"] {
        let out = run(&["--jobs", value]);
        assert_eq!(out.status.code(), Some(2), "--jobs {value}");
        assert!(
            stderr(&out).contains("--jobs expects a positive worker count"),
            "--jobs {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_fault_rates_are_rejected() {
    for value in ["1.5", "-0.1", "often"] {
        let out = run(&["--fault-rate", value]);
        assert_eq!(out.status.code(), Some(2), "--fault-rate {value}");
        assert!(
            stderr(&out).contains("--fault-rate expects a number in [0, 1]"),
            "--fault-rate {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_serve_workloads_are_rejected() {
    for value in ["0", "-5", "lots", "2.5"] {
        let out = run(&["--serve-workload", value]);
        assert_eq!(out.status.code(), Some(2), "--serve-workload {value}");
        assert!(
            stderr(&out).contains("--serve-workload expects a positive request count"),
            "--serve-workload {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_serve_worker_counts_are_rejected() {
    for value in ["0", "-1", "pool"] {
        let out = run(&["--serve-workers", value]);
        assert_eq!(out.status.code(), Some(2), "--serve-workers {value}");
        assert!(
            stderr(&out).contains("--serve-workers expects a positive worker count"),
            "--serve-workers {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_online_wave_counts_are_rejected() {
    for value in ["0", "-2", "forever", "1.5"] {
        let out = run(&["--online-waves", value]);
        assert_eq!(out.status.code(), Some(2), "--online-waves {value}");
        assert!(
            stderr(&out).contains("--online-waves expects a positive wave count"),
            "--online-waves {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_web_domain_counts_are_rejected() {
    for value in ["0", "-100", "huge", "1e6"] {
        let out = run(&["--web-domains", value]);
        assert_eq!(out.status.code(), Some(2), "--web-domains {value}");
        assert!(
            stderr(&out).contains("--web-domains expects a positive domain count"),
            "--web-domains {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_attack_kinds_are_rejected() {
    for value in ["ddos", "LINK-FARM", "linkfarm", ""] {
        let out = run(&["--attack", value]);
        assert_eq!(out.status.code(), Some(2), "--attack {value}");
        assert!(
            stderr(&out).contains(&format!(
                "unknown attack '{value}' (link-farm|cloak|mimicry)"
            )),
            "--attack {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_attack_strengths_are_rejected() {
    for value in ["1.5", "-0.1", "strong", "NaN"] {
        let out = run(&["--attack-strength", value]);
        assert_eq!(out.status.code(), Some(2), "--attack-strength {value}");
        assert!(
            stderr(&out).contains("--attack-strength expects a number in [0, 1]"),
            "--attack-strength {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_federation_counts_are_rejected() {
    for value in ["0", "-5", "lots", "2.5"] {
        let out = run(&["--federation", value]);
        assert_eq!(out.status.code(), Some(2), "--federation {value}");
        assert!(
            stderr(&out).contains("--federation expects a positive request count"),
            "--federation {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_staleness_budgets_are_rejected() {
    for value in ["-1", "soon", "2.5", "1e3"] {
        let out = run(&["--staleness-budget", value]);
        assert_eq!(out.status.code(), Some(2), "--staleness-budget {value}");
        assert!(
            stderr(&out).contains("--staleness-budget expects a microsecond count"),
            "--staleness-budget {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_fast_confidences_are_rejected() {
    for value in ["1.5", "-0.1", "sure", "NaN"] {
        let out = run(&["--fast-confidence", value]);
        assert_eq!(out.status.code(), Some(2), "--fast-confidence {value}");
        assert!(
            stderr(&out).contains("--fast-confidence expects a number in [0, 1]"),
            "--fast-confidence {value}: {:?}",
            stderr(&out)
        );
    }
}

#[test]
fn federated_run_appends_federation_section_as_pure_suffix() {
    let plain = run(&["--scale", "small", "--table", "2"]);
    assert!(plain.status.success(), "{:?}", stderr(&plain));
    let federated = run(&[
        "--scale",
        "small",
        "--table",
        "2",
        "--federation",
        "32",
        "--staleness-budget",
        "400",
        "--fast-confidence",
        "0.25",
    ]);
    assert!(federated.status.success(), "{:?}", stderr(&federated));
    assert!(
        federated.stdout.starts_with(&plain.stdout),
        "federated report does not start with the plain report"
    );
    let suffix = String::from_utf8_lossy(&federated.stdout[plain.stdout.len()..]).to_string();
    assert!(
        suffix.contains("Federation: tiered verdict replay (32 requests"),
        "suffix was {suffix:?}"
    );
    assert!(suffix.contains("answered before slow path"), "{suffix:?}");
}

#[test]
fn unwritable_store_checkpoint_exits_one_without_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "small", "--table", "2", "--federation", "48"])
        .env("TMPDIR", "/nonexistent")
        .env_remove("PHARMAVERIFY_SCALE")
        .env_remove("PHARMAVERIFY_TRACE")
        .output()
        .expect("binary runs");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr was {err:?}");
    assert!(
        err.contains("[repro] replay store checkpoint failed: I/O error at /nonexistent/"),
        "stderr was {err:?}"
    );
    assert!(!err.contains("panicked"), "stderr was {err:?}");
}

#[test]
fn attacked_run_appends_adversarial_section_as_pure_suffix() {
    let plain = run(&["--scale", "small", "--table", "2"]);
    assert!(plain.status.success(), "{:?}", stderr(&plain));
    let attacked = run(&[
        "--scale",
        "small",
        "--table",
        "2",
        "--attack",
        "link-farm",
        "--attack-strength",
        "0.5",
    ]);
    assert!(attacked.status.success(), "{:?}", stderr(&attacked));
    assert!(
        attacked.stdout.starts_with(&plain.stdout),
        "attacked report does not start with the plain report"
    );
    assert!(attacked.stdout.len() > plain.stdout.len());
    let suffix = String::from_utf8_lossy(&attacked.stdout[plain.stdout.len()..]).to_string();
    assert!(
        suffix.contains("Adversarial: link-farm attack, spam-mass defense off vs on"),
        "suffix was {suffix:?}"
    );
}

#[test]
fn unknown_arguments_are_rejected() {
    let out = run(&["--tables", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown argument '--tables'"));
}

#[test]
fn help_short_circuits_without_running() {
    for help in ["--help", "-h"] {
        let out = run(&[help]);
        assert!(out.status.success(), "{help}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("--trace PATH"), "{help}: {text}");
        assert!(text.contains("--fault-rate F"), "{help}: {text}");
        assert!(text.contains("--serve-workload N"), "{help}: {text}");
        assert!(text.contains("--serve-workers W"), "{help}: {text}");
        assert!(text.contains("--online-waves N"), "{help}: {text}");
        assert!(text.contains("--web-domains N"), "{help}: {text}");
        assert!(
            text.contains("--attack link-farm|cloak|mimicry"),
            "{help}: {text}"
        );
        assert!(text.contains("--attack-strength S"), "{help}: {text}");
        assert!(text.contains("--federation N"), "{help}: {text}");
        assert!(text.contains("--staleness-budget M"), "{help}: {text}");
        assert!(text.contains("--fast-confidence F"), "{help}: {text}");
    }
}

#[test]
fn unwritable_trace_path_fails_after_reporting() {
    let out = run(&[
        "--scale",
        "small",
        "--table",
        "2",
        "--trace",
        "/nonexistent-dir/trace.json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("failed to write trace"),
        "{:?}",
        stderr(&out)
    );
}
