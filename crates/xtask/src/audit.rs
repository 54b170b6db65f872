//! Determinism audit: the reproduction's headline guarantee is that the
//! whole experiment is a pure function of its seed — independent of
//! thread scheduling. The audit runs the table harness twice at the small
//! scale with the same seed, once single-threaded (`PHARMAVERIFY_JOBS=1`)
//! and once with four workers, and requires the two outputs to be
//! byte-identical — any hash-order leak, time dependence, or
//! thread-scheduling sensitivity shows up as a diff.
//!
//! The same double-run is then repeated with fault injection enabled
//! (`--fault-rate 0.2`): the injected fault universe is derived from the
//! corpus RNG, so a crawl that times out, retries, and trips circuit
//! breakers must still be a pure function of the seed. The faulted
//! output must additionally *start with* the fault-free output — the
//! robustness study is an appended section, never a perturbation of the
//! regular tables.
//!
//! Every run also writes an observability trace (`--trace`), and the
//! audit byte-compares the traces' *deterministic views* (the
//! `"deterministic"` object extracted by
//! [`pharmaverify_obs::deterministic_slice`]) across worker counts: the
//! metric registry and span tree must be as scheduling-independent as
//! the report itself. The fault-injected trace must *differ* from the
//! clean one — injected faults that leave no metric behind would mean
//! the crawl health instrumentation is dead.
//!
//! Finally the double-run is repeated with the serving engine enabled
//! (`--serve-workload 60`), once with `--serve-workers 1` and once with
//! `--serve-workers 4`: the "Serving" report section and the trace's
//! deterministic view (admission, batch, and cache counters; span
//! counts) must be byte-identical across *service* worker counts too —
//! the whole point of the service's determinism contract. The serving
//! section must also be a pure suffix of the fault-free output.
//!
//! The online double-run (`--online-waves 8`, `--serve-workers 1` vs
//! `4`) drives the drift-monitored replay: the workload mix shifts
//! mid-replay, the drift monitor triggers a seeded retrain, and the
//! retrained model is hot-swapped through the registry while requests
//! keep flowing. The "Online" section — drift windows, triggers,
//! retrains, per-model-version verdict tallies — must be byte-identical
//! across service worker counts and a pure suffix of the fault-free
//! output: the swap protocol must not let scheduling touch a single
//! count. The audit also requires a nonzero final model version *and*
//! nonzero "verdicts on swapped models": a swap that no verdict was
//! served from would leave the hot-swapped model's answers out of the
//! byte-compare.
//!
//! The adversarial double-run (`--attack link-farm --attack-strength
//! 0.6`) sweeps a seeded link-farm attack over three strengths and
//! evaluates the spam-mass defense off vs. on at each. The attacked
//! corpora, the TrustRank/Anti-TrustRank kernels, and the CV folds are
//! all pure functions of the seed, so the appended "Adversarial"
//! section must be byte-identical across worker counts and a pure
//! suffix of the fault-free output.
//!
//! The web-tier double-run exercises the web-scale tier (`--scale web
//! --web-domains 12000`): the sharded generator streams twelve thousand
//! domains into the CSR builder and the block TrustRank kernel ranks the
//! frozen graph on 1 vs 4 workers. The whole report — paper tables plus
//! the appended "Scale" section — must be byte-identical across worker
//! counts, and must *start with* the plain fault-free output: the scale
//! study is a pure suffix too.
//!
//! The last double-run drives the tiered verdict federation
//! (`--federation 60`, `--serve-workers 1` vs `4`): every request walks
//! the cache → store → text-only → graph-spliced ladder, a mid-replay
//! restart persists and reloads the verdict store, and the appended
//! "Federation" section — per-tier hits and fallthroughs, verdicts by
//! provenance, fast-vs-slow agreement — must be byte-identical across
//! slow-path worker counts and a pure suffix of the fault-free output.
//! The audit additionally parses the section and requires the majority
//! of requests to have been answered before the slow path: a federation
//! that routes everything to the expensive tier would make the
//! byte-compare vacuous.

use std::path::Path;
use std::process::Command;

/// Outcome of one audit run.
#[derive(Debug)]
pub struct AuditReport {
    /// Bytes of fault-free harness output compared.
    pub bytes: usize,
    /// Bytes of fault-injected harness output compared.
    pub fault_bytes: usize,
    /// Bytes of deterministic trace view compared per fault-free run.
    pub trace_bytes: usize,
    /// Bytes of serve-workload harness output compared.
    pub serve_bytes: usize,
    /// Bytes of online (drift + hot-swap) harness output compared.
    pub online_bytes: usize,
    /// Bytes of adversarial (attack-sweep) harness output compared.
    pub attack_bytes: usize,
    /// Bytes of web-tier harness output compared.
    pub web_bytes: usize,
    /// Bytes of federation (tiered replay) harness output compared.
    pub federation_bytes: usize,
}

/// Arguments of the harness invocation (after `cargo`).
const REPRO_ARGS: &[&str] = &[
    "run",
    "--release",
    "-q",
    "-p",
    "pharmaverify-bench",
    "--bin",
    "repro",
    "--",
    "--scale",
    "small",
];

/// Fault rate of the injected-fault audit runs.
const FAULT_ARGS: &[&str] = &["--fault-rate", "0.2"];

/// Request count of the serve-workload audit runs (the worker count is
/// the variable under test).
const SERVE_SERIAL_ARGS: &[&str] = &["--serve-workload", "60", "--serve-workers", "1"];
const SERVE_PARALLEL_ARGS: &[&str] = &["--serve-workload", "60", "--serve-workers", "4"];

/// Wave count of the online audit runs — enough waves that the mix
/// shift closes a drifted window, forces a retrain+swap, and then
/// serves verdicts from the swapped-in model.
const ONLINE_SERIAL_ARGS: &[&str] = &["--online-waves", "8", "--serve-workers", "1"];
const ONLINE_PARALLEL_ARGS: &[&str] = &["--online-waves", "8", "--serve-workers", "4"];

/// Title prefixes of the sections the audit parses.
const ONLINE_TITLE: &str = "Online: drift-triggered retrain";
const FEDERATION_TITLE: &str = "Federation: tiered verdict replay";

/// Attack knobs of the adversarial audit runs — a mid-strength link
/// farm, enough to exercise the defended evaluation without dominating
/// the audit's runtime.
const ATTACK_ARGS: &[&str] = &["--attack", "link-farm", "--attack-strength", "0.6"];

/// Domain count of the web-tier audit runs — big enough to shard
/// (default shard size 8192), small enough to keep the audit quick.
const WEB_ARGS: &[&str] = &["--scale", "web", "--web-domains", "12000"];

/// Request count of the federation audit runs (the slow-path worker
/// count is the variable under test).
const FEDERATION_SERIAL_ARGS: &[&str] = &["--federation", "60", "--serve-workers", "1"];
const FEDERATION_PARALLEL_ARGS: &[&str] = &["--federation", "60", "--serve-workers", "4"];

/// Runs the table harness serially and with four workers — first clean,
/// then under fault injection — and compares outputs byte-for-byte.
pub fn run(workspace_root: &Path) -> Result<AuditReport, String> {
    let (serial, serial_trace) = run_harness(workspace_root, "1", &[])?;
    let (parallel, parallel_trace) = run_harness(workspace_root, "4", &[])?;
    compare(&serial, &parallel, "fault-free")?;
    let det = compare_trace_views(&serial_trace, &parallel_trace, "fault-free")?;

    let (fault_serial, fault_serial_trace) = run_harness(workspace_root, "1", FAULT_ARGS)?;
    let (fault_parallel, fault_parallel_trace) = run_harness(workspace_root, "4", FAULT_ARGS)?;
    compare(&fault_serial, &fault_parallel, "fault-injected")?;
    let fault_det =
        compare_trace_views(&fault_serial_trace, &fault_parallel_trace, "fault-injected")?;
    if !fault_serial.starts_with(&serial) {
        return Err(
            "fault-injected output does not start with the fault-free output: \
             the robustness study must be a pure suffix"
                .to_string(),
        );
    }
    if fault_det == det {
        return Err(
            "fault-injected trace is identical to the fault-free trace: \
             injected faults left no metric behind, the crawl health \
             instrumentation is not recording"
                .to_string(),
        );
    }

    let (serve_serial, serve_serial_trace) = run_harness(workspace_root, "1", SERVE_SERIAL_ARGS)?;
    let (serve_parallel, serve_parallel_trace) =
        run_harness(workspace_root, "4", SERVE_PARALLEL_ARGS)?;
    compare(&serve_serial, &serve_parallel, "serve-workload")?;
    let serve_det =
        compare_trace_views(&serve_serial_trace, &serve_parallel_trace, "serve-workload")?;
    if !serve_serial.starts_with(&serial) {
        return Err(
            "serve-workload output does not start with the plain output: \
             the serving study must be a pure suffix"
                .to_string(),
        );
    }
    if serve_det == det {
        return Err("serve-workload trace is identical to the plain trace: the \
             serving engine left no metric behind, its instrumentation \
             is not recording"
            .to_string());
    }

    let (online_serial, online_serial_trace) =
        run_harness(workspace_root, "1", ONLINE_SERIAL_ARGS)?;
    let (online_parallel, online_parallel_trace) =
        run_harness(workspace_root, "4", ONLINE_PARALLEL_ARGS)?;
    compare(&online_serial, &online_parallel, "online")?;
    let online_det = compare_trace_views(&online_serial_trace, &online_parallel_trace, "online")?;
    if !online_serial.starts_with(&serial) {
        return Err("online output does not start with the plain output: \
             the online study must be a pure suffix"
            .to_string());
    }
    if online_det == det {
        return Err("online trace is identical to the plain trace: the drift \
             monitor and model registry left no metric behind, their \
             instrumentation is not recording"
            .to_string());
    }
    // Hot-swap smoke: the audited run must actually have drifted,
    // retrained, and swapped — a drift monitor that never fires would
    // make the byte-compare above vacuous.
    let online_text = String::from_utf8_lossy(&online_serial);
    if !online_text.contains(ONLINE_TITLE) {
        return Err("online run printed no \"Online\" section".to_string());
    }
    if !swap_happened(&online_text) {
        return Err(
            "online run never served a verdict from a hot-swapped model: \
             the drift monitor did not trigger a retrain, or no request \
             reached the swapped-in model, over the audited workload"
                .to_string(),
        );
    }

    let (attack_serial, attack_serial_trace) = run_harness(workspace_root, "1", ATTACK_ARGS)?;
    let (attack_parallel, attack_parallel_trace) = run_harness(workspace_root, "4", ATTACK_ARGS)?;
    compare(&attack_serial, &attack_parallel, "adversarial")?;
    let attack_det =
        compare_trace_views(&attack_serial_trace, &attack_parallel_trace, "adversarial")?;
    if !attack_serial.starts_with(&serial) {
        return Err("adversarial output does not start with the plain output: \
             the attack study must be a pure suffix"
            .to_string());
    }
    if attack_det == det {
        return Err(
            "adversarial trace is identical to the plain trace: the attack \
             generators and defended evaluation left no metric behind, \
             their instrumentation is not recording"
                .to_string(),
        );
    }
    if !String::from_utf8_lossy(&attack_serial).contains("Adversarial: ") {
        return Err("adversarial run printed no \"Adversarial\" section".to_string());
    }

    let (web_serial, web_serial_trace) = run_harness(workspace_root, "1", WEB_ARGS)?;
    let (web_parallel, web_parallel_trace) = run_harness(workspace_root, "4", WEB_ARGS)?;
    compare(&web_serial, &web_parallel, "web-tier")?;
    let web_det = compare_trace_views(&web_serial_trace, &web_parallel_trace, "web-tier")?;
    if web_det == det {
        return Err("web-tier trace is identical to the plain trace: the scale \
             build and rank phases left no metric behind, their \
             instrumentation is not recording"
            .to_string());
    }
    if !web_serial.starts_with(&serial) {
        return Err(
            "web-tier output does not start with the plain small output: \
             the scale study must be a pure suffix"
                .to_string(),
        );
    }
    if web_serial.len() <= serial.len() {
        return Err(
            "web-tier output appended no scale section: the `--scale web` \
             run printed nothing beyond the plain small report"
                .to_string(),
        );
    }

    let (fed_serial, fed_serial_trace) = run_harness(workspace_root, "1", FEDERATION_SERIAL_ARGS)?;
    let (fed_parallel, fed_parallel_trace) =
        run_harness(workspace_root, "4", FEDERATION_PARALLEL_ARGS)?;
    compare(&fed_serial, &fed_parallel, "federation")?;
    let fed_det = compare_trace_views(&fed_serial_trace, &fed_parallel_trace, "federation")?;
    if !fed_serial.starts_with(&serial) {
        return Err("federation output does not start with the plain output: \
             the federation study must be a pure suffix"
            .to_string());
    }
    if fed_det == det {
        return Err(
            "federation trace is identical to the plain trace: the tier \
             router left no metric behind, its instrumentation is not \
             recording"
                .to_string(),
        );
    }
    let fed_text = String::from_utf8_lossy(&fed_serial);
    if !fed_text.contains(FEDERATION_TITLE) {
        return Err("federation run printed no \"Federation\" section".to_string());
    }
    if !federation_majority_cheap(&fed_text) {
        return Err(
            "federation run routed most requests to the graph-spliced slow \
             path: the cheaper tiers (cache, store, text-only) must answer \
             the majority over the audited workload"
                .to_string(),
        );
    }

    Ok(AuditReport {
        bytes: serial.len(),
        fault_bytes: fault_serial.len(),
        trace_bytes: det.len(),
        serve_bytes: serve_serial.len(),
        online_bytes: online_serial.len(),
        attack_bytes: attack_serial.len(),
        web_bytes: web_serial.len(),
        federation_bytes: fed_serial.len(),
    })
}

/// The count in the `label` row of the rendered section whose title
/// starts with `title` (rows run to the blank line ending the section).
fn section_row(report: &str, title: &str, label: &str) -> Option<u64> {
    report
        .lines()
        .skip_while(|line| !line.starts_with(title))
        .skip(1)
        .take_while(|line| !line.trim().is_empty())
        .find_map(|line| {
            let mut cells = line.split('|').map(str::trim).filter(|c| !c.is_empty());
            if cells.next() != Some(label) {
                return None;
            }
            cells.next()?.parse::<u64>().ok()
        })
}

/// True when the rendered "Federation" section shows a strict majority
/// of requests answered before the slow path.
fn federation_majority_cheap(report: &str) -> bool {
    let row = |label| section_row(report, FEDERATION_TITLE, label);
    match (row("requests"), row("answered before slow path")) {
        (Some(requests), Some(cheap)) => cheap * 2 > requests,
        _ => false,
    }
}

/// True when the rendered "Online" section records a nonzero model
/// version and nonzero verdicts on swapped models — i.e. a
/// drift-triggered retrain was swapped in and then answered requests.
fn swap_happened(report: &str) -> bool {
    let row = |label| section_row(report, ONLINE_TITLE, label);
    row("final model version").is_some_and(|v| v > 0)
        && row("verdicts on swapped models").is_some_and(|v| v > 0)
}

/// Byte-compares the deterministic views of two rendered traces and
/// returns the (shared) view.
fn compare_trace_views(serial: &str, parallel: &str, mode: &str) -> Result<String, String> {
    let a = pharmaverify_obs::deterministic_slice(serial)
        .ok_or_else(|| format!("{mode} serial trace has no deterministic section"))?;
    let b = pharmaverify_obs::deterministic_slice(parallel)
        .ok_or_else(|| format!("{mode} 4-worker trace has no deterministic section"))?;
    compare(
        a.as_bytes(),
        b.as_bytes(),
        &format!("{mode} trace (deterministic view)"),
    )?;
    Ok(a.to_string())
}

fn compare(serial: &[u8], parallel: &[u8], mode: &str) -> Result<(), String> {
    if serial == parallel {
        return Ok(());
    }
    let at = serial
        .iter()
        .zip(parallel)
        .position(|(a, b)| a != b)
        .unwrap_or(serial.len().min(parallel.len()));
    let context =
        String::from_utf8_lossy(&serial[at.saturating_sub(40)..serial.len().min(at + 40)])
            .into_owned();
    Err(format!(
        "{mode} harness output differs between serial and 4-worker runs of the \
         same seed (lengths {} vs {}, first divergence at byte {at}, near {context:?})",
        serial.len(),
        parallel.len(),
    ))
}

/// Runs the harness once, returning `(stdout, rendered trace)`.
fn run_harness(
    workspace_root: &Path,
    jobs: &str,
    extra_args: &[&str],
) -> Result<(Vec<u8>, String), String> {
    // lint:allow(nondet): xtask is tooling; honoring cargo's own CARGO env is the documented protocol.
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let trace_path = std::env::temp_dir().join(format!(
        "pharmaverify-audit-{}-j{jobs}-f{}.trace.json",
        std::process::id(),
        extra_args.len()
    ));
    let output = Command::new(cargo)
        .args(REPRO_ARGS)
        .args(extra_args)
        .args([std::ffi::OsStr::new("--trace"), trace_path.as_os_str()])
        .current_dir(workspace_root)
        .env("PHARMAVERIFY_SCALE", "small")
        .env("PHARMAVERIFY_JOBS", jobs)
        .output()
        .map_err(|e| format!("cannot spawn harness: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "harness exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let trace = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("harness wrote no trace at {}: {e}", trace_path.display()))?;
    let _ = std::fs::remove_file(&trace_path);
    Ok((output.stdout, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn online(version: u64, swapped: u64) -> String {
        format!(
            "Table 2\n| requests | 9 |\n\n{ONLINE_TITLE} (8 waves, seed 1)\n\
             | Metric | Count |\n----\n| requests | 128 |\n\
             | final model version | {version} |\n\
             | verdicts on swapped models | {swapped} |\n\n"
        )
    }

    #[test]
    fn swap_needs_a_new_version_and_verdicts_served_from_it() {
        assert!(swap_happened(&online(1, 12)));
        assert!(!swap_happened(&online(1, 0)), "swap nothing answered from");
        assert!(!swap_happened(&online(0, 0)));
        assert!(!swap_happened("no online section"));
    }

    #[test]
    fn rows_are_read_from_the_named_section_only() {
        let report = format!(
            "{}{FEDERATION_TITLE} (60 requests, seed 1)\n| requests | 60 |\n\
             | answered before slow path | 31 |\n",
            online(1, 1)
        );
        assert_eq!(section_row(&report, ONLINE_TITLE, "requests"), Some(128));
        assert_eq!(section_row(&report, FEDERATION_TITLE, "requests"), Some(60));
        assert!(federation_majority_cheap(&report));
        let minority = report.replace("| 31 |", "| 30 |");
        assert!(!federation_majority_cheap(&minority));
    }
}
