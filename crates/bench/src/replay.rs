//! The replay studies: a seeded workload replayed through the serving
//! front-end, rendered as a report section.
//!
//! Three flags append one section each, all through [`replay_study`]
//! with the flag's [`Scenario`]:
//!
//! * `--serve-workload N` — "Serving": N requests through the
//!   [`pharmaverify_serve::VerifyService`];
//! * `--online-waves N` — "Online": N waves of a drifting workload whose
//!   drift monitor triggers a seeded retrain and a mid-replay hot-swap;
//! * `--federation N` — "Federation": N requests through the tiered
//!   [`pharmaverify_serve::Federation`] — per-tier hits and
//!   fallthroughs, verdicts by provenance, fast-vs-slow agreement, and
//!   the store's restart ledger.
//!
//! Each section is a **pure suffix** of the report (like the robustness
//! study): a run with the flag prints everything a plain run prints,
//! then the table. Its rows are counts only — throughput and latency
//! are timing-dependent, so the `repro` binary reports them on stderr,
//! never here. The xtask determinism audit byte-compares each section
//! between `--serve-workers 1` and `--serve-workers 4` runs of the same
//! seed.

use crate::context::{ReproContext, REPRO_SEED};
use pharmaverify_core::report::Table;
use pharmaverify_core::{TextLearnerKind, TrainedVerifier};
use pharmaverify_corpus::PersistError;
use pharmaverify_obs::Registry;
use pharmaverify_serve::{replay, ReplayConfig, ReplayStats, Scenario};
use std::sync::Arc;

/// Term-subsample size of the served verifier's text model (the paper's
/// best-OPC column).
const SERVE_SUBSAMPLE: usize = 1000;

/// Runs one replay study: fits the served verifier on Dataset 1,
/// replays `config`'s workload through `scenario` against the Dataset 2
/// web, and returns the rendered section plus the raw tally. Everything
/// in the table is worker-count-independent by the service's
/// determinism contract. The `repro` binary passes the process-global
/// registry (so `serve/*` metrics land in the trace); tests pass a
/// private one so concurrently running replays cannot interleave their
/// counter deltas.
///
/// # Errors
/// The federation's mid-replay store checkpoint failed to persist or
/// reload.
pub fn replay_study(
    ctx: &ReproContext,
    config: &ReplayConfig,
    scenario: &Scenario,
    obs: Arc<Registry>,
) -> Result<(Table, ReplayStats), PersistError> {
    // Titles deliberately omit the worker count and the store path: a
    // section must be byte-identical at any worker count.
    let (requests, seed) = (config.requests, config.seed);
    let (_span, title) = match scenario {
        Scenario::Serving => (
            obs.span("report/section/serving (workload replay)"),
            format!("Serving: workload replay ({requests} requests, seed {seed})"),
        ),
        Scenario::Online { .. } => (
            obs.span("report/section/online (drift replay)"),
            format!(
                "Online: drift-triggered retrain ({} waves, seed {seed})",
                requests / config.wave_size()
            ),
        ),
        Scenario::Federation { .. } => (
            obs.span("report/section/federation (tiered replay)"),
            format!("Federation: tiered verdict replay ({requests} requests, seed {seed})"),
        ),
    };
    let verifier = Arc::new(TrainedVerifier::fit(
        &ctx.corpus1,
        TextLearnerKind::Nbm,
        Default::default(),
        Some(SERVE_SUBSAMPLE),
        REPRO_SEED,
    ));
    let stats = replay(
        verifier,
        &ctx.snapshot1,
        &ctx.snapshot2,
        config,
        scenario,
        Arc::clone(&obs),
    )?;
    let mut t = Table::new(&title, &["Metric", "Count"]);
    for (label, value) in stats.lines() {
        t.push_row(vec![label, value.to_string()]);
    }
    Ok((t, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;
    use pharmaverify_obs::VirtualClock;
    use pharmaverify_serve::{FederationPolicy, FederationStats};

    fn study(
        ctx: &ReproContext,
        config: &ReplayConfig,
        scenario: &Scenario,
    ) -> (Table, ReplayStats) {
        let obs = Arc::new(Registry::with_clock(Box::new(VirtualClock::new(0))));
        replay_study(ctx, config, scenario, obs).expect("store checkpoint persists")
    }

    /// The three report scenarios at `workers`, each with its title.
    fn scenarios(workers: usize) -> [(ReplayConfig, Scenario, &'static str); 3] {
        let online = ReplayConfig::waves(8, workers, REPRO_SEED);
        [
            (
                ReplayConfig::new(32, workers, REPRO_SEED),
                Scenario::Serving,
                "Serving: workload replay (32 requests, seed 20180326)",
            ),
            (
                online.clone(),
                Scenario::online(&online),
                "Online: drift-triggered retrain (8 waves, seed 20180326)",
            ),
            (
                ReplayConfig::new(48, workers, REPRO_SEED),
                Scenario::federation(FederationPolicy::default()),
                "Federation: tiered verdict replay (48 requests, seed 20180326)",
            ),
        ]
    }

    fn federation(
        ctx: &ReproContext,
        requests: usize,
        policy: FederationPolicy,
    ) -> FederationStats {
        let config = ReplayConfig::new(requests, 2, REPRO_SEED);
        match study(ctx, &config, &Scenario::federation(policy)) {
            (_, ReplayStats::Federation(stats)) => stats,
            other => panic!("federation study returned {other:?}"),
        }
    }

    #[test]
    fn sections_are_worker_count_independent() {
        let ctx = ReproContext::new(Scale::Small);
        for ((serial, scenario_1, _), (four, scenario_4, _)) in
            scenarios(1).into_iter().zip(scenarios(4))
        {
            let (table_1, stats_1) = study(&ctx, &serial, &scenario_1);
            let (table_4, stats_4) = study(&ctx, &four, &scenario_4);
            assert_eq!(stats_1, stats_4, "worker count leaked into the tally");
            assert_eq!(table_1.to_string(), table_4.to_string());
        }
    }

    #[test]
    fn sections_render_their_title_and_every_stat_line() {
        let ctx = ReproContext::new(Scale::Small);
        for (config, scenario, title) in scenarios(2) {
            let (table, stats) = study(&ctx, &config, &scenario);
            let text = table.to_string();
            assert!(text.starts_with(title), "title is not {title:?}:\n{text}");
            for (label, _) in stats.lines() {
                assert!(text.contains(&label), "missing line {label:?}:\n{text}");
            }
        }
    }

    #[test]
    fn online_section_shows_a_swap_under_drift() {
        let ctx = ReproContext::new(Scale::Small);
        let config = ReplayConfig::waves(8, 2, REPRO_SEED);
        let stats = match study(&ctx, &config, &Scenario::online(&config)) {
            (_, ReplayStats::Online(stats)) => stats,
            other => panic!("online study returned {other:?}"),
        };
        assert!(
            stats.triggers >= 1,
            "no drift trigger at 8 waves: {stats:?}"
        );
        assert!(stats.final_version >= 1);
        assert!(
            stats.serving.answers.on_swapped > 0,
            "no post-swap verdict: {stats:?}"
        );
        assert_eq!(stats.responses, stats.serving.accepted);
    }

    #[test]
    fn majority_of_requests_answered_by_cheaper_tiers() {
        let ctx = ReproContext::new(Scale::Small);
        let stats = federation(&ctx, 64, FederationPolicy::default());
        // The acceptance criterion: the majority of requests are
        // answered by a tier cheaper than the graph-spliced slow path.
        assert!(
            stats.answered_cheap() * 2 > stats.requests,
            "cheap tiers answered {} of {} requests: {stats:?}",
            stats.answered_cheap(),
            stats.requests
        );
        // Every tier actually participated, and every verdict carried a
        // provenance tag (the four source tallies cover all verdicts).
        let answers = &stats.answers;
        assert!(stats.via_cache > 0, "cache tier never answered");
        assert!(stats.via_slow > 0, "slow path never ran");
        assert_eq!(
            stats.via_cache + stats.via_store + stats.via_fast + stats.via_slow,
            stats.requests - answers.empty_site - answers.unreachable - answers.other,
        );
    }

    #[test]
    fn store_restart_persists_and_reloads_records() {
        let ctx = ReproContext::new(Scale::Small);
        let stats = federation(&ctx, 64, FederationPolicy::default());
        assert!(stats.store_persisted > 0, "restart persisted nothing");
        assert_eq!(stats.store_persisted, stats.store_reloaded);
        assert!(stats.store_records >= stats.store_reloaded);
    }

    #[test]
    fn policy_knobs_change_tier_traffic() {
        let ctx = ReproContext::new(Scale::Small);
        // A 1 µs staleness budget stales every store record at once…
        let strict = FederationPolicy {
            staleness_budget_micros: 1,
            fast_confidence: 1.01,
        };
        let strict = federation(&ctx, 48, strict);
        assert_eq!(strict.store_hits, 0, "budget 1µs must stale all records");
        assert_eq!(
            strict.fast_hits, 0,
            "confidence > 1 must reject all fast verdicts"
        );
        // …while the defaults serve from both tiers.
        let default = federation(&ctx, 48, FederationPolicy::default());
        assert!(default.fast_hits + default.store_hits > 0);
    }
}
