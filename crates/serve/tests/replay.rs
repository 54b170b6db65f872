//! Replay determinism: the core guarantee that every scenario's
//! [`ReplayStats`] is a pure function of the seed — identical at any
//! worker count — plus sanity checks that the workloads actually
//! exercise cache hits, misses, evictions, batching, and the hot-swap.

use pharmaverify_core::{extract_corpus, TextLearnerKind, TrainedVerifier};
use pharmaverify_corpus::{CorpusConfig, Snapshot, SyntheticWeb};
use pharmaverify_crawl::CrawlConfig;
use pharmaverify_obs::{Registry, VirtualClock};
use pharmaverify_serve::{
    replay, FederationPolicy, OnlineStats, ReplayConfig, ReplayStats, Scenario, ServingStats,
};
use std::sync::Arc;

fn trained() -> (Arc<TrainedVerifier>, Snapshot, Snapshot) {
    let web = SyntheticWeb::generate(&CorpusConfig::small(), 42);
    let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts");
    let verifier = TrainedVerifier::fit(
        &corpus,
        TextLearnerKind::Nbm,
        CrawlConfig::default(),
        Some(250),
        7,
    );
    (
        Arc::new(verifier),
        web.snapshot().clone(),
        web.snapshot2().clone(),
    )
}

fn run_scenario(config: &ReplayConfig, scenario: &Scenario) -> ReplayStats {
    let (verifier, snap1, snap2) = trained();
    let obs = Arc::new(Registry::with_clock(Box::new(VirtualClock::new(0))));
    replay(verifier, &snap1, &snap2, config, scenario, obs).expect("store checkpoint persists")
}

fn run(workers: usize, requests: usize) -> ServingStats {
    let config = ReplayConfig::new(requests, workers, 20180326);
    match run_scenario(&config, &Scenario::Serving) {
        ReplayStats::Serving(stats) => stats,
        other => panic!("serving replay returned {other:?}"),
    }
}

fn run_online(workers: usize, waves: usize) -> OnlineStats {
    let config = ReplayConfig::waves(waves, workers, 20180326);
    match run_scenario(&config, &Scenario::online(&config)) {
        ReplayStats::Online(stats) => stats,
        other => panic!("online replay returned {other:?}"),
    }
}

#[test]
fn stats_are_identical_across_worker_counts() {
    let scenarios: [(ReplayConfig, fn(&ReplayConfig) -> Scenario); 3] = [
        (ReplayConfig::new(120, 1, 20180326), |_| Scenario::Serving),
        (ReplayConfig::waves(8, 1, 20180326), Scenario::online),
        (ReplayConfig::new(120, 1, 20180326), |_| {
            Scenario::federation(FederationPolicy::default())
        }),
    ];
    for (serial_config, scenario) in scenarios {
        let mut four_config = serial_config.clone();
        four_config.serve.workers = 4;
        let serial = run_scenario(&serial_config, &scenario(&serial_config));
        let four = run_scenario(&four_config, &scenario(&four_config));
        assert_eq!(serial, four, "worker count leaked into the stats");
        // And the rendered lines (what the report prints) match byte
        // for byte.
        assert_eq!(serial.lines(), four.lines());
    }
}

#[test]
fn workload_exercises_the_interesting_paths() {
    let stats = run(2, 120);
    assert_eq!(stats.requests, 120);
    assert_eq!(stats.accepted, 120, "waves never exceed queue capacity");
    assert_eq!(stats.rejected, 0);
    assert!(stats.cache_hits > 0, "Zipf repeats must hit the cache");
    assert!(stats.cache_misses > 0);
    assert!(
        stats.cache_evictions > 0,
        "capacity 16 must evict on this pool: {stats:?}"
    );
    assert!(
        stats.cache_expired > 0,
        "TTL 200 with +100/wave must expire entries: {stats:?}"
    );
    assert!(stats.batches > 0);
    assert!(stats.answers.legitimate + stats.answers.illegitimate > 0);
    assert!(
        stats.answers.empty_site > 0,
        "vanished snapshot-1 sites must surface as EmptySite: {stats:?}"
    );
    // Bookkeeping: every accepted request is a hit, a miss, or an error
    // whose URL never reached the cache path (none here — bad URLs are
    // rejected at the door, and vanished sites still count as misses).
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.accepted);
}

#[test]
fn online_replay_drifts_retrains_and_swaps_without_dropping_responses() {
    let stats = run_online(2, 8);
    assert_eq!(
        stats.responses, stats.serving.accepted,
        "every admitted request must answer exactly once across the swap"
    );
    assert!(stats.windows >= 2, "too few drift windows: {stats:?}");
    assert!(
        stats.triggers >= 1,
        "the mix shift must register as drift: {stats:?}"
    );
    assert_eq!(stats.retrains, stats.triggers, "one retrain per trigger");
    assert!(
        stats.final_version >= 1,
        "a retrain must have been hot-swapped in: {stats:?}"
    );
    assert!(
        stats.serving.answers.on_v0 > 0,
        "pre-swap verdicts missing: {stats:?}"
    );
    assert!(
        stats.serving.answers.on_swapped > 0,
        "post-swap verdicts must carry the new version: {stats:?}"
    );
}

#[test]
fn unwritable_store_path_is_an_error_not_a_panic() {
    let config = ReplayConfig::new(48, 2, 20180326);
    let scenario = Scenario::Federation {
        policy: FederationPolicy::default(),
        store_path: "/nonexistent/pharmaverify-store.json".into(),
    };
    let (verifier, snap1, snap2) = trained();
    let obs = Arc::new(Registry::with_clock(Box::new(VirtualClock::new(0))));
    let outcome = replay(verifier, &snap1, &snap2, &config, &scenario, obs);
    assert!(
        outcome.is_err(),
        "checkpoint into a missing directory: {outcome:?}"
    );
}

#[test]
fn different_seeds_give_different_tallies() {
    let a = run_scenario(&ReplayConfig::new(80, 2, 1), &Scenario::Serving);
    let b = run_scenario(&ReplayConfig::new(80, 2, 2), &Scenario::Serving);
    assert_ne!(a, b, "seeds 1 and 2 produced identical tallies");
}
