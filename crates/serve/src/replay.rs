//! Deterministic workload replay: drive a front-end with a seeded
//! request stream and tally what happened.
//!
//! One function, [`replay`], runs every [`Scenario`] through the same
//! **waves**: up to `queue_capacity` submissions, then a flush, then a
//! blocking wait on every ticket of the wave in submission order, then
//! a virtual-clock advance. The wave barrier is what pins down the
//! deterministic view — within a wave, workers race freely (that is the
//! point of the worker pool), but every wave starts from a settled
//! state: no request in flight, cache contents a pure function of the
//! submission history, clock advanced by a fixed amount. Combined with
//! the service's determinism contract (submission-side batching, merged
//! hit counting, seq-based eviction), every field of every scenario's
//! stats is byte-identical across worker counts for the same seed.
//!
//! The scenarios differ only in their front-end and a few hooks:
//!
//! * [`Scenario::Serving`] — the Zipf stream into a [`VerifyService`];
//! * [`Scenario::Online`] — the same service, a request mix that shifts
//!   mid-replay, a [`DriftMonitor`] fed every slow verdict, and a seeded
//!   retrain hot-swapped in on each drift trigger;
//! * [`Scenario::Federation`] — a [`Federation`] in front of the
//!   service, with the store persisted and reloaded at the halfway wave
//!   boundary and fast-vs-slow agreement tallied on slow completions.
//!
//! Latency is the one thing the barrier cannot (and should not) pin
//! down; it is recorded non-deterministically by the service and
//! reported by the binary on stderr, never inside the report.

use crate::drift::{DriftConfig, DriftMonitor, DriftVerdict};
use crate::federation::{Federation, FederationPolicy, Routed};
use crate::service::{ServeConfig, ServeError, VerifyService};
use crate::workload::{Request, RequestKind, WorkloadGenerator};
use pharmaverify_core::{
    extract_corpus, TextLearnerKind, TrainedVerifier, Verdict, VerdictSource, VerifyError,
};
use pharmaverify_corpus::{PersistError, Snapshot};
use pharmaverify_crawl::{CrawlConfig, InMemoryWeb};
use pharmaverify_obs::{Registry, VirtualClock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Replay knobs shared by every scenario.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Total requests to draw from the workload generator.
    pub requests: usize,
    /// Workload seed (site mix and repeat pattern).
    pub seed: u64,
    /// Service configuration (worker count, queue, batch, cache, breaker).
    pub serve: ServeConfig,
    /// Virtual-clock micros advanced between waves (drives cache TTL).
    pub advance_micros: u64,
}

impl ReplayConfig {
    /// A replay of `requests` requests with `workers` workers and
    /// defaults chosen so cache hits, misses, evictions, and TTL expiry
    /// all actually occur at small workload sizes.
    pub fn new(requests: usize, workers: usize, seed: u64) -> ReplayConfig {
        ReplayConfig {
            requests,
            seed,
            serve: ServeConfig {
                workers,
                queue_capacity: 16,
                max_batch: 4,
                // Sized against the small corpus (~60 verifiable
                // domains): tight enough to evict, roomy enough that a
                // hot entry usually lives past its two-wave TTL —
                // seq-based eviction is FIFO, so an over-tight cache
                // would evict every entry before it could expire.
                cache_capacity: 16,
                cache_ttl_micros: 200,
                ..ServeConfig::default()
            },
            advance_micros: 100,
        }
    }

    /// A replay of `waves` full waves with `workers` workers.
    pub fn waves(waves: usize, workers: usize, seed: u64) -> ReplayConfig {
        let mut config = ReplayConfig::new(0, workers, seed);
        config.requests = waves * config.wave_size();
        config
    }

    /// Requests per wave: the queue capacity, so a wave never overflows
    /// admission.
    pub fn wave_size(&self) -> usize {
        self.serve.queue_capacity.max(1)
    }
}

/// What a replay drives beyond the shared wave protocol.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// The seeded stream into a [`VerifyService`], nothing more.
    Serving,
    /// Drift-monitored serving with retrain and hot-swap.
    Online {
        /// Drift monitor tuning.
        drift: DriftConfig,
        /// Submission index at which the incoming mix shifts from
        /// established sites to snapshot-2 newcomers (the simulated
        /// wave of new rogue pharmacies whose score distribution the
        /// monitor should catch).
        shift_at: usize,
    },
    /// The tiered [`Federation`] with a mid-replay store restart.
    Federation {
        /// Tier-selection policy.
        policy: FederationPolicy,
        /// Where the mid-replay restart persists the verdict store.
        /// Never printed — report output stays path-independent.
        store_path: PathBuf,
    },
}

/// Distinguishes concurrently running replays within one process when
/// picking a scratch store path.
static STORE_SCRATCH: AtomicU64 = AtomicU64::new(0);

impl Scenario {
    /// The online scenario for `config`: the request mix shifts after
    /// half its waves, and drift windows are sized so at least one clean
    /// window completes on each side of the shift.
    pub fn online(config: &ReplayConfig) -> Scenario {
        let wave = config.wave_size();
        Scenario::Online {
            drift: DriftConfig {
                buckets: 16,
                window: 24,
                threshold: 0.3,
            },
            shift_at: config.requests / wave / 2 * wave,
        }
    }

    /// The federation scenario under `policy`, checkpointing its store
    /// to a process-unique scratch path in the temp directory.
    pub fn federation(policy: FederationPolicy) -> Scenario {
        let scratch = STORE_SCRATCH.fetch_add(1, Ordering::Relaxed);
        Scenario::Federation {
            policy,
            store_path: std::env::temp_dir().join(format!(
                "pharmaverify-federation-{}-{scratch}.json",
                std::process::id()
            )),
        }
    }
}

/// How the answered requests of one replay ended: verdicts by label,
/// health and model version, errors by kind. Every scenario classifies
/// its answers into one of these; each prints its part.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Answers {
    /// Verdicts predicting a legitimate site.
    pub legitimate: u64,
    /// Verdicts predicting an illegitimate site.
    pub illegitimate: u64,
    /// Verdicts flagged degraded (partial crawl).
    pub degraded: u64,
    /// Verdicts produced by the initial model (version 0).
    pub on_v0: u64,
    /// Verdicts produced by hot-swapped models (version ≥ 1).
    pub on_swapped: u64,
    /// `EmptySite` errors (vanished sites).
    pub empty_site: u64,
    /// `Unreachable` errors (transient-only crawl failures).
    pub unreachable: u64,
    /// Any other error (bad URLs, lost requests; in the federation also
    /// shed or rejected requests).
    pub other: u64,
}

impl Answers {
    /// Tallies one answer.
    fn record(&mut self, answer: Result<&Verdict, &ServeError>) {
        let verdict = match answer {
            Ok(verdict) => verdict,
            Err(ServeError::Verify(VerifyError::EmptySite(_))) => return self.empty_site += 1,
            Err(ServeError::Verify(VerifyError::Unreachable { .. })) => {
                return self.unreachable += 1;
            }
            Err(_) => return self.other += 1,
        };
        if verdict.predicted_legitimate {
            self.legitimate += 1;
        } else {
            self.illegitimate += 1;
        }
        if verdict.degraded {
            self.degraded += 1;
        }
        if verdict.model_version == 0 {
            self.on_v0 += 1;
        } else {
            self.on_swapped += 1;
        }
    }
}

/// Deterministic tally of one serving replay. Every field is a pure
/// function of the seed and configuration — worker count must not
/// change any of them (the xtask determinism audit enforces this end to
/// end).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServingStats {
    /// Requests drawn from the generator.
    pub requests: u64,
    /// Requests admitted past the breaker and queue.
    pub accepted: u64,
    /// Rejections with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Rejections with [`ServeError::Shedding`].
    pub shed: u64,
    /// Cache hits (completed entries plus coalesced in-flight joins).
    pub cache_hits: u64,
    /// Requests that triggered a verification.
    pub cache_misses: u64,
    /// Capacity evictions.
    pub cache_evictions: u64,
    /// TTL expirations observed at lookup.
    pub cache_expired: u64,
    /// Batches executed.
    pub batches: u64,
    /// How the admitted requests ended.
    pub answers: Answers,
}

impl ServingStats {
    /// Stable, alignment-free report lines (label + value pairs). The
    /// repro binary turns these into the "Serving" report section; tests
    /// byte-compare them across worker counts.
    pub fn lines(&self) -> Vec<(String, u64)> {
        let answers = &self.answers;
        vec![
            ("requests".to_string(), self.requests),
            ("accepted".to_string(), self.accepted),
            ("rejected (overloaded)".to_string(), self.rejected),
            ("shed (breaker)".to_string(), self.shed),
            ("cache hits".to_string(), self.cache_hits),
            ("cache misses".to_string(), self.cache_misses),
            ("cache evictions".to_string(), self.cache_evictions),
            ("cache TTL expiries".to_string(), self.cache_expired),
            ("batches".to_string(), self.batches),
            ("verdicts: legitimate".to_string(), answers.legitimate),
            ("verdicts: illegitimate".to_string(), answers.illegitimate),
            ("verdicts: degraded".to_string(), answers.degraded),
            ("errors: empty site".to_string(), answers.empty_site),
            ("errors: unreachable".to_string(), answers.unreachable),
            ("errors: other".to_string(), answers.other),
        ]
    }
}

/// Deterministic tally of one online replay: the serving tally plus the
/// drift/retrain/hot-swap ledger. Byte-identical across worker counts
/// for the same seed, exactly like [`ServingStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OnlineStats {
    /// The underlying serving tally.
    pub serving: ServingStats,
    /// Responses delivered (every admitted request answers exactly once,
    /// in submission order — so this always equals `serving.accepted`).
    pub responses: u64,
    /// Drift windows closed (reference window included).
    pub windows: u64,
    /// Windows that crossed the drift threshold.
    pub triggers: u64,
    /// Seeded retrains performed (one per trigger).
    pub retrains: u64,
    /// Model version live when the replay finished.
    pub final_version: u64,
}

impl OnlineStats {
    /// Report lines in the same shape as [`ServingStats::lines`]; the
    /// repro binary renders them as the "Online" section.
    pub fn lines(&self) -> Vec<(String, u64)> {
        let answers = &self.serving.answers;
        vec![
            ("requests".to_string(), self.serving.requests),
            ("accepted".to_string(), self.serving.accepted),
            ("responses".to_string(), self.responses),
            ("drift windows".to_string(), self.windows),
            ("drift triggers".to_string(), self.triggers),
            ("retrains".to_string(), self.retrains),
            ("model swaps".to_string(), self.retrains),
            ("final model version".to_string(), self.final_version),
            ("verdicts on v0".to_string(), answers.on_v0),
            ("verdicts on swapped models".to_string(), answers.on_swapped),
            ("verdicts: legitimate".to_string(), answers.legitimate),
            ("verdicts: illegitimate".to_string(), answers.illegitimate),
        ]
    }
}

/// Deterministic tally of one federation replay. Every field is a pure
/// function of the seed and configuration; worker count must not change
/// any of them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FederationStats {
    /// Requests drawn from the generator.
    pub requests: u64,
    /// Tier-1 hits (cache answers, including cached errors).
    pub cache_hits: u64,
    /// Tier-1 fallthroughs (miss, expired, or pending).
    pub cache_fallthroughs: u64,
    /// Tier-2 hits (store answers within the staleness budget).
    pub store_hits: u64,
    /// Store records found but beyond the staleness budget.
    pub store_stale: u64,
    /// Tier-2 fallthroughs (absent or stale).
    pub store_fallthroughs: u64,
    /// Tier-3 hits (fast-path answers above the confidence floor).
    pub fast_hits: u64,
    /// Tier-3 fallthroughs (low-confidence clean verdicts).
    pub fast_fallthroughs: u64,
    /// Tier-3 crawl errors answered without entering the slow path.
    pub fast_errors: u64,
    /// Tier-4 verdicts (slow-path completions).
    pub slow_hits: u64,
    /// Verdicts answered with `source == ResponseCache`.
    pub via_cache: u64,
    /// Verdicts answered with `source == VerdictStore`.
    pub via_store: u64,
    /// Verdicts answered with `source == TextOnly`.
    pub via_fast: u64,
    /// Verdicts answered with `source == GraphSpliced`.
    pub via_slow: u64,
    /// Low-confidence fast predictions that matched the slow verdict.
    pub agreement_agree: u64,
    /// Low-confidence fast predictions the slow verdict overturned.
    pub agreement_disagree: u64,
    /// Store records held when the replay finished.
    pub store_records: u64,
    /// Records persisted at the mid-replay restart.
    pub store_persisted: u64,
    /// Records reloaded from disk after the restart.
    pub store_reloaded: u64,
    /// How every request ended, answered by any tier.
    pub answers: Answers,
}

impl FederationStats {
    /// Requests answered (verdict *or* deterministic error) by a tier
    /// cheaper than the graph-spliced slow path — the federation's
    /// reason to exist (the xtask audit checks this is the majority).
    pub fn answered_cheap(&self) -> u64 {
        self.cache_hits + self.store_hits + self.fast_hits + self.fast_errors
    }

    /// Stable report lines (label + value pairs), rendered as the
    /// "Federation" section and byte-compared across worker counts.
    pub fn lines(&self) -> Vec<(String, u64)> {
        let answers = &self.answers;
        vec![
            ("requests".to_string(), self.requests),
            ("tier cache: hits".to_string(), self.cache_hits),
            (
                "tier cache: fallthroughs".to_string(),
                self.cache_fallthroughs,
            ),
            ("tier store: hits".to_string(), self.store_hits),
            ("tier store: stale".to_string(), self.store_stale),
            (
                "tier store: fallthroughs".to_string(),
                self.store_fallthroughs,
            ),
            ("tier fast: hits".to_string(), self.fast_hits),
            (
                "tier fast: fallthroughs".to_string(),
                self.fast_fallthroughs,
            ),
            ("tier fast: errors answered".to_string(), self.fast_errors),
            ("tier slow: verdicts".to_string(), self.slow_hits),
            (
                "answered before slow path".to_string(),
                self.answered_cheap(),
            ),
            ("verdicts via cache".to_string(), self.via_cache),
            ("verdicts via store".to_string(), self.via_store),
            ("verdicts via text-only".to_string(), self.via_fast),
            ("verdicts via graph-spliced".to_string(), self.via_slow),
            ("fast vs slow: agree".to_string(), self.agreement_agree),
            (
                "fast vs slow: disagree".to_string(),
                self.agreement_disagree,
            ),
            ("store records".to_string(), self.store_records),
            (
                "store persisted at restart".to_string(),
                self.store_persisted,
            ),
            (
                "store reloaded after restart".to_string(),
                self.store_reloaded,
            ),
            ("errors: empty site".to_string(), answers.empty_site),
            ("errors: unreachable".to_string(), answers.unreachable),
            ("errors: other".to_string(), answers.other),
        ]
    }
}

/// The tally of one replay, in the shape of its scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayStats {
    /// From [`Scenario::Serving`].
    Serving(ServingStats),
    /// From [`Scenario::Online`].
    Online(OnlineStats),
    /// From [`Scenario::Federation`].
    Federation(FederationStats),
}

impl ReplayStats {
    /// The scenario's report lines.
    pub fn lines(&self) -> Vec<(String, u64)> {
        match self {
            ReplayStats::Serving(stats) => stats.lines(),
            ReplayStats::Online(stats) => stats.lines(),
            ReplayStats::Federation(stats) => stats.lines(),
        }
    }
}

/// Counters a replay reads back, each with the stats field it lands in.
type Counters<S> = [(&'static str, fn(&mut S) -> &mut u64)];

const SERVICE_COUNTERS: &Counters<ServingStats> = &[
    ("serve/enqueue", |s| &mut s.accepted),
    ("serve/rejected", |s| &mut s.rejected),
    ("serve/shed", |s| &mut s.shed),
    ("serve/cache/hit", |s| &mut s.cache_hits),
    ("serve/cache/miss", |s| &mut s.cache_misses),
    ("serve/cache/evict", |s| &mut s.cache_evictions),
    ("serve/cache/expired", |s| &mut s.cache_expired),
    ("serve/batch", |s| &mut s.batches),
];

const DRIFT_COUNTERS: &Counters<OnlineStats> = &[("serve/drift/triggers", |s| &mut s.triggers)];

const LADDER_COUNTERS: &Counters<FederationStats> = &[
    ("serve/federation/requests", |s| &mut s.requests),
    ("serve/federation/tier/cache/hit", |s| &mut s.cache_hits),
    ("serve/federation/tier/cache/fallthrough", |s| {
        &mut s.cache_fallthroughs
    }),
    ("serve/federation/tier/store/hit", |s| &mut s.store_hits),
    ("serve/federation/tier/store/stale", |s| &mut s.store_stale),
    ("serve/federation/tier/store/fallthrough", |s| {
        &mut s.store_fallthroughs
    }),
    ("serve/federation/tier/fast/hit", |s| &mut s.fast_hits),
    ("serve/federation/tier/fast/fallthrough", |s| {
        &mut s.fast_fallthroughs
    }),
    ("serve/federation/tier/fast/error", |s| &mut s.fast_errors),
    ("serve/federation/tier/slow/hit", |s| &mut s.slow_hits),
];

/// Readings of some [`Counters`] at a replay's start. A replay may share
/// its registry with earlier work (the report's process-global
/// registry), so its stats report how far each counter moved since.
struct Deltas<S: 'static> {
    counters: &'static Counters<S>,
    start: Vec<u64>,
}

impl<S> Deltas<S> {
    fn start(obs: &Registry, counters: &'static Counters<S>) -> Deltas<S> {
        let start = counters.iter().map(|(name, _)| obs.counter(name)).collect();
        Deltas { counters, start }
    }

    fn write(&self, obs: &Registry, stats: &mut S) {
        for ((name, field), start) in self.counters.iter().zip(&self.start) {
            *field(stats) = obs.counter(name).saturating_sub(*start);
        }
    }
}

/// The replay's front-end, its scenario's running state, and the stats
/// it fills.
enum Run<'a> {
    Serving {
        service: VerifyService<InMemoryWeb>,
        stats: ServingStats,
    },
    Online {
        service: VerifyService<InMemoryWeb>,
        drift: DriftMonitor,
        shift_at: usize,
        stats: OnlineStats,
    },
    Federation {
        federation: Federation<InMemoryWeb>,
        store_path: &'a Path,
        /// Submission index of the store restart, until it happens.
        restart_at: Option<usize>,
        stats: FederationStats,
    },
}

impl Run<'_> {
    /// Routes one request; the service's admission result maps onto
    /// [`Routed`] (an admitted request is a slow-path ticket).
    fn submit(&mut self, seed_url: &str) -> Routed {
        match self {
            Run::Serving { service, .. } | Run::Online { service, .. } => {
                match service.submit(seed_url) {
                    Ok(ticket) => Routed::Slow {
                        ticket,
                        fast_label: None,
                    },
                    Err(error) => Routed::Failed(error),
                }
            }
            Run::Federation { federation, .. } => federation.submit(seed_url),
        }
    }

    fn flush(&self) {
        match self {
            Run::Serving { service, .. } | Run::Online { service, .. } => service.flush(),
            Run::Federation { federation, .. } => federation.flush(),
        }
    }

    /// Tallies one answer into the scenario's stats. Only the federation
    /// tallies provenance: its routing decides every verdict's source,
    /// while a plain service tags a repeat by whether it found the cache
    /// entry or joined the verification in flight — a race.
    fn record(&mut self, answer: Result<&Verdict, &ServeError>) {
        match self {
            Run::Serving { stats, .. } => stats.answers.record(answer),
            Run::Online { stats, .. } => stats.serving.answers.record(answer),
            Run::Federation { stats, .. } => {
                if let Ok(verdict) = answer {
                    match verdict.source {
                        VerdictSource::ResponseCache => stats.via_cache += 1,
                        VerdictSource::VerdictStore => stats.via_store += 1,
                        VerdictSource::TextOnly => stats.via_fast += 1,
                        VerdictSource::GraphSpliced => stats.via_slow += 1,
                    }
                }
                stats.answers.record(answer);
            }
        }
    }
}

/// Replays `config.requests` seeded requests against a front-end built
/// from `verifier` and the snapshot-2 web, recording metrics into `obs`,
/// and returns the scenario's deterministic tally. See the module docs
/// for the wave protocol.
///
/// Online determinism: batches pin their model at dispatch time and all
/// of a wave's batches dispatch before any drift trigger can fire
/// (triggers are observed while waiting the wave's tickets), so the
/// version each verdict carries is a pure function of the submission
/// history. No response is dropped or reordered across a swap: every
/// admitted ticket is waited in submission order, swap or no swap, and
/// `responses` double-entry-checks `accepted`.
///
/// # Errors
/// The federation scenario's store checkpoint can fail to persist or
/// reload (say, an unwritable temp directory); the replay stops there.
pub fn replay(
    verifier: Arc<TrainedVerifier>,
    snapshot1: &Snapshot,
    snapshot2: &Snapshot,
    config: &ReplayConfig,
    scenario: &Scenario,
    obs: Arc<Registry>,
) -> Result<ReplayStats, PersistError> {
    let _span = obs.span("serve/replay");
    let host: Arc<InMemoryWeb> = Arc::new(snapshot2.web.clone());
    // Frozen virtual time: readings never advance the clock, only the
    // inter-wave step does — so TTL expiry is a pure function of the
    // wave schedule, independent of how often anyone reads the clock.
    let clock = VirtualClock::new(0);
    let mut generator = WorkloadGenerator::new(snapshot1, snapshot2, config.seed);
    let service_counters = Deltas::start(&obs, SERVICE_COUNTERS);
    let drift_counters = Deltas::start(&obs, DRIFT_COUNTERS);
    let ladder_counters = Deltas::start(&obs, LADDER_COUNTERS);

    let service = || {
        VerifyService::with_observability(
            Arc::clone(&verifier),
            Arc::clone(&host),
            config.serve.clone(),
            Arc::clone(&obs),
            Arc::new(clock.clone()),
        )
    };
    let serving = ServingStats {
        requests: config.requests as u64,
        ..ServingStats::default()
    };
    let mut run = match scenario {
        Scenario::Serving => Run::Serving {
            service: service(),
            stats: serving,
        },
        Scenario::Online { drift, shift_at } => Run::Online {
            service: service(),
            drift: DriftMonitor::new(drift.clone()),
            shift_at: *shift_at,
            stats: OnlineStats {
                serving,
                ..OnlineStats::default()
            },
        },
        Scenario::Federation { policy, store_path } => Run::Federation {
            federation: Federation::with_observability(
                Arc::clone(&verifier),
                Arc::clone(&host),
                config.serve.clone(),
                policy.clone(),
                Arc::clone(&obs),
                Arc::new(clock.clone()),
            ),
            store_path,
            restart_at: Some(config.requests / 2),
            stats: FederationStats::default(),
        },
    };
    let mut submitted = 0usize;
    while submitted < config.requests {
        let wave = (config.requests - submitted).min(config.wave_size());
        let requests = match &mut run {
            Run::Online { shift_at, .. } => {
                draw_phase(&mut generator, submitted >= *shift_at, wave)
            }
            Run::Federation {
                federation,
                store_path,
                restart_at,
                stats,
            } => {
                if restart_at.is_some_and(|at| submitted >= at) {
                    *restart_at = None;
                    let checkpoint = federation.checkpoint_restart(store_path);
                    // Scratch hygiene: the reloaded store lives in
                    // memory now, so the file has served its purpose.
                    let _ = std::fs::remove_file(store_path);
                    (stats.store_persisted, stats.store_reloaded) = checkpoint?;
                }
                generator.take(wave)
            }
            Run::Serving { .. } => generator.take(wave),
        };
        submitted += wave;

        let mut slow = Vec::with_capacity(wave);
        for request in requests {
            match run.submit(&request.seed_url) {
                Routed::Done(verdict) => run.record(Ok(&verdict)),
                Routed::Slow { ticket, fast_label } => slow.push((ticket, fast_label)),
                // The service scenarios count door rejections on their
                // own rows (`serve/rejected`, `serve/shed`); the
                // federation's ledger has none, so they are errors there.
                Routed::Failed(ServeError::Overloaded | ServeError::Shedding)
                    if !matches!(run, Run::Federation { .. }) => {}
                Routed::Failed(error) => run.record(Err(&error)),
            }
        }
        run.flush();
        for (ticket, fast_label) in slow {
            let answer = ticket.wait();
            match (&mut run, &answer) {
                (
                    Run::Online {
                        service,
                        drift,
                        stats,
                        ..
                    },
                    answer,
                ) => {
                    stats.responses += 1;
                    let drifted = answer
                        .as_ref()
                        .ok()
                        .and_then(|v| drift.observe(v.rank, &obs));
                    if let Some(DriftVerdict::Drifted { .. }) = drifted {
                        // The score population moved: retrain on the
                        // current (snapshot-2) population with the replay
                        // seed and hot-swap, mid-replay. In-flight
                        // batches finish on their pinned version; the
                        // remaining tickets of this wave were all
                        // dispatched before the swap and are unaffected.
                        service.swap_model(retrain_on(snapshot2, config.seed));
                        stats.retrains += 1;
                        drift.rebase();
                    }
                }
                (
                    Run::Federation {
                        federation, stats, ..
                    },
                    Ok(verdict),
                ) => {
                    federation.complete_slow(verdict);
                    match fast_label {
                        Some(label) if label == verdict.predicted_legitimate => {
                            stats.agreement_agree += 1;
                        }
                        Some(_) => stats.agreement_disagree += 1,
                        None => {}
                    }
                }
                _ => {}
            }
            run.record(answer.as_ref());
        }
        clock.advance(config.advance_micros);
    }

    // Counters are read after shutdown, once every worker has finished.
    Ok(match run {
        Run::Serving { service, mut stats } => {
            service.shutdown();
            service_counters.write(&obs, &mut stats);
            ReplayStats::Serving(stats)
        }
        Run::Online {
            service,
            drift,
            mut stats,
            ..
        } => {
            stats.windows = drift.windows_closed();
            stats.final_version = service.model_version();
            service.shutdown();
            service_counters.write(&obs, &mut stats.serving);
            drift_counters.write(&obs, &mut stats);
            ReplayStats::Online(stats)
        }
        Run::Federation {
            federation,
            mut stats,
            ..
        } => {
            stats.store_records = federation.store_len() as u64;
            federation.shutdown();
            ladder_counters.write(&obs, &mut stats);
            ReplayStats::Federation(stats)
        }
    })
}

/// Draws up to `n` requests of the wanted population from the shared
/// generator: established sites (`Known`/`Vanished`) before the shift,
/// snapshot-2 newcomers (`Unknown`) after it. Skipped draws still
/// consume RNG state, so the sequence stays a pure function of the seed.
fn draw_phase(generator: &mut WorkloadGenerator, newcomers: bool, n: usize) -> Vec<Request> {
    let mut out = Vec::with_capacity(n);
    let mut budget = n.saturating_mul(200).max(1);
    while out.len() < n && budget > 0 {
        budget -= 1;
        match generator.next_request() {
            Some(r) if (r.kind == RequestKind::Unknown) == newcomers => out.push(r),
            Some(_) => {}
            None => break,
        }
    }
    out
}

/// The drift response: a fresh fit on the snapshot-2 corpus, fully
/// seeded so any two runs (and any two worker counts) retrain the exact
/// same model.
fn retrain_on(snapshot2: &Snapshot, seed: u64) -> TrainedVerifier {
    // lint:allow(no-panic): the replay harness runs on synthetic
    // snapshots that always extract; a failure here is a corpus bug.
    #[allow(clippy::expect_used)]
    let corpus = extract_corpus(snapshot2, &CrawlConfig::default()).expect("snapshot-2 extracts");
    TrainedVerifier::fit(
        &corpus,
        TextLearnerKind::Nbm,
        CrawlConfig::default(),
        Some(250),
        seed,
    )
}
