//! Tiered verdict federation: answer most requests from tiers cheaper
//! than the full graph-spliced verifier, with provenance on every
//! verdict.
//!
//! A [`Federation`] consults four tiers in fixed cost order — the code
//! order of the ladder in [`Federation::submit`], whose metric paths
//! (`serve/federation/tier/<name>/...`) are literals there:
//!
//! 1. **response cache** — the existing TTL [`ResponseCache`], owned by
//!    the federation (the inner [`VerifyService`] runs cache-disabled);
//! 2. **verdict store** — a persisted map of prior slow-path verdicts
//!    ([`VerdictStore`]), served while within the policy's staleness
//!    budget and promoted into the cache on a hit;
//! 3. **text-only fast path** —
//!    [`TrainedVerifier::verify_text_only`], accepted only when its
//!    confidence clears the policy floor; deterministic crawl errors
//!    (both paths run the identical crawl) are answered here too;
//! 4. **graph-spliced slow path** — the worker pool's full
//!    [`TrainedVerifier::verify_batch`] pipeline.
//!
//! Routing happens synchronously on the submitting thread under the
//! `serve/federation/route` span; only tier-4 requests enter the worker
//! pool. All federation state (cache, store, sequence numbers) is
//! mutated on that thread, and slow-path completions are recorded in
//! ticket-wait (submission) order — so every tally of
//! [`crate::FederationStats`] (filled by [`crate::replay()`]) is a pure
//! function of the submission history, byte-identical across worker
//! counts (the xtask audit's 7th double-run enforces this end to end).

pub mod policy;
pub mod store;

pub use policy::FederationPolicy;
pub use store::{StoredVerdict, VerdictStore};

use crate::cache::{Lookup, Reserve, ResponseCache};
use crate::service::{ServeConfig, ServeError, Ticket, VerifyService};
use pharmaverify_core::{TrainedVerifier, Verdict, VerdictSource, VerifyError};
use pharmaverify_corpus::PersistError;
use pharmaverify_crawl::{Url, WebHost};
use pharmaverify_obs::{Clock, Registry};
use std::sync::Arc;

/// How [`Federation::submit`] answered (or routed) one request.
pub enum Routed {
    /// Answered synchronously by a tier cheaper than the slow path; the
    /// verdict's `source` says which one.
    Done(Verdict),
    /// Routed to the graph-spliced slow path. `fast_label` carries the
    /// low-confidence fast-path prediction (when one was computed) so
    /// the caller can tally fast-vs-slow agreement on completion.
    Slow {
        /// The slow-path ticket to wait on.
        ticket: Ticket,
        /// The fast path's (rejected) prediction, if it produced one.
        fast_label: Option<bool>,
    },
    /// Rejected at the door (bad URL, queue full, breaker open) or
    /// served a cached error.
    Failed(ServeError),
}

/// The federation engine: a cache + store + policy front-end over a
/// cache-disabled [`VerifyService`]. Not `Sync` — routing state belongs
/// to one submitting thread (the replay harness), which is exactly what
/// keeps it deterministic.
pub struct Federation<H: WebHost + Send + Sync + 'static> {
    service: VerifyService<H>,
    verifier: Arc<TrainedVerifier>,
    host: Arc<H>,
    cache: ResponseCache,
    store: VerdictStore,
    policy: FederationPolicy,
    obs: Arc<Registry>,
    clock: Arc<dyn Clock>,
    cache_capacity: usize,
    cache_ttl_micros: u64,
    /// Federation-owned insertion sequence for cache eviction order.
    next_seq: u64,
}

impl<H: WebHost + Send + Sync + 'static> Federation<H> {
    /// Builds a federation over `verifier` and `host`. The `serve`
    /// config's cache settings size the **federation's** cache; the
    /// inner service runs with its response cache disabled (request
    /// coalescing in the service is independent of its cache, so
    /// in-flight slow-path requests still merge).
    pub fn with_observability(
        verifier: Arc<TrainedVerifier>,
        host: Arc<H>,
        serve: ServeConfig,
        policy: FederationPolicy,
        obs: Arc<Registry>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let cache_capacity = serve.cache_capacity;
        let cache_ttl_micros = serve.cache_ttl_micros;
        let inner = ServeConfig {
            cache_capacity: 0,
            ..serve
        };
        let service = VerifyService::with_observability(
            Arc::clone(&verifier),
            Arc::clone(&host),
            inner,
            Arc::clone(&obs),
            Arc::clone(&clock),
        );
        Federation {
            service,
            verifier,
            host,
            cache: ResponseCache::new(cache_capacity, cache_ttl_micros),
            store: VerdictStore::new(),
            policy,
            obs,
            clock,
            cache_capacity,
            cache_ttl_micros,
            next_seq: 0,
        }
    }

    /// The routing policy in force.
    pub fn policy(&self) -> &FederationPolicy {
        &self.policy
    }

    /// Records held by the verdict store.
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Routes one request down the tier ladder. Tiers 1–3 answer
    /// synchronously on this thread; tier 4 returns a ticket.
    pub fn submit(&mut self, seed_url: &str) -> Routed {
        let obs = Arc::clone(&self.obs);
        let _route = obs.span("serve/federation/route");
        obs.add("serve/federation/requests", 1);
        let domain = match Url::parse(seed_url) {
            Ok(url) => url.endpoint(),
            Err(_) => {
                // Unroutable: hand it to the service, which rejects it
                // with the canonical BadUrl accounting.
                return match self.service.submit(seed_url) {
                    Ok(ticket) => Routed::Slow {
                        ticket,
                        fast_label: None,
                    },
                    Err(e) => Routed::Failed(e),
                };
            }
        };
        let now = self.clock.now_micros();

        // Tier 1: response cache.
        match self.cache.lookup(&domain, now) {
            Lookup::Hit(mut verdict) => {
                obs.add("serve/federation/tier/cache/hit", 1);
                verdict.source = VerdictSource::ResponseCache;
                return Routed::Done(verdict);
            }
            Lookup::HitError(error) => {
                obs.add("serve/federation/tier/cache/hit", 1);
                return Routed::Failed(ServeError::Verify(error));
            }
            Lookup::Pending | Lookup::Expired | Lookup::Miss => {
                obs.add("serve/federation/tier/cache/fallthrough", 1);
            }
        }

        // Tier 2: persisted verdict store, judged by the staleness
        // policy against the current model version.
        let model_version = self.service.model_version();
        match self.store.lookup(&domain, model_version) {
            Some(record) if self.policy.store_fresh(record.stamped_at_micros, now) => {
                obs.add("serve/federation/tier/store/hit", 1);
                let verdict = record.to_verdict();
                // Promote into the cache so the next repeat is tier-1.
                self.cache_insert(&verdict, now);
                return Routed::Done(verdict);
            }
            Some(_) => {
                obs.add("serve/federation/tier/store/stale", 1);
                obs.add("serve/federation/tier/store/fallthrough", 1);
            }
            None => {
                obs.add("serve/federation/tier/store/fallthrough", 1);
            }
        }

        // Tier 3: text-only fast path, gated on confidence. Crawl
        // errors are answered here: both paths run the identical crawl,
        // so the slow path would only rediscover the same deterministic
        // error at full graph-splice cost (the federation proptest pins
        // the two error strings equal).
        let fast_label = match self.verifier.verify_text_only(self.host.as_ref(), seed_url) {
            Ok(verdict) if self.policy.accepts_fast(verdict.confidence) => {
                obs.add("serve/federation/tier/fast/hit", 1);
                self.cache_insert(&verdict, now);
                return Routed::Done(verdict);
            }
            Ok(verdict) => {
                obs.add("serve/federation/tier/fast/fallthrough", 1);
                Some(verdict.predicted_legitimate)
            }
            Err(error) => {
                obs.add("serve/federation/tier/fast/error", 1);
                self.cache_fail(&domain, &error, now);
                return Routed::Failed(ServeError::Verify(error));
            }
        };

        // Tier 4: the graph-spliced slow path.
        match self.service.submit(seed_url) {
            Ok(ticket) => Routed::Slow { ticket, fast_label },
            Err(e) => Routed::Failed(e),
        }
    }

    /// Seals the slow path's forming batch (see [`VerifyService::flush`]).
    pub fn flush(&self) {
        self.service.flush();
    }

    /// Records a completed slow-path verdict into the store and cache
    /// (clean crawls only) and counts the tier-4 hit. Call in ticket
    /// submission order to keep store/cache contents deterministic.
    pub fn complete_slow(&mut self, verdict: &Verdict) {
        self.obs.add("serve/federation/tier/slow/hit", 1);
        let now = self.clock.now_micros();
        self.store.record(verdict, now);
        self.cache_insert(verdict, now);
    }

    /// Simulates a process restart at a wave boundary: persists the
    /// store to `path`, reloads it from disk, and drops the in-memory
    /// cache (which does not survive a restart). Returns
    /// `(records persisted, records reloaded)`.
    pub fn checkpoint_restart(
        &mut self,
        path: &std::path::Path,
    ) -> Result<(u64, u64), PersistError> {
        self.store.save(path)?;
        let persisted = self.store.len() as u64;
        self.store = VerdictStore::load(path)?;
        let reloaded = self.store.len() as u64;
        self.cache = ResponseCache::new(self.cache_capacity, self.cache_ttl_micros);
        Ok((persisted, reloaded))
    }

    /// Drains the slow path and stops its workers.
    pub fn shutdown(self) {
        self.service.shutdown();
    }

    /// Inserts a clean verdict into the federation's response cache
    /// (reserve + fill back to back, so the cache never holds a pending
    /// entry between submissions).
    fn cache_insert(&mut self, verdict: &Verdict, now: u64) {
        if verdict.degraded {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.cache.reserve(&verdict.domain, seq) {
            Reserve::Stored | Reserve::Evicted(_) => {
                let _ = self.cache.fill(&verdict.domain, verdict, now);
            }
            Reserve::RejectedDisabled => {}
        }
    }

    /// Caches a fast-path crawl error (same-instant semantics as the
    /// service's error caching: it answers repeats within this wave).
    fn cache_fail(&mut self, domain: &str, error: &VerifyError, now: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.cache.reserve(domain, seq) {
            Reserve::Stored | Reserve::Evicted(_) => self.cache.fail(domain, error, now),
            Reserve::RejectedDisabled => {}
        }
    }
}
