//! The serving workloads: `verify-zipf` drives a `VerifyService` with a
//! Zipf-skewed `WorkloadGenerator` stream; `federation-sweep` drives a
//! `Federation` with seeded-permutation sweeps over the whole pool.
//!
//! Both run open loop from one generator thread, with one collector
//! thread waiting on tickets (two threads on the generator side). A
//! request is timed from when it was due. The timed phase runs rounds
//! of a nominal-rate slice (p50/p90/p99) and a closed-loop slice
//! (`sites_per_s`), then the rate ladder (`max_rate_rps`).

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{
    best_window_percentile, max_rate, median, percentile_of, ratio, Answer, Failure, Percentile,
    Rung, Served, Tally, Timeline,
};
use crate::trace::{Delta, Reading, Tracer};
use crate::Args;
use pharmaverify_core::{
    extract_corpus, TextLearnerKind, TrainedVerifier, Verdict, VerdictSource, VerifyError,
};
use pharmaverify_corpus::{CorpusConfig, Snapshot, SyntheticWeb};
use pharmaverify_crawl::{CrawlConfig, InMemoryWeb};
use pharmaverify_obs::WallClock;
use pharmaverify_serve::{
    Federation, FederationPolicy, Routed, ServeConfig, ServeError, Ticket, VerifyService,
    WorkloadGenerator,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Term-subsample size of the served verifier's text model.
const SUBSAMPLE: usize = 1000;

/// Outstanding requests of the closed-loop capacity probe; below the
/// default admission queue (64), so the probe is never refused.
const WINDOW: usize = 32;

/// Which front-end a serving workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `VerifyService`, Zipf stream.
    Zipf,
    /// `Federation`, permutation sweeps.
    Sweep,
}

/// A serving workload's fixed settings.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Front-end and request stream.
    pub kind: Kind,
    /// Rate at which latency percentiles are measured, requests per second.
    pub nominal_rps: f64,
    /// Ascending rate ladder for `max_rate_rps`.
    pub ladder: &'static [f64],
    /// Latency limit on the 99th percentile, ms.
    pub p99_limit_ms: f64,
    /// Requests per closed-loop slice.
    pub probe_requests: usize,
    /// Most windows the nominal-rate percentiles are read in.
    pub windows: usize,
}

/// `verify-zipf`.
pub const ZIPF: Spec = Spec {
    kind: Kind::Zipf,
    nominal_rps: 2000.0,
    ladder: &[500.0, 1000.0, 2000.0, 4000.0, 8000.0],
    p99_limit_ms: 20.0,
    probe_requests: 15_000,
    windows: 16,
};

/// `federation-sweep`.
pub const SWEEP: Spec = Spec {
    kind: Kind::Sweep,
    // Far enough below the submitting thread's capacity (the fast tier
    // runs on it) that a host running at half speed does not queue.
    nominal_rps: 75.0,
    ladder: &[100.0, 200.0, 300.0, 400.0, 500.0],
    p99_limit_ms: 50.0,
    // One whole sweep, so every slice has the same mix of sites.
    probe_requests: 680,
    // The nominal-rate requests are whole sweeps, every site equally
    // often; a window of part of them would depend on which sites it
    // caught.
    windows: 1,
};

/// Wall-clock staleness budget of the federation's verdict store: one
/// second, shorter than one sweep at any ladder rate, so most re-checks
/// miss the store and reach the fast path.
pub const STALENESS_BUDGET_MICROS: u64 = 1_000_000;

/// The federation policy the benchmark runs: the default fast-path
/// confidence floor with a wall-clock staleness budget.
pub fn policy() -> FederationPolicy {
    FederationPolicy {
        staleness_budget_micros: STALENESS_BUDGET_MICROS,
        ..FederationPolicy::default()
    }
}

/// Everything set-up builds.
struct State {
    web: SyntheticWeb,
    verifier: Arc<TrainedVerifier>,
    host: Arc<InMemoryWeb>,
    /// The request pool: snapshot-1 sites, then snapshot-2 newcomers.
    urls: Vec<String>,
    index: HashMap<String, usize>,
}

/// Seed of the served deployment: the medium corpus the verifier is fitted
/// on and whose snapshot-2 web it crawls. The benchmark's `--seed` picks
/// the request stream; the deployment stays the same, so runs with
/// different seeds differ in traffic, not in the sites behind it.
pub const DEPLOYMENT_SEED: u64 = 20_180_326;

fn setup(tracer: Option<&Tracer>) -> Result<State, String> {
    let seed = DEPLOYMENT_SEED;
    let span = |name: &'static str, t0: Instant, t1: Instant| {
        if let Some(t) = tracer {
            t.record(name, t.at(t0), t.at(t1), None, 0);
        }
    };
    let t0 = Instant::now();
    let web = SyntheticWeb::generate(&CorpusConfig::medium(), seed);
    let t1 = Instant::now();
    let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default())
        .map_err(|e| format!("extraction failed: {e}"))?;
    let t2 = Instant::now();
    let verifier = TrainedVerifier::fit(
        &corpus,
        TextLearnerKind::Nbm,
        CrawlConfig::default(),
        Some(SUBSAMPLE),
        seed,
    );
    let t3 = Instant::now();
    span("corpus.generate", t0, t1);
    span("crawl.extract", t1, t2);
    span("core.fit", t2, t3);
    let urls = pool(web.snapshot(), web.snapshot2());
    let index = urls
        .iter()
        .enumerate()
        .map(|(i, u)| (u.clone(), i))
        .collect();
    let host = Arc::new(web.snapshot2().web.clone());
    Ok(State {
        web,
        verifier: Arc::new(verifier),
        host,
        urls,
        index,
    })
}

/// The workload generator's pool: every snapshot-1 site, then every
/// snapshot-2 site whose domain snapshot 1 lacks.
fn pool(s1: &Snapshot, s2: &Snapshot) -> Vec<String> {
    let known: std::collections::BTreeSet<&str> =
        s1.sites.iter().map(|s| s.domain.as_str()).collect();
    s1.sites
        .iter()
        .map(|s| s.seed_url.clone())
        .chain(
            s2.sites
                .iter()
                .filter(|s| !known.contains(s.domain.as_str()))
                .map(|s| s.seed_url.clone()),
        )
        .collect()
}

/// The request stream: pool indices.
enum Source {
    Zipf(WorkloadGenerator),
    Sweep {
        order: Vec<usize>,
        next: usize,
        sweeps: u64,
        seed: u64,
    },
}

impl Source {
    fn new(kind: Kind, state: &State, seed: u64) -> Source {
        match kind {
            Kind::Zipf => Source::Zipf(WorkloadGenerator::new(
                state.web.snapshot(),
                state.web.snapshot2(),
                seed,
            )),
            Kind::Sweep => Source::Sweep {
                order: Vec::new(),
                next: 0,
                sweeps: 0,
                seed,
            },
        }
    }

    /// Starts the next sweep now (no-op for the Zipf stream), so a
    /// slice of one pool's worth of requests covers every site once.
    fn restart(&mut self) {
        if let Source::Sweep { order, next, .. } = self {
            *next = order.len();
        }
    }

    fn next(&mut self, state: &State) -> usize {
        match self {
            Source::Zipf(gen) => {
                let url = gen.next_request().expect("non-empty pool").seed_url;
                state.index[&url]
            }
            Source::Sweep {
                order,
                next,
                sweeps,
                seed,
            } => {
                if *next == order.len() {
                    *order = permutation(state.urls.len(), *seed, *sweeps);
                    *sweeps += 1;
                    *next = 0;
                }
                *next += 1;
                order[*next - 1]
            }
        }
    }
}

/// A seeded Fisher–Yates permutation of `0..n` (splitmix64 stream).
pub fn permutation(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut state = seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// What a submission returned.
enum Sent {
    /// Answered at the door; `true` when the answer is a verdict
    /// computed for this request rather than served from a cache tier.
    Done(Served, bool),
    Pending(Ticket),
}

/// The two front-ends behind one interface.
enum Front {
    Service(VerifyService<InMemoryWeb>),
    Federation(Federation<InMemoryWeb>),
}

/// A verdict computed for the request (fast or slow path), not served
/// from the response cache or the verdict store.
fn computed(result: &Result<Verdict, ServeError>) -> bool {
    matches!(result, Ok(v) if matches!(v.source, VerdictSource::TextOnly | VerdictSource::GraphSpliced))
}

fn served(result: &Result<Verdict, ServeError>) -> Served {
    match result {
        Ok(v) => Ok(Answer::Verdict(v.predicted_legitimate)),
        Err(ServeError::Verify(VerifyError::EmptySite(_))) => Ok(Answer::EmptySite),
        Err(ServeError::Verify(VerifyError::Unreachable { .. })) => Ok(Answer::Unreachable),
        Err(ServeError::Verify(VerifyError::BadUrl(_))) => Err(Failure::BadUrl),
        Err(ServeError::Overloaded) => Err(Failure::Overloaded),
        Err(ServeError::Shedding) => Err(Failure::Shedding),
        Err(ServeError::Lost) => Err(Failure::Lost),
    }
}

/// A direct verification's answer, in the same terms; a bad URL has
/// none.
fn direct(result: &Result<Verdict, VerifyError>) -> Option<Answer> {
    match result {
        Ok(v) => Some(Answer::Verdict(v.predicted_legitimate)),
        Err(VerifyError::EmptySite(_)) => Some(Answer::EmptySite),
        Err(VerifyError::Unreachable { .. }) => Some(Answer::Unreachable),
        Err(VerifyError::BadUrl(_)) => None,
    }
}

impl Front {
    fn new(kind: Kind, state: &State) -> Front {
        let verifier = Arc::clone(&state.verifier);
        let host = Arc::clone(&state.host);
        match kind {
            Kind::Zipf => {
                Front::Service(VerifyService::new(verifier, host, ServeConfig::default()))
            }
            Kind::Sweep => Front::Federation(Federation::with_observability(
                verifier,
                host,
                ServeConfig::default(),
                policy(),
                pharmaverify_obs::global_arc(),
                Arc::new(WallClock::new()),
            )),
        }
    }

    fn submit(&mut self, url: &str) -> Sent {
        match self {
            Front::Service(s) => match s.submit(url) {
                Ok(ticket) => match ticket.try_take() {
                    Some(result) => Sent::Done(served(&result), computed(&result)),
                    None => Sent::Pending(ticket),
                },
                Err(e) => Sent::Done(served(&Err(e)), false),
            },
            Front::Federation(f) => match f.submit(url) {
                Routed::Done(v) => {
                    let result = Ok(v);
                    Sent::Done(served(&result), computed(&result))
                }
                Routed::Slow { ticket, .. } => Sent::Pending(ticket),
                Routed::Failed(e) => Sent::Done(served(&Err(e)), false),
            },
        }
    }

    fn flush(&self) {
        match self {
            Front::Service(s) => s.flush(),
            Front::Federation(f) => f.flush(),
        }
    }

    /// Hands a completed slow-path verdict back (federation only), in
    /// submission order.
    fn complete(&mut self, verdict: &Verdict) {
        if let Front::Federation(f) = self {
            f.complete_slow(verdict);
        }
    }

    fn shutdown(self) {
        match self {
            Front::Service(s) => s.shutdown(),
            Front::Federation(f) => f.shutdown(),
        }
    }
}

/// One request as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
struct Record {
    url: usize,
    due: Instant,
    sent: Instant,
    returned: Instant,
    /// Ticket wait (collector thread), for requests that got a ticket.
    wait: Option<(Instant, Instant)>,
    done: Instant,
    served: Served,
    /// Answered with a verdict computed for this request.
    computed: bool,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    fn timeline(&self, epoch: Instant) -> Timeline {
        Timeline {
            due: (self.due - epoch).as_secs_f64(),
            done: (self.done - epoch).as_secs_f64(),
            answered: self.served.is_ok(),
        }
    }
}

/// One open-loop phase's requests.
struct Phase {
    start: Instant,
    records: Vec<Record>,
}

impl Phase {
    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for r in &self.records {
            t.record(&r.served);
        }
        t
    }
}

/// Open loop at `rate` for `count` requests: one request due every
/// `1/rate` seconds, sent when due whatever the state of earlier ones.
/// The forming batch is flushed whenever the generator goes idle.
fn open_loop(
    front: &mut Front,
    source: &mut Source,
    state: &State,
    rate: f64,
    count: usize,
) -> Phase {
    let (ticket_tx, ticket_rx) = mpsc::channel::<(usize, Ticket)>();
    let (back_tx, back_rx) = mpsc::channel::<Verdict>();
    let start = Instant::now();
    let mut records: Vec<Record> = Vec::with_capacity(count);
    let waits = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut waits = Vec::new();
            for (i, ticket) in ticket_rx {
                let t0 = Instant::now();
                let result = ticket.wait();
                let t1 = Instant::now();
                if let Ok(v) = &result {
                    // The generator hands slow verdicts back in order.
                    let _ = back_tx.send(v.clone());
                }
                waits.push((i, t0, t1, served(&result), computed(&result)));
            }
            waits
        });
        for i in 0..count {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if Instant::now() < due {
                front.flush();
                while let Ok(v) = back_rx.try_recv() {
                    front.complete(&v);
                }
                wait_until(due);
            }
            let url = source.next(state);
            let sent = Instant::now();
            let result = front.submit(&state.urls[url]);
            let returned = Instant::now();
            let (served, computed) = match result {
                Sent::Done(s, c) => (s, c),
                Sent::Pending(ticket) => {
                    let _ = ticket_tx.send((i, ticket));
                    (Err(Failure::Lost), false)
                }
            };
            records.push(Record {
                url,
                due,
                sent,
                returned,
                wait: None,
                done: returned,
                served,
                computed,
            });
        }
        front.flush();
        drop(ticket_tx);
        collector.join().expect("collector thread")
    });
    for v in back_rx.try_iter() {
        front.complete(&v);
    }
    for (i, t0, t1, s, c) in waits {
        let r = &mut records[i];
        r.wait = Some((t0.max(r.returned), t1));
        r.done = t1.max(r.returned);
        r.served = s;
        r.computed = c;
    }
    Phase { start, records }
}

/// Sleeps until shortly before `due`, then spins to it: a plain sleep
/// overshoots by tens of microseconds, which would read as latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// A closed-loop slice: how many requests it answered in how long, and
/// each answer for the correctness check.
struct Capacity {
    wall_s: f64,
    /// Time spent inside submit calls.
    submit_s: f64,
    answers: Vec<(usize, Served)>,
}

impl Capacity {
    fn rate(&self) -> f64 {
        self.answers.iter().filter(|(_, s)| s.is_ok()).count() as f64 / self.wall_s
    }
}

/// Closed loop with [`WINDOW`] requests outstanding for `requests`
/// requests: the front-end's capacity.
fn closed_loop(front: &mut Front, source: &mut Source, state: &State, requests: usize) -> Capacity {
    source.restart();
    let start = Instant::now();
    let mut answers: Vec<(usize, Served)> = Vec::new();
    let mut submit_s = 0.0;
    let mut outstanding: VecDeque<(usize, Ticket)> = VecDeque::new();
    let finish =
        |front: &mut Front, answers: &mut Vec<(usize, Served)>, url: usize, ticket: Ticket| {
            let result = ticket.wait();
            if let Ok(v) = &result {
                front.complete(v);
            }
            answers.push((url, served(&result)));
        };
    for _ in 0..requests {
        if outstanding.len() >= WINDOW {
            front.flush();
            let (url, ticket) = outstanding.pop_front().expect("window is full");
            finish(front, &mut answers, url, ticket);
        }
        let url = source.next(state);
        let sent = Instant::now();
        let result = front.submit(&state.urls[url]);
        submit_s += sent.elapsed().as_secs_f64();
        match result {
            Sent::Done(s, _) => answers.push((url, s)),
            Sent::Pending(ticket) => outstanding.push_back((url, ticket)),
        }
    }
    front.flush();
    while let Some((url, ticket)) = outstanding.pop_front() {
        finish(front, &mut answers, url, ticket);
    }
    Capacity {
        wall_s: start.elapsed().as_secs_f64(),
        submit_s,
        answers,
    }
}

/// The whole timed phase: [`ROUNDS`] rounds of a nominal-rate slice and
/// a closed-loop slice, then the rate ladder.
struct Timed {
    nominal: Vec<Phase>,
    capacity: Vec<Capacity>,
    ladder: Vec<(Rung, Phase)>,
    /// Registry activity over the timed phase.
    delta: Delta,
    wall_s: f64,
}

impl Timed {
    /// Open-loop phases: nominal slices, then ladder rungs.
    fn phases(&self) -> impl Iterator<Item = &Phase> {
        self.nominal
            .iter()
            .chain(self.ladder.iter().map(|(_, p)| p))
    }

    /// Every answer of the timed phase, with its pool index.
    fn answers(&self) -> impl Iterator<Item = (usize, Served)> + '_ {
        self.phases()
            .flat_map(|p| p.records.iter().map(|r| (r.url, r.served)))
            .chain(self.capacity.iter().flat_map(|c| c.answers.iter().copied()))
    }

    /// Requests of the nominal-rate slices, in time order.
    fn nominal_records(&self) -> impl Iterator<Item = &Record> {
        self.nominal.iter().flat_map(|p| p.records.iter())
    }

    /// Answers per second in the best closed-loop slice.
    fn capacity_rps(&self) -> f64 {
        self.capacity.iter().map(Capacity::rate).fold(0.0, f64::max)
    }

    /// Failure accounting over the nominal and capacity slices.
    fn counted(&self) -> Tally {
        let mut t = Tally::default();
        for r in self.nominal_records() {
            t.record(&r.served);
        }
        for (_, s) in self.capacity.iter().flat_map(|c| c.answers.iter()) {
            t.record(s);
        }
        t
    }
}

/// Rounds of the timed phase: the nominal and closed-loop slices are
/// spread over the run, so the best closed-loop slice and the best
/// latency window can come from any stretch of it.
const ROUNDS: usize = 5;

fn timed(spec: &Spec, state: &State, seed: u64, seconds: f64) -> Timed {
    let before = Reading::now();
    let start = Instant::now();
    let mut front = Front::new(spec.kind, state);
    // The nominal stream runs on across rounds; the closed-loop slices
    // draw from a stream of their own.
    let mut source = Source::new(spec.kind, state, seed);
    let mut probe = Source::new(spec.kind, state, seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut total = (spec.nominal_rps * 0.75 * seconds).round() as usize;
    if spec.kind == Kind::Sweep {
        let pool = state.urls.len();
        total = ((total + pool / 2) / pool).max(1) * pool;
    }
    let mut nominal = Vec::new();
    let mut capacity = Vec::new();
    for round in 0..ROUNDS {
        let count = total * (round + 1) / ROUNDS - total * round / ROUNDS;
        nominal.push(open_loop(
            &mut front,
            &mut source,
            state,
            spec.nominal_rps,
            count,
        ));
        capacity.push(closed_loop(
            &mut front,
            &mut probe,
            state,
            spec.probe_requests,
        ));
    }
    let rung_s = 0.15 * seconds / spec.ladder.len() as f64;
    let mut ladder = Vec::new();
    for &rate in spec.ladder {
        let count = (rate * rung_s).round().max(1.0) as usize;
        let phase = open_loop(&mut front, &mut source, state, rate, count);
        let timelines: Vec<Timeline> = phase
            .records
            .iter()
            .map(|r| r.timeline(phase.start))
            .collect();
        let rung = Rung::judge(rate, &timelines, spec.p99_limit_ms / 1e3);
        ladder.push((rung, phase));
        if !rung.passes() {
            break;
        }
    }
    front.shutdown();
    Timed {
        nominal,
        capacity,
        ladder,
        delta: Reading::now().since(&before),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Direct `TrainedVerifier::verify` answers for every pool URL the timed
/// phase served, made after it, and the times of the calls that returned
/// a verdict.
fn direct_answers(state: &State, timed: &Timed) -> Result<(Vec<Answer>, Vec<f64>), String> {
    let mut used = vec![false; state.urls.len()];
    for (url, _) in timed.answers() {
        used[url] = true;
    }
    let mut answers = vec![Answer::EmptySite; state.urls.len()];
    let mut times_ms = Vec::new();
    for (i, url) in state.urls.iter().enumerate().filter(|&(i, _)| used[i]) {
        let t0 = Instant::now();
        let result = state.verifier.verify(state.host.as_ref(), url);
        if result.is_ok() {
            times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        answers[i] = direct(&result).ok_or_else(|| format!("pool URL {url} does not parse"))?;
    }
    Ok((answers, times_ms))
}

fn check(state: &State, timed: &Timed, direct: &[Answer], out: &mut Outcome) {
    let served: Vec<(usize, Answer)> = timed
        .answers()
        .filter_map(|(url, s)| s.ok().map(|a| (url, a)))
        .collect();
    let mismatches = crate::stats::check_answers(&state.urls, &served, direct, 5);
    for m in &mismatches {
        out.problems.push(format!(
            "served {:?} for {} but a direct verify answers {:?}",
            m.served, m.url, m.direct
        ));
    }
}

/// How late the generator sent nominal-rate requests: the 99th
/// percentile of sent - due, or the 90th when too few requests support
/// the 99th.
fn lateness(t: &Timed) -> Option<(Percentile, String)> {
    let late: Vec<f64> = t
        .nominal_records()
        .map(|r| (r.sent - r.due).as_secs_f64() * 1e3)
        .collect();
    [(0.99, "p99"), (0.9, "p90")]
        .into_iter()
        .find_map(|(q, name)| {
            percentile_of(&late, q).map(|p| {
                let note = percentile_note(&p, &format!("{name} of sent - due at nominal rate"));
                (p, note)
            })
        })
}

fn percentile_note(p: &Percentile, what: &str) -> String {
    format!("n={}, {} beyond; {what}", p.samples, p.beyond)
}

pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let setups = if args.trace { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut state = None;
    let before_setup = Reading::now();
    for _ in 0..setups {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup(args.trace.then_some(&tracer))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup_delta = Reading::now().since(&before_setup);
    let state = state.expect("at least one set-up");

    if !args.trace {
        let t = timed(spec, &state, args.seed, args.seconds);
        let (answers, _) = direct_answers(&state, &t)?;
        check(&state, &t, &answers, &mut out);
        // p50 over verdicts computed for the request: cached and
        // empty-site answers are about half of the traffic, so a median
        // over everything would sit on the edge between the two modes.
        // The tail over every request; a refusal is an unbounded wait.
        let computed_ms: Vec<f64> = t
            .nominal_records()
            .filter(|r| r.computed)
            .map(Record::latency_ms)
            .collect();
        let all_ms: Vec<f64> = t
            .nominal_records()
            .map(|r| {
                if r.served.is_ok() {
                    r.latency_ms()
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let (p50, k50) = best_window_percentile(&computed_ms, 0.5, spec.windows)
            .ok_or("too few verdicts for p50")?;
        let (p90, k90) =
            best_window_percentile(&all_ms, 0.9, spec.windows).ok_or("too few requests for p90")?;
        if !p90.value.is_finite() {
            out.problems
                .push("more than 10% of nominal-rate requests were refused or failed".into());
        }
        let counted = t.counted();
        out.attempted = counted.attempted;
        out.failed = counted.not_answered();
        out.metric(
            "setup_s",
            median(&setup_s),
            format!("median of {setups} generate + extract + fit"),
        );
        out.metric("peak_rss_mb", peak_rss_mb(), "VmHWM");
        out.metric(
            "sites_per_s",
            t.capacity_rps(),
            format!(
                "closed loop, {WINDOW} outstanding, best of {ROUNDS} slices of {} requests",
                spec.probe_requests
            ),
        );
        let at = |what: &str, k: usize| {
            format!(
                "{what}, due to answer at {} rps, best of {k} windows",
                spec.nominal_rps
            )
        };
        out.extra(
            "p50_ms",
            p50.value,
            "ms",
            percentile_note(&p50, &at("computed verdicts", k50)),
        );
        out.extra(
            "p90_ms",
            p90.value,
            "ms",
            percentile_note(&p90, &at("all requests", k90)),
        );
        // Printed when at least ten requests lie beyond it.
        if let Some((p99, k99)) = best_window_percentile(&all_ms, 0.99, spec.windows) {
            out.extra(
                "p99_ms",
                p99.value,
                "ms",
                percentile_note(&p99, &at("all requests", k99)),
            );
        }
        let rungs: Vec<Rung> = t.ladder.iter().map(|(r, _)| *r).collect();
        let ladder_note: Vec<String> = t
            .ladder
            .iter()
            .map(|(r, p)| {
                let tally = p.tally();
                format!(
                    "{}:{}{}",
                    r.rate,
                    if r.passes() { "ok" } else { "miss" },
                    if tally.refused > 0 {
                        format!("({} refused)", tally.refused)
                    } else {
                        String::new()
                    }
                )
            })
            .collect();
        out.extra(
            "max_rate_rps",
            max_rate(&rungs).unwrap_or(0.0),
            "1/s",
            format!(
                "p99 limit {} ms; ladder {}",
                spec.p99_limit_ms,
                ladder_note.join(" ")
            ),
        );
        out.extra(
            "fail_share",
            counted.fail_share(),
            "share",
            format!(
                "refused or failed / {} attempted (nominal + closed loop)",
                counted.attempted
            ),
        );
        if let Some((p, note)) = lateness(&t) {
            out.extra("serve.generator_late_ms", p.value, "ms", note);
        }
        shares(&t, &state, spec, &mut out);
        return Ok(out);
    }

    // Traced run: the same timed phase untraced, then traced.
    let plain = timed(spec, &state, args.seed, args.seconds);
    let t = timed(spec, &state, args.seed, args.seconds);
    let (answers, verify_ms) = direct_answers(&state, &t)?;
    check(&state, &t, &answers, &mut out);
    record_request_spans(&tracer, &t);
    let text_only_ms: Vec<f64> = state
        .urls
        .iter()
        .filter_map(|url| {
            let t0 = Instant::now();
            let result = state.verifier.verify_text_only(state.host.as_ref(), url);
            result.ok().map(|_| t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    let own = tracer.self_times();
    let d = &t.delta;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes: BTreeMap<&'static str, String> = BTreeMap::new();
    let p50 = |xs: &[f64]| percentile_of(xs, 0.5).map_or(0.0, |p| p.value);
    v.insert(
        "corpus.generate_s",
        own.get("corpus.generate").copied().unwrap_or(0.0),
    );
    v.insert(
        "crawl.extract_s",
        own.get("crawl.extract").copied().unwrap_or(0.0),
    );
    v.insert("core.fit_s", own.get("core.fit").copied().unwrap_or(0.0));
    let mut all = setup_delta.clone();
    all.merge(d);
    v.insert(
        "ngg.class_graph_build_s",
        all.span_s("ngg/class-graphs/build"),
    );
    v.insert(
        "ngg.class_graph_builds",
        all.span_count("ngg/class-graphs/build") as f64,
    );
    v.insert("text.tfidf_fit_s", all.span_s("text/tfidf/fit"));
    v.insert("crawl.site_crawls", d.span_count("crawl/site") as f64);
    v.insert(
        "crawl.site_ms",
        1e3 * d.span_s("crawl/site") / d.span_count("crawl/site").max(1) as f64,
    );
    v.insert("net.trust_rank_s", d.span_s("net/csr/trustrank"));
    v.insert("net.anti_trust_rank_s", d.span_s("net/csr/antitrustrank"));
    v.insert("core.verify_ms", p50(&verify_ms));
    v.insert("core.verify_text_only_ms", p50(&text_only_ms));
    notes.insert(
        "core.verify_ms",
        format!("p50 of {} direct calls with a verdict", verify_ms.len()),
    );
    notes.insert(
        "core.verify_text_only_ms",
        format!("p50 of {} direct calls with a verdict", text_only_ms.len()),
    );
    let incremental = d.counter("core/verifier/trust_incremental") as f64;
    v.insert(
        "net.incremental_share",
        ratio(
            incremental,
            incremental + d.counter("core/verifier/trust_fallback") as f64,
        ),
    );
    let records: Vec<&Record> = t.phases().flat_map(|p| p.records.iter()).collect();
    let submit_us: Vec<f64> = records
        .iter()
        .map(|r| (r.returned - r.sent).as_secs_f64() * 1e6)
        .collect();
    let wait_ms: Vec<f64> = records
        .iter()
        .filter_map(|r| r.wait.map(|(a, b)| (b - a).as_secs_f64() * 1e3))
        .collect();
    // Means, not medians: these are busy time per call, and the calls
    // are a mix of cheap answers and verifications.
    let mean = |xs: &[f64]| ratio(xs.iter().sum(), xs.len() as f64);
    v.insert("serve.submit_us", mean(&submit_us));
    v.insert("serve.wait_ms", mean(&wait_ms));
    notes.insert(
        "serve.submit_us",
        format!("mean of {} open-loop submit calls", submit_us.len()),
    );
    notes.insert(
        "serve.wait_ms",
        format!("mean of {} ticket waits", wait_ms.len()),
    );
    v.insert(
        "serve.batch_size_mean",
        ratio(
            d.counter("core/verifier/batch_requests") as f64,
            d.counter("serve/batch") as f64,
        ),
    );
    v.insert(
        "serve.rejected",
        (d.counter("serve/rejected") + d.counter("serve/shed")) as f64,
    );
    if spec.kind == Kind::Sweep {
        v.insert("serve.route_ms", mean(&submit_us) / 1e3);
        notes.insert(
            "serve.route_ms",
            "mean of Federation::submit, tiers 1-3 included".into(),
        );
    }
    if let Some((p, note)) = lateness(&t) {
        v.insert("serve.generator_late_ms", p.value);
        notes.insert("serve.generator_late_ms", note);
    }
    let mut shares_out = Outcome::default();
    shares(&t, &state, spec, &mut shares_out);
    for m in shares_out.extra {
        v.insert(m.name, m.value);
        notes.insert(m.name, m.note);
    }
    let submit_s =
        submit_us.iter().sum::<f64>() / 1e6 + t.capacity.iter().map(|c| c.submit_s).sum::<f64>();
    let busy = submit_s + d.span_s("serve/batch/run");
    v.insert("obs.covered_share", busy / t.wall_s);
    notes.insert(
        "obs.covered_share",
        format!(
            "(submit calls + worker batch time) / timed wall {:.3} s",
            t.wall_s
        ),
    );
    v.insert(
        "obs.trace_overhead_share",
        plain.capacity_rps() / t.capacity_rps() - 1.0,
    );
    notes.insert(
        "obs.trace_overhead_share",
        "untraced sites_per_s / traced - 1".into(),
    );
    let counted = t.counted();
    out.attempted = counted.attempted;
    out.failed = counted.not_answered();
    out.layers(&v, &notes);
    tracer
        .write_jsonl(&crate::trace_path(args))
        .map_err(|e| format!("writing trace: {e}"))?;
    Ok(out)
}

/// Property shares of the timed phase, as printed-only metrics named
/// like their per-layer counterparts.
fn shares(t: &Timed, state: &State, spec: &Spec, out: &mut Outcome) {
    let mut tally = Tally::default();
    let mut distinct = vec![false; state.urls.len()];
    for (url, served) in t.answers() {
        tally.record(&served);
        distinct[url] = true;
    }
    let answered = tally.answered() as f64;
    out.extra(
        "serve.answer_share.verdict",
        ratio(tally.verdicts as f64, answered),
        "share",
        "",
    );
    out.extra(
        "serve.answer_share.empty_site",
        ratio(tally.empty_site as f64, answered),
        "share",
        "",
    );
    out.extra(
        "serve.answer_share.unreachable",
        ratio(tally.unreachable as f64, answered),
        "share",
        "",
    );
    let capacity = ServeConfig::default().cache_capacity;
    let working = distinct.iter().filter(|&&d| d).count();
    out.extra(
        "serve.working_set_ratio",
        working as f64 / capacity as f64,
        "ratio",
        format!("{working} distinct domains / {capacity} cache entries"),
    );
    let d = &t.delta;
    match spec.kind {
        Kind::Zipf => {
            let hits = d.counter("serve/cache/hit") as f64;
            let lookups = hits + d.counter("serve/cache/miss") as f64;
            out.extra(
                "serve.cache_hit_share",
                ratio(hits, lookups),
                "share",
                "hits incl. coalesced / lookups",
            );
        }
        Kind::Sweep => {
            let requests = d.counter("serve/federation/requests") as f64;
            let fast_hit = d.counter("serve/federation/tier/fast/hit") as f64;
            let fast_error = d.counter("serve/federation/tier/fast/error") as f64;
            let fast_attempts =
                fast_hit + fast_error + d.counter("serve/federation/tier/fast/fallthrough") as f64;
            let cache = d.counter("serve/federation/tier/cache/hit") as f64;
            out.extra(
                "serve.cache_hit_share",
                ratio(cache, requests),
                "share",
                "tier-1 answers / requests",
            );
            out.extra(
                "serve.tier_share.cache",
                ratio(cache, requests),
                "share",
                "",
            );
            out.extra(
                "serve.tier_share.store",
                ratio(
                    d.counter("serve/federation/tier/store/hit") as f64,
                    requests,
                ),
                "share",
                format!("staleness budget {STALENESS_BUDGET_MICROS} us wall"),
            );
            out.extra(
                "serve.tier_share.fast",
                ratio(fast_hit + fast_error, requests),
                "share",
                "accepted verdicts and crawl errors",
            );
            out.extra(
                "serve.tier_share.slow",
                ratio(d.counter("serve/federation/tier/slow/hit") as f64, requests),
                "share",
                "",
            );
            out.extra(
                "serve.fast_accept_share",
                ratio(fast_hit, fast_attempts),
                "share",
                format!("fast hits / {fast_attempts} fast attempts"),
            );
        }
    }
}

/// Writes each request's spans: the request (due to answer), its submit
/// call and its ticket wait, under one request id.
fn record_request_spans(tracer: &Tracer, t: &Timed) {
    let mut id = 0u64;
    for p in t.phases() {
        for r in &p.records {
            id += 1;
            let root = tracer.record(
                "serve.request",
                tracer.at(r.due),
                tracer.at(r.done),
                None,
                id,
            );
            tracer.record(
                "serve.submit",
                tracer.at(r.sent),
                tracer.at(r.returned),
                Some(root),
                id,
            );
            if let Some((a, b)) = r.wait {
                tracer.record("serve.wait", tracer.at(a), tracer.at(b), Some(root), id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(680, 7, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..680).collect::<Vec<_>>());
        assert_eq!(a, permutation(680, 7, 0));
        assert_ne!(a, permutation(680, 7, 1));
        assert_ne!(a, permutation(680, 8, 0));
    }
}
