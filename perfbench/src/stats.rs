//! The benchmark's own arithmetic: percentiles with the sample-count
//! rule, rate-ladder selection with the backlog test, failure
//! accounting and the served-versus-direct correctness check.
//!
//! Everything here is a pure function of recorded numbers, so it is
//! unit-tested without running the system.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: u64 = 10;

/// A percentile read from a sample, with the counts that support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile.
    pub value: f64,
    /// Samples in total.
    pub samples: u64,
    /// Samples strictly above the percentile's rank.
    pub beyond: u64,
}

/// Nearest-rank percentile `q` (in `(0, 1)`) over weighted samples
/// `(value, count)`. `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond the rank, so a tail is never read from a handful of values.
pub fn percentile(samples: &[(f64, u64)], q: f64) -> Option<Percentile> {
    let total: u64 = samples.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let beyond = total - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted: Vec<(f64, u64)> = samples.iter().copied().filter(|&(_, c)| c > 0).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut seen = 0u64;
    for (value, count) in sorted {
        seen += count;
        if seen >= rank {
            return Some(Percentile {
                value,
                samples: total,
                beyond,
            });
        }
    }
    None
}

/// [`percentile`] over unweighted samples.
pub fn percentile_of(values: &[f64], q: f64) -> Option<Percentile> {
    let weighted: Vec<(f64, u64)> = values.iter().map(|&v| (v, 1)).collect();
    percentile(&weighted, q)
}

/// Percentile `q` read in each of up to `max_windows` consecutive,
/// equal slices of `values` (in arrival order), keeping the lowest
/// reading: on a shared host the quietest stretch of a run is the one
/// that repeats from run to run. Uses the most windows that still leave
/// [`MIN_BEYOND`] samples beyond `q` in each; returns the window count.
pub fn best_window_percentile(
    values: &[f64],
    q: f64,
    max_windows: usize,
) -> Option<(Percentile, usize)> {
    let windows = (1..=max_windows.max(1))
        .rev()
        .find(|&k| percentile_of(&values[..values.len() / k], q).is_some())?;
    let size = values.len() / windows;
    let best = values
        .chunks(size)
        .take(windows)
        .filter_map(|w| percentile_of(w, q))
        .min_by(|a, b| a.value.total_cmp(&b.value))?;
    Some((best, windows))
}

/// Median of a small set of repeats (set-up times), without the
/// sample-count rule: the lower middle value of an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[(n - 1) / 2],
    }
}

/// What a served request ended as, from the benchmark's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// A verdict with its hard label (`true` = legitimate).
    Verdict(bool),
    /// The site has no crawlable pages: a correct answer.
    EmptySite,
    /// Transient failures only: a correct answer about the site.
    Unreachable,
}

/// Why a request got no answer. Every one of these is a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Refused: the admission queue was full.
    Overloaded,
    /// Refused: the degradation breaker was open.
    Shedding,
    /// Refused: the service shut down before answering.
    Lost,
    /// Failed: the seed URL did not parse.
    BadUrl,
}

/// One request's outcome.
pub type Served = Result<Answer, Failure>;

/// Failure accounting over a set of requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with a verdict.
    pub verdicts: u64,
    /// Requests answered `EmptySite`.
    pub empty_site: u64,
    /// Requests answered `Unreachable`.
    pub unreachable: u64,
    /// Requests refused (`Overloaded`, `Shedding`, `Lost`).
    pub refused: u64,
    /// Requests failed (bad URL).
    pub failed: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn record(&mut self, served: &Served) {
        self.attempted += 1;
        match served {
            Ok(Answer::Verdict(_)) => self.verdicts += 1,
            Ok(Answer::EmptySite) => self.empty_site += 1,
            Ok(Answer::Unreachable) => self.unreachable += 1,
            Err(Failure::Overloaded | Failure::Shedding | Failure::Lost) => self.refused += 1,
            Err(Failure::BadUrl) => self.failed += 1,
        }
    }

    /// Requests that got an answer.
    pub fn answered(&self) -> u64 {
        self.verdicts + self.empty_site + self.unreachable
    }

    /// Refused plus failed.
    pub fn not_answered(&self) -> u64 {
        self.refused + self.failed
    }

    /// `not_answered / attempted` (0 for an empty tally).
    pub fn fail_share(&self) -> f64 {
        ratio(self.not_answered() as f64, self.attempted as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One open-loop request's timeline, in seconds from a common epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeline {
    /// When the request was due to be sent.
    pub due: f64,
    /// When it was answered, refused or failed.
    pub done: f64,
    /// Whether it got an answer.
    pub answered: bool,
}

/// The highest share of a rung's requests that may miss the latency
/// limit: the limit is on the 99th percentile.
pub const MISS_SHARE: f64 = 0.01;

/// A rung meets the limit when no more than [`MISS_SHARE`] of its
/// requests miss it; a refused or failed request always misses.
pub fn meets_limit(requests: &[Timeline], limit_s: f64) -> bool {
    if requests.is_empty() {
        return false;
    }
    let misses = requests
        .iter()
        .filter(|r| !r.answered || r.done - r.due > limit_s)
        .count();
    (misses as f64) <= MISS_SHARE * requests.len() as f64
}

/// Requests due but not yet done, sampled at each request's due time.
pub fn backlog_at_due(requests: &[Timeline]) -> Vec<u64> {
    let mut dues: Vec<f64> = requests.iter().map(|r| r.due).collect();
    let mut dones: Vec<f64> = requests.iter().map(|r| r.done).collect();
    dues.sort_by(f64::total_cmp);
    dones.sort_by(f64::total_cmp);
    let mut finished = 0usize;
    dues.iter()
        .enumerate()
        .map(|(i, &t)| {
            while finished < dones.len() && dones[finished] <= t {
                finished += 1;
            }
            (i + 1).saturating_sub(finished) as u64
        })
        .collect()
}

/// A backlog grows when its mean over the last third of a rung exceeds
/// twice its mean over the first third plus a slack of a few requests:
/// at a sustainable rate the backlog hovers around rate × latency, under
/// overload it climbs for as long as the rung lasts.
pub fn backlog_grows(requests: &[Timeline]) -> bool {
    const SLACK: f64 = 4.0;
    let backlog = backlog_at_due(requests);
    let third = backlog.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    let first = mean(&backlog[..third]);
    let last = mean(&backlog[backlog.len() - third..]);
    last > 2.0 * first + SLACK
}

/// One rung of a rate ladder, judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Whether the rung met the latency limit.
    pub meets_limit: bool,
    /// Whether its backlog grew.
    pub backlog_grows: bool,
}

impl Rung {
    /// Judges one rung's requests against the limit and the backlog test.
    pub fn judge(rate: f64, requests: &[Timeline], limit_s: f64) -> Rung {
        Rung {
            rate,
            meets_limit: meets_limit(requests, limit_s),
            backlog_grows: backlog_grows(requests),
        }
    }

    /// A rung passes when it meets the limit with no growing backlog.
    pub fn passes(&self) -> bool {
        self.meets_limit && !self.backlog_grows
    }
}

/// The highest rate of an ascending ladder whose rung and every lower
/// rung passed; `None` when the lowest rung already fails.
pub fn max_rate(rungs: &[Rung]) -> Option<f64> {
    rungs
        .iter()
        .take_while(|r| r.passes())
        .last()
        .map(|r| r.rate)
}

/// A served answer that differs from the direct call on the same URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The URL.
    pub url: String,
    /// What the front-end answered.
    pub served: Answer,
    /// What a direct verification answered.
    pub direct: Answer,
}

/// Compares every served answer with the direct answer for its URL.
/// `served` holds `(url index, answer)`; `direct[i]` is the direct
/// answer for URL `i`. Returns the mismatches, at most `limit` of them.
pub fn check_answers(
    urls: &[String],
    served: &[(usize, Answer)],
    direct: &[Answer],
    limit: usize,
) -> Vec<Mismatch> {
    served
        .iter()
        .filter(|&&(i, answer)| direct[i] != answer)
        .take(limit)
        .map(|&(i, answer)| Mismatch {
            url: urls[i].clone(),
            served: answer,
            direct: direct[i],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: rank ceil(0.99 * 999) = 990, 9 beyond.
        assert_eq!(percentile_of(&values, 0.99), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile_of(&values, 0.99).expect("1000 samples support p99");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        let p50 = percentile_of(&values, 0.5).expect("1000 samples support p50");
        assert_eq!(p50.value, 500.0);
        assert_eq!(percentile_of(&[], 0.5), None);
        // 19 samples: the median has 9 beyond it, 20 have 10.
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile_of(&values, 0.5), None);
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_of(&values, 0.5).map(|p| p.value), Some(10.0));
    }

    #[test]
    fn weighted_percentile_matches_expanded() {
        let weighted = [(3.0, 500), (1.0, 400), (2.0, 100)];
        let mut expanded = Vec::new();
        for &(v, c) in &weighted {
            expanded.extend(std::iter::repeat_n(v, c as usize));
        }
        for q in [0.3, 0.5, 0.9, 0.99] {
            assert_eq!(percentile(&weighted, q), percentile_of(&expanded, q));
        }
        assert_eq!(percentile(&weighted, 0.4).map(|p| p.value), Some(1.0));
        assert_eq!(percentile(&weighted, 0.45).map(|p| p.value), Some(2.0));
    }

    #[test]
    fn best_window_skips_a_stalled_window() {
        let mut values: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        // A stall: the first window's tail is a hundred times slower.
        for v in &mut values[..1000] {
            if *v >= 95.0 {
                *v *= 100.0;
            }
        }
        let plain = percentile_of(&values, 0.99).unwrap();
        let (best, k) = best_window_percentile(&values, 0.99, 5).unwrap();
        assert_eq!(
            k, 3,
            "1000 samples per window is the least that supports p99"
        );
        assert_eq!(best.value, 98.0);
        assert_eq!(best.samples, 1000);
        assert!(plain.value > 1000.0);
        assert_eq!(best_window_percentile(&values[..999], 0.99, 5), None);
        let (p50, k) = best_window_percentile(&values, 0.5, 5).unwrap();
        assert_eq!((p50.value, k), (49.0, 5));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn failure_accounting() {
        let mut tally = Tally::default();
        let outcomes: [Served; 7] = [
            Ok(Answer::Verdict(true)),
            Ok(Answer::Verdict(false)),
            Ok(Answer::EmptySite),
            Ok(Answer::Unreachable),
            Err(Failure::Overloaded),
            Err(Failure::Shedding),
            Err(Failure::BadUrl),
        ];
        for o in &outcomes {
            tally.record(o);
        }
        tally.record(&Err(Failure::Lost));
        assert_eq!(tally.attempted, 8);
        // EmptySite and Unreachable are answers, not failures.
        assert_eq!(tally.answered(), 4);
        assert_eq!(tally.refused, 3);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.fail_share(), 0.5);
        assert_eq!(Tally::default().fail_share(), 0.0);
    }

    fn steady(rate: f64, n: usize, latency: f64) -> Vec<Timeline> {
        (0..n)
            .map(|i| {
                let due = i as f64 / rate;
                Timeline {
                    due,
                    done: due + latency,
                    answered: true,
                }
            })
            .collect()
    }

    /// Service time `1 / capacity` per request, served in order: the
    /// queue of an open loop offered more than capacity.
    fn overloaded(rate: f64, capacity: f64, n: usize) -> Vec<Timeline> {
        let mut free = 0.0f64;
        (0..n)
            .map(|i| {
                let due = i as f64 / rate;
                free = free.max(due) + 1.0 / capacity;
                Timeline {
                    due,
                    done: free,
                    answered: true,
                }
            })
            .collect()
    }

    #[test]
    fn limit_counts_refusals_as_misses() {
        let mut requests = steady(100.0, 200, 0.001);
        assert!(meets_limit(&requests, 0.010));
        // Two misses in 200 is exactly 1%: still meets.
        requests[5].done += 1.0;
        requests[6].answered = false;
        assert!(meets_limit(&requests, 0.010));
        // A third miss, a refusal, breaks it.
        requests[7].answered = false;
        assert!(!meets_limit(&requests, 0.010));
        assert!(!meets_limit(&[], 0.010));
    }

    #[test]
    fn backlog_test_separates_steady_from_overload() {
        let steady = steady(500.0, 600, 0.004);
        assert!(!backlog_grows(&steady));
        assert_eq!(backlog_at_due(&steady[..3]), vec![1, 2, 2]);
        let over = overloaded(500.0, 400.0, 600);
        assert!(backlog_grows(&over));
        let under = overloaded(300.0, 400.0, 600);
        assert!(!backlog_grows(&under));
    }

    #[test]
    fn max_rate_is_highest_rung_with_all_lower_rungs_passing() {
        let limit = 0.020;
        let rung = |rate: f64| Rung::judge(rate, &overloaded(rate, 400.0, 600), limit);
        let ladder: Vec<Rung> = [100.0, 200.0, 300.0, 500.0, 800.0]
            .into_iter()
            .map(rung)
            .collect();
        assert!(ladder[2].passes());
        assert!(ladder[3].backlog_grows);
        assert_eq!(max_rate(&ladder), Some(300.0));
        // A pass above a failing rung does not count.
        let holes = [
            Rung {
                rate: 1.0,
                meets_limit: true,
                backlog_grows: false,
            },
            Rung {
                rate: 2.0,
                meets_limit: false,
                backlog_grows: false,
            },
            Rung {
                rate: 3.0,
                meets_limit: true,
                backlog_grows: false,
            },
        ];
        assert_eq!(max_rate(&holes), Some(1.0));
        assert_eq!(max_rate(&holes[1..]), None);
        // Meeting the limit with a growing backlog fails the rung.
        let growing = Rung {
            rate: 1.0,
            meets_limit: true,
            backlog_grows: true,
        };
        assert_eq!(max_rate(&[growing]), None);
    }

    #[test]
    fn mismatched_served_answer_trips_the_check() {
        let urls = vec!["http://a.com/".to_string(), "http://b.com/".to_string()];
        let direct = [Answer::Verdict(true), Answer::EmptySite];
        let good = [(0, Answer::Verdict(true)), (1, Answer::EmptySite)];
        assert!(check_answers(&urls, &good, &direct, 10).is_empty());
        let bad = [
            (0, Answer::Verdict(false)),
            (1, Answer::EmptySite),
            (1, Answer::Unreachable),
        ];
        let mismatches = check_answers(&urls, &bad, &direct, 10);
        assert_eq!(mismatches.len(), 2);
        assert_eq!(mismatches[0].url, "http://a.com/");
        assert_eq!(mismatches[0].served, Answer::Verdict(false));
        assert_eq!(mismatches[0].direct, Answer::Verdict(true));
        assert_eq!(check_answers(&urls, &bad, &direct, 1).len(), 1);
    }
}
