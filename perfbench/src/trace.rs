//! The traced run's own spans and the readings it takes from the
//! program's metric registry.
//!
//! The benchmark opens a span around each public call it makes: name,
//! start, end, parent and request id. Spans stay in memory and are
//! written out as JSON lines when the run ends. An untraced run passes
//! no [`Tracer`], so it records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span, in microseconds from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`core.evaluate_text_ngg`, `serve.submit`).
    pub name: &'static str,
    /// Start, µs.
    pub start: u64,
    /// End, µs.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request (0 = none).
    pub request: u64,
}

/// In-memory span store shared by the benchmark's threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// An instant as microseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("tracer lock");
        spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("tracer lock");
        let mut child_cover = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(p) = span.parent {
                child_cover[p] += span.end.saturating_sub(span.start);
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let own = span
                .end
                .saturating_sub(span.start)
                .saturating_sub(child_cover[i]);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("tracer lock");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// A reading of the program's registry: span totals (count, µs) by path
/// and the counters the benchmark looks at.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    spans: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
}

/// Registry counters the benchmark reads.
pub const COUNTERS: &[&str] = &[
    "serve/cache/hit",
    "serve/cache/miss",
    "serve/rejected",
    "serve/shed",
    "serve/batch",
    "core/verifier/batch_requests",
    "core/verifier/trust_incremental",
    "core/verifier/trust_fallback",
    "serve/federation/requests",
    "serve/federation/tier/cache/hit",
    "serve/federation/tier/store/hit",
    "serve/federation/tier/fast/hit",
    "serve/federation/tier/fast/fallthrough",
    "serve/federation/tier/fast/error",
    "serve/federation/tier/slow/hit",
];

impl Reading {
    /// Reads the process-global registry now.
    pub fn now() -> Reading {
        let obs = pharmaverify_obs::global();
        Reading {
            spans: obs
                .span_totals()
                .into_iter()
                .map(|(path, count, micros)| (path, (count, micros)))
                .collect(),
            counters: COUNTERS.iter().map(|&c| (c, obs.counter(c))).collect(),
        }
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &Reading) -> Delta {
        let spans = self
            .spans
            .iter()
            .map(|(path, &(count, micros))| {
                let (c0, m0) = before.spans.get(path).copied().unwrap_or((0, 0));
                (path.clone(), (count - c0, micros - m0))
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(&name, &v)| (name, v - before.counters.get(name).copied().unwrap_or(0)))
            .collect();
        Delta { spans, counters }
    }
}

/// Registry activity over an interval.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    spans: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
}

impl Delta {
    /// Seconds spent in spans at exactly `path`.
    pub fn span_s(&self, path: &str) -> f64 {
        self.spans.get(path).map_or(0.0, |&(_, m)| m as f64 / 1e6)
    }

    /// Spans closed at exactly `path`.
    pub fn span_count(&self, path: &str) -> u64 {
        self.spans.get(path).map_or(0, |&(c, _)| c)
    }

    /// Seconds in spans at `prefix/<leaf>` for every leaf under `prefix`.
    pub fn span_s_under(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(p, _)| p.starts_with(prefix) && p.len() > prefix.len())
            .map(|(_, &(_, m))| m as f64 / 1e6)
            .sum()
    }

    /// Counter growth.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds another interval's activity into this one.
    pub fn merge(&mut self, other: &Delta) {
        for (path, &(c, m)) in &other.spans {
            let e = self.spans.entry(path.clone()).or_insert((0, 0));
            e.0 += c;
            e.1 += m;
        }
        for (&name, &v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let parent = t.record("a", 0, 1_000_000, None, 1);
        t.record("b", 100_000, 400_000, Some(parent), 1);
        t.record("b", 500_000, 600_000, Some(parent), 1);
        t.record("c", 2_000_000, 2_500_000, None, 2);
        let own = t.self_times();
        assert!((own["a"] - 0.6).abs() < 1e-9);
        assert!((own["b"] - 0.4).abs() < 1e-9);
        assert!((own["c"] - 0.5).abs() < 1e-9);
    }
}
