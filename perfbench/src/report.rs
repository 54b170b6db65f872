//! Metric names, the printed report and the final JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sites_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_s", "s"),
    ("core.fit_s", "s"),
    ("crawl.extract_s", "s"),
    ("crawl.site_crawls", "count"),
    ("crawl.site_ms", "ms"),
    ("text.tfidf_fit_s", "s"),
    ("ngg.class_graph_build_s", "s"),
    ("ngg.class_graph_builds", "count"),
    ("core.evaluate_s.tfidf", "s"),
    ("core.evaluate_s.ngg", "s"),
    ("core.evaluate_s.network", "s"),
    ("core.evaluate_s.rank_tfidf", "s"),
    ("core.evaluate_s.rank_ngg", "s"),
    ("core.pipeline_hit_share", "share"),
    ("core.unattributed_s", "s"),
    ("core.verify_ms", "ms"),
    ("core.verify_text_only_ms", "ms"),
    ("net.build_s", "s"),
    ("net.freeze_s", "s"),
    ("net.trust_rank_s", "s"),
    ("net.anti_trust_rank_s", "s"),
    ("net.incremental_share", "share"),
    ("serve.submit_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.route_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.cache_hit_share", "share"),
    ("serve.tier_share.cache", "share"),
    ("serve.tier_share.store", "share"),
    ("serve.tier_share.fast", "share"),
    ("serve.tier_share.slow", "share"),
    ("serve.fast_accept_share", "share"),
    ("serve.answer_share.verdict", "share"),
    ("serve.answer_share.empty_site", "share"),
    ("serve.answer_share.unreachable", "share"),
    ("serve.working_set_ratio", "ratio"),
    ("serve.generator_late_ms", "ms"),
    ("obs.covered_share", "share"),
    ("obs.trace_overhead_share", "share"),
];

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value rests on (sample count, definition).
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics for the JSON line.
    pub metrics: Vec<Metric>,
    /// Further metrics, printed but not in the JSON line.
    pub extra: Vec<Metric>,
    /// Correctness problems; any one makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Adds a JSON metric, taking its unit from the metric tables.
    pub fn metric(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let unit = unit_of(name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds a printed-only metric.
    pub fn extra(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.extra.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Fills the JSON metrics from per-layer values, in table order; a
    /// layer the map lacks reads 0.
    pub fn layers(
        &mut self,
        values: &BTreeMap<&'static str, f64>,
        notes: &BTreeMap<&'static str, String>,
    ) {
        for &(name, unit) in PER_LAYER {
            self.metrics.push(Metric {
                name,
                value: values.get(name).copied().unwrap_or(0.0),
                unit,
                note: notes.get(name).cloned().unwrap_or_default(),
            });
        }
    }

    /// True when no correctness check failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the report: one line per metric, then the JSON object as
    /// the last line of standard output.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!("workload {workload} seed {seed} trace {}", u8::from(trace));
        for m in &self.metrics {
            println!(
                "metric {} = {} {}{}",
                m.name,
                fmt_value(m.value),
                m.unit,
                note(&m.note)
            );
        }
        for m in &self.extra {
            println!(
                "also   {} = {} {}{}",
                m.name,
                fmt_value(m.value),
                m.unit,
                note(&m.note)
            );
        }
        for p in &self.problems {
            println!("INCORRECT: {p}");
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        println!("{}", self.json());
    }

    /// The final JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn note(text: &str) -> String {
    if text.is_empty() {
        String::new()
    } else {
        format!("  ({text})")
    }
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1000.0 || v == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A finite number as JSON, with all its digits; non-finite reads 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, "");
        o.metric("sites_per_s", 1.0 / 3.0, "best of 5 slices");
        let json = o.json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"sites_per_s\": {\"value\": 0.3333333333333333, \"unit\": \"1/s\"}}}"
        );
        o.problems.push("mismatch".into());
        assert!(o.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
