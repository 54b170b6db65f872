//! `opc-batch`: the paper's evaluation pass (OPC classification and OPR
//! ranking) through one fresh `VerificationSystem` on the medium corpus.

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, percentile};
use crate::trace::{Delta, Reading, Tracer};
use crate::Args;
use pharmaverify_core::{RankingMethod, SystemConfig, TextLearnerKind, VerificationSystem};
use pharmaverify_corpus::{CorpusConfig, Snapshot, SyntheticWeb};
use pharmaverify_ml::Sampling;
use std::collections::BTreeMap;
use std::time::Instant;

/// The five public calls of one pass, in order, with the per-layer
/// metric that times each.
const CALLS: [(&str, &str); 5] = [
    ("core.evaluate_text_tfidf", "core.evaluate_s.tfidf"),
    ("core.evaluate_text_ngg", "core.evaluate_s.ngg"),
    ("core.evaluate_network", "core.evaluate_s.network"),
    ("core.rank_tfidf", "core.evaluate_s.rank_tfidf"),
    ("core.rank_ngg", "core.evaluate_s.rank_ngg"),
];

/// Quality outputs of a pass: deterministic for a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quality {
    auc_tfidf: f64,
    auc_ngg: f64,
    auc_network: f64,
    pairord_tfidf: f64,
    pairord_ngg: f64,
}

/// One timed pass.
struct Pass {
    wall_s: f64,
    /// Seconds from pass start to the end of each call.
    call_end_s: [f64; 5],
    /// Each call's wall time and registry activity.
    calls: [(f64, Delta); 5],
    quality: Quality,
    pipeline_hits: u64,
    pipeline_lookups: u64,
}

fn run_pass(snapshot: &Snapshot, seed: u64, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let system = VerificationSystem::new(SystemConfig::default());
    let start = Instant::now();
    let mut call_end_s = [0.0; 5];
    let mut calls: [(f64, Delta); 5] = Default::default();
    let mut outputs = [0.0f64; 5];
    for (k, &(span, _)) in CALLS.iter().enumerate() {
        let before = tracer.map(|_| Reading::now());
        let t0 = Instant::now();
        let span_start = tracer.map(|t| t.at(t0));
        let value = match k {
            0 => system
                .evaluate_text_tfidf(snapshot, seed)
                .map(|o| o.aggregate().auc),
            1 => system
                .evaluate_text_ngg(snapshot, TextLearnerKind::Nbm, seed)
                .map(|o| o.aggregate().auc),
            2 => system
                .evaluate_network(snapshot, seed)
                .map(|o| o.aggregate().auc),
            3 => system
                .rank(
                    snapshot,
                    RankingMethod::TfIdf {
                        kind: TextLearnerKind::Nbm,
                        sampling: Sampling::None,
                    },
                    seed,
                )
                .map(|o| o.pairord),
            _ => system
                .rank(snapshot, RankingMethod::NggEquation3, seed)
                .map(|o| o.pairord),
        }
        .map_err(|e| format!("{span} failed: {e}"))?;
        let t1 = Instant::now();
        if let (Some(t), Some(s), Some(b)) = (tracer, span_start, before) {
            t.record(span, s, t.at(t1), None, 0);
            calls[k].1 = Reading::now().since(&b);
        }
        calls[k].0 = (t1 - t0).as_secs_f64();
        call_end_s[k] = (t1 - start).as_secs_f64();
        outputs[k] = value;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (pipeline_hits, pipeline_lookups) = system
        .cache_counters()
        .iter()
        .fold((0, 0), |(h, n), c| (h + c.hits, n + c.hits + c.misses));
    Ok(Pass {
        wall_s,
        call_end_s,
        calls,
        quality: Quality {
            auc_tfidf: outputs[0],
            auc_ngg: outputs[1],
            auc_network: outputs[2],
            pairord_tfidf: outputs[3],
            pairord_ngg: outputs[4],
        },
        pipeline_hits,
        pipeline_lookups,
    })
}

/// Runs passes until `seconds` have gone by (at least one).
fn timed(snapshot: &Snapshot, args: &Args, tracer: Option<&Tracer>) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(run_pass(snapshot, args.seed, tracer)?);
    }
    Ok(passes)
}

/// The fastest pass: on a shared host the quietest stretch of a run is
/// the one that repeats from run to run.
fn best(passes: &[Pass]) -> &Pass {
    passes
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one pass")
}

fn sites_per_s(sites: usize, passes: &[Pass]) -> f64 {
    sites as f64 / best(passes).wall_s
}

fn check_quality(passes: &[Pass], out: &mut Outcome) {
    let q = passes[0].quality;
    for (name, v) in [
        ("auc_tfidf", q.auc_tfidf),
        ("auc_ngg", q.auc_ngg),
        ("auc_network", q.auc_network),
        ("pairord_tfidf", q.pairord_tfidf),
        ("pairord_ngg", q.pairord_ngg),
    ] {
        if !(v > 0.5 && v <= 1.0) {
            out.problems
                .push(format!("{name} = {v} is no better than chance"));
        }
    }
    if passes.iter().any(|p| p.quality != q) {
        out.problems
            .push("quality outputs differ between passes of the same seed".to_string());
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setups = if args.trace { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut web = None;
    let mut generate = Delta::default();
    for _ in 0..setups {
        drop(web.take());
        let before = Reading::now();
        let t0 = Instant::now();
        web = Some(SyntheticWeb::generate(&CorpusConfig::medium(), args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
        generate = Reading::now().since(&before);
    }
    let web = web.expect("at least one set-up");
    let snapshot = web.snapshot();
    let sites = snapshot.sites.len();

    if !args.trace {
        let passes = timed(snapshot, args, None)?;
        check_quality(&passes, &mut out);
        let samples: Vec<(f64, u64)> = best(&passes)
            .call_end_s
            .iter()
            .map(|&t| (t * 1e3, sites as u64))
            .collect();
        let p50 = percentile(&samples, 0.5).ok_or("too few answers for p50")?;
        let p90 = percentile(&samples, 0.9).ok_or("too few answers for p90")?;
        let p99 = percentile(&samples, 0.99).ok_or("too few answers for p99")?;
        out.attempted = (CALLS.len() * passes.len()) as u64;
        out.metric(
            "setup_s",
            median(&setup_s),
            format!("median of {setups} corpus generations"),
        );
        out.metric("peak_rss_mb", peak_rss_mb(), "VmHWM");
        out.metric(
            "sites_per_s",
            sites_per_s(sites, &passes),
            format!("{sites} sites, best of {} passes", passes.len()),
        );
        let note = |p: &crate::stats::Percentile| {
            format!(
                "n={}, {} beyond; pass start to each answer, best pass",
                p.samples, p.beyond
            )
        };
        out.extra("p50_ms", p50.value, "ms", note(&p50));
        out.extra("p90_ms", p90.value, "ms", note(&p90));
        out.extra("p99_ms", p99.value, "ms", note(&p99));
        let q = passes[0].quality;
        out.extra("auc_tfidf", q.auc_tfidf, "auc", "3-fold CV, NBM");
        out.extra(
            "auc_ngg",
            q.auc_ngg,
            "auc",
            "3-fold CV, NBM on NGG features",
        );
        out.extra("auc_network", q.auc_network, "auc", "3-fold CV, TrustRank");
        out.extra("pairord", q.pairord_tfidf, "share", "OPR, TF-IDF NBM");
        out.extra("pairord_ngg", q.pairord_ngg, "share", "OPR, NGG Equation 3");
        return Ok(out);
    }

    // Traced run: the same timed phase untraced, then traced.
    let plain = timed(snapshot, args, None)?;
    let tracer = Tracer::new();
    let traced = timed(snapshot, args, Some(&tracer))?;
    check_quality(&traced, &mut out);
    let n = traced.len() as f64;
    let wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut all = Delta::default();
    let mut layer_sum = [0.0f64; 5];
    for p in &traced {
        for (k, (call_s, delta)) in p.calls.iter().enumerate() {
            *v.entry(CALLS[k].1).or_insert(0.0) += call_s / n;
            let layers = attribute(*call_s, delta);
            for (sum, x) in layer_sum.iter_mut().zip(layers) {
                *sum += x / n;
            }
            all.merge(delta);
        }
    }
    v.insert("corpus.generate_s", generate.span_s("corpus/generate"));
    v.insert("crawl.extract_s", layer_sum[0]);
    v.insert("text.tfidf_fit_s", layer_sum[1]);
    v.insert("ngg.class_graph_build_s", layer_sum[2]);
    v.insert("core.unattributed_s", layer_sum[4]);
    v.insert("crawl.site_crawls", all.span_count("crawl/site") as f64 / n);
    v.insert(
        "crawl.site_ms",
        1e3 * all.span_s("crawl/site") / all.span_count("crawl/site").max(1) as f64,
    );
    v.insert(
        "ngg.class_graph_builds",
        all.span_count("ngg/class-graphs/build") as f64 / n,
    );
    v.insert("net.freeze_s", all.span_s("net/csr/freeze") / n);
    v.insert("net.trust_rank_s", all.span_s("net/csr/trustrank") / n);
    v.insert(
        "net.anti_trust_rank_s",
        all.span_s("net/csr/antitrustrank") / n,
    );
    let (hits, lookups) = traced.iter().fold((0, 0), |(h, l), p| {
        (h + p.pipeline_hits, l + p.pipeline_lookups)
    });
    v.insert(
        "core.pipeline_hit_share",
        hits as f64 / lookups.max(1) as f64,
    );
    let covered: f64 = layer_sum.iter().sum::<f64>() * n / wall;
    v.insert("obs.covered_share", covered);
    let overhead = sites_per_s(sites, &plain) / sites_per_s(sites, &traced) - 1.0;
    v.insert("obs.trace_overhead_share", overhead);
    for name in CALLS.iter().map(|c| c.1).chain([
        "crawl.extract_s",
        "text.tfidf_fit_s",
        "ngg.class_graph_build_s",
        "core.unattributed_s",
        "net.trust_rank_s",
    ]) {
        notes.insert(name, format!("per pass, mean of {} passes", traced.len()));
    }
    notes.insert(
        "obs.covered_share",
        format!("layer self time / timed wall {wall:.3} s"),
    );
    notes.insert(
        "obs.trace_overhead_share",
        "untraced sites_per_s / traced - 1".into(),
    );
    notes.insert(
        "core.unattributed_s",
        "core self time: NGG similarity and ml fit/predict, which the program does not span".into(),
    );
    out.attempted = (CALLS.len() * traced.len()) as u64;
    out.layers(&v, &notes);
    tracer
        .write_jsonl(&crate::trace_path(args))
        .map_err(|e| format!("writing trace: {e}"))?;
    Ok(out)
}

/// Splits one call's wall time into layer self times
/// `[crawl, text, ngg, net, core]`. The registry spans of the inner
/// layers are the call's children; whatever they leave is the core
/// layer's own time. Children that ran on several threads at once can
/// sum past the call's wall time: they are then scaled to fit it.
pub fn attribute(call_s: f64, delta: &Delta) -> [f64; 5] {
    let crawl = delta.span_s("crawl/site");
    let text = delta.span_s("text/tfidf/fit");
    let ngg = delta.span_s("ngg/class-graphs/build");
    let net = delta.span_s_under("net/");
    let children = crawl + text + ngg + net;
    let scale = if children > call_s && children > 0.0 {
        call_s / children
    } else {
        1.0
    };
    let core = (call_s - children * scale).max(0.0);
    [crawl * scale, text * scale, ngg * scale, net * scale, core]
}
