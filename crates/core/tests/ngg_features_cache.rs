//! One `VerificationSystem` classifies with N-Gram Graphs and then ranks
//! with Equation (3): the ranking reads the features the classification
//! computed. Alone in its binary because it counts spans in the
//! process-wide registry.

use pharmaverify_core::{RankingMethod, SystemConfig, TextLearnerKind, VerificationSystem};
use pharmaverify_corpus::{CorpusConfig, SyntheticWeb};

#[test]
fn ranking_after_classification_reuses_ngg_features() {
    let web = SyntheticWeb::generate(&CorpusConfig::small(), 42);
    let system = VerificationSystem::new(SystemConfig::default());
    let builds = || pharmaverify_obs::global().span_count("ngg/class-graphs/build");
    let before = builds();
    system
        .evaluate_text_ngg(web.snapshot(), TextLearnerKind::Nbm, 7)
        .expect("classifies");
    system
        .rank(web.snapshot(), RankingMethod::NggEquation3, 7)
        .expect("ranks");
    let features = system
        .cache_counters()
        .into_iter()
        .find(|c| c.stage == "ngg-features")
        .expect("ngg-features stage");
    assert_eq!((features.misses, features.hits), (1, 1));
    assert_eq!(builds() - before, system.config().folds as u64);
}
