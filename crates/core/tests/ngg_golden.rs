//! Golden digest of every N-Gram-Graph feature vector the OPC pipeline
//! computes on the small corpus.
//!
//! The digest is FNV-1a over the little-endian `to_bits` of all 8
//! features, for every document against the class graphs of every fold
//! (small corpus, seed 20180326, the default 1000-term subsample, 3-fold
//! CV). It was recorded with the string-keyed n-gram graph
//! implementation; the packed-code implementation must reproduce it bit
//! for bit, both per fold and through the `ngg-features` artifact, which
//! builds each document's graph once for all folds. A change to the
//! digest is a change to every NGG number the system reports.

use pharmaverify_core::{extract_corpus, ArtifactStore, Pipeline, SystemConfig};
use pharmaverify_corpus::{CorpusConfig, SyntheticWeb};
use pharmaverify_crawl::CrawlConfig;
use pharmaverify_ngg::NggFeatures;

const SEED: u64 = 20180326;
const GOLDEN: u64 = 0x1ed9_d6fc_adff_7217;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(vectors: impl IntoIterator<Item = NggFeatures>) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut count = 0;
    for features in vectors {
        for value in features.to_vec() {
            hash = fnv1a(hash, &value.to_bits().to_le_bytes());
        }
        count += 1;
    }
    (hash, count)
}

#[test]
fn ngg_features_match_golden_digest() {
    let web = SyntheticWeb::generate(&CorpusConfig::small(), SEED);
    let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts");
    let config = SystemConfig::default();
    let store = ArtifactStore::new();
    let pipe = Pipeline::new(&store, &corpus);
    let ngg = pipe.ngg_corpus(config.subsample, SEED);
    let split = pipe.fold_split(config.folds, SEED);
    let folds: Vec<_> = (0..split.k())
        .map(|f| pipe.ngg_class_graphs(config.subsample, SEED, f, split.train(f)))
        .collect();
    // Each text featurized by its fold's class graphs alone …
    let per_fold = folds
        .iter()
        .flat_map(|graphs| ngg.texts().iter().map(|text| graphs.features(text)));
    // … and through the artifact, one document graph per text.
    let artifact = pipe.ngg_features(config.subsample, SEED, config.folds);
    let shared = (0..split.k()).flat_map(|f| artifact.iter().map(move |row| row[f]));
    for (hash, vectors) in [digest(per_fold), digest(shared)] {
        assert_eq!(vectors, split.k() * corpus.len());
        assert_eq!(hash, GOLDEN, "NGG feature digest {hash:#018x}");
    }
}
