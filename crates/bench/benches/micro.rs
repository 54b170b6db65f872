//! Criterion micro-benchmarks of the hot substrate paths: HTML
//! extraction, crawling, tokenization, TF-IDF fitting, n-gram-graph
//! construction and similarity, TrustRank propagation, and the
//! classifier training loops.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pharmaverify_core::classify::build_web_graph;
use pharmaverify_core::features::extract_corpus;
use pharmaverify_corpus::{CorpusConfig, SyntheticWeb};
use pharmaverify_crawl::{html, CrawlConfig, Crawler, Url};
use pharmaverify_ml::{Dataset, DecisionTree, Learner, LinearSvm, MultinomialNaiveBayes, Sampling};
use pharmaverify_net::TrustRankConfig;
use pharmaverify_ngg::{
    GramTable, GraphSimilarities, NGramGraphBuilder, NggClassGraphs, NggCorpus,
};
use pharmaverify_text::{preprocess, TfIdfModel};

fn sample_page() -> String {
    let mut body = String::from("<html><head><title>pharmacy</title></head><body>");
    for i in 0..50 {
        body.push_str(&format!(
            "<p>prescription refill pharmacist insurance policy number {i} \
             medication dosage tablet capsule treatment</p>\
             <a href=\"/page{i}.html\">section {i}</a>"
        ));
    }
    body.push_str("</body></html>");
    body
}

fn bench_html(c: &mut Criterion) {
    let page = sample_page();
    c.bench_function("html_extract_50p", |b| b.iter(|| html::extract(&page)));
}

fn bench_crawl(c: &mut Criterion) {
    let web = SyntheticWeb::generate(&CorpusConfig::small(), 11);
    let snap = web.snapshot().clone();
    let crawler = Crawler::new(CrawlConfig::default());
    let seed = Url::parse(&snap.sites[0].seed_url).unwrap();
    c.bench_function("crawl_one_site", |b| {
        b.iter(|| crawler.crawl(&snap.web, &seed))
    });
}

fn bench_text(c: &mut Criterion) {
    let page = sample_page();
    let text = html::extract(&page).text;
    c.bench_function("preprocess_page", |b| b.iter(|| preprocess(&text)));

    let web = SyntheticWeb::generate(&CorpusConfig::small(), 12);
    let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts");
    c.bench_function("tfidf_fit_small_corpus", |b| {
        b.iter(|| TfIdfModel::fit(&corpus.tokens))
    });
}

fn bench_ngg(c: &mut Criterion) {
    let web = SyntheticWeb::generate(&CorpusConfig::small(), 13);
    let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts");
    let builder = NGramGraphBuilder::default();
    let text = &corpus.summaries[0];
    let mut grams = GramTable::default();
    c.bench_function("ngg_build_doc_graph", |b| {
        b.iter(|| builder.build(text, &mut grams))
    });

    let (mut legit, mut illegit) = (Vec::new(), Vec::new());
    for (summary, &label) in corpus.summaries.iter().zip(&corpus.labels) {
        if label { &mut legit } else { &mut illegit }.push(summary.as_str());
    }
    c.bench_function("ngg_class_graph_build", |b| {
        b.iter(|| NggClassGraphs::build(builder, &legit, &illegit, 7))
    });

    let graphs = NggClassGraphs::build(builder, &legit, &illegit, 7);
    let doc = graphs.document_graph(text);
    c.bench_function("ngg_similarities", |b| {
        b.iter(|| GraphSimilarities::compute(&doc, graphs.legitimate()))
    });
    c.bench_function("ngg_features", |b| b.iter(|| graphs.features(text)));

    // One document graph against three folds' class graphs, as the
    // pipeline's NGG features artifact computes each row.
    let ngg = NggCorpus::new(
        builder,
        corpus.summaries.iter().map(String::as_str).collect(),
    );
    let folds: Vec<NggClassGraphs> = (0..3)
        .map(|f| {
            let train = (0..corpus.len()).filter(|d| d % 3 != f);
            let (legit, illegit): (Vec<usize>, Vec<usize>) = train.partition(|&d| corpus.labels[d]);
            ngg.class_graphs(&legit, &illegit, 7 ^ f as u64)
        })
        .collect();
    let folds: Vec<&NggClassGraphs> = folds.iter().collect();
    c.bench_function("ngg_features_across", |b| {
        b.iter(|| ngg.features_across(0, &folds))
    });
}

fn bench_network(c: &mut Criterion) {
    let web = SyntheticWeb::generate(&CorpusConfig::medium(), 14);
    let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts");
    let artifacts = build_web_graph(&corpus);
    let seeds: Vec<_> = (0..corpus.len())
        .filter(|&i| corpus.labels[i])
        .map(|i| artifacts.pharmacy_nodes[i])
        .collect();
    c.bench_function("trustrank_medium_graph", |b| {
        b.iter(|| {
            artifacts
                .graph
                .trust_rank(&seeds, &TrustRankConfig::default())
        })
    });
}

fn training_set() -> Dataset {
    let web = SyntheticWeb::generate(&CorpusConfig::small(), 15);
    let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts");
    let tfidf = TfIdfModel::fit(&corpus.tokens);
    let mut data = Dataset::new(tfidf.vocabulary().len().max(1));
    for (i, tokens) in corpus.tokens.iter().enumerate() {
        data.push(tfidf.transform(tokens), corpus.labels[i]);
    }
    data
}

fn bench_learners(c: &mut Criterion) {
    let data = training_set();
    c.bench_function("nbm_fit", |b| {
        b.iter(|| MultinomialNaiveBayes::default().fit(&data))
    });
    c.bench_function("svm_fit", |b| b.iter(|| LinearSvm::default().fit(&data)));
    c.bench_function("j48_fit", |b| b.iter(|| DecisionTree::default().fit(&data)));
    c.bench_function("smote_resample", |b| {
        b.iter_batched(
            || data.clone(),
            |d| Sampling::Smote.apply(&d, 1),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_html, bench_crawl, bench_text, bench_ngg, bench_network, bench_learners
);
criterion_main!(benches);
