//! Integration: the pipeline observability layer (DESIGN.md §10).
//!
//! The contract under test: counter totals in [`DetectOutcome::metrics`] are
//! a pure function of the model and the input files — worker threads are
//! a scheduling knob that must never change a total, and cache warmth
//! changes only the cache and processing counters, never a scan total. Timings are explicitly exempt (they are wall clocks), so
//! these tests only sanity-check them for presence.

use namer::core::{Namer, NamerBuilder, NamerConfig, SavedModel};
use namer::corpus::{CorpusConfig, Generator};
use namer::observe::{Counter, MetricsSnapshot, Phase, PipelineMetrics, SCHEMA_VERSION};
use namer::patterns::MiningConfig;
use namer::syntax::{Lang, SourceFile};
use std::collections::BTreeMap;
use std::sync::Arc;

fn config() -> NamerConfig {
    NamerConfig {
        mining: MiningConfig {
            min_path_count: 4,
            min_support: 15,
            ..MiningConfig::default()
        },
        labeled_per_class: 10,
        cv_repeats: 3,
        ..NamerConfig::default()
    }
}

/// Trains once and returns the corpus plus the model snapshot the grid
/// points rebuild their sessions from.
fn trained_model(seed: u64) -> (Vec<SourceFile>, Vec<u8>) {
    let corpus = Generator::new(CorpusConfig::small(Lang::Python)).generate(seed);
    let oracle = corpus.oracle();
    let commits: Vec<(String, String)> = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    let namer = Namer::train(
        &corpus.files,
        &commits,
        |v| {
            oracle
                .label(&v.repo, &v.path, v.line, v.original.as_str(), v.suggested.as_str())
                .is_some()
        },
        &config(),
    );
    let model_bytes = SavedModel::from_namer(&namer).to_binary();
    (corpus.files, model_bytes)
}

fn builder(model_bytes: &[u8], threads: usize) -> NamerBuilder {
    NamerBuilder::new()
        .model(SavedModel::from_bytes(model_bytes).expect("model parses"))
        .config(config())
        .threads(threads)
}

/// The scan-derived counters every warmth/threading mode must agree on.
const SCAN_COUNTERS: [Counter; 7] = [
    Counter::FilesScanned,
    Counter::StatementsScanned,
    Counter::PatternMatches,
    Counter::PatternSatisfactions,
    Counter::ViolationsRaw,
    Counter::ViolationsDeduped,
    Counter::ReportsEmitted,
];

fn scan_totals(snap: &MetricsSnapshot) -> BTreeMap<&'static str, u64> {
    SCAN_COUNTERS
        .iter()
        .map(|&c| (c.name(), snap.counter(c)))
        .collect()
}

#[test]
fn counter_totals_are_invariant_across_the_thread_shard_grid() {
    let (files, model_bytes) = trained_model(2021);
    let run = |threads: usize| {
        let mut session = builder(&model_bytes, threads).build().expect("builds");
        session.run(&files).expect("cacheless run")
    };

    let baseline = run(1);
    let m = &baseline.metrics;
    // The totals cross-check against the outcome they describe.
    assert_eq!(m.counter(Counter::FilesProcessed), files.len() as u64);
    assert_eq!(m.counter(Counter::ParseFailures), 0);
    assert_eq!(m.counter(Counter::FilesScanned), files.len() as u64);
    assert!(m.counter(Counter::StatementsProcessed) > 0);
    // Assembly re-derives statement coverage from the per-file states, so
    // it must agree with what processing counted.
    assert_eq!(
        m.counter(Counter::StatementsScanned),
        m.counter(Counter::StatementsProcessed)
    );
    assert!(m.counter(Counter::PatternMatches) >= m.counter(Counter::PatternSatisfactions));
    assert_eq!(
        m.counter(Counter::ViolationsRaw),
        baseline.scan.raw_violation_count as u64
    );
    assert_eq!(
        m.counter(Counter::ViolationsDeduped),
        baseline.scan.violations.len() as u64
    );
    assert_eq!(
        m.counter(Counter::ReportsEmitted),
        baseline.reports.len() as u64
    );
    // Scan-only sessions never mine or touch a cache.
    assert_eq!(m.counter(Counter::PatternsMined), 0);
    assert_eq!(m.counter(Counter::CacheHits), 0);

    for threads in [2usize, 8] {
        let outcome = run(threads);
        assert_eq!(
            baseline.metrics.counters, outcome.metrics.counters,
            "counter totals diverged at threads={threads}"
        );
    }
}

#[test]
fn cached_runs_keep_scan_totals_and_account_hits() {
    let (files, model_bytes) = trained_model(2022);
    let n = files.len() as u64;
    let base = std::env::temp_dir().join(format!("namer-metrics-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut reference: Option<BTreeMap<&'static str, u64>> = None;
    for threads in [1usize, 2, 8] {
        let dir = base.join(format!("t{threads}"));
        let build = || {
            builder(&model_bytes, threads)
                .cache_dir(&dir)
                .build()
                .expect("builds")
        };

        let cold = build().run(&files).expect("cold run");
        assert_eq!(cold.metrics.counter(Counter::CacheHits), 0);
        assert_eq!(cold.metrics.counter(Counter::CacheMisses), n);
        assert_eq!(cold.metrics.counter(Counter::CacheDegradedCold), 0);

        let warm = build().run(&files).expect("warm run");
        assert_eq!(warm.metrics.counter(Counter::CacheHits), n);
        assert_eq!(warm.metrics.counter(Counter::CacheMisses), 0);
        // Warm runs process nothing fresh...
        assert_eq!(warm.metrics.counter(Counter::FilesProcessed), 0);
        // ...yet assembly still derives full-corpus scan totals, equal
        // to the cold run's and to every other thread count's.
        assert_eq!(scan_totals(&cold.metrics), scan_totals(&warm.metrics));
        let totals = scan_totals(&warm.metrics);
        assert!(totals[Counter::StatementsScanned.name()] > 0);
        match &reference {
            None => reference = Some(totals),
            Some(r) => assert_eq!(r, &totals, "cached totals diverged at threads={threads}"),
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn snapshot_json_round_trips_with_the_full_key_set() {
    let (files, model_bytes) = trained_model(2023);
    let mut session = builder(&model_bytes, 2).build().expect("builds");
    let outcome = session.run(&files).expect("cacheless run");
    let snap = &outcome.metrics;

    assert_eq!(snap.schema_version, SCHEMA_VERSION);
    for c in Counter::ALL {
        assert!(snap.counters.contains_key(c.name()), "missing {}", c.name());
    }
    for p in Phase::ALL {
        assert!(snap.phases.contains_key(p.name()), "missing {}", p.name());
    }
    // One Detect span wraps the run; the phases inside it were timed.
    assert_eq!(snap.phase(Phase::Detect).calls, 1);
    assert!(snap.phase(Phase::Process).wall_nanos > 0);
    assert!(snap.phase(Phase::Scan).wall_nanos > 0);
    assert!(snap.phase(Phase::Assemble).wall_nanos > 0);
    assert!(snap.phase(Phase::Classify).calls >= 1);

    let back = MetricsSnapshot::from_json(&snap.to_json()).expect("round trip parses");
    assert_eq!(snap, &back);
    // The human rendering mentions whatever was active.
    let text = snap.render_human();
    assert!(text.contains("detect"));
    assert!(text.contains("files_scanned"));
}

#[test]
fn builder_sink_receives_the_same_totals_as_the_outcome() {
    let (files, model_bytes) = trained_model(2024);
    let sink = Arc::new(PipelineMetrics::new());
    let mut session = builder(&model_bytes, 2)
        .metrics(sink.clone())
        .build()
        .expect("builds");
    let outcome = session.run(&files).expect("cacheless run");
    let streamed = sink.snapshot();
    assert_eq!(streamed.counters, outcome.metrics.counters);
    assert_eq!(
        streamed.phase(Phase::Detect).calls,
        outcome.metrics.phase(Phase::Detect).calls
    );
}
