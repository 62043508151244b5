//! Reproducibility: every stage of the system is a pure function of its
//! seed (DESIGN.md §6), and — since the pipeline went parallel — of the
//! seed alone: thread count never changes results (DESIGN.md §7).

use namer::core::{
    process, process_parallel, Detector, Namer, NamerBuilder, NamerConfig, ProcessConfig,
    ScanCache, ScanRequest,
};
use namer::corpus::{CorpusConfig, Generator};
use namer::observe::{Counter, PipelineMetrics};
use namer::patterns::MiningConfig;
use namer::syntax::{Lang, SourceFile};

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

#[test]
fn corpus_generation_is_reproducible() {
    let g = Generator::new(CorpusConfig::small(Lang::Python));
    let a = g.generate(99);
    let b = g.generate(99);
    assert_eq!(a.files, b.files);
    assert_eq!(a.injections, b.injections);
    assert_eq!(a.commits.len(), b.commits.len());
}

#[test]
fn mining_and_detection_are_reproducible() {
    let corpus = Generator::new(CorpusConfig::small(Lang::Python)).generate(77);
    let commits: Vec<(String, String)> = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    let run = || {
        let processed = process(&corpus.files, &ProcessConfig::default());
        let det = Detector::mine(&processed, &commits, Lang::Python, &config().mining);
        let scan = det.scan(ScanRequest::full(&processed));
        (
            det.pattern_count(),
            scan.violations
                .iter()
                .map(|v| (v.path.clone(), v.line, v.original, v.suggested))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn mining_and_detection_are_thread_count_invariant() {
    let corpus = Generator::new(CorpusConfig::small(Lang::Python)).generate(77);
    let commits: Vec<(String, String)> = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    let run = |threads: usize| {
        let processed = process_parallel(&corpus.files, &ProcessConfig::default(), threads);
        let mining = MiningConfig {
            threads,
            ..config().mining
        };
        let det = Detector::mine(&processed, &commits, Lang::Python, &mining);
        let scan = det.scan(ScanRequest::full(&processed).threads(threads));
        (
            det.pattern_count(),
            scan.raw_violation_count,
            scan.files_with_violation,
            scan.repos_with_violation,
            scan.violations
                .iter()
                .map(|v| (v.to_string(), format!("{:?}", v.features)))
                .collect::<Vec<_>>(),
        )
    };
    let serial = run(1);
    for threads in [2, 8] {
        assert_eq!(serial, run(threads), "threads={threads} diverged");
    }
}

#[test]
fn incremental_scan_is_thread_and_dirty_window_invariant() {
    // A dirty mix (edited, truncated, and brand-new files) must scan
    // identically at any thread count × cache warmth — from an empty cache
    // and from one warmed on the pristine corpus, so only the dirty window
    // re-scans (DESIGN.md §8, §14) — and identically to a from-scratch
    // full scan of the same mutated corpus.
    let corpus = Generator::new(CorpusConfig::small(Lang::Python)).generate(77);
    let commits: Vec<(String, String)> = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    let process_config = ProcessConfig::default();
    let processed = process(&corpus.files, &process_config);
    let det = Detector::mine(&processed, &commits, Lang::Python, &config().mining);

    // Warm the cache on the pristine corpus at one thread.
    let mut warmed = ScanCache::empty(det.fingerprint(&process_config));
    det.scan(ScanRequest::incremental(
        &corpus.files,
        &process_config,
        &mut warmed,
    ));

    // Dirty mix: edit every 7th file, truncate a few, add a fresh one.
    let mut mutated = corpus.files.clone();
    for (i, f) in mutated.iter_mut().enumerate() {
        if i % 7 == 0 {
            f.text.push_str("\nzz_dirty = 1\n");
        }
    }
    mutated.truncate(mutated.len().saturating_sub(3));
    mutated.push(SourceFile::new(
        "fresh-repo",
        "fresh.py",
        "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 2)\n",
        Lang::Python,
    ));

    let cold = ScanCache::empty(warmed.fingerprint());
    let run = |threads: usize, start: &ScanCache| {
        let mut cache = start.clone();
        let metrics = PipelineMetrics::new();
        let scan = det.scan(
            ScanRequest::incremental(&mutated, &process_config, &mut cache)
                .threads(threads)
                .observer(metrics.observer()),
        );
        let stats = scan.cache.unwrap();
        let accounting = (
            stats.reused,
            stats.fresh,
            stats.parse_failures,
            metrics.counter(Counter::CacheHits),
            metrics.counter(Counter::CacheMisses),
        );
        let findings = (
            scan.raw_violation_count,
            scan.files_with_violation,
            scan.repos_with_violation,
            scan.violations
                .iter()
                .map(|v| (v.to_string(), format!("{:?}", v.features)))
                .collect::<Vec<_>>(),
        );
        (accounting, findings)
    };
    let (cold_accounting, serial) = run(1, &cold);
    let (warm_accounting, _) = run(1, &warmed);
    for threads in [1, 2, 8] {
        for (start, accounting, warmth) in [
            (&cold, cold_accounting, "cold"),
            (&warmed, warm_accounting, "warm"),
        ] {
            assert_eq!(
                (accounting, serial.clone()),
                run(threads, start),
                "threads={threads} {warmth} diverged"
            );
        }
    }
    // Only the dirty window re-scans on a warm start.
    assert_eq!(cold_accounting.0, 0, "a cold scan reuses nothing");
    assert!(warm_accounting.0 > 0, "a warm scan reuses the clean files");
    assert!(warm_accounting.1 < cold_accounting.1);

    // The dirty scan equals a cold full scan of the mutated corpus.
    let full = det.scan(ScanRequest::full(&process(&mutated, &process_config)));
    let full_key: Vec<(String, String)> = full
        .violations
        .iter()
        .map(|v| (v.to_string(), format!("{:?}", v.features)))
        .collect();
    assert_eq!(serial.3, full_key);
    assert_eq!(serial.0, full.raw_violation_count);
}

#[test]
fn js_full_and_incremental_scans_agree_across_thread_counts() {
    // The JavaScript frontend rides the same determinism contract as
    // Python/Java: a full scan, a warm incremental scan over a dirty mix,
    // and every thread count must all agree byte-for-byte.
    let corpus = Generator::new(CorpusConfig::small(Lang::Js)).generate(88);
    let commits: Vec<(String, String)> = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    let process_config = ProcessConfig::default();
    let processed = process(&corpus.files, &process_config);
    let det = Detector::mine(&processed, &commits, Lang::Js, &config().mining);

    // Warm the cache on the pristine corpus.
    let mut warmed = ScanCache::empty(det.fingerprint(&process_config));
    det.scan(ScanRequest::incremental(
        &corpus.files,
        &process_config,
        &mut warmed,
    ));

    // Dirty mix: edit every 5th file, add a fresh one.
    let mut mutated = corpus.files.clone();
    for (i, f) in mutated.iter_mut().enumerate() {
        if i % 5 == 0 {
            f.text.push_str("\nconst zzDirty = 1;\n");
        }
    }
    mutated.push(SourceFile::new(
        "fresh-repo",
        "fresh.js",
        "class Fresh {\n    check(widget) {\n        console.log(widget.count);\n    }\n}\n",
        Lang::Js,
    ));

    let incremental = |threads: usize| {
        let mut cache = warmed.clone();
        let scan = det.scan(
            ScanRequest::incremental(&mutated, &process_config, &mut cache).threads(threads),
        );
        (
            scan.raw_violation_count,
            scan.files_with_violation,
            scan.violations
                .iter()
                .map(|v| (v.to_string(), format!("{:?}", v.features)))
                .collect::<Vec<_>>(),
        )
    };
    let serial = incremental(1);
    for threads in [2, 8] {
        assert_eq!(serial, incremental(threads), "threads={threads} diverged");
    }

    // The warm incremental scan equals a cold full scan of the mutated corpus.
    let full = det.scan(ScanRequest::full(&process(&mutated, &process_config)));
    let full_key: Vec<(String, String)> = full
        .violations
        .iter()
        .map(|v| (v.to_string(), format!("{:?}", v.features)))
        .collect();
    assert_eq!(serial.2, full_key);
    assert_eq!(serial.0, full.raw_violation_count);
}

#[test]
fn trained_system_reports_identically_across_thread_counts() {
    let corpus = Generator::new(CorpusConfig::small(Lang::Python)).generate(66);
    let oracle = corpus.oracle();
    let commits: Vec<(String, String)> = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    let run = |threads: usize| {
        let namer = Namer::train(
            &corpus.files,
            &commits,
            |v| {
                oracle
                    .label(&v.repo, &v.path, v.line, v.original.as_str(), v.suggested.as_str())
                    .is_some()
            },
            &NamerConfig {
                threads,
                ..config()
            },
        );
        let pattern_count = namer.detector.pattern_count();
        let reports = NamerBuilder::new()
            .namer(namer)
            .build()
            .expect("trained source builds")
            .run(&corpus.files)
            .expect("cacheless run")
            .reports;
        (
            pattern_count,
            reports
                .iter()
                .map(|r| (r.to_string(), r.decision.to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    let serial = run(1);
    for threads in [2, 8] {
        assert_eq!(serial, run(threads), "threads={threads} diverged");
    }
}

#[test]
fn trained_system_reports_identically() {
    let corpus = Generator::new(CorpusConfig::small(Lang::Java)).generate(55);
    let oracle = corpus.oracle();
    let commits: Vec<(String, String)> = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    let run = || {
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
        NamerBuilder::new()
            .namer(namer)
            .build()
            .expect("trained source builds")
            .run(&corpus.files)
            .expect("cacheless run")
            .reports
            .iter()
            .map(|r| (r.violation.path.clone(), r.violation.line, r.violation.suggested))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
