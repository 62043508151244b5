//! Regression suite for long-lived [`DetectSession`] reuse — the
//! residency contract `namer serve` leans on (DESIGN.md §13).
//!
//! Historically the session was built for one `run` per process:
//! seeded ingest diagnostics re-reported on every run, the cold-cache
//! degrade counter re-fired, and metrics accumulated across runs. A
//! daemon calls `run` on the same session for every request, so each
//! run must be self-contained: per-run metrics, first-run-only seeded
//! diagnostics, and an explicit flush lifecycle when autosave is off.

use namer::core::{
    CacheLoadStatus, CorpusReader, DetectSession, Fault, FaultSchedule, FaultVfs, Namer,
    NamerBuilder, NamerConfig, NamerError, Report, SavedModel, Violation,
};
use namer::observe::Counter;
use namer::patterns::MiningConfig;
use namer::syntax::{Lang, SourceFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const IDIOM: &str = "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 3)\n";
const MISUSE: &str = "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 3)\n";

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "namer-session-reuse-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write(dir: &Path, rel: &str, contents: &[u8]) {
    let path = dir.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, contents).unwrap();
}

fn corpus() -> Vec<SourceFile> {
    let mut files: Vec<SourceFile> = (0..10)
        .map(|i| {
            SourceFile::new(
                format!("r{}", i % 3),
                format!("f{i}.py"),
                format!("{IDIOM}x{i} = {i}\n"),
                Lang::Python,
            )
        })
        .collect();
    files.push(SourceFile::new("r0", "bug.py", MISUSE, Lang::Python));
    files
}

fn model_bin() -> &'static [u8] {
    static BIN: OnceLock<Vec<u8>> = OnceLock::new();
    BIN.get_or_init(|| {
        let commits = vec![(
            "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 1)\n"
                .to_owned(),
            "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 1)\n"
                .to_owned(),
        )];
        let config = NamerConfig {
            mining: MiningConfig {
                min_path_count: 2,
                min_support: 5,
                ..MiningConfig::default()
            },
            labeled_per_class: 3,
            cv_repeats: 2,
            ..NamerConfig::default()
        };
        let mut training = corpus();
        for i in 0..30 {
            training.push(SourceFile::new(
                "rt",
                format!("t{i}.py"),
                format!("{IDIOM}t{i} = {i}\n"),
                Lang::Python,
            ));
        }
        let namer = Namer::train(
            &training,
            &commits,
            |v: &Violation| v.original.as_str() == "True",
            &config,
        );
        SavedModel::from_namer(&namer).to_binary()
    })
}

fn builder() -> NamerBuilder {
    NamerBuilder::new().model(SavedModel::from_bytes(model_bin()).unwrap())
}

fn report_strings(reports: &[Report]) -> Vec<String> {
    reports.iter().map(|r| r.to_string()).collect()
}

#[test]
fn session_back_to_back_detects_are_identical() {
    let files = corpus();
    let mut session: DetectSession = builder().build().expect("session builds");
    let first = session.run(&files).expect("first run");
    let second = session.run(&files).expect("second run");
    assert!(!first.reports.is_empty());
    assert_eq!(
        report_strings(&first.reports),
        report_strings(&second.reports),
        "a reused session changed its findings"
    );
    // Metrics are per-run, not cumulative: after zeroing wall-clock the
    // two snapshots are byte-identical.
    let (mut m1, mut m2) = (first.metrics, second.metrics);
    m1.scrub_timings();
    m2.scrub_timings();
    assert_eq!(
        m1.to_json(),
        m2.to_json(),
        "metrics leaked across runs of one session"
    );
}

#[test]
fn session_seeded_ingest_diagnostics_report_once() {
    let dir = scratch("quarantine");
    for i in 0..6 {
        write(&dir, &format!("r{}/f{i}.py", i % 2), IDIOM.as_bytes());
    }
    write(&dir, "r0/bug.py", MISUSE.as_bytes());
    write(&dir, "r1/locked.py", IDIOM.as_bytes());

    let vfs = FaultVfs::real(
        FaultSchedule::new().on_path("locked.py", Fault::Err(io::ErrorKind::PermissionDenied)),
    );
    let mut reader = CorpusReader::new(&vfs);
    let files = reader.collect_sources(&dir, Lang::Python).unwrap();
    let diag = reader.finish();
    assert_eq!(diag.quarantined.len(), 1);

    let mut session = builder().ingest_diagnostics(diag).build().unwrap();
    let first = session.run(&files).unwrap();
    let second = session.run(&files).unwrap();
    // The ingest salt belongs to the run that consumed it…
    assert_eq!(first.diagnostics.quarantined.len(), 1);
    assert_eq!(first.metrics.counter(Counter::QuarantinedFiles), 1);
    // …and must not be re-reported by a reused session.
    assert!(second.diagnostics.quarantined.is_empty());
    assert_eq!(second.metrics.counter(Counter::QuarantinedFiles), 0);
    assert_eq!(
        report_strings(&first.reports),
        report_strings(&second.reports)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_cold_cache_degrade_counts_once() {
    let dir = scratch("degrade");
    write(&dir, "scan-cache.json", b"\x00not a cache container\xff");
    let files = corpus();

    let mut session = builder().cache_dir(&dir).build().unwrap();
    assert!(
        !matches!(session.cache_status(), Some(CacheLoadStatus::Warm(_))),
        "garbage cache loaded warm: {:?}",
        session.cache_status()
    );
    let first = session.run(&files).unwrap();
    let second = session.run(&files).unwrap();
    assert_eq!(first.metrics.counter(Counter::CacheDegradedCold), 1);
    assert_eq!(
        second.metrics.counter(Counter::CacheDegradedCold),
        0,
        "the cold-start degrade re-fired on a reused session"
    );
    assert_eq!(
        report_strings(&first.reports),
        report_strings(&second.reports)
    );
    // The second run reuses the first run's in-memory entries.
    let cache = second.cache.as_ref().expect("cached session");
    assert_eq!(cache.reused, files.len());
    assert_eq!(cache.fresh, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_deferred_flush_lifecycle() {
    let dir = scratch("flush");
    let cache_path = dir.join("scan-cache.json");
    let files = corpus();

    let mut session = builder()
        .cache_dir(&dir)
        .cache_autosave(false)
        .build()
        .unwrap();
    let first = session.run(&files).unwrap();
    assert!(
        !cache_path.exists(),
        "autosave(false) still wrote the cache during run"
    );
    assert_eq!(session.cache_dirty(), Some(true));

    // flush → saved; a second flush of a clean cache is a no-op.
    assert!(session.flush_cache().unwrap());
    assert!(cache_path.exists());
    assert_eq!(session.cache_dirty(), Some(false));
    assert!(!session.flush_cache().unwrap());

    // A warm rerun on the same session reuses every entry.
    let second = session.run(&files).unwrap();
    assert_eq!(second.cache.as_ref().unwrap().reused, files.len());
    assert_eq!(
        report_strings(&first.reports),
        report_strings(&second.reports)
    );

    // clear_cache empties the in-memory cache and marks it dirty; the
    // next run re-scans everything from scratch, still correct.
    assert!(session.clear_cache());
    assert_eq!(session.cache_dirty(), Some(true));
    assert_eq!(session.cache_entries(), Some(0));
    let third = session.run(&files).unwrap();
    assert_eq!(third.cache.as_ref().unwrap().fresh, files.len());
    assert_eq!(
        report_strings(&first.reports),
        report_strings(&third.reports)
    );
    assert!(session.flush_cache().unwrap());

    // What the flush persisted comes up warm in a fresh session.
    let mut fresh = builder().cache_dir(&dir).build().unwrap();
    assert!(
        matches!(fresh.cache_status(), Some(CacheLoadStatus::Warm(_))),
        "flushed cache did not load warm: {:?}",
        fresh.cache_status()
    );
    let fourth = fresh.run(&files).unwrap();
    assert_eq!(fourth.cache.as_ref().unwrap().reused, files.len());
    assert_eq!(
        report_strings(&first.reports),
        report_strings(&fourth.reports)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cached_session_round_trips_and_tracks_changed_files() {
    let mut files = corpus();
    let dir = scratch("round-trip");
    let build = || {
        builder()
            .cache_dir(&dir)
            .build()
            .expect("saved source builds")
    };

    // Cold run: nothing cached, every file is "changed".
    let mut cold = build();
    assert_eq!(cold.cache_status(), Some(CacheLoadStatus::Cold));
    let cold_out = cold.run(&files).expect("cold run");
    let cold_cache = cold_out.cache.as_ref().expect("cache accounting");
    assert_eq!(cold_cache.fresh, files.len());
    assert_eq!(cold_cache.changed.len(), files.len());

    // Warm run over identical inputs: all reused, nothing changed, and the
    // reports are byte-identical to the cold scan.
    let mut warm = build();
    assert!(matches!(
        warm.cache_status(),
        Some(CacheLoadStatus::Warm(_))
    ));
    let warm_out = warm.run(&files).expect("warm run");
    let warm_cache = warm_out.cache.as_ref().expect("cache accounting");
    assert_eq!(warm_cache.fresh, 0);
    assert!(warm_cache.changed.is_empty());
    assert!(!warm_out.reports.is_empty());
    assert_eq!(
        report_strings(&cold_out.reports),
        report_strings(&warm_out.reports)
    );

    // Edit one file: exactly that file re-scans and shows up as changed.
    files[0].text.push_str("\nzz_extra = 1\n");
    let mut dirty = build();
    let dirty_out = dirty.run(&files).expect("dirty run");
    let dirty_cache = dirty_out.cache.as_ref().expect("cache accounting");
    assert_eq!(
        dirty_cache.changed,
        vec![(files[0].repo.clone(), files[0].path.clone())]
    );
    assert_eq!(dirty_cache.fresh, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn builder_rejects_invalid_configurations() {
    // No source at all.
    assert!(matches!(
        NamerBuilder::new().build(),
        Err(NamerError::InvalidConfig(_))
    ));

    // A trained system carries its own config; overriding it is an error.
    let namer = SavedModel::from_bytes(model_bin())
        .expect("model parses")
        .into_namer(NamerConfig::default());
    assert!(matches!(
        NamerBuilder::new()
            .namer(namer)
            .config(NamerConfig::default())
            .build(),
        Err(NamerError::InvalidConfig(_))
    ));

    // Language conflicts with the saved model's.
    assert!(matches!(
        builder().lang(Lang::Java).build(),
        Err(NamerError::InvalidConfig(_))
    ));
}
