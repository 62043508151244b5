//! Fault-injection harness for crash-safe persistence and fault-tolerant
//! ingestion (DESIGN.md §11).
//!
//! Two contracts are exercised end to end through the public API:
//!
//! * **Crash safety** — a process killed at *any* operation of a model or
//!   scan-cache save leaves the destination holding the complete old
//!   contents or the complete new contents, never a truncation. The
//!   kill-point matrix is sized by counting a clean run's VFS operations,
//!   then killing at every index with several partial-write variants.
//! * **Graceful degradation** — unreadable and non-UTF-8 inputs are
//!   quarantined, transient I/O errors are retried, and the healthy subset
//!   of a salted corpus produces byte-identical findings to a fault-free
//!   run over the same healthy files.

use namer::core::binfmt::{self, BinWriter};
use namer::core::{
    atomic_write, CacheEntry, CacheLoadStatus, CorpusReader, Fault, FaultSchedule, FaultVfs,
    Namer, NamerBuilder, NamerConfig, NamerError, PersistError, RealFs, RetryPolicy, SavedModel,
    ScanCache, Violation,
};
use namer::observe::Counter;
use namer::patterns::MiningConfig;
use namer::syntax::{content_digest, Lang, SourceFile};
use namer_base::prop;
use namer_base::rng::SmallRng;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

const IDIOM: &str = "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 3)\n";
const MISUSE: &str = "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 3)\n";

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "namer-faults-{tag}-{}-{}",
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

/// An in-memory corpus with one violation. Every file gets a unique
/// trailing statement so content digests are distinct — `extra` files then
/// genuinely change the digest set (and therefore the saved cache bytes).
fn corpus(extra: usize) -> Vec<SourceFile> {
    let mut files: Vec<SourceFile> = (0..10 + extra)
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

/// Trains one system (expensive) and snapshots two byte-distinct binary
/// models: the real one and a variant with a flipped flag, the "old vs new"
/// pair of the model kill-point matrix.
fn model_bins() -> &'static (Vec<u8>, Vec<u8>) {
    static BINS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    BINS.get_or_init(|| {
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
        let namer = Namer::train(
            &corpus(30),
            &commits,
            |v: &Violation| v.original.as_str() == "True",
            &config,
        );
        let mut model = SavedModel::from_namer(&namer);
        let old = model.to_binary();
        model.use_analysis = !model.use_analysis;
        let altered = model.to_binary();
        assert_ne!(old, altered);
        (old, altered)
    })
}

fn session(cache_dir: Option<&Path>) -> namer::core::DetectSession {
    let (bin, _) = model_bins();
    let builder = NamerBuilder::new().model(SavedModel::from_bytes(bin).unwrap());
    match cache_dir {
        Some(dir) => builder.cache_dir(dir),
        None => builder,
    }
    .build()
    .expect("session builds")
}

fn report_strings(reports: &[namer::core::Report]) -> Vec<String> {
    reports.iter().map(|r| r.to_string()).collect()
}

// ----- kill-point matrices ----------------------------------------------------

#[test]
fn cache_kill_point_matrix_leaves_old_or_new_cache() {
    let dir = scratch("cache-kill");
    let path = dir.join("scan-cache.json");
    let fp = 42u64;
    let mut old_cache = ScanCache::empty(fp);
    old_cache.insert(content_digest("a = 1\n", Lang::Python), CacheEntry::ParseFailure);
    let old_bytes = old_cache.to_binary();
    let mut new_cache = old_cache.clone();
    new_cache.insert(content_digest("b = 2\n", Lang::Python), CacheEntry::ParseFailure);
    let new_bytes = new_cache.to_binary();
    assert_ne!(old_bytes, new_bytes);

    // Size the matrix by counting a clean save's operations.
    let probe = FaultVfs::real(FaultSchedule::new());
    new_cache.save_via(&probe, &path).unwrap();
    let ops = probe.ops();
    assert!(ops >= 2, "a crash-safe save is at least write + rename");

    for k in 0..ops {
        for landed in [None, Some(0), Some(7), Some(usize::MAX)] {
            old_cache.save(&path).unwrap();
            let vfs = FaultVfs::real(FaultSchedule::kill_at(k, landed));
            assert!(
                new_cache.save_via(&vfs, &path).is_err(),
                "kill at op {k} must surface"
            );
            assert!(vfs.killed());
            // What a restarted process sees: the complete old cache or the
            // complete new one — never a corrupt hybrid.
            let bytes = std::fs::read(&path).unwrap();
            assert!(
                bytes == old_bytes || bytes == new_bytes,
                "k={k} landed={landed:?}: truncated cache on disk"
            );
            let (loaded, status) = ScanCache::load(&path, fp);
            assert!(
                matches!(status, CacheLoadStatus::Warm(_)),
                "k={k} landed={landed:?}: load degraded to {status:?}"
            );
            assert!(loaded == old_cache || loaded == new_cache);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_kill_point_matrix_leaves_old_or_new_model() {
    let (old_bytes, new_bytes) = model_bins();
    let dir = scratch("model-kill");
    let path = dir.join("model.bin");
    let old = SavedModel::from_bytes(old_bytes).unwrap();
    let new = SavedModel::from_bytes(new_bytes).unwrap();
    assert_ne!(old_bytes, new_bytes);

    let probe = FaultVfs::real(FaultSchedule::new());
    new.save_via(&probe, &path).unwrap();
    let ops = probe.ops();

    for k in 0..ops {
        for landed in [None, Some(0), Some(100), Some(usize::MAX)] {
            old.save(&path).unwrap();
            let vfs = FaultVfs::real(FaultSchedule::kill_at(k, landed));
            assert!(new.save_via(&vfs, &path).is_err(), "kill at op {k} must surface");
            let bytes = std::fs::read(&path).unwrap();
            assert!(
                bytes == *old_bytes || bytes == *new_bytes,
                "k={k} landed={landed:?}: truncated model on disk"
            );
            // A restarted process loads a usable model either way, and its
            // re-encoding is byte-identical to what survived on disk.
            let loaded = SavedModel::load_via(&RealFs, &path).expect("model loads after crash");
            assert_eq!(loaded.to_binary(), bytes);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ----- binary-container corruption --------------------------------------------

#[test]
fn corrupt_binary_model_is_an_error_never_a_wrong_model() {
    let (bin, _) = model_bins();
    let model = SavedModel::from_bytes(bin).unwrap();
    let dir = scratch("model-corrupt");
    let path = dir.join("model.bin");
    model.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Every truncation point: load must fail — never return a model built
    // from half a file.
    for cut in 0..good.len() {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert!(
            SavedModel::load_via(&RealFs, &path).is_err(),
            "truncation at {cut} loaded"
        );
    }
    // Single-bit flips past the digested region: the content digest (or a
    // structural check) must reject every one of them.
    for i in (0..good.len()).step_by(11) {
        for bit in [0u8, 3, 7] {
            let mut bad = good.clone();
            bad[i] ^= 1 << bit;
            if bad == good {
                continue;
            }
            std::fs::write(&path, &bad).unwrap();
            match SavedModel::load_via(&RealFs, &path) {
                // Flips inside the magic make the bytes "not a container",
                // which is still an error, never a model.
                Err(_) => {}
                Ok(loaded) => panic!(
                    "flip at byte {i} bit {bit} produced a model ({} patterns)",
                    loaded.patterns.len()
                ),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_binary_cache_degrades_cold_never_wrong() {
    let dir = scratch("cache-corrupt");
    let cache_path = dir.join("scan-cache.json");
    let files = corpus(0);

    // Seed a real warm cache through a session run.
    session(Some(&dir)).run(&files).unwrap();
    let good = std::fs::read(&cache_path).unwrap();
    let expected = report_strings(&session(None).run(&files).unwrap().reports);

    let mut salted: Vec<Vec<u8>> = Vec::new();
    for cut in (0..good.len()).step_by(7) {
        salted.push(good[..cut].to_vec());
    }
    for i in (0..good.len()).step_by(13) {
        let mut bad = good.clone();
        bad[i] ^= 0x10;
        if bad != good {
            salted.push(bad);
        }
    }
    for bad in salted {
        atomic_write(&RealFs, &cache_path, &bad).unwrap();
        let mut fresh = session(Some(&dir));
        // A corrupt cache is a cold (or mismatched) start — never an error,
        // and never wrong findings.
        assert!(
            !matches!(fresh.cache_status(), Some(CacheLoadStatus::Warm(_))),
            "corrupt cache loaded warm: {:?}",
            fresh.cache_status()
        );
        let outcome = fresh.run(&files).unwrap();
        assert_eq!(report_strings(&outcome.reports), expected);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_json_files_are_rejected_or_load_cold() {
    let dir = scratch("legacy-json");

    // A JSON-era model file is a typed error naming the container format.
    let model_path = dir.join("model.json");
    std::fs::write(
        &model_path,
        r#"{"version":1,"lang":"Python","use_analysis":true,"patterns":[],"dataset":[],"pairs":[],"classifier":null,"model_kind":"SvmLinear"}"#,
    )
    .unwrap();
    match SavedModel::load_via(&RealFs, &model_path) {
        Err(NamerError::Model(PersistError::Malformed(why))) => {
            assert!(why.contains("NAMERBIN"), "{why}")
        }
        other => panic!("JSON model was not rejected as malformed: ok={}", other.is_ok()),
    }

    // A JSON-era scan cache on disk is discarded (cold, never wrong), and
    // the next save rewrites it in the binary container.
    let files = corpus(0);
    let expected = report_strings(&session(None).run(&files).unwrap().reports);
    let cache_path = dir.join("scan-cache.json");
    let fp = session(Some(&dir)).namer().scan_fingerprint();
    let json_cache = format!("{{\"version\":2,\"fingerprint\":{fp},\"entries\":{{}},\"regions\":{{}}}}");
    atomic_write(&RealFs, &cache_path, json_cache.as_bytes()).unwrap();

    let mut fresh = session(Some(&dir));
    assert_eq!(fresh.cache_status(), Some(CacheLoadStatus::Corrupt));
    assert_eq!(report_strings(&fresh.run(&files).unwrap().reports), expected);
    let resaved = std::fs::read(&cache_path).unwrap();
    assert!(binfmt::looks_binary(&resaved), "resave did not write the binary container");
    assert!(matches!(
        session(Some(&dir)).cache_status(),
        Some(CacheLoadStatus::Warm(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// A cache container stamped with format version 1 whose entries mark
/// every digest as a parse failure — state that would suppress every
/// finding if a current session honored it.
fn poisoned_v1_cache(fingerprint: u64, digests: &[namer::syntax::ContentDigest]) -> Vec<u8> {
    let mut meta = Vec::new();
    meta.extend_from_slice(&1u32.to_le_bytes());
    meta.extend_from_slice(&0u32.to_le_bytes());
    meta.extend_from_slice(&fingerprint.to_le_bytes());
    let mut entries = Vec::new();
    for d in digests {
        entries.extend_from_slice(&(d.0 as u64).to_le_bytes());
        entries.extend_from_slice(&((d.0 >> 64) as u64).to_le_bytes());
        entries.extend_from_slice(&[0u8; 32]); // kind 0 = ParseFailure, empty ranges
    }
    let mut w = BinWriter::new(binfmt::KIND_CACHE);
    w.section(1, meta);
    w.section(3, entries);
    w.finish()
}

/// A complete cache in the v2 layout — the statement-region format v3
/// retired — whose entries record every digest as a parsed file with no
/// statements (so honoring it would drop every finding), each linked to
/// one populated statement region. v2 entry records are 56 bytes
/// (digest, kind, padding, then offset/length pairs into the
/// pattern-count, digest-count, raw-hit and span pools); sections 8–10
/// hold the span keys, the region records and their per-pattern outcomes.
fn poisoned_v2_cache(fingerprint: u64, digests: &[namer::syntax::ContentDigest]) -> Vec<u8> {
    let mut meta = Vec::new();
    meta.extend_from_slice(&2u32.to_le_bytes());
    meta.extend_from_slice(&0u32.to_le_bytes());
    meta.extend_from_slice(&fingerprint.to_le_bytes());
    let mut sorted = digests.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut entries = Vec::new();
    let mut spans = Vec::new();
    for (i, d) in sorted.iter().enumerate() {
        entries.extend_from_slice(&(d.0 as u64).to_le_bytes());
        entries.extend_from_slice(&((d.0 >> 64) as u64).to_le_bytes());
        entries.extend_from_slice(&1u32.to_le_bytes()); // kind 1 = Parsed
        entries.extend_from_slice(&[0u8; 28]); // padding, empty count and raw-hit pools
        entries.extend_from_slice(&(i as u32).to_le_bytes()); // span offset
        entries.extend_from_slice(&1u32.to_le_bytes()); // span length
        spans.extend_from_slice(&(i as u64 + 1).to_le_bytes());
        spans.extend_from_slice(&0u64.to_le_bytes());
    }
    let mut regions = Vec::new();
    let mut outcomes = Vec::new();
    for i in 0..sorted.len() {
        regions.extend_from_slice(&(i as u64 + 1).to_le_bytes());
        regions.extend_from_slice(&0u64.to_le_bytes());
        regions.extend_from_slice(&(i as u32).to_le_bytes()); // outcome offset
        regions.extend_from_slice(&1u32.to_le_bytes()); // outcome length
        outcomes.extend_from_slice(&0u64.to_le_bytes()); // pattern 0
        outcomes.extend_from_slice(&[0u8; 8]); // no names
        outcomes.extend_from_slice(&1u32.to_le_bytes()); // satisfied
        outcomes.extend_from_slice(&0u32.to_le_bytes());
    }
    let mut w = BinWriter::new(binfmt::KIND_CACHE);
    w.section(1, meta);
    w.section(2, vec![0u8; 8]); // empty symbol table: count 0, blob end 0
    w.section(3, entries);
    for id in 4..=7 {
        w.section(id, Vec::new());
    }
    w.section(8, spans);
    w.section(9, regions);
    w.section(10, outcomes);
    w.finish()
}

/// The migration contract for a cache left by an older format version:
/// `old_bytes` (carrying the current fingerprint and poisoned entries)
/// load as a version-mismatch cold start, findings match a cacheless run,
/// the resave rewrites the file in the current format, and a crash at any
/// operation of that migration leaves the complete old bytes or the
/// complete new bytes on disk — with unchanged findings either way.
fn assert_migrates_cold_at_every_kill_point(
    dir: &Path,
    files: &[SourceFile],
    expected: &[String],
    old_bytes: &[u8],
) {
    let cache_path = dir.join("scan-cache.json");
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    atomic_write(&RealFs, &cache_path, old_bytes).unwrap();

    // The clean migration.
    let mut migrating = session(Some(dir));
    assert_eq!(
        migrating.cache_status(),
        Some(CacheLoadStatus::VersionMismatch),
        "an old-format cache must be rejected by version, not loaded or errored"
    );
    let outcome = migrating.run(files).unwrap();
    assert_eq!(report_strings(&outcome.reports), expected);
    let new_bytes = std::fs::read(&cache_path).unwrap();
    assert_ne!(new_bytes, old_bytes, "migration did not rewrite the cache");
    let mut warm = session(Some(dir));
    assert!(matches!(warm.cache_status(), Some(CacheLoadStatus::Warm(_))));
    assert_eq!(report_strings(&warm.run(files).unwrap().reports), expected);

    // The kill-point row: size the migration's VFS-operation matrix with a
    // fault-free run, then crash at every operation.
    let (bin, _) = model_bins();
    atomic_write(&RealFs, &cache_path, old_bytes).unwrap();
    let probe = Arc::new(FaultVfs::real(FaultSchedule::new()));
    let mut sized = NamerBuilder::new()
        .model(SavedModel::from_bytes(bin).unwrap())
        .cache_dir(dir)
        .vfs(probe.clone())
        .build()
        .unwrap();
    sized.run(files).unwrap();
    let ops = probe.ops();
    assert_eq!(std::fs::read(&cache_path).unwrap(), new_bytes);

    for k in 0..ops {
        atomic_write(&RealFs, &cache_path, old_bytes).unwrap();
        let vfs = Arc::new(FaultVfs::real(FaultSchedule::kill_at(k, Some(usize::MAX))));
        let result = NamerBuilder::new()
            .model(SavedModel::from_bytes(bin).unwrap())
            .cache_dir(dir)
            .vfs(vfs)
            .build()
            .and_then(|mut s| s.run(files));
        assert!(result.is_err(), "kill at op {k} must surface as an error");
        let bytes = std::fs::read(&cache_path).unwrap();
        assert!(
            bytes == old_bytes || bytes == new_bytes,
            "op {k}: half-migrated cache on disk"
        );
        let mut fresh = session(Some(dir));
        assert!(
            matches!(
                fresh.cache_status(),
                Some(CacheLoadStatus::VersionMismatch) | Some(CacheLoadStatus::Warm(_))
            ),
            "op {k}: cache degraded to {:?} after crash",
            fresh.cache_status()
        );
        assert_eq!(
            report_strings(&fresh.run(files).unwrap().reports),
            expected,
            "op {k}: migration crash changed findings"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn v1_cache_migrates_cold_never_wrong_at_every_kill_point() {
    // A v1-era cache: the file-granular layout before statement regions.
    // It carries the *current* fingerprint and a poisoned ParseFailure
    // entry for every corpus file; only the version check stands between
    // these bytes and wrong output.
    let dir = scratch("v1-migrate");
    let files = corpus(0);
    let expected = report_strings(&session(None).run(&files).unwrap().reports);
    let fp = session(Some(&dir)).namer().scan_fingerprint();
    let digests: Vec<_> = files
        .iter()
        .map(|f| content_digest(&f.text, f.lang))
        .collect();
    assert_migrates_cold_at_every_kill_point(
        &dir,
        &files,
        &expected,
        &poisoned_v1_cache(fp, &digests),
    );
}

#[test]
fn v2_cache_migrates_cold_never_wrong_at_every_kill_point() {
    // A v2-era cache with statement regions, seeded under the current
    // fingerprint with a poisoned entry for every corpus file: the v3
    // reader must reject it by version, whatever its regions say.
    let dir = scratch("v2-migrate");
    let files = corpus(0);
    let expected = report_strings(&session(None).run(&files).unwrap().reports);
    let fp = session(Some(&dir)).namer().scan_fingerprint();
    let digests: Vec<_> = files
        .iter()
        .map(|f| content_digest(&f.text, f.lang))
        .collect();
    assert_migrates_cold_at_every_kill_point(
        &dir,
        &files,
        &expected,
        &poisoned_v2_cache(fp, &digests),
    );
}

#[test]
fn session_survives_kill_at_every_cache_operation() {
    let dir = scratch("session-kill");
    let cache_path = dir.join("scan-cache.json");
    let files_a = corpus(0);
    let files_b = corpus(2);

    // A clean cached run over corpus A seeds the "old" cache; corpus B
    // (a superset) produces a different "new" cache.
    session(Some(&dir)).run(&files_a).unwrap();
    let old_bytes = std::fs::read(&cache_path).unwrap();

    let expected = report_strings(&session(None).run(&files_b).unwrap().reports);

    // Size the matrix: one clean cached run over B through a fault-free
    // FaultVfs counts every VFS operation the session performs.
    let (bin, _) = model_bins();
    let probe = Arc::new(FaultVfs::real(FaultSchedule::new()));
    let mut sized = NamerBuilder::new()
        .model(SavedModel::from_bytes(bin).unwrap())
        .cache_dir(&dir)
        .vfs(probe.clone())
        .build()
        .unwrap();
    sized.run(&files_b).unwrap();
    let ops = probe.ops();
    let new_bytes = std::fs::read(&cache_path).unwrap();
    assert_ne!(old_bytes, new_bytes);

    for k in 0..ops {
        atomic_write(&RealFs, &cache_path, &old_bytes).unwrap();
        let vfs = Arc::new(FaultVfs::real(FaultSchedule::kill_at(k, Some(usize::MAX))));
        let result = NamerBuilder::new()
            .model(SavedModel::from_bytes(bin).unwrap())
            .cache_dir(&dir)
            .vfs(vfs)
            .build()
            .and_then(|mut s| s.run(&files_b));
        assert!(result.is_err(), "kill at op {k} must surface as an error");
        let bytes = std::fs::read(&cache_path).unwrap();
        assert!(
            bytes == old_bytes || bytes == new_bytes,
            "op {k}: truncated cache on disk"
        );
        // The restart: a fresh session loads the surviving cache warm and
        // reproduces the full scan's findings exactly.
        let mut fresh = session(Some(&dir));
        assert!(
            matches!(fresh.cache_status(), Some(CacheLoadStatus::Warm(_))),
            "op {k}: cache degraded to {:?} after crash",
            fresh.cache_status()
        );
        let outcome = fresh.run(&files_b).unwrap();
        assert_eq!(report_strings(&outcome.reports), expected, "op {k}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ----- graceful degradation ---------------------------------------------------

#[test]
fn quarantined_inputs_do_not_change_healthy_findings() {
    let dir = scratch("quarantine");
    for i in 0..6 {
        write(&dir, &format!("r{}/f{i}.py", i % 2), IDIOM.as_bytes());
    }
    write(&dir, "r0/bug.py", MISUSE.as_bytes());
    // The salt: a non-UTF-8 source and a file that fails with a permanent
    // error even after retries.
    write(&dir, "r0/binary.py", b"\xc3\x28\xff\xfe");
    write(&dir, "r1/locked.py", IDIOM.as_bytes());

    let vfs = FaultVfs::real(
        FaultSchedule::new().on_path("locked.py", Fault::Err(io::ErrorKind::PermissionDenied)),
    );
    let mut reader = CorpusReader::new(&vfs);
    let files = reader.collect_sources(&dir, Lang::Python).unwrap();
    let diag = reader.finish();
    assert_eq!(diag.quarantined.len(), 2);

    // Fault-free ingestion of the same corpus with the hostile files
    // removed must be byte-identical…
    std::fs::remove_file(dir.join("r0/binary.py")).unwrap();
    std::fs::remove_file(dir.join("r1/locked.py")).unwrap();
    let mut clean_reader = CorpusReader::new(&RealFs);
    let clean_files = clean_reader.collect_sources(&dir, Lang::Python).unwrap();
    assert!(clean_reader.finish().is_clean());
    assert_eq!(files, clean_files);

    // …and so must the findings; the diagnostics surface on the outcome
    // and in the run's own metrics.
    let (bin, _) = model_bins();
    let mut salted = NamerBuilder::new()
        .model(SavedModel::from_bytes(bin).unwrap())
        .ingest_diagnostics(diag)
        .build()
        .unwrap();
    let outcome = salted.run(&files).unwrap();
    let clean_outcome = session(None).run(&clean_files).unwrap();
    assert_eq!(
        report_strings(&outcome.reports),
        report_strings(&clean_outcome.reports)
    );
    assert_eq!(outcome.diagnostics.quarantined.len(), 2);
    assert_eq!(outcome.metrics.counter(Counter::QuarantinedFiles), 2);
    assert_eq!(clean_outcome.metrics.counter(Counter::QuarantinedFiles), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_transient_faults_only_move_the_retry_counter() {
    let dir = scratch("transient");
    for i in 0..6 {
        write(&dir, &format!("r{}/f{i}.py", i % 2), IDIOM.as_bytes());
    }
    let mut clean_reader = CorpusReader::new(&RealFs);
    let clean = clean_reader.collect_sources(&dir, Lang::Python).unwrap();

    // Seed 1 deterministically faults operation 0 (guaranteeing at least
    // one retry) and never produces more than 5 consecutive faults, so
    // 8 immediate attempts always recover.
    let vfs = FaultVfs::real(FaultSchedule::seeded_transient(1, 400, 30));
    let mut reader = CorpusReader::new(&vfs).retry_policy(RetryPolicy::immediate(8));
    let files = reader.collect_sources(&dir, Lang::Python).unwrap();
    let diag = reader.finish();
    assert_eq!(files, clean);
    assert!(diag.quarantined.is_empty());
    assert!(diag.io_retries >= 1, "operation 0 faults under seed 1");
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn symlink_cycles_are_reported_not_fatal() {
    let dir = scratch("cycle");
    write(&dir, "r0/a.py", IDIOM.as_bytes());
    std::os::unix::fs::symlink(&dir, dir.join("r0/loop")).unwrap();
    let mut reader = CorpusReader::new(&RealFs);
    let files = reader.collect_sources(&dir, Lang::Python).unwrap();
    assert_eq!(files.len(), 1);
    let diag = reader.finish();
    assert_eq!(diag.quarantined.len(), 1);
    assert_eq!(
        diag.quarantined[0].reason,
        namer::core::QuarantineReason::SymlinkCycle
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ----- quarantine-equivalence property ----------------------------------------

/// Across random corpora salted with random unhealthy files, ingestion
/// yields exactly the healthy subset (byte-identical, sorted) and
/// quarantines exactly the unhealthy files.
#[test]
fn faulted_ingestion_yields_exactly_the_healthy_subset() {
    let strategy = |rng: &mut SmallRng| {
        let specs = prop::vec(rng, 1..8, |r| (r.gen_range(0u8..3), r.gen_range(0u8..2)));
        (specs, rng.gen_range(0usize..3), rng.gen_range(0usize..3))
    };
    prop::check(16, strategy, |(specs, bad, locked)| {
        let dir = scratch("prop");
        let mut expected = Vec::new();
        for (i, &(r, t)) in specs.iter().enumerate() {
            let repo = format!("r{r}");
            let rel = format!("{repo}/f{i}.py");
            let text = if t == 0 { IDIOM } else { MISUSE };
            write(&dir, &rel, text.as_bytes());
            expected.push(SourceFile::new(repo, rel, text, Lang::Python));
        }
        for j in 0..bad {
            write(&dir, &format!("rx/bad{j}.py"), b"\xff\xfe\xc3\x28");
        }
        let mut schedule = FaultSchedule::new();
        for j in 0..locked {
            write(&dir, &format!("rx/locked{j}.py"), b"x = 1\n");
            schedule = schedule.on_path(
                format!("locked{j}.py"),
                Fault::Err(io::ErrorKind::PermissionDenied),
            );
        }

        let vfs = FaultVfs::real(schedule);
        let mut reader = CorpusReader::new(&vfs);
        let files = reader.collect_sources(&dir, Lang::Python).unwrap();
        let diag = reader.finish();

        expected.sort_by(|a, b| {
            (a.repo.clone(), a.path.clone()).cmp(&(b.repo.clone(), b.path.clone()))
        });
        assert_eq!(&files, &expected);
        assert_eq!(diag.quarantined.len(), bad + locked);
        assert!(diag.quarantined.iter().all(|q| {
            let name = q.path.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("bad") || name.starts_with("locked")
        }));
        std::fs::remove_dir_all(&dir).ok();
    });
}
