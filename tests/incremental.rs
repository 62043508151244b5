//! Differential harness for the incremental scan (DESIGN.md §8, §14):
//! under any mix of file edits, additions, and deletions — and any mix of
//! statement-level insertions, deletions, and replacements that shift the
//! spans of everything below them — the cache-backed scan must produce
//! byte-identical output to a full scan from scratch. Damaged or mismatched caches
//! must degrade to a cold (correct) scan, never a panic or a wrong answer.

use namer::core::binfmt::{self, BinFile, BinWriter};
use namer::core::{
    process, CacheLoadStatus, Detector, DetectorSpec, ProcessConfig, ScanCache, ScanRequest,
    ScanResult, CACHE_FORMAT_VERSION,
};
use namer::patterns::MiningConfig;
use namer::syntax::{Lang, SourceFile};
use namer_base::prop;
use namer_base::rng::SmallRng;
use std::sync::OnceLock;

/// File bodies the generated corpora draw from: the dominant idiom, the
/// injected misuse, unrelated code, and the degenerate cases (empty,
/// whitespace-only, unparsable).
const TEMPLATES: &[&str] = &[
    "class T(TestCase):\n    def test_a(self):\n        self.assertEqual(value.count, 4)\n",
    "class T(TestCase):\n    def test_b(self):\n        self.assertTrue(value.count, 4)\n",
    "class T(TestCase):\n    def test_c(self):\n        self.assertEqual(other.size, 1)\n",
    "x = 1\n",
    "",
    "   \n\n",
    "def broken(:\n",
    "class T(TestCase):\n    def test_d(self):\n        self.assertTrue(value.count, 9)\n\nclass U(TestCase):\n    def test_e(self):\n        self.assertEqual(value.count, 9)\n",
];

/// Self-contained statement blocks for the statement-mutation property:
/// files are concatenations of these, so inserting / deleting / replacing
/// one block is a statement-window edit that shifts every span below it.
const BLOCKS: &[&str] = &[
    "class A(TestCase):\n    def test_p(self):\n        self.assertEqual(value.count, 3)\n",
    "class B(TestCase):\n    def test_q(self):\n        self.assertTrue(value.count, 5)\n",
    "class C(TestCase):\n    def test_r(self):\n        self.assertEqual(other.size, 2)\n",
    "x = 1\n",
    "count = other.size\n",
    "def helper(v):\n    return v\n",
];

/// Mines one detector (expensive) shared by every test and property case.
fn mined() -> &'static (Detector, ProcessConfig) {
    static DET: OnceLock<(Detector, ProcessConfig)> = OnceLock::new();
    DET.get_or_init(|| {
        let mut files: Vec<SourceFile> = (0..40)
            .map(|i| {
                SourceFile::new(
                    format!("r{}", i % 5),
                    format!("train{i}.py"),
                    TEMPLATES[0],
                    Lang::Python,
                )
            })
            .collect();
        files.push(SourceFile::new("r0", "bad.py", TEMPLATES[1], Lang::Python));
        let commits = vec![(
            "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 1)\n"
                .to_owned(),
            "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 1)\n"
                .to_owned(),
        )];
        let config = ProcessConfig::default();
        let corpus = process(&files, &config);
        let det = Detector::mine(
            &corpus,
            &commits,
            Lang::Python,
            &MiningConfig {
                min_path_count: 2,
                min_support: 5,
                ..MiningConfig::default()
            },
        );
        assert!(det.pattern_count() > 0, "harness needs mined patterns");
        (det, config)
    })
}

/// The cache fingerprint of this harness's detector/config pairing.
fn fp(det: &Detector, config: &ProcessConfig) -> u64 {
    det.fingerprint(config)
}

/// An incremental scan at `threads` workers.
fn incremental(
    det: &Detector,
    files: &[SourceFile],
    config: &ProcessConfig,
    cache: &mut ScanCache,
    threads: usize,
) -> ScanResult {
    det.scan(ScanRequest::incremental(files, config, cache).threads(threads))
}

/// Builds a corpus from `(repo, template)` picks, named by position.
fn build_files(specs: &[(u8, u8)]) -> Vec<SourceFile> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(r, t))| {
            SourceFile::new(
                format!("repo{r}"),
                format!("f{i}.py"),
                TEMPLATES[t as usize % TEMPLATES.len()],
                Lang::Python,
            )
        })
        .collect()
}

/// Builds one file per block list, each the concatenation of its blocks.
fn build_block_files(lists: &[Vec<u8>]) -> Vec<SourceFile> {
    lists
        .iter()
        .enumerate()
        .map(|(i, blocks)| {
            let text: String = blocks
                .iter()
                .map(|&b| BLOCKS[b as usize % BLOCKS.len()])
                .collect();
            SourceFile::new("repo0", format!("s{i}.py"), text, Lang::Python)
        })
        .collect()
}

/// Everything observable about a scan, bitwise (features via `to_bits`).
#[allow(clippy::type_complexity)]
fn key(scan: &ScanResult) -> (Vec<(String, usize, bool, Vec<u64>)>, usize, usize, usize, usize) {
    (
        scan.violations
            .iter()
            .map(|v| {
                (
                    v.to_string(),
                    v.pattern_idx,
                    v.detected_by_both,
                    v.features.iter().map(|f| f.to_bits()).collect(),
                )
            })
            .collect(),
        scan.raw_violation_count,
        scan.files_scanned,
        scan.files_with_violation,
        scan.repos_with_violation,
    )
}

/// The ground truth: process + scan everything from scratch.
fn full_scan(det: &Detector, config: &ProcessConfig, files: &[SourceFile]) -> ScanResult {
    det.scan(ScanRequest::full(&process(files, config)))
}

/// A uniform position in `0..len` from a raw draw (`len > 0`).
fn pick(raw: u64, len: usize) -> usize {
    (raw % len as u64) as usize
}

/// A `(repo, template)` pair for [`build_files`].
fn file_spec(rng: &mut SmallRng) -> (u8, u8) {
    (rng.gen_range(0u8..4), rng.gen_range(0..TEMPLATES.len() as u8))
}

/// The acceptance-criteria property: across ≥ 100 random corpora and
/// random mutations of them, a cold incremental scan, a warm
/// incremental scan of the mutated corpus, and a reloaded warm scan
/// all match the full scan bit for bit.
#[test]
fn incremental_scan_matches_full_scan() {
    let strategy = |rng: &mut SmallRng| {
        let base = prop::vec(rng, 1..12, file_spec);
        let edits = prop::vec(rng, 0..6, |r| {
            (r.next_u64(), r.gen_range(0..TEMPLATES.len() as u8))
        });
        let drops = prop::vec(rng, 0..3, SmallRng::next_u64);
        let adds = prop::vec(rng, 0..4, file_spec);
        (base, edits, drops, adds)
    };
    prop::check(128, strategy, |(base, edits, drops, adds)| {
        let (det, config) = mined();
        let fingerprint = fp(det, config);
        let files = build_files(&base);

        // Cold incremental == full.
        let mut cache = ScanCache::empty(fingerprint);
        let cold = incremental(det, &files, config, &mut cache, 1);
        assert_eq!(key(&full_scan(det, config, &files)), key(&cold));
        assert_eq!(cold.cache.unwrap().reused, 0);

        // Mutate: rewrite some files, delete some, append new ones.
        let mut mutated = files.clone();
        for (idx, t) in &edits {
            if mutated.is_empty() {
                break;
            }
            let i = pick(*idx, mutated.len());
            mutated[i].text = TEMPLATES[*t as usize % TEMPLATES.len()].to_owned();
        }
        for idx in &drops {
            if mutated.is_empty() {
                break;
            }
            let i = pick(*idx, mutated.len());
            mutated.remove(i);
        }
        for (j, &(r, t)) in adds.iter().enumerate() {
            mutated.push(SourceFile::new(
                format!("repo{r}"),
                format!("added{j}.py"),
                TEMPLATES[t as usize % TEMPLATES.len()],
                Lang::Python,
            ));
        }

        // Warm incremental over the mutated corpus == full scan of it.
        let warm = incremental(det, &mutated, config, &mut cache, 1);
        assert_eq!(key(&full_scan(det, config, &mutated)), key(&warm));

        // A round-trip of the cache through its binary form changes
        // nothing, and serves the whole mutated corpus without fresh work
        // — at 2 threads.
        let (mut reloaded, status) = ScanCache::from_bytes(&cache.to_binary(), fingerprint);
        assert_eq!(status, CacheLoadStatus::Warm(cache.len()));
        let again = incremental(det, &mutated, config, &mut reloaded, 2);
        assert_eq!(again.cache.unwrap().fresh, 0);
        assert_eq!(key(&warm), key(&again));
    });
}

/// The §14 property: a warm rescan of a corpus mutated by random statement
/// insertions, deletions, and replacements — span-shifting edits included
/// — matches the full cold scan bit for bit, at 1 and 2 threads.
#[test]
fn statement_windowed_rescan_matches_full_scan() {
    let strategy = |rng: &mut SmallRng| {
        let base = prop::vec(rng, 1..8, |r| {
            prop::vec(r, 1..6, |r| r.gen_range(0..BLOCKS.len() as u8))
        });
        let ops = prop::vec(rng, 1..8, |r| {
            let (fi, pi) = (r.next_u64(), r.next_u64());
            (fi, pi, r.gen_range(0u8..3), r.gen_range(0..BLOCKS.len() as u8))
        });
        (base, ops)
    };
    prop::check(128, strategy, |(base, ops)| {
        let (det, config) = mined();
        let files = build_block_files(&base);

        // Warm a cache on the pristine corpus.
        let mut cache = ScanCache::empty(fp(det, config));
        incremental(det, &files, config, &mut cache, 1);

        // Statement-level mutations: insert a block (shifting every span
        // below it), delete one, or replace one in place.
        let mut lists = base.clone();
        for (fi, pi, op, b) in &ops {
            let at = pick(*fi, lists.len());
            let list = &mut lists[at];
            match op {
                0 => {
                    let p = pick(*pi, list.len() + 1);
                    list.insert(p, *b);
                }
                1 => {
                    if list.len() > 1 {
                        let p = pick(*pi, list.len());
                        list.remove(p);
                    }
                }
                _ => {
                    let p = pick(*pi, list.len());
                    list[p] = *b;
                }
            }
        }
        let mutated = build_block_files(&lists);
        let reference = full_scan(det, config, &mutated);

        // Warm rescan ≡ full cold scan, thread-invariant.
        for threads in [1usize, 2] {
            let mut warm = cache.clone();
            let scan = incremental(det, &mutated, config, &mut warm, threads);
            assert_eq!(key(&reference), key(&scan), "threads={}", threads);
        }
    });
}

#[test]
fn cache_round_trips_through_disk() {
    let (det, config) = mined();
    let files = build_files(&[(0, 1), (1, 0), (0, 3), (2, 7)]);
    let mut cache = ScanCache::empty(fp(det, config));
    let first = incremental(det, &files, config, &mut cache, 1);
    let dir = std::env::temp_dir().join(format!("namer-incremental-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scan-cache.json");
    cache.save(&path).unwrap();
    let (mut loaded, status) = ScanCache::load(&path, fp(det, config));
    assert_eq!(status, CacheLoadStatus::Warm(cache.len()));
    let second = incremental(det, &files, config, &mut loaded, 1);
    let stats = second.cache.unwrap();
    assert_eq!(stats.fresh, 0);
    assert_eq!(stats.reused, files.len());
    assert_eq!(key(&first), key(&second));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_cache_file_loads_cold() {
    let (det, config) = mined();
    let path = std::env::temp_dir().join("namer-no-such-cache-file.json");
    let (cache, status) = ScanCache::load(&path, fp(det, config));
    assert_eq!(status, CacheLoadStatus::Cold);
    assert!(cache.is_empty());
}

#[test]
fn pattern_set_change_invalidates_cache() {
    let (det, config) = mined();
    assert!(det.pattern_count() > 1);
    let files = build_files(&[(0, 1), (1, 0), (2, 2)]);
    let mut cache = ScanCache::empty(fp(det, config));
    incremental(det, &files, config, &mut cache, 1);

    // Drop the last mined pattern: a different detector, so a different
    // fingerprint, so the old cache must not be accepted.
    let n = det.pattern_count() - 1;
    let truncated = DetectorSpec::new(
        det.patterns.patterns[..n].to_vec(),
        det.pairs.clone(),
        det.dataset_counts_all()[..n].to_vec(),
    )
    .build();
    assert_ne!(fp(det, config), fp(&truncated, config));

    let (mut invalidated, status) =
        ScanCache::from_bytes(&cache.to_binary(), fp(&truncated, config));
    assert_eq!(status, CacheLoadStatus::FingerprintMismatch);
    assert!(invalidated.is_empty());
    let scan = incremental(&truncated, &files, config, &mut invalidated, 1);
    assert_eq!(scan.cache.unwrap().reused, 0);
    assert_eq!(key(&full_scan(&truncated, config, &files)), key(&scan));
}

#[test]
fn corrupt_cache_degrades_to_cold_scan() {
    let (det, config) = mined();
    let fingerprint = fp(det, config);
    let files = build_files(&[(0, 1), (2, 7), (1, 4)]);
    let mut cache = ScanCache::empty(fingerprint);
    incremental(det, &files, config, &mut cache, 1);
    let bytes = cache.to_binary();
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    let reference = full_scan(det, config, &files);
    for damaged in [
        b"not json at all".to_vec(),
        Vec::new(),
        bytes[..bytes.len() / 2].to_vec(),
        flipped,
    ] {
        let (mut c, status) = ScanCache::from_bytes(&damaged, fingerprint);
        assert_eq!(status, CacheLoadStatus::Corrupt, "input: {:.60?}…", &damaged);
        assert!(c.is_empty());
        let scan = incremental(det, &files, config, &mut c, 1);
        assert_eq!(key(&reference), key(&scan));
    }
}

#[test]
fn version_bump_is_rejected() {
    let (det, config) = mined();
    let fingerprint = fp(det, config);
    let bytes = ScanCache::empty(fingerprint).to_binary();
    // Rewrite the format version in the meta section (re-stamping the
    // container digest), leaving every other byte as written.
    let file = BinFile::parse_kind(&bytes, binfmt::KIND_CACHE).unwrap();
    let mut bumped = BinWriter::new(binfmt::KIND_CACHE);
    for id in 1..=16 {
        if let Some(section) = file.section(id) {
            let mut section = section.to_vec();
            if id == 1 {
                section[..4].copy_from_slice(&(CACHE_FORMAT_VERSION + 1).to_le_bytes());
            }
            bumped.section(id, section);
        }
    }
    let (c, status) = ScanCache::from_bytes(&bumped.finish(), fingerprint);
    assert_eq!(status, CacheLoadStatus::VersionMismatch);
    assert!(c.is_empty());
}

#[test]
fn empty_and_whitespace_files_scan_cleanly() {
    let (det, config) = mined();
    let files = vec![
        SourceFile::new("r", "empty.py", "", Lang::Python),
        SourceFile::new("r", "ws.py", "   \n\n  \n", Lang::Python),
        SourceFile::new("r", "nl.py", "\n", Lang::Python),
        SourceFile::new("r", "ok.py", TEMPLATES[1], Lang::Python),
    ];
    let reference = full_scan(det, config, &files);
    for threads in [1, 2, 8] {
        let mut cache = ScanCache::empty(fp(det, config));
        let scan = incremental(det, &files, config, &mut cache, threads);
        assert_eq!(key(&reference), key(&scan), "threads={threads}");
    }
}

#[test]
fn identical_files_share_cache_entries() {
    let (det, config) = mined();
    // Five copies of the same content across different repos/paths: one
    // fresh parse serves all of them, and the scan still sees five files.
    let files = build_files(&[(0, 1), (1, 1), (2, 1), (3, 1), (0, 1)]);
    let mut cache = ScanCache::empty(fp(det, config));
    let scan = incremental(det, &files, config, &mut cache, 1);
    assert_eq!(cache.len(), 1, "one entry per distinct content");
    assert_eq!(scan.files_scanned, 5);
    assert_eq!(key(&full_scan(det, config, &files)), key(&scan));
}
