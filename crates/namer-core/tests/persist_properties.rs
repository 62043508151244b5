//! Round-trip properties for every persisted type (`persist.rs`): anything
//! that can be written to disk must decode back to an equal value, the
//! encoder must be deterministic byte for byte, and both persisted kinds
//! must reject any version tag but their own.

use namer_base::prop;
use namer_base::rng::SmallRng;
use namer_core::binfmt::{self, BinFile, BinWriter};
use namer_core::persist::FORMAT_VERSION;
use namer_core::{
    CacheEntry, CacheLoadStatus, FileScanState, LevelCounts, PersistError, RawHit, SavedModel,
    ScanCache, CACHE_FORMAT_VERSION,
};
use namer_ml::ModelKind;
use namer_patterns::{ConfusingPairs, NamePattern};
use namer_syntax::namepath::NamePath;
use namer_syntax::{ContentDigest, Lang, Sym};

/// Proptest's default case count, which every property here used.
const CASES: u32 = 256;

fn sym(rng: &mut SmallRng) -> Sym {
    Sym::intern(&prop::chars(rng, "a-z", 1..=8))
}

fn prefix(rng: &mut SmallRng) -> Vec<(Sym, u32)> {
    prop::vec(rng, 0..4, |r| (sym(r), r.gen_range(0u32..5)))
}

fn concrete_path(rng: &mut SmallRng) -> NamePath {
    let p = prefix(rng);
    NamePath::concrete(p, sym(rng))
}

fn symbolic_path(rng: &mut SmallRng) -> NamePath {
    NamePath::symbolic(prefix(rng))
}

fn level_counts(rng: &mut SmallRng) -> LevelCounts {
    LevelCounts {
        matches: rng.gen_range(0u64..1_000),
        satisfactions: rng.gen_range(0u64..1_000),
        violations: rng.gen_range(0u64..1_000),
    }
}

/// Either pattern type, through the public constructors (which enforce the
/// symbolic/concrete deduction invariants), with arbitrary mining counts.
fn name_pattern(rng: &mut SmallRng) -> NamePattern {
    let condition = prop::vec(rng, 0..3, concrete_path);
    let mut p = if rng.gen::<bool>() {
        let d1 = symbolic_path(rng);
        NamePattern::consistency(condition, d1, symbolic_path(rng))
    } else {
        NamePattern::confusing_word(condition, concrete_path(rng))
    };
    p.support = rng.gen_range(0u64..500);
    p.matches = rng.gen_range(0u64..500);
    p.satisfactions = rng.gen_range(0u64..500);
    p
}

fn confusing_pairs(rng: &mut SmallRng) -> ConfusingPairs {
    let obs = prop::vec(rng, 0..8, |r| (sym(r), sym(r), r.gen_range(1u64..4)));
    let mut cp = ConfusingPairs::new();
    for (mistaken, correct, n) in obs {
        for _ in 0..n {
            cp.insert(mistaken, correct);
        }
    }
    cp
}

/// `ConfusingPairs` has no `PartialEq`; compare through a sorted rendering.
fn pairs_key(cp: &ConfusingPairs) -> (Vec<(String, String, u64)>, Vec<String>) {
    let mut pairs: Vec<(String, String, u64)> = cp
        .iter()
        .map(|(&(a, b), &n)| (a.as_str().to_owned(), b.as_str().to_owned(), n))
        .collect();
    pairs.sort();
    let mut words: Vec<String> = cp
        .correct_words
        .iter()
        .map(|w| w.as_str().to_owned())
        .collect();
    words.sort();
    (pairs, words)
}

fn raw_hit(rng: &mut SmallRng) -> RawHit {
    RawHit {
        line: rng.gen_range(1u32..10_000),
        rendered: prop::chars(rng, " -~", 0..=40),
        digest: rng.next_u64(),
        path_count: rng.gen_range(0usize..64),
        pattern_idx: rng.gen_range(0usize..64),
        original: sym(rng),
        suggested: sym(rng),
    }
}

/// Sorted-`Vec` invariants hold by construction: the count tables come from
/// `BTreeMap`s, so keys are unique and ascending, exactly as `scan_file`
/// produces them.
fn file_scan_state(rng: &mut SmallRng) -> FileScanState {
    let patterns = prop::btree_map(rng, 0..6, |r| r.gen_range(0usize..32), level_counts);
    let digests = prop::btree_map(rng, 0..6, SmallRng::next_u64, |r| r.gen_range(1u64..5));
    FileScanState {
        pattern_counts: patterns.into_iter().collect(),
        digest_counts: digests.into_iter().collect(),
        raw: prop::vec(rng, 0..5, raw_hit),
    }
}

fn cache_entry(rng: &mut SmallRng) -> CacheEntry {
    if rng.gen::<bool>() {
        CacheEntry::Parsed(file_scan_state(rng))
    } else {
        CacheEntry::ParseFailure
    }
}

fn scan_cache(rng: &mut SmallRng) -> ScanCache {
    let mut cache = ScanCache::empty(rng.next_u64());
    let entries = prop::btree_map(rng, 0..6, |r| ContentDigest(r.gen()), cache_entry);
    for (digest, entry) in entries {
        cache.insert(digest, entry);
    }
    cache
}

/// A model holding `patterns`, `dataset`, and `pairs` and nothing else.
fn model_of(
    patterns: Vec<NamePattern>,
    dataset: Vec<LevelCounts>,
    pairs: ConfusingPairs,
) -> SavedModel {
    SavedModel {
        version: FORMAT_VERSION,
        lang: Lang::Python,
        use_analysis: true,
        patterns,
        dataset,
        pairs,
        classifier: None,
        model_kind: ModelKind::SvmLinear,
    }
}

/// Encodes `model` and decodes it back.
fn model_round_trip(model: &SavedModel) -> SavedModel {
    SavedModel::from_bytes(&model.to_binary()).expect("model decodes")
}

/// A cache holding one entry, encoded and decoded back; returns the entry.
fn entry_round_trip(entry: CacheEntry) -> CacheEntry {
    let digest = ContentDigest(7);
    let mut cache = ScanCache::empty(1);
    cache.insert(digest, entry);
    let (back, status) = ScanCache::from_bytes(&cache.to_binary(), 1);
    assert_eq!(status, CacheLoadStatus::Warm(1));
    back.get(digest).expect("entry survives").clone()
}

/// Rewrites the format version in a cache container's meta section,
/// re-stamping the container digest, so only the version differs.
fn with_cache_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let file = BinFile::parse_kind(bytes, binfmt::KIND_CACHE).expect("valid container");
    let mut w = BinWriter::new(binfmt::KIND_CACHE);
    for id in 1..=16 {
        if let Some(section) = file.section(id) {
            let mut section = section.to_vec();
            if id == 1 {
                section[..4].copy_from_slice(&version.to_le_bytes());
            }
            w.section(id, section);
        }
    }
    w.finish()
}

#[test]
fn level_counts_round_trip() {
    prop::check(CASES, level_counts, |c| {
        let back = model_round_trip(&model_of(Vec::new(), vec![c], ConfusingPairs::new()));
        assert_eq!(back.dataset, [c]);
    });
}

#[test]
fn name_pattern_round_trip() {
    prop::check(CASES, name_pattern, |p| {
        let model = model_of(vec![p.clone()], Vec::new(), ConfusingPairs::new());
        let back = model_round_trip(&model);
        assert_eq!(back.patterns, [p]);
    });
}

#[test]
fn confusing_pairs_round_trip() {
    prop::check(CASES, confusing_pairs, |cp| {
        let back = model_round_trip(&model_of(Vec::new(), Vec::new(), cp.clone()));
        assert_eq!(pairs_key(&back.pairs), pairs_key(&cp));
    });
}

#[test]
fn file_scan_state_round_trip() {
    prop::check(CASES, file_scan_state, |state| {
        let back = entry_round_trip(CacheEntry::Parsed(state.clone()));
        assert_eq!(back, CacheEntry::Parsed(state));
    });
}

#[test]
fn cache_entry_round_trip() {
    prop::check(CASES, cache_entry, |entry| {
        assert_eq!(entry_round_trip(entry.clone()), entry);
    });
}

#[test]
fn scan_cache_round_trip() {
    prop::check(CASES, scan_cache, |cache| {
        let (back, status) = ScanCache::from_bytes(&cache.to_binary(), cache.fingerprint());
        assert_eq!(status, CacheLoadStatus::Warm(cache.len()));
        assert_eq!(back, cache);
    });
}

/// Decoding the container gives the same cache, and re-encoding it is
/// byte-identical (deterministic encoder).
#[test]
fn scan_cache_binary_reencodes_identically() {
    prop::check(CASES, scan_cache, |cache| {
        let fp = cache.fingerprint();
        let bytes = cache.to_binary();
        let (from_bin, bin_status) = ScanCache::from_bytes(&bytes, fp);
        assert_eq!(bin_status, CacheLoadStatus::Warm(cache.len()));
        assert_eq!(&from_bin, &cache);
        assert_eq!(from_bin.to_binary(), bytes);
    });
}

#[test]
fn scan_cache_rejects_every_other_version() {
    let strategy = |rng: &mut SmallRng| {
        let cache = scan_cache(rng);
        let v = prop::until(rng, |r| r.next_u32(), |&v| v != CACHE_FORMAT_VERSION);
        (cache, v)
    };
    prop::check(CASES, strategy, |(cache, v)| {
        let fp = cache.fingerprint();
        let bytes = with_cache_version(&cache.to_binary(), v);
        let (back, status) = ScanCache::from_bytes(&bytes, fp);
        assert_eq!(status, CacheLoadStatus::VersionMismatch);
        assert!(back.is_empty());
        assert_eq!(back.fingerprint(), fp);
    });
}

#[test]
fn saved_model_parts_round_trip() {
    let strategy = |rng: &mut SmallRng| {
        let patterns = prop::vec(rng, 0..4, name_pattern);
        let dataset = prop::vec(rng, 0..4, level_counts);
        (patterns, dataset, confusing_pairs(rng), rng.gen::<bool>())
    };
    prop::check(
        CASES,
        strategy,
        |(patterns, dataset, pairs, use_analysis)| {
            let model = SavedModel {
                use_analysis,
                ..model_of(patterns, dataset, pairs)
            };
            let back = model_round_trip(&model);
            assert_eq!(back.version, model.version);
            assert_eq!(back.lang, model.lang);
            assert_eq!(back.use_analysis, model.use_analysis);
            assert_eq!(back.patterns, model.patterns);
            assert_eq!(back.dataset, model.dataset);
            assert_eq!(pairs_key(&back.pairs), pairs_key(&model.pairs));
            assert!(back.classifier.is_none());
            assert_eq!(back.model_kind, model.model_kind);
        },
    );
}

/// The binary round trip yields the same model, and re-encoding it is
/// byte-identical.
#[test]
fn saved_model_binary_reencodes_identically() {
    let strategy = |rng: &mut SmallRng| {
        let patterns = prop::vec(rng, 0..4, name_pattern);
        let dataset = prop::vec(rng, 0..4, level_counts);
        let pairs = confusing_pairs(rng);
        (
            patterns,
            dataset,
            pairs,
            rng.gen::<bool>(),
            rng.gen::<bool>(),
        )
    };
    prop::check(
        CASES,
        strategy,
        |(patterns, dataset, pairs, use_analysis, lang_java)| {
            let model = SavedModel {
                lang: if lang_java { Lang::Java } else { Lang::Python },
                use_analysis,
                model_kind: ModelKind::LogReg,
                ..model_of(patterns, dataset, pairs)
            };
            let bytes = model.to_binary();
            let from_bin = SavedModel::from_bytes(&bytes).unwrap();
            assert_eq!(from_bin.to_binary(), &bytes[..]);
            assert_eq!(from_bin.lang, model.lang);
            assert_eq!(from_bin.use_analysis, model.use_analysis);
            assert_eq!(pairs_key(&from_bin.pairs), pairs_key(&model.pairs));
            assert_eq!(from_bin.patterns, model.patterns);
        },
    );
}

#[test]
fn saved_model_rejects_every_other_version() {
    let strategy =
        |rng: &mut SmallRng| prop::until(rng, |r| r.next_u32(), |&v| v != FORMAT_VERSION);
    prop::check(CASES, strategy, |v| {
        let model = SavedModel {
            version: v,
            ..model_of(Vec::new(), Vec::new(), ConfusingPairs::new())
        };
        match SavedModel::from_bytes(&model.to_binary()) {
            Err(PersistError::UnsupportedVersion(got)) => assert_eq!(got, v),
            other => panic!("expected UnsupportedVersion, got ok={}", other.is_ok()),
        }
    });
}
