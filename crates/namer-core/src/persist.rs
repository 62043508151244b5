//! Saving and loading trained Namer systems and scan caches.
//!
//! Mining over a large corpus is the expensive step; a deployed detector
//! (what the paper envisions as an IDE plugin or CI bot, §5.4) loads a
//! pre-trained model and scans new code. [`SavedModel`] captures everything
//! inference needs: the mined patterns with their dataset statistics, the
//! confusing word pairs, and the classifier pipeline.
//!
//! [`ScanCache`] persists per-file scan state between CI runs, keyed by
//! content digest and guarded by the detector fingerprint (DESIGN.md §8).
//! Unlike model loading, cache loading *never* fails: any mismatch or
//! corruption degrades to an empty cache and therefore a cold — but still
//! correct — scan.
//!
//! Both types persist only in the binary container of [`crate::binfmt`] —
//! an interned symbol table plus flat fixed-width arrays
//! ([`namer_patterns::flat`]), digest-guarded, laid out in DESIGN.md §12.
//! A model file that is not a container is a [`PersistError::Malformed`];
//! a cache file that is not one loads cold.

use crate::binfmt::{self, BinError, BinFile, BinWriter};
use crate::detector::{DetectorSpec, FileScanState, RawHit, RegionOutcome, StmtRegion};
use crate::error::NamerError;
use crate::features::LevelCounts;
use crate::namer::{Namer, NamerConfig};
use crate::vfs::{atomic_write, RealFs, Vfs};
use namer_ml::{ModelKind, Pipeline};
use namer_patterns::flat::{
    self, FlatError, PathsBuilder, PathsView, SymTable, SymTableBuilder,
};
use namer_patterns::{ConfusingPairs, NamePattern};
use namer_base::json::{FromJson, ToJson, Value};
use namer_syntax::{ContentDigest, Lang};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::Path;

/// A persistable snapshot of a trained [`Namer`].
#[derive(Clone)]
pub struct SavedModel {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Language the system was trained for.
    pub lang: Lang,
    /// Whether the §4.1 analyses were enabled at training time (scanning
    /// must use the same setting or paths will not line up).
    pub use_analysis: bool,
    /// Mined name patterns.
    pub patterns: Vec<NamePattern>,
    /// Dataset-level counts per pattern (features 6/9/12).
    pub dataset: Vec<LevelCounts>,
    /// Mined confusing word pairs (feature 17 + mining provenance).
    pub pairs: ConfusingPairs,
    /// The defect classifier, absent for "w/o C" systems.
    pub classifier: Option<Pipeline>,
    /// Which linear model the classifier uses.
    pub model_kind: ModelKind,
}

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors from loading a saved model.
#[derive(Debug)]
pub enum PersistError {
    /// The file is not a well-formed binary model container.
    Malformed(String),
    /// The format version is not supported.
    UnsupportedVersion(u32),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Malformed(e) => write!(f, "malformed model file: {e}"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported model format version {v}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<BinError> for PersistError {
    fn from(e: BinError) -> PersistError {
        match e {
            BinError::UnsupportedVersion(v) => PersistError::UnsupportedVersion(v),
            other => PersistError::Malformed(other.to_string()),
        }
    }
}

impl From<FlatError> for PersistError {
    fn from(e: FlatError) -> PersistError {
        PersistError::Malformed(e.to_string())
    }
}

impl From<FlatError> for BinError {
    fn from(e: FlatError) -> BinError {
        BinError::Malformed(e.to_string())
    }
}

// Model section ids (container kind `KIND_MODEL`).
const MODEL_SEC_META: u32 = 1;
const MODEL_SEC_SYMS: u32 = 2;
const MODEL_SEC_PATHS: u32 = 3;
const MODEL_SEC_PREFIX_POOL: u32 = 4;
const MODEL_SEC_PATTERNS: u32 = 5;
const MODEL_SEC_DATASET: u32 = 6;
const MODEL_SEC_PAIRS: u32 = 7;
const MODEL_SEC_CLASSIFIER: u32 = 8;

const MODEL_META_BYTES: usize = 20;
const DATASET_RECORD_BYTES: usize = 24;

/// The container's language tag comes from the registry's stable
/// assignment ([`Language::model_tag`](namer_syntax::Language::model_tag)),
/// so existing Python/Java containers stay byte-identical as frontends are
/// added.
fn lang_tag(lang: Lang) -> u32 {
    lang.spec().model_tag()
}

fn kind_tag(kind: ModelKind) -> u32 {
    match kind {
        ModelKind::SvmLinear => 0,
        ModelKind::LogReg => 1,
        ModelKind::Lda => 2,
    }
}

fn bool_from(tag: u32, what: &str) -> Result<bool, PersistError> {
    match tag {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(PersistError::Malformed(format!("bad {what} flag {other}"))),
    }
}

impl SavedModel {
    /// Snapshots a trained system.
    pub fn from_namer(namer: &Namer) -> SavedModel {
        SavedModel {
            version: FORMAT_VERSION,
            lang: namer.lang(),
            use_analysis: namer.config().process.use_analysis,
            patterns: namer.detector.patterns.patterns.clone(),
            dataset: namer.detector.dataset_counts_all().to_vec(),
            pairs: namer.detector.pairs.clone(),
            classifier: namer.classifier().cloned(),
            model_kind: namer.model_kind,
        }
    }

    /// Restores a runnable system. `config` supplies the runtime knobs
    /// (path limits, analysis parameters); its `use_analysis` flag is
    /// overridden by the persisted one so scanning matches training.
    pub fn into_namer(self, mut config: NamerConfig) -> Namer {
        config.process.use_analysis = self.use_analysis;
        config.use_classifier = self.classifier.is_some();
        let detector = DetectorSpec::new(self.patterns, self.pairs, self.dataset).build();
        Namer::assemble(detector, self.classifier, self.model_kind, self.lang, config)
    }

    /// Encodes the model into the binary container (DESIGN.md §12):
    /// patterns, paths, and pairs as flat arrays over an interned symbol
    /// table; the classifier pipeline as an embedded JSON blob section.
    /// Encoding is deterministic byte for byte.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut syms = SymTableBuilder::new();
        let mut paths = PathsBuilder::new();
        let patterns = flat::encode_patterns(&self.patterns, &mut paths, &mut syms);
        let pairs = flat::encode_pairs(&self.pairs, &mut syms);
        let (path_records, prefix_pool) = paths.finish();

        let mut meta = Vec::with_capacity(MODEL_META_BYTES);
        for v in [
            self.version,
            lang_tag(self.lang),
            u32::from(self.use_analysis),
            kind_tag(self.model_kind),
            u32::from(self.classifier.is_some()),
        ] {
            meta.extend_from_slice(&v.to_le_bytes());
        }

        let mut dataset = Vec::with_capacity(self.dataset.len() * DATASET_RECORD_BYTES);
        for c in &self.dataset {
            dataset.extend_from_slice(&c.matches.to_le_bytes());
            dataset.extend_from_slice(&c.satisfactions.to_le_bytes());
            dataset.extend_from_slice(&c.violations.to_le_bytes());
        }

        let mut w = BinWriter::new(binfmt::KIND_MODEL);
        w.section(MODEL_SEC_META, meta);
        w.section(MODEL_SEC_SYMS, syms.encode());
        w.section(MODEL_SEC_PATHS, path_records);
        w.section(MODEL_SEC_PREFIX_POOL, prefix_pool);
        w.section(MODEL_SEC_PATTERNS, patterns);
        w.section(MODEL_SEC_DATASET, dataset);
        w.section(MODEL_SEC_PAIRS, pairs);
        if let Some(classifier) = &self.classifier {
            w.section(MODEL_SEC_CLASSIFIER, classifier.to_value().to_string().into_bytes());
        }
        w.finish()
    }

    /// Decodes a model file. Anything but a binary model container —
    /// including a JSON model written before the container existed — is
    /// [`PersistError::Malformed`], naming the expected format.
    ///
    /// # Errors
    ///
    /// [`PersistError`] for anything unusable: bytes that are not a
    /// container, a digest mismatch, a truncated or malformed container, or
    /// an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<SavedModel, PersistError> {
        let file = BinFile::parse_kind(bytes, binfmt::KIND_MODEL)?;
        let meta = file.require(MODEL_SEC_META)?;
        if meta.len() != MODEL_META_BYTES {
            return Err(PersistError::Malformed(format!(
                "model meta section is {} bytes, expected {MODEL_META_BYTES}",
                meta.len()
            )));
        }
        let version = flat::read_u32(meta, 0)?;
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let lang_raw = flat::read_u32(meta, 4)?;
        let lang = namer_syntax::lang::from_model_tag(lang_raw)
            .ok_or_else(|| PersistError::Malformed(format!("bad language tag {lang_raw}")))?;
        let use_analysis = bool_from(flat::read_u32(meta, 8)?, "use_analysis")?;
        let model_kind = match flat::read_u32(meta, 12)? {
            0 => ModelKind::SvmLinear,
            1 => ModelKind::LogReg,
            2 => ModelKind::Lda,
            other => return Err(PersistError::Malformed(format!("bad model kind tag {other}"))),
        };
        let has_classifier = bool_from(flat::read_u32(meta, 16)?, "has_classifier")?;

        let syms = SymTable::decode(file.require(MODEL_SEC_SYMS)?)?;
        let paths = PathsView::parse(
            file.require(MODEL_SEC_PATHS)?,
            file.require(MODEL_SEC_PREFIX_POOL)?,
        )?;
        let patterns = flat::decode_patterns(file.require(MODEL_SEC_PATTERNS)?, &paths, &syms)?;

        let dataset_bytes = file.require(MODEL_SEC_DATASET)?;
        if dataset_bytes.len() % DATASET_RECORD_BYTES != 0 {
            return Err(PersistError::Malformed(format!(
                "dataset section length {} not a record multiple",
                dataset_bytes.len()
            )));
        }
        let mut dataset = Vec::with_capacity(dataset_bytes.len() / DATASET_RECORD_BYTES);
        for at in (0..dataset_bytes.len()).step_by(DATASET_RECORD_BYTES) {
            dataset.push(LevelCounts {
                matches: flat::read_u64(dataset_bytes, at)?,
                satisfactions: flat::read_u64(dataset_bytes, at + 8)?,
                violations: flat::read_u64(dataset_bytes, at + 16)?,
            });
        }

        let pairs = flat::decode_pairs(file.require(MODEL_SEC_PAIRS)?, &syms)?;
        let classifier = if has_classifier {
            let blob = file.require(MODEL_SEC_CLASSIFIER)?;
            let malformed = |e: &dyn std::fmt::Display| {
                PersistError::Malformed(format!("classifier blob: {e}"))
            };
            let text = std::str::from_utf8(blob).map_err(|e| malformed(&e))?;
            let value = Value::parse(text).map_err(|e| malformed(&e))?;
            Some(Pipeline::from_value(&value).map_err(|e| malformed(&e))?)
        } else {
            None
        };

        Ok(SavedModel {
            version,
            lang,
            use_analysis,
            patterns,
            dataset,
            pairs,
            classifier,
            model_kind,
        })
    }

    /// Writes the model to `path` in the binary format, crash-safely
    /// through `vfs` (write-temp + fsync + atomic rename, DESIGN.md §11):
    /// a process killed mid-save leaves either the previous model or the
    /// new one, never a truncation.
    ///
    /// # Errors
    ///
    /// [`NamerError::Io`] when the write or rename fails.
    pub fn save_via(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), NamerError> {
        atomic_write(vfs, path, &self.to_binary()).map_err(|e| NamerError::io(path, e))
    }

    /// Writes the model to `path` crash-safely on the real filesystem.
    ///
    /// # Errors
    ///
    /// [`NamerError::Io`] when the write or rename fails.
    pub fn save(&self, path: &Path) -> Result<(), NamerError> {
        self.save_via(&RealFs, path)
    }

    /// Loads a model file through `vfs`.
    ///
    /// # Errors
    ///
    /// [`NamerError::Io`] when the file cannot be read,
    /// [`NamerError::Model`] when it parses but cannot be used.
    pub fn load_via(vfs: &dyn Vfs, path: &Path) -> Result<SavedModel, NamerError> {
        let bytes = vfs.read(path).map_err(|e| NamerError::io(path, e))?;
        SavedModel::from_bytes(&bytes).map_err(NamerError::from)
    }

    /// Loads a model file from the real filesystem.
    ///
    /// # Errors
    ///
    /// As [`SavedModel::load_via`].
    pub fn load(path: &Path) -> Result<SavedModel, NamerError> {
        SavedModel::load_via(&RealFs, path)
    }
}

/// Current scan-cache format version (independent of the model format).
/// v2 added statement regions and per-state span keys (DESIGN.md §14);
/// v1 caches load as [`CacheLoadStatus::VersionMismatch`] — cold, never
/// wrong.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// One cached entry: the file either parsed (with its scan state) or is
/// known unparsable, so the incremental scan never re-parses it either way.
#[derive(Clone, Debug, PartialEq)]
pub enum CacheEntry {
    /// The file parsed; its per-file scan state.
    Parsed(FileScanState),
    /// The file failed to parse under the fingerprinted configuration.
    ParseFailure,
}

/// How a persisted cache was (or was not) accepted at load time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheLoadStatus {
    /// No cache file (or it was unreadable); starting cold.
    Cold,
    /// Cache accepted with this many entries.
    Warm(usize),
    /// The file did not parse as a cache (including digest-mismatched or
    /// truncated binaries); discarded.
    Corrupt,
    /// The cache was written by a different format version; discarded.
    VersionMismatch,
    /// The cache belongs to a different detector/config; discarded.
    FingerprintMismatch,
}

impl std::fmt::Display for CacheLoadStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLoadStatus::Cold => write!(f, "cold (no cache)"),
            CacheLoadStatus::Warm(n) => write!(f, "warm ({n} entries)"),
            CacheLoadStatus::Corrupt => write!(f, "cold (cache corrupt, discarded)"),
            CacheLoadStatus::VersionMismatch => {
                write!(f, "cold (cache format version mismatch, discarded)")
            }
            CacheLoadStatus::FingerprintMismatch => {
                write!(f, "cold (detector fingerprint changed, discarded)")
            }
        }
    }
}

// Cache section ids (container kind `KIND_CACHE`).
const CACHE_SEC_META: u32 = 1;
const CACHE_SEC_SYMS: u32 = 2;
const CACHE_SEC_ENTRIES: u32 = 3;
const CACHE_SEC_PATTERN_COUNTS: u32 = 4;
const CACHE_SEC_DIGEST_COUNTS: u32 = 5;
const CACHE_SEC_RAW: u32 = 6;
const CACHE_SEC_RENDERED: u32 = 7;
// v2 (DESIGN.md §14): per-state span keys and statement regions.
const CACHE_SEC_SPANS: u32 = 8;
const CACHE_SEC_REGIONS: u32 = 9;
const CACHE_SEC_OUTCOMES: u32 = 10;

const CACHE_META_BYTES: usize = 16;
const ENTRY_RECORD_BYTES: usize = 56;
const PATTERN_COUNT_RECORD_BYTES: usize = 32;
const DIGEST_COUNT_RECORD_BYTES: usize = 16;
const RAW_RECORD_BYTES: usize = 48;
const SPAN_RECORD_BYTES: usize = 16;
const REGION_RECORD_BYTES: usize = 24;
const OUTCOME_RECORD_BYTES: usize = 24;

// RegionOutcome flag bits.
const OUTCOME_SATISFIED: u32 = 1;
const OUTCOME_HAS_NAMES: u32 = 2;

const ENTRY_PARSE_FAILURE: u32 = 0;
const ENTRY_PARSED: u32 = 1;

/// Persisted per-file scan state, keyed by content digest.
///
/// A `BTreeMap` keeps serialization deterministic: the same corpus and
/// detector always produce byte-identical cache files, with entry and
/// region records in ascending digest order.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanCache {
    /// Cache format version.
    version: u32,
    /// Fingerprint of the detector + preprocessing config this cache is
    /// valid for ([`Detector::fingerprint`](crate::detector::Detector::fingerprint)).
    fingerprint: u64,
    /// Scan state per content digest.
    entries: BTreeMap<ContentDigest, CacheEntry>,
    /// Statement regions per span-digest key, shared by all files
    /// (DESIGN.md §14).
    regions: BTreeMap<ContentDigest, StmtRegion>,
}

impl ScanCache {
    /// Creates an empty cache bound to `fingerprint`.
    pub fn empty(fingerprint: u64) -> ScanCache {
        ScanCache {
            version: CACHE_FORMAT_VERSION,
            fingerprint,
            entries: BTreeMap::new(),
            regions: BTreeMap::new(),
        }
    }

    /// The detector fingerprint this cache is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `digest` has a cached entry.
    pub fn contains(&self, digest: ContentDigest) -> bool {
        self.entries.contains_key(&digest)
    }

    /// The cached entry for `digest`, if any.
    pub fn get(&self, digest: ContentDigest) -> Option<&CacheEntry> {
        self.entries.get(&digest)
    }

    /// Inserts (or replaces) the entry for `digest`.
    pub fn insert(&mut self, digest: ContentDigest, entry: CacheEntry) {
        self.entries.insert(digest, entry);
    }

    /// The cached statement regions, keyed by span digest
    /// (DESIGN.md §14).
    pub fn regions(&self) -> &BTreeMap<ContentDigest, StmtRegion> {
        &self.regions
    }

    /// Records a statement region under its span-digest key. First insert
    /// wins: regions are pure functions of their key under this cache's
    /// fingerprint, so a duplicate is byte-identical by construction.
    pub fn insert_region(&mut self, key: ContentDigest, region: StmtRegion) {
        self.regions.entry(key).or_insert(region);
    }

    /// Drops every entry whose digest is not in `live`, so the cache tracks
    /// the current corpus instead of growing without bound. Statement
    /// regions are mark-and-swept through the surviving entries' span
    /// lists: a region referenced by no live file's statements is dropped.
    pub fn retain_digests(&mut self, live: &HashSet<ContentDigest>) {
        self.entries.retain(|k, _| live.contains(k));
        if self.regions.is_empty() {
            return;
        }
        let live_spans: HashSet<ContentDigest> = self
            .entries
            .values()
            .filter_map(|entry| match entry {
                CacheEntry::Parsed(state) => Some(state.spans.iter().copied()),
                CacheEntry::ParseFailure => None,
            })
            .flatten()
            .collect();
        self.regions.retain(|k, _| live_spans.contains(k));
    }

    fn accept(parsed: ScanCache, fingerprint: u64) -> (ScanCache, CacheLoadStatus) {
        if parsed.version != CACHE_FORMAT_VERSION {
            return (ScanCache::empty(fingerprint), CacheLoadStatus::VersionMismatch);
        }
        if parsed.fingerprint != fingerprint {
            return (
                ScanCache::empty(fingerprint),
                CacheLoadStatus::FingerprintMismatch,
            );
        }
        let n = parsed.len();
        (parsed, CacheLoadStatus::Warm(n))
    }

    /// Encodes the cache into the binary container (DESIGN.md §12):
    /// fixed-width entry records in digest order over pooled per-pattern
    /// counts, digest counts, raw hits, and a rendered-text blob.
    ///
    /// Infallible — every field is plain data.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut syms = SymTableBuilder::new();
        let mut entries = Vec::with_capacity(self.entries.len() * ENTRY_RECORD_BYTES);
        let mut pattern_counts: Vec<u8> = Vec::new();
        let mut digest_counts: Vec<u8> = Vec::new();
        let mut raw: Vec<u8> = Vec::new();
        let mut rendered: Vec<u8> = Vec::new();
        let mut spans: Vec<u8> = Vec::new();

        for (digest, entry) in &self.entries {
            let (kind, state) = match entry {
                CacheEntry::ParseFailure => (ENTRY_PARSE_FAILURE, None),
                CacheEntry::Parsed(state) => (ENTRY_PARSED, Some(state)),
            };
            let (pc_off, pc_len) = (
                (pattern_counts.len() / PATTERN_COUNT_RECORD_BYTES) as u32,
                state.map_or(0, |s| s.pattern_counts.len()) as u32,
            );
            let (dc_off, dc_len) = (
                (digest_counts.len() / DIGEST_COUNT_RECORD_BYTES) as u32,
                state.map_or(0, |s| s.digest_counts.len()) as u32,
            );
            let (raw_off, raw_len) = (
                (raw.len() / RAW_RECORD_BYTES) as u32,
                state.map_or(0, |s| s.raw.len()) as u32,
            );
            let span_digests = state.map_or(&[][..], |s| &s.spans[..]);
            let (spans_off, spans_len) = (
                (spans.len() / SPAN_RECORD_BYTES) as u32,
                span_digests.len() as u32,
            );
            for d in span_digests {
                spans.extend_from_slice(&(d.0 as u64).to_le_bytes());
                spans.extend_from_slice(&((d.0 >> 64) as u64).to_le_bytes());
            }
            if let Some(state) = state {
                for &(idx, c) in &state.pattern_counts {
                    pattern_counts.extend_from_slice(&(idx as u64).to_le_bytes());
                    pattern_counts.extend_from_slice(&c.matches.to_le_bytes());
                    pattern_counts.extend_from_slice(&c.satisfactions.to_le_bytes());
                    pattern_counts.extend_from_slice(&c.violations.to_le_bytes());
                }
                for &(d, n) in &state.digest_counts {
                    digest_counts.extend_from_slice(&d.to_le_bytes());
                    digest_counts.extend_from_slice(&n.to_le_bytes());
                }
                for hit in &state.raw {
                    raw.extend_from_slice(&hit.line.to_le_bytes());
                    raw.extend_from_slice(&(rendered.len() as u32).to_le_bytes());
                    raw.extend_from_slice(&(hit.rendered.len() as u32).to_le_bytes());
                    raw.extend_from_slice(&syms.id(hit.original).to_le_bytes());
                    raw.extend_from_slice(&syms.id(hit.suggested).to_le_bytes());
                    raw.extend_from_slice(&0u32.to_le_bytes()); // padding
                    raw.extend_from_slice(&hit.digest.to_le_bytes());
                    raw.extend_from_slice(&(hit.path_count as u64).to_le_bytes());
                    raw.extend_from_slice(&(hit.pattern_idx as u64).to_le_bytes());
                    rendered.extend_from_slice(hit.rendered.as_bytes());
                }
            }
            entries.extend_from_slice(&(digest.0 as u64).to_le_bytes());
            entries.extend_from_slice(&((digest.0 >> 64) as u64).to_le_bytes());
            entries.extend_from_slice(&kind.to_le_bytes());
            entries.extend_from_slice(&0u32.to_le_bytes()); // padding
            for v in [
                pc_off, pc_len, dc_off, dc_len, raw_off, raw_len, spans_off, spans_len,
            ] {
                entries.extend_from_slice(&v.to_le_bytes());
            }
        }

        let mut regions = Vec::with_capacity(self.regions.len() * REGION_RECORD_BYTES);
        let mut outcomes: Vec<u8> = Vec::new();
        for (digest, region) in &self.regions {
            let out_off = (outcomes.len() / OUTCOME_RECORD_BYTES) as u32;
            for o in &region.outcomes {
                let mut flags = 0u32;
                if o.satisfied {
                    flags |= OUTCOME_SATISFIED;
                }
                let (original, suggested) = match o.names {
                    Some((original, suggested)) => {
                        flags |= OUTCOME_HAS_NAMES;
                        (syms.id(original), syms.id(suggested))
                    }
                    None => (0, 0),
                };
                outcomes.extend_from_slice(&(o.pattern_idx as u64).to_le_bytes());
                outcomes.extend_from_slice(&original.to_le_bytes());
                outcomes.extend_from_slice(&suggested.to_le_bytes());
                outcomes.extend_from_slice(&flags.to_le_bytes());
                outcomes.extend_from_slice(&0u32.to_le_bytes()); // padding
            }
            regions.extend_from_slice(&(digest.0 as u64).to_le_bytes());
            regions.extend_from_slice(&((digest.0 >> 64) as u64).to_le_bytes());
            regions.extend_from_slice(&out_off.to_le_bytes());
            regions.extend_from_slice(&(region.outcomes.len() as u32).to_le_bytes());
        }

        let mut meta = Vec::with_capacity(CACHE_META_BYTES);
        meta.extend_from_slice(&self.version.to_le_bytes());
        meta.extend_from_slice(&0u32.to_le_bytes()); // padding
        meta.extend_from_slice(&self.fingerprint.to_le_bytes());

        let mut w = BinWriter::new(binfmt::KIND_CACHE);
        w.section(CACHE_SEC_META, meta);
        w.section(CACHE_SEC_SYMS, syms.encode());
        w.section(CACHE_SEC_ENTRIES, entries);
        w.section(CACHE_SEC_PATTERN_COUNTS, pattern_counts);
        w.section(CACHE_SEC_DIGEST_COUNTS, digest_counts);
        w.section(CACHE_SEC_RAW, raw);
        w.section(CACHE_SEC_RENDERED, rendered);
        w.section(CACHE_SEC_SPANS, spans);
        w.section(CACHE_SEC_REGIONS, regions);
        w.section(CACHE_SEC_OUTCOMES, outcomes);
        w.finish()
    }

    /// Decodes a cache file and validates it against `fingerprint`.
    ///
    /// Never fails: bytes that are not a container (including a JSON cache
    /// written before the container existed), a digest mismatch,
    /// truncation, or any malformed block degrade to
    /// [`CacheLoadStatus::Corrupt`] (cold, never wrong), version and
    /// fingerprint mismatches to their own statuses.
    pub fn from_bytes(bytes: &[u8], fingerprint: u64) -> (ScanCache, CacheLoadStatus) {
        match ScanCache::decode_binary(bytes) {
            Ok(parsed) => ScanCache::accept(parsed, fingerprint),
            Err(BinError::UnsupportedVersion(_)) => {
                (ScanCache::empty(fingerprint), CacheLoadStatus::VersionMismatch)
            }
            Err(_) => (ScanCache::empty(fingerprint), CacheLoadStatus::Corrupt),
        }
    }

    fn decode_binary(bytes: &[u8]) -> Result<ScanCache, BinError> {
        let file = BinFile::parse_kind(bytes, binfmt::KIND_CACHE)?;
        let meta = file.require(CACHE_SEC_META)?;
        if meta.len() != CACHE_META_BYTES {
            return Err(BinError::Malformed(format!(
                "cache meta section is {} bytes, expected {CACHE_META_BYTES}",
                meta.len()
            )));
        }
        let version = flat::read_u32(meta, 0)?;
        // Check the format version before requiring any v2 section: a v1
        // binary is a clean [`CacheLoadStatus::VersionMismatch`] (cold,
        // never wrong), not a corrupt file.
        if version != CACHE_FORMAT_VERSION {
            return Err(BinError::UnsupportedVersion(version));
        }
        let fingerprint = flat::read_u64(meta, 8)?;

        let syms = SymTable::decode(file.require(CACHE_SEC_SYMS)?)?;
        let entry_bytes = file.require(CACHE_SEC_ENTRIES)?;
        let pc_bytes = file.require(CACHE_SEC_PATTERN_COUNTS)?;
        let dc_bytes = file.require(CACHE_SEC_DIGEST_COUNTS)?;
        let raw_bytes = file.require(CACHE_SEC_RAW)?;
        let rendered = file.require(CACHE_SEC_RENDERED)?;
        let spans_bytes = file.require(CACHE_SEC_SPANS)?;
        let region_bytes = file.require(CACHE_SEC_REGIONS)?;
        let outcome_bytes = file.require(CACHE_SEC_OUTCOMES)?;
        for (len, record, what) in [
            (entry_bytes.len(), ENTRY_RECORD_BYTES, "entry"),
            (pc_bytes.len(), PATTERN_COUNT_RECORD_BYTES, "pattern-count"),
            (dc_bytes.len(), DIGEST_COUNT_RECORD_BYTES, "digest-count"),
            (raw_bytes.len(), RAW_RECORD_BYTES, "raw-hit"),
            (spans_bytes.len(), SPAN_RECORD_BYTES, "span"),
            (region_bytes.len(), REGION_RECORD_BYTES, "region"),
            (outcome_bytes.len(), OUTCOME_RECORD_BYTES, "outcome"),
        ] {
            if len % record != 0 {
                return Err(BinError::Malformed(format!(
                    "{what} section length {len} not a record multiple"
                )));
            }
        }
        let pc_total = pc_bytes.len() / PATTERN_COUNT_RECORD_BYTES;
        let dc_total = dc_bytes.len() / DIGEST_COUNT_RECORD_BYTES;
        let raw_total = raw_bytes.len() / RAW_RECORD_BYTES;
        let spans_total = spans_bytes.len() / SPAN_RECORD_BYTES;
        let outcome_total = outcome_bytes.len() / OUTCOME_RECORD_BYTES;
        let range = |off: u32, len: u32, total: usize, what: &str| -> Result<(usize, usize), BinError> {
            let (off, len) = (off as usize, len as usize);
            if off.checked_add(len).is_none_or(|end| end > total) {
                return Err(BinError::Malformed(format!(
                    "{what} range {off}+{len} out of pool ({total})"
                )));
            }
            Ok((off, len))
        };

        let mut entries = BTreeMap::new();
        for at in (0..entry_bytes.len()).step_by(ENTRY_RECORD_BYTES) {
            let lo = flat::read_u64(entry_bytes, at)?;
            let hi = flat::read_u64(entry_bytes, at + 8)?;
            let digest = ContentDigest((u128::from(hi) << 64) | u128::from(lo));
            let kind = flat::read_u32(entry_bytes, at + 16)?;
            let (pc_off, pc_len) = range(
                flat::read_u32(entry_bytes, at + 24)?,
                flat::read_u32(entry_bytes, at + 28)?,
                pc_total,
                "pattern-count",
            )?;
            let (dc_off, dc_len) = range(
                flat::read_u32(entry_bytes, at + 32)?,
                flat::read_u32(entry_bytes, at + 36)?,
                dc_total,
                "digest-count",
            )?;
            let (raw_off, raw_len) = range(
                flat::read_u32(entry_bytes, at + 40)?,
                flat::read_u32(entry_bytes, at + 44)?,
                raw_total,
                "raw-hit",
            )?;
            let (spans_off, spans_len) = range(
                flat::read_u32(entry_bytes, at + 48)?,
                flat::read_u32(entry_bytes, at + 52)?,
                spans_total,
                "span",
            )?;
            let entry = match kind {
                ENTRY_PARSE_FAILURE => CacheEntry::ParseFailure,
                ENTRY_PARSED => {
                    let mut state = FileScanState::default();
                    for i in pc_off..pc_off + pc_len {
                        let at = i * PATTERN_COUNT_RECORD_BYTES;
                        let idx = usize::try_from(flat::read_u64(pc_bytes, at)?)
                            .map_err(|_| BinError::Malformed("pattern index overflows".into()))?;
                        state.pattern_counts.push((
                            idx,
                            LevelCounts {
                                matches: flat::read_u64(pc_bytes, at + 8)?,
                                satisfactions: flat::read_u64(pc_bytes, at + 16)?,
                                violations: flat::read_u64(pc_bytes, at + 24)?,
                            },
                        ));
                    }
                    for i in dc_off..dc_off + dc_len {
                        let at = i * DIGEST_COUNT_RECORD_BYTES;
                        state.digest_counts.push((
                            flat::read_u64(dc_bytes, at)?,
                            flat::read_u64(dc_bytes, at + 8)?,
                        ));
                    }
                    for i in raw_off..raw_off + raw_len {
                        let at = i * RAW_RECORD_BYTES;
                        let r_off = flat::read_u32(raw_bytes, at + 4)? as usize;
                        let r_len = flat::read_u32(raw_bytes, at + 8)? as usize;
                        let text = r_off
                            .checked_add(r_len)
                            .and_then(|end| rendered.get(r_off..end))
                            .ok_or_else(|| {
                                BinError::Malformed(format!(
                                    "rendered range {r_off}+{r_len} out of blob ({})",
                                    rendered.len()
                                ))
                            })?;
                        let text = std::str::from_utf8(text).map_err(|e| {
                            BinError::Malformed(format!("rendered text is not UTF-8: {e}"))
                        })?;
                        state.raw.push(RawHit {
                            line: flat::read_u32(raw_bytes, at)?,
                            rendered: text.to_owned(),
                            digest: flat::read_u64(raw_bytes, at + 24)?,
                            path_count: usize::try_from(flat::read_u64(raw_bytes, at + 32)?)
                                .map_err(|_| BinError::Malformed("path count overflows".into()))?,
                            pattern_idx: usize::try_from(flat::read_u64(raw_bytes, at + 40)?)
                                .map_err(|_| {
                                    BinError::Malformed("pattern index overflows".into())
                                })?,
                            original: syms.sym(flat::read_u32(raw_bytes, at + 12)?)?,
                            suggested: syms.sym(flat::read_u32(raw_bytes, at + 16)?)?,
                        });
                    }
                    for i in spans_off..spans_off + spans_len {
                        let at = i * SPAN_RECORD_BYTES;
                        let lo = flat::read_u64(spans_bytes, at)?;
                        let hi = flat::read_u64(spans_bytes, at + 8)?;
                        state
                            .spans
                            .push(ContentDigest((u128::from(hi) << 64) | u128::from(lo)));
                    }
                    CacheEntry::Parsed(state)
                }
                other => {
                    return Err(BinError::Malformed(format!("unknown entry kind {other}")))
                }
            };
            entries.insert(digest, entry);
        }

        let mut regions = BTreeMap::new();
        for at in (0..region_bytes.len()).step_by(REGION_RECORD_BYTES) {
            let lo = flat::read_u64(region_bytes, at)?;
            let hi = flat::read_u64(region_bytes, at + 8)?;
            let key = ContentDigest((u128::from(hi) << 64) | u128::from(lo));
            let (out_off, out_len) = range(
                flat::read_u32(region_bytes, at + 16)?,
                flat::read_u32(region_bytes, at + 20)?,
                outcome_total,
                "outcome",
            )?;
            let mut outcomes = Vec::with_capacity(out_len);
            for i in out_off..out_off + out_len {
                let at = i * OUTCOME_RECORD_BYTES;
                let pattern_idx = usize::try_from(flat::read_u64(outcome_bytes, at)?)
                    .map_err(|_| BinError::Malformed("pattern index overflows".into()))?;
                let flags = flat::read_u32(outcome_bytes, at + 16)?;
                // Sym id 0 is a valid interned symbol: decode names only
                // when the flag says they were written.
                let names = if flags & OUTCOME_HAS_NAMES != 0 {
                    Some((
                        syms.sym(flat::read_u32(outcome_bytes, at + 8)?)?,
                        syms.sym(flat::read_u32(outcome_bytes, at + 12)?)?,
                    ))
                } else {
                    None
                };
                outcomes.push(RegionOutcome {
                    pattern_idx,
                    satisfied: flags & OUTCOME_SATISFIED != 0,
                    names,
                });
            }
            regions.insert(key, StmtRegion { outcomes });
        }

        Ok(ScanCache {
            version,
            fingerprint,
            entries,
            regions,
        })
    }

    /// Loads a cache file through `vfs`; a missing or
    /// unreadable file is a cold start, not an error.
    pub fn load_via(vfs: &dyn Vfs, path: &Path, fingerprint: u64) -> (ScanCache, CacheLoadStatus) {
        match vfs.read(path) {
            Ok(bytes) => ScanCache::from_bytes(&bytes, fingerprint),
            Err(_) => (ScanCache::empty(fingerprint), CacheLoadStatus::Cold),
        }
    }

    /// Loads a cache file from the real filesystem; a missing or
    /// unreadable file is a cold start, not an error.
    pub fn load(path: &Path, fingerprint: u64) -> (ScanCache, CacheLoadStatus) {
        ScanCache::load_via(&RealFs, path, fingerprint)
    }

    /// Writes the cache to `path` in the binary format, crash-safely
    /// through `vfs` (write-temp + fsync + atomic rename, DESIGN.md §11):
    /// a killed process leaves the previous cache or the new one, never a
    /// truncation that would show up as a corrupt (cold-degraded) load.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be written.
    pub fn save_via(&self, vfs: &dyn Vfs, path: &Path) -> io::Result<()> {
        atomic_write(vfs, path, &self.to_binary())
    }

    /// Writes the cache to `path` crash-safely on the real filesystem.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be written.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_via(&RealFs, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use namer_patterns::MiningConfig;
    use namer_syntax::{Sym, SourceFile};

    /// Container digest of the model [`trained`] produces.
    const PINNED_MODEL_DIGEST: u64 = 7923527841493618867;

    fn trained() -> (Namer, Vec<SourceFile>) {
        let mut files: Vec<SourceFile> = (0..40)
            .map(|i| {
                SourceFile::new(
                    format!("r{}", i % 5),
                    format!("f{i}.py"),
                    "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 3)\n",
                    Lang::Python,
                )
            })
            .collect();
        files.push(SourceFile::new(
            "r0",
            "bad.py",
            "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 3)\n",
            Lang::Python,
        ));
        let commits = vec![(
            "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 1)\n".to_owned(),
            "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 1)\n".to_owned(),
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
            &files,
            &commits,
            |v| v.original.as_str() == "True",
            &config,
        );
        (namer, files)
    }

    #[test]
    fn save_load_round_trip_preserves_reports() {
        let (namer, files) = trained();
        let bytes = SavedModel::from_namer(&namer).to_binary();
        let mut before_session = crate::session::NamerBuilder::new()
            .namer(namer)
            .build()
            .expect("session builds");
        let before: Vec<String> = before_session
            .run(&files)
            .expect("cacheless run cannot fail")
            .reports
            .iter()
            .map(|r| r.to_string())
            .collect();
        let mut after_session = crate::session::NamerBuilder::new()
            .model(SavedModel::from_bytes(&bytes).expect("round trip parses"))
            .build()
            .expect("session builds");
        let after: Vec<String> = after_session
            .run(&files)
            .expect("cacheless run cannot fail")
            .reports
            .iter()
            .map(|r| r.to_string())
            .collect();
        assert_eq!(before, after);
        let loaded = after_session.into_namer();
        assert_eq!(loaded.model_kind, before_session.namer().model_kind);
        assert_eq!(loaded.lang(), Lang::Python);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(matches!(
            SavedModel::from_bytes(b"{not json"),
            Err(PersistError::Malformed(_))
        ));
        // A model in the retired JSON layout is rejected with a typed
        // error that names the expected container format.
        let json_era = br#"{"version":1,"lang":"Python","use_analysis":true,"patterns":[],"dataset":[],"pairs":[],"classifier":null,"model_kind":"SvmLinear"}"#;
        match SavedModel::from_bytes(json_era) {
            Err(PersistError::Malformed(why)) => assert!(why.contains("NAMERBIN"), "{why}"),
            other => panic!("expected Malformed, got ok={}", other.is_ok()),
        }
    }

    #[test]
    fn trained_model_binary_digest_is_pinned() {
        // Training and encoding are deterministic, so the container digest
        // of this fixed system pins the whole model layout: patterns,
        // pairs, dataset counts, and the classifier blob's JSON bytes.
        let (namer, _) = trained();
        let bytes = SavedModel::from_namer(&namer).to_binary();
        assert_eq!(binfmt::header_digest(&bytes), Some(PINNED_MODEL_DIGEST));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let (namer, _) = trained();
        let mut model = SavedModel::from_namer(&namer);
        model.version = 999;
        let bytes = model.to_binary();
        assert!(matches!(
            SavedModel::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion(999))
        ));
    }

    #[test]
    fn classifier_presence_round_trips() {
        let (namer, _) = trained();
        let had = namer.has_classifier();
        let bytes = SavedModel::from_namer(&namer).to_binary();
        let loaded = SavedModel::from_bytes(&bytes)
            .unwrap()
            .into_namer(NamerConfig::default());
        assert_eq!(loaded.has_classifier(), had);
    }

    #[test]
    fn model_binary_round_trips_exactly() {
        let (namer, _) = trained();
        let model = SavedModel::from_namer(&namer);
        let bytes = model.to_binary();
        let back = SavedModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.classifier.is_some(), model.classifier.is_some());
        // Encoding is deterministic byte for byte, and the container holds
        // every field, so byte equality is full equality.
        assert_eq!(bytes, back.to_binary());
    }

    #[test]
    fn corrupt_binary_model_is_an_error_never_a_panic() {
        let (namer, _) = trained();
        let good = SavedModel::from_namer(&namer).to_binary();
        // Truncations at every length.
        for cut in 0..good.len().min(200) {
            assert!(SavedModel::from_bytes(&good[..cut]).is_err());
        }
        assert!(SavedModel::from_bytes(&good[..good.len() - 1]).is_err());
        // A bit flip in the payload is caught by the container digest.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            SavedModel::from_bytes(&flipped),
            Err(PersistError::Malformed(_))
        ));
        // Non-UTF-8 bytes that are not a container are malformed, not io.
        assert!(matches!(
            SavedModel::from_bytes(&[0xFF, 0xFE, 0x00]),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn model_and_cache_kinds_do_not_cross_load() {
        let (namer, _) = trained();
        let model_bytes = SavedModel::from_namer(&namer).to_binary();
        let (c, s) = ScanCache::from_bytes(&model_bytes, 42);
        assert_eq!(s, CacheLoadStatus::Corrupt);
        assert!(c.is_empty());
        let cache_bytes = ScanCache::empty(42).to_binary();
        assert!(matches!(
            SavedModel::from_bytes(&cache_bytes),
            Err(PersistError::Malformed(_))
        ));
    }

    fn sample_cache() -> ScanCache {
        let mut cache = ScanCache::empty(42);
        let d1 = namer_syntax::content_digest("x = 1\n", Lang::Python);
        let d2 = namer_syntax::content_digest("y = 2\n", Lang::Python);
        let span_a = ContentDigest(0x1234_5678_9ABC_DEF0_u128);
        let span_b = ContentDigest(u128::MAX - 7);
        cache.insert(d1, CacheEntry::ParseFailure);
        cache.insert(
            d2,
            CacheEntry::Parsed(FileScanState {
                pattern_counts: vec![
                    (0, LevelCounts { matches: 3, satisfactions: 2, violations: 1 }),
                    (7, LevelCounts { matches: 1, satisfactions: 1, violations: 0 }),
                ],
                digest_counts: vec![(11, 2), (u64::MAX, 1)],
                raw: vec![RawHit {
                    line: 9,
                    rendered: "self.assertTrue(v, 1) — naïve".to_owned(),
                    digest: 0xDEAD_BEEF,
                    path_count: 5,
                    pattern_idx: 7,
                    original: Sym::intern("True"),
                    suggested: Sym::intern("Equal"),
                }],
                spans: vec![span_a, span_b],
            }),
        );
        cache.insert_region(
            span_a,
            StmtRegion {
                outcomes: vec![
                    RegionOutcome { pattern_idx: 0, satisfied: true, names: None },
                    RegionOutcome {
                        pattern_idx: 7,
                        satisfied: false,
                        names: Some((Sym::intern("True"), Sym::intern("Equal"))),
                    },
                ],
            },
        );
        cache.insert_region(span_b, StmtRegion { outcomes: Vec::new() });
        cache
    }

    #[test]
    fn cache_binary_round_trips_exactly() {
        let cache = sample_cache();
        let bytes = cache.to_binary();
        let (back, status) = ScanCache::from_bytes(&bytes, 42);
        assert_eq!(status, CacheLoadStatus::Warm(2));
        assert_eq!(back, cache);
        // Encoding is deterministic byte for byte.
        assert_eq!(back.to_binary(), bytes);
    }

    #[test]
    fn corrupt_binary_cache_degrades_cold_never_fails() {
        let cache = sample_cache();
        let good = cache.to_binary();
        for cut in 0..good.len() {
            let (c, s) = ScanCache::from_bytes(&good[..cut], 42);
            assert!(matches!(s, CacheLoadStatus::Corrupt), "truncation at {cut}: {s:?}");
            assert!(c.is_empty());
            assert_eq!(c.fingerprint(), 42);
        }
        for i in (0..good.len()).step_by(7) {
            let mut bad = good.clone();
            bad[i] ^= 0x08;
            let (c, s) = ScanCache::from_bytes(&bad, 42);
            // Any accepted load must carry the right fingerprint; flips are
            // otherwise rejected as corrupt (or, for the version field the
            // digest can't distinguish from a legitimate old file, as a
            // mismatch) — never a panic, never wrong data.
            assert!(
                matches!(s, CacheLoadStatus::Corrupt | CacheLoadStatus::VersionMismatch),
                "flip at {i}: {s:?}"
            );
            assert!(c.is_empty());
        }
    }

    #[test]
    fn binary_cache_version_and_fingerprint_mismatches() {
        let mut cache = sample_cache();
        let (_, s) = ScanCache::from_bytes(&cache.to_binary(), 43);
        assert_eq!(s, CacheLoadStatus::FingerprintMismatch);
        cache.version = CACHE_FORMAT_VERSION + 1;
        let (c, s) = ScanCache::from_bytes(&cache.to_binary(), 42);
        assert_eq!(s, CacheLoadStatus::VersionMismatch);
        assert!(c.is_empty());
    }

    #[test]
    fn non_container_cache_bytes_load_cold() {
        // Garbage, and caches in the retired JSON layout (v1 and v2), are
        // not containers: discarded as corrupt — cold, never wrong.
        for bytes in [
            &b"{definitely not json"[..],
            br#"{"version":1,"fingerprint":42,"entries":{}}"#,
            br#"{"version":2,"fingerprint":42,"entries":{},"regions":{}}"#,
            &[0xFF, 0xFE, 0x00],
        ] {
            let (c, s) = ScanCache::from_bytes(bytes, 42);
            assert_eq!(s, CacheLoadStatus::Corrupt);
            assert!(c.is_empty());
            assert_eq!(c.fingerprint(), 42);
        }
    }

    #[test]
    fn scan_cache_retains_only_live_digests() {
        let mut cache = ScanCache::empty(7);
        let a = namer_syntax::content_digest("a = 1\n", Lang::Python);
        let b = namer_syntax::content_digest("b = 2\n", Lang::Python);
        cache.insert(a, CacheEntry::ParseFailure);
        cache.insert(b, CacheEntry::ParseFailure);
        let live: HashSet<ContentDigest> = [a].into_iter().collect();
        cache.retain_digests(&live);
        assert!(cache.contains(a));
        assert!(!cache.contains(b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn retain_digests_sweeps_unreferenced_regions() {
        let cache = sample_cache();
        let d2 = namer_syntax::content_digest("y = 2\n", Lang::Python);
        assert_eq!(cache.regions().len(), 2);

        // The parsed entry survives: its spans keep both regions alive.
        let mut keep = cache.clone();
        keep.retain_digests(&[d2].into_iter().collect());
        assert_eq!(keep.len(), 1);
        assert_eq!(keep.regions().len(), 2);

        // Nothing survives: the regions are unreferenced and swept.
        let mut sweep = cache.clone();
        sweep.retain_digests(&HashSet::new());
        assert!(sweep.is_empty());
        assert!(sweep.regions().is_empty());
    }
}
