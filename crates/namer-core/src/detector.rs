//! The unsupervised half of Namer: mine patterns from Big Code and flag
//! pattern violations with their Table 1 features.
//!
//! Scanning is split into a per-file stage ([`FileScanState`], purely
//! content-derived and therefore cacheable) and a corpus-level assembly
//! stage that rebuilds repo aggregates and feature vectors. Every scan —
//! full or incremental, file-granular or statement-region — goes through
//! the one [`Detector::scan`] entry point and funnels into the same
//! assembly, which is what guarantees byte-identical output between all
//! of them (DESIGN.md §8, §14). Within a fresh file, per-statement match
//! outcomes are cached as [`StmtRegion`]s keyed by a span digest of the
//! statement's name paths, so an edit re-matches only the dirty window.

use crate::features::{self, FeatureInputs, LevelCounts, FEATURE_COUNT};
use crate::persist::{CacheEntry, ScanCache};
use crate::process::{process_each_observed, ProcessConfig, ProcessedCorpus, ProcessedFile};
use namer_observe::{Counter, Observer, Phase};
use namer_patterns::{
    mine_patterns_observed, resolve_threads, ConfusingPairs, MatchScratch, MiningConfig,
    NamePattern, PathSet, PatternSet, PatternShards, PatternType, Relation, ShardHit, ShardPlan,
};
use namer_syntax::{parse_file, ContentDigest, Fnv64, Lang, SourceFile, Sym};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// A flagged pattern violation with its feature vector.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Repository of the statement.
    pub repo: String,
    /// File path of the statement.
    pub path: String,
    /// 1-based line of the statement.
    pub line: u32,
    /// The offending subtoken as written.
    pub original: Sym,
    /// The subtoken the violated pattern deduces.
    pub suggested: Sym,
    /// Index of the violated pattern in [`Detector::patterns`].
    pub pattern_idx: usize,
    /// Pattern type of the violated pattern.
    pub pattern_ty: PatternType,
    /// Rendered statement (for display).
    pub rendered: String,
    /// Table 1 features ϕ(s, p).
    pub features: [f64; FEATURE_COUNT],
    /// `true` when patterns of *both* types flagged this statement with the
    /// same suggestion (the §5.2 "detected by both patterns" statistic).
    pub detected_by_both: bool,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] suggest replacing `{}` with `{}` in {}",
            self.repo, self.path, self.line, self.pattern_ty, self.original, self.suggested,
            self.rendered
        )
    }
}

/// One pre-feature violation record from the per-file scan pass.
///
/// Everything here is derived from the file's content alone (the statement's
/// line, digest, and the matched pattern), so it persists in the scan cache.
#[derive(Clone, Debug, PartialEq)]
pub struct RawHit {
    /// 1-based line of the violating statement.
    pub line: u32,
    /// Rendered statement (for display).
    pub rendered: String,
    /// Structural digest of the statement.
    pub digest: u64,
    /// Name-path count of the statement.
    pub path_count: usize,
    /// Index of the violated pattern.
    pub pattern_idx: usize,
    /// The offending subtoken as written.
    pub original: Sym,
    /// The subtoken the pattern deduces.
    pub suggested: Sym,
}

/// Per-file scan state: everything pass 1 learns about one file.
///
/// Deliberately contains no repository or path identity — two files with the
/// same bytes produce the same state — which is what lets the scan cache key
/// on content digest alone. Sorted `Vec`s rather than maps keep the
/// serialized form deterministic and lookups branch-predictable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FileScanState {
    /// Match/satisfaction counts per pattern index, sorted by index.
    pub pattern_counts: Vec<(usize, LevelCounts)>,
    /// Occurrence count per statement digest, sorted by digest.
    pub digest_counts: Vec<(u64, u64)>,
    /// Pre-feature violations in statement order.
    pub raw: Vec<RawHit>,
    /// Span-digest key of each statement in source order, linking
    /// the file to its cached [`StmtRegion`]s so region pruning can
    /// mark-and-sweep. Empty for states produced without region tracking
    /// (full scans, file-granular incremental mode, v1 caches).
    pub spans: Vec<ContentDigest>,
}

/// Cached match outcomes of one statement region, keyed by the span digest
/// of the statement's extracted name paths (DESIGN.md §14).
///
/// Stores only path-derived data — pattern outcomes in the matcher's
/// emission order — never positional stamps like line numbers or rendered
/// text, which are re-taken from the *current* statement at splice time.
/// That is what makes a region safe to share across files, edits, and line
/// shifts: matching is a pure function of the paths under a fixed detector
/// fingerprint.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StmtRegion {
    /// Per-pattern outcomes in emission order.
    pub outcomes: Vec<RegionOutcome>,
}

/// One pattern's outcome on one statement region.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionOutcome {
    /// Index of the matched pattern.
    pub pattern_idx: usize,
    /// Whether the deduction held.
    pub satisfied: bool,
    /// Post-orientation `(original, suggested)` names, present only for
    /// violations.
    pub names: Option<(Sym, Sym)>,
}

/// Content-addressed key of one statement's extracted name paths: two
/// independently seeded 64-bit FNV streams over every path's rendering.
///
/// Pattern matching and orientation are pure functions of these paths
/// under a fixed detector, which is what makes the key sound. A digest of
/// the statement's *source span* would not be: name paths depend on
/// file-scoped analysis, so the same source text can extract different
/// paths after an edit elsewhere in the file (DESIGN.md §14).
///
/// Each path is fed exactly as [`Fnv64::write_str`] would feed its
/// `Display` rendering (length, then bytes), but piece by piece, without
/// building the `String`.
fn span_digest(paths: &PathSet) -> ContentDigest {
    let mut lo = Fnv64::new();
    let mut hi = Fnv64::with_seed(0x9e37_79b9_7f4a_7c15);
    let mut feed = |bytes: &[u8]| {
        lo.write(bytes);
        hi.write(bytes);
    };
    feed(&(paths.paths.len() as u64).to_le_bytes());
    let mut digits = [0u8; 10];
    for p in &paths.paths {
        let end = p.end.map_or("ϵ", Sym::as_str);
        let len = p.prefix.iter().fold(end.len(), |n, &(v, i)| {
            n + v.as_str().len() + decimal(i, &mut digits).len() + 2
        });
        feed(&(len as u64).to_le_bytes());
        for &(v, i) in &p.prefix {
            feed(v.as_str().as_bytes());
            feed(b" ");
            feed(decimal(i, &mut digits));
            feed(b" ");
        }
        feed(end.as_bytes());
    }
    ContentDigest((u128::from(hi.finish()) << 64) | u128::from(lo.finish()))
}

/// The decimal rendering of `n`, written into the tail of `buf`.
fn decimal(mut n: u32, buf: &mut [u8; 10]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
    }
}

/// The persisted parts of a [`Detector`] — mined patterns, confusing
/// pairs, and per-pattern dataset statistics — with [`DetectorSpec::build`]
/// as the single way to rebuild a detector from storage. Paired with
/// [`Detector::fingerprint`], cache-key derivation has exactly one code
/// path.
#[derive(Debug)]
pub struct DetectorSpec {
    /// All mined patterns (consistency first, then confusing-word).
    pub patterns: Vec<NamePattern>,
    /// Mined confusing word pairs.
    pub pairs: ConfusingPairs,
    /// Dataset-level counts per pattern (from `pruneUncommon`), index-
    /// aligned with `patterns`.
    pub dataset: Vec<LevelCounts>,
}

impl DetectorSpec {
    /// Bundles already-mined parts (typically deserialized from a
    /// [`SavedModel`](crate::persist::SavedModel)).
    pub fn new(
        patterns: Vec<NamePattern>,
        pairs: ConfusingPairs,
        dataset: Vec<LevelCounts>,
    ) -> DetectorSpec {
        DetectorSpec {
            patterns,
            pairs,
            dataset,
        }
    }

    /// Builds the runtime detector (re-indexing the pattern set).
    pub fn build(self) -> Detector {
        Detector {
            patterns: PatternSet::new(self.patterns),
            pairs: self.pairs,
            dataset: self.dataset,
        }
    }
}

/// The mined detector: patterns, pairs, and dataset-level statistics.
#[derive(Debug)]
pub struct Detector {
    /// All mined patterns (consistency first, then confusing-word).
    pub patterns: PatternSet,
    /// Mined confusing word pairs.
    pub pairs: ConfusingPairs,
    dataset: Vec<LevelCounts>,
}

impl Detector {
    /// Mines confusing word pairs from `commits` (before/after text pairs)
    /// and name patterns of both types from the preprocessed corpus.
    pub fn mine(
        corpus: &ProcessedCorpus,
        commits: &[(String, String)],
        lang: Lang,
        config: &MiningConfig,
    ) -> Detector {
        Detector::mine_observed(corpus, commits, lang, config, Observer::none())
    }

    /// [`Detector::mine`] with observability: the whole pass reports as
    /// [`Phase::Mine`], commit diffing as [`Phase::MinePairs`], and candidate
    /// generation / pruning land in their own phases via
    /// [`mine_patterns_observed`]. Mined pair and pattern counts feed the
    /// [`Counter::PairsMined`] / [`Counter::PatternsMined`] counters.
    pub fn mine_observed(
        corpus: &ProcessedCorpus,
        commits: &[(String, String)],
        lang: Lang,
        config: &MiningConfig,
        obs: Observer<'_>,
    ) -> Detector {
        let _span = obs.phase(Phase::Mine);
        let mut pairs = ConfusingPairs::new();
        {
            let _pairs_span = obs.phase(Phase::MinePairs);
            for (before, after) in commits {
                let b = parse_file(&SourceFile::new("c", "b", before.clone(), lang));
                let a = parse_file(&SourceFile::new("c", "a", after.clone(), lang));
                if let (Ok(b), Ok(a)) = (b, a) {
                    pairs.mine_commit(&b, &a);
                }
            }
        }
        obs.add(Counter::PairsMined, pairs.iter().count() as u64);
        let stmts: Vec<_> = corpus
            .iter_stmts()
            .map(|(_, s)| s.paths.clone())
            .collect();
        let mut patterns =
            mine_patterns_observed(&stmts, PatternType::Consistency, None, config, obs);
        patterns.extend(mine_patterns_observed(
            &stmts,
            PatternType::ConfusingWord,
            Some(&pairs),
            config,
            obs,
        ));
        obs.add(Counter::PatternsMined, patterns.len() as u64);
        let dataset = patterns
            .iter()
            .map(|p| LevelCounts {
                matches: p.matches,
                satisfactions: p.satisfactions,
                violations: p.matches - p.satisfactions,
            })
            .collect();
        Detector {
            patterns: PatternSet::new(patterns),
            pairs,
            dataset,
        }
    }

    /// Number of mined patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Dataset-level counts of pattern `idx` (from `pruneUncommon`).
    pub fn dataset_counts(&self, idx: usize) -> LevelCounts {
        self.dataset[idx]
    }

    /// Dataset-level counts for every pattern (for persistence).
    pub fn dataset_counts_all(&self) -> &[LevelCounts] {
        &self.dataset
    }

    /// A stable fingerprint of everything that determines scan output —
    /// patterns (structure and mined counts), dataset statistics, confusing
    /// pairs, the preprocessing configuration, and the [`ShardPlan`].
    /// Cached scan state (file entries and statement regions alike) is only
    /// valid under the exact fingerprint it was produced with; this is the
    /// single cache-key code path.
    ///
    /// The shard plan cannot change results (DESIGN.md §9), but folding it
    /// in anyway keys cached state by the full scan configuration; a plan
    /// change costs one cold scan rather than risking a subtle mismatch.
    ///
    /// Built from string renderings with [`Fnv64`] rather than `std::hash`,
    /// because interned symbol ids are process-local and `std` hashes are
    /// not stable across processes.
    pub fn fingerprint(&self, process: &ProcessConfig, plan: &ShardPlan) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.patterns.len() as u64);
        for p in &self.patterns.patterns {
            h.write_u8(match p.ty {
                PatternType::Consistency => 0,
                PatternType::ConfusingWord => 1,
            });
            h.write_u64(p.condition.len() as u64);
            for path in &p.condition {
                h.write_str(&path.to_string());
            }
            h.write_u64(p.deduction.len() as u64);
            for path in &p.deduction {
                h.write_str(&path.to_string());
            }
            h.write_u64(p.support);
            h.write_u64(p.matches);
            h.write_u64(p.satisfactions);
        }
        for c in &self.dataset {
            h.write_u64(c.matches);
            h.write_u64(c.satisfactions);
            h.write_u64(c.violations);
        }
        let mut pairs: Vec<(&str, &str, u64)> = self
            .pairs
            .iter()
            .map(|(&(a, b), &n)| (a.as_str(), b.as_str(), n))
            .collect();
        pairs.sort_unstable();
        h.write_u64(pairs.len() as u64);
        for (a, b, n) in pairs {
            h.write_str(a);
            h.write_str(b);
            h.write_u64(n);
        }
        h.write_u8(u8::from(process.use_analysis));
        h.write_u64(process.max_paths as u64);
        h.write_u64(process.analysis.pointsto.k as u64);
        h.write_u64(process.analysis.pointsto.max_avg_contexts as u64);
        h.write_u64(plan.shards as u64);
        h.write_u64(plan.min_patterns as u64);
        h.finish()
    }

    /// Runs the scan described by `req` — the one scan entry point.
    ///
    /// * [`ScanRequest::full`] scans an already-preprocessed corpus and
    ///   returns every violation with its Table 1 features, plus per-file
    ///   coverage statistics (§5.2's "violated at least one pattern"
    ///   numbers).
    /// * [`ScanRequest::incremental`] scans raw files against a
    ///   [`ScanCache`]: per-file state is reused for every file whose
    ///   content digest is cached, fresh files are processed and scanned —
    ///   by default splicing per-statement match outcomes from cached
    ///   [`StmtRegion`]s so only the dirty window re-matches (DESIGN.md
    ///   §14) — and fresh state is inserted back into the cache. The
    ///   caller pairs the cache with [`Detector::fingerprint`] so stale
    ///   caches degrade to a cold scan.
    ///
    /// The per-file pass reports as [`Phase::Scan`] (with per-shard busy
    /// time), the cache partition as [`Phase::CacheLookup`], and assembly
    /// as [`Phase::Assemble`] with the scan counters (DESIGN.md §10).
    ///
    /// Output is byte-identical at any file-threads × pattern-shards ×
    /// cache-warmth × dirty-window combination: per-file states are
    /// canonical regardless of how they were computed, and assembly —
    /// where every scan counter is derived — always re-derives from the
    /// full state set (DESIGN.md §8–§10, §14).
    pub fn scan(&self, req: ScanRequest<'_>) -> ScanResult {
        let ScanRequest {
            threads,
            plan,
            obs,
            input,
        } = req;
        let opts = ScanOpts { threads, plan, obs };
        match input {
            ScanInput::Full(corpus) => self.scan_full(corpus, &opts),
            ScanInput::Incremental {
                files,
                process,
                cache,
                stmt_regions,
            } => self.scan_incremental(files, process, cache, stmt_regions, &opts),
        }
    }

    /// Full-corpus scan: the per-file pass plus assembly.
    fn scan_full(&self, corpus: &ProcessedCorpus, opts: &ScanOpts<'_>) -> ScanResult {
        let states =
            self.scan_files_sharded_observed(&corpus.files, opts.threads, &opts.plan, opts.obs);
        let metas: Vec<(&str, &str)> = corpus
            .files
            .iter()
            .map(|f| (f.repo.as_str(), f.path.as_str()))
            .collect();
        let state_refs: Vec<&FileScanState> = states.iter().collect();
        self.assemble_scan_observed(&metas, &state_refs, opts.obs)
    }

    /// Incremental scan against a warm [`ScanCache`]: reuses cached
    /// per-file state for every file whose content digest is already in
    /// `cache`, freshly processes and scans the rest, and inserts the fresh
    /// state — including parse failures, so unparsable files are never
    /// re-parsed — back into `cache`. With `stmt_regions` on, the
    /// fresh-file scan additionally splices per-statement match outcomes
    /// from cached [`StmtRegion`]s (DESIGN.md §14). The cache partition
    /// reports as [`Phase::CacheLookup`] with hit/miss counters; assembly
    /// always re-derives the scan counters from the full per-file state set
    /// (cached and fresh alike), so counter totals match a cold scan.
    fn scan_incremental(
        &self,
        files: &[SourceFile],
        process: &ProcessConfig,
        cache: &mut ScanCache,
        stmt_regions: bool,
        opts: &ScanOpts<'_>,
    ) -> ScanResult {
        let threads = opts.threads;
        let obs = opts.obs;
        let lookup_span = obs.phase(Phase::CacheLookup);
        let digests: Vec<ContentDigest> = files.iter().map(|f| f.content_digest()).collect();
        let mut reused = 0usize;
        let mut fresh = 0usize;
        let mut scheduled: HashSet<ContentDigest> = HashSet::new();
        let mut fresh_refs: Vec<&SourceFile> = Vec::new();
        let mut fresh_digests: Vec<ContentDigest> = Vec::new();
        for (file, &digest) in files.iter().zip(&digests) {
            if cache.contains(digest) {
                reused += 1;
            } else {
                fresh += 1;
                if scheduled.insert(digest) {
                    fresh_refs.push(file);
                    fresh_digests.push(digest);
                }
            }
        }
        drop(lookup_span);
        obs.add(Counter::CacheHits, reused as u64);
        obs.add(Counter::CacheMisses, fresh as u64);

        let mut parsed: Vec<ProcessedFile> = Vec::new();
        let mut parsed_digests: Vec<ContentDigest> = Vec::new();
        let mut failed_digests: Vec<ContentDigest> = Vec::new();
        for (result, digest) in process_each_observed(&fresh_refs, process, threads, obs)
            .into_iter()
            .zip(fresh_digests)
        {
            match result {
                Some(f) => {
                    parsed.push(f);
                    parsed_digests.push(digest);
                }
                None => failed_digests.push(digest),
            }
        }
        let states = if stmt_regions {
            let (states, fresh_regions, hits, misses) =
                self.scan_files_regions_observed(&parsed, cache.regions(), threads, obs);
            obs.add(Counter::StmtCacheHits, hits);
            obs.add(Counter::StmtCacheMisses, misses);
            for (key, region) in fresh_regions {
                cache.insert_region(key, region);
            }
            states
        } else {
            self.scan_files_sharded_observed(&parsed, threads, &opts.plan, obs)
        };
        for (digest, state) in parsed_digests.into_iter().zip(states) {
            cache.insert(digest, CacheEntry::Parsed(state));
        }
        for digest in failed_digests {
            cache.insert(digest, CacheEntry::ParseFailure);
        }

        // Assemble in input order from the now fully populated cache, so
        // ordering (and therefore dedup tie-breaking) matches a full scan.
        let mut metas: Vec<(&str, &str)> = Vec::new();
        let mut state_refs: Vec<&FileScanState> = Vec::new();
        let mut parse_failures = 0usize;
        for (file, &digest) in files.iter().zip(&digests) {
            match cache.get(digest) {
                Some(CacheEntry::Parsed(state)) => {
                    metas.push((file.repo.as_str(), file.path.as_str()));
                    state_refs.push(state);
                }
                Some(CacheEntry::ParseFailure) => parse_failures += 1,
                None => unreachable!("every scheduled digest was inserted above"),
            }
        }
        obs.add(Counter::CacheParseFailures, parse_failures as u64);
        let mut scan = self.assemble_scan_observed(&metas, &state_refs, obs);
        scan.cache = Some(CacheStats {
            reused,
            fresh,
            parse_failures,
        });
        scan
    }

    /// Runs the per-file scan pass over `files` with region splicing:
    /// statements whose span digest (a digest of the statement's extracted
    /// name-path set — the exact input the match stage consumes) is in
    /// `regions` replay their cached match outcomes instead of re-matching;
    /// the rest are matched from scratch and their fresh regions returned
    /// for insertion into the cache. Returns
    /// `(states, fresh_regions, stmt_hits, stmt_misses)`.
    ///
    /// Only the file axis is parallelized here: region splicing makes the
    /// match stage cheap enough that pattern-axis sharding has nothing left
    /// to win, and per-file states are plan-invariant (DESIGN.md §9), so
    /// this produces byte-identical states to the sharded path.
    fn scan_files_regions_observed(
        &self,
        files: &[ProcessedFile],
        regions: &BTreeMap<ContentDigest, StmtRegion>,
        threads: usize,
        obs: Observer<'_>,
    ) -> RegionChunkOut {
        let _span = obs.phase(Phase::Scan);
        if files.is_empty() {
            return (Vec::new(), Vec::new(), 0, 0);
        }
        let threads = resolve_threads(threads).min(files.len());
        if threads <= 1 {
            return self.scan_chunk_regions(files, regions, obs);
        }
        let chunk_size = files.len().div_ceil(threads);
        let outs: Vec<RegionChunkOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = files
                .chunks(chunk_size)
                .map(|chunk| scope.spawn(move || self.scan_chunk_regions(chunk, regions, obs)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("region scan worker panicked"))
                .collect()
        });
        let mut states = Vec::with_capacity(files.len());
        let mut fresh = Vec::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for (s, f, h, m) in outs {
            states.extend(s);
            fresh.extend(f);
            hits += h;
            misses += m;
        }
        (states, fresh, hits, misses)
    }

    /// One worker's share of the region scan: scans `files` serially with a
    /// worker-local scratch and a worker-local map of regions freshly
    /// computed within the chunk (so duplicate statements inside the chunk
    /// are matched once).
    fn scan_chunk_regions(
        &self,
        files: &[ProcessedFile],
        regions: &BTreeMap<ContentDigest, StmtRegion>,
        obs: Observer<'_>,
    ) -> RegionChunkOut {
        let start = obs.is_active().then(Instant::now);
        let mut scratch = MatchScratch::for_set(&self.patterns);
        let mut hits: Vec<(usize, Relation)> = Vec::new();
        let mut fresh: HashMap<ContentDigest, StmtRegion> = HashMap::new();
        let mut tallies = (0u64, 0u64);
        let states = files
            .iter()
            .map(|file| {
                self.scan_file_regions(
                    file,
                    regions,
                    &mut fresh,
                    &mut scratch,
                    &mut hits,
                    &mut tallies,
                )
            })
            .collect();
        if let Some(start) = start {
            obs.busy(Phase::Scan, start.elapsed().as_nanos() as u64);
        }
        // Iteration order does not matter: regions are pure functions of
        // their key, so the cache's first-insert-wins keeps the same bytes.
        (states, fresh.into_iter().collect(), tallies.0, tallies.1)
    }

    /// Region-splicing variant of [`Detector::scan_file`]: per statement,
    /// either replays the cached [`StmtRegion`] keyed by the statement's
    /// span digest or re-matches and records a fresh region. Line numbers,
    /// rendered text, and content digests are always re-taken from the
    /// *current* statement — only path-derived match outcomes are cached —
    /// so spliced output is byte-identical to a from-scratch scan.
    /// Regions matched here land in `fresh`, the worker's map of regions
    /// not cached before the scan began.
    fn scan_file_regions(
        &self,
        file: &ProcessedFile,
        regions: &BTreeMap<ContentDigest, StmtRegion>,
        fresh: &mut HashMap<ContentDigest, StmtRegion>,
        scratch: &mut MatchScratch,
        hits: &mut Vec<(usize, Relation)>,
        tallies: &mut (u64, u64),
    ) -> FileScanState {
        let mut counts: HashMap<usize, LevelCounts> = HashMap::new();
        let mut digests: HashMap<u64, u64> = HashMap::new();
        let mut raw: Vec<RawHit> = Vec::new();
        let mut spans: Vec<ContentDigest> = Vec::with_capacity(file.stmts.len());
        for stmt in &file.stmts {
            *digests.entry(stmt.digest).or_default() += 1;
            let key = span_digest(&stmt.paths);
            // Hits count only regions cached before the scan began, so the
            // tallies do not depend on how statements split into chunks.
            let cached = regions.get(&key);
            if cached.is_some() {
                tallies.0 += 1;
            } else {
                tallies.1 += 1;
            }
            if cached.is_none() && !fresh.contains_key(&key) {
                self.patterns.check_into(&stmt.paths, scratch, hits);
                let mut outcomes = Vec::with_capacity(hits.len());
                for (pattern_idx, rel) in hits.drain(..) {
                    let satisfied = rel == Relation::Satisfied;
                    let names = match rel {
                        Relation::Violated(detail) => {
                            Some(self.orient(detail.original, detail.suggested))
                        }
                        _ => None,
                    };
                    outcomes.push(RegionOutcome {
                        pattern_idx,
                        satisfied,
                        names,
                    });
                }
                fresh.insert(key, StmtRegion { outcomes });
            }
            let region = cached
                .or_else(|| fresh.get(&key))
                .expect("region computed or cached above");
            for o in &region.outcomes {
                counts.entry(o.pattern_idx).or_default().record(o.satisfied);
                if let Some((original, suggested)) = o.names {
                    raw.push(RawHit {
                        line: stmt.line,
                        rendered: stmt.rendered.clone(),
                        digest: stmt.digest,
                        path_count: stmt.paths.len(),
                        pattern_idx: o.pattern_idx,
                        original,
                        suggested,
                    });
                }
            }
            spans.push(key);
        }
        let mut pattern_counts: Vec<(usize, LevelCounts)> = counts.into_iter().collect();
        pattern_counts.sort_unstable_by_key(|e| e.0);
        let mut digest_counts: Vec<(u64, u64)> = digests.into_iter().collect();
        digest_counts.sort_unstable_by_key(|e| e.0);
        FileScanState {
            pattern_counts,
            digest_counts,
            raw,
            spans,
        }
    }

    /// The per-file scan pass, sharded across `threads` file-chunk workers
    /// (`0` = all cores) with results re-joined in input order; the pattern
    /// set is additionally split into prefix-disjoint shards (`plan`) so
    /// each file chunk is matched by one worker per pattern shard, with
    /// per-shard partials merged back into canonical order (DESIGN.md §9).
    /// The returned states are byte-identical at any threads × shards
    /// combination. The pass
    /// reports as [`Phase::Scan`] wall time, every worker contributes
    /// [`Phase::Scan`] busy time, and sharded workers additionally report
    /// per-shard busy time (the load-imbalance input of DESIGN.md §10).
    fn scan_files_sharded_observed(
        &self,
        files: &[ProcessedFile],
        threads: usize,
        plan: &ShardPlan,
        obs: Observer<'_>,
    ) -> Vec<FileScanState> {
        let _span = obs.phase(Phase::Scan);
        if files.is_empty() {
            return Vec::new();
        }
        let shards = match plan.effective(self.patterns.len()) {
            0 | 1 => None,
            _ => Some(self.patterns.shard(plan)),
        };
        let shards = match shards {
            Some(sh) if sh.shard_count() > 1 => sh,
            _ => return self.scan_files_unsharded(files, threads, obs),
        };
        let threads = resolve_threads(threads).min(files.len());
        let chunk_size = files.len().div_ceil(threads.max(1)).max(1);
        let k = shards.shard_count();
        std::thread::scope(|scope| {
            let shards = &shards;
            // One worker per (file chunk × pattern shard): with few files
            // and many patterns the shard axis supplies the parallelism,
            // with many files the chunk axis does, and the merge is the
            // same either way.
            let handles: Vec<Vec<_>> = files
                .chunks(chunk_size)
                .map(|chunk| {
                    (0..k)
                        .map(|shard| {
                            scope.spawn(move || {
                                let start = obs.is_active().then(Instant::now);
                                let mut scratch = MatchScratch::for_set(&self.patterns);
                                let mut hits: Vec<ShardHit> = Vec::new();
                                let part = chunk
                                    .iter()
                                    .map(|f| {
                                        self.scan_file_shard(f, shards, shard, &mut scratch, &mut hits)
                                    })
                                    .collect::<Vec<_>>();
                                if let Some(start) = start {
                                    let nanos = start.elapsed().as_nanos() as u64;
                                    obs.busy(Phase::Scan, nanos);
                                    obs.shard_busy(shard, nanos);
                                }
                                part
                            })
                        })
                        .collect()
                })
                .collect();
            let mut out: Vec<FileScanState> = Vec::with_capacity(files.len());
            for chunk_handles in handles {
                let per_shard: Vec<Vec<ShardFilePartial>> = chunk_handles
                    .into_iter()
                    .map(|h| h.join().expect("shard scan worker panicked"))
                    .collect();
                let files_in_chunk = per_shard[0].len();
                let mut columns: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
                for _ in 0..files_in_chunk {
                    let parts: Vec<ShardFilePartial> = columns
                        .iter_mut()
                        .map(|it| it.next().expect("equal files per shard column"))
                        .collect();
                    out.push(merge_file_partials(parts));
                }
            }
            out
        })
    }

    /// The pre-sharding scan loop: file-chunk workers only. Workers report
    /// [`Phase::Scan`] busy time; shard busy slots stay untouched (there is
    /// exactly one pattern shard).
    fn scan_files_unsharded(
        &self,
        files: &[ProcessedFile],
        threads: usize,
        obs: Observer<'_>,
    ) -> Vec<FileScanState> {
        let threads = resolve_threads(threads).min(files.len().max(1));
        if threads <= 1 {
            let start = obs.is_active().then(Instant::now);
            let mut scratch = MatchScratch::for_set(&self.patterns);
            let mut hits: Vec<(usize, Relation)> = Vec::new();
            let out = files
                .iter()
                .map(|f| self.scan_file(f, &mut scratch, &mut hits))
                .collect();
            if let Some(start) = start {
                obs.busy(Phase::Scan, start.elapsed().as_nanos() as u64);
            }
            out
        } else {
            let chunk_size = files.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = files
                    .chunks(chunk_size)
                    .map(|chunk| {
                        scope.spawn(move || {
                            let start = obs.is_active().then(Instant::now);
                            let mut scratch = MatchScratch::for_set(&self.patterns);
                            let mut hits: Vec<(usize, Relation)> = Vec::new();
                            let part = chunk
                                .iter()
                                .map(|f| self.scan_file(f, &mut scratch, &mut hits))
                                .collect::<Vec<_>>();
                            if let Some(start) = start {
                                obs.busy(Phase::Scan, start.elapsed().as_nanos() as u64);
                            }
                            part
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("scan worker panicked"))
                    .collect()
            })
        }
    }

    /// Orients a violation's (original, suggested) pair. Consistency
    /// violations are orientation-agnostic (either name could be the
    /// mistake); when the mined confusing pairs know the direction, use it.
    fn orient(&self, original: Sym, suggested: Sym) -> (Sym, Sym) {
        if self.pairs.contains(suggested, original) && !self.pairs.contains(original, suggested) {
            (suggested, original)
        } else {
            (original, suggested)
        }
    }

    /// Scans one file: relations per statement, accumulated into the file's
    /// own [`FileScanState`].
    fn scan_file(
        &self,
        file: &ProcessedFile,
        scratch: &mut MatchScratch,
        hits: &mut Vec<(usize, Relation)>,
    ) -> FileScanState {
        let mut counts: HashMap<usize, LevelCounts> = HashMap::new();
        let mut digests: HashMap<u64, u64> = HashMap::new();
        let mut raw: Vec<RawHit> = Vec::new();
        for stmt in &file.stmts {
            *digests.entry(stmt.digest).or_default() += 1;
            self.patterns.check_into(&stmt.paths, scratch, hits);
            for (pidx, rel) in hits.drain(..) {
                let satisfied = rel == Relation::Satisfied;
                counts.entry(pidx).or_default().record(satisfied);
                if let Relation::Violated(detail) = rel {
                    let (original, suggested) = self.orient(detail.original, detail.suggested);
                    raw.push(RawHit {
                        line: stmt.line,
                        rendered: stmt.rendered.clone(),
                        digest: stmt.digest,
                        path_count: stmt.paths.len(),
                        pattern_idx: pidx,
                        original,
                        suggested,
                    });
                }
            }
        }
        let mut pattern_counts: Vec<(usize, LevelCounts)> = counts.into_iter().collect();
        pattern_counts.sort_unstable_by_key(|e| e.0);
        let mut digest_counts: Vec<(u64, u64)> = digests.into_iter().collect();
        digest_counts.sort_unstable_by_key(|e| e.0);
        FileScanState {
            pattern_counts,
            digest_counts,
            raw,
            spans: Vec::new(),
        }
    }

    /// Scans one file against one pattern shard, producing a partial state
    /// whose raw hits carry their merge key (statement index + prefix
    /// position). Digest counts are pattern-independent and are computed by
    /// shard 0 only.
    fn scan_file_shard(
        &self,
        file: &ProcessedFile,
        shards: &PatternShards,
        shard: usize,
        scratch: &mut MatchScratch,
        hits: &mut Vec<ShardHit>,
    ) -> ShardFilePartial {
        let mut counts: HashMap<usize, LevelCounts> = HashMap::new();
        let mut digests: HashMap<u64, u64> = HashMap::new();
        let mut raw: Vec<TaggedRawHit> = Vec::new();
        for (stmt_i, stmt) in file.stmts.iter().enumerate() {
            if shard == 0 {
                *digests.entry(stmt.digest).or_default() += 1;
            }
            self.patterns
                .check_shard_into(shards, shard, &stmt.paths, scratch, hits);
            for h in hits.drain(..) {
                let satisfied = h.relation == Relation::Satisfied;
                counts.entry(h.pattern_idx).or_default().record(satisfied);
                if let Relation::Violated(detail) = h.relation {
                    let (original, suggested) = self.orient(detail.original, detail.suggested);
                    raw.push(TaggedRawHit {
                        stmt: stmt_i as u32,
                        pos: h.pos,
                        hit: RawHit {
                            line: stmt.line,
                            rendered: stmt.rendered.clone(),
                            digest: stmt.digest,
                            path_count: stmt.paths.len(),
                            pattern_idx: h.pattern_idx,
                            original,
                            suggested,
                        },
                    });
                }
            }
        }
        let mut pattern_counts: Vec<(usize, LevelCounts)> = counts.into_iter().collect();
        pattern_counts.sort_unstable_by_key(|e| e.0);
        let mut digest_counts: Vec<(u64, u64)> = digests.into_iter().collect();
        digest_counts.sort_unstable_by_key(|e| e.0);
        ShardFilePartial {
            pattern_counts,
            digest_counts,
            raw,
        }
    }

    /// Assembles per-file scan states into a [`ScanResult`]: merges repo
    /// aggregates (commutative addition, so any mix of cached and fresh
    /// states works), computes Table 1 features, and deduplicates report
    /// candidates. `metas[i]` is the `(repo, path)` identity of `states[i]`;
    /// files must be given in corpus order, which fixes dedup tie-breaking.
    ///
    /// Assembly is where
    /// every scan counter is derived, deliberately: the per-file states are
    /// byte-identical at any (threads × shards) combination and across the
    /// cached/fresh split (DESIGN.md §8–§9), so counting here — rather than
    /// inside the workers — is what makes the counter totals deterministic
    /// (DESIGN.md §10).
    ///
    /// # Panics
    ///
    /// Panics if `metas` and `states` have different lengths.
    fn assemble_scan_observed(
        &self,
        metas: &[(&str, &str)],
        states: &[&FileScanState],
        obs: Observer<'_>,
    ) -> ScanResult {
        assert_eq!(metas.len(), states.len(), "one meta per state");
        let _span = obs.phase(Phase::Assemble);
        if obs.is_active() {
            let mut stmts = 0u64;
            let mut matches = 0u64;
            let mut sats = 0u64;
            for state in states {
                stmts += state.digest_counts.iter().map(|&(_, n)| n).sum::<u64>();
                for &(_, c) in &state.pattern_counts {
                    matches += c.matches;
                    sats += c.satisfactions;
                }
            }
            obs.add(Counter::FilesScanned, metas.len() as u64);
            obs.add(Counter::StatementsScanned, stmts);
            obs.add(Counter::PatternMatches, matches);
            obs.add(Counter::PatternSatisfactions, sats);
        }
        let mut repo_counts: HashMap<&str, HashMap<usize, LevelCounts>> = HashMap::new();
        let mut repo_digests: HashMap<&str, HashMap<u64, u64>> = HashMap::new();
        let mut files_with_violation = 0usize;
        let mut repos_with_violation: HashSet<&str> = HashSet::new();
        for (&(repo, _), state) in metas.iter().zip(states) {
            let slot = repo_counts.entry(repo).or_default();
            for &(pidx, c) in &state.pattern_counts {
                slot.entry(pidx).or_default().add(c);
            }
            let dig = repo_digests.entry(repo).or_default();
            for &(digest, n) in &state.digest_counts {
                *dig.entry(digest).or_default() += n;
            }
            if !state.raw.is_empty() {
                files_with_violation += 1;
                repos_with_violation.insert(repo);
            }
        }

        let mut violations: Vec<Violation> = Vec::new();
        for (&(repo, path), state) in metas.iter().zip(states) {
            for r in &state.raw {
                let pattern = &self.patterns.patterns[r.pattern_idx];
                let inputs = FeatureInputs {
                    pattern,
                    stmt_path_count: r.path_count,
                    identical_in_file: lookup_u64(&state.digest_counts, r.digest).unwrap_or(1),
                    identical_in_repo: repo_digests
                        .get(repo)
                        .and_then(|m| m.get(&r.digest))
                        .copied()
                        .unwrap_or(1),
                    file: lookup_counts(&state.pattern_counts, r.pattern_idx)
                        .unwrap_or_default(),
                    repo: repo_counts
                        .get(repo)
                        .and_then(|m| m.get(&r.pattern_idx))
                        .copied()
                        .unwrap_or_default(),
                    dataset: self.dataset[r.pattern_idx],
                    original: r.original,
                    suggested: r.suggested,
                };
                violations.push(Violation {
                    repo: repo.to_owned(),
                    path: path.to_owned(),
                    line: r.line,
                    original: r.original,
                    suggested: r.suggested,
                    pattern_idx: r.pattern_idx,
                    pattern_ty: pattern.ty,
                    rendered: r.rendered.clone(),
                    features: features::extract(&inputs, &self.pairs),
                    detected_by_both: false,
                });
            }
        }

        let raw_count = violations.len();
        let violations = dedup_violations(violations, self);
        obs.add(Counter::ViolationsRaw, raw_count as u64);
        obs.add(Counter::ViolationsDeduped, violations.len() as u64);

        ScanResult {
            violations,
            raw_violation_count: raw_count,
            files_scanned: metas.len(),
            files_with_violation,
            repos_with_violation: repos_with_violation.len(),
            cache: None,
        }
    }
}

/// A [`RawHit`] tagged with its merge key: the statement index within the
/// file and the matched-prefix position within the statement.
struct TaggedRawHit {
    stmt: u32,
    pos: u32,
    hit: RawHit,
}

/// One pattern shard's view of one file, produced by `scan_file_shard`.
struct ShardFilePartial {
    /// Counts for this shard's patterns only (shards partition the set, so
    /// the per-shard vectors are index-disjoint).
    pattern_counts: Vec<(usize, LevelCounts)>,
    /// Statement-digest counts; populated by shard 0 only (they do not
    /// depend on patterns).
    digest_counts: Vec<(u64, u64)>,
    /// Violations found by this shard, tagged for merging.
    raw: Vec<TaggedRawHit>,
}

/// Merges the per-shard partial states of one file into the exact
/// [`FileScanState`] an unsharded scan produces.
///
/// The unsharded scan emits each statement's hits by walking the
/// statement's path prefixes in order and, per prefix, its candidate
/// patterns in ascending index order. A pattern hits at most once per
/// statement and belongs to exactly one shard, so sorting the union of all
/// shards' tagged hits by `(statement, prefix position, pattern index)` —
/// a key that is unique per hit — reproduces the serial order exactly.
/// Pattern counts are index-disjoint across shards and digest counts come
/// from shard 0 alone, so both merge by concatenation.
fn merge_file_partials(parts: Vec<ShardFilePartial>) -> FileScanState {
    let mut pattern_counts: Vec<(usize, LevelCounts)> = Vec::new();
    let mut digest_counts: Vec<(u64, u64)> = Vec::new();
    let mut tagged: Vec<TaggedRawHit> = Vec::new();
    for (shard, part) in parts.into_iter().enumerate() {
        pattern_counts.extend(part.pattern_counts);
        if shard == 0 {
            digest_counts = part.digest_counts;
        }
        tagged.extend(part.raw);
    }
    pattern_counts.sort_unstable_by_key(|e| e.0);
    tagged.sort_unstable_by(|a, b| {
        (a.stmt, a.pos, a.hit.pattern_idx).cmp(&(b.stmt, b.pos, b.hit.pattern_idx))
    });
    FileScanState {
        pattern_counts,
        digest_counts,
        raw: tagged.into_iter().map(|t| t.hit).collect(),
        spans: Vec::new(),
    }
}

/// Binary-search lookup in a sorted `(key, count)` vector.
fn lookup_u64(v: &[(u64, u64)], key: u64) -> Option<u64> {
    v.binary_search_by_key(&key, |e| e.0).ok().map(|i| v[i].1)
}

/// Binary-search lookup in a sorted `(pattern_idx, counts)` vector.
fn lookup_counts(v: &[(usize, LevelCounts)], key: usize) -> Option<LevelCounts> {
    v.binary_search_by_key(&key, |e| e.0).ok().map(|i| v[i].1)
}

/// Collapses violations to one *report candidate* per
/// `(location, original, suggested)`, keeping the violation whose pattern
/// has the most dataset evidence. Statements flagged by both pattern types
/// are marked (`detected_by_both`).
fn dedup_violations(violations: Vec<Violation>, det: &Detector) -> Vec<Violation> {
    /// `(repo, path, line, original, suggested)`.
    type Site = (String, String, u32, Sym, Sym);
    let mut best: HashMap<Site, Violation> = HashMap::new();
    let mut types: HashMap<Site, (bool, bool)> = HashMap::new();
    for v in violations {
        let key = (
            v.repo.clone(),
            v.path.clone(),
            v.line,
            v.original,
            v.suggested,
        );
        let t = types.entry(key.clone()).or_default();
        match v.pattern_ty {
            crate::detector::PatternTypeAlias::Consistency => t.0 = true,
            crate::detector::PatternTypeAlias::ConfusingWord => t.1 = true,
        }
        let evidence = |x: &Violation| det.dataset[x.pattern_idx].matches;
        match best.get(&key) {
            Some(cur) if evidence(cur) >= evidence(&v) => {}
            _ => {
                best.insert(key, v);
            }
        }
    }
    let mut out: Vec<Violation> = best
        .into_iter()
        .map(|(key, mut v)| {
            let (c, w) = types[&key];
            v.detected_by_both = c && w;
            v
        })
        .collect();
    out.sort_by(|a, b| {
        (&a.repo, &a.path, a.line, a.original, a.suggested)
            .cmp(&(&b.repo, &b.path, b.line, b.original, b.suggested))
    });
    out
}

/// Local alias so the dedup match reads naturally.
use namer_patterns::PatternType as PatternTypeAlias;

/// Output of [`Detector::scan`].
#[derive(Clone, Debug)]
pub struct ScanResult {
    /// Report candidates: one violation per (location, suggestion), most
    /// evidenced pattern first.
    pub violations: Vec<Violation>,
    /// Violation count before per-location deduplication.
    pub raw_violation_count: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Files with at least one violation (§5.2 coverage).
    pub files_with_violation: usize,
    /// Repositories with at least one violation.
    pub repos_with_violation: usize,
    /// Cache accounting for incremental scans; `None` for full scans.
    pub cache: Option<CacheStats>,
}

/// Per-file cache accounting from an incremental [`Detector::scan`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Input files served from pre-existing cache entries.
    pub reused: usize,
    /// Input files that required a fresh parse + scan.
    pub fresh: usize,
    /// Input files recorded (now or previously) as unparsable.
    pub parse_failures: usize,
}

/// What to scan: an already-processed corpus, or raw files against a
/// [`ScanCache`]. See [`ScanRequest`].
pub enum ScanInput<'a> {
    /// Full scan of a preprocessed corpus.
    Full(&'a ProcessedCorpus),
    /// Incremental scan of raw files against a warm cache.
    Incremental {
        /// The files to scan, in corpus order.
        files: &'a [SourceFile],
        /// Processing configuration for fresh files (must match the
        /// fingerprint the cache was loaded with).
        process: &'a ProcessConfig,
        /// The cache to reuse and update in place.
        cache: &'a mut ScanCache,
        /// Splice per-statement match outcomes from cached
        /// [`StmtRegion`]s (DESIGN.md §14). Off = file-granular
        /// incremental scanning, the pre-region behaviour.
        stmt_regions: bool,
    },
}

/// Options-struct argument of [`Detector::scan`] — the one scan entry
/// point. Build with [`ScanRequest::full`] or [`ScanRequest::incremental`],
/// then chain [`ScanRequest::threads`] / [`ScanRequest::plan`] /
/// [`ScanRequest::observer`] / [`ScanRequest::file_granular`] as needed.
///
/// Defaults: one thread, unsharded plan, no observer, statement-region
/// splicing on for incremental scans.
pub struct ScanRequest<'a> {
    threads: usize,
    plan: ShardPlan,
    obs: Observer<'a>,
    input: ScanInput<'a>,
}

impl<'a> ScanRequest<'a> {
    /// A full scan of an already-processed corpus.
    pub fn full(corpus: &'a ProcessedCorpus) -> Self {
        Self::new(ScanInput::Full(corpus))
    }

    /// An incremental scan of `files` against `cache` (statement-region
    /// splicing on by default; see [`ScanRequest::file_granular`]). The
    /// caller pairs `cache` with [`Detector::fingerprint`] over the same
    /// `process` config and shard plan so stale caches degrade to a cold
    /// scan, never a wrong one.
    pub fn incremental(
        files: &'a [SourceFile],
        process: &'a ProcessConfig,
        cache: &'a mut ScanCache,
    ) -> Self {
        Self::new(ScanInput::Incremental {
            files,
            process,
            cache,
            stmt_regions: true,
        })
    }

    /// A request with explicit input and default options.
    pub fn new(input: ScanInput<'a>) -> Self {
        ScanRequest {
            threads: 1,
            plan: ShardPlan::unsharded(),
            obs: Observer::none(),
            input,
        }
    }

    /// Fan the scan out over `threads` workers (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Split the pattern set into prefix-disjoint shards per DESIGN.md §9.
    pub fn plan(mut self, plan: ShardPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Report phases and counters to `obs` (DESIGN.md §10).
    pub fn observer(mut self, obs: Observer<'a>) -> Self {
        self.obs = obs;
        self
    }

    /// Disable statement-region splicing: incremental scans re-match whole
    /// fresh files, the pre-§14 behaviour. No effect on full scans.
    pub fn file_granular(mut self) -> Self {
        if let ScanInput::Incremental {
            ref mut stmt_regions,
            ..
        } = self.input
        {
            *stmt_regions = false;
        }
        self
    }
}

/// The option fields of a [`ScanRequest`], split off so the borrow of the
/// incremental input's `&mut ScanCache` can travel separately.
struct ScanOpts<'a> {
    threads: usize,
    plan: ShardPlan,
    obs: Observer<'a>,
}

/// One region-scan worker's output:
/// `(states, fresh_regions, stmt_hits, stmt_misses)`.
type RegionChunkOut = (
    Vec<FileScanState>,
    Vec<(ContentDigest, StmtRegion)>,
    u64,
    u64,
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{process, ProcessConfig};
    use namer_syntax::namepath::NamePath;

    fn tiny_corpus() -> (Vec<SourceFile>, Vec<(String, String)>) {
        let mut files = Vec::new();
        for i in 0..30 {
            files.push(SourceFile::new(
                format!("repo{}", i % 5),
                format!("f{i}.py"),
                "class T(TestCase):\n    def test_a(self):\n        self.assertEqual(value.count, 4)\n",
                Lang::Python,
            ));
        }
        files.push(SourceFile::new(
            "repo0",
            "bad.py",
            "class T(TestCase):\n    def test_b(self):\n        self.assertTrue(value.count, 4)\n",
            Lang::Python,
        ));
        let commits = vec![(
            "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 1)\n".to_owned(),
            "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 1)\n".to_owned(),
        )];
        (files, commits)
    }

    /// The digest `span_digest` must equal: `Fnv64::write_str` of every
    /// path's `Display` rendering, behind the path count.
    fn span_digest_of_rendered(paths: &PathSet) -> ContentDigest {
        let mut lo = Fnv64::new();
        let mut hi = Fnv64::with_seed(0x9e37_79b9_7f4a_7c15);
        lo.write_u64(paths.paths.len() as u64);
        hi.write_u64(paths.paths.len() as u64);
        for p in &paths.paths {
            let s = p.to_string();
            lo.write_str(&s);
            hi.write_str(&s);
        }
        ContentDigest((u128::from(hi.finish()) << 64) | u128::from(lo.finish()))
    }

    #[test]
    fn span_digest_hashes_the_rendered_paths() {
        let sym = Sym::intern;
        let synthetic = PathSet::new(vec![
            NamePath::concrete(vec![(sym("Call"), 0), (sym("NumST(2)"), 1)], sym("naïve")),
            NamePath::concrete(vec![(sym("Attr"), 9), (sym("X"), 10)], sym("")),
            NamePath::concrete(Vec::new(), sym("end")),
            NamePath {
                prefix: vec![(sym("Call"), u32::MAX)],
                end: None,
            },
        ]);
        let mut sets = vec![synthetic, PathSet::new(Vec::new())];
        let (files, _) = tiny_corpus();
        let corpus = process(&files, &ProcessConfig::default());
        for file in &corpus.files {
            sets.extend(file.stmts.iter().map(|s| s.paths.clone()));
        }
        assert!(sets.len() > 2, "the corpus yields statements");
        for paths in &sets {
            assert_eq!(
                span_digest(paths),
                span_digest_of_rendered(paths),
                "{:?}",
                paths.paths
            );
        }
    }

    fn small_mining() -> MiningConfig {
        MiningConfig {
            min_path_count: 2,
            min_support: 5,
            ..MiningConfig::default()
        }
    }

    fn scan_key(scan: &ScanResult) -> Vec<(String, [u64; FEATURE_COUNT], bool)> {
        scan.violations
            .iter()
            .map(|v| {
                (
                    v.to_string(),
                    v.features.map(f64::to_bits),
                    v.detected_by_both,
                )
            })
            .collect()
    }

    #[test]
    fn detects_injected_wrong_api() {
        let (files, commits) = tiny_corpus();
        let corpus = process(&files, &ProcessConfig::default());
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        assert!(det.pattern_count() > 0);
        let scan = det.scan(ScanRequest::full(&corpus));
        let hit = scan
            .violations
            .iter()
            .find(|v| v.path == "bad.py")
            .expect("the buggy file is flagged");
        assert_eq!(hit.original.as_str(), "True");
        assert_eq!(hit.suggested.as_str(), "Equal");
        assert_eq!(hit.line, 3);
    }

    #[test]
    fn features_reflect_local_context() {
        let (files, commits) = tiny_corpus();
        let corpus = process(&files, &ProcessConfig::default());
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let scan = det.scan(ScanRequest::full(&corpus));
        let v = scan.violations.iter().find(|v| v.path == "bad.py").unwrap();
        // One-off statement: exactly one identical copy in its file.
        assert_eq!(v.features[1], 1.0);
        // The mined pattern is a confusing-word, function-name pattern.
        assert_eq!(v.features[12], 1.0);
        // Dataset satisfaction rate is high (30 good vs 1 bad).
        assert!(v.features[5] > 0.8, "{}", v.features[5]);
        // Mined pair feature fires.
        assert_eq!(v.features[16], 1.0);
    }

    #[test]
    fn scan_reports_coverage() {
        let (files, commits) = tiny_corpus();
        let corpus = process(&files, &ProcessConfig::default());
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let scan = det.scan(ScanRequest::full(&corpus));
        assert_eq!(scan.files_scanned, 31);
        assert!(scan.files_with_violation >= 1);
        assert!(scan.repos_with_violation >= 1);
    }

    #[test]
    fn satisfied_corpus_yields_no_violations() {
        let files: Vec<SourceFile> = (0..20)
            .map(|i| {
                SourceFile::new(
                    "r",
                    format!("f{i}.py"),
                    "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 1)\n",
                    Lang::Python,
                )
            })
            .collect();
        let commits = vec![(
            "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 1)\n".to_owned(),
            "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 1)\n".to_owned(),
        )];
        let corpus = process(&files, &ProcessConfig::default());
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let scan = det.scan(ScanRequest::full(&corpus));
        assert!(scan.violations.is_empty());
    }

    #[test]
    fn incremental_cold_scan_matches_full_scan() {
        let (files, commits) = tiny_corpus();
        let config = ProcessConfig::default();
        let corpus = process(&files, &config);
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let full = det.scan(ScanRequest::full(&corpus));
        let mut cache = ScanCache::empty(det.fingerprint(&config, &ShardPlan::unsharded()));
        let inc = det.scan(ScanRequest::incremental(&files, &config, &mut cache));
        let stats = inc.cache.expect("incremental scans report cache stats");
        assert_eq!(stats.reused, 0);
        assert_eq!(stats.fresh, files.len());
        assert_eq!(scan_key(&full), scan_key(&inc));
        assert_eq!(full.raw_violation_count, inc.raw_violation_count);
        assert_eq!(full.files_scanned, inc.files_scanned);
        assert_eq!(full.files_with_violation, inc.files_with_violation);
        assert_eq!(full.repos_with_violation, inc.repos_with_violation);
    }

    #[test]
    fn incremental_warm_scan_reuses_everything() {
        let (files, commits) = tiny_corpus();
        let config = ProcessConfig::default();
        let corpus = process(&files, &config);
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let full = det.scan(ScanRequest::full(&corpus));
        let mut cache = ScanCache::empty(det.fingerprint(&config, &ShardPlan::unsharded()));
        det.scan(ScanRequest::incremental(&files, &config, &mut cache));
        let warm = det.scan(ScanRequest::incremental(&files, &config, &mut cache));
        let stats = warm.cache.unwrap();
        assert_eq!(stats.fresh, 0);
        assert_eq!(stats.reused, files.len());
        assert_eq!(scan_key(&full), scan_key(&warm));
    }

    #[test]
    fn incremental_records_parse_failures_once() {
        let (mut files, commits) = tiny_corpus();
        let config = ProcessConfig::default();
        let corpus = process(&files, &config);
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        files.push(SourceFile::new("repo0", "broken.py", "def broken(:\n", Lang::Python));
        let mut cache = ScanCache::empty(det.fingerprint(&config, &ShardPlan::unsharded()));
        let cold = det.scan(ScanRequest::incremental(&files, &config, &mut cache));
        assert_eq!(cold.cache.unwrap().parse_failures, 1);
        let warm = det.scan(ScanRequest::incremental(&files, &config, &mut cache));
        assert_eq!(warm.cache.unwrap().parse_failures, 1);
        assert_eq!(warm.cache.unwrap().fresh, 0);
        assert_eq!(cold.files_scanned, warm.files_scanned);
    }

    #[test]
    fn sharded_scan_is_byte_identical_to_unsharded() {
        let (files, commits) = tiny_corpus();
        let corpus = process(&files, &ProcessConfig::default());
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let reference = det.scan(ScanRequest::full(&corpus));
        for threads in [1usize, 2, 8] {
            for shards in [1usize, 2, 4] {
                let plan = ShardPlan {
                    shards,
                    min_patterns: 0,
                };
                let scan = det.scan(ScanRequest::full(&corpus).threads(threads).plan(plan));
                assert_eq!(
                    scan_key(&reference),
                    scan_key(&scan),
                    "sharded scan diverges at {threads} threads x {shards} shards"
                );
                assert_eq!(reference.raw_violation_count, scan.raw_violation_count);
                assert_eq!(reference.files_with_violation, scan.files_with_violation);
            }
        }
    }

    #[test]
    fn sharded_incremental_scan_matches_full_scan() {
        let (files, commits) = tiny_corpus();
        let config = ProcessConfig::default();
        let corpus = process(&files, &config);
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let full = det.scan(ScanRequest::full(&corpus));
        let plan = ShardPlan {
            shards: 4,
            min_patterns: 0,
        };
        let mut cache = ScanCache::empty(det.fingerprint(&config, &plan));
        let cold = det.scan(
            ScanRequest::incremental(&files, &config, &mut cache)
                .threads(2)
                .plan(plan),
        );
        assert_eq!(scan_key(&full), scan_key(&cold));
        let warm = det.scan(
            ScanRequest::incremental(&files, &config, &mut cache)
                .threads(2)
                .plan(plan),
        );
        assert_eq!(warm.cache.unwrap().fresh, 0);
        assert_eq!(scan_key(&full), scan_key(&warm));
    }

    #[test]
    fn fingerprint_tracks_shard_plan() {
        let (files, commits) = tiny_corpus();
        let config = ProcessConfig::default();
        let corpus = process(&files, &config);
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let base = det.fingerprint(&config, &ShardPlan::unsharded());
        assert_ne!(
            base,
            det.fingerprint(&config, &ShardPlan::with_shards(4)),
            "shard plan is part of the cache key"
        );
    }

    #[test]
    fn fingerprint_tracks_pattern_set_and_config() {
        let (files, commits) = tiny_corpus();
        let config = ProcessConfig::default();
        let corpus = process(&files, &config);
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let plan = ShardPlan::unsharded();
        let base = det.fingerprint(&config, &plan);
        assert_eq!(base, det.fingerprint(&config, &plan), "fingerprint is stable");
        let truncated = DetectorSpec::new(
            det.patterns.patterns[..det.pattern_count() - 1].to_vec(),
            det.pairs.clone(),
            det.dataset[..det.pattern_count() - 1].to_vec(),
        )
        .build();
        assert_ne!(base, truncated.fingerprint(&config, &plan));
        let no_analysis = ProcessConfig {
            use_analysis: false,
            ..ProcessConfig::default()
        };
        assert_ne!(base, det.fingerprint(&no_analysis, &plan));
    }

    #[test]
    fn region_splice_matches_file_granular_and_full() {
        let (mut files, commits) = tiny_corpus();
        let config = ProcessConfig::default();
        let corpus = process(&files, &config);
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let fp = det.fingerprint(&config, &ShardPlan::unsharded());
        let mut warm_region = ScanCache::empty(fp);
        let mut warm_file = ScanCache::empty(fp);
        det.scan(ScanRequest::incremental(&files, &config, &mut warm_region));
        det.scan(ScanRequest::incremental(&files, &config, &mut warm_file).file_granular());
        assert!(
            !warm_region.regions().is_empty(),
            "region scan populates statement regions"
        );
        assert!(
            warm_file.regions().is_empty(),
            "file-granular scan does not populate regions"
        );
        // Edit one file: append a second buggy statement. The edited file
        // re-scans; everything it shares with the cached regions splices.
        files[5] = SourceFile::new(
            "repo0",
            "f5.py",
            "class T(TestCase):\n    def test_a(self):\n        self.assertEqual(value.count, 4)\n        self.assertTrue(value.count, 5)\n",
            Lang::Python,
        );
        let full = det.scan(ScanRequest::full(&process(&files, &config)));
        let spliced = det.scan(ScanRequest::incremental(&files, &config, &mut warm_region));
        let granular = det.scan(ScanRequest::incremental(&files, &config, &mut warm_file).file_granular());
        assert_eq!(scan_key(&full), scan_key(&spliced));
        assert_eq!(scan_key(&full), scan_key(&granular));
        assert_eq!(spliced.cache.unwrap().fresh, 1);
    }

    #[test]
    fn region_splice_counts_hits_and_misses() {
        let (mut files, commits) = tiny_corpus();
        let config = ProcessConfig::default();
        let corpus = process(&files, &config);
        let det = Detector::mine(&corpus, &commits, Lang::Python, &small_mining());
        let mut cache = ScanCache::empty(det.fingerprint(&config, &ShardPlan::unsharded()));
        let metrics = namer_observe::PipelineMetrics::new();
        det.scan(
            ScanRequest::incremental(&files, &config, &mut cache)
                .observer(Observer::new(&metrics)),
        );
        let cold = metrics.snapshot();
        assert_eq!(cold.counter(Counter::StmtCacheHits), 0);
        assert!(cold.counter(Counter::StmtCacheMisses) > 0);
        files[3] = SourceFile::new(
            "repo3",
            "f3.py",
            "class T(TestCase):\n    def test_a(self):\n        self.assertEqual(value.count, 9)\n",
            Lang::Python,
        );
        let metrics = namer_observe::PipelineMetrics::new();
        det.scan(
            ScanRequest::incremental(&files, &config, &mut cache)
                .observer(Observer::new(&metrics)),
        );
        let warm = metrics.snapshot();
        assert!(
            warm.counter(Counter::StmtCacheHits) > 0,
            "unchanged statements in the edited file splice from regions"
        );
    }
}
