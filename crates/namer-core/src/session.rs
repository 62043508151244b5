//! The builder/session detection API (DESIGN.md §9).
//!
//! One construction path replaces the old `Namer::detect` /
//! `detect_processed` / `detect_incremental` / `from_parts` quartet:
//! a [`NamerBuilder`] assembles a system from any source (a trained
//! [`Namer`], a [`SavedModel`], or raw mined parts), layers on runtime
//! overrides (worker threads, an on-disk scan cache), and produces a
//! [`DetectSession`] whose single [`DetectSession::run`] entry point covers
//! full and cached scans uniformly — byte-identical results in every mode.
//!
//! ```no_run
//! use namer_core::session::NamerBuilder;
//! # fn demo(model: namer_core::SavedModel, files: Vec<namer_syntax::SourceFile>)
//! #     -> Result<(), namer_core::NamerError> {
//! let mut session = NamerBuilder::new()
//!     .model(model)
//!     .threads(8)
//!     .cache_dir(".namer-cache")
//!     .build()?;
//! let outcome = session.run(&files)?;
//! for report in &outcome.reports {
//!     println!("{report}");
//! }
//! # Ok(())
//! # }
//! ```

use crate::detector::{DetectorSpec, ScanRequest, ScanResult};
use crate::error::NamerError;
use crate::features::LevelCounts;
use crate::ingest::Diagnostics;
use crate::namer::{Namer, NamerConfig, Report};
use crate::persist::{CacheLoadStatus, SavedModel, ScanCache};
use crate::registry::ModelRegistry;
use crate::process::{process_parallel_observed, ProcessedCorpus};
use crate::vfs::{with_retry, RealFs, RetryPolicy, Vfs};
use namer_ml::{ModelKind, Pipeline};
use namer_observe::{
    Counter, MetricsSink, MetricsSnapshot, Observer, Phase, PipelineMetrics, Tee,
};
use namer_patterns::{resolve_threads, ConfusingPairs, NamePattern};
use namer_syntax::{ContentDigest, Lang, SourceFile};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// File name of the on-disk scan cache inside a session's cache directory.
/// The name is historical: saves write the binary container of
/// [`crate::binfmt`]; a JSON cache left here by an older build loads cold
/// and the next save overwrites it (DESIGN.md §12).
pub const CACHE_FILE_NAME: &str = "scan-cache.json";

/// Where a session's detector comes from.
enum Source {
    /// A system trained in-process ([`Namer::train`]).
    Trained(Box<Namer>),
    /// A persisted model snapshot.
    Saved(Box<SavedModel>),
    /// A snapshot shared with other sessions (e.g. via a [`ModelRegistry`]);
    /// cloned at build time so the resident copy stays untouched.
    Shared(Arc<SavedModel>),
    /// Raw mined parts (patterns + pairs + dataset counts).
    Parts {
        patterns: Vec<NamePattern>,
        pairs: ConfusingPairs,
        dataset: Vec<LevelCounts>,
    },
}

/// Builder for a [`DetectSession`]: pick a pattern source, layer on runtime
/// options, then [`NamerBuilder::build`].
#[derive(Default)]
pub struct NamerBuilder {
    source: Option<Source>,
    classifier: Option<(Pipeline, ModelKind)>,
    lang: Option<Lang>,
    config: Option<NamerConfig>,
    threads: Option<usize>,
    cache_dir: Option<PathBuf>,
    sink: Option<Arc<dyn MetricsSink>>,
    vfs: Option<Arc<dyn Vfs>>,
    retry: Option<RetryPolicy>,
    ingest_diag: Option<Diagnostics>,
    cache_autosave: Option<bool>,
}

impl NamerBuilder {
    /// An empty builder. A pattern source ([`NamerBuilder::namer`],
    /// [`NamerBuilder::model`], or [`NamerBuilder::patterns`]) is required
    /// before [`NamerBuilder::build`]; everything else is optional.
    pub fn new() -> NamerBuilder {
        NamerBuilder::default()
    }

    /// Uses a system trained in-process as the source. Its training-time
    /// configuration is kept; combine with [`NamerBuilder::threads`] for
    /// the worker-thread override.
    pub fn namer(mut self, namer: Namer) -> NamerBuilder {
        self.source = Some(Source::Trained(Box::new(namer)));
        self
    }

    /// Uses a persisted model snapshot as the source.
    pub fn model(mut self, model: SavedModel) -> NamerBuilder {
        self.source = Some(Source::Saved(Box::new(model)));
        self
    }

    /// Uses a shared model snapshot as the source — typically one handed
    /// out by a [`ModelRegistry`]. The snapshot is cloned at build time;
    /// the shared copy is never mutated.
    pub fn shared(mut self, model: Arc<SavedModel>) -> NamerBuilder {
        self.source = Some(Source::Shared(model));
        self
    }

    /// Uses the model called `name` from `registry` as the source,
    /// loading it now (so registry traffic is attributed to this call,
    /// not to [`NamerBuilder::build`]).
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::get`]: unknown name, unreadable file, or
    /// undecodable model.
    pub fn registry(self, registry: &ModelRegistry, name: &str) -> Result<NamerBuilder, NamerError> {
        let model = registry.get(name)?;
        Ok(self.shared(model))
    }

    /// Uses raw mined parts as the source: patterns, confusing pairs, and
    /// one dataset-level count entry per pattern.
    pub fn patterns(
        mut self,
        patterns: Vec<NamePattern>,
        pairs: ConfusingPairs,
        dataset: Vec<LevelCounts>,
    ) -> NamerBuilder {
        self.source = Some(Source::Parts {
            patterns,
            pairs,
            dataset,
        });
        self
    }

    /// Attaches (or replaces) the defect classifier.
    pub fn classifier(mut self, pipeline: Pipeline, kind: ModelKind) -> NamerBuilder {
        self.classifier = Some((pipeline, kind));
        self
    }

    /// Language of the files the session will scan. Required only for the
    /// [`NamerBuilder::patterns`] source (defaults to Python there); for
    /// trained or saved sources it must match the source's language.
    pub fn lang(mut self, lang: Lang) -> NamerBuilder {
        self.lang = Some(lang);
        self
    }

    /// Runtime configuration for [`NamerBuilder::model`] /
    /// [`NamerBuilder::patterns`] sources. A trained [`Namer`] carries its
    /// own configuration; combining it with this setter is an error.
    pub fn config(mut self, config: NamerConfig) -> NamerBuilder {
        self.config = Some(config);
        self
    }

    /// Worker-thread override for processing and scanning (`0` = all
    /// cores).
    pub fn threads(mut self, threads: usize) -> NamerBuilder {
        self.threads = Some(threads);
        self
    }

    /// Keeps an on-disk scan cache in `dir` (created if missing): each
    /// [`DetectSession::run`] reuses cached per-file scan state, scans only
    /// changed files, and saves the pruned cache back. The cache is keyed
    /// by [`Namer::scan_fingerprint`], so model or configuration changes
    /// degrade to a cold scan, never a wrong one.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> NamerBuilder {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Streams metrics to a caller-supplied [`MetricsSink`] in addition to
    /// the session's own collector. Every run still returns its complete
    /// [`MetricsSnapshot`] via [`DetectOutcome::metrics`]; a custom sink is
    /// only needed to observe events live (DESIGN.md §10).
    pub fn metrics(mut self, sink: Arc<dyn MetricsSink>) -> NamerBuilder {
        self.sink = Some(sink);
        self
    }

    /// Routes every filesystem operation of the session (cache load/save)
    /// through `vfs` instead of the real filesystem — how the fault
    /// harness injects failures and kill-points (DESIGN.md §11).
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> NamerBuilder {
        self.vfs = Some(vfs);
        self
    }

    /// Overrides the bounded-retry policy for the session's transient I/O
    /// errors (default: [`RetryPolicy::default`]).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> NamerBuilder {
        self.retry = Some(retry);
        self
    }

    /// Seeds the session with ingestion [`Diagnostics`] (from
    /// [`CorpusReader`](crate::ingest::CorpusReader)), so the session's
    /// *first* [`DetectSession::run`] reports the whole pipeline in one
    /// place: quarantined inputs surface as [`Counter::QuarantinedFiles`]
    /// and retries as [`Counter::IoRetries`] in that run's own metrics and
    /// [`DetectOutcome::diagnostics`]. Build-time events are attributed to
    /// the first run only — a reused session (the daemon case, DESIGN.md
    /// §13) reports each later run's own events, never stale ones.
    pub fn ingest_diagnostics(mut self, diag: Diagnostics) -> NamerBuilder {
        self.ingest_diag = Some(diag);
        self
    }

    /// Whether each cached [`DetectSession::run`] saves the updated scan
    /// cache back to disk before returning (the default). Long-lived
    /// callers that answer many requests per save — the `namer serve`
    /// daemon — turn this off and persist explicitly via
    /// [`DetectSession::flush_cache`], so a slow or failing disk never
    /// sits between a finished scan and its response (DESIGN.md §13).
    pub fn cache_autosave(mut self, autosave: bool) -> NamerBuilder {
        self.cache_autosave = Some(autosave);
        self
    }

    /// Assembles the session.
    ///
    /// # Errors
    ///
    /// [`NamerError::InvalidConfig`] when no source was given, when parts
    /// are inconsistent (dataset/pattern length mismatch), or when
    /// `config`/`lang` conflict with a trained source;
    /// [`NamerError::Io`] when the cache directory cannot be created.
    pub fn build(self) -> Result<DetectSession, NamerError> {
        let Some(source) = self.source else {
            return Err(NamerError::InvalidConfig(
                "no pattern source: call .namer(..), .model(..), or .patterns(..)".to_owned(),
            ));
        };
        let mut namer = match source {
            Source::Trained(namer) => {
                if self.config.is_some() {
                    return Err(NamerError::InvalidConfig(
                        "a trained system carries its own config; use .threads() for the \
                         runtime override"
                            .to_owned(),
                    ));
                }
                if let Some(lang) = self.lang {
                    if lang != namer.lang() {
                        return Err(NamerError::InvalidConfig(format!(
                            "language {lang:?} conflicts with the trained system's {:?}",
                            namer.lang()
                        )));
                    }
                }
                *namer
            }
            Source::Saved(model) => {
                if let Some(lang) = self.lang {
                    if lang != model.lang {
                        return Err(NamerError::InvalidConfig(format!(
                            "language {lang:?} conflicts with the saved model's {:?}",
                            model.lang
                        )));
                    }
                }
                model.into_namer(self.config.unwrap_or_default())
            }
            Source::Shared(model) => {
                if let Some(lang) = self.lang {
                    if lang != model.lang {
                        return Err(NamerError::InvalidConfig(format!(
                            "language {lang:?} conflicts with the shared model's {:?}",
                            model.lang
                        )));
                    }
                }
                model
                    .as_ref()
                    .clone()
                    .into_namer(self.config.unwrap_or_default())
            }
            Source::Parts {
                patterns,
                pairs,
                dataset,
            } => {
                if patterns.len() != dataset.len() {
                    return Err(NamerError::InvalidConfig(format!(
                        "{} patterns but {} dataset count entries",
                        patterns.len(),
                        dataset.len()
                    )));
                }
                let detector = DetectorSpec::new(patterns, pairs, dataset).build();
                let mut config = self.config.unwrap_or_default();
                config.use_classifier = false;
                Namer::assemble(
                    detector,
                    None,
                    ModelKind::SvmLinear,
                    self.lang.unwrap_or(Lang::Python),
                    config,
                )
            }
        };
        // For trained/saved sources the classifier setter is an override;
        // for raw parts it is the only way to attach one.
        if let Some((pipeline, kind)) = self.classifier {
            namer.set_classifier(Some(pipeline), kind);
        }
        if let Some(threads) = self.threads {
            namer.override_threads(threads);
        }

        let vfs = self.vfs.unwrap_or_else(|| Arc::new(RealFs));
        let retry = self.retry.unwrap_or_default();
        let mut diag = self.ingest_diag.unwrap_or_default();
        let cache = match self.cache_dir {
            None => None,
            Some(dir) => {
                let (created, retries) = crate::vfs::with_retry_counted(retry, || {
                    vfs.create_dir_all(&dir)
                });
                diag.io_retries += retries;
                created.map_err(|e| NamerError::io(&dir, e))?;
                let path = dir.join(CACHE_FILE_NAME);
                // Unreadable-cache degradation is already folded into
                // `load_via` (any read error is a cold start); retrying
                // transient errors first keeps a briefly-busy cache warm.
                let (loaded, retries) = crate::vfs::with_retry_counted(retry, || {
                    match vfs.read(&path) {
                        Ok(bytes) => Ok(Some(bytes)),
                        Err(e) if crate::vfs::is_transient(e.kind()) => Err(e),
                        Err(_) => Ok(None),
                    }
                });
                diag.io_retries += retries;
                let (cache, status) = match loaded.ok().flatten() {
                    Some(bytes) => ScanCache::from_bytes(&bytes, namer.scan_fingerprint()),
                    None => (
                        ScanCache::empty(namer.scan_fingerprint()),
                        CacheLoadStatus::Cold,
                    ),
                };
                Some(SessionCache {
                    path,
                    cache,
                    status,
                    degrade_counted: false,
                    dirty: false,
                })
            }
        };
        Ok(DetectSession {
            namer,
            cache,
            autosave: self.cache_autosave.unwrap_or(true),
            sink: self.sink,
            vfs,
            retry,
            base_diag: Some(diag),
        })
    }
}

/// A session's on-disk cache binding.
struct SessionCache {
    path: PathBuf,
    cache: ScanCache,
    status: CacheLoadStatus,
    /// Whether the load-time degradation (corrupt/version/fingerprint) has
    /// already been counted into a run's metrics. The *event* happened once
    /// at load; a reused session must not re-report it on every run.
    degrade_counted: bool,
    /// Whether the in-memory cache has changes the disk copy lacks.
    dirty: bool,
}

/// A ready-to-run detection session produced by [`NamerBuilder::build`].
///
/// Holds the assembled [`Namer`] and, when configured, the loaded scan
/// cache. [`DetectSession::run`] is the one entry point: it processes,
/// scans over file-chunk workers, classifies, and — with a cache
/// directory — persists updated cache state, all with byte-identical
/// results in every mode.
pub struct DetectSession {
    namer: Namer,
    cache: Option<SessionCache>,
    /// Whether runs persist the cache themselves
    /// ([`NamerBuilder::cache_autosave`], on by default).
    autosave: bool,
    sink: Option<Arc<dyn MetricsSink>>,
    vfs: Arc<dyn Vfs>,
    retry: RetryPolicy,
    /// Ingestion diagnostics seeded at build time (plus build-time cache
    /// retries); taken by the session's *first* run so reuse never
    /// re-reports stale events.
    base_diag: Option<Diagnostics>,
}

impl DetectSession {
    /// Runs detection over `files`.
    ///
    /// Without a cache directory this processes and scans everything; with
    /// one, unchanged files reuse their cached per-file state and the
    /// pruned, updated cache is saved back afterwards.
    ///
    /// Every run collects its own [`MetricsSnapshot`]
    /// ([`DetectOutcome::metrics`]); counter totals are deterministic across
    /// any thread count and across cold/warm cache runs of the
    /// same inputs (DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// [`NamerError::Io`] when saving the scan cache fails; cacheless runs
    /// and runs with [`NamerBuilder::cache_autosave`]`(false)` cannot
    /// fail.
    pub fn run(&mut self, files: &[SourceFile]) -> Result<DetectOutcome, NamerError> {
        let collector = PipelineMetrics::new();
        let result = match self.sink.clone() {
            Some(user) => {
                let tee = Tee(&collector, user.as_ref());
                self.run_observed(files, Observer::new(&tee))
            }
            None => self.run_observed(files, Observer::new(&collector)),
        };
        result.map(|mut outcome| {
            outcome.metrics = collector.snapshot();
            outcome
        })
    }

    /// [`DetectSession::run`] against a caller-chosen observer; the whole
    /// run reports as [`Phase::Detect`].
    fn run_observed(
        &mut self,
        files: &[SourceFile],
        obs: Observer<'_>,
    ) -> Result<DetectOutcome, NamerError> {
        let _span = obs.phase(Phase::Detect);
        let threads = resolve_threads(self.namer.config().threads);
        let process = self.namer.config().process;
        // Ingestion robustness events (quarantines, retries) seeded at
        // build time count into the *first* run's own metrics, so one
        // snapshot covers the whole pipeline — and only once: a reused
        // session (back-to-back detects, the daemon case) must not
        // re-report events that happened before it was built.
        let diagnostics = self.base_diag.take().unwrap_or_default();
        if !diagnostics.quarantined.is_empty() {
            obs.add(
                Counter::QuarantinedFiles,
                diagnostics.quarantined.len() as u64,
            );
        }
        if diagnostics.io_retries > 0 {
            obs.add(Counter::IoRetries, diagnostics.io_retries);
        }
        let vfs = self.vfs.clone();
        let retry = self.retry;
        let Some(state) = self.cache.as_mut() else {
            let corpus = process_parallel_observed(files, &process, threads, obs);
            let scan = self
                .namer
                .detector
                .scan(ScanRequest::full(&corpus).threads(threads).observer(obs));
            let reports = self.namer.reports_from(&scan, obs);
            return Ok(DetectOutcome {
                reports,
                scan,
                cache: None,
                metrics: MetricsSnapshot::default(),
                diagnostics,
            });
        };
        if !state.degrade_counted
            && matches!(
                state.status,
                CacheLoadStatus::Corrupt
                    | CacheLoadStatus::VersionMismatch
                    | CacheLoadStatus::FingerprintMismatch
            )
        {
            // The degradation happened once, at load; count it into the
            // first run only. After that run the in-memory cache is valid
            // and warm, whatever the on-disk file looked like.
            obs.add(Counter::CacheDegradedCold, 1);
            state.degrade_counted = true;
        }
        // Which inputs will scan fresh (recorded before the scan warms the
        // cache): the "changed files" of a CI-style incremental run.
        let changed: Vec<(String, String)> = files
            .iter()
            .filter(|f| !state.cache.contains(f.content_digest()))
            .map(|f| (f.repo.clone(), f.path.clone()))
            .collect();
        let scan = self.namer.detector.scan(
            ScanRequest::incremental(files, &process, &mut state.cache)
                .threads(threads)
                .observer(obs),
        );
        // Keep the cache bounded by the current input set before saving.
        let live: HashSet<ContentDigest> = files.iter().map(SourceFile::content_digest).collect();
        state.cache.retain_digests(&live);
        state.dirty = true;
        if self.autosave {
            // Crash-safe save (write-temp + fsync + rename) with bounded
            // retry: a kill at any point leaves the old or the new cache
            // on disk, never a truncation (DESIGN.md §11).
            let _save_span = obs.phase(Phase::CacheSave);
            with_retry(retry, obs, || state.cache.save_via(vfs.as_ref(), &state.path))
                .map_err(|e| NamerError::io(&state.path, e))?;
            state.dirty = false;
        }
        let stats = scan.cache.unwrap_or_default();
        let reports = self.namer.reports_from(&scan, obs);
        Ok(DetectOutcome {
            reports,
            scan,
            cache: Some(CacheOutcome {
                reused: stats.reused,
                fresh: stats.fresh,
                parse_failures: stats.parse_failures,
                changed,
            }),
            metrics: MetricsSnapshot::default(),
            diagnostics,
        })
    }

    /// Runs detection over an already-processed corpus (benchmark and
    /// ablation paths that reuse one preprocessing pass across many scans).
    /// Never touches the cache. Like [`DetectSession::run`], the outcome
    /// carries the run's [`MetricsSnapshot`] (processing-phase counters are
    /// absent — the corpus arrived preprocessed).
    pub fn run_processed(&self, corpus: &ProcessedCorpus) -> DetectOutcome {
        let collector = PipelineMetrics::new();
        let mut outcome = match self.sink.clone() {
            Some(user) => {
                let tee = Tee(&collector, user.as_ref());
                self.run_processed_observed(corpus, Observer::new(&tee))
            }
            None => self.run_processed_observed(corpus, Observer::new(&collector)),
        };
        outcome.metrics = collector.snapshot();
        outcome
    }

    /// [`DetectSession::run_processed`] against a caller-chosen observer.
    fn run_processed_observed(&self, corpus: &ProcessedCorpus, obs: Observer<'_>) -> DetectOutcome {
        let _span = obs.phase(Phase::Detect);
        let threads = resolve_threads(self.namer.config().threads);
        let scan = self
            .namer
            .detector
            .scan(ScanRequest::full(corpus).threads(threads).observer(obs));
        let reports = self.namer.reports_from(&scan, obs);
        DetectOutcome {
            reports,
            scan,
            cache: None,
            metrics: MetricsSnapshot::default(),
            // Preprocessed corpora never touched the filesystem here.
            diagnostics: Diagnostics::default(),
        }
    }

    /// How the scan cache loaded at build time; `None` without a cache
    /// directory.
    pub fn cache_status(&self) -> Option<CacheLoadStatus> {
        self.cache.as_ref().map(|c| c.status)
    }

    /// Persists the in-memory scan cache to its on-disk path if it has
    /// unsaved changes. Returns `true` when a save happened, `false` for
    /// cacheless sessions or an already-clean cache. The companion of
    /// [`NamerBuilder::cache_autosave`]`(false)`: the daemon calls this
    /// *after* a response is on the wire, so persistence cost and
    /// persistence faults never delay or corrupt an answer (DESIGN.md §13).
    ///
    /// # Errors
    ///
    /// [`NamerError::Io`] when the save fails after bounded retries; the
    /// in-memory cache keeps its state (still warm, still dirty), so a
    /// later flush can succeed.
    pub fn flush_cache(&mut self) -> Result<bool, NamerError> {
        self.flush_cache_observed(Observer::none())
    }

    /// [`DetectSession::flush_cache`] reporting its [`Phase::CacheSave`]
    /// span and retries into `obs`.
    ///
    /// # Errors
    ///
    /// As [`DetectSession::flush_cache`].
    pub fn flush_cache_observed(&mut self, obs: Observer<'_>) -> Result<bool, NamerError> {
        let Some(state) = self.cache.as_mut() else {
            return Ok(false);
        };
        if !state.dirty {
            return Ok(false);
        }
        let _save_span = obs.phase(Phase::CacheSave);
        with_retry(self.retry, obs, || {
            state.cache.save_via(self.vfs.as_ref(), &state.path)
        })
        .map_err(|e| NamerError::io(&state.path, e))?;
        state.dirty = false;
        Ok(true)
    }

    /// Empties the in-memory scan cache (the fingerprint is kept), so the
    /// next run scans everything fresh — the explicit "go cold" of the
    /// daemon's `cache.flush {"clear": true}`. The cleared state is marked
    /// dirty; a following [`DetectSession::flush_cache`] persists it.
    /// Returns `false` for cacheless sessions.
    pub fn clear_cache(&mut self) -> bool {
        let Some(state) = self.cache.as_mut() else {
            return false;
        };
        state.cache = ScanCache::empty(self.namer.scan_fingerprint());
        state.dirty = true;
        true
    }

    /// Entries currently held by the in-memory scan cache; `None` without
    /// a cache directory.
    pub fn cache_entries(&self) -> Option<usize> {
        self.cache.as_ref().map(|c| c.cache.len())
    }

    /// Whether the in-memory scan cache has changes the disk copy lacks;
    /// `None` without a cache directory.
    pub fn cache_dirty(&self) -> Option<bool> {
        self.cache.as_ref().map(|c| c.dirty)
    }

    /// The assembled system (for persistence, classification, metadata).
    pub fn namer(&self) -> &Namer {
        &self.namer
    }

    /// Consumes the session, returning the assembled system.
    pub fn into_namer(self) -> Namer {
        self.namer
    }
}

/// Everything one [`DetectSession::run`] produces.
pub struct DetectOutcome {
    /// The issues to report (violations the classifier let through).
    pub reports: Vec<Report>,
    /// The full raw scan (all violations + coverage statistics).
    pub scan: ScanResult,
    /// Cache accounting; `None` for cacheless runs.
    pub cache: Option<CacheOutcome>,
    /// The run's observability snapshot: per-phase timings and pipeline
    /// counters (DESIGN.md §10). Always populated; counter totals are
    /// deterministic, timings are not.
    pub metrics: MetricsSnapshot,
    /// The run's robustness report: quarantined inputs and recovered
    /// transient I/O errors. Ingestion diagnostics seeded via
    /// [`NamerBuilder::ingest_diagnostics`] appear on the session's
    /// *first* run only; later runs of a reused session report their own
    /// events (DESIGN.md §11, §13).
    pub diagnostics: Diagnostics,
}

/// Cache accounting of one cached [`DetectSession::run`].
pub struct CacheOutcome {
    /// Input files served from pre-existing cache entries.
    pub reused: usize,
    /// Input files scanned fresh this run.
    pub fresh: usize,
    /// Input files recorded (now or previously) as unparsable.
    pub parse_failures: usize,
    /// `(repo, path)` of inputs that were not in the cache when the run
    /// started, in input order — the changed set of an incremental run.
    pub changed: Vec<(String, String)>,
}
