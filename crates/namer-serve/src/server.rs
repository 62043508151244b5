//! The `namer serve` engine and transports.
//!
//! Layering (DESIGN.md §13):
//!
//! * `Engine` — resident detection state: a [`ModelHost`] (one model
//!   or a [`ModelRegistry`]), an LRU-bounded map of warm
//!   [`DetectSession`]s (one per model, each with its own cache
//!   subdirectory), and the executable methods `file.analyze` /
//!   `model.load` / `cache.flush` / `file.watch` / `file.unwatch`,
//!   each returning a serialized result body (all but `file.unwatch`
//!   carrying a per-request [`MetricsSnapshot`]).
//! * [`ServeState`] — the transport-agnostic protocol layer:
//!   [`ServeState::handle_line`] maps one wire line to at most one
//!   response line plus any `file.findings` notifications the request
//!   triggered for `file.watch` subscriptions, enforcing the
//!   `initialize` handshake, protocol versioning, and shutdown
//!   semantics. It is synchronous and deterministic, which is what the
//!   golden transcripts pin.
//! * Transports — [`serve_transcript`] (in-memory, for tests),
//!   [`serve_stdio`] (serial loop), and [`serve_listener`] (TCP: one
//!   reader + writer thread pair per connection, all requests funneled
//!   through a bounded queue into a single executor that owns the
//!   [`ServeState`]). A full queue rejects the request immediately with
//!   a typed `server_busy` error — requests are never buffered
//!   unboundedly.
//!
//! Cache persistence is deferred: sessions are built with
//! `cache_autosave(false)` and every transport calls
//! [`ServeState::after_response`] *after* the response line is written,
//! so a crash between response write and cache save is a first-class,
//! fault-injectable ordering (`tests/serve_faults.rs`). Flush failures
//! keep the in-memory cache warm and dirty; the daemon degrades cold on
//! restart, never wrong.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use namer_core::{
    fix_line, DetectSession, ModelRegistry, NamerBuilder, NamerConfig, NamerError, Report,
    RetryPolicy, SavedModel, Vfs,
};
use namer_observe::{
    Counter, MetricsSink, MetricsSnapshot, Observer, Phase, PipelineMetrics, Tee,
};
use namer_syntax::SourceFile;
use namer_base::json::{ToJson, Value};

use crate::proto::{
    legal_id, params_from, parse_line, render_err, render_notification, render_ok, AnalyzeFile,
    AnalyzeParams, AnalyzeResult, CacheFlushParams, CacheFlushResult, CacheSummary, Capabilities,
    ErrorKind, Finding, FindingsEvent, InitializeParams, InitializeResult, ModelLoadParams,
    ModelLoadResult, Request, RpcError, Summary, UnwatchParams, UnwatchResult, WatchParams,
    WatchResult, METHODS, OK_TRUE, PONG, PROTOCOL_VERSION,
};

/// Server configuration. `detect` carries the detection knobs
/// (threads, mining/classifier config) shared by every
/// resident session; the remaining fields are daemon policy.
pub struct ServeConfig {
    /// Detection configuration applied to every session.
    pub detect: NamerConfig,
    /// Root directory for per-model scan caches
    /// (`<root>/<model>/scan-cache.json`); `None` runs cacheless.
    pub cache_root: Option<PathBuf>,
    /// Bounded request-queue depth for the TCP transport; overflow is
    /// rejected with `server_busy`.
    pub queue_capacity: usize,
    /// Most-recently-used sessions kept resident; older ones are
    /// flushed and evicted.
    pub max_resident_sessions: usize,
    /// Zero wall-clock fields in per-request snapshots
    /// (`MetricsSnapshot::scrub_timings`) so responses are
    /// byte-deterministic.
    pub scrub_timings: bool,
    /// Transient-I/O retry policy for session cache loads/saves.
    pub retry: RetryPolicy,
    /// Filesystem seam; swap in a `FaultVfs` to fault-inject the
    /// daemon.
    pub vfs: Arc<dyn Vfs>,
    /// Optional daemon-wide aggregate sink; per-request collectors tee
    /// into it, and busy rejections are counted here.
    pub metrics: Option<Arc<dyn MetricsSink>>,
}

impl ServeConfig {
    /// Daemon defaults around the given detection config: cacheless,
    /// queue of 64, 4 resident sessions, real filesystem, timings kept.
    pub fn new(detect: NamerConfig) -> ServeConfig {
        ServeConfig {
            detect,
            cache_root: None,
            queue_capacity: 64,
            max_resident_sessions: 4,
            scrub_timings: false,
            retry: RetryPolicy::default(),
            vfs: Arc::new(namer_core::RealFs),
            metrics: None,
        }
    }
}

/// Where the daemon's models come from.
pub enum ModelHost {
    /// Exactly one model, loaded up front (CLI `--model FILE`).
    Single {
        /// The name clients address it by (the file stem).
        name: String,
        /// The loaded model.
        model: Arc<SavedModel>,
    },
    /// A lazy multi-model registry (CLI `--model-dir DIR`).
    Registry(Arc<ModelRegistry>),
}

impl ModelHost {
    /// Every model name this host can serve, sorted.
    pub fn models(&self) -> Vec<String> {
        match self {
            ModelHost::Single { name, .. } => vec![name.clone()],
            ModelHost::Registry(reg) => reg.names(),
        }
    }
}

/// Per-connection protocol state: whether `initialize` has completed,
/// plus the connection's `file.watch` subscriptions. Shared between
/// the connection's reader thread and the executor.
#[derive(Debug, Default)]
pub struct ConnCtx {
    initialized: AtomicBool,
    /// Watched files keyed `(repo, path)`, each holding the serialized
    /// findings baseline the next `file.findings` push diffs against.
    /// `BTreeMap` so any whole-table iteration is deterministic.
    watches: Mutex<BTreeMap<(String, String), String>>,
}

impl ConnCtx {
    /// A fresh, uninitialized connection.
    pub fn new() -> ConnCtx {
        ConnCtx::default()
    }

    fn is_initialized(&self) -> bool {
        self.initialized.load(Ordering::SeqCst)
    }

    fn set_initialized(&self) {
        self.initialized.store(true, Ordering::SeqCst);
    }

    /// Number of watched files on this connection.
    pub fn watch_count(&self) -> usize {
        self.watches.lock().expect("watch table lock").len()
    }
}

/// Resident detection state shared by every connection.
struct Engine {
    config: ServeConfig,
    host: ModelHost,
    sessions: HashMap<String, DetectSession>,
    /// Model names, least-recently-used first.
    recency: Vec<String>,
}

impl Engine {
    fn new(config: ServeConfig, host: ModelHost) -> Engine {
        Engine {
            config,
            host,
            sessions: HashMap::new(),
            recency: Vec::new(),
        }
    }

    fn shared_sink(&self) -> Option<Arc<dyn MetricsSink>> {
        self.config.metrics.clone()
    }

    /// Resolves the model name a request addresses.
    fn resolve_name(&self, requested: Option<&str>) -> Result<String, RpcError> {
        match &self.host {
            ModelHost::Single { name, .. } => match requested {
                None => Ok(name.clone()),
                Some(r) if r == name => Ok(name.clone()),
                Some(r) => Err(RpcError::new(
                    ErrorKind::ModelError,
                    format!("unknown model {r:?} (serving {name:?})"),
                )),
            },
            ModelHost::Registry(reg) => match requested {
                Some(r) => Ok(r.to_owned()),
                None => reg.sole_name().map(str::to_owned).ok_or_else(|| {
                    RpcError::new(
                        ErrorKind::InvalidParams,
                        format!(
                            "params.model required ({} models hosted: {})",
                            reg.len(),
                            reg.names().join(", ")
                        ),
                    )
                }),
            },
        }
    }

    fn load_model(&self, name: &str) -> Result<Arc<SavedModel>, RpcError> {
        match &self.host {
            ModelHost::Single { model, .. } => Ok(model.clone()),
            ModelHost::Registry(reg) => reg.get(name).map_err(|e| {
                RpcError::new(ErrorKind::ModelError, format!("model {name:?}: {e}"))
            }),
        }
    }

    /// Marks `name` most recently used.
    fn touch(&mut self, name: &str) {
        self.recency.retain(|n| n != name);
        self.recency.push(name.to_owned());
    }

    /// Ensures a warm session for `name` is resident, building it (and
    /// recording a `model_load` phase span) on first use. A cache
    /// directory that cannot be opened degrades the session to
    /// cacheless — cold, never wrong.
    fn ensure_session(&mut self, name: &str, obs: Observer<'_>) -> Result<(), RpcError> {
        if self.sessions.contains_key(name) {
            self.touch(name);
            return Ok(());
        }
        let model = {
            let _span = obs.phase(Phase::ModelLoad);
            self.load_model(name)?
        };
        let session = {
            let config = &self.config;
            let build = |cache_dir: Option<PathBuf>| -> Result<DetectSession, NamerError> {
                let mut builder = NamerBuilder::new()
                    .shared(model.clone())
                    .config(config.detect.clone())
                    .cache_autosave(false)
                    .vfs(config.vfs.clone())
                    .retry_policy(config.retry);
                if let Some(sink) = &config.metrics {
                    builder = builder.metrics(sink.clone());
                }
                if let Some(dir) = cache_dir {
                    builder = builder.cache_dir(dir);
                }
                builder.build()
            };
            let rpc = |e: NamerError| {
                RpcError::new(ErrorKind::ModelError, format!("building session for {name:?}"))
                    .with_detail(e.to_string())
            };
            match config.cache_root.as_ref().map(|root| root.join(safe_component(name))) {
                Some(dir) => match build(Some(dir)) {
                    Ok(session) => session,
                    Err(NamerError::Io { .. }) => {
                        obs.add(Counter::CacheDegradedCold, 1);
                        build(None).map_err(rpc)?
                    }
                    Err(e) => return Err(rpc(e)),
                },
                None => build(None).map_err(rpc)?,
            }
        };
        self.sessions.insert(name.to_owned(), session);
        self.touch(name);
        self.evict_over_budget();
        Ok(())
    }

    /// Evicts least-recently-used sessions beyond the residency budget,
    /// flushing their dirty caches first (flush failures only cost
    /// warmth).
    fn evict_over_budget(&mut self) {
        let budget = self.config.max_resident_sessions.max(1);
        while self.sessions.len() > budget {
            let victim = self.recency.remove(0);
            if let Some(mut session) = self.sessions.remove(&victim) {
                let _ = session.flush_cache();
            }
        }
    }

    /// `file.analyze`.
    fn analyze(
        &mut self,
        conn: &ConnCtx,
        params: AnalyzeParams,
        notes: &mut Vec<String>,
    ) -> Result<String, RpcError> {
        let collector = PipelineMetrics::new();
        let aggregate = self.shared_sink();
        let (outcome, files) = match &aggregate {
            Some(sink) => {
                let tee = Tee(&collector, sink.as_ref());
                self.analyze_observed(&params, Observer::new(&tee))?
            }
            None => self.analyze_observed(&params, Observer::new(&collector))?,
        };
        let mut findings: Vec<Finding> = outcome
            .reports
            .iter()
            .map(|report| finding(report, &files))
            .collect();
        // Watched files diff against the unfiltered findings: a
        // `changed_only` filter must not mask a watched file whose
        // findings went away.
        let mut seen = HashSet::new();
        for file in &files {
            if !seen.insert((file.repo.as_str(), file.path.as_str())) {
                continue;
            }
            let per_file: Vec<Finding> = findings
                .iter()
                .filter(|f| f.repo == file.repo && f.path == file.path)
                .cloned()
                .collect();
            sync_watch(
                conn,
                &file.repo,
                &file.path,
                per_file,
                false,
                notes,
                &collector,
                aggregate.as_deref(),
            );
        }
        if params.changed_only {
            if let Some(cache) = &outcome.cache {
                let changed: HashSet<(&str, &str)> = cache
                    .changed
                    .iter()
                    .map(|(repo, path)| (repo.as_str(), path.as_str()))
                    .collect();
                findings.retain(|f| changed.contains(&(f.repo.as_str(), f.path.as_str())));
            }
        }
        let summary = Summary {
            files: files.len(),
            findings: findings.len(),
            cache: outcome.cache.as_ref().map(|c| CacheSummary {
                reused: c.reused,
                fresh: c.fresh,
                parse_failures: c.parse_failures,
                changed: c.changed.len(),
            }),
        };
        let mut metrics = merge_serve_metrics(outcome.metrics, collector.snapshot());
        if self.config.scrub_timings {
            metrics.scrub_timings();
        }
        let result = AnalyzeResult {
            findings,
            summary,
            diagnostics: outcome.diagnostics,
            metrics,
        };
        Ok(result.to_value().to_string())
    }

    fn analyze_observed(
        &mut self,
        params: &AnalyzeParams,
        obs: Observer<'_>,
    ) -> Result<(namer_core::DetectOutcome, Vec<SourceFile>), RpcError> {
        let _span = obs.phase(Phase::Serve);
        obs.add(Counter::ServeRequests, 1);
        if params.files.is_empty() {
            return Err(RpcError::new(
                ErrorKind::InvalidParams,
                "params.files must not be empty",
            ));
        }
        if params.changed_only && self.config.cache_root.is_none() {
            return Err(RpcError::new(
                ErrorKind::InvalidParams,
                "changed_only requires a server started with --cache-dir",
            ));
        }
        let name = self.resolve_name(params.model.as_deref())?;
        self.ensure_session(&name, obs)?;
        let session = self.sessions.get_mut(&name).expect("session just ensured");
        let lang = session.namer().lang();
        let files: Vec<SourceFile> = params.files.iter().map(|f| source_file(f, lang)).collect();
        let outcome = session.run(&files).map_err(|e| {
            RpcError::new(ErrorKind::Internal, "detection failed").with_detail(e.to_string())
        })?;
        Ok((outcome, files))
    }

    /// `model.load`.
    fn model_load(&mut self, params: ModelLoadParams) -> Result<String, RpcError> {
        let collector = PipelineMetrics::new();
        let aggregate = self.shared_sink();
        let (model, lang) = match &aggregate {
            Some(sink) => {
                let tee = Tee(&collector, sink.as_ref());
                self.model_load_observed(&params, Observer::new(&tee))?
            }
            None => self.model_load_observed(&params, Observer::new(&collector))?,
        };
        let mut metrics = collector.snapshot();
        if self.config.scrub_timings {
            metrics.scrub_timings();
        }
        Ok(ModelLoadResult { model, lang, metrics }.to_value().to_string())
    }

    fn model_load_observed(
        &mut self,
        params: &ModelLoadParams,
        obs: Observer<'_>,
    ) -> Result<(String, String), RpcError> {
        let _span = obs.phase(Phase::Serve);
        obs.add(Counter::ServeRequests, 1);
        let name = self.resolve_name(Some(&params.model))?;
        self.ensure_session(&name, obs)?;
        let lang = self.sessions.get(&name).expect("session just ensured").namer().lang();
        Ok((name, lang.to_string()))
    }

    /// `cache.flush`.
    fn cache_flush(&mut self, params: CacheFlushParams) -> Result<String, RpcError> {
        let collector = PipelineMetrics::new();
        let aggregate = self.shared_sink();
        let (flushed, cleared) = match &aggregate {
            Some(sink) => {
                let tee = Tee(&collector, sink.as_ref());
                self.cache_flush_observed(&params, Observer::new(&tee))?
            }
            None => self.cache_flush_observed(&params, Observer::new(&collector))?,
        };
        let mut metrics = collector.snapshot();
        if self.config.scrub_timings {
            metrics.scrub_timings();
        }
        Ok(CacheFlushResult { flushed, cleared, metrics }.to_value().to_string())
    }

    fn cache_flush_observed(
        &mut self,
        params: &CacheFlushParams,
        obs: Observer<'_>,
    ) -> Result<(Vec<String>, Vec<String>), RpcError> {
        let _span = obs.phase(Phase::Serve);
        obs.add(Counter::ServeRequests, 1);
        let mut names: Vec<String> = match &params.model {
            Some(model) => {
                let name = self.resolve_name(Some(model))?;
                // Only resident sessions have anything to flush.
                self.sessions.contains_key(&name).then_some(name).into_iter().collect()
            }
            None => self.sessions.keys().cloned().collect(),
        };
        names.sort();
        let mut flushed = Vec::new();
        let mut cleared = Vec::new();
        for name in names {
            let session = self.sessions.get_mut(&name).expect("resident session");
            if params.clear && session.clear_cache() {
                cleared.push(name.clone());
            }
            match session.flush_cache_observed(obs) {
                Ok(true) => flushed.push(name),
                Ok(false) => {}
                Err(e) => {
                    return Err(RpcError::new(
                        ErrorKind::Internal,
                        format!("cache flush failed for {name:?}"),
                    )
                    .with_detail(e.to_string()));
                }
            }
        }
        Ok((flushed, cleared))
    }

    /// `file.watch`: analyze the file now, register (or refresh) the
    /// subscription, and return the current findings. Re-sending
    /// `file.watch` with edited content is the client's change signal:
    /// when the new findings differ from the stored baseline a
    /// `file.findings` notification is pushed after the response.
    fn watch(
        &mut self,
        conn: &ConnCtx,
        params: WatchParams,
        notes: &mut Vec<String>,
    ) -> Result<String, RpcError> {
        let collector = PipelineMetrics::new();
        let aggregate = self.shared_sink();
        let analyze = AnalyzeParams {
            files: vec![AnalyzeFile {
                repo: params.repo.clone(),
                path: params.path.clone(),
                content: params.content.clone(),
            }],
            model: params.model.clone(),
            changed_only: false,
        };
        let (outcome, files) = match &aggregate {
            Some(sink) => {
                let tee = Tee(&collector, sink.as_ref());
                self.analyze_observed(&analyze, Observer::new(&tee))?
            }
            None => self.analyze_observed(&analyze, Observer::new(&collector))?,
        };
        let findings: Vec<Finding> = outcome
            .reports
            .iter()
            .map(|report| finding(report, &files))
            .collect();
        sync_watch(
            conn,
            &files[0].repo,
            &files[0].path,
            findings.clone(),
            true,
            notes,
            &collector,
            aggregate.as_deref(),
        );
        let mut metrics = merge_serve_metrics(outcome.metrics, collector.snapshot());
        if self.config.scrub_timings {
            metrics.scrub_timings();
        }
        Ok(WatchResult {
            watching: conn.watch_count(),
            findings,
            metrics,
        }
        .to_value()
        .to_string())
    }

    /// `file.unwatch`: drop one subscription. Pure bookkeeping — no
    /// detection runs and no metrics snapshot is attached.
    fn unwatch(&mut self, conn: &ConnCtx, params: UnwatchParams) -> Result<String, RpcError> {
        let key = (
            params.repo.unwrap_or_else(|| "client".to_owned()),
            params.path,
        );
        let removed = conn
            .watches
            .lock()
            .expect("watch table lock")
            .remove(&key)
            .is_some();
        Ok(UnwatchResult {
            removed,
            watching: conn.watch_count(),
        }
        .to_value()
        .to_string())
    }

    /// Persists every resident session's dirty cache. Called by
    /// transports after each response line is written; failures are
    /// returned for logging and leave the cache warm and dirty.
    fn flush_dirty(&mut self) -> Vec<(String, NamerError)> {
        let mut errors = Vec::new();
        let mut names: Vec<String> = self.sessions.keys().cloned().collect();
        names.sort();
        let aggregate = self.shared_sink();
        for name in names {
            let session = self.sessions.get_mut(&name).expect("resident session");
            if session.cache_dirty() != Some(true) {
                continue;
            }
            let saved = match &aggregate {
                Some(sink) => session.flush_cache_observed(Observer::new(sink.as_ref())),
                None => session.flush_cache(),
            };
            if let Err(e) = saved {
                errors.push((name, e));
            }
        }
        errors
    }
}

/// The protocol layer: owns the `Engine` and maps wire lines to
/// response lines. Synchronous — transports decide how lines reach it.
pub struct ServeState {
    engine: Engine,
    stopping: bool,
    stop: Option<Arc<AtomicBool>>,
}

impl ServeState {
    /// Builds the daemon state (no I/O happens until requests arrive;
    /// registry models load lazily on first use).
    pub fn new(config: ServeConfig, host: ModelHost) -> ServeState {
        ServeState {
            engine: Engine::new(config, host),
            stopping: false,
            stop: None,
        }
    }

    /// Like [`ServeState::new`], also raising `stop` when `shutdown`
    /// is accepted (used by the TCP accept loop).
    pub fn with_stop(config: ServeConfig, host: ModelHost, stop: Arc<AtomicBool>) -> ServeState {
        ServeState {
            engine: Engine::new(config, host),
            stopping: false,
            stop: Some(stop),
        }
    }

    /// True once `shutdown` has been accepted.
    pub fn is_stopping(&self) -> bool {
        self.stopping
    }

    /// Handles one wire line for one connection, returning the
    /// response line (without trailing newline) followed by any
    /// `file.findings` notification lines the request triggered, in
    /// that order. Blank input yields no lines.
    pub fn handle_line(&mut self, conn: &ConnCtx, line: &str) -> Vec<String> {
        let line = line.trim();
        if line.is_empty() {
            return Vec::new();
        }
        let req = match parse_line(line) {
            Ok(req) => req,
            Err((id, err)) => return vec![render_err(id.as_ref(), &err)],
        };
        let mut notes = Vec::new();
        let response = match self.dispatch(conn, &req, &mut notes) {
            Ok(result) => render_ok(&req.id, &result),
            Err(err) => {
                // A failed request pushes nothing.
                notes.clear();
                render_err(Some(&req.id), &err)
            }
        };
        let mut out = Vec::with_capacity(1 + notes.len());
        out.push(response);
        out.append(&mut notes);
        out
    }

    /// Runs deferred cache persistence. Transports call this *after*
    /// writing the response line, making "crash between response write
    /// and cache save" a real, testable kill-point ordering. Errors
    /// are returned for logging; the cache stays warm and dirty.
    pub fn after_response(&mut self) -> Vec<(String, NamerError)> {
        self.engine.flush_dirty()
    }

    fn dispatch(
        &mut self,
        conn: &ConnCtx,
        req: &Request,
        notes: &mut Vec<String>,
    ) -> Result<String, RpcError> {
        if self.stopping {
            return Err(RpcError::new(ErrorKind::ShuttingDown, "server is shutting down"));
        }
        match req.method.as_str() {
            "initialize" => {
                if conn.is_initialized() {
                    return Err(RpcError::new(
                        ErrorKind::AlreadyInitialized,
                        "connection already initialized",
                    ));
                }
                let params: InitializeParams = params_from(&req.params)?;
                if params.protocol != PROTOCOL_VERSION {
                    return Err(RpcError::new(
                        ErrorKind::IncompatibleProtocol,
                        format!(
                            "unsupported protocol {} (server speaks {PROTOCOL_VERSION})",
                            params.protocol
                        ),
                    ));
                }
                conn.set_initialized();
                Ok(InitializeResult {
                    protocol: PROTOCOL_VERSION,
                    server: "namer-serve",
                    version: env!("CARGO_PKG_VERSION"),
                    models: self.engine.host.models(),
                    methods: METHODS.to_vec(),
                    capabilities: Capabilities {
                        watch: true,
                        languages: namer_syntax::lang::all()
                            .iter()
                            .map(|l| l.cli_name())
                            .collect(),
                    },
                }
                .to_value()
                .to_string())
            }
            _ if !conn.is_initialized() => Err(RpcError::new(
                ErrorKind::NotInitialized,
                format!("call initialize before {}", req.method),
            )),
            "ping" => Ok(PONG.to_owned()),
            "shutdown" => {
                self.stopping = true;
                if let Some(stop) = &self.stop {
                    stop.store(true, Ordering::SeqCst);
                }
                Ok(OK_TRUE.to_owned())
            }
            "file.analyze" => self.engine.analyze(conn, params_from(&req.params)?, notes),
            "model.load" => self.engine.model_load(params_from(&req.params)?),
            "cache.flush" => self.engine.cache_flush(params_from(&req.params)?),
            "file.watch" => self.engine.watch(conn, params_from(&req.params)?, notes),
            "file.unwatch" => self.engine.unwatch(conn, params_from(&req.params)?),
            other => Err(RpcError::new(
                ErrorKind::MethodNotFound,
                format!("unknown method {other:?}"),
            )),
        }
    }
}

/// Runs a whole newline-delimited request transcript through a fresh
/// daemon on one connection and returns the newline-delimited
/// responses. The in-memory transport: golden-transcript tests and
/// fault matrices drive this.
pub fn serve_transcript(config: ServeConfig, host: ModelHost, input: &str) -> String {
    let mut state = ServeState::new(config, host);
    let conn = ConnCtx::new();
    let mut out = String::new();
    for line in input.lines() {
        let lines = state.handle_line(&conn, line);
        if lines.is_empty() {
            continue;
        }
        for resp in lines {
            out.push_str(&resp);
            out.push('\n');
        }
        let _ = state.after_response();
    }
    out
}

/// Serves one connection over stdio, one request per line, until EOF
/// or `shutdown`. Responses are flushed before deferred cache saves
/// run.
pub fn serve_stdio(config: ServeConfig, host: ModelHost) -> io::Result<()> {
    let mut state = ServeState::new(config, host);
    let conn = ConnCtx::new();
    let stdin = io::stdin();
    let mut stdout = io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line?;
        let lines = state.handle_line(&conn, &line);
        if !lines.is_empty() {
            for resp in lines {
                stdout.write_all(resp.as_bytes())?;
                stdout.write_all(b"\n")?;
            }
            stdout.flush()?;
            for (name, err) in state.after_response() {
                eprintln!("namer serve: cache flush failed for {name}: {err} (will retry)");
            }
        }
        if state.is_stopping() {
            break;
        }
    }
    Ok(())
}

/// One queued unit of work: a raw request line plus where to send the
/// response.
struct Job {
    line: String,
    conn: Arc<ConnCtx>,
    reply: mpsc::Sender<String>,
}

/// Serves a bound TCP listener until a client sends `shutdown`.
///
/// Concurrency model: each connection gets a reader thread and a
/// writer thread; readers `try_send` into one bounded queue feeding a
/// single executor thread that owns the [`ServeState`] (detection
/// itself parallelizes inside the session across file threads). A full
/// queue rejects immediately with `server_busy` — bounded memory under
/// overload. Responses for one connection always return in request order.
pub fn serve_listener(config: ServeConfig, host: ModelHost, listener: TcpListener) -> io::Result<()> {
    let queue_capacity = config.queue_capacity.max(1);
    let aggregate = config.metrics.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(queue_capacity);
    let mut state = ServeState::with_stop(config, host, stop.clone());
    let executor = thread::spawn(move || {
        while let Ok(job) = job_rx.recv() {
            for resp in state.handle_line(&job.conn, &job.line) {
                // A dropped connection is the client's problem, not the
                // daemon's: the response is discarded, state stays good.
                let _ = job.reply.send(resp);
            }
            for (name, err) in state.after_response() {
                eprintln!("namer serve: cache flush failed for {name}: {err} (will retry)");
            }
        }
    });
    listener.set_nonblocking(true)?;
    let mut connections = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let job_tx = job_tx.clone();
                let stop = stop.clone();
                let aggregate = aggregate.clone();
                connections.push(thread::spawn(move || {
                    let _ = handle_connection(stream, job_tx, stop, aggregate);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
    drop(job_tx);
    for handle in connections {
        let _ = handle.join();
    }
    let _ = executor.join();
    Ok(())
}

/// Reader half of one TCP connection: frames lines, applies
/// backpressure, and spawns the paired writer thread.
fn handle_connection(
    stream: TcpStream,
    job_tx: SyncSender<Job>,
    stop: Arc<AtomicBool>,
    aggregate: Option<Arc<dyn MetricsSink>>,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    // Poll the stop flag between reads so idle connections cannot keep
    // the daemon alive after shutdown.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let write_half = stream.try_clone()?;
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        while let Ok(resp) = reply_rx.recv() {
            if out.write_all(resp.as_bytes()).is_err()
                || out.write_all(b"\n").is_err()
                || out.flush().is_err()
            {
                break;
            }
        }
    });
    let conn = Arc::new(ConnCtx::new());
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) => break,
            Ok(_) => {
                let line = buf.trim();
                if line.is_empty() {
                    continue;
                }
                let job = Job {
                    line: line.to_owned(),
                    conn: conn.clone(),
                    reply: reply_tx.clone(),
                };
                match job_tx.try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(job)) => {
                        if let Some(sink) = &aggregate {
                            sink.add(Counter::ServeRejectedBusy, 1);
                        }
                        let _ = job.reply.send(busy_response(&job.line));
                    }
                    Err(TrySendError::Disconnected(job)) => {
                        let _ = job.reply.send(overload_response(
                            &job.line,
                            ErrorKind::ShuttingDown,
                            "server is shutting down",
                        ));
                        break;
                    }
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    drop(reply_tx);
    let _ = writer.join();
    Ok(())
}

/// Builds the typed `server_busy` rejection for a raw request line,
/// echoing its id when one can be recovered.
fn busy_response(line: &str) -> String {
    overload_response(line, ErrorKind::ServerBusy, "request queue full; retry later")
}

fn overload_response(line: &str, kind: ErrorKind, message: &str) -> String {
    let id = Value::parse(line)
        .ok()
        .and_then(|v| v.get("id").cloned())
        .filter(legal_id);
    render_err(id.as_ref(), &RpcError::new(kind, message))
}

/// Diffs one file's findings against the connection's watch baseline.
///
/// Not watched: does nothing unless `register` is set, which installs
/// the findings as the new baseline silently (the registering
/// `file.watch` response already carries them). Watched and unchanged:
/// does nothing. Watched and changed: updates the baseline, bumps
/// [`Counter::WatchEvents`], and appends a `file.findings` notification
/// line to `notes`. Returns whether a notification was emitted.
#[allow(clippy::too_many_arguments)]
fn sync_watch(
    conn: &ConnCtx,
    repo: &str,
    path: &str,
    findings: Vec<Finding>,
    register: bool,
    notes: &mut Vec<String>,
    collector: &PipelineMetrics,
    aggregate: Option<&dyn MetricsSink>,
) -> bool {
    let rendered = findings.to_value().to_string();
    let key = (repo.to_owned(), path.to_owned());
    let changed = {
        let mut watches = conn.watches.lock().expect("watch table lock");
        match watches.get(&key) {
            Some(prev) => {
                let changed = *prev != rendered;
                if changed {
                    watches.insert(key, rendered);
                }
                changed
            }
            None if register => {
                watches.insert(key, rendered);
                false
            }
            None => false,
        }
    };
    if changed {
        collector.add(Counter::WatchEvents, 1);
        if let Some(sink) = aggregate {
            sink.add(Counter::WatchEvents, 1);
        }
        let event = FindingsEvent {
            repo: repo.to_owned(),
            path: path.to_owned(),
            findings,
        };
        notes.push(render_notification("file.findings", &event.to_value().to_string()));
    }
    changed
}

/// Projects one `Report` onto the wire, attaching the fixed source
/// line when the rewrite is unambiguous.
fn finding(report: &Report, files: &[SourceFile]) -> Finding {
    let v = &report.violation;
    let fixed = files
        .iter()
        .find(|f| f.repo == v.repo && f.path == v.path)
        .and_then(|f| f.text.lines().nth(v.line.saturating_sub(1) as usize))
        .and_then(|line| fix_line(line, v.original.as_str(), v.suggested.as_str()));
    Finding {
        repo: v.repo.clone(),
        path: v.path.clone(),
        line: v.line,
        original: v.original.as_str().to_owned(),
        suggested: v.suggested.as_str().to_owned(),
        pattern: v.pattern_ty.to_string(),
        decision: report.decision,
        rendered: v.rendered.clone(),
        fixed,
    }
}

fn source_file(file: &AnalyzeFile, lang: namer_syntax::Lang) -> SourceFile {
    SourceFile::new(
        file.repo.clone().unwrap_or_else(|| "client".to_owned()),
        file.path.clone(),
        file.content.clone(),
        lang,
    )
}

/// Merges the serve-level collector (request counter, `serve` and
/// `model_load` spans) into the session outcome's snapshot by summing
/// counters and phase stats.
fn merge_serve_metrics(mut base: MetricsSnapshot, extra: MetricsSnapshot) -> MetricsSnapshot {
    for (name, value) in extra.counters {
        if value != 0 {
            *base.counters.entry(name).or_insert(0) += value;
        }
    }
    for (name, stat) in extra.phases {
        if stat.calls == 0 && stat.wall_nanos == 0 && stat.busy_nanos == 0 {
            continue;
        }
        let merged = base.phases.entry(name).or_default();
        merged.calls += stat.calls;
        merged.wall_nanos += stat.wall_nanos;
        merged.busy_nanos += stat.busy_nanos;
    }
    base
}

/// Maps a model name onto a safe cache-subdirectory component.
fn safe_component(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_safe_component_sanitizes_separators() {
        assert_eq!(safe_component("py-model.bin"), "py-model.bin");
        assert_eq!(safe_component("a/b\\c:d"), "a_b_c_d");
    }

    #[test]
    fn serve_busy_response_recovers_legal_ids_only() {
        let resp = busy_response("{\"jsonrpc\":\"2.0\",\"id\":9,\"method\":\"ping\"}");
        assert_eq!(
            resp,
            "{\"jsonrpc\":\"2.0\",\"id\":9,\"error\":{\"code\":-32000,\
             \"message\":\"request queue full; retry later\",\
             \"data\":{\"kind\":\"server_busy\"}}}"
        );
        let resp = busy_response("{\"id\":[1]}");
        assert!(resp.starts_with("{\"jsonrpc\":\"2.0\",\"id\":null,"));
        let resp = busy_response("not json");
        assert!(resp.starts_with("{\"jsonrpc\":\"2.0\",\"id\":null,"));
    }

    #[test]
    fn serve_merge_sums_counters_and_phases() {
        let a = PipelineMetrics::new();
        a.add(Counter::FilesProcessed, 3);
        {
            let obs = Observer::new(&a);
            let _span = obs.phase(Phase::Scan);
        }
        let b = PipelineMetrics::new();
        b.add(Counter::FilesProcessed, 2);
        b.add(Counter::ServeRequests, 1);
        {
            let obs = Observer::new(&b);
            let _span = obs.phase(Phase::Serve);
        }
        let merged = merge_serve_metrics(a.snapshot(), b.snapshot());
        assert_eq!(merged.counter(Counter::FilesProcessed), 5);
        assert_eq!(merged.counter(Counter::ServeRequests), 1);
        assert_eq!(merged.phase(Phase::Scan).calls, 1);
        assert_eq!(merged.phase(Phase::Serve).calls, 1);
    }
}
