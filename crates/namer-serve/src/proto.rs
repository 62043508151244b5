//! Wire protocol for `namer serve`: newline-delimited JSON-RPC 2.0.
//!
//! One request per line, one response per line, no framing headers.
//! Requests are JSON-RPC 2.0 objects (`{"jsonrpc":"2.0","id":…,`
//! `"method":…,"params":{…}}`); every request gets exactly one response
//! on the same connection, carrying the echoed `id`. The only other
//! server-to-client traffic is the `file.findings` push notification
//! (id-less, for files subscribed via `file.watch`), written after the
//! response of the request that changed the findings. Blank lines are
//! ignored. The full protocol — handshake, method schemas, error codes,
//! and the backpressure policy — is specified in DESIGN.md §13/§14 and
//! pinned byte-for-byte by the golden transcripts in
//! `tests/serve_protocol.rs`.
//!
//! Responses are rendered by [`render_ok`]/[`render_err`] with a
//! hand-formatted envelope and hand-written [`ToJson`] result bodies, so
//! key order is the order each `to_value` writes (struct declaration
//! order) and the wire format cannot drift silently. Params decode
//! through [`FromJson`] with the rules of a derived decoder: unknown keys
//! are ignored, absent `Option`s are `None`, absent flags are `false`.

use namer_base::json::{self, FromJson, ToJson, Value};
use namer_core::Diagnostics;
use namer_observe::MetricsSnapshot;

/// Protocol revision spoken by this server. Clients send the revision
/// they expect in `initialize`; a mismatch is rejected with
/// [`ErrorKind::IncompatibleProtocol`] and the connection stays
/// uninitialized (the client may retry with a supported revision).
pub const PROTOCOL_VERSION: u32 = 1;

/// Methods the server accepts, in the order advertised by `initialize`.
pub const METHODS: [&str; 8] = [
    "initialize",
    "ping",
    "shutdown",
    "file.analyze",
    "model.load",
    "cache.flush",
    "file.watch",
    "file.unwatch",
];

/// Typed error taxonomy. The numeric codes follow JSON-RPC 2.0
/// (`-32700..-32600` reserved range) with server-defined codes in the
/// `-32000..-32099` implementation range; the snake_case tag is
/// machine-matchable and travels in `error.data.kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not valid JSON.
    ParseError,
    /// Valid JSON, but not a well-formed JSON-RPC 2.0 request object.
    InvalidRequest,
    /// The request named a method the server does not implement.
    MethodNotFound,
    /// `params` failed to validate against the method's schema.
    InvalidParams,
    /// The server failed internally while executing a valid request.
    Internal,
    /// The bounded request queue was full; the request was rejected
    /// without being buffered. Retry after draining in-flight work.
    ServerBusy,
    /// A method other than `initialize` arrived before the handshake.
    NotInitialized,
    /// `initialize` arrived twice on one connection.
    AlreadyInitialized,
    /// The client asked for a protocol revision the server cannot speak.
    IncompatibleProtocol,
    /// The requested model is unknown, failed to load, or failed to
    /// build a detection session.
    ModelError,
    /// The server has accepted `shutdown` and no longer executes
    /// requests.
    ShuttingDown,
}

impl ErrorKind {
    /// The JSON-RPC numeric error code for this kind.
    pub fn code(self) -> i64 {
        match self {
            ErrorKind::ParseError => -32700,
            ErrorKind::InvalidRequest => -32600,
            ErrorKind::MethodNotFound => -32601,
            ErrorKind::InvalidParams => -32602,
            ErrorKind::Internal => -32603,
            ErrorKind::ServerBusy => -32000,
            ErrorKind::NotInitialized => -32001,
            ErrorKind::AlreadyInitialized => -32002,
            ErrorKind::IncompatibleProtocol => -32003,
            ErrorKind::ModelError => -32004,
            ErrorKind::ShuttingDown => -32005,
        }
    }

    /// The snake_case tag carried in `error.data.kind`.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::ParseError => "parse_error",
            ErrorKind::InvalidRequest => "invalid_request",
            ErrorKind::MethodNotFound => "method_not_found",
            ErrorKind::InvalidParams => "invalid_params",
            ErrorKind::Internal => "internal",
            ErrorKind::ServerBusy => "server_busy",
            ErrorKind::NotInitialized => "not_initialized",
            ErrorKind::AlreadyInitialized => "already_initialized",
            ErrorKind::IncompatibleProtocol => "incompatible_protocol",
            ErrorKind::ModelError => "model_error",
            ErrorKind::ShuttingDown => "shutting_down",
        }
    }
}

/// A typed protocol error: kind + human message + optional free-form
/// detail. Rendered as `{"code":…,"message":…,"data":{"kind":…[,"detail":…]}}`.
#[derive(Clone, Debug)]
pub struct RpcError {
    /// The error taxonomy entry (fixes the code and the data kind).
    pub kind: ErrorKind,
    /// One-line human-readable description.
    pub message: String,
    /// Optional extra context (e.g. a decode or I/O error string).
    /// Detail text may vary across library versions, so golden
    /// transcripts only pin responses without it.
    pub detail: Option<String>,
}

impl RpcError {
    /// Builds an error with no detail.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> RpcError {
        RpcError {
            kind,
            message: message.into(),
            detail: None,
        }
    }

    /// Attaches free-form detail text.
    pub fn with_detail(mut self, detail: impl Into<String>) -> RpcError {
        self.detail = Some(detail.into());
        self
    }
}

/// A parsed, envelope-validated request. `params` is `Null` when the
/// client omitted it (methods with all-optional parameters accept
/// that).
#[derive(Clone, Debug)]
pub struct Request {
    /// The request id, echoed verbatim in the response. A string,
    /// number, or `null` per JSON-RPC 2.0.
    pub id: Value,
    /// The method name.
    pub method: String,
    /// The params object, or `Null` when absent.
    pub params: Value,
}

/// Parses and validates one wire line into a [`Request`].
///
/// On failure returns the best-effort id to echo (when the envelope
/// carried a legal one) plus the typed error; the caller renders that
/// with [`render_err`]. Callers should skip blank lines before calling.
pub fn parse_line(line: &str) -> Result<Request, (Option<Value>, RpcError)> {
    let obj = Value::parse(line)
        .map_err(|_| (None, RpcError::new(ErrorKind::ParseError, "invalid JSON")))?;
    if !obj.is_object() {
        return Err((
            None,
            RpcError::new(ErrorKind::InvalidRequest, "request must be a JSON object"),
        ));
    }
    let id = obj.get("id").cloned();
    let id_ok = id.as_ref().is_some_and(legal_id);
    let echo = if id_ok { id.clone() } else { None };
    if obj.get("jsonrpc").and_then(Value::as_str) != Some("2.0") {
        return Err((
            echo,
            RpcError::new(
                ErrorKind::InvalidRequest,
                "missing or wrong \"jsonrpc\" (expected \"2.0\")",
            ),
        ));
    }
    if !id_ok {
        let message = if id.is_none() {
            "missing request id"
        } else {
            "request id must be a string, number, or null"
        };
        return Err((None, RpcError::new(ErrorKind::InvalidRequest, message)));
    }
    let Some(method) = obj.get("method").and_then(Value::as_str) else {
        return Err((echo, RpcError::new(ErrorKind::InvalidRequest, "missing method")));
    };
    let params = obj.get("params").cloned().unwrap_or(Value::Null);
    if !(params.is_null() || params.is_object()) {
        return Err((
            echo,
            RpcError::new(ErrorKind::InvalidParams, "params must be an object"),
        ));
    }
    Ok(Request {
        id: id.expect("id validated above"),
        method: method.to_owned(),
        params,
    })
}

/// Whether `id` is a legal JSON-RPC request id: a string, number, or
/// `null`.
pub fn legal_id(id: &Value) -> bool {
    matches!(id, Value::Str(_) | Value::Null) || id.is_number()
}

/// Decodes a method's params from the request's `params` value.
/// `Null` (params omitted) is treated as the empty object, so methods
/// whose parameters are all optional accept a bare request.
pub fn params_from<T: FromJson>(params: &Value) -> Result<T, RpcError> {
    let empty = Value::Object(Vec::new());
    let value = if params.is_null() { &empty } else { params };
    T::from_value(value).map_err(|e| {
        RpcError::new(ErrorKind::InvalidParams, "invalid params").with_detail(e.to_string())
    })
}

/// Renders a success response line (no trailing newline).
/// `result_json` must already be serialized JSON.
pub fn render_ok(id: &Value, result_json: &str) -> String {
    format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"result\":{result_json}}}")
}

/// Renders an error response line (no trailing newline). `id` is
/// `None` when the request's id could not be recovered, in which case
/// JSON-RPC mandates `"id":null`.
pub fn render_err(id: Option<&Value>, err: &RpcError) -> String {
    let id = id.unwrap_or(&Value::Null);
    let message = err.message.to_value();
    let mut data = format!("{{\"kind\":\"{}\"", err.kind.tag());
    if let Some(detail) = &err.detail {
        data.push_str(",\"detail\":");
        data.push_str(&detail.to_value().to_string());
    }
    data.push('}');
    format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"error\":{{\"code\":{},\"message\":{message},\"data\":{data}}}}}",
        err.kind.code()
    )
}

// ---------------------------------------------------------------------------
// Method params (client → server)
// ---------------------------------------------------------------------------

/// `initialize` params: the handshake.
#[derive(Clone, Debug)]
pub struct InitializeParams {
    /// Protocol revision the client speaks; must equal
    /// [`PROTOCOL_VERSION`].
    pub protocol: u32,
    /// Optional client identification string (logged, never parsed).
    pub client: Option<String>,
}

/// One file in a `file.analyze` batch.
#[derive(Clone, Debug)]
pub struct AnalyzeFile {
    /// Repository label for reports; defaults to `"client"`.
    pub repo: Option<String>,
    /// File path (used for reports and cache keys within the batch).
    pub path: String,
    /// Full file contents.
    pub content: String,
}

/// `file.analyze` params: a batch of files to detect over.
#[derive(Clone, Debug)]
pub struct AnalyzeParams {
    /// The files to analyze, all in the served model's language.
    pub files: Vec<AnalyzeFile>,
    /// Model name to analyze with; optional when the server hosts
    /// exactly one model.
    pub model: Option<String>,
    /// Restrict findings to files whose content changed since the
    /// previous cached scan (requires a cache-backed server).
    pub changed_only: bool,
}

/// `model.load` params: pre-warm a model into a resident session.
#[derive(Clone, Debug)]
pub struct ModelLoadParams {
    /// The model name (registry file stem, or the single hosted model).
    pub model: String,
}

/// `cache.flush` params. With no params every resident session's dirty
/// cache is persisted.
#[derive(Clone, Debug)]
pub struct CacheFlushParams {
    /// Restrict to one resident model's cache.
    pub model: Option<String>,
    /// Also clear the in-memory cache before persisting (next analyze
    /// re-scans everything fresh).
    pub clear: bool,
}

/// `file.watch` params: subscribe one file to `file.findings` push
/// notifications. The server analyzes `content` immediately and stores
/// the findings as the subscription's baseline; clients re-send
/// `file.watch` with fresh content on every edit, and any request
/// (watch or analyze) whose findings for the file differ from the
/// baseline triggers a notification.
#[derive(Clone, Debug)]
pub struct WatchParams {
    /// Repository label; defaults to `"client"` like `file.analyze`.
    pub repo: Option<String>,
    /// File path — together with `repo`, the subscription key.
    pub path: String,
    /// Current file contents.
    pub content: String,
    /// Model to analyze with; optional when the server hosts exactly
    /// one model.
    pub model: Option<String>,
}

/// `file.unwatch` params: drop one subscription.
#[derive(Clone, Debug)]
pub struct UnwatchParams {
    /// Repository label; defaults to `"client"`.
    pub repo: Option<String>,
    /// File path of the subscription to drop.
    pub path: String,
}

// ---------------------------------------------------------------------------
// Method results (server → client) — field order is wire order.
// ---------------------------------------------------------------------------

/// Feature flags advertised by `initialize`. Additions here are
/// protocol-compatible: revision-1 clients that predate a capability
/// simply ignore the unknown key (pinned by
/// `serve_old_clients_ignore_new_initialize_fields`).
#[derive(Clone, Debug)]
pub struct Capabilities {
    /// `file.watch`/`file.unwatch` are accepted and the server pushes
    /// `file.findings` notifications for watched files.
    pub watch: bool,
    /// CLI names of the language frontends this server can analyze, in
    /// registry order (trailing so revision-1 clients parse unchanged).
    pub languages: Vec<&'static str>,
}

/// `initialize` result.
#[derive(Clone, Debug)]
pub struct InitializeResult {
    /// Protocol revision the server speaks.
    pub protocol: u32,
    /// Server implementation name.
    pub server: &'static str,
    /// Server crate version.
    pub version: &'static str,
    /// Model names this server can analyze with.
    pub models: Vec<String>,
    /// Methods the server accepts.
    pub methods: Vec<&'static str>,
    /// Feature flags (trailing so older clients parse unchanged).
    pub capabilities: Capabilities,
}

/// One finding in a `file.analyze` result: the session's
/// `Report`/`Violation` projected onto the wire.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Repository label of the offending file.
    pub repo: String,
    /// Path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The name as written.
    pub original: String,
    /// The suggested replacement name.
    pub suggested: String,
    /// Pattern family (`"consistency"` or `"confusing-word"`).
    pub pattern: String,
    /// Classifier decision value (more positive = more confident).
    pub decision: f64,
    /// The matched statement, rendered.
    pub rendered: String,
    /// The offending source line with the fix applied, when the
    /// rewrite is unambiguous.
    pub fixed: Option<String>,
}

/// Cache accounting for one `file.analyze` request; absent when the
/// server runs cacheless.
#[derive(Clone, Debug)]
pub struct CacheSummary {
    /// Files served from the warm cache.
    pub reused: usize,
    /// Files scanned fresh this request.
    pub fresh: usize,
    /// Files whose parse failure was replayed from cache.
    pub parse_failures: usize,
    /// Files whose content changed since the previous cached scan.
    pub changed: usize,
}

/// Batch-level accounting for one `file.analyze` request.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Files in the request batch.
    pub files: usize,
    /// Findings returned (after any `changed_only` filter).
    pub findings: usize,
    /// Cache accounting, when the server is cache-backed.
    pub cache: Option<CacheSummary>,
}

/// `file.analyze` result.
#[derive(Clone, Debug)]
pub struct AnalyzeResult {
    /// The findings, in deterministic pipeline order.
    pub findings: Vec<Finding>,
    /// Batch accounting.
    pub summary: Summary,
    /// Ingestion diagnostics (quarantines, I/O retries) for this
    /// request.
    pub diagnostics: Diagnostics,
    /// Per-request metrics snapshot (DESIGN.md §10); timings are
    /// zeroed when the server runs `--deterministic`.
    pub metrics: MetricsSnapshot,
}

/// `model.load` result.
#[derive(Clone, Debug)]
pub struct ModelLoadResult {
    /// The resolved model name now resident.
    pub model: String,
    /// The model's language — a registry name such as `"Python"`, `"Java"`,
    /// or `"JavaScript"`.
    pub lang: String,
    /// Per-request metrics snapshot (includes the `model_load` phase
    /// when this request actually built the session).
    pub metrics: MetricsSnapshot,
}

/// `cache.flush` result.
#[derive(Clone, Debug)]
pub struct CacheFlushResult {
    /// Models whose dirty cache was persisted by this request.
    pub flushed: Vec<String>,
    /// Models whose in-memory cache was cleared by this request.
    pub cleared: Vec<String>,
    /// Per-request metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// `file.watch` result: the subscription count plus the file's current
/// findings (the stored baseline — subsequent notifications only fire
/// when findings diverge from it).
#[derive(Clone, Debug)]
pub struct WatchResult {
    /// Watched files on this connection after the call.
    pub watching: usize,
    /// Current findings for the watched file, in pipeline order.
    pub findings: Vec<Finding>,
    /// Per-request metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// `file.unwatch` result.
#[derive(Clone, Debug)]
pub struct UnwatchResult {
    /// Whether a subscription existed and was removed.
    pub removed: bool,
    /// Watched files remaining on this connection.
    pub watching: usize,
}

/// `file.findings` notification params: one watched file's findings
/// changed. The full (possibly empty) finding set is pushed, not a
/// delta — clients replace their state for the file wholesale.
#[derive(Clone, Debug)]
pub struct FindingsEvent {
    /// Repository label of the watched file.
    pub repo: String,
    /// Path of the watched file.
    pub path: String,
    /// The file's complete current findings.
    pub findings: Vec<Finding>,
}

/// Renders a server-push notification line (no `id`, no trailing
/// newline). `params_json` must already be serialized JSON.
pub fn render_notification(method: &str, params_json: &str) -> String {
    format!("{{\"jsonrpc\":\"2.0\",\"method\":\"{method}\",\"params\":{params_json}}}")
}

/// Canned `ping` result body.
pub const PONG: &str = "{\"pong\":true}";

/// Canned `shutdown` result body.
pub const OK_TRUE: &str = "{\"ok\":true}";

// ---------------------------------------------------------------------------
// JSON conversions — `to_value` field order is wire order.
// ---------------------------------------------------------------------------

impl FromJson for InitializeParams {
    fn from_value(v: &Value) -> Result<InitializeParams, json::Error> {
        Ok(InitializeParams {
            protocol: v.field("protocol")?,
            client: v.field("client")?,
        })
    }
}

impl FromJson for AnalyzeFile {
    fn from_value(v: &Value) -> Result<AnalyzeFile, json::Error> {
        Ok(AnalyzeFile {
            repo: v.field("repo")?,
            path: v.field("path")?,
            content: v.field("content")?,
        })
    }
}

impl FromJson for AnalyzeParams {
    fn from_value(v: &Value) -> Result<AnalyzeParams, json::Error> {
        Ok(AnalyzeParams {
            files: v.field("files")?,
            model: v.field("model")?,
            changed_only: v.field_or_default("changed_only")?,
        })
    }
}

impl FromJson for ModelLoadParams {
    fn from_value(v: &Value) -> Result<ModelLoadParams, json::Error> {
        Ok(ModelLoadParams {
            model: v.field("model")?,
        })
    }
}

impl FromJson for CacheFlushParams {
    fn from_value(v: &Value) -> Result<CacheFlushParams, json::Error> {
        Ok(CacheFlushParams {
            model: v.field("model")?,
            clear: v.field_or_default("clear")?,
        })
    }
}

impl FromJson for WatchParams {
    fn from_value(v: &Value) -> Result<WatchParams, json::Error> {
        Ok(WatchParams {
            repo: v.field("repo")?,
            path: v.field("path")?,
            content: v.field("content")?,
            model: v.field("model")?,
        })
    }
}

impl FromJson for UnwatchParams {
    fn from_value(v: &Value) -> Result<UnwatchParams, json::Error> {
        Ok(UnwatchParams {
            repo: v.field("repo")?,
            path: v.field("path")?,
        })
    }
}

namer_base::to_json_fields!(Capabilities { watch, languages });

namer_base::to_json_fields!(InitializeResult {
    protocol,
    server,
    version,
    models,
    methods,
    capabilities,
});

namer_base::to_json_fields!(Finding {
    repo,
    path,
    line,
    original,
    suggested,
    pattern,
    decision,
    rendered,
    fixed,
});

namer_base::to_json_fields!(CacheSummary { reused, fresh, parse_failures, changed });

namer_base::to_json_fields!(Summary { files, findings, cache });

namer_base::to_json_fields!(AnalyzeResult { findings, summary, diagnostics, metrics });

namer_base::to_json_fields!(ModelLoadResult { model, lang, metrics });

namer_base::to_json_fields!(CacheFlushResult { flushed, cleared, metrics });

namer_base::to_json_fields!(WatchResult { watching, findings, metrics });

namer_base::to_json_fields!(UnwatchResult { removed, watching });

namer_base::to_json_fields!(FindingsEvent { repo, path, findings });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_parse_rejects_non_json() {
        let (id, err) = parse_line("{oops").unwrap_err();
        assert!(id.is_none());
        assert_eq!(err.kind, ErrorKind::ParseError);
        assert_eq!(
            render_err(id.as_ref(), &err),
            "{\"jsonrpc\":\"2.0\",\"id\":null,\"error\":{\"code\":-32700,\
             \"message\":\"invalid JSON\",\"data\":{\"kind\":\"parse_error\"}}}"
        );
    }

    #[test]
    fn serve_parse_rejects_bad_envelope() {
        // Non-object.
        let (_, err) = parse_line("[1,2]").unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        // Wrong jsonrpc version, but a legal id to echo.
        let (id, err) = parse_line("{\"jsonrpc\":\"1.0\",\"id\":7,\"method\":\"ping\"}").unwrap_err();
        assert_eq!(id, Some(Value::from(7)));
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        // Missing id.
        let (id, err) = parse_line("{\"jsonrpc\":\"2.0\",\"method\":\"ping\"}").unwrap_err();
        assert!(id.is_none());
        assert_eq!(err.message, "missing request id");
        // Illegal id type.
        let (id, err) =
            parse_line("{\"jsonrpc\":\"2.0\",\"id\":[1],\"method\":\"ping\"}").unwrap_err();
        assert!(id.is_none());
        assert_eq!(err.message, "request id must be a string, number, or null");
        // Missing method.
        let (id, err) = parse_line("{\"jsonrpc\":\"2.0\",\"id\":3}").unwrap_err();
        assert_eq!(id, Some(Value::from(3)));
        assert_eq!(err.message, "missing method");
        // Array params.
        let (_, err) =
            parse_line("{\"jsonrpc\":\"2.0\",\"id\":3,\"method\":\"ping\",\"params\":[]}")
                .unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParams);
    }

    #[test]
    fn serve_parse_accepts_string_and_null_ids() {
        let req = parse_line("{\"jsonrpc\":\"2.0\",\"id\":\"abc\",\"method\":\"ping\"}").unwrap();
        assert_eq!(req.id, Value::from("abc"));
        assert_eq!(req.method, "ping");
        assert!(req.params.is_null());
        let req = parse_line("{\"jsonrpc\":\"2.0\",\"id\":null,\"method\":\"ping\"}").unwrap();
        assert_eq!(req.id, Value::Null);
    }

    #[test]
    fn serve_render_ok_pins_envelope_bytes() {
        assert_eq!(
            render_ok(&Value::from(5), PONG),
            "{\"jsonrpc\":\"2.0\",\"id\":5,\"result\":{\"pong\":true}}"
        );
        assert_eq!(
            render_ok(&Value::from("abc"), OK_TRUE),
            "{\"jsonrpc\":\"2.0\",\"id\":\"abc\",\"result\":{\"ok\":true}}"
        );
    }

    #[test]
    fn serve_render_err_includes_detail_when_present() {
        let err = RpcError::new(ErrorKind::InvalidParams, "invalid params").with_detail("boom");
        assert_eq!(
            render_err(Some(&Value::from(2)), &err),
            "{\"jsonrpc\":\"2.0\",\"id\":2,\"error\":{\"code\":-32602,\
             \"message\":\"invalid params\",\"data\":{\"kind\":\"invalid_params\",\
             \"detail\":\"boom\"}}}"
        );
    }

    #[test]
    fn serve_error_codes_are_unique_and_tagged() {
        let kinds = [
            ErrorKind::ParseError,
            ErrorKind::InvalidRequest,
            ErrorKind::MethodNotFound,
            ErrorKind::InvalidParams,
            ErrorKind::Internal,
            ErrorKind::ServerBusy,
            ErrorKind::NotInitialized,
            ErrorKind::AlreadyInitialized,
            ErrorKind::IncompatibleProtocol,
            ErrorKind::ModelError,
            ErrorKind::ShuttingDown,
        ];
        let mut codes: Vec<i64> = kinds.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), kinds.len(), "duplicate error code");
        for kind in kinds {
            assert!(!kind.tag().is_empty());
            assert!(kind.tag().chars().all(|c| c == '_' || c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn serve_render_notification_has_no_id() {
        assert_eq!(
            render_notification("file.findings", "{\"repo\":\"r\",\"path\":\"p\",\"findings\":[]}"),
            "{\"jsonrpc\":\"2.0\",\"method\":\"file.findings\",\
             \"params\":{\"repo\":\"r\",\"path\":\"p\",\"findings\":[]}}"
        );
    }

    #[test]
    fn serve_watch_params_validate() {
        let p: WatchParams = params_from(&namer_base::json!({
            "path": "a.py",
            "content": "x = 1\n",
        }))
        .unwrap();
        assert!(p.repo.is_none());
        assert!(p.model.is_none());
        assert_eq!(p.path, "a.py");
        let err = params_from::<WatchParams>(&Value::Null).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParams);
        let p: UnwatchParams = params_from(&namer_base::json!({"path": "a.py"})).unwrap();
        assert_eq!(p.path, "a.py");
    }

    #[test]
    fn serve_params_null_means_empty_object() {
        let p: CacheFlushParams = params_from(&Value::Null).unwrap();
        assert!(p.model.is_none());
        assert!(!p.clear);
        let err = params_from::<AnalyzeParams>(&Value::Null).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParams);
        assert!(err.detail.is_some());
    }
}
