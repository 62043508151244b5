//! `namer-serve`: a long-lived JSON-RPC 2.0 detection daemon on the
//! Namer session API.
//!
//! The daemon keeps trained models, warm scan caches, and the
//! configured thread count resident, and answers newline-delimited
//! JSON-RPC requests over stdio ([`serve_stdio`]) or TCP
//! ([`serve_listener`]) — the bridge from "CLI run per invocation" to
//! "service editor/CI clients hit at interactive latency".
//!
//! * [`proto`] — the wire protocol: request parsing, the typed error
//!   taxonomy, method param/result schemas, and byte-stable response
//!   rendering.
//! * [`server`] — the resident engine, the transport-agnostic
//!   [`ServeState`] protocol layer, and the three transports.
//!
//! The protocol is specified in DESIGN.md §13 and pinned by golden
//! transcripts in `tests/serve_protocol.rs`; concurrency determinism
//! and crash behavior are covered by `tests/serve_determinism.rs` and
//! `tests/serve_faults.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod server;

pub use proto::{
    parse_line, render_err, render_notification, render_ok, AnalyzeFile, AnalyzeParams,
    AnalyzeResult, CacheFlushParams, CacheFlushResult, CacheSummary, Capabilities, ErrorKind,
    Finding, FindingsEvent, InitializeParams, InitializeResult, ModelLoadParams, ModelLoadResult,
    Request, RpcError, Summary, UnwatchParams, UnwatchResult, WatchParams, WatchResult, METHODS,
    PROTOCOL_VERSION,
};
pub use server::{
    serve_listener, serve_stdio, serve_transcript, ConnCtx, ModelHost, ServeConfig, ServeState,
};
