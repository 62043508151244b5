//! The Namer pipeline: the paper's primary contribution, end to end.
//!
//! *“Learning to Find Naming Issues with Big Code and Small Supervision”*
//! (PLDI 2021) combines (i) unsupervised mining of interpretable name
//! patterns from Big Code with (ii) a binary defect classifier trained on a
//! small manually labeled set of violations (Figure 1). This crate wires the
//! substrates together:
//!
//! * [`process`](mod@process) — parse → §4.1 analyses → statements → AST+ → name paths;
//! * [`detector`] — pattern mining and violation detection with the
//!   17 features of Table 1 ([`features`]); one scan entry point,
//!   [`Detector::scan`], covers full and incremental (scan-cache-backed,
//!   DESIGN.md §8) scans, and parallelises along the file axis with
//!   byte-identical results at any thread count;
//! * [`namer`] — the trained system: classifier fitting (SVM/LogReg/LDA with
//!   model selection), reports, and the "w/o C" / "w/o A" ablations of
//!   Tables 2 and 5;
//! * [`session`] — the detection entry point: [`NamerBuilder`] assembles a
//!   system from a trained [`Namer`], a [`SavedModel`], or raw mined parts,
//!   and [`DetectSession::run`] covers full and incremental
//!   (scan-cache-backed, DESIGN.md §8) scans behind one call;
//! * [`persist`] — model snapshots ([`SavedModel`]) and the digest-keyed
//!   [`ScanCache`] behind incremental runs, stored in the versioned binary
//!   container of [`binfmt`], the only persistence format (DESIGN.md §12);
//! * [`registry`] — the digest-addressed [`ModelRegistry`]: many models in
//!   one directory, loaded lazily and LRU-evicted under a memory budget;
//! * [`error`] — [`NamerError`], the unified error type of the builder,
//!   session, and CLI paths;
//! * [`vfs`] — the virtual-filesystem seam ([`Vfs`], [`RealFs`], the
//!   fault-injecting [`FaultVfs`]), crash-safe [`atomic_write`], and the
//!   bounded [`RetryPolicy`] (DESIGN.md §11);
//! * [`ingest`](mod@ingest) — fault-tolerant corpus ingestion:
//!   [`CorpusReader`] quarantines unreadable / non-UTF-8 inputs and
//!   symlink cycles into per-run [`Diagnostics`] instead of aborting.
//!
//! The pre-session `Namer::detect` / `detect_processed` /
//! `detect_incremental` / `from_parts` entry points have been removed, and
//! the `Detector` scan-method zoo (`violations*`, `scan_files*`) collapsed
//! into the single [`Detector::scan`]\([`ScanRequest`]\) call; the session
//! API is the one user-facing way in. Every stage is instrumented through the
//! `namer-observe` crate: attach a sink with `NamerBuilder::metrics` or read
//! [`DetectOutcome::metrics`] (DESIGN.md §10). See the `namer` facade crate
//! and the repository's `examples/` directory for runnable end-to-end usage;
//! this crate's unit tests exercise the pipeline on inline corpora.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binfmt;
pub mod detector;
pub mod error;
pub mod features;
pub mod fix;
pub mod ingest;
pub mod namer;
pub mod persist;
pub mod process;
pub mod registry;
pub mod sarif;
pub mod session;
pub mod vfs;

pub use detector::{
    CacheStats, Detector, DetectorSpec, FileScanState, RawHit, ScanInput, ScanRequest,
    ScanResult, Violation,
};
pub use error::NamerError;
pub use fix::{fix_line, rename_identifier};
pub use features::{LevelCounts, FEATURE_COUNT, FEATURE_NAMES};
pub use namer::{Namer, NamerConfig, Report};
pub use persist::{
    CacheEntry, CacheLoadStatus, PersistError, SavedModel, ScanCache, CACHE_FORMAT_VERSION,
};
pub use registry::{ModelRegistry, RegistryStats};
pub use sarif::to_sarif;
pub use process::{
    process, process_each, process_each_observed, process_parallel, process_parallel_observed,
    ProcessConfig, ProcessedCorpus,
};
pub use ingest::{CorpusReader, Diagnostics, Quarantined, QuarantineReason};
pub use session::{CacheOutcome, DetectOutcome, DetectSession, NamerBuilder};
pub use vfs::{
    atomic_write, Fault, FaultSchedule, FaultVfs, RealFs, RetryPolicy, Vfs, VfsEntry,
};
