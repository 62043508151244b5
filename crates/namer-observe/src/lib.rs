//! Pipeline observability for Namer (DESIGN.md §10).
//!
//! Every stage of the mine/scan pipeline reports into a [`MetricsSink`]:
//! monotonic [`Counter`]s, per-[`Phase`] wall-clock timings (recorded by
//! RAII [`PhaseGuard`]s) and per-phase worker busy time. Instrumented code
//! holds an [`Observer`] — a `Copy` handle that
//! is either a live borrow of a sink or inert — so uninstrumented callers
//! pay one branch per event and no allocation ever.
//!
//! The default collector is [`PipelineMetrics`]: lock-free atomic arrays,
//! shared across worker threads by reference, snapshotted into the
//! serialisable [`MetricsSnapshot`] after a run.
//!
//! # Determinism contract
//!
//! Counter totals are **deterministic-sum invariant**: instrumentation
//! points are placed so every counted event is attributed exactly once no
//! matter how work is scheduled, so totals are identical at any file-thread
//! count (and between full and cached scans of the same warmth). Timings are
//! scheduling-dependent by nature and carry no such guarantee.
//!
//! ```
//! use namer_observe::{Counter, Observer, Phase, PipelineMetrics};
//!
//! let metrics = PipelineMetrics::new();
//! let obs = metrics.observer();
//! {
//!     let _guard = obs.phase(Phase::Scan);
//!     obs.add(Counter::StatementsScanned, 42);
//! }
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter(Counter::StatementsScanned), 42);
//! assert_eq!(snap.phase(Phase::Scan).calls, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use namer_base::json::{self, FromJson, ToJson, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Version of the [`MetricsSnapshot`] JSON schema (the `--metrics-out`
/// format). Bumped whenever a key is renamed or removed; adding keys keeps
/// the version.
pub const SCHEMA_VERSION: u32 = 2;

/// Monotonic event counters, each attributed exactly once per event (the
/// deterministic half of the metrics — see the crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Files that parsed and preprocessed successfully.
    FilesProcessed,
    /// Files skipped because they failed to parse.
    ParseFailures,
    /// Statements extracted by preprocessing.
    StatementsProcessed,
    /// Confusing word pairs mined from commit histories.
    PairsMined,
    /// Candidate patterns emitted by the FP-tree walk (before
    /// `pruneUncommon`).
    PatternCandidates,
    /// Patterns surviving `pruneUncommon` (the detector's final set).
    PatternsMined,
    /// Files covered by scan assembly (cached + fresh).
    FilesScanned,
    /// Statements covered by scan assembly (cached + fresh).
    StatementsScanned,
    /// Pattern matches (condition held) across the scanned corpus.
    PatternMatches,
    /// Pattern satisfactions (condition and deduction held).
    PatternSatisfactions,
    /// Violations before per-location deduplication.
    ViolationsRaw,
    /// Report candidates after deduplication.
    ViolationsDeduped,
    /// Reports the classifier let through.
    ReportsEmitted,
    /// Input files served from pre-existing scan-cache entries.
    CacheHits,
    /// Input files that missed the scan cache and scanned fresh.
    CacheMisses,
    /// Input files recorded (now or previously) as unparsable in the cache.
    CacheParseFailures,
    /// Runs whose on-disk cache degraded to a cold scan (corrupt, version
    /// mismatch, or fingerprint mismatch).
    CacheDegradedCold,
    /// Transient I/O errors recovered by the bounded-retry policy
    /// (DESIGN.md §11).
    IoRetries,
    /// Input files quarantined during ingestion (unreadable, non-UTF-8,
    /// or symlink-cycle skips; DESIGN.md §11).
    QuarantinedFiles,
    /// Model-registry lookups served from an already-resident model
    /// (DESIGN.md §12).
    RegistryHits,
    /// Model-registry lookups that had to load the model from disk.
    RegistryMisses,
    /// Models evicted from the registry to stay under its memory budget.
    RegistryEvictions,
    /// JSON-RPC requests the detection daemon accepted for execution
    /// (answered with a result *or* a typed error — rejections are counted
    /// separately; DESIGN.md §13).
    ServeRequests,
    /// JSON-RPC requests rejected with the typed `server_busy` error
    /// because the daemon's bounded request queue was full (DESIGN.md §13).
    ServeRejectedBusy,
    /// Findings-change events pushed to watchers (`namer watch` diffs and
    /// `file.findings` notifications; DESIGN.md §14).
    WatchEvents,
}

impl Counter {
    /// Every counter, in declaration order (= snapshot key order modulo the
    /// alphabetical `BTreeMap` sort).
    pub const ALL: [Counter; 25] = [
        Counter::FilesProcessed,
        Counter::ParseFailures,
        Counter::StatementsProcessed,
        Counter::PairsMined,
        Counter::PatternCandidates,
        Counter::PatternsMined,
        Counter::FilesScanned,
        Counter::StatementsScanned,
        Counter::PatternMatches,
        Counter::PatternSatisfactions,
        Counter::ViolationsRaw,
        Counter::ViolationsDeduped,
        Counter::ReportsEmitted,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheParseFailures,
        Counter::CacheDegradedCold,
        Counter::IoRetries,
        Counter::QuarantinedFiles,
        Counter::RegistryHits,
        Counter::RegistryMisses,
        Counter::RegistryEvictions,
        Counter::ServeRequests,
        Counter::ServeRejectedBusy,
        Counter::WatchEvents,
    ];

    /// Stable snake_case name used as the snapshot/JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FilesProcessed => "files_processed",
            Counter::ParseFailures => "parse_failures",
            Counter::StatementsProcessed => "statements_processed",
            Counter::PairsMined => "pairs_mined",
            Counter::PatternCandidates => "pattern_candidates",
            Counter::PatternsMined => "patterns_mined",
            Counter::FilesScanned => "files_scanned",
            Counter::StatementsScanned => "statements_scanned",
            Counter::PatternMatches => "pattern_matches",
            Counter::PatternSatisfactions => "pattern_satisfactions",
            Counter::ViolationsRaw => "violations_raw",
            Counter::ViolationsDeduped => "violations_deduped",
            Counter::ReportsEmitted => "reports_emitted",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheParseFailures => "cache_parse_failures",
            Counter::CacheDegradedCold => "cache_degraded_cold",
            Counter::IoRetries => "io_retries",
            Counter::QuarantinedFiles => "quarantined_files",
            Counter::RegistryHits => "registry_hits",
            Counter::RegistryMisses => "registry_misses",
            Counter::RegistryEvictions => "registry_evictions",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeRejectedBusy => "serve_rejected_busy",
            Counter::WatchEvents => "watch_events",
        }
    }
}

/// Timed pipeline phases. Wall-clock comes from one [`PhaseGuard`] around
/// the phase; busy time is the sum each worker thread contributes inside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// One whole `DetectSession` run (wraps everything below).
    Detect,
    /// One whole training run (process + mine + scan + classifier fit).
    Train,
    /// Preprocessing: parse → analyses → statements → name paths.
    Process,
    /// Parsing alone (busy time only; nested inside `Process`).
    Parse,
    /// All of mining (wraps the three `Mine*` sub-phases).
    Mine,
    /// Confusing-pair mining from commit histories.
    MinePairs,
    /// FP-tree growth and the candidate-generating tree walk.
    MineCandidates,
    /// The `pruneUncommon` recount and filter.
    MinePrune,
    /// The per-file scan pass (file-chunk workers).
    Scan,
    /// Scan assembly: repo aggregates, features, deduplication.
    Assemble,
    /// Filtering violations through the defect classifier.
    Classify,
    /// Scan-cache partitioning and per-file state lookup.
    CacheLookup,
    /// Pruning and saving the scan cache back to disk.
    CacheSave,
    /// Loading (reading + decoding) a persisted model, in either format.
    ModelLoad,
    /// One executed daemon request: params decode, detection, and result
    /// assembly. Envelope rendering and the response write happen outside
    /// the span (DESIGN.md §13).
    Serve,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 15] = [
        Phase::Detect,
        Phase::Train,
        Phase::Process,
        Phase::Parse,
        Phase::Mine,
        Phase::MinePairs,
        Phase::MineCandidates,
        Phase::MinePrune,
        Phase::Scan,
        Phase::Assemble,
        Phase::Classify,
        Phase::CacheLookup,
        Phase::CacheSave,
        Phase::ModelLoad,
        Phase::Serve,
    ];

    /// Stable snake_case name used as the snapshot/JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Detect => "detect",
            Phase::Train => "train",
            Phase::Process => "process",
            Phase::Parse => "parse",
            Phase::Mine => "mine",
            Phase::MinePairs => "mine_pairs",
            Phase::MineCandidates => "mine_candidates",
            Phase::MinePrune => "mine_prune",
            Phase::Scan => "scan",
            Phase::Assemble => "assemble",
            Phase::Classify => "classify",
            Phase::CacheLookup => "cache_lookup",
            Phase::CacheSave => "cache_save",
            Phase::ModelLoad => "model_load",
            Phase::Serve => "serve",
        }
    }
}

/// Where instrumented code reports. Implementations must be cheap and
/// thread-safe: events arrive concurrently from worker threads, pre-batched
/// per chunk (see DESIGN.md §10's overhead budget).
pub trait MetricsSink: Send + Sync {
    /// Adds `n` to `counter`.
    fn add(&self, counter: Counter, n: u64);
    /// Records one completed span of `phase` taking `wall_nanos`.
    fn time(&self, phase: Phase, wall_nanos: u64);
    /// Adds `nanos` of worker busy time to `phase`.
    fn busy(&self, phase: Phase, nanos: u64);
}

/// A `Copy` handle threaded through the pipeline: either a live borrow of a
/// [`MetricsSink`] or inert ([`Observer::none`]), in which case every method
/// is a single branch.
#[derive(Clone, Copy, Default)]
pub struct Observer<'a> {
    sink: Option<&'a dyn MetricsSink>,
}

impl<'a> Observer<'a> {
    /// An inert observer: all events are dropped.
    pub fn none() -> Observer<'a> {
        Observer { sink: None }
    }

    /// An observer reporting into `sink`.
    pub fn new(sink: &'a dyn MetricsSink) -> Observer<'a> {
        Observer { sink: Some(sink) }
    }

    /// `true` when events actually land somewhere. Workers use this to skip
    /// clock reads entirely on the inert path.
    pub fn is_active(&self) -> bool {
        self.sink.is_some()
    }

    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(sink) = self.sink {
            sink.add(counter, n);
        }
    }

    /// Adds `nanos` of worker busy time to `phase`.
    pub fn busy(&self, phase: Phase, nanos: u64) {
        if let Some(sink) = self.sink {
            sink.busy(phase, nanos);
        }
    }

    /// Starts timing `phase`; the returned guard records the wall time when
    /// dropped. Inert observers return an inert guard (no clock read).
    pub fn phase(&self, phase: Phase) -> PhaseGuard<'a> {
        PhaseGuard {
            span: self.sink.map(|sink| (sink, phase, Instant::now())),
        }
    }
}

/// RAII wall-clock timer for one [`Phase`] span; created by
/// [`Observer::phase`], reports on drop.
pub struct PhaseGuard<'a> {
    span: Option<(&'a dyn MetricsSink, Phase, Instant)>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some((sink, phase, start)) = self.span.take() {
            sink.time(phase, start.elapsed().as_nanos() as u64);
        }
    }
}

/// The default lock-free collector: fixed atomic arrays, one relaxed
/// fetch-add per event. Share it across threads by reference (or via the
/// observer it hands out) and [`PipelineMetrics::snapshot`] when done.
#[derive(Debug)]
pub struct PipelineMetrics {
    counters: [AtomicU64; Counter::ALL.len()],
    wall: [AtomicU64; Phase::ALL.len()],
    busy: [AtomicU64; Phase::ALL.len()],
    calls: [AtomicU64; Phase::ALL.len()],
}

impl Default for PipelineMetrics {
    fn default() -> PipelineMetrics {
        PipelineMetrics::new()
    }
}

impl PipelineMetrics {
    /// A zeroed collector.
    pub fn new() -> PipelineMetrics {
        PipelineMetrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            wall: std::array::from_fn(|_| AtomicU64::new(0)),
            busy: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// An observer reporting into this collector.
    pub fn observer(&self) -> Observer<'_> {
        Observer::new(self)
    }

    /// Current total of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Freezes the current totals into a serialisable snapshot. Every
    /// counter and phase key is present (zeros included), so consumers can
    /// validate against the full key set.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_owned(), self.counter(c)))
            .collect();
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let i = p as usize;
                (
                    p.name().to_owned(),
                    PhaseStat {
                        calls: self.calls[i].load(Ordering::Relaxed),
                        wall_nanos: self.wall[i].load(Ordering::Relaxed),
                        busy_nanos: self.busy[i].load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            counters,
            phases,
        }
    }
}

impl MetricsSink for PipelineMetrics {
    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn time(&self, phase: Phase, wall_nanos: u64) {
        self.wall[phase as usize].fetch_add(wall_nanos, Ordering::Relaxed);
        self.calls[phase as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn busy(&self, phase: Phase, nanos: u64) {
        self.busy[phase as usize].fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Fans every event out to two sinks — how a session feeds its own
/// per-run collector *and* a user-supplied sink at once.
pub struct Tee<'a>(
    /// First recipient.
    pub &'a dyn MetricsSink,
    /// Second recipient.
    pub &'a dyn MetricsSink,
);

impl MetricsSink for Tee<'_> {
    fn add(&self, counter: Counter, n: u64) {
        self.0.add(counter, n);
        self.1.add(counter, n);
    }

    fn time(&self, phase: Phase, wall_nanos: u64) {
        self.0.time(phase, wall_nanos);
        self.1.time(phase, wall_nanos);
    }

    fn busy(&self, phase: Phase, nanos: u64) {
        self.0.busy(phase, nanos);
        self.1.busy(phase, nanos);
    }
}

/// Aggregated timings of one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Completed spans (guard drops).
    pub calls: u64,
    /// Total wall-clock nanoseconds across spans.
    pub wall_nanos: u64,
    /// Total worker busy nanoseconds contributed inside the phase.
    pub busy_nanos: u64,
}

/// A frozen, serialisable view of a [`PipelineMetrics`] collector — the
/// payload of `DetectOutcome::metrics` and the CLI's `--metrics-out` JSON.
///
/// All [`Counter`] and [`Phase`] keys are always present (zeros included);
/// `BTreeMap`s keep the JSON key order stable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// JSON schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Counter totals by [`Counter::name`].
    pub counters: BTreeMap<String, u64>,
    /// Phase timings by [`Phase::name`].
    pub phases: BTreeMap<String, PhaseStat>,
}

impl MetricsSnapshot {
    /// Total of `counter` (`0` when absent, which only happens for
    /// snapshots deserialised from a newer writer).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter.name()).copied().unwrap_or(0)
    }

    /// Timings of `phase` (zeros when absent).
    pub fn phase(&self, phase: Phase) -> PhaseStat {
        self.phases.get(phase.name()).copied().unwrap_or_default()
    }

    /// Wall-clock seconds of `phase`.
    pub fn phase_secs(&self, phase: Phase) -> f64 {
        self.phase(phase).wall_nanos as f64 / 1e9
    }

    /// Serialises to pretty-printed JSON (the `--metrics-out` format).
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Zeroes every scheduling-dependent value — phase wall and busy nanos
    /// — leaving only the deterministic half of the
    /// snapshot (counters, span calls, the full key set). The detection
    /// daemon applies this in deterministic mode so recorded wire
    /// transcripts can be diffed byte-exactly (DESIGN.md §13).
    pub fn scrub_timings(&mut self) {
        for stat in self.phases.values_mut() {
            stat.wall_nanos = 0;
            stat.busy_nanos = 0;
        }
    }

    /// Parses a snapshot back from [`MetricsSnapshot::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the parse or decode error for malformed input.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, json::Error> {
        MetricsSnapshot::from_value(&Value::parse(text)?)
    }

    /// Human-readable summary (the CLI's `--timings` output): phases with
    /// any activity, then non-zero counters.
    pub fn render_human(&self) -> String {
        let mut out = String::from("── timings ──────────────────────────────\n");
        for &p in &Phase::ALL {
            let stat = self.phase(p);
            if stat.calls == 0 && stat.busy_nanos == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:>16}  {:>9.3}s wall  {:>9.3}s busy  ({} span{})\n",
                p.name(),
                stat.wall_nanos as f64 / 1e9,
                stat.busy_nanos as f64 / 1e9,
                stat.calls,
                if stat.calls == 1 { "" } else { "s" },
            ));
        }
        out.push_str("── counters ─────────────────────────────\n");
        for &c in &Counter::ALL {
            let n = self.counter(c);
            if n > 0 {
                out.push_str(&format!("{:>24}  {n}\n", c.name()));
            }
        }
        out
    }
}

namer_base::to_json_fields!(PhaseStat { calls, wall_nanos, busy_nanos });

impl FromJson for PhaseStat {
    fn from_value(v: &Value) -> Result<PhaseStat, json::Error> {
        Ok(PhaseStat {
            calls: v.field("calls")?,
            wall_nanos: v.field("wall_nanos")?,
            busy_nanos: v.field("busy_nanos")?,
        })
    }
}

namer_base::to_json_fields!(MetricsSnapshot {
    schema_version,
    counters,
    phases,
});

impl FromJson for MetricsSnapshot {
    fn from_value(v: &Value) -> Result<MetricsSnapshot, json::Error> {
        Ok(MetricsSnapshot {
            schema_version: v.field("schema_version")?,
            counters: v.field("counters")?,
            phases: v.field("phases")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = PipelineMetrics::new();
        let obs = m.observer();
        obs.add(Counter::PatternMatches, 3);
        obs.add(Counter::PatternMatches, 4);
        assert_eq!(m.counter(Counter::PatternMatches), 7);
        let snap = m.snapshot();
        assert_eq!(snap.counter(Counter::PatternMatches), 7);
        assert_eq!(snap.counter(Counter::CacheHits), 0);
    }

    #[test]
    fn phase_guard_records_wall_time_and_calls() {
        let m = PipelineMetrics::new();
        {
            let _g = m.observer().phase(Phase::Mine);
            std::hint::black_box(0);
        }
        {
            let _g = m.observer().phase(Phase::Mine);
        }
        let stat = m.snapshot().phase(Phase::Mine);
        assert_eq!(stat.calls, 2);
        // Wall time is monotone-clock based; two guard drops always record
        // a non-negative (and on any real clock, positive) total.
        assert!(stat.wall_nanos > 0);
    }

    #[test]
    fn inert_observer_records_nothing() {
        let m = PipelineMetrics::new();
        let obs = Observer::none();
        assert!(!obs.is_active());
        obs.add(Counter::FilesScanned, 5);
        obs.busy(Phase::Scan, 100);
        drop(obs.phase(Phase::Scan));
        let snap = m.snapshot();
        assert_eq!(snap.counter(Counter::FilesScanned), 0);
        assert_eq!(snap.phase(Phase::Scan), PhaseStat::default());
    }

    #[test]
    fn tee_fans_out_to_both_sinks() {
        let a = PipelineMetrics::new();
        let b = PipelineMetrics::new();
        let tee = Tee(&a, &b);
        let obs = Observer::new(&tee);
        obs.add(Counter::ReportsEmitted, 2);
        obs.busy(Phase::Scan, 9);
        drop(obs.phase(Phase::Detect));
        for m in [&a, &b] {
            let snap = m.snapshot();
            assert_eq!(snap.counter(Counter::ReportsEmitted), 2);
            assert_eq!(snap.phase(Phase::Scan).busy_nanos, 9);
            assert_eq!(snap.phase(Phase::Detect).calls, 1);
        }
    }

    #[test]
    fn snapshot_contains_every_key_and_round_trips() {
        let m = PipelineMetrics::new();
        m.observer().add(Counter::StatementsScanned, 11);
        drop(m.observer().phase(Phase::Detect));
        let snap = m.snapshot();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        for c in Counter::ALL {
            assert!(snap.counters.contains_key(c.name()), "missing {}", c.name());
        }
        for p in Phase::ALL {
            assert!(snap.phases.contains_key(p.name()), "missing {}", p.name());
        }
        let back = MetricsSnapshot::from_json(&snap.to_json()).expect("round trip parses");
        assert_eq!(snap, back);
    }

    #[test]
    fn human_rendering_mentions_active_entries_only() {
        let m = PipelineMetrics::new();
        m.observer().add(Counter::CacheHits, 3);
        drop(m.observer().phase(Phase::Scan));
        let text = m.snapshot().render_human();
        assert!(text.contains("cache_hits"));
        assert!(text.contains("scan"));
        assert!(!text.contains("mine_prune"));
        assert!(!text.contains("violations_raw"));
    }

    #[test]
    fn scrub_timings_keeps_only_deterministic_values() {
        let m = PipelineMetrics::new();
        let obs = m.observer();
        obs.add(Counter::ServeRequests, 2);
        obs.busy(Phase::Scan, 999);
        drop(obs.phase(Phase::Serve));
        let mut snap = m.snapshot();
        snap.scrub_timings();
        assert_eq!(snap.counter(Counter::ServeRequests), 2);
        assert_eq!(snap.phase(Phase::Serve).calls, 1);
        assert_eq!(snap.phase(Phase::Serve).wall_nanos, 0);
        assert_eq!(snap.phase(Phase::Scan).busy_nanos, 0);
    }

    #[test]
    fn names_are_unique() {
        let counters: std::collections::HashSet<_> =
            Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(counters.len(), Counter::ALL.len());
        let phases: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(phases.len(), Phase::ALL.len());
    }
}
