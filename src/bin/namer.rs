//! `namer` — the command-line front end.
//!
//! ```text
//! namer demo   [--java] [-o MODEL]           end-to-end demo on a synthetic corpus
//! namer corpus [--java] --out DIR            write a synthetic corpus to disk
//! namer train  --corpus DIR [options]        mine patterns + train the classifier
//! namer scan   --model MODEL PATH...         scan files/directories for naming issues
//! namer watch  --model MODEL PATH...         poll PATHs and print findings diffs
//! namer serve  --model MODEL [--listen ADDR] long-lived JSON-RPC detection daemon
//! ```
//!
//! `train` mines name patterns from every `.py`/`.java` file under
//! `--corpus` (subdirectory = repository), optionally mines confusing word
//! pairs from `--commits` (a directory of `<name>.before` / `<name>.after`
//! file pairs), optionally trains the defect classifier from `--labels`
//! (TSV: `path<TAB>line<TAB>true|false`), and writes a model in the binary
//! container format (DESIGN.md §12; the only model format — JSON models
//! from older builds are rejected, retrain them). `scan` loads one model (`--model FILE`) or serves
//! from a directory of models (`--model-dir DIR`, backed by the
//! LRU-budgeted [`ModelRegistry`]) into a [`NamerBuilder`] session and
//! prints reports with rendered fixes; it exits with status 1 when issues
//! are found, so it can gate CI. Ingestion degrades gracefully (DESIGN.md §11): unreadable and
//! non-UTF-8 inputs and symlink cycles are quarantined with a diagnostic
//! instead of aborting the run, and every file the CLI writes lands via an
//! atomic temp + rename, so a crash never leaves a truncated model, cache,
//! or metrics file. Every command accepts the shared runtime options ([`RuntimeOpts`]):
//! `--threads N` (file-chunk workers), `--cache-dir DIR` (scan cache,
//! DESIGN.md §8), `--metrics-out FILE` (per-phase timings + counters as
//! JSON, DESIGN.md §10), and `--timings` (human-readable timing table on
//! stderr). Output is byte-identical at any thread count. `scan` and
//! `watch` reject any `-`-prefixed argument they do not know.
//!
//! `watch` is the CLI face of incremental scanning (DESIGN.md §14): it
//! re-reads the PATHs every `--interval-ms`, re-runs the resident session
//! (with `--cache-dir` only changed files re-scan), and prints the
//! findings diff against the previous poll as `+`/`-` lines.
//! `--max-polls N` / `--max-changes N` bound the loop for scripting.
//!
//! `serve` keeps the model(s) and warm scan caches resident and answers
//! newline-delimited JSON-RPC 2.0 requests (`initialize` / `ping` /
//! `file.analyze` / `model.load` / `cache.flush` / `file.watch` /
//! `file.unwatch` / `shutdown`) over stdio, or over TCP with `--listen
//! ADDR` — the wire protocol is DESIGN.md §13, watch push notifications
//! §14.

use namer::core::{
    atomic_write, fix_line, CorpusReader, ModelRegistry, Namer, NamerBuilder, NamerConfig,
    NamerError, RealFs, SavedModel, Violation,
};
use namer::corpus::{CorpusConfig, Generator};
use namer::observe::{Counter, MetricsSnapshot, Observer, Phase, PipelineMetrics};
use namer::patterns::MiningConfig;
use namer::serve::{serve_listener, serve_stdio, ModelHost, ServeConfig};
use namer::syntax::{Lang, SourceFile};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The CLI always runs against the real filesystem; tests exercise the
/// same ingestion/persistence code through a fault-injecting
/// [`namer::core::FaultVfs`] (`tests/faults.rs`).
static FS: RealFs = RealFs;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("scan") => cmd_scan(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(NamerError::Usage(format!(
            "unknown command `{other}` (try `namer help`)"
        ))),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "namer — find and fix naming issues (PLDI 2021 reproduction)\n\n\
         USAGE:\n  namer demo  [--java | --js] [-o MODEL] [runtime options]\n  namer corpus [--java | --js] [--seed N] --out DIR [runtime options]\n  namer train --corpus DIR \
         [--commits DIR] [--labels TSV] [--lang python|java|javascript]\n              \
         [--no-classifier] [--no-analysis] [-o MODEL] [runtime options]\n  namer scan  (--model FILE | --model-dir DIR [--model NAME])\n              [--model-budget MB] [--explain] [--format sarif] [--changed-only]\n              [runtime options] PATH...\n  namer watch (--model FILE | --model-dir DIR [--model NAME])\n              [--interval-ms N] [--max-polls N] [--max-changes N]\n              [runtime options] PATH...\n  namer serve (--model FILE | --model-dir DIR) [--listen ADDR] [--queue N]\n              [--model-budget MB] [--deterministic] [runtime options]\n\n\
         Runtime options (every command):\n  \
         --threads N         worker threads (0 = all cores, the default)\n  \
         --cache-dir DIR     per-file scan cache between runs (scan and serve)\n  \
         --metrics-out FILE  write per-phase timings + counters as JSON\n  \
         --timings           print a human-readable timing table to stderr\n\n\
         Threads are a scheduling knob only: output is byte-identical at\n\
         any thread count, and so are the metrics counters (timings vary\n\
         run to run). `--cache-dir DIR`\n\
         caches per-file scan state between runs, so unchanged files are\n\
         not re-scanned; output stays byte-identical to a full scan.\n\
         `--changed-only` (requires --cache-dir) prints reports only for\n\
         files whose content changed since the cached run.\n\n\
         Models are written in the binary container format (DESIGN.md §12),\n\
         the only format read; retrain a JSON model from an older build. With\n\
         `--model-dir DIR`, scan serves models from a directory by name\n\
         (file stem; `--model NAME` picks one, optional when the directory\n\
         holds exactly one) through an LRU registry capped at\n\
         `--model-budget MB` (default 256).\n\n\
         `watch` polls the PATHs every --interval-ms (default 500), re-runs\n\
         the resident session, and prints the findings diff against the\n\
         previous poll as `+`/`-` lines; the first poll is the baseline and\n\
         counts no change. With --cache-dir only edited files re-scan\n\
         (DESIGN.md §14). --max-polls N / --max-changes N stop the loop\n\
         after N polls / N change events (0 = unbounded, the default).\n\n\
         `serve` answers newline-delimited JSON-RPC 2.0 over stdio (default)\n\
         or TCP (`--listen 127.0.0.1:7357`): initialize/ping/shutdown\n\
         handshake plus batch file.analyze, model.load, cache.flush, and\n\
         file.watch/file.unwatch subscriptions (changed findings arrive as\n\
         id-less file.findings notifications), every response carrying\n\
         findings and a per-request metrics snapshot (DESIGN.md §13–§14).\n\
         `--queue N` bounds the TCP request queue (overflow gets a typed\n\
         server_busy error; default 64) and `--deterministic` zeroes\n\
         timings so responses are byte-stable.\n"
    );
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Runtime options shared by every subcommand, parsed once by
/// [`RuntimeOpts::parse`] so `--threads` / `--cache-dir` /
/// `--metrics-out` / `--timings` mean the same thing everywhere.
struct RuntimeOpts {
    /// `--threads N` (0 = all available cores, the default).
    threads: usize,
    /// `--cache-dir DIR`: on-disk scan cache (used by `scan`; accepted and
    /// ignored elsewhere).
    cache_dir: Option<String>,
    /// `--metrics-out FILE`: write the run's [`MetricsSnapshot`] as JSON.
    metrics_out: Option<PathBuf>,
    /// `--timings`: print the human-readable timing table to stderr.
    timings: bool,
}

impl RuntimeOpts {
    fn parse(args: &[String]) -> Result<RuntimeOpts, NamerError> {
        let threads = match flag_value(args, "--threads") {
            Some(s) => s
                .parse()
                .map_err(|_| NamerError::Usage(format!("bad --threads {s:?}")))?,
            None => 0,
        };
        Ok(RuntimeOpts {
            threads,
            cache_dir: flag_value(args, "--cache-dir").map(str::to_owned),
            metrics_out: flag_value(args, "--metrics-out").map(PathBuf::from),
            timings: has_flag(args, "--timings"),
        })
    }

    /// Applies the session-relevant options to a builder.
    fn apply(&self, builder: NamerBuilder) -> NamerBuilder {
        let builder = builder.threads(self.threads);
        match &self.cache_dir {
            Some(dir) => builder.cache_dir(dir),
            None => builder,
        }
    }

    /// Emits a run's metrics per `--metrics-out` / `--timings`.
    fn emit(&self, snapshot: &MetricsSnapshot) -> Result<(), NamerError> {
        if let Some(path) = &self.metrics_out {
            write_file(path, snapshot.to_json())?;
            eprintln!("metrics written to {}", path.display());
        }
        if self.timings {
            eprint!("{}", snapshot.render_human());
        }
        Ok(())
    }
}

fn lang_from_args(args: &[String]) -> Lang {
    match flag_value(args, "--lang") {
        Some(spelled) => namer::syntax::lang::from_alias(spelled).unwrap_or_else(|| {
            eprintln!("warning: unknown language `{spelled}`, defaulting to python");
            Lang::Python
        }),
        None if has_flag(args, "--java") => Lang::Java,
        None if has_flag(args, "--js") => Lang::Js,
        None => Lang::Python,
    }
}

fn default_config() -> NamerConfig {
    NamerConfig {
        mining: MiningConfig {
            min_path_count: 4,
            min_support: 15,
            ..MiningConfig::default()
        },
        labeled_per_class: 30,
        ..NamerConfig::default()
    }
}

/// Reads a file the command cannot proceed without (a model, a labels
/// TSV): transient I/O errors are retried, anything else is a hard error.
fn read_file(path: impl AsRef<Path>) -> Result<String, NamerError> {
    CorpusReader::new(&FS).read_required(path.as_ref())
}

/// Writes a file crash-safely (write-temp + fsync + atomic rename,
/// DESIGN.md §11): models, metrics snapshots, and corpus files are never
/// left truncated by a killed process.
fn write_file(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), NamerError> {
    let path = path.as_ref();
    atomic_write(&FS, path, contents.as_ref()).map_err(|e| NamerError::io(path, e))
}

fn make_dirs(path: impl AsRef<Path>) -> Result<(), NamerError> {
    let path = path.as_ref();
    std::fs::create_dir_all(path).map_err(|e| NamerError::io(path, e))
}

// ----- demo ------------------------------------------------------------------

fn cmd_demo(args: &[String]) -> Result<ExitCode, NamerError> {
    let lang = lang_from_args(args);
    let opts = RuntimeOpts::parse(args)?;
    let out = flag_value(args, "-o").unwrap_or("namer-model.bin");
    let config = NamerConfig {
        threads: opts.threads,
        ..default_config()
    };
    println!("generating a synthetic Big Code corpus ({lang})…");
    let corpus = Generator::new(CorpusConfig::small(lang)).generate(2021);
    let oracle = corpus.oracle();
    let commits: Vec<(String, String)> = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    // One collector spans training and detection, so --metrics-out covers
    // the whole demo pipeline.
    let collector = Arc::new(PipelineMetrics::new());
    let namer = Namer::train_observed(
        &corpus.files,
        &commits,
        |v: &Violation| {
            oracle
                .label(&v.repo, &v.path, v.line, v.original.as_str(), v.suggested.as_str())
                .is_some()
        },
        &config,
        Observer::new(collector.as_ref()),
    );
    println!(
        "mined {} patterns / {} confusing pairs; classifier: {}",
        namer.detector.pattern_count(),
        namer.detector.pairs.len(),
        namer.model_kind,
    );
    let mut session = NamerBuilder::new()
        .namer(namer)
        .metrics(collector.clone())
        .build()?;
    let outcome = session.run(&corpus.files)?;
    for r in outcome.reports.iter().take(10) {
        println!("  {r}");
    }
    println!("… {} reports total", outcome.reports.len());
    SavedModel::from_namer(session.namer()).save(Path::new(out))?;
    println!("model saved to {out}");
    opts.emit(&collector.snapshot())?;
    Ok(ExitCode::SUCCESS)
}

// ----- corpus ----------------------------------------------------------------

/// Writes a synthetic Big Code corpus to disk in the layout `train` expects:
/// `repos/<repo>/<path>`, `fixes/<n>.before|.after`, and a ground-truth
/// `labels.tsv` that can stand in for the paper's manual annotation.
fn cmd_corpus(args: &[String]) -> Result<ExitCode, NamerError> {
    let lang = lang_from_args(args);
    // Corpus generation runs no pipeline stage; the runtime options are
    // still parsed (and validated) for a uniform CLI.
    let opts = RuntimeOpts::parse(args)?;
    let out = PathBuf::from(
        flag_value(args, "--out")
            .ok_or_else(|| NamerError::Usage("`corpus` needs --out DIR".to_owned()))?,
    );
    let seed: u64 = flag_value(args, "--seed")
        .map(|s| {
            s.parse()
                .map_err(|_| NamerError::Usage(format!("bad --seed {s:?}")))
        })
        .transpose()?
        .unwrap_or(2021);
    let corpus = Generator::new(CorpusConfig::small(lang)).generate(seed);

    let repos_dir = out.join("repos");
    for f in &corpus.files {
        let repo_slug = f.repo.replace('/', "_");
        let dest = repos_dir.join(&repo_slug).join(&f.path);
        if let Some(parent) = dest.parent() {
            make_dirs(parent)?;
        }
        write_file(&dest, &f.text)?;
    }

    let fixes_dir = out.join("fixes");
    make_dirs(&fixes_dir)?;
    for (i, c) in corpus.commits.iter().enumerate() {
        write_file(fixes_dir.join(format!("{i:04}.before")), &c.before)?;
        write_file(fixes_dir.join(format!("{i:04}.after")), &c.after)?;
    }

    // Ground-truth labels in the on-disk path space (repo_slug/path).
    let mut labels = String::from("# path	line	label (ground truth from the generator)
");
    for inj in &corpus.injections {
        let repo_slug = inj.repo.replace('/', "_");
        for &line in inj.lines.iter() {
            labels.push_str(&format!("{repo_slug}/{}	{line}	true
", inj.path));
        }
    }
    write_file(out.join("labels.tsv"), labels)?;

    println!(
        "wrote {} files, {} commit pairs, {} injected issues under {}",
        corpus.files.len(),
        corpus.commits.len(),
        corpus.injections.len(),
        out.display()
    );
    println!(
        "next: namer train --corpus {}/repos --commits {}/fixes --labels {}/labels.tsv --lang {}",
        out.display(),
        out.display(),
        out.display(),
        lang.spec().cli_name(),
    );
    // Nothing ran, but an explicit --metrics-out still gets a (zeroed)
    // snapshot rather than silently no file.
    opts.emit(&PipelineMetrics::new().snapshot())?;
    Ok(ExitCode::SUCCESS)
}

// ----- train -----------------------------------------------------------------

fn cmd_train(args: &[String]) -> Result<ExitCode, NamerError> {
    let corpus_dir = flag_value(args, "--corpus")
        .ok_or_else(|| NamerError::Usage("`train` needs --corpus DIR".to_owned()))?;
    let lang = lang_from_args(args);
    let out = flag_value(args, "-o").unwrap_or("namer-model.bin");

    // The collector exists before ingestion so quarantines and retries
    // stream into the same metrics as the training phases.
    let collector = PipelineMetrics::new();
    let mut reader = CorpusReader::new(&FS).observed(collector.observer());
    let files = reader.collect_sources(Path::new(corpus_dir), lang)?;
    if files.is_empty() {
        return Err(NamerError::InvalidConfig(format!(
            "no {lang} sources under {corpus_dir}"
        )));
    }
    println!("corpus: {} files", files.len());

    let commits = match flag_value(args, "--commits") {
        Some(dir) => reader.collect_commits(Path::new(dir))?,
        None => Vec::new(),
    };
    println!("commit pairs: {}", commits.len());
    let ingest_diag = reader.finish();
    if !ingest_diag.is_clean() {
        eprint!("{}", ingest_diag.render_human());
    }

    let opts = RuntimeOpts::parse(args)?;
    let mut config = default_config();
    config.threads = opts.threads;
    if has_flag(args, "--no-analysis") {
        config.process.use_analysis = false;
    }
    let labels: HashMap<(String, u32), bool> = match flag_value(args, "--labels") {
        Some(path) => parse_labels(Path::new(path))?,
        None => HashMap::new(),
    };
    if labels.is_empty() || has_flag(args, "--no-classifier") {
        config.use_classifier = false;
        if !has_flag(args, "--no-classifier") {
            println!("no --labels given: training without the defect classifier");
        }
    }

    let namer = Namer::train_observed(
        &files,
        &commits,
        |v: &Violation| labels.get(&(v.path.clone(), v.line)).copied().unwrap_or(false),
        &config,
        collector.observer(),
    );
    println!(
        "mined {} patterns / {} confusing pairs{}",
        namer.detector.pattern_count(),
        namer.detector.pairs.len(),
        if namer.has_classifier() {
            format!("; classifier: {} (CV acc {:.0}%)", namer.model_kind, namer.cv_metrics.accuracy * 100.0)
        } else {
            String::new()
        }
    );
    SavedModel::from_namer(&namer).save(Path::new(out))?;
    println!("model saved to {out}");
    opts.emit(&collector.snapshot())?;
    Ok(ExitCode::SUCCESS)
}

// ----- scan ------------------------------------------------------------------

/// The scan model source: one file, or a registry-served directory.
enum ScanModel {
    /// `--model FILE` without `--model-dir`: one model, loaded directly.
    File(Box<SavedModel>),
    /// `--model-dir DIR`: a shared model out of the [`ModelRegistry`].
    Registry(Arc<SavedModel>),
}

/// Resolves the scan's model per `--model` / `--model-dir` /
/// `--model-budget`. Split out of [`cmd_scan`] so the whole resolution —
/// registry open included — sits under one [`Phase::ModelLoad`] span.
fn resolve_scan_model(
    args: &[String],
    collector: &Arc<PipelineMetrics>,
) -> Result<ScanModel, NamerError> {
    let budget_mb: usize = match flag_value(args, "--model-budget") {
        Some(s) => s
            .parse()
            .map_err(|_| NamerError::Usage(format!("bad --model-budget {s:?}")))?,
        None => 256,
    };
    match flag_value(args, "--model-dir") {
        Some(dir) => {
            let registry = ModelRegistry::open(Path::new(dir), budget_mb.saturating_mul(1 << 20))?
                .with_metrics(collector.clone());
            let name = match flag_value(args, "--model") {
                Some(name) => name.to_owned(),
                None => registry
                    .sole_name()
                    .map(str::to_owned)
                    .ok_or_else(|| {
                        NamerError::Usage(format!(
                            "--model-dir {dir} holds {} models; pick one with --model NAME ({})",
                            registry.len(),
                            registry.names().join(", ")
                        ))
                    })?,
            };
            Ok(ScanModel::Registry(registry.get(&name)?))
        }
        None => {
            let path = flag_value(args, "--model").ok_or_else(|| {
                NamerError::Usage("`scan` needs --model FILE or --model-dir DIR".to_owned())
            })?;
            Ok(ScanModel::File(Box::new(SavedModel::load_via(&FS, Path::new(path))?)))
        }
    }
}

/// The positional PATH arguments of `scan` and `watch`: every argument that
/// is neither a flag those commands accept nor the value of a value-taking
/// one.
///
/// # Errors
///
/// [`NamerError::Usage`] naming the first `-`-prefixed argument that is not
/// a known flag, so a misspelled or retired option is never mistaken for a
/// PATH (or silently dropped).
fn positional_paths(args: &[String]) -> Result<Vec<PathBuf>, NamerError> {
    const VALUE_FLAGS: [&str; 11] = [
        "--model",
        "--model-dir",
        "--model-budget",
        "--format",
        "--threads",
        "--cache-dir",
        "--metrics-out",
        "--lang",
        "--interval-ms",
        "--max-polls",
        "--max-changes",
    ];
    const SWITCHES: [&str; 3] = ["--explain", "--changed-only", "--timings"];
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            flag if VALUE_FLAGS.contains(&flag) => {
                args.next();
            }
            flag if SWITCHES.contains(&flag) => {}
            flag if flag.starts_with('-') => {
                return Err(NamerError::Usage(format!(
                    "unknown option `{flag}` (try `namer help`)"
                )));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    Ok(paths)
}

fn cmd_scan(args: &[String]) -> Result<ExitCode, NamerError> {
    let paths = positional_paths(args)?;
    if paths.is_empty() {
        return Err(NamerError::Usage("`scan` needs at least one PATH".to_owned()));
    }
    // One collector spans model load, ingestion, and the session, so
    // --metrics-out reports the whole scan including Phase::ModelLoad.
    let collector = Arc::new(PipelineMetrics::new());
    let model = {
        let _span = Observer::new(collector.as_ref()).phase(Phase::ModelLoad);
        resolve_scan_model(args, &collector)?
    };
    let lang = match &model {
        ScanModel::File(m) => m.lang,
        ScanModel::Registry(m) => m.lang,
    };
    // The fault-tolerant reader covers the whole ingestion pass; its
    // diagnostics are seeded into the session below.
    let mut reader = CorpusReader::new(&FS);
    let mut files = Vec::new();
    for p in &paths {
        if p.is_dir() {
            files.extend(reader.collect_sources(p, lang)?);
        } else if p.is_file() {
            // An unreadable or non-UTF-8 file named explicitly is
            // quarantined like any other, so one bad argument cannot
            // abort the rest of the scan.
            if let Some(text) = reader.read_text(p) {
                files.push(SourceFile::new(
                    p.parent().map(|d| d.display().to_string()).unwrap_or_default(),
                    p.display().to_string(),
                    text,
                    lang,
                ));
            }
        } else {
            return Err(NamerError::Usage(format!("no such path: {}", p.display())));
        }
    }
    let ingest_diag = reader.finish();

    let explain = has_flag(args, "--explain");
    let changed_only = has_flag(args, "--changed-only");
    let opts = RuntimeOpts::parse(args)?;
    if changed_only && opts.cache_dir.is_none() {
        return Err(NamerError::Usage(
            "--changed-only requires --cache-dir".to_owned(),
        ));
    }

    let sourced = match model {
        ScanModel::File(m) => NamerBuilder::new().model(*m),
        ScanModel::Registry(m) => NamerBuilder::new().shared(m),
    };
    let mut session = opts
        .apply(sourced.config(default_config()))
        .metrics(collector.clone())
        .ingest_diagnostics(ingest_diag)
        .build()?;
    if let Some(status) = session.cache_status() {
        println!("scan cache: {status}");
    }

    let outcome = session.run(&files)?;
    let mut reports = outcome.reports;
    if outcome.cache.is_some() {
        // Cache accounting straight from the pipeline's own metrics, so the
        // summary can never drift from what the scan actually did.
        let m = &outcome.metrics;
        let degraded = if m.counter(Counter::CacheDegradedCold) > 0 {
            ", cache degraded to cold"
        } else {
            ""
        };
        println!(
            "scanned {} file(s): {} cache hit(s), {} miss(es), {} known parse failure(s){}",
            files.len(),
            m.counter(Counter::CacheHits),
            m.counter(Counter::CacheMisses),
            m.counter(Counter::CacheParseFailures),
            degraded
        );
    }
    if !outcome.diagnostics.is_clean() {
        eprint!("{}", outcome.diagnostics.render_human());
    }
    if let (true, Some(cache)) = (changed_only, &outcome.cache) {
        let changed: HashSet<(String, String)> = cache.changed.iter().cloned().collect();
        reports.retain(|r| {
            changed.contains(&(r.violation.repo.clone(), r.violation.path.clone()))
        });
    }
    // Emit the scan-wide collector (model load included), not just the
    // session's own snapshot.
    opts.emit(&collector.snapshot())?;
    let namer = session.namer();

    if flag_value(args, "--format") == Some("sarif") {
        println!("{}", namer::core::to_sarif(&reports, &namer.detector));
        return Ok(if reports.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }
    for r in &reports {
        println!(
            "{}:{}: replace `{}` with `{}` [{}]",
            r.violation.path, r.violation.line, r.violation.original, r.violation.suggested,
            r.violation.pattern_ty
        );
        if explain {
            let pattern = &namer.detector.patterns.patterns[r.violation.pattern_idx];
            for line in pattern.to_string().lines() {
                println!("    | {line}");
            }
        }
        let file = files
            .iter()
            .find(|f| f.path == r.violation.path && f.repo == r.violation.repo);
        if let Some(line) = file.and_then(|f| f.text.lines().nth(r.violation.line as usize - 1)) {
            println!("    found: {}", line.trim());
            if let Some(fixed) = fix_line(
                line,
                r.violation.original.as_str(),
                r.violation.suggested.as_str(),
            ) {
                println!("    fixed: {}", fixed.trim());
            }
        }
    }
    let quarantined = outcome.diagnostics.quarantined.len();
    if quarantined > 0 {
        println!(
            "{} naming issue(s) found in {} file(s); {} file(s) quarantined",
            reports.len(),
            files.len(),
            quarantined
        );
    } else {
        println!("{} naming issue(s) found in {} file(s)", reports.len(), files.len());
    }
    Ok(if reports.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

// ----- watch -----------------------------------------------------------------

/// `namer watch`: the poll-driven findings-diff loop over the scan
/// PATHs. Each poll re-reads the sources and re-runs one resident
/// session; with `--cache-dir` the per-file scan cache (DESIGN.md §8)
/// re-scans only the edited files (DESIGN.md §14). The
/// first poll establishes the baseline silently; every later poll whose
/// finding set differs prints the delta as `+`/`-` lines and counts one
/// change event.
fn cmd_watch(args: &[String]) -> Result<ExitCode, NamerError> {
    let paths = positional_paths(args)?;
    if paths.is_empty() {
        return Err(NamerError::Usage("`watch` needs at least one PATH".to_owned()));
    }
    // One collector spans the whole watch loop, so --metrics-out is
    // cumulative across polls (that is what makes `cache_hits` observable
    // to scripts).
    let collector = Arc::new(PipelineMetrics::new());
    let model = {
        let _span = Observer::new(collector.as_ref()).phase(Phase::ModelLoad);
        resolve_scan_model(args, &collector)?
    };
    let lang = match &model {
        ScanModel::File(m) => m.lang,
        ScanModel::Registry(m) => m.lang,
    };
    let opts = RuntimeOpts::parse(args)?;
    let number = |flag: &str, default: u64| -> Result<u64, NamerError> {
        match flag_value(args, flag) {
            Some(s) => s
                .parse()
                .map_err(|_| NamerError::Usage(format!("bad {flag} {s:?}"))),
            None => Ok(default),
        }
    };
    let interval_ms = number("--interval-ms", 500)?;
    let max_polls = number("--max-polls", 0)?;
    let max_changes = number("--max-changes", 0)?;

    let sourced = match model {
        ScanModel::File(m) => NamerBuilder::new().model(*m),
        ScanModel::Registry(m) => NamerBuilder::new().shared(m),
    };
    let mut session = opts
        .apply(sourced.config(default_config()))
        .metrics(collector.clone())
        .build()?;
    if let Some(status) = session.cache_status() {
        eprintln!("scan cache: {status}");
    }

    let mut baseline: Option<BTreeSet<String>> = None;
    let mut polls: u64 = 0;
    let mut changes: u64 = 0;
    loop {
        polls += 1;
        let mut reader = CorpusReader::new(&FS);
        let mut files = Vec::new();
        for p in &paths {
            if p.is_dir() {
                files.extend(reader.collect_sources(p, lang)?);
            } else if p.is_file() {
                if let Some(text) = reader.read_text(p) {
                    files.push(SourceFile::new(
                        p.parent().map(|d| d.display().to_string()).unwrap_or_default(),
                        p.display().to_string(),
                        text,
                        lang,
                    ));
                }
            } else {
                return Err(NamerError::Usage(format!("no such path: {}", p.display())));
            }
        }
        let diag = reader.finish();
        if !diag.is_clean() {
            eprint!("{}", diag.render_human());
        }
        let outcome = session.run(&files)?;
        let current: BTreeSet<String> = outcome
            .reports
            .iter()
            .map(|r| {
                format!(
                    "{}:{}: replace `{}` with `{}` [{}]",
                    r.violation.path,
                    r.violation.line,
                    r.violation.original,
                    r.violation.suggested,
                    r.violation.pattern_ty
                )
            })
            .collect();
        match &baseline {
            None => {
                println!(
                    "watching {} file(s): {} finding(s) at baseline",
                    files.len(),
                    current.len()
                );
            }
            Some(prev) => {
                let added: Vec<&String> = current.difference(prev).collect();
                let removed: Vec<&String> = prev.difference(&current).collect();
                if !added.is_empty() || !removed.is_empty() {
                    changes += 1;
                    collector.observer().add(Counter::WatchEvents, 1);
                    for line in added {
                        println!("+ {line}");
                    }
                    for line in removed {
                        println!("- {line}");
                    }
                }
            }
        }
        baseline = Some(current);
        // Scripts tail the output mid-loop; don't sit on a buffered diff.
        let _ = std::io::stdout().flush();
        if max_polls > 0 && polls >= max_polls {
            break;
        }
        if max_changes > 0 && changes >= max_changes {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    println!("watched {polls} poll(s), {changes} change event(s)");
    opts.emit(&collector.snapshot())?;
    Ok(ExitCode::SUCCESS)
}

// ----- serve -----------------------------------------------------------------

/// `namer serve`: the long-lived JSON-RPC detection daemon (DESIGN.md
/// §13). Serves one model (`--model FILE`) or a whole registry
/// (`--model-dir DIR`) over stdio, or over TCP with `--listen ADDR`.
/// Runs until the client sends `shutdown` (or stdin closes), then emits
/// the daemon-wide aggregate metrics per `--metrics-out` / `--timings`.
fn cmd_serve(args: &[String]) -> Result<ExitCode, NamerError> {
    let opts = RuntimeOpts::parse(args)?;
    // The daemon-wide collector aggregates across all requests; each
    // response additionally carries its own per-request snapshot.
    let collector = Arc::new(PipelineMetrics::new());
    let budget_mb: usize = match flag_value(args, "--model-budget") {
        Some(s) => s
            .parse()
            .map_err(|_| NamerError::Usage(format!("bad --model-budget {s:?}")))?,
        None => 256,
    };
    let host = {
        let _span = Observer::new(collector.as_ref()).phase(Phase::ModelLoad);
        match flag_value(args, "--model-dir") {
            Some(dir) => ModelHost::Registry(Arc::new(
                ModelRegistry::open(Path::new(dir), budget_mb.saturating_mul(1 << 20))?
                    .with_metrics(collector.clone()),
            )),
            None => {
                let path = flag_value(args, "--model").ok_or_else(|| {
                    NamerError::Usage("`serve` needs --model FILE or --model-dir DIR".to_owned())
                })?;
                let model = SavedModel::load_via(&FS, Path::new(path))?;
                let name = Path::new(path)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("model")
                    .to_owned();
                ModelHost::Single { name, model: Arc::new(model) }
            }
        }
    };
    let mut config = ServeConfig::new(NamerConfig {
        threads: opts.threads,
        ..default_config()
    });
    config.cache_root = opts.cache_dir.clone().map(PathBuf::from);
    if let Some(s) = flag_value(args, "--queue") {
        config.queue_capacity = s
            .parse()
            .map_err(|_| NamerError::Usage(format!("bad --queue {s:?}")))?;
    }
    config.scrub_timings = has_flag(args, "--deterministic");
    config.metrics = Some(collector.clone());
    match flag_value(args, "--listen") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| NamerError::io(Path::new(addr), e))?;
            if let Ok(local) = listener.local_addr() {
                eprintln!("namer serve: listening on {local}");
            }
            serve_listener(config, host, listener)
                .map_err(|e| NamerError::io(Path::new(addr), e))?;
        }
        None => {
            serve_stdio(config, host).map_err(|e| NamerError::io(Path::new("<stdio>"), e))?;
        }
    }
    opts.emit(&collector.snapshot())?;
    Ok(ExitCode::SUCCESS)
}

// ----- labels ------------------------------------------------------------------

/// Parses a labels TSV: `path<TAB>line<TAB>true|false`.
fn parse_labels(path: &Path) -> Result<HashMap<(String, u32), bool>, NamerError> {
    let text = read_file(path)?;
    let mut out = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(p), Some(l), Some(v)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(NamerError::Usage(format!(
                "{}:{}: expected `path\\tline\\tbool`",
                path.display(),
                i + 1
            )));
        };
        let l: u32 = l.parse().map_err(|_| {
            NamerError::Usage(format!("{}:{}: bad line number {l:?}", path.display(), i + 1))
        })?;
        let v: bool = v.parse().map_err(|_| {
            NamerError::Usage(format!("{}:{}: bad label {v:?}", path.display(), i + 1))
        })?;
        out.insert((p.to_owned(), l), v);
    }
    Ok(out)
}
