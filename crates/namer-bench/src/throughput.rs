//! End-to-end pipeline throughput measurement behind the `bench_pipeline`
//! binary (`BENCH_pipeline.json`): wall-clock and statements/second for the
//! process → mine → scan stages at each requested thread count.
//!
//! It measures the whole pipeline once per thread count on one shared
//! corpus, which is how
//! the paper reports §5.1 runtimes (total hours on a 32-core machine). Stage
//! timings come from the pipeline's own [`PipelineMetrics`] collector — the
//! same per-phase wall clocks `--metrics-out` reports — rather than private
//! stopwatches, so the benchmark and the CLI can never drift apart on what
//! a "stage" covers. The [`measure_overhead`] check times the scan with and
//! without a live collector to police DESIGN.md §10's ≤ 2 % budget.

use crate::{labeler, namer_config, setup, Scale, Setup};
use namer_core::{process_parallel_observed, Detector, Namer, SavedModel, ScanRequest};
use namer_observe::{Observer, Phase, PipelineMetrics};
use namer_patterns::{resolve_threads, MiningConfig};
use namer_syntax::Lang;
use std::time::Instant;

/// Wall-clock and throughput of one pipeline stage.
#[derive(Clone, Copy, Debug)]
pub struct StageTiming {
    /// Elapsed seconds.
    pub secs: f64,
    /// Corpus statements divided by elapsed seconds.
    pub stmts_per_sec: f64,
}

namer_base::to_json_fields!(StageTiming { secs, stmts_per_sec });

impl StageTiming {
    fn new(secs: f64, stmts: usize) -> StageTiming {
        StageTiming {
            secs,
            // Clamp so a sub-resolution stage can't produce a non-finite
            // rate (the JSON writer prints those as null).
            stmts_per_sec: stmts as f64 / secs.max(1e-9),
        }
    }
}

/// One full pipeline run at a fixed thread count.
#[derive(Clone, Copy, Debug)]
pub struct PipelineRun {
    /// Worker threads used (already resolved; never 0).
    pub threads: usize,
    /// Preprocessing: parse → analyse → name paths.
    pub process: StageTiming,
    /// Pattern mining (FP-growth + pruneUncommon).
    pub mine: StageTiming,
    /// Corpus scan (violations + features + assembly).
    pub scan: StageTiming,
    /// Patterns mined — must be identical across runs.
    pub patterns: usize,
    /// Violations found — must be identical across runs.
    pub violations: usize,
}

namer_base::to_json_fields!(PipelineRun { threads, process, mine, scan, patterns, violations });

/// Live-collector cost of the observability layer: the same scan timed with
/// an inert [`Observer`] (the no-sink default every uninstrumented caller
/// gets) and with a [`PipelineMetrics`] collector attached. The arms are
/// interleaved rep by rep so thermal and cache drift hit both equally.
#[derive(Clone, Copy, Debug)]
pub struct OverheadCheck {
    /// Timing repetitions per arm (best is kept).
    pub reps: usize,
    /// Best scan wall-clock with the inert observer, seconds.
    pub unobserved_secs: f64,
    /// Best scan wall-clock with a live collector, seconds.
    pub observed_secs: f64,
    /// `(observed − unobserved) / unobserved × 100`; small negative values
    /// are timer noise. DESIGN.md §10 budgets ≤ 2 %.
    pub overhead_pct: f64,
}

namer_base::to_json_fields!(OverheadCheck { reps, unobserved_secs, observed_secs, overhead_pct });

/// Model load timings for the binary container of DESIGN.md §12.
#[derive(Clone, Copy, Debug)]
pub struct ModelLoadBench {
    /// Encoded size of the binary model, bytes.
    pub binary_bytes: usize,
    /// First read+decode of the binary file after writing it, seconds.
    pub cold_binary_secs: f64,
    /// Best page-warm read+decode of the binary file, seconds.
    pub warm_binary_secs: f64,
    /// Peak resident set (`VmHWM`) after the loads, bytes; `None` when the
    /// platform has no `/proc/self/status`.
    pub peak_rss_bytes: Option<u64>,
    /// Timing repetitions (the first is the cold arm).
    pub reps: usize,
}

namer_base::to_json_fields!(ModelLoadBench {
    binary_bytes,
    cold_binary_secs,
    warm_binary_secs,
    peak_rss_bytes,
    reps,
});

/// Peak resident set size of this process (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Trains one model at `scale`, writes it, and times read+decode `reps`
/// times (rep 0 is the cold arm — freshly written file, decoder caches
/// empty; later reps are page-warm). Every decode is checked to hold the
/// whole pattern set.
pub fn measure_model_load(lang: Lang, scale: Scale, seed: u64, reps: usize) -> ModelLoadBench {
    let Setup {
        corpus,
        oracle,
        commits,
    } = setup(lang, scale, seed);
    let config = namer_config(scale);
    let namer = Namer::train(&corpus.files, &commits, labeler(&oracle), &config);
    let model = SavedModel::from_namer(&namer);

    let dir = std::env::temp_dir().join(format!("namer-bench-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bin_path = dir.join("model.bin");
    model.save(&bin_path).expect("write binary model");
    let binary_bytes = std::fs::metadata(&bin_path).expect("stat").len() as usize;

    let reps = reps.max(2);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let bytes = std::fs::read(&bin_path).expect("read model");
            let loaded = SavedModel::from_bytes(&bytes).expect("decode model");
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(
                loaded.patterns.len(),
                model.patterns.len(),
                "load changed the model"
            );
            secs
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    ModelLoadBench {
        binary_bytes,
        cold_binary_secs: times[0],
        warm_binary_secs: times[1..].iter().copied().fold(f64::INFINITY, f64::min),
        peak_rss_bytes: peak_rss_bytes(),
        reps,
    }
}

/// The benchmark report serialised to `BENCH_pipeline.json`.
#[derive(Clone, Debug)]
pub struct PipelineBench {
    /// Corpus language.
    pub lang: String,
    /// Files in the corpus (after parse failures).
    pub files: usize,
    /// Statements in the corpus.
    pub stmts: usize,
    /// One entry per requested thread count, in request order.
    pub runs: Vec<PipelineRun>,
    /// Collector-overhead check; `None` when the sweep skipped it.
    pub overhead: Option<OverheadCheck>,
    /// Model load timings; `None` when the sweep skipped it.
    pub model_load: Option<ModelLoadBench>,
}

namer_base::to_json_fields!(PipelineBench { lang, files, stmts, runs, overhead, model_load });

/// Generates one corpus and times process/mine/scan at each thread count
/// (`0` entries resolve to all available cores). Stage seconds are the
/// collector's per-phase wall clocks (scan = scan + assembly). Pattern and
/// violation counts are recorded so callers can assert thread-count
/// invariance.
pub fn measure(lang: Lang, scale: Scale, seed: u64, thread_counts: &[usize]) -> PipelineBench {
    let Setup {
        corpus, commits, ..
    } = setup(lang, scale, seed);
    let config = namer_config(scale);

    let mut out = PipelineBench {
        lang: lang.to_string(),
        files: 0,
        stmts: 0,
        runs: Vec::new(),
        overhead: None,
        model_load: None,
    };
    for &requested in thread_counts {
        let threads = resolve_threads(requested);
        let metrics = PipelineMetrics::new();
        let obs = metrics.observer();

        let processed = process_parallel_observed(&corpus.files, &config.process, threads, obs);
        let stmts = processed.stmt_count();
        out.files = processed.files.len();
        out.stmts = stmts;

        let mining = MiningConfig {
            threads,
            ..config.mining.clone()
        };
        let detector = Detector::mine_observed(&processed, &commits, lang, &mining, obs);

        let scan = detector.scan(ScanRequest::full(&processed).threads(threads).observer(obs));

        let snap = metrics.snapshot();
        out.runs.push(PipelineRun {
            threads,
            process: StageTiming::new(snap.phase_secs(Phase::Process), stmts),
            mine: StageTiming::new(snap.phase_secs(Phase::Mine), stmts),
            scan: StageTiming::new(
                snap.phase_secs(Phase::Scan) + snap.phase_secs(Phase::Assemble),
                stmts,
            ),
            patterns: detector.pattern_count(),
            violations: scan.violations.len(),
        });
    }
    out
}

/// Times the corpus scan with an inert observer versus a live
/// [`PipelineMetrics`] collector, interleaved best-of-`reps` per arm. One
/// file thread, so the single-worker loop — where per-statement
/// instrumentation cost is least diluted — is what gets measured.
pub fn measure_overhead(lang: Lang, scale: Scale, seed: u64, reps: usize) -> OverheadCheck {
    let Setup {
        corpus, commits, ..
    } = setup(lang, scale, seed);
    let config = namer_config(scale);
    let threads = resolve_threads(0);
    let processed =
        process_parallel_observed(&corpus.files, &config.process, threads, Observer::none());
    let mining = MiningConfig {
        threads,
        ..config.mining.clone()
    };
    let det = Detector::mine(&processed, &commits, lang, &mining);

    let reps = reps.max(1);
    let mut unobserved = f64::INFINITY;
    let mut observed = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let base = det.scan(ScanRequest::full(&processed));
        unobserved = unobserved.min(t.elapsed().as_secs_f64());

        let metrics = PipelineMetrics::new();
        let t = Instant::now();
        let live = det.scan(ScanRequest::full(&processed).observer(metrics.observer()));
        observed = observed.min(t.elapsed().as_secs_f64());
        assert_eq!(
            base.violations.len(),
            live.violations.len(),
            "observation changed scan results"
        );
    }
    OverheadCheck {
        reps,
        unobserved_secs: unobserved,
        observed_secs: observed,
        overhead_pct: (observed - unobserved) / unobserved.max(1e-9) * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_times_every_stage() {
        let bench = measure(Lang::Python, Scale::Small, 7, &[1, 2]);
        assert_eq!(bench.runs.len(), 2);
        assert!(bench.stmts > 0);
        assert!(bench.overhead.is_none());
        for run in &bench.runs {
            assert!(run.threads >= 1);
            assert!(run.process.stmts_per_sec > 0.0);
            assert!(run.mine.stmts_per_sec > 0.0);
            assert!(run.scan.stmts_per_sec > 0.0);
        }
        // Thread-count invariance of the results themselves.
        assert_eq!(bench.runs[0].patterns, bench.runs[1].patterns);
        assert_eq!(bench.runs[0].violations, bench.runs[1].violations);
    }

    #[test]
    fn model_load_times_cold_and_warm() {
        let bench = measure_model_load(Lang::Python, Scale::Small, 7, 2);
        assert_eq!(bench.reps, 2);
        assert!(bench.binary_bytes > 0);
        assert!(bench.cold_binary_secs > 0.0);
        assert!(bench.warm_binary_secs > 0.0 && bench.warm_binary_secs.is_finite());
    }

    #[test]
    fn overhead_check_times_both_arms() {
        let check = measure_overhead(Lang::Python, Scale::Small, 7, 1);
        assert_eq!(check.reps, 1);
        assert!(check.unobserved_secs > 0.0);
        assert!(check.observed_secs > 0.0);
        assert!(check.overhead_pct.is_finite());
    }
}
