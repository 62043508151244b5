//! `bench_incremental` — incremental re-scan benchmark.
//!
//! ```text
//! bench_incremental [--quick | --small | --large] [--java]
//!                   [--threads N] [--seed N] [--out FILE]
//! ```
//!
//! Mines a detector on one synthetic corpus, then times four scans through
//! the digest-keyed scan cache (DESIGN.md §8) — cold, warm, 1-line-dirty,
//! and N-statements-dirty — and a from-scratch full re-scan of the 1-line
//! edit, and writes `BENCH_incremental.json`. Every phase is checked bit
//! for bit against its full-scan reference; the binary exits non-zero if
//! any phase diverges or if the 1-line-dirty phase is less than 5× faster
//! than the full re-scan. `--quick` runs the small corpus for the smoke
//! tests; the default scale is medium.

use namer_base::json::ToJson;
use namer_bench::incremental::measure_incremental;
use namer_bench::Scale;
use namer_core::{atomic_write, RealFs};
use namer_patterns::resolve_threads;
use namer_syntax::Lang;
use std::process::ExitCode;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick || args.iter().any(|a| a == "--small") {
        Scale::Small
    } else if args.iter().any(|a| a == "--large") {
        Scale::Large
    } else {
        Scale::Medium
    };
    let lang = if args.iter().any(|a| a == "--java") {
        Lang::Java
    } else {
        Lang::Python
    };
    let seed: u64 = match flag_value(&args, "--seed").map(str::parse) {
        None => 2021,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("error: bad --seed");
            return ExitCode::from(2);
        }
    };
    let threads = match flag_value(&args, "--threads").map(str::parse) {
        None => resolve_threads(0),
        Some(Ok(n)) => resolve_threads(n),
        Some(Err(_)) => {
            eprintln!("error: bad --threads");
            return ExitCode::from(2);
        }
    };
    let out = flag_value(&args, "--out").unwrap_or("BENCH_incremental.json");

    println!("incremental scan bench: {lang}, {scale:?} corpus, {threads} thread(s)");
    let bench = measure_incremental(lang, scale, seed, threads);
    println!(
        "corpus: {} files / {} statements; {} patterns; \
         {} statement(s) for the N-dirty phase",
        bench.files, bench.stmts, bench.patterns, bench.dirty_stmt_count
    );
    for (name, p) in [
        ("cold", &bench.cold),
        ("warm", &bench.warm),
        ("1-line-dirty", &bench.dirty_line),
        ("N-stmts-dirty", &bench.dirty_stmts),
        ("full re-scan", &bench.full_rescan),
    ] {
        println!(
            "  {name:>13}: {:>8.3}s | {:>5} reused / {:>5} fresh | {} violations",
            p.secs, p.reused, p.fresh, p.violations
        );
    }
    println!(
        "warm speedup {:.1}x | dirty-vs-full speedup {:.1}x | identical: {}",
        bench.warm_speedup, bench.dirty_speedup, bench.identical
    );

    let json = bench.to_value().to_pretty();
    if let Err(e) = atomic_write(&RealFs, out.as_ref(), (json + "\n").as_bytes()) {
        eprintln!("error: writing {out}: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {out}");
    if !bench.identical {
        eprintln!("error: incremental scan diverged from the full scan");
        return ExitCode::from(1);
    }
    // The file cache's claim: a one-statement edit re-scans one file, so
    // it costs a fraction of a full re-scan at every scale.
    const FLOOR: f64 = 5.0;
    if bench.dirty_speedup < FLOOR {
        eprintln!(
            "error: 1-line-dirty phase was only {:.2}x faster than the full \
             re-scan (floor: {FLOOR}x)",
            bench.dirty_speedup
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
