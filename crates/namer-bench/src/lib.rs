//! Shared experiment harness for regenerating the paper's tables & figures.
//!
//! Every binary in `src/bin/` reproduces one table or figure of
//! *“Learning to Find Naming Issues with Big Code and Small Supervision”*
//! (see `DESIGN.md` for the experiment index). This library holds the
//! common machinery: corpus setup, report inspection against the oracle,
//! sampling, and table rendering.

pub mod incremental;
pub mod registry;
pub mod throughput;

use namer_core::{Namer, NamerBuilder, NamerConfig, Report, Violation};
use namer_corpus::{Corpus, CorpusConfig, Generator, IssueCategory, Oracle, Severity};
use namer_patterns::MiningConfig;
use namer_syntax::Lang;
use namer_base::rng::SmallRng;

/// Corpus scale selector (`--small` / `--large` on any experiment binary).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// ~100 files; seconds.
    Small,
    /// ~600 files; the default experiment scale.
    Medium,
    /// ~2000 files; for benchmark sweeps.
    Large,
}

impl Scale {
    /// Reads the scale from process arguments (`--small` / `--large`).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--small") {
            Scale::Small
        } else if args.iter().any(|a| a == "--large") {
            Scale::Large
        } else {
            Scale::Medium
        }
    }

    /// The corpus configuration at this scale.
    pub fn corpus_config(self, lang: Lang) -> CorpusConfig {
        match self {
            Scale::Small => CorpusConfig::small(lang),
            Scale::Medium => CorpusConfig::medium(lang),
            Scale::Large => CorpusConfig::large(lang),
        }
    }
}

/// Generated corpus plus its ground truth, ready for experiments.
pub struct Setup {
    /// The synthetic Big Code corpus.
    pub corpus: Corpus,
    /// The inspection oracle.
    pub oracle: Oracle,
    /// Commit history as (before, after) text pairs.
    pub commits: Vec<(String, String)>,
}

/// Generates the experiment corpus for a language.
pub fn setup(lang: Lang, scale: Scale, seed: u64) -> Setup {
    let corpus = Generator::new(scale.corpus_config(lang)).generate(seed);
    let oracle = corpus.oracle();
    let commits = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    Setup {
        corpus,
        oracle,
        commits,
    }
}

/// The Namer configuration used across experiments, scaled to the corpus.
pub fn namer_config(scale: Scale) -> NamerConfig {
    let min_support = match scale {
        Scale::Small => 15,
        Scale::Medium => 40,
        Scale::Large => 80,
    };
    NamerConfig {
        mining: MiningConfig {
            min_path_count: match scale {
                Scale::Small => 4,
                _ => 10,
            },
            min_support,
            ..MiningConfig::default()
        },
        labeled_per_class: match scale {
            Scale::Small => 15,
            _ => 30,
        },
        ..NamerConfig::default()
    }
}

/// Oracle-backed labeler for classifier training.
pub fn labeler<'a>(oracle: &'a Oracle) -> impl Fn(&Violation) -> bool + 'a {
    move |v: &Violation| label_of(oracle, v).is_some()
}

/// Oracle category of a violation, `None` = false positive.
pub fn label_of(oracle: &Oracle, v: &Violation) -> Option<IssueCategory> {
    oracle.label(
        &v.repo,
        &v.path,
        v.line,
        v.original.as_str(),
        v.suggested.as_str(),
    )
}

/// The inspection outcome of a set of reports (one table row).
#[derive(Clone, Copy, Debug, Default)]
pub struct Inspection {
    /// Total reports inspected.
    pub reports: usize,
    /// Reports that are semantic defects.
    pub semantic: usize,
    /// Reports that are code-quality issues.
    pub quality: usize,
    /// False positives.
    pub false_positives: usize,
}

impl Inspection {
    /// (semantic + quality) / reports.
    pub fn precision(&self) -> f64 {
        if self.reports == 0 {
            0.0
        } else {
            (self.semantic + self.quality) as f64 / self.reports as f64
        }
    }
}

/// Inspects reports against the oracle (the stand-in for the paper's manual
/// inspection).
pub fn inspect(reports: &[&Report], oracle: &Oracle) -> Inspection {
    let mut out = Inspection {
        reports: reports.len(),
        ..Inspection::default()
    };
    for r in reports {
        match label_of(oracle, &r.violation) {
            Some(cat) => match cat.severity() {
                Severity::SemanticDefect => out.semantic += 1,
                Severity::CodeQuality => out.quality += 1,
            },
            None => out.false_positives += 1,
        }
    }
    out
}

/// Randomly samples up to `n` violations (the paper's "randomly selected 300
/// violations"), excluding any violation used to train the classifier.
pub fn sample_violations<'a>(
    violations: &'a [Violation],
    training: &[Violation],
    n: usize,
    seed: u64,
) -> Vec<&'a Violation> {
    let is_training = |v: &Violation| {
        training.iter().any(|t| {
            t.repo == v.repo
                && t.path == v.path
                && t.line == v.line
                && t.pattern_idx == v.pattern_idx
        })
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut eligible: Vec<&Violation> = violations.iter().filter(|v| !is_training(v)).collect();
    rng.shuffle(&mut eligible);
    eligible.truncate(n);
    eligible
}

/// Classifies sampled violations with a trained system, producing reports.
pub fn classify_sample(namer: &Namer, sample: &[&Violation]) -> Vec<Report> {
    sample
        .iter()
        .filter(|v| namer.classify(v))
        .map(|v| Report {
            violation: (*v).clone(),
            decision: 0.0,
        })
        .collect()
}

/// Renders an ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Percentage formatting.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// One ablation row of Tables 2 / 5.
pub struct AblationRow {
    /// Row label ("Namer", "w/o C", …).
    pub name: &'static str,
    /// Inspection outcome.
    pub inspection: Inspection,
}

/// Runs the Table 2 / Table 5 ablation: Namer, w/o C, w/o A, w/o C & A.
///
/// Violations are sampled (`sample_n`, the paper uses 300) excluding the
/// classifier's training set, and inspected against the oracle.
pub fn ablation_table(lang: Lang, scale: Scale, seed: u64, sample_n: usize) -> Vec<AblationRow> {
    let Setup {
        corpus,
        oracle,
        commits,
    } = setup(lang, scale, seed);
    let mut rows = Vec::new();
    for use_analysis in [true, false] {
        let mut config = namer_config(scale);
        config.process.use_analysis = use_analysis;
        let namer = Namer::train(&corpus.files, &commits, labeler(&oracle), &config);
        let processed = namer_core::process(&corpus.files, &config.process);
        let session = NamerBuilder::new()
            .namer(namer)
            .build()
            .expect("trained source builds");
        let scan = session.run_processed(&processed).scan;
        let namer = session.namer();
        let sample = sample_violations(&scan.violations, &namer.training_set, sample_n, seed ^ 0xab);
        let with_c = classify_sample(namer, &sample);
        let refs: Vec<&Report> = with_c.iter().collect();
        let without_c: Vec<Report> = sample
            .iter()
            .map(|v| Report {
                violation: (*v).clone(),
                decision: 0.0,
            })
            .collect();
        let refs_wo: Vec<&Report> = without_c.iter().collect();
        match use_analysis {
            true => {
                rows.push(AblationRow {
                    name: "Namer",
                    inspection: inspect(&refs, &oracle),
                });
                rows.push(AblationRow {
                    name: "w/o C",
                    inspection: inspect(&refs_wo, &oracle),
                });
            }
            false => {
                rows.push(AblationRow {
                    name: "w/o A",
                    inspection: inspect(&refs, &oracle),
                });
                rows.push(AblationRow {
                    name: "w/o C & A",
                    inspection: inspect(&refs_wo, &oracle),
                });
            }
        }
    }
    // Paper row order: Namer, w/o C, w/o A, w/o C & A.
    rows
}

/// Prints an ablation table in the paper's format.
pub fn print_ablation(title: &str, rows: &[AblationRow]) {
    print_table(
        title,
        &[
            "Baseline",
            "Report",
            "Semantic defect",
            "Code quality issue",
            "False positive",
            "Precision",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_owned(),
                    r.inspection.reports.to_string(),
                    r.inspection.semantic.to_string(),
                    r.inspection.quality.to_string(),
                    r.inspection.false_positives.to_string(),
                    pct(r.inspection.precision()),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inspection_precision() {
        let i = Inspection {
            reports: 10,
            semantic: 2,
            quality: 5,
            false_positives: 3,
        };
        assert!((i.precision() - 0.7).abs() < 1e-12);
        assert_eq!(Inspection::default().precision(), 0.0);
    }

    #[test]
    fn scale_configs_grow() {
        let s = Scale::Small.corpus_config(Lang::Python);
        let l = Scale::Large.corpus_config(Lang::Python);
        assert!(l.repos > s.repos);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.7), "70%");
    }
}
