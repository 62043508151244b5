//! The end-to-end Namer system: unsupervised mining + the small-supervision
//! defect classifier (Figure 1 of the paper).

use crate::detector::{Detector, ScanRequest, ScanResult, Violation};
use crate::process::{process_parallel_observed, ProcessConfig};
use namer_ml::{repeated_split_validation, select_model, Matrix, Metrics, ModelKind, Pipeline, PipelineConfig};
use namer_observe::{Counter, Observer, Phase};
use namer_patterns::{resolve_threads, MiningConfig};
use namer_syntax::{Lang, SourceFile};
use namer_base::rng::SmallRng;

/// End-to-end configuration.
#[derive(Clone, Debug)]
pub struct NamerConfig {
    /// Preprocessing (parse, analyses, path extraction). Setting
    /// `process.use_analysis = false` gives the "w/o A" ablation.
    pub process: ProcessConfig,
    /// Pattern-mining knobs (§5.1).
    pub mining: MiningConfig,
    /// Classifier pipeline (standardise → PCA → linear model).
    pub classifier: PipelineConfig,
    /// Run the defect classifier. `false` gives the "w/o C" ablation.
    pub use_classifier: bool,
    /// Labeled violations per class (paper: 60 + 60 = 120 total).
    pub labeled_per_class: usize,
    /// Repeats for the 80/20 validation of §5.2 (paper: 30).
    pub cv_repeats: usize,
    /// Seed controlling sampling and training.
    pub seed: u64,
    /// Worker threads for preprocessing, mining, and scanning (`0` = all
    /// available cores, the paper's §5.1 setup). Results are byte-identical
    /// at any thread count; this knob only changes wall-clock time.
    pub threads: usize,
}

impl Default for NamerConfig {
    fn default() -> NamerConfig {
        NamerConfig {
            process: ProcessConfig::default(),
            mining: MiningConfig {
                // Scaled to the synthetic corpus (the paper uses 100/500 on
                // millions of files).
                min_support: 30,
                min_path_count: 10,
                ..MiningConfig::default()
            },
            classifier: PipelineConfig::default(),
            use_classifier: true,
            labeled_per_class: 60,
            cv_repeats: 30,
            seed: 7,
            threads: 0,
        }
    }
}

/// A naming-issue report (a violation the classifier let through).
#[derive(Clone, Debug)]
pub struct Report {
    /// The underlying violation.
    pub violation: Violation,
    /// The classifier's decision value (`+∞`-ish = confident issue). For the
    /// "w/o C" ablation this is `0`.
    pub decision: f64,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.violation)
    }
}

/// The trained Namer system.
pub struct Namer {
    /// The mined detector (patterns + pairs + dataset statistics).
    pub detector: Detector,
    classifier: Option<Pipeline>,
    /// Cross-validation metrics of the selected model (§5.2 / §5.3 numbers).
    pub cv_metrics: Metrics,
    /// The selected model kind.
    pub model_kind: ModelKind,
    /// Violations used for training (excluded from evaluation, as in §5.1).
    pub training_set: Vec<Violation>,
    config: NamerConfig,
    lang: Lang,
}

impl Namer {
    /// Trains Namer on `files`: mines patterns from the (unlabeled) corpus
    /// and commits, then asks `labeler` — the stand-in for the paper's
    /// manual annotator — for a small balanced labeled set of violations to
    /// train the defect classifier.
    pub fn train(
        files: &[SourceFile],
        commits: &[(String, String)],
        labeler: impl Fn(&Violation) -> bool,
        config: &NamerConfig,
    ) -> Namer {
        Namer::train_observed(files, commits, labeler, config, Observer::none())
    }

    /// [`Namer::train`] with observability: the whole pass reports as
    /// [`Phase::Train`], and processing / mining / scanning break down into
    /// their own phases and counters (DESIGN.md §10).
    pub fn train_observed(
        files: &[SourceFile],
        commits: &[(String, String)],
        labeler: impl Fn(&Violation) -> bool,
        config: &NamerConfig,
        obs: Observer<'_>,
    ) -> Namer {
        let _span = obs.phase(Phase::Train);
        let lang = files.first().map(|f| f.lang).unwrap_or(Lang::Python);
        let threads = resolve_threads(config.threads);
        let corpus = process_parallel_observed(files, &config.process, threads, obs);
        let mining = MiningConfig {
            threads,
            ..config.mining.clone()
        };
        let detector = Detector::mine_observed(&corpus, commits, lang, &mining, obs);
        let scan = detector.scan(ScanRequest::full(&corpus).threads(threads).observer(obs));

        let (classifier, cv_metrics, model_kind, training_set) = if config.use_classifier {
            Self::fit_classifier(&scan.violations, &labeler, config)
        } else {
            (None, Metrics::default(), ModelKind::SvmLinear, Vec::new())
        };

        Namer {
            detector,
            classifier,
            cv_metrics,
            model_kind,
            training_set,
            config: config.clone(),
            lang,
        }
    }

    fn fit_classifier(
        violations: &[Violation],
        labeler: &impl Fn(&Violation) -> bool,
        config: &NamerConfig,
    ) -> (Option<Pipeline>, Metrics, ModelKind, Vec<Violation>) {
        // "Manually label" a balanced set of violations (paper: 60/60).
        let mut order: Vec<usize> = (0..violations.len()).collect();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        rng.shuffle(&mut order);
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for &i in &order {
            let v = &violations[i];
            if labeler(v) {
                if pos.len() < config.labeled_per_class {
                    pos.push(i);
                }
            } else if neg.len() < config.labeled_per_class {
                neg.push(i);
            }
            if pos.len() >= config.labeled_per_class && neg.len() >= config.labeled_per_class {
                break;
            }
        }
        let mut sample: Vec<usize> = pos.iter().chain(&neg).copied().collect();
        sample.sort_unstable();
        if pos.is_empty() || neg.is_empty() {
            // Not enough signal to train a classifier; report everything.
            return (None, Metrics::default(), ModelKind::SvmLinear, Vec::new());
        }
        let x = Matrix::from_rows(
            &sample
                .iter()
                .map(|&i| violations[i].features.to_vec())
                .collect::<Vec<_>>(),
        );
        let y: Vec<bool> = sample.iter().map(|&i| labeler(&violations[i])).collect();
        let (kind, _) = select_model(&x, &y, &config.classifier, config.seed);
        let cv = repeated_split_validation(
            kind,
            &x,
            &y,
            config.cv_repeats,
            0.8,
            &config.classifier,
            config.seed,
        );
        let pipeline = Pipeline::train(kind, &x, &y, &config.classifier);
        let training_set = sample.iter().map(|&i| violations[i].clone()).collect();
        (Some(pipeline), cv, kind, training_set)
    }

    /// Classifies one violation: `true` = report as a naming issue.
    pub fn classify(&self, violation: &Violation) -> bool {
        match &self.classifier {
            Some(c) => c.predict(&violation.features),
            None => true,
        }
    }

    /// The fingerprint a [`crate::persist::ScanCache`] must carry to be
    /// valid for this system (covers the detector and the preprocessing
    /// configuration).
    pub fn scan_fingerprint(&self) -> u64 {
        self.detector.fingerprint(&self.config.process)
    }

    /// Filters a scan's violations through the classifier into reports.
    /// Reports as [`Phase::Classify`] and counts the surviving reports.
    pub(crate) fn reports_from(&self, scan: &ScanResult, obs: Observer<'_>) -> Vec<Report> {
        let _span = obs.phase(Phase::Classify);
        let reports: Vec<Report> = scan
            .violations
            .iter()
            .filter(|v| self.classify(v))
            .map(|v| Report {
                violation: v.clone(),
                decision: self
                    .classifier
                    .as_ref()
                    .map(|c| c.decision(&v.features))
                    .unwrap_or(0.0),
            })
            .collect();
        obs.add(Counter::ReportsEmitted, reports.len() as u64);
        reports
    }

    /// Whether the defect classifier is active.
    pub fn has_classifier(&self) -> bool {
        self.classifier.is_some()
    }

    /// The trained classifier pipeline, if any (for persistence).
    pub fn classifier(&self) -> Option<&Pipeline> {
        self.classifier.as_ref()
    }

    /// Internal constructor behind [`crate::session::NamerBuilder`] and the
    /// persistence layer: a runnable system from its parts, with empty
    /// training set and CV metrics.
    pub(crate) fn assemble(
        detector: Detector,
        classifier: Option<Pipeline>,
        model_kind: ModelKind,
        lang: Lang,
        config: NamerConfig,
    ) -> Namer {
        Namer {
            detector,
            classifier,
            cv_metrics: Metrics::default(),
            model_kind,
            training_set: Vec::new(),
            config,
            lang,
        }
    }

    /// Replaces the defect classifier (builder override path).
    pub(crate) fn set_classifier(&mut self, classifier: Option<Pipeline>, kind: ModelKind) {
        self.config.use_classifier = classifier.is_some();
        self.classifier = classifier;
        self.model_kind = kind;
    }

    /// Applies the session-level worker-thread override (builder path;
    /// training-time knobs are left untouched).
    pub(crate) fn override_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// Table 9: classifier weights per original feature (standardised
    /// space), `None` when running without the classifier.
    pub fn feature_weights(&self) -> Option<Vec<f64>> {
        self.classifier.as_ref().map(Pipeline::feature_weights)
    }

    /// The corpus language this system was trained for.
    pub fn lang(&self) -> Lang {
        self.lang
    }

    /// The configuration used at training time.
    pub fn config(&self) -> &NamerConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::process;

    /// A corpus where assertEqual dominates, one file misuses assertTrue
    /// (true issue), and one repo legitimately repeats a violating shape
    /// (false-positive pressure the classifier should learn to prune).
    fn corpus() -> (Vec<SourceFile>, Vec<(String, String)>) {
        let mut files = Vec::new();
        // The idiom must dominate: pruneUncommon keeps patterns only when
        // ≥ 80 % of matches are satisfied.
        for i in 0..100 {
            files.push(SourceFile::new(
                format!("repo{}", i % 8),
                format!("good{i}.py"),
                "class T(TestCase):\n    def test_a(self):\n        self.assertEqual(value.count, 4)\n",
                namer_syntax::Lang::Python,
            ));
        }
        // True issues: one-off misuses.
        for i in 0..5 {
            files.push(SourceFile::new(
                format!("repo{}", i % 8),
                format!("bad{i}.py"),
                "class T(TestCase):\n    def test_b(self):\n        self.assertTrue(value.count, 4)\n",
                namer_syntax::Lang::Python,
            ));
        }
        // Benign house style: the same "violating" statement repeated many
        // times within one repo (locally common ⇒ not an issue).
        for i in 0..5 {
            files.push(SourceFile::new(
                "benign-repo",
                format!("style{i}.py"),
                "class T(TestCase):\n    def test_c(self):\n        self.assertTrue(value.count, 4)\n\nclass U(TestCase):\n    def test_d(self):\n        self.assertTrue(value.count, 4)\n",
                namer_syntax::Lang::Python,
            ));
        }
        let commits = vec![(
            "class T(TestCase):\n    def t(self):\n        self.assertTrue(v.count, 1)\n".to_owned(),
            "class T(TestCase):\n    def t(self):\n        self.assertEqual(v.count, 1)\n".to_owned(),
        )];
        (files, commits)
    }

    fn config() -> NamerConfig {
        NamerConfig {
            mining: MiningConfig {
                min_path_count: 2,
                min_support: 10,
                ..MiningConfig::default()
            },
            labeled_per_class: 5,
            cv_repeats: 5,
            ..NamerConfig::default()
        }
    }

    /// Labeler: misuse files are true issues, benign-repo repeats are not.
    fn labeler(v: &Violation) -> bool {
        v.path.starts_with("bad")
    }

    #[test]
    fn end_to_end_detects_and_classifies() {
        let (files, commits) = corpus();
        let namer = Namer::train(&files, &commits, labeler, &config());
        assert!(namer.has_classifier());
        let mut session = crate::session::NamerBuilder::new()
            .namer(namer)
            .build()
            .expect("session builds");
        let reports = session.run(&files).expect("cacheless run cannot fail").reports;
        assert!(!reports.is_empty());
        // The true issues are reported…
        let true_hits = reports
            .iter()
            .filter(|r| r.violation.path.starts_with("bad"))
            .count();
        assert!(true_hits >= 3, "only {true_hits} true issues reported");
        // …and the benign house style is mostly pruned.
        let fp_hits: Vec<&str> = reports
            .iter()
            .filter(|r| r.violation.repo == "benign-repo")
            .map(|r| r.violation.path.as_str())
            .collect();
        assert!(fp_hits.len() <= 4, "{} benign reports survived", fp_hits.len());
    }

    #[test]
    fn without_classifier_everything_is_reported() {
        let (files, commits) = corpus();
        let cfg = NamerConfig {
            use_classifier: false,
            ..config()
        };
        let namer = Namer::train(&files, &commits, labeler, &cfg);
        assert!(!namer.has_classifier());
        let corpus_p = process(&files, &cfg.process);
        let session = crate::session::NamerBuilder::new()
            .namer(namer)
            .build()
            .expect("session builds");
        let outcome = session.run_processed(&corpus_p);
        assert_eq!(outcome.reports.len(), outcome.scan.violations.len());
    }

    #[test]
    fn cv_metrics_are_populated() {
        let (files, commits) = corpus();
        let namer = Namer::train(&files, &commits, labeler, &config());
        assert!(namer.cv_metrics.accuracy > 0.5, "{:?}", namer.cv_metrics);
    }

    #[test]
    fn feature_weights_cover_all_features() {
        let (files, commits) = corpus();
        let namer = Namer::train(&files, &commits, labeler, &config());
        let w = namer.feature_weights().unwrap();
        assert_eq!(w.len(), crate::features::FEATURE_COUNT);
    }

    #[test]
    fn training_set_is_balancedish() {
        let (files, commits) = corpus();
        let namer = Namer::train(&files, &commits, labeler, &config());
        let pos = namer.training_set.iter().filter(|v| labeler(v)).count();
        let neg = namer.training_set.len() - pos;
        assert!(pos > 0 && neg > 0);
    }
}
