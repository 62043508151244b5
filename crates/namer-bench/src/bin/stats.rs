//! §5.2 / §5.3 statistics: mined pattern counts, violation coverage,
//! violation-level recall of the corpus's injected issues by category,
//! classifier cross-validation metrics, per-file analysis speed, and the
//! ablation knobs DESIGN.md calls out (classifier model comparison).

use namer_bench::{labeler, namer_config, pct, print_table, setup, Scale, Setup};
use namer_core::{process, Namer, NamerBuilder};
use namer_ml::{k_fold_validation, Matrix, ModelKind};
use namer_syntax::Lang;
use std::collections::BTreeMap;
use std::time::Instant;

fn run_lang(lang: Lang, scale: Scale, seed: u64) {
    let Setup {
        corpus,
        oracle,
        commits,
    } = setup(lang, scale, seed);
    let config = namer_config(scale);

    // Per-file preprocessing speed (§5.1 reports 39 ms Python / 20 ms Java
    // per file on the authors' server; ours are small synthetic files).
    let t0 = Instant::now();
    let processed = process(&corpus.files, &config.process);
    let per_file_ms = t0.elapsed().as_secs_f64() * 1000.0 / corpus.files.len().max(1) as f64;

    let namer = Namer::train(&corpus.files, &commits, labeler(&oracle), &config);
    let session = NamerBuilder::new()
        .namer(namer)
        .build()
        .expect("trained source builds");
    let scan = session.run_processed(&processed).scan;
    let namer = session.namer();

    let rows = vec![
        vec!["files".into(), corpus.files.len().to_string()],
        vec!["repositories".into(), corpus.repo_count().to_string()],
        vec!["statements".into(), processed.stmt_count().to_string()],
        vec![
            "mined name patterns".into(),
            namer.detector.pattern_count().to_string(),
        ],
        vec![
            "confusing word pairs".into(),
            namer.detector.pairs.len().to_string(),
        ],
        vec![
            "violations (report candidates)".into(),
            scan.violations.len().to_string(),
        ],
        vec![
            "raw (statement, pattern) violations".into(),
            scan.raw_violation_count.to_string(),
        ],
        vec![
            "files with ≥1 violation".into(),
            format!(
                "{} ({})",
                scan.files_with_violation,
                pct(scan.files_with_violation as f64 / scan.files_scanned.max(1) as f64)
            ),
        ],
        vec![
            "repos with ≥1 violation".into(),
            format!(
                "{} ({})",
                scan.repos_with_violation,
                pct(scan.repos_with_violation as f64 / corpus.repo_count().max(1) as f64)
            ),
        ],
        vec![
            "selected classifier".into(),
            namer.model_kind.to_string(),
        ],
        vec![
            "CV accuracy/precision/recall/F1".into(),
            format!(
                "{} / {} / {} / {}",
                pct(namer.cv_metrics.accuracy),
                pct(namer.cv_metrics.precision),
                pct(namer.cv_metrics.recall),
                pct(namer.cv_metrics.f1)
            ),
        ],
        vec![
            "preprocessing per file".into(),
            format!("{per_file_ms:.1} ms"),
        ],
    ];
    print_table(&format!("§5.2/§5.3 statistics ({lang})"), &["metric", "value"], &rows);

    // Violation-level recall of the injected issues: does any report
    // candidate sit on the injected line, whatever the classifier decides.
    let mut recall: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for inj in &corpus.injections {
        let hit = scan
            .violations
            .iter()
            .any(|v| v.repo == inj.repo && v.path == inj.path && v.line == inj.line);
        let (found, total) = recall.entry(inj.category.to_string()).or_default();
        *total += 1;
        *found += usize::from(hit);
    }
    let rows: Vec<Vec<String>> = recall
        .into_iter()
        .map(|(category, (found, total))| {
            vec![
                category,
                format!("{found}/{total}"),
                pct(found as f64 / total.max(1) as f64),
            ]
        })
        .collect();
    print_table(
        &format!("Injected-issue recall by category ({lang}, violation level)"),
        &["category", "found", "recall"],
        &rows,
    );

    // Model-choice ablation (DESIGN.md §5): CV metrics per candidate model.
    if !namer.training_set.is_empty() {
        let x = Matrix::from_rows(
            &namer
                .training_set
                .iter()
                .map(|v| v.features.to_vec())
                .collect::<Vec<_>>(),
        );
        let lab = labeler(&oracle);
        let y: Vec<bool> = namer.training_set.iter().map(&lab).collect();
        let rows: Vec<Vec<String>> = [ModelKind::SvmLinear, ModelKind::LogReg, ModelKind::Lda]
            .into_iter()
            .map(|kind| {
                let m = k_fold_validation(kind, &x, &y, 5, &config.classifier, 7);
                vec![
                    kind.to_string(),
                    pct(m.accuracy),
                    pct(m.precision),
                    pct(m.recall),
                    pct(m.f1),
                ]
            })
            .collect();
        print_table(
            &format!("Classifier model selection ({lang})"),
            &["model", "accuracy", "precision", "recall", "F1"],
            &rows,
        );
    }
}

fn main() {
    let scale = Scale::from_args();
    run_lang(Lang::Python, scale, 42);
    run_lang(Lang::Java, scale, 43);
    println!("\nPaper reference: 65,619 Python / 79,417 Java patterns; 50%/11% of files and 92%/77% of repos with ≥1 violation; CV ≈81% (Py) / ≈90% (Java); 39/20 ms per file.");
}
