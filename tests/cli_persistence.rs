//! Integration: model persistence round trip across the public API (the
//! machinery behind `namer train` / `namer scan`).

use namer::core::{Namer, NamerBuilder, NamerConfig, SavedModel};
use namer::corpus::{CorpusConfig, Generator};
use namer::patterns::MiningConfig;
use namer::syntax::{Lang, SourceFile};

fn config() -> NamerConfig {
    NamerConfig {
        mining: MiningConfig {
            min_path_count: 4,
            min_support: 15,
            ..MiningConfig::default()
        },
        labeled_per_class: 10,
        cv_repeats: 3,
        ..NamerConfig::default()
    }
}

#[test]
fn saved_model_scans_unseen_files() {
    let corpus = Generator::new(CorpusConfig::small(Lang::Python)).generate(2021);
    let oracle = corpus.oracle();
    let commits: Vec<(String, String)> = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    let namer = Namer::train(
        &corpus.files,
        &commits,
        |v| {
            oracle
                .label(&v.repo, &v.path, v.line, v.original.as_str(), v.suggested.as_str())
                .is_some()
        },
        &config(),
    );

    // Round trip through the binary container, then scan through the
    // session API.
    let bytes = SavedModel::from_namer(&namer).to_binary();
    assert!(namer::core::binfmt::looks_binary(&bytes));
    let mut session = NamerBuilder::new()
        .model(SavedModel::from_bytes(&bytes).expect("model parses"))
        .config(config())
        .build()
        .expect("saved source builds");

    // Scan a file the system has never seen.
    let unseen = SourceFile::new(
        "user",
        "buggy.py",
        "class TestWidget(TestCase):\n    def test_size(self):\n        widget = load_widget()\n        self.assertTrue(widget.size, 12)\n",
        Lang::Python,
    );
    let reports = session
        .run(std::slice::from_ref(&unseen))
        .expect("cacheless run")
        .reports;
    assert!(
        reports
            .iter()
            .any(|r| r.violation.original.as_str() == "True"
                && r.violation.suggested.as_str() == "Equal"),
        "loaded model finds the assertTrue misuse: {reports:?}"
    );

    // And the fix renders correctly.
    let line = "        self.assertTrue(widget.size, 12)";
    assert_eq!(
        namer::core::fix_line(line, "True", "Equal").as_deref(),
        Some("        self.assertEqual(widget.size, 12)")
    );
}

#[test]
fn model_binary_is_reasonably_sized_and_versioned() {
    let corpus = Generator::new(CorpusConfig::small(Lang::Java)).generate(2022);
    let oracle = corpus.oracle();
    let commits: Vec<(String, String)> = corpus
        .commits
        .iter()
        .map(|c| (c.before.clone(), c.after.clone()))
        .collect();
    let namer = Namer::train(
        &corpus.files,
        &commits,
        |v| {
            oracle
                .label(&v.repo, &v.path, v.line, v.original.as_str(), v.suggested.as_str())
                .is_some()
        },
        &config(),
    );
    let model = SavedModel::from_namer(&namer);
    assert_eq!(model.version, namer::core::persist::FORMAT_VERSION);
    assert_eq!(model.lang, Lang::Java);
    let bytes = model.to_binary();
    assert!(bytes.len() > 1_000, "model carries real content");
    // Round trip is stable (same bytes after load + save).
    let again = SavedModel::from_bytes(&bytes).unwrap().to_binary();
    assert_eq!(bytes, again);
}

/// `namer scan` and `namer watch` reject an unknown `-`-prefixed argument
/// with a usage error naming it (exit 2) instead of skipping it and taking
/// its value as a PATH — here an empty `4/` directory that would otherwise
/// be scanned silently. Covers the retired `--pattern-shards` option and a
/// misspelled flag.
#[test]
fn scan_and_watch_reject_unknown_options() {
    let dir = std::env::temp_dir().join(format!("namer-cli-options-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("4")).unwrap();
    std::fs::create_dir_all(dir.join("repos")).unwrap();
    std::fs::write(dir.join("repos/a.py"), "x = 1\n").unwrap();
    for command in ["scan", "watch"] {
        for (flag, value) in [("--pattern-shards", "4"), ("--thraeds", "4")] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_namer"))
                .current_dir(&dir)
                .args([command, "--model", "m.bin", flag, value, "repos"])
                .output()
                .expect("namer runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command} {flag}: {stderr}");
            assert!(
                stderr.contains(&format!("unknown option `{flag}`")),
                "{command} {flag}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{command} {flag} scanned something");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
