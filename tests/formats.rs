//! Integration: the in-memory model versus the binary model container
//! versus the model registry (DESIGN.md §12).
//!
//! The contract under test: *how* a model reached the session — handed
//! over in memory, decoded from the binary container, or shared by a
//! [`ModelRegistry`] — must not leave a trace in the findings. Every
//! (source × file-threads) grid point must produce byte-identical reports
//! and scan statistics.

use namer::core::{ModelRegistry, Namer, NamerBuilder, NamerConfig, SavedModel};
use namer::corpus::{CorpusConfig, Generator};
use namer::patterns::MiningConfig;
use namer::syntax::{Lang, SourceFile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// Trains once; writes the snapshot as both a JSON file and a binary file
/// inside a scratch model directory the registry can serve from.
fn trained_setup(seed: u64) -> (Vec<SourceFile>, PathBuf, SavedModel) {
    trained_setup_for(Lang::Python, seed)
}

fn trained_setup_for(lang: Lang, seed: u64) -> (Vec<SourceFile>, PathBuf, SavedModel) {
    let corpus = Generator::new(CorpusConfig::small(lang)).generate(seed);
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
    let dir = std::env::temp_dir().join(format!(
        "namer-formats-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    model.save(&dir.join("trained.bin")).expect("binary save");
    model.save(&dir.join("copy.bin")).expect("binary save");
    (corpus.files, dir, model)
}

/// How the model reaches the session.
enum Via<'a> {
    Memory(&'a SavedModel),
    Binary,
    Registry,
}

fn scan_key(files: &[SourceFile], dir: &Path, via: &Via<'_>, threads: usize) -> String {
    let sourced = match via {
        Via::Memory(model) => NamerBuilder::new().model((*model).clone()),
        Via::Binary => NamerBuilder::new()
            .model(SavedModel::load(&dir.join("trained.bin")).expect("binary model loads")),
        Via::Registry => {
            // `copy.bin` and `trained.bin` hold the same model, so the
            // registry directory is ambiguous only in name, not content;
            // serve one by name.
            let registry =
                ModelRegistry::open_via(Arc::new(namer::core::RealFs), dir, usize::MAX)
                    .expect("registry opens");
            NamerBuilder::new()
                .registry(&registry, "trained")
                .expect("registry source resolves")
        }
    };
    let mut session = sourced
        .config(config())
        .threads(threads)
        .build()
        .expect("session builds");
    let outcome = session.run(files).expect("cacheless run");
    let mut key = String::new();
    for r in &outcome.reports {
        key.push_str(&format!("{r} {:x}\n", r.decision.to_bits()));
    }
    key.push_str(&format!(
        "raw={} files={} repos={}\n",
        outcome.scan.raw_violation_count,
        outcome.scan.files_with_violation,
        outcome.scan.repos_with_violation
    ));
    key
}

#[test]
fn findings_are_byte_identical_across_formats_and_the_grid() {
    let (files, dir, model) = trained_setup(2021);
    let baseline = scan_key(&files, &dir, &Via::Memory(&model), 1);
    assert!(!baseline.is_empty());
    for via in [Via::Memory(&model), Via::Binary, Via::Registry] {
        for threads in [1usize, 2, 8] {
            assert_eq!(
                baseline,
                scan_key(&files, &dir, &via, threads),
                "diverged at threads={threads}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn js_model_round_trips_through_the_binary_container() {
    // JavaScript's frozen model tag (registry tag 2) survives the binary
    // container: a JS-trained model reloads with its language intact and
    // produces identical findings from either on-disk format.
    let (files, dir, model) = trained_setup_for(Lang::Js, 2029);
    let loaded = SavedModel::load(&dir.join("trained.bin")).expect("binary model loads");
    assert_eq!(loaded.into_namer(config()).lang(), Lang::Js);
    assert_eq!(
        scan_key(&files, &dir, &Via::Memory(&model), 1),
        scan_key(&files, &dir, &Via::Binary, 1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_names_are_file_stems_and_sole_models_resolve() {
    let (_, dir, _) = trained_setup(2027);
    let registry = ModelRegistry::open(&dir, usize::MAX).expect("registry opens");
    assert_eq!(registry.names(), ["copy", "trained"]);
    assert!(registry.sole_name().is_none(), "two models — no sole name");

    // Both files serve through the registry and describe the same model.
    let copy = registry.get("copy").expect("copy serves");
    let trained = registry.get("trained").expect("trained serves");
    assert_eq!(copy.to_binary(), trained.to_binary());

    std::fs::remove_file(dir.join("copy.bin")).unwrap();
    let sole = ModelRegistry::open(&dir, usize::MAX).expect("registry reopens");
    assert_eq!(sole.sole_name(), Some("trained"));
    let _ = std::fs::remove_dir_all(&dir);
}
