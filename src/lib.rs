//! # Namer
//!
//! A faithful, from-scratch Rust reproduction of *“Learning to Find Naming
//! Issues with Big Code and Small Supervision”* (He, Lee, Raychev, Vechev —
//! PLDI 2021), including every substrate the paper depends on.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`syntax`] — Python/Java parsing, subtoken splitting, the AST+ transform,
//!   and name paths (§3.1 of the paper).
//! * [`datalog`] — the bottom-up Datalog engine backing the points-to analysis.
//! * [`analysis`] — flow-/context-sensitive Andersen points-to and
//!   primitive-origin dataflow (§4.1).
//! * [`patterns`] — name patterns, FP-tree mining, confusing-word pairs
//!   (§3.2–§3.3).
//! * [`ml`] — the small-supervision classifier stack: PCA, SVM, logistic
//!   regression, LDA, cross-validation (§4.2, §5.1).
//! * [`nn`] — the GGNN and GREAT deep-learning baselines of §5.6.
//! * [`corpus`] — the synthetic Big Code substrate standing in for the GitHub
//!   dataset, with ground-truth issue injection.
//! * [`core`] — the end-to-end Namer pipeline: mining → matching →
//!   classification → reports.
//! * [`observe`] — pipeline observability: counters, phase timings, and the
//!   `MetricsSink` trait behind `--metrics-out` (DESIGN.md §10).
//! * [`serve`] — the long-lived JSON-RPC detection daemon behind
//!   `namer serve` (DESIGN.md §13).
//!
//! ## Quickstart
//!
//! ```rust,no_run
//! use namer::core::{Namer, NamerBuilder, NamerConfig};
//! use namer::corpus::{CorpusConfig, Generator};
//! use namer::syntax::Lang;
//!
//! # fn main() -> Result<(), namer::core::NamerError> {
//! // Generate a small synthetic Big Code corpus (stands in for GitHub).
//! let corpus = Generator::new(CorpusConfig::small(Lang::Python)).generate(42);
//! let oracle = corpus.oracle();
//! let commits: Vec<(String, String)> = corpus
//!     .commits
//!     .iter()
//!     .map(|c| (c.before.clone(), c.after.clone()))
//!     .collect();
//! // Mine patterns and train the classifier on a small labeled set.
//! let namer = Namer::train(
//!     &corpus.files,
//!     &commits,
//!     |v| oracle.label(&v.repo, &v.path, v.line, v.original.as_str(), v.suggested.as_str()).is_some(),
//!     &NamerConfig::default(),
//! );
//! // Detect through a session: one API for full and cached scans.
//! let mut session = NamerBuilder::new().namer(namer).build()?;
//! for report in session.run(&corpus.files)?.reports.iter().take(3) {
//!     println!("{report}");
//! }
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use namer_analysis as analysis;
pub use namer_core as core;
pub use namer_corpus as corpus;
pub use namer_datalog as datalog;
pub use namer_ml as ml;
pub use namer_nn as nn;
pub use namer_observe as observe;
pub use namer_patterns as patterns;
pub use namer_serve as serve;
pub use namer_syntax as syntax;
