//! Name patterns and Big Code mining (§3.2–§3.3 of the Namer paper).
//!
//! This crate provides:
//!
//! * [`pattern`] — [`NamePattern`]s (consistency and confusing-word types)
//!   with the paper's match / satisfaction / violation semantics;
//! * [`fptree`] — the frequent-pattern tree of Algorithm 1;
//! * [`mining`] — Algorithms 1 & 2 plus `pruneUncommon`, and the
//!   [`PatternSet`] matcher used at inference time;
//! * [`confusion`] — confusing word pairs mined from commit histories via
//!   AST diffing;
//! * [`flat`] — the flat fixed-width pattern/path/pair layout used by the
//!   binary model format (DESIGN.md §12).
//!
//! # Examples
//!
//! ```
//! use namer_patterns::{mine_patterns, ConfusingPairs, MiningConfig, PathSet, PatternType};
//! use namer_syntax::{namepath, python, stmt, transform, Sym};
//!
//! # fn paths(src: &str) -> PathSet {
//! #     let file = python::parse(src).unwrap();
//! #     let s = &stmt::extract(&file)[0];
//! #     let plus = transform::to_ast_plus(&s.ast, &transform::Origins::new());
//! #     PathSet::new(namepath::extract(&plus, 10))
//! # }
//! let mut stmts: Vec<PathSet> = (0..40).map(|_| paths("self.assertEqual(v, 1)\n")).collect();
//! stmts.push(paths("self.assertTrue(v, 1)\n"));
//! let mut pairs = ConfusingPairs::new();
//! pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
//! let config = MiningConfig { min_path_count: 2, min_support: 5, ..MiningConfig::default() };
//! let patterns = mine_patterns(&stmts, PatternType::ConfusingWord, Some(&pairs), &config);
//! assert!(!patterns.is_empty());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confusion;
pub mod flat;
pub mod fptree;
pub mod mining;
pub mod pattern;

pub use confusion::{diff_word_pairs, ConfusingPairs};
pub use fptree::FpTree;
pub use mining::{
    mine_patterns, mine_patterns_observed, resolve_threads, MatchScratch, MiningConfig, PathSet,
    PatternSet,
};
pub use pattern::{NamePattern, PatternType, Relation, ViolationDetail};
