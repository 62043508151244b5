//! Property-based tests for patterns, mining, and the FP tree.

use namer_base::prop;
use namer_base::rng::SmallRng;
use namer_patterns::{
    mine_patterns, ConfusingPairs, FpTree, MiningConfig, PathSet, PatternType,
    Relation,
};
use namer_syntax::namepath::NamePath;
use namer_syntax::{PrefixId, Sym};

const CASES: u32 = 48;

/// Transactions of `(tag, end)` items: `tx` of them, each `items` long.
fn transactions(
    rng: &mut SmallRng,
    tx: std::ops::Range<usize>,
    items: std::ops::Range<usize>,
    tags: u8,
    ends: u8,
) -> Vec<Vec<(u8, u8)>> {
    prop::vec(rng, tx, |r| {
        prop::vec(r, items.clone(), |r| {
            (r.gen_range(0..tags), r.gen_range(0..ends))
        })
    })
}

fn np(tag: u8, end: &str) -> NamePath {
    NamePath::concrete(vec![(Sym::intern(&format!("P{tag}")), 0)], Sym::intern(end))
}

#[test]
fn fptree_root_children_counts_sum_to_transactions() {
    prop::check(
        CASES,
        |rng| transactions(rng, 1..40, 1..5, 5, 3),
        |transactions| {
            let mut tree = FpTree::new();
            for t in &transactions {
                let paths: Vec<NamePath> = t
                    .iter()
                    .map(|&(tag, e)| np(tag, &format!("e{e}")))
                    .collect();
                tree.update(&paths);
            }
            let total: u64 = tree
                .children(tree.root())
                .iter()
                .map(|&c| tree.count(c))
                .sum();
            assert_eq!(total, transactions.len() as u64);
        },
    );
}

#[test]
fn child_counts_never_exceed_parent() {
    prop::check(
        CASES,
        |rng| transactions(rng, 1..30, 1..4, 4, 2),
        |transactions| {
            let mut tree = FpTree::new();
            for t in &transactions {
                let paths: Vec<NamePath> = t
                    .iter()
                    .map(|&(tag, e)| np(tag, &format!("e{e}")))
                    .collect();
                tree.update(&paths);
            }
            fn check(tree: &FpTree, node: namer_patterns::fptree::NodeRef) -> bool {
                let parent_count = tree.count(node);
                tree.children(node).iter().all(|&c| {
                    (tree.path(node).is_none() || tree.count(c) <= parent_count) && check(tree, c)
                })
            }
            assert!(check(&tree, tree.root()));
        },
    );
}

#[test]
fn violation_implies_match_and_not_satisfaction() {
    let strategy = |rng: &mut SmallRng| (rng.gen_range(10u8..40), rng.gen_range(1u8..5));
    prop::check(CASES, strategy, |(good, bad)| {
        // good statements end in "Equal", bad ones in "True".
        let mut stmts: Vec<PathSet> = Vec::new();
        for _ in 0..good {
            stmts.push(PathSet::new(vec![np(0, "self"), np(1, "Equal")]));
        }
        for _ in 0..bad {
            stmts.push(PathSet::new(vec![np(0, "self"), np(1, "True")]));
        }
        let mut pairs = ConfusingPairs::new();
        pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
        let config = MiningConfig {
            min_path_count: 2,
            min_support: 5,
            min_satisfaction: 0.5,
            ..MiningConfig::default()
        };
        let patterns = mine_patterns(&stmts, PatternType::ConfusingWord, Some(&pairs), &config);
        for p in &patterns {
            for s in &stmts {
                match p.relation(&s.paths) {
                    Relation::Violated(_) => assert!(p.matches(&s.paths)),
                    Relation::Satisfied => assert!(p.matches(&s.paths)),
                    Relation::NoMatch => assert!(!p.matches(&s.paths)),
                }
            }
        }
    });
}

#[test]
fn prune_counts_are_consistent() {
    let strategy = |rng: &mut SmallRng| (rng.gen_range(10u8..40), rng.gen_range(0u8..6));
    prop::check(CASES, strategy, |(good, bad)| {
        let mut stmts: Vec<PathSet> = Vec::new();
        for _ in 0..good {
            stmts.push(PathSet::new(vec![np(0, "self"), np(1, "Equal")]));
        }
        for _ in 0..bad {
            stmts.push(PathSet::new(vec![np(0, "self"), np(1, "True")]));
        }
        let mut pairs = ConfusingPairs::new();
        pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
        let config = MiningConfig {
            min_path_count: 2,
            min_support: 5,
            min_satisfaction: 0.0,
            ..MiningConfig::default()
        };
        let patterns = mine_patterns(&stmts, PatternType::ConfusingWord, Some(&pairs), &config);
        for p in &patterns {
            assert!(p.satisfactions <= p.matches);
            assert!(p.matches as usize <= stmts.len());
            assert!(p.satisfaction_rate() >= 0.0 && p.satisfaction_rate() <= 1.0);
        }
    });
}

#[test]
fn prefix_interning_round_trips() {
    let strategy =
        |rng: &mut SmallRng| prop::vec(rng, 0..6, |r| (r.gen_range(0u8..12), r.gen_range(0u32..4)));
    prop::check(CASES, strategy, |prefix| {
        let prefix: Vec<(Sym, u32)> = prefix
            .iter()
            .map(|&(tag, idx)| (Sym::intern(&format!("V{tag}")), idx))
            .collect();
        let id = PrefixId::intern(&prefix);
        assert_eq!(id.as_slice(), prefix.as_slice());
        // Interning is idempotent: the same prefix always maps to the
        // same dense id.
        assert_eq!(PrefixId::intern(&prefix), id);
    });
}

#[test]
fn path_set_lookups_match_linear_scan() {
    let strategy =
        |rng: &mut SmallRng| prop::vec(rng, 1..8, |r| (r.gen_range(0u8..6), r.gen_range(0u8..4)));
    prop::check(CASES, strategy, |paths| {
        let paths: Vec<NamePath> = paths
            .iter()
            .map(|&(tag, e)| np(tag, &format!("e{e}")))
            .collect();
        let set = PathSet::new(paths.clone());
        for p in &paths {
            // The interned-key index agrees with a linear scan; on duplicate
            // prefixes the last occurrence wins (HashMap-collect order).
            let linear = paths
                .iter()
                .rev()
                .find(|q| q.prefix == p.prefix)
                .and_then(|q| q.end);
            assert_eq!(set.end_at(&p.prefix), linear);
            assert_eq!(set.end_at_id(p.prefix_id()), linear);
            // Every concrete path is found via its symbolic shape.
            assert!(set.contains_eq(&p.to_symbolic()));
        }
    });
}

#[test]
fn diff_of_identical_sources_is_empty() {
    prop::check(
        CASES,
        |rng| rng.gen_range(0usize..4),
        |src_idx| {
            let sources = [
                "x = compute(y)\n",
                "self.name = name\n",
                "for i in range(5):\n    total += i\n",
                "with open(path) as f:\n    data = f.read()\n",
            ];
            let src = sources[src_idx];
            let a = namer_syntax::python::parse(src).expect("parses");
            let b = namer_syntax::python::parse(src).expect("parses");
            assert!(namer_patterns::diff_word_pairs(&a, &b).is_empty());
        },
    );
}
