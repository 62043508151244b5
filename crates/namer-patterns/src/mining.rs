//! Mining name patterns from Big Code (Algorithms 1 and 2, §3.3) and
//! matching statements against the mined set.

use crate::confusion::ConfusingPairs;
use crate::fptree::{FpTree, NodeRef};
use crate::pattern::{NamePattern, PatternType, Relation};
use namer_observe::{Counter, Observer, Phase};
use namer_syntax::namepath::NamePath;
use namer_syntax::{PrefixId, Sym};
use std::collections::{HashMap, HashSet};

/// Regularisation knobs (§5.1 of the paper).
#[derive(Clone, Debug)]
pub struct MiningConfig {
    /// Keep only name paths occurring more than this often (paper: 10).
    pub min_path_count: u64,
    /// Maximum number of name paths in a condition (paper: 10).
    pub max_cond_paths: usize,
    /// `combinations` (Algorithm 2 line 7) enumerates all condition subsets
    /// of at most this size, in addition to the full condition set. Bounds
    /// the candidate explosion while still producing the general few-path
    /// conditions of Figure 2 (e).
    pub max_subset_size: usize,
    /// `pruneUncommon`: keep patterns matched at least this often
    /// (paper: 100 for Python, 500 for Java — scaled to corpus size here).
    pub min_support: u64,
    /// `pruneUncommon`: minimum satisfactions/matches ratio (paper: 0.8).
    pub min_satisfaction: f64,
    /// Worker threads for the `pruneUncommon` recount, the dominant mining
    /// cost (`0` = all available cores). Results are identical at any count.
    pub threads: usize,
}

impl Default for MiningConfig {
    fn default() -> MiningConfig {
        MiningConfig {
            min_path_count: 10,
            max_cond_paths: 10,
            max_subset_size: 3,
            min_support: 100,
            min_satisfaction: 0.8,
            threads: 1,
        }
    }
}

/// Resolves a requested worker-thread count: `0` means one worker per
/// available core, any other value is used as given.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The name paths of one statement, with an interned-prefix→end index for
/// fast matching (statement prefixes are unique — see §3.1).
///
/// Prefixes are interned into dense [`PrefixId`]s once at construction, so
/// every subsequent lookup in the match loop hashes a `u32` instead of a
/// `Vec<(Sym, u32)>`.
#[derive(Clone, Debug)]
pub struct PathSet {
    /// The extracted (concrete) name paths.
    pub paths: Vec<NamePath>,
    /// Interned prefix of each path, parallel to `paths`.
    prefix_ids: Vec<PrefixId>,
    by_prefix: HashMap<PrefixId, Sym>,
}

impl PathSet {
    /// Builds the index for one statement's paths.
    pub fn new(paths: Vec<NamePath>) -> PathSet {
        let prefix_ids: Vec<PrefixId> = paths.iter().map(NamePath::prefix_id).collect();
        let by_prefix = paths
            .iter()
            .zip(&prefix_ids)
            .filter_map(|(p, &id)| p.end.map(|e| (id, e)))
            .collect();
        PathSet {
            paths,
            prefix_ids,
            by_prefix,
        }
    }

    /// The end subtoken at `prefix`, if this statement has that path.
    pub fn end_at(&self, prefix: &[(Sym, u32)]) -> Option<Sym> {
        self.end_at_id(PrefixId::intern(prefix))
    }

    /// The end subtoken at the interned prefix `id`, if this statement has
    /// that path.
    pub fn end_at_id(&self, id: PrefixId) -> Option<Sym> {
        self.by_prefix.get(&id).copied()
    }

    /// The interned prefix of each path, parallel to [`PathSet::paths`].
    pub fn prefix_ids(&self) -> &[PrefixId] {
        &self.prefix_ids
    }

    /// Does this statement contain `path` under the `=` operator?
    pub fn contains_eq(&self, path: &NamePath) -> bool {
        match (self.end_at(&path.prefix), path.end) {
            (Some(_), None) => true,
            (Some(e), Some(want)) => e == want,
            (None, _) => false,
        }
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// `true` when the statement produced no paths.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// Mines name patterns of type `ty` from `stmts` (Algorithm 1).
///
/// `pairs` supplies the confusing word pairs and is required for
/// [`PatternType::ConfusingWord`].
///
/// # Panics
///
/// Panics if `ty` is `ConfusingWord` and `pairs` is `None`.
pub fn mine_patterns(
    stmts: &[PathSet],
    ty: PatternType,
    pairs: Option<&ConfusingPairs>,
    config: &MiningConfig,
) -> Vec<NamePattern> {
    mine_patterns_observed(stmts, ty, pairs, config, Observer::none())
}

/// [`mine_patterns`] with observability: candidate generation and the
/// `pruneUncommon` recount report as [`Phase::MineCandidates`] /
/// [`Phase::MinePrune`], and the candidate count lands in
/// [`Counter::PatternCandidates`]. Candidate generation is serial, so the
/// counter is identical at any thread count (DESIGN.md §10).
///
/// # Panics
///
/// Panics if `ty` is `ConfusingWord` and `pairs` is `None`.
pub fn mine_patterns_observed(
    stmts: &[PathSet],
    ty: PatternType,
    pairs: Option<&ConfusingPairs>,
    config: &MiningConfig,
    obs: Observer<'_>,
) -> Vec<NamePattern> {
    if ty == PatternType::ConfusingWord {
        assert!(pairs.is_some(), "confusing-word mining needs mined pairs");
    }
    let candidates = {
        let _span = obs.phase(Phase::MineCandidates);
        gen_candidates(stmts, ty, pairs, config)
    };
    obs.add(Counter::PatternCandidates, candidates.len() as u64);
    let _span = obs.phase(Phase::MinePrune);
    prune_uncommon(candidates, stmts, config)
}

/// Algorithm 1 lines 1–8: frequency-filter paths, grow the FP tree, and
/// walk it into candidate patterns (everything before `pruneUncommon`).
fn gen_candidates(
    stmts: &[PathSet],
    ty: PatternType,
    pairs: Option<&ConfusingPairs>,
    config: &MiningConfig,
) -> Vec<NamePattern> {
    // §5.1: drop infrequent name paths before growing the tree.
    let mut freq: HashMap<&NamePath, u64> = HashMap::new();
    for s in stmts {
        for p in &s.paths {
            *freq.entry(p).or_default() += 1;
        }
    }
    let frequent: HashSet<&NamePath> = freq
        .iter()
        .filter(|(_, &c)| c > config.min_path_count)
        .map(|(&p, _)| p)
        .collect();

    let mut tree = FpTree::new();
    for s in stmts {
        let paths: Vec<&NamePath> = s.paths.iter().filter(|p| frequent.contains(p)).collect();
        match ty {
            PatternType::ConfusingWord => {
                let correct = &pairs.expect("checked above").correct_words;
                for (i, d) in paths.iter().enumerate() {
                    let Some(end) = d.end else { continue };
                    if !correct.contains(&end) {
                        continue;
                    }
                    let mut cond: Vec<NamePath> = paths
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, p)| (*p).clone())
                        .collect();
                    cond.sort();
                    cond.truncate(config.max_cond_paths);
                    cond.push((*d).clone());
                    tree.update(&cond);
                }
            }
            PatternType::Consistency => {
                // Deduction pairs come from the *unfiltered* statement paths:
                // their ends are made symbolic, so per-name rarity must not
                // regularise them away; only condition paths are filtered.
                let all: Vec<&NamePath> = s.paths.iter().collect();
                for i in 0..all.len() {
                    for j in (i + 1)..all.len() {
                        if all[i].end != all[j].end || all[i].prefix == all[j].prefix {
                            continue;
                        }
                        let mut cond: Vec<NamePath> = paths
                            .iter()
                            .filter(|p| p.prefix != all[i].prefix && p.prefix != all[j].prefix)
                            .map(|p| (*p).clone())
                            .collect();
                        cond.sort();
                        cond.truncate(config.max_cond_paths);
                        let mut ded = vec![all[i].to_symbolic(), all[j].to_symbolic()];
                        ded.sort();
                        cond.extend(ded);
                        tree.update(&cond);
                    }
                }
            }
        }
    }

    gen_patterns(&tree, ty, config)
}

/// Algorithm 2: walk the FP tree, emitting (condition, deduction) pairs at
/// every `isLast` node, enumerating condition subsets when small.
fn gen_patterns(tree: &FpTree, ty: PatternType, config: &MiningConfig) -> Vec<NamePattern> {
    let mut acc: HashMap<(Vec<NamePath>, Vec<NamePath>), u64> = HashMap::new();
    let mut stack: Vec<NamePath> = Vec::new();
    gen_rec(tree, tree.root(), ty, config, &mut stack, &mut acc);
    acc.into_iter()
        .map(|((condition, deduction), support)| {
            let mut p = match ty {
                PatternType::Consistency => NamePattern::consistency(
                    condition,
                    deduction[0].clone(),
                    deduction[1].clone(),
                ),
                PatternType::ConfusingWord => {
                    NamePattern::confusing_word(condition, deduction[0].clone())
                }
            };
            p.support = support;
            p
        })
        .collect()
}

fn gen_rec(
    tree: &FpTree,
    node: NodeRef,
    ty: PatternType,
    config: &MiningConfig,
    stack: &mut Vec<NamePath>,
    acc: &mut HashMap<(Vec<NamePath>, Vec<NamePath>), u64>,
) {
    if let Some(p) = tree.path(node) {
        stack.push(p.clone());
    }
    let ded_len = match ty {
        PatternType::Consistency => 2,
        PatternType::ConfusingWord => 1,
    };
    if tree.is_last(node) && stack.len() >= ded_len {
        let (conds, ded) = stack.split_at(stack.len() - ded_len);
        let mut deduction: Vec<NamePath> = ded.to_vec();
        if ty == PatternType::Consistency {
            // Consistency deductions are symbolic.
            deduction = deduction.iter().map(NamePath::to_symbolic).collect();
        }
        let count = tree.count(node);
        // Full condition set.
        let mut add = |cond: Vec<NamePath>| {
            *acc.entry((cond, deduction.clone())).or_default() += count;
        };
        add(conds.to_vec());
        // Subset enumeration (Algorithm 2 line 7), bounded for tractability:
        // all subsets of size ≤ max_subset_size.
        if !conds.is_empty() {
            let n = conds.len();
            let kmax = config.max_subset_size.min(n);
            let mut chosen: Vec<usize> = Vec::new();
            enumerate_subsets(n, kmax, 0, &mut chosen, &mut |idxs: &[usize]| {
                let subset: Vec<NamePath> = idxs.iter().map(|&i| conds[i].clone()).collect();
                *acc.entry((subset, deduction.clone())).or_default() += count;
            });
        }
    }
    for child in tree.children(node) {
        gen_rec(tree, child, ty, config, stack, acc);
    }
    if tree.path(node).is_some() {
        stack.pop();
    }
}

/// Calls `f` on every index subset of `{0..n}` with size in `[0, kmax]`,
/// excluding the full set (added separately by the caller).
fn enumerate_subsets(
    n: usize,
    kmax: usize,
    start: usize,
    chosen: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize]),
) {
    if chosen.len() < n {
        f(chosen);
    }
    if chosen.len() == kmax {
        return;
    }
    for i in start..n {
        chosen.push(i);
        enumerate_subsets(n, kmax, i + 1, chosen, f);
        chosen.pop();
    }
}

/// `pruneUncommon` (Algorithm 1, line 9): recount matches and satisfactions
/// over the dataset and keep patterns that are both frequent and commonly
/// satisfied. The recount — the dominant mining cost — is split across
/// `config.threads` workers; per-chunk counts are merged by addition, so the
/// result is identical to a serial pass.
fn prune_uncommon(
    mut candidates: Vec<NamePattern>,
    stmts: &[PathSet],
    config: &MiningConfig,
) -> Vec<NamePattern> {
    if candidates.is_empty() {
        return candidates;
    }
    // Cheap pre-filter on FP support to bound the recount.
    candidates.retain(|p| p.support >= config.min_support.max(1) / 2);
    let set = PatternSet::new(candidates);
    let (matches, sats) = count_relations(&set, stmts, resolve_threads(config.threads));
    let mut out: Vec<NamePattern> = set
        .patterns
        .into_iter()
        .enumerate()
        .map(|(i, mut p)| {
            p.matches = matches[i];
            p.satisfactions = sats[i];
            p
        })
        .filter(|p| {
            p.matches >= config.min_support && p.satisfaction_rate() >= config.min_satisfaction
        })
        .collect();
    // Deterministic output order: most-supported first.
    out.sort_by(|a, b| {
        b.matches
            .cmp(&a.matches)
            .then_with(|| a.deduction.cmp(&b.deduction))
            .then_with(|| a.condition.cmp(&b.condition))
    });
    out
}

/// Counts per-pattern matches and satisfactions over `stmts`, splitting the
/// statements across `threads` workers. `u64` addition is commutative, so
/// the merged counts equal a serial pass at any thread count.
fn count_relations(set: &PatternSet, stmts: &[PathSet], threads: usize) -> (Vec<u64>, Vec<u64>) {
    fn count_chunk(set: &PatternSet, chunk: &[PathSet]) -> (Vec<u64>, Vec<u64>) {
        let mut matches = vec![0u64; set.len()];
        let mut sats = vec![0u64; set.len()];
        let mut scratch = MatchScratch::for_set(set);
        let mut hits: Vec<(usize, Relation)> = Vec::new();
        for s in chunk {
            set.check_into(s, &mut scratch, &mut hits);
            for (idx, rel) in &hits {
                matches[*idx] += 1;
                if *rel == Relation::Satisfied {
                    sats[*idx] += 1;
                }
            }
        }
        (matches, sats)
    }

    let threads = threads.min(stmts.len().max(1));
    if threads <= 1 {
        return count_chunk(set, stmts);
    }
    let chunk_size = stmts.len().div_ceil(threads).max(1);
    let parts: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = stmts
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || count_chunk(set, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("count worker panicked"))
            .collect()
    });
    let mut matches = vec![0u64; set.len()];
    let mut sats = vec![0u64; set.len()];
    for (m, s) in parts {
        for i in 0..set.len() {
            matches[i] += m[i];
            sats[i] += s[i];
        }
    }
    (matches, sats)
}

/// An indexed set of patterns supporting fast per-statement checks.
///
/// Condition and deduction prefixes are interned once at construction
/// ([`PrefixId`]), so [`PatternSet::check`] keys every lookup on a `u32`.
#[derive(Debug)]
pub struct PatternSet {
    /// The patterns, in the order given to [`PatternSet::new`].
    pub patterns: Vec<NamePattern>,
    /// Per-pattern condition paths as (interned prefix, required end).
    cond_keys: Vec<Vec<(PrefixId, Option<Sym>)>>,
    /// Per-pattern deduction prefixes, interned.
    ded_keys: Vec<Vec<PrefixId>>,
    /// First-deduction-prefix → ascending pattern indices.
    index: HashMap<PrefixId, Vec<usize>>,
}

impl PatternSet {
    /// Builds the index.
    pub fn new(patterns: Vec<NamePattern>) -> PatternSet {
        let cond_keys: Vec<Vec<(PrefixId, Option<Sym>)>> = patterns
            .iter()
            .map(|p| {
                p.condition
                    .iter()
                    .map(|c| (c.prefix_id(), c.end))
                    .collect()
            })
            .collect();
        let ded_keys: Vec<Vec<PrefixId>> = patterns
            .iter()
            .map(|p| p.deduction.iter().map(NamePath::prefix_id).collect())
            .collect();
        let mut index: HashMap<PrefixId, Vec<usize>> = HashMap::new();
        for (i, keys) in ded_keys.iter().enumerate() {
            index.entry(keys[0]).or_default().push(i);
        }
        PatternSet {
            patterns,
            cond_keys,
            ded_keys,
            index,
        }
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` when the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Checks a statement against all patterns whose deduction can possibly
    /// be present, returning `(pattern index, relation)` for every *match*
    /// (satisfied or violated).
    ///
    /// Convenience wrapper over [`PatternSet::check_into`] that allocates
    /// fresh buffers; hot loops should hold a [`MatchScratch`] and an output
    /// `Vec` instead.
    pub fn check(&self, stmt: &PathSet) -> Vec<(usize, Relation)> {
        let mut scratch = MatchScratch::for_set(self);
        let mut out = Vec::new();
        self.check_into(stmt, &mut scratch, &mut out);
        out
    }

    /// Like [`PatternSet::check`], writing into caller-provided buffers.
    /// `out` is cleared first; `scratch` is reusable across any number of
    /// statements and carries no information between calls.
    pub fn check_into(
        &self,
        stmt: &PathSet,
        scratch: &mut MatchScratch,
        out: &mut Vec<(usize, Relation)>,
    ) {
        out.clear();
        scratch.begin(self.patterns.len());
        for &pid in stmt.prefix_ids() {
            let Some(cands) = self.index.get(&pid) else {
                continue;
            };
            for &i in cands {
                if !scratch.first_visit(i) {
                    continue;
                }
                if !self.quick_match(i, stmt) {
                    continue;
                }
                match self.patterns[i].relation(&stmt.paths) {
                    Relation::NoMatch => {}
                    rel => out.push((i, rel)),
                }
            }
        }
    }

    /// O(|C| + |D|) match test over interned prefix keys.
    fn quick_match(&self, i: usize, stmt: &PathSet) -> bool {
        self.cond_keys[i]
            .iter()
            .all(|&(pid, want)| match (stmt.end_at_id(pid), want) {
                (Some(_), None) => true,
                (Some(e), Some(w)) => e == w,
                (None, _) => false,
            })
            && self.ded_keys[i]
                .iter()
                .all(|&pid| stmt.end_at_id(pid).is_some())
    }
}

/// Reusable per-worker scratch for [`PatternSet::check_into`].
///
/// Replaces the per-statement `HashSet` of visited pattern indices with a
/// generation-stamped array: `begin` bumps the generation (O(1) clear) and
/// `first_visit` stamps a slot, so dedup costs one array access per
/// candidate.
#[derive(Clone, Debug, Default)]
pub struct MatchScratch {
    stamps: Vec<u32>,
    generation: u32,
}

impl MatchScratch {
    /// Creates scratch sized for `set`.
    pub fn for_set(set: &PatternSet) -> MatchScratch {
        MatchScratch {
            stamps: vec![0; set.len()],
            generation: 0,
        }
    }

    fn begin(&mut self, len: usize) {
        if self.stamps.len() < len {
            self.stamps.resize(len, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Generation wrapped: old stamps could collide with it; reset.
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.generation = 1;
        }
    }

    fn first_visit(&mut self, i: usize) -> bool {
        if self.stamps[i] == self.generation {
            false
        } else {
            self.stamps[i] = self.generation;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use namer_syntax::{namepath, python, stmt, transform};

    fn path_set(src: &str) -> PathSet {
        let file = python::parse(src).unwrap();
        let s = &stmt::extract(&file)[0];
        let plus = transform::to_ast_plus(&s.ast, &transform::Origins::new());
        PathSet::new(namepath::extract(&plus, 10))
    }

    fn corpus(specs: &[(&str, usize)]) -> Vec<PathSet> {
        specs
            .iter()
            .flat_map(|&(src, n)| std::iter::repeat_with(move || path_set(src)).take(n))
            .collect()
    }

    fn small_config() -> MiningConfig {
        MiningConfig {
            min_path_count: 2,
            min_support: 5,
            ..MiningConfig::default()
        }
    }

    #[test]
    fn mines_confusing_word_pattern_for_assert_equal() {
        // 40 statements use assertEqual with a numeric second argument; a
        // couple use assertTrue (the mistake). ⟨True, Equal⟩ is a mined pair.
        let stmts = corpus(&[
            ("self.assertEqual(value, 90)\n", 40),
            ("self.assertTrue(value, 90)\n", 2),
        ]);
        let mut pairs = ConfusingPairs::default();
        pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
        let patterns = mine_patterns(
            &stmts,
            PatternType::ConfusingWord,
            Some(&pairs),
            &small_config(),
        );
        assert!(!patterns.is_empty());
        let set = PatternSet::new(patterns);
        let bad = path_set("self.assertTrue(value, 90)\n");
        let violations: Vec<_> = set
            .check(&bad)
            .into_iter()
            .filter_map(|(i, r)| match r {
                Relation::Violated(v) => Some((i, v)),
                _ => None,
            })
            .collect();
        assert!(!violations.is_empty());
        let v = &violations[0].1;
        assert_eq!(v.original.as_str(), "True");
        assert_eq!(v.suggested.as_str(), "Equal");
    }

    #[test]
    fn satisfied_statements_do_not_violate() {
        let stmts = corpus(&[("self.assertEqual(value, 90)\n", 40)]);
        let mut pairs = ConfusingPairs::default();
        pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
        let patterns = mine_patterns(
            &stmts,
            PatternType::ConfusingWord,
            Some(&pairs),
            &small_config(),
        );
        let set = PatternSet::new(patterns);
        let good = path_set("self.assertEqual(value, 90)\n");
        assert!(set
            .check(&good)
            .iter()
            .all(|(_, r)| *r == Relation::Satisfied));
    }

    #[test]
    fn mines_consistency_pattern_for_ctor_assign() {
        // `self.x = x` with matching names dominates; `self.help = docstring`
        // should violate the mined pattern.
        let stmts = corpus(&[
            ("self.name = name\n", 20),
            ("self.value = value\n", 20),
            ("self.data = data\n", 20),
        ]);
        let patterns =
            mine_patterns(&stmts, PatternType::Consistency, None, &small_config());
        assert!(!patterns.is_empty(), "no consistency patterns mined");
        let set = PatternSet::new(patterns);
        let bad = path_set("self.help = docstring\n");
        let violated = set
            .check(&bad)
            .into_iter()
            .any(|(_, r)| matches!(r, Relation::Violated(_)));
        assert!(violated);
        let good = path_set("self.title = title\n");
        assert!(set
            .check(&good)
            .iter()
            .all(|(_, r)| *r == Relation::Satisfied));
    }

    #[test]
    fn prune_uncommon_drops_rarely_satisfied_patterns() {
        // The deduction word appears but the idiom is satisfied only half the
        // time — below the 0.8 threshold, so nothing survives.
        let stmts = corpus(&[
            ("self.assertEqual(value, 90)\n", 20),
            ("self.assertTrue(value, 90)\n", 20),
        ]);
        let mut pairs = ConfusingPairs::default();
        pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
        let patterns = mine_patterns(
            &stmts,
            PatternType::ConfusingWord,
            Some(&pairs),
            &small_config(),
        );
        // Patterns conditioned on paths shared by both variants must be gone.
        let set = PatternSet::new(patterns);
        let bad = path_set("self.assertTrue(value, 90)\n");
        assert!(set
            .check(&bad)
            .iter()
            .all(|(_, r)| !matches!(r, Relation::Violated(_))));
    }

    #[test]
    fn min_support_prunes_rare_idioms() {
        let stmts = corpus(&[("self.assertEqual(value, 90)\n", 3)]);
        let mut pairs = ConfusingPairs::default();
        pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
        let cfg = MiningConfig {
            min_path_count: 1,
            min_support: 50,
            ..MiningConfig::default()
        };
        let patterns = mine_patterns(&stmts, PatternType::ConfusingWord, Some(&pairs), &cfg);
        assert!(patterns.is_empty());
    }

    #[test]
    fn path_set_contains_eq_semantics() {
        let s = path_set("self.assertTrue(value, 90)\n");
        let true_path = s.paths.iter().find(|p| p.end_str() == Some("True")).unwrap().clone();
        assert!(s.contains_eq(&true_path));
        assert!(s.contains_eq(&true_path.to_symbolic()));
        let mut other = true_path.clone();
        other.end = Some(Sym::intern("Equal"));
        assert!(!s.contains_eq(&other));
    }

    #[test]
    fn check_into_matches_check_across_statements() {
        let stmts = corpus(&[
            ("self.assertEqual(value, 90)\n", 40),
            ("self.assertTrue(value, 90)\n", 2),
        ]);
        let mut pairs = ConfusingPairs::default();
        pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
        let patterns = mine_patterns(
            &stmts,
            PatternType::ConfusingWord,
            Some(&pairs),
            &small_config(),
        );
        let set = PatternSet::new(patterns);
        // One reused scratch across many statements must agree with the
        // allocating wrapper on every single one.
        let mut scratch = MatchScratch::for_set(&set);
        let mut out = Vec::new();
        for s in stmts.iter().chain(&[
            path_set("self.assertTrue(value, 90)\n"),
            path_set("self.assertEqual(value, 90)\n"),
            path_set("unrelated(x)\n"),
        ]) {
            set.check_into(s, &mut scratch, &mut out);
            assert_eq!(out, set.check(s));
        }
    }

    #[test]
    fn mining_is_thread_count_invariant() {
        let stmts = corpus(&[
            ("self.assertEqual(value, 90)\n", 40),
            ("self.assertTrue(value, 90)\n", 2),
            ("self.name = name\n", 20),
        ]);
        let mut pairs = ConfusingPairs::default();
        pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
        let serial = small_config();
        for threads in [2, 3, 8] {
            let parallel = MiningConfig {
                threads,
                ..small_config()
            };
            for ty in [PatternType::ConfusingWord, PatternType::Consistency] {
                assert_eq!(
                    mine_patterns(&stmts, ty, Some(&pairs), &serial),
                    mine_patterns(&stmts, ty, Some(&pairs), &parallel),
                    "{ty} mining differs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn mining_is_deterministic() {
        let stmts = corpus(&[
            ("self.assertEqual(value, 90)\n", 30),
            ("self.assertTrue(value, 90)\n", 2),
        ]);
        let mut pairs = ConfusingPairs::default();
        pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
        let a = mine_patterns(&stmts, PatternType::ConfusingWord, Some(&pairs), &small_config());
        let b = mine_patterns(&stmts, PatternType::ConfusingWord, Some(&pairs), &small_config());
        assert_eq!(a, b);
    }
}
