//! The 17 violation features of Table 1.

use namer_patterns::{ConfusingPairs, NamePattern};
use namer_syntax::Sym;

/// Number of features (Table 1).
pub const FEATURE_COUNT: usize = 17;

/// Human-readable feature names, indexed as in Table 1 (0-based here).
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "number of name paths of s",
    "identical statements (file)",
    "identical statements (repo)",
    "satisfaction rate of p (file)",
    "satisfaction rate of p (repo)",
    "satisfaction rate of p (dataset)",
    "violations of p (file)",
    "violations of p (repo)",
    "violations of p (dataset)",
    "satisfactions of p (file)",
    "satisfactions of p (repo)",
    "satisfactions of p (dataset)",
    "p targets a function name",
    "condition size of p",
    "match ratio between p and s",
    "edit distance original/suggested",
    "original/suggested is a confusing pair",
];

/// Match/satisfaction/violation counts of one pattern at one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelCounts {
    /// Number of statements matching the pattern.
    pub matches: u64,
    /// Number of satisfying statements.
    pub satisfactions: u64,
    /// Number of violating statements.
    pub violations: u64,
}

impl LevelCounts {
    /// satisfactions / matches, `0` when unmatched.
    pub fn satisfaction_rate(&self) -> f64 {
        if self.matches == 0 {
            0.0
        } else {
            self.satisfactions as f64 / self.matches as f64
        }
    }

    /// Accumulates one relation outcome.
    pub fn record(&mut self, satisfied: bool) {
        self.matches += 1;
        if satisfied {
            self.satisfactions += 1;
        } else {
            self.violations += 1;
        }
    }

    /// Accumulates another count set (merging per-file counts into repo
    /// aggregates).
    pub fn add(&mut self, other: LevelCounts) {
        self.matches += other.matches;
        self.satisfactions += other.satisfactions;
        self.violations += other.violations;
    }
}

/// Everything feature extraction needs about one violation's context.
#[derive(Clone, Copy, Debug)]
pub struct FeatureInputs<'a> {
    /// The violated pattern.
    pub pattern: &'a NamePattern,
    /// Name-path count of the statement (feature 1).
    pub stmt_path_count: usize,
    /// Identical statements in the file (feature 2).
    pub identical_in_file: u64,
    /// Identical statements in the repository (feature 3).
    pub identical_in_repo: u64,
    /// Pattern counts at file level (features 4, 7, 10).
    pub file: LevelCounts,
    /// Pattern counts at repository level (features 5, 8, 11).
    pub repo: LevelCounts,
    /// Pattern counts over the mining dataset (features 6, 9, 12).
    pub dataset: LevelCounts,
    /// The offending subtoken.
    pub original: Sym,
    /// The suggested subtoken.
    pub suggested: Sym,
}

/// Computes the 17-dimensional feature vector ϕ(s, p) of Table 1.
pub fn extract(inputs: &FeatureInputs<'_>, pairs: &ConfusingPairs) -> [f64; FEATURE_COUNT] {
    let p = inputs.pattern;
    let cond_len = p.condition.len() as f64;
    let ded_len = p.deduction.len();
    let denom = inputs.stmt_path_count.saturating_sub(ded_len).max(1) as f64;
    [
        inputs.stmt_path_count as f64,
        inputs.identical_in_file as f64,
        inputs.identical_in_repo as f64,
        inputs.file.satisfaction_rate(),
        inputs.repo.satisfaction_rate(),
        inputs.dataset.satisfaction_rate(),
        inputs.file.violations as f64,
        inputs.repo.violations as f64,
        inputs.dataset.violations as f64,
        inputs.file.satisfactions as f64,
        inputs.repo.satisfactions as f64,
        inputs.dataset.satisfactions as f64,
        if targets_function_name(p) { 1.0 } else { 0.0 },
        cond_len,
        cond_len / denom,
        levenshtein(inputs.original.as_str(), inputs.suggested.as_str()) as f64,
        if pairs.contains(inputs.original, inputs.suggested)
            || pairs.contains(inputs.suggested, inputs.original)
        {
            1.0
        } else {
            0.0
        },
    ]
}

/// Feature 13: does the pattern's deduction point at a called function's
/// name (an `Attr` below a `Call`) rather than an object name?
pub fn targets_function_name(p: &NamePattern) -> bool {
    let Some(d) = p.deduction.first() else {
        return false;
    };
    let mut saw_call = false;
    for &(v, _) in &d.prefix {
        match v.as_str() {
            "Call" => saw_call = true,
            "Attr" if saw_call => return true,
            _ => {}
        }
    }
    false
}

/// Levenshtein edit distance (feature 16).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use namer_syntax::namepath::NamePath;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("port", "por"), 1);
        assert_eq!(levenshtein("True", "Equal"), 4);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn level_counts_rates() {
        let mut c = LevelCounts::default();
        c.record(true);
        c.record(true);
        c.record(false);
        assert_eq!(c.matches, 3);
        assert_eq!(c.violations, 1);
        assert!((c.satisfaction_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(LevelCounts::default().satisfaction_rate(), 0.0);
    }

    fn pattern_with_prefix(vals: &[&str]) -> NamePattern {
        let prefix: Vec<(Sym, u32)> = vals.iter().map(|v| (Sym::intern(v), 0)).collect();
        NamePattern::confusing_word(vec![], NamePath::concrete(prefix, Sym::intern("Equal")))
    }

    #[test]
    fn function_name_target_detection() {
        let fn_pat = pattern_with_prefix(&["ExprStmt", "NumArgs(2)", "Call", "AttributeLoad", "Attr", "NumST(2)"]);
        assert!(targets_function_name(&fn_pat));
        let obj_pat = pattern_with_prefix(&["Assign", "NameStore", "NumST(1)"]);
        assert!(!targets_function_name(&obj_pat));
        // Attr without an enclosing call is an object attribute, not a
        // function name.
        let attr_pat = pattern_with_prefix(&["Assign", "AttributeStore", "Attr", "NumST(1)"]);
        assert!(!targets_function_name(&attr_pat));
    }

    #[test]
    fn extract_produces_17_sane_features() {
        let p = pattern_with_prefix(&["Call", "Attr", "NumST(2)"]);
        let pairs = ConfusingPairs::new();
        let inputs = FeatureInputs {
            pattern: &p,
            stmt_path_count: 5,
            identical_in_file: 1,
            identical_in_repo: 2,
            file: LevelCounts {
                matches: 4,
                satisfactions: 3,
                violations: 1,
            },
            repo: LevelCounts {
                matches: 8,
                satisfactions: 6,
                violations: 2,
            },
            dataset: LevelCounts {
                matches: 100,
                satisfactions: 95,
                violations: 5,
            },
            original: Sym::intern("True"),
            suggested: Sym::intern("Equal"),
        };
        let f = extract(&inputs, &pairs);
        assert_eq!(f.len(), FEATURE_COUNT);
        assert_eq!(f[0], 5.0);
        assert!((f[3] - 0.75).abs() < 1e-12);
        assert!((f[5] - 0.95).abs() < 1e-12);
        assert_eq!(f[8], 5.0);
        assert_eq!(f[12], 1.0); // function-name target
        assert_eq!(f[15], 4.0); // edit distance True→Equal
        assert_eq!(f[16], 0.0); // not a mined pair
    }

    #[test]
    fn confusing_pair_feature_fires_in_either_orientation() {
        let p = pattern_with_prefix(&["Call", "Attr", "NumST(2)"]);
        let mut pairs = ConfusingPairs::new();
        pairs.insert(Sym::intern("True"), Sym::intern("Equal"));
        let inputs = FeatureInputs {
            pattern: &p,
            stmt_path_count: 3,
            identical_in_file: 1,
            identical_in_repo: 1,
            file: LevelCounts::default(),
            repo: LevelCounts::default(),
            dataset: LevelCounts::default(),
            original: Sym::intern("Equal"),
            suggested: Sym::intern("True"),
        };
        assert_eq!(extract(&inputs, &pairs)[16], 1.0);
    }
}
