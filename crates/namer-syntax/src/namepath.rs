//! Name paths (Definitions 3.2–3.4 of the paper).
//!
//! A name path `⟨S, n⟩` records the route from an AST+ root to one leaf
//! subtoken: `S` is the list of `(non-terminal value, child index)` pairs and
//! `n` is the end node — either a concrete subtoken or the symbolic `ϵ` used
//! by pattern deductions.

use crate::ast::{Ast, NodeId};
use crate::intern::{PrefixId, Sym};
use std::fmt;

/// A name path `⟨S, n⟩`.
///
/// `end == None` encodes the symbolic node `ϵ` (Definition 3.2), which any
/// concrete end node equals under the `=` operator (Definition 3.4).
///
/// The derived `Ord` gives the canonical item order used when FP-tree
/// transactions are sorted.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NamePath {
    /// The prefix `S`: `(value of nj, index ij)` pairs from the root down.
    pub prefix: Vec<(Sym, u32)>,
    /// The end node `n`: a concrete subtoken, or `None` for `ϵ`.
    pub end: Option<Sym>,
}

impl NamePath {
    /// Creates a concrete name path.
    pub fn concrete(prefix: Vec<(Sym, u32)>, end: Sym) -> NamePath {
        NamePath {
            prefix,
            end: Some(end),
        }
    }

    /// Creates a symbolic name path (`n = ϵ`).
    pub fn symbolic(prefix: Vec<(Sym, u32)>) -> NamePath {
        NamePath { prefix, end: None }
    }

    /// Returns this path with its end node replaced by `ϵ`.
    pub fn to_symbolic(&self) -> NamePath {
        NamePath {
            prefix: self.prefix.clone(),
            end: None,
        }
    }

    /// `true` if the end node is concrete.
    pub fn is_concrete(&self) -> bool {
        self.end.is_some()
    }

    /// The end subtoken as a string, if concrete.
    pub fn end_str(&self) -> Option<&'static str> {
        self.end.map(Sym::as_str)
    }

    /// The `∼` operator: do the prefixes coincide? (Definition 3.4.)
    pub fn same_prefix(&self, other: &NamePath) -> bool {
        self.prefix == other.prefix
    }

    /// The `=` operator: `∼` and the end nodes are equal or either is `ϵ`.
    /// (Definition 3.4.)
    pub fn path_eq(&self, other: &NamePath) -> bool {
        self.same_prefix(other)
            && match (self.end, other.end) {
                (None, _) | (_, None) => true,
                (Some(a), Some(b)) => a == b,
            }
    }

    /// The interned id of this path's prefix `S` (see [`PrefixId`]).
    ///
    /// Two paths share a `prefix_id` iff [`NamePath::same_prefix`] holds.
    pub fn prefix_id(&self) -> PrefixId {
        PrefixId::intern(&self.prefix)
    }

    /// The value of the last prefix element, if any.
    ///
    /// For decorated paths this is the origin node; otherwise the `NumST(k)`
    /// wrapper. Useful for quick classification of what a path talks about.
    pub fn last_prefix_value(&self) -> Option<Sym> {
        self.prefix.last().map(|&(v, _)| v)
    }
}

impl fmt::Display for NamePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (v, i) in &self.prefix {
            write!(f, "{v} {i} ")?;
        }
        match self.end {
            Some(e) => write!(f, "{e}"),
            None => write!(f, "ϵ"),
        }
    }
}

/// Extracts the name paths of an AST+ tree, top-down, keeping at most
/// `limit` paths (the paper keeps the first 10 — §5.1).
///
/// Only leaves that are *subtokens* (terminals reached through a `NumST(k)`
/// node, possibly via an origin node) produce paths; operator terminals do
/// not, since the paper's paths end in "leaf subtokens".
///
/// # Examples
///
/// ```
/// use namer_syntax::{python, stmt, transform, namepath};
/// let file = python::parse("self.assertTrue(x, 90)\n")?;
/// let s = &stmt::extract(&file)[0];
/// let plus = transform::to_ast_plus(&s.ast, &transform::Origins::new());
/// let paths = namepath::extract(&plus, 10);
/// let rendered: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
/// assert!(rendered.iter().any(|p| p.ends_with("NumST(2) 1 True")), "{rendered:?}");
/// # Ok::<(), namer_syntax::ParseError>(())
/// ```
pub fn extract(plus: &Ast, limit: usize) -> Vec<NamePath> {
    let mut out = Vec::new();
    let root = match plus.try_root() {
        Some(r) => r,
        None => return out,
    };
    let mut prefix: Vec<(Sym, u32)> = Vec::new();
    walk(plus, root, &mut prefix, &mut out, limit);
    out
}

/// Extracts paths together with the terminal node each one ends at.
///
/// The pipeline uses the node handles to relate violations back to source
/// locations and to the original (pre-transformation) names.
pub fn extract_with_nodes(plus: &Ast, limit: usize) -> Vec<(NamePath, NodeId)> {
    let mut paths = Vec::new();
    let root = match plus.try_root() {
        Some(r) => r,
        None => return paths,
    };
    let mut prefix = Vec::new();
    walk_nodes(plus, root, &mut prefix, &mut paths, limit);
    paths
}

fn is_subtoken_leaf(prefix: &[(Sym, u32)]) -> bool {
    // The leaf is a subtoken iff some enclosing wrapper on the path is a
    // NumST(k) node: either the direct parent, or the grandparent when an
    // origin node is interposed.
    let n = prefix.len();
    let is_num_st = |v: Sym| v.as_str().starts_with("NumST(");
    if n >= 1 && is_num_st(prefix[n - 1].0) {
        return true;
    }
    n >= 2 && is_num_st(prefix[n - 2].0)
}

fn walk(
    plus: &Ast,
    id: NodeId,
    prefix: &mut Vec<(Sym, u32)>,
    out: &mut Vec<NamePath>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    if plus.is_terminal(id) {
        if is_subtoken_leaf(prefix) {
            out.push(NamePath::concrete(prefix.clone(), plus.value(id)));
        }
        return;
    }
    let value = plus.value(id);
    for (i, &c) in plus.children(id).iter().enumerate() {
        prefix.push((value, i as u32));
        walk(plus, c, prefix, out, limit);
        prefix.pop();
        if out.len() >= limit {
            return;
        }
    }
}

fn walk_nodes(
    plus: &Ast,
    id: NodeId,
    prefix: &mut Vec<(Sym, u32)>,
    out: &mut Vec<(NamePath, NodeId)>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    if plus.is_terminal(id) {
        if is_subtoken_leaf(prefix) {
            out.push((NamePath::concrete(prefix.clone(), plus.value(id)), id));
        }
        return;
    }
    let value = plus.value(id);
    for (i, &c) in plus.children(id).iter().enumerate() {
        prefix.push((value, i as u32));
        walk_nodes(plus, c, prefix, out, limit);
        prefix.pop();
        if out.len() >= limit {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{python, stmt, transform};

    fn paths_of(src: &str) -> Vec<NamePath> {
        let file = python::parse(src).unwrap();
        let s = &stmt::extract(&file)[0];
        let plus = transform::to_ast_plus(&s.ast, &transform::Origins::new());
        extract(&plus, 10)
    }

    #[test]
    fn figure2d_paths() {
        let rendered: Vec<String> = paths_of("self.assertTrue(picture.rotate_angle, 90)\n")
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert!(rendered.contains(
            &"ExprStmt 0 NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 self"
                .to_owned()
        ), "{rendered:?}");
        assert!(rendered.contains(
            &"ExprStmt 0 NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 assert".to_owned()
        ), "{rendered:?}");
        assert!(rendered.contains(
            &"ExprStmt 0 NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 True".to_owned()
        ), "{rendered:?}");
        assert!(rendered.contains(
            &"ExprStmt 0 NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM".to_owned()
        ), "{rendered:?}");
    }

    #[test]
    fn all_extracted_paths_are_concrete_with_distinct_prefixes() {
        let paths = paths_of("self.sz = N.array(sz)\n");
        assert!(paths.iter().all(NamePath::is_concrete));
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                assert!(!paths[i].same_prefix(&paths[j]), "duplicate prefix");
            }
        }
    }

    #[test]
    fn limit_is_respected() {
        let file = python::parse("f(a, b, c, d, e, g, h, i, j, k, l, m)\n").unwrap();
        let s = &stmt::extract(&file)[0];
        let plus = transform::to_ast_plus(&s.ast, &transform::Origins::new());
        assert_eq!(extract(&plus, 5).len(), 5);
    }

    #[test]
    fn relational_operators_example_3_5() {
        let paths = paths_of("self.assertTrue(x, 90)\n");
        let np1 = paths
            .iter()
            .find(|p| p.end_str() == Some("True"))
            .unwrap()
            .clone();
        let mut np2 = np1.clone();
        np2.end = Some(Sym::intern("Equal"));
        let np3 = np1.to_symbolic();
        assert!(np1.same_prefix(&np2));
        assert!(!np1.path_eq(&np2));
        assert!(np1.same_prefix(&np3));
        assert!(np1.path_eq(&np3));
    }

    #[test]
    fn symbolic_display_uses_epsilon() {
        let p = NamePath::symbolic(vec![(Sym::intern("Assign"), 0)]);
        assert_eq!(p.to_string(), "Assign 0 ϵ");
    }

    #[test]
    fn operator_terminals_do_not_produce_paths() {
        let paths = paths_of("total += 1\n");
        assert!(paths.iter().all(|p| p.end_str() != Some("+=")), "{paths:?}");
    }

    #[test]
    fn extract_with_nodes_agrees_with_extract() {
        let file = python::parse("self.run(x)\n").unwrap();
        let s = &stmt::extract(&file)[0];
        let plus = transform::to_ast_plus(&s.ast, &transform::Origins::new());
        let a = extract(&plus, 10);
        let b = extract_with_nodes(&plus, 10);
        assert_eq!(a.len(), b.len());
        for (pa, (pb, node)) in a.iter().zip(&b) {
            assert_eq!(pa, pb);
            assert_eq!(plus.value(*node), pa.end.unwrap());
        }
    }

    #[test]
    fn prefix_id_agrees_with_same_prefix() {
        let paths = paths_of("self.assertTrue(picture.rotate_angle, 90)\n");
        for a in &paths {
            for b in &paths {
                assert_eq!(a.same_prefix(b), a.prefix_id() == b.prefix_id());
            }
            // Symbolising keeps the prefix, hence the id.
            assert_eq!(a.prefix_id(), a.to_symbolic().prefix_id());
        }
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut paths = paths_of("self.assertTrue(picture.rotate_angle, 90)\n");
        let orig = paths.clone();
        paths.sort();
        paths.sort();
        assert_eq!(paths.len(), orig.len());
    }
}
