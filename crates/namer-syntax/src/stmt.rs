//! Statement extraction.
//!
//! Definition 3.1 works on ASTs "for a program statement … part of the
//! abstract syntax tree of the whole program, projected on a specific
//! statement only". This module walks a parsed file tree and emits one small
//! [`Stmt`] per simple statement and per compound-statement *header* (the
//! `for …` line without its body, the `def` signature without its suite, …),
//! keeping a back-map from statement nodes to the file tree so analysis
//! results computed on the file can decorate the statement.

use crate::ast::{Ast, NodeId};
use crate::intern::Sym;
use crate::sym;
use crate::vocab;
use std::collections::HashSet;

/// One extracted statement: a self-contained AST plus provenance.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// The projected statement tree (rooted at the statement node).
    pub ast: Ast,
    /// `back[n.index()]` is the file-AST node the statement node `n` copies.
    pub back: Vec<NodeId>,
    /// 1-based line of the statement in the source file.
    pub line: u32,
    /// Innermost enclosing class name, if any.
    pub enclosing_class: Option<Sym>,
    /// Innermost enclosing function/method name, if any.
    pub enclosing_function: Option<Sym>,
}

impl Stmt {
    /// File-AST node corresponding to statement node `n`.
    pub fn back(&self, n: NodeId) -> NodeId {
        self.back[n.index()]
    }

    /// Renders the statement tree as an s-expression (for debugging).
    pub fn to_sexp(&self) -> String {
        self.ast.to_sexp(self.ast.root())
    }
}

fn simple_stmt_values() -> HashSet<Sym> {
    [
        vocab::assign(),
        vocab::aug_assign(),
        vocab::expr_stmt(),
        vocab::return_stmt(),
        vocab::raise_stmt(),
        vocab::assert_stmt(),
        vocab::del_stmt(),
        vocab::import_stmt(),
        vocab::import_from(),
        vocab::global_stmt(),
        vocab::local_var(),
        vocab::field_decl(),
        vocab::throw_stmt(),
        vocab::decorator(),
    ]
    .into_iter()
    .collect()
}

fn header_stmt_values() -> HashSet<Sym> {
    [
        vocab::function_def(),
        vocab::method_decl(),
        vocab::ctor_decl(),
        vocab::class_def(),
        vocab::if_stmt(),
        vocab::while_stmt(),
        vocab::for_stmt(),
        vocab::for_classic(),
        vocab::with_stmt(),
        vocab::handler(),
        vocab::switch_stmt(),
        vocab::synchronized_stmt(),
        sym!("DoWhile"),
    ]
    .into_iter()
    .collect()
}

fn body_values() -> HashSet<Sym> {
    [
        sym!("Body"),
        sym!("OrElse"),
        sym!("Finally"),
        sym!("Block"),
        sym!("Case"),
        sym!("Initializer"),
    ]
    .into_iter()
    .collect()
}

/// Extracts all statements from a parsed file tree.
///
/// # Examples
///
/// ```
/// let ast = namer_syntax::python::parse("for i in xrange(10):\n    total += i\n")?;
/// let stmts = namer_syntax::stmt::extract(&ast);
/// assert_eq!(stmts.len(), 2); // the `for` header and the `+=`
/// # Ok::<(), namer_syntax::ParseError>(())
/// ```
pub fn extract(file: &Ast) -> Vec<Stmt> {
    let mut ex = Extractor {
        file,
        simple: simple_stmt_values(),
        header: header_stmt_values(),
        body: body_values(),
        out: Vec::new(),
        class_stack: Vec::new(),
        fn_stack: Vec::new(),
    };
    if let Some(root) = file.try_root() {
        ex.walk(root);
    }
    ex.out
}

struct Extractor<'a> {
    file: &'a Ast,
    simple: HashSet<Sym>,
    header: HashSet<Sym>,
    body: HashSet<Sym>,
    out: Vec<Stmt>,
    class_stack: Vec<Sym>,
    fn_stack: Vec<Sym>,
}

impl Extractor<'_> {
    fn walk(&mut self, id: NodeId) {
        let v = self.file.value(id);
        if self.simple.contains(&v) {
            self.emit_full(id);
            // Simple statements may still contain nested statement trees via
            // lambdas; we do not descend into those.
            return;
        }
        if self.header.contains(&v) {
            self.emit_header(id);
            let is_class = v == vocab::class_def();
            let is_fn = v == vocab::function_def()
                || v == vocab::method_decl()
                || v == vocab::ctor_decl();
            if is_class {
                if let Some(name) = self.declared_name(id) {
                    self.class_stack.push(name);
                }
            }
            if is_fn {
                if let Some(name) = self.declared_name(id) {
                    self.fn_stack.push(name);
                }
            }
            // Descend into bodies (and, for classes, directly into members).
            for &c in self.file.children(id) {
                let cv = self.file.value(c);
                if self.body.contains(&cv) {
                    for &s in self.file.children(c) {
                        self.walk(s);
                    }
                } else if is_class || is_fn {
                    // Class/function bodies are inlined as direct children
                    // after the header parts; skip the header parts.
                    if cv != vocab::name_store()
                        && cv != vocab::params()
                        && cv != vocab::bases()
                        && cv != vocab::type_ref()
                    {
                        self.walk(c);
                    }
                }
            }
            if is_class {
                self.class_stack.pop();
            }
            if is_fn {
                self.fn_stack.pop();
            }
            return;
        }
        // Structural nodes (Module, Try, Body at top, …): descend.
        for c in self.file.children(id).to_vec() {
            self.walk(c);
        }
    }

    fn declared_name(&self, id: NodeId) -> Option<Sym> {
        for &c in self.file.children(id) {
            if self.file.value(c) == vocab::name_store() {
                return self
                    .file
                    .children(c)
                    .first()
                    .map(|&t| self.file.value(t));
            }
        }
        None
    }

    fn emit_full(&mut self, id: NodeId) {
        let mut ast = Ast::new();
        let mut pairs = Vec::new();
        let root = ast.copy_subtree(self.file, id, &mut pairs);
        ast.set_root(root);
        self.push_stmt(ast, pairs, id);
    }

    fn emit_header(&mut self, id: NodeId) {
        let mut ast = Ast::new();
        let mut pairs = Vec::new();
        let root = self.copy_header(&mut ast, id, &mut pairs);
        ast.set_root(root);
        self.push_stmt(ast, pairs, id);
    }

    /// Copies a compound statement without its body-like children.
    fn copy_header(&self, ast: &mut Ast, id: NodeId, pairs: &mut Vec<(NodeId, NodeId)>) -> NodeId {
        let is_class_or_fn = {
            let v = self.file.value(id);
            v == vocab::class_def()
                || v == vocab::function_def()
                || v == vocab::method_decl()
                || v == vocab::ctor_decl()
        };
        let children: Vec<NodeId> = self
            .file
            .children(id)
            .iter()
            .filter(|&&c| {
                let cv = self.file.value(c);
                if self.body.contains(&cv) {
                    return false;
                }
                if is_class_or_fn {
                    // Keep only header parts: name, params, bases, return type.
                    return cv == vocab::name_store()
                        || cv == vocab::params()
                        || cv == vocab::bases()
                        || cv == vocab::type_ref();
                }
                // Compound headers like Switch keep everything non-body;
                // nested statement-valued children (e.g. LocalVar inside a
                // classic-for Init) are part of the header and are copied.
                true
            })
            .map(|&c| ast.copy_subtree(self.file, c, pairs))
            .collect();
        let root = ast.non_terminal(self.file.value(id), children);
        ast.set_line(root, self.file.line(id));
        pairs.push((root, id));
        root
    }

    fn push_stmt(&mut self, ast: Ast, pairs: Vec<(NodeId, NodeId)>, src: NodeId) {
        let mut back = vec![NodeId(0); ast.len()];
        for (new, old) in pairs {
            back[new.index()] = old;
        }
        self.out.push(Stmt {
            line: self.file.line(src),
            enclosing_class: self.class_stack.last().copied(),
            enclosing_function: self.fn_stack.last().copied(),
            ast,
            back,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::python;

    fn stmts(src: &str) -> Vec<Stmt> {
        extract(&python::parse(src).unwrap())
    }

    #[test]
    fn simple_statements_are_whole() {
        let s = stmts("x = 1\ny = 2\n");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].to_sexp(), "(Assign (NameStore x) (Num 1))");
    }

    #[test]
    fn compound_headers_drop_bodies() {
        let s = stmts("for i in xs:\n    total += i\n");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].to_sexp(), "(For (NameStore i) (NameLoad xs))");
        assert_eq!(s[1].to_sexp(), "(AugAssign (NameStore total) += (NameLoad i))");
    }

    #[test]
    fn def_header_keeps_name_and_params() {
        let s = stmts("def f(a, b=1):\n    return a\n");
        assert_eq!(
            s[0].to_sexp(),
            "(FunctionDef (NameStore f) (Params (Param (NameParam a)) (Param (NameParam b) (Num 1))))"
        );
    }

    #[test]
    fn enclosing_context_is_tracked() {
        let s = stmts("class C:\n    def m(self):\n        self.x = 1\n");
        let assign = s.iter().find(|s| s.to_sexp().contains("Assign")).unwrap();
        assert_eq!(assign.enclosing_class.unwrap().as_str(), "C");
        assert_eq!(assign.enclosing_function.unwrap().as_str(), "m");
    }

    #[test]
    fn try_except_bodies_are_walked() {
        let s = stmts("try:\n    a = 1\nexcept ValueError as e:\n    b = 2\n");
        let sexps: Vec<String> = s.iter().map(Stmt::to_sexp).collect();
        assert!(sexps.iter().any(|x| x.starts_with("(Handler")), "{sexps:?}");
        assert!(sexps.iter().any(|x| x.contains("(NameStore a)")));
        assert!(sexps.iter().any(|x| x.contains("(NameStore b)")));
    }

    #[test]
    fn back_map_points_into_file_ast() {
        let file = python::parse("x = compute()\n").unwrap();
        let s = extract(&file);
        let stmt = &s[0];
        for n in stmt.ast.iter() {
            let orig = stmt.back(n);
            assert_eq!(stmt.ast.value(n), file.value(orig));
        }
    }

    #[test]
    fn lines_are_recorded() {
        let s = stmts("a = 1\n\n\nb = 2\n");
        assert_eq!(s[0].line, 1);
        assert_eq!(s[1].line, 4);
    }

    #[test]
    fn java_members_extracted() {
        let file = crate::java::parse(
            "class A { int x = 0; void f(int p) { this.x = p; } }",
        )
        .unwrap();
        let s = extract(&file);
        let sexps: Vec<String> = s.iter().map(Stmt::to_sexp).collect();
        assert!(sexps.iter().any(|x| x.starts_with("(ClassDef (NameStore A)")), "{sexps:?}");
        assert!(sexps.iter().any(|x| x.starts_with("(FieldDecl")), "{sexps:?}");
        assert!(sexps.iter().any(|x| x.starts_with("(MethodDecl")), "{sexps:?}");
        assert!(sexps.iter().any(|x| x.starts_with("(Assign (AttributeStore")), "{sexps:?}");
    }

    #[test]
    fn java_classic_for_header_keeps_init() {
        let file = crate::java::parse(
            "class A { void f() { for (double i = 1; i < n; i++) { g(); } } }",
        )
        .unwrap();
        let s = extract(&file);
        let header = s
            .iter()
            .find(|s| s.to_sexp().starts_with("(ForClassic"))
            .unwrap();
        assert!(header.to_sexp().contains("(TypeRef double)"), "{}", header.to_sexp());
        assert!(!header.to_sexp().contains("(Call (NameLoad g))"));
    }
}
