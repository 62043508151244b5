//! Recursive-descent parser for a broad Java subset.
//!
//! The parser covers the class/member/statement/expression forms that
//! dominate real GitHub Java: classes and interfaces, fields, methods and
//! constructors, generics in type position, `new`, enhanced and classic
//! `for`, `try`/`catch`, and the usual expression grammar. Node shapes reuse
//! the shared [`vocab`] so the pattern miner treats both
//! languages uniformly (method calls become `Call`/`AttributeLoad`/`Attr`
//! exactly as in Python).

use super::lexer::{lex, Spanned, Tok};
use crate::ast::{Ast, NameRole, NodeId, TermKind};
use crate::source::ParseError;
use crate::sym;
use crate::vocab;

const KEYWORDS: &[&str] = &[
    "abstract", "assert", "boolean", "break", "byte", "case", "catch", "char", "class", "const",
    "continue", "default", "do", "double", "else", "enum", "extends", "final", "finally", "float",
    "for", "goto", "if", "implements", "import", "instanceof", "int", "interface", "long",
    "native", "new", "package", "private", "protected", "public", "return", "short", "static",
    "strictfp", "super", "switch", "synchronized", "this", "throw", "throws", "transient", "try",
    "void", "volatile", "while",
];

const MODIFIERS: &[&str] = &[
    "public", "private", "protected", "static", "final", "abstract", "synchronized", "native",
    "transient", "volatile", "strictfp", "default",
];

const PRIMITIVES: &[&str] = &[
    "boolean", "byte", "char", "short", "int", "long", "float", "double", "void",
];

/// Parses Java source into a [`Module`](crate::vocab::module)-rooted AST.
///
/// # Errors
///
/// Returns [`ParseError`] for syntax outside the supported subset.
///
/// # Examples
///
/// ```
/// let ast = namer_syntax::java::parse(
///     "class A { void f() { this.publicKey = publickKey; } }",
/// )?;
/// assert_eq!(ast.value(ast.root()).as_str(), "Module");
/// # Ok::<(), namer_syntax::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Ast, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        ast: Ast::new(),
    };
    let mut kids = Vec::new();
    p.skip_annotations()?;
    if p.at_kw("package") {
        p.bump();
        let name = p.parse_dotted_name()?;
        p.expect_op(";")?;
        kids.push(p.ast.non_terminal(vocab::package_decl(), vec![name]));
    }
    loop {
        p.skip_annotations()?;
        if p.at_kw("import") {
            p.bump();
            p.eat_kw("static");
            let mut name = p.parse_dotted_name()?;
            if p.eat_op(".") {
                p.expect_op("*")?;
                let star = p.ast.terminal(sym!("*"), TermKind::Other);
                name = p.ast.non_terminal(vocab::attribute_load(), vec![name, star]);
            }
            p.expect_op(";")?;
            kids.push(p.ast.non_terminal(vocab::import_stmt(), vec![name]));
        } else {
            break;
        }
    }
    loop {
        p.skip_annotations()?;
        if matches!(p.peek(), Tok::Eof) {
            break;
        }
        kids.push(p.parse_type_decl()?);
    }
    let root = p.ast.non_terminal(vocab::module(), kids);
    p.ast.set_root(root);
    Ok(p.ast)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    ast: Ast,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_at(&self, off: usize) -> &Tok {
        let idx = (self.pos + off).min(self.toks.len() - 1);
        &self.toks[idx].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Tok::Op(o) if *o == op) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: &str) -> Result<(), ParseError> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected {op:?}")))
        }
    }


    /// Consumes one `>` in type position, splitting `>>`/`>>>` tokens that
    /// the lexer produced for shift operators.
    fn expect_close_angle(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Op(">") => {
                self.bump();
                Ok(())
            }
            Tok::Op(">>") => {
                self.toks[self.pos].tok = Tok::Op(">");
                Ok(())
            }
            Tok::Op(">>>") => {
                self.toks[self.pos].tok = Tok::Op(">>");
                Ok(())
            }
            _ => Err(self.unexpected("expected '>'")),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Name(n) if n == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected keyword {kw:?}")))
        }
    }

    fn expect_name(&mut self) -> Result<(String, u32), ParseError> {
        let line = self.line();
        match self.bump() {
            Tok::Name(n) if !KEYWORDS.contains(&n.as_str()) => Ok((n, line)),
            other => Err(ParseError::new(line, format!("expected name, got {other:?}"))),
        }
    }

    fn unexpected(&self, what: &str) -> ParseError {
        ParseError::new(self.line(), format!("{what}, got {:?}", self.peek()))
    }

    fn name_node(&mut self, wrapper: crate::Sym, name: &str, role: NameRole, line: u32) -> NodeId {
        let term = self.ast.terminal(name, TermKind::Ident);
        self.ast.set_role(term, role);
        self.ast.set_line(term, line);
        let node = self.ast.non_terminal(wrapper, vec![term]);
        self.ast.set_line(node, line);
        node
    }

    fn op_term(&mut self, op: &str) -> NodeId {
        self.ast.terminal(op, TermKind::Other)
    }

    fn skip_annotations(&mut self) -> Result<(), ParseError> {
        while matches!(self.peek(), Tok::Op("@")) {
            self.bump();
            // `@interface` declares an annotation type; leave it to the
            // caller (we treat the body like an interface).
            if self.at_kw("interface") {
                self.pos -= 1;
                return Ok(());
            }
            let _ = self.parse_dotted_name()?;
            if self.eat_op("(") {
                let mut depth = 1;
                while depth > 0 {
                    match self.bump() {
                        Tok::Op("(") => depth += 1,
                        Tok::Op(")") => depth -= 1,
                        Tok::Eof => return Err(self.unexpected("unterminated annotation")),
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }

    fn skip_modifiers(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_annotations()?;
            match self.peek() {
                Tok::Name(n) if MODIFIERS.contains(&n.as_str()) => {
                    self.bump();
                }
                _ => return Ok(()),
            }
        }
    }

    fn parse_dotted_name(&mut self) -> Result<NodeId, ParseError> {
        let (first, line) = self.expect_name()?;
        let mut node = self.name_node(vocab::name_load(), &first, NameRole::Object, line);
        while matches!(self.peek(), Tok::Op("."))
            && matches!(self.peek_at(1), Tok::Name(n) if !KEYWORDS.contains(&n.as_str()))
        {
            self.bump();
            let (next, nline) = self.expect_name()?;
            let attr = self.name_node(vocab::attr(), &next, NameRole::Object, nline);
            node = self
                .ast
                .non_terminal(vocab::attribute_load(), vec![node, attr]);
        }
        Ok(node)
    }

    // ----- types -------------------------------------------------------------

    /// Attempts to parse a type; on failure the caller must restore `pos`.
    fn parse_type(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        let mut last_name = match self.bump() {
            Tok::Name(n) if PRIMITIVES.contains(&n.as_str()) => n,
            Tok::Name(n) if !KEYWORDS.contains(&n.as_str()) => n,
            other => {
                return Err(ParseError::new(line, format!("expected type, got {other:?}")));
            }
        };
        // Qualified name: keep the last segment as the simple type name.
        while matches!(self.peek(), Tok::Op("."))
            && matches!(self.peek_at(1), Tok::Name(n) if !KEYWORDS.contains(&n.as_str()))
        {
            self.bump();
            let (seg, _) = self.expect_name()?;
            last_name = seg;
        }
        let term = self.ast.terminal(&*last_name, TermKind::Ident);
        self.ast.set_role(term, NameRole::Type);
        self.ast.set_line(term, line);
        let mut kids = vec![term];
        if self.eat_op("<") {
            // Type arguments, possibly nested. `<>` diamond allowed.
            if !self.eat_op(">") {
                loop {
                    if self.eat_op("?") {
                        if self.eat_kw("extends") || self.eat_kw("super") {
                            kids.push(self.parse_type()?);
                        }
                    } else {
                        kids.push(self.parse_type()?);
                    }
                    if self.eat_op(",") {
                        continue;
                    }
                    self.expect_close_angle()?;
                    break;
                }
            }
        }
        while matches!(self.peek(), Tok::Op("[")) && matches!(self.peek_at(1), Tok::Op("]")) {
            self.bump();
            self.bump();
            kids.push(self.op_term("[]"));
        }
        let node = self.ast.non_terminal(vocab::type_ref(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    // ----- declarations --------------------------------------------------------

    fn parse_type_decl(&mut self) -> Result<NodeId, ParseError> {
        self.skip_modifiers()?;
        self.eat_op("@"); // @interface
        if self.at_kw("class") || self.at_kw("interface") || self.at_kw("enum") {
            self.parse_class_like()
        } else {
            Err(self.unexpected("expected type declaration"))
        }
    }

    fn parse_class_like(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        let is_enum = self.at_kw("enum");
        self.bump(); // class / interface / enum
        let (name, nline) = self.expect_name()?;
        let name_node = self.name_node(vocab::name_store(), &name, NameRole::Type, nline);
        // Type parameters.
        if self.eat_op("<") {
            let mut depth = 1;
            while depth > 0 {
                match self.bump() {
                    Tok::Op("<") => depth += 1,
                    Tok::Op(">") => depth -= 1,
                    Tok::Op(">>") => depth -= 2,
                    Tok::Eof => return Err(self.unexpected("unterminated type parameters")),
                    _ => {}
                }
            }
        }
        let mut bases = Vec::new();
        if self.eat_kw("extends") {
            loop {
                bases.push(self.parse_type()?);
                if !self.eat_op(",") {
                    break;
                }
            }
        }
        if self.eat_kw("implements") {
            loop {
                bases.push(self.parse_type()?);
                if !self.eat_op(",") {
                    break;
                }
            }
        }
        let bases_node = self.ast.non_terminal(vocab::bases(), bases);
        self.expect_op("{")?;
        let mut kids = vec![name_node, bases_node];
        if is_enum {
            // Enum constants.
            loop {
                self.skip_annotations()?;
                if matches!(self.peek(), Tok::Op(";") | Tok::Op("}")) {
                    break;
                }
                let (cname, cline) = self.expect_name()?;
                kids.push(self.name_node(vocab::name_store(), &cname, NameRole::Object, cline));
                if self.eat_op("(") {
                    let mut depth = 1;
                    while depth > 0 {
                        match self.bump() {
                            Tok::Op("(") => depth += 1,
                            Tok::Op(")") => depth -= 1,
                            Tok::Eof => return Err(self.unexpected("unterminated enum ctor")),
                            _ => {}
                        }
                    }
                }
                if !self.eat_op(",") {
                    break;
                }
            }
            self.eat_op(";");
        }
        while !self.eat_op("}") {
            if matches!(self.peek(), Tok::Eof) {
                return Err(self.unexpected("unterminated class body"));
            }
            kids.extend(self.parse_member(&name)?);
        }
        let class = self.ast.non_terminal(vocab::class_def(), kids);
        self.ast.set_line(class, line);
        Ok(class)
    }

    fn parse_member(&mut self, class_name: &str) -> Result<Vec<NodeId>, ParseError> {
        self.skip_modifiers()?;
        if self.eat_op(";") {
            return Ok(vec![]);
        }
        if self.at_kw("class") || self.at_kw("interface") || self.at_kw("enum") {
            return Ok(vec![self.parse_class_like()?]);
        }
        if matches!(self.peek(), Tok::Op("{")) {
            // Instance/static initializer block.
            let body = self.parse_block()?;
            let body_node = self.ast.non_terminal(sym!("Body"), body);
            return Ok(vec![self.ast.non_terminal(sym!("Initializer"), vec![body_node])]);
        }
        // Skip method-level type parameters: `<T> T f(...)`.
        if matches!(self.peek(), Tok::Op("<")) {
            let mut depth = 0;
            loop {
                match self.bump() {
                    Tok::Op("<") => depth += 1,
                    Tok::Op(">") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Op(">>") => {
                        depth -= 2;
                        if depth <= 0 {
                            break;
                        }
                    }
                    Tok::Eof => return Err(self.unexpected("unterminated type parameters")),
                    _ => {}
                }
            }
        }
        // Constructor: ClassName '('
        if matches!(self.peek(), Tok::Name(n) if n == class_name)
            && matches!(self.peek_at(1), Tok::Op("("))
        {
            let line = self.line();
            let (name, nline) = self.expect_name()?;
            let name_node = self.name_node(vocab::name_store(), &name, NameRole::Function, nline);
            let params = self.parse_params()?;
            self.skip_throws()?;
            let body = self.parse_block()?;
            let mut kids = vec![name_node, params];
            kids.extend(body);
            let node = self.ast.non_terminal(vocab::ctor_decl(), kids);
            self.ast.set_line(node, line);
            return Ok(vec![node]);
        }
        // Method or field: starts with a type.
        let line = self.line();
        let ty = self.parse_type()?;
        let (name, nline) = self.expect_name()?;
        if matches!(self.peek(), Tok::Op("(")) {
            let name_node = self.name_node(vocab::name_store(), &name, NameRole::Function, nline);
            let params = self.parse_params()?;
            self.skip_throws()?;
            let mut kids = vec![ty, name_node, params];
            if self.eat_op(";") {
                // Abstract / interface method.
            } else {
                kids.extend(self.parse_block()?);
            }
            let node = self.ast.non_terminal(vocab::method_decl(), kids);
            self.ast.set_line(node, line);
            return Ok(vec![node]);
        }
        // Field declaration(s).
        let mut out = Vec::new();
        let mut fname = name;
        let mut fline = nline;
        loop {
            while matches!(self.peek(), Tok::Op("[")) && matches!(self.peek_at(1), Tok::Op("]")) {
                self.bump();
                self.bump();
            }
            let name_node = self.name_node(vocab::name_store(), &fname, NameRole::Object, fline);
            let mut kids = vec![ty, name_node];
            if self.eat_op("=") {
                kids.push(self.parse_expr()?);
            }
            let node = self.ast.non_terminal(vocab::field_decl(), kids);
            self.ast.set_line(node, fline);
            out.push(node);
            if self.eat_op(",") {
                let (n2, l2) = self.expect_name()?;
                fname = n2;
                fline = l2;
                continue;
            }
            self.expect_op(";")?;
            break;
        }
        Ok(out)
    }

    fn parse_params(&mut self) -> Result<NodeId, ParseError> {
        self.expect_op("(")?;
        let mut params = Vec::new();
        while !matches!(self.peek(), Tok::Op(")")) {
            self.skip_modifiers()?;
            let ty = self.parse_type()?;
            let variadic = self.eat_op("...");
            let (name, nline) = self.expect_name()?;
            while matches!(self.peek(), Tok::Op("[")) && matches!(self.peek_at(1), Tok::Op("]")) {
                self.bump();
                self.bump();
            }
            let pnode = self.name_node(vocab::name_param(), &name, NameRole::Object, nline);
            let wrapper = if variadic {
                vocab::star_param()
            } else {
                vocab::param()
            };
            params.push(self.ast.non_terminal(wrapper, vec![ty, pnode]));
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op(")")?;
        Ok(self.ast.non_terminal(vocab::params(), params))
    }

    fn skip_throws(&mut self) -> Result<(), ParseError> {
        if self.eat_kw("throws") {
            loop {
                let _ = self.parse_type()?;
                if !self.eat_op(",") {
                    break;
                }
            }
        }
        Ok(())
    }

    // ----- statements ----------------------------------------------------------

    fn parse_block(&mut self) -> Result<Vec<NodeId>, ParseError> {
        self.expect_op("{")?;
        let mut stmts = Vec::new();
        while !self.eat_op("}") {
            if matches!(self.peek(), Tok::Eof) {
                return Err(self.unexpected("unterminated block"));
            }
            stmts.extend(self.parse_statement()?);
        }
        Ok(stmts)
    }

    fn parse_statement(&mut self) -> Result<Vec<NodeId>, ParseError> {
        self.skip_annotations()?;
        let line = self.line();
        match self.peek().clone() {
            Tok::Op("{") => {
                // A bare brace block: splice its statements directly, as the
                // scoping marker carries no naming information.
                self.parse_block()
            }
            Tok::Op(";") => {
                self.bump();
                Ok(vec![self.ast.non_terminal(vocab::pass_stmt(), vec![])])
            }
            Tok::Name(n) => match n.as_str() {
                "if" => self.parse_if().map(|n| vec![n]),
                "while" => self.parse_while().map(|n| vec![n]),
                "do" => self.parse_do_while().map(|n| vec![n]),
                "for" => self.parse_for().map(|n| vec![n]),
                "try" => self.parse_try().map(|n| vec![n]),
                "switch" => self.parse_switch().map(|n| vec![n]),
                "synchronized" => {
                    self.bump();
                    self.expect_op("(")?;
                    let e = self.parse_expr()?;
                    self.expect_op(")")?;
                    let body = self.parse_block()?;
                    let b = self.ast.non_terminal(sym!("Body"), body);
                    let node = self
                        .ast
                        .non_terminal(vocab::synchronized_stmt(), vec![e, b]);
                    self.ast.set_line(node, line);
                    Ok(vec![node])
                }
                "return" => {
                    self.bump();
                    let mut kids = Vec::new();
                    if !matches!(self.peek(), Tok::Op(";")) {
                        kids.push(self.parse_expr()?);
                    }
                    self.expect_op(";")?;
                    let node = self.ast.non_terminal(vocab::return_stmt(), kids);
                    self.ast.set_line(node, line);
                    Ok(vec![node])
                }
                "throw" => {
                    self.bump();
                    let e = self.parse_expr()?;
                    self.expect_op(";")?;
                    let node = self.ast.non_terminal(vocab::throw_stmt(), vec![e]);
                    self.ast.set_line(node, line);
                    Ok(vec![node])
                }
                "break" | "continue" => {
                    self.bump();
                    // Optional label.
                    if matches!(self.peek(), Tok::Name(l) if !KEYWORDS.contains(&l.as_str())) {
                        self.bump();
                    }
                    self.expect_op(";")?;
                    let kind = if n == "break" {
                        vocab::break_stmt()
                    } else {
                        vocab::continue_stmt()
                    };
                    Ok(vec![self.ast.non_terminal(kind, vec![])])
                }
                "assert" => {
                    self.bump();
                    let mut kids = vec![self.parse_expr()?];
                    if self.eat_op(":") {
                        kids.push(self.parse_expr()?);
                    }
                    self.expect_op(";")?;
                    let node = self.ast.non_terminal(vocab::assert_stmt(), kids);
                    self.ast.set_line(node, line);
                    Ok(vec![node])
                }
                "final" => {
                    self.bump();
                    self.parse_local_var_or_expr()
                }
                "class" => Ok(vec![self.parse_class_like()?]),
                _ => self.parse_local_var_or_expr(),
            },
            _ => self.parse_local_var_or_expr(),
        }
    }

    /// Disambiguates `Type name = …;` from an expression statement by
    /// backtracking.
    fn parse_local_var_or_expr(&mut self) -> Result<Vec<NodeId>, ParseError> {
        let save = self.pos;
        let ast_len = self.ast.len();
        if let Ok(decl) = self.try_parse_local_var() {
            return Ok(decl);
        }
        self.pos = save;
        debug_assert!(self.ast.len() >= ast_len);
        let line = self.line();
        let e = self.parse_expr()?;
        self.expect_op(";")?;
        let node = if self.is_assign_like(e) {
            e
        } else {
            self.ast.non_terminal(vocab::expr_stmt(), vec![e])
        };
        self.ast.set_line(node, line);
        Ok(vec![node])
    }

    fn is_assign_like(&self, node: NodeId) -> bool {
        let v = self.ast.value(node);
        v == vocab::assign() || v == vocab::aug_assign()
    }

    fn try_parse_local_var(&mut self) -> Result<Vec<NodeId>, ParseError> {
        let line = self.line();
        let ty = self.parse_type()?;
        // Must be followed by a plain name and then `=`, `;`, `,`, or `[`.
        if !matches!(self.peek(), Tok::Name(n) if !KEYWORDS.contains(&n.as_str())) {
            return Err(self.unexpected("not a declaration"));
        }
        if !matches!(
            self.peek_at(1),
            Tok::Op("=") | Tok::Op(";") | Tok::Op(",") | Tok::Op("[")
        ) {
            return Err(self.unexpected("not a declaration"));
        }
        let mut out = Vec::new();
        loop {
            let (name, nline) = self.expect_name()?;
            while matches!(self.peek(), Tok::Op("[")) && matches!(self.peek_at(1), Tok::Op("]")) {
                self.bump();
                self.bump();
            }
            let name_node = self.name_node(vocab::name_store(), &name, NameRole::Object, nline);
            let mut kids = vec![ty, name_node];
            if self.eat_op("=") {
                kids.push(self.parse_expr()?);
            }
            let node = self.ast.non_terminal(vocab::local_var(), kids);
            self.ast.set_line(node, line);
            out.push(node);
            if self.eat_op(",") {
                continue;
            }
            self.expect_op(";")?;
            break;
        }
        Ok(out)
    }

    fn parse_if(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("if")?;
        self.expect_op("(")?;
        let cond = self.parse_expr()?;
        self.expect_op(")")?;
        let then = self.parse_statement()?;
        let body = self.ast.non_terminal(sym!("Body"), then);
        let mut kids = vec![cond, body];
        if self.eat_kw("else") {
            let els = self.parse_statement()?;
            kids.push(self.ast.non_terminal(sym!("OrElse"), els));
        }
        let node = self.ast.non_terminal(vocab::if_stmt(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_while(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("while")?;
        self.expect_op("(")?;
        let cond = self.parse_expr()?;
        self.expect_op(")")?;
        let body = self.parse_statement()?;
        let b = self.ast.non_terminal(sym!("Body"), body);
        let node = self.ast.non_terminal(vocab::while_stmt(), vec![cond, b]);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_do_while(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("do")?;
        let body = self.parse_statement()?;
        self.expect_kw("while")?;
        self.expect_op("(")?;
        let cond = self.parse_expr()?;
        self.expect_op(")")?;
        self.expect_op(";")?;
        let b = self.ast.non_terminal(sym!("Body"), body);
        let node = self.ast.non_terminal(sym!("DoWhile"), vec![cond, b]);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_for(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("for")?;
        self.expect_op("(")?;
        // Enhanced for: `for (Type x : xs)`.
        let save = self.pos;
        if let Ok(node) = self.try_parse_enhanced_for(line) {
            return Ok(node);
        }
        self.pos = save;
        // Classic for.
        let init: Vec<NodeId> = if self.eat_op(";") {
            vec![]
        } else {
            let save2 = self.pos;
            match self.try_parse_local_var() {
                Ok(decls) => decls,
                Err(_) => {
                    self.pos = save2;
                    let mut exprs = vec![self.parse_expr()?];
                    while self.eat_op(",") {
                        exprs.push(self.parse_expr()?);
                    }
                    self.expect_op(";")?;
                    exprs
                }
            }
        };
        let init_node = self.ast.non_terminal(sym!("Init"), init);
        let cond = if matches!(self.peek(), Tok::Op(";")) {
            self.ast.non_terminal(sym!("Cond"), vec![])
        } else {
            let c = self.parse_expr()?;
            self.ast.non_terminal(sym!("Cond"), vec![c])
        };
        self.expect_op(";")?;
        let update = if matches!(self.peek(), Tok::Op(")")) {
            self.ast.non_terminal(sym!("Update"), vec![])
        } else {
            let mut us = vec![self.parse_expr()?];
            while self.eat_op(",") {
                us.push(self.parse_expr()?);
            }
            self.ast.non_terminal(sym!("Update"), us)
        };
        self.expect_op(")")?;
        let body = self.parse_statement()?;
        let b = self.ast.non_terminal(sym!("Body"), body);
        let node = self
            .ast
            .non_terminal(vocab::for_classic(), vec![init_node, cond, update, b]);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn try_parse_enhanced_for(&mut self, line: u32) -> Result<NodeId, ParseError> {
        self.eat_kw("final");
        let ty = self.parse_type()?;
        let (name, nline) = self.expect_name()?;
        if !self.eat_op(":") {
            return Err(self.unexpected("not an enhanced for"));
        }
        let target = self.name_node(vocab::name_store(), &name, NameRole::Object, nline);
        let iter = self.parse_expr()?;
        self.expect_op(")")?;
        let body = self.parse_statement()?;
        let b = self.ast.non_terminal(sym!("Body"), body);
        let node = self
            .ast
            .non_terminal(vocab::for_stmt(), vec![ty, target, iter, b]);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_try(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("try")?;
        let mut kids = Vec::new();
        // try-with-resources.
        if self.eat_op("(") {
            loop {
                let save = self.pos;
                match self.try_parse_resource() {
                    Ok(r) => kids.push(r),
                    Err(_) => {
                        self.pos = save;
                        kids.push(self.parse_expr()?);
                    }
                }
                if !self.eat_op(";") || matches!(self.peek(), Tok::Op(")")) {
                    break;
                }
            }
            self.expect_op(")")?;
        }
        let body = self.parse_block()?;
        kids.push(self.ast.non_terminal(sym!("Body"), body));
        while self.at_kw("catch") {
            self.bump();
            let hline = self.line();
            self.expect_op("(")?;
            self.skip_modifiers()?;
            let mut hkids = vec![self.parse_type()?];
            // Multi-catch: `catch (A | B e)`.
            while self.eat_op("|") {
                hkids.push(self.parse_type()?);
            }
            let (name, nline) = self.expect_name()?;
            hkids.push(self.name_node(vocab::name_store(), &name, NameRole::Object, nline));
            self.expect_op(")")?;
            let hbody = self.parse_block()?;
            hkids.push(self.ast.non_terminal(sym!("Body"), hbody));
            let h = self.ast.non_terminal(vocab::handler(), hkids);
            self.ast.set_line(h, hline);
            kids.push(h);
        }
        if self.eat_kw("finally") {
            let fbody = self.parse_block()?;
            kids.push(self.ast.non_terminal(sym!("Finally"), fbody));
        }
        let node = self.ast.non_terminal(vocab::try_stmt(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn try_parse_resource(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.eat_kw("final");
        let ty = self.parse_type()?;
        let (name, nline) = self.expect_name()?;
        self.expect_op("=")?;
        let value = self.parse_expr()?;
        let target = self.name_node(vocab::name_store(), &name, NameRole::Object, nline);
        let node = self.ast.non_terminal(vocab::local_var(), vec![ty, target, value]);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_switch(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("switch")?;
        self.expect_op("(")?;
        let scrutinee = self.parse_expr()?;
        self.expect_op(")")?;
        self.expect_op("{")?;
        let mut kids = vec![scrutinee];
        let mut current_case: Vec<NodeId> = Vec::new();
        let mut has_case = false;
        while !self.eat_op("}") {
            if matches!(self.peek(), Tok::Eof) {
                return Err(self.unexpected("unterminated switch"));
            }
            if self.at_kw("case") || self.at_kw("default") {
                if has_case {
                    let case = std::mem::take(&mut current_case);
                    kids.push(self.ast.non_terminal(sym!("Case"), case));
                }
                has_case = true;
                if self.eat_kw("case") {
                    current_case.push(self.parse_expr()?);
                } else {
                    self.expect_kw("default")?;
                }
                self.expect_op(":")?;
            } else {
                current_case.extend(self.parse_statement()?);
            }
        }
        if has_case {
            kids.push(self.ast.non_terminal(sym!("Case"), current_case));
        }
        let node = self.ast.non_terminal(vocab::switch_stmt(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    // ----- expressions -----------------------------------------------------------

    fn parse_expr(&mut self) -> Result<NodeId, ParseError> {
        self.parse_assignment()
    }

    fn parse_assignment(&mut self) -> Result<NodeId, ParseError> {
        let left = self.parse_ternary()?;
        if self.eat_op("=") {
            let target = self.make_store(left);
            let value = self.parse_assignment()?;
            return Ok(self.ast.non_terminal(vocab::assign(), vec![target, value]));
        }
        for op in [
            "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=",
        ] {
            if matches!(self.peek(), Tok::Op(o) if *o == op) {
                self.bump();
                let target = self.make_store(left);
                let op_node = self.op_term(op);
                let value = self.parse_assignment()?;
                return Ok(self
                    .ast
                    .non_terminal(vocab::aug_assign(), vec![target, op_node, value]));
            }
        }
        Ok(left)
    }

    fn make_store(&mut self, node: NodeId) -> NodeId {
        let v = self.ast.value(node);
        if v == vocab::name_load() {
            let kids = self.ast.children(node).to_vec();
            let line = self.ast.line(node);
            let new = self.ast.non_terminal(vocab::name_store(), kids);
            self.ast.set_line(new, line);
            new
        } else if v == vocab::attribute_load() {
            let kids = self.ast.children(node).to_vec();
            let line = self.ast.line(node);
            let new = self.ast.non_terminal(vocab::attribute_store(), kids);
            self.ast.set_line(new, line);
            new
        } else {
            node
        }
    }

    fn parse_ternary(&mut self) -> Result<NodeId, ParseError> {
        let cond = self.parse_or()?;
        if self.eat_op("?") {
            let then = self.parse_expr()?;
            self.expect_op(":")?;
            let els = self.parse_expr()?;
            return Ok(self
                .ast
                .non_terminal(vocab::ternary(), vec![cond, then, els]));
        }
        Ok(cond)
    }

    fn parse_or(&mut self) -> Result<NodeId, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_op("||") {
            let op = self.op_term("||");
            let right = self.parse_and()?;
            left = self.ast.non_terminal(vocab::bool_op(), vec![left, op, right]);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<NodeId, ParseError> {
        let mut left = self.parse_binary_level(0)?;
        while self.eat_op("&&") {
            let op = self.op_term("&&");
            let right = self.parse_binary_level(0)?;
            left = self.ast.non_terminal(vocab::bool_op(), vec![left, op, right]);
        }
        Ok(left)
    }

    fn parse_binary_level(&mut self, level: usize) -> Result<NodeId, ParseError> {
        const LEVELS: &[&[&str]] = &[
            &["|"],
            &["^"],
            &["&"],
            &["==", "!="],
            &["<", ">", "<=", ">="],
            &["<<", ">>", ">>>"],
            &["+", "-"],
            &["*", "/", "%"],
        ];
        if level >= LEVELS.len() {
            return self.parse_unary();
        }
        let mut left = self.parse_binary_level(level + 1)?;
        loop {
            // `instanceof` sits at relational precedence.
            if level == 4 && self.at_kw("instanceof") {
                self.bump();
                let ty = self.parse_type()?;
                left = self.ast.non_terminal(vocab::instance_of(), vec![left, ty]);
                continue;
            }
            let matched = match self.peek() {
                Tok::Op(o) => LEVELS[level].iter().find(|&&c| c == *o).copied(),
                _ => None,
            };
            let Some(op) = matched else { break };
            self.bump();
            let op_node = self.op_term(op);
            let right = self.parse_binary_level(level + 1)?;
            let kind = if matches!(op, "==" | "!=" | "<" | ">" | "<=" | ">=") {
                vocab::compare()
            } else {
                vocab::bin_op()
            };
            left = self.ast.non_terminal(kind, vec![left, op_node, right]);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<NodeId, ParseError> {
        for op in ["!", "-", "+", "~", "++", "--"] {
            if matches!(self.peek(), Tok::Op(o) if *o == op) {
                self.bump();
                let op_node = self.op_term(op);
                let operand = self.parse_unary()?;
                return Ok(self
                    .ast
                    .non_terminal(vocab::unary_op(), vec![op_node, operand]));
            }
        }
        // Cast: `(Type) expr` — backtrack if it does not parse as a cast.
        if matches!(self.peek(), Tok::Op("(")) {
            let save = self.pos;
            if let Ok(node) = self.try_parse_cast() {
                return Ok(node);
            }
            self.pos = save;
        }
        self.parse_postfix()
    }

    fn try_parse_cast(&mut self) -> Result<NodeId, ParseError> {
        self.expect_op("(")?;
        let ty = self.parse_type()?;
        self.expect_op(")")?;
        // A cast must be followed by something that can start a unary
        // expression; reject `(x) + y` where x is a variable.
        let ty_name = {
            let term = self.ast.children(ty)[0];
            self.ast.value(term)
        };
        let is_primitive = PRIMITIVES.contains(&ty_name.as_str());
        let ok = match self.peek() {
            Tok::Name(n) => !KEYWORDS.contains(&n.as_str()) || n == "this" || n == "new",
            Tok::Str(_) | Tok::Char(_) => true,
            Tok::Number(_) => is_primitive,
            Tok::Op("(") => true,
            Tok::Op("!") | Tok::Op("~") => true,
            _ => false,
        };
        if !ok {
            return Err(self.unexpected("not a cast"));
        }
        let operand = self.parse_unary()?;
        Ok(self.ast.non_terminal(vocab::cast(), vec![ty, operand]))
    }

    fn parse_postfix(&mut self) -> Result<NodeId, ParseError> {
        let mut node = self.parse_atom()?;
        loop {
            if matches!(self.peek(), Tok::Op("."))
                && matches!(self.peek_at(1), Tok::Name(n) if !KEYWORDS.contains(&n.as_str()))
            {
                self.bump();
                let (name, nline) = self.expect_name()?;
                let attr = self.name_node(vocab::attr(), &name, NameRole::Object, nline);
                node = self
                    .ast
                    .non_terminal(vocab::attribute_load(), vec![node, attr]);
                self.ast.set_line(node, nline);
            } else if matches!(self.peek(), Tok::Op(".")) && matches!(self.peek_at(1), Tok::Name(n) if n == "class" || n == "this" || n == "new")
            {
                self.bump();
                let (kw, nline) = match self.bump() {
                    Tok::Name(n) => (n, self.line()),
                    _ => unreachable!("peeked a name"),
                };
                let attr = self.name_node(vocab::attr(), &kw, NameRole::Object, nline);
                node = self
                    .ast
                    .non_terminal(vocab::attribute_load(), vec![node, attr]);
            } else if matches!(self.peek(), Tok::Op("(")) {
                node = self.parse_call(node)?;
            } else if self.eat_op("[") {
                let idx = self.parse_expr()?;
                self.expect_op("]")?;
                node = self.ast.non_terminal(vocab::subscript(), vec![node, idx]);
            } else if matches!(self.peek(), Tok::Op("++") | Tok::Op("--")) {
                let op = match self.bump() {
                    Tok::Op(o) => o,
                    _ => unreachable!("peeked an op"),
                };
                let op_node = self.op_term(op);
                node = self.ast.non_terminal(vocab::unary_op(), vec![node, op_node]);
            } else if matches!(self.peek(), Tok::Op("::")) {
                self.bump();
                let (name, nline) = match self.bump() {
                    Tok::Name(n) => (n, self.line()),
                    other => {
                        return Err(ParseError::new(
                            self.line(),
                            format!("expected method reference name, got {other:?}"),
                        ))
                    }
                };
                let attr = self.name_node(vocab::attr(), &name, NameRole::Function, nline);
                node = self.ast.non_terminal(sym!("MethodRef"), vec![node, attr]);
            } else {
                break;
            }
        }
        Ok(node)
    }

    fn parse_call(&mut self, callee: NodeId) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_op("(")?;
        self.mark_callee(callee);
        let mut kids = vec![callee];
        while !matches!(self.peek(), Tok::Op(")")) {
            kids.push(self.parse_expr()?);
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op(")")?;
        let call = self.ast.non_terminal(vocab::call(), kids);
        self.ast.set_line(call, line);
        Ok(call)
    }

    fn mark_callee(&mut self, callee: NodeId) {
        let v = self.ast.value(callee);
        if v == vocab::attribute_load() {
            if let Some(&attr) = self.ast.children(callee).get(1) {
                if let Some(&term) = self.ast.children(attr).first() {
                    self.ast.set_role(term, NameRole::Function);
                }
            }
        } else if v == vocab::name_load() {
            if let Some(&term) = self.ast.children(callee).first() {
                self.ast.set_role(term, NameRole::Function);
            }
        }
    }

    fn parse_atom(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        let node = match self.peek().clone() {
            Tok::Number(n) => {
                self.bump();
                let term = self.ast.terminal(&*n, TermKind::Num);
                self.ast.set_line(term, line);
                self.ast.non_terminal(vocab::num(), vec![term])
            }
            Tok::Str(s) => {
                self.bump();
                let term = self.ast.terminal(&*s, TermKind::Str);
                self.ast.set_line(term, line);
                self.ast.non_terminal(vocab::str_lit(), vec![term])
            }
            Tok::Char(c) => {
                self.bump();
                let term = self.ast.terminal(&*c, TermKind::Str);
                self.ast.non_terminal(vocab::str_lit(), vec![term])
            }
            Tok::Name(n) => match n.as_str() {
                "true" | "false" => {
                    self.bump();
                    let term = self.ast.terminal(&*n, TermKind::Bool);
                    self.ast.non_terminal(vocab::bool_lit(), vec![term])
                }
                "null" => {
                    self.bump();
                    let term = self.ast.terminal(sym!("null"), TermKind::Null);
                    self.ast.non_terminal(vocab::none_lit(), vec![term])
                }
                "this" | "super" => {
                    self.bump();
                    let term = self.ast.terminal(&*n, TermKind::Ident);
                    self.ast.set_role(term, NameRole::Object);
                    self.ast.set_line(term, line);
                    self.ast.non_terminal(vocab::name_load(), vec![term])
                }
                "new" => {
                    self.bump();
                    let ty = self.parse_type()?;
                    if matches!(self.peek(), Tok::Op("{")) {
                        // `new int[] {…}`: the type parse swallowed the empty
                        // dims; only the initializer remains.
                        let init = self.parse_array_initializer()?;
                        self.ast.non_terminal(vocab::new_array(), vec![ty, init])
                    } else if self.eat_op("[") {
                        // Array creation.
                        let mut kids = vec![ty];
                        if !matches!(self.peek(), Tok::Op("]")) {
                            kids.push(self.parse_expr()?);
                        }
                        self.expect_op("]")?;
                        while matches!(self.peek(), Tok::Op("["))
                        {
                            self.bump();
                            if !matches!(self.peek(), Tok::Op("]")) {
                                kids.push(self.parse_expr()?);
                            }
                            self.expect_op("]")?;
                        }
                        if matches!(self.peek(), Tok::Op("{")) {
                            kids.push(self.parse_array_initializer()?);
                        }
                        self.ast.non_terminal(vocab::new_array(), kids)
                    } else {
                        self.expect_op("(")?;
                        let mut kids = vec![ty];
                        while !matches!(self.peek(), Tok::Op(")")) {
                            kids.push(self.parse_expr()?);
                            if !self.eat_op(",") {
                                break;
                            }
                        }
                        self.expect_op(")")?;
                        // Anonymous class body.
                        if matches!(self.peek(), Tok::Op("{")) {
                            self.bump();
                            let mut depth = 1;
                            while depth > 0 {
                                match self.bump() {
                                    Tok::Op("{") => depth += 1,
                                    Tok::Op("}") => depth -= 1,
                                    Tok::Eof => {
                                        return Err(
                                            self.unexpected("unterminated anonymous class")
                                        )
                                    }
                                    _ => {}
                                }
                            }
                        }
                        self.ast.non_terminal(vocab::new_object(), kids)
                    }
                }
                _ if PRIMITIVES.contains(&n.as_str()) => {
                    // `int.class`-style references; rare — treat as name.
                    self.bump();
                    let term = self.ast.terminal(&*n, TermKind::Ident);
                    self.ast.set_role(term, NameRole::Type);
                    self.ast.non_terminal(vocab::name_load(), vec![term])
                }
                _ if KEYWORDS.contains(&n.as_str()) => {
                    return Err(self.unexpected("unexpected keyword in expression"));
                }
                _ => {
                    self.bump();
                    // Lambda: `x -> expr`.
                    if matches!(self.peek(), Tok::Op("->")) {
                        self.bump();
                        let pnode = self.name_node(vocab::name_param(), &n, NameRole::Object, line);
                        let param = self.ast.non_terminal(vocab::param(), vec![pnode]);
                        let params = self.ast.non_terminal(vocab::params(), vec![param]);
                        let body = if matches!(self.peek(), Tok::Op("{")) {
                            let b = self.parse_block()?;
                            self.ast.non_terminal(sym!("Body"), b)
                        } else {
                            self.parse_expr()?
                        };
                        self.ast.non_terminal(vocab::lambda(), vec![params, body])
                    } else {
                        let term = self.ast.terminal(&*n, TermKind::Ident);
                        self.ast.set_role(term, NameRole::Object);
                        self.ast.set_line(term, line);
                        let node = self.ast.non_terminal(vocab::name_load(), vec![term]);
                        self.ast.set_line(node, line);
                        node
                    }
                }
            },
            Tok::Op("(") => {
                self.bump();
                // Possibly a lambda parameter list: `(a, b) -> …`.
                let save = self.pos;
                if let Ok(l) = self.try_parse_lambda_params() {
                    return Ok(l);
                }
                self.pos = save;
                let inner = self.parse_expr()?;
                self.expect_op(")")?;
                inner
            }
            Tok::Op("{") => self.parse_array_initializer()?,
            _ => return Err(self.unexpected("expected expression")),
        };
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn try_parse_lambda_params(&mut self) -> Result<NodeId, ParseError> {
        let mut params = Vec::new();
        while !matches!(self.peek(), Tok::Op(")")) {
            // Optionally typed lambda parameter.
            let save = self.pos;
            let ty = self.parse_type().ok();
            if ty.is_some() && !matches!(self.peek(), Tok::Name(n) if !KEYWORDS.contains(&n.as_str()))
            {
                self.pos = save;
            }
            let (name, nline) = self.expect_name()?;
            let pnode = self.name_node(vocab::name_param(), &name, NameRole::Object, nline);
            params.push(self.ast.non_terminal(vocab::param(), vec![pnode]));
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op(")")?;
        if !self.eat_op("->") {
            return Err(self.unexpected("not a lambda"));
        }
        let params_node = self.ast.non_terminal(vocab::params(), params);
        let body = if matches!(self.peek(), Tok::Op("{")) {
            let b = self.parse_block()?;
            self.ast.non_terminal(sym!("Body"), b)
        } else {
            self.parse_expr()?
        };
        Ok(self.ast.non_terminal(vocab::lambda(), vec![params_node, body]))
    }

    fn parse_array_initializer(&mut self) -> Result<NodeId, ParseError> {
        self.expect_op("{")?;
        let mut items = Vec::new();
        while !matches!(self.peek(), Tok::Op("}")) {
            items.push(self.parse_expr()?);
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op("}")?;
        Ok(self.ast.non_terminal(vocab::list_lit(), items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sexp(src: &str) -> String {
        let ast = parse(src).unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"));
        ast.to_sexp(ast.root())
    }

    fn in_class(body: &str) -> String {
        sexp(&format!("class A {{ void f() {{ {body} }} }}"))
    }

    #[test]
    fn class_with_extends() {
        let s = sexp("class Child extends Base implements Runnable { }");
        assert!(s.contains("(ClassDef (NameStore Child) (Bases (TypeRef Base) (TypeRef Runnable)))"), "{s}");
    }

    #[test]
    fn field_with_initializer() {
        let s = sexp("class A { private int count = 0; }");
        assert!(s.contains("(FieldDecl (TypeRef int) (NameStore count) (Num 0))"), "{s}");
    }

    #[test]
    fn method_call_shape_matches_python() {
        let s = in_class("this.publicKey = publickKey;");
        assert!(s.contains("(Assign (AttributeStore (NameLoad this) (Attr publicKey)) (NameLoad publickKey))"), "{s}");
    }

    #[test]
    fn paper_table6_example1() {
        let s = in_class("e.getStackTrace();");
        assert!(s.contains("(ExprStmt (Call (AttributeLoad (NameLoad e) (Attr getStackTrace))))"), "{s}");
    }

    #[test]
    fn paper_table6_example2_classic_for() {
        let s = in_class("for (double i = 1; i < chainlength; i++) { }");
        assert!(s.contains("(ForClassic (Init (LocalVar (TypeRef double) (NameStore i) (Num 1)))"), "{s}");
        assert!(s.contains("(Cond (Compare (NameLoad i) < (NameLoad chainlength)))"), "{s}");
    }

    #[test]
    fn paper_table6_example3_catch() {
        let s = in_class("try { run(); } catch (Throwable e) { }");
        assert!(s.contains("(Handler (TypeRef Throwable) (NameStore e) (Body))"), "{s}");
    }

    #[test]
    fn enhanced_for() {
        let s = in_class("for (String name : names) { use(name); }");
        assert!(s.contains("(For (TypeRef String) (NameStore name) (NameLoad names)"), "{s}");
    }

    #[test]
    fn new_object() {
        let s = in_class("ConektaObject resource = new ConektaObject();");
        assert!(s.contains("(LocalVar (TypeRef ConektaObject) (NameStore resource) (New (TypeRef ConektaObject)))"), "{s}");
    }

    #[test]
    fn generics_in_declarations() {
        let s = in_class("Map<String, List<Integer>> m = new HashMap<>();");
        assert!(s.contains("(LocalVar (TypeRef Map (TypeRef String) (TypeRef List (TypeRef Integer)))"), "{s}");
    }

    #[test]
    fn cast_expression() {
        let s = in_class("int x = (int) value;");
        assert!(s.contains("(Cast (TypeRef int) (NameLoad value))"), "{s}");
    }

    #[test]
    fn parenthesised_expression_is_not_a_cast() {
        let s = in_class("int x = (a) + b;");
        assert!(s.contains("(BinOp (NameLoad a) + (NameLoad b))"), "{s}");
    }

    #[test]
    fn instanceof_expression() {
        let s = in_class("boolean b = o instanceof String;");
        assert!(s.contains("(InstanceOf (NameLoad o) (TypeRef String))"), "{s}");
    }

    #[test]
    fn constructor_declaration() {
        let s = sexp("class A { A(int x) { this.x = x; } }");
        assert!(s.contains("(CtorDecl (NameStore A) (Params (Param (TypeRef int) (NameParam x)))"), "{s}");
    }

    #[test]
    fn interface_methods_without_bodies() {
        let s = sexp("interface I { void run(); int size(); }");
        assert!(s.contains("(MethodDecl (TypeRef void) (NameStore run) (Params))"), "{s}");
    }

    #[test]
    fn static_method_call() {
        let s = in_class("Math.max(a, b);");
        assert!(s.contains("(Call (AttributeLoad (NameLoad Math) (Attr max)) (NameLoad a) (NameLoad b))"), "{s}");
    }

    #[test]
    fn ternary_and_boolean_ops() {
        let s = in_class("int x = a > 0 && b ? 1 : 0;");
        assert!(s.contains("Ternary"), "{s}");
        assert!(s.contains("BoolOp"), "{s}");
    }

    #[test]
    fn postfix_increment() {
        let s = in_class("i++;");
        assert!(s.contains("(UnaryOp (NameLoad i) ++)"), "{s}");
    }

    #[test]
    fn array_creation_and_access() {
        let s = in_class("int[] xs = new int[10]; int y = xs[0];");
        assert!(s.contains("(NewArray (TypeRef int) (Num 10))"), "{s}");
        assert!(s.contains("(Subscript (NameLoad xs) (Num 0))"), "{s}");
    }

    #[test]
    fn switch_statement() {
        let s = in_class("switch (x) { case 1: a(); break; default: b(); }");
        assert!(s.contains("Switch"), "{s}");
        assert!(s.contains("(Case (Num 1)"), "{s}");
    }

    #[test]
    fn lambda_and_method_reference() {
        let s = in_class("list.forEach(x -> use(x)); list.forEach(System.out::println);");
        assert!(s.contains("(Lambda (Params (Param (NameParam x)))"), "{s}");
        assert!(s.contains("MethodRef"), "{s}");
    }

    #[test]
    fn annotations_are_skipped() {
        let s = sexp("@SuppressWarnings(\"all\")\nclass A { @Override void f() { } }");
        assert!(s.contains("(MethodDecl (TypeRef void) (NameStore f)"), "{s}");
    }

    #[test]
    fn package_and_imports() {
        let s = sexp("package com.acme;\nimport java.util.List;\nclass A { }");
        assert!(s.contains("(Package"), "{s}");
        assert!(s.contains("(Import"), "{s}");
    }

    #[test]
    fn multi_declarator_fields() {
        let s = sexp("class A { int a, b = 2; }");
        assert!(s.contains("(FieldDecl (TypeRef int) (NameStore a))"), "{s}");
        assert!(s.contains("(FieldDecl (TypeRef int) (NameStore b) (Num 2))"), "{s}");
    }

    #[test]
    fn try_with_resources() {
        let s = in_class("try (Reader r = open()) { r.read(); }");
        assert!(s.contains("(LocalVar (TypeRef Reader) (NameStore r) (Call (NameLoad open)))"), "{s}");
    }

    #[test]
    fn enum_constants() {
        let s = sexp("enum Color { RED, GREEN, BLUE }");
        assert!(s.contains("(NameStore RED)"), "{s}");
    }

    #[test]
    fn parse_error_reported() {
        assert!(parse("class A { void f( { } }").is_err());
    }

    #[test]
    fn android_intent_example() {
        let s = in_class("context.startActivity(i);");
        assert!(s.contains("(Call (AttributeLoad (NameLoad context) (Attr startActivity)) (NameLoad i))"), "{s}");
    }
}
