//! Recursive-descent parser for a broad JavaScript / TypeScript subset.
//!
//! The parser covers the declaration/statement/expression forms that
//! dominate real GitHub JavaScript: `const`/`let`/`var` declarations,
//! functions and arrow functions, classes with methods/getters/fields,
//! `for`/`for‑of`/`for‑in`, `try`/`catch`, template literals, object and
//! array literals, and ES-module `import`/`export`. TypeScript's common
//! surface (`: Type` annotations, `as` casts, `interface`/`type`/`enum`
//! declarations) is accepted and lowered to the same shapes. Node values
//! reuse the shared [`vocab`] so the pattern miner treats all languages
//! uniformly: `obj.method(x)` becomes `Call`/`AttributeLoad`/`Attr` exactly
//! as in Python and Java, and TS type annotations become `TypeRef` so the
//! origin analysis can use declared types just like Java's.

use super::lexer::{lex, Spanned, Tok};
use crate::ast::{Ast, NameRole, NodeId, TermKind};
use crate::source::ParseError;
use crate::sym;
use crate::vocab;

/// Strictly reserved words: never valid as plain identifiers.
/// (`let`, `static`, `async`, `of`, `get`, `set`, `as` are contextual and
/// handled at their use sites.)
const KEYWORDS: &[&str] = &[
    "break", "case", "catch", "class", "const", "continue", "debugger", "default", "delete",
    "do", "else", "export", "extends", "finally", "for", "function", "if", "import", "in",
    "instanceof", "new", "return", "super", "switch", "this", "throw", "try", "typeof", "var",
    "void", "while", "with", "yield",
];

/// Parses JavaScript / TypeScript source into a
/// [`Module`](crate::vocab::module)-rooted AST.
///
/// # Errors
///
/// Returns [`ParseError`] for syntax outside the supported subset.
///
/// # Examples
///
/// ```
/// let ast = namer_syntax::js::parse(
///     "class Widget { resize(newSize) { this.size = newSize; } }",
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
    while !matches!(p.peek(), Tok::Eof) {
        kids.extend(p.parse_statement()?);
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

    fn at_name(&self) -> bool {
        matches!(self.peek(), Tok::Name(n) if !KEYWORDS.contains(&n.as_str()))
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

    /// Automatic-semicolon-insertion-lite: a statement terminator is `;`,
    /// or nothing before `}` / EOF / a token on a new line.
    fn eat_semi(&mut self) {
        self.eat_op(";");
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

    fn str_node(&mut self, text: &str, line: u32) -> NodeId {
        let term = self.ast.terminal(text, TermKind::Str);
        self.ast.set_line(term, line);
        self.ast.non_terminal(vocab::str_lit(), vec![term])
    }

    // ----- TS type annotations -------------------------------------------------

    /// Parses a TypeScript type after `:` into a `TypeRef` carrying the
    /// head type name; generic arguments, unions, and array suffixes are
    /// consumed but only nested head names are kept.
    fn parse_type(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        let head = match self.bump() {
            Tok::Name(n) => n,
            Tok::Str(_) | Tok::Number(_) => "Object".to_owned(), // literal types
            Tok::Op("{") => {
                // Inline object type: skip the balanced block.
                let mut depth = 1;
                while depth > 0 {
                    match self.bump() {
                        Tok::Op("{") => depth += 1,
                        Tok::Op("}") => depth -= 1,
                        Tok::Eof => return Err(self.unexpected("unterminated object type")),
                        _ => {}
                    }
                }
                "Object".to_owned()
            }
            Tok::Op("[") => {
                let mut depth = 1;
                while depth > 0 {
                    match self.bump() {
                        Tok::Op("[") => depth += 1,
                        Tok::Op("]") => depth -= 1,
                        Tok::Eof => return Err(self.unexpected("unterminated tuple type")),
                        _ => {}
                    }
                }
                "Array".to_owned()
            }
            other => {
                return Err(ParseError::new(line, format!("expected type, got {other:?}")));
            }
        };
        let mut last_name = head;
        while matches!(self.peek(), Tok::Op(".")) && matches!(self.peek_at(1), Tok::Name(_)) {
            self.bump();
            if let Tok::Name(seg) = self.bump() {
                last_name = seg;
            }
        }
        let term = self.ast.terminal(&*last_name, TermKind::Ident);
        self.ast.set_role(term, NameRole::Type);
        self.ast.set_line(term, line);
        let mut kids = vec![term];
        if self.eat_op("<") {
            let mut depth = 1;
            while depth > 0 {
                match self.bump() {
                    Tok::Op("<") => depth += 1,
                    Tok::Op(">") => depth -= 1,
                    Tok::Op(">>") => depth -= 2,
                    Tok::Op(">>>") => depth -= 3,
                    Tok::Eof => return Err(self.unexpected("unterminated type arguments")),
                    _ => {}
                }
            }
        }
        while matches!(self.peek(), Tok::Op("[")) && matches!(self.peek_at(1), Tok::Op("]")) {
            self.bump();
            self.bump();
            kids.push(self.op_term("[]"));
        }
        // Union/intersection tails: keep only the head's name.
        while matches!(self.peek(), Tok::Op("|") | Tok::Op("&")) {
            self.bump();
            let _ = self.parse_type()?;
        }
        let node = self.ast.non_terminal(vocab::type_ref(), kids);
        self.ast.set_line(node, line);
        Ok(node)
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
        let line = self.line();
        match self.peek().clone() {
            Tok::Op("{") => self.parse_block(),
            Tok::Op(";") => {
                self.bump();
                Ok(vec![self.ast.non_terminal(vocab::pass_stmt(), vec![])])
            }
            Tok::Name(n) => match n.as_str() {
                "import" => self.parse_import().map(|n| vec![n]),
                "export" => self.parse_export(),
                "function" => self.parse_function_def().map(|n| vec![n]),
                "class" => self.parse_class().map(|n| vec![n]),
                "async" if matches!(self.peek_at(1), Tok::Name(f) if f == "function") => {
                    self.bump();
                    self.parse_function_def().map(|n| vec![n])
                }
                "const" | "let" | "var" => self.parse_var_decl(),
                "if" => self.parse_if().map(|n| vec![n]),
                "while" => self.parse_while().map(|n| vec![n]),
                "do" => self.parse_do_while().map(|n| vec![n]),
                "for" => self.parse_for().map(|n| vec![n]),
                "try" => self.parse_try().map(|n| vec![n]),
                "switch" => self.parse_switch().map(|n| vec![n]),
                "with" => {
                    self.bump();
                    self.expect_op("(")?;
                    let e = self.parse_expr()?;
                    self.expect_op(")")?;
                    let body = self.parse_statement()?;
                    let b = self.ast.non_terminal(sym!("Body"), body);
                    let node = self.ast.non_terminal(vocab::with_stmt(), vec![e, b]);
                    self.ast.set_line(node, line);
                    Ok(vec![node])
                }
                "return" => {
                    self.bump();
                    let mut kids = Vec::new();
                    if !self.at_stmt_end(line) {
                        kids.push(self.parse_expr()?);
                    }
                    self.eat_semi();
                    let node = self.ast.non_terminal(vocab::return_stmt(), kids);
                    self.ast.set_line(node, line);
                    Ok(vec![node])
                }
                "throw" => {
                    self.bump();
                    let e = self.parse_expr()?;
                    self.eat_semi();
                    let node = self.ast.non_terminal(vocab::throw_stmt(), vec![e]);
                    self.ast.set_line(node, line);
                    Ok(vec![node])
                }
                "break" | "continue" => {
                    self.bump();
                    // Optional label on the same line.
                    if self.line() == line && self.at_name() {
                        self.bump();
                    }
                    self.eat_semi();
                    let kind = if n == "break" {
                        vocab::break_stmt()
                    } else {
                        vocab::continue_stmt()
                    };
                    Ok(vec![self.ast.non_terminal(kind, vec![])])
                }
                "debugger" => {
                    self.bump();
                    self.eat_semi();
                    Ok(vec![self.ast.non_terminal(vocab::pass_stmt(), vec![])])
                }
                // TypeScript-only declarations carry no runtime naming
                // information; consume and drop them.
                "interface" | "enum" => {
                    self.bump();
                    let _ = self.expect_name()?;
                    while !matches!(self.peek(), Tok::Op("{")) {
                        if matches!(self.peek(), Tok::Eof) {
                            return Err(self.unexpected("unterminated declaration header"));
                        }
                        self.bump();
                    }
                    self.skip_balanced_braces()?;
                    Ok(vec![self.ast.non_terminal(vocab::pass_stmt(), vec![])])
                }
                "type" if matches!(self.peek_at(1), Tok::Name(_))
                    && matches!(self.peek_at(2), Tok::Op("=") | Tok::Op("<")) =>
                {
                    self.skip_to_semi()?;
                    Ok(vec![self.ast.non_terminal(vocab::pass_stmt(), vec![])])
                }
                // Label: `name: statement`.
                _ if !KEYWORDS.contains(&n.as_str())
                    && matches!(self.peek_at(1), Tok::Op(":")) =>
                {
                    self.bump();
                    self.bump();
                    self.parse_statement()
                }
                _ => self.parse_expr_statement(line),
            },
            _ => self.parse_expr_statement(line),
        }
    }

    /// True when the current token terminates a value-less statement
    /// (`return` / `break` with nothing following): `;`, `}`, EOF, or a
    /// token on a later line (automatic semicolon insertion).
    fn at_stmt_end(&self, stmt_line: u32) -> bool {
        matches!(self.peek(), Tok::Op(";") | Tok::Op("}") | Tok::Eof) || self.line() != stmt_line
    }

    fn parse_expr_statement(&mut self, line: u32) -> Result<Vec<NodeId>, ParseError> {
        let e = self.parse_expr()?;
        self.eat_semi();
        let v = self.ast.value(e);
        let node = if v == vocab::assign() || v == vocab::aug_assign() {
            e
        } else {
            self.ast.non_terminal(vocab::expr_stmt(), vec![e])
        };
        self.ast.set_line(node, line);
        Ok(vec![node])
    }

    fn skip_balanced_braces(&mut self) -> Result<(), ParseError> {
        self.expect_op("{")?;
        let mut depth = 1;
        while depth > 0 {
            match self.bump() {
                Tok::Op("{") => depth += 1,
                Tok::Op("}") => depth -= 1,
                Tok::Eof => return Err(self.unexpected("unterminated block")),
                _ => {}
            }
        }
        Ok(())
    }

    fn skip_to_semi(&mut self) -> Result<(), ParseError> {
        loop {
            match self.bump() {
                Tok::Op(";") => return Ok(()),
                Tok::Eof => return Ok(()),
                Tok::Op("{") => {
                    let mut depth = 1;
                    while depth > 0 {
                        match self.bump() {
                            Tok::Op("{") => depth += 1,
                            Tok::Op("}") => depth -= 1,
                            Tok::Eof => return Err(self.unexpected("unterminated block")),
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // ----- modules -------------------------------------------------------------

    /// `import d from 'm'` / `import * as ns from 'm'` / `import {a, b as c}
    /// from 'm'` / `import 'm'` → `ImportFrom` with one `NameStore` per
    /// binding and the module specifier last as a `Str`.
    fn parse_import(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("import")?;
        let mut bindings = Vec::new();
        if let Tok::Str(m) = self.peek().clone() {
            self.bump();
            self.eat_semi();
            let module = self.str_node(&m, line);
            let node = self.ast.non_terminal(vocab::import_from(), vec![module]);
            self.ast.set_line(node, line);
            return Ok(node);
        }
        loop {
            if self.eat_op("*") {
                self.expect_contextual("as")?;
                let (name, nline) = self.expect_name()?;
                bindings.push(self.name_node(vocab::name_store(), &name, NameRole::Object, nline));
            } else if self.eat_op("{") {
                while !self.eat_op("}") {
                    let (imported, iline) = self.expect_name()?;
                    let (name, nline) = if self.eat_contextual("as") {
                        self.expect_name()?
                    } else {
                        (imported, iline)
                    };
                    bindings.push(self.name_node(
                        vocab::name_store(),
                        &name,
                        NameRole::Object,
                        nline,
                    ));
                    if !self.eat_op(",") && !matches!(self.peek(), Tok::Op("}")) {
                        return Err(self.unexpected("expected ',' or '}' in import list"));
                    }
                }
            } else {
                let (name, nline) = self.expect_name()?;
                bindings.push(self.name_node(vocab::name_store(), &name, NameRole::Object, nline));
            }
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_contextual("from")?;
        let module = match self.bump() {
            Tok::Str(m) => self.str_node(&m, line),
            other => {
                return Err(ParseError::new(
                    line,
                    format!("expected module specifier, got {other:?}"),
                ))
            }
        };
        self.eat_semi();
        let mut kids = vec![module];
        kids.extend(bindings);
        let node = self.ast.non_terminal(vocab::import_from(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn at_contextual(&self, word: &str) -> bool {
        matches!(self.peek(), Tok::Name(n) if n == word)
    }

    fn eat_contextual(&mut self, word: &str) -> bool {
        if self.at_contextual(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_contextual(&mut self, word: &str) -> Result<(), ParseError> {
        if self.eat_contextual(word) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected {word:?}")))
        }
    }

    fn parse_export(&mut self) -> Result<Vec<NodeId>, ParseError> {
        self.expect_kw("export")?;
        // Re-export / export-list forms declare nothing new.
        if matches!(self.peek(), Tok::Op("{")) {
            self.skip_balanced_braces()?;
            if self.eat_contextual("from") {
                self.bump(); // module specifier
            }
            self.eat_semi();
            return Ok(vec![self.ast.non_terminal(vocab::pass_stmt(), vec![])]);
        }
        if self.eat_op("*") {
            self.expect_contextual("from")?;
            self.bump(); // module specifier
            self.eat_semi();
            return Ok(vec![self.ast.non_terminal(vocab::pass_stmt(), vec![])]);
        }
        if self.eat_kw("default") {
            // `export default <declaration|expression>`.
            if self.at_kw("function") || self.at_kw("class")
                || (self.at_contextual("async")
                    && matches!(self.peek_at(1), Tok::Name(f) if f == "function"))
            {
                return self.parse_statement();
            }
            let line = self.line();
            return self.parse_expr_statement(line);
        }
        self.parse_statement()
    }

    // ----- declarations --------------------------------------------------------

    /// One `const`/`let`/`var` statement; each declarator becomes its own
    /// node: `Assign` when initialised (matching Python's shape, with an
    /// optional `TypeRef` from a TS annotation), `LocalVar` otherwise.
    fn parse_var_decl(&mut self) -> Result<Vec<NodeId>, ParseError> {
        self.bump(); // const / let / var
        let mut out = Vec::new();
        loop {
            let line = self.line();
            let target = self.parse_binding_target()?;
            let ty = if self.eat_op(":") {
                Some(self.parse_type()?)
            } else {
                None
            };
            if self.eat_op("=") {
                let value = self.parse_assignment()?;
                let mut kids = vec![target];
                kids.extend(ty);
                kids.push(value);
                let node = self.ast.non_terminal(vocab::assign(), kids);
                self.ast.set_line(node, line);
                out.push(node);
            } else {
                let mut kids: Vec<NodeId> = ty.into_iter().collect();
                kids.push(target);
                let node = self.ast.non_terminal(vocab::local_var(), kids);
                self.ast.set_line(node, line);
                out.push(node);
            }
            if !self.eat_op(",") {
                break;
            }
        }
        self.eat_semi();
        Ok(out)
    }

    /// A binding target: a plain name, or an object/array destructuring
    /// pattern lowered to a `TupleLit` of `NameStore`s.
    fn parse_binding_target(&mut self) -> Result<NodeId, ParseError> {
        if matches!(self.peek(), Tok::Op("{") | Tok::Op("[")) {
            let close = if matches!(self.peek(), Tok::Op("{")) {
                "}"
            } else {
                "]"
            };
            let line = self.line();
            self.bump();
            let mut names = Vec::new();
            while !self.eat_op(close) {
                if self.eat_op("...") {
                    let (name, nline) = self.expect_name()?;
                    names.push(self.name_node(vocab::name_store(), &name, NameRole::Object, nline));
                } else if self.at_name() {
                    let (key, kline) = self.expect_name()?;
                    if close == "}" && self.eat_op(":") {
                        // `{key: bound}` renames; the bound name is what is
                        // declared.
                        let (bound, bline) = self.expect_name()?;
                        names.push(self.name_node(
                            vocab::name_store(),
                            &bound,
                            NameRole::Object,
                            bline,
                        ));
                    } else {
                        names.push(self.name_node(
                            vocab::name_store(),
                            &key,
                            NameRole::Object,
                            kline,
                        ));
                    }
                    if self.eat_op("=") {
                        let _ = self.parse_assignment()?; // default value
                    }
                } else {
                    return Err(self.unexpected("expected binding name"));
                }
                if !self.eat_op(",") && !matches!(self.peek(), Tok::Op(o) if *o == close) {
                    return Err(self.unexpected("expected ',' in destructuring pattern"));
                }
            }
            let node = self.ast.non_terminal(vocab::tuple_lit(), names);
            self.ast.set_line(node, line);
            Ok(node)
        } else {
            let (name, nline) = self.expect_name()?;
            Ok(self.name_node(vocab::name_store(), &name, NameRole::Object, nline))
        }
    }

    /// `function name(params) { body }` → `FunctionDef` with the body
    /// spliced in as direct children (Python's shape).
    fn parse_function_def(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("function")?;
        self.eat_op("*"); // generator
        let (name, nline) = self.expect_name()?;
        let name_node = self.name_node(vocab::name_store(), &name, NameRole::Function, nline);
        let params = self.parse_params()?;
        let ret_ty = if self.eat_op(":") {
            Some(self.parse_type()?)
        } else {
            None
        };
        let body = self.parse_block()?;
        let mut kids = vec![name_node, params];
        kids.extend(ret_ty);
        kids.extend(body);
        let node = self.ast.non_terminal(vocab::function_def(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_params(&mut self) -> Result<NodeId, ParseError> {
        self.expect_op("(")?;
        let mut params = Vec::new();
        while !matches!(self.peek(), Tok::Op(")")) {
            let variadic = self.eat_op("...");
            if matches!(self.peek(), Tok::Op("{") | Tok::Op("[")) {
                // Destructured parameter: the pattern is kept but binds no
                // single receiver name.
                let pat = self.parse_binding_target()?;
                if self.eat_op(":") {
                    let _ = self.parse_type()?;
                }
                if self.eat_op("=") {
                    let _ = self.parse_assignment()?;
                }
                params.push(self.ast.non_terminal(vocab::param(), vec![pat]));
            } else {
                let (name, nline) = self.expect_name()?;
                self.eat_op("?"); // TS optional marker
                let mut kids = Vec::new();
                if self.eat_op(":") {
                    kids.push(self.parse_type()?);
                }
                kids.push(self.name_node(vocab::name_param(), &name, NameRole::Object, nline));
                if self.eat_op("=") {
                    kids.push(self.parse_assignment()?);
                }
                let wrapper = if variadic {
                    vocab::star_param()
                } else {
                    vocab::param()
                };
                params.push(self.ast.non_terminal(wrapper, kids));
            }
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op(")")?;
        Ok(self.ast.non_terminal(vocab::params(), params))
    }

    fn parse_class(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("class")?;
        let (name, nline) = self.expect_name()?;
        let name_node = self.name_node(vocab::name_store(), &name, NameRole::Type, nline);
        let mut bases = Vec::new();
        if self.eat_kw("extends") {
            bases.push(self.parse_type()?);
        }
        if self.eat_contextual("implements") {
            loop {
                let _ = self.parse_type()?;
                if !self.eat_op(",") {
                    break;
                }
            }
        }
        let bases_node = self.ast.non_terminal(vocab::bases(), bases);
        self.expect_op("{")?;
        let mut kids = vec![name_node, bases_node];
        while !self.eat_op("}") {
            if matches!(self.peek(), Tok::Eof) {
                return Err(self.unexpected("unterminated class body"));
            }
            if self.eat_op(";") {
                continue;
            }
            kids.push(self.parse_class_member()?);
        }
        let class = self.ast.non_terminal(vocab::class_def(), kids);
        self.ast.set_line(class, line);
        Ok(class)
    }

    fn parse_class_member(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        // Modifiers, in any sane order. `static`/`async`/`get`/`set` are
        // contextual: they are modifiers only when another member name
        // follows.
        loop {
            let is_modifier = matches!(
                self.peek(),
                Tok::Name(m) if matches!(
                    m.as_str(),
                    "static" | "async" | "get" | "set" | "public" | "private" | "protected"
                        | "readonly" | "override" | "abstract"
                )
            ) && matches!(self.peek_at(1), Tok::Name(_));
            if is_modifier {
                self.bump();
            } else {
                break;
            }
        }
        self.eat_op("*"); // generator method
        let (name, nline) = self.expect_name()?;
        if matches!(self.peek(), Tok::Op("(")) {
            // Method / constructor.
            let wrapper = if name == "constructor" {
                vocab::ctor_decl()
            } else {
                vocab::function_def()
            };
            let name_node = self.name_node(vocab::name_store(), &name, NameRole::Function, nline);
            let params = self.parse_params()?;
            let ret_ty = if self.eat_op(":") {
                Some(self.parse_type()?)
            } else {
                None
            };
            let body = self.parse_block()?;
            let mut kids = vec![name_node, params];
            kids.extend(ret_ty);
            kids.extend(body);
            let node = self.ast.non_terminal(wrapper, kids);
            self.ast.set_line(node, line);
            return Ok(node);
        }
        // Field: `name [: Type] [= init] ;`
        self.eat_op("?");
        let name_node = self.name_node(vocab::name_store(), &name, NameRole::Object, nline);
        let mut kids = Vec::new();
        if self.eat_op(":") {
            kids.push(self.parse_type()?);
        }
        kids.push(name_node);
        if self.eat_op("=") {
            kids.push(self.parse_assignment()?);
        }
        self.eat_semi();
        let node = self.ast.non_terminal(vocab::field_decl(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    // ----- control flow --------------------------------------------------------

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
        self.eat_semi();
        let b = self.ast.non_terminal(sym!("Body"), body);
        let node = self.ast.non_terminal(sym!("DoWhile"), vec![cond, b]);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_for(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("for")?;
        self.eat_contextual("await");
        self.expect_op("(")?;
        // `for (const x of xs)` / `for (x in o)` → For [target, iter, Body]
        // (the Python enhanced-for shape); otherwise the classic three-clause
        // form → ForClassic.
        let decl_kw = matches!(self.peek(), Tok::Name(k) if matches!(k.as_str(), "const" | "let" | "var"));
        if decl_kw {
            let save = self.pos;
            self.bump();
            let target = self.parse_binding_target();
            if let Ok(target) = target {
                if self.eat_contextual("of") || self.eat_kw("in") {
                    return self.finish_for_each(line, target);
                }
            }
            self.pos = save;
        } else if !matches!(self.peek(), Tok::Op(";")) {
            // A unary-level prefix can be a for-each target (`x`, `x.y`,
            // `[a, b]`); stopping below `in`'s precedence keeps the `in`
            // operator from swallowing `for (x in o)`.
            let save = self.pos;
            if let Ok(e) = self.parse_unary() {
                if self.eat_contextual("of") || self.eat_kw("in") {
                    let target = self.make_store(e);
                    return self.finish_for_each(line, target);
                }
            }
            self.pos = save;
        }
        // Classic for.
        let init: Vec<NodeId> = if self.eat_op(";") {
            vec![]
        } else if matches!(self.peek(), Tok::Name(k) if matches!(k.as_str(), "const" | "let" | "var"))
        {
            self.parse_var_decl()? // consumes the `;`
        } else {
            let mut exprs = vec![self.parse_expr()?];
            while self.eat_op(",") {
                exprs.push(self.parse_expr()?);
            }
            self.expect_op(";")?;
            exprs
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

    fn finish_for_each(&mut self, line: u32, target: NodeId) -> Result<NodeId, ParseError> {
        let iter = self.parse_expr()?;
        self.expect_op(")")?;
        let body = self.parse_statement()?;
        let b = self.ast.non_terminal(sym!("Body"), body);
        let node = self.ast.non_terminal(vocab::for_stmt(), vec![target, iter, b]);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_try(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("try")?;
        let body = self.parse_block()?;
        let mut kids = vec![self.ast.non_terminal(sym!("Body"), body)];
        if self.eat_kw("catch") {
            let hline = self.line();
            let mut hkids = Vec::new();
            if self.eat_op("(") {
                let target = self.parse_binding_target()?;
                if self.eat_op(":") {
                    let _ = self.parse_type()?; // TS catch annotation
                }
                hkids.push(target);
                self.expect_op(")")?;
            }
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
                    kids.push(
                        self.ast
                            .non_terminal(sym!("Case"), std::mem::take(&mut current_case)),
                    );
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
            "+=", "-=", "*=", "/=", "%=", "**=", "&=", "|=", "^=", "<<=", ">>=", ">>>=", "&&=",
            "||=", "??=",
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
        } else if v == vocab::list_lit() || v == vocab::tuple_lit() {
            // Destructuring assignment: convert each element.
            let kids = self.ast.children(node).to_vec();
            let line = self.ast.line(node);
            let new_kids: Vec<NodeId> = kids.into_iter().map(|k| self.make_store(k)).collect();
            let new = self.ast.non_terminal(vocab::tuple_lit(), new_kids);
            self.ast.set_line(new, line);
            new
        } else {
            node
        }
    }

    fn parse_ternary(&mut self) -> Result<NodeId, ParseError> {
        let cond = self.parse_nullish()?;
        // `?.` is optional chaining, handled in postfix; a bare `?` here is
        // the conditional operator.
        if matches!(self.peek(), Tok::Op("?")) {
            self.bump();
            let then = self.parse_assignment()?;
            self.expect_op(":")?;
            let els = self.parse_assignment()?;
            return Ok(self
                .ast
                .non_terminal(vocab::ternary(), vec![cond, then, els]));
        }
        Ok(cond)
    }

    fn parse_nullish(&mut self) -> Result<NodeId, ParseError> {
        let mut left = self.parse_or()?;
        while self.eat_op("??") {
            let op = self.op_term("??");
            let right = self.parse_or()?;
            left = self.ast.non_terminal(vocab::bool_op(), vec![left, op, right]);
        }
        Ok(left)
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
            &["===", "!==", "==", "!="],
            &["<", ">", "<=", ">="],
            &["<<", ">>", ">>>"],
            &["+", "-"],
            &["*", "/", "%"],
            &["**"],
        ];
        if level >= LEVELS.len() {
            return self.parse_unary();
        }
        let mut left = self.parse_binary_level(level + 1)?;
        loop {
            // `instanceof` / `in` sit at relational precedence.
            if level == 4 && (self.at_kw("instanceof") || self.at_kw("in")) {
                let kw = match self.bump() {
                    Tok::Name(n) => n,
                    _ => unreachable!("peeked a name"),
                };
                let op_node = self.op_term(if kw == "in" { "in" } else { "instanceof" });
                let right = self.parse_binary_level(level + 1)?;
                left = self
                    .ast
                    .non_terminal(vocab::compare(), vec![left, op_node, right]);
                continue;
            }
            let matched = match self.peek() {
                Tok::Op(o) => LEVELS[level].iter().find(|&&c| c == *o).copied(),
                _ => None,
            };
            let Some(op) = matched else { break };
            self.bump();
            let op_node = self.op_term(op);
            // `**` is right-associative.
            let right = if op == "**" {
                self.parse_binary_level(level)?
            } else {
                self.parse_binary_level(level + 1)?
            };
            let kind = if matches!(op, "===" | "!==" | "==" | "!=" | "<" | ">" | "<=" | ">=") {
                vocab::compare()
            } else {
                vocab::bin_op()
            };
            left = self.ast.non_terminal(kind, vec![left, op_node, right]);
            if op == "**" {
                break;
            }
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
        for kw in ["typeof", "void", "delete", "await", "yield"] {
            if self.at_kw(kw) || (matches!(kw, "await" | "yield") && self.at_contextual(kw)) {
                // `yield` with no operand ends the expression.
                let line = self.line();
                self.bump();
                if kw == "yield" && self.at_stmt_end(line) {
                    let op_node = self.op_term(kw);
                    let empty = self.ast.non_terminal(vocab::none_lit(), vec![]);
                    return Ok(self
                        .ast
                        .non_terminal(vocab::unary_op(), vec![op_node, empty]));
                }
                self.eat_op("*"); // yield*
                let op_node = self.op_term(kw);
                let operand = self.parse_unary()?;
                return Ok(self
                    .ast
                    .non_terminal(vocab::unary_op(), vec![op_node, operand]));
            }
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<NodeId, ParseError> {
        let mut node = self.parse_atom()?;
        loop {
            let at_attr = matches!(self.peek(), Tok::Op(".") | Tok::Op("?."))
                && matches!(self.peek_at(1), Tok::Name(_));
            if at_attr {
                self.bump();
                let (name, nline) = match self.bump() {
                    Tok::Name(n) => (n, self.line()),
                    _ => unreachable!("peeked a name"),
                };
                let attr = self.name_node(vocab::attr(), &name, NameRole::Object, nline);
                node = self
                    .ast
                    .non_terminal(vocab::attribute_load(), vec![node, attr]);
                self.ast.set_line(node, nline);
            } else if matches!(self.peek(), Tok::Op("(")) {
                node = self.parse_call(node)?;
            } else if matches!(self.peek(), Tok::Op("?.")) && matches!(self.peek_at(1), Tok::Op("(")) {
                self.bump();
                node = self.parse_call(node)?;
            } else if self.eat_op("[") {
                let idx = self.parse_expr()?;
                self.expect_op("]")?;
                node = self.ast.non_terminal(vocab::subscript(), vec![node, idx]);
            } else if matches!(self.peek(), Tok::Op("?.")) && matches!(self.peek_at(1), Tok::Op("[")) {
                self.bump();
                self.bump();
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
            } else if matches!(self.peek(), Tok::Template(_)) {
                // Tagged template: `tag`…`` — a call with one string arg.
                let line = self.line();
                let text = match self.bump() {
                    Tok::Template(t) => t,
                    _ => unreachable!("peeked a template"),
                };
                self.mark_callee(node);
                let arg = self.str_node(&text, line);
                node = self.ast.non_terminal(vocab::call(), vec![node, arg]);
                self.ast.set_line(node, line);
            } else if self.at_contextual("as") && matches!(self.peek_at(1), Tok::Name(_)) {
                // TS `expr as Type` cast.
                self.bump();
                if self.eat_kw("const") {
                    continue; // `as const` leaves the value unchanged
                }
                let ty = self.parse_type()?;
                node = self.ast.non_terminal(vocab::cast(), vec![ty, node]);
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
            if self.eat_op("...") {
                let e = self.parse_assignment()?;
                kids.push(self.ast.non_terminal(vocab::starred(), vec![e]));
            } else {
                kids.push(self.parse_assignment()?);
            }
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
            Tok::Template(t) => {
                self.bump();
                let term = self.ast.terminal(&*t, TermKind::Str);
                self.ast.set_line(term, line);
                self.ast.non_terminal(vocab::str_lit(), vec![term])
            }
            Tok::Regex(r) => {
                self.bump();
                let term = self.ast.terminal(&*r, TermKind::Str);
                self.ast.set_line(term, line);
                self.ast.non_terminal(vocab::str_lit(), vec![term])
            }
            Tok::Name(n) => match n.as_str() {
                "true" | "false" => {
                    self.bump();
                    let term = self.ast.terminal(&*n, TermKind::Bool);
                    self.ast.non_terminal(vocab::bool_lit(), vec![term])
                }
                "null" | "undefined" => {
                    self.bump();
                    let term = self.ast.terminal(&*n, TermKind::Null);
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
                    // `new a.b.C(args)` — the last segment is the type.
                    let ty = self.parse_type()?;
                    let mut kids = vec![ty];
                    if self.eat_op("(") {
                        while !matches!(self.peek(), Tok::Op(")")) {
                            if self.eat_op("...") {
                                let e = self.parse_assignment()?;
                                kids.push(self.ast.non_terminal(vocab::starred(), vec![e]));
                            } else {
                                kids.push(self.parse_assignment()?);
                            }
                            if !self.eat_op(",") {
                                break;
                            }
                        }
                        self.expect_op(")")?;
                    }
                    self.ast.non_terminal(vocab::new_object(), kids)
                }
                "function" => {
                    // Function expression → Lambda (optionally named).
                    self.bump();
                    self.eat_op("*");
                    if self.at_name() {
                        self.bump();
                    }
                    let params = self.parse_params()?;
                    if self.eat_op(":") {
                        let _ = self.parse_type()?;
                    }
                    let body = self.parse_block()?;
                    let b = self.ast.non_terminal(sym!("Body"), body);
                    self.ast.non_terminal(vocab::lambda(), vec![params, b])
                }
                "async"
                    if matches!(self.peek_at(1), Tok::Name(f) if f == "function")
                        || matches!(self.peek_at(1), Tok::Op("("))
                        || (matches!(self.peek_at(1), Tok::Name(_))
                            && matches!(self.peek_at(2), Tok::Op("=>"))) =>
                {
                    self.bump();
                    return self.parse_atom();
                }
                _ if KEYWORDS.contains(&n.as_str()) => {
                    return Err(self.unexpected("unexpected keyword in expression"));
                }
                _ => {
                    self.bump();
                    // Single-parameter arrow: `x => expr`.
                    if matches!(self.peek(), Tok::Op("=>")) {
                        self.bump();
                        let pnode = self.name_node(vocab::name_param(), &n, NameRole::Object, line);
                        let param = self.ast.non_terminal(vocab::param(), vec![pnode]);
                        let params = self.ast.non_terminal(vocab::params(), vec![param]);
                        let body = self.parse_arrow_body()?;
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
                // Possibly an arrow parameter list: `(a, b) => …`.
                let save = self.pos;
                let ast_len = self.ast.len();
                if let Ok(l) = self.try_parse_arrow_after_paren() {
                    return Ok(l);
                }
                self.pos = save;
                debug_assert!(self.ast.len() >= ast_len);
                let mut inner = self.parse_expr()?;
                // Comma/sequence expression: lowered like a tuple.
                if matches!(self.peek(), Tok::Op(",")) {
                    let mut items = vec![inner];
                    while self.eat_op(",") {
                        items.push(self.parse_expr()?);
                    }
                    inner = self.ast.non_terminal(vocab::tuple_lit(), items);
                }
                self.expect_op(")")?;
                inner
            }
            Tok::Op("[") => {
                self.bump();
                let mut items = Vec::new();
                while !matches!(self.peek(), Tok::Op("]")) {
                    if self.eat_op("...") {
                        let e = self.parse_assignment()?;
                        items.push(self.ast.non_terminal(vocab::starred(), vec![e]));
                    } else {
                        items.push(self.parse_assignment()?);
                    }
                    if !self.eat_op(",") {
                        break;
                    }
                }
                self.expect_op("]")?;
                self.ast.non_terminal(vocab::list_lit(), items)
            }
            Tok::Op("{") => self.parse_object_literal()?,
            _ => return Err(self.unexpected("expected expression")),
        };
        self.ast.set_line(node, line);
        Ok(node)
    }

    /// Called with `(` already consumed: parses `a, b = 1, ...rest) => body`
    /// or fails so the caller can re-parse as a parenthesised expression.
    fn try_parse_arrow_after_paren(&mut self) -> Result<NodeId, ParseError> {
        let mut params = Vec::new();
        while !matches!(self.peek(), Tok::Op(")")) {
            let variadic = self.eat_op("...");
            if matches!(self.peek(), Tok::Op("{") | Tok::Op("[")) {
                let pat = self.parse_binding_target()?;
                if self.eat_op(":") {
                    let _ = self.parse_type()?;
                }
                if self.eat_op("=") {
                    let _ = self.parse_assignment()?;
                }
                params.push(self.ast.non_terminal(vocab::param(), vec![pat]));
            } else {
                let (name, nline) = self.expect_name()?;
                self.eat_op("?");
                let mut kids = Vec::new();
                if self.eat_op(":") {
                    kids.push(self.parse_type()?);
                }
                kids.push(self.name_node(vocab::name_param(), &name, NameRole::Object, nline));
                if self.eat_op("=") {
                    kids.push(self.parse_assignment()?);
                }
                let wrapper = if variadic {
                    vocab::star_param()
                } else {
                    vocab::param()
                };
                params.push(self.ast.non_terminal(wrapper, kids));
            }
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op(")")?;
        if self.eat_op(":") {
            let _ = self.parse_type()?; // TS return annotation
        }
        if !self.eat_op("=>") {
            return Err(self.unexpected("not an arrow function"));
        }
        let params_node = self.ast.non_terminal(vocab::params(), params);
        let body = self.parse_arrow_body()?;
        Ok(self
            .ast
            .non_terminal(vocab::lambda(), vec![params_node, body]))
    }

    fn parse_arrow_body(&mut self) -> Result<NodeId, ParseError> {
        if matches!(self.peek(), Tok::Op("{")) {
            let b = self.parse_block()?;
            Ok(self.ast.non_terminal(sym!("Body"), b))
        } else {
            self.parse_assignment()
        }
    }

    /// `{key: value, shorthand, method() {}, [computed]: v, ...spread}` →
    /// `DictLit` with alternating key/value children (Python's shape).
    fn parse_object_literal(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_op("{")?;
        let mut kids = Vec::new();
        while !matches!(self.peek(), Tok::Op("}")) {
            if self.eat_op("...") {
                let e = self.parse_assignment()?;
                kids.push(self.ast.non_terminal(vocab::double_starred(), vec![e]));
            } else if self.eat_op("[") {
                let key = self.parse_expr()?;
                self.expect_op("]")?;
                self.expect_op(":")?;
                let value = self.parse_assignment()?;
                kids.push(key);
                kids.push(value);
            } else {
                // `get`/`set`/`async` are modifiers only when a key follows.
                while matches!(self.peek(), Tok::Name(m) if matches!(m.as_str(), "get" | "set" | "async"))
                    && (matches!(self.peek_at(1), Tok::Name(_))
                        || matches!(self.peek_at(1), Tok::Str(_)))
                {
                    self.bump();
                }
                self.eat_op("*");
                let (key, kline) = match self.bump() {
                    Tok::Name(k) => (k, line),
                    Tok::Str(k) => (k, line),
                    Tok::Number(k) => (k, line),
                    other => {
                        return Err(ParseError::new(
                            self.line(),
                            format!("expected object key, got {other:?}"),
                        ))
                    }
                };
                if matches!(self.peek(), Tok::Op("(")) {
                    // Method shorthand → key + Lambda value.
                    let params = self.parse_params()?;
                    if self.eat_op(":") {
                        let _ = self.parse_type()?;
                    }
                    let body = self.parse_block()?;
                    let b = self.ast.non_terminal(sym!("Body"), body);
                    let lambda = self.ast.non_terminal(vocab::lambda(), vec![params, b]);
                    kids.push(self.str_node(&key, kline));
                    kids.push(lambda);
                } else if self.eat_op(":") {
                    let value = self.parse_assignment()?;
                    kids.push(self.str_node(&key, kline));
                    kids.push(value);
                } else {
                    // Shorthand `{name}`: the value is the in-scope name.
                    kids.push(self.str_node(&key, kline));
                    kids.push(self.name_node(vocab::name_load(), &key, NameRole::Object, kline));
                }
            }
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op("}")?;
        let node = self.ast.non_terminal(vocab::dict_lit(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sexp(src: &str) -> String {
        let ast = parse(src).unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"));
        ast.to_sexp(ast.root())
    }

    fn in_fn(body: &str) -> String {
        sexp(&format!("function f() {{ {body} }}"))
    }

    #[test]
    fn const_decl_matches_python_assign_shape() {
        let s = sexp("const count = 1;");
        assert!(s.contains("(Assign (NameStore count) (Num 1))"), "{s}");
    }

    #[test]
    fn uninitialised_let_is_local_var() {
        let s = sexp("let cursor;");
        assert!(s.contains("(LocalVar (NameStore cursor))"), "{s}");
    }

    #[test]
    fn method_call_shape_matches_python() {
        let s = in_fn("this.publicKey = publickKey;");
        assert!(
            s.contains(
                "(Assign (AttributeStore (NameLoad this) (Attr publicKey)) (NameLoad publickKey))"
            ),
            "{s}"
        );
    }

    #[test]
    fn call_shape_matches_other_languages() {
        let s = in_fn("logger.warn(message);");
        assert!(
            s.contains("(ExprStmt (Call (AttributeLoad (NameLoad logger) (Attr warn)) (NameLoad message)))"),
            "{s}"
        );
    }

    #[test]
    fn class_with_methods() {
        let s = sexp(
            "class Widget extends Base { constructor(size) { this.size = size; } resize(newSize) { this.size = newSize; } }",
        );
        assert!(s.contains("(ClassDef (NameStore Widget) (Bases (TypeRef Base))"), "{s}");
        assert!(s.contains("(CtorDecl (NameStore constructor) (Params (Param (NameParam size)))"), "{s}");
        assert!(s.contains("(FunctionDef (NameStore resize) (Params (Param (NameParam newSize)))"), "{s}");
    }

    #[test]
    fn class_fields() {
        let s = sexp("class A { count = 0; name; }");
        assert!(s.contains("(FieldDecl (NameStore count) (Num 0))"), "{s}");
        assert!(s.contains("(FieldDecl (NameStore name))"), "{s}");
    }

    #[test]
    fn arrow_functions() {
        let s = sexp("const double = x => x * 2;");
        assert!(s.contains("(Lambda (Params (Param (NameParam x)))"), "{s}");
        let s = sexp("items.map((item, index) => item.value);");
        assert!(s.contains("(Param (NameParam item)) (Param (NameParam index))"), "{s}");
    }

    #[test]
    fn for_of_matches_python_for_shape() {
        let s = in_fn("for (const item of items) { use(item); }");
        assert!(s.contains("(For (NameStore item) (NameLoad items)"), "{s}");
    }

    #[test]
    fn for_in() {
        let s = in_fn("for (const key in table) { use(key); }");
        assert!(s.contains("(For (NameStore key) (NameLoad table)"), "{s}");
    }

    #[test]
    fn classic_for() {
        let s = in_fn("for (let i = 0; i < limit; i++) { step(i); }");
        assert!(s.contains("(ForClassic (Init (Assign (NameStore i) (Num 0)))"), "{s}");
        assert!(s.contains("(Cond (Compare (NameLoad i) < (NameLoad limit)))"), "{s}");
    }

    #[test]
    fn try_catch() {
        let s = in_fn("try { run(); } catch (err) { log(err); } finally { done(); }");
        assert!(s.contains("(Handler (NameStore err) (Body"), "{s}");
        assert!(s.contains("(Finally"), "{s}");
    }

    #[test]
    fn catch_without_binding() {
        let s = in_fn("try { run(); } catch { recover(); }");
        assert!(s.contains("(Handler (Body"), "{s}");
    }

    #[test]
    fn new_object() {
        let s = sexp("const server = new HttpServer(port);");
        assert!(s.contains("(New (TypeRef HttpServer) (NameLoad port))"), "{s}");
    }

    #[test]
    fn template_literal_is_a_string() {
        let s = sexp("const msg = `hello ${name}`;");
        assert!(s.contains("(Assign (NameStore msg) (Str"), "{s}");
    }

    #[test]
    fn strict_equality_is_compare() {
        let s = sexp("const same = a === b;");
        assert!(s.contains("(Compare (NameLoad a) === (NameLoad b))"), "{s}");
    }

    #[test]
    fn object_and_array_literals() {
        let s = sexp("const cfg = {port: 80, host};");
        assert!(s.contains("(DictLit (Str port) (Num 80) (Str host) (NameLoad host))"), "{s}");
        let s = sexp("const xs = [1, 2];");
        assert!(s.contains("(ListLit (Num 1) (Num 2))"), "{s}");
    }

    #[test]
    fn imports() {
        let s = sexp("import fs from 'fs';\nimport {join, resolve as rp} from 'path';");
        assert!(s.contains("(ImportFrom (Str fs) (NameStore fs))"), "{s}");
        assert!(s.contains("(NameStore join)"), "{s}");
        assert!(s.contains("(NameStore rp)"), "{s}");
    }

    #[test]
    fn exports_unwrap_declarations() {
        let s = sexp("export function helper(x) { return x; }\nexport const LIMIT = 10;");
        assert!(s.contains("(FunctionDef (NameStore helper)"), "{s}");
        assert!(s.contains("(Assign (NameStore LIMIT) (Num 10))"), "{s}");
    }

    #[test]
    fn export_default_expression() {
        let s = sexp("export default new App();");
        assert!(s.contains("(ExprStmt (New (TypeRef App)))"), "{s}");
    }

    #[test]
    fn destructuring_declarations() {
        let s = sexp("const {width, height} = box;");
        assert!(
            s.contains("(Assign (TupleLit (NameStore width) (NameStore height)) (NameLoad box))"),
            "{s}"
        );
        let s = sexp("const [first, second] = pair;");
        assert!(
            s.contains("(Assign (TupleLit (NameStore first) (NameStore second)) (NameLoad pair))"),
            "{s}"
        );
    }

    #[test]
    fn typescript_annotations_become_typerefs() {
        let s = sexp("function area(width: number, height: number): number { return width * height; }");
        assert!(s.contains("(Param (TypeRef number) (NameParam width))"), "{s}");
        let s = sexp("let total: number = 0;");
        assert!(s.contains("(Assign (NameStore total) (TypeRef number) (Num 0))"), "{s}");
    }

    #[test]
    fn typescript_type_declarations_are_dropped() {
        let s = sexp("interface Shape { area(): number; }\ntype Id = string;\nlet x = 1;");
        assert!(s.contains("(Assign (NameStore x) (Num 1))"), "{s}");
        assert!(!s.contains("Shape"), "{s}");
    }

    #[test]
    fn ts_as_cast() {
        let s = sexp("const n = value as number;");
        assert!(s.contains("(Cast (TypeRef number) (NameLoad value))"), "{s}");
    }

    #[test]
    fn optional_chaining_is_attribute_access() {
        let s = sexp("const v = config?.server?.port;");
        assert!(
            s.contains("(AttributeLoad (AttributeLoad (NameLoad config) (Attr server)) (Attr port))"),
            "{s}"
        );
    }

    #[test]
    fn spread_and_rest() {
        let s = sexp("merge(...parts);");
        assert!(s.contains("(Starred (NameLoad parts))"), "{s}");
        let s = sexp("function gather(...items) { return items; }");
        assert!(s.contains("(StarParam (NameParam items))"), "{s}");
    }

    #[test]
    fn switch_statement() {
        let s = in_fn("switch (kind) { case 1: a(); break; default: b(); }");
        assert!(s.contains("Switch"), "{s}");
        assert!(s.contains("(Case (Num 1)"), "{s}");
    }

    #[test]
    fn do_while_and_labels() {
        let s = in_fn("outer: do { step(); } while (more);");
        assert!(s.contains("DoWhile"), "{s}");
    }

    #[test]
    fn async_await() {
        let s = sexp("async function load(url) { const data = await fetch(url); return data; }");
        assert!(s.contains("(FunctionDef (NameStore load)"), "{s}");
        assert!(s.contains("(UnaryOp await (Call (NameLoad fetch) (NameLoad url)))"), "{s}");
    }

    #[test]
    fn function_expression_is_lambda() {
        let s = sexp("emitter.on('data', function (chunk) { push(chunk); });");
        assert!(s.contains("(Lambda (Params (Param (NameParam chunk)))"), "{s}");
    }

    #[test]
    fn nullish_coalescing() {
        let s = sexp("const port = env.PORT ?? 3000;");
        assert!(s.contains("(BoolOp"), "{s}");
        assert!(s.contains("??"), "{s}");
    }

    #[test]
    fn regex_literal_is_a_string_atom() {
        let s = sexp("const re = /ab+c/gi;");
        assert!(s.contains("(Assign (NameStore re) (Str"), "{s}");
    }

    #[test]
    fn parse_error_reported() {
        assert!(parse("function f( { }").is_err());
        assert!(parse("const = 1;").is_err());
    }

    #[test]
    fn line_numbers_recorded() {
        let ast = parse("let a = 1;\nlet b = 2;\n").unwrap();
        let s = ast.to_sexp(ast.root());
        assert!(s.contains("NameStore"), "{s}");
    }
}
