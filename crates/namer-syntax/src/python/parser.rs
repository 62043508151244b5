//! Recursive-descent parser for a broad Python subset.
//!
//! The parser targets the statement and expression forms that dominate real
//! GitHub Python (the paper's dataset): classes, functions, assignments,
//! attribute/method calls, control flow, `with`/`try`, comprehensions,
//! lambdas, and the literal forms. It produces the parsed AST of
//! Figure 2 (b): expressions are wrapped in small non-terminals
//! (`NameLoad`, `AttributeLoad`, `Attr`, `Num`, …) whose leaves are the
//! identifier / literal terminals.

use super::lexer::{lex, Spanned, Tok};
use crate::ast::{Ast, NameRole, NodeId, TermKind};
use crate::source::ParseError;
use crate::sym;
use crate::vocab;

const KEYWORDS: &[&str] = &[
    "False", "None", "True", "and", "as", "assert", "async", "await", "break", "class",
    "continue", "def", "del", "elif", "else", "except", "finally", "for", "from", "global", "if",
    "import", "in", "is", "lambda", "nonlocal", "not", "or", "pass", "raise", "return", "try",
    "while", "with", "yield",
];

/// Parses Python source into a [`Module`](crate::vocab::module)-rooted AST.
///
/// # Errors
///
/// Returns [`ParseError`] for syntax outside the supported subset.
///
/// # Examples
///
/// ```
/// let ast = namer_syntax::python::parse("self.assertTrue(x, 90)\n")?;
/// let root = ast.root();
/// assert_eq!(ast.value(root).as_str(), "Module");
/// # Ok::<(), namer_syntax::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Ast, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        ast: Ast::new(),
    };
    let body = p.parse_block_body(true)?;
    p.expect_eof()?;
    let root = p.ast.non_terminal(vocab::module(), body);
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

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Name(n) if n == kw) {
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

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Name(n) if n == kw)
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

    fn eat_newlines(&mut self) {
        while matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        self.eat_newlines();
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(self.unexpected("expected end of file"))
        }
    }

    // ----- node helpers -----------------------------------------------------

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

    // ----- statements -------------------------------------------------------

    /// Parses statements until `Dedent`/`Eof` (or just `Eof` at top level).
    fn parse_block_body(&mut self, top: bool) -> Result<Vec<NodeId>, ParseError> {
        let mut stmts = Vec::new();
        loop {
            self.eat_newlines();
            match self.peek() {
                Tok::Eof => break,
                Tok::Dedent if !top => break,
                Tok::Dedent => {
                    return Err(self.unexpected("unexpected dedent at top level"));
                }
                _ => stmts.extend(self.parse_statement()?),
            }
        }
        Ok(stmts)
    }

    /// Parses an indented suite after a `:` header.
    fn parse_suite(&mut self) -> Result<Vec<NodeId>, ParseError> {
        self.expect_op(":")?;
        if !matches!(self.peek(), Tok::Newline) {
            // Inline suite: `if x: return y`
            return self.parse_simple_statement_line();
        }
        self.bump(); // newline
        self.eat_newlines();
        if !matches!(self.peek(), Tok::Indent) {
            return Err(self.unexpected("expected indented block"));
        }
        self.bump();
        let mut stmts = Vec::new();
        loop {
            self.eat_newlines();
            match self.peek() {
                Tok::Dedent => {
                    self.bump();
                    break;
                }
                Tok::Eof => break,
                _ => stmts.extend(self.parse_statement()?),
            }
        }
        Ok(stmts)
    }

    fn parse_statement(&mut self) -> Result<Vec<NodeId>, ParseError> {
        match self.peek().clone() {
            Tok::Op("@") => {
                self.bump();
                let line = self.line();
                let expr = self.parse_expr()?;
                let deco = self.ast.non_terminal(vocab::decorator(), vec![expr]);
                self.ast.set_line(deco, line);
                self.eat_newlines();
                Ok(vec![deco])
            }
            Tok::Name(n) => match n.as_str() {
                "def" => Ok(vec![self.parse_def()?]),
                "async" => {
                    self.bump();
                    if self.at_kw("def") {
                        Ok(vec![self.parse_def()?])
                    } else {
                        Err(self.unexpected("expected def after async"))
                    }
                }
                "class" => Ok(vec![self.parse_class()?]),
                "if" => Ok(vec![self.parse_if()?]),
                "while" => Ok(vec![self.parse_while()?]),
                "for" => Ok(vec![self.parse_for()?]),
                "with" => Ok(vec![self.parse_with()?]),
                "try" => Ok(vec![self.parse_try()?]),
                _ => self.parse_simple_statement_line(),
            },
            _ => self.parse_simple_statement_line(),
        }
    }

    /// One or more `;`-separated simple statements followed by a newline.
    fn parse_simple_statement_line(&mut self) -> Result<Vec<NodeId>, ParseError> {
        let mut out = vec![self.parse_simple_statement()?];
        while self.eat_op(";") {
            if matches!(self.peek(), Tok::Newline | Tok::Eof) {
                break;
            }
            out.push(self.parse_simple_statement()?);
        }
        if !matches!(self.peek(), Tok::Newline | Tok::Eof | Tok::Dedent) {
            return Err(self.unexpected("expected end of statement"));
        }
        if matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
        Ok(out)
    }

    fn parse_simple_statement(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        let node = match self.peek().clone() {
            Tok::Name(n) => match n.as_str() {
                "return" => {
                    self.bump();
                    let mut kids = Vec::new();
                    if !matches!(self.peek(), Tok::Newline | Tok::Eof | Tok::Dedent)
                        && !matches!(self.peek(), Tok::Op(";"))
                    {
                        kids.push(self.parse_expr_or_tuple()?);
                    }
                    self.ast.non_terminal(vocab::return_stmt(), kids)
                }
                "pass" => {
                    self.bump();
                    self.ast.non_terminal(vocab::pass_stmt(), vec![])
                }
                "break" => {
                    self.bump();
                    self.ast.non_terminal(vocab::break_stmt(), vec![])
                }
                "continue" => {
                    self.bump();
                    self.ast.non_terminal(vocab::continue_stmt(), vec![])
                }
                "raise" => {
                    self.bump();
                    let mut kids = Vec::new();
                    if !matches!(self.peek(), Tok::Newline | Tok::Eof | Tok::Dedent) {
                        kids.push(self.parse_expr()?);
                        if self.eat_kw("from") {
                            kids.push(self.parse_expr()?);
                        }
                    }
                    self.ast.non_terminal(vocab::raise_stmt(), kids)
                }
                "assert" => {
                    self.bump();
                    let mut kids = vec![self.parse_expr()?];
                    if self.eat_op(",") {
                        kids.push(self.parse_expr()?);
                    }
                    self.ast.non_terminal(vocab::assert_stmt(), kids)
                }
                "del" => {
                    self.bump();
                    let e = self.parse_expr()?;
                    self.ast.non_terminal(vocab::del_stmt(), vec![e])
                }
                "global" | "nonlocal" => {
                    self.bump();
                    let mut kids = Vec::new();
                    loop {
                        let (name, nline) = self.expect_name()?;
                        kids.push(self.name_node(
                            vocab::name_load(),
                            &name,
                            NameRole::Object,
                            nline,
                        ));
                        if !self.eat_op(",") {
                            break;
                        }
                    }
                    self.ast.non_terminal(vocab::global_stmt(), kids)
                }
                "import" => self.parse_import()?,
                "from" => self.parse_import_from()?,
                "yield" => {
                    self.bump();
                    let mut kids = Vec::new();
                    if self.eat_kw("from") {
                        kids.push(self.parse_expr()?);
                    } else if !matches!(self.peek(), Tok::Newline | Tok::Eof | Tok::Dedent) {
                        kids.push(self.parse_expr_or_tuple()?);
                    }
                    let y = self.ast.non_terminal(sym!("Yield"), kids);
                    self.ast.non_terminal(vocab::expr_stmt(), vec![y])
                }
                _ => self.parse_expr_statement()?,
            },
            _ => self.parse_expr_statement()?,
        };
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_import(&mut self) -> Result<NodeId, ParseError> {
        self.expect_kw("import")?;
        let mut kids = Vec::new();
        loop {
            let target = self.parse_dotted_name()?;
            if self.eat_kw("as") {
                let (alias, aline) = self.expect_name()?;
                let alias_node = self.name_node(vocab::name_store(), &alias, NameRole::Object, aline);
                let a = self.ast.non_terminal(vocab::alias(), vec![target, alias_node]);
                kids.push(a);
            } else {
                kids.push(target);
            }
            if !self.eat_op(",") {
                break;
            }
        }
        Ok(self.ast.non_terminal(vocab::import_stmt(), kids))
    }

    fn parse_import_from(&mut self) -> Result<NodeId, ParseError> {
        self.expect_kw("from")?;
        // Relative imports: leading dots.
        while self.eat_op(".") {}
        let module = if self.at_kw("import") {
            let term = self.ast.terminal(sym!("."), TermKind::Other);
            self.ast.non_terminal(vocab::name_load(), vec![term])
        } else {
            self.parse_dotted_name()?
        };
        self.expect_kw("import")?;
        let mut kids = vec![module];
        if self.eat_op("*") {
            let star = self.op_term("*");
            kids.push(star);
            return Ok(self.ast.non_terminal(vocab::import_from(), kids));
        }
        let parenthesised = self.eat_op("(");
        loop {
            let (name, nline) = self.expect_name()?;
            let target = self.name_node(vocab::name_store(), &name, NameRole::Object, nline);
            if self.eat_kw("as") {
                let (alias, aline) = self.expect_name()?;
                let alias_node = self.name_node(vocab::name_store(), &alias, NameRole::Object, aline);
                let a = self.ast.non_terminal(vocab::alias(), vec![target, alias_node]);
                kids.push(a);
            } else {
                kids.push(target);
            }
            if !self.eat_op(",") {
                break;
            }
            if parenthesised && matches!(self.peek(), Tok::Op(")")) {
                break;
            }
        }
        if parenthesised {
            self.expect_op(")")?;
        }
        Ok(self.ast.non_terminal(vocab::import_from(), kids))
    }

    fn parse_dotted_name(&mut self) -> Result<NodeId, ParseError> {
        let (first, line) = self.expect_name()?;
        let mut node = self.name_node(vocab::name_load(), &first, NameRole::Object, line);
        while self.eat_op(".") {
            let (next, nline) = self.expect_name()?;
            let attr = self.name_node(vocab::attr(), &next, NameRole::Object, nline);
            node = self
                .ast
                .non_terminal(vocab::attribute_load(), vec![node, attr]);
        }
        Ok(node)
    }

    fn parse_expr_statement(&mut self) -> Result<NodeId, ParseError> {
        let first = self.parse_expr_or_tuple()?;
        // Augmented assignment.
        for op in [
            "+=", "-=", "*=", "/=", "//=", "%=", "**=", "&=", "|=", "^=", ">>=", "<<=",
        ] {
            if matches!(self.peek(), Tok::Op(o) if *o == op) {
                self.bump();
                let target = self.make_store(first);
                let op_node = self.op_term(op);
                let value = self.parse_expr_or_tuple()?;
                return Ok(self
                    .ast
                    .non_terminal(vocab::aug_assign(), vec![target, op_node, value]));
            }
        }
        if self.eat_op("=") {
            let mut targets = vec![self.make_store(first)];
            let mut value = self.parse_expr_or_tuple()?;
            // Chained assignment a = b = expr: rightmost is the value.
            while self.eat_op("=") {
                targets.push(self.make_store(value));
                value = self.parse_expr_or_tuple()?;
            }
            targets.push(value);
            return Ok(self.ast.non_terminal(vocab::assign(), targets));
        }
        // Annotated assignment `x: T = v` — only at statement level.
        if self.eat_op(":") {
            let ty = self.parse_expr()?;
            let target = self.make_store(first);
            let mut kids = vec![target, ty];
            if self.eat_op("=") {
                kids.push(self.parse_expr_or_tuple()?);
            }
            return Ok(self.ast.non_terminal(vocab::assign(), kids));
        }
        Ok(self.ast.non_terminal(vocab::expr_stmt(), vec![first]))
    }

    /// Rewrites a load-position expression into store position
    /// (`NameLoad` → `NameStore`, `AttributeLoad` → `AttributeStore`).
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
        } else if v == vocab::tuple_lit() || v == vocab::list_lit() {
            let kids: Vec<NodeId> = self
                .ast
                .children(node)
                .to_vec()
                .into_iter()
                .map(|c| self.make_store(c))
                .collect();
            self.ast.non_terminal(v, kids)
        } else {
            node
        }
    }

    fn parse_def(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("def")?;
        let (name, nline) = self.expect_name()?;
        let name_node = self.name_node(vocab::name_store(), &name, NameRole::Function, nline);
        self.expect_op("(")?;
        let mut params = Vec::new();
        while !matches!(self.peek(), Tok::Op(")")) {
            let wrapper = if self.eat_op("**") {
                vocab::kw_param()
            } else if self.eat_op("*") {
                if matches!(self.peek(), Tok::Op(",")) {
                    // Bare `*` separator for keyword-only params.
                    self.eat_op(",");
                    continue;
                }
                vocab::star_param()
            } else {
                vocab::param()
            };
            let (pname, pline) = self.expect_name()?;
            let pnode = self.name_node(vocab::name_param(), &pname, NameRole::Object, pline);
            let mut kids = vec![pnode];
            if self.eat_op(":") {
                kids.push(self.parse_expr()?);
            }
            if self.eat_op("=") {
                kids.push(self.parse_expr()?);
            }
            params.push(self.ast.non_terminal(wrapper, kids));
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op(")")?;
        if self.eat_op("->") {
            let _ret = self.parse_expr()?;
        }
        let params_node = self.ast.non_terminal(vocab::params(), params);
        let body = self.parse_suite()?;
        let mut kids = vec![name_node, params_node];
        kids.extend(body);
        let def = self.ast.non_terminal(vocab::function_def(), kids);
        self.ast.set_line(def, line);
        Ok(def)
    }

    fn parse_class(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("class")?;
        let (name, nline) = self.expect_name()?;
        let name_node = self.name_node(vocab::name_store(), &name, NameRole::Type, nline);
        let mut bases = Vec::new();
        if self.eat_op("(") {
            while !matches!(self.peek(), Tok::Op(")")) {
                // Skip metaclass= keyword bases.
                if let Tok::Name(n) = self.peek().clone() {
                    if !KEYWORDS.contains(&n.as_str())
                        && matches!(self.toks.get(self.pos + 1).map(|s| &s.tok), Some(Tok::Op("=")))
                    {
                        self.bump();
                        self.bump();
                        let _ = self.parse_expr()?;
                        if !self.eat_op(",") {
                            break;
                        }
                        continue;
                    }
                }
                let base = self.parse_expr()?;
                self.mark_type_role(base);
                bases.push(base);
                if !self.eat_op(",") {
                    break;
                }
            }
            self.expect_op(")")?;
        }
        let bases_node = self.ast.non_terminal(vocab::bases(), bases);
        let body = self.parse_suite()?;
        let mut kids = vec![name_node, bases_node];
        kids.extend(body);
        let class = self.ast.non_terminal(vocab::class_def(), kids);
        self.ast.set_line(class, line);
        Ok(class)
    }

    fn mark_type_role(&mut self, node: NodeId) {
        if self.ast.value(node) == vocab::name_load() {
            if let Some(&term) = self.ast.children(node).first() {
                self.ast.set_role(term, NameRole::Type);
            }
        }
    }

    fn parse_if(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("if")?;
        let cond = self.parse_expr()?;
        let body = self.parse_suite()?;
        let body_node = self.ast.non_terminal(sym!("Body"), body);
        let mut kids = vec![cond, body_node];
        self.eat_newlines();
        if self.at_kw("elif") {
            self.bump();
            // Desugar elif into a nested if inside the else branch.
            self.pos -= 1;
            self.toks[self.pos] = Spanned {
                tok: Tok::Name("if".into()),
                line: self.line(),
            };
            let nested = self.parse_if()?;
            let or_else = self.ast.non_terminal(sym!("OrElse"), vec![nested]);
            kids.push(or_else);
        } else if self.at_kw("else") {
            self.bump();
            let else_body = self.parse_suite()?;
            let or_else = self.ast.non_terminal(sym!("OrElse"), else_body);
            kids.push(or_else);
        }
        let node = self.ast.non_terminal(vocab::if_stmt(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_while(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("while")?;
        let cond = self.parse_expr()?;
        let body = self.parse_suite()?;
        let body_node = self.ast.non_terminal(sym!("Body"), body);
        let mut kids = vec![cond, body_node];
        self.eat_newlines();
        if self.at_kw("else") {
            self.bump();
            let else_body = self.parse_suite()?;
            kids.push(self.ast.non_terminal(sym!("OrElse"), else_body));
        }
        let node = self.ast.non_terminal(vocab::while_stmt(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_for(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("for")?;
        let target = self.parse_expr_or_tuple_no_in()?;
        let target = self.make_store(target);
        self.expect_kw("in")?;
        let iter = self.parse_expr_or_tuple()?;
        let body = self.parse_suite()?;
        let body_node = self.ast.non_terminal(sym!("Body"), body);
        let mut kids = vec![target, iter, body_node];
        self.eat_newlines();
        if self.at_kw("else") {
            self.bump();
            let else_body = self.parse_suite()?;
            kids.push(self.ast.non_terminal(sym!("OrElse"), else_body));
        }
        let node = self.ast.non_terminal(vocab::for_stmt(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_with(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("with")?;
        let mut kids = Vec::new();
        loop {
            let ctx = self.parse_expr()?;
            kids.push(ctx);
            if self.eat_kw("as") {
                let target = self.parse_expr()?;
                kids.push(self.make_store(target));
            }
            if !self.eat_op(",") {
                break;
            }
        }
        let body = self.parse_suite()?;
        kids.push(self.ast.non_terminal(sym!("Body"), body));
        let node = self.ast.non_terminal(vocab::with_stmt(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    fn parse_try(&mut self) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_kw("try")?;
        let body = self.parse_suite()?;
        let mut kids = vec![self.ast.non_terminal(sym!("Body"), body)];
        loop {
            self.eat_newlines();
            if self.at_kw("except") {
                self.bump();
                let hline = self.line();
                let mut hkids = Vec::new();
                if !matches!(self.peek(), Tok::Op(":")) {
                    let exc = self.parse_expr()?;
                    self.mark_type_role(exc);
                    hkids.push(exc);
                    if self.eat_kw("as") {
                        let (name, nline) = self.expect_name()?;
                        hkids.push(self.name_node(
                            vocab::name_store(),
                            &name,
                            NameRole::Object,
                            nline,
                        ));
                    }
                }
                let hbody = self.parse_suite()?;
                hkids.push(self.ast.non_terminal(sym!("Body"), hbody));
                let h = self.ast.non_terminal(vocab::handler(), hkids);
                self.ast.set_line(h, hline);
                kids.push(h);
            } else if self.at_kw("finally") {
                self.bump();
                let fbody = self.parse_suite()?;
                kids.push(self.ast.non_terminal(sym!("Finally"), fbody));
                break;
            } else if self.at_kw("else") {
                self.bump();
                let ebody = self.parse_suite()?;
                kids.push(self.ast.non_terminal(sym!("OrElse"), ebody));
            } else {
                break;
            }
        }
        let node = self.ast.non_terminal(vocab::try_stmt(), kids);
        self.ast.set_line(node, line);
        Ok(node)
    }

    // ----- expressions ------------------------------------------------------

    fn parse_expr_or_tuple(&mut self) -> Result<NodeId, ParseError> {
        let first = self.parse_expr()?;
        if matches!(self.peek(), Tok::Op(",")) {
            let mut items = vec![first];
            while self.eat_op(",") {
                if matches!(
                    self.peek(),
                    Tok::Newline | Tok::Eof | Tok::Dedent | Tok::Op(")") | Tok::Op("]") | Tok::Op("}") | Tok::Op("=") | Tok::Op(":")
                ) {
                    break;
                }
                items.push(self.parse_expr()?);
            }
            return Ok(self.ast.non_terminal(vocab::tuple_lit(), items));
        }
        Ok(first)
    }

    fn parse_expr_or_tuple_no_in(&mut self) -> Result<NodeId, ParseError> {
        // `for a, b in …`: parse comma-separated unary targets without
        // consuming the `in` keyword.
        let first = self.parse_postfix()?;
        if matches!(self.peek(), Tok::Op(",")) {
            let mut items = vec![first];
            while self.eat_op(",") {
                if self.at_kw("in") {
                    break;
                }
                items.push(self.parse_postfix()?);
            }
            return Ok(self.ast.non_terminal(vocab::tuple_lit(), items));
        }
        Ok(first)
    }

    fn parse_expr(&mut self) -> Result<NodeId, ParseError> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<NodeId, ParseError> {
        let body = self.parse_or()?;
        if self.at_kw("if") {
            self.bump();
            let cond = self.parse_or()?;
            self.expect_kw("else")?;
            let orelse = self.parse_expr()?;
            return Ok(self
                .ast
                .non_terminal(vocab::ternary(), vec![cond, body, orelse]));
        }
        Ok(body)
    }

    fn parse_or(&mut self) -> Result<NodeId, ParseError> {
        let mut left = self.parse_and()?;
        while self.at_kw("or") {
            self.bump();
            let op = self.op_term("or");
            let right = self.parse_and()?;
            left = self.ast.non_terminal(vocab::bool_op(), vec![left, op, right]);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<NodeId, ParseError> {
        let mut left = self.parse_not()?;
        while self.at_kw("and") {
            self.bump();
            let op = self.op_term("and");
            let right = self.parse_not()?;
            left = self.ast.non_terminal(vocab::bool_op(), vec![left, op, right]);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<NodeId, ParseError> {
        if self.at_kw("not") {
            self.bump();
            let op = self.op_term("not");
            let operand = self.parse_not()?;
            return Ok(self.ast.non_terminal(vocab::unary_op(), vec![op, operand]));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<NodeId, ParseError> {
        let mut left = self.parse_bitor()?;
        loop {
            let op: Option<String> = match self.peek() {
                Tok::Op(o @ ("==" | "!=" | "<" | ">" | "<=" | ">=")) => Some((*o).to_owned()),
                Tok::Name(n) if n == "in" => Some("in".to_owned()),
                Tok::Name(n) if n == "is" => Some("is".to_owned()),
                Tok::Name(n) if n == "not" => Some("not in".to_owned()),
                _ => None,
            };
            let Some(op) = op else { break };
            self.bump();
            if op == "not in" {
                self.expect_kw("in")?;
            }
            if op == "is" {
                self.eat_kw("not");
            }
            let op_node = self.op_term(&op);
            let right = self.parse_bitor()?;
            left = self
                .ast
                .non_terminal(vocab::compare(), vec![left, op_node, right]);
        }
        Ok(left)
    }

    fn parse_bitor(&mut self) -> Result<NodeId, ParseError> {
        self.parse_binary_level(0)
    }

    /// Binary operator precedence climbing over the arithmetic/bitwise tiers.
    fn parse_binary_level(&mut self, level: usize) -> Result<NodeId, ParseError> {
        const LEVELS: &[&[&str]] = &[
            &["|"],
            &["^"],
            &["&"],
            &["<<", ">>"],
            &["+", "-"],
            &["*", "/", "//", "%", "@"],
        ];
        if level >= LEVELS.len() {
            return self.parse_unary();
        }
        let mut left = self.parse_binary_level(level + 1)?;
        loop {
            let matched = match self.peek() {
                Tok::Op(o) => LEVELS[level].iter().find(|&&c| c == *o).copied(),
                _ => None,
            };
            let Some(op) = matched else { break };
            self.bump();
            let op_node = self.op_term(op);
            let right = self.parse_binary_level(level + 1)?;
            left = self
                .ast
                .non_terminal(vocab::bin_op(), vec![left, op_node, right]);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<NodeId, ParseError> {
        for op in ["-", "+", "~"] {
            if matches!(self.peek(), Tok::Op(o) if *o == op) {
                self.bump();
                let op_node = self.op_term(op);
                let operand = self.parse_unary()?;
                return Ok(self
                    .ast
                    .non_terminal(vocab::unary_op(), vec![op_node, operand]));
            }
        }
        self.parse_power()
    }

    fn parse_power(&mut self) -> Result<NodeId, ParseError> {
        let base = self.parse_postfix()?;
        if self.eat_op("**") {
            let op_node = self.op_term("**");
            let exp = self.parse_unary()?;
            return Ok(self
                .ast
                .non_terminal(vocab::bin_op(), vec![base, op_node, exp]));
        }
        Ok(base)
    }

    fn parse_postfix(&mut self) -> Result<NodeId, ParseError> {
        let mut node = self.parse_atom()?;
        loop {
            if self.eat_op(".") {
                let (name, nline) = self.expect_name()?;
                let attr = self.name_node(vocab::attr(), &name, NameRole::Object, nline);
                node = self
                    .ast
                    .non_terminal(vocab::attribute_load(), vec![node, attr]);
                self.ast.set_line(node, nline);
            } else if matches!(self.peek(), Tok::Op("(")) {
                node = self.parse_call(node)?;
            } else if self.eat_op("[") {
                let index = if matches!(self.peek(), Tok::Op(":")) {
                    self.parse_slice_tail(None)?
                } else {
                    let first = self.parse_expr()?;
                    if matches!(self.peek(), Tok::Op(":")) {
                        self.parse_slice_tail(Some(first))?
                    } else {
                        first
                    }
                };
                self.expect_op("]")?;
                node = self.ast.non_terminal(vocab::subscript(), vec![node, index]);
            } else {
                break;
            }
        }
        Ok(node)
    }

    fn parse_slice_tail(&mut self, first: Option<NodeId>) -> Result<NodeId, ParseError> {
        let mut kids = Vec::new();
        if let Some(f) = first {
            kids.push(f);
        }
        while self.eat_op(":") {
            if !matches!(self.peek(), Tok::Op("]") | Tok::Op(":")) {
                kids.push(self.parse_expr()?);
            }
        }
        Ok(self.ast.non_terminal(vocab::slice(), kids))
    }

    fn parse_call(&mut self, callee: NodeId) -> Result<NodeId, ParseError> {
        let line = self.line();
        self.expect_op("(")?;
        // Mark the callee's name terminal as a function reference.
        self.mark_callee(callee);
        let mut kids = vec![callee];
        while !matches!(self.peek(), Tok::Op(")")) {
            if self.eat_op("**") {
                let value = self.parse_expr()?;
                kids.push(self.ast.non_terminal(vocab::double_starred(), vec![value]));
            } else if self.eat_op("*") {
                let value = self.parse_expr()?;
                kids.push(self.ast.non_terminal(vocab::starred(), vec![value]));
            } else if let Tok::Name(n) = self.peek().clone() {
                if !KEYWORDS.contains(&n.as_str())
                    && matches!(self.toks.get(self.pos + 1).map(|s| &s.tok), Some(Tok::Op("=")))
                {
                    self.bump();
                    self.bump();
                    let kline = self.line();
                    let key = self.ast.terminal(&*n, TermKind::Ident);
                    self.ast.set_line(key, kline);
                    let value = self.parse_expr()?;
                    kids.push(self.ast.non_terminal(vocab::keyword_arg(), vec![key, value]));
                } else {
                    let arg = self.parse_expr()?;
                    kids.push(self.maybe_generator(arg)?);
                }
            } else {
                let arg = self.parse_expr()?;
                kids.push(self.maybe_generator(arg)?);
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

    /// Handles a bare generator expression argument: `f(x for x in xs)`.
    fn maybe_generator(&mut self, elt: NodeId) -> Result<NodeId, ParseError> {
        if self.at_kw("for") {
            return self.parse_comprehension_tail(elt);
        }
        Ok(elt)
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

    fn parse_comprehension_tail(&mut self, elt: NodeId) -> Result<NodeId, ParseError> {
        let mut kids = vec![elt];
        while self.at_kw("for") {
            self.bump();
            let target = self.parse_expr_or_tuple_no_in()?;
            kids.push(self.make_store(target));
            self.expect_kw("in")?;
            kids.push(self.parse_or()?);
            while self.at_kw("if") {
                self.bump();
                kids.push(self.parse_or()?);
            }
        }
        Ok(self.ast.non_terminal(vocab::comprehension(), kids))
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
                // Adjacent string literal concatenation.
                let mut full = s;
                while let Tok::Str(next) = self.peek().clone() {
                    self.bump();
                    full.push_str(&next);
                }
                let term = self.ast.terminal(&*full, TermKind::Str);
                self.ast.set_line(term, line);
                self.ast.non_terminal(vocab::str_lit(), vec![term])
            }
            Tok::Name(n) => match n.as_str() {
                "True" | "False" => {
                    self.bump();
                    let term = self.ast.terminal(&*n, TermKind::Bool);
                    self.ast.non_terminal(vocab::bool_lit(), vec![term])
                }
                "None" => {
                    self.bump();
                    let term = self.ast.terminal(sym!("None"), TermKind::Null);
                    self.ast.non_terminal(vocab::none_lit(), vec![term])
                }
                "lambda" => {
                    self.bump();
                    let mut params = Vec::new();
                    while !matches!(self.peek(), Tok::Op(":")) {
                        let wrapper = if self.eat_op("**") {
                            vocab::kw_param()
                        } else if self.eat_op("*") {
                            vocab::star_param()
                        } else {
                            vocab::param()
                        };
                        let (pname, pline) = self.expect_name()?;
                        let pnode =
                            self.name_node(vocab::name_param(), &pname, NameRole::Object, pline);
                        let mut kids = vec![pnode];
                        if self.eat_op("=") {
                            kids.push(self.parse_expr()?);
                        }
                        params.push(self.ast.non_terminal(wrapper, kids));
                        if !self.eat_op(",") {
                            break;
                        }
                    }
                    self.expect_op(":")?;
                    let params_node = self.ast.non_terminal(vocab::params(), params);
                    let body = self.parse_expr()?;
                    self.ast.non_terminal(vocab::lambda(), vec![params_node, body])
                }
                "await" | "yield" => {
                    self.bump();
                    let inner = self.parse_expr()?;
                    self.ast.non_terminal(sym!("Await"), vec![inner])
                }
                "not" => {
                    // `not` may appear here through parse_postfix from targets.
                    self.bump();
                    let op = self.op_term("not");
                    let operand = self.parse_not()?;
                    self.ast.non_terminal(vocab::unary_op(), vec![op, operand])
                }
                _ if KEYWORDS.contains(&n.as_str()) => {
                    return Err(self.unexpected("unexpected keyword in expression"));
                }
                _ => {
                    self.bump();
                    let term = self.ast.terminal(&*n, TermKind::Ident);
                    self.ast.set_role(term, NameRole::Object);
                    self.ast.set_line(term, line);
                    let node = self.ast.non_terminal(vocab::name_load(), vec![term]);
                    self.ast.set_line(node, line);
                    node
                }
            },
            Tok::Op("(") => {
                self.bump();
                if self.eat_op(")") {
                    self.ast.non_terminal(vocab::tuple_lit(), vec![])
                } else {
                    let first = self.parse_expr()?;
                    if self.at_kw("for") {
                        let comp = self.parse_comprehension_tail(first)?;
                        self.expect_op(")")?;
                        comp
                    } else if matches!(self.peek(), Tok::Op(",")) {
                        let mut items = vec![first];
                        while self.eat_op(",") {
                            if matches!(self.peek(), Tok::Op(")")) {
                                break;
                            }
                            items.push(self.parse_expr()?);
                        }
                        self.expect_op(")")?;
                        self.ast.non_terminal(vocab::tuple_lit(), items)
                    } else {
                        self.expect_op(")")?;
                        first
                    }
                }
            }
            Tok::Op("[") => {
                self.bump();
                let mut items = Vec::new();
                if !matches!(self.peek(), Tok::Op("]")) {
                    let first = self.parse_expr()?;
                    if self.at_kw("for") {
                        let comp = self.parse_comprehension_tail(first)?;
                        self.expect_op("]")?;
                        return Ok(comp);
                    }
                    items.push(first);
                    while self.eat_op(",") {
                        if matches!(self.peek(), Tok::Op("]")) {
                            break;
                        }
                        items.push(self.parse_expr()?);
                    }
                }
                self.expect_op("]")?;
                self.ast.non_terminal(vocab::list_lit(), items)
            }
            Tok::Op("{") => {
                self.bump();
                let mut items = Vec::new();
                let mut is_dict = true;
                if !matches!(self.peek(), Tok::Op("}")) {
                    let first = if self.eat_op("**") {
                        let v = self.parse_expr()?;
                        self.ast.non_terminal(vocab::double_starred(), vec![v])
                    } else {
                        self.parse_expr()?
                    };
                    if self.eat_op(":") {
                        let value = self.parse_expr()?;
                        if self.at_kw("for") {
                            let pair = self.ast.non_terminal(vocab::tuple_lit(), vec![first, value]);
                            let comp = self.parse_comprehension_tail(pair)?;
                            self.expect_op("}")?;
                            return Ok(comp);
                        }
                        items.push(first);
                        items.push(value);
                    } else {
                        if self.at_kw("for") {
                            let comp = self.parse_comprehension_tail(first)?;
                            self.expect_op("}")?;
                            return Ok(comp);
                        }
                        is_dict = false;
                        items.push(first);
                    }
                    while self.eat_op(",") {
                        if matches!(self.peek(), Tok::Op("}")) {
                            break;
                        }
                        if self.eat_op("**") {
                            let v = self.parse_expr()?;
                            items.push(self.ast.non_terminal(vocab::double_starred(), vec![v]));
                            continue;
                        }
                        let k = self.parse_expr()?;
                        items.push(k);
                        if is_dict && self.eat_op(":") {
                            items.push(self.parse_expr()?);
                        }
                    }
                }
                self.expect_op("}")?;
                let kind = if is_dict {
                    vocab::dict_lit()
                } else {
                    vocab::set_lit()
                };
                self.ast.non_terminal(kind, items)
            }
            Tok::Op("*") => {
                self.bump();
                let inner = self.parse_expr()?;
                self.ast.non_terminal(vocab::starred(), vec![inner])
            }
            Tok::Op("...") => {
                self.bump();
                let term = self.ast.terminal(sym!("..."), TermKind::Other);
                self.ast.non_terminal(vocab::name_load(), vec![term])
            }
            _ => return Err(self.unexpected("expected expression")),
        };
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

    #[test]
    fn figure_2_statement_shape() {
        let s = sexp("self.assertTrue(picture.rotate_angle, 90)\n");
        assert_eq!(
            s,
            "(Module (ExprStmt (Call (AttributeLoad (NameLoad self) (Attr assertTrue)) \
             (AttributeLoad (NameLoad picture) (Attr rotate_angle)) (Num 90))))"
        );
    }

    #[test]
    fn assignment_shapes() {
        assert_eq!(
            sexp("x = 1\n"),
            "(Module (Assign (NameStore x) (Num 1)))"
        );
        assert_eq!(
            sexp("self.help = docstring\n"),
            "(Module (Assign (AttributeStore (NameLoad self) (Attr help)) (NameLoad docstring)))"
        );
    }

    #[test]
    fn aug_assign() {
        assert_eq!(
            sexp("count += 1\n"),
            "(Module (AugAssign (NameStore count) += (Num 1)))"
        );
    }

    #[test]
    fn function_def_with_kwargs() {
        let s = sexp("def evolve(self, a, **args):\n    pass\n");
        assert!(s.contains("(FunctionDef (NameStore evolve) (Params (Param (NameParam self)) (Param (NameParam a)) (KwParam (NameParam args))) (Pass))"), "{s}");
    }

    #[test]
    fn class_def_with_base() {
        let s = sexp("class TestPicture(TestCase):\n    pass\n");
        assert!(s.starts_with("(Module (ClassDef (NameStore TestPicture) (Bases (NameLoad TestCase))"), "{s}");
    }

    #[test]
    fn for_loop_header() {
        let s = sexp("for i in xrange(10):\n    pass\n");
        assert!(s.contains("(For (NameStore i) (Call (NameLoad xrange) (Num 10)) (Body (Pass)))"), "{s}");
    }

    #[test]
    fn if_elif_else_desugars() {
        let s = sexp("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n");
        assert!(s.contains("(OrElse (If (NameLoad b)"), "{s}");
    }

    #[test]
    fn try_except_as() {
        let s = sexp("try:\n    run()\nexcept ValueError as e:\n    pass\n");
        assert!(s.contains("(Handler (NameLoad ValueError) (NameStore e) (Body (Pass)))"), "{s}");
    }

    #[test]
    fn with_as_target() {
        let s = sexp("with open(path) as f:\n    pass\n");
        assert!(s.contains("(With (Call (NameLoad open) (NameLoad path)) (NameStore f) (Body (Pass)))"), "{s}");
    }

    #[test]
    fn keyword_arguments() {
        let s = sexp("f(a, key=1)\n");
        assert!(s.contains("(KeywordArg key (Num 1))"), "{s}");
    }

    #[test]
    fn star_args_at_call() {
        let s = sexp("f(*args, **kwargs)\n");
        assert!(s.contains("(Starred (NameLoad args))"), "{s}");
        assert!(s.contains("(DoubleStarred (NameLoad kwargs))"), "{s}");
    }

    #[test]
    fn chained_comparison_and_boolop() {
        let s = sexp("x = a < b and c == d\n");
        assert!(s.contains("BoolOp"), "{s}");
        assert!(s.contains("(Compare (NameLoad a) < (NameLoad b))"), "{s}");
    }

    #[test]
    fn comprehension() {
        let s = sexp("xs = [x * 2 for x in ys if x]\n");
        assert!(s.contains("Comprehension"), "{s}");
    }

    #[test]
    fn lambda_expression() {
        let s = sexp("f = lambda x: x + 1\n");
        assert!(s.contains("(Lambda (Params (Param (NameParam x))) (BinOp (NameLoad x) + (Num 1)))"), "{s}");
    }

    #[test]
    fn subscript_and_slice() {
        assert!(sexp("x = a[0]\n").contains("(Subscript (NameLoad a) (Num 0))"));
        assert!(sexp("x = a[1:2]\n").contains("(Slice (Num 1) (Num 2))"));
    }

    #[test]
    fn imports() {
        let s = sexp("import numpy as np\nfrom os.path import join, exists\n");
        assert!(s.contains("(Alias (NameLoad numpy) (NameStore np))"), "{s}");
        assert!(s.contains("(ImportFrom (AttributeLoad (NameLoad os) (Attr path)) (NameStore join) (NameStore exists))"), "{s}");
    }

    #[test]
    fn decorator_statement() {
        let s = sexp("@property\ndef f(self):\n    pass\n");
        assert!(s.contains("(Decorator (NameLoad property))"), "{s}");
    }

    #[test]
    fn chained_assignment() {
        let s = sexp("a = b = 1\n");
        assert!(s.contains("(Assign (NameStore a) (NameStore b) (Num 1))"), "{s}");
    }

    #[test]
    fn roles_are_assigned() {
        let ast = parse("self.assertTrue(x)\n").unwrap();
        let mut saw_function = false;
        let mut saw_object = false;
        for n in ast.iter() {
            if ast.is_terminal(n) {
                match ast.role(n) {
                    NameRole::Function => saw_function = ast.value(n).as_str() == "assertTrue",
                    NameRole::Object if ast.value(n).as_str() == "self" => saw_object = true,
                    _ => {}
                }
            }
        }
        assert!(saw_function && saw_object);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("def f(:\n").is_err());
        assert!(parse("x = = 1\n").is_err());
    }

    #[test]
    fn ternary_expression() {
        let s = sexp("x = a if c else b\n");
        assert!(s.contains("(Ternary (NameLoad c) (NameLoad a) (NameLoad b))"), "{s}");
    }

    #[test]
    fn return_tuple() {
        let s = sexp("def f():\n    return a, b\n");
        assert!(s.contains("(Return (TupleLit (NameLoad a) (NameLoad b)))"), "{s}");
    }

    #[test]
    fn nested_calls() {
        let s = sexp("self.sz = N.array(sz)\n");
        assert!(s.contains("(Assign (AttributeStore (NameLoad self) (Attr sz)) (Call (AttributeLoad (NameLoad N) (Attr array)) (NameLoad sz)))"), "{s}");
    }

    #[test]
    fn dict_literal() {
        let s = sexp("d = {'a': 1, 'b': 2}\n");
        assert!(s.contains("DictLit"), "{s}");
    }

    #[test]
    fn global_statement() {
        let s = sexp("def f():\n    global counter\n    counter = 1\n");
        assert!(s.contains("(Global (NameLoad counter))"), "{s}");
    }
}
