//! Lowering parsed files into the analysis IR.
//!
//! Each file is analysed in isolation (§4.1): every function and method is an
//! entry point, `self`/`this` is assumed to hold an instance whose origin is
//! the nearest *externally defined* base class (which is why Figure 2's
//! `self` gets origin `TestCase` rather than the file-local `TestPicture`),
//! imports bind module objects, and calls to functions defined outside the
//! file return fresh allocation sites labelled with the callee name.

use crate::ir::{Func, FuncId, Instr, Module, TermUse, Var};
use namer_syntax::{sym, vocab, Ast, Lang, NodeId, ReceiverStyle, Sym};
use std::collections::HashMap;

/// Field name used for container-element loads/stores.
pub fn elem_field() -> Sym {
    sym!("$elem")
}

/// The ⊤ origin label (never reported).
pub fn top_label() -> Sym {
    sym!("$top")
}

struct ClassInfo {
    bases: Vec<Sym>,
}

/// Lowers `ast` (a parsed file) to the analysis IR.
pub fn lower(ast: &Ast, lang: Lang) -> Module {
    let mut b = Builder {
        ast,
        lang,
        module: Module::default(),
        classes: HashMap::new(),
        free_funcs: HashMap::new(),
        method_funcs: HashMap::new(),
        module_env: HashMap::new(),
        next_site: 0,
    };
    b.collect(ast.root(), None);
    b.lower_all();
    b.module
}

struct Builder<'a> {
    ast: &'a Ast,
    lang: Lang,
    module: Module,
    classes: HashMap<Sym, ClassInfo>,
    /// module-level function name → (def node, FuncId)
    free_funcs: HashMap<Sym, (NodeId, FuncId)>,
    /// (class, method) → (def node, FuncId)
    method_funcs: HashMap<(Sym, Sym), (NodeId, FuncId)>,
    /// final version of module-level names (globals, imports)
    module_env: HashMap<Sym, Var>,
    next_site: u32,
}

/// Per-function lowering state.
struct FnCx {
    env: HashMap<Sym, Var>,
    param_inits: Vec<Instr>,
    instrs: Vec<Instr>,
    ret: Var,
    self_var: Option<Var>,
    self_class: Option<Sym>,
}

impl<'a> Builder<'a> {
    // ----- collection pass ---------------------------------------------------

    fn collect(&mut self, id: NodeId, enclosing_class: Option<Sym>) {
        let v = self.ast.value(id);
        if v == vocab::class_def() {
            let name = match self.declared_name(id) {
                Some(n) => n,
                None => return,
            };
            let mut bases = Vec::new();
            for &c in self.ast.children(id) {
                let cv = self.ast.value(c);
                if cv == vocab::bases() {
                    for &base in self.ast.children(c) {
                        if let Some(b) = self.base_name(base) {
                            bases.push(b);
                        }
                    }
                } else if self.is_def(cv) {
                    if let Some(m) = self.declared_name(c) {
                        let fid = self.reserve_func(m);
                        self.method_funcs.insert((name, m), (c, fid));
                    }
                } else {
                    self.collect(c, Some(name));
                }
            }
            self.classes.insert(name, ClassInfo { bases });
            return;
        }
        if self.is_def(v) && enclosing_class.is_none() {
            if let Some(name) = self.declared_name(id) {
                let fid = self.reserve_func(name);
                self.free_funcs.insert(name, (id, fid));
            }
            return;
        }
        for c in self.ast.children(id).to_vec() {
            self.collect(c, enclosing_class);
        }
    }

    fn is_def(&self, v: Sym) -> bool {
        v == vocab::function_def() || v == vocab::method_decl() || v == vocab::ctor_decl()
    }

    fn declared_name(&self, id: NodeId) -> Option<Sym> {
        self.ast
            .children(id)
            .iter()
            .find(|&&c| self.ast.value(c) == vocab::name_store())
            .and_then(|&c| self.ast.children(c).first())
            .map(|&t| self.ast.value(t))
    }

    fn base_name(&self, id: NodeId) -> Option<Sym> {
        let v = self.ast.value(id);
        if v == vocab::name_load() || v == vocab::type_ref() {
            self.ast.children(id).first().map(|&t| self.ast.value(t))
        } else if v == vocab::attribute_load() {
            // `module.Class` — take the attribute name.
            self.ast
                .children(id)
                .get(1)
                .and_then(|&a| self.ast.children(a).first())
                .map(|&t| self.ast.value(t))
        } else {
            None
        }
    }

    fn reserve_func(&mut self, name: Sym) -> FuncId {
        let id = FuncId(self.module.funcs.len() as u32);
        self.module.funcs.push(Func {
            name,
            params: Vec::new(),
            ret: Var(0),
            param_inits: Vec::new(),
            instrs: Vec::new(),
            entry: true,
        });
        id
    }

    /// The origin label for instances of in-file class `c`: the nearest
    /// externally defined base, or `c` itself for base-less classes.
    fn origin_class(&self, c: Sym) -> Sym {
        let mut current = c;
        let mut hops = 0;
        while hops < 16 {
            match self.classes.get(&current) {
                Some(info) => match info.bases.first() {
                    Some(&b) if b != current => {
                        current = b;
                        hops += 1;
                    }
                    _ => return current,
                },
                // Not defined in this file ⇒ external ⇒ canonical.
                None => return current,
            }
        }
        current
    }

    /// Looks a method up on `class` and its in-file ancestors.
    fn resolve_method(&self, class: Sym, method: Sym) -> Option<(Sym, FuncId)> {
        let mut current = class;
        let mut hops = 0;
        while hops < 16 {
            if let Some(&(_, fid)) = self.method_funcs.get(&(current, method)) {
                return Some((current, fid));
            }
            match self.classes.get(&current).and_then(|i| i.bases.first()) {
                Some(&b) if b != current => {
                    current = b;
                    hops += 1;
                }
                _ => return None,
            }
        }
        None
    }

    // ----- lowering pass -----------------------------------------------------

    fn lower_all(&mut self) {
        // Module body first, so functions can see final global versions.
        let module_fid = self.reserve_func(sym!("<module>"));
        let mut cx = self.new_cx();
        for c in self.ast.children(self.ast.root()).to_vec() {
            let v = self.ast.value(c);
            if v == vocab::class_def() || self.is_def(v) {
                continue;
            }
            self.lower_stmt(&mut cx, c);
        }
        self.module_env = cx.env.clone();
        self.finish_func(module_fid, cx, Vec::new());

        let free: Vec<(NodeId, FuncId)> = self.free_funcs.values().copied().collect();
        for (node, fid) in free {
            self.lower_def(node, fid, None);
        }
        let methods: Vec<(Sym, NodeId, FuncId)> = self
            .method_funcs
            .iter()
            .map(|(&(class, _), &(node, fid))| (class, node, fid))
            .collect();
        for (class, node, fid) in methods {
            self.lower_def(node, fid, Some(class));
        }
    }

    fn new_cx(&mut self) -> FnCx {
        let ret = self.module.fresh_var();
        FnCx {
            env: HashMap::new(),
            param_inits: Vec::new(),
            instrs: Vec::new(),
            ret,
            self_var: None,
            self_class: None,
        }
    }

    fn finish_func(&mut self, fid: FuncId, cx: FnCx, params: Vec<Var>) {
        let f = &mut self.module.funcs[fid.index()];
        f.params = params;
        f.ret = cx.ret;
        f.param_inits = cx.param_inits;
        f.instrs = cx.instrs;
    }

    fn lower_def(&mut self, node: NodeId, fid: FuncId, class: Option<Sym>) {
        let mut cx = self.new_cx();
        cx.self_class = class;
        let mut params = Vec::new();
        let children = self.ast.children(node).to_vec();
        let mut first_param = true;
        for &c in &children {
            if self.ast.value(c) != vocab::params() {
                continue;
            }
            for &p in self.ast.children(c).to_vec().iter() {
                let pv = self.lower_param(&mut cx, p, class, first_param);
                params.push(pv);
                first_param = false;
            }
        }
        // Languages with implicit receivers (Java, JavaScript) bind `this`
        // (and `super`) to the enclosing class's canonical origin.
        if self.lang.spec().receiver_style() == ReceiverStyle::ImplicitThis {
            if let Some(cls) = class {
                let this = self.module.fresh_var();
                let label = self.origin_class(cls);
                cx.param_inits.push(Instr::AllocShared { dst: this, label });
                cx.env.insert(sym!("this"), this);
                cx.env.insert(sym!("super"), this);
                cx.self_var = Some(this);
            }
        }
        for &c in &children {
            let v = self.ast.value(c);
            if v == vocab::name_store() || v == vocab::params() || v == vocab::type_ref() {
                continue;
            }
            self.lower_stmt(&mut cx, c);
        }
        self.finish_func(fid, cx, params);
    }

    fn lower_param(
        &mut self,
        cx: &mut FnCx,
        p: NodeId,
        class: Option<Sym>,
        is_first: bool,
    ) -> Var {
        let kids = self.ast.children(p).to_vec();
        let mut name_term = None;
        let mut declared_ty = None;
        for &k in &kids {
            let kv = self.ast.value(k);
            if kv == vocab::name_param() {
                name_term = self.ast.children(k).first().copied();
            } else if kv == vocab::type_ref() {
                declared_ty = self.ast.children(k).first().map(|&t| self.ast.value(t));
            }
        }
        let var = self.module.fresh_var();
        if let Some(t) = name_term {
            let name = self.ast.value(t);
            cx.env.insert(name, var);
            self.module.term_uses.push((t, TermUse::Object(var)));
            // First-param-receiver languages (Python's `self`): assume an
            // instance of the enclosing class's canonical origin.
            if is_first && self.lang.spec().receiver_style() == ReceiverStyle::FirstParamReceiver {
                if let Some(cls) = class {
                    let label = self.origin_class(cls);
                    cx.param_inits.push(Instr::AllocShared { dst: var, label });
                    cx.self_var = Some(var);
                    return var;
                }
            }
        }
        match declared_ty {
            // Java: a parameter's declared type is its origin.
            Some(ty) => cx.param_inits.push(Instr::Alloc { dst: var, label: ty }),
            None => cx.param_inits.push(Instr::Top { dst: var }),
        }
        var
    }

    // ----- statements ---------------------------------------------------------

    fn lower_stmt(&mut self, cx: &mut FnCx, id: NodeId) {
        let v = self.ast.value(id);
        let kids = self.ast.children(id).to_vec();
        if v == vocab::assign() {
            // Children: target…, value (last).
            if let Some((&value, targets)) = kids.split_last() {
                // Annotated assigns parse as [target, type, value?].
                let val = self.lower_expr(cx, value);
                for &t in targets {
                    if self.ast.value(t) == vocab::type_ref() {
                        continue;
                    }
                    self.lower_target(cx, t, val);
                }
            }
        } else if v == vocab::aug_assign() {
            // Modified after creation ⇒ ⊤ (paper §4.1).
            if let Some(&value) = kids.last() {
                let _ = self.lower_expr(cx, value);
            }
            let top = self.module.fresh_var();
            cx.instrs.push(Instr::Top { dst: top });
            if let Some(&t) = kids.first() {
                self.lower_target(cx, t, top);
            }
        } else if v == vocab::expr_stmt() || v == vocab::decorator() {
            for &c in &kids {
                let _ = self.lower_expr(cx, c);
            }
        } else if v == vocab::return_stmt() {
            if let Some(&e) = kids.first() {
                let val = self.lower_expr(cx, e);
                let ret = cx.ret;
                cx.instrs.push(Instr::Move { dst: ret, src: val });
            }
        } else if v == vocab::local_var() {
            self.lower_local_var(cx, &kids);
        } else if v == vocab::field_decl() {
            // Field initialisers run conceptually in the constructor; we do
            // not model them (fields read back as unknown).
        } else if v == vocab::import_stmt() {
            for &c in &kids {
                self.lower_import_target(cx, c);
            }
        } else if v == vocab::import_from() {
            let module_label = kids
                .first()
                .and_then(|&m| self.rightmost_name(m))
                .unwrap_or_else(|| sym!("module"));
            for &c in kids.iter().skip(1) {
                self.lower_from_import_name(cx, c, module_label);
            }
        } else if v == vocab::if_stmt() {
            self.lower_branch(cx, &kids);
        } else if v == vocab::while_stmt() || v == sym!("DoWhile") {
            self.lower_loop_generic(cx, &kids);
        } else if v == vocab::for_stmt() {
            self.lower_for(cx, &kids);
        } else if v == vocab::for_classic() {
            for &c in &kids {
                self.lower_stmt_list(cx, c);
            }
        } else if v == vocab::with_stmt() {
            self.lower_with(cx, &kids);
        } else if v == vocab::try_stmt() {
            for &c in &kids {
                let cv = self.ast.value(c);
                if cv == vocab::handler() {
                    self.lower_handler(cx, c);
                } else {
                    self.lower_stmt_list(cx, c);
                }
            }
        } else if v == vocab::handler() {
            self.lower_handler(cx, id);
        } else if self.is_def(v) || v == vocab::class_def() {
            // Nested definitions: bind the name to an opaque object.
            if let Some(name) = self.declared_name(id) {
                let var = self.module.fresh_var();
                let label = if v == vocab::class_def() {
                    sym!("type")
                } else {
                    sym!("function")
                };
                cx.instrs.push(Instr::Alloc { dst: var, label });
                cx.env.insert(name, var);
            }
        } else if v == vocab::raise_stmt()
            || v == vocab::throw_stmt()
            || v == vocab::assert_stmt()
            || v == vocab::del_stmt()
            || v == vocab::global_stmt()
        {
            for &c in &kids {
                let _ = self.lower_expr(cx, c);
            }
        } else {
            // Generic compound (Switch, Synchronized, Block…): visit children,
            // treating body-like children as statement lists.
            for &c in &kids {
                self.lower_stmt_list(cx, c);
            }
        }
    }

    /// Lowers a node that is either a statement-list wrapper (`Body`,
    /// `OrElse`, …) or a single statement/expression.
    fn lower_stmt_list(&mut self, cx: &mut FnCx, id: NodeId) {
        let v = self.ast.value(id);
        let wrappers = [
            sym!("Body"),
            sym!("OrElse"),
            sym!("Finally"),
            sym!("Init"),
            sym!("Cond"),
            sym!("Update"),
            sym!("Case"),
            sym!("Block"),
            sym!("Initializer"),
        ];
        if wrappers.contains(&v) {
            for c in self.ast.children(id).to_vec() {
                self.lower_stmt_or_expr(cx, c);
            }
        } else {
            self.lower_stmt_or_expr(cx, id);
        }
    }

    fn lower_stmt_or_expr(&mut self, cx: &mut FnCx, id: NodeId) {
        if self.is_stmt(self.ast.value(id)) {
            self.lower_stmt(cx, id);
        } else {
            let _ = self.lower_expr(cx, id);
        }
    }

    fn is_stmt(&self, v: Sym) -> bool {
        v == vocab::assign()
            || v == vocab::aug_assign()
            || v == vocab::expr_stmt()
            || v == vocab::return_stmt()
            || v == vocab::raise_stmt()
            || v == vocab::throw_stmt()
            || v == vocab::assert_stmt()
            || v == vocab::del_stmt()
            || v == vocab::global_stmt()
            || v == vocab::import_stmt()
            || v == vocab::import_from()
            || v == vocab::local_var()
            || v == vocab::field_decl()
            || v == vocab::if_stmt()
            || v == vocab::while_stmt()
            || v == vocab::for_stmt()
            || v == vocab::for_classic()
            || v == vocab::with_stmt()
            || v == vocab::try_stmt()
            || v == vocab::handler()
            || v == vocab::switch_stmt()
            || v == vocab::synchronized_stmt()
            || v == vocab::decorator()
            || v == vocab::class_def()
            || v == vocab::pass_stmt()
            || v == vocab::break_stmt()
            || v == vocab::continue_stmt()
            || v == sym!("DoWhile")
            || v == sym!("Block")
            || self.is_def(v)
    }

    fn lower_local_var(&mut self, cx: &mut FnCx, kids: &[NodeId]) {
        let mut declared_ty = None;
        let mut name_term = None;
        let mut init = None;
        for &k in kids {
            let kv = self.ast.value(k);
            if kv == vocab::type_ref() {
                declared_ty = self.ast.children(k).first().map(|&t| self.ast.value(t));
            } else if kv == vocab::name_store() {
                name_term = self.ast.children(k).first().copied();
            } else {
                init = Some(k);
            }
        }
        let var = self.module.fresh_var();
        match init {
            Some(e) => {
                let val = self.lower_expr(cx, e);
                cx.instrs.push(Instr::Move { dst: var, src: val });
            }
            None => match declared_ty {
                Some(ty) => cx.instrs.push(Instr::Alloc { dst: var, label: ty }),
                None => cx.instrs.push(Instr::Top { dst: var }),
            },
        }
        if let Some(t) = name_term {
            cx.env.insert(self.ast.value(t), var);
            self.module.term_uses.push((t, TermUse::Object(var)));
        }
    }

    fn lower_import_target(&mut self, cx: &mut FnCx, id: NodeId) {
        let v = self.ast.value(id);
        if v == vocab::alias() {
            // (Alias target asname): bind asname to the module object.
            let kids = self.ast.children(id).to_vec();
            let label = kids
                .first()
                .and_then(|&m| self.rightmost_name(m))
                .unwrap_or_else(|| sym!("module"));
            if let Some(&asname) = kids.get(1) {
                self.bind_alloc(cx, asname, label);
            }
        } else if v == vocab::name_load() || v == vocab::attribute_load() {
            // `import os.path` binds `os`.
            if let Some(first) = self.leftmost_name_term(id) {
                let label = self.ast.value(first);
                let var = self.module.fresh_var();
                cx.instrs.push(Instr::Alloc { dst: var, label });
                cx.env.insert(label, var);
                self.module.term_uses.push((first, TermUse::Object(var)));
            }
        }
    }

    fn lower_from_import_name(&mut self, cx: &mut FnCx, id: NodeId, module_label: Sym) {
        let v = self.ast.value(id);
        if v == vocab::alias() {
            if let Some(&asname) = self.ast.children(id).to_vec().get(1) {
                self.bind_alloc(cx, asname, module_label);
            }
        } else if v == vocab::name_store() {
            self.bind_alloc(cx, id, module_label);
        }
    }

    /// Binds the name under a `NameStore` wrapper to a fresh alloc.
    fn bind_alloc(&mut self, cx: &mut FnCx, store: NodeId, label: Sym) {
        if let Some(&t) = self.ast.children(store).first() {
            let name = self.ast.value(t);
            let var = self.module.fresh_var();
            cx.instrs.push(Instr::Alloc { dst: var, label });
            cx.env.insert(name, var);
            self.module.term_uses.push((t, TermUse::Object(var)));
        }
    }

    fn rightmost_name(&self, id: NodeId) -> Option<Sym> {
        let v = self.ast.value(id);
        if v == vocab::name_load() || v == vocab::name_store() {
            self.ast.children(id).first().map(|&t| self.ast.value(t))
        } else if v == vocab::attribute_load() {
            self.ast
                .children(id)
                .get(1)
                .and_then(|&a| self.ast.children(a).first())
                .map(|&t| self.ast.value(t))
        } else {
            None
        }
    }

    fn leftmost_name_term(&self, id: NodeId) -> Option<NodeId> {
        let v = self.ast.value(id);
        if v == vocab::name_load() || v == vocab::name_store() {
            self.ast.children(id).first().copied()
        } else if v == vocab::attribute_load() {
            self.ast
                .children(id)
                .first()
                .and_then(|&b| self.leftmost_name_term(b))
        } else {
            None
        }
    }

    fn lower_branch(&mut self, cx: &mut FnCx, kids: &[NodeId]) {
        // If [cond, Body, OrElse?]
        if let Some(&cond) = kids.first() {
            let _ = self.lower_expr(cx, cond);
        }
        let base_env = cx.env.clone();
        let mut branch_envs = Vec::new();
        for &c in kids.iter().skip(1) {
            cx.env = base_env.clone();
            self.lower_stmt_list(cx, c);
            branch_envs.push(cx.env.clone());
        }
        // Merge: names whose version differs across branches (or from the
        // base) get a fresh merge register fed by every version.
        cx.env = base_env.clone();
        let mut merged: HashMap<Sym, Vec<Var>> = HashMap::new();
        for env in &branch_envs {
            for (&name, &var) in env {
                merged.entry(name).or_default().push(var);
            }
        }
        // Implicit fall-through branch keeps the base version.
        let has_else = branch_envs.len() > 1;
        for (name, mut versions) in merged {
            if let Some(&base) = base_env.get(&name) {
                if !has_else {
                    versions.push(base);
                }
            }
            versions.sort();
            versions.dedup();
            if versions.len() == 1 {
                cx.env.insert(name, versions[0]);
            } else {
                let m = self.module.fresh_var();
                for v in versions {
                    cx.instrs.push(Instr::Move { dst: m, src: v });
                }
                cx.env.insert(name, m);
            }
        }
    }

    fn lower_loop_generic(&mut self, cx: &mut FnCx, kids: &[NodeId]) {
        if let Some(&cond) = kids.first() {
            let _ = self.lower_expr(cx, cond);
        }
        let base_env = cx.env.clone();
        for &c in kids.iter().skip(1) {
            self.lower_stmt_list(cx, c);
        }
        self.merge_loop_env(cx, base_env);
    }

    fn merge_loop_env(&mut self, cx: &mut FnCx, base_env: HashMap<Sym, Var>) {
        // After a loop, a name may hold its pre-loop or its in-loop version.
        let body_env = cx.env.clone();
        for (name, var) in body_env {
            match base_env.get(&name) {
                Some(&b) if b != var => {
                    let m = self.module.fresh_var();
                    cx.instrs.push(Instr::Move { dst: m, src: b });
                    cx.instrs.push(Instr::Move { dst: m, src: var });
                    cx.env.insert(name, m);
                }
                _ => {}
            }
        }
    }

    fn lower_for(&mut self, cx: &mut FnCx, kids: &[NodeId]) {
        // Python: For [target, iter, (Body…)]
        // Java enhanced: For [TypeRef, NameStore, iter, Body]
        let mut declared_ty = None;
        let mut target = None;
        let mut iter = None;
        let mut rest = Vec::new();
        for &k in kids {
            let kv = self.ast.value(k);
            if kv == vocab::type_ref() && declared_ty.is_none() {
                declared_ty = self.ast.children(k).first().map(|&t| self.ast.value(t));
            } else if target.is_none()
                && (kv == vocab::name_store() || kv == vocab::tuple_lit() || kv == vocab::list_lit())
            {
                target = Some(k);
            } else if iter.is_none() && target.is_some() {
                iter = Some(k);
            } else {
                rest.push(k);
            }
        }
        let iter_var = iter.map(|e| self.lower_expr(cx, e));
        if let (Some(t), Some(iv)) = (target, iter_var) {
            let elem = self.module.fresh_var();
            match declared_ty {
                // Java: the element's declared type is authoritative.
                Some(ty) => cx.instrs.push(Instr::Alloc { dst: elem, label: ty }),
                None => cx.instrs.push(Instr::Load {
                    dst: elem,
                    base: iv,
                    field: elem_field(),
                }),
            }
            self.lower_target(cx, t, elem);
        }
        let base_env = cx.env.clone();
        for &c in &rest {
            self.lower_stmt_list(cx, c);
        }
        self.merge_loop_env(cx, base_env);
    }

    fn lower_with(&mut self, cx: &mut FnCx, kids: &[NodeId]) {
        let mut pending: Option<Var> = None;
        for &k in kids {
            let kv = self.ast.value(k);
            if kv == vocab::name_store() || kv == vocab::tuple_lit() {
                if let Some(v) = pending.take() {
                    self.lower_target(cx, k, v);
                }
            } else if kv == sym!("Body") {
                self.lower_stmt_list(cx, k);
            } else {
                pending = Some(self.lower_expr(cx, k));
            }
        }
    }

    fn lower_handler(&mut self, cx: &mut FnCx, id: NodeId) {
        let kids = self.ast.children(id).to_vec();
        let mut exc_label = None;
        for &k in &kids {
            let kv = self.ast.value(k);
            if kv == vocab::type_ref() || kv == vocab::name_load() {
                if exc_label.is_none() {
                    exc_label = self.base_name(k);
                }
            } else if kv == vocab::name_store() {
                let label = exc_label.unwrap_or_else(|| sym!("Exception"));
                self.bind_alloc(cx, k, label);
            } else {
                self.lower_stmt_list(cx, k);
            }
        }
    }

    /// Assigns `val` into a store-position node, recording term uses.
    fn lower_target(&mut self, cx: &mut FnCx, target: NodeId, val: Var) {
        let v = self.ast.value(target);
        if v == vocab::name_store() || v == vocab::name_load() {
            if let Some(&t) = self.ast.children(target).first() {
                let name = self.ast.value(t);
                let var = self.module.fresh_var();
                cx.instrs.push(Instr::Move { dst: var, src: val });
                cx.env.insert(name, var);
                self.module.term_uses.push((t, TermUse::Object(var)));
            }
        } else if v == vocab::attribute_store() || v == vocab::attribute_load() {
            let kids = self.ast.children(target).to_vec();
            if let (Some(&base), Some(&attr)) = (kids.first(), kids.get(1)) {
                let b = self.lower_expr(cx, base);
                if let Some(&ft) = self.ast.children(attr).first() {
                    cx.instrs.push(Instr::Store {
                        base: b,
                        field: self.ast.value(ft),
                        src: val,
                    });
                }
            }
        } else if v == vocab::subscript() {
            if let Some(&base) = self.ast.children(target).first() {
                let b = self.lower_expr(cx, base);
                cx.instrs.push(Instr::Store {
                    base: b,
                    field: elem_field(),
                    src: val,
                });
            }
        } else if v == vocab::tuple_lit() || v == vocab::list_lit() {
            for &el in self.ast.children(target).to_vec().iter() {
                let part = self.module.fresh_var();
                cx.instrs.push(Instr::Load {
                    dst: part,
                    base: val,
                    field: elem_field(),
                });
                self.lower_target(cx, el, part);
            }
        }
        // Other targets (calls, literals) are not assignable; ignore.
    }

    // ----- expressions ----------------------------------------------------------

    fn lower_expr(&mut self, cx: &mut FnCx, id: NodeId) -> Var {
        let v = self.ast.value(id);
        let kids = self.ast.children(id).to_vec();
        if v == vocab::name_load() || v == vocab::name_store() {
            return self.lower_name_use(cx, id);
        }
        if v == vocab::attribute_load() || v == vocab::attribute_store() {
            let base = kids
                .first()
                .map(|&b| self.lower_expr(cx, b))
                .unwrap_or_else(|| self.fresh_top(cx));
            let dst = self.module.fresh_var();
            if let Some(&attr) = kids.get(1) {
                if let Some(&ft) = self.ast.children(attr).first() {
                    cx.instrs.push(Instr::Load {
                        dst,
                        base,
                        field: self.ast.value(ft),
                    });
                    return dst;
                }
            }
            cx.instrs.push(Instr::Top { dst });
            return dst;
        }
        if v == vocab::call() {
            return self.lower_call(cx, &kids);
        }
        if v == vocab::new_object() {
            return self.lower_new(cx, &kids);
        }
        if v == vocab::num() {
            return self.fresh_prim(cx, "Num");
        }
        if v == vocab::str_lit() {
            return self.fresh_prim(cx, "Str");
        }
        if v == vocab::bool_lit() {
            return self.fresh_prim(cx, "Bool");
        }
        if v == vocab::none_lit() {
            return self.fresh_prim(cx, "None");
        }
        if v == vocab::compare() || v == vocab::bool_op() || v == vocab::instance_of() {
            for &k in &kids {
                if !self.ast.is_terminal(k) {
                    let _ = self.lower_expr(cx, k);
                }
            }
            return self.fresh_prim(cx, "Bool");
        }
        if v == vocab::bin_op() || v == vocab::unary_op() || v == vocab::slice() {
            // Derived values: modified after creation ⇒ ⊤.
            for &k in &kids {
                if !self.ast.is_terminal(k) {
                    let _ = self.lower_expr(cx, k);
                }
            }
            return self.fresh_top(cx);
        }
        if v == vocab::subscript() {
            let base = kids
                .first()
                .map(|&b| self.lower_expr(cx, b))
                .unwrap_or_else(|| self.fresh_top(cx));
            for &k in kids.iter().skip(1) {
                let _ = self.lower_expr(cx, k);
            }
            let dst = self.module.fresh_var();
            cx.instrs.push(Instr::Load {
                dst,
                base,
                field: elem_field(),
            });
            return dst;
        }
        if v == vocab::ternary() {
            // [cond, then, else] — merge the two arms.
            let dst = self.module.fresh_var();
            if let Some(&c) = kids.first() {
                let _ = self.lower_expr(cx, c);
            }
            for &k in kids.iter().skip(1) {
                let arm = self.lower_expr(cx, k);
                cx.instrs.push(Instr::Move { dst, src: arm });
            }
            return dst;
        }
        if v == vocab::list_lit()
            || v == vocab::tuple_lit()
            || v == vocab::set_lit()
            || v == vocab::dict_lit()
            || v == vocab::comprehension()
        {
            let label = if v == vocab::dict_lit() {
                "dict"
            } else if v == vocab::tuple_lit() {
                "tuple"
            } else if v == vocab::set_lit() {
                "set"
            } else {
                "list"
            };
            let dst = self.module.fresh_var();
            cx.instrs.push(Instr::Alloc {
                dst,
                label: Sym::intern(label),
            });
            for &k in &kids {
                if !self.ast.is_terminal(k) {
                    let el = self.lower_expr(cx, k);
                    cx.instrs.push(Instr::Store {
                        base: dst,
                        field: elem_field(),
                        src: el,
                    });
                }
            }
            return dst;
        }
        if v == vocab::cast() {
            // Origin follows the value through a cast.
            return kids
                .get(1)
                .map(|&e| self.lower_expr(cx, e))
                .unwrap_or_else(|| self.fresh_top(cx));
        }
        if v == vocab::lambda() {
            let dst = self.module.fresh_var();
            cx.instrs.push(Instr::Alloc {
                dst,
                label: sym!("function"),
            });
            return dst;
        }
        if v == vocab::keyword_arg() || v == vocab::starred() || v == vocab::double_starred() {
            return kids
                .iter()
                .filter(|&&k| !self.ast.is_terminal(k))
                .map(|&k| self.lower_expr(cx, k))
                .last()
                .unwrap_or_else(|| self.fresh_top(cx));
        }
        // Anything else (Await, NewArray, MethodRef, …): lower children and
        // return ⊤ or a labelled alloc for NewArray.
        if v == vocab::new_array() {
            let dst = self.module.fresh_var();
            cx.instrs.push(Instr::Alloc {
                dst,
                label: sym!("array"),
            });
            return dst;
        }
        for &k in &kids {
            if !self.ast.is_terminal(k) {
                let _ = self.lower_expr(cx, k);
            }
        }
        self.fresh_top(cx)
    }

    fn lower_name_use(&mut self, cx: &mut FnCx, id: NodeId) -> Var {
        let t = match self.ast.children(id).first() {
            Some(&t) => t,
            None => return self.fresh_top(cx),
        };
        let name = self.ast.value(t);
        let var = if let Some(&v) = cx.env.get(&name) {
            v
        } else if let Some(&v) = self.module_env.get(&name) {
            v
        } else if self.classes.contains_key(&name) {
            // A class reference: a `type` object.
            let v = self.module.fresh_var();
            cx.instrs.push(Instr::Alloc {
                dst: v,
                label: sym!("type"),
            });
            v
        } else {
            let v = self.module.fresh_var();
            cx.instrs.push(Instr::Top { dst: v });
            cx.env.insert(name, v);
            v
        };
        self.module.term_uses.push((t, TermUse::Object(var)));
        var
    }

    fn lower_call(&mut self, cx: &mut FnCx, kids: &[NodeId]) -> Var {
        let callee = match kids.first() {
            Some(&c) => c,
            None => return self.fresh_top(cx),
        };
        let mut args = Vec::new();
        for &a in kids.iter().skip(1) {
            args.push(self.lower_expr(cx, a));
        }
        let cv = self.ast.value(callee);
        if cv == vocab::attribute_load() {
            // receiver.method(args)
            let ckids = self.ast.children(callee).to_vec();
            let recv = ckids
                .first()
                .map(|&b| self.lower_expr(cx, b))
                .unwrap_or_else(|| self.fresh_top(cx));
            let (mname_term, mname) = match ckids
                .get(1)
                .and_then(|&a| self.ast.children(a).first().copied())
            {
                Some(t) => (Some(t), self.ast.value(t)),
                None => (None, sym!("call")),
            };
            if let Some(t) = mname_term {
                self.module.term_uses.push((t, TermUse::FunctionRecv(recv)));
            }
            // Dispatch on `self`/`this` to in-file methods.
            if Some(recv) == cx.self_var {
                if let Some(class) = cx.self_class {
                    if let Some((_, fid)) = self.resolve_method(class, mname) {
                        let dst = self.module.fresh_var();
                        let mut call_args = vec![recv];
                        call_args.extend(args);
                        let site = self.fresh_site();
                        cx.instrs.push(Instr::Call {
                            dst: Some(dst),
                            func: fid,
                            site,
                            args: call_args,
                        });
                        return dst;
                    }
                }
            }
            // External method: fresh allocation site labelled by the callee.
            let dst = self.module.fresh_var();
            cx.instrs.push(Instr::Alloc { dst, label: mname });
            return dst;
        }
        if cv == vocab::name_load() {
            let fname_term = self.ast.children(callee).first().copied();
            let fname = fname_term
                .map(|t| self.ast.value(t))
                .unwrap_or_else(|| sym!("call"));
            if let Some(&(_, fid)) = self.free_funcs.get(&fname) {
                let dst = self.module.fresh_var();
                let site = self.fresh_site();
                cx.instrs.push(Instr::Call {
                    dst: Some(dst),
                    func: fid,
                    site,
                    args,
                });
                return dst;
            }
            if self.classes.contains_key(&fname) {
                // Constructor call: allocate, then run `__init__` if defined.
                let dst = self.module.fresh_var();
                let label = self.origin_class(fname);
                cx.instrs.push(Instr::Alloc { dst, label });
                if let Some((_, init)) = self.resolve_method(fname, sym!("__init__")) {
                    let mut call_args = vec![dst];
                    call_args.extend(args);
                    let site = self.fresh_site();
                    cx.instrs.push(Instr::Call {
                        dst: None,
                        func: init,
                        site,
                        args: call_args,
                    });
                }
                return dst;
            }
            // External function: fresh allocation labelled by the callee.
            let dst = self.module.fresh_var();
            cx.instrs.push(Instr::Alloc { dst, label: fname });
            return dst;
        }
        // Calling a complex expression: unknown result.
        let _ = self.lower_expr(cx, callee);
        self.fresh_top(cx)
    }

    fn lower_new(&mut self, cx: &mut FnCx, kids: &[NodeId]) -> Var {
        let ty = kids
            .first()
            .and_then(|&t| self.ast.children(t).first().copied())
            .map(|t| self.ast.value(t))
            .unwrap_or_else(|| sym!("Object"));
        let mut args = Vec::new();
        for &a in kids.iter().skip(1) {
            if !self.ast.is_terminal(a) {
                args.push(self.lower_expr(cx, a));
            }
        }
        let dst = self.module.fresh_var();
        let label = self.origin_class(ty);
        cx.instrs.push(Instr::Alloc { dst, label });
        if self.classes.contains_key(&ty) {
            if let Some((_, ctor)) = self.resolve_method(ty, ty) {
                let mut call_args = vec![dst];
                call_args.extend(args);
                let site = self.fresh_site();
                cx.instrs.push(Instr::Call {
                    dst: None,
                    func: ctor,
                    site,
                    args: call_args,
                });
            }
        }
        dst
    }

    fn fresh_top(&mut self, cx: &mut FnCx) -> Var {
        let v = self.module.fresh_var();
        cx.instrs.push(Instr::Top { dst: v });
        v
    }

    fn fresh_prim(&mut self, cx: &mut FnCx, label: &str) -> Var {
        let v = self.module.fresh_var();
        cx.instrs.push(Instr::Prim {
            dst: v,
            label: Sym::intern(label),
        });
        v
    }

    fn fresh_site(&mut self) -> u32 {
        let s = self.next_site;
        self.next_site += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use namer_syntax::python;

    fn lower_py(src: &str) -> Module {
        lower(&python::parse(src).unwrap(), Lang::Python)
    }

    #[test]
    fn module_function_is_created() {
        let m = lower_py("x = 1\n");
        assert!(m.funcs.iter().any(|f| f.name.as_str() == "<module>"));
    }

    #[test]
    fn self_gets_class_origin_alloc() {
        let m = lower_py("class C:\n    def m(self):\n        return self\n");
        let f = m.funcs.iter().find(|f| f.name.as_str() == "m").unwrap();
        assert!(f
            .param_inits
            .iter()
            .any(|i| matches!(i, Instr::AllocShared { label, .. } if label.as_str() == "C")));
    }

    #[test]
    fn self_origin_is_external_base() {
        let m = lower_py(
            "class Mid(TestCase):\n    pass\nclass C(Mid):\n    def m(self):\n        return self\n",
        );
        let f = m.funcs.iter().find(|f| f.name.as_str() == "m").unwrap();
        assert!(f
            .param_inits
            .iter()
            .any(|i| matches!(i, Instr::AllocShared { label, .. } if label.as_str() == "TestCase")));
    }

    #[test]
    fn external_call_allocs_with_callee_label() {
        let m = lower_py("f = open(path)\n");
        let f = m.funcs.iter().find(|f| f.name.as_str() == "<module>").unwrap();
        assert!(f
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Alloc { label, .. } if label.as_str() == "open")));
    }

    #[test]
    fn import_binds_module_object() {
        let m = lower_py("import numpy as np\n");
        let f = m.funcs.iter().find(|f| f.name.as_str() == "<module>").unwrap();
        assert!(f
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Alloc { label, .. } if label.as_str() == "numpy")));
    }

    #[test]
    fn direct_calls_are_resolved() {
        let m = lower_py("def helper(a):\n    return a\n\ndef use():\n    x = helper(1)\n");
        let f = m.funcs.iter().find(|f| f.name.as_str() == "use").unwrap();
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::Call { .. })));
    }

    #[test]
    fn self_method_dispatch() {
        let m = lower_py(
            "class C:\n    def helper(self):\n        return self\n    def use(self):\n        x = self.helper()\n",
        );
        let f = m.funcs.iter().find(|f| f.name.as_str() == "use").unwrap();
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::Call { .. })));
    }

    #[test]
    fn augassign_goes_top() {
        let m = lower_py("x = 1\nx += 2\n");
        let f = m.funcs.iter().find(|f| f.name.as_str() == "<module>").unwrap();
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::Top { .. })));
    }

    #[test]
    fn literal_prims() {
        let m = lower_py("s = 'x'\nn = 1\nb = True\n");
        let f = m.funcs.iter().find(|f| f.name.as_str() == "<module>").unwrap();
        let prims: Vec<&str> = f
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Prim { label, .. } => Some(label.as_str()),
                _ => None,
            })
            .collect();
        assert!(prims.contains(&"Str") && prims.contains(&"Num") && prims.contains(&"Bool"));
    }

    #[test]
    fn branch_merge_creates_moves() {
        let m = lower_py("if c:\n    x = open(p)\nelse:\n    x = 'str'\ny = x\n");
        let f = m.funcs.iter().find(|f| f.name.as_str() == "<module>").unwrap();
        let moves = f.instrs.iter().filter(|i| matches!(i, Instr::Move { .. })).count();
        assert!(moves >= 3, "expected merge moves, got {moves}");
    }

    #[test]
    fn exception_handler_binds_type() {
        let m = lower_py("try:\n    run()\nexcept ValueError as e:\n    pass\n");
        let f = m.funcs.iter().find(|f| f.name.as_str() == "<module>").unwrap();
        assert!(f
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Alloc { label, .. } if label.as_str() == "ValueError")));
    }

    #[test]
    fn java_params_get_declared_type_origin() {
        let ast = namer_syntax::java::parse(
            "class A { void f(Intent intent) { use(intent); } }",
        )
        .unwrap();
        let m = lower(&ast, Lang::Java);
        let f = m.funcs.iter().find(|f| f.name.as_str() == "f").unwrap();
        assert!(f
            .param_inits
            .iter()
            .any(|i| matches!(i, Instr::Alloc { label, .. } if label.as_str() == "Intent")));
    }

    #[test]
    fn java_new_allocates_type() {
        let ast = namer_syntax::java::parse(
            "class A { void f() { StringWriter w = new StringWriter(); } }",
        )
        .unwrap();
        let m = lower(&ast, Lang::Java);
        let f = m.funcs.iter().find(|f| f.name.as_str() == "f").unwrap();
        assert!(f
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Alloc { label, .. } if label.as_str() == "StringWriter")));
    }

    #[test]
    fn js_this_gets_class_origin_alloc() {
        let ast = namer_syntax::js::parse(
            "class C extends Base {\n    m() {\n        return this.count;\n    }\n}\n",
        )
        .unwrap();
        let m = lower(&ast, Lang::Js);
        let f = m.funcs.iter().find(|f| f.name.as_str() == "m").unwrap();
        assert!(f
            .param_inits
            .iter()
            .any(|i| matches!(i, Instr::AllocShared { label, .. } if label.as_str() == "Base")));
    }

    #[test]
    fn js_new_allocates_type() {
        let ast = namer_syntax::js::parse(
            "class A {\n    f() {\n        const handler = new EventHandler();\n        return handler;\n    }\n}\n",
        )
        .unwrap();
        let m = lower(&ast, Lang::Js);
        let f = m.funcs.iter().find(|f| f.name.as_str() == "f").unwrap();
        assert!(f
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Alloc { label, .. } if label.as_str() == "EventHandler")));
    }

    #[test]
    fn term_uses_cover_name_terminals() {
        let src = "x = open(p)\ny = x\n";
        let ast = python::parse(src).unwrap();
        let m = lower(&ast, Lang::Python);
        // x (store), p (load), x (load), y (store) — at least 4 uses.
        assert!(m.term_uses.len() >= 4, "{:?}", m.term_uses.len());
    }
}
