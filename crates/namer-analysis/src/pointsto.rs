//! Context expansion and the Andersen points-to solve.
//!
//! Context sensitivity is *cloning-based*: each function body is duplicated
//! per call string of length ≤ k (k-call-site sensitivity, paper default
//! k = 5), and a context-insensitive field-sensitive Andersen analysis runs
//! over the expanded program — the classic reduction. When expansion would
//! exceed an average of `max_avg_contexts` clones per function (paper: 8),
//! the analysis falls back to k = 0, exactly as §4.1 describes.

use crate::builder::top_label;
use crate::ir::{FuncId, Instr, Module, Var};
use namer_datalog::{Program, Term};
use namer_syntax::Sym;
use std::collections::HashMap;

/// Points-to configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Call-string depth (paper default: 5).
    pub k: usize,
    /// Fallback threshold: maximum average clones per function (paper: 8).
    pub max_avg_contexts: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            k: 5,
            max_avg_contexts: 8,
        }
    }
}

/// Result of the points-to solve.
#[derive(Debug)]
pub struct Solution {
    /// Origin labels per *original* IR register (projected onto the entry
    /// clone of the register's owning function).
    labels: HashMap<Var, Vec<Sym>>,
    /// Number of clones materialised.
    pub clone_count: usize,
    /// Whether the k = 0 fallback fired.
    pub fell_back: bool,
}

impl Solution {
    /// The unique, non-⊤ origin of `v`, if the analysis resolved one.
    pub fn origin(&self, v: Var) -> Option<Sym> {
        let labels = self.labels.get(&v)?;
        let mut uniq: Vec<Sym> = labels.clone();
        uniq.sort();
        uniq.dedup();
        match uniq.as_slice() {
            [l] if *l != top_label() => Some(*l),
            _ => None,
        }
    }

    /// All origin labels of `v` (testing/diagnostics).
    pub fn labels(&self, v: Var) -> &[Sym] {
        self.labels.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Runs the full pipeline: clone expansion, Datalog solve, projection.
pub fn solve(module: &Module, config: &Config) -> Solution {
    let (expanded, fell_back) = match expand(module, config.k, config.max_avg_contexts) {
        Some(e) => (e, false),
        None => (
            expand(module, 0, usize::MAX).expect("k=0 expansion cannot explode"),
            true,
        ),
    };
    let clone_count = expanded.clone_count;
    let labels = run_datalog(&expanded);
    Solution {
        labels,
        clone_count,
        fell_back,
    }
}

/// One flattened instruction over global registers.
enum Flat {
    Alloc { dst: u64, site: u64 },
    Move { dst: u64, src: u64 },
    Load { dst: u64, base: u64, field: u64 },
    Store { base: u64, field: u64, src: u64 },
}

struct Expanded {
    instrs: Vec<Flat>,
    site_labels: Vec<Sym>,
    clone_count: usize,
    /// Global register of original var `v` in the entry clone of its owner.
    entry_global: HashMap<Var, u64>,
}

fn owner_of_vars(module: &Module) -> HashMap<Var, FuncId> {
    let mut owner = HashMap::new();
    for (fi, f) in module.funcs.iter().enumerate() {
        let fid = FuncId(fi as u32);
        let mut claim = |v: Var| {
            owner.entry(v).or_insert(fid);
        };
        for &p in &f.params {
            claim(p);
        }
        claim(f.ret);
        for i in f.param_inits.iter().chain(&f.instrs) {
            match i {
                Instr::Alloc { dst, .. }
                | Instr::AllocShared { dst, .. }
                | Instr::Prim { dst, .. }
                | Instr::Top { dst } => claim(*dst),
                Instr::Move { dst, src } => {
                    claim(*dst);
                    claim(*src);
                }
                Instr::Load { dst, base, .. } => {
                    claim(*dst);
                    claim(*base);
                }
                Instr::Store { base, src, .. } => {
                    claim(*base);
                    claim(*src);
                }
                Instr::Call { dst, args, .. } => {
                    if let Some(d) = dst {
                        claim(*d);
                    }
                    for &a in args {
                        claim(a);
                    }
                }
            }
        }
    }
    owner
}

/// Expands the module with k-call-site cloning. Returns `None` when the
/// clone budget (`max_avg` × function count) is exceeded.
fn expand(module: &Module, k: usize, max_avg: usize) -> Option<Expanded> {
    let nfuncs = module.funcs.len().max(1);
    let budget = max_avg.saturating_mul(nfuncs).max(nfuncs);
    let stride = u64::from(module.var_count);

    // Clone table: (func, ctx) → clone index.
    let mut clones: HashMap<(FuncId, Vec<u32>), usize> = HashMap::new();
    let mut clone_list: Vec<(FuncId, Vec<u32>)> = Vec::new();
    let mut worklist: Vec<usize> = Vec::new();

    let mut entry_clone: HashMap<FuncId, usize> = HashMap::new();
    for (fi, f) in module.funcs.iter().enumerate() {
        if f.entry {
            let fid = FuncId(fi as u32);
            let idx = clone_list.len();
            clones.insert((fid, Vec::new()), idx);
            clone_list.push((fid, Vec::new()));
            entry_clone.insert(fid, idx);
            worklist.push(idx);
        }
    }

    // Module-level registers are shared across all clones: a global read
    // inside a function must see the module clone's register, not a per-clone
    // copy.
    let owner = owner_of_vars(module);
    let module_fid = module
        .funcs
        .iter()
        .position(|f| f.name.as_str() == "<module>")
        .map(|i| FuncId(i as u32));
    let module_base = module_fid
        .and_then(|f| entry_clone.get(&f).copied())
        .map(|c| c as u64 * stride);

    let mut instrs = Vec::new();
    let mut site_labels = Vec::new();
    let mut shared_sites: HashMap<Sym, u64> = HashMap::new();
    let fresh_site = |label: Sym, site_labels: &mut Vec<Sym>| -> u64 {
        site_labels.push(label);
        (site_labels.len() - 1) as u64
    };

    let mut processed = 0usize;
    while processed < worklist.len() {
        let clone_idx = worklist[processed];
        processed += 1;
        let (fid, ctx) = clone_list[clone_idx].clone();
        let base = clone_idx as u64 * stride;
        let g = |v: Var| {
            if let (Some(mf), Some(mb)) = (module_fid, module_base) {
                if owner.get(&v) == Some(&mf) {
                    return mb + u64::from(v.0);
                }
            }
            base + u64::from(v.0)
        };
        let f = &module.funcs[fid.index()];
        // Entry clones carry the entry-point assumptions; contexts reached
        // through calls get their parameters from the caller instead.
        let inits: &[Instr] = if ctx.is_empty() { &f.param_inits } else { &[] };
        for ins in inits.iter().chain(&f.instrs) {
            match ins {
                Instr::AllocShared { dst, label } => {
                    let site = *shared_sites
                        .entry(*label)
                        .or_insert_with(|| {
                            site_labels.push(*label);
                            (site_labels.len() - 1) as u64
                        });
                    instrs.push(Flat::Alloc { dst: g(*dst), site });
                }
                Instr::Alloc { dst, label } | Instr::Prim { dst, label } => {
                    let site = fresh_site(*label, &mut site_labels);
                    instrs.push(Flat::Alloc { dst: g(*dst), site });
                }
                Instr::Top { dst } => {
                    let site = fresh_site(top_label(), &mut site_labels);
                    instrs.push(Flat::Alloc { dst: g(*dst), site });
                }
                Instr::Move { dst, src } => instrs.push(Flat::Move {
                    dst: g(*dst),
                    src: g(*src),
                }),
                Instr::Load { dst, base: b, field } => instrs.push(Flat::Load {
                    dst: g(*dst),
                    base: g(*b),
                    field: field.index() as u64,
                }),
                Instr::Store { base: b, field, src } => instrs.push(Flat::Store {
                    base: g(*b),
                    field: field.index() as u64,
                    src: g(*src),
                }),
                Instr::Call {
                    dst,
                    func,
                    site,
                    args,
                } => {
                    // Build the callee context: most recent site first.
                    let mut new_ctx = Vec::with_capacity(k.min(ctx.len() + 1));
                    if k > 0 {
                        new_ctx.push(*site);
                        for &s in ctx.iter().take(k.saturating_sub(1)) {
                            new_ctx.push(s);
                        }
                    }
                    let target = match clones.get(&(*func, new_ctx.clone())) {
                        Some(&t) => t,
                        None => {
                            if clone_list.len() >= budget {
                                return None;
                            }
                            let t = clone_list.len();
                            clones.insert((*func, new_ctx.clone()), t);
                            clone_list.push((*func, new_ctx));
                            worklist.push(t);
                            t
                        }
                    };
                    let tbase = target as u64 * stride;
                    let callee = &module.funcs[func.index()];
                    for (i, &a) in args.iter().enumerate() {
                        if let Some(&p) = callee.params.get(i) {
                            instrs.push(Flat::Move {
                                dst: tbase + u64::from(p.0),
                                src: g(a),
                            });
                        }
                    }
                    if let Some(d) = dst {
                        instrs.push(Flat::Move {
                            dst: g(*d),
                            src: tbase + u64::from(callee.ret.0),
                        });
                    }
                }
            }
        }
    }

    // Projection map: original var → global register in its owner's entry
    // clone (every function is an entry, so the entry clone always exists).
    let mut entry_global = HashMap::new();
    for (&v, &f) in &owner {
        if let Some(&c) = entry_clone.get(&f) {
            entry_global.insert(v, c as u64 * stride + u64::from(v.0));
        }
    }

    Some(Expanded {
        instrs,
        site_labels,
        clone_count: clone_list.len(),
        entry_global,
    })
}

fn run_datalog(expanded: &Expanded) -> HashMap<Var, Vec<Sym>> {
    let mut prog = Program::new();
    let alloc = prog.relation("Alloc", 2);
    let mv = prog.relation("Move", 2);
    let load = prog.relation("Load", 3);
    let store = prog.relation("Store", 3);
    let vpt = prog.relation("VarPointsTo", 2);
    let hpt = prog.relation("HeapPointsTo", 3);

    let (v, s, x, sb, f) = (
        Term::var(0),
        Term::var(1),
        Term::var(2),
        Term::var(3),
        Term::var(4),
    );
    // VPT(v,s) :- Alloc(v,s).
    prog.rule(vpt.atom([v, s]), [alloc.atom([v, s]).pos()]);
    // VPT(v,s) :- Move(v,x), VPT(x,s).
    prog.rule(vpt.atom([v, s]), [mv.atom([v, x]).pos(), vpt.atom([x, s]).pos()]);
    // VPT(v,s) :- Load(v,b,f), VPT(b,sb), HPT(sb,f,s).
    prog.rule(
        vpt.atom([v, s]),
        [
            load.atom([v, x, f]).pos(),
            vpt.atom([x, sb]).pos(),
            hpt.atom([sb, f, s]).pos(),
        ],
    );
    // HPT(sb,f,s) :- Store(b,f,x), VPT(b,sb), VPT(x,s).
    prog.rule(
        hpt.atom([sb, f, s]),
        [
            store.atom([v, f, x]).pos(),
            vpt.atom([v, sb]).pos(),
            vpt.atom([x, s]).pos(),
        ],
    );

    let mut db = prog.database();
    for ins in &expanded.instrs {
        match *ins {
            Flat::Alloc { dst, site } => {
                db.insert(alloc, [dst, site]);
            }
            Flat::Move { dst, src } => {
                db.insert(mv, [dst, src]);
            }
            Flat::Load { dst, base, field } => {
                db.insert(load, [dst, base, field]);
            }
            Flat::Store { base, field, src } => {
                db.insert(store, [base, field, src]);
            }
        }
    }
    let out = prog.eval(db).expect("points-to rules are stratified");

    // Project VPT onto the entry-clone registers of interest.
    let mut wanted: HashMap<u64, Var> = HashMap::new();
    for (&orig, &global) in &expanded.entry_global {
        wanted.insert(global, orig);
    }
    let mut labels: HashMap<Var, Vec<Sym>> = HashMap::new();
    for row in out.rows(vpt) {
        if let Some(&orig) = wanted.get(&row[0]) {
            let label = expanded.site_labels[row[1] as usize];
            labels.entry(orig).or_default().push(label);
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::ir::TermUse;
    use namer_syntax::{python, Ast, Lang};

    fn origins_by_name(src: &str) -> HashMap<String, Option<String>> {
        let ast: Ast = python::parse(src).unwrap();
        let module = builder::lower(&ast, Lang::Python);
        let sol = solve(&module, &Config::default());
        let mut out = HashMap::new();
        for &(term, use_) in &module.term_uses {
            let var = match use_ {
                TermUse::Object(v) => v,
                TermUse::FunctionRecv(v) => v,
            };
            out.insert(
                ast.value(term).as_str().to_owned(),
                sol.origin(var).map(|s| s.as_str().to_owned()),
            );
        }
        out
    }

    #[test]
    fn external_call_origin_flows_to_binding() {
        let o = origins_by_name("f = open(path)\n");
        assert_eq!(o["f"], Some("open".to_owned()));
    }

    #[test]
    fn origin_flows_through_moves() {
        let o = origins_by_name("f = open(p)\ng = f\nh = g\n");
        assert_eq!(o["h"], Some("open".to_owned()));
    }

    #[test]
    fn self_origin_and_receiver_origin() {
        let src = "class T(TestCase):\n    def m(self):\n        self.assertTrue(1, 2)\n";
        let ast = python::parse(src).unwrap();
        let module = builder::lower(&ast, Lang::Python);
        let sol = solve(&module, &Config::default());
        let mut fn_origin = None;
        for &(term, use_) in &module.term_uses {
            if ast.value(term).as_str() == "assertTrue" {
                if let TermUse::FunctionRecv(r) = use_ {
                    fn_origin = sol.origin(r);
                }
            }
        }
        assert_eq!(fn_origin.map(|s| s.as_str()), Some("TestCase"));
    }

    #[test]
    fn field_store_load_roundtrip() {
        let src = "class C:\n    def put(self):\n        self.f = open(p)\n    def get(self):\n        x = self.f\n        return x\n";
        let o = origins_by_name(src);
        assert_eq!(o["x"], Some("open".to_owned()));
    }

    #[test]
    fn ambiguous_origin_is_none() {
        let o = origins_by_name("if c:\n    x = open(p)\nelse:\n    x = connect(q)\ny = x\n");
        assert_eq!(o["y"], None);
    }

    #[test]
    fn top_origin_is_none() {
        let o = origins_by_name("x = 1\nx += 2\ny = x\n");
        assert_eq!(o["y"], None);
    }

    #[test]
    fn literal_origins() {
        let o = origins_by_name("s = 'hello'\n");
        assert_eq!(o["s"], Some("Str".to_owned()));
    }

    #[test]
    fn context_sensitivity_keeps_callers_apart() {
        // `ident` returns its argument; context-insensitively both callers
        // would see {open, connect}; with k≥1 cloning each stays precise.
        let src = "def ident(a):\n    return a\n\ndef use():\n    x = ident(open(p))\n    y = ident(connect(q))\n    return x, y\n";
        let ast = python::parse(src).unwrap();
        let module = builder::lower(&ast, Lang::Python);
        let sol = solve(&module, &Config { k: 2, max_avg_contexts: 64 });
        let mut by_name = HashMap::new();
        for &(term, use_) in &module.term_uses {
            if let TermUse::Object(v) = use_ {
                by_name.insert(ast.value(term).as_str(), sol.origin(v));
            }
        }
        assert_eq!(by_name["x"].map(|s| s.as_str()), Some("open"));
        assert_eq!(by_name["y"].map(|s| s.as_str()), Some("connect"));
    }

    #[test]
    fn k0_merges_callers() {
        let src = "def ident(a):\n    return a\n\ndef use():\n    x = ident(open(p))\n    y = ident(connect(q))\n    return x, y\n";
        let ast = python::parse(src).unwrap();
        let module = builder::lower(&ast, Lang::Python);
        let sol = solve(&module, &Config { k: 0, max_avg_contexts: 8 });
        for &(term, use_) in &module.term_uses {
            if let TermUse::Object(v) = use_ {
                if ast.value(term).as_str() == "x" {
                    assert_eq!(sol.origin(v), None, "k=0 must merge call sites");
                }
            }
        }
    }

    #[test]
    fn explosion_falls_back_to_k0() {
        // A call chain that fans out: each fn calls the next twice, giving
        // 2^depth contexts — must trip the budget and fall back.
        let mut src = String::new();
        for i in 0..12 {
            src.push_str(&format!(
                "def f{i}(a):\n    x = f{}(a)\n    y = f{}(a)\n    return x\n\n",
                i + 1,
                i + 1
            ));
        }
        src.push_str("def f12(a):\n    return a\n");
        let ast = python::parse(&src).unwrap();
        let module = builder::lower(&ast, Lang::Python);
        let sol = solve(&module, &Config { k: 5, max_avg_contexts: 8 });
        assert!(sol.fell_back);
        assert!(sol.clone_count <= module.funcs.len());
    }

    #[test]
    fn recursion_terminates() {
        let src = "def rec(a):\n    return rec(a)\n";
        let ast = python::parse(src).unwrap();
        let module = builder::lower(&ast, Lang::Python);
        let sol = solve(&module, &Config::default());
        assert!(sol.clone_count < 100);
    }
}
