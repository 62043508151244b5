//! Canonical AST node value names.
//!
//! Both parsers and the AST+ transformation share one vocabulary of node
//! values so that the language-agnostic pattern miner sees a uniform tree
//! shape. The names follow Figure 2 of the paper (`Call`, `AttributeLoad`,
//! `NameLoad`, `Attr`, `Num`, `NumArgs(k)`, `NumST(k)`, `NUM`, …).
//!
//! Every function here returns a symbol cached at first use (see
//! [`sym!`](crate::sym!)): one atomic load after the first call, with the
//! same interning order as calling [`Sym::intern`] at that point.

use crate::intern::Sym;
use std::sync::OnceLock;

macro_rules! vocab {
    ($($(#[$doc:meta])* $fn_name:ident => $text:literal;)*) => {
        $(
            $(#[$doc])*
            pub fn $fn_name() -> Sym {
                crate::sym!($text)
            }
        )*

        /// Every vocabulary function with the text it interns, in
        /// declaration order.
        pub const ENTRIES: &[(fn() -> Sym, &str)] = &[$(($fn_name, $text)),*];
    };
}

vocab! {
    /// Root of a parsed file.
    module => "Module";
    /// Class definition header.
    class_def => "ClassDef";
    /// Function or method definition header.
    function_def => "FunctionDef";
    /// Formal parameter list.
    params => "Params";
    /// One formal parameter.
    param => "Param";
    /// `*args`-style variadic parameter.
    star_param => "StarParam";
    /// `**kwargs`-style keyword parameter.
    kw_param => "KwParam";
    /// Base-class / extends list.
    bases => "Bases";
    /// Assignment statement.
    assign => "Assign";
    /// Augmented assignment (`+=` and friends).
    aug_assign => "AugAssign";
    /// Expression statement.
    expr_stmt => "ExprStmt";
    /// `return` statement.
    return_stmt => "Return";
    /// `raise` / `throw` statement.
    raise_stmt => "Raise";
    /// `assert` statement.
    assert_stmt => "Assert";
    /// `del` statement.
    del_stmt => "Del";
    /// `pass` statement.
    pass_stmt => "Pass";
    /// `break` statement.
    break_stmt => "Break";
    /// `continue` statement.
    continue_stmt => "Continue";
    /// `import` statement.
    import_stmt => "Import";
    /// `from … import …` statement.
    import_from => "ImportFrom";
    /// Import alias (`as` clause).
    alias => "Alias";
    /// `if` header.
    if_stmt => "If";
    /// `while` header.
    while_stmt => "While";
    /// `for` header (also Java's enhanced for).
    for_stmt => "For";
    /// Classic three-clause Java `for`.
    for_classic => "ForClassic";
    /// `with` header.
    with_stmt => "With";
    /// `try` statement.
    try_stmt => "Try";
    /// One `except` / `catch` handler.
    handler => "Handler";
    /// `global` statement.
    global_stmt => "Global";
    /// Function / method call.
    call => "Call";
    /// Attribute read (`x.f` in load position).
    attribute_load => "AttributeLoad";
    /// Attribute write (`x.f = …`).
    attribute_store => "AttributeStore";
    /// Name read.
    name_load => "NameLoad";
    /// Name write.
    name_store => "NameStore";
    /// Name bound as a parameter.
    name_param => "NameParam";
    /// The attribute-name wrapper under an attribute node.
    attr => "Attr";
    /// Numeric literal wrapper.
    num => "Num";
    /// String literal wrapper.
    str_lit => "Str";
    /// Boolean literal wrapper.
    bool_lit => "Bool";
    /// `None` / `null` literal wrapper.
    none_lit => "NoneLit";
    /// Binary operation.
    bin_op => "BinOp";
    /// Unary operation.
    unary_op => "UnaryOp";
    /// Comparison chain.
    compare => "Compare";
    /// Boolean operation (`and` / `or` / `&&` / `||`).
    bool_op => "BoolOp";
    /// Subscript / array access.
    subscript => "Subscript";
    /// Slice expression.
    slice => "Slice";
    /// List literal.
    list_lit => "ListLit";
    /// Tuple literal.
    tuple_lit => "TupleLit";
    /// Dict / map literal.
    dict_lit => "DictLit";
    /// Set literal.
    set_lit => "SetLit";
    /// Lambda expression.
    lambda => "Lambda";
    /// Keyword argument at a call site.
    keyword_arg => "KeywordArg";
    /// `*expr` argument.
    starred => "Starred";
    /// `**expr` argument.
    double_starred => "DoubleStarred";
    /// Conditional expression / ternary.
    ternary => "Ternary";
    /// Comprehension (list/set/dict/generator).
    comprehension => "Comprehension";
    /// Decorator application.
    decorator => "Decorator";
    /// Java `new` object creation.
    new_object => "New";
    /// Java array creation.
    new_array => "NewArray";
    /// Java cast expression.
    cast => "Cast";
    /// Java `instanceof`.
    instance_of => "InstanceOf";
    /// Java local variable declaration.
    local_var => "LocalVar";
    /// Java field declaration.
    field_decl => "FieldDecl";
    /// Java method declaration.
    method_decl => "MethodDecl";
    /// Java constructor declaration.
    ctor_decl => "CtorDecl";
    /// Declared type reference.
    type_ref => "TypeRef";
    /// Java `throw`.
    throw_stmt => "Throw";
    /// Java `switch`.
    switch_stmt => "Switch";
    /// Java `synchronized` block header.
    synchronized_stmt => "Synchronized";
    /// Java package declaration.
    package_decl => "Package";
    /// Abstracted numeric literal (AST+ step 1).
    num_token => "NUM";
    /// Abstracted string literal (AST+ step 1).
    str_token => "STR";
    /// Abstracted boolean literal (AST+ step 1).
    bool_token => "BOOL";
    /// Abstracted null literal.
    none_token => "NONE";
    /// Origin value for objects the analysis could not resolve (⊤).
    object_top => "Object";
}

/// Numbered node values with `k` below this bound are cached per `k`;
/// larger `k` formats and interns on every call.
pub const NUMBERED_CACHE: usize = 32;

/// `NumArgs(k)` node value (AST+ step 2).
pub fn num_args(k: usize) -> Sym {
    static CACHE: [OnceLock<Sym>; NUMBERED_CACHE] = [const { OnceLock::new() }; NUMBERED_CACHE];
    numbered(&CACHE, "NumArgs", k)
}

/// `NumST(k)` node value (AST+ step 3).
pub fn num_st(k: usize) -> Sym {
    static CACHE: [OnceLock<Sym>; NUMBERED_CACHE] = [const { OnceLock::new() }; NUMBERED_CACHE];
    numbered(&CACHE, "NumST", k)
}

/// `name(k)`, through `cache[k]` when `k` is in range. Each slot fills at
/// first use, so interning order is unchanged.
fn numbered(cache: &[OnceLock<Sym>; NUMBERED_CACHE], name: &str, k: usize) -> Sym {
    let intern = || Sym::intern(&format!("{name}({k})"));
    match cache.get(k) {
        Some(slot) => *slot.get_or_init(intern),
        None => intern(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parametric_values_format_like_the_paper() {
        assert_eq!(num_args(2).as_str(), "NumArgs(2)");
        assert_eq!(num_st(1).as_str(), "NumST(1)");
    }

    #[test]
    fn vocab_is_stable() {
        assert_eq!(call().as_str(), "Call");
        assert_eq!(attribute_load().as_str(), "AttributeLoad");
        assert_eq!(num_token().as_str(), "NUM");
    }
}
