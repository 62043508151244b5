//! Vocabulary symbols intern at first use, one at a time — never as a
//! batch or from a pre-interned table — so the interning order, which
//! `Sym`'s `Ord` and the miner's item order follow, is the order of first
//! use.
//!
//! This file is its own test binary with a single test, so nothing else in
//! the process interns the probed texts first.

use namer_syntax::{sym, vocab, Sym};

#[test]
fn each_cached_symbol_interns_at_its_first_use() {
    let probe = |i: usize| Sym::intern(&format!("first-use-probe-{i}")).index();
    let firsts = [
        probe(0),
        vocab::synchronized_stmt().index(),
        probe(1),
        vocab::package_decl().index(),
        probe(2),
        vocab::num_st(5).index(),
        probe(3),
        vocab::num_args(7).index(),
        probe(4),
        sym!("FirstUseLiteral").index(),
        probe(5),
    ];
    assert!(
        firsts.windows(2).all(|w| w[0] < w[1]),
        "interning order {firsts:?}"
    );
}
