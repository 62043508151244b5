//! Cached vocabulary symbols are exactly the symbols interning their text
//! gives, on the first call and on every cached call after it.

use namer_syntax::vocab::{self, NUMBERED_CACHE};
use namer_syntax::{sym, Sym};

#[test]
fn every_vocab_function_returns_the_intern_of_its_text() {
    for &(f, text) in vocab::ENTRIES {
        let first = f();
        assert_eq!(first, Sym::intern(text), "{text}");
        assert_eq!(first.as_str(), text);
        assert_eq!(f(), first, "cached call of {text}");
    }
}

#[test]
fn numbered_values_match_the_formatted_intern_on_both_sides_of_the_table() {
    const { assert!(NUMBERED_CACHE <= 40, "0..=40 must cross the cached range") };
    for k in 0..=40 {
        for _ in 0..2 {
            assert_eq!(vocab::num_st(k), Sym::intern(&format!("NumST({k})")));
            assert_eq!(vocab::num_args(k), Sym::intern(&format!("NumArgs({k})")));
        }
    }
}

#[test]
fn sym_macro_returns_the_intern() {
    for _ in 0..2 {
        assert_eq!(sym!("Body"), Sym::intern("Body"));
        assert_eq!(
            sym!("vocab-interning-literal").as_str(),
            "vocab-interning-literal"
        );
    }
}
