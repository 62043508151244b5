//! Global string and name-path-prefix interning.
//!
//! Pattern mining compares AST node values across millions of files, so node
//! values are interned into cheap, `Copy` [`Sym`] handles that are comparable
//! process-wide. Whole name-path prefixes (`Vec<(Sym, u32)>`) are likewise
//! interned into dense [`PrefixId`] handles, so the innermost match loops of
//! mining and scanning key their hash maps on a `u32` instead of hashing and
//! cloning vectors. Both interners are global append-only tables guarded by
//! an `RwLock`; lookups of already-interned entries take the read path only.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned string.
///
/// Two `Sym`s compare equal iff the strings they intern are equal, regardless
/// of which file or thread interned them. The ordering of `Sym` is the
/// arbitrary (but stable within a process) interning order, which is what the
/// FP-tree miner uses as its canonical item order.
///
/// # Examples
///
/// ```
/// use namer_syntax::Sym;
/// let a = Sym::intern("assertTrue");
/// let b = Sym::intern("assertTrue");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "assertTrue");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

struct Interner {
    names: Vec<&'static str>,
    table: HashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            table: HashMap::new(),
        })
    })
}

impl Sym {
    /// Interns `s`, returning its global symbol.
    pub fn intern(s: &str) -> Sym {
        {
            let int = interner().read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&id) = int.table.get(s) {
                return Sym(id);
            }
        }
        let mut int = interner().write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = int.table.get(s) {
            return Sym(id);
        }
        let id = u32::try_from(int.names.len()).expect("interner overflow");
        // Interned strings live for the process lifetime; leaking them gives
        // us `&'static str` handles without unsafe code.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        int.names.push(leaked);
        int.table.insert(leaked, id);
        Sym(id)
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        interner().read().unwrap_or_else(PoisonError::into_inner).names[self.0 as usize]
    }

    /// Returns the raw index of this symbol in the global table.
    ///
    /// Useful as a dense array key; indices are assigned in interning order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

/// Interns a string literal once per call site: the first evaluation
/// interns it, every later one is a single atomic load of the cached
/// [`Sym`].
///
/// The cache fills lazily, at first use, so interning order (and with it
/// [`Sym`]'s `Ord`, which the miner's item order depends on) is exactly what
/// calling [`Sym::intern`] at the same point would give. Fixed-vocabulary
/// literals in the front end go through this macro, never through a
/// pre-interned table.
///
/// # Examples
///
/// ```
/// use namer_syntax::{sym, Sym};
/// let body = sym!("Body");
/// assert_eq!(body, Sym::intern("Body"));
/// assert_eq!(body.as_str(), "Body");
/// ```
#[macro_export]
macro_rules! sym {
    ($text:literal) => {{
        static CACHE: ::std::sync::OnceLock<$crate::Sym> = ::std::sync::OnceLock::new();
        *CACHE.get_or_init(|| $crate::Sym::intern($text))
    }};
}

/// An interned name-path prefix: the `S` of a name path `⟨S, n⟩`, reduced to
/// a dense, `Copy` `u32` handle.
///
/// Two `PrefixId`s compare equal iff the `(Sym, u32)` sequences they intern
/// are equal, regardless of which thread interned them. `PathSet` and
/// `PatternSet` key their prefix indexes on `PrefixId`, so the per-statement
/// match loop hashes a single `u32` instead of a `Vec<(Sym, u32)>`.
///
/// # Examples
///
/// ```
/// use namer_syntax::{PrefixId, Sym};
/// let prefix = vec![(Sym::intern("Assign"), 0), (Sym::intern("NameLoad"), 0)];
/// let a = PrefixId::intern(&prefix);
/// let b = PrefixId::intern(&prefix);
/// assert_eq!(a, b);
/// assert_eq!(a.as_slice(), &prefix[..]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PrefixId(u32);

struct PrefixInterner {
    prefixes: Vec<&'static [(Sym, u32)]>,
    table: HashMap<&'static [(Sym, u32)], u32>,
}

fn prefix_interner() -> &'static RwLock<PrefixInterner> {
    static INTERNER: OnceLock<RwLock<PrefixInterner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(PrefixInterner {
            prefixes: Vec::new(),
            table: HashMap::new(),
        })
    })
}

impl PrefixId {
    /// Interns `prefix`, returning its global id.
    pub fn intern(prefix: &[(Sym, u32)]) -> PrefixId {
        {
            let int = prefix_interner().read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&id) = int.table.get(prefix) {
                return PrefixId(id);
            }
        }
        let mut int = prefix_interner().write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = int.table.get(prefix) {
            return PrefixId(id);
        }
        let id = u32::try_from(int.prefixes.len()).expect("prefix interner overflow");
        // Like interned strings, interned prefixes live for the process
        // lifetime; leaking gives `&'static` handles without unsafe code.
        let leaked: &'static [(Sym, u32)] = Box::leak(prefix.to_vec().into_boxed_slice());
        int.prefixes.push(leaked);
        int.table.insert(leaked, id);
        PrefixId(id)
    }

    /// Returns the interned prefix.
    pub fn as_slice(self) -> &'static [(Sym, u32)] {
        prefix_interner().read().unwrap_or_else(PoisonError::into_inner).prefixes[self.0 as usize]
    }

    /// Returns the raw index of this prefix in the global table.
    ///
    /// Useful as a dense array key; indices are assigned in interning order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Sym::intern("foo");
        let b = Sym::intern("foo");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        assert_ne!(Sym::intern("foo"), Sym::intern("bar"));
    }

    #[test]
    fn round_trips_through_as_str() {
        let s = Sym::intern("NumArgs(2)");
        assert_eq!(s.as_str(), "NumArgs(2)");
    }

    #[test]
    fn display_matches_content() {
        assert_eq!(Sym::intern("Call").to_string(), "Call");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Sym::intern("concurrent-key")))
            .collect();
        let syms: Vec<Sym> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn empty_string_is_internable() {
        assert_eq!(Sym::intern("").as_str(), "");
    }

    #[test]
    fn prefix_intern_is_idempotent() {
        let prefix = vec![(Sym::intern("Call"), 0), (Sym::intern("Attr"), 1)];
        let a = PrefixId::intern(&prefix);
        let b = PrefixId::intern(&prefix);
        assert_eq!(a, b);
        assert_eq!(a.as_slice(), &prefix[..]);
    }

    #[test]
    fn distinct_prefixes_get_distinct_ids() {
        let a = PrefixId::intern(&[(Sym::intern("Call"), 0)]);
        let b = PrefixId::intern(&[(Sym::intern("Call"), 1)]);
        let c = PrefixId::intern(&[(Sym::intern("Attr"), 0)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn empty_prefix_is_internable() {
        let id = PrefixId::intern(&[]);
        assert!(id.as_slice().is_empty());
        assert_eq!(PrefixId::intern(&[]), id);
    }

    #[test]
    fn concurrent_prefix_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    PrefixId::intern(&[(Sym::intern("concurrent-prefix"), 3)])
                })
            })
            .collect();
        let ids: Vec<PrefixId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
