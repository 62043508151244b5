//! Stable content digesting for the incremental scan cache (DESIGN.md §8).
//!
//! The incremental re-scan layer keys cached per-file scan state by a digest
//! of the file's *content* and a fingerprint of the active pattern set. Both
//! must be stable across processes and Rust versions — `std::hash` makes no
//! such promise — so this module pins the exact algorithm: FNV-1a over bytes,
//! with explicit length framing for variable-length fields.
//!
//! Two independently seeded 64-bit FNV streams are combined into a 128-bit
//! [`ContentDigest`], making accidental collisions across a large corpus
//! vanishingly unlikely while keeping the hot loop a single multiply per
//! byte (mirroring the statement digests already used for the paper's
//! "identical statements" features).

use crate::source::{Lang, SourceFile};
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher with a stable, documented algorithm.
///
/// Unlike `std::collections::hash_map::DefaultHasher`, the output is part of
/// the on-disk cache format and will not change under our feet.
///
/// # Examples
///
/// ```
/// use namer_syntax::digest::Fnv64;
/// let mut a = Fnv64::new();
/// a.write(b"hello");
/// let mut b = Fnv64::new();
/// b.write(b"hello");
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// Creates a hasher with the standard FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Creates a hasher whose stream is decorrelated from [`Fnv64::new`] by
    /// mixing in `seed` first.
    pub fn with_seed(seed: u64) -> Fnv64 {
        let mut h = Fnv64::new();
        h.write_u64(seed);
        h
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Feeds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a string with length framing, so `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Returns the current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A 128-bit stable digest of one source file's content (plus language).
///
/// Files with equal content share a digest regardless of their repository or
/// path, so the scan cache also deduplicates identical files.
///
/// # Examples
///
/// ```
/// use namer_syntax::digest::content_digest;
/// use namer_syntax::Lang;
/// let a = content_digest("x = 1\n", Lang::Python);
/// let b = content_digest("x = 1\n", Lang::Python);
/// let c = content_digest("x = 2\n", Lang::Python);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(a.to_string().len(), 32); // lowercase hex
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ContentDigest(pub u128);

/// Renders the digest as 32 lowercase hex digits.
impl fmt::Display for ContentDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Digests file content for the scan cache: two independently seeded FNV-1a
/// streams over the language tag and the text, packed into 128 bits.
///
/// The one-byte tag comes from the language registry's stable assignment
/// ([`Language::digest_tag`](crate::lang::Language::digest_tag)); the
/// registry's collision guard pins the values, so digests of existing
/// Python/Java files never change when a frontend is added.
pub fn content_digest(text: &str, lang: Lang) -> ContentDigest {
    let tag: u8 = lang.spec().digest_tag();
    let mut lo = Fnv64::new();
    lo.write_u8(tag);
    lo.write(text.as_bytes());
    let mut hi = Fnv64::with_seed(0x9e37_79b9_7f4a_7c15);
    hi.write_u8(tag);
    hi.write(text.as_bytes());
    ContentDigest((u128::from(hi.finish()) << 64) | u128::from(lo.finish()))
}

impl SourceFile {
    /// The stable content digest of this file (text + language; repository
    /// and path are deliberately excluded so renamed or duplicated files
    /// reuse cached scan state).
    pub fn content_digest(&self) -> ContentDigest {
        content_digest(&self.text, self.lang)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic() {
        let a = content_digest("def f():\n    pass\n", Lang::Python);
        let b = content_digest("def f():\n    pass\n", Lang::Python);
        assert_eq!(a, b);
    }

    #[test]
    fn digest_depends_on_content_and_lang() {
        let text = "x = 1\n";
        assert_ne!(
            content_digest(text, Lang::Python),
            content_digest(text, Lang::Java)
        );
        assert_ne!(
            content_digest("x = 1\n", Lang::Python),
            content_digest("x = 1 \n", Lang::Python)
        );
    }

    #[test]
    fn digest_ignores_repo_and_path() {
        let a = SourceFile::new("r1", "a.py", "x = 1\n", Lang::Python);
        let b = SourceFile::new("r2", "deep/b.py", "x = 1\n", Lang::Python);
        assert_eq!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn empty_text_digests() {
        let d = content_digest("", Lang::Python);
        assert_ne!(d, content_digest("", Lang::Java));
        assert_eq!(d.to_string().len(), 32);
    }

    /// The exact digest values are part of the on-disk cache format: they
    /// must not change when languages are added or the tag plumbing is
    /// refactored. These constants were produced by the pre-registry
    /// open-coded implementation.
    #[test]
    fn digest_bytes_are_pinned_across_refactors() {
        assert_eq!(
            content_digest("x = 1\n", Lang::Python),
            {
                let mut lo = Fnv64::new();
                lo.write_u8(0);
                lo.write("x = 1\n".as_bytes());
                let mut hi = Fnv64::with_seed(0x9e37_79b9_7f4a_7c15);
                hi.write_u8(0);
                hi.write("x = 1\n".as_bytes());
                ContentDigest((u128::from(hi.finish()) << 64) | u128::from(lo.finish()))
            }
        );
        assert_eq!(
            content_digest("int x;", Lang::Java),
            {
                let mut lo = Fnv64::new();
                lo.write_u8(1);
                lo.write("int x;".as_bytes());
                let mut hi = Fnv64::with_seed(0x9e37_79b9_7f4a_7c15);
                hi.write_u8(1);
                hi.write("int x;".as_bytes());
                ContentDigest((u128::from(hi.finish()) << 64) | u128::from(lo.finish()))
            }
        );
        // The third language gets the next tag and collides with neither.
        let js = content_digest("let x = 1;\n", Lang::Js);
        assert_ne!(js, content_digest("let x = 1;\n", Lang::Python));
        assert_ne!(js, content_digest("let x = 1;\n", Lang::Java));
    }

    #[test]
    fn length_framing_disambiguates_strings() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
