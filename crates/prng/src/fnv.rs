//! The platform's one content hash: 64-bit FNV-1a, streamed.

use std::fmt::{self, Write};

/// FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// A streaming 64-bit FNV-1a hasher: every fingerprint, checksum and
/// digest hash on the platform is this function over some bytes.
///
/// It implements [`fmt::Write`], so formatted text is hashed as it is
/// rendered, byte for byte the same as rendering it into a `String`
/// and hashing that, without the allocation.
///
/// # Examples
///
/// ```
/// use std::fmt::Write;
/// use bios_prng::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// write!(h, "seed={:016x}", 7).unwrap();
/// assert_eq!(h.value(), Fnv1a::hash(format!("seed={:016x}", 7).as_bytes()));
/// assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has seen no bytes.
    #[must_use]
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// FNV-1a of `bytes`.
    #[must_use]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bytes(bytes);
        h.value()
    }

    /// FNV-1a of formatted text, hashed as it is rendered:
    /// `Fnv1a::hash_fmt(format_args!("{x:?}"))` equals
    /// `Fnv1a::hash(format!("{x:?}").as_bytes())` without the `String`.
    #[must_use]
    pub fn hash_fmt(args: fmt::Arguments<'_>) -> u64 {
        let mut h = Fnv1a::new();
        // Writing into the hasher cannot fail; a `Debug` impl that
        // reports an error merely ends the bytes early.
        let _ = h.write_fmt(args);
        h.value()
    }

    /// Folds `bytes` into the hash.
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The hash of every byte written so far. (Not `finish`, as in
    /// `std::hash::Hasher`: `bios-audit` resolves method calls by name,
    /// and would link every fingerprint to `GatewaySession::finish`.)
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_pieces_hash_like_the_whole() {
        let mut h = Fnv1a::new();
        h.write_bytes(b"foo");
        h.write_str("bar").unwrap();
        assert_eq!(h.value(), Fnv1a::hash(b"foobar"));
        let rendered = format!("{:?} {:016x}", (1.5f64, "x"), 42u64);
        let streamed = Fnv1a::hash_fmt(format_args!("{:?} {:016x}", (1.5f64, "x"), 42u64));
        assert_eq!(streamed, Fnv1a::hash(rendered.as_bytes()));
    }
}
