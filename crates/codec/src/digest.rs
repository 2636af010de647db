//! A 128-bit running digest: two independent SplitMix64 streams, the
//! second rotated between folds so the pair never degenerates into one
//! stream.
//!
//! 128 bits because both users need collisions ruled out in practice.
//! The scenario trace digest is the *replay contract* — a manifest
//! claims "this spec + seed produced exactly these requests", and a
//! collision would let a silently different trace masquerade as a
//! faithful replay. The serve engine's solution-reuse key is the other
//! user: a collision there would serve the wrong solution.

/// SplitMix64 finalizer — the same mixer `rcr_runtime::seed_stream` uses.
#[inline]
fn splitmix64(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Two independent 64-bit streams folded into one 128-bit value.
#[derive(Debug, Clone)]
pub struct Digest128 {
    a: u64,
    b: u64,
}

impl Digest128 {
    /// A fresh digest domain-separated by `seed`.
    pub fn new(seed: u64) -> Digest128 {
        Digest128 {
            a: splitmix64(seed),
            b: splitmix64(seed ^ 0x5851_F42D_4C95_7F2D),
        }
    }

    /// Folds one word into both streams.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.a = splitmix64(self.a ^ v);
        self.b = splitmix64(self.b.rotate_left(17) ^ v);
    }

    /// Folds a float by raw bit pattern (`-0.0 != 0.0` on purpose:
    /// distinct bits are distinct content).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a string as its bytes (length-prefixed so `"ab","c"` and
    /// `"a","bc"` cannot alias).
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }

    /// The 128-bit digest value.
    pub fn finish(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }

    /// The digest as 32 lowercase hex digits — the form written into
    /// run manifests.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_content_sensitive() {
        let mut a = Digest128::new(1);
        a.u64(10);
        a.u64(20);
        let mut b = Digest128::new(1);
        b.u64(20);
        b.u64(10);
        assert_ne!(a.finish(), b.finish(), "order must matter");
        let mut c = Digest128::new(2);
        c.u64(10);
        c.u64(20);
        assert_ne!(a.finish(), c.finish(), "seed must matter");
    }

    #[test]
    fn string_folding_is_length_prefixed() {
        let fold = |parts: &[&str]| {
            let mut d = Digest128::new(0);
            for p in parts {
                d.str(p);
            }
            d.finish()
        };
        assert_ne!(fold(&["ab", "c"]), fold(&["a", "bc"]));
        assert_eq!(fold(&["abc"]), fold(&["abc"]));
    }

    #[test]
    fn hex_is_stable_32_digits() {
        let mut d = Digest128::new(7);
        d.u64(42);
        let h = d.hex();
        assert_eq!(h.len(), 32);
        assert_eq!(h, d.hex(), "hex is a pure read");
        assert_eq!(u128::from_str_radix(&h, 16).ok(), Some(d.finish()));
    }
}
