//! Tristate numbers (tnums) — the verifier's bit-level abstract domain.
//!
//! A tnum tracks, for every bit of a 64-bit value, whether it is known-0,
//! known-1, or unknown. Representation matches `kernel/bpf/tnum.c`:
//! `value` holds the known-1 bits, `mask` holds the unknown bits, and
//! `value & mask == 0` is the representation invariant.

use serde::{Deserialize, Serialize};

/// A tristate number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tnum {
    /// Known-one bits.
    pub value: u64,
    /// Unknown bits (`value & mask == 0`).
    pub mask: u64,
}

impl Tnum {
    /// The completely unknown tnum.
    pub const UNKNOWN: Tnum = Tnum {
        value: 0,
        mask: u64::MAX,
    };

    /// A fully known constant.
    pub const fn const_val(value: u64) -> Tnum {
        Tnum { value, mask: 0 }
    }

    /// Builds a tnum from raw parts, asserting the invariant in debug.
    pub fn new(value: u64, mask: u64) -> Tnum {
        debug_assert_eq!(value & mask, 0, "tnum invariant violated");
        Tnum { value, mask }
    }

    /// The tightest tnum containing every value in `[min, max]`
    /// (`tnum_range`).
    pub fn range(min: u64, max: u64) -> Tnum {
        if min > max {
            return Tnum::UNKNOWN;
        }
        let chi = min ^ max;
        let bits = 64 - chi.leading_zeros() as u64;
        if bits > 63 {
            return Tnum::UNKNOWN;
        }
        let delta = (1u64 << bits) - 1;
        Tnum {
            value: min & !delta,
            mask: delta,
        }
    }

    /// Whether the tnum is a fully known constant.
    pub fn is_const(self) -> bool {
        self.mask == 0
    }

    /// Whether nothing is known.
    pub fn is_unknown(self) -> bool {
        self.mask == u64::MAX
    }

    /// Whether a concrete value is a possible concretization.
    pub fn contains(self, v: u64) -> bool {
        (v & !self.mask) == self.value
    }

    /// Left shift by a known amount (`tnum_lshift`).
    pub fn lshift(self, shift: u8) -> Tnum {
        Tnum {
            value: self.value << shift,
            mask: self.mask << shift,
        }
    }

    /// Logical right shift by a known amount (`tnum_rshift`).
    pub fn rshift(self, shift: u8) -> Tnum {
        Tnum {
            value: self.value >> shift,
            mask: self.mask >> shift,
        }
    }

    /// Arithmetic right shift by a known amount within `insn_bitness`
    /// (`tnum_arshift`).
    pub fn arshift(self, shift: u8, insn_bitness: u8) -> Tnum {
        if insn_bitness == 32 {
            Tnum {
                value: ((self.value as u32 as i32) >> shift) as u32 as u64,
                mask: ((self.mask as u32 as i32) >> shift) as u32 as u64,
            }
        } else {
            Tnum {
                value: ((self.value as i64) >> shift) as u64,
                mask: ((self.mask as i64) >> shift) as u64,
            }
        }
    }

    /// Addition (`tnum_add`). Named after the kernel function it
    /// mirrors, not the `Add` trait.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, b: Tnum) -> Tnum {
        let sm = self.mask.wrapping_add(b.mask);
        let sv = self.value.wrapping_add(b.value);
        let sigma = sm.wrapping_add(sv);
        let chi = sigma ^ sv;
        let mu = chi | self.mask | b.mask;
        Tnum {
            value: sv & !mu,
            mask: mu,
        }
    }

    /// Subtraction (`tnum_sub`).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, b: Tnum) -> Tnum {
        let dv = self.value.wrapping_sub(b.value);
        let alpha = dv.wrapping_add(self.mask);
        let beta = dv.wrapping_sub(b.mask);
        let chi = alpha ^ beta;
        let mu = chi | self.mask | b.mask;
        Tnum {
            value: dv & !mu,
            mask: mu,
        }
    }

    /// Bitwise AND (`tnum_and`).
    pub fn and(self, b: Tnum) -> Tnum {
        let alpha = self.value | self.mask;
        let beta = b.value | b.mask;
        let v = self.value & b.value;
        Tnum {
            value: v,
            mask: alpha & beta & !v,
        }
    }

    /// Bitwise OR (`tnum_or`).
    pub fn or(self, b: Tnum) -> Tnum {
        let v = self.value | b.value;
        let mu = self.mask | b.mask;
        Tnum {
            value: v,
            mask: mu & !v,
        }
    }

    /// Bitwise XOR (`tnum_xor`).
    pub fn xor(self, b: Tnum) -> Tnum {
        let v = self.value ^ b.value;
        let mu = self.mask | b.mask;
        Tnum {
            value: v & !mu,
            mask: mu,
        }
    }

    /// Multiplication (`tnum_mul`, the half-multiply formulation).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, b: Tnum) -> Tnum {
        let mut a = self;
        let mut b = b;
        let mut acc = Tnum::const_val(0);
        while a.value != 0 || a.mask != 0 {
            if a.value & 1 != 0 {
                acc = acc.add(Tnum {
                    value: b.value,
                    mask: b.mask,
                });
            } else if a.mask & 1 != 0 {
                acc = acc.add(Tnum {
                    value: 0,
                    mask: b.value | b.mask,
                });
            }
            a = a.rshift(1);
            b = b.lshift(1);
        }
        acc
    }

    /// Intersection: both inputs are known to describe the same value
    /// (`tnum_intersect`).
    pub fn intersect(self, b: Tnum) -> Tnum {
        let v = self.value | b.value;
        let mu = self.mask & b.mask;
        Tnum {
            value: v & !mu,
            mask: mu,
        }
    }

    /// Union: the value is described by either input (`tnum_union`).
    pub fn union(self, b: Tnum) -> Tnum {
        let v = self.value & b.value;
        let mu = self.mask | b.mask | (self.value ^ b.value);
        Tnum {
            value: v & !mu,
            mask: mu,
        }
    }

    /// Whether `self` is a subset of `b` — every value possible under
    /// `self` is possible under `b` (`tnum_in(b, self)` in kernel
    /// argument order).
    pub fn is_subset_of(self, b: Tnum) -> bool {
        if self.mask & !b.mask != 0 {
            return false;
        }
        (self.value & !b.mask) == b.value
    }

    /// Truncates to the low 32 bits (`tnum_cast(., 4)`).
    pub fn cast32(self) -> Tnum {
        Tnum {
            value: self.value & 0xffff_ffff,
            mask: self.mask & 0xffff_ffff,
        }
    }

    /// Truncates to the low `size` bytes (`tnum_cast`).
    pub fn cast(self, size: u8) -> Tnum {
        if size >= 8 {
            return self;
        }
        let keep = (1u64 << (size * 8)) - 1;
        Tnum {
            value: self.value & keep,
            mask: self.mask & keep,
        }
    }

    /// The 32-bit subregister view (`tnum_subreg`).
    pub fn subreg(self) -> Tnum {
        self.cast32()
    }

    /// Clears the low 32 bits (`tnum_clear_subreg`).
    pub fn clear_subreg(self) -> Tnum {
        Tnum {
            value: self.value >> 32 << 32,
            mask: self.mask >> 32 << 32,
        }
    }

    /// Replaces the 32-bit subregister (`tnum_with_subreg`).
    pub fn with_subreg(self, subreg: Tnum) -> Tnum {
        let hi = self.clear_subreg();
        let lo = subreg.cast32();
        Tnum {
            value: hi.value | lo.value,
            mask: hi.mask | lo.mask,
        }
    }

    /// Minimum possible unsigned value.
    pub fn umin(self) -> u64 {
        self.value
    }

    /// Maximum possible unsigned value.
    pub fn umax(self) -> u64 {
        self.value | self.mask
    }
}

impl std::fmt::Display for Tnum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_const() {
            write!(f, "{:#x}", self.value)
        } else if self.is_unknown() {
            write!(f, "?")
        } else {
            write!(f, "(v={:#x};m={:#x})", self.value, self.mask)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_and_unknown() {
        let c = Tnum::const_val(42);
        assert!(c.is_const());
        assert!(c.contains(42));
        assert!(!c.contains(43));
        assert!(Tnum::UNKNOWN.contains(0));
        assert!(Tnum::UNKNOWN.contains(u64::MAX));
    }

    #[test]
    fn range_covers_endpoints() {
        let t = Tnum::range(16, 31);
        assert!(t.contains(16));
        assert!(t.contains(31));
        assert!(t.contains(20));
        assert!(!t.contains(32));
        assert!(!t.contains(15));
        // Degenerate range.
        assert_eq!(Tnum::range(7, 7), Tnum::const_val(7));
        // Inverted range falls back to unknown.
        assert!(Tnum::range(5, 1).is_unknown());
    }

    #[test]
    fn add_sub_consts() {
        let a = Tnum::const_val(100);
        let b = Tnum::const_val(23);
        assert_eq!(a.add(b), Tnum::const_val(123));
        assert_eq!(a.sub(b), Tnum::const_val(77));
        assert_eq!(b.sub(a), Tnum::const_val(77u64.wrapping_neg()));
    }

    #[test]
    fn mul_consts() {
        assert_eq!(
            Tnum::const_val(6).mul(Tnum::const_val(7)),
            Tnum::const_val(42)
        );
        assert_eq!(Tnum::const_val(0).mul(Tnum::UNKNOWN), Tnum::const_val(0));
    }

    #[test]
    fn bitwise_ops() {
        let a = Tnum::const_val(0xf0);
        let b = Tnum::const_val(0x3c);
        assert_eq!(a.and(b), Tnum::const_val(0x30));
        assert_eq!(a.or(b), Tnum::const_val(0xfc));
        assert_eq!(a.xor(b), Tnum::const_val(0xcc));
    }

    #[test]
    fn shifts() {
        let t = Tnum::range(0, 15);
        let l = t.lshift(4);
        assert!(l.contains(0));
        assert!(l.contains(0xf0));
        assert!(!l.contains(0x0f));
        assert_eq!(Tnum::const_val(0x80).rshift(4), Tnum::const_val(8));
        assert_eq!(
            Tnum::const_val(0x8000_0000_0000_0000).arshift(60, 64),
            Tnum::const_val(0xffff_ffff_ffff_fff8)
        );
        assert_eq!(
            Tnum::const_val(0x8000_0000).arshift(28, 32),
            Tnum::const_val(0xffff_fff8)
        );
    }

    #[test]
    fn intersect_and_union() {
        let evens = Tnum::new(0, !1);
        let small = Tnum::range(0, 7);
        let both = evens.intersect(small);
        for v in [0u64, 2, 4, 6] {
            assert!(both.contains(v));
        }
        assert!(!both.contains(1));
        let u = Tnum::const_val(4).union(Tnum::const_val(6));
        assert!(u.contains(4) && u.contains(6));
    }

    #[test]
    fn subset_relation() {
        let small = Tnum::range(0, 7);
        let big = Tnum::range(0, 255);
        assert!(small.is_subset_of(big));
        assert!(!big.is_subset_of(small));
        assert!(Tnum::const_val(3).is_subset_of(small));
        assert!(small.is_subset_of(Tnum::UNKNOWN));
    }

    #[test]
    fn subreg_ops() {
        let t = Tnum::const_val(0x1122_3344_5566_7788);
        assert_eq!(t.subreg(), Tnum::const_val(0x5566_7788));
        assert_eq!(t.clear_subreg(), Tnum::const_val(0x1122_3344_0000_0000));
        assert_eq!(
            t.with_subreg(Tnum::const_val(0xaabb_ccdd)),
            Tnum::const_val(0x1122_3344_aabb_ccdd)
        );
        assert_eq!(t.cast(2), Tnum::const_val(0x7788));
        assert_eq!(t.cast(8), t);
    }

    #[test]
    fn umin_umax() {
        let t = Tnum::range(16, 31);
        assert!(t.umin() <= 16);
        assert!(t.umax() >= 31);
        assert_eq!(Tnum::const_val(9).umin(), 9);
        assert_eq!(Tnum::const_val(9).umax(), 9);
    }
}
