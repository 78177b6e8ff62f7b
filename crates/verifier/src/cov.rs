//! Branch coverage instrumentation of the verifier.
//!
//! The paper compiles the eBPF source with kcov and feeds branch coverage
//! back to the fuzzer. Here the verifier itself is the instrumented
//! artifact: decision points throughout the analysis record a *coverage
//! point* — a `(category, a, b)` triple identifying which logic ran with
//! which operands (instruction class handled, register-type arm taken in
//! the memory checker, helper argument accepted/rejected, error emitted,
//! ...). Distinct points accumulate in a [`Coverage`] set; the fuzzer
//! treats growth of this set exactly as BVF treats new kcov branches.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Category of a coverage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u16)]
pub enum Cat {
    /// Instruction-class dispatch in `do_check`.
    InsnClass = 1,
    /// ALU operation simulated (op, is64).
    AluOp = 2,
    /// Pointer-arithmetic path (ptr type, op).
    PtrAlu = 3,
    /// Memory access check arm (reg type, write).
    MemAccess = 4,
    /// Context field validated (offset, write).
    CtxField = 5,
    /// Stack slot operation (kind, spill).
    StackOp = 6,
    /// Conditional-jump refinement (jmp op, operand kind).
    JmpRefine = 7,
    /// Branch-taken decision (op, direction).
    BranchTaken = 8,
    /// Helper argument check (helper id, arg index).
    HelperArg = 9,
    /// Helper call accepted (helper id).
    HelperOk = 10,
    /// Kfunc call checked (kfunc id).
    Kfunc = 11,
    /// Verifier error emitted (error site).
    Error = 12,
    /// State pruning outcome (hit/miss).
    Prune = 13,
    /// Nullness / null-branch handling arm.
    NullTrack = 14,
    /// Packet-range refinement.
    PktRange = 15,
    /// LD_IMM64 pseudo resolution arm.
    Pseudo = 16,
    /// Rewrite/fixup pass arm.
    Fixup = 17,
    /// Subprogram / call-frame handling.
    Subprog = 18,
    /// Reference acquire/release tracking.
    RefTrack = 19,
    /// Bounds algebra special case.
    Bounds = 20,
    /// Atomic instruction handling.
    Atomic = 21,
}

/// A fixed SplitMix64 hasher for coverage keys.
///
/// `hit` runs on every processed instruction, so the set's hasher is on
/// the verifier's hot path. Point keys are not attacker-chosen and no
/// caller reads the set's iteration order (serialization sorts, and
/// [`Coverage::to_sorted_points`] is the stable form), so std's
/// randomly keyed SipHash buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointHasher(u64);

impl Hasher for PointHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = crate::shape::mix(self.0, v);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of distinct coverage points.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coverage {
    points: HashSet<u64, BuildHasherDefault<PointHasher>>,
}

impl Coverage {
    /// An empty coverage map.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Records a point.
    pub fn hit(&mut self, cat: Cat, a: u32, b: u32) {
        let key = ((cat as u64) << 48) | ((a as u64 & 0xffff_ffff) << 16) | (b as u64 & 0xffff);
        self.points.insert(key);
    }

    /// Number of distinct points covered.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether nothing was covered.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Merges another coverage map in; returns how many points were new.
    pub fn merge(&mut self, other: &Coverage) -> usize {
        let before = self.points.len();
        self.points.extend(other.points.iter().copied());
        self.points.len() - before
    }

    /// Whether `other` contains any point not already in `self`.
    pub fn has_new(&self, other: &Coverage) -> bool {
        other.points.iter().any(|p| !self.points.contains(p))
    }

    /// Whether the raw point key `p` is covered.
    pub fn contains_point(&self, p: u64) -> bool {
        self.points.contains(&p)
    }

    /// Inserts a raw point key; returns whether it was new.
    pub fn insert_point(&mut self, p: u64) -> bool {
        self.points.insert(p)
    }

    /// Iterates the raw point keys (unordered).
    pub fn iter_points(&self) -> impl Iterator<Item = u64> + '_ {
        self.points.iter().copied()
    }

    /// The raw point keys in sorted order — the stable on-disk form used
    /// by corpus snapshots.
    pub fn to_sorted_points(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.points.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Rebuilds a coverage set from raw point keys.
    pub fn from_points(points: impl IntoIterator<Item = u64>) -> Coverage {
        Coverage {
            points: points.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_points_accumulate() {
        let mut c = Coverage::new();
        c.hit(Cat::InsnClass, 1, 0);
        c.hit(Cat::InsnClass, 1, 0);
        c.hit(Cat::InsnClass, 2, 0);
        c.hit(Cat::MemAccess, 1, 0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn categories_do_not_collide() {
        let mut c = Coverage::new();
        c.hit(Cat::AluOp, 5, 1);
        c.hit(Cat::PtrAlu, 5, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn point_hasher_is_fixed_and_spreads_keys() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PointHasher>::default();
        let a = build.hash_one(7u64);
        assert_eq!(a, build.hash_one(7u64), "no per-instance key");
        // Keys that differ only in the low bits land far apart.
        assert!((a ^ build.hash_one(8u64)).count_ones() > 8);
    }

    #[test]
    fn serialized_points_are_sorted() {
        let c = Coverage::from_points([9u64 << 48, 3, 1 << 20]);
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(
            json,
            format!("{{\"points\":[3,{},{}]}}", 1u64 << 20, 9u64 << 48)
        );
        let back: Coverage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn merge_counts_new_points() {
        let mut a = Coverage::new();
        a.hit(Cat::Error, 1, 0);
        let mut b = Coverage::new();
        b.hit(Cat::Error, 1, 0);
        b.hit(Cat::Error, 2, 0);
        assert!(a.has_new(&b));
        assert_eq!(a.merge(&b), 1);
        assert!(!a.has_new(&b));
        assert_eq!(a.len(), 2);
    }
}
