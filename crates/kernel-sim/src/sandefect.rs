//! Injectable defects in the *sanitizer itself* (the bvf-sancheck matrix).
//!
//! [`crate::bugs`] seeds bugs in the verifier and kernel subsystems so the
//! fuzzer can rediscover them; this module does the same to the sanitation
//! layer — the `bpf_asan_*` dispatch, the KASAN shadow bookkeeping, and
//! the instrumentation trampoline's register-preservation contract — so
//! the sanitized-vs-unsanitized differential oracle (`bvf-sancheck`) can
//! be proven to catch sanitizer bugs of every class. UBfuzz showed real
//! sanitizer implementations harbor both false positives and false
//! negatives; each variant here reproduces one such class.
//!
//! A [`SanDefect`] is never enabled in normal campaigns: [`SanDefectSet`]
//! defaults to empty, and every check site reduces to a single branch on
//! an empty bitset. `bvf sancheck --matrix` arms one defect at a time and
//! asserts the oracle's verdict flips.

use serde::{Deserialize, Serialize};

/// Identifier of one injectable sanitizer defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SanDefect {
    /// `asan_mem_check` checks one byte past the real access width — an
    /// off-by-one in the effective redzone boundary. Accesses ending
    /// exactly at an allocation's end falsely report as redzone hits
    /// (false positive).
    RedzoneWidth,
    /// The asan dispatch derives `is_write` with flipped polarity, so
    /// KASAN reports misclassify stores as reads and vice versa. Visible
    /// when the unsanitized run's ground-truth page fault disagrees with
    /// the sanitized run's report metadata.
    WritePolarity,
    /// The exception-table gate in `asan_mem_check` treats *every*
    /// flagged access as extable-fixable — pool-resident poison
    /// (OOB/UAF/redzone) is swallowed along with the genuine fixups, so
    /// the sanitizer never aborts (false negative).
    ExHandledSwallow,
    /// `asan_alu_check` compares the runtime offset with `<` instead of
    /// `<=`, rejecting pointer arithmetic that lands exactly on the
    /// verifier-computed `alu_limit` (false positive).
    AluBoundFlip,
    /// `kfree` forgets to poison the freed chunk's shadow, so the poison
    /// is stale after free and program use-after-free accesses pass the
    /// sanitizer silently (false negative).
    StaleShadowFree,
    /// The asan dispatch decodes the access width one power of two short
    /// (`loadN` confused with `loadN/2`), so wide accesses straddling an
    /// allocation boundary check only their first half (false negative).
    LoadSizeConfusion,
    /// `asan_alu_check` drops the direction term: downward pointer
    /// movement (negative offsets) is held to the upward rule and
    /// rejected outright (false positive).
    AluDirectionFlip,
    /// The asan call trampoline corrupts the caller's `R0` spill slot, so
    /// the register restored after the check is garbage — the sanitizer
    /// breaks the program state it promised to preserve.
    ScratchClobber,
}

impl SanDefect {
    /// All injectable sanitizer defects, in matrix order.
    pub const ALL: [SanDefect; 8] = [
        SanDefect::RedzoneWidth,
        SanDefect::WritePolarity,
        SanDefect::ExHandledSwallow,
        SanDefect::AluBoundFlip,
        SanDefect::StaleShadowFree,
        SanDefect::LoadSizeConfusion,
        SanDefect::AluDirectionFlip,
        SanDefect::ScratchClobber,
    ];

    /// Short name used in matrix output and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            SanDefect::RedzoneWidth => "redzone-width",
            SanDefect::WritePolarity => "write-polarity",
            SanDefect::ExHandledSwallow => "ex-handled-swallow",
            SanDefect::AluBoundFlip => "alu-bound-flip",
            SanDefect::StaleShadowFree => "stale-shadow-free",
            SanDefect::LoadSizeConfusion => "load-size-confusion",
            SanDefect::AluDirectionFlip => "alu-direction-flip",
            SanDefect::ScratchClobber => "scratch-clobber",
        }
    }

    /// Parses a defect from its [`SanDefect::name`].
    pub fn from_name(name: &str) -> Option<SanDefect> {
        SanDefect::ALL.iter().copied().find(|d| d.name() == name)
    }
}

/// The set of sanitizer defects armed in a simulated kernel.
///
/// A compact bitset (the set is consulted on the sanitized-access hot
/// path) that is empty by default — a kernel without explicit injection
/// runs the correct sanitizer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SanDefectSet {
    bits: u16,
}

impl SanDefectSet {
    /// The correct sanitizer: no defects.
    pub fn none() -> SanDefectSet {
        SanDefectSet::default()
    }

    /// A set with exactly one defect armed.
    pub fn only(defect: SanDefect) -> SanDefectSet {
        let mut s = SanDefectSet::none();
        s.enable(defect);
        s
    }

    /// Whether any defect is armed.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Whether the given defect is armed.
    pub fn has(&self, defect: SanDefect) -> bool {
        self.bits & (1 << defect as u16) != 0
    }

    /// Arms a defect.
    pub fn enable(&mut self, defect: SanDefect) {
        self.bits |= 1 << defect as u16;
    }

    /// Disarms a defect.
    pub fn disable(&mut self, defect: SanDefect) {
        self.bits &= !(1 << defect as u16);
    }

    /// The armed defects in matrix order.
    pub fn iter(&self) -> impl Iterator<Item = SanDefect> + '_ {
        SanDefect::ALL.iter().copied().filter(|d| self.has(*d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enable_disable() {
        let mut s = SanDefectSet::none();
        assert!(s.is_empty());
        s.enable(SanDefect::AluBoundFlip);
        s.enable(SanDefect::AluBoundFlip);
        assert!(s.has(SanDefect::AluBoundFlip));
        assert!(!s.has(SanDefect::RedzoneWidth));
        assert_eq!(s.iter().count(), 1);
        s.disable(SanDefect::AluBoundFlip);
        assert!(s.is_empty());
    }

    #[test]
    fn names_round_trip() {
        for d in SanDefect::ALL {
            assert_eq!(SanDefect::from_name(d.name()), Some(d));
        }
        assert_eq!(SanDefect::from_name("no-such-defect"), None);
    }

    #[test]
    fn only_arms_exactly_one() {
        for d in SanDefect::ALL {
            let s = SanDefectSet::only(d);
            assert_eq!(s.iter().collect::<Vec<_>>(), vec![d]);
        }
    }
}
