//! Structural state fingerprints for the explored-state fast path.
//!
//! [`StateShape`] projects a [`VerifierState`] onto the *discrete* facts
//! that [`states_equal`](crate::prune::states_equal) requires to hold
//! exactly: frame count, callsites, per-register type discriminants,
//! the exact fields of every pointer, and per-slot stack-byte shape.
//! The projection is a **pure filter**: if [`StateShape::may_subsume`]
//! returns `false`, `states_equal(old, cur)` is provably `false`, so
//! skipping the full comparison can never change a prune decision (the
//! property test in `tests/prop_prune.rs` pins this). When it returns
//! `true` the full comparison still runs — the fingerprint only prunes
//! impossible candidates.
//!
//! The wildcard masks encode the asymmetry of subsumption:
//!
//! - an old `NOT_INIT` register subsumes *any* current register
//!   (`regsafe` returns `true` unconditionally), so its nibble is
//!   masked out;
//! - an old pointer must match the current one exactly in `off`,
//!   `var_off` and `maybe_null`, so those fields are keyed;
//! - an old `MISC`/mixed stack slot only requires the current bytes to
//!   be initialized, not equal, so its slot is masked out;
//! - an old all-`ZERO` or full-spill slot demands the same shape from
//!   the current slot, so those compare exactly.
//!
//! The same pass computes the state's eviction score
//! ([`StateShape::permissiveness`]); the stack part of both is cached
//! on the frame (see [`FuncState::stack_mut`]).
//!
//! A [`FilterKey`] is a small, fixed-size necessary condition of
//! [`StateShape::may_subsume`]. The prune scans keep it next to each
//! candidate (contiguous in [`ExploredPoint`], inline in the path
//! trace), so most candidates are rejected without dereferencing the
//! stored state or its full shape.

use std::cell::Cell;
use std::rc::Rc;

use crate::state::{
    FuncState, Stack, StackByte, StackSlot, StackSummary, VerifierState, STACK_SLOTS,
};
use crate::types::{RegState, RegType};

/// Nibble-spread helper: maps every nonzero 4-bit lane of `tags` to
/// `0xF` and every zero lane to `0x0`.
fn nibble_mask(tags: u64) -> u64 {
    let mut m = tags | (tags >> 1);
    m |= m >> 2;
    m &= 0x1111_1111_1111_1111;
    m * 0xF
}

/// 2-bit-spread helper: maps every nonzero 2-bit lane of `tags` to
/// `0b11` and every zero lane to `0b00`.
fn pair_mask(tags: u64) -> u64 {
    let mut m = tags | (tags >> 1);
    m &= 0x5555_5555_5555_5555;
    m * 0b11
}

/// Registers summarized per frame (R0..R10); the shape arrays leave
/// room for 16 so four-bit lane packing never overflows.
const SHAPE_REGS: usize = 16;

/// Monotone 16-bit magnitude class: the bit width of `v` in the high
/// byte and the top 8 significant bits of `v` in the low byte — a tiny
/// unsigned float. `v1 <= v2` implies `magnitude_class(v1) <=
/// magnitude_class(v2)`, which is what makes the bounds-class
/// comparisons below *necessary* conditions of `range_within`, while
/// the mantissa still separates nearby values (consecutive integers
/// below 512 always differ).
fn magnitude_class(v: u64) -> u16 {
    let width = 64 - v.leading_zeros();
    let mantissa = if width > 8 { v >> (width - 8) } else { v };
    ((width as u16) << 8) | mantissa as u16
}

/// The pointer key: a hash of the fields `regsafe` requires an old
/// pointer and the current one to share exactly (`off`, `var_off`,
/// `maybe_null`). Equal fields give equal keys, so a key mismatch
/// proves `regsafe` false. This is what separates the iterations of a
/// `ptr += 8` loop, whose states differ only in a pointer's offset.
fn ptr_key(r: &RegState) -> u64 {
    let head = u64::from(r.off as u32) | (u64::from(r.maybe_null) << 32);
    mix(mix(mix(0, head), r.var_off.value), r.var_off.mask)
}

/// The discrete shape of one call frame.
///
/// Besides the type tags and pointer keys, each register carries three
/// monotone *bounds classes* and the low byte of `umin`. `regsafe`
/// demands `range_within(old, cur)` for scalars **and** pointers, and
/// `old.umin <= cur.umin && old.umax >= cur.umax` implies
///
/// - `class(old.umax) >= class(cur.umax)`,
/// - `class(old.umin) <= class(cur.umin)`,
/// - `class(old.umax - old.umin) >= class(cur.umax - cur.umin)`, and
/// - if `old` is a known constant (`umin == umax`), `cur` must be the
///   *same* constant, so the low bytes of `umin` must be equal.
///
/// The last rule is the one with teeth on the loop-detection path: a
/// counting loop revisits its prune point with the same type shape but
/// a different induction value, and the low byte separates consecutive
/// values 255 times out of 256. It is packed into two words so
/// [`FrameShape::may_subsume`] can test it first, in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameShape {
    /// One 4-bit [`RegType::tag`] per register (R0..R10), low nibble =
    /// R0.
    reg_tags: u64,
    /// `0xF` for every register whose tag must match exactly for
    /// subsumption, `0x0` for wildcards (old `NOT_INIT`).
    reg_mask: u64,
    /// Low byte of each register's `umin`, one byte lane per register.
    umin_low: u128,
    /// `0xFF` lanes for the registers this (old) frame holds as known
    /// constants: their `umin_low` lanes must match exactly.
    const_lanes: u128,
    /// Bit `i` set when register `i` holds a pointer.
    ptr_regs: u16,
    /// Per-register [`ptr_key`]; 0 for non-pointers.
    ptr_key: [u64; SHAPE_REGS],
    /// Per-register magnitude class of the unsigned range width
    /// (`umax - umin`); 0 means a known constant.
    width_class: [u16; SHAPE_REGS],
    /// Per-register magnitude class of `umax`.
    umax_class: [u16; SHAPE_REGS],
    /// Per-register magnitude class of `umin`.
    umin_class: [u16; SHAPE_REGS],
    /// Two bits per stack slot (64 slots): `01` = all bytes `ZERO`,
    /// `10` = full spill, `00` = anything else.
    stack_tags: [u64; 2],
    /// `0b11` for slots whose tag must match exactly, `0b00` for
    /// wildcard slots (old `INVALID`/`MISC`/mixed).
    stack_mask: [u64; 2],
}

impl FrameShape {
    /// Projects `frame`, returning its shape and its share of the
    /// eviction score.
    fn of(frame: &FuncState, key: impl Fn(&RegState) -> u64) -> (FrameShape, u64) {
        let mut reg_tags = 0u64;
        let mut umin_low = 0u128;
        let mut const_lanes = 0u128;
        let mut ptr_regs = 0u16;
        let mut ptr_keys = [0u64; SHAPE_REGS];
        let mut width_class = [0u16; SHAPE_REGS];
        let mut umax_class = [0u16; SHAPE_REGS];
        let mut umin_class = [0u16; SHAPE_REGS];
        let mut score = 0u64;
        for (i, r) in frame.regs.iter().enumerate() {
            let tag = r.typ.tag();
            if tag == 0 {
                // NOT_INIT: a wildcard when old, a tag mismatch against
                // any other old type when current — its other lanes are
                // never read.
                score += reg_permissiveness(r);
                continue;
            }
            reg_tags |= u64::from(tag) << (i * 4);
            width_class[i] = magnitude_class(r.umax.wrapping_sub(r.umin));
            umax_class[i] = magnitude_class(r.umax);
            umin_class[i] = magnitude_class(r.umin);
            umin_low |= u128::from(r.umin as u8) << (i * 8);
            if r.umin == r.umax {
                const_lanes |= 0xFF << (i * 8);
            }
            if r.typ.is_pointer() {
                ptr_regs |= 1 << i;
                ptr_keys[i] = key(r);
            }
            score += reg_permissiveness(r);
        }
        let stack = frame.stack_summary.get_or(|| stack_summary(&frame.stack));
        let shape = FrameShape {
            reg_tags,
            reg_mask: nibble_mask(reg_tags),
            umin_low,
            const_lanes,
            ptr_regs,
            ptr_key: ptr_keys,
            width_class,
            umax_class,
            umin_class,
            stack_tags: stack.tags,
            stack_mask: [pair_mask(stack.tags[0]), pair_mask(stack.tags[1])],
        };
        (shape, score + stack.score)
    }

    /// Whether a state with this (old) frame shape can possibly subsume
    /// a state with frame shape `cur`. Every test is a necessary
    /// condition, so their order only affects speed: the most selective
    /// come first.
    fn may_subsume(&self, cur: &FrameShape) -> bool {
        if (self.umin_low ^ cur.umin_low) & self.const_lanes != 0 {
            return false;
        }
        if (self.reg_tags ^ cur.reg_tags) & self.reg_mask != 0 {
            return false;
        }
        // The tags matched, so `cur` holds a pointer wherever `self` does.
        let mut ptrs = self.ptr_regs;
        while ptrs != 0 {
            let i = ptrs.trailing_zeros() as usize;
            if self.ptr_key[i] != cur.ptr_key[i] {
                return false;
            }
            ptrs &= ptrs - 1;
        }
        if (self.stack_tags[0] ^ cur.stack_tags[0]) & self.stack_mask[0] != 0
            || (self.stack_tags[1] ^ cur.stack_tags[1]) & self.stack_mask[1] != 0
        {
            return false;
        }
        for i in 0..SHAPE_REGS {
            if (self.reg_mask >> (i * 4)) & 0xF == 0 {
                // Old NOT_INIT: no assumption, nothing to filter on.
                continue;
            }
            // Necessary consequences of range_within(old, cur); see the
            // struct doc for the derivations.
            if self.width_class[i] < cur.width_class[i]
                || self.umax_class[i] < cur.umax_class[i]
                || self.umin_class[i] > cur.umin_class[i]
            {
                return false;
            }
        }
        true
    }
}

/// The stack part of a frame's fingerprint and eviction score, in one
/// pass over the allocated slots. Every slot past the allocated depth
/// is `INVALID`: shape tag `00` and the score of eight invalid bytes.
fn stack_summary(stack: &Stack) -> StackSummary {
    let mut summary = StackSummary {
        tags: [0; 2],
        score: (STACK_SLOTS - stack.allocated()) as u64 * INVALID_SLOT_SCORE,
    };
    for (i, slot) in stack.iter().enumerate() {
        let (tag, score) = slot_summary(slot);
        summary.tags[i / 32] |= tag << ((i % 32) * 2);
        summary.score += score;
    }
    summary
}

/// The eviction score of an untouched slot: 4 per `INVALID` byte.
const INVALID_SLOT_SCORE: u64 = 8 * 4;

/// One slot's shape tag and eviction score. The three uniform slots a
/// stack is mostly made of (untouched, zeroed, one spilled register)
/// take a fast path; mixed slots score byte by byte.
fn slot_summary(slot: &StackSlot) -> (u64, u64) {
    if slot.bytes == [StackByte::Invalid; 8] {
        (0b00, INVALID_SLOT_SCORE)
    } else if slot.bytes == [StackByte::Zero; 8] {
        (0b01, 0)
    } else if slot.bytes == [StackByte::Spill; 8] {
        (0b10, reg_permissiveness(&slot.spilled) >> 3)
    } else {
        let score = slot
            .bytes
            .iter()
            .map(|b| match b {
                StackByte::Invalid => 4,
                StackByte::Misc => 2,
                StackByte::Zero | StackByte::Spill => 0,
            })
            .sum();
        (0b00, score)
    }
}

/// The structural fingerprint of a [`VerifierState`], computed once per
/// prune-point visit and kept with the state if it is stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateShape {
    /// Hash of the exact-equality preconditions of `states_equal`
    /// (frame count, acquired-ref count, per-frame callsite and
    /// subprogram start). States in different buckets can never be
    /// equal.
    bucket: u64,
    /// The eviction score; see [`StateShape::permissiveness`].
    permissiveness: u64,
    /// The main frame's shape, inline: most states have no other.
    main: FrameShape,
    /// The shapes of the subprogram frames above it, innermost last.
    calls: Vec<FrameShape>,
}

/// SplitMix64 finalizer — the mixing function of the bucket hash, the
/// pointer key and the coverage set's hasher.
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StateShape {
    /// Projects `state` onto its structural fingerprint.
    pub fn of(state: &VerifierState) -> StateShape {
        StateShape::keyed(state, ptr_key)
    }

    /// [`StateShape::of`] with a caller-supplied pointer key. Exists so
    /// tests can check that the property tests catch a weakened key;
    /// everything else uses [`StateShape::of`].
    #[doc(hidden)]
    pub fn of_with_ptr_key(state: &VerifierState, key: fn(&RegState) -> u64) -> StateShape {
        StateShape::keyed(state, key)
    }

    fn keyed(state: &VerifierState, key: impl Fn(&RegState) -> u64 + Copy) -> StateShape {
        let mut bucket = mix(state.frames.len() as u64, state.acquired_refs.len() as u64);
        for f in &state.frames {
            bucket = mix(bucket, f.callsite as u64);
            bucket = mix(bucket, f.subprog_start as u64);
        }
        let (main, mut permissiveness) = FrameShape::of(&state.frames[0], key);
        let calls = state.frames[1..]
            .iter()
            .map(|f| {
                let (shape, score) = FrameShape::of(f, key);
                permissiveness += score;
                shape
            })
            .collect();
        StateShape {
            bucket,
            permissiveness,
            main,
            calls,
        }
    }

    /// The exact-equality key: states with different buckets never
    /// subsume one another.
    pub fn bucket(&self) -> u64 {
        self.bucket
    }

    /// A deterministic "how much does this state admit" score used by
    /// the eviction policy: higher scores subsume more future states.
    /// Only the ordering matters, and only its determinism is
    /// load-bearing.
    pub fn permissiveness(&self) -> u64 {
        self.permissiveness
    }

    /// Whether a stored (old) state with shape `self` can possibly
    /// subsume a current state with shape `cur`. `false` guarantees
    /// `states_equal(old, cur) == false`.
    pub fn may_subsume(&self, cur: &StateShape) -> bool {
        self.bucket == cur.bucket
            && self.calls.len() == cur.calls.len()
            && self.main.may_subsume(&cur.main)
            && self
                .calls
                .iter()
                .zip(&cur.calls)
                .all(|(o, c)| o.may_subsume(c))
    }

    /// The prefilter key of this shape.
    pub fn filter(&self) -> FilterKey {
        let m = &self.main;
        let mut ptr_fold = 0;
        let mut ptrs = m.ptr_regs;
        while ptrs != 0 {
            ptr_fold = mix(ptr_fold, m.ptr_key[ptrs.trailing_zeros() as usize]);
            ptrs &= ptrs - 1;
        }
        FilterKey {
            bucket: self.bucket,
            reg_tags: m.reg_tags,
            reg_mask: m.reg_mask,
            umin_low: [m.umin_low as u64, (m.umin_low >> 64) as u64],
            const_lanes: [m.const_lanes as u64, (m.const_lanes >> 64) as u64],
            ptr_fold,
            ptr_regs: m.ptr_regs,
        }
    }
}

/// The prune prefilter: the bucket and the main frame's most selective
/// fingerprint lanes, plus one hash folding the main frame's pointer
/// keys — small enough (72 bytes) to keep contiguous beside the
/// candidates it screens.
///
/// [`FilterKey::may_pass`] is a necessary condition of
/// [`StateShape::may_subsume`]: every test it makes, `may_subsume`
/// makes too. A prune scan may therefore run it first and drop the
/// candidate on `false` without changing which candidates reach
/// `states_equal` or any counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterKey {
    bucket: u64,
    reg_tags: u64,
    reg_mask: u64,
    umin_low: [u64; 2],
    const_lanes: [u64; 2],
    /// SplitMix64 fold of the pointer keys of the `ptr_regs`
    /// registers, lowest register first.
    ptr_fold: u64,
    ptr_regs: u16,
}

impl FilterKey {
    /// Whether a stored (old) state with key `self` can possibly subsume
    /// a current state with key `cur`. `false` guarantees
    /// `may_subsume` (and so `states_equal`) is `false`.
    pub fn may_pass(&self, cur: &FilterKey) -> bool {
        let lanes = ((self.umin_low[0] ^ cur.umin_low[0]) & self.const_lanes[0])
            | ((self.umin_low[1] ^ cur.umin_low[1]) & self.const_lanes[1]);
        // The pointer folds cover the same registers only when both
        // states hold pointers in the same registers; otherwise the
        // per-register keys in `may_subsume` decide.
        lanes == 0
            && (self.reg_tags ^ cur.reg_tags) & self.reg_mask == 0
            && self.bucket == cur.bucket
            && (self.ptr_regs != cur.ptr_regs || self.ptr_fold == cur.ptr_fold)
    }
}

fn reg_permissiveness(r: &RegState) -> u64 {
    match r.typ {
        // NOT_INIT subsumes everything — the most permissive a
        // register can be.
        RegType::NotInit => 512,
        // Scalars: wider bounds and more unknown tnum bits admit more
        // concrete values.
        RegType::Scalar => {
            let width = 64 - (r.umax.wrapping_sub(r.umin)).leading_zeros() as u64;
            64 + width * 2 + u64::from(r.var_off.mask.count_ones())
        }
        // Pointers require near-exact matches; a nullable pointer is
        // marginally laxer than a proven non-null one.
        _ => u64::from(r.maybe_null),
    }
}

/// One state stored at a prune point, with its fingerprint. One `Rc`
/// is shared by the explored index and the path-trace node created at
/// the same visit, so a prune check's explored scan can reuse what its
/// loop scan already found out about the same state.
#[derive(Debug)]
pub struct ExploredEntry {
    /// The stored state.
    pub state: VerifierState,
    /// Its fingerprint, computed once at the visit that stored it.
    pub shape: StateShape,
    /// `2 * check + compared` for the latest prune check whose loop
    /// scan examined this entry; 0 before any.
    loop_mark: Cell<u64>,
}

impl ExploredEntry {
    /// An entry for `state`, whose fingerprint is `shape`.
    pub fn new(state: VerifierState, shape: StateShape) -> ExploredEntry {
        ExploredEntry {
            state,
            shape,
            loop_mark: Cell::new(0),
        }
    }

    /// Records that the loop scan of prune check `check` examined this
    /// entry, and whether it ran `states_equal` on it (`false`: the
    /// fingerprint ruled it out). Checks are numbered from 1.
    pub(crate) fn mark(&self, check: u64, compared: bool) {
        self.loop_mark.set(2 * check + u64::from(compared));
    }

    /// `Some(compared)` when the loop scan of prune check `check`
    /// examined this entry.
    pub(crate) fn marked(&self, check: u64) -> Option<bool> {
        let m = self.loop_mark.get();
        (m >> 1 == check).then_some(m & 1 == 1)
    }
}

/// The explored states of one prune point.
///
/// Entries sit in fixed slots (eviction replaces in place); `order`
/// lists the slots in scan order — insertion order, with a replaced
/// slot moving to the back. The fast path scans in that order and
/// skips candidates whose fingerprint cannot subsume the current
/// state. `keys` and `scores` mirror each slot's [`FilterKey`] and
/// eviction score, so the prefilter and the choice of a victim read
/// small contiguous arrays instead of every entry.
#[derive(Debug, Clone, Default)]
pub struct ExploredPoint {
    entries: Vec<Rc<ExploredEntry>>,
    keys: Vec<FilterKey>,
    scores: Vec<u64>,
    order: Vec<u8>,
}

impl ExploredPoint {
    /// Number of stored states.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the point has no stored states.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All stored entries, by slot.
    pub fn entries(&self) -> &[Rc<ExploredEntry>] {
        &self.entries
    }

    /// All stored entries in scan order (oldest insertion first), each
    /// with its prefilter key.
    pub fn scan_order(&self) -> impl Iterator<Item = (&FilterKey, &Rc<ExploredEntry>)> {
        self.order.iter().map(|&i| {
            let i = usize::from(i);
            (&self.keys[i], &self.entries[i])
        })
    }

    /// Stores `entry` and its prefilter key, evicting the most
    /// specific resident state when the point is at `cap` (at most
    /// 256). The incoming state is itself dropped when it is the most
    /// specific of the lot — the states most likely to subsume future
    /// paths are the ones kept. Returns `true` when an eviction (either
    /// direction) happened.
    ///
    /// Ties break on the lowest slot, which keeps the policy
    /// deterministic.
    pub fn insert(&mut self, entry: Rc<ExploredEntry>, cap: usize) -> bool {
        let key = entry.shape.filter();
        let score = entry.shape.permissiveness();
        if self.entries.len() < cap {
            self.order.push(self.entries.len() as u8);
            self.entries.push(entry);
            self.keys.push(key);
            self.scores.push(score);
            return false;
        }
        let (idx, &lowest) = self
            .scores
            .iter()
            .enumerate()
            .min_by_key(|&(_, s)| s)
            .expect("cap > 0");
        if score <= lowest {
            // The incoming state admits no more than anything resident:
            // drop it instead.
            return true;
        }
        let slot = idx as u8;
        self.order.retain(|&i| i != slot);
        self.order.push(slot);
        self.entries[idx] = entry;
        self.keys[idx] = key;
        self.scores[idx] = score;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StackSlot;

    fn entry_state() -> VerifierState {
        VerifierState::entry()
    }

    fn ranged_scalar(max: u64) -> RegState {
        let mut r = RegState::unknown_scalar();
        r.umax = max;
        r.smax = max as i64;
        r.var_off = crate::tnum::Tnum::range(0, max);
        r.update_reg_bounds();
        r
    }

    fn entry(state: VerifierState) -> Rc<ExploredEntry> {
        let shape = StateShape::of(&state);
        Rc::new(ExploredEntry::new(state, shape))
    }

    fn permissiveness(state: &VerifierState) -> u64 {
        StateShape::of(state).permissiveness()
    }

    /// The eviction score as a plain two-level walk over every register
    /// and every logical stack byte — the reference the one-pass,
    /// cached computation must reproduce. It reads all `STACK_SLOTS`
    /// slots through `Index`, never the allocated ones only, so the
    /// unallocated slots' share is checked too.
    fn reference_permissiveness(state: &VerifierState) -> u64 {
        let mut score = 0u64;
        for f in &state.frames {
            for r in &f.regs {
                score += reg_permissiveness(r);
            }
            for i in 0..STACK_SLOTS {
                let s = &f.stack[i];
                for b in &s.bytes {
                    score += match b {
                        StackByte::Invalid => 4,
                        StackByte::Misc => 2,
                        StackByte::Zero | StackByte::Spill => 0,
                    };
                }
                if s.is_full_spill() {
                    score += reg_permissiveness(&s.spilled) >> 3;
                }
            }
        }
        score
    }

    fn map_value_ptr() -> RegState {
        RegState::pointer(RegType::PtrToMapValue { map_id: 0 })
    }

    fn with_r2(r: RegState) -> VerifierState {
        let mut s = entry_state();
        s.cur_mut().regs[2] = r;
        s
    }

    fn subsumes(old: &VerifierState, cur: &VerifierState) -> bool {
        StateShape::of(old).may_subsume(&StateShape::of(cur))
    }

    #[test]
    fn identical_states_may_subsume() {
        let a = StateShape::of(&entry_state());
        let b = StateShape::of(&entry_state());
        assert_eq!(a.bucket(), b.bucket());
        assert!(a.may_subsume(&b));
        assert!(b.may_subsume(&a));
    }

    #[test]
    fn not_init_is_a_wildcard() {
        // Old R1 = NOT_INIT must admit a cur with R1 = scalar.
        let mut old = entry_state();
        old.cur_mut().regs[1] = RegState::not_init();
        let cur = entry_state();
        assert!(StateShape::of(&old).may_subsume(&StateShape::of(&cur)));
        // ...but the reverse (old ctx ptr vs cur NOT_INIT) cannot.
        assert!(!StateShape::of(&cur).may_subsume(&StateShape::of(&old)));
    }

    #[test]
    fn scalar_vs_pointer_never_subsumes() {
        let mut old = entry_state();
        old.cur_mut().regs[1] = RegState::unknown_scalar();
        let cur = entry_state(); // R1 = ctx pointer
        assert!(!StateShape::of(&old).may_subsume(&StateShape::of(&cur)));
    }

    #[test]
    fn zero_slot_demands_zero_slot() {
        let mut old = entry_state();
        old.cur_mut().stack_mut()[0] = StackSlot {
            bytes: [StackByte::Zero; 8],
            spilled: RegState::not_init(),
        };
        let cur = entry_state(); // slot 0 untouched (INVALID)
        assert!(!StateShape::of(&old).may_subsume(&StateShape::of(&cur)));
        // An old INVALID slot is a wildcard: admits the zeroed slot.
        assert!(StateShape::of(&cur).may_subsume(&StateShape::of(&old)));
    }

    #[test]
    fn frame_structure_splits_buckets() {
        let one = entry_state();
        let mut two = entry_state();
        two.frames.push(Rc::new(FuncState::new(3, 7)));
        let mut two_other_callsite = entry_state();
        two_other_callsite
            .frames
            .push(Rc::new(FuncState::new(3, 9)));
        assert_ne!(StateShape::of(&one).bucket(), StateShape::of(&two).bucket());
        assert_ne!(
            StateShape::of(&two).bucket(),
            StateShape::of(&two_other_callsite).bucket()
        );
    }

    #[test]
    fn eviction_keeps_the_most_permissive() {
        let mut point = ExploredPoint::default();
        // A very specific state: every reg a known constant.
        let mut specific = entry_state();
        for i in 0..=5 {
            specific.cur_mut().regs[i] = RegState::known_scalar(0);
        }
        // A permissive state: everything unknown.
        let mut permissive = entry_state();
        for i in 0..=5 {
            permissive.cur_mut().regs[i] = RegState::unknown_scalar();
        }
        assert!(!point.insert(entry(specific.clone()), 2));
        assert!(!point.insert(entry(permissive.clone()), 2));
        // A third, mid-permissiveness state evicts the specific one.
        let mut mid = entry_state();
        for i in 0..=5 {
            mid.cur_mut().regs[i] = ranged_scalar(1 << 20);
        }
        assert!(point.insert(entry(mid), 2));
        assert_eq!(point.len(), 2);
        let scores: Vec<u64> = point
            .entries()
            .iter()
            .map(|e| e.shape.permissiveness())
            .collect();
        assert!(scores.iter().all(|&s| s > permissiveness(&specific)));
        // A fully-specific incomer is dropped (still counts as an
        // eviction) and the residents survive.
        let mut very_specific = entry_state();
        for i in 0..=9 {
            very_specific.cur_mut().regs[i] = RegState::known_scalar(3);
        }
        assert!(point.insert(entry(very_specific), 2));
        assert_eq!(
            point
                .entries()
                .iter()
                .map(|e| e.shape.permissiveness())
                .collect::<Vec<_>>(),
            scores
        );
    }

    #[test]
    fn replaced_slot_moves_to_the_back_of_the_scan() {
        let mut point = ExploredPoint::default();
        let scalars = |v: RegState| {
            let mut s = entry_state();
            for i in 0..=5 {
                s.cur_mut().regs[i] = v;
            }
            s
        };
        let specific = entry(scalars(RegState::known_scalar(0)));
        let permissive = entry(scalars(RegState::unknown_scalar()));
        let mid = entry(scalars(ranged_scalar(1 << 20)));
        point.insert(Rc::clone(&specific), 2);
        point.insert(Rc::clone(&permissive), 2);
        // `mid` replaces `specific` in slot 0, but is scanned last.
        assert!(point.insert(Rc::clone(&mid), 2));
        assert!(Rc::ptr_eq(&point.entries()[0], &mid));
        let scan: Vec<_> = point.scan_order().map(|(_, e)| e).collect();
        assert!(Rc::ptr_eq(scan[0], &permissive));
        assert!(Rc::ptr_eq(scan[1], &mid));
    }

    #[test]
    fn pointer_offset_is_keyed() {
        let old = with_r2(map_value_ptr());
        let mut moved = map_value_ptr();
        moved.off = 8;
        let cur = with_r2(moved);
        assert!(!crate::prune::states_equal(&old, &cur));
        assert!(!subsumes(&old, &cur));
        assert!(!subsumes(&cur, &old));
        assert!(subsumes(&old, &with_r2(map_value_ptr())));
    }

    #[test]
    fn pointer_nullness_and_var_off_are_keyed() {
        let old = with_r2(map_value_ptr());
        let mut nullable = map_value_ptr();
        nullable.maybe_null = true;
        assert!(!subsumes(&old, &with_r2(nullable)));
        let mut variable = map_value_ptr();
        variable.var_off = crate::tnum::Tnum::new(0, 0xf0);
        assert!(!subsumes(&old, &with_r2(variable)));
    }

    #[test]
    fn not_init_still_wildcards_a_pointer() {
        let old = with_r2(RegState::not_init());
        let mut moved = map_value_ptr();
        moved.off = 24;
        moved.maybe_null = true;
        assert!(subsumes(&old, &with_r2(moved)));
    }

    #[test]
    fn constant_registers_compare_low_bytes_first() {
        let old = with_r2(RegState::known_scalar(5));
        assert!(!subsumes(&old, &with_r2(RegState::known_scalar(6))));
        assert!(subsumes(&old, &with_r2(RegState::known_scalar(5))));
        // A ranged old register is not a constant: no low-byte test.
        let ranged = with_r2(ranged_scalar(100));
        assert!(subsumes(&ranged, &with_r2(RegState::known_scalar(6))));
    }

    #[test]
    fn one_pass_score_matches_the_reference_walk() {
        let mut s = entry_state();
        let frame = s.cur_mut();
        frame.regs[3] = ranged_scalar(1 << 12);
        let mut spilled = map_value_ptr();
        spilled.maybe_null = true;
        let stack = frame.stack_mut();
        stack[0] = StackSlot {
            bytes: [StackByte::Spill; 8],
            spilled: RegState::unknown_scalar(),
        };
        stack[1] = StackSlot {
            bytes: [StackByte::Spill; 8],
            spilled,
        };
        stack[2].bytes = [StackByte::Zero; 8];
        stack[3].bytes = [StackByte::Misc; 8];
        stack[4].bytes[2] = StackByte::Misc;
        stack[5].bytes[7] = StackByte::Zero;
        stack[6].bytes[0] = StackByte::Spill;
        s.frames.push(Rc::new(FuncState::new(3, 7)));
        assert_eq!(permissiveness(&s), reference_permissiveness(&s));
        assert_eq!(
            permissiveness(&entry_state()),
            reference_permissiveness(&entry_state())
        );
    }

    #[test]
    fn equal_stacks_at_different_depths_share_a_fingerprint() {
        let mut deep = entry_state();
        deep.cur_mut().stack_mut()[40].bytes = [StackByte::Zero; 8];
        deep.cur_mut().stack_mut()[40] = StackSlot::INVALID;
        let shallow = entry_state();
        assert_eq!(deep.cur().stack.allocated(), 41);
        assert_eq!(StateShape::of(&deep), StateShape::of(&shallow));
        assert_eq!(permissiveness(&deep), reference_permissiveness(&deep));
        // The deepest slot still reaches the fingerprint's tags.
        deep.cur_mut().stack_mut()[STACK_SLOTS - 1].bytes = [StackByte::Zero; 8];
        assert!(!subsumes(&deep, &shallow));
        assert!(subsumes(&shallow, &deep));
    }

    fn passes(old: &VerifierState, cur: &VerifierState) -> bool {
        StateShape::of(old)
            .filter()
            .may_pass(&StateShape::of(cur).filter())
    }

    #[test]
    fn prefilter_rejects_constants_types_and_pointer_keys() {
        let old = with_r2(map_value_ptr());
        assert!(passes(&old, &with_r2(map_value_ptr())));
        let mut moved = map_value_ptr();
        moved.off = 8;
        assert!(!passes(&old, &with_r2(moved)), "pointer fold");
        let five = with_r2(RegState::known_scalar(5));
        assert!(!passes(&five, &with_r2(RegState::known_scalar(6))));
        assert!(!passes(&five, &old), "type tags");
        let mut two = entry_state();
        two.frames.push(Rc::new(FuncState::new(3, 7)));
        assert!(!passes(&two, &entry_state()), "bucket");
    }

    #[test]
    fn prefilter_key_stays_small() {
        assert_eq!(std::mem::size_of::<FilterKey>(), 72);
    }

    #[test]
    fn prefilter_leaves_differing_pointer_sets_to_the_fingerprint() {
        // Old R2 is NOT_INIT, current R2 a pointer: the pointer sets
        // differ, so the folds are not comparable and the key passes.
        let old = with_r2(RegState::not_init());
        let cur = with_r2(map_value_ptr());
        assert!(subsumes(&old, &cur));
        assert!(passes(&old, &cur));
    }

    #[test]
    fn stack_summary_is_cached_until_the_stack_is_written() {
        let mut s = entry_state();
        let before = StateShape::of(&s);
        assert!(s.cur().stack_summary.is_filled(), "filled on use");
        assert_eq!(s, entry_state(), "the cache is not part of equality");
        // A register write keeps the stack, and its summary.
        s.cur_mut().regs[3] = RegState::known_scalar(1);
        assert!(s.cur().stack_summary.is_filled());
        s.cur_mut().stack_mut()[0].bytes = [StackByte::Zero; 8];
        assert!(!s.cur().stack_summary.is_filled(), "reset on write");
        let after = StateShape::of(&s);
        assert_ne!(before.main.stack_tags, after.main.stack_tags);
        assert_eq!(permissiveness(&s), reference_permissiveness(&s));
    }
}
