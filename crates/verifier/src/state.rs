//! Verifier states: stack slots, function frames, and whole-path states.
//!
//! Frames and stacks live behind [`Rc`]-based copy-on-write: branching
//! clones a `VerifierState` by bumping reference counts, and the first
//! mutation through [`VerifierState::cur_mut`] /
//! [`FuncState::stack_mut`] unshares only the touched frame (and only
//! its stack when the stack itself is written). Untouched frames stay
//! shared across the DFS worklist, the path trace, and the explored
//! index.
//!
//! Both copies are kept small, because every stored state pays for
//! them: a frame's register file is inline (one allocation per frame),
//! and a [`Stack`] holds only as many slots as the frame has written.

use std::cell::Cell;
use std::ops::{Index, IndexMut};
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use bvf_isa::reg::{MAX_BPF_EXT_REG, STACK_SIZE};
use bvf_isa::Reg;

use crate::types::{RegState, RegType};

/// Number of 8-byte stack slots per frame.
pub const STACK_SLOTS: usize = (STACK_SIZE as usize) / 8;

/// Maximum call depth for bpf-to-bpf calls.
pub const MAX_CALL_FRAMES: usize = 8;

/// Classification of one stack byte (`STACK_*` in the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StackByte {
    /// Never written.
    Invalid,
    /// Part of a spilled register.
    Spill,
    /// Written with arbitrary data.
    Misc,
    /// Known zero.
    Zero,
}

/// One 8-byte stack slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackSlot {
    /// Per-byte classification; index 0 is the lowest address.
    pub bytes: [StackByte; 8],
    /// The register state spilled here (meaningful when all bytes are
    /// [`StackByte::Spill`]).
    pub spilled: RegState,
}

impl Default for StackSlot {
    fn default() -> Self {
        StackSlot::INVALID
    }
}

impl StackSlot {
    /// A never-written slot.
    pub const INVALID: StackSlot = StackSlot {
        bytes: [StackByte::Invalid; 8],
        spilled: RegState::not_init(),
    };

    /// Whether the whole slot holds one spilled register.
    pub fn is_full_spill(&self) -> bool {
        self.bytes.iter().all(|b| *b == StackByte::Spill)
    }
}

/// One frame's stack slots; slot `i` covers bytes `[-8*(i+1), -8*i)`
/// relative to the frame pointer.
///
/// Only as deep as the deepest slot ever written, like the kernel's
/// `allocated_stack`: indexing past that depth reads
/// [`StackSlot::INVALID`], and writing through `IndexMut` grows it.
/// [`Stack::iter`] and [`Stack::iter_mut`] cover the allocated slots
/// only. Equality is over the logical [`STACK_SLOTS`]-slot content, so
/// two stacks that differ only in never-written trailing slots are
/// equal, and serialization writes all [`STACK_SLOTS`] slots.
#[derive(Debug, Clone, Default)]
pub struct Stack(Vec<StackSlot>);

impl Stack {
    /// Number of allocated slots: one past the deepest slot written.
    pub fn allocated(&self) -> usize {
        self.0.len()
    }

    /// The allocated slots, shallowest first.
    pub fn iter(&self) -> std::slice::Iter<'_, StackSlot> {
        self.0.iter()
    }

    /// The allocated slots, mutably.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, StackSlot> {
        self.0.iter_mut()
    }
}

impl Index<usize> for Stack {
    type Output = StackSlot;

    fn index(&self, slot: usize) -> &StackSlot {
        self.0.get(slot).unwrap_or_else(|| {
            assert!(slot < STACK_SLOTS, "stack slot {slot} out of range");
            &StackSlot::INVALID
        })
    }
}

impl IndexMut<usize> for Stack {
    fn index_mut(&mut self, slot: usize) -> &mut StackSlot {
        if slot >= self.0.len() {
            assert!(slot < STACK_SLOTS, "stack slot {slot} out of range");
            self.0.resize(slot + 1, StackSlot::INVALID);
        }
        &mut self.0[slot]
    }
}

impl PartialEq for Stack {
    fn eq(&self, other: &Stack) -> bool {
        let (short, long) = if self.0.len() <= other.0.len() {
            (&self.0, &other.0)
        } else {
            (&other.0, &self.0)
        };
        long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|s| *s == StackSlot::INVALID)
    }
}

impl Serialize for Stack {
    fn to_value(&self) -> serde::Value {
        let slots: Vec<StackSlot> = (0..STACK_SLOTS).map(|i| self[i]).collect();
        slots.to_value()
    }
}

impl Deserialize for Stack {
    fn from_value(v: &serde::Value) -> Result<Stack, serde::Error> {
        let slots = Vec::<StackSlot>::from_value(v)?;
        if slots.len() > STACK_SLOTS {
            return Err(serde::Error::custom("stack deeper than STACK_SLOTS"));
        }
        Ok(Stack(slots))
    }
}

/// State of one call frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuncState {
    /// Register states, indexed by register number (includes `Ax`).
    /// Inline, so cloning a frame is a single allocation.
    pub regs: [RegState; MAX_BPF_EXT_REG as usize],
    /// The frame's stack. Copy-on-write: reads go through `Deref`,
    /// writes through [`FuncState::stack_mut`], so cloning a frame that
    /// never touches its stack shares it.
    /// Never assign it directly: [`FuncState::stack_mut`] also drops
    /// `stack_summary`, which would otherwise go stale.
    pub stack: Rc<Stack>,
    /// Instruction index to return to (caller's call insn + 1); 0 for the
    /// main frame.
    pub callsite: usize,
    /// Subprogram entry instruction of this frame.
    pub subprog_start: usize,
    /// The stack's fingerprint summary, computed on first use by
    /// [`crate::shape::StateShape::of`] and reset by
    /// [`FuncState::stack_mut`]. Stacks change far less often than
    /// registers, so most prune checks reuse it.
    pub(crate) stack_summary: SummaryCache,
}

/// The stack part of a frame's fingerprint: per-slot shape tags (two
/// bits per slot) and the stack's share of the eviction score.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StackSummary {
    /// `01` = all bytes `ZERO`, `10` = full spill, `00` = anything
    /// else; slot `i` at bits `2 * (i % 32)` of word `i / 32`.
    pub tags: [u64; 2],
    /// The stack's contribution to [`crate::shape::StateShape::permissiveness`].
    pub score: u64,
}

/// A lazily filled [`StackSummary`]. A derived cache, so it compares
/// equal to every other cache and serializes as `null`: two frames with
/// the same stack are equal whether or not either summary is filled.
#[derive(Debug, Clone, Default)]
pub(crate) struct SummaryCache(Cell<Option<StackSummary>>);

impl SummaryCache {
    /// The cached summary, computing it with `f` on first use.
    pub(crate) fn get_or(&self, f: impl FnOnce() -> StackSummary) -> StackSummary {
        if let Some(s) = self.0.get() {
            return s;
        }
        let s = f();
        self.0.set(Some(s));
        s
    }

    fn clear(&mut self) {
        *self.0.get_mut() = None;
    }

    #[cfg(test)]
    pub(crate) fn is_filled(&self) -> bool {
        self.0.get().is_some()
    }
}

impl PartialEq for SummaryCache {
    fn eq(&self, _: &SummaryCache) -> bool {
        true
    }
}

impl Serialize for SummaryCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for SummaryCache {
    fn from_value(_: &serde::Value) -> Result<SummaryCache, serde::Error> {
        Ok(SummaryCache::default())
    }
}

impl FuncState {
    /// A fresh frame with all registers uninitialized.
    pub fn new(subprog_start: usize, callsite: usize) -> FuncState {
        FuncState {
            regs: [RegState::not_init(); MAX_BPF_EXT_REG as usize],
            stack: Rc::new(Stack::default()),
            callsite,
            subprog_start,
            stack_summary: SummaryCache::default(),
        }
    }

    /// The entry frame: `R1` = context, `R10` = frame pointer.
    pub fn entry() -> FuncState {
        let mut f = FuncState::new(0, 0);
        f.regs[Reg::R1.index()] = RegState::pointer(RegType::PtrToCtx);
        f.regs[Reg::R10.index()] = RegState::pointer(RegType::PtrToStack);
        f
    }

    /// Read access to a register state.
    pub fn reg(&self, r: Reg) -> &RegState {
        &self.regs[r.index()]
    }

    /// Mutable access to a register state.
    pub fn reg_mut(&mut self, r: Reg) -> &mut RegState {
        &mut self.regs[r.index()]
    }

    /// Mutable access to the stack slots, unsharing them first if the
    /// stack is shared with another state (copy-on-write).
    pub fn stack_mut(&mut self) -> &mut Stack {
        self.stack_summary.clear();
        Rc::make_mut(&mut self.stack)
    }

    /// Converts a frame-pointer-relative offset to `(slot, byte)` indices.
    ///
    /// Valid offsets are `-512..=-1`.
    pub fn stack_index(off: i32) -> Option<(usize, usize)> {
        if !(-STACK_SIZE..0).contains(&off) {
            return None;
        }
        let from_bottom = (off + STACK_SIZE) as usize; // 0..512
        let slot = STACK_SLOTS - 1 - from_bottom / 8;
        let byte = from_bottom % 8;
        Some((slot, byte))
    }

    /// Marks caller-saved registers clobbered after a helper/kfunc call.
    pub fn clobber_caller_saved(&mut self) {
        for r in [Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
            self.regs[r.index()] = RegState::not_init();
        }
    }
}

/// A tracked acquired reference (ringbuf record, task reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefState {
    /// Reference id (matches `RegState::ref_obj_id`).
    pub id: u32,
    /// Instruction index of the acquiring call (for diagnostics).
    pub insn_idx: usize,
}

/// Full verifier state for one explored path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifierState {
    /// Call frames; the last one is current. Copy-on-write: cloning a
    /// state bumps refcounts, and [`VerifierState::cur_mut`] unshares
    /// only the frame being mutated.
    pub frames: Vec<Rc<FuncState>>,
    /// Acquired, not-yet-released references.
    pub acquired_refs: Vec<RefState>,
}

impl VerifierState {
    /// Entry state of the main program.
    pub fn entry() -> VerifierState {
        VerifierState {
            frames: vec![Rc::new(FuncState::entry())],
            acquired_refs: Vec::new(),
        }
    }

    /// The current (innermost) frame.
    pub fn cur(&self) -> &FuncState {
        self.frames.last().expect("at least one frame")
    }

    /// Mutable current frame, unshared first if another state still
    /// holds it (copy-on-write).
    pub fn cur_mut(&mut self) -> &mut FuncState {
        Rc::make_mut(self.frames.last_mut().expect("at least one frame"))
    }

    /// Current call depth (0 = main).
    pub fn depth(&self) -> usize {
        self.frames.len() - 1
    }

    /// Registers a newly acquired reference and returns its id.
    pub fn acquire_ref(&mut self, next_id: &mut u32, insn_idx: usize) -> u32 {
        *next_id += 1;
        let id = *next_id;
        self.acquired_refs.push(RefState { id, insn_idx });
        id
    }

    /// Releases a reference; false if it was not held.
    pub fn release_ref(&mut self, id: u32) -> bool {
        let before = self.acquired_refs.len();
        self.acquired_refs.retain(|r| r.id != id);
        let released = self.acquired_refs.len() != before;
        if released {
            // Invalidate every register (in all frames) that held it,
            // unsharing only the frames that actually change.
            for frame in &mut self.frames {
                let regs_hit = frame.regs.iter().any(|r| r.ref_obj_id == id);
                let stack_hit = frame.stack.iter().any(|s| s.spilled.ref_obj_id == id);
                if !regs_hit && !stack_hit {
                    continue;
                }
                let frame = Rc::make_mut(frame);
                if regs_hit {
                    for r in &mut frame.regs {
                        if r.ref_obj_id == id {
                            *r = RegState::not_init();
                        }
                    }
                }
                if stack_hit {
                    for s in frame.stack_mut().iter_mut() {
                        if s.spilled.ref_obj_id == id {
                            *s = StackSlot::default();
                        }
                    }
                }
            }
        }
        released
    }

    /// Marks every register in every frame that shares `id` — used when a
    /// null check resolves a nullable pointer.
    pub fn for_each_reg_with_id(&mut self, id: u32, mut f: impl FnMut(&mut RegState)) {
        if id == 0 {
            return;
        }
        for frame in &mut self.frames {
            let regs_hit = frame.regs.iter().any(|r| r.id == id);
            let stack_hit = frame
                .stack
                .iter()
                .any(|s| s.is_full_spill() && s.spilled.id == id);
            if !regs_hit && !stack_hit {
                continue;
            }
            let frame = Rc::make_mut(frame);
            for r in &mut frame.regs {
                if r.id == id {
                    f(r);
                }
            }
            if stack_hit {
                for s in frame.stack_mut().iter_mut() {
                    if s.is_full_spill() && s.spilled.id == id {
                        f(&mut s.spilled);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_state_regs() {
        let st = VerifierState::entry();
        assert_eq!(st.cur().reg(Reg::R1).typ, RegType::PtrToCtx);
        assert_eq!(st.cur().reg(Reg::R10).typ, RegType::PtrToStack);
        assert_eq!(st.cur().reg(Reg::R0).typ, RegType::NotInit);
        assert_eq!(st.depth(), 0);
    }

    #[test]
    fn stack_index_mapping() {
        // fp-8 is the highest slot, byte 0.
        assert_eq!(FuncState::stack_index(-8), Some((0, 0)));
        assert_eq!(FuncState::stack_index(-1), Some((0, 7)));
        assert_eq!(FuncState::stack_index(-9), Some((1, 7)));
        assert_eq!(FuncState::stack_index(-16), Some((1, 0)));
        assert_eq!(FuncState::stack_index(-512), Some((63, 0)));
        assert_eq!(FuncState::stack_index(0), None);
        assert_eq!(FuncState::stack_index(-513), None);
        assert_eq!(FuncState::stack_index(8), None);
    }

    #[test]
    fn ref_acquire_release() {
        let mut st = VerifierState::entry();
        let mut next = 0;
        let id = st.acquire_ref(&mut next, 3);
        assert_eq!(id, 1);
        st.cur_mut().reg_mut(Reg::R0).ref_obj_id = id;
        assert!(st.release_ref(id));
        assert_eq!(st.cur().reg(Reg::R0).typ, RegType::NotInit);
        assert!(!st.release_ref(id), "double release detected");
    }

    #[test]
    fn id_correlation_touches_spills() {
        let mut st = VerifierState::entry();
        let mut r = RegState::pointer(RegType::PtrToMapValue { map_id: 0 });
        r.maybe_null = true;
        r.id = 7;
        *st.cur_mut().reg_mut(Reg::R3) = r;
        st.cur_mut().stack_mut()[0] = StackSlot {
            bytes: [StackByte::Spill; 8],
            spilled: r,
        };
        let mut count = 0;
        st.for_each_reg_with_id(7, |reg| {
            reg.maybe_null = false;
            count += 1;
        });
        assert_eq!(count, 2);
        assert!(!st.cur().reg(Reg::R3).maybe_null);
        assert!(!st.cur().stack[0].spilled.maybe_null);
    }

    #[test]
    fn clone_shares_frames_until_written() {
        let mut a = VerifierState::entry();
        let b = a.clone();
        assert!(Rc::ptr_eq(&a.frames[0], &b.frames[0]), "clone is a share");
        a.cur_mut().reg_mut(Reg::R0).id = 9;
        assert!(
            !Rc::ptr_eq(&a.frames[0], &b.frames[0]),
            "write unshares the frame"
        );
        assert_eq!(b.cur().reg(Reg::R0).id, 0, "reader unaffected");
        // A register write leaves the stack itself shared…
        assert!(Rc::ptr_eq(&a.frames[0].stack, &b.frames[0].stack));
        // …until the stack is written.
        a.cur_mut().stack_mut()[0].bytes[0] = StackByte::Misc;
        assert!(!Rc::ptr_eq(&a.frames[0].stack, &b.frames[0].stack));
        assert_eq!(b.cur().stack[0].bytes[0], StackByte::Invalid);
    }

    fn spill(r: RegState) -> StackSlot {
        StackSlot {
            bytes: [StackByte::Spill; 8],
            spilled: r,
        }
    }

    #[test]
    fn read_past_the_allocated_depth_is_invalid() {
        let mut stack = Stack::default();
        assert_eq!(stack.allocated(), 0);
        assert_eq!(stack[0], StackSlot::INVALID);
        stack[2].bytes[0] = StackByte::Misc;
        assert_eq!(stack[3], StackSlot::INVALID);
        assert_eq!(stack[STACK_SLOTS - 1].bytes, [StackByte::Invalid; 8]);
        assert_eq!(stack.allocated(), 3, "reads never grow the stack");
    }

    #[test]
    fn writing_slot_k_allocates_k_plus_one_slots() {
        for k in [0, 1, 7, STACK_SLOTS - 1] {
            let mut stack = Stack::default();
            stack[k].bytes = [StackByte::Zero; 8];
            assert_eq!(stack.allocated(), k + 1);
            assert_eq!(stack.iter().count(), k + 1);
            assert!(stack.iter().take(k).all(|s| *s == StackSlot::INVALID));
            // A shallower write leaves the depth alone.
            stack[0].bytes[1] = StackByte::Misc;
            assert_eq!(stack.allocated(), k + 1);
        }
    }

    #[test]
    fn equal_content_at_different_depths_is_equal() {
        let mut deep = VerifierState::entry();
        let mut shallow = VerifierState::entry();
        let zero = StackSlot {
            bytes: [StackByte::Zero; 8],
            spilled: RegState::not_init(),
        };
        deep.cur_mut().stack_mut()[1] = zero;
        shallow.cur_mut().stack_mut()[1] = zero;
        // Written and reset: allocated, yet logically untouched.
        deep.cur_mut().stack_mut()[20] = zero;
        deep.cur_mut().stack_mut()[20] = StackSlot::INVALID;
        assert_eq!(deep.cur().stack.allocated(), 21);
        assert_eq!(shallow.cur().stack.allocated(), 2);
        assert_eq!(deep, shallow);
        assert_eq!(shallow, deep);
        assert!(crate::prune::states_equal(&deep, &shallow));
        assert!(crate::prune::states_equal(&shallow, &deep));
        // Different content past the shorter depth is not equal.
        deep.cur_mut().stack_mut()[20].bytes[0] = StackByte::Misc;
        assert_ne!(deep, shallow);
        assert_ne!(shallow, deep);
        assert!(crate::prune::states_equal(&shallow, &deep));
        assert!(!crate::prune::states_equal(&deep, &shallow));
    }

    #[test]
    fn the_deepest_slot_is_reached_by_release_and_id_walks() {
        let mut st = VerifierState::entry();
        let mut next = 0;
        let id = st.acquire_ref(&mut next, 1);
        let mut owned = RegState::pointer(RegType::PtrToMapValue { map_id: 0 });
        owned.ref_obj_id = id;
        st.cur_mut().stack_mut()[STACK_SLOTS - 1] = spill(owned);
        assert!(st.release_ref(id));
        assert_eq!(st.cur().stack[STACK_SLOTS - 1], StackSlot::INVALID);

        let mut nullable = RegState::pointer(RegType::PtrToMapValue { map_id: 0 });
        nullable.maybe_null = true;
        nullable.id = 4;
        st.cur_mut().stack_mut()[STACK_SLOTS - 1] = spill(nullable);
        let mut count = 0;
        st.for_each_reg_with_id(4, |reg| {
            reg.maybe_null = false;
            count += 1;
        });
        assert_eq!(count, 1);
        assert!(!st.cur().stack[STACK_SLOTS - 1].spilled.maybe_null);
    }

    #[test]
    fn clobber_caller_saved() {
        let mut f = FuncState::entry();
        *f.reg_mut(Reg::R6) = RegState::known_scalar(1);
        *f.reg_mut(Reg::R3) = RegState::known_scalar(2);
        f.clobber_caller_saved();
        assert_eq!(f.reg(Reg::R3).typ, RegType::NotInit);
        assert_eq!(f.reg(Reg::R6).const_value(), Some(1), "callee-saved kept");
        assert_eq!(f.reg(Reg::R10).typ, RegType::PtrToStack);
    }
}
