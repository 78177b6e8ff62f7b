//! State pruning (`states_equal` / `regsafe` / `stacksafe`).
//!
//! When a path reaches a prune point in a state no more permissive than
//! one already verified from that point, exploration stops. "No more
//! permissive" means: every scalar's range is inside the old range, every
//! pointer matches exactly, every stack byte is at least as initialized,
//! and packet ranges are at least as large.

use crate::state::{FuncState, StackByte, VerifierState};
use crate::types::{RegState, RegType};

/// Whether `cur` is subsumed by the already-verified `old`.
pub fn states_equal(old: &VerifierState, cur: &VerifierState) -> bool {
    if old.frames.len() != cur.frames.len() {
        return false;
    }
    if old.acquired_refs.len() != cur.acquired_refs.len() {
        return false;
    }
    for (fo, fc) in old.frames.iter().zip(&cur.frames) {
        // Copy-on-write fast path: a frame shared between both states
        // is the *same* frame, and a frame always subsumes itself.
        if std::rc::Rc::ptr_eq(fo, fc) {
            continue;
        }
        if fo.callsite != fc.callsite || fo.subprog_start != fc.subprog_start {
            return false;
        }
        if !funcsafe(fo, fc) {
            return false;
        }
    }
    true
}

fn funcsafe(old: &FuncState, cur: &FuncState) -> bool {
    for (ro, rc) in old.regs.iter().zip(&cur.regs) {
        if !regsafe(ro, rc) {
            return false;
        }
    }
    // Shared stacks are identical; a stack subsumes itself.
    if std::rc::Rc::ptr_eq(&old.stack, &cur.stack) {
        return true;
    }
    // Slots past the old stack's allocated depth are `INVALID`, which
    // admits anything; the current stack is read through `Index`, which
    // sees `INVALID` past its own depth.
    for (i, so) in old.stack.iter().enumerate() {
        let sc = &cur.stack[i];
        for (bo, bc) in so.bytes.iter().zip(&sc.bytes) {
            let ok = match bo {
                StackByte::Invalid => true,
                StackByte::Misc => !matches!(bc, StackByte::Invalid),
                StackByte::Zero => matches!(bc, StackByte::Zero),
                StackByte::Spill => matches!(bc, StackByte::Spill),
            };
            if !ok {
                return false;
            }
        }
        if so.is_full_spill() {
            if !sc.is_full_spill() {
                return false;
            }
            if !regsafe(&so.spilled, &sc.spilled) {
                return false;
            }
        }
    }
    true
}

/// Whether register state `cur` is within what `old` was verified for.
pub fn regsafe(old: &RegState, cur: &RegState) -> bool {
    match old.typ {
        // The old path made no assumption about this register.
        RegType::NotInit => true,
        RegType::Scalar => {
            if cur.typ != RegType::Scalar {
                return false;
            }
            range_within(old, cur) && cur.var_off.is_subset_of(old.var_off)
        }
        _ => {
            // Pointers must match precisely (modulo ids, which are
            // path-local correlation tags).
            if std::mem::discriminant(&old.typ) != std::mem::discriminant(&cur.typ) {
                return false;
            }
            if old.typ != cur.typ {
                // Differing payloads (map id, btf id, mem size).
                return false;
            }
            if old.off != cur.off || old.var_off != cur.var_off {
                return false;
            }
            if old.maybe_null != cur.maybe_null {
                return false;
            }
            if !range_within(old, cur) {
                return false;
            }
            // The old path was verified assuming `old.pkt_range` bytes
            // are accessible; cur must guarantee at least as much.
            if cur.pkt_range < old.pkt_range {
                return false;
            }
            if (old.ref_obj_id == 0) != (cur.ref_obj_id == 0) {
                return false;
            }
            true
        }
    }
}

/// `range_within`: cur's ranges fit inside old's.
fn range_within(old: &RegState, cur: &RegState) -> bool {
    old.smin <= cur.smin
        && old.smax >= cur.smax
        && old.umin <= cur.umin
        && old.umax >= cur.umax
        && old.s32_min <= cur.s32_min
        && old.s32_max >= cur.s32_max
        && old.u32_min <= cur.u32_min
        && old.u32_max >= cur.u32_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tnum::Tnum;

    #[test]
    fn notinit_old_subsumes_everything() {
        let old = RegState::not_init();
        assert!(regsafe(&old, &RegState::known_scalar(5)));
        assert!(regsafe(&old, &RegState::pointer(RegType::PtrToCtx)));
    }

    #[test]
    fn scalar_range_subsumption() {
        let mut old = RegState::unknown_scalar();
        old.umin = 0;
        old.umax = 100;
        old.normalize();
        let mut cur = RegState::unknown_scalar();
        cur.umin = 10;
        cur.umax = 50;
        cur.normalize();
        assert!(regsafe(&old, &cur));
        assert!(!regsafe(&cur, &old), "wider cur is not subsumed");
    }

    #[test]
    fn scalar_tnum_subsumption() {
        let mut old = RegState::unknown_scalar();
        old.var_off = Tnum::new(0, !1); // even numbers
        let mut cur = RegState::unknown_scalar();
        cur.var_off = Tnum::const_val(4);
        cur.set_known(4);
        assert!(regsafe(&old, &cur));
        let mut odd = RegState::unknown_scalar();
        odd.set_known(5);
        assert!(!regsafe(&old, &odd));
    }

    #[test]
    fn pointer_exact_match_required() {
        let a = RegState::pointer(RegType::PtrToMapValue { map_id: 0 });
        let mut b = a;
        assert!(regsafe(&a, &b));
        b.off = 8;
        assert!(!regsafe(&a, &b));
        let c = RegState::pointer(RegType::PtrToMapValue { map_id: 1 });
        assert!(!regsafe(&a, &c), "different map");
        let mut d = a;
        d.maybe_null = true;
        assert!(!regsafe(&a, &d));
    }

    #[test]
    fn packet_range_direction() {
        let mut old = RegState::pointer(RegType::PtrToPacket);
        old.pkt_range = 8;
        let mut cur = old;
        cur.pkt_range = 16;
        assert!(regsafe(&old, &cur), "bigger verified range is safe");
        cur.pkt_range = 4;
        assert!(!regsafe(&old, &cur), "smaller range is not");
    }

    #[test]
    fn whole_state_stack_subsumption() {
        let old = VerifierState::entry();
        let mut cur = VerifierState::entry();
        assert!(states_equal(&old, &cur));
        // cur has extra initialization — still subsumed.
        cur.cur_mut().stack_mut()[0].bytes = [StackByte::Misc; 8];
        assert!(states_equal(&old, &cur));
        // old requires init that cur lacks — not subsumed.
        let mut old2 = VerifierState::entry();
        old2.cur_mut().stack_mut()[0].bytes = [StackByte::Misc; 8];
        let cur2 = VerifierState::entry();
        assert!(!states_equal(&old2, &cur2));
    }

    #[test]
    fn ref_count_mismatch_blocks_pruning() {
        let old = VerifierState::entry();
        let mut cur = VerifierState::entry();
        let mut next = 0;
        cur.acquire_ref(&mut next, 1);
        assert!(!states_equal(&old, &cur));
    }
}
