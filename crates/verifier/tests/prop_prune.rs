//! Property tests: the explored-state fingerprint is a *pure filter*.
//!
//! The fast path skips a `states_equal(old, cur)` comparison whenever
//! `StateShape::of(old).may_subsume(&StateShape::of(cur))` is `false`
//! (or the bucket keys differ). That is only sound if the implication
//!
//! ```text
//! states_equal(old, cur)  ⇒  bucket(old) == bucket(cur)
//!                            && shape(old).may_subsume(shape(cur))
//! ```
//!
//! holds for *every* pair of states — a single counterexample would mean
//! the index can suppress a legitimate prune and change exploration.
//! The first property fuzzes exactly that implication over arbitrary
//! state pairs.
//!
//! The pointer-key property checks the other direction for the fields
//! the fingerprint keys exactly: two states that differ only in one
//! pointer's `off`, `var_off` or `maybe_null` must be told apart. A
//! seeded defect (a key that forgets `var_off`) shows that property has
//! teeth.
//!
//! The prefilter properties pin [`FilterKey`](bvf_verifier::FilterKey)
//! between the two: a prefilter rejection proves `states_equal` false,
//! and every pair the fingerprint admits passes the prefilter — the
//! second is what keeps the prune counters unchanged when the scans
//! test the key first. A seeded defect (a key that also hashes the
//! path-local `id`) shows the properties catch a prefilter that rejects
//! too much.
//!
//! The last property checks the pure-filter fact end to end: verifying
//! a random program with the index on and off must produce the
//! identical verdict, instruction count, and coverage — the index may
//! only change how many comparisons run, never their outcome.

use std::rc::Rc;

use bvf_isa::{asm, AluOp, JmpOp, Program, Reg, Size};
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::{BugSet, Kernel};
use bvf_verifier::prune::states_equal;
use bvf_verifier::state::{FuncState, StackByte, StackSlot, VerifierState, STACK_SLOTS};
use bvf_verifier::types::{RegState, RegType};
use bvf_verifier::{verify, StateShape, Tnum, VerifierOpts};
use proptest::prelude::*;

/// The pointer fields `regsafe` requires to match exactly, drawn from
/// small domains so equal and unequal pairs both come up often: `off`,
/// `var_off` and `maybe_null` — plus the path-local `id`, which
/// `regsafe` ignores.
fn arb_ptr_fields() -> impl Strategy<Value = PtrFields> {
    (0i32..3, 0usize..3, any::<bool>(), 0u32..2).prop_map(|(off, var, maybe_null, id)| {
        let var_off = [Tnum::const_val(0), Tnum::new(0, 0xf0), Tnum::new(8, 0x30)][var];
        (off * 8, var_off, maybe_null, id)
    })
}

/// `off`, `var_off`, `maybe_null` and `id` of a pointer.
type PtrFields = (i32, Tnum, bool, u32);

fn with_fields(mut r: RegState, (off, var_off, maybe_null, id): PtrFields) -> RegState {
    r.off = off;
    r.var_off = var_off;
    r.maybe_null = maybe_null;
    r.id = id;
    r
}

/// An arbitrary register state covering every [`RegType`] discriminant
/// the generator can reach, with scalar bounds that are sometimes wide
/// and sometimes tight (so subsumption holds often enough for the
/// implication to be exercised in the non-vacuous direction), and
/// pointers whose keyed fields vary.
fn arb_reg() -> impl Strategy<Value = RegState> {
    prop_oneof![
        Just(RegState::not_init()),
        Just(RegState::unknown_scalar()),
        (0u64..1 << 48).prop_map(RegState::known_scalar),
        (0u64..1 << 48).prop_map(|max| {
            let mut r = RegState::unknown_scalar();
            r.umax = max;
            r.smax = max as i64;
            r.var_off = bvf_verifier::Tnum::range(0, max);
            r.update_reg_bounds();
            r
        }),
        Just(RegState::pointer(RegType::PtrToCtx)),
        arb_ptr_fields().prop_map(|f| with_fields(RegState::pointer(RegType::PtrToStack), f)),
        (0u32..3, arb_ptr_fields()).prop_map(|(map_id, f)| {
            with_fields(RegState::pointer(RegType::PtrToMapValue { map_id }), f)
        }),
        arb_ptr_fields().prop_map(|f| with_fields(RegState::pointer(RegType::PtrToPacket), f)),
        (0u32..3).prop_map(|map_id| RegState::pointer(RegType::ConstPtrToMap { map_id })),
    ]
}

/// An arbitrary stack slot: untouched, misc-initialized, zeroed, a full
/// spill, or a mixed partial write.
fn arb_slot() -> impl Strategy<Value = StackSlot> {
    prop_oneof![
        Just(StackSlot {
            bytes: [StackByte::Invalid; 8],
            spilled: RegState::not_init(),
        }),
        Just(StackSlot {
            bytes: [StackByte::Misc; 8],
            spilled: RegState::not_init(),
        }),
        Just(StackSlot {
            bytes: [StackByte::Zero; 8],
            spilled: RegState::not_init(),
        }),
        arb_reg().prop_map(|spilled| StackSlot {
            bytes: [StackByte::Spill; 8],
            spilled,
        }),
        Just(StackSlot {
            bytes: [
                StackByte::Misc,
                StackByte::Misc,
                StackByte::Invalid,
                StackByte::Invalid,
                StackByte::Zero,
                StackByte::Zero,
                StackByte::Misc,
                StackByte::Invalid,
            ],
            spilled: RegState::not_init(),
        }),
    ]
}

/// An arbitrary verifier state: 1–2 call frames, randomized registers,
/// a few randomized stack slots, and 0–1 acquired references. Slots are
/// written at random indices — mostly the first four, so pairs often
/// overlap, sometimes anywhere in the frame — so allocated stack depths
/// vary, and an untouched slot written as `INVALID` deepens a stack
/// without changing its content.
fn arb_state() -> impl Strategy<Value = VerifierState> {
    let index = (0usize..STACK_SLOTS, 0u8..4).prop_map(|(i, w)| if w < 3 { i % 4 } else { i });
    (
        proptest::collection::vec(arb_reg(), 10),
        proptest::collection::vec((index, arb_slot()), 0..6),
        0usize..2,
        0usize..2,
    )
        .prop_map(|(regs, slots, extra_frames, refs)| {
            let mut state = VerifierState::entry();
            {
                let frame = state.cur_mut();
                for (i, r) in regs.into_iter().enumerate() {
                    frame.regs[i] = r;
                }
                let stack = frame.stack_mut();
                for (i, s) in slots {
                    stack[i] = s;
                }
            }
            for i in 0..extra_frames {
                state.frames.push(Rc::new(FuncState::new(3 + i, 7)));
            }
            let mut next_id = 1;
            for _ in 0..refs {
                state.acquire_ref(&mut next_id, 5);
            }
            state
        })
}

proptest! {

    /// The load-bearing implication: whenever the full comparison says
    /// `old` subsumes `cur`, the fingerprint must have admitted the
    /// pair. (Contrapositive: a fingerprint mismatch proves
    /// `states_equal` false, so skipping it is sound.)
    #[test]
    fn fingerprint_mismatch_implies_states_not_equal(
        old in arb_state(),
        cur in arb_state(),
    ) {
        let so = StateShape::of(&old);
        let sc = StateShape::of(&cur);
        if states_equal(&old, &cur) {
            prop_assert_eq!(so.bucket(), sc.bucket(),
                "equal states landed in different buckets");
            prop_assert!(so.may_subsume(&sc),
                "fingerprint rejected a subsuming pair");
        }
    }

    /// A state always subsumes itself, and its fingerprint must agree.
    #[test]
    fn reflexivity_survives_the_filter(state in arb_state()) {
        prop_assert!(states_equal(&state, &state));
        let s = StateShape::of(&state);
        prop_assert!(s.may_subsume(&s));
    }

    /// The pointer key is exact: states that differ only in one
    /// pointer's keyed fields are admitted exactly when those fields
    /// agree.
    #[test]
    fn pointer_key_is_exact(case in arb_ptr_case()) {
        prop_assert!(ptr_case_holds(&case, StateShape::of), "{:?}", case.1);
    }

    /// The prefilter sits between `states_equal` and the fingerprint,
    /// on arbitrary pairs.
    #[test]
    fn prefilter_is_sound_and_implied_by_the_fingerprint(
        old in arb_state(),
        cur in arb_state(),
    ) {
        prop_assert!(prefilter_holds(&old, &cur, StateShape::of));
    }

    /// The same on pairs that differ in one pointer only, where
    /// `states_equal` holds often.
    #[test]
    fn prefilter_admits_what_the_fingerprint_admits(case in arb_ptr_case()) {
        let (old, cur) = ptr_case_states(&case);
        prop_assert!(prefilter_holds(&old, &cur, StateShape::of), "{:?}", case.1);
    }

    /// The same on pairs where `old` is `cur` with some registers
    /// forgotten, so `old` always subsumes `cur` and the two often hold
    /// pointers in different registers.
    #[test]
    fn prefilter_admits_widened_states((old, cur) in arb_widened_pair()) {
        prop_assert!(states_equal(&old, &cur));
        prop_assert!(prefilter_holds(&old, &cur, StateShape::of));
    }
}

/// A state and a copy of it with the registers of a random mask reset
/// to `NOT_INIT`: `(old, cur)` with `old` subsuming `cur`.
fn arb_widened_pair() -> impl Strategy<Value = (VerifierState, VerifierState)> {
    (arb_state(), 0u16..1 << 10).prop_map(|(cur, forget)| {
        let mut old = cur.clone();
        for i in (0..10).filter(|i| forget >> i & 1 == 1) {
            old.cur_mut().regs[i] = RegState::not_init();
        }
        (old, cur)
    })
}

/// Both prefilter properties for `(old, cur)` with shapes from
/// `shape_of`: a prefilter rejection implies `!states_equal`, and
/// `may_subsume` implies the prefilter passes.
fn prefilter_holds(
    old: &VerifierState,
    cur: &VerifierState,
    shape_of: fn(&VerifierState) -> StateShape,
) -> bool {
    let (so, sc) = (shape_of(old), shape_of(cur));
    let pass = so.filter().may_pass(&sc.filter());
    // A rejection must prove both comparisons false.
    pass || (!states_equal(old, cur) && !so.may_subsume(&sc))
}

/// A base state, a register index, and the old and current pointer that
/// register holds: one type, fields drawn independently.
type PtrCase = (VerifierState, (usize, RegState, RegState));

fn arb_ptr_case() -> impl Strategy<Value = PtrCase> {
    let ptr = (0usize..3, 0u32..2).prop_map(|(kind, map_id)| {
        RegState::pointer(match kind {
            0 => RegType::PtrToStack,
            1 => RegType::PtrToPacket,
            _ => RegType::PtrToMapValue { map_id },
        })
    });
    (
        arb_state(),
        (0usize..10, ptr, arb_ptr_fields(), arb_ptr_fields())
            .prop_map(|(i, r, old, cur)| (i, with_fields(r, old), with_fields(r, cur))),
    )
}

/// The case's old and current state.
fn ptr_case_states((base, (i, old_reg, cur_reg)): &PtrCase) -> (VerifierState, VerifierState) {
    let mut old = base.clone();
    old.cur_mut().regs[*i] = *old_reg;
    let mut cur = base.clone();
    cur.cur_mut().regs[*i] = *cur_reg;
    (old, cur)
}

/// Whether `shape_of` separates the case's two states exactly when
/// their pointers' keyed fields differ.
fn ptr_case_holds(case: &PtrCase, shape_of: fn(&VerifierState) -> StateShape) -> bool {
    let (_, (_, old_reg, cur_reg)) = case;
    let (old, cur) = ptr_case_states(case);
    let same = (old_reg.off, old_reg.var_off, old_reg.maybe_null)
        == (cur_reg.off, cur_reg.var_off, cur_reg.maybe_null);
    states_equal(&old, &cur) == same && shape_of(&old).may_subsume(&shape_of(&cur)) == same
}

/// The seeded defect: a pointer key that forgets `var_off`.
fn key_without_var_off(r: &RegState) -> u64 {
    u64::from(r.off as u32) | (u64::from(r.maybe_null) << 32)
}

/// The pointer-key property must catch a key that omits `var_off`, on
/// a fixed seed within the usual case budget — otherwise it would pass
/// a filter that lets every `var_off` mismatch through to
/// `states_equal`.
#[test]
fn pointer_key_property_catches_a_key_without_var_off() {
    use proptest::__SeedableRng;
    let weak = |s: &VerifierState| StateShape::of_with_ptr_key(s, key_without_var_off);
    let mut rng = proptest::TestRng::seed_from_u64(13);
    let caught = (0..proptest::CASES)
        .map(|_| arb_ptr_case().sample(&mut rng))
        .filter(|case| !ptr_case_holds(case, weak))
        .count();
    assert!(caught > 0, "the weakened key went unnoticed");
    // The real key passes the same cases.
    let mut rng = proptest::TestRng::seed_from_u64(13);
    assert!((0..proptest::CASES)
        .all(|_| ptr_case_holds(&arb_ptr_case().sample(&mut rng), StateShape::of)));
}

/// The seeded prefilter defect: a pointer key that also hashes the
/// path-local `id`, so the prefilter rejects pairs `states_equal`
/// accepts.
fn key_with_id(r: &RegState) -> u64 {
    let head = u64::from(r.off as u32) | (u64::from(r.maybe_null) << 32) | (u64::from(r.id) << 33);
    head ^ r.var_off.value.rotate_left(21) ^ r.var_off.mask.rotate_left(42)
}

/// The prefilter properties must catch a key that hashes `id`, on a
/// fixed seed within the usual case budget — otherwise they would pass
/// a prefilter that drops subsuming candidates and silently disables
/// pruning.
#[test]
fn prefilter_properties_catch_a_key_with_ids() {
    use proptest::__SeedableRng;
    let weak = |s: &VerifierState| StateShape::of_with_ptr_key(s, key_with_id);
    let holds = |case: &PtrCase, shape_of: fn(&VerifierState) -> StateShape| {
        let (old, cur) = ptr_case_states(case);
        prefilter_holds(&old, &cur, shape_of)
    };
    let mut rng = proptest::TestRng::seed_from_u64(17);
    let caught = (0..proptest::CASES)
        .map(|_| arb_ptr_case().sample(&mut rng))
        .filter(|case| !holds(case, weak))
        .count();
    assert!(caught > 0, "the id-hashing prefilter went unnoticed");
    let mut rng = proptest::TestRng::seed_from_u64(17);
    assert!((0..proptest::CASES).all(|_| holds(&arb_ptr_case().sample(&mut rng), StateShape::of)));
}

/// Instruction soup for the end-to-end property: ALU ops, bounded
/// conditional jumps (forward and backward), and stack accesses — enough
/// to create join points, loops, and prune-point traffic. Many programs
/// are invalid; rejection must then be identical with the index on and
/// off.
fn arb_program() -> impl Strategy<Value = Program> {
    const REGS: [Reg; 5] = [Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4];
    const ALU: [AluOp; 6] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Rsh,
    ];
    const JMP: [JmpOp; 4] = [JmpOp::Jeq, JmpOp::Jne, JmpOp::Jgt, JmpOp::Jsgt];
    let insn =
        (0u8..7, 0usize..5, 0usize..5, -64i32..64, -4i16..6).prop_map(|(kind, a, b, imm, off)| {
            match kind {
                0 => asm::mov64_imm(REGS[a], imm),
                1 => asm::mov64_reg(REGS[a], REGS[b]),
                2 => asm::alu64_imm(ALU[a % ALU.len()], REGS[b], imm & 31),
                3 => asm::alu64_reg(ALU[a % ALU.len()], REGS[b], REGS[a]),
                4 => asm::jmp_imm(JMP[a % JMP.len()], REGS[b], imm, off),
                5 => asm::st_mem(Size::Dw, Reg::R10, -8, imm),
                _ => asm::ldx_mem(Size::Dw, REGS[a], Reg::R10, -8),
            }
        });
    proptest::collection::vec(insn, 1..24).prop_map(|mut insns| {
        insns.push(asm::mov64_imm(Reg::R0, 0));
        insns.push(asm::exit());
        Program::from_insns(insns)
    })
}

/// The projection of a verification outcome that must be identical with
/// the fingerprint index on and off.
fn verdict(prog: &Program, prune_index: bool) -> (Result<usize, String>, bvf_verifier::Coverage) {
    let kernel = Kernel::new(BugSet::none());
    let opts = VerifierOpts {
        insn_limit: 20_000,
        prune_index,
        ..Default::default()
    };
    let out = verify(&kernel, prog, ProgType::SocketFilter, &opts);
    let result = out
        .result
        .map(|p| p.insns_processed)
        .map_err(|e| e.to_string());
    (result, out.cov)
}

proptest! {

    /// End to end: the index changes how many `states_equal` calls run,
    /// never the exploration itself. Verdict, instruction count, and
    /// branch coverage must be bit-identical with the index on and off.
    #[test]
    fn index_on_and_off_verify_identically(prog in arb_program()) {
        prop_assert_eq!(verdict(&prog, true), verdict(&prog, false));
    }
}
