//! ALU instruction checking: scalar bounds tracking and pointer
//! arithmetic (`adjust_scalar_min_max_vals` / `adjust_ptr_min_max_vals`).

use bvf_isa::{AluOp, Endianness, InsnKind, Reg};
use bvf_kernel_sim::BugId;

use crate::cov::Cat;
use crate::env::{AluLimitMeta, Verifier};
use crate::errors::{RejectReason, VerifierError};
use crate::state::VerifierState;
use crate::tnum::Tnum;
use crate::types::{RegState, RegType};

/// A resolved ALU source operand: either a register snapshot or an
/// immediate lifted to a known scalar.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SrcOperand {
    pub reg: RegState,
    /// The source register, when the operand came from one.
    pub src_reg: Option<Reg>,
}

impl<'a> Verifier<'a> {
    /// Merges an `alu_limit` candidate for instruction `pc` with what
    /// other paths recorded; see `alu_limit_state`.
    pub(crate) fn merge_alu_limit(
        &mut self,
        pc: usize,
        candidate: Option<crate::env::AluLimitMeta>,
    ) {
        let slot = &mut self.alu_limit_state[pc];
        *slot = Some(match (*slot, candidate) {
            // First path through this instruction.
            (None, c) => c,
            (Some(Some(a)), Some(b))
                if a.scalar_reg == b.scalar_reg && a.downward == b.downward =>
            {
                Some(crate::env::AluLimitMeta {
                    limit: a.limit.max(b.limit),
                    ..a
                })
            }
            _ => None,
        });
    }

    /// Checks one ALU-class instruction.
    pub(crate) fn check_alu(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        kind: &InsnKind,
    ) -> Result<(), VerifierError> {
        match *kind {
            InsnKind::AluReg {
                op, is64, dst, src, ..
            } => {
                self.cov.hit(Cat::AluOp, op as u32, is64 as u32);
                self.check_reg_init(state, src, pc)?;
                if op == AluOp::Mov {
                    // `sync_linked_regs` linkage: a 64-bit scalar move
                    // makes both registers refer to the same value; give
                    // them a shared id so later range refinements apply
                    // to both.
                    if is64
                        && state.cur().reg(src).typ == RegType::Scalar
                        && state.cur().reg(src).id == 0
                    {
                        let id = self.new_id();
                        state.cur_mut().reg_mut(src).id = id;
                    }
                    let src_state = *state.cur().reg(src);
                    return self.do_mov(
                        state,
                        pc,
                        dst,
                        SrcOperand {
                            reg: src_state,
                            src_reg: Some(src),
                        },
                        is64,
                    );
                }
                let src_state = *state.cur().reg(src);
                self.check_reg_init(state, dst, pc)?;
                self.do_binary_alu(
                    state,
                    pc,
                    op,
                    dst,
                    SrcOperand {
                        reg: src_state,
                        src_reg: Some(src),
                    },
                    is64,
                )
            }
            InsnKind::AluImm {
                op, is64, dst, imm, ..
            } => {
                self.cov.hit(Cat::AluOp, op as u32, 2 + is64 as u32);
                let imm_reg = if is64 {
                    RegState::known_scalar(imm as i64 as u64)
                } else {
                    RegState::known_scalar(imm as u32 as u64)
                };
                if op == AluOp::Mov {
                    return self.do_mov(
                        state,
                        pc,
                        dst,
                        SrcOperand {
                            reg: imm_reg,
                            src_reg: None,
                        },
                        is64,
                    );
                }
                self.check_reg_init(state, dst, pc)?;
                if matches!(op, AluOp::Div | AluOp::Mod) && imm == 0 {
                    self.cov.hit(Cat::Error, 100, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::DivByZeroPath,
                        pc,
                        "division by zero",
                    ));
                }
                if matches!(op, AluOp::Lsh | AluOp::Rsh | AluOp::Arsh) {
                    let width = if is64 { 64 } else { 32 };
                    if imm < 0 || imm >= width {
                        self.cov.hit(Cat::Error, 101, 0);
                        return Err(VerifierError::invalid(
                            RejectReason::InvalidShift,
                            pc,
                            format!("invalid shift {imm}"),
                        ));
                    }
                }
                self.do_binary_alu(
                    state,
                    pc,
                    op,
                    dst,
                    SrcOperand {
                        reg: imm_reg,
                        src_reg: None,
                    },
                    is64,
                )
            }
            InsnKind::Neg { is64, dst } => {
                self.cov.hit(Cat::AluOp, AluOp::Neg as u32, is64 as u32);
                self.check_reg_init(state, dst, pc)?;
                let r = state.cur().reg(dst);
                if r.typ.is_pointer() {
                    self.cov.hit(Cat::Error, 102, 0);
                    return Err(VerifierError::access(
                        RejectReason::PtrArithForbidden,
                        pc,
                        format!("R{} pointer arithmetic with neg prohibited", dst.as_u8()),
                    )
                    .with_reg(dst.as_u8()));
                }
                let out = match r.const_value() {
                    Some(v) => {
                        let neg = v.wrapping_neg();
                        RegState::known_scalar(if is64 { neg } else { neg as u32 as u64 })
                    }
                    None => RegState::unknown_scalar(),
                };
                *state.cur_mut().reg_mut(dst) = out;
                Ok(())
            }
            InsnKind::Endian {
                endianness,
                bits,
                dst,
            } => {
                self.cov.hit(Cat::AluOp, AluOp::End as u32, bits as u32);
                self.check_reg_init(state, dst, pc)?;
                let r = state.cur().reg(dst);
                if r.typ.is_pointer() {
                    self.cov.hit(Cat::Error, 103, 0);
                    return Err(VerifierError::access(
                        RejectReason::PtrArithForbidden,
                        pc,
                        format!("R{} byte swap on pointer prohibited", dst.as_u8()),
                    )
                    .with_reg(dst.as_u8()));
                }
                // Byte swaps scramble bounds; keep only constants. The
                // fold must match the runtime exactly: on a little-endian
                // host `to_le` only truncates to the operand size, while
                // `to_be` and the unconditional `bswap` swap bytes.
                let out = match r.const_value() {
                    Some(v) => {
                        let folded = match endianness {
                            Endianness::Le => match bits {
                                16 => v as u16 as u64,
                                32 => v as u32 as u64,
                                _ => v,
                            },
                            Endianness::Be | Endianness::Swap => match bits {
                                16 => (v as u16).swap_bytes() as u64,
                                32 => (v as u32).swap_bytes() as u64,
                                _ => v.swap_bytes(),
                            },
                        };
                        RegState::known_scalar(folded)
                    }
                    None => RegState::unknown_scalar(),
                };
                *state.cur_mut().reg_mut(dst) = out;
                Ok(())
            }
            _ => unreachable!("non-ALU instruction routed to check_alu"),
        }
    }

    /// Ensures a register has been initialized before reading.
    pub(crate) fn check_reg_init(
        &mut self,
        state: &VerifierState,
        reg: Reg,
        pc: usize,
    ) -> Result<(), VerifierError> {
        if state.cur().reg(reg).typ == RegType::NotInit {
            self.cov.hit(Cat::Error, 104, reg.as_u8() as u32);
            return Err(VerifierError::access(
                RejectReason::UninitRegRead,
                pc,
                format!("R{} !read_ok", reg.as_u8()),
            )
            .with_reg(reg.as_u8()));
        }
        Ok(())
    }

    fn do_mov(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        dst: Reg,
        src: SrcOperand,
        is64: bool,
    ) -> Result<(), VerifierError> {
        if src.reg.typ == RegType::NotInit {
            self.cov.hit(Cat::Error, 104, 0);
            return Err(VerifierError::access(
                RejectReason::UninitRegRead,
                pc,
                "mov from uninitialized register",
            ));
        }
        let mut out = src.reg;
        if !is64 {
            if out.typ.is_pointer() {
                if self.opts.unprivileged {
                    self.cov.hit(Cat::Error, 120, 0);
                    return Err(VerifierError::access(
                        RejectReason::UnprivPtrOp,
                        pc,
                        format!("R{} partial copy of pointer", dst.as_u8()),
                    )
                    .with_reg(dst.as_u8()));
                }
                // A 32-bit move truncates a pointer into an opaque scalar.
                out = RegState::unknown_scalar();
                out.umax = u32::MAX as u64;
                out.u32_max = u32::MAX;
                out.normalize();
            } else {
                out.var_off = out.var_off.subreg();
                out.zext_32_to_64();
                out.id = 0;
            }
        }
        *state.cur_mut().reg_mut(dst) = out;
        Ok(())
    }

    fn do_binary_alu(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        op: AluOp,
        dst: Reg,
        src: SrcOperand,
        is64: bool,
    ) -> Result<(), VerifierError> {
        let dst_state = *state.cur().reg(dst);
        let dst_is_ptr = dst_state.typ.is_pointer();
        let src_is_ptr = src.reg.typ.is_pointer();

        if !is64 && (dst_is_ptr || src_is_ptr) {
            self.cov.hit(Cat::Error, 105, 0);
            return Err(VerifierError::access(
                RejectReason::PtrArithForbidden,
                pc,
                "32-bit ALU on pointer prohibited",
            ));
        }

        if dst_is_ptr || src_is_ptr {
            return self.adjust_ptr_alu(state, pc, op, dst, dst_state, src);
        }

        // Pure scalar arithmetic. The result is a new value: sever any
        // equal-scalar linkage.
        let mut out = dst_state;
        out.id = 0;
        if is64 && op == AluOp::Or && self.has_bug(BugId::BoundsRefinement) {
            // Bug #12: the buggy refinement "knows" OR cannot exceed the
            // larger operand, but 4 | 2 = 6: the result umax can undercut
            // reachable values. Constant operands self-contradict with the
            // tnum and collapse to unknown below; variable operands keep
            // an internally consistent, unsoundly tight state that only
            // the differential oracle (Indicator #3) can observe.
            scalar_alu64(op, &mut out, &src.reg, 64);
            out.umax = dst_state.umax.max(src.reg.umax);
            out.combine_64_into_32();
            out.normalize();
            if !out.bounds_sane() {
                out.mark_unknown();
            }
        } else {
            scalar_transfer(op, is64, &mut out, &src.reg);
        }
        *state.cur_mut().reg_mut(dst) = out;
        Ok(())
    }

    /// Pointer arithmetic (`adjust_ptr_min_max_vals`).
    fn adjust_ptr_alu(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        op: AluOp,
        dst: Reg,
        dst_state: RegState,
        src: SrcOperand,
    ) -> Result<(), VerifierError> {
        let src_state = src.reg;
        self.cov
            .hit(Cat::PtrAlu, dst_state.typ.name().len() as u32, op as u32);

        // ptr - ptr of the same kind yields an opaque scalar — a pointer
        // leak, prohibited for unprivileged loads.
        if op == AluOp::Sub && dst_state.typ.is_pointer() && src_state.typ.is_pointer() {
            if self.opts.unprivileged {
                self.cov.hit(Cat::Error, 121, 0);
                return Err(VerifierError::access(
                    RejectReason::UnprivPtrOp,
                    pc,
                    format!("R{} pointer subtraction prohibited", dst.as_u8()),
                )
                .with_reg(dst.as_u8()));
            }
            if std::mem::discriminant(&dst_state.typ) == std::mem::discriminant(&src_state.typ) {
                *state.cur_mut().reg_mut(dst) = RegState::unknown_scalar();
                return Ok(());
            }
            self.cov.hit(Cat::Error, 106, 0);
            return Err(VerifierError::access(
                RejectReason::PtrArithForbidden,
                pc,
                format!(
                    "R{} invalid subtraction of differing pointer types",
                    dst.as_u8()
                ),
            ));
        }

        if !matches!(op, AluOp::Add | AluOp::Sub) {
            self.cov.hit(Cat::Error, 107, op as u32);
            return Err(VerifierError::access(
                RejectReason::PtrArithForbidden,
                pc,
                format!(
                    "R{} pointer arithmetic with {} operator prohibited",
                    dst.as_u8(),
                    op.symbol()
                ),
            ));
        }

        // Identify (pointer, scalar) orientation.
        let (ptr, scalar, ptr_in_dst) = if dst_state.typ.is_pointer() {
            if src_state.typ.is_pointer() {
                self.cov.hit(Cat::Error, 108, 0);
                return Err(VerifierError::access(
                    RejectReason::PtrArithForbidden,
                    pc,
                    "pointer += pointer prohibited",
                ));
            }
            (dst_state, src_state, true)
        } else {
            // scalar ± ptr: only `scalar + ptr` commutes into `ptr + scalar`.
            if op == AluOp::Sub {
                self.cov.hit(Cat::Error, 109, 0);
                return Err(VerifierError::access(
                    RejectReason::PtrArithForbidden,
                    pc,
                    "cannot subtract pointer from scalar",
                ));
            }
            (src_state, dst_state, false)
        };
        let _ = ptr_in_dst;

        // Nullable pointers must be null-checked before arithmetic — the
        // improper check of CVE-2022-23222 allowed exactly this.
        if ptr.maybe_null && !self.has_bug(BugId::CveAluOnNullablePtr) {
            self.cov.hit(Cat::Error, 110, 0);
            return Err(VerifierError::access(
                RejectReason::PtrArithForbidden,
                pc,
                format!(
                    "R{} pointer arithmetic on {}_or_null prohibited, null-check it first",
                    dst.as_u8(),
                    ptr.typ.name()
                ),
            )
            .with_reg(dst.as_u8()));
        }

        match ptr.typ {
            RegType::ConstPtrToMap { .. } | RegType::PtrToPacketEnd => {
                self.cov.hit(Cat::Error, 111, 0);
                return Err(VerifierError::access(
                    RejectReason::PtrArithForbidden,
                    pc,
                    format!(
                        "R{} pointer arithmetic on {} prohibited",
                        dst.as_u8(),
                        ptr.typ.name()
                    ),
                )
                .with_reg(dst.as_u8()));
            }
            RegType::PtrToCtx
                // Only constant offsets keep a ctx pointer usable.
                if scalar.const_value().is_none() => {
                    self.cov.hit(Cat::Error, 112, 0);
                    return Err(VerifierError::access(
                        RejectReason::CtxAccessInvalid,
                        pc,
                        "variable ctx access prohibited",
                    ));
                }
            _ => {}
        }

        let mut out = ptr;

        if let Some(c) = scalar.const_value() {
            // A constant-operand path through this instruction cannot be
            // covered by a single runtime bound shared with variable
            // paths; drop any recorded check for the instruction.
            self.merge_alu_limit(pc, None);
            let delta = if op == AluOp::Add {
                c as i64
            } else {
                (c as i64).wrapping_neg()
            };
            let new_off = (out.off as i64).checked_add(delta);
            match new_off {
                Some(v) if (i32::MIN as i64..=i32::MAX as i64).contains(&v) => {
                    out.off = v as i32;
                }
                _ => {
                    self.cov.hit(Cat::Error, 113, 0);
                    return Err(VerifierError::access(
                        RejectReason::PtrArithOutOfRange,
                        pc,
                        "pointer offset out of range",
                    ));
                }
            }
            // Constant movement keeps the packet id and range; access
            // checks account for the fixed offset against the range.
        } else {
            // Unprivileged: variable pointer arithmetic needs a known
            // direction for speculative sanitation; unknown-sign scalars
            // are rejected (`sanitize_ptr_alu` bail-out).
            if self.opts.unprivileged && scalar.smin < 0 && scalar.smax > 0 {
                self.cov.hit(Cat::Error, 122, 0);
                return Err(VerifierError::access(
                    RejectReason::UnprivPtrOp,
                    pc,
                    format!(
                        "R{} variable pointer arithmetic with unknown sign prohibited",
                        dst.as_u8()
                    ),
                )
                .with_reg(dst.as_u8()));
            }
            // Variable offset: fold the scalar's bounds into the pointer's
            // variable part.
            let (svar, smin, smax, umin, umax) = if op == AluOp::Add {
                (
                    scalar.var_off,
                    scalar.smin,
                    scalar.smax,
                    scalar.umin,
                    scalar.umax,
                )
            } else {
                // ptr - scalar: negate the scalar's range.
                let var = Tnum::const_val(0).sub(scalar.var_off);
                (
                    var,
                    scalar.smax.checked_neg().unwrap_or(i64::MAX),
                    scalar.smin.checked_neg().unwrap_or(i64::MAX),
                    0,
                    u64::MAX,
                )
            };
            out.var_off = out.var_off.add(svar);
            out.smin = out.smin.saturating_add(smin);
            out.smax = out.smax.saturating_add(smax);
            out.umin = out.umin.checked_add(umin).unwrap_or(0);
            out.umax = out.umax.saturating_add(umax);
            if out.umin > out.umax {
                out.umin = 0;
                out.umax = u64::MAX;
            }
            out.combine_64_into_32();
            // Variable movement severs the packet-origin correlation.
            out.pkt_range = 0;
            out.id = 0;

            // Record the runtime alu_limit assertion BVF's sanitation will
            // emit (the paper's patch 3). An unknown scalar can only have
            // come from a register. The limit is path-dependent, so the
            // candidates from all explored paths are merged: agreeing
            // paths widen the limit to the maximum; disagreement (or a
            // path with no derivable limit) drops the check, mirroring
            // the kernel's multiple-paths sanitation bail-out.
            let scalar_reg = if ptr_in_dst { src.src_reg } else { Some(dst) };
            let candidate = match (ptr_limit(&ptr, self.kernel, op, &scalar), scalar_reg) {
                (Some((limit, downward)), Some(scalar_reg)) => {
                    // The assertion is an oracle for the verifier's own
                    // belief: only emit it when the tracked bounds already
                    // satisfy it. A runtime violation then proves the
                    // range analysis wrong for this execution. The
                    // believed maximum movement magnitude depends on the
                    // operand's sign: umax for non-negative operands,
                    // -smin for non-positive ones.
                    let believed_magnitude = if scalar.smin >= 0 {
                        Some(scalar.umax)
                    } else if scalar.smax <= 0 {
                        scalar.smin.checked_neg().map(|m| m as u64)
                    } else {
                        None
                    };
                    match believed_magnitude {
                        Some(m) if m <= limit => Some(AluLimitMeta {
                            limit,
                            scalar_reg,
                            downward,
                            negate: op == AluOp::Sub,
                        }),
                        _ => None,
                    }
                }
                _ => None,
            };
            self.merge_alu_limit(pc, candidate);
            if candidate.is_some() {
                self.cov.hit(Cat::PtrAlu, 900, 0);
            }
        }

        *state.cur_mut().reg_mut(dst) = out;
        Ok(())
    }
}

/// `retrieve_ptr_limit`: distance (in the direction of travel) from the
/// pointer's current fixed offset to the edge of its object. Returns
/// `(limit, downward)`; `None` when the direction is unknown or the type
/// is not sanitizable.
fn ptr_limit(
    ptr: &RegState,
    kernel: &bvf_kernel_sim::Kernel,
    op: AluOp,
    scalar: &RegState,
) -> Option<(u64, bool)> {
    // Direction of travel: ADD with non-negative scalar moves up, etc.
    let up = if scalar.smin >= 0 {
        op == AluOp::Add
    } else if scalar.smax <= 0 {
        op == AluOp::Sub
    } else {
        return None;
    };
    let off = ptr.off as i64;
    let span = match ptr.typ {
        RegType::PtrToStack => {
            // Valid stack offsets are [-512, 0).
            if up {
                Some(-off)
            } else {
                Some(off + bvf_isa::reg::STACK_SIZE as i64)
            }
        }
        RegType::PtrToMapValue { map_id } => {
            let vs = kernel.maps.get(map_id)?.def.value_size as i64;
            if up {
                Some(vs - off)
            } else {
                Some(off)
            }
        }
        RegType::PtrToMem { size, .. } => {
            if up {
                Some(size as i64 - off)
            } else {
                Some(off)
            }
        }
        _ => None,
    }?;
    if span < 0 {
        return None;
    }
    Some((span as u64, !up))
}

// ---- scalar bounds algebra -----------------------------------------------

/// The complete scalar ALU transfer function: applies `op` to the
/// abstract scalar `dst` (in place) with operand `src`, including the
/// 32-bit subregister projection, bound recombination, and
/// normalization the verifier performs after the raw bounds algebra.
///
/// This is the *fix-free* transfer the verifier uses when no defect is
/// injected; it is exposed so soundness can be property-checked
/// directly: for all `x ∈ γ(dst)` and `y ∈ γ(src)`, the concrete
/// result of `x op y` (with the interpreter's wrap/mask semantics)
/// must be a member of the transferred `dst`.
///
/// `dst` and `src` must be scalars; pointer arithmetic takes a
/// different path entirely.
pub fn scalar_transfer(op: AluOp, is64: bool, dst: &mut RegState, src: &RegState) {
    dst.id = 0;
    if is64 {
        scalar_alu64(op, dst, src, 64);
        dst.combine_64_into_32();
        dst.normalize();
    } else {
        scalar_alu32(op, dst, src);
        dst.zext_32_to_64();
    }
    if !dst.bounds_sane() {
        dst.mark_unknown();
    }
}

/// `bits` is the instruction bitness (64, or 32 when invoked on the
/// subreg projection by [`scalar_alu32`]); only the shifts consult it.
/// An arithmetic shift must replicate from the *operand's* sign bit —
/// on a 32-bit projection that is bit 31, not bit 63 — and a shift
/// count is only a compile-time constant below the bitness (the runtime
/// masks larger counts to it).
fn scalar_alu64(op: AluOp, dst: &mut RegState, src: &RegState, bits: u8) {
    match op {
        AluOp::Add => {
            dst.smin = dst.smin.checked_add(src.smin).unwrap_or(i64::MIN);
            dst.smax = dst.smax.checked_add(src.smax).unwrap_or(i64::MAX);
            if dst.smin == i64::MIN || dst.smax == i64::MAX {
                dst.smin = i64::MIN;
                dst.smax = i64::MAX;
            }
            match (
                dst.umin.checked_add(src.umin),
                dst.umax.checked_add(src.umax),
            ) {
                (Some(lo), Some(hi)) => {
                    dst.umin = lo;
                    dst.umax = hi;
                }
                _ => {
                    dst.umin = 0;
                    dst.umax = u64::MAX;
                }
            }
            dst.var_off = dst.var_off.add(src.var_off);
        }
        AluOp::Sub => {
            let smin = dst.smin.checked_sub(src.smax);
            let smax = dst.smax.checked_sub(src.smin);
            match (smin, smax) {
                (Some(lo), Some(hi)) => {
                    dst.smin = lo;
                    dst.smax = hi;
                }
                _ => {
                    dst.smin = i64::MIN;
                    dst.smax = i64::MAX;
                }
            }
            if dst.umin < src.umax {
                dst.umin = 0;
                dst.umax = u64::MAX;
            } else {
                dst.umin -= src.umax;
                dst.umax -= src.umin;
            }
            dst.var_off = dst.var_off.sub(src.var_off);
        }
        AluOp::Mul => {
            dst.var_off = dst.var_off.mul(src.var_off);
            if dst.smin < 0 || src.smin < 0 {
                dst.mark_unbounded();
            } else {
                match (
                    dst.umin.checked_mul(src.umin),
                    dst.umax.checked_mul(src.umax),
                ) {
                    (Some(lo), Some(hi)) => {
                        dst.umin = lo;
                        dst.umax = hi;
                        dst.smin = i64::MIN;
                        dst.smax = i64::MAX;
                    }
                    _ => dst.mark_unbounded(),
                }
            }
        }
        AluOp::Div => {
            // eBPF division is unsigned; by-zero yields zero. A zero
            // *immediate* is rejected earlier, but a register may be a
            // known-zero scalar: runtime semantics give exactly 0.
            match src.const_value() {
                Some(0) => {
                    dst.set_known(0);
                }
                Some(c) => {
                    dst.umin /= c;
                    dst.umax /= c;
                    dst.smin = i64::MIN;
                    dst.smax = i64::MAX;
                    dst.var_off = Tnum::range(dst.umin, dst.umax);
                }
                None => {
                    // Divisor may be 0 at runtime (result 0) or 1.
                    dst.mark_unknown();
                }
            }
        }
        AluOp::Mod => match src.const_value() {
            // Modulo zero leaves dst unchanged at runtime.
            Some(0) => {}
            Some(c) => {
                dst.umin = 0;
                dst.umax = dst.umax.min(c - 1);
                dst.smin = i64::MIN;
                dst.smax = i64::MAX;
                dst.var_off = Tnum::range(0, dst.umax);
            }
            None => dst.mark_unknown(),
        },
        AluOp::And => {
            dst.var_off = dst.var_off.and(src.var_off);
            let both_nonneg = dst.smin >= 0 && src.smin >= 0;
            dst.mark_unbounded();
            if both_nonneg {
                dst.smin = 0;
            }
        }
        AluOp::Or => {
            dst.var_off = dst.var_off.or(src.var_off);
            let both_nonneg = dst.smin >= 0 && src.smin >= 0;
            let umin = dst.umin.max(src.umin);
            dst.mark_unbounded();
            dst.umin = umin;
            if both_nonneg {
                dst.smin = 0;
            }
        }
        AluOp::Xor => {
            dst.var_off = dst.var_off.xor(src.var_off);
            let both_nonneg = dst.smin >= 0 && src.smin >= 0;
            dst.mark_unbounded();
            if both_nonneg {
                dst.smin = 0;
            }
        }
        // Shift amounts: the runtime masks the count to the instruction
        // bitness (`& 63` / `& 31`), so a count >= `bits` wraps around
        // rather than zeroing the register. Out-of-range immediates were
        // rejected up front; an out-of-range *register* count must fall
        // back to unknown (matching the kernel, which refuses to model
        // wrapped shifts).
        AluOp::Lsh => match src.const_value() {
            Some(s) if s < bits as u64 => {
                let s = s as u8;
                dst.var_off = dst.var_off.lshift(s);
                if dst.umax.leading_zeros() as u64 >= s as u64 {
                    dst.umin <<= s;
                    dst.umax <<= s;
                    dst.smin = i64::MIN;
                    dst.smax = i64::MAX;
                } else {
                    dst.mark_unbounded();
                }
            }
            _ => {
                dst.mark_unbounded();
                dst.var_off = Tnum::UNKNOWN;
            }
        },
        AluOp::Rsh => match src.const_value() {
            Some(s) if s < bits as u64 => {
                let s = s as u8;
                dst.var_off = dst.var_off.rshift(s);
                dst.umin >>= s;
                dst.umax >>= s;
                dst.smin = i64::MIN;
                dst.smax = i64::MAX;
            }
            _ => {
                dst.mark_unbounded();
                dst.var_off = Tnum::UNKNOWN;
            }
        },
        AluOp::Arsh => match src.const_value() {
            Some(s) if s < bits as u64 => {
                let s = s as u8;
                dst.var_off = dst.var_off.arshift(s, bits);
                dst.smin >>= s;
                dst.smax >>= s;
                dst.umin = 0;
                dst.umax = u64::MAX;
            }
            _ => {
                dst.mark_unbounded();
                dst.var_off = Tnum::UNKNOWN;
            }
        },
        AluOp::Mov | AluOp::Neg | AluOp::End => unreachable!("handled elsewhere"),
    }
}

fn scalar_alu32(op: AluOp, dst: &mut RegState, src: &RegState) {
    // Project both operands to 32 bits, run the 64-bit algebra in the
    // 32-bit subspace, then zero-extend.
    let mut d = RegState::unknown_scalar();
    d.var_off = dst.var_off.subreg();
    d.umin = dst.u32_min as u64;
    d.umax = dst.u32_max as u64;
    d.smin = dst.s32_min as i64;
    d.smax = dst.s32_max as i64;
    let mut s = RegState::unknown_scalar();
    s.var_off = src.var_off.subreg();
    s.umin = src.u32_min as u64;
    s.umax = src.u32_max as u64;
    s.smin = src.s32_min as i64;
    s.smax = src.s32_max as i64;

    // Shifts past 31 bits are invalid in 32-bit mode and yield unknowns;
    // the imm case was rejected earlier, reg case saturates.
    scalar_alu64(op, &mut d, &s, 32);

    // Truncate results back into 32-bit space.
    d.var_off = d.var_off.cast32();
    dst.var_off = d.var_off;
    // The projected interval is only usable if it fits the 32-bit
    // domain entirely: an excursion past the domain edge means the
    // 32-bit result can wrap, so clamping one endpoint would keep the
    // other as a bound the wrapped values violate.
    if d.umax <= u32::MAX as u64 {
        dst.u32_min = d.umin as u32;
        dst.u32_max = d.umax as u32;
    } else {
        dst.u32_min = 0;
        dst.u32_max = u32::MAX;
    }
    let s32 = i32::MIN as i64..=i32::MAX as i64;
    if s32.contains(&d.smin) && s32.contains(&d.smax) && d.smin <= d.smax {
        dst.s32_min = d.smin as i32;
        dst.s32_max = d.smax as i32;
    } else {
        dst.s32_min = i32::MIN;
        dst.s32_max = i32::MAX;
    }
}
