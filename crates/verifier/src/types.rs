//! Register state: types, bounds, and the bounds-maintenance algebra.
//!
//! [`RegState`] mirrors `struct bpf_reg_state`: a type, a fixed offset, a
//! tnum for the variable part, and four-and-four signed/unsigned 64/32-bit
//! range bounds, kept mutually consistent by the same
//! `__update_reg_bounds` / `__reg_deduce_bounds` / `__reg_bound_offset`
//! dance the kernel performs.

use serde::{Deserialize, Serialize};

use bvf_kernel_sim::btf::BtfTypeId;

use crate::tnum::Tnum;

/// The type of a value held in a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegType {
    /// Never written.
    NotInit,
    /// A scalar value (bounds in the register state).
    Scalar,
    /// Pointer to the program context.
    PtrToCtx,
    /// Pointer to a `struct bpf_map` (from `LD_IMM64 MAP_FD`).
    ConstPtrToMap {
        /// The map id.
        map_id: u32,
    },
    /// Pointer into a map value.
    PtrToMapValue {
        /// The map id.
        map_id: u32,
    },
    /// Pointer into the eBPF stack (based on `R10`).
    PtrToStack,
    /// Pointer to packet data.
    PtrToPacket,
    /// Pointer to the end of packet data.
    PtrToPacketEnd,
    /// Trusted pointer to a BTF-identified kernel object.
    PtrToBtfId {
        /// The BTF type id.
        btf_id: BtfTypeId,
    },
    /// Pointer to a block of memory of known size (ringbuf records).
    PtrToMem {
        /// Region size in bytes.
        size: u32,
        /// Whether the region came from an acquiring helper.
        alloc: bool,
    },
}

impl RegType {
    /// Whether the type is any flavor of pointer.
    pub fn is_pointer(self) -> bool {
        !matches!(self, RegType::NotInit | RegType::Scalar)
    }

    /// Stable small integer identifying the type (coverage keys).
    pub fn tag(self) -> u32 {
        match self {
            RegType::NotInit => 0,
            RegType::Scalar => 1,
            RegType::PtrToCtx => 2,
            RegType::ConstPtrToMap { .. } => 3,
            RegType::PtrToMapValue { .. } => 4,
            RegType::PtrToStack => 5,
            RegType::PtrToPacket => 6,
            RegType::PtrToPacketEnd => 7,
            RegType::PtrToBtfId { .. } => 8,
            RegType::PtrToMem { .. } => 9,
        }
    }

    /// Kernel-log style name of the type.
    pub fn name(self) -> &'static str {
        match self {
            RegType::NotInit => "?",
            RegType::Scalar => "scalar",
            RegType::PtrToCtx => "ctx",
            RegType::ConstPtrToMap { .. } => "map_ptr",
            RegType::PtrToMapValue { .. } => "map_value",
            RegType::PtrToStack => "fp",
            RegType::PtrToPacket => "pkt",
            RegType::PtrToPacketEnd => "pkt_end",
            RegType::PtrToBtfId { .. } => "ptr_to_btf_id",
            RegType::PtrToMem { .. } => "mem",
        }
    }
}

/// Abstract state of one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegState {
    /// Value type.
    pub typ: RegType,
    /// Fixed offset added to a pointer.
    pub off: i32,
    /// Variable part: the whole value for scalars, the variable offset
    /// for pointers.
    pub var_off: Tnum,
    /// Minimum signed 64-bit value.
    pub smin: i64,
    /// Maximum signed 64-bit value.
    pub smax: i64,
    /// Minimum unsigned 64-bit value.
    pub umin: u64,
    /// Maximum unsigned 64-bit value.
    pub umax: u64,
    /// Minimum signed 32-bit value.
    pub s32_min: i32,
    /// Maximum signed 32-bit value.
    pub s32_max: i32,
    /// Minimum unsigned 32-bit value.
    pub u32_min: u32,
    /// Maximum unsigned 32-bit value.
    pub u32_max: u32,
    /// Identity for null-branch and equal-scalar correlation.
    pub id: u32,
    /// The acquired-reference id this register holds (0 = none).
    pub ref_obj_id: u32,
    /// Whether the pointer may be null (`PTR_MAYBE_NULL`).
    pub maybe_null: bool,
    /// Verified accessible range past a packet pointer (set by
    /// comparisons against `pkt_end`).
    pub pkt_range: u16,
}

impl Default for RegState {
    fn default() -> Self {
        RegState::not_init()
    }
}

impl RegState {
    /// An uninitialized register.
    pub const fn not_init() -> RegState {
        RegState {
            typ: RegType::NotInit,
            off: 0,
            var_off: Tnum::UNKNOWN,
            smin: i64::MIN,
            smax: i64::MAX,
            umin: 0,
            umax: u64::MAX,
            s32_min: i32::MIN,
            s32_max: i32::MAX,
            u32_min: 0,
            u32_max: u32::MAX,
            id: 0,
            ref_obj_id: 0,
            maybe_null: false,
            pkt_range: 0,
        }
    }

    /// A completely unknown scalar (`mark_reg_unknown`).
    pub fn unknown_scalar() -> RegState {
        RegState {
            typ: RegType::Scalar,
            ..RegState::not_init()
        }
    }

    /// A known constant scalar (`mark_reg_known`).
    pub fn known_scalar(v: u64) -> RegState {
        let mut r = RegState::unknown_scalar();
        r.set_known(v);
        r
    }

    /// A pointer of the given type with zero offset.
    pub fn pointer(typ: RegType) -> RegState {
        RegState {
            typ,
            off: 0,
            var_off: Tnum::const_val(0),
            smin: 0,
            smax: 0,
            umin: 0,
            umax: 0,
            s32_min: 0,
            s32_max: 0,
            u32_min: 0,
            u32_max: 0,
            id: 0,
            ref_obj_id: 0,
            maybe_null: false,
            pkt_range: 0,
        }
    }

    /// Sets the register to a known scalar constant.
    pub fn set_known(&mut self, v: u64) {
        self.typ = RegType::Scalar;
        self.var_off = Tnum::const_val(v);
        self.smin = v as i64;
        self.smax = v as i64;
        self.umin = v;
        self.umax = v;
        self.s32_min = v as u32 as i32;
        self.s32_max = v as u32 as i32;
        self.u32_min = v as u32;
        self.u32_max = v as u32;
        self.maybe_null = false;
        self.pkt_range = 0;
    }

    /// Whether the register is a fully known scalar.
    pub fn is_known(&self) -> bool {
        self.typ == RegType::Scalar && self.var_off.is_const()
    }

    /// The constant value of a known scalar.
    pub fn const_value(&self) -> Option<u64> {
        if self.is_known() {
            Some(self.var_off.value)
        } else {
            None
        }
    }

    /// Whether the pointer has a known constant (fixed-only) offset.
    pub fn has_const_offset(&self) -> bool {
        self.var_off.is_const()
    }

    /// Resets all range knowledge to "anything" (`__mark_reg_unbounded`).
    pub fn mark_unbounded(&mut self) {
        self.smin = i64::MIN;
        self.smax = i64::MAX;
        self.umin = 0;
        self.umax = u64::MAX;
        self.s32_min = i32::MIN;
        self.s32_max = i32::MAX;
        self.u32_min = 0;
        self.u32_max = u32::MAX;
    }

    /// Drops everything down to an unknown scalar (`mark_reg_unknown`).
    pub fn mark_unknown(&mut self) {
        *self = RegState::unknown_scalar();
    }

    // ---- bounds algebra (ports of the kernel's maintenance functions) ----

    /// `__update_reg32_bounds`: refine 32-bit bounds from `var_off`.
    pub fn update_reg32_bounds(&mut self) {
        let var32 = self.var_off.subreg();
        // New signed bounds from the tnum, when the sign bit is known.
        if (var32.mask & 0x8000_0000) == 0 {
            let nmin = var32.value as i32;
            let nmax = (var32.value | var32.mask) as i32;
            self.s32_min = self.s32_min.max(nmin);
            self.s32_max = self.s32_max.min(nmax);
        }
        self.u32_min = self.u32_min.max(var32.umin() as u32);
        self.u32_max = self.u32_max.min(var32.umax() as u32);
    }

    /// `__update_reg64_bounds`.
    pub fn update_reg64_bounds(&mut self) {
        if (self.var_off.mask & (1 << 63)) == 0 {
            let nmin = self.var_off.value as i64;
            let nmax = (self.var_off.value | self.var_off.mask) as i64;
            self.smin = self.smin.max(nmin);
            self.smax = self.smax.min(nmax);
        }
        self.umin = self.umin.max(self.var_off.umin());
        self.umax = self.umax.min(self.var_off.umax());
    }

    /// `__update_reg_bounds`.
    pub fn update_reg_bounds(&mut self) {
        self.update_reg32_bounds();
        self.update_reg64_bounds();
    }

    /// `__reg32_deduce_bounds`: cross-derive signed/unsigned 32-bit bounds.
    pub fn reg32_deduce_bounds(&mut self) {
        // If the unsigned range does not cross the sign boundary, the
        // signed and unsigned ranges describe the same values.
        if (self.u32_min as i32) <= (self.u32_max as i32) {
            self.s32_min = self.s32_min.max(self.u32_min as i32);
            self.s32_max = self.s32_max.min(self.u32_max as i32);
        }
        if self.s32_min >= 0 {
            self.u32_min = self.u32_min.max(self.s32_min as u32);
            self.u32_max = self.u32_max.min(self.s32_max as u32);
        }
    }

    /// `__reg64_deduce_bounds`.
    pub fn reg64_deduce_bounds(&mut self) {
        if (self.umin as i64) <= (self.umax as i64) {
            self.smin = self.smin.max(self.umin as i64);
            self.smax = self.smax.min(self.umax as i64);
        }
        if self.smin >= 0 {
            self.umin = self.umin.max(self.smin as u64);
            self.umax = self.umax.min(self.smax as u64);
        }
    }

    /// `__reg_deduce_bounds`.
    pub fn reg_deduce_bounds(&mut self) {
        self.reg32_deduce_bounds();
        self.reg64_deduce_bounds();
    }

    /// `__reg_bound_offset`: feed range knowledge back into `var_off`.
    pub fn reg_bound_offset(&mut self) {
        let range64 = Tnum::range(self.umin, self.umax);
        let range32 = Tnum::range(self.u32_min as u64, self.u32_max as u64);
        let var64 = self.var_off.intersect(range64);
        let var32 = self.var_off.subreg().intersect(range32);
        self.var_off = var64.with_subreg(var32);
    }

    /// Full normalization after an operation: update, deduce, bound.
    pub fn normalize(&mut self) {
        self.update_reg_bounds();
        self.reg_deduce_bounds();
        self.reg_bound_offset();
    }

    /// Whether the bounds have become contradictory (empty set) — a
    /// verifier-internal sanity violation.
    pub fn bounds_sane(&self) -> bool {
        self.smin <= self.smax
            && self.umin <= self.umax
            && self.s32_min <= self.s32_max
            && self.u32_min <= self.u32_max
    }

    /// `__reg_combine_64_into_32`: derive 32-bit bounds after a 64-bit op.
    pub fn combine_64_into_32(&mut self) {
        self.s32_min = i32::MIN;
        self.s32_max = i32::MAX;
        self.u32_min = 0;
        self.u32_max = u32::MAX;
        // If the 64-bit value fits in 32 bits, project the bounds down.
        if self.umin <= u32::MAX as u64 && self.umax <= u32::MAX as u64 {
            self.u32_min = self.umin as u32;
            self.u32_max = self.umax as u32;
        }
        if self.smin >= i32::MIN as i64 && self.smax <= i32::MAX as i64 && self.smin <= self.smax {
            self.s32_min = self.smin as i32;
            self.s32_max = self.smax as i32;
        }
        self.update_reg32_bounds();
        self.reg32_deduce_bounds();
    }

    /// `__reg_combine_32_into_64`: widen after a 32-bit op (which
    /// zero-extends the destination).
    pub fn combine_32_into_64(&mut self) {
        self.umin = self.u32_min as u64;
        self.umax = self.u32_max as u64;
        // Zero extension: the 64-bit signed view equals the unsigned one.
        self.smin = self.u32_min as i64;
        self.smax = self.u32_max as i64;
        self.var_off = self.var_off.subreg();
        self.normalize();
    }

    /// Zero-extends the register after a 32-bit ALU write
    /// (`zext_32_to_64`).
    pub fn zext_32_to_64(&mut self) {
        self.var_off = self.var_off.subreg();
        self.combine_32_into_64();
    }

    /// Renders the register in verifier-log style.
    pub fn describe(&self) -> String {
        match self.typ {
            RegType::NotInit => "not_init".to_string(),
            RegType::Scalar => {
                if let Some(v) = self.const_value() {
                    format!("{v}")
                } else {
                    format!(
                        "scalar(umin={},umax={},smin={},smax={},var={})",
                        self.umin, self.umax, self.smin, self.smax, self.var_off
                    )
                }
            }
            t => {
                let null = if self.maybe_null { "_or_null" } else { "" };
                if self.var_off.is_const() && self.var_off.value == 0 {
                    format!("{}{}(off={})", t.name(), null, self.off)
                } else {
                    format!(
                        "{}{}(off={},var={})",
                        t.name(),
                        null,
                        self.off,
                        self.var_off
                    )
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_scalar_bounds() {
        let r = RegState::known_scalar(100);
        assert!(r.is_known());
        assert_eq!(r.const_value(), Some(100));
        assert_eq!((r.smin, r.smax, r.umin, r.umax), (100, 100, 100, 100));
        assert_eq!((r.u32_min, r.u32_max), (100, 100));
        assert!(r.bounds_sane());
    }

    #[test]
    fn known_negative_scalar() {
        let r = RegState::known_scalar(-1i64 as u64);
        assert_eq!(r.smin, -1);
        assert_eq!(r.smax, -1);
        assert_eq!(r.umin, u64::MAX);
        assert_eq!(r.s32_min, -1);
    }

    #[test]
    fn normalize_tightens_from_tnum() {
        let mut r = RegState::unknown_scalar();
        r.var_off = Tnum::range(0, 15);
        r.normalize();
        assert!(r.umax <= 15);
        assert!(r.smin >= 0);
        assert!(r.smax <= 15);
        assert!(r.bounds_sane());
    }

    #[test]
    fn normalize_tightens_tnum_from_bounds() {
        let mut r = RegState::unknown_scalar();
        r.umin = 0;
        r.umax = 7;
        r.combine_64_into_32();
        r.normalize();
        assert!(r.var_off.umax() <= 7, "var_off = {}", r.var_off);
    }

    #[test]
    fn deduce_bounds_cross_signs() {
        let mut r = RegState::unknown_scalar();
        r.umin = 5;
        r.umax = 10;
        r.reg_deduce_bounds();
        assert!(r.smin >= 5);
        assert!(r.smax <= 10);
    }

    #[test]
    fn combine_32_into_64_zero_extends() {
        let mut r = RegState::unknown_scalar();
        r.u32_min = 3;
        r.u32_max = 9;
        r.var_off = Tnum::UNKNOWN.cast32();
        r.combine_32_into_64();
        assert_eq!(r.umin, 3);
        assert_eq!(r.umax, 9);
        assert!(r.smin >= 0, "zero extension is non-negative");
    }

    #[test]
    fn pointer_state() {
        let r = RegState::pointer(RegType::PtrToStack);
        assert!(r.typ.is_pointer());
        assert_eq!(r.off, 0);
        assert!(r.has_const_offset());
        assert!(!r.maybe_null);
    }

    #[test]
    fn describe_renders() {
        assert_eq!(RegState::known_scalar(7).describe(), "7");
        let mut p = RegState::pointer(RegType::PtrToMapValue { map_id: 1 });
        p.maybe_null = true;
        assert!(p.describe().contains("map_value_or_null"));
    }
}
