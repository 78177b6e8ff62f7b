//! The main verification driver (`do_check` and friends).

use bvf_isa::opcode::pseudo;
use bvf_isa::{CallTarget, InsnKind, Program, Reg};
use bvf_kernel_sim::map::MapType;
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::Kernel;

use crate::check::jump::JumpOutcome;
use crate::cov::{Cat, Coverage};
use crate::env::{VerifiedProgram, Verifier, VerifierOpts};
use crate::errors::{RejectReason, VerifierError, VerifierPhase};
use std::rc::Rc;

use crate::prune::states_equal;
use crate::shape::{ExploredEntry, FilterKey, StateShape};
use crate::state::{FuncState, VerifierState, MAX_CALL_FRAMES};
use crate::types::{RegState, RegType};
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::PhaseTimings;
use std::time::Instant;

/// Maximum states remembered per prune point.
const MAX_STATES_PER_POINT: usize = 32;

/// A prune-point state on the current exploration path, used for
/// infinite-loop detection (the analog of `states_maybe_looping`): if the
/// path returns to the same instruction in a state subsumed by one of its
/// own ancestors, the loop can make no progress.
struct PathNode {
    pc: usize,
    /// Distance from the root of the path trace.
    depth: usize,
    /// The entry's prefilter key, inline so the loop scan rejects most
    /// candidates without dereferencing `entry`.
    key: FilterKey,
    /// The state and its fingerprint, shared with the explored-index
    /// entry created at the same visit, so the explored scan can reuse
    /// the loop scan's verdict on it.
    entry: Rc<ExploredEntry>,
    parent: Option<Rc<PathNode>>,
    /// The nearest ancestor at the same pc; the loop scan follows these
    /// links instead of walking every ancestor.
    same_pc: Option<Rc<PathNode>>,
}

/// The nearest path-trace node at each pc on the current path — the
/// head of that pc's `same_pc` chain, so the loop scan starts there
/// without walking the trace.
///
/// The DFS worklist is LIFO, so a popped item's trace is always an
/// ancestor of the head the previous path ended at; [`PathIndex::rewind`]
/// unlinks the nodes in between. Every node is linked and unlinked at
/// most once.
struct PathIndex {
    last_at: Vec<Option<Rc<PathNode>>>,
}

impl PathIndex {
    /// An empty index for a program of `n` instruction slots.
    fn new(n: usize) -> PathIndex {
        PathIndex {
            last_at: vec![None; n],
        }
    }

    /// Appends a node for a visit at `pc` below `parent`, the current
    /// head, and links it in front of that pc's chain.
    fn extend(
        &mut self,
        parent: Option<Rc<PathNode>>,
        pc: usize,
        entry: Rc<ExploredEntry>,
    ) -> Rc<PathNode> {
        let node = Rc::new(PathNode {
            pc,
            depth: parent.as_ref().map_or(0, |p| p.depth + 1),
            key: entry.shape.filter(),
            entry,
            parent,
            same_pc: self.last_at[pc].take(),
        });
        self.last_at[pc] = Some(Rc::clone(&node));
        node
    }

    /// The loop scan's candidates for a visit at `pc` whose path head is
    /// at `head_depth`: the nearest [`MAX_LOOP_CANDIDATES`] nodes at `pc`
    /// within [`LOOP_SCAN_WINDOW`] nodes of the head, nearest first.
    fn loop_candidates(&self, pc: usize, head_depth: usize) -> impl Iterator<Item = &PathNode> {
        std::iter::successors(self.last_at[pc].as_deref(), |n| n.same_pc.as_deref())
            .take_while(move |n| head_depth - n.depth < LOOP_SCAN_WINDOW)
            .take(MAX_LOOP_CANDIDATES)
    }

    /// Unlinks every node from `head` up to, not including, `to`, which
    /// must be `head` or one of its ancestors (`None`: the root).
    fn rewind(&mut self, head: Option<Rc<PathNode>>, to: Option<&Rc<PathNode>>) {
        let stop = to.map_or(std::ptr::null(), Rc::as_ptr);
        let mut node = head;
        while let Some(n) = node {
            if Rc::as_ptr(&n) == stop {
                return;
            }
            self.last_at[n.pc] = n.same_pc.clone();
            node = n.parent.clone();
        }
        debug_assert!(stop.is_null(), "rewind target is not an ancestor");
    }
}

// Long exploration paths build long parent chains; drop them iteratively
// so deep programs cannot overflow the host stack. A `same_pc` link
// points at an ancestor the parent chain still holds, so releasing it
// first never starts a nested drop.
impl Drop for PathNode {
    fn drop(&mut self) {
        let mut next = self.parent.take();
        self.same_pc = None;
        while let Some(rc) = next {
            match Rc::try_unwrap(rc) {
                Ok(mut node) => {
                    next = node.parent.take();
                    node.same_pc = None;
                }
                Err(_) => break,
            }
        }
    }
}

/// How far up the path trace (in nodes from its head) the loop
/// detector looks per prune point; an abstract loop revisits its head
/// frequently, so a bounded window suffices and keeps pathological
/// paths linear.
const LOOP_SCAN_WINDOW: usize = 256;

/// How many same-pc ancestors the loop detector actually *considers*
/// (fingerprint-filters or compares) per visit. A no-progress loop is
/// subsumed by its nearest ancestors, so examining the closest few is
/// enough — this mirrors the kernel, whose loop detection scans the
/// bounded `explored_states` list at the instruction rather than the
/// whole path. Matches [`MAX_STATES_PER_POINT`] so both scans consider
/// the same number of candidates.
const MAX_LOOP_CANDIDATES: usize = 32;

/// The outcome of a load attempt: the verdict plus the coverage the
/// attempt produced (available for rejected programs too — the fuzzer's
/// feedback does not depend on acceptance).
#[derive(Debug)]
pub struct VerifyOutcome {
    /// Accept (with the rewritten program) or reject.
    pub result: Result<VerifiedProgram, VerifierError>,
    /// Verifier branch coverage exercised by this program.
    pub cov: Coverage,
    /// Wall time per verification phase; phases a rejected load never
    /// reached stay 0. Observational only — nothing reads it back.
    pub timings: PhaseTimings,
    /// Per-instruction abstract-state snapshots of the main walk; empty
    /// unless [`VerifierOpts::snapshots`] was set.
    pub snapshots: crate::snapshot::SnapshotStream,
}

/// Verifies `prog` for `prog_type` against the kernel's tables.
pub fn verify(
    kernel: &Kernel,
    prog: &Program,
    prog_type: ProgType,
    opts: &VerifierOpts,
) -> VerifyOutcome {
    let start = Instant::now();
    let mut v = Verifier::new(kernel, prog, prog_type, opts.clone());
    let result = v.run(start);
    VerifyOutcome {
        result,
        cov: v.cov,
        timings: v.timings,
        snapshots: v.snapshots,
    }
}

impl<'a> Verifier<'a> {
    /// Runs all verification passes; on success the program is rewritten.
    /// `start` is when set-up began; the structure phase is timed from
    /// there.
    pub(crate) fn run(&mut self, start: Instant) -> Result<VerifiedProgram, VerifierError> {
        // Unprivileged loads are limited to the socket-filter class.
        if self.opts.unprivileged
            && !matches!(self.prog_type, ProgType::SocketFilter | ProgType::CgroupSkb)
        {
            self.cov.hit(Cat::Error, 17, 0);
            return Err(VerifierError::access(
                RejectReason::UnprivProgType,
                0,
                format!(
                    "program type {:?} not allowed for unprivileged users",
                    self.prog_type
                ),
            )
            .in_phase(VerifierPhase::Structure));
        }
        // Pass 0: structural checks (decode validity, jump targets,
        // register ranges, proper ending), then pass 1: discover
        // subprograms and prune points. Timed together with set-up as
        // "structure" — after a heavy load, set-up's first allocations
        // are where the allocator settles that load's frees — with the
        // phase recorded before `?` so rejected loads keep it.
        let structure = bvf_isa::validate_structure(&self.prog)
            .map_err(|e| {
                self.cov.hit(Cat::Error, 1, 0);
                let reason = match &e {
                    bvf_isa::StructuralError::TooLong(_) => RejectReason::ComplexityLimit,
                    bvf_isa::StructuralError::JumpOutOfRange { .. } => {
                        RejectReason::JumpOutOfBounds
                    }
                    bvf_isa::StructuralError::FallthroughEnd => RejectReason::FellOffEnd,
                    _ => RejectReason::MalformedInsn,
                };
                VerifierError::invalid(reason, 0, e.to_string()).in_phase(VerifierPhase::Structure)
            })
            .and_then(|starts| {
                self.insn_starts = starts;
                self.scan_structure()
            });
        self.timings.structure_ns = elapsed_ns(start);
        structure?;

        // Pass 2: the main symbolic walk.
        let t0 = Instant::now();
        let checked = self.do_check();
        // Index occupancy, recorded for accepted and rejected loads
        // alike (the counters are observational). Nothing after the
        // walk reads the index, so it is freed here too: tearing down
        // thousands of stored states is the walk's cost, and billing it
        // to `do_check_ns` keeps it in the phase timings.
        for point in std::mem::take(&mut self.explored) {
            if !point.is_empty() {
                self.timings.prune.points += 1;
                self.timings.prune.states_stored += point.len() as u64;
            }
        }
        self.timings.do_check_ns = elapsed_ns(t0);
        self.timings.insns_processed = self.insn_processed as u64;
        checked?;

        // Pass 3: rewrite (pseudo resolution + fixups).
        let t0 = Instant::now();
        let fixed = self.do_fixups();
        self.timings.fixup_ns = elapsed_ns(t0);
        fixed.map_err(|e| e.in_phase(VerifierPhase::Fixup))?;

        Ok(VerifiedProgram {
            prog: self.prog.clone(),
            prog_type: self.prog_type,
            insn_meta: self.insn_meta.clone(),
            used_helpers: self.used_helpers.clone(),
            used_kfuncs: self.used_kfuncs.clone(),
            used_maps: self.used_maps.clone(),
            insns_processed: self.insn_processed,
            log: std::mem::take(&mut self.log),
        })
    }

    fn scan_structure(&mut self) -> Result<(), VerifierError> {
        // Prune points go where distinct paths can actually converge:
        // control-flow joins (static in-degree ≥ 2), back-edge targets
        // (loop heads — every cycle contains one, which keeps the loop
        // detector complete), and subprogram entries. Marking every
        // jump target and fallthrough, as before, spends states_equal
        // time at points only one path can ever reach.
        fn edge(from: usize, to: usize, in_degree: &mut [u32], back: &mut [bool]) {
            if to < in_degree.len() {
                in_degree[to] += 1;
                if to <= from {
                    back[to] = true;
                }
            }
        }
        let n = self.prog.insn_count();
        let mut in_degree = vec![0u32; n];
        let mut back_target = vec![false; n];
        self.decoded = vec![None; n];
        let mut pc = 0;
        while pc < n {
            let (kind, slots) = self.prog.decode_at(pc).expect("validated");
            self.decoded[pc] = Some((kind, slots));
            match kind {
                InsnKind::JmpCond { off, .. } => {
                    let target = (pc as i64 + 1 + off as i64) as usize;
                    edge(pc, target, &mut in_degree, &mut back_target);
                    edge(pc, pc + 1, &mut in_degree, &mut back_target);
                }
                InsnKind::Ja { off } => {
                    let target = (pc as i64 + 1 + off as i64) as usize;
                    edge(pc, target, &mut in_degree, &mut back_target);
                }
                InsnKind::Exit => {}
                InsnKind::Call {
                    target: CallTarget::Pseudo(off),
                } => {
                    let target = (pc as i64 + 1 + off as i64) as usize;
                    self.subprog_starts.insert(target);
                    self.prune_points[target] = true;
                    self.cov.hit(Cat::Subprog, 0, 0);
                    // Control flows back here from the callee's exits;
                    // the return site can join other flows.
                    edge(pc, pc + 1, &mut in_degree, &mut back_target);
                }
                _ => {
                    edge(pc, pc + slots, &mut in_degree, &mut back_target);
                }
            }
            pc += slots;
        }
        for v in 0..n {
            if in_degree[v] >= 2 || back_target[v] {
                self.prune_points[v] = true;
            }
        }
        Ok(())
    }

    fn do_check(&mut self) -> Result<(), VerifierError> {
        let mut worklist: Vec<(VerifierState, usize, Option<Rc<PathNode>>)> =
            vec![(VerifierState::entry(), 0, None)];
        let mut path = PathIndex::new(self.prog.insn_count());
        let mut head = None;

        while let Some((mut state, mut pc, mut trace)) = worklist.pop() {
            path.rewind(head.take(), trace.as_ref());
            'path: loop {
                self.insn_processed += 1;
                if self.insn_processed > self.opts.insn_limit {
                    self.cov.hit(Cat::Error, 2, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::ComplexityLimit,
                        pc,
                        format!(
                            "BPF program is too large. Processed {} insn",
                            self.insn_processed
                        ),
                    ));
                }
                if pc >= self.prog.insn_count() || !self.insn_starts[pc] {
                    self.cov.hit(Cat::Error, 3, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::FellOffEnd,
                        pc,
                        "fell off the end of program",
                    ));
                }

                // Loop detection, then pruning. The whole block is billed
                // to `prune_ns` (a subset of `do_check_ns`), so each of
                // its three exits records the elapsed time first.
                if self.prune_points[pc] {
                    let prune_t0 = Instant::now();
                    let use_index = self.opts.prune_index;
                    let cur_shape = StateShape::of(&state);
                    let cur_key = cur_shape.filter();
                    self.timings.prune.checks += 1;

                    // Loop detection first, so the "infinite loop"
                    // verdict cannot be masked by a prune. It considers
                    // the nearest `MAX_LOOP_CANDIDATES` same-pc
                    // ancestors within `LOOP_SCAN_WINDOW` nodes of the
                    // head, reached through the path index and the
                    // `same_pc` links. Each ancestor it examines is
                    // marked with this check's verdict; the explored
                    // scan below reuses the marks, so each (pc, state)
                    // pair is fingerprinted and compared at most once
                    // per visit. The fingerprint filter only skips
                    // comparisons that must return false, so the verdict
                    // is identical with the index off. A candidate the
                    // prefilter key rejects is left unmarked: the
                    // explored scan's own key test rejects it again.
                    let check = self.timings.prune.checks;
                    let head_depth = trace.as_ref().map_or(0, |t| t.depth);
                    for n in path.loop_candidates(pc, head_depth) {
                        if use_index && !n.key.may_pass(&cur_key) {
                            self.timings.prune.fingerprint_filtered += 1;
                            continue;
                        }
                        if use_index && !n.entry.shape.may_subsume(&cur_shape) {
                            n.entry.mark(check, false);
                            self.timings.prune.fingerprint_filtered += 1;
                            continue;
                        }
                        self.timings.prune.states_equal_calls += 1;
                        if states_equal(&n.entry.state, &state) {
                            self.cov.hit(Cat::Error, 16, 0);
                            self.timings.prune_ns += elapsed_ns(prune_t0);
                            return Err(VerifierError::invalid(
                                RejectReason::BackEdgeLimit,
                                pc,
                                format!("infinite loop detected at insn {pc}"),
                            ));
                        }
                        n.entry.mark(check, true);
                    }

                    // Explored-state scan. With the index on, only
                    // shape-compatible candidates reach states_equal, and
                    // the contiguous prefilter keys screen them before
                    // any entry is dereferenced; "any candidate subsumes"
                    // is order-insensitive, so both modes reach the same
                    // prune decision.
                    let point = &mut self.explored[pc];
                    let total = point.len() as u64;
                    let mut calls = 0u64;
                    let mut shared = 0u64;
                    let mut hit = false;
                    if use_index {
                        for (key, e) in point.scan_order() {
                            if !key.may_pass(&cur_key) {
                                continue;
                            }
                            match e.marked(check) {
                                Some(true) => {
                                    shared += 1;
                                    continue;
                                }
                                Some(false) => continue,
                                None if !e.shape.may_subsume(&cur_shape) => continue,
                                None => {}
                            }
                            calls += 1;
                            if states_equal(&e.state, &state) {
                                hit = true;
                                break;
                            }
                        }
                    } else {
                        for e in point.entries() {
                            if e.marked(check).is_some() {
                                shared += 1;
                                continue;
                            }
                            calls += 1;
                            if states_equal(&e.state, &state) {
                                hit = true;
                                break;
                            }
                        }
                    }
                    self.timings.prune.states_equal_calls += calls;
                    self.timings.prune.loop_scan_shared += shared;
                    if use_index && !hit {
                        self.timings.prune.fingerprint_filtered += total - shared - calls;
                    }
                    if hit {
                        self.timings.prune.hits += 1;
                        self.cov.hit(Cat::Prune, 0, 1);
                        self.timings.prune_ns += elapsed_ns(prune_t0);
                        break 'path;
                    }
                    self.cov.hit(Cat::Prune, 0, 0);
                    // One shared entry feeds both the explored index and
                    // the path trace — that sharing is what lets the two
                    // scans recognize each other's candidates.
                    let entry = Rc::new(ExploredEntry::new(state.clone(), cur_shape));
                    if point.insert(Rc::clone(&entry), MAX_STATES_PER_POINT) {
                        self.timings.prune.evictions += 1;
                    }
                    trace = Some(path.extend(trace.take(), pc, entry));
                    self.timings.prune_ns += elapsed_ns(prune_t0);
                }

                // Differential-oracle snapshot: the abstract register
                // file proved *before* this instruction, main frame only
                // (the concrete trace only observes main-frame steps).
                if self.opts.snapshots && state.depth() == 0 {
                    self.snapshots.record(pc, &state);
                }

                let (kind, slots) = self.decoded[pc].expect("validated");
                self.cov
                    .hit(Cat::InsnClass, self.prog.insns()[pc].code as u32 & 0x07, 0);
                self.logln(|| format!("{pc}: {}", bvf_isa::disasm::format_insn(pc, &kind)));

                match kind {
                    InsnKind::AluReg { .. }
                    | InsnKind::AluImm { .. }
                    | InsnKind::Neg { .. }
                    | InsnKind::Endian { .. } => {
                        self.check_alu(&mut state, pc, &kind)?;
                        pc += slots;
                    }
                    InsnKind::LdImm64 {
                        dst,
                        src_pseudo,
                        imm64,
                    } => {
                        self.check_ld_imm64(&mut state, pc, dst, src_pseudo, imm64)?;
                        pc += slots;
                    }
                    InsnKind::LdAbs { .. } | InsnKind::LdInd { .. } => {
                        self.check_ld_legacy(&mut state, pc, &kind)?;
                        pc += slots;
                    }
                    InsnKind::Ldx { .. }
                    | InsnKind::St { .. }
                    | InsnKind::Stx { .. }
                    | InsnKind::Atomic { .. } => {
                        self.check_mem(&mut state, pc, &kind)?;
                        pc += slots;
                    }
                    InsnKind::Ja { off } => {
                        pc = (pc as i64 + 1 + off as i64) as usize;
                    }
                    InsnKind::JmpCond { off, .. } => {
                        let target = (pc as i64 + 1 + off as i64) as usize;
                        match self.check_cond_jmp(&mut state, pc, &kind)? {
                            JumpOutcome::FallthroughOnly => pc += 1,
                            JumpOutcome::JumpOnly => pc = target,
                            JumpOutcome::Both(jump_state) => {
                                worklist.push((*jump_state, target, trace.clone()));
                                pc += 1;
                            }
                        }
                    }
                    InsnKind::Call { target } => match target {
                        CallTarget::Helper(id) => {
                            // `bpf_tail_call` transfers control but also
                            // falls through on failure; state-wise it is a
                            // plain helper returning a scalar.
                            self.check_helper_call(&mut state, pc, id)?;
                            pc += 1;
                        }
                        CallTarget::Kfunc(id) => {
                            self.check_kfunc_call(&mut state, pc, id)?;
                            pc += 1;
                        }
                        CallTarget::Pseudo(off) => {
                            let target = (pc as i64 + 1 + off as i64) as usize;
                            self.enter_subprog(&mut state, pc, target)?;
                            pc = target;
                        }
                    },
                    InsnKind::Exit => {
                        if state.depth() > 0 {
                            pc = self.return_from_subprog(&mut state, pc)?;
                            continue 'path;
                        }
                        self.check_main_exit(&state, pc)?;
                        break 'path;
                    }
                }
            }
            head = trace;
        }
        Ok(())
    }

    fn check_ld_imm64(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        dst: Reg,
        src_pseudo: u8,
        imm64: u64,
    ) -> Result<(), VerifierError> {
        self.cov.hit(Cat::Pseudo, src_pseudo as u32, 0);
        let out = match src_pseudo {
            pseudo::NONE => RegState::known_scalar(imm64),
            pseudo::MAP_FD => {
                let fd = imm64 as u32;
                let Some(map) = self.kernel.maps.get(fd) else {
                    self.cov.hit(Cat::Error, 4, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::BadMapFd,
                        pc,
                        format!("fd {fd} is not a map"),
                    ));
                };
                self.used_maps.insert(map.id);
                RegState::pointer(RegType::ConstPtrToMap { map_id: map.id })
            }
            pseudo::MAP_VALUE => {
                let fd = imm64 as u32;
                let off = (imm64 >> 32) as u32;
                let Some(map) = self.kernel.maps.get(fd) else {
                    self.cov.hit(Cat::Error, 4, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::BadMapFd,
                        pc,
                        format!("fd {fd} is not a map"),
                    ));
                };
                if map.def.map_type != MapType::Array {
                    self.cov.hit(Cat::Error, 5, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::BadDirectValue,
                        pc,
                        "direct value access only supported for array maps",
                    ));
                }
                if off >= map.def.value_size {
                    self.cov.hit(Cat::Error, 6, 0);
                    return Err(VerifierError::invalid(
                        RejectReason::BadDirectValue,
                        pc,
                        format!(
                            "direct value offset {off} beyond value_size {}",
                            map.def.value_size
                        ),
                    ));
                }
                self.used_maps.insert(map.id);
                let mut r = RegState::pointer(RegType::PtrToMapValue { map_id: map.id });
                r.off = off as i32;
                r
            }
            pseudo::BTF_ID => {
                let btf_id = imm64 as u32;
                if self.kernel.btf.type_by_id(btf_id).is_none() {
                    self.cov.hit(Cat::Error, 7, btf_id.min(16));
                    return Err(VerifierError::invalid(
                        RejectReason::BtfAccessInvalid,
                        pc,
                        format!("ldimm64 unable to resolve btf_id {btf_id}"),
                    ));
                }
                // Trusted per the type system — not marked maybe_null even
                // though the object may be null at runtime (the seed of
                // bug #1).
                RegState::pointer(RegType::PtrToBtfId { btf_id })
            }
            other => {
                self.cov.hit(Cat::Error, 8, other as u32);
                return Err(VerifierError::invalid(
                    RejectReason::MalformedInsn,
                    pc,
                    format!("unknown ldimm64 src_reg {other}"),
                ));
            }
        };
        *state.cur_mut().reg_mut(dst) = out;
        Ok(())
    }

    fn check_ld_legacy(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        kind: &InsnKind,
    ) -> Result<(), VerifierError> {
        if !matches!(
            self.prog_type,
            ProgType::SocketFilter | ProgType::SchedCls | ProgType::CgroupSkb
        ) {
            self.cov.hit(Cat::Error, 9, 0);
            return Err(VerifierError::invalid(
                RejectReason::UnsupportedInsn,
                pc,
                "BPF_LD_[ABS|IND] instructions not allowed for this program type",
            ));
        }
        if let InsnKind::LdInd { src, .. } = kind {
            self.check_reg_init(state, *src, pc)?;
        }
        // The legacy loads implicitly use ctx in R6 per ABI... our ABI
        // keeps R1; they clobber caller-saved regs and load into R0.
        state.cur_mut().clobber_caller_saved();
        *state.cur_mut().reg_mut(Reg::R0) = RegState::unknown_scalar();
        Ok(())
    }

    fn enter_subprog(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
        target: usize,
    ) -> Result<(), VerifierError> {
        self.cov.hit(Cat::Subprog, 0, 1);
        if state.frames.len() >= MAX_CALL_FRAMES {
            self.cov.hit(Cat::Error, 10, 0);
            return Err(VerifierError::invalid(
                RejectReason::CallDepthLimit,
                pc,
                format!("the call stack of {MAX_CALL_FRAMES} frames is too deep"),
            ));
        }
        if target >= self.prog.insn_count() || !self.insn_starts[target] {
            self.cov.hit(Cat::Error, 11, 0);
            return Err(VerifierError::invalid(
                RejectReason::BadCallTarget,
                pc,
                "invalid subprog call target",
            ));
        }
        let mut callee = FuncState::new(target, pc + 1);
        // Arguments R1..R5 are passed; R10 is the callee's own frame.
        for r in Reg::ARGS {
            callee.regs[r.index()] = *state.cur().reg(r);
        }
        callee.regs[Reg::R10.index()] = RegState::pointer(RegType::PtrToStack);
        state.frames.push(Rc::new(callee));
        Ok(())
    }

    fn return_from_subprog(
        &mut self,
        state: &mut VerifierState,
        pc: usize,
    ) -> Result<usize, VerifierError> {
        let callee = state.frames.pop().expect("depth checked");
        let r0 = callee.regs[Reg::R0.index()];
        if r0.typ != RegType::Scalar {
            self.cov.hit(Cat::Error, 12, 0);
            return Err(VerifierError::invalid(
                RejectReason::BadReturnValue,
                pc,
                "At callback/subprog exit the register R0 must be a scalar",
            )
            .with_reg(0));
        }
        self.cov.hit(Cat::Subprog, 0, 2);
        let caller = state.cur_mut();
        caller.clobber_caller_saved();
        caller.regs[Reg::R0.index()] = r0;
        Ok(callee.callsite)
    }

    fn check_main_exit(&mut self, state: &VerifierState, pc: usize) -> Result<(), VerifierError> {
        let r0 = state.cur().reg(Reg::R0);
        if r0.typ == RegType::NotInit {
            self.cov.hit(Cat::Error, 13, 0);
            return Err(
                VerifierError::access(RejectReason::UninitRegRead, pc, "R0 !read_ok").with_reg(0),
            );
        }
        if r0.typ != RegType::Scalar {
            self.cov.hit(Cat::Error, 14, 0);
            return Err(VerifierError::access(
                RejectReason::BadReturnValue,
                pc,
                format!("At program exit the register R0 has type {}", r0.typ.name()),
            )
            .with_reg(0));
        }
        if let Some(r) = state.acquired_refs.first() {
            self.cov.hit(Cat::Error, 15, 0);
            return Err(VerifierError::invalid(
                RejectReason::UnreleasedReference,
                pc,
                format!("Unreleased reference id={} alloc_insn={}", r.id, r.insn_idx),
            ));
        }
        self.cov.hit(Cat::InsnClass, 100, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The loop scan's candidates by the plain definition: walk up from
    /// the head, keep nodes at `pc` closer than the window, stop at the
    /// candidate cap.
    fn reference_candidates(head: Option<&Rc<PathNode>>, pc: usize) -> Vec<*const PathNode> {
        let mut out = Vec::new();
        let mut node = head;
        let mut distance = 0;
        while let Some(n) = node {
            if distance >= LOOP_SCAN_WINDOW || out.len() >= MAX_LOOP_CANDIDATES {
                break;
            }
            if n.pc == pc {
                out.push(Rc::as_ptr(n));
            }
            distance += 1;
            node = n.parent.as_ref();
        }
        out
    }

    /// Random DFS traffic — extend, branch, finish a path and pop the
    /// last branch — must leave the index's candidates equal to the
    /// plain walk's at every step. Few pcs overflow the candidate cap;
    /// a rare pc has candidates only the window cuts off.
    #[test]
    fn path_index_matches_the_plain_ancestor_walk() {
        let state = VerifierState::entry();
        let shape = StateShape::of(&state);
        let entry = Rc::new(ExploredEntry::new(state, shape));
        let mut rng = StdRng::seed_from_u64(7);
        let mut path = PathIndex::new(8);
        let mut worklist: Vec<Option<Rc<PathNode>>> = Vec::new();
        let mut head: Option<Rc<PathNode>> = None;
        for _ in 0..20_000 {
            match rng.gen_range(0..100) {
                0..=1 => {
                    // The path ends; resume the most recent branch.
                    if let Some(to) = worklist.pop() {
                        path.rewind(head.take(), to.as_ref());
                        head = to;
                    }
                }
                2..=4 => worklist.push(head.clone()),
                r => {
                    let pc = if r < 98 { rng.gen_range(0..4) } else { 7 };
                    head = Some(path.extend(head.take(), pc, Rc::clone(&entry)));
                }
            }
            let depth = head.as_ref().map_or(0, |h| h.depth);
            for pc in [0, 3, 7] {
                let got: Vec<_> = path
                    .loop_candidates(pc, depth)
                    .map(|n| n as *const PathNode)
                    .collect();
                assert_eq!(got, reference_candidates(head.as_ref(), pc));
            }
        }
    }
}
