//! Kernel self-check reports.
//!
//! Everything the simulated kernel's sanitizers and validators can say
//! about an execution is collected as [`KernelReport`] values, the analog
//! of KASAN splats, lockdep warnings, and oopses in the kernel log. BVF's
//! test oracle classifies them into the two correctness-bug indicators.

use serde::{Deserialize, Serialize};

use crate::lockdep::LockId;

/// The flavor of an invalid memory access diagnosed by KASAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KasanKind {
    /// Access outside any live allocation (slab-out-of-bounds).
    OutOfBounds,
    /// Access to freed memory (use-after-free).
    UseAfterFree,
    /// Access to a redzone between allocations.
    Redzone,
    /// Access through an address in the null page.
    NullDeref,
    /// Access to an unmapped "wild" address.
    WildAccess,
    /// Access to never-allocated pool memory.
    Unallocated,
}

/// The flavor of a locking violation diagnosed by the runtime locking
/// correctness validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LockdepKind {
    /// The same lock is acquired again in the same context chain
    /// (self-deadlock through recursion).
    RecursiveAcquire,
    /// A lock is acquired in a re-entered context while already held in
    /// the interrupted context (inconsistent lock state).
    InconsistentState,
    /// A lock is released while not held.
    UnbalancedRelease,
    /// Execution finished with locks still held.
    HeldAtExit,
}

/// Where the kernel was when a report fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReportOrigin {
    /// Inside a sanitized load/store dispatched from an eBPF program
    /// (BVF's `bpf_asan_*` functions) — the paper's **indicator #1**.
    ProgramAccess,
    /// Inside a kernel routine (helper, kfunc, map operation, dispatcher)
    /// invoked by an eBPF program — the paper's **indicator #2**.
    KernelRoutine,
    /// In syscall processing, outside program execution.
    Syscall,
}

/// One kernel self-check report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelReport {
    /// KASAN-style invalid memory access.
    Kasan {
        /// Access classification.
        kind: KasanKind,
        /// Faulting address.
        addr: u64,
        /// Access size in bytes.
        size: u64,
        /// True for writes, false for reads.
        is_write: bool,
        /// Where the access came from.
        origin: ReportOrigin,
    },
    /// Hard page fault: access to unmapped memory from unchecked (JITed)
    /// code — the kernel oopses.
    PageFault {
        /// Faulting address.
        addr: u64,
        /// True for writes.
        is_write: bool,
        /// Where the access came from.
        origin: ReportOrigin,
    },
    /// Locking correctness violation.
    Lockdep {
        /// Violation classification.
        kind: LockdepKind,
        /// The lock involved.
        lock: LockId,
        /// Where the acquire/release came from.
        origin: ReportOrigin,
    },
    /// Kernel panic (`BUG()`), e.g. from an unsupported operation in NMI
    /// context.
    Panic {
        /// Human-readable reason.
        reason: String,
    },
    /// Kernel warning (`WARN_ON`), e.g. a spurious allocation failure.
    Warn {
        /// Human-readable reason.
        reason: String,
    },
    /// A runtime `alu_limit` assertion inserted by BVF's sanitation failed:
    /// a pointer-arithmetic offset exceeded the bound the verifier
    /// computed — the verifier's expectation was wrong.
    AluLimitViolation {
        /// Instruction index in the original program.
        pc: usize,
        /// The offset value observed at runtime.
        offset: i64,
        /// The limit the verifier had established.
        limit: u64,
    },
    /// Execution-environment mismatch (e.g. a device-offloaded XDP program
    /// executed on the host).
    EnvMismatch {
        /// Human-readable reason.
        reason: String,
    },
    /// Abstract-state unsoundness observed by the differential oracle —
    /// the paper-extension **indicator #3**: a concrete register value
    /// produced by the interpreter fell outside the abstract state the
    /// verifier proved for the same instruction on every explored path.
    StateDivergence {
        /// Instruction index in the original program.
        pc: usize,
        /// Divergent register number.
        reg: u8,
        /// Human-readable rendering of the proved abstract state.
        abstract_state: String,
        /// The concrete value that escaped it.
        concrete: u64,
    },
    /// The sanitized and unsanitized executions of the same program on
    /// the same kernel disagreed beyond the documented instrumentation
    /// delta — evidence that the sanitation layer itself (the instrument
    /// behind indicator #1) misbehaved. Raised by the `bvf-sancheck`
    /// dual-execution oracle.
    SanitizerDivergence {
        /// Divergence classification.
        kind: SanDivergenceKind,
        /// Human-readable rendering of the per-run values that diverged
        /// (excluded from finding signatures).
        detail: String,
    },
}

/// How the sanitized and unsanitized runs of one program disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SanDivergenceKind {
    /// Exit values or helper-call traces differ between the runs.
    ExecMismatch,
    /// The step counts differ beyond the counted instrumentation
    /// instructions (sanitized steps minus injected steps must equal the
    /// unsanitized step count).
    StepMismatch,
    /// The sanitizer aborted a program the unsanitized run completes
    /// cleanly (false-positive shape).
    SanAbort,
    /// The unsanitized run faulted while the sanitized run completed
    /// cleanly — the sanitizer masked a real fault (false-negative shape).
    MaskedFault,
    /// The sanitized run took a hard page fault at a program access: the
    /// sanitizer failed to intercept the access it exists to check.
    UncheckedAccess,
    /// Both runs faulted, but the fault metadata (address, read/write
    /// polarity) disagrees across the documented fault transform.
    FaultMetaMismatch,
}

impl SanDivergenceKind {
    /// Short name used in finding signatures and matrix output.
    pub fn name(self) -> &'static str {
        match self {
            SanDivergenceKind::ExecMismatch => "exec-mismatch",
            SanDivergenceKind::StepMismatch => "step-mismatch",
            SanDivergenceKind::SanAbort => "san-abort",
            SanDivergenceKind::MaskedFault => "masked-fault",
            SanDivergenceKind::UncheckedAccess => "unchecked-access",
            SanDivergenceKind::FaultMetaMismatch => "fault-meta-mismatch",
        }
    }
}

impl KernelReport {
    /// Whether this report is fatal (crashes or corrupts the kernel) as
    /// opposed to a warning.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, KernelReport::Warn { .. })
    }

    /// The origin recorded on the report, if the kind carries one.
    pub fn origin(&self) -> Option<ReportOrigin> {
        match self {
            KernelReport::Kasan { origin, .. }
            | KernelReport::PageFault { origin, .. }
            | KernelReport::Lockdep { origin, .. } => Some(*origin),
            KernelReport::AluLimitViolation { .. } | KernelReport::SanitizerDivergence { .. } => {
                Some(ReportOrigin::ProgramAccess)
            }
            _ => None,
        }
    }

    /// One-line summary in kernel-log style.
    pub fn summary(&self) -> String {
        match self {
            KernelReport::Kasan { kind, addr, size, is_write, .. } => format!(
                "KASAN: {:?} in {} of size {} at addr 0x{:x}",
                kind,
                if *is_write { "write" } else { "read" },
                size,
                addr
            ),
            KernelReport::PageFault { addr, is_write, .. } => format!(
                "BUG: unable to handle page fault for address 0x{:x} ({})",
                addr,
                if *is_write { "write" } else { "read" }
            ),
            KernelReport::Lockdep { kind, lock, .. } => {
                format!("lockdep: {kind:?} on {lock:?}")
            }
            KernelReport::Panic { reason } => format!("kernel panic: {reason}"),
            KernelReport::Warn { reason } => format!("WARNING: {reason}"),
            KernelReport::AluLimitViolation { pc, offset, limit } => format!(
                "bpf-sanitize: alu_limit violation at insn {pc}: offset {offset} exceeds limit {limit}"
            ),
            KernelReport::EnvMismatch { reason } => format!("env mismatch: {reason}"),
            KernelReport::StateDivergence { pc, reg, abstract_state, concrete } => format!(
                "bvf-diff: state divergence at insn {pc}: r{reg}={concrete:#x} outside proved {abstract_state}"
            ),
            KernelReport::SanitizerDivergence { kind, detail } => format!(
                "bvf-sancheck: sanitizer divergence ({}): {detail}",
                kind.name()
            ),
        }
    }
}

/// An append-only sink of reports, drained by the test oracle.
#[derive(Debug, Default, Clone)]
pub struct ReportSink {
    reports: Vec<KernelReport>,
}

impl ReportSink {
    /// Creates an empty sink.
    pub fn new() -> ReportSink {
        ReportSink::default()
    }

    /// Records a report.
    pub fn record(&mut self, report: KernelReport) {
        self.reports.push(report);
    }

    /// Whether any report has been recorded.
    pub fn any(&self) -> bool {
        !self.reports.is_empty()
    }

    /// Whether any fatal report has been recorded. Inlined: the
    /// interpreter polls this after every fall-through step, and on the
    /// clean path it is a length check of an empty `Vec`.
    #[inline]
    pub fn any_fatal(&self) -> bool {
        self.reports.iter().any(KernelReport::is_fatal)
    }

    /// The recorded reports.
    pub fn reports(&self) -> &[KernelReport] {
        &self.reports
    }

    /// Removes and returns all recorded reports.
    pub fn drain(&mut self) -> Vec<KernelReport> {
        std::mem::take(&mut self.reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fatality() {
        assert!(KernelReport::Panic { reason: "x".into() }.is_fatal());
        assert!(!KernelReport::Warn { reason: "x".into() }.is_fatal());
        assert!(KernelReport::Kasan {
            kind: KasanKind::OutOfBounds,
            addr: 0,
            size: 8,
            is_write: false,
            origin: ReportOrigin::ProgramAccess,
        }
        .is_fatal());
    }

    #[test]
    fn sink_drain() {
        let mut sink = ReportSink::new();
        assert!(!sink.any());
        sink.record(KernelReport::Warn { reason: "w".into() });
        assert!(sink.any());
        assert!(!sink.any_fatal());
        sink.record(KernelReport::Panic { reason: "p".into() });
        assert!(sink.any_fatal());
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert!(!sink.any());
    }

    #[test]
    fn summaries_render() {
        let r = KernelReport::AluLimitViolation {
            pc: 3,
            offset: 100,
            limit: 64,
        };
        assert!(r.summary().contains("alu_limit"));
        assert_eq!(r.origin(), Some(ReportOrigin::ProgramAccess));
    }
}
