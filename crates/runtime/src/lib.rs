//! The eBPF runtime: an execution engine standing in for JITed native
//! code, plus the `bpf(2)` syscall façade tying the verifier and the
//! simulated kernel together.
//!
//! Workflow (paper Figure 3): a program enters through
//! [`Bpf::prog_load`], is validated and rewritten by the verifier, is
//! optionally instrumented by BVF's sanitation, and then runs via
//! [`Bpf::test_run`] / tracepoint triggers — raw and unchecked like
//! native code, with only the dispatched `bpf_asan_*` calls consulting
//! the KASAN shadow.

#![warn(missing_docs)]

pub mod bpf;
pub mod interp;
pub mod scratch;

pub use bpf::{Backend, Bpf, BpfError, LoadedProg, RunReport};
pub use interp::{
    exec_program, exec_program_traced, fire_tracepoint, ExecImage, ExecResult, ExecTrace,
    HaltReason, TraceStep, TriggerCtx,
};
pub use scratch::ExecScratch;
