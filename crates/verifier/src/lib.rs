//! The eBPF verifier — the system under test.
//!
//! An abstract-interpretation verifier closely modeled on the Linux
//! kernel's `kernel/bpf/verifier.c`: tristate numbers ([`tnum::Tnum`]),
//! signed/unsigned 64/32-bit range tracking, ten-plus pointer types,
//! per-byte stack slot tracking with precise spills, path exploration
//! with state pruning, helper-prototype and kfunc checking, reference
//! tracking, packet ranges, nullness propagation, and rewrite passes.
//!
//! The correctness defects of the paper's Table 2 that live in the
//! verifier (bugs #1–#6 and CVE-2022-23222) are implemented as toggleable
//! injected bugs at the exact analysis sites the paper describes; see
//! [`bvf_kernel_sim::BugId`].
//!
//! The verifier is itself instrumented for branch coverage ([`cov`]),
//! playing the role kcov plays in the paper's feedback loop.

#![warn(missing_docs)]

pub mod check;
pub mod cov;
pub mod env;
pub mod errors;
pub mod fixup;
pub mod prune;
pub mod sanitize;
pub mod shape;
pub mod snapshot;
pub mod state;
pub mod tnum;
pub mod types;
pub mod verifier;

pub use cov::{Cat, Coverage};
pub use env::{AluLimitMeta, InsnMeta, KernelVersion, VerifiedProgram, VerifierOpts};
pub use errors::{ErrorKind, RejectReason, VerifierError, VerifierPhase};
pub use sanitize::{instrument, SanitizeError, SanitizeStats};
pub use shape::{FilterKey, StateShape};
pub use snapshot::{InsnStates, RegSnapshot, SnapshotStream};
pub use tnum::Tnum;
pub use types::{RegState, RegType};
pub use verifier::{verify, VerifyOutcome};
