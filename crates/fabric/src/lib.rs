//! `bvf-fabric` — the distributed campaign fabric: a coordinator
//! service plus remote-worker transport that turns the in-process
//! campaign machinery into a network protocol.
//!
//! The mapping from in-process pieces to wire concepts is one-to-one:
//!
//! - work-stealing **lease batches** become wire-leased batch grants
//!   ([`proto::Request::Lease`] / [`proto::LeaseGrant`]);
//! - the exchange hub's sequence-numbered **corpus deltas** become
//!   streamed [`proto::CorpusDelta`] frames a worker folds into a
//!   mirrored [`CorpusLedger`];
//! - the campaign's shared signature claim set becomes a per-campaign
//!   set on the coordinator, claimed with [`proto::Request::Claim`] and
//!   dropped when the campaign merges.
//!
//! Determinism is inherited, not re-proven: a batch's output is a pure
//! function of `(CampaignConfig, batch id, seed view)`, and the
//! coordinator only grants batches whose seed generations have fully
//! published — so worker churn, lease re-issue, duplicate completions,
//! and claim races all merge to results **bit-identical**
//! to a local `--workers N` run. See `DESIGN.md` §6 for the full
//! argument.
//!
//! [`CorpusLedger`]: bvf::fuzz::CorpusLedger

#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod proto;
pub mod worker;

pub use client::{Client, RemoteOutcome};
pub use coordinator::{Coordinator, CoordinatorOptions};
pub use worker::{run_worker, WorkerOptions, WorkerReport};

use std::fmt;
use std::io;

/// Everything that can go wrong on the fabric.
#[derive(Debug)]
pub enum FabricError {
    /// Transport failure.
    Io(io::Error),
    /// The coordinator refused the handshake (magic/version mismatch).
    Refused(String),
    /// The peer sent a frame that violates the protocol state machine.
    Protocol(String),
}

impl FabricError {
    /// A protocol error for an out-of-place response frame.
    pub(crate) fn unexpected(wanted: &str, got: &crate::proto::Response) -> FabricError {
        FabricError::Protocol(format!("expected {wanted}, got {got:?}"))
    }
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Io(e) => write!(f, "fabric transport error: {e}"),
            FabricError::Refused(reason) => write!(f, "handshake refused: {reason}"),
            FabricError::Protocol(reason) => write!(f, "protocol error: {reason}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<io::Error> for FabricError {
    fn from(e: io::Error) -> FabricError {
        FabricError::Io(e)
    }
}
