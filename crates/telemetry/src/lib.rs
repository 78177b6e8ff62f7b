//! Campaign observability for the BVF reproduction.
//!
//! The paper's whole evaluation (Tables 2–3, Figure 6) is built on
//! observing campaign dynamics — acceptance rate, coverage growth,
//! time-to-finding — so the fuzzing loop must be measurable without
//! perturbing it. This crate provides the three layers every consumer
//! shares:
//!
//! - a [`metrics::Registry`] of counters, gauges, and log-scale
//!   histograms (zero heavy deps, hand-rolled like the rest of the
//!   workspace);
//! - a structured event trace ([`trace::TraceSink`]) with JSONL and null
//!   implementations, emitting per-iteration events with monotonic
//!   timestamps that stay **out** of every dedup/determinism path;
//! - phase-profiling primitives ([`profile::PhaseTimings`]) filled in by
//!   `bvf-verifier` (do_check / prune / fixup) and `bvf-runtime`
//!   (sanitation instrumentation), surfaced as histograms.
//!
//! [`stats::CampaignStats`] is the stable machine-readable summary
//! schema shared by `bvf fuzz --json-out` and the `crates/bench`
//! binaries.
//!
//! Timestamps and wall-clock durations recorded here are observational
//! only: campaign control flow (corpus retention, dedup, triage) never
//! reads them, so a campaign with tracing enabled is bit-identical to
//! one with the null sink.

#![warn(missing_docs)]

pub mod fabric;
pub mod metrics;
pub mod profile;
pub mod stats;
pub mod trace;

pub use fabric::FabricCounters;
pub use metrics::{Histogram, Registry};
pub use profile::{PhaseTimings, PruneCounters};
pub use stats::{CampaignStats, SancheckStats};
pub use trace::{GenSource, JsonlSink, NullSink, TraceEvent, TraceSink};

/// The telemetry bundle one campaign threads through its loop: the
/// metrics registry and the event sink. [`Telemetry::null`] is the
/// zero-overhead default. Live progress is the scheduler's business
/// (`bvf_campaign::SharedProgress`), not the loop's.
pub struct Telemetry {
    /// Counters, gauges, and histograms accumulated by the campaign.
    pub registry: Registry,
    sink: Box<dyn TraceSink>,
}

impl Telemetry {
    /// Telemetry that records metrics but traces nowhere.
    pub fn null() -> Telemetry {
        Telemetry::new(Box::new(NullSink))
    }

    /// Telemetry tracing into `sink`.
    pub fn new(sink: Box<dyn TraceSink>) -> Telemetry {
        Telemetry {
            registry: Registry::default(),
            sink,
        }
    }

    /// Whether emitting trace events does anything — lets hot loops skip
    /// building event payloads for the null sink.
    pub fn trace_on(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Emits one trace event.
    pub fn emit(&mut self, event: &TraceEvent) {
        self.sink.emit(event);
    }

    /// Flushes the sink.
    pub fn finish(&mut self) {
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_telemetry_traces_nothing() {
        let mut tel = Telemetry::null();
        assert!(!tel.trace_on());
        tel.emit(&TraceEvent::Snapshot {
            iter: 0,
            coverage: 1,
            accepted: 1,
            findings: 0,
            corpus: 0,
        });
        tel.registry.inc("iterations");
        assert_eq!(tel.registry.counter("iterations"), 1);
        tel.finish();
    }
}
