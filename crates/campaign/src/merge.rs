//! Merging of per-worker metric registries.
//!
//! The campaign *result* is merged by [`bvf::fuzz::merge_batches`] —
//! a pure fold over batch outputs in batch order, shared with the
//! serial driver so 1-worker identity is structural. What remains here
//! is the observational side: folding per-worker metric registries in
//! worker-id order, so merged histograms and counters are stable
//! however threads finished.

use bvf_telemetry::Registry;

/// Folds per-worker registries (in the order given — pass them sorted
/// by worker id) into one campaign registry. Non-additive campaign
/// gauges (`coverage_points`) are the caller's to overwrite with the
/// merged truth afterwards.
pub fn merge_registries(registries: impl IntoIterator<Item = Registry>) -> Registry {
    let mut merged = Registry::new();
    for r in registries {
        merged.merge(&r);
    }
    merged
}
