//! End-to-end tests of the sanitizer self-validation subsystem
//! (`bvf-sancheck`): the sanitized-vs-unsanitized dual-execution
//! oracle, the injected sanitizer-defect matrix, campaign integration
//! (`fuzz --san-diff`), and the minimizer round-trip on a committed
//! divergence fixture.
//!
//! The defect matrix is the subsystem's own regression suite: each of
//! the eight seeded sanitizer bugs ships with a reproducer whose
//! divergence verdict must *flip* when the defect is healed, so a
//! comparator or instrumentation regression that lets any class escape
//! fails here (and in the `bvf sancheck --matrix` CI smoke).

use bvf::fuzz::{run_campaign, CampaignConfig};
use bvf::minimize::minimize;
use bvf::sanmatrix::run_matrix;
use bvf::scenario::{run, Scenario};
use bvf::GeneratorKind;
use bvf_kernel_sim::{BugSet, KernelReport, SanDefect, SanDefectSet};
use bvf_verifier::KernelVersion;

#[test]
fn matrix_catches_all_defect_classes() {
    let out = run_matrix(KernelVersion::BpfNext);
    assert_eq!(out.results.len(), SanDefect::ALL.len());
    let escaped = out.escaped();
    assert!(
        escaped.is_empty(),
        "sanitizer defects escaped the oracle: {:?}",
        escaped.iter().map(|d| d.name()).collect::<Vec<_>>()
    );
    // One matrix hit per class, keyed by defect name.
    let hits = out.hits();
    assert_eq!(hits.len(), SanDefect::ALL.len());
    assert!(hits.values().all(|&h| h == 1));
}

#[test]
fn clean_kernel_campaign_shows_zero_divergences() {
    // The CI fuzz smoke's invariant: with no defects injected anywhere
    // (kernel bugs or sanitizer defects), dual execution never
    // diverges — the documented instrumentation deltas (step overhead,
    // fault conversion, scratch slots) are all filtered by contract.
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 200, 7);
    cfg.bugs = BugSet::none();
    cfg.san_diff = true;
    cfg.triage = false;
    let r = run_campaign(&cfg);
    assert!(r.san.runs > 0, "campaign must exercise the dual runs");
    assert_eq!(
        r.san.divergences,
        0,
        "defect-free kernel must never diverge: {:?}",
        r.findings
            .iter()
            .map(|f| f.signature.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn armed_defect_campaign_reports_divergences() {
    // ScratchClobber corrupts every sanitized program's live R0 spill,
    // so generated programs trip it quickly.
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 300, 7);
    cfg.bugs = BugSet::none();
    cfg.san_diff = true;
    cfg.san_defects = SanDefectSet::only(SanDefect::ScratchClobber);
    let r = run_campaign(&cfg);
    assert!(r.san.divergences > 0, "armed defect must diverge");
    assert!(
        r.findings
            .iter()
            .any(|f| f.signature.starts_with("One:sandiv:")),
        "divergences must flow into findings: {:?}",
        r.findings
            .iter()
            .map(|f| f.signature.clone())
            .collect::<Vec<_>>()
    );

    // The per-kind counters partition the divergence total, and the
    // exported stats mirror them (the v3 schema sum invariant, same
    // shape as the reject_reasons one).
    let kind_sum = r.san.exec_mismatch
        + r.san.step_mismatch
        + r.san.san_abort
        + r.san.masked_fault
        + r.san.unchecked_access
        + r.san.fault_meta_mismatch;
    assert_eq!(kind_sum, r.san.divergences);
    let stats = r.to_stats(7, bvf_telemetry::Registry::new());
    assert_eq!(stats.sancheck.runs, r.san.runs);
    assert_eq!(stats.sancheck.divergences, r.san.divergences);
    assert_eq!(
        stats.sancheck.kinds.values().sum::<u64>(),
        stats.sancheck.divergences
    );
}

fn load_fixture() -> Scenario {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/fixtures/sandiv_scratch_clobber.json"
    ))
    .expect("fixture must exist");
    serde_json::from_str(&json).expect("fixture must parse")
}

/// A dual-run replay on the defect-free kernel with `defects` armed in
/// both runs.
fn san_config(defects: SanDefectSet) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 0, 0);
    cfg.bugs = BugSet::none();
    cfg.san_diff = true;
    cfg.san_defects = defects;
    cfg
}

#[test]
fn committed_fixture_diverges_only_when_armed() {
    let s = load_fixture();
    let armed = run(
        &s,
        &san_config(SanDefectSet::only(SanDefect::ScratchClobber)),
        None,
    );
    assert!(armed.accepted(), "fixture must verify: {:?}", armed.load);
    assert!(
        armed
            .reports
            .iter()
            .any(|r| matches!(r, KernelReport::SanitizerDivergence { .. })),
        "armed replay must diverge: {:?}",
        armed.reports
    );
    let healed = run(&s, &san_config(SanDefectSet::none()), None);
    assert!(
        !healed
            .reports
            .iter()
            .any(|r| matches!(r, KernelReport::SanitizerDivergence { .. })),
        "healed replay must be clean: {:?}",
        healed.reports
    );
}

#[test]
fn minimize_round_trips_divergence_signature() {
    let s = load_fixture();
    let cfg = san_config(SanDefectSet::only(SanDefect::ScratchClobber));
    let out = minimize(&s, &cfg, 1).expect("fixture must minimize");
    assert_eq!(out.signature, "One:sandiv:exec-mismatch");

    // The minimized scenario replays to the same signature — the
    // round-trip CI asserts this via `bvf replay`.
    let replay = run(&out.scenario, &cfg, None);
    assert!(
        replay
            .reports
            .iter()
            .any(|r| matches!(r, KernelReport::SanitizerDivergence { .. })),
        "minimized scenario must still diverge: {:?}",
        replay.reports
    );
}
