//! The scheduler's central guarantee, as tests: the merged
//! [`CampaignResult`] is a pure function of the [`CampaignConfig`] —
//! **worker count, steal schedule, and finish order are not inputs**.
//!
//! Campaign iterations are carved into lease batches whose RNG streams
//! depend only on the batch id (`bvf::fuzz::stream_seed`), seed views
//! fold ledger contents in batch order regardless of arrival order, and
//! the merge folds batch outputs in batch order. So `--workers 4` must
//! reproduce `--workers 1` exactly — every field, floating-point means
//! bit for bit — and a chaos-jittered run (deterministic per-batch
//! sleeps that reshuffle stealing) must reproduce an un-jittered one.

use std::sync::OnceLock;

use bvf::baseline::GeneratorKind;
use bvf::fuzz::{batch_count, run_campaign, CampaignConfig, CampaignResult};
use bvf_campaign::{run_sharded, ParallelConfig};
use proptest::prelude::*;

fn config(iters: usize, seed: u64) -> CampaignConfig {
    // Defaults: all bugs injected, sanitation + triage + feedback on —
    // the full pipeline, so the test exercises finding dedup and triage
    // merging, not just generation.
    CampaignConfig::new(GeneratorKind::Bvf, iters, seed)
}

/// One finding reduced to its deterministic identity.
type FindingKey = (usize, String, Vec<String>);

/// The deterministic projection of a result: everything except wall
/// time (which lives outside `CampaignResult` anyway).
fn fingerprint(r: &CampaignResult) -> (Vec<FindingKey>, usize, usize, usize) {
    (
        r.findings
            .iter()
            .map(|f| {
                (
                    f.iteration,
                    f.signature.clone(),
                    f.culprits.iter().map(|c| format!("{c:?}")).collect(),
                )
            })
            .collect(),
        r.accepted,
        r.coverage.len(),
        r.corpus_len,
    )
}

/// Full-strength equality: every deterministic field, means bitwise.
fn assert_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.generator, b.generator, "{what}: generator");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.accepted, b.accepted, "{what}: accepted");
    assert_eq!(a.errno_histogram, b.errno_histogram, "{what}: errnos");
    assert_eq!(a.reject_reasons, b.reject_reasons, "{what}: reject reasons");
    assert_eq!(a.coverage, b.coverage, "{what}: coverage");
    assert_eq!(a.timeline, b.timeline, "{what}: timeline");
    assert_eq!(a.found_bugs, b.found_bugs, "{what}: found bugs");
    assert_eq!(a.corpus_len, b.corpus_len, "{what}: corpus");
    assert_eq!(
        a.alu_jmp_share.to_bits(),
        b.alu_jmp_share.to_bits(),
        "{what}: alu share"
    );
    assert_eq!(
        a.avg_prog_len.to_bits(),
        b.avg_prog_len.to_bits(),
        "{what}: prog len"
    );
    assert_eq!(a.findings.len(), b.findings.len(), "{what}: finding count");
    for (x, y) in a.findings.iter().zip(&b.findings) {
        assert_eq!(x.iteration, y.iteration, "{what}: finding iteration");
        assert_eq!(x.signature, y.signature, "{what}: finding signature");
        assert_eq!(x.culprits, y.culprits, "{what}: finding culprits");
        assert_eq!(
            x.finding.indicator, y.finding.indicator,
            "{what}: finding indicator"
        );
    }
}

#[test]
fn one_worker_matches_legacy_serial_path() {
    let cfg = config(800, 20_240_601);
    let serial = run_campaign(&cfg);
    let sharded = run_sharded(&cfg, &ParallelConfig::new(1)).result;
    assert_identical(&serial, &sharded, "serial vs 1 worker");
}

#[test]
fn every_worker_count_matches_one_worker() {
    // The acceptance bar of the work-stealing redesign: merged results
    // are bit-identical to `--workers 1` at any worker count, findings
    // and corpus included.
    let cfg = config(600, 97);
    let one = run_sharded(&cfg, &ParallelConfig::new(1)).result;
    for workers in [2usize, 3, 4] {
        let many = run_sharded(&cfg, &ParallelConfig::new(workers)).result;
        assert_identical(&one, &many, &format!("{workers} workers vs 1"));
    }
}

#[test]
fn campaigns_are_deterministic_run_to_run() {
    for workers in [1usize, 2, 4] {
        let cfg = config(600, 97);
        let pcfg = ParallelConfig::new(workers);
        let a = run_sharded(&cfg, &pcfg);
        let b = run_sharded(&cfg, &pcfg);
        assert_identical(
            &a.result,
            &b.result,
            &format!("run-to-run at {workers} workers"),
        );
    }
}

#[test]
fn chaos_jitter_cannot_change_the_result() {
    // Chaos mode injects deterministic per-(batch, worker) sleeps
    // before each claimed batch, perturbing which batches get stolen
    // and in what order workers finish. None of that is a campaign
    // input, so the merged result must not move.
    let cfg = config(500, 7);
    let calm = run_sharded(&cfg, &ParallelConfig::new(3)).result;
    for chaos in [1u64, 0xdead_beef, u64::MAX] {
        let mut pcfg = ParallelConfig::new(3);
        pcfg.chaos = chaos;
        let outcome = run_sharded(&cfg, &pcfg);
        assert_identical(&calm, &outcome.result, &format!("chaos {chaos:#x}"));
    }
}

#[test]
fn worker_summaries_partition_the_campaign() {
    let cfg = config(500, 3);
    let outcome = run_sharded(&cfg, &ParallelConfig::new(4));
    assert_eq!(outcome.workers.len(), 4);
    let iters: usize = outcome.workers.iter().map(|w| w.iterations).sum();
    assert_eq!(iters, cfg.iterations, "iterations partition exactly");
    let batches: usize = outcome.workers.iter().map(|w| w.batches).sum();
    assert_eq!(batches, batch_count(&cfg), "batches partition exactly");
    // A worker can only steal batches it actually ran.
    for w in &outcome.workers {
        assert!(w.stolen <= w.batches, "stole more than it ran");
    }
    let accepted: usize = outcome.workers.iter().map(|w| w.accepted).sum();
    assert_eq!(accepted, outcome.result.accepted);
}

#[test]
fn merged_trace_is_iteration_ordered_and_worker_tagged() {
    let cfg = config(200, 11);
    let mut pcfg = ParallelConfig::new(2);
    pcfg.trace = true;
    let outcome = run_sharded(&cfg, &pcfg);
    let trace = outcome.trace.expect("trace requested");
    let text = String::from_utf8(trace).expect("trace is utf-8");
    let mut prev = (0u64, 0u64);
    let mut seen_workers = std::collections::BTreeSet::new();
    let mut lines = 0usize;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL");
        let key = (v["iter"].as_u64().unwrap(), v["worker"].as_u64().unwrap());
        assert!(key >= prev, "trace out of order: {prev:?} then {key:?}");
        prev = key;
        seen_workers.insert(key.1);
        lines += 1;
    }
    assert!(lines >= cfg.iterations, "at least one event per iteration");
    assert_eq!(seen_workers.len(), 2, "both workers contribute events");
}

#[test]
fn one_worker_diff_oracle_matches_serial() {
    // The differential oracle adds per-iteration snapshot/trace work
    // and an extra counter stream; none of it may perturb the
    // 1-worker-equals-serial guarantee, and the merged DiffStats must
    // equal the serial sums field for field.
    let mut cfg = config(600, 20_240_601);
    cfg.diff_oracle = true;
    let serial = run_campaign(&cfg);
    let sharded = run_sharded(&cfg, &ParallelConfig::new(1)).result;

    assert_identical(&serial, &sharded, "diff oracle serial vs 1 worker");
    assert_eq!(serial.diff.steps_total, sharded.diff.steps_total);
    assert_eq!(serial.diff.steps_checked, sharded.diff.steps_checked);
    assert_eq!(
        serial.diff.steps_skipped_emitted,
        sharded.diff.steps_skipped_emitted
    );
    assert_eq!(
        serial.diff.steps_skipped_unrecorded,
        sharded.diff.steps_skipped_unrecorded
    );
    assert_eq!(serial.diff.regs_checked, sharded.diff.regs_checked);
    assert_eq!(serial.diff.divergences, sharded.diff.divergences);
    assert!(serial.diff.steps_checked > 0, "oracle must have run");
}

#[test]
fn prune_index_on_and_off_find_the_same_bugs() {
    // The fingerprint index is a pure filter over `states_equal`
    // candidates: it may change how many comparisons run, never which
    // paths are pruned. A whole campaign — generation, verification,
    // execution, oracles, dedup, triage — must therefore be identical
    // with the index on and off, diff oracle included.
    let mut on = config(600, 20_240_601);
    on.diff_oracle = true;
    let mut off = on.clone();
    off.prune_index = false;

    let a = run_campaign(&on);
    let b = run_campaign(&off);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "the fingerprint index changed campaign findings"
    );
    assert_eq!(a.errno_histogram, b.errno_histogram);
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(a.found_bugs, b.found_bugs);
    assert_eq!(a.diff.divergences, b.diff.divergences);
    assert!(!a.findings.is_empty(), "campaign must find something");
}

#[test]
fn diff_campaigns_are_deterministic_across_worker_counts() {
    let mut cfg = config(400, 97);
    cfg.diff_oracle = true;
    let one = run_sharded(&cfg, &ParallelConfig::new(1)).result;
    for workers in [2usize, 3] {
        let many = run_sharded(&cfg, &ParallelConfig::new(workers)).result;
        assert_identical(&one, &many, &format!("diff oracle {workers} vs 1"));
        assert_eq!(one.diff.steps_checked, many.diff.steps_checked);
        assert_eq!(one.diff.divergences, many.diff.divergences);
    }
}

#[test]
fn steered_campaigns_are_worker_count_invariant() {
    // Acceptance-rate steering derives its shape weights purely from
    // the exchange ledger's batch-ordered fold — never from wall clock
    // or worker identity — so `--steer` must not weaken the scheduler's
    // central guarantee: 1, 2, and 4 workers merge bit-identically,
    // findings included.
    let steered = CampaignConfig {
        steer: true,
        batch_len: 16,
        exchange_every: 32,
        ..config(480, 53)
    };
    let serial = run_campaign(&steered);
    for workers in [1usize, 2, 4] {
        let many = run_sharded(&steered, &ParallelConfig::new(workers)).result;
        assert_identical(&serial, &many, &format!("steered {workers} workers"));
    }

    // With the flag off, the stock path is untouched by the steering
    // machinery and keeps the same guarantee.
    let unsteered = CampaignConfig {
        steer: false,
        ..steered.clone()
    };
    let off_serial = run_campaign(&unsteered);
    let off_sharded = run_sharded(&unsteered, &ParallelConfig::new(2)).result;
    assert_identical(&off_serial, &off_sharded, "steer-off 2 workers");

    // The two modes genuinely diverge: steering changes what gets
    // generated, not just how results are counted.
    assert_ne!(
        fingerprint(&serial),
        fingerprint(&off_serial),
        "steering had no effect on the campaign"
    );
}

/// The property-test campaign: small (the vendored proptest runs a
/// fixed 192 cases) but multi-generation, so stealing, exchange lag,
/// and merge all engage.
fn property_config() -> CampaignConfig {
    CampaignConfig {
        batch_len: 16,
        exchange_every: 32,
        ..config(96, 41)
    }
}

/// The property-test reference: one serial run of the fixed config,
/// computed once however many cases proptest throws at it.
fn property_reference() -> &'static CampaignResult {
    static REF: OnceLock<CampaignResult> = OnceLock::new();
    REF.get_or_init(|| run_campaign(&property_config()))
}

proptest! {
    /// Satellite property: for *any* worker count and *any* chaos seed
    /// — i.e. any steal schedule and any finish order — the merged
    /// result equals the serial reference.
    #[test]
    fn merge_is_schedule_independent(workers in 1usize..=4, chaos in any::<u64>()) {
        let mut pcfg = ParallelConfig::new(workers);
        pcfg.chaos = chaos;
        let merged = run_sharded(&property_config(), &pcfg).result;
        let reference = property_reference();
        prop_assert_eq!(fingerprint(reference), fingerprint(&merged));
        prop_assert_eq!(&reference.errno_histogram, &merged.errno_histogram);
        prop_assert_eq!(&reference.coverage, &merged.coverage);
        prop_assert_eq!(&reference.timeline, &merged.timeline);
        prop_assert_eq!(reference.alu_jmp_share.to_bits(), merged.alu_jmp_share.to_bits());
    }
}
