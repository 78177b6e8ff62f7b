//! **Explored-state index effectiveness** (the verifier hot path).
//!
//! Runs the same campaign twice — fingerprint index on and off — and
//! reports what the index buys: the fraction of `states_equal`
//! comparisons the structural fingerprint filtered out, the prune hit
//! rate, resident states per prune point, eviction traffic, and the
//! wall-clock ratio between the two runs, plus `do_check` nanoseconds
//! per processed instruction for each. The two campaigns must
//! produce identical findings, acceptance, and coverage: the index is
//! a pure filter and this binary doubles as the regression check for
//! that invariant (`--check` additionally enforces the >50%
//! filtered-fraction floor from the optimization's acceptance
//! criteria, for CI).
//!
//! All counters come from the merged `prune.*` registry counters the
//! verifier threads through `PhaseTimings` — the same numbers `bvf
//! fuzz --json-out` emits, so committed results and campaign dumps
//! stay comparable.
//!
//! Usage: `prune_bench [--iters N] [--seed S] [--quick] [--check]`

use bvf::baseline::GeneratorKind;
use bvf::fuzz::CampaignConfig;
use bvf_bench::{arg_flag, arg_usize, render_table, run_campaign_with_stats, save_json};

fn main() {
    let quick = arg_flag("--quick");
    let check = arg_flag("--check");
    let iters = arg_usize("--iters", if quick { 2_000 } else { 20_000 });
    let seed = arg_usize("--seed", 41) as u64;

    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, iters, seed);
    eprintln!("prune_bench: {iters} iterations, seed {seed}, index on vs off");

    let t0 = std::time::Instant::now();
    let (on, on_stats) = run_campaign_with_stats(&cfg);
    let wall_ns_on = t0.elapsed().as_nanos() as u64;

    cfg.prune_index = false;
    let t1 = std::time::Instant::now();
    let (off, off_stats) = run_campaign_with_stats(&cfg);
    let wall_ns_off = t1.elapsed().as_nanos() as u64;

    // The pure-filter invariant, end to end: same findings, same
    // acceptance, same coverage — only the comparison counts may move.
    let sig = |r: &bvf::fuzz::CampaignResult| {
        r.findings
            .iter()
            .map(|f| (f.iteration, f.signature.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(sig(&on), sig(&off), "index changed the findings");
    assert_eq!(on.accepted, off.accepted, "index changed acceptance");
    assert_eq!(on.coverage, off.coverage, "index changed coverage");

    let c = |name: &str| on_stats.metrics.counter(name);
    let checks = c("prune.checks");
    let hits = c("prune.hits");
    let calls = c("prune.states_equal_calls");
    let filtered = c("prune.fingerprint_filtered");
    let shared = c("prune.loop_scan_shared");
    let evictions = c("prune.evictions");
    let points = c("prune.points");
    let stored = c("prune.states_stored");
    let calls_off = off_stats.metrics.counter("prune.states_equal_calls");
    // The verifier's per-instruction cost: `do_check` wall time over the
    // instructions it processed (both run the same instructions).
    let ns_per_insn = |stats: &bvf_telemetry::CampaignStats| {
        let do_check_ns = stats
            .metrics
            .histogram("verify.do_check_ns")
            .map_or(0, |h| h.sum);
        do_check_ns as f64 / stats.metrics.counter("verify.insns_processed").max(1) as f64
    };
    let ns_per_insn_on = ns_per_insn(&on_stats);
    let ns_per_insn_off = ns_per_insn(&off_stats);

    let frac = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    // Of the candidate comparisons the index run considered, how many
    // did the fingerprint answer without running `states_equal`?
    let filtered_fraction = frac(filtered, filtered + calls);
    let hit_rate = frac(hits, checks);
    let states_per_point = frac(stored, points);
    let speedup = wall_ns_off as f64 / wall_ns_on.max(1) as f64;

    let rows = vec![
        vec!["prune-point visits".into(), checks.to_string()],
        vec![
            "prune hits".into(),
            format!("{hits} ({:.1}%)", hit_rate * 100.0),
        ],
        vec!["states_equal calls (on)".into(), calls.to_string()],
        vec!["states_equal calls (off)".into(), calls_off.to_string()],
        vec![
            "fingerprint filtered".into(),
            format!(
                "{filtered} ({:.1}% of candidates)",
                filtered_fraction * 100.0
            ),
        ],
        vec!["loop-scan shared".into(), shared.to_string()],
        vec!["evictions".into(), evictions.to_string()],
        vec![
            "states / prune point".into(),
            format!("{states_per_point:.2} ({stored} in {points} points)"),
        ],
        vec![
            "do_check ns / processed insn (on)".into(),
            format!("{ns_per_insn_on:.1}"),
        ],
        vec![
            "do_check ns / processed insn (off)".into(),
            format!("{ns_per_insn_off:.1}"),
        ],
        vec!["wall ratio off/on".into(), format!("{speedup:.2}x")],
    ];
    println!("\nexplored-state index effectiveness ({iters} iterations)\n");
    println!("{}", render_table(&["Metric", "Value"], &rows));

    save_json(
        "prune_bench.json",
        &serde_json::json!({
            "iters": iters,
            "seed": seed,
            "quick": quick,
            "prune_checks": checks,
            "prune_hits": hits,
            "hit_rate": hit_rate,
            "states_equal_calls_on": calls,
            "states_equal_calls_off": calls_off,
            "fingerprint_filtered": filtered,
            "filtered_fraction": filtered_fraction,
            "loop_scan_shared": shared,
            "evictions": evictions,
            "prune_points": points,
            "states_stored": stored,
            "states_per_point": states_per_point,
            "wall_ns_on": wall_ns_on,
            "wall_ns_off": wall_ns_off,
            "wall_ratio_off_over_on": speedup,
            "insns_processed": on_stats.metrics.counter("verify.insns_processed"),
            "do_check_ns_per_insn_on": ns_per_insn_on,
            "do_check_ns_per_insn_off": ns_per_insn_off,
            "findings": on.findings.len(),
            "findings_identical": true,
        }),
    );

    if check {
        assert!(
            filtered_fraction > 0.5,
            "fingerprint filter below the 50% floor: {:.1}% \
             ({filtered} filtered vs {calls} executed)",
            filtered_fraction * 100.0
        );
        eprintln!(
            "check passed: {:.1}% of candidate comparisons filtered",
            filtered_fraction * 100.0
        );
    }
}
