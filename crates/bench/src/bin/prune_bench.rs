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
//! With `--fixture PATH` it instead verifies the one scenario in `PATH`
//! (for example `tests/fixtures/complexity_limit_iter323.json`)
//! [`FIXTURE_RUNS`] times with the index on and off, under the default
//! campaign's kernel, and reports the median `do_check` nanoseconds per
//! processed instruction — the verifier's per-instruction cost on one
//! program, free of the campaign around it. Results go to
//! `bench_results/prune_bench_fixture.json`.
//!
//! Usage: `prune_bench [--iters N] [--seed S] [--quick] [--check]`
//!        `prune_bench --fixture PATH`

use bvf::baseline::GeneratorKind;
use bvf::fuzz::CampaignConfig;
use bvf::scenario::{run, Scenario};
use bvf_bench::{arg_flag, arg_usize, render_table, run_campaign_with_stats, save_json};
use bvf_runtime::BpfError;
use bvf_telemetry::PhaseTimings;

/// Verifications per index setting in `--fixture` mode.
const FIXTURE_RUNS: usize = 10;

/// The value following `name` on the command line, if any.
fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}

/// `--fixture` mode: the per-instruction cost of verifying one program.
fn fixture(path: &str) {
    let scenario: Scenario = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| {
            eprintln!("prune_bench: cannot load {path}: {e}");
            std::process::exit(2);
        });
    // One setting's runs: the verdict, the last run's timings, and the
    // median do_check ns per processed insn.
    let measure = |prune_index: bool| {
        let cfg = CampaignConfig {
            prune_index,
            ..CampaignConfig::new(GeneratorKind::Bvf, 0, 0)
        };
        let mut per_insn = Vec::with_capacity(FIXTURE_RUNS);
        let mut last = None;
        for _ in 0..FIXTURE_RUNS {
            let out = run(&scenario, &cfg, None);
            let t = out.timings;
            per_insn.push(t.do_check_ns as f64 / t.insns_processed.max(1) as f64);
            let verdict = match &out.load {
                Ok(_) => "accepted".to_string(),
                Err(BpfError::Verifier(e)) => e.reason.name().to_string(),
                Err(e) => format!("{e:?}"),
            };
            last = Some((verdict, t, out.cov));
        }
        per_insn.sort_by(f64::total_cmp);
        let (verdict, t, cov) = last.expect("FIXTURE_RUNS > 0");
        (verdict, t, cov, per_insn[FIXTURE_RUNS / 2])
    };
    let (verdict, on, cov_on, ns_on) = measure(true);
    let (verdict_off, off, cov_off, ns_off) = measure(false);
    // The pure-filter invariant on one program.
    assert_eq!(verdict, verdict_off, "index changed the verdict");
    assert_eq!(
        on.insns_processed, off.insns_processed,
        "index changed the processed instructions"
    );
    assert_eq!(cov_on, cov_off, "index changed coverage");

    let counters = |t: &PhaseTimings| {
        format!(
            "{} checks, {} hits, {} states_equal",
            t.prune.checks, t.prune.hits, t.prune.states_equal_calls
        )
    };
    let rows = vec![
        vec!["program".into(), path.to_string()],
        vec![
            "type / insns".into(),
            format!("{:?} / {}", scenario.prog_type, scenario.prog.insn_count()),
        ],
        vec!["verdict".into(), verdict.clone()],
        vec!["processed insns".into(), on.insns_processed.to_string()],
        vec!["prune (on)".into(), counters(&on)],
        vec!["prune (off)".into(), counters(&off)],
        vec![
            "do_check ns / processed insn (on)".into(),
            format!("{ns_on:.1}"),
        ],
        vec![
            "do_check ns / processed insn (off)".into(),
            format!("{ns_off:.1}"),
        ],
    ];
    println!(
        "
verifier cost on one program (median of {FIXTURE_RUNS} runs)
"
    );
    println!("{}", render_table(&["Metric", "Value"], &rows));
    save_json(
        "prune_bench_fixture.json",
        &serde_json::json!({
            "fixture": path,
            "runs": FIXTURE_RUNS,
            "verdict": verdict,
            "insns_processed": on.insns_processed,
            "prune_checks": on.prune.checks,
            "prune_hits": on.prune.hits,
            "states_equal_calls_on": on.prune.states_equal_calls,
            "states_equal_calls_off": off.prune.states_equal_calls,
            "do_check_ns_per_insn_on": ns_on,
            "do_check_ns_per_insn_off": ns_off,
        }),
    );
}

fn main() {
    if let Some(path) = arg_str("--fixture") {
        fixture(&path);
        return;
    }
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
