//! **Throughput scaling of the sharded campaign orchestrator**.
//!
//! Runs the same logical campaign at increasing worker counts and
//! reports executions per second, speedup over the 1-worker run, and
//! scaling efficiency (speedup / workers), alongside the work-stealing
//! scheduler's counters (batches stolen, nanoseconds blocked waiting
//! for corpus-exchange generations, exchange backlog). Also
//! cross-checks that the merged finding set is reproducible at every
//! worker count: each configuration runs twice and the runs must agree.
//!
//! On a single-core host the expected result is flat (efficiency
//! ~1/workers): the workers time-slice one CPU. The JSON records
//! `available_parallelism` and the host count (always 1 for this
//! in-process bench; fabric-scale measurements share the schema) so a
//! result file is interpretable without knowing the machine.
//!
//! With `--diff-oracle` the binary instead measures the overhead of
//! the abstract-vs-concrete differential oracle (Indicator #3):
//! a paired 1-worker run with the oracle off and on — same seed, same
//! iterations — reporting the slowdown from snapshot export, trace
//! recording, and the membership check, next to the committed 1-core
//! baseline rate (`bench_results/throughput_baseline_1core.json`) for
//! cross-run context. Results go to `bench_results/throughput_diff.json`.
//!
//! With `--san-diff` it measures the overhead of the sanitizer
//! self-validation oracle (`bvf-sancheck`) the same way: a paired
//! 1-worker run with dual execution off and on, on the defect-free
//! kernel (`BugSet::none()`, unlike the campaign baseline). Every accepted program
//! runs twice (sanitized and unsanitized) plus the comparator, so the
//! expected slowdown is bounded by ~2x plus comparison cost. Results go
//! to `bench_results/throughput_san.json`; `--check-regression PCT`
//! compares the dual-run rate against the committed 1-core baseline
//! (`bench_results/throughput_san_1core.json`).
//!
//! Every result file records the kernel's injected-defect set in
//! `bugs`: `"all"` for the campaign rows, `"none"` for the two overhead
//! pairs, so rates from different modes are not compared by mistake.
//!
//! Rows whose worker count exceeds `available_parallelism` are tagged
//! `oversubscribed: true` in the JSON and never feed
//! `--check-regression` — a time-sliced rate measures the scheduler,
//! not the code under test.
//!
//! Usage: `throughput [--iters N] [--seed S] [--workers 1,2,4,8] [--quick]
//!                    [--diff-oracle] [--san-diff]`

use bvf::baseline::GeneratorKind;
use bvf::fuzz::CampaignConfig;
use bvf_bench::{arg_flag, arg_usize, render_table, save_json};
use bvf_campaign::{run_sharded, ParallelConfig};
use bvf_kernel_sim::BugSet;

fn arg_worker_list(default: &[usize]) -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .map(|spec| {
            spec.split(',')
                .filter_map(|p| p.parse().ok())
                .filter(|&w| w >= 1)
                .collect()
        })
        .unwrap_or_else(|| default.to_vec())
}

/// The kernel's injected-defect set as the result JSON records it: the
/// campaign rows run every defect, the oracle-overhead pairs none.
fn bugs_label(bugs: &BugSet) -> &'static str {
    match bugs {
        b if *b == BugSet::all() => "all",
        b if *b == BugSet::none() => "none",
        _ => unreachable!("throughput runs every defect or none"),
    }
}

/// The committed 1-core campaign baseline.
const CAMPAIGN_BASELINE: &str = "bench_results/throughput_baseline_1core.json";

/// The committed 1-core baseline's 1-worker rate, if the file is
/// readable from the current directory.
fn committed_baseline_rate() -> Option<f64> {
    let text = std::fs::read_to_string(CAMPAIGN_BASELINE).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    v.get("points")?
        .as_array()?
        .iter()
        .find(|p| p.get("workers").and_then(|w| w.as_u64()) == Some(1))?
        .get("execs_per_sec")?
        .as_f64()
}

/// `--diff-oracle` mode: paired 1-worker runs, oracle off vs on.
fn diff_overhead(iters: usize, seed: u64, quick: bool) {
    let pcfg = ParallelConfig::new(1);
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, iters, seed);
    // Overhead is measured on the fixed kernel: with defects injected
    // the oracle would also spend time on real divergences and triage,
    // conflating detection cost with per-instruction checking cost.
    cfg.bugs = BugSet::none();
    let off = run_sharded(&cfg, &pcfg);
    cfg.diff_oracle = true;
    let on = run_sharded(&cfg, &pcfg);

    let rate = |wall_ns: u64| iters as f64 / (wall_ns as f64 / 1e9);
    let rate_off = rate(off.wall_ns);
    let rate_on = rate(on.wall_ns);
    let slowdown = on.wall_ns as f64 / off.wall_ns as f64;
    let d = &on.result.diff;

    let mut rows = vec![
        vec![
            "off".to_string(),
            format!("{rate_off:.0}"),
            "1.00x".to_string(),
            "-".to_string(),
        ],
        vec![
            "on".to_string(),
            format!("{rate_on:.0}"),
            format!("{slowdown:.2}x"),
            format!("{} steps / {} regs", d.steps_checked, d.regs_checked),
        ],
    ];
    let baseline = committed_baseline_rate();
    if let Some(b) = baseline {
        rows.push(vec![
            "committed 1-core baseline".to_string(),
            format!("{b:.0}"),
            "-".to_string(),
            "oracle off, 20k iters".to_string(),
        ]);
    }

    println!("\ndifferential-oracle overhead ({iters} iterations, 1 worker)\n");
    println!(
        "{}",
        render_table(&["Oracle", "Execs/sec", "Wall ratio", "Checked"], &rows)
    );
    assert_eq!(
        d.divergences, 0,
        "clean kernel must not diverge during the overhead run"
    );

    save_json(
        "throughput_diff.json",
        &serde_json::json!({
            "iters": iters,
            "seed": seed,
            "bugs": bugs_label(&cfg.bugs),
            "quick": quick,
            "execs_per_sec_off": rate_off,
            "execs_per_sec_on": rate_on,
            "wall_ns_off": off.wall_ns,
            "wall_ns_on": on.wall_ns,
            "slowdown": slowdown,
            "steps_checked": d.steps_checked,
            "regs_checked": d.regs_checked,
            "steps_skipped_emitted": d.steps_skipped_emitted,
            "divergences": d.divergences,
            "committed_baseline_execs_per_sec": baseline,
        }),
    );
}

/// The committed san-diff baseline's (dual-run rate, slowdown), if
/// readable.
fn committed_san_baseline() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("bench_results/throughput_san_1core.json").ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    Some((
        v.get("execs_per_sec_on")?.as_f64()?,
        v.get("slowdown")?.as_f64()?,
    ))
}

/// `--san-diff` mode: paired 1-worker runs, dual-execution oracle off
/// vs on.
fn san_overhead(iters: usize, seed: u64, quick: bool, max_regression_pct: usize) {
    let pcfg = ParallelConfig::new(1);
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, iters, seed);
    // Overhead is measured on the defect-free kernel and sanitizer:
    // injected defects would add divergence handling and triage to the
    // per-iteration cost.
    cfg.bugs = BugSet::none();
    let off = run_sharded(&cfg, &pcfg);
    cfg.san_diff = true;
    let on = run_sharded(&cfg, &pcfg);

    let rate = |wall_ns: u64| iters as f64 / (wall_ns as f64 / 1e9);
    let rate_off = rate(off.wall_ns);
    let rate_on = rate(on.wall_ns);
    let slowdown = on.wall_ns as f64 / off.wall_ns as f64;
    let san = &on.result.san;

    let mut rows = vec![
        vec![
            "off".to_string(),
            format!("{rate_off:.0}"),
            "1.00x".to_string(),
            "-".to_string(),
        ],
        vec![
            "on".to_string(),
            format!("{rate_on:.0}"),
            format!("{slowdown:.2}x"),
            format!("{} dual runs", san.runs),
        ],
    ];
    let baseline = committed_san_baseline();
    if let Some((b_rate, b_slowdown)) = baseline {
        rows.push(vec![
            "committed 1-core baseline".to_string(),
            format!("{b_rate:.0}"),
            format!("{b_slowdown:.2}x"),
            "dual runs on".to_string(),
        ]);
    }

    println!("\nsancheck dual-execution overhead ({iters} iterations, 1 worker)\n");
    println!(
        "{}",
        render_table(&["San diff", "Execs/sec", "Wall ratio", "Checked"], &rows)
    );
    assert_eq!(
        san.divergences, 0,
        "defect-free sanitizer must not diverge during the overhead run"
    );

    save_json(
        "throughput_san.json",
        &serde_json::json!({
            "iters": iters,
            "seed": seed,
            "bugs": bugs_label(&cfg.bugs),
            "quick": quick,
            "execs_per_sec_off": rate_off,
            "execs_per_sec_on": rate_on,
            "wall_ns_off": off.wall_ns,
            "wall_ns_on": on.wall_ns,
            "slowdown": slowdown,
            "dual_runs": san.runs,
            "divergences": san.divergences,
            "committed_baseline_execs_per_sec": baseline.map(|(r, _)| r),
            "committed_baseline_slowdown": baseline.map(|(_, s)| s),
        }),
    );

    // The gate compares the *overhead ratio* (dual-run wall / single-run
    // wall), not the absolute rate: the slowdown is stable across
    // iteration counts and host speeds, while execs/sec is neither.
    if max_regression_pct > 0 {
        let (_, base_slowdown) = baseline.unwrap_or_else(|| {
            eprintln!(
                "--check-regression needs a readable \
                 bench_results/throughput_san_1core.json"
            );
            std::process::exit(2);
        });
        let ratio = slowdown / base_slowdown;
        let ceiling = 1.0 + max_regression_pct as f64 / 100.0;
        assert!(
            ratio <= ceiling,
            "san-diff overhead regressed beyond {max_regression_pct}%: \
             slowdown {slowdown:.2}x vs committed {base_slowdown:.2}x \
             ({ratio:.2}x, ceiling {ceiling:.2}x)"
        );
        eprintln!(
            "regression check passed: slowdown {slowdown:.2}x vs committed \
             {base_slowdown:.2}x ({ratio:.2}x, ceiling {ceiling:.2}x)"
        );
    }
}

fn main() {
    let quick = arg_flag("--quick");
    let iters = arg_usize("--iters", if quick { 2_000 } else { 20_000 });
    let seed = arg_usize("--seed", 41) as u64;
    // `--check-regression PCT`: compare the 1-worker rate against the
    // committed 1-core baseline and fail if it dropped more than PCT
    // percent. 0 disables the check (the default).
    let max_regression_pct = arg_usize("--check-regression", 0);
    if arg_flag("--diff-oracle") {
        diff_overhead(iters, seed, quick);
        return;
    }
    if arg_flag("--san-diff") {
        san_overhead(iters, seed, quick, max_regression_pct);
        return;
    }
    let workers = arg_worker_list(if quick { &[1, 2] } else { &[1, 2, 4, 8] });

    let cfg = CampaignConfig::new(GeneratorKind::Bvf, iters, seed);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "throughput: {iters} iterations, seed {seed}, worker counts {workers:?}, \
         {cores} CPUs available"
    );

    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut base_rate = 0.0f64;
    let mut one_worker_rate = None;
    for &w in &workers {
        let pcfg = ParallelConfig::new(w);
        let a = run_sharded(&cfg, &pcfg);
        let b = run_sharded(&cfg, &pcfg);
        let sig = |o: &bvf_campaign::ParallelOutcome| {
            o.result
                .findings
                .iter()
                .map(|f| (f.iteration, f.signature.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sig(&a),
            sig(&b),
            "merged findings not reproducible at {w} workers"
        );
        assert_eq!(a.result.accepted, b.result.accepted);
        assert_eq!(a.result.coverage.len(), b.result.coverage.len());

        let secs = a.wall_ns as f64 / 1e9;
        let rate = iters as f64 / secs;
        if w == workers[0] {
            base_rate = rate;
        }
        // A row whose workers exceed the host's cores time-slices the
        // CPU: its rate measures the scheduler, not the code under
        // test, so it is tagged and never feeds the regression gate.
        let oversubscribed = w > cores;
        if w == 1 && !oversubscribed {
            one_worker_rate = Some(rate);
        }
        let speedup = rate / base_rate;
        let efficiency = speedup / (w as f64 / workers[0] as f64);
        let stolen = a.registry.counter("campaign.steal_count");
        let lease_wait_ns = a.registry.counter("campaign.lease_wait_ns");
        let backlog_mean = a
            .registry
            .histogram("campaign.exchange_backlog")
            .filter(|h| !h.is_empty())
            .map(|h| h.mean());
        eprintln!(
            "{w} workers: {rate:.0} execs/s  speedup {speedup:.2}x  efficiency {efficiency:.2}  stolen {stolen}  findings {}",
            a.result.findings.len()
        );
        rows.push(vec![
            w.to_string(),
            format!("{rate:.0}"),
            format!("{speedup:.2}x"),
            format!("{efficiency:.2}"),
            stolen.to_string(),
            format!("{:.1}ms", lease_wait_ns as f64 / 1e6),
            a.result.findings.len().to_string(),
            a.result.coverage.len().to_string(),
        ]);
        points.push(serde_json::json!({
            "workers": w,
            "wall_ns": a.wall_ns,
            "execs_per_sec": rate,
            "speedup": speedup,
            "efficiency": efficiency,
            "findings": a.result.findings.len(),
            "accepted": a.result.accepted,
            "coverage_points": a.result.coverage.len(),
            "steal_count": stolen,
            "lease_wait_ns": lease_wait_ns,
            "exchange_backlog_mean": backlog_mean,
            "reproducible": true,
            "oversubscribed": oversubscribed,
        }));
    }

    println!("\nsharded campaign throughput ({iters} iterations per point)\n");
    println!(
        "{}",
        render_table(
            &[
                "Workers",
                "Execs/sec",
                "Speedup",
                "Efficiency",
                "Stolen",
                "Lease wait",
                "Findings",
                "Coverage"
            ],
            &rows
        )
    );

    // Compare against the committed 1-core baseline when a
    // non-oversubscribed 1-worker point was measured and the baseline
    // file is readable.
    let baseline = committed_baseline_rate();
    let baseline_ratio = match (one_worker_rate, baseline) {
        (Some(rate), Some(base)) if base > 0.0 => {
            let ratio = rate / base;
            println!(
                "1-worker rate vs committed 1-core baseline: {rate:.0} / {base:.0} = {ratio:.2}x"
            );
            Some(ratio)
        }
        _ => None,
    };

    save_json(
        "throughput.json",
        &serde_json::json!({
            "iters": iters,
            "seed": seed,
            "bugs": bugs_label(&cfg.bugs),
            "available_parallelism": cores,
            // In-process benches always span one host; the field keeps
            // the header comparable with fabric-scale (multi-host)
            // measurements of the same schema.
            "hosts": 1,
            "quick": quick,
            "points": points,
            "committed_baseline_execs_per_sec": baseline,
            "baseline_ratio_1worker": baseline_ratio,
        }),
    );

    if max_regression_pct > 0 {
        let ratio = baseline_ratio.unwrap_or_else(|| {
            eprintln!(
                "--check-regression needs a non-oversubscribed 1-worker point \
                 and a readable {CAMPAIGN_BASELINE}"
            );
            std::process::exit(2);
        });
        let floor = 1.0 - max_regression_pct as f64 / 100.0;
        assert!(
            ratio >= floor,
            "throughput regressed beyond {max_regression_pct}%: \
             {ratio:.2}x of the committed baseline (floor {floor:.2}x)"
        );
        eprintln!("regression check passed: {ratio:.2}x of baseline (floor {floor:.2}x)");
    }
}
