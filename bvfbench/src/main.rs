//! `bvfbench`: the BVF end-to-end benchmark.
//!
//! ```text
//! bvfbench --workload campaign|fresh-oracles --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets up, then runs a fixed number of sub-campaigns of its
//! workload (sub-campaign `k` is seeded from `N` and `k`; the count is
//! sized from `S` so that the run takes about `S` seconds), and checks
//! every result. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` each sub-campaign runs untraced and then traced, the
//! `campaign` fleet runs again on `run_sharded`'s work-stealing
//! workers, a replay pass fills in the layers the trace lumps together,
//! and it prints the per-layer metrics. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed` (the output checks)
//! and `metrics`. See README.md for what each metric means.

mod checks;
mod drive;
mod known;
mod ledger;
mod replay;
mod sys;
mod workload;

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bvf::fuzz::CampaignResult;
use bvf::scenario::Scenario;
use bvf_campaign::{run_sharded, ParallelConfig};
use bvf_isa::{asm, Program, Reg};
use bvf_kernel_sim::progtype::ProgType;
use bvf_runtime::ExecScratch;

use checks::Checks;
use ledger::{quantile, Ledger, Pass};
use workload::{Call, Workload, FLEET};

/// Timed blocks of set-ups per run; `setup_s` is the median block's
/// mean set-up time.
const SETUP_BLOCKS: usize = 51;
/// Set-ups per timed block. One set-up takes 15 to 30 µs, so a block
/// lasts several milliseconds and a scheduler tick does not decide it.
const SETUP_REPS: usize = 400;
/// Concurrent single-worker campaigns in an untraced run.
const STREAMS: usize = 2;
/// Workers of the campaign workload's work-stealing pass.
const PASS_WORKERS: usize = 2;
/// Fresh scenarios the replay pass draws.
const REPLAY_PROGRAMS: usize = 2000;
/// How far `ledger.coverage` may be from 1 before the ledger is taken
/// to miss a layer. The replay estimates the lumped layers from its own
/// sample of programs, so the sum strays from 1 a little (by under 0.01
/// in 45-second runs of either workload); the smallest layer a
/// `fresh-oracles` change would target, `load.s`, is 0.17 of the wall.
const LEDGER_TOLERANCE: f64 = 0.05;

const USAGE: &str =
    "usage: bvfbench --workload campaign|fresh-oracles --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    seconds = Some(s).filter(|s| s.is_finite() && *s >= 0.0);
                    seconds.ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = bench(&args, &mut checks);

    println!(
        "workload {}  seed {}  trace {}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  checks: {} attempted, {} failed, {} known-defect findings",
        checks.attempted,
        checks.failed,
        checks.known.len()
    );
    for note in &checks.notes {
        eprintln!("check failed: {note}");
    }
    for note in &checks.known {
        eprintln!("known defect: {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn bench(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let w = args.workload;
    let setup_s = setup(w, args.seed);

    let min_calls = if w.hunts_defects() { FLEET } else { 1 };
    let mut ledger = Ledger::default();
    let mut traced_walls = Vec::new();
    let (calls, replayer) = if args.trace {
        // Each sub-campaign runs twice, on one core.
        let n = (w.calls(args.seconds) / (2 * STREAMS)).max(min_calls);
        // The replay pass runs in chunks between the traced calls, so its
        // estimates and the calls see the host in the same state.
        let mut replayer = replay::Replayer::new(
            &w.config(args.seed, 0),
            workload::sub_seed(args.seed, usize::MAX),
        );
        let mut calls = Vec::new();
        for k in 0..n {
            let cfg = w.config(args.seed, k);
            let c = workload::call(&cfg);
            // The same sub-campaign traced on the benchmark's spans; the
            // two runs must agree.
            let traced = drive::run(&cfg);
            checks.same_result(
                &format!("sub-campaign {k}: traced vs untraced"),
                &traced.result,
                &c.result,
            );
            ledger.add(&traced, (c.wall_s * 1e9) as u64);
            traced_walls.push(traced.wall_ns);
            calls.push((k, c));
            replayer.run(REPLAY_PROGRAMS * (k + 1) / n - REPLAY_PROGRAMS * k / n);
        }
        (calls, Some(replayer))
    } else {
        let n = w.calls(args.seconds).max(min_calls);
        (streams(w, args.seed, n), None)
    };
    for (k, c) in &calls {
        checks.campaign(w, &w.config(args.seed, *k), &c.result);
    }
    let peak_rss_mb = sys::peak_rss_mb();
    // The first sub-campaigns of a defect-hunting run are its
    // time-to-find fleet.
    let fleet: Vec<&CampaignResult> = if w.hunts_defects() {
        calls[..FLEET].iter().map(|(_, c)| &c.result).collect()
    } else {
        Vec::new()
    };
    let ttf = if fleet.is_empty() {
        None
    } else {
        checks.fleet(&fleet)
    };

    if let Some(replayer) = replayer {
        // The same logical campaigns on the work-stealing scheduler:
        // results must not move, so any cost difference is the
        // scheduler's (leases, exchange waits, stealing, merge).
        let mut pass = Pass::default();
        for (k, full) in fleet.iter().enumerate() {
            let cfg = w.config(args.seed, k);
            let pcfg = ParallelConfig {
                trace: true,
                ..ParallelConfig::new(PASS_WORKERS)
            };
            let out = run_sharded(&cfg, &pcfg);
            checks.same_result(
                &format!("sub-campaign {k}: {PASS_WORKERS} workers vs 1"),
                &out.result,
                full,
            );
            pass.add(&cfg, &out, traced_walls[k]);
        }
        let unmatched = ledger.unmatched;
        checks.check(unmatched == 0, || {
            format!("{unmatched} traced steps have no gen/verify events")
        });
        checks.check(pass.traced_iterations == pass.iterations, || {
            format!(
                "the {PASS_WORKERS}-worker trace shows {} of {} iterations",
                pass.traced_iterations, pass.iterations
            )
        });
        let cfg = w.config(args.seed, 0);
        let replay = replayer.finish(checks);
        let ttf_cpu_s = ttf.map_or(0.0, |t| ttf_cpu(w, args.seed, t, &fleet, checks));
        let mut m = layer_metrics(&ledger, &replay, cfg.san_diff);
        m.extend(pass_metrics(&pass));
        let mut coverages = vec![(
            "ledger.coverage",
            ledger.coverage(&ledger.layers(&replay, cfg.san_diff)),
        )];
        if pass.calls > 0 {
            coverages.push(("campaign.2w.ledger_coverage", pass.coverage()));
            checks.check(pass.lease_wait_ns > 0, || {
                format!("the {PASS_WORKERS}-worker pass reports no lease wait")
            });
        }
        for (name, c) in coverages {
            checks.check((c - 1.0).abs() <= LEDGER_TOLERANCE, || {
                format!("{name} is {c:.4}: the ledger misses a layer")
            });
        }
        m.extend([
            metric(
                "ttf_iters",
                ttf.map_or(0, |t| FLEET * (t + 1)) as f64,
                "count",
            ),
            metric("ttf_cpu_s", ttf_cpu_s, "s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ]);
        return m;
    }

    let iterations: usize = calls.iter().map(|(_, c)| c.result.iterations).sum();
    let wall: f64 = calls.iter().map(|(_, c)| c.wall_s).sum();
    let cpu: f64 = calls.iter().map(|(_, c)| c.cpu_s).sum();
    let mut coverage: Vec<u64> = calls
        .iter()
        .map(|(_, c)| c.result.coverage.len() as u64)
        .collect();
    vec![
        metric("execs_per_s", iterations as f64 / wall, "1/s"),
        metric("cpu_s", cpu / calls.len() as f64, "s"),
        metric(
            "coverage_points",
            quantile(&mut coverage, 0.5) as f64,
            "count",
        ),
        metric("setup_s", setup_s, "s"),
    ]
}

/// Sub-campaigns `0..n`, untraced, on `STREAMS` threads: each thread
/// takes the next sub-campaign when its last one ends, so both cores
/// stay busy however unevenly the sub-campaigns' costs fall. Returned
/// in sub-campaign order.
fn streams(w: Workload, seed: u64, n: usize) -> Vec<(usize, Call)> {
    let next = AtomicUsize::new(0);
    let calls = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..STREAMS {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let c = workload::call(&w.config(seed, k));
                calls.lock().expect("call list poisoned").push((k, c));
            });
        }
    });
    let mut calls = calls.into_inner().expect("call list poisoned");
    calls.sort_by_key(|&(k, _)| k);
    calls
}

/// Time to build a sub-campaign's configuration and warm up: boot one
/// kernel with the standard maps, load and run one program. Set-ups
/// run in timed blocks; the result is the median block's mean.
fn setup(w: Workload, seed: u64) -> f64 {
    let prog = Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0), asm::exit()]);
    let mut blocks: Vec<u64> = (0..SETUP_BLOCKS)
        .map(|b| {
            let t = Instant::now();
            for k in 0..SETUP_REPS {
                let cfg = w.config(seed, b * SETUP_REPS + k);
                let scenario = Scenario::test_run(prog.clone(), ProgType::SocketFilter);
                let mut scratch = ExecScratch::new();
                let out = replay::campaign_run(&cfg, &scenario, &mut scratch);
                assert!(out.accepted(), "the set-up program must load");
            }
            t.elapsed().as_nanos() as u64
        })
        .collect();
    quantile(&mut blocks, 0.5) as f64 / SETUP_REPS as f64 / 1e9
}

/// CPU seconds the fleet spends up to its time-to-find: each fleet
/// sub-campaign runs again truncated after iteration `ttf`. A batch's
/// iterations do not depend on the budget, so the truncated run must
/// repeat every finding up to `ttf`; that is checked.
fn ttf_cpu(
    w: Workload,
    seed: u64,
    ttf: usize,
    fleet: &[&CampaignResult],
    checks: &mut Checks,
) -> f64 {
    let mut cpu = 0.0;
    for (k, full) in fleet.iter().enumerate() {
        let mut cfg = w.config(seed, k);
        cfg.iterations = ttf + 1;
        let c = workload::call(&cfg);
        cpu += c.cpu_s;
        let prefix = |r: &CampaignResult| -> Vec<(String, usize)> {
            r.findings
                .iter()
                .filter(|f| f.iteration <= ttf)
                .map(|f| (f.signature.clone(), f.iteration))
                .collect()
        };
        checks.check(prefix(&c.result) == prefix(full), || {
            format!(
                "sub-campaign {k} truncated at {} repeats other findings",
                ttf + 1
            )
        });
    }
    cpu
}

/// The per-layer metrics of a traced run, per sub-campaign.
fn layer_metrics(l: &Ledger, rp: &replay::Replay, san_diff: bool) -> Vec<Metric> {
    let calls = l.calls.max(1) as f64;
    let reg = &l.registry;
    let secs = |ns: u64| ns as f64 / 1e9 / calls;
    let hist_s = |name: &str| secs(reg.histogram(name).map_or(0, |h| h.sum));
    let per_call = |n: u64| n as f64 / calls;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut verdicts = l.verdicts.clone();
    let layers = l.layers(rp, san_diff);
    let exec_runs = reg.histogram("exec.steps").map_or(0, |h| h.count);
    let exec_steps = reg.histogram("exec.steps").map_or(0, |h| h.sum);
    let prog_len = reg.histogram("gen.prog_len").map_or(0.0, |h| h.mean());
    let mut m = vec![
        metric("verifier.limit_n", per_call(l.limit_n), "count"),
        metric("verifier.limit_s", secs(l.limit), "s"),
        metric("verifier.do_check_s", hist_s("verify.do_check_ns"), "s"),
        metric("verifier.prune_s", hist_s("verify.prune_ns"), "s"),
        metric(
            "verifier.prune_checks",
            per_call(reg.counter("prune.checks")),
            "count",
        ),
        metric(
            "verifier.prune_hit_ratio",
            ratio(reg.counter("prune.hits"), reg.counter("prune.checks")),
            "ratio",
        ),
        metric(
            "verifier.states_equal_calls",
            per_call(reg.counter("prune.states_equal_calls")),
            "count",
        ),
        metric(
            "verifier.prune_evictions",
            per_call(reg.counter("prune.evictions")),
            "count",
        ),
        metric(
            "verifier.verdict_p999_ms",
            quantile(&mut verdicts, 0.999) as f64 / 1e6,
            "ms",
        ),
        metric(
            "verifier.verdict_max_ms",
            quantile(&mut verdicts, 1.0) as f64 / 1e6,
            "ms",
        ),
        metric("verifier.structure_s", hist_s("verify.structure_ns"), "s"),
        metric("verifier.fixup_s", hist_s("verify.fixup_ns"), "s"),
        metric("verifier.sanitize_s", hist_s("verify.sanitize_ns"), "s"),
        metric(
            "verifier.accept_ratio",
            ratio(l.accepted, l.iterations),
            "ratio",
        ),
        metric(
            "verifier.verdict_p50_us",
            quantile(&mut verdicts, 0.5) as f64 / 1e3,
            "us",
        ),
        metric("gen.mutant_share", ratio(l.mutants, l.iterations), "ratio"),
        metric("gen.prog_len_mean", prog_len, "count"),
        metric("exec.runs", per_call(exec_runs), "count"),
        metric("exec.steps", per_call(exec_steps), "count"),
        metric(
            "diff.steps_checked",
            per_call(reg.counter("diff.steps_checked")),
            "count",
        ),
        metric(
            "sancheck.runs",
            per_call(reg.counter("sancheck.runs")),
            "count",
        ),
        metric(
            "oracle.flagged",
            per_call(reg.counter("oracle.flagged")),
            "count",
        ),
        metric(
            "oracle.dedup_hit_ratio",
            ratio(
                reg.counter("oracle.dedup_hits"),
                reg.counter("oracle.flagged"),
            ),
            "ratio",
        ),
        metric(
            "campaign.efficiency",
            ratio(l.step, l.traced_wall_ns),
            "ratio",
        ),
        metric("campaign.idle_s", secs(l.idle), "s"),
        metric(
            "trace.overhead_ratio",
            ratio(l.traced_wall_ns, l.reference_wall_ns),
            "ratio",
        ),
        metric("ledger.coverage", l.coverage(&layers), "ratio"),
    ];
    m.extend(
        layers
            .into_iter()
            .map(|(name, value)| metric(name, value, "s")),
    );
    m
}

/// The scheduler's share of the work-stealing pass, per sub-campaign.
fn pass_metrics(p: &Pass) -> Vec<Metric> {
    let calls = p.calls.max(1) as f64;
    let s = |ns: u64| ns as f64 / 1e9 / calls;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        metric(
            "campaign.2w.speedup",
            ratio(p.reference_wall_ns, p.wall_ns),
            "ratio",
        ),
        metric(
            "campaign.2w.efficiency",
            ratio(p.step_ns, p.lane_ns),
            "ratio",
        ),
        metric("campaign.2w.self_s", s(p.self_ns()), "s"),
        metric("campaign.2w.lease_wait_s", s(p.lease_wait_ns), "s"),
        metric("campaign.2w.idle_s", s(p.idle_ns), "s"),
        metric("campaign.2w.merge_s", s(p.merge_ns), "s"),
        metric("campaign.2w.ledger_coverage", p.coverage(), "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_kernel_sim::{BugId, BugSet};

    fn fresh_checks(bugs: BugSet) -> Checks {
        let mut cfg = Workload::FreshOracles.config(1, 0);
        cfg.iterations = 600;
        cfg.bugs = bugs;
        checks_of(cfg)
    }

    fn checks_of(cfg: bvf::fuzz::CampaignConfig) -> Checks {
        let w = Workload::FreshOracles;
        let mut checks = Checks::default();
        checks.campaign(w, &cfg, &workload::call(&cfg).result);
        checks
    }

    #[test]
    fn fresh_oracles_checks_pass_on_the_defect_free_kernel() {
        let checks = fresh_checks(BugSet::none());
        assert!(checks.attempted > 0);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
    }

    #[test]
    fn fresh_oracles_checks_fail_with_one_defect_injected() {
        let checks = fresh_checks(BugSet::with(&[BugId::DispatcherNullDeref]));
        assert!(checks.failed > 0);
    }

    /// Sub-campaign seeds whose defect-free runs show the known defect:
    /// an `alu_limit` finding alone, and one with its `san-abort`
    /// divergence.
    const KNOWN_DEFECT_SEEDS: [u64; 2] = [15174100009958349878, 6699923303584909251];

    #[test]
    fn known_defect_is_reported_without_failing_the_checks() {
        for seed in KNOWN_DEFECT_SEEDS {
            let mut cfg = Workload::FreshOracles.config(1, 0);
            cfg.seed = seed;
            let checks = checks_of(cfg);
            assert_eq!(checks.failed, 0, "seed {seed}: {:?}", checks.notes);
            assert_eq!(checks.known.len(), 1, "seed {seed}: {:?}", checks.known);
        }
    }

    #[test]
    fn fleet_check_fails_when_the_budget_is_too_small() {
        let w = Workload::Campaign;
        let results: Vec<CampaignResult> = (0..FLEET)
            .map(|k| {
                let mut cfg = w.config(1, k);
                cfg.iterations = 40;
                workload::call(&cfg).result
            })
            .collect();
        let mut checks = Checks::default();
        assert_eq!(checks.fleet(&results.iter().collect::<Vec<_>>()), None);
        assert_eq!(checks.failed, 1);
    }
}
