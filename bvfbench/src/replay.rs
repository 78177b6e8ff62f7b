//! The replay pass: fills in the layers the campaign trace lumps into
//! one "run the scenario" interval.
//!
//! It draws a seeded sample of fresh scenarios from
//! `StructuredGen::generate` and runs each one through the same public
//! calls `bvf::scenario` makes — boot, maps, `prog_load_with_cov`, the
//! trigger, `bvf_diff::check`, the unsanitized second load and run with
//! `bvf_sancheck::compare`, then `oracle::judge` and triage — timing each
//! call in its own span. Each replayed outcome must equal the one the
//! program's own scenario runner gives for the same scenario.
//!
//! Two telemetry gaps are worked around here rather than patched:
//! - with the sanitizer dual run armed, the program drops the second
//!   load's verifier timings; the replay charges the whole second load
//!   and run to `sancheck`, so that time is not lost;
//! - rejected loads report `insns_processed: 0`, so nothing here reads
//!   instruction counts.
//!
//! The trace's scenario interval also holds the fuzz loop's own work
//! after the run (coverage feedback, verifier-phase histograms) and the
//! serialization of the `verify` event; the replay times both the same
//! way the campaign does them.

use std::collections::HashSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use bvf::fuzz::{report_signature, CampaignConfig};
use bvf::oracle::{judge, triage_with_defects};
use bvf::scenario::{
    run_scenario_san_diff_with, run_scenario_scratch, standard_maps, Scenario, ScenarioOutcome,
    Trigger, FUZZ_POOL_SIZE,
};
use bvf::{GenConfig, StructuredGen};
use bvf_diff::DiffStats;
use bvf_kernel_sim::report::SanDivergenceKind;
use bvf_kernel_sim::{AttachPoint, KernelReport};
use bvf_runtime::{Bpf, BpfError, ExecScratch, ExecTrace};
use bvf_sancheck::{RunView, SanStats};
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::{Registry, TraceEvent};
use bvf_verifier::{Coverage, RejectReason, VerifierOpts};

use crate::checks::Checks;

/// Nanoseconds the replay spent in each layer, and what it replayed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub programs: u64,
    pub accepted: u64,
    /// Kernel boot, standard maps, map seeding, image build (the load
    /// call minus its verifier phases) and buffer reclaim.
    pub load_ns: u64,
    /// Verifier phases of the primary load (`PhaseTimings::total_ns`).
    pub verifier_ns: u64,
    /// The trigger: test run, attach + fire, or xlated dump.
    pub exec_ns: u64,
    /// `bvf_diff::check`.
    pub diff_ns: u64,
    /// The unsanitized second load and run plus `bvf_sancheck::compare`.
    pub sancheck_ns: u64,
    /// The verifier phases of that second load (part of `sancheck_ns`).
    pub sancheck_verifier_ns: u64,
    /// `verifier_ns` and `sancheck_verifier_ns` of the programs whose
    /// primary load did not stop at the complexity limit: the second
    /// load skips the sanitation pass and the diff oracle's snapshot
    /// export, which only such programs reach.
    pub below_limit_verifier_ns: u64,
    pub below_limit_sancheck_verifier_ns: u64,
    pub judge_ns: u64,
    pub triage_ns: u64,
    /// Coverage feedback and phase-timing histograms after each run.
    pub feedback_ns: u64,
    /// Serializing the `verify` trace event.
    pub trace_ns: u64,
}

impl Replay {
    fn merge(&mut self, o: &Replay) {
        self.programs += o.programs;
        self.accepted += o.accepted;
        self.load_ns += o.load_ns;
        self.verifier_ns += o.verifier_ns;
        self.exec_ns += o.exec_ns;
        self.diff_ns += o.diff_ns;
        self.sancheck_ns += o.sancheck_ns;
        self.sancheck_verifier_ns += o.sancheck_verifier_ns;
        self.below_limit_verifier_ns += o.below_limit_verifier_ns;
        self.below_limit_sancheck_verifier_ns += o.below_limit_sancheck_verifier_ns;
        self.judge_ns += o.judge_ns;
        self.triage_ns += o.triage_ns;
        self.feedback_ns += o.feedback_ns;
        self.trace_ns += o.trace_ns;
    }
}

/// Replays fresh scenarios drawn with one seed on one campaign
/// configuration's kernel, in as many chunks as the caller likes: the
/// benchmark runs a chunk after each traced call, so the replay sees the
/// host as the traced calls did.
pub struct Replayer {
    cfg: CampaignConfig,
    gen: StructuredGen,
    rng: StdRng,
    scratch: ExecScratch,
    ref_scratch: ExecScratch,
    seen: HashSet<String>,
    registry: Registry,
    coverage: Coverage,
    total: Replay,
    mismatches: usize,
}

impl Replayer {
    pub fn new(cfg: &CampaignConfig, seed: u64) -> Replayer {
        Replayer {
            cfg: cfg.clone(),
            gen: StructuredGen::new(GenConfig {
                version: cfg.version,
                ..Default::default()
            }),
            rng: StdRng::seed_from_u64(seed),
            scratch: ExecScratch::new(),
            ref_scratch: ExecScratch::new(),
            seen: HashSet::new(),
            registry: Registry::new(),
            coverage: Coverage::new(),
            total: Replay::default(),
            mismatches: 0,
        }
    }

    /// Replays the next `n` scenarios.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.one();
        }
    }

    /// Checks every replayed outcome against the program's scenario
    /// runner and returns the totals.
    pub fn finish(self, checks: &mut Checks) -> Replay {
        let (mismatches, n) = (self.mismatches, self.total.programs);
        checks.check(mismatches == 0, || {
            format!(
                "replay: {mismatches} of {n} outcomes differ from the program's scenario runner"
            )
        });
        self.total
    }

    fn one(&mut self) {
        let Replayer {
            cfg,
            gen,
            rng,
            scratch,
            ref_scratch,
            seen,
            registry,
            coverage,
            total,
            mismatches,
        } = self;
        let scenario = gen.generate(rng);
        let mut r = Replay {
            programs: 1,
            ..Replay::default()
        };
        let outcome = if cfg.san_diff {
            let mut primary = load_and_run(&scenario, cfg, true, cfg.diff_oracle, scratch, &mut r);
            let t = Instant::now();
            let mut discard = Replay::default();
            let secondary = load_and_run(&scenario, cfg, false, false, scratch, &mut discard);
            sancheck(&mut primary, &secondary);
            r.sancheck_ns += elapsed_ns(t);
            r.sancheck_verifier_ns = discard.verifier_ns;
            if !hit_limit(&primary) {
                r.below_limit_verifier_ns = r.verifier_ns;
                r.below_limit_sancheck_verifier_ns = r.sancheck_verifier_ns;
            }
            primary
        } else {
            load_and_run(
                &scenario,
                cfg,
                cfg.sanitize,
                cfg.diff_oracle,
                scratch,
                &mut r,
            )
        };
        r.accepted = outcome.accepted() as u64;

        let t = Instant::now();
        let mut new_cov = 0;
        for p in outcome.cov.iter_points() {
            new_cov += coverage.insert_point(p) as usize;
        }
        outcome.timings.record_into(registry, "verify");
        r.feedback_ns = elapsed_ns(t);
        let t = Instant::now();
        let event = TraceEvent::Verify {
            iter: 0,
            accepted: outcome.accepted(),
            errno: outcome.load.as_ref().err().map(|e| e.errno_value()),
            reason: None,
            insns_processed: outcome.verifier_insns,
            new_cov,
            cov_total: coverage.len(),
            do_check_ns: outcome.timings.do_check_ns,
            total_ns: outcome.timings.total_ns(),
        };
        std::hint::black_box(serde_json::to_value(&event).ok());
        r.trace_ns = elapsed_ns(t);

        let t = Instant::now();
        let finding = judge(&scenario, &outcome);
        r.judge_ns = elapsed_ns(t);
        if let Some(f) = finding {
            // Like the campaign, triage only a signature's first sighting.
            if cfg.triage && seen.insert(report_signature(f.indicator, &f.reports)) {
                let t = Instant::now();
                triage_with_defects(&f, &cfg.bugs, cfg.version, cfg.sanitize, cfg.san_defects);
                r.triage_ns = elapsed_ns(t);
            }
        }
        total.merge(&r);

        let reference = campaign_run(cfg, &scenario, ref_scratch);
        *mismatches += !same_outcome(&outcome, &reference) as usize;
    }
}

/// The program's own scenario runner, called the way a campaign step
/// calls it for `cfg`.
pub fn campaign_run(
    cfg: &CampaignConfig,
    s: &Scenario,
    scratch: &mut ExecScratch,
) -> ScenarioOutcome {
    if cfg.san_diff {
        run_scenario_san_diff_with(
            s,
            &cfg.bugs,
            cfg.version,
            cfg.san_defects,
            cfg.diff_oracle,
            cfg.prune_index,
            cfg.backend,
            Some(scratch),
        )
    } else {
        run_scenario_scratch(
            s,
            &cfg.bugs,
            cfg.version,
            cfg.sanitize,
            cfg.diff_oracle,
            cfg.prune_index,
            cfg.backend,
            scratch,
        )
    }
}

/// One load + trigger on a fresh (recycled) kernel, as
/// `bvf::scenario` runs it, charging each call to its layer in `r`.
fn load_and_run(
    s: &Scenario,
    cfg: &CampaignConfig,
    sanitize: bool,
    diff_oracle: bool,
    scratch: &mut ExecScratch,
    r: &mut Replay,
) -> ScenarioOutcome {
    let opts = VerifierOpts {
        version: cfg.version,
        snapshots: diff_oracle,
        prune_index: cfg.prune_index,
        ..Default::default()
    };
    let t = Instant::now();
    let mut kernel = scratch.boot_kernel(cfg.bugs.clone(), FUZZ_POOL_SIZE);
    kernel.mm.san_defects = cfg.san_defects;
    let mut bpf = Bpf::with_kernel(kernel, opts, sanitize).with_backend(cfg.backend);
    for def in standard_maps() {
        bpf.map_create(def).expect("standard maps fit");
    }
    for (fd, key, value) in &s.map_seed {
        let _ = bpf.map_update(*fd, key, value);
    }
    let (load, cov, timings) = bpf.prog_load_with_cov(&s.prog, s.prog_type);
    let load = match (load, s.offloaded) {
        (Ok(id), true) => {
            bpf.progs[id as usize].offloaded = true;
            Ok(id)
        }
        (l, _) => l,
    };
    let snapshots = if diff_oracle {
        bpf.take_snapshots()
    } else {
        None
    };
    r.load_ns += elapsed_ns(t).saturating_sub(timings.total_ns());
    r.verifier_ns += timings.total_ns();

    let mut out = ScenarioOutcome {
        load,
        cov,
        reports: Vec::new(),
        halt: None,
        attach_rejected: false,
        verifier_insns: 0,
        timings,
        exec_steps: 0,
        helper_calls: 0,
        kfunc_calls: 0,
        diff: DiffStats::default(),
        exec_hash: 0,
        instrumented_steps: 0,
        san: SanStats::default(),
    };
    if let Ok(id) = out.load {
        let t = Instant::now();
        match s.trigger {
            Trigger::TestRun => {
                let mut local = ExecTrace::default();
                let trace = if diff_oracle {
                    scratch.trace_mut()
                } else {
                    &mut local
                };
                let run = if diff_oracle {
                    bpf.test_run_traced(id, &mut *trace)
                } else {
                    bpf.test_run(id)
                };
                match run {
                    Ok(run) => {
                        out.reports.extend(run.reports);
                        out.halt = Some(run.exec.halt);
                        out.exec_steps = run.exec.steps;
                        out.helper_calls = run.exec.helper_calls;
                        out.kfunc_calls = run.exec.kfunc_calls;
                        out.exec_hash = run.exec.exec_hash;
                        out.instrumented_steps = run.exec.instrumented_steps;
                    }
                    Err(_) => out.reports.extend(bpf.kernel.end_execution()),
                }
                r.exec_ns += elapsed_ns(t);
                if let (Some(snaps), Some(image)) = (&snapshots, bpf.image(id)) {
                    let t = Instant::now();
                    let (stats, divergence) = bvf_diff::check(snaps, trace, image.meta());
                    out.diff = stats;
                    if let Some(d) = divergence {
                        out.reports.push(KernelReport::StateDivergence {
                            pc: d.pc,
                            reg: d.reg,
                            abstract_state: d.abstract_state,
                            concrete: d.concrete,
                        });
                    }
                    r.diff_ns += elapsed_ns(t);
                }
            }
            Trigger::Tracepoint(tp) => {
                match bpf.prog_attach(id, AttachPoint::Tracepoint(tp)) {
                    Ok(()) => out.reports.extend(bpf.trigger_tracepoint(tp)),
                    Err(_) => out.attach_rejected = true,
                }
                r.exec_ns += elapsed_ns(t);
            }
            Trigger::XdpReceive => {
                let point = AttachPoint::Xdp {
                    offloaded: s.offloaded,
                };
                match bpf.prog_attach(id, point) {
                    Ok(()) => out.reports.extend(bpf.xdp_receive()),
                    Err(_) => out.attach_rejected = true,
                }
                r.exec_ns += elapsed_ns(t);
            }
            Trigger::GetXlated => {
                let _ = bpf.prog_get_xlated(id);
                out.reports.extend(bpf.kernel.end_execution());
                r.exec_ns += elapsed_ns(t);
            }
        }
    }
    let t = Instant::now();
    scratch.reclaim(bpf);
    r.load_ns += elapsed_ns(t);
    out
}

/// Whether the load stopped at the verifier's complexity limit.
fn hit_limit(o: &ScenarioOutcome) -> bool {
    matches!(&o.load, Err(BpfError::Verifier(e)) if e.reason == RejectReason::ComplexityLimit)
}

/// The dual-execution comparison of `bvf::scenario`'s san-diff runner.
fn sancheck(primary: &mut ScenarioOutcome, secondary: &ScenarioOutcome) {
    let mut san = SanStats::default();
    if primary.accepted() != secondary.accepted() {
        san.runs = 1;
        let kind = SanDivergenceKind::ExecMismatch;
        san.record(kind);
        primary.reports.push(KernelReport::SanitizerDivergence {
            kind,
            detail: format!(
                "load verdicts differ: sanitized accepted={} unsanitized accepted={}",
                primary.accepted(),
                secondary.accepted()
            ),
        });
    } else if primary.accepted() {
        san.runs = 1;
        let divergences = bvf_sancheck::compare(&view(primary), &view(secondary));
        for d in &divergences {
            if let KernelReport::SanitizerDivergence { kind, .. } = d {
                san.record(*kind);
            }
        }
        primary.reports.extend(divergences);
    }
    primary.san = san;
}

fn view(o: &ScenarioOutcome) -> RunView<'_> {
    RunView {
        halt: o.halt,
        exec_hash: o.exec_hash,
        steps: o.exec_steps,
        instrumented_steps: o.instrumented_steps,
        helper_calls: o.helper_calls,
        kfunc_calls: o.kfunc_calls,
        reports: &o.reports,
    }
}

/// Every outcome field a campaign decision or oracle reads (timings and
/// the instruction count are observational and left out).
fn same_outcome(a: &ScenarioOutcome, b: &ScenarioOutcome) -> bool {
    a.load == b.load
        && a.cov == b.cov
        && a.reports == b.reports
        && a.halt == b.halt
        && a.attach_rejected == b.attach_rejected
        && a.exec_steps == b.exec_steps
        && a.helper_calls == b.helper_calls
        && a.kfunc_calls == b.kfunc_calls
        && a.diff == b.diff
        && a.exec_hash == b.exec_hash
        && a.instrumented_steps == b.instrumented_steps
        && a.san == b.san
}
