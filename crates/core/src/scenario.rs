//! Test scenarios: a self-contained, replayable unit of fuzzing work.
//!
//! A scenario bundles one generated program with the syscall sequence
//! around it (load, optional attach, trigger). Executing a scenario
//! always starts from a **fresh simulated kernel** with a standard
//! resource set, so outcomes are deterministic and replayable — the
//! property the oracle's differential triage relies on.

use serde::{Deserialize, Serialize};

use bvf_diff::DiffStats;
use bvf_isa::Program;
use bvf_kernel_sim::map::{MapDef, MapType};
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::tracepoint::{AttachPoint, Tracepoint};
use bvf_kernel_sim::{BugSet, KernelReport, SanDefectSet};
use bvf_runtime::{Backend, Bpf, BpfError, ExecScratch, ExecTrace, HaltReason};
use bvf_sancheck::{RunView, SanStats};
use bvf_telemetry::PhaseTimings;
use bvf_verifier::{Coverage, KernelVersion, VerifierOpts};

use crate::baseline::GeneratorKind;
use crate::fuzz::CampaignConfig;

/// Memory pool size used for fuzzing kernels (smaller than the default
/// for iteration speed; large enough for the standard resources).
pub const FUZZ_POOL_SIZE: usize = 256 << 10;

/// The standard map set every scenario kernel provides.
///
/// fd 0: array, fd 1: hash, fd 2: ringbuf, fd 3: prog array.
pub fn standard_maps() -> Vec<MapDef> {
    vec![
        MapDef {
            map_type: MapType::Array,
            key_size: 4,
            value_size: 16,
            max_entries: 4,
        },
        MapDef {
            map_type: MapType::Hash,
            key_size: 8,
            value_size: 16,
            max_entries: 8,
        },
        MapDef {
            map_type: MapType::RingBuf,
            key_size: 0,
            value_size: 0,
            max_entries: 4096,
        },
        MapDef {
            map_type: MapType::ProgArray,
            key_size: 4,
            value_size: 4,
            max_entries: 4,
        },
    ]
}

/// What the scenario does once the program is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trigger {
    /// `BPF_PROG_TEST_RUN`.
    TestRun,
    /// Attach to a tracepoint, then simulate the kernel reaching it.
    Tracepoint(Tracepoint),
    /// Attach as XDP, then simulate a packet arrival.
    XdpReceive,
    /// Retrieve the rewritten instructions (`prog_get_xlated`).
    GetXlated,
}

/// One replayable fuzzing scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The program under test.
    pub prog: Program,
    /// Its type.
    pub prog_type: ProgType,
    /// Whether to request device offload at load.
    pub offloaded: bool,
    /// How to exercise it after loading.
    pub trigger: Trigger,
    /// User-space map seeding: `(map_fd, key_le, value_le)` triples
    /// applied before the run.
    pub map_seed: Vec<(u32, Vec<u8>, Vec<u8>)>,
}

impl Scenario {
    /// A plain test-run scenario.
    pub fn test_run(prog: Program, prog_type: ProgType) -> Scenario {
        Scenario {
            prog,
            prog_type,
            offloaded: false,
            trigger: Trigger::TestRun,
            map_seed: Vec::new(),
        }
    }
}

/// Everything one scenario execution produced.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The verifier verdict (`Ok(prog_id)` or the rejection).
    pub load: Result<u32, BpfError>,
    /// Verifier coverage exercised (present for rejected programs too).
    pub cov: Coverage,
    /// Kernel reports from attach/trigger/run.
    pub reports: Vec<KernelReport>,
    /// Why execution halted (when the program ran).
    pub halt: Option<HaltReason>,
    /// Whether the attach step was refused.
    pub attach_rejected: bool,
    /// Instructions processed by the verifier.
    pub verifier_insns: usize,
    /// Wall time per verifier/rewrite phase for this load attempt.
    pub timings: PhaseTimings,
    /// Interpreter steps executed (test-run trigger only; 0 otherwise).
    pub exec_steps: u64,
    /// Helper invocations during execution (test-run trigger only).
    pub helper_calls: u64,
    /// Kfunc invocations during execution (test-run trigger only).
    pub kfunc_calls: u64,
    /// Differential-oracle counters (all zero unless the scenario ran
    /// with [`CampaignConfig::diff_oracle`]). A divergence also appears in
    /// `reports` as [`KernelReport::StateDivergence`].
    pub diff: DiffStats,
    /// FNV fold of the observable execution (test-run trigger only).
    pub exec_hash: u64,
    /// Executed instructions the sanitation rewrite emitted (test-run
    /// trigger only; always 0 on unsanitized runs).
    pub instrumented_steps: u64,
    /// Sanitizer self-validation counters (all zero unless the scenario
    /// ran with [`CampaignConfig::san_diff`]). A divergence also appears in
    /// `reports` as [`KernelReport::SanitizerDivergence`].
    pub san: SanStats,
}

impl ScenarioOutcome {
    /// Whether the program passed verification.
    pub fn accepted(&self) -> bool {
        self.load.is_ok()
    }
}

/// Executes a scenario as a campaign configured by `cfg` runs it: on a
/// fresh kernel with `cfg.bugs`, `cfg.version` and `cfg.san_defects`,
/// with the differential oracle armed by `cfg.diff_oracle` and the
/// explored-state index by `cfg.prune_index` (a pure filter: verdicts,
/// coverage and the processed instruction count are identical either
/// way). This is the one place that decides which oracles run; the
/// campaign-only fields of `cfg` (generator, budget, batching) are
/// ignored.
///
/// The differential oracle has the verifier record per-instruction
/// abstract-state snapshots and the interpreter a concrete register
/// trace (test-run trigger only); a concretization-membership violation
/// is appended to `reports` as [`KernelReport::StateDivergence`]
/// (Indicator #3).
///
/// With `cfg.san_diff` the `bvf-sancheck` dual-execution oracle runs
/// the scenario twice — sanitized (whatever `cfg.sanitize` says), then
/// unsanitized without the diff oracle — and appends any disagreement
/// beyond the documented instrumentation delta to the sanitized
/// outcome's reports as [`KernelReport::SanitizerDivergence`]. The
/// seeded sanitizer defects are kernel properties, armed in both runs;
/// campaigns arm none, since on a correct sanitizer any divergence is a
/// finding. Without `cfg.san_diff` it runs once, sanitized per
/// `cfg.sanitize`.
///
/// A `scratch` recycles the previous run's buffers (memory pool, KASAN
/// shadow, trace steps) — the campaign's per-iteration hot path.
/// Recycling is invisible: outcomes are bit-identical without one.
pub fn run(
    scenario: &Scenario,
    cfg: &CampaignConfig,
    mut scratch: Option<&mut ExecScratch>,
) -> ScenarioOutcome {
    if !cfg.san_diff {
        return run_once(scenario, cfg, cfg.sanitize, cfg.diff_oracle, scratch);
    }
    let mut primary = run_once(scenario, cfg, true, cfg.diff_oracle, scratch.as_deref_mut());
    let secondary = run_once(scenario, cfg, false, false, scratch);

    let mut san = SanStats::default();
    if primary.accepted() != secondary.accepted() {
        // Sanitation must never change the load verdict: instrumentation
        // happens after verification.
        san.runs = 1;
        let kind = bvf_kernel_sim::report::SanDivergenceKind::ExecMismatch;
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
        let divergences = bvf_sancheck::compare(
            &RunView {
                halt: primary.halt,
                exec_hash: primary.exec_hash,
                steps: primary.exec_steps,
                instrumented_steps: primary.instrumented_steps,
                helper_calls: primary.helper_calls,
                kfunc_calls: primary.kfunc_calls,
                reports: &primary.reports,
            },
            &RunView {
                halt: secondary.halt,
                exec_hash: secondary.exec_hash,
                steps: secondary.exec_steps,
                instrumented_steps: secondary.instrumented_steps,
                helper_calls: secondary.helper_calls,
                kfunc_calls: secondary.kfunc_calls,
                reports: &secondary.reports,
            },
        );
        for d in &divergences {
            if let KernelReport::SanitizerDivergence { kind, .. } = d {
                san.record(*kind);
            }
        }
        primary.reports.extend(divergences);
    }
    primary.san = san;
    primary
}

/// A plain run: the scenario on a fresh kernel with `bugs`, neither the
/// diff oracle nor the dual run armed.
pub fn run_scenario(
    scenario: &Scenario,
    bugs: &BugSet,
    version: KernelVersion,
    sanitize: bool,
) -> ScenarioOutcome {
    run(scenario, &replay_config(bugs, version, sanitize), None)
}

/// Frozen-benchmark shim: [`run`] without the dual run. The ignored
/// `_backend` argument is kept only for that API (see [`Backend`]).
#[allow(clippy::too_many_arguments)]
pub fn run_scenario_scratch(
    scenario: &Scenario,
    bugs: &BugSet,
    version: KernelVersion,
    sanitize: bool,
    diff_oracle: bool,
    prune_index: bool,
    _backend: Backend,
    scratch: &mut ExecScratch,
) -> ScenarioOutcome {
    let cfg = CampaignConfig {
        diff_oracle,
        prune_index,
        ..replay_config(bugs, version, sanitize)
    };
    run(scenario, &cfg, Some(scratch))
}

/// Frozen-benchmark shim: [`run`] with the dual run armed and `defects`
/// in both runs' kernels. The ignored `_backend` argument is kept only
/// for that API (see [`Backend`]).
#[allow(clippy::too_many_arguments)]
pub fn run_scenario_san_diff_with(
    scenario: &Scenario,
    bugs: &BugSet,
    version: KernelVersion,
    defects: SanDefectSet,
    diff_oracle: bool,
    prune_index: bool,
    _backend: Backend,
    scratch: Option<&mut ExecScratch>,
) -> ScenarioOutcome {
    let cfg = CampaignConfig {
        diff_oracle,
        prune_index,
        san_diff: true,
        san_defects: defects,
        ..replay_config(bugs, version, true)
    };
    run(scenario, &cfg, scratch)
}

/// The configuration of a standalone replay: `bugs`, `version` and
/// `sanitize`, with every oracle knob at its campaign default.
fn replay_config(bugs: &BugSet, version: KernelVersion, sanitize: bool) -> CampaignConfig {
    CampaignConfig {
        bugs: bugs.clone(),
        version,
        sanitize,
        ..CampaignConfig::new(GeneratorKind::Bvf, 0, 0)
    }
}

/// One execution: load, then trigger, on a fresh kernel.
fn run_once(
    scenario: &Scenario,
    cfg: &CampaignConfig,
    sanitize: bool,
    diff_oracle: bool,
    mut scratch: Option<&mut ExecScratch>,
) -> ScenarioOutcome {
    let opts = VerifierOpts {
        version: cfg.version,
        snapshots: diff_oracle,
        prune_index: cfg.prune_index,
        ..Default::default()
    };
    // Boot a fuzzing-sized kernel (smaller pool for iteration speed),
    // recycling the previous iteration's buffers when a scratch is given.
    let mut kernel = match scratch.as_deref_mut() {
        Some(s) => s.boot_kernel(cfg.bugs.clone(), FUZZ_POOL_SIZE),
        None => bvf_kernel_sim::Kernel::with_pool_size(cfg.bugs.clone(), FUZZ_POOL_SIZE),
    };
    kernel.mm.san_defects = cfg.san_defects;
    let mut bpf = Bpf::with_kernel(kernel, opts, sanitize);
    for def in standard_maps() {
        bpf.map_create(def).expect("standard maps fit");
    }
    for (fd, key, value) in &scenario.map_seed {
        let _ = bpf.map_update(*fd, key, value);
    }

    let (load, cov, timings) = bpf.prog_load_with_cov(&scenario.prog, scenario.prog_type);
    let load = match (load, scenario.offloaded) {
        (Ok(id), true) => {
            bpf.progs[id as usize].offloaded = true;
            Ok(id)
        }
        (r, _) => r,
    };
    // Rejected loads report the work done too (the verifier carries it
    // through the error path in the phase timings).
    let verifier_insns = timings.insns_processed as usize;

    // The per-instruction abstract states the verifier proved for this
    // program (snapshots enabled only in diff-oracle mode).
    let snapshots = if diff_oracle {
        bpf.take_snapshots()
    } else {
        None
    };

    let mut reports = Vec::new();
    let mut halt = None;
    let mut attach_rejected = false;
    let mut exec_steps = 0u64;
    let mut helper_calls = 0u64;
    let mut kfunc_calls = 0u64;
    let mut diff = DiffStats::default();
    let mut exec_hash = 0u64;
    let mut instrumented_steps = 0u64;

    if let Ok(id) = load {
        match scenario.trigger {
            Trigger::TestRun => {
                let mut local_trace = ExecTrace::default();
                let trace: &mut ExecTrace = match scratch.as_deref_mut() {
                    Some(s) if diff_oracle => s.trace_mut(),
                    _ => &mut local_trace,
                };
                let run = if diff_oracle {
                    bpf.test_run_traced(id, &mut *trace)
                } else {
                    bpf.test_run(id)
                };
                match run {
                    Ok(run) => {
                        reports.extend(run.reports);
                        halt = Some(run.exec.halt);
                        exec_steps = run.exec.steps;
                        helper_calls = run.exec.helper_calls;
                        kfunc_calls = run.exec.kfunc_calls;
                        exec_hash = run.exec.exec_hash;
                        instrumented_steps = run.exec.instrumented_steps;
                    }
                    Err(_) => {
                        reports.extend(bpf.kernel.end_execution());
                    }
                }
                // Membership check: every traced register value must lie
                // inside the abstract state the verifier proved for that
                // instruction (on at least one explored path). The trace
                // prefix stays valid whatever halted execution — each
                // step was recorded before its instruction ran.
                if let Some(snaps) = &snapshots {
                    if let Some(image) = bpf.image(id) {
                        let (stats, divergence) = bvf_diff::check(snaps, trace, image.meta());
                        diff = stats;
                        if let Some(d) = divergence {
                            reports.push(KernelReport::StateDivergence {
                                pc: d.pc,
                                reg: d.reg,
                                abstract_state: d.abstract_state,
                                concrete: d.concrete,
                            });
                        }
                    }
                }
            }
            Trigger::Tracepoint(tp) => match bpf.prog_attach(id, AttachPoint::Tracepoint(tp)) {
                Ok(()) => reports.extend(bpf.trigger_tracepoint(tp)),
                Err(_) => attach_rejected = true,
            },
            Trigger::XdpReceive => {
                match bpf.prog_attach(
                    id,
                    AttachPoint::Xdp {
                        offloaded: scenario.offloaded,
                    },
                ) {
                    Ok(()) => reports.extend(bpf.xdp_receive()),
                    Err(_) => attach_rejected = true,
                }
            }
            Trigger::GetXlated => {
                let _ = bpf.prog_get_xlated(id);
                reports.extend(bpf.kernel.end_execution());
            }
        }
    }

    // Hand the kernel's buffers back for the next iteration.
    if let Some(s) = scratch {
        s.reclaim(bpf);
    }

    ScenarioOutcome {
        load,
        cov,
        reports,
        halt,
        attach_rejected,
        verifier_insns,
        timings,
        exec_steps,
        helper_calls,
        kfunc_calls,
        diff,
        exec_hash,
        instrumented_steps,
        san: SanStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_isa::{asm, Reg};

    fn trivial() -> Scenario {
        Scenario::test_run(
            Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0), asm::exit()]),
            ProgType::SocketFilter,
        )
    }

    #[test]
    fn scenario_runs_deterministically() {
        let bugs = BugSet::none();
        let a = run_scenario(&trivial(), &bugs, KernelVersion::BpfNext, true);
        let b = run_scenario(&trivial(), &bugs, KernelVersion::BpfNext, true);
        assert!(a.accepted() && b.accepted());
        assert_eq!(a.cov, b.cov);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.halt, b.halt);
    }

    #[test]
    fn rejected_program_still_yields_coverage() {
        let s = Scenario::test_run(
            Program::from_insns(vec![asm::mov64_reg(Reg::R0, Reg::R5), asm::exit()]),
            ProgType::SocketFilter,
        );
        let out = run_scenario(&s, &BugSet::none(), KernelVersion::BpfNext, true);
        assert!(!out.accepted());
        assert!(!out.cov.is_empty());
    }

    #[test]
    fn rejected_loads_report_processed_insns() {
        let reject = |insns| {
            let s = Scenario::test_run(Program::from_insns(insns), ProgType::SocketFilter);
            let out = run_scenario(&s, &BugSet::none(), KernelVersion::BpfNext, true);
            match out.load {
                Err(BpfError::Verifier(e)) => (e.reason, out.verifier_insns),
                other => panic!("expected a verifier rejection, got {other:?}"),
            }
        };
        // Rejected in do_check at its second instruction (R5 is unset).
        let (_, processed) = reject(vec![
            asm::mov64_imm(Reg::R0, 0),
            asm::mov64_reg(Reg::R0, Reg::R5),
            asm::exit(),
        ]);
        assert!(processed > 0, "do_check rejection reported {processed}");
        // A counting loop with a distinct constant per iteration never
        // prunes, so the walk runs into the instruction budget.
        let (reason, processed) = reject(vec![
            asm::mov64_imm(Reg::R0, 0),
            asm::alu64_imm(bvf_isa::AluOp::Add, Reg::R0, 1),
            asm::jmp_imm(bvf_isa::JmpOp::Jlt, Reg::R0, 1_000_000, -2),
            asm::exit(),
        ]);
        assert_eq!(reason, bvf_verifier::RejectReason::ComplexityLimit);
        assert!(
            processed >= VerifierOpts::default().insn_limit,
            "{processed}"
        );
    }

    #[test]
    fn map_seed_applied() {
        let mut insns = vec![asm::mov64_imm(Reg::R0, 0)];
        insns.extend(asm::ld_map_fd(Reg::R1, 0));
        insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
        insns.push(asm::alu64_imm(bvf_isa::AluOp::Add, Reg::R2, -8));
        insns.push(asm::st_mem(bvf_isa::Size::W, Reg::R2, 0, 0));
        insns.push(asm::call_helper(1));
        insns.push(asm::jmp_imm(bvf_isa::JmpOp::Jeq, Reg::R0, 0, 1));
        insns.push(asm::ldx_mem(bvf_isa::Size::Dw, Reg::R0, Reg::R0, 0));
        insns.push(asm::exit());
        let mut s = Scenario::test_run(Program::from_insns(insns), ProgType::SocketFilter);
        let mut value = 0x55u64.to_le_bytes().to_vec();
        value.extend([0u8; 8]);
        s.map_seed.push((0, 0u32.to_le_bytes().to_vec(), value));
        let out = run_scenario(&s, &BugSet::none(), KernelVersion::BpfNext, true);
        assert!(out.accepted());
        assert!(out.reports.is_empty());
    }
}
