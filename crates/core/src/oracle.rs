//! The test oracle: indicator classification and differential triage.
//!
//! Section 3 of the paper: a correctness bug in the verifier eventually
//! appears as one of two abnormal behaviors in a *verified* program —
//! an invalid load/store performed by the program itself (**indicator
//! #1**, captured by the sanitation), or a kernel routine driven into an
//! invalid state (**indicator #2**, captured by existing kernel
//! self-checks). Anything flagged on an accepted program is a finding.
//!
//! Beyond the paper, the `bvf-diff` differential oracle adds
//! **indicator #3** (abstract-state unsoundness): a concrete register
//! value observed at runtime escaped the abstract state the verifier
//! proved for that instruction — direct evidence of a wrong transfer
//! function, visible even when no memory is corrupted.
//!
//! Triage (paper §6.5 "Bug Triage") is automated here by differential
//! replay: re-run the finding's scenario on kernels with one injected
//! defect reverted at a time; the defects whose revert makes the finding
//! disappear are the culprits.

use serde::{Deserialize, Serialize};

use bvf_kernel_sim::{BugId, BugSet, KernelReport, ReportOrigin, SanDefect, SanDefectSet};
use bvf_verifier::KernelVersion;

use crate::baseline::GeneratorKind;
use crate::fuzz::CampaignConfig;
use crate::scenario::{run, Scenario, ScenarioOutcome};

/// The correctness-bug indicators (plus the syscall-level bucket for
/// findings like bug #8 that are not program-behavior bugs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Indicator {
    /// The verified program performed an invalid load/store (caught by
    /// `bpf_asan_*` or a hard fault in program code).
    One,
    /// A kernel routine invoked by the program misbehaved (KASAN in a
    /// helper, lockdep splat, panic, dispatcher crash, env mismatch).
    Two,
    /// Abstract-state unsoundness: a concrete register value escaped the
    /// bounds the verifier proved for it (the `bvf-diff` differential
    /// oracle's concretization-membership check). Unlike #1/#2 this
    /// fires without any memory corruption — a silently wrong bound is
    /// enough.
    Three,
    /// A syscall-processing defect surfaced outside program execution.
    Syscall,
}

/// Specificity rank used when several reports fire on one run: #1
/// (program-level memory misbehavior) is the most direct signal, then
/// #3 (direct evidence of verifier state unsoundness), then #2 (kernel
/// routine collateral), then the syscall bucket.
fn rank(i: Indicator) -> u8 {
    match i {
        Indicator::One => 3,
        Indicator::Three => 2,
        Indicator::Two => 1,
        Indicator::Syscall => 0,
    }
}

/// Classifies one kernel report into an indicator.
pub fn classify_report(report: &KernelReport) -> Indicator {
    match report {
        KernelReport::AluLimitViolation { .. } => Indicator::One,
        KernelReport::Kasan { origin, .. } | KernelReport::PageFault { origin, .. } => match origin
        {
            ReportOrigin::ProgramAccess => Indicator::One,
            ReportOrigin::KernelRoutine => Indicator::Two,
            ReportOrigin::Syscall => Indicator::Syscall,
        },
        KernelReport::Lockdep { .. }
        | KernelReport::Panic { .. }
        | KernelReport::EnvMismatch { .. } => Indicator::Two,
        KernelReport::StateDivergence { .. } => Indicator::Three,
        // A sanitized/unsanitized behavioral split is evidence the
        // instrumentation itself altered (or failed to check) a program
        // access: classify with the program-level indicator.
        KernelReport::SanitizerDivergence { .. } => Indicator::One,
        KernelReport::Warn { .. } => Indicator::Syscall,
    }
}

/// One oracle finding: a verified program misbehaved.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Finding {
    /// The replayable scenario.
    pub scenario: Scenario,
    /// The triggered indicator (strongest across reports).
    pub indicator: Indicator,
    /// The reports that fired.
    pub reports: Vec<KernelReport>,
}

/// Inspects a scenario outcome; a finding requires that the program was
/// *accepted* by the verifier (otherwise nothing was mis-verified).
pub fn judge(scenario: &Scenario, outcome: &ScenarioOutcome) -> Option<Finding> {
    if !outcome.accepted() || outcome.reports.is_empty() {
        return None;
    }
    let indicator = outcome
        .reports
        .iter()
        .map(classify_report)
        .max_by_key(|&c| rank(c));
    Some(Finding {
        scenario: scenario.clone(),
        indicator: indicator?,
        reports: outcome.reports.clone(),
    })
}

fn is_san_divergence(r: &KernelReport) -> bool {
    matches!(r, KernelReport::SanitizerDivergence { .. })
}

/// Differential triage: which of `cfg.bugs` are necessary for this
/// finding to manifest?
///
/// For each enabled defect, replay the scenario with that defect patched;
/// if the misbehavior disappears (no reports on an accepted program, or
/// the program/attach is now rejected), the defect is a culprit.
///
/// The replays run under the oracle the finding needs, derived from
/// `cfg`: a finding with a [`KernelReport::SanitizerDivergence`] only
/// exists under the dual run (with `cfg.san_defects` re-armed, without
/// the diff oracle), and what must disappear is the divergence; an
/// Indicator #3 finding only exists under the diff oracle, and what must
/// disappear is the state divergence, not any incidental report;
/// anything else replays plain.
pub fn triage(finding: &Finding, cfg: &CampaignConfig) -> Vec<BugId> {
    let san = finding.reports.iter().any(is_san_divergence);
    let diff = !san && finding.indicator == Indicator::Three;
    let mut replay = CampaignConfig {
        diff_oracle: diff,
        san_diff: san,
        san_defects: if san {
            cfg.san_defects
        } else {
            SanDefectSet::none()
        },
        ..cfg.clone()
    };
    let mut culprits = Vec::new();
    for bug in cfg.bugs.iter() {
        replay.bugs = cfg.bugs.clone();
        replay.bugs.disable(bug);
        let outcome = run(&finding.scenario, &replay, None);
        let still_finds = outcome.accepted()
            && if san {
                outcome.reports.iter().any(is_san_divergence)
            } else if diff {
                outcome
                    .reports
                    .iter()
                    .any(|r| matches!(r, KernelReport::StateDivergence { .. }))
            } else {
                !outcome.reports.is_empty()
            };
        if !still_finds {
            culprits.push(bug);
        }
    }
    culprits
}

/// Frozen-benchmark shim: [`triage`] under a configuration of `enabled`,
/// `version`, `sanitize` and `san_defects`.
pub fn triage_with_defects(
    finding: &Finding,
    enabled: &BugSet,
    version: KernelVersion,
    sanitize: bool,
    san_defects: SanDefectSet,
) -> Vec<BugId> {
    let cfg = CampaignConfig {
        bugs: enabled.clone(),
        version,
        sanitize,
        san_defects,
        ..CampaignConfig::new(GeneratorKind::Bvf, 0, 0)
    };
    triage(finding, &cfg)
}

/// Triage over the *sanitizer-defect* axis: for each of `cfg.san_defects`,
/// replay the dual-execution scenario with that defect healed; the
/// defects whose removal flips the divergence verdict are the ones the
/// finding depends on. This is the sancheck analogue of kernel-bug
/// triage — it answers "which seeded sanitizer bug did this reproducer
/// actually catch?". The replays run on `cfg.bugs` under the dual run
/// without the diff oracle, whatever `cfg` arms.
pub fn triage_san_defects(finding: &Finding, cfg: &CampaignConfig) -> Vec<SanDefect> {
    let mut replay = CampaignConfig {
        diff_oracle: false,
        san_diff: true,
        ..cfg.clone()
    };
    let diverged = |replay: &CampaignConfig| {
        run(&finding.scenario, replay, None)
            .reports
            .iter()
            .any(is_san_divergence)
    };
    let baseline = diverged(&replay);
    let mut culprits = Vec::new();
    for defect in cfg.san_defects.iter() {
        replay.san_defects = cfg.san_defects;
        replay.san_defects.disable(defect);
        if diverged(&replay) != baseline {
            culprits.push(defect);
        }
    }
    culprits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_scenario;
    use bvf_isa::{asm, AluOp, JmpOp, Program, Reg, Size};
    use bvf_kernel_sim::btf::ids as btf_ids;
    use bvf_kernel_sim::helpers::proto::ids as helper;
    use bvf_kernel_sim::progtype::ProgType;
    use bvf_kernel_sim::KasanKind;

    #[test]
    fn classification_table() {
        let ind1 = KernelReport::Kasan {
            kind: KasanKind::NullDeref,
            addr: 0,
            size: 8,
            is_write: false,
            origin: ReportOrigin::ProgramAccess,
        };
        assert_eq!(classify_report(&ind1), Indicator::One);
        let ind2 = KernelReport::Panic { reason: "x".into() };
        assert_eq!(classify_report(&ind2), Indicator::Two);
        let sys = KernelReport::Warn { reason: "x".into() };
        assert_eq!(classify_report(&sys), Indicator::Syscall);
        assert_eq!(
            classify_report(&KernelReport::AluLimitViolation {
                pc: 0,
                offset: 1,
                limit: 0
            }),
            Indicator::One
        );
    }

    fn bug1_scenario() -> Scenario {
        let mut insns = Vec::new();
        insns.extend(asm::ld_btf_id(Reg::R6, btf_ids::DEBUG_OBJ));
        insns.extend(asm::ld_map_fd(Reg::R1, 0));
        insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
        insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
        insns.push(asm::st_mem(Size::W, Reg::R2, 0, 99));
        insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
        insns.push(asm::jmp_reg(JmpOp::Jne, Reg::R0, Reg::R6, 1));
        insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 0));
        insns.push(asm::mov64_imm(Reg::R0, 0));
        insns.push(asm::exit());
        Scenario::test_run(Program::from_insns(insns), ProgType::Kprobe)
    }

    #[test]
    fn judge_and_triage_bug1() {
        let bugs = BugSet::all();
        let s = bug1_scenario();
        let out = run_scenario(&s, &bugs, KernelVersion::BpfNext, true);
        let finding = judge(&s, &out).expect("bug1 program must be flagged");
        assert_eq!(finding.indicator, Indicator::One);
        let culprits = triage(&finding, &CampaignConfig::new(GeneratorKind::Bvf, 0, 0));
        assert_eq!(culprits, vec![BugId::NullnessPropagation]);
    }

    #[test]
    fn judge_ignores_rejected_programs() {
        let s = bug1_scenario();
        let out = run_scenario(&s, &BugSet::none(), KernelVersion::BpfNext, true);
        assert!(!out.accepted());
        assert!(judge(&s, &out).is_none());
    }

    #[test]
    fn clean_program_yields_no_finding() {
        let s = Scenario::test_run(
            Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0), asm::exit()]),
            ProgType::SocketFilter,
        );
        let out = run_scenario(&s, &BugSet::all(), KernelVersion::BpfNext, true);
        assert!(out.accepted());
        assert!(judge(&s, &out).is_none());
    }
}
