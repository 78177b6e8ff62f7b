//! The sanitizer-defect matrix runner (`bvf sancheck --matrix`).
//!
//! `bvf-sancheck` ships one committed reproducer per seeded sanitizer
//! defect ([`bvf_sancheck::matrix_cases`]). This module replays each
//! reproducer through the dual-execution oracle twice — defect armed and
//! defect healed — and checks the *verdict flip*: the divergence must
//! appear exactly in the arm the case declares
//! ([`MatrixCase::divergence_with_defect`]) and carry the expected
//! [`SanDivergenceKind`]. A defect whose flip is absent has **escaped**
//! the oracle; CI pins that none ever does.
//!
//! The flip direction is what makes false-negative defects observable:
//! a defect that silently *skips* a check produces no divergence on a
//! clean program, so its reproducer plants a verifier-admitted bad
//! access — the correct sanitizer traps it (divergence with the defect
//! healed), the defective one lets both runs agree (no divergence with
//! it armed).

use bvf_isa::Program;
use bvf_kernel_sim::{KernelReport, SanDefect, SanDefectSet, SanDivergenceKind};
use bvf_sancheck::{matrix_cases, MatrixCase};
use bvf_verifier::KernelVersion;

use crate::baseline::GeneratorKind;
use crate::fuzz::CampaignConfig;
use crate::scenario::{run, Scenario, ScenarioOutcome, Trigger};

/// The outcome of one matrix case.
#[derive(Debug, Clone)]
pub struct MatrixCaseResult {
    /// The seeded sanitizer defect under test.
    pub defect: SanDefect,
    /// Whether the reproducer's dual run diverged with the defect armed.
    pub diverged_armed: bool,
    /// Whether it diverged with the defect healed.
    pub diverged_healed: bool,
    /// The expected flip direction (from the committed case).
    pub expect_armed: bool,
    /// The divergence kind observed in the diverging arm, if any.
    pub kind: Option<SanDivergenceKind>,
    /// The kind the committed case expects there.
    pub expect_kind: SanDivergenceKind,
}

impl MatrixCaseResult {
    /// Whether the oracle caught this defect: the verdict flipped, in
    /// the committed direction, with the committed divergence kind.
    pub fn caught(&self) -> bool {
        self.diverged_armed != self.diverged_healed
            && self.diverged_armed == self.expect_armed
            && self.kind == Some(self.expect_kind)
    }
}

/// The full matrix outcome, in [`SanDefect::ALL`] order.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// Per-case results.
    pub results: Vec<MatrixCaseResult>,
}

impl MatrixOutcome {
    /// Defects the oracle failed to catch (empty on a healthy oracle).
    pub fn escaped(&self) -> Vec<SanDefect> {
        self.results
            .iter()
            .filter(|r| !r.caught())
            .map(|r| r.defect)
            .collect()
    }

    /// `matrix_hits` section for [`bvf_telemetry::SancheckStats`]: one
    /// hit per caught defect class.
    pub fn hits(&self) -> std::collections::BTreeMap<String, u64> {
        self.results
            .iter()
            .filter(|r| r.caught())
            .map(|r| (r.defect.name().to_string(), 1))
            .collect()
    }
}

/// The replayable scenario of one matrix case.
pub fn case_scenario(case: &MatrixCase) -> Scenario {
    Scenario {
        prog: Program::from_insns(case.insns.clone()),
        prog_type: case.prog_type,
        offloaded: false,
        trigger: Trigger::TestRun,
        map_seed: case.map_seed.clone(),
    }
}

fn divergence_kind(outcome: &ScenarioOutcome) -> Option<SanDivergenceKind> {
    outcome.reports.iter().find_map(|r| match r {
        KernelReport::SanitizerDivergence { kind, .. } => Some(*kind),
        _ => None,
    })
}

/// The dual-run configuration a matrix case replays under: the case's
/// kernel bugs, `version`, and `defects` in both runs' kernels.
fn case_config(case: &MatrixCase, version: KernelVersion, defects: SanDefectSet) -> CampaignConfig {
    CampaignConfig {
        bugs: case.bugs.clone(),
        version,
        san_diff: true,
        san_defects: defects,
        ..CampaignConfig::new(GeneratorKind::Bvf, 0, 0)
    }
}

/// Runs one matrix case: dual execution with the defect armed, then
/// healed, and the verdict-flip check between them.
pub fn run_matrix_case(case: &MatrixCase, version: KernelVersion) -> MatrixCaseResult {
    let scenario = case_scenario(case);
    let armed = run(
        &scenario,
        &case_config(case, version, SanDefectSet::only(case.defect)),
        None,
    );
    let healed = run(
        &scenario,
        &case_config(case, version, SanDefectSet::none()),
        None,
    );
    let kind_armed = divergence_kind(&armed);
    let kind_healed = divergence_kind(&healed);
    MatrixCaseResult {
        defect: case.defect,
        diverged_armed: kind_armed.is_some(),
        diverged_healed: kind_healed.is_some(),
        expect_armed: case.divergence_with_defect,
        kind: if case.divergence_with_defect {
            kind_armed
        } else {
            kind_healed
        },
        expect_kind: case.expect_kind,
    }
}

/// Runs the whole committed matrix.
pub fn run_matrix(version: KernelVersion) -> MatrixOutcome {
    MatrixOutcome {
        results: matrix_cases()
            .iter()
            .map(|c| run_matrix_case(c, version))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar of the whole subsystem: every seeded sanitizer
    /// defect class is caught by its committed reproducer, 8/8.
    #[test]
    fn matrix_catches_every_defect_class() {
        let out = run_matrix(KernelVersion::BpfNext);
        assert_eq!(out.results.len(), SanDefect::ALL.len());
        for r in &out.results {
            assert!(
                r.caught(),
                "defect {} escaped: armed={} healed={} expect_armed={} kind={:?} expect={:?}",
                r.defect.name(),
                r.diverged_armed,
                r.diverged_healed,
                r.expect_armed,
                r.kind,
                r.expect_kind,
            );
        }
        assert!(out.escaped().is_empty());
        assert_eq!(out.hits().len(), SanDefect::ALL.len());
    }

    /// Matrix reproducers are honest dual-run programs: with no defect
    /// armed, the false-positive cases must run clean — divergences they
    /// show under the defect come from the defect, not the program.
    #[test]
    fn false_positive_cases_are_clean_when_healed() {
        for case in matrix_cases() {
            if !case.divergence_with_defect {
                continue;
            }
            let out = run(
                &case_scenario(&case),
                &case_config(&case, KernelVersion::BpfNext, SanDefectSet::none()),
                None,
            );
            assert!(
                out.accepted(),
                "{} reproducer must load",
                case.defect.name()
            );
            assert_eq!(
                divergence_kind(&out),
                None,
                "{} reproducer diverges without its defect",
                case.defect.name()
            );
        }
    }
}
