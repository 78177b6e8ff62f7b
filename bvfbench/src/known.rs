//! The one known defect a `fresh-oracles` run can show, recognised
//! exactly so that it is reported on every run without failing it, while
//! any other finding still fails the run.
//!
//! `bvf-verifier` merges the `alu_limit` assertion of a pointer-ALU
//! instruction over the paths that reach it with a pointer destination,
//! but ignores the paths that reach the same instruction with a scalar
//! destination. The kernel marks such instructions `BPF_ALU_NON_POINTER`
//! and rejects the mix (`REASON_PATHS`); the model keeps the assertion,
//! and on the scalar path it fires on plain scalar arithmetic. BVF then
//! reports an Indicator #1 `alu_limit` violation on the defect-free
//! kernel, and with the dual run armed, a `san-abort` divergence of the
//! same run (the unsanitized run has no assertion to trip).
//!
//! A finding is this defect when it replays to the same reports, triage
//! names no injected defect, it holds at least one `alu_limit` violation,
//! every violation is at an instruction whose destination the verifier's
//! own snapshots show as a scalar on some explored path, and every other
//! report is a `san-abort` divergence.

use bvf::fuzz::{CampaignConfig, FindingRecord};
use bvf::scenario::{standard_maps, Scenario, FUZZ_POOL_SIZE};
use bvf_kernel_sim::report::SanDivergenceKind;
use bvf_kernel_sim::KernelReport;
use bvf_runtime::{Bpf, ExecScratch};
use bvf_verifier::types::RegType;
use bvf_verifier::VerifierOpts;

use crate::replay::campaign_run;

/// `Ok` with a one-line description when `f` is the known defect, `Err`
/// with the reason it is not.
pub fn classify(cfg: &CampaignConfig, f: &FindingRecord) -> Result<String, String> {
    let s = &f.finding.scenario;
    let mut scratch = ExecScratch::new();
    let replayed = campaign_run(cfg, s, &mut scratch).reports;
    if replayed != f.finding.reports {
        return Err("its replay gives other reports".into());
    }
    if !f.culprits.is_empty() {
        return Err(format!("triage names {:?}", f.culprits));
    }
    let mut pcs = Vec::new();
    for r in &f.finding.reports {
        match r {
            KernelReport::AluLimitViolation { pc, .. } => pcs.push(*pc),
            KernelReport::SanitizerDivergence {
                kind: SanDivergenceKind::SanAbort,
                ..
            } => {}
            other => return Err(format!("it reports {}", other.summary())),
        }
    }
    if pcs.is_empty() {
        return Err("it has no alu_limit violation".into());
    }
    let scalar_pcs = scalar_destinations(cfg, s, &pcs);
    if let Some(pc) = pcs.iter().find(|pc| !scalar_pcs.contains(pc)) {
        return Err(format!(
            "insn {pc} is not reached with a scalar destination"
        ));
    }
    Ok(format!(
        "{} at iteration {}: alu_limit assertion at insn {pcs:?} fired on a scalar path",
        f.signature, f.iteration
    ))
}

/// The instructions of `pcs` that the verifier reaches with a scalar
/// destination register on at least one explored path.
fn scalar_destinations(cfg: &CampaignConfig, s: &Scenario, pcs: &[usize]) -> Vec<usize> {
    let opts = VerifierOpts {
        version: cfg.version,
        snapshots: true,
        prune_index: cfg.prune_index,
        ..Default::default()
    };
    let mut kernel = ExecScratch::new().boot_kernel(cfg.bugs.clone(), FUZZ_POOL_SIZE);
    kernel.mm.san_defects = cfg.san_defects;
    let mut bpf = Bpf::with_kernel(kernel, opts, cfg.sanitize).with_backend(cfg.backend);
    for def in standard_maps() {
        bpf.map_create(def).expect("standard maps fit");
    }
    let (load, _, _) = bpf.prog_load_with_cov(&s.prog, s.prog_type);
    let Some(snaps) = bpf.take_snapshots().filter(|_| load.is_ok()) else {
        return Vec::new();
    };
    let insns = s.prog.insns();
    pcs.iter()
        .copied()
        .filter(|&pc| {
            let (Some(insn), Some(at)) = (insns.get(pc), snaps.at(pc)) else {
                return false;
            };
            at.states.iter().any(|st| {
                st.regs
                    .get(insn.dst as usize)
                    .is_some_and(|r| r.typ == RegType::Scalar)
            })
        })
        .collect()
}
