//! End-to-end tests of the abstract-vs-concrete differential oracle
//! (Indicator #3) and the finding minimizer.
//!
//! The injected bug #12 makes the 64-bit scalar `OR` transfer function
//! "refine" the result's `umax` to the larger operand maximum — a
//! silently wrong bound that corrupts no memory and drives no kernel
//! routine into an invalid state, so Indicators #1 and #2 never fire.
//! Only the concretization-membership check can see a concrete
//! register value escape the proved bounds.

use bvf::fuzz::{report_signature, run_campaign, CampaignConfig};
use bvf::minimize::minimize;
use bvf::oracle::{judge, triage, Indicator};
use bvf::scenario::{run, run_scenario, Scenario};
use bvf::GeneratorKind;
use bvf_isa::{asm, AluOp, JmpOp, Program, Reg, Size};
use bvf_kernel_sim::helpers::proto::ids as helper;
use bvf_kernel_sim::progtype::ProgType;
use bvf_kernel_sim::{BugId, BugSet, KernelReport};
use bvf_verifier::KernelVersion;

/// A handcrafted bug #12 reproducer: two map-value loads masked to
/// `{0,4}` and `{0,2}` are OR-ed; the buggy refinement proves
/// `umax = 4` while the seeded concrete values produce `4 | 2 = 6`.
fn or_bounds_scenario() -> Scenario {
    let mut insns = Vec::new();
    insns.extend(asm::ld_map_fd(Reg::R1, 0));
    insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
    insns.push(asm::st_mem(Size::W, Reg::R2, 0, 0));
    insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
    insns.push(asm::jmp_imm(JmpOp::Jne, Reg::R0, 0, 2));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 0));
    insns.push(asm::ldx_mem(Size::Dw, Reg::R4, Reg::R0, 8));
    insns.push(asm::alu64_imm(AluOp::And, Reg::R3, 4));
    insns.push(asm::alu64_imm(AluOp::And, Reg::R4, 2));
    insns.push(asm::alu64_reg(AluOp::Or, Reg::R3, Reg::R4));
    insns.push(asm::mov64_imm(Reg::R0, 0));
    insns.push(asm::exit());
    let mut s = Scenario::test_run(Program::from_insns(insns), ProgType::SocketFilter);
    let mut value = 4u64.to_le_bytes().to_vec();
    value.extend(2u64.to_le_bytes());
    s.map_seed.push((0, 0u32.to_le_bytes().to_vec(), value));
    s
}

/// A replay on `bugs` with the diff oracle armed.
fn diff_config(bugs: BugSet) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 0, 0);
    cfg.bugs = bugs;
    cfg.diff_oracle = true;
    cfg
}

fn load_fixture() -> Scenario {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/fixtures/indicator3_or_bounds.json"
    ))
    .expect("fixture must exist");
    serde_json::from_str(&json).expect("fixture must parse")
}

#[test]
fn bounds_refinement_defect_invisible_to_indicators_one_and_two() {
    let s = or_bounds_scenario();
    let out = run_scenario(&s, &BugSet::all(), KernelVersion::BpfNext, true);
    assert!(out.accepted(), "reproducer must verify: {:?}", out.load);
    assert!(
        judge(&s, &out).is_none(),
        "without the diff oracle the defect must be invisible, got {:?}",
        out.reports
    );
}

#[test]
fn diff_oracle_flags_bounds_refinement_as_indicator_three() {
    let s = or_bounds_scenario();
    let cfg = diff_config(BugSet::all());
    let out = run(&s, &cfg, None);
    assert!(out.accepted());
    assert!(out.diff.steps_checked > 0, "trace must have been checked");
    let f = judge(&s, &out).expect("diff oracle must flag the escape");
    assert_eq!(f.indicator, Indicator::Three);
    let div = f
        .reports
        .iter()
        .find_map(|r| match r {
            KernelReport::StateDivergence { reg, concrete, .. } => Some((*reg, *concrete)),
            _ => None,
        })
        .expect("finding must carry the divergence report");
    assert_eq!(div, (3, 6), "r3 = 4 | 2 = 6 escapes the proved umax of 4");

    // Differential triage pins the finding on bug #12 alone.
    let culprits = triage(&f, &cfg);
    assert_eq!(culprits, vec![BugId::BoundsRefinement]);
}

#[test]
fn diff_oracle_silent_on_fixed_kernel() {
    // The reproducer on a defect-free kernel: same bounds, no escape.
    let s = or_bounds_scenario();
    let out = run(&s, &diff_config(BugSet::none()), None);
    assert!(out.accepted());
    assert!(
        judge(&s, &out).is_none(),
        "fixed kernel must not diverge: {:?}",
        out.reports
    );

    // And across a whole structured campaign with the oracle armed.
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 150, 7);
    cfg.bugs = BugSet::none();
    cfg.diff_oracle = true;
    cfg.triage = false;
    let r = run_campaign(&cfg);
    assert!(
        r.diff.steps_checked > 0,
        "campaign must exercise the oracle"
    );
    assert_eq!(
        r.diff.divergences,
        0,
        "no injected defects means no divergences: {:?}",
        r.findings
            .iter()
            .map(|f| f.signature.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn minimize_preserves_indicator_three_signature() {
    // The reproducer padded with junk the minimizer must strip.
    let mut s = or_bounds_scenario();
    let exit = s.prog.insns()[s.prog.insn_count() - 1];
    let mut insns = s.prog.insns().to_vec();
    insns.pop();
    insns.push(asm::mov64_imm(Reg::R7, 13));
    insns.push(asm::alu64_imm(AluOp::Add, Reg::R7, 29));
    insns.push(exit);
    s.prog = Program::from_insns(insns);

    let cfg = diff_config(BugSet::all());
    let out = minimize(&s, &cfg, 1).expect("indicator #3 finding must minimize");
    assert!(out.units_kept < out.units_total);
    assert_eq!(out.scenario.prog.insn_count(), s.prog.insn_count());

    // Replay the minimized scenario: identical signature, still #3.
    let replay = run(&out.scenario, &cfg, None);
    let f = judge(&out.scenario, &replay).expect("minimized scenario must reproduce");
    assert_eq!(f.indicator, Indicator::Three);
    assert_eq!(report_signature(f.indicator, &f.reports), out.signature);
}

#[test]
fn committed_fixture_reproduces_and_minimizes() {
    // The CI minimize round-trip runs against this committed finding;
    // this test keeps the fixture in sync with the reproducer above.
    let s = load_fixture();
    assert_eq!(s.prog.insns(), or_bounds_scenario().prog.insns());

    let out = minimize(&s, &diff_config(BugSet::all()), 1).expect("fixture must minimize");
    assert_eq!(out.signature, "Three:statediv:r3");
}

#[test]
fn both_oracles_armed_reproduce_minimize_and_triage_the_fixture() {
    // A finding from a `fuzz --diff-oracle --san-diff` campaign must
    // replay, minimize and triage under that same configuration: the
    // dual run keeps the diff oracle armed in its sanitized run.
    let s = load_fixture();
    let mut cfg = diff_config(BugSet::all());
    cfg.san_diff = true;

    let out = run(&s, &cfg, None);
    assert!(out.diff.steps_checked > 0, "the diff oracle must run");
    assert_eq!(out.san.runs, 1, "the dual run must run");
    let f = judge(&s, &out).expect("both oracles armed must flag the escape");
    assert_eq!(
        report_signature(f.indicator, &f.reports),
        "Three:statediv:r3"
    );

    let min = minimize(&s, &cfg, 2).expect("fixture must minimize with both oracles armed");
    assert_eq!(min.signature, "Three:statediv:r3");

    assert_eq!(triage(&f, &cfg), vec![BugId::BoundsRefinement]);
}

#[test]
fn diff_campaign_with_bug12_reports_indicator_three() {
    // A structured campaign over the buggy kernel, diff oracle armed:
    // the iterations that exercise variable 64-bit ORs surface bug #12
    // as Indicator #3 findings. (The handcrafted reproducer above
    // guarantees detectability; this checks the campaign plumbing —
    // signature, dedup, triage — end to end on generated programs.
    // Seed 9 deterministically hits the pattern within 2000 iterations.)
    let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, 2000, 9);
    let mut bugs = BugSet::none();
    bugs.enable(BugId::BoundsRefinement);
    cfg.bugs = bugs;
    cfg.diff_oracle = true;
    let r = run_campaign(&cfg);
    let ind3: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.finding.indicator == Indicator::Three)
        .collect();
    assert!(
        !ind3.is_empty(),
        "2000 structured iterations must hit a variable OR ({} findings total)",
        r.findings.len()
    );
    assert!(ind3
        .iter()
        .all(|f| f.signature.starts_with("Three:statediv")));
    assert!(r.found_bugs.contains(&BugId::BoundsRefinement));
}
