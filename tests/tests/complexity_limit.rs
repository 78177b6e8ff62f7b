//! The verifier's complexity-limit tail, pinned on committed programs.
//!
//! `tests/fixtures/complexity_limit_iter*.json` are three mutants the
//! default campaign (`bvf fuzz --seed 3355367732980790906`, all defects)
//! generated at the named iterations. Each explores until the verifier
//! gives up, so its rejection point depends on every prune decision
//! before it: a change to state pruning that alters one decision moves
//! the instruction count or the verdict. They are also the inputs of
//! `prune_bench --fixture`.

use bvf::scenario::{run_scenario, Scenario};
use bvf_kernel_sim::BugSet;
use bvf_runtime::BpfError;
use bvf_verifier::{KernelVersion, RejectReason, VerifierOpts};

const FIXTURES: [&str; 3] = [
    "complexity_limit_iter323.json",
    "complexity_limit_iter1133.json",
    "complexity_limit_iter1529.json",
];

fn load(name: &str) -> Scenario {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).expect("fixture must exist");
    serde_json::from_str(&json).expect("fixture must parse")
}

#[test]
fn fixtures_reject_at_the_complexity_limit() {
    let limit = VerifierOpts::default().insn_limit;
    assert_eq!(limit, 100_000);
    for name in FIXTURES {
        let out = run_scenario(&load(name), &BugSet::all(), KernelVersion::BpfNext, true);
        match &out.load {
            Err(BpfError::Verifier(e)) => {
                assert_eq!(e.reason, RejectReason::ComplexityLimit, "{name}: {e}")
            }
            other => panic!("{name}: expected a complexity-limit rejection, got {other:?}"),
        }
        // The walk processed `limit` instructions and was stopped at the
        // next one, which the count includes.
        assert_eq!(
            out.timings.insns_processed,
            limit as u64 + 1,
            "{name}: rejected after a different amount of work"
        );
    }
}
