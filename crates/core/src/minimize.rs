//! Finding minimization (`bvf minimize`): delta-debugs a finding's
//! program down to the instructions its dedup signature depends on.
//!
//! The reduction never changes the program's slot count — removing
//! slots would shift every jump offset and turn the minimization into a
//! different-program search. Instead, instructions are *neutralized*:
//! each decodable unit (one slot, or two for `ld_imm64`) is replaced by
//! that many `ja +0` no-ops, which alter no register, touch no memory,
//! and keep all control-flow offsets valid. [`bvf_diff::ddmin`] then
//! finds a minimal set of units that must stay original for the replay
//! to reproduce the exact [`report_signature`] the campaign
//! deduplicated the finding under.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use bvf_isa::{asm, Program};
use bvf_kernel_sim::{BugSet, SanDefectSet};
use bvf_verifier::KernelVersion;

use crate::fuzz::report_signature;
use crate::oracle::judge;
use crate::scenario::{run_scenario, run_scenario_diff, run_scenario_san_diff, Scenario};

/// What one minimization run produced.
#[derive(Debug)]
pub struct MinimizeOutcome {
    /// The minimized scenario: the original with every non-essential
    /// instruction unit neutralized to `ja +0`.
    pub scenario: Scenario,
    /// The preserved dedup signature (identical for the original and
    /// the minimized scenario under the same replay configuration).
    pub signature: String,
    /// Decodable instruction units in the original program.
    pub units_total: usize,
    /// Units the minimized program keeps in original form.
    pub units_kept: usize,
    /// Scenario replays performed (signature-cache misses plus the
    /// initial full-scenario replay).
    pub replays: usize,
    /// Candidate evaluations answered from the signature cache without
    /// a replay.
    pub cache_hits: usize,
    /// Candidate evaluations that had to replay the scenario.
    pub cache_misses: usize,
}

/// Hash of a program's instruction stream — the signature-cache key.
/// Two candidates that neutralize different unit sets but produce the
/// same instruction bytes replay identically, so one replay serves both.
fn prog_hash(prog: &Program) -> u64 {
    // FNV-1a over the five fields of every slot.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for insn in prog.insns() {
        eat(u64::from(insn.code));
        eat(u64::from(insn.dst));
        eat(u64::from(insn.src));
        eat(insn.off as u16 as u64);
        eat(insn.imm as u32 as u64);
    }
    h
}

/// Decodable instruction units of `prog` as `(start_slot, slot_count)`
/// pairs (`ld_imm64` occupies two slots, everything else one).
fn units(prog: &Program) -> Vec<(usize, usize)> {
    let insns = prog.insns();
    let mut out = Vec::new();
    let mut pc = 0usize;
    while pc < insns.len() {
        let width = if insns[pc].is_ld_imm64() && pc + 1 < insns.len() {
            2
        } else {
            1
        };
        out.push((pc, width));
        pc += width;
    }
    out
}

/// The scenario with every unit *not* in `keep` replaced by `ja +0`
/// no-ops, slot for slot.
fn neutralized(base: &Scenario, keep: &[(usize, usize)]) -> Scenario {
    let kept: HashSet<usize> = keep.iter().map(|&(start, _)| start).collect();
    let mut s = base.clone();
    for (start, width) in units(&base.prog) {
        if kept.contains(&start) {
            continue;
        }
        for slot in start..start + width {
            s.prog.insns_mut()[slot] = asm::ja(0);
        }
    }
    s
}

/// Minimizes a finding's scenario while preserving its dedup signature.
///
/// The scenario is replayed under exactly the given configuration
/// (`diff_oracle` must match how the finding was produced — an
/// Indicator #3 finding only reproduces with the differential oracle
/// armed). Fails if the scenario produces no finding at all under this
/// configuration.
pub fn minimize_finding(
    scenario: &Scenario,
    bugs: &BugSet,
    version: KernelVersion,
    sanitize: bool,
    diff_oracle: bool,
) -> Result<MinimizeOutcome, String> {
    minimize_finding_jobs(scenario, bugs, version, sanitize, diff_oracle, 1)
}

/// Like [`minimize_finding`], with candidate replays spread across
/// `jobs` worker threads and memoized in a program-hash → signature
/// cache.
///
/// The reduction result is identical at every job count: each ddmin
/// round's candidates are tried in the same order and the **first**
/// passing one is chosen, so parallel evaluation only changes how many
/// replays run concurrently, never which reduction step is taken.
/// `jobs == 1` evaluates lazily (stopping at the first success) exactly
/// like the classic serial loop.
pub fn minimize_finding_jobs(
    scenario: &Scenario,
    bugs: &BugSet,
    version: KernelVersion,
    sanitize: bool,
    diff_oracle: bool,
    jobs: usize,
) -> Result<MinimizeOutcome, String> {
    let signature_of = |s: &Scenario| -> Option<String> {
        let out = if diff_oracle {
            run_scenario_diff(s, bugs, version, sanitize)
        } else {
            run_scenario(s, bugs, version, sanitize)
        };
        judge(s, &out).map(|f| report_signature(f.indicator, &f.reports))
    };
    minimize_with(scenario, jobs, &signature_of)
}

/// [`minimize_finding_jobs`] for findings produced by the `bvf-sancheck`
/// dual-execution oracle (`bvf minimize --san-diff`): every candidate is
/// replayed sanitized *and* unsanitized via [`run_scenario_san_diff`],
/// so `sandiv:*` signature components are reproducible and the reduction
/// keeps exactly the instructions the divergence depends on.
pub fn minimize_finding_san(
    scenario: &Scenario,
    bugs: &BugSet,
    version: KernelVersion,
    defects: SanDefectSet,
    jobs: usize,
) -> Result<MinimizeOutcome, String> {
    let signature_of = |s: &Scenario| -> Option<String> {
        let out = run_scenario_san_diff(s, bugs, version, defects);
        judge(s, &out).map(|f| report_signature(f.indicator, &f.reports))
    };
    minimize_with(scenario, jobs, &signature_of)
}

/// The shared ddmin harness: neutralize-and-replay under the given
/// signature function until a minimal kept-unit set reproduces the
/// original signature.
fn minimize_with(
    scenario: &Scenario,
    jobs: usize,
    signature_of: &(dyn Fn(&Scenario) -> Option<String> + Sync),
) -> Result<MinimizeOutcome, String> {
    let jobs = jobs.max(1);
    let Some(target) = signature_of(scenario) else {
        return Err(
            "scenario produces no finding under this configuration (check --bugs, \
             --version, --no-sanitize, --diff-oracle, and --san-diff match the \
             original campaign)"
                .to_string(),
        );
    };

    // prog-hash → signature memo: ddmin re-derives overlapping
    // complements when the granularity changes, and identical
    // instruction streams replay identically.
    let cache: Mutex<HashMap<u64, Option<String>>> = Mutex::new(HashMap::new());
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(0);

    let check = |keep: &[(usize, usize)]| -> bool {
        let candidate = neutralized(scenario, keep);
        let key = prog_hash(&candidate.prog);
        if let Some(sig) = cache.lock().expect("cache lock").get(&key) {
            hits.fetch_add(1, Ordering::Relaxed);
            return sig.as_deref() == Some(target.as_str());
        }
        let sig = signature_of(&candidate);
        misses.fetch_add(1, Ordering::Relaxed);
        let ok = sig.as_deref() == Some(target.as_str());
        cache.lock().expect("cache lock").insert(key, sig);
        ok
    };

    let all = units(&scenario.prog);
    let kept = bvf_diff::ddmin_batched(&all, |candidates| {
        if jobs == 1 || candidates.len() <= 1 {
            // Lazy serial evaluation: stop at the first success. The
            // chooser takes the first true, so the unevaluated tail
            // (left false) is never consulted.
            let mut verdicts = vec![false; candidates.len()];
            for (i, keep) in candidates.iter().enumerate() {
                if check(keep) {
                    verdicts[i] = true;
                    break;
                }
            }
            verdicts
        } else {
            // Batch the whole round across the worker threads.
            let verdicts: Vec<AtomicBool> =
                candidates.iter().map(|_| AtomicBool::new(false)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..jobs.min(candidates.len()) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= candidates.len() {
                            break;
                        }
                        verdicts[i].store(check(&candidates[i]), Ordering::Relaxed);
                    });
                }
            });
            verdicts.into_iter().map(|b| b.into_inner()).collect()
        }
    });
    let minimized = neutralized(scenario, &kept);

    let cache_hits = hits.load(Ordering::Relaxed);
    let cache_misses = misses.load(Ordering::Relaxed);
    Ok(MinimizeOutcome {
        scenario: minimized,
        signature: target,
        units_total: all.len(),
        units_kept: kept.len(),
        replays: 1 + cache_misses,
        cache_hits,
        cache_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_isa::{AluOp, JmpOp, Reg, Size};
    use bvf_kernel_sim::btf::ids as btf_ids;
    use bvf_kernel_sim::helpers::proto::ids as helper;
    use bvf_kernel_sim::progtype::ProgType;

    /// The bug #1 reproducer with junk instructions interleaved; the
    /// minimizer must strip the junk and keep the signature.
    #[test]
    fn minimize_strips_junk_and_preserves_signature() {
        let mut insns = Vec::new();
        insns.push(asm::mov64_imm(Reg::R7, 41)); // junk
        insns.extend(asm::ld_btf_id(Reg::R6, btf_ids::DEBUG_OBJ));
        insns.extend(asm::ld_map_fd(Reg::R1, 0));
        insns.push(asm::mov64_imm(Reg::R8, 7)); // junk
        insns.push(asm::mov64_reg(Reg::R2, Reg::R10));
        insns.push(asm::alu64_imm(AluOp::Add, Reg::R2, -8));
        insns.push(asm::st_mem(Size::W, Reg::R2, 0, 99));
        insns.push(asm::call_helper(helper::MAP_LOOKUP_ELEM as i32));
        insns.push(asm::alu64_imm(AluOp::Add, Reg::R7, 1)); // junk
        insns.push(asm::jmp_reg(JmpOp::Jne, Reg::R0, Reg::R6, 1));
        insns.push(asm::ldx_mem(Size::Dw, Reg::R3, Reg::R0, 0));
        insns.push(asm::mov64_imm(Reg::R0, 0));
        insns.push(asm::exit());
        let scenario = Scenario::test_run(Program::from_insns(insns), ProgType::Kprobe);
        let bugs = BugSet::all();

        let out = minimize_finding(&scenario, &bugs, KernelVersion::BpfNext, true, false)
            .expect("bug1 scenario must minimize");
        assert!(
            out.units_kept < out.units_total,
            "nothing was removed ({}/{} kept)",
            out.units_kept,
            out.units_total
        );
        // Slot count is preserved (units are neutralized, not removed).
        assert_eq!(out.scenario.prog.insn_count(), scenario.prog.insn_count());
        // The junk instructions are gone from the kept set.
        let min_insns = out.scenario.prog.insns();
        let ja = asm::ja(0);
        assert_eq!(min_insns[0], ja, "leading junk mov must be neutralized");

        // Replaying the minimized scenario reproduces the signature.
        let replay = run_scenario(&out.scenario, &bugs, KernelVersion::BpfNext, true);
        let f = judge(&out.scenario, &replay).expect("minimized finding must reproduce");
        assert_eq!(report_signature(f.indicator, &f.reports), out.signature);
    }

    /// Round-trip on the committed Indicator #3 fixture: the parallel,
    /// cache-backed path must reproduce the serial result exactly, and
    /// the memo cache must actually absorb repeated candidates.
    #[test]
    fn parallel_jobs_and_cache_reproduce_serial_result() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/indicator3_or_bounds.json"
        );
        let data = std::fs::read(path).expect("committed fixture readable");
        let scenario: Scenario = serde_json::from_slice(&data).expect("fixture parses");
        let bugs = BugSet::all();

        let serial = minimize_finding_jobs(&scenario, &bugs, KernelVersion::BpfNext, true, true, 1)
            .expect("fixture must minimize serially");
        let parallel =
            minimize_finding_jobs(&scenario, &bugs, KernelVersion::BpfNext, true, true, 4)
                .expect("fixture must minimize in parallel");

        assert_eq!(serial.signature, parallel.signature);
        assert_eq!(serial.units_kept, parallel.units_kept);
        assert_eq!(
            serial.scenario.prog.insns(),
            parallel.scenario.prog.insns(),
            "job count changed the reduction"
        );
        assert_eq!(serial.replays, serial.cache_misses + 1);
        assert!(
            parallel.cache_hits + parallel.cache_misses > 0,
            "cache never consulted"
        );

        // Replaying the minimized scenario under the same configuration
        // reproduces the signature (the property CI pins end to end).
        let replay = run_scenario_diff(&serial.scenario, &bugs, KernelVersion::BpfNext, true);
        let f = judge(&serial.scenario, &replay).expect("minimized finding reproduces");
        assert_eq!(report_signature(f.indicator, &f.reports), serial.signature);
    }

    #[test]
    fn minimize_rejects_clean_scenarios() {
        let s = Scenario::test_run(
            Program::from_insns(vec![asm::mov64_imm(Reg::R0, 0), asm::exit()]),
            ProgType::SocketFilter,
        );
        assert!(
            minimize_finding(&s, &BugSet::none(), KernelVersion::BpfNext, true, false).is_err()
        );
    }
}
