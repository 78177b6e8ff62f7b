//! Output checks. Every check made adds one to `attempted`; every one
//! that fails adds one to `failed` and keeps a note for stderr. A
//! finding recognised as the known defect (see `known.rs`) passes its
//! check and is reported on stderr on every run.

use std::collections::BTreeMap;

use bvf::fuzz::{CampaignConfig, CampaignResult};
use bvf_kernel_sim::BugId;
use bvf_verifier::Coverage;

use crate::known;
use crate::workload::{target_defects, Workload};

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Findings recognised as the known defect.
    pub known: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Checks one finished campaign of workload `w`: the rejection
    /// taxonomy sums to the rejected count, and on a workload without
    /// injected defects nothing but the known defect was found and every
    /// armed oracle ran without a divergence other than that defect's.
    pub fn campaign(&mut self, w: Workload, cfg: &CampaignConfig, r: &CampaignResult) {
        let rejected = r.iterations - r.accepted;
        let reasons: usize = r.reject_reasons.values().sum();
        self.check(reasons == rejected, || {
            format!(
                "seed {}: reject_reasons sum to {reasons}, rejected {rejected}",
                cfg.seed
            )
        });
        if w.hunts_defects() {
            return;
        }
        let mut known_san_abort = false;
        for f in &r.findings {
            match known::classify(cfg, f) {
                Ok(what) => {
                    known_san_abort |= f.signature.contains("sandiv:san-abort");
                    self.check(true, String::new);
                    self.known.push(format!("seed {}: {what}", cfg.seed));
                }
                Err(why) => self.check(false, || {
                    format!(
                        "seed {}: finding {} at iteration {} on a defect-free kernel ({why})",
                        cfg.seed, f.signature, f.iteration
                    )
                }),
            }
        }
        if cfg.diff_oracle {
            self.check(r.diff.steps_checked > 0 && r.diff.divergences == 0, || {
                format!(
                    "seed {}: diff oracle checked {} steps, {} divergences",
                    cfg.seed, r.diff.steps_checked, r.diff.divergences
                )
            });
        }
        if cfg.san_diff {
            // The known defect's divergences are all `san-abort`, and
            // dedup keeps one finding per signature, so any divergence
            // must be a `san-abort` and a recognised finding must carry one.
            let known_only = r.san.divergences == r.san.san_abort && known_san_abort;
            self.check(
                r.san.runs > 0 && (r.san.divergences == 0 || known_only),
                || {
                    format!(
                        "seed {}: sancheck compared {} runs, {} divergences ({} san-abort)",
                        cfg.seed, r.san.runs, r.san.divergences, r.san.san_abort
                    )
                },
            );
        }
    }

    /// Checks that two runs of one logical campaign agree.
    pub fn same_result(&mut self, what: &str, a: &CampaignResult, b: &CampaignResult) {
        self.check(Digest::of(a) == Digest::of(b), || {
            format!("{what}: campaign results differ")
        });
    }

    /// Checks that the fleet found all 12 target defects; returns the
    /// fleet's time-to-find when it did.
    pub fn fleet(&mut self, results: &[&CampaignResult]) -> Option<usize> {
        let ttf = fleet_ttf(results);
        self.check(ttf.is_ok(), || {
            let missed = ttf.as_ref().err().cloned().unwrap_or_default();
            format!(
                "fleet of {} campaigns missed {}",
                results.len(),
                missed.join(", ")
            )
        });
        ttf.ok()
    }
}

/// What two runs of the same logical campaign must agree on.
#[derive(Debug, PartialEq)]
pub struct Digest {
    findings: Vec<(String, usize, Vec<BugId>)>,
    accepted: usize,
    coverage: Coverage,
    reject_reasons: BTreeMap<String, usize>,
}

impl Digest {
    pub fn of(r: &CampaignResult) -> Digest {
        Digest {
            findings: r
                .findings
                .iter()
                .map(|f| (f.signature.clone(), f.iteration, f.culprits.clone()))
                .collect(),
            accepted: r.accepted,
            coverage: r.coverage.clone(),
            reject_reasons: r.reject_reasons.clone(),
        }
    }
}

/// First iteration at which triage named each defect in one campaign.
pub fn first_finds(r: &CampaignResult) -> BTreeMap<BugId, usize> {
    let mut first = BTreeMap::new();
    for f in &r.findings {
        for &b in &f.culprits {
            let e = first.entry(b).or_insert(f.iteration);
            *e = (*e).min(f.iteration);
        }
    }
    first
}

/// The fleet's time-to-find: the smallest `t` such that every target
/// defect was found at an iteration `<= t` by at least one campaign.
/// `Err` names the defects no campaign found.
pub fn fleet_ttf(results: &[&CampaignResult]) -> Result<usize, Vec<String>> {
    let firsts: Vec<_> = results.iter().map(|r| first_finds(r)).collect();
    let mut ttf = 0;
    let mut missed = Vec::new();
    for bug in target_defects() {
        match firsts.iter().filter_map(|f| f.get(&bug)).min() {
            Some(&t) => ttf = ttf.max(t),
            None => missed.push(bug.name().to_string()),
        }
    }
    if missed.is_empty() {
        Ok(ttf)
    } else {
        Err(missed)
    }
}
