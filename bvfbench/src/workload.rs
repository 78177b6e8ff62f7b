//! The benchmark workloads and the campaign call each one times.

use std::time::Instant;

use bvf::fuzz::{run_campaign_with_telemetry, CampaignConfig, CampaignResult};
use bvf::GeneratorKind;
use bvf_kernel_sim::{BugId, BugSet};
use bvf_telemetry::Telemetry;

use crate::sys;

/// Iterations of one `campaign` sub-campaign.
pub const CAMPAIGN_BUDGET: usize = 3000;
/// Iterations of one `fresh-oracles` sub-campaign.
pub const FRESH_BUDGET: usize = 4000;
/// Sub-campaigns in the time-to-find fleet: the 12 defects must all be
/// found by one of the first `FLEET` sub-campaigns of a run.
pub const FLEET: usize = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default `bvf fuzz` campaign, all defects injected, 1 worker.
    Campaign,
    /// Fresh generations only, defect-free kernel and sanitizer, diff
    /// oracle and sanitizer dual run armed.
    FreshOracles,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Campaign, Workload::FreshOracles];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::FreshOracles => "fresh-oracles",
        }
    }

    /// Whether the workload's kernel carries injected defects the
    /// campaign must rediscover.
    pub fn hunts_defects(self) -> bool {
        self != Workload::FreshOracles
    }

    /// Sub-campaigns an untraced run of `seconds` times: about as many
    /// as two cores of the machine the benchmark was tuned on (see
    /// README.md) finish in that time. The count depends on the
    /// arguments only, so a faster program runs the same sub-campaigns
    /// in less time.
    pub fn calls(self, seconds: f64) -> usize {
        let per_second = match self {
            Workload::Campaign => 2.0,
            Workload::FreshOracles => 3.6,
        };
        (seconds * per_second).round() as usize
    }

    /// The configuration of sub-campaign `k` of a run seeded `seed`.
    pub fn config(self, seed: u64, k: usize) -> CampaignConfig {
        let s = sub_seed(seed, k);
        match self {
            Workload::Campaign => CampaignConfig::new(GeneratorKind::Bvf, CAMPAIGN_BUDGET, s),
            Workload::FreshOracles => {
                let mut cfg = CampaignConfig::new(GeneratorKind::Bvf, FRESH_BUDGET, s);
                cfg.bugs = BugSet::none();
                cfg.feedback = false;
                cfg.diff_oracle = true;
                cfg.san_diff = true;
                cfg
            }
        }
    }
}

/// The injected defects a default campaign can see: every defect except
/// bug #12, which only the diff oracle (Indicator #3) detects.
pub fn target_defects() -> Vec<BugId> {
    BugId::ALL
        .into_iter()
        .filter(|b| *b != BugId::BoundsRefinement)
        .collect()
}

/// SplitMix64 of (`seed`, `k`): the campaign seed of sub-campaign `k`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64 + 1)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One timed campaign call with tracing off; `cpu_s` is the calling
/// thread's, which is where the serial campaign runs.
pub struct Call {
    pub result: CampaignResult,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `cfg` the way `bvf fuzz` does at its default single worker.
pub fn call(cfg: &CampaignConfig) -> Call {
    let (c0, t0) = (sys::thread_cpu_s(), Instant::now());
    let result = run_campaign_with_telemetry(cfg, &mut Telemetry::null());
    Call {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: sys::thread_cpu_s() - c0,
        result,
    }
}
