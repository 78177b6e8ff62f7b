//! The per-layer time ledgers of traced calls.
//!
//! [`Ledger`] splits the wall time of single-worker calls the benchmark
//! drives itself (`drive`). The call is cut by its spans (lease, step,
//! publish, the rest of the worker loop, merge, and idle time before
//! the first lease and after the last publish), and each step is cut by
//! its own trace events:
//! - `gen`: step start to the `gen` event;
//! - the scenario run: `gen` to `verify`, of which the event's
//!   `total_ns` is the verifier and the rest is load, execution and the
//!   oracles' extra runs;
//! - the oracle: `verify` to step end, of which the `finding` event's
//!   `triage_ns` is triage and the rest is judging and bookkeeping.
//!
//! The trace lumps load, execution, the diff check, the sanitizer dual
//! run, the loop's coverage feedback and the `verify` event's
//! serialization together; those are estimated from the replay pass
//! (its mean time per program, or per accepted program, times the
//! call's count). The second load of the sanitizer dual run verifies
//! the same program again, and its verifier time (which the program
//! does not report) is as heavy-tailed as the first; a sample of fresh
//! programs would miss the few that hit the complexity limit, so that
//! part of `sancheck.s` is charged from the campaign's own verifier
//! time: in full for programs that hit the limit, scaled by the
//! replay's second-to-first ratio for the rest.
//!
//! `ledger.coverage` is the sum of every layer over the wall time: it is
//! near 1 only if the estimates account for the lumped time and no span
//! is missing.
//!
//! [`Pass`] splits multi-worker calls of the program's own scheduler,
//! `run_sharded`, in worker-seconds (`workers * wall`), from what its
//! `ParallelOutcome` reports: step time from the worker-tagged trace,
//! lease wait from the `campaign.lease_wait_ns` counter, and idle and
//! merge time from the per-worker wall times.

use std::collections::BTreeMap;

use bvf::fuzz::CampaignConfig;
use bvf_campaign::ParallelOutcome;
use bvf_telemetry::{GenSource, Registry, TraceEvent};
use serde::Deserialize;

use crate::drive::{Kind, TracedCall};
use crate::replay::Replay;

/// What the trace says about one iteration.
#[derive(Debug, Default, Clone)]
struct Iter {
    gen_t: Option<u64>,
    verify_t: Option<u64>,
    verifier_ns: u64,
    limit: bool,
    mutant: bool,
    triage_ns: u64,
}

/// Layer totals summed over traced calls, in nanoseconds unless named
/// otherwise.
#[derive(Debug, Default)]
pub struct Ledger {
    pub calls: u64,
    pub iterations: u64,
    pub accepted: u64,
    pub mutants: u64,
    pub traced_wall_ns: u64,
    /// Wall time of the calls each traced call is compared with.
    pub reference_wall_ns: u64,
    pub gen: u64,
    pub verifier: u64,
    pub judge: u64,
    pub triage: u64,
    pub step: u64,
    pub lease: u64,
    pub publish: u64,
    pub worker_loop: u64,
    pub merge: u64,
    pub idle: u64,
    pub limit_n: u64,
    pub limit: u64,
    /// Per-program verifier time, every traced program.
    pub verdicts: Vec<u64>,
    /// Steps whose trace events were missing.
    pub unmatched: u64,
    pub registry: Registry,
}

impl Ledger {
    /// Folds one traced call, and the wall time of the call it is
    /// compared with.
    pub fn add(&mut self, call: &TracedCall, reference_wall_ns: u64) {
        let iters = parse_iters(&call.trace);
        self.calls += 1;
        self.iterations += call.result.iterations as u64;
        self.accepted += call.result.accepted as u64;
        self.traced_wall_ns += call.wall_ns;
        self.reference_wall_ns += reference_wall_ns;
        self.merge += call.merge_ns;
        self.registry.merge(&call.registry);

        let (mut inner, mut worker_span) = (0u64, 0u64);
        for s in &call.spans {
            match s.kind {
                Kind::Worker => worker_span = s.ns(),
                Kind::Lease => self.lease += s.ns(),
                Kind::Publish => self.publish += s.ns(),
                Kind::Step => {
                    self.step += s.ns();
                    self.split_step(s.start, s.end, iters.get(&s.id));
                }
            }
            if s.kind != Kind::Worker {
                inner += s.ns();
            }
        }
        self.worker_loop += worker_span.saturating_sub(inner);
        // Whatever of the call the worker span and the merge do not
        // cover is idle: set-up before the first lease, and closing the
        // trace after the last publish.
        self.idle += call
            .wall_ns
            .saturating_sub(call.merge_ns)
            .saturating_sub(worker_span);
        for it in iters.values() {
            self.verdicts.push(it.verifier_ns);
            self.mutants += it.mutant as u64;
            if it.limit {
                self.limit_n += 1;
                self.limit += it.verifier_ns;
            }
        }
    }

    fn split_step(&mut self, start: u64, end: u64, it: Option<&Iter>) {
        let Some((it, g, v)) = it.and_then(|it| Some((it, it.gen_t?, it.verify_t?))) else {
            self.unmatched += 1;
            return;
        };
        let (g, v) = (g.clamp(start, end), v.clamp(start, end));
        self.gen += g - start;
        // The rest of the scenario run is estimated from the replay.
        self.verifier += it.verifier_ns.min(v.saturating_sub(g));
        let post = end - v.max(g);
        let triage = it.triage_ns.min(post);
        self.triage += triage;
        self.judge += post - triage;
    }

    /// Every layer's seconds per call, with the replay's estimates of
    /// the lumped layers, keyed by metric name.
    pub fn layers(&self, rp: &Replay, san_diff: bool) -> BTreeMap<&'static str, f64> {
        let per_prog = |ns: u64| ns as f64 / rp.programs.max(1) as f64;
        let per_acc = |ns: u64| ns as f64 / rp.accepted.max(1) as f64;
        let it = self.iterations as f64;
        let acc = self.accepted as f64;
        let est = [
            ("load.s", per_prog(rp.load_ns) * it),
            ("exec.s", per_acc(rp.exec_ns) * acc),
            ("diff.s", per_acc(rp.diff_ns) * acc),
            (
                "sancheck.s",
                per_prog(rp.sancheck_ns - rp.sancheck_verifier_ns) * it
                    + if san_diff {
                        self.second_verification(rp)
                    } else {
                        0.0
                    },
            ),
            ("fuzz.feedback_s", per_prog(rp.feedback_ns) * it),
            ("trace.emit_s", per_prog(rp.trace_ns) * it),
        ];
        let calls = self.calls.max(1) as f64;
        let s = |ns: f64| ns / 1e9 / calls;
        let mut m: BTreeMap<&'static str, f64> = est.iter().map(|&(k, v)| (k, s(v))).collect();
        m.insert("gen.s", s(self.gen as f64));
        m.insert("verifier.s", s(self.verifier as f64));
        m.insert("oracle.judge_s", s(self.judge as f64));
        m.insert("oracle.triage_s", s(self.triage as f64));
        m.insert("campaign.lease_wait_s", s(self.lease as f64));
        m.insert("campaign.merge_s", s(self.merge as f64));
        let campaign_self = self.lease + self.publish + self.worker_loop + self.merge + self.idle;
        m.insert("campaign.self_s", s(campaign_self as f64));
        m
    }

    /// Nanoseconds of the sanitizer dual run's second verification,
    /// which the program does not report: a program the first load
    /// stopped at the complexity limit stops there again, at the same
    /// cost; any other costs what the replay measured for such programs,
    /// relative to the first load.
    fn second_verification(&self, rp: &Replay) -> f64 {
        let ratio = if rp.below_limit_verifier_ns == 0 {
            1.0
        } else {
            rp.below_limit_sancheck_verifier_ns as f64 / rp.below_limit_verifier_ns as f64
        };
        let limit = self.limit.min(self.verifier);
        limit as f64 + (self.verifier - limit) as f64 * ratio
    }

    /// Share of the wall time the layers account for.
    pub fn coverage(&self, layers: &BTreeMap<&'static str, f64>) -> f64 {
        let parts = [
            "gen.s",
            "verifier.s",
            "load.s",
            "exec.s",
            "diff.s",
            "sancheck.s",
            "fuzz.feedback_s",
            "trace.emit_s",
            "oracle.judge_s",
            "oracle.triage_s",
            "campaign.self_s",
        ];
        if self.traced_wall_ns == 0 {
            return 0.0;
        }
        let sum: f64 = parts.iter().map(|p| layers[p]).sum();
        sum / (self.traced_wall_ns as f64 / 1e9 / self.calls as f64)
    }
}

/// Scheduler totals of `run_sharded` calls, in worker-nanoseconds.
#[derive(Debug, Default)]
pub struct Pass {
    pub calls: u64,
    /// `workers * wall`, summed.
    pub lane_ns: u64,
    pub wall_ns: u64,
    /// Wall time of the calls each pass call is compared with.
    pub reference_wall_ns: u64,
    /// Inside `CampaignWorker::step`, from the trace: each step runs
    /// from its `gen` event to the next `gen` event of the same batch;
    /// a batch's last step ends at its last event. The first program
    /// of each batch is generated before its `gen` event and so falls
    /// outside; the check on the pass's coverage bounds what is lost.
    pub step_ns: u64,
    /// Waits for consumed exchange generations
    /// (`campaign.lease_wait_ns`).
    pub lease_wait_ns: u64,
    /// Outside every worker's lifetime, on every lane: starting and
    /// joining the threads, `merge_batches`, the registry merge and the
    /// trace interleave.
    pub merge_ns: u64,
    /// A worker's lane after it ended and before the last one did.
    pub idle_ns: u64,
    /// Iterations of the merged results, and those the trace shows a
    /// `gen` event for; they must agree.
    pub iterations: u64,
    pub traced_iterations: u64,
}

impl Pass {
    /// Folds one `run_sharded` call made with its trace on.
    pub fn add(&mut self, cfg: &CampaignConfig, out: &ParallelOutcome, reference_wall_ns: u64) {
        let lanes = out.workers.len() as u64;
        let last = out.workers.iter().map(|w| w.wall_ns).max().unwrap_or(0);
        let tail = out.wall_ns.saturating_sub(last);
        self.calls += 1;
        self.lane_ns += lanes * out.wall_ns;
        self.wall_ns += out.wall_ns;
        self.reference_wall_ns += reference_wall_ns;
        self.lease_wait_ns += out.registry.counter("campaign.lease_wait_ns");
        self.merge_ns += lanes * tail;
        self.idle_ns += out.workers.iter().map(|w| last - w.wall_ns).sum::<u64>();
        self.iterations += out.result.iterations as u64;

        // Per worker: (iteration, gen time, time of its last event).
        let mut steps: BTreeMap<u64, BTreeMap<usize, (Option<u64>, u64)>> = BTreeMap::new();
        let trace = out.trace.as_deref().unwrap_or_default();
        for line in String::from_utf8_lossy(trace).lines() {
            let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else {
                continue;
            };
            let (Some(worker), Some(iter), Some(t)) =
                (v["worker"].as_u64(), v["iter"].as_u64(), v["t_ns"].as_u64())
            else {
                continue;
            };
            let e = steps
                .entry(worker)
                .or_default()
                .entry(iter as usize)
                .or_default();
            if v["ev"].as_str() == Some("gen") {
                e.0 = Some(t);
            }
            e.1 = e.1.max(t);
        }
        let batch_len = cfg.batch_len.max(1);
        for iters in steps.values() {
            let mut run: Vec<(usize, u64, u64)> = iters
                .iter()
                .filter_map(|(&i, &(g, last))| g.map(|g| (i, g, last)))
                .collect();
            run.sort_by_key(|&(_, g, _)| g);
            self.traced_iterations += run.len() as u64;
            for (k, &(i, g, last)) in run.iter().enumerate() {
                let end = match run.get(k + 1) {
                    Some(&(j, next, _)) if j / batch_len == i / batch_len => next,
                    _ => last,
                };
                self.step_ns += end.saturating_sub(g);
            }
        }
    }

    /// Worker-nanoseconds outside `CampaignWorker::step`.
    pub fn self_ns(&self) -> u64 {
        self.lane_ns.saturating_sub(self.step_ns)
    }

    /// Share of the worker-seconds that steps, lease waits, idle lanes
    /// and the merge account for; the rest (leasing, publishing, the
    /// worker loop, thread start) is unmeasured, so this is near 1 only
    /// if it is small.
    pub fn coverage(&self) -> f64 {
        let parts = self.step_ns + self.lease_wait_ns + self.merge_ns + self.idle_ns;
        if self.lane_ns == 0 {
            return 0.0;
        }
        parts as f64 / self.lane_ns as f64
    }
}

/// Per-iteration records from one worker's JSONL trace.
fn parse_iters(trace: &[u8]) -> BTreeMap<usize, Iter> {
    let mut iters: BTreeMap<usize, Iter> = BTreeMap::new();
    for line in String::from_utf8_lossy(trace).lines() {
        let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else {
            continue;
        };
        let t = v.get("t_ns").and_then(|t| t.as_u64()).unwrap_or(0);
        match TraceEvent::from_value(&v) {
            Ok(TraceEvent::Gen { iter, source, .. }) => {
                let it = iters.entry(iter).or_default();
                it.gen_t = Some(t);
                it.mutant = source == GenSource::Mutation;
            }
            Ok(TraceEvent::Verify {
                iter,
                reason,
                total_ns,
                ..
            }) => {
                let it = iters.entry(iter).or_default();
                it.verify_t = Some(t);
                it.verifier_ns = total_ns;
                it.limit = reason.as_deref() == Some("complexity_limit");
            }
            Ok(TraceEvent::Finding {
                iter, triage_ns, ..
            }) => iters.entry(iter).or_default().triage_ns += triage_ns,
            _ => {}
        }
    }
    iters
}

/// The `q`-quantile of `v` (sorted in place), nearest rank.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
