//! The fuzzing campaign driver (paper Figure 3).
//!
//! Each iteration synthesizes a scenario (structured generation for BVF,
//! the baseline generators otherwise, or a mutation of a saved corpus
//! entry), runs it on a recycled kernel, feeds verifier branch coverage
//! back into the corpus, and hands accepted-but-misbehaving programs to
//! the oracle. Findings are deduplicated by report signature and triaged
//! differentially to the injected defect that causes them.
//!
//! # Lease batches
//!
//! The campaign's iteration space `[0, iterations)` is carved into
//! fixed-size *lease batches* of [`CampaignConfig::batch_len`]
//! iterations. A batch is the unit of scheduling: its RNG stream is
//! derived from its batch id alone ([`stream_seed`]), its corpus seed
//! view is a pure function of the ledger entries of *completed earlier
//! generations* ([`seed_generations`]), and it reports a self-contained
//! [`BatchOutput`] whose coverage is a *delta* against that seed view.
//! Nothing about a batch depends on which worker ran it or when, so any
//! scheduler — the serial loop here, or the work-stealing orchestrator
//! in `bvf-campaign` — produces bit-identical merged results.
//!
//! Corpus exchange is asynchronous: a batch in generation `g` consumes
//! the published entries of generations `[0, g-1)`, so generation `g`
//! is runnable while `g-1` is still in flight — no epoch barrier. The
//! serial entry points ([`run_campaign`],
//! [`run_campaign_with_telemetry`]) run batches in order against a
//! [`CorpusLedger`] and fold them with [`merge_batches`]; `--workers 1`
//! bit-identity with any parallel schedule is therefore structural, not
//! coincidental.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use bvf_kernel_sim::{BugId, BugSet, KernelReport, SanDefectSet};
use bvf_runtime::{Backend, BpfError, ExecScratch};
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::stats::STATS_SCHEMA_VERSION;
use bvf_telemetry::{CampaignStats, GenSource, Registry, Telemetry, TraceEvent};
use bvf_verifier::{Coverage, KernelVersion};

use crate::baseline::{
    alu_jmp_fraction, buzzer_alujmp_generate, buzzer_random_generate, shape_memsafe_generate,
    shape_minimal_generate, syzkaller_generate, GenShape, GeneratorKind,
};
use crate::gen::{GenConfig, StructuredGen};
use bvf_diff::DiffStats;
use bvf_sancheck::SanStats;

use crate::oracle::{judge, triage, Finding, Indicator};
use crate::scenario::{run, Scenario};

/// Global cap on feedback-corpus retention (seed view + local additions).
pub const CORPUS_CAP: usize = 4096;

/// Campaign configuration. Serializable so a remote campaign submission
/// (`bvf fuzz --remote`, the `bvf-fabric` wire protocol) ships the
/// *complete* generation-determining state: merged results are a pure
/// function of this struct, never of who executes the batches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Which generator drives the campaign.
    pub generator: GeneratorKind,
    /// Injected defects in the target kernel.
    pub bugs: BugSet,
    /// Kernel version under test.
    pub version: KernelVersion,
    /// Whether BVF's sanitation is compiled in.
    pub sanitize: bool,
    /// Number of iterations (generated programs).
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Record a coverage snapshot every N iterations.
    pub snapshot_every: usize,
    /// Whether to run differential triage on deduplicated findings.
    pub triage: bool,
    /// Whether coverage feedback (corpus retention + mutation) is
    /// enabled; disabled for the ablation study.
    pub feedback: bool,
    /// Whether the abstract-vs-concrete differential oracle (Indicator
    /// #3) is armed: verifier snapshots + interpreter traces + the
    /// concretization-membership check on every executed program.
    pub diff_oracle: bool,
    /// Whether the verifier's fingerprint-bucketed explored-state index
    /// is enabled. A pure filter — findings are identical either way —
    /// kept toggleable for `prune_bench` and the determinism tests.
    pub prune_index: bool,
    /// Iterations per lease batch (the scheduling quantum). Batch `b`
    /// owns global iterations `[b * batch_len, ...)` and the RNG stream
    /// [`stream_seed`]`(seed, b)` — a function of the batch id, never of
    /// the worker that happens to run it.
    pub batch_len: usize,
    /// Global iterations per corpus-exchange *generation*. A batch in
    /// generation `g` seeds its corpus view from the published entries
    /// of generations `[0, g-1)` (one-generation lag, so no barrier).
    /// `0` disables exchange entirely: every batch seeds from
    /// [`CampaignConfig::base`] alone. Up to
    /// `2 * exchange_every / batch_len` batches are runnable
    /// concurrently, so this also bounds useful worker counts.
    pub exchange_every: usize,
    /// Cap on corpus entries one batch publishes to the exchange ledger.
    /// Entries beyond the cap stay local mutation candidates.
    pub exchange_batch: usize,
    /// Imported base corpus: every batch's seed view starts from these
    /// entries and this coverage (`bvf fuzz --corpus-in`). Retention is
    /// measured *against* the base coverage, so the campaign reports
    /// only coverage that is new relative to the import. Empty by
    /// default.
    pub base: BatchSeed,
    /// Deterministic acceptance-rate steering (`bvf fuzz --steer`):
    /// fresh generations pick a [`GenShape`] weighted by the per-shape
    /// acceptance observed in earlier exchange generations. Weights are
    /// re-derived at lease-batch boundaries from the same ledger fold
    /// that seeds the corpus, so steered campaigns stay bit-identical
    /// at any worker count. Off by default; the unsteered path is
    /// byte-identical to a build without steering.
    pub steer: bool,
    /// Whether the sanitizer self-validation oracle (`bvf fuzz
    /// --san-diff`) is armed: every iteration runs twice on the same
    /// kernel — sanitized and unsanitized — and any disagreement beyond
    /// the documented instrumentation delta becomes a
    /// [`KernelReport::SanitizerDivergence`] finding.
    pub san_diff: bool,
    /// Seeded sanitizer defects armed in both runs' kernels (the
    /// `bvf sancheck` matrix; empty for real campaigns, where any
    /// divergence indicts the sanitizer itself).
    pub san_defects: SanDefectSet,
    /// The execution engine; the interpreter is the only one. Kept only
    /// for the frozen benchmark API (see [`Backend`]).
    pub backend: Backend,
}

impl CampaignConfig {
    /// A default configuration for the given generator and budget.
    pub fn new(generator: GeneratorKind, iterations: usize, seed: u64) -> CampaignConfig {
        CampaignConfig {
            generator,
            bugs: BugSet::all(),
            version: KernelVersion::BpfNext,
            sanitize: true,
            iterations,
            seed,
            snapshot_every: (iterations / 64).max(1),
            triage: true,
            feedback: true,
            diff_oracle: false,
            prune_index: true,
            batch_len: 64,
            exchange_every: 256,
            exchange_batch: 8,
            base: BatchSeed::default(),
            steer: false,
            san_diff: false,
            san_defects: SanDefectSet::none(),
            backend: Backend::Interp,
        }
    }
}

/// One deduplicated finding with its triage result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FindingRecord {
    /// The finding itself.
    pub finding: Finding,
    /// Injected defects necessary for it (differential triage).
    pub culprits: Vec<BugId>,
    /// Global campaign iteration at which it was first seen.
    pub iteration: usize,
    /// Ordering-stable dedup signature ([`report_signature`]).
    pub signature: String,
    /// Whether `culprits` was actually computed. `false` when triage is
    /// disabled, or when this batch lost the global claim on the
    /// signature; [`merge_batches`] re-triages surviving untriaged
    /// records so merged results never depend on claim order.
    pub triaged: bool,
}

/// Aggregated results of one campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// The driving generator.
    pub generator: GeneratorKind,
    /// Iterations executed.
    pub iterations: usize,
    /// Programs accepted by the verifier.
    pub accepted: usize,
    /// Rejection errno histogram.
    pub errno_histogram: BTreeMap<i32, usize>,
    /// Typed rejection reason → count ([`RejectReason`] snake_case
    /// names plus the `"syscall"` catch-all); sums exactly to
    /// `iterations - accepted`.
    ///
    /// [`RejectReason`]: bvf_verifier::RejectReason
    pub reject_reasons: BTreeMap<String, usize>,
    /// Final accumulated verifier coverage (new relative to
    /// [`CampaignConfig::base`], if one was imported).
    pub coverage: Coverage,
    /// Coverage growth: `(iteration, covered_points)`, recorded at
    /// batch granularity on the [`CampaignConfig::snapshot_every`]
    /// cadence.
    pub timeline: Vec<(usize, usize)>,
    /// Deduplicated findings.
    pub findings: Vec<FindingRecord>,
    /// Defects discovered (union of triaged culprits).
    pub found_bugs: BTreeSet<BugId>,
    /// Mean ALU/JMP instruction share of generated programs.
    pub alu_jmp_share: f64,
    /// Mean generated program length (slots).
    pub avg_prog_len: f64,
    /// Corpus size at the end (sum of published ledger entries).
    pub corpus_len: usize,
    /// Differential-oracle counters summed over all iterations (all
    /// zero unless [`CampaignConfig::diff_oracle`] was set).
    pub diff: DiffStats,
    /// Sanitizer self-validation counters summed over all iterations
    /// (all zero unless [`CampaignConfig::san_diff`] was set).
    pub san: SanStats,
}

impl CampaignResult {
    /// Acceptance rate in `[0, 1]`.
    pub fn acceptance_rate(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.accepted as f64 / self.iterations as f64
        }
    }

    /// The stable machine-readable summary of this campaign
    /// ([`CampaignStats`]), shared by `bvf fuzz --json-out` and the
    /// bench binaries. `metrics` is the registry the campaign's
    /// [`Telemetry`] accumulated (pass a fresh one if none was kept).
    pub fn to_stats(&self, seed: u64, metrics: Registry) -> CampaignStats {
        use bvf_kernel_sim::SanDivergenceKind as K;
        let mut kinds = BTreeMap::new();
        for (kind, count) in [
            (K::ExecMismatch, self.san.exec_mismatch),
            (K::StepMismatch, self.san.step_mismatch),
            (K::SanAbort, self.san.san_abort),
            (K::MaskedFault, self.san.masked_fault),
            (K::UncheckedAccess, self.san.unchecked_access),
            (K::FaultMetaMismatch, self.san.fault_meta_mismatch),
        ] {
            if count > 0 {
                kinds.insert(kind.name().to_string(), count);
            }
        }
        CampaignStats {
            schema: STATS_SCHEMA_VERSION,
            generator: self.generator.name().to_string(),
            seed,
            iterations: self.iterations,
            accepted: self.accepted,
            acceptance_rate: self.acceptance_rate(),
            coverage_points: self.coverage.len(),
            corpus_len: self.corpus_len,
            findings: self.findings.len(),
            found_bugs: self
                .found_bugs
                .iter()
                .map(|b| b.name().to_string())
                .collect(),
            errno_histogram: self.errno_histogram.clone(),
            reject_reasons: self.reject_reasons.clone(),
            alu_jmp_share: self.alu_jmp_share,
            avg_prog_len: self.avg_prog_len,
            timeline: self.timeline.clone(),
            sancheck: bvf_telemetry::SancheckStats {
                runs: self.san.runs,
                divergences: self.san.divergences,
                kinds,
                matrix_hits: BTreeMap::new(),
            },
            metrics,
        }
    }
}

/// The dedup signature of a finding: the indicator plus the **sorted,
/// deduplicated** components of every report that fired.
///
/// Sorting matters for the parallel orchestrator: two workers can hit
/// the same underlying defect with the kernel emitting its reports in a
/// different arrival order (e.g. a KASAN splat racing a lockdep splat),
/// and cross-worker dedup must still see one signature.
pub fn report_signature(indicator: Indicator, reports: &[KernelReport]) -> String {
    let mut parts: Vec<String> = reports
        .iter()
        .map(|r| match r {
            KernelReport::Kasan {
                kind,
                origin,
                is_write,
                ..
            } => {
                format!("kasan:{kind:?}:{origin:?}:{is_write}")
            }
            KernelReport::PageFault { origin, .. } => format!("pf:{origin:?}"),
            KernelReport::Lockdep { kind, lock, .. } => format!("lockdep:{kind:?}:{lock:?}"),
            KernelReport::Panic { .. } => "panic".to_string(),
            KernelReport::Warn { .. } => "warn".to_string(),
            KernelReport::AluLimitViolation { .. } => "alulimit".to_string(),
            KernelReport::EnvMismatch { .. } => "env".to_string(),
            // Concrete values and instruction indices vary per program;
            // the diverging register is what characterizes the defect.
            KernelReport::StateDivergence { reg, .. } => format!("statediv:r{reg}"),
            // The detail string embeds per-run values; the divergence
            // kind is the stable defect characterization.
            KernelReport::SanitizerDivergence { kind, .. } => {
                format!("sandiv:{}", kind.name())
            }
        })
        .collect();
    parts.sort();
    parts.dedup();
    let mut sig = format!("{indicator:?}");
    if !parts.is_empty() {
        sig.push(':');
        sig.push_str(&parts.join("+"));
    }
    sig
}

/// The taxonomy name and rejection depth (offending instruction index)
/// of a load error. Non-verifier errno rejections fall into the
/// `"syscall"` catch-all at depth 0, so per-reason counts always sum to
/// the campaign's rejected total.
fn reject_info(e: &BpfError) -> (&'static str, u64) {
    match e {
        BpfError::Verifier(v) => (v.reason.name(), v.insn_idx as u64),
        BpfError::Errno { .. } => ("syscall", 0),
    }
}

/// Per-shape fresh-generation counts (generated / accepted), indexed in
/// [`GenShape::ALL`] order. Rides the exchange ledger so the steering
/// weights a lease derives are a pure function of earlier generations'
/// published entries folded in batch order — never of wall-clock or of
/// which worker ran them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShapeStats {
    /// Fresh programs generated per shape.
    pub generated: [u64; GenShape::COUNT],
    /// Of those, programs the verifier accepted.
    pub accepted: [u64; GenShape::COUNT],
}

impl ShapeStats {
    /// Adds `other`'s counts (the ledger fold; commutative, but always
    /// applied in batch order).
    pub fn merge(&mut self, other: &ShapeStats) {
        for i in 0..GenShape::COUNT {
            self.generated[i] += other.generated[i];
            self.accepted[i] += other.accepted[i];
        }
    }
}

/// Laplace-smoothed integer steering weight of one shape:
/// `max(1, ⌊(accepted + 1) · 1000 / (generated + 2)⌋)`. With no
/// observations every shape gets 500 (uniform); a consistently accepted
/// shape tends to 1000, a consistently rejected one floors at 1.
/// Integer arithmetic keeps the weights platform-independent.
fn steer_weight(generated: u64, accepted: u64) -> u64 {
    ((accepted + 1).saturating_mul(1000) / (generated + 2)).max(1)
}

/// Weighted shape pick: one bounded RNG draw against the cumulative
/// weight vector. Only called on the steered path, so unsteered RNG
/// streams are untouched.
fn pick_shape(rng: &mut StdRng, weights: &[u64; GenShape::COUNT]) -> GenShape {
    let total: u64 = weights.iter().sum();
    let mut x = rng.gen_range(0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return GenShape::ALL[i];
        }
        x -= w;
    }
    GenShape::ALL[GenShape::COUNT - 1]
}

/// The SplitMix64 finalizer: a full-avalanche bijection on `u64`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the RNG stream seed for one lease batch, SplitMix-style:
/// each batch id selects an independent, well-mixed stream of the
/// campaign seed. Batch 0 receives the campaign seed itself. Because
/// the stream is keyed by the *batch*, not the worker, an iteration's
/// randomness never depends on which worker ran it or in what order
/// batches were stolen.
pub fn stream_seed(campaign_seed: u64, batch: usize) -> u64 {
    if batch == 0 {
        campaign_seed
    } else {
        splitmix64(campaign_seed ^ (batch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Number of lease batches a campaign is carved into.
pub fn batch_count(cfg: &CampaignConfig) -> usize {
    cfg.iterations.div_ceil(cfg.batch_len.max(1))
}

/// `(start, len)` of lease batch `batch` in global iterations. The last
/// batch may be short.
pub fn batch_bounds(cfg: &CampaignConfig, batch: usize) -> (usize, usize) {
    let bl = cfg.batch_len.max(1);
    let start = batch * bl;
    (start, bl.min(cfg.iterations.saturating_sub(start)))
}

/// Lease batches per corpus-exchange generation (at least 1). With
/// exchange disabled (`exchange_every == 0`) every batch falls into
/// generation 0.
pub fn generation_len(cfg: &CampaignConfig) -> usize {
    if cfg.exchange_every == 0 {
        batch_count(cfg).max(1)
    } else {
        (cfg.exchange_every / cfg.batch_len.max(1)).max(1)
    }
}

/// The corpus-exchange generation lease batch `batch` belongs to.
pub fn generation_of(cfg: &CampaignConfig, batch: usize) -> usize {
    batch / generation_len(cfg)
}

/// How many leading generations batch `batch` consumes for its corpus
/// seed view: a batch in generation `g` seeds from generations
/// `[0, g-1)`. The one-generation lag is what makes exchange
/// barrier-free — generation `g` is runnable while `g-1` is still in
/// flight, so a slow batch never stalls the frontier more than one
/// generation behind it.
pub fn seed_generations(cfg: &CampaignConfig, batch: usize) -> usize {
    generation_of(cfg, batch).saturating_sub(1)
}

/// Cross-batch finding dedup hook consulted by [`CampaignWorker::step`]
/// the moment a *locally* fresh signature appears. Every scheduler
/// keeps one claim set per campaign: the local drivers share one
/// [`SerialDedup`] between their workers, and a fabric coordinator
/// keeps one set per submitted campaign. Only the first claimant pays
/// for differential triage — [`merge_batches`] re-triages surviving
/// claim losers, so merged results are independent of claim order.
pub trait GlobalDedup: Sync {
    /// Claims `sig` globally; returns `true` iff this caller is the
    /// first in the whole campaign to claim it (and should therefore
    /// triage the finding eagerly).
    fn claim(&self, sig: &str) -> bool;
}

/// One campaign's signature claims, shared by every worker of a local
/// campaign (serial or work-stealing): a plain mutex-guarded set,
/// probing before insert so the already-present path allocates
/// nothing. A campaign makes a few claims per lease batch, so one lock
/// does not contend.
#[derive(Default)]
pub struct SerialDedup(Mutex<HashSet<String>>);

impl GlobalDedup for SerialDedup {
    fn claim(&self, sig: &str) -> bool {
        let mut set = self.0.lock().unwrap();
        if set.contains(sig) {
            false
        } else {
            set.insert(sig.to_string());
            true
        }
    }
}

/// What one lease batch publishes to the corpus-exchange ledger: the
/// corpus entries it retained and the coverage *delta* it observed
/// beyond its seed view. Deltas are disjoint-by-construction from the
/// seed, so the union of all ledger entries equals the union of all
/// observed new coverage regardless of fold order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Corpus entries retained (and published) by the batch.
    pub corpus: Vec<Arc<Scenario>>,
    /// Coverage points first observed by the batch (relative to its
    /// seed view).
    pub cov: Coverage,
    /// Per-shape generation/acceptance counts of the batch (all zero
    /// unless the campaign was steered).
    pub shapes: ShapeStats,
}

/// The corpus seed view a lease batch starts from: a pure function of
/// the ledger entries of the generations it consumes (plus the imported
/// [`CampaignConfig::base`]), folded in batch order. Cheap to clone —
/// scenarios are shared by `Arc` and the coverage set is behind one.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BatchSeed {
    /// Seed corpus entries, in ledger (batch) order, capped at
    /// [`CORPUS_CAP`].
    pub corpus: Vec<Arc<Scenario>>,
    /// Coverage already credited to earlier generations; retention in
    /// the consuming batch only triggers on points outside this set.
    pub coverage: Arc<Coverage>,
    /// Per-shape generation/acceptance counts accumulated over the
    /// consumed generations, in batch order — the sole input to the
    /// consuming batch's steering weights.
    pub shapes: ShapeStats,
}

/// Extends a seed view with the ledger entries of one more generation,
/// in batch order.
fn extend_seed<'a>(
    prev: &BatchSeed,
    entries: impl IntoIterator<Item = &'a LedgerEntry>,
) -> BatchSeed {
    let mut corpus = prev.corpus.clone();
    let mut cov = (*prev.coverage).clone();
    let mut shapes = prev.shapes;
    for e in entries {
        for s in &e.corpus {
            if corpus.len() >= CORPUS_CAP {
                break;
            }
            corpus.push(Arc::clone(s));
        }
        cov.merge(&e.cov);
        shapes.merge(&e.shapes);
    }
    BatchSeed {
        corpus,
        coverage: Arc::new(cov),
        shapes,
    }
}

/// The corpus-exchange ledger: one [`LedgerEntry`] slot per lease
/// batch, plus cached cumulative seed views per generation. The serial
/// driver owns one directly; the parallel orchestrator wraps one in a
/// mutex + condvar (`bvf-campaign`'s exchange hub). Seed views are
/// built once per generation and cloned out, so `seed_for` is cheap on
/// the hot path.
pub struct CorpusLedger {
    gen_batches: usize,
    total_batches: usize,
    entries: Vec<Option<LedgerEntry>>,
    /// Published-batch count per generation, for readiness checks.
    gen_published: Vec<usize>,
    /// `views[k]` consumes generations `[0, k)`; `views[0]` is the
    /// imported base.
    views: Vec<BatchSeed>,
}

impl CorpusLedger {
    /// An empty ledger for the campaign's batch geometry.
    pub fn new(cfg: &CampaignConfig) -> CorpusLedger {
        let total_batches = batch_count(cfg);
        let gen_batches = generation_len(cfg);
        let gen_count = total_batches.div_ceil(gen_batches);
        CorpusLedger {
            gen_batches,
            total_batches,
            entries: vec![None; total_batches],
            gen_published: vec![0; gen_count],
            views: vec![BatchSeed {
                corpus: cfg.base.corpus.clone(),
                coverage: Arc::clone(&cfg.base.coverage),
                shapes: cfg.base.shapes,
            }],
        }
    }

    /// Number of batches in generation `g`.
    fn gen_size(&self, g: usize) -> usize {
        let lo = g * self.gen_batches;
        self.gen_batches.min(self.total_batches.saturating_sub(lo))
    }

    /// Records batch `batch`'s ledger entry. Publishing twice is a
    /// scheduler bug.
    pub fn publish(&mut self, batch: usize, entry: LedgerEntry) {
        assert!(
            self.entries[batch].is_none(),
            "batch {batch} published twice"
        );
        self.entries[batch] = Some(entry);
        self.gen_published[batch / self.gen_batches] += 1;
    }

    /// Whether every generation batch `batch` seeds from has fully
    /// published (i.e. [`CorpusLedger::seed_for`] would not block a
    /// concurrent scheduler).
    pub fn ready_for(&self, cfg: &CampaignConfig, batch: usize) -> bool {
        let k = seed_generations(cfg, batch);
        (0..k).all(|g| self.gen_published[g] == self.gen_size(g))
    }

    /// The seed view for batch `batch`. All generations it consumes
    /// must have fully published (the serial in-order driver guarantees
    /// this; concurrent schedulers gate on
    /// [`CorpusLedger::ready_for`]).
    pub fn seed_for(&mut self, cfg: &CampaignConfig, batch: usize) -> BatchSeed {
        let k = seed_generations(cfg, batch);
        while self.views.len() <= k {
            let g = self.views.len() - 1;
            let lo = g * self.gen_batches;
            let hi = (lo + self.gen_batches).min(self.total_batches);
            let next = extend_seed(
                self.views.last().unwrap(),
                self.entries[lo..hi].iter().map(|e| {
                    e.as_ref()
                        .expect("seed_for called before consumed generation published")
                }),
            );
            self.views.push(next);
        }
        self.views[k].clone()
    }
}

/// Mutates a corpus program: instruction duplication (the paper's
/// loop-unrolling mutation), immediate/offset tweaks, or tail extension.
fn mutate(rng: &mut StdRng, base: &Scenario) -> Scenario {
    let mut s = base.clone();
    let insns = s.prog.insns_mut();
    if insns.is_empty() {
        return s;
    }
    match rng.gen_range(0..4) {
        0 => {
            // Duplicate an adjacent instruction (skip wide-insn halves).
            let i = rng.gen_range(0..insns.len());
            let insn = insns[i];
            if !insn.is_ld_imm64() && insn.code != 0 {
                insns.insert(i, insn);
            }
        }
        1 => {
            let i = rng.gen_range(0..insns.len());
            insns[i].imm = insns[i].imm.wrapping_add(rng.gen_range(-16..16));
        }
        2 => {
            let i = rng.gen_range(0..insns.len());
            insns[i].off = insns[i].off.wrapping_add(rng.gen_range(-8..8));
        }
        _ => {
            // Flip a register field.
            let i = rng.gen_range(0..insns.len());
            if rng.gen_bool(0.5) {
                insns[i].dst = rng.gen_range(0..11);
            } else {
                insns[i].src = rng.gen_range(0..11);
            }
        }
    }
    s
}

/// Runs one fuzzing campaign.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    run_campaign_with_telemetry(cfg, &mut Telemetry::null())
}

/// Runs one fuzzing campaign, recording metrics and trace events into
/// `tel`.
///
/// This is the reference serial schedule: lease batches executed in
/// order against one [`CorpusLedger`], one [`SerialDedup`], and one
/// reusable [`ExecScratch`], then folded by [`merge_batches`]. Any
/// other schedule of the same batches merges to a bit-identical
/// [`CampaignResult`]. The `bvf` CLI drives campaigns through the
/// work-stealing scheduler instead (at any worker count); this
/// function is the library reference the determinism tests and the
/// benchmark call.
///
/// Telemetry is strictly observational: no campaign decision (corpus
/// retention, dedup, triage) reads a timestamp or metric back, so the
/// returned [`CampaignResult`] is bit-identical whatever sink `tel`
/// carries — `campaigns_are_deterministic` asserts exactly this.
pub fn run_campaign_with_telemetry(cfg: &CampaignConfig, tel: &mut Telemetry) -> CampaignResult {
    let dedup = SerialDedup::default();
    let mut ledger = CorpusLedger::new(cfg);
    let mut scratch = ExecScratch::new();
    let batches = batch_count(cfg);
    let mut outputs = Vec::with_capacity(batches);
    for b in 0..batches {
        let seed = ledger.seed_for(cfg, b);
        let mut w = CampaignWorker::lease(cfg.clone(), b, seed);
        while w.step(tel, &dedup, &mut scratch) {}
        let out = w.into_output();
        ledger.publish(b, out.ledger_entry());
        outputs.push(out);
    }
    let (result, _) = merge_batches(cfg, outputs);
    tel.registry
        .set_gauge("corpus_len", result.corpus_len as i64);
    tel.registry
        .set_gauge("coverage_points", result.coverage.len() as i64);
    tel.finish();
    result
}

/// The self-contained result of one lease batch, handed back to the
/// scheduler for [`merge_batches`]. The floating-point and length
/// accumulators are exposed as raw *sums* (not means) so merged means
/// are computed by one final division.
///
/// Serializable losslessly: integers round-trip exactly, `Coverage`
/// serializes as sorted points, and the one float (`alu_share_sum`)
/// round-trips bit-exactly through the shortest-round-trip JSON float
/// representation — so a batch completed on a remote fabric worker
/// merges byte-identically to one run in-process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchOutput {
    /// Lease batch id (0-based).
    pub batch: usize,
    /// First global iteration of the batch.
    pub start: usize,
    /// Iterations the batch executed.
    pub iterations: usize,
    /// Programs the verifier accepted in this batch.
    pub accepted: usize,
    /// Rejection errno histogram of this batch.
    pub errno_histogram: BTreeMap<i32, usize>,
    /// Typed rejection reason → count of this batch.
    pub reject_reasons: BTreeMap<String, usize>,
    /// Per-shape generation/acceptance counts of this batch (all zero
    /// unless steered).
    pub shapes: ShapeStats,
    /// Coverage points first observed by this batch — a delta against
    /// the batch's seed view, disjoint from it by construction.
    pub cov_delta: Coverage,
    /// Locally deduplicated findings (cross-batch dedup happens at
    /// merge; records that lost the global triage claim have
    /// `triaged == false`).
    pub findings: Vec<FindingRecord>,
    /// Corpus entries retained and published by this batch (capped at
    /// [`CampaignConfig::exchange_batch`]).
    pub fresh_corpus: Vec<Arc<Scenario>>,
    /// Sum of per-program ALU/JMP instruction shares.
    pub alu_share_sum: f64,
    /// Sum of generated program lengths (slots).
    pub len_sum: usize,
    /// Differential-oracle counters this batch accumulated; all fields
    /// are additive, so the merge folds them by summation.
    pub diff: DiffStats,
    /// Sanitizer self-validation counters this batch accumulated;
    /// additive like `diff`.
    pub san: SanStats,
}

impl BatchOutput {
    /// The exchange-ledger entry this batch publishes.
    pub fn ledger_entry(&self) -> LedgerEntry {
        LedgerEntry {
            corpus: self.fresh_corpus.clone(),
            cov: self.cov_delta.clone(),
            shapes: self.shapes,
        }
    }
}

/// One leased batch in flight: the complete per-iteration state machine
/// of the fuzzing loop, advanced one iteration at a time by [`step`].
///
/// A worker owns its RNG stream (keyed by batch id), its seed view, and
/// its coverage delta; the only shared state it touches is the
/// [`GlobalDedup`] claim set, whose outcome merely decides *where*
/// triage runs, never *what* the merged result is.
///
/// [`step`]: CampaignWorker::step
pub struct CampaignWorker {
    cfg: CampaignConfig,
    batch: usize,
    start: usize,
    len: usize,
    done: usize,
    rng: StdRng,
    structured: StructuredGen,
    /// Coverage credited to earlier generations: retention triggers
    /// only outside this set.
    seed_cov: Arc<Coverage>,
    /// Points first observed by this batch.
    cov_delta: Coverage,
    /// Mutation candidates: seed entries plus local retention.
    corpus: Vec<Arc<Scenario>>,
    /// Locally retained entries queued for publication (capped).
    fresh: Vec<Arc<Scenario>>,
    errno_histogram: BTreeMap<i32, usize>,
    reject_reasons: BTreeMap<String, usize>,
    /// Steering weights derived once at lease time from the seed view's
    /// shape stats; `None` when steering is off.
    steer_weights: Option<[u64; GenShape::COUNT]>,
    /// Per-shape counts this batch accumulates (all zero unsteered).
    shape_stats: ShapeStats,
    accepted: usize,
    findings: Vec<FindingRecord>,
    seen_signatures: HashSet<String>,
    alu_share_sum: f64,
    len_sum: usize,
    diff: DiffStats,
    san: SanStats,
}

impl CampaignWorker {
    /// Leases batch `batch` with the given seed view. The RNG stream is
    /// [`stream_seed`]`(cfg.seed, batch)` — schedule-independent.
    pub fn lease(cfg: CampaignConfig, batch: usize, seed: BatchSeed) -> CampaignWorker {
        let (start, len) = batch_bounds(&cfg, batch);
        let rng = StdRng::seed_from_u64(stream_seed(cfg.seed, batch));
        let structured = StructuredGen::new(GenConfig {
            version: cfg.version,
            ..Default::default()
        });
        let steer_weights = cfg.steer.then(|| {
            std::array::from_fn(|i| steer_weight(seed.shapes.generated[i], seed.shapes.accepted[i]))
        });
        CampaignWorker {
            batch,
            start,
            len,
            done: 0,
            rng,
            structured,
            seed_cov: seed.coverage,
            cov_delta: Coverage::new(),
            corpus: seed.corpus,
            fresh: Vec::new(),
            errno_histogram: BTreeMap::new(),
            reject_reasons: BTreeMap::new(),
            steer_weights,
            shape_stats: ShapeStats::default(),
            accepted: 0,
            findings: Vec::new(),
            seen_signatures: HashSet::new(),
            alu_share_sum: 0.0,
            len_sum: 0,
            diff: DiffStats::default(),
            san: SanStats::default(),
            cfg,
        }
    }

    /// The leased batch id.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Iterations executed so far in this batch.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Iterations this batch owns in total.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch owns no iterations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The global iteration of the most recent [`step`] (the batch
    /// start if none ran yet).
    ///
    /// [`step`]: CampaignWorker::step
    pub fn last_iter(&self) -> usize {
        self.start + self.done.saturating_sub(1)
    }

    /// Programs accepted so far.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Distinct coverage points visible to this batch so far (seed view
    /// plus local delta).
    pub fn coverage_points(&self) -> usize {
        self.seed_cov.len() + self.cov_delta.len()
    }

    /// Locally deduplicated findings so far.
    pub fn findings_count(&self) -> usize {
        self.findings.len()
    }

    /// Current corpus size (seed view plus local retention).
    pub fn corpus_size(&self) -> usize {
        self.corpus.len()
    }

    /// Whether this campaign variant retains and mutates a feedback
    /// corpus (BVF and Syzkaller do; Buzzer does not).
    pub fn uses_feedback(&self) -> bool {
        self.cfg.feedback
            && matches!(
                self.cfg.generator,
                GeneratorKind::Bvf | GeneratorKind::Syzkaller
            )
    }

    /// Runs one iteration: generate (or mutate), verify, execute, judge.
    /// Returns `false` once the batch's iteration budget is exhausted
    /// (without running anything).
    ///
    /// `scratch` is the reusable per-exec arena (kernel memory pool,
    /// KASAN shadow, trace buffers); recycling it is observationally
    /// identical to fresh allocation, which
    /// `recycled_kernel_is_bit_identical_to_fresh` pins down.
    ///
    /// `global` is consulted once per *locally* fresh finding
    /// signature; losing the global claim records the finding untriaged
    /// (`triaged == false`) for [`merge_batches`] to resolve
    /// deterministically.
    pub fn step(
        &mut self,
        tel: &mut Telemetry,
        global: &dyn GlobalDedup,
        scratch: &mut ExecScratch,
    ) -> bool {
        if self.done >= self.len {
            return false;
        }
        let cfg = &self.cfg;
        let iter = self.start + self.done;
        self.done += 1;

        // Choose: fresh generation or corpus mutation. The feedback loop
        // mutates saved interesting programs 40% of the time once a
        // corpus exists (BVF and Syzkaller use coverage feedback; Buzzer
        // does not).
        let uses_feedback = self.uses_feedback();
        let mut shape: Option<GenShape> = None;
        let (scenario, source) =
            if uses_feedback && !self.corpus.is_empty() && self.rng.gen_bool(0.4) {
                let base = &self.corpus[self.rng.gen_range(0..self.corpus.len())];
                (mutate(&mut self.rng, base), GenSource::Mutation)
            } else {
                // Steering re-weights only *fresh* generations; the
                // weighted pick is the sole extra RNG draw on the
                // steered path, and the unsteered path consumes exactly
                // the pre-steering stream.
                let picked = match &self.steer_weights {
                    Some(w) => pick_shape(&mut self.rng, w),
                    None => GenShape::Native,
                };
                let fresh = match picked {
                    GenShape::Native => match cfg.generator {
                        GeneratorKind::Bvf => self.structured.generate(&mut self.rng),
                        GeneratorKind::Syzkaller => syzkaller_generate(&mut self.rng),
                        GeneratorKind::BuzzerRandom => buzzer_random_generate(&mut self.rng),
                        GeneratorKind::BuzzerAluJmp => buzzer_alujmp_generate(&mut self.rng),
                    },
                    GenShape::Minimal => shape_minimal_generate(&mut self.rng),
                    GenShape::AluJmp => buzzer_alujmp_generate(&mut self.rng),
                    GenShape::MemSafe => shape_memsafe_generate(&mut self.rng),
                };
                if self.steer_weights.is_some() {
                    shape = Some(picked);
                }
                (fresh, GenSource::Fresh)
            };
        self.alu_share_sum += alu_jmp_fraction(&scenario.prog);
        self.len_sum += scenario.prog.insn_count();

        tel.registry.inc("iterations");
        tel.registry
            .record("gen.prog_len", scenario.prog.insn_count() as u64);
        if tel.trace_on() {
            tel.emit(&TraceEvent::Gen {
                iter,
                source,
                shape: shape.map(|s| s.name().to_string()),
                prog_len: scenario.prog.insn_count(),
            });
        }

        let outcome = run(&scenario, cfg, Some(scratch));
        if let Some(s) = shape {
            self.shape_stats.generated[s.index()] += 1;
        }
        match &outcome.load {
            Ok(_) => {
                self.accepted += 1;
                tel.registry.inc("verify.accepted");
                if let Some(s) = shape {
                    self.shape_stats.accepted[s.index()] += 1;
                }
            }
            Err(e) => {
                tel.registry.inc("verify.rejected");
                *self.errno_histogram.entry(e.errno_value()).or_insert(0) += 1;
                let (reason, depth) = reject_info(e);
                *self.reject_reasons.entry(reason.to_string()).or_insert(0) += 1;
                tel.registry.inc(&format!("reject.{reason}"));
                tel.registry
                    .record(&format!("reject.depth.{reason}"), depth);
            }
        }
        outcome.timings.record_into(&mut tel.registry, "verify");

        // Coverage feedback: keep programs that exercised verifier logic
        // new to this batch's view (seed ∪ local delta). Membership
        // tests and inserts are per-point and order-insensitive, so the
        // retention decision is schedule-independent.
        let mut new_cov = 0usize;
        for p in outcome.cov.iter_points() {
            if !self.seed_cov.contains_point(p) && self.cov_delta.insert_point(p) {
                new_cov += 1;
            }
        }
        if new_cov > 0 && uses_feedback && self.corpus.len() < CORPUS_CAP {
            let kept = Arc::new(scenario.clone());
            if self.fresh.len() < cfg.exchange_batch {
                self.fresh.push(Arc::clone(&kept));
            }
            self.corpus.push(kept);
        }
        if tel.trace_on() {
            tel.emit(&TraceEvent::Verify {
                iter,
                accepted: outcome.load.is_ok(),
                errno: outcome.load.as_ref().err().map(|e| e.errno_value()),
                reason: outcome
                    .load
                    .as_ref()
                    .err()
                    .map(|e| reject_info(e).0.to_string()),
                insns_processed: outcome.verifier_insns,
                new_cov,
                cov_total: self.coverage_points(),
                do_check_ns: outcome.timings.do_check_ns,
                total_ns: outcome.timings.total_ns(),
            });
        }

        if cfg.diff_oracle {
            self.diff.merge(&outcome.diff);
            tel.registry
                .add("diff.steps_checked", outcome.diff.steps_checked);
            tel.registry
                .add("diff.regs_checked", outcome.diff.regs_checked);
            tel.registry
                .add("diff.divergences", outcome.diff.divergences);
            if tel.trace_on() && outcome.diff.steps_total > 0 {
                tel.emit(&TraceEvent::Diff {
                    iter,
                    steps_checked: outcome.diff.steps_checked,
                    regs_checked: outcome.diff.regs_checked,
                    divergence: outcome.diff.divergences > 0,
                });
            }
        }

        if cfg.san_diff {
            self.san.merge(&outcome.san);
            tel.registry.add("sancheck.runs", outcome.san.runs);
            tel.registry
                .add("sancheck.divergences", outcome.san.divergences);
        }

        if let Some(halt) = outcome.halt {
            tel.registry.record("exec.steps", outcome.exec_steps);
            tel.registry.add("exec.helper_calls", outcome.helper_calls);
            tel.registry.add("exec.kfunc_calls", outcome.kfunc_calls);
            if tel.trace_on() {
                tel.emit(&TraceEvent::Exec {
                    iter,
                    steps: outcome.exec_steps,
                    helper_calls: outcome.helper_calls,
                    halt: format!("{halt:?}"),
                });
            }
        }

        // Oracle.
        if let Some(finding) = judge(&scenario, &outcome) {
            let sig = report_signature(finding.indicator, &finding.reports);
            let fresh_sig = self.seen_signatures.insert(sig.clone());
            tel.registry.inc("oracle.flagged");
            if !fresh_sig {
                tel.registry.inc("oracle.dedup_hits");
            }
            if tel.trace_on() {
                tel.emit(&TraceEvent::Oracle {
                    iter,
                    indicator: format!("{:?}", finding.indicator),
                    dedup_hit: !fresh_sig,
                });
            }
            if fresh_sig {
                let claimed = global.claim(&sig);
                if !claimed {
                    tel.registry.inc("oracle.global_dedup_hits");
                }
                let t0 = Instant::now();
                let triaged = cfg.triage && claimed;
                let culprits = if triaged {
                    triage(&finding, cfg)
                } else {
                    Vec::new()
                };
                let triage_ns = elapsed_ns(t0);
                tel.registry.record("oracle.triage_ns", triage_ns);
                if tel.trace_on() {
                    tel.emit(&TraceEvent::Finding {
                        iter,
                        indicator: format!("{:?}", finding.indicator),
                        signature: sig.clone(),
                        culprits: culprits.iter().map(|b| b.name().to_string()).collect(),
                        triage_ns,
                    });
                }
                self.findings.push(FindingRecord {
                    finding,
                    culprits,
                    iteration: iter,
                    signature: sig,
                    triaged,
                });
            }
        }

        if self.done == self.len && tel.trace_on() {
            tel.emit(&TraceEvent::Snapshot {
                iter,
                coverage: self.coverage_points(),
                accepted: self.accepted,
                findings: self.findings.len(),
                corpus: self.corpus.len(),
            });
        }
        true
    }

    /// Finishes the batch into its self-contained output.
    pub fn into_output(self) -> BatchOutput {
        BatchOutput {
            batch: self.batch,
            start: self.start,
            iterations: self.done,
            accepted: self.accepted,
            errno_histogram: self.errno_histogram,
            reject_reasons: self.reject_reasons,
            shapes: self.shape_stats,
            cov_delta: self.cov_delta,
            findings: self.findings,
            fresh_corpus: self.fresh,
            alu_share_sum: self.alu_share_sum,
            len_sum: self.len_sum,
            diff: self.diff,
            san: self.san,
        }
    }
}

/// Counters from [`merge_batches`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Findings dropped because an earlier batch already recorded the
    /// signature.
    pub cross_batch_dupes: usize,
    /// Surviving findings whose culprits were computed at merge time
    /// (their batch lost the global triage claim to a later batch).
    pub merge_triaged: usize,
}

/// Folds batch outputs into the canonical [`CampaignResult`].
///
/// The fold is over outputs **sorted by batch id**, so it is invariant
/// to the order the scheduler delivered them in: coverage is the union
/// of disjoint per-batch deltas; findings dedup by signature with the
/// earliest batch winning (matching serial iteration order); untriaged
/// survivors are re-triaged here so claim order never shows in the
/// result; the timeline is reconstructed at batch granularity on the
/// [`CampaignConfig::snapshot_every`] cadence.
pub fn merge_batches(
    cfg: &CampaignConfig,
    mut outputs: Vec<BatchOutput>,
) -> (CampaignResult, MergeStats) {
    outputs.sort_by_key(|o| o.batch);
    let mut stats = MergeStats::default();
    let mut iterations = 0usize;
    let mut accepted = 0usize;
    let mut errno_histogram: BTreeMap<i32, usize> = BTreeMap::new();
    let mut reject_reasons: BTreeMap<String, usize> = BTreeMap::new();
    let mut coverage = Coverage::new();
    let mut timeline = Vec::new();
    let mut findings: Vec<FindingRecord> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut alu_share_sum = 0.0f64;
    let mut len_sum = 0usize;
    let mut corpus_len = 0usize;
    let mut diff = DiffStats::default();
    let mut san = SanStats::default();
    let snap = cfg.snapshot_every.max(1);
    let mut last_bucket = None;
    let total = outputs.len();
    for (i, o) in outputs.into_iter().enumerate() {
        iterations += o.iterations;
        accepted += o.accepted;
        for (errno, count) in o.errno_histogram {
            *errno_histogram.entry(errno).or_insert(0) += count;
        }
        for (reason, count) in o.reject_reasons {
            *reject_reasons.entry(reason).or_insert(0) += count;
        }
        coverage.merge(&o.cov_delta);
        for f in o.findings {
            if seen.insert(f.signature.clone()) {
                findings.push(f);
            } else {
                stats.cross_batch_dupes += 1;
            }
        }
        alu_share_sum += o.alu_share_sum;
        len_sum += o.len_sum;
        corpus_len += o.fresh_corpus.len();
        diff.merge(&o.diff);
        san.merge(&o.san);
        // One timeline point per snapshot bucket crossed, plus the
        // campaign end.
        let end = o.start + o.iterations;
        let bucket = end / snap;
        if last_bucket != Some(bucket) || i + 1 == total {
            timeline.push((end.saturating_sub(1), coverage.len()));
            last_bucket = Some(bucket);
        }
    }
    for f in &mut findings {
        if cfg.triage && !f.triaged {
            f.culprits = triage(&f.finding, cfg);
            f.triaged = true;
            stats.merge_triaged += 1;
        }
    }
    let found_bugs: BTreeSet<BugId> = findings
        .iter()
        .flat_map(|f| f.culprits.iter().copied())
        .collect();
    let denom = iterations.max(1) as f64;
    (
        CampaignResult {
            generator: cfg.generator,
            iterations,
            accepted,
            errno_histogram,
            reject_reasons,
            coverage,
            timeline,
            findings,
            found_bugs,
            alu_jmp_share: alu_share_sum / denom,
            avg_prog_len: len_sum as f64 / denom,
            corpus_len,
            diff,
            san,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_bvf_campaign_accepts_and_covers() {
        let cfg = CampaignConfig {
            triage: false,
            ..CampaignConfig::new(GeneratorKind::Bvf, 60, 11)
        };
        let r = run_campaign(&cfg);
        assert_eq!(r.iterations, 60);
        assert!(r.accepted > 10, "acceptance too low: {}", r.accepted);
        assert!(r.coverage.len() > 100);
        assert!(!r.timeline.is_empty());
    }

    #[test]
    fn buzzer_random_mostly_rejected() {
        let cfg = CampaignConfig {
            triage: false,
            ..CampaignConfig::new(GeneratorKind::BuzzerRandom, 60, 5)
        };
        let r = run_campaign(&cfg);
        assert!(r.acceptance_rate() < 0.15, "rate {}", r.acceptance_rate());
    }

    #[test]
    fn buzzer_alujmp_mostly_accepted() {
        let cfg = CampaignConfig {
            triage: false,
            ..CampaignConfig::new(GeneratorKind::BuzzerAluJmp, 60, 5)
        };
        let r = run_campaign(&cfg);
        assert!(r.acceptance_rate() > 0.8, "rate {}", r.acceptance_rate());
        assert!(r.alu_jmp_share > 0.8);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = CampaignConfig {
            triage: false,
            ..CampaignConfig::new(GeneratorKind::Bvf, 30, 99)
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.findings.len(), b.findings.len());

        // Telemetry is observational: a campaign tracing into a JSONL
        // sink must be bit-identical to one with the null sink.
        let mut tel = Telemetry::new(Box::new(bvf_telemetry::JsonlSink::new(Vec::new())));
        let c = run_campaign_with_telemetry(&cfg, &mut tel);
        assert_eq!(a.accepted, c.accepted);
        assert_eq!(a.coverage, c.coverage);
        assert_eq!(a.errno_histogram, c.errno_histogram);
        assert_eq!(a.timeline, c.timeline);
        assert_eq!(a.corpus_len, c.corpus_len);
        assert_eq!(a.findings.len(), c.findings.len());
        assert_eq!(a.found_bugs, c.found_bugs);
        // And the registry really did observe the run.
        assert_eq!(tel.registry.counter("iterations"), 30);
        assert_eq!(tel.registry.counter("verify.accepted"), a.accepted as u64);
        assert!(tel
            .registry
            .histogram("verify.do_check_ns")
            .is_some_and(|h| h.count == 30));
    }

    #[test]
    fn report_signature_is_ordering_stable() {
        use bvf_kernel_sim::lockdep::LockId;
        use bvf_kernel_sim::{KasanKind, LockdepKind, ReportOrigin};
        let kasan = KernelReport::Kasan {
            kind: KasanKind::OutOfBounds,
            addr: 0x1000,
            size: 8,
            is_write: true,
            origin: ReportOrigin::ProgramAccess,
        };
        let lockdep = KernelReport::Lockdep {
            kind: LockdepKind::RecursiveAcquire,
            lock: LockId::Ringbuf,
            origin: ReportOrigin::KernelRoutine,
        };
        let panic = KernelReport::Panic {
            reason: "boom".to_string(),
        };
        let fwd = [kasan.clone(), lockdep.clone(), panic.clone()];
        let rev = [panic.clone(), kasan.clone(), lockdep.clone()];
        assert_eq!(
            report_signature(Indicator::One, &fwd),
            report_signature(Indicator::One, &rev),
            "cross-worker dedup must be insensitive to report arrival order"
        );
        // Duplicate reports collapse into one component.
        let dup = [kasan.clone(), kasan.clone()];
        assert_eq!(
            report_signature(Indicator::One, &dup),
            report_signature(Indicator::One, &[kasan]),
        );
        // Address/size details stay out of the signature (they vary per
        // run); distinct indicators still separate.
        assert_ne!(
            report_signature(Indicator::One, &fwd),
            report_signature(Indicator::Two, &fwd)
        );
    }

    #[test]
    fn stream_seeds_are_split() {
        // Batch 0 replays the campaign seed itself.
        assert_eq!(stream_seed(42, 0), 42);
        // Other batches get well-separated streams, stable per id.
        let seeds: Vec<u64> = (0..8).map(|b| stream_seed(42, b)).collect();
        let distinct: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len());
        assert_eq!(
            seeds,
            (0..8).map(|b| stream_seed(42, b)).collect::<Vec<_>>()
        );
        // Different campaign seeds give different streams for the same
        // batch.
        assert_ne!(stream_seed(42, 3), stream_seed(43, 3));
    }

    #[test]
    fn batches_partition_the_campaign() {
        for total in [0usize, 1, 7, 63, 64, 65, 100, 4096] {
            for batch_len in [1usize, 7, 64, 128] {
                let cfg = CampaignConfig {
                    batch_len,
                    ..CampaignConfig::new(GeneratorKind::Bvf, total, 1)
                };
                let n = batch_count(&cfg);
                let mut covered = 0usize;
                for b in 0..n {
                    let (start, len) = batch_bounds(&cfg, b);
                    assert_eq!(start, covered, "batches must be contiguous");
                    assert!(len >= 1 && len <= batch_len);
                    covered += len;
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn generation_lag_gates_seed_views() {
        let cfg = CampaignConfig {
            batch_len: 64,
            exchange_every: 128,
            ..CampaignConfig::new(GeneratorKind::Bvf, 64 * 8, 1)
        };
        // 2 batches per generation; a batch in generation g consumes
        // generations [0, g-1).
        assert_eq!(generation_len(&cfg), 2);
        assert_eq!(generation_of(&cfg, 0), 0);
        assert_eq!(generation_of(&cfg, 3), 1);
        assert_eq!(seed_generations(&cfg, 0), 0);
        assert_eq!(seed_generations(&cfg, 1), 0);
        assert_eq!(seed_generations(&cfg, 2), 0);
        assert_eq!(seed_generations(&cfg, 4), 1);
        assert_eq!(seed_generations(&cfg, 7), 2);

        // Exchange disabled: every batch seeds from the base alone.
        let off = CampaignConfig {
            exchange_every: 0,
            ..cfg.clone()
        };
        for b in 0..batch_count(&off) {
            assert_eq!(seed_generations(&off, b), 0);
        }

        // Readiness follows publication of whole generations.
        let mut ledger = CorpusLedger::new(&cfg);
        assert!(ledger.ready_for(&cfg, 0));
        assert!(ledger.ready_for(&cfg, 3), "gen 1 consumes only gen-0-less");
        assert!(!ledger.ready_for(&cfg, 4), "gen 2 needs gen 0 published");
        ledger.publish(0, LedgerEntry::default());
        assert!(!ledger.ready_for(&cfg, 4));
        ledger.publish(1, LedgerEntry::default());
        assert!(ledger.ready_for(&cfg, 4));
        assert!(!ledger.ready_for(&cfg, 6), "gen 3 needs gens 0+1");
    }

    #[test]
    fn leased_batches_match_run_campaign() {
        // Driving the public batch pieces by hand — lease, step, publish,
        // merge — must reproduce run_campaign exactly.
        let cfg = CampaignConfig {
            triage: false,
            batch_len: 16,
            exchange_every: 32,
            ..CampaignConfig::new(GeneratorKind::Bvf, 72, 7)
        };
        let serial = run_campaign(&cfg);

        let dedup = SerialDedup::default();
        let mut ledger = CorpusLedger::new(&cfg);
        let mut scratch = ExecScratch::new();
        let mut tel = Telemetry::null();
        let mut outputs = Vec::new();
        for b in 0..batch_count(&cfg) {
            assert!(ledger.ready_for(&cfg, b));
            let seed = ledger.seed_for(&cfg, b);
            let mut w = CampaignWorker::lease(cfg.clone(), b, seed);
            let mut steps = 0;
            while w.step(&mut tel, &dedup, &mut scratch) {
                steps += 1;
            }
            assert_eq!(steps, batch_bounds(&cfg, b).1);
            let out = w.into_output();
            ledger.publish(b, out.ledger_entry());
            outputs.push(out);
        }
        let (r, _) = merge_batches(&cfg, outputs);
        assert_eq!(r.iterations, serial.iterations);
        assert_eq!(r.accepted, serial.accepted);
        assert_eq!(r.coverage, serial.coverage);
        assert_eq!(r.errno_histogram, serial.errno_histogram);
        assert_eq!(r.timeline, serial.timeline);
        assert_eq!(r.corpus_len, serial.corpus_len);
        assert_eq!(r.findings.len(), serial.findings.len());
        assert_eq!(r.found_bugs, serial.found_bugs);
    }

    #[test]
    fn merge_is_invariant_to_output_order() {
        let cfg = CampaignConfig {
            triage: false,
            batch_len: 16,
            exchange_every: 32,
            ..CampaignConfig::new(GeneratorKind::Bvf, 72, 21)
        };
        let dedup = SerialDedup::default();
        let mut ledger = CorpusLedger::new(&cfg);
        let mut scratch = ExecScratch::new();
        let mut tel = Telemetry::null();
        let run = |order: &mut Vec<BatchOutput>| merge_batches(&cfg, std::mem::take(order));
        let mut outputs = Vec::new();
        for b in 0..batch_count(&cfg) {
            let seed = ledger.seed_for(&cfg, b);
            let mut w = CampaignWorker::lease(cfg.clone(), b, seed);
            while w.step(&mut tel, &dedup, &mut scratch) {}
            let out = w.into_output();
            ledger.publish(b, out.ledger_entry());
            outputs.push(out);
        }
        // merge_batches consumes its input, so rebuild the reversed
        // order from a second identical campaign run.
        let mut ledger2 = CorpusLedger::new(&cfg);
        let dedup2 = SerialDedup::default();
        let mut reversed = Vec::new();
        for b in 0..batch_count(&cfg) {
            let seed = ledger2.seed_for(&cfg, b);
            let mut w = CampaignWorker::lease(cfg.clone(), b, seed);
            while w.step(&mut tel, &dedup2, &mut scratch) {}
            let out = w.into_output();
            ledger2.publish(b, out.ledger_entry());
            reversed.push(out);
        }
        reversed.reverse();
        let (a, _) = run(&mut outputs);
        let (b, _) = run(&mut reversed);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.errno_histogram, b.errno_histogram);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.corpus_len, b.corpus_len);
        assert_eq!(
            a.findings.iter().map(|f| &f.signature).collect::<Vec<_>>(),
            b.findings.iter().map(|f| &f.signature).collect::<Vec<_>>()
        );
    }

    #[test]
    fn serial_dedup_claims_once() {
        let d = SerialDedup::default();
        assert!(d.claim("sig-a"));
        assert!(!d.claim("sig-a"));
        assert!(d.claim("sig-b"));
    }

    #[test]
    fn serial_dedup_first_claim_wins_exactly_once() {
        // Signatures as findings spell them: `<Kind>:<oracle>`.
        let d = SerialDedup::default();
        assert!(d.claim("One:kasan"));
        assert!(!d.claim("One:kasan"));
        assert!(d.claim("Two:lockdep"));
        assert!(!d.claim("Two:lockdep"));
        assert_eq!(d.0.lock().unwrap().len(), 2);
    }

    #[test]
    fn serial_dedup_concurrent_claims_have_one_winner_per_signature() {
        // The work-stealing scheduler shares one set between threads.
        let d = SerialDedup::default();
        let sigs: Vec<String> = (0..64).map(|i| format!("sig-{i}")).collect();
        let wins: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| sigs.iter().filter(|sig| d.claim(sig)).count()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, sigs.len(), "every signature is won exactly once");
    }

    #[test]
    fn zero_iteration_campaign_has_finite_rates() {
        let cfg = CampaignConfig::new(GeneratorKind::Bvf, 0, 5);
        let r = run_campaign(&cfg);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.acceptance_rate(), 0.0);
        let stats = r.to_stats(cfg.seed, Registry::new());
        assert!(stats.acceptance_rate.is_finite());
        assert!(stats.alu_jmp_share.is_finite());
        assert!(stats.avg_prog_len.is_finite());
        assert!(stats.reject_reasons.is_empty());
    }

    #[test]
    fn every_rejection_carries_a_typed_reason() {
        let cfg = CampaignConfig {
            triage: false,
            ..CampaignConfig::new(GeneratorKind::Bvf, 1000, 1)
        };
        let r = run_campaign(&cfg);
        let rejected = r.iterations - r.accepted;
        let sum: usize = r.reject_reasons.values().sum();
        assert_eq!(
            sum, rejected,
            "per-reason counts must sum exactly to the rejected total"
        );
        assert!(
            r.reject_reasons.len() >= 15,
            "expected a diverse taxonomy, got {} distinct reasons: {:?}",
            r.reject_reasons.len(),
            r.reject_reasons.keys().collect::<Vec<_>>()
        );
        for reason in r.reject_reasons.keys() {
            assert!(
                !reason.is_empty()
                    && reason
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "reason codes are stable snake_case names: {reason:?}"
            );
        }
    }

    #[test]
    fn steering_raises_buzzer_random_acceptance() {
        let base = CampaignConfig {
            triage: false,
            batch_len: 16,
            exchange_every: 32,
            ..CampaignConfig::new(GeneratorKind::BuzzerRandom, 512, 9)
        };
        let unsteered = run_campaign(&base);
        let steered_cfg = CampaignConfig {
            steer: true,
            ..base.clone()
        };
        let steered = run_campaign(&steered_cfg);
        assert!(
            steered.acceptance_rate() >= unsteered.acceptance_rate() + 0.1,
            "steering should raise acceptance: steered {:.3} vs unsteered {:.3}",
            steered.acceptance_rate(),
            unsteered.acceptance_rate()
        );
        // Steering is a deterministic function of the campaign config.
        let again = run_campaign(&steered_cfg);
        assert_eq!(steered.accepted, again.accepted);
        assert_eq!(steered.coverage, again.coverage);
        assert_eq!(steered.reject_reasons, again.reject_reasons);
        assert_eq!(steered.timeline, again.timeline);
    }

    #[test]
    fn bvf_campaign_finds_bugs() {
        let cfg = CampaignConfig::new(GeneratorKind::Bvf, 400, 1234);
        let r = run_campaign(&cfg);
        assert!(
            !r.found_bugs.is_empty(),
            "a 400-iteration campaign should find at least one injected bug"
        );
    }
}
