//! The traced single-worker campaign call.
//!
//! The benchmark drives the serial schedule of `bvf fuzz --workers 1`
//! (`run_campaign_with_telemetry`) itself from its public pieces —
//! `CampaignWorker` lease/step/`into_output`, the corpus ledger, the
//! dedup set and `merge_batches` — so it can put a span around each
//! call. The worker traces into the program's own in-memory JSONL sink,
//! stamped on the benchmark's clock, so trace events fall inside the
//! step spans. The merged result must equal the untraced call's; the
//! caller checks. Multi-worker campaigns are not driven here: the
//! benchmark calls `run_sharded` for those (see `ledger::Pass`).

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bvf::fuzz::{
    batch_count, merge_batches, CampaignConfig, CampaignResult, CampaignWorker, CorpusLedger,
    SerialDedup,
};
use bvf_runtime::ExecScratch;
use bvf_telemetry::profile::elapsed_ns;
use bvf_telemetry::{JsonlSink, Registry, Telemetry};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The worker loop, first lease to last publish.
    Worker,
    /// `CorpusLedger::seed_for` and `CampaignWorker::lease`.
    Lease,
    /// One `CampaignWorker::step`; `id` is its campaign iteration.
    Step,
    /// `into_output` and publishing the batch's ledger entry.
    Publish,
}

/// One span, in nanoseconds since the call started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub id: usize,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Everything one traced call produced.
pub struct TracedCall {
    pub result: CampaignResult,
    pub registry: Registry,
    /// Call wall time; the call starts at 0 on the span clock.
    pub wall_ns: u64,
    /// `merge_batches`, after the last batch was published.
    pub merge_ns: u64,
    pub spans: Vec<Span>,
    /// The worker's JSONL trace.
    pub trace: Vec<u8>,
}

/// A `Write` into a buffer the benchmark reads back after the worker's
/// telemetry (which owns the sink) is dropped.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `cfg` on one traced worker, in the order
/// `run_campaign_with_telemetry` runs it: batches in order against one
/// ledger, one dedup set and one scratch.
pub fn run(cfg: &CampaignConfig) -> TracedCall {
    let epoch = Instant::now();
    let buf = Arc::new(Mutex::new(Vec::new()));
    let sink = JsonlSink::new(SharedBuf(Arc::clone(&buf))).with_epoch(epoch);
    let mut tel = Telemetry::new(Box::new(sink));
    let dedup = SerialDedup::default();
    let mut ledger = CorpusLedger::new(cfg);
    let mut scratch = ExecScratch::new();
    let mut spans = Vec::new();
    let mut outputs = Vec::new();
    let start = elapsed_ns(epoch);
    for b in 0..batch_count(cfg) {
        let t = elapsed_ns(epoch);
        let seed = ledger.seed_for(cfg, b);
        let mut worker = CampaignWorker::lease(cfg.clone(), b, seed);
        spans.push(span(Kind::Lease, b, t, epoch));
        loop {
            let t = elapsed_ns(epoch);
            if !worker.step(&mut tel, &dedup, &mut scratch) {
                break;
            }
            spans.push(span(Kind::Step, worker.last_iter(), t, epoch));
        }
        let t = elapsed_ns(epoch);
        let out = worker.into_output();
        ledger.publish(b, out.ledger_entry());
        outputs.push(out);
        spans.push(span(Kind::Publish, b, t, epoch));
    }
    spans.push(span(Kind::Worker, 0, start, epoch));
    tel.finish();
    let registry = std::mem::take(&mut tel.registry);
    drop(tel);
    let trace = std::mem::take(&mut *buf.lock().expect("trace buffer poisoned"));

    let merge_start = elapsed_ns(epoch);
    let (result, _) = merge_batches(cfg, outputs);
    let wall_ns = elapsed_ns(epoch);
    TracedCall {
        result,
        registry,
        wall_ns,
        merge_ns: wall_ns - merge_start,
        spans,
        trace,
    }
}

fn span(kind: Kind, id: usize, start: u64, epoch: Instant) -> Span {
    Span {
        kind,
        id,
        start,
        end: elapsed_ns(epoch),
    }
}
