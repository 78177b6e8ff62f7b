//! The remote campaign worker: leases batches over the wire, mirrors
//! the corpus-exchange ledger from streamed deltas, executes batches
//! with the stock in-process [`CampaignWorker`], and submits outputs.
//!
//! The worker never invents state: its RNG stream comes from the batch
//! id, its seed view from the mirrored ledger (built from the exact
//! delta frames the coordinator streamed, applied in publish order), so
//! the batch output it submits is byte-identical to what any other
//! worker — local thread or remote host — would have produced for the
//! same lease.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bvf::fuzz::{CampaignConfig, CampaignWorker, CorpusLedger, GlobalDedup};
use bvf_runtime::ExecScratch;
use bvf_telemetry::Telemetry;

use crate::proto::{FrameConn, Request, Response, Role, FABRIC_MAGIC, FABRIC_VERSION};
use crate::FabricError;

/// Worker tuning (and test hooks).
pub struct WorkerOptions {
    /// Backoff between lease polls when the coordinator has no work.
    pub poll: Duration,
    /// Send a lease-extend heartbeat every this many batch steps.
    /// Independently of the step count, a heartbeat is also sent
    /// whenever a third of the coordinator's lease timeout (learned
    /// from the Welcome frame) has elapsed since the last extend, so
    /// slow steps cannot let the lease expire between step-count
    /// heartbeats. 0 disables mid-batch heartbeats entirely (test
    /// hook).
    pub heartbeat_steps: usize,
    /// Stop after completing this many batches (`None` = run until the
    /// stop flag is raised or the connection drops).
    pub max_batches: Option<usize>,
    /// Churn-test hook: after completing this many batches, take one
    /// more lease, execute roughly half of it (dedup claims included),
    /// then drop the connection without completing — simulating a
    /// worker crash mid-batch.
    pub abandon_after: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            poll: Duration::from_millis(20),
            heartbeat_steps: 64,
            max_batches: None,
            abandon_after: None,
        }
    }
}

/// What a worker did before returning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Batches completed and accepted by the coordinator.
    pub batches: usize,
    /// Batches abandoned (heartbeat said the lease was reaped, or the
    /// churn hook fired).
    pub abandoned: usize,
    /// Campaigns this worker executed at least one batch of.
    pub campaigns: usize,
    /// Whether the churn hook terminated the worker mid-batch.
    pub churned: bool,
}

/// Per-campaign state a worker mirrors locally.
struct MirroredCampaign {
    cfg: CampaignConfig,
    ledger: CorpusLedger,
    /// Delta frames consumed (the ack sent with every lease request).
    consumed: u64,
}

/// The remote [`GlobalDedup`]: claims go through a synchronous RPC on
/// the worker's connection. A transport failure mid-claim records the
/// error and reports the claim as won — the batch's output will never
/// be submitted on the broken connection, so the answer is moot.
struct RemoteDedup<'a> {
    conn: &'a Mutex<FrameConn>,
    failed: AtomicBool,
}

impl GlobalDedup for RemoteDedup<'_> {
    fn claim(&self, sig: &str) -> bool {
        let mut conn = self.conn.lock().unwrap();
        match conn.rpc(&Request::Claim {
            signature: sig.to_string(),
        }) {
            Ok(Response::Claimed { first }) => first,
            _ => {
                self.failed.store(true, Ordering::Relaxed);
                true
            }
        }
    }
}

/// Connects to `addr` and executes leases until the stop flag rises,
/// `max_batches` is reached, or the connection breaks.
pub fn run_worker(
    addr: &str,
    opts: &WorkerOptions,
    stop: &AtomicBool,
) -> Result<WorkerReport, FabricError> {
    let mut conn = FrameConn::connect(addr)?;
    let heartbeat_every = match conn.rpc(&Request::Hello {
        magic: FABRIC_MAGIC.to_string(),
        version: FABRIC_VERSION,
        role: Role::Worker,
    })? {
        // Wall-clock heartbeat cadence: a third of the coordinator's
        // lease window leaves two retries' slack before it reaps us.
        Response::Welcome {
            lease_timeout_ms, ..
        } => Duration::from_millis((lease_timeout_ms / 3).max(1)),
        Response::Refused { reason } => return Err(FabricError::Refused(reason)),
        other => return Err(FabricError::unexpected("Welcome", &other)),
    };
    let conn = Mutex::new(conn);
    let mut campaigns: HashMap<u64, MirroredCampaign> = HashMap::new();
    let mut scratch = ExecScratch::new();
    let mut report = WorkerReport::default();
    while !stop.load(Ordering::Relaxed) {
        if opts.max_batches.is_some_and(|m| report.batches >= m) {
            break;
        }
        let known = campaigns.iter().map(|(id, c)| (*id, c.consumed)).collect();
        let grant = match conn.lock().unwrap().rpc(&Request::Lease { known })? {
            Response::Granted(g) => g,
            Response::NoWork => {
                std::thread::sleep(opts.poll);
                continue;
            }
            other => return Err(FabricError::unexpected("Granted | NoWork", &other)),
        };
        let mirrored = match campaigns.entry(grant.campaign) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let cfg = grant.config.ok_or_else(|| {
                    FabricError::Protocol(format!(
                        "grant for unknown campaign {} carried no config",
                        grant.campaign
                    ))
                })?;
                report.campaigns += 1;
                e.insert(MirroredCampaign {
                    ledger: CorpusLedger::new(&cfg),
                    cfg,
                    consumed: 0,
                })
            }
        };
        for d in grant.deltas {
            if d.seq != mirrored.consumed {
                return Err(FabricError::Protocol(format!(
                    "delta sequence gap: expected {}, got {}",
                    mirrored.consumed, d.seq
                )));
            }
            mirrored.ledger.publish(d.batch, d.entry);
            mirrored.consumed += 1;
        }
        let seed = mirrored.ledger.seed_for(&mirrored.cfg, grant.batch);
        let mut w = CampaignWorker::lease(mirrored.cfg.clone(), grant.batch, seed);
        let churn_at = opts
            .abandon_after
            .filter(|&n| report.batches >= n)
            .map(|_| (w.len() / 2).max(1));
        let dedup = RemoteDedup {
            conn: &conn,
            failed: AtomicBool::new(false),
        };
        let mut tel = Telemetry::null();
        let mut keep = true;
        let mut extended_at = Instant::now();
        while w.step(&mut tel, &dedup, &mut scratch) {
            if dedup.failed.load(Ordering::Relaxed) {
                return Err(FabricError::Protocol(
                    "connection lost during dedup claim".to_string(),
                ));
            }
            if churn_at.is_some_and(|n| w.done() >= n) {
                // Simulated crash: drop the connection mid-batch.
                report.churned = true;
                return Ok(report);
            }
            // Heartbeat on whichever fires first: the step count, or
            // the wall clock. Step count alone would let a run of slow
            // steps (diff oracle, loaded host) outlive the lease.
            let due = w.done().is_multiple_of(opts.heartbeat_steps.max(1))
                || extended_at.elapsed() >= heartbeat_every;
            if opts.heartbeat_steps > 0 && due {
                match conn.lock().unwrap().rpc(&Request::Extend {
                    campaign: grant.campaign,
                    batch: grant.batch,
                })? {
                    Response::Extended { keep: k } => keep = k,
                    other => return Err(FabricError::unexpected("Extended", &other)),
                }
                extended_at = Instant::now();
                if !keep {
                    break;
                }
            }
        }
        if !keep {
            // The coordinator reaped our lease; the batch will be (or
            // already was) re-executed elsewhere with identical output.
            report.abandoned += 1;
            continue;
        }
        let output = w.into_output();
        match conn.lock().unwrap().rpc(&Request::Complete {
            campaign: grant.campaign,
            output,
        })? {
            Response::Accepted { .. } => report.batches += 1,
            other => return Err(FabricError::unexpected("Accepted", &other)),
        }
    }
    Ok(report)
}
