//! The campaign coordinator: lease scheduling, corpus-delta streaming,
//! completion merging, and churn recovery over the wire protocol.
//!
//! # Determinism under churn
//!
//! The coordinator re-issues a lost lease (worker disconnect, lease
//! expiry) by simply returning the batch id to the pending queue. This
//! is safe because a batch's result is a pure function of
//! `(CampaignConfig, batch id, seed view)`: its RNG stream is keyed by
//! the batch id ([`stream_seed`]), and its seed view is a pure fold of
//! the ledger entries of its fully-published earlier generations —
//! which the coordinator *gates grants on* ([`CorpusLedger::ready_for`]),
//! so every worker that ever runs the batch computes the identical seed
//! view from the identical streamed deltas. Two executions of one batch
//! therefore produce byte-identical outputs, and the coordinator keeps
//! the first [`Request::Complete`] and ignores duplicates. Merged
//! results are bit-identical to a local `--workers N` run at any churn
//! interleaving.
//!
//! Each campaign keeps its own finding-signature claim set, exactly as
//! a local campaign shares one [`SerialDedup`] between its threads. The
//! set lives as long as the campaign's scheduling state and is dropped
//! at the merge, so no campaign's claims reach another's.
//!
//! [`stream_seed`]: bvf::fuzz::stream_seed
//! [`CorpusLedger::ready_for`]: bvf::fuzz::CorpusLedger::ready_for
//! [`SerialDedup`]: bvf::fuzz::SerialDedup

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bvf::fuzz::{batch_count, merge_batches, BatchOutput, CampaignConfig, CorpusLedger};
use bvf_telemetry::fabric::FabricCounters;
use bvf_telemetry::Registry;

use crate::proto::{
    CampaignStatus, CorpusDelta, FrameConn, LeaseGrant, Request, Response, Role, FABRIC_MAGIC,
    FABRIC_VERSION,
};
use crate::FabricError;

/// Name of the counters dump written on graceful shutdown.
pub const COUNTERS_FILE: &str = "fabric-counters.json";

/// Coordinator tuning.
pub struct CoordinatorOptions {
    /// State directory: receives each merged campaign's stats dump and
    /// the counters dump on shutdown. `None` writes nothing.
    pub state_dir: Option<PathBuf>,
    /// A lease not extended or completed within this window is reaped
    /// and re-issued.
    pub lease_timeout: Duration,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            state_dir: None,
            lease_timeout: Duration::from_secs(30),
        }
    }
}

/// One lease in flight.
struct LeaseInfo {
    session: u64,
    deadline: Instant,
}

/// Final merged result of a campaign, kept for [`Request::FetchResult`].
struct Finished {
    stats: bvf_telemetry::CampaignStats,
    findings: Vec<bvf::fuzz::FindingRecord>,
}

/// One submitted campaign's scheduling state.
struct Campaign {
    cfg: CampaignConfig,
    total: usize,
    ledger: CorpusLedger,
    /// Publish-ordered corpus deltas; a worker's ack is an index here.
    deltas: Vec<CorpusDelta>,
    /// Batches not yet leased (or returned by churn).
    pending: BTreeSet<usize>,
    /// Batches currently leased.
    leases: BTreeMap<usize, LeaseInfo>,
    /// Completed outputs, indexed by batch id.
    outputs: Vec<Option<BatchOutput>>,
    /// Finding signatures claimed so far; emptied at the merge.
    claims: HashSet<String>,
    done: usize,
    /// Running tallies over completed batches (the status surface).
    iterations: usize,
    accepted: usize,
    reject_reasons: BTreeMap<String, usize>,
    findings_seen: usize,
    finished: Option<Finished>,
}

impl Campaign {
    fn new(cfg: CampaignConfig) -> Campaign {
        let total = batch_count(&cfg);
        Campaign {
            ledger: CorpusLedger::new(&cfg),
            total,
            deltas: Vec::new(),
            pending: (0..total).collect(),
            leases: BTreeMap::new(),
            outputs: (0..total).map(|_| None).collect(),
            claims: HashSet::new(),
            done: 0,
            iterations: 0,
            accepted: 0,
            reject_reasons: BTreeMap::new(),
            findings_seen: 0,
            finished: None,
            cfg,
        }
    }

    /// Returns expired leases to pending; counts each as a re-issue.
    fn reap(&mut self, now: Instant, counters: &mut FabricCounters) {
        let expired: Vec<usize> = self
            .leases
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(b, _)| *b)
            .collect();
        for b in expired {
            self.leases.remove(&b);
            self.pending.insert(b);
            counters.leases_reissued += 1;
        }
    }

    fn status(&self, id: u64) -> CampaignStatus {
        CampaignStatus {
            campaign: id,
            batches_total: self.total,
            batches_done: self.done,
            batches_leased: self.leases.len(),
            iterations: self.iterations,
            accepted: self.accepted,
            reject_reasons: self.reject_reasons.clone(),
            findings: self.findings_seen,
            complete: self.finished.is_some(),
        }
    }
}

/// Mutable coordinator state behind one mutex. Campaign scheduling is
/// cheap relative to batch execution, so a single lock keeps every
/// invariant (lease sets, ledger, delta stream) trivially consistent.
struct State {
    next_campaign: u64,
    next_session: u64,
    /// Worker sessions currently connected (gauge; lifetime count is in
    /// the counters).
    live_workers: usize,
    counters: FabricCounters,
    campaigns: BTreeMap<u64, Campaign>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    lease_timeout: Duration,
    state_dir: Option<PathBuf>,
}

/// The coordinator service: owns the listener and the shared state.
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Binds to `addr` and creates the state directory if missing.
    pub fn bind<A: ToSocketAddrs>(addr: A, opts: CoordinatorOptions) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        if let Some(dir) = &opts.state_dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(Coordinator {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    next_campaign: 1,
                    next_session: 1,
                    live_workers: 0,
                    counters: FabricCounters::default(),
                    campaigns: BTreeMap::new(),
                    shutdown: false,
                }),
                lease_timeout: opts.lease_timeout,
                state_dir: opts.state_dir,
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a [`Request::Shutdown`] arrives. Each
    /// connection gets a handler thread; the accept loop polls the
    /// shutdown flag between accepts.
    pub fn run(&self) -> Result<FabricCounters, FabricError> {
        self.listener.set_nonblocking(true)?;
        loop {
            if self.shared.state.lock().unwrap().shutdown {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || handle_conn(&shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(FabricError::Io(e)),
            }
        }
        let counters = self.shared.state.lock().unwrap().counters;
        if let Some(dir) = &self.shared.state_dir {
            let json = serde_json::to_string_pretty(&counters)
                .map_err(|e| FabricError::Protocol(format!("counters encode failed: {e}")))?;
            std::fs::write(dir.join(COUNTERS_FILE), json + "\n")?;
        }
        Ok(counters)
    }
}

/// One connection's lifecycle: handshake, request loop, churn cleanup.
fn handle_conn(shared: &Shared, stream: TcpStream) {
    let Ok(mut conn) = FrameConn::from_stream(stream) else {
        return;
    };
    let Some((session, role)) = handshake(shared, &mut conn) else {
        return;
    };
    // Recv failure is EOF or a broken pipe: the peer is gone; churn
    // cleanup below re-issues whatever it held.
    while let Ok(req) = conn.recv::<Request>() {
        let quitting = matches!(req, Request::Shutdown);
        let resp = dispatch(shared, session, req);
        if conn.send(&resp).is_err() {
            break;
        }
        if quitting {
            break;
        }
    }
    let mut state = shared.state.lock().unwrap();
    if role == Role::Worker {
        state.live_workers -= 1;
    }
    release_session_leases(&mut state, session);
}

/// Validates the mandatory first frame. Returns `None` (connection to
/// be dropped) on anything but a matching [`Request::Hello`].
fn handshake(shared: &Shared, conn: &mut FrameConn) -> Option<(u64, Role)> {
    let first: Request = conn.recv().ok()?;
    let Request::Hello {
        magic,
        version,
        role,
    } = first
    else {
        conn.send(&Response::Refused {
            reason: "first frame must be Hello".to_string(),
        })
        .ok();
        return None;
    };
    if magic != FABRIC_MAGIC || version != FABRIC_VERSION {
        conn.send(&Response::Refused {
            reason: format!(
                "protocol mismatch: peer speaks {magic}/v{version}, \
                 coordinator speaks {FABRIC_MAGIC}/v{FABRIC_VERSION}"
            ),
        })
        .ok();
        return None;
    }
    let session = {
        let mut state = shared.state.lock().unwrap();
        let session = state.next_session;
        state.next_session += 1;
        session
    };
    conn.send(&Response::Welcome {
        version: FABRIC_VERSION,
        session,
        lease_timeout_ms: shared.lease_timeout.as_millis() as u64,
    })
    .ok()?;
    // Count the worker only once the Welcome actually reached it: a
    // send failure returns None above, and handle_conn never runs the
    // cleanup path for a session it was not told about — incrementing
    // earlier would leak the live_workers gauge upward.
    if role == Role::Worker {
        let mut state = shared.state.lock().unwrap();
        state.live_workers += 1;
        state.counters.worker_sessions += 1;
    }
    Some((session, role))
}

/// Returns every lease a vanished session held to the pending queue.
fn release_session_leases(state: &mut State, session: u64) {
    let mut reissued = 0;
    for c in state.campaigns.values_mut() {
        let held: Vec<usize> = c
            .leases
            .iter()
            .filter(|(_, l)| l.session == session)
            .map(|(b, _)| *b)
            .collect();
        for b in held {
            c.leases.remove(&b);
            c.pending.insert(b);
            reissued += 1;
        }
    }
    state.counters.leases_reissued += reissued;
}

/// Serves one request.
fn dispatch(shared: &Shared, session: u64, req: Request) -> Response {
    match req {
        Request::Hello { .. } => Response::Refused {
            reason: "already welcomed".to_string(),
        },
        Request::Lease { known } => grant_lease(shared, session, &known),
        Request::Extend { campaign, batch } => {
            let mut state = shared.state.lock().unwrap();
            let deadline = Instant::now() + shared.lease_timeout;
            let keep = state
                .campaigns
                .get_mut(&campaign)
                .and_then(|c| c.leases.get_mut(&batch))
                .is_some_and(|l| {
                    if l.session == session {
                        l.deadline = deadline;
                        true
                    } else {
                        false
                    }
                });
            Response::Extended { keep }
        }
        Request::Claim {
            campaign,
            signature,
        } => {
            let mut state = shared.state.lock().unwrap();
            let state = &mut *state;
            let Some(c) = state.campaigns.get_mut(&campaign) else {
                return Response::Unknown { campaign };
            };
            // A straggler's claim after the merge is moot: its output
            // will be dropped as a duplicate.
            let first = c.finished.is_none() && c.claims.insert(signature);
            state.counters.claims += 1;
            if first {
                state.counters.claims_first += 1;
            }
            Response::Claimed { first }
        }
        Request::Complete { campaign, output } => complete_batch(shared, campaign, output),
        Request::Submit { config } => {
            let mut state = shared.state.lock().unwrap();
            let id = state.next_campaign;
            state.next_campaign += 1;
            state.campaigns.insert(id, Campaign::new(config));
            Response::Submitted { campaign: id }
        }
        Request::Status { campaign } => {
            let state = shared.state.lock().unwrap();
            match state.campaigns.get(&campaign) {
                Some(c) => Response::StatusReport(c.status(campaign)),
                None => Response::Unknown { campaign },
            }
        }
        Request::FetchResult { campaign } => {
            let state = shared.state.lock().unwrap();
            match state.campaigns.get(&campaign) {
                Some(c) => match &c.finished {
                    Some(f) => Response::ResultReady {
                        stats: f.stats.clone(),
                        findings: f.findings.clone(),
                    },
                    None => Response::Pending,
                },
                None => Response::Unknown { campaign },
            }
        }
        Request::Counters => {
            let state = shared.state.lock().unwrap();
            Response::CounterReport(state.counters)
        }
        Request::Shutdown => {
            let mut state = shared.state.lock().unwrap();
            state.shutdown = true;
            Response::Bye
        }
    }
}

/// Grants the lowest ready pending batch of the lowest-id unfinished
/// campaign, streaming the delta suffix the worker lacks. Grant policy
/// is pure scheduling — any policy merges to the same bytes — but this
/// one keeps campaigns finishing in submission order.
fn grant_lease(shared: &Shared, session: u64, known: &BTreeMap<u64, u64>) -> Response {
    let now = Instant::now();
    let deadline = now + shared.lease_timeout;
    let mut state = shared.state.lock().unwrap();
    let state = &mut *state;
    for c in state.campaigns.values_mut() {
        c.reap(now, &mut state.counters);
    }
    for (&id, c) in state.campaigns.iter_mut() {
        if c.finished.is_some() {
            continue;
        }
        let Some(batch) = c
            .pending
            .iter()
            .copied()
            .find(|&b| c.ledger.ready_for(&c.cfg, b))
        else {
            continue;
        };
        c.pending.remove(&batch);
        c.leases.insert(batch, LeaseInfo { session, deadline });
        state.counters.leases_issued += 1;
        let have = known.get(&id).map_or(0, |&n| n as usize);
        let deltas: Vec<CorpusDelta> = c.deltas[have.min(c.deltas.len())..].to_vec();
        state.counters.deltas_streamed += deltas.len() as u64;
        let config = (!known.contains_key(&id)).then(|| c.cfg.clone());
        return Response::Granted(LeaseGrant {
            campaign: id,
            batch,
            config,
            deltas,
        });
    }
    Response::NoWork
}

/// Accepts one batch completion: publishes its ledger entry, streams it
/// as a delta, tallies status, and merges the campaign when the last
/// batch lands. Duplicate completions (possible after lease re-issue —
/// both executions are byte-identical) are acknowledged and dropped
/// *before* the ledger publish, which would otherwise assert. A
/// finished campaign no longer holds its per-batch outputs (finalize
/// takes them), so completion-after-finalize is detected first, via
/// the `finished` flag — a straggler landing after the merge gets the
/// same stale ack instead of tripping the ledger's publish assert.
fn complete_batch(shared: &Shared, campaign: u64, output: BatchOutput) -> Response {
    let mut state = shared.state.lock().unwrap();
    // Reborrow so `campaigns` and `counters` borrow as disjoint fields.
    let state = &mut *state;
    let Some(c) = state.campaigns.get_mut(&campaign) else {
        return Response::Unknown { campaign };
    };
    let b = output.batch;
    if b >= c.total {
        return Response::Error {
            reason: format!("batch {b} out of range (campaign has {})", c.total),
        };
    }
    if c.finished.is_some() || c.outputs[b].is_some() {
        state.counters.duplicate_completions += 1;
        return Response::Accepted { fresh: false };
    }
    c.leases.remove(&b);
    c.pending.remove(&b);
    c.ledger.publish(b, output.ledger_entry());
    c.deltas.push(CorpusDelta {
        seq: c.deltas.len() as u64,
        batch: b,
        entry: output.ledger_entry(),
    });
    c.iterations += output.iterations;
    c.accepted += output.accepted;
    for (reason, count) in &output.reject_reasons {
        *c.reject_reasons.entry(reason.clone()).or_insert(0) += count;
    }
    c.findings_seen += output.findings.len();
    c.outputs[b] = Some(output);
    c.done += 1;
    state.counters.completions += 1;
    if c.done == c.total {
        finalize_campaign(c, campaign, &state.counters, shared.state_dir.as_deref());
    }
    Response::Accepted { fresh: true }
}

/// Merges a fully completed campaign (re-triaging claim losers — this
/// is where claim outcomes stop mattering), drops its claim set, and
/// persists its stats to the state dir.
fn finalize_campaign(
    c: &mut Campaign,
    id: u64,
    counters: &FabricCounters,
    state_dir: Option<&std::path::Path>,
) {
    let outputs: Vec<BatchOutput> = c.outputs.iter_mut().map(|o| o.take().unwrap()).collect();
    c.claims = HashSet::new();
    let (result, merge_stats) = merge_batches(&c.cfg, outputs);
    let mut registry = Registry::new();
    counters.publish_into(&mut registry);
    registry.add(
        "merge.cross_batch_dupes",
        merge_stats.cross_batch_dupes as u64,
    );
    registry.add("merge.triaged", merge_stats.merge_triaged as u64);
    let stats = result.to_stats(c.cfg.seed, registry);
    if let Some(dir) = state_dir {
        if let Ok(json) = serde_json::to_string_pretty(&stats) {
            std::fs::write(dir.join(format!("campaign-{id}.stats.json")), json + "\n").ok();
        }
    }
    c.finished = Some(Finished {
        stats,
        findings: result.findings,
    });
}
