//! The fabric wire protocol: length-prefixed serde-framed messages.
//!
//! Every connection speaks synchronous request/response RPC: the peer
//! that connected sends one [`Request`] frame and reads one [`Response`]
//! frame, repeatedly. A frame is a 4-byte big-endian length followed by
//! that many bytes of compact JSON (the workspace's deterministic serde
//! encoding — sorted object keys, exact integers, shortest-round-trip
//! floats — so every payload round-trips losslessly).
//!
//! The first request on a connection must be [`Request::Hello`]; the
//! coordinator answers [`Response::Refused`] and drops the connection on
//! a magic or version mismatch, so incompatible peers fail loudly at
//! handshake instead of mysteriously mid-campaign.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde::{Deserialize, Serialize};

use bvf::fuzz::{BatchOutput, CampaignConfig, FindingRecord, LedgerEntry};
use bvf_telemetry::fabric::FabricCounters;
use bvf_telemetry::CampaignStats;

/// Protocol magic exchanged in [`Request::Hello`].
pub const FABRIC_MAGIC: &str = "bvf-fabric";

/// Protocol version; bumped on any frame-shape change.
pub const FABRIC_VERSION: u32 = 3;

/// Hard cap on one frame's body, to bound allocation on a corrupt or
/// hostile length prefix. Corpus-delta grants dominate frame size and
/// stay far below this.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// What a connecting peer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Executes leased batches ([`Request::Lease`] / …`Complete`).
    Worker,
    /// Submits campaigns and polls status/results.
    Client,
}

/// One corpus-exchange ledger entry streamed to a worker, tagged with
/// its global publish sequence number. Per campaign, `seq` values are
/// contiguous from 0 in coordinator publish order; a worker acks the
/// count it has consumed and receives exactly the suffix it lacks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusDelta {
    /// Publish sequence number (position in the coordinator's ledger
    /// stream for the campaign).
    pub seq: u64,
    /// Lease batch that published the entry.
    pub batch: usize,
    /// The published entry itself.
    pub entry: LedgerEntry,
}

/// A granted lease: one batch to execute, plus everything the worker
/// needs to execute it exactly as an in-process worker would.
#[derive(Debug, Serialize, Deserialize)]
pub struct LeaseGrant {
    /// Campaign the batch belongs to.
    pub campaign: u64,
    /// The leased batch id.
    pub batch: usize,
    /// The campaign's full config — present iff the worker's `known`
    /// map did not list the campaign yet (first grant from it).
    pub config: Option<CampaignConfig>,
    /// Corpus deltas published since the worker's acked sequence count,
    /// in publish order. The coordinator only grants batches whose
    /// seed generations have fully published, so after applying these
    /// the worker's mirrored ledger can always build the seed view.
    pub deltas: Vec<CorpusDelta>,
}

/// Live progress of one campaign, served by [`Request::Status`]. The
/// rejection-taxonomy and acceptance tallies fold completed batches
/// only, so they are a deterministic prefix of the final stats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignStatus {
    /// Campaign id.
    pub campaign: u64,
    /// Lease batches in the campaign.
    pub batches_total: usize,
    /// Batches completed so far.
    pub batches_done: usize,
    /// Batches currently leased to workers.
    pub batches_leased: usize,
    /// Iterations executed by completed batches.
    pub iterations: usize,
    /// Programs accepted by completed batches.
    pub accepted: usize,
    /// Typed rejection reason → count over completed batches.
    pub reject_reasons: BTreeMap<String, usize>,
    /// Locally deduplicated findings reported by completed batches.
    pub findings: usize,
    /// Whether the campaign has merged its final result.
    pub complete: bool,
}

/// A client- or worker-initiated frame.
#[derive(Debug, Serialize, Deserialize)]
pub enum Request {
    /// Mandatory first frame: protocol handshake.
    Hello {
        /// Must equal [`FABRIC_MAGIC`].
        magic: String,
        /// Must equal [`FABRIC_VERSION`].
        version: u32,
        /// What this peer is.
        role: Role,
    },
    /// Worker: grant me a batch. `known` maps campaign id → corpus
    /// delta frames already consumed (absent key ⇒ campaign unknown,
    /// so the grant must carry the config).
    Lease {
        /// Campaign id → consumed delta count.
        known: BTreeMap<u64, u64>,
    },
    /// Worker heartbeat: extend the lease on `batch`. Answered with
    /// [`Response::Extended`]; `keep == false` tells the worker its
    /// lease was reaped (it should abandon the batch).
    Extend {
        /// Campaign id.
        campaign: u64,
        /// Leased batch id.
        batch: usize,
    },
    /// Worker: claim a finding signature in the campaign's claim set
    /// (the remote [`GlobalDedup`]). An unknown campaign is answered
    /// with [`Response::Unknown`].
    ///
    /// [`GlobalDedup`]: bvf::fuzz::GlobalDedup
    Claim {
        /// Campaign id.
        campaign: u64,
        /// The finding's dedup signature.
        signature: String,
    },
    /// Worker: a leased batch finished; here is its full output.
    Complete {
        /// Campaign id.
        campaign: u64,
        /// The batch's self-contained output.
        output: BatchOutput,
    },
    /// Client: run this campaign.
    Submit {
        /// The complete, generation-determining campaign config.
        config: CampaignConfig,
    },
    /// Client: progress of a campaign.
    Status {
        /// Campaign id.
        campaign: u64,
    },
    /// Client: final merged result of a campaign.
    FetchResult {
        /// Campaign id.
        campaign: u64,
    },
    /// Client: coordinator scheduling counters.
    Counters,
    /// Client: stop accepting connections and exit the serve loop.
    Shutdown,
}

/// A coordinator reply frame.
#[derive(Debug, Serialize, Deserialize)]
pub enum Response {
    /// Handshake accepted.
    Welcome {
        /// The coordinator's protocol version (== the peer's, once
        /// welcomed).
        version: u32,
        /// This connection's session id.
        session: u64,
        /// The coordinator's lease timeout in milliseconds. Workers
        /// derive their wall-clock heartbeat cadence from this (a
        /// third of the window), so slow batch steps cannot silently
        /// outlive a lease however the coordinator is tuned.
        lease_timeout_ms: u64,
    },
    /// Handshake rejected; the connection is closed after this frame.
    Refused {
        /// Human-readable mismatch description.
        reason: String,
    },
    /// A lease was granted.
    Granted(LeaseGrant),
    /// No batch is currently grantable (all leased, blocked on
    /// unpublished generations, or no campaign submitted yet). The
    /// worker should back off briefly and ask again.
    NoWork,
    /// Answer to [`Request::Extend`].
    Extended {
        /// Whether the worker still holds the lease.
        keep: bool,
    },
    /// Answer to [`Request::Claim`].
    Claimed {
        /// Whether this claim was the first for the signature in its
        /// campaign.
        first: bool,
    },
    /// Answer to [`Request::Complete`].
    Accepted {
        /// `false` iff the batch had already completed (duplicate from
        /// a reaped lease); the output was ignored.
        fresh: bool,
    },
    /// Answer to [`Request::Submit`].
    Submitted {
        /// The new campaign's id.
        campaign: u64,
    },
    /// Answer to [`Request::Status`].
    StatusReport(CampaignStatus),
    /// Answer to [`Request::FetchResult`] once the campaign merged.
    ResultReady {
        /// The campaign's schema-v2 stats, byte-identical (modulo
        /// observational `metrics`) to a local run of the same config.
        stats: CampaignStats,
        /// The merged, deduplicated, triaged findings.
        findings: Vec<FindingRecord>,
    },
    /// Answer to [`Request::FetchResult`] while batches are still
    /// outstanding.
    Pending,
    /// Answer to [`Request::Counters`].
    CounterReport(FabricCounters),
    /// The named campaign does not exist.
    Unknown {
        /// The id that failed to resolve.
        campaign: u64,
    },
    /// Acknowledges [`Request::Shutdown`].
    Bye,
    /// The request could not be served (e.g. a completion for a batch
    /// id beyond the campaign).
    Error {
        /// Human-readable failure description.
        reason: String,
    },
}

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    let body = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode failed: {e}")))?;
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one length-prefixed frame. EOF before the length prefix
/// surfaces as [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> io::Result<T> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_be_bytes(len4) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    // Read through `take` rather than into a `len`-sized buffer: the
    // allocation grows with the bytes that actually arrive, so a bare
    // length prefix cannot make the reader reserve `MAX_FRAME_LEN`.
    let mut buf = Vec::new();
    r.by_ref().take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame body ended after {} of {len} bytes", buf.len()),
        ));
    }
    let text = std::str::from_utf8(&buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame did not decode: {e}"),
        )
    })
}

/// One framed TCP connection. Reads are buffered; every [`send`] ends
/// with a flush, so a request/response exchange never stalls in a
/// buffer.
///
/// [`send`]: FrameConn::send
pub struct FrameConn {
    reader: io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl FrameConn {
    /// Connects to a coordinator address.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<FrameConn> {
        FrameConn::from_stream(TcpStream::connect(addr)?)
    }

    /// Wraps an accepted stream.
    pub fn from_stream(stream: TcpStream) -> io::Result<FrameConn> {
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(FrameConn {
            reader: io::BufReader::new(stream),
            writer,
        })
    }

    /// Sends one frame.
    pub fn send<T: Serialize>(&mut self, msg: &T) -> io::Result<()> {
        write_frame(&mut self.writer, msg)
    }

    /// Receives one frame.
    pub fn recv<T: Deserialize>(&mut self) -> io::Result<T> {
        read_frame(&mut self.reader)
    }

    /// One synchronous RPC round-trip.
    pub fn rpc(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let req = Request::Lease {
            known: BTreeMap::from([(1, 4), (2, 0)]),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: Request = read_frame(&mut buf.as_slice()).unwrap();
        // No PartialEq on Request (it carries BatchOutput); compare the
        // canonical encodings, which are deterministic.
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&req).unwrap()
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"junk");
        let err = read_frame::<_, Request>(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Shutdown).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame::<_, Request>(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // A header claiming the largest legal body, followed by a short
        // one, is a truncation too.
        let mut buf = (MAX_FRAME_LEN as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"{}");
        let err = read_frame::<_, Request>(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
