//! The summa-serve wire protocol: length-prefixed, versioned, binary.
//!
//! Every message on the wire is one **frame**: a little-endian `u32`
//! payload length followed by that many payload bytes. Frames longer
//! than [`MAX_FRAME`] are rejected before allocation. [`write_frame`]
//! hands the prefix and the payload to the socket in one vectored
//! write, so with `TCP_NODELAY` a frame the socket takes whole leaves
//! as one segment; [`read_frame`] still accepts a frame split anywhere.
//! Inside a frame:
//!
//! ```text
//! request  := version:u8 op:u8 request_id:u64 tenant:str op-body
//! response := version:u8 status:u8 request_id:u64 elapsed_ns:u64
//!             trace_id:u64 epoch:u64 served:u8 spend:6×u64
//!             body_len:u32 body
//! spend    := steps peak_memory cache_hits cache_misses retries quarantined
//! str      := len:u32 utf8-bytes
//! ```
//!
//! All integers are little-endian. The response **header** carries the
//! fields that legitimately vary run-to-run: wall-clock, trace handle,
//! snapshot epoch, the [`SERVED_PROVER`]/[`SERVED_INDEX`]/
//! [`SERVED_CACHE`] marker saying which machinery answered, and —
//! since protocol version 2 — the `Spend` counters, which the warm
//! path legitimately shifts (an index hit proves nothing; a shared
//! cache converts misses into hits). The response **body** is fully
//! deterministic: for a given snapshot, request, and request budget it
//! is byte-identical to the direct library call (see [`crate::ops`]),
//! warm or cold. The conformance suites compare bodies, not headers.
//!
//! An OK body is a governed result:
//!
//! ```text
//! ok-body  := outcome:u8 reason:u8 has_payload:u8 payload
//! ```
//!
//! `Spend.elapsed` is deliberately *not* serialized in the spend block
//! — it is the one always-nondeterministic spend field, and it already
//! travels in the header as `elapsed_ns`.
//!
//! Error bodies are typed, never free-form disconnects:
//!
//! ```text
//! protocol-error-body := code:u16 message:str     (status = 1)
//! overload-body       := code:u16 detail:str      (status = 2)
//! engine-error-body   := message:str              (status = 3)
//! ```

use std::io::{self, IoSlice, Read, Write};
use summa_guard::Spend;

/// Protocol version understood by this build. Version 2 moved the
/// `Spend` block out of the OK body into the response header and added
/// the header `served` marker; version-1 frames are answered with a
/// typed [`ProtoError::BadVersion`], never a disconnect.
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard ceiling on frame payloads (1 MiB). A length prefix above this
/// is rejected *before* any allocation, so a hostile 4 GiB length
/// cannot balloon memory.
pub const MAX_FRAME: u32 = 1 << 20;

/// Longest tenant id a request may carry, in bytes. The server keeps
/// one admission record per distinct id for its lifetime, so the id
/// is bounded here; the number of distinct ids is not.
pub const MAX_TENANT: usize = 256;

/// Response statuses.
pub const STATUS_OK: u8 = 0;
pub const STATUS_PROTOCOL_ERROR: u8 = 1;
pub const STATUS_OVERLOADED: u8 = 2;
pub const STATUS_ENGINE_ERROR: u8 = 3;

/// Governed-outcome codes inside an OK body.
pub const OUTCOME_COMPLETED: u8 = 0;
pub const OUTCOME_EXHAUSTED: u8 = 1;
pub const OUTCOME_CANCELLED: u8 = 2;

/// Exhaustion-reason codes (`REASON_NONE` for completed/cancelled).
pub const REASON_NONE: u8 = 0xFF;
pub const REASON_STEPS: u8 = 0;
pub const REASON_DEADLINE: u8 = 1;
pub const REASON_MEMORY: u8 = 2;
pub const REASON_FAULT: u8 = 3;
pub const REASON_TASK_FAILURE: u8 = 4;

/// Header `served` marker: which machinery produced the answer. The
/// body bytes are identical whichever one ran — the marker exists so
/// clients and benches can attribute latency, not semantics.
pub const SERVED_PROVER: u8 = 0;
/// Answered from the snapshot's precomputed
/// [`HierarchyIndex`](summa_dl::index::HierarchyIndex) — zero tableau
/// calls.
pub const SERVED_INDEX: u8 = 1;
/// Proved, but against the snapshot's epoch-shared `SatCache`.
pub const SERVED_CACHE: u8 = 2;

/// Version of the `Telemetry` op's body layout. Bumped independently
/// of [`PROTOCOL_VERSION`] so scrape tooling can evolve without
/// forcing a protocol-wide break; the response body leads with it.
pub const TELEMETRY_VERSION: u8 = 1;

/// `Telemetry` payload formats.
pub const TELEMETRY_FORMAT_PROMETHEUS: u8 = 0;
pub const TELEMETRY_FORMAT_CHROME_SLOWLOG: u8 = 1;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    Ping = 0,
    Subsumes = 1,
    Classify = 2,
    Realize = 3,
    Admit = 4,
    Critique = 5,
    LoadSnapshot = 6,
    Stats = 7,
    Telemetry = 8,
}

impl Op {
    pub fn from_u8(b: u8) -> Option<Op> {
        Some(match b {
            0 => Op::Ping,
            1 => Op::Subsumes,
            2 => Op::Classify,
            3 => Op::Realize,
            4 => Op::Admit,
            5 => Op::Critique,
            6 => Op::LoadSnapshot,
            7 => Op::Stats,
            8 => Op::Telemetry,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Subsumes => "subsumes",
            Op::Classify => "classify",
            Op::Realize => "realize",
            Op::Admit => "admit",
            Op::Critique => "critique",
            Op::LoadSnapshot => "load_snapshot",
            Op::Stats => "stats",
            Op::Telemetry => "telemetry",
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Ping,
    /// Does `sub ⊑ sup` hold under the named snapshot's TBox? The
    /// concept expressions use the [`summa_dl::parser`] grammar.
    Subsumes {
        snapshot: String,
        sub: String,
        sup: String,
    },
    /// Classify the named snapshot's TBox.
    Classify {
        snapshot: String,
    },
    /// Realize an ABox (one assertion per line, see
    /// [`crate::ops::parse_abox`]) against the named snapshot.
    Realize {
        snapshot: String,
        abox: String,
    },
    /// Judge one corpus artifact under one named definition.
    Admit {
        artifact: String,
        definition: String,
    },
    /// Run the full syntactic admission matrix.
    Critique,
    /// Parse `axioms` (one `C < D` / `C = D` axiom per line) and
    /// install it under `name`, bumping the store epoch. In-flight
    /// queries keep the snapshot they started with.
    LoadSnapshot {
        name: String,
        axioms: String,
    },
    /// Server counters (admin; not part of the conformance surface).
    Stats,
    /// Scrape the telemetry plane (admin). `format` selects the
    /// payload: [`TELEMETRY_FORMAT_PROMETHEUS`] for the text
    /// exposition, [`TELEMETRY_FORMAT_CHROME_SLOWLOG`] for a
    /// Chrome-trace JSON dump of the slow-query log. Unknown formats
    /// answer with a typed protocol error.
    Telemetry {
        format: u8,
    },
}

impl Request {
    pub fn op(&self) -> Op {
        match self {
            Request::Ping => Op::Ping,
            Request::Subsumes { .. } => Op::Subsumes,
            Request::Classify { .. } => Op::Classify,
            Request::Realize { .. } => Op::Realize,
            Request::Admit { .. } => Op::Admit,
            Request::Critique => Op::Critique,
            Request::LoadSnapshot { .. } => Op::LoadSnapshot,
            Request::Stats => Op::Stats,
            Request::Telemetry { .. } => Op::Telemetry,
        }
    }
}

/// A request plus its routing envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    pub id: u64,
    pub tenant: String,
    pub request: Request,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub id: u64,
    pub status: u8,
    /// Server-side wall-clock for this request, nanoseconds.
    pub elapsed_ns: u64,
    /// Handle correlating this response with the server's trace spans.
    pub trace_id: u64,
    /// Epoch of the snapshot the answer was computed against (0 when
    /// no snapshot was involved).
    pub epoch: u64,
    /// Which machinery answered ([`SERVED_PROVER`], [`SERVED_INDEX`],
    /// [`SERVED_CACHE`]); varies warm-vs-cold by design.
    pub served: u8,
    /// The request's spend counters. Header, not body: the warm path
    /// legitimately changes them (fewer steps on an index hit, hits
    /// instead of misses against the shared cache). `elapsed` is not
    /// carried here — it travels as `elapsed_ns`; decoding leaves it
    /// zero.
    pub spend: Spend,
    /// Deterministic body bytes (governed result or typed error).
    pub body: Vec<u8>,
}

/// Typed protocol errors. Every malformed input maps to exactly one of
/// these; the server answers with it (status [`STATUS_PROTOCOL_ERROR`])
/// rather than disconnecting, except where the stream itself can no
/// longer be re-synchronized (oversize/truncated frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    BadVersion(u8),
    BadOp(u8),
    /// Structurally invalid payload (short reads, trailing garbage…).
    Malformed(&'static str),
    Oversize(u32),
    Truncated,
    BadUtf8,
    UnknownSnapshot(String),
    UnknownArtifact(String),
    UnknownDefinition(String),
    /// Concept/axiom/ABox text failed to parse; carries the parser's
    /// deterministic message.
    ParseError(String),
}

impl ProtoError {
    pub fn code(&self) -> u16 {
        match self {
            ProtoError::BadVersion(_) => 1,
            ProtoError::BadOp(_) => 2,
            ProtoError::Malformed(_) => 3,
            ProtoError::Oversize(_) => 4,
            ProtoError::Truncated => 5,
            ProtoError::BadUtf8 => 6,
            ProtoError::UnknownSnapshot(_) => 7,
            ProtoError::UnknownArtifact(_) => 8,
            ProtoError::UnknownDefinition(_) => 9,
            ProtoError::ParseError(_) => 10,
        }
    }

    pub fn message(&self) -> String {
        match self {
            ProtoError::BadVersion(v) => format!("unsupported protocol version {v}"),
            ProtoError::BadOp(b) => format!("unknown opcode {b}"),
            ProtoError::Malformed(what) => format!("malformed frame: {what}"),
            ProtoError::Oversize(n) => format!("frame length {n} exceeds {MAX_FRAME}"),
            ProtoError::Truncated => "frame truncated mid-payload".to_string(),
            ProtoError::BadUtf8 => "string field is not valid UTF-8".to_string(),
            ProtoError::UnknownSnapshot(n) => format!("unknown snapshot: {n}"),
            ProtoError::UnknownArtifact(n) => format!("unknown artifact: {n}"),
            ProtoError::UnknownDefinition(n) => format!("unknown definition: {n}"),
            ProtoError::ParseError(m) => format!("parse error: {m}"),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message())
    }
}

/// Overload rejections — backpressure made explicit and typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Overload {
    /// The bounded request queue is full.
    QueueFull = 1,
    /// The tenant has too many requests in flight.
    TenantBusy = 2,
    /// The tenant spent its step quota.
    QuotaExhausted = 3,
    /// The server is draining; it finishes admitted work but takes no
    /// more.
    Draining = 4,
}

impl Overload {
    pub fn from_u16(c: u16) -> Option<Overload> {
        Some(match c {
            1 => Overload::QueueFull,
            2 => Overload::TenantBusy,
            3 => Overload::QuotaExhausted,
            4 => Overload::Draining,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Overload::QueueFull => "queue_full",
            Overload::TenantBusy => "tenant_busy",
            Overload::QuotaExhausted => "quota_exhausted",
            Overload::Draining => "draining",
        }
    }
}

// ---------------------------------------------------------------------
// Primitive put/get
// ---------------------------------------------------------------------

pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Serialize the six deterministic spend fields (`elapsed` travels in
/// the response header instead — it is wall-clock).
pub fn put_spend(buf: &mut Vec<u8>, s: &Spend) {
    put_u64(buf, s.steps);
    put_u64(buf, s.peak_memory);
    put_u64(buf, s.cache_hits);
    put_u64(buf, s.cache_misses);
    put_u64(buf, s.retries);
    put_u64(buf, s.quarantined);
}

/// Bounds-checked reader over a frame payload. Every decode failure is
/// a typed [`ProtoError`], never a panic or an out-of-bounds read.
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Malformed("field extends past frame end"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        // The declared length is bounded by what the frame actually
        // holds — a hostile length cannot trigger a huge allocation.
        if len > self.remaining() {
            return Err(ProtoError::Malformed("string length exceeds frame"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    pub fn spend(&mut self) -> Result<Spend, ProtoError> {
        Ok(Spend {
            steps: self.u64()?,
            peak_memory: self.u64()?,
            cache_hits: self.u64()?,
            cache_misses: self.u64()?,
            retries: self.u64()?,
            quarantined: self.u64()?,
            ..Spend::default()
        })
    }

    pub fn expect_end(&self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::Malformed("trailing bytes after message"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------

/// Encode a request envelope into a frame payload (no length prefix).
pub fn encode_request(env: &Envelope) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(PROTOCOL_VERSION);
    buf.push(env.request.op() as u8);
    put_u64(&mut buf, env.id);
    put_str(&mut buf, &env.tenant);
    match &env.request {
        Request::Ping | Request::Critique | Request::Stats => {}
        Request::Subsumes { snapshot, sub, sup } => {
            put_str(&mut buf, snapshot);
            put_str(&mut buf, sub);
            put_str(&mut buf, sup);
        }
        Request::Classify { snapshot } => put_str(&mut buf, snapshot),
        Request::Realize { snapshot, abox } => {
            put_str(&mut buf, snapshot);
            put_str(&mut buf, abox);
        }
        Request::Admit {
            artifact,
            definition,
        } => {
            put_str(&mut buf, artifact);
            put_str(&mut buf, definition);
        }
        Request::LoadSnapshot { name, axioms } => {
            put_str(&mut buf, name);
            put_str(&mut buf, axioms);
        }
        Request::Telemetry { format } => buf.push(*format),
    }
    buf
}

/// Decode a request frame payload. On failure returns the typed error
/// plus the best-effort request id recovered from the frame (0 when
/// the id field itself was unreadable), so the error response can
/// still be correlated.
pub fn decode_request(payload: &[u8]) -> Result<Envelope, (ProtoError, u64)> {
    let mut r = FrameReader::new(payload);
    let version = r.u8().map_err(|e| (e, 0))?;
    if version != PROTOCOL_VERSION {
        return Err((ProtoError::BadVersion(version), 0));
    }
    let op_byte = r.u8().map_err(|e| (e, 0))?;
    let id = r.u64().map_err(|e| (e, 0))?;
    let op = Op::from_u8(op_byte).ok_or((ProtoError::BadOp(op_byte), id))?;
    let tenant = r.str().map_err(|e| (e, id))?;
    if tenant.len() > MAX_TENANT {
        return Err((ProtoError::Malformed("tenant id longer than 256 bytes"), id));
    }
    let request = (|| -> Result<Request, ProtoError> {
        Ok(match op {
            Op::Ping => Request::Ping,
            Op::Critique => Request::Critique,
            Op::Stats => Request::Stats,
            Op::Subsumes => Request::Subsumes {
                snapshot: r.str()?,
                sub: r.str()?,
                sup: r.str()?,
            },
            Op::Classify => Request::Classify { snapshot: r.str()? },
            Op::Realize => Request::Realize {
                snapshot: r.str()?,
                abox: r.str()?,
            },
            Op::Admit => Request::Admit {
                artifact: r.str()?,
                definition: r.str()?,
            },
            Op::LoadSnapshot => Request::LoadSnapshot {
                name: r.str()?,
                axioms: r.str()?,
            },
            Op::Telemetry => Request::Telemetry { format: r.u8()? },
        })
    })()
    .map_err(|e| (e, id))?;
    r.expect_end().map_err(|e| (e, id))?;
    Ok(Envelope {
        id,
        tenant,
        request,
    })
}

// ---------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------

/// Encode a response into a frame payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(PROTOCOL_VERSION);
    buf.push(resp.status);
    put_u64(&mut buf, resp.id);
    put_u64(&mut buf, resp.elapsed_ns);
    put_u64(&mut buf, resp.trace_id);
    put_u64(&mut buf, resp.epoch);
    buf.push(resp.served);
    put_spend(&mut buf, &resp.spend);
    put_u32(&mut buf, resp.body.len() as u32);
    buf.extend_from_slice(&resp.body);
    buf
}

/// Decode a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut r = FrameReader::new(payload);
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let status = r.u8()?;
    let id = r.u64()?;
    let elapsed_ns = r.u64()?;
    let trace_id = r.u64()?;
    let epoch = r.u64()?;
    let served = r.u8()?;
    let spend = r.spend()?;
    let body_len = r.u32()? as usize;
    if body_len != r.remaining() {
        return Err(ProtoError::Malformed("body length mismatch"));
    }
    let body = r.take(body_len)?.to_vec();
    Ok(Response {
        id,
        status,
        elapsed_ns,
        trace_id,
        epoch,
        served,
        spend,
        body,
    })
}

/// Body of a [`STATUS_PROTOCOL_ERROR`] response.
pub fn protocol_error_body(e: &ProtoError) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u16(&mut buf, e.code());
    put_str(&mut buf, &e.message());
    buf
}

/// Body of a [`STATUS_OVERLOADED`] response.
pub fn overload_body(o: Overload, detail: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u16(&mut buf, o as u16);
    put_str(&mut buf, detail);
    buf
}

/// Body of a [`STATUS_ENGINE_ERROR`] response.
pub fn engine_error_body(msg: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, msg);
    buf
}

// ---------------------------------------------------------------------
// Decoded body views (client/test side)
// ---------------------------------------------------------------------

/// Decoded op-specific payload of an OK body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    Pong,
    /// `Some(holds)` when decided; partial-free ops carry no payload
    /// when interrupted.
    Subsumes(bool),
    /// `(concept, subsumers)` rows in vocabulary order.
    Hierarchy(Vec<(String, Vec<String>)>),
    /// `(individual, types, most_specific)` rows in ABox order;
    /// undecided individuals are absent.
    Realization(Vec<(String, Vec<String>, Vec<String>)>),
    /// One admission judgment.
    Judgment {
        verdict: u8,
        reason: String,
    },
    /// The full admission matrix.
    Matrix {
        definitions: Vec<String>,
        rows: Vec<(String, Vec<(u8, String)>)>,
    },
    /// Acknowledgement of a snapshot install.
    SnapshotInstalled {
        name: String,
        fingerprint: u64,
        atoms: u64,
    },
    /// Server counters.
    Stats(Vec<(String, u64)>),
    /// A telemetry scrape: body-layout version, the format that was
    /// requested, and the rendered text (Prometheus exposition or
    /// Chrome-trace JSON depending on `format`).
    Telemetry {
        version: u8,
        format: u8,
        text: String,
    },
}

/// Decoded OK body: governed outcome + payload. Spend is **not** here
/// — since protocol version 2 it rides in the response header
/// ([`Response::spend`]), keeping bodies byte-identical warm-vs-cold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OkBody {
    pub outcome: u8,
    pub reason: u8,
    pub payload: Option<Payload>,
}

/// Build an OK body: governed outcome, reason and optional payload,
/// the `ok-body` layout of the module docs. Since protocol v2 the
/// spend rides in the response header, so bodies for matching answers
/// are byte-identical warm-vs-cold.
pub fn ok_body(outcome: u8, reason: u8, payload: Option<Vec<u8>>) -> Vec<u8> {
    let mut buf = vec![outcome, reason];
    match payload {
        None => buf.push(0),
        Some(p) => {
            buf.push(1);
            buf.extend_from_slice(&p);
        }
    }
    buf
}

/// Decode an OK body for the given op.
pub fn decode_ok_body(op: Op, body: &[u8]) -> Result<OkBody, ProtoError> {
    let mut r = FrameReader::new(body);
    let outcome = r.u8()?;
    let reason = r.u8()?;
    let has_payload = r.u8()?;
    let payload = if has_payload == 0 {
        None
    } else {
        Some(match op {
            Op::Ping => Payload::Pong,
            Op::Subsumes => Payload::Subsumes(r.u8()? != 0),
            Op::Classify => {
                let n = r.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let name = r.str()?;
                    let m = r.u32()? as usize;
                    let mut subs = Vec::with_capacity(m.min(4096));
                    for _ in 0..m {
                        subs.push(r.str()?);
                    }
                    rows.push((name, subs));
                }
                Payload::Hierarchy(rows)
            }
            Op::Realize => {
                let n = r.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let name = r.str()?;
                    let read_names = |r: &mut FrameReader| -> Result<Vec<String>, ProtoError> {
                        let m = r.u32()? as usize;
                        let mut out = Vec::with_capacity(m.min(4096));
                        for _ in 0..m {
                            out.push(r.str()?);
                        }
                        Ok(out)
                    };
                    let types = read_names(&mut r)?;
                    let most_specific = read_names(&mut r)?;
                    rows.push((name, types, most_specific));
                }
                Payload::Realization(rows)
            }
            Op::Admit => Payload::Judgment {
                verdict: r.u8()?,
                reason: r.str()?,
            },
            Op::Critique => {
                let nd = r.u32()? as usize;
                let mut definitions = Vec::with_capacity(nd.min(4096));
                for _ in 0..nd {
                    definitions.push(r.str()?);
                }
                let na = r.u32()? as usize;
                let mut rows = Vec::with_capacity(na.min(4096));
                for _ in 0..na {
                    let artifact = r.str()?;
                    let mut cells = Vec::with_capacity(nd);
                    for _ in 0..nd {
                        cells.push((r.u8()?, r.str()?));
                    }
                    rows.push((artifact, cells));
                }
                Payload::Matrix { definitions, rows }
            }
            Op::LoadSnapshot => Payload::SnapshotInstalled {
                name: r.str()?,
                fingerprint: r.u64()?,
                atoms: r.u64()?,
            },
            Op::Stats => {
                let n = r.u32()? as usize;
                let mut entries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    entries.push((r.str()?, r.u64()?));
                }
                Payload::Stats(entries)
            }
            Op::Telemetry => Payload::Telemetry {
                version: r.u8()?,
                format: r.u8()?,
                text: r.str()?,
            },
        })
    };
    r.expect_end()?;
    Ok(OkBody {
        outcome,
        reason,
        payload,
    })
}

/// Decode a protocol-error body into `(code, message)`.
pub fn decode_protocol_error(body: &[u8]) -> Result<(u16, String), ProtoError> {
    let mut r = FrameReader::new(body);
    let code = r.u16()?;
    let msg = r.str()?;
    r.expect_end()?;
    Ok((code, msg))
}

/// Decode an overload body into `(kind, detail)`.
pub fn decode_overload(body: &[u8]) -> Result<(Overload, String), ProtoError> {
    let mut r = FrameReader::new(body);
    let code = r.u16()?;
    let kind = Overload::from_u16(code).ok_or(ProtoError::Malformed("unknown overload code"))?;
    let detail = r.str()?;
    r.expect_end()?;
    Ok((kind, detail))
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Why a frame could not be read off the stream.
#[derive(Debug)]
pub enum FrameError {
    Io(io::Error),
    /// Declared length exceeds [`MAX_FRAME`]. The stream cannot be
    /// re-synchronized after this (the declared bytes were never
    /// read), so the peer sends one typed error and closes.
    Oversize(u32),
    /// The stream ended mid-payload.
    Truncated,
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(e) => e,
            FrameError::Oversize(n) => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("oversize frame ({n} bytes)"),
            ),
            FrameError::Truncated => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "truncated frame")
            }
        }
    }
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (EOF exactly at
/// a frame boundary).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None); // clean EOF at frame boundary
                }
                return Err(FrameError::Truncated);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(FrameError::Oversize(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// Write one frame (length prefix + payload) in one vectored write, so
/// a socket that takes the frame whole costs one system call and, under
/// `TCP_NODELAY`, one segment: a prefix written on its own would leave
/// as a segment of its own and wake the reader for four bytes it
/// cannot use. A short write resumes where it stopped.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u32 <= MAX_FRAME);
    let prefix = (payload.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for req in [
            Request::Ping,
            Request::Subsumes {
                snapshot: "vehicles".into(),
                sub: "car".into(),
                sup: "motorvehicle".into(),
            },
            Request::Classify {
                snapshot: "animals".into(),
            },
            Request::Realize {
                snapshot: "vehicles".into(),
                abox: "beetle : car".into(),
            },
            Request::Admit {
                artifact: "vehicles-tbox".into(),
                definition: "gruber".into(),
            },
            Request::Critique,
            Request::LoadSnapshot {
                name: "tiny".into(),
                axioms: "a < b".into(),
            },
            Request::Stats,
            Request::Telemetry {
                format: TELEMETRY_FORMAT_PROMETHEUS,
            },
            Request::Telemetry {
                format: TELEMETRY_FORMAT_CHROME_SLOWLOG,
            },
        ] {
            let env = Envelope {
                id: 42,
                tenant: "t0".into(),
                request: req,
            };
            let bytes = encode_request(&env);
            let back = decode_request(&bytes).expect("round trip");
            assert_eq!(back, env);
        }
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            id: 7,
            status: STATUS_OK,
            elapsed_ns: 123,
            trace_id: 9,
            epoch: 3,
            served: SERVED_INDEX,
            spend: Spend {
                steps: 11,
                peak_memory: 5,
                cache_hits: 2,
                cache_misses: 1,
                retries: 0,
                quarantined: 0,
                ..Spend::default()
            },
            body: vec![1, 2, 3],
        };
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes).expect("round trip"), resp);
    }

    #[test]
    fn v1_response_frames_are_rejected_as_bad_version() {
        let resp = Response {
            id: 7,
            status: STATUS_OK,
            elapsed_ns: 0,
            trace_id: 0,
            epoch: 0,
            served: SERVED_PROVER,
            spend: Spend::default(),
            body: vec![],
        };
        let mut bytes = encode_response(&resp);
        bytes[0] = 1; // the pre-served/spend header layout
        assert!(matches!(
            decode_response(&bytes),
            Err(ProtoError::BadVersion(1))
        ));
    }

    #[test]
    fn bad_version_and_op_are_typed() {
        let env = Envelope {
            id: 5,
            tenant: "t".into(),
            request: Request::Ping,
        };
        let mut bytes = encode_request(&env);
        bytes[0] = 99;
        assert!(matches!(
            decode_request(&bytes),
            Err((ProtoError::BadVersion(99), 0))
        ));
        let mut bytes = encode_request(&env);
        bytes[1] = 200;
        // The id is still recovered for correlation.
        assert!(matches!(
            decode_request(&bytes),
            Err((ProtoError::BadOp(200), 5))
        ));
    }

    #[test]
    fn hostile_string_length_is_rejected_without_allocation() {
        // ping frame with the tenant length patched to 4 GiB-ish.
        let env = Envelope {
            id: 1,
            tenant: "abcd".into(),
            request: Request::Ping,
        };
        let mut bytes = encode_request(&env);
        let len_at = 1 + 1 + 8; // version + op + id
        bytes[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&bytes),
            Err((ProtoError::Malformed(_), 1))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let env = Envelope {
            id: 1,
            tenant: "t".into(),
            request: Request::Ping,
        };
        let mut bytes = encode_request(&env);
        bytes.push(0xAB);
        assert!(matches!(
            decode_request(&bytes),
            Err((ProtoError::Malformed(_), 1))
        ));
    }

    #[test]
    fn frames_round_trip_and_oversize_is_refused() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversize(_))
        ));

        // Truncated payload: the length promises more than arrives.
        let mut bytes = 10u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Truncated)
        ));
    }

    /// A `Write` that takes at most `max` bytes per call, across the
    /// slices of a vectored write in order, and counts its calls.
    struct Sink {
        max: usize,
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Sink {
        fn new(max: usize) -> Sink {
            Sink {
                max,
                calls: 0,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.max - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn a_frame_is_one_write_when_the_sink_takes_it_whole() {
        let mut sink = Sink::new(usize::MAX);
        let payloads: [&[u8]; 3] = [b"hello", &[7; 1000], b""];
        let mut expected = Vec::new();
        for (i, payload) in payloads.into_iter().enumerate() {
            write_frame(&mut sink, payload).unwrap();
            assert_eq!(sink.calls, i + 1, "one call per frame");
            expected.extend(framed(payload));
        }
        assert_eq!(sink.bytes, expected);
    }

    #[test]
    fn short_writes_resume_where_they_stopped() {
        let payload = b"subsumes car motorvehicle";
        // 1 and 3 bytes per call take part of the prefix; 5 takes the
        // prefix and one payload byte.
        for max in [1, 3, 5] {
            let mut sink = Sink::new(max);
            write_frame(&mut sink, payload).unwrap();
            assert_eq!(sink.bytes, framed(payload), "at most {max} bytes a call");
            assert_eq!(sink.calls, (4 + payload.len()).div_ceil(max));
        }
    }

    #[test]
    fn an_empty_payload_writes_the_prefix_alone() {
        let mut sink = Sink::new(usize::MAX);
        write_frame(&mut sink, b"").unwrap();
        assert_eq!(sink.bytes, 0u32.to_le_bytes());
        assert_eq!(sink.calls, 1);
    }

    #[test]
    fn spend_serialization_skips_elapsed() {
        use std::time::Duration;
        let mut a = Spend {
            steps: 3,
            peak_memory: 9,
            cache_hits: 2,
            cache_misses: 4,
            retries: 1,
            quarantined: 0,
            elapsed: Duration::from_millis(5),
        };
        let mut buf = Vec::new();
        put_spend(&mut buf, &a);
        let mut r = FrameReader::new(&buf);
        let back = r.spend().unwrap();
        // elapsed is not on the wire; zero it for the comparison.
        a.elapsed = Duration::ZERO;
        assert_eq!(back, a);
        assert_eq!(buf.len(), 48);
    }
}
