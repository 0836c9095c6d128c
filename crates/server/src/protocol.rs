//! Length-prefixed binary wire protocol for the network front door.
//!
//! Every wire frame is a `u32` little-endian payload length followed by
//! the payload: one tag byte and a fixed, versioned field layout. The
//! codec is hand-rolled (the build has no registry access) and hardened
//! against adversarial bytes: **no input byte stream may panic the
//! decoder** — every malformation maps to a typed [`ProtocolError`],
//! and count fields are checked against the bytes actually present
//! before any allocation, so a forged `n = u32::MAX` cannot balloon
//! memory.
//!
//! The geometry side matters too: `Trajectory::new` *asserts* on
//! non-finite times, non-increasing keys, and empty windows, so
//! [`HelloSpec`] validation happens here, at decode time, and a decoded
//! `Hello` is safe to hand to the serving core as-is.
//!
//! Flow control is application-level **credit**: the server only sends
//! `Delta` frames while the client has granted credit (`Hello.credit`
//! plus later `Credit` messages), one unit per delta. This keeps the
//! slow-reader policy deterministic — a stalled client is one that
//! stops granting credit, regardless of how much the kernel's socket
//! buffers happen to absorb.

use mobiquery::{SessionKind, SessionPlan, SessionSpec, Trajectory};
use mobiquery::trajectory::KeySnapshot;
use stkit::Rect;

/// Protocol version carried by every `Hello`.
pub const PROTO_VERSION: u16 = 1;

/// Default cap on one wire frame's payload length.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Most trajectory key snapshots one `Hello` may carry.
pub const MAX_KEYS: usize = 4096;

/// Most frame times one `Hello` may carry.
pub const MAX_FRAME_TIMES: usize = 65_536;

// Message tags. Client→server tags have the high bit clear,
// server→client tags have it set.
const TAG_HELLO: u8 = 0x01;
const TAG_CREDIT: u8 = 0x02;
const TAG_BYE: u8 = 0x03;
const TAG_ADMITTED: u8 = 0x81;
const TAG_REJECTED: u8 = 0x82;
const TAG_DELTA: u8 = 0x83;
const TAG_DONE: u8 = 0x84;
const TAG_EVICTED: u8 = 0x85;

/// Why the admission controller refused a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The caller's per-IP session cap is already used up.
    Busy,
    /// The server-wide live-session cap is reached.
    Overloaded,
}

/// Why the server evicted a session, as reported in `Evicted`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictReason {
    /// The client granted no credit for its next delta, or its socket
    /// took none of it, for a whole write deadline: it stopped granting
    /// credit (or stopped reading).
    SlowReader,
    /// The socket disconnected (EOF, reset, or a half-open peer) while
    /// the session was still being served.
    Disconnected,
    /// The client sent bytes that failed protocol decoding.
    Protocol,
}

/// How a served session ended, as reported in `Done`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoneOutcome {
    /// Every frame completed cleanly.
    Ok,
    /// Storage errors surfaced but the session kept serving.
    Degraded,
    /// The session died mid-run (contained panic or detach).
    Failed,
}

/// A validated `Hello`: everything the serving core needs to build a
/// [`SessionPlan`]. Decoding guarantees the geometry is safe for
/// `Trajectory::new` (≥ 2 keys, strictly increasing finite times,
/// non-empty finite windows, finite non-decreasing frame times).
#[derive(Clone, Debug, PartialEq)]
pub struct HelloSpec {
    /// PDQ or NPDQ.
    pub kind: SessionKind,
    /// Global frame this session joins at.
    pub join_frame: u32,
    /// Initial delta credit granted by the client.
    pub credit: u32,
    /// Trajectory key snapshots: `(t, lo, hi)` per key.
    pub keys: Vec<(f64, [f64; 2], [f64; 2])>,
    /// Monotone frame schedule.
    pub frame_times: Vec<f64>,
}

impl HelloSpec {
    /// Build the serving-core plan. Infallible: decode already
    /// validated every invariant `Trajectory::new` asserts.
    pub fn to_plan(&self) -> SessionPlan<2> {
        let keys = self
            .keys
            .iter()
            .map(|&(t, lo, hi)| KeySnapshot {
                t,
                window: Rect::from_corners(lo, hi),
            })
            .collect();
        let spec = SessionSpec {
            kind: self.kind,
            trajectory: Trajectory::new(keys),
            frame_times: self.frame_times.clone(),
        };
        SessionPlan::new(spec).join_at(self.join_frame as usize)
    }

    /// The wire form of an in-process plan (what a client sends).
    pub fn from_plan(plan: &SessionPlan<2>, credit: u32) -> HelloSpec {
        let keys = plan
            .spec
            .trajectory
            .keys()
            .iter()
            .map(|k| {
                (
                    k.t,
                    [k.window.dims[0].lo, k.window.dims[1].lo],
                    [k.window.dims[0].hi, k.window.dims[1].hi],
                )
            })
            .collect();
        HelloSpec {
            kind: plan.spec.kind,
            join_frame: plan.join_frame as u32,
            credit,
            keys,
            frame_times: plan.spec.frame_times.clone(),
        }
    }
}

/// One protocol message, either direction.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Client→server: open a session.
    Hello(HelloSpec),
    /// Client→server: grant `n` more delta credits.
    Credit {
        /// Credits granted.
        n: u32,
    },
    /// Client→server: no further messages follow (half-close).
    Bye,
    /// Server→client: the session was admitted.
    Admitted {
        /// Server-assigned session id.
        session: u32,
    },
    /// Server→client: admission refused; the socket closes next.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Server→client: one frame's new results for this session.
    Delta {
        /// Global frame number.
        frame: u32,
        /// Server-side frame processing latency.
        latency_ns: u64,
        /// `(oid, seq)` pairs delivered this frame.
        results: Vec<(u32, u32)>,
    },
    /// Server→client: the session finished; the socket closes next.
    Done {
        /// How the session ended.
        outcome: DoneOutcome,
        /// Frames the session reported.
        frames: u32,
        /// Total results delivered.
        results: u64,
    },
    /// Server→client: the session was evicted; the socket closes next.
    Evicted {
        /// Why.
        reason: EvictReason,
    },
}

/// Typed decode failure. Every adversarial byte stream maps to exactly
/// one of these; none of them panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before its fields did (or the stream ended
    /// inside a frame).
    Truncated,
    /// The length prefix exceeds the frame cap.
    Oversized {
        /// Claimed payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// A zero-length payload (no room for even a tag).
    EmptyFrame,
    /// The tag byte names no known message.
    UnknownTag(u8),
    /// `Hello` carried an unsupported protocol version.
    BadVersion(u16),
    /// Fields decoded but violate a semantic invariant.
    Malformed(String),
    /// Bytes remained after a complete message was decoded.
    Trailing,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            ProtocolError::EmptyFrame => write!(f, "zero-length frame"),
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::Malformed(m) => write!(f, "malformed message: {m}"),
            ProtocolError::Trailing => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Encode `msg` as a complete wire frame (length prefix + payload).
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut p: Vec<u8> = Vec::with_capacity(16);
    match msg {
        Msg::Hello(h) => {
            p.push(TAG_HELLO);
            p.extend_from_slice(&PROTO_VERSION.to_le_bytes());
            p.push(match h.kind {
                SessionKind::Pdq => 0,
                SessionKind::Npdq => 1,
            });
            p.extend_from_slice(&h.join_frame.to_le_bytes());
            p.extend_from_slice(&h.credit.to_le_bytes());
            p.extend_from_slice(&(h.keys.len() as u32).to_le_bytes());
            for &(t, lo, hi) in &h.keys {
                p.extend_from_slice(&t.to_le_bytes());
                for v in lo.iter().chain(hi.iter()) {
                    p.extend_from_slice(&v.to_le_bytes());
                }
            }
            p.extend_from_slice(&(h.frame_times.len() as u32).to_le_bytes());
            for t in &h.frame_times {
                p.extend_from_slice(&t.to_le_bytes());
            }
        }
        Msg::Credit { n } => {
            p.push(TAG_CREDIT);
            p.extend_from_slice(&n.to_le_bytes());
        }
        Msg::Bye => p.push(TAG_BYE),
        Msg::Admitted { session } => {
            p.push(TAG_ADMITTED);
            p.extend_from_slice(&session.to_le_bytes());
        }
        Msg::Rejected { reason } => {
            p.push(TAG_REJECTED);
            p.push(match reason {
                RejectReason::Busy => 0,
                RejectReason::Overloaded => 1,
            });
        }
        Msg::Delta {
            frame,
            latency_ns,
            results,
        } => return encode_delta(*frame, *latency_ns, results),
        Msg::Done {
            outcome,
            frames,
            results,
        } => {
            p.push(TAG_DONE);
            p.push(match outcome {
                DoneOutcome::Ok => 0,
                DoneOutcome::Degraded => 1,
                DoneOutcome::Failed => 2,
            });
            p.extend_from_slice(&frames.to_le_bytes());
            p.extend_from_slice(&results.to_le_bytes());
        }
        Msg::Evicted { reason } => {
            p.push(TAG_EVICTED);
            p.push(match reason {
                EvictReason::SlowReader => 0,
                EvictReason::Disconnected => 1,
                EvictReason::Protocol => 2,
            });
        }
    }
    let mut frame = Vec::with_capacity(4 + p.len());
    frame.extend_from_slice(&(p.len() as u32).to_le_bytes());
    frame.extend_from_slice(&p);
    frame
}

/// Encode one `Delta` wire frame straight from a borrowed result
/// slice: the serving sink's per-frame path, one exact-size allocation
/// and no intermediate [`Msg`].
pub fn encode_delta(frame: u32, latency_ns: u64, results: &[(u32, u32)]) -> Vec<u8> {
    let payload = 1 + 4 + 8 + 4 + 8 * results.len();
    let mut out = Vec::with_capacity(4 + payload);
    out.extend_from_slice(&(payload as u32).to_le_bytes());
    out.push(TAG_DELTA);
    out.extend_from_slice(&frame.to_le_bytes());
    out.extend_from_slice(&latency_ns.to_le_bytes());
    out.extend_from_slice(&(results.len() as u32).to_le_bytes());
    for &(oid, seq) in results {
        out.extend_from_slice(&oid.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
    }
    out
}

/// Bounds-checked little-endian reader over one payload.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Cursor<'a> {
        Cursor { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated)?;
        if end > self.b.len() {
            return Err(ProtocolError::Truncated);
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A count field, checked against the bytes actually remaining
    /// (`elem_bytes` each) *before* any allocation.
    fn count(&self, n: u32, elem_bytes: usize) -> Result<usize, ProtocolError> {
        let n = n as usize;
        let need = n.checked_mul(elem_bytes).ok_or(ProtocolError::Truncated)?;
        if need > self.b.len() - self.pos {
            return Err(ProtocolError::Truncated);
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(ProtocolError::Trailing)
        }
    }
}

fn malformed(m: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed(m.into())
}

fn decode_hello(c: &mut Cursor<'_>) -> Result<HelloSpec, ProtocolError> {
    let proto = c.u16()?;
    if proto != PROTO_VERSION {
        return Err(ProtocolError::BadVersion(proto));
    }
    let kind = match c.u8()? {
        0 => SessionKind::Pdq,
        1 => SessionKind::Npdq,
        k => return Err(malformed(format!("unknown session kind {k}"))),
    };
    let join_frame = c.u32()?;
    let credit = c.u32()?;

    let nkeys_raw = c.u32()?;
    let nkeys = c.count(nkeys_raw, 40)?;
    if nkeys < 2 {
        return Err(malformed(format!("trajectory needs ≥ 2 keys, got {nkeys}")));
    }
    if nkeys > MAX_KEYS {
        return Err(malformed(format!("{nkeys} keys exceed cap {MAX_KEYS}")));
    }
    let mut keys = Vec::with_capacity(nkeys);
    let mut prev_t = f64::NEG_INFINITY;
    for _ in 0..nkeys {
        let t = c.f64()?;
        let lo = [c.f64()?, c.f64()?];
        let hi = [c.f64()?, c.f64()?];
        if !t.is_finite()
            || lo.iter().any(|v| !v.is_finite())
            || hi.iter().any(|v| !v.is_finite())
        {
            return Err(malformed("non-finite value in key snapshot"));
        }
        if t <= prev_t {
            return Err(malformed("key times must strictly increase"));
        }
        prev_t = t;
        if lo[0] > hi[0] || lo[1] > hi[1] {
            return Err(malformed("empty key window"));
        }
        keys.push((t, lo, hi));
    }

    let nframes_raw = c.u32()?;
    let nframes = c.count(nframes_raw, 8)?;
    if nframes == 0 {
        return Err(malformed("frame schedule is empty"));
    }
    if nframes > MAX_FRAME_TIMES {
        return Err(malformed(format!(
            "{nframes} frame times exceed cap {MAX_FRAME_TIMES}"
        )));
    }
    let mut frame_times = Vec::with_capacity(nframes);
    let mut prev = f64::NEG_INFINITY;
    for _ in 0..nframes {
        let t = c.f64()?;
        if !t.is_finite() {
            return Err(malformed("non-finite frame time"));
        }
        if t < prev {
            return Err(malformed("frame times must be non-decreasing"));
        }
        prev = t;
        frame_times.push(t);
    }

    Ok(HelloSpec {
        kind,
        join_frame,
        credit,
        keys,
        frame_times,
    })
}

/// Decode one payload (the bytes after the length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Msg, ProtocolError> {
    if payload.is_empty() {
        return Err(ProtocolError::EmptyFrame);
    }
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    let msg = match tag {
        TAG_HELLO => Msg::Hello(decode_hello(&mut c)?),
        TAG_CREDIT => {
            let n = c.u32()?;
            if n == 0 {
                return Err(malformed("zero-credit grant"));
            }
            Msg::Credit { n }
        }
        TAG_BYE => Msg::Bye,
        TAG_ADMITTED => Msg::Admitted { session: c.u32()? },
        TAG_REJECTED => Msg::Rejected {
            reason: match c.u8()? {
                0 => RejectReason::Busy,
                1 => RejectReason::Overloaded,
                r => return Err(malformed(format!("unknown reject reason {r}"))),
            },
        },
        TAG_DELTA => {
            let frame = c.u32()?;
            let latency_ns = c.u64()?;
            let n_raw = c.u32()?;
            let n = c.count(n_raw, 8)?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push((c.u32()?, c.u32()?));
            }
            Msg::Delta {
                frame,
                latency_ns,
                results,
            }
        }
        TAG_DONE => Msg::Done {
            outcome: match c.u8()? {
                0 => DoneOutcome::Ok,
                1 => DoneOutcome::Degraded,
                2 => DoneOutcome::Failed,
                o => return Err(malformed(format!("unknown done outcome {o}"))),
            },
            frames: c.u32()?,
            results: c.u64()?,
        },
        TAG_EVICTED => Msg::Evicted {
            reason: match c.u8()? {
                0 => EvictReason::SlowReader,
                1 => EvictReason::Disconnected,
                2 => EvictReason::Protocol,
                r => return Err(malformed(format!("unknown evict reason {r}"))),
            },
        },
        t => return Err(ProtocolError::UnknownTag(t)),
    };
    c.finish()?;
    Ok(msg)
}

/// Incremental frame assembler over an arbitrary byte stream.
///
/// Feed raw socket bytes with [`extend`](FrameReader::extend), then
/// drain complete messages with [`next_msg`](FrameReader::next_msg).
/// An incomplete frame returns `Ok(None)` — call again after more
/// bytes arrive; the holder maps a non-empty buffer at stream EOF to
/// [`ProtocolError::Truncated`] via [`has_partial`](FrameReader::has_partial).
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameReader {
    /// Assembler rejecting payloads longer than `max_frame`.
    pub fn new(max_frame: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Append raw bytes from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True iff an incomplete frame is buffered (truncation at EOF).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Decode the next complete message, if a full frame is buffered.
    /// Errors are terminal for the stream: the buffer contents are
    /// unspecified afterwards and the connection should be dropped.
    pub fn next_msg(&mut self) -> Result<Option<Msg>, ProtocolError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
        if len == 0 {
            return Err(ProtocolError::EmptyFrame);
        }
        if len as usize > self.max_frame {
            return Err(ProtocolError::Oversized {
                len,
                max: self.max_frame as u32,
            });
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let msg = decode_payload(&self.buf[4..total])?;
        self.buf.drain(..total);
        Ok(Some(msg))
    }
}
