//! # server — the network front door for the serving core
//!
//! The paper's continuous PDQ/NPDQ sessions (§4) are in-process
//! constructs; this crate puts them behind a TCP process boundary
//! without letting any client take the serving core down:
//!
//! * [`protocol`] — a hand-rolled length-prefixed binary codec (no
//!   external deps). Every malformed, truncated, oversized, or
//!   garbage byte stream maps to a typed [`ProtocolError`]; no input
//!   can panic the decoder or balloon an allocation.
//! * [`admission`] — a server-wide live-session cap and a per-IP cap
//!   checked before any session state exists; refused connections get
//!   a typed `Rejected{Busy, Overloaded}` frame.
//! * [`server`] — the listener and coordinator threads, the pool that
//!   runs handshakes and terminal notices, and the per-session sink
//!   that *is* the session's connection: the serving worker writes
//!   each delta and reads the client's credit itself. A client that
//!   grants no credit, or does not drain its socket, for a whole write
//!   deadline is the slow-reader signal: the session is evicted and
//!   detached from its region frame clocks, so a stalled socket
//!   back-pressures nothing. Also the graceful-shutdown drain (stop
//!   admission, serve what was admitted, final checkpoint).
//! * [`outbox`] — a bounded queue with credit that no serving path
//!   uses any more, kept only because `dqbench` compiles against it.
//! * [`client`] — the blocking reference client, including the chaos
//!   behaviors (stall, vanish, garbage) the robustness suite drives.

pub mod admission;
pub mod client;
pub mod outbox;
pub mod pool;
pub mod protocol;
pub mod server;

pub use admission::{Admission, AdmitGuard};
pub use client::{ClientBehavior, ClientDelta, ClientOutcome, ClientRun, NetClient};
pub use outbox::{Outbox, Pop, PushError};
pub use protocol::{
    decode_payload, encode, encode_delta, DoneOutcome, EvictReason, FrameReader, HelloSpec, Msg,
    ProtocolError, RejectReason, DEFAULT_MAX_FRAME_BYTES, MAX_FRAME_TIMES, MAX_KEYS, PROTO_VERSION,
};
pub use server::{NetHandle, NetServer, RunInserts, ServerConfig, ServerSummary};
