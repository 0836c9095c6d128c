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
//! * [`outbox`] — a bounded per-session queue of encoded frame
//!   deltas, and the client's credit, between the serving core and
//!   the session's writer half. A full
//!   queue past the write deadline is the slow-reader signal: the
//!   session is evicted and detached from its region frame clocks, so
//!   a stalled socket back-pressures nothing.
//! * [`server`] — the listener, per-session writer / reader halves
//!   and coordinator threads (every hand-off a blocking wake-up, no
//!   polling), and the graceful-shutdown drain (stop admission, serve
//!   what was admitted, final checkpoint).
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
