//! Blocking reference client for the wire protocol.
//!
//! Used by the integration tests, `dqbench`'s `wire` workload, and the
//! `examples/net_client` quickstart. Besides the well-behaved
//! [`run`](NetClient::run) path it exposes
//! the misbehaviors the chaos suite needs: stop granting credit
//! mid-run ([`ClientBehavior::StallAfter`]), vanish without a goodbye
//! ([`ClientBehavior::VanishAfter`]), or send raw garbage
//! ([`NetClient::send_raw`]).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use mobiquery::SessionPlan;

use crate::protocol::{
    encode, EvictReason, FrameReader, HelloSpec, Msg, RejectReason, DEFAULT_MAX_FRAME_BYTES,
};

/// How a client-side session ended.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientOutcome {
    /// The server finished the session and said so.
    Done {
        /// Wire outcome code.
        outcome: crate::protocol::DoneOutcome,
        /// Frames the server reported for this session.
        frames: u32,
        /// Total results the server counted.
        results: u64,
    },
    /// The server evicted this session.
    Evicted(EvictReason),
    /// The socket died before a terminal message arrived.
    ConnectionLost,
}

/// One received frame delta: `(frame, latency_ns, results)`.
pub type ClientDelta = (u32, u64, Vec<(u32, u32)>);

/// Everything a completed (or aborted) client run collected.
#[derive(Clone, Debug)]
pub struct ClientRun {
    /// Per-frame deltas in arrival order.
    pub deltas: Vec<ClientDelta>,
    /// Terminal state.
    pub outcome: ClientOutcome,
}

impl ClientRun {
    /// All delivered `(oid, seq)` pairs in arrival order — directly
    /// comparable to a [`SessionOutput`](mobiquery::SessionOutput)'s
    /// `results`.
    pub fn results(&self) -> Vec<(u32, u32)> {
        self.deltas
            .iter()
            .flat_map(|(_, _, r)| r.iter().copied())
            .collect()
    }
}

/// Misbehavior knobs for the chaos suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientBehavior {
    /// Read and credit every frame until done.
    WellBehaved,
    /// Stop granting credit (and keep the socket open) after this many
    /// deltas: the slow-reader case.
    StallAfter(usize),
    /// Drop the socket without warning after this many deltas: the
    /// vanished-client case.
    VanishAfter(usize),
}

/// A blocking protocol client over one TCP connection.
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
    session: Option<u32>,
}

impl NetClient {
    /// Connect to the front door.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(NetClient {
            stream,
            reader: FrameReader::new(DEFAULT_MAX_FRAME_BYTES),
            session: None,
        })
    }

    /// Send `Hello` for `plan` with `credit` initial delta credits and
    /// wait for the verdict. `Ok(Ok(session))` once admitted.
    pub fn hello(
        &mut self,
        plan: &SessionPlan<2>,
        credit: u32,
    ) -> std::io::Result<Result<u32, RejectReason>> {
        let hello = HelloSpec::from_plan(plan, credit);
        self.stream.write_all(&encode(&Msg::Hello(hello)))?;
        match self.next_msg()? {
            Msg::Admitted { session } => {
                self.session = Some(session);
                Ok(Ok(session))
            }
            Msg::Rejected { reason } => Ok(Err(reason)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected Admitted/Rejected, got {other:?}"),
            )),
        }
    }

    /// The session id, once admitted.
    pub fn session(&self) -> Option<u32> {
        self.session
    }

    /// Write raw bytes to the socket (chaos: garbage mid-stream).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Grant `n` more delta credits.
    pub fn grant(&mut self, n: u32) -> std::io::Result<()> {
        self.stream.write_all(&encode(&Msg::Credit { n }))
    }

    /// Blocking read of the next complete message.
    pub fn next_msg(&mut self) -> std::io::Result<Msg> {
        let mut buf = [0u8; 4096];
        loop {
            match self.reader.next_msg() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
            match self.stream.read(&mut buf)? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                n => self.reader.extend(&buf[..n]),
            }
        }
    }

    /// Drive an admitted session to its end with the given behavior,
    /// granting one credit back per received delta (well-behaved) so
    /// the server never waits on us for credit.
    pub fn run(mut self, behavior: ClientBehavior) -> ClientRun {
        let mut deltas = Vec::new();
        loop {
            match behavior {
                ClientBehavior::StallAfter(n) if deltas.len() >= n => {
                    // Stop reading and crediting but keep the socket
                    // open: the server must evict us on its own.
                    return self.await_eviction(deltas);
                }
                ClientBehavior::VanishAfter(n) if deltas.len() >= n => {
                    let _ = self.stream.shutdown(Shutdown::Both);
                    return ClientRun {
                        deltas,
                        outcome: ClientOutcome::ConnectionLost,
                    };
                }
                _ => {}
            }
            match self.next_msg() {
                Ok(Msg::Delta {
                    frame,
                    latency_ns,
                    results,
                }) => {
                    deltas.push((frame, latency_ns, results));
                    // A failed grant just means the server has stopped
                    // reading (it half-closes after the terminal frame);
                    // keep reading — Done/Evicted is already en route.
                    let _ = self.grant(1);
                }
                Ok(Msg::Done {
                    outcome,
                    frames,
                    results,
                }) => {
                    return ClientRun {
                        deltas,
                        outcome: ClientOutcome::Done {
                            outcome,
                            frames,
                            results,
                        },
                    }
                }
                Ok(Msg::Evicted { reason }) => {
                    return ClientRun {
                        deltas,
                        outcome: ClientOutcome::Evicted(reason),
                    }
                }
                Ok(_) => {
                    return ClientRun {
                        deltas,
                        outcome: ClientOutcome::ConnectionLost,
                    }
                }
                Err(_) => {
                    return ClientRun {
                        deltas,
                        outcome: ClientOutcome::ConnectionLost,
                    }
                }
            }
        }
    }

    /// Stalled client's tail: wait (without crediting) until the
    /// server notifies eviction or drops us.
    fn await_eviction(mut self, deltas: Vec<ClientDelta>) -> ClientRun {
        loop {
            match self.next_msg() {
                Ok(Msg::Evicted { reason }) => {
                    return ClientRun {
                        deltas,
                        outcome: ClientOutcome::Evicted(reason),
                    }
                }
                // A delta raced the stall decision; swallow without
                // crediting — the server's deadline does the rest.
                Ok(Msg::Delta { .. }) => {}
                Ok(Msg::Done {
                    outcome,
                    frames,
                    results,
                }) => {
                    return ClientRun {
                        deltas,
                        outcome: ClientOutcome::Done {
                            outcome,
                            frames,
                            results,
                        },
                    }
                }
                Ok(_) | Err(_) => {
                    return ClientRun {
                        deltas,
                        outcome: ClientOutcome::ConnectionLost,
                    }
                }
            }
        }
    }
}
