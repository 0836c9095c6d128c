//! Serving over TCP — the network front door, end to end.
//!
//! Stands a `NetServer` up on a loopback socket, then connects three
//! protocol clients: two well-behaved sessions that stream their
//! per-frame deltas, and one deliberately slow reader that stops
//! granting credit after the first frame and gets evicted without
//! slowing anyone else down. Finally the handle is shut down
//! gracefully and the server's summary is printed.
//!
//! The wire results are checked against an in-process
//! `serve_serial_plans` run of the same plans — the socket boundary
//! must not change a single (oid, frame) pair.
//!
//! ```bash
//! cargo run --release --example net_client
//! ```

use std::thread;

use dq_repro::mobiquery::{
    PartitionedDqServer, RegionGrid, SessionKind, SessionPlan, SessionSpec, Trajectory,
};
use dq_repro::rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::server::{ClientBehavior, ClientOutcome, Msg, NetClient, NetServer, ServerConfig};
use dq_repro::stkit::{Interval, Rect};
use dq_repro::storage::Pager;

type R = NsiSegmentRecord<2>;

const FRAMES: usize = 12;
const SPACE: f64 = 50.0;

/// A line of stationary objects across the whole space.
fn records() -> Vec<R> {
    (0..100)
        .map(|i| {
            let x = f64::from(i) * SPACE / 100.0 + 0.25;
            R::new(i, 0, Interval::new(0.0, 1_000.0), [x, 0.5], [x, 0.5])
        })
        .collect()
}

/// A PDQ window sliding rightward from x = `x0`.
fn plan(x0: f64) -> SessionPlan<2> {
    SessionPlan::new(SessionSpec {
        kind: SessionKind::Pdq,
        trajectory: Trajectory::linear(
            Rect::from_corners([x0, 0.0], [x0 + 5.0, 1.0]),
            [1.0, 0.0],
            Interval::new(0.0, FRAMES as f64),
            2,
        ),
        frame_times: (0..=FRAMES).map(|k| k as f64).collect(),
    })
}

/// One fresh object lands per frame, so every frame has a live insert.
fn inserts() -> Vec<Vec<(R, f64)>> {
    (0..FRAMES)
        .map(|k| {
            let t = k as f64;
            let x = (t * 7.0 + 3.0) % SPACE;
            vec![(
                R::new(1_000 + k as u32, 0, Interval::new(t, 1_000.0), [x, 0.5], [x, 0.5]),
                t,
            )]
        })
        .collect()
}

fn core() -> PartitionedDqServer<2, Pager> {
    let grid = RegionGrid::uniform(0, Interval::new(0.0, SPACE), 2);
    PartitionedDqServer::build(grid, &records(), |_| {
        RTree::new(Pager::new(), RTreeConfig::default())
    })
}

fn main() {
    let plans = vec![plan(2.0), plan(30.0), plan(10.0)];

    // The in-process answer the wire stream must reproduce.
    let oracle = core().serve_serial_plans(&plans, &inserts());

    let config = ServerConfig {
        min_gather: 3, // serve all three sessions as one batch
        ..ServerConfig::default()
    };
    let handle =
        NetServer::start(core(), vec![inserts()], "127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr();
    println!("serving on {addr}");

    // Two well-behaved clients stream their deltas; the third stalls.
    type Finished = (usize, ClientOutcome, Vec<(u32, u32)>);
    let mut clients: Vec<thread::JoinHandle<Finished>> = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        let p = p.clone();
        clients.push(thread::spawn(move || {
            let mut c = NetClient::connect(addr).expect("connect");
            let session = c.hello(&p, 4).expect("hello io").expect("admitted");
            if i == 2 {
                // The slow reader: take one delta, then never grant
                // credit again. Its sink waits for credit, the write
                // deadline passes, and the session is evicted.
                let run = c.run(ClientBehavior::StallAfter(1));
                let results = run.results();
                return (i, run.outcome, results);
            }
            let mut results = Vec::new();
            loop {
                match c.next_msg().expect("read frame") {
                    Msg::Delta { frame, results: r, .. } => {
                        println!("session {session} frame {frame}: {} hits", r.len());
                        results.extend(r);
                        c.grant(1).ok();
                    }
                    Msg::Done { outcome, frames, .. } => {
                        return (i, ClientOutcome::Done { outcome, frames, results: 0 }, results)
                    }
                    other => panic!("unexpected frame: {other:?}"),
                }
            }
        }));
    }

    for handle_ in clients {
        let (i, outcome, results) = handle_.join().expect("client thread");
        match outcome {
            ClientOutcome::Done { .. } => {
                assert_eq!(
                    results, oracle.base.sessions[i].results,
                    "session {i}: wire results must match the serial oracle"
                );
                println!("session {i}: done, {} results, bit-identical to oracle", results.len());
            }
            ClientOutcome::Evicted(reason) => {
                println!("session {i}: evicted ({reason:?}) — the slow reader, as planned");
            }
            ClientOutcome::ConnectionLost => {
                println!("session {i}: connection lost after eviction");
            }
        }
    }

    let summary = handle.shutdown();
    println!(
        "shutdown: {} session(s) served, {} evicted, checkpointed: {}",
        summary.sessions, summary.evicted, summary.checkpointed
    );
    assert_eq!(summary.evicted, 1, "exactly the slow reader is evicted");
}
