//! Loopback integration suite for the network front door: bit-identity
//! against the serial serving oracle under a tight credit window (the
//! drawn and pinned wire cases of the served oracle live in the root
//! suite, `tests/service.rs`), typed admission rejections,
//! slow-reader / vanish / garbage containment, the graceful-shutdown
//! drain (recovery replays zero records), and the no-timer regression
//! (no hand-off on the wire path waits out a timeout).

use std::sync::Arc;
use std::time::{Duration, Instant};

use mobiquery::durability::DurableLog;
use mobiquery::region::RegionGrid;
use mobiquery::router::PartitionedDqServer;
use mobiquery::{NsiRecord, SessionKind, SessionPlan, SessionSpec, Trajectory};
use rtree::{RTree, RTreeConfig};
use server::{
    encode, ClientBehavior, ClientOutcome, DoneOutcome, EvictReason, HelloSpec, Msg, NetClient,
    NetServer, RejectReason, ServerConfig, DEFAULT_MAX_FRAME_BYTES,
};
use stkit::{Interval, Rect};
use storage::Pager;

type R = NsiRecord<2>;

fn line_records(n: u32) -> Vec<R> {
    (0..n)
        .map(|i| {
            let x = i as f64 + 0.5;
            R::new(i, 0, Interval::new(0.0, 100.0), [x, 0.5], [x, 0.5])
        })
        .collect()
}

fn slide_plan(kind: SessionKind, frames: usize, span: f64) -> SessionPlan<2> {
    SessionPlan::new(SessionSpec {
        kind,
        trajectory: Trajectory::linear(
            Rect::from_corners([0.0, 0.0], [1.0, 1.0]),
            [1.0, 0.0],
            Interval::new(0.0, span),
            2,
        ),
        frame_times: (0..=frames)
            .map(|k| span * k as f64 / frames as f64)
            .collect(),
    })
}

fn insert_schedule(frames: usize, span: f64) -> Vec<Vec<(R, f64)>> {
    (0..frames)
        .map(|k| {
            let t = span * k as f64 / frames as f64;
            vec![(
                R::new(
                    1000 + k as u32,
                    0,
                    Interval::new(t, 100.0),
                    [(t + 5.0) % (span - 1.0), 0.5],
                    [(t + 5.0) % (span - 1.0), 0.5],
                ),
                t,
            )]
        })
        .collect()
}

fn build_core(cuts: Vec<f64>, recs: &[R]) -> PartitionedDqServer<2, Pager> {
    PartitionedDqServer::build(RegionGrid::from_cuts(0, cuts), recs, |_| {
        RTree::new(Pager::new(), RTreeConfig::default())
    })
}

/// Every timeout the front door still has is set to 10 s, so a
/// hand-off that waits one out — instead of being woken by the event
/// it waits for — shows as a ≥ 10 s run. A wide credit window leaves
/// the push → pop wake-up as the only per-frame hand-off; window 1
/// puts a `Credit` round trip (read → grant → pop) behind every delta.
#[test]
fn progress_never_waits_for_a_timer() {
    const FRAMES: usize = 300;
    let recs = line_records(30);
    let plans = vec![
        slide_plan(SessionKind::Pdq, FRAMES, 30.0),
        slide_plan(SessionKind::Npdq, FRAMES, 30.0),
    ];
    let inserts = insert_schedule(FRAMES, 30.0);
    let oracle = build_core(vec![15.0], &recs).serve_serial_plans(&plans, &inserts);

    for window in [2 * FRAMES as u32, 1] {
        let patient = Duration::from_secs(10);
        let cfg = ServerConfig {
            min_gather: plans.len(),
            gather_window: patient,
            write_deadline: patient,
            handshake_timeout: patient,
            ..ServerConfig::default()
        };
        let started = Instant::now();
        let handle = NetServer::start(
            build_core(vec![15.0], &recs),
            vec![inserts.clone()],
            "127.0.0.1:0",
            cfg,
        )
        .expect("start server");
        let clients: Vec<NetClient> = plans
            .iter()
            .map(|p| {
                let mut c = NetClient::connect(handle.addr()).expect("connect");
                c.hello(p, window).expect("hello io").expect("admitted");
                c
            })
            .collect();
        let threads: Vec<_> = clients
            .into_iter()
            .map(|c| std::thread::spawn(move || c.run(ClientBehavior::WellBehaved)))
            .collect();
        for (i, t) in threads.into_iter().enumerate() {
            let run = t.join().expect("client thread");
            assert_eq!(
                run.results(),
                oracle.base.sessions[i].results,
                "window {window}, session {i}: bit-identical to serve_serial"
            );
            assert_eq!(run.deltas.len(), oracle.base.sessions[i].frames.len());
            assert!(matches!(run.outcome, ClientOutcome::Done { .. }));
        }
        let summary = handle.shutdown();
        let wall = started.elapsed();
        assert_eq!((summary.runs, summary.sessions, summary.evicted), (1, 2, 0));
        assert!(
            wall < Duration::from_secs(2),
            "window {window}: {FRAMES} frames took {wall:?} with 10 s timeouts — \
             some hand-off waited for a timer"
        );
    }
}

/// Credit pipelined behind the `Hello`: the client sends `Hello{credit:
/// 0}` and one `Credit` covering every frame in a single write, then
/// never grants again. The server must count the `Credit` that arrived
/// with the handshake and serve the session to `Done`, bit-identical to
/// `serve_serial`.
#[test]
fn credit_pipelined_behind_the_hello_is_counted() {
    const FRAMES: usize = 40;
    let recs = line_records(30);
    let plan = slide_plan(SessionKind::Pdq, FRAMES, 30.0);
    let inserts = insert_schedule(FRAMES, 30.0);
    let oracle =
        build_core(vec![15.0], &recs).serve_serial_plans(std::slice::from_ref(&plan), &inserts);
    let handle = NetServer::start(
        build_core(vec![15.0], &recs),
        vec![inserts],
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("start server");
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    let mut bytes = encode(&Msg::Hello(HelloSpec::from_plan(&plan, 0)));
    bytes.extend(encode(&Msg::Credit { n: FRAMES as u32 + 1 }));
    client.send_raw(&bytes).expect("send");
    assert!(matches!(client.next_msg(), Ok(Msg::Admitted { .. })));
    let mut results = Vec::new();
    let mut deltas = 0;
    let done = loop {
        match client.next_msg().expect("read") {
            Msg::Delta { results: r, .. } => {
                results.extend(r);
                deltas += 1;
            }
            other => break other,
        }
    };
    assert!(
        matches!(done, Msg::Done { outcome: DoneOutcome::Ok, .. }),
        "got {done:?} after {deltas} deltas"
    );
    assert_eq!(deltas, oracle.base.sessions[0].frames.len());
    assert_eq!(results, oracle.base.sessions[0].results, "bit-identical to serve_serial");
    assert_eq!(handle.shutdown().evicted, 0);
}

#[test]
fn admission_rejections_are_typed() {
    let recs = line_records(10);
    // Global cap 1: the second connection is Overloaded.
    let cfg = ServerConfig {
        max_sessions: 1,
        min_gather: 2, // hold the first session pending so it stays live
        gather_window: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let handle = NetServer::start(build_core(vec![5.0], &recs), vec![], "127.0.0.1:0", cfg)
        .expect("start server");
    let plan = slide_plan(SessionKind::Pdq, 5, 10.0);
    let mut c1 = NetClient::connect(handle.addr()).expect("connect");
    c1.hello(&plan, 8).expect("io").expect("admitted");
    let mut c2 = NetClient::connect(handle.addr()).expect("connect");
    assert_eq!(
        c2.hello(&plan, 8).expect("io"),
        Err(RejectReason::Overloaded)
    );
    let run = c1.run(ClientBehavior::WellBehaved);
    assert!(matches!(run.outcome, ClientOutcome::Done { .. }));
    handle.shutdown();

    // Per-IP cap 1 under a roomy global cap: the second is Busy.
    let cfg = ServerConfig {
        max_sessions: 4,
        max_per_ip: 1,
        min_gather: 2,
        gather_window: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let handle = NetServer::start(build_core(vec![5.0], &recs), vec![], "127.0.0.1:0", cfg)
        .expect("start server");
    let mut c1 = NetClient::connect(handle.addr()).expect("connect");
    c1.hello(&plan, 8).expect("io").expect("admitted");
    let mut c2 = NetClient::connect(handle.addr()).expect("connect");
    assert_eq!(c2.hello(&plan, 8).expect("io"), Err(RejectReason::Busy));
    let run = c1.run(ClientBehavior::WellBehaved);
    assert!(matches!(run.outcome, ClientOutcome::Done { .. }));
    handle.shutdown();
}

/// A healthy PDQ client at credit 64 beside a misbehaving one on the same
/// plan, over two regions: the healthy run, the misbehaver's run, and
/// how many sessions the server evicted. The healthy client must stream
/// the full serial results and finish.
fn beside_a_misbehaver(
    cfg: ServerConfig,
    credit: u32,
    behavior: ClientBehavior,
) -> (ClientOutcome, usize) {
    let recs = line_records(30);
    let plan = slide_plan(SessionKind::Pdq, 12, 30.0);
    let inserts = insert_schedule(12, 30.0);
    let oracle =
        build_core(vec![15.0], &recs).serve_serial_plans(std::slice::from_ref(&plan), &inserts);
    let cfg = ServerConfig {
        min_gather: 2,
        gather_window: Duration::from_secs(2),
        ..cfg
    };
    let handle = NetServer::start(
        build_core(vec![15.0], &recs),
        vec![inserts],
        "127.0.0.1:0",
        cfg,
    )
    .expect("start server");
    let mut healthy = NetClient::connect(handle.addr()).expect("connect");
    healthy.hello(&plan, 64).expect("io").expect("admitted");
    let mut other = NetClient::connect(handle.addr()).expect("connect");
    other.hello(&plan, credit).expect("io").expect("admitted");

    let h = std::thread::spawn(move || healthy.run(ClientBehavior::WellBehaved));
    let o = std::thread::spawn(move || other.run(behavior));
    let healthy_run = h.join().expect("healthy thread");
    let other_run = o.join().expect("misbehaving thread");
    assert_eq!(
        healthy_run.results(),
        oracle.base.sessions[0].results,
        "healthy session must stream the full serial results"
    );
    assert!(matches!(healthy_run.outcome, ClientOutcome::Done { .. }));
    (other_run.outcome, handle.shutdown().evicted)
}

#[test]
fn slow_reader_is_evicted_and_healthy_session_unaffected() {
    // Zero credit and a stall from the first delta: no credit comes and
    // the write deadline must evict it.
    let cfg = ServerConfig {
        write_deadline: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let (stalled, evicted) = beside_a_misbehaver(cfg, 0, ClientBehavior::StallAfter(0));
    assert_eq!(stalled, ClientOutcome::Evicted(EvictReason::SlowReader));
    assert_eq!(evicted, 1);
}

#[test]
fn vanished_client_is_contained() {
    let cfg = ServerConfig {
        write_deadline: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (vanished, evicted) = beside_a_misbehaver(cfg, 2, ClientBehavior::VanishAfter(1));
    assert_eq!(vanished, ClientOutcome::ConnectionLost);
    assert_eq!(evicted, 1, "the vanished session was evicted");
}

/// Straggler isolation over the wire: four 25-wide slabs, one healthy
/// PDQ client on each of regions 1–3, and a staller and a vanisher on
/// region 0. The staller admits at zero credit and holds its socket, so
/// region 0 stalls on its first delta, waiting for credit for up to the
/// 30 s write deadline — and the healthy clients must still read every delta, within
/// a 20 s guard that the deadline cannot rescue. Only then does the
/// staller drop its socket.
#[test]
fn a_stalled_client_holds_back_only_its_region() {
    const FRAMES: usize = 30;
    const SLAB: f64 = 25.0;
    let preload: Vec<R> = (0..4u32)
        .flat_map(|r| (0..50u32).map(move |i| (r, i)))
        .map(|(r, i)| {
            let x = f64::from(r) * SLAB + 0.5 + f64::from(i) * (SLAB - 1.0) / 50.0;
            R::new(r * 10_000 + i, 0, Interval::new(0.0, 1_000.0), [x, 0.5], [x, 0.5])
        })
        .collect();
    let inserts: Vec<Vec<(R, f64)>> = (0..FRAMES as u32)
        .map(|k| {
            let t = f64::from(k);
            (0..4u32)
                .map(|r| {
                    let x = f64::from(r) * SLAB + 1.0 + f64::from((k + r) % 20);
                    let oid = 50_000 + k * 4 + r;
                    (R::new(oid, 0, Interval::new(t, 1_000.0), [x, 0.5], [x, 0.5]), t)
                })
                .collect()
        })
        .collect();
    let slab_plan = |r: usize| {
        let x0 = r as f64 * SLAB + 1.0;
        SessionPlan::new(SessionSpec {
            kind: SessionKind::Pdq,
            trajectory: Trajectory::linear(
                Rect::from_corners([x0, 0.0], [x0 + 2.0, 1.0]),
                [(SLAB - 4.0) / FRAMES as f64, 0.0],
                Interval::new(0.0, FRAMES as f64),
                2,
            ),
            frame_times: (0..=FRAMES).map(|k| k as f64).collect(),
        })
    };
    let plans: Vec<SessionPlan<2>> = [1, 2, 3, 0, 0].into_iter().map(slab_plan).collect();
    let core = || {
        let grid = RegionGrid::uniform(0, Interval::new(0.0, 4.0 * SLAB), 4);
        PartitionedDqServer::build(grid, &preload, |_| {
            RTree::new(Pager::new(), RTreeConfig::default())
        })
    };
    let oracle = core().serve_serial_plans(&plans, &inserts);

    let cfg = ServerConfig {
        min_gather: plans.len(),
        gather_window: Duration::from_secs(10),
        write_deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let handle = NetServer::start(core(), vec![inserts], "127.0.0.1:0", cfg).expect("start server");
    let credits = [64, 64, 64, 0, 8];
    let mut clients: Vec<NetClient> = plans
        .iter()
        .zip(credits)
        .map(|(p, credit)| {
            let mut c = NetClient::connect(handle.addr()).expect("connect");
            c.hello(p, credit).expect("hello io").expect("admitted");
            c
        })
        .collect();
    let staller = clients.remove(3);
    let vanisher = clients.remove(3);
    let vanished = std::thread::spawn(move || vanisher.run(ClientBehavior::VanishAfter(2)));

    // A healthy client reads its deltas, reports once it holds all of
    // them, then waits for `Done`, which comes only after the serve.
    let (read_all, healthy_done) = std::sync::mpsc::channel();
    let healthy: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(i, mut c)| {
            let read_all = read_all.clone();
            std::thread::spawn(move || {
                let mut results = Vec::new();
                for _ in 0..FRAMES {
                    match c.next_msg() {
                        Ok(Msg::Delta { results: r, .. }) => results.extend(r),
                        other => panic!("healthy session {i}: expected a delta, got {other:?}"),
                    }
                    c.grant(1).expect("grant");
                }
                read_all.send(i).expect("report");
                let done = c.next_msg();
                assert!(matches!(done, Ok(Msg::Done { .. })), "session {i}: {done:?}");
                results
            })
        })
        .collect();
    drop(read_all);
    let guard = Instant::now() + Duration::from_secs(20);
    let finished: Vec<usize> = std::iter::from_fn(|| {
        healthy_done.recv_timeout(guard.saturating_duration_since(Instant::now())).ok()
    })
    .take(3)
    .collect();
    drop(staller);

    let results: Vec<_> = healthy.into_iter().map(|t| t.join().expect("healthy thread")).collect();
    assert!(
        finished.len() == 3,
        "only sessions {finished:?} of 0..3 read every delta while the staller held its socket"
    );
    for (i, got) in results.iter().enumerate() {
        assert_eq!(*got, oracle.base.sessions[i].results, "healthy session {i} vs serve_serial");
    }
    assert_eq!(vanished.join().expect("vanisher").outcome, ClientOutcome::ConnectionLost);
    assert_eq!(handle.shutdown().evicted, 2, "the staller and the vanisher");
}

#[test]
fn garbage_streams_are_contained_to_their_session() {
    let recs = line_records(30);
    let plan = slide_plan(SessionKind::Pdq, 10, 30.0);

    let cfg = ServerConfig {
        min_gather: 2,
        gather_window: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let handle = NetServer::start(
        build_core(vec![15.0], &recs),
        vec![],
        "127.0.0.1:0",
        cfg,
    )
    .expect("start server");

    // Garbage instead of a Hello: typed Protocol notice, no session.
    let mut pre = NetClient::connect(handle.addr()).expect("connect");
    pre.send_raw(&[5, 0, 0, 0, 0x7F, 1, 2, 3, 4]).expect("send");
    match pre.next_msg() {
        Ok(Msg::Evicted {
            reason: EvictReason::Protocol,
        }) => {}
        other => panic!("expected Protocol eviction notice, got {other:?}"),
    }

    // Garbage AFTER admission: that session is evicted, the healthy
    // session in the same batch still completes. The rogue's 8 credits
    // are fewer than its plan's frames, so the sink reads the garbage
    // when the credit runs out, mid-serve.
    let mut rogue = NetClient::connect(handle.addr()).expect("connect");
    rogue.hello(&plan, 8).expect("io").expect("admitted");
    rogue.send_raw(&[0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF]).expect("send");
    let mut healthy = NetClient::connect(handle.addr()).expect("connect");
    healthy.hello(&plan, 64).expect("io").expect("admitted");

    let h = std::thread::spawn(move || healthy.run(ClientBehavior::WellBehaved));
    let r = std::thread::spawn(move || rogue.run(ClientBehavior::WellBehaved));
    let healthy_run = h.join().expect("healthy thread");
    let rogue_run = r.join().expect("rogue thread");

    assert!(matches!(healthy_run.outcome, ClientOutcome::Done { .. }));
    assert!(!healthy_run.results().is_empty());
    assert_eq!(
        rogue_run.outcome,
        ClientOutcome::Evicted(EvictReason::Protocol)
    );
    let summary = handle.shutdown();
    assert!(summary.evicted >= 1);
}

/// Garbage from a client that holds credit for every frame of its plan:
/// no delta waits for its credit, so the sink never reads its socket
/// while it is served, and the garbage, sent before the batch is
/// gathered, is found only before `Done` goes out. The rogue must end
/// `Evicted(Protocol)` and the healthy session beside it `Done`,
/// bit-identical to `serve_serial`.
#[test]
fn garbage_from_a_client_with_credit_for_every_frame_is_evicted() {
    const FRAMES: usize = 10;
    let recs = line_records(30);
    let plan = slide_plan(SessionKind::Pdq, FRAMES, 30.0);
    let inserts = insert_schedule(FRAMES, 30.0);
    let oracle =
        build_core(vec![15.0], &recs).serve_serial_plans(std::slice::from_ref(&plan), &inserts);
    let cfg = ServerConfig {
        min_gather: 2,
        gather_window: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let handle = NetServer::start(
        build_core(vec![15.0], &recs),
        vec![inserts],
        "127.0.0.1:0",
        cfg,
    )
    .expect("start server");
    let mut rogue = NetClient::connect(handle.addr()).expect("connect");
    rogue
        .hello(&plan, 2 * FRAMES as u32)
        .expect("io")
        .expect("admitted");
    rogue
        .send_raw(&[0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF])
        .expect("send");
    let mut healthy = NetClient::connect(handle.addr()).expect("connect");
    healthy.hello(&plan, 64).expect("io").expect("admitted");

    let h = std::thread::spawn(move || healthy.run(ClientBehavior::WellBehaved));
    let r = std::thread::spawn(move || rogue.run(ClientBehavior::WellBehaved));
    let healthy_run = h.join().expect("healthy thread");
    let rogue_run = r.join().expect("rogue thread");

    assert_eq!(
        rogue_run.outcome,
        ClientOutcome::Evicted(EvictReason::Protocol)
    );
    assert!(
        matches!(
            healthy_run.outcome,
            ClientOutcome::Done {
                outcome: DoneOutcome::Ok,
                ..
            }
        ),
        "healthy session: {:?}",
        healthy_run.outcome
    );
    assert_eq!(
        healthy_run.results(),
        oracle.base.sessions[0].results,
        "bit-identical to serve_serial"
    );
    assert_eq!(handle.shutdown().evicted, 1, "the rogue only");
}

/// A served session holds no pool worker, so one worker admits and
/// serves as many sessions as `max_sessions` allows: four clients
/// through a one-worker pool, gathered into one serve, each `Done` and
/// bit-identical to `serve_serial`.
#[test]
fn one_pool_worker_serves_max_sessions_at_once() {
    const FRAMES: usize = 12;
    let recs = line_records(30);
    let plans: Vec<SessionPlan<2>> = [SessionKind::Pdq, SessionKind::Npdq]
        .into_iter()
        .cycle()
        .take(4)
        .map(|kind| slide_plan(kind, FRAMES, 30.0))
        .collect();
    let inserts = insert_schedule(FRAMES, 30.0);
    let oracle = build_core(vec![15.0], &recs).serve_serial_plans(&plans, &inserts);
    let cfg = ServerConfig {
        workers: 1,
        max_sessions: 4,
        min_gather: 4,
        gather_window: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let handle = NetServer::start(
        build_core(vec![15.0], &recs),
        vec![inserts],
        "127.0.0.1:0",
        cfg,
    )
    .expect("start server");
    let clients: Vec<NetClient> = plans
        .iter()
        .map(|p| {
            let mut c = NetClient::connect(handle.addr()).expect("connect");
            c.hello(p, 4).expect("hello io").expect("admitted");
            c
        })
        .collect();
    let threads: Vec<_> = clients
        .into_iter()
        .map(|c| std::thread::spawn(move || c.run(ClientBehavior::WellBehaved)))
        .collect();
    for (i, t) in threads.into_iter().enumerate() {
        let run = t.join().expect("client thread");
        assert!(
            matches!(run.outcome, ClientOutcome::Done { .. }),
            "session {i}: {:?}",
            run.outcome
        );
        assert_eq!(
            run.results(),
            oracle.base.sessions[i].results,
            "session {i} vs serve_serial"
        );
    }
    let summary = handle.shutdown();
    assert_eq!((summary.runs, summary.sessions, summary.evicted), (1, 4, 0));
}

/// A `Hello` whose length prefix is over the frame limit, followed by
/// more bytes than one 4 KiB `read` takes: the server must answer
/// `Evicted(Protocol)` and then close in order, with a FIN, not reset
/// the connection over the bytes it never read.
#[test]
fn an_oversized_hello_with_bytes_unread_is_answered_and_closed_in_order() {
    let handle = NetServer::start(
        build_core(vec![5.0], &line_records(10)),
        vec![],
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("start server");
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    let mut bytes = (DEFAULT_MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
    bytes.resize(4 + 16 * 4096, 0xAB);
    client.send_raw(&bytes).expect("send");
    match client.next_msg() {
        Ok(Msg::Evicted {
            reason: EvictReason::Protocol,
        }) => {}
        other => panic!("expected a Protocol eviction notice, got {other:?}"),
    }
    let end = client.next_msg().expect_err("nothing follows the notice");
    assert_eq!(
        end.kind(),
        std::io::ErrorKind::UnexpectedEof,
        "a FIN, not a reset: {end}"
    );
    handle.shutdown();
}

#[test]
fn shutdown_drain_checkpoints_so_recovery_replays_nothing() {
    let recs = line_records(30);
    let plan = slide_plan(SessionKind::Pdq, 10, 30.0);
    let inserts = insert_schedule(10, 30.0);
    // Cadence high enough that no mid-run checkpoint fires: only the
    // drain checkpoint can bring the replay count to zero.
    let log = Arc::new(DurableLog::new(10_000));
    let core = build_core(vec![15.0], &recs).with_durability(Arc::clone(&log));

    let cfg = ServerConfig {
        min_gather: 1,
        gather_window: Duration::from_millis(500),
        write_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let handle = NetServer::start(core, vec![inserts], "127.0.0.1:0", cfg).expect("start server");
    let mut c = NetClient::connect(handle.addr()).expect("connect");
    c.hello(&plan, 64).expect("io").expect("admitted");
    let run = c.run(ClientBehavior::WellBehaved);
    assert!(matches!(run.outcome, ClientOutcome::Done { .. }));
    assert!(!run.results().is_empty());

    let summary = handle.shutdown();
    assert!(summary.checkpointed, "drain must take the final checkpoint");

    let (base, frames, report) = log
        .durable_image()
        .recover_records::<2>()
        .expect("recover after drain");
    assert_eq!(
        report.replayed_records, 0,
        "recovery after a graceful drain replays zero WAL records"
    );
    assert!(frames.is_empty());
    // The checkpoint holds preload + every applied insert.
    assert_eq!(base.len(), 30 + 10);
}
