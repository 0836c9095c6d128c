//! Per-region frame clocks, end to end. Ragged schedule lengths,
//! sessions joining mid-run and a slow sink are pinned cases of the
//! served oracle (`support::served`): the clocks are invisible to
//! results, frame reports and session stats. Where a hand-picked
//! schedule shows what the oracle's cannot: a session that panics
//! mid-run on a page read detaches and perturbs nobody, and a stalled
//! session holds back only its own regions.

mod support;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use dq_repro::mobiquery::{
    FrameDelta, FrameSink, PartitionedDqServer, RegionGrid, SessionKind, SessionOutcome,
    SessionPlan, SessionSpec, SinkVerdict, Trajectory,
};
use dq_repro::rtree::{RTree, RTreeConfig};
use dq_repro::stkit::{Interval, Rect};
use dq_repro::storage::{IoSnapshot, PageId, PageRef, PageStore, Pager, StorageError};
use support::served::{check_served, Case, Sink};
use support::{leaf_page_of, line_inserts, line_records, partitioned, slide_spec, R};

/// The single-tree case and a three-region grid.
const CUTS: [&[f64]; 2] = [&[], &[15.0, 30.0]];

/// Sessions with very different schedule lengths: the short ones finish
/// and detach while the long one keeps consuming frames.
#[test]
fn ragged_schedule_lengths_match_serial() {
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 5, 5.0),
        slide_spec(SessionKind::Npdq, 10.0, 12, 12.0),
        slide_spec(SessionKind::Pdq, 20.0, 20, 16.0),
    ];
    for cuts in CUTS {
        let case = Case { cuts: cuts.to_vec(), ..Case::new(line_records(40), line_inserts(20, 3), specs.clone()) };
        check_served(&case).unwrap();
    }
}

/// Two sessions joining at global frame 7 of a 16-frame run see the tree
/// exactly as of their join watermark and report frames from 7 on.
#[test]
fn join_mid_run_sees_exactly_the_tail() {
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 16, 12.0),
        slide_spec(SessionKind::Pdq, 8.0, 16, 12.0),
        slide_spec(SessionKind::Npdq, 20.0, 16, 12.0),
    ];
    for cuts in CUTS {
        let mut case = Case { cuts: cuts.to_vec(), ..Case::new(line_records(40), line_inserts(16, 3), specs.clone()) };
        for plan in &mut case.plans[1..] {
            plan.join_frame = 7;
        }
        check_served(&case).unwrap();
    }
}

/// Out-of-lockstep execution: one session's sink sleeps 2 ms before
/// every ack.
#[test]
fn frame_reports_reconcile_out_of_lockstep() {
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 10, 10.0),
        slide_spec(SessionKind::Npdq, 12.0, 10, 10.0),
        slide_spec(SessionKind::Pdq, 24.0, 10, 10.0),
    ];
    for cuts in CUTS {
        let case = Case {
            cuts: cuts.to_vec(),
            sinks: vec![Sink::None, Sink::Lag(vec![2000; 11]), Sink::None],
            ..Case::new(line_records(40), line_inserts(10, 3), specs.clone())
        };
        check_served(&case).unwrap();
    }
}

/// A `Pager` whose next read of one chosen page panics (once) — the
/// panic injector of the regression here, armed once the tree is built.
struct PanickingStore {
    inner: Pager,
    victim: AtomicU32,
}

impl PageStore for PanickingStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
        let armed = self.victim.compare_exchange(id.0, u32::MAX, Ordering::Relaxed, Ordering::Relaxed);
        assert!(armed.is_err(), "injected panic reading {id}");
        self.inner.try_read_page(id)
    }
    fn write(&self, id: PageId, data: &[u8]) {
        self.inner.write(id, data)
    }
    fn try_alloc(&self) -> Result<PageId, StorageError> {
        self.inner.try_alloc()
    }
    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
}

/// A tree over a [`PanickingStore`] that does not panic (yet).
fn quiet_tree(_: usize) -> RTree<R, PanickingStore> {
    let store = PanickingStore {
        inner: Pager::with_page_size(256),
        victim: AtomicU32::new(u32::MAX),
    };
    RTree::new(store, RTreeConfig::default())
}

/// A server under `grid` in which reading the leaf that holds `oid`
/// panics, in whichever region that leaf lives.
fn panicking_at(grid: RegionGrid, recs: &[R], oid: u32) -> PartitionedDqServer<2, PanickingStore> {
    let server = PartitionedDqServer::build(grid, recs, quiet_tree);
    let region = server.grid().route_rect(&recs[oid as usize].seg.spatial_bbox()).start;
    server.with_region_tree(region, |tree| {
        let victim = leaf_page_of(tree, oid);
        tree.store().victim.store(victim.0, Ordering::Relaxed);
    });
    server
}

/// The retired-zombie regression: a session that panics mid-run (a page
/// read on its sweep path blows up) detaches from its clocks instead of
/// parking on a barrier. The writer keeps applying every batch, the
/// healthy session's results are bit-identical to a run without the
/// doomed session, and the serve terminates (this test completing *is*
/// the no-deadlock assertion).
#[test]
fn mid_run_panic_neither_deadlocks_nor_perturbs_others() {
    let recs = line_records(40);
    // Inserts land in the healthy session's lane only, far from the
    // victim leaf, so the writer's descent never touches it.
    let inserts: Vec<Vec<(R, f64)>> = (0..8)
        .map(|k| {
            let t = k as f64;
            vec![(
                R::new(500 + k as u32, 0, Interval::new(t, 100.0), [2.25, 0.5], [2.25, 0.5]),
                t,
            )]
        })
        .collect();
    let healthy = slide_spec(SessionKind::Pdq, 0.0, 8, 8.0);
    let doomed = slide_spec(SessionKind::Pdq, 24.0, 8, 8.0);

    // Reading the leaf that holds oid 28 panics, so the doomed session's
    // descent dies there (contained fail-stop).
    let server = panicking_at(RegionGrid::single(), &recs, 28);

    let report = server.serve(&[healthy.clone(), doomed], &inserts);
    assert!(
        matches!(report.sessions[1].outcome, SessionOutcome::Failed(_)),
        "doomed session should have died, got {:?}",
        report.sessions[1].outcome
    );
    // Every frame's batch still applied after the detach.
    assert_eq!(report.frames, 8);
    assert_eq!(report.inserts_applied, 8);
    assert!(report.writer_outcome.is_ok());

    // The healthy session is oblivious: same results as a run that
    // never had the doomed session at all, on a clean store.
    let oracle = PartitionedDqServer::build(RegionGrid::single(), &recs, |_| {
        RTree::new(Pager::with_page_size(256), RTreeConfig::default())
    })
    .serve_serial_plans(&[SessionPlan::new(healthy)], &inserts);
    assert!(report.sessions[0].outcome.is_ok());
    assert_eq!(report.sessions[0].results, oracle.sessions[0].results);
    assert_eq!(report.sessions[0].frames.len(), 8);
}

const SLABS: usize = 4;
const SLAB: f64 = 25.0;
const STALL_FRAMES: usize = 30;
/// How long the stalled session waits for the others before the test
/// gives up on them.
const GUARD: Duration = Duration::from_secs(30);

/// Frames each session has delivered, and what they were when session 0
/// woke from its stall.
#[derive(Default)]
struct StallState {
    seen: [usize; SLABS],
    at_wake: Option<[usize; SLABS]>,
}

/// Session 0 parks in its first frame's sink, so it never acks that
/// frame; the sink of the last other session to deliver its final frame
/// wakes it.
#[derive(Default)]
struct Stall {
    state: Mutex<StallState>,
    others_done: Condvar,
}

impl FrameSink for Stall {
    fn on_frame(&self, d: &FrameDelta<'_>) -> SinkVerdict {
        let unfinished = |s: &mut StallState| s.seen[1..].iter().any(|&n| n < STALL_FRAMES);
        let mut st = self.state.lock().unwrap();
        st.seen[d.session] += 1;
        if d.session == 0 && st.seen[0] == 1 {
            let (mut st, _) = self.others_done.wait_timeout_while(st, GUARD, unfinished).unwrap();
            st.at_wake = Some(st.seen);
        } else if !unfinished(&mut st) {
            self.others_done.notify_all();
        }
        SinkVerdict::Continue
    }
}

/// Straggler isolation under per-region clocks: four uniform slabs, one
/// PDQ session confined to each, one insert per region every frame.
/// Session 0 stalls at its first frame, so region 0's writer can apply
/// nothing past batch 0 — and sessions 1–3 must still deliver every
/// frame. A session that waited on a region outside its lanes would
/// stall with it and fail the bounded wait instead of running slow.
#[test]
fn a_stalled_session_holds_back_only_its_regions() {
    let preload: Vec<R> = (0..SLABS as u32)
        .flat_map(|r| (0..50).map(move |i| (r, i)))
        .map(|(r, i)| {
            let x = f64::from(r) * SLAB + 0.5 + f64::from(i) * (SLAB - 1.0) / 50.0;
            R::new(r * 10_000 + i, 0, Interval::new(0.0, 1_000.0), [x, 0.5], [x, 0.5])
        })
        .collect();
    let inserts: Vec<Vec<(R, f64)>> = (0..STALL_FRAMES as u32)
        .map(|k| {
            let t = f64::from(k);
            (0..SLABS as u32)
                .map(|r| {
                    let x = f64::from(r) * SLAB + 1.0 + f64::from((k + r) % 20);
                    let oid = 50_000 + k * 4 + r;
                    (R::new(oid, 0, Interval::new(t, 1_000.0), [x, 0.5], [x, 0.5]), t)
                })
                .collect()
        })
        .collect();
    let span = STALL_FRAMES as f64;
    let plans: Vec<SessionPlan<2>> = (0..SLABS)
        .map(|r| {
            let x0 = r as f64 * SLAB + 1.0;
            SessionPlan::new(SessionSpec {
                kind: SessionKind::Pdq,
                trajectory: Trajectory::linear(
                    Rect::from_corners([x0, 0.0], [x0 + 2.0, 1.0]),
                    [(SLAB - 4.0) / span, 0.0],
                    Interval::new(0.0, span),
                    2,
                ),
                frame_times: (0..=STALL_FRAMES).map(|k| k as f64).collect(),
            })
        })
        .collect();
    let grid = RegionGrid::uniform(0, Interval::new(0.0, SLABS as f64 * SLAB), SLABS);

    let stall = Stall::default();
    let sinks = vec![Some(&stall as &dyn FrameSink); SLABS];
    let p = partitioned(grid.clone(), &preload).serve_plans_streamed(&plans, &inserts, &sinks);
    let at_wake = stall.state.lock().unwrap().at_wake.expect("session 0 parked");
    let unfinished: Vec<usize> = (1..SLABS).filter(|&i| at_wake[i] < STALL_FRAMES).collect();
    assert!(
        unfinished.is_empty(),
        "sessions {unfinished:?} did not finish while session 0 was parked (frames {at_wake:?})"
    );
    assert_eq!(at_wake[0], 1, "session 0 was parked at its first frame");

    let s = partitioned(grid, &preload).serve_serial_plans(&plans, &inserts);
    for (i, (a, b)) in p.sessions.iter().zip(&s.sessions).enumerate() {
        assert!(a.outcome.is_ok(), "session {i}: {:?}", a.outcome);
        assert_eq!(a.frames.len(), STALL_FRAMES, "session {i}");
        assert_eq!(a.results, b.results, "session {i}");
    }
}
