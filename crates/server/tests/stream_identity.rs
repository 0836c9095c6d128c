//! The server's core assumption, tested without sockets: a
//! `serve_plans_streamed` run — one region or several — hands its sinks
//! per-frame deltas that concatenate to exactly the serial reference
//! results.

use std::sync::Mutex;
use mobiquery::region::RegionGrid;
use mobiquery::router::PartitionedDqServer;
use mobiquery::{
    FrameDelta, FrameSink, NsiRecord, SessionKind, SessionPlan, SessionSpec, SinkVerdict,
    Trajectory,
};
use rtree::{RTree, RTreeConfig};
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

type Recorded = (u32, Vec<(u32, u32)>);

#[derive(Default)]
struct Rec {
    frames: Mutex<Vec<Recorded>>,
}

impl FrameSink for Rec {
    fn on_frame(&self, d: &FrameDelta<'_>) -> SinkVerdict {
        self.frames
            .lock()
            .unwrap()
            .push((d.frame as u32, d.results.to_vec()));
        SinkVerdict::Continue
    }
}

#[test]
fn streamed_matches_serial_on_one_and_two_regions() {
    let recs = line_records(30);
    let plans = vec![
        slide_plan(SessionKind::Pdq, 12, 30.0),
        slide_plan(SessionKind::Npdq, 12, 30.0),
        slide_plan(SessionKind::Pdq, 8, 30.0),
    ];
    let inserts = insert_schedule(12, 30.0);

    for cuts in [vec![], vec![15.0]] {
        let oracle = build_core(cuts.clone(), &recs).serve_serial_plans(&plans, &inserts);

        let sinks_owned: Vec<Rec> = plans.iter().map(|_| Rec::default()).collect();
        let sinks: Vec<Option<&dyn FrameSink>> =
            sinks_owned.iter().map(|s| Some(s as &dyn FrameSink)).collect();
        let streamed = build_core(cuts, &recs).serve_plans_streamed(&plans, &inserts, &sinks);

        for (i, sink) in sinks_owned.iter().enumerate() {
            assert_eq!(
                streamed.base.sessions[i].results, oracle.base.sessions[i].results,
                "session {i}: concurrent vs serial report"
            );
            let got: Vec<(u32, u32)> = sink
                .frames
                .lock()
                .unwrap()
                .iter()
                .flat_map(|(_, r)| r.iter().copied())
                .collect();
            let frames: Vec<u32> = sink
                .frames
                .lock()
                .unwrap()
                .iter()
                .map(|(f, _)| *f)
                .collect();
            let reported: Vec<u32> = streamed.base.sessions[i]
                .frames
                .iter()
                .map(|f| f.frame as u32)
                .collect();
            assert_eq!(frames, reported, "session {i}: one sink delta per frame");
            assert_eq!(
                got, oracle.base.sessions[i].results,
                "session {i}: sink deltas vs serial results"
            );
        }
    }
}
