//! Straggler isolation under per-region frame clocks.
//!
//! The point of replacing the global frame barrier with per-region
//! [`mobiquery::FrameClock`]s is that a slow session back-pressures only
//! the regions its query actually touches. This bench measures exactly
//! that: four uniform regions, one PDQ session confined to each slab,
//! per-frame inserts landing in every region — run once clean, then once
//! with session 0 given an artificial per-frame consumption delay
//! ([`mobiquery::SessionPlan::with_frame_delay`]).
//!
//! Under the old barrier every session would finish at the straggler's
//! pace. Under the clocks, only region 0's writer waits for the slow
//! permit; sessions 1–3 must keep their frames/s within a whisker of the
//! clean run. `tools/check.sh --only clock` enforces the bound
//! (non-stalled frames/s ratio >= 0.9) from the emitted JSON.
//!
//! Knobs: `DQ_STRAGGLER_FRAMES` (default 30), `DQ_STRAGGLER_DELAY_MS`
//! (default 3).

use bench::{f2, FigureTable};
use mobiquery::{PartitionedDqServer, RegionGrid, SessionKind, SessionPlan, SessionSpec, Trajectory};
use rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use std::time::Duration;
use stkit::{Interval, Rect};
use storage::Pager;

type R = NsiSegmentRecord<2>;

const REGIONS: usize = 4;
/// Width of each region's slab on the x axis.
const SLAB: f64 = 25.0;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Preload: a dense line of objects per slab, alive the whole run.
fn preload(per_region: u32) -> Vec<R> {
    let mut recs = Vec::new();
    for r in 0..REGIONS as u32 {
        for i in 0..per_region {
            let x = r as f64 * SLAB + (0.5 + f64::from(i) * (SLAB - 1.0) / f64::from(per_region));
            let oid = r * 10_000 + i;
            recs.push(R::new(oid, 0, Interval::new(0.0, 1_000.0), [x, 0.5], [x, 0.5]));
        }
    }
    recs
}

/// Per-frame batches dropping one fresh object into every region, so
/// all four writers stay active and flow control is actually exercised.
fn inserts(frames: usize) -> Vec<Vec<(R, f64)>> {
    (0..frames)
        .map(|k| {
            let t = k as f64;
            (0..REGIONS as u32)
                .map(|r| {
                    let oid = 50_000 + (k as u32) * REGIONS as u32 + r;
                    let x = r as f64 * SLAB + 1.0 + (oid % 20) as f64;
                    (R::new(oid, 0, Interval::new(t, 1_000.0), [x, 0.5], [x, 0.5]), t)
                })
                .collect()
        })
        .collect()
}

/// One PDQ session sweeping inside region `r`'s slab only (its lane set
/// is exactly one region, so it shares no clock with the others).
fn session(r: usize, frames: usize) -> SessionSpec<2> {
    let x0 = r as f64 * SLAB + 1.0;
    let span = frames as f64;
    // Sweep slowly enough to stay inside the slab.
    let speed = (SLAB - 4.0) / span;
    SessionSpec {
        kind: SessionKind::Pdq,
        trajectory: Trajectory::linear(
            Rect::from_corners([x0, 0.0], [x0 + 2.0, 1.0]),
            [speed, 0.0],
            Interval::new(0.0, span),
            2,
        ),
        frame_times: (0..=frames).map(|k| k as f64).collect(),
    }
}

struct RunFigures {
    /// Per-session frames per second (wall clock of that session alone).
    fps: Vec<f64>,
    /// Per-session p99 frame latency, microseconds.
    p99_us: Vec<f64>,
}

fn run(plans: &[SessionPlan<2>], frames: usize) -> RunFigures {
    let grid = RegionGrid::uniform(0, Interval::new(0.0, REGIONS as f64 * SLAB), REGIONS);
    let server = PartitionedDqServer::build(grid, &preload(200), |_| {
        RTree::new(Pager::new(), RTreeConfig::default())
    });
    let report = server.serve_plans(plans, &inserts(frames));
    assert!(report.base.writer_outcome.is_ok());
    let mut fps = Vec::new();
    let mut p99 = Vec::new();
    for (i, s) in report.sessions.iter().enumerate() {
        assert!(s.outcome.is_ok(), "session {i}: {:?}", s.outcome);
        assert_eq!(s.frames.len(), frames, "session {i} frame count");
        fps.push(s.frames.len() as f64 / (s.wall_ns.max(1) as f64 / 1e9));
        let mut lat: Vec<u64> = s.frames.iter().map(|f| f.latency_ns).collect();
        lat.sort_unstable();
        let idx = (lat.len() as f64 * 0.99).ceil() as usize - 1;
        p99.push(lat[idx.min(lat.len() - 1)] as f64 / 1e3);
    }
    RunFigures { fps, p99_us: p99 }
}

fn main() {
    let frames = env_usize("DQ_STRAGGLER_FRAMES", 30);
    let delay_ms = env_usize("DQ_STRAGGLER_DELAY_MS", 3);

    let specs: Vec<SessionSpec<2>> = (0..REGIONS).map(|r| session(r, frames)).collect();
    let clean: Vec<SessionPlan<2>> = specs.iter().cloned().map(SessionPlan::new).collect();
    let mut stalled = clean.clone();
    stalled[0] = stalled[0]
        .clone()
        .with_frame_delay(Duration::from_millis(delay_ms as u64));

    let baseline = run(&clean, frames);
    let straggler = run(&stalled, frames);

    let mut table = FigureTable::new(
        "exp_service_straggler",
        "per-region clocks: one slow session must not stall the other regions",
        &[
            "region",
            "span",
            "baseline fps",
            "straggler fps",
            "ratio",
            "baseline p99 us",
            "straggler p99 us",
            "straggler?",
        ],
    );
    for r in 0..REGIONS {
        let ratio = straggler.fps[r] / baseline.fps[r];
        table.row(vec![
            format!("{r}"),
            format!("[{:.0}, {:.0})", r as f64 * SLAB, (r + 1) as f64 * SLAB),
            f2(baseline.fps[r]),
            f2(straggler.fps[r]),
            f2(ratio),
            f2(baseline.p99_us[r]),
            f2(straggler.p99_us[r]),
            if r == 0 { "yes" } else { "no" }.to_string(),
        ]);
    }
    table.print();
    table.write_json();

    // The straggler itself must actually have been slowed (or the run
    // proves nothing): its frame pace is bounded by the injected delay.
    let floor = frames as f64 / ((frames * delay_ms) as f64 / 1e3);
    assert!(
        straggler.fps[0] <= floor * 1.5,
        "straggler fps {:.1} not bounded by its delay (floor {:.1})",
        straggler.fps[0],
        floor
    );
}
