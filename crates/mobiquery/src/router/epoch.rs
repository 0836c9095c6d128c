//! Epochs: a run is cut at its [`RecutPlan`] frames into stretches that
//! each serve one grid. The serve loop runs an epoch to its end, recuts
//! ([`handoff`]), and runs the next — no participant ever sees two. A
//! run without recuts is one epoch.

use super::lanes::Slate;
use super::rebuild::{build_regions, dedup_from, record_bounds};
use super::RegionTree;
use crate::clock::{FrameClock, SessionLiveness};
use crate::region::RegionGrid;
use crate::service::SessionPlan;
use parking_lot::RwLock;
use rtree::{NsiSegmentRecord, RTree};
use std::ops::Range;
use std::sync::Arc;
use storage::PageStore;

/// A scheduled live recut: at the start of frame `at_frame` the grid is
/// recut into `target_regions` at equal-load quantiles of the load
/// measured so far, while sessions keep running.
#[derive(Clone, Copy, Debug)]
pub struct RecutPlan {
    /// Global frame at whose boundary the handoff happens (the new grid
    /// serves frames `at_frame..`). Must be strictly inside the run.
    pub at_frame: usize,
    /// Region count after the recut (>= 1).
    pub target_regions: usize,
}

impl RecutPlan {
    /// A recut at frame `at_frame` into `target_regions` regions.
    pub fn new(at_frame: usize, target_regions: usize) -> Self {
        RecutPlan {
            at_frame,
            target_regions,
        }
    }
}

/// One epoch of the concurrent serve: a grid, its trees, and per region
/// one frame clock and one [`Slate`] — everything a recut replaces
/// wholesale.
pub(super) struct Epoch<const D: usize, S: PageStore> {
    /// First global frame this epoch serves.
    pub(super) start: usize,
    /// One past the last global frame this epoch serves.
    pub(super) end: usize,
    pub(super) grid: RegionGrid,
    pub(super) trees: Vec<RegionTree<D, S>>,
    /// `clocks[r]` orders region `r`'s frames against its sessions.
    pub(super) clocks: Vec<FrameClock>,
    /// `slates[r]`: the insert reports of the last frame region `r`'s
    /// writer applied, for the PDQ lanes on `r` to absorb.
    pub(super) slates: Vec<RwLock<Slate<D>>>,
    /// `windows[i]`: the frames of this epoch session `i` consumes.
    pub(super) windows: Vec<Option<(u64, u64)>>,
}

/// Every plan's inclusive frame window clamped to the epoch
/// `[start, end)`: `None` where the plan has no frame in it.
pub(super) fn epoch_windows(
    plan_windows: &[Option<(u64, u64)>],
    start: usize,
    end: usize,
) -> Vec<Option<(u64, u64)>> {
    let clamp = |(f, l): (u64, u64)| {
        let (f, l) = (f.max(start as u64), l.min(end.saturating_sub(1) as u64));
        (f <= l).then_some((f, l))
    };
    plan_windows.iter().map(|w| w.and_then(clamp)).collect()
}

/// One blank slate per region of an `n`-region epoch.
pub(super) fn blank_slates<const D: usize>(n: usize) -> Vec<RwLock<Slate<D>>> {
    (0..n).map(|_| RwLock::new(Slate::default())).collect()
}

/// Build one epoch: clamp every plan's window to `[start, end)` and give
/// each region a blank slate and a clock that knows exactly which
/// sessions are attached to it — session `i` to region `r` over its
/// clamped window, when its lanes under `grid` reach `r` and its window
/// the epoch. `live` is shared by every epoch of the run, so a session
/// that died in an earlier one holds nobody.
#[allow(clippy::too_many_arguments)]
pub(super) fn make_epoch<const D: usize, S: PageStore>(
    plans: &[SessionPlan<D>],
    plan_windows: &[Option<(u64, u64)>],
    grid: RegionGrid,
    trees: Vec<RegionTree<D, S>>,
    live: &Arc<SessionLiveness>,
    start: usize,
    end: usize,
    durable: bool,
) -> Epoch<D, S> {
    let n = grid.len();
    let lanes: Vec<Range<usize>> = plans
        .iter()
        .map(|p| grid.route_rect(&p.spec.trajectory.swept_bounds()))
        .collect();
    let windows = epoch_windows(plan_windows, start, end);
    let clocks: Vec<FrameClock> = (0..n)
        .map(|r| {
            let attached = windows
                .iter()
                .zip(&lanes)
                .map(|(w, lanes)| w.filter(|_| lanes.contains(&r)))
                .collect();
            FrameClock::new(attached, Arc::clone(live), start as u64, durable)
        })
        .collect();
    Epoch {
        start,
        end,
        grid,
        trees,
        clocks,
        slates: blank_slates(n),
        windows,
    }
}

/// Epoch boundaries of a run: `[0, recut frames..., steps]`. Recut
/// frames must be strictly increasing and strictly inside the run.
pub(super) fn epoch_bounds(recuts: &[RecutPlan], steps: usize) -> Vec<usize> {
    let mut bounds = vec![0];
    for rp in recuts {
        assert!(
            rp.at_frame > *bounds.last().expect("non-empty") && rp.at_frame < steps,
            "recut frames must be strictly increasing and inside the run"
        );
        assert!(rp.target_regions >= 1, "recut needs at least one region");
        bounds.push(rp.at_frame);
    }
    bounds.push(steps);
    bounds
}

/// The recut, live or between serves: with nobody reading or writing
/// `trees`, collect every record (seam replicas collapse), recut `grid`
/// into `target_regions` at equal-load quantiles of `loads`, and pack the
/// record set into fresh trees under the new cuts.
pub(super) fn handoff<const D: usize, S: PageStore>(
    grid: &RegionGrid,
    trees: &[RegionTree<D, S>],
    loads: &[u64],
    target_regions: usize,
    make_tree: &mut dyn FnMut(usize) -> RTree<NsiSegmentRecord<D>, S>,
) -> (RegionGrid, Vec<RegionTree<D, S>>) {
    let records = dedup_from(trees);
    let grid = grid.recut(record_bounds(grid.axis(), &records), loads, target_regions);
    let trees = build_regions(&grid, &records, make_tree);
    (grid, trees)
}
