//! Space partitioning for multi-tree serving: a 1-D slab grid.
//!
//! The partitioned server (see [`crate::router`]) splits space into
//! *regions*, each owning its own NSI tree, writer, and buffer-pool
//! slice. [`RegionGrid`] is the partition function: `n − 1` strictly
//! increasing interior cuts along one axis define `n` slabs, with the
//! outer slabs extending to ±∞ so every record routes somewhere. Slabs
//! are **closed** on both sides for routing: a trapezoid segment that
//! merely *touches* a cut is replicated into both neighbouring trees, and
//! each region's lane may match it. [`RegionGrid::owner`] names the one
//! that emits it — a half-open slab, found from the record alone by
//! comparisons against the cuts — so the client sees one entry event and
//! nothing remembers what was sent (the reference-point method, Dittrich
//! & Seeger, ICDE 2000).
//!
//! [`RegionGrid::recut`] is the load-adaptive half (after Kiwano,
//! arXiv 1211.4414): given per-region load tallies it places new cuts at
//! equal-load quantiles of the piecewise-uniform load density, so a
//! hotspot slab shrinks and its cold neighbours widen.

use stkit::{Interval, Rect};
use std::ops::Range;

/// A 1-D slab partition of `D`-space: interior cuts along `axis`,
/// outermost slabs unbounded.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionGrid {
    axis: usize,
    /// Strictly increasing, finite interior cut positions.
    cuts: Vec<f64>,
}

impl RegionGrid {
    /// The trivial grid: one region covering everything (partitioned
    /// serving degenerates to the single-tree server).
    pub fn single() -> RegionGrid {
        RegionGrid {
            axis: 0,
            cuts: Vec::new(),
        }
    }

    /// `regions` equal-width slabs over `span` along `axis` (the outer
    /// two still extend to ±∞ beyond `span`).
    pub fn uniform(axis: usize, span: Interval, regions: usize) -> RegionGrid {
        assert!(regions >= 1, "need at least one region");
        assert!(!span.is_empty(), "span must be non-empty");
        let cuts = (1..regions)
            .map(|k| span.lo + (span.hi - span.lo) * k as f64 / regions as f64)
            .collect();
        RegionGrid { axis, cuts }
    }

    /// A grid from explicit interior cuts (must be finite and strictly
    /// increasing). `cuts.len() + 1` regions result.
    pub fn from_cuts(axis: usize, cuts: Vec<f64>) -> RegionGrid {
        assert!(
            cuts.iter().all(|c| c.is_finite()),
            "cuts must be finite"
        );
        assert!(
            cuts.windows(2).all(|w| w[0] < w[1]),
            "cuts must be strictly increasing"
        );
        RegionGrid { axis, cuts }
    }

    /// Number of regions (always ≥ 1).
    pub fn len(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Never true — a grid always has at least one region.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The axis the grid cuts along.
    pub fn axis(&self) -> usize {
        self.axis
    }

    /// The interior cut positions.
    pub fn cuts(&self) -> &[f64] {
        &self.cuts
    }

    /// Region `i`'s slab on the cut axis (outer slabs are half-infinite).
    pub fn span_of(&self, i: usize) -> Interval {
        let lo = if i == 0 {
            f64::NEG_INFINITY
        } else {
            self.cuts[i - 1]
        };
        let hi = if i == self.cuts.len() {
            f64::INFINITY
        } else {
            self.cuts[i]
        };
        Interval::new(lo, hi)
    }

    /// The contiguous range of regions a cut-axis interval overlaps.
    /// Slabs are closed, so an interval *touching* a cut includes both
    /// sides; an empty interval routes nowhere.
    pub fn route_interval(&self, iv: &Interval) -> Range<usize> {
        if iv.is_empty() {
            return 0..0;
        }
        // First region whose right edge reaches iv.lo …
        let first = self.cuts.partition_point(|c| *c < iv.lo);
        // … through the last region whose left edge is within iv.hi.
        let last = self.cuts.partition_point(|c| *c <= iv.hi);
        first..last + 1
    }

    /// The regions a rectangle overlaps (closed-boundary, like
    /// [`Self::route_interval`]); a rect lying on a seam routes to both
    /// neighbours, so whichever of them [`Self::owner`] names holds it.
    pub fn route_rect<const D: usize>(&self, rect: &Rect<D>) -> Range<usize> {
        self.route_interval(&rect.extent(self.axis))
    }

    /// The one lane of `lanes` (a session's non-empty route of its swept
    /// bounds) that emits a match on a record routed by `rect`: the
    /// half-open slab holding the low end of `rect`'s extent, clamped into
    /// `lanes` — always a slab holding a replica (DESIGN.md §2e).
    pub fn owner<const D: usize>(&self, rect: &Rect<D>, lanes: &Range<usize>) -> usize {
        let lo = rect.extent(self.axis).lo;
        self.cuts.partition_point(|c| *c <= lo).clamp(lanes.start, lanes.end - 1)
    }

    /// Re-partition into `target` regions at equal-load quantiles.
    ///
    /// `loads[i]` is region `i`'s accumulated load (node reads + writes,
    /// from the per-region obs counters), modelled as spread uniformly
    /// over its slab clamped to `bounds` (the outer half-infinite slabs
    /// must be pinned to something finite — the data's extent). Cuts land
    /// where the piecewise-linear cumulative load crosses `k/target` of
    /// the total; zero total load falls back to the uniform grid.
    pub fn recut(&self, bounds: Interval, loads: &[u64], target: usize) -> RegionGrid {
        assert_eq!(loads.len(), self.len(), "one load tally per region");
        assert!(target >= 1, "need at least one region");
        assert!(!bounds.is_empty(), "bounds must be non-empty");
        let total: u64 = loads.iter().sum();
        if total == 0 || target == 1 {
            return if target == 1 {
                RegionGrid {
                    axis: self.axis,
                    cuts: Vec::new(),
                }
            } else {
                RegionGrid::uniform(self.axis, bounds, target)
            };
        }
        // Slab edges clamped into bounds: x[0]=bounds.lo … x[n]=bounds.hi.
        let n = self.len();
        let mut edges = Vec::with_capacity(n + 1);
        edges.push(bounds.lo);
        for c in &self.cuts {
            edges.push(c.clamp(bounds.lo, bounds.hi));
        }
        edges.push(bounds.hi);
        let mut cuts = Vec::with_capacity(target - 1);
        let mut acc = 0.0f64;
        let mut slab = 0usize;
        for k in 1..target {
            let want = total as f64 * k as f64 / target as f64;
            // Advance to the slab containing the k-th load quantile.
            while slab < n && acc + (loads[slab] as f64) < want {
                acc += loads[slab] as f64;
                slab += 1;
            }
            let (lo, hi) = (edges[slab], edges[slab + 1]);
            let load = loads.get(slab).copied().unwrap_or(0) as f64;
            let frac = if load > 0.0 { (want - acc) / load } else { 0.5 };
            let x = lo + (hi - lo) * frac.clamp(0.0, 1.0);
            // Keep cuts strictly increasing and interior to bounds; a
            // quantile collapsing onto its predecessor (zero-width hot
            // slab) is dropped — fewer regions beat an empty one.
            if x > bounds.lo && x < bounds.hi && cuts.last().is_none_or(|&p| x > p) {
                cuts.push(x);
            }
        }
        RegionGrid {
            axis: self.axis,
            cuts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_grid_routes_everything_to_region_zero() {
        let g = RegionGrid::single();
        assert_eq!(g.len(), 1);
        assert_eq!(g.route_interval(&Interval::new(-1e12, 1e12)), 0..1);
        assert_eq!(g.span_of(0), Interval::new(f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn uniform_cuts_are_evenly_spaced() {
        let g = RegionGrid::uniform(1, Interval::new(0.0, 100.0), 4);
        assert_eq!(g.len(), 4);
        assert_eq!(g.cuts(), &[25.0, 50.0, 75.0]);
        assert_eq!(g.axis(), 1);
        assert_eq!(g.span_of(0), Interval::new(f64::NEG_INFINITY, 25.0));
        assert_eq!(g.span_of(1), Interval::new(25.0, 50.0));
        assert_eq!(g.span_of(3), Interval::new(75.0, f64::INFINITY));
    }

    #[test]
    fn interior_interval_routes_to_one_region() {
        let g = RegionGrid::from_cuts(0, vec![10.0, 20.0]);
        assert_eq!(g.route_interval(&Interval::new(11.0, 19.0)), 1..2);
        assert_eq!(g.route_interval(&Interval::new(-5.0, 9.0)), 0..1);
        assert_eq!(g.route_interval(&Interval::new(21.0, 1e9)), 2..3);
    }

    #[test]
    fn spanning_interval_routes_to_every_region_it_crosses() {
        let g = RegionGrid::from_cuts(0, vec![10.0, 20.0]);
        assert_eq!(g.route_interval(&Interval::new(5.0, 25.0)), 0..3);
        assert_eq!(g.route_interval(&Interval::new(9.0, 11.0)), 0..2);
    }

    #[test]
    fn seam_touching_interval_routes_to_both_sides() {
        // Closed slabs: the point interval exactly on a cut belongs to
        // the regions on BOTH sides — the exactly-once seam rule.
        let g = RegionGrid::from_cuts(0, vec![5.0]);
        assert_eq!(g.route_interval(&Interval::new(5.0, 5.0)), 0..2);
        assert_eq!(g.route_interval(&Interval::new(5.0, 7.0)), 0..2);
        assert_eq!(g.route_interval(&Interval::new(3.0, 5.0)), 0..2);
        // Strictly past the cut: one side only.
        assert_eq!(g.route_interval(&Interval::new(5.1, 7.0)), 1..2);
    }

    #[test]
    fn empty_interval_routes_nowhere() {
        let g = RegionGrid::from_cuts(0, vec![5.0]);
        assert_eq!(g.route_interval(&Interval::EMPTY), 0..0);
    }

    #[test]
    fn rect_routes_by_grid_axis_extent() {
        let g = RegionGrid::from_cuts(1, vec![50.0]);
        let low: Rect<2> = Rect::from_corners([0.0, 0.0], [100.0, 49.0]);
        let straddle: Rect<2> = Rect::from_corners([0.0, 40.0], [1.0, 60.0]);
        assert_eq!(g.route_rect(&low), 0..1);
        assert_eq!(g.route_rect(&straddle), 0..2);
    }

    /// A 1-D rect over `[lo, hi]`: the owner reads only the grid axis.
    fn span(lo: f64, hi: f64) -> Rect<1> {
        Rect::new([Interval::new(lo, hi)])
    }

    #[test]
    fn owner_edges() {
        let g = RegionGrid::from_cuts(0, vec![5.0, 10.0]);
        // A low end exactly on a cut belongs to the slab on its right …
        assert_eq!(g.owner(&span(5.0, 7.0), &(0..3)), 1);
        assert_eq!(g.owner(&span(4.0, 5.0), &(0..3)), 0);
        // … and one left of the lanes to the first lane, which it crosses.
        assert_eq!(g.owner(&span(4.0, 12.0), &(1..3)), 1);
        assert_eq!(g.owner(&span(11.0, 12.0), &(0..2)), 1, "clamped; it cannot match");
        assert_eq!(RegionGrid::single().owner(&span(-1e9, 1e9), &(0..1)), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Ownership never loses a match: whenever a record's extent meets
        /// the session's swept extent, its owner is one of the session's
        /// lanes and one of the slabs the record was routed to. Many draws
        /// put the record's low end exactly on a cut.
        #[test]
        fn the_owner_is_a_lane_that_holds_a_replica(
            raw in proptest::collection::vec(-50.0f64..50.0, 0..6),
            (lo, len, on_cut) in (-60.0f64..60.0, 0.0f64..30.0, 0usize..12),
            (swept_lo, swept_len) in (-60.0f64..60.0, 0.0f64..40.0),
        ) {
            let mut cuts = raw;
            cuts.sort_unstable_by(f64::total_cmp);
            cuts.dedup();
            let lo = cuts.get(on_cut).copied().unwrap_or(lo);
            let g = RegionGrid::from_cuts(0, cuts);
            let (rec, swept) = (span(lo, lo + len), span(swept_lo, swept_lo + swept_len));
            let lanes = g.route_rect(&swept);
            if rec.extent(0).overlaps(&swept.extent(0)) {
                let owner = g.owner(&rec, &lanes);
                proptest::prop_assert!(lanes.contains(&owner), "{owner} not in {lanes:?}");
                let routed = g.route_rect(&rec);
                proptest::prop_assert!(routed.contains(&owner), "{owner} not in {routed:?}");
            }
        }
    }

    #[test]
    fn recut_moves_cuts_toward_the_hot_region() {
        let g = RegionGrid::uniform(0, Interval::new(0.0, 100.0), 2);
        // Region 0 carries 3× region 1's load: the new cut must move
        // left of 50 so the hot half shrinks.
        let r = g.recut(Interval::new(0.0, 100.0), &[300, 100], 2);
        assert_eq!(r.len(), 2);
        assert!(r.cuts()[0] < 50.0, "cut {} should move left", r.cuts()[0]);
        // Equal-load quantile of a piecewise-uniform density: 200 of the
        // 400 total sits at x = 100 * (200/300) / 2 = 33.3….
        assert!((r.cuts()[0] - 100.0 * (2.0 / 3.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn recut_with_zero_load_is_uniform() {
        let g = RegionGrid::uniform(0, Interval::new(0.0, 80.0), 2);
        let r = g.recut(Interval::new(0.0, 80.0), &[0, 0], 4);
        assert_eq!(r.cuts(), &[20.0, 40.0, 60.0]);
    }

    #[test]
    fn recut_can_change_region_count() {
        let g = RegionGrid::single();
        let r = g.recut(Interval::new(0.0, 10.0), &[1000], 4);
        assert_eq!(r.len(), 4);
        assert_eq!(r.cuts(), &[2.5, 5.0, 7.5]);
        let back = r.recut(Interval::new(0.0, 10.0), &[1, 1, 1, 1], 1);
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn recut_balances_loads_when_rerouted() {
        // After recutting on skewed loads, a uniform point workload over
        // the hot slab spreads across more regions than before.
        let g = RegionGrid::uniform(0, Interval::new(0.0, 100.0), 4);
        let r = g.recut(Interval::new(0.0, 100.0), &[900, 30, 40, 30], 4);
        assert_eq!(r.len(), 4);
        // Three of the four slabs now live inside the old hot [0, 25).
        assert!(r.cuts()[2] <= 25.0 + 1e-9, "cuts {:?}", r.cuts());
    }
}
