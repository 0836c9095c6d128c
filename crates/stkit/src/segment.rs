//! Linear motion segments (§3.1, Eq. 1) and space-time boxes.
//!
//! The NSI representation of §3.2 indexes one bounding box per motion
//! update; at the leaf level the *actual* segment endpoints are kept so the
//! exact segment-vs-query test avoids false admissions. [`StBox`] is the
//! generic space-time box with `D` spatial axes and `T` temporal axes
//! (`T = 1` for the native layout, `T = 2` for the double-temporal-axes
//! layout of §4.2 Fig. 5(b)).

use crate::{Interval, LinearForm, Rect, Scalar};

/// A space-time box: `D` spatial extents plus `T` temporal extents.
///
/// `T = 1` is the native-space-indexing (NSI) layout where the single
/// temporal axis carries the motion's validity interval. `T = 2` is the
/// double-temporal-axes layout of §4.2: the motion's start and end times
/// are *independent* axes, so a motion is a point above the 45° line and
/// a snapshot query becomes a quadrant-shaped (half-open) box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StBox<const D: usize, const T: usize> {
    /// Spatial extents.
    pub space: Rect<D>,
    /// Temporal extents.
    pub time: Rect<T>,
}

impl<const D: usize, const T: usize> StBox<D, T> {
    /// The empty space-time box.
    pub const EMPTY: StBox<D, T> = StBox {
        space: Rect::EMPTY,
        time: Rect::EMPTY,
    };

    /// Build from spatial and temporal parts.
    #[inline]
    pub fn new(space: Rect<D>, time: Rect<T>) -> Self {
        StBox { space, time }
    }

    /// True iff any extent (spatial or temporal) is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.space.is_empty() || self.time.is_empty()
    }

    /// Componentwise intersection.
    #[inline]
    pub fn intersect(&self, other: &Self) -> Self {
        StBox {
            space: self.space.intersect(&other.space),
            time: self.time.intersect(&other.time),
        }
    }

    /// Componentwise coverage (minimum bounding box); empty operands are
    /// ignored so this is usable to grow R-tree node boxes.
    #[inline]
    pub fn cover(&self, other: &Self) -> Self {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        StBox {
            space: self.space.cover(&other.space),
            time: self.time.cover(&other.time),
        }
    }

    /// Overlap predicate across all `D + T` axes.
    #[inline]
    pub fn overlaps(&self, other: &Self) -> bool {
        self.space.overlaps(&other.space) && self.time.overlaps(&other.time)
    }

    /// True iff `other ⊆ self` on every axis.
    #[inline]
    pub fn contains(&self, other: &Self) -> bool {
        if other.is_empty() {
            return true;
        }
        self.space.contains_rect(&other.space) && self.time.contains_rect(&other.time)
    }

    /// Volume over all `D + T` axes (0 for empty boxes).
    #[inline]
    pub fn volume(&self) -> Scalar {
        if self.is_empty() {
            0.0
        } else {
            self.space.volume() * self.time.volume()
        }
    }

    /// Margin (sum of all extent lengths) over all axes.
    #[inline]
    pub fn margin(&self) -> Scalar {
        if self.is_empty() {
            0.0
        } else {
            self.space.margin() + self.time.margin()
        }
    }

    /// Volume increase of `self ⊎ other` relative to `self`.
    #[inline]
    pub fn enlargement(&self, other: &Self) -> Scalar {
        self.cover(other).volume() - self.volume()
    }

    /// Lower corner across all axes, spatial axes first.
    pub fn lo(&self) -> Vec<Scalar> {
        let mut v = Vec::with_capacity(D + T);
        v.extend(self.space.dims.iter().map(|i| i.lo));
        v.extend(self.time.dims.iter().map(|i| i.lo));
        v
    }

    /// Upper corner across all axes, spatial axes first.
    pub fn hi(&self) -> Vec<Scalar> {
        let mut v = Vec::with_capacity(D + T);
        v.extend(self.space.dims.iter().map(|i| i.hi));
        v.extend(self.time.dims.iter().map(|i| i.hi));
        v
    }
}

impl<const D: usize, const T: usize> Default for StBox<D, T> {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// A linear motion segment in `D` spatial dimensions (Eq. 1):
/// `x(t) = x_l + v · (t − t_l)` for `t ∈ [t_l, t_h]`.
///
/// This is the unit the database indexes — one segment per motion update.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MotionSegment<const D: usize> {
    /// Validity interval `[t_l, t_h]` of this motion update.
    pub t: Interval,
    /// Location at `t_l`.
    pub x0: [Scalar; D],
    /// Constant vector velocity.
    pub v: [Scalar; D],
}

impl<const D: usize> MotionSegment<D> {
    /// Build a segment from its initial location, velocity and validity.
    pub fn new(t: Interval, x0: [Scalar; D], v: [Scalar; D]) -> Self {
        debug_assert!(!t.is_empty(), "motion segment needs a validity interval");
        MotionSegment { t, x0, v }
    }

    /// Build from the two endpoints of the motion (positions at `t.lo` and
    /// `t.hi`). A zero-length validity yields a stationary segment.
    pub fn from_endpoints(t: Interval, a: [Scalar; D], b: [Scalar; D]) -> Self {
        let dt = t.length();
        let mut v = [0.0; D];
        if dt > 0.0 {
            for i in 0..D {
                v[i] = (b[i] - a[i]) / dt;
            }
        }
        MotionSegment { t, x0: a, v }
    }

    /// Location at time `t` per Eq. 1 (extrapolates outside validity; use
    /// [`Self::position_clamped`] when the validity bound matters).
    #[inline]
    pub fn position(&self, t: Scalar) -> [Scalar; D] {
        let dt = t - self.t.lo;
        let mut p = [0.0; D];
        for i in 0..D {
            p[i] = self.x0[i] + self.v[i] * dt;
        }
        p
    }

    /// Location at `t` clamped into the validity interval.
    #[inline]
    pub fn position_clamped(&self, t: Scalar) -> [Scalar; D] {
        self.position(self.t.clamp(t))
    }

    /// Location at the end of the validity interval.
    #[inline]
    pub fn end_position(&self) -> [Scalar; D] {
        self.position(self.t.hi)
    }

    /// The coordinate of the motion along dimension `i` as a linear form
    /// of absolute time.
    #[inline]
    pub fn coord_form(&self, i: usize) -> LinearForm {
        LinearForm::through(self.t.lo, self.x0[i], self.v[i])
    }

    /// Spatial bounding rectangle over the validity interval.
    pub fn spatial_bbox(&self) -> Rect<D> {
        let a = self.x0;
        let b = self.end_position();
        let mut dims = [Interval::EMPTY; D];
        for i in 0..D {
            dims[i] = Interval::new(a[i].min(b[i]), a[i].max(b[i]));
        }
        Rect::new(dims)
    }

    /// Where the overlap kernels can place this motion: each
    /// [`Self::coord_form`] line's [`LinearForm::reach_over`] the
    /// validity (empty validity ⇒ empty reach). A
    /// [`crate::MovingWindow`] whose own `reach` lies strictly beyond
    /// it in some dimension never sees the object.
    pub fn reach(&self) -> Rect<D> {
        let mut dims = [Interval::EMPTY; D];
        for i in 0..D {
            dims[i] = self.coord_form(i).reach_over(&self.t);
        }
        Rect::new(dims)
    }

    /// NSI bounding box (§3.2): spatial extents over validity × validity
    /// interval on the single temporal axis.
    pub fn nsi_box(&self) -> StBox<D, 1> {
        StBox::new(self.spatial_bbox(), Rect::new([self.t]))
    }

    /// Double-temporal-axes key (§4.2 Fig. 5(b)): spatial extents ×
    /// the point `(t_l, t_h)` on the (start, end) temporal plane.
    pub fn dta_box(&self) -> StBox<D, 2> {
        StBox::new(
            self.spatial_bbox(),
            Rect::new([Interval::point(self.t.lo), Interval::point(self.t.hi)]),
        )
    }

    /// Exact intersection test of the motion with a static space-time
    /// query (§3.2's leaf-level optimization): the time interval during
    /// which the object is inside `space`, restricted to the segment's
    /// validity and to `qtime`. Empty ⇒ the segment does not satisfy the
    /// query even if its bounding box does.
    pub fn intersect_query(&self, space: &Rect<D>, qtime: &Interval) -> Interval {
        let mut t = self.t.intersect(qtime);
        for i in 0..D {
            if t.is_empty() {
                return Interval::EMPTY;
            }
            t = t.intersect(&self.coord_form(i).solve_within(&space.extent(i)));
        }
        t
    }

    /// Squared distance between the object and a fixed point at time `t`
    /// (clamped to validity) — used by the kNN extension.
    pub fn dist_sq_at(&self, t: Scalar, p: &[Scalar; D]) -> Scalar {
        let x = self.position_clamped(t);
        let mut d2 = 0.0;
        for i in 0..D {
            let d = x[i] - p[i];
            d2 += d * d;
        }
        d2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(t0: f64, t1: f64, a: [f64; 2], b: [f64; 2]) -> MotionSegment<2> {
        MotionSegment::from_endpoints(Interval::new(t0, t1), a, b)
    }

    #[test]
    fn position_follows_eq_1() {
        let s = MotionSegment::new(Interval::new(1.0, 3.0), [0.0, 10.0], [2.0, -1.0]);
        assert_eq!(s.position(1.0), [0.0, 10.0]);
        assert_eq!(s.position(2.0), [2.0, 9.0]);
        assert_eq!(s.end_position(), [4.0, 8.0]);
        assert_eq!(s.position_clamped(100.0), [4.0, 8.0]);
        assert_eq!(s.position_clamped(-100.0), [0.0, 10.0]);
    }

    #[test]
    fn endpoints_roundtrip() {
        let s = seg(0.0, 4.0, [1.0, 1.0], [5.0, -3.0]);
        assert_eq!(s.v, [1.0, -1.0]);
        assert_eq!(s.end_position(), [5.0, -3.0]);
        // Zero-duration segment is stationary.
        let z = seg(2.0, 2.0, [1.0, 1.0], [9.0, 9.0]);
        assert_eq!(z.v, [0.0, 0.0]);
    }

    #[test]
    fn bbox_covers_trajectory() {
        let s = seg(0.0, 2.0, [0.0, 5.0], [4.0, 1.0]);
        let bb = s.spatial_bbox();
        assert_eq!(bb.extent(0), Interval::new(0.0, 4.0));
        assert_eq!(bb.extent(1), Interval::new(1.0, 5.0));
        let nsi = s.nsi_box();
        assert_eq!(nsi.time.extent(0), Interval::new(0.0, 2.0));
    }

    #[test]
    fn dta_box_is_point_on_temporal_plane() {
        let s = seg(1.0, 3.0, [0.0, 0.0], [1.0, 1.0]);
        let d = s.dta_box();
        assert_eq!(d.time.extent(0), Interval::point(1.0));
        assert_eq!(d.time.extent(1), Interval::point(3.0));
    }

    #[test]
    fn exact_intersection_beats_bbox() {
        // Segment runs along the diagonal; query box sits in the corner the
        // bbox covers but the segment never enters.
        let s = seg(0.0, 10.0, [0.0, 0.0], [10.0, 10.0]);
        let corner = Rect::from_corners([8.0, 0.0], [10.0, 2.0]);
        let all_time = Interval::new(0.0, 10.0);
        assert!(s.nsi_box().space.overlaps(&corner)); // bbox false positive
        assert!(s.intersect_query(&corner, &all_time).is_empty()); // exact says no

        // A box on the diagonal is hit, during the right time window.
        let on_path = Rect::from_corners([4.0, 4.0], [6.0, 6.0]);
        let hit = s.intersect_query(&on_path, &all_time);
        assert_eq!(hit, Interval::new(4.0, 6.0));

        // Temporal restriction clips the interval.
        let hit2 = s.intersect_query(&on_path, &Interval::new(5.0, 20.0));
        assert_eq!(hit2, Interval::new(5.0, 6.0));
    }

    #[test]
    fn stationary_segment_intersection() {
        let s = seg(0.0, 5.0, [3.0, 3.0], [3.0, 3.0]);
        let q = Rect::from_corners([2.0, 2.0], [4.0, 4.0]);
        assert_eq!(
            s.intersect_query(&q, &Interval::new(1.0, 2.0)),
            Interval::new(1.0, 2.0)
        );
        let miss = Rect::from_corners([4.5, 4.5], [6.0, 6.0]);
        assert!(s.intersect_query(&miss, &Interval::ALL).is_empty());
    }

    #[test]
    fn stbox_algebra() {
        let a: StBox<2, 1> = StBox::new(
            Rect::from_corners([0.0, 0.0], [4.0, 4.0]),
            Rect::new([Interval::new(0.0, 2.0)]),
        );
        let b: StBox<2, 1> = StBox::new(
            Rect::from_corners([2.0, 2.0], [6.0, 6.0]),
            Rect::new([Interval::new(1.0, 3.0)]),
        );
        assert!(a.overlaps(&b));
        let c = a.cover(&b);
        assert_eq!(c.space, Rect::from_corners([0.0, 0.0], [6.0, 6.0]));
        assert_eq!(c.time.extent(0), Interval::new(0.0, 3.0));
        assert_eq!(a.volume(), 32.0); // 4×4×2
        assert_eq!(a.margin(), 10.0); // 4+4+2
        assert!(c.contains(&a) && c.contains(&b));
        // Disjoint in time ⇒ no overlap even with identical space.
        let d: StBox<2, 1> = StBox::new(a.space, Rect::new([Interval::new(5.0, 6.0)]));
        assert!(!a.overlaps(&d));
        assert_eq!(a.enlargement(&b), b.cover(&a).volume() - 32.0);
    }

    #[test]
    fn stbox_corners() {
        let a: StBox<2, 1> = StBox::new(
            Rect::from_corners([0.0, 1.0], [4.0, 5.0]),
            Rect::new([Interval::new(7.0, 9.0)]),
        );
        assert_eq!(a.lo(), vec![0.0, 1.0, 7.0]);
        assert_eq!(a.hi(), vec![4.0, 5.0, 9.0]);
    }

    #[test]
    fn dist_sq() {
        let s = seg(0.0, 2.0, [0.0, 0.0], [2.0, 0.0]);
        assert_eq!(s.dist_sq_at(1.0, &[1.0, 3.0]), 9.0);
        // Clamped beyond validity.
        assert_eq!(s.dist_sq_at(5.0, &[2.0, 4.0]), 16.0);
    }
}
