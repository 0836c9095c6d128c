//! Linearly-moving query windows — the trapezoid segments of Fig. 3.
//!
//! Between two consecutive key snapshots `K^j` and `K^{j+1}` the query
//! window's lower and upper borders move linearly along every spatial
//! dimension (Fig. 1/3): at time `t ∈ [K^j.t, K^{j+1}.t]` the window is
//! `⟨[lo_i(t), hi_i(t)]⟩` with `lo_i, hi_i` linear in `t`. Eq. 3 computes
//! the overlap-time of such a segment with a bounding box by intersecting
//! the per-dimension, per-border solution intervals — the "four cases" of
//! Fig. 3(b) fall out of the sign of the border's slope, which
//! [`crate::LinearForm`] already handles.

use crate::{Interval, LinearForm, MotionSegment, Rect, Scalar};

/// A query window moving linearly over a time span: one trajectory segment
/// `S^j` of a predictive dynamic query.
///
/// ```
/// use stkit::{Interval, MovingWindow, Rect};
/// // A 2×2 window sliding right over t ∈ [0, 10].
/// let w = MovingWindow::between(
///     Interval::new(0.0, 10.0),
///     &Rect::from_corners([0.0, 0.0], [2.0, 2.0]),
///     &Rect::from_corners([10.0, 0.0], [12.0, 2.0]),
/// );
/// // When does it overlap a box at x ∈ [5, 6]? (Eq. 3 / Fig. 3.)
/// let hit = w.overlap_time_rect(
///     &Rect::from_corners([5.0, 0.0], [6.0, 2.0]),
///     &Interval::ALL,
/// );
/// assert_eq!(hit, Interval::new(3.0, 6.0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MovingWindow<const D: usize> {
    /// The time span `[K^j.t, K^{j+1}.t]` this segment covers.
    pub span: Interval,
    /// Lower border per spatial dimension, linear in absolute time.
    pub lo: [LinearForm; D],
    /// Upper border per spatial dimension, linear in absolute time.
    pub hi: [LinearForm; D],
}

impl<const D: usize> MovingWindow<D> {
    /// Interpolate a moving window between two key snapshots: window `a`
    /// at time `span.lo` and window `b` at time `span.hi`.
    pub fn between(span: Interval, a: &Rect<D>, b: &Rect<D>) -> Self {
        debug_assert!(!span.is_empty(), "moving window needs a non-empty span");
        let mut lo = [LinearForm::constant(0.0); D];
        let mut hi = [LinearForm::constant(0.0); D];
        for i in 0..D {
            lo[i] = LinearForm::between(span.lo, a.extent(i).lo, span.hi, b.extent(i).lo);
            hi[i] = LinearForm::between(span.lo, a.extent(i).hi, span.hi, b.extent(i).hi);
        }
        MovingWindow { span, lo, hi }
    }

    /// A stationary window over a span (degenerate trapezoid).
    pub fn stationary(span: Interval, w: &Rect<D>) -> Self {
        Self::between(span, w, w)
    }

    /// The window rectangle at time `t` (extrapolates outside the span).
    pub fn window_at(&self, t: Scalar) -> Rect<D> {
        let mut dims = [Interval::EMPTY; D];
        for i in 0..D {
            dims[i] = Interval::new(self.lo[i].eval(t), self.hi[i].eval(t));
        }
        Rect::new(dims)
    }

    /// Spatial bounding rectangle of the window swept over its span — the
    /// trapezoid's bounding box, used to form conservative query regions.
    pub fn swept_bounds(&self) -> Rect<D> {
        let mut dims = [Interval::EMPTY; D];
        for i in 0..D {
            dims[i] = self.lo[i]
                .range_over(&self.span)
                .cover(&self.hi[i].range_over(&self.span));
        }
        Rect::new(dims)
    }

    /// [`Self::swept_bounds`] over [`LinearForm::reach_over`] in place of
    /// `range_over`: a box, or a motion segment's
    /// [`MotionSegment::reach`], that lies strictly beyond it in some
    /// dimension makes [`Self::overlap_time_rect`] /
    /// [`Self::overlap_time_segment`] (and their batched forms) return
    /// an empty interval.
    pub fn reach(&self) -> Rect<D> {
        let mut dims = [Interval::EMPTY; D];
        for i in 0..D {
            dims[i] = self.lo[i]
                .reach_over(&self.span)
                .cover(&self.hi[i].reach_over(&self.span));
        }
        Rect::new(dims)
    }

    /// Eq. 3: the time interval `T^j` during which this trapezoid segment
    /// overlaps the static box `⟨qtime, space⟩`.
    ///
    /// `T^j = ⋂_i (T_i^u ∩ T_i^l) ∩ span ∩ R.t̄` where `T_i^u` solves
    /// `hi_i(t) ≥ R.lo_i` and `T_i^l` solves `lo_i(t) ≤ R.hi_i` — the four
    /// cases of Fig. 3(b) are the four sign combinations of the border
    /// slopes, all handled uniformly by the linear-form solver.
    pub fn overlap_time_rect(&self, space: &Rect<D>, qtime: &Interval) -> Interval {
        let mut t = self.span.intersect(qtime);
        for i in 0..D {
            if t.is_empty() {
                return Interval::EMPTY;
            }
            let ext = space.extent(i);
            // Upper border of the window must reach above the box's bottom…
            t = t.intersect(&self.hi[i].solve_ge(ext.lo));
            // …and lower border must stay below the box's top.
            t = t.intersect(&self.lo[i].solve_le(ext.hi));
        }
        t
    }

    /// The time interval during which a linear motion segment is *inside*
    /// the moving window — the leaf-level exact test for dynamic queries:
    /// `lo_i(t) ≤ x_i(t) ≤ hi_i(t)` for all `i`, within both validities.
    pub fn overlap_time_segment(&self, seg: &MotionSegment<D>) -> Interval {
        let mut t = self.span.intersect(&seg.t);
        for i in 0..D {
            if t.is_empty() {
                return Interval::EMPTY;
            }
            let p = seg.coord_form(i);
            t = t.intersect(&p.solve_ge_form(&self.lo[i]));
            t = t.intersect(&p.solve_le_form(&self.hi[i]));
        }
        t
    }

    /// Inflate both borders outward by a constant `delta` — the SPDQ
    /// allowance for observer deviation `‖x_p(t) − x(t)‖ ≤ δ`.
    pub fn inflate(&self, delta: Scalar) -> Self {
        let mut out = *self;
        for i in 0..D {
            out.lo[i] = out.lo[i].offset(-delta);
            out.hi[i] = out.hi[i].offset(delta);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win(x: (f64, f64), y: (f64, f64)) -> Rect<2> {
        Rect::from_corners([x.0, y.0], [x.1, y.1])
    }

    #[test]
    fn window_interpolation() {
        // Window slides right from [0,2]×[0,2] to [10,12]×[0,2] over t∈[0,10].
        let w = MovingWindow::between(
            Interval::new(0.0, 10.0),
            &win((0.0, 2.0), (0.0, 2.0)),
            &win((10.0, 12.0), (0.0, 2.0)),
        );
        assert_eq!(w.window_at(0.0), win((0.0, 2.0), (0.0, 2.0)));
        assert_eq!(w.window_at(5.0), win((5.0, 7.0), (0.0, 2.0)));
        assert_eq!(w.window_at(10.0), win((10.0, 12.0), (0.0, 2.0)));
        assert_eq!(w.swept_bounds(), win((0.0, 12.0), (0.0, 2.0)));
    }

    #[test]
    fn overlap_time_with_static_box_case_upward() {
        // Fig. 3(b) Case 1: window moving up towards a box.
        let w = MovingWindow::between(
            Interval::new(0.0, 10.0),
            &win((0.0, 2.0), (0.0, 2.0)),
            &win((10.0, 12.0), (0.0, 2.0)),
        );
        // Box at x∈[5,6]: window's right edge (hi = 2 + t) reaches 5 at
        // t=3; window's left edge (lo = t) passes 6 at t=6.
        let b = win((5.0, 6.0), (0.0, 2.0));
        let t = w.overlap_time_rect(&b, &Interval::ALL);
        assert_eq!(t, Interval::new(3.0, 6.0));
    }

    #[test]
    fn overlap_time_respects_span_and_qtime() {
        let w = MovingWindow::between(
            Interval::new(0.0, 10.0),
            &win((0.0, 2.0), (0.0, 2.0)),
            &win((10.0, 12.0), (0.0, 2.0)),
        );
        let b = win((5.0, 6.0), (0.0, 2.0));
        assert_eq!(
            w.overlap_time_rect(&b, &Interval::new(4.0, 5.0)),
            Interval::new(4.0, 5.0)
        );
        assert!(w
            .overlap_time_rect(&b, &Interval::new(20.0, 30.0))
            .is_empty());
        // Box out of the y-range never overlaps.
        let far = win((5.0, 6.0), (10.0, 12.0));
        assert!(w.overlap_time_rect(&far, &Interval::ALL).is_empty());
    }

    #[test]
    fn stationary_window_overlap() {
        let w = MovingWindow::stationary(Interval::new(0.0, 5.0), &win((0.0, 4.0), (0.0, 4.0)));
        let b = win((2.0, 3.0), (2.0, 3.0));
        assert_eq!(w.overlap_time_rect(&b, &Interval::ALL), Interval::new(0.0, 5.0));
        let miss = win((5.0, 6.0), (0.0, 1.0));
        assert!(w.overlap_time_rect(&miss, &Interval::ALL).is_empty());
    }

    #[test]
    fn narrowing_window() {
        // Window shrinks from [0,10] to [4,6] in x over t∈[0,10] (altitude
        // change in the paper's fly-through example).
        let w = MovingWindow::between(
            Interval::new(0.0, 10.0),
            &win((0.0, 10.0), (0.0, 1.0)),
            &win((4.0, 6.0), (0.0, 1.0)),
        );
        // A box at x∈[0.0,1.0] is covered at t=0, left when lo(t)=0.4t > 1 ⇒ t>2.5.
        let b = win((0.0, 1.0), (0.0, 1.0));
        assert_eq!(
            w.overlap_time_rect(&b, &Interval::ALL),
            Interval::new(0.0, 2.5)
        );
    }

    #[test]
    fn overlap_time_with_moving_segment() {
        // Window fixed at [0,2]×[0,2]; object crosses it along x.
        let w = MovingWindow::stationary(Interval::new(0.0, 10.0), &win((0.0, 2.0), (0.0, 2.0)));
        let seg = MotionSegment::from_endpoints(
            Interval::new(0.0, 10.0),
            [-5.0, 1.0],
            [5.0, 1.0], // v_x = 1
        );
        // Inside while −5+t ∈ [0,2] ⇒ t ∈ [5,7].
        assert_eq!(w.overlap_time_segment(&seg), Interval::new(5.0, 7.0));
    }

    #[test]
    fn chasing_segment_never_caught() {
        // Window and object move right at the same speed, object ahead.
        let w = MovingWindow::between(
            Interval::new(0.0, 10.0),
            &win((0.0, 2.0), (0.0, 2.0)),
            &win((10.0, 12.0), (0.0, 2.0)),
        );
        let seg =
            MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [5.0, 1.0], [15.0, 1.0]);
        assert!(w.overlap_time_segment(&seg).is_empty());
        // A slower object gets overtaken: x(t) = 5 + 0.5t meets hi = 2+t at
        // t=6 and leaves via lo = t at t=10.
        let slow =
            MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [5.0, 1.0], [10.0, 1.0]);
        assert_eq!(w.overlap_time_segment(&slow), Interval::new(6.0, 10.0));
    }

    #[test]
    fn spdq_inflation() {
        let w = MovingWindow::stationary(Interval::new(0.0, 1.0), &win((2.0, 4.0), (2.0, 4.0)));
        let fat = w.inflate(1.0);
        assert_eq!(fat.window_at(0.5), win((1.0, 5.0), (1.0, 5.0)));
    }
}
