//! Struct-of-arrays batched overlap-time kernels (Eq. 3 / Fig. 3, many
//! entries per pass).
//!
//! The query hot loop evaluates one trapezoid segment (a
//! [`MovingWindow`]) against *every* entry of an R-tree node page — up to
//! 145 boxes or 127 motion segments per visit. Done one entry at a time
//! through [`MovingWindow::overlap_time_rect`] the four slope-sign cases
//! of Fig. 3(b) branch per entry per dimension, which defeats
//! vectorization. These kernels restructure the computation:
//!
//! * Entries are staged in **struct-of-arrays** layout (one contiguous
//!   lane array per coordinate), filled straight off a node page.
//! * For the box kernel the window borders are *shared* across a node's
//!   entries, so the slope-sign branch hoists **outside** the lane loop;
//!   the inner loop is a pure `(c − a)/b` division plus a `min`/`max` —
//!   exactly the shape LLVM autovectorizes.
//! * For the segment kernel the difference form varies per entry, so the
//!   case selection stays in the lane but as branch-free *selects* over
//!   f64 comparisons rather than control flow.
//! * The scalar path's early-exit on an empty accumulator is dropped:
//!   emptiness is monotone under intersection (`lo` only rises, `hi`
//!   only falls), so a lane that goes empty stays empty and the extra
//!   arithmetic is harmless.
//!
//! **Bit-identity.** For non-NaN operands every lane performs the same
//! `f64` operations, in the same order, with the same operand order as
//! the scalar path, so non-empty results are bit-identical
//! (`to_bits`-equal) to [`MovingWindow::overlap_time_rect`] /
//! [`MovingWindow::overlap_time_segment`]; empty results may differ in
//! representation (the scalar path can return a non-canonical inverted
//! interval where the batch returns another), which [`Interval`]'s
//! `PartialEq` already treats as equal. Property tests in
//! `tests/batch_prop.rs` pin both guarantees.
//!
//! **Cover.** A batch also folds, as entries are staged, the hull of
//! their lifetimes and of their spatial extents (for motion segments, of
//! their [`MotionSegment::reach`]). A window whose span misses the
//! lifetime hull, or whose [`MovingWindow::reach`] lies strictly beyond
//! the spatial hull in some dimension, solves to an empty interval in
//! every lane — so a caller holding many windows asks the hulls which
//! ones are worth a `solve` at all.

use crate::{Interval, LinearForm, MotionSegment, MovingWindow, Rect};

/// Apply `form.solve_ge(c[j])` to every lane's accumulator: the
/// slope-sign case is resolved once, outside the lane loop.
#[inline]
fn apply_ge(form: &LinearForm, c: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    let (a, b) = (form.a, form.b);
    if b > 0.0 {
        // Solution [ (c−a)/b, +∞ ): only the lower end tightens.
        for j in 0..c.len() {
            out_lo[j] = out_lo[j].max((c[j] - a) / b);
        }
    } else if b < 0.0 {
        // Solution ( −∞, (c−a)/b ]: only the upper end tightens.
        for j in 0..c.len() {
            out_hi[j] = out_hi[j].min((c[j] - a) / b);
        }
    } else {
        // Constant border: ALL (no-op) or EMPTY per lane.
        for j in 0..c.len() {
            let keep = a >= c[j];
            out_lo[j] = if keep { out_lo[j] } else { f64::INFINITY };
            out_hi[j] = if keep { out_hi[j] } else { f64::NEG_INFINITY };
        }
    }
}

/// Apply `form.solve_le(c[j])` to every lane's accumulator.
#[inline]
fn apply_le(form: &LinearForm, c: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    let (a, b) = (form.a, form.b);
    if b > 0.0 {
        for j in 0..c.len() {
            out_hi[j] = out_hi[j].min((c[j] - a) / b);
        }
    } else if b < 0.0 {
        for j in 0..c.len() {
            out_lo[j] = out_lo[j].max((c[j] - a) / b);
        }
    } else {
        for j in 0..c.len() {
            let keep = a <= c[j];
            out_lo[j] = if keep { out_lo[j] } else { f64::INFINITY };
            out_hi[j] = if keep { out_hi[j] } else { f64::NEG_INFINITY };
        }
    }
}

/// Branch-free lane intersection with the solution of
/// `d_a + d_b·t ≥ 0` — the per-lane form of [`LinearForm::solve_ge`]
/// at `c = 0`, as selects over comparisons. Matches the scalar solver
/// for every input, NaN included. Public so sibling crates (the
/// TPR-tree's time-parameterized boxes) can build their own SoA kernels
/// on the same per-lane primitive.
#[inline(always)]
// NaN `d_a` must select EMPTY exactly like the scalar solver's failed
// `a >= c` branch; `partial_cmp` would obscure that the negation is the
// point.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn lane_ge0(d_a: f64, d_b: f64, out_lo: f64, out_hi: f64) -> (f64, f64) {
    // `0.0 - d_a` (not `-d_a`) keeps the zero-sign bits of the scalar
    // solver's `(c - a)/b` with `c = 0.0`.
    let tdiv = (0.0 - d_a) / d_b;
    let pos = d_b > 0.0;
    let neg = d_b < 0.0;
    let empty = !pos && !neg && !(d_a >= 0.0);
    let s_lo = if pos {
        tdiv
    } else if empty {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    };
    let s_hi = if neg {
        tdiv
    } else if empty {
        f64::NEG_INFINITY
    } else {
        f64::INFINITY
    };
    (out_lo.max(s_lo), out_hi.min(s_hi))
}

/// Lane intersection with the solution of `d_a + d_b·t ≤ 0` — the
/// per-lane form of [`LinearForm::solve_le`] at `c = 0`.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must select EMPTY; see lane_ge0
pub fn lane_le0(d_a: f64, d_b: f64, out_lo: f64, out_hi: f64) -> (f64, f64) {
    let tdiv = (0.0 - d_a) / d_b;
    let pos = d_b > 0.0;
    let neg = d_b < 0.0;
    let empty = !pos && !neg && !(d_a <= 0.0);
    let s_lo = if neg {
        tdiv
    } else if empty {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    };
    let s_hi = if pos {
        tdiv
    } else if empty {
        f64::NEG_INFINITY
    } else {
        f64::INFINITY
    };
    (out_lo.max(s_lo), out_hi.min(s_hi))
}

/// Widen `hull` to `[lo, hi]`'s bounds. A NaN bound opens its side: the
/// kernels' `max`/`min` drop a NaN operand, which leaves that side of
/// the lane unconstrained.
#[inline]
fn widen(hull: &mut Interval, lo: f64, hi: f64) {
    hull.lo = hull.lo.min(if lo.is_nan() { f64::NEG_INFINITY } else { lo });
    hull.hi = hull.hi.max(if hi.is_nan() { f64::INFINITY } else { hi });
}

/// SoA staging area for static space-time boxes (internal-node entries):
/// evaluate [`MovingWindow::overlap_time_rect`] for a whole node page in
/// one pass per window segment.
#[derive(Debug)]
pub struct RectBatch<const D: usize> {
    qt_lo: Vec<f64>,
    qt_hi: Vec<f64>,
    ext_lo: [Vec<f64>; D],
    ext_hi: [Vec<f64>; D],
    out_lo: Vec<f64>,
    out_hi: Vec<f64>,
    lifetimes: Interval,
    space: Rect<D>,
}

impl<const D: usize> Default for RectBatch<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> RectBatch<D> {
    /// Fresh, empty batch (reusable across node visits).
    pub fn new() -> Self {
        RectBatch {
            qt_lo: Vec::new(),
            qt_hi: Vec::new(),
            ext_lo: std::array::from_fn(|_| Vec::new()),
            ext_hi: std::array::from_fn(|_| Vec::new()),
            out_lo: Vec::new(),
            out_hi: Vec::new(),
            lifetimes: Interval::EMPTY,
            space: Rect::EMPTY,
        }
    }

    /// Remove all staged entries, keeping capacity.
    pub fn clear(&mut self) {
        self.qt_lo.clear();
        self.qt_hi.clear();
        for i in 0..D {
            self.ext_lo[i].clear();
            self.ext_hi[i].clear();
        }
        self.lifetimes = Interval::EMPTY;
        self.space = Rect::EMPTY;
    }

    /// Number of staged entries.
    pub fn len(&self) -> usize {
        self.qt_lo.len()
    }

    /// True iff no entries are staged.
    pub fn is_empty(&self) -> bool {
        self.qt_lo.is_empty()
    }

    /// Stage one box `⟨space, qtime⟩`.
    pub fn push(&mut self, space: &Rect<D>, qtime: &Interval) {
        self.qt_lo.push(qtime.lo);
        self.qt_hi.push(qtime.hi);
        widen(&mut self.lifetimes, qtime.lo, qtime.hi);
        for i in 0..D {
            let e = space.extent(i);
            self.ext_lo[i].push(e.lo);
            self.ext_hi[i].push(e.hi);
            widen(&mut self.space.dims[i], e.lo, e.hi);
        }
    }

    /// Hull of the staged lifetimes (see the module's **Cover** note).
    pub fn lifetime_hull(&self) -> Interval {
        self.lifetimes
    }

    /// Hull of the staged boxes.
    pub fn space_hull(&self) -> Rect<D> {
        self.space
    }

    /// Evaluate `w.overlap_time_rect(space_j, qtime_j)` for every staged
    /// entry `j`; read results back with [`Self::result`].
    pub fn solve(&mut self, w: &MovingWindow<D>) {
        let n = self.len();
        self.out_lo.clear();
        self.out_hi.clear();
        // t = span ∩ qtime, lane-wise.
        self.out_lo.extend(self.qt_lo.iter().map(|&q| w.span.lo.max(q)));
        self.out_hi.extend(self.qt_hi.iter().map(|&q| w.span.hi.min(q)));
        for i in 0..D {
            debug_assert_eq!(self.ext_lo[i].len(), n);
            // Upper border of the window must reach above the box's
            // bottom, lower border must stay below the box's top — same
            // two constraints, same order, as the scalar path.
            apply_ge(&w.hi[i], &self.ext_lo[i], &mut self.out_lo, &mut self.out_hi);
            apply_le(&w.lo[i], &self.ext_hi[i], &mut self.out_lo, &mut self.out_hi);
        }
    }

    /// Overlap-time of entry `j` from the last [`Self::solve`] call.
    #[inline]
    pub fn result(&self, j: usize) -> Interval {
        Interval::new(self.out_lo[j], self.out_hi[j])
    }
}

/// SoA staging area for motion segments (leaf records): evaluate
/// [`MovingWindow::overlap_time_segment`] for a whole leaf page in one
/// pass per window segment.
#[derive(Debug)]
pub struct SegmentBatch<const D: usize> {
    st_lo: Vec<f64>,
    st_hi: Vec<f64>,
    /// Per-dimension coordinate forms `x_i(t) = pa + pb·t`.
    pa: [Vec<f64>; D],
    pb: [Vec<f64>; D],
    out_lo: Vec<f64>,
    out_hi: Vec<f64>,
    lifetimes: Interval,
    space: Rect<D>,
}

impl<const D: usize> Default for SegmentBatch<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> SegmentBatch<D> {
    /// Fresh, empty batch (reusable across node visits).
    pub fn new() -> Self {
        SegmentBatch {
            st_lo: Vec::new(),
            st_hi: Vec::new(),
            pa: std::array::from_fn(|_| Vec::new()),
            pb: std::array::from_fn(|_| Vec::new()),
            out_lo: Vec::new(),
            out_hi: Vec::new(),
            lifetimes: Interval::EMPTY,
            space: Rect::EMPTY,
        }
    }

    /// Remove all staged segments, keeping capacity.
    pub fn clear(&mut self) {
        self.st_lo.clear();
        self.st_hi.clear();
        for i in 0..D {
            self.pa[i].clear();
            self.pb[i].clear();
        }
        self.lifetimes = Interval::EMPTY;
        self.space = Rect::EMPTY;
    }

    /// Number of staged segments.
    pub fn len(&self) -> usize {
        self.st_lo.len()
    }

    /// True iff no segments are staged.
    pub fn is_empty(&self) -> bool {
        self.st_lo.is_empty()
    }

    /// Stage one motion segment.
    pub fn push(&mut self, seg: &MotionSegment<D>) {
        self.st_lo.push(seg.t.lo);
        self.st_hi.push(seg.t.hi);
        widen(&mut self.lifetimes, seg.t.lo, seg.t.hi);
        let reach = seg.reach();
        for i in 0..D {
            let p = seg.coord_form(i);
            self.pa[i].push(p.a);
            self.pb[i].push(p.b);
            widen(&mut self.space.dims[i], reach.extent(i).lo, reach.extent(i).hi);
        }
    }

    /// Hull of the staged lifetimes (see the module's **Cover** note).
    pub fn lifetime_hull(&self) -> Interval {
        self.lifetimes
    }

    /// Hull of the staged segments' [`MotionSegment::reach`].
    pub fn space_hull(&self) -> Rect<D> {
        self.space
    }

    /// Evaluate `w.overlap_time_segment(seg_j)` for every staged segment
    /// `j`; read results back with [`Self::result`].
    pub fn solve(&mut self, w: &MovingWindow<D>) {
        let n = self.len();
        self.out_lo.clear();
        self.out_hi.clear();
        // t = span ∩ seg.t, lane-wise.
        self.out_lo.extend(self.st_lo.iter().map(|&s| w.span.lo.max(s)));
        self.out_hi.extend(self.st_hi.iter().map(|&s| w.span.hi.min(s)));
        for i in 0..D {
            debug_assert_eq!(self.pa[i].len(), n);
            let (bl, bh) = (w.lo[i], w.hi[i]);
            let (pa, pb) = (&self.pa[i], &self.pb[i]);
            for j in 0..n {
                // p ≥ lo border: (p − lo) solves ≥ 0.
                let (lo1, hi1) = lane_ge0(
                    pa[j] - bl.a,
                    pb[j] - bl.b,
                    self.out_lo[j],
                    self.out_hi[j],
                );
                // p ≤ hi border: (p − hi) solves ≤ 0.
                let (lo2, hi2) = lane_le0(pa[j] - bh.a, pb[j] - bh.b, lo1, hi1);
                self.out_lo[j] = lo2;
                self.out_hi[j] = hi2;
            }
        }
    }

    /// Overlap-time of segment `j` from the last [`Self::solve`] call.
    #[inline]
    pub fn result(&self, j: usize) -> Interval {
        Interval::new(self.out_lo[j], self.out_hi[j])
    }
}

/// What a caller holding many windows needs of one staged page: the two
/// hulls of the module's **Cover** note to choose the windows worth a
/// solve, and the solve itself. `lifetime_hull` must be exact under the
/// kernel's own rule (a NaN bound opens its side) and `space_hull` may be
/// any superset of where the staged entries can be — then leaving out a
/// window that misses either hull changes no lane's result.
#[allow(clippy::len_without_is_empty)]
pub trait StagedPage<const D: usize> {
    /// Number of staged entries (lanes).
    fn len(&self) -> usize;
    /// Hull of the staged entries' lifetimes.
    fn lifetime_hull(&self) -> Interval;
    /// A box no staged entry ever leaves.
    fn space_hull(&self) -> Rect<D>;
    /// Solve every lane against `w`.
    fn solve(&mut self, w: &MovingWindow<D>);
    /// Lane `j`'s overlap time from the last [`Self::solve`].
    fn result(&self, j: usize) -> Interval;
}

macro_rules! staged_page {
    ($batch:ident) => {
        impl<const D: usize> StagedPage<D> for $batch<D> {
            fn len(&self) -> usize {
                $batch::len(self)
            }
            fn lifetime_hull(&self) -> Interval {
                $batch::lifetime_hull(self)
            }
            fn space_hull(&self) -> Rect<D> {
                $batch::space_hull(self)
            }
            fn solve(&mut self, w: &MovingWindow<D>) {
                $batch::solve(self, w)
            }
            fn result(&self, j: usize) -> Interval {
                $batch::result(self, j)
            }
        }
    };
}
staged_page!(RectBatch);
staged_page!(SegmentBatch);

#[cfg(test)]
mod tests {
    use super::*;

    fn win(x: (f64, f64), y: (f64, f64)) -> Rect<2> {
        Rect::from_corners([x.0, y.0], [x.1, y.1])
    }

    /// Batched result must equal the scalar result; when the scalar
    /// result is non-empty the bits must match exactly.
    fn assert_matches(batch: Interval, scalar: Interval, ctx: &str) {
        assert_eq!(batch, scalar, "{ctx}");
        if !scalar.is_empty() {
            assert_eq!(batch.lo.to_bits(), scalar.lo.to_bits(), "{ctx}: lo bits");
            assert_eq!(batch.hi.to_bits(), scalar.hi.to_bits(), "{ctx}: hi bits");
        }
    }

    #[test]
    fn rect_batch_matches_scalar_all_slope_cases() {
        // One window per slope-sign combination of (hi, lo) borders in x:
        // growing, shrinking, sliding, stationary.
        let span = Interval::new(0.0, 10.0);
        let windows = [
            MovingWindow::between(span, &win((0.0, 2.0), (0.0, 2.0)), &win((10.0, 12.0), (0.0, 2.0))),
            MovingWindow::between(span, &win((0.0, 10.0), (0.0, 1.0)), &win((4.0, 6.0), (0.0, 1.0))),
            MovingWindow::between(span, &win((0.0, 2.0), (5.0, 7.0)), &win((-3.0, 5.0), (0.0, 2.0))),
            MovingWindow::stationary(span, &win((0.0, 4.0), (0.0, 4.0))),
        ];
        let boxes = [
            (win((5.0, 6.0), (0.0, 2.0)), Interval::ALL),
            (win((0.0, 1.0), (0.0, 1.0)), Interval::new(4.0, 5.0)),
            (win((5.0, 6.0), (10.0, 12.0)), Interval::ALL),
            (win((2.0, 3.0), (2.0, 3.0)), Interval::new(20.0, 30.0)),
            (win((-1.0, 0.0), (1.5, 1.5)), Interval::new(-5.0, 5.0)),
        ];
        let mut batch = RectBatch::<2>::new();
        for (space, qtime) in &boxes {
            batch.push(space, qtime);
        }
        for (wi, w) in windows.iter().enumerate() {
            batch.solve(w);
            for (j, (space, qtime)) in boxes.iter().enumerate() {
                assert_matches(
                    batch.result(j),
                    w.overlap_time_rect(space, qtime),
                    &format!("window {wi}, box {j}"),
                );
            }
        }
    }

    #[test]
    fn segment_batch_matches_scalar() {
        let w = MovingWindow::between(
            Interval::new(0.0, 10.0),
            &win((0.0, 2.0), (0.0, 2.0)),
            &win((10.0, 12.0), (0.0, 2.0)),
        );
        let segs = [
            MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [-5.0, 1.0], [5.0, 1.0]),
            MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [5.0, 1.0], [15.0, 1.0]),
            MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [5.0, 1.0], [10.0, 1.0]),
            MotionSegment::from_endpoints(Interval::new(2.0, 2.0), [1.0, 1.0], [1.0, 1.0]),
            MotionSegment::from_endpoints(Interval::new(3.0, 7.0), [4.0, -8.0], [4.0, 9.0]),
        ];
        let mut batch = SegmentBatch::<2>::new();
        for s in &segs {
            batch.push(s);
        }
        batch.solve(&w);
        for (j, s) in segs.iter().enumerate() {
            assert_matches(batch.result(j), w.overlap_time_segment(s), &format!("segment {j}"));
        }
    }

    #[test]
    fn hulls_cover_what_was_staged_and_reset_on_clear() {
        let mut rects = RectBatch::<2>::new();
        assert!(rects.lifetime_hull().is_empty() && rects.space_hull().is_empty());
        rects.push(&win((5.0, 6.0), (0.0, 2.0)), &Interval::new(4.0, 5.0));
        rects.push(&win((-1.0, 0.0), (1.5, 1.5)), &Interval::new(-5.0, 4.5));
        assert_eq!(rects.lifetime_hull(), Interval::new(-5.0, 5.0));
        assert_eq!(rects.space_hull(), win((-1.0, 6.0), (0.0, 2.0)));
        // A NaN bound constrains nothing in the kernel: its side opens.
        rects.push(&win((f64::NAN, 1.0), (0.0, 1.0)), &Interval::new(0.0, f64::NAN));
        assert_eq!(rects.lifetime_hull(), Interval::new(-5.0, f64::INFINITY));
        assert_eq!(rects.space_hull().extent(0), Interval::new(f64::NEG_INFINITY, 6.0));
        rects.clear();
        assert!(rects.lifetime_hull().is_empty() && rects.space_hull().is_empty());

        let mut segs = SegmentBatch::<2>::new();
        let a = MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [-5.0, 1.0], [5.0, 1.0]);
        let b = MotionSegment::from_endpoints(Interval::new(3.0, 7.0), [4.0, -8.0], [4.0, 9.0]);
        segs.push(&a);
        segs.push(&b);
        assert_eq!(segs.lifetime_hull(), Interval::new(0.0, 10.0));
        let hull = segs.space_hull();
        for s in [&a, &b] {
            assert!(hull.contains_rect(&s.reach()) && s.reach().contains_rect(&s.spatial_bbox()));
        }
        assert!(win((-5.1, 5.1), (-8.1, 9.1)).contains_rect(&hull));
        segs.clear();
        assert!(segs.lifetime_hull().is_empty() && segs.space_hull().is_empty());
    }

    #[test]
    fn clear_reuses_storage() {
        let mut batch = RectBatch::<2>::new();
        batch.push(&win((0.0, 1.0), (0.0, 1.0)), &Interval::ALL);
        assert_eq!(batch.len(), 1);
        batch.clear();
        assert!(batch.is_empty());
        let w = MovingWindow::stationary(Interval::new(0.0, 1.0), &win((0.0, 1.0), (0.0, 1.0)));
        batch.solve(&w);
        assert_eq!(batch.len(), 0);
    }
}
