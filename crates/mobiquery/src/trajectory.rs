//! Predictive query trajectories — sequences of key snapshots (§4.1).
//!
//! **Cost model.** A trajectory is a time-ordered run of trapezoid
//! pieces, and an entry's overlap-time set is the union, over pieces, of
//! one kernel result per piece. Every overlap form goes through one
//! method, [`Trajectory::overlap_by`]: [`Trajectory::overlap_rect`] and
//! [`Trajectory::overlap_segment`] here, the TPR-tree's moving boxes in
//! `tprtree`. A piece whose span misses an entry's lifetime, or whose
//! swept box lies clear of the entry, contributes the empty interval, so
//! it is not visited: the pieces are indexed once at construction (their
//! spans are already sorted; their swept boxes are cached, widened for
//! rounding — [`MovingWindow::reach`]) and
//! [`Trajectory::pieces_meeting`] is a binary search on time plus a box
//! test. An overlap query costs *pieces meeting the entry*, not all
//! pieces; a fly-through with hundreds of key snapshots pays per entry
//! for the handful of pieces that pass near it while it is alive. The
//! result is bit-identical to visiting every piece: time pruning is
//! exact, the box test is conservative, and `TimeSet::insert` of an
//! empty interval is a no-op.

use crate::snapshot::SnapshotQuery;
use stkit::{Interval, MotionSegment, MovingWindow, Rect, Scalar, StBox, TimeSet};

/// One key snapshot `K^j = ⟨t, x̄₁, …, x̄_d⟩`: the query window at a point
/// of the observer's trajectory (Eq. 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KeySnapshot<const D: usize> {
    /// Time of this key snapshot.
    pub t: Scalar,
    /// Query window at that time.
    pub window: Rect<D>,
}

/// A predictive dynamic query's trajectory: key snapshots with strictly
/// increasing times; between consecutive keys the window interpolates
/// linearly (the trapezoid segments `S^j` of Fig. 3).
///
/// ```
/// use mobiquery::Trajectory;
/// use stkit::{Interval, Rect};
///
/// // A 2×2 window sliding right at speed 2 over t ∈ [0, 10].
/// let traj = Trajectory::linear(
///     Rect::from_corners([0.0, 0.0], [2.0, 2.0]),
///     [2.0, 0.0], Interval::new(0.0, 10.0), 5);
/// assert_eq!(traj.window_at(5.0), Rect::from_corners([10.0, 0.0], [12.0, 2.0]));
/// // Eq. 3: when does the moving window overlap a static box?
/// let hit = traj.overlap_rect(
///     &Rect::from_corners([6.0, 0.0], [7.0, 2.0]),
///     &Interval::new(0.0, 10.0));
/// assert_eq!(hit.hull(), Interval::new(2.0, 3.5));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory<const D: usize> {
    keys: Vec<KeySnapshot<D>>,
    segments: Vec<MovingWindow<D>>,
    /// `segments[j].reach()`, the spatial half of the piece index.
    reach: Vec<Rect<D>>,
    swept_bounds: Rect<D>,
    /// Test oracle: [`Self::pieces_meeting`] yields every piece.
    #[cfg(test)]
    scan_all: bool,
}

impl<const D: usize> Trajectory<D> {
    /// Build a trajectory from ≥ 2 key snapshots with strictly increasing
    /// times and non-empty windows.
    pub fn new(keys: Vec<KeySnapshot<D>>) -> Self {
        assert!(keys.len() >= 2, "a trajectory needs at least two keys");
        for w in keys.windows(2) {
            assert!(
                w[0].t < w[1].t,
                "key snapshot times must strictly increase"
            );
        }
        assert!(
            keys.iter().all(|k| !k.window.is_empty()),
            "key windows must be non-empty"
        );
        let segments: Vec<_> = keys
            .windows(2)
            .map(|w| {
                MovingWindow::between(Interval::new(w[0].t, w[1].t), &w[0].window, &w[1].window)
            })
            .collect();
        let reach = segments.iter().map(MovingWindow::reach).collect();
        let swept_bounds = segments
            .iter()
            .fold(Rect::EMPTY, |acc, s| acc.cover(&s.swept_bounds()));
        Trajectory {
            keys,
            segments,
            reach,
            swept_bounds,
            #[cfg(test)]
            scan_all: false,
        }
    }

    /// The same trajectory answering every overlap form by visiting
    /// every piece — what the forms did before the piece index, kept as
    /// the oracle the indexed engine is compared against.
    #[cfg(test)]
    pub(crate) fn scanning_every_piece(mut self) -> Self {
        self.scan_all = true;
        self
    }

    /// The pieces that can overlap an entry alive during `time` inside
    /// `space`, in ascending time order. Every piece left out solves to
    /// the empty interval against any such entry: its span ends before
    /// `time` starts or starts after it ends (exact — the kernels begin
    /// from `span ∩ lifetime`), or its [`MovingWindow::reach`] lies
    /// strictly beyond `space` in some dimension. A NaN bound never
    /// excludes a piece, matching the kernels, which ignore it.
    fn pieces_meeting<'a>(
        &'a self,
        time: &Interval,
        space: &'a Rect<D>,
    ) -> impl Iterator<Item = &'a MovingWindow<D>> + 'a {
        #[cfg(test)]
        let (time, space) = if self.scan_all {
            (&Interval::ALL, &Rect::ALL)
        } else {
            (time, space)
        };
        let first = self.segments.partition_point(|s| s.span.hi < time.lo);
        let end = self
            .segments
            .partition_point(|s| s.span.lo <= time.hi || time.hi.is_nan());
        let met = first..end.max(first);
        self.segments[met.clone()]
            .iter()
            .zip(&self.reach[met])
            .filter(move |(_, reach)| {
                !(0..D).any(|i| {
                    let (r, e) = (reach.extent(i), space.extent(i));
                    e.hi < r.lo || e.lo > r.hi
                })
            })
            .map(|(s, _)| s)
    }

    /// A straight-line trajectory: `window` translating at constant
    /// `velocity` over `span`, sampled into `nkeys` key snapshots. The
    /// common case for both benchmarks and fly-through navigation.
    pub fn linear(
        window: Rect<D>,
        velocity: [Scalar; D],
        span: Interval,
        nkeys: usize,
    ) -> Self {
        assert!(nkeys >= 2, "need at least two keys");
        assert!(!span.is_empty() && span.length() > 0.0, "span must have extent");
        let keys = (0..nkeys)
            .map(|i| {
                let f = i as Scalar / (nkeys - 1) as Scalar;
                let t = span.lo + f * span.length();
                let dt = t - span.lo;
                let mut dims = [Interval::EMPTY; D];
                for d in 0..D {
                    dims[d] = window.extent(d).shift(velocity[d] * dt);
                }
                KeySnapshot {
                    t,
                    window: Rect::new(dims),
                }
            })
            .collect();
        Trajectory::new(keys)
    }

    /// The key snapshots.
    pub fn keys(&self) -> &[KeySnapshot<D>] {
        &self.keys
    }

    /// The interpolated trapezoid segments (one fewer than keys).
    pub fn segments(&self) -> &[MovingWindow<D>] {
        &self.segments
    }

    /// Temporal span `[K¹.t, Kⁿ.t]` of the trajectory.
    pub fn span(&self) -> Interval {
        Interval::new(self.keys[0].t, self.keys[self.keys.len() - 1].t)
    }

    /// The query window at time `t` (clamped into the span).
    pub fn window_at(&self, t: Scalar) -> Rect<D> {
        let t = self.span().clamp(t);
        // Find the segment covering t (last segment covers its end).
        let idx = self
            .segments
            .partition_point(|s| s.span.hi < t)
            .min(self.segments.len() - 1);
        self.segments[idx].window_at(t)
    }

    /// The snapshot query a renderer would pose at instant `t`.
    pub fn snapshot_at(&self, t: Scalar) -> SnapshotQuery<D> {
        SnapshotQuery::at_instant(self.window_at(t), t)
    }

    /// Eq. 3 generalized to the full trajectory: the (possibly
    /// disconnected) set of times at which the moving window overlaps the
    /// static space-time box `⟨time, space⟩`. Each trapezoid segment
    /// contributes one interval `T^j`; the result is their union.
    pub fn overlap_rect(&self, space: &Rect<D>, time: &Interval) -> TimeSet {
        self.overlap_by(time, space, |s| s.overlap_time_rect(space, time))
    }

    /// Overlap-time set for an NSI bounding box key.
    pub fn overlap_nsi_box(&self, key: &StBox<D, 1>) -> TimeSet {
        self.overlap_rect(&key.space, &key.time.extent(0))
    }

    /// Exact overlap-time set for a motion segment: the times at which
    /// the *object* (not its bounding box) is inside the moving window —
    /// the leaf-level exact test for dynamic queries, and the visibility
    /// set handed to the client cache ("how long the object stays in
    /// view").
    pub fn overlap_segment(&self, seg: &MotionSegment<D>) -> TimeSet {
        self.overlap_by(&seg.t, &seg.reach(), |s| s.overlap_time_segment(seg))
    }

    /// The overlap-time set of an entry of any index family: the union of
    /// `solve(piece)` over the pieces that can meet an entry alive during
    /// `time` inside `space`. `solve` must give the empty interval for a
    /// piece whose span misses `time` or whose window never reaches
    /// `space`; then the result is the one every piece would give, bit
    /// for bit. A family whose entries are not cheap to bound in space
    /// passes `Rect::ALL` and is pruned by time alone.
    pub fn overlap_by(
        &self,
        time: &Interval,
        space: &Rect<D>,
        solve: impl Fn(&MovingWindow<D>) -> Interval,
    ) -> TimeSet {
        let mut out = TimeSet::empty();
        for s in self.pieces_meeting(time, space) {
            out.insert(solve(s));
        }
        out
    }

    /// SPDQ (§4): inflate every key window by `delta` to tolerate an
    /// observer deviating up to `‖x_p(t) − x(t)‖ ≤ δ` from the predicted
    /// path. A PDQ over the result is the semi-predictive query.
    pub fn inflate(&self, delta: Scalar) -> Trajectory<D> {
        assert!(delta >= 0.0, "deviation bound must be non-negative");
        Trajectory::new(
            self.keys
                .iter()
                .map(|k| KeySnapshot {
                    t: k.t,
                    window: k.window.inflate(delta),
                })
                .collect(),
        )
    }

    /// Conservative spatial bounds of the whole swept trajectory.
    pub fn swept_bounds(&self) -> Rect<D> {
        self.swept_bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win(x: f64, y: f64, w: f64) -> Rect<2> {
        Rect::from_corners([x, y], [x + w, y + w])
    }

    fn slide_right() -> Trajectory<2> {
        // 2×2 window sliding right from x=0 to x=20 over t ∈ [0, 10].
        Trajectory::linear(
            win(0.0, 0.0, 2.0),
            [2.0, 0.0],
            Interval::new(0.0, 10.0),
            6,
        )
    }

    #[test]
    fn linear_constructor_interpolates() {
        let tr = slide_right();
        assert_eq!(tr.keys().len(), 6);
        assert_eq!(tr.segments().len(), 5);
        assert_eq!(tr.span(), Interval::new(0.0, 10.0));
        assert_eq!(tr.window_at(0.0), win(0.0, 0.0, 2.0));
        assert_eq!(tr.window_at(5.0), win(10.0, 0.0, 2.0));
        assert_eq!(tr.window_at(10.0), win(20.0, 0.0, 2.0));
        // Clamping beyond the span.
        assert_eq!(tr.window_at(99.0), win(20.0, 0.0, 2.0));
    }

    #[test]
    fn overlap_rect_matches_hand_computation() {
        let tr = slide_right();
        // Box at x ∈ [6, 7], all y, alive the whole time: window's right
        // edge (2 + 2t) reaches 6 at t = 2; left edge (2t) passes 7 at 3.5.
        let ts = tr.overlap_rect(
            &Rect::from_corners([6.0, 0.0], [7.0, 2.0]),
            &Interval::new(0.0, 10.0),
        );
        assert_eq!(ts.hull(), Interval::new(2.0, 3.5));
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn overlap_respects_box_validity() {
        let tr = slide_right();
        let ts = tr.overlap_rect(
            &Rect::from_corners([6.0, 0.0], [7.0, 2.0]),
            &Interval::new(3.0, 10.0),
        );
        assert_eq!(ts.hull(), Interval::new(3.0, 3.5));
    }

    #[test]
    fn overlap_segment_exact() {
        let tr = slide_right();
        // Object moving left through the window's path.
        let seg =
            MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [20.0, 1.0], [0.0, 1.0]);
        let ts = tr.overlap_segment(&seg);
        // Object at 20−2t, window [2t, 2+2t]: inside while 2t ≤ 20−2t ≤ 2+2t
        // ⇒ t ∈ [4.5, 5].
        assert_eq!(ts.hull(), Interval::new(4.5, 5.0));
    }

    #[test]
    fn disconnected_overlap_possible() {
        // Window moves right then back left over a static box: two visits.
        let tr = Trajectory::new(vec![
            KeySnapshot { t: 0.0, window: win(0.0, 0.0, 2.0) },
            KeySnapshot { t: 10.0, window: win(20.0, 0.0, 2.0) },
            KeySnapshot { t: 20.0, window: win(0.0, 0.0, 2.0) },
        ]);
        let ts = tr.overlap_rect(
            &Rect::from_corners([10.0, 0.0], [11.0, 2.0]),
            &Interval::new(0.0, 20.0),
        );
        assert_eq!(ts.len(), 2, "expected two disjoint visibility windows");
    }

    #[test]
    fn snapshot_at_matches_window() {
        let tr = slide_right();
        let q = tr.snapshot_at(5.0);
        assert_eq!(q.window, win(10.0, 0.0, 2.0));
        assert_eq!(q.time, Interval::point(5.0));
    }

    #[test]
    fn inflation_grows_windows() {
        let tr = slide_right().inflate(1.0);
        assert_eq!(tr.window_at(0.0), Rect::from_corners([-1.0, -1.0], [3.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delta_rejected() {
        let _ = slide_right().inflate(-1.0);
    }

    #[test]
    fn swept_bounds_cover_path() {
        let tr = slide_right();
        let b = tr.swept_bounds();
        assert_eq!(b, Rect::from_corners([0.0, 0.0], [22.0, 2.0]));
        // The cached hull is the fold it replaced.
        let folded = tr
            .segments()
            .iter()
            .fold(Rect::EMPTY, |acc, s| acc.cover(&s.swept_bounds()));
        assert_eq!(b, folded);
    }

    /// Start times of the pieces `pieces_meeting` yields.
    fn met(tr: &Trajectory<2>, time: Interval, space: Rect<2>) -> Vec<f64> {
        tr.pieces_meeting(&time, &space).map(|s| s.span.lo).collect()
    }

    #[test]
    fn pieces_meeting_prunes_by_time_and_by_swept_box() {
        // Piece j spans t ∈ [2j, 2j+2] and sweeps x ∈ [4j, 4j+6].
        let tr = slide_right();
        let all = Interval::new(0.0, 10.0);
        let strip = |x0: f64, x1: f64| Rect::from_corners([x0, 0.0], [x1, 2.0]);
        assert_eq!(met(&tr, all, strip(6.0, 7.0)), vec![0.0, 2.0]);
        // Closed on both sides: a lifetime ending on a key time meets the
        // piece that starts there, a box touching a swept face meets it.
        assert_eq!(met(&tr, Interval::new(3.0, 4.0), Rect::ALL), vec![2.0, 4.0]);
        assert_eq!(met(&tr, Interval::point(4.0), strip(14.0, 30.0)), vec![4.0]);
        assert_eq!(met(&tr, all, strip(22.0, 30.0)), vec![8.0]);
        assert_eq!(met(&tr, all, strip(22.1, 30.0)), Vec::<f64>::new());
        assert_eq!(met(&tr, all, Rect::from_corners([0.0, 2.1], [30.0, 9.0])), Vec::<f64>::new());
        // Beyond the span, empty, unbounded.
        assert_eq!(met(&tr, Interval::new(10.5, 20.0), Rect::ALL), Vec::<f64>::new());
        assert_eq!(met(&tr, Interval::new(5.0, 3.0), Rect::ALL), Vec::<f64>::new());
        assert_eq!(met(&tr, Interval::EMPTY, Rect::ALL), Vec::<f64>::new());
        assert_eq!(met(&tr, Interval::ALL, Rect::ALL).len(), 5);
        // A NaN bound constrains nothing in the kernels, so it must not
        // here either.
        assert_eq!(met(&tr, Interval::new(f64::NAN, 3.0), Rect::ALL), vec![0.0, 2.0]);
        assert_eq!(met(&tr, Interval::new(7.0, f64::NAN), Rect::ALL), vec![6.0, 8.0]);
        assert_eq!(met(&tr, all, strip(f64::NAN, 1.0)), vec![0.0]);
        assert_eq!(met(&tr, all, strip(19.0, f64::NAN)), vec![8.0]);
        // The test oracle ignores the index.
        let scan = slide_right().scanning_every_piece();
        assert_eq!(met(&scan, Interval::EMPTY, strip(90.0, 91.0)).len(), 5);
    }

    /// The index must actually leave pieces out: a short-lived entry in
    /// one corner of a long bouncing trajectory meets a small share of it.
    #[test]
    fn a_short_lived_entry_meets_few_pieces() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        for seed in 0..48 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // 400 pieces of a window bouncing through [0, 1000]².
            let mut t = rng.gen_range(0.0..50.0);
            let mut c = [rng.gen_range(50.0..950.0), rng.gen_range(50.0..950.0)];
            let mut v = [rng.gen_range(-1400.0..1400.0), rng.gen_range(-1400.0..1400.0)];
            let mut keys = Vec::new();
            for _ in 0..=400 {
                let half = rng.gen_range(1.0..40.0);
                let window =
                    Rect::from_corners([c[0] - half, c[1] - half], [c[0] + half, c[1] + half]);
                keys.push(KeySnapshot { t, window });
                let dt = rng.gen_range(0.01..1.0);
                t += dt;
                for d in 0..2 {
                    c[d] += v[d] * dt;
                    if !(0.0..=1000.0).contains(&c[d]) {
                        c[d] = c[d].clamp(0.0, 1000.0);
                        v[d] = -v[d];
                    }
                }
            }
            let traj = Trajectory::new(keys);
            let span = traj.span();
            let t0 = rng.gen_range(span.lo..span.hi);
            for _ in 0..50 {
                let a = [rng.gen_range(400.0..450.0), rng.gen_range(400.0..450.0)];
                let life = Interval::new(t0, t0 + rng.gen_range(0.0..span.length() / 20.0));
                let seg = MotionSegment::from_endpoints(life, a, a);
                let met = traj.pieces_meeting(&seg.t, &seg.reach()).count();
                assert!(met <= 400 / 8, "seed {seed}: met {met} of 400 pieces");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_monotone_keys_rejected() {
        let _ = Trajectory::new(vec![
            KeySnapshot { t: 1.0, window: win(0.0, 0.0, 1.0) },
            KeySnapshot { t: 1.0, window: win(1.0, 1.0, 1.0) },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_key_rejected() {
        let _ = Trajectory::new(vec![KeySnapshot { t: 1.0, window: win(0.0, 0.0, 1.0) }]);
    }
}
