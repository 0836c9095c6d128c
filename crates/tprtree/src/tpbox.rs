//! Time-parameterized bounding rectangles.
//!
//! A `TpBox` bounds a set of moving points over an *active* time window:
//! along each axis the lower edge moves as `lo(t) = lo₀ + v_lo·t` and the
//! upper edge as `hi(t) = hi₀ + v_hi·t` (absolute time; the reference
//! instant is t = 0). Conservativeness across `cover` comes from taking
//! `min`/`max` of both the positions *at the cover's anchor* and the edge
//! velocities — the classic TPR-tree construction.

use rtree::stbox_key::{f32_down, f32_up};
use rtree::Key;
use stkit::{Interval, LinearForm, Rect, Scalar};

/// One axis of a time-parameterized box: two moving edges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TpAxis {
    /// Lower edge position at t = 0.
    pub lo0: Scalar,
    /// Lower edge velocity (most negative of the covered points).
    pub v_lo: Scalar,
    /// Upper edge position at t = 0.
    pub hi0: Scalar,
    /// Upper edge velocity (most positive of the covered points).
    pub v_hi: Scalar,
}

impl TpAxis {
    /// The empty axis.
    pub const EMPTY: TpAxis = TpAxis {
        lo0: Scalar::INFINITY,
        v_lo: 0.0,
        hi0: Scalar::NEG_INFINITY,
        v_hi: 0.0,
    };

    /// Lower edge as a linear form of absolute time.
    pub fn lo_form(&self) -> LinearForm {
        LinearForm {
            a: self.lo0,
            b: self.v_lo,
        }
    }

    /// Upper edge as a linear form of absolute time.
    pub fn hi_form(&self) -> LinearForm {
        LinearForm {
            a: self.hi0,
            b: self.v_hi,
        }
    }

    /// Extent `[lo(t), hi(t)]` at time `t`.
    pub fn extent_at(&self, t: Scalar) -> Interval {
        Interval::new(self.lo_form().eval(t), self.hi_form().eval(t))
    }

    fn cover(&self, other: &TpAxis, anchor: Scalar) -> TpAxis {
        // Conservative union: anchor both, take extreme positions at the
        // anchor and extreme velocities. Never shrinks afterwards.
        let lo0_at = self.lo_form().eval(anchor).min(other.lo_form().eval(anchor));
        let hi0_at = self.hi_form().eval(anchor).max(other.hi_form().eval(anchor));
        let v_lo = self.v_lo.min(other.v_lo);
        let v_hi = self.v_hi.max(other.v_hi);
        TpAxis {
            lo0: lo0_at - v_lo * anchor,
            v_lo,
            hi0: hi0_at - v_hi * anchor,
            v_hi,
        }
    }
}

/// A time-parameterized box over `D = 2` spatial axes, active during
/// `active` (conservatively, the time the covered motions are defined).
///
/// Implements [`rtree::Key`] with the TPR-tree's integrated metrics:
/// `volume`/`margin` are the integrals of the instantaneous values over
/// the active window, so Guttman's least-enlargement ChooseLeaf becomes
/// the TPR-tree's least *integrated* area enlargement, and the split
/// policies optimize integrated goodness — no changes to the `rtree`
/// crate required.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TpBox {
    /// Per-axis moving edges.
    pub axes: [TpAxis; 2],
    /// Active time window.
    pub active: Interval,
}

impl TpBox {
    /// The empty box.
    pub const EMPTY: TpBox = TpBox {
        axes: [TpAxis::EMPTY; 2],
        active: Interval::EMPTY,
    };

    /// A moving point: position `p` at time `t0`, velocity `v`, active
    /// from `t0` to `t1`.
    pub fn moving_point(p: [Scalar; 2], v: [Scalar; 2], active: Interval) -> Self {
        let mut axes = [TpAxis::EMPTY; 2];
        for i in 0..2 {
            let a = p[i] - v[i] * active.lo;
            axes[i] = TpAxis {
                lo0: a,
                v_lo: v[i],
                hi0: a,
                v_hi: v[i],
            };
        }
        TpBox { axes, active }
    }

    /// A stationary box active over a window (used for query regions).
    pub fn stationary(rect: &Rect<2>, active: Interval) -> Self {
        let mut axes = [TpAxis::EMPTY; 2];
        for i in 0..2 {
            axes[i] = TpAxis {
                lo0: rect.extent(i).lo,
                v_lo: 0.0,
                hi0: rect.extent(i).hi,
                v_hi: 0.0,
            };
        }
        TpBox { axes, active }
    }

    /// The static rectangle this box covers at instant `t` (clamped into
    /// the active window).
    ///
    /// An empty active window bounds no instants at all, so the answer is
    /// [`Rect::EMPTY`]. The previous behaviour clamped `t` into the empty
    /// interval, which evaluates the edge forms at ±∞ and can yield an
    /// *inverted or infinite* rectangle that silently passes overlap
    /// checks (debug builds asserted; release builds returned garbage).
    pub fn rect_at(&self, t: Scalar) -> Rect<2> {
        if self.active.is_empty() {
            return Rect::EMPTY;
        }
        let t = self.active.clamp(t);
        Rect::new([self.axes[0].extent_at(t), self.axes[1].extent_at(t)])
    }

    /// The set of instants in `window` at which this box overlaps `other`
    /// — a conjunction of linear inequalities, exact.
    ///
    /// Always the canonical [`Interval::EMPTY`] when no such instant
    /// exists — in particular when either active window is empty — never
    /// a non-canonical inverted interval.
    pub fn overlap_time(&self, other: &TpBox) -> Interval {
        let mut t = self.active.intersect(&other.active);
        for i in 0..2 {
            if t.is_empty() {
                return Interval::EMPTY;
            }
            // self.lo(t) ≤ other.hi(t) ∧ self.hi(t) ≥ other.lo(t)
            t = t.intersect(&self.axes[i].lo_form().solve_le_form(&other.axes[i].hi_form()));
            t = t.intersect(&self.axes[i].hi_form().solve_ge_form(&other.axes[i].lo_form()));
        }
        if t.is_empty() {
            return Interval::EMPTY;
        }
        t
    }

    /// Instantaneous area at time `t`.
    pub fn area_at(&self, t: Scalar) -> Scalar {
        let a = self.axes[0].extent_at(t).length();
        let b = self.axes[1].extent_at(t).length();
        a * b
    }

    /// Integrated area over the active window (exact: the integrand is a
    /// quadratic in `t`, so Simpson's rule is exact).
    pub fn integrated_area(&self) -> Scalar {
        if self.active.is_empty() || self.is_empty() {
            return 0.0;
        }
        let (a, b) = (self.active.lo, self.active.hi);
        if a == b {
            return self.area_at(a);
        }
        let m = 0.5 * (a + b);
        (b - a) / 6.0 * (self.area_at(a) + 4.0 * self.area_at(m) + self.area_at(b))
    }

    /// Integrated margin (perimeter/2) over the active window (linear
    /// integrand ⇒ trapezoid rule is exact).
    pub fn integrated_margin(&self) -> Scalar {
        if self.active.is_empty() || self.is_empty() {
            return 0.0;
        }
        let per = |t: Scalar| {
            self.axes[0].extent_at(t).length() + self.axes[1].extent_at(t).length()
        };
        let (a, b) = (self.active.lo, self.active.hi);
        if a == b {
            return per(a);
        }
        0.5 * (b - a) * (per(a) + per(b))
    }
}

impl Key for TpBox {
    // Per axis: lo0, v_lo, hi0, v_hi (4 × f32) ×2 + active (2 × f32).
    const ENCODED_LEN: usize = 2 * 16 + 8;
    const AXES: usize = 3; // two spatial + the active-time axis (for STR)

    fn empty() -> Self {
        TpBox::EMPTY
    }

    fn is_empty(&self) -> bool {
        self.active.is_empty()
            || self
                .axes
                .iter()
                .any(|a| a.lo_form().eval(self.active.mid()) > a.hi_form().eval(self.active.mid())
                    && a.lo0 > a.hi0)
    }

    fn cover(&self, other: &Self) -> Self {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let active = self.active.cover(&other.active);
        let anchor = active.lo;
        TpBox {
            axes: [
                self.axes[0].cover(&other.axes[0], anchor),
                self.axes[1].cover(&other.axes[1], anchor),
            ],
            active,
        }
    }

    fn intersect(&self, other: &Self) -> Self {
        // Conservative: intersect actives; keep the tighter edges at the
        // intersection anchor with the *less* conservative velocities
        // swapped inward. Used only by discardability-style tests, which
        // TPR queries do not employ; a conservative over-approximation
        // (self clipped to the shared active window) is safe there.
        let active = self.active.intersect(&other.active);
        if active.is_empty() {
            return TpBox::EMPTY;
        }
        TpBox {
            axes: self.axes,
            active,
        }
    }

    fn overlaps(&self, other: &Self) -> bool {
        !self.overlap_time(other).is_empty()
    }

    fn contains(&self, other: &Self) -> bool {
        // Conservative containment: at both ends of the other's active
        // window and with dominating velocities.
        if other.is_empty() {
            return true;
        }
        if !self.active.contains_interval(&other.active) {
            return false;
        }
        for i in 0..2 {
            let (s, o) = (&self.axes[i], &other.axes[i]);
            for t in [other.active.lo, other.active.hi] {
                if s.lo_form().eval(t) > o.lo_form().eval(t)
                    || s.hi_form().eval(t) < o.hi_form().eval(t)
                {
                    return false;
                }
            }
        }
        true
    }

    fn volume(&self) -> f64 {
        self.integrated_area()
    }

    fn margin(&self) -> f64 {
        self.integrated_margin()
    }

    fn enlargement(&self, other: &Self) -> f64 {
        self.cover(other).volume() - self.volume()
    }

    fn axis_lo(&self, axis: usize) -> f64 {
        if axis < 2 {
            let a = &self.axes[axis];
            a.lo_form()
                .eval(self.active.lo)
                .min(a.lo_form().eval(self.active.hi))
        } else {
            self.active.lo
        }
    }

    fn axis_hi(&self, axis: usize) -> f64 {
        if axis < 2 {
            let a = &self.axes[axis];
            a.hi_form()
                .eval(self.active.lo)
                .max(a.hi_form().eval(self.active.hi))
        } else {
            self.active.hi
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        // Outward over the whole stored window, not only at t ≥ 0: before
        // t = 0 a velocity rounded outward moves its edge inward by the
        // rounding times |t|, so the edge at t = 0 widens by as much.
        let (t_lo, t_hi) = (f32_down(self.active.lo), f32_up(self.active.hi));
        let before_zero = (-f64::from(t_lo)).max(0.0);
        let widen = |rounding: f64| if rounding > 0.0 { rounding * before_zero } else { 0.0 };
        for a in &self.axes {
            let (v_lo, v_hi) = (f32_down(a.v_lo), f32_up(a.v_hi));
            let lo0 = f32_down(a.lo0 - widen(a.v_lo - f64::from(v_lo)));
            let hi0 = f32_up(a.hi0 + widen(f64::from(v_hi) - a.v_hi));
            for x in [lo0, v_lo, hi0, v_hi] {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        buf.extend_from_slice(&t_lo.to_le_bytes());
        buf.extend_from_slice(&t_hi.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        let f = |o: usize| f32::from_le_bytes(buf[o..o + 4].try_into().unwrap()) as f64;
        let mut axes = [TpAxis::EMPTY; 2];
        for (i, a) in axes.iter_mut().enumerate() {
            let o = i * 16;
            *a = TpAxis {
                lo0: f(o),
                v_lo: f(o + 4),
                hi0: f(o + 8),
                v_hi: f(o + 12),
            };
        }
        TpBox {
            axes,
            active: Interval::new(f(32), f(36)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mp(p: [f64; 2], v: [f64; 2], t0: f64, t1: f64) -> TpBox {
        TpBox::moving_point(p, v, Interval::new(t0, t1))
    }

    #[test]
    fn moving_point_positions() {
        let b = mp([1.0, 2.0], [1.0, -0.5], 0.0, 10.0);
        assert_eq!(b.rect_at(0.0), Rect::from_point([1.0, 2.0]));
        assert_eq!(b.rect_at(4.0), Rect::from_point([5.0, 0.0]));
        // Anchored at t0 ≠ 0 too.
        let b = mp([1.0, 2.0], [1.0, 0.0], 5.0, 10.0);
        assert_eq!(b.rect_at(5.0), Rect::from_point([1.0, 2.0]));
        assert_eq!(b.rect_at(7.0), Rect::from_point([3.0, 2.0]));
    }

    #[test]
    fn cover_bounds_both_motions_forever() {
        let a = mp([0.0, 0.0], [1.0, 0.0], 0.0, 10.0);
        let b = mp([5.0, 1.0], [-1.0, 0.5], 0.0, 10.0);
        let c = Key::cover(&a, &b);
        for k in 0..=20 {
            let t = k as f64 * 0.5;
            let r = c.rect_at(t);
            assert!(r.contains_point(&[t, 0.0]), "a at t={t}");
            assert!(r.contains_point(&[5.0 - t, 1.0 + 0.5 * t]), "b at t={t}");
        }
        assert!(c.contains(&a));
        assert!(c.contains(&b));
    }

    #[test]
    fn overlap_time_exact() {
        // Point moving right; stationary box at x ∈ [5, 6].
        let p = mp([0.0, 0.5], [1.0, 0.0], 0.0, 10.0);
        let q = TpBox::stationary(
            &Rect::from_corners([5.0, 0.0], [6.0, 1.0]),
            Interval::new(0.0, 10.0),
        );
        assert_eq!(p.overlap_time(&q), Interval::new(5.0, 6.0));
        assert!(Key::overlaps(&p, &q));
        // Outside the active window: no overlap.
        let q_late = TpBox::stationary(
            &Rect::from_corners([5.0, 0.0], [6.0, 1.0]),
            Interval::new(7.0, 10.0),
        );
        assert!(p.overlap_time(&q_late).is_empty());
    }

    #[test]
    fn empty_active_rect_at_is_empty() {
        // A box whose edges are perfectly valid but whose active window
        // is empty bounds no instants: rect_at must be empty at any t,
        // not an inverted/infinite rectangle evaluated at a clamped ±∞.
        let mut b = mp([1.0, 2.0], [1.0, -0.5], 0.0, 10.0);
        b.active = Interval::EMPTY;
        for t in [-5.0, 0.0, 3.0, 1e9] {
            let r = b.rect_at(t);
            assert!(r.is_empty(), "rect_at({t}) = {r:?} must be empty");
        }
        // Inverted (lo > hi) active windows count as empty too.
        let mut inv = mp([1.0, 2.0], [1.0, -0.5], 0.0, 10.0);
        inv.active = Interval::new(5.0, 2.0);
        assert!(inv.active.is_empty());
        assert!(inv.rect_at(3.0).is_empty());
        assert_eq!(TpBox::EMPTY.rect_at(0.0), Rect::EMPTY);
    }

    #[test]
    fn empty_active_overlap_time_is_canonically_empty() {
        let a = mp([0.0, 0.5], [1.0, 0.0], 0.0, 10.0);
        let mut dead = a;
        dead.active = Interval::EMPTY;
        // Both orders, and the canonical constant — not merely "some
        // empty-ish interval" that downstream code might mishandle.
        assert_eq!(dead.overlap_time(&a), Interval::EMPTY);
        assert_eq!(a.overlap_time(&dead), Interval::EMPTY);
        assert!(!Key::overlaps(&a, &dead));
        assert!(!Key::overlaps(&dead, &a));
        // Disjoint actives intersect to an inverted interval; the result
        // must still be the canonical EMPTY.
        let late = mp([0.0, 0.5], [1.0, 0.0], 20.0, 30.0);
        let ov = a.overlap_time(&late);
        assert_eq!(ov, Interval::EMPTY);
        assert_eq!(ov.lo, Interval::EMPTY.lo);
        assert_eq!(ov.hi, Interval::EMPTY.hi);
        // And a non-overlap *within* a live window is canonical as well.
        let never = mp([5.0, 50.0], [0.0, 0.0], 0.0, 10.0);
        let ov = a.overlap_time(&never);
        assert_eq!(ov.lo, Interval::EMPTY.lo);
        assert_eq!(ov.hi, Interval::EMPTY.hi);
    }

    #[test]
    fn chasing_points_never_meet() {
        let a = mp([0.0, 0.0], [1.0, 0.0], 0.0, 100.0);
        let b = mp([5.0, 0.0], [1.0, 0.0], 0.0, 100.0);
        assert!(a.overlap_time(&b).is_empty());
        // Slower leader is caught at t = 10.
        let slow = mp([5.0, 0.0], [0.5, 0.0], 0.0, 100.0);
        assert_eq!(a.overlap_time(&slow).lo, 10.0);
    }

    #[test]
    fn integrated_metrics() {
        // Two diverging points: box width grows as 2t along x, 0 along y.
        let a = mp([0.0, 0.0], [-1.0, 0.0], 0.0, 2.0);
        let b = mp([0.0, 0.0], [1.0, 0.0], 0.0, 2.0);
        let c = Key::cover(&a, &b);
        // Area(t) = (2t)·0 = 0 (degenerate in y) ⇒ integral 0.
        assert_eq!(c.integrated_area(), 0.0);
        // Margin(t) = 2t ⇒ ∫₀² 2t dt = 4.
        assert!((c.integrated_margin() - 4.0).abs() < 1e-9);
        assert_eq!(Key::margin(&c), c.integrated_margin());
    }

    #[test]
    fn integrated_area_quadratic_exact() {
        // Diverging in both axes: area(t) = (2t)(4t) = 8t², ∫₀³ = 72.
        let a = mp([0.0, 0.0], [-1.0, -2.0], 0.0, 3.0);
        let b = mp([0.0, 0.0], [1.0, 2.0], 0.0, 3.0);
        let c = Key::cover(&a, &b);
        assert!((c.integrated_area() - 72.0).abs() < 1e-9);
    }

    #[test]
    fn encode_decode_conservative() {
        let a = mp([0.1, 0.2], [0.3, -0.7], 1.0, 9.0);
        let b = mp([3.0, 4.0], [-0.1, 0.2], 2.0, 8.0);
        let c = Key::cover(&a, &b);
        let mut buf = Vec::new();
        c.encode(&mut buf);
        assert_eq!(buf.len(), <TpBox as Key>::ENCODED_LEN);
        let d = TpBox::decode(&buf);
        // The decoded box must still contain both motions.
        assert!(d.contains(&a.intersect(&d)));
        for k in 0..=16 {
            let t = 1.0 + k as f64 * 0.5;
            if a.active.contains(t) {
                let p = a.rect_at(t).center();
                assert!(d.rect_at(t).inflate(1e-4).contains_point(&p), "t={t}");
            }
        }
    }

    #[test]
    fn encoding_holds_a_motion_that_starts_before_zero() {
        // Velocities no f32 holds, over a window before t = 0: rounding
        // `v_lo` down raises `lo(t)` there, and `v_hi` up lowers `hi(t)`,
        // unless the edges at t = 0 widen with them.
        let b = mp([-10.0, 10.0], [0.1, -0.1], -100.0, -1.0);
        let mut buf = Vec::new();
        b.encode(&mut buf);
        let d = TpBox::decode(&buf);
        for t in [-100.0, -50.0, -1.0] {
            let (stored, exact) = (d.rect_at(t), b.rect_at(t));
            assert!(stored.contains_rect(&exact), "t={t}: {stored:?} vs {exact:?}");
        }
        assert!(d.contains(&b));
    }

    #[test]
    fn empty_box_behaviour() {
        assert!(Key::is_empty(&TpBox::EMPTY));
        let a = mp([0.0, 0.0], [1.0, 1.0], 0.0, 5.0);
        assert_eq!(Key::cover(&TpBox::EMPTY, &a), a);
        assert!(!Key::overlaps(&TpBox::EMPTY, &a));
        assert_eq!(TpBox::EMPTY.integrated_area(), 0.0);
    }

    #[test]
    fn str_axis_accessors() {
        let a = mp([1.0, 2.0], [1.0, 0.0], 0.0, 4.0);
        // x spans [1, 5] over the active window; y fixed at 2; time [0,4].
        assert_eq!(Key::axis_lo(&a, 0), 1.0);
        assert_eq!(Key::axis_hi(&a, 0), 5.0);
        assert_eq!(Key::axis_lo(&a, 1), 2.0);
        assert_eq!(Key::axis_hi(&a, 1), 2.0);
        assert_eq!(Key::axis_lo(&a, 2), 0.0);
        assert_eq!(Key::axis_hi(&a, 2), 4.0);
    }
}
