//! Scalar linear functions of time and exact inequality solving.
//!
//! Every overlap-time computation in the paper (Eq. 3, the "four cases" of
//! Fig. 3, and leaf-level segment intersection) reduces to intersecting
//! solution sets of inequalities of the form `a + b·t ≤ c` or `a + b·t ≥ c`
//! over `t`. Solving them exactly once here keeps the higher-level geometry
//! free of case analysis.

use crate::{Interval, Scalar};

/// A linear function of time: `value(t) = a + b·t`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearForm {
    /// Constant coefficient.
    pub a: Scalar,
    /// Slope (rate of change per unit time).
    pub b: Scalar,
}

impl LinearForm {
    /// The constant function `value(t) = c`.
    #[inline]
    pub fn constant(c: Scalar) -> Self {
        LinearForm { a: c, b: 0.0 }
    }

    /// Build from a point on the line: value `v0` at time `t0`, slope `b`.
    #[inline]
    pub fn through(t0: Scalar, v0: Scalar, b: Scalar) -> Self {
        LinearForm { a: v0 - b * t0, b }
    }

    /// Build the line through `(t0, v0)` and `(t1, v1)`.
    ///
    /// If `t0 == t1` the result is the constant `v0` (the degenerate
    /// trajectory segment of two coincident key snapshots).
    #[inline]
    pub fn between(t0: Scalar, v0: Scalar, t1: Scalar, v1: Scalar) -> Self {
        if t1 == t0 {
            LinearForm::constant(v0)
        } else {
            let b = (v1 - v0) / (t1 - t0);
            LinearForm::through(t0, v0, b)
        }
    }

    /// Evaluate at time `t`.
    #[inline]
    pub fn eval(&self, t: Scalar) -> Scalar {
        self.a + self.b * t
    }

    /// Sum of two linear forms.
    #[inline]
    pub fn add(&self, other: &LinearForm) -> LinearForm {
        LinearForm {
            a: self.a + other.a,
            b: self.b + other.b,
        }
    }

    /// Difference `self − other`.
    #[inline]
    pub fn sub(&self, other: &LinearForm) -> LinearForm {
        LinearForm {
            a: self.a - other.a,
            b: self.b - other.b,
        }
    }

    /// Shift the whole line by a constant offset.
    #[inline]
    pub fn offset(&self, delta: Scalar) -> LinearForm {
        LinearForm {
            a: self.a + delta,
            b: self.b,
        }
    }

    /// Solution set of `a + b·t ≤ c` as a (possibly unbounded) interval.
    #[inline]
    pub fn solve_le(&self, c: Scalar) -> Interval {
        if self.b > 0.0 {
            Interval::new(Scalar::NEG_INFINITY, (c - self.a) / self.b)
        } else if self.b < 0.0 {
            Interval::new((c - self.a) / self.b, Scalar::INFINITY)
        } else if self.a <= c {
            Interval::ALL
        } else {
            Interval::EMPTY
        }
    }

    /// Solution set of `a + b·t ≥ c` as a (possibly unbounded) interval.
    #[inline]
    pub fn solve_ge(&self, c: Scalar) -> Interval {
        if self.b > 0.0 {
            Interval::new((c - self.a) / self.b, Scalar::INFINITY)
        } else if self.b < 0.0 {
            Interval::new(Scalar::NEG_INFINITY, (c - self.a) / self.b)
        } else if self.a >= c {
            Interval::ALL
        } else {
            Interval::EMPTY
        }
    }

    /// Solution set of `lo ≤ a + b·t ≤ hi`.
    #[inline]
    pub fn solve_within(&self, range: &Interval) -> Interval {
        if range.is_empty() {
            return Interval::EMPTY;
        }
        self.solve_ge(range.lo).intersect(&self.solve_le(range.hi))
    }

    /// Times at which `self(t) ≤ other(t)`.
    #[inline]
    pub fn solve_le_form(&self, other: &LinearForm) -> Interval {
        self.sub(other).solve_le(0.0)
    }

    /// Times at which `self(t) ≥ other(t)`.
    #[inline]
    pub fn solve_ge_form(&self, other: &LinearForm) -> Interval {
        self.sub(other).solve_ge(0.0)
    }

    /// Range of values taken over the time interval `span`.
    #[inline]
    pub fn range_over(&self, span: &Interval) -> Interval {
        if span.is_empty() {
            return Interval::EMPTY;
        }
        let v0 = self.eval(span.lo);
        let v1 = self.eval(span.hi);
        Interval::new(v0.min(v1), v0.max(v1))
    }

    /// [`Self::range_over`] widened by [`REACH_SLACK`]` · (|a| + |b|·T)`,
    /// `T` the larger magnitude of `span`'s ends: the values the overlap
    /// kernels can attribute to this line over `span`, rounding included.
    ///
    /// Why that is enough. A kernel never evaluates the line; it solves
    /// `a + b·t ≷ c` for `t` as `(c − a)/b` (or, line against line,
    /// `−(a − a′)/(b − b′)`) and intersects the roots with `span`. Each
    /// root carries at most three roundings, so it is the exact root
    /// times `1 + ε`, `|ε| < 2⁻⁵¹`, and the slope's sign — the case
    /// selector — is exact. A non-empty result therefore holds a time
    /// `τ ∈ span` at which every constraint is violated by at most
    /// `(|b| + |b′|)·|τ|·2⁻⁵⁰`; the two endpoint evaluations of
    /// `range_over` err by less than `2⁻⁵¹·(|a| + |b|·T)`. Each side of
    /// a comparison pads for its own slope and intercept, so two reaches
    /// that are disjoint prove the kernel result empty, with a factor
    /// of 2⁸ to spare. A pad that is not finite (unbounded `span`)
    /// makes the reach unbounded or NaN; callers prune on `<`/`>` only,
    /// which a NaN never satisfies.
    #[inline]
    pub fn reach_over(&self, span: &Interval) -> Interval {
        let r = self.range_over(span);
        let t = span.lo.abs().max(span.hi.abs());
        let pad = REACH_SLACK * (self.a.abs() + self.b.abs() * t);
        Interval::new(r.lo - pad, r.hi + pad)
    }
}

/// Relative widening of [`LinearForm::reach_over`]: 2⁻⁴⁰, about 2¹²
/// ulps — far above the kernels' rounding, far below any window side.
pub const REACH_SLACK: Scalar = 1.0 / (1u64 << 40) as Scalar;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_eval() {
        let f = LinearForm::through(2.0, 10.0, 3.0);
        assert_eq!(f.eval(2.0), 10.0);
        assert_eq!(f.eval(4.0), 16.0);
        let g = LinearForm::between(0.0, 0.0, 2.0, 4.0);
        assert_eq!(g.b, 2.0);
        assert_eq!(g.eval(1.5), 3.0);
        // Degenerate: coincident times fall back to a constant.
        let h = LinearForm::between(1.0, 7.0, 1.0, 9.0);
        assert_eq!(h, LinearForm::constant(7.0));
    }

    #[test]
    fn solve_le_positive_slope() {
        let f = LinearForm { a: 0.0, b: 2.0 }; // 2t ≤ 6 ⇔ t ≤ 3
        let s = f.solve_le(6.0);
        assert_eq!(s.hi, 3.0);
        assert!(s.lo.is_infinite() && s.lo < 0.0);
    }

    #[test]
    fn solve_le_negative_slope() {
        let f = LinearForm { a: 10.0, b: -2.0 }; // 10−2t ≤ 6 ⇔ t ≥ 2
        let s = f.solve_le(6.0);
        assert_eq!(s.lo, 2.0);
        assert!(s.hi.is_infinite());
    }

    #[test]
    fn solve_constant_cases() {
        let f = LinearForm::constant(5.0);
        assert_eq!(f.solve_le(6.0), Interval::ALL);
        assert!(f.solve_le(4.0).is_empty());
        assert_eq!(f.solve_ge(4.0), Interval::ALL);
        assert!(f.solve_ge(6.0).is_empty());
    }

    #[test]
    fn solve_within_band() {
        // position p(t) = 1 + t must be within [3, 5] ⇔ t ∈ [2, 4]
        let f = LinearForm { a: 1.0, b: 1.0 };
        let s = f.solve_within(&Interval::new(3.0, 5.0));
        assert_eq!(s, Interval::new(2.0, 4.0));
        assert!(f.solve_within(&Interval::EMPTY).is_empty());
    }

    #[test]
    fn form_vs_form() {
        // f(t)=t, g(t)=4−t ⇒ f ≤ g for t ≤ 2
        let f = LinearForm { a: 0.0, b: 1.0 };
        let g = LinearForm { a: 4.0, b: -1.0 };
        assert_eq!(f.solve_le_form(&g).hi, 2.0);
        assert_eq!(f.solve_ge_form(&g).lo, 2.0);
    }

    #[test]
    fn range_over_span() {
        let f = LinearForm { a: 0.0, b: -1.0 };
        assert_eq!(
            f.range_over(&Interval::new(1.0, 3.0)),
            Interval::new(-3.0, -1.0)
        );
        assert!(f.range_over(&Interval::EMPTY).is_empty());
    }

    #[test]
    fn reach_pads_the_range_by_the_line_scale() {
        let f = LinearForm { a: 100.0, b: -2.0 };
        let span = Interval::new(10.0, 20.0);
        let (range, reach) = (f.range_over(&span), f.reach_over(&span));
        assert_eq!(range, Interval::new(60.0, 80.0));
        let pad = REACH_SLACK * (100.0 + 2.0 * 20.0);
        assert_eq!(reach, Interval::new(60.0 - pad, 80.0 + pad));
        assert!(reach.lo < range.lo && range.hi < reach.hi);
        // Unbounded span: the reach is unbounded too.
        let open = f.reach_over(&Interval::new(0.0, f64::INFINITY));
        assert_eq!(open, Interval::ALL);
    }

    #[test]
    fn add_sub_offset() {
        let f = LinearForm { a: 1.0, b: 2.0 };
        let g = LinearForm { a: 3.0, b: -1.0 };
        assert_eq!(f.add(&g), LinearForm { a: 4.0, b: 1.0 });
        assert_eq!(f.sub(&g), LinearForm { a: -2.0, b: 3.0 });
        assert_eq!(f.offset(5.0), LinearForm { a: 6.0, b: 2.0 });
    }
}
