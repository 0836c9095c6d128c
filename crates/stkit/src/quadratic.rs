//! Quadratic inequalities over time.
//!
//! The squared distance between two linearly-moving points is a quadratic
//! in `t`, so "when are these two objects within δ of each other?" —
//! the predicate behind distance joins (paper future work (ii)) — is the
//! solution set of `a·t² + b·t + c ≤ 0`.

use crate::{Interval, MotionSegment, Scalar, TimeSet};

/// Solution set of `a·t² + b·t + c ≤ 0` over the reals: the empty set,
/// one interval, the whole line, or (for negative leading coefficient)
/// two rays — returned as a [`TimeSet`].
pub fn solve_quadratic_le(a: Scalar, b: Scalar, c: Scalar) -> TimeSet {
    const EPS: Scalar = 1e-300;
    if a.abs() < EPS {
        // Linear: b·t + c ≤ 0.
        if b.abs() < EPS {
            return if c <= 0.0 {
                TimeSet::from_interval(Interval::ALL)
            } else {
                TimeSet::empty()
            };
        }
        let root = -c / b;
        return TimeSet::from_interval(if b > 0.0 {
            Interval::new(Scalar::NEG_INFINITY, root)
        } else {
            Interval::new(root, Scalar::INFINITY)
        });
    }
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        // No real roots: sign is that of `a` everywhere.
        return if a < 0.0 {
            TimeSet::from_interval(Interval::ALL)
        } else {
            TimeSet::empty()
        };
    }
    let sq = disc.sqrt();
    // Numerically stable root ordering.
    let (r1, r2) = {
        let q = -0.5 * (b + b.signum() * sq);
        let (x, y) = if b == 0.0 {
            ((-sq) / (2.0 * a), sq / (2.0 * a))
        } else {
            (q / a, c / q)
        };
        (x.min(y), x.max(y))
    };
    if a > 0.0 {
        // ≤ 0 between the roots.
        TimeSet::from_interval(Interval::new(r1, r2))
    } else {
        // ≤ 0 outside the roots.
        TimeSet::from_intervals([
            Interval::new(Scalar::NEG_INFINITY, r1),
            Interval::new(r2, Scalar::INFINITY),
        ])
    }
}

/// The set of times at which two motion segments are within Euclidean
/// distance `delta`, restricted to both validity intervals.
pub fn within_distance<const D: usize>(
    a: &MotionSegment<D>,
    b: &MotionSegment<D>,
    delta: Scalar,
) -> TimeSet {
    let window = a.t.intersect(&b.t);
    if window.is_empty() {
        return TimeSet::empty();
    }
    // d(t)² = Σ_i ((pa_i − pb_i) + (va_i − vb_i)·t')² with forms in
    // absolute time via coord_form.
    let (mut qa, mut qb, mut qc) = (0.0, 0.0, 0.0);
    for i in 0..D {
        let diff = a.coord_form(i).sub(&b.coord_form(i));
        // (diff.a + diff.b t)²  =  diff.b² t² + 2 diff.a diff.b t + diff.a²
        qa += diff.b * diff.b;
        qb += 2.0 * diff.a * diff.b;
        qc += diff.a * diff.a;
    }
    qc -= delta * delta;
    solve_quadratic_le(qa, qb, qc).intersect_interval(&window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upward_parabola_between_roots() {
        // t² − 1 ≤ 0 ⇔ t ∈ [−1, 1].
        let s = solve_quadratic_le(1.0, 0.0, -1.0);
        assert_eq!(s.intervals(), &[Interval::new(-1.0, 1.0)]);
    }

    #[test]
    fn downward_parabola_two_rays() {
        // −t² + 1 ≤ 0 ⇔ |t| ≥ 1.
        let s = solve_quadratic_le(-1.0, 0.0, 1.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.intervals()[0].hi, -1.0);
        assert_eq!(s.intervals()[1].lo, 1.0);
    }

    #[test]
    fn no_real_roots() {
        assert!(solve_quadratic_le(1.0, 0.0, 1.0).is_empty()); // t²+1 ≤ 0
        let all = solve_quadratic_le(-1.0, 0.0, -1.0); // −t²−1 ≤ 0
        assert_eq!(all.hull(), Interval::ALL);
    }

    #[test]
    fn degenerate_linear_and_constant() {
        // 2t − 4 ≤ 0 ⇔ t ≤ 2.
        let s = solve_quadratic_le(0.0, 2.0, -4.0);
        assert_eq!(s.hull().hi, 2.0);
        assert!(solve_quadratic_le(0.0, 0.0, 5.0).is_empty());
        assert_eq!(solve_quadratic_le(0.0, 0.0, -5.0).hull(), Interval::ALL);
    }

    #[test]
    fn head_on_collision_window() {
        // Two objects approaching along x at closing speed 2, meeting at
        // t = 5; within distance 2 while |10 − 2t| ≤ 2 ⇔ t ∈ [4, 6].
        let a = MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [0.0, 0.0], [10.0, 0.0]);
        let b =
            MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [10.0, 0.0], [0.0, 0.0]);
        let s = within_distance(&a, &b, 2.0);
        assert_eq!(s.hull(), Interval::new(4.0, 6.0));
    }

    #[test]
    fn parallel_motion_constant_distance() {
        let a = MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [0.0, 0.0], [10.0, 0.0]);
        let b = MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [0.0, 3.0], [10.0, 3.0]);
        assert!(within_distance(&a, &b, 2.9).is_empty());
        assert_eq!(
            within_distance(&a, &b, 3.0).hull(),
            Interval::new(0.0, 10.0)
        );
    }

    #[test]
    fn validity_clipping() {
        let a = MotionSegment::from_endpoints(Interval::new(0.0, 4.5), [0.0, 0.0], [4.5, 0.0]);
        let b =
            MotionSegment::from_endpoints(Interval::new(3.0, 10.0), [10.0 - 3.0, 0.0], [0.0, 0.0]);
        // b(t) = 10 − t for t ∈ [3, 10]; a(t) = t. Distance |10 − 2t| ≤ 2
        // ⇔ t ∈ [4, 6], clipped to shared validity [3, 4.5] ⇒ [4, 4.5].
        let s = within_distance(&a, &b, 2.0);
        assert_eq!(s.hull(), Interval::new(4.0, 4.5));
    }

    #[test]
    fn solution_matches_sampling_randomish() {
        // Deterministic pseudo-random coefficients; verify by sampling.
        let mut x = 1234567u64;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for _ in 0..200 {
            let (a, b, c) = (next() * 3.0, next() * 5.0, next() * 5.0);
            let s = solve_quadratic_le(a, b, c);
            for k in -20..=20 {
                let t = k as f64 * 0.37;
                let v = a * t * t + b * t + c;
                if v < -1e-9 {
                    assert!(s.contains(t), "a={a} b={b} c={c} t={t} v={v}");
                } else if v > 1e-9 {
                    assert!(!s.contains(t), "a={a} b={b} c={c} t={t} v={v}");
                }
            }
        }
    }
}
