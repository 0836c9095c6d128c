//! Property tests for the TPR-tree: key conservativeness under cover and
//! page encoding, and the scalar overlap time against sampling. The
//! dynamic query is held to the record-list truth by the root
//! `tests/engines.rs`.

use mobiquery::Trajectory;
use proptest::prelude::*;
use rtree::{Key, Record};
use stkit::{Interval, Rect};
use tprtree::{engine::overlap_trajectory_tpbox, TpBox, TprRecord};

fn rec() -> impl Strategy<Value = TprRecord> {
    (
        (0.0f64..100.0, 0.0f64..100.0),
        (-2.0f64..2.0, -2.0f64..2.0),
        0.0f64..20.0,
        1.0f64..20.0,
    )
        .prop_map(|(p, v, t0, dur)| {
            TprRecord::new(0, 0, Interval::new(t0, t0 + dur), [p.0, p.1], [v.0, v.1])
        })
}

fn traj() -> impl Strategy<Value = Trajectory<2>> {
    (
        (10.0f64..90.0, 10.0f64..90.0),
        (-3.0f64..3.0, -3.0f64..3.0),
        2.0f64..12.0,
        0.5f64..15.0,
    )
        .prop_map(|(c, v, side, dur)| {
            Trajectory::linear(
                Rect::from_corners([c.0, c.1], [c.0 + side, c.1 + side]),
                [v.0, v.1],
                Interval::new(2.0, 2.0 + dur),
                3,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cover_contains_motions_at_all_times(a in rec(), b in rec()) {
        let c = Key::cover(&a.key(), &b.key());
        for r in [&a, &b] {
            for k in 0..=10 {
                let t = r.active.lo + r.active.length() * k as f64 / 10.0;
                let p = r.position_at(t);
                prop_assert!(
                    c.rect_at(t).inflate(1e-9).contains_point(&p),
                    "cover must contain {p:?} at t={t}"
                );
            }
        }
        // `contains` is strict (no epsilon): it may report false for a
        // box it covers up to rounding — safe for pruning. Check the
        // one-sided guarantee with an explicit tolerance instead.
        for r in [&a, &b] {
            for t in [r.active.lo, r.active.hi] {
                for axis in 0..2 {
                    let lo = c.axes[axis].lo_form().eval(t);
                    let hi = c.axes[axis].hi_form().eval(t);
                    let p = r.position_at(t)[axis];
                    prop_assert!(lo <= p + 1e-6 && p - 1e-6 <= hi,
                        "axis {axis} t={t}: [{lo}, {hi}] vs {p}");
                }
            }
        }
    }

    #[test]
    fn encoding_is_conservative(a in rec(), b in rec()) {
        let c = Key::cover(&a.key(), &b.key());
        let mut buf = Vec::new();
        c.encode(&mut buf);
        let d = TpBox::decode(&buf);
        for r in [&a, &b] {
            for k in 0..=10 {
                let t = r.active.lo + r.active.length() * k as f64 / 10.0;
                let p = r.position_at(t);
                prop_assert!(
                    d.rect_at(t).inflate(1e-3).contains_point(&p),
                    "decoded cover must contain {p:?} at t={t}"
                );
            }
        }
    }

    #[test]
    fn overlap_time_matches_sampling(r in rec(), q in traj()) {
        let ts = overlap_trajectory_tpbox(&q, &r.tpbox());
        let span = q.span().intersect(&r.active);
        if span.is_empty() { return Ok(()); }
        for k in 0..=24 {
            let t = span.lo + span.length() * k as f64 / 24.0;
            let p = r.position_at(t);
            let win = q.window_at(t);
            if ts.contains(t) {
                prop_assert!(win.inflate(1e-6).contains_point(&p), "t={t}");
            } else {
                let shrunk = win.inflate(-1e-6);
                if !shrunk.is_empty() && shrunk.contains_point(&p) {
                    prop_assert!(ts.contains(t), "t={t} at {p:?} missed");
                }
            }
        }
    }
}

/// A shrunk failure of the cover property, kept as a deterministic case
/// (the proptest shim neither shrinks nor persists, so a regression worth
/// keeping is promoted to a `#[test]`): a stationary record and a slow
/// mover whose active intervals are ~12 time units apart stress the
/// cover's extrapolation outside both validity windows.
#[test]
fn cover_regression_disjoint_active_intervals() {
    let a = TprRecord::new(
        0,
        0,
        Interval::new(4.136654853820801, 5.136654853820801),
        [0.0, 0.0],
        [0.0, 0.0],
    );
    let b = TprRecord::new(
        0,
        0,
        Interval::new(16.95756721496582, 17.95756721496582),
        [72.91514587402344, 0.0],
        [0.11966397613286972, 0.0],
    );
    let c = Key::cover(&a.key(), &b.key());
    for r in [&a, &b] {
        for k in 0..=10 {
            let t = r.active.lo + r.active.length() * k as f64 / 10.0;
            let p = r.position_at(t);
            assert!(
                c.rect_at(t).inflate(1e-9).contains_point(&p),
                "cover must contain {p:?} at t={t}"
            );
            for (axis, &x) in p.iter().enumerate() {
                let lo = c.axes[axis].lo_form().eval(t);
                let hi = c.axes[axis].hi_form().eval(t);
                assert!(
                    lo <= x + 1e-6 && x - 1e-6 <= hi,
                    "axis {axis} t={t}: [{lo}, {hi}] vs {x}"
                );
            }
        }
    }
}
