//! Property test pinning the TPR-tree's one overlap form,
//! `overlap_trajectory_tpbox` — pieces pruned by time through the
//! trajectory's piece index — to the loop over every piece kept here as
//! the oracle, and the box's hull the PDQ queue keys it by,
//! `PdqRecord::key_hull`, to the hull of both sets. Equality is
//! `to_bits`-exact, interval for interval.

use mobiquery::{KeySnapshot, PdqRecord, Trajectory};
use proptest::prelude::*;
use stkit::{Interval, Rect, TimeSet};
use tprtree::engine::{overlap_trajectory_tpbox, overlap_window_tpbox};
use tprtree::{TpBox, TprRecord};

fn every_piece(traj: &Trajectory<2>, b: &TpBox) -> TimeSet {
    let mut out = TimeSet::empty();
    for s in traj.segments() {
        out.insert(overlap_window_tpbox(s, b));
    }
    out
}

fn bits(ts: &TimeSet) -> Vec<(u64, u64)> {
    ts.intervals().iter().map(|iv| (iv.lo.to_bits(), iv.hi.to_bits())).collect()
}

fn hull_bits(iv: Interval) -> (u64, u64) {
    (iv.lo.to_bits(), iv.hi.to_bits())
}

fn iv() -> impl Strategy<Value = Interval> {
    (-40.0f64..40.0, 0.0f64..25.0).prop_map(|(lo, len)| Interval::new(lo, lo + len))
}

fn rect2() -> impl Strategy<Value = Rect<2>> {
    (iv(), iv()).prop_map(|(x, y)| Rect::new([x, y]))
}

/// Activity windows: finite ones starting before or after 0, and ones
/// with a NaN or an infinite bound on either side.
fn active() -> impl Strategy<Value = Interval> {
    prop_oneof![
        iv(),
        iv(),
        iv(),
        (-40.0f64..40.0).prop_map(|hi| Interval::new(f64::NAN, hi)),
        (-40.0f64..40.0).prop_map(|lo| Interval::new(lo, f64::NAN)),
        (-40.0f64..40.0).prop_map(|hi| Interval::new(f64::NEG_INFINITY, hi)),
        (-40.0f64..40.0).prop_map(|lo| Interval::new(lo, f64::INFINITY)),
        Just(Interval::ALL),
    ]
}

/// 2–12 key snapshots, 0.5–8 time units apart, starting inside the
/// range the boxes' `active` windows are drawn from.
fn trajectory() -> impl Strategy<Value = Trajectory<2>> {
    (-40.0f64..40.0, proptest::collection::vec((0.5f64..8.0, rect2()), 2..12)).prop_map(
        |(t0, steps)| {
            let mut t = t0;
            let keys = steps.into_iter().map(|(dt, mut window)| {
                t += dt;
                for e in &mut window.dims {
                    e.hi = e.hi.max(e.lo + 0.5);
                }
                KeySnapshot { t, window }
            });
            Trajectory::new(keys.collect())
        },
    )
}

fn tpbox() -> impl Strategy<Value = TpBox> {
    prop_oneof![
        (
            (-40.0f64..40.0, -40.0f64..40.0),
            (-3.0f64..3.0, -3.0f64..3.0),
            active(),
        )
            .prop_map(|(p, v, active)| TpBox::moving_point([p.0, p.1], [v.0, v.1], active)),
        (rect2(), active()).prop_map(|(r, active)| TpBox::stationary(&r, active)),
        // Covers every window: it overlaps whichever piece is alive with
        // it, so a piece pruned wrongly by time always shows.
        active().prop_map(|active| {
            TpBox::stationary(&Rect::from_corners([-1e3, -1e3], [1e3, 1e3]), active)
        }),
        Just(TpBox::EMPTY),
    ]
}

/// `b` with its `active` window moved onto the trajectory's key times:
/// left alone (`how` 0 and 5–7), starting on the last key or ending on
/// the first (a lifetime that only touches one piece's span, at its
/// endpoint), starting on key `k`, or the instant of key `k`.
fn snapped(traj: &Trajectory<2>, mut b: TpBox, how: u8, k: usize) -> TpBox {
    let keys = traj.keys();
    let (first, last, key) = (keys[0].t, keys[keys.len() - 1].t, keys[k % keys.len()].t);
    match how {
        1 => b.active.lo = last,
        2 => b.active.hi = first,
        3 => b.active.lo = key,
        4 => b.active = Interval::point(key),
        _ => {}
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn time_pruned_overlap_equals_every_piece(
        traj in trajectory(),
        boxes in proptest::collection::vec((tpbox(), 0u8..8, any::<usize>()), 0..20),
    ) {
        for (j, (b, how, k)) in boxes.into_iter().enumerate() {
            let b = snapped(&traj, b, how, k);
            let (set, oracle) = (overlap_trajectory_tpbox(&traj, &b), every_piece(&traj, &b));
            prop_assert_eq!(bits(&set), bits(&oracle), "box {} {:?}", j, b);
            let hull = TprRecord::key_hull(&b, &traj);
            prop_assert_eq!(hull_bits(hull), hull_bits(set.hull()), "hull of box {} {:?}", j, b);
            prop_assert_eq!(hull_bits(hull), hull_bits(oracle.hull()), "hull of box {} {:?}", j, b);
        }
    }
}
