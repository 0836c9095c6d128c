//! Property tests pinning the SoA batched TpBox overlap kernel to the
//! scalar `overlap_window_tpbox`: interval-equal always, bit-identical
//! on non-empty results — and the page solve a trajectory drives through
//! it, pieces pruned by the batch's hulls, to the every-piece scalar
//! `overlap_trajectory_tpbox`.

use mobiquery::{KeySnapshot, Trajectory};
use proptest::prelude::*;
use stkit::{Interval, MovingWindow, Rect};
use tprtree::engine::{overlap_trajectory_tpbox, overlap_window_tpbox};
use tprtree::{TpBox, TpBoxBatch};

fn iv() -> impl Strategy<Value = Interval> {
    (-40.0f64..40.0, 0.0f64..25.0).prop_map(|(lo, len)| Interval::new(lo, lo + len))
}

fn rect2() -> impl Strategy<Value = Rect<2>> {
    (iv(), iv()).prop_map(|(x, y)| Rect::new([x, y]))
}

fn window() -> impl Strategy<Value = MovingWindow<2>> {
    (iv(), rect2(), rect2(), any::<bool>()).prop_map(|(span, a, b, stationary)| {
        let span = if span.lo == span.hi {
            Interval::new(span.lo, span.lo + 1.0)
        } else {
            span
        };
        if stationary {
            MovingWindow::stationary(span, &a)
        } else {
            MovingWindow::between(span, &a, &b)
        }
    })
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
            iv(),
        )
            .prop_map(|(p, v, active)| TpBox::moving_point([p.0, p.1], [v.0, v.1], active)),
        (rect2(), iv()).prop_map(|(r, active)| TpBox::stationary(&r, active)),
        Just(TpBox::EMPTY),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn tpbox_batch_bit_identical_to_scalar(
        w in window(),
        boxes in proptest::collection::vec(tpbox(), 1..20),
    ) {
        let mut batch = TpBoxBatch::new();
        for b in &boxes {
            batch.push(b);
        }
        batch.solve(&w);
        for (j, b) in boxes.iter().enumerate() {
            let scalar = overlap_window_tpbox(&w, b);
            let batched = batch.result(j);
            prop_assert_eq!(batched, scalar, "box {}", j);
            if !scalar.is_empty() {
                prop_assert_eq!(batched.lo.to_bits(), scalar.lo.to_bits(), "box {} lo", j);
                prop_assert_eq!(batched.hi.to_bits(), scalar.hi.to_bits(), "box {} hi", j);
            }
        }
    }

    #[test]
    fn pruned_page_solve_equals_every_piece(
        traj in trajectory(),
        boxes in proptest::collection::vec(tpbox(), 0..20),
    ) {
        let mut batch = TpBoxBatch::new();
        for b in &boxes {
            batch.push(b);
        }
        let mut out = Vec::new();
        let solved = traj.overlap_batch_into(&mut batch, &mut out);
        prop_assert!(solved <= traj.segments().len());
        prop_assert_eq!(out.len(), boxes.len());
        let bits = |ts: &stkit::TimeSet| -> Vec<(u64, u64)> {
            ts.intervals().iter().map(|iv| (iv.lo.to_bits(), iv.hi.to_bits())).collect()
        };
        for (j, b) in boxes.iter().enumerate() {
            prop_assert_eq!(bits(&out[j]), bits(&overlap_trajectory_tpbox(&traj, b)), "box {}", j);
        }
    }
}
