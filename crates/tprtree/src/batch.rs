//! SoA batched overlap-time kernel for time-parameterized boxes.
//!
//! Mirrors [`crate::engine::overlap_window_tpbox`] over a whole node
//! page at once: the entries' edge positions and velocities are staged
//! in struct-of-arrays layout and the two per-axis inequalities
//! (`window.hi_i(t) ≥ box.lo_i(t)`, `window.lo_i(t) ≤ box.hi_i(t)`)
//! are evaluated with branch-free per-lane selects — both sides of each
//! constraint vary per entry, so unlike the static-box kernel the case
//! selection cannot hoist, but it still compiles to selects rather than
//! control flow. Same bit-identity contract as `stkit::batch`: non-NaN
//! operands give `to_bits`-identical non-empty results; empty results
//! may differ in representation, which `Interval`'s `PartialEq`
//! (all-empties-equal) absorbs.

use crate::tpbox::TpBox;
use stkit::batch::{lane_ge0, lane_le0};
use stkit::{Interval, MovingWindow, Rect, StagedPage};

/// SoA staging area for [`TpBox`] entries of one node page.
#[derive(Debug, Default)]
pub struct TpBoxBatch {
    act_lo: Vec<f64>,
    act_hi: Vec<f64>,
    lo0: [Vec<f64>; 2],
    v_lo: [Vec<f64>; 2],
    hi0: [Vec<f64>; 2],
    v_hi: [Vec<f64>; 2],
    out_lo: Vec<f64>,
    out_hi: Vec<f64>,
}

impl TpBoxBatch {
    /// Fresh, empty batch (reusable across node visits).
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove all staged boxes, keeping capacity.
    pub fn clear(&mut self) {
        self.act_lo.clear();
        self.act_hi.clear();
        for i in 0..2 {
            self.lo0[i].clear();
            self.v_lo[i].clear();
            self.hi0[i].clear();
            self.v_hi[i].clear();
        }
    }

    /// Number of staged boxes.
    pub fn len(&self) -> usize {
        self.act_lo.len()
    }

    /// True iff no boxes are staged.
    pub fn is_empty(&self) -> bool {
        self.act_lo.is_empty()
    }

    /// Stage one time-parameterized box.
    pub fn push(&mut self, b: &TpBox) {
        self.act_lo.push(b.active.lo);
        self.act_hi.push(b.active.hi);
        for i in 0..2 {
            self.lo0[i].push(b.axes[i].lo0);
            self.v_lo[i].push(b.axes[i].v_lo);
            self.hi0[i].push(b.axes[i].hi0);
            self.v_hi[i].push(b.axes[i].v_hi);
        }
    }

    /// Evaluate `overlap_window_tpbox(w, box_j)` for every staged entry
    /// `j`; read results back with [`Self::result`].
    pub fn solve(&mut self, w: &MovingWindow<2>) {
        let n = self.len();
        self.out_lo.clear();
        self.out_hi.clear();
        // t = span ∩ active, lane-wise.
        self.out_lo.extend(self.act_lo.iter().map(|&a| w.span.lo.max(a)));
        self.out_hi.extend(self.act_hi.iter().map(|&a| w.span.hi.min(a)));
        for i in 0..2 {
            let (wl, wh) = (w.lo[i], w.hi[i]);
            let (lo0, v_lo) = (&self.lo0[i], &self.v_lo[i]);
            let (hi0, v_hi) = (&self.hi0[i], &self.v_hi[i]);
            for j in 0..n {
                // w.hi_i(t) ≥ box.lo_i(t): (w.hi − box.lo) solves ≥ 0.
                let (lo1, hi1) = lane_ge0(
                    wh.a - lo0[j],
                    wh.b - v_lo[j],
                    self.out_lo[j],
                    self.out_hi[j],
                );
                // w.lo_i(t) ≤ box.hi_i(t): (w.lo − box.hi) solves ≤ 0.
                let (lo2, hi2) = lane_le0(wl.a - hi0[j], wl.b - v_hi[j], lo1, hi1);
                self.out_lo[j] = lo2;
                self.out_hi[j] = hi2;
            }
        }
    }

    /// Overlap-time of entry `j` from the last [`Self::solve`] call.
    #[inline]
    pub fn result(&self, j: usize) -> Interval {
        Interval::new(self.out_lo[j], self.out_hi[j])
    }
}

/// How a trajectory picks the pieces worth solving against a staged
/// TPR page. The lifetime hull is the exact hull of the staged `active`
/// windows, folded on demand (once per page, against a solve per piece)
/// under [`TpBoxBatch::solve`]'s own rule that a NaN bound constrains
/// nothing. The space hull is `Rect::ALL`: where a moving box can be
/// over its lifetime is not free to bound, and any superset is correct —
/// it only means pieces are pruned by time alone.
impl StagedPage<2> for TpBoxBatch {
    fn len(&self) -> usize {
        TpBoxBatch::len(self)
    }

    fn lifetime_hull(&self) -> Interval {
        let lo = |m: f64, &a: &f64| m.min(if a.is_nan() { f64::NEG_INFINITY } else { a });
        let hi = |m: f64, &a: &f64| m.max(if a.is_nan() { f64::INFINITY } else { a });
        Interval::new(
            self.act_lo.iter().fold(f64::INFINITY, lo),
            self.act_hi.iter().fold(f64::NEG_INFINITY, hi),
        )
    }

    fn space_hull(&self) -> Rect<2> {
        Rect::ALL
    }

    fn solve(&mut self, w: &MovingWindow<2>) {
        TpBoxBatch::solve(self, w)
    }

    fn result(&self, j: usize) -> Interval {
        TpBoxBatch::result(self, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::overlap_window_tpbox;
    use stkit::Rect;

    #[test]
    fn batch_matches_scalar_overlap_window_tpbox() {
        let windows = [
            MovingWindow::between(
                Interval::new(0.0, 10.0),
                &Rect::from_corners([0.0, 0.0], [2.0, 2.0]),
                &Rect::from_corners([10.0, 0.0], [12.0, 2.0]),
            ),
            MovingWindow::stationary(
                Interval::new(2.0, 8.0),
                &Rect::from_corners([4.0, 0.0], [6.0, 1.0]),
            ),
        ];
        let boxes = [
            TpBox::moving_point([0.0, 0.5], [1.0, 0.0], Interval::new(0.0, 10.0)),
            TpBox::moving_point([5.0, 0.5], [1.0, 0.0], Interval::new(0.0, 10.0)),
            TpBox::moving_point([5.0, 0.5], [-0.5, 0.1], Interval::new(3.0, 7.0)),
            TpBox::stationary(
                &Rect::from_corners([5.0, 0.0], [6.0, 1.0]),
                Interval::new(7.0, 10.0),
            ),
            TpBox::EMPTY,
        ];
        let mut batch = TpBoxBatch::new();
        for b in &boxes {
            batch.push(b);
        }
        for (wi, w) in windows.iter().enumerate() {
            batch.solve(w);
            for (j, b) in boxes.iter().enumerate() {
                let scalar = overlap_window_tpbox(w, b);
                let batched = batch.result(j);
                assert_eq!(batched, scalar, "window {wi}, box {j}");
                if !scalar.is_empty() {
                    assert_eq!(batched.lo.to_bits(), scalar.lo.to_bits(), "w{wi} b{j} lo");
                    assert_eq!(batched.hi.to_bits(), scalar.hi.to_bits(), "w{wi} b{j} hi");
                }
            }
        }
    }
}
