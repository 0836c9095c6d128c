//! Threshold-based (dead-reckoning) update policy (§3.1).
//!
//! "We only issue an update if the object's location (as deduced by the
//! database, by applying f, given θ̄) differs from its current one by more
//! than a threshold value. Thus, the error in the database representation
//! of each object is bounded."
//!
//! [`DeadReckoner`] consumes the object's *true* position stream (sampled
//! at some tick rate) and emits motion updates only when the deviation
//! from the last reported linear motion exceeds the threshold. The emitted
//! segments are exactly what the index stores; the bound guarantees the
//! database position is never more than `threshold` away from the truth
//! at any sampled instant.

use crate::update::MotionUpdate;
use stkit::{Interval, MotionSegment, Scalar};

/// Stateful dead-reckoning filter for one object.
#[derive(Clone, Debug)]
pub struct DeadReckoner<const D: usize> {
    oid: u32,
    threshold: Scalar,
    /// Last update reported to the database: anchor time/position/velocity.
    anchor_t: Scalar,
    anchor_pos: [Scalar; D],
    anchor_vel: [Scalar; D],
    /// Most recent true observation (becomes the segment endpoint when an
    /// update is emitted).
    last_t: Scalar,
    last_pos: [Scalar; D],
    seq: u32,
}

impl<const D: usize> DeadReckoner<D> {
    /// Start reckoning at the object's initial observation.
    pub fn new(oid: u32, threshold: Scalar, t0: Scalar, pos: [Scalar; D], vel: [Scalar; D]) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        DeadReckoner {
            oid,
            threshold,
            anchor_t: t0,
            anchor_pos: pos,
            anchor_vel: vel,
            last_t: t0,
            last_pos: pos,
            seq: 0,
        }
    }

    /// The database's predicted position at time `t` (Eq. 1 applied to the
    /// last reported parameters).
    pub fn predicted(&self, t: Scalar) -> [Scalar; D] {
        let mut p = [0.0; D];
        for i in 0..D {
            p[i] = self.anchor_pos[i] + self.anchor_vel[i] * (t - self.anchor_t);
        }
        p
    }

    /// Feed one true observation. Returns a [`MotionUpdate`] when the
    /// deviation exceeds the threshold: the segment covering
    /// `[anchor, previous observation]` with the *reported* linear motion,
    /// after which reckoning re-anchors at the previous observation with
    /// velocity estimated from the latest pair of observations.
    pub fn observe(&mut self, t: Scalar, pos: [Scalar; D]) -> Option<MotionUpdate<D>> {
        debug_assert!(t >= self.last_t, "observations must be in time order");
        let pred = self.predicted(t);
        let mut dev2 = 0.0;
        for i in 0..D {
            let d = pos[i] - pred[i];
            dev2 += d * d;
        }
        let out = if dev2 > self.threshold * self.threshold {
            // Report the motion as the database knew it, up to now.
            let seg = MotionSegment::new(
                Interval::new(self.anchor_t, t),
                self.anchor_pos,
                self.anchor_vel,
            );
            let upd = MotionUpdate {
                oid: self.oid,
                seq: self.seq,
                seg,
            };
            self.seq += 1;
            // Re-anchor at the *true* current state; velocity estimated
            // from the last observation pair.
            let dt = t - self.last_t;
            let mut vel = [0.0; D];
            if dt > 0.0 {
                for i in 0..D {
                    vel[i] = (pos[i] - self.last_pos[i]) / dt;
                }
            }
            self.anchor_t = t;
            self.anchor_pos = pos;
            self.anchor_vel = vel;
            Some(upd)
        } else {
            None
        };
        self.last_t = t;
        self.last_pos = pos;
        out
    }

    /// Close the stream: the final segment from the anchor to the last
    /// observation (reported motion), if any time has passed.
    pub fn finish(self) -> Option<MotionUpdate<D>> {
        if self.last_t > self.anchor_t {
            Some(MotionUpdate {
                oid: self.oid,
                seq: self.seq,
                seg: MotionSegment::new(
                    Interval::new(self.anchor_t, self.last_t),
                    self.anchor_pos,
                    self.anchor_vel,
                ),
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_motion_never_updates() {
        let mut dr = DeadReckoner::new(1, 0.5, 0.0, [0.0, 0.0], [1.0, 0.0]);
        for k in 1..=100 {
            let t = k as f64 * 0.1;
            assert!(dr.observe(t, [t, 0.0]).is_none());
        }
        assert_eq!(dr.seq, 0, "no update emitted");
        let last = dr.finish().unwrap();
        assert_eq!(last.seg.t, Interval::new(0.0, 10.0));
    }

    #[test]
    fn turn_triggers_update() {
        let mut dr = DeadReckoner::new(1, 0.5, 0.0, [0.0, 0.0], [1.0, 0.0]);
        // Move straight for 1 unit, then turn 90°.
        let mut upd = None;
        for k in 1..=20 {
            let t = k as f64 * 0.1;
            let pos = if t <= 1.0 {
                [t, 0.0]
            } else {
                [1.0, t - 1.0] // heading +y now
            };
            if let Some(u) = dr.observe(t, pos) {
                upd = Some((t, u));
                break;
            }
        }
        let (t_trig, u) = upd.expect("turn must eventually exceed threshold");
        // Deviation reaches 0.5 when |(predicted)-(true)| = |(t,0)-(1,t-1)| > 0.5.
        assert!(t_trig > 1.0 && t_trig < 1.5, "triggered at {t_trig}");
        assert_eq!(u.seq, 0);
        assert_eq!(u.seg.t.lo, 0.0);
    }

    #[test]
    fn bounded_error_invariant() {
        // Sinusoidal wobble around a line, amplitude below threshold ⇒ the
        // database prediction error never exceeds the threshold plus the
        // wobble amplitude at observation instants.
        let threshold = 0.3;
        let mut dr = DeadReckoner::new(2, threshold, 0.0, [0.0, 0.0], [1.0, 0.0]);
        let mut updates = Vec::new();
        for k in 1..=500 {
            let t = k as f64 * 0.02;
            let pos = [t, (t * 3.0).sin() * 0.5];
            let pred = dr.predicted(t);
            let dev =
                ((pos[0] - pred[0]).powi(2) + (pos[1] - pred[1]).powi(2)).sqrt();
            if let Some(u) = dr.observe(t, pos) {
                updates.push(u);
            } else {
                assert!(dev <= threshold + 1e-9, "unreported deviation {dev}");
            }
        }
        // Some updates must fire for a wobbly path with a tightish bound.
        assert!(!updates.is_empty());
        // Updates abut temporally.
        for w in updates.windows(2) {
            assert_eq!(w[0].seg.t.hi, w[1].seg.t.lo);
        }
    }

    #[test]
    fn tighter_threshold_more_updates() {
        let run = |threshold: f64| {
            let mut dr = DeadReckoner::new(3, threshold, 0.0, [0.0, 0.0], [1.0, 0.0]);
            let mut n = 0;
            for k in 1..=1000 {
                let t = k as f64 * 0.01;
                let pos = [t, (t * 2.0).sin()];
                if dr.observe(t, pos).is_some() {
                    n += 1;
                }
            }
            n
        };
        assert!(
            run(0.1) > run(0.5),
            "tighter threshold must update more often"
        );
    }
}
