//! The bridge between the query engines and index layouts.
//!
//! The paper's two index layouts — native space indexing (§3.2) and
//! double temporal axes (§4.2 Fig. 5(b)) — differ only in how a motion
//! segment and a snapshot query map to the R-tree's key space.
//! [`MotionRecord`] captures that mapping, letting the NPDQ engine run
//! over either layout, which is exactly what the Fig. 5(a)-vs-5(b)
//! ablation compares.
//!
//! The §4.1 algorithm asks less of an index: that records and bounding
//! keys have a lifetime and the two ends of their overlap time with a
//! trajectory, and that a record can say when it is visible.
//! [`PdqRecord`] is that contract, and [`crate::PdqEngine`] is the one
//! engine over every family that meets it — NSI motion segments here,
//! the TPR-tree's moving points in `tprtree`.

use crate::snapshot::SnapshotQuery;
use crate::trajectory::Trajectory;
use rtree::{DtaSegmentRecord, NsiSegmentRecord, Record};
use stkit::{Interval, MotionSegment, StBox, TimeSet};

/// A leaf record carrying a motion segment, whose index layout knows how
/// to express a [`SnapshotQuery`] as a key-space probe.
pub trait MotionRecord<const D: usize>: Record {
    /// The underlying motion segment.
    fn segment(&self) -> &MotionSegment<D>;

    /// `(object id, update sequence)` identity.
    fn ids(&self) -> (u32, u32);

    /// The key-space region a snapshot query probes in this layout.
    fn query_key(q: &SnapshotQuery<D>) -> Self::Key;
}

impl<const D: usize> MotionRecord<D> for NsiSegmentRecord<D> {
    fn segment(&self) -> &MotionSegment<D> {
        &self.seg
    }

    fn ids(&self) -> (u32, u32) {
        (self.oid, self.seq)
    }

    fn query_key(q: &SnapshotQuery<D>) -> Self::Key {
        q.nsi_key()
    }
}

impl<const D: usize> MotionRecord<D> for DtaSegmentRecord<D> {
    fn segment(&self) -> &MotionSegment<D> {
        &self.seg
    }

    fn ids(&self) -> (u32, u32) {
        (self.oid, self.seq)
    }

    fn query_key(q: &SnapshotQuery<D>) -> Self::Key {
        q.dta_key()
    }
}

/// A leaf record a predictive dynamic query can run over: what
/// [`crate::PdqEngine`] needs of an index family. The engine's queue
/// keys an entry by the two ends of its overlap set with the trajectory
/// alone — when the window first meets it and when it last does — so
/// that hull is what a key and a record give it; the full set, the
/// record's visibility, is solved only for a caller who asks for it on
/// return. [`Self::hull`] defaults to the hull of the record's bounding
/// key, which is right when that key is the record's exact motion (a
/// moving point); a family whose keys only bound the motion overrides it
/// with the exact test.
pub trait PdqRecord<const D: usize>: Record {
    /// `(object id, update sequence)` identity.
    fn identity(&self) -> (u32, u32);

    /// When the entries under `key` are alive.
    fn key_lifetime(key: &Self::Key) -> Interval;

    /// The hull of the times `traj`'s window overlaps `key`
    /// (`Interval::EMPTY`: never).
    fn key_hull(key: &Self::Key, traj: &Trajectory<D>) -> Interval;

    /// When the record is alive.
    fn lifetime(&self) -> Interval {
        Self::key_lifetime(&self.key())
    }

    /// The hull of [`Self::overlap`], bit for bit: when the object enters
    /// the view and when it leaves it for the last time.
    fn hull(&self, traj: &Trajectory<D>) -> Interval {
        Self::key_hull(&self.key(), traj)
    }

    /// The times the object is inside `traj`'s window: its visibility.
    fn overlap(&self, traj: &Trajectory<D>) -> TimeSet;
}

/// Keys go through the static-box kernel, records through the exact
/// motion-segment kernel.
impl<const D: usize> PdqRecord<D> for NsiSegmentRecord<D> {
    #[inline]
    fn identity(&self) -> (u32, u32) {
        (self.oid, self.seq)
    }

    #[inline]
    fn key_lifetime(key: &StBox<D, 1>) -> Interval {
        key.time.extent(0)
    }

    fn key_hull(key: &StBox<D, 1>, traj: &Trajectory<D>) -> Interval {
        let (space, time) = (&key.space, &key.time.extent(0));
        traj.overlap_hull_by(time, space, |s| s.overlap_time_rect(space, time))
    }

    #[inline]
    fn lifetime(&self) -> Interval {
        self.seg.t
    }

    fn hull(&self, traj: &Trajectory<D>) -> Interval {
        let seg = &self.seg;
        traj.overlap_hull_by(&seg.t, &seg.reach(), |s| s.overlap_time_segment(seg))
    }

    fn overlap(&self, traj: &Trajectory<D>) -> TimeSet {
        traj.overlap_segment(&self.seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkit::{Interval, Rect};

    #[test]
    fn layouts_agree_on_matching_segments() {
        let q = SnapshotQuery::at_instant(Rect::from_corners([0.0, 0.0], [10.0, 10.0]), 5.0);
        let nsi = NsiSegmentRecord::<2>::new(1, 0, Interval::new(4.0, 6.0), [5.0, 5.0], [6.0, 6.0]);
        let dta = DtaSegmentRecord::<2>::new(1, 0, Interval::new(4.0, 6.0), [5.0, 5.0], [6.0, 6.0]);
        assert!(NsiSegmentRecord::query_key(&q).overlaps(&nsi.key()));
        assert!(DtaSegmentRecord::query_key(&q).overlaps(&dta.key()));
        assert_eq!(nsi.ids(), dta.ids());
        assert_eq!(nsi.segment(), dta.segment());
    }

    #[test]
    fn layouts_agree_on_non_matching_segments() {
        let q = SnapshotQuery::at_instant(Rect::from_corners([0.0, 0.0], [10.0, 10.0]), 9.0);
        // Expired before the query instant.
        let nsi = NsiSegmentRecord::<2>::new(1, 0, Interval::new(4.0, 6.0), [5.0, 5.0], [6.0, 6.0]);
        let dta = DtaSegmentRecord::<2>::new(1, 0, Interval::new(4.0, 6.0), [5.0, 5.0], [6.0, 6.0]);
        assert!(!NsiSegmentRecord::query_key(&q).overlaps(&nsi.key()));
        assert!(!DtaSegmentRecord::query_key(&q).overlaps(&dta.key()));
    }
}
