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
//! keys have a lifetime and an overlap time with a trajectory.
//! [`PdqRecord`] is that contract, and [`crate::PdqEngine`] is the one
//! engine over every family that meets it — NSI motion segments here,
//! the TPR-tree's moving points in `tprtree`.

use crate::snapshot::SnapshotQuery;
use crate::trajectory::Trajectory;
use rtree::{DtaSegmentRecord, NsiSegmentRecord, Record};
use stkit::{Interval, MotionSegment, RectBatch, SegmentBatch, StBox, TimeSet};

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
/// [`crate::PdqEngine`] needs of an index family. The record-side items
/// default to the record's bounding key, which is right when that key is
/// the record's exact motion (a moving point); a family whose keys only
/// bound the motion overrides them with the exact test.
pub trait PdqRecord<const D: usize>: Record {
    /// Scratch staging one node page's entries, leaf records or
    /// internal keys, for a lane-parallel solve (reused across pages).
    type Page: Default + std::fmt::Debug;

    /// `(object id, update sequence)` identity.
    fn identity(&self) -> (u32, u32);

    /// When the entries under `key` are alive.
    fn key_lifetime(key: &Self::Key) -> Interval;

    /// The times `traj`'s window overlaps `key`.
    fn key_overlap(key: &Self::Key, traj: &Trajectory<D>) -> TimeSet;

    /// Stage an internal entry's key.
    fn stage_key(key: &Self::Key, page: &mut Self::Page);

    /// When the record is alive.
    fn lifetime(&self) -> Interval {
        Self::key_lifetime(&self.key())
    }

    /// The times the object is inside `traj`'s window: its visibility.
    fn overlap(&self, traj: &Trajectory<D>) -> TimeSet {
        Self::key_overlap(&self.key(), traj)
    }

    /// Stage a leaf record.
    fn stage(&self, page: &mut Self::Page) {
        Self::stage_key(&self.key(), page)
    }

    /// Solve what was staged — records if `leaf`, keys otherwise — into
    /// one overlap set per entry, in staging order and bit-identical to
    /// [`Self::overlap`] / [`Self::key_overlap`], and leave the page
    /// empty. Returns the trajectory pieces solved.
    fn solve(
        page: &mut Self::Page,
        leaf: bool,
        traj: &Trajectory<D>,
        out: &mut Vec<TimeSet>,
    ) -> usize;
}

/// Keys go through the static-box kernel, records through the exact
/// motion-segment kernel, each in its own batch.
impl<const D: usize> PdqRecord<D> for NsiSegmentRecord<D> {
    type Page = (RectBatch<D>, SegmentBatch<D>);

    #[inline]
    fn identity(&self) -> (u32, u32) {
        (self.oid, self.seq)
    }

    #[inline]
    fn key_lifetime(key: &StBox<D, 1>) -> Interval {
        key.time.extent(0)
    }

    fn key_overlap(key: &StBox<D, 1>, traj: &Trajectory<D>) -> TimeSet {
        traj.overlap_nsi_box(key)
    }

    #[inline]
    fn stage_key(key: &StBox<D, 1>, page: &mut Self::Page) {
        page.0.push(&key.space, &key.time.extent(0));
    }

    #[inline]
    fn lifetime(&self) -> Interval {
        self.seg.t
    }

    fn overlap(&self, traj: &Trajectory<D>) -> TimeSet {
        traj.overlap_segment(&self.seg)
    }

    #[inline]
    fn stage(&self, page: &mut Self::Page) {
        page.1.push(&self.seg);
    }

    #[inline]
    fn solve(
        page: &mut Self::Page,
        leaf: bool,
        traj: &Trajectory<D>,
        out: &mut Vec<TimeSet>,
    ) -> usize {
        if leaf {
            let solved = traj.overlap_batch_into(&mut page.1, out);
            page.1.clear();
            solved
        } else {
            let solved = traj.overlap_batch_into(&mut page.0, out);
            page.0.clear();
            solved
        }
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
