//! Sorted unions of disjoint time intervals.
//!
//! Eq. 3 of the paper computes, for a bounding box `R` and a trajectory of
//! key snapshots, one overlap interval `T^j` per trajectory segment and
//! then combines them. Because the query window can enter, leave and
//! re-enter a box, the exact overlap-time of `R` with the whole trajectory
//! is a *set* of intervals, not one interval. `TimeSet` maintains such sets
//! in normalized (sorted, merged) form.

use crate::Interval;

/// A normalized union of disjoint, sorted, non-empty intervals.
///
/// Invariants (enforced by construction):
/// * no member is empty,
/// * members are sorted by `lo`,
/// * consecutive members do not overlap and do not touch
///   (`prev.hi < next.lo`); touching intervals are merged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSet {
    ivs: Vec<Interval>,
}

impl TimeSet {
    /// The empty set.
    pub fn empty() -> Self {
        TimeSet { ivs: Vec::new() }
    }

    /// A set holding a single interval (empty input ⇒ empty set).
    pub fn from_interval(iv: Interval) -> Self {
        let mut s = TimeSet::empty();
        s.insert(iv);
        s
    }

    /// Build from arbitrary intervals, normalizing.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(ivs: I) -> Self {
        let mut s = TimeSet::empty();
        for iv in ivs {
            s.insert(iv);
        }
        s
    }

    /// True iff no time instant is covered.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Number of disjoint intervals.
    pub fn len(&self) -> usize {
        self.ivs.len()
    }

    /// The member intervals, sorted and disjoint.
    pub fn intervals(&self) -> &[Interval] {
        &self.ivs
    }

    /// Earliest covered instant, or `None` if empty.
    pub fn start(&self) -> Option<f64> {
        self.ivs.first().map(|iv| iv.lo)
    }

    /// Latest covered instant, or `None` if empty.
    pub fn end(&self) -> Option<f64> {
        self.ivs.last().map(|iv| iv.hi)
    }

    /// Convex hull of the whole set (the paper's coverage `⊎` of all `T^j`).
    pub fn hull(&self) -> Interval {
        match (self.start(), self.end()) {
            (Some(lo), Some(hi)) => Interval::new(lo, hi),
            _ => Interval::EMPTY,
        }
    }

    /// Total covered duration.
    pub fn measure(&self) -> f64 {
        self.ivs.iter().map(Interval::length).sum()
    }

    /// True iff instant `t` is covered.
    pub fn contains(&self, t: f64) -> bool {
        // Binary search over sorted starts.
        self.ivs.binary_search_by(|iv| {
            if iv.hi < t {
                std::cmp::Ordering::Less
            } else if iv.lo > t {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        }).is_ok()
    }

    /// Insert an interval, merging with any members it overlaps or touches.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // Ascending inserts — every trajectory caller, pieces being
        // time-ordered — land past the last member or merge with it
        // alone: no search, no shifting.
        match self.ivs.last_mut() {
            None => self.ivs.push(iv),
            Some(last) if iv.lo > last.hi => self.ivs.push(iv),
            Some(last) if iv.lo >= last.lo => {
                *last = Interval::new(iv.lo.min(last.lo), iv.hi.max(last.hi));
            }
            Some(_) => self.insert_anywhere(iv),
        }
    }

    /// [`Self::insert`] for a non-empty `iv` that may land anywhere.
    fn insert_anywhere(&mut self, iv: Interval) {
        // Find the range of existing members that merge with `iv`
        // (overlap or touch). Members are sorted and disjoint.
        let lo_idx = self.ivs.partition_point(|m| m.hi < iv.lo);
        let hi_idx = self.ivs.partition_point(|m| m.lo <= iv.hi);
        if lo_idx == hi_idx {
            self.ivs.insert(lo_idx, iv);
        } else {
            let merged = Interval::new(
                iv.lo.min(self.ivs[lo_idx].lo),
                iv.hi.max(self.ivs[hi_idx - 1].hi),
            );
            self.ivs.splice(lo_idx..hi_idx, std::iter::once(merged));
        }
    }

    /// Union of two sets.
    pub fn union(&self, other: &TimeSet) -> TimeSet {
        let mut out = self.clone();
        for iv in &other.ivs {
            out.insert(*iv);
        }
        out
    }

    /// Intersection with a single interval.
    pub fn intersect_interval(&self, iv: &Interval) -> TimeSet {
        let mut out = TimeSet::empty();
        for m in &self.ivs {
            out.insert(m.intersect(iv));
        }
        out
    }

    /// Intersection of two sets (linear merge).
    pub fn intersect(&self, other: &TimeSet) -> TimeSet {
        let mut out = TimeSet::empty();
        let (mut i, mut j) = (0, 0);
        while i < self.ivs.len() && j < other.ivs.len() {
            let x = self.ivs[i].intersect(&other.ivs[j]);
            out.insert(x);
            if self.ivs[i].hi <= other.ivs[j].hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// First covered instant at or after `t`, or `None`.
    pub fn next_instant(&self, t: f64) -> Option<f64> {
        for iv in &self.ivs {
            if iv.hi >= t {
                return Some(iv.lo.max(t));
            }
        }
        None
    }
}

impl std::fmt::Display for TimeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        for (i, iv) in self.ivs.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{iv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: f64, b: f64) -> Interval {
        Interval::new(a, b)
    }

    #[test]
    fn insert_disjoint_keeps_sorted() {
        let s = TimeSet::from_intervals([iv(5.0, 6.0), iv(1.0, 2.0), iv(8.0, 9.0)]);
        assert_eq!(s.intervals(), &[iv(1.0, 2.0), iv(5.0, 6.0), iv(8.0, 9.0)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn insert_merges_overlapping_and_touching() {
        let mut s = TimeSet::from_intervals([iv(1.0, 2.0), iv(4.0, 5.0)]);
        s.insert(iv(2.0, 4.0)); // touches both ⇒ one interval
        assert_eq!(s.intervals(), &[iv(1.0, 5.0)]);
        s.insert(iv(0.0, 10.0));
        assert_eq!(s.intervals(), &[iv(0.0, 10.0)]);
    }

    #[test]
    fn ascending_fast_path_builds_the_same_set_as_the_general_path() {
        let streams: &[&[Interval]] = &[
            // Ascending and disjoint; touching; overlapping the last.
            &[iv(0.0, 1.0), iv(2.0, 3.0), iv(5.0, 6.0)],
            &[iv(0.0, 1.0), iv(1.0, 2.0), iv(2.0, 2.0), iv(4.0, 5.0), iv(5.0, 7.0)],
            &[iv(0.0, 4.0), iv(1.0, 2.0), iv(3.0, 6.0), iv(3.0, 5.0), iv(8.0, 9.0), iv(8.5, 8.6)],
            // Same start as the last member, signed zeros included.
            &[iv(0.0, 1.0), iv(-0.0, 2.0), iv(3.0, 4.0), iv(3.0, 3.5)],
            // Out of order: before everything, bridging several, between two.
            &[iv(5.0, 6.0), iv(1.0, 2.0), iv(8.0, 9.0), iv(3.0, 3.5), iv(1.5, 8.5), iv(-1.0, 0.0)],
            &[iv(5.0, 6.0), iv(7.0, 8.0), iv(4.0, 9.0), iv(9.0, 10.0), iv(0.0, 4.0)],
        ];
        for stream in streams {
            let (mut fast, mut general) = (TimeSet::empty(), TimeSet::empty());
            for &x in *stream {
                fast.insert(x);
                general.insert_anywhere(x);
                let bits = |s: &TimeSet| -> Vec<(u64, u64)> {
                    s.intervals().iter().map(|m| (m.lo.to_bits(), m.hi.to_bits())).collect()
                };
                assert_eq!(bits(&fast), bits(&general), "after {x:?} of {stream:?}");
                assert!(fast.intervals().windows(2).all(|w| w[0].hi < w[1].lo));
            }
        }
    }

    #[test]
    fn empty_inserts_ignored() {
        let mut s = TimeSet::empty();
        s.insert(Interval::EMPTY);
        s.insert(iv(3.0, 1.0));
        assert!(s.is_empty());
        assert_eq!(s.hull(), Interval::EMPTY);
    }

    #[test]
    fn hull_and_measure() {
        let s = TimeSet::from_intervals([iv(0.0, 1.0), iv(5.0, 7.0)]);
        assert_eq!(s.hull(), iv(0.0, 7.0));
        assert_eq!(s.measure(), 3.0);
        assert_eq!(s.start(), Some(0.0));
        assert_eq!(s.end(), Some(7.0));
    }

    #[test]
    fn contains_and_next_instant() {
        let s = TimeSet::from_intervals([iv(0.0, 1.0), iv(5.0, 7.0)]);
        assert!(s.contains(0.5));
        assert!(s.contains(5.0));
        assert!(!s.contains(3.0));
        assert_eq!(s.next_instant(-1.0), Some(0.0));
        assert_eq!(s.next_instant(0.5), Some(0.5));
        assert_eq!(s.next_instant(2.0), Some(5.0));
        assert_eq!(s.next_instant(7.1), None);
    }

    #[test]
    fn set_ops() {
        let a = TimeSet::from_intervals([iv(0.0, 2.0), iv(4.0, 6.0)]);
        let b = TimeSet::from_intervals([iv(1.0, 5.0)]);
        assert_eq!(a.union(&b).intervals(), &[iv(0.0, 6.0)]);
        assert_eq!(a.intersect(&b).intervals(), &[iv(1.0, 2.0), iv(4.0, 5.0)]);
        assert_eq!(
            a.intersect_interval(&iv(1.5, 4.5)).intervals(),
            &[iv(1.5, 2.0), iv(4.0, 4.5)]
        );
    }

    #[test]
    fn intersect_with_empty() {
        let a = TimeSet::from_intervals([iv(0.0, 2.0)]);
        assert!(a.intersect(&TimeSet::empty()).is_empty());
        assert!(TimeSet::empty().intersect(&a).is_empty());
    }
}
