//! Parametric Space Indexing (PSI) — the alternative §2 dismisses.
//!
//! The authors' earlier work compared two ways of indexing motion:
//! *native space indexing* (NSI — index the space-time bounding box of
//! each segment; what this crate uses everywhere) and *parametric space
//! indexing* (PSI — index the motion parameters themselves: initial
//! location and velocity). "A comparative study between the two indicates
//! that NSI outperforms PSI, because of the loss of locality associated
//! with PSI."
//!
//! This module implements a faithful-enough PSI for 2-d motion so the
//! `ablation_psi` bench can reproduce that comparison:
//!
//! * a [`PsiSegmentRecord`] is a **point** in the 4-d parametric space
//!   `(x₀, y₀, v_x, v_y)` plus its validity interval on the temporal
//!   axis;
//! * a spatio-temporal range query maps to a conservative parametric box
//!   ([`psi_query_key`]): any segment matching the query must have
//!   `x₀ ∈ window ⊖ v·Δt`, which — with velocities bounded by `v_max`
//!   and validity spans by `max_duration` — inflates the window by
//!   `v_max · max_duration` on each positional axis and spans the whole
//!   velocity range. That inflation is precisely the "loss of locality":
//!   the parametric query box admits far more of the index than the
//!   native-space query box does.
//!
//! The leaf-level exact test is unchanged (the record still carries the
//! actual segment), so PSI returns the same answers — it just reads more
//! of the tree to find them.

use crate::snapshot::SnapshotQuery;
use crate::stats::QueryStats;
use rtree::{Record, RTree};
use storage::PageStore;
use stkit::{Interval, MotionSegment, Rect, StBox};

/// A motion segment indexed in parametric space (2-d motion only: the
/// parametric space is 4-dimensional and const-generic arithmetic is not
/// available to derive `2·D` on stable Rust).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PsiSegmentRecord {
    /// The motion segment (same payload as the NSI record).
    pub seg: MotionSegment<2>,
    /// Object id.
    pub oid: u32,
    /// Update sequence number.
    pub seq: u32,
}

impl PsiSegmentRecord {
    /// Build a record, quantizing coordinates to the page precision.
    pub fn new(oid: u32, seq: u32, t: Interval, from: [f64; 2], to: [f64; 2]) -> Self {
        let q = rtree::stbox_key::quantize;
        let t = Interval::new(q(t.lo), q(t.hi));
        let from = from.map(q);
        let to = to.map(q);
        PsiSegmentRecord {
            seg: MotionSegment::from_endpoints(t, from, to),
            oid,
            seq,
        }
    }
}

impl Record for PsiSegmentRecord {
    /// Parametric key: point `(x₀, y₀, v_x, v_y)` × validity interval.
    type Key = StBox<4, 1>;

    const ENCODED_LEN: usize = 8 + 16 + 8; // t ‖ endpoints ‖ oid+seq

    fn key(&self) -> Self::Key {
        let p = self.seg.x0;
        let v = self.seg.v;
        StBox::new(
            Rect::new([
                Interval::point(p[0]),
                Interval::point(p[1]),
                Interval::point(v[0]),
                Interval::point(v[1]),
            ]),
            Rect::new([self.seg.t]),
        )
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.seg.t.lo as f32).to_le_bytes());
        buf.extend_from_slice(&(self.seg.t.hi as f32).to_le_bytes());
        let end = self.seg.end_position();
        for i in 0..2 {
            buf.extend_from_slice(&(self.seg.x0[i] as f32).to_le_bytes());
        }
        for i in 0..2 {
            buf.extend_from_slice(&(end[i] as f32).to_le_bytes());
        }
        buf.extend_from_slice(&self.oid.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        let f = |o: usize| f32::from_le_bytes(buf[o..o + 4].try_into().unwrap()) as f64;
        let t = Interval::new(f(0), f(4));
        let from = [f(8), f(12)];
        let to = [f(16), f(20)];
        let oid = u32::from_le_bytes(buf[24..28].try_into().unwrap());
        let seq = u32::from_le_bytes(buf[28..32].try_into().unwrap());
        PsiSegmentRecord {
            seg: MotionSegment::from_endpoints(t, from, to),
            oid,
            seq,
        }
    }
}

/// Workload bounds the PSI query mapping needs (known to any real
/// deployment from its ingest statistics).
#[derive(Clone, Copy, Debug)]
pub struct PsiBounds {
    /// Upper bound on |v| per axis across all indexed segments.
    pub v_max: f64,
    /// Upper bound on segment validity length.
    pub max_duration: f64,
}

/// Map a spatio-temporal range query into the parametric space
/// (conservative: never misses, over-approximates — the PSI locality
/// loss).
///
/// A segment with anchor `x₀` at `t₀` is inside the window at some
/// `t ∈ [t₀, t₀ + max_duration]` only if `x₀ ∈ window ⊖ v·(t − t₀)`,
/// so with `|v| ≤ v_max` the positional axes inflate by
/// `v_max · max_duration` and the velocity axes span `[−v_max, v_max]`.
pub fn psi_query_key(q: &SnapshotQuery<2>, bounds: &PsiBounds) -> StBox<4, 1> {
    let slack = bounds.v_max * bounds.max_duration;
    StBox::new(
        Rect::new([
            q.window.extent(0).inflate(slack),
            q.window.extent(1).inflate(slack),
            Interval::new(-bounds.v_max, bounds.v_max),
            Interval::new(-bounds.v_max, bounds.v_max),
        ]),
        Rect::new([q.time]),
    )
}

/// Evaluate a snapshot query over a PSI tree (parametric probe + exact
/// leaf test), mirroring [`crate::NaiveEngine::query_nsi`].
pub fn psi_query<S: PageStore>(
    tree: &RTree<PsiSegmentRecord, S>,
    q: &SnapshotQuery<2>,
    bounds: &PsiBounds,
    mut emit: impl FnMut(&PsiSegmentRecord),
) -> QueryStats {
    let key = psi_query_key(q, bounds);
    tree.range_search(&key, |r| q.matches_segment(&r.seg), |r| emit(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree::bulk::bulk_load;
    use rtree::RTreeConfig;
    use storage::Pager;

    fn record(oid: u32, t0: f64, from: [f64; 2], to: [f64; 2]) -> PsiSegmentRecord {
        PsiSegmentRecord::new(oid, 0, Interval::new(t0, t0 + 2.0), from, to)
    }

    fn bounds() -> PsiBounds {
        PsiBounds {
            v_max: 2.0,
            max_duration: 2.0,
        }
    }

    #[test]
    fn record_roundtrip() {
        let r = record(5, 1.5, [10.25, 20.5], [12.25, 18.5]);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), PsiSegmentRecord::ENCODED_LEN);
        assert_eq!(PsiSegmentRecord::decode(&buf), r);
    }

    #[test]
    fn key_is_parametric_point() {
        let r = record(1, 0.0, [10.0, 20.0], [12.0, 18.0]);
        let k = r.key();
        assert_eq!(k.space.extent(0), Interval::point(10.0));
        assert_eq!(k.space.extent(1), Interval::point(20.0));
        assert_eq!(k.space.extent(2), Interval::point(1.0)); // vx
        assert_eq!(k.space.extent(3), Interval::point(-1.0)); // vy
        assert_eq!(k.time.extent(0), Interval::new(0.0, 2.0));
    }

    #[test]
    fn query_mapping_is_conservative() {
        // Any record matching the native query must overlap the mapped
        // parametric key.
        let b = bounds();
        let q = SnapshotQuery::at_instant(Rect::from_corners([10.0, 10.0], [20.0, 20.0]), 1.0);
        let key = psi_query_key(&q, &b);
        // A segment that enters the window during its validity.
        let inside = record(1, 0.0, [8.0, 15.0], [12.0, 15.0]);
        assert!(q.matches_segment(&inside.seg));
        assert!(key.overlaps(&inside.key()));
        // The mapped box also admits segments the query does not match —
        // the locality loss.
        let miss = record(2, 0.0, [7.0, 15.0], [7.5, 15.0]);
        assert!(!q.matches_segment(&miss.seg));
        assert!(key.overlaps(&miss.key()));
    }

    #[test]
    fn psi_returns_same_answers_as_exact_filter() {
        let recs: Vec<PsiSegmentRecord> = (0..300)
            .map(|i| {
                let x = (i % 20) as f64 * 5.0;
                let y = (i / 20) as f64 * 6.0;
                record(i, (i % 10) as f64, [x, y], [x + 1.0, y + 1.0])
            })
            .collect();
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs.clone());
        let q = SnapshotQuery::new(
            Rect::from_corners([20.0, 20.0], [60.0, 60.0]),
            Interval::new(3.0, 6.0),
        );
        let mut got: Vec<u32> = Vec::new();
        let stats = psi_query(&tree, &q, &bounds(), |r| got.push(r.oid));
        got.sort_unstable();
        let mut expected: Vec<u32> = recs
            .iter()
            .filter(|r| q.matches_segment(&r.seg))
            .map(|r| r.oid)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert!(stats.results as usize == expected.len());
    }

    #[test]
    fn psi_visits_more_than_nsi_on_same_data() {
        // The §2 claim at miniature scale: identical data, identical
        // query, PSI examines at least as many candidates.
        // Varied headings matter: PSI's locality loss comes from spatial
        // neighbours being scattered across the velocity axes.
        let n = 2000u32;
        let psi_recs: Vec<PsiSegmentRecord> = (0..n)
            .map(|i| {
                let x = (i % 50) as f64 * 2.0;
                let y = (i / 50) as f64 * 2.5;
                let ang = i as f64 * 2.399; // golden-angle spread
                let (dx, dy) = (2.0 * ang.cos(), 2.0 * ang.sin());
                record(i, (i % 20) as f64, [x, y], [x + dx, y + dy])
            })
            .collect();
        let nsi_recs: Vec<rtree::NsiSegmentRecord<2>> = psi_recs
            .iter()
            .map(|r| {
                rtree::NsiSegmentRecord::new(
                    r.oid,
                    r.seq,
                    r.seg.t,
                    r.seg.x0,
                    r.seg.end_position(),
                )
            })
            .collect();
        let psi_tree = bulk_load(Pager::new(), RTreeConfig::default(), psi_recs);
        let nsi_tree = bulk_load(Pager::new(), RTreeConfig::default(), nsi_recs);
        let q = SnapshotQuery::new(
            Rect::from_corners([30.0, 30.0], [50.0, 50.0]),
            Interval::new(5.0, 8.0),
        );
        let psi_stats = psi_query(&psi_tree, &q, &bounds(), |_| {});
        let nsi_stats = crate::NaiveEngine::new().query_nsi(&nsi_tree, &q, |_| {});
        assert_eq!(psi_stats.results, nsi_stats.results, "same answers");
        assert!(
            psi_stats.distance_computations > nsi_stats.distance_computations,
            "PSI must lose locality: {} vs {}",
            psi_stats.distance_computations,
            nsi_stats.distance_computations
        );
    }
}
