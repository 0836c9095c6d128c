//! Three-dimensional motion, end to end — the paper's other case ("in
//! most spatial applications, d is 2 or 3"). Every layer is
//! const-generic over the spatial dimension; this exercises D = 3 from
//! simulation through indexing to PDQ and NPDQ.

use dq_repro::mobiquery::{NaiveEngine, NpdqEngine, PdqEngine, SnapshotQuery, Trajectory};
use dq_repro::motion::{RandomWalk, RandomWalkConfig};
use dq_repro::rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::storage::Pager;
use dq_repro::stkit::{Interval, Rect};
use std::collections::BTreeSet;

fn walk3() -> Vec<dq_repro::motion::ObjectTrace<3>> {
    RandomWalk::new(RandomWalkConfig::<3> {
        objects: 200,
        space: Rect::from_corners([0.0; 3], [50.0; 3]),
        duration: 10.0,
        mean_update_interval: 1.0,
        sd_update_interval: 0.2,
        speed_mean: 1.0,
        speed_sd: 0.2,
        seed: 0x3D,
    })
    .generate()
}

#[test]
fn three_d_traces_are_valid() {
    for tr in walk3() {
        tr.validate(1e-9).unwrap();
        assert!(tr.stays_inside(&Rect::from_corners([0.0; 3], [50.0; 3])));
    }
}

#[test]
fn three_d_pdq_matches_naive_union() {
    let traces = walk3();
    let mut tree: RTree<NsiSegmentRecord<3>, Pager> =
        RTree::new(Pager::new(), RTreeConfig::default());
    for tr in &traces {
        for u in &tr.updates {
            tree.insert(
                NsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()),
                u.seg.t.lo,
            );
        }
    }
    tree.validate().unwrap();

    // A 10×10×10 view frustum flying diagonally through the volume.
    let traj = Trajectory::<3>::linear(
        Rect::from_corners([0.0; 3], [10.0; 3]),
        [4.0, 4.0, 4.0],
        Interval::new(1.0, 9.0),
        4,
    );

    let mut pdq = PdqEngine::start(&tree, traj.clone());
    let pdq_set: BTreeSet<(u32, u32)> = pdq
        .drain_window(&tree, 1.0, 9.0)
        .iter()
        .map(|r| (r.record.oid, r.record.seq))
        .collect();

    // Dense naive sampling is a subset (PDQ sees continuous time).
    let naive = NaiveEngine::new();
    let mut union = BTreeSet::new();
    for k in 0..=160 {
        let t = 1.0 + 8.0 * k as f64 / 160.0;
        naive.query_nsi(&tree, &traj.snapshot_at(t), |r| {
            union.insert((r.oid, r.seq));
        });
    }
    for e in &union {
        assert!(pdq_set.contains(e), "PDQ missed {e:?}");
    }
    // Everything PDQ returned genuinely intersects the moving frustum.
    for (oid, seq) in &pdq_set {
        let u = traces
            .iter()
            .flat_map(|t| &t.updates)
            .find(|u| u.oid == *oid && u.seq == *seq)
            .unwrap();
        assert!(!traj.overlap_segment(&u.seg).is_empty());
    }
    assert!(!pdq_set.is_empty());
}

#[test]
fn three_d_npdq_session() {
    let traces = walk3();
    let mut tree: RTree<DtaSegmentRecord<3>, Pager> =
        RTree::new(Pager::new(), RTreeConfig::default());
    for tr in &traces {
        for u in &tr.updates {
            tree.insert(
                DtaSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()),
                u.seg.t.lo,
            );
        }
    }
    let naive = NaiveEngine::new();
    let mut eng = NpdqEngine::new();
    let (mut npdq_union, mut naive_union) = (BTreeSet::new(), BTreeSet::new());
    for k in 0..20 {
        let t = 1.0 + k as f64 * 0.2;
        let w = Rect::from_corners(
            [10.0 + k as f64 * 0.5, 10.0, 10.0],
            [25.0 + k as f64 * 0.5, 25.0, 25.0],
        );
        let q = SnapshotQuery::<3>::open_from(w, t);
        eng.execute(&tree, &q, |r| {
            npdq_union.insert((r.oid, r.seq));
        });
        naive.query_dta(&tree, &q, |r| {
            naive_union.insert((r.oid, r.seq));
        });
    }
    assert_eq!(npdq_union, naive_union);
    assert!(!npdq_union.is_empty());
}

#[test]
fn three_d_page_capacities() {
    // D = 3: 40-byte leaf records, 32-byte NSI keys.
    let tree: RTree<NsiSegmentRecord<3>, Pager> =
        RTree::new(Pager::new(), RTreeConfig::default());
    assert_eq!(tree.leaf_capacity(), (4096 - 32) / 40);
    assert_eq!(tree.internal_capacity(), (4096 - 32) / 36);
}
