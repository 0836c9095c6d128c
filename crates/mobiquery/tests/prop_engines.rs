//! Property test for `knn_at` against a brute-force ranking. The PDQ,
//! SPDQ, TPR and NPDQ engines are held to the record-list truth by the
//! root `tests/engines.rs`.

use proptest::prelude::*;
use rtree::bulk::bulk_load;
use rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use stkit::Interval;
use storage::Pager;

#[derive(Clone, Debug)]
struct RawSeg {
    t0: f64,
    dur: f64,
    a: [f64; 2],
    b: [f64; 2],
}

fn raw_seg() -> impl Strategy<Value = RawSeg> {
    (
        0.0f64..20.0,
        0.2f64..4.0,
        (0.0f64..100.0, 0.0f64..100.0),
        (0.0f64..100.0, 0.0f64..100.0),
    )
        .prop_map(|(t0, dur, a, b)| RawSeg {
            t0,
            dur,
            a: [a.0, a.1],
            b: [b.0, b.1],
        })
}

fn segments(n: usize) -> impl Strategy<Value = Vec<RawSeg>> {
    proptest::collection::vec(raw_seg(), 10..n)
}

fn nsi_records(raws: &[RawSeg]) -> Vec<NsiSegmentRecord<2>> {
    raws.iter()
        .enumerate()
        .map(|(i, r)| {
            NsiSegmentRecord::new(i as u32, 0, Interval::new(r.t0, r.t0 + r.dur), r.a, r.b)
        })
        .collect()
}

fn nsi_tree(raws: &[RawSeg]) -> (Vec<NsiSegmentRecord<2>>, RTree<NsiSegmentRecord<2>, Pager>) {
    let recs = nsi_records(raws);
    let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs.clone());
    (recs, tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn knn_matches_brute_force(raws in segments(250), px in 0.0f64..100.0, py in 0.0f64..100.0, t in 1.0f64..20.0, k in 1usize..8) {
        let (recs, tree) = nsi_tree(&raws);
        let mut stats = mobiquery::QueryStats::default();
        let got = mobiquery::knn_at(&tree, [px, py], t, k, &mut stats);
        // Brute force.
        let mut alive: Vec<(f64, u32)> = recs
            .iter()
            .filter(|r| r.seg.t.contains(t))
            .map(|r| (r.seg.dist_sq_at(t, &[px, py]), r.oid))
            .collect();
        alive.sort_by(|a, b| a.0.total_cmp(&b.0));
        prop_assert_eq!(got.len(), k.min(alive.len()));
        for (i, res) in got.iter().enumerate() {
            prop_assert!((res.dist_sq - alive[i].0).abs() < 1e-9,
                "rank {i}: {} vs {}", res.dist_sq, alive[i].0);
        }
    }
}
