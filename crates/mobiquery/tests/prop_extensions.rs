//! Property tests for the extension modules: joins vs brute force,
//! aggregation vs pointwise counting.

use proptest::prelude::*;
use rtree::bulk::bulk_load;
use rtree::{NsiSegmentRecord, RTreeConfig};
use std::collections::BTreeSet;
use storage::Pager;
use stkit::{within_distance, Interval, TimeSet};

type R = NsiSegmentRecord<2>;

#[derive(Clone, Debug)]
struct RawSeg {
    t0: f64,
    dur: f64,
    a: [f64; 2],
    b: [f64; 2],
}

fn raw_seg() -> impl Strategy<Value = RawSeg> {
    (
        0.0f64..10.0,
        0.2f64..4.0,
        (0.0f64..60.0, 0.0f64..60.0),
        (0.0f64..60.0, 0.0f64..60.0),
    )
        .prop_map(|(t0, dur, a, b)| RawSeg {
            t0,
            dur,
            a: [a.0, a.1],
            b: [b.0, b.1],
        })
}

fn recs(n: usize) -> impl Strategy<Value = Vec<R>> {
    proptest::collection::vec(raw_seg(), 5..n).prop_map(|raws| {
        raws.iter()
            .enumerate()
            .map(|(i, r)| R::new(i as u32, 0, Interval::new(r.t0, r.t0 + r.dur), r.a, r.b))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn join_matches_brute_force(rs in recs(80), delta in 0.2f64..5.0) {
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), rs.clone());
        let window = Interval::new(0.0, 15.0);
        let mut got = BTreeSet::new();
        mobiquery::self_distance_join(&tree, delta, window, |p| {
            got.insert((p.a.oid, p.b.oid));
        });
        let mut expected = BTreeSet::new();
        for (i, a) in rs.iter().enumerate() {
            for b in &rs[i + 1..] {
                if !within_distance(&a.seg, &b.seg, delta)
                    .intersect_interval(&window)
                    .is_empty()
                {
                    expected.insert((a.oid.min(b.oid), a.oid.max(b.oid)));
                }
            }
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn count_profile_matches_pointwise(
        ivs in proptest::collection::vec(
            proptest::collection::vec((0.0f64..20.0, 0.1f64..5.0), 1..3), 1..12),
        probes in proptest::collection::vec(0.0f64..25.0, 1..16),
    ) {
        let sets: Vec<TimeSet> = ivs
            .iter()
            .map(|v| TimeSet::from_intervals(v.iter().map(|&(a, d)| Interval::new(a, a + d))))
            .collect();
        let profile = mobiquery::CountProfile::from_visibilities(sets.iter());
        for &t in &probes {
            // Skip probes landing exactly on breakpoints (boundary
            // conventions legitimately differ there).
            if profile.steps().iter().any(|&(bt, _)| (bt - t).abs() < 1e-12) {
                continue;
            }
            let expected = sets.iter().filter(|s| s.contains(t)).count() as u32;
            prop_assert_eq!(profile.count_at(t), expected, "t={}", t);
        }
    }
}
