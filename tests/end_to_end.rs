//! End-to-end integration tests: the full pipeline from motion
//! simulation through indexing to every query engine, checking the
//! engines against each other and against brute force.

use dq_repro::mobiquery::{NaiveEngine, NpdqEngine, PdqEngine, SnapshotQuery, Trajectory};
use dq_repro::motion::MotionUpdate;
use dq_repro::rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::stkit::{Interval, Rect};
use dq_repro::storage::{PageStore, Pager};
use dq_repro::workload::{Dataset, DatasetConfig, QueryWorkload, QueryWorkloadConfig};
use std::collections::BTreeSet;

fn dataset() -> Dataset {
    Dataset::generate(DatasetConfig {
        objects: 300,
        duration: 15.0,
        space_side: 100.0,
        seed: 0xE2E,
    })
}

fn workload(overlap: f64, count: usize) -> Vec<dq_repro::workload::DynamicQuerySpec> {
    QueryWorkload::new(QueryWorkloadConfig {
        count,
        data_duration: 15.0,
        subsequent_frames: 30,
        ..QueryWorkloadConfig::paper(overlap)
    })
    .generate()
}

/// Brute force: every (oid, seq) whose segment matches the snapshot.
fn brute_force(updates: &[MotionUpdate<2>], q: &SnapshotQuery<2>) -> BTreeSet<(u32, u32)> {
    updates
        .iter()
        .filter(|u| q.matches_segment(&u.seg))
        .map(|u| (u.oid, u.seq))
        .collect()
}

#[test]
fn naive_matches_brute_force_on_both_layouts() {
    let ds = dataset();
    let nsi = ds.build_nsi_tree();
    let dta = ds.build_dta_tree();
    let engine = NaiveEngine::new();
    for spec in workload(0.5, 3) {
        for q in spec.snapshots().take(5) {
            let expected = brute_force(ds.updates(), &q);
            let mut got_nsi = BTreeSet::new();
            engine.query_nsi(&nsi, &q, |r| {
                got_nsi.insert((r.oid, r.seq));
            });
            assert_eq!(got_nsi, expected, "NSI naive vs brute force");
            let mut got_dta = BTreeSet::new();
            engine.query_dta(&dta, &q, |r| {
                got_dta.insert((r.oid, r.seq));
            });
            assert_eq!(got_dta, expected, "DTA naive vs brute force");
        }
    }
}

#[test]
fn pdq_delivers_union_of_frames_exactly_once() {
    let ds = dataset();
    let tree = ds.build_nsi_tree();
    let naive = NaiveEngine::new();
    for spec in workload(0.8, 5) {
        // Expected: union over a *dense* frame sampling of naive results
        // is a subset of PDQ's deliveries (PDQ sees continuous time, so
        // it may also deliver objects that cross between frames).
        let mut expected = BTreeSet::new();
        for q in spec.snapshots() {
            naive.query_nsi(&tree, &q, |r| {
                expected.insert((r.oid, r.seq));
            });
        }
        let mut pdq = PdqEngine::start(&tree, spec.trajectory.clone());
        let mut got = Vec::new();
        let t0 = spec.frame_times[0];
        let t_end = *spec.frame_times.last().unwrap();
        for r in pdq.drain_window(&tree, t0, t_end) {
            got.push((r.record.oid, r.record.seq));
        }
        let got_set: BTreeSet<_> = got.iter().copied().collect();
        assert_eq!(got.len(), got_set.len(), "PDQ must not deliver duplicates");
        for e in &expected {
            assert!(got_set.contains(e), "PDQ missed {e:?}");
        }
        // Everything PDQ delivered really intersects the trajectory.
        for &(oid, seq) in &got_set {
            let u = ds
                .updates()
                .iter()
                .find(|u| u.oid == oid && u.seq == seq)
                .unwrap();
            let vis = spec.trajectory.overlap_segment(&u.seg);
            assert!(
                !vis.is_empty(),
                "PDQ delivered object {oid}/{seq} that never intersects the window"
            );
        }
    }
}

#[test]
fn pdq_visibility_agrees_with_naive_frames() {
    let ds = dataset();
    let tree = ds.build_nsi_tree();
    let naive = NaiveEngine::new();
    let spec = &workload(0.9, 1)[0];
    let mut pdq = PdqEngine::start(&tree, spec.trajectory.clone());
    let t0 = spec.frame_times[0];
    let t_end = *spec.frame_times.last().unwrap();
    let results = pdq.drain_window(&tree, t0, t_end);
    // For every frame, the set of objects whose PDQ visibility covers the
    // frame time equals the naive frame result.
    for (i, q) in spec.snapshots().enumerate() {
        let t = spec.frame_times[i];
        let from_visibility: BTreeSet<(u32, u32)> = results
            .iter()
            .filter(|r| r.visibility.contains(t))
            .map(|r| (r.record.oid, r.record.seq))
            .collect();
        let mut from_naive = BTreeSet::new();
        naive.query_nsi(&tree, &q, |r| {
            from_naive.insert((r.oid, r.seq));
        });
        assert_eq!(from_visibility, from_naive, "frame {i}");
    }
}

#[test]
fn npdq_session_union_equals_naive_union() {
    // Denser data than the other tests: discardability needs leaf tiles
    // finer than the query window to prune anything.
    let ds = Dataset::generate(DatasetConfig {
        objects: 1500,
        duration: 15.0,
        space_side: 100.0,
        seed: 0xE2E,
    });
    let tree = ds.build_dta_tree();
    let naive = NaiveEngine::new();
    for spec in workload(0.9, 3) {
        let mut engine = NpdqEngine::new();
        let mut npdq_union = BTreeSet::new();
        let mut naive_union = BTreeSet::new();
        let mut npdq_io = 0;
        let mut naive_io = 0;
        for (i, _) in spec.frame_times.iter().enumerate() {
            let q = spec.open_snapshot(i);
            let s = engine.execute(&tree, &q, f64::INFINITY, |r| {
                npdq_union.insert((r.oid, r.seq));
            });
            npdq_io += s.disk_accesses;
            let ns = naive.query_dta(&tree, &q, |r| {
                naive_union.insert((r.oid, r.seq));
            });
            naive_io += ns.disk_accesses;
        }
        assert_eq!(npdq_union, naive_union, "NPDQ session must lose nothing");
        assert!(
            npdq_io < naive_io,
            "NPDQ should save I/O at 90% overlap: {npdq_io} vs {naive_io}"
        );
    }
}

#[test]
fn pdq_io_is_bounded_by_tree_size_regardless_of_frame_rate() {
    let ds = dataset();
    let tree = ds.build_nsi_tree();
    let inv = tree.validate().unwrap();
    let spec = &workload(0.9, 1)[0];
    // Drain at two very different frame rates; both must be ≤ node count,
    // and per-node-visited identical (I/O-optimality).
    let run = |steps: usize| {
        let mut pdq = PdqEngine::start(&tree, spec.trajectory.clone());
        let t0 = spec.frame_times[0];
        let t_end = *spec.frame_times.last().unwrap();
        let dt = (t_end - t0) / steps as f64;
        for k in 0..steps {
            let _ = pdq.drain_window(&tree, t0 + k as f64 * dt, t0 + (k + 1) as f64 * dt);
        }
        pdq.stats().disk_accesses
    };
    let coarse = run(5);
    let fine = run(500);
    assert_eq!(coarse, fine, "PDQ I/O must be frame-rate independent");
    assert!(fine <= inv.nodes);
}

#[test]
fn live_session_pdq_and_cache() {
    // Full system: stream inserts + PDQ + client cache, via public APIs.
    let mut tree: RTree<NsiSegmentRecord<2>, Pager> =
        RTree::new(Pager::new(), RTreeConfig::default());
    let ds = dataset();
    let (pre, live): (Vec<&MotionUpdate<2>>, Vec<_>) =
        ds.updates().iter().partition(|u| u.seg.t.lo < 7.0);
    for u in &pre {
        tree.insert(
            NsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()),
            u.seg.t.lo,
        );
    }
    let trajectory = Trajectory::linear(
        Rect::from_corners([20.0, 40.0], [30.0, 50.0]),
        [3.0, 0.0],
        Interval::new(5.0, 14.0),
        4,
    );
    let mut pdq = PdqEngine::start(&tree, trajectory);
    let mut cache = dq_repro::mobiquery::ClientCache::new();
    let mut feed = live.iter().peekable();
    let mut delivered = BTreeSet::new();
    let mut t = 5.0;
    while t < 14.0 {
        while let Some(u) = feed.peek() {
            if u.seg.t.lo > t {
                break;
            }
            let rec =
                NsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position());
            let report = tree.insert(rec, u.seg.t.lo);
            pdq.notify(&report);
            feed.next();
        }
        for r in pdq.drain_window(&tree, t, t + 0.25) {
            assert!(
                delivered.insert((r.record.oid, r.record.seq)),
                "duplicate delivery of {:?}",
                (r.record.oid, r.record.seq)
            );
            cache.insert(r.record.oid, r.record, r.visibility);
        }
        cache.advance(t + 0.25);
        t += 0.25;
    }
    assert!(!delivered.is_empty());
    tree.validate().unwrap();
    // Cache never holds objects past their disappearance.
    assert!(cache.len() <= delivered.len());
}

#[test]
fn dta_and_nsi_trees_have_consistent_shape() {
    let ds = dataset();
    let nsi = ds.build_nsi_tree();
    let dta = ds.build_dta_tree();
    assert_eq!(nsi.len(), dta.len());
    assert_eq!(nsi.len() as usize, ds.segment_count());
    nsi.validate().unwrap();
    dta.validate().unwrap();
    // Paper fanouts hold for the on-disk layout.
    assert_eq!(nsi.leaf_capacity(), 127);
    assert_eq!(nsi.internal_capacity(), 145);
    // DTA keys are 32 bytes (one extra axis) — lower internal fanout.
    assert_eq!(dta.internal_capacity(), 112);
    assert_eq!(dta.leaf_capacity(), 127);
}

#[test]
fn io_accounting_is_exact() {
    // Engine-reported disk accesses equal the pager's read counter.
    let ds = dataset();
    let tree = ds.build_nsi_tree();
    let spec = &workload(0.5, 1)[0];
    let before = tree.store().io();
    let mut pdq = PdqEngine::start(&tree, spec.trajectory.clone());
    let t0 = spec.frame_times[0];
    let t1 = *spec.frame_times.last().unwrap();
    let _ = pdq.drain_window(&tree, t0, t1);
    let delta = tree.store().io() - before;
    assert_eq!(delta.reads, pdq.stats().disk_accesses);
    assert_eq!(delta.writes, 0, "queries never write");

    let before = tree.store().io();
    let naive = NaiveEngine::new();
    let s = naive.query_nsi(&tree, &spec.snapshot(0), |_| {});
    assert_eq!((tree.store().io() - before).reads, s.disk_accesses);
}

#[test]
fn dta_record_key_matches_segment_times() {
    // Regression guard for the double-temporal-axes mapping.
    let r = DtaSegmentRecord::<2>::new(
        1,
        0,
        Interval::new(3.0, 7.0),
        [0.0, 0.0],
        [4.0, 4.0],
    );
    let q_sees_it = SnapshotQuery::at_instant(Rect::from_corners([0.0, 0.0], [5.0, 5.0]), 5.0);
    let q_too_late = SnapshotQuery::at_instant(Rect::from_corners([0.0, 0.0], [5.0, 5.0]), 8.0);
    use dq_repro::rtree::Record;
    assert!(q_sees_it.dta_key().overlaps(&r.key()));
    assert!(!q_too_late.dta_key().overlaps(&r.key()));
}
