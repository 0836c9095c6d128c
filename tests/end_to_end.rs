//! End-to-end integration tests: the full pipeline from motion
//! simulation through indexing to every query engine. The naive engine
//! is checked against brute force; PDQ and NPDQ are pinned cases of the
//! library engines' oracle, `support::engines::check_engine`.

mod support;

use dq_repro::mobiquery::{NaiveEngine, PdqEngine, SnapshotQuery, Trajectory};
use dq_repro::motion::MotionUpdate;
use dq_repro::rtree::DtaSegmentRecord;
use dq_repro::stkit::{Interval, Rect};
use dq_repro::storage::PageStore;
use dq_repro::workload::{Dataset, DatasetConfig, QueryWorkload, QueryWorkloadConfig};
use std::collections::BTreeSet;
use support::engines::{check_engine, Build, EngineCase, Family};
use support::R;

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

/// PDQ over the insert-built NSI tree, frame by frame on each query's
/// own frame times: exactly the record-list truth.
#[test]
fn pdq_delivers_union_of_frames_exactly_once() {
    let ds = dataset();
    for spec in workload(0.8, 5) {
        let case = EngineCase::new(Family::Pdq, ds.nsi_records(), spec.trajectory.clone(), &spec.frame_times);
        let run = check_engine(&case).unwrap();
        assert!(run.delivered() > 0);
    }
}

/// The PDQ's visibility sets, which the truth holds it to, agree with
/// the naive snapshot at every frame time: an object is in the view at
/// `t` iff the snapshot at `t` matches it.
#[test]
fn pdq_visibility_agrees_with_naive_frames() {
    let ds = dataset();
    let tree = ds.build_nsi_tree();
    let naive = NaiveEngine::new();
    let spec = &workload(0.9, 1)[0];
    let case = EngineCase::new(Family::Pdq, ds.nsi_records(), spec.trajectory.clone(), &spec.frame_times);
    let results = check_engine(&case).unwrap().frames.concat();
    for (i, q) in spec.snapshots().enumerate() {
        let t = spec.frame_times[i];
        let from_visibility: BTreeSet<(u32, u32)> =
            results.iter().filter(|(_, v)| v.contains(t)).map(|(id, _)| *id).collect();
        let mut from_naive = BTreeSet::new();
        naive.query_nsi(&tree, &q, |r| {
            from_naive.insert((r.oid, r.seq));
        });
        assert_eq!(from_visibility, from_naive, "frame {i}");
    }
}

/// NPDQ over the space-packed DTA tree with open snapshots (Fig. 5): every
/// frame holds the newly visible set and lies inside the visible one, and
/// at 90 % overlap it reads fewer pages than the naive engine.
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
        let family = Family::Npdq { dta: true, open: true };
        let mut times = spec.frame_times.clone();
        times.push(*times.last().unwrap());
        let case = EngineCase {
            build: Build::PackedBySpace,
            ..EngineCase::new(family, ds.nsi_records(), spec.trajectory.clone(), &times)
        };
        let run = check_engine(&case).unwrap();
        let naive_io: u64 = (0..spec.frame_times.len())
            .map(|i| naive.query_dta(&tree, &spec.open_snapshot(i), |_| {}).disk_accesses)
            .sum();
        let npdq_io = run.stats.disk_accesses;
        assert!(npdq_io < naive_io, "NPDQ should save I/O at 90% overlap: {npdq_io} vs {naive_io}");
    }
}

/// PDQ at 5 and at 500 frames: the oracle holds each to one frame over
/// the whole span (same pages in the same order), and neither reads more
/// pages than the tree has.
#[test]
fn pdq_io_is_bounded_by_tree_size_regardless_of_frame_rate() {
    let ds = dataset();
    let spec = &workload(0.9, 1)[0];
    let (t0, t_end) = (spec.frame_times[0], *spec.frame_times.last().unwrap());
    let reads = |steps: usize| {
        let times: Vec<f64> = (0..=steps).map(|k| t0 + (t_end - t0) * k as f64 / steps as f64).collect();
        let run = check_engine(&EngineCase::new(Family::Pdq, ds.nsi_records(), spec.trajectory.clone(), &times)).unwrap();
        assert!(run.stats.disk_accesses <= u64::from(run.pages));
        run.stats.disk_accesses
    };
    assert_eq!(reads(5), reads(500), "PDQ I/O must be frame-rate independent");
}

/// The full system: updates streamed into the tree while a PDQ runs
/// (the oracle holds every frame to the record-list truth), its answers
/// fed to a client cache that never holds an object past its visibility.
#[test]
fn live_session_pdq_and_cache() {
    let records = dataset().nsi_records();
    let (preload, live): (Vec<R>, Vec<R>) = records.iter().partition(|r| r.seg.t.lo < 7.0);
    let trajectory = Trajectory::linear(
        Rect::from_corners([20.0, 40.0], [30.0, 50.0]),
        [3.0, 0.0],
        Interval::new(5.0, 14.0),
        4,
    );
    let times: Vec<f64> = (0..=36).map(|k| 5.0 + 0.25 * f64::from(k)).collect();
    // Frame `k` sees every update that started by its start time.
    let mut feed = live.into_iter().peekable();
    let inserts = (times.windows(2))
        .map(|w| std::iter::from_fn(|| feed.next_if(|r| r.seg.t.lo <= w[0])).collect())
        .collect();
    let case = EngineCase { inserts, ..EngineCase::new(Family::Pdq, preload, trajectory, &times) };
    let run = check_engine(&case).unwrap();
    let mut cache = dq_repro::mobiquery::ClientCache::new();
    for (frame, w) in run.frames.iter().zip(times.windows(2)) {
        for (id, visibility) in frame {
            cache.insert(id.0, *id, visibility.clone());
        }
        cache.advance(w[1]);
    }
    assert!(run.delivered() > 0);
    // Cache never holds objects past their disappearance.
    assert!(cache.len() <= run.delivered());
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
