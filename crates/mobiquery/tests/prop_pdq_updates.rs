//! The §4.1 update protocol against a ground truth that never touches
//! `PdqEngine`: a PDQ runs frame by frame over a deep tree while batches
//! are inserted (and reported to it) between frames, and frame `k`'s
//! delta must be exactly the records that are in the tree at frame `k`,
//! have not been delivered, and whose overlap with the trajectory
//! (`Trajectory::overlap_segment`, straight from the record) starts by
//! `t_{k+1}` and ends at or after `t_k`. Every other PDQ oracle in the
//! workspace compares two runs of the same engine, so an object reported
//! a frame late by both passes them all.
//!
//! The second holds the library `NpdqEngine` to the NPDQ truth — frame
//! `k` is what the snapshot at `t_k` matches that the one at `t_{k-1}`
//! did not, `SnapshotQuery::matches_segment` over the record list — over
//! a DTA tree and an NSI tree, with the open queries of Fig. 5(a) and,
//! in a third, with instant queries, and inserts between frames paired
//! with any `now` up to the frame time: §4.2 may repeat an object, never
//! lose one.
//!
//! The served path is held to the same two truths, with every session
//! lifecycle and thread schedule, by the root `tests/service.rs`.

use mobiquery::{KeySnapshot, MotionRecord, NpdqEngine, PdqEngine, SnapshotQuery, Trajectory};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree, RTreeConfig};
use std::collections::HashSet;
use stkit::{Interval, Rect};
use storage::Pager;

type R = NsiSegmentRecord<2>;

/// Frame length. Short against a motion's lifetime, so most nodes stay
/// queued across many batches.
const DT: f64 = 0.25;

#[derive(Clone, Copy, Debug)]
struct Scenario {
    seed: u64,
    /// Records inserted before the query starts.
    preload: usize,
    frames: usize,
    /// Records inserted after each frame.
    batch: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (any::<u64>(), 57usize..400, 2usize..64, 1usize..16).prop_map(
        |(seed, preload, frames, batch)| Scenario {
            seed,
            preload,
            frames,
            batch,
        },
    )
}

/// A 16-wide window crossing [0, 100]² on a four-piece zigzag over
/// `[0, span]`.
fn zigzag(span: f64) -> Trajectory<2> {
    let corners = [[5.0, 20.0], [35.0, 70.0], [60.0, 25.0], [80.0, 75.0], [95.0, 40.0]];
    let keys = corners
        .iter()
        .enumerate()
        .map(|(i, c)| KeySnapshot {
            t: span * i as f64 / 4.0,
            window: Rect::from_corners([c[0] - 8.0, c[1] - 8.0], [c[0] + 8.0, c[1] + 8.0]),
        })
        .collect();
    Trajectory::new(keys)
}

/// Random motions: object `oid` born near `around`, up to 10 units of
/// travel over a 0.5–6 lifetime, somewhere in [0, 100]².
fn motion(rng: &mut ChaCha8Rng, oid: u32, around: f64, span: f64) -> R {
    let born = around + rng.gen_range(-2.0..span.max(4.0));
    let a = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
    let b = [a[0] + rng.gen_range(-10.0..10.0), a[1] + rng.gen_range(-10.0..10.0)];
    R::new(oid, 0, Interval::new(born, born + rng.gen_range(0.5..6.0)), a, b)
}

fn check(sc: Scenario) -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(sc.seed);
    let span = sc.frames as f64 * DT;
    let traj = zigzag(span);
    let mut next_oid = 0u32;
    let mut motion = |rng: &mut ChaCha8Rng, around: f64| {
        next_oid += 1;
        motion(rng, next_oid, around, span)
    };

    // 256-byte pages hold 7 records or 8 child entries: the preload alone
    // makes a tree of height 3, and most batches split something.
    let mut tree = RTree::new(Pager::with_page_size(256), RTreeConfig::default());
    // Ground truth: every record in the tree with its overlap hull.
    let mut present: Vec<(u32, f64, f64)> = Vec::new();
    let admit = |present: &mut Vec<(u32, f64, f64)>, rec: &R| {
        let ts = traj.overlap_segment(&rec.seg);
        if let (Some(start), Some(end)) = (ts.start(), ts.end()) {
            present.push((rec.oid, start, end));
        }
    };
    for _ in 0..sc.preload {
        let rec = motion(&mut rng, 0.0);
        tree.insert(rec, 0.0);
        admit(&mut present, &rec);
    }
    if tree.height() < 3 {
        return Err(format!("height {} proves little", tree.height()));
    }

    let mut pdq = PdqEngine::start(&tree, traj.clone());
    let mut delivered: HashSet<u32> = HashSet::new();
    for k in 0..sc.frames {
        let (t0, t1) = (k as f64 * DT, (k + 1) as f64 * DT);
        let mut got: Vec<u32> = pdq
            .drain_window(&tree, t0, t1)
            .iter()
            .map(|r| r.record.oid)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u32> = present
            .iter()
            .filter(|(oid, start, end)| !delivered.contains(oid) && *start <= t1 && *end >= t0)
            .map(|&(oid, ..)| oid)
            .collect();
        want.sort_unstable();
        if got != want {
            return Err(format!(
                "frame {k} [{t0}, {t1}]: delivered {got:?}, ground truth {want:?}"
            ));
        }
        delivered.extend(got);
        for _ in 0..sc.batch {
            let rec = motion(&mut rng, t1);
            let report = tree.insert(rec, t1);
            pdq.notify(&report);
            admit(&mut present, &rec);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_frame_delivers_the_ground_truth_delta(sc in scenario()) {
        if let Err(e) = check(sc) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// What the property shrank to at the parent of the change that made
/// `Inserted::Subtree` name a *new* node: one insert between two frames.
/// Frame 0 ends by popping a level-1 node and, at the same priority (the
/// leaf is what gives the node its entry time), one of its leaves. The
/// insert splits a leaf under that node; the old report named the node
/// itself, which went back on the queue at the priority it had just
/// popped at, and the consecutive-pop duplicate filter — its memory kept
/// across frames — dropped it: record 58 was never delivered.
#[test]
fn one_insert_between_two_frames_is_delivered() {
    check(Scenario {
        seed: 33,
        preload: 57,
        frames: 2,
        batch: 1,
    })
    .unwrap();
}

/// The library NPDQ over a tree of `make`'s records: the preload
/// inserted, then per frame `k` one snapshot of `shape` at `t_k` and a batch
/// paired with `now` drawn from `[0, t_{k+1}]` — mostly older than the
/// snapshot just taken. With `S_k` the resident records `q_k` matches,
/// frame `k` must deliver all of `S_k ∖ S_{k-1}` and nothing outside
/// `S_k`, and the run must deliver fewer objects than the naive
/// `Σ |S_k|`, or nothing was discarded.
fn check_npdq<T: MotionRecord<2>>(
    sc: Scenario,
    shape: fn(Rect<2>, f64) -> SnapshotQuery<2>,
    make: impl Fn(&R) -> T,
) -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(sc.seed);
    let span = sc.frames as f64 * DT;
    let traj = zigzag(span);
    let mut oids = 0u32..;
    let mut draw = |rng: &mut ChaCha8Rng, around: f64| {
        motion(rng, oids.next().expect("u32 ids"), around, span)
    };
    let mut tree = RTree::new(Pager::with_page_size(256), RTreeConfig::default());
    let mut resident: Vec<R> = Vec::new();
    for _ in 0..sc.preload {
        let rec = draw(&mut rng, 0.0);
        tree.insert(make(&rec), 0.0);
        resident.push(rec);
    }
    if tree.height() < 3 {
        return Err(format!("height {} proves little", tree.height()));
    }
    let mut engine = NpdqEngine::new();
    let (mut before, mut delivered, mut naive) = (HashSet::new(), 0, 0);
    for k in 0..sc.frames {
        let t = k as f64 * DT;
        let q = shape(traj.window_at(t), t);
        let mut got = HashSet::new();
        engine.execute(&tree, &q, |r| {
            got.insert(r.ids());
        });
        let visible: HashSet<_> =
            resident.iter().filter(|r| q.matches_segment(&r.seg)).map(R::ids).collect();
        let lost: Vec<_> = visible.difference(&before).filter(|id| !got.contains(id)).collect();
        let stray: Vec<_> = got.difference(&visible).collect();
        if !lost.is_empty() || !stray.is_empty() {
            return Err(format!("frame {k} at {t}: lost {lost:?}, stray {stray:?}"));
        }
        (delivered, naive) = (delivered + got.len(), naive + visible.len());
        before = visible;
        for _ in 0..sc.batch {
            let rec = draw(&mut rng, t + DT);
            tree.insert(make(&rec), (t + DT) * rng.gen_range(0.0..1.0));
            resident.push(rec);
        }
    }
    if delivered >= naive {
        return Err(format!("delivered {delivered} of naive {naive}: nothing discarded"));
    }
    Ok(())
}

fn dta(r: &R) -> DtaSegmentRecord<2> {
    DtaSegmentRecord::new(r.oid, r.seq, r.seg.t, r.seg.x0, r.seg.end_position())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn library_npdq_delivers_every_newly_visible_record(sc in scenario()) {
        // Sixteen frames or more, so consecutive windows overlap and
        // NPDQ has something to discard.
        let sc = Scenario { frames: 16 + sc.frames, ..sc };
        let open = SnapshotQuery::open_from;
        for (layout, verdict) in [("DTA", check_npdq(sc, open, dta)), ("NSI", check_npdq(sc, open, |r| *r))] {
            if let Err(e) = verdict {
                return Err(TestCaseError::fail(format!("{layout}: {e}")));
            }
        }
    }
}

proptest! {
    // Each case runs 64 frames or more.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn library_npdq_over_instants_delivers_every_newly_visible_record(sc in scenario()) {
        // The instant-query discard: a record that entered the window
        // since `t_{k-1}` sits under a node `q_{k-1}` already covered.
        // More frames over the same zigzag: a slower window, so that
        // consecutive instants share most of it, and a longer run, so
        // that most leaves hold only started records.
        let sc = Scenario { frames: 64 + 4 * sc.frames, ..sc };
        let instant = SnapshotQuery::at_instant;
        for (layout, verdict) in [("DTA", check_npdq(sc, instant, dta)), ("NSI", check_npdq(sc, instant, |r| *r))] {
            if let Err(e) = verdict {
                return Err(TestCaseError::fail(format!("{layout}: {e}")));
            }
        }
    }
}
