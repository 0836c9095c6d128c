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
//! The second property holds the served path to the same kind of truth,
//! for both session kinds at once, over a random grid and inserts
//! stamped with any `now` up to their frame time: a PDQ frame is the
//! delta above, and an NPDQ frame `k` is what the snapshot at `t_k`
//! matches that the one at `t_{k-1}` did not, each over the records
//! resident at its frame — `SnapshotQuery::matches_segment` over the
//! record list, no tree and no engine.
//!
//! The third holds the library `NpdqEngine` to that NPDQ truth's
//! contract, over a DTA tree and an NSI tree, with the open queries of
//! Fig. 5(a) and inserts between frames paired with any `now` up to the
//! frame time: §4.2 may repeat an object, never lose one.

use mobiquery::{
    KeySnapshot, MotionRecord, NpdqEngine, PartitionedDqServer, PdqEngine, RegionGrid, SessionKind,
    SessionOutput, SessionPlan, SessionSpec, SnapshotQuery, Trajectory,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree, RTreeConfig};
use std::collections::HashSet;
use storage::Pager;
use stkit::{Interval, Rect};

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

/// The served property: `sc.preload` records packed over a random grid of
/// 1–3 regions; before frame `k`, `sc.batch` records stamped with a `now`
/// drawn from `[0, t_k]`; a PDQ session from frame 0 and an NPDQ session
/// joining at a random frame. The concurrent serve must equal the serial
/// one, the serial one's streams the single region's, order included, and
/// both must equal the ground truth frame by frame.
fn check_served(sc: Scenario) -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(sc.seed);
    let span = sc.frames as f64 * DT;
    let frame_times: Vec<f64> = (0..=sc.frames).map(|k| k as f64 * DT).collect();
    let mut oids = 0u32..;
    let mut draw = |rng: &mut ChaCha8Rng, around: f64| {
        motion(rng, oids.next().expect("u32 ids"), around, span)
    };
    let preload: Vec<R> = (0..sc.preload).map(|_| draw(&mut rng, 0.0)).collect();
    let inserts: Vec<Vec<(R, f64)>> = frame_times
        .iter()
        .map(|&t| {
            (0..sc.batch)
                .map(|_| (draw(&mut rng, t), t * rng.gen_range(0.0..1.0)))
                .collect()
        })
        .collect();
    // Half the grids cut at records' own grid-axis low ends, where a
    // record's owner is decided by a tie with a cut.
    let lows: Vec<f64> = preload
        .iter()
        .chain(inserts.iter().flatten().map(|(r, _)| r))
        .map(|r| r.seg.spatial_bbox().extent(0).lo)
        .collect();
    let on_records = !lows.is_empty() && rng.gen_bool(0.5);
    let mut cuts: Vec<f64> = (0..rng.gen_range(0..3))
        .map(|_| match on_records {
            true => lows[rng.gen_range(0..lows.len())],
            false => rng.gen_range(1.0..99.0),
        })
        .collect();
    cuts.sort_unstable_by(f64::total_cmp);
    cuts.dedup();
    let join = rng.gen_range(0..=sc.frames);
    let spec = |kind| SessionSpec {
        kind,
        trajectory: zigzag(span),
        frame_times: frame_times.clone(),
    };
    let plans = [
        SessionPlan::new(spec(SessionKind::Pdq)),
        SessionPlan::new(spec(SessionKind::Npdq)).join_at(join),
    ];
    let server = |cuts: &[f64]| {
        PartitionedDqServer::build(RegionGrid::from_cuts(0, cuts.to_vec()), &preload, |_| {
            RTree::new(Pager::with_page_size(256), RTreeConfig::default())
        })
    };
    let concurrent = server(&cuts).serve_plans(&plans, &inserts);
    let serial = server(&cuts).serve_serial_plans(&plans, &inserts);
    // Streams do not depend on the grid, in-frame order included.
    let single = server(&[]).serve_serial_plans(&plans, &inserts);
    for (i, (s, one)) in serial.sessions.iter().zip(&single.sessions).enumerate() {
        if s.results != one.results {
            let (got, one) = (&s.results, &one.results);
            return Err(format!("{cuts:?}: session {i} streams {got:?}, one region {one:?}"));
        }
    }
    // Everything but the wall clock.
    let counted = |s: &SessionOutput| {
        let frames: Vec<_> = s.frames.iter().map(|f| (f.frame, f.results, f.stats)).collect();
        (s.results.clone(), frames, s.stats, s.queue_hwm, s.outcome.clone())
    };
    for (i, (c, s)) in concurrent.sessions.iter().zip(&serial.sessions).enumerate() {
        let (c, s) = (counted(c), counted(s));
        if c != s {
            return Err(format!("{cuts:?}: session {i} concurrent {c:?} != serial {s:?}"));
        }
    }

    // Ground truth, frame by frame over the resident records: what each
    // session must deliver, as (global frame, sorted ids).
    let traj = zigzag(span);
    let (mut pdq, mut npdq) = (Vec::new(), Vec::new());
    let mut resident = preload.clone();
    let mut delivered: HashSet<(u32, u32)> = HashSet::new();
    let mut seen: Vec<(u32, u32)> = Vec::new();
    for (k, &t) in frame_times.iter().enumerate() {
        resident.extend(inserts[k].iter().map(|(r, _)| *r));
        if let Some(&t1) = frame_times.get(k + 1) {
            let mut want: Vec<_> = resident
                .iter()
                .filter(|r| !delivered.contains(&r.ids()))
                .filter(|r| {
                    let ts = traj.overlap_segment(&r.seg);
                    ts.start().is_some_and(|s| s <= t1) && ts.end().is_some_and(|e| e >= t)
                })
                .map(R::ids)
                .collect();
            want.sort_unstable();
            delivered.extend(&want);
            pdq.push((k, want));
        }
        let q = SnapshotQuery::at_instant(traj.window_at(t), t);
        let mut visible: Vec<_> =
            resident.iter().filter(|r| q.matches_segment(&r.seg)).map(R::ids).collect();
        visible.sort_unstable();
        if k >= join {
            let fresh = visible.iter().filter(|id| k == join || !seen.contains(id));
            npdq.push((k, fresh.copied().collect()));
        }
        seen = visible;
    }
    for (kind, got, want) in [
        ("PDQ", frame_sets(&serial.sessions[0]), pdq),
        ("NPDQ", frame_sets(&serial.sessions[1]), npdq),
    ] {
        if got != want {
            return Err(format!(
                "{cuts:?}, NPDQ joined at {join}: {kind} delivered {got:?}, ground truth {want:?}"
            ));
        }
    }
    Ok(())
}

/// Per frame: the global frame index and its delivered ids, sorted.
fn frame_sets(s: &SessionOutput) -> Vec<(usize, Vec<(u32, u32)>)> {
    let mut off = 0;
    s.frames
        .iter()
        .map(|f| {
            let mut set = s.results[off..off + f.results].to_vec();
            off += f.results;
            set.sort_unstable();
            (f.frame, set)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn served_frames_are_the_ground_truth_under_any_grid(
        seed in any::<u64>(), preload in 0usize..300, frames in 2usize..32, batch in 0usize..8,
    ) {
        if let Err(e) = check_served(Scenario { seed, preload, frames, batch }) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// The library NPDQ over a tree of `make`'s records: the preload
/// inserted, then per frame `k` one open snapshot at `t_k` and a batch
/// paired with `now` drawn from `[0, t_{k+1}]` — mostly older than the
/// snapshot just taken. With `S_k` the resident records `q_k` matches,
/// frame `k` must deliver all of `S_k ∖ S_{k-1}` and nothing outside
/// `S_k`, and the run must deliver fewer objects than the naive
/// `Σ |S_k|`, or nothing was discarded.
fn check_npdq<T: MotionRecord<2>>(sc: Scenario, make: impl Fn(&R) -> T) -> Result<(), String> {
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
        let q = SnapshotQuery::open_from(traj.window_at(t), t);
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
        for (layout, verdict) in [("DTA", check_npdq(sc, dta)), ("NSI", check_npdq(sc, |r| *r))] {
            if let Err(e) = verdict {
                return Err(TestCaseError::fail(format!("{layout}: {e}")));
            }
        }
    }
}
