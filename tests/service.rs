//! The serving core's one oracle, `support::served::check_served`, over
//! cases drawn from a seed: every lifecycle a session can have (ragged
//! schedules, joiners, joiners that never run, slow, detaching and
//! panicking sinks), every schedule the threads can take, 1–4 regions,
//! bare pagers or a faulty store behind a retrying pool, with and
//! without a WAL the writers commit to, a corrupt page, a crash recovered under
//! another grid, and the wire — and the mixed dataset workload and the
//! front door's loopback stream, pinned.

mod support;

use dq_repro::mobiquery::{SessionKind, SessionPlan, SessionSpec, Trajectory};
use dq_repro::stkit::{Interval, Rect};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use support::served::{check_served, At, Case, Corrupt, Crash, Mutation, Served, Sink, Surface, Tail};
use support::{integer_line, line_records, mixed_workload, motion, slide_spec, zigzag, R, SEAM_X};

/// Draw a case from `seed`, with up to `preload` records before the
/// run, `frames` frames and up to `batch` inserts a frame. Two
/// geometries:
/// - random motions over [0, 100]² (`support::motion`), frames 0.25
///   apart, half the grids cut at records' own grid-axis low ends (where
///   a record's owner is decided by a tie with a cut), sessions on the
///   zigzag or on a slide confined to a few lanes;
/// - a third of the cases, the seam geometry: an object at every integer
///   x, inserts there too, living between integer times, integer cuts
///   and frame times, and unit windows sliding at unit speed, so objects,
///   cuts and window edges meet exactly.
///
/// Half the cases sit on chaos stores. A third are durable, and half of
/// those crash at a drawn frame — mid-serve, or with the run cut there
/// and that frame committed but unapplied — and a drawn tail and grid;
/// half the others corrupt a drawn page of a drawn region with a drawn
/// mutation, a named one on a durable case. 1–6 sessions of
/// either kind, each with its own schedule length, join frame (at or
/// past its last frame too: it never runs) and sink — or, in a sixth of
/// the cases, over the wire with no sinks.
fn served_case(seed: u64, preload: usize, frames: usize, batch: usize) -> Case {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let seams = rng.gen_bool(1.0 / 3.0);
    let dt = if seams { 1.0 } else { 0.25 };
    let span = frames as f64 * dt;
    // Past the seam preload's oids.
    let mut oids = SEAM_X + 1..;
    let mut draw = |rng: &mut ChaCha8Rng, t: f64| motion(rng, oids.next().expect("u32 ids"), t, span, seams);
    let preload: Vec<R> = match seams {
        true => integer_line(SEAM_X),
        false => (0..preload).map(|_| draw(&mut rng, 0.0)).collect(),
    };
    let mut inserts: Vec<Vec<(R, f64)>> = (0..=frames)
        .map(|k| {
            let t = k as f64 * dt;
            (0..rng.gen_range(0..=batch))
                .map(|_| (draw(&mut rng, t), t * rng.gen_range(0.0..1.0)))
                .collect()
        })
        .collect();
    let lows: Vec<f64> = (preload.iter())
        .chain(inserts.iter().flatten().map(|(r, _)| r))
        .map(|r| r.seg.spatial_bbox().extent(0).lo)
        .collect();
    let grid = |rng: &mut ChaCha8Rng| {
        let on_records = !lows.is_empty() && rng.gen_bool(0.5);
        let mut cuts: Vec<f64> = (0..rng.gen_range(0..=3))
            .map(|_| match (seams, on_records) {
                (true, _) => f64::from(rng.gen_range(1..SEAM_X)),
                (false, true) => lows[rng.gen_range(0..lows.len())],
                (false, false) => rng.gen_range(1.0..99.0),
            })
            .collect();
        cuts.sort_unstable_by(f64::total_cmp);
        cuts.dedup();
        cuts
    };
    let cuts = grid(&mut rng);
    let faults = rng.gen_bool(0.5).then(|| (rng.gen::<u64>() >> 1, rng.gen_range(0.02..0.1)));
    let durable = rng.gen_bool(1.0 / 3.0).then(|| rng.gen_range(0..=4u64));
    let crash = (durable.is_some() && rng.gen_bool(0.5)).then(|| {
        let back = rng.gen_range(1..400usize);
        let tail = [Tail::Clean, Tail::Cut(back), Tail::Flip(back)][rng.gen_range(0..3usize)];
        let at = match rng.gen_bool(0.5) {
            true => At::Frame(rng.gen_range(0..=frames)),
            // The run stops at a drawn frame, committed and applied nowhere.
            false => At::Unapplied(inserts.split_off(rng.gen_range(0..=frames)).swap_remove(0)),
        };
        Crash { at, tail, cuts: grid(&mut rng) }
    });
    // Random bytes and floats stay off durable cases: nothing checks
    // entry floats, and the base checkpoint would persist them.
    let corrupt = (crash.is_none() && rng.gen_bool(0.5)).then(|| {
        let mutation = match rng.gen_range(0..if durable.is_some() { 5 } else { 7 }) {
            0 => Mutation::Magic,
            1 => Mutation::Checksum,
            2 => Mutation::Level,
            3 => Mutation::OffDevice,
            4 => Mutation::Ancestor,
            5 => Mutation::Random(rng.gen()),
            _ => Mutation::Float([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX][rng.gen_range(0..4usize)]),
        };
        let toward = match seams {
            true => [f64::from(rng.gen_range(0..=SEAM_X)), 0.5],
            false => [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)],
        };
        Corrupt { region: rng.gen_range(0..4usize), toward, depth: rng.gen_range(0..4usize), mutation }
    });
    let surface = if rng.gen_bool(1.0 / 6.0) { Surface::Wire } else { Surface::InProcess };
    let (mut plans, mut sinks) = (Vec::new(), Vec::new());
    for _ in 0..rng.gen_range(1..=6) {
        let kind = if rng.gen_bool(0.5) { SessionKind::Pdq } else { SessionKind::Npdq };
        let len = rng.gen_range(1..=frames);
        let spec = if seams {
            slide_spec(kind, f64::from(rng.gen_range(0..8u32)), len, len as f64)
        } else {
            let trajectory = if rng.gen_bool(0.5) {
                zigzag(span)
            } else {
                // An 8-wide window crossing at most 20 units of x.
                let (x, y) = (rng.gen_range(0.0..80.0), rng.gen_range(0.0..90.0));
                let window = Rect::from_corners([x, y], [x + 8.0, y + 8.0]);
                let velocity = [rng.gen_range(-20.0..20.0) / span, 0.0];
                Trajectory::linear(window, velocity, Interval::new(0.0, span), 2)
            };
            SessionSpec { kind, trajectory, frame_times: (0..=len).map(|k| k as f64 * dt).collect() }
        };
        plans.push(SessionPlan::new(spec).join_at(rng.gen_range(0..=len + 1)));
        sinks.push(match rng.gen_range(0..4) {
            _ if surface == Surface::Wire => Sink::None,
            0 => Sink::None,
            1 => Sink::Lag(
                (0..=frames)
                    .map(|_| if rng.gen_bool(0.25) { rng.gen_range(0..=2000u64) } else { 0 })
                    .collect(),
            ),
            2 => Sink::Detach(rng.gen_range(0..=frames)),
            _ => Sink::Panic(rng.gen_range(0..=frames)),
        });
    }
    Case { preload, inserts, cuts, faults, durable, corrupt, crash, surface, plans, sinks }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn served_frames_are_the_ground_truth_under_any_lifecycle_and_schedule(
        seed in any::<u64>(), preload in 0usize..300, frames in 2usize..32, batch in 0usize..=8,
    ) {
        if let Err(e) = check_served(&served_case(seed, preload, frames, batch)) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// The case that hung the concurrent serve: session 0's sink panics at
/// frame 2. The panic unwound the session's thread past its detach from
/// the lane clocks, and the region's writer, holding frame 3's batch,
/// waited for that session's ack for ever. A panicking sink now fails
/// its own session as a `Detach` does.
#[test]
fn a_panicking_sink_fails_only_its_own_session() {
    let inserts = (0..10)
        .map(|k| {
            let (t, oid) = (3.0 * f64::from(k), 7000 + k);
            let x = (t + 4.0) % 29.0;
            vec![(R::new(oid, 0, Interval::new(t, 100.0), [x, 0.5], [x, 0.5]), t)]
        })
        .collect();
    let slide = slide_spec(SessionKind::Pdq, 0.0, 10, 30.0);
    let case = Case {
        sinks: vec![Sink::Panic(2), Sink::None],
        ..Case::new(line_records(30), inserts, vec![slide.clone(), slide])
    };
    check_served(&case).unwrap();
}

/// The mixed workload over one region whose trees sit behind a small
/// pool (a fault-free chaos stack), against the serial reference: the
/// sessions find objects, read the tree, and the pool both hits and
/// misses.
#[test]
fn concurrent_serving_matches_serial_reference() {
    let (preload, inserts, specs) = mixed_workload();
    let case = Case { faults: Some((0xD1CE, 0.0)), ..Case::new(preload, inserts, specs) };
    let Served { report, store } = check_served(&case).unwrap();
    let results: usize = report.sessions.iter().map(|s| s.results.len()).sum();
    let reads: u64 = report.sessions.iter().map(|s| s.stats.disk_accesses).sum();
    assert!(results > 0 && reads > 0 && store.hits > 0 && store.misses > 0, "{results} results, {reads} reads, {store:?}");
}

/// Two concurrent serves of the same case are each the serial serve.
#[test]
fn serving_twice_is_reproducible() {
    let (preload, inserts, specs) = mixed_workload();
    let case = Case::new(preload, inserts, specs);
    for _ in 0..2 {
        check_served(&case).unwrap();
    }
}

/// The mixed workload with two sessions joining at frame 6 and two
/// stopping at frame 9, over 1, 3 and 5 regions.
#[test]
fn every_grid_matches_serial_and_grids_agree_per_frame() {
    let (preload, inserts, mut specs) = mixed_workload();
    for spec in &mut specs[4..] {
        spec.frame_times.truncate(10);
    }
    for cuts in [vec![], vec![33.0, 66.0], vec![20.0, 40.0, 60.0, 80.0]] {
        let mut case = Case { cuts, ..Case::new(preload.clone(), inserts.clone(), specs.clone()) };
        for plan in &mut case.plans[2..4] {
            plan.join_frame = 6;
        }
        check_served(&case).unwrap();
    }
}

/// An NPDQ window that barely moves over parked objects, and an object
/// inserted before every frame into one leaf whose siblings share its
/// parent. Each insert has been alive since time 0, so the leaf's box
/// stays inside the previous frame's window and its latest start stays
/// at 0: only the leaf's own stamp says the previous frame never saw
/// what it now holds. Its unwritten siblings are skipped; it must not be.
#[test]
fn npdq_over_a_slow_window_delivers_what_lands_in_a_written_sibling() {
    let inserts: Vec<_> = (0..8)
        .map(|k| {
            let x = 5.0 + 0.25 * f64::from(k);
            vec![(R::new(2000 + k, 0, Interval::new(0.0, 100.0), [x, 0.5], [x, 0.5]), 0.0)]
        })
        .collect();
    let window = Rect::from_corners([0.0, 0.0], [20.0, 1.0]);
    let spec = SessionSpec {
        kind: SessionKind::Npdq,
        trajectory: Trajectory::linear(window, [0.1, 0.0], Interval::new(0.0, 8.0), 2),
        frame_times: (0..=8).map(f64::from).collect(),
    };
    for cuts in [vec![], vec![12.0]] {
        check_served(&Case { cuts, ..Case::new(line_records(40), inserts.clone(), vec![spec.clone()]) }).unwrap();
    }
}

/// The front door's loopback stream: three sessions over two regions,
/// one insert a frame, each client's `(frame, ids)` deltas the
/// in-process stream.
#[test]
fn loopback_stream_is_bit_identical_to_serve_serial() {
    let inserts = (0..12)
        .map(|k| {
            let (t, oid) = (2.5 * f64::from(k), 1000 + k);
            let x = (t + 5.0) % 29.0;
            vec![(R::new(oid, 0, Interval::new(t, 100.0), [x, 0.5], [x, 0.5]), t)]
        })
        .collect();
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 12, 30.0),
        slide_spec(SessionKind::Npdq, 0.0, 12, 30.0),
        slide_spec(SessionKind::Pdq, 0.0, 8, 30.0),
    ];
    let case = Case { cuts: vec![15.0], surface: Surface::Wire, ..Case::new(line_records(30), inserts, specs) };
    check_served(&case).unwrap();
}
