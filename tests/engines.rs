//! The library engines' one oracle, `support::engines::check_engine`,
//! over cases drawn from a seed: PDQ, SPDQ, TPR and NPDQ (DTA and NSI
//! trees, open and instant snapshots), 256 B and 4 KiB pages, inserted
//! or packed preloads, 0–16 inserts between frames, frame windows that
//! cut the span unevenly, and random or integer geometry — and the
//! hand-picked cases, pinned.

mod support;

use dq_repro::mobiquery::{MotionRecord, SessionKind, Trajectory};
use dq_repro::stkit::{Interval, Rect};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use support::engines::{check_engine, Build, EngineCase, Family};
use support::{integer_line, motion, slide_spec, zigzag, SEAM_X};

/// Draw a case from `seed`, and the families to run it under: SPDQ
/// (which runs plain PDQ beside it) and TPR, or (`npdq`) NPDQ with instant
/// snapshots over a DTA tree — the one layout where an unsound instant
/// discard can lose a record — and a drawn other: open over DTA, or
/// either over NSI. Random geometry: 57–400 motions preloaded
/// (`support::motion`), frames 0.25 apart, the zigzag or an 8-wide
/// window crossing at most 20 units of x. Integer geometry, a third of
/// the cases: an object at every integer x, a unit window sliding at unit
/// speed, frames 1 apart, so objects, window edges and frame times meet
/// exactly. Mostly 256 B pages, some 4 KiB. The frame cuts sit on the
/// grid, jittered off it, doubled (a zero-width window), on a preloaded
/// object's entry or exit time. A third of the cases insert nothing, and
/// their windows cut the span without a gap, so every such PDQ, SPDQ and
/// TPR run is also held to one frame over the span; the rest insert up
/// to a drawn 1–16 motions before each frame, started up to 2 time units
/// before it, and a window may start late (the application skipped
/// ahead). A fifth of the SPDQ runs inflate by δ = 0. NPDQ runs
/// longer — 64 frames or more, mostly under the slow window — so
/// consecutive windows overlap, it has something to discard, and moving
/// records overtake the window.
fn engine_case(seed: u64, npdq: bool) -> (EngineCase, [Family; 2]) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (dta, open) = [(true, true), (false, true), (false, false)][rng.gen_range(0..3usize)];
    let families = match !npdq {
        true => [Family::Spdq(if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.0..5.0) }), Family::Tpr],
        false => [Family::Npdq { dta: true, open: false }, Family::Npdq { dta, open }],
    };
    let family = families[0];
    let frames = match family {
        Family::Npdq { .. } => 64 + 4 * rng.gen_range(0..64usize),
        _ => rng.gen_range(2..48usize),
    };
    let seams = rng.gen_bool(1.0 / 3.0);
    let dt = if seams { 1.0 } else { 0.25 };
    let span = frames as f64 * dt;
    let page_size = if rng.gen_bool(0.75) { 256 } else { 4096 };
    let build = [Build::Inserted, Build::Packed, Build::PackedBySpace][rng.gen_range(0..3usize)];
    let mut oids = SEAM_X + 1..;
    let preload: Vec<_> = match seams {
        true => integer_line(SEAM_X),
        false => (0..rng.gen_range(57..400)).map(|_| motion(&mut rng, oids.next().unwrap(), 0.0, span, false)).collect(),
    };
    let linear = if matches!(family, Family::Npdq { .. }) { 0.75 } else { 0.5 };
    let trajectory = match (seams, rng.gen_bool(1.0 - linear)) {
        (true, _) => slide_spec(SessionKind::Pdq, f64::from(rng.gen_range(0..8u32)), frames, span).trajectory,
        (false, true) => zigzag(span),
        (false, false) => {
            let (x, y) = (rng.gen_range(0.0..80.0), rng.gen_range(0.0..90.0));
            let window = Rect::from_corners([x, y], [x + 8.0, y + 8.0]);
            Trajectory::linear(window, [rng.gen_range(-20.0..20.0) / span, 0.0], Interval::new(0.0, span), 2)
        }
    };
    let mut cuts: Vec<f64> = (0..=frames)
        .map(|k| match rng.gen_range(0..8) {
            0 if k > 0 => (k as f64 + rng.gen_range(-0.5..0.5)) * dt,
            1 if !preload.is_empty() => {
                let at = trajectory.overlap_segment(&preload[rng.gen_range(0..preload.len())].seg);
                let event = if rng.gen_bool(0.5) { at.start() } else { at.end() };
                event.map_or(k as f64 * dt, |t| t.clamp(0.0, span))
            }
            _ => k as f64 * dt,
        })
        .collect();
    for _ in 0..rng.gen_range(0..=frames / 8) {
        let k = rng.gen_range(0..cuts.len());
        cuts.insert(k, cuts[k]);
    }
    cuts.sort_unstable_by(f64::total_cmp);
    let batch = if rng.gen_bool(1.0 / 3.0) { 0 } else { rng.gen_range(1..=16) };
    let windows: Vec<_> = (cuts.windows(2))
        .map(|w| match rng.gen_range(0..10) {
            0 if batch > 0 => (w[0] + rng.gen_range(0.0..=1.0) * (w[1] - w[0]), w[1]),
            _ => (w[0], w[1]),
        })
        .collect();
    let inserts = (windows.iter())
        .map(|&(t, _)| (0..rng.gen_range(0..=batch)).map(|_| motion(&mut rng, oids.next().unwrap(), t, span, seams)).collect())
        .collect();
    (EngineCase { family, page_size, build, preload, inserts, trajectory, windows }, families)
}

/// Run a drawn case under its families `runs`; see [`engine_case`].
fn check_drawn(seed: u64, npdq: bool, runs: Range<usize>) -> Result<(), TestCaseError> {
    let (case, families) = engine_case(seed, npdq);
    for family in families[runs].iter().copied() {
        let case = EngineCase { family, ..case.clone() };
        let run = check_engine(&case).map_err(|e| TestCaseError::fail(format!("{family:?}: {e}")))?;
        // 57 or more records on 256 B pages build three levels or more:
        // a one-level tree proves little.
        if case.page_size == 256 && case.preload.len() >= 57 && run.height < 3 {
            return Err(TestCaseError::fail(format!("{family:?}: height {} proves little", run.height)));
        }
        // Over the zigzag's overlapping windows NPDQ must discard
        // something: fewer deliveries than a naive engine's.
        let zigzag = case.trajectory.keys().len() == 5 && case.page_size == 256;
        if matches!(family, Family::Npdq { .. }) && zigzag && run.delivered() >= run.naive {
            let (delivered, naive) = (run.delivered(), run.naive);
            return Err(TestCaseError::fail(format!("{family:?}: delivered {delivered} of naive {naive}")));
        }
    }
    Ok(())
}

// NPDQ's two families are two properties, of even cost with the PDQ
// half, so the three run side by side.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pdq_spdq_and_tpr_deliver_the_record_list_truth_frame_by_frame(seed in any::<u64>()) {
        check_drawn(seed, false, 0..2)?;
    }

    #[test]
    fn npdq_at_instants_over_dta_delivers_the_record_list_truth(seed in any::<u64>()) {
        check_drawn(seed, true, 0..1)?;
    }

    #[test]
    fn npdq_open_or_over_nsi_delivers_the_record_list_truth(seed in any::<u64>()) {
        check_drawn(seed, true, 1..2)?;
    }
}

/// What the §4.1 update property shrank to at the parent of the change
/// that made `Inserted::Subtree` name a *new* node: one insert between
/// two frames. Frame 0 ends by popping a level-1 node and, at the same
/// priority (the leaf is what gives the node its entry time), one of its
/// leaves. The insert splits a leaf under that node; the old report
/// named the node itself, which went back on the queue at the priority
/// it had just popped at, and the consecutive-pop duplicate filter — its
/// memory kept across frames — dropped it: record 58 was never
/// delivered.
#[test]
fn one_insert_between_two_frames_is_delivered() {
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    let span = 0.5;
    let preload: Vec<_> = (1..=57).map(|oid| motion(&mut rng, oid, 0.0, span, false)).collect();
    let late = motion(&mut rng, 58, 0.25, span, false);
    let case = EngineCase {
        page_size: 256,
        inserts: vec![vec![], vec![late]],
        ..EngineCase::new(Family::Pdq, preload, zigzag(span), &[0.0, 0.25, 0.5])
    };
    let run = check_engine(&case).unwrap();
    assert!(run.frames[1].iter().any(|(id, _)| *id == late.ids()), "{:?}", run.frames);
}
