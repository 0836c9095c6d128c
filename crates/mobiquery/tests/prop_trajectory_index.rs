//! Differential test of the trajectory's piece index: both overlap
//! forms against the loop they replaced — every piece solved, in order —
//! kept here as the oracle, and both hulls the PDQ queue keys entries
//! by (`Trajectory::overlap_hull_by`, through `PdqRecord::key_hull` for a
//! box and `PdqRecord::hull` for a motion segment) against the hull of
//! each set. Equality is `to_bits`-exact, interval for interval.

use mobiquery::{KeySnapshot, PdqRecord, Trajectory};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtree::NsiSegmentRecord;
use stkit::{Interval, MotionSegment, MovingWindow, Rect, StBox, TimeSet};

const SPACE: f64 = 1000.0;

fn oracle_rect(traj: &Trajectory<2>, space: &Rect<2>, time: &Interval) -> TimeSet {
    let mut out = TimeSet::empty();
    for s in traj.segments() {
        out.insert(s.overlap_time_rect(space, time));
    }
    out
}

fn oracle_segment(traj: &Trajectory<2>, seg: &MotionSegment<2>) -> TimeSet {
    let mut out = TimeSet::empty();
    for s in traj.segments() {
        out.insert(s.overlap_time_segment(seg));
    }
    out
}

fn bits(ts: &TimeSet) -> Vec<(u64, u64)> {
    ts.intervals()
        .iter()
        .map(|iv| (iv.lo.to_bits(), iv.hi.to_bits()))
        .collect()
}

fn hull_bits(iv: Interval) -> (u64, u64) {
    (iv.lo.to_bits(), iv.hi.to_bits())
}

/// How far, in representable values, a grazing probe sits from the face
/// it grazes: on it, next to it, and thousands of values away.
const NUDGES: [i32; 9] = [0, 1, -1, 2, -2, 1 << 11, -(1 << 11), 1 << 13, -(1 << 13)];

/// `x` moved `k` representable values up (`k > 0`) or down.
fn nudge(mut x: f64, k: i32) -> f64 {
    for _ in 0..k.abs() {
        x = if k > 0 { x.next_up() } else { x.next_down() };
    }
    x
}

/// A bouncing window of `pieces` pieces: reflects off the borders of the
/// space, changes side from key to key (growing and shrinking), and now
/// and then stands still for a piece.
fn bouncing(rng: &mut ChaCha8Rng, pieces: usize) -> Trajectory<2> {
    let mut t = rng.gen_range(0.0..50.0);
    let mut c = [rng.gen_range(50.0..950.0), rng.gen_range(50.0..950.0)];
    let speed = rng.gen_range(20.0..2000.0);
    let angle = rng.gen_range(0.0..std::f64::consts::TAU);
    let mut v = [speed * angle.cos(), speed * angle.sin()];
    let key = |t: f64, c: [f64; 2], half: f64| KeySnapshot {
        t,
        window: Rect::from_corners([c[0] - half, c[1] - half], [c[0] + half, c[1] + half]),
    };
    let mut half = rng.gen_range(1.0..40.0);
    let mut keys = vec![key(t, c, half)];
    for _ in 0..pieces {
        let dt = rng.gen_range(0.01..1.0);
        t += dt;
        match rng.gen_range(0..8u32) {
            // Zero-velocity piece: same window at both keys.
            0 => {}
            // Same centre, the window only grows or shrinks.
            1 => half = rng.gen_range(1.0..40.0),
            _ => {
                for d in 0..2 {
                    c[d] += v[d] * dt;
                    if c[d] < 0.0 || c[d] > SPACE {
                        c[d] = c[d].clamp(0.0, SPACE);
                        v[d] = -v[d];
                    }
                }
                if rng.gen_range(0..3u32) == 0 {
                    half = rng.gen_range(1.0..40.0);
                }
            }
        }
        keys.push(key(t, c, half));
    }
    Trajectory::new(keys)
}

/// Lifetimes of every kind the kernels accept: inside, across and
/// beyond the span; starting or ending exactly on a key time; a single
/// key instant; empty; unbounded on either or both sides.
fn lifetime(rng: &mut ChaCha8Rng, traj: &Trajectory<2>) -> Interval {
    let span = traj.span();
    let key_t = |rng: &mut ChaCha8Rng| traj.keys()[rng.gen_range(0..traj.keys().len())].t;
    let any_t = |rng: &mut ChaCha8Rng| rng.gen_range(span.lo - 5.0..span.hi + 5.0);
    match rng.gen_range(0..10u32) {
        0 => Interval::ALL,
        1 => Interval::new(any_t(rng), f64::INFINITY),
        2 => Interval::new(f64::NEG_INFINITY, any_t(rng)),
        3 => Interval::EMPTY,
        4 => Interval::new(any_t(rng) + 1.0, any_t(rng) - 11.0),
        5 => Interval::point(key_t(rng)),
        6 => Interval::new(key_t(rng), any_t(rng).max(span.hi)),
        7 => Interval::new(any_t(rng).min(span.lo), key_t(rng)),
        _ => {
            let (a, b) = (any_t(rng), any_t(rng));
            Interval::new(a.min(b), a.max(b))
        }
    }
}

/// A box somewhere in (or just outside) the space.
fn random_box(rng: &mut ChaCha8Rng) -> Rect<2> {
    let c = [rng.gen_range(-50.0..1050.0), rng.gen_range(-50.0..1050.0)];
    let h = [rng.gen_range(0.0..120.0), rng.gen_range(0.0..120.0)];
    Rect::from_corners([c[0] - h[0], c[1] - h[1]], [c[0] + h[0], c[1] + h[1]])
}

/// The bounds whose faces the grazing probes sit on: a piece's swept
/// bounds, or those bounds as the index widens them — a probe one value
/// beyond the latter is one the index leaves the piece out for.
fn grazed_bounds(rng: &mut ChaCha8Rng, piece: &MovingWindow<2>) -> Rect<2> {
    if rng.gen_bool(0.5) {
        piece.swept_bounds()
    } else {
        piece.reach()
    }
}

/// A box one of whose faces sits on a face of a random piece's swept
/// bounds, nudged by one of [`NUDGES`], and which overlaps the piece in
/// the other dimension.
fn grazing_box(rng: &mut ChaCha8Rng, traj: &Trajectory<2>) -> (Rect<2>, Interval) {
    let piece = traj.segments()[rng.gen_range(0..traj.segments().len())];
    let swept = grazed_bounds(rng, &piece);
    let d = rng.gen_range(0..2usize);
    let k = NUDGES[rng.gen_range(0..NUDGES.len())];
    let mut dims = [Interval::EMPTY; 2];
    let other = swept.extent(1 - d);
    dims[1 - d] = Interval::new(other.lo - 1.0, other.hi + 1.0);
    dims[d] = if rng.gen_bool(0.5) {
        // Above the piece: the box's lower face on the swept upper face.
        let face = nudge(swept.extent(d).hi, k);
        Interval::new(face, face + rng.gen_range(0.0..30.0))
    } else {
        let face = nudge(swept.extent(d).lo, k);
        Interval::new(face - rng.gen_range(0.0..30.0), face)
    };
    let life = if rng.gen_bool(0.5) {
        piece.span
    } else {
        lifetime(rng, traj)
    };
    (Rect::new(dims), life)
}

fn random_segment(rng: &mut ChaCha8Rng, traj: &Trajectory<2>) -> MotionSegment<2> {
    let a = [rng.gen_range(-50.0..1050.0), rng.gen_range(-50.0..1050.0)];
    let b = if rng.gen_range(0..4u32) == 0 {
        a
    } else {
        [a[0] + rng.gen_range(-300.0..300.0), a[1] + rng.gen_range(-300.0..300.0)]
    };
    MotionSegment::from_endpoints(lifetime(rng, traj), a, b)
}

/// An object that stands on a face of a random piece's swept bounds
/// (nudged as in [`grazing_box`]), or moves and stops there.
fn grazing_segment(rng: &mut ChaCha8Rng, traj: &Trajectory<2>) -> MotionSegment<2> {
    let piece = traj.segments()[rng.gen_range(0..traj.segments().len())];
    let swept = grazed_bounds(rng, &piece);
    let d = rng.gen_range(0..2usize);
    let k = NUDGES[rng.gen_range(0..NUDGES.len())];
    let ext = swept.extent(d);
    let face = nudge(if rng.gen_bool(0.5) { ext.hi } else { ext.lo }, k);
    let mut end = swept.center();
    end[d] = face;
    let start = if rng.gen_bool(0.5) {
        end
    } else {
        // Approaches from outside the swept bounds and stops on the face.
        let mut s = end;
        s[d] = face + (face - swept.center()[d]).signum() * rng.gen_range(0.0..50.0);
        s
    };
    let life = if rng.gen_bool(0.5) {
        piece.span
    } else {
        Interval::new(piece.span.lo - rng.gen_range(0.0..2.0), piece.span.hi)
    };
    MotionSegment::from_endpoints(life, start, end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_forms_equal_the_all_pieces_loop(seed in any::<u64>(), pieces in 1usize..501) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let traj = bouncing(&mut rng, pieces);
        prop_assert_eq!(traj.segments().len(), pieces);

        let boxes: Vec<(Rect<2>, Interval)> = (0..60)
            .map(|i| if i % 2 == 0 {
                (random_box(&mut rng), lifetime(&mut rng, &traj))
            } else {
                grazing_box(&mut rng, &traj)
            })
            .collect();
        let segs: Vec<MotionSegment<2>> = (0..60)
            .map(|i| if i % 2 == 0 {
                random_segment(&mut rng, &traj)
            } else {
                grazing_segment(&mut rng, &traj)
            })
            .collect();

        // Scalar forms, entry by entry, and the hull of each.
        for (space, life) in &boxes {
            let set = traj.overlap_rect(space, life);
            let oracle = oracle_rect(&traj, space, life);
            prop_assert_eq!(bits(&set), bits(&oracle), "overlap_rect {:?} {:?}", space, life);
            let key = StBox { space: *space, time: Rect::new([*life]) };
            let hulls = [
                traj.overlap_hull_by(life, space, |s| s.overlap_time_rect(space, life)),
                NsiSegmentRecord::<2>::key_hull(&key, &traj),
            ];
            for hull in hulls {
                prop_assert_eq!(hull_bits(hull), hull_bits(set.hull()), "rect hull {:?} {:?}", space, life);
                prop_assert_eq!(hull_bits(hull), hull_bits(oracle.hull()), "rect hull {:?} {:?}", space, life);
            }
        }
        for seg in &segs {
            let set = traj.overlap_segment(seg);
            let oracle = oracle_segment(&traj, seg);
            prop_assert_eq!(bits(&set), bits(&oracle), "overlap_segment {:?}", seg);
            let rec = NsiSegmentRecord { seg: *seg, oid: 0, seq: 0 };
            let hulls = [
                traj.overlap_hull_by(&seg.t, &seg.reach(), |s| s.overlap_time_segment(seg)),
                rec.hull(&traj),
            ];
            for hull in hulls {
                prop_assert_eq!(hull_bits(hull), hull_bits(set.hull()), "segment hull {:?}", seg);
                prop_assert_eq!(hull_bits(hull), hull_bits(oracle.hull()), "segment hull {:?}", seg);
            }
        }
    }
}
