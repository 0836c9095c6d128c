//! The benchmark's own input generator: records, live batches and
//! session plans, all derived from `--seed` and nothing else.
//!
//! Data is a [`motion::RandomWalk`] over the paper's 100×100 space.
//! Every segment starting at or before `t0` is preloaded; live batch `k`
//! carries the updates starting in `(t_{k-1}, t_k]` from the fraction
//! `report_frac` of objects that keep reporting. An object that stops
//! reporting stays parked where its last report left it (no update
//! means no deviation, the dead-reckoning default of §3.1), so the data
//! density a query sees does not decay as the run advances.
//!
//! All sessions share the global schedule `t_k = t0 + k·dt` and follow
//! bouncing-window trajectories at a target snapshot overlap (the model
//! of `workload::queries`, re-implemented here so that every session
//! starts at `t0`). Session kinds alternate PDQ / NPDQ.

use mobiquery::{KeySnapshot, SessionKind, SessionPlan, SessionSpec, Trajectory};
use motion::{RandomWalk, RandomWalkConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtree::{NsiSegmentRecord, Record};
use stkit::{Interval, Rect};

pub type Rec = NsiSegmentRecord<2>;
pub type Batch = Vec<(Rec, f64)>;

/// Side of the square data space.
pub const SPACE: f64 = 100.0;

/// What the generator needs to know about a workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub objects: u32,
    /// Preload horizon: segments starting at or before it are indexed
    /// before the run.
    pub t0: f64,
    /// Frame period.
    pub dt: f64,
    /// Frame periods per session (PDQ steps; NPDQ poses one more snapshot).
    pub frames: usize,
    /// Fraction of objects that keep reporting after `t0`.
    pub report_frac: f64,
    /// Query window side.
    pub window: f64,
    /// Target area overlap of consecutive snapshots.
    pub overlap: f64,
    pub sessions: usize,
}

pub struct Inputs {
    pub preload: Vec<Rec>,
    /// `batches[k]` is applied before any session processes frame `k`;
    /// `batches[0]` is empty (its updates are part of the preload).
    pub batches: Vec<Batch>,
    pub plans: Vec<SessionPlan<2>>,
    /// FNV-1a over every record, batch boundary and plan.
    pub hash: u64,
}

impl Inputs {
    pub fn live_inserts(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Session-frames a complete run delivers.
    pub fn session_frames(&self) -> usize {
        self.plans.iter().map(plan_steps).sum()
    }
}

/// Frame steps one plan consumes (the serving core's own rule).
pub fn plan_steps(plan: &SessionPlan<2>) -> usize {
    match plan.spec.kind {
        SessionKind::Pdq => plan.spec.frame_times.len() - 1,
        SessionKind::Npdq => plan.spec.frame_times.len(),
    }
}

pub fn generate(shape: &Shape, seed: u64) -> Inputs {
    let t_end = shape.t0 + shape.frames as f64 * shape.dt;
    let frame_times: Vec<f64> = (0..=shape.frames)
        .map(|k| shape.t0 + k as f64 * shape.dt)
        .collect();

    let walk = |duration: f64| {
        RandomWalk::new(RandomWalkConfig {
            objects: shape.objects,
            duration,
            seed: seed ^ 0x6471_6265_6e63_6800, // "dqbench\0"
            ..RandomWalkConfig::default()
        })
    };
    let (reporting_walk, parked_walk) = (walk(t_end), walk(shape.t0));
    let reporting = (shape.objects as f64 * shape.report_frac).ceil() as u32;
    let mut records: Vec<Rec> = Vec::new();
    for oid in 0..shape.objects {
        let trace = if oid < reporting {
            reporting_walk.generate_object(oid)
        } else {
            parked_walk.generate_object(oid)
        };
        records.extend(
            trace
                .updates
                .iter()
                .map(|u| Rec::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position())),
        );
        if oid >= reporting {
            let last = trace
                .updates
                .last()
                .expect("a walk has at least one segment");
            let at = last.seg.end_position();
            records.push(Rec::new(
                oid,
                last.seq + 1,
                Interval::new(shape.t0, t_end),
                at,
                at,
            ));
        }
    }
    records.sort_by(|a, b| {
        (a.seg.t.lo, a.oid, a.seq)
            .partial_cmp(&(b.seg.t.lo, b.oid, b.seq))
            .expect("record times are finite")
    });

    let split = records.partition_point(|r| r.seg.t.lo <= shape.t0);
    let mut batches: Vec<Batch> = vec![Vec::new(); shape.frames + 1];
    let mut k = 1;
    for rec in &records[split..] {
        while k < shape.frames && rec.seg.t.lo > frame_times[k] {
            k += 1;
        }
        batches[k].push((*rec, rec.seg.t.lo));
    }
    records.truncate(split);

    let plans: Vec<SessionPlan<2>> = (0..shape.sessions)
        .map(|i| {
            SessionPlan::new(SessionSpec {
                kind: if i % 2 == 0 {
                    SessionKind::Pdq
                } else {
                    SessionKind::Npdq
                },
                trajectory: bouncing_trajectory(shape, seed, i, t_end),
                frame_times: frame_times.clone(),
            })
        })
        .collect();

    let hash = inputs_hash(&records, &batches, &plans);
    Inputs {
        preload: records,
        batches,
        plans,
        hash,
    }
}

/// A `window`-sided square whose centre starts at a random point and
/// heading, moves at the speed that realises the target overlap, and
/// reflects off the borders of the space.
fn bouncing_trajectory(shape: &Shape, seed: u64, session: usize, t_end: f64) -> Trajectory<2> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((session as u64) << 16 | 0xD9));
    let half = shape.window / 2.0;
    let (lo, hi) = (half, SPACE - half);
    let speed = (1.0 - shape.overlap) * shape.window / shape.dt;
    let mut center = [rng.gen_range(lo..hi), rng.gen_range(lo..hi)];
    // Within 25 degrees of a diagonal, a different one per session: a
    // heading near an axis would shuttle the window along one line and
    // might never cross the region seam, and then the seed, not the
    // program, would decide how much work a run is.
    let diagonal = std::f64::consts::FRAC_PI_4 + session as f64 * std::f64::consts::FRAC_PI_2;
    let angle = diagonal + rng.gen_range(-0.436..0.436);
    let mut vel = [speed * angle.cos(), speed * angle.sin()];
    let window =
        |c: [f64; 2]| Rect::from_corners([c[0] - half, c[1] - half], [c[0] + half, c[1] + half]);

    let mut t = shape.t0;
    let mut keys = vec![KeySnapshot {
        t,
        window: window(center),
    }];
    while t < t_end {
        let mut hit = f64::INFINITY;
        for d in 0..2 {
            if vel[d] > 0.0 {
                hit = hit.min((hi - center[d]) / vel[d]);
            } else if vel[d] < 0.0 {
                hit = hit.min((lo - center[d]) / vel[d]);
            }
        }
        // A step too short to advance `t` would break the strictly
        // increasing key times; the reflection below still applies.
        let step = hit.min(t_end - t);
        for d in 0..2 {
            center[d] = (center[d] + vel[d] * step).clamp(lo, hi);
            if (center[d] >= hi - 1e-9 && vel[d] > 0.0) || (center[d] <= lo + 1e-9 && vel[d] < 0.0)
            {
                vel[d] = -vel[d];
            }
        }
        if t + step > t {
            t += step;
            keys.push(KeySnapshot {
                t,
                window: window(center),
            });
        }
    }
    Trajectory::new(keys)
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn inputs_hash(preload: &[Rec], batches: &[Batch], plans: &[SessionPlan<2>]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut buf = Vec::with_capacity(Rec::ENCODED_LEN);
    let mut rec = |h: &mut Fnv, r: &Rec| {
        buf.clear();
        r.encode(&mut buf);
        h.bytes(&buf);
    };
    h.u64(preload.len() as u64);
    for r in preload {
        rec(&mut h, r);
    }
    for batch in batches {
        h.u64(batch.len() as u64);
        for (r, now) in batch {
            rec(&mut h, r);
            h.f64(*now);
        }
    }
    for plan in plans {
        h.u64(matches!(plan.spec.kind, SessionKind::Pdq) as u64);
        h.u64(plan.join_frame as u64);
        for key in plan.spec.trajectory.keys() {
            h.f64(key.t);
            for d in 0..2 {
                h.f64(key.window.extent(d).lo);
                h.f64(key.window.extent(d).hi);
            }
        }
        for &t in &plan.spec.frame_times {
            h.f64(t);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Shape {
        Shape {
            objects: 200,
            t0: 3.0,
            dt: 0.05,
            frames: 80,
            report_frac: 0.25,
            window: 10.0,
            overlap: 0.8,
            sessions: 4,
        }
    }

    #[test]
    fn same_seed_same_hash_and_seeds_differ() {
        let (a, b, c) = (
            generate(&tiny(), 1),
            generate(&tiny(), 1),
            generate(&tiny(), 2),
        );
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.preload, b.preload);
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn batches_partition_the_live_updates_by_frame_time() {
        let shape = tiny();
        let inputs = generate(&shape, 1);
        assert!(inputs.batches[0].is_empty());
        assert!(inputs.preload.iter().all(|r| r.seg.t.lo <= shape.t0));
        assert!(inputs.live_inserts() > 0);
        for (k, batch) in inputs.batches.iter().enumerate().skip(1) {
            let (prev, at) = (
                shape.t0 + (k - 1) as f64 * shape.dt,
                shape.t0 + k as f64 * shape.dt,
            );
            for (r, now) in batch {
                assert_eq!(*now, r.seg.t.lo);
                assert!(
                    r.seg.t.lo > prev - 1e-5 && r.seg.t.lo <= at + 1e-5,
                    "batch {k}"
                );
            }
        }
        // Parked objects stay visible to the end of the run.
        let t_end = shape.t0 + shape.frames as f64 * shape.dt;
        let parked = inputs
            .preload
            .iter()
            .filter(|r| r.seg.t.hi >= t_end - 1e-4)
            .count();
        assert_eq!(parked, 150);
    }

    #[test]
    fn windows_stay_inside_the_space() {
        let inputs = generate(&tiny(), 7);
        for plan in &inputs.plans {
            for key in plan.spec.trajectory.keys() {
                for d in 0..2 {
                    let e = key.window.extent(d);
                    assert!(e.lo >= -1e-9 && e.hi <= SPACE + 1e-9, "{e:?}");
                }
            }
        }
    }
}
