//! The paper's workload generator (§5): random-direction walkers.
//!
//! "5000 objects are created, moving randomly in a 2-d space of size
//! 100-by-100 length units, updating their motion approximately (random
//! variable, normally distributed) every 1 time unit over a time period of
//! 100 time units. … Each object moves in various directions with a speed
//! of approximately 1 length unit/1 time unit."

use crate::rng::{truncated_normal, unit_vector};
use crate::trace::ObjectTrace;
use crate::update::MotionUpdate;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stkit::{Interval, MotionSegment, Rect, Scalar};

/// Parameters of the random-direction walk; defaults are the paper's.
#[derive(Clone, Copy, Debug)]
pub struct RandomWalkConfig<const D: usize> {
    /// Number of objects (paper: 5000).
    pub objects: u32,
    /// The space objects roam (paper: 100 × 100).
    pub space: Rect<D>,
    /// Simulated duration in time units (paper: 100).
    pub duration: Scalar,
    /// Mean time between motion updates (paper: ≈ 1).
    pub mean_update_interval: Scalar,
    /// Standard deviation of the update interval.
    pub sd_update_interval: Scalar,
    /// Mean object speed (paper: ≈ 1 length unit / time unit).
    pub speed_mean: Scalar,
    /// Standard deviation of the speed.
    pub speed_sd: Scalar,
    /// RNG seed — every run with the same config is identical.
    pub seed: u64,
}

impl Default for RandomWalkConfig<2> {
    /// The paper's §5 data-generation parameters.
    fn default() -> Self {
        RandomWalkConfig {
            objects: 5000,
            space: Rect::from_corners([0.0, 0.0], [100.0, 100.0]),
            duration: 100.0,
            mean_update_interval: 1.0,
            sd_update_interval: 0.25,
            speed_mean: 1.0,
            speed_sd: 0.2,
            seed: 0xED87_2002,
        }
    }
}

/// Deterministic random-direction walk generator.
#[derive(Clone, Debug)]
pub struct RandomWalk<const D: usize> {
    config: RandomWalkConfig<D>,
}

impl<const D: usize> RandomWalk<D> {
    /// Create a generator from a config.
    pub fn new(config: RandomWalkConfig<D>) -> Self {
        assert!(config.objects > 0, "need at least one object");
        assert!(!config.space.is_empty(), "space must be non-empty");
        assert!(config.duration > 0.0, "duration must be positive");
        RandomWalk { config }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &RandomWalkConfig<D> {
        &self.config
    }

    /// Generate the trace of every object.
    pub fn generate(&self) -> Vec<ObjectTrace<D>> {
        (0..self.config.objects)
            .map(|oid| self.generate_object(oid))
            .collect()
    }

    /// Generate the trace of a single object (deterministic per `oid`, so
    /// traces can be produced independently or in parallel).
    pub fn generate_object(&self, oid: u32) -> ObjectTrace<D> {
        let c = &self.config;
        // Stream per object: seed mixes the global seed with the oid.
        let mut rng = ChaCha8Rng::seed_from_u64(c.seed ^ ((oid as u64) << 24 | 0x9E37));
        let mut pos = random_point(&mut rng, &c.space);
        let mut t = 0.0;
        let mut seq = 0;
        let mut updates = Vec::new();
        while t < c.duration {
            let dt = truncated_normal(
                &mut rng,
                c.mean_update_interval,
                c.sd_update_interval,
                c.mean_update_interval * 0.05,
            );
            let t_end = (t + dt).min(c.duration);
            let speed = truncated_normal(&mut rng, c.speed_mean, c.speed_sd, 0.0);
            // Draw directions until the step's endpoint stays in bounds;
            // keeps every segment linear (no mid-segment reflection).
            let target = loop {
                let dir: [Scalar; D] = unit_vector(&mut rng);
                let mut p = [0.0; D];
                for i in 0..D {
                    p[i] = pos[i] + dir[i] * speed * (t_end - t);
                }
                if c.space.contains_point(&p) {
                    break p;
                }
            };
            updates.push(MotionUpdate {
                oid,
                seq,
                seg: MotionSegment::from_endpoints(Interval::new(t, t_end), pos, target),
            });
            pos = target;
            t = t_end;
            seq += 1;
        }
        ObjectTrace { oid, updates }
    }
}

fn random_point<const D: usize, R: Rng>(rng: &mut R, space: &Rect<D>) -> [Scalar; D] {
    let mut p = [0.0; D];
    for i in 0..D {
        let e = space.extent(i);
        p[i] = rng.gen_range(e.lo..=e.hi);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RandomWalkConfig<2> {
        RandomWalkConfig {
            objects: 20,
            duration: 20.0,
            ..RandomWalkConfig::default()
        }
    }

    #[test]
    fn traces_are_valid_and_bounded() {
        let walk = RandomWalk::new(small_config());
        for tr in walk.generate() {
            tr.validate(1e-9).unwrap();
            assert!(tr.stays_inside(&walk.config().space));
            assert_eq!(tr.start_time(), 0.0);
            assert_eq!(tr.end_time(), 20.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RandomWalk::new(small_config()).generate();
        let b = RandomWalk::new(small_config()).generate();
        assert_eq!(a, b);
        let mut other = small_config();
        other.seed += 1;
        let c = RandomWalk::new(other).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn per_object_generation_matches_batch() {
        let walk = RandomWalk::new(small_config());
        let batch = walk.generate();
        assert_eq!(walk.generate_object(7), batch[7]);
    }

    #[test]
    fn segment_count_near_expectation() {
        let cfg = RandomWalkConfig {
            objects: 100,
            duration: 50.0,
            ..RandomWalkConfig::default()
        };
        // About `objects · duration / mean_interval` segments, within
        // 10 % — interval truncation biases slightly high.
        let expected = cfg.objects as f64 * cfg.duration / cfg.mean_update_interval;
        let walk = RandomWalk::new(cfg);
        let total: usize = walk.generate().iter().map(|t| t.updates.len()).sum();
        assert!(
            (total as f64) > expected * 0.9 && (total as f64) < expected * 1.2,
            "{total} vs expected {expected}"
        );
    }

    #[test]
    fn speeds_near_configuration() {
        let walk = RandomWalk::new(small_config());
        let mut speeds = Vec::new();
        for tr in walk.generate() {
            for u in &tr.updates {
                let v2: f64 = u.seg.v.iter().map(|c| c * c).sum();
                speeds.push(v2.sqrt());
            }
        }
        let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
        assert!((mean - 1.0).abs() < 0.15, "mean speed {mean}");
    }

    #[test]
    fn paper_scale_segment_count() {
        // Down-scaled proportion of the paper's 5000×100 run: 500 objects
        // over 10 time units should produce ≈ 5000 segments, mirroring the
        // paper's ≈ 502 504 at full scale.
        let cfg = RandomWalkConfig {
            objects: 500,
            duration: 10.0,
            ..RandomWalkConfig::default()
        };
        let total: usize = RandomWalk::new(cfg)
            .generate()
            .iter()
            .map(|t| t.updates.len())
            .sum();
        assert!((4500..6500).contains(&total), "{total}");
    }
}
