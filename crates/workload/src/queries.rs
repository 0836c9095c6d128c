//! Dynamic-query trajectory generation at controlled overlap levels (§5).
//!
//! "Query performance is measured at various speeds of the query
//! trajectory. For each DQ, a snapshot query is generated every 0.1 time
//! unit. For a high speed query, the overlap between consecutive snapshot
//! queries is low … We measure the query performance at overlap levels of
//! 0, 25, 50, 80, 90, and 99.99 %."
//!
//! For a `w × w` window moving at speed `v` with frame period `p`, the
//! area overlap of consecutive snapshots is `1 − v·p/w` (axis-aligned
//! motion), so the speed realizing a target overlap is
//! `v = (1 − overlap)·w/p`. Fast trajectories cover hundreds of length
//! units, far more than the 100-wide data space, so the window *bounces*
//! off the space borders; every reflection becomes a key snapshot of the
//! piecewise-linear [`Trajectory`].

use mobiquery::{KeySnapshot, SnapshotQuery, Trajectory};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stkit::Rect;

/// Parameters for one experiment point's query workload.
#[derive(Clone, Copy, Debug)]
pub struct QueryWorkloadConfig {
    /// Target overlap between consecutive snapshots, in `[0, 1)` plus the
    /// special value `0.9999` the paper uses.
    pub overlap: f64,
    /// Window side length `w` (paper: 8, 14, 20).
    pub window_side: f64,
    /// Snapshot (frame) period (paper: 0.1).
    pub frame_period: f64,
    /// Number of subsequent snapshots after the first (paper: 50).
    pub subsequent_frames: usize,
    /// Number of dynamic queries to generate (paper: 1000 per point).
    pub count: usize,
    /// Side length of the data space.
    pub space_side: f64,
    /// Data duration — trajectories are placed to fit inside it.
    pub data_duration: f64,
    /// RNG seed.
    pub seed: u64,
}

impl QueryWorkloadConfig {
    /// The paper's defaults for a given overlap level (small 8×8 window,
    /// 0.1 frame period, 50 subsequent snapshots).
    pub fn paper(overlap: f64) -> Self {
        QueryWorkloadConfig {
            overlap,
            window_side: 8.0,
            frame_period: 0.1,
            subsequent_frames: 50,
            count: 1000,
            space_side: 100.0,
            data_duration: 100.0,
            seed: 0x0517_ED87,
        }
    }

    /// Trajectory speed realizing the configured overlap.
    pub fn speed(&self) -> f64 {
        (1.0 - self.overlap) * self.window_side / self.frame_period
    }

    /// Total trajectory duration (first frame to last).
    pub fn query_duration(&self) -> f64 {
        self.subsequent_frames as f64 * self.frame_period
    }
}

/// One generated dynamic query: its trajectory and frame times.
#[derive(Clone, Debug)]
pub struct DynamicQuerySpec {
    /// The observer's (piecewise-linear, bouncing) trajectory.
    pub trajectory: Trajectory<2>,
    /// The times at which the renderer poses snapshot queries; the first
    /// entry is the "first query" of the paper's figures.
    pub frame_times: Vec<f64>,
}

impl DynamicQuerySpec {
    /// The snapshot query a naive/NPDQ client poses at frame `i`.
    pub fn snapshot(&self, i: usize) -> SnapshotQuery<2> {
        self.trajectory.snapshot_at(self.frame_times[i])
    }

    /// All frame snapshots in order.
    pub fn snapshots(&self) -> impl Iterator<Item = SnapshotQuery<2>> + '_ {
        self.frame_times
            .iter()
            .map(|&t| self.trajectory.snapshot_at(t))
    }

    /// The open-ended snapshot (§4.2 Fig. 5(a)) at frame `i`: current
    /// window, time `[tᵢ, ∞)` — the query shape NPDQ sessions use.
    pub fn open_snapshot(&self, i: usize) -> SnapshotQuery<2> {
        let t = self.frame_times[i];
        SnapshotQuery::open_from(self.trajectory.window_at(t), t)
    }

    /// All open-ended frame snapshots in order.
    pub fn open_snapshots(&self) -> impl Iterator<Item = SnapshotQuery<2>> + '_ {
        self.frame_times
            .iter()
            .map(|&t| SnapshotQuery::open_from(self.trajectory.window_at(t), t))
    }
}

/// Deterministic generator of [`DynamicQuerySpec`]s for one config.
#[derive(Clone, Debug)]
pub struct QueryWorkload {
    config: QueryWorkloadConfig,
}

impl QueryWorkload {
    /// Create a workload generator.
    pub fn new(config: QueryWorkloadConfig) -> Self {
        assert!(
            (0.0..1.0).contains(&config.overlap),
            "overlap must be in [0, 1)"
        );
        assert!(config.window_side < config.space_side, "window too large");
        assert!(config.frame_period > 0.0 && config.subsequent_frames > 0);
        assert!(
            config.query_duration() < config.data_duration,
            "query outlives the data"
        );
        QueryWorkload { config }
    }

    /// The workload's configuration.
    pub fn config(&self) -> &QueryWorkloadConfig {
        &self.config
    }

    /// Generate all dynamic queries of this point.
    pub fn generate(&self) -> Vec<DynamicQuerySpec> {
        (0..self.config.count).map(|i| self.generate_one(i)).collect()
    }

    /// Generate the `i`-th dynamic query (deterministic per index).
    pub fn generate_one(&self, i: usize) -> DynamicQuerySpec {
        let c = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(c.seed ^ ((i as u64) << 16 | 0xD9));
        let half = c.window_side / 2.0;
        let lo = half;
        let hi = c.space_side - half;
        let duration = c.query_duration();
        let t0 = rng.gen_range(0.0..(c.data_duration - duration));
        // Random center start and direction; bounce the center inside
        // [half, side − half]².
        let mut center = [rng.gen_range(lo..hi), rng.gen_range(lo..hi)];
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let speed = c.speed();
        let mut vel = [speed * angle.cos(), speed * angle.sin()];

        let mut keys = vec![KeySnapshot {
            t: t0,
            window: window_around(center, half),
        }];
        let mut t = t0;
        let t_end = t0 + duration;
        while t < t_end && speed > 0.0 {
            // Time until the center hits a wall along each axis.
            let mut hit = f64::INFINITY;
            for d in 0..2 {
                if vel[d] > 0.0 {
                    hit = hit.min((hi - center[d]) / vel[d]);
                } else if vel[d] < 0.0 {
                    hit = hit.min((lo - center[d]) / vel[d]);
                }
            }
            let step = hit.min(t_end - t);
            t += step;
            for d in 0..2 {
                center[d] += vel[d] * step;
            }
            if t < t_end {
                // Reflect every axis that is at (or numerically past) a wall.
                for d in 0..2 {
                    if (center[d] - lo).abs() < 1e-9 && vel[d] < 0.0 {
                        vel[d] = -vel[d];
                    }
                    if (center[d] - hi).abs() < 1e-9 && vel[d] > 0.0 {
                        vel[d] = -vel[d];
                    }
                    center[d] = center[d].clamp(lo, hi);
                }
            }
            keys.push(KeySnapshot {
                t,
                window: window_around(center, half),
            });
        }
        if keys.len() < 2 {
            // Stationary query (overlap → 1): still needs two keys.
            keys.push(KeySnapshot {
                t: t_end,
                window: keys[0].window,
            });
        }
        let trajectory = Trajectory::new(keys);
        let frame_times = (0..=c.subsequent_frames)
            .map(|k| t0 + k as f64 * c.frame_period)
            .collect();
        DynamicQuerySpec {
            trajectory,
            frame_times,
        }
    }
}

fn window_around(center: [f64; 2], half: f64) -> Rect<2> {
    Rect::from_corners(
        [center[0] - half, center[1] - half],
        [center[0] + half, center[1] + half],
    )
}

/// Measured overlap fraction between two consecutive axis-aligned window
/// positions (area of intersection / area of window) — used by tests to
/// confirm the generator hits its target.
pub fn snapshot_overlap(a: &Rect<2>, b: &Rect<2>) -> f64 {
    let inter = a.intersect(b);
    if inter.is_empty() {
        0.0
    } else {
        inter.volume() / a.volume()
    }
}

/// The paper's six overlap levels.
pub const PAPER_OVERLAPS: [f64; 6] = [0.0, 0.25, 0.50, 0.80, 0.90, 0.9999];

/// The paper's three window sizes (small / medium / big).
pub const PAPER_WINDOW_SIDES: [f64; 3] = [8.0, 14.0, 20.0];

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(overlap: f64) -> QueryWorkloadConfig {
        QueryWorkloadConfig {
            count: 20,
            ..QueryWorkloadConfig::paper(overlap)
        }
    }

    #[test]
    fn speed_formula() {
        let c = cfg(0.0);
        assert_eq!(c.speed(), 80.0);
        let c = cfg(0.9);
        assert!((c.speed() - 8.0).abs() < 1e-12);
        let c = cfg(0.9999);
        assert!((c.speed() - 0.008).abs() < 1e-12);
    }

    #[test]
    fn windows_stay_inside_space() {
        for overlap in PAPER_OVERLAPS {
            let wl = QueryWorkload::new(cfg(overlap));
            for spec in wl.generate() {
                for q in spec.snapshots() {
                    assert!(
                        q.window.extent(0).lo >= -1e-9
                            && q.window.extent(0).hi <= 100.0 + 1e-9
                            && q.window.extent(1).lo >= -1e-9
                            && q.window.extent(1).hi <= 100.0 + 1e-9,
                        "window {:?} escapes at overlap {overlap}",
                        q.window
                    );
                }
            }
        }
    }

    #[test]
    fn achieved_overlap_matches_target() {
        // Diagonal motion gives a slightly different *area* overlap than
        // the axis-aligned 1 − v·p/w; accept a tolerance band.
        for target in [0.25, 0.5, 0.8, 0.9] {
            let wl = QueryWorkload::new(cfg(target));
            let mut total = 0.0;
            let mut n = 0;
            for spec in wl.generate() {
                let snaps: Vec<_> = spec.snapshots().collect();
                for w in snaps.windows(2) {
                    total += snapshot_overlap(&w[0].window, &w[1].window);
                    n += 1;
                }
            }
            let mean = total / n as f64;
            assert!(
                (mean - target).abs() < 0.15,
                "target {target}, achieved {mean}"
            );
        }
    }

    #[test]
    fn zero_overlap_truly_disjoint_on_average() {
        let wl = QueryWorkload::new(cfg(0.0));
        let (mut total, mut n) = (0.0, 0);
        for spec in wl.generate() {
            let snaps: Vec<_> = spec.snapshots().collect();
            for w in snaps.windows(2) {
                total += snapshot_overlap(&w[0].window, &w[1].window);
                n += 1;
            }
        }
        // Frames straddling a wall bounce retrace briefly and may overlap;
        // the mean stays near zero.
        let mean = total / n as f64;
        assert!(mean < 0.15, "mean consecutive overlap {mean}");
    }

    #[test]
    fn frame_times_match_config() {
        let wl = QueryWorkload::new(cfg(0.5));
        let spec = wl.generate_one(0);
        assert_eq!(spec.frame_times.len(), 51);
        let d = spec.frame_times[50] - spec.frame_times[0];
        assert!((d - 5.0).abs() < 1e-9);
        // Trajectory covers every frame.
        let span = spec.trajectory.span();
        assert!(span.lo <= spec.frame_times[0] + 1e-12);
        assert!(span.hi >= spec.frame_times[50] - 1e-12);
    }

    #[test]
    fn deterministic_generation() {
        let a = QueryWorkload::new(cfg(0.5)).generate_one(7);
        let b = QueryWorkload::new(cfg(0.5)).generate_one(7);
        assert_eq!(a.trajectory.keys(), b.trajectory.keys());
        assert_eq!(a.frame_times, b.frame_times);
    }

    #[test]
    fn near_total_overlap_nearly_stationary() {
        let wl = QueryWorkload::new(cfg(0.9999));
        let spec = wl.generate_one(0);
        let first = spec.snapshot(0).window;
        let last = spec.snapshot(50).window;
        assert!(snapshot_overlap(&first, &last) > 0.99);
    }

    #[test]
    fn fits_inside_data_duration() {
        let wl = QueryWorkload::new(cfg(0.0));
        for spec in wl.generate() {
            assert!(spec.frame_times[0] >= 0.0);
            assert!(*spec.frame_times.last().unwrap() <= 100.0);
        }
    }
}
