//! Micro-benchmarks for the hot paths of the reproduction: overlap-time
//! geometry, R-tree construction and search, and the three query engines
//! on a fixed small workload.
//!
//! Self-timed (`harness = false`): the build environment has no registry
//! access for criterion, so this measures with `std::time::Instant`
//! directly — warm-up, then enough iterations to fill a minimum window,
//! reporting the mean per-iteration time. Run with `cargo bench`;
//! `DQ_BENCH_MS` overrides the per-benchmark measuring window.

use mobiquery::{NaiveEngine, NpdqEngine, PdqEngine, SnapshotQuery, Trajectory};
use rtree::bulk::bulk_load;
use rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};
use storage::Pager;
use stkit::{Interval, MotionSegment, MovingWindow, Rect};
use workload::{Dataset, DatasetConfig, QueryWorkload, QueryWorkloadConfig};

/// Minimal self-timing harness: warm-up, then repeat until the window is
/// filled, print mean per-iteration time.
struct Bench {
    group: &'static str,
    window: Duration,
}

impl Bench {
    fn group(group: &'static str) -> Bench {
        println!("\n## {group}");
        let ms = std::env::var("DQ_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(250u64);
        Bench {
            group,
            window: Duration::from_millis(ms),
        }
    }

    fn run<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        // Warm-up: one timed probe to size the batch.
        let t0 = Instant::now();
        black_box(f());
        let probe = t0.elapsed().max(Duration::from_nanos(20));
        let batch = (self.window.as_nanos() / probe.as_nanos()).clamp(1, 1_000_000) as u64;
        let t1 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let per_iter = t1.elapsed().as_secs_f64() / batch as f64;
        let (value, unit) = if per_iter >= 1e-3 {
            (per_iter * 1e3, "ms")
        } else if per_iter >= 1e-6 {
            (per_iter * 1e6, "µs")
        } else {
            (per_iter * 1e9, "ns")
        };
        println!("{}/{name}: {value:.3} {unit}/iter ({batch} iters)", self.group);
    }

    /// Like [`Bench::run`] but with a per-iteration setup excluded from
    /// the reported time (criterion's `iter_batched`).
    fn run_batched<S, T>(&self, name: &str, mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> T) {
        let t0 = Instant::now();
        black_box(f(setup()));
        let probe = t0.elapsed().max(Duration::from_nanos(20));
        let batch = (self.window.as_nanos() / probe.as_nanos()).clamp(1, 10_000) as u64;
        let mut measured = Duration::ZERO;
        for _ in 0..batch {
            let input = setup();
            let t1 = Instant::now();
            black_box(f(input));
            measured += t1.elapsed();
        }
        let per_iter = measured.as_secs_f64() / batch as f64;
        let (value, unit) = if per_iter >= 1e-3 {
            (per_iter * 1e3, "ms")
        } else if per_iter >= 1e-6 {
            (per_iter * 1e6, "µs")
        } else {
            (per_iter * 1e9, "ns")
        };
        println!("{}/{name}: {value:.3} {unit}/iter ({batch} iters)", self.group);
    }
}

fn bench_geometry() {
    let g = Bench::group("geometry");
    let w = MovingWindow::between(
        Interval::new(0.0, 10.0),
        &Rect::from_corners([0.0, 0.0], [8.0, 8.0]),
        &Rect::from_corners([40.0, 20.0], [48.0, 28.0]),
    );
    let target = Rect::from_corners([20.0, 10.0], [24.0, 14.0]);
    let tspan = Interval::new(2.0, 9.0);
    g.run("overlap_time_rect", || {
        w.overlap_time_rect(black_box(&target), black_box(&tspan))
    });
    let seg = MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [50.0, 30.0], [0.0, 0.0]);
    g.run("overlap_time_segment", || {
        w.overlap_time_segment(black_box(&seg))
    });
    g.run("segment_intersect_query", || {
        seg.intersect_query(black_box(&target), black_box(&tspan))
    });
    let traj = Trajectory::linear(
        Rect::from_corners([0.0, 0.0], [8.0, 8.0]),
        [4.0, 2.0],
        Interval::new(0.0, 10.0),
        8,
    );
    g.run("trajectory_overlap_rect_8keys", || {
        traj.overlap_rect(black_box(&target), black_box(&tspan))
    });
}

fn small_dataset() -> Dataset {
    Dataset::generate(DatasetConfig {
        objects: 500,
        duration: 10.0,
        space_side: 100.0,
        seed: 7,
    })
}

fn bench_rtree() {
    let g = Bench::group("rtree");
    let ds = small_dataset();
    let recs = ds.nsi_records();
    g.run_batched(
        "bulk_load_5k",
        || recs.clone(),
        |r| bulk_load(Pager::new(), RTreeConfig::default(), r),
    );
    g.run_batched(
        "insert_5k_time_ordered",
        || recs.clone(),
        |rs| {
            let mut tree: RTree<NsiSegmentRecord<2>, _> =
                RTree::new(Pager::new(), RTreeConfig::default());
            for r in rs {
                tree.insert(r, r.seg.t.lo);
            }
            tree.len()
        },
    );
    let tree = ds.build_nsi_tree();
    let q = SnapshotQuery::at_instant(Rect::from_corners([40.0, 40.0], [48.0, 48.0]), 5.0);
    let e = NaiveEngine::new();
    g.run("range_search_8x8", || e.query_nsi(&tree, black_box(&q), |_| {}));
}

fn bench_engines() {
    let g = Bench::group("engines");
    let ds = small_dataset();
    let nsi = ds.build_nsi_tree();
    let dta = ds.build_dta_tree();
    let spec = QueryWorkload::new(QueryWorkloadConfig {
        count: 1,
        data_duration: 10.0,
        ..QueryWorkloadConfig::paper(0.9)
    })
    .generate_one(0);

    g.run("pdq_full_dq_51_frames", || {
        let mut e = PdqEngine::start(&nsi, spec.trajectory.clone());
        let mut n = 0;
        for w in spec.frame_times.windows(2) {
            n += e.drain_window(&nsi, w[0], w[1]).len();
        }
        n
    });
    let naive = NaiveEngine::new();
    g.run("naive_full_dq_51_frames", || {
        let mut n = 0u64;
        for q in spec.snapshots() {
            n += naive.query_nsi(&nsi, &q, |_| {}).results;
        }
        n
    });
    g.run("npdq_full_dq_51_frames", || {
        let mut e = NpdqEngine::new();
        let mut n = 0u64;
        for (i, _) in spec.frame_times.iter().enumerate() {
            n += e
                .execute(&dta, &spec.open_snapshot(i), f64::INFINITY, |_| {})
                .results;
        }
        n
    });
    g.run("knn_k10", || {
        let mut stats = mobiquery::QueryStats::default();
        mobiquery::knn_at(&nsi, black_box([50.0, 50.0]), 5.0, 10, &mut stats)
    });
}

fn bench_extensions() {
    let g = Bench::group("extensions");
    let ds = small_dataset();
    let nsi = ds.build_nsi_tree();
    g.run("self_distance_join_d1", || {
        let mut n = 0u64;
        mobiquery::self_distance_join(&nsi, 1.0, stkit::Interval::new(0.0, 10.0), |_| n += 1);
        n
    });
    let mut tpr: rtree::RTree<tprtree::TprRecord, Pager> =
        rtree::RTree::new(Pager::new(), RTreeConfig::default());
    for u in ds.updates() {
        tpr.insert(
            tprtree::TprRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.v),
            u.seg.t.lo,
        );
    }
    let spec = QueryWorkload::new(QueryWorkloadConfig {
        count: 1,
        data_duration: 10.0,
        ..QueryWorkloadConfig::paper(0.9)
    })
    .generate_one(0);
    g.run("tpr_full_dq_51_frames", || {
        let mut e = tprtree::TprDynamicQuery::start(&tpr, spec.trajectory.clone());
        let mut n = 0;
        for w in spec.frame_times.windows(2) {
            n += e.drain_window(&tpr, w[0], w[1]).len();
        }
        n
    });
    let a = stkit::MotionSegment::from_endpoints(
        stkit::Interval::new(0.0, 10.0),
        [0.0, 0.0],
        [10.0, 10.0],
    );
    let s2 = stkit::MotionSegment::from_endpoints(
        stkit::Interval::new(0.0, 10.0),
        [10.0, 0.0],
        [0.0, 10.0],
    );
    g.run("quadratic_within_distance", || {
        stkit::within_distance(black_box(&a), black_box(&s2), 1.5)
    });
}

fn main() {
    bench_geometry();
    bench_rtree();
    bench_engines();
    bench_extensions();
}
