//! Region-partitioned serving: seam exactly-once semantics, determinism
//! against the serial protocol, and per-region reconciliation.
//!
//! The adversarial workload here puts objects and window edges *exactly
//! on* region boundaries: cuts sit at integer coordinates, objects sit
//! at every integer coordinate (so some sit on the cuts), and the query
//! window's edges cross the cuts exactly at frame times. Closed-slab
//! routing replicates each seam object into both touching regions, so
//! every lane sees it — the merge must still deliver each entry event
//! exactly once, in the same frame the unpartitioned server would.

use dq_repro::mobiquery::{
    PartitionedDqServer, PdqEngine, RegionGrid, SessionKind, SessionOutput, SessionSpec,
    Trajectory,
};
use dq_repro::rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::stkit::{Interval, Rect};
use dq_repro::storage::{PageStore, Pager, ShardedBufferPool};
use dq_repro::workload::{Dataset, DatasetConfig, QueryWorkload, QueryWorkloadConfig};

type R = NsiSegmentRecord<2>;
/// One frame's inserts.
type Batch = Vec<(R, f64)>;

/// One stationary object at every integer x in `0..=n` — including the
/// grid cuts themselves.
fn integer_line(n: u32) -> Vec<R> {
    (0..=n)
        .map(|i| {
            let x = f64::from(i);
            R::new(i, 0, Interval::new(0.0, 200.0), [x, 0.5], [x, 0.5])
        })
        .collect()
}

/// A unit window sliding right at unit speed: its edges sit exactly on
/// integer coordinates (and therefore exactly on the cuts) at every
/// integer frame time.
fn slide_spec(kind: SessionKind, frames: usize, span: f64) -> SessionSpec<2> {
    SessionSpec {
        kind,
        trajectory: Trajectory::linear(
            Rect::from_corners([0.0, 0.0], [1.0, 1.0]),
            [1.0, 0.0],
            Interval::new(0.0, span),
            2,
        ),
        frame_times: (0..=frames)
            .map(|k| span * k as f64 / frames as f64)
            .collect(),
    }
}

fn build_partitioned(grid: RegionGrid, preload: &[R]) -> PartitionedDqServer<2, Pager> {
    PartitionedDqServer::build(grid, preload, |_| {
        RTree::new(Pager::new(), RTreeConfig::default())
    })
}

/// Per-frame delivered (oid, seq) sets, in frame order. In-frame order
/// is a tie-break artifact (queue pop order vs merge order), so frame
/// *sets* are the layout-independent contract.
fn frame_sets(s: &SessionOutput) -> Vec<Vec<(u32, u32)>> {
    let mut off = 0;
    s.frames
        .iter()
        .map(|f| {
            let mut set = s.results[off..off + f.results].to_vec();
            off += f.results;
            set.sort_unstable();
            set
        })
        .collect()
}

/// Seam oracle: for 1-, 2- and 4-region grids with objects sitting
/// exactly on every cut, each entry event is delivered exactly once and
/// in the same frame as a bare PDQ engine over one unpartitioned tree
/// delivers it.
#[test]
fn pdq_entry_events_are_exactly_once_across_seams() {
    let recs = integer_line(40);
    let spec = slide_spec(SessionKind::Pdq, 40, 40.0);
    let mut tree = RTree::new(Pager::new(), RTreeConfig::default());
    for r in &recs {
        tree.insert(*r, r.seg.t.lo);
    }
    let mut direct = PdqEngine::start(&tree, spec.trajectory.clone());
    let expected: Vec<Vec<(u32, u32)>> = spec
        .frame_times
        .windows(2)
        .map(|w| {
            let mut set: Vec<_> = direct
                .drain_window(&tree, w[0], w[1])
                .iter()
                .map(|r| (r.record.oid, r.record.seq))
                .collect();
            set.sort_unstable();
            set
        })
        .collect();
    assert!(
        expected.iter().map(Vec::len).sum::<usize>() > 30,
        "sweep must actually deliver entries"
    );

    for cuts in [vec![], vec![20.0], vec![10.0, 20.0, 30.0]] {
        let grid = if cuts.is_empty() {
            RegionGrid::single()
        } else {
            RegionGrid::from_cuts(0, cuts.clone())
        };
        let regions = grid.len();
        let server = build_partitioned(grid, &recs);
        // Objects on a cut are stored twice (closed slabs) …
        if regions > 1 {
            let total: u64 = server.region_record_counts().iter().sum();
            assert_eq!(
                total,
                recs.len() as u64 + cuts.len() as u64,
                "{regions} regions: each cut object replicated once per side"
            );
        }
        let report = server.serve(std::slice::from_ref(&spec), &[]);
        // … yet delivered once: no duplicate (oid, seq) ever.
        let mut seen = std::collections::HashSet::new();
        for id in &report.sessions[0].results {
            assert!(seen.insert(*id), "{regions} regions: duplicate entry {id:?}");
        }
        assert_eq!(
            frame_sets(&report.sessions[0]),
            expected,
            "{regions} regions: frame assignment diverged from unpartitioned"
        );
    }
}

/// NPDQ across seams: frame `k` is exactly the objects in the window at
/// `t_k` that were not in it at `t_{k-1}` — seam replicas merged, and
/// the first frame the full window.
#[test]
fn npdq_seam_frames_are_sound_and_entry_complete() {
    let recs = integer_line(40);
    let frames = 20;
    let spec = slide_spec(SessionKind::Npdq, frames, 20.0);
    let server = build_partitioned(RegionGrid::from_cuts(0, vec![5.0, 10.0, 15.0]), &recs);
    let report = server.serve(std::slice::from_ref(&spec), &[]);
    // NPDQ executes at every frame time, endpoints included.
    let per_frame = frame_sets(&report.sessions[0]);
    assert_eq!(per_frame.len(), frames + 1);

    // Geometric truth at time t: the window is exactly [t, t+1] × [0,1].
    let matching = |t: f64| -> Vec<(u32, u32)> {
        recs.iter()
            .filter(|r| {
                let x = f64::from(r.oid);
                t <= x && x <= t + 1.0
            })
            .map(|r| (r.oid, r.seq))
            .collect()
    };
    for (k, got) in per_frame.iter().enumerate() {
        let mut expect = matching(spec.frame_times[k]);
        if k > 0 {
            let prev = matching(spec.frame_times[k - 1]);
            expect.retain(|id| !prev.contains(id));
        }
        assert_eq!(*got, expect, "frame {k}");
    }
}

/// The mixed PDQ/NPDQ dataset workload from the service suite: 80 % of a
/// seeded data set over `[0, 100]²` preloaded, the rest arriving over 20
/// frames, and six sessions alternating PDQ and NPDQ.
fn mixed_workload() -> (Vec<R>, Vec<Batch>, Vec<SessionSpec<2>>) {
    const FRAMES: usize = 20;
    let ds = Dataset::generate(DatasetConfig {
        objects: 400,
        duration: 15.0,
        space_side: 100.0,
        seed: 0xD1CE,
    });
    let records = ds.nsi_records();
    let split = records.len() * 8 / 10;
    let (preload, live) = records.split_at(split);
    let batch = live.len().div_ceil(FRAMES);
    let inserts: Vec<Batch> = live
        .chunks(batch)
        .map(|c| c.iter().map(|r| (*r, r.seg.t.lo)).collect())
        .collect();
    let specs: Vec<SessionSpec<2>> = QueryWorkload::new(QueryWorkloadConfig {
        count: 6,
        data_duration: 15.0,
        subsequent_frames: FRAMES,
        ..QueryWorkloadConfig::paper(0.8)
    })
    .generate()
    .into_iter()
    .enumerate()
    .map(|(i, q)| SessionSpec {
        kind: if i % 2 == 0 {
            SessionKind::Pdq
        } else {
            SessionKind::Npdq
        },
        trajectory: q.trajectory,
        frame_times: q.frame_times,
    })
    .collect();
    (preload.to_vec(), inserts, specs)
}

/// The mixed workload served partitioned over 2 and 4 regions: the
/// concurrent run must be bit-identical to the partitioned serial
/// protocol, per session.
#[test]
fn partitioned_serve_matches_partitioned_serial_on_mixed_workload() {
    let (preload, inserts, specs) = mixed_workload();
    let live_total: usize = inserts.iter().map(Vec::len).sum();
    for cuts in [vec![50.0], vec![25.0, 50.0, 75.0]] {
        let grid = RegionGrid::from_cuts(0, cuts);
        let regions = grid.len();
        let parallel = PartitionedDqServer::build(grid.clone(), &preload, |_| {
            RTree::new(ShardedBufferPool::new(Pager::new(), 64, 4), RTreeConfig::default())
        })
        .serve(&specs, &inserts);
        let serial = build_partitioned(grid, &preload).serve_serial(&specs, &inserts);

        assert!(parallel.base.writer_outcome.is_ok());
        assert_eq!(parallel.base.frames, serial.base.frames);
        // Physical inserts include seam replicas, identically on both
        // sides, and never fewer than the logical batch count.
        assert_eq!(parallel.base.inserts_applied, serial.base.inserts_applied);
        assert!(parallel.base.inserts_applied >= live_total);
        for (i, (p, s)) in parallel.sessions.iter().zip(&serial.sessions).enumerate() {
            assert!(p.outcome.is_ok(), "session {i}: {:?}", p.outcome);
            assert_eq!(
                p.results, s.results,
                "{regions} regions, session {i} ({:?}): concurrent diverged from serial",
                specs[i].kind
            );
        }
        assert!(parallel.total_results() > 0);
    }
}

/// Load balance: the mixed workload over a uniform 4-region grid puts no
/// more than twice the mean load (writer reads and writes plus session
/// reads) on any region.
#[test]
fn uniform_workload_loads_no_region_past_twice_the_mean() {
    let (preload, inserts, specs) = mixed_workload();
    let server = build_partitioned(RegionGrid::uniform(0, Interval::new(0.0, 100.0), 4), &preload);
    server.serve(&specs, &inserts);
    let loads = server.region_loads();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    let max = *loads.iter().max().expect("four regions") as f64;
    assert!(max <= 2.0 * mean, "loads {loads:?}: hottest {:.2}x the mean", max / mean);
}

/// Per-region reconciliation: each region's tree-level read counters
/// must equal that region's attributed session reads plus its writer
/// reads, every one of those reads must be a pool hit or miss, and every
/// miss exactly one device read — the PR 3 identities, now holding
/// region by region.
#[test]
fn per_region_reconciliation_identities_hold() {
    let recs = integer_line(60);
    let specs = vec![
        slide_spec(SessionKind::Pdq, 20, 40.0),
        slide_spec(SessionKind::Npdq, 20, 40.0),
    ];
    let inserts: Vec<Vec<(R, f64)>> = (0..20)
        .map(|k| {
            let t = k as f64;
            vec![(
                R::new(
                    1000 + k as u32,
                    0,
                    Interval::new(t, 200.0),
                    [t * 2.0 + 0.5, 0.5],
                    [t * 2.0 + 0.5, 0.5],
                ),
                t,
            )]
        })
        .collect();

    let grid = RegionGrid::from_cuts(0, vec![20.0, 40.0]);
    let server = PartitionedDqServer::build(grid, &recs, |_| {
        RTree::new(
            ShardedBufferPool::new(Pager::with_page_size(256), 16, 2),
            RTreeConfig::default(),
        )
    });
    let counters = |r| {
        server.with_region_tree(r, |t| {
            (t.level_counters().snapshot(), t.store().cache_stats(), t.store().io())
        })
    };
    let before: Vec<_> = (0..3)
        .map(|r| {
            server.with_region_tree(r, |t| t.store().clear()); // serve from a cold pool
            counters(r)
        })
        .collect();
    let report = server.serve(&specs, &inserts);
    assert!(report.base.writer_outcome.is_ok());

    let mut summed_reads = 0;
    for (r, (levels0, cache0, io0)) in before.into_iter().enumerate() {
        let (levels, cache, io) = counters(r);
        let reads = (levels - levels0).total_reads();
        assert_eq!(
            reads,
            report.regions[r].session_reads + report.regions[r].writer_reads,
            "region {r}: tree reads vs attributed reads"
        );
        let misses = cache.misses - cache0.misses;
        assert_eq!(
            (cache.hits - cache0.hits) + misses,
            reads,
            "region {r}: every read is a pool hit or miss"
        );
        assert!(misses > 0, "region {r}: the pool never missed");
        assert_eq!(misses, (io - io0).reads, "region {r}: every miss is one device read");
        summed_reads += reads;
    }
    // And the summed identity matches the aggregate report.
    assert_eq!(
        summed_reads,
        report.base.total_stats().disk_accesses + report.base.writer_reads
    );
}
