//! End-to-end serving: mixed PDQ/NPDQ sessions running concurrently
//! over ONE shared tree (a one-region grid) backed by a sharded buffer
//! pool, with a writer inserting live updates between frames. The
//! concurrent run must be *exactly* deterministic: per-session result
//! sequences equal the single-threaded reference protocol on an
//! identically prepared server — and, frame by frame, the same objects
//! arrive under every grid.

use dq_repro::mobiquery::{
    PartitionedDqServer, RegionGrid, SessionKind, SessionOutput, SessionPlan, SessionSpec,
};
use dq_repro::rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::storage::{PageStore, Pager, ShardedBufferPool};
use dq_repro::workload::{Dataset, DatasetConfig, QueryWorkload, QueryWorkloadConfig};

const FRAMES: usize = 20;

/// Workload: 400 random-walk objects, 80 % pre-loaded, 20 % arriving
/// live in per-frame batches; 6 sessions alternating PDQ/NPDQ.
struct Fixture {
    preload: Vec<NsiSegmentRecord<2>>,
    inserts: Vec<Vec<(NsiSegmentRecord<2>, f64)>>,
    specs: Vec<SessionSpec<2>>,
}

fn fixture() -> Fixture {
    let ds = Dataset::generate(DatasetConfig {
        objects: 400,
        duration: 15.0,
        space_side: 100.0,
        seed: 0xD1CE,
    });
    let records = ds.nsi_records(); // time-ordered
    let split = records.len() * 8 / 10;
    let (preload, live) = records.split_at(split);
    let batch = live.len().div_ceil(FRAMES);
    let inserts = live
        .chunks(batch)
        .map(|c| c.iter().map(|r| (*r, r.seg.t.lo)).collect())
        .collect();
    let specs = QueryWorkload::new(QueryWorkloadConfig {
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
    Fixture {
        preload: preload.to_vec(),
        inserts,
        specs,
    }
}

/// The server over `grid`, every region's tree on its own `pool()`.
fn build<S: PageStore>(
    grid: RegionGrid,
    preload: &[NsiSegmentRecord<2>],
    mut pool: impl FnMut() -> S,
) -> PartitionedDqServer<2, S> {
    PartitionedDqServer::build(grid, preload, |_| RTree::new(pool(), RTreeConfig::default()))
}

#[test]
fn concurrent_serving_matches_serial_reference() {
    let fx = fixture();
    assert!(fx.specs.len() >= 4, "need at least 4 mixed sessions");

    // Concurrent server over a sharded buffer pool (16 frames, 4 shards):
    // a quarter of the packed tree, so serving — the build only writes —
    // has to fault pages back in.
    let server = build(RegionGrid::single(), &fx.preload, || {
        ShardedBufferPool::new(Pager::new(), 16, 4)
    });
    let parallel = server.serve(&fx.specs, &fx.inserts);

    // Serial reference over an identically prepared plain-pager tree.
    let reference = build(RegionGrid::single(), &fx.preload, Pager::new);
    let serial = reference.serve_serial(&fx.specs, &fx.inserts);

    let live_total: usize = fx.inserts.iter().map(Vec::len).sum();
    assert_eq!(parallel.inserts_applied, live_total);
    assert_eq!(serial.inserts_applied, live_total);
    assert_eq!(parallel.frames, serial.frames);

    for (i, (p, s)) in parallel.sessions.iter().zip(&serial.sessions).enumerate() {
        assert_eq!(
            p.results, s.results,
            "session {i} ({:?}) diverged from the serial reference",
            fx.specs[i].kind
        );
    }
    // The workload actually exercises the sessions and the pool.
    assert!(parallel.total_results() > 0, "no session returned anything");
    assert!(parallel.total_stats().disk_accesses > 0);
    let cs = server.with_region_tree(0, |t| t.store().cache_stats());
    assert!(cs.hits > 0, "buffer pool never hit");
    assert!(cs.misses > 0, "buffer pool never missed");
}

#[test]
fn serving_twice_is_reproducible() {
    let fx = fixture();
    let run = |threads: bool| {
        let server = build(RegionGrid::single(), &fx.preload, || {
            ShardedBufferPool::new(Pager::new(), 32, 2)
        });
        if threads {
            server.serve(&fx.specs, &fx.inserts)
        } else {
            server.serve_serial(&fx.specs, &fx.inserts)
        }
        .base
        .sessions
        .into_iter()
        .map(|s| s.results)
        .collect::<Vec<_>>()
    };
    assert_eq!(run(true), run(true), "two concurrent runs diverged");
    assert_eq!(run(true), run(false), "concurrent vs serial diverged");
}

/// The oracle across grids: mixed PDQ/NPDQ sessions, inserts every
/// frame, one session joining mid-run and one with a short schedule.
/// Under each of 1, 3 and 5 regions the concurrent run equals the serial
/// protocol bit for bit, and across grids every session, PDQ and NPDQ,
/// delivers the same stream in the same frames.
#[test]
fn every_grid_matches_serial_and_grids_agree_per_frame() {
    let fx = fixture();
    let plans: Vec<SessionPlan<2>> = fx
        .specs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, mut spec)| match i {
            2 | 3 => SessionPlan::new(spec).join_at(FRAMES / 3),
            4 | 5 => {
                spec.frame_times.truncate(FRAMES / 2);
                SessionPlan::new(spec)
            }
            _ => SessionPlan::new(spec),
        })
        .collect();
    let live_total: usize = fx.inserts.iter().map(Vec::len).sum();

    let mut across: Vec<Vec<SessionOutput>> = Vec::new();
    for cuts in [vec![], vec![33.0, 66.0], vec![20.0, 40.0, 60.0, 80.0]] {
        let grid = RegionGrid::from_cuts(0, cuts);
        let regions = grid.len();
        let parallel = build(grid.clone(), &fx.preload, || {
            ShardedBufferPool::new(Pager::new(), 64, 4)
        })
        .serve_plans(&plans, &fx.inserts);
        let serial = build(grid, &fx.preload, Pager::new).serve_serial_plans(&plans, &fx.inserts);

        assert!(parallel.writer_outcome.is_ok());
        assert_eq!(parallel.inserts_applied, serial.inserts_applied);
        // One region means no seam replication: physical == logical.
        assert!(parallel.inserts_applied >= live_total);
        assert_eq!(regions > 1, parallel.inserts_applied > live_total, "{regions} regions");
        for (i, (p, s)) in parallel.sessions.iter().zip(&serial.sessions).enumerate() {
            assert!(p.outcome.is_ok(), "{regions} regions, session {i}: {:?}", p.outcome);
            assert_eq!(p.results, s.results, "{regions} regions, session {i} vs serial");
            assert_eq!(p.stats, s.stats, "{regions} regions, session {i} vs serial");
        }
        assert!(parallel.sessions[2].frames.iter().all(|f| f.frame >= FRAMES / 3));
        assert!(parallel.sessions[4].frames.len() < parallel.sessions[0].frames.len());
        across.push(parallel.base.sessions);
    }

    let mono = &across[0];
    let per_frame =
        |s: &SessionOutput| s.frames.iter().map(|f| (f.frame, f.results)).collect::<Vec<_>>();
    for (g, sessions) in across.iter().enumerate().skip(1) {
        for (i, (s, m)) in sessions.iter().zip(mono).enumerate() {
            let what = format!("grid {g}, session {i} ({:?})", plans[i].spec.kind);
            assert_eq!(s.results, m.results, "{what}");
            assert_eq!(per_frame(s), per_frame(m), "{what}: frames");
        }
    }
}
