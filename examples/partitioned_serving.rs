//! Region-partitioned serving — scaling the writer, keeping the answer.
//!
//! A fleet of random-walk objects is split 80/20 into a pre-loaded
//! history and a live update stream, then served twice by the same
//! `PartitionedDqServer`:
//!  1. over a one-region grid (one writer, one tree), and
//!  2. over a 4-region grid — one tree, one writer, and one buffer
//!     pool per region, with each session's moving window split
//!     across the regions it sweeps and each match emitted by the one
//!     region that owns it.
//!
//! Every session's answers must agree exactly, and the partitioned
//! report breaks the work down per region. A final skewed run shows the
//! hotspot detector firing and the Kiwano-style recut moving the seams
//! toward the load.
//!
//! ```bash
//! cargo run --release --example partitioned_serving
//! ```

use dq_repro::mobiquery::{
    PartitionedDqServer, RegionGrid, SessionKind, SessionSpec, Trajectory,
};
use dq_repro::rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::stkit::{Interval, Rect};
use dq_repro::storage::{Pager, ShardedBufferPool};
use dq_repro::workload::{Dataset, DatasetConfig};

const FRAMES: usize = 20;
const SPACE: f64 = 100.0;

fn main() {
    let ds = Dataset::generate(DatasetConfig {
        objects: 500,
        duration: 15.0,
        space_side: SPACE,
        seed: 0xBEEF,
    });
    let records = ds.nsi_records();
    let split = records.len() * 8 / 10;
    let (preload, live) = records.split_at(split);
    let inserts: Vec<Vec<(NsiSegmentRecord<2>, f64)>> = live
        .chunks(live.len().div_ceil(FRAMES).max(1))
        .map(|c| c.iter().map(|r| (*r, r.seg.t.lo)).collect())
        .collect();

    // Four sessions sweeping different strips of the space.
    let specs: Vec<SessionSpec<2>> = (0..4)
        .map(|i| {
            let y = 10.0 + 20.0 * i as f64;
            SessionSpec {
                kind: if i % 2 == 0 {
                    SessionKind::Pdq
                } else {
                    SessionKind::Npdq
                },
                trajectory: Trajectory::linear(
                    Rect::from_corners([0.0, y], [8.0, y + 8.0]),
                    [6.0, 0.0],
                    Interval::new(0.0, 15.0),
                    2,
                ),
                frame_times: (0..=FRAMES).map(|k| 15.0 * k as f64 / FRAMES as f64).collect(),
            }
        })
        .collect();

    // 1. One region: a single tree, a single writer.
    let mono = PartitionedDqServer::build(RegionGrid::single(), preload, |_| {
        RTree::new(
            ShardedBufferPool::new(Pager::new(), 256, 4),
            RTreeConfig::default(),
        )
    })
    .serve(&specs, &inserts);
    println!("single tree : {} physical inserts, {} results", mono.inserts_applied, mono.total_results());

    // 2. Four regions, four writers, one merged answer per session.
    let grid = RegionGrid::uniform(0, Interval::new(0.0, SPACE), 4);
    let server = PartitionedDqServer::build(grid, preload, |_| {
        RTree::new(
            ShardedBufferPool::new(Pager::new(), 64, 4),
            RTreeConfig::default(),
        )
    });
    let part = server.serve(&specs, &inserts);
    println!(
        "partitioned : {} physical inserts ({} seam replicas), {} results",
        part.base.inserts_applied,
        part.base.inserts_applied - mono.inserts_applied,
        part.total_results()
    );
    for (r, rr) in part.regions.iter().enumerate() {
        println!(
            "  region {r} x∈[{:>6.1}, {:>6.1}] : {:>4} inserts, writer {:>5} reads {:>5} writes, sessions {:>5} reads, load {:>6}",
            rr.span.lo, rr.span.hi, rr.inserts_applied, rr.writer_reads, rr.writer_writes, rr.session_reads, rr.load()
        );
    }

    // Every session's stream is identical, order included: one lane emits
    // each match, PDQ frames order by (entry time, oid, seq) and
    // NPDQ frames by (oid, seq), none of which depends on the grid.
    for (i, (p, m)) in part.sessions.iter().zip(&mono.sessions).enumerate() {
        assert_eq!(p.results, m.results, "session {i} diverged");
        let mut ids = p.results.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), p.results.len(), "session {i} repeated an (oid, seq)");
    }
    println!("every session: partitioned answers match the single tree exactly, none repeated");

    // 3. Skewed load on a fresh server (query-only, so reads dominate):
    // every session hammers the left edge; the hotspot detector flags
    // region 0 and the recut narrows its slab.
    let mut server = PartitionedDqServer::build(
        RegionGrid::uniform(0, Interval::new(0.0, SPACE), 4),
        &records,
        |_| {
            RTree::new(
                ShardedBufferPool::new(Pager::new(), 64, 4),
                RTreeConfig::default(),
            )
        },
    );
    let hot_specs: Vec<SessionSpec<2>> = (0..4)
        .map(|i| SessionSpec {
            kind: SessionKind::Pdq,
            trajectory: Trajectory::linear(
                Rect::from_corners([0.0, 20.0 * i as f64], [6.0, 20.0 * i as f64 + 6.0]),
                [0.5, 0.0],
                Interval::new(0.0, 15.0),
                2,
            ),
            frame_times: (0..=FRAMES).map(|k| 15.0 * k as f64 / FRAMES as f64).collect(),
        })
        .collect();
    server.serve(&hot_specs, &[]);
    let loads = server.region_loads();
    println!("skewed loads: {loads:?}");
    if let Some(hot) = server.hotspot(1.5) {
        let old_span = server.grid().span_of(hot);
        server
            .rebalance(4, |_| {
                RTree::new(
                    ShardedBufferPool::new(Pager::new(), 64, 4),
                    RTreeConfig::default(),
                )
            })
            .expect("clean pages");
        let new_span = server.grid().span_of(hot);
        println!(
            "hotspot region {hot}: slab [{:.1}, {:.1}] recut to [{:.1}, {:.1}] (cuts now {:?})",
            old_span.lo, old_span.hi, new_span.lo, new_span.hi, server.grid().cuts()
        );
    }
}
