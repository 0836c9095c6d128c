//! Fixtures the root suites share: objects on a line, windows sliding
//! along it, insert batches dropped onto it, random and integer motions,
//! the zigzag window, a seeded mixed workload, and the server and leaf
//! lookups over them; the record-list [`truth`]; and the two oracles
//! held to it, [`served`] for the serving core and [`engines`] for the
//! library engines. Each suite uses a subset.
#![allow(dead_code)]

pub mod engines;
pub mod served;
pub mod truth;

use dq_repro::mobiquery::{KeySnapshot, PartitionedDqServer, RegionGrid, SessionKind, SessionSpec, Trajectory};
use dq_repro::rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::stkit::{Interval, Rect};
use dq_repro::storage::{PageId, PageStore, Pager};
use dq_repro::workload::{Dataset, DatasetConfig, QueryWorkload, QueryWorkloadConfig};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

pub type R = NsiSegmentRecord<2>;
/// One frame's inserts.
pub type Batch = Vec<(R, f64)>;

/// Objects on a line: oid `i` sits at `x = i + 0.5`, alive the whole run.
pub fn line_records(n: u32) -> Vec<R> {
    (0..n)
        .map(|i| {
            let x = f64::from(i) + 0.5;
            R::new(i, 0, Interval::new(0.0, 100.0), [x, 0.5], [x, 0.5])
        })
        .collect()
}

/// One stationary object at every integer x in `0..=n`, oid `x` — the
/// seam geometry, whose objects sit on integer grid cuts.
pub fn integer_line(n: u32) -> Vec<R> {
    (0..=n)
        .map(|i| {
            let x = f64::from(i);
            R::new(i, 0, Interval::new(0.0, 200.0), [x, 0.5], [x, 0.5])
        })
        .collect()
}

/// The integer geometry's x range: an object at every integer in it.
pub const SEAM_X: u32 = 40;

/// A motion drawn for a batch at time `t` of a run over `[0, span]`.
/// Random: born near `t`, up to 10 units of travel over a 0.5–6
/// lifetime, somewhere in [0, 100]². Integer (`seams`): stationary at an
/// integer x in `0..=SEAM_X`, living between integer times, so objects,
/// cuts, window edges and frame times meet exactly.
pub fn motion(rng: &mut ChaCha8Rng, oid: u32, t: f64, span: f64, seams: bool) -> R {
    if !seams {
        let born = t + rng.gen_range(-2.0..span.max(4.0));
        let a = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
        let b = [a[0] + rng.gen_range(-10.0..10.0), a[1] + rng.gen_range(-10.0..10.0)];
        return R::new(oid, 0, Interval::new(born, born + rng.gen_range(0.5..6.0)), a, b);
    }
    let x = f64::from(rng.gen_range(0..=SEAM_X));
    let born = t - f64::from(rng.gen_range(0..3u32));
    let life = Interval::new(born, born + f64::from(rng.gen_range(1..8u32)));
    R::new(oid, 0, life, [x, 0.5], [x, 0.5])
}

/// A 16-wide window crossing [0, 100]² on a four-piece zigzag over
/// `[0, span]`.
pub fn zigzag(span: f64) -> Trajectory<2> {
    let corners = [[5.0, 20.0], [35.0, 70.0], [60.0, 25.0], [80.0, 75.0], [95.0, 40.0]];
    let keys = corners
        .iter()
        .enumerate()
        .map(|(i, c)| KeySnapshot {
            t: span * i as f64 / 4.0,
            window: Rect::from_corners([c[0] - 8.0, c[1] - 8.0], [c[0] + 8.0, c[1] + 8.0]),
        })
        .collect();
    Trajectory::new(keys)
}

/// A unit window sliding right from `x0` at unit speed for `span`
/// seconds, in `frames` equal frames.
pub fn slide_spec(kind: SessionKind, x0: f64, frames: usize, span: f64) -> SessionSpec<2> {
    SessionSpec {
        kind,
        trajectory: Trajectory::linear(
            Rect::from_corners([x0, 0.0], [x0 + 1.0, 1.0]),
            [1.0, 0.0],
            Interval::new(0.0, span),
            2,
        ),
        frame_times: (0..=frames)
            .map(|k| span * k as f64 / frames as f64)
            .collect(),
    }
}

/// Per-frame insert batches dropping fresh objects along the line.
pub fn line_inserts(frames: usize, per_frame: u32) -> Vec<Vec<(R, f64)>> {
    (0..frames)
        .map(|k| {
            let t = k as f64 * 0.3;
            (0..per_frame)
                .map(|j| {
                    let oid = 1000 + (k as u32) * per_frame + j;
                    let x = f64::from(oid % 37) + 0.25;
                    (R::new(oid, 0, Interval::new(t, 100.0), [x, 0.5], [x, 0.5]), t)
                })
                .collect()
        })
        .collect()
}

/// The mixed PDQ/NPDQ dataset workload: 80 % of a seeded data set over
/// `[0, 100]²` preloaded, the rest arriving over 20 frames, and six
/// sessions alternating PDQ and NPDQ.
pub fn mixed_workload() -> (Vec<R>, Vec<Batch>, Vec<SessionSpec<2>>) {
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

/// The server under `grid` with `recs` packed, every region on a pager of
/// the default page size.
pub fn partitioned(grid: RegionGrid, recs: &[R]) -> PartitionedDqServer<2, Pager> {
    PartitionedDqServer::build(grid, recs, |_| {
        RTree::new(Pager::new(), RTreeConfig::default())
    })
}

/// The leaf page holding `oid` — found by a plain DFS over clean pages,
/// so call this *before* corrupting anything.
pub fn leaf_page_of<S: PageStore>(tree: &RTree<R, S>, oid: u32) -> PageId {
    let mut stack = vec![(tree.root_page(), tree.height() - 1)];
    while let Some((page, level)) = stack.pop() {
        let node = tree.try_read_node(page, level).expect("a clean page");
        if node.is_leaf() {
            if node.leaf_records().any(|r| r.oid == oid) {
                return page;
            }
        } else {
            for (_, child) in node.internal_entries() {
                stack.push((child, level - 1));
            }
        }
    }
    panic!("oid {oid} not found in any leaf");
}
