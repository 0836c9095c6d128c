//! Experiment: update management under concurrent insertions (§4.1/§4.2).
//!
//! A PDQ runs while new motion segments stream into the index. The bench
//! verifies the correctness contract (every object that becomes visible
//! is delivered exactly once) and measures the overhead: duplicates
//! eliminated by the §4.1 dedup, extra disk accesses versus a static run,
//! and the NPDQ timestamp mechanism's cost on the DTA side.

use bench::{f2, FigureTable, Scale};
use mobiquery::{NpdqEngine, PdqEngine};
use rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree, RTreeConfig};
use storage::Pager;
use workload::QueryWorkload;

fn main() {
    let scale = Scale::from_env();
    let ds = bench::build_dataset(scale);
    let cfgd = scale.dataset_config();
    let specs = QueryWorkload::new(scale.query_config(0.9, 8.0)).generate();
    let n_specs = specs.len().min(20);
    let specs = &specs[..n_specs];

    // Split the updates: the first 60 % pre-build the index, the rest
    // stream in while the queries run.
    let all = ds.updates();
    let cut_t = cfgd.duration * 0.6;
    let (pre, live): (Vec<&motion::MotionUpdate<2>>, Vec<_>) = all.iter().partition(|u| u.seg.t.lo < cut_t);

    let mut table = FigureTable::new(
        "exp_updates",
        "Concurrent insertions during dynamic queries (overlap 90%)",
        &["engine", "mode", "disk/query", "dups skipped/dq", "delivered/dq"],
    );

    // --- PDQ: static full index (reference) ---
    let mut static_tree: RTree<NsiSegmentRecord<2>, _> =
        RTree::new(Pager::new(), RTreeConfig::default());
    for u in all {
        static_tree.insert(
            NsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()),
            u.seg.t.lo,
        );
    }
    let (mut disk, mut frames, mut delivered) = (0u64, 0u64, 0u64);
    for spec in specs {
        let mut e = PdqEngine::start(&static_tree, spec.trajectory.clone());
        for w in spec.frame_times.windows(2) {
            delivered += e.drain_window(&static_tree, w[0], w[1]).len() as u64;
            let s = e.take_stats();
            disk += s.disk_accesses;
            frames += 1;
        }
    }
    table.row(vec![
        "PDQ".into(),
        "static index".into(),
        f2(disk as f64 / frames as f64),
        "0.00".into(),
        f2(delivered as f64 / n_specs as f64),
    ]);

    // --- PDQ: live insertions during the query ---
    // Queries whose span lies beyond the pre-built portion see inserts.
    let (mut disk, mut frames, mut delivered, mut dups) = (0u64, 0u64, 0u64, 0u64);
    for spec in specs {
        let mut tree: RTree<NsiSegmentRecord<2>, _> =
            RTree::new(Pager::new(), RTreeConfig::default());
        for u in &pre {
            tree.insert(
                NsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()),
                u.seg.t.lo,
            );
        }
        let mut e = PdqEngine::start(&tree, spec.trajectory.clone());
        let mut live_iter = live.iter().peekable();
        for w in spec.frame_times.windows(2) {
            // Apply every update whose start time has passed.
            while let Some(u) = live_iter.peek() {
                if u.seg.t.lo > w[1] {
                    break;
                }
                let rec =
                    NsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position());
                let report = tree.insert(rec, u.seg.t.lo);
                e.notify(&report);
                live_iter.next();
            }
            delivered += e.drain_window(&tree, w[0], w[1]).len() as u64;
            let s = e.take_stats();
            disk += s.disk_accesses;
            dups += s.duplicates_skipped;
            frames += 1;
        }
    }
    table.row(vec![
        "PDQ".into(),
        "live insertions".into(),
        f2(disk as f64 / frames as f64),
        f2(dups as f64 / n_specs as f64),
        f2(delivered as f64 / n_specs as f64),
    ]);

    // --- NPDQ with live insertions (timestamp mechanism) ---
    let (mut disk, mut frames, mut delivered) = (0u64, 0u64, 0u64);
    for spec in specs {
        let mut tree: RTree<DtaSegmentRecord<2>, _> =
            RTree::new(Pager::new(), RTreeConfig::default());
        let mut clock = 0.0f64;
        for u in &pre {
            tree.insert(
                DtaSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()),
                u.seg.t.lo,
            );
            clock = clock.max(u.seg.t.lo);
        }
        let mut e = NpdqEngine::new();
        let mut live_iter = live.iter().peekable();
        for (i, _t) in spec.frame_times.iter().enumerate() {
            let q = spec.open_snapshot(i);
            while let Some(u) = live_iter.peek() {
                if u.seg.t.lo > q.time.lo {
                    break;
                }
                tree.insert(
                    DtaSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()),
                    u.seg.t.lo,
                );
                clock = clock.max(u.seg.t.lo);
                live_iter.next();
            }
            let s = e.execute(&tree, &q, clock, |_| {});
            if i > 0 {
                disk += s.disk_accesses;
                frames += 1;
            }
            delivered += s.results;
        }
    }
    table.row(vec![
        "NPDQ".into(),
        "live insertions".into(),
        f2(disk as f64 / frames as f64),
        "-".into(),
        f2(delivered as f64 / n_specs as f64),
    ]);

    table.print();
    table.write_json();
}
