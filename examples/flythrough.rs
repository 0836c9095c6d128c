//! Fly-through visualization session — the paper's motivating scenario.
//!
//! A user navigates a virtual world at 20 frames/second. Every frame the
//! renderer needs all objects in the view frustum (modelled as a moving
//! 2-d window). The example runs the same fly-through twice — naive
//! per-frame snapshot queries vs one predictive dynamic query — and shows
//! the per-frame disk I/O and the client cache evolving (objects evicted
//! exactly at their disappearance time). It asserts what it prints: at
//! every frame the cache's visible set is the naive query's answer, and
//! PDQ reads fewer pages than the naive pass.
//!
//! ```bash
//! cargo run --release --example flythrough
//! ```

use dq_repro::mobiquery::{ClientCache, NaiveEngine, PdqEngine, Trajectory};
use dq_repro::motion::{RandomWalk, RandomWalkConfig};
use dq_repro::rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::stkit::Rect;
use dq_repro::storage::{PageStore, Pager};
use std::collections::BTreeSet;

const FPS: f64 = 20.0;

fn build_world() -> RTree<NsiSegmentRecord<2>, Pager> {
    let walk = RandomWalk::new(RandomWalkConfig {
        objects: 2000,
        duration: 30.0,
        ..RandomWalkConfig::default()
    });
    let mut tree = RTree::new(Pager::new(), RTreeConfig::default());
    for trace in walk.generate() {
        for u in &trace.updates {
            tree.insert(
                NsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()),
                u.seg.t.lo,
            );
        }
    }
    tree
}

/// The tour: an S-shaped path over the terrain, 12×12 view window.
fn tour() -> Trajectory<2> {
    use dq_repro::mobiquery::KeySnapshot;
    let win = |x: f64, y: f64| Rect::from_corners([x, y], [x + 12.0, y + 12.0]);
    Trajectory::new(vec![
        KeySnapshot { t: 5.0, window: win(5.0, 5.0) },
        KeySnapshot { t: 10.0, window: win(60.0, 10.0) },
        KeySnapshot { t: 15.0, window: win(70.0, 60.0) },
        KeySnapshot { t: 20.0, window: win(15.0, 70.0) },
    ])
}

fn main() {
    let tree = build_world();
    println!(
        "world: {} motion segments, R-tree height {}\n",
        tree.len(),
        tree.height()
    );
    let trajectory = tour();
    let span = trajectory.span();
    let frames: Vec<f64> = {
        let n = ((span.length()) * FPS) as usize;
        (0..=n).map(|i| span.lo + i as f64 / FPS).collect()
    };

    // --- Pass 1: naive — one snapshot query per frame. ---
    let naive = NaiveEngine::new();
    let before = tree.store().io();
    let mut naive_results = 0u64;
    let mut naive_sets = Vec::with_capacity(frames.len());
    for &t in &frames {
        let q = trajectory.snapshot_at(t);
        let mut seen = BTreeSet::new();
        let stats = naive.query_nsi(&tree, &q, |r| {
            seen.insert(r.oid);
        });
        naive_results += stats.results;
        naive_sets.push(seen);
    }
    let naive_io = (tree.store().io() - before).reads;

    // --- Pass 2: one PDQ + a client cache keyed on disappearance. ---
    let before = tree.store().io();
    let mut pdq = PdqEngine::start(&tree, trajectory.clone());
    let mut cache: ClientCache<NsiSegmentRecord<2>> = ClientCache::new();
    let mut delivered = 0u64;
    let mut peak_cache = 0;
    let mut prev = frames[0];
    for (i, &t) in frames.iter().enumerate() {
        for r in pdq.drain_window(&tree, prev, t) {
            cache.insert(r.record.oid, r.record, r.visibility);
            delivered += 1;
        }
        cache.advance(t);
        let visible: BTreeSet<u32> = cache.visible_now().map(|(oid, _)| oid).collect();
        assert_eq!(
            visible, naive_sets[i],
            "frame t={t}: cache disagrees with the naive query"
        );
        peak_cache = peak_cache.max(cache.len());
        if i % (FPS as usize * 3) == 0 {
            println!(
                "t={t:>5.2}  visible objects: {:>3}  (cache resident {:>3}, evicted so far {:>4})",
                cache.visible_now().count(),
                cache.len(),
                cache.evicted_total()
            );
        }
        prev = t;
    }
    let pdq_io = (tree.store().io() - before).reads;
    assert!(
        pdq_io < naive_io,
        "PDQ read {pdq_io} pages, naive {naive_io}"
    );

    println!("\n{} frames rendered at {} fps", frames.len(), FPS);
    println!(
        "naive : {naive_io:>6} disk accesses, {naive_results:>6} objects shipped (with re-delivery every frame)"
    );
    println!(
        "PDQ   : {pdq_io:>6} disk accesses, {delivered:>6} objects shipped (each exactly once), peak client cache {peak_cache}"
    );
    println!(
        "speedup: {:.1}× fewer disk accesses",
        naive_io as f64 / pdq_io.max(1) as f64
    );
}
