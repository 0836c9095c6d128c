//! Per-level counter reconciliation: every simulated disk access the tree
//! performs must show up once in [`rtree::LevelCounters`], agree with the
//! buffer pool's hit+miss totals, and appear as a `NodeVisit` event in
//! the thread's trace ring.

use rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use stkit::{Interval, Rect, StBox};
use storage::{Pager, ShardedBufferPool};

type R = NsiSegmentRecord<2>;

fn record(i: u32) -> R {
    let x = (i % 40) as f64;
    let y = (i / 40) as f64;
    R::new(i, 0, Interval::new(0.0, 1.0), [x, y], [x + 0.4, y + 0.4])
}

#[test]
fn level_reads_reconcile_with_pool_hits_plus_misses() {
    let pool = ShardedBufferPool::new(Pager::new(), 32, 1);
    let mut tree = RTree::new(pool, RTreeConfig::default());
    for i in 0..2000u32 {
        tree.insert(record(i), i as f64);
    }
    assert!(tree.height() >= 2, "need a multi-level tree");

    let levels_before = tree.level_counters().snapshot();
    let cache_before = tree.store().cache_stats();

    let q = StBox::new(
        Rect::from_corners([3.0, 3.0], [21.0, 21.0]),
        Rect::new([Interval::new(0.0, 1.0)]),
    );
    let (hits, stats) = tree.range_collect(&q, |_| true);
    assert!(!hits.is_empty());

    let delta = tree.level_counters().snapshot() - levels_before;
    let cache = tree.store().cache_stats();
    let pool_accesses = (cache.hits - cache_before.hits) + (cache.misses - cache_before.misses);

    // Every node the search visited is one pool access, and vice versa:
    // nothing else touched the store between the snapshots.
    assert_eq!(delta.total_reads(), stats.disk_accesses);
    assert_eq!(delta.total_reads(), pool_accesses);
    assert_eq!(delta.total_writes(), 0);

    // The search read the root exactly once, and the root is the only
    // node at the top level.
    assert_eq!(delta.reads[(tree.height() - 1) as usize], 1);
    assert!(delta.leaf_reads() > 0);
}

#[test]
fn node_visits_trace_into_the_thread_ring() {
    // Dedicated thread: the trace ring is thread-local, so this test
    // sees only its own events.
    std::thread::spawn(|| {
        let mut tree = RTree::new(Pager::new(), RTreeConfig::default());
        for i in 0..600u32 {
            tree.insert(record(i), i as f64);
        }
        obs::take_thread_trace(); // drop build-time events

        let q = StBox::new(
            Rect::from_corners([0.0, 0.0], [10.0, 10.0]),
            Rect::new([Interval::new(0.0, 1.0)]),
        );
        let before = tree.level_counters().snapshot();
        tree.range_collect(&q, |_| true);
        let delta = tree.level_counters().snapshot() - before;

        let events = obs::take_thread_trace();
        let visits = events
            .iter()
            .filter(|e| matches!(e, obs::TraceEvent::NodeVisit { .. }))
            .count() as u64;
        // The ring holds 1024 events; this search visits far fewer, so
        // the trace must be a complete record of the counter delta.
        assert!(visits <= 1024);
        assert_eq!(visits, delta.total_reads());
        assert!(events.iter().any(|e| matches!(
            e,
            obs::TraceEvent::NodeVisit { level, .. } if *level > 0
        )));
    })
    .join()
    .unwrap();
}
