//! Convoy analysis — the extension layers working together.
//!
//! A day of traffic is simulated; then we
//!  1. find *encounters* (pairs of vehicles within 1 km of each other)
//!     with the distance join and their exact meeting intervals,
//!  2. compute the continuous COUNT profile of a monitored zone from one
//!     PDQ run (no per-frame queries),
//!  3. track live traffic with the TPR-tree (current motions only) and
//!     compare its answer to the historical index,
//!  4. persist the historical index to a file and reload it.
//!
//! Each step asserts what it prints: the profile against per-instant
//! naive counts, the TPR answer against the NSI one, and the reloaded
//! record count against the saved one.
//!
//! ```bash
//! cargo run --release --example convoy_analysis
//! ```

use dq_repro::mobiquery::{self_distance_join, CountProfile, NaiveEngine, PdqEngine, Trajectory};
use dq_repro::motion::{RandomWalk, RandomWalkConfig};
use dq_repro::rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::storage::{load_pager, save_pager, Pager};
use dq_repro::stkit::{Interval, Rect};
use dq_repro::tprtree::{TprDynamicQuery, TprRecord};

fn main() {
    // 300 vehicles over 12 hours.
    let walk = RandomWalk::new(RandomWalkConfig {
        objects: 300,
        duration: 12.0,
        ..RandomWalkConfig::default()
    });
    let traces = walk.generate();

    // Historical index (NSI) and live index (TPR) from the same updates.
    let mut nsi: RTree<NsiSegmentRecord<2>, Pager> =
        RTree::new(Pager::new(), RTreeConfig::default());
    let mut tpr: RTree<TprRecord, Pager> = RTree::new(Pager::new(), RTreeConfig::default());
    for tr in &traces {
        for u in &tr.updates {
            nsi.insert(
                NsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()),
                u.seg.t.lo,
            );
            tpr.insert(
                TprRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.v),
                u.seg.t.lo,
            );
        }
    }
    println!("indexed {} motion segments (NSI and TPR)\n", nsi.len());

    // --- 1. Encounters: pairs within 1 km, with meeting intervals. ---
    let mut encounters = 0u64;
    let mut longest: Option<(u32, u32, f64)> = None;
    let stats = self_distance_join(&nsi, 1.0, Interval::new(0.0, 12.0), |p| {
        encounters += 1;
        let d = p.meeting.measure();
        if longest.is_none_or(|(_, _, best)| d > best) {
            longest = Some((p.a.oid, p.b.oid, d));
        }
    });
    println!(
        "encounters within 1 km: {encounters} pairs ({} comparisons, {} node loads)",
        stats.distance_computations, stats.disk_accesses
    );
    if let Some((a, b, d)) = longest {
        println!("longest contact: vehicles {a} and {b}, together {d:.2} h\n");
    }

    // --- 2. Zone occupancy profile from one PDQ run. ---
    let zone = Trajectory::linear(
        Rect::from_corners([40.0, 40.0], [60.0, 60.0]),
        [0.0, 0.0],
        Interval::new(0.0, 12.0),
        2,
    );
    let mut pdq = PdqEngine::start(&nsi, zone.clone());
    let results = pdq.drain_window(&nsi, 0.0, 12.0);
    let profile = CountProfile::from_results(&results);
    println!("zone [40,60]² occupancy (from one PDQ pass, no per-frame queries):");
    for h in [1.0, 4.0, 8.0, 11.0] {
        let naive = NaiveEngine::new().query_nsi(&nsi, &zone.snapshot_at(h), |_| {});
        assert_eq!(
            profile.count_at(h) as u64,
            naive.results,
            "zone count at t={h}"
        );
        println!("  t={h:>4.1}h: {:>2} vehicles in zone", profile.count_at(h));
    }
    println!(
        "  peak {} · mean {:.1} over the day\n",
        profile.max_count(),
        profile.mean_over(Interval::new(0.0, 12.0))
    );

    // --- 3. Live tracking via TPR: same trajectory, same answers. ---
    let chase = Trajectory::linear(
        Rect::from_corners([20.0, 20.0], [30.0, 30.0]),
        [3.0, 1.0],
        Interval::new(2.0, 10.0),
        4,
    );
    let mut a = PdqEngine::start(&nsi, chase.clone());
    let mut b = TprDynamicQuery::start(&tpr, chase);
    let sa: std::collections::BTreeSet<u32> = a
        .drain_window(&nsi, 2.0, 10.0)
        .iter()
        .map(|r| r.record.oid)
        .collect();
    let sb: std::collections::BTreeSet<u32> = b
        .drain_window(&tpr, 2.0, 10.0)
        .iter()
        .map(|r| r.record.oid)
        .collect();
    assert_eq!(sa, sb, "TPR must deliver the vehicles NSI+PDQ does");
    println!(
        "pursuit query: NSI+PDQ and TPR agree on {} vehicles,",
        sa.len()
    );
    println!(
        "  NSI cost {} node loads, TPR cost {} node loads\n",
        a.stats().disk_accesses,
        b.stats().disk_accesses
    );

    // --- 4. Persist and reload the historical index. ---
    let path = std::env::temp_dir().join("convoy_index.dqpg");
    let meta = nsi.metadata();
    save_pager(
        nsi.store(),
        std::io::BufWriter::new(std::fs::File::create(&path).unwrap()),
    )
    .unwrap();
    let size = std::fs::metadata(&path).unwrap().len();
    let reopened: RTree<NsiSegmentRecord<2>, _> = RTree::reopen(
        load_pager(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap(),
        RTreeConfig::default(),
        meta.0,
        meta.1,
        meta.2,
    );
    assert_eq!(reopened.len(), nsi.len(), "the reloaded index lost records");
    println!(
        "persisted index: {} KiB on disk, reloaded with {} records (height {})",
        size / 1024,
        reopened.len(),
        reopened.height()
    );
    let _ = std::fs::remove_file(&path);
}
