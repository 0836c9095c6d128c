//! Situational awareness: a vehicle monitors its vicinity while other
//! vehicles stream position updates — the paper's military scenario.
//!
//! The observer's own course changes unpredictably, so the session uses
//! **NPDQ** (non-predictive dynamic queries) over the double-temporal-axes
//! index, with live insertions handled by the §4.2 node-stamp mechanism.
//! On top of the range monitor, a best-first **kNN** reports the three
//! nearest contacts every two minutes (the paper's future-work
//! extension), each report asserted against a brute-force ranking.
//!
//! ```bash
//! cargo run --release --example vicinity_monitor
//! ```

use dq_repro::mobiquery::{knn_at, NpdqEngine, QueryStats, SnapshotQuery};
use dq_repro::motion::update::interleave_by_time;
use dq_repro::motion::{MotionUpdate, RandomWalk, RandomWalkConfig};
use dq_repro::rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::stkit::Rect;
use dq_repro::storage::Pager;

/// The `k` records valid at `t` nearest to `p`, as `(dist², oid, seq)`,
/// ties broken by `(oid, seq)` — what `knn_at` must return.
fn brute_knn(recs: &[NsiSegmentRecord<2>], p: [f64; 2], t: f64, k: usize) -> Vec<(f64, u32, u32)> {
    let mut ranked: Vec<(f64, u32, u32)> = recs
        .iter()
        .filter(|r| r.seg.t.contains(t))
        .map(|r| (r.seg.dist_sq_at(t, &p), r.oid, r.seq))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
    ranked.truncate(k);
    ranked
}

fn main() {
    // Traffic: 800 vehicles roaming a 100×100 km theatre for 20 minutes,
    // sending motion updates roughly once a minute.
    let walk = RandomWalk::new(RandomWalkConfig {
        objects: 800,
        duration: 20.0,
        ..RandomWalkConfig::default()
    });
    let updates: Vec<MotionUpdate<2>> =
        interleave_by_time(walk.generate().into_iter().map(|t| t.updates));
    println!("{} motion updates will stream in over 20 minutes", updates.len());

    // Two live indexes: NSI for kNN, double-temporal-axes for NPDQ.
    let mut dta: RTree<DtaSegmentRecord<2>, Pager> =
        RTree::new(Pager::new(), RTreeConfig::default());
    let mut nsi: RTree<NsiSegmentRecord<2>, Pager> =
        RTree::new(Pager::new(), RTreeConfig::default());

    // The observer: starts at the SW corner, changes heading every ~4
    // minutes (unpredictable — hence NPDQ, not PDQ).
    let legs: [(f64, [f64; 2]); 5] = [
        (0.0, [2.0, 1.0]),
        (4.0, [1.0, 3.0]),
        (8.0, [-1.5, 1.0]),
        (12.0, [0.5, -2.0]),
        (16.0, [2.0, 0.5]),
    ];
    let position = |t: f64| -> [f64; 2] {
        let mut p = [10.0, 10.0];
        for (i, &(t0, v)) in legs.iter().enumerate() {
            let t1 = legs.get(i + 1).map_or(20.0, |l| l.0);
            let dt = (t.min(t1) - t0).max(0.0);
            p[0] += v[0] * dt;
            p[1] += v[1] * dt;
        }
        [p[0].clamp(5.0, 95.0), p[1].clamp(5.0, 95.0)]
    };

    let mut monitor = NpdqEngine::new();
    let mut feed = updates.iter().peekable();
    let mut total = QueryStats::default();
    let mut contacts = 0u64;
    // Every NSI record inserted so far: the kNN's brute-force truth.
    let mut inserted = Vec::new();

    // One radar sweep every 0.1 minute.
    let mut t = 0.5;
    while t < 20.0 {
        // Ingest every update that has arrived since the last sweep.
        while let Some(u) = feed.peek() {
            if u.seg.t.lo > t {
                break;
            }
            dta.insert(
                DtaSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position()),
                u.seg.t.lo,
            );
            let rec = NsiSegmentRecord::new(u.oid, u.seq, u.seg.t, u.seg.x0, u.seg.end_position());
            nsi.insert(rec, u.seg.t.lo);
            inserted.push(rec);
            feed.next();
        }

        // Vicinity query: everything within ±8 km of the vehicle, now or
        // later (open-ended — the shape that lets NPDQ reuse the previous
        // sweep, §4.2).
        let p = position(t);
        let window = Rect::from_corners([p[0] - 8.0, p[1] - 8.0], [p[0] + 8.0, p[1] + 8.0]);
        let q = SnapshotQuery::open_from(window, t);
        let stats = monitor.execute(&dta, &q, |_| {});
        contacts += stats.results;
        total += stats;

        // Every 2 minutes: report + 3 nearest contacts via kNN.
        if (t * 10.0).round() as i64 % 20 == 5 {
            let mut ks = QueryStats::default();
            let near = knn_at(&nsi, p, t, 3, &mut ks);
            let got: Vec<(f64, u32, u32)> = near
                .iter()
                .map(|r| (r.dist_sq, r.record.oid, r.record.seq))
                .collect();
            assert_eq!(
                got,
                brute_knn(&inserted, p, t, 3),
                "t={t}: kNN vs brute force"
            );
            let ids: Vec<String> = near
                .iter()
                .map(|r| format!("#{} ({:.1} km)", r.record.oid, r.dist_sq.sqrt()))
                .collect();
            println!(
                "t={t:>4.1}min  pos ({:>4.1},{:>4.1})  new contacts this sweep: {:>2}  nearest: {}",
                p[0],
                p[1],
                stats.results,
                ids.join(", ")
            );
        }
        t += 0.1;
    }

    println!("\nsession totals:");
    println!("  {} sweeps, {} new-contact deliveries", (19.5 / 0.1) as u64, contacts);
    println!(
        "  {} disk accesses ({} at leaves), {} distance computations",
        total.disk_accesses, total.leaf_accesses, total.distance_computations
    );
    println!(
        "  indexes: NSI height {}, DTA height {}, {} segments each",
        nsi.height(),
        dta.height(),
        nsi.len()
    );
}
