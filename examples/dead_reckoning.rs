//! The §3.1 update-cost / precision trade-off, end to end.
//!
//! A vehicle drives a weaving path. Its tracker reports to the database
//! only when the true position deviates from the database's dead-reckoned
//! prediction by more than a threshold. The example sweeps the threshold
//! and asserts the trade-off the paper describes: tighter thresholds mean
//! strictly more updates (more segments indexed, more insert I/O), the
//! database's position error stays within the threshold, and a window
//! query inflated by the threshold misses no segment during which the
//! vehicle was truly in the window.
//!
//! ```bash
//! cargo run --release --example dead_reckoning
//! ```

use dq_repro::motion::DeadReckoner;
use dq_repro::rtree::{NsiSegmentRecord, RTree, RTreeConfig};
use dq_repro::stkit::{Interval, Rect, StBox};
use dq_repro::storage::{PageStore, Pager};
use std::collections::HashSet;

/// True position of the vehicle: eastbound with a sinusoidal weave.
fn true_pos(t: f64) -> [f64; 2] {
    [t, 50.0 + 3.0 * (t * 0.8).sin()]
}

/// Whether the true path enters `window` during `span`, sampled every
/// 0.01 time units.
fn truly_in_window(window: &Rect<2>, span: Interval) -> bool {
    let mut t = span.lo;
    while t <= span.hi {
        if window.contains_point(&true_pos(t)) {
            return true;
        }
        t += 0.01;
    }
    false
}

fn main() {
    println!("threshold | updates | max DB error | index pages | window query");
    println!("----------+---------+--------------+-------------+-------------------------------------------");
    let mut prev_updates = usize::MAX;
    for threshold in [0.25, 0.5, 1.0, 2.0, 4.0] {
        // Drive for 100 minutes, observing the truth every 0.05 min.
        let mut dr = DeadReckoner::new(1, threshold, 0.0, true_pos(0.0), [1.0, 2.4]);
        let mut updates = Vec::new();
        let mut max_err = 0.0f64;
        let mut t = 0.05;
        while t <= 100.0 {
            let p = true_pos(t);
            let pred = dr.predicted(t);
            let err = ((p[0] - pred[0]).powi(2) + (p[1] - pred[1]).powi(2)).sqrt();
            if let Some(u) = dr.observe(t, p) {
                updates.push(u);
            } else {
                max_err = max_err.max(err);
            }
            t += 0.05;
        }
        if let Some(u) = dr.finish() {
            updates.push(u);
        }

        // Index the reported motion, inflating each bounding box by the
        // threshold (the §3.1 "imprecise bounding box": no object missed).
        let mut tree: RTree<NsiSegmentRecord<2>, Pager> =
            RTree::new(Pager::new(), RTreeConfig::default());
        for u in &updates {
            let rec = NsiSegmentRecord::new(
                u.oid,
                u.seq,
                u.seg.t,
                u.seg.x0,
                u.seg.end_position(),
            );
            tree.insert(rec, u.seg.t.lo);
        }
        let pages = tree.store().io().allocs;

        // Query: was the vehicle in the box [40,60]×[45,55] during
        // t∈[40,60]? The database only knows each position to within the
        // threshold, so search and test the window inflated by it.
        let window = Rect::from_corners([40.0, 45.0], [60.0, 55.0]);
        let qtime = Interval::new(40.0, 60.0);
        let inflated = window.inflate(threshold);
        let key = StBox::new(inflated, Rect::new([qtime]));
        let mut admitted = HashSet::new();
        tree.range_search(
            &key,
            |r| !r.seg.intersect_query(&inflated, &qtime).is_empty(),
            |r| {
                admitted.insert(r.seq);
            },
        );
        // Ground truth from the real path, over every update: a segment
        // whose true path entered the window must have been admitted.
        let truly: Vec<u32> = updates
            .iter()
            .filter(|u| truly_in_window(&window, u.seg.t.intersect(&qtime)))
            .map(|u| u.seq)
            .collect();
        let missed = truly.iter().filter(|seq| !admitted.contains(seq)).count();
        assert_eq!(
            missed, 0,
            "threshold {threshold}: the inflated test missed {missed} segments"
        );
        assert!(
            max_err <= threshold,
            "threshold {threshold}: database error {max_err} exceeds it"
        );
        assert!(
            updates.len() < prev_updates,
            "threshold {threshold}: {} updates, not fewer than {prev_updates}",
            updates.len()
        );
        prev_updates = updates.len();

        println!(
            "{threshold:>9.2} | {:>7} | {:>12.4} | {:>11} | {:>3} truly in window, {:>3} admitted, {missed} missed",
            updates.len(),
            max_err,
            pages,
            truly.len(),
            admitted.len(),
        );
    }
    println!("\nTighter thresholds: more updates + pages, smaller error bound.");
    println!("At every threshold the inflated test admits every segment the vehicle was truly in.");
}
