//! The record-list truth: what a dynamic query owes frame by frame,
//! from the records resident at each frame alone, without running any
//! engine. Both oracles hold their engines to it: [`super::served`] the
//! serving core's lanes, [`super::engines`] the library engines.
//!
//! Records arrive as a preload, resident from the first frame, and one
//! batch per frame, resident from that frame on. A frame before `join`
//! is never asked and owes nothing.

use std::collections::HashSet;

use dq_repro::mobiquery::{MotionRecord, SnapshotQuery};
use dq_repro::stkit::TimeSet;

use super::R;

/// A record's identity, `(oid, seq)`.
pub type Ids = (u32, u32);

/// Every record resident at each frame: `preload`, then batch `k` from
/// frame `k` on.
fn arrivals<'a, T: 'a>(preload: &'a [T], batches: &'a [Vec<T>]) -> impl Iterator<Item = Vec<&'a T>> + 'a {
    let mut first = Some(preload.iter());
    (0..).map(move |k| first.take().into_iter().flatten().chain(batches.get(k).into_iter().flatten()).collect())
}

/// §4.1: frame `k`, asked over `windows[k]`, owes every resident record
/// not yet delivered whose visibility's hull meets the window, in entry
/// order (hull start, then identity), each with its visibility. A
/// record's visibility is the family's own: `Trajectory::overlap_segment`
/// for a motion segment, `overlap_trajectory_tpbox` for a TPR motion.
/// Per frame from `join` on: the frame's index and what it owes. The
/// windows ascend.
pub fn pdq<T>(
    preload: &[T],
    batches: &[Vec<T>],
    windows: &[(f64, f64)],
    join: usize,
    ids: impl Fn(&T) -> Ids,
    visibility: impl Fn(&T) -> TimeSet,
) -> Vec<(usize, Vec<(Ids, TimeSet)>)> {
    let (mut resident, mut delivered) = (Vec::new(), HashSet::new());
    let mut frames = Vec::new();
    for ((k, &(t0, t1)), arrived) in windows.iter().enumerate().zip(arrivals(preload, batches)) {
        for r in arrived {
            let v = visibility(r);
            if let (Some(start), Some(end)) = (v.start(), v.end()) {
                resident.push((start, end, ids(r), v));
            }
        }
        // Delivered, or over before this window: owed by no later frame.
        resident.retain(|(_, end, id, _)| *end >= t0 && !delivered.contains(id));
        if k < join {
            continue;
        }
        let mut due: Vec<_> = resident.iter().filter(|(start, ..)| *start <= t1).collect();
        due.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        delivered.extend(due.iter().map(|(.., id, _)| *id));
        frames.push((k, due.into_iter().map(|(.., id, v)| (*id, v.clone())).collect()));
    }
    frames
}

/// One NPDQ frame's truth: `S_k`, what the frame's snapshot matches, and
/// `S_k ∖ S_{k-1}` — all of `S_k` at the join frame.
#[derive(Debug)]
pub struct Snapshot {
    pub frame: usize,
    pub fresh: HashSet<Ids>,
    pub visible: HashSet<Ids>,
}

/// §4.2: frame `k` asks `queries[k]`; its truth is what that snapshot
/// matches among the resident records (`SnapshotQuery::matches_segment`)
/// and what of that the previous frame's did not. Per frame from `join`
/// on; the queries' times ascend.
pub fn npdq(preload: &[R], batches: &[Vec<R>], queries: &[SnapshotQuery<2>], join: usize) -> Vec<Snapshot> {
    let (mut resident, mut seen): (Vec<&R>, _) = (Vec::new(), HashSet::new());
    let mut frames = Vec::new();
    for ((k, q), arrived) in queries.iter().enumerate().zip(arrivals(preload, batches)) {
        // A record over before this snapshot's time matches no later one.
        resident.extend(arrived);
        resident.retain(|r| r.seg.t.hi >= q.time.lo);
        let visible: HashSet<Ids> = resident.iter().filter(|r| q.matches_segment(&r.seg)).map(|r| r.ids()).collect();
        let fresh = visible.iter().filter(|&id| k == join || !seen.contains(id)).copied().collect();
        seen = visible.clone();
        if k >= join {
            frames.push(Snapshot { frame: k, fresh, visible });
        }
    }
    frames
}
