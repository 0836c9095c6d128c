//! Node split algorithms: Guttman's linear and quadratic heuristics.
//!
//! A split partitions the keys of an overflowing node (capacity + 1
//! entries) into two groups, each holding at least `min_fill` entries.
//! The tree layer then assigns page ids per the paper's §4.1 same-path
//! rule: whichever group contains the cascading new entry receives the
//! *freshly allocated* page, so every node created by a cascading split
//! chain lies on a single root-to-leaf path.

use crate::staged::Stage;
use crate::traits::Key;

/// Which split heuristic to use on node overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Guttman's linear split: seeds by greatest normalized separation,
    /// remaining entries assigned by least enlargement in input order.
    Linear,
    /// Guttman's quadratic split: seeds by greatest dead-space pairing,
    /// remaining entries assigned by greatest enlargement difference.
    #[default]
    Quadratic,
    /// R*-tree split (Beckmann et al., cited as \[2\] in the paper): choose
    /// the split axis by minimum total margin over all sorted
    /// distributions, then the distribution with minimal overlap (ties:
    /// minimal total volume).
    RStar,
}

/// Result of a split: index sets of the two groups (disjoint, covering
/// `0..keys.len()`).
#[derive(Debug)]
pub struct SplitResult {
    /// Indices of the first group.
    pub a: Vec<usize>,
    /// Indices of the second group.
    pub b: Vec<usize>,
}

/// Partition `keys` into two groups of at least `min_fill` entries each.
///
/// `keys.len()` must be at least `2 * min_fill` and at least 2.
pub fn split<K: Key>(policy: SplitPolicy, keys: &[K], min_fill: usize) -> SplitResult {
    split_in(policy, keys, min_fill, &mut Stage::new::<K>(keys.len()))
}

/// [`split`] with the staged kernels' keys in `stage`, which must hold
/// `keys.len()` of them: a tree passes its own, sized to its largest
/// node, so a split allocates no staging of its own. A quadratic split of
/// keys the stage takes ([`Key::STAGED_SPACE_AXES`]) runs the staged
/// PickSeeds and distribution, any other the scalar ones below; both
/// return the same groups.
pub(crate) fn split_in<K: Key>(
    policy: SplitPolicy,
    keys: &[K],
    min_fill: usize,
    stage: &mut Stage,
) -> SplitResult {
    assert!(keys.len() >= 2, "cannot split fewer than two entries");
    assert!(
        keys.len() >= 2 * min_fill,
        "cannot satisfy min_fill {} with {} entries",
        min_fill,
        keys.len()
    );
    match policy {
        SplitPolicy::Linear => {
            let (a, b) = linear_seeds(keys);
            distribute(keys, a, b, min_fill, policy)
        }
        SplitPolicy::Quadratic => match stage.quadratic_seeds(keys) {
            Some((a, b)) => stage.distribute(keys, a, b, min_fill),
            None => {
                let (a, b) = quadratic_seeds(keys);
                distribute(keys, a, b, min_fill, policy)
            }
        },
        SplitPolicy::RStar => rstar_split(keys, min_fill),
    }
}

/// R*-tree split: for every axis, sort by lower then by upper bound and
/// consider every legal split position; pick the axis with the smallest
/// summed margin, then the position with the least overlap between the
/// two groups (ties broken by total volume).
fn rstar_split<K: Key>(keys: &[K], min_fill: usize) -> SplitResult {
    let n = keys.len();
    let mut best: Option<(Vec<usize>, Vec<usize>)> = None;
    let mut best_axis_margin = f64::INFINITY;
    #[allow(unused_assignments)]
    let mut best_overlap = f64::INFINITY;
    #[allow(unused_assignments)]
    let mut best_volume = f64::INFINITY;

    for axis in 0..K::AXES {
        for sort_by_upper in [false, true] {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&i, &j| {
                let (a, b) = if sort_by_upper {
                    (keys[i].axis_hi(axis), keys[j].axis_hi(axis))
                } else {
                    (keys[i].axis_lo(axis), keys[j].axis_lo(axis))
                };
                a.total_cmp(&b)
            });
            // Evaluate the axis's total margin across all distributions,
            // and remember each distribution's overlap/volume.
            let mut axis_margin = 0.0;
            let mut candidates = Vec::new();
            for split_at in min_fill..=(n - min_fill) {
                let (g1, g2) = order.split_at(split_at);
                let c1 = g1.iter().fold(K::empty(), |acc, &i| acc.cover(&keys[i]));
                let c2 = g2.iter().fold(K::empty(), |acc, &i| acc.cover(&keys[i]));
                axis_margin += c1.margin() + c2.margin();
                let overlap = if c1.overlaps(&c2) {
                    // Volume of the intersection; approximate via the
                    // cover identity vol(c1∩c2) not being exposed — use
                    // enlargement-free computation through cover.
                    intersection_volume(&c1, &c2)
                } else {
                    0.0
                };
                candidates.push((
                    overlap,
                    c1.volume() + c2.volume(),
                    g1.to_vec(),
                    g2.to_vec(),
                ));
            }
            if axis_margin < best_axis_margin {
                best_axis_margin = axis_margin;
                // Reset the per-axis winners: the chosen axis dictates
                // which candidate list we pick from.
                best_overlap = f64::INFINITY;
                best_volume = f64::INFINITY;
                for (overlap, volume, a, b) in candidates {
                    if overlap < best_overlap
                        || (overlap == best_overlap && volume < best_volume)
                    {
                        best_overlap = overlap;
                        best_volume = volume;
                        best = Some((a, b));
                    }
                }
            }
        }
    }
    let (a, b) = best.expect("at least one distribution exists");
    SplitResult { a, b }
}

/// Volume of the intersection of two keys, computed from per-axis bounds.
fn intersection_volume<K: Key>(a: &K, b: &K) -> f64 {
    let mut v = 1.0;
    for axis in 0..K::AXES {
        let lo = a.axis_lo(axis).max(b.axis_lo(axis));
        let hi = a.axis_hi(axis).min(b.axis_hi(axis));
        if hi <= lo {
            return 0.0;
        }
        v *= hi - lo;
    }
    v
}

/// Guttman's PickSeeds (quadratic): the pair wasting the most area.
/// Each key's volume is computed once, not once per pair. The scalar
/// kernel: keys the stage does not take.
fn quadratic_seeds<K: Key>(keys: &[K]) -> (usize, usize) {
    let vols: Vec<f64> = keys.iter().map(K::volume).collect();
    let mut best = (0, 1);
    let mut best_waste = f64::NEG_INFINITY;
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            let waste = keys[i].cover_volume(&keys[j]) - vols[i] - vols[j];
            if waste > best_waste {
                best_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

/// Guttman's LinearPickSeeds: greatest separation normalized by the total
/// extent, over all axes.
fn linear_seeds<K: Key>(keys: &[K]) -> (usize, usize) {
    let axes = K::AXES;
    let mut best = (0, 1);
    let mut best_sep = f64::NEG_INFINITY;
    for axis in 0..axes {
        // Entry with the highest low side and entry with the lowest high side.
        let (mut hi_lo_idx, mut lo_hi_idx) = (0, 0);
        let (mut total_lo, mut total_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, k) in keys.iter().enumerate() {
            if k.axis_lo(axis) > keys[hi_lo_idx].axis_lo(axis) {
                hi_lo_idx = i;
            }
            if k.axis_hi(axis) < keys[lo_hi_idx].axis_hi(axis) {
                lo_hi_idx = i;
            }
            total_lo = total_lo.min(k.axis_lo(axis));
            total_hi = total_hi.max(k.axis_hi(axis));
        }
        let width = total_hi - total_lo;
        if width <= 0.0 || hi_lo_idx == lo_hi_idx {
            continue;
        }
        let sep =
            (keys[hi_lo_idx].axis_lo(axis) - keys[lo_hi_idx].axis_hi(axis)) / width;
        if sep > best_sep {
            best_sep = sep;
            best = (lo_hi_idx, hi_lo_idx);
        }
    }
    if best.0 == best.1 {
        // Degenerate (all identical): fall back to the first two entries.
        best = (0, 1);
    }
    best
}

/// Guttman's distribution after PickSeeds: place the remaining entries
/// one at a time (Quadratic: PickNext's greatest preference first;
/// Linear: in reverse input order), each into the group its cover grows
/// least by.
///
/// Each group's cover volume is kept beside the cover. Under Quadratic
/// both groups' enlargements for every remaining entry are kept too, in
/// vectors aligned with `remaining` and `swap_remove`d in step with it;
/// a placement refreshes only the group that took the entry, since the
/// other's cover did not change. Every kept value is bit-equal to the
/// `enlargement` it stands for (`cover_volume` minus the cover's
/// volume), so the partition is Guttman's bit for bit. Every vector is
/// sized up front: a split allocates the same number of times whatever
/// the node's capacity. The scalar kernel: Linear splits, and Quadratic
/// ones over keys the stage does not take.
fn distribute<K: Key>(
    keys: &[K],
    seed_a: usize,
    seed_b: usize,
    min_fill: usize,
    policy: SplitPolicy,
) -> SplitResult {
    let pick_next = match policy {
        SplitPolicy::Quadratic => true,
        SplitPolicy::Linear => false,
        SplitPolicy::RStar => unreachable!("R* uses rstar_split, not distribute"),
    };
    let n = keys.len();
    let (mut group_a, mut group_b) = (Vec::with_capacity(n), Vec::with_capacity(n));
    group_a.push(seed_a);
    group_b.push(seed_b);
    let (mut cover_a, mut cover_b) = (keys[seed_a], keys[seed_b]);
    let (mut vol_a, mut vol_b) = (cover_a.volume(), cover_b.volume());
    let mut remaining = Vec::with_capacity(n);
    remaining.extend((0..n).filter(|&i| i != seed_a && i != seed_b));
    // `remaining` is an argument, not a capture: captured, it made
    // `distribute` compile to code that cost `dqbench ingest` ~10 % CPU
    // per frame.
    let enlargements = |cover: &K, vol: f64, remaining: &[usize]| -> Vec<f64> {
        if pick_next {
            remaining
                .iter()
                .map(|&i| cover.cover_volume(&keys[i]) - vol)
                .collect()
        } else {
            Vec::new()
        }
    };
    let mut enl_a = enlargements(&cover_a, vol_a, &remaining);
    let mut enl_b = enlargements(&cover_b, vol_b, &remaining);

    while !remaining.is_empty() {
        // If one group must take everything left to reach min_fill, do so.
        if group_a.len() + remaining.len() == min_fill {
            group_a.append(&mut remaining);
            break;
        }
        if group_b.len() + remaining.len() == min_fill {
            group_b.append(&mut remaining);
            break;
        }
        // Choose the next entry to place, with its enlargement of each
        // group's cover.
        let (pick, da, db) = if pick_next {
            // PickNext: entry with the greatest |d_a − d_b| preference.
            let mut best_pos = 0;
            let mut best_diff = f64::NEG_INFINITY;
            for (pos, (da, db)) in enl_a.iter().zip(&enl_b).enumerate() {
                let diff = (da - db).abs();
                if diff > best_diff {
                    best_diff = diff;
                    best_pos = pos;
                }
            }
            (
                remaining.swap_remove(best_pos),
                enl_a.swap_remove(best_pos),
                enl_b.swap_remove(best_pos),
            )
        } else {
            let pick = remaining.pop().expect("checked non-empty");
            let k = &keys[pick];
            (
                pick,
                cover_a.cover_volume(k) - vol_a,
                cover_b.cover_volume(k) - vol_b,
            )
        };
        let to_a = prefers_a(da, db, vol_a, vol_b, group_a.len(), group_b.len());
        let (group, cover, vol, enl) = if to_a {
            (&mut group_a, &mut cover_a, &mut vol_a, &mut enl_a)
        } else {
            (&mut group_b, &mut cover_b, &mut vol_b, &mut enl_b)
        };
        group.push(pick);
        *cover = cover.cover(&keys[pick]);
        *vol = cover.volume();
        if pick_next {
            for (e, &i) in enl.iter_mut().zip(&remaining) {
                *e = cover.cover_volume(&keys[i]) - *vol;
            }
        }
    }
    SplitResult {
        a: group_a,
        b: group_b,
    }
}

/// Whether an entry enlarging group A by `da` and group B by `db` goes to
/// A: the group needing least enlargement; ties by smaller volume, then
/// by fewer entries (Guttman's tie-breaking).
pub(crate) fn prefers_a(
    da: f64,
    db: f64,
    vol_a: f64,
    vol_b: f64,
    len_a: usize,
    len_b: usize,
) -> bool {
    match da.partial_cmp(&db) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Greater) => false,
        _ => match vol_a.partial_cmp(&vol_b) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => len_a <= len_b,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkit::{Interval, Rect, StBox};

    type K = StBox<2, 1>;

    fn key(x0: f64, y0: f64, x1: f64, y1: f64) -> K {
        StBox::new(
            Rect::from_corners([x0, y0], [x1, y1]),
            Rect::new([Interval::new(0.0, 1.0)]),
        )
    }

    fn check_partition(r: &SplitResult, n: usize, min_fill: usize) {
        assert!(r.a.len() >= min_fill, "group a below min fill");
        assert!(r.b.len() >= min_fill, "group b below min fill");
        let mut all: Vec<usize> = r.a.iter().chain(r.b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "not a partition");
    }

    fn clustered_keys() -> Vec<K> {
        // Two obvious clusters far apart.
        let mut keys = Vec::new();
        for i in 0..5 {
            let o = i as f64 * 0.1;
            keys.push(key(o, o, o + 1.0, o + 1.0));
        }
        for i in 0..5 {
            let o = 100.0 + i as f64 * 0.1;
            keys.push(key(o, o, o + 1.0, o + 1.0));
        }
        keys
    }

    #[test]
    fn quadratic_separates_clusters() {
        let keys = clustered_keys();
        let r = split(SplitPolicy::Quadratic, &keys, 2);
        check_partition(&r, keys.len(), 2);
        // Each group must be one cluster (indices 0..5 vs 5..10).
        let a_low = r.a.iter().all(|&i| i < 5) || r.a.iter().all(|&i| i >= 5);
        assert!(a_low, "quadratic split mixed the clusters: {r:?}");
        assert_eq!(r.a.len(), 5);
        assert_eq!(r.b.len(), 5);
    }

    #[test]
    fn linear_separates_clusters() {
        let keys = clustered_keys();
        let r = split(SplitPolicy::Linear, &keys, 2);
        check_partition(&r, keys.len(), 2);
        let pure = r.a.iter().all(|&i| i < 5) || r.a.iter().all(|&i| i >= 5);
        assert!(pure, "linear split mixed the clusters: {r:?}");
    }

    #[test]
    fn min_fill_respected_with_outlier() {
        // One far outlier, min_fill forces companions to join it.
        let mut keys = vec![key(1000.0, 1000.0, 1001.0, 1001.0)];
        for i in 0..9 {
            let o = i as f64;
            keys.push(key(o, 0.0, o + 0.5, 0.5));
        }
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStar,
        ] {
            let r = split(policy, &keys, 4);
            check_partition(&r, keys.len(), 4);
        }
    }

    #[test]
    fn identical_keys_still_partition() {
        let keys = vec![key(0.0, 0.0, 1.0, 1.0); 6];
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStar,
        ] {
            let r = split(policy, &keys, 3);
            check_partition(&r, 6, 3);
            assert_eq!(r.a.len(), 3);
            assert_eq!(r.b.len(), 3);
        }
    }

    #[test]
    fn rstar_separates_clusters() {
        let keys = clustered_keys();
        let r = split(SplitPolicy::RStar, &keys, 2);
        check_partition(&r, keys.len(), 2);
        let pure = r.a.iter().all(|&i| i < 5) || r.a.iter().all(|&i| i >= 5);
        assert!(pure, "R* split mixed the clusters: {r:?}");
        // Clusters are disjoint: the chosen distribution has zero overlap.
        let cov = |idx: &[usize]| {
            idx.iter()
                .fold(StBox::<2, 1>::EMPTY, |acc, &i| acc.cover(&keys[i]))
        };
        assert!(!cov(&r.a).overlaps(&cov(&r.b)));
    }

    #[test]
    fn rstar_prefers_low_overlap_distribution() {
        // Three groups along x; a 2/8 split at min_fill=2 would overlap
        // more than the balanced 5/5 cluster split.
        let mut keys = Vec::new();
        for i in 0..5 {
            keys.push(key(i as f64, 0.0, i as f64 + 0.9, 1.0));
        }
        for i in 0..5 {
            keys.push(key(50.0 + i as f64, 0.0, 50.9 + i as f64, 1.0));
        }
        let r = split(SplitPolicy::RStar, &keys, 2);
        assert_eq!(r.a.len().min(r.b.len()), 5, "balanced split expected");
    }

    #[test]
    fn two_entries_split_into_singletons() {
        let keys = vec![key(0.0, 0.0, 1.0, 1.0), key(5.0, 5.0, 6.0, 6.0)];
        let r = split(SplitPolicy::Quadratic, &keys, 1);
        check_partition(&r, 2, 1);
    }

    #[test]
    #[should_panic(expected = "min_fill")]
    fn impossible_min_fill_panics() {
        let keys = vec![key(0.0, 0.0, 1.0, 1.0); 3];
        let _ = split(SplitPolicy::Quadratic, &keys, 2);
    }
}
