//! The scalar oracles of the insert path's choices: a straight
//! transcription of Guttman's ChooseLeaf, PickSeeds and PickNext as they
//! were written before any volume was cached or any key staged — every
//! volume and enlargement recomputed where it is used, as
//! `cover(..).volume() - volume()`. `prop_patch`'s reference insert calls
//! the library `split`, so it cannot see a split that changes a
//! partition; `prop_tree` holds `split` to this over keys of every kind,
//! and `prop_kernels` holds the staged kernels to it choice for choice.

#![allow(dead_code)]

use rtree::{Key, SplitPolicy};

/// Guttman's ChooseLeaf: the entry of `keys` that `key` enlarges least,
/// ties by smaller volume, then by position.
pub fn oracle_choose<K: Key>(keys: &[K], key: &K) -> usize {
    let mut best = (0, f64::INFINITY, f64::INFINITY);
    for (i, k) in keys.iter().enumerate() {
        let (enl, vol) = (k.cover(key).volume() - k.volume(), k.volume());
        if enl < best.1 || (enl == best.1 && vol < best.2) {
            best = (i, enl, vol);
        }
    }
    best.0
}

/// Guttman's quadratic PickSeeds, every volume recomputed per pair.
fn oracle_quadratic_seeds<K: Key>(keys: &[K]) -> (usize, usize) {
    let mut best = (0, 1);
    let mut best_waste = f64::NEG_INFINITY;
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            let waste = keys[i].cover(&keys[j]).volume() - keys[i].volume() - keys[j].volume();
            if waste > best_waste {
                best_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

/// Guttman's LinearPickSeeds: greatest normalized separation.
fn oracle_linear_seeds<K: Key>(keys: &[K]) -> (usize, usize) {
    let mut best = (0, 1);
    let mut best_sep = f64::NEG_INFINITY;
    for axis in 0..K::AXES {
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
        let sep = (keys[hi_lo_idx].axis_lo(axis) - keys[lo_hi_idx].axis_hi(axis)) / width;
        if sep > best_sep {
            best_sep = sep;
            best = (lo_hi_idx, hi_lo_idx);
        }
    }
    if best.0 == best.1 {
        best = (0, 1);
    }
    best
}

/// The distribution: PickNext (Quadratic) or reverse input order
/// (Linear), each entry to the group it enlarges least, ties by smaller
/// cover volume, then by fewer entries.
pub fn oracle_split<K: Key>(
    policy: SplitPolicy,
    keys: &[K],
    min_fill: usize,
) -> (Vec<usize>, Vec<usize>) {
    let (seed_a, seed_b) = match policy {
        SplitPolicy::Quadratic => oracle_quadratic_seeds(keys),
        SplitPolicy::Linear => oracle_linear_seeds(keys),
        SplitPolicy::RStar => unreachable!("the oracle covers Guttman's splits"),
    };
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut cover_a = keys[seed_a];
    let mut cover_b = keys[seed_b];
    let mut remaining: Vec<usize> = (0..keys.len())
        .filter(|&i| i != seed_a && i != seed_b)
        .collect();
    while !remaining.is_empty() {
        if group_a.len() + remaining.len() == min_fill {
            group_a.append(&mut remaining);
            break;
        }
        if group_b.len() + remaining.len() == min_fill {
            group_b.append(&mut remaining);
            break;
        }
        let pick = if policy == SplitPolicy::Quadratic {
            let mut best_pos = 0;
            let mut best_diff = f64::NEG_INFINITY;
            for (pos, &i) in remaining.iter().enumerate() {
                let diff = (cover_a.enlargement(&keys[i]) - cover_b.enlargement(&keys[i])).abs();
                if diff > best_diff {
                    best_diff = diff;
                    best_pos = pos;
                }
            }
            remaining.swap_remove(best_pos)
        } else {
            remaining.pop().unwrap()
        };
        let da = cover_a.enlargement(&keys[pick]);
        let db = cover_b.enlargement(&keys[pick]);
        let to_a = match da.partial_cmp(&db) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => match cover_a.volume().partial_cmp(&cover_b.volume()) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => group_a.len() <= group_b.len(),
            },
        };
        if to_a {
            cover_a = cover_a.cover(&keys[pick]);
            group_a.push(pick);
        } else {
            cover_b = cover_b.cover(&keys[pick]);
            group_b.push(pick);
        }
    }
    (group_a, group_b)
}
