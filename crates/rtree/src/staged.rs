//! The write path's staged kernels: ChooseLeaf and Guttman's quadratic
//! split over struct-of-arrays `f64` bounds.
//!
//! Done one key at a time, both kernels decode a box per entry (per pair,
//! for PickSeeds) and branch on emptiness in every `volume` and
//! `cover_volume`. Staged, the keys' bounds are read once into blocks of
//! [`LANES`] keys, one row per bound, and every key's volume or cover
//! volume is a product of side lengths computed a block at a time in
//! straight-line code the compiler vectorises across the lanes. The
//! argmin / argmax scans stay scalar, but look at a block's lanes only
//! when one of them can win.
//!
//! **Exactness.** A key type opts in through [`Key::STAGED_SPACE_AXES`],
//! and a node is staged only when every side of every key, the inserted
//! one included, has `lo <= hi` — no NaN, no inverted side: the case in
//! which `volume` and `cover_volume` reduce to products of `hi − lo` with
//! no branch. Each lane then makes the same `f64` operations, on the same
//! operands in the same order, as those calls: each group's product
//! folded from `1.0` in axis order, space times time, then the scalar
//! kernels' subtractions. The one rewrite is `max`/`min` of two bounds,
//! a compare and select ([`max_of`], [`min_of`]) where `f64::max`/`min`
//! also handle NaN, which no staged bound is: on x86-64 the two compile
//! to the same instruction and return the same bits. Elsewhere a `±0`
//! tie may come out as the other zero, and the values built from it
//! differ at most in a zero's sign. Nothing the kernels compute is
//! stored or returned — every value is only compared, by the scalar
//! kernels' own rules, and no comparison sees a zero's sign — so every
//! choice and every split is the scalar one. Every other node and key
//! type takes the scalar kernels in [`crate::split`] and [`crate::tree`],
//! which `tests/prop_kernels.rs` holds the staged ones to, choice for
//! choice.
//!
//! The [`Stage`] holds nothing between calls: each kernel overwrites what
//! it reads, so no decoded form of a node outlives the call that staged
//! it. A tree keeps one, sized once to its largest node.

use crate::split::SplitResult;
use crate::traits::Key;

/// Keys per block: the width the block loops are written for.
const LANES: usize = 4;

/// The most axes a staged key may have; a key type with more takes the
/// scalar kernels.
const MAX_AXES: usize = 4;

/// [`LANES`] keys' bounds: row `2a` holds their `axis_lo(a)`, row
/// `2a + 1` their `axis_hi(a)`.
type Block = [[f64; LANES]; 2 * MAX_AXES];

/// One key's sides, `lo` and `hi` per axis.
type Sides = ([f64; MAX_AXES], [f64; MAX_AXES]);

/// Staged keys, a block of [`LANES`] at a time, and two per-key work
/// rows: the keys' volumes for PickSeeds, the groups' enlargements for
/// the distribution.
#[derive(Default)]
pub(crate) struct Stage {
    /// Keys staged by the last [`Self::load`].
    n: usize,
    blocks: Vec<Block>,
    work: [Vec<f64>; 2],
}

impl Stage {
    /// Stage `n` keys, each given as its bound accessor (row `r` of the
    /// key), growing the stage to `cap` keys if it holds fewer; the lanes
    /// past the last key are NaN, which no comparison selects. False when
    /// `K` has more than [`MAX_AXES`] axes or a key a side that is not
    /// `lo <= hi`: then nothing staged may be used.
    fn load<K: Key, B: Fn(usize) -> f64>(
        &mut self,
        cap: usize,
        n: usize,
        keys: impl Iterator<Item = B>,
    ) -> bool {
        if K::AXES > MAX_AXES {
            return false;
        }
        let blocks = cap.max(n).div_ceil(LANES);
        if blocks > self.blocks.len() {
            self.blocks.resize(blocks, [[0.0; LANES]; 2 * MAX_AXES]);
            self.work
                .iter_mut()
                .for_each(|w| w.resize(blocks * LANES, 0.0));
        }
        let mut clean = true;
        for (i, bound) in keys.take(n).enumerate() {
            let block = &mut self.blocks[i / LANES];
            for a in 0..K::AXES {
                let (lo, hi) = (bound(2 * a), bound(2 * a + 1));
                block[2 * a][i % LANES] = lo;
                block[2 * a + 1][i % LANES] = hi;
                clean &= lo <= hi;
            }
        }
        if !n.is_multiple_of(LANES) {
            for row in &mut self.blocks[n / LANES] {
                row[n % LANES..].fill(f64::NAN);
            }
        }
        self.n = n;
        clean
    }

    /// Stage `keys`.
    fn load_keys<K: Key>(&mut self, cap: usize, keys: &[K]) -> bool {
        let bounds = keys.iter().map(|k| {
            move |r: usize| {
                if r.is_multiple_of(2) {
                    k.axis_lo(r / 2)
                } else {
                    k.axis_hi(r / 2)
                }
            }
        });
        self.load::<K, _>(cap, keys.len(), bounds)
    }

    /// Move staged key `from` to position `to`, as `swap_remove` does.
    fn move_key(&mut self, from: usize, to: usize) {
        for r in 0..2 * MAX_AXES {
            self.blocks[to / LANES][r][to % LANES] = self.blocks[from / LANES][r][from % LANES];
        }
        for w in &mut self.work {
            w[to] = w[from];
        }
    }

    /// ChooseLeaf's criterion over an internal node's `entries`, its
    /// entry region (`(key, child)` entries of
    /// [`crate::node::internal_stride`] bytes), for the inserted `key`:
    /// least enlargement, ties by smaller volume, then by position —
    /// [`crate::tree::choose_subtree`]'s choice. The bounds are read
    /// straight off the bytes, in the encoding [`Key::STAGED_SPACE_AXES`]
    /// promises; no key is decoded. `None` when the key type or a bound
    /// of the node or of `key` is not stageable: the caller runs the
    /// scalar kernel.
    pub(crate) fn choose<K: Key>(&mut self, cap: usize, entries: &[u8], key: &K) -> Option<usize> {
        let s = K::STAGED_SPACE_AXES?;
        let (qlo, qhi) = clean_sides(key)?;
        let entries = entries.chunks_exact(crate::node::internal_stride::<K>());
        let n = entries.len();
        let bounds = entries.map(|entry| {
            move |r: usize| {
                let bytes = entry[4 * r..4 * r + 4].try_into().expect("four bytes");
                f64::from(f32::from_le_bytes(bytes))
            }
        });
        if !self.load::<K, _>(cap, n, bounds) {
            return None;
        }
        let mut best = (0, f64::INFINITY, f64::INFINITY);
        for (b, block) in self.blocks[..n.div_ceil(LANES)].iter().enumerate() {
            let vol = products::<K>(s, block, |_, lo, hi| hi - lo);
            // `k.cover_volume(key)`: the entry is the receiver.
            let cover = products::<K>(s, block, |a, lo, hi| {
                max_of(hi, qhi[a]) - min_of(lo, qlo[a])
            });
            let enl: [f64; LANES] = std::array::from_fn(|l| cover[l] - vol[l]);
            // Only a lane with `enl <= best` can win: skip the rest.
            if enl.iter().any(|&e| e <= best.1) {
                for l in 0..LANES {
                    let (enl, vol) = (enl[l], vol[l]);
                    if enl < best.1 || (enl == best.1 && vol < best.2) {
                        best = (b * LANES + l, enl, vol);
                    }
                }
            }
        }
        Some(best.0)
    }

    /// Guttman's quadratic PickSeeds over `keys`: the first pair, in
    /// `(i, j)` order, wasting the most volume —
    /// [`crate::split::quadratic_seeds`]'s pair. `None` when not
    /// stageable.
    pub(crate) fn quadratic_seeds<K: Key>(
        &mut self,
        cap: usize,
        keys: &[K],
    ) -> Option<(usize, usize)> {
        let s = K::STAGED_SPACE_AXES?;
        if !self.load_keys(cap, keys) {
            return None;
        }
        let n = self.n;
        let blocks = &self.blocks[..n.div_ceil(LANES)];
        let vols = &mut self.work[0];
        for (b, block) in blocks.iter().enumerate() {
            let vol = products::<K>(s, block, |_, lo, hi| hi - lo);
            vols[b * LANES..][..LANES].copy_from_slice(&vol);
        }
        let mut best = (0, 1);
        let mut best_waste = f64::NEG_INFINITY;
        for i in 0..n {
            let (lo_i, hi_i) = staged_sides(blocks, i);
            let vol_i = vols[i];
            for (b, block) in blocks.iter().enumerate().skip((i + 1) / LANES) {
                // `keys[i].cover_volume(&keys[j])` for the block's `j`.
                let cover = products::<K>(s, block, |a, lo, hi| {
                    max_of(hi_i[a], hi) - min_of(lo_i[a], lo)
                });
                let vol_j = &vols[b * LANES..][..LANES];
                let mut waste: [f64; LANES] = std::array::from_fn(|l| cover[l] - vol_i - vol_j[l]);
                if b * LANES <= i {
                    // The block holding `i`: its lanes up to `i` never win.
                    waste[..=i % LANES].fill(f64::NEG_INFINITY);
                }
                if waste.iter().any(|&w| w > best_waste) {
                    for (l, &w) in waste.iter().enumerate() {
                        if w > best_waste {
                            best_waste = w;
                            best = (i, b * LANES + l);
                        }
                    }
                }
            }
        }
        Some(best)
    }

    /// Guttman's quadratic distribution of `keys` from seeds `seed_a` and
    /// `seed_b` — [`crate::split::distribute`]'s partition, groups in the
    /// same order. Every key of `keys` must have passed
    /// [`Self::quadratic_seeds`].
    ///
    /// The keys left to place are staged, `swap_remove`d in step with
    /// their index list as the scalar kernel's are, with both groups'
    /// enlargements beside them. A placement refreshes the enlargements of
    /// the group that took the key only when that group's cover changed,
    /// compared bit for bit: an unchanged cover would recompute every
    /// value it holds.
    pub(crate) fn distribute<K: Key>(
        &mut self,
        keys: &[K],
        seed_a: usize,
        seed_b: usize,
        min_fill: usize,
    ) -> SplitResult {
        let s = K::STAGED_SPACE_AXES.expect("staged by quadratic_seeds");
        let n = keys.len();
        let (mut group_a, mut group_b) = (Vec::with_capacity(n), Vec::with_capacity(n));
        group_a.push(seed_a);
        group_b.push(seed_b);
        let mut cover = [seed_a, seed_b].map(|i| sides_of_key(&keys[i]));
        let mut vol = cover.map(|(lo, hi)| volume::<K>(s, &lo, &hi));
        let mut remaining = Vec::with_capacity(n);
        remaining.extend((0..n).filter(|&i| i != seed_a && i != seed_b));
        // Unstage the seeds: the others, in index order, from position 0.
        let (first, second) = (seed_a.min(seed_b), seed_a.max(seed_b));
        for i in first..n - 2 {
            let from = if i + 1 < second { i + 1 } else { i + 2 };
            self.move_key(from, i);
        }
        for g in 0..2 {
            self.enlargements::<K>(s, g, &cover[g], vol[g], remaining.len());
        }

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
            // PickNext: the key with the greatest |d_a − d_b| preference.
            let m = remaining.len();
            let [enl_a, enl_b] = &self.work;
            let mut best_pos = 0;
            let mut best_diff = f64::NEG_INFINITY;
            for (pos, (da, db)) in enl_a[..m].iter().zip(&enl_b[..m]).enumerate() {
                let diff = (da - db).abs();
                if diff > best_diff {
                    best_diff = diff;
                    best_pos = pos;
                }
            }
            let (da, db) = (enl_a[best_pos], enl_b[best_pos]);
            let (pick_lo, pick_hi) = staged_sides(&self.blocks, best_pos);
            let pick = remaining.swap_remove(best_pos);
            self.move_key(m - 1, best_pos);
            let to_a =
                crate::split::prefers_a(da, db, vol[0], vol[1], group_a.len(), group_b.len());
            let g = usize::from(!to_a);
            let group = if to_a { &mut group_a } else { &mut group_b };
            group.push(pick);
            // The group's new cover: `cover.cover(&keys[pick])`.
            let (lo, hi) = &mut cover[g];
            let mut changed = false;
            for a in 0..K::AXES {
                let (l, h) = (min_of(lo[a], pick_lo[a]), max_of(hi[a], pick_hi[a]));
                changed |= l.to_bits() != lo[a].to_bits() || h.to_bits() != hi[a].to_bits();
                (lo[a], hi[a]) = (l, h);
            }
            if changed {
                vol[g] = volume::<K>(s, lo, hi);
                self.enlargements::<K>(s, g, &cover[g], vol[g], remaining.len());
            }
        }
        SplitResult {
            a: group_a,
            b: group_b,
        }
    }

    /// Work row `g` := `cover.cover_volume(key) − vol` for the first `m`
    /// staged keys, the group's cover the receiver.
    fn enlargements<K: Key>(&mut self, s: usize, g: usize, cover: &Sides, vol: f64, m: usize) {
        let (clo, chi) = cover;
        let enl = &mut self.work[g];
        for (b, block) in self.blocks[..m.div_ceil(LANES)].iter().enumerate() {
            let cv = products::<K>(s, block, |a, lo, hi| {
                max_of(chi[a], hi) - min_of(clo[a], lo)
            });
            for (e, cv) in enl[b * LANES..][..LANES].iter_mut().zip(cv) {
                *e = cv - vol;
            }
        }
    }
}

/// `a.max(b)` for bounds that are not NaN: `b` if greater, else the
/// receiver — what `f64::max` returns on x86-64, without its NaN select.
#[inline(always)]
fn max_of(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// `a.min(b)` for bounds that are not NaN: `b` if less, else the
/// receiver — what `f64::min` returns on x86-64, without its NaN select.
#[inline(always)]
fn min_of(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// Staged key `i`'s sides.
fn staged_sides(blocks: &[Block], i: usize) -> Sides {
    let block = &blocks[i / LANES];
    let (mut lo, mut hi) = ([0.0; MAX_AXES], [0.0; MAX_AXES]);
    for a in 0..MAX_AXES {
        lo[a] = block[2 * a][i % LANES];
        hi[a] = block[2 * a + 1][i % LANES];
    }
    (lo, hi)
}

/// `key`'s sides.
fn sides_of_key<K: Key>(key: &K) -> Sides {
    let (mut lo, mut hi) = ([0.0; MAX_AXES], [0.0; MAX_AXES]);
    for a in 0..K::AXES.min(MAX_AXES) {
        (lo[a], hi[a]) = (key.axis_lo(a), key.axis_hi(a));
    }
    (lo, hi)
}

/// `key`'s sides, when it has at most [`MAX_AXES`] axes and every side
/// has `lo <= hi`.
fn clean_sides<K: Key>(key: &K) -> Option<Sides> {
    let (lo, hi) = sides_of_key(key);
    let clean = K::AXES <= MAX_AXES && (0..K::AXES).all(|a| lo[a] <= hi[a]);
    clean.then_some((lo, hi))
}

/// The volume of a box with sides `lo <= hi`, grouped as
/// [`Key::STAGED_SPACE_AXES`] says: the first `s` sides' product times
/// the rest's.
fn volume<K: Key>(s: usize, lo: &[f64; MAX_AXES], hi: &[f64; MAX_AXES]) -> f64 {
    let product = |axes: std::ops::Range<usize>| axes.fold(1.0, |p, a| p * (hi[a] - lo[a]));
    product(0..s) * product(s..K::AXES)
}

/// Per lane of `block`: `(Π_{a<s} side(a, lo, hi)) × (Π_{a≥s} side(a, lo,
/// hi))`, `lo`/`hi` that lane's bounds on axis `a` — each group's product
/// folded from `1.0` in axis order.
#[inline(always)]
fn products<K: Key>(
    s: usize,
    block: &Block,
    side: impl Fn(usize, f64, f64) -> f64,
) -> [f64; LANES] {
    let product = |axes: std::ops::Range<usize>| {
        let mut p = [1.0; LANES];
        for a in axes {
            let (lo, hi) = (&block[2 * a], &block[2 * a + 1]);
            for l in 0..LANES {
                p[l] *= side(a, lo[l], hi[l]);
            }
        }
        p
    };
    let (space, time) = (product(0..s), product(s..K::AXES));
    std::array::from_fn(|l| space[l] * time[l])
}
