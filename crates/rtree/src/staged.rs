//! The write path's staged kernels: ChooseLeaf and Guttman's quadratic
//! split over struct-of-arrays bounds.
//!
//! Done one key at a time, both kernels decode a box per entry (per pair,
//! for PickSeeds) and branch on emptiness in every `volume` and
//! `cover_volume`. Staged, the keys' bounds sit in blocks of [`LANES`]
//! keys, one row per bound, and every key's volume or cover volume is a
//! product of side lengths computed a block at a time in straight-line
//! code the compiler vectorises across the lanes. The argmin / argmax
//! scans stay scalar, but look at a block's lanes only when one of them
//! can win.
//!
//! **Exactness.** A key type opts in through [`Key::STAGED_SPACE_AXES`],
//! and a node is chosen from or split staged only when every side of
//! every key, the inserted one included, has `lo <= hi` — no NaN, no
//! inverted side: the case in which `volume` and `cover_volume` reduce to
//! products of `hi − lo` with no branch. Each lane then makes the same
//! `f64` operations, on the same operands in the same order, as those
//! calls: each group's product folded from `1.0` in axis order, space
//! times time, then the scalar kernels' subtractions. The one rewrite is
//! `max`/`min` of two bounds, a compare and select ([`max_of`],
//! [`min_of`]) where `f64::max`/`min` also handle NaN, which no staged
//! bound is: on x86-64 the two compile to the same instruction and return
//! the same bits. Elsewhere a `±0` tie may come out as the other zero,
//! and the values built from it differ at most in a zero's sign. Nothing
//! the kernels compute is returned, and the volumes a kept node stores
//! (below) are, like every other value, only compared, by the scalar
//! kernels' own rules — and no comparison sees a zero's sign — so every
//! choice and every split is the scalar one. Every other node
//! and key type takes the scalar kernels in [`crate::split`] and
//! [`crate::tree`], which `tests/prop_kernels.rs` holds the staged ones
//! to, choice for choice.
//!
//! **What outlives a call.** ChooseLeaf reads internal nodes that change
//! by one or two entries an insert, so the tree keeps each one staged
//! between inserts ([`StagedNodes`]): its entries' bounds as the page
//! stores them, and each entry's volume. A descent then computes only
//! the cover volumes; the tree re-stages the one or two lanes an insert
//! edits, and a whole node only when it writes one whole or finds one it
//! has not staged or that changed behind it ([`StagedNodes::fresh`]).
//! [`RTree::validate`](crate::RTree::validate) holds every kept node to a
//! fresh staging of its page. The split's [`Stage`] holds nothing
//! between calls: each call overwrites what it reads. A tree keeps one,
//! sized once to its largest node.

use crate::node::{internal_stride, NodeRef};
use crate::split::SplitResult;
use crate::traits::{Key, Record};
use storage::PageId;

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
    /// Keys staged by the last [`Self::load_keys`].
    n: usize,
    blocks: Vec<Block>,
    work: [Vec<f64>; 2],
}

impl Stage {
    /// Grow the stage to `cap` keys if it holds fewer and `K` is staged
    /// at all. A tree calls this on every insert, so its first insert
    /// sizes the stage and no split allocates for it.
    pub(crate) fn reserve<K: Key>(&mut self, cap: usize) {
        let blocks = cap.div_ceil(LANES);
        if StagedNodes::keeps::<K>() && blocks > self.blocks.len() {
            self.blocks.resize(blocks, [[0.0; LANES]; 2 * MAX_AXES]);
            self.work
                .iter_mut()
                .for_each(|w| w.resize(blocks * LANES, 0.0));
        }
    }

    /// Stage `keys`, growing the stage to `cap` keys if it holds fewer;
    /// the lanes past the last key are NaN, which no comparison selects.
    /// False when `K` has more than [`MAX_AXES`] axes or a key a side
    /// that is not `lo <= hi`: then nothing staged may be used.
    fn load_keys<K: Key>(&mut self, cap: usize, keys: &[K]) -> bool {
        if K::AXES > MAX_AXES {
            return false;
        }
        let n = keys.len();
        self.reserve::<K>(cap.max(n));
        let mut clean = true;
        for (i, k) in keys.iter().enumerate() {
            let block = &mut self.blocks[i / LANES];
            for a in 0..K::AXES {
                let (lo, hi) = (k.axis_lo(a), k.axis_hi(a));
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

    /// Move staged key `from` to position `to`, as `swap_remove` does.
    fn move_key(&mut self, from: usize, to: usize) {
        for r in 0..2 * MAX_AXES {
            self.blocks[to / LANES][r][to % LANES] = self.blocks[from / LANES][r][from % LANES];
        }
        for w in &mut self.work {
            w[to] = w[from];
        }
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

/// One internal node kept staged between inserts: its entries' bounds
/// in [`Stage`]'s blocks, but only the `2 · K::AXES` rows the key type
/// has, and each entry's volume, computed by the same per-lane
/// [`products`] the split's PickSeeds uses. Sized once to the node's
/// capacity: no edit that fits the page allocates.
pub(crate) struct StagedNode {
    /// Entries staged: the node's count when the tree last wrote or
    /// staged it.
    n: usize,
    /// The node's stamp then ([`NodeRef::stamp`]).
    stamp: u64,
    /// Staged entries with a side that is not `lo <= hi`: while there is
    /// one, the node takes the scalar kernel.
    unclean: usize,
    /// Bounds, block-major: block `b`'s row `r`, as [`Block`] numbers
    /// rows, is `rows[b · 2·K::AXES + r]`. Every lane from `n` on is NaN,
    /// which no comparison selects.
    rows: Vec<[f64; LANES]>,
    /// Each staged entry's volume, a block per element.
    vols: Vec<[f64; LANES]>,
}

impl StagedNode {
    /// Room for `cap` entries, none staged.
    fn new<K: Key>(cap: usize) -> Self {
        let blocks = cap.div_ceil(LANES);
        StagedNode {
            n: 0,
            stamp: 0,
            unclean: 0,
            rows: vec![[f64::NAN; LANES]; blocks * 2 * K::AXES],
            vols: vec![[f64::NAN; LANES]; blocks],
        }
    }

    /// Stage every entry of `entries`, a node's entry region stamped
    /// `stamp`: `(key, child)` entries of [`internal_stride`] bytes whose
    /// bounds are read straight off the bytes, in the encoding
    /// [`Key::STAGED_SPACE_AXES`] promises; no key is decoded.
    fn stage<K: Key>(&mut self, stamp: u64, entries: &[u8]) {
        let n = entries.len() / internal_stride::<K>();
        self.rows.fill([f64::NAN; LANES]);
        self.unclean = (0..n).filter(|&i| !self.write_lane::<K>(i, entries)).count();
        (0..n.div_ceil(LANES)).for_each(|b| self.refresh_volumes::<K>(b));
        (self.n, self.stamp) = (n, stamp);
    }

    /// Entry `rekeyed` of `entries` re-keyed and, when `pushed`, one entry
    /// appended to them: the node's entry region as an edit stamped
    /// `stamp` just wrote it, over the one this node staged.
    fn edit<K: Key>(&mut self, stamp: u64, entries: &[u8], rekeyed: usize, pushed: bool) {
        let was_clean = self.lane_clean::<K>(rekeyed);
        let clean = self.write_lane::<K>(rekeyed, entries);
        self.unclean = self.unclean + usize::from(!clean) - usize::from(!was_clean);
        self.refresh_volumes::<K>(rekeyed / LANES);
        if pushed {
            let last = self.n;
            self.unclean += usize::from(!self.write_lane::<K>(last, entries));
            self.refresh_volumes::<K>(last / LANES);
            self.n += 1;
        }
        debug_assert_eq!(self.n, entries.len() / internal_stride::<K>());
        self.stamp = stamp;
    }

    /// Lane `i` := entry `i` of `entries`; true iff its every side has
    /// `lo <= hi`.
    fn write_lane<K: Key>(&mut self, i: usize, entries: &[u8]) -> bool {
        let entry = &entries[i * internal_stride::<K>()..];
        let rows = &mut self.rows[i / LANES * 2 * K::AXES..][..2 * K::AXES];
        for (r, row) in rows.iter_mut().enumerate() {
            let bytes = entry[4 * r..4 * r + 4].try_into().expect("four bytes");
            row[i % LANES] = f64::from(f32::from_le_bytes(bytes));
        }
        self.lane_clean::<K>(i)
    }

    /// True iff every side of lane `i` has `lo <= hi`.
    fn lane_clean<K: Key>(&self, i: usize) -> bool {
        let rows = &self.rows[i / LANES * 2 * K::AXES..][..2 * K::AXES];
        (0..K::AXES).all(|a| rows[2 * a][i % LANES] <= rows[2 * a + 1][i % LANES])
    }

    /// Block `b`'s rows.
    #[inline(always)]
    fn block<K: Key>(&self, b: usize) -> &[[f64; LANES]] {
        &self.rows[b * 2 * K::AXES..][..2 * K::AXES]
    }

    /// Block `b`'s volumes from its bounds.
    fn refresh_volumes<K: Key>(&mut self, b: usize) {
        let s = K::STAGED_SPACE_AXES.expect("a kept key type is staged");
        self.vols[b] = products::<K>(s, self.block::<K>(b), |_, lo, hi| hi - lo);
    }

    /// ChooseLeaf's criterion over the staged entries for the inserted
    /// `key`: least enlargement, ties by smaller volume, then by position
    /// — [`crate::tree::choose_subtree`]'s choice, from the kept volumes
    /// and one cover volume an entry. `None` when an entry or `key` has a
    /// side that is not `lo <= hi`: the caller runs the scalar kernel.
    pub(crate) fn choose<K: Key>(&self, key: &K) -> Option<usize> {
        let s = K::STAGED_SPACE_AXES?;
        if self.unclean > 0 {
            return None;
        }
        let (qlo, qhi) = clean_sides(key)?;
        let mut best = (0, f64::INFINITY, f64::INFINITY);
        for (b, vol) in self.vols[..self.n.div_ceil(LANES)].iter().enumerate() {
            // `k.cover_volume(key)`: the entry is the receiver.
            let cover = products::<K>(s, self.block::<K>(b), |a, lo, hi| {
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

    /// What of this node differs from `fresh`, a staging of its page now:
    /// the count, stamp or unclean entries, any bound bit (every lane to
    /// the capacity, the NaN past `n` included), or a staged entry's
    /// volume bit — any NaN matching any NaN, which no comparison tells
    /// apart.
    fn differs<K: Key>(&self, fresh: &StagedNode) -> Option<String> {
        let head = |s: &StagedNode| (s.n, s.stamp, s.unclean);
        if head(self) != head(fresh) {
            return Some(format!(
                "(count, stamp, unclean) {:?} against its page's {:?}",
                head(self),
                head(fresh)
            ));
        }
        let bits = |s: &StagedNode| s.rows.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
        if let Some(i) = bits(self).iter().zip(bits(fresh)).position(|(a, b)| *a != b) {
            let (block, lane) = (i / LANES / (2 * K::AXES), i % LANES);
            return Some(format!("bound {} of entry {}", i / LANES % (2 * K::AXES), block * LANES + lane));
        }
        let volume = |s: &StagedNode, i: usize| s.vols[i / LANES][i % LANES];
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        (0..self.n)
            .find(|&i| !same(volume(self, i), volume(fresh, i)))
            .map(|i| format!("volume of entry {i}, {} against {}", volume(self, i), volume(fresh, i)))
    }
}

/// The internal nodes a tree keeps staged, by page id: none for a key
/// type that does not opt in ([`Key::STAGED_SPACE_AXES`]) or has more
/// than [`MAX_AXES`] axes, and none for a leaf. A page id names one node
/// for the tree's life, so an entry is never another node's.
///
/// Kept equal to the pages by the three ways the tree writes an internal
/// node: whole ([`Self::written`]: split halves, a new root, every node
/// packing writes), edited ([`Self::edited`]: the one entry an insert
/// re-keys and the one it appends), and read — a page staged by no write
/// of this tree, or written behind it, is staged by the next descent
/// that reads it ([`Self::fresh`]).
#[derive(Default)]
pub(crate) struct StagedNodes(Vec<Option<Box<StagedNode>>>);

impl StagedNodes {
    /// True iff a tree keyed by `K` keeps its internal nodes staged.
    const fn keeps<K: Key>() -> bool {
        K::STAGED_SPACE_AXES.is_some() && K::AXES <= MAX_AXES
    }

    /// `page`'s node, allocated for `cap` entries if the tree has none.
    fn slot<K: Key>(&mut self, page: PageId, cap: usize) -> &mut StagedNode {
        let i = page.0 as usize;
        if self.0.len() <= i {
            self.0.resize_with(i + 1, || None);
        }
        self.0[i].get_or_insert_with(|| Box::new(StagedNode::new::<K>(cap)))
    }

    /// `page`'s staged node, fresh for `node`, the page as a descent just
    /// read it: first staged from its bytes when the tree has none or one
    /// whose count or stamp is not the page's — a page no write of this
    /// tree staged ([`crate::RTree::reopen`]), or one rewritten behind its
    /// back. `None` when `K` is not kept.
    pub(crate) fn fresh<K: Key, R: Record<Key = K>>(
        &mut self,
        page: PageId,
        cap: usize,
        node: &NodeRef<K, R>,
    ) -> Option<&StagedNode> {
        if !Self::keeps::<K>() {
            return None;
        }
        let staged = self.slot::<K>(page, cap);
        if (staged.n, staged.stamp) != (node.len(), node.stamp()) {
            staged.stage::<K>(node.stamp(), node.internal_entry_bytes());
        }
        Some(staged)
    }

    /// `page` written whole as an internal node of `entries`, stamped
    /// `stamp`: stage all of it.
    pub(crate) fn written<K: Key>(&mut self, page: PageId, cap: usize, stamp: u64, entries: &[u8]) {
        if Self::keeps::<K>() {
            self.slot::<K>(page, cap).stage::<K>(stamp, entries);
        }
    }

    /// `page` edited, as [`StagedNode::edit`] says, into `entries`,
    /// stamped `stamp`. The descent that led to the edit left the node
    /// fresh ([`Self::fresh`]), so only the lanes the edit touched change.
    pub(crate) fn edited<K: Key>(
        &mut self,
        page: PageId,
        stamp: u64,
        entries: &[u8],
        rekeyed: usize,
        pushed: bool,
    ) {
        if let Some(staged) = self.0.get_mut(page.0 as usize).and_then(Option::as_mut) {
            staged.edit::<K>(stamp, entries, rekeyed, pushed);
        } else {
            debug_assert!(!Self::keeps::<K>(), "an edited node the descent did not stage");
        }
    }

    /// `Err` naming what of `page`'s kept node differs from a fresh
    /// staging of `node`, the page as read now; `Ok` when they are equal
    /// or the tree keeps none for `page`.
    pub(crate) fn check<K: Key, R: Record<Key = K>>(
        &self,
        page: PageId,
        cap: usize,
        node: &NodeRef<K, R>,
    ) -> Result<(), String> {
        let Some(kept) = self.0.get(page.0 as usize).and_then(Option::as_deref) else {
            return Ok(());
        };
        let mut fresh = StagedNode::new::<K>(cap);
        fresh.stage::<K>(node.stamp(), node.internal_entry_bytes());
        match kept.differs::<K>(&fresh) {
            Some(what) => Err(format!("node {page}'s staged {what}")),
            None => Ok(()),
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

/// Per lane of `block`, rows as [`Block`] numbers them: `(Π_{a<s} side(a,
/// lo, hi)) × (Π_{a≥s} side(a, lo, hi))`, `lo`/`hi` that lane's bounds on
/// axis `a` — each group's product folded from `1.0` in axis order.
#[inline(always)]
fn products<K: Key>(
    s: usize,
    block: &[[f64; LANES]],
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
