//! The write path's staged kernels — ChooseLeaf and Guttman's quadratic
//! split over struct-of-arrays bounds — and what the tree keeps of each
//! page between inserts.
//!
//! Done one key at a time, both kernels decode a box per entry (per pair,
//! for PickSeeds) and branch on emptiness in every `volume` and
//! `cover_volume`. Staged ([`StagedNode`]), the keys sit in blocks of
//! [`LANES`]: per block `2·K::AXES` rows of bounds and one row of the
//! keys' volumes, and every volume or cover volume is a product of side
//! lengths computed a block at a time in straight-line code the compiler
//! vectorises across the lanes. The argmin / argmax scans stay scalar,
//! but look at a block's lanes only when one of them can win.
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
//! **What outlives a call.** The tree keeps one record per page id
//! ([`KeptPage`]): the page's [`PageBound`] and, for an internal node,
//! its entries staged. ChooseLeaf reads internal nodes that change by one
//! or two entries an insert, so a descent computes only the cover
//! volumes; the tree re-stages the one or two lanes an insert edits, and
//! a whole node only when it writes one whole or finds one whose count or
//! stamp is not the record's ([`KeptPage::fresh`]).
//! [`RTree::validate`](crate::RTree::validate) holds every record to its
//! page. The split's [`Stage`] is one more staged node, sized where the
//! tree learns its capacities, and holds nothing between calls: each call
//! overwrites what it reads.

use crate::node::{internal_stride, NodeRef};
use crate::split::SplitResult;
use crate::traits::{Key, Record};
use crate::tree::PageBound;
use storage::PageId;

/// Keys per block: the width the block loops are written for.
const LANES: usize = 4;

/// The most axes a staged key may have; a key type with more takes the
/// scalar kernels.
const MAX_AXES: usize = 4;

/// One key's sides, `lo` and `hi` per axis.
type Sides = ([f64; MAX_AXES], [f64; MAX_AXES]);

/// True iff keys of type `K` are staged: the type opts in and has at
/// most [`MAX_AXES`] axes.
const fn stages<K: Key>() -> bool {
    K::STAGED_SPACE_AXES.is_some() && K::AXES <= MAX_AXES
}

/// Rows a block of `K` keys takes: two per axis, then the volumes.
const fn block_rows<K: Key>() -> usize {
    2 * K::AXES + 1
}

/// Keys staged a block of [`LANES`] at a time, block-major: block `b`'s
/// row `2a` is `rows[b · block_rows + 2a]`, the keys' `axis_lo(a)`, row
/// `2a + 1` their `axis_hi(a)`, and row `2 · K::AXES` their volumes,
/// computed by [`products`]. Every lane from `n` on is NaN, which no
/// comparison selects. Sized once: nothing that fits allocates.
pub(crate) struct StagedNode {
    /// Keys staged.
    n: usize,
    /// Staged keys with a side that is not `lo <= hi`: while there is
    /// one, the node takes the scalar kernels.
    unclean: usize,
    rows: Vec<[f64; LANES]>,
}

impl StagedNode {
    /// Room for `cap` keys, none staged.
    fn new<K: Key>(cap: usize) -> Self {
        StagedNode {
            n: 0,
            unclean: 0,
            rows: vec![[f64::NAN; LANES]; cap.div_ceil(LANES) * block_rows::<K>()],
        }
    }

    /// Stage `n` keys, key `i`'s sides on axis `a` being `side(i, a)`.
    fn stage<K: Key>(&mut self, n: usize, side: impl Fn(usize, usize) -> (f64, f64)) {
        self.rows.fill([f64::NAN; LANES]);
        self.unclean = (0..n)
            .filter(|&i| !self.write_lane::<K>(i, |a| side(i, a)))
            .count();
        (0..n.div_ceil(LANES)).for_each(|b| self.refresh_volumes::<K>(b));
        self.n = n;
    }

    /// Stage every entry of `entries`, a node's entry region.
    fn stage_entries<K: Key>(&mut self, entries: &[u8]) {
        let n = entries.len() / internal_stride::<K>();
        self.stage::<K>(n, |i, a| entry_side::<K>(entries, i, a));
    }

    /// Entry `rekeyed` of `entries` re-keyed and any entry past the staged
    /// ones appended: the node's entry region as an insert's edit just
    /// wrote it, over the one this node staged.
    fn edit<K: Key>(&mut self, entries: &[u8], rekeyed: usize) {
        let (lo, hi) = self.sides::<K>(rekeyed);
        self.unclean -= usize::from(!(0..K::AXES).all(|a| lo[a] <= hi[a]));
        let n = entries.len() / internal_stride::<K>();
        for i in std::iter::once(rekeyed).chain(self.n..n) {
            let clean = self.write_lane::<K>(i, |a| entry_side::<K>(entries, i, a));
            self.unclean += usize::from(!clean);
            self.refresh_volumes::<K>(i / LANES);
        }
        self.n = n;
    }

    /// Lane `i`'s bounds := `side(a)` on each axis `a`; true iff every
    /// side has `lo <= hi`. The lane's volume is not refreshed.
    fn write_lane<K: Key>(&mut self, i: usize, side: impl Fn(usize) -> (f64, f64)) -> bool {
        let block = &mut self.rows[i / LANES * block_rows::<K>()..];
        let mut clean = true;
        for a in 0..K::AXES {
            let (lo, hi) = side(a);
            block[2 * a][i % LANES] = lo;
            block[2 * a + 1][i % LANES] = hi;
            clean &= lo <= hi;
        }
        clean
    }

    /// Staged key `i`'s sides.
    fn sides<K: Key>(&self, i: usize) -> Sides {
        let block = self.block::<K>(i / LANES);
        let (mut lo, mut hi) = ([0.0; MAX_AXES], [0.0; MAX_AXES]);
        for a in 0..K::AXES {
            (lo[a], hi[a]) = (block[2 * a][i % LANES], block[2 * a + 1][i % LANES]);
        }
        (lo, hi)
    }

    /// Block `b`'s rows.
    #[inline(always)]
    fn block<K: Key>(&self, b: usize) -> &[[f64; LANES]] {
        &self.rows[b * block_rows::<K>()..][..block_rows::<K>()]
    }

    /// Block `b`'s volumes from its bounds.
    fn refresh_volumes<K: Key>(&mut self, b: usize) {
        let s = K::STAGED_SPACE_AXES.expect("a staged key type opts in");
        let vol = products::<K>(s, self.block::<K>(b), |_, lo, hi| hi - lo);
        self.rows[b * block_rows::<K>() + 2 * K::AXES] = vol;
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
        for b in 0..self.n.div_ceil(LANES) {
            let block = self.block::<K>(b);
            // `k.cover_volume(key)`: the entry is the receiver.
            let cover = products::<K>(s, block, |a, lo, hi| {
                max_of(hi, qhi[a]) - min_of(lo, qlo[a])
            });
            let vol = &block[2 * K::AXES];
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
}

/// The split's staged keys, in [`StagedNode`]'s layout, and two per-key
/// work rows: the groups' enlargements for the distribution.
pub(crate) struct Stage {
    keys: StagedNode,
    work: [Vec<f64>; 2],
}

impl Stage {
    /// Room for `cap` keys if `K` is staged, for none otherwise: a tree
    /// sizes its stage once, to its largest node plus one, so no split
    /// allocates for it.
    pub(crate) fn new<K: Key>(cap: usize) -> Self {
        let cap = if stages::<K>() { cap } else { 0 };
        let lanes = cap.div_ceil(LANES) * LANES;
        Stage {
            keys: StagedNode::new::<K>(cap),
            work: [vec![0.0; lanes], vec![0.0; lanes]],
        }
    }

    /// Move staged key `from` to position `to`, as `swap_remove` does:
    /// its bounds and work values (the distribution reads no volume).
    fn move_key<K: Key>(&mut self, from: usize, to: usize) {
        let (lo, hi) = self.keys.sides::<K>(from);
        self.keys.write_lane::<K>(to, |a| (lo[a], hi[a]));
        for w in &mut self.work {
            w[to] = w[from];
        }
    }

    /// Guttman's quadratic PickSeeds over `keys`: the first pair, in
    /// `(i, j)` order, wasting the most volume —
    /// [`crate::split::quadratic_seeds`]'s pair. `None` when `K` is not
    /// staged or a key has a side that is not `lo <= hi`.
    pub(crate) fn quadratic_seeds<K: Key>(&mut self, keys: &[K]) -> Option<(usize, usize)> {
        let s = K::STAGED_SPACE_AXES.filter(|_| stages::<K>())?;
        let staged = &mut self.keys;
        staged.stage::<K>(keys.len(), |i, a| (keys[i].axis_lo(a), keys[i].axis_hi(a)));
        if staged.unclean > 0 {
            return None;
        }
        let n = keys.len();
        let mut best = (0, 1);
        let mut best_waste = f64::NEG_INFINITY;
        for i in 0..n {
            let (lo_i, hi_i) = staged.sides::<K>(i);
            let vol_i = staged.block::<K>(i / LANES)[2 * K::AXES][i % LANES];
            for b in (i + 1) / LANES..n.div_ceil(LANES) {
                let block = staged.block::<K>(b);
                // `keys[i].cover_volume(&keys[j])` for the block's `j`.
                let cover = products::<K>(s, block, |a, lo, hi| {
                    max_of(hi_i[a], hi) - min_of(lo_i[a], lo)
                });
                let vol_j = &block[2 * K::AXES];
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
        let mut cover = [seed_a, seed_b].map(|i| self.keys.sides::<K>(i));
        let mut vol = cover.map(|(lo, hi)| volume::<K>(s, &lo, &hi));
        let mut remaining = Vec::with_capacity(n);
        remaining.extend((0..n).filter(|&i| i != seed_a && i != seed_b));
        // Unstage the seeds: the others, in index order, from position 0.
        let (first, second) = (seed_a.min(seed_b), seed_a.max(seed_b));
        for i in first..n - 2 {
            let from = if i + 1 < second { i + 1 } else { i + 2 };
            self.move_key::<K>(from, i);
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
            let (pick_lo, pick_hi) = self.keys.sides::<K>(best_pos);
            let pick = remaining.swap_remove(best_pos);
            self.move_key::<K>(m - 1, best_pos);
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
        for b in 0..m.div_ceil(LANES) {
            let cv = products::<K>(s, self.keys.block::<K>(b), |a, lo, hi| {
                max_of(chi[a], hi) - min_of(clo[a], lo)
            });
            for (e, cv) in enl[b * LANES..][..LANES].iter_mut().zip(cv) {
                *e = cv - vol;
            }
        }
    }
}

/// What the tree keeps of one page, in memory, in its one table by page
/// id: the page's [`PageBound`] and, for an internal node of a key type
/// that is staged, the node's entries staged for ChooseLeaf. A page id
/// names one node for the tree's life, so a record is never another
/// node's.
///
/// Kept equal to the page by the three ways the tree writes a node: whole
/// ([`Self::written`]: split halves, a new root, every node packing
/// writes), edited ([`Self::edited`]: the one entry an insert re-keys and
/// the one it appends; an insert also stamps the leaf it edits, and
/// raises the bound of each page on its path), and read — an internal
/// node staged by no write of this tree, or written behind it, is staged
/// by the next descent that reads it ([`Self::fresh`]).
pub(crate) struct KeptPage {
    pub(crate) bound: PageBound,
    staged: Option<Box<StagedNode>>,
}

impl KeptPage {
    /// `page`'s record in `pages`, the table growing with unknown pages
    /// to hold it.
    pub(crate) fn at(pages: &mut Vec<KeptPage>, page: PageId) -> &mut KeptPage {
        let i = page.0 as usize;
        if pages.len() <= i {
            pages.resize_with(i + 1, || KeptPage {
                bound: PageBound::UNKNOWN,
                staged: None,
            });
        }
        &mut pages[i]
    }

    /// The page written whole, bounded by `bound` (its stamp the
    /// header's), as a node at `level` of `entries` with room for `cap`
    /// entries: an internal node is staged whole.
    pub(crate) fn written<K: Key>(
        &mut self,
        bound: PageBound,
        level: u32,
        cap: usize,
        entries: &[u8],
    ) {
        self.bound = bound;
        if level > 0 && stages::<K>() {
            self.staged
                .get_or_insert_with(|| Box::new(StagedNode::new::<K>(cap)))
                .stage_entries::<K>(entries);
        }
    }

    /// The internal node edited, as [`StagedNode::edit`] says, into
    /// `entries` and stamped `stamp`. The descent that led to the edit
    /// left the staging fresh ([`Self::fresh`]), so only the lanes the
    /// edit touched change.
    pub(crate) fn edited<K: Key>(&mut self, stamp: u64, entries: &[u8], rekeyed: usize) {
        self.bound.stamp = stamp;
        match &mut self.staged {
            Some(staged) => staged.edit::<K>(entries, rekeyed),
            None => debug_assert!(!stages::<K>(), "an edited node the descent did not stage"),
        }
    }

    /// The staging of `node`, an internal node as a descent just read it
    /// with room for `cap` entries, first staged from its bytes when the
    /// tree has none or the staged count or side stamp is not the
    /// header's: a page no write of this tree stamped ([`crate::RTree::reopen`]:
    /// restaged on each read until an insert stamps it), or one rewritten
    /// behind the tree's back. `None` when `K` is not staged.
    pub(crate) fn fresh<K: Key, R: Record<Key = K>>(
        &mut self,
        cap: usize,
        node: &NodeRef<K, R>,
    ) -> Option<&StagedNode> {
        if !stages::<K>() {
            return None;
        }
        let stamp = self.bound.stamp;
        let staged = self
            .staged
            .get_or_insert_with(|| Box::new(StagedNode::new::<K>(cap)));
        if (staged.n, stamp) != (node.len(), node.stamp()) {
            staged.stage_entries::<K>(node.internal_entry_bytes());
        }
        Some(staged)
    }

    /// `Err` naming what of this record differs from `node`, `page` as
    /// read now, with room for `cap` entries if internal: a known side
    /// stamp that is not the header's, or, against a fresh staging of the
    /// page, the staged count or unclean entries, any bound bit (every
    /// lane to the capacity, the NaN past the count included) or a volume
    /// bit — any NaN matching any NaN, which no comparison tells apart.
    pub(crate) fn check<K: Key, R: Record<Key = K>>(
        &self,
        page: PageId,
        cap: usize,
        node: &NodeRef<K, R>,
    ) -> Result<(), String> {
        let stamp = self.bound.stamp;
        if stamp != PageBound::UNKNOWN.stamp && stamp != node.stamp() {
            return Err(format!(
                "node {page}'s side stamp {stamp} is not its header's {}",
                node.stamp()
            ));
        }
        let Some(kept) = &self.staged else {
            return Ok(());
        };
        let mut fresh = StagedNode::new::<K>(cap);
        fresh.stage_entries::<K>(node.internal_entry_bytes());
        let head = |s: &StagedNode| (s.n, s.unclean);
        if head(kept) != head(&fresh) {
            let (kept, fresh) = (head(kept), head(&fresh));
            return Err(format!(
                "node {page}'s staged (count, unclean) {kept:?} against its page's {fresh:?}"
            ));
        }
        let row = |i: usize| i / LANES % block_rows::<K>();
        let same = |i: usize, a: f64, b: f64| {
            a.to_bits() == b.to_bits() || (row(i) == 2 * K::AXES && a.is_nan() && b.is_nan())
        };
        let lanes = kept.rows.iter().flatten().zip(fresh.rows.iter().flatten());
        let Some((i, (kept, now))) = lanes.enumerate().find(|&(i, (a, b))| !same(i, *a, *b)) else {
            return Ok(());
        };
        let entry = i / LANES / block_rows::<K>() * LANES + i % LANES;
        Err(match row(i) {
            r if r < 2 * K::AXES => format!("node {page}'s staged bound {r} of entry {entry}"),
            _ => format!("node {page}'s staged volume of entry {entry}, {kept} against {now}"),
        })
    }
}

/// Entry `i`'s sides on axis `a` in `entries`, a node's `(key, child)`
/// entries of [`internal_stride`] bytes, read straight off the bytes in
/// the encoding [`Key::STAGED_SPACE_AXES`] promises: no key is decoded.
fn entry_side<K: Key>(entries: &[u8], i: usize, a: usize) -> (f64, f64) {
    let at = i * internal_stride::<K>() + 8 * a;
    let bound = |at: usize| {
        let bytes = entries[at..at + 4].try_into().expect("four bytes");
        f64::from(f32::from_le_bytes(bytes))
    };
    (bound(at), bound(at + 4))
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

/// `key`'s sides, a staged key type's, when every side has `lo <= hi`.
fn clean_sides<K: Key>(key: &K) -> Option<Sides> {
    let (mut lo, mut hi) = ([0.0; MAX_AXES], [0.0; MAX_AXES]);
    for a in 0..K::AXES {
        (lo[a], hi[a]) = (key.axis_lo(a), key.axis_hi(a));
    }
    (0..K::AXES).all(|a| lo[a] <= hi[a]).then_some((lo, hi))
}

/// The volume of a box with sides `lo <= hi`, grouped as
/// [`Key::STAGED_SPACE_AXES`] says: the first `s` sides' product times
/// the rest's.
fn volume<K: Key>(s: usize, lo: &[f64; MAX_AXES], hi: &[f64; MAX_AXES]) -> f64 {
    let product = |axes: std::ops::Range<usize>| axes.fold(1.0, |p, a| p * (hi[a] - lo[a]));
    product(0..s) * product(s..K::AXES)
}

/// Per lane of `block`, rows as [`StagedNode`] numbers them: `(Π_{a<s}
/// side(a, lo, hi)) × (Π_{a≥s} side(a, lo, hi))`, `lo`/`hi` that lane's
/// bounds on axis `a` — each group's product folded from `1.0` in axis
/// order.
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
