//! The key and leaf-record abstractions the tree is generic over.

/// A bounding key stored in R-tree entries.
///
/// Keys must support the box algebra the tree's maintenance and search
/// algorithms need, plus a *fixed-width* byte encoding so node capacity is
/// a static function of the page size.
///
/// # Encoding contract
///
/// `encode` must append exactly `ENCODED_LEN` bytes and `decode` must
/// invert it **conservatively**: the decoded key must *contain* the
/// original (lossy narrowing, e.g. `f64 → f32`, has to round bounds
/// outward). Keys derived from already-quantized data round-trip exactly.
pub trait Key: Copy + std::fmt::Debug + PartialEq {
    /// Exact number of bytes appended by [`Self::encode`].
    const ENCODED_LEN: usize;

    /// Number of axes, for bulk-load sorting.
    const AXES: usize;

    /// True iff [`Self::cover`] is an exact lattice join: every bound of
    /// the result is one operand's bound, picked by `min`/`max`, with no
    /// arithmetic. Such a cover is associative, commutative and
    /// idempotent bit for bit over non-empty keys, and commutes with the
    /// outward rounding of [`Self::encode`] — so a node's key after one
    /// entry *grew* to a non-empty key is its stored key `∪` that entry,
    /// and the insert path takes that instead of re-folding the node. (A
    /// cover that ignores an empty operand keeps the later of two empty
    /// keys: no join.) A cover that computes (a TPR box anchoring
    /// its edges) must leave this `false`: its union differs from the
    /// fold in the last bit.
    const COVER_IS_EXACT_JOIN: bool = false;

    /// `Some(s)` iff the write path may run its *staged* ChooseLeaf and
    /// quadratic split over this key type: kernels that read each key
    /// once into struct-of-arrays `f64` bounds and compute every entry's
    /// volume and cover volume in straight-line passes. Opting in
    /// promises that a key is the box of its sides
    /// `[axis_lo(a), axis_hi(a)]`, `a ∈ 0..AXES`; that [`Self::encode`]
    /// writes them first, per axis in order `lo` then `hi` as
    /// little-endian `f32`, and [`Self::decode`] widens each back (the
    /// staged ChooseLeaf reads a page's bounds without decoding a key);
    /// and that whenever every side of both operands has `lo <= hi` (no
    /// NaN, no inverted side):
    ///
    /// * [`Self::volume`] is `(Π_{a<s} (hi − lo)) × (Π_{a≥s} (hi − lo))`,
    ///   each product folded from `1.0` in axis order — `Rect::volume`'s
    ///   grouping, space apart from time;
    /// * [`Self::cover`] takes `lo.min(other.lo)` and `hi.max(other.hi)`
    ///   per side;
    /// * [`Self::cover_volume`] is the volume's two products over the
    ///   cover's sides `hi.max(other.hi) − lo.min(other.lo)`.
    ///
    /// The kernels then make the same `f64` operations in the same order
    /// as those calls, so every value they compare is bit-equal to the
    /// scalar one. A node with any other side (empty, inverted, NaN) and
    /// every key type that keeps the default `None` (a TPR box, whose
    /// cover computes) take the scalar kernels. Which key types qualify
    /// is theirs to declare, never a setting.
    const STAGED_SPACE_AXES: Option<usize> = None;

    /// A key containing nothing; the identity of [`Self::cover`].
    fn empty() -> Self;

    /// True iff the key covers no point.
    fn is_empty(&self) -> bool;

    /// Minimum bounding key of both operands (empty operands ignored).
    fn cover(&self, other: &Self) -> Self;

    /// Componentwise intersection of both operands.
    fn intersect(&self, other: &Self) -> Self;

    /// True iff the keys share at least one point.
    fn overlaps(&self, other: &Self) -> bool;

    /// True iff `other` is fully inside `self`.
    fn contains(&self, other: &Self) -> bool;

    /// Measure (volume) of the key; 0 when empty.
    fn volume(&self) -> f64;

    /// Sum of extent lengths, the R*-style margin.
    fn margin(&self) -> f64;

    /// Volume growth of `self ⊎ other` over `self` — Guttman's
    /// least-enlargement criterion. Must be
    /// `self.cover(other).volume() - self.volume()`, bit for bit: the
    /// write path computes it as [`Self::cover_volume`] minus a volume it
    /// already holds.
    fn enlargement(&self, other: &Self) -> f64;

    /// Volume of `self ⊎ other`: `self.cover(other).volume()`.
    ///
    /// An override may skip building the cover, but must return the same
    /// `f64` bit for bit (`to_bits`-equal, NaN and signed zero included)
    /// for every pair of keys, empty, inverted and infinite bounds
    /// included: the split heuristics and ChooseLeaf compare these values,
    /// so one differing bit can change a partition and with it every page
    /// an insert writes. The contract extends to the staged form
    /// ([`Self::STAGED_SPACE_AXES`]): for a key type that opts in, the
    /// staged cover volume of two keys with no empty side is this value,
    /// bit for bit.
    fn cover_volume(&self, other: &Self) -> f64 {
        self.cover(other).volume()
    }

    /// Lower bound along `axis ∈ 0..AXES` (spatial axes first).
    fn axis_lo(&self, axis: usize) -> f64;

    /// Upper bound along `axis ∈ 0..AXES` (spatial axes first).
    fn axis_hi(&self, axis: usize) -> f64;

    /// Center coordinate along `axis ∈ 0..AXES`, for STR bulk loading and
    /// the linear split's separation heuristic.
    fn center(&self, axis: usize) -> f64 {
        0.5 * (self.axis_lo(axis) + self.axis_hi(axis))
    }

    /// Append exactly [`Self::ENCODED_LEN`] bytes to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode from the first [`Self::ENCODED_LEN`] bytes of `buf`.
    fn decode(buf: &[u8]) -> Self;
}

/// A data record stored at the leaf level.
///
/// Records carry the *exact* geometry (e.g. a motion segment's endpoints)
/// rather than just a bounding box — the §3.2 optimization that lets
/// queries reject false admissions without extra I/O.
///
/// # Encoding contract
///
/// Fixed width, and `decode(encode(r)) == r` **exactly** — callers must
/// quantize coordinates to the on-page precision (`f32`) before
/// constructing records (see `mobiquery`'s ingest path).
pub trait Record: Copy + std::fmt::Debug + PartialEq {
    /// Bounding-key type this record is indexed under.
    type Key: Key;

    /// Exact number of bytes appended by [`Self::encode`].
    const ENCODED_LEN: usize;

    /// The bounding key under which the record is indexed.
    fn key(&self) -> Self::Key;

    /// An upper bound on the instant the record's motion starts, which
    /// the tree folds into a per-page bound ([`crate::RTree::latest_start`]).
    /// The default, `+∞`, bounds nothing: a query may never take a page
    /// of such records as started.
    fn start_bound(&self) -> f64 {
        f64::INFINITY
    }

    /// An upper bound on the record's speed along any one spatial axis,
    /// `max_i |v_i|` of the motion [`Self::decode`] rebuilds, which the
    /// tree folds into a per-page bound ([`crate::RTree::page_bound`]).
    /// The default, `+∞`, bounds nothing: a query may never take such a
    /// record as slow.
    fn speed_bound(&self) -> f64 {
        f64::INFINITY
    }

    /// Append exactly [`Self::ENCODED_LEN`] bytes to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode from the first [`Self::ENCODED_LEN`] bytes of `buf`.
    fn decode(buf: &[u8]) -> Self;
}
