//! [`Key`] implementation for [`stkit::StBox`] with outward-rounding `f32`
//! page encoding.

use crate::traits::Key;
use stkit::{Interval, Rect, StBox};

/// Narrow a lower bound to `f32`, rounding towards −∞ so the decoded box
/// can only grow.
#[inline]
pub fn f32_down(x: f64) -> f32 {
    let y = x as f32;
    if (y as f64) > x {
        y.next_down()
    } else {
        y
    }
}

/// Narrow an upper bound to `f32`, rounding towards +∞ so the decoded box
/// can only grow.
#[inline]
pub fn f32_up(x: f64) -> f32 {
    let y = x as f32;
    if (y as f64) < x {
        y.next_up()
    } else {
        y
    }
}

/// Quantize an arbitrary coordinate to the on-page precision (`f32`,
/// round-to-nearest). Data ingested through this function round-trips the
/// page encoding exactly.
#[inline]
pub fn quantize(x: f64) -> f64 {
    (x as f32) as f64
}

fn encode_interval_lo_hi(iv: &Interval, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&f32_down(iv.lo).to_le_bytes());
    buf.extend_from_slice(&f32_up(iv.hi).to_le_bytes());
}

fn decode_interval(buf: &[u8]) -> Interval {
    let lo = f32::from_le_bytes(buf[0..4].try_into().unwrap()) as f64;
    let hi = f32::from_le_bytes(buf[4..8].try_into().unwrap()) as f64;
    Interval::new(lo, hi)
}

impl<const D: usize, const T: usize> Key for StBox<D, T> {
    const ENCODED_LEN: usize = (D + T) * 8;
    const AXES: usize = D + T;
    // `StBox::cover` is per-bound `min`/`max`.
    const COVER_IS_EXACT_JOIN: bool = true;
    // `StBox::volume` is `space.volume() * time.volume()`, each
    // `Rect::volume` a product of side lengths folded from 1.0; the
    // cover is per-bound `min`/`max`, and `cover_volume` below multiplies
    // the cover's sides in that grouping.
    const STAGED_SPACE_AXES: Option<usize> = Some(D);

    fn empty() -> Self {
        StBox::EMPTY
    }

    fn is_empty(&self) -> bool {
        StBox::is_empty(self)
    }

    fn cover(&self, other: &Self) -> Self {
        StBox::cover(self, other)
    }

    fn intersect(&self, other: &Self) -> Self {
        StBox::intersect(self, other)
    }

    fn overlaps(&self, other: &Self) -> bool {
        StBox::overlaps(self, other)
    }

    fn contains(&self, other: &Self) -> bool {
        StBox::contains(self, other)
    }

    fn volume(&self) -> f64 {
        StBox::volume(self)
    }

    fn margin(&self) -> f64 {
        StBox::margin(self)
    }

    fn enlargement(&self, other: &Self) -> f64 {
        StBox::enlargement(self, other)
    }

    /// `StBox::cover` then `StBox::volume`, without the cover: for two
    /// non-empty boxes each side of the cover is `min`/`max` of the
    /// operands' bounds, and the volume multiplies the sides' lengths in
    /// `Rect::volume`'s order, space and time apart, so every operation
    /// is the one the two calls make. An empty operand makes the cover
    /// the other box: that case takes the default.
    #[inline]
    fn cover_volume(&self, other: &Self) -> f64 {
        if StBox::is_empty(self) || StBox::is_empty(other) {
            return StBox::cover(self, other).volume();
        }
        fn side<const N: usize>(a: &Rect<N>, b: &Rect<N>) -> f64 {
            a.dims
                .iter()
                .zip(&b.dims)
                .map(|(a, b)| a.hi.max(b.hi) - a.lo.min(b.lo))
                .product()
        }
        side(&self.space, &other.space) * side(&self.time, &other.time)
    }

    fn axis_lo(&self, axis: usize) -> f64 {
        if axis < D {
            self.space.extent(axis).lo
        } else {
            self.time.extent(axis - D).lo
        }
    }

    fn axis_hi(&self, axis: usize) -> f64 {
        if axis < D {
            self.space.extent(axis).hi
        } else {
            self.time.extent(axis - D).hi
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        for i in 0..D {
            encode_interval_lo_hi(&self.space.extent(i), buf);
        }
        for i in 0..T {
            encode_interval_lo_hi(&self.time.extent(i), buf);
        }
    }

    fn decode(buf: &[u8]) -> Self {
        let mut space = [Interval::EMPTY; D];
        let mut time = [Interval::EMPTY; T];
        let mut off = 0;
        for s in space.iter_mut() {
            *s = decode_interval(&buf[off..off + 8]);
            off += 8;
        }
        for t in time.iter_mut() {
            *t = decode_interval(&buf[off..off + 8]);
            off += 8;
        }
        StBox::new(Rect::new(space), Rect::new(time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Nsi2 = StBox<2, 1>;

    fn sample() -> Nsi2 {
        StBox::new(
            Rect::from_corners([1.0, 2.0], [3.0, 4.0]),
            Rect::new([Interval::new(5.0, 6.0)]),
        )
    }

    #[test]
    fn encoded_len_matches() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        assert_eq!(buf.len(), <Nsi2 as Key>::ENCODED_LEN);
        assert_eq!(<Nsi2 as Key>::ENCODED_LEN, 24);
        assert_eq!(<StBox<2, 2> as Key>::ENCODED_LEN, 32);
    }

    #[test]
    fn roundtrip_exact_for_f32_values() {
        let b = sample();
        let mut buf = Vec::new();
        b.encode(&mut buf);
        assert_eq!(Nsi2::decode(&buf), b);
    }

    #[test]
    fn narrowing_rounds_outward() {
        // A value not representable in f32: the decoded box must contain it.
        let x = 0.1f64 + 1e-12;
        let b: Nsi2 = StBox::new(
            Rect::from_corners([x, x], [x, x]),
            Rect::new([Interval::point(x)]),
        );
        let mut buf = Vec::new();
        b.encode(&mut buf);
        let d = Nsi2::decode(&buf);
        assert!(d.space.contains_point(&[x, x]));
        assert!(d.time.extent(0).contains(x));
        assert!(d.contains(&b));
    }

    #[test]
    fn rounding_helpers() {
        for &x in &[0.1, -0.1, 1.0e30, -1.0e30, 0.0, 123.456] {
            assert!((f32_down(x) as f64) <= x, "down({x})");
            assert!((f32_up(x) as f64) >= x, "up({x})");
        }
        // Exact f32 values pass through unchanged.
        assert_eq!(f32_down(1.5), 1.5f32);
        assert_eq!(f32_up(1.5), 1.5f32);
        assert_eq!(quantize(1.5), 1.5);
    }

    #[test]
    fn infinities_survive_encoding() {
        let b: Nsi2 = StBox::new(
            Rect::from_corners([f64::NEG_INFINITY, 0.0], [f64::INFINITY, 1.0]),
            Rect::new([Interval::new(0.0, f64::INFINITY)]),
        );
        let mut buf = Vec::new();
        b.encode(&mut buf);
        let d = Nsi2::decode(&buf);
        assert_eq!(d.space.extent(0).lo, f64::NEG_INFINITY);
        assert_eq!(d.space.extent(0).hi, f64::INFINITY);
        assert_eq!(d.time.extent(0).hi, f64::INFINITY);
    }

    #[test]
    fn center_spans_space_then_time() {
        let b = sample();
        assert_eq!(Key::center(&b, 0), 2.0);
        assert_eq!(Key::center(&b, 1), 3.0);
        assert_eq!(Key::center(&b, 2), 5.5);
        assert_eq!(<Nsi2 as Key>::AXES, 3);
    }
}
