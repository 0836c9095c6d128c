//! Leaf records for motion segments under both index layouts.
//!
//! §3.2: "at the leaf level of the index structure, actual motion segments
//! are represented via their end points, not their BBs" — so both record
//! types serialize the segment's validity interval and its two endpoint
//! positions (plus object id and update sequence number), and derive the
//! bounding key on demand.
//!
//! * [`NsiSegmentRecord`] — native space indexing: key is the space-time
//!   box `StBox<D, 1>` (§3.2).
//! * [`DtaSegmentRecord`] — double temporal axes: key is `StBox<D, 2>`
//!   with the validity endpoints on two independent axes (§4.2 Fig. 5(b)).
//!
//! For `D = 2` both records are 32 bytes, which on 4 KiB pages with a
//! 32-byte node header reproduces the paper's leaf fanout of 127.

use crate::stbox_key::quantize;
use crate::traits::Record;
use stkit::{Interval, MotionSegment, StBox};

/// Identifier of a mobile object.
pub type ObjectId = u32;

macro_rules! segment_record {
    ($(#[$doc:meta])* $name:ident, $taxes:literal, $keyfn:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub struct $name<const D: usize> {
            /// The motion segment (one update of one object).
            pub seg: MotionSegment<D>,
            /// Which object this motion belongs to.
            pub oid: ObjectId,
            /// Sequence number of the update within the object's history.
            pub seq: u32,
        }

        impl<const D: usize> $name<D> {
            /// Build a record, quantizing all coordinates to the on-page
            /// `f32` precision so the page encoding round-trips exactly.
            pub fn new(
                oid: ObjectId,
                seq: u32,
                t: Interval,
                from: [f64; D],
                to: [f64; D],
            ) -> Self {
                let t = Interval::new(quantize(t.lo), quantize(t.hi));
                let from = from.map(quantize);
                let to = to.map(quantize);
                $name {
                    seg: MotionSegment::from_endpoints(t, from, to),
                    oid,
                    seq,
                }
            }
        }

        impl<const D: usize> Record for $name<D> {
            type Key = StBox<D, $taxes>;

            // t_lo, t_hi + 2·D endpoint coords (f32) + oid + seq.
            const ENCODED_LEN: usize = 8 + 8 * D + 8;

            fn key(&self) -> Self::Key {
                self.seg.$keyfn()
            }

            fn start_bound(&self) -> f64 {
                self.seg.t.lo
            }

            // `seg.v` is the velocity `decode` rebuilds from the page's
            // `f32` endpoints, by the encoding contract.
            fn speed_bound(&self) -> f64 {
                let v = &self.seg.v;
                if v.iter().any(|x| x.is_nan()) {
                    return f64::INFINITY;
                }
                v.iter().fold(0.0, |m, x| m.max(x.abs()))
            }

            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&(self.seg.t.lo as f32).to_le_bytes());
                buf.extend_from_slice(&(self.seg.t.hi as f32).to_le_bytes());
                let end = self.seg.end_position();
                for i in 0..D {
                    buf.extend_from_slice(&(self.seg.x0[i] as f32).to_le_bytes());
                }
                for i in 0..D {
                    buf.extend_from_slice(&(end[i] as f32).to_le_bytes());
                }
                buf.extend_from_slice(&self.oid.to_le_bytes());
                buf.extend_from_slice(&self.seq.to_le_bytes());
            }

            // Every leaf entry an engine visits is decoded here; `inline`
            // keeps that independent of which codegen unit the
            // downstream crate's instantiation of the engine lands in.
            #[inline]
            fn decode(buf: &[u8]) -> Self {
                let f = |o: usize| f32::from_le_bytes(buf[o..o + 4].try_into().unwrap()) as f64;
                let t = Interval::new(f(0), f(4));
                let mut from = [0.0; D];
                let mut to = [0.0; D];
                for i in 0..D {
                    from[i] = f(8 + 4 * i);
                    to[i] = f(8 + 4 * D + 4 * i);
                }
                let off = 8 + 8 * D;
                let oid = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
                let seq = u32::from_le_bytes(buf[off + 4..off + 8].try_into().unwrap());
                $name {
                    seg: MotionSegment::from_endpoints(t, from, to),
                    oid,
                    seq,
                }
            }
        }
    };
}

segment_record!(
    /// A motion segment indexed under native space indexing (NSI, §3.2):
    /// spatial bounding box × validity interval on one temporal axis.
    NsiSegmentRecord,
    1,
    nsi_box
);

segment_record!(
    /// A motion segment indexed under the double-temporal-axes layout of
    /// §4.2: spatial bounding box × the point `(t_l, t_h)` on independent
    /// start/end axes, enabling NPDQ discardability.
    DtaSegmentRecord,
    2,
    dta_box
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Key;

    fn rec(oid: u32) -> NsiSegmentRecord<2> {
        NsiSegmentRecord::new(
            oid,
            3,
            Interval::new(1.25, 2.5),
            [0.5, -1.5],
            [4.0, 2.0],
        )
    }

    #[test]
    fn encoded_len_matches_paper_fanout() {
        assert_eq!(<NsiSegmentRecord<2> as Record>::ENCODED_LEN, 32);
        assert_eq!(<DtaSegmentRecord<2> as Record>::ENCODED_LEN, 32);
        // 4096-byte page, 32-byte header ⇒ 127 leaf records (paper §5).
        assert_eq!((4096 - 32) / 32, 127);
        // Internal entry: 24-byte NSI key + 4-byte child ⇒ 145 (paper §5).
        assert_eq!((4096 - 32) / (<StBox<2, 1> as Key>::ENCODED_LEN + 4), 145);
    }

    #[test]
    fn roundtrip_is_exact() {
        let r = rec(42);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), <NsiSegmentRecord<2> as Record>::ENCODED_LEN);
        assert_eq!(NsiSegmentRecord::<2>::decode(&buf), r);
    }

    #[test]
    fn roundtrip_exact_with_unrepresentable_input() {
        // 0.1 is not an f32 value; the constructor quantizes, so the
        // record equals its own page roundtrip.
        let r = NsiSegmentRecord::<2>::new(1, 0, Interval::new(0.1, 0.3), [0.1, 0.2], [0.7, 0.9]);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(NsiSegmentRecord::<2>::decode(&buf), r);
    }

    #[test]
    fn keys_differ_between_layouts() {
        let n = NsiSegmentRecord::<2>::new(1, 0, Interval::new(2.0, 5.0), [0.0, 0.0], [3.0, 3.0]);
        let d = DtaSegmentRecord::<2>::new(1, 0, Interval::new(2.0, 5.0), [0.0, 0.0], [3.0, 3.0]);
        let nk = n.key();
        let dk = d.key();
        assert_eq!(nk.time.extent(0), Interval::new(2.0, 5.0));
        assert_eq!(dk.time.extent(0), Interval::point(2.0));
        assert_eq!(dk.time.extent(1), Interval::point(5.0));
        assert_eq!(nk.space, dk.space);
    }

    #[test]
    fn key_covers_trajectory() {
        let r = rec(7);
        let k = r.key();
        assert!(k.space.contains_point(&r.seg.x0));
        assert!(k.space.contains_point(&r.seg.end_position()));
    }

    #[test]
    fn dta_roundtrip() {
        let d = DtaSegmentRecord::<2>::new(9, 1, Interval::new(0.5, 1.5), [1.0, 2.0], [3.0, 4.0]);
        let mut buf = Vec::new();
        d.encode(&mut buf);
        assert_eq!(DtaSegmentRecord::<2>::decode(&buf), d);
    }
}
