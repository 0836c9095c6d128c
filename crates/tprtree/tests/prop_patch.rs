//! The TPR leg of the write-path differential (driver and reference in
//! `crates/rtree/tests/support/rebuild.rs`): over [`TpBox`] keys, whose
//! `cover` anchors moving edges and therefore rounds, the page-editing
//! insert must still write the rebuilt pages — and would not, if `TpBox`
//! claimed the exact-join shortcut `StBox` takes.

#[path = "../../rtree/tests/support/rebuild.rs"]
mod rebuild;

use proptest::prelude::*;
use proptest::TestRng;
use rebuild::{run, scenario, Raw};
use rtree::{Key, Record};
use stkit::Interval;
use tprtree::{TpBox, TprRecord};

/// `raw.a` is the position at `t0`; `raw.b - raw.a`, scaled to a speed
/// of at most 2 per axis, is the velocity.
fn tpr(oid: u32, r: &Raw) -> TprRecord {
    let v = [(r.b[0] - r.a[0]) / 100.0, (r.b[1] - r.a[1]) / 100.0];
    TprRecord::new(oid, 0, Interval::new(r.t0, r.t0 + r.dur), r.a, v)
}

/// `RTree::validate` is left out of this leg: `TpBox::contains` compares
/// edges evaluated in floating point, and on the deep trees 256-byte
/// pages build it rejects a parent whose outward-rounded edge lands an
/// ulp inside its child's at one end of the window — under either write
/// path. Byte identity with the rebuild path is what is under test.
const VALIDATES: bool = false;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tpr_patched_pages_are_the_rebuilt_pages(sc in scenario()) {
        if let Err(e) = run(&sc, tpr, VALIDATES) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// [`TpBox`] in every respect but one: it claims its cover is an exact
/// join.
#[derive(Clone, Copy, Debug, PartialEq)]
struct JoinTp(TpBox);

impl Key for JoinTp {
    const ENCODED_LEN: usize = TpBox::ENCODED_LEN;
    const AXES: usize = TpBox::AXES;
    const COVER_IS_EXACT_JOIN: bool = true;

    fn empty() -> Self {
        JoinTp(TpBox::empty())
    }
    fn is_empty(&self) -> bool {
        Key::is_empty(&self.0)
    }
    fn cover(&self, other: &Self) -> Self {
        JoinTp(self.0.cover(&other.0))
    }
    fn intersect(&self, other: &Self) -> Self {
        JoinTp(self.0.intersect(&other.0))
    }
    fn overlaps(&self, other: &Self) -> bool {
        self.0.overlaps(&other.0)
    }
    fn contains(&self, other: &Self) -> bool {
        self.0.contains(&other.0)
    }
    fn volume(&self) -> f64 {
        self.0.volume()
    }
    fn margin(&self) -> f64 {
        self.0.margin()
    }
    fn enlargement(&self, other: &Self) -> f64 {
        self.0.enlargement(&other.0)
    }
    fn axis_lo(&self, axis: usize) -> f64 {
        self.0.axis_lo(axis)
    }
    fn axis_hi(&self, axis: usize) -> f64 {
        self.0.axis_hi(axis)
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf)
    }
    fn decode(buf: &[u8]) -> Self {
        JoinTp(TpBox::decode(buf))
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct JoinTprRecord(TprRecord);

impl Record for JoinTprRecord {
    type Key = JoinTp;
    const ENCODED_LEN: usize = TprRecord::ENCODED_LEN;

    fn key(&self) -> JoinTp {
        JoinTp(self.0.key())
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf)
    }
    fn decode(buf: &[u8]) -> Self {
        JoinTprRecord(TprRecord::decode(buf))
    }
}

/// The differential is what keeps `COVER_IS_EXACT_JOIN` honest: the same
/// scenarios that pass over `TpBox` must catch a `TpBox` that sets it.
#[test]
fn the_union_shortcut_is_caught_on_tpbox() {
    let mut rng = TestRng::keyed("the_union_shortcut_is_caught_on_tpbox");
    let caught = (0..48)
        .filter(|_| {
            let sc = scenario().generate(&mut rng);
            run(&sc, |oid, r| JoinTprRecord(tpr(oid, r)), VALIDATES).is_err()
        })
        .count();
    assert!(
        caught > 0,
        "TpBox's cover rounds; the union shortcut must not pass as the fold"
    );
}
