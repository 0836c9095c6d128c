//! The insert path edits page images; these tests hold it to the rebuild
//! path it replaced (see `support/rebuild.rs`): same pages, same reports,
//! same node I/O, under every split policy, on split-heavy 256-byte and
//! paper-sized 4 KiB pages, from bulk-loaded and grown trees.

#[path = "support/rebuild.rs"]
mod rebuild;

use proptest::prelude::*;
use rebuild::{run, scenario, Raw};
use rtree::{DtaSegmentRecord, NsiSegmentRecord};
use stkit::Interval;

fn nsi(oid: u32, r: &Raw) -> NsiSegmentRecord<2> {
    NsiSegmentRecord::new(oid, 0, Interval::new(r.t0, r.t0 + r.dur), r.a, r.b)
}

fn dta(oid: u32, r: &Raw) -> DtaSegmentRecord<2> {
    DtaSegmentRecord::new(oid, 0, Interval::new(r.t0, r.t0 + r.dur), r.a, r.b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nsi_patched_pages_are_the_rebuilt_pages(sc in scenario()) {
        if let Err(e) = run(&sc, nsi, true) {
            return Err(TestCaseError::fail(e));
        }
    }

    #[test]
    fn dta_patched_pages_are_the_rebuilt_pages(sc in scenario()) {
        if let Err(e) = run(&sc, dta, true) {
            return Err(TestCaseError::fail(e));
        }
    }
}
