//! An insert that splits nothing allocates nothing: the descent holds
//! zero-copy views on a stack the tree keeps, and each level is an edit
//! of the tree's one scratch page. A leaf split allocates a fixed number
//! of times whatever the page size: its vectors are sized up front, none
//! grows per key pair or per placement. And packing is serving-grade in
//! memory: the records stay in the caller's slice, and beyond the pages
//! it writes the loader allocates a `u32` permutation, one `f64` sort
//! centre per record and the level above's entries — under 16 bytes per
//! record, where copying `(key, record)` pairs into tiles took over 200.
//! Counted, in calls and in bytes, with a wrapping allocator, per thread
//! so the harness's other threads cannot disturb the count; this file is
//! its own test binary because a global allocator is per binary.

use rtree::bulk::{bulk_load, pack_into, AxisOrder};
use rtree::{Inserted, NsiSegmentRecord, RTree, RTreeConfig, Record};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stkit::Interval;
use storage::{PageStore, Pager};
use tprtree::TprRecord;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's.
// The counters are const-initialized thread-local `Cell<u64>`s: touching
// one neither allocates nor runs a destructor, so it cannot re-enter the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // A grown buffer counts whole: nothing says it grew in place.
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

type R = NsiSegmentRecord<2>;

fn rec(i: u32) -> R {
    let x = f64::from(i % 97) * 10.0;
    let y = f64::from(i / 97) * 10.0;
    R::new(i, 0, Interval::new(0.0, 10.0), [x, y], [x + 3.0, y + 3.0])
}

#[test]
fn packing_allocates_under_16_bytes_a_record_beyond_its_pages() {
    let n = 100_000u32;
    // Start times spread over 211 values, so every axis has work to sort.
    let records: Vec<R> = (0..n)
        .map(|i| {
            let (mut r, t) = (rec(i), f64::from(i % 211));
            r.seg.t = Interval::new(t, t + 10.0);
            r
        })
        .collect();
    // A throwaway tree's first insert sizes this thread's trace ring; the
    // packed tree's one scratch page is counted against the budget.
    RTree::new(Pager::new(), RTreeConfig::default()).insert(rec(n), 0.0);
    let mut tree = RTree::new(Pager::new(), RTreeConfig::default());

    // What the store itself allocates to hold one written page.
    let per_page = {
        let probe = Pager::new();
        let before = BYTES.with(Cell::get);
        let page = probe.alloc();
        probe.write(page, &[0]);
        BYTES.with(Cell::get) - before
    };

    let before = BYTES.with(Cell::get);
    let members = (0..n).collect();
    pack_into(&mut tree, &records, members, AxisOrder::LastFirst, 0.85);
    let allocated = BYTES.with(Cell::get) - before;

    let inv = tree.validate().unwrap();
    assert_eq!(inv.records, u64::from(n));
    let beyond = allocated.saturating_sub(inv.nodes * per_page);
    assert!(
        beyond <= 16 * u64::from(n),
        "packing {n} records allocated {beyond} bytes beyond its {} pages: {:.1} per record",
        inv.nodes,
        beyond as f64 / f64::from(n)
    );
}

#[test]
fn a_no_split_insert_allocates_nothing() {
    no_split_inserts_allocate_nothing(rec);
    // A TPR key's parent fold sees each child key as stored, one trip
    // through the page encoding: that trip allocates nothing either.
    no_split_inserts_allocate_nothing(|i| {
        let p = [f64::from(i % 97) * 10.0, f64::from(i / 97) * 10.0];
        let v = [f64::from(i % 7) - 3.0, f64::from(i % 5) - 2.0];
        TprRecord::new(i, 0, Interval::new(-5.0, 10.0), p, v)
    });
}

fn no_split_inserts_allocate_nothing<R: Record>(rec: impl Fn(u32) -> R) {
    // Height 3 at the paper's page size and bulk fill, like a serving
    // region's tree.
    let mut tree = bulk_load(
        Pager::new(),
        RTreeConfig::default(),
        (0..10_000).map(&rec).collect(),
    );
    assert_eq!(tree.height(), 3);
    // The first insert sizes the scratch page, the descent stack and this
    // thread's trace ring.
    tree.insert(rec(10_000), 0.0);

    let mut unsplit = 0;
    for i in 10_001..10_201 {
        let before = ALLOCATIONS.with(Cell::get);
        let report = tree.insert(rec(i), f64::from(i));
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        if matches!(report.notify, Inserted::Record(_)) {
            assert_eq!(allocated, 0, "insert {i} split nothing yet allocated");
            unsplit += 1;
        }
    }
    assert!(
        unsplit >= 150,
        "only {unsplit} of 200 inserts took the no-split path"
    );
    tree.validate().unwrap();
}

/// The allocation count of every insert, after a warm-up, into a packed
/// tree on `page_size` pages that split a leaf and nothing above it.
fn leaf_split_allocations(page_size: usize) -> Vec<u64> {
    let mut tree = bulk_load(
        Pager::with_page_size(page_size),
        RTreeConfig::default(),
        (0..10_000).map(rec).collect(),
    );
    tree.insert(rec(10_000), 0.0);
    let mut counts = Vec::new();
    for i in 10_001..12_001 {
        let height = tree.height();
        let before = ALLOCATIONS.with(Cell::get);
        let report = tree.insert(rec(i), 0.0);
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        if matches!(report.notify, Inserted::Subtree { level: 0, .. }) && tree.height() == height {
            counts.push(allocated);
        }
    }
    tree.validate().unwrap();
    counts
}

#[test]
fn a_leaf_split_allocates_as_often_on_4_kib_pages_as_on_256_b() {
    // A leaf holds 127 records on 4 KiB pages and 5 on 256 B ones: a
    // split that grew a vector per pair or per placement would allocate
    // more often on the larger page.
    let (small, large) = (leaf_split_allocations(256), leaf_split_allocations(4096));
    assert!(!small.is_empty() && !large.is_empty(), "no leaf split");
    assert!(
        small.iter().chain(&large).all(|&n| n == small[0]),
        "leaf splits allocated {small:?} times on 256 B pages, {large:?} on 4 KiB"
    );
}
