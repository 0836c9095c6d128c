//! An insert that splits nothing allocates nothing: the descent holds
//! zero-copy views on a stack the tree keeps, and each level is an edit
//! of the tree's one scratch page. Counted with a wrapping allocator, per
//! thread so the harness's other threads cannot disturb the count; this
//! file is its own test binary because a global allocator is per binary.

use rtree::bulk::bulk_load;
use rtree::{Inserted, NsiSegmentRecord, RTreeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stkit::Interval;
use storage::Pager;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's. The counter is a
// const-initialized thread-local `Cell<u64>`: touching it neither
// allocates nor runs a destructor, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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
fn a_no_split_insert_allocates_nothing() {
    // Height 3 at the paper's page size and bulk fill, like a serving
    // region's tree.
    let mut tree = bulk_load(
        Pager::new(),
        RTreeConfig::default(),
        (0..10_000).map(rec).collect(),
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
