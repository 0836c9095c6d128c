//! Property-based tests: the buffer pool is observationally equivalent
//! to the raw pager under arbitrary operation sequences, and every store
//! stack grants page ids densely, `0, 1, 2, …`.

use proptest::prelude::*;
use storage::{ChecksumStore, FaultPlan, FaultyStore, PageId, PageStore, Pager, ShardedBufferPool};

#[derive(Clone, Debug)]
enum Op {
    Alloc,
    /// Write to the i-th live page (mod live count) with this fill byte.
    Write(usize, u8),
    /// Read the i-th live page and compare.
    Read(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Alloc),
        (0usize..64, any::<u8>()).prop_map(|(i, b)| Op::Write(i, b)),
        (0usize..64).prop_map(Op::Read),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn buffer_pool_equivalent_to_pager(ops in proptest::collection::vec(op(), 1..120), cap in 1usize..16) {
        let raw = Pager::with_page_size(64);
        let pool = ShardedBufferPool::new(Pager::with_page_size(64), cap, 1);
        let mut raw_pages = Vec::new();
        let mut pool_pages = Vec::new();
        for op in &ops {
            match op {
                Op::Alloc => {
                    raw_pages.push(raw.alloc());
                    pool_pages.push(pool.alloc());
                }
                Op::Write(i, b) => {
                    if raw_pages.is_empty() { continue; }
                    let i = i % raw_pages.len();
                    let data = vec![*b; 17];
                    raw.write(raw_pages[i], &data);
                    pool.write(pool_pages[i], &data);
                }
                Op::Read(i) => {
                    if raw_pages.is_empty() { continue; }
                    let i = i % raw_pages.len();
                    prop_assert_eq!(&raw.read_page(raw_pages[i])[..], &pool.read_page(pool_pages[i])[..]);
                }
            }
        }
        // Final sweep: every live page identical through both paths.
        for (r, p) in raw_pages.iter().zip(&pool_pages) {
            prop_assert_eq!(&raw.read_page(*r)[..], &pool.read_page(*p)[..]);
        }
        // Flush and compare against the pool's *underlying* pager too.
        pool.flush();
        for p in &pool_pages {
            prop_assert_eq!(&pool.read_page(*p)[..], &pool.inner().read_page(*p)[..]);
        }
    }

    #[test]
    fn alloc_grants_dense_ids_through_every_stack(ops in proptest::collection::vec(op(), 1..200), cap in 1usize..16) {
        let pager = Pager::with_page_size(16);
        let checked = ChecksumStore::new(Pager::with_page_size(16));
        let faulty = FaultyStore::new(Pager::with_page_size(16), FaultPlan::quiet(1));
        let pool = ShardedBufferPool::new(
            ChecksumStore::new(FaultyStore::new(Pager::with_page_size(16), FaultPlan::quiet(2))),
            cap,
            2,
        );
        let stacks: [&dyn PageStore; 4] = [&pager, &checked, &faulty, &pool];
        let mut granted = 0u32;
        for op in &ops {
            match op {
                Op::Alloc => {
                    for store in stacks {
                        prop_assert_eq!(store.alloc(), PageId(granted));
                    }
                    granted += 1;
                }
                Op::Write(i, b) if granted > 0 => {
                    let id = PageId(*i as u32 % granted);
                    for store in stacks {
                        store.write(id, &[*b; 5]);
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(pager.page_count(), granted);
        prop_assert_eq!(pool.inner().inner().inner().page_count(), granted);
    }

    #[test]
    fn pool_hit_ratio_reflects_capacity(n_pages in 2usize..20, cap in 1usize..32) {
        // Sequential cyclic scans: with cap ≥ n_pages everything after the
        // first round hits; with cap < n_pages an LRU on a cyclic scan
        // always misses.
        let pool = ShardedBufferPool::new(Pager::with_page_size(32), cap, 1);
        let pages: Vec<_> = (0..n_pages).map(|_| pool.alloc()).collect();
        for p in &pages {
            pool.write(*p, &[1]);
        }
        pool.clear();
        for _round in 0..4 {
            for p in &pages {
                pool.read_page(*p);
            }
        }
        let cs = pool.cache_stats();
        if cap >= n_pages {
            prop_assert_eq!(cs.misses as usize, n_pages, "only cold misses");
        } else {
            prop_assert_eq!(cs.hits, 0, "cyclic scan through a smaller LRU never hits");
        }
    }
}
