//! Read-path microbench: decode-per-visit (the pre-zero-copy path: the
//! page copied into a `Vec<u8>` + `Node::deserialize`, one page copy and
//! one entry-vector materialization per node visit) against
//! view-per-visit (`read_node() -> NodeRef`, a refcount bump and lazy
//! entry decoding).
//!
//! Both paths walk the *entire* tree over a warm buffer pool, so every
//! visit is a cache hit and the measured difference is pure read-path
//! overhead. Bytes the decode path copies out of the store are counted by
//! a wrapper `PageStore` — the view path must copy none; the bench exits
//! non-zero if it ever copies at least as much as the decode path, so CI
//! can run it tiny as a regression tripwire.
//!
//! Four further figures ride along:
//!
//! * **Batched overlap geometry** — the four-case trapezoid overlap-time
//!   computation evaluated entry-at-a-time (scalar `overlap_time_rect`)
//!   vs node-page-sized SoA batches (`RectBatch::solve`, hoisted
//!   slope-sign cases, autovectorizable lanes). Figure:
//!   entries-evaluated/s, plus the batched/scalar ratio. The batched
//!   results are asserted bit-identical to the scalar ones first.
//! * **Insert representation** — inserts/s into a warm bulk-loaded tree
//!   through `RTree::insert` (page images edited in place) vs a
//!   bench-owned copy of the path it replaced (every node on the path
//!   decoded into an owned `Node`, changed, re-folded, re-encoded whole).
//!   Same ChooseLeaf, same pages written; only the representation of a
//!   node that does not split differs. Plus the patched/rebuilt ratio.
//!
//! * **PDQ leaf expansion over a many-piece trajectory** — leaf pages/s
//!   staged and solved against a 360-piece bouncing trajectory, once by
//!   a bench-owned copy of the loop `Trajectory` ran before it indexed
//!   its pieces (every piece solved against every page) and once through
//!   `Trajectory::overlap_batch_into` (the pieces meeting the
//!   page's hull). Same pages, same kernel, results asserted identical;
//!   plus the indexed/all-pieces ratio.
//!
//! * **Rebuild** — records/s to build the serving index over the data
//!   set, once by the per-record insert loop every rebuild ran before it
//!   packed (kept here) and once through `PartitionedDqServer::build`,
//!   which routes the set and packs each region bottom-up; each row
//!   names the shape it leaves (height, leaf count, records per leaf).
//!   Plus the packed/inserted ratio.
//!
//! Knobs: `DQ_READ_PATH_OBJECTS` (dataset size, default 5000),
//! `DQ_READ_PATH_MS` (per-path measuring window, default 300),
//! `DQ_READ_PATH_OUT` (output JSON path, default the repo-root
//! `BENCH_read_path.json`).

use bench::FigureTable;
use mobiquery::{PartitionedDqServer, RegionGrid};
use rtree::bulk::bulk_load;
use rtree::tree::TreeInventory;
use rtree::{Node, NodeEntries, NsiSegmentRecord, RTree, RTreeConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use storage::{IoSnapshot, PageId, PageRef, PageStore, Pager, ShardedBufferPool};
use stkit::{Interval, RectBatch, SegmentBatch, StBox, TimeSet};
use workload::{Dataset, DatasetConfig};

type R = NsiSegmentRecord<2>;
type K = StBox<2, 1>;

/// Counts every byte [`Self::read_copy`] copies out of the store;
/// `read_page` is the zero-copy lane and counts nothing.
struct CountingStore<S> {
    inner: S,
    copied: AtomicU64,
}

impl<S> CountingStore<S> {
    fn new(inner: S) -> Self {
        CountingStore {
            inner,
            copied: AtomicU64::new(0),
        }
    }

    fn copied_bytes(&self) -> u64 {
        self.copied.load(Ordering::Relaxed)
    }

    fn reset_copied(&self) {
        self.copied.store(0, Ordering::Relaxed);
    }
}

impl<S: PageStore> CountingStore<S> {
    /// Read a page into a fresh owned buffer, as the decode path did.
    fn read_copy(&self, id: PageId) -> Vec<u8> {
        let buf = self.inner.read_page(id).to_vec();
        self.copied.fetch_add(buf.len() as u64, Ordering::Relaxed);
        buf
    }
}

impl<S: PageStore> PageStore for CountingStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn try_read_page(&self, id: PageId) -> Result<PageRef, storage::StorageError> {
        self.inner.try_read_page(id)
    }
    fn read_page(&self, id: PageId) -> PageRef {
        self.inner.read_page(id)
    }
    fn write(&self, id: PageId, data: &[u8]) {
        self.inner.write(id, data)
    }
    fn try_alloc(&self) -> Result<PageId, storage::StorageError> {
        self.inner.try_alloc()
    }
    fn free(&self, id: PageId) {
        self.inner.free(id)
    }
    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
}

type Store = CountingStore<ShardedBufferPool<Pager>>;

/// The pre-refactor read path: copy the page into a `Vec`, materialize
/// every entry into an owned `Node`, then iterate.
fn traverse_decode(tree: &RTree<R, Store>) -> (u64, u64) {
    let (mut visits, mut checksum) = (0u64, 0u64);
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let bytes = tree.store().read_copy(page);
        let node: Node<K, R> = Node::deserialize(&bytes);
        visits += 1;
        match &node.entries {
            NodeEntries::Internal(es) => {
                for (_, c) in es {
                    stack.push(*c);
                }
            }
            NodeEntries::Leaf(rs) => {
                for r in rs {
                    checksum = checksum.wrapping_add(u64::from(r.oid));
                }
            }
        }
    }
    (visits, checksum)
}

/// The zero-copy read path: borrow the resident page, decode entries
/// lazily straight out of the page bytes.
fn traverse_view(tree: &RTree<R, Store>) -> (u64, u64) {
    let (mut visits, mut checksum) = (0u64, 0u64);
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node(page);
        visits += 1;
        if node.is_leaf() {
            for r in node.leaf_records() {
                checksum = checksum.wrapping_add(u64::from(r.oid));
            }
        } else {
            for (_, c) in node.internal_entries() {
                stack.push(c);
            }
        }
    }
    (visits, checksum)
}

struct Measured {
    traversals: u64,
    elapsed: Duration,
    bytes_per_traversal: u64,
}

fn measure(
    tree: &RTree<R, Store>,
    window: Duration,
    f: impl Fn(&RTree<R, Store>) -> (u64, u64),
) -> Measured {
    // Warm-up probe sizes the batch (and warms the pool on first use).
    let t0 = Instant::now();
    black_box(f(tree));
    let probe = t0.elapsed().max(Duration::from_nanos(100));
    let traversals = (window.as_nanos() / probe.as_nanos()).clamp(1, 1_000_000) as u64;
    tree.store().reset_copied();
    let t1 = Instant::now();
    for _ in 0..traversals {
        black_box(f(tree));
    }
    let elapsed = t1.elapsed();
    let bytes_per_traversal = tree.store().copied_bytes() / traversals;
    Measured {
        traversals,
        elapsed,
        bytes_per_traversal,
    }
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One insert the way the write path ran before it edited pages: the
/// descent through zero-copy views, then every node on the path decoded
/// into an owned [`Node`], changed, re-folded and re-encoded whole, and
/// written while the path still shares the frame. Handles the no-split
/// case only; `false` (nothing written) when the leaf is full.
fn insert_rebuilding(tree: &RTree<R, ShardedBufferPool<Pager>>, rec: R, now: f64, buf: &mut Vec<u8>) -> bool {
    use rtree::{Key, Record};
    let key = {
        let mut enc = Vec::with_capacity(K::ENCODED_LEN);
        rec.key().encode(&mut enc);
        K::decode(&enc)
    };
    let mut path = Vec::with_capacity(tree.height() as usize);
    let mut cur = tree.root_page();
    let (leaf_page, mut leaf) = loop {
        let node = tree.read_node(cur);
        if node.is_leaf() {
            break (cur, node.to_node());
        }
        let (mut chosen, mut best) = (0, (f64::INFINITY, f64::INFINITY));
        for (i, (k, _)) in node.internal_entries().enumerate() {
            let cost = (k.enlargement(&key), k.volume());
            if cost < best {
                (chosen, best) = (i, cost);
            }
        }
        let next = node.internal_entry(chosen).1;
        path.push((cur, node, chosen));
        cur = next;
    };
    if leaf.len() == tree.leaf_capacity() {
        return false;
    }
    let page_size = tree.store().page_size();
    leaf.timestamp = now;
    let NodeEntries::Leaf(recs) = &mut leaf.entries else {
        unreachable!()
    };
    recs.push(rec);
    let mut child_key = leaf.bounding_key();
    leaf.serialize_into(buf, page_size);
    tree.store().write(leaf_page, buf);
    while let Some((page, node, chosen)) = path.pop() {
        let mut owned = node.to_node();
        owned.timestamp = now;
        let NodeEntries::Internal(entries) = &mut owned.entries else {
            unreachable!()
        };
        entries[chosen].0 = child_key;
        child_key = owned.bounding_key();
        owned.serialize_into(buf, page_size);
        tree.store().write(page, buf);
    }
    true
}

/// Inserts/s into a warm bulk-loaded tree, by the rebuilding path above
/// and by `RTree::insert`. The stream scatters over the data space so it
/// lands on every leaf; the handful of inserts that split go through
/// `RTree::insert` on both sides.
fn insert_rates(recs: &[R], window: Duration) -> (f64, f64) {
    let rate = |patched: bool| {
        let pool = ShardedBufferPool::new(Pager::new(), 1 << 16, 1);
        let mut tree = bulk_load(pool, RTreeConfig::default(), recs.to_vec());
        let mut buf = Vec::new();
        let mut oid = 20_000_000u32;
        let t0 = Instant::now();
        while t0.elapsed() < window {
            for _ in 0..64 {
                let (x, y) = (f64::from(oid % 997), f64::from(oid % 991));
                let rec = R::new(oid, 0, Interval::new(0.0, 10.0), [x, y], [x + 1.0, y + 1.0]);
                if patched || !insert_rebuilding(&tree, rec, 0.0, &mut buf) {
                    black_box(tree.insert(rec, 0.0));
                }
                oid += 1;
            }
        }
        f64::from(oid - 20_000_000) / t0.elapsed().as_secs_f64()
    };
    (rate(false), rate(true))
}

/// Entries-evaluated/s for the trapezoid overlap-time computation:
/// scalar (`overlap_segment` per entry — the pre-batching hot loop) vs
/// SoA-batched in node-page-sized chunks. Asserts bit-identity first.
fn geometry_rates(recs: &[R], window: Duration) -> (f64, f64) {
    // The four-case trapezoid kernel itself, in the shape the descents
    // drive it (`Trajectory::overlap_batch_into`): a node page is
    // staged once and then solved against *every* trapezoid segment of
    // the trajectory, so the SoA transform is amortized across segments
    // while the scalar path re-branches per (segment, entry). One
    // evaluation = one (entry, segment) overlap time; the TimeSet union
    // that both paths share downstream is excluded so the figure
    // isolates the geometry. The trajectory sweeps most of the data
    // space because that is the entry mix the kernel actually sees:
    // entries staged during a descent are children of nodes that already
    // overlapped the trajectory. A tiny window would instead measure the
    // scalar path's first-dimension early-exit against fixed-work lanes.
    let traj = mobiquery::Trajectory::linear(
        stkit::Rect::from_corners([0.0, 0.0], [800.0, 800.0]),
        [20.0, 15.0],
        Interval::new(0.0, 10.0),
        8,
    );
    // Box entries as the tree's internal levels hold them: each record's
    // spatial bounds, with the subtree-aggregated (full-run) lifetime.
    let boxes: Vec<(stkit::Rect<2>, Interval)> = recs
        .iter()
        .map(|r| {
            let s = &r.seg;
            let mut lo = [0.0f64; 2];
            let mut hi = [0.0f64; 2];
            for i in 0..2 {
                let f = s.coord_form(i);
                let (p0, p1) = (f.a + f.b * s.t.lo, f.a + f.b * s.t.hi);
                lo[i] = p0.min(p1);
                hi[i] = p0.max(p1);
            }
            (stkit::Rect::from_corners(lo, hi), Interval::new(0.0, 10.0))
        })
        .collect();
    let windows = traj.segments();
    // Leaf-capacity-sized chunks: the shape the engines stage per node.
    const CHUNK: usize = 64;
    let mut batch = RectBatch::new();
    for chunk in boxes.chunks(CHUNK) {
        batch.clear();
        for (r, qt) in chunk {
            batch.push(r, qt);
        }
        for w in windows {
            batch.solve(w);
            for (j, (r, qt)) in chunk.iter().enumerate() {
                assert_eq!(
                    batch.result(j),
                    w.overlap_time_rect(r, qt),
                    "batched overlap kernel must be bit-identical to scalar"
                );
            }
        }
    }
    let per_pass = (boxes.len() * windows.len()) as u64;
    let timed = |mut pass: Box<dyn FnMut() -> u64>| {
        let t0 = Instant::now();
        let mut entries = 0u64;
        while t0.elapsed() < window {
            entries += pass();
        }
        entries as f64 / t0.elapsed().as_secs_f64()
    };
    let scalar = timed(Box::new(|| {
        for w in windows {
            for (r, qt) in &boxes {
                black_box(w.overlap_time_rect(r, qt));
            }
        }
        per_pass
    }));
    let batched = timed(Box::new(|| {
        for chunk in boxes.chunks(CHUNK) {
            batch.clear();
            for (r, qt) in chunk {
                batch.push(r, qt);
            }
            for w in windows {
                batch.solve(w);
                black_box(batch.result(chunk.len() - 1));
            }
            black_box(&batch);
        }
        per_pass
    }));
    (scalar, batched)
}

/// Leaf pages/s expanded against a many-piece trajectory: every piece
/// solved against every page (the loop `Trajectory` ran before it
/// indexed its pieces, kept here) vs the indexed
/// `overlap_batch_into`. One expansion = stage the page's
/// records, union the per-piece results into one `TimeSet` per record.
/// Asserts identical results first.
fn expand_rates(tree: &RTree<R, Store>, window: Duration) -> (f64, f64) {
    // A 30-wide window bouncing off the walls of the data space, one
    // piece per leg, 360 legs over the dataset's 10 time units: the
    // fly-through dqbench's `query` workload drives, at its piece count.
    const PIECES: usize = 360;
    let (lo, hi, dt) = (15.0, 985.0, 10.0 / PIECES as f64);
    let key = |t: f64, c: [f64; 2]| mobiquery::KeySnapshot {
        t,
        window: stkit::Rect::from_corners([c[0] - 15.0, c[1] - 15.0], [c[0] + 15.0, c[1] + 15.0]),
    };
    // Each leg runs wall to wall in x and drifts in y.
    let (mut c, mut vy) = ([lo, 300.0], 210.0 / dt);
    let mut keys = vec![key(0.0, c)];
    for k in 1..=PIECES {
        c[0] = if c[0] == lo { hi } else { lo };
        c[1] += vy * dt;
        if !(lo..=hi).contains(&c[1]) {
            c[1] = c[1].clamp(lo, hi);
            vy = -vy;
        }
        keys.push(key(k as f64 * dt, c));
    }
    let traj = mobiquery::Trajectory::new(keys);

    let mut pages: Vec<Vec<R>> = Vec::new();
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node(page);
        if node.is_leaf() {
            pages.push(node.leaf_records().collect());
        } else {
            stack.extend(node.internal_entries().map(|(_, c)| c));
        }
    }

    fn stage(batch: &mut SegmentBatch<2>, page: &[R]) {
        batch.clear();
        for r in page {
            batch.push(&r.seg);
        }
    }
    let all_pieces = |batch: &mut SegmentBatch<2>, out: &mut Vec<TimeSet>| {
        out.clear();
        out.resize(batch.len(), TimeSet::empty());
        for s in traj.segments() {
            batch.solve(s);
            for (j, ts) in out.iter_mut().enumerate() {
                ts.insert(batch.result(j));
            }
        }
    };
    let mut batch = SegmentBatch::new();
    let (mut out, mut expect) = (Vec::new(), Vec::new());
    let mut solved = 0;
    for page in &pages {
        stage(&mut batch, page);
        all_pieces(&mut batch, &mut expect);
        solved += traj.overlap_batch_into(&mut batch, &mut out);
        assert_eq!(out, expect, "indexed expansion must equal the all-pieces loop");
    }
    eprintln!(
        "# pdq leaf expand: {} leaf pages x {PIECES} pieces, the index solves {:.1} pieces per page",
        pages.len(),
        solved as f64 / pages.len() as f64
    );

    let mut timed = |expand: &mut dyn FnMut(&mut SegmentBatch<2>, &mut Vec<TimeSet>)| {
        let t0 = Instant::now();
        let mut expanded = 0u64;
        while t0.elapsed() < window {
            for page in &pages {
                stage(&mut batch, page);
                expand(&mut batch, &mut out);
                black_box(&out);
            }
            expanded += pages.len() as u64;
        }
        expanded as f64 / t0.elapsed().as_secs_f64()
    };
    let scanned = timed(&mut |batch, out| all_pieces(batch, out));
    let indexed = timed(&mut |batch, out| {
        traj.overlap_batch_into(batch, out);
    });
    (scanned, indexed)
}

/// Records/s to build the serving index over `recs`, and the shape it
/// comes out in: by one insert per record at its start time — what every
/// rebuild did before it packed — and by `PartitionedDqServer::build`.
/// Builds repeat until the window is spent, at least once.
fn rebuild_rates(recs: &[R], window: Duration) -> [(f64, TreeInventory); 2] {
    let empty = || RTree::new(Pager::new(), RTreeConfig::default());
    let timed = |build: &dyn Fn() -> TreeInventory| {
        let t0 = Instant::now();
        let mut builds = 0u32;
        let inv = loop {
            let inv = black_box(build());
            builds += 1;
            if t0.elapsed() >= window {
                break inv;
            }
        };
        let rate = f64::from(builds) * recs.len() as f64 / t0.elapsed().as_secs_f64();
        (rate, inv)
    };
    let inserted = timed(&|| {
        let mut tree = empty();
        for rec in recs {
            tree.insert(*rec, rec.seg.t.lo);
        }
        tree.validate().expect("inserted tree")
    });
    let packed = timed(&|| {
        PartitionedDqServer::build(RegionGrid::single(), recs, |_| empty())
            .with_region_tree(0, |tree| tree.validate().expect("packed tree"))
    });
    [inserted, packed]
}

fn main() {
    let objects = env_u64("DQ_READ_PATH_OBJECTS", 5_000) as u32;
    let window = Duration::from_millis(env_u64("DQ_READ_PATH_MS", 300));

    let ds = Dataset::generate(DatasetConfig {
        objects,
        duration: 10.0,
        space_side: 1000.0,
        seed: 7,
    });
    let recs = ds.nsi_records();
    let n_records = recs.len();
    // Capacity far above the tree size: the whole tree stays resident,
    // so every timed visit is a pool hit.
    let store = CountingStore::new(ShardedBufferPool::new(Pager::new(), 1 << 16, 1));
    let tree = bulk_load(store, RTreeConfig::default(), recs);

    // Warm the pool and agree on the answer before timing anything.
    let (nodes, sum_view) = traverse_view(&tree);
    let (nodes_d, sum_decode) = traverse_decode(&tree);
    assert_eq!(nodes, nodes_d, "paths must visit the same nodes");
    assert_eq!(sum_view, sum_decode, "paths must see the same records");

    // Observability cross-check: one traversal's level-counter delta must
    // equal its visit count exactly (every visit is counted, none twice).
    let levels_before = tree.level_counters().snapshot();
    let (nodes_again, _) = traverse_view(&tree);
    let levels_delta = tree.level_counters().snapshot() - levels_before;
    assert_eq!(
        levels_delta.total_reads(),
        nodes_again,
        "level counters must reconcile with traversal visits"
    );

    let hits0 = tree.store().inner.cache_stats();
    let decode = measure(&tree, window, traverse_decode);
    let view = measure(&tree, window, traverse_view);
    let hits1 = tree.store().inner.cache_stats();
    assert_eq!(
        hits1.misses, hits0.misses,
        "timed traversals must run on a warm pool"
    );

    // Tracing overhead probe: same timed window with the global trace
    // flag off. Reported to stderr only — the JSON schema (and the
    // committed baseline it is compared against) stays unchanged.
    obs::set_trace_enabled(false);
    let view_untraced = measure(&tree, window, traverse_view);
    obs::set_trace_enabled(true);

    let rate = |m: &Measured| (nodes * m.traversals) as f64 / m.elapsed.as_secs_f64();
    let per_visit_ns = |m: &Measured| m.elapsed.as_secs_f64() * 1e9 / (nodes * m.traversals) as f64;

    let mut table = FigureTable::new(
        "read_path",
        &format!(
            "Warm-pool full-tree traversal: {objects} objects, {n_records} records, \
             {nodes} nodes (one visit = one cache hit)"
        ),
        &[
            "path",
            "node_visits",
            "traversals",
            "visits_per_sec",
            "ns_per_visit",
            "bytes_copied_per_traversal",
        ],
    );
    for (name, m) in [("decode", &decode), ("view", &view)] {
        table.row(vec![
            name.to_string(),
            nodes.to_string(),
            m.traversals.to_string(),
            format!("{:.0}", rate(m)),
            format!("{:.1}", per_visit_ns(m)),
            m.bytes_per_traversal.to_string(),
        ]);
    }
    table.row(vec![
        "view/decode speedup".to_string(),
        String::new(),
        String::new(),
        format!("{:.2}x", rate(&view) / rate(&decode)),
        String::new(),
        String::new(),
    ]);

    // Batched overlap geometry: entries-evaluated/s, scalar vs SoA
    // (rates land in the visits_per_sec column — the schema's "work
    // items per second" slot).
    let (geom_scalar, geom_batched) = geometry_rates(&ds.nsi_records(), window);
    for (name, v) in [("geometry scalar", geom_scalar), ("geometry batched", geom_batched)] {
        table.row(vec![
            name.to_string(),
            String::new(),
            String::new(),
            format!("{v:.0}"),
            String::new(),
            String::new(),
        ]);
    }
    table.row(vec![
        "batched/scalar speedup".to_string(),
        String::new(),
        String::new(),
        format!("{:.2}x", geom_batched / geom_scalar),
        String::new(),
        String::new(),
    ]);
    // Insert representation: inserts/s, rebuilt nodes vs edited pages.
    let (ins_rebuilt, ins_patched) = insert_rates(&ds.nsi_records(), window);
    for (name, v) in [("insert rebuilt", ins_rebuilt), ("insert patched", ins_patched)] {
        table.row(vec![
            name.to_string(),
            String::new(),
            String::new(),
            format!("{v:.0}"),
            String::new(),
            String::new(),
        ]);
    }
    table.row(vec![
        "patched/rebuilt speedup".to_string(),
        String::new(),
        String::new(),
        format!("{:.2}x", ins_patched / ins_rebuilt),
        String::new(),
        String::new(),
    ]);
    // PDQ leaf expansion over a many-piece trajectory: pages/s, every
    // piece solved vs the pieces the index says meet the page.
    let (exp_all, exp_indexed) = expand_rates(&tree, window);
    for (name, v) in [
        ("pdq leaf expand, many-piece trajectory: all pieces", exp_all),
        ("pdq leaf expand, many-piece trajectory: indexed", exp_indexed),
    ] {
        table.row(vec![
            name.to_string(),
            String::new(),
            String::new(),
            format!("{v:.0}"),
            String::new(),
            String::new(),
        ]);
    }
    table.row(vec![
        "indexed/all-pieces speedup".to_string(),
        String::new(),
        String::new(),
        format!("{:.2}x", exp_indexed / exp_all),
        String::new(),
        String::new(),
    ]);
    // Rebuild: records/s into a fresh serving index, one insert per
    // record vs routed and packed; the row names the shape left behind.
    let [inserted, packed] = rebuild_rates(&ds.nsi_records(), window);
    for (name, (v, inv)) in [("rebuild inserted", &inserted), ("rebuild packed", &packed)] {
        table.row(vec![
            format!(
                "{name}: height {}, {} leaves, avg_leaf_fill {:.1}",
                inv.height,
                inv.nodes_per_level[0],
                inv.avg_leaf_fill()
            ),
            String::new(),
            String::new(),
            format!("{v:.0}"),
            format!("{:.1}", 1e9 / v),
            String::new(),
        ]);
    }
    table.row(vec![
        "packed/inserted speedup".to_string(),
        String::new(),
        String::new(),
        format!("{:.2}x", packed.0 / inserted.0),
        String::new(),
        String::new(),
    ]);
    table.print();

    let traced = rate(&view);
    let untraced = rate(&view_untraced);
    eprintln!(
        "# trace overhead: view path {:.0} visits/s traced vs {:.0} untraced ({:+.1}%)",
        traced,
        untraced,
        (untraced / traced - 1.0) * 100.0
    );

    // Registry dump: the bench publishes what a serving process would.
    let registry = obs::MetricsRegistry::new();
    tree.store().inner.publish_to(&registry, "pool");
    tree.level_counters().snapshot().publish_to(&registry, "rtree");
    registry
        .counter("read_path.visits.decode")
        .add(nodes * decode.traversals);
    registry
        .counter("read_path.visits.view")
        .add(nodes * (view.traversals + view_untraced.traversals));
    for line in registry.render().lines() {
        eprintln!("# {line}");
    }

    let out = std::env::var("DQ_READ_PATH_OUT").unwrap_or_else(|_| {
        format!("{}/../../BENCH_read_path.json", env!("CARGO_MANIFEST_DIR"))
    });
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, format!("{}\n", table.to_json())).expect("write bench JSON");
    eprintln!("# wrote {out}");

    // Regression tripwire: the zero-copy path must actually be zero-copy
    // (strictly fewer bytes than the decode path, which copies one full
    // page per visit).
    if view.bytes_per_traversal >= decode.bytes_per_traversal {
        eprintln!(
            "FAIL: view path copied {} bytes/traversal, decode path {} — zero-copy regressed",
            view.bytes_per_traversal, decode.bytes_per_traversal
        );
        std::process::exit(1);
    }
}
