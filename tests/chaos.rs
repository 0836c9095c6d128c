//! Chaos suite: seeded fault schedules against a fault-free serial
//! oracle.
//!
//! The contract under test, layer by layer:
//!
//! - **Transient-only faults + pool retry** are invisible: the serve is
//!   bit-identical to the oracle, every participant finishes `Ok`, and
//!   the only evidence is the retry counters, which pair one to one with
//!   the plan's own draws — on one region and on three (`chaos_a`,
//!   `chaos_e`: pinned cases of the served oracle, `support::served`).
//! - **Detected corruption** (checksum mismatch) has a blast radius of
//!   exactly the sessions whose queries touch the corrupt page; they
//!   degrade but keep serving, everyone else matches the oracle
//!   (`chaos_b`).
//! - **Undetected corruption** (no checksum layer, node header
//!   destroyed) is caught by the tree's total header parse: the same
//!   one-session blast radius, typed `Corrupt{page}`, no panic
//!   (`chaos_c`).
//! - **A corrupt root** starves the writer: every insert is dropped and
//!   logged in `writer_outcome`, and the tree is untouched (`chaos_d`).
//! - **Garbage behind a valid header** — a child id past the device's
//!   last page — is a typed `Corrupt{page}` read, not a panic: the region
//!   writer drops each insert that descends to it, the sessions that
//!   reach it degrade, and the serve completes and equals the serial one
//!   (`chaos_n`).
//! - **Transient faults with no pool retry** reach the region writer,
//!   which retries the record itself with its lock released: nothing is
//!   dropped and the tree answers like the oracle's (`chaos_m`).
//! - **A crash at any point of the durable write path** recovers
//!   exactly the committed-frame prefix — the recovered record multiset,
//!   and a server rebuilt from it answering like the fault-free oracle
//!   (`chaos_g`) — even when the WAL tail is torn, truncated, or
//!   bit-flipped at every byte offset of its last record (`chaos_h`); a
//!   full device fails the writer cleanly while the WAL keeps the
//!   backlog recoverable (`chaos_i`); recovery through a rebuild is
//!   result-equivalent under one region or many (`chaos_j`), the log
//!   keeps checkpointing when a region writer fails (`chaos_k`), and
//!   from random batches, cadences, crash points and damaged tails
//!   always recovers the committed prefix (`chaos_l`).

mod support;

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;

use dq_repro::mobiquery::{
    DurableImage, DurableLog, MotionRecord, PartitionedDqServer, PartitionedServeReport,
    RecoveryReport, RegionGrid, SessionKind, SessionOutcome, SessionSpec,
};
use dq_repro::rtree::node::NodeEdit;
use dq_repro::rtree::{Key, RTree, RTreeConfig, Record};
use proptest::prelude::*;
use dq_repro::stkit::Interval;
use dq_repro::storage::{
    ChecksumStore, FaultPlan, FaultyStore, PageId, PageStore, Pager, ShardedBufferPool,
    StorageError,
};
use support::served::{check_served, Case, BOUND};
use support::{leaf_page_of, line_inserts, line_records, slide_spec, Batch, R};

fn build_tree<S: PageStore>(store: S, recs: &[R]) -> RTree<R, S> {
    let mut tree = RTree::new(store, RTreeConfig::default());
    for r in recs {
        tree.insert(*r, r.seg.t.lo);
    }
    tree
}

/// The single-tree server: one region over `store`, `recs` preloaded.
fn single<S: PageStore>(store: S, recs: &[R]) -> PartitionedDqServer<2, S> {
    let mut store = Some(store);
    PartitionedDqServer::build(RegionGrid::single(), recs, |_| {
        RTree::new(store.take().expect("one region"), RTreeConfig::default())
    })
}

/// The fault-free single-tree server every faulted run is measured
/// against.
fn clean(recs: &[R]) -> PartitionedDqServer<2, Pager> {
    single(Pager::with_page_size(256), recs)
}

/// Four sessions over 120 objects on a line, two inserts a frame.
fn transient_case(cuts: Vec<f64>, p: f64) -> Case {
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 12, 12.0),
        slide_spec(SessionKind::Npdq, 30.0, 12, 12.0),
        slide_spec(SessionKind::Pdq, 60.0, 8, 12.0),
        slide_spec(SessionKind::Npdq, 90.0, 8, 12.0),
    ];
    Case { cuts, faults: Some((42, p)), ..Case::new(line_records(120), line_inserts(12, 2), specs) }
}

/// (a) Transient-only schedule, retry at the pool layer, one region. The
/// oracle pairs every retry with a transient the plan drew; the serve
/// must have drawn some.
#[test]
fn chaos_a_transient_faults_are_invisible_through_retry() {
    let store = check_served(&transient_case(Vec::new(), 0.05)).unwrap().store;
    assert!(store.retries > 0, "{store:?}");
}

/// (e) The same over three regions, each pool absorbing its own fault
/// stream. 10 %, not `chaos_a`'s 5 %: over these regions' few device
/// reads the seeds 42–44 inject nothing at 5 %.
#[test]
fn chaos_e_partitioned_transients_match_clean_partitioned_serial() {
    let store = check_served(&transient_case(vec![40.0, 80.0], 0.10)).unwrap().store;
    assert!(store.retries > 0, "{store:?}");
}

/// (b) Checksum-detected corruption of one leaf: only the sessions whose
/// windows reach that leaf degrade; the untouched session is `Ok` and
/// bit-identical to the oracle. A degraded session still accounts for
/// every node it read on the way to the fault.
#[test]
fn chaos_b_corruption_blast_radius_is_one_session() {
    let recs = line_records(40);
    // A sweeps x ∈ [0, 9]; B sweeps x ∈ [24, 33]. Disjoint by > one page.
    // C is B's sweep as per-frame snapshots.
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 8, 8.0),
        slide_spec(SessionKind::Pdq, 24.0, 8, 8.0),
        slide_spec(SessionKind::Npdq, 24.0, 8, 8.0),
    ];

    let store = ChecksumStore::new(FaultyStore::new(
        Pager::with_page_size(256),
        FaultPlan::quiet(7),
    ));
    let server = single(store, &recs);
    let victim = server.with_region_tree(0, |tree| {
        let victim = leaf_page_of(tree, 28); // x = 28.5: B's sweep only
        tree.store().inner().corrupt_page(victim);
        victim
    });

    let levels0 = server.with_region_tree(0, |t| t.level_counters().snapshot());
    let report = server.serve(&specs, &[]);
    let levels = server.with_region_tree(0, |t| t.level_counters().snapshot()) - levels0;
    let oracle = clean(&recs).serve_serial(&specs, &[]);

    // A traversal that ends in an error keeps the reads it made: tree
    // level reads == session reads + writer reads, per region too.
    let c = &report.sessions[2];
    assert!(
        c.outcome.errors().contains(&StorageError::Corrupt { page: victim }),
        "C should reach the corrupt leaf, got {:?}",
        c.outcome
    );
    assert_eq!(levels.total_reads(), report.total_reads());
    assert_eq!(
        levels.total_reads(),
        report.regions[0].session_reads + report.regions[0].writer_reads
    );

    // Session A never touches the corrupt leaf: clean and exact.
    assert!(report.sessions[0].outcome.is_ok(), "A: {:?}", report.sessions[0].outcome);
    assert_eq!(report.sessions[0].results, oracle.sessions[0].results);

    // Session B degrades: every recorded error is Corrupt on the victim
    // page, and the victim's records are the ones it cannot deliver.
    let b = &report.sessions[1];
    assert!(
        matches!(b.outcome, SessionOutcome::Degraded { .. }),
        "B should degrade, got {:?}",
        b.outcome
    );
    assert!(!b.outcome.errors().is_empty());
    for e in b.outcome.errors() {
        assert_eq!(*e, StorageError::Corrupt { page: victim });
    }
    assert!(
        !b.results.contains(&(28, 0)),
        "a record on the corrupt page was delivered"
    );
    assert!(oracle.sessions[1].results.contains(&(28, 0)));
    let delivered: std::collections::HashSet<_> = b.results.iter().copied().collect();
    for r in &b.results {
        assert!(
            oracle.sessions[1].results.contains(r),
            "B delivered {r:?} which the oracle never produced"
        );
    }
    assert!(
        delivered.len() < oracle.sessions[1].results.len(),
        "B cannot be complete with a corrupt leaf"
    );
}

/// (c) Corruption *below* the checksum layer that destroys the node
/// header: no checksum catches it, but sessions read through the tree's
/// total header parse, so it surfaces as the same typed `Corrupt{page}`
/// and costs the one session that reaches the page a degraded run — not
/// a panic (contained or otherwise), and nothing for anyone else. Two
/// ways to break it: a flipped magic byte, and a header that parses
/// field by field but contradicts itself — internal kind at level 0,
/// whose children an engine would queue at level `0 - 1`.
#[test]
fn chaos_c_undetected_header_corruption_degrades_one_session() {
    header_corruption_degrades_one_session(|store, victim| store.corrupt_page(victim));
    header_corruption_degrades_one_session(|store, victim| {
        let mut image = store.try_read_page(victim).expect("clean page").to_vec();
        image[2] = 1;
        image[4..8].copy_from_slice(&1u32.to_le_bytes());
        store.write(victim, &image);
    });
}

fn header_corruption_degrades_one_session(break_header: impl Fn(&FaultyStore<Pager>, PageId)) {
    let recs = line_records(40);
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 8, 8.0),
        slide_spec(SessionKind::Pdq, 24.0, 8, 8.0),
    ];

    // No ChecksumStore, and flip byte 0: the node header itself breaks.
    let store = FaultyStore::with_flipped_bytes(
        Pager::with_page_size(256),
        FaultPlan::quiet(7),
        vec![0],
    );
    let server = single(store, &recs);
    let victim = server.with_region_tree(0, |tree| {
        let victim = leaf_page_of(tree, 28);
        break_header(tree.store(), victim);
        victim
    });

    let report = server.serve(&specs, &[]);
    let oracle = clean(&recs).serve_serial(&specs, &[]);

    assert!(report.sessions[0].outcome.is_ok(), "A: {:?}", report.sessions[0].outcome);
    assert_eq!(report.sessions[0].results, oracle.sessions[0].results);

    let b = &report.sessions[1];
    assert!(
        matches!(b.outcome, SessionOutcome::Degraded { .. }),
        "B should degrade on the broken node header, got {:?}",
        b.outcome
    );
    assert!(!b.outcome.errors().is_empty());
    for e in b.outcome.errors() {
        assert_eq!(*e, StorageError::Corrupt { page: victim });
    }
    assert!(!b.results.contains(&(28, 0)), "a record on the corrupt page was delivered");
    for r in &b.results {
        assert!(
            oracle.sessions[1].results.contains(r),
            "B delivered {r:?} which the oracle never produced"
        );
    }
    assert!(
        b.results.len() < oracle.sessions[1].results.len(),
        "B cannot be complete with a corrupt leaf"
    );
    // The run itself completed: every frame was served for A.
    assert_eq!(report.frames, 8);
    assert_eq!(report.sessions[0].frames.len(), 8);
}

/// (d) A corrupt root starves the writer: every insert descent fails
/// fail-stop, the records are dropped (and logged), and the tree is
/// left exactly as it was — no partial writes, no panic, no deadlock.
#[test]
fn chaos_d_corrupt_root_stops_the_writer_cleanly() {
    let recs = line_records(20);
    let store = ChecksumStore::new(FaultyStore::new(
        Pager::with_page_size(256),
        FaultPlan::quiet(3),
    ));
    let server = single(store, &recs);
    let root = server.with_region_tree(0, |tree| {
        tree.store().inner().corrupt_page(tree.root_page());
        tree.root_page()
    });
    let inserts = line_inserts(3, 1);
    let report = server.serve(&[], &inserts);

    assert_eq!(report.inserts_applied, 0, "no insert can get past a corrupt root");
    assert_eq!(report.writer_outcome.errors().len(), 3);
    for e in report.writer_outcome.errors() {
        assert_eq!(*e, StorageError::Corrupt { page: root });
    }
    assert_eq!(report.writer_reads, 0, "failed reads must not count as device reads");
    assert_eq!(server.region_record_counts(), vec![20], "the tree must be untouched");
}

/// (m) Transient faults with *no* retrying pool beneath the tree: every
/// injected fault reaches the region writer raw, whose own policy —
/// release the write lock, back off, retry the same record on the tree
/// the failed descent left unchanged — is then the only thing between a
/// fault and a dropped insert. No session runs while faults fire (a
/// session has no retry of its own and would degrade); the tree the
/// writer leaves behind must answer like the fault-free oracle's.
#[test]
fn chaos_m_writer_retries_transients_with_no_pool_beneath_it() {
    let recs = line_records(120);
    let inserts = line_inserts(12, 4);

    let faulty = FaultyStore::new(Pager::with_page_size(256), FaultPlan::transient(9, 0.05));
    faulty.set_enabled(false);
    let server = single(faulty, &recs);
    server.with_region_tree(0, |t| t.store().set_enabled(true));
    let report = server.serve(&[], &inserts);
    server.with_region_tree(0, |t| t.store().set_enabled(false));

    let oracle = clean(&recs);
    let expected = oracle.serve_serial(&[], &inserts);

    assert!(report.writer_outcome.is_ok(), "writer: {:?}", report.writer_outcome);
    assert_eq!(report.inserts_applied, expected.inserts_applied);
    let transients = server.with_region_tree(0, |t| t.store().injected().transients);
    assert!(transients > 0, "no transient fault ever reached the writer");
    assert_eq!(requery(&server), requery(&oracle));
}

/// (n) Bytes behind a header that parses, on an un-checksummed store:
/// the root's entry 0 names a child whose id has its high byte flipped,
/// far past the device's last page. The pager reports that read as
/// `Corrupt{page}` — no panic reaches either `catch_unwind` — so the
/// region writer drops and logs each insert whose descent follows it,
/// the way `chaos_d`'s writer does, and every session that reaches it
/// degrades. The serve completes, and concurrent equals serial, outcomes
/// included.
#[test]
fn chaos_n_a_child_id_off_the_device_is_corrupt_and_the_serve_completes() {
    let recs = line_records(40);
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 8, 8.0),
        slide_spec(SessionKind::Npdq, 0.0, 8, 8.0),
    ];
    let inserts = line_inserts(4, 2);
    let child_id_high_byte = 32 + <R as Record>::Key::ENCODED_LEN + 3;
    let server = || {
        let store = FaultyStore::with_flipped_bytes(
            Pager::with_page_size(256),
            FaultPlan::quiet(5),
            vec![child_id_high_byte],
        );
        let server = single(store, &recs);
        let bad = server.with_region_tree(0, |t| {
            assert!(t.height() > 1, "the root must be an internal node");
            let (_, child) = t.read_node(t.root_page()).internal_entry(0);
            t.store().corrupt_page(t.root_page());
            PageId(child.0 ^ 0xFF00_0000)
        });
        (server, bad)
    };

    let (concurrent, bad) = server();
    let report = serve_within_bound(concurrent, &specs, &inserts);
    let oracle = server().0.serve_serial(&specs, &inserts);

    let writer = &report.regions[0].writer_outcome;
    assert!(
        matches!(writer, SessionOutcome::Degraded { .. }),
        "writer: {writer:?}"
    );
    assert!(!writer.errors().is_empty());
    for e in writer.errors() {
        assert_eq!(*e, StorageError::Corrupt { page: bad }, "writer");
    }
    assert_eq!(*writer, oracle.regions[0].writer_outcome);
    assert_eq!(report.inserts_applied, oracle.inserts_applied);
    assert_eq!(report.frames, oracle.frames);
    for (i, (got, want)) in report.sessions.iter().zip(&oracle.sessions).enumerate() {
        assert!(!got.outcome.is_ok(), "session {i} never reached the bad child");
        assert!(
            got.outcome.errors().contains(&StorageError::Corrupt { page: bad }),
            "session {i}: {:?}",
            got.outcome
        );
        assert_eq!(got.outcome, want.outcome, "session {i}");
        assert_eq!(got.results, want.results, "session {i} diverged from serial");
    }
}

/// (o) A child id that names an ancestor, on an un-checksummed internal
/// page one level under the root: its entry over `x = 5.5` is rewritten
/// to name the root. Every descent carries the level it expects, so the
/// root read where a leaf should be is a typed `Corrupt{page}` on the
/// root, not a loop: the region writer drops and logs each insert that
/// descends to it, as `chaos_d`'s and `chaos_n`'s do, and the NPDQ
/// session that sweeps over it degrades. The serve returns within the
/// served oracle's bound, concurrent equals serial, and the PDQ session
/// that never reads the broken page equals the fault-free oracle.
#[test]
fn chaos_o_a_child_id_naming_an_ancestor_is_corrupt_and_the_serve_completes() {
    let recs = line_records(120);
    let specs = vec![
        slide_spec(SessionKind::Pdq, 60.0, 8, 8.0),
        slide_spec(SessionKind::Npdq, 0.0, 8, 8.0),
    ];
    // Each frame drops one object by the broken entry and one at x > 66,
    // which no descent through it reaches. The line's keys are flat in y;
    // these are not, so ChooseLeaf picks by x instead of by position.
    let inserts: Vec<Batch> = (0..4u32)
        .map(|k| {
            let t = f64::from(k) * 0.3;
            [(0, 1.25), (1, 66.25)]
                .map(|(j, x0)| {
                    let x = x0 + f64::from(k);
                    (
                        R::new(
                            1000 + 2 * k + j,
                            0,
                            Interval::new(t, 100.0),
                            [x, 0.5],
                            [x, 0.75],
                        ),
                        t,
                    )
                })
                .to_vec()
        })
        .collect();
    let holds = |k: &<R as Record>::Key| k.space.contains_point(&[5.5, 0.5]);
    let server = || {
        let server = single(Pager::with_page_size(256), &recs);
        let root = server.with_region_tree(0, |t| {
            assert!(
                t.height() >= 3,
                "the root's children must be internal nodes"
            );
            let root = t.root_page();
            let find = |page| {
                let node = t.read_node(page);
                let i = (0..node.len()).find(|&i| holds(&node.internal_entry(i).0));
                (node, i.expect("an entry over x = 5.5"))
            };
            let (node, i) = find(root);
            let inner = node.internal_entry(i).1;
            let (node, bad) = find(inner);
            let mut image = Vec::new();
            let mut edit = NodeEdit::<_, R>::fresh(&mut image, node.level(), t.store().page_size());
            for (j, (k, child)) in node.internal_entries().enumerate() {
                edit.push_entry(&k, if j == bad { root } else { child });
            }
            t.store().write(inner, edit.bytes());
            root
        });
        (server, root)
    };

    let (concurrent, root) = server();
    let report = serve_within_bound(concurrent, &specs, &inserts);
    let oracle = server().0.serve_serial(&specs, &inserts);

    let writer = &report.regions[0].writer_outcome;
    assert!(
        matches!(writer, SessionOutcome::Degraded { .. }),
        "writer: {writer:?}"
    );
    for e in writer.errors() {
        assert_eq!(*e, StorageError::Corrupt { page: root }, "writer");
    }
    assert_eq!(*writer, oracle.regions[0].writer_outcome);
    assert_eq!(report.inserts_applied, oracle.inserts_applied);
    assert_eq!(
        report.inserts_applied, 4,
        "only the inserts by x = 5.5 may be dropped"
    );
    assert_eq!(report.frames, oracle.frames);
    for (i, (got, want)) in report.sessions.iter().zip(&oracle.sessions).enumerate() {
        assert_eq!(got.outcome, want.outcome, "session {i}");
        assert_eq!(
            got.results, want.results,
            "session {i} diverged from serial"
        );
    }
    let npdq = &report.sessions[1];
    assert!(
        matches!(npdq.outcome, SessionOutcome::Degraded { .. }),
        "NPDQ: {:?}",
        npdq.outcome
    );
    for e in npdq.outcome.errors() {
        assert_eq!(*e, StorageError::Corrupt { page: root }, "NPDQ");
    }

    // The PDQ session's window stays at x >= 60, off the broken page, so
    // it is what a fault-free server serves.
    let fault_free = clean(&recs).serve_serial(&specs, &inserts);
    let pdq = &report.sessions[0];
    assert!(pdq.outcome.is_ok(), "PDQ: {:?}", pdq.outcome);
    assert_eq!(pdq.results, fault_free.sessions[0].results);
}

/// `server.serve(specs, inserts)` on a thread of its own, failing the
/// test if it has not returned within the served oracle's bound: a hang
/// fails this test instead of the whole suite.
fn serve_within_bound<S: PageStore + Send + Sync + 'static>(
    server: PartitionedDqServer<2, S>,
    specs: &[SessionSpec<2>],
    inserts: &[Batch],
) -> PartitionedServeReport {
    let (done, finished) = std::sync::mpsc::channel();
    let (plans, batches) = (specs.to_vec(), inserts.to_vec());
    let serving = std::thread::spawn(move || {
        let _ = done.send(server.serve(&plans, &batches));
    });
    let report = finished.recv_timeout(BOUND);
    assert!(
        !matches!(report, Err(RecvTimeoutError::Timeout)),
        "the serve hung behind a corrupt child id"
    );
    serving.join().expect("the serve itself panicked");
    report.expect("a finished serve sent its report")
}

/// The `(oid, seq)` set resident across a server's regions, seam
/// replicas collapsed.
fn resident_ids<S: PageStore>(
    srv: &PartitionedDqServer<2, S>,
) -> std::collections::BTreeSet<(u32, u32)> {
    let mut ids = std::collections::BTreeSet::new();
    for r in 0..srv.grid().len() {
        srv.with_region_tree(r, |t| {
            t.scan(|rec| {
                ids.insert(rec.ids());
            })
        });
    }
    ids
}

/// Everything a durable image recovers, in order: the checkpoint base,
/// then the replayed frames' records.
fn recovered_records(image: &DurableImage) -> (Vec<R>, RecoveryReport) {
    let (mut all, frames, rep) = image.recover_records::<2>().unwrap();
    all.extend(frames.iter().flat_map(|(_, batch)| batch.iter().map(|(r, _)| *r)));
    (all, rep)
}

/// Records as sorted encoded bytes, so duplicates count.
fn encoded_multiset<'a>(recs: impl Iterator<Item = &'a R>) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = recs
        .map(|r| {
            let mut buf = Vec::new();
            r.encode(&mut buf);
            buf
        })
        .collect();
    out.sort_unstable();
    out
}

/// Restart from a durable image: the checkpoint's records through
/// [`PartitionedDqServer::build`] under `grid`, then the replayed frames
/// in commit order.
fn recover_server(image: &DurableImage, grid: RegionGrid) -> PartitionedDqServer<2, Pager> {
    let (base, frames, _) = image.recover_records::<2>().unwrap();
    let server = PartitionedDqServer::build(grid, &base, |_| {
        RTree::new(Pager::with_page_size(256), RTreeConfig::default())
    });
    let replayed: Vec<Vec<(R, f64)>> = frames.into_iter().map(|(_, b)| b).collect();
    server.serve_serial(&[], &replayed);
    server
}

/// What a server answers to one fixed PDQ + NPDQ query pair.
fn requery<S: PageStore>(server: &PartitionedDqServer<2, S>) -> Vec<Vec<(u32, u32)>> {
    let specs = [
        slide_spec(SessionKind::Pdq, 0.0, 10, 10.0),
        slide_spec(SessionKind::Npdq, 20.0, 10, 10.0),
    ];
    let report = server.serve_serial(&specs, &[]);
    for (i, s) in report.sessions.iter().enumerate() {
        assert!(s.outcome.is_ok(), "requery session {i}: {:?}", s.outcome);
    }
    report.base.sessions.into_iter().map(|s| s.results).collect()
}

/// The recovery yardstick for the single-tree server: `image` hands back
/// exactly `recs` plus the first `frames` batches of `inserts` (as a
/// multiset, so duplicates count), and a server rebuilt from it holds
/// and answers what a fault-free server that applied that prefix does.
fn assert_recovers_prefix(
    image: &DurableImage,
    recs: &[R],
    inserts: &[Vec<(R, f64)>],
    frames: usize,
    what: &str,
) -> RecoveryReport {
    let (got, rep) = recovered_records(image);
    let committed = recs.iter().chain(inserts[..frames].iter().flatten().map(|(r, _)| r));
    assert_eq!(
        encoded_multiset(got.iter()),
        encoded_multiset(committed),
        "{what}: recovery lost or invented a committed record"
    );
    let recovered = recover_server(image, RegionGrid::single());
    let oracle = clean(recs);
    oracle.serve_serial(&[], &inserts[..frames]);
    assert_eq!(resident_ids(&recovered), resident_ids(&oracle), "{what}");
    assert_eq!(requery(&recovered), requery(&oracle), "{what}: answers diverged");
    rep
}

/// (g) The crash-point matrix for the durable single-tree server: after
/// any number of served frames — including a crash *between* a frame's
/// WAL append and its tree apply — recovery hands back exactly the
/// committed-frame prefix, and the rebuilt server answers like a
/// fault-free one that applied it. The checkpoint cadence of 3 puts
/// initial-checkpoint-only, post-checkpoint, and mid-interval crash
/// points all in the matrix.
#[test]
fn chaos_g_crash_points_recover_the_committed_prefix() {
    let recs = line_records(60);
    let frames = 6;
    let inserts = line_inserts(frames, 3);

    for crashed_at in 0..=frames {
        let log = Arc::new(DurableLog::new(3));
        let server = clean(&recs).with_durability(Arc::clone(&log));
        let report = server.serve_serial(&[], &inserts[..crashed_at]);
        assert!(report.writer_outcome.is_ok());
        assert_eq!(report.wal_appends, crashed_at as u64);

        // The crash lands between the next frame's group commit and its
        // first page write: the record is durable, the pages are not.
        let committed = if crashed_at < frames {
            log.commit_frame(crashed_at as u64, &inserts[crashed_at]);
            crashed_at + 1
        } else {
            crashed_at
        };

        let what = format!("crash at {crashed_at}");
        let rep = assert_recovers_prefix(&log.durable_image(), &recs, &inserts, committed, &what);
        assert!(rep.tail.is_clean(), "{what}: {:?}", rep.tail);
    }
}

/// (h) Tail damage at every byte offset of the WAL's last record —
/// truncation and bit flips — must land recovery on the last *complete*
/// group commit: the damaged frame is lost, every earlier frame is
/// intact, and the report's tail says clean only at the exact record
/// boundary.
#[test]
fn chaos_h_torn_and_corrupt_wal_tails_recover_the_last_complete_commit() {
    let recs = line_records(40);
    let inserts = line_inserts(4, 3);
    let log = Arc::new(DurableLog::new(0)); // initial checkpoint only
    let server = clean(&recs).with_durability(Arc::clone(&log));
    server.serve_serial(&[], &inserts[..3]);
    let prefix_len = log.durable_image().wal.len();
    // Frame 3 commits but never applies (crash mid-frame); its record is
    // the one the damage schedule mutilates.
    log.commit_frame(3, &inserts[3]);
    let full = log.durable_image();
    assert!(full.wal.len() > prefix_len);

    let check = |img: DurableImage, want_clean: bool, what: String| {
        let rep = assert_recovers_prefix(&img, &recs, &inserts, 3, &what);
        assert_eq!(rep.replayed_frames, 3, "{what}: wrong landing point");
        assert_eq!(
            rep.tail.is_clean(),
            want_clean,
            "{what}: tail was {:?}",
            rep.tail
        );
    };

    for cut in prefix_len..full.wal.len() {
        let mut img = full.clone();
        img.wal.truncate(cut);
        check(img, cut == prefix_len, format!("truncated at {cut}"));
    }
    for off in prefix_len..full.wal.len() {
        let mut img = full.clone();
        img.wal[off] ^= 0x40;
        check(img, false, format!("bit flip at {off}"));
    }
}

/// (i) A device that fills mid-run: the writer degrades to `Failed`
/// without panicking or zombifying the serve (every frame still runs,
/// sessions still read), the log keeps group-committing and folding
/// every frame, and recovery onto an uncapped device replays the whole
/// backlog — the records and answers of a fault-free run that never
/// filled up.
#[test]
fn chaos_i_full_device_fails_writer_cleanly_and_wal_recovers_the_backlog() {
    let recs = line_records(30);
    let frames = 5;
    let inserts = line_inserts(frames, 4);

    // Cap the id space so the preload fits with two pages to spare: the
    // insert stream must hit `StorageError::Full` partway through.
    let pages = clean(&recs).with_region_tree(0, |t| t.store().page_count());
    let capped = Pager::with_page_size(256).with_id_cap(pages + 2);

    let log = Arc::new(DurableLog::new(2));
    let server = single(capped, &recs).with_durability(Arc::clone(&log));
    let specs = vec![slide_spec(SessionKind::Pdq, 0.0, frames, 5.0)];
    let report = server.serve(&specs, &inserts);

    assert!(
        matches!(report.writer_outcome, SessionOutcome::Failed(_)),
        "full device must fail the writer, got {:?}",
        report.writer_outcome
    );
    assert!(
        report.inserts_applied < frames * 4,
        "the cap never bit — the regression is vacuous"
    );
    assert_eq!(report.frames, frames, "a failed writer must not stall the serve");
    assert!(report.sessions[0].outcome.is_ok(), "readers outlive a full device");
    assert_eq!(
        report.wal_appends, frames as u64,
        "a failed writer must keep group-committing"
    );
    let stats = log.stats();
    assert_eq!(
        (stats.checkpoints, stats.checkpoint_failures),
        (3, 0),
        "5 commits at every=2 fold twice past the base: a checkpoint holds what was committed"
    );

    let rep = assert_recovers_prefix(&log.durable_image(), &recs, &inserts, frames, "full device");
    assert_eq!(rep.replayed_frames, 1, "only the unfolded frame replays");
    assert!(rep.tail.is_clean());
}

/// (j) Recovery through a rebuild, one region or many, over bare pagers
/// and over buffer pools: one shared WAL, checkpoints of the
/// deduplicated record set, and recovery by
/// [`PartitionedDqServer::build`] plus frame replay. The recovered
/// server holds exactly the crashed server's records (including a frame
/// committed but never applied), and serves identical results.
#[test]
fn chaos_j_partitioned_recovery_is_result_equivalent() {
    let cuts = || RegionGrid::from_cuts(0, vec![40.0, 80.0]);
    let bare = |_: usize| RTree::new(Pager::with_page_size(256), RTreeConfig::default());
    let pooled = |_: usize| {
        RTree::new(
            ShardedBufferPool::new(Pager::with_page_size(256), 16, 2),
            RTreeConfig::default(),
        )
    };
    recovery_is_result_equivalent(RegionGrid::single(), bare);
    recovery_is_result_equivalent(cuts(), bare);
    recovery_is_result_equivalent(RegionGrid::single(), pooled);
    recovery_is_result_equivalent(cuts(), pooled);
}

/// One `chaos_j` case: a durable serve with mid-run checkpoints under
/// `grid`, region trees from `make`, then a crash and a recovery.
fn recovery_is_result_equivalent<S: PageStore + Send + Sync>(
    grid: RegionGrid,
    make: impl FnMut(usize) -> RTree<R, S>,
) {
    let recs = line_records(120);
    let specs = vec![
        slide_spec(SessionKind::Pdq, 0.0, 12, 12.0),
        slide_spec(SessionKind::Npdq, 30.0, 12, 12.0),
    ];
    let inserts = line_inserts(12, 2);
    let registry = dq_repro::obs::MetricsRegistry::new();
    let log = Arc::new(DurableLog::new(5));
    log.attach_metrics(&registry);
    let server =
        PartitionedDqServer::build(grid.clone(), &recs, make).with_durability(Arc::clone(&log));
    let report = server.serve(&specs, &inserts);
    assert!(report.base.writer_outcome.is_ok());
    assert_eq!(report.base.wal_appends, 12);
    assert!(
        report.base.checkpoints >= 1,
        "12 commits at every=5 must install mid-run checkpoints"
    );
    let stats = log.stats();
    assert_eq!(stats.wal.appends, report.base.wal_appends);
    assert_eq!(registry.counter_value("wal.appends"), stats.wal.appends);
    assert_eq!(stats.checkpoint_failures, 0, "a checkpoint fold was refused");

    // Crash with one more frame durable but applied to no region; the
    // live server absorbs the same frame so the comparison target holds
    // the full committed prefix too.
    let extra = vec![(
        R::new(9000, 0, Interval::new(3.6, 100.0), [5.25, 0.5], [5.25, 0.5]),
        3.6,
    )];
    log.commit_frame(12, &extra);
    let image = log.durable_image();
    server.serve_serial(&[], std::slice::from_ref(&extra));

    let (_, frames, rep) = image.recover_records::<2>().unwrap();
    assert!(rep.tail.is_clean());
    assert_eq!(rep.replayed_frames, frames.len() as u64);
    assert_eq!(frames.last().expect("the extra frame is committed").0, 12);
    rep.publish(&registry);
    assert_eq!(registry.counter_value("wal.replayed_records"), rep.replayed_records);

    // Same deduplicated record set, and the same answers to a fresh
    // identical query run.
    let recovered = recover_server(&image, grid);
    assert_eq!(resident_ids(&recovered), resident_ids(&server));
    assert_eq!(requery(&recovered), requery(&server), "diverged after recovery");
}

/// (k) A region writer that dies mid-run (its id-capped device fills)
/// must cost durability nothing: a logical checkpoint holds what was
/// *committed*, not what a tree absorbed, so checkpoints keep installing
/// on cadence, the WAL stays bounded by that cadence, and recovery hands
/// back every committed record — including the ones the dead region
/// never applied. Concurrent and serial paths alike.
#[test]
fn chaos_k_failed_region_writer_neither_stops_checkpoints_nor_loses_commits() {
    let recs = line_records(36);
    let frames = 12;
    let inserts = line_inserts(frames, 4);
    let grid = RegionGrid::from_cuts(0, vec![12.0, 24.0]);
    let specs = vec![slide_spec(SessionKind::Pdq, 0.0, frames, 12.0)];

    // Cap region 1's id space two pages past its share of the preload:
    // its slice of the insert stream must hit `StorageError::Full`.
    let pages = build_tree(Pager::with_page_size(256), &recs[12..24]).store().page_count();
    let make = |r: usize| {
        let pager = Pager::with_page_size(256);
        let pager = if r == 1 { pager.with_id_cap(pages + 2) } else { pager };
        RTree::new(pager, RTreeConfig::default())
    };

    let extra = vec![(
        R::new(9000, 0, Interval::new(3.6, 100.0), [15.25, 0.5], [15.25, 0.5]),
        3.6,
    )];
    let committed = encoded_multiset(
        recs.iter()
            .chain(inserts.iter().flatten().map(|(r, _)| r))
            .chain(extra.iter().map(|(r, _)| r)),
    );

    for concurrent in [true, false] {
        let log = Arc::new(DurableLog::new(3));
        let server = PartitionedDqServer::build(grid.clone(), &recs, make)
            .with_durability(Arc::clone(&log));
        let report = if concurrent {
            server.serve(&specs, &inserts)
        } else {
            server.serve_serial(&specs, &inserts)
        };
        let what = if concurrent { "serve" } else { "serve_serial" };

        for (r, region) in report.regions.iter().enumerate() {
            assert_eq!(
                matches!(region.writer_outcome, SessionOutcome::Failed(_)),
                r == 1,
                "{what}: region {r} ended {:?}",
                region.writer_outcome
            );
        }
        assert!(
            report.base.inserts_applied < frames * 4,
            "{what}: the cap never bit — the regression is vacuous"
        );
        assert!(report.base.sessions[0].outcome.is_ok(), "{what}");
        assert_eq!(report.base.wal_appends, frames as u64, "{what}");
        assert_eq!(
            report.base.checkpoints, 4,
            "{what}: 12 commits at every=3 fold four times, failed writer or not"
        );
        let stats = log.stats();
        assert_eq!((stats.checkpoints, stats.checkpoint_failures), (5, 0), "{what}");
        assert_eq!(
            log.durable_image().wal.len(),
            8,
            "{what}: the last fold left the WAL header-only"
        );

        // Crash with one more frame durable, aimed at the dead region.
        log.commit_frame(frames as u64, &extra);
        let image = log.durable_image();
        let (got, rep) = recovered_records(&image);
        assert!(rep.tail.is_clean(), "{what}");
        assert_eq!(rep.replayed_frames, 1, "{what}: only the unfolded frame replays");
        assert_eq!(
            encoded_multiset(got.iter()),
            committed,
            "{what}: recovery lost or invented a committed record"
        );

        // Rebuilt on devices with room, the recovered server holds it all.
        let recovered = PartitionedDqServer::build(grid.clone(), &got, |_| {
            RTree::new(Pager::with_page_size(256), RTreeConfig::default())
        });
        let held = resident_ids(&recovered);
        assert_eq!(held.len(), committed.len(), "{what}");
        assert!(held.len() > resident_ids(&server).len(), "{what}: the crashed server was short");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (l) Differential check of the log-derived checkpoint against the
    /// tree scan it replaced. For random batches (ids may repeat, and
    /// may collide with the preload), a random checkpoint cadence, and a
    /// crash image at every commit boundary — applied and
    /// committed-but-unapplied — plus a torn and a bit-flipped last
    /// record: the recovered multiset (checkpoint base ∪ replayed
    /// frames) is exactly the committed prefix, and its id set is what a
    /// scan of a server that applied that prefix serially finds.
    #[test]
    fn chaos_l_random_crash_points_recover_the_committed_prefix(
        preload in 0u32..40,
        drawn in proptest::collection::vec(
            proptest::collection::vec((20u32..60, 0.0f64..36.0), 0..5),
            1..9,
        ),
        every in 0u64..5,
        damage in 0.0f64..1.0,
    ) {
        let recs = line_records(preload);
        let batches: Vec<Vec<(R, f64)>> = drawn
            .iter()
            .enumerate()
            .map(|(k, batch)| {
                let t = k as f64 * 0.3;
                batch
                    .iter()
                    .map(|&(oid, x)| (R::new(oid, 0, Interval::new(t, 100.0), [x, 0.5], [x, 0.5]), t))
                    .collect()
            })
            .collect();
        let grid = RegionGrid::from_cuts(0, vec![12.0, 24.0]);
        let make = |_: usize| RTree::new(Pager::with_page_size(256), RTreeConfig::default());
        let oracle = PartitionedDqServer::build(grid.clone(), &recs, make);

        for crash_at in 0..=batches.len() {
            if crash_at > 0 {
                oracle.serve_serial(&[], &batches[crash_at - 1..crash_at]);
            }
            let prefix = |frames: usize| {
                encoded_multiset(
                    recs.iter().chain(batches[..frames].iter().flatten().map(|(r, _)| r)),
                )
            };
            let log = Arc::new(DurableLog::new(every));
            let server = PartitionedDqServer::build(grid.clone(), &recs, make)
                .with_durability(Arc::clone(&log));
            server.serve(&[], &batches[..crash_at]);

            // Every frame committed and applied.
            let applied = log.durable_image();
            let (got, rep) = recovered_records(&applied);
            prop_assert!(rep.tail.is_clean());
            prop_assert!(
                encoded_multiset(got.iter()) == prefix(crash_at),
                "crash after frame {crash_at}: recovered {} records",
                got.len()
            );
            let unfolded = if every == 0 { crash_at as u64 } else { crash_at as u64 % every };
            prop_assert_eq!(rep.replayed_frames, unfolded, "the WAL outgrew its cadence");
            let ids: std::collections::BTreeSet<(u32, u32)> = got.iter().map(R::ids).collect();
            prop_assert_eq!(ids, resident_ids(&oracle), "crash after frame {}", crash_at);

            // The next frame committed, applied nowhere — then its record
            // torn, then bit-flipped, somewhere inside.
            let Some(next) = batches.get(crash_at) else { continue };
            log.commit_frame(crash_at as u64, next);
            let full = log.durable_image();
            let (got, rep) = recovered_records(&full);
            prop_assert!(rep.tail.is_clean());
            prop_assert!(
                encoded_multiset(got.iter()) == prefix(crash_at + 1),
                "crash inside frame {crash_at}: recovered {} records",
                got.len()
            );

            let last = applied.wal.len()..full.wal.len();
            let at = last.start + (damage * last.len() as f64) as usize;
            let mut torn = full.clone();
            torn.wal.truncate(at);
            let (got, rep) = recovered_records(&torn);
            prop_assert_eq!(rep.tail.is_clean(), at == last.start);
            prop_assert!(
                encoded_multiset(got.iter()) == prefix(crash_at),
                "torn at byte {at}: recovered {} records",
                got.len()
            );
            let mut flipped = full.clone();
            flipped.wal[at] ^= 0x40;
            let (got, rep) = recovered_records(&flipped);
            prop_assert!(!rep.tail.is_clean());
            prop_assert!(
                encoded_multiset(got.iter()) == prefix(crash_at),
                "bit flip at byte {at}: recovered {} records",
                got.len()
            );
        }
    }
}
